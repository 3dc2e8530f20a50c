//! A deterministic model of the wide-area network Oak was evaluated on.
//!
//! The paper's experiments ran on 25 PlanetLab vantage points fetching from
//! production third-party servers. This crate replaces that testbed with a
//! seeded, order-independent model that reproduces the *relative* structure
//! the evaluation depends on:
//!
//! - **Geography** ([`Region`], [`rtt_ms`]): inter-region base RTTs, so
//!   clients far from a server see longer, noisier paths (Fig. 9's
//!   NA/EU/AS sensitivity spread).
//! - **DNS** ([`Dns`]): domains resolving to one or more IPs, with several
//!   domains co-hosted on one IP — Oak groups report entries by resolved IP
//!   while "keeping track of all related domain names" (§4.2).
//! - **Server behaviour** ([`Server`], [`Quality`]): per-server processing
//!   delay, capacity, and a diurnal load curve in the server's local time
//!   zone (Fig. 11's day/night swing).
//! - **Impairments** ([`Impairment`]): transient congestion windows and
//!   persistent path degradations targeting specific client regions — the
//!   two outlier populations of Fig. 3 (≈ half vanish within a day, the
//!   rest persist).
//! - **Device classes** ([`DeviceProfile`]): client-side CPU and radio
//!   cost classes (desktop / mid-mobile / low-end-mobile), so the same
//!   page load prices differently on different silicon — the device
//!   confound the `detector` row of oak-bench's `repro` measures.
//! - **Transfer pricing** ([`World::fetch`]): DNS + connect + request +
//!   processing + bandwidth/latency-capped transfer, with multiplicative
//!   log-normal noise derived *statelessly* from the tuple
//!   (seed, client, server, object, time-bucket), so results do not depend
//!   on call order and experiments are exactly repeatable.
//!
//! # Examples
//!
//! ```
//! use oak_net::{Quality, Region, SimTime, WorldBuilder};
//!
//! let mut b = WorldBuilder::new(42);
//! let origin = b.server("origin.example", Region::NorthAmerica, Quality::Good);
//! let cdn = b.server("cdn.example", Region::Europe, Quality::Mediocre);
//! let client = b.client(Region::NorthAmerica);
//! let world = b.build();
//!
//! let t = SimTime::from_hours(12);
//! let near = world.fetch(t, client, world.ip_of(origin), 50_000, 1);
//! let far = world.fetch(t, client, world.ip_of(cdn), 50_000, 1);
//! assert!(far.time_ms > near.time_ms, "cross-ocean fetch is slower");
//! ```

mod addr;
mod device;
mod dns;
mod geo;
mod impairment;
mod rng;
mod time;
mod topology;
mod transfer;

pub use addr::{ClientId, IpAddr, ServerId};
pub use device::DeviceProfile;
pub use dns::Dns;
pub use geo::{rtt_ms, Region};
pub use impairment::{Impairment, ImpairmentKind};
pub use rng::StatelessRng;
pub use time::SimTime;
pub use topology::{Client, Quality, Server, World, WorldBuilder};
pub use transfer::{url_nonce, Fetch};

#[cfg(test)]
mod tests;
