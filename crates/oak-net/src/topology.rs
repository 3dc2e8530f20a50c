//! Servers, clients, and the world they live in.

use crate::addr::{ClientId, IpAddr, ServerId};
use crate::dns::Dns;
use crate::geo::Region;
use crate::impairment::{Impairment, ImpairmentKind};
use crate::rng::StatelessRng;
use crate::time::SimTime;

/// How well-run a server is. Quality sets the *baseline*; impairments are
/// layered on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Quality {
    /// Well-provisioned: low processing delay, high bandwidth, small
    /// diurnal swing. Think major CDN edge.
    Good,
    /// Adequate but visibly loaded at peak: moderate delay and bandwidth.
    Mediocre,
    /// Under-provisioned: high delay, low bandwidth, large diurnal swing.
    /// Think a third-party ad/analytics box — the population dominating
    /// the paper's Table 1 outliers.
    Poor,
}

impl Quality {
    /// (base processing ms, bandwidth kbps, diurnal amplitude).
    fn parameters(self) -> (f64, f64, f64) {
        match self {
            Quality::Good => (15.0, 80_000.0, 0.15),
            Quality::Mediocre => (24.0, 40_000.0, 0.30),
            Quality::Poor => (120.0, 6_000.0, 0.9),
        }
    }
}

/// A simulated server.
#[derive(Clone, Debug)]
pub struct Server {
    /// Identifier within the world.
    pub id: ServerId,
    /// Canonical hostname (further domains may alias to the same IP via
    /// [`Dns`] records).
    pub hostname: String,
    /// The server's address.
    pub ip: IpAddr,
    /// Where the server is.
    pub region: Region,
    /// Baseline quality tier.
    pub quality: Quality,
    /// Base per-request processing time, ms.
    pub processing_ms: f64,
    /// Egress bandwidth available to one client, kbit/s.
    pub bandwidth_kbps: f64,
    /// Amplitude of the diurnal load swing (0 = flat).
    pub diurnal_amplitude: f64,
    /// True for CDN-style providers with edges everywhere: clients reach
    /// them at intra-region RTTs regardless of `region` (which remains
    /// the operational home for diurnal load). Single-homed providers
    /// (`false`) are reached across the real geographic distance — the
    /// population that produces the paper's regional outliers (Table 3's
    /// "resources for Chinese travel site qunar.com perform poorly only
    /// for clients outside of China").
    pub distributed: bool,
    /// True for experiment-owned mirrors with provisioned, well-peered
    /// paths: the stable per-(client, server) path-affinity factor is
    /// skipped. The paper's three replica servers are dedicated hosts
    /// serving only the experiment (§5.3); production third parties keep
    /// their pot-luck peering.
    pub affinity_neutral: bool,
}

impl Server {
    /// Load factor at time `t` from local-time-of-day demand: 1.0 at night,
    /// up to `1 + amplitude` in the local mid-day/evening peak. This is the
    /// mechanism behind Fig. 11, where "as the default providers became
    /// busy during the day, Oak was able to significantly improve the total
    /// page load time".
    pub fn diurnal_load(&self, t: SimTime) -> f64 {
        let local_hour = (t.hour_of_day_utc() + self.region.utc_offset_hours()).rem_euclid(24.0);
        // Demand curve peaking at 14:00 local, trough at 02:00.
        let phase = (local_hour - 14.0) / 24.0 * std::f64::consts::TAU;
        let demand = 0.5 * (1.0 + phase.cos());
        1.0 + self.diurnal_amplitude * demand
    }
}

/// A simulated client (vantage point).
#[derive(Clone, Debug)]
pub struct Client {
    /// Identifier within the world.
    pub id: ClientId,
    /// Where the client is.
    pub region: Region,
    /// Access-link bandwidth, kbit/s.
    pub access_kbps: f64,
    /// Last-mile latency added to every RTT, ms.
    pub last_mile_ms: f64,
    /// The client's own address (for subnet-scoped policies).
    pub ip: IpAddr,
}

/// The complete simulated network: servers, clients, DNS, impairments.
///
/// `World` is immutable after [`WorldBuilder::build`] apart from
/// [`World::add_impairment`] / [`World::inject_delay`], which experiments
/// use to perturb a running scenario (Fig. 9 injects delays between loads).
#[derive(Clone, Debug)]
pub struct World {
    pub(crate) seed: u64,
    pub(crate) servers: Vec<Server>,
    pub(crate) clients: Vec<Client>,
    /// The DNS table (public: experiments add alias records directly).
    pub dns: Dns,
    /// Impairments indexed by server: the corpus installs thousands of
    /// congestion windows and `fetch` consults them on every object, so
    /// the per-fetch lookup must not scan the global list.
    pub(crate) impairments: std::collections::HashMap<ServerId, Vec<Impairment>>,
}

impl World {
    /// The seed this world was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// All clients.
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Looks up a server.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this world.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// Looks up a client.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this world.
    pub fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.0 as usize]
    }

    /// The address of a server.
    pub fn ip_of(&self, id: ServerId) -> IpAddr {
        self.server(id).ip
    }

    /// The server listening on `ip`, if any.
    pub fn server_at(&self, ip: IpAddr) -> Option<&Server> {
        self.servers.iter().find(|s| s.ip == ip)
    }

    /// The ground truth experiments score detectors against: whether the
    /// server at `ip` is troubled for `client` at `t` — impaired for the
    /// client's region, single-homed in another region, or Poor quality.
    /// An address no server holds is not troubled.
    pub fn troubled(&self, ip: &str, client: ClientId, t: SimTime) -> bool {
        let Some(server) = IpAddr::parse(ip).and_then(|addr| self.server_at(addr)) else {
            return false;
        };
        let region = self.client(client).region;
        let impaired = self.impairments.get(&server.id).is_some_and(|list| {
            list.iter()
                .any(|impairment| impairment.latency_factor(t, region) > 1.0)
        });
        impaired
            || (!server.distributed && server.region != region)
            || server.quality == Quality::Poor
    }

    /// Resolves a domain for a client (see [`Dns::resolve`]).
    pub fn resolve(&self, domain: &str, client: ClientId) -> Option<IpAddr> {
        self.dns.resolve(self.seed, domain, client)
    }

    /// Adds an impairment to the world.
    pub fn add_impairment(&mut self, impairment: Impairment) {
        self.impairments
            .entry(impairment.server)
            .or_default()
            .push(impairment);
    }

    /// Convenience: inject a fixed response delay at `server` (Fig. 9).
    /// Undo with [`World::remove_injected_delays`].
    pub fn inject_delay(&mut self, server: ServerId, millis: f64) {
        self.add_impairment(Impairment {
            server,
            kind: ImpairmentKind::InjectedDelay { millis },
            window: None,
        });
    }

    /// Removes every injected delay from `server`, leaving other
    /// impairments in place.
    pub fn remove_injected_delays(&mut self, server: ServerId) {
        if let Some(list) = self.impairments.get_mut(&server) {
            list.retain(|i| !matches!(i.kind, ImpairmentKind::InjectedDelay { .. }));
        }
    }

    /// Removes all impairments from `server`.
    pub fn clear_impairments(&mut self, server: ServerId) {
        self.impairments.remove(&server);
    }

    /// Current impairments, flattened (for inspection in tests and
    /// experiments); ordering groups by server.
    pub fn impairments(&self) -> Vec<&Impairment> {
        self.impairments.values().flatten().collect()
    }

    /// Combined latency multiplier and fixed delay for a (server, client
    /// region) pair at `t`.
    pub(crate) fn impairment_effect(
        &self,
        server: ServerId,
        client_region: Region,
        t: SimTime,
    ) -> (f64, f64) {
        let mut factor = 1.0;
        let mut extra = 0.0;
        if let Some(list) = self.impairments.get(&server) {
            for imp in list {
                factor *= imp.latency_factor(t, client_region);
                extra += imp.extra_delay_ms(t);
            }
        }
        (factor, extra)
    }
}

/// Constructs a [`World`].
///
/// # Examples
///
/// ```
/// use oak_net::{Quality, Region, WorldBuilder};
///
/// let mut b = WorldBuilder::new(7);
/// let s = b.server("cdn.example", Region::Europe, Quality::Good);
/// let c = b.client(Region::Asia);
/// let world = b.build();
/// assert_eq!(world.resolve("cdn.example", c), Some(world.ip_of(s)));
/// ```
#[derive(Clone, Debug)]
pub struct WorldBuilder {
    seed: u64,
    servers: Vec<Server>,
    clients: Vec<Client>,
    dns: Dns,
    impairments: Vec<Impairment>,
}

impl WorldBuilder {
    /// Starts a world keyed by `seed`; every stochastic quantity derives
    /// from it.
    pub fn new(seed: u64) -> WorldBuilder {
        WorldBuilder {
            seed,
            servers: Vec::new(),
            clients: Vec::new(),
            dns: Dns::new(),
            impairments: Vec::new(),
        }
    }

    /// Adds a single-homed server with quality-derived parameters
    /// (jittered ±20 % so no two servers are identical) and a DNS record
    /// for `hostname`.
    pub fn server(&mut self, hostname: &str, region: Region, quality: Quality) -> ServerId {
        self.server_opts(hostname, region, quality, false)
    }

    /// Adds a CDN-style distributed server: clients everywhere reach it
    /// at intra-region latency (see [`Server::distributed`]).
    pub fn distributed_server(
        &mut self,
        hostname: &str,
        region: Region,
        quality: Quality,
    ) -> ServerId {
        self.server_opts(hostname, region, quality, true)
    }

    /// Adds a server with full control over placement.
    pub fn server_opts(
        &mut self,
        hostname: &str,
        region: Region,
        quality: Quality,
        distributed: bool,
    ) -> ServerId {
        let id = ServerId(self.servers.len() as u32);
        let mut rng = StatelessRng::keyed(self.seed, &[0x5e, u64::from(id.0)]);
        let (processing, bandwidth, amplitude) = quality.parameters();
        let ip = self.fresh_ip(&mut rng);
        self.dns.add_record(hostname, ip);
        self.servers.push(Server {
            id,
            hostname: hostname.to_owned(),
            ip,
            region,
            quality,
            processing_ms: processing * rng.uniform(0.8, 1.2),
            bandwidth_kbps: bandwidth * rng.uniform(0.8, 1.2),
            diurnal_amplitude: amplitude * rng.uniform(0.8, 1.2),
            distributed,
            affinity_neutral: false,
        });
        id
    }

    /// Adds an alias domain resolving to an existing server's IP
    /// (CDN co-hosting: several domains, one address).
    pub fn alias(&mut self, domain: &str, server: ServerId) {
        let ip = self.servers[server.0 as usize].ip;
        self.dns.add_record(domain, ip);
    }

    /// Adds an extra A record, making `domain` resolve to multiple
    /// addresses across clients.
    pub fn multihome(&mut self, domain: &str, server: ServerId) {
        self.alias(domain, server);
    }

    /// Adds a client in `region` with a broadband-like access link
    /// (jittered per client).
    pub fn client(&mut self, region: Region) -> ClientId {
        self.client_with_link(region, (20_000.0, 100_000.0), (2.0, 25.0))
    }

    /// Adds a client on a cellular-grade link: single-digit Mbit/s and a
    /// long radio last mile. §5.1 notes Oak's relative detection "applies
    /// in other scenarios of reduced functionality, for example when
    /// using a mobile device" — everything is slow for this client, so
    /// nothing should read as a *relative* outlier.
    pub fn mobile_client(&mut self, region: Region) -> ClientId {
        self.client_with_link(region, (2_000.0, 8_000.0), (40.0, 120.0))
    }

    /// Adds a client with explicit access-link ranges:
    /// `(kbps_lo, kbps_hi)` bandwidth and `(ms_lo, ms_hi)` last-mile
    /// latency, drawn per client.
    pub fn client_with_link(
        &mut self,
        region: Region,
        access_kbps: (f64, f64),
        last_mile_ms: (f64, f64),
    ) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        let mut rng = StatelessRng::keyed(self.seed, &[0xc1, u64::from(id.0)]);
        let ip = self.fresh_ip(&mut rng);
        self.clients.push(Client {
            id,
            region,
            access_kbps: rng.uniform(access_kbps.0, access_kbps.1),
            last_mile_ms: rng.uniform(last_mile_ms.0, last_mile_ms.1),
            ip,
        });
        id
    }

    /// Adds an impairment active from construction.
    pub fn impairment(&mut self, impairment: Impairment) {
        self.impairments.push(impairment);
    }

    /// Adjusts a server's parameters in place — experiments use this to
    /// shape specific hosts (e.g. the §5.2 benchmark gives its two bad
    /// default servers a PlanetLab-grade daytime collapse).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this builder.
    pub fn tune_server(&mut self, id: ServerId, tune: impl FnOnce(&mut Server)) {
        tune(&mut self.servers[id.0 as usize]);
    }

    /// Finalizes the world.
    pub fn build(self) -> World {
        let mut world = World {
            seed: self.seed,
            servers: self.servers,
            clients: self.clients,
            dns: self.dns,
            impairments: std::collections::HashMap::new(),
        };
        for impairment in self.impairments {
            world.add_impairment(impairment);
        }
        world
    }

    fn fresh_ip(&self, rng: &mut StatelessRng) -> IpAddr {
        // Draw from 10.0.0.0/8 and avoid collisions with assigned hosts.
        loop {
            let candidate = IpAddr(0x0a00_0000 | (rng.next_u64() as u32 & 0x00ff_ffff));
            let taken = self.servers.iter().any(|s| s.ip == candidate)
                || self.clients.iter().any(|c| c.ip == candidate);
            if !taken {
                return candidate;
            }
        }
    }
}
