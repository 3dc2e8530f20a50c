//! Replication for Oak: N engine nodes, each hosting a slice of the
//! user space, surviving node death without losing an acked report.
//!
//! The paper's per-user rule state (Oak, ICDCS 2017 §4) is the unit
//! worth replicating: it is learned from weeks of client reports and is
//! exactly what a single-process deployment loses on a crash. This
//! crate stacks four pieces on top of the existing engine + WAL:
//!
//! - [`ring`] — consistent-hash placement. Users map to partitions by
//!   the engine's own shard hash; partitions map to replica sets (one
//!   primary + followers) on a virtual-node ring.
//! - [`lease`] — a deterministic heartbeat/lease protocol deciding who
//!   is primary. At most one leaseholder per partition per epoch; a
//!   vote is only granted to a candidate at least as durable as the
//!   voter, which is the whole losslessness argument.
//! - [`msg`] — the wire codec: one flat binary envelope per message,
//!   in the WAL's own CRC frame, over the transport seam.
//! - [`node`] — [`node::ClusterNode`] glues an engine + store per
//!   hosted partition to the lease machine and ships WAL frames
//!   ([`oak_store::stream`]) to followers; client acks release at the
//!   replication watermark (majority-durable), never before.
//! - [`router`] — the thin layer in front of the serving edge: user →
//!   partition → current primary, or a 503 + Retry-After hint while an
//!   election is in flight.
//!
//! Everything is sans-io: time is an argument, messages are return
//! values. oak-sim drives the whole cluster deterministically (SimNet
//! beside SimFs/SimClock) and checks the invariants — no acked report
//! lost across any failover, one primary per epoch, stale primaries
//! step down — under seeded crash/partition schedules; `oak-serve
//! --cluster` drives the same code over TCP.

pub mod lease;
pub mod msg;
pub mod node;
pub mod ring;
pub mod router;

/// A cluster node's identity. Dense small integers — node `n` listens at
/// peer index `n` in `--peers` order, and sim nodes are 0..N.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

pub use lease::{Durable, Lease, LeaseConfig, LeaseMsg, Role};
pub use msg::{DecodeStep, Envelope, Message};
pub use node::{ClusterNode, NodeOptions, PartitionStatus};
pub use ring::{Ring, Topology};
pub use router::{RouteDecision, Router, RETRY_AFTER_HINT_SECS};
