//! Replication for Oak: one replication group of engine nodes, every
//! member a replica, surviving node death without losing an acked
//! report.
//!
//! The paper's per-user rule state (Oak, ICDCS 2017 §4) is the unit
//! worth replicating: it is learned from weeks of client reports and is
//! exactly what a single-process deployment loses on a crash. The paper
//! runs one logical Oak server, so the group holds every user. This
//! crate stacks three pieces on top of the existing engine + WAL:
//!
//! - [`lease`] — a deterministic heartbeat/lease protocol deciding who
//!   is primary. At most one leaseholder per epoch; a vote is only
//!   granted to a candidate at least as durable as the voter, which is
//!   the whole losslessness argument.
//! - [`msg`] — the wire codec: one flat binary envelope per message,
//!   in the WAL's own CRC frame, over the transport seam.
//! - [`node`] — [`node::ClusterNode`] glues the engine + store to the
//!   lease machine and ships WAL frames ([`oak_store::stream`]) to the
//!   followers; client acks release at the replication watermark
//!   (majority-durable), never before. A node that does not hold the
//!   lease refuses client traffic ([`node::NotPrimary`]), which the
//!   serving edge answers with 503 + `Retry-After`.
//!
//! Everything is sans-io: time is an argument, messages are return
//! values. oak-sim drives the whole group deterministically (SimNet
//! beside SimFs/SimClock) and checks the invariants — no acked report
//! lost across any failover, one primary per epoch, stale primaries
//! step down — under seeded crash/partition schedules; `oak-serve
//! --cluster` drives the same code over TCP.

pub mod lease;
pub mod msg;
pub mod node;

/// A cluster node's identity. Dense small integers — node `n` listens at
/// peer index `n` in `--peers` order, and sim nodes are 0..N.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The partition id of the one group. The envelope layout, the node
/// directory (`part-00/`) and the status surfaces still name a
/// partition; it is always this one.
pub const PARTITION: u32 = 0;

/// The replication group: its members, every one of them a replica, so
/// the replication factor is the member count.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeId>,
}

impl Topology {
    /// The group of `nodes`.
    ///
    /// `partitions` and `replication` are kept for `bench/`, which
    /// builds `Topology::new(nodes, 1, 3)` (ROADMAP item 7's thaw
    /// deletes them): only one group in which every node is a replica
    /// is accepted.
    ///
    /// # Panics
    ///
    /// On any other layout, or on an empty group.
    pub fn new(nodes: Vec<NodeId>, partitions: u32, replication: usize) -> Topology {
        assert!(
            !nodes.is_empty() && partitions == 1 && replication == nodes.len(),
            "unsupported layout: {} node(s), {partitions} partition(s) of {replication} \
             replica(s); one group with every node a replica is the only layout",
            nodes.len()
        );
        Topology { nodes }
    }

    /// Every member.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

pub use lease::{Durable, Lease, LeaseConfig, LeaseMsg, Role};
pub use msg::{DecodeStep, Envelope, Message, MESSAGE_KINDS};
pub use node::{ClusterNode, NodeOptions, NotPrimary, PartitionStatus, RETRY_AFTER_HINT_SECS};
