//! One cluster node: engines, stores, leases, and WAL shipping for
//! every partition the node hosts.
//!
//! [`ClusterNode`] is sans-io like everything else in this crate: the
//! caller owns the clock and the wires. Three entry points drive it —
//! [`ClusterNode::tick`] (time passed), [`ClusterNode::handle`] (a
//! message arrived) and [`ClusterNode::ship`] (the primary's engine
//! journaled something) — and all return the envelopes to deliver.
//! oak-sim pumps them through its simulated network; `oak-serve
//! --cluster` pumps them through TCP. Identical bytes, identical
//! decisions.
//!
//! # Replication protocol (per partition)
//!
//! - The primary stamps every emitted event with its lease epoch
//!   ([`Oak::set_epoch`]) and ships its WAL tail to each follower
//!   ([`OakStore::tail`]) — WAL shipping in the literal sense: the
//!   frames a follower applies are decoded from the same bytes recovery
//!   would replay. Shipping is event-driven: [`ClusterNode::ship`] sends
//!   what was journaled since the follower's *sent* cursor, an
//!   `AppendAck` or `SnapshotAck` from a follower still behind the head
//!   is answered with its next batch, and the tick re-ships from the *acked* head only
//!   when a follower made no progress since the last tick (a lost
//!   `Append`, a gap, a regressed follower). No follower is ever owed
//!   acks for more than one batch's worth of events. An `Append` carries
//!   only events stamped with the primary's own lease epoch: what its
//!   store still holds of a branch that died is not history.
//! - A follower applies strictly in sequence (a gap, or an event not of
//!   the `Append`'s epoch, ends the batch), journals each event to its
//!   *own* WAL before applying it, and acks its durable head.
//! - Elections compare logs as `(branch epoch, head)` — the epoch of the
//!   replica's last event or installed snapshot ([`Oak::epoch`]) before
//!   its head sequence number — because heads alone do not compare
//!   across branches (see [`crate::lease`]).
//! - The **replication watermark** (`commit`) is the highest sequence
//!   number durable on a majority of replicas. Client acks release at
//!   the watermark and never before — so "acked" *means* "survives any
//!   single failover", which is exactly the invariant oak-sim checks.
//! - On winning an election a primary snapshot-transfers its full
//!   engine state to every follower before shipping appends. This
//!   clears any divergence a deposed primary accumulated (its unacked
//!   tail is simply discarded by the install) without log rollback
//!   machinery; the cost — one state transfer per follower per epoch —
//!   is the deliberate simplicity trade, measured in EXPERIMENTS.md.
//! - The durable lease slice (epoch + vote) is persisted to the
//!   partition directory *before* any produced message is returned, so
//!   a crash-and-restart cannot double-vote inside one epoch.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use oak_core::engine::{Oak, OakConfig};
use oak_core::events::EventSink;
use oak_json::Value;
use oak_store::{OakStore, StorageBackend, StoreOptions, Tail};

use crate::lease::{Durable, Lease, LeaseConfig, Role};
use crate::msg::{Envelope, Message};
use crate::ring::Topology;
use crate::NodeId;

/// Node-level configuration.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Engine configuration (every replica must agree).
    pub oak: OakConfig,
    /// Store durability policy. Replication acks assert durability, so
    /// cluster deployments should run `FsyncPolicy::Always`; a looser
    /// policy weakens "acked" to "applied, probably durable".
    pub store: StoreOptions,
    /// Lease/heartbeat timing.
    pub lease: LeaseConfig,
}

/// Max events per `Append` message, and per follower in flight.
pub(crate) const APPEND_BATCH: usize = 64;

/// Resend an unacked snapshot transfer after this long.
const SNAPSHOT_RESEND_MS: u64 = 200;

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            oak: OakConfig::default(),
            store: StoreOptions {
                fsync: oak_store::FsyncPolicy::Always,
                ..StoreOptions::default()
            },
            lease: LeaseConfig::default(),
        }
    }
}

/// Why a request cannot be served here right now. The router maps this
/// to `503 Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPrimary {
    /// The partition the request belongs to.
    pub partition: u32,
}

/// A point-in-time view of one hosted partition, for health/stats.
#[derive(Debug, Clone)]
pub struct PartitionStatus {
    pub partition: u32,
    pub role: Role,
    pub epoch: u64,
    /// This replica's applied (and journaled) head.
    pub head: u64,
    /// The replication watermark: primary's computed commit, or the
    /// last commit heard from a primary on a follower.
    pub commit: u64,
    /// Replication lag in events: on a primary, the worst follower's
    /// distance from head; on a follower, its own distance from the
    /// last heard commit.
    pub lag: u64,
}

/// Replication bookkeeping the primary keeps per partition.
#[derive(Debug, Default)]
struct Shipping {
    /// Follower → highest head acked under the current epoch.
    acked: BTreeMap<NodeId, u64>,
    /// Follower → one past the last seq shipped under the current
    /// epoch. Runs ahead of `acked` while an `Append` is in flight, so
    /// nothing is shipped twice; the tick drops it for a follower that
    /// stopped advancing, which re-ships from `acked`.
    sent: BTreeMap<NodeId, u64>,
    /// Followers whose acked head rose since the last tick.
    progressed: BTreeSet<NodeId>,
    /// Followers still owed the epoch-start snapshot transfer.
    needs_snapshot: BTreeSet<NodeId>,
    /// When each pending snapshot was last sent.
    snapshot_sent_ms: BTreeMap<NodeId, u64>,
}

/// One hosted partition: engine, store, lease, shipping state.
struct Partition {
    id: u32,
    oak: Arc<Oak>,
    store: Arc<OakStore>,
    lease: Lease,
    shipping: Shipping,
    /// Replication watermark (monotone). On a follower this is the
    /// highest commit heard from a live primary.
    commit: u64,
    /// Highest epoch whose snapshot transfer this replica installed. A
    /// later transfer of that epoch installs only past the head, or a
    /// duplicated one could regress an already-advanced follower.
    installed_epoch: u64,
}

impl Partition {
    fn head(&self) -> u64 {
        self.oak.event_seq()
    }

    /// This replica's log as elections compare it: `(branch epoch,
    /// head)`, lexicographically. Heads alone do not compare across
    /// branches — a deposed primary's dead branch may be the longest.
    fn log(&self) -> (u64, u64) {
        (self.oak.epoch(), self.head())
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("role", &self.lease.role())
            .field("epoch", &self.lease.epoch())
            .field("head", &self.head())
            .field("commit", &self.commit)
            .finish_non_exhaustive()
    }
}

/// A cluster node hosting every partition the topology assigns it.
#[derive(Debug)]
pub struct ClusterNode {
    id: NodeId,
    topology: Topology,
    options: NodeOptions,
    backend: Arc<dyn StorageBackend>,
    root: PathBuf,
    partitions: BTreeMap<u32, Partition>,
}

/// Name of the durable lease file inside a partition directory.
const LEASE_FILE: &str = "lease.json";

/// Name of the durable installed-snapshot-epoch file. Without it a
/// restarted follower would forget which epoch's snapshot it already
/// installed, and a duplicated `Snapshot` frame still in flight could
/// regress its engine below events it has journaled and acked.
const INSTALLED_FILE: &str = "installed.json";

impl ClusterNode {
    /// Boots (or re-boots after a crash) node `id`: recovers engine +
    /// store for every hosted partition from `root/part-PP/`, restores
    /// the durable lease slice, and starts everyone as a follower.
    pub fn new(
        id: NodeId,
        topology: Topology,
        backend: Arc<dyn StorageBackend>,
        root: impl Into<PathBuf>,
        options: NodeOptions,
        now_ms: u64,
    ) -> io::Result<ClusterNode> {
        let root = root.into();
        let mut partitions = BTreeMap::new();
        for partition in topology.partitions_of(id) {
            let dir = root.join(format!("part-{partition:02}"));
            let boot = OakStore::boot_with(backend.clone(), &dir, options.oak, options.store)?;
            let replicas = topology.replicas(partition);
            let mut lease = Lease::new(id, replicas, options.lease, now_ms);
            if let Some(durable) = read_lease_file(&*backend, &dir) {
                lease.restore(durable, now_ms);
            }
            partitions.insert(
                partition,
                Partition {
                    id: partition,
                    oak: Arc::new(boot.oak),
                    store: boot.store,
                    lease,
                    shipping: Shipping::default(),
                    commit: 0,
                    installed_epoch: read_installed_epoch(&*backend, &dir),
                },
            );
        }
        Ok(ClusterNode {
            id,
            topology,
            options,
            backend,
            root,
            partitions,
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The shared placement contract.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The partition holding `user`'s state.
    pub fn partition_of(&self, user: &str) -> u32 {
        self.topology.partition_of(user)
    }

    /// The partitions this node hosts.
    pub fn hosted_partitions(&self) -> Vec<u32> {
        self.partitions.keys().copied().collect()
    }

    /// The engine for `partition` **iff this node currently holds its
    /// lease** — the only handle through which client traffic (reports,
    /// page serves, rule changes) may reach an engine. Everything
    /// mutated through it is stamped with the lease epoch and reaches
    /// the followers on the caller's next [`ClusterNode::ship`] (or, at
    /// the latest, the next tick).
    pub fn primary_engine(&self, partition: u32) -> Result<Arc<Oak>, NotPrimary> {
        match self.partitions.get(&partition) {
            Some(p) if p.lease.is_primary() => Ok(p.oak.clone()),
            _ => Err(NotPrimary { partition }),
        }
    }

    /// The local engine replica regardless of role — for observability
    /// and the sim oracle only, never for serving client traffic.
    pub fn replica_engine(&self, partition: u32) -> Option<Arc<Oak>> {
        self.partitions.get(&partition).map(|p| p.oak.clone())
    }

    /// The durable store behind a hosted partition, so a serving edge
    /// can drive snapshot compaction
    /// ([`oak_store::OakStore::maybe_snapshot`]) from its ingest path.
    pub fn partition_store(&self, partition: u32) -> Option<Arc<OakStore>> {
        self.partitions.get(&partition).map(|p| p.store.clone())
    }

    /// The follower replicas whose journal has grown past
    /// `snapshot_every_events` since their last snapshot, as the store to
    /// compact and the engine to snapshot into it
    /// ([`OakStore::maybe_snapshot`]). A primary compacts from its ingest
    /// path; a follower ingests nothing, so whoever drives the node calls
    /// this after a tick — and runs the snapshots outside any lock it
    /// holds around the node, since a snapshot fsyncs. A snapshot of an
    /// engine an install has replaced meanwhile is not written (the
    /// store's snapshots only go forward).
    pub fn compactions_due(&self) -> Vec<(Arc<OakStore>, Arc<Oak>)> {
        self.partitions
            .values()
            .filter(|p| !p.lease.is_primary() && p.store.snapshot_due())
            .map(|p| (p.store.clone(), p.oak.clone()))
            .collect()
    }

    /// Current role for a hosted partition.
    pub fn role(&self, partition: u32) -> Option<Role> {
        self.partitions.get(&partition).map(|p| p.lease.role())
    }

    /// The replication watermark for a hosted partition: the highest
    /// sequence number durable on a majority. A client ack for an event
    /// batch ending at `seq` may be released once `commit >= seq`.
    pub fn commit(&self, partition: u32) -> Option<u64> {
        self.partitions.get(&partition).map(|p| p.commit)
    }

    /// Point-in-time status of every hosted partition, for
    /// health/stats surfaces.
    pub fn status(&self) -> Vec<PartitionStatus> {
        self.partitions
            .values()
            .map(|p| {
                let head = p.head();
                let lag = if p.lease.is_primary() {
                    self.followers(p.id)
                        .into_iter()
                        .map(|f| {
                            head.saturating_sub(p.shipping.acked.get(&f).copied().unwrap_or(0))
                        })
                        .max()
                        .unwrap_or(0)
                } else {
                    p.commit.saturating_sub(head)
                };
                PartitionStatus {
                    partition: p.id,
                    role: p.lease.role(),
                    epoch: p.lease.epoch(),
                    head,
                    commit: p.commit,
                    lag,
                }
            })
            .collect()
    }

    fn followers(&self, partition: u32) -> Vec<NodeId> {
        self.topology
            .replicas(partition)
            .into_iter()
            .filter(|&n| n != self.id)
            .collect()
    }

    /// Ships what the primary engines journaled since each follower's
    /// sent cursor, without waiting for the clock. Call it after
    /// mutating a [`ClusterNode::primary_engine`] when the caller is
    /// about to wait on [`ClusterNode::commit`].
    pub fn ship(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        let me = self.id;
        let ids: Vec<u32> = self.partitions.keys().copied().collect();
        for partition in ids {
            let followers = self.followers(partition);
            let p = self.partitions.get_mut(&partition).expect("hosted");
            for follower in followers {
                Self::ship_to(p, me, follower, &mut out);
            }
        }
        out
    }

    /// The one shipping path: sends `follower` the next `Append` past
    /// what it was already sent (or has acked, whichever is further).
    fn ship_to(p: &mut Partition, me: NodeId, follower: NodeId, out: &mut Vec<Envelope>) {
        if !p.lease.is_primary() || p.shipping.needs_snapshot.contains(&follower) {
            return;
        }
        let acked = p.shipping.acked.get(&follower).copied().unwrap_or(0);
        let sent = p.shipping.sent.get(&follower).copied().unwrap_or(0);
        let from = sent.max(acked);
        // At most one batch's worth unacked per follower. A follower
        // that keeps up never has that much in flight and is sent every
        // event as it happens; one that is behind is sent its next batch
        // when it acks the last, so it is never buried under its own
        // backlog and a retransmit repeats one batch, not a queue of them.
        if from >= p.head() || from - acked >= APPEND_BATCH as u64 {
            return;
        }
        let epoch = p.lease.epoch();
        match p.store.tail(from, APPEND_BATCH) {
            Ok(Tail::Events(mut events)) => {
                // Only this epoch's events. Everything a follower is
                // owed in an epoch was emitted in it — the epoch opened
                // with a snapshot at the head — so a frame stamped with
                // another epoch is not history: the store still holds
                // what this replica journaled on a branch that died
                // (it was deposed, then installed the winner's snapshot),
                // under sequence numbers at and past the live head.
                let own = events.iter().take_while(|e| e.epoch == epoch).count();
                events.truncate(own);
                let Some(last) = events.last() else { return };
                p.shipping.sent.insert(follower, last.seq + 1);
                out.push(Envelope {
                    from: me,
                    to: follower,
                    msg: Message::Append {
                        partition: p.id,
                        epoch,
                        commit: p.commit,
                        events,
                    },
                });
            }
            Ok(Tail::Compacted { .. }) => {
                // The follower fell behind our own compaction
                // horizon: back to snapshot transfer.
                p.shipping.needs_snapshot.insert(follower);
                p.shipping.snapshot_sent_ms.remove(&follower);
            }
            Err(_) => {}
        }
    }

    /// Advances time for every hosted partition: lease ticks (
    /// elections, heartbeats, lease expiry) and, on primaries, snapshot
    /// transfer and the shipping retransmit.
    pub fn tick(&mut self, now_ms: u64) -> Vec<Envelope> {
        let mut out = Vec::new();
        let ids: Vec<u32> = self.partitions.keys().copied().collect();
        for partition in ids {
            self.tick_partition(now_ms, partition, &mut out);
        }
        out
    }

    fn tick_partition(&mut self, now_ms: u64, partition: u32, out: &mut Vec<Envelope>) {
        let followers = self.followers(partition);
        let me = self.id;
        let dir = self.partition_dir(partition);
        let backend = self.backend.clone();
        let Some(p) = self.partitions.get_mut(&partition) else {
            return;
        };

        let before = (p.lease.role(), p.lease.epoch(), p.lease.durable());
        let lease_out = p.lease.tick(now_ms, p.log(), p.commit);
        Self::apply_transition(p, &followers, before.0, before.1);
        if p.lease.durable() != before.2 {
            write_lease_file(&*backend, &dir, p.lease.durable());
        }
        for (to, msg) in lease_out {
            out.push(Envelope {
                from: me,
                to,
                msg: Message::Lease { partition, msg },
            });
        }

        if !p.lease.is_primary() {
            return;
        }
        let epoch = p.lease.epoch();
        // Snapshot transfers owed (epoch start, or a compacted tail).
        let pending: Vec<NodeId> = p.shipping.needs_snapshot.iter().copied().collect();
        let mut image: Option<(u64, Arc<[u8]>)> = None;
        for follower in pending {
            let sent = p.shipping.snapshot_sent_ms.get(&follower).copied();
            if let Some(at) = sent {
                if now_ms.saturating_sub(at) < SNAPSHOT_RESEND_MS {
                    continue;
                }
            }
            // One image, shared by every follower owed one this tick.
            let (watermark, state) = image
                .get_or_insert_with(|| {
                    let (watermark, image) = p.oak.state_image();
                    (watermark, image.into())
                })
                .clone();
            p.shipping.snapshot_sent_ms.insert(follower, now_ms);
            out.push(Envelope {
                from: me,
                to: follower,
                msg: Message::Snapshot {
                    partition,
                    epoch,
                    watermark,
                    state,
                },
            });
        }
        // Shipping retransmit: a follower whose acked head did not move
        // since the last tick lost an `Append` (or regressed), so what
        // was sent past `acked` is written off and shipped again.
        for &follower in &followers {
            if !p.shipping.progressed.remove(&follower) {
                p.shipping.sent.remove(&follower);
            }
            Self::ship_to(p, me, follower, out);
        }
        Self::recompute_commit(p, &followers);
    }

    /// Role/epoch transition bookkeeping around any lease step.
    fn apply_transition(p: &mut Partition, followers: &[NodeId], prev_role: Role, prev_epoch: u64) {
        let took_office =
            p.lease.is_primary() && (prev_role != Role::Primary || prev_epoch != p.lease.epoch());
        if took_office {
            // New epoch, new authority: stamp emitted events, forget
            // stale shipping state, owe every follower a snapshot so
            // any divergence they carry is overwritten.
            p.oak.set_epoch(p.lease.epoch());
            p.shipping.acked.clear();
            p.shipping.sent.clear();
            p.shipping.progressed.clear();
            p.shipping.snapshot_sent_ms.clear();
            p.shipping.needs_snapshot = followers.iter().copied().collect();
        }
    }

    /// Recomputes the replication watermark: the highest seq durable on
    /// a majority (self head counts as one replica). Monotone.
    fn recompute_commit(p: &mut Partition, followers: &[NodeId]) {
        if !p.lease.is_primary() {
            return;
        }
        let mut heads: Vec<u64> = vec![p.head()];
        for follower in followers {
            heads.push(p.shipping.acked.get(follower).copied().unwrap_or(0));
        }
        heads.sort_unstable_by(|a, b| b.cmp(a));
        let majority = heads.len() / 2 + 1;
        let durable_on_majority = heads[majority - 1];
        p.commit = p.commit.max(durable_on_majority);
    }

    /// Handles one incoming envelope, returning replies to deliver.
    /// Envelopes addressed elsewhere or for unhosted partitions are
    /// dropped (a healing cluster sees plenty of those).
    pub fn handle(&mut self, now_ms: u64, envelope: &Envelope) -> Vec<Envelope> {
        let mut out = Vec::new();
        if envelope.to != self.id {
            return out;
        }
        let partition = envelope.msg.partition();
        if !self.partitions.contains_key(&partition) {
            return out;
        }
        let followers = self.followers(partition);
        let me = self.id;
        let dir = self.partition_dir(partition);
        let backend = self.backend.clone();
        let oak_config = self.options.oak;
        let p = self.partitions.get_mut(&partition).expect("checked");
        let from = envelope.from;

        let before = (p.lease.role(), p.lease.epoch(), p.lease.durable());
        match &envelope.msg {
            Message::Lease { msg, .. } => {
                let replies = p.lease.on_msg(now_ms, from, msg, p.log());
                // Track the commit hint a heartbeat carries.
                if let crate::lease::LeaseMsg::Heartbeat { commit, .. } = msg {
                    if !p.lease.is_primary() {
                        p.commit = p.commit.max(*commit);
                    }
                }
                for (to, msg) in replies {
                    out.push(Envelope {
                        from: me,
                        to,
                        msg: Message::Lease { partition, msg },
                    });
                }
            }
            Message::Append {
                epoch,
                commit,
                events,
                ..
            } => {
                p.lease.observe_primary(now_ms, *epoch);
                if *epoch >= p.lease.epoch() && !p.lease.is_primary() {
                    p.commit = p.commit.max(*commit);
                    let errors_before = p.store.write_errors();
                    for event in events {
                        let head = p.head();
                        if event.seq < head {
                            continue;
                        }
                        if event.seq > head || event.epoch != *epoch {
                            // A gap (wait for backfill), or a frame this
                            // primary's epoch never emitted: not ours to
                            // apply under its authority.
                            break;
                        }
                        // Journal to our own WAL *before* applying:
                        // what we ack must be what our recovery
                        // replays.
                        p.store.record(None, event);
                        if p.store.write_errors() > errors_before {
                            // The journal refused the write: applying
                            // anyway would ack an event our recovery
                            // cannot replay. Stop here — the ack below
                            // reports only the durable prefix and the
                            // primary re-ships from it.
                            break;
                        }
                        p.oak.apply_event(event);
                    }
                    out.push(Envelope {
                        from: me,
                        to: from,
                        msg: Message::AppendAck {
                            partition,
                            epoch: *epoch,
                            acked: p.head(),
                        },
                    });
                }
            }
            Message::AppendAck { epoch, acked, .. } => {
                if *epoch > p.lease.epoch() {
                    p.lease.observe_primary(now_ms, *epoch);
                } else if p.lease.is_primary() && *epoch == p.lease.epoch() {
                    // Assign, never max: a follower that regressed (a
                    // restart raced a duplicated stale snapshot, or its
                    // journal refused writes) must be able to *lower*
                    // its acked head, or every subsequent Append starts
                    // past its head — a permanent gap that wedges the
                    // replica. The commit watermark itself stays
                    // monotone in `recompute_commit`, and followers
                    // skip already-journaled seqs, so re-shipping an
                    // overlap is merely extra traffic.
                    let before = p.shipping.acked.insert(from, *acked);
                    if before.is_none_or(|b| b < *acked) {
                        p.shipping.progressed.insert(from);
                    }
                    p.lease.note_contact(now_ms, from);
                    Self::recompute_commit(p, &followers);
                    // A follower still behind the head gets its next
                    // batch in the reply, not a tick later.
                    Self::ship_to(p, me, from, &mut out);
                }
            }
            Message::Snapshot {
                epoch,
                watermark,
                state,
                ..
            } => {
                p.lease.observe_primary(now_ms, *epoch);
                if *epoch >= p.lease.epoch() && !p.lease.is_primary() {
                    let mut acked = None;
                    // Install each epoch's opening transfer once, and a
                    // later one of the same epoch that reaches past our
                    // head: the primary sends that when we fell behind
                    // its compaction horizon, and with one primary per
                    // epoch it fast-forwards our own history. Declining
                    // it would be answered with the same transfer every
                    // tick until the lease moved.
                    let install = *epoch > p.installed_epoch
                        || (*epoch == p.installed_epoch && *watermark > p.head());
                    if install {
                        // Install: replace the engine wholesale. Any
                        // divergence this replica carried (it may be a
                        // deposed primary) is discarded here.
                        if let Ok(mut fresh) = Oak::from_state_image(oak_config, state) {
                            fresh.set_event_sink(p.store.clone());
                            let fresh = Arc::new(fresh);
                            if p.store.snapshot(&fresh).is_ok() {
                                p.oak = fresh;
                                p.installed_epoch = *epoch;
                                // Persist before acking: the ack tells
                                // the primary this install happened, so
                                // a restart must not forget it.
                                write_installed_epoch(&*backend, &dir, *epoch);
                                acked = Some(*watermark);
                            }
                        }
                    } else {
                        // A duplicate of a transfer we already installed,
                        // or one our head has passed: just re-ack it.
                        acked = Some(p.head());
                    }
                    if let Some(watermark) = acked {
                        out.push(Envelope {
                            from: me,
                            to: from,
                            msg: Message::SnapshotAck {
                                partition,
                                epoch: *epoch,
                                watermark,
                            },
                        });
                    }
                }
            }
            Message::SnapshotAck {
                epoch, watermark, ..
            } => {
                if *epoch > p.lease.epoch() {
                    p.lease.observe_primary(now_ms, *epoch);
                } else if p.lease.is_primary() && *epoch == p.lease.epoch() {
                    p.shipping.needs_snapshot.remove(&from);
                    p.shipping.snapshot_sent_ms.remove(&from);
                    // Assign for the same reason as AppendAck: the
                    // follower reports where it actually is.
                    p.shipping.acked.insert(from, *watermark);
                    // Whatever was shipped before the transfer is moot;
                    // what was journaled during it goes out now.
                    p.shipping.sent.remove(&from);
                    p.shipping.progressed.insert(from);
                    p.lease.note_contact(now_ms, from);
                    Self::recompute_commit(p, &followers);
                    Self::ship_to(p, me, from, &mut out);
                }
            }
        }
        Self::apply_transition(p, &followers, before.0, before.1);
        if p.lease.durable() != before.2 {
            // Persist before the replies (grants!) leave this node.
            write_lease_file(&*backend, &dir, p.lease.durable());
        }
        out
    }

    fn partition_dir(&self, partition: u32) -> PathBuf {
        self.root.join(format!("part-{partition:02}"))
    }
}

/// Reads the durable lease slice; `None` on absence or damage (the
/// protocol then conservatively restarts from epoch 0 — safe, because
/// the file is written before any grant is sent, and rename+dir-sync
/// makes that write atomic-or-absent).
fn read_lease_file(backend: &dyn StorageBackend, dir: &std::path::Path) -> Option<Durable> {
    let buf = backend.read(&dir.join(LEASE_FILE)).ok()?;
    let text = std::str::from_utf8(&buf).ok()?;
    let doc = oak_json::parse(text).ok()?;
    let epoch = doc.get("epoch").and_then(Value::as_u64)?;
    let voted_for = doc
        .get("voted_for")
        .and_then(Value::as_u64)
        .map(|n| NodeId(n as u32));
    Some(Durable { epoch, voted_for })
}

/// Persists the durable lease slice with the same write-rename-syncdir
/// dance snapshots use, so a crash leaves either the old record or the
/// new one, never a torn half.
fn write_lease_file(backend: &dyn StorageBackend, dir: &std::path::Path, durable: Durable) {
    let mut doc = Value::object();
    doc.set("epoch", durable.epoch);
    if let Some(node) = durable.voted_for {
        doc.set("voted_for", u64::from(node.0));
    }
    let tmp = dir.join("lease.json.tmp");
    let path = dir.join(LEASE_FILE);
    let write = || -> io::Result<()> {
        let mut file = backend.create(&tmp)?;
        file.write_all(doc.to_string().as_bytes())?;
        file.sync_data()?;
        backend.rename(&tmp, &path)?;
        backend.sync_dir(dir)
    };
    // A node that cannot persist its vote is a node about to crash in
    // the sim (SimFs fails everything once a crash fires); the swallow
    // here mirrors the WAL sink's policy of keeping the hot path alive.
    let _ = write();
}

/// Reads the installed-snapshot epoch; 0 on absence or damage. Losing
/// it is safe-but-slower in one direction only: the follower would
/// accept a *fresh* same-epoch transfer it already has. The dangerous
/// direction — forgetting and reinstalling a *stale* duplicate — is
/// what persisting this guards against, and a damaged file merely
/// reopens that window until the next install rewrites it.
fn read_installed_epoch(backend: &dyn StorageBackend, dir: &std::path::Path) -> u64 {
    let Ok(buf) = backend.read(&dir.join(INSTALLED_FILE)) else {
        return 0;
    };
    std::str::from_utf8(&buf)
        .ok()
        .and_then(|text| oak_json::parse(text).ok())
        .and_then(|doc| doc.get("epoch").and_then(Value::as_u64))
        .unwrap_or(0)
}

/// Persists the installed-snapshot epoch (write-rename-syncdir, same
/// atomicity dance as the lease file; failures swallowed likewise).
fn write_installed_epoch(backend: &dyn StorageBackend, dir: &std::path::Path, epoch: u64) {
    let mut doc = Value::object();
    doc.set("epoch", epoch);
    let tmp = dir.join("installed.json.tmp");
    let path = dir.join(INSTALLED_FILE);
    let write = || -> io::Result<()> {
        let mut file = backend.create(&tmp)?;
        file.write_all(doc.to_string().as_bytes())?;
        file.sync_data()?;
        backend.rename(&tmp, &path)?;
        backend.sync_dir(dir)
    };
    let _ = write();
}

#[cfg(test)]
mod tests {
    use oak_core::matching::NoFetch;
    use oak_core::report::{ObjectTiming, PerfReport};
    use oak_core::rule::Rule;
    use oak_core::Instant;
    use oak_store::RealFs;

    use super::*;

    fn topology(nodes: u32, partitions: u32, replication: usize) -> Topology {
        Topology::new((0..nodes).map(NodeId).collect(), partitions, replication)
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("oak-cluster-{tag}-{}", std::process::id()))
    }

    struct Harness {
        nodes: Vec<ClusterNode>,
        /// Nodes with every link down: still ticked, heard by nobody.
        cut: Vec<usize>,
        /// Stopped nodes: neither ticked nor delivered to.
        down: Vec<usize>,
    }

    impl Harness {
        fn new(tag: &str, n: u32, partitions: u32, replication: usize) -> Harness {
            Harness::with_options(tag, n, partitions, replication, NodeOptions::default())
        }

        fn with_options(
            tag: &str,
            n: u32,
            partitions: u32,
            replication: usize,
            options: NodeOptions,
        ) -> Harness {
            let root = temp_root(tag);
            let _ = std::fs::remove_dir_all(&root);
            let topo = topology(n, partitions, replication);
            let nodes = (0..n)
                .map(|i| {
                    ClusterNode::new(
                        NodeId(i),
                        topo.clone(),
                        Arc::new(RealFs),
                        root.join(format!("node-{i}")),
                        options.clone(),
                        0,
                    )
                    .unwrap()
                })
                .collect();
            Harness {
                nodes,
                cut: Vec::new(),
                down: Vec::new(),
            }
        }

        /// Whether the harness's faults let `envelope` through.
        fn reaches(&self, envelope: &Envelope) -> bool {
            let (from, to) = (envelope.from.0 as usize, envelope.to.0 as usize);
            !self.cut.contains(&from) && !self.cut.contains(&to) && !self.down.contains(&to)
        }

        /// Ticks every running node, compacts its followers as the live
        /// runtime's ticker does, then delivers all traffic to
        /// quiescence.
        fn settle(&mut self, now_ms: u64) {
            let mut inbox: Vec<Envelope> = Vec::new();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                if !self.down.contains(&i) {
                    inbox.extend(node.tick(now_ms));
                    for (store, oak) in node.compactions_due() {
                        store.maybe_snapshot(&oak).unwrap();
                    }
                }
            }
            let mut rounds = 0;
            while !inbox.is_empty() {
                rounds += 1;
                assert!(rounds < 100, "cluster message storm");
                inbox = self.deliver(now_ms, inbox);
            }
        }

        /// Settles until partition 0 has a primary whose followers all
        /// installed the epoch-start snapshot, then once more so no
        /// follower counts as having progressed since the last tick.
        /// Returns the primary and the clock.
        fn elect(&mut self) -> (usize, u64) {
            let mut now = 0;
            loop {
                now += 50;
                assert!(now < 10_000, "no settled primary");
                self.settle(now);
                let Some(primary) = self.primary_of(0) else {
                    continue;
                };
                if self.nodes[primary].partitions[&0]
                    .shipping
                    .needs_snapshot
                    .is_empty()
                {
                    now += 50;
                    self.settle(now);
                    return (primary, now);
                }
            }
        }

        /// Delivers `inbox` and returns the replies — no clock involved.
        fn deliver(&mut self, now_ms: u64, inbox: Vec<Envelope>) -> Vec<Envelope> {
            let mut replies = Vec::new();
            for envelope in &inbox {
                if self.reaches(envelope) {
                    let node = &mut self.nodes[envelope.to.0 as usize];
                    replies.extend(node.handle(now_ms, envelope));
                }
            }
            replies
        }

        /// Settles until the nodes in `among` agree on one primary whose
        /// commit covers its head and whose head they all share; returns
        /// it and the clock.
        fn converge(&mut self, mut now: u64, among: &[usize]) -> (usize, u64) {
            let deadline = now + 10_000;
            loop {
                now += 50;
                assert!(now < deadline, "no convergence among {among:?}");
                self.settle(now);
                let primaries: Vec<usize> = among
                    .iter()
                    .copied()
                    .filter(|&i| self.nodes[i].role(0) == Some(Role::Primary))
                    .collect();
                let [primary] = primaries[..] else { continue };
                let head = self.head(primary);
                if self.nodes[primary].commit(0) == Some(head)
                    && among.iter().all(|&i| self.head(i) == head)
                {
                    return (primary, now);
                }
            }
        }

        fn head(&self, node: usize) -> u64 {
            self.nodes[node].replica_engine(0).unwrap().event_seq()
        }

        fn state(&self, node: usize) -> String {
            let replica = self.nodes[node].replica_engine(0).unwrap();
            replica.snapshot_json().to_string()
        }

        fn assert_replicated(&self, primary: usize, head: u64) {
            assert_eq!(self.nodes[primary].commit(0), Some(head), "not committed");
            for (i, node) in self.nodes.iter().enumerate() {
                let replica = node.replica_engine(0).unwrap();
                assert_eq!(replica.event_seq(), head, "node {i} lagging");
            }
        }

        fn primary_of(&self, partition: u32) -> Option<usize> {
            let mut found = None;
            for (i, node) in self.nodes.iter().enumerate() {
                if node.role(partition) == Some(Role::Primary) {
                    assert!(found.is_none(), "two primaries for partition {partition}");
                    found = Some(i);
                }
            }
            found
        }
    }

    #[test]
    fn elects_replicates_and_commits() {
        let mut h = Harness::new("basic", 3, 1, 3);
        let mut now = 0;
        while h.primary_of(0).is_none() {
            now += 50;
            assert!(now < 10_000, "no primary elected");
            h.settle(now);
        }
        let primary = h.primary_of(0).unwrap();

        // Write through the primary; followers must converge and the
        // commit watermark must cover the write.
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let rule = Rule::remove(r#"<script src="http://slow.example/t.js">"#);
        let id = oak.add_rule(rule).unwrap();
        oak.force_activate(Instant::ZERO, "u-1", id);
        let head = oak.event_seq();

        for _ in 0..20 {
            now += 50;
            h.settle(now);
            if h.nodes[primary].commit(0) == Some(head) {
                break;
            }
        }
        assert_eq!(
            h.nodes[primary].commit(0),
            Some(head),
            "write never committed"
        );
        for (i, node) in h.nodes.iter().enumerate() {
            let replica = node.replica_engine(0).unwrap();
            assert_eq!(replica.event_seq(), head, "node {i} lagging");
            assert_eq!(replica.active_rules("u-1").len(), 1, "node {i} diverged");
        }
        // Events shipped under the primary's epoch carry that epoch.
        let status = h.nodes[primary].status();
        assert_eq!(status[0].role, Role::Primary);
        assert!(status[0].epoch >= 1);
    }

    /// One journaled event per call, through the primary's engine.
    fn activate(oak: &Oak, id: oak_core::rule::RuleId, user: usize) {
        oak.force_activate(Instant::ZERO, &format!("u-{user}"), id);
    }

    fn appended_seqs(envelopes: &[Envelope], to: NodeId) -> Vec<u64> {
        let mut seqs = Vec::new();
        for envelope in envelopes.iter().filter(|e| e.to == to) {
            if let Message::Append { events, .. } = &envelope.msg {
                seqs.extend(events.iter().map(|e| e.seq));
            }
        }
        seqs
    }

    #[test]
    fn ship_commits_without_a_tick() {
        let mut h = Harness::new("ship-now", 3, 1, 3);
        let (primary, now) = h.elect();
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        activate(&oak, id, 1);
        let head = oak.event_seq();
        assert!(h.nodes[primary].commit(0).unwrap() < head);

        // Appends out, acks back: one round trip, no clock.
        let appends = h.nodes[primary].ship();
        assert_eq!(appends.len(), 2, "one Append per follower");
        let acks = h.deliver(now, appends);
        let replies = h.deliver(now, acks);
        assert!(replies.is_empty(), "caught-up followers need no reply");
        h.assert_replicated(primary, head);
    }

    #[test]
    fn nothing_in_flight_is_shipped_twice() {
        let mut h = Harness::new("ship-once", 3, 1, 3);
        let (primary, _) = h.elect();
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let start = oak.event_seq();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        let mut shipped = h.nodes[primary].ship();
        activate(&oak, id, 1);
        activate(&oak, id, 2);
        shipped.extend(h.nodes[primary].ship());
        // No ack was delivered in between, and nothing new happened
        // before the third call.
        assert!(h.nodes[primary].ship().is_empty());
        let head = oak.event_seq();
        for follower in h.nodes[primary].followers(0) {
            assert_eq!(
                appended_seqs(&shipped, follower),
                (start..head).collect::<Vec<_>>(),
                "follower {follower:?} must see every event exactly once"
            );
        }
    }

    #[test]
    fn lagging_followers_catch_up_on_acks_alone() {
        const BEHIND: usize = 5_000;
        let mut h = Harness::new("ship-catchup", 3, 1, 3);
        let (primary, now) = h.elect();
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        for user in 1..BEHIND {
            activate(&oak, id, user);
        }
        let head = oak.event_seq();
        let batch = APPEND_BATCH;

        // One ship starts it; from then on every ack is answered with
        // the next batch, so a round trip moves a follower 64 events.
        let mut appends = h.nodes[primary].ship();
        let mut round_trips = 0;
        while !appends.is_empty() {
            round_trips += 1;
            let acks = h.deliver(now, appends);
            appends = h.deliver(now, acks);
        }
        assert!(
            round_trips <= BEHIND.div_ceil(batch),
            "{round_trips} round trips for {BEHIND} events in batches of {batch}"
        );
        h.assert_replicated(primary, head);
    }

    /// The shipped store options: every 64th append fsyncs, snapshots
    /// every 10,000 events.
    fn shipped_store() -> NodeOptions {
        NodeOptions {
            store: StoreOptions::default(),
            ..NodeOptions::default()
        }
    }

    /// A report from one of forty users in which one of five hosts is slow.
    fn report(i: u64) -> PerfReport {
        let mut report = PerfReport::new(format!("user-{}", i % 40), "/index.html");
        for host in 0..5 {
            let slow = if host == i % 5 { 800.0 } else { 0.0 };
            report.push(ObjectTiming::new(
                format!("http://cdn{host}.example/lib.js"),
                format!("10.0.{host}.1"),
                30_000,
                80.0 + host as f64 + slow,
            ));
        }
        report
    }

    /// Node `node`'s partition 0 directory under the harness root `tag`.
    fn partition_dir(tag: &str, node: usize) -> PathBuf {
        temp_root(tag).join(format!("node-{node}")).join("part-00")
    }

    /// The bytes of every file in `dir`, and the watermarks of its
    /// snapshots.
    fn disk_usage(dir: &std::path::Path) -> (u64, Vec<u64>) {
        let mut bytes = 0;
        let mut snapshots = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            bytes += entry.metadata().unwrap().len();
            let name = entry.file_name().into_string().unwrap();
            if let Some(watermark) = name
                .strip_prefix("snap-")
                .and_then(|rest| rest.strip_suffix(".snap"))
            {
                snapshots.push(watermark.parse().unwrap());
            }
        }
        snapshots.sort_unstable();
        (bytes, snapshots)
    }

    #[test]
    fn followers_compact_and_reboot_to_the_same_state() {
        const TAG: &str = "follower-compaction";
        const EVENTS: u64 = 25_000;
        let mut h = Harness::with_options(TAG, 3, 1, 3, shipped_store());
        let (primary, mut now) = h.elect();
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let store = h.nodes[primary].partition_store(0).unwrap();
        let start = oak.event_seq();
        let mut i = 0;
        while oak.event_seq() < start + EVENTS {
            oak.ingest_report(Instant(i), &report(i), &NoFetch);
            // What the serving path does after every report.
            store.maybe_snapshot(&oak).unwrap();
            i += 1;
            if i % 500 == 0 {
                now += 20;
                h.settle(now);
            }
        }
        let (_, now) = h.converge(now, &[0, 1, 2]);

        let (primary_bytes, _) = disk_usage(&partition_dir(TAG, primary));
        for follower in (0..3).filter(|&n| n != primary) {
            let (bytes, snapshots) = disk_usage(&partition_dir(TAG, follower));
            assert!(
                bytes <= 2 * primary_bytes,
                "follower {follower} holds {bytes} bytes, the primary {primary_bytes}"
            );
            // Its own compactions, not the epoch's opening transfer, hold
            // the two kept snapshots.
            assert!(
                snapshots.first().is_some_and(|&w| w >= start + EVENTS / 3),
                "follower {follower} kept snapshots at {snapshots:?}"
            );

            let image = h.nodes[follower].replica_engine(0).unwrap().state_image();
            h.nodes[follower] = ClusterNode::new(
                NodeId(follower as u32),
                topology(3, 1, 3),
                Arc::new(RealFs),
                temp_root(TAG).join(format!("node-{follower}")),
                shipped_store(),
                now,
            )
            .unwrap();
            let rebooted = h.nodes[follower].replica_engine(0).unwrap().state_image();
            assert!(
                rebooted == image,
                "follower {follower} rebooted to another state"
            );
        }
        std::fs::remove_dir_all(temp_root(TAG)).unwrap();
    }

    #[test]
    fn a_follower_behind_the_compaction_horizon_is_fast_forwarded_in_its_epoch() {
        const TAG: &str = "same-epoch-snapshot";
        let mut h = Harness::with_options(TAG, 3, 1, 3, shipped_store());
        let (p, mut now) = h.elect();
        let f = (p + 1) % 3;
        let epoch = h.nodes[p].status()[0].epoch;
        let oak = h.nodes[p].primary_engine(0).unwrap();
        let store = h.nodes[p].partition_store(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        now += 20;
        h.settle(now);

        // Cut for less than an election timeout, so `f` stays a follower
        // of this epoch, whose opening snapshot it installed. The primary
        // journals past its recent ring and compacts twice: the second
        // snapshot deletes the segments that held what `f` lacks.
        h.cut = vec![f];
        let users = oak_store::RECENT_TAIL_CAP + 100;
        for user in 0..users {
            activate(&oak, id, user);
        }
        now += 20;
        h.settle(now);
        store.snapshot(&oak).unwrap();
        activate(&oak, id, users);
        store.snapshot(&oak).unwrap();
        h.cut.clear();

        for _ in 0..5 {
            now += 20;
            h.settle(now);
        }
        assert_eq!(h.primary_of(0), Some(p));
        assert_eq!(h.nodes[p].status()[0].epoch, epoch, "the lease moved");
        assert_eq!(h.head(f), h.head(p), "the follower never caught up");
        assert_eq!(h.state(f), h.state(p));
        std::fs::remove_dir_all(temp_root(TAG)).unwrap();
    }

    #[test]
    fn a_snapshot_ack_is_answered_with_what_was_journaled_meanwhile() {
        let mut h = Harness::new("ship-snapack", 3, 1, 3);
        let mut now = 0;
        while h.primary_of(0).is_none() {
            now += 50;
            assert!(now < 10_000, "no primary elected");
            h.settle(now);
        }
        let primary = h.primary_of(0).unwrap();
        now += 20;
        let snapshots = h.nodes[primary].tick(now);
        // Journaled after the snapshot was cut, before it is acked.
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let start = oak.event_seq();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        activate(&oak, id, 1);
        let head = oak.event_seq();

        let acks = h.deliver(now, snapshots);
        let appends = h.deliver(now, acks);
        for follower in h.nodes[primary].followers(0) {
            assert_eq!(
                appended_seqs(&appends, follower),
                (start..head).collect::<Vec<_>>(),
                "follower {follower:?} is owed the events behind its snapshot"
            );
        }
        let acks = h.deliver(now, appends);
        assert!(h.deliver(now, acks).is_empty());
        h.assert_replicated(primary, head);
    }

    #[test]
    fn the_tick_repairs_a_lost_append_and_a_gap() {
        let mut h = Harness::new("ship-repair", 3, 1, 3);
        let (primary, mut now) = h.elect();
        let oak = h.nodes[primary].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();

        // Lost outright: no ack comes, so nothing event-driven resends.
        drop(h.nodes[primary].ship());
        assert!(h.nodes[primary].ship().is_empty());
        assert!(h.nodes[primary].commit(0).unwrap() < oak.event_seq());
        now += 20;
        h.settle(now);
        h.assert_replicated(primary, oak.event_seq());

        // A gap: the first Append is lost, the second arrives. The
        // followers cannot apply it and ack their old head.
        now += 20;
        h.settle(now);
        activate(&oak, id, 1);
        drop(h.nodes[primary].ship());
        activate(&oak, id, 2);
        let appends = h.nodes[primary].ship();
        let acks = h.deliver(now, appends);
        assert!(h.deliver(now, acks).is_empty());
        let head = oak.event_seq();
        assert_eq!(h.nodes[primary].commit(0), Some(head - 2));
        now += 20;
        h.settle(now);
        h.assert_replicated(primary, head);
    }

    /// The three-node scenario behind both dead-branch defects. Elect P,
    /// replicate to head X; cut P off and let it journal five more events
    /// nobody hears of; the other two elect Q, journal two events and
    /// commit them (a client holds a 204 for each); heal once P has
    /// outrun Q's epoch, and wait for the group to agree. Returns
    /// `(harness, P, Q, clock)`.
    fn heal_after_a_longer_dead_branch(tag: &str) -> (Harness, usize, usize, u64) {
        let mut h = Harness::new(tag, 3, 1, 3);
        let (p, now) = h.elect();
        let oak = h.nodes[p].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        activate(&oak, id, 1);
        let (_, now) = h.converge(now, &[0, 1, 2]);
        let x = oak.event_seq();

        h.cut = vec![p];
        for user in 10..15 {
            activate(&oak, id, user);
        }
        assert_eq!(h.head(p), x + 5);
        let others: Vec<usize> = (0..3).filter(|&i| i != p).collect();
        let (q, now) = h.converge(now, &others);
        let promoted = h.nodes[q].primary_engine(0).unwrap();
        activate(&promoted, id, 20);
        activate(&promoted, id, 21);
        let (_, mut now) = h.converge(now, &others);
        assert_eq!(h.nodes[q].commit(0), Some(x + 2), "two acked events");
        // P's lease runs out and it starts calling elections nobody
        // hears: it comes back a candidate at the group's highest epoch.
        while h.nodes[p].status()[0].epoch <= h.nodes[q].status()[0].epoch {
            now += 50;
            h.settle(now);
        }
        assert_eq!(h.nodes[p].role(0), Some(Role::Candidate));

        h.cut.clear();
        let (_, now) = h.converge(now, &[0, 1, 2]);
        (h, p, q, now)
    }

    #[test]
    fn a_longer_dead_branch_does_not_win_the_election() {
        let (h, p, _, _) = heal_after_a_longer_dead_branch("dead-branch-vote");
        // P came back a candidate at the highest epoch with the longest
        // log. Votes that compare heads alone elect it, and its
        // epoch-start snapshot then erases the two acked events from
        // every replica.
        for node in 0..3 {
            let replica = h.nodes[node].replica_engine(0).unwrap();
            for user in [1, 20, 21] {
                assert_eq!(
                    replica.active_rules(&format!("u-{user}")).len(),
                    1,
                    "node {node} lost the committed activation of u-{user}"
                );
            }
            assert!(
                replica.active_rules("u-10").is_empty(),
                "node {node} holds an event of P's dead branch"
            );
            assert_eq!(h.state(node), h.state(p), "node {node} diverged");
        }
    }

    #[test]
    fn a_primary_ships_none_of_its_dead_branch() {
        let (mut h, p, q, now) = heal_after_a_longer_dead_branch("dead-branch-ship");
        // P followed the winner to its head, but its store still holds
        // the dead frames — in the recent ring and on disk — under
        // sequence numbers at and past that head.
        let x2 = h.head(p);
        h.down = vec![q];
        let rest: Vec<usize> = (0..3).filter(|&i| i != q).collect();
        let (primary, mut now) = h.converge(now, &rest);
        assert_eq!(primary, p, "P has the shorter election timeout");
        // Past the epoch-start snapshot, so the next event travels as an
        // `Append`.
        while h.nodes[p].partitions[&0].shipping.needs_snapshot != [NodeId(q as u32)].into() {
            now += 50;
            h.settle(now);
        }
        let oak = h.nodes[p].primary_engine(0).unwrap();
        let id = oak.rules().next().unwrap().0;
        activate(&oak, id, 30);
        for _ in 0..10 {
            now += 50;
            h.settle(now);
        }
        // One event journaled, one event shipped: a tail that runs on
        // into the dead frames leaves the follower ahead of its primary,
        // holding events the primary never had.
        for &node in &rest {
            assert_eq!(h.head(node), x2 + 1, "node {node}");
            assert_eq!(h.state(node), h.state(p), "node {node} diverged");
        }
    }

    #[test]
    fn non_primary_refuses_client_traffic() {
        let mut h = Harness::new("refuse", 3, 1, 3);
        let mut now = 0;
        while h.primary_of(0).is_none() {
            now += 50;
            h.settle(now);
        }
        let primary = h.primary_of(0).unwrap();
        for (i, node) in h.nodes.iter().enumerate() {
            if i == primary {
                assert!(node.primary_engine(0).is_ok());
            } else {
                assert!(matches!(
                    node.primary_engine(0),
                    Err(NotPrimary { partition: 0 })
                ));
            }
        }
    }

    #[test]
    fn failover_preserves_committed_writes() {
        let mut h = Harness::new("failover", 3, 1, 3);
        let mut now = 0;
        while h.primary_of(0).is_none() {
            now += 50;
            h.settle(now);
        }
        let old_primary = h.primary_of(0).unwrap();
        let oak = h.nodes[old_primary].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        oak.force_activate(Instant::ZERO, "u-1", id);
        let head = oak.event_seq();
        while h.nodes[old_primary].commit(0) != Some(head) {
            now += 50;
            assert!(now < 20_000, "write never committed");
            h.settle(now);
        }

        // Kill the primary (stop ticking it / delivering to it).
        let survivors: Vec<usize> = (0..3).filter(|&i| i != old_primary).collect();
        let mut new_primary = None;
        for _ in 0..200 {
            now += 50;
            let mut inbox = Vec::new();
            for &i in &survivors {
                inbox.extend(h.nodes[i].tick(now));
            }
            while !inbox.is_empty() {
                let mut next = Vec::new();
                for envelope in &inbox {
                    let to = envelope.to.0 as usize;
                    if to == old_primary {
                        continue; // dead node
                    }
                    next.extend(h.nodes[to].handle(now, envelope));
                }
                inbox = next;
            }
            new_primary = survivors
                .iter()
                .copied()
                .find(|&i| h.nodes[i].role(0) == Some(Role::Primary));
            if let Some(np) = new_primary {
                if h.nodes[np].commit(0).unwrap_or(0) >= head {
                    break;
                }
            }
        }
        let new_primary = new_primary.expect("no failover happened");
        assert_ne!(new_primary, old_primary);
        let promoted = h.nodes[new_primary].primary_engine(0).unwrap();
        assert!(
            promoted.event_seq() >= head,
            "promoted follower lost committed events"
        );
        assert_eq!(promoted.active_rules("u-1").len(), 1);
    }

    #[test]
    fn restarted_follower_ignores_stale_duplicated_snapshot() {
        let mut h = Harness::new("stale-snap", 2, 1, 2);
        let mut now = 0;
        while h.primary_of(0).is_none() {
            now += 50;
            assert!(now < 10_000, "no primary elected");
            h.settle(now);
        }
        let pri = h.primary_of(0).unwrap();
        let fol = 1 - pri;
        let epoch = h.nodes[pri].status()[0].epoch;

        // First write, fully replicated: its snapshot-equivalent state
        // is what a delayed duplicate transfer would carry.
        let oak = h.nodes[pri].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        oak.force_activate(Instant::ZERO, "u-1", id);
        let head1 = oak.event_seq();
        while h.nodes[pri].commit(0) != Some(head1)
            || h.nodes[fol].replica_engine(0).unwrap().event_seq() != head1
        {
            now += 50;
            assert!(now < 20_000, "first write never replicated");
            h.settle(now);
        }
        let stale_state = h.nodes[fol].replica_engine(0).unwrap().state_image().1;

        // Second write, also journaled and acked by the follower.
        let id2 = oak
            .add_rule(Rule::remove(r#"<script src="http://slow2.example/u.js">"#))
            .unwrap();
        oak.force_activate(Instant::ZERO, "u-2", id2);
        let head2 = oak.event_seq();
        while h.nodes[fol].replica_engine(0).unwrap().event_seq() != head2 {
            now += 50;
            assert!(now < 30_000, "second write never replicated");
            h.settle(now);
        }

        // Restart the follower (its installed-epoch memory must be on
        // disk, not only in the dropped value)...
        let topo = topology(2, 1, 2);
        let root = temp_root("stale-snap").join(format!("node-{fol}"));
        h.nodes[fol] = ClusterNode::new(
            NodeId(fol as u32),
            topo,
            Arc::new(RealFs),
            root,
            NodeOptions::default(),
            now,
        )
        .unwrap();
        assert_eq!(
            h.nodes[fol].replica_engine(0).unwrap().event_seq(),
            head2,
            "restart lost journaled events"
        );

        // ...then hit it with a duplicated stale transfer for the same
        // epoch. It must be recognized as already installed: re-acked
        // at the current head, never re-applied.
        let stale = Envelope {
            from: NodeId(pri as u32),
            to: NodeId(fol as u32),
            msg: Message::Snapshot {
                partition: 0,
                epoch,
                watermark: head1,
                state: stale_state.into(),
            },
        };
        let replies = h.nodes[fol].handle(now, &stale);
        assert_eq!(
            h.nodes[fol].replica_engine(0).unwrap().event_seq(),
            head2,
            "stale snapshot regressed a restarted follower"
        );
        let acked = replies.iter().find_map(|e| match e.msg {
            Message::SnapshotAck { watermark, .. } => Some(watermark),
            _ => None,
        });
        assert_eq!(
            acked,
            Some(head2),
            "duplicate transfer must re-ack the head"
        );
    }

    /// A [`StorageBackend`] whose writes and syncs start failing when
    /// the flag flips — the disk-full / dying-disk case on a follower.
    #[derive(Debug)]
    struct BrokenDisk {
        broken: Arc<std::sync::atomic::AtomicBool>,
    }

    #[derive(Debug)]
    struct BrokenFile {
        inner: Box<dyn oak_store::StorageFile>,
        broken: Arc<std::sync::atomic::AtomicBool>,
    }

    impl BrokenFile {
        fn check(&self) -> io::Result<()> {
            if self.broken.load(std::sync::atomic::Ordering::Relaxed) {
                Err(io::Error::other("broken disk"))
            } else {
                Ok(())
            }
        }
    }

    impl oak_store::StorageFile for BrokenFile {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.check()?;
            self.inner.write_all(buf)
        }

        fn sync_data(&mut self) -> io::Result<()> {
            self.check()?;
            self.inner.sync_data()
        }
    }

    impl StorageBackend for BrokenDisk {
        fn create_dir_all(&self, dir: &std::path::Path) -> io::Result<()> {
            RealFs.create_dir_all(dir)
        }

        fn dir_exists(&self, dir: &std::path::Path) -> bool {
            RealFs.dir_exists(dir)
        }

        fn list_dir(&self, dir: &std::path::Path) -> io::Result<Vec<String>> {
            RealFs.list_dir(dir)
        }

        fn read(&self, path: &std::path::Path) -> io::Result<Vec<u8>> {
            RealFs.read(path)
        }

        fn create(&self, path: &std::path::Path) -> io::Result<Box<dyn oak_store::StorageFile>> {
            Ok(Box::new(BrokenFile {
                inner: RealFs.create(path)?,
                broken: self.broken.clone(),
            }))
        }

        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> io::Result<()> {
            RealFs.rename(from, to)
        }

        fn remove_file(&self, path: &std::path::Path) -> io::Result<()> {
            RealFs.remove_file(path)
        }

        fn sync_dir(&self, dir: &std::path::Path) -> io::Result<()> {
            RealFs.sync_dir(dir)
        }
    }

    #[test]
    fn follower_withholds_ack_while_its_journal_fails() {
        let root = temp_root("broken-disk");
        let _ = std::fs::remove_dir_all(&root);
        let topo = topology(2, 1, 2);
        let broken = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut nodes = vec![
            ClusterNode::new(
                NodeId(0),
                topo.clone(),
                Arc::new(RealFs),
                root.join("node-0"),
                NodeOptions::default(),
                0,
            )
            .unwrap(),
            ClusterNode::new(
                NodeId(1),
                topo,
                Arc::new(BrokenDisk {
                    broken: broken.clone(),
                }),
                root.join("node-1"),
                NodeOptions::default(),
                0,
            )
            .unwrap(),
        ];
        // Tick only node 0, so it deterministically starts (and wins)
        // the election; node 1 still answers votes and appends.
        let mut now = 0;
        let pump = |nodes: &mut Vec<ClusterNode>, now: u64| {
            let mut inbox = nodes[0].tick(now);
            while !inbox.is_empty() {
                let mut next = Vec::new();
                for envelope in &inbox {
                    let to = envelope.to.0 as usize;
                    next.extend(nodes[to].handle(now, envelope));
                }
                inbox = next;
            }
        };
        while nodes[0].role(0) != Some(Role::Primary) {
            now += 50;
            assert!(now < 10_000, "node 0 never took the lease");
            pump(&mut nodes, now);
        }

        // Healthy replication first.
        let oak = nodes[0].primary_engine(0).unwrap();
        let id = oak
            .add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
            .unwrap();
        oak.force_activate(Instant::ZERO, "u-1", id);
        let head1 = oak.event_seq();
        while nodes[0].commit(0) != Some(head1) {
            now += 50;
            assert!(now < 20_000, "healthy write never committed");
            pump(&mut nodes, now);
        }

        // Break the follower's disk, then write more on the primary.
        broken.store(true, std::sync::atomic::Ordering::Relaxed);
        let id2 = oak
            .add_rule(Rule::remove(r#"<script src="http://slow2.example/u.js">"#))
            .unwrap();
        oak.force_activate(Instant::ZERO, "u-2", id2);
        let head2 = oak.event_seq();
        for _ in 0..10 {
            now += 50;
            pump(&mut nodes, now);
        }
        // The follower could not journal, so it neither applied nor
        // acked, and the commit watermark must not have advanced: with
        // two replicas a majority is both of them.
        assert_eq!(
            nodes[1].replica_engine(0).unwrap().event_seq(),
            head1,
            "follower applied events its journal rejected"
        );
        assert_eq!(
            nodes[0].commit(0),
            Some(head1),
            "commit advanced on a replica whose journaling failed"
        );

        // Heal the disk: shipping resumes from the durable prefix.
        broken.store(false, std::sync::atomic::Ordering::Relaxed);
        while nodes[0].commit(0) != Some(head2)
            || nodes[1].replica_engine(0).unwrap().event_seq() != head2
        {
            now += 50;
            assert!(now < 60_000, "healed follower never caught up");
            pump(&mut nodes, now);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn restart_recovers_state_and_lease() {
        let root = temp_root("restart");
        let _ = std::fs::remove_dir_all(&root);
        let topo = topology(1, 1, 1);
        let head;
        {
            let mut node = ClusterNode::new(
                NodeId(0),
                topo.clone(),
                Arc::new(RealFs),
                root.join("node-0"),
                NodeOptions::default(),
                0,
            )
            .unwrap();
            node.tick(1_000);
            assert_eq!(node.role(0), Some(Role::Primary));
            let oak = node.primary_engine(0).unwrap();
            oak.add_rule(Rule::remove(r#"<script src="http://slow.example/t.js">"#))
                .unwrap();
            head = oak.event_seq();
        }
        let node = ClusterNode::new(
            NodeId(0),
            topo,
            Arc::new(RealFs),
            root.join("node-0"),
            NodeOptions::default(),
            0,
        )
        .unwrap();
        let oak = node.replica_engine(0).unwrap();
        assert_eq!(oak.event_seq(), head, "events lost across restart");
        // The durable lease epoch survived: a restarted node can only
        // move *forward* in epochs.
        assert!(node.partitions[&0].lease.epoch() >= 1);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
