//! The replicated simulation world: a whole `oak-cluster` deployment —
//! one replication group of N nodes, each with its own simulated disk,
//! joined by a simulated network — driven through one seeded v2
//! scenario, with the cluster invariants audited continuously.
//!
//! Everything is the real code: real engines, real WAL stores
//! ([`crate::fs::SimFs`] per node) and the real lease/replication state
//! machines ([`oak_cluster::ClusterNode`]). A client sends each request
//! to the node seated as primary in the highest epoch, and a group with
//! none seated answers it with a 503. The sim supplies only the
//! physics — time ([`crate::clock::SimClock`]), disks, and the message
//! fabric ([`crate::net::SimNet`] with seeded delay, reordering,
//! duplication, loss, and scripted link cuts).
//!
//! Invariants, checked at every tick and at a forced end-of-run heal:
//!
//! 1. **Losslessness** — by content and by sequence number. By
//!    content: every report ingest is tracked from the moment it runs
//!    until the primary it ran on — still seated, in the same epoch —
//!    reports a commit at or past the head the ingest produced, which is
//!    when a client would get its 204; the end-of-run audit then
//!    requires the converged engine to count at least that many reports
//!    from each user ([`Oak::reports_from`]). A prune drops a user's
//!    count, so it drops what the oracle tracks for the users it pruned.
//!    By sequence number: `committed_high` records the highest
//!    replication watermark any seated primary ever reported, and no
//!    node may ever sit as primary with its WAL head below it. The
//!    second check alone is blind to a *longer* history that lacks the
//!    acked events — a deposed primary's dead branch elected back in —
//!    which is why the first exists. Vote grants
//!    compare `(branch epoch, head)` precisely to make both impossible;
//!    `--buggy-promotion` removes the comparison to prove the harness
//!    catches the loss.
//! 2. **Election safety** — at most one node observed as primary per
//!    epoch, across the whole run.
//! 3. **Step-down & convergence** — after partitions heal and every
//!    node restarts, the group settles to exactly one primary
//!    (stale ones stepped down), replication drains (primary lag 0),
//!    and every replica's engine fingerprint is byte-identical
//!    (`last_seen` masked, as in the single-node world).
//!
//! A violation is a [`SimFailure`] like any other: the scenario
//! minimizes by ddmin and round-trips through the v2 JSON codec.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use oak_cluster::{ClusterNode, LeaseConfig, NodeId, NodeOptions, Role, Topology, PARTITION};
use oak_core::engine::{Oak, OakConfig};
use oak_core::report::PerfReport;
use oak_core::Instant;
use oak_store::{FsyncPolicy, StorageBackend, StoreOptions};

use crate::clock::SimClock;
use crate::fetch::{HostMode, SimFetcher};
use crate::fs::{SimFs, SimFsOptions};
use crate::net::{SimNet, SimNetOptions};
use crate::scenario::{ClusterSpec, Scenario, Step, HOSTS};
use crate::world::{
    benign_report, fingerprint, sim_page, step_rule, user_name, violating_report, RunStats,
    SharedFetcher, SimFailure,
};

/// Knobs for a cluster run, beyond the scenario itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterSimOptions {
    /// Per-node disk fault options.
    pub fs: SimFsOptions,
    /// Remove the watermark gate from vote grants — the deliberately
    /// broken failover ("promote whoever asks first") the harness
    /// self-check must catch as a losslessness violation.
    pub buggy_promotion: bool,
}

/// Simulated milliseconds per pump iteration. Must stay below the
/// heartbeat interval so protocol timers are observed, not skipped.
const TICK_MS: u64 = 20;

/// Bounded node-boot retries (a scheduled crash can land mid-recovery).
const MAX_BOOT_ATTEMPTS: usize = 8;

/// Simulated time the end-of-run audit allows for the healed cluster to
/// elect, drain replication, and converge before calling it a stall.
const SETTLE_BUDGET_MS: u64 = 30_000;

/// A report ingest the cluster has run but not yet acknowledged.
struct UnackedReport {
    user: String,
    /// The primary it ran on, and the epoch that primary was seated in.
    node: usize,
    epoch: u64,
    /// That primary's head once the ingest was journaled.
    head: u64,
}

struct ClusterWorld<'a> {
    scenario: &'a Scenario,
    spec: ClusterSpec,
    topology: Topology,
    clock: SimClock,
    fetcher: Arc<SimFetcher>,
    net: SimNet,
    fses: Vec<SimFs>,
    /// `None` = node is down (crashed, not yet restarted).
    nodes: Vec<Option<ClusterNode>>,
    node_options: NodeOptions,
    /// The highest replication watermark any seated primary ever
    /// reported. The supremum of releasable client acks.
    committed_high: u64,
    /// Report ingests awaiting their commit (see [`UnackedReport`]).
    unacked: Vec<UnackedReport>,
    /// User → report ingests a client was acked for.
    acked_reports: BTreeMap<String, u64>,
    /// Epoch → the one node seen as its primary.
    claims: BTreeMap<u64, NodeId>,
    /// The highest epoch with an observed primary (failover accounting).
    epoch_high: Option<u64>,
    stats: RunStats,
    step: usize,
}

impl ClusterWorld<'_> {
    fn fail(&self, invariant: &str, detail: String) -> SimFailure {
        SimFailure {
            seed: self.scenario.seed,
            step: self.step,
            invariant: invariant.to_owned(),
            detail,
        }
    }

    fn node_count(&self) -> usize {
        self.spec.nodes as usize
    }

    /// Boots (or re-boots) node `idx` from whatever its disk holds,
    /// retrying if a scheduled crash fires mid-recovery.
    fn boot_node(&mut self, idx: usize) -> Result<ClusterNode, SimFailure> {
        let mut attempt = 0;
        loop {
            attempt += 1;
            let backend = Arc::new(self.fses[idx].clone()) as Arc<dyn StorageBackend>;
            match ClusterNode::new(
                NodeId(idx as u32),
                self.topology.clone(),
                backend,
                format!("/sim/n{idx}"),
                self.node_options.clone(),
                self.clock.now().as_millis(),
            ) {
                Ok(node) => {
                    self.stats.recoveries += 1;
                    return Ok(node);
                }
                Err(err) if self.fses[idx].crashed() && attempt < MAX_BOOT_ATTEMPTS => {
                    let _ = err;
                    self.fses[idx].restart();
                }
                Err(err) => {
                    return Err(self.fail(
                        "recovery",
                        format!("node n{idx} failed to boot from surviving disk: {err}"),
                    ))
                }
            }
        }
    }

    /// Advances simulated time by `ms`, pumping protocol ticks and the
    /// message fabric, auditing invariants at every tick.
    fn pump(&mut self, ms: u64) -> Result<(), SimFailure> {
        let mut remaining = ms;
        while remaining > 0 {
            let delta = remaining.min(TICK_MS);
            remaining -= delta;
            self.clock.advance(delta);
            let now = self.clock.now().as_millis();
            for idx in 0..self.node_count() {
                let out = match self.nodes[idx].as_mut() {
                    Some(node) => {
                        let out = node.tick(now);
                        // Follower compaction, as the live ticker runs it
                        // after a tick: the disk may die inside it.
                        if let Some((store, oak)) = node.compactions_due() {
                            let _ = store.maybe_snapshot(&oak);
                        }
                        out
                    }
                    None => continue,
                };
                if self.fses[idx].crashed() {
                    // Died mid-tick: nothing it "sent" ever left the box.
                    self.nodes[idx] = None;
                    continue;
                }
                for envelope in out {
                    self.net.send(now, envelope);
                }
            }
            for envelope in self.net.deliver_due(now) {
                let idx = envelope.to.0 as usize;
                let replies = match self.nodes[idx].as_mut() {
                    Some(node) => node.handle(now, &envelope),
                    None => continue, // delivered to a dead node: dropped
                };
                if self.fses[idx].crashed() {
                    self.nodes[idx] = None;
                    continue;
                }
                for reply in replies {
                    self.net.send(now, reply);
                }
            }
            self.audit()?;
        }
        Ok(())
    }

    /// The continuous audit: walks every live node's status and checks
    /// election safety + losslessness.
    fn audit(&mut self) -> Result<(), SimFailure> {
        let started = std::time::Instant::now();
        self.release_acks();
        let mut failure = None;
        for idx in 0..self.node_count() {
            let Some(node) = self.nodes[idx].as_ref() else {
                continue;
            };
            let me = NodeId(idx as u32);
            let st = node.status();
            if st.role != Role::Primary {
                continue;
            }
            self.stats.invariant_checks += 2;
            // Election safety: one primary per epoch.
            let holder = self.claims.entry(st.epoch).or_insert(me);
            if *holder != me {
                failure = Some((
                    "single_primary",
                    format!(
                        "epoch {} has two primaries: {} and {}",
                        st.epoch, holder, me
                    ),
                ));
                break;
            }
            // Failover accounting: a later epoch seating a primary.
            let high = self.epoch_high.get_or_insert(st.epoch);
            if st.epoch > *high {
                self.stats.failovers += 1;
                *high = st.epoch;
            }
            if st.epoch < *high {
                // A deposed primary that has not yet heard the new epoch
                // (partitioned away, inside its lease). Its commit is
                // frozen — a majority now lives at a higher epoch and
                // refuses its appends — so it can neither lose acked
                // events nor mint new acks; it serves bounded-stale
                // reads until it steps down. Losslessness is a claim
                // about the *authoritative* line, below.
                continue;
            }
            // Losslessness: the authoritative (highest-epoch) primary may
            // never sit below the highest watermark any primary ever
            // acked at.
            if st.head < self.committed_high {
                failure = Some((
                    "acked_loss",
                    format!(
                        "node {} seated as primary (epoch {}) with head {} below the \
                         replication watermark {} — events acked durable on a majority \
                         are gone from the serving history",
                        me, st.epoch, st.head, self.committed_high
                    ),
                ));
                break;
            }
            self.committed_high = self.committed_high.max(st.commit);
        }
        self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
        match failure {
            Some((invariant, detail)) => Err(self.fail(invariant, detail)),
            None => Ok(()),
        }
    }

    /// Releases the ack of every ingest whose primary now reports a
    /// commit covering it; an ingest whose primary died, stepped down or
    /// moved to another epoch first is never acked (the client timed
    /// out, and may find its report kept or not).
    fn release_acks(&mut self) {
        let nodes = &self.nodes;
        let acked_reports = &mut self.acked_reports;
        self.unacked.retain(|op| {
            let seated = nodes[op.node]
                .as_ref()
                .map(ClusterNode::status)
                .filter(|st| st.role == Role::Primary && st.epoch == op.epoch);
            match seated {
                Some(st) if st.commit < op.head => true,
                Some(_) => {
                    *acked_reports.entry(op.user.clone()).or_insert(0) += 1;
                    false
                }
                None => false,
            }
        });
    }

    /// The live node seated as primary in the highest epoch, where a
    /// client sends its request; `None`, counted as a 503, while no node
    /// is seated.
    fn primary(&mut self) -> Option<usize> {
        let seated = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(idx, node)| {
                let st = node.as_ref()?.status();
                (st.role == Role::Primary).then_some((st.epoch, idx))
            })
            .max();
        if seated.is_none() {
            self.stats.refused += 1;
        }
        seated.map(|(_, idx)| idx)
    }

    /// Runs one client operation against the primary engine, then
    /// handles a disk crash that may have fired inside it. Returns the
    /// node it ran on with the result, unless that node is gone.
    fn with_primary<R>(&mut self, op: impl FnOnce(&Oak, Instant) -> R) -> Option<(usize, R)> {
        let idx = self.primary()?;
        let engine = self.nodes[idx].as_ref()?.primary_engine(PARTITION).ok()?;
        self.stats.requests += 1;
        let result = op(&engine, self.clock.now());
        // The serving path compacts the primary after every request that
        // journals (`OakService::with_durability`).
        if let Some(store) = self.nodes[idx].as_ref()?.partition_store(PARTITION) {
            let _ = store.maybe_snapshot(&engine);
        }
        if self.fses[idx].crashed() {
            // The write may have been half-journaled; the node is gone
            // and the client never got an ack. Replication (or its
            // absence) is what the invariants audit.
            self.nodes[idx] = None;
            return None;
        }
        Some((idx, result))
    }

    fn execute(&mut self, step: &Step) -> Result<(), SimFailure> {
        let fetcher = SharedFetcher(Arc::clone(&self.fetcher));
        match step {
            Step::AddRule { host, kind, ttl_ms } => {
                self.with_primary(|oak, _| {
                    oak.add_rule(step_rule(*host, *kind, *ttl_ms))
                        .expect("generated rules are valid");
                });
            }
            Step::RemoveRule { nth } => {
                self.with_primary(|oak, _| {
                    let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
                    if !ids.is_empty() {
                        oak.remove_rule(ids[*nth as usize % ids.len()]);
                    }
                });
            }
            Step::Ingest {
                user,
                host,
                violating,
                binary,
            } => {
                let report = if *violating {
                    violating_report(*user, *host)
                } else {
                    benign_report(*user)
                };
                // `binary` exercises the wire codec: what the cluster
                // ingests is the decode of the binary encoding.
                let report = if *binary {
                    PerfReport::from_binary(&report.to_binary()).map_err(|err| {
                        self.fail("wire", format!("binary report did not round-trip: {err}"))
                    })?
                } else {
                    report
                };
                let ran = self.with_primary(|oak, now| {
                    oak.ingest_report_from(now, &report, &fetcher, None);
                    oak.event_seq()
                });
                if let Some((node, head)) = ran {
                    let seated = self.nodes[node].as_ref().expect("ran on a live node");
                    self.unacked.push(UnackedReport {
                        user: report.user,
                        node,
                        epoch: seated.status().epoch,
                        head,
                    });
                }
            }
            Step::Serve { user } => {
                let name = user_name(*user);
                let page = sim_page();
                self.with_primary(|oak, now| {
                    oak.modify_page(now, &name, "/p", &page);
                });
            }
            Step::ForceActivate { user, nth } => {
                let name = user_name(*user);
                self.with_primary(|oak, now| {
                    let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
                    if !ids.is_empty() {
                        oak.force_activate(now, &name, ids[*nth as usize % ids.len()]);
                    }
                });
            }
            Step::ForceDeactivate { user, nth } => {
                let name = user_name(*user);
                self.with_primary(|oak, _| {
                    let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
                    if !ids.is_empty() {
                        oak.force_deactivate(&name, ids[*nth as usize % ids.len()]);
                    }
                });
            }
            Step::AdvanceClock { ms } => self.pump(*ms)?,
            Step::Partition { host, mode } => {
                let host = format!("cdn{}.example", host % HOSTS as u64);
                let mode = match mode % 4 {
                    0 => HostMode::Healthy,
                    1 => HostMode::Unreachable,
                    2 => HostMode::Hanging(500),
                    _ => HostMode::Flaky { num: 1, den: 2 },
                };
                self.fetcher.set_host(host, mode);
            }
            // Store compaction is automatic (snapshot_every); the
            // explicit v1 step has no cluster-wide meaning.
            Step::Snapshot => {}
            Step::Prune { idle_ms } => {
                let cutoff = Instant(self.clock.now().as_millis().saturating_sub(*idle_ms));
                let users: BTreeSet<String> = (self.acked_reports.keys())
                    .chain(self.unacked.iter().map(|op| &op.user))
                    .cloned()
                    .collect();
                // A user this prune drops takes its count along: what it was
                // acked for, or will be for an ingest journaled before the
                // prune, is no longer a count a history must hold. Read
                // before a crash can take the primary (its prune may yet
                // converge); a count already 0 stays audited.
                let mut pruned = BTreeSet::new();
                self.with_primary(|oak, _| {
                    let held: Vec<String> = (users.into_iter())
                        .filter(|user| oak.reports_from(user) > 0)
                        .collect();
                    oak.prune_inactive_users(cutoff);
                    pruned.extend(held.into_iter().filter(|user| oak.reports_from(user) == 0));
                });
                self.acked_reports.retain(|user, _| !pruned.contains(user));
                self.unacked.retain(|op| !pruned.contains(&op.user));
            }
            // A v1 crash in a cluster document: crash the node the
            // survival seed picks, immediately (defined behavior for
            // hand-edited scenarios; the generator emits CrashNode).
            Step::Crash { survival_seed, .. } => {
                let node = survival_seed % self.spec.nodes as u64;
                self.crash_node(node, 0, *survival_seed);
            }
            Step::CheckHealth => {
                // The node whose status reads primary must actually serve
                // (or the client gets a 503, never a stale engine).
                self.stats.invariant_checks += 1;
                if let Some(idx) = self.primary() {
                    let node = self.nodes[idx].as_ref().expect("seated primary is live");
                    if node.primary_engine(PARTITION).is_err() {
                        return Err(self.fail(
                            "health",
                            format!("n{idx} reads as primary but refuses client traffic"),
                        ));
                    }
                }
            }
            Step::CrashNode {
                node,
                ops_ahead,
                survival_seed,
            } => self.crash_node(*node, *ops_ahead, *survival_seed),
            Step::RestartNode { node } => {
                let idx = (node % self.spec.nodes as u64) as usize;
                if self.nodes[idx].is_none() {
                    self.fses[idx].restart();
                    let node = self.boot_node(idx)?;
                    self.nodes[idx] = Some(node);
                }
            }
            Step::PartitionLink { a, b } => {
                let n = self.spec.nodes as u64;
                self.net
                    .partition_link(NodeId((a % n) as u32), NodeId((b % n) as u32));
            }
            Step::HealLink { a, b } => {
                let n = self.spec.nodes as u64;
                self.net
                    .heal_link(NodeId((a % n) as u32), NodeId((b % n) as u32));
            }
            Step::HealAll => self.net.heal_all(),
        }
        Ok(())
    }

    fn crash_node(&mut self, node: u64, ops_ahead: u64, survival_seed: u64) {
        let idx = (node % self.spec.nodes as u64) as usize;
        if self.nodes[idx].is_none() {
            return;
        }
        if ops_ahead == 0 {
            self.fses[idx].crash_now();
            self.nodes[idx] = None;
        } else {
            // The disk dies mid-flight: under a later tick's journaling
            // or snapshot write, exactly like a real power cut.
            self.fses[idx].schedule_crash(ops_ahead, survival_seed);
        }
    }

    /// End-of-run: heal everything, restart every dead node, and require
    /// the cluster to converge — one primary, replication
    /// drained, replicas byte-identical.
    fn final_audit(&mut self) -> Result<(), SimFailure> {
        self.net.heal_all();
        let mut waited = 0;
        loop {
            // Revive every dead node — including nodes felled *during*
            // the settle by a crash the schedule armed earlier (the
            // trigger outlives the heal step that precedes it).
            for idx in 0..self.node_count() {
                if self.nodes[idx].is_none() {
                    self.fses[idx].restart();
                    let node = self.boot_node(idx)?;
                    self.nodes[idx] = Some(node);
                }
            }
            if self.converged() {
                break;
            }
            if waited >= SETTLE_BUDGET_MS {
                return Err(self.fail(
                    "convergence",
                    format!(
                        "healed cluster did not settle within {SETTLE_BUDGET_MS} sim-ms: {}",
                        self.settle_report()
                    ),
                ));
            }
            self.pump(TICK_MS)?;
            waited += TICK_MS;
        }

        // Stale primaries must all have stepped down: exactly one
        // primary among (now fully healed) live nodes.
        let started = std::time::Instant::now();
        self.stats.invariant_checks += 2;
        let primaries: Vec<NodeId> = self.seated_primaries();
        if primaries.len() != 1 {
            return Err(self.fail(
                "step_down",
                format!(
                    "{} primaries after healing: {:?}",
                    primaries.len(),
                    primaries
                ),
            ));
        }
        // Replica convergence: every copy of the group is the same
        // state, byte for byte (last_seen masked).
        let mut prints: Vec<(NodeId, String)> = Vec::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Some(engine) = node.as_ref().and_then(|n| n.replica_engine(PARTITION)) {
                prints.push((NodeId(idx as u32), fingerprint(&engine)));
            }
        }
        if let Some(((first, head), rest)) = prints.split_first() {
            if let Some((diverged, _)) = rest.iter().find(|(_, p)| p != head) {
                return Err(self.fail(
                    "replica_divergence",
                    format!(
                        "replicas disagree after healing: {first} and {diverged} hold \
                         different states"
                    ),
                ));
            }
        }
        // Losslessness by content: the converged history counts every
        // report a client was acked for.
        let node = self.nodes[primaries[0].0 as usize].as_ref();
        let engine = node.and_then(|n| n.replica_engine(PARTITION));
        let kept = engine.expect("seated primary is live");
        for (user, acked) in &self.acked_reports {
            self.stats.invariant_checks += 1;
            let held = kept.reports_from(user);
            if held < *acked {
                return Err(self.fail(
                    "acked_loss",
                    format!(
                        "the group converged on a history holding {held} report(s) from \
                         {user}, but clients were acked for {acked} — reports acked \
                         durable on a majority are gone from every replica"
                    ),
                ));
            }
        }
        self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn seated_primaries(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter_map(|idx| {
                let node = self.nodes[idx].as_ref()?;
                (node.status().role == Role::Primary).then_some(NodeId(idx as u32))
            })
            .collect()
    }

    /// Settled: exactly one primary, whose followers have acked its
    /// whole log and whose commit covers its head.
    fn converged(&self) -> bool {
        let primaries = self.seated_primaries();
        let [primary] = primaries.as_slice() else {
            return false;
        };
        let st = self.nodes[primary.0 as usize]
            .as_ref()
            .expect("seated")
            .status();
        st.lag == 0 && st.commit == st.head
    }

    fn settle_report(&self) -> String {
        let primaries = self.seated_primaries();
        let mut detail = match primaries.as_slice() {
            [] => "no primary".to_owned(),
            [p] => format!("primary {p}"),
            many => format!("{} primaries {:?}", many.len(), many),
        };
        for (idx, node) in self.nodes.iter().enumerate() {
            let replica = NodeId(idx as u32);
            match node {
                None => detail.push_str(&format!("; {replica} down")),
                Some(node) => {
                    let st = node.status();
                    detail.push_str(&format!(
                        "; {replica} {:?} epoch {} head {} commit {} lag {}",
                        st.role, st.epoch, st.head, st.commit, st.lag
                    ));
                }
            }
        }
        detail
    }
}

/// Runs one cluster scenario to completion, auditing the cluster
/// invariants throughout and forcing a heal-and-converge audit at the
/// end. The scenario must carry a [`ClusterSpec`] (`"v": 2`).
pub fn run_cluster_scenario(
    scenario: &Scenario,
    options: ClusterSimOptions,
) -> Result<RunStats, SimFailure> {
    let Some(spec) = scenario.cluster else {
        return Err(SimFailure {
            seed: scenario.seed,
            step: 0,
            invariant: "setup".into(),
            detail: "scenario has no cluster spec; use run_scenario".into(),
        });
    };
    let topology = Topology::new(
        (0..spec.nodes).map(NodeId).collect(),
        1,
        spec.nodes as usize,
    );
    let clock = SimClock::new();
    let fetcher = Arc::new(SimFetcher::new(clock.clone(), scenario.seed ^ 0xfe7c));
    let net = SimNet::new(
        scenario.seed.wrapping_mul(0x9e6d_7f4a_c1b5_8e63),
        SimNetOptions::default(),
    );
    let node_options = NodeOptions {
        oak: OakConfig::default(),
        store: StoreOptions {
            // Replication acks assert durability; anything looser makes
            // the losslessness invariant vacuous, so the cluster world
            // pins Always regardless of the scenario's fsync field.
            fsync: FsyncPolicy::Always,
            snapshot_every_events: scenario.snapshot_every,
            rotate_segment_bytes: 4 * 1024,
            keep_snapshots: 2,
        },
        lease: LeaseConfig {
            buggy_promotion: options.buggy_promotion,
            ..LeaseConfig::default()
        },
    };

    let mut world = ClusterWorld {
        scenario,
        spec,
        topology,
        clock,
        fetcher,
        net,
        fses: (0..spec.nodes)
            .map(|n| {
                SimFs::new(
                    scenario
                        .seed
                        .wrapping_mul(0x5851_f42d_4c95_7f2d)
                        .wrapping_add(n as u64 + 1),
                    options.fs,
                )
            })
            .collect(),
        nodes: (0..spec.nodes).map(|_| None).collect(),
        node_options,
        committed_high: 0,
        unacked: Vec::new(),
        acked_reports: BTreeMap::new(),
        claims: BTreeMap::new(),
        epoch_high: None,
        stats: RunStats::default(),
        step: 0,
    };
    for idx in 0..world.node_count() {
        let node = world.boot_node(idx)?;
        world.nodes[idx] = Some(node);
    }
    // Initial boots are cold starts, not recoveries.
    world.stats.recoveries = 0;

    for (index, step) in scenario.steps.iter().enumerate() {
        world.step = index;
        world.execute(step)?;
        // Client ops take effect over the next protocol ticks.
        world.pump(TICK_MS)?;
        world.stats.steps += 1;
    }

    world.step = scenario.steps.len();
    world.final_audit()?;

    world.stats.events = world.committed_high;
    for fs in &world.fses {
        let c = fs.counters();
        world.stats.fs.crashes += c.crashes;
        world.stats.fs.torn_files += c.torn_files;
        world.stats.fs.lost_dir_entries += c.lost_dir_entries;
        world.stats.fs.garbled_bytes += c.garbled_bytes;
        world.stats.fs.failed_ops += c.failed_ops;
    }
    world.stats.fetch = world.fetcher.faults();
    Ok(world.stats)
}

/// Dispatches a scenario to the world its shape calls for: v2 cluster
/// scenarios to [`run_cluster_scenario`], everything else to the
/// single-node [`crate::world::run_scenario`].
pub fn run_any_scenario(
    scenario: &Scenario,
    options: ClusterSimOptions,
) -> Result<RunStats, SimFailure> {
    if scenario.cluster.is_some() {
        run_cluster_scenario(scenario, options)
    } else {
        crate::world::run_scenario(scenario, options.fs)
    }
}
