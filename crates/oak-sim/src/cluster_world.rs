//! The replicated simulation world: a whole `oak-cluster` deployment —
//! N nodes, each with its own simulated disk, joined by a simulated
//! network — driven through one seeded v2 scenario, with the cluster
//! invariants audited continuously.
//!
//! Everything is the real code: real engines, real WAL stores
//! ([`crate::fs::SimFs`] per node), the real lease/replication state
//! machines ([`oak_cluster::ClusterNode`]), and the real router. The
//! sim supplies only the physics — time ([`crate::clock::SimClock`]),
//! disks, and the message fabric ([`crate::net::SimNet`] with seeded
//! delay, reordering, duplication, loss, and scripted link cuts).
//!
//! Invariants, checked at every tick and at a forced end-of-run heal:
//!
//! 1. **Losslessness** — by content and by sequence number. By
//!    content: every report ingest is tracked from the moment it runs
//!    until the primary it ran on — still seated, in the same epoch —
//!    reports a commit at or past the head the ingest produced, which is
//!    when a client would get its 204; the end-of-run audit then
//!    requires the converged engine to count at least that many reports
//!    from each user (the site aggregates, which pruning never touches).
//!    By sequence number: `committed_high[p]` records the highest
//!    replication watermark any seated primary of partition `p` ever
//!    reported, and no node may ever sit as primary with its WAL head
//!    below it. The second check alone is blind to a *longer* history
//!    that lacks the acked events — a deposed primary's dead branch
//!    elected back in — which is why the first exists. Vote grants
//!    compare `(branch epoch, head)` precisely to make both impossible;
//!    `--buggy-promotion` removes the comparison to prove the harness
//!    catches the loss.
//! 2. **Election safety** — at most one node observed as primary per
//!    `(partition, epoch)`, across the whole run.
//! 3. **Step-down & convergence** — after partitions heal and every
//!    node restarts, each partition settles to exactly one primary
//!    (stale ones stepped down), replication drains (primary lag 0),
//!    and every replica's engine fingerprint is byte-identical
//!    (`last_seen` masked, as in the single-node world).
//!
//! A violation is a [`SimFailure`] like any other: the scenario
//! minimizes by ddmin and round-trips through the v2 JSON codec.

use std::collections::BTreeMap;
use std::sync::Arc;

use oak_cluster::{
    ClusterNode, LeaseConfig, NodeId, NodeOptions, PartitionStatus, Role, RouteDecision, Router,
    Topology,
};
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
    SharedFetcher, SimFailure, LOG_RETENTION,
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
    partition: u32,
    /// The primary it ran on, and the epoch that primary was seated in.
    node: usize,
    epoch: u64,
    /// That primary's head once the ingest was journaled.
    head: u64,
}

fn status_of(node: &ClusterNode, partition: u32) -> Option<PartitionStatus> {
    let mut hosted = node.status().into_iter();
    hosted.find(|st| st.partition == partition)
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
    router: Router,
    /// Partition → highest replication watermark any seated primary
    /// ever reported. The supremum of releasable client acks.
    committed_high: BTreeMap<u32, u64>,
    /// Report ingests awaiting their commit (see [`UnackedReport`]).
    unacked: Vec<UnackedReport>,
    /// User → report ingests a client was acked for.
    acked_reports: BTreeMap<String, u64>,
    /// `(partition, epoch)` → the one node seen as its primary.
    claims: BTreeMap<(u32, u64), NodeId>,
    /// Partition → highest epoch with an observed primary (failover
    /// accounting).
    epoch_high: BTreeMap<u32, u64>,
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

    fn kill(&mut self, idx: usize) {
        if self.nodes[idx].take().is_some() {
            for partition in self.topology.partitions_of(NodeId(idx as u32)) {
                self.router.invalidate(partition);
            }
        }
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
                        for (store, oak) in node.compactions_due() {
                            let _ = store.maybe_snapshot(&oak);
                        }
                        out
                    }
                    None => continue,
                };
                if self.fses[idx].crashed() {
                    // Died mid-tick: nothing it "sent" ever left the box.
                    self.kill(idx);
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
                    self.kill(idx);
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

    /// The continuous audit: walks every live node's partition status,
    /// feeds the router, and checks election safety + losslessness.
    fn audit(&mut self) -> Result<(), SimFailure> {
        let started = std::time::Instant::now();
        self.release_acks();
        let mut failure = None;
        for idx in 0..self.node_count() {
            let Some(node) = self.nodes[idx].as_ref() else {
                continue;
            };
            let me = NodeId(idx as u32);
            for st in node.status() {
                if st.role != Role::Primary {
                    continue;
                }
                self.stats.invariant_checks += 2;
                // Election safety: one primary per (partition, epoch).
                let holder = self.claims.entry((st.partition, st.epoch)).or_insert(me);
                if *holder != me {
                    failure = Some((
                        "single_primary",
                        format!(
                            "partition {} epoch {} has two primaries: {} and {}",
                            st.partition, st.epoch, holder, me
                        ),
                    ));
                    break;
                }
                // Failover accounting: a later epoch seating a primary.
                let high = self.epoch_high.entry(st.partition).or_insert(st.epoch);
                if st.epoch > *high {
                    self.stats.failovers += 1;
                    *high = st.epoch;
                }
                if st.epoch < *high {
                    // A deposed primary that has not yet heard the new
                    // epoch (partitioned away, inside its lease). Its
                    // commit is frozen — a majority now lives at a
                    // higher epoch and refuses its appends — so it can
                    // neither lose acked events nor mint new acks; it
                    // serves bounded-stale reads until it steps down.
                    // Losslessness is a claim about the *authoritative*
                    // line, below.
                    continue;
                }
                // Losslessness: the authoritative (highest-epoch)
                // primary may never sit below the highest watermark any
                // primary ever acked at.
                let acked = self.committed_high.entry(st.partition).or_insert(0);
                if st.head < *acked {
                    failure = Some((
                        "acked_loss",
                        format!(
                            "node {} seated as primary of partition {} (epoch {}) with \
                             head {} below the replication watermark {} — events acked \
                             durable on a majority are gone from the serving history",
                            me, st.partition, st.epoch, st.head, *acked
                        ),
                    ));
                    break;
                }
                *acked = (*acked).max(st.commit);
                self.router.observe_primary(st.partition, st.epoch, me);
            }
            if failure.is_some() {
                break;
            }
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
                .and_then(|node| status_of(node, op.partition))
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

    /// Resolves `partition` to its live, seated primary's node index,
    /// through the router (503-counting on the way).
    fn primary_for(&mut self, partition: u32) -> Option<usize> {
        match self.router.route_partition(partition) {
            RouteDecision::Forward { node, .. } => {
                let idx = node.0 as usize;
                let seated = self.nodes[idx]
                    .as_ref()
                    .map(|n| n.role(partition) == Some(Role::Primary))
                    .unwrap_or(false);
                if seated {
                    Some(idx)
                } else {
                    // Forward bounced: the believed primary is dead or
                    // stepped down. Invalidate and 503.
                    self.router.invalidate(partition);
                    self.stats.refused += 1;
                    None
                }
            }
            RouteDecision::Unavailable { .. } => {
                self.stats.refused += 1;
                None
            }
        }
    }

    /// Runs one client operation against `partition`'s primary engine,
    /// then handles a disk crash that may have fired inside it. Returns
    /// the node it ran on with the result, unless that node is gone.
    fn with_primary<R>(
        &mut self,
        partition: u32,
        op: impl FnOnce(&Oak, Instant) -> R,
    ) -> Option<(usize, R)> {
        let idx = self.primary_for(partition)?;
        let engine = match self.nodes[idx].as_ref()?.primary_engine(partition) {
            Ok(engine) => engine,
            Err(_) => {
                self.router.invalidate(partition);
                self.stats.refused += 1;
                return None;
            }
        };
        self.stats.requests += 1;
        let result = op(&engine, self.clock.now());
        // The serving path compacts the primary after every request that
        // journals (`OakService::with_durability`).
        if let Some(store) = self.nodes[idx].as_ref()?.partition_store(partition) {
            let _ = store.maybe_snapshot(&engine);
        }
        if self.fses[idx].crashed() {
            // The write may have been half-journaled; the node is gone
            // and the client never got an ack. Replication (or its
            // absence) is what the invariants audit.
            self.kill(idx);
            return None;
        }
        Some((idx, result))
    }

    /// Client ops that address every partition (operator rule pushes).
    fn each_partition(&mut self, mut op: impl FnMut(&mut Self, u32)) {
        for partition in 0..self.spec.partitions {
            op(self, partition);
        }
    }

    fn execute(&mut self, step: &Step) -> Result<(), SimFailure> {
        let fetcher = SharedFetcher(Arc::clone(&self.fetcher));
        match step {
            Step::AddRule { host, kind, ttl_ms } => {
                let (host, kind, ttl_ms) = (*host, *kind, *ttl_ms);
                self.each_partition(|world, partition| {
                    world.with_primary(partition, |oak, _| {
                        oak.add_rule(step_rule(host, kind, ttl_ms))
                            .expect("generated rules are valid");
                    });
                });
            }
            Step::RemoveRule { nth } => {
                let nth = *nth;
                self.each_partition(|world, partition| {
                    world.with_primary(partition, |oak, _| {
                        let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
                        if !ids.is_empty() {
                            oak.remove_rule(ids[nth as usize % ids.len()]);
                        }
                    });
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
                let partition = self.topology.partition_of(&report.user);
                let ran = self.with_primary(partition, |oak, now| {
                    oak.ingest_report_from(now, &report, &fetcher, None);
                    oak.event_seq()
                });
                if let Some((node, head)) = ran {
                    let seated = self.nodes[node].as_ref().expect("ran on a live node");
                    let st = status_of(seated, partition).expect("hosts what it serves");
                    self.unacked.push(UnackedReport {
                        user: report.user,
                        partition,
                        node,
                        epoch: st.epoch,
                        head,
                    });
                }
            }
            Step::Serve { user } => {
                let name = user_name(*user);
                let partition = self.topology.partition_of(&name);
                let page = sim_page();
                self.with_primary(partition, |oak, now| {
                    oak.modify_page(now, &name, "/p", &page);
                });
            }
            Step::ForceActivate { user, nth } => {
                let name = user_name(*user);
                let partition = self.topology.partition_of(&name);
                self.with_primary(partition, |oak, now| {
                    let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
                    if !ids.is_empty() {
                        oak.force_activate(now, &name, ids[*nth as usize % ids.len()]);
                    }
                });
            }
            Step::ForceDeactivate { user, nth } => {
                let name = user_name(*user);
                let partition = self.topology.partition_of(&name);
                self.with_primary(partition, |oak, _| {
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
                self.each_partition(|world, partition| {
                    world.with_primary(partition, |oak, _| {
                        oak.prune_inactive_users(cutoff);
                    });
                });
            }
            // A v1 crash in a cluster document: crash the node the
            // survival seed picks, immediately (defined behavior for
            // hand-edited scenarios; the generator emits CrashNode).
            Step::Crash { survival_seed, .. } => {
                let node = survival_seed % self.spec.nodes as u64;
                self.crash_node(node, 0, *survival_seed);
            }
            Step::CheckHealth => {
                // Any partition the router believes has a primary must
                // actually be served by a seated one (or bounce into a
                // 503, never into a stale engine).
                self.stats.invariant_checks += u64::from(self.spec.partitions);
                for partition in 0..self.spec.partitions {
                    if let Some(idx) = self.primary_for(partition) {
                        let node = self.nodes[idx].as_ref().expect("seated primary is live");
                        if node.primary_engine(partition).is_err() {
                            return Err(self.fail(
                                "health",
                                format!(
                                    "router forwarded partition {partition} to n{idx}, \
                                     which refuses as non-primary"
                                ),
                            ));
                        }
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
            self.kill(idx);
        } else {
            // The disk dies mid-flight: under a later tick's journaling
            // or snapshot write, exactly like a real power cut.
            self.fses[idx].schedule_crash(ops_ahead, survival_seed);
        }
    }

    /// End-of-run: heal everything, restart every dead node, and require
    /// the cluster to converge — one primary per partition, replication
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
        // primary per partition among (now fully healed) live nodes.
        let started = std::time::Instant::now();
        for partition in 0..self.spec.partitions {
            self.stats.invariant_checks += 2;
            let primaries: Vec<NodeId> = self.seated_primaries(partition);
            if primaries.len() != 1 {
                return Err(self.fail(
                    "step_down",
                    format!(
                        "partition {partition} has {} primaries after healing: {:?}",
                        primaries.len(),
                        primaries
                    ),
                ));
            }
            // Replica convergence: every copy of the partition is the
            // same state, byte for byte (last_seen masked).
            let mut prints: Vec<(NodeId, String)> = Vec::new();
            for replica in self.topology.replicas(partition) {
                if let Some(node) = self.nodes[replica.0 as usize].as_ref() {
                    if let Some(engine) = node.replica_engine(partition) {
                        prints.push((replica, fingerprint(&engine)));
                    }
                }
            }
            if let Some(((first, head), rest)) = prints.split_first() {
                if let Some((diverged, _)) = rest.iter().find(|(_, p)| p != head) {
                    return Err(self.fail(
                        "replica_divergence",
                        format!(
                            "partition {partition} replicas disagree after healing: \
                             {first} and {diverged} hold different states"
                        ),
                    ));
                }
            }
            // Losslessness by content: the converged history counts every
            // report a client was acked for.
            let node = self.nodes[primaries[0].0 as usize].as_ref();
            let engine = node.and_then(|n| n.replica_engine(partition));
            let kept = engine.expect("seated primary is live").aggregates();
            for (user, acked) in &self.acked_reports {
                if self.topology.partition_of(user) != partition {
                    continue;
                }
                self.stats.invariant_checks += 1;
                let held = kept.reports_from(user);
                if held < *acked {
                    return Err(self.fail(
                        "acked_loss",
                        format!(
                            "partition {partition} converged on a history holding {held} \
                             report(s) from {user}, but clients were acked for {acked} — \
                             reports acked durable on a majority are gone from every replica"
                        ),
                    ));
                }
            }
        }
        self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
        Ok(())
    }

    fn seated_primaries(&self, partition: u32) -> Vec<NodeId> {
        (0..self.node_count())
            .filter_map(|idx| {
                let node = self.nodes[idx].as_ref()?;
                (node.role(partition) == Some(Role::Primary)).then_some(NodeId(idx as u32))
            })
            .collect()
    }

    /// Settled: every partition has exactly one primary whose followers
    /// have acked its whole log and whose commit covers its head.
    fn converged(&self) -> bool {
        (0..self.spec.partitions).all(|partition| {
            let primaries = self.seated_primaries(partition);
            let [primary] = primaries.as_slice() else {
                return false;
            };
            let node = self.nodes[primary.0 as usize].as_ref().expect("seated");
            node.status()
                .into_iter()
                .filter(|st| st.partition == partition)
                .all(|st| st.lag == 0 && st.commit == st.head)
        })
    }

    fn settle_report(&self) -> String {
        let mut parts = Vec::new();
        for partition in 0..self.spec.partitions {
            let primaries = self.seated_primaries(partition);
            let mut detail = match primaries.as_slice() {
                [] => "no primary".to_owned(),
                [p] => format!("primary {p}"),
                many => format!("{} primaries {:?}", many.len(), many),
            };
            for replica in self.topology.replicas(partition) {
                let Some(node) = self.nodes[replica.0 as usize].as_ref() else {
                    detail.push_str(&format!("; {replica} down"));
                    continue;
                };
                for st in node.status() {
                    if st.partition == partition {
                        detail.push_str(&format!(
                            "; {replica} {:?} epoch {} head {} commit {} lag {}",
                            st.role, st.epoch, st.head, st.commit, st.lag
                        ));
                    }
                }
            }
            parts.push(format!("partition {partition}: {detail}"));
        }
        parts.join("; ")
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
        spec.partitions,
        spec.replication,
    );
    let clock = SimClock::new();
    let fetcher = Arc::new(SimFetcher::new(clock.clone(), scenario.seed ^ 0xfe7c));
    let net = SimNet::new(
        scenario.seed.wrapping_mul(0x9e6d_7f4a_c1b5_8e63),
        SimNetOptions::default(),
    );
    let node_options = NodeOptions {
        oak: OakConfig {
            log_retention: Some(LOG_RETENTION),
            ..OakConfig::default()
        },
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
        topology: topology.clone(),
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
        router: Router::new(topology),
        committed_high: BTreeMap::new(),
        unacked: Vec::new(),
        acked_reports: BTreeMap::new(),
        claims: BTreeMap::new(),
        epoch_high: BTreeMap::new(),
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

    world.stats.events = world.committed_high.values().sum();
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
