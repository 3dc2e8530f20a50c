//! Replication, measured: how long the lease protocol takes to seat a
//! new primary after the old one dies (the failover window, in
//! deterministic sim-ms), and what WAL shipping costs the ingest path
//! relative to a single durable node (the replication tax).
//!
//! Both studies run the real [`oak_cluster::ClusterNode`] state machine
//! over an in-memory [`oak_sim::SimFs`] with instant loss-free delivery,
//! so the numbers isolate protocol cost from disk and network noise.
//! The tax is an upper bound: here one thread plays every replica, while
//! a live deployment runs followers on other machines.
//!
//! Prints the tables and records them in `BENCH_cluster.json`; exits
//! nonzero if any failover trial loses an acked event or the mean
//! failover window exceeds its SLO. Run with `cargo run --release -p
//! oak-bench --bin bench_cluster`; pass `--smoke` for the fast CI
//! variant (same shape, fewer trials).

use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::Arc;

use oak_cluster::{ClusterNode, Envelope, NodeId, NodeOptions, Role, Topology};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::Instant;
use oak_sim::{SimFs, SimFsOptions};
use oak_store::{OakStore, StorageBackend};

/// Protocol tick cadence, matching the sim's cluster world and the live
/// runtime.
const TICK_MS: u64 = 20;

/// Mean failover SLO: generous against the 200 ms election timeout plus
/// worst-case per-node jitter, tight enough to catch a protocol
/// regression that adds extra election rounds.
const FAILOVER_SLO_MS: f64 = 1_000.0;

/// A replication group on simulated disks with perfect delivery: every
/// envelope a tick emits is handled before the next tick.
struct MiniCluster {
    nodes: Vec<Option<ClusterNode>>,
    now: u64,
}

impl MiniCluster {
    fn boot(replicas: u32, seed: u64) -> MiniCluster {
        let topology = Topology::new((0..replicas).map(NodeId).collect(), 1, replicas as usize);
        let nodes = (0..replicas)
            .map(|i| {
                let fs = SimFs::new(
                    seed.wrapping_mul(0x9e37_79b9)
                        .wrapping_add(u64::from(i) + 1),
                    SimFsOptions::default(),
                );
                let backend = Arc::new(fs) as Arc<dyn StorageBackend>;
                let node = ClusterNode::new(
                    NodeId(i),
                    topology.clone(),
                    backend,
                    format!("/bench/n{i}"),
                    NodeOptions::default(),
                    0,
                )
                .expect("pristine simulated disk boots");
                Some(node)
            })
            .collect();
        MiniCluster { nodes, now: 0 }
    }

    /// Advances one tick and drains the protocol to quiescence.
    fn tick(&mut self) {
        self.now += TICK_MS;
        let mut queue: VecDeque<Envelope> = VecDeque::new();
        for node in self.nodes.iter_mut().flatten() {
            queue.extend(node.tick(self.now));
        }
        let mut hops = 0u32;
        while let Some(envelope) = queue.pop_front() {
            hops += 1;
            assert!(hops < 100_000, "protocol did not quiesce within a tick");
            let idx = envelope.to.0 as usize;
            if let Some(node) = self.nodes.get_mut(idx).and_then(|n| n.as_mut()) {
                queue.extend(node.handle(self.now, &envelope));
            }
        }
    }

    fn primary(&self) -> Option<(usize, u64)> {
        self.nodes.iter().enumerate().find_map(|(idx, node)| {
            let node = node.as_ref()?;
            (node.role(0) == Some(Role::Primary)).then(|| (idx, node.status().epoch))
        })
    }

    /// Ticks until a primary is seated; returns `(index, sim-ms waited)`.
    fn wait_for_primary(&mut self) -> (usize, u64) {
        let from = self.now;
        loop {
            if let Some((idx, _)) = self.primary() {
                return (idx, self.now - from);
            }
            self.tick();
            assert!(
                self.now - from < 60_000,
                "no primary seated within 60 sim-seconds"
            );
        }
    }

    /// Ingests one report through the current primary's engine.
    fn ingest(&mut self, primary: usize, report: &PerfReport) {
        let node = self.nodes[primary].as_ref().expect("primary is alive");
        let oak = node.primary_engine(0).expect("caller routed to primary");
        oak.ingest_report_from(Instant(self.now), report, &NoFetch, None);
    }

    /// Ticks until the primary's replication watermark covers its head
    /// (every acked event is on a follower quorum).
    fn settle(&mut self, primary: usize) -> u64 {
        loop {
            let status = &self.nodes[primary]
                .as_ref()
                .expect("primary is alive")
                .status();
            if status.commit >= status.head {
                return status.head;
            }
            self.tick();
        }
    }
}

fn bench_report(user: u64, object: u64) -> PerfReport {
    let mut report = PerfReport::new(format!("bench-user-{user}"), "/index.html");
    report.push(ObjectTiming {
        url: format!("https://static.example.com/o{}.js", object % 7),
        ip: format!("10.1.{}.{}", object % 5, user % 200),
        bytes: 12_000 + object % 4_000,
        time_ms: 40.0 + (object % 90) as f64,
    });
    report
}

/// One failover trial: seat a primary, replicate a working set, kill the
/// primary at a trial-specific heartbeat phase, and time the succession.
struct FailoverTrial {
    failover_ms: u64,
    acked_lost: u64,
}

fn failover_trial(trial: u64, reports: u64) -> FailoverTrial {
    let mut cluster = MiniCluster::boot(3, trial);
    let (primary, _) = cluster.wait_for_primary();
    for i in 0..reports {
        cluster.ingest(primary, &bench_report(i % 11, i));
        if i % 8 == 0 {
            cluster.tick();
        }
    }
    let acked = cluster.settle(primary);
    let epoch_before = cluster.nodes[primary]
        .as_ref()
        .expect("alive")
        .status()
        .epoch;
    // Kill at a different phase of the heartbeat window each trial.
    for _ in 0..trial % 7 {
        cluster.tick();
    }
    cluster.nodes[primary] = None;
    let killed_at = cluster.now;
    let successor = loop {
        cluster.tick();
        if let Some((idx, epoch)) = cluster.primary() {
            if idx != primary && epoch > epoch_before {
                break idx;
            }
        }
        assert!(
            cluster.now - killed_at < 60_000,
            "no successor within 60 sim-seconds"
        );
    };
    let head = cluster.nodes[successor]
        .as_ref()
        .expect("alive")
        .status()
        .head;
    FailoverTrial {
        failover_ms: cluster.now - killed_at,
        acked_lost: acked.saturating_sub(head),
    }
}

/// Wall-nanoseconds to ingest `reports` on a single durable node.
fn single_node_ns(reports: u64) -> u64 {
    let backend = Arc::new(SimFs::new(0xbe9c, SimFsOptions::default())) as Arc<dyn StorageBackend>;
    let boot = OakStore::boot_with(
        backend,
        "/bench/single",
        NodeOptions::default().oak,
        NodeOptions::default().store,
    )
    .expect("pristine simulated disk boots");
    let started = std::time::Instant::now();
    for i in 0..reports {
        boot.oak
            .ingest_report_from(Instant(i), &bench_report(i % 11, i), &NoFetch, None);
    }
    started.elapsed().as_nanos() as u64
}

/// Wall-nanoseconds to ingest `reports` through a 3-replica group and
/// settle the replication watermark over them.
fn cluster_ns(reports: u64) -> u64 {
    let mut cluster = MiniCluster::boot(3, 0xc105);
    let (primary, _) = cluster.wait_for_primary();
    let started = std::time::Instant::now();
    for i in 0..reports {
        cluster.ingest(primary, &bench_report(i % 11, i));
        if i % 8 == 0 {
            cluster.tick();
        }
    }
    cluster.settle(primary);
    started.elapsed().as_nanos() as u64
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trials: u64 = if smoke { 10 } else { 40 };
    let reports: u64 = if smoke { 2_000 } else { 20_000 };

    // Failover study.
    let mut windows: Vec<u64> = Vec::new();
    let mut acked_lost = 0u64;
    for trial in 0..trials {
        let result = failover_trial(trial, 64);
        windows.push(result.failover_ms);
        acked_lost += result.acked_lost;
    }
    let min = *windows.iter().min().expect("at least one trial");
    let max = *windows.iter().max().expect("at least one trial");
    let mean = windows.iter().sum::<u64>() as f64 / windows.len() as f64;

    println!("Failover window, 3 replicas, primary killed ({trials} trials)\n");
    println!("{:<28} {:>14}", "metric", "value");
    println!("{:<28} {:>11} ms", "min (sim)", min);
    println!("{:<28} {:>11.1} ms", "mean (sim)", mean);
    println!("{:<28} {:>11} ms", "max (sim)", max);
    println!("{:<28} {:>14}", "acked events lost", acked_lost);

    // Replication tax study.
    let single = single_node_ns(reports);
    let replicated = cluster_ns(reports);
    let single_per = single as f64 / reports as f64;
    let replicated_per = replicated as f64 / reports as f64;
    let tax = replicated_per / single_per - 1.0;

    println!("\nReplication tax, {reports} reports ingested\n");
    println!("{:<28} {:>14}", "path", "ns/report");
    println!("{:<28} {:>14.0}", "single durable node", single_per);
    println!("{:<28} {:>14.0}", "3-replica group", replicated_per);
    println!("{:<28} {:>13.1}%", "replication tax", tax * 100.0);

    let mut doc = oak_json::Value::object();
    doc.set("benchmark", "cluster_replication");
    doc.set("smoke", smoke);
    let mut failover = oak_json::Value::object();
    failover.set("trials", trials);
    failover.set("replicas", 3u64);
    failover.set("min_sim_ms", min);
    failover.set("mean_sim_ms", (mean * 10.0).round() / 10.0);
    failover.set("max_sim_ms", max);
    failover.set("acked_events_lost", acked_lost);
    doc.set("failover", failover);
    let mut taxes = oak_json::Value::object();
    taxes.set("reports", reports);
    taxes.set("single_ns_per_report", single_per.round());
    taxes.set("replicated_ns_per_report", replicated_per.round());
    taxes.set("tax_fraction", (tax * 1000.0).round() / 1000.0);
    doc.set("replication_tax", taxes);
    std::fs::write("BENCH_cluster.json", doc.to_string()).expect("write BENCH_cluster.json");
    println!("\nwrote BENCH_cluster.json");

    if acked_lost > 0 {
        eprintln!("FAIL: {acked_lost} acked event(s) missing after failover");
        return ExitCode::FAILURE;
    }
    if mean > FAILOVER_SLO_MS {
        eprintln!("FAIL: mean failover {mean:.1} sim-ms exceeds the {FAILOVER_SLO_MS} ms SLO");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
