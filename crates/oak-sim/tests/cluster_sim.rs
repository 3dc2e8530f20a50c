//! Cluster-simulation conformance: replicated scenarios hold their
//! invariants across a seed sweep, runs are deterministic, the v1
//! scenario wire format stays replayable, and the deliberately broken
//! failover (`buggy_promotion`) is caught and ddmin-minimized — the
//! proof the losslessness oracle has teeth.

use oak_sim::{
    minimize_with, run_any_scenario, run_cluster_scenario, ClusterSimOptions, ClusterSpec,
    Scenario, SimFsOptions, Step,
};

fn healthy() -> ClusterSimOptions {
    ClusterSimOptions::default()
}

fn buggy_promotion() -> ClusterSimOptions {
    ClusterSimOptions {
        fs: SimFsOptions::default(),
        buggy_promotion: true,
    }
}

#[test]
fn cluster_invariants_hold_across_a_seed_sweep() {
    for seed in 0..25 {
        let scenario = Scenario::generate_cluster(seed);
        if let Err(failure) = run_cluster_scenario(&scenario, healthy()) {
            panic!("cluster seed {seed} violated an invariant: {failure}");
        }
    }
}

#[test]
fn mixed_pool_runs_through_the_same_entry_point() {
    for seed in 0..10 {
        let scenario = Scenario::generate_mixed(seed);
        assert_eq!(
            scenario.cluster.is_some(),
            seed % 2 == 1,
            "mixed pool must alternate shapes"
        );
        if let Err(failure) = run_any_scenario(&scenario, healthy()) {
            panic!("mixed seed {seed} violated an invariant: {failure}");
        }
    }
}

#[test]
fn cluster_runs_are_deterministic_in_the_seed() {
    for seed in [3, 7, 11] {
        let scenario = Scenario::generate_cluster(seed);
        let a = run_cluster_scenario(&scenario, healthy()).expect("clean seed");
        let b = run_cluster_scenario(&scenario, healthy()).expect("clean seed");
        assert_eq!(a.steps, b.steps, "seed {seed}: steps diverged");
        assert_eq!(a.events, b.events, "seed {seed}: events diverged");
        assert_eq!(a.requests, b.requests, "seed {seed}: requests diverged");
        assert_eq!(a.failovers, b.failovers, "seed {seed}: failovers diverged");
        assert_eq!(a.refused, b.refused, "seed {seed}: refusals diverged");
        assert_eq!(
            a.recoveries, b.recoveries,
            "seed {seed}: recoveries diverged"
        );
        assert_eq!(
            a.fs.crashes, b.fs.crashes,
            "seed {seed}: crash schedule diverged"
        );
    }
}

/// A pre-cluster (v1) failure artifact checked in verbatim: the exact
/// JSON `oak-sim --buggy-dirsync` wrote before the scenario format grew
/// its version tag and cluster steps. It must keep decoding and must
/// still reproduce the recorded invariant under the recorded fault —
/// and pass clean without it.
#[test]
fn checked_in_v1_artifact_still_decodes_and_replays() {
    let text = include_str!("../testdata/SIM_FAILURE_v1.json");
    let doc = oak_json::parse(text).expect("artifact is valid JSON");
    let scenario = Scenario::from_value(doc.get("scenario").expect("artifact nests a scenario"))
        .expect("v1 scenario decodes without a version tag");
    assert!(
        scenario.cluster.is_none(),
        "v1 artifacts predate cluster scenarios"
    );

    let recorded_invariant = doc
        .get("invariant")
        .and_then(oak_json::Value::as_str)
        .expect("artifact records the invariant");
    let buggy = ClusterSimOptions {
        fs: SimFsOptions {
            ignore_dir_sync: true,
        },
        buggy_promotion: false,
    };
    let failure = run_any_scenario(&scenario, buggy).expect_err("recorded fault still reproduces");
    assert_eq!(
        failure.invariant, recorded_invariant,
        "replay must reproduce the recorded invariant"
    );
    run_any_scenario(&scenario, healthy()).expect("fixed code passes the same schedule");
}

/// The three-node schedule the sequence-number oracle cannot see. Node
/// 0 wins the first election and replicates one report; it is cut off
/// while still seated and journals five more that nobody hears of; the
/// other two elect a primary that journals two reports and commits them
/// (a client holds a 204 for each); the links heal with node 0 back as a
/// candidate at the group's highest epoch, holding the longest log.
fn longer_dead_branch() -> Scenario {
    let report = |user| Step::Ingest {
        user,
        host: 0,
        violating: false,
        binary: false,
    };
    let mut steps = vec![
        Step::AdvanceClock { ms: 1_500 },
        report(0),
        Step::AdvanceClock { ms: 300 },
        Step::PartitionLink { a: 0, b: 1 },
        Step::PartitionLink { a: 0, b: 2 },
    ];
    steps.extend((0..5).map(|_| report(1)));
    steps.extend([
        Step::AdvanceClock { ms: 2_000 },
        report(2),
        report(2),
        Step::AdvanceClock { ms: 300 },
        Step::HealAll,
        Step::AdvanceClock { ms: 3_000 },
    ]);
    Scenario {
        seed: 1,
        fsync: oak_store::FsyncPolicy::Always,
        snapshot_every: 1_000,
        cluster: Some(ClusterSpec {
            nodes: 3,
            partitions: 1,
            replication: 3,
        }),
        steps,
    }
}

/// Votes that compare head sequence numbers alone (what
/// `buggy_promotion` degrades to here: node 0's head is the highest)
/// elect the dead branch, and its epoch-start snapshot erases the two
/// acked reports from every replica — while the seated primary's head
/// stays above every commit ever reported, so only the count of acked
/// reports per user can tell. Votes over `(branch epoch, head)` refuse
/// node 0 and keep them.
#[test]
fn a_longer_dead_branch_is_caught_by_content() {
    let scenario = longer_dead_branch();
    let failure = run_cluster_scenario(&scenario, buggy_promotion())
        .expect_err("the dead branch wins and the acked reports are gone");
    assert_eq!(failure.invariant, "acked_loss");
    assert!(
        failure.detail.contains("0 report(s) from u-2") && failure.detail.contains("acked for 2"),
        "expected the per-user report count to catch it, got: {}",
        failure.detail
    );
    run_cluster_scenario(&scenario, healthy()).expect("branch-aware votes keep the acked reports");
}

fn find_promotion_failure() -> (u64, Scenario, oak_sim::SimFailure) {
    for seed in 0..200 {
        let scenario = Scenario::generate_cluster(seed);
        if let Err(failure) = run_cluster_scenario(&scenario, buggy_promotion()) {
            return (seed, scenario, failure);
        }
    }
    panic!("no seed in 0..200 catches the buggy promotion — the oracle has lost its teeth");
}

/// The self-check the ISSUE demands: promote-without-watermark must be
/// caught by the losslessness/election oracles, and ddmin must shrink
/// the failing schedule to a smaller one that provably still fails.
#[test]
fn buggy_promotion_is_caught_and_minimized() {
    let (seed, scenario, failure) = find_promotion_failure();
    assert!(
        failure.invariant == "acked_loss" || failure.invariant == "single_primary",
        "seed {seed}: expected a replication-safety violation, got {}",
        failure.invariant
    );

    let run = |candidate: &Scenario| run_cluster_scenario(candidate, buggy_promotion()).err();
    let minimized = minimize_with(&scenario, &run).expect("failing scenario minimizes");
    assert!(
        minimized.scenario.steps.len() <= scenario.steps.len(),
        "minimization may never grow the schedule"
    );

    // The minimized scenario round-trips through JSON and still fails —
    // exactly what the CI artifact relies on.
    let replayed = Scenario::from_value(&minimized.scenario.to_value())
        .expect("minimized scenario round-trips");
    run_cluster_scenario(&replayed, buggy_promotion())
        .expect_err("minimized scenario still catches the bug");
    // And the healthy protocol survives the exact same schedule.
    run_cluster_scenario(&replayed, healthy())
        .expect("watermark-gated promotion passes the minimized schedule");
}
