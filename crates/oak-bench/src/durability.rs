//! Durability-tax harness: ingest throughput with the WAL on vs. off,
//! and recovery time as a function of log length.
//!
//! The workload is 40 Type 2 rules and reports of 40 servers, three
//! objects each. Used by the `bench_durability` binary, which records
//! `BENCH_durability.json` for CI.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oak_core::engine::{Oak, OakConfig};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::Instant;
use oak_store::{recover, FsyncPolicy, OakStore, Recovery, StoreOptions};

/// Users the ingest loop rotates through.
pub const BENCH_USERS: usize = 8;

/// Rules registered on the engine under test.
const RULE_COUNT: usize = 40;

/// Servers per synthetic report.
const SERVER_COUNT: usize = 40;

/// A report from `user` with [`SERVER_COUNT`] servers, three objects each.
fn contended_report(user: &str) -> PerfReport {
    let mut report = PerfReport::new(user, "/index.html");
    for s in 0..SERVER_COUNT {
        for o in 0..3 {
            report.push(ObjectTiming::new(
                format!("http://host{s}.example/obj{o}.js"),
                format!("10.0.{}.{}", s / 250, s % 250 + 1),
                if o == 2 {
                    120_000
                } else {
                    8_000 + (s * 131 + o * 17) as u64 % 30_000
                },
                80.0 + ((s * 37 + o * 101) % 120) as f64,
            ));
        }
    }
    report
}

/// A fresh engine with [`RULE_COUNT`] Type 2 rules.
fn build_engine() -> Oak {
    let oak = Oak::new(OakConfig::default());
    for i in 0..RULE_COUNT {
        oak.add_rule(Rule::replace_identical(
            format!("http://host{i}.example/"),
            [format!("http://alt.example/host{i}.example/")],
        ))
        .unwrap();
    }
    oak
}

/// A fresh scratch directory under the system temp root.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oak-bench-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Store options for a given fsync policy, with automatic snapshotting
/// disabled so the measurement isolates the WAL append path.
pub fn wal_only_options(fsync: FsyncPolicy) -> StoreOptions {
    StoreOptions {
        fsync,
        snapshot_every_events: u64::MAX,
        ..StoreOptions::default()
    }
}

/// Wall time to ingest `ops` contended reports, optionally journaling
/// into `store`. Every ingest emits exactly one WAL event.
pub fn ingest_duration(ops: u64, store: Option<Arc<OakStore>>) -> Duration {
    let mut oak = build_engine();
    if let Some(store) = store {
        oak.set_event_sink(store);
    }
    let reports: Vec<_> = (0..BENCH_USERS)
        .map(|u| contended_report(&format!("u-{u}")))
        .collect();
    let start = std::time::Instant::now();
    for i in 0..ops {
        let report = &reports[(i % BENCH_USERS as u64) as usize];
        oak.ingest_report(Instant(i), report, &NoFetch);
    }
    start.elapsed()
}

/// Journals `ops` ingest events into `dir` (no snapshot, so recovery
/// replays the full log).
pub fn build_wal(dir: &Path, ops: u64) {
    let store = Arc::new(
        OakStore::open(dir, wal_only_options(FsyncPolicy::Never)).expect("open bench store"),
    );
    let mut oak = build_engine();
    oak.set_event_sink(store.clone());
    let reports: Vec<_> = (0..BENCH_USERS)
        .map(|u| contended_report(&format!("u-{u}")))
        .collect();
    for i in 0..ops {
        let report = &reports[(i % BENCH_USERS as u64) as usize];
        oak.ingest_report(Instant(i), report, &NoFetch);
    }
    store.sync_all().expect("sync bench store");
}

/// Times a full recovery of `dir`.
pub fn recovery_duration(dir: &Path) -> (Duration, Recovery) {
    let start = std::time::Instant::now();
    let recovery = recover(dir, OakConfig::default()).expect("recover bench store");
    (start.elapsed(), recovery)
}

/// Sanity helper for tests: a store-backed engine round-trips the bench
/// workload.
pub fn roundtrip_check(ops: u64) -> bool {
    let dir = scratch_dir("roundtrip");
    build_wal(&dir, ops);
    let (_, recovery) = recovery_duration(&dir);
    let ok = recovery.events_replayed >= ops && recovery.torn_segments == 0;
    let _ = std::fs::remove_dir_all(&dir);
    ok
}
