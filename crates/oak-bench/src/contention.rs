//! Multi-threaded engine contention harness.
//!
//! Measures ingest+serve throughput with K threads driving K *disjoint*
//! users — the workload the engine's lock striping is built for (each
//! user maps to one state shard, so disjoint users only contend when
//! their FNV hashes collide on a shard). The baseline wraps the same
//! engine in one big `Mutex`, reproducing the pre-striping design where
//! every request serialized on a single lock.
//!
//! Used by the `bench_throughput` binary, which records the scaling table
//! in `BENCH_throughput.json`.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use oak_core::engine::{Oak, OakConfig};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::Instant;

/// Rules registered on the engine under test.
pub const RULE_COUNT: usize = 40;

/// Servers per synthetic report; the last object of one server is always
/// a violator-grade outlier.
pub const SERVER_COUNT: usize = 40;

/// External tags on the synthetic page being rewritten.
pub const PAGE_TAGS: usize = 40;

/// A report from `user` with [`SERVER_COUNT`] servers, three objects each.
pub fn contended_report(user: &str) -> PerfReport {
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

/// The page every worker asks the engine to rewrite.
pub fn contended_page() -> String {
    let mut page = String::from("<!DOCTYPE html><html><head><title>bench</title></head><body>\n");
    for i in 0..PAGE_TAGS {
        page.push_str(&format!(
            "<script src=\"http://host{i}.example/lib{i}.js\"></script>\n"
        ));
    }
    page.push_str("</body></html>\n");
    page
}

/// A fresh engine with [`RULE_COUNT`] Type 2 rules.
pub fn build_engine() -> Oak {
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

/// Wall time for `threads` workers to each run `ops_per_thread` calls of
/// `op(thread_index)`, from a common start barrier to the last finish.
fn timed_run(
    threads: usize,
    ops_per_thread: u64,
    op: impl Fn(usize) + Send + Sync + 'static,
) -> Duration {
    let op = Arc::new(op);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let op = Arc::clone(&op);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for _ in 0..ops_per_thread {
                    op(t);
                }
            })
        })
        .collect();
    barrier.wait();
    let start = std::time::Instant::now();
    for handle in handles {
        handle.join().expect("contention worker");
    }
    start.elapsed()
}

/// One op = ingest the thread's report, then serve the page to the same
/// user — the request pair every page view costs the server.
fn run_op(oak: &Oak, report: &PerfReport, page: &str) {
    oak.ingest_report(Instant::ZERO, report, &NoFetch);
    oak.modify_page(Instant::ZERO, &report.user, "/index.html", page);
}

/// Wall time for the striped engine: workers call it directly, relying on
/// its internal sharding.
pub fn sharded_duration(threads: usize, ops_per_thread: u64) -> Duration {
    let oak = Arc::new(build_engine());
    let reports: Vec<PerfReport> = (0..threads)
        .map(|t| contended_report(&format!("contended-u{t}")))
        .collect();
    let page = contended_page();
    timed_run(threads, ops_per_thread, move |t| {
        run_op(&oak, &reports[t], &page)
    })
}

/// Wall time for the single-mutex baseline: the same engine behind one
/// lock held for each whole call, as the service did before striping.
pub fn single_mutex_duration(threads: usize, ops_per_thread: u64) -> Duration {
    let oak = Arc::new(Mutex::new(build_engine()));
    let reports: Vec<PerfReport> = (0..threads)
        .map(|t| contended_report(&format!("contended-u{t}")))
        .collect();
    let page = contended_page();
    timed_run(threads, ops_per_thread, move |t| {
        let guard = oak.lock().expect("baseline lock");
        run_op(&guard, &reports[t], &page)
    })
}
