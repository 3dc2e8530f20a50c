//! Shared machinery for the edge-resilience benchmark
//! (`bench_resilience`): what the guard rails cost on the happy path,
//! and what they save when a dependency misbehaves.
//!
//! Three measurements:
//!
//! 1. **Guard tax**: requests/s through an [`EdgeServer`] with production
//!    [`ServerLimits`] vs. effectively-unlimited ones — the price of the
//!    connection cap, deadline re-arming, and size checks on every request.
//! 2. **Breaker savings**: report-ingest time against a hanging script
//!    host, with the circuit breaker on vs. off — the naive edge pays
//!    the fetch deadline on every report, the guarded edge only until
//!    the circuit opens.
//! 3. **Breaker recovery**: engine-clock milliseconds from a host dying
//!    to its circuit closing again, on a fake clock — fully
//!    deterministic, so the recorded number is a regression tripwire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant as WallInstant};

use oak_core::engine::{Oak, OakConfig};
use oak_core::fetch::{FetchPolicy, FetchSnapshot, FetchStep, FlakyFetcher, ResilientFetcher};
use oak_core::matching::ScriptFetcher;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::Instant;
use oak_edge::EdgeServer;
use oak_http::{fetch_tcp, Method, Request, ServerLimits};
use oak_server::{OakService, SiteStore};

const PAGE: &str = r#"<html><head><script src="http://cdn-a.example/jquery.js"></script></head><body>shop</body></html>"#;

/// The benchmark site: one page, one Type 2 rule.
fn service() -> OakService {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(
        r#"<script src="http://cdn-a.example/jquery.js">"#,
        [r#"<script src="http://cdn-b.example/jquery.js">"#],
    ))
    .expect("bench rule");
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    OakService::new(oak, store)
}

/// Limits so large nothing ever trips — the "guard off" baseline (the
/// cap and deadline machinery still runs; only the thresholds move).
pub fn permissive_limits() -> ServerLimits {
    ServerLimits {
        max_connections: 1 << 20,
        max_head_bytes: 1 << 30,
        max_body_bytes: 1 << 30,
        read_timeout: Duration::from_secs(3_600),
        write_timeout: Duration::from_secs(3_600),
        drain_timeout: Duration::from_secs(5),
        queue_deadline: Duration::ZERO,
    }
}

/// Serves `requests` page fetches over real TCP under `limits` and
/// returns the elapsed wall time.
pub fn edge_duration(limits: ServerLimits, requests: u64) -> Duration {
    let mut server =
        EdgeServer::start_with_limits(0, service().into_shared(), limits).expect("bench server");
    let addr = server.addr();
    let request = Request::new(Method::Get, "/index.html");
    let started = WallInstant::now();
    for _ in 0..requests {
        let resp = fetch_tcp(addr, &request).expect("bench fetch");
        assert!(resp.status.is_success());
    }
    let elapsed = started.elapsed();
    server.shutdown();
    elapsed
}

/// A report that makes an off-page host the violator, forcing level-3
/// matching to fetch the rule's external script.
fn level3_report(user: &str) -> PerfReport {
    let mut report = PerfReport::new(user, "/index.html");
    report.push(ObjectTiming::new(
        "http://elsewhere.example/app.js",
        "10.0.0.9",
        30_000,
        900.0,
    ));
    for (host, ms) in [("a", 80.0), ("b", 95.0), ("c", 70.0), ("d", 90.0)] {
        report.push(ObjectTiming::new(
            format!("http://{host}.example/o.png"),
            format!("10.0.1.{}", ms as u32),
            30_000,
            ms,
        ));
    }
    report
}

/// Ingests `reports` level-3 reports while every script fetch hangs for
/// `hang`, under `policy`. Returns elapsed wall time and the fetch
/// counters (the breaker-on run attempts a handful of fetches; the
/// breaker-off run attempts one per report).
pub fn flaky_ingest_duration(
    reports: u64,
    hang: Duration,
    policy: FetchPolicy,
) -> (Duration, FetchSnapshot) {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(
        r#"<script src="http://cdn-a.example/jquery.js">"#,
        [r#"<script src="http://cdn-b.example/jquery.js">"#],
    ))
    .expect("bench rule");
    let t0 = WallInstant::now();
    let fetcher = ResilientFetcher::new(FlakyFetcher::new([FetchStep::Hang(hang)]), policy)
        .with_clock(move || Instant(t0.elapsed().as_millis() as u64));
    let started = WallInstant::now();
    for i in 0..reports {
        let report = level3_report(&format!("u-{i}"));
        oak.ingest_report_from(Instant(i), &report, &fetcher, None);
    }
    (started.elapsed(), fetcher.stats())
}

/// Deterministic breaker-recovery trace on a fake clock: the host fails
/// `failures_before_heal` times (opening the circuit at
/// `policy.breaker_threshold`), then heals. The clock is advanced one
/// cooldown at a time until a probe closes the circuit.
///
/// Returns `(engine_ms_to_recovery, attempts, skips)` — all exact, every
/// run.
pub fn breaker_recovery_trace(policy: FetchPolicy, failures_before_heal: u32) -> (u64, u64, u64) {
    let clock = Arc::new(AtomicU64::new(0));
    let clock_ref = Arc::clone(&clock);
    let script: Vec<FetchStep> = (0..failures_before_heal)
        .map(|_| FetchStep::Fail)
        .chain([FetchStep::Ok("healed".into())])
        .collect();
    let fetcher = ResilientFetcher::new(FlakyFetcher::new(script), policy)
        .with_clock(move || Instant(clock_ref.load(Ordering::SeqCst)));
    let url = "http://flaky.example/lib.js";
    let host = "flaky.example";

    // Drive fetches until the circuit opens...
    while !fetcher.circuit_open(host) {
        fetcher.fetch_script(url);
    }
    let opened_at = clock.load(Ordering::SeqCst);
    // ...then advance one cooldown per probe until it closes.
    while fetcher.circuit_open(host) {
        clock.fetch_add(policy.breaker_cooldown_ms, Ordering::SeqCst);
        fetcher.fetch_script(url);
    }
    let stats = fetcher.stats();
    (
        clock.load(Ordering::SeqCst) - opened_at,
        stats.attempts,
        stats.breaker_open_skips,
    )
}
