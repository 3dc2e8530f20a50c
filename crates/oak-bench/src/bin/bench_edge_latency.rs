//! Edge latency under concurrent keep-alive load.
//!
//! Drives N concurrent keep-alive connections of mixed traffic — report
//! POSTs to `/oak/report` and page GETs through the rewriter — against
//! the full Oak service behind `oak_edge::EdgeServer`, and records
//! client-observed per-exchange latency percentiles (p50/p95/p99) into
//! `BENCH_edge_latency.json`.
//!
//! The connections are *mostly idle* by construction: each client
//! thread round-robins its share of the pool, so at most a handful of
//! requests are in flight at once while every connection stays open —
//! the workload the reactor exists for (thousands of keep-alive clients
//! posting occasional Oak reports).
//!
//! Gate (exit nonzero on violation): report-POST p95 must stay under
//! 10 ms at the largest connection count measured (1024 full, 256
//! `--smoke`).
//!
//! Run with `cargo run --release -p oak-bench --bin bench_edge_latency`
//! (full sweep, nightly CI) or `-- --smoke` (per-push CI).

use std::sync::Arc;
use std::time::Instant;

use oak_core::engine::{Oak, OakConfig};
use oak_core::report::{ObjectTiming, PerfReport};
use oak_edge::{EdgeConfig, EdgeServer};
use oak_http::fault::ChaosClient;
use oak_http::{Method, Request, ServerLimits, TransportStats};
use oak_server::{OakService, ServiceObs, SiteStore, REPORT_PATH};

const PAGE: &str = r#"<html><head><script src="http://cdn-a.example/jquery.js"></script></head><body>bench</body></html>"#;

/// Client threads sharing the connection pool. Few on purpose: the
/// benchmark models many mostly-idle connections, not many concurrent
/// requests, so in-flight depth stays at the thread count.
const CLIENT_THREADS: usize = 4;

/// The report-POST p95 target, from the PR's SLO.
const POST_P95_TARGET_US: u64 = 10_000;

struct LatencyRow {
    connections: usize,
    post_us: Vec<u64>,
    get_us: Vec<u64>,
}

fn service() -> Arc<OakService> {
    let oak = Oak::new(OakConfig::default());
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    OakService::new(oak, store).into_shared()
}

/// A small, realistic report (Fig. 15 sizes the median real report in
/// the single-digit-KB range) for user `user`.
fn report_body(user: &str) -> Vec<u8> {
    let mut report = PerfReport::new(user, "/index.html");
    for (host, ip, ms) in [
        ("cdn-a.example", "10.0.0.1", 120.0),
        ("img.example", "10.0.0.2", 85.0),
        ("fonts.example", "10.0.0.3", 70.0),
    ] {
        report.push(ObjectTiming::new(
            format!("http://{host}/asset"),
            ip,
            30_000,
            ms,
        ));
    }
    report.to_json().into_bytes()
}

/// Exact percentile over a sorted sample set (nearest-rank).
fn pct(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

/// Measures one connection count: `rounds` visits of every connection,
/// alternating POST and GET per visit, after one unmeasured warmup
/// round.
fn run_config(connections: usize, rounds: usize) -> LatencyRow {
    let service = service();
    let obs = ServiceObs::wall(64, 500);
    let stats = Arc::new(TransportStats::default());
    let limits = ServerLimits {
        max_connections: connections + 64,
        ..ServerLimits::default()
    };
    let mut server = EdgeServer::start_with_config(
        0,
        service,
        limits,
        Arc::clone(&stats),
        Some(Arc::clone(&obs.http)),
        EdgeConfig::default(),
    )
    .unwrap_or_else(|e| panic!("server failed to start: {e}"));
    let addr = server.addr();

    let threads = CLIENT_THREADS.min(connections);
    let per_thread = connections / threads;
    let remainder = connections % threads;
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let share = per_thread + usize::from(t < remainder);
            std::thread::spawn(move || {
                let user = format!("u-bench-{t}");
                let cookie = format!("oak_uid={user}");
                let post = Request::new(Method::Post, REPORT_PATH)
                    .with_body(report_body(&user), "application/json")
                    .with_header("Cookie", &cookie);
                let get = Request::new(Method::Get, "/index.html").with_header("Cookie", &cookie);
                let mut pool = ChaosClient::new(addr)
                    .concurrent(share)
                    .unwrap_or_else(|e| panic!("opening {share} connections: {e}"));
                let mut post_us = Vec::with_capacity(share * rounds / 2 + 1);
                let mut get_us = Vec::with_capacity(share * rounds / 2 + 1);
                for round in 0..=rounds {
                    for conn in 0..share {
                        let is_post = (round + conn) % 2 == 0;
                        let request = if is_post { &post } else { &get };
                        let started = Instant::now();
                        let resp = pool
                            .exchange(conn, request)
                            .unwrap_or_else(|e| panic!("exchange on conn {conn}: {e}"));
                        let us = started.elapsed().as_micros() as u64;
                        assert!(resp.status.is_success(), "exchange got {}", resp.status.0);
                        if round == 0 {
                            continue; // warmup: pools, caches, first-touch
                        }
                        if is_post {
                            post_us.push(us);
                        } else {
                            get_us.push(us);
                        }
                    }
                }
                (post_us, get_us)
            })
        })
        .collect();

    let mut post_us = Vec::new();
    let mut get_us = Vec::new();
    for worker in workers {
        let (p, g) = worker.join().expect("client thread");
        post_us.extend(p);
        get_us.extend(g);
    }
    post_us.sort_unstable();
    get_us.sort_unstable();
    server.shutdown();
    LatencyRow {
        connections,
        post_us,
        get_us,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fd_limit = oak_edge::raise_fd_limit();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Smoke keeps per-push CI fast; the full sweep is the nightly 1k
    // proof. The last count is the gated one.
    let configs: &[usize] = if smoke { &[64, 256] } else { &[64, 1024] };
    let rounds = if smoke { 20 } else { 12 };
    let top_connections = *configs.last().expect("at least one count");

    println!(
        "Edge latency, mixed report-POST / page-GET keep-alive traffic \
({} mode, {cores} core(s), fd limit {fd_limit})\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "conns", "samples", "POST p50", "POST p95", "POST p99", "GET p50", "GET p95", "GET p99"
    );

    let mut rows = oak_json::Value::array();
    let mut post_p95_at_top = 0;
    for &connections in configs {
        let row = run_config(connections, rounds);
        let p = (
            pct(&row.post_us, 0.50),
            pct(&row.post_us, 0.95),
            pct(&row.post_us, 0.99),
        );
        let g = (
            pct(&row.get_us, 0.50),
            pct(&row.get_us, 0.95),
            pct(&row.get_us, 0.99),
        );
        println!(
            "{:>6} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            row.connections,
            row.post_us.len() + row.get_us.len(),
            p.0,
            p.1,
            p.2,
            g.0,
            g.1,
            g.2,
        );
        post_p95_at_top = p.1; // the last row is the top count
        let mut doc = oak_json::Value::object();
        doc.set("connections", row.connections);
        doc.set("samples_post", row.post_us.len());
        doc.set("samples_get", row.get_us.len());
        doc.set("post_p50_us", p.0);
        doc.set("post_p95_us", p.1);
        doc.set("post_p99_us", p.2);
        doc.set("get_p50_us", g.0);
        doc.set("get_p95_us", g.1);
        doc.set("get_p99_us", g.2);
        rows.push(doc);
    }

    // The gate: POST p95 under target at the top connection count.
    let slo_pass = post_p95_at_top < POST_P95_TARGET_US;
    println!(
        "\nPOST p95 @ {top_connections} conns: {post_p95_at_top} us \
(target < {POST_P95_TARGET_US} us) -> {}",
        if slo_pass { "pass" } else { "FAIL" }
    );

    let mut doc = oak_json::Value::object();
    doc.set("benchmark", "edge_latency");
    doc.set("mode", if smoke { "smoke" } else { "full" });
    doc.set("cores", cores);
    doc.set("fd_limit", fd_limit);
    doc.set("client_threads", CLIENT_THREADS);
    doc.set("rounds", rounds);
    doc.set("rows", rows);
    let mut gates = oak_json::Value::object();
    gates.set("post_p95_target_us", POST_P95_TARGET_US);
    gates.set("top_connections", top_connections);
    gates.set("epoll_post_p95_at_top_us", post_p95_at_top);
    gates.set("slo_pass", slo_pass);
    doc.set("gates", gates);
    std::fs::write("BENCH_edge_latency.json", doc.to_string())
        .expect("write BENCH_edge_latency.json");
    println!("\nwrote BENCH_edge_latency.json");

    if !slo_pass {
        eprintln!("edge latency gate failed");
        std::process::exit(1);
    }
}
