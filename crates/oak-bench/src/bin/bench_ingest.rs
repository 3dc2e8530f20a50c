//! Report-ingest throughput: JSON vs the binary wire format.
//!
//! Measures three things over a corpus of large (~120-entry) reports,
//! where decode cost dominates admission:
//!
//! 1. **Decode throughput** — owned (`PerfReport::from_json_bytes` vs
//!    `PerfReport::from_binary`) and where the report lies in the body
//!    (`PerfReport::decode_json` vs `wire::decode`, what the server
//!    runs), in isolation (reports/s and MB/s),
//! 2. **End-to-end ingest** — `POST /oak/report` through a full
//!    [`OakService`] with both `Content-Type`s (ops/s),
//! 3. **Allocation pressure** — allocations and bytes per op for each
//!    path, via [`oak_bench::alloc`].
//!
//! Writes `BENCH_ingest.json` and exits nonzero unless each borrowed
//! decode allocates exactly once per report — the entry vector, since
//! the corpus is escape-free — the count CI enforces so neither decoder
//! can drift back to copying strings. A count, unlike a speed ratio,
//! repeats exactly from host to host.
//!
//! Run with `cargo run --release -p oak-bench --bin bench_ingest`
//! (`-- --smoke` for the quick CI mode).

use std::time::Instant as WallInstant;

use oak_core::engine::{Oak, OakConfig};
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::wire::{self, OAK_REPORT_CONTENT_TYPE};
use oak_http::cookie::OAK_USER_COOKIE;
use oak_http::{Handler, Method, Request};
use oak_server::{OakService, SiteStore, REPORT_PATH};

use oak_bench::alloc;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Distinct reports in the corpus (cycled through during timed loops so
/// one report's cache residency doesn't flatter the numbers).
const CORPUS: usize = 64;

/// Objects per report — big enough that decode dominates dispatch.
const ENTRIES_PER_REPORT: usize = 120;

struct Measured {
    ops_per_sec: f64,
    allocs_per_op: f64,
    bytes_per_op: f64,
}

/// Times `ops` calls of `op(i)` (cycling the corpus), with a full warmup
/// pass first; returns throughput and per-op allocation pressure.
fn measure(ops: u64, mut op: impl FnMut(usize)) -> Measured {
    for i in 0..ops {
        op(i as usize % CORPUS);
    }
    let alloc_start = alloc::snapshot();
    let start = WallInstant::now();
    for i in 0..ops {
        op(i as usize % CORPUS);
    }
    let elapsed = start.elapsed();
    let (allocs_per_op, bytes_per_op) = alloc::per_op(alloc_start, alloc::snapshot(), ops);
    Measured {
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        allocs_per_op,
        bytes_per_op,
    }
}

/// A large report for `user`: [`ENTRIES_PER_REPORT`] objects spread over
/// 40 servers with realistic URL lengths, one violator-grade outlier.
fn corpus_report(user: usize) -> PerfReport {
    let mut report = PerfReport::new(format!("ingest-u{user}"), "/index.html");
    for i in 0..ENTRIES_PER_REPORT {
        let server = i % 40;
        report.push(ObjectTiming::new(
            format!("http://host{server}.example/assets/v{user}/component-{i}/bundle.min.js"),
            format!("10.{}.{}.{}", user % 200, server, i % 250 + 1),
            6_000 + ((i * 131 + user * 17) as u64 % 42_000),
            if i == ENTRIES_PER_REPORT - 1 {
                900.0
            } else {
                40.0 + ((i * 37 + user * 101) % 160) as f64
            },
        ));
    }
    report
}

/// A service with a handful of Type 2 rules, like the durability
/// harness's engine, so ingest numbers compare across benchmarks.
fn build_service() -> OakService {
    let oak = Oak::new(OakConfig::default());
    for i in 0..8 {
        oak.add_rule(Rule::replace_identical(
            format!("http://host{i}.example/"),
            [format!("http://alt.example/host{i}.example/")],
        ))
        .unwrap();
    }
    let mut store = SiteStore::new();
    store.add_page("/index.html", "<html><body>bench</body></html>");
    OakService::new(oak, store)
}

fn post(service: &OakService, body: &[u8], content_type: &str, user: &str) {
    let mut req = Request::new(Method::Post, REPORT_PATH).with_body(body.to_vec(), content_type);
    req.headers
        .set("Cookie", format!("{OAK_USER_COOKIE}={user}"));
    let response = service.handle(&req);
    assert_eq!(response.status.0, 204, "ingest must succeed");
}

fn row(label: &str, m: &Measured, mb_per_sec: Option<f64>) -> oak_json::Value {
    let mut r = oak_json::Value::object();
    r.set("path", label);
    r.set("ops_per_sec", (m.ops_per_sec * 10.0).round() / 10.0);
    r.set("allocs_per_op", (m.allocs_per_op * 10.0).round() / 10.0);
    r.set("bytes_per_op", m.bytes_per_op.round());
    if let Some(mb) = mb_per_sec {
        r.set("mb_per_sec", (mb * 10.0).round() / 10.0);
    }
    println!(
        "{label:<24} {:>12.0} ops/s {:>10.1} allocs/op {:>12.0} bytes/op",
        m.ops_per_sec, m.allocs_per_op, m.bytes_per_op
    );
    r
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (decode_ops, e2e_ops) = if smoke { (512, 256) } else { (4096, 2048) };

    let reports: Vec<PerfReport> = (0..CORPUS).map(corpus_report).collect();
    let json_bodies: Vec<Vec<u8>> = reports.iter().map(|r| r.to_json().into_bytes()).collect();
    let bin_bodies: Vec<Vec<u8>> = reports.iter().map(PerfReport::to_binary).collect();
    let json_bytes: usize = json_bodies.iter().map(Vec::len).sum();
    let bin_bytes: usize = bin_bodies.iter().map(Vec::len).sum();

    println!(
        "Report ingest: {CORPUS} reports x {ENTRIES_PER_REPORT} entries \
         (json {:.1} KB/report, binary {:.1} KB/report)\n",
        json_bytes as f64 / CORPUS as f64 / 1024.0,
        bin_bytes as f64 / CORPUS as f64 / 1024.0,
    );

    let decode_json = measure(decode_ops, |i| {
        PerfReport::from_json_bytes(&json_bodies[i]).expect("corpus json decodes");
    });
    let decode_bin = measure(decode_ops, |i| {
        PerfReport::from_binary(&bin_bodies[i]).expect("corpus binary decodes");
    });
    let borrowed_json = measure(decode_ops, |i| {
        PerfReport::decode_json(&json_bodies[i]).expect("corpus json decodes");
    });
    let borrowed_bin = measure(decode_ops, |i| {
        wire::decode(&bin_bodies[i]).expect("corpus binary decodes");
    });

    let json_service = build_service();
    let e2e_json = measure(e2e_ops, |i| {
        post(
            &json_service,
            &json_bodies[i],
            "application/json",
            &reports[i].user,
        );
    });
    let bin_service = build_service();
    let e2e_bin = measure(e2e_ops, |i| {
        post(
            &bin_service,
            &bin_bodies[i],
            OAK_REPORT_CONTENT_TYPE,
            &reports[i].user,
        );
    });

    let mut rows = oak_json::Value::array();
    let avg_json_mb = json_bytes as f64 / CORPUS as f64 / 1e6;
    let avg_bin_mb = bin_bytes as f64 / CORPUS as f64 / 1e6;
    rows.push(row(
        "decode/json",
        &decode_json,
        Some(decode_json.ops_per_sec * avg_json_mb),
    ));
    rows.push(row(
        "decode/binary",
        &decode_bin,
        Some(decode_bin.ops_per_sec * avg_bin_mb),
    ));
    rows.push(row(
        "decode_borrowed/json",
        &borrowed_json,
        Some(borrowed_json.ops_per_sec * avg_json_mb),
    ));
    rows.push(row(
        "decode_borrowed/binary",
        &borrowed_bin,
        Some(borrowed_bin.ops_per_sec * avg_bin_mb),
    ));
    rows.push(row("ingest_e2e/json", &e2e_json, None));
    rows.push(row("ingest_e2e/binary", &e2e_bin, None));

    let decode_speedup = decode_bin.ops_per_sec / decode_json.ops_per_sec;
    let e2e_speedup = e2e_bin.ops_per_sec / e2e_json.ops_per_sec;
    println!("\nbinary/json decode speedup: {decode_speedup:.2}x");
    println!("binary/json e2e ingest speedup: {e2e_speedup:.2}x");

    let mut doc = oak_json::Value::object();
    doc.set("benchmark", "report_ingest_json_vs_binary");
    doc.set("smoke", if smoke { 1u64 } else { 0u64 });
    doc.set("corpus_reports", CORPUS);
    doc.set("entries_per_report", ENTRIES_PER_REPORT);
    doc.set("decode_ops", decode_ops);
    doc.set("e2e_ops", e2e_ops);
    doc.set("rows", rows);
    doc.set("decode_speedup", (decode_speedup * 100.0).round() / 100.0);
    doc.set("e2e_speedup", (e2e_speedup * 100.0).round() / 100.0);
    std::fs::write("BENCH_ingest.json", doc.to_string()).expect("write BENCH_ingest.json");
    println!("wrote BENCH_ingest.json");

    for (label, m) in [
        ("decode_borrowed/json", &borrowed_json),
        ("decode_borrowed/binary", &borrowed_bin),
    ] {
        if m.allocs_per_op != 1.0 {
            eprintln!(
                "FAIL: {label} made {:.2} allocations per report; the entry vector is the only one",
                m.allocs_per_op
            );
            std::process::exit(1);
        }
    }
}
