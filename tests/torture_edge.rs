//! Torture: the hardened edge under deterministic abuse.
//!
//! A live server fronting the full Oak service is driven through the
//! `oak::http::fault` chaos clients — slowloris dribbles (single- and
//! multi-connection), oversized heads and bodies, mid-body disconnects,
//! permit hogs, panicking handlers, report floods. After every abuse
//! pattern the suite asserts the three invariants of a resilient edge:
//! the right status code came back, no permit leaked
//! (`active_connections` returns to zero), and a plain request still
//! succeeds — for every guard status (400/408/413/429/431/500/503) and
//! every recovery path.

use std::sync::Arc;
use std::time::Duration;

use oak::core::prelude::*;
use oak::edge::EdgeServer;
use oak::http::fault::ChaosClient;
use oak::http::{
    fetch_tcp, Handler, Method, Request, Response, ServerLimits, StatusCode, TransportStats,
};
use oak::server::{AdmissionPolicy, OakService, SiteStore, REPORT_PATH};

const PAGE: &str = r#"<html><head><script src="http://cdn-a.example/jquery.js"></script></head><body>shop</body></html>"#;

fn service() -> OakService {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(
        r#"<script src="http://cdn-a.example/jquery.js">"#,
        [r#"<script src="http://cdn-b.example/jquery.js">"#],
    ))
    .unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    OakService::new(oak, store)
}

/// Tight limits so every abuse pattern trips within test time.
fn tight_limits() -> ServerLimits {
    ServerLimits {
        max_connections: 4,
        max_head_bytes: 2_048,
        max_body_bytes: 8_192,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(2),
        drain_timeout: Duration::from_secs(2),
        queue_deadline: Duration::ZERO,
    }
}

/// Starts `handler` with shared stats.
fn start(
    handler: Arc<dyn Handler>,
    limits: ServerLimits,
    stats: Arc<TransportStats>,
) -> EdgeServer {
    EdgeServer::start_with(0, handler, limits, stats)
        .unwrap_or_else(|e| panic!("server failed to start: {e}"))
}

/// The normal-service probe: a plain page fetch must succeed.
fn assert_still_serving(addr: std::net::SocketAddr, context: &str) {
    let resp = fetch_tcp(addr, &Request::new(Method::Get, "/index.html"))
        .unwrap_or_else(|e| panic!("service dead after {context}: {e}"));
    assert_eq!(resp.status, StatusCode::OK, "after {context}");
    assert!(
        resp.body_text().contains("cdn-a.example"),
        "after {context}"
    );
}

/// Spin-waits (bounded) for permits to drain back to zero.
fn assert_permits_recover(server: &EdgeServer, context: &str) {
    for _ in 0..100 {
        if server.active_connections() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!(
        "{} connection permit(s) still held after {context}",
        server.active_connections()
    );
}

#[test]
fn edge_survives_the_full_abuse_gauntlet_over_epoll() {
    let stats = Arc::new(TransportStats::default());
    let mut server = start(service().into_shared(), tight_limits(), Arc::clone(&stats));
    let addr = server.addr();
    let chaos = ChaosClient::new(addr);

    // 1. Slowloris: one byte per 100 ms against a 300 ms read budget.
    let verdict = chaos
        .dribble(
            b"GET /index.html HTTP/1.1\r\nHost: oak\r\n\r\n",
            1,
            Duration::from_millis(100),
        )
        .expect("slowloris gets an answer");
    assert_eq!(verdict.status, StatusCode::REQUEST_TIMEOUT);
    assert_permits_recover(&server, "slowloris");
    assert_still_serving(addr, "slowloris");

    // 2. Oversized head: 16 KiB of padding against a 2 KiB limit.
    let verdict = chaos
        .oversized_head(16_384)
        .expect("oversized head answered");
    assert_eq!(verdict.status, StatusCode::HEADERS_TOO_LARGE);
    assert_permits_recover(&server, "oversized head");
    assert_still_serving(addr, "oversized head");

    // 3. Oversized body: declared before a byte is sent — rejected up
    // front, no buffering.
    let verdict = chaos
        .oversized_body(REPORT_PATH, 1 << 20)
        .expect("oversized body answered");
    assert_eq!(verdict.status, StatusCode::PAYLOAD_TOO_LARGE);
    assert_permits_recover(&server, "oversized body");
    assert_still_serving(addr, "oversized body");

    // 4. Mid-body disconnects: declared 4 KiB, sent 100 bytes, hung up.
    // Fire-and-forget: the clients never read a verdict, so wait until
    // the accept loop has actually absorbed all four zombies before
    // probing — otherwise the probe can be admitted alongside them and
    // draw a spurious 503 off the still-held permits.
    let accepted_before = stats.snapshot().connections_accepted;
    for _ in 0..4 {
        chaos
            .disconnect_mid_body(REPORT_PATH, 4_096, 100)
            .expect("disconnect client connects");
    }
    for _ in 0..100 {
        if stats.snapshot().connections_accepted >= accepted_before + 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_permits_recover(&server, "mid-body disconnects");
    assert_still_serving(addr, "mid-body disconnects");

    // 5. Malformed framing: garbage Content-Length values get 400.
    for head in [
        "POST /oak/report HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        "POST /oak/report HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        "POST /oak/report HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello6",
    ] {
        let verdict = chaos
            .send_raw(head.as_bytes())
            .expect("bad framing answered");
        assert_eq!(verdict.status, StatusCode::BAD_REQUEST, "head: {head:?}");
    }
    assert_permits_recover(&server, "malformed framing");
    assert_still_serving(addr, "malformed framing");

    // 6. Permit exhaustion: hog every permit, watch 503s, release, and
    // watch service come back.
    let hogs: Vec<_> = (0..4).filter_map(|_| chaos.hold_open().ok()).collect();
    assert_eq!(hogs.len(), 4, "hogs grabbed every permit");
    // Give the accept loop a beat to hand out all permits.
    std::thread::sleep(Duration::from_millis(50));
    let verdict = chaos
        .send_raw(b"GET /index.html HTTP/1.1\r\n\r\n")
        .expect("over-capacity connection answered");
    assert_eq!(verdict.status, StatusCode::UNAVAILABLE);
    drop(hogs);
    assert_permits_recover(&server, "permit exhaustion");
    assert_still_serving(addr, "permit exhaustion");

    let snapshot = stats.snapshot();
    assert!(snapshot.timeouts >= 1, "slowloris counted: {snapshot:?}");
    assert!(snapshot.heads_too_large >= 1, "431 counted: {snapshot:?}");
    assert!(snapshot.bodies_too_large >= 1, "413 counted: {snapshot:?}");
    assert!(snapshot.bad_requests >= 3, "400s counted: {snapshot:?}");
    assert!(
        snapshot.connections_rejected >= 1,
        "503 counted: {snapshot:?}"
    );
    assert_eq!(snapshot.panics, 0, "no handler panics in this gauntlet");

    server.shutdown();
}

/// Multi-connection slowloris: eight connections dribbling in lockstep.
/// Each must be answered 408 *independently* — a reactor that serialized
/// deadline handling behind a stalled read would fail several of them —
/// and every permit must come back.
#[test]
fn concurrent_slowloris_each_answered_independently_over_epoll() {
    let limits = ServerLimits {
        max_connections: 16,
        ..tight_limits()
    };
    let stats = Arc::new(TransportStats::default());
    let mut server = start(service().into_shared(), limits, Arc::clone(&stats));
    let chaos = ChaosClient::new(server.addr());

    let mut pool = chaos.concurrent(8).expect("8 connections open");
    let verdicts = pool.dribble_all(
        b"GET /index.html HTTP/1.1\r\nX-Slow: crawl",
        2,
        Duration::from_millis(60),
    );
    assert_eq!(verdicts.len(), 8);
    for (i, verdict) in verdicts.into_iter().enumerate() {
        let resp = verdict.unwrap_or_else(|e| panic!("connection {i} got no verdict: {e}"));
        assert_eq!(
            resp.status,
            StatusCode::REQUEST_TIMEOUT,
            "connection {i} must time out independently"
        );
    }
    assert!(stats.snapshot().timeouts >= 8);
    drop(pool);
    assert_permits_recover(&server, "concurrent slowloris");
    assert_still_serving(server.addr(), "concurrent slowloris");
    server.shutdown();
}

/// A handler that panics on demand, proving panic isolation end to end
/// over a real socket.
struct Grenade;

impl Handler for Grenade {
    fn handle(&self, request: &Request) -> Response {
        if request.path() == "/boom" {
            panic!("pulled the pin");
        }
        Response::html("<html>calm</html>".to_owned())
    }
}

#[test]
fn handler_panics_become_500s_and_service_continues_over_epoll() {
    // Silence the default panic backtrace spew for the intentional panics.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let stats = Arc::new(TransportStats::default());
    let mut server = start(Arc::new(Grenade), tight_limits(), Arc::clone(&stats));
    let addr = server.addr();

    for _ in 0..3 {
        let resp = fetch_tcp(addr, &Request::new(Method::Get, "/boom")).unwrap();
        assert_eq!(resp.status, StatusCode::INTERNAL_ERROR);
    }
    let resp = fetch_tcp(addr, &Request::new(Method::Get, "/calm")).unwrap();
    assert_eq!(resp.status, StatusCode::OK);

    assert_eq!(stats.snapshot().panics, 3);
    assert_permits_recover(&server, "handler panics");
    server.shutdown();

    std::panic::set_hook(default_hook);
}

#[test]
fn report_floods_are_throttled_with_429_and_recover_over_epoll() {
    let service = service()
        .with_admission(AdmissionPolicy {
            report_rate: 1.0,
            report_burst: 3.0,
            ..AdmissionPolicy::default()
        })
        .into_shared();
    let stats = Arc::new(TransportStats::default());
    let mut server = start(service.clone(), tight_limits(), stats);
    let addr = server.addr();

    let mut report = PerfReport::new("u-flood", "/index.html");
    report.push(ObjectTiming::new(
        "http://cdn-a.example/jquery.js",
        "10.0.0.1",
        30_000,
        900.0,
    ));
    let post = Request::new(Method::Post, REPORT_PATH)
        .with_body(report.to_json().into_bytes(), "application/json")
        .with_header("Cookie", "oak_uid=u-flood");

    let verdicts: Vec<u16> = (0..10)
        .map(|_| fetch_tcp(addr, &post).unwrap().status.0)
        .collect();
    let accepted = verdicts.iter().filter(|&&s| s == 204).count();
    let throttled = verdicts.iter().filter(|&&s| s == 429).count();
    assert_eq!(accepted, 3, "the burst admits exactly 3: {verdicts:?}");
    assert_eq!(throttled, 7, "the rest get 429: {verdicts:?}");
    assert_eq!(service.stats().reports_throttled, 7);

    // Non-report traffic is untouched by the report limiter.
    assert_still_serving(addr, "report flood");
    server.shutdown();
}

#[test]
fn hanging_script_host_cannot_stall_report_ingest() {
    use oak::core::fetch::{FetchPolicy, FetchStep, FlakyFetcher, ResilientFetcher};

    // Every external-script fetch hangs for 30 s; the resilient fetcher
    // caps each attempt at 100 ms.
    let fetcher = ResilientFetcher::new(
        FlakyFetcher::new([FetchStep::Hang(Duration::from_secs(30))]),
        FetchPolicy {
            deadline: Some(Duration::from_millis(100)),
            retries: 0,
            ..FetchPolicy::default()
        },
    );
    let fetch_stats = fetcher.stats_handle();
    let service = service().with_fetcher(fetcher).into_shared();
    let mut server = EdgeServer::start_with_limits(0, service, tight_limits()).unwrap();
    let addr = server.addr();

    // A report whose violator only matches at level 3 forces a fetch.
    let mut report = PerfReport::new("u-hang", "/index.html");
    report.push(ObjectTiming::new(
        "http://elsewhere.example/app.js",
        "10.0.0.9",
        30_000,
        900.0,
    ));
    for (host, ms) in [("a", 80.0), ("b", 95.0), ("c", 70.0), ("d", 90.0)] {
        report.push(ObjectTiming::new(
            format!("http://{host}.example/o.png"),
            format!("10.0.1.{ms}"),
            30_000,
            ms,
        ));
    }
    let post = Request::new(Method::Post, REPORT_PATH)
        .with_body(report.to_json().into_bytes(), "application/json")
        .with_header("Cookie", "oak_uid=u-hang");

    let started = std::time::Instant::now();
    let resp = fetch_tcp(addr, &post).unwrap();
    assert_eq!(resp.status.0, 204);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "ingest took {:?} against a hanging host",
        started.elapsed()
    );
    assert!(fetch_stats.snapshot().timeouts >= 1);
    server.shutdown();
}

/// Every turn-away on the shed and throttle paths — the admission 429,
/// the overload controller's 503s (pre-body report shed at the admit
/// hook, page and scrape sheds at dispatch), and the permit-exhaustion
/// 503 — has its wire form pinned byte for byte, `Retry-After` included,
/// so a polite client knows when to come back.
#[test]
fn shed_and_throttle_responses_match_their_pinned_bytes() {
    use oak::server::{OverloadController, OverloadPolicy, PressureSample};
    use std::io::{Read, Write};

    /// What every 503 turn-away starts with (both bodies are 24 bytes).
    const SHED_HEAD: &str = "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
         Content-Length: 24\r\nRetry-After: 1\r\n";

    /// One raw request on a fresh connection; returns every byte the
    /// server sent back (bounded by the read timeout on keep-alive).
    fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> String {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let mut stream = stream;
        stream.write_all(request).expect("send request");
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8(out).expect("turn-aways are ASCII")
    }

    let controller = OverloadController::driven(OverloadPolicy::default());
    let service = service()
        .with_admission(AdmissionPolicy {
            report_rate: 1.0,
            report_burst: 1.0,
            ..AdmissionPolicy::default()
        })
        .with_overload(Arc::clone(&controller))
        .into_shared();
    let stats = Arc::new(TransportStats::default());
    let mut server = start(service, tight_limits(), stats);
    let addr = server.addr();

    let body = r#"{"user":"u-parity","page":"/index.html","entries":[]}"#;
    let post = format!(
        "POST /oak/report HTTP/1.1\r\nCookie: oak_uid=u-parity\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    // Throttle: the burst of one is spent, the next report gets 429.
    let first = raw_exchange(addr, post.as_bytes());
    assert!(
        first.starts_with("HTTP/1.1 204"),
        "burst admits the first report: {first}"
    );
    assert_eq!(
        raw_exchange(addr, post.as_bytes()),
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain\r\nContent-Length: 26\r\n\
         Retry-After: 1\r\n\r\nreport rate limit exceeded"
    );

    // Severity 3: everything but health sheds.
    controller.observe(
        &PressureSample {
            queue_depth: 128,
            ..PressureSample::default()
        },
        0,
    );
    // Shed at the admit hook, before the body: the connection closes.
    assert_eq!(
        raw_exchange(addr, post.as_bytes()),
        format!("{SHED_HEAD}Connection: close\r\n\r\noverloaded; request shed")
    );
    // Shed at dispatch: keep-alive survives.
    assert_eq!(
        raw_exchange(addr, b"GET /index.html HTTP/1.1\r\n\r\n"),
        format!("{SHED_HEAD}\r\noverloaded; request shed")
    );
    assert_eq!(
        raw_exchange(addr, b"GET /oak/stats HTTP/1.1\r\n\r\n"),
        format!("{SHED_HEAD}\r\noverloaded; request shed")
    );
    let health = raw_exchange(addr, b"GET /oak/health HTTP/1.1\r\n\r\n");
    assert!(
        health.starts_with("HTTP/1.1 200"),
        "health is never shed: {health}"
    );

    // Permit exhaustion: hog every permit, capture the 503.
    let chaos = ChaosClient::new(addr);
    let hogs: Vec<_> = (0..4).filter_map(|_| chaos.hold_open().ok()).collect();
    assert_eq!(hogs.len(), 4, "hogs grabbed every permit");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        raw_exchange(addr, b"GET /index.html HTTP/1.1\r\n\r\n"),
        format!("{SHED_HEAD}Connection: close\r\n\r\nconnection limit reached")
    );
    drop(hogs);

    server.shutdown();
}
