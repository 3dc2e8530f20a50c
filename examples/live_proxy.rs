//! The Oak proxy on a real TCP socket.
//!
//! Starts the Oak-enabled web server on localhost, then plays the client
//! side over actual HTTP: fetch the page (receiving the identifying
//! cookie), POST a performance report, and re-fetch to see the
//! personalized rewrite and the `X-Oak-Alternate` cache hint.
//!
//! Run with: `cargo run --example live_proxy`

use oak::core::prelude::*;
use oak::edge::EdgeServer;
use oak::http::cookie::{get_cookie, OAK_USER_COOKIE};
use oak::http::{fetch_tcp, Method, Request};
use oak::server::{OakService, SiteStore, REPORT_PATH};

const PAGE: &str = r#"<html><head>
<script src="http://cdn-a.example/jquery.js"></script>
<link rel="stylesheet" href="http://styles.example/site.css">
</head><body>welcome</body></html>"#;

fn main() {
    // ── Server side ─────────────────────────────────────────────────
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(
        r#"<script src="http://cdn-a.example/jquery.js">"#,
        [r#"<script src="http://cdn-b.example/jquery.js">"#],
    ))
    .unwrap();

    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);

    // Wall-clock the engine: milliseconds since service start.
    let t0 = std::time::Instant::now();
    let service = OakService::new(oak, store)
        .with_clock(move || Instant(t0.elapsed().as_millis() as u64))
        .into_shared();

    let mut server = EdgeServer::start(0, service).unwrap();
    let addr = server.addr();
    println!("oak proxy listening on http://{addr}/index.html");

    // ── Client side, over real HTTP ─────────────────────────────────
    // 1. First fetch: default page, cookie minted.
    let resp = fetch_tcp(addr, &Request::new(Method::Get, "/index.html")).unwrap();
    let user = get_cookie(resp.header("set-cookie").unwrap(), OAK_USER_COOKIE)
        .unwrap()
        .to_owned();
    println!(
        "\nGET /index.html → {} bytes, cookie {OAK_USER_COOKIE}={user}",
        resp.body.len()
    );
    assert!(resp.body_text().contains("cdn-a.example"));

    // 2. The "browser" measures its loads; cdn-a had a terrible day.
    let mut report = PerfReport::new(&user, "/index.html");
    report.push(ObjectTiming::new(
        "http://cdn-a.example/jquery.js",
        "10.0.0.1",
        31_000,
        1_210.0,
    ));
    report.push(ObjectTiming::new(
        "http://styles.example/site.css",
        "10.0.0.2",
        12_000,
        95.0,
    ));
    report.push(ObjectTiming::new(
        "http://img.example/a.png",
        "10.0.0.3",
        20_000,
        102.0,
    ));
    report.push(ObjectTiming::new(
        "http://img.example/b.png",
        "10.0.0.3",
        22_000,
        88.0,
    ));
    report.push(ObjectTiming::new(
        "http://api.example/data.json",
        "10.0.0.4",
        9_000,
        110.0,
    ));

    let post = Request::new(Method::Post, REPORT_PATH)
        .with_body(report.to_json().into_bytes(), "application/json")
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
    let resp = fetch_tcp(addr, &post).unwrap();
    println!(
        "POST {REPORT_PATH} ({} bytes) → {}",
        report.wire_size(),
        resp.status.0
    );

    // 3. Reload: the page is personalized.
    let reload = Request::new(Method::Get, "/index.html")
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
    let resp = fetch_tcp(addr, &reload).unwrap();
    assert!(resp.body_text().contains("cdn-b.example"));
    println!(
        "GET /index.html → rewritten to cdn-b.example; {}: {}",
        OAK_ALTERNATE_HEADER,
        resp.header(OAK_ALTERNATE_HEADER).unwrap()
    );

    server.shutdown();
    println!("\ndone — proxy stopped");
}
