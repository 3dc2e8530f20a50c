//! Integration: hostile and degenerate inputs across crate boundaries.
//! The Oak server faces the public Internet; every decoding layer must
//! shrug off garbage without panicking or corrupting engine state.

use oak::core::prelude::*;
use oak::edge::EdgeServer;
use oak::http::{fetch_tcp, Method, Request, StatusCode};
use oak::server::{OakService, SiteStore, REPORT_PATH};

fn service() -> OakService {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(
        r#"<script src="http://cdn-a.example/jquery.js">"#,
        [r#"<script src="http://cdn-b.example/jquery.js">"#],
    ))
    .unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", "<html>ok</html>");
    OakService::new(oak, store)
}

#[test]
fn hostile_report_bodies_never_poison_the_engine() {
    let service = service();
    use oak::http::Handler;
    let hostile_bodies: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"{".to_vec(),
        b"null".to_vec(),
        br#"{"user":"u","page":"/","entries":[{"url":"x","ip":"i","bytes":1,"time_ms":1e999}]}"#
            .to_vec(),
        br#"{"user":"u","page":"/","entries":[{"url":"x","ip":"i","bytes":-1,"time_ms":1}]}"#
            .to_vec(),
        vec![0xff, 0xfe, 0x00, 0x80],
        br#"{"user":"u","page":"/","entries":"not-a-list"}"#.to_vec(),
        // An ip past the longest IPv6 text form would be journaled whole.
        format!(
            r#"{{"user":"u","page":"/","entries":[{{"url":"x","ip":"{}","bytes":1,"time_ms":1}}]}}"#,
            "9".repeat(64 << 10)
        )
        .into_bytes(),
        // Deep nesting: the JSON parser bounds recursion.
        {
            let mut v = br#"{"user":"u","page":"/","entries":"#.to_vec();
            v.extend(std::iter::repeat_n(b'[', 500));
            v
        },
    ];
    let events_before = service.with_oak(|oak| oak.event_seq());
    for body in hostile_bodies {
        let req = Request::new(Method::Post, REPORT_PATH).with_body(body, "application/json");
        let resp = service.handle(&req);
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
    }
    let stats = service.stats();
    assert_eq!(stats.reports_accepted, 0);
    assert_eq!(stats.reports_rejected, 9);
    assert_eq!(
        service.with_oak(|oak| oak.event_seq()),
        events_before,
        "nothing journaled"
    );
}

#[test]
fn raw_socket_garbage_does_not_kill_the_server() {
    use std::io::{Read, Write};
    let mut server = EdgeServer::start(0, service().into_shared()).unwrap();
    let addr = server.addr();

    // Assorted non-HTTP byte streams.
    for garbage in [
        b"\x00\x01\x02\x03\x04\x05\x06\x07\r\n\r\n".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        b"TRACE / HTTP/9.9\r\n\r\n".to_vec(),
        b"POST /oak/report HTTP/1.1\r\nContent-Length: 99999\r\n\r\nshort".to_vec(),
        vec![b'A'; 100_000], // oversized header block
    ] {
        if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
            let _ = stream.write_all(&garbage);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut sink = Vec::new();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(2)))
                .unwrap();
            let _ = stream.read_to_end(&mut sink);
        }
    }

    // The server still serves real requests afterwards.
    let resp = fetch_tcp(addr, &Request::new(Method::Get, "/index.html")).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    server.shutdown();
}

#[test]
fn hostile_rule_text_cannot_stall_matching() {
    // Rule text and scope patterns are operator input, but a compromised
    // rules file must not be able to hang the report path. The regex
    // engine is linear-time; matching is bounded by text size.
    use oak::core::matching::{match_rule, MatchLevel, NoFetch};

    let big_text = r#"<script>var x = "a";</script>"#.repeat(2_000);
    let domains: Vec<String> = (0..50).map(|i| format!("victim{i}.example")).collect();
    let started = std::time::Instant::now();
    let hit = match_rule(&big_text, &domains, MatchLevel::ExternalJs, &NoFetch);
    assert!(hit.is_none());
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "matching 50 domains against 58 KB of markup took {:?}",
        started.elapsed()
    );

    // Pathological scope regex: Pike VM stays linear.
    let scope = oak::pattern::Scope::parse("re:(a*)*b").unwrap();
    let long_path = "a".repeat(5_000);
    let started = std::time::Instant::now();
    assert!(!scope.applies_to(&long_path));
    assert!(started.elapsed() < std::time::Duration::from_secs(2));
}

#[test]
fn engine_survives_randomized_report_storms() {
    use oak::core::matching::NoFetch;

    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(
        "http://target.example/",
        ["http://mirror.example/target.example/"],
    ))
    .unwrap();

    // A deterministic pseudo-random storm of reports with odd shapes:
    // empty, single-server, duplicate URLs, zero-byte objects, huge times.
    let mut state = 0x12345u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..500 {
        let user = format!("u-{}", rng() % 17);
        let mut report = PerfReport::new(user, "/p");
        let entries = (rng() % 12) as usize;
        for e in 0..entries {
            report.push(ObjectTiming::new(
                format!("http://h{}.example/{e}", rng() % 9),
                format!("10.0.0.{}", rng() % 9),
                rng() % 200_000,
                (rng() % 3_000) as f64,
            ));
        }
        let _ = oak.ingest_report(Instant(i), &report, &NoFetch);
        // Pages keep rendering whatever the state.
        let page = oak.modify_page(
            Instant(i),
            "u-3",
            "/p",
            "<html>x http://target.example/a.js</html>",
        );
        assert!(page.html.contains("<html>"));
    }
}
