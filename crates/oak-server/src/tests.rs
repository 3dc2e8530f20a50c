//! Tests for the Oak HTTP service.

use std::sync::Arc;

use oak_core::engine::{Oak, OakConfig};
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::{Instant, OAK_ALTERNATE_HEADER};
use oak_edge::EdgeServer;
use oak_http::cookie::{get_cookie, OAK_USER_COOKIE};
use oak_http::{fetch_tcp, Handler, Method, Request, Response, StatusCode};

use crate::{OakService, SiteStore, REPORT_PATH};

const JQ_DEFAULT: &str = r#"<script src="http://cdn-a.example/jquery.js">"#;
const JQ_ALT: &str = r#"<script src="http://cdn-b.example/jquery.js">"#;
const PAGE: &str = r#"<html><head><script src="http://cdn-a.example/jquery.js"></script></head><body>shop</body></html>"#;

fn service_with_rule() -> OakService {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT]))
        .unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    store.add_object("/logo.png", "image/png", vec![0x89, 0x50, 0x4e, 0x47]);
    OakService::new(oak, store)
}

/// A report that makes cdn-a.example the clear violator.
fn violating_report(user: &str) -> PerfReport {
    let mut r = PerfReport::new(user, "/index.html");
    r.push(ObjectTiming::new(
        "http://cdn-a.example/jquery.js",
        "10.0.0.1",
        30_000,
        900.0,
    ));
    r.push(ObjectTiming::new(
        "http://img.example/a.png",
        "10.0.0.2",
        30_000,
        80.0,
    ));
    r.push(ObjectTiming::new(
        "http://img.example/b.png",
        "10.0.0.2",
        30_000,
        95.0,
    ));
    r.push(ObjectTiming::new(
        "http://fonts.example/f.woff",
        "10.0.0.3",
        30_000,
        70.0,
    ));
    r.push(ObjectTiming::new(
        "http://api.example/d.js",
        "10.0.0.4",
        30_000,
        90.0,
    ));
    r
}

/// Serves `req` the way the edge does: the admission hook sees the head
/// first, and only a request it admits reaches the handler.
fn serve(service: &OakService, req: &Request) -> Response {
    Handler::admit(service, req.method, &req.target).unwrap_or_else(|| service.handle(req))
}

fn get(service: &OakService, path: &str, cookie: Option<&str>) -> Response {
    let mut req = Request::new(Method::Get, path);
    if let Some(c) = cookie {
        req.headers.set("Cookie", format!("{OAK_USER_COOKIE}={c}"));
    }
    serve(service, &req)
}

fn post_report(service: &OakService, report: &PerfReport, cookie: Option<&str>) -> Response {
    let mut req = Request::new(Method::Post, REPORT_PATH)
        .with_body(report.to_json().into_bytes(), "application/json");
    if let Some(c) = cookie {
        req.headers.set("Cookie", format!("{OAK_USER_COOKIE}={c}"));
    }
    serve(service, &req)
}

#[test]
fn first_visit_mints_a_cookie() {
    let service = service_with_rule();
    let resp = get(&service, "/index.html", None);
    assert_eq!(resp.status, StatusCode::OK);
    let cookie = resp.header("set-cookie").expect("cookie set");
    let user = get_cookie(cookie, OAK_USER_COOKIE).expect("oak_uid present");
    assert!(user.starts_with("u-"));
    // A returning visitor keeps their cookie: no Set-Cookie again.
    let resp2 = get(&service, "/index.html", Some(user));
    assert!(resp2.header("set-cookie").is_none());
}

#[test]
fn report_then_page_applies_rule_for_that_user_only() {
    let service = service_with_rule();
    let resp = post_report(&service, &violating_report("u-7"), Some("u-7"));
    assert_eq!(resp.status, StatusCode::NO_CONTENT);

    let page_for_u7 = get(&service, "/index.html", Some("u-7"));
    assert!(page_for_u7.body_text().contains("cdn-b.example"));
    assert_eq!(
        page_for_u7.header(OAK_ALTERNATE_HEADER),
        Some("cdn-a.example=cdn-b.example")
    );

    let page_for_other = get(&service, "/index.html", Some("u-8"));
    assert!(page_for_other.body_text().contains("cdn-a.example"));
    assert!(page_for_other.header(OAK_ALTERNATE_HEADER).is_none());
}

#[test]
fn cookie_overrides_report_body_user() {
    let service = service_with_rule();
    // Body claims u-fake; the cookie says u-real. Cookie wins.
    post_report(&service, &violating_report("u-fake"), Some("u-real"));
    let page = get(&service, "/index.html", Some("u-real"));
    assert!(page.body_text().contains("cdn-b.example"));
    let fake = get(&service, "/index.html", Some("u-fake"));
    assert!(fake.body_text().contains("cdn-a.example"));
}

#[test]
fn malformed_reports_are_rejected() {
    let service = service_with_rule();
    let req = Request::new(Method::Post, REPORT_PATH)
        .with_body(b"{bad json".to_vec(), "application/json");
    let resp = service.handle(&req);
    assert_eq!(resp.status, StatusCode::BAD_REQUEST);
    let stats = service.stats();
    assert_eq!(stats.reports_rejected, 1);
    assert_eq!(stats.reports_accepted, 0);
}

#[test]
fn serves_static_objects_and_404s() {
    let service = service_with_rule();
    let obj = get(&service, "/logo.png", None);
    assert_eq!(obj.status, StatusCode::OK);
    assert_eq!(obj.header("content-type"), Some("image/png"));
    assert_eq!(
        get(&service, "/missing", None).status,
        StatusCode::NOT_FOUND
    );
    let put = service.handle(&Request::new(Method::Put, "/index.html"));
    assert_eq!(put.status, StatusCode(405));
}

#[test]
fn stats_count_all_traffic() {
    let service = service_with_rule();
    get(&service, "/index.html", Some("u-1"));
    get(&service, "/index.html", Some("u-1"));
    get(&service, "/logo.png", None);
    post_report(&service, &violating_report("u-1"), Some("u-1"));
    let stats = service.stats();
    assert_eq!(stats.pages_served, 2);
    assert_eq!(stats.objects_served, 1);
    assert_eq!(stats.reports_accepted, 1);
}

#[test]
fn clock_drives_ttl_expiry() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT]).with_ttl_ms(Some(60_000)))
        .unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    let now = Arc::new(AtomicU64::new(0));
    let clock_now = Arc::clone(&now);
    let service =
        OakService::new(oak, store).with_clock(move || Instant(clock_now.load(Ordering::SeqCst)));

    post_report(&service, &violating_report("u-1"), Some("u-1"));
    assert!(get(&service, "/index.html", Some("u-1"))
        .body_text()
        .contains("cdn-b.example"));

    now.store(120_000, Ordering::SeqCst);
    assert!(
        get(&service, "/index.html", Some("u-1"))
            .body_text()
            .contains("cdn-a.example"),
        "rule expired after TTL"
    );
}

#[test]
fn full_loop_over_real_tcp() {
    let service = service_with_rule().into_shared();
    let mut server = EdgeServer::start(0, service.clone()).unwrap();
    let addr = server.addr();

    // 1. First page fetch: default content + cookie.
    let resp = fetch_tcp(addr, &Request::new(Method::Get, "/index.html")).unwrap();
    let cookie_header = resp.header("set-cookie").unwrap().to_owned();
    let user = get_cookie(&cookie_header, OAK_USER_COOKIE)
        .unwrap()
        .to_owned();
    assert!(resp.body_text().contains("cdn-a.example"));

    // 2. POST a violating report with the cookie.
    let report = violating_report(&user);
    let req = Request::new(Method::Post, REPORT_PATH)
        .with_body(report.to_json().into_bytes(), "application/json")
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
    let resp = fetch_tcp(addr, &req).unwrap();
    assert_eq!(resp.status, StatusCode::NO_CONTENT);

    // 3. Reload: the page now routes around the violator.
    let req = Request::new(Method::Get, "/index.html")
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
    let resp = fetch_tcp(addr, &req).unwrap();
    assert!(resp.body_text().contains("cdn-b.example"));
    assert_eq!(
        resp.header(OAK_ALTERNATE_HEADER),
        Some("cdn-a.example=cdn-b.example")
    );
    server.shutdown();
}

#[test]
fn admin_endpoints_render_audit_and_stats() {
    let service = service_with_rule();
    get(&service, "/index.html", Some("u-1"));
    post_report(&service, &violating_report("u-1"), Some("u-1"));

    let audit = get(&service, crate::AUDIT_PATH, None);
    assert_eq!(audit.status, StatusCode::OK);
    assert!(audit.body_text().contains("oak audit"));
    assert!(audit.body_text().contains("rule0"));

    let stats = get(&service, crate::STATS_PATH, None);
    assert_eq!(stats.status, StatusCode::OK);
    let doc = oak_json::parse(&stats.body_text()).expect("stats is valid JSON");
    assert_eq!(
        doc.get("reports_accepted").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(doc.get("pages_served").and_then(|v| v.as_u64()), Some(1));
    let domains = doc.get("domains").and_then(|d| d.as_array()).unwrap();
    assert!(!domains.is_empty());
    // The violator tops the worst-domains list.
    assert_eq!(
        domains[0].get("domain").and_then(|v| v.as_str()),
        Some("cdn-a.example")
    );
    assert_eq!(
        domains[0].get("violations").and_then(|v| v.as_u64()),
        Some(1)
    );
}

#[test]
fn fileroot_loads_pages_objects_and_rules() {
    use crate::{content_type_for, load_root, load_rules};
    use oak_core::engine::OakConfig;

    let dir = std::env::temp_dir().join(format!("oak-fileroot-{}", std::process::id()));
    let sub = dir.join("shop");
    std::fs::create_dir_all(&sub).unwrap();
    std::fs::write(dir.join("index.html"), "<html>home</html>").unwrap();
    std::fs::write(sub.join("item.html"), "<html>item</html>").unwrap();
    std::fs::write(dir.join("logo.png"), [0x89, 0x50]).unwrap();
    std::fs::write(
        dir.join("site.oakrules"),
        r#"(2, "http://a.example/", "http://b.example/a.example/", 0, *)"#,
    )
    .unwrap();

    let store = load_root(&dir).unwrap();
    assert_eq!(store.page("/index.html"), Some("<html>home</html>"));
    assert_eq!(store.page("/"), Some("<html>home</html>"), "index alias");
    assert_eq!(store.page("/shop/item.html"), Some("<html>item</html>"));
    let (ct, bytes) = store.object("/logo.png").unwrap();
    assert_eq!(ct, "image/png");
    assert_eq!(bytes, [0x89, 0x50]);
    // The rules file is loaded as an object too (it is not HTML) — fine;
    // operators usually keep it outside the root.
    let oak = load_rules(&dir.join("site.oakrules"), OakConfig::default()).unwrap();
    assert_eq!(oak.rules().count(), 1);

    assert_eq!(content_type_for("a/b/app.js"), "application/javascript");
    assert_eq!(content_type_for("x.unknownext"), "application/octet-stream");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fileroot_rejects_bad_rules() {
    use crate::load_rules;
    use oak_core::engine::OakConfig;
    let dir = std::env::temp_dir().join(format!("oak-badrules-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.oakrules");
    std::fs::write(&path, "(9, \"x\", \"y\", 0, *)").unwrap();
    let err = load_rules(&path, OakConfig::default()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn subnet_scoped_rule_over_tcp_uses_peer_address() {
    use oak_core::rule::Rule;
    // A rule restricted to localhost's 127.0.0.x: the TCP peer address
    // stamped by the server admits it; a spoofed header could not.
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT]).with_client_prefix("127.0.0."))
        .unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    let service = OakService::new(oak, store).into_shared();
    let mut server = EdgeServer::start(0, service).unwrap();
    let addr = server.addr();

    let post = Request::new(Method::Post, REPORT_PATH)
        .with_body(
            violating_report("u-local").to_json().into_bytes(),
            "application/json",
        )
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}=u-local"));
    assert_eq!(fetch_tcp(addr, &post).unwrap().status.0, 204);

    let reload = Request::new(Method::Get, "/index.html")
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}=u-local"));
    let resp = fetch_tcp(addr, &reload).unwrap();
    assert!(
        resp.body_text().contains("cdn-b.example"),
        "rule for 127.0.0.* should activate when reported over loopback"
    );
    server.shutdown();
}

#[test]
fn concurrent_reports_do_not_lose_updates() {
    let service = service_with_rule().into_shared();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let user = format!("u-{i}");
                post_report(&service, &violating_report(&user), Some(&user));
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(service.stats().reports_accepted, 8);
    service.with_oak(|oak| {
        for i in 0..8 {
            assert_eq!(oak.active_rules(&format!("u-{i}")).len(), 1, "user u-{i}");
        }
    });
}

#[test]
fn pruning_sweep_evicts_idle_users_and_counts_them() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let clock = Arc::new(AtomicU64::new(0));
    let clock_ref = Arc::clone(&clock);
    let service = service_with_rule()
        .with_clock(move || Instant(clock_ref.load(Ordering::Relaxed)))
        .with_pruning(crate::PrunePolicy {
            idle_ms: 1_000,
            every_requests: 4,
        });

    // Two users report at t=0; both hold per-user state.
    assert_eq!(
        post_report(&service, &violating_report("u-old"), Some("u-old"))
            .status
            .0,
        204
    );
    assert_eq!(
        post_report(&service, &violating_report("u-new"), Some("u-new"))
            .status
            .0,
        204
    );
    service.with_oak(|oak| assert_eq!(oak.user_count(), 2));

    // u-new stays active; u-old goes idle. The 4th request lands on the
    // sweep cadence with the clock far past u-old's horizon.
    clock.store(5_000, Ordering::Relaxed);
    assert_eq!(
        post_report(&service, &violating_report("u-new"), Some("u-new"))
            .status
            .0,
        204
    );
    get(&service, "/index.html", Some("u-new"));

    assert_eq!(service.stats().users_pruned, 1, "idle u-old swept");
    service.with_oak(|oak| {
        assert_eq!(oak.user_count(), 1);
        assert!(oak.active_rules("u-old").is_empty());
        assert!(!oak.active_rules("u-new").is_empty());
    });
}

#[test]
fn log_retention_bounds_the_audit_window() {
    let oak = Oak::new(OakConfig {
        log_retention: Some(3),
        ..OakConfig::default()
    });
    oak.add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT]))
        .unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    let service = OakService::new(oak, store);

    // One user cycling activate → deactivate appends two log entries per
    // round, all in the same shard (retention is per shard — the
    // worst-case memory bound is `cap × SHARD_COUNT`).
    let alt_violating = |user: &str| {
        let mut r = violating_report(user);
        r.entries[0] =
            ObjectTiming::new("http://cdn-b.example/jquery.js", "10.0.9.9", 30_000, 900.0);
        r
    };
    for _ in 0..4 {
        post_report(&service, &violating_report("u-r"), Some("u-r"));
        post_report(&service, &alt_violating("u-r"), Some("u-r"));
    }
    service.with_oak(|oak| {
        let log = oak.log();
        assert_eq!(log.len(), 3, "retention caps the in-memory log");
    });
}

#[test]
fn oversized_reports_get_413_before_parsing() {
    let service = service_with_rule().with_admission(crate::AdmissionPolicy {
        max_report_bytes: 64,
        ..crate::AdmissionPolicy::default()
    });
    let resp = post_report(&service, &violating_report("u-big"), Some("u-big"));
    assert_eq!(resp.status, StatusCode::PAYLOAD_TOO_LARGE);
    let stats = service.stats();
    assert_eq!(stats.reports_rejected, 1);
    assert_eq!(stats.reports_accepted, 0);
}

#[test]
fn report_rate_limit_throttles_per_user_and_refills_with_the_clock() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let clock = Arc::new(AtomicU64::new(0));
    let clock_ref = Arc::clone(&clock);
    let service = service_with_rule()
        .with_clock(move || Instant(clock_ref.load(Ordering::SeqCst)))
        .with_admission(crate::AdmissionPolicy {
            report_rate: 1.0, // one sustained report per second
            report_burst: 2.0,
            ..crate::AdmissionPolicy::default()
        });

    // The burst admits two; the third is throttled.
    assert_eq!(
        post_report(&service, &violating_report("u-spam"), Some("u-spam"))
            .status
            .0,
        204
    );
    assert_eq!(
        post_report(&service, &violating_report("u-spam"), Some("u-spam"))
            .status
            .0,
        204
    );
    let throttled = post_report(&service, &violating_report("u-spam"), Some("u-spam"));
    assert_eq!(throttled.status, StatusCode::TOO_MANY_REQUESTS);

    // Buckets are per user: a different cookie still gets through.
    assert_eq!(
        post_report(&service, &violating_report("u-calm"), Some("u-calm"))
            .status
            .0,
        204
    );

    // One simulated second refills one token for the noisy user.
    clock.store(1_000, Ordering::SeqCst);
    assert_eq!(
        post_report(&service, &violating_report("u-spam"), Some("u-spam"))
            .status
            .0,
        204
    );
    assert_eq!(
        post_report(&service, &violating_report("u-spam"), Some("u-spam")).status,
        StatusCode::TOO_MANY_REQUESTS
    );

    let stats = service.stats();
    assert_eq!(stats.reports_throttled, 2);
    assert_eq!(stats.reports_accepted, 4);
    assert_eq!(stats.reports_rejected, 0, "throttled is not rejected");
}

#[test]
fn stats_view_exports_admission_transport_and_fetch_counters() {
    use oak_core::fetch::{FetchPolicy, FetchStep, FlakyFetcher, ResilientFetcher};
    use oak_http::TransportStats;

    let transport = Arc::new(TransportStats::default());
    let fetcher = ResilientFetcher::new(
        FlakyFetcher::new([FetchStep::Ok("x".into())]),
        FetchPolicy {
            deadline: None,
            ..FetchPolicy::default()
        },
    );
    let fetch_stats = fetcher.stats_handle();
    let service = service_with_rule()
        .with_admission(crate::AdmissionPolicy {
            report_rate: 1.0,
            report_burst: 1.0,
            ..crate::AdmissionPolicy::default()
        })
        .with_transport_stats(Arc::clone(&transport))
        .with_fetch_stats(fetch_stats)
        .with_fetcher(fetcher)
        .into_shared();

    let mut server = EdgeServer::start_with(
        0,
        service.clone(),
        oak_http::ServerLimits::default(),
        Arc::clone(&transport),
    )
    .unwrap();
    let addr = server.addr();

    // One accepted report, one throttled.
    let post = |user: &str| {
        Request::new(Method::Post, REPORT_PATH)
            .with_body(
                violating_report(user).to_json().into_bytes(),
                "application/json",
            )
            .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"))
    };
    assert_eq!(fetch_tcp(addr, &post("u-1")).unwrap().status.0, 204);
    assert_eq!(fetch_tcp(addr, &post("u-1")).unwrap().status.0, 429);

    let resp = fetch_tcp(addr, &Request::new(Method::Get, crate::STATS_PATH)).unwrap();
    let doc = oak_json::parse(&resp.body_text()).expect("stats is valid JSON");
    assert_eq!(
        doc.get("reports_throttled").and_then(|v| v.as_u64()),
        Some(1)
    );
    let transport_doc = doc.get("transport").expect("transport block");
    assert!(
        transport_doc
            .get("requests_served")
            .and_then(|v| v.as_u64())
            .is_some_and(|n| n >= 2),
        "transport counters track the served requests"
    );
    assert_eq!(
        transport_doc.get("panics").and_then(|v| v.as_u64()),
        Some(0)
    );
    let fetch_doc = doc.get("fetch").expect("fetch block");
    assert!(fetch_doc.get("attempts").and_then(|v| v.as_u64()).is_some());
    server.shutdown();
}

#[test]
fn durable_service_recovers_state_across_boots() {
    let dir = std::env::temp_dir().join(format!("oak-server-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = oak_store::StoreOptions {
        fsync: oak_store::FsyncPolicy::Always,
        ..oak_store::StoreOptions::default()
    };

    // First life: a rule, a violating report, an activation.
    {
        let boot = oak_store::OakStore::boot(&dir, OakConfig::default(), options).unwrap();
        boot.oak
            .add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT]))
            .unwrap();
        let mut store = SiteStore::new();
        store.add_page("/index.html", PAGE);
        let service = OakService::new(boot.oak, store).with_durability(boot.store);
        assert_eq!(
            post_report(&service, &violating_report("u-d"), Some("u-d"))
                .status
                .0,
            204
        );
        service.with_oak(|oak| assert_eq!(oak.active_rules("u-d").len(), 1));
    } // crash: everything in memory dropped

    // Second life: state is back and the page is personalized.
    let boot = oak_store::OakStore::boot(&dir, OakConfig::default(), options).unwrap();
    let mut store = SiteStore::new();
    store.add_page("/index.html", PAGE);
    let service = OakService::new(boot.oak, store).with_durability(boot.store);
    service.with_oak(|oak| {
        assert_eq!(oak.rules().count(), 1);
        assert_eq!(oak.active_rules("u-d").len(), 1);
        assert_eq!(oak.aggregates().report_count(), 1);
    });
    let resp = get(&service, "/index.html", Some("u-d"));
    assert!(
        resp.body_text().contains("cdn-b.example"),
        "recovered activation still rewrites the page"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn health_endpoint_reflects_lifecycle_states() {
    let service = service_with_rule().with_health(crate::HealthState::Booting);

    // Not serving yet: load balancers must see 503, with the state named.
    let resp = get(&service, crate::HEALTH_PATH, None);
    assert_eq!(resp.status, StatusCode::UNAVAILABLE);
    assert!(resp.body_text().contains("booting"));

    service.set_health(crate::HealthState::Recovering);
    let resp = get(&service, crate::HEALTH_PATH, None);
    assert_eq!(resp.status, StatusCode::UNAVAILABLE);
    assert!(resp.body_text().contains("recovering"));

    // Recovery done: only Serving answers 200.
    service.set_health(crate::HealthState::Serving);
    let resp = get(&service, crate::HEALTH_PATH, None);
    assert_eq!(resp.status, StatusCode::OK);
    assert!(resp.body_text().contains("serving"));
    assert_eq!(resp.header("content-type"), Some("application/json"));

    service.set_health(crate::HealthState::Draining);
    let resp = get(&service, crate::HEALTH_PATH, None);
    assert_eq!(resp.status, StatusCode::UNAVAILABLE);
    assert!(resp.body_text().contains("draining"));
}

#[test]
fn health_defaults_to_serving_and_other_routes_ignore_it() {
    let service = service_with_rule();
    assert_eq!(service.health(), crate::HealthState::Serving);
    assert_eq!(
        get(&service, crate::HEALTH_PATH, None).status,
        StatusCode::OK
    );

    // Health gates nothing but its own endpoint: a draining node still
    // finishes the traffic already routed to it.
    service.set_health(crate::HealthState::Draining);
    assert!(get(&service, "/index.html", None).status.is_success());
    assert_eq!(
        post_report(&service, &violating_report("u-h"), None)
            .status
            .0,
        204
    );
}

#[test]
fn edge_gauges_surface_only_when_attached() {
    let obs = crate::ServiceObs::wall(16, 500);
    let service = service_with_rule().with_obs(Arc::clone(&obs)).into_shared();

    // Unattached (handled in memory, or before the server starts):
    // none of the operator surfaces mention the reactor, so exposition
    // goldens see byte-identical output. The benchmark crate's
    // compatibility setter changes nothing on its own.
    service.set_edge_backend(oak_edge::Backend::Epoll);
    let doc = oak_json::parse(&get(&service, crate::STATS_PATH, None).body_text()).unwrap();
    assert!(doc.get("backend").is_none());
    assert!(doc.get("edge").is_none());
    let health = oak_json::parse(&get(&service, crate::HEALTH_PATH, None).body_text()).unwrap();
    assert!(health.get("edge").is_none());
    let metrics = get(&service, crate::METRICS_PATH, None).body_text();
    assert!(!metrics.contains("oak_edge_gauge"));

    // Attached: every surface names the backend and renders the gauges.
    let edge = Arc::new(oak_edge::EdgeStats::default());
    service.set_edge_stats(Arc::clone(&edge));

    let doc = oak_json::parse(&get(&service, crate::STATS_PATH, None).body_text()).unwrap();
    assert_eq!(doc.get("backend").and_then(|v| v.as_str()), Some("epoll"));
    let block = doc.get("edge").expect("edge block in /oak/stats");
    assert_eq!(
        block.get("connections_open").and_then(|v| v.as_u64()),
        Some(0)
    );
    assert!(block.get("loop_lag_us").is_some());
    assert!(block.get("worker_queue_depth").is_some());

    let health = oak_json::parse(&get(&service, crate::HEALTH_PATH, None).body_text()).unwrap();
    assert_eq!(
        health.get("backend").and_then(|v| v.as_str()),
        Some("epoll")
    );
    let vitals = health.get("edge").expect("edge vitals in /oak/health");
    assert!(vitals.get("loop_lag_us").is_some());
    assert!(vitals.get("ready_batch").is_some());
    assert!(vitals.get("worker_queue_depth").is_some());

    let metrics = get(&service, crate::METRICS_PATH, None).body_text();
    assert!(metrics.contains("# TYPE oak_edge_gauge gauge"));
    assert!(metrics.contains("oak_edge_gauge{gauge=\"loop_lag_us\"}"));
    assert!(metrics.contains("oak_edge_gauge{gauge=\"connections_open\"}"));
}

/// One member's fixed view of the replication group: the lease holder
/// at epoch 3, or a follower three events behind it.
struct FakeCluster {
    primary: bool,
}

impl crate::ClusterStatusSource for FakeCluster {
    fn partitions(&self) -> Vec<oak_cluster::PartitionStatus> {
        let (role, head, commit, lag) = if self.primary {
            (oak_cluster::Role::Primary, 12, 12, 0)
        } else {
            (oak_cluster::Role::Follower, 5, 8, 3)
        };
        vec![oak_cluster::PartitionStatus {
            partition: 0,
            role,
            epoch: 3,
            head,
            commit,
            lag,
        }]
    }

    fn is_primary_for(&self, _user: &str) -> bool {
        self.primary
    }
}

/// Primary for everyone, but the replication watermark never advances —
/// the majority-unreachable case the ingest ack must not paper over.
struct StalledCluster;

impl crate::ClusterStatusSource for StalledCluster {
    fn partitions(&self) -> Vec<oak_cluster::PartitionStatus> {
        Vec::new()
    }

    fn is_primary_for(&self, _user: &str) -> bool {
        true
    }

    fn wait_for_commit(&self, _user: &str, _seq: u64) -> bool {
        false
    }
}

#[test]
fn ingest_withholds_204_until_the_watermark_covers_it() {
    let service = service_with_rule().into_shared();
    service.set_cluster_status(Arc::new(StalledCluster));

    // The node holds the lease, so the report is admitted and applied —
    // but the watermark never covers it, so the 204 must not be
    // released: 503 + Retry-After and the client retries.
    let refused = post_report(&service, &violating_report("u-1"), Some("u-1"));
    assert_eq!(refused.status, StatusCode::UNAVAILABLE);
    assert!(refused.header("retry-after").is_some());
    assert_eq!(service.stats().cluster_refused, 1);
    // Applied locally regardless: the retry is at-least-once by design.
    assert_eq!(service.stats().reports_accepted, 1);
}

#[test]
fn cluster_surfaces_appear_only_when_attached_and_followers_refuse() {
    let obs = crate::ServiceObs::wall(16, 500);
    let service = service_with_rule().with_obs(Arc::clone(&obs)).into_shared();

    // Single-node: no surface mentions the cluster and nothing is
    // gated, so pre-cluster scrapers and goldens see identical bytes.
    let doc = oak_json::parse(&get(&service, crate::STATS_PATH, None).body_text()).unwrap();
    assert!(doc.get("cluster").is_none());
    let health = oak_json::parse(&get(&service, crate::HEALTH_PATH, None).body_text()).unwrap();
    assert!(health.get("cluster").is_none());
    let metrics = get(&service, crate::METRICS_PATH, None).body_text();
    assert!(!metrics.contains("oak_cluster_"));
    assert_eq!(
        post_report(&service, &violating_report("u-remote"), Some("u-remote"))
            .status
            .0,
        204,
        "without a cluster source every user is local"
    );

    service.set_cluster_status(Arc::new(FakeCluster { primary: true }));
    let follower = service_with_rule()
        .with_obs(crate::ServiceObs::wall(16, 500))
        .into_shared();
    follower.set_cluster_status(Arc::new(FakeCluster { primary: false }));

    // The lease holder: traffic flows exactly as before.
    assert_eq!(
        post_report(&service, &violating_report("u-1"), Some("u-1"))
            .status
            .0,
        204
    );
    assert!(get(&service, "/index.html", Some("u-1"))
        .status
        .is_success());

    // A follower: 503 + Retry-After for both ingest and serving.
    let refused = post_report(&follower, &violating_report("u-1"), Some("u-1"));
    assert_eq!(refused.status, StatusCode::UNAVAILABLE);
    assert_eq!(
        refused.header("retry-after"),
        Some(oak_cluster::RETRY_AFTER_HINT_SECS.to_string().as_str())
    );
    let refused_page = get(&follower, "/index.html", Some("u-1"));
    assert_eq!(refused_page.status, StatusCode::UNAVAILABLE);
    assert!(refused_page.header("retry-after").is_some());
    assert_eq!(follower.stats().cluster_refused, 2);
    assert_eq!(service.stats().cluster_refused, 0);

    // /oak/stats carries the replication picture, as partition 0.
    let row = |service: &OakService| {
        let doc = oak_json::parse(&get(service, crate::STATS_PATH, None).body_text()).unwrap();
        let cluster = doc
            .get("cluster")
            .expect("cluster block in /oak/stats")
            .clone();
        let parts = cluster.get("partitions").expect("partitions array");
        assert!(parts.at(1).is_none(), "one group, one row");
        let row = parts.at(0).expect("partition 0 row").clone();
        assert_eq!(row.get("partition").and_then(|v| v.as_u64()), Some(0));
        (cluster, row)
    };
    let (_, p0) = row(&service);
    assert_eq!(p0.get("role").and_then(|v| v.as_str()), Some("primary"));
    assert_eq!(p0.get("epoch").and_then(|v| v.as_u64()), Some(3));
    let (cluster, p0) = row(&follower);
    assert_eq!(cluster.get("refused").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(p0.get("role").and_then(|v| v.as_str()), Some("follower"));
    assert_eq!(p0.get("lag").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(p0.get("commit").and_then(|v| v.as_u64()), Some(8));

    // /oak/health carries the load-bearing subset: role and lag.
    let health = oak_json::parse(&get(&follower, crate::HEALTH_PATH, None).body_text()).unwrap();
    let rows = health.get("cluster").expect("cluster rows in /oak/health");
    assert_eq!(
        rows.at(0)
            .and_then(|r| r.get("lag"))
            .and_then(|v| v.as_u64()),
        Some(3)
    );

    // /oak/metrics grows the gauge families, well-formed for Prometheus.
    let metrics = get(&service, crate::METRICS_PATH, None).body_text();
    assert!(metrics.contains("# TYPE oak_cluster_role gauge"));
    assert!(metrics.contains("oak_cluster_role{partition=\"0\",role=\"primary\"} 1"));
    assert!(metrics.contains("# TYPE oak_cluster_replication_lag gauge"));
    assert!(metrics.contains("oak_cluster_replication_lag{partition=\"0\"} 0"));
    // ...and the replication stage histogram: one report got past the
    // gate and waited for its commit (the one before the attach never
    // did).
    assert!(metrics.contains("# TYPE oak_cluster_commit_wait_duration_us histogram"));
    assert!(metrics.contains("oak_cluster_commit_wait_duration_us_count 1"));
    let follower_metrics = get(&follower, crate::METRICS_PATH, None).body_text();
    assert!(follower_metrics.contains("oak_cluster_role{partition=\"0\",role=\"follower\"} 1"));
    assert!(follower_metrics.contains("oak_cluster_replication_lag{partition=\"0\"} 3"));
    assert!(follower_metrics.contains("oak_cluster_refused_total 2"));
}

// ---------------------------------------------------------------------------
// Overload control: brownout degradation and priority shedding.
// ---------------------------------------------------------------------------

/// A service with the jQuery rule and a driven overload controller the
/// test moves between states by feeding samples directly.
fn overloaded_service() -> (OakService, Arc<crate::OverloadController>) {
    let controller = crate::OverloadController::driven(crate::OverloadPolicy::default());
    let service = service_with_rule().with_overload(Arc::clone(&controller));
    (service, controller)
}

/// A reading of `n` targets of the default policy.
fn pressure(n: u64) -> u64 {
    n * crate::OverloadPolicy::default().target_us
}

#[test]
fn brownout_serves_pages_unrewritten_but_still_ingests() {
    let (service, controller) = overloaded_service();
    // The user's report makes cdn-a a violator; nominal serving rewrites.
    post_report(&service, &violating_report("u-7"), Some("u-7"));
    assert!(get(&service, "/index.html", Some("u-7"))
        .body_text()
        .contains("cdn-b.example"));

    // Brownout (sojourn at the target): same page, raw.
    controller.observe(pressure(1));
    assert_eq!(controller.state(), crate::OverloadState::Brownout);
    let browned = get(&service, "/index.html", Some("u-7"));
    assert_eq!(browned.status, StatusCode::OK);
    assert!(browned.body_text().contains("cdn-a.example"));
    assert!(browned.header(OAK_ALTERNATE_HEADER).is_none());
    // First contact still mints a cookie — identity survives brownout.
    assert!(get(&service, "/index.html", None)
        .header("set-cookie")
        .is_some());
    // Ingest is untouched: the 204 contract holds and state applies.
    let accepted = post_report(&service, &violating_report("u-9"), Some("u-9"));
    assert_eq!(accepted.status, StatusCode::NO_CONTENT);
    assert!(controller.snapshot().pages_browned >= 1);

    // Recovery: a calm interval steps back to Nominal and rewriting
    // resumes.
    controller.observe(pressure(0));
    assert_eq!(controller.state(), crate::OverloadState::Nominal);
    assert!(get(&service, "/index.html", Some("u-7"))
        .body_text()
        .contains("cdn-b.example"));
}

#[test]
fn shedding_refuses_by_priority_class_and_never_health() {
    let (service, controller) = overloaded_service();
    post_report(&service, &violating_report("u-7"), Some("u-7"));

    // Severity 1 (sojourn at 2× the target): pages only.
    controller.observe(pressure(2));
    let shed = get(&service, "/index.html", Some("u-7"));
    assert_eq!(shed.status, StatusCode::UNAVAILABLE);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(
        get(&service, crate::STATS_PATH, None).status,
        StatusCode::OK
    );
    assert_eq!(
        post_report(&service, &violating_report("u-7"), Some("u-7")).status,
        StatusCode::NO_CONTENT
    );

    // Severity 2 (4×): scrapes go too; reports still land.
    controller.observe(pressure(4));
    assert_eq!(
        get(&service, crate::STATS_PATH, None).status,
        StatusCode::UNAVAILABLE
    );
    assert_eq!(
        post_report(&service, &violating_report("u-7"), Some("u-7")).status,
        StatusCode::NO_CONTENT
    );

    // Severity 3 (8×): reports shed too.
    controller.observe(pressure(8));
    let refused = post_report(&service, &violating_report("u-7"), Some("u-7"));
    assert_eq!(refused.status, StatusCode::UNAVAILABLE);
    assert_eq!(refused.header("retry-after"), Some("1"));
    // Every class is refused at the admit hook, before it queues; the
    // handler itself no longer sheds.
    let pre_queue = Handler::admit(&service, Method::Get, "/index.html?x=1");
    assert_eq!(
        pre_queue.expect("admit hook sheds pages").status,
        StatusCode::UNAVAILABLE
    );
    let handled = service.handle(&Request::new(Method::Get, "/index.html"));
    assert_eq!(handled.status, StatusCode::OK);

    // Health answers 200 at every severity, and is queue-deadline exempt.
    let health = get(&service, crate::HEALTH_PATH, None);
    assert_eq!(health.status, StatusCode::OK);
    assert!(Handler::shed_exempt(&service, crate::HEALTH_PATH));
    assert!(!Handler::shed_exempt(&service, "/index.html"));
    let doc = oak_json::parse(&health.body_text()).unwrap();
    assert_eq!(doc.get("degraded").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        doc.get("overload").and_then(|v| v.as_str()),
        Some("shedding")
    );

    let snap = controller.snapshot();
    assert!(snap.shed_pages >= 1);
    assert!(snap.shed_scrapes >= 1);
    assert!(snap.shed_reports >= 1);
}

#[test]
fn a_live_controller_reads_the_edge_once_per_interval_at_admission() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let now = Arc::new(AtomicU64::new(1_000));
    let clock = Arc::clone(&now);
    let controller = crate::OverloadController::new(crate::OverloadPolicy::default());
    let service = service_with_rule()
        .with_clock(move || Instant(clock.load(Ordering::SeqCst)))
        .with_overload(Arc::clone(&controller));
    let edge = Arc::new(oak_edge::EdgeStats::default());
    service.set_edge_stats(Arc::clone(&edge));
    let admits = |target: &str| Handler::admit(&service, Method::Get, target).is_none();

    // The first admission opens the first interval (it reads calm).
    assert!(admits("/index.html"));
    // A standing 4× target sojourn is acted on only at the next
    // interval boundary, 100 ms later.
    edge.note_sojourn(4 * crate::OverloadPolicy::default().target_us);
    now.store(1_050, Ordering::SeqCst);
    assert!(admits("/index.html"));
    now.store(1_100, Ordering::SeqCst);
    assert!(!admits("/index.html"), "severity 2 sheds pages");
    assert!(!admits(crate::STATS_PATH), "and scrapes");
    assert!(admits(crate::HEALTH_PATH));
    assert!(Handler::admit(&service, Method::Post, REPORT_PATH).is_none());
    // An interval with no dequeue and an empty queue reads 0: one
    // level down.
    now.store(1_200, Ordering::SeqCst);
    assert!(admits(crate::STATS_PATH));
    assert!(!admits("/index.html"));
    assert_eq!(controller.snapshot().shed_scrapes, 1);
}

#[test]
fn overload_surfaces_in_stats_and_metrics_only_when_attached() {
    // Without a controller: no overload block, no overload families.
    let bare = service_with_rule();
    let doc = oak_json::parse(&get(&bare, crate::STATS_PATH, None).body_text()).unwrap();
    assert!(doc.get("overload").is_none());

    let (service, controller) = overloaded_service();
    controller.observe(pressure(4));
    controller.observe(pressure(0)); // calm interval; one level down
    get(&service, "/index.html", None); // one shed page
    let doc = oak_json::parse(&get(&service, crate::STATS_PATH, None).body_text()).unwrap();
    let row = doc.get("overload").expect("overload block in /oak/stats");
    assert_eq!(row.get("state").and_then(|v| v.as_str()), Some("shedding"));
    assert_eq!(row.get("severity").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(row.get("min_sojourn_us").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(row.get("target_us").and_then(|v| v.as_u64()), Some(5_000));
    assert_eq!(row.get("shed_pages").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        row.get("shedding_entries").and_then(|v| v.as_u64()),
        Some(1)
    );

    // /oak/metrics needs obs; build one with both attached.
    let obs = crate::ServiceObs::new(Arc::new(|| 0), 8, 0);
    let controller = crate::OverloadController::driven(crate::OverloadPolicy::default());
    let service = service_with_rule()
        .with_obs(Arc::clone(&obs))
        .with_overload(Arc::clone(&controller));
    controller.observe(pressure(2));
    get(&service, "/index.html", None);
    let metrics = get(&service, crate::METRICS_PATH, None).body_text();
    assert!(metrics.contains("# TYPE oak_overload_state gauge"));
    assert!(metrics.contains("oak_overload_state 2"));
    assert!(metrics.contains("# TYPE oak_requests_shed_total counter"));
    assert!(metrics.contains("oak_requests_shed_total{class=\"page\"} 1"));
    assert!(metrics.contains("oak_requests_shed_total{class=\"report\"} 0"));
    assert!(metrics.contains("# TYPE oak_pages_browned_total counter"));
    assert!(
        oak_obs::validate::validate_exposition(&metrics).is_empty(),
        "exposition stays conformant"
    );
}

#[test]
fn throttled_reports_carry_retry_after() {
    let service = service_with_rule().with_admission(crate::AdmissionPolicy {
        report_rate: 1.0,
        report_burst: 1.0,
        ..crate::AdmissionPolicy::default()
    });
    assert_eq!(
        post_report(&service, &violating_report("u-1"), Some("u-1")).status,
        StatusCode::NO_CONTENT
    );
    let throttled = post_report(&service, &violating_report("u-1"), Some("u-1"));
    assert_eq!(throttled.status, StatusCode::TOO_MANY_REQUESTS);
    assert_eq!(throttled.header("retry-after"), Some("1"));
}

// ---------------------------------------------------------------------------
// Admission token bucket: property coverage.
// ---------------------------------------------------------------------------

mod admission_props {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use proptest::prelude::*;

    use oak_core::engine::{Oak, OakConfig};
    use oak_core::Instant;

    use crate::{AdmissionPolicy, OakService, SiteStore};

    fn bucketed(rate: f64, burst: f64) -> OakService {
        OakService::new(Oak::new(OakConfig::default()), SiteStore::new()).with_admission(
            AdmissionPolicy {
                report_rate: rate,
                report_burst: burst,
                ..AdmissionPolicy::default()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bucket's one law: over any schedule of attempts it never
        /// admits more than `burst + rate · elapsed` reports, where
        /// elapsed is the clock's total forward travel.
        #[test]
        fn never_admits_more_than_burst_plus_refill(
            rate in 0.5f64..50.0,
            burst in 1.0f64..32.0,
            steps in prop::collection::vec((0u64..5_000, 1usize..8), 1..64),
        ) {
            let service = bucketed(rate, burst);
            let mut now = 0u64;
            let mut admitted = 0u64;
            for &(advance, attempts) in &steps {
                now += advance;
                for _ in 0..attempts {
                    if service.admit_report("user", Instant(now)) {
                        admitted += 1;
                    }
                }
            }
            let bound = burst.max(1.0) + rate * now as f64 / 1_000.0;
            prop_assert!(
                admitted as f64 <= bound + 1e-6,
                "admitted {admitted} over bound {bound} (rate {rate}, burst {burst})"
            );
        }

        /// A clock that jumps backwards must not mint tokens: refill is
        /// bounded by the clock's *forward* travel alone, and re-walking
        /// a span the bucket already saw cannot beat that bound.
        #[test]
        fn clock_going_backwards_never_mints_tokens(
            rate in 0.5f64..50.0,
            burst in 1.0f64..32.0,
            jumps in prop::collection::vec((0u64..10_000, any::<bool>()), 1..64),
        ) {
            let service = bucketed(rate, burst);
            let mut clock = 10_000u64;
            let mut forward = 0u64;
            let mut admitted = 0u64;
            for &(delta, backwards) in &jumps {
                if backwards {
                    clock = clock.saturating_sub(delta);
                } else {
                    clock += delta;
                    forward += delta;
                }
                if service.admit_report("user", Instant(clock)) {
                    admitted += 1;
                }
            }
            let bound = burst.max(1.0) + rate * forward as f64 / 1_000.0;
            prop_assert!(
                admitted as f64 <= bound + 1e-6,
                "admitted {admitted} over bound {bound} with backwards clock"
            );
        }

        /// Concurrent drains of one user's bucket at a frozen clock:
        /// the burst is a hard cap however the threads interleave.
        #[test]
        fn concurrent_drains_never_exceed_burst(
            burst in 1.0f64..16.0,
            threads in 2usize..6,
            attempts in 1usize..40,
        ) {
            let service = Arc::new(bucketed(10.0, burst));
            let admitted = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let service = Arc::clone(&service);
                    let admitted = Arc::clone(&admitted);
                    std::thread::spawn(move || {
                        for _ in 0..attempts {
                            if service.admit_report("shared", Instant(0)) {
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            prop_assert!(
                admitted.load(Ordering::Relaxed) as f64 <= burst,
                "{} admits exceeded the {burst} burst",
                admitted.load(Ordering::Relaxed)
            );
        }

        /// Rate 0 disables the limiter entirely — every attempt admits.
        #[test]
        fn zero_rate_admits_everything(attempts in 1usize..200) {
            let service = bucketed(0.0, 1.0);
            for i in 0..attempts {
                prop_assert!(service.admit_report("user", Instant(i as u64)));
            }
        }
    }
}
