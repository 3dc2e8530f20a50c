//! A live replication group over loopback TCP: three `ClusterRuntime`
//! members, each behind its own `OakService` and edge, exactly as
//! `oak-serve --cluster` wires them. The lease holder acks a report
//! only once the group's watermark covers it, a follower turns the same
//! POST away with 503 + `Retry-After`, and `/oak/health` lists the one
//! partition.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oak_cluster::{PartitionStatus, Role, RETRY_AFTER_HINT_SECS};
use oak_core::engine::{Oak, OakConfig};
use oak_core::report::{ObjectTiming, PerfReport};
use oak_edge::EdgeServer;
use oak_http::cookie::OAK_USER_COOKIE;
use oak_http::{fetch_tcp, Method, Request, Response};
use oak_server::{
    ClusterRuntime, ClusterStatusSource, OakService, ServiceObs, SiteStore, METRICS_PATH,
    REPORT_PATH,
};
use oak_store::StoreOptions;

const MEMBERS: usize = 3;

struct Member {
    runtime: Arc<ClusterRuntime>,
    addr: SocketAddr,
    _edge: EdgeServer,
}

impl Member {
    fn status(&self) -> PartitionStatus {
        let mut status = self.runtime.partitions();
        assert_eq!(status.len(), 1, "one group, one status entry");
        status.remove(0)
    }
}

/// Distinct loopback addresses, all bound at once so the kernel hands
/// out distinct ports, then released for the members to bind.
fn free_peers(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

fn boot(root: &std::path::Path) -> Vec<Member> {
    let peers = free_peers(MEMBERS);
    (0..MEMBERS as u32)
        .map(|role| {
            let runtime = ClusterRuntime::start(
                role,
                peers.clone(),
                &root.join(format!("n{role}")),
                OakConfig::default(),
                StoreOptions::default(),
            )
            .unwrap();
            let service = OakService::new(Oak::new(OakConfig::default()), SiteStore::new())
                .with_durability(runtime.store().unwrap())
                .with_obs(ServiceObs::wall(16, u64::MAX))
                .into_shared();
            service.set_cluster_status(runtime.clone());
            let edge = EdgeServer::start(0, service as _).unwrap();
            Member {
                runtime,
                addr: edge.addr(),
                _edge: edge,
            }
        })
        .collect()
}

/// Polls `done` for up to ten seconds.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn post_report(addr: SocketAddr) -> Response {
    post_report_as(addr, "u-1")
}

fn post_report_as(addr: SocketAddr, user: &str) -> Response {
    let mut report = PerfReport::new(user, "/index.html");
    for (host, time_ms) in [(1, 900.0), (2, 80.0), (3, 95.0), (4, 70.0), (5, 90.0)] {
        report.push(ObjectTiming::new(
            format!("http://cdn{host}.example/lib.js"),
            format!("10.0.0.{host}"),
            30_000,
            time_ms,
        ));
    }
    let post = Request::new(Method::Post, REPORT_PATH)
        .with_body(report.to_json().into_bytes(), "application/json")
        .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
    fetch_tcp(addr, &post).unwrap()
}

/// The lease holder of a booted group, once there is exactly one.
fn elected(members: &[Member]) -> usize {
    let leaders = || {
        (0..members.len())
            .filter(|&i| members[i].status().role == Role::Primary)
            .collect::<Vec<_>>()
    };
    eventually("a lease holder is elected", || leaders().len() == 1);
    leaders()[0]
}

/// `oak_cluster_envelopes_sent_total{kind}` as `addr` scrapes it.
fn envelopes_sent(addr: SocketAddr, kind: &str) -> f64 {
    let text = fetch_tcp(addr, &Request::new(Method::Get, METRICS_PATH))
        .unwrap()
        .body_text();
    oak_obs::parse_samples(&text)
        .into_iter()
        .find(|s| {
            s.name == "oak_cluster_envelopes_sent_total"
                && s.labels == [("kind".to_owned(), kind.to_owned())]
        })
        .unwrap_or_else(|| panic!("no {kind} envelope count in\n{text}"))
        .value
}

#[test]
fn a_live_group_acks_at_the_watermark_and_followers_refuse() {
    let root = std::env::temp_dir().join(format!("oak-live-group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let members = boot(&root);

    let primary = elected(&members);
    let followers: Vec<usize> = (0..MEMBERS).filter(|&i| i != primary).collect();

    // The lease holder answers 204 only once a majority holds the report.
    let acked = post_report(members[primary].addr);
    assert_eq!(acked.status.0, 204, "{}", acked.body_text());
    let head = members[primary].runtime.live_engine().unwrap().event_seq();
    assert!(members[primary].status().commit >= head);
    let users = members[primary].runtime.live_engine().unwrap().user_count();
    assert_eq!(users, 1);
    for &f in &followers {
        eventually("a follower's commit covers the report", || {
            members[f].status().commit >= head
                && members[f].runtime.live_engine().unwrap().event_seq() >= head
        });
        let replica = members[f].runtime.live_engine().unwrap();
        assert_eq!(replica.user_count(), users, "follower n{f}");
    }

    // A follower turns the same POST away.
    let refused = post_report(members[followers[0]].addr);
    assert_eq!(refused.status.0, 503);
    assert_eq!(
        refused.header("retry-after"),
        Some(RETRY_AFTER_HINT_SECS.to_string().as_str())
    );

    // `/oak/health` lists the one partition.
    let health = fetch_tcp(
        members[primary].addr,
        &Request::new(Method::Get, "/oak/health"),
    )
    .unwrap()
    .body_text();
    let doc = oak_json::parse(&health).unwrap();
    let cluster = doc
        .get("cluster")
        .and_then(oak_json::Value::as_array)
        .unwrap();
    assert_eq!(cluster.len(), 1, "{health}");
    assert_eq!(
        cluster[0]
            .get("partition")
            .and_then(oak_json::Value::as_u64),
        Some(0)
    );
    assert_eq!(
        cluster[0].get("role").and_then(oak_json::Value::as_str),
        Some("primary")
    );

    drop(members);
    let _ = std::fs::remove_dir_all(&root);
}

/// Two reporters at once against the lease holder: a report's `Append`
/// goes at once only to the follower a majority needs, the other one is
/// sent its events a batch or a tick at a time.
#[test]
fn a_committed_report_costs_well_under_two_appends() {
    const REPORTS: usize = 200;
    let root = std::env::temp_dir().join(format!("oak-live-appends-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let members = boot(&root);
    let primary = members[elected(&members)].addr;
    assert_eq!(post_report(primary).status.0, 204, "the group commits");

    let appends = envelopes_sent(primary, "append");
    let reporters: Vec<_> = (0..2)
        .map(|client| {
            std::thread::spawn(move || {
                (0..REPORTS)
                    .filter(|i| {
                        let user = format!("u-{client}-{i}");
                        post_report_as(primary, &user).status.0 == 204
                    })
                    .count()
            })
        })
        .collect();
    let committed: usize = reporters.into_iter().map(|r| r.join().unwrap()).sum();
    let appends = envelopes_sent(primary, "append") - appends;
    assert_eq!(committed, 2 * REPORTS, "every report is acked");
    let per_report = appends / committed as f64;
    eprintln!("{appends} appends for {committed} reports: {per_report:.3} each");
    assert!(
        per_report < 1.5,
        "{per_report:.3} appends per committed report"
    );

    drop(members);
    let _ = std::fs::remove_dir_all(&root);
}
