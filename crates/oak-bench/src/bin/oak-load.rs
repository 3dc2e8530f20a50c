//! `oak-load` — the million-user soak harness behind the overload
//! controller's acceptance numbers.
//!
//! Drives the full Oak service (engine + rewriter + ingest + overload
//! controller, fronted by the epoll edge) over real TCP with an
//! **open-loop** arrival process: each client thread fires requests on
//! an absolute schedule derived from the target rate, never waiting for
//! the previous response before the next arrival is due — so offered
//! load keeps arriving when the server falls behind, exactly the
//! regime closed-loop benchmarks can't produce. The workload is the
//! paper's shape at hostile scale:
//!
//! - a pool of four million distinct synthetic users (cookie
//!   identities drawn per arrival from a seeded stateless RNG), with
//!   server-side pruning keeping per-user state bounded;
//! - zipf-distributed page popularity over the site (a few hot pages,
//!   a long cold tail), mixed with report POSTs and operator scrapes;
//! - arrival rate modulated by an `oak-net` diurnal demand curve, one
//!   simulated day compressed into each phase;
//! - (soak mode) ChaosClient fault injection woven through the load:
//!   slowloris dribbles, mid-body disconnects, oversized heads.
//!
//! The run calibrates the node's capacity closed-loop, then holds
//! open-loop phases at 1×, (full mode) 1.5×, and 2× that capacity,
//! recording per-class goodput, client-observed latency percentiles,
//! `/oak/health` probe latency, peak RSS, and the server's own
//! shed/brownout counters into `BENCH_soak.json`.
//!
//! Gates (exit nonzero on violation) — graceful degradation, not
//! collapse:
//! - report goodput at 2× capacity ≥ 70% of the 1× capacity point;
//! - `/oak/health` p99 < 100 ms in every phase, zero failed probes;
//! - bounded memory: peak RSS at 2× ≤ 2× the 1× peak + 128 MiB;
//! - zero client-thread panics;
//! - no connection-reset storm: unexplained transport errors < 5% of
//!   attempts in every phase.
//!
//! Two bolt-on stress sections ride along:
//!
//! - `--store` boots the service durable (WAL + snapshots in a scratch
//!   directory) so every ingested report is journaled *while* the node
//!   is overloaded, then gates that the WAL backlog stayed bounded
//!   (snapshot compaction kept up: events since the last snapshot ≤ 2×
//!   the snapshot cadence) and that no write errors occurred;
//! - a registry-cardinality stress drives 10⁶ distinct user label
//!   values at one metric family and gates that the series table stays
//!   at `MAX_SERIES_PER_FAMILY + 1` (the overflow series absorbs the
//!   tail), that a full exposition scrape stays fast, and that RSS
//!   growth is bounded — the regression test for unbounded label
//!   cardinality in `oak-obs`.
//!
//! Run with `cargo run --release -p oak-bench --bin oak-load` (full
//! ≥10-minute soak with faults, nightly CI) or `-- --smoke` (≥30 s,
//! 1× + 2× phases, per-push CI). `--seconds <n>` scales phase length.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oak_core::engine::{Oak, OakConfig};
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_edge::{EdgeConfig, EdgeServer};
use oak_http::fault::ChaosClient;
use oak_http::{Method, Request, ServerLimits, TransportStats};
use oak_net::{Quality, Region, Server as NetServer, ServerId, SimTime, StatelessRng};
use oak_server::{
    OakService, OverloadController, OverloadPolicy, PrunePolicy, ServiceObs, SiteStore,
    HEALTH_PATH, REPORT_PATH, STATS_PATH,
};
use oak_store::{FsyncPolicy, OakStore, StoreOptions};

/// Distinct synthetic user identities the arrival process draws from.
const USER_POOL: u64 = 4_000_000;

/// Pages on the simulated site; popularity is zipf over this set.
const PAGES: usize = 32;

/// Zipf exponent for page popularity (1.1 ≈ web page popularity).
const ZIPF_S: f64 = 1.1;

/// Client threads per phase. More than the edge worker pool on
/// purpose: offered concurrency must be able to exceed service
/// concurrency or no queue ever builds.
const PHASE_THREADS: usize = 24;

/// Client threads during closed-loop capacity calibration — enough to
/// saturate the single edge worker without measuring client contention.
const CAL_THREADS: usize = 8;

/// Edge handler workers. One, deliberately: the capacity ceiling must
/// be low enough for a laptop-sized host to push the node past it.
const EDGE_WORKERS: usize = 1;

/// Queue deadline for the epoll worker queue (CoDel-at-dequeue).
const QUEUE_DEADLINE: Duration = Duration::from_millis(100);

/// Health probe cadence and SLO.
const HEALTH_PROBE_EVERY: Duration = Duration::from_millis(20);
const HEALTH_P99_TARGET_US: u64 = 100_000;

/// Reset-storm gate: unexplained transport errors per attempt.
const RESET_STORM_FRACTION: f64 = 0.05;

/// Report-goodput retention gate at 2× capacity.
const GOODPUT_RETENTION: f64 = 0.70;

/// Memory gate: 2× phase peak RSS budget over the 1× peak.
const RSS_SLACK_KB: u64 = 128 * 1024;

/// Fault-injection probability per arrival (soak mode).
const FAULT_CHANCE: f64 = 0.003;

/// The one script tag every page carries and the one rule rewrites, so
/// Brownout's rewrite bypass is load-bearing, not cosmetic.
const HOT_TAG: &str = r#"<script src="http://cdn-a.example/lib.js">"#;

fn site() -> SiteStore {
    let mut store = SiteStore::new();
    let filler = "<p>lorem oakum dolor sit amet</p>".repeat(96);
    for page in 0..PAGES {
        let mut html = String::with_capacity(8 * 1024);
        html.push_str("<html><head>");
        html.push_str(&format!("{HOT_TAG}</script>"));
        for host in 0..8 {
            html.push_str(&format!(
                r#"<script src="http://cdn-{host}.example/p{page}.js"></script>"#
            ));
        }
        html.push_str("</head><body>");
        html.push_str(&filler);
        html.push_str("</body></html>");
        store.add_page(format!("/p/{page}"), html);
    }
    store
}

/// The harness's overload thresholds, scaled to its own concurrency:
/// with `PHASE_THREADS` blocking clients and one edge worker, the
/// worker queue tops out around `PHASE_THREADS - 1`, so Brownout and
/// Shedding both sit well inside the reachable range.
fn overload_policy() -> OverloadPolicy {
    OverloadPolicy {
        sample_every_ms: 50,
        queue_brownout: 6,
        queue_shed: 18,
        cooldown_samples: 3,
        max_connections: 512,
        ..OverloadPolicy::default()
    }
}

/// Snapshot cadence for `--store` runs: small enough that even the
/// smoke run compacts a few times (so the backlog and cadence gates
/// bite), large enough that the engine-quiescing snapshot pause — a
/// few hundred ms on the single edge worker — stays rare relative to
/// the 50 Hz health probe stream it would otherwise dominate.
const STORE_SNAPSHOT_EVERY: u64 = 20_000;

#[allow(clippy::type_complexity)]
fn start_server(
    store_dir: Option<&std::path::Path>,
) -> (
    EdgeServer,
    Arc<OakService>,
    std::net::SocketAddr,
    Option<Arc<OakStore>>,
) {
    // With --store, recover-then-serve exactly like oak-serve does: the
    // booted engine has the store attached as its event sink, so every
    // ingest under load is journaled.
    let (oak, durable) = match store_dir {
        Some(dir) => {
            let options = StoreOptions {
                snapshot_every_events: STORE_SNAPSHOT_EVERY,
                // This harness gates WAL backlog and snapshot cadence
                // under overload, not power-loss durability; explicit
                // fsyncs on the single edge worker would stall every
                // in-flight request (health probes included) and turn
                // the health gate into an fsync benchmark.
                fsync: FsyncPolicy::Never,
                ..StoreOptions::default()
            };
            let boot = OakStore::boot(dir, OakConfig::default(), options)
                .expect("scratch store boots clean");
            (boot.oak, Some(boot.store))
        }
        None => (Oak::new(OakConfig::default()), None),
    };
    oak.add_rule(Rule::replace_identical(
        HOT_TAG,
        [
            r#"<script src="http://m1.example/lib.js">"#.to_owned(),
            r#"<script src="http://m2.example/lib.js">"#.to_owned(),
        ],
    ))
    .expect("harness rule is valid");
    let t0 = Instant::now();
    let obs = ServiceObs::wall(64, 0);
    let transport = Arc::new(TransportStats::default());
    let mut service = OakService::new(oak, site())
        .with_clock(move || oak_core::Instant(t0.elapsed().as_millis() as u64))
        .with_transport_stats(Arc::clone(&transport))
        .with_obs(Arc::clone(&obs))
        // Pruning keeps four million potential identities from
        // accreting unbounded per-user state — the memory gate proves
        // it works.
        .with_pruning(PrunePolicy {
            idle_ms: 5_000,
            every_requests: 2_048,
        })
        .with_overload(OverloadController::new(overload_policy()));
    if let Some(store) = &durable {
        service = service.with_durability(Arc::clone(store));
    }
    let service = service.into_shared();
    let limits = ServerLimits {
        max_connections: 512,
        queue_deadline: QUEUE_DEADLINE,
        ..ServerLimits::default()
    };
    let server = EdgeServer::start_with_config(
        0,
        service.clone(),
        limits,
        transport,
        Some(Arc::clone(&obs.http)),
        EdgeConfig {
            workers: EDGE_WORKERS,
        },
    )
    .expect("edge server failed to start");
    service.set_edge_stats(server.edge_stats());
    let addr = server.addr();
    (server, service, addr, durable)
}

/// Registry-cardinality stress: a million distinct user label values at
/// one family. Before the per-family cap this grew the registry — and
/// every scrape — without bound; with it, the series table plateaus at
/// the cap plus the shared overflow series and the aggregate count
/// still adds up.
fn registry_cardinality_stress() -> (oak_json::Value, bool) {
    const USERS: u64 = 1_000_000;
    let registry = oak_obs::Registry::new();
    let rss_before_kb = rss_kb();
    let started = Instant::now();
    for i in 0..USERS {
        let user = format!("u-{i}");
        registry
            .counter(
                "oak_load_user_requests_total",
                "per-user request counter (cardinality stress)",
                &[("user", &user)],
            )
            .inc();
    }
    let register_secs = started.elapsed().as_secs_f64();

    let scrape_started = Instant::now();
    let families = registry.families();
    let exposition = oak_obs::encode(families.clone());
    let scrape_us = scrape_started.elapsed().as_micros() as u64;
    let rss_after_kb = rss_kb();

    let family = families
        .iter()
        .find(|f| f.name == "oak_load_user_requests_total")
        .expect("stress family registered");
    let total: f64 = family
        .series
        .iter()
        .map(|s| match s.value {
            oak_obs::SeriesValue::Scalar(v) => v,
            _ => 0.0,
        })
        .sum();

    let series_cap = oak_obs::MAX_SERIES_PER_FAMILY + 1;
    let series_pass = family.series.len() <= series_cap;
    // Every increment must land somewhere: cap ≠ data loss.
    let count_pass = total as u64 == USERS;
    // A scrape of a capped family is an operator-path operation; it must
    // stay interactive even after a cardinality attack.
    let scrape_pass = scrape_us < 250_000;
    // RSS is process-global and the soak runs in the same process, so
    // this is a coarse bound — the real ceiling is the series cap above.
    let rss_delta_kb = rss_after_kb.saturating_sub(rss_before_kb);
    let rss_pass = rss_delta_kb < 64 * 1024;
    let pass = series_pass && count_pass && scrape_pass && rss_pass;

    println!(
        "registry stress: {USERS} users -> {} series (cap {series_cap}) in {register_secs:.2}s, \
scrape {scrape_us} us / {} bytes, rss +{} MiB -> {}",
        family.series.len(),
        exposition.len(),
        rss_delta_kb / 1024,
        if pass { "pass" } else { "FAIL" }
    );

    let mut doc = oak_json::Value::object();
    doc.set("users", USERS);
    doc.set("series", family.series.len() as u64);
    doc.set("series_cap", series_cap as u64);
    doc.set("register_secs", register_secs);
    doc.set("scrape_us", scrape_us);
    doc.set("exposition_bytes", exposition.len() as u64);
    doc.set("rss_delta_kb", rss_delta_kb);
    doc.set("total_count", total);
    doc.set("series_pass", series_pass);
    doc.set("count_pass", count_pass);
    doc.set("scrape_pass", scrape_pass);
    doc.set("rss_pass", rss_pass);
    doc.set("pass", pass);
    (doc, pass)
}

/// Inverse-CDF zipf over `PAGES` ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new() -> Zipf {
        let weights: Vec<f64> = (1..=PAGES).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(PAGES);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        Zipf { cdf }
    }

    fn draw(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(PAGES - 1)
    }
}

fn report_body(user: &str, page: usize, rng: &mut StatelessRng) -> Vec<u8> {
    let mut report = PerfReport::new(user, format!("/p/{page}"));
    for host in 0..8u64 {
        report.push(ObjectTiming::new(
            format!("http://cdn-{host}.example/p{page}.js"),
            format!("10.0.{host}.1"),
            30_000,
            rng.uniform(40.0, 400.0),
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

/// Current VmRSS in KiB, from /proc/self/status (0 where unavailable).
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[derive(Default)]
struct PhaseTally {
    attempted: u64,
    pages_ok: u64,
    reports_ok: u64,
    scrapes_ok: u64,
    shed_503: u64,
    other_status: u64,
    resets: u64,
    faults: u64,
    page_us: Vec<u64>,
    report_us: Vec<u64>,
    shed_us: Vec<u64>,
}

impl PhaseTally {
    fn absorb(&mut self, other: PhaseTally) {
        self.attempted += other.attempted;
        self.pages_ok += other.pages_ok;
        self.reports_ok += other.reports_ok;
        self.scrapes_ok += other.scrapes_ok;
        self.shed_503 += other.shed_503;
        self.other_status += other.other_status;
        self.resets += other.resets;
        self.faults += other.faults;
        self.page_us.extend(other.page_us);
        self.report_us.extend(other.report_us);
        self.shed_us.extend(other.shed_us);
    }
}

struct PhaseResult {
    mult: f64,
    secs: f64,
    tally: PhaseTally,
    health_us: Vec<u64>,
    health_failures: u64,
    rss_peak_kb: u64,
    panics: u64,
}

/// One client thread's open-loop arrival loop.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    phase: usize,
    thread: usize,
    thread_rate: f64,
    duration: Duration,
    diurnal: NetServer,
    faults: bool,
) -> PhaseTally {
    let mut tally = PhaseTally::default();
    let zipf = Zipf::new();
    let client = ChaosClient::new(addr).with_read_timeout(Duration::from_secs(5));
    let mut pool = client.concurrent(1).ok();
    // Mean of the demand curve is 0.5, so normalizing by
    // 1 + amplitude/2 keeps the phase's average rate on target while
    // the instantaneous rate walks the day.
    let diurnal_norm = 1.0 + diurnal.diurnal_amplitude * 0.5;
    let t0 = Instant::now();
    let mut due = Duration::ZERO;
    let mut n = 0u64;
    while t0.elapsed() < duration {
        // Open loop: sleep only when ahead of schedule; behind schedule
        // means the backlog fires back-to-back.
        let now = t0.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        let progress = due.as_secs_f64() / duration.as_secs_f64();
        let day = SimTime::from_millis((progress * 86_400_000.0) as u64);
        let load = diurnal.diurnal_load(day) / diurnal_norm;
        due += Duration::from_secs_f64(1.0 / (thread_rate * load).max(0.001));

        let mut rng = StatelessRng::keyed(seed, &[phase as u64, thread as u64, n]);
        n += 1;
        tally.attempted += 1;

        if faults && rng.chance(FAULT_CHANCE) {
            tally.faults += 1;
            match rng.below(3) {
                0 => {
                    let _ = client.dribble(
                        b"POST /oak/report HTTP/1.1\r\nContent-Length: 64\r\n\r\n",
                        8,
                        Duration::from_millis(20),
                    );
                }
                1 => {
                    let _ = client.disconnect_mid_body(REPORT_PATH, 4_096, 512);
                }
                _ => {
                    let _ = client.oversized_head(80 * 1024);
                }
            }
            continue;
        }

        let user = format!("u-{}", rng.below(USER_POOL));
        let cookie = format!("oak_uid={user}");
        let kind = rng.next_f64();
        let page = zipf.draw(rng.next_f64());
        let request = if kind < 0.55 {
            Request::new(Method::Get, format!("/p/{page}")).with_header("Cookie", &cookie)
        } else if kind < 0.95 {
            let mut body_rng = StatelessRng::keyed(seed ^ 0xb0d7, &[thread as u64, n]);
            Request::new(Method::Post, REPORT_PATH)
                .with_body(report_body(&user, page, &mut body_rng), "application/json")
                .with_header("Cookie", &cookie)
        } else {
            Request::new(Method::Get, STATS_PATH).with_header("Cookie", &cookie)
        };

        let Some(conns) = pool.as_mut() else {
            pool = client.concurrent(1).ok();
            tally.resets += 1;
            continue;
        };
        let started = Instant::now();
        match conns.exchange(0, &request) {
            Ok(response) => {
                let us = started.elapsed().as_micros() as u64;
                match (response.status.0, request.method) {
                    (200, Method::Get) if request.path().starts_with("/p/") => {
                        tally.pages_ok += 1;
                        tally.page_us.push(us);
                    }
                    (200, Method::Get) => tally.scrapes_ok += 1,
                    (204, Method::Post) => {
                        tally.reports_ok += 1;
                        tally.report_us.push(us);
                    }
                    (503, _) => {
                        tally.shed_503 += 1;
                        tally.shed_us.push(us);
                    }
                    _ => tally.other_status += 1,
                }
                // An announced close (admit-shed POSTs, over-capacity
                // 503s) is protocol, not damage: reconnect quietly.
                if response
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    pool = client.concurrent(1).ok();
                }
            }
            Err(_) => {
                tally.resets += 1;
                pool = client.concurrent(1).ok();
            }
        }
    }
    tally
}

/// Closed-loop capacity calibration: hammer the node with a small
/// thread pool for `secs`, report completed requests per second.
fn calibrate(addr: std::net::SocketAddr, seed: u64, secs: u64) -> f64 {
    let duration = Duration::from_secs(secs);
    let done = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..CAL_THREADS)
        .map(|t| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let zipf = Zipf::new();
                let client = ChaosClient::new(addr).with_read_timeout(Duration::from_secs(5));
                let mut pool = client.concurrent(1).ok();
                let t0 = Instant::now();
                let mut n = 0u64;
                while t0.elapsed() < duration {
                    let mut rng = StatelessRng::keyed(seed ^ 0xca1b, &[t as u64, n]);
                    n += 1;
                    let user = format!("u-{}", rng.below(USER_POOL));
                    let cookie = format!("oak_uid={user}");
                    let page = zipf.draw(rng.next_f64());
                    let request = if rng.chance(0.45) {
                        let mut body_rng = StatelessRng::keyed(seed ^ 0xca1c, &[t as u64, n]);
                        Request::new(Method::Post, REPORT_PATH)
                            .with_body(report_body(&user, page, &mut body_rng), "application/json")
                            .with_header("Cookie", &cookie)
                    } else {
                        Request::new(Method::Get, format!("/p/{page}"))
                            .with_header("Cookie", &cookie)
                    };
                    let Some(conns) = pool.as_mut() else {
                        pool = client.concurrent(1).ok();
                        continue;
                    };
                    match conns.exchange(0, &request) {
                        Ok(response) => {
                            if response.status.is_success() {
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            if response
                                .header("connection")
                                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                            {
                                pool = client.concurrent(1).ok();
                            }
                        }
                        Err(_) => pool = client.concurrent(1).ok(),
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        let _ = worker.join();
    }
    done.load(Ordering::Relaxed) as f64 / secs as f64
}

/// Runs one open-loop phase at `mult` × `capacity_rps` for `secs`.
fn run_phase(
    addr: std::net::SocketAddr,
    seed: u64,
    phase: usize,
    mult: f64,
    capacity_rps: f64,
    secs: u64,
    faults: bool,
) -> PhaseResult {
    let duration = Duration::from_secs(secs);
    let thread_rate = mult * capacity_rps / PHASE_THREADS as f64;
    // The demand curve of an under-provisioned third-party box — the
    // population whose diurnal swing drives the paper's Fig. 11.
    let diurnal = NetServer {
        id: ServerId(0),
        hostname: "load.example".into(),
        ip: oak_net::IpAddr(0x0a09_0909),
        region: Region::NorthAmerica,
        quality: Quality::Mediocre,
        processing_ms: 24.0,
        bandwidth_kbps: 40_000.0,
        diurnal_amplitude: 0.30,
        distributed: false,
        affinity_neutral: false,
    };

    let stop = Arc::new(AtomicBool::new(false));

    // Health prober: fixed cadence on its own connection; the gate is
    // that a load balancer can always tell this node is alive, fast.
    let prober = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = ChaosClient::new(addr).with_read_timeout(Duration::from_secs(2));
            let mut pool = client.concurrent(1).ok();
            let probe = Request::new(Method::Get, HEALTH_PATH);
            let mut latencies = Vec::new();
            let mut failures = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let Some(conns) = pool.as_mut() else {
                    pool = client.concurrent(1).ok();
                    failures += 1;
                    std::thread::sleep(HEALTH_PROBE_EVERY);
                    continue;
                };
                let started = Instant::now();
                match conns.exchange(0, &probe) {
                    Ok(response) if response.status.0 == 200 => {
                        latencies.push(started.elapsed().as_micros() as u64);
                    }
                    Ok(_) => failures += 1,
                    Err(_) => {
                        failures += 1;
                        pool = client.concurrent(1).ok();
                    }
                }
                std::thread::sleep(HEALTH_PROBE_EVERY);
            }
            (latencies, failures)
        })
    };

    // RSS monitor: the memory-ceiling gate's witness.
    let rss_monitor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0u64;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(rss_kb());
                std::thread::sleep(Duration::from_millis(250));
            }
            peak
        })
    };

    let workers: Vec<_> = (0..PHASE_THREADS)
        .map(|t| {
            let diurnal = diurnal.clone();
            std::thread::spawn(move || {
                client_loop(addr, seed, phase, t, thread_rate, duration, diurnal, faults)
            })
        })
        .collect();

    let mut tally = PhaseTally::default();
    let mut panics = 0u64;
    for worker in workers {
        match worker.join() {
            Ok(t) => tally.absorb(t),
            Err(_) => panics += 1,
        }
    }
    stop.store(true, Ordering::Relaxed);
    let (mut health_us, health_failures) = prober.join().unwrap_or((Vec::new(), u64::MAX));
    let rss_peak_kb = rss_monitor.join().unwrap_or(0);

    tally.page_us.sort_unstable();
    tally.report_us.sort_unstable();
    tally.shed_us.sort_unstable();
    health_us.sort_unstable();
    PhaseResult {
        mult,
        secs: secs as f64,
        tally,
        health_us,
        health_failures,
        rss_peak_kb,
        panics,
    }
}

/// Scrapes `/oak/stats` (fresh connection) and returns the JSON doc.
fn scrape_stats(addr: std::net::SocketAddr) -> Option<oak_json::Value> {
    let client = ChaosClient::new(addr).with_read_timeout(Duration::from_secs(2));
    let mut pool = client.concurrent(1).ok()?;
    let response = pool
        .exchange(0, &Request::new(Method::Get, STATS_PATH))
        .ok()?;
    if response.status.0 != 200 {
        return None;
    }
    oak_json::parse(&response.body_text()).ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let faults = !smoke || args.iter().any(|a| a == "--faults");
    let with_store = args.iter().any(|a| a == "--store");
    let seconds = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok());
    let seed = 0x0a_0a_50_4bu64;
    oak_edge::raise_fd_limit();

    // Phase plan: smoke is the ≥30 s per-push gate (1× + 2×); full is
    // the ≥10-minute nightly soak with the 1.5× shoulder and faults.
    let (cal_secs, plan): (u64, Vec<(f64, u64)>) = if smoke {
        let unit = seconds.unwrap_or(12);
        (3, vec![(1.0, unit), (2.0, unit + unit / 4 + 2)])
    } else {
        let unit = seconds.unwrap_or(150);
        (8, vec![(1.0, unit), (1.5, unit), (2.0, unit * 2)])
    };

    let store_dir = with_store.then(|| {
        let dir = std::env::temp_dir().join(format!("oak-load-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let (mut server, _service, addr, durable) = start_server(store_dir.as_deref());
    println!(
        "oak-load: {} mode on {addr} ({} client threads over {} edge worker(s), \
user pool {USER_POOL}, {PAGES} zipf pages, faults {}, store {})",
        if smoke { "smoke" } else { "soak" },
        PHASE_THREADS,
        EDGE_WORKERS,
        if faults { "on" } else { "off" },
        if with_store { "on" } else { "off" },
    );

    let capacity_rps = calibrate(addr, seed, cal_secs);
    println!("calibrated capacity: {capacity_rps:.0} req/s (closed loop, {CAL_THREADS} threads)\n");
    println!(
        "{:>5} {:>5} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "mult",
        "secs",
        "attempts",
        "pages",
        "reports",
        "shed",
        "resets",
        "faults",
        "rep p99us",
        "hlth p99us",
        "shed p50us",
        "rss MiB",
        "panics"
    );

    let mut results = Vec::new();
    let mut stats_after = Vec::new();
    for (index, &(mult, secs)) in plan.iter().enumerate() {
        let result = run_phase(addr, seed, index, mult, capacity_rps, secs, faults);
        // Let the controller cool down and the queue drain, then read
        // the server's own story of the phase.
        std::thread::sleep(Duration::from_secs(2));
        stats_after.push(scrape_stats(addr));
        println!(
            "{:>5.1} {:>5.0} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9} {:>8}",
            result.mult,
            result.secs,
            result.tally.attempted,
            result.tally.pages_ok,
            result.tally.reports_ok,
            result.tally.shed_503,
            result.tally.resets,
            result.tally.faults,
            pct(&result.tally.report_us, 0.99),
            pct(&result.health_us, 0.99),
            // How long a to-be-shed request waited: rejections must be
            // cheap, or shedding doesn't relieve anything.
            pct(&result.tally.shed_us, 0.50),
            result.rss_peak_kb / 1024,
            result.panics,
        );
        results.push(result);
    }

    // Read the store's counters before shutdown, while the journal is
    // still the engine's live sink.
    let store_section = durable.as_ref().map(|store| {
        let recorded = store.events_recorded();
        let since_snapshot = store.events_since_snapshot();
        let write_errors = store.write_errors();
        // Compaction kept up: the un-snapshotted tail never grew past
        // twice the cadence (one interval in flight, one accruing).
        let backlog_pass = since_snapshot <= 2 * STORE_SNAPSHOT_EVERY;
        // Cadence proof: enough events flowed to require at least one
        // post-boot snapshot, and the tail shows one happened.
        let cadence_pass = recorded < STORE_SNAPSHOT_EVERY || since_snapshot < recorded;
        let pass = backlog_pass && cadence_pass && write_errors == 0;
        println!(
            "store: {recorded} events journaled, {since_snapshot} since last snapshot \
(cadence {STORE_SNAPSHOT_EVERY}), {write_errors} write errors -> {}",
            if pass { "pass" } else { "FAIL" }
        );
        let mut doc = oak_json::Value::object();
        doc.set("events_recorded", recorded);
        doc.set("events_since_snapshot", since_snapshot);
        doc.set("snapshot_every_events", STORE_SNAPSHOT_EVERY);
        doc.set("write_errors", write_errors);
        doc.set("backlog_pass", backlog_pass);
        doc.set("cadence_pass", cadence_pass);
        doc.set("pass", pass);
        (doc, pass)
    });

    server.shutdown();
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let (registry_doc, registry_pass) = registry_cardinality_stress();

    // --- Gates ---
    let goodput = |r: &PhaseResult| r.tally.reports_ok as f64 / r.secs;
    let at = |m: f64| results.iter().find(|r| (r.mult - m).abs() < 1e-9);
    let base = at(1.0).expect("1x phase always runs");
    let peak2 = at(2.0).expect("2x phase always runs");
    let base_goodput = goodput(base);
    let peak_goodput = goodput(peak2);
    let goodput_pass = peak_goodput >= GOODPUT_RETENTION * base_goodput;

    let health_p99: Vec<u64> = results.iter().map(|r| pct(&r.health_us, 0.99)).collect();
    let health_pass = results
        .iter()
        .zip(&health_p99)
        .all(|(r, &p99)| p99 < HEALTH_P99_TARGET_US && r.health_failures == 0);

    let rss_pass = peak2.rss_peak_kb <= base.rss_peak_kb.saturating_mul(2) + RSS_SLACK_KB;
    let panic_total: u64 = results.iter().map(|r| r.panics).sum();
    let reset_pass = results.iter().all(|r| {
        r.tally.attempted == 0
            || (r.tally.resets as f64 / r.tally.attempted as f64) < RESET_STORM_FRACTION
    });

    println!(
        "\nreport goodput: {base_goodput:.0}/s at 1x -> {peak_goodput:.0}/s at 2x \
(floor {:.0}%) -> {}",
        GOODPUT_RETENTION * 100.0,
        if goodput_pass { "pass" } else { "FAIL" }
    );
    println!(
        "health p99 by phase: {health_p99:?} us (target < {HEALTH_P99_TARGET_US}) -> {}",
        if health_pass { "pass" } else { "FAIL" }
    );
    println!(
        "rss peak: {} MiB at 1x -> {} MiB at 2x (budget 2x + 128 MiB) -> {}",
        base.rss_peak_kb / 1024,
        peak2.rss_peak_kb / 1024,
        if rss_pass { "pass" } else { "FAIL" }
    );
    println!(
        "panics: {panic_total} -> {}",
        if panic_total == 0 { "pass" } else { "FAIL" }
    );
    println!(
        "reset storm: worst {:.2}% (budget {:.0}%) -> {}",
        results
            .iter()
            .map(|r| {
                if r.tally.attempted == 0 {
                    0.0
                } else {
                    100.0 * r.tally.resets as f64 / r.tally.attempted as f64
                }
            })
            .fold(0.0f64, f64::max),
        RESET_STORM_FRACTION * 100.0,
        if reset_pass { "pass" } else { "FAIL" }
    );

    // --- BENCH_soak.json ---
    let mut phases = oak_json::Value::array();
    for (result, stats) in results.iter().zip(&stats_after) {
        let mut doc = oak_json::Value::object();
        doc.set("mult", result.mult);
        doc.set("secs", result.secs);
        doc.set("attempted", result.tally.attempted);
        doc.set("pages_ok", result.tally.pages_ok);
        doc.set("reports_ok", result.tally.reports_ok);
        doc.set("scrapes_ok", result.tally.scrapes_ok);
        doc.set("shed_503", result.tally.shed_503);
        doc.set("other_status", result.tally.other_status);
        doc.set("resets", result.tally.resets);
        doc.set("faults_injected", result.tally.faults);
        doc.set("report_goodput_rps", goodput(result));
        doc.set("page_p50_us", pct(&result.tally.page_us, 0.50));
        doc.set("page_p99_us", pct(&result.tally.page_us, 0.99));
        doc.set("report_p50_us", pct(&result.tally.report_us, 0.50));
        doc.set("report_p99_us", pct(&result.tally.report_us, 0.99));
        doc.set("shed_p50_us", pct(&result.tally.shed_us, 0.50));
        doc.set("health_p99_us", pct(&result.health_us, 0.99));
        doc.set("health_failures", result.health_failures);
        doc.set("rss_peak_kb", result.rss_peak_kb);
        doc.set("panics", result.panics);
        if let Some(overload) = stats.as_ref().and_then(|s| s.get("overload")) {
            doc.set("server_overload", overload.clone());
        }
        phases.push(doc);
    }
    let mut doc = oak_json::Value::object();
    doc.set("benchmark", "soak");
    doc.set("mode", if smoke { "smoke" } else { "soak" });
    doc.set("seed", seed);
    doc.set("faults", faults);
    doc.set("user_pool", USER_POOL);
    doc.set("pages", PAGES);
    doc.set("zipf_s", ZIPF_S);
    doc.set("client_threads", PHASE_THREADS);
    doc.set("edge_workers", EDGE_WORKERS);
    doc.set("capacity_rps", capacity_rps);
    doc.set("phases", phases);
    let mut gates = oak_json::Value::object();
    gates.set("goodput_retention_floor", GOODPUT_RETENTION);
    gates.set("report_goodput_1x_rps", base_goodput);
    gates.set("report_goodput_2x_rps", peak_goodput);
    gates.set("goodput_pass", goodput_pass);
    gates.set("health_p99_target_us", HEALTH_P99_TARGET_US);
    gates.set("health_pass", health_pass);
    gates.set("rss_pass", rss_pass);
    gates.set("panics", panic_total);
    gates.set("reset_pass", reset_pass);
    let store_pass = match &store_section {
        Some((store_doc, pass)) => {
            doc.set("store", store_doc.clone());
            gates.set("store_pass", *pass);
            *pass
        }
        None => true,
    };
    doc.set("registry_stress", registry_doc);
    gates.set("registry_stress_pass", registry_pass);
    doc.set("gates", gates);
    std::fs::write("BENCH_soak.json", doc.to_string()).expect("write BENCH_soak.json");
    println!("\nwrote BENCH_soak.json");

    if !(goodput_pass
        && health_pass
        && rss_pass
        && panic_total == 0
        && reset_pass
        && store_pass
        && registry_pass)
    {
        eprintln!("soak gate failed");
        std::process::exit(1);
    }
}
