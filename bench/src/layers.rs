//! Layer replay: the workload's first requests pushed, on one thread,
//! through each layer's public function on a twin engine built from the
//! same seed. Gives per-call medians and exact allocation counts without a
//! single span inside the product.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use oak_cluster::{ClusterNode, Envelope, NodeId, NodeOptions, Role, Topology};
use oak_core::analysis::PageAnalysis;
use oak_core::detect::detect_violators;
use oak_core::engine::{Oak, OakConfig};
use oak_core::matching::{match_rule, MatchLevel, NoFetch};
use oak_core::report::PerfReport;
use oak_html::Rewriter;
use oak_http::{Handler, Method, Request, Response};
use oak_server::{OakService, ServiceObs, SiteStore, METRICS_PATH};
use oak_store::{OakStore, RealFs, StorageBackend, StoreOptions};

use crate::alloc;
use crate::catalog::Metric;
use crate::gen::{Inputs, Kind, STREAM_PREFIX, USERS};
use crate::stack::{add_rules, ingest_all_users};
use crate::trace::{median_us, Stat};
use crate::Workload;

/// Nanosecond samples of one layer call.
#[derive(Default)]
struct Samples(Vec<u64>);

impl Samples {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(start.elapsed().as_nanos() as u64);
        out
    }

    fn median_us(&mut self) -> Stat {
        median_us(&mut self.0)
    }
}

/// Counts per call, reported as their median.
#[derive(Default)]
struct Counts(Vec<u64>);

impl Counts {
    fn median(&mut self) -> Stat {
        self.0.sort_unstable();
        Stat {
            value: self.0.get(self.0.len() / 2).map_or(0.0, |&v| v as f64),
            count: self.0.len(),
        }
    }
}

/// Runs `f` with this thread's allocations counted; returns
/// `(result, allocations, bytes)`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = alloc::counts();
    alloc::set_counting(true);
    let out = f();
    alloc::set_counting(false);
    let (a1, b1) = alloc::counts();
    (out, a1 - a0, b1 - b0)
}

/// Replays the first [`STREAM_PREFIX`] requests of `workload` through the
/// layers they touch. Metrics of layers the workload never reaches come
/// back with zero samples.
pub fn replay(workload: Workload, inputs: &Inputs) -> Vec<Metric> {
    let twin = Oak::new(OakConfig::default());
    add_rules(&twin, inputs);
    ingest_all_users(&twin, inputs);
    let activations = twin.log().len();
    let config = OakConfig::default();
    let now = oak_core::Instant::ZERO;

    let mut parse_get = Samples::default();
    let mut parse_report = Samples::default();
    let mut serialize_page = Samples::default();
    let mut decode_json = Samples::default();
    let mut decode_bin = Samples::default();
    let mut decode_json_allocs = Counts::default();
    let mut decode_bin_allocs = Counts::default();
    let mut analysis_t = Samples::default();
    let mut detect_t = Samples::default();
    let mut match_t = Samples::default();
    let mut ingest_t = Samples::default();
    let mut ingest_allocs = Counts::default();
    let mut ingest_bytes = Counts::default();
    let mut modify_active = Samples::default();
    let mut modify_noop = Samples::default();
    let mut modify_allocs = Counts::default();
    let mut rewrite_t = Samples::default();
    let mut edits = Counts::default();
    let mut scope_t = Samples::default();
    let mut reports = 0usize;

    let mut wire = Vec::with_capacity(16 * 1024);
    for g in 0..STREAM_PREFIX {
        let req = inputs.request(workload, g % 2, g / 2);
        wire.clear();
        inputs.write_request(req, None, &mut wire);
        let page = inputs.page_of(req.user);
        let user = format!("u-{}", req.user);
        match req.kind {
            Kind::Scrape => {}
            Kind::Page => {
                black_box(
                    parse_get
                        .time(|| Request::parse(&wire))
                        .expect("generated GET parses"),
                );
                let started = Instant::now();
                let (modified, allocs, _) =
                    counted(|| twin.modify_page_cow(now, &user, &page.path, &page.html));
                let took = started.elapsed().as_nanos() as u64;
                if modified.applied.is_empty() {
                    modify_noop.0.push(took);
                } else {
                    modify_active.0.push(took);
                    modify_allocs.0.push(allocs);
                    let (_, domain) = page.slow.as_ref().expect("only degraded users rewrite");
                    let (from, to) = (format!("http://{domain}/"), format!("http://m1.{domain}/"));
                    let n = rewrite_t.time(|| {
                        let mut rewriter = Rewriter::new(&page.html);
                        let n = rewriter.replace_all(&from, &to);
                        black_box(rewriter.apply_cow());
                        n
                    });
                    edits.0.push(n as u64);
                }
                let applies = scope_t.time(|| {
                    inputs
                        .rules
                        .iter()
                        .filter(|r| r.scope.applies_to(&page.path))
                        .count()
                });
                // Per rule, not per page.
                if let Some(last) = scope_t.0.last_mut() {
                    *last /= applies.max(1) as u64;
                }
                let mut response = Response::html(modified.html.as_bytes().to_vec());
                if let Some((name, value)) = modified.alternate_header_entry() {
                    response.headers.set(name, value);
                }
                black_box(serialize_page.time(|| response.to_bytes()));
            }
            Kind::ReportJson | Kind::ReportBinary => {
                reports += 1;
                let request = parse_report
                    .time(|| Request::parse(&wire))
                    .expect("generated POST parses");
                let started = Instant::now();
                let (report, allocs, _) = counted(|| {
                    if req.kind == Kind::ReportBinary {
                        PerfReport::from_binary(&request.body)
                    } else {
                        PerfReport::from_json_bytes(&request.body)
                    }
                });
                let took = started.elapsed().as_nanos() as u64;
                let report = report.expect("generated reports decode");
                if req.kind == Kind::ReportBinary {
                    decode_bin.0.push(took);
                    decode_bin_allocs.0.push(allocs);
                } else {
                    decode_json.0.push(took);
                    decode_json_allocs.0.push(allocs);
                }
                let analysis = analysis_t.time(|| PageAnalysis::from_report(&report));
                let violations = detect_t.time(|| detect_violators(&analysis, &config.detector));
                if let Some((_, domain)) = &page.slow {
                    let rule_text = format!("http://{domain}/");
                    for violation in &violations {
                        black_box(match_t.time(|| {
                            match_rule(
                                &rule_text,
                                &violation.domains,
                                MatchLevel::ExternalJs,
                                &NoFetch,
                            )
                        }));
                    }
                }
                let started = Instant::now();
                let (outcome, allocs, bytes) =
                    counted(|| twin.ingest_report(now, &report, &NoFetch));
                ingest_t.0.push(started.elapsed().as_nanos() as u64);
                black_box(outcome);
                ingest_allocs.0.push(allocs);
                ingest_bytes.0.push(bytes);
            }
        }
    }

    let metric = |name, unit, stat: Stat| Metric::new(name, unit, stat.value, stat.count);
    vec![
        metric("oak-http.parse_get_us", "us", parse_get.median_us()),
        metric("oak-http.parse_report_us", "us", parse_report.median_us()),
        metric(
            "oak-http.serialize_page_us",
            "us",
            serialize_page.median_us(),
        ),
        metric("oak-core.decode_json_us", "us", decode_json.median_us()),
        metric("oak-core.decode_bin_us", "us", decode_bin.median_us()),
        metric(
            "oak-core.decode_json_allocs",
            "count",
            decode_json_allocs.median(),
        ),
        metric(
            "oak-core.decode_bin_allocs",
            "count",
            decode_bin_allocs.median(),
        ),
        metric("oak-core.analysis_us", "us", analysis_t.median_us()),
        metric("oak-core.detect_us", "us", detect_t.median_us()),
        metric("oak-core.match_us", "us", match_t.median_us()),
        metric("oak-core.ingest_us", "us", ingest_t.median_us()),
        metric("oak-core.ingest_allocs", "count", ingest_allocs.median()),
        metric("oak-core.ingest_bytes", "count", ingest_bytes.median()),
        // Measured where activation happens: the twin's set-up, one report
        // per user. The replay itself runs in steady state and activates
        // nothing, like the timed window.
        Metric::new(
            "oak-core.activations_per_report",
            "ratio",
            if reports > 0 {
                activations as f64 / USERS as f64
            } else {
                0.0
            },
            if reports > 0 { USERS as usize } else { 0 },
        ),
        metric("oak-core.modify_page_us", "us", modify_active.median_us()),
        metric(
            "oak-core.modify_page_noop_us",
            "us",
            modify_noop.median_us(),
        ),
        metric(
            "oak-core.modify_page_allocs",
            "count",
            modify_allocs.median(),
        ),
        metric("oak-html.rewrite_us", "us", rewrite_t.median_us()),
        metric("oak-html.edits_per_page", "count", edits.median()),
        metric("oak-pattern.scope_match_us", "us", scope_t.median_us()),
    ]
}

/// What observability costs a report: the workload's first report requests
/// handled by a service with the observability bundle and by one without,
/// alternating. Returns `with / without - 1` and the pairs measured.
pub fn obs_tax(workload: Workload, inputs: &Inputs) -> Stat {
    const PAIRS: usize = 2_000;
    let service = |with_obs: bool| {
        let oak = Oak::new(OakConfig::default());
        add_rules(&oak, inputs);
        let service = OakService::new(oak, SiteStore::new());
        if with_obs {
            service.with_obs(ServiceObs::wall(256, 500))
        } else {
            service
        }
    };
    let (with, without) = (service(true), service(false));
    let mut with_t = Samples::default();
    let mut without_t = Samples::default();
    let mut wire = Vec::new();
    let mut g = 0;
    while with_t.0.len() < PAIRS && g < STREAM_PREFIX {
        let req = inputs.request(workload, g % 2, g / 2);
        g += 1;
        if !req.kind.is_report() {
            continue;
        }
        wire.clear();
        inputs.write_request(req, None, &mut wire);
        let request = Request::parse(&wire).expect("generated POST parses");
        black_box(with_t.time(|| with.handle(&request)));
        black_box(without_t.time(|| without.handle(&request)));
    }
    let (with, without) = (with_t.median_us(), without_t.median_us());
    Stat {
        value: if without.value > 0.0 {
            with.value / without.value - 1.0
        } else {
            0.0
        },
        count: with.count,
    }
}

/// Handles `GET /oak/metrics` on the live service a few times: median
/// microseconds and the exposition's size.
pub fn scrape(service: &OakService) -> (Stat, usize) {
    let request = Request::new(Method::Get, METRICS_PATH);
    let mut samples = Samples::default();
    let mut bytes = 0;
    for _ in 0..20 {
        bytes = samples.time(|| service.handle(&request)).body.len();
    }
    (samples.median_us(), bytes)
}

/// What a fixed journal costs to write and to recover.
pub struct Recovery {
    /// `OakStore::boot` on the journal until the engine answers, seconds:
    /// the fastest of the repetitions, since what the host's neighbours do
    /// only ever adds.
    pub recovery_s: f64,
    /// WAL events replayed per second of that boot.
    pub events_per_s: Stat,
    /// Median `sync_all` while the journal was written.
    pub sync_all_us: Stat,
    /// Engine events journaled per report.
    pub events_per_report: Stat,
    /// WAL bytes on disk per report, taken before the first compaction.
    pub bytes_per_report: Stat,
}

/// Reports in the recovery journal: a fixed count, so the snapshot/WAL
/// split that boot replays is the same on every run however fast the
/// timed window went.
const RECOVERY_REPORTS: u32 = 12_500;
/// Where WAL bytes per report are read: before the first compaction
/// (10,000 events) deletes segments.
const BYTES_PER_REPORT_AT: u32 = 5_000;
/// Boots timed; each from its own copy of the journal, since booting
/// compacts it.
const RECOVERY_BOOTS: usize = 5;

/// Writes the journal through a store with the shipped options, as the
/// service would (`maybe_snapshot` after every report), then times
/// recovering it.
pub fn recovery(inputs: &Inputs, dir: &Path) -> io::Result<Recovery> {
    let journal = dir.join("recovery-journal");
    let mut sync_all = Samples::default();
    let mut wal_bytes_at = (0u64, 0u32);
    let events;
    {
        let boot = OakStore::boot(&journal, OakConfig::default(), StoreOptions::default())?;
        add_rules(&boot.oak, inputs);
        let rule_events = boot.store.events_recorded();
        let mut body = Vec::with_capacity(16 * 1024);
        for i in 0..RECOVERY_REPORTS {
            let report = inputs.report_of(i % USERS, &mut body);
            boot.oak
                .ingest_report(oak_core::Instant::ZERO, &report, &NoFetch);
            boot.store.maybe_snapshot(&boot.oak)?;
            if (i + 1) % 1_000 == 0 {
                sync_all.time(|| boot.store.sync_all())?;
                if i + 1 == BYTES_PER_REPORT_AT {
                    wal_bytes_at = (wal_bytes(&journal), i + 1);
                }
            }
        }
        boot.store.sync_all()?;
        events = boot.store.events_recorded() - rule_events;
    }

    let mut boots = Vec::new();
    let mut rates = Vec::new();
    let page = &inputs.pages[0];
    for rep in 0..RECOVERY_BOOTS {
        let copy = dir.join(format!("recovery-{rep}"));
        crate::stack::copy_dir(&journal, &copy)?;
        let started = Instant::now();
        let boot = OakStore::boot(&copy, OakConfig::default(), StoreOptions::default())?;
        // "Until the engine answers": one page served from recovered state.
        black_box(
            boot.oak
                .modify_page_cow(oak_core::Instant::ZERO, "u-0", &page.path, &page.html),
        );
        let took = started.elapsed().as_secs_f64();
        if boot.oak.user_count() != USERS as usize {
            return Err(io::Error::other(format!(
                "recovered {} users, journal holds {USERS}",
                boot.oak.user_count()
            )));
        }
        boots.push(took);
        rates.push(boot.events_replayed as f64 / took);
        drop(boot);
        std::fs::remove_dir_all(&copy)?;
    }
    std::fs::remove_dir_all(&journal)?;
    boots.sort_by(f64::total_cmp);
    rates.sort_by(f64::total_cmp);
    Ok(Recovery {
        recovery_s: boots[0],
        events_per_s: Stat {
            value: rates[rates.len() - 1],
            count: rates.len(),
        },
        sync_all_us: sync_all.median_us(),
        events_per_report: Stat {
            value: events as f64 / f64::from(RECOVERY_REPORTS),
            count: RECOVERY_REPORTS as usize,
        },
        bytes_per_report: Stat {
            value: wal_bytes_at.0 as f64 / f64::from(wal_bytes_at.1.max(1)),
            count: wal_bytes_at.1 as usize,
        },
    })
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Three `ClusterNode`s driven by hand through `tick`/`handle`, one report
/// at a time: envelopes and encoded bytes it takes to commit one report.
/// Simulated time, so the counts are exact and repeat.
pub fn cluster_counts(inputs: &Inputs, dir: &Path) -> io::Result<(Stat, Stat)> {
    const REPORTS: u32 = 2_000;
    const TICK_MS: u64 = 20;
    let topology = Topology::new((0..3).map(NodeId).collect(), 1, 3);
    let backend: Arc<dyn StorageBackend> = Arc::new(RealFs);
    let mut nodes = Vec::new();
    for i in 0..3u32 {
        let options = NodeOptions {
            store: StoreOptions::default(),
            ..NodeOptions::default()
        };
        nodes.push(ClusterNode::new(
            NodeId(i),
            topology.clone(),
            Arc::clone(&backend),
            dir.join(format!("hand-n{i}")),
            options,
            0,
        )?);
    }
    let mut now = 0u64;
    // One tick, drained to quiescence; returns envelopes and bytes sent.
    let tick = |nodes: &mut Vec<ClusterNode>, now: &mut u64| -> (u64, u64) {
        *now += TICK_MS;
        let mut queue: VecDeque<Envelope> = VecDeque::new();
        for node in nodes.iter_mut() {
            queue.extend(node.tick(*now));
        }
        let (mut envelopes, mut bytes) = (0u64, 0u64);
        while let Some(envelope) = queue.pop_front() {
            envelopes += 1;
            bytes += envelope.encode().len() as u64;
            let to = envelope.to.0 as usize;
            queue.extend(nodes[to].handle(*now, &envelope));
        }
        (envelopes, bytes)
    };
    let primary = loop {
        tick(&mut nodes, &mut now);
        if let Some(at) = nodes.iter().position(|n| n.role(0) == Some(Role::Primary)) {
            break at;
        }
        if now > 60_000 {
            return Err(io::Error::other("hand-driven group elected no primary"));
        }
    };
    let oak = nodes[primary]
        .primary_engine(0)
        .map_err(|_| io::Error::other("primary lost its lease"))?;
    add_rules(&oak, inputs);
    while nodes[primary].commit(0).unwrap_or(0) < oak.event_seq() {
        tick(&mut nodes, &mut now);
    }
    let mut envelopes = Counts::default();
    let mut bytes = Counts::default();
    let mut body = Vec::with_capacity(16 * 1024);
    for user in 0..REPORTS {
        let report = inputs.report_of(user, &mut body);
        oak.ingest_report(oak_core::Instant(now), &report, &NoFetch);
        let head = oak.event_seq();
        let (mut e, mut b) = (0, 0);
        while nodes[primary].commit(0).unwrap_or(0) < head {
            let (de, db) = tick(&mut nodes, &mut now);
            e += de;
            b += db;
        }
        envelopes.0.push(e);
        bytes.0.push(b);
    }
    drop(nodes);
    for i in 0..3 {
        std::fs::remove_dir_all(dir.join(format!("hand-n{i}")))?;
    }
    Ok((envelopes.median(), bytes.median()))
}

/// Median `OakStore::snapshot` of the live engine, milliseconds.
pub fn snapshot_ms(store: &OakStore, oak: &Oak) -> io::Result<Stat> {
    let mut samples = Samples::default();
    for _ in 0..3 {
        samples.time(|| store.snapshot(oak))?;
    }
    let stat = samples.median_us();
    Ok(Stat {
        value: stat.value / 1e3,
        count: stat.count,
    })
}
