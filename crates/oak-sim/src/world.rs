//! The simulation world: one seeded scenario driven through the *real*
//! engine, store, and service, with an invariant audit at every
//! crash-recovery boundary and cheap checks after every step.
//!
//! The oracle is a **mirror**: a [`TeeSink`] interposed between the
//! engine and the store records every emitted event, tagging each with
//! whether the machine had already crashed when the store acknowledged
//! it. After recovery, [`oak_store::Boot`] names exactly the event set
//! the recovered engine claims to reflect (`watermark` +
//! `replayed_seqs`); replaying that subset of the mirror into a fresh
//! engine must reproduce the recovered state byte-for-byte, and under
//! `FsyncPolicy::Always` every event acknowledged before the crash must
//! be in the set. Both checks are exact, not statistical.

use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use oak_core::engine::{Oak, OakConfig, SHARD_COUNT};
use oak_core::events::{EventSink, SequencedEvent};
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::Instant;
use oak_http::cookie::OAK_USER_COOKIE;
use oak_http::{Handler, Method, Request, StatusCode};
use oak_server::{
    HealthState, OakService, OverloadController, OverloadPolicy, OverloadState, ServiceObs,
    SiteStore, HEALTH_PATH, METRICS_PATH, REPORT_PATH,
};
use oak_store::{FsyncPolicy, OakStore, StorageBackend, StoreOptions};

use crate::clock::SimClock;
use crate::fetch::{FetchFaults, HostMode, SimFetcher};
use crate::fs::{FaultCounters, SimFs, SimFsOptions};
use crate::overload_oracle::{pressure_of, RefOverload};
use crate::scenario::{Scenario, Step, HOSTS, USERS};

/// Per-shard in-memory audit-log retention for simulated engines; small
/// so the bounded-memory invariant bites.
pub(crate) const LOG_RETENTION: usize = 32;

/// Completed traces the simulated tracer retains; small so ring
/// eviction is exercised by longer scenarios.
const TRACE_RING: usize = 64;

/// One invariant violation, replayable from `seed` alone.
#[derive(Clone, Debug)]
pub struct SimFailure {
    /// The scenario seed.
    pub seed: u64,
    /// Index of the step being executed when the violation surfaced
    /// (`steps.len()` for the end-of-run audit).
    pub step: usize,
    /// Which invariant broke.
    pub invariant: String,
    /// What exactly diverged.
    pub detail: String,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: invariant {:?} violated at step {}: {}",
            self.seed, self.invariant, self.step, self.detail
        )
    }
}

/// What a clean run did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Steps executed.
    pub steps: u64,
    /// HTTP-level requests issued through the service handler.
    pub requests: u64,
    /// Engine events mirrored.
    pub events: u64,
    /// Crash-recovery cycles completed.
    pub recoveries: u64,
    /// Individual invariant checks evaluated.
    pub invariant_checks: u64,
    /// Wall nanoseconds inside invariant checking (bench overhead
    /// accounting; no simulation behavior depends on it).
    pub invariant_ns: u64,
    /// Storage fault counts.
    pub fs: FaultCounters,
    /// Fetch fault counts.
    pub fetch: FetchFaults,
    /// (cluster runs) Primary epochs seated beyond each partition's
    /// first — i.e. completed failovers.
    pub failovers: u64,
    /// (cluster runs) Client operations refused with 503 + Retry-After
    /// because no credible primary was routable.
    pub refused: u64,
    /// (single-node runs) Requests the overload controller refused with
    /// 503 + Retry-After across all priority classes.
    pub sheds: u64,
    /// (single-node runs) Pages served unrewritten under Brownout.
    pub browned: u64,
}

/// A mirrored event plus whether the machine was already down when the
/// store acknowledged it (down ⇒ the append was swallowed, so the event
/// is exempt from the durability guarantee).
struct MirrorEntry {
    event: SequencedEvent,
    post_crash: bool,
}

/// The oracle's event tape for the current engine life.
#[derive(Default)]
struct Mirror {
    entries: Mutex<Vec<MirrorEntry>>,
    /// Events acknowledged while the machine was up, over the whole run
    /// (never rebased): the observability invariant's lower bound on
    /// `oak_wal_append_count`.
    acked: AtomicU64,
}

/// [`EventSink`] that forwards to the real store, then mirrors.
struct TeeSink {
    store: Arc<OakStore>,
    mirror: Arc<Mirror>,
    fs: SimFs,
}

impl EventSink for TeeSink {
    fn record(&self, shard: Option<usize>, event: &SequencedEvent) {
        self.store.record(shard, event);
        // Crash state is read *after* the store returns: if the machine
        // died mid-append, the event was never acknowledged durable.
        let post_crash = self.fs.crashed();
        if !post_crash {
            self.mirror.acked.fetch_add(1, Ordering::Relaxed);
        }
        self.mirror
            .entries
            .lock()
            .expect("mirror")
            .push(MirrorEntry {
                event: event.clone(),
                post_crash,
            });
    }
}

/// A canonical fingerprint of every durable engine observable.
/// `last_seen` is masked: serves refresh it in memory but are by design
/// not journaled (see the store's recovery guarantee). `epoch` is
/// masked too — the replication-epoch stamp is coordination metadata a
/// primary carries ahead of its followers, not replicated user state.
pub fn fingerprint(oak: &Oak) -> String {
    let mut doc = oak.snapshot_json();
    mask_metadata(&mut doc);
    doc.to_string()
}

fn mask_metadata(value: &mut oak_json::Value) {
    use oak_json::Value;
    match value {
        Value::Object(members) => {
            members.retain(|key, _| key != "epoch");
            for (key, member) in members.iter_mut() {
                if key == "last_seen" {
                    *member = Value::Number(0.0);
                } else {
                    mask_metadata(member);
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                mask_metadata(item);
            }
        }
        _ => {}
    }
}

pub(crate) fn user_name(user: u64) -> String {
    format!("u-{}", user % USERS as u64)
}

pub(crate) fn script_tag(host: u64) -> String {
    format!(
        r#"<script src="http://cdn{}.example/lib.js">"#,
        host % HOSTS as u64
    )
}

pub(crate) fn sim_page() -> String {
    let mut page = String::from("<html><head>");
    for h in 0..HOSTS {
        page.push_str(&format!(
            r#"<script src="http://cdn{h}.example/lib.js"></script>"#
        ));
    }
    page.push_str("</head><body>sim</body></html>");
    page
}

/// The rule a `Step::AddRule { host, kind, ttl_ms }` registers — shared
/// by the single-node and cluster worlds so one step means one thing.
pub(crate) fn step_rule(host: u64, kind: u64, ttl_ms: u64) -> Rule {
    let tag = script_tag(host);
    let mut rule = match kind % 3 {
        0 => Rule::remove(tag),
        1 => Rule::replace_identical(
            tag,
            [
                format!(
                    r#"<script src="http://m1.example/cdn{}/lib.js">"#,
                    host % HOSTS as u64
                ),
                format!(
                    r#"<script src="http://m2.example/cdn{}/lib.js">"#,
                    host % HOSTS as u64
                ),
            ],
        ),
        _ => Rule::replace_different(
            tag,
            [format!(
                r#"<script src="http://alt.example/cdn{}/lib.js">"#,
                host % HOSTS as u64
            )],
        ),
    };
    if ttl_ms > 0 {
        rule = rule.with_ttl_ms(Some(ttl_ms));
    }
    rule
}

pub(crate) fn violating_report(user: u64, host: u64) -> PerfReport {
    let mut report = PerfReport::new(user_name(user), "/p");
    report.push(ObjectTiming::new(
        format!("http://cdn{}.example/lib.js", host % HOSTS as u64),
        format!("10.0.{}.1", host % HOSTS as u64),
        30_000,
        900.0,
    ));
    for good in 0..4u64 {
        report.push(ObjectTiming::new(
            format!("http://good{good}.example/obj"),
            format!("10.1.{good}.1"),
            30_000,
            80.0 + good as f64 * 5.0,
        ));
    }
    report
}

pub(crate) fn benign_report(user: u64) -> PerfReport {
    let mut report = PerfReport::new(user_name(user), "/p");
    for good in 0..5u64 {
        report.push(ObjectTiming::new(
            format!("http://good{good}.example/obj"),
            format!("10.1.{good}.1"),
            30_000,
            80.0 + good as f64 * 3.0,
        ));
    }
    report
}

/// Bounded boot retries: a crash scheduled to fire *during* recovery
/// costs one attempt; something has to be wrong for eight straight
/// lives to die mid-boot with nothing else running.
const MAX_BOOT_ATTEMPTS: usize = 8;

struct World<'a> {
    scenario: &'a Scenario,
    dir: PathBuf,
    fs: SimFs,
    clock: SimClock,
    fetcher: Arc<SimFetcher>,
    mirror: Arc<Mirror>,
    obs: Arc<ServiceObs>,
    service: Arc<OakService>,
    store: Arc<OakStore>,
    config: OakConfig,
    store_options: StoreOptions,
    stats: RunStats,
    step: usize,
    /// The production controller under test, in driven mode: the run
    /// loop feeds it one seed-determined sojourn reading per step.
    /// Node-level state — it survives crash-recovery, so the rebuilt
    /// service is re-armed with the same instance.
    overload: Arc<OverloadController>,
    /// The independent reference model the controller must agree with.
    reference: RefOverload,
    /// Report ingests the reference said must be shed (and were).
    reports_shed: u64,
    /// Page serves the reference said must be shed (and were).
    pages_shed: u64,
}

impl World<'_> {
    fn fail(&self, invariant: &str, detail: String) -> SimFailure {
        SimFailure {
            seed: self.scenario.seed,
            step: self.step,
            invariant: invariant.to_owned(),
            detail,
        }
    }

    /// One request the way the edge serves it: the admission hook sees
    /// the head first, and a request it refuses never reaches the
    /// handler.
    fn request(&mut self, request: &Request) -> oak_http::Response {
        if let Some(refusal) = self.service.admit(request.method, &request.target) {
            return refusal;
        }
        self.stats.requests += 1;
        self.service.handle(request)
    }

    fn get(&mut self, path: &str, user: u64) -> oak_http::Response {
        let mut req = Request::new(Method::Get, path);
        req.headers
            .set("Cookie", format!("{OAK_USER_COOKIE}={}", user_name(user)));
        self.request(&req)
    }

    fn post_report(&mut self, report: &PerfReport, binary: bool) -> oak_http::Response {
        let (body, content_type) = if binary {
            (report.to_binary(), oak_core::wire::OAK_REPORT_CONTENT_TYPE)
        } else {
            (report.to_json().into_bytes(), "application/json")
        };
        let mut req = Request::new(Method::Post, REPORT_PATH).with_body(body, content_type);
        req.headers
            .set("Cookie", format!("{OAK_USER_COOKIE}={}", report.user));
        self.request(&req)
    }

    /// The `nth` live rule's id, if any rules exist.
    fn nth_rule(&self, nth: u64) -> Option<oak_core::rule::RuleId> {
        self.service.with_oak(|oak| {
            let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
            if ids.is_empty() {
                None
            } else {
                Some(ids[nth as usize % ids.len()])
            }
        })
    }

    fn execute(&mut self, step: &Step) -> Result<(), SimFailure> {
        match step {
            Step::AddRule { host, kind, ttl_ms } => {
                self.service
                    .with_oak(|oak| oak.add_rule(step_rule(*host, *kind, *ttl_ms)))
                    .expect("generated rules are valid");
            }
            Step::RemoveRule { nth } => {
                if let Some(id) = self.nth_rule(*nth) {
                    self.service.with_oak(|oak| oak.remove_rule(id));
                }
            }
            Step::Ingest {
                user,
                host,
                violating,
                binary,
            } => {
                let report = if *violating {
                    violating_report(*user, *host)
                } else {
                    benign_report(*user)
                };
                let response = self.post_report(&report, *binary);
                if self.reference.sheds_reports() {
                    // The reference demands a shed: the ingest must be
                    // turned away before the store sees it, and the
                    // refusal must carry a retry hint.
                    self.expect_shed(&response, "report ingest")?;
                    if response.status == StatusCode::UNAVAILABLE {
                        self.reports_shed += 1;
                        self.stats.sheds += 1;
                    }
                } else if response.status.0 != 204 && !self.fs.crashed() {
                    // The machine may die mid-request; any other non-2xx
                    // is a service bug the harness should surface.
                    return Err(self.fail(
                        "service",
                        format!("report ingest answered {}", response.status.0),
                    ));
                }
            }
            Step::Serve { user } => {
                let response = self.get("/p", *user);
                if self.reference.sheds_pages() {
                    self.expect_shed(&response, "page serve")?;
                    if response.status == StatusCode::UNAVAILABLE {
                        self.pages_shed += 1;
                        self.stats.sheds += 1;
                    }
                } else if !response.status.is_success() && !self.fs.crashed() {
                    return Err(self.fail(
                        "service",
                        format!("page serve answered {}", response.status.0),
                    ));
                }
            }
            Step::ForceActivate { user, nth } => {
                if let Some(id) = self.nth_rule(*nth) {
                    let now = self.clock.now();
                    let user = user_name(*user);
                    self.service
                        .with_oak(|oak| oak.force_activate(now, &user, id));
                }
            }
            Step::ForceDeactivate { user, nth } => {
                if let Some(id) = self.nth_rule(*nth) {
                    let user = user_name(*user);
                    self.service.with_oak(|oak| oak.force_deactivate(&user, id));
                }
            }
            Step::AdvanceClock { ms } => self.clock.advance(*ms),
            Step::Partition { host, mode } => {
                let host = format!("cdn{}.example", host % HOSTS as u64);
                let mode = match mode % 4 {
                    0 => HostMode::Healthy,
                    1 => HostMode::Unreachable,
                    2 => HostMode::Hanging(500),
                    _ => HostMode::Flaky { num: 1, den: 2 },
                };
                self.fetcher.set_host(host, mode);
            }
            Step::Snapshot => {
                // Swallow errors like the serving path does: a crash mid-
                // snapshot is a scheduled fault, and recovery will audit.
                let store = Arc::clone(&self.store);
                let _ = self.service.with_oak(|oak| store.snapshot(oak));
            }
            Step::Prune { idle_ms } => {
                let cutoff = Instant(self.clock.now().as_millis().saturating_sub(*idle_ms));
                self.service
                    .with_oak(|oak| oak.prune_inactive_users(cutoff));
            }
            Step::Crash {
                ops_ahead,
                survival_seed,
            } => {
                self.fs.schedule_crash(*ops_ahead, *survival_seed);
            }
            Step::CrashNode { .. }
            | Step::RestartNode { .. }
            | Step::PartitionLink { .. }
            | Step::HealLink { .. }
            | Step::HealAll => {
                // Cluster steps are inert on a single node: there is no
                // peer to cut off and "crash node 0" is the v1 Crash
                // step's job. Tolerated (not an error) so a hand-pruned
                // v2 scenario replays against both worlds.
            }
            Step::CheckHealth => {
                let response = self.get(HEALTH_PATH, 0);
                // Between recoveries the node is always Serving — and the
                // health probe is shed-exempt, so it must answer 200 even
                // while every other class is being refused.
                if response.status != StatusCode::OK && !self.fs.crashed() {
                    return Err(self.fail(
                        "health",
                        format!(
                            "serving node answered {} on {HEALTH_PATH}",
                            response.status.0
                        ),
                    ));
                }
                // The body must tell the truth about degradation.
                if response.status == StatusCode::OK {
                    let body = response.body_text();
                    let doc = oak_json::parse(&body).map_err(|err| {
                        self.fail("health", format!("{HEALTH_PATH} body unparsable: {err}"))
                    })?;
                    let degraded = doc.get("degraded").and_then(|v| v.as_bool());
                    if degraded != Some(self.reference.degraded()) {
                        return Err(self.fail(
                            "overload",
                            format!(
                                "{HEALTH_PATH} reports degraded={degraded:?}, reference \
                                 expects {} (state {})",
                                self.reference.degraded(),
                                self.reference.state()
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Invariant #7 — overload agreement: after every pressure sample,
    /// the production controller's state machine must sit exactly where
    /// the independent reference model says it should.
    fn check_overload_state(&mut self) -> Result<(), SimFailure> {
        self.stats.invariant_checks += 1;
        let expected = match self.reference.state() {
            0 => OverloadState::Nominal,
            1 => OverloadState::Brownout,
            _ => OverloadState::Shedding,
        };
        let got = self.overload.state();
        if got != expected || self.overload.severity() != self.reference.severity() {
            return Err(self.fail(
                "overload",
                format!(
                    "controller at {}/sev{} diverges from reference {}/sev{}",
                    got.as_str(),
                    self.overload.severity(),
                    expected.as_str(),
                    self.reference.severity()
                ),
            ));
        }
        Ok(())
    }

    /// A response the reference model says must be a shed: 503, with a
    /// Retry-After hint so clients back off instead of hammering.
    fn expect_shed(&self, response: &oak_http::Response, what: &str) -> Result<(), SimFailure> {
        if self.fs.crashed() {
            return Ok(());
        }
        if response.status != StatusCode::UNAVAILABLE {
            return Err(self.fail(
                "overload",
                format!(
                    "{what} answered {} while the reference demands a shed \
                     (state {}, severity {})",
                    response.status.0,
                    self.reference.state(),
                    self.reference.severity()
                ),
            ));
        }
        if response.header("retry-after").is_none() {
            return Err(self.fail(
                "overload",
                format!("{what} shed without a Retry-After hint"),
            ));
        }
        Ok(())
    }

    /// Cheap invariants evaluated after every step.
    fn check_step(&mut self) -> Result<(), SimFailure> {
        let started = std::time::Instant::now();
        self.stats.invariant_checks += 3;
        let result = self.service.with_oak(|oak| {
            // Referential integrity: an activation must point at a live
            // rule — rule removal and TTL expiry may not strand users.
            for user in 0..USERS as u64 {
                for (id, _) in oak.active_rules(&user_name(user)) {
                    if oak.rule(id).is_none() {
                        return Err((
                            "rule_integrity",
                            format!("user {} active on removed rule {id:?}", user_name(user)),
                        ));
                    }
                }
            }
            // Bounded memory: the user pool is closed, so shard state and
            // the retained log must stay bounded no matter the schedule.
            if oak.user_count() > USERS {
                return Err((
                    "bounded_memory",
                    format!("{} users tracked, workload has {USERS}", oak.user_count()),
                ));
            }
            let log_bound = LOG_RETENTION * SHARD_COUNT;
            if oak.log().len() > log_bound {
                return Err((
                    "bounded_memory",
                    format!(
                        "{} log entries retained, bound {log_bound}",
                        oak.log().len()
                    ),
                ));
            }
            Ok(())
        });
        self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
        result.map_err(|(invariant, detail)| self.fail(invariant, detail))
    }

    /// The crash-recovery audit: restart the disk, boot from survivors,
    /// and prove the recovered engine is exactly the replay of the event
    /// set it claims — losing nothing acknowledged when fsync was Always.
    fn recover(&mut self) -> Result<(), SimFailure> {
        self.fs.restart();

        let boot = {
            let mut attempt = 0;
            loop {
                attempt += 1;
                match OakStore::boot_with(
                    Arc::new(self.fs.clone()) as Arc<dyn StorageBackend>,
                    &self.dir,
                    self.config,
                    self.store_options,
                ) {
                    Ok(boot) => break boot,
                    Err(err) if self.fs.crashed() && attempt < MAX_BOOT_ATTEMPTS => {
                        // Died again mid-recovery (a scheduled crash
                        // landed inside boot): power-cycle and try again.
                        let _ = err;
                        self.fs.restart();
                    }
                    Err(err) => {
                        return Err(
                            self.fail("recovery", format!("boot failed after crash: {err}"))
                        );
                    }
                }
            }
        };

        let started = std::time::Instant::now();
        self.stats.invariant_checks += 2;

        // The recovered engine names its event set; the mirror is the
        // truth about what those events were.
        let covered: HashSet<u64> = boot.replayed_seqs.iter().copied().collect();
        let in_set = |seq: u64| seq < boot.watermark || covered.contains(&seq);

        let mirror = Arc::clone(&self.mirror);
        let mut entries = mirror.entries.lock().expect("mirror");
        entries.sort_by_key(|e| e.event.seq);

        // Durability: with fsync Always, every event the store
        // acknowledged while the machine was up must have survived.
        if self.scenario.fsync == FsyncPolicy::Always {
            self.stats.invariant_checks += 1;
            if let Some(lost) = entries
                .iter()
                .find(|e| !e.post_crash && !in_set(e.event.seq))
            {
                let failure = self.fail(
                    "durability",
                    format!(
                        "acknowledged event seq {} lost across crash-recovery \
                         (watermark {}, {} replayed)",
                        lost.event.seq,
                        boot.watermark,
                        boot.replayed_seqs.len()
                    ),
                );
                self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
                return Err(failure);
            }
        }

        // Consistency: replaying exactly the covered mirror events into
        // a fresh engine must reproduce the recovered state, bit for bit.
        let expected = Oak::new(self.config);
        let mut seen = HashSet::new();
        for entry in entries.iter() {
            if in_set(entry.event.seq) && seen.insert(entry.event.seq) {
                expected.apply_event(&entry.event);
            }
        }
        let recovered_print = fingerprint(&boot.oak);
        let expected_print = fingerprint(&expected);
        if recovered_print != expected_print {
            self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
            return Err(self.fail(
                "consistency",
                format!(
                    "recovered state diverges from replay of its own event set \
                     (watermark {}, {} replayed events, {} mirrored): \
                     recovered {} bytes vs expected {} bytes of state",
                    boot.watermark,
                    boot.replayed_seqs.len(),
                    entries.len(),
                    recovered_print.len(),
                    expected_print.len()
                ),
            ));
        }

        // Rebase the mirror to the surviving history: seqs above it will
        // be re-allocated by the recovered engine.
        entries.retain(|e| in_set(e.event.seq));
        for entry in entries.iter_mut() {
            entry.post_crash = false;
        }
        drop(entries);
        self.stats.invariant_ns += started.elapsed().as_nanos() as u64;

        // Rebuild the serving stack on the recovered engine, walking the
        // health lifecycle a real boot walks.
        let mut oak = boot.oak;
        oak.set_event_sink(Arc::new(TeeSink {
            store: Arc::clone(&boot.store),
            mirror: Arc::clone(&self.mirror),
            fs: self.fs.clone(),
        }));
        self.store = boot.store;
        // Re-attach the run's one observability bundle: the rebuilt
        // store is a fresh instance, and the rebuilt service keeps
        // recording into the same registry, so counters span lives.
        self.store.set_obs(Arc::clone(&self.obs.store));
        let mut site = SiteStore::new();
        site.add_page("/p", sim_page());
        self.service = OakService::new(oak, site)
            .with_health(HealthState::Recovering)
            .with_clock(self.clock.reader())
            .with_fetcher(SharedFetcher(Arc::clone(&self.fetcher)))
            .with_durability(Arc::clone(&self.store))
            .with_obs(Arc::clone(&self.obs))
            // Same controller across lives: pressure is node state, not
            // engine state — a reboot does not cool the machine down.
            .with_overload(Arc::clone(&self.overload))
            .into_shared();

        // Health gating: a recovering node must refuse traffic…
        self.stats.invariant_checks += 2;
        let response = self.get(HEALTH_PATH, 0);
        if response.status != StatusCode::UNAVAILABLE {
            return Err(self.fail(
                "health",
                format!(
                    "recovering node answered {} on {HEALTH_PATH}",
                    response.status.0
                ),
            ));
        }
        // …and advertise readiness once recovery completes.
        self.service.set_health(HealthState::Serving);
        let response = self.get(HEALTH_PATH, 0);
        if response.status != StatusCode::OK {
            return Err(self.fail(
                "health",
                format!(
                    "recovered node answered {} on {HEALTH_PATH}",
                    response.status.0
                ),
            ));
        }

        self.stats.recoveries += 1;
        Ok(())
    }

    /// Invariant #6 — observability consistency: the end-of-run scrape
    /// of `/oak/metrics` must pass the exposition-grammar validator,
    /// `oak_wal_append_count` must cover every event the store
    /// acknowledged while the machine was up, and
    /// `oak_http_responses_total` must sum across its status labels to
    /// exactly the requests the scenario pushed through the handler.
    ///
    /// Returns the scrape text and the rendered trace ring, so callers
    /// can assert cross-run determinism byte for byte.
    fn check_observability(&mut self) -> Result<(String, String), SimFailure> {
        let started = std::time::Instant::now();
        self.stats.invariant_checks += 3;
        // Scrape through the real endpoint, bypassing the request
        // counter so the body reflects every counted request and the
        // scrape itself is not in its own denominator.
        let response = self
            .service
            .handle(&Request::new(Method::Get, METRICS_PATH));
        let text = response.body_text();
        let result = (|| {
            if response.status != StatusCode::OK {
                return Err((
                    "observability",
                    format!("{METRICS_PATH} answered {}", response.status.0),
                ));
            }
            let errors = oak_obs::validate_exposition(&text);
            if !errors.is_empty() {
                return Err((
                    "observability",
                    format!(
                        "{METRICS_PATH} failed exposition validation: {}",
                        errors.join("; ")
                    ),
                ));
            }
            let samples = oak_obs::parse_samples(&text);
            let wal_appends = samples
                .iter()
                .find(|s| s.name == "oak_wal_append_count")
                .map(|s| s.value)
                .unwrap_or(-1.0);
            let acked = self.mirror.acked.load(Ordering::Relaxed);
            if (wal_appends as u64) < acked || wal_appends < 0.0 {
                return Err((
                    "observability",
                    format!(
                        "oak_wal_append_count {wal_appends} below the {acked} events \
                         the store acknowledged"
                    ),
                ));
            }
            let responses: f64 = samples
                .iter()
                .filter(|s| s.name == "oak_http_responses_total")
                .map(|s| s.value)
                .sum();
            if responses as u64 != self.stats.requests {
                return Err((
                    "observability",
                    format!(
                        "oak_http_responses_total sums to {responses} across status \
                         labels, handler served {} requests",
                        self.stats.requests
                    ),
                ));
            }
            Ok(())
        })();
        self.stats.invariant_ns += started.elapsed().as_nanos() as u64;
        result.map_err(|(invariant, detail)| self.fail(invariant, detail))?;
        let traces = self
            .obs
            .tracer
            .recent()
            .iter()
            .map(|t| t.to_text())
            .collect::<String>();
        Ok((text, traces))
    }
}

/// [`ScriptFetcher`] by shared reference, so the service and the world
/// (or every node of a simulated cluster) can watch the same simulated
/// CDN.
pub(crate) struct SharedFetcher(pub(crate) Arc<SimFetcher>);

impl oak_core::matching::ScriptFetcher for SharedFetcher {
    fn fetch_script(&self, url: &str) -> Option<String> {
        self.0.fetch_script(url)
    }
}

/// A clean run plus its observability artifacts: the end-of-run
/// `/oak/metrics` scrape and the rendered trace ring. Both are fully
/// determined by the scenario, so two runs of one seed must produce
/// byte-identical artifacts.
#[derive(Clone, Debug)]
pub struct ObservedRun {
    /// What the run did.
    pub stats: RunStats,
    /// The end-of-run `/oak/metrics` body (Prometheus text exposition).
    pub exposition: String,
    /// Every trace still in the ring, rendered via `Trace::to_text`,
    /// oldest first.
    pub traces: String,
}

/// Runs one scenario to completion, auditing invariants throughout.
pub fn run_scenario(scenario: &Scenario, fs_options: SimFsOptions) -> Result<RunStats, SimFailure> {
    run_scenario_observed(scenario, fs_options).map(|run| run.stats)
}

/// [`run_scenario`], also returning the end-of-run metrics scrape and
/// trace ring for determinism assertions.
pub fn run_scenario_observed(
    scenario: &Scenario,
    fs_options: SimFsOptions,
) -> Result<ObservedRun, SimFailure> {
    if scenario.cluster.is_some() {
        return Err(SimFailure {
            seed: scenario.seed,
            step: 0,
            invariant: "setup".into(),
            detail: "cluster scenario given to the single-node world; \
                     use run_cluster_scenario (or oak-sim, which dispatches)"
                .into(),
        });
    }
    let fs = SimFs::new(
        scenario.seed.wrapping_mul(0x5851_f42d_4c95_7f2d),
        fs_options,
    );
    let clock = SimClock::new();
    let fetcher = Arc::new(SimFetcher::new(clock.clone(), scenario.seed ^ 0xfe7c));
    let mirror = Arc::new(Mirror::default());
    let dir = PathBuf::from("/sim/oak-store");
    let config = OakConfig {
        log_retention: Some(LOG_RETENTION),
        ..OakConfig::default()
    };
    let store_options = StoreOptions {
        fsync: scenario.fsync,
        snapshot_every_events: scenario.snapshot_every,
        // Tiny segments force rotation + compaction to race the workload.
        rotate_segment_bytes: 4 * 1024,
        keep_snapshots: 2,
    };

    let boot = OakStore::boot_with(
        Arc::new(fs.clone()) as Arc<dyn StorageBackend>,
        &dir,
        config,
        store_options,
    )
    .map_err(|err| SimFailure {
        seed: scenario.seed,
        step: 0,
        invariant: "recovery".into(),
        detail: format!("initial boot failed: {err}"),
    })?;
    let mut oak = boot.oak;
    oak.set_event_sink(Arc::new(TeeSink {
        store: Arc::clone(&boot.store),
        mirror: Arc::clone(&mirror),
        fs: fs.clone(),
    }));
    // One observability bundle for the whole run, on simulated time:
    // histograms and spans read SimClock milliseconds as nanoseconds×1e6,
    // so every recorded duration is seed-determined.
    let obs = {
        let clock = clock.clone();
        ServiceObs::new(
            Arc::new(move || clock.now().as_millis().saturating_mul(1_000_000)),
            TRACE_RING,
            // Slow-trace logging off: simulated clock advances would
            // flag arbitrary traces as slow and spam stderr.
            0,
        )
    };
    boot.store.set_obs(Arc::clone(&obs.store));
    let mut site = SiteStore::new();
    site.add_page("/p", sim_page());
    // The production overload controller in driven mode: live signal
    // sampling is off, and the run loop below feeds it one
    // seed-determined pressure sample per step instead.
    let overload = OverloadController::driven(OverloadPolicy::default());
    let service = OakService::new(oak, site)
        .with_clock(clock.reader())
        .with_fetcher(SharedFetcher(Arc::clone(&fetcher)))
        .with_durability(Arc::clone(&boot.store))
        .with_obs(Arc::clone(&obs))
        .with_overload(Arc::clone(&overload))
        .into_shared();

    let mut world = World {
        scenario,
        dir,
        fs,
        clock,
        fetcher,
        mirror,
        obs,
        service,
        store: boot.store,
        config,
        store_options,
        stats: RunStats::default(),
        step: 0,
        overload,
        reference: RefOverload::default(),
        reports_shed: 0,
        pages_shed: 0,
    };

    for (index, step) in scenario.steps.iter().enumerate() {
        world.step = index;
        // Pressure first: the sample in effect while this step runs is a
        // pure function of (seed, index), fed to the production
        // controller and the reference model alike — then the two state
        // machines must agree before the step's traffic is judged.
        let sample = pressure_of(scenario.seed, index);
        world.overload.observe(sample);
        world.reference.observe(sample);
        world.check_overload_state()?;
        world.execute(step)?;
        if world.fs.crashed() {
            world.recover()?;
        }
        world.check_step()?;
        world.stats.steps += 1;
    }

    // Let the load subside before the end-of-run audit: walk both
    // machines back to Nominal on calm samples (checking agreement at
    // every de-escalation) so the final metrics scrape is not itself
    // shed. The bound is generous — twice the ladder's four levels.
    let mut drain = 0;
    while world.overload.state() != OverloadState::Nominal {
        world.overload.observe(0);
        world.reference.observe(0);
        world.check_overload_state()?;
        drain += 1;
        if drain > 8 {
            return Err(world.fail(
                "overload",
                "controller failed to cool down to Nominal on calm samples".into(),
            ));
        }
    }

    // Shed accounting: every refusal the oracle witnessed is in the
    // controller's counters, and nothing else is — an acknowledged 204
    // was never retroactively shed, and no shed slipped past the oracle.
    let snap = world.overload.snapshot();
    if snap.shed_reports != world.reports_shed
        || snap.shed_pages != world.pages_shed
        || snap.shed_scrapes != 0
    {
        return Err(world.fail(
            "overload",
            format!(
                "controller counted {} report / {} page / {} scrape sheds, \
                 oracle witnessed {} / {} / 0",
                snap.shed_reports,
                snap.shed_pages,
                snap.shed_scrapes,
                world.reports_shed,
                world.pages_shed
            ),
        ));
    }
    world.stats.browned = snap.pages_browned;

    // End-of-run audit: pull the plug one last time so every scenario
    // closes with a full recovery check, whatever its schedule did.
    world.step = scenario.steps.len();
    world.fs.crash_now();
    world.recover()?;
    let (exposition, traces) = world.check_observability()?;

    world.stats.events = world.mirror.entries.lock().expect("mirror").len() as u64;
    world.stats.fs = world.fs.counters();
    world.stats.fetch = world.fetcher.faults();
    Ok(ObservedRun {
        stats: world.stats,
        exposition,
        traces,
    })
}
