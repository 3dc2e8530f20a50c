//! Overload control: measure saturation, degrade deliberately.
//!
//! Every other guard in the stack (connection permits, admission
//! buckets, read deadlines) reacts to a single request; this module
//! reacts to the *node*. An [`OverloadController`] samples signals the
//! serving stack already maintains — worker-queue depth and loop lag
//! from [`oak_edge::EdgeStats`], permit occupancy from
//! [`oak_http::TransportStats`], windowed ingest latency from the
//! engine's `oak_ingest_duration_us` histogram — and drives a
//! hysteresis state machine:
//!
//! ```text
//! Nominal ──pressure──► Brownout ──pressure──► Shedding
//!    ▲                     │                      │
//!    └──── cooldown ◄──────┴────── cooldown ◄─────┘
//! ```
//!
//! - **Brownout** degrades quality before refusing work: pages are
//!   served *unrewritten* (the paper's no-op fallback — an Oak outage
//!   "silently result[s] in pages being served as-is"), request traces
//!   stop, and prune sweeps stretch out.
//! - **Shedding** refuses work in priority order, cheapest loss first:
//!   page rewrites at severity 1, operator scrapes at severity 2,
//!   report ingest only at severity 3 — and `/oak/health` never, so the
//!   load balancer can always tell a degraded node from a dead one.
//!
//! Escalation is immediate (one bad sample); de-escalation steps down
//! one state at a time after [`OverloadPolicy::cooldown_samples`]
//! consecutive calm samples, so the controller cannot flap across a
//! threshold at the sampling rate.
//!
//! The transition function ([`OverloadController::observe`]) is pure
//! state: `oak-sim` drives it with deterministic samples and checks it
//! against an independent reference model, while the live service feeds
//! it real signals through [`OverloadController::tick`].

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use oak_edge::EdgeStats;
use oak_http::{Response, StatusCode, TransportStats, SHED_RETRY_AFTER_SECS};
use oak_obs::{Histogram, HistogramSnapshot};

use crate::{AUDIT_PATH, HEALTH_PATH, METRICS_PATH, REPORT_PATH, STATS_PATH, TRACE_PATH};

/// Where the controller currently sits. Ordering is meaningful:
/// `Shedding > Brownout > Nominal`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadState {
    /// Full service: rewrite pages, trace requests, accept everything.
    Nominal,
    /// Degraded quality: pages served unrewritten, traces and prune
    /// sweeps throttled, nothing refused.
    Brownout,
    /// Refusing work by priority class (see [`RequestClass`]).
    Shedding,
}

impl OverloadState {
    /// The wire name used in `/oak/stats` and `/oak/health`.
    pub fn as_str(self) -> &'static str {
        match self {
            OverloadState::Nominal => "nominal",
            OverloadState::Brownout => "brownout",
            OverloadState::Shedding => "shedding",
        }
    }

    fn from_u8(raw: u8) -> OverloadState {
        match raw {
            2 => OverloadState::Shedding,
            1 => OverloadState::Brownout,
            _ => OverloadState::Nominal,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            OverloadState::Nominal => 0,
            OverloadState::Brownout => 1,
            OverloadState::Shedding => 2,
        }
    }
}

/// What a request costs the node, for priority shedding. The order is
/// the shed order: pages go first (the paper's fallback is explicitly
/// safe — an unmodified page is still a page, and a 503'd page retry is
/// cheap), operator scrapes next (dashboards can miss a beat), report
/// ingest last (reports are the product — each one lost is measurement
/// data gone), and health probes never.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// `GET /oak/health` — never shed.
    Health,
    /// Page and static-object serves — shed at severity ≥ 1.
    Page,
    /// Operator surfaces (`/oak/stats`, `/oak/metrics`, `/oak/audit`,
    /// `/oak/trace/recent`) — shed at severity ≥ 2.
    Scrape,
    /// `POST /oak/report` ingest — shed only at severity ≥ 3.
    Report,
}

impl RequestClass {
    /// Classifies a request path (query already stripped).
    pub fn of(path: &str) -> RequestClass {
        match path {
            HEALTH_PATH => RequestClass::Health,
            REPORT_PATH => RequestClass::Report,
            STATS_PATH | METRICS_PATH | AUDIT_PATH | TRACE_PATH => RequestClass::Scrape,
            _ => RequestClass::Page,
        }
    }

    /// The label value in `oak_requests_shed_total{class=…}`.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestClass::Health => "health",
            RequestClass::Page => "page",
            RequestClass::Scrape => "scrape",
            RequestClass::Report => "report",
        }
    }

    /// The minimum shed severity at which this class is refused;
    /// `None` is never.
    fn shed_at(self) -> Option<u8> {
        match self {
            RequestClass::Health => None,
            RequestClass::Page => Some(1),
            RequestClass::Scrape => Some(2),
            RequestClass::Report => Some(3),
        }
    }
}

/// Thresholds and pacing for the controller. Each signal has a
/// brownout and a shed threshold; crossing *any* shed threshold puts
/// the node in [`OverloadState::Shedding`], any brownout threshold in
/// at least [`OverloadState::Brownout`]. A zero threshold disables
/// that signal.
#[derive(Clone, Copy, Debug)]
pub struct OverloadPolicy {
    /// Live signals are sampled at most once per this many milliseconds
    /// (the controller piggybacks on request handling; sampling is
    /// rate-limited, not scheduled).
    pub sample_every_ms: u64,
    /// Worker-queue depth (jobs parked behind the pool) thresholds.
    pub queue_brownout: u64,
    /// See [`OverloadPolicy::queue_brownout`].
    pub queue_shed: u64,
    /// Reactor loop lag (µs one iteration spent processing) thresholds.
    pub lag_brownout_us: u64,
    /// See [`OverloadPolicy::lag_brownout_us`].
    pub lag_shed_us: u64,
    /// Permit occupancy (live connections ÷ `max_connections`)
    /// thresholds, in `0.0..=1.0`.
    pub permit_brownout: f64,
    /// See [`OverloadPolicy::permit_brownout`].
    pub permit_shed: f64,
    /// Windowed ingest p99 (µs, over the last sampling window)
    /// thresholds.
    pub ingest_p99_brownout_us: u64,
    /// See [`OverloadPolicy::ingest_p99_brownout_us`].
    pub ingest_p99_shed_us: u64,
    /// The connection cap the permit signal is normalized against.
    pub max_connections: u64,
    /// Consecutive calm samples before stepping down one state.
    pub cooldown_samples: u32,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy {
            sample_every_ms: 100,
            queue_brownout: 16,
            queue_shed: 64,
            lag_brownout_us: 20_000,
            lag_shed_us: 100_000,
            permit_brownout: 0.80,
            permit_shed: 0.95,
            ingest_p99_brownout_us: 20_000,
            ingest_p99_shed_us: 100_000,
            max_connections: 1024,
            cooldown_samples: 5,
        }
    }
}

/// One sampled reading of every pressure signal. The live path builds
/// these in [`OverloadController::tick`]; the simulator constructs them
/// deterministically and calls [`OverloadController::observe`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PressureSample {
    /// Jobs queued for the worker pool, not yet picked up.
    pub queue_depth: u64,
    /// Reactor loop lag, µs.
    pub loop_lag_us: u64,
    /// Live connections ÷ connection cap.
    pub permit_occupancy: f64,
    /// Ingest p99 over the last sampling window, µs.
    pub ingest_p99_us: u64,
}

impl OverloadPolicy {
    /// The state this sample demands, ignoring hysteresis, plus the
    /// shed severity (1..=3) when that state is `Shedding`. Severity is
    /// the worst signal's multiple of its shed threshold: 1 under
    /// 1.5×, 2 under 2×, 3 at or beyond 2× — the priority ladder that
    /// decides which [`RequestClass`]es are refused.
    pub fn demand(&self, s: &PressureSample) -> (OverloadState, u8) {
        let ratios = [
            ratio(s.queue_depth as f64, self.queue_shed as f64),
            ratio(s.loop_lag_us as f64, self.lag_shed_us as f64),
            ratio(s.permit_occupancy, self.permit_shed),
            ratio(s.ingest_p99_us as f64, self.ingest_p99_shed_us as f64),
        ];
        let worst = ratios.iter().fold(0.0f64, |a, &b| a.max(b));
        if worst >= 1.0 {
            let severity = if worst >= 2.0 {
                3
            } else if worst >= 1.5 {
                2
            } else {
                1
            };
            return (OverloadState::Shedding, severity);
        }
        let browned = above(s.queue_depth as f64, self.queue_brownout as f64)
            || above(s.loop_lag_us as f64, self.lag_brownout_us as f64)
            || above(s.permit_occupancy, self.permit_brownout)
            || above(s.ingest_p99_us as f64, self.ingest_p99_brownout_us as f64);
        if browned {
            (OverloadState::Brownout, 0)
        } else {
            (OverloadState::Nominal, 0)
        }
    }
}

/// `value / threshold`, 0 when the signal is disabled.
fn ratio(value: f64, threshold: f64) -> f64 {
    if threshold <= 0.0 {
        0.0
    } else {
        value / threshold
    }
}

/// Threshold crossed (disabled thresholds never cross).
fn above(value: f64, threshold: f64) -> bool {
    threshold > 0.0 && value >= threshold
}

/// State behind the controller's mutex: sampling pacing, the cooldown
/// streak, and the previous ingest-histogram snapshot the windowed p99
/// is deltaed against.
struct ControllerInner {
    last_sample_ms: u64,
    calm_streak: u32,
    prev_ingest: Option<HistogramSnapshot>,
}

/// A point-in-time copy of the controller's observable state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadSnapshot {
    /// Current state as its wire number (0 nominal, 1 brownout, 2 shedding).
    pub state: u8,
    /// Current shed severity (0 outside Shedding).
    pub severity: u8,
    /// Page/object requests refused.
    pub shed_pages: u64,
    /// Operator scrapes refused.
    pub shed_scrapes: u64,
    /// Report ingests refused.
    pub shed_reports: u64,
    /// Pages served unrewritten under Brownout.
    pub pages_browned: u64,
    /// Times the controller entered Brownout (from below).
    pub brownout_entries: u64,
    /// Times the controller entered Shedding.
    pub shedding_entries: u64,
}

/// The hysteresis state machine plus its shed accounting. One instance
/// is shared by the service (gating dispatch), the transport admission
/// hook, and the operator surfaces.
pub struct OverloadController {
    policy: OverloadPolicy,
    /// `OverloadState` as its wire number, readable without the lock on
    /// every request.
    state: AtomicU8,
    severity: AtomicU8,
    inner: Mutex<ControllerInner>,
    shed_pages: AtomicU64,
    shed_scrapes: AtomicU64,
    shed_reports: AtomicU64,
    pages_browned: AtomicU64,
    brownout_entries: AtomicU64,
    shedding_entries: AtomicU64,
    /// Reactor gauges, once a server fronts the service.
    edge: OnceLock<Arc<EdgeStats>>,
    /// Transport counters: permit occupancy.
    transport: OnceLock<Arc<TransportStats>>,
    /// The engine's ingest-duration histogram, when observability is on.
    ingest: OnceLock<Arc<Histogram>>,
    /// Driven mode: `tick` never samples; only explicit `observe` calls
    /// move the machine. The simulator's determinism depends on it.
    driven: bool,
}

impl OverloadController {
    /// A live controller that samples attached signals on
    /// [`OverloadController::tick`].
    pub fn new(policy: OverloadPolicy) -> Arc<OverloadController> {
        Arc::new(OverloadController::build(policy, false))
    }

    /// A driven controller for deterministic harnesses: `tick` is a
    /// no-op; the harness feeds [`OverloadController::observe`]
    /// directly.
    pub fn driven(policy: OverloadPolicy) -> Arc<OverloadController> {
        Arc::new(OverloadController::build(policy, true))
    }

    fn build(policy: OverloadPolicy, driven: bool) -> OverloadController {
        OverloadController {
            policy,
            state: AtomicU8::new(OverloadState::Nominal.as_u8()),
            severity: AtomicU8::new(0),
            inner: Mutex::new(ControllerInner {
                last_sample_ms: 0,
                calm_streak: 0,
                prev_ingest: None,
            }),
            shed_pages: AtomicU64::new(0),
            shed_scrapes: AtomicU64::new(0),
            shed_reports: AtomicU64::new(0),
            pages_browned: AtomicU64::new(0),
            brownout_entries: AtomicU64::new(0),
            shedding_entries: AtomicU64::new(0),
            edge: OnceLock::new(),
            transport: OnceLock::new(),
            ingest: OnceLock::new(),
            driven,
        }
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Attaches the reactor gauges (queue depth, loop lag). First call
    /// wins, like the service's own post-start setters.
    pub fn attach_edge(&self, stats: Arc<EdgeStats>) {
        let _ = self.edge.set(stats);
    }

    /// Attaches the transport counters (permit occupancy).
    pub fn attach_transport(&self, stats: Arc<TransportStats>) {
        let _ = self.transport.set(stats);
    }

    /// Attaches the engine's ingest-duration histogram (windowed p99).
    pub fn attach_ingest(&self, histogram: Arc<Histogram>) {
        let _ = self.ingest.set(histogram);
    }

    /// Current state, lock-free.
    pub fn state(&self) -> OverloadState {
        OverloadState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Current shed severity (0 outside Shedding).
    pub fn severity(&self) -> u8 {
        self.severity.load(Ordering::Relaxed)
    }

    /// True in Brownout or worse: bypass page rewrites, stop tracing,
    /// stretch prune sweeps.
    pub fn brownout_active(&self) -> bool {
        self.state() >= OverloadState::Brownout
    }

    /// The prune-cadence multiplier: sweeps run this many times less
    /// often under pressure (background work is the first thing a
    /// saturated node should stop doing promptly).
    pub fn prune_stretch(&self) -> u64 {
        if self.brownout_active() {
            4
        } else {
            1
        }
    }

    /// Whether a request of `class` must be refused right now.
    pub fn should_shed(&self, class: RequestClass) -> bool {
        if self.state() != OverloadState::Shedding {
            return false;
        }
        class
            .shed_at()
            .is_some_and(|threshold| self.severity() >= threshold)
    }

    /// Builds the counted 503 + Retry-After for a shed request of
    /// `class`. Byte-identical wherever it is minted (service dispatch,
    /// the transport's admission hook), so a client cannot tell where
    /// in the stack it was refused.
    pub fn shed_response(&self, class: RequestClass) -> Response {
        let counter = match class {
            RequestClass::Page => &self.shed_pages,
            RequestClass::Scrape => &self.shed_scrapes,
            RequestClass::Report => &self.shed_reports,
            // Health is never shed; counting it would hide a bug.
            RequestClass::Health => &self.shed_pages,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Response::new(StatusCode::UNAVAILABLE)
            .with_body(b"overloaded; request shed".to_vec(), "text/plain")
            .with_header("Retry-After", &SHED_RETRY_AFTER_SECS.to_string())
    }

    /// Counts one page served unrewritten under Brownout.
    pub fn note_browned_page(&self) {
        self.pages_browned.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter and the current state.
    pub fn snapshot(&self) -> OverloadSnapshot {
        OverloadSnapshot {
            state: self.state.load(Ordering::Relaxed),
            severity: self.severity.load(Ordering::Relaxed),
            shed_pages: self.shed_pages.load(Ordering::Relaxed),
            shed_scrapes: self.shed_scrapes.load(Ordering::Relaxed),
            shed_reports: self.shed_reports.load(Ordering::Relaxed),
            pages_browned: self.pages_browned.load(Ordering::Relaxed),
            brownout_entries: self.brownout_entries.load(Ordering::Relaxed),
            shedding_entries: self.shedding_entries.load(Ordering::Relaxed),
        }
    }

    /// Live sampling entry point, called from request handling. At most
    /// once per [`OverloadPolicy::sample_every_ms`] it gathers the
    /// attached signals into a [`PressureSample`] and runs the
    /// transition. No-op on a driven controller.
    pub fn tick(&self, now_ms: u64) {
        if self.driven {
            return;
        }
        let sample = {
            let mut inner = self.inner.lock().expect("overload inner");
            if now_ms.saturating_sub(inner.last_sample_ms) < self.policy.sample_every_ms.max(1)
                && inner.last_sample_ms != 0
            {
                return;
            }
            inner.last_sample_ms = now_ms;
            self.gather(&mut inner)
        };
        self.observe(&sample, now_ms);
    }

    /// Builds a [`PressureSample`] from whatever signal sources are
    /// attached; absent sources read as zero pressure.
    fn gather(&self, inner: &mut ControllerInner) -> PressureSample {
        let mut sample = PressureSample::default();
        if let Some(edge) = self.edge.get() {
            let e = edge.snapshot();
            sample.queue_depth = e.worker_queue_depth;
            sample.loop_lag_us = e.loop_lag_us;
        }
        if let Some(transport) = self.transport.get() {
            let t = transport.snapshot();
            let live = t.connections_accepted.saturating_sub(t.connections_closed);
            sample.permit_occupancy = live as f64 / self.policy.max_connections.max(1) as f64;
        }
        if let Some(histogram) = self.ingest.get() {
            let snap = histogram.snapshot();
            if let Some(prev) = inner.prev_ingest.replace(snap.clone()) {
                sample.ingest_p99_us = window_quantile(&prev, &snap, 0.99).unwrap_or(0.0) as u64;
            }
        }
        sample
    }

    /// The pure transition function: applies one sample to the state
    /// machine. Escalation is immediate; de-escalation needs
    /// [`OverloadPolicy::cooldown_samples`] consecutive samples whose
    /// demanded state is strictly below the current one, and steps down
    /// one state at a time. Returns the state after the sample.
    pub fn observe(&self, sample: &PressureSample, now_ms: u64) -> OverloadState {
        let _ = now_ms; // the machine is sample-counted, not clocked
        let (demanded, demanded_severity) = self.policy.demand(sample);
        let mut inner = self.inner.lock().expect("overload inner");
        let current = self.state();
        let next = if demanded >= current {
            inner.calm_streak = 0;
            demanded
        } else {
            inner.calm_streak += 1;
            if inner.calm_streak >= self.policy.cooldown_samples.max(1) {
                inner.calm_streak = 0;
                OverloadState::from_u8(current.as_u8() - 1)
            } else {
                current
            }
        };
        // Severity tracks the sample while Shedding is demanded; during
        // a shedding cooldown only the gentlest class (pages) stays shed.
        let severity = match next {
            OverloadState::Shedding => demanded_severity.max(1),
            _ => 0,
        };
        self.severity.store(severity, Ordering::Relaxed);
        if next > current {
            match next {
                OverloadState::Brownout => {
                    self.brownout_entries.fetch_add(1, Ordering::Relaxed);
                }
                OverloadState::Shedding => {
                    self.shedding_entries.fetch_add(1, Ordering::Relaxed);
                    // Jumping Nominal → Shedding passes through Brownout
                    // conceptually; count the brownout entry too so the
                    // transition counters sum sensibly.
                    if current == OverloadState::Nominal {
                        self.brownout_entries.fetch_add(1, Ordering::Relaxed);
                    }
                }
                OverloadState::Nominal => {}
            }
        }
        self.state.store(next.as_u8(), Ordering::Relaxed);
        next
    }
}

/// The quantile of the *window* between two cumulative histogram
/// snapshots: bucket-wise delta, then the standard interpolated
/// histogram quantile. `None` when the window recorded nothing.
fn window_quantile(prev: &HistogramSnapshot, now: &HistogramSnapshot, q: f64) -> Option<f64> {
    if prev.buckets.len() != now.buckets.len() {
        return now.quantile(q);
    }
    let delta = HistogramSnapshot {
        bounds: Arc::clone(&now.bounds),
        buckets: now
            .buckets
            .iter()
            .zip(&prev.buckets)
            .map(|(n, p)| n.saturating_sub(*p))
            .collect(),
        sum: (now.sum - prev.sum).max(0.0),
    };
    delta.quantile(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> OverloadPolicy {
        OverloadPolicy {
            cooldown_samples: 3,
            ..OverloadPolicy::default()
        }
    }

    fn calm() -> PressureSample {
        PressureSample::default()
    }

    fn queue(depth: u64) -> PressureSample {
        PressureSample {
            queue_depth: depth,
            ..PressureSample::default()
        }
    }

    #[test]
    fn escalates_immediately_and_cools_down_stepwise() {
        let ctl = OverloadController::driven(policy());
        assert_eq!(ctl.observe(&queue(200), 0), OverloadState::Shedding);
        // Calm samples: stays Shedding through the cooldown, then steps
        // to Brownout (not straight to Nominal).
        assert_eq!(ctl.observe(&calm(), 1), OverloadState::Shedding);
        assert_eq!(ctl.observe(&calm(), 2), OverloadState::Shedding);
        assert_eq!(ctl.observe(&calm(), 3), OverloadState::Brownout);
        assert_eq!(ctl.observe(&calm(), 4), OverloadState::Brownout);
        assert_eq!(ctl.observe(&calm(), 5), OverloadState::Brownout);
        assert_eq!(ctl.observe(&calm(), 6), OverloadState::Nominal);
    }

    #[test]
    fn pressure_mid_cooldown_resets_the_streak() {
        let ctl = OverloadController::driven(policy());
        ctl.observe(&queue(200), 0);
        ctl.observe(&calm(), 1);
        ctl.observe(&calm(), 2);
        // Pressure returns: the streak restarts from zero.
        assert_eq!(ctl.observe(&queue(200), 3), OverloadState::Shedding);
        ctl.observe(&calm(), 4);
        ctl.observe(&calm(), 5);
        assert_eq!(ctl.state(), OverloadState::Shedding);
        assert_eq!(ctl.observe(&calm(), 6), OverloadState::Brownout);
    }

    #[test]
    fn severity_ladder_sheds_classes_in_priority_order() {
        let ctl = OverloadController::driven(policy());
        // queue_shed = 64: 1× → pages only.
        ctl.observe(&queue(64), 0);
        assert!(ctl.should_shed(RequestClass::Page));
        assert!(!ctl.should_shed(RequestClass::Scrape));
        assert!(!ctl.should_shed(RequestClass::Report));
        // 1.5× → pages + scrapes.
        ctl.observe(&queue(96), 1);
        assert!(ctl.should_shed(RequestClass::Scrape));
        assert!(!ctl.should_shed(RequestClass::Report));
        // 2× → everything but health.
        ctl.observe(&queue(128), 2);
        assert!(ctl.should_shed(RequestClass::Report));
        assert!(!ctl.should_shed(RequestClass::Health));
    }

    #[test]
    fn brownout_thresholds_sit_below_shedding() {
        let ctl = OverloadController::driven(policy());
        assert_eq!(ctl.observe(&queue(16), 0), OverloadState::Brownout);
        assert!(ctl.brownout_active());
        assert!(!ctl.should_shed(RequestClass::Page));
        assert_eq!(ctl.prune_stretch(), 4);
    }

    #[test]
    fn shed_response_counts_by_class_and_hints_retry() {
        let ctl = OverloadController::driven(policy());
        let response = ctl.shed_response(RequestClass::Report);
        assert_eq!(response.status, StatusCode::UNAVAILABLE);
        assert_eq!(
            response.header("retry-after"),
            Some(SHED_RETRY_AFTER_SECS.to_string().as_str())
        );
        assert_eq!(ctl.snapshot().shed_reports, 1);
    }

    #[test]
    fn windowed_quantile_ignores_history_before_the_window() {
        let hist = Histogram::new(oak_obs::DURATION_BOUNDS_US);
        for _ in 0..1_000 {
            hist.record(500_000.0); // ancient slowness
        }
        let prev = hist.snapshot();
        for _ in 0..100 {
            hist.record(100.0); // calm window
        }
        let now = hist.snapshot();
        let p99 = window_quantile(&prev, &now, 0.99).unwrap();
        assert!(
            p99 <= 1_000.0,
            "window p99 {p99} must reflect only the calm window"
        );
    }

    #[test]
    fn classifies_paths() {
        assert_eq!(RequestClass::of("/oak/health"), RequestClass::Health);
        assert_eq!(RequestClass::of("/oak/report"), RequestClass::Report);
        assert_eq!(RequestClass::of("/oak/stats"), RequestClass::Scrape);
        assert_eq!(RequestClass::of("/oak/metrics"), RequestClass::Scrape);
        assert_eq!(RequestClass::of("/index.html"), RequestClass::Page);
    }
}
