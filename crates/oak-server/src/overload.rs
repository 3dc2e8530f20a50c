//! Overload control: measure saturation, degrade deliberately.
//!
//! Every other guard in the stack (connection permits, admission
//! buckets, read deadlines) reacts to a single request; this module
//! reacts to the *node*. An [`OverloadController`] reads one signal —
//! the worker queue's minimum sojourn over an interval, which
//! [`oak_edge::EdgeStats`] keeps as workers dequeue — and drives a
//! level ladder:
//!
//! ```text
//! Nominal ─► Brownout ─► Shedding sev 1 ─► sev 2 ─► sev 3
//!   (< T)     (≥ T)        (≥ 2T)          (≥ 4T)   (≥ 8T)
//! ```
//!
//! The signal is CoDel's (Nichols & Jacobson, "Controlling Queue
//! Delay", ACM Queue 2012): the *minimum* sojourn is low whenever the
//! queue empties at least once in the interval, so a burst that drains
//! never trips it, while a standing queue does. `T` is
//! [`OverloadPolicy::target_us`].
//!
//! - **Brownout** degrades quality before refusing work: pages are
//!   served *unrewritten* (the paper's no-op fallback — an Oak outage
//!   "silently result[s] in pages being served as-is"), request traces
//!   stop, and prune sweeps stretch out.
//! - **Shedding** refuses work in priority order, cheapest loss first:
//!   pages at severity 1, operator scrapes at severity 2, report ingest
//!   only at severity 3 — and `/oak/health` never, so the load balancer
//!   can always tell a degraded node from a dead one. Every refusal is
//!   made in the transport's pre-queue admission hook
//!   ([`oak_http::Handler::admit`]), so a refused request never waits
//!   behind the work it would have added to.
//!
//! Escalation is immediate (one interval's reading); de-escalation
//! steps down one level per interval, so a node leaving deep shedding
//! admits reports, then scrapes, then pages, then rewrites again.
//!
//! The transition function ([`OverloadController::observe`]) is pure
//! state: `oak-sim` drives it with deterministic samples and checks it
//! against an independent reference model, while the live service feeds
//! it the edge's reading through [`OverloadController::tick`].

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use oak_edge::EdgeStats;
use oak_http::{Response, StatusCode, SHED_RETRY_AFTER_SECS};

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

    /// The state of a ladder level (0 nominal, 1 brownout, 2..=4
    /// shedding at severity 1..=3).
    fn of_level(level: u8) -> OverloadState {
        match level {
            0 => OverloadState::Nominal,
            1 => OverloadState::Brownout,
            _ => OverloadState::Shedding,
        }
    }
}

/// The top of the ladder: shedding at severity 3.
const MAX_LEVEL: u8 = 4;

/// How often (ms) the live controller reads and resets the edge's
/// minimum sojourn: CoDel's 100 ms interval.
pub const OVERLOAD_INTERVAL_MS: u64 = 100;

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
}

/// The controller's one target. The default is CoDel's 5 ms, read
/// over [`OVERLOAD_INTERVAL_MS`].
#[derive(Clone, Copy, Debug)]
pub struct OverloadPolicy {
    /// The standing queue delay (µs) the node tolerates. A minimum
    /// sojourn at or above it browns out; each doubling climbs one
    /// shed severity.
    pub target_us: u64,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy { target_us: 5_000 }
    }
}

impl OverloadPolicy {
    /// The ladder level an interval's minimum sojourn (µs) demands,
    /// ignoring hysteresis: 0 below the target, 1 (brownout) from it,
    /// and 2, 3, 4 (shed severity 1, 2, 3) from 2×, 4× and 8× it.
    pub fn demand(&self, min_sojourn_us: u64) -> u8 {
        let mut bar = self.target_us.max(1);
        let mut level = 0;
        while level < MAX_LEVEL && min_sojourn_us >= bar {
            level += 1;
            bar = bar.saturating_mul(2);
        }
        level
    }
}

/// A point-in-time copy of the controller's observable state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadSnapshot {
    /// Current state as its wire number (0 nominal, 1 brownout, 2 shedding).
    pub state: u8,
    /// Current shed severity (0 outside Shedding).
    pub severity: u8,
    /// The last interval's minimum queue sojourn, µs.
    pub min_sojourn_us: u64,
    /// Page/object requests refused.
    pub shed_pages: u64,
    /// Operator scrapes refused.
    pub shed_scrapes: u64,
    /// Report ingests refused.
    pub shed_reports: u64,
    /// Pages served unrewritten under Brownout.
    pub pages_browned: u64,
    /// Times the controller entered Brownout (from Nominal).
    pub brownout_entries: u64,
    /// Times the controller entered Shedding.
    pub shedding_entries: u64,
}

/// The ladder plus its shed accounting. One instance is shared by the
/// service (brownout, and the admission hook that sheds) and the
/// operator surfaces.
#[derive(Default)]
pub struct OverloadController {
    policy: OverloadPolicy,
    /// The ladder level (0..=[`MAX_LEVEL`]), readable without a lock on
    /// every request.
    level: AtomicU8,
    /// The reading the current level was decided on.
    min_sojourn_us: AtomicU64,
    /// Service-clock ms before which `tick` does not read the edge;
    /// `u64::MAX` on a driven controller, whose next interval never
    /// comes, so only explicit `observe` calls move it (the simulator's
    /// determinism depends on it).
    next_sample_ms: AtomicU64,
    shed_pages: AtomicU64,
    shed_scrapes: AtomicU64,
    shed_reports: AtomicU64,
    pages_browned: AtomicU64,
    brownout_entries: AtomicU64,
    shedding_entries: AtomicU64,
    /// Reactor gauges, once a server fronts the service.
    edge: OnceLock<Arc<EdgeStats>>,
}

impl OverloadController {
    /// A live controller that reads the attached edge on
    /// [`OverloadController::tick`].
    pub fn new(policy: OverloadPolicy) -> Arc<OverloadController> {
        Arc::new(OverloadController {
            policy,
            ..OverloadController::default()
        })
    }

    /// A driven controller for deterministic harnesses: `tick` is a
    /// no-op; the harness feeds [`OverloadController::observe`]
    /// directly.
    pub fn driven(policy: OverloadPolicy) -> Arc<OverloadController> {
        Arc::new(OverloadController {
            policy,
            next_sample_ms: AtomicU64::new(u64::MAX),
            ..OverloadController::default()
        })
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Attaches the reactor gauges the signal is read from. First call
    /// wins, like the service's own post-start setters.
    pub fn attach_edge(&self, stats: Arc<EdgeStats>) {
        let _ = self.edge.set(stats);
    }

    fn level(&self) -> u8 {
        self.level.load(Ordering::Relaxed)
    }

    /// Current state, lock-free.
    pub fn state(&self) -> OverloadState {
        OverloadState::of_level(self.level())
    }

    /// Current shed severity (0 outside Shedding).
    pub fn severity(&self) -> u8 {
        match self.level() {
            0 | 1 => 0,
            level => level - 1,
        }
    }

    /// True in Brownout or worse: bypass page rewrites, stop tracing,
    /// stretch prune sweeps.
    pub fn brownout_active(&self) -> bool {
        self.level() >= 1
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

    /// The counted 503 + Retry-After when a request of `class` must be
    /// refused right now, `None` when it is served. Health is never
    /// refused.
    pub fn shed(&self, class: RequestClass) -> Option<Response> {
        let (severity, counter) = match class {
            RequestClass::Health => return None,
            RequestClass::Page => (1, &self.shed_pages),
            RequestClass::Scrape => (2, &self.shed_scrapes),
            RequestClass::Report => (3, &self.shed_reports),
        };
        if self.severity() < severity {
            return None;
        }
        counter.fetch_add(1, Ordering::Relaxed);
        Some(
            Response::new(StatusCode::UNAVAILABLE)
                .with_body(b"overloaded; request shed".to_vec(), "text/plain")
                .with_header("Retry-After", &SHED_RETRY_AFTER_SECS.to_string()),
        )
    }

    /// Counts one page served unrewritten under Brownout.
    pub fn note_browned_page(&self) {
        self.pages_browned.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter and the current state.
    pub fn snapshot(&self) -> OverloadSnapshot {
        OverloadSnapshot {
            state: self.level().min(2),
            severity: self.severity(),
            min_sojourn_us: self.min_sojourn_us.load(Ordering::Relaxed),
            shed_pages: self.shed_pages.load(Ordering::Relaxed),
            shed_scrapes: self.shed_scrapes.load(Ordering::Relaxed),
            shed_reports: self.shed_reports.load(Ordering::Relaxed),
            pages_browned: self.pages_browned.load(Ordering::Relaxed),
            brownout_entries: self.brownout_entries.load(Ordering::Relaxed),
            shedding_entries: self.shedding_entries.load(Ordering::Relaxed),
        }
    }

    /// Live entry point, called from the admission hook with the
    /// service clock. Once per [`OVERLOAD_INTERVAL_MS`] it takes the
    /// edge's minimum sojourn (resetting it) and runs the transition;
    /// an interval in which queued jobs waited but none was dequeued
    /// (stalled workers) holds the level instead of reading calm.
    /// No-op on a driven controller or before a server is attached.
    pub fn tick(&self, now_ms: u64) {
        let Some(edge) = self.edge.get() else {
            return;
        };
        let due = self.next_sample_ms.load(Ordering::Relaxed);
        if now_ms < due {
            return;
        }
        let next = now_ms.saturating_add(OVERLOAD_INTERVAL_MS);
        if self
            .next_sample_ms
            .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            if let Some(min_sojourn_us) = edge.take_min_sojourn_us() {
                self.observe(min_sojourn_us);
            }
        }
    }

    /// The pure transition function: applies one interval's reading,
    /// its minimum queue sojourn in µs. The live path reads it in
    /// [`OverloadController::tick`]; the simulator derives it from its
    /// seed. Escalation to the demanded level is immediate; below it,
    /// the level steps down by one. Returns the state after the reading.
    pub fn observe(&self, min_sojourn_us: u64) -> OverloadState {
        let demanded = self.policy.demand(min_sojourn_us);
        self.min_sojourn_us.store(min_sojourn_us, Ordering::Relaxed);
        let next_of = |current: u8| demanded.max(current.saturating_sub(1));
        let current = self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(next_of(c)))
            .unwrap_or_else(|c| c);
        let next = next_of(current);
        if current == 0 && next >= 1 {
            self.brownout_entries.fetch_add(1, Ordering::Relaxed);
        }
        if current < 2 && next >= 2 {
            self.shedding_entries.fetch_add(1, Ordering::Relaxed);
        }
        OverloadState::of_level(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reading of `n` targets of the default policy.
    fn sojourn(n: u64) -> u64 {
        n * OverloadPolicy::default().target_us
    }

    #[test]
    fn escalates_immediately_and_steps_down_one_level_per_interval() {
        let ctl = OverloadController::driven(OverloadPolicy::default());
        assert_eq!(ctl.observe(sojourn(8)), OverloadState::Shedding);
        assert_eq!(ctl.severity(), 3);
        // Calm readings: severity 2, then 1, then Brownout, then Nominal.
        let calm = 0;
        assert_eq!(ctl.observe(calm), OverloadState::Shedding);
        assert_eq!(ctl.severity(), 2);
        assert_eq!(ctl.observe(calm), OverloadState::Shedding);
        assert_eq!(ctl.severity(), 1);
        assert_eq!(ctl.observe(calm), OverloadState::Brownout);
        assert_eq!(ctl.severity(), 0);
        assert_eq!(ctl.observe(calm), OverloadState::Nominal);
        let snap = ctl.snapshot();
        assert_eq!((snap.brownout_entries, snap.shedding_entries), (1, 1));
    }

    #[test]
    fn pressure_mid_descent_climbs_straight_back() {
        let ctl = OverloadController::driven(OverloadPolicy::default());
        ctl.observe(sojourn(8));
        ctl.observe(0);
        assert_eq!(ctl.severity(), 2);
        // A reading above the current level escalates at once; one
        // below it still only steps down.
        ctl.observe(sojourn(8));
        assert_eq!(ctl.severity(), 3);
        ctl.observe(sojourn(1));
        assert_eq!(ctl.severity(), 2);
        assert_eq!(ctl.snapshot().shedding_entries, 1);
    }

    #[test]
    fn severity_ladder_sheds_classes_in_priority_order() {
        let ctl = OverloadController::driven(OverloadPolicy::default());
        // Just under the target: nothing happens.
        ctl.observe(OverloadPolicy::default().target_us - 1);
        assert_eq!(ctl.state(), OverloadState::Nominal);
        // 1×: brownout, nothing refused.
        ctl.observe(sojourn(1));
        assert!(ctl.brownout_active());
        assert_eq!(ctl.prune_stretch(), 4);
        assert!(ctl.shed(RequestClass::Page).is_none());
        // 2× → pages only.
        ctl.observe(sojourn(2));
        assert!(ctl.shed(RequestClass::Page).is_some());
        assert!(ctl.shed(RequestClass::Scrape).is_none());
        assert!(ctl.shed(RequestClass::Report).is_none());
        // 4× → pages + scrapes.
        ctl.observe(sojourn(4));
        assert!(ctl.shed(RequestClass::Scrape).is_some());
        assert!(ctl.shed(RequestClass::Report).is_none());
        // 8× → everything but health.
        ctl.observe(sojourn(8));
        assert!(ctl.shed(RequestClass::Report).is_some());
        assert!(ctl.shed(RequestClass::Health).is_none());
    }

    #[test]
    fn shed_counts_by_class_and_hints_retry() {
        let ctl = OverloadController::driven(OverloadPolicy::default());
        ctl.observe(sojourn(8));
        let response = ctl.shed(RequestClass::Report).expect("severity 3");
        assert_eq!(response.status, StatusCode::UNAVAILABLE);
        assert_eq!(
            response.header("retry-after"),
            Some(SHED_RETRY_AFTER_SECS.to_string().as_str())
        );
        assert!(ctl.shed(RequestClass::Health).is_none());
        let snap = ctl.snapshot();
        assert_eq!(
            (snap.shed_reports, snap.shed_pages, snap.shed_scrapes),
            (1, 0, 0)
        );
        assert_eq!(snap.min_sojourn_us, 8 * OverloadPolicy::default().target_us);
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
