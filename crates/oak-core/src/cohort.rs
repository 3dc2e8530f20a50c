//! Per-device-cohort violator baselines.
//!
//! The paper's detector compares servers *within one report* (§4.2.1),
//! which silently assumes every server is equally expensive for every
//! client. PAPERS.md says otherwise: mobile CPUs pay an order of
//! magnitude more to execute script than desktops, and ad chains are
//! almost pure script — so a low-end phone's report makes every healthy
//! ad server look like an outlier, and the global test blames servers
//! for the client's own silicon.
//!
//! The cohort policy ([`crate::detect::DetectorPolicy::Cohort`]) keeps
//! the paper's test as a *candidate generator* and adds a second,
//! conjunctive condition: the server must also deviate from what **this
//! device cohort** has historically observed from **this server**. A
//! slow-for-everyone-on-mobile ad server sits exactly at its cohort
//! baseline and is exonerated; a server that suddenly degrades exceeds
//! its own history for every cohort and stays flagged.
//!
//! Two consequences, both deliberate:
//!
//! - **False positives only shrink.** A cohort flag requires a global
//!   flag first, so `FP(cohort) ⊆ FP(global)` holds by construction —
//!   which is what makes the CI gate ("cohort strictly below global on
//!   the mobile mix") and the oak-sim device invariant ("never blame a
//!   healthy server for device-induced slowness") robust rather than
//!   statistical luck.
//! - **Chronic outliers are forgiven.** A server that has been slow
//!   since before its baseline warmed — or one whose impairment
//!   persists long enough to *become* the baseline — stops being
//!   flagged. That is a real false-negative cost, paid knowingly and
//!   measured honestly by the `detector` row of oak-bench's `repro`
//!   (BENCH_paper.json carries both FP and FN rates for both policies).
//!
//! Baselines are bounded (ring buffers per key, a hard cap on tracked
//! keys) and deliberately *not* durable: they are advisory statistics,
//! not state the engine's event log must replay, so snapshots and the
//! WAL stay byte-identical with the seam in place. After recovery the
//! baselines are cold and the cohort detector abstains until they
//! re-warm — conservative in exactly the direction the policy already
//! leans.

use std::collections::HashMap;

use crate::analysis::PageAnalysis;
use crate::detect::{detect_violators, DetectorConfig, Violation, ViolationKind};
use crate::report::DeviceClass;
use crate::stats::median_and_mad;

/// Cohort-baseline parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CohortConfig {
    /// Observations a `(cohort, server)` baseline needs before the
    /// cohort test will confirm a flag. Below this the baseline is cold
    /// and the policy abstains (drops the candidate flag).
    pub min_samples: usize,
    /// Ring capacity per `(cohort, server)` metric: old observations
    /// age out, so a migrated server or repriced path re-baselines
    /// within this many reports.
    pub ring: usize,
    /// Multiplicative guard band on the historical median. A candidate
    /// survives only past `guard × median + k·MAD` (times) or under
    /// `(median − k·MAD) / guard` (throughput). Diurnal load swings and
    /// per-fetch noise move a healthy server well under 2×; a real
    /// impairment (3–8× in the simulated world, and in the paper's
    /// Fig. 9 injections) clears it.
    pub guard: f64,
    /// Hard cap on tracked `(cohort, server)` keys. Past it, new keys
    /// are not created — their candidates are dropped as cold — so a
    /// hostile report stream cannot grow this table without bound.
    pub max_keys: usize,
}

impl Default for CohortConfig {
    fn default() -> CohortConfig {
        CohortConfig {
            min_samples: 8,
            ring: 64,
            guard: 2.0,
            max_keys: 4096,
        }
    }
}

/// A fixed-capacity ring of `f64` observations.
#[derive(Clone, Debug, Default)]
struct Ring {
    samples: Vec<f64>,
    /// Overwrite position once `samples` reaches capacity.
    next: usize,
}

impl Ring {
    fn push(&mut self, value: f64, capacity: usize) {
        if self.samples.len() < capacity {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.next = (self.next + 1) % capacity.max(1);
        }
    }
}

/// What one cohort has seen from one server.
#[derive(Clone, Debug, Default)]
struct ServerBaseline {
    /// Per-report average small-object times, ms.
    small_ms: Ring,
    /// Per-report average large-object throughputs, kbit/s.
    large_kbps: Ring,
}

/// The cohort detector's working state: per-(device class, server IP)
/// observation rings. Owned by the engine behind a mutex; one
/// `detect_and_update` call per ingested report.
#[derive(Debug, Default)]
pub struct CohortBaselines {
    config: CohortConfig,
    per: HashMap<(DeviceClass, String), ServerBaseline>,
}

impl CohortBaselines {
    /// Empty baselines with the given parameters.
    pub fn new(config: CohortConfig) -> CohortBaselines {
        CohortBaselines {
            config,
            per: HashMap::new(),
        }
    }

    /// Tracked `(cohort, server)` keys — bounded by
    /// [`CohortConfig::max_keys`].
    pub fn tracked_keys(&self) -> usize {
        self.per.len()
    }

    /// Runs cohort-gated detection over one analyzed report, then folds
    /// the report's per-server observations into `device`'s baselines.
    ///
    /// The candidate set is exactly [`detect_violators`]'s output; each
    /// candidate survives only when its `(device, ip)` baseline is warm
    /// and the observation exceeds the guarded historical envelope.
    /// Updating *after* testing keeps the current observation out of
    /// its own baseline.
    pub fn detect_and_update(
        &mut self,
        analysis: &PageAnalysis<'_>,
        device: DeviceClass,
        detector: &DetectorConfig,
    ) -> Vec<Violation> {
        let mut violations = detect_violators(analysis, detector);
        violations.retain(|v| self.confirms(device, v, detector));
        self.update(analysis, device);
        violations
    }

    /// Whether the cohort baseline confirms a candidate flag.
    fn confirms(&self, device: DeviceClass, candidate: &Violation, det: &DetectorConfig) -> bool {
        let Some(baseline) = self.per.get(&(device, candidate.ip.clone())) else {
            return false;
        };
        let (ring, observed) = match candidate.kind {
            ViolationKind::SlowSmallObjects { observed_ms, .. } => {
                (&baseline.small_ms, observed_ms)
            }
            ViolationKind::LowThroughput { observed_kbps, .. } => {
                (&baseline.large_kbps, observed_kbps)
            }
        };
        if ring.samples.len() < self.config.min_samples {
            return false;
        }
        let Some((median, mad)) = median_and_mad(&ring.samples) else {
            return false;
        };
        match candidate.kind {
            ViolationKind::SlowSmallObjects { .. } => {
                observed > self.config.guard * median + det.threshold * mad
            }
            ViolationKind::LowThroughput { .. } => {
                observed < (median - det.threshold * mad).max(0.0) / self.config.guard
            }
        }
    }

    /// Folds one report's per-server averages into `device`'s rings.
    fn update(&mut self, analysis: &PageAnalysis<'_>, device: DeviceClass) {
        for server in analysis.iter() {
            let key = (device, server.ip.to_owned());
            // At capacity, untracked servers stay cold (and thus
            // unflaggable by this policy) rather than unbounded.
            if !self.per.contains_key(&key) && self.per.len() >= self.config.max_keys {
                continue;
            }
            let baseline = self.per.entry(key).or_default();
            if let Some(t) = server.avg_small_time_ms() {
                baseline.small_ms.push(t, self.config.ring);
            }
            if let Some(k) = server.avg_large_tput_kbps() {
                baseline.large_kbps.push(k, self.config.ring);
            }
        }
    }
}
