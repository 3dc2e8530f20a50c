//! Violator detection.
//!
//! "We then label all servers whose performance was worse than the median
//! (i.e., longer time, lower throughput) by more than twice the MAD as
//! being potential violators." (§4.2.1) Both tests run when a server has
//! both small and large objects; either suffices to label it.

use crate::analysis::{PageAnalysis, ServerStats};
use crate::stats::{mean, median_and_mad, stddev};

/// Which criterion anchors the outlier test.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum OutlierMethod {
    /// Median ± k·MAD — the paper's choice: robust, because the statistic
    /// must not be dragged by the outliers it hunts.
    #[default]
    Mad,
    /// Mean ± k·σ — kept as an ablation; the experiment harness shows it
    /// under-detects when one extreme server inflates σ.
    StdDev,
    /// Fixed absolute bounds — the alternative §6 discusses and rejects:
    /// "Oak could employ absolute conditions of performance, for example
    /// a maximum time or minimum throughput for a specific object".
    /// Requires operator-tuned parameters and mislabels every server for
    /// clients on slow links; kept as an ablation.
    Absolute {
        /// Small objects slower than this are violators, ms.
        max_small_ms: f64,
        /// Large objects below this throughput are violators, kbit/s.
        min_large_kbps: f64,
    },
}

/// Which detection policy the engine runs on each ingested report.
///
/// The policy is a seam, not a parameter tweak: [`DetectorPolicy::Global`]
/// is the paper's within-report test, stateless across reports;
/// [`DetectorPolicy::Cohort`] layers per-(device-class, server) historical
/// baselines on top (see [`crate::cohort`]) so that slowness every report
/// from a cohort exhibits — mobile CPUs paying for ad-chain script, not a
/// failing server — stops being flagged. Selected by `oak-serve
/// --detector`; the default is the paper's detector, and with the default
/// every operator surface is byte-identical to the pre-seam engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DetectorPolicy {
    /// The paper's §4.2.1 test: per-report medians over all servers.
    #[default]
    Global,
    /// Global test gated by per-cohort baselines: a server is only
    /// blamed when it is an outlier within the report *and* it deviates
    /// from what this device cohort has historically seen from it.
    Cohort,
}

impl DetectorPolicy {
    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            DetectorPolicy::Global => "global",
            DetectorPolicy::Cohort => "cohort",
        }
    }

    /// Parses the CLI spelling; `None` for anything else.
    pub fn parse(text: &str) -> Option<DetectorPolicy> {
        match text {
            "global" => Some(DetectorPolicy::Global),
            "cohort" => Some(DetectorPolicy::Cohort),
            _ => None,
        }
    }
}

/// Detection parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectorConfig {
    /// The `k` in `median + k·MAD`; the paper uses 2.
    pub threshold: f64,
    /// Deviation statistic (MAD by default).
    pub method: OutlierMethod,
    /// Minimum number of servers on a page for detection to run; with
    /// fewer there is no meaningful population to deviate from.
    pub min_servers: usize,
}

impl Default for DetectorConfig {
    /// The paper's parameters: `2 × MAD`, at least 3 servers.
    fn default() -> DetectorConfig {
        DetectorConfig {
            threshold: 2.0,
            method: OutlierMethod::Mad,
            min_servers: 3,
        }
    }
}

/// Why a server was flagged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ViolationKind {
    /// Average small-object time exceeded `median + k·dev`.
    SlowSmallObjects {
        /// The server's average small-object time, ms.
        observed_ms: f64,
        /// Median of all servers' averages, ms.
        median_ms: f64,
        /// The deviation statistic (MAD or σ), ms.
        deviation_ms: f64,
    },
    /// Average large-object throughput fell below `median − k·dev`.
    LowThroughput {
        /// The server's average large-object throughput, kbit/s.
        observed_kbps: f64,
        /// Median of all servers' averages, kbit/s.
        median_kbps: f64,
        /// The deviation statistic (MAD or σ), kbit/s.
        deviation_kbps: f64,
    },
}

impl ViolationKind {
    /// Distance past the median, in units of the deviation statistic —
    /// the "difference between the median performance and the performance
    /// of the violator" that rule history records (§4.2.3), normalized so
    /// time- and throughput-based violations compare on one scale.
    pub fn severity(&self) -> f64 {
        match *self {
            ViolationKind::SlowSmallObjects {
                observed_ms,
                median_ms,
                deviation_ms,
            } => (observed_ms - median_ms) / deviation_ms.max(f64::EPSILON),
            ViolationKind::LowThroughput {
                observed_kbps,
                median_kbps,
                deviation_kbps,
            } => (median_kbps - observed_kbps) / deviation_kbps.max(f64::EPSILON),
        }
    }
}

/// A flagged server.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The violating server's IP.
    pub ip: String,
    /// Domains that resolved to that IP in this report.
    pub domains: Vec<String>,
    /// Why it was flagged (first failing test when both apply; small-object
    /// time is checked first, matching the paper's presentation order).
    pub kind: ViolationKind,
}

impl Violation {
    /// Flags `server`. The analysis borrows its strings from the report;
    /// a violation outlives both, so this is where — for the zero or one
    /// violators of a typical report — they are copied.
    fn of(server: &ServerStats<'_>, kind: ViolationKind) -> Violation {
        Violation {
            ip: server.ip.to_owned(),
            domains: server.domains.iter().map(|d| d.to_string()).collect(),
            kind,
        }
    }
}

/// Runs violator detection over an analyzed page.
///
/// Returns violations in IP order. Servers lacking the relevant object
/// class are simply not tested on that axis; "a violation of either type
/// will result in the server being labeled as a violator".
pub fn detect_violators(analysis: &PageAnalysis<'_>, config: &DetectorConfig) -> Vec<Violation> {
    if analysis.server_count() < config.min_servers {
        return Vec::new();
    }
    if let OutlierMethod::Absolute {
        max_small_ms,
        min_large_kbps,
    } = config.method
    {
        return detect_absolute(analysis, max_small_ms, min_large_kbps);
    }

    // Population statistics over per-server averages (at most one per
    // server: sized once, not grown).
    let mut small_avgs = Vec::with_capacity(analysis.server_count());
    small_avgs.extend(analysis.iter().filter_map(|s| s.avg_small_time_ms()));
    let mut large_avgs = Vec::with_capacity(analysis.server_count());
    large_avgs.extend(analysis.iter().filter_map(|s| s.avg_large_tput_kbps()));

    let small_stats = center_and_deviation(&small_avgs, config.method);
    let large_stats = center_and_deviation(&large_avgs, config.method);

    let mut violations = Vec::new();
    for server in analysis.iter() {
        let small_violation = match (server.avg_small_time_ms(), small_stats) {
            (Some(observed), Some((center, dev))) if dev > 0.0 => (observed
                > center + config.threshold * dev)
                .then_some(ViolationKind::SlowSmallObjects {
                    observed_ms: observed,
                    median_ms: center,
                    deviation_ms: dev,
                }),
            _ => None,
        };
        let large_violation = match (server.avg_large_tput_kbps(), large_stats) {
            (Some(observed), Some((center, dev))) if dev > 0.0 => (observed
                < center - config.threshold * dev)
                .then_some(ViolationKind::LowThroughput {
                    observed_kbps: observed,
                    median_kbps: center,
                    deviation_kbps: dev,
                }),
            _ => None,
        };
        if let Some(kind) = small_violation.or(large_violation) {
            violations.push(Violation::of(server, kind));
        }
    }
    violations
}

fn center_and_deviation(values: &[f64], method: OutlierMethod) -> Option<(f64, f64)> {
    match method {
        OutlierMethod::Mad => median_and_mad(values),
        OutlierMethod::StdDev => Some((mean(values)?, stddev(values)?)),
        OutlierMethod::Absolute { .. } => unreachable!("absolute handled before statistics"),
    }
}

/// Fixed-bound detection (the §6 ablation). Violation records reuse the
/// relative-detection fields: the bound plays the role of the center, and
/// half the bound the deviation, so severities stay comparable-ish across
/// methods.
fn detect_absolute(
    analysis: &PageAnalysis<'_>,
    max_small_ms: f64,
    min_large_kbps: f64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for server in analysis.iter() {
        let small = server
            .avg_small_time_ms()
            .filter(|&t| t > max_small_ms)
            .map(|observed| ViolationKind::SlowSmallObjects {
                observed_ms: observed,
                median_ms: max_small_ms,
                deviation_ms: max_small_ms / 2.0,
            });
        let large = server
            .avg_large_tput_kbps()
            .filter(|&t| t < min_large_kbps)
            .map(|observed| ViolationKind::LowThroughput {
                observed_kbps: observed,
                median_kbps: min_large_kbps,
                deviation_kbps: min_large_kbps / 2.0,
            });
        if let Some(kind) = small.or(large) {
            violations.push(Violation::of(server, kind));
        }
    }
    violations
}
