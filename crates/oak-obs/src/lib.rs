//! Observability for the Oak stack.
//!
//! Oak's whole premise is making performance decisions from measured
//! timings; this crate is how the server measures *itself*. It provides,
//! with no dependencies beyond `std`:
//!
//! - [`Registry`]: a lock-striped home for labeled [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s. Hot paths
//!   hold pre-resolved `Arc` handles, so recording is a couple of atomic
//!   operations and never touches a registry lock.
//! - [`expo`]: Prometheus text exposition format v0.0.4 rendering —
//!   `# HELP`/`# TYPE` headers, `_bucket`/`_sum`/`_count` histogram
//!   series, and stable (sorted) name and label ordering, so two scrapes
//!   of the same state are byte-identical.
//! - [`trace`]: lightweight span tracing. A request opens a trace, each
//!   instrumented stage pushes a `(name, start, dur)` span into a bounded
//!   per-trace vec via a thread-local, and completed traces land in a
//!   ring buffer; traces slower than a threshold are logged with their
//!   full span tree.
//! - [`validate`]: a line-grammar validator for the exposition format,
//!   shared by the conformance tests and the `oak-metrics-lint` binary.
//! - [`threads`]: this process's CPU time and context switches by
//!   thread class, read from `/proc/self/task` at scrape time.
//!
//! # Clocks
//!
//! Every duration this crate measures comes from a [`Clock`] the embedder
//! installs: wall time in production ([`wall_clock`]), simulated or
//! scripted time in tests and `oak-sim` ([`fixed_clock`], [`step_clock`]).
//! Nothing here ever consults a clock it wasn't handed, which is what
//! makes metric values and span trees reproducible under a seed.
//!
//! # Naming scheme
//!
//! Metric families follow `oak_<subsystem>_<name>_<unit>` — e.g.
//! `oak_http_read_duration_us`, `oak_wal_append_count`. Counters end in
//! `_total` or `_count`; histograms name their unit (`_us`).

pub mod expo;
pub mod metrics;
pub mod threads;
pub mod trace;
pub mod validate;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub use expo::{encode, Family, FamilyKind, Series, SeriesValue};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, DURATION_BOUNDS_US,
    MAX_SERIES_PER_FAMILY,
};
pub use trace::{span, Span, SpanGuard, Trace, TraceGuard, Tracer};
pub use validate::{parse_samples, validate_exposition, Sample};

/// A monotonic nanosecond clock, installed by the embedder.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Wall time: monotonic nanoseconds since the first call in this process.
///
/// The zero point is shared process-wide so every subsystem's timestamps
/// are mutually comparable.
pub fn wall_clock() -> Clock {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    Arc::new(|| {
        EPOCH
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_nanos() as u64
    })
}

/// A clock frozen at `ns` — durations measured under it are all zero.
/// The conformance suite uses this to pin histogram contents exactly.
pub fn fixed_clock(ns: u64) -> Clock {
    Arc::new(move || ns)
}

/// A clock that advances by `step_ns` on every read, starting at zero.
/// Deterministic but non-degenerate: a stage bounded by two reads always
/// measures exactly `step_ns` per intervening read.
pub fn step_clock(step_ns: u64) -> Clock {
    let ticks = AtomicU64::new(0);
    Arc::new(move || ticks.fetch_add(1, Ordering::Relaxed) * step_ns)
}

/// Microseconds between two nanosecond clock readings, rounding up so a
/// nonzero duration never records as zero.
pub fn elapsed_us(start_ns: u64, end_ns: u64) -> f64 {
    let ns = end_ns.saturating_sub(start_ns);
    if ns == 0 {
        0.0
    } else {
        ns.div_ceil(1000) as f64
    }
}

#[cfg(test)]
mod tests;
