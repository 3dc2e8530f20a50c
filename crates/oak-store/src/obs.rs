//! Durability instrumentation: WAL and snapshot metrics.
//!
//! [`StoreMetrics`] registers the store's families once and holds
//! pre-resolved handles; [`crate::OakStore::set_obs`] attaches a bundle
//! to one store instance (each boot opens a fresh store, so the bundle
//! is set once per instance and never contended).

use std::fmt;
use std::sync::Arc;

use oak_obs::{elapsed_us, Clock, Counter, Histogram, Registry, DURATION_BOUNDS_US};

/// Pre-resolved handles for the store's metric families.
pub struct StoreMetrics {
    clock: Clock,
    /// `oak_wal_append_count` — events handed to the WAL (attempted
    /// appends; failures are also counted in `wal_append_errors`).
    pub wal_appends: Arc<Counter>,
    /// `oak_wal_append_bytes_total` — bytes those appends framed: event
    /// payload plus the 8-byte frame header. Over `wal_appends`, the
    /// journal's bytes per event.
    pub wal_append_bytes: Arc<Counter>,
    /// `oak_wal_append_errors_total` — appends that failed with I/O
    /// errors (the sink swallows them; this is the operator's signal).
    pub wal_append_errors: Arc<Counter>,
    /// `oak_wal_append_duration_us` — one event append, including any
    /// policy-driven fsync.
    pub append: Arc<Histogram>,
    /// `oak_wal_fsync_duration_us` — policy-driven fsyncs inside appends.
    pub fsync: Arc<Histogram>,
    /// `oak_store_snapshot_duration_us` — one full snapshot + compaction.
    pub snapshot: Arc<Histogram>,
    /// `oak_store_snapshots_total` — snapshots successfully written.
    pub snapshots: Arc<Counter>,
}

impl StoreMetrics {
    /// Registers the store families in `registry`; durations are
    /// measured with `clock`.
    pub fn new(registry: &Registry, clock: Clock) -> Arc<StoreMetrics> {
        Arc::new(StoreMetrics {
            clock,
            wal_appends: registry.counter(
                "oak_wal_append_count",
                "Engine events handed to the write-ahead log.",
                &[],
            ),
            wal_append_bytes: registry.counter(
                "oak_wal_append_bytes_total",
                "Bytes handed to the write-ahead log (event payloads plus frame headers).",
                &[],
            ),
            wal_append_errors: registry.counter(
                "oak_wal_append_errors_total",
                "WAL appends that failed with an I/O error.",
                &[],
            ),
            append: registry.histogram(
                "oak_wal_append_duration_us",
                "Time to append one event to the WAL (including policy fsyncs).",
                &[],
                DURATION_BOUNDS_US,
            ),
            fsync: registry.histogram(
                "oak_wal_fsync_duration_us",
                "Time per policy-driven WAL fsync.",
                &[],
                DURATION_BOUNDS_US,
            ),
            snapshot: registry.histogram(
                "oak_store_snapshot_duration_us",
                "Time to write one compacted snapshot and retire old files.",
                &[],
                DURATION_BOUNDS_US,
            ),
            snapshots: registry.counter(
                "oak_store_snapshots_total",
                "Compacted snapshots written.",
                &[],
            ),
        })
    }

    /// The current clock reading, nanoseconds.
    pub fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Records `start_ns..end_ns` into `histogram` in microseconds.
    pub fn record(histogram: &Histogram, start_ns: u64, end_ns: u64) {
        histogram.record(elapsed_us(start_ns, end_ns));
    }
}

impl fmt::Debug for StoreMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreMetrics").finish_non_exhaustive()
    }
}
