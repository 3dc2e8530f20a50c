//! Reactor-specific gauges, exported next to [`oak_http::TransportStats`].
//!
//! The transport counters answer *what the edge absorbed*; these gauges
//! answer *how the reactor is coping*: how long one loop iteration spent
//! processing before it could wait for readiness again (loop lag), how
//! many events the last wait delivered, how deep the worker-pool queue
//! is, and how many connections and timers the reactor is tracking.
//! `/oak/stats` and `/oak/health` render a snapshot. One more reading
//! sits outside the snapshot because reading it resets it: the
//! smallest worker-queue sojourn since the last read, the overload
//! controller's one signal.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live gauges updated by the reactor loop and worker pool.
#[derive(Debug, Default)]
pub struct EdgeStats {
    loop_lag_us: AtomicU64,
    max_loop_lag_us: AtomicU64,
    ready_batch: AtomicU64,
    max_ready_batch: AtomicU64,
    worker_queue_depth: AtomicU64,
    connections_open: AtomicU64,
    timers_pending: AtomicU64,
    wakeups: AtomicU64,
    /// Smallest queue sojourn (µs) since the last
    /// [`EdgeStats::take_min_sojourn_us`]; `u64::MAX` when no job was
    /// dequeued. Starts at 0, so the first read is calm too.
    min_sojourn_us: AtomicU64,
}

/// A point-in-time copy of [`EdgeStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeSnapshot {
    /// Microseconds the most recent loop iteration spent processing
    /// events (time readiness dispatch was blocked).
    pub loop_lag_us: u64,
    /// Worst loop iteration observed since start.
    pub max_loop_lag_us: u64,
    /// Readiness events delivered by the most recent wait.
    pub ready_batch: u64,
    /// Largest readiness batch observed since start.
    pub max_ready_batch: u64,
    /// Jobs queued for the worker pool but not yet picked up.
    pub worker_queue_depth: u64,
    /// Connections currently counted against the connection cap.
    pub connections_open: u64,
    /// Timer-wheel entries pending (includes lazily cancelled ones).
    pub timers_pending: u64,
    /// Wake-pipe signals the reactor has drained: replies it had to act
    /// on at once (bytes a worker could not write, or a written reply
    /// whose connection raised a read edge meanwhile) plus shutdown
    /// kicks. A reply its worker wrote whole wakes nobody.
    pub wakeups: u64,
}

impl EdgeStats {
    /// Reads every gauge.
    pub fn snapshot(&self) -> EdgeSnapshot {
        EdgeSnapshot {
            loop_lag_us: self.loop_lag_us.load(Ordering::Relaxed),
            max_loop_lag_us: self.max_loop_lag_us.load(Ordering::Relaxed),
            ready_batch: self.ready_batch.load(Ordering::Relaxed),
            max_ready_batch: self.max_ready_batch.load(Ordering::Relaxed),
            worker_queue_depth: self.worker_queue_depth.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            timers_pending: self.timers_pending.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_loop_lag(&self, us: u64) {
        self.loop_lag_us.store(us, Ordering::Relaxed);
        self.max_loop_lag_us.fetch_max(us, Ordering::Relaxed);
    }

    pub(crate) fn note_ready_batch(&self, n: u64) {
        self.ready_batch.store(n, Ordering::Relaxed);
        self.max_ready_batch.fetch_max(n, Ordering::Relaxed);
    }

    pub(crate) fn inc_worker_queue(&self) {
        self.worker_queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn dec_worker_queue(&self) {
        // Saturating: a racing snapshot must never see a wrapped gauge.
        let _ = self
            .worker_queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Takes the smallest worker-queue sojourn (µs) recorded since the
    /// previous call and starts a new interval. An interval in which no
    /// job left the queue reads 0 if the queue is empty (nothing stood
    /// in it) and `None` if jobs wait in it: the workers are stalled,
    /// and no dequeue has measured for how long.
    pub fn take_min_sojourn_us(&self) -> Option<u64> {
        match self.min_sojourn_us.swap(u64::MAX, Ordering::Relaxed) {
            u64::MAX if self.worker_queue_depth.load(Ordering::Relaxed) > 0 => None,
            u64::MAX => Some(0),
            us => Some(us),
        }
    }

    /// Records one job's queue sojourn (µs); the worker pool calls it at
    /// every dequeue.
    pub fn note_sojourn(&self, us: u64) {
        // Load first: after the interval's first dequeue most jobs are
        // not a new minimum, and a plain load leaves the line shared.
        if us < self.min_sojourn_us.load(Ordering::Relaxed) {
            self.min_sojourn_us.fetch_min(us, Ordering::Relaxed);
        }
    }

    pub(crate) fn set_connections_open(&self, n: u64) {
        self.connections_open.store(n, Ordering::Relaxed);
    }

    pub(crate) fn set_timers_pending(&self, n: u64) {
        self.timers_pending.store(n, Ordering::Relaxed);
    }

    pub(crate) fn inc_wakeups(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }
}
