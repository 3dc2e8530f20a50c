//! Transport instrumentation: per-stage latency histograms.
//!
//! [`HttpMetrics`] holds pre-resolved histogram handles for the four
//! stages every served request passes through — reading bytes off the
//! socket, parsing them into a [`crate::Request`], running the handler,
//! and writing the response. The server threads record into the handles
//! directly; the registry is only touched here, at construction.

use std::sync::Arc;

use oak_obs::{elapsed_us, Clock, Histogram, Registry, DURATION_BOUNDS_US};

/// The four instrumented stages of serving one request.
const STAGES: [&str; 4] = ["read", "parse", "handle", "write"];

/// Per-stage duration histograms for the TCP server, all series of one
/// family: `oak_http_stage_duration_us{stage="read"|"parse"|"handle"|"write"}`.
pub struct HttpMetrics {
    clock: Clock,
    stages: [Arc<Histogram>; 4],
}

impl HttpMetrics {
    /// Registers the `oak_http_stage_duration_us` family in `registry`
    /// and resolves one handle per stage. Durations are measured with
    /// `clock`.
    pub fn new(registry: &Registry, clock: Clock) -> Arc<HttpMetrics> {
        let stages = STAGES.map(|stage| {
            registry.histogram(
                "oak_http_stage_duration_us",
                "Time per request stage in the HTTP server.",
                &[("stage", stage)],
                DURATION_BOUNDS_US,
            )
        });
        Arc::new(HttpMetrics { clock, stages })
    }

    /// The current clock reading, nanoseconds. Public so the server
    /// (`oak-edge`) can timestamp its stages against the same clock.
    pub fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Records one stage duration into the
    /// `oak_http_stage_duration_us` family.
    pub fn record(&self, stage: Stage, start_ns: u64, end_ns: u64) {
        self.stages[stage as usize].record(elapsed_us(start_ns, end_ns));
    }
}

/// Index into [`HttpMetrics`]'s stage histograms; order matches [`STAGES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Socket entry to a complete request byte buffer (includes any
    /// keep-alive idle wait before the first byte).
    Read = 0,
    /// Turning buffered bytes into a [`crate::Request`].
    Parse = 1,
    /// Running the [`crate::Handler`].
    Handle = 2,
    /// Writing the response to the socket.
    Write = 3,
}
