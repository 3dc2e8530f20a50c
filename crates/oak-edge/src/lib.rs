//! The Oak HTTP server: a non-blocking reactor behind the `oak-http`
//! transport seam.
//!
//! The workload is thousands of mostly-idle keep-alive clients posting
//! occasional Oak reports, so the server runs on a fixed thread budget
//! instead of one OS thread per connection:
//!
//! - **one reactor thread** owning every socket, woken by edge-triggered
//!   epoll (Linux, via four raw `extern "C"` declarations — no
//!   dependencies) or level-triggered poll(2) (other unix),
//! - **a hashed timer wheel** enforcing the read/write deadlines of
//!   [`oak_http::ServerLimits`] (slowloris → 408, idle keep-alive →
//!   silent close, stalled writer → disconnect),
//! - **a small fixed worker pool** running [`oak_http::Handler`]s off
//!   the loop, with `catch_unwind` panic isolation (panic → 500).
//!
//! Every protocol guard (400/408/413/431/500/503, keep-alive, drain,
//! the [`oak_http::TransportStats`] counters) is decided here, over the
//! framing rules in [`oak_http::framing`]; `tests/torture_edge.rs` at
//! the workspace root runs the abuse gauntlet against it. Unix only:
//! elsewhere the crate compiles and [`EdgeServer`] refuses to start.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use oak_http::{Request, Response, StatusCode};
//!
//! let server = oak_edge::EdgeServer::start(
//!     0,
//!     Arc::new(|_req: &Request| {
//!         Response::new(StatusCode::OK).with_body(b"ok".to_vec(), "text/plain")
//!     }),
//! )
//! .unwrap();
//! let resp = oak_http::fetch_tcp(server.addr(), &Request::new(oak_http::Method::Get, "/"))
//!     .unwrap();
//! assert_eq!(resp.status, StatusCode::OK);
//! ```

use std::net::SocketAddr;
use std::sync::Arc;

use oak_http::{Handler, HttpError, HttpMetrics, ServerLimits, TransportStats};

#[cfg(unix)]
mod conn;
#[cfg(unix)]
mod reactor;
mod stats;
mod sys;
#[cfg(unix)]
mod wheel;
#[cfg(unix)]
mod workers;

#[cfg(all(test, unix))]
mod tests;

pub use stats::{EdgeSnapshot, EdgeStats};
pub use sys::raise_fd_limit;

#[cfg(unix)]
pub use reactor::EdgeServer;

/// Reactor tuning, defaultable.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeConfig {
    /// Handler worker threads; `0` sizes from the host's available
    /// parallelism, clamped to `[2, 8]` (handlers are CPU-bound and
    /// short; more threads than cores just adds scheduling churn).
    pub workers: usize,
}

impl EdgeConfig {
    /// The worker count this configuration resolves to on this host.
    pub fn resolved_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8))
    }
}

/// The shorthand constructors, over [`EdgeServer::start_with_config`].
impl EdgeServer {
    /// Binds to `127.0.0.1:port` (port 0 picks a free port) and starts
    /// the reactor with [`ServerLimits::default`].
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation errors.
    pub fn start(port: u16, handler: Arc<dyn Handler>) -> Result<EdgeServer, HttpError> {
        EdgeServer::start_with_limits(port, handler, ServerLimits::default())
    }

    /// As [`EdgeServer::start`] with explicit limits.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation errors.
    pub fn start_with_limits(
        port: u16,
        handler: Arc<dyn Handler>,
        limits: ServerLimits,
    ) -> Result<EdgeServer, HttpError> {
        EdgeServer::start_with(port, handler, limits, Arc::new(TransportStats::default()))
    }

    /// As [`EdgeServer::start`] with explicit limits and a caller-owned
    /// stats block (so a service can render transport counters alongside
    /// its own).
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation errors.
    pub fn start_with(
        port: u16,
        handler: Arc<dyn Handler>,
        limits: ServerLimits,
        stats: Arc<TransportStats>,
    ) -> Result<EdgeServer, HttpError> {
        EdgeServer::start_with_config(port, handler, limits, stats, None, EdgeConfig::default())
    }
}

// ---- compatibility for the frozen benchmark crate ---------------------
//
// `bench/` may not change in the PR that removed the second server, and
// it boots the stack through `AnyServer::start_with_config(Backend::Epoll,
// …)`. These two names exist for that one caller; the next
// `benchmark`-archetype PR moves `bench/` onto `EdgeServer` and deletes
// them. Nothing else in the repository may use them.

/// The name the benchmark crate passes where a backend used to be
/// chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The reactor ([`EdgeServer`]).
    Epoll,
}

impl Backend {
    /// `"epoll"`, as `/oak/health` and `/oak/stats` spell it.
    pub fn as_str(self) -> &'static str {
        "epoll"
    }
}

/// [`EdgeServer`] under the name and signatures the benchmark crate
/// calls.
pub struct AnyServer(EdgeServer);

impl AnyServer {
    /// [`EdgeServer::start_with_config`].
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation errors.
    pub fn start_with_config(
        _backend: Backend,
        port: u16,
        handler: Arc<dyn Handler>,
        limits: ServerLimits,
        stats: Arc<TransportStats>,
        obs: Option<Arc<HttpMetrics>>,
        config: EdgeConfig,
    ) -> Result<AnyServer, HttpError> {
        EdgeServer::start_with_config(port, handler, limits, stats, obs, config).map(AnyServer)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The reactor gauges; always `Some`.
    pub fn edge_stats(&self) -> Option<Arc<EdgeStats>> {
        Some(self.0.edge_stats())
    }

    /// [`EdgeServer::shutdown`].
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

/// Off-unix stub: compiles, refuses to start.
#[cfg(not(unix))]
pub struct EdgeServer {
    never: std::convert::Infallible,
}

#[cfg(not(unix))]
impl EdgeServer {
    /// Always fails off-unix.
    ///
    /// # Errors
    ///
    /// `Unsupported`, unconditionally.
    pub fn start_with_config(
        _port: u16,
        _handler: Arc<dyn Handler>,
        _limits: ServerLimits,
        _stats: Arc<TransportStats>,
        _obs: Option<Arc<HttpMetrics>>,
        _config: EdgeConfig,
    ) -> Result<EdgeServer, HttpError> {
        Err(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "oak-edge reactor requires a unix target",
        )))
    }

    /// Unreachable: the stub cannot be constructed.
    pub fn addr(&self) -> SocketAddr {
        match self.never {}
    }

    /// Unreachable: the stub cannot be constructed.
    pub fn stats(&self) -> Arc<TransportStats> {
        match self.never {}
    }

    /// Unreachable: the stub cannot be constructed.
    pub fn edge_stats(&self) -> Arc<EdgeStats> {
        match self.never {}
    }

    /// Unreachable: the stub cannot be constructed.
    pub fn active_connections(&self) -> usize {
        match self.never {}
    }

    /// Unreachable: the stub cannot be constructed.
    pub fn shutdown(&mut self) {
        match self.never {}
    }
}
