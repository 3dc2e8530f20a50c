//! The Oak server daemon.
//!
//! "The server operates side-by-side a site's web server, modifying
//! outgoing pages according to decisions made based on client reported
//! performance and a set of operator-determined actions" (§4). The
//! paper's implementation "serves a dual purpose as both the web server
//! and the Oak server platform" (§5) — so does this one:
//!
//! - [`SiteStore`]: the in-memory document root (pages and static
//!   objects),
//! - [`OakService`]: an [`oak_http::Handler`] that serves pages through
//!   [`oak_core::engine::Oak::modify_page`], hands out identifying
//!   cookies, ingests `POST /oak/report` bodies, and attaches the
//!   `X-Oak-Alternate` cache hint,
//! - over real TCP via [`oak_edge::EdgeServer`] (see
//!   `examples/live_proxy.rs`) or invoked directly in tests and
//!   experiments.
//!
//! # Examples
//!
//! ```
//! use oak_core::engine::{Oak, OakConfig};
//! use oak_http::{Method, Request};
//! use oak_server::{OakService, SiteStore};
//!
//! let mut store = SiteStore::new();
//! store.add_page("/index.html", "<html><body>hi</body></html>");
//! let service = OakService::new(Oak::new(OakConfig::default()), store);
//!
//! let response = oak_http::Handler::handle(&service, &Request::new(Method::Get, "/index.html"));
//! assert!(response.status.is_success());
//! assert!(response.header("set-cookie").is_some(), "first visit gets a cookie");
//! ```

mod cluster;
mod fileroot;
mod obs;
mod overload;
mod service;
mod store;

pub use cluster::ClusterRuntime;
pub use fileroot::{content_type_for, load_root, load_rules, load_rules_into};
pub use obs::ServiceObs;
pub use overload::{
    OverloadController, OverloadPolicy, OverloadSnapshot, OverloadState, RequestClass,
    OVERLOAD_INTERVAL_MS,
};
pub use service::{
    AdmissionPolicy, ClusterStatusSource, HealthState, OakService, PrunePolicy, ServiceStats,
};
pub use store::SiteStore;

/// The endpoint clients POST performance reports to.
pub const REPORT_PATH: &str = "/oak/report";

/// Operator endpoint rendering the §6 offline audit as text.
pub const AUDIT_PATH: &str = "/oak/audit";

/// Operator endpoint serving service counters and aggregate site
/// performance (§5) as JSON.
pub const STATS_PATH: &str = "/oak/stats";

/// Load-balancer endpoint reporting the node's lifecycle state
/// ([`HealthState`]); 503 until recovery completes, 200 while serving.
pub const HEALTH_PATH: &str = "/oak/health";

/// Scrape endpoint serving every metric family in Prometheus text
/// exposition format v0.0.4 (404 unless [`OakService::with_obs`] is
/// attached).
pub const METRICS_PATH: &str = "/oak/metrics";

/// Operator endpoint serving the tracer's ring of recently completed
/// request traces as JSON, oldest first (404 without observability).
pub const TRACE_PATH: &str = "/oak/trace/recent";

#[cfg(test)]
mod tests;
