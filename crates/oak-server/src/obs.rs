//! Whole-stack observability for the Oak service.
//!
//! [`ServiceObs`] bundles one [`Registry`], one [`Tracer`], and the
//! pre-resolved metric handles of every layer (HTTP transport, engine,
//! durability) behind a single attachment point. `oak-serve` builds one
//! bundle at boot and threads its pieces to the right owner:
//!
//! - [`ServiceObs::http`] goes to
//!   [`oak_edge::EdgeServer::start_with_config`],
//! - [`ServiceObs::core`] goes to [`oak_core::engine::Oak::set_obs`],
//! - [`ServiceObs::store`] goes to [`oak_store::OakStore::set_obs`],
//! - the bundle itself goes to [`crate::OakService::with_obs`], which
//!   wraps every request in a trace, counts responses by status, and
//!   serves `GET /oak/metrics` and `GET /oak/trace/recent`.
//!
//! Everything is per-instance — no globals — so parallel tests and
//! repeated simulator scenarios each observe only their own traffic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use oak_core::obs::CoreMetrics;
use oak_http::HttpMetrics;
use oak_obs::{elapsed_us, Clock, Counter, Histogram, Registry, Tracer, DURATION_BOUNDS_US};
use oak_store::StoreMetrics;

/// One observability bundle: registry, tracer, and every layer's
/// pre-resolved metric handles.
pub struct ServiceObs {
    /// The registry every family below lives in; `GET /oak/metrics`
    /// scrapes it.
    pub registry: Arc<Registry>,
    /// Nanosecond clock shared by all histograms and the tracer.
    pub clock: Clock,
    /// Request tracer backing `GET /oak/trace/recent`.
    pub tracer: Arc<Tracer>,
    /// HTTP stage histograms, for
    /// [`oak_edge::EdgeServer::start_with_config`].
    pub http: Arc<HttpMetrics>,
    /// Engine stage histograms, for [`oak_core::engine::Oak::set_obs`].
    pub core: Arc<CoreMetrics>,
    /// WAL and snapshot metrics, for [`oak_store::OakStore::set_obs`].
    pub store: Arc<StoreMetrics>,
    /// Per-status series of `oak_http_responses_total`, resolved lazily
    /// (the status space is small, so the map stays tiny and hot
    /// requests hit the fast path after the first response per status).
    responses: Mutex<HashMap<u16, Arc<Counter>>>,
    /// `oak_cluster_commit_wait_duration_us`, registered when a cluster
    /// status source is attached: a single-node exposition never
    /// carries the family.
    commit_wait: OnceLock<Arc<Histogram>>,
}

impl ServiceObs {
    /// A bundle with its own fresh [`Registry`] and a [`Tracer`] holding
    /// the last `trace_ring` traces, logging those slower than
    /// `slow_ms`.
    pub fn new(clock: Clock, trace_ring: usize, slow_ms: u64) -> Arc<ServiceObs> {
        let registry = Arc::new(Registry::new());
        let tracer = Tracer::new(Arc::clone(&clock), trace_ring, slow_ms);
        let http = HttpMetrics::new(&registry, Arc::clone(&clock));
        let core = CoreMetrics::new(&registry, Arc::clone(&clock));
        let store = StoreMetrics::new(&registry, Arc::clone(&clock));
        Arc::new(ServiceObs {
            registry,
            clock,
            tracer,
            http,
            core,
            store,
            responses: Mutex::new(HashMap::new()),
            commit_wait: OnceLock::new(),
        })
    }

    /// A bundle on the wall clock — the live-deployment default.
    pub fn wall(trace_ring: usize, slow_ms: u64) -> Arc<ServiceObs> {
        ServiceObs::new(oak_obs::wall_clock(), trace_ring, slow_ms)
    }

    /// Counts one response under `oak_http_responses_total{status=...}`.
    pub fn count_response(&self, status: u16) {
        let counter = {
            let mut map = self.responses.lock().expect("response counter lock");
            match map.get(&status) {
                Some(c) => Arc::clone(c),
                None => {
                    let value = status.to_string();
                    let c = self.registry.counter(
                        "oak_http_responses_total",
                        "Responses produced by the Oak service, by status code.",
                        &[("status", value.as_str())],
                    );
                    map.insert(status, Arc::clone(&c));
                    c
                }
            }
        };
        counter.inc();
    }

    /// The replication stage histogram: how long a report's `204` was
    /// held for the commit watermark to cover it. Registers the family
    /// on first use.
    pub fn commit_wait(&self) -> &Histogram {
        self.commit_wait.get_or_init(|| {
            self.registry.histogram(
                "oak_cluster_commit_wait_duration_us",
                "Time a report's acknowledgement waited for the replication \
                 watermark to cover its events.",
                &[],
                DURATION_BOUNDS_US,
            )
        })
    }

    /// Records `start_ns..now` as one commit wait.
    pub fn record_commit_wait(&self, start_ns: u64) {
        self.commit_wait().record(elapsed_us(start_ns, self.now()));
    }

    /// The current clock reading, nanoseconds.
    pub fn now(&self) -> u64 {
        (self.clock)()
    }
}

impl std::fmt::Debug for ServiceObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceObs").finish_non_exhaustive()
    }
}
