//! The HTTP-facing Oak service.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use oak_cluster::{PartitionStatus, RETRY_AFTER_HINT_SECS};
use oak_core::engine::Oak;
use oak_core::fetch::FetchStats;
use oak_core::matching::{NoFetch, ScriptFetcher};
use oak_core::report::PerfReport;
use oak_core::Instant;
use oak_edge::EdgeStats;
use oak_http::cookie::{format_set_cookie, get_cookie, OAK_USER_COOKIE};
use oak_http::{
    Handler, Method, Request, Response, StatusCode, TransportStats, SHED_RETRY_AFTER_SECS,
};
use oak_obs::{Family, FamilyKind, Series, SeriesValue};

use crate::obs::ServiceObs;
use crate::overload::{OverloadController, RequestClass};
use crate::store::SiteStore;
use crate::REPORT_PATH;

/// Counters the service maintains, for the operator's dashboard and the
/// integration tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Pages served (through the rewriter).
    pub pages_served: u64,
    /// Static objects served.
    pub objects_served: u64,
    /// Reports accepted.
    pub reports_accepted: u64,
    /// Reports rejected (malformed, oversized, or cookie-less).
    pub reports_rejected: u64,
    /// Reports turned away with 429 by the per-user rate limit (see
    /// [`OakService::with_admission`]).
    pub reports_throttled: u64,
    /// Users evicted by the idle-pruning sweep (see
    /// [`OakService::with_pruning`]).
    pub users_pruned: u64,
    /// Requests refused with 503 + Retry-After by the cluster layer:
    /// either this node does not hold the replication group's primary
    /// lease, or an ingested report's replication watermark failed
    /// to cover it in time (see [`OakService::set_cluster_status`]).
    /// Always zero on a single-node deployment.
    pub cluster_refused: u64,
}

/// Lock-free service counters; [`ServiceStats`] is the read snapshot.
#[derive(Debug, Default)]
struct ServiceCounters {
    pages_served: AtomicU64,
    objects_served: AtomicU64,
    reports_accepted: AtomicU64,
    reports_rejected: AtomicU64,
    reports_throttled: AtomicU64,
    users_pruned: AtomicU64,
    cluster_refused: AtomicU64,
}

impl ServiceCounters {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            pages_served: self.pages_served.load(Ordering::Relaxed),
            objects_served: self.objects_served.load(Ordering::Relaxed),
            reports_accepted: self.reports_accepted.load(Ordering::Relaxed),
            reports_rejected: self.reports_rejected.load(Ordering::Relaxed),
            reports_throttled: self.reports_throttled.load(Ordering::Relaxed),
            users_pruned: self.users_pruned.load(Ordering::Relaxed),
            cluster_refused: self.cluster_refused.load(Ordering::Relaxed),
        }
    }
}

/// What the service needs to know about local replication when the
/// node is one of several in an `oak-cluster` deployment. Implemented
/// by the serving edge's cluster runtime and attached with
/// [`OakService::set_cluster_status`]; absent on single-node
/// deployments, where every operator surface stays byte-identical to
/// the pre-cluster wire format.
pub trait ClusterStatusSource: Send + Sync {
    /// Point-in-time status of the replication group on this node: one
    /// entry, partition 0.
    fn partitions(&self) -> Vec<PartitionStatus>;
    /// Whether this node currently holds the group's primary lease.
    /// `false` turns the request away with 503 + `Retry-After` — briefly
    /// refusing a report beats acking it into a replica whose write
    /// would be silently discarded. The group holds every user; `user`
    /// stays in the signature for `bench/`, which implements this trait,
    /// until ROADMAP item 7's thaw.
    fn is_primary_for(&self, user: &str) -> bool;

    /// The replicated engine the service should serve from, when the
    /// cluster runtime owns it. A snapshot install during failover can
    /// replace the engine object wholesale, so the service resolves it
    /// per request instead of capturing an `Arc` at boot. `None` (the
    /// default) keeps the service on its own engine.
    fn live_engine(&self) -> Option<Arc<Oak>> {
        None
    }

    /// Whether this node currently leads the replica group behind
    /// [`ClusterStatusSource::live_engine`]. Node-local maintenance
    /// mutations (idle-user pruning) run only then: pruning emits a
    /// journaled `Pruned` event, which must originate on the primary
    /// and ship through the WAL rather than diverge a follower.
    fn leads_maintenance(&self) -> bool {
        true
    }

    /// Blocks until the group's replication watermark covers `seq` —
    /// the point at which a client ack may be released (DESIGN.md §14:
    /// a `204` *means* durable on a majority) — or until the
    /// implementation's bounded wait expires. `false` means
    /// the ack must be withheld: the service answers 503 + Retry-After
    /// and the client retries, making ingest at-least-once across a
    /// stalled majority. The default is immediate `true`: on a single
    /// node the local WAL append *is* the durability point. `user` is
    /// kept for `bench/` like [`ClusterStatusSource::is_primary_for`]'s.
    fn wait_for_commit(&self, user: &str, seq: u64) -> bool {
        let _ = (user, seq);
        true
    }

    /// Envelopes this node has sent to its peers since boot, by message
    /// kind, for `oak_cluster_envelopes_sent_total`. The default counts
    /// nothing and renders no family.
    fn envelopes_sent(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Report admission limits (see [`OakService::with_admission`]).
///
/// Reports are client-supplied input on an unauthenticated endpoint, so
/// one misbehaving client must not be able to inflate per-user state or
/// monopolize ingest. Oversized bodies get 413 before parsing; clients
/// reporting faster than the token bucket refills get 429.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Largest report body accepted, in bytes (Fig. 15 sizes the median
    /// real report under 10 KB; the default leaves two orders of margin).
    pub max_report_bytes: usize,
    /// Sustained reports per second allowed per user; 0 disables the
    /// rate limit.
    pub report_rate: f64,
    /// Bucket capacity — how many reports a user may burst before the
    /// sustained rate applies.
    pub report_burst: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            max_report_bytes: 1 << 20,
            report_rate: 0.0,
            report_burst: 10.0,
        }
    }
}

/// One user's token bucket.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// Bound on tracked buckets; at capacity, idle (full) buckets are shed
/// first, and if every bucket is mid-burst new users are admitted
/// without tracking rather than evicting an active limiter.
const BUCKET_CAPACITY: usize = 65_536;

/// The `"backend"` value `/oak/health` and `/oak/stats` carry beside the
/// reactor gauges; scrapers and the CI live-scrape step match on it.
const EDGE_BACKEND: &str = "epoll";

/// Where a node is in its lifecycle, as reported by `GET /oak/health`.
///
/// A replaying node answers requests correctly but from *stale* state —
/// activations it has not yet replayed look inactive — so load balancers
/// must not send it traffic until it reports [`HealthState::Serving`].
/// The endpoint returns 200 only then; every other state is a 503 whose
/// body still names the state, so an operator can tell a booting node
/// from a draining one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Process is up; recovery has not started.
    Booting,
    /// Replaying the snapshot + WAL tail.
    Recovering,
    /// Fully caught up and accepting traffic.
    Serving,
    /// Shutting down gracefully; finish in-flight work, send no more.
    Draining,
}

impl HealthState {
    /// The wire name used in the health body.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Booting => "booting",
            HealthState::Recovering => "recovering",
            HealthState::Serving => "serving",
            HealthState::Draining => "draining",
        }
    }

    fn from_u8(raw: u8) -> HealthState {
        match raw {
            0 => HealthState::Booting,
            1 => HealthState::Recovering,
            3 => HealthState::Draining,
            _ => HealthState::Serving,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            HealthState::Booting => 0,
            HealthState::Recovering => 1,
            HealthState::Serving => 2,
            HealthState::Draining => 3,
        }
    }
}

/// When and how aggressively [`OakService`] evicts idle per-user state
/// (see [`OakService::with_pruning`]).
#[derive(Clone, Copy, Debug)]
pub struct PrunePolicy {
    /// A user whose last report or serve is older than this is evicted.
    pub idle_ms: u64,
    /// The sweep runs once every this many requests (any method).
    pub every_requests: u64,
}

/// The Oak proxy: serves a [`SiteStore`] through the per-user rewriting
/// engine and ingests client performance reports.
///
/// Thread-safe without an outer lock: the engine is internally
/// synchronized (see [`oak_core::engine::Oak`]'s concurrency docs) and
/// the counters are atomics, so one service instance backs every worker
/// of an [`oak_edge::EdgeServer`] directly.
pub struct OakService {
    oak: Oak,
    store: SiteStore,
    clock: Box<dyn Fn() -> Instant + Send + Sync>,
    fetcher: Box<dyn ScriptFetcher + Send + Sync>,
    next_user: AtomicU64,
    stats: ServiceCounters,
    durable: Option<Arc<oak_store::OakStore>>,
    prune: Option<PrunePolicy>,
    requests: AtomicU64,
    admission: AdmissionPolicy,
    buckets: Mutex<HashMap<String, Bucket>>,
    transport: Option<Arc<TransportStats>>,
    fetch: Option<Arc<FetchStats>>,
    /// Reactor gauges, present once a server fronts the service. Set
    /// after the server starts (the reactor owns its gauges), hence a
    /// `OnceLock` rather than a builder field.
    edge: OnceLock<Arc<EdgeStats>>,
    /// The node's replication status source, present only in a cluster
    /// deployment. Set after the cluster runtime boots (it owns the
    /// leases), hence a `OnceLock` like the edge gauges.
    cluster: OnceLock<Arc<dyn ClusterStatusSource>>,
    health: AtomicU8,
    /// The overload controller, when overload control is enabled (see
    /// [`OakService::with_overload`]). Shared with the transport's
    /// admission hook and the operator surfaces.
    overload: Option<Arc<OverloadController>>,
    obs: Option<Arc<ServiceObs>>,
}

impl OakService {
    /// A service with a zero clock and no external-script fetching.
    /// Use the builder methods to attach either.
    pub fn new(oak: Oak, store: SiteStore) -> OakService {
        OakService {
            oak,
            store,
            clock: Box::new(|| Instant::ZERO),
            fetcher: Box::new(NoFetch),
            next_user: AtomicU64::new(1),
            stats: ServiceCounters::default(),
            durable: None,
            prune: None,
            requests: AtomicU64::new(0),
            admission: AdmissionPolicy::default(),
            buckets: Mutex::new(HashMap::new()),
            transport: None,
            fetch: None,
            edge: OnceLock::new(),
            cluster: OnceLock::new(),
            // Serving by default: a service constructed without a boot
            // sequence (tests, experiments) is ready the moment it exists.
            health: AtomicU8::new(HealthState::Serving.as_u8()),
            overload: None,
            obs: None,
        }
    }

    /// Installs the clock the engine sees (wall time for live deployments,
    /// simulated time for experiments).
    pub fn with_clock(mut self, clock: impl Fn() -> Instant + Send + Sync + 'static) -> OakService {
        self.clock = Box::new(clock);
        self
    }

    /// Installs the external-script fetcher used by level-3 rule matching.
    pub fn with_fetcher(
        mut self,
        fetcher: impl ScriptFetcher + Send + Sync + 'static,
    ) -> OakService {
        self.fetcher = Box::new(fetcher);
        self
    }

    /// Attaches the durability store so ingest triggers snapshot
    /// compaction ([`oak_store::OakStore::maybe_snapshot`]) once enough
    /// events accumulate. The store must already be the engine's event
    /// sink — [`oak_store::OakStore::boot`] wires both and recovers prior
    /// state, so the typical durable service is
    /// `OakService::new(boot.oak, site).with_durability(boot.store)`.
    pub fn with_durability(mut self, store: Arc<oak_store::OakStore>) -> OakService {
        self.durable = Some(store);
        self
    }

    /// Installs report admission limits (body-size cap and per-user
    /// token-bucket rate limit). The bucket clock is the service clock,
    /// so throttling is deterministic under a fake clock.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> OakService {
        self.admission = policy;
        self
    }

    /// Attaches the transport counters of the [`oak_edge::EdgeServer`]
    /// fronting this service, so `/oak/stats` exports them under
    /// `"transport"`. Create the [`TransportStats`] first, hand one clone
    /// here and one to [`oak_edge::EdgeServer::start_with`].
    pub fn with_transport_stats(mut self, stats: Arc<TransportStats>) -> OakService {
        self.transport = Some(stats);
        self
    }

    /// Enables overload control: the controller reads the worker
    /// queue's minimum sojourn from the reactor gauges (attached now or
    /// by [`OakService::set_edge_stats`]) and the service degrades by
    /// state — Brownout bypasses the rewriter and throttles background
    /// work; Shedding refuses requests by [`RequestClass`] priority,
    /// reports last and health probes never. Every refusal is made in
    /// the transport's admission hook ([`oak_http::Handler::admit`]),
    /// before the request queues for a worker.
    pub fn with_overload(mut self, overload: Arc<OverloadController>) -> OakService {
        if let Some(edge) = self.edge.get() {
            overload.attach_edge(Arc::clone(edge));
        }
        self.overload = Some(overload);
        self
    }

    /// The attached overload controller, if any.
    pub fn overload(&self) -> Option<&Arc<OverloadController>> {
        self.overload.as_ref()
    }

    /// Does nothing: `/oak/health` and `/oak/stats` name the backend
    /// once [`OakService::set_edge_stats`] has attached the server's
    /// gauges. Kept, with [`oak_edge::Backend`], for the frozen `bench/`
    /// crate, which calls it; the next `benchmark`-archetype PR removes
    /// both.
    pub fn set_edge_backend(&self, _backend: oak_edge::Backend) {}

    /// Attaches the reactor gauges of the [`oak_edge::EdgeServer`]
    /// fronting this service, so `/oak/stats` exports them under
    /// `"edge"` (and names the `"backend"`), `/oak/health` carries the
    /// load-bearing ones (loop lag, ready batch, worker-queue depth),
    /// and `/oak/metrics` grows an `oak_edge_gauge` family. The gauges
    /// belong to the server, which starts *after* the service is built
    /// and shared — so this is a post-start setter, not a builder:
    /// first call wins.
    pub fn set_edge_stats(&self, stats: Arc<EdgeStats>) {
        if let Some(overload) = &self.overload {
            overload.attach_edge(Arc::clone(&stats));
        }
        let _ = self.edge.set(stats);
    }

    /// Attaches the node's replication status source, so `/oak/stats`
    /// and `/oak/health` report the group's role, epoch, and
    /// replication lag, `/oak/metrics` grows `oak_cluster_role` and
    /// `oak_cluster_replication_lag` gauge families and the
    /// `oak_cluster_commit_wait_duration_us` stage histogram, and user-scoped
    /// traffic (page serves, report ingest) is refused with 503 +
    /// `Retry-After` while this node does not lead the group. The cluster
    /// runtime boots after the service is built and shared, so this is
    /// a post-start setter like [`OakService::set_edge_stats`]: first
    /// call wins.
    pub fn set_cluster_status(&self, source: Arc<dyn ClusterStatusSource>) {
        let _ = self.cluster.set(source);
        if let Some(obs) = &self.obs {
            // Exported from the first scrape on, not the first report.
            obs.commit_wait();
        }
    }

    /// Attaches the fetch-outcome counters of a
    /// [`oak_core::fetch::ResilientFetcher`] (its
    /// [`stats_handle`](oak_core::fetch::ResilientFetcher::stats_handle)),
    /// so `/oak/stats` exports them under `"fetch"`.
    pub fn with_fetch_stats(mut self, stats: Arc<FetchStats>) -> OakService {
        self.fetch = Some(stats);
        self
    }

    /// Attaches the observability bundle: every request runs under a
    /// trace, responses are counted by status, `GET /oak/metrics`
    /// serves the registry in Prometheus text exposition format, and
    /// `GET /oak/trace/recent` serves the trace ring as JSON. The
    /// engine's stage metrics ([`ServiceObs::core`]) are wired into the
    /// engine here; the HTTP and store handles must still be handed to
    /// their owners ([`oak_edge::EdgeServer::start_with_config`],
    /// [`oak_store::OakStore::set_obs`]).
    pub fn with_obs(mut self, obs: Arc<ServiceObs>) -> OakService {
        self.oak.set_obs(Arc::clone(&obs.core));
        self.obs = Some(obs);
        self
    }

    /// The attached observability bundle, if any.
    pub fn obs(&self) -> Option<&Arc<ServiceObs>> {
        self.obs.as_ref()
    }

    /// Enables the idle-user sweep: every `every_requests` requests,
    /// users idle longer than `idle_ms` are evicted via
    /// [`Oak::prune_inactive_users`] (their audit history stays in the
    /// log and, when durability is on, in the WAL). Evictions land in
    /// [`ServiceStats::users_pruned`].
    pub fn with_pruning(mut self, policy: PrunePolicy) -> OakService {
        self.prune = Some(policy);
        self
    }

    /// Sets the initial lifecycle state (builder form of
    /// [`OakService::set_health`]). A daemon that recovers before its
    /// listener opens starts at [`HealthState::Booting`] and advances as
    /// the boot sequence does.
    pub fn with_health(self, state: HealthState) -> OakService {
        self.set_health(state);
        self
    }

    /// Moves the node to `state`; `GET /oak/health` reflects it on the
    /// next request.
    pub fn set_health(&self, state: HealthState) {
        self.health.store(state.as_u8(), Ordering::Relaxed);
    }

    /// The node's current lifecycle state.
    pub fn health(&self) -> HealthState {
        HealthState::from_u8(self.health.load(Ordering::Relaxed))
    }

    /// Runs `f` against the engine (experiments add rules and read logs
    /// this way). The engine synchronizes internally, so `f` gets a
    /// shared reference and no service-wide lock is held.
    pub fn with_oak<T>(&self, f: impl FnOnce(&Oak) -> T) -> T {
        f(&self.oak)
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }

    /// Wraps the service in an [`Arc`] ready for
    /// [`oak_edge::EdgeServer::start`].
    pub fn into_shared(self) -> Arc<OakService> {
        Arc::new(self)
    }

    /// The engine this request should run against: the cluster
    /// runtime's live replica when one is attached (resolved per
    /// request — failover can swap the engine object), the service's
    /// own engine otherwise.
    fn live_engine(&self) -> Option<Arc<Oak>> {
        self.cluster.get().and_then(|c| c.live_engine())
    }

    /// Refuses `user`'s request when a cluster status source is
    /// attached and this node does not hold the group's lease: 503 +
    /// `Retry-After`, so a polite client retries after
    /// the failover window instead of writing into a replica.
    fn cluster_gate(&self, user: &str) -> Option<Response> {
        let source = self.cluster.get()?;
        if source.is_primary_for(user) {
            return None;
        }
        Some(self.cluster_refusal(b"partition is failing over or served elsewhere; retry"))
    }

    /// A counted 503 + Retry-After from the cluster layer.
    fn cluster_refusal(&self, body: &'static [u8]) -> Response {
        self.stats.cluster_refused.fetch_add(1, Ordering::Relaxed);
        let mut response =
            Response::new(StatusCode::UNAVAILABLE).with_body(body.to_vec(), "text/plain");
        response
            .headers
            .set("Retry-After", RETRY_AFTER_HINT_SECS.to_string());
        response
    }

    fn serve_page(&self, request: &Request, path: &str, html: &str) -> Response {
        let now = (self.clock)();
        // Identify the user by cookie; first contact mints a fresh id.
        let (user, minted) = match request
            .header("cookie")
            .and_then(|v| get_cookie(v, OAK_USER_COOKIE))
        {
            Some(user) => (user.to_owned(), false),
            None => {
                let id = self.next_user.fetch_add(1, Ordering::Relaxed);
                (format!("u-{id}"), true)
            }
        };

        // Per-user rewriting state lives on the group's primary;
        // serving (and mutating) it here on a follower would diverge
        // the replicas outside the WAL stream.
        if let Some(refusal) = self.cluster_gate(&user) {
            return refusal;
        }

        // Brownout: serve the page as-is. The paper's fallback is
        // explicit — an Oak outage "silently result[s] in pages being
        // served as-is" — so under pressure the rewriter (the most
        // expensive per-request stage) is the first thing to go. The
        // cookie is still minted: identification is cheap and losing it
        // would orphan the user's later reports.
        if self
            .overload
            .as_ref()
            .is_some_and(|overload| overload.brownout_active())
        {
            let mut response = Response::html(html.to_owned());
            if minted {
                response
                    .headers
                    .set("Set-Cookie", format_set_cookie(OAK_USER_COOKIE, &user));
            }
            if let Some(overload) = &self.overload {
                overload.note_browned_page();
            }
            self.stats.pages_served.fetch_add(1, Ordering::Relaxed);
            return response;
        }

        let live = self.live_engine();
        let oak = live.as_deref().unwrap_or(&self.oak);
        let modified = oak.modify_page_cow(now, &user, path, html);
        let alternate = modified.alternate_header_entry();
        let mut response = Response::html(modified.html.into_owned());
        if minted {
            response
                .headers
                .set("Set-Cookie", format_set_cookie(OAK_USER_COOKIE, &user));
        }
        if let Some((name, value)) = alternate {
            response.headers.set(name, value);
        }
        self.stats.pages_served.fetch_add(1, Ordering::Relaxed);
        response
    }

    /// Renders the §6 offline audit as plain text (`GET /oak/audit`).
    ///
    /// The audit covers the engine's log window: its latest
    /// [`oak_core::engine::LOG_BYTES`] of records. When durability is on,
    /// older records remain in the WAL until a snapshot compacts it.
    fn audit_view(&self) -> Response {
        let live = self.live_engine();
        let oak = live.as_deref().unwrap_or(&self.oak);
        let summary = oak_core::audit::audit(&oak.log());
        Response::new(StatusCode::OK).with_body(
            summary.to_string().into_bytes(),
            "text/plain; charset=utf-8",
        )
    }

    /// Serves service counters and aggregate site performance as JSON
    /// (`GET /oak/stats`) — the §5 "aggregate site performance" record.
    fn stats_view(&self) -> Response {
        let stats = self.stats();
        let mut doc = oak_json::Value::object();
        doc.set("pages_served", stats.pages_served);
        doc.set("objects_served", stats.objects_served);
        doc.set("reports_accepted", stats.reports_accepted);
        doc.set("reports_rejected", stats.reports_rejected);
        doc.set("reports_throttled", stats.reports_throttled);
        doc.set("users_pruned", stats.users_pruned);

        if let Some(transport) = &self.transport {
            let t = transport.snapshot();
            let mut row = oak_json::Value::object();
            row.set("connections_accepted", t.connections_accepted);
            row.set("connections_rejected", t.connections_rejected);
            row.set("connections_closed", t.connections_closed);
            row.set("accepts_failed", t.accepts_failed);
            row.set("requests_served", t.requests_served);
            row.set("requests_shed", t.requests_shed);
            row.set("panics", t.panics);
            row.set("timeouts", t.timeouts);
            row.set("heads_too_large", t.heads_too_large);
            row.set("bodies_too_large", t.bodies_too_large);
            row.set("bad_requests", t.bad_requests);
            doc.set("transport", row);
        }
        if let Some(overload) = &self.overload {
            let o = overload.snapshot();
            let mut row = oak_json::Value::object();
            row.set("state", overload.state().as_str());
            row.set("severity", o.severity as u64);
            row.set("min_sojourn_us", o.min_sojourn_us);
            row.set("target_us", overload.policy().target_us);
            row.set("shed_pages", o.shed_pages);
            row.set("shed_scrapes", o.shed_scrapes);
            row.set("shed_reports", o.shed_reports);
            row.set("pages_browned", o.pages_browned);
            row.set("brownout_entries", o.brownout_entries);
            row.set("shedding_entries", o.shedding_entries);
            doc.set("overload", row);
        }
        if let Some(edge) = self.edge.get() {
            doc.set("backend", EDGE_BACKEND);
            let e = edge.snapshot();
            let mut row = oak_json::Value::object();
            row.set("loop_lag_us", e.loop_lag_us);
            row.set("max_loop_lag_us", e.max_loop_lag_us);
            row.set("ready_batch", e.ready_batch);
            row.set("max_ready_batch", e.max_ready_batch);
            row.set("worker_queue_depth", e.worker_queue_depth);
            row.set("connections_open", e.connections_open);
            row.set("timers_pending", e.timers_pending);
            row.set("wakeups", e.wakeups);
            doc.set("edge", row);
        }
        if let Some(cluster) = self.cluster.get() {
            let mut row = oak_json::Value::object();
            row.set("refused", stats.cluster_refused);
            let mut partitions = oak_json::Value::array();
            for p in cluster.partitions() {
                let mut entry = oak_json::Value::object();
                entry.set("partition", p.partition as u64);
                entry.set("role", p.role.as_str());
                entry.set("epoch", p.epoch);
                entry.set("head", p.head);
                entry.set("commit", p.commit);
                entry.set("lag", p.lag);
                partitions.push(entry);
            }
            row.set("partitions", partitions);
            doc.set("cluster", row);
        }
        if let Some(fetch) = &self.fetch {
            let f = fetch.snapshot();
            let mut row = oak_json::Value::object();
            row.set("attempts", f.attempts);
            row.set("successes", f.successes);
            row.set("failures", f.failures);
            row.set("timeouts", f.timeouts);
            row.set("negative_cache_hits", f.negative_cache_hits);
            row.set("breaker_open_skips", f.breaker_open_skips);
            row.set("breaker_opens", f.breaker_opens);
            doc.set("fetch", row);
        }

        // The engine's rows and sketch: bounded by the rows it keeps, not
        // by the users it has seen.
        let live = self.live_engine();
        let agg = live.as_deref().unwrap_or(&self.oak).aggregates();
        doc.set("reports", agg.report_count());
        doc.set("users", agg.users_seen());
        let row = |entry: &oak_core::aggregates::DomainAggregate| {
            let mean = |stat: &oak_core::aggregates::RunningStat| {
                stat.mean().map(|m| (m * 100.0).round() / 100.0)
            };
            let mut row = oak_json::Value::object();
            row.set("objects", entry.objects);
            row.set("bytes", entry.bytes);
            row.set("violations", entry.violations);
            row.set("users_seen", entry.users_seen());
            row.set("avg_small_time_ms", mean(&entry.small_time_ms));
            row.set("avg_large_tput_kbps", mean(&entry.large_tput_kbps));
            row
        };
        let mut domains = oak_json::Value::array();
        for (domain, entry) in agg.worst_domains().into_iter().take(50) {
            let mut entry = row(entry);
            entry.set("domain", domain);
            domains.push(entry);
        }
        doc.set("domains", domains);
        // Every domain without a row of its own (`SiteAggregates::other`).
        doc.set("other_domains", row(agg.other()));
        Response::new(StatusCode::OK).with_body(doc.to_string().into_bytes(), "application/json")
    }

    /// Serves every registered metric family — plus families synthesized
    /// from the transport, fetch, service, engine, and tracer snapshots —
    /// as Prometheus text exposition format v0.0.4 (`GET /oak/metrics`).
    fn metrics_view(&self) -> Response {
        let Some(obs) = &self.obs else {
            return Response::not_found();
        };
        let mut families = obs.registry.families();
        let stats = self.stats();
        families.push(scalar_family(
            "oak_server_served_total",
            "Pages and static objects served, by kind.",
            FamilyKind::Counter,
            vec![
                scalar_series(&[("kind", "page")], stats.pages_served as f64),
                scalar_series(&[("kind", "object")], stats.objects_served as f64),
            ],
        ));
        families.push(scalar_family(
            "oak_server_reports_total",
            "Client performance reports, by admission outcome.",
            FamilyKind::Counter,
            vec![
                scalar_series(&[("outcome", "accepted")], stats.reports_accepted as f64),
                scalar_series(&[("outcome", "rejected")], stats.reports_rejected as f64),
                scalar_series(&[("outcome", "throttled")], stats.reports_throttled as f64),
            ],
        ));
        families.push(scalar_family(
            "oak_server_users_pruned_total",
            "Users evicted by the idle-pruning sweep.",
            FamilyKind::Counter,
            vec![scalar_series(&[], stats.users_pruned as f64)],
        ));
        if let Some(transport) = &self.transport {
            let t = transport.snapshot();
            families.push(scalar_family(
                "oak_http_transport_events_total",
                "Transport-level connection and request outcomes, by event.",
                FamilyKind::Counter,
                vec![
                    scalar_series(
                        &[("event", "connections_accepted")],
                        t.connections_accepted as f64,
                    ),
                    scalar_series(
                        &[("event", "connections_rejected")],
                        t.connections_rejected as f64,
                    ),
                    scalar_series(
                        &[("event", "connections_closed")],
                        t.connections_closed as f64,
                    ),
                    scalar_series(&[("event", "accepts_failed")], t.accepts_failed as f64),
                    scalar_series(&[("event", "requests_served")], t.requests_served as f64),
                    scalar_series(&[("event", "requests_shed")], t.requests_shed as f64),
                    scalar_series(&[("event", "panics")], t.panics as f64),
                    scalar_series(&[("event", "timeouts")], t.timeouts as f64),
                    scalar_series(&[("event", "heads_too_large")], t.heads_too_large as f64),
                    scalar_series(&[("event", "bodies_too_large")], t.bodies_too_large as f64),
                    scalar_series(&[("event", "bad_requests")], t.bad_requests as f64),
                ],
            ));
        }
        if let Some(fetch) = &self.fetch {
            let f = fetch.snapshot();
            families.push(scalar_family(
                "oak_fetch_outcomes_total",
                "External script fetch attempts, by outcome.",
                FamilyKind::Counter,
                vec![
                    scalar_series(&[("outcome", "attempts")], f.attempts as f64),
                    scalar_series(&[("outcome", "successes")], f.successes as f64),
                    scalar_series(&[("outcome", "failures")], f.failures as f64),
                    scalar_series(&[("outcome", "timeouts")], f.timeouts as f64),
                    scalar_series(
                        &[("outcome", "negative_cache_hits")],
                        f.negative_cache_hits as f64,
                    ),
                    scalar_series(
                        &[("outcome", "breaker_open_skips")],
                        f.breaker_open_skips as f64,
                    ),
                    scalar_series(&[("outcome", "breaker_opens")], f.breaker_opens as f64),
                ],
            ));
        }
        if let Some(edge) = self.edge.get() {
            // A process with a server of its own: where its threads
            // spend their CPU.
            families.extend(oak_obs::threads::families());
            let e = edge.snapshot();
            families.push(scalar_family(
                "oak_edge_gauge",
                "Reactor vitals of the epoll edge backend, by gauge.",
                FamilyKind::Gauge,
                vec![
                    scalar_series(&[("gauge", "loop_lag_us")], e.loop_lag_us as f64),
                    scalar_series(&[("gauge", "max_loop_lag_us")], e.max_loop_lag_us as f64),
                    scalar_series(&[("gauge", "ready_batch")], e.ready_batch as f64),
                    scalar_series(&[("gauge", "max_ready_batch")], e.max_ready_batch as f64),
                    scalar_series(
                        &[("gauge", "worker_queue_depth")],
                        e.worker_queue_depth as f64,
                    ),
                    scalar_series(&[("gauge", "connections_open")], e.connections_open as f64),
                    scalar_series(&[("gauge", "timers_pending")], e.timers_pending as f64),
                    scalar_series(&[("gauge", "wakeups")], e.wakeups as f64),
                ],
            ));
        }
        if let Some(overload) = &self.overload {
            let o = overload.snapshot();
            families.push(scalar_family(
                "oak_overload_state",
                "Overload controller state: 0 nominal, 1 brownout, 2 shedding.",
                FamilyKind::Gauge,
                vec![scalar_series(&[], o.state as f64)],
            ));
            families.push(scalar_family(
                "oak_requests_shed_total",
                "Requests refused with 503 + Retry-After by the overload \
                 controller, by priority class.",
                FamilyKind::Counter,
                vec![
                    scalar_series(&[("class", "page")], o.shed_pages as f64),
                    scalar_series(&[("class", "scrape")], o.shed_scrapes as f64),
                    scalar_series(&[("class", "report")], o.shed_reports as f64),
                ],
            ));
            families.push(scalar_family(
                "oak_pages_browned_total",
                "Pages served unrewritten under Brownout (the paper's no-op \
                 fallback).",
                FamilyKind::Counter,
                vec![scalar_series(&[], o.pages_browned as f64)],
            ));
        }
        if let Some(cluster) = self.cluster.get() {
            let status = cluster.partitions();
            let mut roles = Vec::new();
            let mut lags = Vec::new();
            for p in &status {
                let partition = p.partition.to_string();
                roles.push(scalar_series(
                    &[("partition", partition.as_str()), ("role", p.role.as_str())],
                    1.0,
                ));
                lags.push(scalar_series(
                    &[("partition", partition.as_str())],
                    p.lag as f64,
                ));
            }
            families.push(scalar_family(
                "oak_cluster_role",
                "Current replication role per hosted partition (value is always 1; \
                 the role label carries the state).",
                FamilyKind::Gauge,
                roles,
            ));
            families.push(scalar_family(
                "oak_cluster_replication_lag",
                "Replication lag in events per hosted partition: worst follower \
                 distance from head on a primary, own distance from the heard \
                 commit on a follower.",
                FamilyKind::Gauge,
                lags,
            ));
            let sent = cluster.envelopes_sent();
            if !sent.is_empty() {
                families.push(scalar_family(
                    "oak_cluster_envelopes_sent_total",
                    "Envelopes this node queued for its peers, by message kind.",
                    FamilyKind::Counter,
                    sent.iter()
                        .map(|&(kind, count)| scalar_series(&[("kind", kind)], count as f64))
                        .collect(),
                ));
            }
            families.push(scalar_family(
                "oak_cluster_refused_total",
                "Requests refused with 503 + Retry-After because this node does \
                 not lead the user's partition.",
                FamilyKind::Counter,
                vec![scalar_series(&[], stats.cluster_refused as f64)],
            ));
        }
        let live = self.live_engine();
        let engine = live.as_deref().unwrap_or(&self.oak);
        families.push(scalar_family(
            "oak_engine_users",
            "Users with live per-user engine state.",
            FamilyKind::Gauge,
            vec![scalar_series(&[], engine.user_count() as f64)],
        ));
        families.push(scalar_family(
            "oak_engine_rules",
            "Rules in the engine's rule table.",
            FamilyKind::Gauge,
            vec![scalar_series(&[], engine.rules().count() as f64)],
        ));
        families.push(scalar_family(
            "oak_engine_reports_aggregated",
            "Reports folded into the aggregate site-performance record.",
            FamilyKind::Gauge,
            vec![scalar_series(&[], engine.report_count() as f64)],
        ));
        families.push(scalar_family(
            "oak_trace_completed_total",
            "Request traces completed.",
            FamilyKind::Counter,
            vec![scalar_series(&[], obs.tracer.completed() as f64)],
        ));
        families.push(scalar_family(
            "oak_trace_slow_total",
            "Request traces slower than the slow threshold.",
            FamilyKind::Counter,
            vec![scalar_series(&[], obs.tracer.slow() as f64)],
        ));
        families.push(scalar_family(
            "oak_trace_dropped_spans_total",
            "Spans dropped by the per-trace cap.",
            FamilyKind::Counter,
            vec![scalar_series(&[], obs.tracer.dropped_spans() as f64)],
        ));
        Response::new(StatusCode::OK).with_body(
            oak_obs::encode(families).into_bytes(),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    }

    /// Serves the tracer's ring of recently completed traces as JSON,
    /// oldest first (`GET /oak/trace/recent`).
    fn trace_view(&self) -> Response {
        let Some(obs) = &self.obs else {
            return Response::not_found();
        };
        let mut doc = oak_json::Value::array();
        for trace in obs.tracer.recent() {
            let mut row = oak_json::Value::object();
            row.set("id", trace.id);
            row.set("name", trace.name.as_str());
            row.set("start_us", trace.start_ns / 1_000);
            row.set("dur_us", trace.dur_ns / 1_000);
            row.set("dropped", trace.dropped as u64);
            let mut spans = oak_json::Value::array();
            for span in &trace.spans {
                let mut s = oak_json::Value::object();
                s.set("name", span.name);
                s.set("depth", span.depth as u64);
                s.set(
                    "start_us",
                    span.start_ns.saturating_sub(trace.start_ns) / 1_000,
                );
                s.set("dur_us", span.dur_ns / 1_000);
                spans.push(s);
            }
            row.set("spans", spans);
            doc.push(row);
        }
        Response::new(StatusCode::OK).with_body(doc.to_string().into_bytes(), "application/json")
    }

    /// Answers `GET /oak/health`: 200 while serving, 503 in every other
    /// state, with the state named in a small JSON body either way.
    fn health_view(&self) -> Response {
        let state = self.health();
        let status = if state == HealthState::Serving {
            StatusCode::OK
        } else {
            StatusCode::UNAVAILABLE
        };
        let mut doc = oak_json::Value::object();
        doc.set("state", state.as_str());
        // Degraded is distinct from down: a browned-out or shedding
        // node still answers 200 here (health probes are never shed),
        // so a load balancer can keep it in rotation at reduced weight
        // instead of ejecting it and dogpiling its peers.
        if let Some(overload) = &self.overload {
            doc.set("degraded", overload.brownout_active());
            doc.set("overload", overload.state().as_str());
        }
        // A probe gets the reactor vitals inline: a rising loop lag or
        // worker-queue depth says the node is saturating before any
        // request actually fails.
        if let Some(edge) = self.edge.get() {
            doc.set("backend", EDGE_BACKEND);
            let e = edge.snapshot();
            let mut row = oak_json::Value::object();
            row.set("loop_lag_us", e.loop_lag_us);
            row.set("ready_batch", e.ready_batch);
            row.set("worker_queue_depth", e.worker_queue_depth);
            row.set("connections_open", e.connections_open);
            doc.set("edge", row);
        }
        // A load balancer probing a cluster node sees the group's role
        // and replication lag inline: a follower falling behind, or a
        // group with no primary, shows up here before any
        // client request is refused.
        if let Some(cluster) = self.cluster.get() {
            let mut partitions = oak_json::Value::array();
            for p in cluster.partitions() {
                let mut entry = oak_json::Value::object();
                entry.set("partition", p.partition as u64);
                entry.set("role", p.role.as_str());
                entry.set("epoch", p.epoch);
                entry.set("lag", p.lag);
                partitions.push(entry);
            }
            doc.set("cluster", partitions);
        }
        Response::new(status).with_body(doc.to_string().into_bytes(), "application/json")
    }

    /// Spends one token from `key`'s bucket; `false` means throttled.
    /// `pub(crate)` for the property tests, which drive it directly.
    pub(crate) fn admit_report(&self, key: &str, now: Instant) -> bool {
        let rate = self.admission.report_rate;
        if rate <= 0.0 {
            return true;
        }
        let burst = self.admission.report_burst.max(1.0);
        let mut buckets = self.buckets.lock().expect("bucket lock");
        if buckets.len() >= BUCKET_CAPACITY && !buckets.contains_key(key) {
            buckets.retain(|_, b| b.tokens + now.since(b.refilled) as f64 * rate / 1_000.0 < burst);
            if buckets.len() >= BUCKET_CAPACITY {
                return true;
            }
        }
        let bucket = buckets.entry(key.to_owned()).or_insert(Bucket {
            tokens: burst,
            refilled: now,
        });
        bucket.tokens =
            (bucket.tokens + now.since(bucket.refilled) as f64 * rate / 1_000.0).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    fn accept_report(&self, request: &Request) -> Response {
        let now = (self.clock)();
        if request.body.len() > self.admission.max_report_bytes {
            self.stats.reports_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::new(StatusCode::PAYLOAD_TOO_LARGE).with_body(
                format!(
                    "report exceeds the {}-byte limit",
                    self.admission.max_report_bytes
                )
                .into_bytes(),
                "text/plain",
            );
        }
        let cookie_user = request
            .header("cookie")
            .and_then(|v| get_cookie(v, OAK_USER_COOKIE));
        // Rate-limit on the transport-observed identity (cookie, else
        // peer address) before spending any parsing work on the body.
        let throttle_key = cookie_user
            .or_else(|| request.header(oak_http::PEER_ADDR_HEADER))
            .unwrap_or("-");
        if !self.admit_report(throttle_key, now) {
            self.stats.reports_throttled.fetch_add(1, Ordering::Relaxed);
            // Retry-After on every turn-away: the bucket refills within
            // a second at any configured rate worth throttling at.
            return Response::new(StatusCode::TOO_MANY_REQUESTS)
                .with_body(b"report rate limit exceeded".to_vec(), "text/plain")
                .with_header("Retry-After", &SHED_RETRY_AFTER_SECS.to_string());
        }
        // Wire-format negotiation: the media type (parameters stripped)
        // selects the decoder; everything else — bounds, error surface,
        // admission — is identical across encodings. Either decoder
        // borrows the report's strings from the body.
        let binary = request
            .header("content-type")
            .and_then(|ct| ct.split(';').next())
            .map(|media| {
                media
                    .trim()
                    .eq_ignore_ascii_case(oak_core::wire::OAK_REPORT_CONTENT_TYPE)
            })
            .unwrap_or(false);
        let parse_start = self.obs.as_ref().map(|o| o.now());
        let parse_span = oak_obs::span("parse_report");
        let parsed = if binary {
            oak_core::wire::decode(&request.body)
        } else {
            PerfReport::decode_json(&request.body)
        };
        drop(parse_span);
        if let (Some(obs), Some(start)) = (&self.obs, parse_start) {
            oak_core::obs::CoreMetrics::record(&obs.core.report_parse, start, obs.now());
        }
        if let Some(obs) = &self.obs {
            let counter = match (&parsed, binary) {
                (Ok(_), true) => &obs.core.decode_binary,
                (Ok(_), false) => &obs.core.decode_json,
                (Err(_), true) => &obs.core.decode_errors_binary,
                (Err(_), false) => &obs.core.decode_errors_json,
            };
            counter.inc();
        }
        let mut report = match parsed {
            Ok(r) => r,
            Err(e) => {
                self.stats.reports_rejected.fetch_add(1, Ordering::Relaxed);
                return Response::new(StatusCode::BAD_REQUEST)
                    .with_body(e.to_string().into_bytes(), "text/plain");
            }
        };
        // The identifying cookie is authoritative for the user id (§4:
        // the cookie lets the server connect performance to the client).
        if let Some(user) = cookie_user {
            report.user = Cow::Borrowed(user);
        }
        // Gate on the resolved identity after parsing: only now is the
        // user this report would mutate known.
        if let Some(refusal) = self.cluster_gate(&report.user) {
            return refusal;
        }
        // The transport-observed peer address (set by the TCP server,
        // never client-forgeable) feeds subnet-scoped rule policies.
        let client_ip = request.header(oak_http::PEER_ADDR_HEADER);
        let live = self.live_engine();
        let oak = live.as_deref().unwrap_or(&self.oak);
        oak.ingest_report_from(now, &report, &*self.fetcher, client_ip);
        // The engine head now covers every event this report emitted;
        // the ack below may not be released before the replication
        // watermark reaches it.
        let head = oak.event_seq();
        self.stats.reports_accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.durable {
            // Compaction errors must not fail the client's report; the
            // store's write_errors counter carries them to the operator.
            let _ = store.maybe_snapshot(oak);
        }
        // A 204 *means* majority-durable (DESIGN.md §14). In a cluster,
        // hold it until the watermark covers the ingested events; if
        // replication stalls (majority unreachable, lease lost
        // mid-ingest), answer 503 instead — the report was applied
        // locally, so the client's retry is at-least-once, which beats
        // acking an event a failover would lose.
        if let Some(cluster) = self.cluster.get() {
            let _span = oak_obs::span("commit_wait");
            let start = self.obs.as_ref().map(|o| o.now());
            let committed = cluster.wait_for_commit(&report.user, head);
            if let (Some(obs), Some(start)) = (&self.obs, start) {
                obs.record_commit_wait(start);
            }
            if !committed {
                return self.cluster_refusal(b"report not yet replicated to a majority; retry");
            }
        }
        Response::new(StatusCode::NO_CONTENT)
    }

    /// The request-cadence idle-user sweep (no-op unless configured).
    /// Under Brownout the cadence stretches by the controller's
    /// multiplier — a saturated node defers background work first.
    fn maybe_prune(&self) {
        let Some(policy) = &self.prune else { return };
        let count = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let stretch = self
            .overload
            .as_ref()
            .map_or(1, |overload| overload.prune_stretch());
        if !count.is_multiple_of(policy.every_requests.max(1).saturating_mul(stretch)) {
            return;
        }
        if let Some(cluster) = self.cluster.get() {
            if !cluster.leads_maintenance() {
                return;
            }
        }
        let now = (self.clock)();
        let cutoff = Instant(now.as_millis().saturating_sub(policy.idle_ms));
        let live = self.live_engine();
        let oak = live.as_deref().unwrap_or(&self.oak);
        let pruned = oak.prune_inactive_users(cutoff) as u64;
        if pruned > 0 {
            self.stats.users_pruned.fetch_add(pruned, Ordering::Relaxed);
        }
    }
}

impl OakService {
    fn dispatch(&self, request: &Request) -> Response {
        let path = request.path().to_owned();
        self.maybe_prune();
        match (request.method, path.as_str()) {
            (Method::Post, REPORT_PATH) => self.accept_report(request),
            (Method::Get, crate::AUDIT_PATH) => self.audit_view(),
            (Method::Get, crate::STATS_PATH) => self.stats_view(),
            (Method::Get, crate::METRICS_PATH) => self.metrics_view(),
            (Method::Get, crate::TRACE_PATH) => self.trace_view(),
            (Method::Get | Method::Head, crate::HEALTH_PATH) => self.health_view(),
            (Method::Get | Method::Head, _) => {
                if let Some(html) = self.store.page(&path) {
                    return self.serve_page(request, &path, html);
                }
                if let Some((content_type, bytes)) = self.store.object(&path) {
                    self.stats.objects_served.fetch_add(1, Ordering::Relaxed);
                    return Response::new(StatusCode::OK).with_body(bytes.to_vec(), content_type);
                }
                Response::not_found()
            }
            _ => Response::new(StatusCode(405))
                .with_body(b"method not allowed".to_vec(), "text/plain"),
        }
    }
}

impl Handler for OakService {
    fn handle(&self, request: &Request) -> Response {
        // The trace guard opens before dispatch and closes after the
        // response is built, so every stage span a layer below pushes
        // (parse_report, ingest, detect, match, modify_page, rewrite,
        // wal_append, fetch) nests under this request's trace. Under
        // Brownout tracing is suspended — the ring buffer and span
        // formatting are overhead a saturated node can drop without a
        // client noticing (response counting stays on; it is one add).
        let browned = self
            .overload
            .as_ref()
            .is_some_and(|overload| overload.brownout_active());
        let trace = self.obs.as_ref().filter(|_| !browned).map(|obs| {
            obs.tracer
                .begin(&format!("{} {}", request.method.as_str(), request.path()))
        });
        let response = self.dispatch(request);
        if let Some(obs) = &self.obs {
            obs.count_response(response.status.0);
        }
        drop(trace);
        response
    }

    /// The one shed point: consulted by the server the moment a
    /// request head is framed, before any body byte is read and before
    /// the request queues for a worker. A live controller reads its
    /// signal here, then pages, scrapes and reports are refused by
    /// class priority, so a refusal never waits behind the queue it
    /// relieves. The transport keeps a body-less request's connection
    /// open and closes one whose body it left unread.
    fn admit(&self, _method: Method, target: &str) -> Option<Response> {
        let overload = self.overload.as_ref()?;
        overload.tick((self.clock)().as_millis());
        let path = target.split('?').next().unwrap_or(target);
        overload.shed(RequestClass::of(path))
    }

    /// The queue deadline never drops a health probe: a load balancer
    /// must be able to distinguish a saturated node from a dead one.
    fn shed_exempt(&self, target: &str) -> bool {
        let path = target.split('?').next().unwrap_or(target);
        path == crate::HEALTH_PATH
    }
}

/// A one-value series with its labels sorted, for synthesized families.
fn scalar_series(labels: &[(&str, &str)], value: f64) -> Series {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    labels.sort();
    Series {
        labels,
        value: SeriesValue::Scalar(value),
    }
}

/// A family synthesized from an existing stats snapshot (transport,
/// fetch, service counters) rather than registered in the registry.
fn scalar_family(name: &str, help: &str, kind: FamilyKind, series: Vec<Series>) -> Family {
    Family {
        name: name.to_owned(),
        help: help.to_owned(),
        kind,
        series,
    }
}
