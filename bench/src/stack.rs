//! Boots the serving stack in-process, as `oak-serve` wires it, and owns
//! the three seam wrappers the traced run records through.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oak_cluster::{PartitionStatus, Role};
use oak_core::engine::{Oak, OakConfig};
use oak_core::events::{EventSink, SequencedEvent};
use oak_core::matching::NoFetch;
use oak_edge::{AnyServer, Backend, EdgeConfig};
use oak_http::{Handler, Method, Request, Response, ServerLimits, TransportStats};
use oak_server::{
    ClusterRuntime, ClusterStatusSource, OakService, ServiceObs, SiteStore, METRICS_PATH,
    REPORT_PATH,
};
use oak_store::{OakStore, StoreOptions};

use crate::gen::{Inputs, PROBE_OBJECT_PATH, PROBE_POST_PATH, USERS};
use crate::host::Placement;
use crate::trace::{self, Recorder};
use crate::Workload;

/// Edge workers, as the issue fixes them (= `nproc` on the sizing host).
const EDGE_WORKERS: usize = 2;
/// `oak-serve`'s defaults for the trace ring and the slow-trace mark.
const TRACE_RING: usize = 256;
const SLOW_MS: u64 = 500;
/// Members of the replication group.
const REPLICAS: u32 = 3;
/// How far set-up lets the primary run ahead of the commit watermark.
const SHIP_WINDOW: u64 = 256;

/// A running stack and the handles the checks need.
pub struct Stack {
    /// The node the clients talk to (the lease holder in a cluster).
    pub server: AnyServer,
    /// The service behind it.
    pub service: Arc<OakService>,
    /// The store of a durable single node.
    pub store: Option<Arc<OakStore>>,
    /// Every member of the replication group, lease holder first.
    pub cluster: Vec<Arc<ClusterRuntime>>,
    /// Start of the group to a seated primary, in milliseconds.
    pub election_ms: f64,
}

impl Stack {
    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The engine requests run against.
    pub fn with_engine<T>(&self, f: impl FnOnce(&Oak) -> T) -> T {
        match self.cluster.first().and_then(|c| c.live_engine()) {
            Some(oak) => f(&oak),
            None => self.service.with_oak(f),
        }
    }

    /// WAL append failures of every store behind the stack.
    pub fn write_errors(&self) -> u64 {
        let single = self.store.iter().map(|s| s.write_errors());
        let group = self
            .cluster
            .iter()
            .filter_map(|c| c.store())
            .map(|s| s.write_errors());
        single.chain(group).sum()
    }
}

/// Boots the stack `workload` calls for under `dir`. With a recorder the
/// seam wrappers are installed (and stay silent until it is enabled);
/// without one the product runs bare.
pub fn boot(
    workload: Workload,
    inputs: &Inputs,
    dir: &Path,
    recorder: Option<&Arc<Recorder>>,
) -> io::Result<Stack> {
    let placement = Placement::choose();
    Placement::enter_server(placement);
    let mut site = SiteStore::new();
    for page in &inputs.pages {
        site.add_page(page.path.clone(), page.html.clone());
    }
    site.add_object(
        PROBE_OBJECT_PATH,
        "application/octet-stream",
        inputs.probe_object(),
    );
    let transport = Arc::new(TransportStats::default());
    let obs = ServiceObs::wall(TRACE_RING, SLOW_MS);
    let t0 = Instant::now();
    let build = |oak: Oak| {
        OakService::new(oak, site)
            .with_clock(move || oak_core::Instant(t0.elapsed().as_millis() as u64))
            .with_transport_stats(Arc::clone(&transport))
            .with_obs(Arc::clone(&obs))
    };

    let mut store = None;
    let mut cluster = Vec::new();
    let mut election_ms = 0.0;
    let service = match workload {
        Workload::PageServe | Workload::ReportIngest => {
            let oak = Oak::new(OakConfig::default());
            add_rules(&oak, inputs);
            build(oak)
        }
        Workload::DurableMixed => {
            let mut boot = OakStore::boot(
                dir.join("store"),
                OakConfig::default(),
                StoreOptions::default(),
            )?;
            if let Some(recorder) = recorder {
                boot.oak.set_event_sink(Arc::new(TeeSink {
                    inner: Arc::clone(&boot.store),
                    recorder: Arc::clone(recorder),
                }));
            }
            add_rules(&boot.oak, inputs);
            boot.store.set_obs(Arc::clone(&obs.store));
            store = Some(Arc::clone(&boot.store));
            build(boot.oak).with_durability(boot.store)
        }
        Workload::ReplicatedIngest => {
            (cluster, election_ms) = boot_cluster(inputs, dir, placement)?;
            Placement::enter_server(placement);
            let primary = &cluster[0];
            let mut service = build(Oak::new(OakConfig::default()));
            if let Some(durable) = primary.store() {
                durable.set_obs(Arc::clone(&obs.store));
                service = service.with_durability(durable);
            }
            service
        }
    };
    let service = service.into_shared();
    service.set_edge_backend(Backend::Epoll);
    let handler: Arc<dyn Handler> = match recorder {
        Some(recorder) => Arc::new(TracedHandler {
            inner: Arc::clone(&service),
            recorder: Arc::clone(recorder),
        }),
        None => service.clone(),
    };
    let server = AnyServer::start_with_config(
        Backend::Epoll,
        0,
        handler,
        ServerLimits::default(),
        transport,
        Some(Arc::clone(&obs.http)),
        EdgeConfig {
            workers: EDGE_WORKERS,
            ..EdgeConfig::default()
        },
    )
    .map_err(|e| io::Error::other(e.to_string()))?;
    Placement::enter_clients(placement);
    if let Some(edge) = server.edge_stats() {
        service.set_edge_stats(edge);
    }
    if let Some(primary) = cluster.first() {
        let source: Arc<dyn ClusterStatusSource> = match recorder {
            Some(recorder) => Arc::new(TracedCluster {
                inner: Arc::clone(primary),
                recorder: Arc::clone(recorder),
            }),
            None => primary.clone(),
        };
        service.set_cluster_status(source);
    }
    Ok(Stack {
        server,
        service,
        store,
        cluster,
        election_ms,
    })
}

/// Adds every generated rule to `oak`.
pub fn add_rules(oak: &Oak, inputs: &Inputs) {
    for rule in &inputs.rules {
        oak.add_rule(rule.clone())
            .expect("generated rules validate");
    }
}

/// Ingests one report per user straight into `oak`, as the set-up POSTs
/// would: the twin engines of the layer replay and the journals the
/// replication group boots from are built this way.
pub fn ingest_all_users(oak: &Oak, inputs: &Inputs) {
    let mut body = Vec::with_capacity(16 * 1024);
    for user in 0..USERS {
        let report = inputs.report_of(user, &mut body);
        oak.ingest_report(oak_core::Instant::ZERO, &report, &NoFetch);
    }
}

/// Starts the three-member group on empty directories and returns it with
/// the lease holder first, rules added and every user known on every
/// member, and the milliseconds the election took.
///
/// A report POST through the group takes two 20 ms ticks, so one set-up
/// POST per user would take minutes. The reports are instead ingested
/// through the primary's engine, as the service would after the same
/// decode; they reach the followers the way every mutation does, through
/// the WAL (one `Append` of 64 events per follower per tick), and set-up
/// waits until the commit watermark covers them all.
fn boot_cluster(
    inputs: &Inputs,
    dir: &Path,
    placement: Option<Placement>,
) -> io::Result<(Vec<Arc<ClusterRuntime>>, f64)> {
    let started = Instant::now();
    let peers = free_loopback_ports(REPLICAS as usize)?;
    let mut members = Vec::new();
    for i in 0..REPLICAS {
        members.push(ClusterRuntime::start(
            i,
            peers.clone(),
            &dir.join(format!("n{i}")),
            OakConfig::default(),
            StoreOptions::default(),
        )?);
    }
    // The set-up reports are the load here: decoded and ingested off the
    // CPU the members' tickers need for their heartbeats.
    Placement::enter_clients(placement);
    let deadline = Instant::now() + Duration::from_secs(60);
    let wait = |what: &str, done: &dyn Fn() -> bool| -> io::Result<()> {
        while !done() {
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "the group did not {what} within 60 s"
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    };
    wait("elect a primary", &|| {
        members.iter().any(|m| leads(&m.partitions()))
    })?;
    let election_ms = started.elapsed().as_secs_f64() * 1e3;
    let at = members
        .iter()
        .position(|m| leads(&m.partitions()))
        .expect("just seen");
    members.swap(0, at);
    let oak = members[0]
        .live_engine()
        .ok_or_else(|| io::Error::other("the primary has no engine"))?;
    add_rules(&oak, inputs);
    // No faster than the followers take it: a primary that runs more than
    // its 1,024-event recent ring ahead of them ships from a full scan of
    // the log on every tick, its heartbeats fall behind, and it is deposed
    // with the unreplicated tail discarded (README, "anomalies").
    let committed = || members[0].partitions().first().map_or(0, |p| p.commit);
    let mut body = Vec::with_capacity(16 * 1024);
    for user in 0..USERS {
        let report = inputs.report_of(user, &mut body);
        oak.ingest_report(oak_core::Instant::ZERO, &report, &NoFetch);
        let head = oak.event_seq();
        wait("keep up with the set-up reports", &|| {
            head.saturating_sub(committed()) <= SHIP_WINDOW || !leads(&members[0].partitions())
        })?;
    }
    let head = oak.event_seq();
    wait("replicate the set-up reports", &|| {
        committed() >= head || !leads(&members[0].partitions())
    })?;
    if !leads(&members[0].partitions()) {
        return Err(io::Error::other(format!(
            "{} during set-up",
            crate::run::LEASE_MOVED
        )));
    }
    Ok((members, election_ms))
}

fn leads(partitions: &[PartitionStatus]) -> bool {
    partitions.first().is_some_and(|p| p.role == Role::Primary)
}

fn free_loopback_ports(n: usize) -> io::Result<Vec<String>> {
    // All bound at once, so the kernel hands out distinct ports.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect()
}

/// Copies the regular files of `from` into `to` (store directories are
/// flat).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A fresh directory for this process under `bench/out`.
pub fn run_dir(label: &str) -> io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{label}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Span `oak-server.handle` around the service, keyed by the tag the
/// client sent.
struct TracedHandler {
    inner: Arc<OakService>,
    recorder: Arc<Recorder>,
}

impl Handler for TracedHandler {
    fn handle(&self, request: &Request) -> Response {
        let tag = request
            .header("x-bench-req")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|_| self.recorder.enabled());
        let Some(tag) = tag else {
            return self.inner.handle(request);
        };
        let class = match (request.method, request.path()) {
            (Method::Post, REPORT_PATH) => trace::REPORT,
            (_, METRICS_PATH) => trace::SCRAPE,
            (_, PROBE_OBJECT_PATH) => trace::PAGE_PROBE,
            (_, PROBE_POST_PATH) => trace::REPORT_PROBE,
            _ => trace::PAGE,
        };
        self.recorder
            .under_request(trace::HANDLE, tag, class, || self.inner.handle(request))
    }

    fn admit(&self, method: Method, target: &str) -> Option<Response> {
        self.inner.admit(method, target)
    }

    fn shed_exempt(&self, target: &str) -> bool {
        self.inner.shed_exempt(target)
    }
}

/// Span `oak-store.append` in front of the store's sink.
struct TeeSink {
    inner: Arc<OakStore>,
    recorder: Arc<Recorder>,
}

impl EventSink for TeeSink {
    fn record(&self, shard: Option<usize>, event: &SequencedEvent) {
        self.recorder
            .child(trace::APPEND, || self.inner.record(shard, event));
    }
}

/// Span `oak-cluster.commit_wait` around the runtime's commit wait.
struct TracedCluster {
    inner: Arc<ClusterRuntime>,
    recorder: Arc<Recorder>,
}

impl ClusterStatusSource for TracedCluster {
    fn partitions(&self) -> Vec<PartitionStatus> {
        self.inner.partitions()
    }

    fn is_primary_for(&self, user: &str) -> bool {
        self.inner.is_primary_for(user)
    }

    fn live_engine(&self) -> Option<Arc<Oak>> {
        self.inner.live_engine()
    }

    fn leads_maintenance(&self) -> bool {
        self.inner.leads_maintenance()
    }

    fn wait_for_commit(&self, user: &str, seq: u64) -> bool {
        self.recorder
            .child(trace::COMMIT_WAIT, || self.inner.wait_for_commit(user, seq))
    }
}
