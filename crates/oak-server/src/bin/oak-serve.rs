//! `oak-serve` — the Oak proxy as an operator command.
//!
//! Serves a document root through the Oak rewriting engine, exactly as
//! the paper deploys it: "a multi-threaded server … which serves a dual
//! purpose as both the web server and the Oak server platform" (§5).
//!
//! ```text
//! oak-serve --root ./site --rules ./site.oakrules [--port 8080]
//!           [--edge-workers <n>]
//!           [--store ./oak-state] [--fsync always|never|<n>]
//!           [--cluster --peers <a:p,b:p,c:p> --role <n>]
//!           [--snapshot-every <events>]
//!           [--prune-idle-ms <ms>] [--prune-every <requests>]
//!           [--max-connections <n>] [--max-head-bytes <n>]
//!           [--max-body-bytes <n>] [--read-timeout-ms <ms>]
//!           [--write-timeout-ms <ms>] [--max-report-bytes <n>]
//!           [--report-rate <per-sec>] [--report-burst <n>]
//!           [--slow-ms <ms>] [--trace-ring <n>]
//! ```
//!
//! Every connection is served from one non-blocking reactor thread
//! plus `--edge-workers` handler threads (see `oak_edge`), sized for
//! thousands of mostly-idle keep-alive clients. Unix only: elsewhere
//! the binary builds and exits with an `Unsupported` error.
//!
//! `--cluster` replicates the engine across the `--peers` list (this
//! node is entry `--role`): the primary journals every mutation and
//! ships WAL frames to followers, a heartbeat/lease protocol elects a
//! new primary on node death, and followers refuse client traffic with
//! `503 Retry-After` until they hold the lease. Requires `--store`
//! (the replication journal lives there). See `oak_server::ClusterRuntime`
//! and the `oak-cluster` crate; `oak-sim --cluster` proves the same
//! protocol lossless under crashes and partitions.
//!
//! `--rules` takes the §4.1 spec format (see `oak_core::spec`), e.g.:
//!
//! ```text
//! (2, "<script src=\"http://s1.com/jquery.js\">",
//!     "<script src=\"http://s2.net/jquery.js\">", 0, *)
//! ```
//!
//! With `--store`, engine state (rules, activations, aggregates, audit
//! log) survives restarts: mutations are journaled to a write-ahead log
//! in the given directory and compacted into snapshots; on boot the
//! newest valid snapshot is loaded and the WAL tail replayed. When the
//! recovered engine already holds rules, `--rules` is skipped — the
//! journal, not the file, is authoritative after the first run.
//!
//! The audit log the engine keeps, and `/oak/audit` folds, is its latest
//! 4 MiB of records (`oak_core::engine::LOG_BYTES`); with `--store`,
//! older records stay in the WAL until a snapshot compacts it.
//!
//! Clients POST performance reports to `/oak/report`; pages are
//! personalized per user via the `oak_uid` cookie.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use oak_core::engine::OakConfig;
use oak_core::Instant;
use oak_edge::{EdgeConfig, EdgeServer};
use oak_http::{ServerLimits, TransportStats};
use oak_server::{
    load_root, load_rules_into, AdmissionPolicy, ClusterRuntime, HealthState, OakService,
    OverloadController, OverloadPolicy, PrunePolicy, ServiceObs, METRICS_PATH,
    OVERLOAD_INTERVAL_MS, REPORT_PATH,
};
use oak_store::{FsyncPolicy, OakStore, StoreOptions};

/// `--cluster` settings: the peer list and this node's index in it.
struct ClusterConfig {
    peers: Vec<String>,
    role: u32,
}

struct Args {
    root: PathBuf,
    rules: Option<PathBuf>,
    port: u16,
    cluster: Option<ClusterConfig>,
    edge: EdgeConfig,
    store: Option<PathBuf>,
    store_options: StoreOptions,
    prune: Option<PrunePolicy>,
    limits: ServerLimits,
    admission: AdmissionPolicy,
    overload: bool,
    slow_ms: u64,
    trace_ring: usize,
}

const USAGE: &str = "usage: oak-serve --root <dir> [--rules <file>] [--port <n>] \
[--edge-workers <n>] \
[--store <dir>] [--fsync always|never|<n>] [--snapshot-every <events>] \
[--cluster --peers <a:p,b:p,...> --role <n>] \
[--prune-idle-ms <ms>] [--prune-every <requests>] \
[--max-connections <n>] [--max-head-bytes <n>] [--max-body-bytes <n>] \
[--read-timeout-ms <ms>] [--write-timeout-ms <ms>] [--queue-deadline-ms <ms>] \
[--max-report-bytes <n>] [--report-rate <per-sec>] [--report-burst <n>] \
[--overload] [--slow-ms <ms>] [--trace-ring <n>]

site:
  --root <dir>             document root served through the engine (required)
  --rules <file>           rules in the §4.1 spec format, loaded at boot;
                           skipped when a recovered --store already holds
                           rules (the journal is authoritative)
  --port <n>               port to listen on (default 8080)

transport (one non-blocking reactor thread + a small worker pool; unix
only; /oak/stats and /oak/health carry its gauges):
  --edge-workers <n>       handler threads (default 0 = size from
                           available cores)

durability (see DESIGN.md §8):
  --store <dir>            journal every engine mutation to a write-ahead
                           log in <dir> and recover from it at boot
                           (default: engine state lives in memory only)
  --fsync always|never|<n> fsync the log after every append, never, or
                           every <n> appends (default 64)
  --snapshot-every <events>
                           compact the log into a snapshot every this many
                           events (default 10000)

engine state:
  --prune-idle-ms <ms>     evict per-user state idle for longer than this
                           (default: never)
  --prune-every <requests> run the idle sweep once every this many
                           requests (default 1024; needs --prune-idle-ms)

replication (requires --store; see the README cluster quickstart):
  --cluster                replicate the engine across --peers: WAL
                           shipping, heartbeat/lease failover, and
                           503+Retry-After from followers
  --peers <a:p,b:p,...>    every node's replication address, in node-id
                           order (this node binds its own entry)
  --role <n>               this node's index into --peers

transport limits (served with 503/431/413/408 when exceeded):
  --max-connections <n>    concurrent connections before 503 (default 1024)
  --max-head-bytes <n>     request-head cap before 431 (default 65536)
  --max-body-bytes <n>     request-body cap before 413 (default 16 MiB)
  --read-timeout-ms <ms>   per-request read budget before 408 (default 10000)
  --write-timeout-ms <ms>  socket write timeout (default 10000)
  --queue-deadline-ms <ms> drop worker-queued requests older than this with
                           503 + Retry-After (CoDel-at-dequeue; 0 = off,
                           the default; health probes are never dropped)

report admission (at /oak/report):
  --max-report-bytes <n>   report-body cap before 413 (default 1 MiB)
  --report-rate <per-sec>  sustained reports/s per user; 0 = unlimited (default)
  --report-burst <n>       burst allowance above the sustained rate (default 10)

overload control (the brownout/shed ladder; see DESIGN.md §15):
  --overload               arm the controller on the worker queue's
                           minimum sojourn per 100 ms interval (CoDel's
                           signal): from 5 ms Brownout serves pages
                           unrewritten and throttles background work;
                           from 10, 20 and 40 ms Shedding refuses pages,
                           then scrapes, then report ingest with
                           503 + Retry-After before they queue
                           (/oak/health never)

observability (scrape /oak/metrics, traces at /oak/trace/recent):
  --slow-ms <ms>           log traces slower than this (default 500)
  --trace-ring <n>         completed traces kept for /oak/trace/recent (default 256)";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut root = None;
    let mut rules = None;
    let mut port = 8080u16;
    let mut cluster = false;
    let mut peers: Vec<String> = Vec::new();
    let mut role = None;
    let mut edge = EdgeConfig::default();
    let mut store = None;
    let mut store_options = StoreOptions::default();
    let mut prune_idle_ms = None;
    let mut prune_every = 1024u64;
    let mut limits = ServerLimits::default();
    let mut admission = AdmissionPolicy::default();
    let mut overload = false;
    let mut slow_ms = 500u64;
    let mut trace_ring = 256usize;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let number = |name: &str, raw: String| {
            raw.parse::<u64>()
                .map_err(|_| format!("{name} requires a number"))
        };
        match flag.as_str() {
            "--root" => root = Some(PathBuf::from(value("--root")?)),
            "--rules" => rules = Some(PathBuf::from(value("--rules")?)),
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|_| "--port requires a number".to_owned())?;
            }
            "--edge-workers" => {
                edge.workers = number("--edge-workers", value("--edge-workers")?)? as usize;
            }
            "--cluster" => cluster = true,
            "--peers" => {
                peers = value("--peers")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--role" => role = Some(number("--role", value("--role")?)? as u32),
            "--store" => store = Some(PathBuf::from(value("--store")?)),
            "--fsync" => {
                store_options.fsync = match value("--fsync")?.as_str() {
                    "always" => FsyncPolicy::Always,
                    "never" => FsyncPolicy::Never,
                    n => FsyncPolicy::EveryN(number("--fsync", n.to_owned())?.max(1)),
                };
            }
            "--snapshot-every" => {
                store_options.snapshot_every_events =
                    number("--snapshot-every", value("--snapshot-every")?)?.max(1);
            }
            "--prune-idle-ms" => {
                prune_idle_ms = Some(number("--prune-idle-ms", value("--prune-idle-ms")?)?);
            }
            "--prune-every" => {
                prune_every = number("--prune-every", value("--prune-every")?)?.max(1);
            }
            "--max-connections" => {
                limits.max_connections =
                    number("--max-connections", value("--max-connections")?)?.max(1) as usize;
            }
            "--max-head-bytes" => {
                limits.max_head_bytes =
                    number("--max-head-bytes", value("--max-head-bytes")?)?.max(1) as usize;
            }
            "--max-body-bytes" => {
                limits.max_body_bytes =
                    number("--max-body-bytes", value("--max-body-bytes")?)? as usize;
            }
            "--read-timeout-ms" => {
                limits.read_timeout = Duration::from_millis(
                    number("--read-timeout-ms", value("--read-timeout-ms")?)?.max(1),
                );
            }
            "--write-timeout-ms" => {
                limits.write_timeout = Duration::from_millis(
                    number("--write-timeout-ms", value("--write-timeout-ms")?)?.max(1),
                );
            }
            "--queue-deadline-ms" => {
                limits.queue_deadline = Duration::from_millis(number(
                    "--queue-deadline-ms",
                    value("--queue-deadline-ms")?,
                )?);
            }
            "--overload" => overload = true,
            "--max-report-bytes" => {
                admission.max_report_bytes =
                    number("--max-report-bytes", value("--max-report-bytes")?)? as usize;
            }
            "--report-rate" => {
                admission.report_rate = value("--report-rate")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or("--report-rate requires a non-negative number")?;
            }
            "--report-burst" => {
                admission.report_burst = value("--report-burst")?
                    .parse::<f64>()
                    .ok()
                    .filter(|b| b.is_finite() && *b >= 1.0)
                    .ok_or("--report-burst requires a number >= 1")?;
            }
            "--slow-ms" => slow_ms = number("--slow-ms", value("--slow-ms")?)?,
            "--trace-ring" => {
                trace_ring = number("--trace-ring", value("--trace-ring")?)?.max(1) as usize;
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    let cluster = if cluster {
        let role = role.unwrap_or(0);
        if peers.len() < 2 {
            return Err("--cluster requires --peers with at least two addresses".into());
        }
        if role as usize >= peers.len() {
            return Err(format!(
                "--role {role} is out of range for {} peer(s)",
                peers.len()
            ));
        }
        if store.is_none() {
            return Err("--cluster requires --store (the replication journal lives there)".into());
        }
        Some(ClusterConfig { peers, role })
    } else {
        if !peers.is_empty() {
            return Err("--peers requires --cluster".into());
        }
        if role.is_some() {
            return Err("--role requires --cluster".into());
        }
        None
    };
    Ok(Args {
        root: root.ok_or("--root is required (try --help)")?,
        rules,
        port,
        cluster,
        edge,
        store,
        store_options,
        prune: prune_idle_ms.map(|idle_ms| PrunePolicy {
            idle_ms,
            every_requests: prune_every,
        }),
        limits,
        admission,
        overload,
        slow_ms,
        trace_ring,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let store = match load_root(&args.root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to load --root {}: {e}", args.root.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {} page(s) from {}",
        store.page_count(),
        args.root.display()
    );

    let config = OakConfig::default();

    // --cluster: the replication runtime owns the store directory and
    // the engine; the service resolves the live replica per request via
    // its ClusterStatusSource, so the engine built below is only the
    // single-node fallback.
    let cluster_runtime = match &args.cluster {
        Some(cfg) => {
            let dir = args.store.as_ref().expect("validated in parse_args");
            match ClusterRuntime::start(
                cfg.role,
                cfg.peers.clone(),
                dir,
                config,
                args.store_options,
            ) {
                Ok(runtime) => {
                    if let Some(engine) = runtime.boot_engine() {
                        eprintln!(
                            "cluster node {} of {}: recovered {} rule(s), {} user(s) from {}",
                            cfg.role,
                            cfg.peers.len(),
                            engine.rules().count(),
                            engine.user_count(),
                            dir.display(),
                        );
                    }
                    if let Some(path) = &args.rules {
                        // Seeding a follower replica directly would
                        // diverge it; the runtime applies the file once
                        // this node first holds the lease, so the rules
                        // ship through the WAL like any mutation.
                        eprintln!(
                            "--rules {} deferred until this node holds the primary lease",
                            path.display()
                        );
                        runtime.seed_rules_when_primary(path.clone());
                    }
                    Some(runtime)
                }
                Err(e) => {
                    eprintln!("failed to start the cluster runtime: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    // With --store, the journal is the source of truth: recover first,
    // then only seed rules from --rules on a virgin store.
    let (oak, durable) = if let Some(runtime) = &cluster_runtime {
        (oak_core::engine::Oak::new(config), runtime.store())
    } else {
        match &args.store {
            Some(dir) => match OakStore::boot(dir, config, args.store_options) {
                Ok(boot) => {
                    eprintln!(
                        "recovered {} rule(s), {} user(s) from {} ({} event(s) replayed{}{})",
                        boot.oak.rules().count(),
                        boot.oak.user_count(),
                        dir.display(),
                        boot.events_replayed,
                        if boot.snapshot_loaded {
                            ", snapshot loaded"
                        } else {
                            ""
                        },
                        if boot.torn_segments > 0 {
                            ", torn WAL tail truncated"
                        } else {
                            ""
                        },
                    );
                    (boot.oak, Some(boot.store))
                }
                Err(e) => {
                    eprintln!("failed to open --store {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            None => (oak_core::engine::Oak::new(config), None),
        }
    };

    // In cluster mode --rules was handed to the runtime above; seeding
    // the fallback engine here would bypass replication.
    if args.cluster.is_none() {
        match &args.rules {
            Some(path) if oak.rules().count() == 0 => match load_rules_into(&oak, path) {
                Ok(count) => eprintln!("loaded {count} rule(s) from {}", path.display()),
                Err(e) => {
                    eprintln!("failed to load --rules {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            Some(path) => eprintln!(
                "--rules {} skipped: recovered store already holds rules",
                path.display()
            ),
            None if durable.is_none() => {
                eprintln!("no --rules given: serving without rewriting (reports still ingested)");
            }
            None => {}
        }
    }

    let t0 = std::time::Instant::now();
    let transport_stats = Arc::new(TransportStats::default());
    // One observability bundle spans the whole stack: the engine gets
    // its handles via with_obs, the WAL via set_obs, the transport via
    // start_with_config, and /oak/metrics scrapes them all.
    let obs = ServiceObs::wall(args.trace_ring, args.slow_ms);
    // Health starts at Booting so a probe racing the listener bind gets
    // 503, not 200; the flip to Serving happens after the bind succeeds.
    let mut service = OakService::new(oak, store)
        .with_health(HealthState::Booting)
        .with_clock(move || Instant(t0.elapsed().as_millis() as u64))
        .with_admission(args.admission)
        .with_transport_stats(Arc::clone(&transport_stats))
        .with_obs(Arc::clone(&obs));
    if let Some(store) = durable {
        store.set_obs(Arc::clone(&obs.store));
        service = service.with_durability(store);
    }
    if let Some(policy) = args.prune {
        eprintln!(
            "pruning users idle > {} ms (sweep every {} requests)",
            policy.idle_ms, policy.every_requests
        );
        service = service.with_pruning(policy);
    }
    if args.overload {
        let policy = OverloadPolicy::default();
        eprintln!(
            "overload control armed: minimum queue sojourn over {OVERLOAD_INTERVAL_MS} ms \
against a {} us target",
            policy.target_us,
        );
        service = service.with_overload(OverloadController::new(policy));
    }
    let service = service.into_shared();

    let handler: Arc<dyn oak_http::Handler> = service.clone();
    let server = match EdgeServer::start_with_config(
        args.port,
        handler,
        args.limits,
        transport_stats,
        Some(Arc::clone(&obs.http)),
        args.edge,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start the server on port {}: {e}", args.port);
            return ExitCode::FAILURE;
        }
    };
    // The reactor owns its gauges; hand them to the service so the
    // operator endpoints can render them.
    service.set_edge_stats(server.edge_stats());
    if let Some(runtime) = cluster_runtime {
        let cfg = args.cluster.as_ref().expect("runtime implies config");
        eprintln!(
            "cluster node {} replicating with peers on {} ({} member(s); \
non-primaries answer 503 + Retry-After)",
            cfg.role,
            cfg.peers[cfg.role as usize],
            cfg.peers.len(),
        );
        service.set_cluster_status(runtime);
    }
    service.set_health(HealthState::Serving);
    eprintln!(
        "oak-serve listening on http://{} (reports at {REPORT_PATH}, \
metrics at {METRICS_PATH}); ctrl-c to stop",
        server.addr(),
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, USAGE};

    fn parse(argv: &[&str]) -> Result<(), String> {
        parse_args(argv.iter().map(|arg| arg.to_string())).map(|_| ())
    }

    #[test]
    fn peers_and_role_are_refused_without_cluster() {
        assert_eq!(
            parse(&["--root", "site", "--peers", "a:1,b:2"]),
            Err("--peers requires --cluster".into())
        );
        assert_eq!(
            parse(&["--root", "site", "--role", "1", "--store", "d"]),
            Err("--role requires --cluster".into())
        );
        assert_eq!(
            parse(&[
                "--root",
                "site",
                "--cluster",
                "--peers",
                "a:1,b:2",
                "--role",
                "1",
                "--store",
                "d",
            ]),
            Ok(())
        );
    }

    #[test]
    fn detector_is_an_unknown_flag() {
        assert_eq!(
            parse(&["--root", "site", "--detector", "global"]),
            Err("unknown flag \"--detector\" (try --help)".into())
        );
    }

    /// Every flag the usage line names has a line of its own below it.
    #[test]
    fn help_describes_every_flag_in_the_usage_line() {
        let (usage, sections) = USAGE.split_once("\n\n").expect("usage line, then sections");
        let flags = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"));
        for flag in flags {
            assert!(
                sections.contains(&format!("\n  {flag} ")),
                "--help does not describe {flag}"
            );
        }
    }
}
