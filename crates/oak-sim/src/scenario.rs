//! Scenarios: the seeded workload + fault plan a simulation executes.
//!
//! A [`Scenario`] is plain data — a seed, an fsync policy, and a step
//! list — and the whole run is a deterministic function of it. That
//! buys the two properties the harness is for: any failure replays from
//! its scenario alone, and the minimizer can delete steps and re-run to
//! shrink a failure to its essence. Scenarios round-trip through JSON so
//! CI can upload a failing one as an artifact and a developer can replay
//! it locally with `oak-sim --replay`.
//!
//! Two scenario shapes share the format. **v1** (no `"v"` field) is the
//! original single-node shape: one engine, one disk, crash-recovery
//! cycles. **v2** (`"v": 2`) adds an optional `"cluster"` spec and
//! cluster fault steps — node crashes/restarts and link partitions —
//! and runs through the replicated world instead. Every v1 document
//! ever written by this tool still decodes and replays unchanged; v2
//! encoders only emit the new fields when a cluster is present, so
//! single-node scenarios round-trip byte-identically to v1.

use oak_json::Value;
use oak_store::FsyncPolicy;

use crate::rng::SimRng;

/// Users a scenario spreads traffic over.
pub const USERS: usize = 6;
/// Simulated CDN hosts (and the rule-per-host pool).
pub const HOSTS: usize = 4;

/// Highest scenario format version this build decodes.
pub const SCENARIO_VERSION: u64 = 2;

/// The replicated deployment a v2 scenario runs against: one
/// replication group, every node a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Group size (node ids `0..nodes`).
    pub nodes: u32,
}

/// One scheduled action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Register a rule against `cdn{host}`: kind 0 = remove, 1 =
    /// replace-identical, 2 = replace-different; `ttl_ms` 0 = no TTL.
    AddRule { host: u64, kind: u64, ttl_ms: u64 },
    /// Retire the `nth` live rule (modulo the table size).
    RemoveRule { nth: u64 },
    /// POST a performance report for `u-{user}`; a violating one names
    /// `cdn{host}` as the slow server. `binary` selects the
    /// `application/x-oak-report` wire encoding over JSON, so every
    /// scenario exercises both decode paths against the same invariants.
    Ingest {
        user: u64,
        host: u64,
        violating: bool,
        binary: bool,
    },
    /// GET the page as `u-{user}` (exercises rewrite + TTL expiry).
    Serve { user: u64 },
    /// Operator force-activates the `nth` rule for `u-{user}`.
    ForceActivate { user: u64, nth: u64 },
    /// Operator force-deactivates the `nth` rule for `u-{user}`.
    ForceDeactivate { user: u64, nth: u64 },
    /// Advance simulated time.
    AdvanceClock { ms: u64 },
    /// Change `cdn{host}`'s fetch behavior: 0 healthy, 1 unreachable,
    /// 2 hanging, 3 flaky.
    Partition { host: u64, mode: u64 },
    /// Force a snapshot + compaction now.
    Snapshot,
    /// Evict users idle longer than `idle_ms`.
    Prune { idle_ms: u64 },
    /// Arm the crash trigger: the machine dies `ops_ahead` storage
    /// operations from now; `survival_seed` decides what the disk keeps.
    /// Recovery (and its invariant audit) runs when the crash fires.
    Crash { ops_ahead: u64, survival_seed: u64 },
    /// Probe `/oak/health` and assert it matches the node's lifecycle.
    CheckHealth,
    /// (v2) Crash cluster node `node % nodes`: its disk stops
    /// `ops_ahead` storage operations from now (`0` = immediately),
    /// `survival_seed` decides what the disk keeps. The node stays down
    /// until a [`Step::RestartNode`] (or the end-of-run audit) revives
    /// it, so failover has to happen without it.
    CrashNode {
        node: u64,
        ops_ahead: u64,
        survival_seed: u64,
    },
    /// (v2) Power a crashed node back on: recover its partitions from
    /// surviving disk and rejoin as a follower.
    RestartNode { node: u64 },
    /// (v2) Cut the network link between two cluster nodes (both
    /// directions). Messages already in flight still arrive.
    PartitionLink { a: u64, b: u64 },
    /// (v2) Restore one cut link.
    HealLink { a: u64, b: u64 },
    /// (v2) Restore every cut link.
    HealAll,
}

impl Step {
    fn name(&self) -> &'static str {
        match self {
            Step::AddRule { .. } => "add_rule",
            Step::RemoveRule { .. } => "remove_rule",
            Step::Ingest { .. } => "ingest",
            Step::Serve { .. } => "serve",
            Step::ForceActivate { .. } => "force_activate",
            Step::ForceDeactivate { .. } => "force_deactivate",
            Step::AdvanceClock { .. } => "advance_clock",
            Step::Partition { .. } => "partition",
            Step::Snapshot => "snapshot",
            Step::Prune { .. } => "prune",
            Step::Crash { .. } => "crash",
            Step::CheckHealth => "check_health",
            Step::CrashNode { .. } => "crash_node",
            Step::RestartNode { .. } => "restart_node",
            Step::PartitionLink { .. } => "partition_link",
            Step::HealLink { .. } => "heal_link",
            Step::HealAll => "heal_all",
        }
    }
}

/// A complete, replayable simulation input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The seed everything else was derived from (kept for provenance
    /// and for re-seeding subsystems at run time).
    pub seed: u64,
    /// WAL fsync cadence for the run. `Always` arms the strict
    /// acknowledged-durability invariant; the others still get the exact
    /// consistency audit.
    pub fsync: FsyncPolicy,
    /// Snapshot-compaction threshold (events), kept small so compaction
    /// races the workload.
    pub snapshot_every: u64,
    /// `Some` makes this a v2 cluster scenario: the step list runs
    /// against a replicated deployment (the cluster world forces
    /// `FsyncPolicy::Always` — replication acks assert durability).
    pub cluster: Option<ClusterSpec>,
    /// The schedule.
    pub steps: Vec<Step>,
}

impl Scenario {
    /// The canonical scenario for `seed`: a mixed workload of ingest,
    /// serves, rule churn, time, fetch partitions, and crash-recovery
    /// cycles, ending in one final crash so every run closes with a full
    /// recovery audit.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = SimRng::new(seed);
        let fsync = match rng.below(4) {
            0 | 1 => FsyncPolicy::Always,
            2 => FsyncPolicy::EveryN(rng.range(1, 16)),
            _ => FsyncPolicy::Never,
        };
        let mut steps = Vec::new();
        // Open with rules so the workload has something to activate.
        for host in 0..2 {
            steps.push(Step::AddRule {
                host,
                kind: rng.below(3),
                ttl_ms: if rng.chance(1, 2) {
                    rng.range(20, 200)
                } else {
                    0
                },
            });
        }
        let body = rng.range(30, 120);
        for _ in 0..body {
            steps.push(match rng.below(100) {
                0..=29 => Step::Ingest {
                    user: rng.below(USERS as u64),
                    host: rng.below(HOSTS as u64),
                    violating: rng.chance(3, 4),
                    binary: rng.chance(1, 2),
                },
                30..=44 => Step::Serve {
                    user: rng.below(USERS as u64),
                },
                45..=58 => Step::AdvanceClock {
                    ms: rng.range(5, 400),
                },
                59..=63 => Step::AddRule {
                    host: rng.below(HOSTS as u64),
                    kind: rng.below(3),
                    ttl_ms: if rng.chance(1, 2) {
                        rng.range(20, 200)
                    } else {
                        0
                    },
                },
                64..=67 => Step::RemoveRule { nth: rng.below(8) },
                68..=73 => {
                    if rng.chance(1, 2) {
                        Step::ForceActivate {
                            user: rng.below(USERS as u64),
                            nth: rng.below(8),
                        }
                    } else {
                        Step::ForceDeactivate {
                            user: rng.below(USERS as u64),
                            nth: rng.below(8),
                        }
                    }
                }
                74..=81 => Step::Partition {
                    host: rng.below(HOSTS as u64),
                    mode: rng.below(4),
                },
                82..=86 => Step::Snapshot,
                87..=90 => Step::Prune {
                    idle_ms: rng.range(50, 500),
                },
                91..=96 => Step::Crash {
                    ops_ahead: rng.range(1, 40),
                    survival_seed: rng.next_u64(),
                },
                _ => Step::CheckHealth,
            });
        }
        steps.push(Step::Crash {
            ops_ahead: rng.range(1, 10),
            survival_seed: rng.next_u64(),
        });
        Scenario {
            seed,
            fsync,
            snapshot_every: rng.range(8, 64),
            cluster: None,
            steps,
        }
    }

    /// The canonical **cluster** scenario for `seed`: client traffic
    /// and rule churn interleaved with node crashes, restarts, and link
    /// partitions against a replication group of 3–5 nodes. Fsync is
    /// always `Always` — a replication ack asserts durability, so a
    /// looser policy would make the losslessness invariant vacuous.
    pub fn generate_cluster(seed: u64) -> Scenario {
        let mut rng = SimRng::new(seed ^ 0x636c_7573_7465_7232);
        // Majority quorums need 3 replicas to survive one failure.
        let nodes = rng.range(3, 6) as u32;
        let spec = ClusterSpec { nodes };
        let mut steps = Vec::new();
        // Let the first elections seat before traffic arrives.
        steps.push(Step::AdvanceClock {
            ms: rng.range(600, 1200),
        });
        for host in 0..2 {
            steps.push(Step::AddRule {
                host,
                kind: rng.below(3),
                ttl_ms: 0,
            });
        }
        let body = rng.range(40, 140);
        for _ in 0..body {
            steps.push(match rng.below(100) {
                0..=27 => Step::Ingest {
                    user: rng.below(USERS as u64),
                    host: rng.below(HOSTS as u64),
                    violating: rng.chance(3, 4),
                    binary: rng.chance(1, 2),
                },
                28..=38 => Step::Serve {
                    user: rng.below(USERS as u64),
                },
                // Cluster schedules lean on time: heartbeats, elections,
                // and WAL shipping all ride the tick cadence.
                39..=58 => Step::AdvanceClock {
                    ms: rng.range(20, 600),
                },
                59..=62 => Step::AddRule {
                    host: rng.below(HOSTS as u64),
                    kind: rng.below(3),
                    ttl_ms: 0,
                },
                63..=64 => Step::RemoveRule { nth: rng.below(8) },
                65..=68 => {
                    if rng.chance(1, 2) {
                        Step::ForceActivate {
                            user: rng.below(USERS as u64),
                            nth: rng.below(8),
                        }
                    } else {
                        Step::ForceDeactivate {
                            user: rng.below(USERS as u64),
                            nth: rng.below(8),
                        }
                    }
                }
                69..=76 => Step::PartitionLink {
                    a: rng.below(nodes as u64),
                    b: rng.below(nodes as u64),
                },
                77..=80 => Step::HealLink {
                    a: rng.below(nodes as u64),
                    b: rng.below(nodes as u64),
                },
                81..=83 => Step::HealAll,
                84..=90 => Step::CrashNode {
                    node: rng.below(nodes as u64),
                    ops_ahead: rng.range(0, 60),
                    survival_seed: rng.next_u64(),
                },
                91..=96 => Step::RestartNode {
                    node: rng.below(nodes as u64),
                },
                97..=98 => Step::Prune {
                    idle_ms: rng.range(50, 500),
                },
                _ => Step::CheckHealth,
            });
        }
        Scenario {
            seed,
            fsync: FsyncPolicy::Always,
            snapshot_every: rng.range(8, 64),
            cluster: Some(spec),
            steps,
        }
    }

    /// The mixed CI pool: even seeds replay the single-node shape, odd
    /// seeds the cluster shape, so one sweep covers both worlds.
    pub fn generate_mixed(seed: u64) -> Scenario {
        if seed.is_multiple_of(2) {
            Scenario::generate(seed)
        } else {
            Scenario::generate_cluster(seed)
        }
    }

    /// How many crash-recovery cycles the schedule holds.
    pub fn crash_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Crash { .. } | Step::CrashNode { .. }))
            .count()
    }

    /// Encodes the scenario as JSON. `u64` fields ride as decimal
    /// strings: seeds use all 64 bits and must survive the trip exactly,
    /// which `f64` numbers would not.
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        // Single-node scenarios stay in the v1 shape (no "v" field) so
        // artifacts from older builds and this one are byte-compatible;
        // only an actual cluster needs the v2 envelope.
        if let Some(spec) = &self.cluster {
            doc.set("v", SCENARIO_VERSION);
            // `partitions` and `replication` name the one layout a
            // cluster runs, in the fields earlier builds read.
            let mut cluster = Value::object();
            cluster.set("nodes", spec.nodes.to_string());
            cluster.set("partitions", "1");
            cluster.set("replication", spec.nodes.to_string());
            doc.set("cluster", cluster);
        }
        doc.set("seed", self.seed.to_string());
        doc.set(
            "fsync",
            match self.fsync {
                FsyncPolicy::Always => "always".to_owned(),
                FsyncPolicy::EveryN(n) => n.to_string(),
                FsyncPolicy::Never => "never".to_owned(),
            },
        );
        doc.set("snapshot_every", self.snapshot_every.to_string());
        let mut steps = Value::array();
        for step in &self.steps {
            let mut row = Value::object();
            row.set("op", step.name());
            let mut arg = |key: &str, value: u64| row.set(key, value.to_string());
            match step {
                Step::AddRule { host, kind, ttl_ms } => {
                    arg("host", *host);
                    arg("kind", *kind);
                    arg("ttl_ms", *ttl_ms);
                }
                Step::RemoveRule { nth } => arg("nth", *nth),
                Step::Ingest {
                    user,
                    host,
                    violating,
                    binary,
                } => {
                    arg("user", *user);
                    arg("host", *host);
                    arg("violating", u64::from(*violating));
                    arg("binary", u64::from(*binary));
                }
                Step::Serve { user } => arg("user", *user),
                Step::ForceActivate { user, nth } | Step::ForceDeactivate { user, nth } => {
                    arg("user", *user);
                    arg("nth", *nth);
                }
                Step::AdvanceClock { ms } => arg("ms", *ms),
                Step::Partition { host, mode } => {
                    arg("host", *host);
                    arg("mode", *mode);
                }
                Step::Snapshot | Step::CheckHealth | Step::HealAll => {}
                Step::Prune { idle_ms } => arg("idle_ms", *idle_ms),
                Step::Crash {
                    ops_ahead,
                    survival_seed,
                } => {
                    arg("ops_ahead", *ops_ahead);
                    arg("survival_seed", *survival_seed);
                }
                Step::CrashNode {
                    node,
                    ops_ahead,
                    survival_seed,
                } => {
                    arg("node", *node);
                    arg("ops_ahead", *ops_ahead);
                    arg("survival_seed", *survival_seed);
                }
                Step::RestartNode { node } => arg("node", *node),
                Step::PartitionLink { a, b } | Step::HealLink { a, b } => {
                    arg("a", *a);
                    arg("b", *b);
                }
            }
            steps.push(row);
        }
        doc.set("steps", steps);
        doc
    }

    /// Decodes a scenario previously encoded with [`Scenario::to_value`].
    pub fn from_value(doc: &Value) -> Result<Scenario, String> {
        let field = |row: &Value, key: &str| -> Result<u64, String> {
            row.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing field {key:?}"))?
                .parse::<u64>()
                .map_err(|_| format!("field {key:?} is not a u64"))
        };
        let version = match doc.get("v") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| "field \"v\" is not a version number".to_owned())?,
        };
        if version > SCENARIO_VERSION {
            return Err(format!(
                "scenario version {version} is newer than this build understands \
                 (max {SCENARIO_VERSION})"
            ));
        }
        let cluster = match doc.get("cluster") {
            None => None,
            Some(spec) => {
                let nodes = field(spec, "nodes")?;
                let partitions = field(spec, "partitions")?;
                let replication = field(spec, "replication")?;
                match u32::try_from(nodes) {
                    Ok(n) if n > 0 && partitions == 1 && replication == nodes => {
                        Some(ClusterSpec { nodes: n })
                    }
                    _ => {
                        return Err(format!(
                            "cluster layout of {nodes} node(s), {partitions} partition(s) of \
                             {replication} replica(s) is not supported: a cluster is one \
                             group with every node a replica"
                        ))
                    }
                }
            }
        };
        let fsync = match doc.get("fsync").and_then(Value::as_str) {
            Some("always") => FsyncPolicy::Always,
            Some("never") => FsyncPolicy::Never,
            Some(n) => FsyncPolicy::EveryN(n.parse().map_err(|_| "bad fsync cadence".to_owned())?),
            None => return Err("missing field \"fsync\"".into()),
        };
        let mut steps = Vec::new();
        for row in doc
            .get("steps")
            .and_then(Value::as_array)
            .ok_or("missing field \"steps\"")?
        {
            let op = row
                .get("op")
                .and_then(Value::as_str)
                .ok_or("step without op")?;
            steps.push(match op {
                "add_rule" => Step::AddRule {
                    host: field(row, "host")?,
                    kind: field(row, "kind")?,
                    ttl_ms: field(row, "ttl_ms")?,
                },
                "remove_rule" => Step::RemoveRule {
                    nth: field(row, "nth")?,
                },
                "ingest" => Step::Ingest {
                    user: field(row, "user")?,
                    host: field(row, "host")?,
                    violating: field(row, "violating")? != 0,
                    // Absent in scenarios minimized before the binary
                    // encoding existed; those replay as JSON ingests.
                    binary: match row.get("binary") {
                        Some(_) => field(row, "binary")? != 0,
                        None => false,
                    },
                },
                "serve" => Step::Serve {
                    user: field(row, "user")?,
                },
                "force_activate" => Step::ForceActivate {
                    user: field(row, "user")?,
                    nth: field(row, "nth")?,
                },
                "force_deactivate" => Step::ForceDeactivate {
                    user: field(row, "user")?,
                    nth: field(row, "nth")?,
                },
                "advance_clock" => Step::AdvanceClock {
                    ms: field(row, "ms")?,
                },
                "partition" => Step::Partition {
                    host: field(row, "host")?,
                    mode: field(row, "mode")?,
                },
                "snapshot" => Step::Snapshot,
                "prune" => Step::Prune {
                    idle_ms: field(row, "idle_ms")?,
                },
                "crash" => Step::Crash {
                    ops_ahead: field(row, "ops_ahead")?,
                    survival_seed: field(row, "survival_seed")?,
                },
                "check_health" => Step::CheckHealth,
                "crash_node" => Step::CrashNode {
                    node: field(row, "node")?,
                    ops_ahead: field(row, "ops_ahead")?,
                    survival_seed: field(row, "survival_seed")?,
                },
                "restart_node" => Step::RestartNode {
                    node: field(row, "node")?,
                },
                "partition_link" => Step::PartitionLink {
                    a: field(row, "a")?,
                    b: field(row, "b")?,
                },
                "heal_link" => Step::HealLink {
                    a: field(row, "a")?,
                    b: field(row, "b")?,
                },
                "heal_all" => Step::HealAll,
                other => return Err(format!("unknown step op {other:?}")),
            });
        }
        Ok(Scenario {
            seed: field(doc, "seed")?,
            fsync,
            snapshot_every: field(doc, "snapshot_every")?,
            cluster,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{Scenario, Step};

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Scenario::generate(7), Scenario::generate(7));
        assert_ne!(Scenario::generate(7), Scenario::generate(8));
    }

    #[test]
    fn every_scenario_ends_with_a_crash_audit() {
        for seed in 0..20 {
            let scenario = Scenario::generate(seed);
            assert!(matches!(scenario.steps.last(), Some(Step::Crash { .. })));
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for seed in [0, 1, 42, u64::MAX / 3] {
            let scenario = Scenario::generate(seed);
            let text = scenario.to_value().to_string();
            let parsed = Scenario::from_value(&oak_json::parse(&text).unwrap()).unwrap();
            assert_eq!(scenario, parsed);
        }
    }

    #[test]
    fn cluster_scenarios_round_trip_with_version_tag() {
        for seed in [0, 1, 9, 77] {
            let scenario = Scenario::generate_cluster(seed);
            assert!(scenario.cluster.is_some());
            let text = scenario.to_value().to_string();
            assert!(text.contains("\"v\":2"), "v2 envelope missing: {text}");
            let parsed = Scenario::from_value(&oak_json::parse(&text).unwrap()).unwrap();
            assert_eq!(scenario, parsed);
        }
    }

    #[test]
    fn single_node_scenarios_still_encode_as_v1() {
        // No "v", no "cluster": byte-compatible with artifacts written
        // before the cluster existed.
        let text = Scenario::generate(5).to_value().to_string();
        assert!(!text.contains("\"v\""));
        assert!(!text.contains("\"cluster\""));
    }

    #[test]
    fn future_versions_are_rejected_with_a_clear_error() {
        let mut doc = Scenario::generate(1).to_value();
        doc.set("v", 3u64);
        let err = Scenario::from_value(&doc).unwrap_err();
        assert!(err.contains("version 3"), "unhelpful error: {err}");
    }

    #[test]
    fn mixed_pool_alternates_shapes() {
        assert!(Scenario::generate_mixed(0).cluster.is_none());
        assert!(Scenario::generate_mixed(1).cluster.is_some());
        assert_eq!(Scenario::generate_mixed(3), Scenario::generate_cluster(3));
    }
}
