//! Deterministic whole-system fault simulation for Oak.
//!
//! FoundationDB-style testing: the **real** `oak-core` engine, the real
//! `oak-store` WAL/snapshot stack, and the real `oak-server` service
//! logic run against simulated storage ([`SimFs`]), simulated time
//! ([`SimClock`]), and simulated CDN hosts ([`SimFetcher`]) — all
//! driven by one seed. A [`Scenario`] generated from that seed mixes
//! report ingest, page serves, rule churn, clock advances, fetch-target
//! partitions, and crash-recovery cycles; [`run_scenario`] executes it
//! and audits invariants at every step and every recovery:
//!
//! 1. **Durability** — under `FsyncPolicy::Always`, no event the store
//!    acknowledged before a crash may be missing after recovery.
//! 2. **Consistency** — the recovered engine must equal, byte for byte,
//!    the replay of exactly the event set it claims to reflect
//!    (`watermark` + `replayed_seqs`), as recorded by an independent
//!    mirror of everything the engine emitted.
//! 3. **Health gating** — a recovering node answers 503 on
//!    `/oak/health`; a serving one answers 200.
//! 4. **Rule integrity** — no user is ever left active on a rule that
//!    no longer exists.
//! 5. **Bounded memory** — a closed user pool and a configured log
//!    retention keep shard state and the audit log bounded under any
//!    schedule.
//! 6. **Observability consistency** — the end-of-run `/oak/metrics`
//!    scrape passes the exposition-grammar validator,
//!    `oak_wal_append_count` covers every event the store acknowledged
//!    while the machine was up, and `oak_http_responses_total` sums
//!    across status labels to exactly the requests handled.
//! 7. **Overload agreement** — a seed-determined pressure schedule
//!    drives the production overload controller (in driven mode, one
//!    sample per step) and an independent reference model
//!    ([`RefOverload`]) in lockstep; the two state machines must agree
//!    after every sample, every shed the reference demands must answer
//!    503 with a Retry-After hint, `/oak/health` must answer 200 (with
//!    a truthful `degraded` flag) through every state, and the
//!    controller's shed counters must reconcile exactly with the
//!    refusals the oracle witnessed — no acknowledged 204 retroactively
//!    shed, no shed unaccounted.
//!
//! Scenarios tagged with a [`ClusterSpec`] run the same engine/store
//! stack replicated across simulated nodes instead
//! ([`run_cluster_scenario`]): WAL-shipping replication with
//! heartbeat/lease failover (`oak-cluster`), wired through a simulated
//! network ([`SimNet`] — seeded delay, reordering, duplication, loss,
//! and scripted link cuts) with one [`SimFs`] per node. The cluster
//! oracle checks, at every tick and at a forced end-of-run heal:
//!
//! 1. **Losslessness** — no event acked at the replication watermark is
//!    ever missing from the authoritative (highest-epoch) primary, across
//!    any schedule of crashes, partitions, and failovers.
//! 2. **Election safety** — at most one primary per (partition, epoch).
//! 3. **Step-down and convergence** — after healing every link and
//!    reviving every node, each partition settles to exactly one
//!    primary and byte-identical replicas.
//!
//! A failing seed is shrunk by [`minimize`] (delta debugging over the
//! step list; [`minimize_with`] for the cluster runner) and the result
//! round-trips through JSON, so CI uploads a replayable artifact and
//! `oak-sim --replay` reproduces it locally. Two deliberate faults prove
//! the harness has teeth: `--buggy-dirsync` (dropped directory fsyncs)
//! trips the durability oracle, and `--buggy-promotion` (election votes
//! granted without the watermark check) trips the losslessness oracle.
//!
//! Everything here is deterministic: same scenario, same outcome, every
//! time, on every platform. No real disk, no real sockets, no real
//! sleeps — a hang costs simulated milliseconds and zero wall time.

pub mod clock;
pub mod cluster_world;
pub mod fetch;
pub mod fs;
pub mod minimize;
pub mod net;
pub mod overload_oracle;
pub mod rng;
pub mod scenario;
pub mod world;

pub use clock::SimClock;
pub use cluster_world::{run_any_scenario, run_cluster_scenario, ClusterSimOptions};
pub use fetch::{FetchFaults, HostMode, SimFetcher};
pub use fs::{FaultCounters, SimFs, SimFsOptions};
pub use minimize::{minimize, minimize_with, Minimized};
pub use net::{NetCounters, SimNet, SimNetOptions};
pub use overload_oracle::{pressure_of, RefOverload};
pub use rng::SimRng;
pub use scenario::{ClusterSpec, Scenario, Step, SCENARIO_VERSION};
pub use world::{
    fingerprint, run_scenario, run_scenario_observed, ObservedRun, RunStats, SimFailure,
};
