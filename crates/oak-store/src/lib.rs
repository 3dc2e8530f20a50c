//! Durability for the Oak engine: a write-ahead log, compacted
//! snapshots, and crash recovery.
//!
//! Oak's value compounds over time — per-user activations and per-server
//! aggregates are learned from weeks of client reports (paper §3) — yet
//! the engine itself is memory-only. This crate makes that state durable
//! without touching the engine's hot paths:
//!
//! 1. Every `&self` mutation on [`oak_core::engine::Oak`] emits a
//!    serializable [`oak_core::events::EngineEvent`] carrying the
//!    *decision* it made (which rules activated, what the aggregates
//!    folded), never the raw inputs — so replay needs no script fetcher
//!    and no clock, and is bit-for-bit deterministic.
//! 2. [`OakStore`] is an [`oak_core::events::EventSink`] that journals
//!    those events into CRC-framed, per-shard WAL segments
//!    ([`segment`]), fsyncing on a configurable policy.
//! 3. [`OakStore::snapshot`] compacts history into one state image
//!    ([`oak_core::engine::Oak::state_image`]), after which superseded
//!    segments are deleted.
//! 4. [`recover`] (or [`OakStore::boot`]) loads the newest valid
//!    snapshot and replays the WAL tail in global sequence order,
//!    truncating at the first torn or corrupt frame instead of failing —
//!    and refusing, rather than truncating at, a frame whose checksum
//!    holds but whose contents this build cannot read, or a journal
//!    compacted against a snapshot it cannot read.
//!
//! # Examples
//!
//! ```
//! use oak_core::prelude::*;
//! use oak_store::{FsyncPolicy, OakStore, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("oak-doc-{}", std::process::id()));
//! let options = StoreOptions { fsync: FsyncPolicy::Always, ..StoreOptions::default() };
//!
//! // First life: learn something, then "crash" (drop everything).
//! {
//!     let boot = OakStore::boot(&dir, OakConfig::default(), options).unwrap();
//!     let rule = Rule::remove(r#"<script src="http://slow.example/t.js">"#);
//!     let id = boot.oak.add_rule(rule).unwrap();
//!     boot.oak.force_activate(Instant::ZERO, "u-1", id);
//! }
//!
//! // Second life: the rule and the activation survived.
//! let boot = OakStore::boot(&dir, OakConfig::default(), options).unwrap();
//! assert_eq!(boot.events_replayed, 2); // RuleAdded + ForceActivate
//! assert_eq!(boot.oak.rules().count(), 1);
//! assert_eq!(boot.oak.active_rules("u-1").len(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod backend;
pub mod crc32;
pub mod obs;
pub mod segment;
pub mod store;
pub mod stream;

pub use backend::{RealFs, StorageBackend, StorageFile};
pub use obs::StoreMetrics;
pub use store::{
    recover, recover_with, Boot, FsyncPolicy, OakStore, Recovery, StoreOptions, RECENT_TAIL_CAP,
};
pub use stream::{decode_event, tail_wal, wal_watermark, Tail};
