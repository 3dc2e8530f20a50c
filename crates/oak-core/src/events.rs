//! The replayable event API: every engine mutation as a serializable record.
//!
//! The engine's observable state — rules, per-user activations, the
//! activity log, the site aggregates — is worth weeks of client reports
//! (§3), so it must survive restarts. This module defines the durable
//! form of that state's *history*: each `&self` mutation on
//! [`crate::engine::Oak`] emits one [`EngineEvent`], tagged with a global
//! sequence number, to an optional [`EventSink`] (in production, the
//! `oak-store` write-ahead log). Replaying the events in sequence order
//! onto a fresh engine — [`crate::engine::Oak::apply_event`] — rebuilds
//! the exact pre-crash observables.
//!
//! # Distilled effects, not raw inputs
//!
//! Events record *decisions*, not inputs. An ingest's outcome depends on
//! the external-script fetcher ([`crate::matching::ScriptFetcher`]),
//! which is not available (and not deterministic) at recovery time, so
//! [`IngestEffect`] carries the resolved per-rule transitions and the
//! distilled aggregate folds instead of the client report. Replay then
//! needs no detector, no matcher, and no fetcher — it is a pure state
//! application, deterministic by construction. The only re-derived
//! quantity is an activation's starting alternative index, which is a
//! pure function of the rule's selection policy and the user id
//! ([`crate::rule::SelectionPolicy`]).
//!
//! # One apply path
//!
//! An event is not a description written after the fact: it *is* the
//! change. Every live mutator decides what will happen, builds the event,
//! applies that event to its own state, and only then emits it — and the
//! function it applies with is the one
//! [`crate::engine::Oak::apply_event`] calls. So the engine a journal was
//! recorded from, an engine rebuilt from that journal, and a replication
//! follower fed the same frames are equal by construction rather than by
//! two implementations being kept in step; what a log record says
//! happened and what happened to the user's state are read off the same
//! value.
//!
//! # Sequencing and shards
//!
//! Event sequence numbers are allocated while the emitting operation
//! still holds its engine locks, so for any two events that touch the
//! same lock (same user shard, or the rule table), sequence order equals
//! application order. Events for different shards commute, which is what
//! lets the WAL keep one segment per shard and merge by sequence number
//! on recovery.
//!
//! # Float fidelity
//!
//! Recovery must be byte-identical, so `f64` fields (severities, timing
//! samples, aggregate sums) are encoded as JSON *strings* via Rust's
//! shortest-round-trip formatter rather than as JSON numbers: this
//! preserves every finite value exactly and survives the non-finite
//! severities that [`crate::engine::Oak::force_activate`] records.

use oak_json::Value;

use crate::aggregates::ServerFold;
use crate::engine::{LogAction, LogEvent};
use crate::rule::{Rule, RuleId};
use crate::spec;
use crate::time::Instant;

/// Where emitted events go. `oak-store` implements this over per-shard
/// WAL segments; tests implement it over a `Mutex<Vec<_>>`.
///
/// `record` is called while the engine still holds the locks the
/// mutation took, so per-shard calls are already serialized in sequence
/// order; implementations must not call back into the engine.
pub trait EventSink: Send + Sync {
    /// Persists one event. `shard` is the user-state stripe the event
    /// belongs to, or `None` for rule-table (engine-global) events.
    fn record(&self, shard: Option<usize>, event: &SequencedEvent);
}

/// An [`EngineEvent`] with its global sequence number.
///
/// (No `PartialEq`: [`Rule`] scopes carry compiled patterns that do not
/// compare; tests compare events through [`SequencedEvent::to_value`].)
#[derive(Clone, Debug)]
pub struct SequencedEvent {
    /// Global event order; replay applies events ascending.
    pub seq: u64,
    /// Replication epoch the event was emitted under (see
    /// [`crate::engine::Oak::set_epoch`]). Single-node deployments leave
    /// it 0; `oak-cluster` stamps the primary's lease epoch so a
    /// follower tailing the WAL stream can reject frames from a deposed
    /// primary, and applying an event raises the engine's own
    /// [`crate::engine::Oak::epoch`] to it — the branch a replica's log
    /// is on. Events journaled before the field existed decode as
    /// epoch 0.
    pub epoch: u64,
    /// What happened.
    pub event: EngineEvent,
}

/// One engine mutation, in replayable (fetcher-free) form.
#[derive(Clone, Debug)]
pub enum EngineEvent {
    /// An operator rule was registered under `id`.
    RuleAdded {
        /// The id the engine allocated.
        id: RuleId,
        /// The rule, exactly as validated.
        rule: Rule,
    },
    /// A rule was removed (activations and pending counts cleared).
    RuleRemoved {
        /// The removed rule.
        id: RuleId,
    },
    /// A client report was ingested; see [`IngestEffect`].
    Ingest(IngestEffect),
    /// [`crate::engine::Oak::force_activate`] ran.
    ForceActivate {
        /// Activation time.
        time: Instant,
        /// The user toggled.
        user: String,
        /// The rule forced active.
        rule: RuleId,
    },
    /// [`crate::engine::Oak::force_deactivate`] removed an activation.
    ForceDeactivate {
        /// The user toggled.
        user: String,
        /// The rule deactivated.
        rule: RuleId,
    },
    /// Serving a page expired TTL-bound activations
    /// (`modify_page` is otherwise read-only and unlogged).
    ServeExpiry {
        /// Serve time.
        time: Instant,
        /// The user served.
        user: String,
        /// `(log sequence, rule)` per expiry, in log order.
        expired: Vec<(u64, RuleId)>,
    },
    /// [`crate::engine::Oak::prune_inactive_users`] dropped these users
    /// from one shard. Recording the resolved user list (not the cutoff)
    /// keeps replay exact even though per-user `last_seen` clocks are
    /// only approximately reconstructed.
    Pruned {
        /// The users removed.
        users: Vec<String>,
    },
}

/// The distilled, replayable effect of one [`crate::engine::Oak::ingest_report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestEffect {
    /// Ingest time (becomes the user's `last_seen`).
    pub time: Instant,
    /// The reporting user.
    pub user: String,
    /// Per-server aggregate increments (see
    /// [`crate::aggregates::SiteAggregates::fold_distilled`]).
    pub folds: Vec<ServerFold>,
    /// Rules whose pending-violation counter incremented without
    /// reaching the activation quota.
    pub pending: Vec<RuleId>,
    /// `(log sequence, event)` for every activity-log record this ingest
    /// appended — activations, advances, deactivations, TTL expiries —
    /// in append order. Replay applies both the log append and the
    /// user-state transition each record implies.
    pub records: Vec<(u64, LogEvent)>,
}

/// Exact `f64` encoding: Rust's shortest-round-trip decimal, as a JSON
/// string (survives `inf`; JSON numbers cannot).
pub(crate) fn f64_to_value(v: f64) -> Value {
    Value::String(format!("{v}"))
}

/// Inverse of [`f64_to_value`].
pub(crate) fn f64_from_value(v: &Value) -> Result<f64, String> {
    let s = v.as_str().ok_or("expected float string")?;
    s.parse::<f64>()
        .map_err(|e| format!("bad float {s:?}: {e}"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key:?}"))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn rule_id_field(v: &Value, key: &str) -> Result<RuleId, String> {
    let raw = u64_field(v, key)?;
    u32::try_from(raw)
        .map(RuleId)
        .map_err(|_| format!("rule id {raw} out of range"))
}

fn array_field<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing or non-array {key:?}"))
}

impl LogEvent {
    /// Encodes one activity-log record (without its sequence number).
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        doc.set("time", self.time.as_millis());
        doc.set("user", self.user.as_str());
        doc.set("rule", u64::from(self.rule.0));
        let mut action = Value::object();
        match &self.action {
            LogAction::Activated {
                violator_ip,
                severity,
            } => {
                action.set("k", "activated");
                action.set("ip", violator_ip.as_str());
                action.set("severity", f64_to_value(*severity));
            }
            LogAction::Advanced { to_index } => {
                action.set("k", "advanced");
                action.set("to", *to_index as u64);
            }
            LogAction::Deactivated => action.set("k", "deactivated"),
            LogAction::Expired => action.set("k", "expired"),
        }
        doc.set("action", action);
        doc
    }

    /// Inverse of [`LogEvent::to_value`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_value(v: &Value) -> Result<LogEvent, String> {
        let action_value = v.get("action").ok_or("missing \"action\"")?;
        let action = match str_field(action_value, "k")? {
            "activated" => LogAction::Activated {
                violator_ip: str_field(action_value, "ip")?.to_owned(),
                severity: f64_from_value(action_value.get("severity").ok_or("missing severity")?)?,
            },
            "advanced" => LogAction::Advanced {
                to_index: u64_field(action_value, "to")? as usize,
            },
            "deactivated" => LogAction::Deactivated,
            "expired" => LogAction::Expired,
            other => return Err(format!("unknown log action {other:?}")),
        };
        Ok(LogEvent {
            time: Instant(u64_field(v, "time")?),
            user: str_field(v, "user")?.to_owned(),
            rule: rule_id_field(v, "rule")?,
            action,
        })
    }
}

impl ServerFold {
    /// Encodes one aggregate fold.
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        let mut domains = Value::array();
        for d in &self.domains {
            domains.push(&**d);
        }
        doc.set("domains", domains);
        doc.set("objects", self.objects);
        doc.set("bytes", self.bytes);
        let mut small = Value::array();
        for &t in &self.small_times_ms {
            small.push(f64_to_value(t));
        }
        doc.set("small", small);
        let mut large = Value::array();
        for &t in &self.large_tputs_kbps {
            large.push(f64_to_value(t));
        }
        doc.set("large", large);
        doc.set("violated", self.violated);
        doc
    }

    /// Inverse of [`ServerFold::to_value`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_value(v: &Value) -> Result<ServerFold, String> {
        let mut fold = ServerFold {
            domains: Vec::new(),
            objects: u64_field(v, "objects")?,
            bytes: u64_field(v, "bytes")?,
            small_times_ms: Vec::new(),
            large_tputs_kbps: Vec::new(),
            violated: v
                .get("violated")
                .and_then(Value::as_bool)
                .ok_or("missing \"violated\"")?,
        };
        for d in array_field(v, "domains")? {
            fold.domains
                .push(std::sync::Arc::from(d.as_str().ok_or("non-string domain")?));
        }
        for t in array_field(v, "small")? {
            fold.small_times_ms.push(f64_from_value(t)?);
        }
        for t in array_field(v, "large")? {
            fold.large_tputs_kbps.push(f64_from_value(t)?);
        }
        Ok(fold)
    }
}

fn records_to_value(records: &[(u64, LogEvent)]) -> Value {
    let mut out = Value::array();
    for (seq, event) in records {
        let mut rec = event.to_value();
        rec.set("seq", *seq);
        out.push(rec);
    }
    out
}

fn records_from_value(v: &Value, key: &str) -> Result<Vec<(u64, LogEvent)>, String> {
    let mut out = Vec::new();
    for rec in array_field(v, key)? {
        out.push((u64_field(rec, "seq")?, LogEvent::from_value(rec)?));
    }
    Ok(out)
}

impl SequencedEvent {
    /// Encodes the event as a self-describing JSON object — the WAL frame
    /// payload.
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        doc.set("seq", self.seq);
        if self.epoch > 0 {
            doc.set("epoch", self.epoch);
        }
        match &self.event {
            EngineEvent::RuleAdded { id, rule } => {
                doc.set("t", "rule_added");
                doc.set("id", u64::from(id.0));
                // Rules travel in the §4.1 spec format, which round-trips
                // every field (alternatives, TTL, scope, policies,
                // sub-rules) through an existing, tested codec.
                doc.set("spec", spec::format_rule(rule));
            }
            EngineEvent::RuleRemoved { id } => {
                doc.set("t", "rule_removed");
                doc.set("id", u64::from(id.0));
            }
            EngineEvent::Ingest(effect) => {
                doc.set("t", "ingest");
                doc.set("time", effect.time.as_millis());
                doc.set("user", effect.user.as_str());
                let mut folds = Value::array();
                for fold in &effect.folds {
                    folds.push(fold.to_value());
                }
                doc.set("folds", folds);
                let mut pending = Value::array();
                for id in &effect.pending {
                    pending.push(u64::from(id.0));
                }
                doc.set("pending", pending);
                doc.set("records", records_to_value(&effect.records));
            }
            EngineEvent::ForceActivate { time, user, rule } => {
                doc.set("t", "force_activate");
                doc.set("time", time.as_millis());
                doc.set("user", user.as_str());
                doc.set("rule", u64::from(rule.0));
            }
            EngineEvent::ForceDeactivate { user, rule } => {
                doc.set("t", "force_deactivate");
                doc.set("user", user.as_str());
                doc.set("rule", u64::from(rule.0));
            }
            EngineEvent::ServeExpiry {
                time,
                user,
                expired,
            } => {
                doc.set("t", "serve_expiry");
                doc.set("time", time.as_millis());
                doc.set("user", user.as_str());
                let mut list = Value::array();
                for (seq, rule) in expired {
                    let mut pair = Value::array();
                    pair.push(*seq);
                    pair.push(u64::from(rule.0));
                    list.push(pair);
                }
                doc.set("expired", list);
            }
            EngineEvent::Pruned { users } => {
                doc.set("t", "pruned");
                let mut list = Value::array();
                for user in users {
                    list.push(user.as_str());
                }
                doc.set("users", list);
            }
        }
        doc
    }

    /// Inverse of [`SequencedEvent::to_value`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field, including rule-spec parse
    /// failures.
    pub fn from_value(v: &Value) -> Result<SequencedEvent, String> {
        let seq = u64_field(v, "seq")?;
        // Absent on events journaled before replication existed (and on
        // every single-node WAL): those are epoch 0 by definition.
        let epoch = v.get("epoch").and_then(Value::as_u64).unwrap_or(0);
        let event = match str_field(v, "t")? {
            "rule_added" => EngineEvent::RuleAdded {
                id: rule_id_field(v, "id")?,
                rule: spec::parse_rule(str_field(v, "spec")?).map_err(|e| e.to_string())?,
            },
            "rule_removed" => EngineEvent::RuleRemoved {
                id: rule_id_field(v, "id")?,
            },
            "ingest" => {
                let mut effect = IngestEffect {
                    time: Instant(u64_field(v, "time")?),
                    user: str_field(v, "user")?.to_owned(),
                    folds: Vec::new(),
                    pending: Vec::new(),
                    records: records_from_value(v, "records")?,
                };
                for fold in array_field(v, "folds")? {
                    effect.folds.push(ServerFold::from_value(fold)?);
                }
                for id in array_field(v, "pending")? {
                    let raw = id.as_u64().ok_or("non-integer pending rule id")?;
                    effect.pending.push(RuleId(
                        u32::try_from(raw).map_err(|_| "pending rule id out of range")?,
                    ));
                }
                EngineEvent::Ingest(effect)
            }
            "force_activate" => EngineEvent::ForceActivate {
                time: Instant(u64_field(v, "time")?),
                user: str_field(v, "user")?.to_owned(),
                rule: rule_id_field(v, "rule")?,
            },
            "force_deactivate" => EngineEvent::ForceDeactivate {
                user: str_field(v, "user")?.to_owned(),
                rule: rule_id_field(v, "rule")?,
            },
            "serve_expiry" => {
                let mut expired = Vec::new();
                for pair in array_field(v, "expired")? {
                    let seq = pair.at(0).and_then(Value::as_u64).ok_or("bad expiry seq")?;
                    let raw = pair
                        .at(1)
                        .and_then(Value::as_u64)
                        .ok_or("bad expiry rule")?;
                    expired.push((
                        seq,
                        RuleId(u32::try_from(raw).map_err(|_| "expiry rule id out of range")?),
                    ));
                }
                EngineEvent::ServeExpiry {
                    time: Instant(u64_field(v, "time")?),
                    user: str_field(v, "user")?.to_owned(),
                    expired,
                }
            }
            "pruned" => {
                let mut users = Vec::new();
                for user in array_field(v, "users")? {
                    users.push(user.as_str().ok_or("non-string pruned user")?.to_owned());
                }
                EngineEvent::Pruned { users }
            }
            other => return Err(format!("unknown event type {other:?}")),
        };
        Ok(SequencedEvent { seq, epoch, event })
    }
}
