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
//! # Byte layout
//!
//! One event is one flat, little-endian record: the WAL frame payload
//! (`oak-store`) and the element of a replication `Append`
//! (`oak-cluster`). This module is the only place the layout is written
//! ([`SequencedEvent::encode_into`], [`SequencedEvent::decode`]); DESIGN.md
//! §8 carries the same table.
//!
//! ```text
//! offset  size  field
//! 0       1     version   EVENT_VERSION (0x01). Never `{` (0x7B): that byte
//!                         opens a journal frame from before this layout,
//!                         which `oak-store` still reads (and never writes)
//!                         through SequencedEvent::from_value
//! 1       8     seq       u64
//! 9       8     epoch     u64
//! 17      1     kind      0 rule_added … 6 pruned
//! 18      …     body, by kind
//!
//! str  = len:u32, then len bytes of UTF-8
//! n×T  = count:u32, then count × T
//! f64  = the IEEE-754 bits as a u64
//!
//! 0 rule_added        id:u32  spec:str          (the §4.1 rule spec text)
//! 1 rule_removed      id:u32
//! 2 ingest            time:u64  user:str  n×fold  n×rule:u32  n×record
//! 3 force_activate    time:u64  user:str  rule:u32
//! 4 force_deactivate  user:str  rule:u32
//! 5 serve_expiry      time:u64  user:str  n×(seq:u64 rule:u32)
//! 6 pruned            n×str
//!
//! fold   = n×str (domains)  objects:u64  bytes:u64
//!          n×f64 (small ms)  n×f64 (large kbit/s)  violated:u8 (0 | 1)
//! record = seq:u64  time:u64  user:str  rule:u32  action
//! action = 0 ip:str severity:f64 | 1 to_index:u64 | 2 | 3
//!          (activated, advanced, deactivated, expired)
//! ```
//!
//! Recovery must be byte-identical, so an `f64` (severities, timing
//! samples) travels as its raw bits: every value is exact, and the
//! non-finite severities [`crate::engine::Oak::force_activate`] records
//! survive. The decoder checks every length and count against the bytes
//! that remain *before* it allocates for them, validates UTF-8, accepts
//! one encoding per value (so `encode(decode(b)) == b`) and rejects
//! trailing bytes.

use std::sync::Arc;

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
/// compare; tests compare events through [`SequencedEvent::encode`].)
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

/// Exact `f64` encoding for the snapshot document: Rust's
/// shortest-round-trip decimal, as a JSON string (survives `inf`; JSON
/// numbers cannot).
pub(crate) fn f64_to_value(v: f64) -> Value {
    Value::String(format!("{v}"))
}

/// Inverse of [`f64_to_value`].
pub(crate) fn f64_from_value(v: &Value) -> Result<f64, String> {
    let s = v.as_str().ok_or("expected float string")?;
    s.parse::<f64>()
        .map_err(|e| format!("bad float {s:?}: {e}"))
}

/// First byte of every encoded event.
pub const EVENT_VERSION: u8 = 1;

/// Bytes before an encoded event's body: version, `seq`, `epoch`, kind.
pub const EVENT_HEADER_LEN: usize = 18;

/// Appends a little-endian `u32` — with [`put_u64`], [`put_len`],
/// [`put_str`] and [`put_sized`] the write half of [`Reader`], shared with the
/// `oak-cluster` envelope like it.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length or element count as the `u32` [`Reader::list`] and
/// [`Reader::bytes`] read back.
///
/// # Panics
///
/// If `n` does not fit: nothing that is framed can be that long (a
/// frame's own length field is a `u32`).
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, len_u32(n));
}

fn len_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a framed list or string is far below 2^32 long")
}

/// Appends whatever `write` appends, behind its length in bytes — as
/// [`Reader::bytes`] reads it back.
pub fn put_sized(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    write(out);
    let len = len_u32(out.len() - at - 4);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends `s` as [`Reader::str`] reads it: length, then the bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends an `f64` as its IEEE-754 bits, as [`Reader::f64`] reads it.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_len(out, values.len());
    for v in values {
        put_f64(out, *v);
    }
}

/// A bounds-checked cursor over little-endian fields: the read half of
/// the event layout, of the `oak-cluster` envelope around it and of the
/// state image ([`crate::engine::Oak::from_state_image`]). Every
/// read names the field it was after, so an error says where a payload
/// stopped making sense.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "{what} needs {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let raw = self.take(4, what)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let raw = self.take(8, what)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// An `f64`, from its IEEE-754 bits.
    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, String> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u32`-length-prefixed run of bytes.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str(&mut self, what: &str) -> Result<&'a str, String> {
        std::str::from_utf8(self.bytes(what)?).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    /// A `u32` element count, refused unless the bytes that remain can
    /// hold that many elements of at least `min_item_bytes` each — so a
    /// lying count is an error before it sizes any allocation.
    pub(crate) fn count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() / min_item_bytes.max(1) {
            return Err(format!(
                "{n} {what} cannot fit in the {} bytes that remain",
                self.remaining()
            ));
        }
        Ok(n)
    }

    /// A `u32` element count, then that many elements, each read by
    /// `item` — the count checked first, against `min_item_bytes` each of
    /// the bytes that remain, so a lying one sizes no allocation.
    pub fn list<T>(
        &mut self,
        min_item_bytes: usize,
        what: &str,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.count(min_item_bytes, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Ends the read: bytes left over are an error.
    pub fn finish(self, what: &str) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after {what}")),
        }
    }
}

/// Refuses `next` unless it sorts after `prev`, then remembers it: a
/// state image ([`crate::engine::Oak::state_image`]) lists every keyed
/// collection strictly ascending, so one state has one encoding and a
/// key cannot appear twice.
pub(crate) fn ascending<T: PartialOrd + Copy>(
    prev: &mut Option<T>,
    next: T,
    what: &str,
) -> Result<(), String> {
    if prev.is_some_and(|prev| prev >= next) {
        return Err(format!("{what} are not strictly ascending"));
    }
    *prev = Some(next);
    Ok(())
}

pub(crate) fn read_rule_id(r: &mut Reader<'_>, what: &str) -> Result<RuleId, String> {
    r.u32(what).map(RuleId)
}

fn read_f64s(r: &mut Reader<'_>, what: &str) -> Result<Vec<f64>, String> {
    r.list(8, what, |r| r.f64(what))
}

/// Smallest encoded fold: three empty lists, two counters, the flag.
const MIN_FOLD_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 1;
/// Smallest encoded log record: `seq`, time, an empty user, rule, tag.
pub(crate) const MIN_RECORD_BYTES: usize = 8 + 8 + 4 + 4 + 1;

impl ServerFold {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.domains.len());
        for domain in &self.domains {
            put_str(out, domain);
        }
        put_u64(out, self.objects);
        put_u64(out, self.bytes);
        put_f64s(out, &self.small_times_ms);
        put_f64s(out, &self.large_tputs_kbps);
        out.push(u8::from(self.violated));
    }

    fn decode(r: &mut Reader<'_>) -> Result<ServerFold, String> {
        Ok(ServerFold {
            domains: r.list(4, "fold domains", |r| r.str("fold domain").map(Arc::from))?,
            objects: r.u64("fold objects")?,
            bytes: r.u64("fold bytes")?,
            small_times_ms: read_f64s(r, "fold small times")?,
            large_tputs_kbps: read_f64s(r, "fold large throughputs")?,
            violated: match r.u8("fold violated flag")? {
                0 => false,
                1 => true,
                other => return Err(format!("fold violated flag is 0x{other:02x}, not 0 or 1")),
            },
        })
    }
}

impl LogEvent {
    /// Appends the `record` layout: the log sequence number, then the
    /// entry — one element of an ingest's `records` and of a state
    /// image's shard log ([`crate::engine::Oak::state_image`]).
    pub(crate) fn encode_record(&self, seq: u64, out: &mut Vec<u8>) {
        put_u64(out, seq);
        put_u64(out, self.time.as_millis());
        put_str(out, &self.user);
        put_u32(out, self.rule.0);
        match &self.action {
            LogAction::Activated {
                violator_ip,
                severity,
            } => {
                out.push(0);
                put_str(out, violator_ip);
                put_f64(out, *severity);
            }
            LogAction::Advanced { to_index } => {
                out.push(1);
                put_u64(out, *to_index as u64);
            }
            LogAction::Deactivated => out.push(2),
            LogAction::Expired => out.push(3),
        }
    }

    /// Inverse of [`LogEvent::encode_record`].
    pub(crate) fn decode_record(r: &mut Reader<'_>) -> Result<(u64, LogEvent), String> {
        let seq = r.u64("record seq")?;
        let entry = LogEvent {
            time: Instant(r.u64("record time")?),
            user: r.str("record user")?.to_owned(),
            rule: read_rule_id(r, "record rule")?,
            action: match r.u8("record action")? {
                0 => LogAction::Activated {
                    violator_ip: r.str("violator ip")?.to_owned(),
                    severity: r.f64("severity")?,
                },
                1 => {
                    let raw = r.u64("advanced index")?;
                    LogAction::Advanced {
                        to_index: usize::try_from(raw)
                            .map_err(|_| format!("advanced index {raw} out of range"))?,
                    }
                }
                2 => LogAction::Deactivated,
                3 => LogAction::Expired,
                other => return Err(format!("unknown log action 0x{other:02x}")),
            },
        };
        Ok((seq, entry))
    }
}

impl SequencedEvent {
    /// Appends the event's byte layout (see the module docs) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(EVENT_VERSION);
        put_u64(out, self.seq);
        put_u64(out, self.epoch);
        match &self.event {
            EngineEvent::RuleAdded { id, rule } => {
                out.push(0);
                put_u32(out, id.0);
                // Rules travel in the §4.1 spec format, which round-trips
                // every field (alternatives, TTL, scope, policies,
                // sub-rules) through an existing, tested codec.
                put_str(out, &spec::format_rule(rule));
            }
            EngineEvent::RuleRemoved { id } => {
                out.push(1);
                put_u32(out, id.0);
            }
            EngineEvent::Ingest(effect) => {
                out.push(2);
                put_u64(out, effect.time.as_millis());
                put_str(out, &effect.user);
                put_len(out, effect.folds.len());
                for fold in &effect.folds {
                    fold.encode_into(out);
                }
                put_len(out, effect.pending.len());
                for id in &effect.pending {
                    put_u32(out, id.0);
                }
                put_len(out, effect.records.len());
                for (seq, record) in &effect.records {
                    record.encode_record(*seq, out);
                }
            }
            EngineEvent::ForceActivate { time, user, rule } => {
                out.push(3);
                put_u64(out, time.as_millis());
                put_str(out, user);
                put_u32(out, rule.0);
            }
            EngineEvent::ForceDeactivate { user, rule } => {
                out.push(4);
                put_str(out, user);
                put_u32(out, rule.0);
            }
            EngineEvent::ServeExpiry {
                time,
                user,
                expired,
            } => {
                out.push(5);
                put_u64(out, time.as_millis());
                put_str(out, user);
                put_len(out, expired.len());
                for (seq, rule) in expired {
                    put_u64(out, *seq);
                    put_u32(out, rule.0);
                }
            }
            EngineEvent::Pruned { users } => {
                out.push(6);
                put_len(out, users.len());
                for user in users {
                    put_str(out, user);
                }
            }
        }
    }

    /// The event's byte layout as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// The `seq` of an encoded event, read at its fixed offset without
    /// decoding the body. `None` when `bytes` is not a whole
    /// [`EVENT_VERSION`] header.
    pub fn encoded_seq(bytes: &[u8]) -> Option<u64> {
        if bytes.len() < EVENT_HEADER_LEN || bytes[0] != EVENT_VERSION {
            return None;
        }
        Some(u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes")))
    }

    /// Inverse of [`SequencedEvent::encode`].
    ///
    /// # Errors
    ///
    /// Names the first field that is cut short, out of range, not UTF-8
    /// or followed by bytes it should not be — including a version byte
    /// this build does not know and rule-spec parse failures. Never
    /// panics, and never allocates for a count the payload cannot back.
    pub fn decode(bytes: &[u8]) -> Result<SequencedEvent, String> {
        let mut r = Reader::new(bytes);
        let version = r.u8("event version")?;
        if version != EVENT_VERSION {
            return Err(format!(
                "unsupported event version 0x{version:02x} (expected 0x{EVENT_VERSION:02x})"
            ));
        }
        let seq = r.u64("event seq")?;
        let epoch = r.u64("event epoch")?;
        let event = match r.u8("event kind")? {
            0 => EngineEvent::RuleAdded {
                id: read_rule_id(&mut r, "rule id")?,
                rule: spec::parse_rule(r.str("rule spec")?).map_err(|e| e.to_string())?,
            },
            1 => EngineEvent::RuleRemoved {
                id: read_rule_id(&mut r, "rule id")?,
            },
            2 => EngineEvent::Ingest(IngestEffect {
                time: Instant(r.u64("ingest time")?),
                user: r.str("ingest user")?.to_owned(),
                folds: r.list(MIN_FOLD_BYTES, "folds", ServerFold::decode)?,
                pending: r.list(4, "pending rules", |r| read_rule_id(r, "pending rule"))?,
                records: r.list(MIN_RECORD_BYTES, "records", LogEvent::decode_record)?,
            }),
            3 => EngineEvent::ForceActivate {
                time: Instant(r.u64("activation time")?),
                user: r.str("activated user")?.to_owned(),
                rule: read_rule_id(&mut r, "activated rule")?,
            },
            4 => EngineEvent::ForceDeactivate {
                user: r.str("deactivated user")?.to_owned(),
                rule: read_rule_id(&mut r, "deactivated rule")?,
            },
            5 => EngineEvent::ServeExpiry {
                time: Instant(r.u64("serve time")?),
                user: r.str("served user")?.to_owned(),
                expired: r.list(12, "expiries", |r| {
                    Ok((r.u64("expiry seq")?, read_rule_id(r, "expired rule")?))
                })?,
            },
            6 => EngineEvent::Pruned {
                users: r.list(4, "pruned users", |r| {
                    r.str("pruned user").map(str::to_owned)
                })?,
            },
            other => return Err(format!("unknown event kind 0x{other:02x}")),
        };
        r.finish("the event")?;
        Ok(SequencedEvent { seq, epoch, event })
    }
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
    /// Reads one aggregate fold out of a legacy JSON journal frame.
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
                .push(Arc::from(d.as_str().ok_or("non-string domain")?));
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

fn records_from_value(v: &Value, key: &str) -> Result<Vec<(u64, LogEvent)>, String> {
    let mut out = Vec::new();
    for rec in array_field(v, key)? {
        out.push((u64_field(rec, "seq")?, LogEvent::from_value(rec)?));
    }
    Ok(out)
}

impl SequencedEvent {
    /// Reads an event out of the JSON object journals carried before the
    /// byte layout (see the module docs) — the legacy read path. Nothing
    /// encodes this form any more; `oak-store` reaches it only for a
    /// frame payload that opens with `{`.
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
