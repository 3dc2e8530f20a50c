//! The state image: the whole engine as one flat byte record.
//!
//! A snapshot file (`oak-store`), a boot from it and a replication
//! follower's install (`oak-cluster`) all carry the bytes
//! [`Oak::state_image`] writes and [`Oak::from_state_image`] reads. The
//! layout is the snapshot document's fields ([`Oak::snapshot_json`]) in a
//! fixed order, little-endian, in the conventions of the event layout
//! ([`crate::events`]) — and written nowhere but here; DESIGN.md §8
//! carries the same table.
//!
//! ```text
//! offset  size  field
//! 0       1     version       STATE_IMAGE_VERSION (0x04)
//! 1       8     event_seq     u64, the watermark
//! 9       8     log_seq       u64
//! 17      8     epoch         u64
//! 25      4     next_rule_id  u32
//! 29      …     n×(id:u32 spec:str)       rules, the §4.1 spec text
//!               n×str                     the domain table
//!               reports:u64
//!               n×(domain:u32 agg)        at most 65,536 rows
//!               agg                       `other`
//!               users:64×u8               the user sketch
//!               n×record                  the activity log
//!               n×(user:str last_seen:u64 reports:u64
//!                  n×(rule:u32 alt:u64 tried:u64 at:u64 severity:f64)
//!                  n×(rule:u32 count:u32))
//! agg    = objects:u64 bytes:u64 violations:u64 small:stat large:stat
//!          users:64×u8                    the sketch's registers
//! stat   = count:u64 sum:f64 min:f64 max:f64
//! domain = an index into the domain table
//! ```
//!
//! `str`, `n×T`, `f64` and `record` are the event layout's. The table
//! holds the rows' keys. One state has one encoding: the table, the
//! rules, and every user, per-domain and per-rule list are strictly
//! ascending, a table entry nothing refers to is an error, and so are
//! trailing bytes — so `state_image(from_state_image(b)) == b`, up to the
//! spelling of a rule's spec text, which is the spec codec's to keep. The
//! reader checks every count against the bytes that remain before it
//! allocates for it.
//!
//! This build also reads versions 0x03 and 0x02, written by engines that
//! striped their state over sixteen shards: a `shard_count:u32` (16)
//! follows the version byte, and the domain table is followed by sixteen
//! sections of the aggregates, log and users above. They fold into one:
//! the user sets are disjoint, the logs merge in seq order, and the
//! aggregates merge ([`SiteAggregates::merge`]). A version 0x02 section
//! kept every folded user's report count after `other`, where 0x03 keeps
//! the sketch, and its user rows carry no `reports`: the counts go to the
//! users still held and are dropped for the rest, as a prune drops them
//! (DESIGN.md §8, "Upgrades").

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{ActiveRule, LogEvent, Oak, OakConfig, UserState};
use crate::aggregates::SiteAggregates;
use crate::events::{
    ascending, put_f64, put_len, put_str, put_u32, put_u64, read_rule_id, Reader, MIN_RECORD_BYTES,
};
use crate::time::Instant;

/// First byte of every state image this build writes.
pub const STATE_IMAGE_VERSION: u8 = 4;

/// The version before it, which this build still reads.
pub const STATE_IMAGE_V3: u8 = 3;

/// The version before that, which this build still reads.
pub const STATE_IMAGE_V2: u8 = 2;

/// The shard sections of a version 0x03 or 0x02 image.
const LEGACY_SHARDS: u32 = 16;

/// Smallest `rules` row: the id and an empty spec.
const MIN_RULE_ROW_BYTES: usize = 4 + 4;
/// Smallest `users` row: an empty name, `last_seen`, two empty lists
/// (and `reports` since version 0x03).
const MIN_USER_STATE_BYTES: usize = 4 + 8 + 4 + 4;
/// One `active` entry: the rule, three integers, the severity.
const ACTIVE_BYTES: usize = 4 + 4 * 8;
/// One `pending` entry: the rule and its count.
const PENDING_BYTES: usize = 4 + 4;

impl Oak {
    /// The full engine state as one byte record (the layout is tabled in
    /// DESIGN.md §8 and at the top of `engine/image.rs`), with its
    /// `event_seq` watermark: what a snapshot file holds and what a
    /// replication follower installs.
    ///
    /// Taken under the locks [`Oak::snapshot_json`] takes — the rule
    /// table, then the state — so the cut is exact: every event below
    /// the watermark is reflected, none at or above it. The engine
    /// answers nobody while this runs, which is why the image is a copy
    /// of the state rather than a rendering of it.
    pub fn state_image(&self) -> (u64, Vec<u8>) {
        let table = self.rules.read().expect("rule table lock");
        let state = self.state();
        let event_seq = self.event_seq.load(Ordering::SeqCst);

        let mut out = vec![STATE_IMAGE_VERSION];
        put_u64(&mut out, event_seq);
        put_u64(&mut out, state.log_seq);
        put_u64(&mut out, self.epoch.load(Ordering::Relaxed));
        put_u32(&mut out, table.next_rule_id);
        put_len(&mut out, table.rules.len());
        for (id, rule) in &table.rules {
            put_u32(&mut out, id.0);
            put_str(&mut out, &crate::spec::format_rule(rule));
        }
        let domains: Vec<&str> = state.aggregates.domain_names().collect();
        put_len(&mut out, domains.len());
        for name in domains {
            put_str(&mut out, name);
        }
        state.aggregates.write_image(&mut out);
        put_len(&mut out, state.log.len());
        for (seq, entry) in &state.log {
            entry.encode_record(*seq, &mut out);
        }
        put_len(&mut out, state.users.len());
        for (name, user) in super::sorted_users(&state) {
            put_str(&mut out, name);
            user.write_image(&mut out);
        }
        (event_seq, out)
    }

    /// Reconstructs an engine from a [`Oak::state_image`], or from an
    /// image of a version before it that this build still reads.
    ///
    /// # Errors
    ///
    /// Names the first field that is cut short, out of range, out of
    /// order, not UTF-8 or followed by bytes it should not be — a version
    /// byte this build does not know, an older image's shard count other
    /// than sixteen, a user two of its shards hold and rule-spec parse
    /// failures included. Never panics, and never allocates for a count
    /// the image cannot back.
    pub fn from_state_image(config: OakConfig, image: &[u8]) -> Result<Oak, String> {
        let mut r = Reader::new(image);
        let version = r.u8("state image version")?;
        if !(STATE_IMAGE_V2..=STATE_IMAGE_VERSION).contains(&version) {
            return Err(format!(
                "unsupported state image version 0x{version:02x} (expected \
                 0x{STATE_IMAGE_V2:02x}, 0x{STATE_IMAGE_V3:02x} or 0x{STATE_IMAGE_VERSION:02x})"
            ));
        }
        let sections = if version == STATE_IMAGE_VERSION {
            1
        } else {
            let shards = r.u32("shard count")?;
            if shards != LEGACY_SHARDS {
                return Err(format!(
                    "state image version 0x{version:02x} has {shards} shards, not {LEGACY_SHARDS}"
                ));
            }
            LEGACY_SHARDS
        };
        let counted = version != STATE_IMAGE_V2;
        let mut oak = Oak::new(config);
        *oak.event_seq.get_mut() = r.u64("event seq")?;
        let log_seq = r.u64("log seq")?;
        *oak.epoch.get_mut() = r.u64("epoch")?;
        let next_rule_id = r.u32("next rule id")?;

        let table = oak.rules.get_mut().expect("rule table lock");
        let mut prev = None;
        for _ in 0..r.count(MIN_RULE_ROW_BYTES, "rules")? {
            let id = read_rule_id(&mut r, "rule id")?;
            ascending(&mut prev, id, "rule ids")?;
            let rule = crate::spec::parse_rule(r.str("rule spec")?).map_err(|e| e.to_string())?;
            table.insert(id, rule);
        }
        table.next_rule_id = next_rule_id;

        let mut prev = None;
        let domains: Vec<Arc<str>> = r.list(4, "domain table", |r| {
            let name = r.str("domain name")?;
            ascending(&mut prev, name, "domain names")?;
            Ok(Arc::from(name))
        })?;
        let mut used = vec![false; domains.len()];
        let state = oak.state.get_mut().expect("state lock");
        state.log_seq = log_seq;
        for _ in 0..sections {
            let (aggregates, counts) =
                SiteAggregates::read_image(&mut r, &domains, &mut used, version)?;
            if sections == 1 {
                state.aggregates = aggregates;
            } else {
                state.aggregates.merge(&aggregates);
            }
            // Loaded as written, over the budget or not: the next record
            // trims it.
            for (seq, entry) in r.list(MIN_RECORD_BYTES, "log records", LogEvent::decode_record)? {
                state.log_bytes += entry.record_len();
                state.log.push_back((seq, entry));
            }
            let mut prev = None;
            let users = r.count(MIN_USER_STATE_BYTES + 8 * usize::from(counted), "users")?;
            state.users.reserve(users);
            for _ in 0..users {
                let name = r.str("user")?;
                ascending(&mut prev, name, "users")?;
                let user = UserState::read_image(&mut r, counted)?;
                if state.users.insert(name.to_owned(), user).is_some() {
                    return Err(format!("user {name:?} is held by two shards"));
                }
            }
            for (name, reports) in counts {
                if let Some(user) = state.users.get_mut(name) {
                    user.reports = reports;
                }
            }
        }
        if sections > 1 {
            state.log.make_contiguous().sort_by_key(|(seq, _)| *seq);
            let rows = state.aggregates.domain_names().count();
            if rows > SiteAggregates::MAX_ROWS {
                return Err(format!(
                    "{rows} aggregate domains, past the bound of {}",
                    SiteAggregates::MAX_ROWS
                ));
            }
        }
        if let Some(unused) = used.iter().position(|used| !used) {
            return Err(format!(
                "domain table entry {unused} ({:?}) is not referred to",
                domains[unused]
            ));
        }
        r.finish("the state image")?;
        Ok(oak)
    }
}

impl UserState {
    fn write_image(&self, out: &mut Vec<u8>) {
        put_u64(out, self.last_seen.as_millis());
        put_u64(out, self.reports);
        put_len(out, self.active.len());
        for (rule, active) in &self.active {
            put_u32(out, rule.0);
            put_u64(out, active.alternative_index as u64);
            put_u64(out, active.alternatives_tried as u64);
            put_u64(out, active.activated_at.as_millis());
            put_f64(out, active.default_severity);
        }
        put_len(out, self.pending.len());
        for (rule, count) in &self.pending {
            put_u32(out, rule.0);
            put_u32(out, *count);
        }
    }

    /// Inverse of `write_image`; a version 0x02 row has no `reports`, so
    /// `counted` is false for it.
    fn read_image(r: &mut Reader<'_>, counted: bool) -> Result<UserState, String> {
        let index = |r: &mut Reader<'_>, what: &str| {
            let raw = r.u64(what)?;
            usize::try_from(raw).map_err(|_| format!("{what} {raw} out of range"))
        };
        let last_seen = Instant(r.u64("last seen")?);
        let reports = if counted { r.u64("user reports")? } else { 0 };
        let mut prev = None;
        let active = r.list(ACTIVE_BYTES, "active rules", |r| {
            let rule = read_rule_id(r, "active rule")?;
            ascending(&mut prev, rule, "active rules")?;
            let active = ActiveRule {
                alternative_index: index(r, "alternative index")?,
                alternatives_tried: index(r, "alternatives tried")?,
                activated_at: Instant(r.u64("activation time")?),
                default_severity: r.f64("default severity")?,
            };
            Ok((rule, active))
        })?;
        let mut prev = None;
        let pending = r.list(PENDING_BYTES, "pending rules", |r| {
            let rule = read_rule_id(r, "pending rule")?;
            ascending(&mut prev, rule, "pending rules")?;
            Ok((rule, r.u32("pending count")?))
        })?;
        Ok(UserState {
            active: active.into_iter().collect(),
            pending: pending.into_iter().collect(),
            last_seen,
            reports,
        })
    }
}
