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
//! 0       1     version       STATE_IMAGE_VERSION (0x03)
//! 1       4     shard_count   u32, SHARD_COUNT or the image is refused
//! 5       8     event_seq     u64, the watermark
//! 13      8     log_seq       u64
//! 21      8     epoch         u64
//! 29      4     next_rule_id  u32
//! 33      …     n×(id:u32 spec:str)       rules, the §4.1 spec text
//!               n×str                     the domain table
//!               shard_count × shard
//!
//! shard  = reports:u64
//!          n×(domain:u32 agg)             at most 4,096 rows
//!          agg                            `other`
//!          users:64×u8                    the shard's user sketch
//!          n×record                       the shard's activity log
//!          n×(user:str last_seen:u64 reports:u64
//!             n×(rule:u32 alt:u64 tried:u64 at:u64 severity:f64)
//!             n×(rule:u32 count:u32))
//! agg    = objects:u64 bytes:u64 violations:u64 small:stat large:stat
//!          users:64×u8                    the sketch's registers
//! stat   = count:u64 sum:f64 min:f64 max:f64
//! domain = an index into the domain table
//! ```
//!
//! `str`, `n×T`, `f64` and `record` are the event layout's. The table
//! holds every shard's row keys, each once. One state has one encoding:
//! the table, the rules, and every user, per-domain and per-rule list are
//! strictly ascending, a table entry nothing refers to is an error, and
//! so are trailing bytes — so `state_image(from_state_image(b)) == b`, up
//! to the spelling of a rule's spec text, which is the spec codec's to
//! keep. The reader checks every count against the bytes that remain
//! before it allocates for it. A shard's aggregates keep nothing per
//! user. This build also reads versions 0x02 and 0x01, whose shards kept
//! every folded user's report count after `other`: the counts go to the
//! users still held and are dropped for the rest, as a prune drops them
//! ([`SiteAggregates::read_image`]; DESIGN.md §8, "Upgrades").

use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

use super::{ActiveRule, LogEvent, Oak, OakConfig, Shard, UserState, SHARD_COUNT};
use crate::aggregates::SiteAggregates;
use crate::events::{
    ascending, put_f64, put_len, put_str, put_u32, put_u64, read_rule_id, Reader, MIN_RECORD_BYTES,
};
use crate::time::Instant;

/// First byte of every state image this build writes.
pub const STATE_IMAGE_VERSION: u8 = 3;

/// The version before it, which this build still reads.
pub const STATE_IMAGE_V2: u8 = 2;

/// The version before that, which this build still reads.
pub const STATE_IMAGE_V1: u8 = 1;

/// Smallest `rules` row: the id and an empty spec.
const MIN_RULE_ROW_BYTES: usize = 4 + 4;
/// Smallest `users` row: an empty name, `last_seen`, two empty lists
/// (and `reports` since version 0x03).
const MIN_USER_STATE_BYTES: usize = 4 + 8 + 4 + 4;
/// One `active` entry: the rule, three integers, the severity.
const ACTIVE_BYTES: usize = 4 + 4 * 8;
/// One `pending` entry: the rule and its count.
const PENDING_BYTES: usize = 4 + 4;

/// The image's domain table over a quiesced engine: every shard's row
/// keys, ascending, each once.
fn domain_table<'a>(shards: &'a [MutexGuard<'_, Shard>]) -> Vec<&'a str> {
    let mut names: Vec<&str> = shards
        .iter()
        .flat_map(|s| s.aggregates.domain_names())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

impl Oak {
    /// The full engine state as one byte record (the layout is tabled in
    /// DESIGN.md §8 and at the top of `engine/image.rs`), with its
    /// `event_seq` watermark: what a snapshot file holds and what a
    /// replication follower installs.
    ///
    /// Taken under the locks [`Oak::snapshot_json`] takes — the rule
    /// table, then every shard in ascending order — so the cut is exact:
    /// every event below the watermark is reflected, none at or above
    /// it. The engine answers nobody while this runs, which is why the
    /// image is a copy of the state rather than a rendering of it.
    pub fn state_image(&self) -> (u64, Vec<u8>) {
        let table = self.rules.read().expect("rule table lock");
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        let event_seq = self.event_seq.load(Ordering::SeqCst);

        let domains = domain_table(&guards);
        let mut out = vec![STATE_IMAGE_VERSION];
        put_len(&mut out, SHARD_COUNT);
        put_u64(&mut out, event_seq);
        put_u64(&mut out, self.log_seq.load(Ordering::SeqCst));
        put_u64(&mut out, self.epoch.load(Ordering::Relaxed));
        put_u32(&mut out, table.next_rule_id);
        put_len(&mut out, table.rules.len());
        for (id, rule) in &table.rules {
            put_u32(&mut out, id.0);
            put_str(&mut out, &crate::spec::format_rule(rule));
        }
        put_len(&mut out, domains.len());
        for name in &domains {
            put_str(&mut out, name);
        }
        for guard in &guards {
            guard.aggregates.write_image(&mut out, &domains);
            put_len(&mut out, guard.log.len());
            for (seq, entry) in &guard.log {
                entry.encode_record(*seq, &mut out);
            }
            put_len(&mut out, guard.users.len());
            for (name, state) in super::sorted_users(guard) {
                put_str(&mut out, name);
                state.write_image(&mut out);
            }
        }
        (event_seq, out)
    }

    /// Reconstructs an engine from a [`Oak::state_image`].
    ///
    /// # Errors
    ///
    /// Names the first field that is cut short, out of range, out of
    /// order, not UTF-8 or followed by bytes it should not be — a version
    /// byte this build does not know, a [`SHARD_COUNT`] other than this
    /// engine's (user→shard placement would not line up) and rule-spec
    /// parse failures included. Never panics, and never allocates for a
    /// count the image cannot back.
    pub fn from_state_image(config: OakConfig, image: &[u8]) -> Result<Oak, String> {
        let mut r = Reader::new(image);
        let version = r.u8("state image version")?;
        if !(STATE_IMAGE_V1..=STATE_IMAGE_VERSION).contains(&version) {
            return Err(format!(
                "unsupported state image version 0x{version:02x} (expected \
                 0x{STATE_IMAGE_V1:02x}, 0x{STATE_IMAGE_V2:02x} or 0x{STATE_IMAGE_VERSION:02x})"
            ));
        }
        let counted = version == STATE_IMAGE_VERSION;
        let shard_count = r.u32("shard count")?;
        if shard_count as usize != SHARD_COUNT {
            return Err(format!(
                "state image has {shard_count} shards, engine has {SHARD_COUNT}"
            ));
        }
        let mut oak = Oak::new(config);
        *oak.event_seq.get_mut() = r.u64("event seq")?;
        *oak.log_seq.get_mut() = r.u64("log seq")?;
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
        for shard in &mut oak.shards {
            let shard = shard.get_mut().expect("shard lock");
            let (aggregates, counts) =
                SiteAggregates::read_image(&mut r, &domains, &mut used, version)?;
            shard.aggregates = aggregates;
            shard.log = r.list(MIN_RECORD_BYTES, "log records", LogEvent::decode_record)?;
            let mut prev = None;
            let users = r.count(MIN_USER_STATE_BYTES + 8 * usize::from(counted), "users")?;
            shard.users.reserve(users);
            for _ in 0..users {
                let name = r.str("user")?;
                ascending(&mut prev, name, "users")?;
                let state = UserState::read_image(&mut r, counted)?;
                shard.users.insert(name.to_owned(), state);
            }
            for (user, reports) in counts {
                if let Some(state) = shard.users.get_mut(user) {
                    state.reports = reports;
                }
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

    /// Inverse of `write_image`; a row before version 0x03 has no
    /// `reports`, so `counted` is false for it.
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
