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
//! 0       1     version       STATE_IMAGE_VERSION (0x01)
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
//!          n×(domain:u32 objects:u64 bytes:u64 violations:u64
//!             users_seen:u64 small:stat large:stat)
//!          n×(user:str reports:u64 n×domain:u32)
//!          n×record                       the shard's activity log
//!          n×(user:str last_seen:u64
//!             n×(rule:u32 alt:u64 tried:u64 at:u64 severity:f64)
//!             n×(rule:u32 count:u32))
//! stat   = count:u64 sum:f64 min:f64 max:f64
//! domain = an index into the domain table
//! ```
//!
//! `str`, `n×T`, `f64` and `record` are the event layout's. Every domain
//! name any shard's aggregates mention is in the table once — a site's
//! few hundred names, where the document spelled one out per `(domain,
//! user)` sample. One state has one encoding: the table, the rules, and
//! every user, per-domain and per-rule list are strictly ascending, a
//! table entry nothing refers to is an error, and so are trailing bytes —
//! so `state_image(from_state_image(b)) == b`, up to the spelling of a
//! rule's spec text, which is the spec codec's to keep. The reader checks
//! every count against the bytes that remain before it allocates for it.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

use super::{ActiveRule, LogEvent, Oak, OakConfig, Shard, UserState, SHARD_COUNT};
use crate::aggregates::SiteAggregates;
use crate::events::{
    ascending, put_f64, put_len, put_str, put_u32, put_u64, read_rule_id, Reader, MIN_RECORD_BYTES,
};
use crate::time::Instant;

/// First byte of every state image.
pub const STATE_IMAGE_VERSION: u8 = 1;

/// Smallest `rules` row: the id and an empty spec.
const MIN_RULE_ROW_BYTES: usize = 4 + 4;
/// Smallest `users` row: an empty name, `last_seen`, two empty lists.
const MIN_USER_STATE_BYTES: usize = 4 + 8 + 4 + 4;
/// One `active` entry: the rule, three integers, the severity.
const ACTIVE_BYTES: usize = 4 + 4 * 8;
/// One `pending` entry: the rule and its count.
const PENDING_BYTES: usize = 4 + 4;

/// The image's domain table over a quiesced engine: the names, and where
/// each shard's own handle for a name points in them.
struct DomainTable<'a> {
    /// Ascending, each once.
    names: Vec<&'a str>,
    /// Index by the address of a name's bytes: a user's sampled domains
    /// are clones of its shard's aggregate keys, so the 100,000 samples
    /// of a large site resolve without comparing a string.
    by_handle: HashMap<*const u8, u32>,
}

impl<'a> DomainTable<'a> {
    /// The table over every aggregate key of `shards`, plus `unlisted`.
    fn build(shards: &'a [MutexGuard<'_, Shard>], unlisted: &[&'a str]) -> DomainTable<'a> {
        let keys = || shards.iter().flat_map(|s| s.aggregates.domain_names());
        let mut names: Vec<&str> = keys().map(|name| &**name).collect();
        names.extend_from_slice(unlisted);
        names.sort_unstable();
        names.dedup();
        let mut table = DomainTable {
            names,
            by_handle: HashMap::new(),
        };
        for key in keys() {
            let index = table.by_name(key).expect("every key is in the table");
            table.by_handle.insert(key.as_ptr(), index);
        }
        table
    }

    fn by_name(&self, name: &str) -> Option<u32> {
        let index = self.names.binary_search(&name).ok()?;
        Some(u32::try_from(index).expect("a framed list is far below 2^32 long"))
    }

    fn index_of(&self, name: &Arc<str>) -> Option<u32> {
        match self.by_handle.get(&name.as_ptr()) {
            Some(index) => Some(*index),
            None => self.by_name(name),
        }
    }
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

        // A sampled domain is a domain its shard keeps an aggregate for
        // in every state this engine reaches by itself; a snapshot
        // document may list a sample without one, and an engine loaded
        // from such a document takes a second pass, with the names the
        // first pass could not place added to the table.
        let mut unlisted: Vec<&str> = Vec::new();
        loop {
            let domains = DomainTable::build(&guards, &unlisted);
            let mut missing: Vec<&str> = Vec::new();
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
            put_len(&mut out, domains.names.len());
            for name in &domains.names {
                put_str(&mut out, name);
            }
            for guard in &guards {
                guard.aggregates.write_image(&mut out, &mut |name| {
                    domains.index_of(name).unwrap_or_else(|| {
                        missing.push(&**name);
                        0
                    })
                });
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
            if missing.is_empty() {
                return (event_seq, out);
            }
            unlisted = missing;
        }
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
        if version != STATE_IMAGE_VERSION {
            return Err(format!(
                "unsupported state image version 0x{version:02x} \
                 (expected 0x{STATE_IMAGE_VERSION:02x})"
            ));
        }
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
            shard.aggregates = SiteAggregates::read_image(&mut r, &domains, &mut used)?;
            shard.log = r.list(MIN_RECORD_BYTES, "log records", LogEvent::decode_record)?;
            let mut prev = None;
            let users = r.count(MIN_USER_STATE_BYTES, "users")?;
            shard.users.reserve(users);
            for _ in 0..users {
                let name = r.str("user")?;
                ascending(&mut prev, name, "users")?;
                shard
                    .users
                    .insert(name.to_owned(), UserState::read_image(&mut r)?);
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

    fn read_image(r: &mut Reader<'_>) -> Result<UserState, String> {
        let index = |r: &mut Reader<'_>, what: &str| {
            let raw = r.u64(what)?;
            usize::try_from(raw).map_err(|_| format!("{what} {raw} out of range"))
        };
        let last_seen = Instant(r.u64("last seen")?);
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
        })
    }
}
