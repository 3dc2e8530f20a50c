//! Aggregate site-performance accounting.
//!
//! Besides per-user rule state, the paper's server "maintains log
//! information on the objects downloaded from particular servers, the
//! activation and removal of rules, as well as aggregate site
//! performance" (§5). This module is that third piece: streaming
//! aggregates over every ingested report, independent of any rule — the
//! raw material for dashboards and for the §6 auditing workflow.
//!
//! Reports are unauthenticated, so what one can add is bounded: the
//! engine keeps at most [`SiteAggregates::MAX_ROWS`] domain rows, every
//! other name folds into one `other` aggregate, and the whole and each row
//! count their distinct users in a fixed-size [`UserSketch`] rather than
//! a set of them. Nothing here is kept per user: a user's report count
//! lives in its engine state and is pruned with it
//! ([`crate::engine::Oak::reports_from`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use oak_json::Value;

use crate::engine::STATE_IMAGE_V2;
use crate::events::{ascending, f64_to_value, put_f64, put_len, put_u64, FoldView, Reader};
use crate::intern::Interner;

/// Streaming mean/min/max without storing samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningStat {
    /// Number of samples folded in.
    pub count: u64,
    /// Sum of samples (for the mean).
    sum: f64,
    /// Smallest sample seen.
    pub min: f64,
    /// Largest sample seen.
    pub max: f64,
}

impl RunningStat {
    /// Folds one sample.
    pub fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += value;
        self.count += 1;
    }

    /// The mean, or `None` before any sample.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Folds another accumulator in, as if its samples had been pushed
    /// here (means merge exactly; min/max combine).
    pub fn merge(&mut self, other: &RunningStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Registers in a [`UserSketch`], one byte each.
const REGISTERS: usize = 64;

/// A HyperLogLog sketch of distinct users (Flajolet et al., 2007): 64
/// one-byte registers, whatever the count. Its standard error is
/// 1.04 / √64 ≈ 13 %, and the bound it is held to is three of them,
/// 39 %; below 2.5 × 64 users it counts by the empty registers instead
/// (linear counting, 64 · ln(64 / empty)), an estimate too: 20 users in
/// 20 distinct registers read as 24, and whether a small count reads
/// exactly depends on where its users hash. It is a pure function of
/// the set of users folded in, so a
/// replayed fold rebuilds it byte for byte, and a merge is a
/// register-wise max: the sketch of the union.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UserSketch([u8; REGISTERS]);

impl Default for UserSketch {
    fn default() -> UserSketch {
        UserSketch([0; REGISTERS])
    }
}

impl UserSketch {
    /// What the sketch hashes `user` to: its FNV-1a through
    /// MurmurHash3's 64-bit finaliser. Images on disk hold sketches of
    /// these keys, so the finaliser stays; it was chosen while FNV-1a
    /// modulo a shard count placed users, when every user one shard
    /// sketched shared those low bits.
    pub fn key(user: &str) -> u64 {
        let mut h = crate::engine::fnv1a(user);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// Counts the user whose [`UserSketch::key`] is `key`: the top six
    /// bits pick a register, which keeps the largest rank — the position
    /// of the first set bit in the other 58, from 1, and 59 when none is.
    pub fn insert(&mut self, key: u64) {
        let register = &mut self.0[(key >> 58) as usize];
        let rank = ((key << 6) | 1 << 5).leading_zeros() as u8 + 1;
        *register = (*register).max(rank);
    }

    /// Folds another sketch in: the sketch of the union of the two sets.
    pub fn merge(&mut self, other: &UserSketch) {
        for (ours, theirs) in self.0.iter_mut().zip(&other.0) {
            *ours = (*ours).max(*theirs);
        }
    }

    /// The distinct users counted, estimated and rounded.
    pub fn estimate(&self) -> u64 {
        let m = REGISTERS as f64;
        let empty = self.0.iter().filter(|r| **r == 0).count();
        let harmonic: f64 = self.0.iter().map(|r| 0.5f64.powi(i32::from(*r))).sum();
        // α₆₄ · m² / Σ 2^−register, α₆₄ = 0.709 (Flajolet et al.).
        let raw = 0.709 * m * m / harmonic;
        let estimate = if raw <= 2.5 * m && empty > 0 {
            m * (m / empty as f64).ln()
        } else {
            raw
        };
        estimate.round() as u64
    }

    /// The registers, as lowercase hex — how the snapshot document spells
    /// the sketch.
    fn to_hex(self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let hex = self
            .0
            .iter()
            .flat_map(|r| [DIGITS[usize::from(r >> 4)], DIGITS[usize::from(r & 15)]]);
        hex.map(char::from).collect()
    }
}

/// Aggregates for one external domain across all users and reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DomainAggregate {
    /// Objects fetched from the domain.
    pub objects: u64,
    /// Total bytes served.
    pub bytes: u64,
    /// Small-object download times, ms.
    pub small_time_ms: RunningStat,
    /// Large-object throughputs, kbit/s.
    pub large_tput_kbps: RunningStat,
    /// How many times the domain was flagged as a violator.
    pub violations: u64,
    /// The distinct reporting users, sketched.
    pub users: UserSketch,
}

impl DomainAggregate {
    /// Distinct reporting users seen, as [`UserSketch::estimate`] gives
    /// it.
    pub fn users_seen(&self) -> u64 {
        self.users.estimate()
    }

    /// Folds another domain's accumulator in.
    fn merge(&mut self, other: &DomainAggregate) {
        self.objects = self.objects.saturating_add(other.objects);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.small_time_ms.merge(&other.small_time_ms);
        self.large_tput_kbps.merge(&other.large_tput_kbps);
        self.violations += other.violations;
        self.users.merge(&other.users);
    }
}

/// The key a domain new to an accumulator is filed under: the engine's
/// shared handle, since every live fold's domains are lowercase already;
/// a name spelled otherwise (only a hand-built body holds one) gets a
/// handle of its own, so the key is always the name as folded.
fn key_for(domain: &str, interner: &Interner) -> Arc<str> {
    if domain.bytes().any(|b| b.is_ascii_uppercase()) {
        Arc::from(domain)
    } else {
        interner.intern_lower(domain)
    }
}

/// Whole-site aggregates, updated per report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SiteAggregates {
    /// At most [`SiteAggregates::MAX_ROWS`] in an engine.
    domains: BTreeMap<Arc<str>, DomainAggregate>,
    /// Every fold whose domain has no row: one new to a full table, or a
    /// name no DNS host can have. A field rather than a key, so no host
    /// can collide with it.
    other: DomainAggregate,
    /// The distinct reporting users, sketched.
    users: UserSketch,
    reports: u64,
}

impl SiteAggregates {
    /// Most domain rows an engine keeps: the interner's capacity, so the
    /// aggregates never name more domains than the interner retains.
    pub const MAX_ROWS: usize = Interner::CAPACITY;

    /// Whether a domain without a row gets one, rather than folding into
    /// `other`.
    fn admits(&self, domain: &str) -> bool {
        domain.len() <= Interner::MAX_NAME && self.domains.len() < Self::MAX_ROWS
    }

    /// Folds one ingest's per-server increments, read in place from its
    /// [`crate::events::IngestEffect`]. The live engine and WAL replay
    /// both fold the same bytes in the log's order, so the
    /// floating-point accumulation order, which domains get rows, and
    /// therefore every recovered byte are identical. A domain new to this
    /// accumulator is keyed by `interner`'s handle.
    pub fn fold<'a>(
        &mut self,
        user: &str,
        folds: impl IntoIterator<Item = FoldView<'a>>,
        interner: &Interner,
    ) {
        self.reports += 1;
        let key = UserSketch::key(user);
        self.users.insert(key);
        for server in folds {
            for domain in server.domains() {
                let agg = match self.domains.get_mut(domain) {
                    Some(agg) => agg,
                    None => {
                        if self.admits(domain) {
                            self.domains.entry(key_for(domain, interner)).or_default()
                        } else {
                            &mut self.other
                        }
                    }
                };
                // Sizes saturate: a report may claim 2^53 bytes an object.
                agg.objects = agg.objects.saturating_add(server.objects());
                agg.bytes = agg.bytes.saturating_add(server.bytes());
                // Per-sample push order is load-bearing: WAL replay must
                // reproduce bit-identical float sums.
                for t in server.small_times_ms() {
                    agg.small_time_ms.push(t);
                }
                for t in server.large_tputs_kbps() {
                    agg.large_tput_kbps.push(t);
                }
                if server.violated() {
                    agg.violations += 1;
                }
                agg.users.insert(key);
            }
        }
    }

    /// Folds a whole other accumulator in, at a cost of the domain rows:
    /// rows add, and a sketch's merge is the sketch of the union. A state
    /// image from before version 0x04 carries one accumulator per engine
    /// shard, and its reader merges them (DESIGN.md §8, "Upgrades").
    pub fn merge(&mut self, other: &SiteAggregates) {
        self.reports += other.reports;
        self.users.merge(&other.users);
        for (domain, agg) in &other.domains {
            let row = self.domains.entry(Arc::clone(domain)).or_default();
            row.merge(agg);
        }
        self.other.merge(&other.other);
    }

    /// Reports folded so far.
    pub fn report_count(&self) -> u64 {
        self.reports
    }

    /// Distinct users that have reported, as [`UserSketch::estimate`]
    /// gives it.
    pub fn users_seen(&self) -> u64 {
        self.users.estimate()
    }

    /// The aggregate for one domain, if it has a row.
    pub fn domain(&self, domain: &str) -> Option<&DomainAggregate> {
        self.domains.get(domain)
    }

    /// Every fold whose domain has no row of its own: one new to an
    /// engine already holding [`SiteAggregates::MAX_ROWS`] rows, or longer than
    /// [`Interner::MAX_NAME`]. Never listed by
    /// [`SiteAggregates::worst_domains`].
    pub fn other(&self) -> &DomainAggregate {
        &self.other
    }

    /// Iterates over `(domain, aggregate)` in domain order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DomainAggregate)> {
        self.domains.iter().map(|(d, a)| (&**d, a))
    }

    /// Domains ordered by violation count, worst first — the §6 "which
    /// components of their sites are performing poorly" view, without
    /// requiring any rules to be configured. Ties go by name.
    pub fn worst_domains(&self) -> Vec<(&str, &DomainAggregate)> {
        let mut rows: Vec<(&str, &DomainAggregate)> = self.iter().collect();
        rows.sort_by(|a, b| b.1.violations.cmp(&a.1.violations).then(a.0.cmp(b.0)));
        rows
    }

    /// Encodes the accumulator for the readable dump. All maps are
    /// ordered, so equal accumulators encode byte-identically; float
    /// fields use the exact string codec (see [`crate::events`]), and a
    /// sketch is spelled out register by register beside its estimate,
    /// so the dump holds every byte of the state.
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        doc.set("reports", self.reports);
        doc.set("users_seen", self.users_seen());
        doc.set("users", self.users.to_hex());
        let domains = self.domains.iter().map(|(domain, agg)| {
            let mut row = agg.to_value();
            row.set("domain", &**domain);
            row
        });
        doc.set("domains", Value::Array(domains.collect()));
        doc.set("other", self.other.to_value());
        doc
    }
}

impl DomainAggregate {
    fn to_value(&self) -> Value {
        let mut row = Value::object();
        row.set("objects", self.objects);
        row.set("bytes", self.bytes);
        row.set("violations", self.violations);
        row.set("users_seen", self.users_seen());
        row.set("users", self.users.to_hex());
        row.set("small", self.small_time_ms.to_value());
        row.set("large", self.large_tput_kbps.to_value());
        row
    }
}

/// One [`RunningStat`] in a state image: the count and three floats.
const STAT_BYTES: usize = 4 * 8;
/// One [`DomainAggregate`] in a state image: three counters, two stats,
/// the sketch's registers.
const AGGREGATE_BYTES: usize = 3 * 8 + 2 * STAT_BYTES + REGISTERS;

/// Reads an index into the state image's domain table.
fn read_domain(r: &mut Reader<'_>, table: &[Arc<str>], what: &str) -> Result<usize, String> {
    let index = r.u32(what)? as usize;
    if index >= table.len() {
        return Err(format!(
            "{what} {index} is past the {}-entry domain table",
            table.len()
        ));
    }
    Ok(index)
}

/// The per-user report counts a version 0x02 shard kept in its
/// aggregates, for the engine to give to the users it still holds.
pub(crate) type LegacyCounts<'a> = Vec<(&'a str, u64)>;

impl SiteAggregates {
    /// Every domain this accumulator keeps a row for, ascending.
    pub(crate) fn domain_names(&self) -> impl Iterator<Item = &str> {
        self.domains.keys().map(|name| &**name)
    }

    /// Appends the accumulator's part of a state image
    /// ([`crate::engine::Oak::state_image`]; DESIGN.md §8 tables the
    /// layout): a row's domain travels as its index in the image's domain
    /// table, which is [`SiteAggregates::domain_names`].
    pub(crate) fn write_image(&self, out: &mut Vec<u8>) {
        put_u64(out, self.reports);
        put_len(out, self.domains.len());
        for (index, agg) in self.domains.values().enumerate() {
            put_len(out, index);
            agg.write_image(out);
        }
        self.other.write_image(out);
        out.extend_from_slice(&self.users.0);
    }

    /// Inverse of [`SiteAggregates::write_image`] for an image of
    /// `version`, which the caller has checked is one this build reads:
    /// `table` is the image's domain table, `used` gets a mark for every
    /// entry referred to. A version 0x02 shard kept a report count per
    /// user it had folded; those are returned, for the engine to give to
    /// the users it still holds (DESIGN.md §8, "Upgrades").
    ///
    /// # Errors
    ///
    /// Names the first field that is cut short, out of range or out of
    /// order, and more rows than [`SiteAggregates::MAX_ROWS`].
    pub(crate) fn read_image<'a>(
        r: &mut Reader<'a>,
        table: &[Arc<str>],
        used: &mut [bool],
        version: u8,
    ) -> Result<(SiteAggregates, LegacyCounts<'a>), String> {
        let mut out = SiteAggregates {
            reports: r.u64("aggregate reports")?,
            ..SiteAggregates::default()
        };
        let rows = r.count(4 + AGGREGATE_BYTES, "aggregate domains")?;
        if rows > Self::MAX_ROWS {
            return Err(format!(
                "{rows} aggregate domains, past the bound of {}",
                Self::MAX_ROWS
            ));
        }
        let mut prev = None;
        for _ in 0..rows {
            let index = read_domain(r, table, "aggregate domain index")?;
            ascending(&mut prev, index, "aggregate domain indexes")?;
            used[index] = true;
            let agg = DomainAggregate::read_image(r)?;
            out.domains.insert(Arc::clone(&table[index]), agg);
        }
        out.other = DomainAggregate::read_image(r)?;
        if version == STATE_IMAGE_V2 {
            let counts = out.read_user_rows(r)?;
            return Ok((out, counts));
        }
        out.users = UserSketch(r.array("user sketch")?);
        Ok((out, Vec::new()))
    }

    /// A version 0x02 shard's user rows: a name and its report count.
    /// Every user goes into the shard's sketch; the counts are returned.
    fn read_user_rows<'a>(&mut self, r: &mut Reader<'a>) -> Result<LegacyCounts<'a>, String> {
        let mut prev = None;
        r.list(4 + 8, "aggregate users", |r| {
            let user = r.str("aggregate user")?;
            ascending(&mut prev, user, "aggregate users")?;
            let reports = r.u64("user reports")?;
            self.users.insert(UserSketch::key(user));
            Ok((user, reports))
        })
    }
}

impl DomainAggregate {
    fn write_image(&self, out: &mut Vec<u8>) {
        put_u64(out, self.objects);
        put_u64(out, self.bytes);
        put_u64(out, self.violations);
        self.small_time_ms.write_image(out);
        self.large_tput_kbps.write_image(out);
        out.extend_from_slice(&self.users.0);
    }

    fn read_image(r: &mut Reader<'_>) -> Result<DomainAggregate, String> {
        Ok(DomainAggregate {
            objects: r.u64("domain objects")?,
            bytes: r.u64("domain bytes")?,
            violations: r.u64("domain violations")?,
            small_time_ms: RunningStat::read_image(r, "small-object stat")?,
            large_tput_kbps: RunningStat::read_image(r, "large-object stat")?,
            users: UserSketch(r.array("user sketch")?),
        })
    }
}

impl RunningStat {
    fn write_image(&self, out: &mut Vec<u8>) {
        put_u64(out, self.count);
        put_f64(out, self.sum);
        put_f64(out, self.min);
        put_f64(out, self.max);
    }

    fn read_image(r: &mut Reader<'_>, what: &str) -> Result<RunningStat, String> {
        Ok(RunningStat {
            count: r.u64(what)?,
            sum: r.f64(what)?,
            min: r.f64(what)?,
            max: r.f64(what)?,
        })
    }
}

impl RunningStat {
    /// Encodes the accumulator with exact float strings.
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        doc.set("count", self.count);
        doc.set("sum", f64_to_value(self.sum));
        doc.set("min", f64_to_value(self.min));
        doc.set("max", f64_to_value(self.max));
        doc
    }
}
