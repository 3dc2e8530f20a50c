//! Aggregate site-performance accounting.
//!
//! Besides per-user rule state, the paper's server "maintains log
//! information on the objects downloaded from particular servers, the
//! activation and removal of rules, as well as aggregate site
//! performance" (§5). This module is that third piece: streaming
//! aggregates over every ingested report, independent of any rule — the
//! raw material for dashboards and for the §6 auditing workflow.

use std::collections::BTreeMap;
use std::sync::Arc;

use oak_json::Value;

use crate::analysis::PageAnalysis;
use crate::detect::Violation;
use crate::events::{ascending, f64_to_value, put_f64, put_len, put_str, put_u32, put_u64, Reader};
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
    /// Distinct reporting users seen (approximate: counts unique users
    /// while the set is small; see [`SiteAggregates::USER_SAMPLE_CAP`]).
    pub users_seen: u64,
}

impl DomainAggregate {
    /// Folds another domain's accumulator in (shard merge).
    fn merge(&mut self, other: &DomainAggregate) {
        self.objects += other.objects;
        self.bytes += other.bytes;
        self.small_time_ms.merge(&other.small_time_ms);
        self.large_tput_kbps.merge(&other.large_tput_kbps);
        self.violations += other.violations;
        self.users_seen += other.users_seen;
    }
}

/// One server's contribution to the aggregates from a single report —
/// the distilled, replayable form of a fold. The engine derives these
/// from the report's [`PageAnalysis`] once per ingest; the same values
/// feed the live accumulator and the durable
/// [`crate::events::IngestEffect`], so replay folds the exact float
/// sequence the live engine folded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerFold {
    /// Domain names resolving to the server (analysis order), as shared
    /// interned handles — folding a report clones refcounts, not bytes.
    pub domains: Vec<Arc<str>>,
    /// Objects fetched from it in this report.
    pub objects: u64,
    /// Bytes fetched from it in this report.
    pub bytes: u64,
    /// Small-object download times, ms (report order).
    pub small_times_ms: Vec<f64>,
    /// Large-object throughputs, kbit/s (report order).
    pub large_tputs_kbps: Vec<f64>,
    /// Whether the detector flagged the server as a violator.
    pub violated: bool,
}

/// Distills a report's per-server analysis into replayable folds, in
/// the analysis's server and domain order. The analysis is consumed: its
/// sample vectors move into the folds, and its domain names — the only
/// thing still borrowed from the report — go through `interner`, so
/// steady-state traffic naming known domains copies no string here.
pub fn distill(
    analysis: PageAnalysis<'_>,
    violations: &[Violation],
    interner: &Interner,
) -> Vec<ServerFold> {
    analysis
        .servers
        .into_iter()
        .map(|server| ServerFold {
            domains: server
                .domains
                .iter()
                .map(|d| interner.intern_lower(d))
                .collect(),
            objects: server.object_count as u64,
            bytes: server.total_bytes,
            small_times_ms: server.small_times_ms,
            large_tputs_kbps: server.large_tputs_kbps,
            violated: violations.iter().any(|v| v.ip == server.ip),
        })
        .collect()
}

/// A scrape-cost-bounded view of the site aggregates: report and
/// distinct-user totals plus the merged per-domain records, without the
/// per-user report counts. Merging full [`SiteAggregates`] clones one
/// map entry per distinct user ever seen — exact, and required for
/// snapshots, but O(lifetime users) per call. A stats endpoint hit
/// while the engine holds millions of user records must not pay that,
/// so the serving path folds shards into this instead: cost is bounded
/// by the (small, site-shaped) domain set.
#[derive(Clone, Debug, Default)]
pub struct SiteOverview {
    /// Reports folded across every shard.
    pub reports: u64,
    /// Distinct reporting users across every shard. Shards partition
    /// users, so per-shard counts sum exactly.
    pub users: u64,
    domains: BTreeMap<Arc<str>, DomainAggregate>,
}

impl SiteOverview {
    /// Folds one shard's accumulator in. Only the domain table is
    /// deep-merged; the per-user map contributes its length.
    pub fn fold(&mut self, shard: &SiteAggregates) {
        self.reports += shard.reports;
        self.users += shard.users.len() as u64;
        for (domain, agg) in &shard.domains {
            self.domains
                .entry(Arc::clone(domain))
                .or_default()
                .merge(agg);
        }
    }

    /// Domains ordered by violation count, worst first — same ordering
    /// as [`SiteAggregates::worst_domains`].
    pub fn worst_domains(&self) -> Vec<(&str, &DomainAggregate)> {
        let mut rows: Vec<(&str, &DomainAggregate)> =
            self.domains.iter().map(|(d, a)| (&**d, a)).collect();
        rows.sort_by(|a, b| b.1.violations.cmp(&a.1.violations).then(a.0.cmp(b.0)));
        rows
    }
}

/// What the aggregates keep per reporting user.
#[derive(Clone, Debug, Default, PartialEq)]
struct UserEntry {
    /// Reports folded for the user.
    reports: u64,
    /// The domains whose `users_seen` this user is counted in, ascending
    /// by name, each once — a page's worth, so membership is a binary
    /// search in a short list the report-count lookup already reached.
    sampled: Vec<Arc<str>>,
}

/// Whole-site aggregates, updated per report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SiteAggregates {
    domains: BTreeMap<Arc<str>, DomainAggregate>,
    users: BTreeMap<String, UserEntry>,
    reports: u64,
    /// Total `(domain, user)` pairs across every [`UserEntry::sampled`],
    /// capped by [`SiteAggregates::USER_SAMPLE_CAP`] (bounded memory
    /// under adversarial user churn).
    sample_count: usize,
}

impl SiteAggregates {
    /// Per-domain distinct-user tracking caps at this many (domain, user)
    /// pairs overall; beyond it, `users_seen` stops increasing.
    pub const USER_SAMPLE_CAP: usize = 100_000;

    /// An empty accumulator.
    pub fn new() -> SiteAggregates {
        SiteAggregates::default()
    }

    /// Folds pre-distilled per-server increments. This is the canonical
    /// fold path: the live engine and WAL replay both call it with the
    /// same [`ServerFold`] values, so the floating-point accumulation
    /// order — and therefore every recovered sum — is bit-identical.
    pub fn fold_distilled(&mut self, user: &str, folds: &[ServerFold]) {
        self.fold_capped(user, folds, Self::USER_SAMPLE_CAP);
    }

    /// [`SiteAggregates::fold_distilled`] under an explicit pair cap
    /// (tests lower it to reach the capped regime).
    pub(crate) fn fold_capped(&mut self, user: &str, folds: &[ServerFold], cap: usize) {
        self.reports += 1;
        // One lookup per report reaches everything kept per user; a
        // returning user (the steady state) costs no key allocation.
        let entry = match self.users.get_mut(user) {
            Some(entry) => entry,
            None => self.users.entry(user.to_owned()).or_default(),
        };
        entry.reports += 1;

        for server in folds {
            for domain in &server.domains {
                let agg = match self.domains.get_mut(&**domain) {
                    Some(agg) => agg,
                    None => self.domains.entry(Arc::clone(domain)).or_default(),
                };
                agg.objects += server.objects;
                agg.bytes += server.bytes;
                // Per-sample push order is load-bearing: WAL replay must
                // reproduce bit-identical float sums.
                for &t in &server.small_times_ms {
                    agg.small_time_ms.push(t);
                }
                for &t in &server.large_tputs_kbps {
                    agg.large_tput_kbps.push(t);
                }
                if server.violated {
                    agg.violations += 1;
                }
                if self.sample_count < cap {
                    if let Err(at) = entry.sampled.binary_search(domain) {
                        agg.users_seen += 1;
                        self.sample_count += 1;
                        // The map's own key, not the fold's handle: a
                        // replayed fold carries a fresh `Arc` per name.
                        let (name, _) = self
                            .domains
                            .get_key_value(&**domain)
                            .expect("folded into just above");
                        entry.sampled.insert(at, Arc::clone(name));
                    }
                }
            }
        }
    }

    /// Folds a whole other accumulator in. The engine stripes aggregates
    /// per user-state shard and merges on read; because each user maps to
    /// exactly one shard, the per-user report counts and `(domain, user)`
    /// sample sets of different shards are disjoint, and adding them is
    /// exact. (The [`SiteAggregates::USER_SAMPLE_CAP`] bound then applies
    /// per shard rather than globally.)
    pub fn merge(&mut self, other: &SiteAggregates) {
        self.reports += other.reports;
        for (user, theirs) in &other.users {
            let ours = self.users.entry(user.clone()).or_default();
            ours.reports += theirs.reports;
            for domain in &theirs.sampled {
                if let Err(at) = ours.sampled.binary_search(domain) {
                    ours.sampled.insert(at, Arc::clone(domain));
                    self.sample_count += 1;
                }
            }
        }
        for (domain, agg) in &other.domains {
            self.domains
                .entry(Arc::clone(domain))
                .or_default()
                .merge(agg);
        }
    }

    /// Reports folded so far.
    pub fn report_count(&self) -> u64 {
        self.reports
    }

    /// Reports folded for one user.
    pub fn reports_from(&self, user: &str) -> u64 {
        self.users.get(user).map_or(0, |entry| entry.reports)
    }

    /// Distinct users that have reported.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The aggregate for one domain, if seen.
    pub fn domain(&self, domain: &str) -> Option<&DomainAggregate> {
        self.domains.get(domain)
    }

    /// Iterates over `(domain, aggregate)` in domain order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DomainAggregate)> {
        self.domains.iter().map(|(d, a)| (&**d, a))
    }

    /// Domains ordered by violation count, worst first — the §6 "which
    /// components of their sites are performing poorly" view, without
    /// requiring any rules to be configured.
    pub fn worst_domains(&self) -> Vec<(&str, &DomainAggregate)> {
        let mut rows: Vec<(&str, &DomainAggregate)> = self.iter().collect();
        rows.sort_by(|a, b| b.1.violations.cmp(&a.1.violations).then(a.0.cmp(b.0)));
        rows
    }

    /// Encodes the accumulator for an engine snapshot. All maps are
    /// ordered, so equal accumulators encode byte-identically; float
    /// fields use the exact string codec (see [`crate::events`]).
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        doc.set("reports", self.reports);
        doc.set("users", Value::Array(self.user_rows().collect()));
        doc.set("domains", Value::Array(self.domain_rows().collect()));
        doc.set("samples", Value::Array(self.sample_rows().collect()));
        doc
    }

    /// `[user, report count]` pairs, in user order.
    fn user_rows(&self) -> impl Iterator<Item = Value> + '_ {
        self.users.iter().map(|(user, entry)| {
            let mut pair = Value::array();
            pair.push(user.as_str());
            pair.push(entry.reports);
            pair
        })
    }

    fn domain_rows(&self) -> impl Iterator<Item = Value> + '_ {
        self.domains.iter().map(|(domain, agg)| {
            let mut row = Value::object();
            row.set("domain", &**domain);
            row.set("objects", agg.objects);
            row.set("bytes", agg.bytes);
            row.set("violations", agg.violations);
            row.set("users_seen", agg.users_seen);
            row.set("small", agg.small_time_ms.to_value());
            row.set("large", agg.large_tput_kbps.to_value());
            row
        })
    }

    /// Flat `[domain, user]` pairs, domain then user, both ascending —
    /// the `samples` rows of the snapshot document, derived from the
    /// per-user lists: walking `users` in order appends to each domain's
    /// list in user order, so nothing is sorted.
    fn sample_rows(&self) -> impl Iterator<Item = Value> + '_ {
        let mut by_domain: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (user, entry) in &self.users {
            for domain in &entry.sampled {
                by_domain.entry(domain).or_default().push(user);
            }
        }
        by_domain.into_iter().flat_map(|(domain, users)| {
            users.into_iter().map(move |user| {
                let mut pair = Value::array();
                pair.push(domain);
                pair.push(user);
                pair
            })
        })
    }
}

/// One [`RunningStat`] in a state image: the count and three floats.
const STAT_BYTES: usize = 4 * 8;
/// One per-domain row of a state image: the index, four counters, two
/// stats.
const DOMAIN_ROW_BYTES: usize = 4 + 4 * 8 + 2 * STAT_BYTES;
/// Smallest per-user row of a state image: an empty name, the report
/// count, no sampled domains.
const MIN_USER_ROW_BYTES: usize = 4 + 8 + 4;

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

impl SiteAggregates {
    /// Every domain this accumulator keeps an aggregate for, ascending.
    pub(crate) fn domain_names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.domains.keys()
    }

    /// Appends the accumulator's part of a state image
    /// ([`crate::engine::Oak::state_image`]; DESIGN.md §8 tables the
    /// layout): domains travel as what `index_of` says their index in the
    /// image's domain table is.
    pub(crate) fn write_image<'a>(
        &'a self,
        out: &mut Vec<u8>,
        index_of: &mut impl FnMut(&'a Arc<str>) -> u32,
    ) {
        put_u64(out, self.reports);
        put_len(out, self.domains.len());
        for (domain, agg) in &self.domains {
            put_u32(out, index_of(domain));
            put_u64(out, agg.objects);
            put_u64(out, agg.bytes);
            put_u64(out, agg.violations);
            put_u64(out, agg.users_seen);
            agg.small_time_ms.write_image(out);
            agg.large_tput_kbps.write_image(out);
        }
        put_len(out, self.users.len());
        for (user, entry) in &self.users {
            put_str(out, user);
            put_u64(out, entry.reports);
            put_len(out, entry.sampled.len());
            for domain in &entry.sampled {
                put_u32(out, index_of(domain));
            }
        }
    }

    /// Inverse of [`SiteAggregates::write_image`]: `table` is the image's
    /// domain table, `used` gets a mark for every entry referred to.
    ///
    /// # Errors
    ///
    /// Names the first field that is cut short, out of range or out of
    /// order, and a sampled domain the accumulator keeps no aggregate for
    /// — a state [`SiteAggregates::fold_distilled`] never reaches, since
    /// it samples a domain only as the key it just folded into.
    pub(crate) fn read_image(
        r: &mut Reader<'_>,
        table: &[Arc<str>],
        used: &mut [bool],
    ) -> Result<SiteAggregates, String> {
        let mut out = SiteAggregates {
            reports: r.u64("aggregate reports")?,
            ..SiteAggregates::default()
        };
        // The table entries this accumulator aggregates: one mark per
        // entry, so each of a large site's ~100k samples checks in O(1).
        let mut listed = vec![false; table.len()];
        let mut prev = None;
        for _ in 0..r.count(DOMAIN_ROW_BYTES, "aggregate domains")? {
            let index = read_domain(r, table, "aggregate domain index")?;
            ascending(&mut prev, index, "aggregate domain indexes")?;
            used[index] = true;
            listed[index] = true;
            let agg = DomainAggregate {
                objects: r.u64("domain objects")?,
                bytes: r.u64("domain bytes")?,
                violations: r.u64("domain violations")?,
                users_seen: r.u64("domain users seen")?,
                small_time_ms: RunningStat::read_image(r, "small-object stat")?,
                large_tput_kbps: RunningStat::read_image(r, "large-object stat")?,
            };
            out.domains.insert(Arc::clone(&table[index]), agg);
        }
        let mut prev = None;
        for _ in 0..r.count(MIN_USER_ROW_BYTES, "aggregate users")? {
            let user = r.str("aggregate user")?;
            ascending(&mut prev, user, "aggregate users")?;
            let reports = r.u64("user reports")?;
            let mut prev = None;
            // Ascending indexes into an ascending table: ascending names.
            let sampled = r.list(4, "sampled domains", |r| {
                let index = read_domain(r, table, "sampled domain index")?;
                ascending(&mut prev, index, "sampled domain indexes")?;
                if !listed[index] {
                    return Err(format!(
                        "sampled domain {index} ({:?}) has no aggregate row in its shard",
                        table[index]
                    ));
                }
                Ok(Arc::clone(&table[index]))
            })?;
            out.sample_count += sampled.len();
            out.users
                .insert(user.to_owned(), UserEntry { reports, sampled });
        }
        Ok(out)
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

/// The accumulator as it was when each domain kept a set of its users
/// (`user_samples`) beside a bare report count per user — the model the
/// per-user layout is tested against, since snapshots written by either
/// must be the same bytes.
#[cfg(test)]
pub(crate) mod model {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use oak_json::Value;

    use super::{DomainAggregate, ServerFold};

    #[derive(Clone, Debug, Default)]
    pub(crate) struct ModelAggregates {
        pub domains: BTreeMap<Arc<str>, DomainAggregate>,
        users: BTreeMap<String, u64>,
        reports: u64,
        user_samples: BTreeMap<Arc<str>, BTreeSet<String>>,
        sample_count: usize,
    }

    impl ModelAggregates {
        pub(crate) fn fold_capped(&mut self, user: &str, folds: &[ServerFold], cap: usize) {
            self.reports += 1;
            *self.users.entry(user.to_owned()).or_insert(0) += 1;
            for server in folds {
                for domain in &server.domains {
                    let agg = self.domains.entry(Arc::clone(domain)).or_default();
                    agg.objects += server.objects;
                    agg.bytes += server.bytes;
                    for &t in &server.small_times_ms {
                        agg.small_time_ms.push(t);
                    }
                    for &t in &server.large_tputs_kbps {
                        agg.large_tput_kbps.push(t);
                    }
                    if server.violated {
                        agg.violations += 1;
                    }
                    if self.sample_count < cap {
                        let sampled = self.user_samples.entry(Arc::clone(domain)).or_default();
                        if !sampled.contains(user) {
                            sampled.insert(user.to_owned());
                            self.sample_count += 1;
                            agg.users_seen += 1;
                        }
                    }
                }
            }
        }

        pub(crate) fn merge(&mut self, other: &ModelAggregates) {
            self.reports += other.reports;
            for (user, count) in &other.users {
                *self.users.entry(user.clone()).or_insert(0) += count;
            }
            for (domain, agg) in &other.domains {
                self.domains
                    .entry(Arc::clone(domain))
                    .or_default()
                    .merge(agg);
            }
            for (domain, users) in &other.user_samples {
                let sampled = self.user_samples.entry(Arc::clone(domain)).or_default();
                for user in users {
                    if sampled.insert(user.clone()) {
                        self.sample_count += 1;
                    }
                }
            }
        }

        /// `(domain, user)` in the order the `samples` rows list them.
        pub(crate) fn sample_pairs(&self) -> Vec<(String, String)> {
            self.user_samples
                .iter()
                .flat_map(|(domain, users)| {
                    users
                        .iter()
                        .map(move |user| (domain.to_string(), user.clone()))
                })
                .collect()
        }

        pub(crate) fn to_value(&self) -> Value {
            let pair = |a: &str, b: Value| {
                let mut pair = Value::array();
                pair.push(a);
                pair.push(b);
                pair
            };
            let mut doc = Value::object();
            doc.set("reports", self.reports);
            let users = self.users.iter().map(|(u, n)| pair(u, Value::from(*n)));
            doc.set("users", Value::Array(users.collect()));
            let domains = self.domains.iter().map(|(domain, agg)| {
                let mut row = Value::object();
                row.set("domain", &**domain);
                row.set("objects", agg.objects);
                row.set("bytes", agg.bytes);
                row.set("violations", agg.violations);
                row.set("users_seen", agg.users_seen);
                row.set("small", agg.small_time_ms.to_value());
                row.set("large", agg.large_tput_kbps.to_value());
                row
            });
            doc.set("domains", Value::Array(domains.collect()));
            let samples = self.sample_pairs();
            let samples = samples
                .iter()
                .map(|(d, u)| pair(d, Value::from(u.as_str())));
            doc.set("samples", Value::Array(samples.collect()));
            doc
        }
    }
}
