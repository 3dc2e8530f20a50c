//! Aggregate site-performance accounting.
//!
//! Besides per-user rule state, the paper's server "maintains log
//! information on the objects downloaded from particular servers, the
//! activation and removal of rules, as well as aggregate site
//! performance" (§5). This module is that third piece: streaming
//! aggregates over every ingested report, independent of any rule — the
//! raw material for dashboards and for the §6 auditing workflow.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use oak_json::Value;

use crate::analysis::PageAnalysis;
use crate::events::{f64_from_value, f64_to_value};
use crate::intern::Interner;
use crate::report::PerfReport;

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

/// Distills a report's per-server analysis into replayable folds.
/// Domain names go through `interner`, so steady-state traffic naming
/// known domains allocates nothing here.
pub fn distill(
    analysis: &PageAnalysis,
    violator_ips: &[String],
    interner: &Interner,
) -> Vec<ServerFold> {
    analysis
        .iter()
        .map(|server| ServerFold {
            domains: server
                .domains
                .iter()
                .map(|d| interner.intern_lower(d))
                .collect(),
            objects: server.object_count as u64,
            bytes: server.total_bytes,
            small_times_ms: server.small_times_ms.clone(),
            large_tputs_kbps: server.large_tputs_kbps.clone(),
            violated: violator_ips.contains(&server.ip),
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

/// Whole-site aggregates, updated per report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SiteAggregates {
    domains: BTreeMap<Arc<str>, DomainAggregate>,
    users: BTreeMap<String, u64>,
    reports: u64,
    /// Distinct users sampled per domain, capped in total by
    /// [`SiteAggregates::USER_SAMPLE_CAP`] (bounded memory under
    /// adversarial user churn). Nested rather than keyed by
    /// `(domain, user)` pairs so the membership probe on the hot fold
    /// path needs no key allocation.
    user_samples: BTreeMap<Arc<str>, BTreeSet<String>>,
    /// Total `(domain, user)` pairs across `user_samples`.
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

    /// Folds one report (and the violations its analysis produced).
    /// Convenience wrapper over [`distill`] + [`SiteAggregates::fold_distilled`].
    pub fn fold(&mut self, report: &PerfReport, violator_ips: &[String]) {
        let analysis = PageAnalysis::from_report(report);
        let interner = Interner::new();
        self.fold_distilled(&report.user, &distill(&analysis, violator_ips, &interner));
    }

    /// Folds pre-distilled per-server increments. This is the canonical
    /// fold path: the live engine and WAL replay both call it with the
    /// same [`ServerFold`] values, so the floating-point accumulation
    /// order — and therefore every recovered sum — is bit-identical.
    pub fn fold_distilled(&mut self, user: &str, folds: &[ServerFold]) {
        self.reports += 1;
        // A returning user (the steady state) costs a lookup, not a key
        // allocation.
        match self.users.get_mut(user) {
            Some(count) => *count += 1,
            None => {
                self.users.insert(user.to_owned(), 1);
            }
        }

        for server in folds {
            for domain in &server.domains {
                let agg = self.domains.entry(Arc::clone(domain)).or_default();
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
                if self.sample_count < Self::USER_SAMPLE_CAP {
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

    /// Folds a whole other accumulator in. The engine stripes aggregates
    /// per user-state shard and merges on read; because each user maps to
    /// exactly one shard, the per-user report counts and `(domain, user)`
    /// sample sets of different shards are disjoint, and adding them is
    /// exact. (The [`SiteAggregates::USER_SAMPLE_CAP`] bound then applies
    /// per shard rather than globally.)
    pub fn merge(&mut self, other: &SiteAggregates) {
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

    /// Reports folded so far.
    pub fn report_count(&self) -> u64 {
        self.reports
    }

    /// Reports folded for one user.
    pub fn reports_from(&self, user: &str) -> u64 {
        self.users.get(user).copied().unwrap_or(0)
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

    /// [`SiteAggregates::to_value`] as text appended to `out`, byte for
    /// byte, one row at a time — the sample pairs of a large site are
    /// most of an engine snapshot, and never exist as a tree here.
    pub(crate) fn write_text(&self, out: &mut String) {
        out.push_str("{\"domains\":[");
        push_rows(out, self.domain_rows());
        let _ = write!(
            out,
            "],\"reports\":{},\"samples\":[",
            Value::from(self.reports)
        );
        push_rows(out, self.sample_rows());
        out.push_str("],\"users\":[");
        push_rows(out, self.user_rows());
        out.push_str("]}");
    }

    /// `[user, report count]` pairs, in user order.
    fn user_rows(&self) -> impl Iterator<Item = Value> + '_ {
        self.users.iter().map(|(user, count)| {
            let mut pair = Value::array();
            pair.push(user.as_str());
            pair.push(*count);
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

    /// Flat `[domain, user]` pairs, exactly the order the old flat map
    /// produced (domain then user, both sorted) — the snapshot byte
    /// format is unchanged by the nested representation.
    fn sample_rows(&self) -> impl Iterator<Item = Value> + '_ {
        self.user_samples.iter().flat_map(|(domain, users)| {
            users.iter().map(move |user| {
                let mut pair = Value::array();
                pair.push(&**domain);
                pair.push(user.as_str());
                pair
            })
        })
    }

    /// Inverse of [`SiteAggregates::to_value`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_value(v: &Value) -> Result<SiteAggregates, String> {
        let mut out = SiteAggregates {
            reports: v
                .get("reports")
                .and_then(Value::as_u64)
                .ok_or("missing \"reports\"")?,
            ..SiteAggregates::default()
        };
        for pair in v
            .get("users")
            .and_then(Value::as_array)
            .ok_or("missing \"users\"")?
        {
            let user = pair.at(0).and_then(Value::as_str).ok_or("bad user entry")?;
            let count = pair.at(1).and_then(Value::as_u64).ok_or("bad user count")?;
            out.users.insert(user.to_owned(), count);
        }
        for row in v
            .get("domains")
            .and_then(Value::as_array)
            .ok_or("missing \"domains\"")?
        {
            let domain = row
                .get("domain")
                .and_then(Value::as_str)
                .ok_or("bad domain row")?;
            let field = |key: &str| row.get(key).and_then(Value::as_u64).ok_or("bad domain row");
            out.domains.insert(
                Arc::from(domain),
                DomainAggregate {
                    objects: field("objects")?,
                    bytes: field("bytes")?,
                    violations: field("violations")?,
                    users_seen: field("users_seen")?,
                    small_time_ms: RunningStat::from_value(
                        row.get("small").ok_or("missing \"small\"")?,
                    )?,
                    large_tput_kbps: RunningStat::from_value(
                        row.get("large").ok_or("missing \"large\"")?,
                    )?,
                },
            );
        }
        for pair in v
            .get("samples")
            .and_then(Value::as_array)
            .ok_or("missing \"samples\"")?
        {
            let domain = pair.at(0).and_then(Value::as_str).ok_or("bad sample")?;
            let user = pair.at(1).and_then(Value::as_str).ok_or("bad sample")?;
            let sampled = out.user_samples.entry(Arc::from(domain)).or_default();
            if sampled.insert(user.to_owned()) {
                out.sample_count += 1;
            }
        }
        Ok(out)
    }
}

/// Appends `rows` to `out` as the comma-separated body of a JSON array,
/// dropping each row once its text is written.
pub(crate) fn push_rows(out: &mut String, rows: impl Iterator<Item = Value>) {
    for (i, row) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{row}");
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

    /// Inverse of [`RunningStat::to_value`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_value(v: &Value) -> Result<RunningStat, String> {
        Ok(RunningStat {
            count: v
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("missing \"count\"")?,
            sum: f64_from_value(v.get("sum").ok_or("missing \"sum\"")?)?,
            min: f64_from_value(v.get("min").ok_or("missing \"min\"")?)?,
            max: f64_from_value(v.get("max").ok_or("missing \"max\"")?)?,
        })
    }
}
