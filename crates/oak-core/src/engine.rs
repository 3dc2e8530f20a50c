//! The Oak engine: per-user rule state and page modification.
//!
//! "Both of these processes are performed at the user level. Each client
//! submits its own performance information, which is then considered
//! against its own history. Rules are then activated on a per-client
//! basis, meaning that outgoing pages are modified based on
//! user-perceived performance." (§4)
//!
//! # Concurrency
//!
//! The engine is internally synchronized (every method takes `&self`), so
//! one instance can back a multi-threaded server directly. State is split
//! along the paper's own seams:
//!
//! - the **rule table** (operator rules, their precompiled
//!   [`RuleSurface`]s, and the domain→rule index) is read-mostly and sits
//!   behind one `RwLock`: reports and page serves share it, rule add /
//!   remove takes the write lock;
//! - **user state** (activations, pending counts, per-user GC clock) is
//!   striped across [`SHARD_COUNT`] shards keyed by an FNV-1a hash of the
//!   user id, each behind its own `Mutex`. Requests for different users
//!   contend only when they hash to the same shard.
//!
//! The activity log and the site aggregates are sharded too; [`Oak::log`]
//! stitches shard logs back into one globally ordered history using
//! per-event sequence numbers, and [`Oak::aggregates`] merges the shard
//! accumulators on read.
//!
//! Lock order is rule table before shard, shards in ascending index;
//! no method acquires them in any other order, so the engine cannot
//! deadlock against itself.
//!
//! # One writer
//!
//! Every mutator is *decide → apply → emit*: under its locks it works
//! out what will change from the state as it stands, applies that
//! decision through a function that takes nothing else, and hands the
//! same decision to the [`EventSink`] as an [`EngineEvent`].
//! [`Oak::apply_event`] calls those same functions, so live ingest, WAL
//! replay and a follower applying a shipped event are one code path —
//! with or without a sink.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use oak_html::{Document, Rewriter};
use oak_json::Value;

use crate::cohort::{CohortBaselines, CohortConfig};
use crate::detect::{detect_violators, DetectorConfig, DetectorPolicy, Violation};
use crate::events::{EngineEvent, EventSink, IngestEffect, SequencedEvent};
use crate::matching::{url_host, MatchLevel, RuleSurface, ScriptFetcher};
use crate::report::PerfReport;
use crate::rule::{Rule, RuleId, RuleType};
use crate::time::Instant;
use crate::{analysis::PageAnalysis, OAK_ALTERNATE_HEADER};

mod image;

pub use image::STATE_IMAGE_VERSION;

/// How many user-state stripes the engine keeps. Requests for users on
/// different stripes proceed in parallel; 16 is comfortably above the
/// core counts this engine targets while keeping merge-on-read cheap.
pub const SHARD_COUNT: usize = 16;

/// Engine-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct OakConfig {
    /// Violator-detection parameters (§4.2.1).
    pub detector: DetectorConfig,
    /// Which detection policy runs over each report: the paper's global
    /// within-report test (the default), or the device-cohort-gated
    /// variant (see [`crate::cohort`]). With the default, every
    /// operator-visible surface is byte-identical to the pre-seam
    /// engine.
    pub detector_policy: DetectorPolicy,
    /// How deep connection-dependency matching may look (§4.2.2).
    /// [`MatchLevel::ExternalJs`] — the full mechanism — by default;
    /// lower settings exist for the Fig. 8 ablation.
    pub max_match_level: MatchLevel,
    /// In-memory activity-log retention, as entries *per shard*
    /// ([`Oak::log`] therefore returns at most `SHARD_COUNT ×` this).
    /// `None` retains everything — right for experiments, wrong for a
    /// long-running server: with a retention cap, old entries fall out
    /// of RAM while remaining durable in the write-ahead log.
    pub log_retention: Option<usize>,
}

impl Default for OakConfig {
    fn default() -> OakConfig {
        OakConfig {
            detector: DetectorConfig::default(),
            detector_policy: DetectorPolicy::default(),
            max_match_level: MatchLevel::ExternalJs,
            log_retention: None,
        }
    }
}

/// A rule currently active for one user.
#[derive(Clone, Debug, PartialEq)]
pub struct ActiveRule {
    /// Index into the rule's alternatives list. The starting index and
    /// walk order follow the rule's [`crate::rule::SelectionPolicy`] (§4.2.4).
    pub alternative_index: usize,
    /// How many alternatives have been tried so far (including the
    /// current one); the list is exhausted when this reaches its length.
    pub alternatives_tried: usize,
    /// When the rule was activated (TTL counts from here).
    pub activated_at: Instant,
    /// Severity (distance from the median, in deviation units) of the
    /// violation that activated the rule — the quantity rule history
    /// compares when the alternate later violates (§4.2.3).
    pub default_severity: f64,
}

/// Per-user engine state.
#[derive(Clone, Debug, Default)]
struct UserState {
    active: BTreeMap<RuleId, ActiveRule>,
    /// Violations observed per rule that have not yet reached the
    /// activation policy's threshold.
    pending: BTreeMap<RuleId, u32>,
    /// Last time this user reported or was served — the GC clock.
    last_seen: Instant,
}

/// What a call to [`Oak::ingest_report`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestOutcome {
    /// Violators detected in this report.
    pub violations: Vec<Violation>,
    /// Rules newly activated for this user.
    pub activated: Vec<RuleId>,
    /// Active rules that advanced to their next alternative because the
    /// current alternate violated.
    pub advanced: Vec<RuleId>,
    /// Rules deactivated (alternate was worse than the recorded default
    /// and no further alternatives remained).
    pub deactivated: Vec<RuleId>,
    /// Rules that expired by TTL during this ingest.
    pub expired: Vec<RuleId>,
}

/// A page after per-user modification.
#[derive(Clone, Debug, PartialEq)]
pub struct ModifiedPage {
    /// The rewritten HTML.
    pub html: String,
    /// Rules that made at least one edit.
    pub applied: Vec<RuleId>,
    /// `(old_host, new_host)` pairs for Type 2 replacements — the value
    /// of the [`OAK_ALTERNATE_HEADER`] cache hint (§4.3).
    pub cache_hints: Vec<(String, String)>,
}

impl ModifiedPage {
    /// The `X-Oak-Alternate` header value, or `None` when no Type 2 rule
    /// applied.
    pub fn alternate_header(&self) -> Option<String> {
        alternate_header(&self.cache_hints)
    }

    /// Header name/value pair ready to attach to a response.
    pub fn alternate_header_entry(&self) -> Option<(&'static str, String)> {
        self.alternate_header().map(|v| (OAK_ALTERNATE_HEADER, v))
    }
}

/// A page after per-user modification, borrowing the input when no rule
/// edited it — the zero-copy twin of [`ModifiedPage`] used on the serve
/// hot path, where most users run rule-free (§5's steady state).
#[derive(Clone, Debug, PartialEq)]
pub struct ModifiedPageRef<'h> {
    /// The page: `Cow::Borrowed` when untouched, owned when rewritten.
    pub html: std::borrow::Cow<'h, str>,
    /// Rules that made at least one edit.
    pub applied: Vec<RuleId>,
    /// `(old_host, new_host)` pairs for Type 2 replacements.
    pub cache_hints: Vec<(String, String)>,
}

impl ModifiedPageRef<'_> {
    /// The `X-Oak-Alternate` header value, or `None` when no Type 2 rule
    /// applied.
    pub fn alternate_header(&self) -> Option<String> {
        alternate_header(&self.cache_hints)
    }

    /// Header name/value pair ready to attach to a response.
    pub fn alternate_header_entry(&self) -> Option<(&'static str, String)> {
        self.alternate_header().map(|v| (OAK_ALTERNATE_HEADER, v))
    }

    /// Materializes into the owned form (copying only if still borrowed).
    pub fn into_owned(self) -> ModifiedPage {
        ModifiedPage {
            html: self.html.into_owned(),
            applied: self.applied,
            cache_hints: self.cache_hints,
        }
    }
}

fn alternate_header(cache_hints: &[(String, String)]) -> Option<String> {
    if cache_hints.is_empty() {
        return None;
    }
    Some(
        cache_hints
            .iter()
            .map(|(old, new)| format!("{old}={new}"))
            .collect::<Vec<_>>()
            .join(","),
    )
}

/// What happened to a rule for a user, for the activity log (§5 logs
/// "the activation and removal of rules"; Figs. 12/14 and Table 3 are
/// computed from this record).
#[derive(Clone, Debug, PartialEq)]
pub enum LogAction {
    /// Rule became active; carries the triggering violator's IP and the
    /// recorded severity.
    Activated {
        /// The violating server.
        violator_ip: String,
        /// Severity at activation.
        severity: f64,
    },
    /// Rule advanced to its next alternative.
    Advanced {
        /// New alternative index.
        to_index: usize,
    },
    /// Rule deactivated because the alternate under-performed the
    /// recorded default.
    Deactivated,
    /// Rule expired by TTL.
    Expired,
}

/// One activity-log record.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEvent {
    /// When it happened.
    pub time: Instant,
    /// The user whose state changed.
    pub user: String,
    /// The rule affected.
    pub rule: RuleId,
    /// What happened.
    pub action: LogAction,
}

/// The read-mostly half of the engine: operator rules, their precompiled
/// matching surfaces, and the domain→rule inverted index.
#[derive(Debug, Default)]
struct RuleTable {
    rules: BTreeMap<RuleId, Rule>,
    /// Per-rule pre-compiled matching surfaces: `(default, alternatives)`.
    /// Rebuilt on add/remove; reports match against these instead of
    /// re-parsing rule text per violation.
    surfaces: BTreeMap<RuleId, (RuleSurface, Vec<RuleSurface>)>,
    index: DomainIndex,
    next_rule_id: u32,
}

impl RuleTable {
    /// Registers `rule` under `id` — the one way a rule enters the table,
    /// whether from [`Oak::add_rule`], a replayed `RuleAdded` or a
    /// snapshot row. Keeps the id allocator ahead of every id present, so
    /// additions after a recovery never reuse one.
    fn insert(&mut self, id: RuleId, rule: Rule) {
        let default_surface = RuleSurface::compile(&rule.default_text);
        let alt_surfaces: Vec<RuleSurface> = rule
            .alternatives
            .iter()
            .map(|a| RuleSurface::compile(a))
            .collect();
        self.index.insert(id, &default_surface, &alt_surfaces);
        self.surfaces.insert(id, (default_surface, alt_surfaces));
        self.rules.insert(id, rule);
        self.next_rule_id = self.next_rule_id.max(id.0 + 1);
    }

    /// Drops a rule and its surfaces; the caller clears user state.
    fn remove(&mut self, id: RuleId) -> Option<Rule> {
        let rule = self.rules.remove(&id)?;
        self.surfaces.remove(&id);
        self.index = DomainIndex::rebuild(&self.surfaces);
        Some(rule)
    }
}

/// Maps violator domains to the rules whose surfaces could possibly match
/// them, so a report consults only candidate rules instead of scanning
/// the whole table.
///
/// Level-1 matching compares violator domains against a surface's direct
/// hosts by equality, and level-2 requires the domain to appear in the
/// rule text with non-host-character boundaries on both sides — which,
/// for a domain made of host characters, means the occurrence is exactly
/// a *maximal run of host characters* in the text. Indexing each
/// surface's direct hosts plus every maximal host-character run of its
/// text therefore loses no level-1/2 match. Level-3 (fetched script
/// bodies) cannot be indexed, so rules that include external scripts go
/// in [`DomainIndex::scan_always`], consulted only when the configured
/// match depth reaches [`MatchLevel::ExternalJs`].
#[derive(Debug, Default)]
struct DomainIndex {
    by_domain: HashMap<String, BTreeSet<RuleId>>,
    /// Rules whose surfaces reference external scripts: their match
    /// surface extends to fetched bodies the index cannot see.
    scan_always: BTreeSet<RuleId>,
}

/// The candidate rules for one report's violators.
enum Candidates {
    /// A violator domain fell outside what the index can answer exactly;
    /// scan the whole table.
    All,
    /// Only these rules can match (ascending id order).
    Subset(BTreeSet<RuleId>),
}

impl DomainIndex {
    /// Indexes one rule's default and alternative surfaces.
    fn insert(&mut self, id: RuleId, default: &RuleSurface, alternatives: &[RuleSurface]) {
        for surface in std::iter::once(default).chain(alternatives) {
            for token in surface.domain_tokens() {
                self.by_domain.entry(token).or_default().insert(id);
            }
            if surface.needs_script_scan() {
                self.scan_always.insert(id);
            }
        }
    }

    /// Rebuilds from scratch (rule removal).
    fn rebuild(surfaces: &BTreeMap<RuleId, (RuleSurface, Vec<RuleSurface>)>) -> DomainIndex {
        let mut index = DomainIndex::default();
        for (id, (default, alternatives)) in surfaces {
            index.insert(*id, default, alternatives);
        }
        index
    }

    /// The rules that could match any of the (already lowercased)
    /// violator domain lists at `max_level`. Generic over the string
    /// handle so interned `Arc<str>` lists need no conversion.
    fn candidates<S: AsRef<str>>(&self, lowered: &[Vec<S>], max_level: MatchLevel) -> Candidates {
        let mut set = BTreeSet::new();
        for domains in lowered {
            for domain in domains {
                let domain = domain.as_ref();
                // The maximal-run argument only covers domains made of
                // host characters; anything else (unexpected in DNS
                // names, but reports are client-supplied) falls back to
                // the exact full scan.
                if !domain.bytes().all(crate::matching::is_host_char) {
                    return Candidates::All;
                }
                if let Some(ids) = self.by_domain.get(domain) {
                    set.extend(ids.iter().copied());
                }
            }
        }
        if max_level == MatchLevel::ExternalJs {
            set.extend(self.scan_always.iter().copied());
        }
        Candidates::Subset(set)
    }
}

/// One stripe of user-keyed state, plus its slice of the activity log and
/// the site aggregates.
#[derive(Debug, Default)]
struct Shard {
    users: HashMap<String, UserState>,
    /// `(sequence, event)`: sequence numbers come from the engine-global
    /// counter, so merging shard logs by sequence reconstructs the exact
    /// global order of state changes.
    log: Vec<(u64, LogEvent)>,
    aggregates: crate::aggregates::SiteAggregates,
}

impl Shard {
    /// Forces `rule` active for `user` (operator action: no log entry).
    fn force_activate(&mut self, time: Instant, user: &str, rule_id: RuleId, rule: &Rule) {
        let forced = ActiveRule {
            alternative_index: initial_alternative(rule, user),
            alternatives_tried: 1,
            activated_at: time,
            default_severity: f64::INFINITY,
        };
        let state = self.users.entry(user.to_owned()).or_default();
        state.active.insert(rule_id, forced);
    }

    /// Drops `user`'s activation of `rule`; whether there was one.
    fn force_deactivate(&mut self, user: &str, rule: RuleId) -> bool {
        self.users
            .get_mut(user)
            .is_some_and(|state| state.active.remove(&rule).is_some())
    }

    /// Forgets `users` (the activity log and aggregates keep theirs).
    fn prune(&mut self, users: &[String]) {
        for user in users {
            self.users.remove(user);
        }
    }
}

/// The Oak server engine.
///
/// Owns the operator's rules, every user's activation state, and the
/// activity log. Transport-agnostic: hand it decoded reports and pages.
/// Internally synchronized — share one instance across threads with
/// `Arc<Oak>`; see the module docs for the locking layout.
///
/// With an [`EventSink`] attached ([`Oak::set_event_sink`]), every
/// mutation additionally emits a replayable [`EngineEvent`]; see
/// [`crate::events`] and [`Oak::apply_event`] for the recovery side.
pub struct Oak {
    config: OakConfig,
    rules: RwLock<RuleTable>,
    shards: Vec<Mutex<Shard>>,
    /// Allocates the per-event sequence numbers that order the sharded
    /// activity log.
    log_seq: AtomicU64,
    /// Allocates the sequence numbers that order emitted [`EngineEvent`]s
    /// (allocated under the emitting operation's locks, so sequence order
    /// is application order wherever it matters).
    event_seq: AtomicU64,
    /// Replication epoch stamped on every emitted event (see
    /// [`Oak::set_epoch`]); 0 outside a cluster.
    epoch: AtomicU64,
    sink: Option<Arc<dyn EventSink>>,
    /// Per-(device cohort, server) baselines backing the
    /// [`DetectorPolicy::Cohort`] policy. Bounded, advisory, and
    /// deliberately excluded from snapshots and the WAL (see
    /// [`crate::cohort`]); untouched — never even locked — under the
    /// default global policy.
    cohorts: Mutex<CohortBaselines>,
    /// Stage-latency instrumentation; `None` costs nothing on hot paths.
    obs: Option<Arc<crate::obs::CoreMetrics>>,
    /// Shared lowercase domain/host handles: the per-report violator
    /// domains and every aggregate fold reuse one `Arc<str>` per distinct
    /// name instead of allocating fresh lowercased strings per report.
    interner: crate::intern::Interner,
}

impl fmt::Debug for Oak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Oak")
            .field("config", &self.config)
            .field("rules", &self.rules)
            .field("shards", &self.shards)
            .field("log_seq", &self.log_seq)
            .field("event_seq", &self.event_seq)
            .field("sink", &self.sink.as_ref().map(|_| "EventSink"))
            .finish()
    }
}

impl Default for Oak {
    fn default() -> Oak {
        Oak::new(OakConfig::default())
    }
}

impl Oak {
    /// An engine with no rules.
    pub fn new(config: OakConfig) -> Oak {
        Oak {
            config,
            rules: RwLock::new(RuleTable::default()),
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            log_seq: AtomicU64::new(0),
            event_seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            sink: None,
            cohorts: Mutex::new(CohortBaselines::new(CohortConfig::default())),
            obs: None,
            interner: crate::intern::Interner::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OakConfig {
        &self.config
    }

    /// Attaches the sink that will receive every future mutation as a
    /// [`SequencedEvent`] — typically the `oak-store` write-ahead log.
    /// Takes `&mut self` so it can only happen before the engine is
    /// shared (at boot, after recovery and before serving).
    pub fn set_event_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Attaches stage-latency instrumentation. Like
    /// [`Oak::set_event_sink`], takes `&mut self` so it can only happen
    /// before the engine is shared. With no metrics attached the hot
    /// paths read no clock and record nothing.
    pub fn set_obs(&mut self, obs: Arc<crate::obs::CoreMetrics>) {
        self.obs = Some(obs);
    }

    /// Emits one event to the sink, allocating its sequence number.
    /// Call sites hold the locks their mutation took, which is what makes
    /// sequence order meaningful; the closure defers payload construction
    /// to the sinked case.
    fn emit_with(&self, shard: Option<usize>, build: impl FnOnce() -> EngineEvent) {
        if let Some(sink) = &self.sink {
            let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
            sink.record(
                shard,
                &SequencedEvent {
                    seq,
                    epoch: self.epoch.load(Ordering::Relaxed),
                    event: build(),
                },
            );
        }
    }

    /// Sets the replication epoch stamped on every event emitted from
    /// now on. A cluster primary calls this with its lease epoch when it
    /// wins an election, so followers tailing the WAL stream can tell
    /// frames from the current leaseholder apart from a deposed one's.
    /// Single-node deployments never call it and emit epoch 0.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// The replication epoch of the branch this engine's history is on:
    /// the epoch of the last event it emitted ([`Oak::set_epoch`]) or
    /// applied ([`Oak::apply_event`]), or of the snapshot it was built
    /// from — so recovery restores it. Two replicas' histories compare as
    /// `(epoch, event_seq)`, lexicographically; sequence numbers alone do
    /// not compare across branches.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The next event sequence number the engine will allocate — equal to
    /// one past the highest seq already emitted. External oracles
    /// (oak-sim's invariant checkers) compare this across crash-recovery.
    pub fn event_seq(&self) -> u64 {
        self.event_seq.load(Ordering::SeqCst)
    }

    /// The shard index holding `user`'s state.
    fn shard_index(&self, user: &str) -> usize {
        fnv1a(user) as usize % SHARD_COUNT
    }

    /// The shard holding `user`'s state.
    fn shard(&self, user: &str) -> &Mutex<Shard> {
        &self.shards[self.shard_index(user)]
    }

    /// The next global log sequence number.
    fn next_seq(&self) -> u64 {
        self.log_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers an operator rule.
    ///
    /// # Errors
    ///
    /// Returns the validation message for internally inconsistent rules
    /// (see [`Rule::validate`]).
    pub fn add_rule(&self, rule: Rule) -> Result<RuleId, String> {
        rule.validate()?;
        let mut table = self.rules.write().expect("rule table lock");
        let id = RuleId(table.next_rule_id);
        table.insert(id, rule);
        // Emitted under the write lock: no ingest that can see this rule
        // sequences before it.
        self.emit_with(None, || EngineEvent::RuleAdded {
            id,
            rule: table.rules[&id].clone(),
        });
        Ok(id)
    }

    /// All registered rules, in id order.
    pub fn rules(&self) -> impl Iterator<Item = (RuleId, Rule)> {
        let table = self.rules.read().expect("rule table lock");
        table
            .rules
            .iter()
            .map(|(id, r)| (*id, r.clone()))
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// A rule by id.
    pub fn rule(&self, id: RuleId) -> Option<Rule> {
        self.rules
            .read()
            .expect("rule table lock")
            .rules
            .get(&id)
            .cloned()
    }

    /// Removes a rule from the engine, deactivating it for every user and
    /// clearing pending violation counts. Returns the rule if it existed.
    /// The activity log keeps its history (audits must survive rule
    /// turnover); ids are never reused.
    pub fn remove_rule(&self, id: RuleId) -> Option<Rule> {
        let mut table = self.rules.write().expect("rule table lock");
        let rule = self.apply_rule_removed(&mut table, id)?;
        self.emit_with(None, || EngineEvent::RuleRemoved { id });
        Some(rule)
    }

    /// Drops rule `id` from the table and from every user's state.
    fn apply_rule_removed(&self, table: &mut RuleTable, id: RuleId) -> Option<Rule> {
        let rule = table.remove(id)?;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            for state in shard.users.values_mut() {
                state.active.remove(&id);
                state.pending.remove(&id);
            }
        }
        Some(rule)
    }

    /// The rules currently active for `user`, with their state.
    pub fn active_rules(&self, user: &str) -> Vec<(RuleId, ActiveRule)> {
        self.shard(user)
            .lock()
            .expect("shard lock")
            .users
            .get(user)
            .map(|u| u.active.iter().map(|(id, a)| (*id, a.clone())).collect())
            .unwrap_or_default()
    }

    /// The full activity log, in global event order.
    pub fn log(&self) -> Vec<LogEvent> {
        let mut entries: Vec<(u64, LogEvent)> = Vec::new();
        for shard in &self.shards {
            entries.extend(shard.lock().expect("shard lock").log.iter().cloned());
        }
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, event)| event).collect()
    }

    /// Users that have submitted at least one report or been force-toggled.
    pub fn user_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").users.len())
            .sum()
    }

    /// Aggregate site performance across every ingested report — the §5
    /// "aggregate site performance" record, rule-independent. Merged
    /// across shards on each call; hold the result rather than re-calling
    /// in a loop.
    pub fn aggregates(&self) -> crate::aggregates::SiteAggregates {
        let mut merged = crate::aggregates::SiteAggregates::new();
        for shard in &self.shards {
            merged.merge(&shard.lock().expect("shard lock").aggregates);
        }
        merged
    }

    /// As [`Oak::aggregates`], but folding into a
    /// [`crate::aggregates::SiteOverview`]: totals and the merged domain
    /// table without the per-user report counts. [`Oak::aggregates`]
    /// costs O(distinct users ever seen) per call, which a serving-path
    /// stats scrape must not pay; this costs O(domains).
    pub fn aggregates_overview(&self) -> crate::aggregates::SiteOverview {
        let mut overview = crate::aggregates::SiteOverview::default();
        for shard in &self.shards {
            overview.fold(&shard.lock().expect("shard lock").aggregates);
        }
        overview
    }

    /// Drops per-user state not touched since `cutoff`; returns how many
    /// users were pruned. Production hygiene: the paper's per-user
    /// profiles are long-lived but not immortal — a profile whose cookie
    /// will never return (crawler, cleared cookies) must not hold memory
    /// forever. The activity log and aggregates are unaffected.
    pub fn prune_inactive_users(&self, cutoff: Instant) -> usize {
        let mut pruned = 0;
        for (index, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("shard lock");
            let mut stale: Vec<String> = shard
                .users
                .iter()
                .filter(|(_, state)| state.last_seen < cutoff)
                .map(|(user, _)| user.clone())
                .collect();
            pruned += stale.len();
            if !stale.is_empty() {
                // Sorted so the durable event (and replay) is independent
                // of HashMap iteration order.
                stale.sort_unstable();
                shard.prune(&stale);
                self.emit_with(Some(index), || EngineEvent::Pruned { users: stale });
            }
        }
        pruned
    }

    /// Processes one client report: detects violators, matches them to
    /// rules, and updates this user's activations per policy, history,
    /// and TTL (§4.2). Transport code that knows the client's address
    /// should prefer [`Oak::ingest_report_from`], which lets
    /// subnet-scoped rules (§4.2.4) apply.
    pub fn ingest_report(
        &self,
        now: Instant,
        report: &PerfReport<impl AsRef<str>>,
        fetcher: &dyn ScriptFetcher,
    ) -> IngestOutcome {
        self.ingest_report_from(now, report, fetcher, None)
    }

    /// As [`Oak::ingest_report`], with the reporting client's IP (dotted
    /// quad) as observed by the transport. Rules carrying a
    /// [`crate::rule::ClientFilter`] only activate when the IP passes.
    /// The report may borrow its strings, as one decoded from a request
    /// body does: nothing here copies an entry's.
    pub fn ingest_report_from(
        &self,
        now: Instant,
        report: &PerfReport<impl AsRef<str>>,
        fetcher: &dyn ScriptFetcher,
        client_ip: Option<&str>,
    ) -> IngestOutcome {
        let user = report.user.as_ref();
        let _ingest_span = oak_obs::span("ingest");
        let ingest_start = self.obs.as_ref().map(|o| o.now());
        let detect_span = oak_obs::span("detect");
        let analysis = PageAnalysis::from_report(report);
        let violations = match self.config.detector_policy {
            DetectorPolicy::Global => detect_violators(&analysis, &self.config.detector),
            // The cohort lock is taken and released before any rule-table
            // or shard lock below — no ordering cycle is possible.
            DetectorPolicy::Cohort => self
                .cohorts
                .lock()
                .expect("cohort baselines lock")
                .detect_and_update(&analysis, report.device, &self.config.detector),
        };
        // Violator domains are lowercased once per report via the
        // interner; for already-seen domains (the steady state) this is
        // allocation-free, and every surface comparison below reuses the
        // shared handles.
        let lowered: Vec<Vec<Arc<str>>> = violations
            .iter()
            .map(|v| {
                v.domains
                    .iter()
                    .map(|d| self.interner.intern_lower(d))
                    .collect()
            })
            .collect();
        drop(detect_span);
        let detect_end = self.obs.as_ref().map(|o| o.now());

        let _match_span = oak_obs::span("match");
        let max_level = self.config.max_match_level;
        let table = self.rules.read().expect("rule table lock");
        let candidate_ids: Vec<RuleId> = match table.index.candidates(&lowered, max_level) {
            Candidates::All => table.rules.keys().copied().collect(),
            Candidates::Subset(set) => set.into_iter().collect(),
        };

        let shard_index = self.shard_index(user);
        let mut shard = self.shards[shard_index].lock().expect("shard lock");

        // Decide against the state as it stands; nothing is written until
        // the whole effect is known.
        let state = shard.users.get(user);
        let mut records: Vec<(u64, LogEvent)> = Vec::new();
        let mut record = |rule: RuleId, action: LogAction| {
            let entry = LogEvent {
                time: now,
                user: user.to_owned(),
                rule,
                action,
            };
            records.push((self.next_seq(), entry));
        };
        // TTL expiries come first, and the candidates below see the
        // user's activations without them: a rule that just expired can
        // be re-activated by this very report.
        let expired = expired_rules(&table, state, now);
        for rule_id in &expired {
            record(*rule_id, LogAction::Expired);
        }
        let mut pending: Vec<RuleId> = Vec::new();
        for rule_id in candidate_ids {
            let rule = &table.rules[&rule_id];
            let active = state
                .and_then(|s| s.active.get(&rule_id))
                .filter(|_| !expired.contains(&rule_id));

            match active {
                None => {
                    // Subnet-scoped rules only consider admitted clients.
                    if !rule.policy.client_filter.admits(client_ip) {
                        continue;
                    }
                    // Does any violator tie to the rule's default text?
                    let surface = &table.surfaces[&rule_id].0;
                    let hit = violations.iter().zip(&lowered).find(|(_, domains)| {
                        surface
                            .matches_prelowered(domains, max_level, fetcher)
                            .is_some()
                    });
                    let Some((violation, _)) = hit else { continue };
                    let seen = state
                        .and_then(|s| s.pending.get(&rule_id))
                        .map_or(0, |n| *n);
                    if seen + 1 < rule.policy.violations_required {
                        pending.push(rule_id);
                        continue;
                    }
                    record(
                        rule_id,
                        LogAction::Activated {
                            violator_ip: violation.ip.clone(),
                            severity: violation.kind.severity(),
                        },
                    );
                }
                Some(active) => {
                    // Rule history (§4.2.3): has the *current alternate*
                    // become a violator? A violation that the default
                    // text also explains is *not* evidence against the
                    // alternate: pages often keep loading residual
                    // objects from the default domain (dynamic inclusions
                    // Oak cannot rewrite), and alternative text commonly
                    // embeds the default's domain (nested-path mirrors),
                    // so without the exclusion the default's own
                    // violations would flap its replacement off.
                    let (default_surface, alt_surfaces) = &table.surfaces[&rule_id];
                    let alt_surface = match alt_surfaces.get(active.alternative_index) {
                        Some(s) => s,
                        None => continue, // Type 1: nothing to re-evaluate.
                    };
                    let hit = violations.iter().zip(&lowered).find(|(_, domains)| {
                        alt_surface
                            .matches_prelowered(domains, max_level, fetcher)
                            .is_some()
                            && default_surface
                                .matches_prelowered(domains, max_level, fetcher)
                                .is_none()
                    });
                    let Some((violation, _)) = hit else { continue };
                    if violation.kind.severity() < active.default_severity {
                        // The alternate, though violating now, is still
                        // closer to the median than the default was:
                        // "chooses the action which minimizes this
                        // distance".
                        continue;
                    }
                    if active.alternatives_tried < rule.alternatives.len() {
                        // Advance per the selection policy: linear walks
                        // increment; user-hash walks wrap so every
                        // alternative is visited once. The new alternate
                        // starts fresh against the original default's
                        // recorded distance.
                        let to_index = (active.alternative_index + 1) % rule.alternatives.len();
                        record(rule_id, LogAction::Advanced { to_index });
                    } else {
                        record(rule_id, LogAction::Deactivated);
                    }
                }
            }
        }
        // Distilled once: live and replayed folds add bit-identical floats.
        // Detection was the analysis's last reader; its samples move on.
        let effect = IngestEffect {
            time: now,
            user: user.to_owned(),
            folds: crate::aggregates::distill(analysis, &violations, &self.interner),
            pending,
            records,
        };

        // Apply — through the function replay uses — then emit.
        self.apply_ingest(&table, &mut shard, &effect);
        let mut outcome = IngestOutcome {
            violations,
            ..IngestOutcome::default()
        };
        for (_, entry) in &effect.records {
            match entry.action {
                LogAction::Activated { .. } => outcome.activated.push(entry.rule),
                LogAction::Advanced { .. } => outcome.advanced.push(entry.rule),
                LogAction::Deactivated => outcome.deactivated.push(entry.rule),
                LogAction::Expired => outcome.expired.push(entry.rule),
            }
        }
        self.emit_with(Some(shard_index), || EngineEvent::Ingest(effect));
        if let Some(obs) = &self.obs {
            let end = obs.now();
            let start = ingest_start.unwrap_or(end);
            crate::obs::CoreMetrics::record(&obs.detect, start, detect_end.unwrap_or(end));
            crate::obs::CoreMetrics::record(&obs.rule_match, detect_end.unwrap_or(end), end);
            crate::obs::CoreMetrics::record(&obs.ingest, start, end);
            obs.reports.inc();
        }
        outcome
    }

    /// Applies the user's active rules to an outgoing page (§4.3).
    ///
    /// Rules are applied in id order; a rule whose edit would overlap an
    /// earlier rule's edit is skipped for the conflicting occurrence (the
    /// operator wrote conflicting rules; Oak keeps serving rather than
    /// failing the page). Sub-rules run after their parent applied at
    /// least one edit.
    pub fn modify_page(&self, now: Instant, user: &str, path: &str, html: &str) -> ModifiedPage {
        self.modify_page_cow(now, user, path, html).into_owned()
    }

    /// As [`Oak::modify_page`], but borrowing: when no active rule edits
    /// the page (the common case) the returned HTML is a `Cow::Borrowed`
    /// of the input and nothing is copied.
    pub fn modify_page_cow<'h>(
        &self,
        now: Instant,
        user: &str,
        path: &str,
        html: &'h str,
    ) -> ModifiedPageRef<'h> {
        let _span = oak_obs::span("modify_page");
        let unmodified = |html: &'h str| ModifiedPageRef {
            html: std::borrow::Cow::Borrowed(html),
            applied: Vec::new(),
            cache_hints: Vec::new(),
        };

        let table = self.rules.read().expect("rule table lock");
        let shard_index = self.shard_index(user);
        let mut shard = self.shards[shard_index].lock().expect("shard lock");
        let expired: Vec<(u64, RuleId)> = expired_rules(&table, shard.users.get(user), now)
            .into_iter()
            .map(|rule| (self.next_seq(), rule))
            .collect();
        if !expired.is_empty() {
            // Serving is otherwise read-only; TTL expiry is the one page
            // path that mutates durable state, so it gets its own event.
            self.apply_serve_expiry(&table, &mut shard, now, user, &expired);
            self.emit_with(Some(shard_index), || EngineEvent::ServeExpiry {
                time: now,
                user: user.to_owned(),
                expired,
            });
        }
        let Some(state) = shard.users.get_mut(user) else {
            return unmodified(html);
        };
        state.last_seen = now;
        // Fast path: a user with no active rule in scope gets the page
        // back untouched, with no rewriter construction. (Most users run
        // rule-free most of the time — §5's steady state.)
        if state
            .active
            .keys()
            .all(|rule_id| !table.rules[rule_id].scope.applies_to(path))
        {
            return unmodified(html);
        }

        let rewrite_start = self.obs.as_ref().map(|o| o.now());
        let mut rewriter = Rewriter::new(html);
        let mut applied = Vec::new();
        let mut cache_hints = Vec::new();
        let mut sub_rule_batches: Vec<&Rule> = Vec::new();

        for (rule_id, active) in &state.active {
            let rule = &table.rules[rule_id];
            if !rule.scope.applies_to(path) {
                continue;
            }
            let edits = match rule.rule_type {
                RuleType::Remove => rewriter.delete_all(&rule.default_text),
                RuleType::ReplaceIdentical | RuleType::ReplaceDifferent => {
                    let alternative = &rule.alternatives[active.alternative_index];
                    rewriter.replace_all(&rule.default_text, alternative)
                }
            };
            if edits == 0 {
                continue;
            }
            applied.push(*rule_id);
            if !rule.sub_rules.is_empty() {
                sub_rule_batches.push(rule);
            }
            if rule.rule_type == RuleType::ReplaceIdentical {
                let alternative = &rule.alternatives[active.alternative_index];
                if let Some(pair) = host_swap(&rule.default_text, alternative) {
                    cache_hints.push(pair);
                }
            }
        }

        let mut html = rewriter.apply_cow();
        // Sub-rules are plain find/replace over the already-rewritten
        // page; a sub-rule that matches nothing costs no copy.
        for rule in sub_rule_batches {
            for sub in &rule.sub_rules {
                if !sub.find.is_empty() && html.contains(&sub.find) {
                    html = std::borrow::Cow::Owned(html.replace(&sub.find, &sub.replace));
                }
            }
        }
        if let (Some(obs), Some(start)) = (&self.obs, rewrite_start) {
            crate::obs::CoreMetrics::record(&obs.rewrite, start, obs.now());
        }

        ModifiedPageRef {
            html,
            applied,
            cache_hints,
        }
    }

    /// Forces a rule active for a user regardless of reports — the
    /// evaluation's "Oak with all rules activated" condition (§5.3).
    ///
    /// # Panics
    ///
    /// Panics if `rule_id` is unknown.
    pub fn force_activate(&self, now: Instant, user: &str, rule_id: RuleId) {
        let table = self.rules.read().expect("rule table lock");
        let rule = table
            .rules
            .get(&rule_id)
            .unwrap_or_else(|| panic!("unknown {rule_id}"));
        let shard_index = self.shard_index(user);
        let mut shard = self.shards[shard_index].lock().expect("shard lock");
        shard.force_activate(now, user, rule_id, rule);
        self.emit_with(Some(shard_index), || EngineEvent::ForceActivate {
            time: now,
            user: user.to_owned(),
            rule: rule_id,
        });
    }

    /// Deactivates a rule for a user (no log entry; operator action).
    pub fn force_deactivate(&self, user: &str, rule_id: RuleId) {
        let shard_index = self.shard_index(user);
        let mut shard = self.shards[shard_index].lock().expect("shard lock");
        if shard.force_deactivate(user, rule_id) {
            self.emit_with(Some(shard_index), || EngineEvent::ForceDeactivate {
                user: user.to_owned(),
                rule: rule_id,
            });
        }
    }

    /// Applies one recorded event — the recovery half of the event API.
    ///
    /// Replaying a WAL's events in ascending sequence order onto the
    /// engine they were recorded from (or a snapshot of it) rebuilds
    /// byte-identical [`Oak::rules`], [`Oak::active_rules`],
    /// [`Oak::aggregates`], and [`Oak::log`] observables: events carry
    /// resolved decisions (never detector/matcher inputs), so no fetcher
    /// or clock is consulted. Application is total and tolerant — an
    /// event referencing a rule whose `RuleAdded` was lost to an unsynced
    /// WAL tail is applied as far as state allows and never panics.
    ///
    /// Nothing here writes state itself: each arm takes the locks the
    /// live mutator takes and calls the function that mutator applies
    /// its own decision with.
    ///
    /// Events are *not* re-emitted to an attached sink; recovery attaches
    /// the sink after replay.
    pub fn apply_event(&self, ev: &SequencedEvent) {
        bump_to(&self.event_seq, ev.seq + 1);
        // Applying an event moves this history onto the event's branch.
        bump_to(&self.epoch, ev.epoch);
        match &ev.event {
            EngineEvent::RuleAdded { id, rule } => {
                let mut table = self.rules.write().expect("rule table lock");
                table.insert(*id, rule.clone());
            }
            EngineEvent::RuleRemoved { id } => {
                let mut table = self.rules.write().expect("rule table lock");
                self.apply_rule_removed(&mut table, *id);
            }
            EngineEvent::Ingest(effect) => {
                let table = self.rules.read().expect("rule table lock");
                let mut shard = self.shard(&effect.user).lock().expect("shard lock");
                self.apply_ingest(&table, &mut shard, effect);
            }
            EngineEvent::ForceActivate { time, user, rule } => {
                let table = self.rules.read().expect("rule table lock");
                if let Some(r) = table.rules.get(rule) {
                    let mut shard = self.shard(user).lock().expect("shard lock");
                    shard.force_activate(*time, user, *rule, r);
                }
            }
            EngineEvent::ForceDeactivate { user, rule } => {
                let mut shard = self.shard(user).lock().expect("shard lock");
                shard.force_deactivate(user, *rule);
            }
            EngineEvent::ServeExpiry {
                time,
                user,
                expired,
            } => {
                let table = self.rules.read().expect("rule table lock");
                let mut shard = self.shard(user).lock().expect("shard lock");
                self.apply_serve_expiry(&table, &mut shard, *time, user, expired);
            }
            EngineEvent::Pruned { users } => {
                for user in users {
                    let mut shard = self.shard(user).lock().expect("shard lock");
                    shard.prune(std::slice::from_ref(user));
                }
            }
        }
    }

    /// Applies one ingest's effect to its user's shard: the aggregate
    /// folds, the pending-violation counts, and every log record with
    /// the state transition it implies. Live ingest calls this with the
    /// effect it has just decided on; replay with the one it decoded.
    fn apply_ingest(&self, table: &RuleTable, shard: &mut Shard, effect: &IngestEffect) {
        shard.aggregates.fold_distilled(&effect.user, &effect.folds);
        // No key allocation for a returning user.
        if !shard.users.contains_key(&effect.user) {
            shard
                .users
                .insert(effect.user.clone(), UserState::default());
        }
        let user = shard.users.get_mut(&effect.user).expect("just inserted");
        user.last_seen = effect.time;
        for id in &effect.pending {
            *user.pending.entry(*id).or_insert(0) += 1;
        }
        for (seq, entry) in &effect.records {
            self.apply_record(table, shard, *seq, entry.clone());
        }
        trim_shard_log(&mut shard.log, self.config.log_retention);
    }

    /// Applies the TTL expiries a page serve found (see
    /// [`EngineEvent::ServeExpiry`]).
    fn apply_serve_expiry(
        &self,
        table: &RuleTable,
        shard: &mut Shard,
        time: Instant,
        user: &str,
        expired: &[(u64, RuleId)],
    ) {
        if let Some(state) = shard.users.get_mut(user) {
            state.last_seen = time;
        }
        for (seq, rule) in expired {
            let entry = LogEvent {
                time,
                user: user.to_owned(),
                rule: *rule,
                action: LogAction::Expired,
            };
            self.apply_record(table, shard, *seq, entry);
        }
        trim_shard_log(&mut shard.log, self.config.log_retention);
    }

    /// The one place an activation, advance, deactivation or expiry
    /// changes a user's state and enters the activity log: the change is
    /// read off the record, so the two cannot disagree. A record for a
    /// user the shard no longer holds is logged all the same.
    fn apply_record(&self, table: &RuleTable, shard: &mut Shard, seq: u64, entry: LogEvent) {
        bump_to(&self.log_seq, seq + 1);
        if let Some(state) = shard.users.get_mut(&entry.user) {
            match &entry.action {
                LogAction::Activated { severity, .. } => {
                    state.pending.remove(&entry.rule);
                    if let Some(rule) = table.rules.get(&entry.rule) {
                        state.active.insert(
                            entry.rule,
                            ActiveRule {
                                alternative_index: initial_alternative(rule, &entry.user),
                                alternatives_tried: 1,
                                activated_at: entry.time,
                                default_severity: *severity,
                            },
                        );
                    }
                }
                LogAction::Advanced { to_index } => {
                    if let Some(active) = state.active.get_mut(&entry.rule) {
                        active.alternative_index = *to_index;
                        active.alternatives_tried += 1;
                    }
                }
                LogAction::Deactivated | LogAction::Expired => {
                    state.active.remove(&entry.rule);
                }
            }
        }
        shard.log.push((seq, entry));
    }

    /// A consistent point-in-time snapshot of the full engine state as a
    /// JSON document: the readable form, which oracles and tests compare
    /// engines through, and what a snapshot file held before the state
    /// image ([`Oak::state_image`]) — which carries the same fields and
    /// is what gets stored and shipped.
    ///
    /// Takes the rule-table read lock and then every shard lock in
    /// ascending order (the engine's lock order), so mutations are
    /// quiesced for the duration and the cut is exact: every event with a
    /// sequence number below the recorded `event_seq` watermark is
    /// reflected, every later one is not. [`Oak::from_snapshot_json`]
    /// inverts it byte-identically.
    pub fn snapshot_json(&self) -> Value {
        let table = self.rules.read().expect("rule table lock");
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();

        let mut doc = Value::object();
        doc.set("version", 1u64);
        doc.set("shard_count", SHARD_COUNT as u64);
        doc.set("next_rule_id", u64::from(table.next_rule_id));
        doc.set("log_seq", self.log_seq.load(Ordering::SeqCst));
        doc.set("event_seq", self.event_seq.load(Ordering::SeqCst));
        // Emitted only under replication, like the per-event field: a
        // single-node snapshot stays byte-identical to version 1 files.
        let epoch = self.epoch.load(Ordering::Relaxed);
        if epoch > 0 {
            doc.set("epoch", epoch);
        }

        let mut rules = Value::array();
        for (id, rule) in &table.rules {
            rules.push(rule_row(*id, rule));
        }
        doc.set("rules", rules);

        let mut shards = Value::array();
        for guard in &guards {
            let mut shard_doc = Value::object();
            let mut user_rows = Value::array();
            for (name, state) in sorted_users(guard) {
                user_rows.push(user_row(name, state));
            }
            shard_doc.set("users", user_rows);
            let mut log_rows = Value::array();
            for (seq, entry) in &guard.log {
                log_rows.push(log_row(*seq, entry));
            }
            shard_doc.set("log", log_rows);
            shard_doc.set("aggregates", guard.aggregates.to_value());
            shards.push(shard_doc);
        }
        doc.set("shards", shards);
        doc
    }

    /// Reconstructs an engine from a [`Oak::snapshot_json`] document —
    /// how a snapshot file from before the state image is read.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field; also rejects snapshots from
    /// an engine with a different [`SHARD_COUNT`] (user→shard placement
    /// would not line up).
    pub fn from_snapshot_json(config: OakConfig, doc: &Value) -> Result<Oak, String> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer {key:?}"))
        };
        let version = field("version")?;
        if version != 1 {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let shard_count = field("shard_count")?;
        if shard_count != SHARD_COUNT as u64 {
            return Err(format!(
                "snapshot has {shard_count} shards, engine has {SHARD_COUNT}"
            ));
        }

        let oak = Oak::new(config);
        oak.log_seq.store(field("log_seq")?, Ordering::SeqCst);
        oak.event_seq.store(field("event_seq")?, Ordering::SeqCst);
        let epoch = doc.get("epoch").and_then(Value::as_u64).unwrap_or(0);
        oak.epoch.store(epoch, Ordering::Relaxed);
        {
            let mut table = oak.rules.write().expect("rule table lock");
            for row in doc
                .get("rules")
                .and_then(Value::as_array)
                .ok_or("missing \"rules\"")?
            {
                let raw = row.get("id").and_then(Value::as_u64).ok_or("bad rule id")?;
                let id = RuleId(u32::try_from(raw).map_err(|_| "rule id out of range")?);
                let spec = row
                    .get("spec")
                    .and_then(Value::as_str)
                    .ok_or("bad rule spec")?;
                let rule = crate::spec::parse_rule(spec).map_err(|e| e.to_string())?;
                table.insert(id, rule);
            }
            let next = field("next_rule_id")?;
            table.next_rule_id = u32::try_from(next).map_err(|_| "next_rule_id out of range")?;
        }

        let shard_docs = doc
            .get("shards")
            .and_then(Value::as_array)
            .ok_or("missing \"shards\"")?;
        if shard_docs.len() != SHARD_COUNT {
            return Err(format!(
                "snapshot carries {} shard records, expected {SHARD_COUNT}",
                shard_docs.len()
            ));
        }
        for (index, shard_doc) in shard_docs.iter().enumerate() {
            let mut shard = oak.shards[index].lock().expect("shard lock");
            for row in shard_doc
                .get("users")
                .and_then(Value::as_array)
                .ok_or("missing shard \"users\"")?
            {
                let name = row
                    .get("user")
                    .and_then(Value::as_str)
                    .ok_or("bad user row")?;
                let mut state = UserState {
                    last_seen: Instant(
                        row.get("last_seen")
                            .and_then(Value::as_u64)
                            .ok_or("bad last_seen")?,
                    ),
                    ..UserState::default()
                };
                for entry in row
                    .get("active")
                    .and_then(Value::as_array)
                    .ok_or("missing \"active\"")?
                {
                    let rule_raw = entry
                        .get("rule")
                        .and_then(Value::as_u64)
                        .ok_or("bad active rule")?;
                    let int = |key: &str| {
                        entry
                            .get(key)
                            .and_then(Value::as_u64)
                            .ok_or("bad active entry")
                    };
                    state.active.insert(
                        RuleId(u32::try_from(rule_raw).map_err(|_| "active rule out of range")?),
                        ActiveRule {
                            alternative_index: int("alt")? as usize,
                            alternatives_tried: int("tried")? as usize,
                            activated_at: Instant(int("at")?),
                            default_severity: crate::events::f64_from_value(
                                entry.get("severity").ok_or("missing severity")?,
                            )?,
                        },
                    );
                }
                for pair in row
                    .get("pending")
                    .and_then(Value::as_array)
                    .ok_or("missing \"pending\"")?
                {
                    let rule_raw = pair.at(0).and_then(Value::as_u64).ok_or("bad pending")?;
                    let count = pair.at(1).and_then(Value::as_u64).ok_or("bad pending")?;
                    state.pending.insert(
                        RuleId(u32::try_from(rule_raw).map_err(|_| "pending rule out of range")?),
                        u32::try_from(count).map_err(|_| "pending count out of range")?,
                    );
                }
                shard.users.insert(name.to_owned(), state);
            }
            for row in shard_doc
                .get("log")
                .and_then(Value::as_array)
                .ok_or("missing shard \"log\"")?
            {
                let seq = row
                    .get("seq")
                    .and_then(Value::as_u64)
                    .ok_or("bad log seq")?;
                shard.log.push((seq, LogEvent::from_value(row)?));
            }
            shard.aggregates = crate::aggregates::SiteAggregates::from_value(
                shard_doc
                    .get("aggregates")
                    .ok_or("missing \"aggregates\"")?,
            )?;
        }
        Ok(oak)
    }
}

/// One `rules` row of the snapshot document.
fn rule_row(id: RuleId, rule: &Rule) -> Value {
    let mut row = Value::object();
    row.set("id", u64::from(id.0));
    row.set("spec", crate::spec::format_rule(rule));
    row
}

/// A shard's users in the order the snapshot document lists them.
fn sorted_users(shard: &Shard) -> Vec<(&String, &UserState)> {
    let mut users: Vec<(&String, &UserState)> = shard.users.iter().collect();
    users.sort_by_key(|(name, _)| *name);
    users
}

/// One `users` row of a snapshot shard record.
fn user_row(name: &str, state: &UserState) -> Value {
    let mut row = Value::object();
    row.set("user", name);
    row.set("last_seen", state.last_seen.as_millis());
    let mut active = Value::array();
    for (rule, a) in &state.active {
        let mut entry = Value::object();
        entry.set("rule", u64::from(rule.0));
        entry.set("alt", a.alternative_index as u64);
        entry.set("tried", a.alternatives_tried as u64);
        entry.set("at", a.activated_at.as_millis());
        entry.set("severity", crate::events::f64_to_value(a.default_severity));
        active.push(entry);
    }
    row.set("active", active);
    let mut pending = Value::array();
    for (rule, count) in &state.pending {
        let mut pair = Value::array();
        pair.push(u64::from(rule.0));
        pair.push(u64::from(*count));
        pending.push(pair);
    }
    row.set("pending", pending);
    row
}

/// One `log` row of a snapshot shard record.
fn log_row(seq: u64, entry: &LogEvent) -> Value {
    let mut row = entry.to_value();
    row.set("seq", seq);
    row
}

/// Monotonically raises an atomic counter to at least `target`.
fn bump_to(counter: &AtomicU64, target: u64) {
    counter.fetch_max(target, Ordering::Relaxed);
}

/// The activations of `state` whose TTL has run out at `now`, in rule-id
/// order. Read-only: the caller journals and applies the expiries.
fn expired_rules(table: &RuleTable, state: Option<&UserState>, now: Instant) -> Vec<RuleId> {
    let mut expired = Vec::new();
    for (rule_id, active) in state.into_iter().flat_map(|s| &s.active) {
        let ttl = table.rules.get(rule_id).and_then(|r| r.ttl_ms);
        if ttl.is_some_and(|ttl| now.since(active.activated_at) >= ttl) {
            expired.push(*rule_id);
        }
    }
    expired
}

/// Enforces [`OakConfig::log_retention`] on one shard's log slice:
/// drops the oldest entries (per-shard appends are sequence-ordered, so
/// the front is the oldest) once the cap is exceeded. Dropped entries
/// remain durable in the write-ahead log when a sink is attached.
fn trim_shard_log(log: &mut Vec<(u64, LogEvent)>, retention: Option<usize>) {
    if let Some(cap) = retention {
        if log.len() > cap {
            log.drain(..log.len() - cap);
        }
    }
}

/// The stable hash behind user→shard placement ([`SHARD_COUNT`] modulo
/// of this value). Public so cluster partitioning (`oak-cluster`) can
/// key its consistent-hash ring off the *same* bytes: a user's shard and
/// partition are then both pure functions of the user id.
pub fn shard_key(user: &str) -> u64 {
    fnv1a(user)
}

/// FNV-1a over a string — shard selection and user-hash alternative
/// selection share this.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The starting alternative index for an activation, per the rule's
/// selection policy (§4.2.4).
fn initial_alternative(rule: &Rule, user: &str) -> usize {
    match rule.policy.selection {
        crate::rule::SelectionPolicy::Linear => 0,
        crate::rule::SelectionPolicy::UserHash => {
            if rule.alternatives.is_empty() {
                0
            } else {
                (fnv1a(user) % rule.alternatives.len() as u64) as usize
            }
        }
    }
}

/// For a Type 2 rule, derives the `(old_host, new_host)` cache hint from
/// the first external reference in the default and alternative texts.
fn host_swap(default_text: &str, alternative: &str) -> Option<(String, String)> {
    let old = first_host(default_text)?;
    let new = first_host(alternative)?;
    (old != new).then_some((old, new))
}

fn first_host(text: &str) -> Option<String> {
    let doc = Document::parse(text);
    doc.external_refs().first().and_then(|r| url_host(&r.url))
}
