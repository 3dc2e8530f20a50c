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
//! - the **state** — every user's activations, pending counts and GC
//!   clock, the activity log and the site aggregates — sits behind one
//!   `Mutex`. Striping it over sixteen locks never measured faster on
//!   any workload, so it is one (DESIGN.md §7).
//!
//! Lock order is rule table before state; no method acquires them in the
//! other order, so the engine cannot deadlock against itself.
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

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use oak_html::{Document, Rewriter};
use oak_json::Value;

use crate::detect::{detect_violators, DetectorConfig, Violation};
use crate::events::{EngineEvent, EventSink, IngestEffect, IngestParts, SequencedEvent};
use crate::matching::{url_host, MatchLevel, RuleSurface, ScriptFetcher};
use crate::report::PerfReport;
use crate::rule::{Rule, RuleId, RuleType};
use crate::time::Instant;
use crate::{analysis::PageAnalysis, OAK_ALTERNATE_HEADER};

mod image;

pub use image::{STATE_IMAGE_V2, STATE_IMAGE_V3, STATE_IMAGE_VERSION};

/// Engine-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct OakConfig {
    /// Violator-detection parameters (§4.2.1).
    pub detector: DetectorConfig,
    /// How deep connection-dependency matching may look (§4.2.2).
    /// [`MatchLevel::ExternalJs`] — the full mechanism — by default;
    /// lower settings exist for the Fig. 8 ablation.
    pub max_match_level: MatchLevel,
}

impl Default for OakConfig {
    fn default() -> OakConfig {
        OakConfig {
            detector: DetectorConfig::default(),
            max_match_level: MatchLevel::ExternalJs,
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
    /// Reports ingested for this user since its state was created: a
    /// prune drops it with the rest.
    reports: u64,
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

/// The activity log's budget, in encoded bytes: the engine keeps the
/// latest records whose sizes in the state image sum to at most this,
/// and drops the oldest as new ones arrive. A record's user and violator
/// IP are client strings, so a count would bound nothing; 4 MiB holds
/// about 79,000 records of a typical 53 bytes.
pub const LOG_BYTES: usize = 4 << 20;

/// Everything user-keyed, with the activity log and the site aggregates:
/// what the engine's one state lock guards.
#[derive(Debug, Default)]
struct State {
    users: HashMap<String, UserState>,
    /// `(sequence, event)`, ascending: the window of the activity log,
    /// at most [`LOG_BYTES`] of records once a record has trimmed it.
    log: VecDeque<(u64, LogEvent)>,
    /// The encoded size of `log`'s records.
    log_bytes: usize,
    /// The sequence number the next log record gets.
    log_seq: u64,
    aggregates: crate::aggregates::SiteAggregates,
}

impl State {
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

    /// Forgets `users`, their report counts included (the activity log
    /// keeps their records, and the aggregates their folds).
    fn prune(&mut self, users: &[String]) {
        for user in users {
            self.users.remove(user);
        }
    }

    /// Appends a record to the log, then drops the oldest records while
    /// the window is over [`LOG_BYTES`] — a record larger than the budget
    /// drops itself. The window is a function of the records applied, so
    /// replay and a follower's install trim alike.
    fn push_log(&mut self, seq: u64, entry: LogEvent) {
        self.log_seq = self.log_seq.max(seq + 1);
        self.log_bytes += entry.record_len();
        self.log.push_back((seq, entry));
        while self.log_bytes > LOG_BYTES {
            let (_, oldest) = self.log.pop_front().expect("an over-budget log");
            self.log_bytes -= oldest.record_len();
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
    state: Mutex<State>,
    /// Allocates the sequence numbers that order emitted [`EngineEvent`]s
    /// (allocated under the emitting operation's locks, so sequence order
    /// is application order wherever it matters).
    event_seq: AtomicU64,
    /// Replication epoch stamped on every emitted event (see
    /// [`Oak::set_epoch`]); 0 outside a cluster.
    epoch: AtomicU64,
    sink: Option<Arc<dyn EventSink>>,
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
            .field("state", &self.state)
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
            state: Mutex::new(State::default()),
            event_seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            sink: None,
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
    fn emit_with(&self, build: impl FnOnce() -> EngineEvent) {
        if let Some(sink) = &self.sink {
            let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
            sink.record(
                None,
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

    /// The state lock.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("state lock")
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
        self.emit_with(|| EngineEvent::RuleAdded {
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
        self.emit_with(|| EngineEvent::RuleRemoved { id });
        Some(rule)
    }

    /// Drops rule `id` from the table and from every user's state.
    fn apply_rule_removed(&self, table: &mut RuleTable, id: RuleId) -> Option<Rule> {
        let rule = table.remove(id)?;
        for user in self.state().users.values_mut() {
            user.active.remove(&id);
            user.pending.remove(&id);
        }
        Some(rule)
    }

    /// The rules currently active for `user`, with their state.
    pub fn active_rules(&self, user: &str) -> Vec<(RuleId, ActiveRule)> {
        self.state()
            .users
            .get(user)
            .map(|u| u.active.iter().map(|(id, a)| (*id, a.clone())).collect())
            .unwrap_or_default()
    }

    /// The activity log's window, in global event order: the latest
    /// records, at most [`LOG_BYTES`] of them as the state image encodes
    /// them. With a store attached, older records stay in its write-ahead
    /// log until compaction.
    pub fn log(&self) -> Vec<LogEvent> {
        let state = self.state();
        state.log.iter().map(|(_, event)| event.clone()).collect()
    }

    /// The encoded size of [`Oak::log`]'s records: at most [`LOG_BYTES`],
    /// unless an image an older build wrote loaded a larger window and no
    /// record has trimmed it since.
    pub fn log_bytes(&self) -> usize {
        self.state().log_bytes
    }

    /// Users that have submitted at least one report or been force-toggled.
    pub fn user_count(&self) -> usize {
        self.state().users.len()
    }

    /// Aggregate site performance across every ingested report — the §5
    /// "aggregate site performance" record, rule-independent. A copy, at
    /// a cost of the domain rows (at most
    /// [`crate::aggregates::SiteAggregates::MAX_ROWS`]), never of the
    /// users seen.
    pub fn aggregates(&self) -> crate::aggregates::SiteAggregates {
        self.state().aggregates.clone()
    }

    /// Reports folded into the aggregates: [`Oak::aggregates`]'s
    /// `report_count`, without copying a row.
    pub fn report_count(&self) -> u64 {
        self.state().aggregates.report_count()
    }

    /// Reports ingested for `user` since its state was created: 0 for a
    /// user the engine does not hold, never reported for, or has pruned.
    pub fn reports_from(&self, user: &str) -> u64 {
        self.state()
            .users
            .get(user)
            .map_or(0, |state| state.reports)
    }

    /// Drops per-user state not touched since `cutoff`; returns how many
    /// users were pruned. Production hygiene: the paper's per-user
    /// profiles are long-lived but not immortal — a profile whose cookie
    /// will never return (crawler, cleared cookies) must not hold memory
    /// forever. A pruned user's report count goes with its state; the
    /// activity log keeps its records, and the aggregates what it added
    /// to their totals and sketches.
    pub fn prune_inactive_users(&self, cutoff: Instant) -> usize {
        let mut state = self.state();
        let mut stale: Vec<String> = state
            .users
            .iter()
            .filter(|(_, user)| user.last_seen < cutoff)
            .map(|(user, _)| user.clone())
            .collect();
        let pruned = stale.len();
        if !stale.is_empty() {
            // Sorted so the durable event (and replay) is independent of
            // HashMap iteration order.
            stale.sort_unstable();
            state.prune(&stale);
            self.emit_with(|| EngineEvent::Pruned { users: stale });
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
        let violations = detect_violators(&analysis, &self.config.detector);
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

        let mut guard = self.state();

        // Decide against the state as it stands; nothing is written until
        // the whole effect is known.
        let mut next_seq = guard.log_seq;
        let state = guard.users.get(user);
        let mut records: Vec<(u64, LogEvent)> = Vec::new();
        let mut record = |rule: RuleId, action: LogAction| {
            let entry = LogEvent {
                time: now,
                user: user.to_owned(),
                rule,
                action,
            };
            records.push((next_seq, entry));
            next_seq += 1;
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
        // Written once, straight from the analysis: live and replayed
        // folds read the same bytes, so they add bit-identical floats.
        let effect =
            IngestEffect::from_analysis(now, user, &analysis, &violations, &pending, &records);

        // Apply — through the function replay uses — then emit.
        self.apply_ingest(&table, &mut guard, effect.parts());
        let mut outcome = IngestOutcome {
            violations,
            ..IngestOutcome::default()
        };
        for (_, entry) in &records {
            match entry.action {
                LogAction::Activated { .. } => outcome.activated.push(entry.rule),
                LogAction::Advanced { .. } => outcome.advanced.push(entry.rule),
                LogAction::Deactivated => outcome.deactivated.push(entry.rule),
                LogAction::Expired => outcome.expired.push(entry.rule),
            }
        }
        self.emit_with(|| EngineEvent::Ingest(effect));
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
        let mut guard = self.state();
        let expired: Vec<(u64, RuleId)> = (guard.log_seq..)
            .zip(expired_rules(&table, guard.users.get(user), now))
            .collect();
        if !expired.is_empty() {
            // Serving is otherwise read-only; TTL expiry is the one page
            // path that mutates durable state, so it gets its own event.
            self.apply_serve_expiry(&table, &mut guard, now, user, &expired);
            self.emit_with(|| EngineEvent::ServeExpiry {
                time: now,
                user: user.to_owned(),
                expired,
            });
        }
        let Some(state) = guard.users.get_mut(user) else {
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
        let mut state = self.state();
        state.force_activate(now, user, rule_id, rule);
        self.emit_with(|| EngineEvent::ForceActivate {
            time: now,
            user: user.to_owned(),
            rule: rule_id,
        });
    }

    /// Deactivates a rule for a user (no log entry; operator action).
    pub fn force_deactivate(&self, user: &str, rule_id: RuleId) {
        let mut state = self.state();
        if state.force_deactivate(user, rule_id) {
            self.emit_with(|| EngineEvent::ForceDeactivate {
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
                let parts = effect.parts();
                let table = self.rules.read().expect("rule table lock");
                self.apply_ingest(&table, &mut self.state(), parts);
            }
            EngineEvent::ForceActivate { time, user, rule } => {
                let table = self.rules.read().expect("rule table lock");
                if let Some(r) = table.rules.get(rule) {
                    self.state().force_activate(*time, user, *rule, r);
                }
            }
            EngineEvent::ForceDeactivate { user, rule } => {
                self.state().force_deactivate(user, *rule);
            }
            EngineEvent::ServeExpiry {
                time,
                user,
                expired,
            } => {
                let table = self.rules.read().expect("rule table lock");
                self.apply_serve_expiry(&table, &mut self.state(), *time, user, expired);
            }
            EngineEvent::Pruned { users } => self.state().prune(users),
        }
    }

    /// Applies one ingest's effect to the state: the aggregate
    /// folds, the pending-violation counts, and every log record with
    /// the state transition it implies — read in place from the effect's
    /// bytes. Live ingest calls this with the effect it has just decided
    /// on; replay with the one it decoded.
    fn apply_ingest(&self, table: &RuleTable, state: &mut State, mut parts: IngestParts<'_>) {
        state
            .aggregates
            .fold(parts.user, &mut parts.folds, &self.interner);
        let (pending, records) = parts.folds.rest();
        // No key allocation for a returning user.
        if !state.users.contains_key(parts.user) {
            state
                .users
                .insert(parts.user.to_owned(), UserState::default());
        }
        let user = state.users.get_mut(parts.user).expect("just inserted");
        user.last_seen = parts.time;
        user.reports += 1;
        for id in pending {
            *user.pending.entry(id).or_insert(0) += 1;
        }
        for (seq, entry) in records {
            apply_record(table, state, seq, entry);
        }
    }

    /// Applies the TTL expiries a page serve found (see
    /// [`EngineEvent::ServeExpiry`]).
    fn apply_serve_expiry(
        &self,
        table: &RuleTable,
        state: &mut State,
        time: Instant,
        user: &str,
        expired: &[(u64, RuleId)],
    ) {
        if let Some(user) = state.users.get_mut(user) {
            user.last_seen = time;
        }
        for (seq, rule) in expired {
            let entry = LogEvent {
                time,
                user: user.to_owned(),
                rule: *rule,
                action: LogAction::Expired,
            };
            apply_record(table, state, *seq, entry);
        }
    }

    /// A consistent point-in-time dump of the full engine state as a JSON
    /// document: the one human-readable form, which oracles and tests
    /// compare engines through. Nothing parses it back — what is stored
    /// and shipped is the state image ([`Oak::state_image`]), which
    /// carries the same fields.
    ///
    /// Takes the rule-table read lock and then the state lock (the
    /// engine's lock order), so mutations are quiesced for the duration
    /// and the cut is exact: every event with a sequence number below the
    /// recorded `event_seq` watermark is reflected, every later one is
    /// not.
    pub fn snapshot_json(&self) -> Value {
        let table = self.rules.read().expect("rule table lock");
        let state = self.state();

        let mut doc = Value::object();
        doc.set("version", 1u64);
        doc.set("next_rule_id", u64::from(table.next_rule_id));
        doc.set("log_seq", state.log_seq);
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

        let mut user_rows = Value::array();
        for (name, user) in sorted_users(&state) {
            user_rows.push(user_row(name, user));
        }
        doc.set("users", user_rows);
        let mut log_rows = Value::array();
        for (seq, entry) in &state.log {
            log_rows.push(log_row(*seq, entry));
        }
        doc.set("log", log_rows);
        doc.set("aggregates", state.aggregates.to_value());
        doc
    }
}

/// One `rules` row of the snapshot document.
fn rule_row(id: RuleId, rule: &Rule) -> Value {
    let mut row = Value::object();
    row.set("id", u64::from(id.0));
    row.set("spec", crate::spec::format_rule(rule));
    row
}

/// The users in the order the snapshot document and the image list them.
fn sorted_users(state: &State) -> Vec<(&String, &UserState)> {
    let mut users: Vec<(&String, &UserState)> = state.users.iter().collect();
    users.sort_by_key(|(name, _)| *name);
    users
}

/// One `users` row of the snapshot document.
fn user_row(name: &str, state: &UserState) -> Value {
    let mut row = Value::object();
    row.set("user", name);
    row.set("last_seen", state.last_seen.as_millis());
    row.set("reports", state.reports);
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

/// One `log` row of the snapshot document.
fn log_row(seq: u64, entry: &LogEvent) -> Value {
    let mut row = entry.to_value();
    row.set("seq", seq);
    row
}

/// Monotonically raises an atomic counter to at least `target`.
fn bump_to(counter: &AtomicU64, target: u64) {
    counter.fetch_max(target, Ordering::Relaxed);
}

/// The one place an activation, advance, deactivation or expiry changes
/// a user's state and enters the activity log: the change is read off the
/// record, so the two cannot disagree. A record for a user the engine no
/// longer holds is logged all the same.
fn apply_record(table: &RuleTable, state: &mut State, seq: u64, entry: LogEvent) {
    if let Some(user) = state.users.get_mut(&entry.user) {
        match &entry.action {
            LogAction::Activated { severity, .. } => {
                user.pending.remove(&entry.rule);
                if let Some(rule) = table.rules.get(&entry.rule) {
                    user.active.insert(
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
                if let Some(active) = user.active.get_mut(&entry.rule) {
                    active.alternative_index = *to_index;
                    active.alternatives_tried += 1;
                }
            }
            LogAction::Deactivated | LogAction::Expired => {
                user.active.remove(&entry.rule);
            }
        }
    }
    state.push_log(seq, entry);
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

/// FNV-1a over a string — user-hash alternative selection and the
/// aggregates' user sketch share this.
pub(crate) fn fnv1a(s: &str) -> u64 {
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
