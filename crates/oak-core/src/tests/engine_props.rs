//! Property tests for engine-wide invariants.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use crate::engine::{Oak, OakConfig};
use crate::events::{EventSink, SequencedEvent};
use crate::matching::NoFetch;
use crate::report::{ObjectTiming, PerfReport};
use crate::rule::{Rule, SelectionPolicy};
use crate::time::Instant;

/// Strategy: a syntactically valid report with 0–10 entries over a small
/// pool of hosts and IPs.
fn report_strategy() -> impl Strategy<Value = PerfReport> {
    let entry = (
        0usize..8,       // host index
        0usize..8,       // ip index
        0u64..300_000,   // bytes
        0.0f64..5_000.0, // time
    );
    ("[a-z]{1,6}", prop::collection::vec(entry, 0..10)).prop_map(|(user, entries)| {
        let mut report = PerfReport::new(format!("u-{user}"), "/p");
        for (h, ip, bytes, time) in entries {
            report.push(ObjectTiming::new(
                format!("http://host{h}.example/obj"),
                format!("10.0.0.{ip}"),
                bytes,
                time,
            ));
        }
        report
    })
}

fn engine_with_rules() -> Oak {
    let oak = Oak::new(OakConfig::default());
    for h in 0..8 {
        oak.add_rule(Rule::replace_identical(
            format!("http://host{h}.example/"),
            [
                format!("http://m1.example/host{h}.example/"),
                format!("http://m2.example/host{h}.example/"),
            ],
        ))
        .unwrap();
    }
    oak
}

/// One step of a random engine history. Indices are taken modulo what
/// exists when the step runs.
#[derive(Clone, Debug)]
pub(super) enum Op {
    AddRule {
        host: usize,
        ttl_ms: Option<u64>,
        violations_required: u32,
        user_hash: bool,
    },
    RemoveRule {
        nth: usize,
    },
    /// A report whose slow server is `cdn{slow}`, one of the two mirrors
    /// the rules rewrite to (so active alternates violate too), or —
    /// past those — nobody.
    Ingest {
        user: usize,
        slow: usize,
    },
    Serve {
        user: usize,
    },
    Tick {
        ms: u64,
    },
    ForceActivate {
        user: usize,
        nth: usize,
    },
    ForceDeactivate {
        user: usize,
        nth: usize,
    },
    Prune {
        idle_ms: u64,
    },
}

/// Few hosts and few users, so that histories revisit the same (user,
/// rule) pair often enough to walk it through pending → active →
/// advanced → deactivated or expired.
const OP_HOSTS: usize = 2;
const OP_USERS: usize = 3;

pub(super) fn op_strategy() -> impl Strategy<Value = Op> {
    let rule = (
        0..OP_HOSTS,
        prop::option::of(1u64..60),
        1u32..4,
        any::<bool>(),
    );
    let ingest =
        || (0..OP_USERS, 0..OP_HOSTS + 3).prop_map(|(user, slow)| Op::Ingest { user, slow });
    prop_oneof![
        rule.prop_map(
            |(host, ttl_ms, violations_required, user_hash)| Op::AddRule {
                host,
                ttl_ms,
                violations_required,
                user_hash,
            }
        ),
        (0usize..8).prop_map(|nth| Op::RemoveRule { nth }),
        ingest(),
        ingest(),
        ingest(),
        ingest(),
        ingest(),
        ingest(),
        (0..OP_USERS).prop_map(|user| Op::Serve { user }),
        (0u64..20).prop_map(|ms| Op::Tick { ms }),
        (0..OP_USERS, 0usize..8).prop_map(|(user, nth)| Op::ForceActivate { user, nth }),
        (0..OP_USERS, 0usize..8).prop_map(|(user, nth)| Op::ForceDeactivate { user, nth }),
        (0u64..60).prop_map(|idle_ms| Op::Prune { idle_ms }),
    ]
}

/// Runs `ops` against `oak` from time zero.
pub(super) fn run_ops(oak: &Oak, ops: &[Op]) {
    let user_name = |user: usize| format!("u-{user}");
    let nth_rule = |nth: usize| {
        let ids: Vec<_> = oak.rules().map(|(id, _)| id).collect();
        (!ids.is_empty()).then(|| ids[nth % ids.len()])
    };
    let page: String = (0..OP_HOSTS)
        .map(|h| format!(r#"<script src="http://cdn{h}.example/lib.js"></script>"#))
        .collect();
    let mut now = Instant::ZERO;
    for op in ops {
        match *op {
            Op::AddRule {
                host,
                ttl_ms,
                violations_required,
                user_hash,
            } => {
                let mut rule = Rule::replace_identical(
                    format!(r#"<script src="http://cdn{host}.example/lib.js">"#),
                    [
                        format!(r#"<script src="http://m1.example/c{host}/lib.js">"#),
                        format!(r#"<script src="http://m2.example/c{host}/lib.js">"#),
                    ],
                )
                .with_ttl_ms(ttl_ms)
                .with_violations_required(violations_required);
                if user_hash {
                    rule = rule.with_selection(SelectionPolicy::UserHash);
                }
                oak.add_rule(rule).unwrap();
            }
            Op::RemoveRule { nth } => {
                if let Some(id) = nth_rule(nth) {
                    oak.remove_rule(id);
                }
            }
            Op::Ingest { user, slow } => {
                let slow_host = match slow.checked_sub(OP_HOSTS) {
                    None => format!("cdn{slow}.example"),
                    Some(mirror @ 0..=1) => format!("m{}.example", mirror + 1),
                    Some(_) => "good9.example".to_owned(),
                };
                let mut report = PerfReport::new(user_name(user), "/p");
                let slow_ms = if slow < OP_HOSTS + 2 { 900.0 } else { 85.0 };
                report.push(ObjectTiming::new(
                    format!("http://{slow_host}/lib.js"),
                    "10.0.0.1",
                    30_000,
                    slow_ms,
                ));
                for good in 0..4 {
                    report.push(ObjectTiming::new(
                        format!("http://good{good}.example/obj"),
                        format!("10.1.{good}.1"),
                        30_000,
                        80.0 + good as f64 * 5.0,
                    ));
                }
                oak.ingest_report(now, &report, &NoFetch);
            }
            Op::Serve { user } => {
                oak.modify_page(now, &user_name(user), "/p", &page);
            }
            Op::Tick { ms } => now = Instant(now.as_millis() + ms),
            Op::ForceActivate { user, nth } => {
                if let Some(id) = nth_rule(nth) {
                    oak.force_activate(now, &user_name(user), id);
                }
            }
            Op::ForceDeactivate { user, nth } => {
                if let Some(id) = nth_rule(nth) {
                    oak.force_deactivate(&user_name(user), id);
                }
            }
            Op::Prune { idle_ms } => {
                oak.prune_inactive_users(Instant(now.as_millis().saturating_sub(idle_ms)));
            }
        }
    }
}

/// The snapshot text with every value under a key in `masked` zeroed.
fn snapshot_without(oak: &Oak, masked: &[&str]) -> String {
    let mut text = oak.snapshot_json().to_string();
    for key in masked {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = text[from..].find(&needle) {
            let start = from + at + needle.len();
            let digits = text[start..].bytes().take_while(u8::is_ascii_digit).count();
            text.replace_range(start..start + digits, "0");
            from = start;
        }
    }
    text
}

#[derive(Default)]
pub(super) struct Journal(Mutex<Vec<SequencedEvent>>);

impl EventSink for Journal {
    fn record(&self, _shard: Option<usize>, event: &SequencedEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One writer: whatever a history does to a journaling engine,
    /// replaying its journal onto a fresh engine rebuilds the same
    /// snapshot — bar `last_seen`, which serves refresh without an event —
    /// and the same history on an engine with no sink at all reaches that
    /// state too (it allocates no event sequence numbers, nothing else
    /// differs).
    #[test]
    fn live_replayed_and_sinkless_engines_agree(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let journal = Arc::new(Journal::default());
        let mut journaled = Oak::new(OakConfig::default());
        journaled.set_event_sink(journal.clone());
        run_ops(&journaled, &ops);

        let replayed = Oak::new(OakConfig::default());
        for event in journal.0.lock().unwrap().iter() {
            replayed.apply_event(event);
        }
        prop_assert_eq!(
            snapshot_without(&journaled, &["last_seen"]),
            snapshot_without(&replayed, &["last_seen"])
        );

        let sinkless = Oak::new(OakConfig::default());
        run_ops(&sinkless, &ops);
        prop_assert_eq!(
            snapshot_without(&journaled, &["event_seq"]),
            snapshot_without(&sinkless, &["event_seq"])
        );
    }

    /// Ingest and modify never panic, whatever the reports contain, and
    /// the activity log only ever grows.
    #[test]
    fn engine_is_total_under_arbitrary_reports(
        reports in prop::collection::vec(report_strategy(), 1..20),
    ) {
        let oak = engine_with_rules();
        let mut last_log = 0;
        for (i, report) in reports.iter().enumerate() {
            oak.ingest_report(Instant(i as u64), report, &NoFetch);
            prop_assert!(oak.log().len() >= last_log);
            last_log = oak.log().len();
            let page = oak.modify_page(
                Instant(i as u64),
                &report.user,
                "/p",
                r#"<img src="http://host0.example/x.png">"#,
            );
            prop_assert!(page.html.contains("<img"));
        }
    }

    /// Per-user isolation: whatever user A reports, user B's active rules
    /// and pages are untouched.
    #[test]
    fn users_never_interfere(reports in prop::collection::vec(report_strategy(), 1..16)) {
        let oak = engine_with_rules();
        let bystander = "u-bystander";
        let page = r#"<script src="http://host1.example/a.js"></script>"#;
        let before = oak.modify_page(Instant::ZERO, bystander, "/p", page);
        for (i, report) in reports.iter().enumerate() {
            prop_assume!(report.user != bystander);
            oak.ingest_report(Instant(i as u64), report, &NoFetch);
        }
        prop_assert!(oak.active_rules(bystander).is_empty());
        let after = oak.modify_page(Instant(99_999), bystander, "/p", page);
        prop_assert_eq!(before.html, after.html);
    }

    /// Rewriting is idempotent: applying a user's rules to an
    /// already-rewritten page changes nothing further (replacement rules
    /// validate that alternatives do not contain the default text).
    #[test]
    fn modification_is_idempotent(reports in prop::collection::vec(report_strategy(), 1..8)) {
        let oak = engine_with_rules();
        for (i, report) in reports.iter().enumerate() {
            oak.ingest_report(Instant(i as u64), report, &NoFetch);
        }
        let page = (0..8)
            .map(|h| format!(r#"<img src="http://host{h}.example/pic.png">"#))
            .collect::<Vec<_>>()
            .join("\n");
        for report in reports {
            let once = oak.modify_page(Instant(50), &report.user, "/p", &page);
            let twice = oak.modify_page(Instant(50), &report.user, "/p", &once.html);
            prop_assert_eq!(&once.html, &twice.html);
            prop_assert!(twice.applied.is_empty(), "second pass must make no edits");
        }
    }

    /// The engine's outcome lists are consistent with its state: newly
    /// activated rules are active afterwards, deactivated ones are not.
    #[test]
    fn outcome_matches_state(report in report_strategy()) {
        let oak = engine_with_rules();
        let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
        let active: Vec<_> = oak.active_rules(&report.user).iter().map(|(id, _)| *id).collect();
        for id in &outcome.activated {
            prop_assert!(active.contains(id));
        }
        for id in &outcome.deactivated {
            prop_assert!(!active.contains(id));
        }
    }
}
