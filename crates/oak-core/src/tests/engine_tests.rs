use std::sync::Arc;

use oak_pattern::Scope;

use super::engine_props::Journal;
use crate::engine::{LogAction, ModifiedPage, Oak, OakConfig};
use crate::events::SequencedEvent;
use crate::matching::NoFetch;
use crate::report::{DeviceClass, ObjectTiming, PerfReport};
use crate::rule::{Rule, RuleId};
use crate::time::Instant;

const JQ_DEFAULT: &str = r#"<script src="http://cdn-a.example/jquery.js">"#;
const JQ_ALT_B: &str = r#"<script src="http://cdn-b.example/jquery.js">"#;
const JQ_ALT_C: &str = r#"<script src="http://cdn-c.example/jquery.js">"#;

/// A report where `slow_host` (at `slow_ip`) is far out of family.
fn report_with_slow(user: &str, slow_host: &str, slow_ip: &str, slow_ms: f64) -> PerfReport {
    let mut r = PerfReport::new(user, "/index.html");
    r.push(ObjectTiming::new(
        format!("http://{slow_host}/jquery.js"),
        slow_ip,
        30_000,
        slow_ms,
    ));
    r.push(ObjectTiming::new(
        "http://img.example/a.png",
        "10.0.0.2",
        30_000,
        80.0,
    ));
    r.push(ObjectTiming::new(
        "http://img.example/b.png",
        "10.0.0.2",
        30_000,
        95.0,
    ));
    r.push(ObjectTiming::new(
        "http://fonts.example/f.woff",
        "10.0.0.3",
        30_000,
        70.0,
    ));
    r.push(ObjectTiming::new(
        "http://api.example/d.js",
        "10.0.0.4",
        30_000,
        90.0,
    ));
    r
}

fn engine_with_jq_rule(alternatives: &[&str]) -> (Oak, RuleId) {
    let oak = Oak::new(OakConfig::default());
    let id = oak
        .add_rule(Rule::replace_identical(JQ_DEFAULT, alternatives.to_vec()))
        .unwrap();
    (oak, id)
}

#[test]
fn violation_activates_matching_rule() {
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    let report = report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0);
    let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    assert_eq!(outcome.violations.len(), 1);
    assert_eq!(outcome.activated, vec![id]);
    assert_eq!(oak.active_rules("u-1").len(), 1);
    assert!(matches!(
        oak.log().last().unwrap().action,
        LogAction::Activated { .. }
    ));
}

/// The device class is carried, not read: the same violating report
/// under every class, each into a fresh engine journaling to one shared
/// sink, makes the same decision and emits the same events — a
/// `MidMobile` report activates its rule on the first report like any.
#[test]
fn device_class_never_changes_a_decision() {
    let journal = Arc::new(Journal::default());
    let runs: Vec<_> = DeviceClass::ALL
        .into_iter()
        .map(|device| {
            let mut oak = Oak::new(OakConfig::default());
            oak.set_event_sink(journal.clone());
            let id = oak
                .add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT_B]))
                .unwrap();
            let report =
                report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0).with_device(device);
            let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
            assert_eq!(outcome.activated, vec![id], "{device:?}");
            let events: Vec<Vec<u8>> = std::mem::take(&mut *journal.0.lock().unwrap())
                .iter()
                .map(SequencedEvent::encode)
                .collect();
            assert_eq!(events.len(), 2, "{device:?}: rule added, then ingest");
            (outcome, events)
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run, &runs[0]);
    }
}

#[test]
fn healthy_report_activates_nothing() {
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    let report = report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 85.0);
    let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    assert!(outcome.violations.is_empty());
    assert!(outcome.activated.is_empty());
    assert!(oak.active_rules("u-1").is_empty());
}

#[test]
fn unrelated_violator_does_not_activate() {
    // fonts.example violates, but no rule references it.
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    let report = report_with_slow("u-1", "unrelated.example", "10.0.0.9", 900.0);
    let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    assert_eq!(outcome.violations.len(), 1);
    assert!(outcome.activated.is_empty());
}

#[test]
fn activation_is_per_user() {
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    let report = report_with_slow("u-slow", "cdn-a.example", "10.0.0.1", 900.0);
    oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    assert_eq!(oak.active_rules("u-slow").len(), 1);
    assert!(
        oak.active_rules("u-other").is_empty(),
        "other users untouched"
    );

    let page = format!("{JQ_DEFAULT}</script>");
    let slow_page = oak.modify_page(Instant::ZERO, "u-slow", "/index.html", &page);
    let other_page = oak.modify_page(Instant::ZERO, "u-other", "/index.html", &page);
    assert!(slow_page.html.contains("cdn-b.example"));
    assert!(other_page.html.contains("cdn-a.example"));
}

#[test]
fn modify_page_rewrites_and_reports_hints() {
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.ingest_report(
        Instant::ZERO,
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    let page = format!("<html>{JQ_DEFAULT}</script></html>");
    let modified = oak.modify_page(Instant::ZERO, "u-1", "/index.html", &page);
    assert_eq!(modified.applied, vec![id]);
    assert!(modified.html.contains("cdn-b.example"));
    assert!(!modified.html.contains("cdn-a.example"));
    // Type 2 → cache hint header (§4.3).
    assert_eq!(
        modified.cache_hints,
        vec![("cdn-a.example".to_owned(), "cdn-b.example".to_owned())]
    );
    assert_eq!(
        modified.alternate_header().as_deref(),
        Some("cdn-a.example=cdn-b.example")
    );
}

#[test]
fn type1_rule_removes_text() {
    let oak = Oak::new(OakConfig::default());
    let widget = r#"<script src="http://widget.example/w.js"></script>"#;
    oak.add_rule(Rule::remove(widget)).unwrap();
    let report = report_with_slow("u-1", "widget.example", "10.0.0.1", 900.0);
    oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    let page = format!("<html>{widget}<p>content</p></html>");
    let modified = oak.modify_page(Instant::ZERO, "u-1", "/index.html", &page);
    assert_eq!(modified.html, "<html><p>content</p></html>");
    assert!(
        modified.cache_hints.is_empty(),
        "removals carry no cache hint"
    );
}

#[test]
fn scope_limits_modification() {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(
        Rule::replace_identical(JQ_DEFAULT, [JQ_ALT_B])
            .with_scope(Scope::parse("/shop/*").unwrap()),
    )
    .unwrap();
    let mut report = report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0);
    report.page = "/shop/item1".into();
    oak.ingest_report(Instant::ZERO, &report, &NoFetch);

    let page = format!("{JQ_DEFAULT}</script>");
    let in_scope = oak.modify_page(Instant::ZERO, "u-1", "/shop/item2", &page);
    let out_of_scope = oak.modify_page(Instant::ZERO, "u-1", "/about", &page);
    assert!(in_scope.html.contains("cdn-b.example"));
    assert!(out_of_scope.html.contains("cdn-a.example"));
}

#[test]
fn ttl_expires_activations() {
    let oak = Oak::new(OakConfig::default());
    let id = oak
        .add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT_B]).with_ttl_ms(Some(10_000)))
        .unwrap();
    oak.ingest_report(
        Instant::ZERO,
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    assert_eq!(oak.active_rules("u-1").len(), 1);

    let page = format!("{JQ_DEFAULT}</script>");
    let at_9s = oak.modify_page(Instant(9_000), "u-1", "/", &page);
    assert!(at_9s.html.contains("cdn-b.example"), "still active at 9 s");
    let at_11s = oak.modify_page(Instant(11_000), "u-1", "/", &page);
    assert!(at_11s.html.contains("cdn-a.example"), "expired at 11 s");
    assert!(oak.active_rules("u-1").is_empty());
    assert!(oak
        .log()
        .iter()
        .any(|e| e.rule == id && e.action == LogAction::Expired));
}

#[test]
fn violations_required_policy_defers_activation() {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT_B]).with_violations_required(3))
        .unwrap();
    let report = report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0);
    assert!(oak
        .ingest_report(Instant(0), &report, &NoFetch)
        .activated
        .is_empty());
    assert!(oak
        .ingest_report(Instant(1), &report, &NoFetch)
        .activated
        .is_empty());
    let third = oak.ingest_report(Instant(2), &report, &NoFetch);
    assert_eq!(third.activated.len(), 1, "third violation activates");
}

#[test]
fn rule_history_keeps_better_alternate() {
    // Default violated with huge severity; alternate later violates mildly.
    // History keeps the alternate: it is still closer to the median.
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.ingest_report(
        Instant(0),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 5_000.0),
        &NoFetch,
    );
    assert_eq!(oak.active_rules("u-1").len(), 1);
    let default_severity = oak.active_rules("u-1")[0].1.default_severity;

    let mild = report_with_slow("u-1", "cdn-b.example", "10.0.0.8", 230.0);
    let outcome = oak.ingest_report(Instant(1), &mild, &NoFetch);
    assert_eq!(outcome.violations.len(), 1, "alternate does violate");
    assert!(outcome.violations[0].kind.severity() < default_severity);
    assert!(outcome.deactivated.is_empty(), "alternate retained");
    assert_eq!(oak.active_rules("u-1")[0].0, id);
}

#[test]
fn rule_history_reverts_worse_alternate() {
    // Default violated mildly; alternate violates catastrophically →
    // deactivate (no further alternatives).
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.ingest_report(
        Instant(0),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 280.0),
        &NoFetch,
    );
    assert_eq!(oak.active_rules("u-1").len(), 1);

    let awful = report_with_slow("u-1", "cdn-b.example", "10.0.0.8", 9_000.0);
    let outcome = oak.ingest_report(Instant(1), &awful, &NoFetch);
    assert_eq!(outcome.deactivated.len(), 1);
    assert!(oak.active_rules("u-1").is_empty());
    assert!(oak.log().iter().any(|e| e.action == LogAction::Deactivated));
}

#[test]
fn alternatives_advance_linearly() {
    // Two alternatives: when B violates badly, advance to C (§4.2.4
    // "Oak progresses through the list linearly with each activation").
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B, JQ_ALT_C]);
    oak.ingest_report(
        Instant(0),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 280.0),
        &NoFetch,
    );
    let awful_b = report_with_slow("u-1", "cdn-b.example", "10.0.0.8", 9_000.0);
    let outcome = oak.ingest_report(Instant(1), &awful_b, &NoFetch);
    assert_eq!(outcome.advanced, vec![id]);
    assert_eq!(oak.active_rules("u-1")[0].1.alternative_index, 1);

    let page = format!("{JQ_DEFAULT}</script>");
    let modified = oak.modify_page(Instant(2), "u-1", "/", &page);
    assert!(modified.html.contains("cdn-c.example"));

    // C also violates badly → list exhausted → deactivate.
    let awful_c = report_with_slow("u-1", "cdn-c.example", "10.0.0.7", 9_000.0);
    let outcome = oak.ingest_report(Instant(3), &awful_c, &NoFetch);
    assert_eq!(outcome.deactivated, vec![id]);
}

#[test]
fn sub_rules_fire_with_parent() {
    let oak = Oak::new(OakConfig::default());
    oak.add_rule(
        Rule::replace_identical(JQ_DEFAULT, [JQ_ALT_B])
            .with_sub_rule("<!-- jq-config: a -->", "<!-- jq-config: b -->"),
    )
    .unwrap();
    oak.ingest_report(
        Instant(0),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    let page = format!("{JQ_DEFAULT}</script><!-- jq-config: a -->");
    let modified = oak.modify_page(Instant(0), "u-1", "/", &page);
    assert!(modified.html.contains("jq-config: b"));

    // A page where the parent makes no edit leaves the sub-rule dormant.
    let other_page = "<!-- jq-config: a -->".to_owned();
    let unmodified = oak.modify_page(Instant(0), "u-1", "/", &other_page);
    assert!(unmodified.html.contains("jq-config: a"));
}

#[test]
fn force_activate_and_deactivate() {
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.force_activate(Instant::ZERO, "u-x", id);
    let page = format!("{JQ_DEFAULT}</script>");
    assert!(oak
        .modify_page(Instant::ZERO, "u-x", "/", &page)
        .html
        .contains("cdn-b.example"));
    oak.force_deactivate("u-x", id);
    assert!(oak
        .modify_page(Instant::ZERO, "u-x", "/", &page)
        .html
        .contains("cdn-a.example"));
}

#[test]
fn add_rule_validates() {
    let oak = Oak::new(OakConfig::default());
    assert!(oak.add_rule(Rule::replace_identical("", ["x"])).is_err());
    assert!(oak
        .add_rule(Rule::replace_identical("abc", Vec::<String>::new()))
        .is_err());
    assert!(
        oak.add_rule(Rule::replace_identical("abc", ["xxabcxx"]))
            .is_err(),
        "alternative containing default is rejected"
    );
    let mut bad_type1 = Rule::remove("abc");
    bad_type1.alternatives.push("x".into());
    assert!(oak.add_rule(bad_type1).is_err());
}

#[test]
fn modify_page_for_unknown_user_is_identity() {
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    let page = format!("{JQ_DEFAULT}</script>");
    let out = oak.modify_page(Instant::ZERO, "nobody", "/", &page);
    assert_eq!(
        out,
        ModifiedPage {
            html: page.clone(),
            applied: vec![],
            cache_hints: vec![]
        }
    );
}

#[test]
fn log_records_the_activation_trail() {
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.ingest_report(
        Instant(5),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    let log = oak.log();
    let event = log.last().unwrap();
    assert_eq!(event.rule, id);
    assert_eq!(event.user, "u-1");
    assert_eq!(event.time, Instant(5));
    match &event.action {
        LogAction::Activated {
            violator_ip,
            severity,
        } => {
            assert_eq!(violator_ip, "10.0.0.1");
            assert!(*severity > 2.0);
        }
        other => panic!("expected activation, got {other:?}"),
    }
}

#[test]
fn multiple_rules_apply_in_one_pass() {
    let oak = Oak::new(OakConfig::default());
    let ad = r#"<iframe src="http://ads.example/banner"></iframe>"#;
    oak.add_rule(Rule::replace_identical(JQ_DEFAULT, [JQ_ALT_B]))
        .unwrap();
    oak.add_rule(Rule::remove(ad)).unwrap();

    // One report in which both cdn-a and ads.example violate.
    let mut report = PerfReport::new("u-1", "/");
    report.push(ObjectTiming::new(
        "http://cdn-a.example/jquery.js",
        "10.0.0.1",
        30_000,
        900.0,
    ));
    report.push(ObjectTiming::new(
        "http://ads.example/banner",
        "10.0.0.5",
        30_000,
        950.0,
    ));
    report.push(ObjectTiming::new(
        "http://img.example/a.png",
        "10.0.0.2",
        30_000,
        80.0,
    ));
    report.push(ObjectTiming::new(
        "http://img.example/b.png",
        "10.0.0.2",
        30_000,
        95.0,
    ));
    report.push(ObjectTiming::new(
        "http://fonts.example/f.woff",
        "10.0.0.3",
        30_000,
        70.0,
    ));
    report.push(ObjectTiming::new(
        "http://api.example/d.js",
        "10.0.0.4",
        30_000,
        90.0,
    ));
    let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    assert_eq!(outcome.activated.len(), 2);

    let page = format!("<html>{JQ_DEFAULT}</script>{ad}</html>");
    let modified = oak.modify_page(Instant::ZERO, "u-1", "/", &page);
    assert!(modified.html.contains("cdn-b.example"));
    assert!(!modified.html.contains("ads.example"));
    assert_eq!(modified.applied.len(), 2);
}

#[test]
fn remove_rule_deactivates_everywhere_and_keeps_history() {
    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.ingest_report(
        Instant(0),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    assert_eq!(oak.active_rules("u-1").len(), 1);
    let log_len = oak.log().len();

    let removed = oak.remove_rule(id).expect("rule existed");
    assert_eq!(removed.default_text, JQ_DEFAULT);
    assert!(oak.rule(id).is_none());
    assert!(oak.active_rules("u-1").is_empty());
    assert_eq!(oak.log().len(), log_len, "history preserved");
    assert!(oak.remove_rule(id).is_none(), "second removal is a no-op");

    // The page serves unmodified afterwards.
    let page = format!("{JQ_DEFAULT}</script>");
    let out = oak.modify_page(Instant(1), "u-1", "/", &page);
    assert_eq!(out.html, page);

    // New rules get fresh ids — no reuse.
    let next = oak.add_rule(Rule::remove("<!-- x -->")).unwrap();
    assert!(next.0 > id.0);
}

#[test]
fn prune_inactive_users_drops_only_stale_state() {
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    oak.ingest_report(
        Instant(1_000),
        &report_with_slow("u-old", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    oak.ingest_report(
        Instant(50_000),
        &report_with_slow("u-new", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    assert_eq!(oak.user_count(), 2);

    let pruned = oak.prune_inactive_users(Instant(10_000));
    assert_eq!(pruned, 1);
    assert_eq!(oak.user_count(), 1);
    assert!(
        oak.active_rules("u-old").is_empty(),
        "stale profile dropped"
    );
    assert_eq!(oak.active_rules("u-new").len(), 1, "fresh profile intact");
    // The log survives pruning: audit history is append-only.
    assert!(oak.log().iter().any(|e| e.user == "u-old"));

    // Serving a page refreshes last_seen, protecting the user from GC.
    oak.modify_page(Instant(100_000), "u-new", "/", "x");
    assert_eq!(oak.prune_inactive_users(Instant(60_000)), 0);
}

#[test]
fn reactivation_after_deactivation_needs_fresh_violations() {
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    // Activate, then deactivate via terrible alternate.
    oak.ingest_report(
        Instant(0),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 280.0),
        &NoFetch,
    );
    oak.ingest_report(
        Instant(1),
        &report_with_slow("u-1", "cdn-b.example", "10.0.0.8", 9_000.0),
        &NoFetch,
    );
    assert!(oak.active_rules("u-1").is_empty());
    // Default violates again → can re-activate.
    let outcome = oak.ingest_report(
        Instant(2),
        &report_with_slow("u-1", "cdn-a.example", "10.0.0.1", 900.0),
        &NoFetch,
    );
    assert_eq!(outcome.activated.len(), 1);
}

#[test]
fn concurrent_disjoint_users_keep_independent_state() {
    use std::sync::Arc;

    let oak = Arc::new(Oak::new(OakConfig::default()));
    let id = oak
        .add_rule(Rule::replace_identical(JQ_DEFAULT, vec![JQ_ALT_B]))
        .unwrap();

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let oak = Arc::clone(&oak);
            std::thread::spawn(move || {
                let user = format!("u-{t}");
                let report = report_with_slow(&user, "cdn-a.example", "10.0.0.1", 900.0);
                oak.ingest_report(Instant::ZERO, &report, &NoFetch);
                let page = format!("{JQ_DEFAULT}</script>");
                oak.modify_page(Instant::ZERO, &user, "/index.html", &page)
            })
        })
        .collect();
    for handle in handles {
        let modified = handle.join().unwrap();
        assert!(modified.html.contains("cdn-b.example"));
    }

    assert_eq!(oak.user_count(), 8);
    for t in 0..8 {
        assert_eq!(oak.active_rules(&format!("u-{t}")), oak.active_rules("u-0"));
    }
    let log = oak.log();
    let activations = log
        .iter()
        .filter(|e| matches!(e.action, LogAction::Activated { .. }))
        .count();
    assert_eq!(activations, 8, "one activation per user, none lost");
    assert!(log.iter().all(|e| e.rule == id));
    assert_eq!(oak.aggregates().report_count(), 8);
}

#[test]
fn log_merges_across_shards_in_ingestion_order() {
    // Users land on different state shards, but the merged log must
    // still read back in exact ingestion order.
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    let users = ["u-a", "u-b", "u-c", "u-d", "u-e"];
    for user in users {
        let report = report_with_slow(user, "cdn-a.example", "10.0.0.1", 900.0);
        oak.ingest_report(Instant::ZERO, &report, &NoFetch);
    }
    let logged: Vec<String> = oak.log().iter().map(|e| e.user.clone()).collect();
    assert_eq!(logged, users.map(str::to_owned).to_vec());
}

#[test]
fn aggregates_merge_is_exact_across_shards() {
    let (oak, _) = engine_with_jq_rule(&[JQ_ALT_B]);
    for t in 0..20 {
        let user = format!("agg-u{t}");
        let report = report_with_slow(&user, "cdn-a.example", "10.0.0.1", 900.0);
        oak.ingest_report(Instant::ZERO, &report, &NoFetch);
        oak.ingest_report(Instant(1), &report, &NoFetch);
    }
    let agg = oak.aggregates();
    assert_eq!(agg.report_count(), 40);
    assert_eq!(agg.user_count(), 20);
    let img = agg.domain("img.example").expect("seen in every report");
    assert_eq!(img.users_seen, 20, "per-shard user sets are disjoint");
    // 2 png objects x 2 reports x 20 users.
    assert_eq!(img.small_time_ms.count, 80);
}

/// The report path's allocation budget, for the shape of a median page:
/// 40 objects from 12 servers under 13 names (one server answers to
/// two), objects of one server scattered through the report, one server
/// slow enough to be flagged — sent by a user the engine already knows,
/// whose rule is already active (the steady state).
#[test]
fn report_path_stays_within_its_allocation_budget() {
    use super::allocs_during;

    const ENTRIES: u64 = 40;
    const SERVERS: u64 = 12;
    let mut report = PerfReport::new("u-budget", "/index.html");
    for i in 0..ENTRIES {
        let server = i % SERVERS;
        let host = match (server, i / SERVERS) {
            (0, _) => "cdn-a.example".to_owned(),
            (1, 1) => "alias.host1.example".to_owned(),
            _ => format!("host{server}.example"),
        };
        let time = if server == 0 {
            900.0
        } else {
            80.0 + server as f64
        };
        report.push(ObjectTiming::new(
            format!("http://{host}/object-{i}.js"),
            format!("10.0.0.{server}"),
            if i % 7 == 3 { 120_000 } else { 30_000 },
            time,
        ));
    }
    let body = report.to_json();

    let (decoded, decode_allocs) = allocs_during(|| PerfReport::from_json(&body));
    let decoded = decoded.expect("own encoding decodes");
    assert_eq!(decoded, report);
    // The `url` and the `ip` of each entry; the slack is `user`, `page`
    // and the entry vector growing.
    assert!(
        decode_allocs <= 2 * ENTRIES + 8,
        "from_json made {decode_allocs} allocations"
    );
    // Decoded where it lies, either format allocates the entry vector
    // and nothing else.
    let (borrowed, json_allocs) = allocs_during(|| PerfReport::decode_json(body.as_bytes()));
    let frame = report.to_binary();
    let (from_frame, binary_allocs) = allocs_during(|| crate::wire::decode(&frame));
    assert_eq!(
        (json_allocs, binary_allocs),
        (1, 1),
        "decode_json and wire::decode allocations"
    );
    let borrowed = borrowed.expect("own encoding decodes");
    assert_eq!(borrowed.clone().into_owned(), report);
    assert_eq!(from_frame.expect("own frame decodes"), borrowed);

    let (oak, id) = engine_with_jq_rule(&[JQ_ALT_B]);
    let first = oak.ingest_report(Instant::ZERO, &decoded, &NoFetch);
    assert_eq!(first.activated, [id]);
    let (outcome, ingest_allocs) =
        allocs_during(|| oak.ingest_report(Instant(1), &decoded, &NoFetch));
    let (_, borrowed_ingest_allocs) =
        allocs_during(|| oak.ingest_report(Instant(2), &borrowed, &NoFetch));
    assert_eq!(outcome.violations.len(), 1);
    assert_eq!(
        outcome.violations[0].domains,
        ["cdn-a.example"],
        "{outcome:?}"
    );
    let violators = outcome.violations.len() as u64;
    for allocs in [ingest_allocs, borrowed_ingest_allocs] {
        assert!(
            allocs <= 4 * SERVERS + 4 * violators + 8,
            "ingest_report made {allocs} allocations"
        );
    }
}
