//! Shared test harness: temp directories and a deterministic engine
//! workload that exercises every persisted event type.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use oak_core::engine::Oak;
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::{Rule, SelectionPolicy};
use oak_core::Instant;

/// A fresh, empty directory under the system temp root. Callers clean up
/// on success; a leftover directory after a failure is debugging aid, not
/// litter.
pub fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oak-store-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Hosts (and rules) the workload plays with.
pub const HOSTS: usize = 4;
/// Users the workload spreads operations over (crosses shard boundaries).
pub const USERS: usize = 6;

/// A page referencing every host, so serving exercises rewrite + expiry.
pub fn page() -> String {
    (0..HOSTS)
        .map(|h| format!(r#"<script src="http://cdn{h}.example/lib.js"></script>"#))
        .collect()
}

/// Registers one rule per host, with varied TTL / quota / selection so
/// the persisted rule format carries every field at least once.
pub fn seed_rules(oak: &Oak) {
    for h in 0..HOSTS {
        let mut rule = Rule::replace_identical(
            format!(r#"<script src="http://cdn{h}.example/lib.js">"#),
            [
                format!(r#"<script src="http://m1.example/cdn{h}/lib.js">"#),
                format!(r#"<script src="http://m2.example/cdn{h}/lib.js">"#),
            ],
        );
        if h % 2 == 0 {
            rule = rule.with_ttl_ms(Some(25));
        }
        if h % 3 == 1 {
            rule = rule
                .with_violations_required(2)
                .with_selection(SelectionPolicy::UserHash);
        }
        oak.add_rule(rule).expect("seed rule");
    }
}

/// A report in which `cdn{host}` is the clear violator.
pub fn violating_report(user: usize, host: usize) -> PerfReport {
    let mut report = PerfReport::new(format!("u-{}", user % USERS), "/p");
    report.push(ObjectTiming::new(
        format!("http://cdn{host}.example/lib.js"),
        format!("10.0.{host}.1"),
        30_000,
        900.0,
    ));
    for good in 0..4 {
        report.push(ObjectTiming::new(
            format!("http://good{good}.example/obj"),
            format!("10.1.{good}.1"),
            30_000,
            80.0 + good as f64 * 5.0,
        ));
    }
    report
}

/// A report in which every server performs alike (no violators).
pub fn benign_report(user: usize) -> PerfReport {
    let mut report = PerfReport::new(format!("u-{}", user % USERS), "/p");
    for good in 0..5 {
        report.push(ObjectTiming::new(
            format!("http://good{good}.example/obj"),
            format!("10.1.{good}.1"),
            30_000,
            80.0 + good as f64 * 3.0,
        ));
    }
    report
}

/// One workload operation: `(kind, user, host)`. Kind selects among
/// every mutation the engine can journal.
pub type Op = (usize, usize, usize);

/// Applies one operation at logical time `step * 10`.
pub fn apply_op(oak: &Oak, step: usize, op: Op) {
    let (kind, user, host) = op;
    let now = Instant(step as u64 * 10);
    let user_name = format!("u-{}", user % USERS);
    let host = host % HOSTS;
    match kind % 8 {
        // Ingest dominates the mix, as it does in production.
        0 | 1 => {
            oak.ingest_report(now, &violating_report(user, host), &NoFetch);
        }
        2 => {
            oak.ingest_report(now, &benign_report(user), &NoFetch);
        }
        3 => {
            oak.modify_page(now, &user_name, "/p", &page());
        }
        4 => {
            if let Some((id, _)) = oak.rules().nth(host) {
                oak.force_activate(now, &user_name, id);
            }
        }
        5 => {
            if let Some((id, _)) = oak.rules().nth(host) {
                oak.force_deactivate(&user_name, id);
            }
        }
        6 => {
            oak.prune_inactive_users(Instant(now.as_millis().saturating_sub(15)));
        }
        _ => {
            // Rule turnover: retire one rule and register a replacement
            // (ids are never reused, so this grows the id space).
            if let Some((id, _)) = oak.rules().nth(host) {
                oak.remove_rule(id);
            }
            oak.add_rule(Rule::remove(format!(
                r#"<script src="http://cdn{host}.example/lib.js">"#
            )))
            .expect("replacement rule");
        }
    }
}

/// A canonical byte-exact fingerprint of every durable engine
/// observable: rules, per-user activations and pending counts, the
/// activity log, aggregates, and both sequence counters.
///
/// `last_seen` is masked: page serves refresh it in memory but are not
/// journaled (a WAL write on the serve fast path would defeat it), so it
/// is deliberately outside the byte-identical recovery guarantee — which
/// covers `rules()`, `active_rules()`, `aggregates()`, and `log()`.
pub fn fingerprint(oak: &Oak) -> String {
    let mut doc = oak.snapshot_json();
    mask_last_seen(&mut doc);
    doc.to_string()
}

fn mask_last_seen(value: &mut oak_json::Value) {
    use oak_json::Value;
    match value {
        Value::Object(members) => {
            for (key, member) in members.iter_mut() {
                if key == "last_seen" {
                    *member = Value::Number(0.0);
                } else {
                    mask_last_seen(member);
                }
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                mask_last_seen(item);
            }
        }
        _ => {}
    }
}

/// The acceptance-criteria observables, rendered to comparable text:
/// `rules()` (via the spec formatter — `Rule` has no `PartialEq`),
/// `active_rules()` and `reports_from()` for every given user,
/// `aggregates()`, and `log()`.
pub fn observables(oak: &Oak, users: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (id, rule) in oak.rules() {
        writeln!(out, "rule {id:?} {}", oak_core::spec::format_rule(&rule)).unwrap();
    }
    for user in users {
        writeln!(out, "active {user} {:?}", oak.active_rules(user)).unwrap();
        writeln!(out, "reports {user} {}", oak.reports_from(user)).unwrap();
    }
    writeln!(out, "aggregates {:?}", oak.aggregates()).unwrap();
    writeln!(out, "log {:?}", oak.log()).unwrap();
    out
}

/// The user names a workload can touch.
pub fn all_users() -> Vec<String> {
    (0..USERS).map(|u| format!("u-{u}")).collect()
}

/// A small deterministic op sequence derived from a seed, for tests that
/// want variety without a strategy runner.
pub fn scripted_ops(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    (0..len)
        .map(|_| {
            let r = next();
            (
                (r % 8) as usize,
                ((r >> 8) % USERS as u64) as usize,
                ((r >> 16) % HOSTS as u64) as usize,
            )
        })
        .collect()
}
