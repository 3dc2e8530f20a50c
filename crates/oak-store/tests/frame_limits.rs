//! What the writer accepts, some reader must load: the 64 MiB frame cap
//! binds readers of a *stream* (WAL segments, replication links), so the
//! WAL writer refuses what they would refuse, and a snapshot — a file
//! read whole — is bound only by its own length.

mod common;

use common::temp_dir;
use oak_core::engine::OakConfig;
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::Instant;
use oak_store::segment::MAX_FRAME;
use oak_store::{FsyncPolicy, OakStore, StoreOptions};

fn options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Never,
        ..StoreOptions::default()
    }
}

/// One `RuleAdded` longer than any WAL frame a reader will take: the
/// append is refused and counted instead of poisoning its segment, the
/// events after it still land, and the snapshot that follows — itself a
/// frame over 64 MiB — carries the rule across a reboot.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "walks 65 MiB a few dozen times, a minute unoptimised: `cargo test --release` runs it"
)]
fn an_oversized_rule_is_refused_by_the_wal_and_kept_by_the_snapshot() {
    let dir = temp_dir("frame-limits-rule");
    let huge = format!(
        r#"<script src="http://cdn.example/{}.js">"#,
        "x".repeat(MAX_FRAME as usize + (1 << 20))
    );
    {
        let boot = OakStore::boot(&dir, OakConfig::default(), options()).expect("boot");
        let small = Rule::remove(r#"<script src="http://small.example/a.js">"#);
        boot.oak.add_rule(small.clone()).expect("small rule");
        assert_eq!(boot.store.write_errors(), 0);
        boot.oak
            .add_rule(Rule::remove(huge.clone()))
            .expect("huge rule");
        assert_eq!(boot.store.write_errors(), 1, "the append is refused");
        boot.oak.add_rule(small).expect("small rule again");
        assert_eq!(
            boot.store.write_errors(),
            1,
            "and the segment still takes frames"
        );

        // The journal alone cannot bring the huge rule back, but loses
        // nothing else to it.
        boot.store.sync_all().expect("sync");
        let journal_only = oak_store::recover(&dir, OakConfig::default()).expect("recover");
        assert_eq!(journal_only.torn_segments, 0);
        assert_eq!(journal_only.oak.rules().count(), 2);

        boot.store.snapshot(&boot.oak).expect("snapshot");
        assert_eq!(boot.store.write_errors(), 1);
    }
    let boot = OakStore::boot(&dir, OakConfig::default(), options()).expect("reboot");
    assert!(boot.snapshot_loaded);
    assert_eq!(boot.events_replayed, 0);
    let rules: Vec<Rule> = boot.oak.rules().map(|(_, rule)| rule).collect();
    assert_eq!(rules.len(), 3);
    assert_eq!(rules[1].default_text, huge);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// 100,000 users, one 16-host report each, through the shipped store
/// options: the two newest snapshots are the two kept, and the WAL behind
/// them is compacted away, so a reboot that cannot read them has the last
/// tenth of the state to offer. As a snapshot document either was a frame
/// over 64 MiB; as a state image — an index where the document spelled
/// out a domain name per sample — it is 12 MB. Minutes in a debug build:
/// run by the nightly job, in release.
#[test]
#[ignore = "100,000 users through the store: release-only, nightly"]
fn a_hundred_thousand_users_survive_a_reboot() {
    const USERS: u64 = 100_000;
    let dir = temp_dir("frame-limits-users");
    {
        let boot = OakStore::boot(&dir, OakConfig::default(), StoreOptions::default()).unwrap();
        for user in 0..USERS {
            let mut report = PerfReport::new(format!("user-{user:06}"), "/index.html");
            for host in 0..16 {
                report.push(ObjectTiming::new(
                    format!("http://provider-{host:02}.static-assets.example/{host}.js"),
                    format!("10.0.{host}.1"),
                    30_000,
                    80.0 + host as f64,
                ));
            }
            boot.oak.ingest_report(Instant(user), &report, &NoFetch);
            boot.store.maybe_snapshot(&boot.oak).expect("snapshot");
        }
        assert_eq!(boot.store.write_errors(), 0);
        boot.store.sync_all().expect("sync");
        let kept: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap())
            .filter(|entry| entry.file_name().to_string_lossy().ends_with(".snap"))
            .map(|entry| entry.metadata().unwrap().len())
            .collect();
        assert_eq!(kept.len(), 2);
        assert!(
            kept.iter().all(|&bytes| bytes < 16 << 20),
            "a kept snapshot is {kept:?} bytes: the image grew past 16 MiB at 100,000 users"
        );
    }
    let boot = OakStore::boot(&dir, OakConfig::default(), StoreOptions::default()).unwrap();
    assert_eq!(boot.oak.user_count() as u64, USERS);
    assert_eq!(boot.oak.report_count(), USERS);
    assert_eq!(boot.oak.reports_from("user-099999"), 1);
    assert_eq!(boot.store.write_errors(), 0);
    std::fs::remove_dir_all(&dir).expect("clean up");
}
