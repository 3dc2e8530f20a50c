use std::collections::{BTreeMap, BTreeSet};

use crate::aggregates::{RunningStat, SiteAggregates, UserSketch};
use crate::analysis::PageAnalysis;
use crate::detect::{Violation, ViolationKind};
use crate::events::IngestEffect;
use crate::intern::Interner;
use crate::report::{ObjectTiming, PerfReport};

#[test]
fn running_stat_tracks_mean_min_max() {
    let mut s = RunningStat::default();
    assert_eq!(s.mean(), None);
    s.push(10.0);
    s.push(30.0);
    s.push(20.0);
    assert_eq!(s.count, 3);
    assert_eq!(s.mean(), Some(20.0));
    assert_eq!(s.min, 10.0);
    assert_eq!(s.max, 30.0);
}

fn report(user: &str, slow: bool) -> PerfReport {
    let mut r = PerfReport::new(user, "/");
    r.push(ObjectTiming::new(
        "http://cdn.example/a.js",
        "10.0.0.1",
        10_000,
        if slow { 900.0 } else { 90.0 },
    ));
    r.push(ObjectTiming::new(
        "http://cdn.example/big.bin",
        "10.0.0.1",
        200_000,
        400.0,
    ));
    r.push(ObjectTiming::new(
        "http://img.example/b.png",
        "10.0.0.2",
        10_000,
        80.0,
    ));
    r
}

/// Folds one report the way the engine does, `violators` flagged.
fn fold(agg: &mut SiteAggregates, report: &PerfReport, violators: &[Violation]) {
    let analysis = PageAnalysis::from_report(report);
    let effect = IngestEffect::from_analysis(
        crate::Instant::ZERO,
        &report.user,
        &analysis,
        violators,
        &[],
        &[],
    );
    agg.fold(effect.user(), effect.folds(), &Interner::new());
}

#[test]
fn fold_accumulates_per_domain() {
    let mut agg = SiteAggregates::default();
    fold(&mut agg, &report("u-1", false), &[]);
    fold(&mut agg, &report("u-2", false), &[]);
    assert_eq!(agg.report_count(), 2);
    assert_eq!(agg.users_seen(), 2);

    let cdn = agg.domain("cdn.example").unwrap();
    assert_eq!(cdn.objects, 4, "two objects per report");
    assert_eq!(cdn.bytes, 2 * 210_000);
    assert_eq!(cdn.small_time_ms.count, 2);
    assert_eq!(cdn.large_tput_kbps.count, 2);
    assert_eq!(cdn.users_seen(), 2);
    assert_eq!(cdn.violations, 0);
    assert!(agg.domain("img.example").is_some());
    assert!(agg.domain("missing.example").is_none());
}

#[test]
fn violations_attribute_to_the_flagged_ip() {
    let mut agg = SiteAggregates::default();
    let flagged = Violation {
        ip: "10.0.0.1".to_owned(),
        domains: vec!["cdn.example".to_owned()],
        kind: ViolationKind::SlowSmallObjects {
            observed_ms: 900.0,
            median_ms: 85.0,
            deviation_ms: 5.0,
        },
    };
    fold(&mut agg, &report("u-1", true), &[flagged]);
    assert_eq!(agg.domain("cdn.example").unwrap().violations, 1);
    assert_eq!(agg.domain("img.example").unwrap().violations, 0);
    let worst = agg.worst_domains();
    assert_eq!(worst[0].0, "cdn.example");
}

/// A body decoded from a journal may spell a domain in any case — the
/// engine's own are lowercase — and folding it files the domain under
/// that spelling, without touching the lowercase one or failing.
#[test]
fn a_domain_is_filed_under_its_spelling() {
    use crate::events::Fold;

    let interner = Interner::new();
    let mut agg = SiteAggregates::default();
    for domain in ["cdn.example", "CDN.Example", "cdn.example"] {
        let fold = Fold {
            domains: &[domain],
            objects: 1,
            bytes: 10_000,
            small_times_ms: &[80.0],
            large_tputs_kbps: &[],
            violated: false,
        };
        let effect =
            IngestEffect::from_parts(crate::Instant::ZERO, "u-1", std::iter::once(fold), &[], &[]);
        agg.fold(effect.user(), effect.folds(), &interner);
    }
    assert_eq!(agg.domain("cdn.example").unwrap().objects, 2);
    assert_eq!(agg.domain("CDN.Example").unwrap().objects, 1);
    assert_eq!(agg.domain("CDN.Example").unwrap().users_seen(), 1);
}

#[test]
fn repeat_users_counted_once_per_domain() {
    let mut agg = SiteAggregates::default();
    for _ in 0..5 {
        fold(&mut agg, &report("u-same", false), &[]);
    }
    assert_eq!(agg.users_seen(), 1);
    assert_eq!(agg.domain("cdn.example").unwrap().users_seen(), 1);
}

#[test]
fn engine_exposes_aggregates() {
    use crate::engine::{Oak, OakConfig};
    use crate::matching::NoFetch;
    use crate::Instant;

    let oak = Oak::new(OakConfig::default());
    // Five servers so detection runs; one egregious outlier.
    let mut r = PerfReport::new("u-1", "/");
    r.push(ObjectTiming::new(
        "http://slow.example/x",
        "10.0.0.1",
        10_000,
        900.0,
    ));
    for i in 2..6 {
        r.push(ObjectTiming::new(
            format!("http://ok{i}.example/x"),
            format!("10.0.0.{i}"),
            10_000,
            90.0 + i as f64,
        ));
    }
    oak.ingest_report(Instant::ZERO, &r, &NoFetch);
    let agg = oak.aggregates();
    assert_eq!(agg.report_count(), 1);
    assert_eq!(oak.report_count(), 1);
    assert_eq!(agg.domain("slow.example").unwrap().violations, 1);
    assert_eq!(agg.worst_domains()[0].0, "slow.example");
}

/// The history behind `tests/golden/aggregates_snapshot.json`: 24 users,
/// every user on the two shared hosts, thirds of them on hosts the
/// others never touch, one host spelled in mixed case, one host on two
/// IPs, returning users, and a violator.
fn golden_reports() -> Vec<PerfReport> {
    (0..36u64)
        .map(|t| {
            let mut r = PerfReport::new(format!("g-{}", t % 24), "/");
            r.push(ObjectTiming::new(
                "http://shared.example/a.js",
                "10.0.0.1",
                10_000,
                90.0 + t as f64 / 7.0,
            ));
            r.push(ObjectTiming::new(
                "http://Shared.Example/big.bin",
                "10.0.0.2",
                200_000,
                400.0 + t as f64,
            ));
            r.push(ObjectTiming::new(
                "http://img.example/b.png",
                "10.0.0.2",
                10_000,
                80.0,
            ));
            r.push(ObjectTiming::new(
                format!("http://only-{}.example/c.css", t % 3),
                format!("10.0.1.{}", t % 3),
                20_000,
                70.0 + (t % 5) as f64,
            ));
            r.push(ObjectTiming::new(
                "http://fonts.example/f.woff",
                "10.0.0.4",
                30_000,
                85.0,
            ));
            if t % 4 == 0 {
                r.push(ObjectTiming::new(
                    "http://slow.example/x.js",
                    "10.0.0.9",
                    10_000,
                    900.0 + t as f64 / 3.0,
                ));
            }
            r
        })
        .collect()
}

/// [`golden_reports`] ingested, with a rule for the violator to
/// activate.
fn golden_engine() -> crate::engine::Oak {
    use crate::engine::{Oak, OakConfig};
    use crate::matching::NoFetch;
    use crate::rule::Rule;
    use crate::Instant;

    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::remove(r#"<script src="http://slow.example/x.js">"#))
        .unwrap();
    for (t, r) in golden_reports().iter().enumerate() {
        oak.ingest_report(Instant(t as u64), r, &NoFetch);
    }
    oak
}

/// The snapshot document of [`golden_engine`]: a change to what the
/// aggregates keep, or to how the dump spells it, is a deliberate
/// re-bless: `OAK_BLESS=1 cargo test -p oak-core golden`.
#[test]
fn golden_aggregates_snapshot_is_written_byte_for_byte() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/aggregates_snapshot.json");
    let written = golden_engine().snapshot_json().to_string();
    if std::env::var_os("OAK_BLESS").is_some() {
        std::fs::write(&path, format!("{written}\n")).unwrap();
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    let golden = golden.trim_end();
    assert!(
        golden.contains(r#""domain":"only-1.example""#) && golden.contains(r#""violations":9"#)
    );
    assert_eq!(
        written, golden,
        "the same history no longer writes the same snapshot"
    );
}

/// Whether `estimate` is within the sketch's stated bound of `exact`:
/// three standard errors, 3 × 1.04 / √64.
fn within_bound(estimate: u64, exact: usize) -> bool {
    (estimate as f64 - exact as f64).abs() <= 3.0 * 1.04 / 8.0 * exact as f64
}

/// `users_seen` against the exact count: on every row of the golden
/// history, and on one domain with 100,000 users.
#[test]
fn users_seen_is_within_the_sketch_bound() {
    let mut exact: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for r in golden_reports() {
        for entry in &r.entries {
            let host = oak_http::host_of(&entry.url).unwrap().to_ascii_lowercase();
            exact.entry(host).or_default().insert(r.user.clone());
        }
    }
    let agg = golden_engine().aggregates();
    let rows: Vec<(&str, u64)> = agg.iter().map(|(d, a)| (d, a.users_seen())).collect();
    assert_eq!(rows.len(), exact.len());
    for ((domain, estimate), (host, users)) in rows.into_iter().zip(&exact) {
        assert_eq!(domain, host);
        assert!(
            within_bound(estimate, users.len()),
            "{domain}: {estimate} for {}",
            users.len()
        );
    }

    let mut sketch = UserSketch::default();
    for i in 0..100_000 {
        sketch.insert(UserSketch::key(&format!("user-{i}")));
    }
    assert!(
        within_bound(sketch.estimate(), 100_000),
        "{}",
        sketch.estimate()
    );
    assert_eq!(UserSketch::default().estimate(), 0);
}

/// One user sends `n` reports of 1,000 hosts no report names twice (the
/// measurement that found a reporter growing the image without bound):
/// the rows stop at the engine's bound, the rest folds into `other`
/// without losing a count, and the image stops growing.
#[test]
fn one_reporter_cannot_grow_the_aggregates() {
    use crate::engine::{Oak, OakConfig};
    use crate::matching::NoFetch;
    use crate::Instant;

    let oak = Oak::new(OakConfig::default());
    let (mut host, mut images) = (0u32, Vec::new());
    for n in 1..=400u64 {
        let mut r = PerfReport::new("hostile", "/");
        for _ in 0..1_000 {
            let [_, a, b, c] = host.to_be_bytes();
            let ip = format!("10.{a}.{b}.{c}");
            r.push(ObjectTiming::new(
                format!("http://h{host}.example/x"),
                ip,
                1_000,
                50.0,
            ));
            host += 1;
        }
        oak.ingest_report(Instant(n), &r, &NoFetch);
        if n == 200 || n == 400 {
            let agg = oak.aggregates();
            assert_eq!(agg.iter().count(), SiteAggregates::MAX_ROWS);
            let rows = agg.iter().map(|(_, a)| a).chain([agg.other()]);
            let (objects, bytes) = rows.fold((0, 0), |(o, b), a| (o + a.objects, b + a.bytes));
            assert_eq!((objects, bytes), (n * 1_000, n * 1_000 * 1_000));
            assert_eq!(agg.other().users_seen(), 1);
            images.push(oak.state_image().1.len());
        }
    }
    // Every row full: the image is the same size at 200 reports and at
    // 400, and under what the rows can take up.
    assert_eq!(images[0], images[1]);
    assert!(images[1] < SiteAggregates::MAX_ROWS * 256, "{}", images[1]);

    // A name no DNS host can have never gets a row, in aggregates with
    // room.
    let long = format!("{}.example", "x".repeat(292));
    assert_eq!(long.len(), 300);
    let mut agg = SiteAggregates::default();
    let mut r = report("u-1", false);
    r.push(ObjectTiming::new(
        format!("http://{long}/a.js"),
        "10.0.0.7",
        5_000,
        60.0,
    ));
    fold(&mut agg, &r, &[]);
    assert!(agg.domain(&long).is_none());
    assert_eq!((agg.other().objects, agg.other().bytes), (1, 5_000));
    assert_eq!(agg.iter().count(), 2);
}

/// One client that takes a new user id every report, its users pruned
/// between batches (user-ID churn, which used to leave a report count per
/// user ever seen in the aggregates): once they are pruned the engine
/// keeps nothing per user, so the image is the same size after 200
/// reports and after 400.
#[test]
fn a_rotating_reporter_leaves_the_image_bounded_once_pruned() {
    use crate::engine::{Oak, OakConfig};
    use crate::matching::NoFetch;
    use crate::Instant;

    let oak = Oak::new(OakConfig::default());
    let mut images = Vec::new();
    for n in 1..=400u64 {
        let user = format!("rotating-{n:06}");
        oak.ingest_report(Instant(n), &report(&user, false), &NoFetch);
        if n % 50 == 0 {
            assert_eq!(oak.prune_inactive_users(Instant(n + 1)), 50);
        }
        if n == 200 || n == 400 {
            images.push(oak.state_image().1.len());
        }
    }
    assert_eq!(images[0], images[1]);
    assert_eq!((oak.user_count(), oak.report_count()), (0, 400));
    let cdn = oak.aggregates().domain("cdn.example").unwrap().clone();
    assert_eq!(cdn.objects, 800);
    assert!(within_bound(cdn.users_seen(), 400), "{}", cdn.users_seen());
}

mod against_the_model {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::within_bound;
    use crate::aggregates::{RunningStat, SiteAggregates, UserSketch};
    use crate::events::{Fold, IngestEffect};
    use crate::intern::Interner;

    /// One domain's row in the reference fold, which bounds no rows and
    /// keeps an exact set of users per domain.
    #[derive(Clone, Debug, Default)]
    struct Row {
        objects: u64,
        bytes: u64,
        violations: u64,
        small: RunningStat,
        large: RunningStat,
        users: BTreeSet<String>,
    }

    /// One accumulator in the reference fold: its rows, and every user it
    /// folded, whatever the report named.
    #[derive(Clone, Debug, Default)]
    struct Model {
        rows: BTreeMap<String, Row>,
        users: BTreeSet<String>,
    }

    fn model_fold(model: &mut Model, user: &str, effect: &IngestEffect) {
        model.users.insert(user.to_owned());
        for server in effect.folds() {
            for domain in server.domains() {
                let row = model.rows.entry(domain.to_owned()).or_default();
                row.objects += server.objects();
                row.bytes += server.bytes();
                row.violations += u64::from(server.violated());
                server.small_times_ms().for_each(|t| row.small.push(t));
                server.large_tputs_kbps().for_each(|t| row.large.push(t));
                row.users.insert(user.to_owned());
            }
        }
    }

    fn model_merge(into: &mut Model, from: &Model) {
        into.users.extend(from.users.iter().cloned());
        for (domain, theirs) in &from.rows {
            let ours = into.rows.entry(domain.clone()).or_default();
            ours.objects += theirs.objects;
            ours.bytes += theirs.bytes;
            ours.violations += theirs.violations;
            ours.small.merge(&theirs.small);
            ours.large.merge(&theirs.large);
            ours.users.extend(theirs.users.iter().cloned());
        }
    }

    const SHARDS: usize = 3;
    const USERS: usize = 6;
    const DOMAINS: [&str; 5] = [
        "e.example",
        "a.example",
        "c.example",
        "b.example",
        "d.example",
    ];

    #[derive(Clone, Debug)]
    enum Op {
        /// One report: per server, which domains (a bit mask over
        /// `DOMAINS`), its samples, and whether it was flagged.
        Fold {
            shard: usize,
            user: usize,
            servers: Vec<(u8, Vec<f64>, Vec<f64>, bool)>,
        },
        /// `into` absorbs a copy of `from`.
        Merge { from: usize, into: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let samples = || prop::collection::vec(0.0f64..5_000.0, 0..3);
        let server = (0u8..32, samples(), samples(), any::<bool>());
        let fold = (0..SHARDS, 0..USERS, prop::collection::vec(server, 0..4)).prop_map(
            |(shard, user, servers)| Op::Fold {
                shard,
                user,
                servers,
            },
        );
        let merge = (0..SHARDS, 0..SHARDS).prop_map(|(from, into)| Op::Merge { from, into });
        prop_oneof![fold.clone(), fold.clone(), fold.clone(), fold, merge]
    }

    /// One report's effect, written through the engine's encoder.
    fn effect_of(user: &str, servers: &[(u8, Vec<f64>, Vec<f64>, bool)]) -> IngestEffect {
        let domains: Vec<Vec<&str>> = servers
            .iter()
            .map(|(mask, ..)| {
                DOMAINS
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, d)| *d)
                    .collect()
            })
            .collect();
        let folds = servers
            .iter()
            .zip(&domains)
            .map(|((_, small, large, violated), domains)| Fold {
                domains,
                objects: (small.len() + large.len()) as u64,
                bytes: 1_000 * small.len() as u64 + 100_000 * large.len() as u64,
                small_times_ms: small,
                large_tputs_kbps: large,
                violated: *violated,
            });
        IngestEffect::from_parts(crate::Instant::ZERO, user, folds, &[], &[])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any history of folds and merges — users confined to one
        /// accumulator or not — leaves every row with the reference fold's objects,
        /// bytes, violations and stats exactly, and with the sketch of
        /// the reference's exact user set, whose estimate is within the
        /// stated bound of that set's size; the accumulator's own sketch is the
        /// sketch of every user it folded; and its part of a state image
        /// reads back into an equal accumulator.
        #[test]
        fn rows_are_the_reference_fold(ops in prop::collection::vec(op_strategy(), 0..40)) {
            let mut shards = vec![SiteAggregates::default(); SHARDS];
            let mut models = vec![Model::default(); SHARDS];
            let interner = Interner::new();
            for op in &ops {
                match op {
                    Op::Fold { shard, user, servers } => {
                        let user = format!("u-{user}");
                        let effect = effect_of(&user, servers);
                        shards[*shard].fold(&user, effect.folds(), &interner);
                        model_fold(&mut models[*shard], &user, &effect);
                    }
                    Op::Merge { from, into } => {
                        let (other, model) = (shards[*from].clone(), models[*from].clone());
                        shards[*into].merge(&other);
                        model_merge(&mut models[*into], &model);
                    }
                }
            }
            for (shard, model) in shards.iter().zip(&models) {
                prop_assert_eq!(shard.iter().count(), model.rows.len());
                prop_assert_eq!(shard.other(), &Default::default());
                let mut everyone = UserSketch::default();
                model.users.iter().for_each(|u| everyone.insert(UserSketch::key(u)));
                prop_assert_eq!(shard.users_seen(), everyone.estimate());
                prop_assert!(within_bound(shard.users_seen(), model.users.len()));
                for ((domain, agg), (name, row)) in shard.iter().zip(&model.rows) {
                    prop_assert_eq!(domain, name.as_str());
                    prop_assert_eq!(
                        (agg.objects, agg.bytes, agg.violations),
                        (row.objects, row.bytes, row.violations)
                    );
                    prop_assert_eq!(agg.small_time_ms, row.small);
                    prop_assert_eq!(agg.large_tput_kbps, row.large);
                    let mut exact = UserSketch::default();
                    row.users.iter().for_each(|u| exact.insert(UserSketch::key(u)));
                    prop_assert_eq!(agg.users, exact);
                    prop_assert!(within_bound(agg.users_seen(), row.users.len()));
                }
                let table: Vec<&str> = shard.domain_names().collect();
                let mut image = Vec::new();
                shard.write_image(&mut image);
                let table: Vec<Arc<str>> = table.into_iter().map(Arc::from).collect();
                let mut reader = crate::events::Reader::new(&image);
                let mut used = vec![false; table.len()];
                let version = crate::engine::STATE_IMAGE_VERSION;
                let (read, counts) = SiteAggregates::read_image(&mut reader, &table, &mut used, version)
                    .expect("a shard's own image reads");
                prop_assert_eq!(&read, shard);
                prop_assert!(counts.is_empty());
                prop_assert!(reader.finish("the shard").is_ok() && used.iter().all(|u| *u));
            }
        }
    }
}
