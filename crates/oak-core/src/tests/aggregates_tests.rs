use crate::aggregates::{RunningStat, SiteAggregates};
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
    let mut agg = SiteAggregates::new();
    fold(&mut agg, &report("u-1", false), &[]);
    fold(&mut agg, &report("u-2", false), &[]);
    assert_eq!(agg.report_count(), 2);
    assert_eq!(agg.user_count(), 2);

    let cdn = agg.domain("cdn.example").unwrap();
    assert_eq!(cdn.objects, 4, "two objects per report");
    assert_eq!(cdn.bytes, 2 * 210_000);
    assert_eq!(cdn.small_time_ms.count, 2);
    assert_eq!(cdn.large_tput_kbps.count, 2);
    assert_eq!(cdn.users_seen, 2);
    assert_eq!(cdn.violations, 0);
    assert!(agg.domain("img.example").is_some());
    assert!(agg.domain("missing.example").is_none());
}

#[test]
fn violations_attribute_to_the_flagged_ip() {
    let mut agg = SiteAggregates::new();
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
    let mut agg = SiteAggregates::new();
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
    assert_eq!(agg.domain("CDN.Example").unwrap().users_seen, 1);
}

#[test]
fn repeat_users_counted_once_per_domain() {
    let mut agg = SiteAggregates::new();
    for _ in 0..5 {
        fold(&mut agg, &report("u-same", false), &[]);
    }
    assert_eq!(agg.user_count(), 1);
    assert_eq!(agg.domain("cdn.example").unwrap().users_seen, 1);
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
    assert_eq!(agg.domain("slow.example").unwrap().violations, 1);
    assert_eq!(agg.worst_domains()[0].0, "slow.example");
}

#[test]
fn overview_matches_the_full_merge() {
    use crate::engine::{Oak, OakConfig};
    use crate::matching::NoFetch;
    use crate::Instant;

    // Users spread across shards, some returning — the overview (the
    // serving path's cheap fold) must agree with the exact merge on
    // every total and on the domain ordering.
    let oak = Oak::new(OakConfig::default());
    for i in 0..40 {
        let r = report(&format!("u-{}", i % 25), i % 7 == 0);
        oak.ingest_report(Instant(i), &r, &NoFetch);
    }
    let full = oak.aggregates();
    let overview = oak.aggregates_overview();
    assert_eq!(overview.reports, full.report_count());
    assert_eq!(overview.users, full.user_count() as u64);
    let full_worst: Vec<&str> = full.worst_domains().iter().map(|(d, _)| *d).collect();
    let overview_worst: Vec<&str> = overview.worst_domains().iter().map(|(d, _)| *d).collect();
    assert_eq!(overview_worst, full_worst);
    for (domain, agg) in full.worst_domains() {
        let o = overview
            .worst_domains()
            .into_iter()
            .find(|(d, _)| *d == domain)
            .expect("domain present in overview")
            .1
            .clone();
        assert_eq!(o.objects, agg.objects, "{domain} objects");
        assert_eq!(o.bytes, agg.bytes, "{domain} bytes");
        assert_eq!(o.violations, agg.violations, "{domain} violations");
        assert_eq!(
            o.small_time_ms.mean(),
            agg.small_time_ms.mean(),
            "{domain} small-time mean"
        );
    }
}

/// The engine behind `tests/golden/aggregates_snapshot.json`: 24 users
/// over the 16 shards (so some shards hold several users, some none),
/// every user on the two shared hosts, thirds of them on hosts the
/// others never touch, one host spelled in mixed case, one host on two
/// IPs, returning users, and a violator with a rule to activate.
fn golden_engine() -> crate::engine::Oak {
    use crate::engine::{Oak, OakConfig};
    use crate::matching::NoFetch;
    use crate::rule::Rule;
    use crate::Instant;

    let oak = Oak::new(OakConfig::default());
    oak.add_rule(Rule::remove(r#"<script src="http://slow.example/x.js">"#))
        .unwrap();
    for t in 0..36u64 {
        let user = format!("g-{}", t % 24);
        let mut r = PerfReport::new(&user, "/");
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
        oak.ingest_report(Instant(t), &r, &NoFetch);
    }
    oak
}

/// A snapshot document written before per-user aggregate state moved
/// into one map: this build writes the same bytes from the same history.
/// Re-bless on purpose only: `OAK_BLESS=1 cargo test -p oak-core golden`.
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
    assert!(golden.contains(r#"["only-1.example","g-1"]"#) && golden.contains(r#""violations":1"#));
    assert_eq!(
        written, golden,
        "the same history no longer writes the same snapshot"
    );
}

mod against_the_model {
    use std::sync::Arc;

    use proptest::prelude::*;

    use crate::aggregates::model::ModelAggregates;
    use crate::aggregates::SiteAggregates;
    use crate::events::{Fold, IngestEffect};
    use crate::intern::Interner;

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

        /// Any history of folds and merges — users confined to a shard
        /// or not, under a pair cap low enough to bite or not — leaves
        /// the per-user layout and the per-domain-set model with the
        /// same `users_seen`, the same `samples` rows and the same
        /// document text, and its part of a state image reads back into
        /// an equal accumulator.
        #[test]
        fn per_user_lists_are_the_per_domain_sets(
            ops in prop::collection::vec(op_strategy(), 0..40),
            cap in prop_oneof![0usize..24, Just(SiteAggregates::USER_SAMPLE_CAP)],
        ) {
            let mut shards = vec![SiteAggregates::new(); SHARDS];
            let mut models = vec![ModelAggregates::default(); SHARDS];
            let interner = Interner::new();
            for op in &ops {
                match op {
                    Op::Fold { shard, user, servers } => {
                        let user = format!("u-{user}");
                        let effect = effect_of(&user, servers);
                        shards[*shard].fold_capped(&user, effect.folds(), &interner, cap);
                        models[*shard].fold_capped(&user, effect.folds(), cap);
                    }
                    Op::Merge { from, into } => {
                        let (other, model) = (shards[*from].clone(), models[*from].clone());
                        shards[*into].merge(&other);
                        models[*into].merge(&model);
                    }
                }
            }
            for (shard, model) in shards.iter().zip(&models) {
                for (domain, agg) in shard.iter() {
                    prop_assert_eq!(agg.users_seen, model.domains[domain].users_seen, "{}", domain);
                }
                let doc = shard.to_value();
                let rows: Vec<(String, String)> = doc
                    .get("samples")
                    .and_then(oak_json::Value::as_array)
                    .unwrap()
                    .iter()
                    .map(|row| {
                        let field = |i| row.at(i).and_then(oak_json::Value::as_str).unwrap();
                        (field(0).to_owned(), field(1).to_owned())
                    })
                    .collect();
                prop_assert_eq!(rows, model.sample_pairs());
                prop_assert_eq!(doc.to_string(), model.to_value().to_string());
                // Through its part of a state image, `sample_count` (which
                // neither encoding spells out) included.
                let table: Vec<Arc<str>> = shard.domain_names().cloned().collect();
                let mut image = Vec::new();
                shard.write_image(&mut image, &mut |name| {
                    table.binary_search(name).expect("a sampled domain is a key") as u32
                });
                let mut reader = crate::events::Reader::new(&image);
                let mut used = vec![false; table.len()];
                let read = SiteAggregates::read_image(&mut reader, &table, &mut used);
                prop_assert_eq!(&read.unwrap(), shard);
                prop_assert!(reader.finish("the shard").is_ok() && used.iter().all(|u| *u));
            }
        }
    }
}
