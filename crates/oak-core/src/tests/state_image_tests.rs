//! The state image: equivalence with the snapshot document over random
//! engine histories, the hostile-image suite (truncation, bit flips,
//! counts and indexes that lie — error, never panic, never over-allocate)
//! and a golden file that makes a layout change a deliberate re-bless.
//!
//! Regenerate the golden file after an intentional layout change with
//! `OAK_BLESS=1 cargo test -p oak-core golden`.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use super::engine_props::{op_strategy, run_ops, Journal};
use super::peak_alloc_during;
use crate::engine::{Oak, OakConfig, SHARD_COUNT, STATE_IMAGE_VERSION};
use crate::events::{put_len, put_str, put_u32, put_u64};
use crate::matching::NoFetch;
use crate::report::{ObjectTiming, PerfReport};
use crate::rule::{Rule, SelectionPolicy};
use crate::time::Instant;

fn load(image: &[u8]) -> Result<Oak, String> {
    Oak::from_state_image(OakConfig::default(), image)
}

fn document(oak: &Oak) -> String {
    oak.snapshot_json().to_string()
}

/// Five objects, `slow_host` far out of family when `slow_ms` says so.
fn report(user: &str, slow_host: &str, slow_ms: f64) -> PerfReport {
    let mut r = PerfReport::new(user, "/index.html");
    let mut push = |url: &str, ip: &str, ms: f64| {
        r.push(ObjectTiming::new(url, ip, 30_000, ms));
    };
    push(&format!("http://{slow_host}/lib.js"), "10.0.0.1", slow_ms);
    push("http://img.example/a.png", "10.0.0.2", 80.0);
    push("http://IMG.example/big.bin", "10.0.0.2", 95.5);
    push("http://fonts.example/f.woff", "10.0.0.3", 70.25);
    push("http://api.example/d.js", "10.0.0.4", 90.0);
    r
}

/// The engine behind `tests/golden/state_image.hex`: every part of the
/// layout populated by three users — activations forced and earned, a
/// pending count, log records of all four kinds, a pruned user the
/// aggregates and the log still remember, shards that hold nothing — on a
/// replicated branch (epoch 3), with event sequence numbers allocated.
fn golden_engine() -> Oak {
    let mut oak = Oak::new(OakConfig::default());
    oak.set_event_sink(Arc::new(Journal::default()));
    oak.set_epoch(3);
    let cdn = Rule::replace_identical(
        r#"<script src="http://cdn-a.example/lib.js">"#,
        [
            r#"<script src="http://cdn-b.example/lib.js">"#,
            r#"<script src="http://cdn-c.example/lib.js">"#,
        ],
    );
    let cdn = cdn
        .with_ttl_ms(Some(60_000))
        .with_selection(SelectionPolicy::UserHash);
    let cdn = oak.add_rule(cdn).unwrap();
    let strikes = Rule::remove(r#"<script src="http://api-2.example/lib.js">"#);
    let strikes = oak.add_rule(strikes.with_violations_required(3)).unwrap();
    let retired = oak.add_rule(Rule::remove("<!-- retired -->")).unwrap();
    oak.remove_rule(retired);

    let ingest = |at: u64, user: &str, slow_host: &str, slow_ms: f64| {
        oak.ingest_report(Instant(at), &report(user, slow_host, slow_ms), &NoFetch);
    };
    let mirror_of = |user: &str| {
        let active = oak.active_rules(user);
        assert_eq!(active[0].0, cdn);
        ["cdn-b.example", "cdn-c.example"][active[0].1.alternative_index]
    };
    ingest(5, "u-4", "cdn-a.example", 950.0);
    assert_eq!(oak.prune_inactive_users(Instant(8)), 1);
    // Activated, expired by a serve, activated again, walked through both
    // alternatives and off the end of the list.
    ingest(10, "u-1", "cdn-a.example", 900.5);
    oak.modify_page(Instant(70_000), "u-1", "/index.html", "<html></html>");
    ingest(70_010, "u-1", "cdn-a.example", 900.5);
    ingest(70_020, "u-1", mirror_of("u-1"), 4_000.0);
    ingest(70_030, "u-1", mirror_of("u-1"), 4_000.0);
    ingest(70_040, "u-2", "api-2.example", 700.0);
    ingest(70_050, "u-2", "cdn-a.example", 812.125);
    ingest(70_060, "ü-3", "ok.example", 85.0);
    oak.force_activate(Instant(70_070), "ü-3", strikes);

    assert_eq!(oak.user_count(), 3);
    assert!(oak.active_rules("u-1").is_empty());
    assert_eq!(oak.active_rules("u-2").len(), 1);
    assert_eq!(oak.log().len(), 7);
    oak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a history leaves behind, the image carries what the
    /// snapshot document carries: an engine loaded from either says the
    /// same document and images to the same bytes, on the single-node
    /// branch (epoch 0, journaled or not) and on a replicated one.
    #[test]
    fn the_image_is_the_snapshot_document(
        ops in prop::collection::vec(op_strategy(), 1..120),
        epoch in prop_oneof![Just(0u64), Just(u64::MAX), 1u64..1_000],
        journaled in any::<bool>(),
    ) {
        let mut oak = Oak::new(OakConfig::default());
        if journaled {
            oak.set_event_sink(Arc::new(Journal::default()));
        }
        oak.set_epoch(epoch);
        run_ops(&oak, &ops);

        let (watermark, image) = oak.state_image();
        prop_assert_eq!(watermark, oak.event_seq());
        prop_assert_eq!(image[0], STATE_IMAGE_VERSION);
        let loaded = load(&image).expect("an engine's own image loads");
        prop_assert_eq!(document(&loaded), document(&oak));
        prop_assert_eq!(loaded.epoch(), epoch);
        prop_assert_eq!(loaded.event_seq(), watermark);
        prop_assert_eq!(&loaded.state_image().1, &image);

        let doc = oak_json::parse(&document(&oak)).expect("the document parses");
        let from_doc = Oak::from_snapshot_json(OakConfig::default(), &doc).expect("and loads");
        prop_assert_eq!(&from_doc.state_image().1, &image);
    }
}

/// The document may list a sample for a domain it has no aggregate row
/// for; no engine writes one, but the image of an engine loaded from one
/// must still say what the document said.
#[test]
fn a_sample_without_an_aggregate_row_survives_the_image() {
    let oak = golden_engine();
    let text = document(&oak);
    assert!(text.contains(r#"["api.example","u-1"]"#));
    let unlisted = text.replace(r#"["api.example","u-1"]"#, r#"["aaa.example","u-1"]"#);
    let doc = oak_json::parse(&unlisted).unwrap();
    let from_doc = Oak::from_snapshot_json(OakConfig::default(), &doc).expect("loads");
    assert_eq!(document(&from_doc), unlisted);
    let image = from_doc.state_image().1;
    let loaded = load(&image).expect("its image loads");
    assert_eq!(document(&loaded), unlisted);
    assert_eq!(loaded.state_image().1, image);
}

/// The fattest thing four image bytes can stand for is an empty `String`
/// behind its length prefix; a user row of twenty bytes becomes a map
/// slot a few times that. No allocation a load makes is larger than the
/// image times this —
const EXPANSION: usize = 16;
/// — or than an error message, which is not sized by the image.
const ERROR_TEXT: usize = 256;

/// Loads `image`: an error or an engine whose image round-trips, without
/// a panic and without an allocation the image cannot justify.
fn load_hostile(image: &[u8]) -> Result<Oak, String> {
    // What an empty engine allocates whatever it is loaded from.
    let (_, floor) = peak_alloc_during(|| Oak::new(OakConfig::default()));
    let (loaded, peak) = peak_alloc_during(|| load(image));
    assert!(
        peak <= floor.max(EXPANSION * image.len()) + ERROR_TEXT,
        "loading {} bytes allocated {peak} at once",
        image.len()
    );
    if let Ok(oak) = &loaded {
        let again = oak.state_image().1;
        let reloaded = load(&again).expect("a loaded engine's image loads");
        assert_eq!(reloaded.state_image().1, again);
    }
    loaded
}

#[test]
fn every_truncation_is_an_error() {
    let image = golden_engine().state_image().1;
    for cut in 0..image.len() {
        let loaded = load_hostile(&image[..cut]);
        assert!(
            loaded.is_err(),
            "cut at {cut} of {} still loads",
            image.len()
        );
    }
}

#[test]
fn every_single_bit_flip_is_an_error_or_another_engine() {
    let image = golden_engine().state_image().1;
    for at in 0..image.len() {
        for bit in 0..8 {
            let mut flipped = image.clone();
            flipped[at] ^= 1 << bit;
            let _ = load_hostile(&flipped);
        }
    }
}

fn empty_shard(out: &mut Vec<u8>) {
    put_u64(out, 0); // reports
    for _ in 0..4 {
        put_len(out, 0); // domains, aggregate users, log, users
    }
}

/// A hand-built image: no rules, `table`, shard 0 as `shard` writes it,
/// fifteen empty shards.
fn image_with(table: &[&str], shard: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![STATE_IMAGE_VERSION];
    put_len(&mut out, SHARD_COUNT);
    for _ in 0..3 {
        put_u64(&mut out, 0); // event_seq, log_seq, epoch
    }
    put_u32(&mut out, 0); // next_rule_id
    put_len(&mut out, 0); // rules
    put_len(&mut out, table.len());
    for name in table {
        put_str(&mut out, name);
    }
    shard(&mut out);
    for _ in 1..SHARD_COUNT {
        empty_shard(&mut out);
    }
    out
}

/// One aggregate domain row for table entry `index`, all zeroes.
fn domain_row(out: &mut Vec<u8>, index: u32) {
    put_u32(out, index);
    out.extend_from_slice(&[0; 4 * 8 + 2 * 32]);
}

/// Shard 0 with `domains` aggregate rows and one aggregate user sampled
/// in `sampled`.
fn shard_with(domains: &[u32], sampled: &[u32]) -> impl FnOnce(&mut Vec<u8>) {
    let (domains, sampled) = (domains.to_vec(), sampled.to_vec());
    move |out| {
        put_u64(out, 1);
        put_len(out, domains.len());
        for index in domains {
            domain_row(out, index);
        }
        put_len(out, 1);
        put_str(out, "u-1");
        put_u64(out, 1);
        put_len(out, sampled.len());
        for index in sampled {
            put_u32(out, index);
        }
        put_len(out, 0); // log
        put_len(out, 0); // users
    }
}

#[test]
fn hand_built_images_are_the_layout() {
    let empty = Oak::new(OakConfig::default());
    assert_eq!(image_with(&[], empty_shard), empty.state_image().1);
    let loaded = load(&image_with(
        &["a.example", "b.example"],
        shard_with(&[0, 1], &[1]),
    ))
    .expect("loads");
    let aggregates = loaded.aggregates();
    assert_eq!(aggregates.report_count(), 1);
    assert_eq!(aggregates.reports_from("u-1"), 1);
    assert!(aggregates.domain("b.example").is_some());
}

#[test]
fn lying_counts_fail_before_they_allocate() {
    // Every count the header region has, claiming four billion elements.
    let prefix = 1 + 4 + 3 * 8 + 4;
    let lie = |image: &mut Vec<u8>, at: usize| {
        image[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    };
    let mut rules = image_with(&[], empty_shard);
    lie(&mut rules, prefix);
    let (loaded, peak) = peak_alloc_during(|| load(&rules));
    let left = rules.len() - prefix - 4;
    assert_eq!(
        loaded.unwrap_err(),
        format!("4294967295 rules cannot fit in the {left} bytes that remain")
    );
    let (_, floor) = peak_alloc_during(|| Oak::new(OakConfig::default()));
    assert!(peak <= floor + ERROR_TEXT);

    let mut table = image_with(&[], empty_shard);
    lie(&mut table, prefix + 4);
    assert!(load_hostile(&table)
        .unwrap_err()
        .starts_with("4294967295 domain table cannot fit in the "));

    // And every count of a shard, each with room for a hundred elements
    // behind it but not the thousand it claims.
    let counts = [
        "aggregate domains",
        "aggregate users",
        "log records",
        "users",
    ];
    for (nth, what) in counts.iter().enumerate() {
        let image = image_with(&[], |out| {
            put_u64(out, 0);
            for _ in 0..nth {
                put_len(out, 0);
            }
            put_len(out, 1_000);
            out.extend_from_slice(&[0; 1_000]);
        });
        let err = load_hostile(&image).unwrap_err();
        assert!(
            err.starts_with(&format!("1000 {what} cannot fit in the ")),
            "{what}: {err}"
        );
    }
    let sampled = image_with(&[], |out| {
        put_u64(out, 0);
        put_len(out, 0);
        put_len(out, 1);
        put_str(out, "u-1");
        put_u64(out, 1);
        put_len(out, 100_000);
    });
    assert!(load_hostile(&sampled)
        .unwrap_err()
        .starts_with("100000 sampled domains cannot fit in the "));
}

#[test]
fn rejects_what_is_not_this_layout() {
    let good = golden_engine().state_image().1;
    assert!(load(&good).is_ok());
    let err = |image: &[u8]| load_hostile(image).unwrap_err();

    let mut future = good.clone();
    future[0] = 2;
    assert_eq!(
        err(&future),
        "unsupported state image version 0x02 (expected 0x01)"
    );
    // The byte that opens a snapshot document is not a version.
    assert!(err(br#"{"version":1}"#).starts_with("unsupported state image version 0x7b"));

    let mut shards = good.clone();
    shards[1] = 17;
    assert_eq!(err(&shards), "state image has 17 shards, engine has 16");

    let mut trailing = good.clone();
    trailing.push(0);
    assert_eq!(err(&trailing), "1 trailing bytes after the state image");

    // Domain indexes that lie: past the table, out of order, twice.
    assert_eq!(
        err(&image_with(&["a.example"], shard_with(&[5], &[]))),
        "aggregate domain index 5 is past the 1-entry domain table"
    );
    assert_eq!(
        err(&image_with(&["a.example"], shard_with(&[0], &[1]))),
        "sampled domain index 1 is past the 1-entry domain table"
    );
    let two = ["a.example", "b.example"];
    assert_eq!(
        err(&image_with(&two, shard_with(&[1, 0], &[]))),
        "aggregate domain indexes are not strictly ascending"
    );
    assert_eq!(
        err(&image_with(&two, shard_with(&[0, 1], &[1, 1]))),
        "sampled domain indexes are not strictly ascending"
    );
    // One encoding per state: a table out of order, a name nothing uses.
    assert_eq!(
        err(&image_with(
            &["b.example", "a.example"],
            shard_with(&[0, 1], &[])
        )),
        "domain names are not strictly ascending"
    );
    assert_eq!(
        err(&image_with(&two, shard_with(&[0], &[0]))),
        "domain table entry 1 (\"b.example\") is not referred to"
    );
    // A user listed twice.
    let twice = image_with(&[], |out| {
        put_u64(out, 0);
        for _ in 0..3 {
            put_len(out, 0);
        }
        put_len(out, 2);
        for _ in 0..2 {
            put_str(out, "u-1");
            put_u64(out, 0); // last_seen
            put_len(out, 0);
            put_len(out, 0);
        }
    });
    assert_eq!(err(&twice), "users are not strictly ascending");

    let mut not_utf8 = image_with(&["a.example"], shard_with(&[0], &[]));
    let name = 1 + 4 + 3 * 8 + 4 + 4 + 4 + 4;
    assert_eq!(&not_utf8[name..name + 2], b"a.");
    not_utf8[name] = 0xFF;
    assert_eq!(err(&not_utf8), "domain name is not valid UTF-8");
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/state_image.hex")
}

/// The image of [`golden_engine`], 32 bytes a line. A layout change shows
/// up here as a diff to bless on purpose — snapshot files already on disk
/// hold these bytes.
#[test]
fn golden_image_is_unchanged() {
    let oak = golden_engine();
    let mut text = String::from(
        "# Oak::state_image of a populated three-user engine \
         (crates/oak-core/src/engine/image.rs).\n\
         # Re-bless on purpose: OAK_BLESS=1 cargo test -p oak-core golden\n",
    );
    for line in oak.state_image().1.chunks(32) {
        text.extend(line.iter().map(|b| format!("{b:02x}")));
        text.push('\n');
    }
    if std::env::var_os("OAK_BLESS").is_some() {
        std::fs::write(golden_path(), &text).unwrap();
    }
    let expected = std::fs::read_to_string(golden_path())
        .expect("golden file missing — regenerate with OAK_BLESS=1 cargo test -p oak-core golden");
    assert_eq!(
        text, expected,
        "the state image layout drifted from the golden file; snapshots on disk hold the old \
         bytes — if intentional, bump STATE_IMAGE_VERSION and regenerate with OAK_BLESS=1"
    );
    // And the checked-in bytes still load to the same engine.
    let hex: String = expected.lines().skip(2).collect();
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect();
    let loaded = load(&bytes).expect("golden image loads");
    assert_eq!(document(&loaded), document(&oak));
    assert_eq!(loaded.active_rules("u-1"), oak.active_rules("u-1"));
    assert_eq!(loaded.log(), oak.log());
}
