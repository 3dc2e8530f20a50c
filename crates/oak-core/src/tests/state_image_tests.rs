//! The state image: equivalence with the snapshot document over random
//! engine histories, the hostile-image suite (truncation, bit flips,
//! counts and indexes that lie — error, never panic, never over-allocate),
//! a golden file that makes a layout change a deliberate re-bless, and
//! the version 0x02 and 0x03 goldens, which this build still reads,
//! folding their sixteen shards into one.
//!
//! Regenerate the golden file after an intentional layout change with
//! `OAK_BLESS=1 cargo test -p oak-core golden`.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use super::engine_props::{op_strategy, run_ops, Journal};
use super::peak_alloc_during;
use crate::aggregates::SiteAggregates;
use crate::engine::{Oak, OakConfig, STATE_IMAGE_V2, STATE_IMAGE_V3, STATE_IMAGE_VERSION};
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

/// The engine behind `tests/golden/state_image_v4.hex` and its older
/// versions: every part of the layout populated by three users —
/// activations forced and earned, a pending count, log records of all
/// four kinds, a pruned user the aggregates' sketches and the log still
/// remember (its report count is gone) — on a replicated branch (epoch
/// 3), with event sequence numbers allocated. Every timing is dyadic, so
/// the sums of an older image's sixteen shards add up exactly to one
/// engine's.
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
    assert_eq!(oak.reports_from("u-4"), 0);
    assert_eq!(oak.reports_from("u-1"), 4);
    assert!(oak.active_rules("u-1").is_empty());
    assert_eq!(oak.active_rules("u-2").len(), 1);
    assert_eq!(oak.log().len(), 7);
    oak
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a history leaves behind, the image carries what the
    /// snapshot document carries, `last_seen` included: an engine loaded
    /// from it says the same document and images to the same bytes, on
    /// the single-node branch (epoch 0, journaled or not) and on a
    /// replicated one.
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
    }
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

/// One `agg` of a state image, all zeroes: three counters, two stats,
/// the sketch.
const ZERO_AGGREGATE: [u8; 3 * 8 + 2 * 32 + 64] = [0; 3 * 8 + 2 * 32 + 64];

/// A shard's user sketch, empty.
const EMPTY_SKETCH: [u8; 64] = [0; 64];

/// An empty section: of a version 0x04 image, or one shard of a 0x03.
fn empty_shard(out: &mut Vec<u8>) {
    put_u64(out, 0); // reports
    put_len(out, 0); // domains
    out.extend_from_slice(&ZERO_AGGREGATE); // other
    out.extend_from_slice(&EMPTY_SKETCH);
    put_len(out, 0); // log
    put_len(out, 0); // users
}

fn empty_v2_shard(out: &mut Vec<u8>) {
    put_u64(out, 0); // reports
    put_len(out, 0); // domains
    out.extend_from_slice(&ZERO_AGGREGATE); // other
    for _ in 0..3 {
        put_len(out, 0); // aggregate users, log, users
    }
}

/// The shards of a version 0x03 or 0x02 image.
const LEGACY_SHARDS: usize = 16;

/// A hand-built image of `version`: no rules, `table`, then what
/// `section` writes — and before version 0x04, the shard count first and
/// as many empty shards after as make sixteen, `empty` writing each.
/// `shards` says how many `section` writes.
fn image_of(
    version: u8,
    table: &[&str],
    shards: usize,
    section: impl FnOnce(&mut Vec<u8>),
    empty: fn(&mut Vec<u8>),
) -> Vec<u8> {
    let legacy = version != STATE_IMAGE_VERSION;
    let mut out = vec![version];
    if legacy {
        put_len(&mut out, LEGACY_SHARDS);
    }
    for _ in 0..3 {
        put_u64(&mut out, 0); // event_seq, log_seq, epoch
    }
    put_u32(&mut out, 0); // next_rule_id
    put_len(&mut out, 0); // rules
    put_len(&mut out, table.len());
    for name in table {
        put_str(&mut out, name);
    }
    section(&mut out);
    if legacy {
        for _ in shards..LEGACY_SHARDS {
            empty(&mut out);
        }
    }
    out
}

fn image_with(table: &[&str], section: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    image_of(STATE_IMAGE_VERSION, table, 1, section, empty_shard)
}

fn v2_image_with(table: &[&str], shard: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    image_of(STATE_IMAGE_V2, table, 1, shard, empty_v2_shard)
}

/// A `users` row of `version` for a user with no rules, seen at 0.
fn user_row(out: &mut Vec<u8>, version: u8, name: &str, reports: u64) {
    put_str(out, name);
    put_u64(out, 0); // last_seen
    if version != STATE_IMAGE_V2 {
        put_u64(out, reports);
    }
    put_len(out, 0); // active
    put_len(out, 0); // pending
}

/// A section with an all-zero row for each of `domains` and one user,
/// `user`, who sent its one report.
fn section_with(domains: &[u32], user: &str) -> impl FnOnce(&mut Vec<u8>) {
    let (domains, user) = (domains.to_vec(), user.to_owned());
    move |out| {
        put_u64(out, 1);
        put_len(out, domains.len());
        for index in domains {
            put_u32(out, index);
            out.extend_from_slice(&ZERO_AGGREGATE);
        }
        out.extend_from_slice(&ZERO_AGGREGATE);
        out.extend_from_slice(&EMPTY_SKETCH);
        put_len(out, 0); // log
        put_len(out, 1);
        user_row(out, STATE_IMAGE_VERSION, &user, 1);
    }
}

#[test]
fn hand_built_images_are_the_layout() {
    let empty = Oak::new(OakConfig::default());
    assert_eq!(image_with(&[], empty_shard), empty.state_image().1);
    let two = ["a.example", "b.example"];
    let loaded = load(&image_with(&two, section_with(&[0, 1], "u-1"))).expect("loads");
    let aggregates = loaded.aggregates();
    assert_eq!(aggregates.report_count(), 1);
    assert_eq!(loaded.reports_from("u-1"), 1);
    assert!(aggregates.domain("b.example").is_some());
}

/// A version 0x02 shard listed every user it had folded with its report
/// count. Each goes into the shard's sketch; a count goes to its user's
/// state, and the count of a user the shard holds no state for is
/// dropped, as a prune drops it.
#[test]
fn a_v2_shard_gives_its_counts_to_the_users_it_still_holds() {
    let (held, pruned) = ("u-1", "u-2");
    let image = v2_image_with(&[], |out| {
        put_u64(out, 7); // reports
        put_len(out, 0); // domains
        out.extend_from_slice(&ZERO_AGGREGATE); // other
        put_len(out, 2);
        for (user, reports) in [(held, 5), (pruned, 2)] {
            put_str(out, user);
            put_u64(out, reports);
        }
        put_len(out, 0); // log
        put_len(out, 1);
        user_row(out, STATE_IMAGE_V2, held, 0);
    });
    let loaded = load_hostile(&image).expect("loads");
    assert_eq!(loaded.reports_from(held), 5);
    assert_eq!(loaded.reports_from(pruned), 0);
    assert_eq!(loaded.report_count(), 7);
    assert_eq!(loaded.aggregates().users_seen(), 2);
    assert_eq!(loaded.state_image().1[0], STATE_IMAGE_VERSION);
}

/// An engine keeps at most [`SiteAggregates::MAX_ROWS`] rows: this build
/// writes no more, and reads no more — in one section, or in the sixteen
/// shards of an older image, whose rows are merged before they count.
#[test]
fn an_image_holds_at_most_the_bound_of_rows() {
    let names: Vec<String> = (0..=SiteAggregates::MAX_ROWS)
        .map(|i| format!("d{i:05}.example"))
        .collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let indexes: Vec<u32> = (0..names.len() as u32).collect();
    let (bound, over) = (&indexes[..SiteAggregates::MAX_ROWS], &indexes[..]);
    let refusal = format!(
        "{} aggregate domains, past the bound of {}",
        over.len(),
        bound.len()
    );

    let at_bound = image_with(&names[..bound.len()], section_with(bound, "u-1"));
    assert!(load(&at_bound).is_ok());
    let one = image_with(&names, section_with(over, "u-1"));
    assert_eq!(load(&one).unwrap_err(), refusal);

    let (low, high) = over.split_at(over.len() / 2);
    let two_shards = |low: &[u32], high: &[u32]| {
        image_of(
            STATE_IMAGE_V3,
            &names[..low.len() + high.len()],
            2,
            |out| {
                section_with(low, "u-1")(out);
                section_with(high, "u-2")(out);
            },
            empty_shard,
        )
    };
    assert_eq!(load(&two_shards(low, high)).unwrap_err(), refusal);
    let (low, high) = bound.split_at(bound.len() / 2);
    let merged = load(&two_shards(low, high)).expect("a bound's worth of rows loads");
    assert_eq!(merged.aggregates().iter().count(), SiteAggregates::MAX_ROWS);
}

#[test]
fn lying_counts_fail_before_they_allocate() {
    // Every count the header region has, claiming four billion elements.
    let prefix = 1 + 3 * 8 + 4;
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

    // And every count of the section, each with room for a hundred elements
    // behind it but not the thousand it claims.
    let counts = ["aggregate domains", "log records", "users"];
    for (nth, what) in counts.iter().enumerate() {
        let image = image_with(&[], |out| {
            put_u64(out, 0);
            for before in 0..nth {
                put_len(out, 0);
                if before == 0 {
                    out.extend_from_slice(&ZERO_AGGREGATE); // other
                    out.extend_from_slice(&EMPTY_SKETCH);
                }
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
    let listed = v2_image_with(&[], |out| {
        put_u64(out, 0);
        put_len(out, 0);
        out.extend_from_slice(&ZERO_AGGREGATE);
        put_len(out, 1_000);
        out.extend_from_slice(&[0; 1_000]);
    });
    assert!(load_hostile(&listed)
        .unwrap_err()
        .starts_with("1000 aggregate users cannot fit in the "));
}

#[test]
fn rejects_what_is_not_this_layout() {
    let good = golden_engine().state_image().1;
    assert!(load(&good).is_ok());
    let err = |image: &[u8]| load_hostile(image).unwrap_err();

    let mut future = good.clone();
    future[0] = 5;
    assert_eq!(
        err(&future),
        "unsupported state image version 0x05 (expected 0x02, 0x03 or 0x04)"
    );
    let mut v1 = good.clone();
    v1[0] = 1;
    assert!(err(&v1).starts_with("unsupported state image version 0x01"));
    // The byte that opens a snapshot document is not a version.
    assert!(err(br#"{"version":1}"#).starts_with("unsupported state image version 0x7b"));

    // An older image has sixteen shards, and they hold disjoint users.
    let mut shards = image_of(STATE_IMAGE_V3, &[], 0, |_| {}, empty_shard);
    shards[1] = 17;
    assert_eq!(
        err(&shards),
        "state image version 0x03 has 17 shards, not 16"
    );
    let twice = image_of(
        STATE_IMAGE_V3,
        &[],
        2,
        |out| {
            section_with(&[], "u-1")(out);
            section_with(&[], "u-1")(out);
        },
        empty_shard,
    );
    assert_eq!(err(&twice), "user \"u-1\" is held by two shards");

    let mut trailing = good.clone();
    trailing.push(0);
    assert_eq!(err(&trailing), "1 trailing bytes after the state image");

    // Domain indexes that lie: past the table, out of order, twice.
    assert_eq!(
        err(&image_with(&["a.example"], section_with(&[5], "u-1"))),
        "aggregate domain index 5 is past the 1-entry domain table"
    );
    let two = ["a.example", "b.example"];
    assert_eq!(
        err(&image_with(&two, section_with(&[1, 0], "u-1"))),
        "aggregate domain indexes are not strictly ascending"
    );
    // One encoding per state: a table out of order, a name nothing uses.
    assert_eq!(
        err(&image_with(
            &["b.example", "a.example"],
            section_with(&[0, 1], "u-1")
        )),
        "domain names are not strictly ascending"
    );
    assert_eq!(
        err(&image_with(&two, section_with(&[0], "u-1"))),
        "domain table entry 1 (\"b.example\") is not referred to"
    );
    // A user listed twice.
    let twice = image_with(&[], |out| {
        put_u64(out, 0);
        put_len(out, 0);
        out.extend_from_slice(&ZERO_AGGREGATE);
        out.extend_from_slice(&EMPTY_SKETCH);
        put_len(out, 0);
        put_len(out, 2);
        for _ in 0..2 {
            user_row(out, STATE_IMAGE_VERSION, "u-1", 0);
        }
    });
    assert_eq!(err(&twice), "users are not strictly ascending");

    let mut not_utf8 = image_with(&["a.example"], section_with(&[0], "u-1"));
    let name = 1 + 3 * 8 + 4 + 4 + 4 + 4;
    assert_eq!(&not_utf8[name..name + 2], b"a.");
    not_utf8[name] = 0xFF;
    assert_eq!(err(&not_utf8), "domain name is not valid UTF-8");
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// The bytes of a golden hex file: two comment lines, then hex.
fn golden_bytes(text: &str) -> Vec<u8> {
    let hex: String = text.lines().skip(2).collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

/// The image of [`golden_engine`], 32 bytes a line. A layout change shows
/// up here as a diff to bless on purpose — snapshot files already on disk
/// hold these bytes.
#[test]
fn golden_image_is_unchanged() {
    let oak = golden_engine();
    let mut text = String::from(
        "# Oak::state_image of a populated three-user engine, version 0x04 \
         (crates/oak-core/src/engine/image.rs).\n\
         # Re-bless on purpose: OAK_BLESS=1 cargo test -p oak-core golden\n",
    );
    for line in oak.state_image().1.chunks(32) {
        text.extend(line.iter().map(|b| format!("{b:02x}")));
        text.push('\n');
    }
    let path = golden_path("state_image_v4.hex");
    if std::env::var_os("OAK_BLESS").is_some() {
        std::fs::write(&path, &text).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with OAK_BLESS=1 cargo test -p oak-core golden");
    assert_eq!(
        text, expected,
        "the state image layout drifted from the golden file; snapshots on disk hold the old \
         bytes — if intentional, bump STATE_IMAGE_VERSION and regenerate with OAK_BLESS=1"
    );
    // And the checked-in bytes still load to the same engine.
    assert_golden_loads("state_image_v4.hex", STATE_IMAGE_VERSION);
}

/// The golden image `file`, of `version` (the older ones read-only,
/// never re-blessed, their sixteen shards folded into one): it loads to
/// the engine the history builds, the pruned user's count dropped, and
/// re-images as this version writes it.
fn assert_golden_loads(file: &str, version: u8) {
    let text = std::fs::read_to_string(golden_path(file)).expect("golden present");
    let bytes = golden_bytes(&text);
    assert_eq!(bytes[0], version);
    let oak = golden_engine();
    let loaded = load(&bytes).expect("the golden image loads");
    assert_eq!(document(&loaded), document(&oak));
    assert_eq!(loaded.active_rules("u-1"), oak.active_rules("u-1"));
    assert_eq!(loaded.log(), oak.log());
    assert_eq!(
        (loaded.reports_from("u-1"), loaded.reports_from("u-4")),
        (4, 0)
    );
    assert_eq!(loaded.state_image(), oak.state_image());
}

#[test]
fn the_v3_golden_image_still_loads() {
    assert_golden_loads("state_image_v3.hex", STATE_IMAGE_V3);
}

#[test]
fn the_v2_golden_image_still_loads() {
    assert_golden_loads("state_image_v2.hex", STATE_IMAGE_V2);
}
