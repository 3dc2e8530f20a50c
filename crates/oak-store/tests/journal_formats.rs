//! What a reader makes of frames this build did not write: a
//! checksum-valid frame this build cannot read — from a newer build, or a
//! JSON frame from before the event byte layout — is refused rather than
//! treated as the end of the log; and a directory the previous build
//! left, with a segment per engine shard, boots.

mod common;

use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use common::temp_dir;
use oak_core::engine::{Oak, OakConfig, STATE_IMAGE_V3};
use oak_core::events::{EngineEvent, EventSink, SequencedEvent, EVENT_VERSION};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::{Rule, RuleId, SelectionPolicy};
use oak_core::Instant;
use oak_store::segment::{encode_frame, SegmentWriter, SEGMENT_MAGIC};
use oak_store::store::SNAPSHOT_MAGIC;
use oak_store::{recover, tail_wal, OakStore, RealFs, StoreOptions, Tail};

fn shipped(dir: &Path, from_seq: u64) -> Vec<SequencedEvent> {
    match tail_wal(&RealFs, dir, from_seq).expect("tail") {
        Tail::Events(events) => events,
        Tail::Compacted { watermark } => panic!("unexpected Compacted {{ {watermark} }}"),
    }
}

/// A good 22-byte payload: `RuleRemoved` at `seq`.
fn removed(seq: u64) -> Vec<u8> {
    SequencedEvent {
        seq,
        epoch: 0,
        event: EngineEvent::RuleRemoved { id: RuleId(9) },
    }
    .encode()
}

/// What a downgrade finds at seq 2: a version byte this build has never
/// heard of.
fn from_a_newer_build() -> Vec<u8> {
    let mut payload = removed(2);
    payload[0] = EVENT_VERSION + 1;
    payload
}

/// A current-version `pruned` event at seq 2 claiming a thousand users
/// in the `room` bytes behind the count.
fn lying_pruned(room: usize) -> Vec<u8> {
    let mut payload = vec![EVENT_VERSION];
    payload.extend_from_slice(&2u64.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.push(6);
    payload.extend_from_slice(&1_000u32.to_le_bytes());
    payload.resize(payload.len() + room, 0);
    payload
}

/// A one-segment directory: two good frames, `odd` as the third, one
/// more good frame after it.
fn journal_around(tag: &str, odd: &[u8]) -> std::path::PathBuf {
    let dir = temp_dir(tag);
    fs::create_dir_all(&dir).expect("create dir");
    let mut writer =
        SegmentWriter::create(dir.join("seg-00-00000000.wal")).expect("create segment");
    writer.append(0, &removed(0)).expect("append");
    writer.append(1, &removed(1)).expect("append");
    writer.append(2, odd).expect("append");
    writer.append(3, &removed(3)).expect("append");
    writer.sync().expect("sync");
    dir
}

/// Both readers must refuse `dir`, naming the segment, the offset of the
/// third frame and its first byte.
fn assert_refused(dir: &Path, first_byte: u8, why: &str) {
    // Segment header, then two 22-byte payloads behind 8-byte frame headers.
    let offset = 12 + 2 * (8 + 22);
    let check = |err: io::Error| {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let text = err.to_string();
        for part in [
            "seg-00-00000000.wal".to_owned(),
            format!("offset {offset}"),
            format!("first byte 0x{first_byte:02x}"),
            why.to_owned(),
        ] {
            assert!(text.contains(&part), "{text:?} does not mention {part:?}");
        }
    };
    check(recover(dir, OakConfig::default()).expect_err("recover must refuse"));
    check(tail_wal(&RealFs, dir, 0).expect_err("tail must refuse"));
    // Booting a store over it fails the same way, before anything is
    // compacted away.
    let before = fs::read(dir.join("seg-00-00000000.wal")).expect("read segment");
    let options = StoreOptions::default();
    check(OakStore::boot(dir, OakConfig::default(), options).expect_err("boot must refuse"));
    assert_eq!(
        fs::read(dir.join("seg-00-00000000.wal")).expect("read segment"),
        before
    );
}

#[test]
fn a_frame_from_a_newer_build_is_refused_not_truncated() {
    let dir = journal_around("formats-newer", &from_a_newer_build());
    assert_refused(&dir, EVENT_VERSION + 1, "unsupported event version 0x02");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_frame_whose_body_fails_its_bounds_checks_is_refused_not_truncated() {
    let dir = journal_around("formats-bounds", &lying_pruned(4));
    assert_refused(&dir, EVENT_VERSION, "1000 pruned users cannot fit");
    fs::remove_dir_all(&dir).ok();

    // So does a frame from before the byte layout: its JSON opens with a
    // byte that is no event version.
    let dir = journal_around("formats-json", br#"{"seq":2,"t":"rule_removed","id":9}"#);
    assert_refused(&dir, b'{', "unsupported event version 0x7b");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crc_failure_is_still_a_torn_tail() {
    let dir = journal_around("formats-torn", &removed(2));
    let segment = dir.join("seg-00-00000000.wal");
    let mut bytes = fs::read(&segment).expect("read segment");
    // One bit inside the third frame's payload.
    bytes[12 + 2 * (8 + 22) + 8 + 3] ^= 0x01;
    fs::write(&segment, &bytes).expect("write damaged segment");
    let recovered = recover(&dir, OakConfig::default()).expect("a torn tail recovers");
    assert_eq!(recovered.torn_segments, 1);
    assert_eq!(recovered.replayed_seqs, vec![0, 1]);
    assert_eq!(shipped(&dir, 0).len(), 2);

    // So is the run of zeroes a filesystem can leave behind a crash: its
    // CRC field matches its empty payload, and it is no frame of ours.
    bytes.truncate(12 + 2 * (8 + 22));
    bytes.extend_from_slice(&[0; 64]);
    fs::write(&segment, &bytes).expect("write zero-filled segment");
    let recovered = recover(&dir, OakConfig::default()).expect("a zero-filled tail recovers");
    assert_eq!(recovered.torn_segments, 1);
    assert_eq!(recovered.replayed_seqs, vec![0, 1]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unreadable_frame_below_the_watermark_is_only_skipped_if_its_header_says_so() {
    // Frames a snapshot already covers are skipped on the `seq` in their
    // header. A frame whose version byte is unknown has no header this
    // build can trust, so it is refused wherever it sits.
    let dir = journal_around("formats-skip", &from_a_newer_build());
    assert!(tail_wal(&RealFs, &dir, 3).is_err());
    fs::remove_dir_all(&dir).ok();

    // A current-version frame with a body that does not decode *is*
    // skipped below the watermark: nothing will ever replay it.
    let dir = journal_around("formats-skip-body", &lying_pruned(0));
    assert!(tail_wal(&RealFs, &dir, 2).is_err());
    assert_eq!(shipped(&dir, 3).len(), 1);
    fs::remove_dir_all(&dir).ok();
}

/// Every event an engine emits, in the order it emits them.
#[derive(Default)]
struct Journal(Mutex<Vec<SequencedEvent>>);

impl EventSink for Journal {
    fn record(&self, _shard: Option<usize>, event: &SequencedEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// Five objects, `slow_host` far out of family when `slow_ms` says so.
/// Every timing is dyadic, so sums fold exactly in any grouping.
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

/// The history behind `tests/golden/state_image_v3.hex`, the image a
/// sixteen-shard build wrote of it (oak-core's state image tests build
/// the same engine).
fn golden_history(oak: &Oak) {
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
    ingest(10, "u-1", "cdn-a.example", 900.5);
    oak.modify_page(Instant(70_000), "u-1", "/index.html", "<html></html>");
    ingest(70_010, "u-1", "cdn-a.example", 900.5);
    ingest(70_020, "u-1", mirror_of("u-1"), 4_000.0);
    ingest(70_030, "u-1", mirror_of("u-1"), 4_000.0);
    ingest(70_040, "u-2", "api-2.example", 700.0);
    ingest(70_050, "u-2", "cdn-a.example", 812.125);
    ingest(70_060, "ü-3", "ok.example", 85.0);
    oak.force_activate(Instant(70_070), "ü-3", strikes);
}

/// The engine shard a sixteen-shard build kept `user` on: FNV-1a of the
/// name, modulo sixteen.
fn old_shard(user: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % 16) as u32
}

/// The segment slot a sixteen-shard build journaled `event` in: its
/// user's shard, and 16 for a rule edit.
fn old_slot(event: &SequencedEvent) -> u32 {
    match &event.event {
        EngineEvent::RuleAdded { .. } | EngineEvent::RuleRemoved { .. } => 16,
        EngineEvent::Ingest(effect) => old_shard(effect.parts().user),
        EngineEvent::ForceActivate { user, .. }
        | EngineEvent::ForceDeactivate { user, .. }
        | EngineEvent::ServeExpiry { user, .. } => old_shard(user),
        EngineEvent::Pruned { users } => old_shard(&users[0]),
    }
}

/// A segment file as that build wrote it: the header names the slot's
/// shard (`u32::MAX` for rule edits), then one frame per event.
fn old_segment(slot: u32, events: &[&SequencedEvent]) -> Vec<u8> {
    let mut bytes = SEGMENT_MAGIC.to_vec();
    let shard = if slot == 16 { u32::MAX } else { slot };
    bytes.extend_from_slice(&shard.to_le_bytes());
    for event in events {
        bytes.extend_from_slice(&encode_frame(&event.encode()));
    }
    bytes
}

/// A store directory as the sixteen-shard build left it — a version 0x03
/// snapshot, sealed per-shard segments the snapshot covers, and the
/// per-shard segments it was appending to when it stopped, whose frames
/// interleave in seq and one of which it never sealed — boots to the
/// engine that applying every event in seq order builds, and boots to
/// it again from the directory that boot leaves.
#[test]
fn a_directory_of_per_shard_segments_and_a_v3_snapshot_boots() {
    let journal = Arc::new(Journal::default());
    let mut live = Oak::new(OakConfig::default());
    live.set_event_sink(journal.clone());
    golden_history(&live);
    let watermark = live.event_seq();
    // After the snapshot: users on different old shards take turns, with
    // a rule edit between them.
    let users = ["u-1", "u-2", "u-5", "u-6"];
    let slots: Vec<u32> = users.iter().map(|user| old_shard(user)).collect();
    assert!(slots.windows(2).all(|pair| pair[0] != pair[1]));
    for round in 0..3u64 {
        for (i, user) in users.iter().enumerate() {
            let at = 80_000 + round * 100 + i as u64;
            live.ingest_report(Instant(at), &report(user, "cdn-a.example", 900.5), &NoFetch);
        }
        if round == 1 {
            live.add_rule(Rule::remove("<!-- late -->")).unwrap();
        }
    }
    let events = journal.0.lock().unwrap().clone();
    assert!(events.windows(2).all(|pair| pair[0].seq < pair[1].seq));

    let golden = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/state_image_v3.hex"),
    )
    .expect("golden present");
    let hex: String = golden.lines().skip(2).collect();
    let image: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect();
    assert_eq!(image[0], STATE_IMAGE_V3);
    assert_eq!(
        image[5..13],
        watermark.to_le_bytes(),
        "the golden's watermark"
    );

    let dir = temp_dir("formats-sixteen-shards");
    fs::create_dir_all(&dir).expect("create dir");
    let mut snapshot = SNAPSHOT_MAGIC.to_vec();
    snapshot.extend_from_slice(&encode_frame(&image));
    fs::write(dir.join(format!("snap-{watermark:020}.snap")), snapshot).expect("write snapshot");
    let mut id = 0;
    for covered in [true, false] {
        for slot in 0..=16 {
            let held: Vec<&SequencedEvent> = (events.iter())
                .filter(|e| (e.seq < watermark) == covered && old_slot(e) == slot)
                .collect();
            let Some(max_seq) = held.last().map(|e| e.seq) else {
                continue;
            };
            // The slot of the first user after the snapshot was never sealed.
            let name = if !covered && slot == slots[0] {
                format!("seg-{slot:02}-{id:08}.wal")
            } else {
                format!("seg-{slot:02}-{id:08}-{max_seq:020}.wal")
            };
            fs::write(dir.join(name), old_segment(slot, &held)).expect("write segment");
            id += 1;
        }
    }

    let replayed = Oak::new(OakConfig::default());
    for event in &events {
        replayed.apply_event(event);
    }
    let options = StoreOptions::default();
    for life in 0..2 {
        let boot = OakStore::boot(&dir, OakConfig::default(), options).expect("boots");
        assert!(boot.snapshot_loaded);
        if life == 0 {
            assert_eq!(boot.events_replayed, events.len() as u64 - watermark);
        }
        assert_eq!(
            boot.oak.snapshot_json().to_string(),
            replayed.snapshot_json().to_string()
        );
        assert_eq!(boot.oak.state_image(), replayed.state_image());
        assert_eq!(boot.oak.reports_from("u-5"), 3);
    }
    fs::remove_dir_all(&dir).ok();
}
