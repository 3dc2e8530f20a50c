//! What a reader makes of frames this build did not write: journals from
//! before the event byte layout still recover (legacy read, no legacy
//! write), and a checksum-valid frame this build cannot read is refused
//! rather than treated as the end of the log.

mod common;

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use common::{apply_op, fingerprint, seed_rules, temp_dir, Op};
use oak_core::engine::{Oak, OakConfig};
use oak_core::events::{EngineEvent, SequencedEvent, EVENT_VERSION};
use oak_core::rule::RuleId;
use oak_store::segment::SegmentWriter;
use oak_store::{recover, tail_wal, FsyncPolicy, OakStore, RealFs, StoreOptions, Tail};

/// `tests/golden/legacy_journal.jsonl`: the frame payloads the last
/// JSON-writing build journaled for `seed_rules` plus the first eight of
/// [`OPS`] (epoch raised to 2 before the sixth) — every `EngineEvent`
/// variant at least once, text captured from that build's encoder.
const LEGACY_JOURNAL: &str = include_str!("golden/legacy_journal.jsonl");

const OPS: [Op; 11] = [
    (0, 1, 0),
    (1, 2, 1),
    (4, 3, 1),
    (5, 3, 1),
    (3, 1, 0),
    (7, 0, 3),
    (2, 4, 0),
    (6, 0, 0),
    // Past the legacy journal's end:
    (0, 5, 2),
    (4, 2, 3),
    (3, 5, 2),
];

/// Journals the workload through a store into `dir`, as this build
/// writes it; returns the live engine's fingerprint.
fn journal_workload(dir: &Path) -> String {
    let options = StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    };
    let store = Arc::new(OakStore::open(dir, options).expect("open store"));
    let mut oak = Oak::new(OakConfig::default());
    oak.set_event_sink(store);
    seed_rules(&oak);
    for (step, op) in OPS.into_iter().enumerate() {
        if step == 5 {
            oak.set_epoch(2);
        }
        apply_op(&oak, step, op);
    }
    fingerprint(&oak)
}

fn shipped(dir: &Path, from_seq: u64) -> Vec<SequencedEvent> {
    match tail_wal(&RealFs, dir, from_seq).expect("tail") {
        Tail::Events(events) => events,
        Tail::Compacted { watermark } => panic!("unexpected Compacted {{ {watermark} }}"),
    }
}

#[test]
fn a_legacy_journal_recovers_and_ships_like_its_binary_twin() {
    let binary = temp_dir("formats-binary");
    let live = journal_workload(&binary);
    let events = shipped(&binary, 0);
    let legacy_frames: Vec<&str> = LEGACY_JOURNAL.lines().collect();
    assert!(events.len() > legacy_frames.len());

    // The same history as an upgraded node holds it: JSON frames from
    // the old build, then this build's frames after them.
    let mixed = temp_dir("formats-mixed");
    fs::create_dir_all(&mixed).expect("create dir");
    let mut writer =
        SegmentWriter::create(mixed.join("seg-16-00000000.wal"), None).expect("create segment");
    for (seq, json) in legacy_frames.iter().enumerate() {
        assert!(json.starts_with('{'));
        writer.append(seq as u64, json.as_bytes()).expect("append");
    }
    for event in &events[legacy_frames.len()..] {
        let payload = event.encode();
        assert_eq!(payload[0], EVENT_VERSION);
        writer.append(event.seq, &payload).expect("append");
    }
    writer.sync().expect("sync");
    drop(writer);

    let recovered = recover(&mixed, OakConfig::default()).expect("recover mixed journal");
    assert_eq!(recovered.torn_segments, 0);
    assert_eq!(recovered.events_replayed, events.len() as u64);
    assert_eq!(fingerprint(&recovered.oak), live);
    let twin = recover(&binary, OakConfig::default()).expect("recover binary journal");
    assert_eq!(fingerprint(&twin.oak), live);

    // And `tail_wal` ships the same run from either, byte for byte once
    // encoded — from the start, and from inside the legacy part.
    for from in [0, 7] {
        let (a, b) = (shipped(&mixed, from), shipped(&binary, from));
        assert_eq!(a.len(), events.len() - from as usize);
        let encoded = |run: &[SequencedEvent]| run.iter().map(|e| e.encode()).collect::<Vec<_>>();
        assert_eq!(encoded(&a), encoded(&b));
    }
    fs::remove_dir_all(&binary).ok();
    fs::remove_dir_all(&mixed).ok();
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
        SegmentWriter::create(dir.join("seg-16-00000000.wal"), None).expect("create segment");
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
            "seg-16-00000000.wal".to_owned(),
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
    let before = fs::read(dir.join("seg-16-00000000.wal")).expect("read segment");
    let options = StoreOptions::default();
    check(OakStore::boot(dir, OakConfig::default(), options).expect_err("boot must refuse"));
    assert_eq!(
        fs::read(dir.join("seg-16-00000000.wal")).expect("read segment"),
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

    // Legacy frames get the same treatment: JSON that is not an event.
    let dir = journal_around("formats-json", br#"{"seq":2,"t":"no_such_event"}"#);
    assert_refused(&dir, b'{', "unknown event type");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crc_failure_is_still_a_torn_tail() {
    let dir = journal_around("formats-torn", &removed(2));
    let segment = dir.join("seg-16-00000000.wal");
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
