//! Crash-recovery torture: truncate and corrupt WAL files at arbitrary
//! byte offsets and prove recovery always yields a valid prefix state —
//! never a panic, never a partially-applied frame.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{apply_op, fingerprint, scripted_ops, seed_rules, temp_dir, violating_report};
use oak_core::engine::{Oak, OakConfig, LOG_BYTES};
use oak_core::events::SequencedEvent;
use oak_core::matching::NoFetch;
use oak_core::Instant;
use oak_store::segment::parse_segment;
use oak_store::{recover, tail_wal, FsyncPolicy, OakStore, RealFs, StoreOptions, Tail};

fn always_fsync() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    }
}

/// Journals a scripted workload into `dir`; returns the live fingerprint.
fn build_wal(dir: &Path, seed: u64, ops: usize) -> String {
    let store = Arc::new(OakStore::open(dir, always_fsync()).expect("open store"));
    let mut oak = Oak::new(OakConfig::default());
    oak.set_event_sink(store.clone());
    seed_rules(&oak);
    for (step, op) in scripted_ops(seed, ops).into_iter().enumerate() {
        apply_op(&oak, step, op);
    }
    fingerprint(&oak)
}

fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "wal"))
        .collect();
    files.sort();
    files
}

fn copy_dir(from: &Path, tag: &str) -> PathBuf {
    let to = temp_dir(tag);
    fs::create_dir_all(&to).expect("create copy dir");
    for entry in fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
    to
}

/// The events a damaged directory still yields, computed independently of
/// `recover` (straight off the frames), for cross-checking.
fn salvageable_events(dir: &Path) -> Vec<SequencedEvent> {
    let mut events = Vec::new();
    for path in wal_files(dir) {
        let buf = fs::read(&path).expect("read segment");
        for (_, payload) in parse_segment(&buf).frames {
            events.push(SequencedEvent::decode(payload).expect("a CRC-valid frame decodes"));
        }
    }
    events.sort_by_key(|e| e.seq);
    events
}

/// Asserts the one torture invariant: recovery of `dir` succeeds without
/// panicking, and the rebuilt engine is exactly the replay of the frames
/// that survived — a valid prefix per segment, nothing partial.
fn assert_valid_prefix_recovery(dir: &Path) {
    let recovered = recover(dir, OakConfig::default()).expect("recover damaged dir");
    let reference = Oak::new(OakConfig::default());
    for event in salvageable_events(dir) {
        reference.apply_event(&event);
    }
    assert_eq!(
        fingerprint(&recovered.oak),
        fingerprint(&reference),
        "recovered state must equal replay of the surviving frame prefix"
    );
    // One reader: what `tail` would ship from this directory is the
    // gap-free front of what recovery just replayed.
    let shipped = match tail_wal(&RealFs, dir, recovered.watermark).expect("tail damaged dir") {
        Tail::Events(events) => events,
        Tail::Compacted { .. } => panic!("nothing here was compacted"),
    };
    let front = recovered
        .replayed_seqs
        .iter()
        .zip(recovered.watermark..)
        .take_while(|(seq, want)| *seq == want)
        .count();
    assert_eq!(
        shipped.iter().map(|e| e.seq).collect::<Vec<_>>(),
        recovered.replayed_seqs[..front],
        "tail and recovery must read the same events out of the same files"
    );
}

#[test]
fn pristine_wal_recovers_exactly() {
    let dir = temp_dir("pristine");
    let live = build_wal(&dir, 11, 60);
    let recovered = recover(&dir, OakConfig::default()).expect("recover");
    assert_eq!(recovered.torn_segments, 0);
    assert_eq!(fingerprint(&recovered.oak), live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_offset_yields_valid_prefix() {
    let dir = temp_dir("trunc-src");
    build_wal(&dir, 23, 40);
    for target in wal_files(&dir) {
        let len = fs::metadata(&target).expect("metadata").len();
        // Every offset on small files would be slow across all segments;
        // a stride plus the first/last few bytes covers header cuts,
        // mid-frame cuts, and frame-boundary cuts.
        let mut cuts: Vec<u64> = (0..len).step_by(37).collect();
        cuts.extend(len.saturating_sub(5)..=len);
        for cut in cuts {
            let copy = copy_dir(&dir, "trunc");
            let victim = copy.join(target.file_name().expect("file name"));
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&victim)
                .expect("open victim");
            file.set_len(cut).expect("truncate");
            drop(file);
            assert_valid_prefix_recovery(&copy);
            fs::remove_dir_all(&copy).ok();
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_at_arbitrary_offsets_yields_valid_prefix() {
    let dir = temp_dir("corrupt-src");
    build_wal(&dir, 31, 40);
    for target in wal_files(&dir) {
        let pristine = fs::read(&target).expect("read segment");
        for offset in (0..pristine.len()).step_by(23) {
            for flip in [0x01u8, 0x80, 0xFF] {
                let copy = copy_dir(&dir, "corrupt");
                let victim = copy.join(target.file_name().expect("file name"));
                let mut bytes = pristine.clone();
                bytes[offset] ^= flip;
                fs::write(&victim, &bytes).expect("write corrupted");
                assert_valid_prefix_recovery(&copy);
                fs::remove_dir_all(&copy).ok();
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_snapshot_falls_back_without_loss() {
    let dir = temp_dir("snapfall");
    let live = {
        let store = Arc::new(OakStore::open(&dir, always_fsync()).expect("open store"));
        let mut oak = Oak::new(OakConfig::default());
        oak.set_event_sink(store.clone());
        seed_rules(&oak);
        let ops = scripted_ops(41, 60);
        for (step, op) in ops.iter().enumerate() {
            apply_op(&oak, step, *op);
            if step == 20 || step == 40 {
                store.snapshot(&oak).expect("snapshot");
            }
        }
        fingerprint(&oak)
    };
    let newest = {
        let mut snaps: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
            .collect();
        snaps.sort();
        assert_eq!(snaps.len(), 2, "keep_snapshots: 2 holds two snapshots");
        snaps.pop().expect("newest snapshot")
    };

    // Flip one byte inside the newest snapshot's payload: its CRC fails,
    // recovery falls back to the older snapshot — and because segments
    // compact only below the *oldest kept* watermark, the WAL still holds
    // everything since that older snapshot. No state is lost.
    let mut bytes = fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, &bytes).expect("write corrupted snapshot");

    let recovered = recover(&dir, OakConfig::default()).expect("recover");
    assert!(recovered.snapshot_loaded, "older snapshot still loads");
    assert_eq!(fingerprint(&recovered.oak), live);
    fs::remove_dir_all(&dir).ok();
}

/// The activity log's byte budget across a crash: reports whose violator
/// IPs are 64 KiB long trim the log before a snapshot and after it, the
/// last WAL frame is torn, and recovery rebuilds the engine as it stood
/// before that frame — its image byte for byte, the trimmed window
/// included.
#[test]
fn a_trimmed_log_recovers_past_a_torn_tail() {
    let dir = temp_dir("trimmed");
    let store = Arc::new(OakStore::open(&dir, always_fsync()).expect("open store"));
    let mut oak = Oak::new(OakConfig::default());
    oak.set_event_sink(store.clone());
    seed_rules(&oak);
    let ip = "9".repeat(64 << 10);
    let mut live = Vec::new();
    for n in 0..100 {
        if n == 70 {
            assert!(oak.log().len() < n, "the log trimmed before the snapshot");
            store.snapshot(&oak).expect("snapshot");
        }
        if n == 99 {
            live = oak.state_image().1;
        }
        // cdn3's rule has no TTL and needs one violation: each report
        // logs exactly one activation, for a user of its own.
        let mut report = violating_report(0, 3);
        report.user = format!("hostile-{n}");
        report.entries[0].ip = ip.clone();
        let outcome = oak.ingest_report(Instant(n as u64 * 10), &report, &NoFetch);
        assert_eq!(outcome.activated.len(), 1);
    }
    assert!(oak.log_bytes() <= LOG_BYTES);
    drop(oak);
    drop(store);

    let live_segment = wal_files(&dir)
        .into_iter()
        .find(|path| {
            let name = path.file_stem().and_then(|stem| stem.to_str());
            name.is_some_and(|name| name.split('-').count() == 3)
        })
        .expect("the live segment");
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&live_segment)
        .expect("open live segment");
    let len = file.metadata().expect("metadata").len();
    file.set_len(len - 100).expect("tear the last frame");
    drop(file);

    let recovered = recover(&dir, OakConfig::default()).expect("recover");
    assert!(recovered.snapshot_loaded);
    assert_eq!(recovered.torn_segments, 1);
    assert!(
        recovered.oak.state_image().1 == live,
        "recovered another state"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_garbage_directories_recover_empty() {
    // No directory at all.
    let missing = temp_dir("missing");
    let recovered = recover(&missing, OakConfig::default()).expect("recover missing");
    assert!(!recovered.snapshot_loaded);
    assert_eq!(recovered.events_replayed, 0);

    // A directory holding a file that is pure garbage under WAL names, and
    // one under the name of a snapshot at watermark 0 — which claims no
    // event the empty journal lacks.
    let dir = temp_dir("garbage");
    fs::create_dir_all(&dir).expect("create dir");
    fs::write(dir.join("seg-00-00000000.wal"), b"not a segment at all").expect("write garbage");
    fs::write(
        dir.join("snap-00000000000000000000.snap"),
        b"nor a snapshot",
    )
    .expect("write");
    let recovered = recover(&dir, OakConfig::default()).expect("recover garbage");
    assert!(!recovered.snapshot_loaded);
    assert_eq!(recovered.events_replayed, 0);
    assert_eq!(recovered.torn_segments, 1);

    // Under a later watermark it claims events the journal does not hold:
    // a refusal naming it, not an empty engine.
    let later = dir.join("snap-00000000000000000001.snap");
    fs::rename(dir.join("snap-00000000000000000000.snap"), &later).expect("rename");
    let err = recover(&dir, OakConfig::default()).expect_err("a claimed event is missing");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("snap-00000000000000000001.snap"),
        "{err}"
    );
    fs::remove_dir_all(&dir).ok();
}
