//! What recovery makes of the snapshot files it finds: a file from before
//! the state image still boots (legacy read, no legacy write), and a
//! snapshot this build cannot read is never quietly replaced by less
//! state than the directory held.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{apply_op, fingerprint, scripted_ops, seed_rules, temp_dir};
use oak_core::engine::{Oak, OakConfig};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::Instant;
use oak_store::segment::{frame_header, FRAME_OVERHEAD};
use oak_store::store::SNAPSHOT_MAGIC;
use oak_store::{recover, FsyncPolicy, OakStore, StoreOptions};

/// `tests/golden/legacy_snapshot.snap`: the `OAKSNAP1` file the last
/// build that wrote the snapshot document left for [`legacy_workload`] —
/// every row kind of the document, the `epoch` key included.
const LEGACY_SNAPSHOT: &[u8] = include_bytes!("golden/legacy_snapshot.snap");

/// Journals `seed_rules` and sixty scripted operations (epoch raised to 2
/// before the thirtieth) into `dir`; returns the live engine.
fn legacy_workload(dir: &Path) -> Oak {
    let options = StoreOptions {
        fsync: FsyncPolicy::Never,
        ..StoreOptions::default()
    };
    let store = Arc::new(OakStore::open(dir, options).expect("open store"));
    let mut oak = Oak::new(OakConfig::default());
    oak.set_event_sink(store);
    seed_rules(&oak);
    for (step, op) in scripted_ops(7, 60).into_iter().enumerate() {
        if step == 30 {
            oak.set_epoch(2);
        }
        apply_op(&oak, step, op);
    }
    oak
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "snap"))
        .collect();
    snaps.sort();
    snaps
}

fn document(oak: &Oak) -> String {
    oak.snapshot_json().to_string()
}

#[test]
fn a_legacy_snapshot_file_boots_to_the_same_state() {
    let live_dir = temp_dir("snapshots-legacy-live");
    let live = legacy_workload(&live_dir);
    assert_eq!(&LEGACY_SNAPSHOT[..8], b"OAKSNAP1");
    assert_eq!(
        LEGACY_SNAPSHOT[16], b'{',
        "the framed payload is the document"
    );

    // The file alone, under the name its watermark gives it.
    let dir = temp_dir("snapshots-legacy");
    fs::create_dir_all(&dir).expect("create dir");
    let name = format!("snap-{:020}.snap", live.event_seq());
    fs::write(dir.join(&name), LEGACY_SNAPSHOT).expect("write golden");
    let recovered = recover(&dir, OakConfig::default()).expect("recover");
    assert!(recovered.snapshot_loaded);
    assert_eq!(recovered.events_replayed, 0);
    assert_eq!(recovered.oak.epoch(), 2);
    assert_eq!(document(&recovered.oak), document(&live));

    // Legacy read, no legacy write: the boot snapshot that supersedes it
    // is a state image, and says the same.
    let boot = OakStore::boot(&dir, OakConfig::default(), StoreOptions::default()).expect("boot");
    assert!(boot.snapshot_loaded);
    drop(boot);
    // Same watermark, same name: the image took the document's place.
    assert_eq!(snapshot_files(&dir), [dir.join(&name)]);
    let bytes = fs::read(dir.join(&name)).expect("read boot snapshot");
    assert_eq!(&bytes[..8], SNAPSHOT_MAGIC);
    assert_eq!(&bytes[..8], b"OAKSNAP2");
    let again = recover(&dir, OakConfig::default()).expect("recover from the image");
    assert!(again.snapshot_loaded);
    assert_eq!(document(&again.oak), document(&live));

    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&live_dir).ok();
}

const USERS: u64 = 40;

/// 25,000 reports from forty users through the shipped store options:
/// the two kept snapshots stand past events 10,000 and 20,000, and the WAL
/// below the older one is compacted away. Returns the live document.
fn compacted_store(dir: &Path) -> String {
    let boot = OakStore::boot(dir, OakConfig::default(), StoreOptions::default()).expect("boot");
    seed_rules(&boot.oak);
    for i in 0..25_000u64 {
        let mut report = PerfReport::new(format!("user-{}", i % USERS), "/index.html");
        for host in 0..5 {
            let slow = if host == i % 5 { 800.0 } else { 0.0 };
            report.push(ObjectTiming::new(
                format!("http://cdn{host}.example/lib.js"),
                format!("10.0.{host}.1"),
                30_000,
                80.0 + host as f64 + slow,
            ));
        }
        boot.oak.ingest_report(Instant(i), &report, &NoFetch);
        boot.store.maybe_snapshot(&boot.oak).expect("snapshot");
    }
    assert_eq!(boot.store.write_errors(), 0);
    boot.store.sync_all().expect("sync");
    document(&boot.oak)
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

fn contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .map(|path| (path.clone(), fs::read(path).expect("read file")))
        .collect()
}

fn flip_a_byte(path: &Path) {
    let mut bytes = fs::read(path).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(path, bytes).expect("write corrupted snapshot");
}

/// Rewrites the snapshot at `path` as a later build might have written
/// it: the same frame, checksum and all, around an image whose version
/// byte is 0x02.
fn stamp_a_newer_version(path: &Path) {
    let bytes = fs::read(path).expect("read snapshot");
    let at = SNAPSHOT_MAGIC.len() + FRAME_OVERHEAD;
    let mut image = bytes[at..].to_vec();
    assert_eq!(image[0], 1);
    image[0] = 2;
    let mut file = SNAPSHOT_MAGIC.to_vec();
    file.extend_from_slice(&frame_header(&image).expect("header"));
    file.extend_from_slice(&image);
    fs::write(path, file).expect("write restamped snapshot");
}

/// Boots `dir`, expecting the refusal; returns its message after checking
/// that not one byte of the directory changed.
fn refused(dir: &Path) -> String {
    let before = contents(dir);
    let error = OakStore::boot(dir, OakConfig::default(), StoreOptions::default())
        .expect_err("a partial engine booted");
    assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    assert!(recover(dir, OakConfig::default()).is_err());
    assert_eq!(contents(dir), before, "the refusal touched the directory");
    error.to_string()
}

#[test]
fn an_unreadable_snapshot_is_never_replaced_by_a_partial_engine() {
    let dir = temp_dir("snapshots-compacted");
    let live = compacted_store(&dir);
    let snaps = snapshot_files(&dir);
    assert_eq!(snaps.len(), 2, "keep_snapshots: 2");
    let (older, newest) = (&snaps[0], &snaps[1]);

    // The newest alone: the older one and the WAL kept behind it carry
    // everything, as they always did.
    let copy = copy_dir(&dir, "snapshots-newest");
    flip_a_byte(&copy.join(newest.file_name().unwrap()));
    let boot = OakStore::boot(&copy, OakConfig::default(), StoreOptions::default()).expect("boot");
    assert!(boot.snapshot_loaded);
    assert!((10_000..20_000).contains(&boot.watermark));
    assert_eq!(document(&boot.oak), live);
    drop(boot);
    fs::remove_dir_all(&copy).ok();

    // Both: the WAL starts past event 10,000, and what came before is in
    // neither file. Booting the rest would let the next compaction make
    // the loss permanent.
    let copy = copy_dir(&dir, "snapshots-both");
    for snap in &snaps {
        flip_a_byte(&copy.join(snap.file_name().unwrap()));
    }
    let message = refused(&copy);
    for snap in &snaps {
        let name = snap.file_name().unwrap().to_string_lossy().into_owned();
        assert!(message.contains(&name), "{message} does not name {name}");
    }
    assert!(
        message.contains("snapshot frame torn or corrupt"),
        "{message}"
    );
    fs::remove_dir_all(&copy).ok();

    // A downgrade: every snapshot is an image of a version this build
    // does not know. An error, not an empty engine.
    let copy = copy_dir(&dir, "snapshots-newer");
    for snap in &snaps {
        stamp_a_newer_version(&copy.join(snap.file_name().unwrap()));
    }
    let message = refused(&copy);
    assert!(
        message.contains("unsupported state image version 0x02 (expected 0x01)"),
        "{message}"
    );
    // With the older one still readable, the newer build's file is
    // skipped like any other this build cannot read.
    fs::copy(older, copy.join(older.file_name().unwrap())).expect("restore the older snapshot");
    let recovered = recover(&copy, OakConfig::default()).expect("recover");
    assert_eq!(document(&recovered.oak), live);
    fs::remove_dir_all(&copy).ok();
    fs::remove_dir_all(&dir).ok();
}

/// A refused snapshot that stood for nothing the WAL does not still hold
/// costs nothing: the log is replayed from its start, as before.
#[test]
fn an_unreadable_snapshot_over_a_whole_journal_is_replayed_around() {
    let dir = temp_dir("snapshots-whole");
    let live = {
        let options = StoreOptions {
            fsync: FsyncPolicy::Always,
            ..StoreOptions::default()
        };
        let boot = OakStore::boot(&dir, OakConfig::default(), options).expect("boot");
        seed_rules(&boot.oak);
        for (step, op) in scripted_ops(3, 30).into_iter().enumerate() {
            apply_op(&boot.oak, step, op);
        }
        fingerprint(&boot.oak)
    };
    let snaps = snapshot_files(&dir);
    assert_eq!(snaps.len(), 1, "the boot snapshot, at watermark 0");
    flip_a_byte(&snaps[0]);
    let recovered = recover(&dir, OakConfig::default()).expect("recover");
    assert!(!recovered.snapshot_loaded);
    assert_eq!(recovered.replayed_seqs.first(), Some(&0));
    assert_eq!(fingerprint(&recovered.oak), live);
    fs::remove_dir_all(&dir).ok();
}
