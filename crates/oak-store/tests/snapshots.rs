//! What recovery makes of the snapshot files it finds: a snapshot this
//! build cannot read — damaged, from a newer build, or a file from before
//! the state image — is never quietly replaced by less state than the
//! directory held.

mod common;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{apply_op, fingerprint, scripted_ops, seed_rules, temp_dir, Op};
use oak_core::engine::{Oak, OakConfig};
use oak_core::events::{EventSink, SequencedEvent};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::Instant;
use oak_store::segment::{frame_header, FRAME_OVERHEAD};
use oak_store::store::SNAPSHOT_MAGIC;
use oak_store::{recover, FsyncPolicy, OakStore, StoreOptions};

/// A sink that keeps nothing: with it attached, an engine allocates
/// event sequence numbers as a journaling one does.
struct Discard;

impl EventSink for Discard {
    fn record(&self, _: Option<usize>, _: &SequencedEvent) {}
}

/// `seed_rules` then `ops`, on an engine that allocates sequence numbers.
fn primary(ops: &[Op]) -> Oak {
    let mut oak = Oak::new(OakConfig::default());
    oak.set_event_sink(Arc::new(Discard));
    seed_rules(&oak);
    for (step, op) in ops.iter().enumerate() {
        apply_op(&oak, step, *op);
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
/// byte is 0x05.
fn stamp_a_newer_version(path: &Path) {
    let bytes = fs::read(path).expect("read snapshot");
    let at = SNAPSHOT_MAGIC.len() + FRAME_OVERHEAD;
    let mut image = bytes[at..].to_vec();
    assert_eq!(image[0], 4);
    image[0] = 5;
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
        message.contains("unsupported state image version 0x05 (expected 0x02, 0x03 or 0x04)"),
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

/// A snapshot file from before the state image (`OAKSNAP1`, the snapshot
/// document as text) is refused like any file this build cannot read,
/// and named.
#[test]
fn a_snapshot_file_from_before_the_state_image_is_refused() {
    let live = primary(&scripted_ops(7, 60));
    let doc = document(&live);
    let mut file = b"OAKSNAP1".to_vec();
    file.extend_from_slice(&frame_header(doc.as_bytes()).expect("header"));
    file.extend_from_slice(doc.as_bytes());
    let dir = temp_dir("snapshots-document");
    fs::create_dir_all(&dir).expect("create dir");
    let name = format!("snap-{:020}.snap", live.event_seq());
    fs::write(dir.join(&name), file).expect("write snapshot");
    let message = refused(&dir);
    assert!(message.contains(&name), "{message} does not name {name}");
    assert!(message.contains("snapshot magic mismatch"), "{message}");
    fs::remove_dir_all(&dir).ok();
}

/// A follower that installs a primary's state image: its boot snapshot at
/// watermark 0, the first `journaled` operations of the primary's history
/// in its WAL, and the install's snapshot above them with nothing
/// journaled at or past it. Returns the install's snapshot file.
fn installed(dir: &Path, journaled: usize) -> PathBuf {
    let ops = scripted_ops(11, 40);
    let live = primary(&ops);
    let boot = OakStore::boot(dir, OakConfig::default(), StoreOptions::default()).expect("boot");
    if journaled > 0 {
        seed_rules(&boot.oak);
        for (step, op) in ops[..journaled].iter().enumerate() {
            apply_op(&boot.oak, step, *op);
        }
    }
    let (watermark, image) = live.state_image();
    assert!(boot.oak.event_seq() < watermark);
    let mut fresh = Oak::from_state_image(OakConfig::default(), &image).expect("image loads");
    fresh.set_event_sink(boot.store.clone());
    let install = boot.store.snapshot(&fresh).expect("install");
    boot.store.sync_all().expect("sync");
    assert_eq!(
        snapshot_files(dir).len(),
        2,
        "the boot snapshot and the install"
    );
    let recovered = recover(dir, OakConfig::default()).expect("recover");
    assert_eq!(recovered.watermark, watermark);
    assert_eq!(document(&recovered.oak), document(&live));
    install
}

/// An installed snapshot has no journal beneath it. If it cannot be read,
/// the boot snapshot and the WAL would boot an engine that lacks what the
/// install held — an empty one when nothing was journaled before it, a
/// prefix when some was — so the boot is refused instead, naming it.
#[test]
fn an_unreadable_install_over_an_empty_or_short_journal_is_refused() {
    let damages: [fn(&Path); 2] = [flip_a_byte, stamp_a_newer_version];
    for journaled in [0, 20] {
        for damage in damages {
            let dir = temp_dir("snapshots-install");
            let install = installed(&dir, journaled);
            damage(&install);
            let message = refused(&dir);
            let name = install.file_name().unwrap().to_string_lossy().into_owned();
            assert!(message.contains(&name), "{message} does not name {name}");
            fs::remove_dir_all(&dir).ok();
        }
    }
}
