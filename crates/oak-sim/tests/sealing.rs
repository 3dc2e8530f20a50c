//! Sealing a WAL segment — sync it, then rename it to carry its highest
//! seq — under a crash at each point of that sequence and of the
//! compaction that later deletes sealed files.
//!
//! A probe run logs every mutating call the store makes on a [`SimFs`];
//! the sweep then crashes fresh disks exactly at the calls that matter,
//! under several survival seeds, and requires the surviving directory to
//! recover exactly as it does with every segment renamed back to its
//! unsealed name (the reader then opens every file), and to have lost no
//! acknowledged event.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use oak_core::engine::OakConfig;
use oak_core::events::{EventSink, SequencedEvent};
use oak_core::matching::NoFetch;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::Instant;
use oak_sim::{fingerprint, SimFs, SimFsOptions};
use oak_store::{recover_with, FsyncPolicy, OakStore, StorageBackend, StorageFile, StoreOptions};

/// Tiny thresholds: a segment seals every couple of events, and every
/// twelfth event snapshots and compacts sealed files away.
const OPTIONS: StoreOptions = StoreOptions {
    fsync: FsyncPolicy::Always,
    snapshot_every_events: 12,
    rotate_segment_bytes: 700,
    keep_snapshots: 2,
};
const REPORTS: u64 = 60;

fn dir() -> PathBuf {
    PathBuf::from("/sim/seal")
}

/// One mutating call, in the order the store made it.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    Rename { to: String },
    Remove { name: String },
    SyncDir,
    Other,
}

/// `SimFs`, logging each call that advances its crash clock.
#[derive(Debug)]
struct Logged {
    fs: SimFs,
    log: Arc<Mutex<Vec<Op>>>,
}

#[derive(Debug)]
struct LoggedFile {
    inner: Box<dyn StorageFile>,
    log: Arc<Mutex<Vec<Op>>>,
}

fn name_of(path: &Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

impl StorageFile for LoggedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.log.lock().unwrap().push(Op::Other);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.log.lock().unwrap().push(Op::Other);
        self.inner.sync_data()
    }
}

impl StorageBackend for Logged {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.log.lock().unwrap().push(Op::Other);
        self.fs.create_dir_all(dir)
    }

    fn dir_exists(&self, dir: &Path) -> bool {
        self.fs.dir_exists(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.fs.list_dir(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.fs.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.log.lock().unwrap().push(Op::Other);
        Ok(Box::new(LoggedFile {
            inner: self.fs.create(path)?,
            log: Arc::clone(&self.log),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.log
            .lock()
            .unwrap()
            .push(Op::Rename { to: name_of(to) });
        self.fs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.log.lock().unwrap().push(Op::Remove {
            name: name_of(path),
        });
        self.fs.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.log.lock().unwrap().push(Op::SyncDir);
        self.fs.sync_dir(dir)
    }
}

/// A sealed segment's name, `seg-SS-NNNNNNNN-M.wal`, back to
/// `seg-SS-NNNNNNNN.wal`; any other name as it is.
fn unsealed(name: &str) -> String {
    match name
        .strip_prefix("seg-")
        .and_then(|n| n.strip_suffix(".wal"))
    {
        Some(rest) if rest.matches('-').count() == 2 => {
            format!("seg-{}.wal", &rest[..rest.rfind('-').unwrap()])
        }
        _ => name.to_owned(),
    }
}

fn is_sealed(name: &str) -> bool {
    unsealed(name) != name
}

/// Mirrors every event after the store took it, noting whether the disk
/// was already down (then the append failed and nothing was promised).
struct Mirror {
    store: Arc<OakStore>,
    fs: SimFs,
    events: Mutex<Vec<(SequencedEvent, bool)>>,
}

impl EventSink for Mirror {
    fn record(&self, shard: Option<usize>, event: &SequencedEvent) {
        self.store.record(shard, event);
        let down = self.fs.crashed();
        self.events.lock().unwrap().push((event.clone(), down));
    }
}

fn report(i: u64) -> PerfReport {
    let mut report = PerfReport::new(format!("u-{}", i % 5), "/p");
    for host in 0..4u64 {
        let slow = if host == i % 4 { 900.0 } else { 0.0 };
        report.push(ObjectTiming::new(
            format!("http://cdn{host}.example/lib.js"),
            format!("10.0.{host}.1"),
            30_000,
            80.0 + host as f64 * 5.0 + slow,
        ));
    }
    report
}

/// Journals the workload through a store on `backend`, compacting as the
/// serving path does; returns every event the engine emitted.
fn workload(backend: Arc<dyn StorageBackend>, fs: &SimFs) -> Vec<(SequencedEvent, bool)> {
    let boot = OakStore::boot_with(backend, dir(), OakConfig::default(), OPTIONS)
        .expect("boot on an empty disk");
    let mirror = Arc::new(Mirror {
        store: Arc::clone(&boot.store),
        fs: fs.clone(),
        events: Mutex::new(Vec::new()),
    });
    let mut oak = boot.oak;
    oak.set_event_sink(mirror.clone());
    oak.add_rule(Rule::remove(r#"<script src="http://cdn0.example/lib.js">"#))
        .expect("rule is valid");
    for i in 0..REPORTS {
        oak.ingest_report(Instant(i), &report(i), &NoFetch);
        let _ = boot.store.maybe_snapshot(&oak);
    }
    let events = std::mem::take(&mut *mirror.events.lock().unwrap());
    events
}

/// A copy of `fs`'s store directory on a fresh disk, every segment under
/// its unsealed name.
fn unsealed_copy(fs: &SimFs) -> SimFs {
    let copy = SimFs::new(0, SimFsOptions::default());
    copy.create_dir_all(&dir()).unwrap();
    let mut names = HashSet::new();
    for name in fs.list_dir(&dir()).unwrap() {
        let target = unsealed(&name);
        assert!(
            names.insert(target.clone()),
            "{name} survived under both names"
        );
        let mut file = copy.create(&dir().join(target)).unwrap();
        file.write_all(&fs.read(&dir().join(&name)).unwrap())
            .unwrap();
        file.sync_data().unwrap();
    }
    copy.sync_dir(&dir()).unwrap();
    copy
}

/// Crashes a fresh disk at mutating call `at`, restarts it under
/// `survival`, and checks what survived. Returns the names the restart
/// left.
fn crash_and_check(at: u64, survival: u64) -> Vec<String> {
    let fs = SimFs::new(1, SimFsOptions::default());
    fs.schedule_crash(at, survival);
    let events = workload(Arc::new(fs.clone()), &fs);
    assert!(fs.crashed(), "the crash at call {at} never fired");
    fs.restart();
    let names = fs.list_dir(&dir()).unwrap();

    let backend = |fs: &SimFs| Arc::new(fs.clone()) as Arc<dyn StorageBackend>;
    let recovered = recover_with(backend(&fs), &dir(), OakConfig::default()).expect("recover");
    let twin = unsealed_copy(&fs);
    let reference =
        recover_with(backend(&twin), &dir(), OakConfig::default()).expect("recover copy");
    let at = format!("crash at call {at}, survival seed {survival}");
    assert_eq!(recovered.watermark, reference.watermark, "{at}");
    assert_eq!(recovered.replayed_seqs, reference.replayed_seqs, "{at}");
    assert_eq!(
        fingerprint(&recovered.oak),
        fingerprint(&reference.oak),
        "{at}"
    );

    // Fsync was `Always`: whatever was acknowledged before the crash is
    // in the recovered state.
    let covered: HashSet<u64> = recovered.replayed_seqs.iter().copied().collect();
    for (event, down) in &events {
        assert!(
            *down || event.seq < recovered.watermark || covered.contains(&event.seq),
            "{at}: acknowledged event {} lost",
            event.seq
        );
    }

    // Booting seals what it kept, and boots again to the same state.
    let boot =
        OakStore::boot_with(backend(&fs), dir(), OakConfig::default(), OPTIONS).expect("boot");
    let booted = fingerprint(&boot.oak);
    assert_eq!(booted, fingerprint(&reference.oak), "{at}");
    drop(boot);
    let again = recover_with(backend(&fs), &dir(), OakConfig::default()).expect("recover again");
    assert_eq!(fingerprint(&again.oak), booted, "{at}");
    names
}

/// The calls of a crash-free run.
fn probe() -> Vec<Op> {
    let fs = SimFs::new(1, SimFsOptions::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    workload(
        Arc::new(Logged {
            fs: fs.clone(),
            log: Arc::clone(&log),
        }),
        &fs,
    );
    let calls = std::mem::take(&mut *log.lock().unwrap());
    calls
}

/// The 1-based crash-clock position of each call matching `wanted`.
fn positions(calls: &[Op], wanted: impl Fn(&Op) -> bool) -> Vec<u64> {
    (1..)
        .zip(calls)
        .filter(|(_, op)| wanted(op))
        .map(|(at, _)| at)
        .collect()
}

const SURVIVAL_SEEDS: u64 = 8;

#[test]
fn a_crash_between_a_segments_sync_and_its_durable_rename_recovers_as_unsealed() {
    let calls = probe();
    let seals: Vec<(u64, &Op)> = (1..)
        .zip(&calls)
        .filter(|(_, op)| matches!(op, Op::Rename { to } if is_sealed(to)))
        .collect();
    assert!(
        seals.len() >= 10,
        "the workload seals too little: {}",
        seals.len()
    );
    // The rename itself fails: the crash lands right after the sync. Then
    // the rename is done but not yet durable: the crash keeps either name.
    let mut kept = (false, false);
    for &(seal, op) in seals.iter().step_by(3) {
        let Op::Rename { to } = op else {
            unreachable!()
        };
        for survival in 0..SURVIVAL_SEEDS {
            let names = crash_and_check(seal, survival);
            assert!(!names.contains(to), "a failed rename took effect");
            let names = crash_and_check(seal + 1, survival);
            let sealed = names.contains(to);
            assert!(
                sealed || names.contains(&unsealed(to)),
                "{to} lost under both names"
            );
            if sealed {
                kept.1 = true;
            } else {
                kept.0 = true;
            }
        }
    }
    assert_eq!(kept, (true, true), "a pending rename must be kept and lost");
}

#[test]
fn a_crash_after_a_rename_and_before_the_next_directory_sync_recovers_the_same() {
    let calls = probe();
    // Every call from a seal up to the directory sync that makes it
    // durable, that sync included.
    let mut points = Vec::new();
    for seal in positions(
        &calls,
        |op| matches!(op, Op::Rename { to } if is_sealed(to)),
    ) {
        for at in seal + 1.. {
            let Some(op) = calls.get(at as usize - 1) else {
                break;
            };
            points.push(at);
            if *op == Op::SyncDir {
                break;
            }
        }
    }
    points.sort_unstable();
    points.dedup();
    assert!(points.len() >= 20, "{points:?}");
    for at in points.into_iter().step_by(5) {
        for survival in 0..SURVIVAL_SEEDS / 2 {
            crash_and_check(at, survival);
        }
    }
}

#[test]
fn a_crash_in_the_middle_of_compaction_recovers_the_same() {
    let calls = probe();
    let removals = positions(
        &calls,
        |op| matches!(op, Op::Remove { name } if is_sealed(name)),
    );
    // The second of two sealed files deleted back to back: the crash lands
    // between them.
    let middles: Vec<u64> = removals
        .windows(2)
        .filter(|pair| pair[1] == pair[0] + 1)
        .map(|pair| pair[1])
        .collect();
    assert!(
        !middles.is_empty(),
        "no compaction deleted two sealed files: {removals:?}"
    );
    for &at in &middles {
        for survival in 0..SURVIVAL_SEEDS {
            crash_and_check(at, survival);
        }
    }
}
