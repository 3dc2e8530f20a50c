//! Ingest and compaction at the same time: a snapshot taken while other
//! threads append must never retire a segment that is still being
//! written to.

mod common;

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use common::{fingerprint, seed_rules, temp_dir, violating_report, HOSTS, USERS};
use oak_core::engine::{Oak, OakConfig};
use oak_core::matching::NoFetch;
use oak_core::Instant;
use oak_store::{
    recover, FsyncPolicy, OakStore, RealFs, StorageBackend, StorageFile, StoreOptions,
};

fn never_fsync() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Never,
        ..StoreOptions::default()
    }
}

/// Everything journaled and synced must come back from disk.
fn assert_recovers_live_state(dir: &Path, oak: &Oak, store: &OakStore) {
    assert_eq!(store.write_errors(), 0);
    store.sync_all().expect("sync");
    let recovered = recover(dir, OakConfig::default()).expect("recover");
    assert_eq!(
        recovered.oak.event_seq(),
        oak.event_seq(),
        "journaled events missing after recovery"
    );
    assert_eq!(fingerprint(&recovered.oak), fingerprint(oak));
}

/// Where the forced interleaving below stands.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// Pass everything through.
    Idle,
    /// The next directory listing is the compactor's, after it rotated.
    Armed,
    /// Every segment is rotated out; the appender may open a new one.
    Rotated,
    /// The appender created its segment file and wrote no frame yet.
    Created,
    /// The compactor finished its sweep.
    Swept,
}

/// The real filesystem, with the two calls the race runs through turned
/// into rendezvous points.
#[derive(Debug)]
struct GatedFs {
    phase: Mutex<Phase>,
    turn: Condvar,
}

impl GatedFs {
    fn set(&self, phase: Phase) {
        *self.phase.lock().unwrap() = phase;
        self.turn.notify_all();
    }

    fn wait_for(&self, wanted: Phase) {
        let mut phase = self.phase.lock().unwrap();
        while *phase != wanted {
            phase = self.turn.wait(phase).unwrap();
        }
    }

    /// In phase `from`: moves to `to`, then blocks until `until`.
    fn rendezvous(&self, from: Phase, to: Phase, until: Phase) {
        let mut phase = self.phase.lock().unwrap();
        if *phase != from {
            return;
        }
        *phase = to;
        self.turn.notify_all();
        while *phase != until {
            phase = self.turn.wait(phase).unwrap();
        }
    }
}

impl StorageBackend for GatedFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }

    fn dir_exists(&self, dir: &Path) -> bool {
        RealFs.dir_exists(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        // The compactor lists the directory only after rotating every
        // segment out: let the appender in, and list once it has a new
        // segment file on disk.
        self.rendezvous(Phase::Armed, Phase::Rotated, Phase::Created);
        RealFs.list_dir(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        RealFs.create(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        RealFs.sync_dir(dir)?;
        // The appender syncs the directory between creating a segment
        // and writing its first frame: hold it there, file empty, until
        // the compactor's sweep has been over the directory.
        self.rendezvous(Phase::Rotated, Phase::Created, Phase::Swept);
        Ok(())
    }
}

/// The interleaving behind "acked reports lost on restart": a worker
/// opens a segment — created, directory synced, first frame not yet
/// written — exactly while a snapshot sweeps the directory for leftover
/// files. The segment is empty, so its highest sequence number reads as
/// 0, below any compaction horizon; it is nevertheless live.
#[test]
fn sweep_spares_a_segment_created_during_the_snapshot() {
    let dir = temp_dir("compact-race");
    let gate = Arc::new(GatedFs {
        phase: Mutex::new(Phase::Idle),
        turn: Condvar::new(),
    });
    let boot =
        OakStore::boot_with(gate.clone(), &dir, OakConfig::default(), never_fsync()).expect("boot");
    let (oak, store) = (boot.oak, boot.store);
    seed_rules(&oak);
    // Two snapshots are kept and segments compact up to the older one:
    // give that one a watermark above 0.
    oak.ingest_report(Instant(1), &violating_report(0, 0), &NoFetch);
    store.snapshot(&oak).expect("first snapshot");
    oak.ingest_report(Instant(2), &violating_report(1, 1), &NoFetch);

    gate.set(Phase::Armed);
    std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            gate.wait_for(Phase::Rotated);
            oak.ingest_report(Instant(3), &violating_report(2, 2), &NoFetch);
        });
        let compactor = scope.spawn(|| store.snapshot(&oak).expect("racing snapshot"));
        compactor.join().expect("compactor");
        gate.set(Phase::Swept);
        appender.join().expect("appender");
    });

    assert_recovers_live_state(&dir, &oak, &store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The same property without a script: two workers ingest for disjoint
/// users (so through different shard slots) while a third thread
/// compacts in a loop. Every snapshot rotates every segment, so the
/// workers keep opening fresh ones beside the compactor's sweep.
#[test]
fn snapshots_during_ingest_lose_no_journaled_event() {
    const REPORTS_PER_WORKER: usize = 400;

    let dir = temp_dir("compact-live");
    let boot = OakStore::boot(&dir, OakConfig::default(), never_fsync()).expect("boot");
    let (oak, store) = (boot.oak, boot.store);
    seed_rules(&oak);

    let ingesting = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|worker| {
                let oak = &oak;
                scope.spawn(move || {
                    for step in 0..REPORTS_PER_WORKER {
                        // `violating_report` folds users mod USERS: even
                        // ones to worker 0, odd ones to worker 1.
                        let user = (step * 2 + worker) % USERS;
                        let report = violating_report(user, step % HOSTS);
                        oak.ingest_report(Instant(step as u64), &report, &NoFetch);
                    }
                })
            })
            .collect();
        let compactor = scope.spawn(|| {
            let mut snapshots = 0;
            while ingesting.load(Ordering::SeqCst) {
                store.snapshot(&oak).expect("snapshot");
                snapshots += 1;
            }
            snapshots
        });
        for worker in workers {
            worker.join().expect("worker");
        }
        ingesting.store(false, Ordering::SeqCst);
        assert!(compactor.join().expect("compactor") > 0);
    });

    assert_recovers_live_state(&dir, &oak, &store);
    std::fs::remove_dir_all(&dir).unwrap();
}
