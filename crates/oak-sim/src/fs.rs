//! `SimFs`: an in-memory [`StorageBackend`] with *pessimal* POSIX crash
//! semantics.
//!
//! The durability contract the store relies on is narrow — and `SimFs`
//! models exactly its failure modes:
//!
//! - **Torn writes.** Bytes appended since the last `sync_data` survive a
//!   crash only as a seed-chosen prefix, occasionally with one byte
//!   garbled inside it (a sector written out of order).
//! - **Lost directory entries.** Creations, renames, and deletions are
//!   volatile until `sync_dir` on the parent. At a crash, every pending
//!   namespace change survives *independently* with probability ½ — so a
//!   rename can vanish while the deletions that followed it persist,
//!   which is precisely the orphaned-rename schedule that loses
//!   acknowledged data when the store forgets the directory fsync. A
//!   rename itself is one change: a file leaves a crash under its old
//!   name or its new one, never both and never neither.
//! - **Crash points everywhere.** An operation-counter trigger
//!   ([`SimFs::schedule_crash`]) fails the Nth mutating operation and
//!   every one after it, so a seed range sweeps the crash point across
//!   every write/rename/fsync boundary the store crosses.
//!
//! After a crash, [`SimFs::restart`] plays the role of the machine
//! coming back up: it materializes one possible surviving disk state
//! (using the crash's own survival seed) and the next
//! [`oak_store::recover_with`] sees only that.
//!
//! [`SimFsOptions::ignore_dir_sync`] turns `sync_dir` into a no-op —
//! reintroducing the pre-fix store bug — so the regression suite can
//! demonstrate that the harness catches it.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use oak_store::{StorageBackend, StorageFile};

use crate::rng::SimRng;

/// Knobs for [`SimFs`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SimFsOptions {
    /// Make `sync_dir` a no-op, reintroducing the
    /// missing-parent-directory-fsync bug the store used to have. Every
    /// namespace change then stays volatile until a crash's coin flips.
    pub ignore_dir_sync: bool,
}

/// Fault counts accumulated across a `SimFs`'s lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounters {
    /// Crashes materialized by [`SimFs::restart`].
    pub crashes: u64,
    /// Files that lost part of an unsynced tail at a crash.
    pub torn_files: u64,
    /// Pending namespace changes (creates/renames/removals) that did not
    /// survive a crash.
    pub lost_dir_entries: u64,
    /// Bytes garbled inside surviving unsynced tails.
    pub garbled_bytes: u64,
    /// Operations failed by the crash trigger (the crashing op and every
    /// op until restart).
    pub failed_ops: u64,
}

#[derive(Debug)]
struct Inode {
    data: Vec<u8>,
    synced_len: usize,
}

#[derive(Debug)]
struct State {
    /// Live namespace: what a running process sees (page cache included).
    volatile: BTreeMap<PathBuf, u64>,
    /// Durable namespace: entries a crash is guaranteed to preserve.
    durable: BTreeMap<PathBuf, u64>,
    dirs: Vec<PathBuf>,
    inodes: BTreeMap<u64, Inode>,
    next_ino: u64,
    ops: u64,
    crash_at: Option<u64>,
    /// Survival seed of the scheduled crash; falls back to a fork of the
    /// filesystem's own stream.
    crash_seed: Option<u64>,
    crashed: bool,
    /// Bumped at every restart; stale file handles from a previous life
    /// fail rather than scribble on the reborn disk.
    epoch: u64,
    rng: SimRng,
    counters: FaultCounters,
}

/// The simulated filesystem. Clones share state (it is one disk).
#[derive(Clone)]
pub struct SimFs {
    state: Arc<Mutex<State>>,
    options: SimFsOptions,
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFs")
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: machine is down")
}

impl SimFs {
    /// An empty disk whose crash coin flips draw from `seed`.
    pub fn new(seed: u64, options: SimFsOptions) -> SimFs {
        SimFs {
            state: Arc::new(Mutex::new(State {
                volatile: BTreeMap::new(),
                durable: BTreeMap::new(),
                dirs: Vec::new(),
                inodes: BTreeMap::new(),
                next_ino: 1,
                ops: 0,
                crash_at: None,
                crash_seed: None,
                crashed: false,
                epoch: 0,
                rng: SimRng::new(seed),
                counters: FaultCounters::default(),
            })),
            options,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("simfs state")
    }

    /// Mutating operations performed so far (the crash-trigger clock).
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Whether the machine is currently down.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Fault counts so far.
    pub fn counters(&self) -> FaultCounters {
        self.lock().counters
    }

    /// Arms the crash trigger: the `ops_ahead`-th mutating operation from
    /// now fails, and so does everything after it until [`SimFs::restart`].
    /// `survival_seed` drives that crash's what-survives coin flips, so a
    /// scenario step owns its crash outcome regardless of history.
    pub fn schedule_crash(&self, ops_ahead: u64, survival_seed: u64) {
        let mut state = self.lock();
        state.crash_at = Some(state.ops.saturating_add(ops_ahead));
        state.crash_seed = Some(survival_seed);
    }

    /// Drops the machine immediately.
    pub fn crash_now(&self) {
        let mut state = self.lock();
        state.crashed = true;
        state.crash_at = None;
    }

    /// Whether a scheduled crash has not fired yet.
    pub fn crash_pending(&self) -> bool {
        let state = self.lock();
        !state.crashed && state.crash_at.is_some()
    }

    /// Brings the machine back up, materializing one possible surviving
    /// disk state: unsynced file tails keep a seed-chosen prefix (rarely
    /// with a garbled byte), and each pending namespace change survives
    /// independently with probability ½.
    pub fn restart(&self) {
        let mut state = self.lock();
        let state = &mut *state;
        let mut rng = match state.crash_seed.take() {
            Some(seed) => SimRng::new(seed),
            None => state.rng.fork(),
        };
        state.counters.crashes += 1;

        // Namespace: start from the durable view, then flip a coin per
        // pending difference. Each change survives or not independently —
        // the kernel wrote back directory blocks in whatever order it
        // pleased — except that a rename is one change, not a removal and
        // a creation: the durable name of an inode that now lives under
        // another goes exactly when the new one comes, as `rename(2)` is
        // atomic (the contract `StorageBackend::rename` states).
        let renamed_from: BTreeMap<PathBuf, PathBuf> = state
            .volatile
            .iter()
            .filter(|(path, ino)| state.durable.get(*path) != Some(ino))
            .filter_map(|(path, ino)| {
                let (old, _) = state
                    .durable
                    .iter()
                    .find(|(old, i)| *i == ino && !state.volatile.contains_key(*old))?;
                Some((path.clone(), old.clone()))
            })
            .collect();
        let mut survived = state.durable.clone();
        let mut paths: Vec<PathBuf> = state.volatile.keys().cloned().collect();
        for path in state.durable.keys() {
            if !state.volatile.contains_key(path) {
                paths.push(path.clone());
            }
        }
        paths.sort();
        paths.dedup();
        for path in paths {
            let wanted = state.volatile.get(&path);
            if state.durable.get(&path) == wanted || renamed_from.values().any(|old| *old == path) {
                continue;
            }
            if rng.chance(1, 2) {
                match wanted {
                    Some(ino) => {
                        if let Some(old) = renamed_from.get(&path) {
                            survived.remove(old);
                        }
                        survived.insert(path, *ino);
                    }
                    None => {
                        survived.remove(&path);
                    }
                }
            } else {
                state.counters.lost_dir_entries += 1;
            }
        }

        // File contents: synced bytes survive; unsynced tails keep a
        // seed-chosen prefix, occasionally with one byte flipped.
        let mut inodes = BTreeMap::new();
        for ino in survived.values() {
            if inodes.contains_key(ino) {
                continue;
            }
            let Some(inode) = state.inodes.get(ino) else {
                continue;
            };
            let unsynced = inode.data.len() - inode.synced_len;
            let keep = inode.synced_len + rng.below(unsynced as u64 + 1) as usize;
            let mut data = inode.data[..keep].to_vec();
            if keep < inode.data.len() {
                state.counters.torn_files += 1;
            }
            if keep > inode.synced_len && rng.chance(1, 8) {
                let at = inode.synced_len + rng.below((keep - inode.synced_len) as u64) as usize;
                data[at] ^= 0x40;
                state.counters.garbled_bytes += 1;
            }
            inodes.insert(
                *ino,
                Inode {
                    synced_len: data.len(),
                    data,
                },
            );
        }

        state.volatile = survived.clone();
        state.durable = survived;
        state.inodes = inodes;
        state.crashed = false;
        state.crash_at = None;
        state.epoch += 1;
    }

    /// Counts one mutating operation, firing the crash trigger when due.
    fn tick(state: &mut State) -> io::Result<()> {
        if state.crashed {
            state.counters.failed_ops += 1;
            return Err(crash_error());
        }
        state.ops += 1;
        if let Some(at) = state.crash_at {
            if state.ops >= at {
                state.crashed = true;
                state.crash_at = None;
                state.counters.failed_ops += 1;
                return Err(crash_error());
            }
        }
        Ok(())
    }

    fn check_up(state: &State) -> io::Result<()> {
        if state.crashed {
            return Err(crash_error());
        }
        Ok(())
    }
}

/// An open handle on a `SimFs` file.
struct SimFile {
    state: Arc<Mutex<State>>,
    ino: u64,
    epoch: u64,
}

impl fmt::Debug for SimFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFile").field("ino", &self.ino).finish()
    }
}

impl SimFile {
    fn with_inode(&self, apply: impl FnOnce(&mut Inode)) -> io::Result<()> {
        let mut state = self.state.lock().expect("simfs state");
        if state.epoch != self.epoch {
            return Err(io::Error::other("stale file handle from before a crash"));
        }
        SimFs::tick(&mut state)?;
        match state.inodes.get_mut(&self.ino) {
            Some(inode) => {
                apply(inode);
                Ok(())
            }
            None => Err(io::Error::other("file was lost")),
        }
    }
}

impl StorageFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.with_inode(|inode| inode.data.extend_from_slice(buf))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.with_inode(|inode| inode.synced_len = inode.data.len())
    }
}

impl StorageBackend for SimFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        SimFs::tick(&mut state)?;
        let dir = dir.to_path_buf();
        // Directories themselves always survive crashes: the store makes
        // one directory per lifetime, and modeling its loss would only
        // retest `create_dir_all`.
        if !state.dirs.contains(&dir) {
            state.dirs.push(dir);
        }
        Ok(())
    }

    fn dir_exists(&self, dir: &Path) -> bool {
        let state = self.lock();
        !state.crashed && state.dirs.iter().any(|d| d == dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let state = self.lock();
        SimFs::check_up(&state)?;
        let mut names = Vec::new();
        for path in state.volatile.keys() {
            if path.parent() == Some(dir) {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_owned());
                }
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.lock();
        SimFs::check_up(&state)?;
        let ino = state
            .volatile
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        Ok(state.inodes[ino].data.clone())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut state = self.lock();
        SimFs::tick(&mut state)?;
        let ino = state.next_ino;
        state.next_ino += 1;
        state.inodes.insert(
            ino,
            Inode {
                data: Vec::new(),
                synced_len: 0,
            },
        );
        state.volatile.insert(path.to_path_buf(), ino);
        Ok(Box::new(SimFile {
            state: Arc::clone(&self.state),
            ino,
            epoch: state.epoch,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock();
        SimFs::tick(&mut state)?;
        let ino = state
            .volatile
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "rename source missing"))?;
        state.volatile.insert(to.to_path_buf(), ino);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock();
        SimFs::tick(&mut state)?;
        state
            .volatile
            .remove(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut state = self.lock();
        SimFs::tick(&mut state)?;
        if self.options.ignore_dir_sync {
            return Ok(()); // the reintroduced bug: the fsync never lands
        }
        // Promote every pending change under `dir` to the durable view.
        let state = &mut *state;
        let in_dir = |path: &Path| path.parent() == Some(dir);
        state
            .durable
            .retain(|path, _| !in_dir(path) || state.volatile.contains_key(path));
        for (path, ino) in &state.volatile {
            if in_dir(path) {
                state.durable.insert(path.clone(), *ino);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use oak_store::StorageBackend;

    use super::{SimFs, SimFsOptions};

    fn dir() -> PathBuf {
        PathBuf::from("/sim")
    }

    fn write_file(fs: &SimFs, path: &Path, bytes: &[u8], sync: bool) {
        let mut f = fs.create(path).unwrap();
        f.write_all(bytes).unwrap();
        if sync {
            f.sync_data().unwrap();
        }
    }

    #[test]
    fn synced_data_and_synced_entries_survive_any_crash() {
        for seed in 0..20 {
            let fs = SimFs::new(seed, SimFsOptions::default());
            fs.create_dir_all(&dir()).unwrap();
            write_file(&fs, &dir().join("a"), b"hello", true);
            fs.sync_dir(&dir()).unwrap();
            fs.crash_now();
            fs.restart();
            assert_eq!(fs.read(&dir().join("a")).unwrap(), b"hello");
        }
    }

    #[test]
    fn unsynced_tail_survives_only_as_a_prefix() {
        let mut torn = false;
        for seed in 0..40 {
            let fs = SimFs::new(seed, SimFsOptions::default());
            fs.create_dir_all(&dir()).unwrap();
            let mut f = fs.create(&dir().join("a")).unwrap();
            f.write_all(b"durable").unwrap();
            f.sync_data().unwrap();
            f.write_all(b"-volatile").unwrap();
            fs.sync_dir(&dir()).unwrap();
            fs.crash_now();
            fs.restart();
            let data = fs.read(&dir().join("a")).unwrap();
            assert!(data.len() >= b"durable".len(), "synced bytes are sacred");
            if data.len() < b"durable-volatile".len() {
                torn = true;
            }
        }
        assert!(torn, "some seed must tear the tail");
    }

    #[test]
    fn unsynced_rename_can_be_lost_while_deletion_persists() {
        // The orphaned-rename schedule: tmp -> final rename plus a
        // deletion of the old file, crash before sync_dir. Some seed must
        // lose the rename but keep the deletion — the dangerous corner.
        let mut orphaned = false;
        for seed in 0..40 {
            let fs = SimFs::new(seed, SimFsOptions::default());
            fs.create_dir_all(&dir()).unwrap();
            write_file(&fs, &dir().join("old"), b"old", true);
            fs.sync_dir(&dir()).unwrap();
            write_file(&fs, &dir().join("new.tmp"), b"new", true);
            fs.rename(&dir().join("new.tmp"), &dir().join("new"))
                .unwrap();
            fs.remove_file(&dir().join("old")).unwrap();
            fs.crash_now();
            fs.restart();
            let names = fs.list_dir(&dir()).unwrap();
            if !names.iter().any(|n| n == "new") && !names.iter().any(|n| n == "old") {
                orphaned = true;
            }
        }
        assert!(orphaned, "some seed must orphan the rename");
    }

    #[test]
    fn an_unsynced_rename_of_a_durable_file_keeps_exactly_one_name() {
        let mut seen = (false, false);
        for seed in 0..40 {
            let fs = SimFs::new(seed, SimFsOptions::default());
            fs.create_dir_all(&dir()).unwrap();
            write_file(&fs, &dir().join("seg"), b"frames", true);
            fs.sync_dir(&dir()).unwrap();
            fs.rename(&dir().join("seg"), &dir().join("seg-sealed"))
                .unwrap();
            fs.crash_now();
            fs.restart();
            let names = fs.list_dir(&dir()).unwrap();
            assert_eq!(names.len(), 1, "seed {seed}: {names:?}");
            assert_eq!(fs.read(&dir().join(&names[0])).unwrap(), b"frames");
            if names[0] == "seg" {
                seen.0 = true;
            } else {
                seen.1 = true;
            }
        }
        assert_eq!(seen, (true, true), "both outcomes must occur");
    }

    #[test]
    fn sync_dir_makes_the_rename_durable() {
        for seed in 0..40 {
            let fs = SimFs::new(seed, SimFsOptions::default());
            fs.create_dir_all(&dir()).unwrap();
            write_file(&fs, &dir().join("new.tmp"), b"new", true);
            fs.rename(&dir().join("new.tmp"), &dir().join("new"))
                .unwrap();
            fs.sync_dir(&dir()).unwrap();
            fs.crash_now();
            fs.restart();
            assert_eq!(fs.read(&dir().join("new")).unwrap(), b"new");
        }
    }

    #[test]
    fn scheduled_crash_fails_the_nth_op_and_everything_after() {
        let fs = SimFs::new(1, SimFsOptions::default());
        fs.create_dir_all(&dir()).unwrap();
        fs.schedule_crash(2, 99);
        assert!(fs.create(&dir().join("a")).is_ok(), "one op to spare");
        assert!(fs.create(&dir().join("c")).is_err(), "the 2nd op crashes");
        assert!(fs.crashed());
        assert!(fs.create(&dir().join("b")).is_err());
        assert!(fs.read(&dir().join("a")).is_err(), "reads fail while down");
        fs.restart();
        assert!(!fs.crashed());
        assert!(fs.create(&dir().join("b")).is_ok());
    }

    #[test]
    fn stale_handles_from_before_a_crash_cannot_write() {
        let fs = SimFs::new(3, SimFsOptions::default());
        fs.create_dir_all(&dir()).unwrap();
        let mut f = fs.create(&dir().join("a")).unwrap();
        f.write_all(b"x").unwrap();
        fs.crash_now();
        fs.restart();
        assert!(f.write_all(b"y").is_err());
        assert!(f.sync_data().is_err());
    }

    #[test]
    fn ignore_dir_sync_reintroduces_the_lost_entry_bug() {
        let mut lost = false;
        for seed in 0..40 {
            let fs = SimFs::new(
                seed,
                SimFsOptions {
                    ignore_dir_sync: true,
                },
            );
            fs.create_dir_all(&dir()).unwrap();
            write_file(&fs, &dir().join("a"), b"x", true);
            fs.sync_dir(&dir()).unwrap(); // no-op under the bug
            fs.crash_now();
            fs.restart();
            if fs.read(&dir().join("a")).is_err() {
                lost = true;
            }
        }
        assert!(lost, "the bug must be able to lose a synced file's name");
    }

    #[test]
    fn restart_is_deterministic_in_the_survival_seed() {
        let run = |seed: u64| {
            let fs = SimFs::new(7, SimFsOptions::default());
            fs.create_dir_all(&dir()).unwrap();
            for i in 0..6 {
                write_file(&fs, &dir().join(format!("f{i}")), b"data", i % 2 == 0);
            }
            fs.schedule_crash(u64::MAX, seed); // pin the survival seed
            fs.crash_now();
            fs.restart();
            let mut names = fs.list_dir(&dir()).unwrap();
            names.sort();
            names
        };
        assert_eq!(run(123), run(123));
    }
}
