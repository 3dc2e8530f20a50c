//! The store proper: per-shard WAL writers, snapshots, compaction, and
//! crash recovery.
//!
//! One [`OakStore`] owns a directory. Inside it live:
//!
//! - `seg-SS-NNNNNNNN.wal` — WAL segments, one live segment per engine
//!   shard plus one global segment (`SS` = shard slot, `16` for global;
//!   `NNNNNNNN` = allocation counter). Events land in the segment of the
//!   shard they mutate, so shard-parallel ingest never contends on one
//!   file; recovery merges segments by global sequence number.
//! - `seg-SS-NNNNNNNN-MMMMMMMMMMMMMMMMMMMM.wal` — a *sealed* segment: one
//!   nobody appends to any more, renamed to carry `M`, the highest
//!   sequence number in it, so a reader whose range starts past `M` can
//!   pass the file by without opening it.
//! - `snap-WWWWWWWWWWWWWWWWWWWW.snap` — compacted snapshots, named by
//!   their event-sequence watermark `W`: every event with `seq < W` is
//!   reflected in the snapshot, every event with `seq >= W` is replayed
//!   from the WAL on recovery.
//!
//! Segments are never appended across process restarts: a fresh store
//! opens fresh segments, and the boot snapshot supersedes (and deletes)
//! everything older. That keeps the write path free of any
//! truncate-then-append handling — torn tails exist only for readers.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use oak_core::engine::{Oak, OakConfig, SHARD_COUNT};
use oak_core::events::{EventSink, SequencedEvent};

use crate::backend::{RealFs, StorageBackend};
use crate::segment::{build_frame, decode_file_frame, frame_header, SegmentWriter, FRAME_OVERHEAD};
use crate::stream::wal_events;

/// Hands the allocator's free pages back to the OS.
///
/// A snapshot copies the whole engine state into one buffer on the
/// calling thread, and glibc keeps a thread's freed memory in that
/// thread's own arena: it is resident but no other thread can reuse it.
/// Snapshots are taken by whichever serving thread crosses the event
/// threshold, so without this the process's resident set grows by one
/// snapshot's worth per distinct thread that has ever taken one.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and is thread-safe; it only
    // returns pages the allocator already holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

/// Magic prefix of a snapshot file: one frame follows, holding the
/// engine's state image ([`Oak::state_image`]).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"OAKSNAP2";

/// Events kept in the in-memory recent ring that serves [`OakStore::tail`]
/// without touching disk. WAL shipping calls `tail` once per follower
/// per shipped batch; without the ring each call decodes every live
/// segment, which is quadratic while a follower catches up. A follower
/// further behind than the ring reaches falls back to the full log scan
/// (or snapshot transfer, past the compaction horizon).
pub const RECENT_TAIL_CAP: usize = 1024;

/// When appended WAL frames are pushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every event. Survives power loss; slowest.
    Always,
    /// `fdatasync` once every N events per segment. Bounds loss to the
    /// last N events of each shard.
    EveryN(u64),
    /// Never fsync explicitly; the OS flushes on its own schedule.
    /// Survives process crashes (the page cache persists), not power
    /// loss.
    Never,
}

/// Durability and compaction policy for an [`OakStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// WAL fsync cadence.
    pub fsync: FsyncPolicy,
    /// [`OakStore::maybe_snapshot`] triggers after this many events.
    pub snapshot_every_events: u64,
    /// A segment is rotated out once it grows past this many bytes.
    pub rotate_segment_bytes: u64,
    /// How many snapshots to keep; older ones are deleted at compaction.
    pub keep_snapshots: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::EveryN(64),
            snapshot_every_events: 10_000,
            rotate_segment_bytes: 16 * 1024 * 1024,
            keep_snapshots: 2,
        }
    }
}

/// A segment nobody appends to any more — rotated out by this store, or
/// left by the run the engine was recovered from — with the highest
/// sequence number it holds: what compaction needs to know to retire it.
#[derive(Debug)]
struct ClosedSegment {
    path: PathBuf,
    max_seq: u64,
}

/// The write half: an [`EventSink`] that journals engine events into
/// per-shard WAL segments and periodically compacts them into snapshots.
#[derive(Debug)]
pub struct OakStore {
    backend: Arc<dyn StorageBackend>,
    dir: PathBuf,
    options: StoreOptions,
    /// One slot per engine shard plus the global slot at `SHARD_COUNT`.
    /// Writers open lazily on first use so idle shards cost nothing.
    slots: Vec<Mutex<Option<SegmentWriter>>>,
    closed: Mutex<Vec<ClosedSegment>>,
    segment_ids: AtomicU64,
    events_recorded: AtomicU64,
    events_since_snapshot: AtomicU64,
    write_errors: AtomicU64,
    /// Serializes snapshots, and holds the `(branch epoch, watermark)` of
    /// the last one this store wrote: a snapshot of an engine behind it is
    /// not written (see [`OakStore::snapshot`]).
    snapshot_lock: Mutex<(u64, u64)>,
    /// WAL/snapshot instrumentation, set at most once per store instance
    /// ([`OakStore::set_obs`]); empty costs one atomic read per append.
    obs: std::sync::OnceLock<Arc<crate::obs::StoreMetrics>>,
    /// The frames of journaled events, each under its `seq`, in seq
    /// order, at most [`RECENT_TAIL_CAP`] of them, so `tail` can ship the
    /// common case from memory. A frame moves in once it is on disk —
    /// nothing is copied for a store nobody tails. Starts empty on every
    /// boot — the first poll after recovery scans disk.
    recent: Mutex<VecDeque<(u64, Vec<u8>)>>,
}

impl OakStore {
    /// Opens (creating if needed) a store over `dir` on the real
    /// filesystem. See [`OakStore::open_with`].
    pub fn open(dir: impl Into<PathBuf>, options: StoreOptions) -> io::Result<OakStore> {
        OakStore::open_with(Arc::new(RealFs), dir, options)
    }

    /// Opens (creating if needed) a store over `dir` on `backend`.
    ///
    /// The store writes fresh segments; it never appends to files left by
    /// an earlier process, and it compacts such files only when opened
    /// through [`OakStore::boot_with`], which learns from the recovery it
    /// runs first how far each one reaches. A directory must be owned by
    /// at most one live store.
    pub fn open_with(
        backend: Arc<dyn StorageBackend>,
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> io::Result<OakStore> {
        let dir = dir.into();
        backend.create_dir_all(&dir)?;
        // Start segment ids past everything on disk so fresh files never
        // collide with (not-yet-compacted) files from an earlier run.
        let mut next_id = 0;
        for name in backend.list_dir(&dir)? {
            if let Some(segment) = parse_segment_name(&name) {
                next_id = next_id.max(segment.id + 1);
            }
        }
        Ok(OakStore {
            backend,
            dir,
            options,
            slots: (0..=SHARD_COUNT).map(|_| Mutex::new(None)).collect(),
            closed: Mutex::new(Vec::new()),
            segment_ids: AtomicU64::new(next_id),
            events_recorded: AtomicU64::new(0),
            events_since_snapshot: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            snapshot_lock: Mutex::new((0, 0)),
            obs: std::sync::OnceLock::new(),
            recent: Mutex::new(VecDeque::new()),
        })
    }

    /// Attaches WAL/snapshot instrumentation to this store instance.
    /// Callable through the shared `Arc` (boot hands the store out
    /// already shared); a second call is ignored.
    pub fn set_obs(&self, obs: Arc<crate::obs::StoreMetrics>) {
        let _ = self.obs.set(obs);
    }

    /// Recovers engine state from `dir` on the real filesystem and opens
    /// the store for writing. See [`OakStore::boot_with`].
    pub fn boot(
        dir: impl Into<PathBuf>,
        config: OakConfig,
        options: StoreOptions,
    ) -> io::Result<Boot> {
        OakStore::boot_with(Arc::new(RealFs), dir, config, options)
    }

    /// Recovers engine state from `dir` on `backend` and opens the store
    /// for writing: loads the newest valid snapshot, replays the WAL
    /// tail, writes a fresh boot snapshot (compacting every prior segment
    /// away), and attaches the store to the engine as its event sink.
    pub fn boot_with(
        backend: Arc<dyn StorageBackend>,
        dir: impl Into<PathBuf>,
        config: OakConfig,
        options: StoreOptions,
    ) -> io::Result<Boot> {
        let dir = dir.into();
        let recovery = recover_with(backend.clone(), &dir, config)?;
        let store = Arc::new(OakStore::open_with(backend, &dir, options)?);
        // The files the engine was just recovered from are this store's
        // to compact, and recovery has read how far each one reaches.
        let leftovers = recovery.segments.into_iter();
        store
            .closed
            .lock()
            .expect("closed list")
            .extend(leftovers.map(|(path, max_seq)| ClosedSegment { path, max_seq }));
        store.snapshot(&recovery.oak)?;
        // What the boot snapshot did not compact away, recovery has read
        // to the end: seal it, so the next boot passes over whatever of it
        // a later snapshot covers.
        let mut closed = store.closed.lock().expect("closed list");
        *closed = std::mem::take(&mut *closed)
            .into_iter()
            .map(|segment| store.seal(segment))
            .collect();
        drop(closed);
        let mut oak = recovery.oak;
        oak.set_event_sink(store.clone());
        Ok(Boot {
            oak,
            store,
            snapshot_loaded: recovery.snapshot_loaded,
            events_replayed: recovery.events_replayed,
            torn_segments: recovery.torn_segments,
            watermark: recovery.watermark,
            replayed_seqs: recovery.replayed_seqs,
        })
    }

    /// The directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total events journaled by this store instance.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded.load(Ordering::Relaxed)
    }

    /// Events journaled since the last snapshot.
    pub fn events_since_snapshot(&self) -> u64 {
        self.events_since_snapshot.load(Ordering::Relaxed)
    }

    /// WAL appends and snapshots that failed. The sink swallows I/O
    /// errors (the engine's hot path cannot surface them) and the serving
    /// path drops a failed compaction's; operators watch this counter.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Tails this store's WAL: the first `max` events with
    /// `seq >= from_seq` the log contiguously covers, or
    /// [`crate::stream::Tail::Compacted`] when that range was compacted
    /// into a snapshot. The read half of WAL shipping — see
    /// [`crate::stream`].
    pub fn tail(&self, from_seq: u64, max: usize) -> io::Result<crate::stream::Tail> {
        if let Some(events) = self.recent_tail(from_seq, max) {
            return Ok(crate::stream::Tail::Events(events));
        }
        crate::stream::tail_batch(&*self.backend, &self.dir, from_seq, max)
    }

    /// Serves [`OakStore::tail`] from the recent ring when it reaches
    /// back to `from_seq`; `None` falls through to the full log scan.
    /// Ring events below the compaction horizon are still served — they
    /// are correct copies, and shipping them spares the follower a
    /// snapshot transfer.
    fn recent_tail(&self, from_seq: u64, max: usize) -> Option<Vec<SequencedEvent>> {
        ring_tail(
            &self.recent.lock().expect("recent ring lock"),
            from_seq,
            max,
        )
    }

    /// Flushes every open segment to stable storage regardless of the
    /// fsync policy.
    pub fn sync_all(&self) -> io::Result<()> {
        for slot in &self.slots {
            if let Some(writer) = self.lock_slot(slot).as_mut() {
                writer.sync()?;
            }
        }
        Ok(())
    }

    /// Whether `snapshot_every_events` have accumulated since the last
    /// snapshot: what [`OakStore::maybe_snapshot`] checks first.
    pub fn snapshot_due(&self) -> bool {
        self.events_since_snapshot.load(Ordering::Relaxed) >= self.options.snapshot_every_events
    }

    /// Takes a snapshot if `snapshot_every_events` have accumulated.
    ///
    /// Cheap when under threshold or when another thread is already
    /// snapshotting; call freely from the serving path. Returns whether a
    /// snapshot was written.
    pub fn maybe_snapshot(&self, oak: &Oak) -> io::Result<bool> {
        if !self.snapshot_due() || self.snapshot_lock.try_lock().is_err() {
            return Ok(false);
        }
        Ok(self.counted_snapshot(oak)?.is_some())
    }

    /// Writes a compacted snapshot of `oak` and retires superseded files.
    ///
    /// The engine quiesces (all shard locks) only while the state is
    /// encoded; the write, fsync, and atomic rename happen outside the
    /// locks. Afterwards every live segment is rotated out and sealed,
    /// snapshots beyond `keep_snapshots` are pruned, and every segment
    /// whose events all predate the *oldest kept* snapshot's watermark is
    /// deleted — so if the newest snapshot ever fails its checksum, the
    /// previous one plus the retained segments still recover the full
    /// state (with `keep_snapshots: 1` that safety margin is waived and
    /// segments compact up to the newest watermark).
    ///
    /// Snapshots go forward in `(branch epoch, watermark)`, the order
    /// elections compare logs in. One below a snapshot already on disk
    /// means the engine's history was replaced — a follower installed a
    /// primary's image below a head it had journaled on a branch that
    /// died — so the snapshots above it are deleted with the pruning,
    /// lest recovery load the dead branch. An engine behind the last
    /// snapshot this store wrote is one such install replaced (a
    /// compaction that raced it): nothing is written, and the call fails
    /// with `ErrorKind::Other` without counting a write error.
    pub fn snapshot(&self, oak: &Oak) -> io::Result<PathBuf> {
        self.counted_snapshot(oak)?
            .ok_or_else(|| io::Error::other("a later state was snapshotted"))
    }

    /// [`OakStore::snapshot`], `None` for an engine behind the last
    /// snapshot.
    fn counted_snapshot(&self, oak: &Oak) -> io::Result<Option<PathBuf>> {
        let path = self.write_snapshot(oak);
        if path.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        // The encoded state is garbage now.
        release_freed_heap();
        path
    }

    fn write_snapshot(&self, oak: &Oak) -> io::Result<Option<PathBuf>> {
        let _span = oak_obs::span("snapshot");
        let snapshot_start = self.obs.get().map(|o| o.now());
        let mut last = self.snapshot_lock.lock().expect("snapshot lock");
        let (watermark, payload) = oak.state_image();
        // Read after the image: an engine's epoch only rises.
        let at = (oak.epoch(), watermark);
        if at < *last {
            return Ok(None);
        }
        // Before any file exists: a state the header cannot describe
        // leaves the directory, and what recovery reads from it, as is.
        let header = frame_header(&payload)?;
        let tmp = self.dir.join(format!("snap-{watermark:020}.tmp"));
        let path = self.dir.join(snapshot_name(watermark));
        {
            let mut file = self.backend.create(&tmp)?;
            file.write_all(SNAPSHOT_MAGIC)?;
            file.write_all(&header)?;
            file.write_all(&payload)?;
            file.sync_data()?;
        }
        drop(payload);
        self.backend.rename(&tmp, &path)?;
        // The rename must be *directory-durable* before anything it
        // supersedes is deleted: without this fsync a crash can persist
        // the deletions but not the rename, orphaning the snapshot and
        // losing acknowledged events. (The oak-sim SimFs regression suite
        // exercises exactly that schedule.)
        self.backend.sync_dir(&self.dir)?;
        *last = at;
        self.events_since_snapshot.store(0, Ordering::Relaxed);

        // Rotate every live segment out; new ones open lazily.
        for slot in &self.slots {
            let writer = self.lock_slot(slot).take();
            if let Some(writer) = writer {
                self.retire(writer)?;
            }
        }

        // Delete the snapshots of a branch the engine left (see
        // `snapshot`), prune the rest beyond the retention count (names
        // sort by watermark), then compact segments up to the oldest
        // survivor.
        let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
        for name in self.backend.list_dir(&self.dir)? {
            if let Some(w) = parse_snapshot_name(&name) {
                let path = self.dir.join(name);
                if w > watermark {
                    let _ = self.backend.remove_file(&path);
                } else {
                    snaps.push((w, path));
                }
            }
        }
        snaps.sort();
        let keep_from = snaps
            .len()
            .saturating_sub(self.options.keep_snapshots.max(1));
        for (_, old) in &snaps[..keep_from] {
            let _ = self.backend.remove_file(old);
        }
        let compact_below = snaps[keep_from..]
            .first()
            .map_or(watermark, |(w, _)| *w)
            .min(watermark);

        let mut closed = self.closed.lock().expect("closed list");
        let mut keep = Vec::new();
        for segment in closed.drain(..) {
            if segment.max_seq >= compact_below {
                keep.push(segment);
            } else {
                let _ = self.backend.remove_file(&segment.path);
            }
        }
        *closed = keep;
        drop(closed);
        if let (Some(obs), Some(start)) = (self.obs.get(), snapshot_start) {
            obs.snapshots.inc();
            crate::obs::StoreMetrics::record(&obs.snapshot, start, obs.now());
        }
        Ok(Some(path))
    }

    /// Takes a segment out of service: syncs it, seals it, and puts it on
    /// the list compaction retires files from.
    fn retire(&self, mut writer: SegmentWriter) -> io::Result<()> {
        writer.sync()?;
        let segment = ClosedSegment {
            path: writer.path().to_path_buf(),
            max_seq: writer.max_seq(),
        };
        drop(writer);
        let segment = self.seal(segment);
        self.closed.lock().expect("closed list").push(segment);
        Ok(())
    }

    /// Renames a segment nobody appends to any more to its sealed name,
    /// which carries `max_seq`, so [`wal_events`] passes over the file
    /// once a reader's range starts past it. A sealed name bounds every
    /// seq a reader can find in the file, and a crash that loses the
    /// rename leaves the unsealed name, which is read in full: either
    /// name is true, so the rename waits for whichever directory sync
    /// comes next instead of paying its own. A file already sealed, or
    /// one the rename fails for, keeps the name it has.
    fn seal(&self, segment: ClosedSegment) -> ClosedSegment {
        let ClosedSegment { path, max_seq } = segment;
        let sealed = path
            .file_name()
            .and_then(|name| parse_segment_name(name.to_str()?))
            .filter(|name| name.sealed.is_none())
            .map(|name| path.with_file_name(sealed_segment_name(name.slot, name.id, max_seq)));
        let path = match sealed {
            Some(sealed) if self.backend.rename(&path, &sealed).is_ok() => sealed,
            _ => path,
        };
        ClosedSegment { path, max_seq }
    }

    fn lock_slot<'a>(
        &self,
        slot: &'a Mutex<Option<SegmentWriter>>,
    ) -> std::sync::MutexGuard<'a, Option<SegmentWriter>> {
        slot.lock().expect("segment slot lock")
    }

    fn append_to_slot(&self, index: usize, seq: u64, frame: &[u8]) -> io::Result<()> {
        let slot = &self.slots[index];
        let mut guard = self.lock_slot(slot);
        if guard.is_none() {
            let id = self.segment_ids.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(segment_name(index, id));
            let shard = if index == SHARD_COUNT {
                None
            } else {
                Some(index)
            };
            *guard = Some(SegmentWriter::create_with(&*self.backend, path, shard)?);
            // The new segment's directory entry must be durable before
            // any frame in it is acknowledged: data-only fsyncs pin the
            // bytes to an inode a crash could otherwise leave nameless.
            self.backend.sync_dir(&self.dir)?;
        }
        let writer = guard.as_mut().expect("just opened");
        writer.append_frame(seq, frame)?;
        let fsync_timed = |writer: &mut SegmentWriter| -> io::Result<()> {
            let start = self.obs.get().map(|o| o.now());
            writer.sync()?;
            if let (Some(obs), Some(start)) = (self.obs.get(), start) {
                crate::obs::StoreMetrics::record(&obs.fsync, start, obs.now());
            }
            Ok(())
        };
        match self.options.fsync {
            FsyncPolicy::Always => fsync_timed(writer)?,
            FsyncPolicy::EveryN(n) => {
                if writer.appended_since_sync() >= n.max(1) {
                    fsync_timed(writer)?;
                }
            }
            FsyncPolicy::Never => {}
        }
        if writer.bytes() >= self.options.rotate_segment_bytes {
            self.retire(guard.take().expect("just used"))?;
        }
        Ok(())
    }
}

impl EventSink for OakStore {
    fn record(&self, shard: Option<usize>, event: &SequencedEvent) {
        let index = shard.unwrap_or(SHARD_COUNT).min(SHARD_COUNT);
        let frame = build_frame(|out| event.encode_into(out));
        let _span = oak_obs::span("wal_append");
        let start = self.obs.get().map(|o| o.now());
        let result = self.append_to_slot(index, event.seq, &frame);
        if let Some(obs) = self.obs.get() {
            obs.wal_appends.inc();
            obs.wal_append_bytes.add(frame.len() as u64);
            if result.is_err() {
                obs.wal_append_errors.inc();
            }
            if let Some(start) = start {
                crate::obs::StoreMetrics::record(&obs.append, start, obs.now());
            }
        }
        if result.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        } else {
            // Only journaled events enter the ring: `tail` asserts
            // what is on (or queued for) disk, never more.
            ring_insert(
                &mut self.recent.lock().expect("recent ring lock"),
                event.seq,
                frame,
            );
        }
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        self.events_since_snapshot.fetch_add(1, Ordering::Relaxed);
    }
}

/// Files a journaled frame in the recent ring under its `seq`, keeping
/// the ring seq-sorted and at most [`RECENT_TAIL_CAP`] long.
fn ring_insert(recent: &mut VecDeque<(u64, Vec<u8>)>, seq: u64, frame: Vec<u8>) {
    // Concurrent shard appends can land slightly out of order.
    let at = recent.partition_point(|(s, _)| *s < seq);
    recent.insert(at, (seq, frame));
    while recent.len() > RECENT_TAIL_CAP {
        recent.pop_front();
    }
}

/// The first `max` events of the recent ring from `from_seq` on, up to
/// the first hole; `None` when the ring starts past `from_seq`.
fn ring_tail(
    recent: &VecDeque<(u64, Vec<u8>)>,
    from_seq: u64,
    max: usize,
) -> Option<Vec<SequencedEvent>> {
    let first = recent.front()?.0;
    if from_seq < first {
        return None;
    }
    // The ring is seq-sorted ([`ring_insert`]): start at `from_seq`
    // rather than walk up to it.
    let start = recent.partition_point(|(seq, _)| *seq < from_seq);
    let mut events = Vec::new();
    let mut expect = from_seq;
    for (seq, frame) in recent.range(start..) {
        if *seq < expect {
            continue;
        }
        if events.len() == max {
            break;
        }
        if *seq != expect {
            // A lower seq is still mid-append in another shard;
            // shipping past the hole would let a follower apply out
            // of order.
            break;
        }
        // What the scan would decode from the same bytes on disk.
        events.push(SequencedEvent::decode(&frame[FRAME_OVERHEAD..]).ok()?);
        expect += 1;
    }
    Some(events)
}

/// What [`recover`] rebuilt.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered engine. Attach a sink (or use [`OakStore::boot`])
    /// before mutating it if changes should keep being journaled.
    pub oak: Oak,
    /// Whether a valid snapshot was found and loaded.
    pub snapshot_loaded: bool,
    /// WAL events applied on top of the snapshot.
    pub events_replayed: u64,
    /// Segments that ended in a torn or corrupt frame (their valid prefix
    /// was still replayed).
    pub torn_segments: usize,
    /// Watermark of the snapshot that was loaded (0 when none was): every
    /// event with `seq < watermark` is reflected in the recovered state.
    pub watermark: u64,
    /// Sequence numbers of the WAL events applied on top of the snapshot,
    /// ascending. Together with `watermark` this names exactly the event
    /// set the recovered engine reflects — which is what lets an external
    /// oracle (oak-sim) rebuild the expected state and compare.
    pub replayed_seqs: Vec<u64>,
    /// Every segment file, with the highest sequence number it holds —
    /// what lets the store that takes over the directory compact (and
    /// seal) them without reading them again.
    pub(crate) segments: Vec<(PathBuf, u64)>,
}

/// What [`OakStore::boot`] produced: a recovered engine already wired to
/// a fresh store.
#[derive(Debug)]
pub struct Boot {
    /// The recovered engine, journaling into `store`.
    pub oak: Oak,
    /// The open store (also installed as the engine's event sink).
    pub store: Arc<OakStore>,
    /// Whether a valid snapshot was found and loaded.
    pub snapshot_loaded: bool,
    /// WAL events applied on top of the snapshot.
    pub events_replayed: u64,
    /// Segments that ended in a torn or corrupt frame.
    pub torn_segments: usize,
    /// Watermark of the snapshot recovery loaded (0 when none was).
    pub watermark: u64,
    /// Sequence numbers of the WAL events replayed on top of it.
    pub replayed_seqs: Vec<u64>,
}

/// Rebuilds an engine from the newest valid snapshot plus the WAL tail.
///
/// Snapshots are tried newest-first; one that fails its CRC or decode is
/// refused, and recovery falls back to the next, or to replaying the full
/// WAL from an empty engine. Segment events below the snapshot's
/// watermark are skipped; the rest are merged across all segments in
/// global sequence order and applied. A torn or corrupt segment tail
/// truncates that segment's contribution, never the recovery.
///
/// # Errors
///
/// Besides I/O failures, `InvalidData` for a directory that would
/// recover as less than it held, before anything in it is written or
/// compacted:
///
/// - naming the segment, the offset and the first byte, for a frame at or
///   past the watermark whose checksum holds but which this build cannot
///   decode — a journal from a newer build, say. Recovering the prefix
///   before it would let the next compaction delete the rest;
/// - naming each snapshot that was refused and why, when the state they
///   fell back to plus the WAL that is left lacks an event below the
///   newest one's watermark — the WAL starts above the fallback, or ends
///   (an empty WAL included) below that watermark. The WAL is compacted
///   against the snapshots that are kept, and a follower's installed
///   state is a snapshot with no journal beneath it, so a snapshot this
///   build cannot read — damaged, or a state image from another build —
///   may be all that held the events it covers.
///
/// Replay is deterministic: events carry resolved decisions, so the
/// rebuilt engine's `rules()`, `active_rules()`, `aggregates()`, and
/// `log()` are byte-identical to the state that was journaled.
pub fn recover(dir: &Path, config: OakConfig) -> io::Result<Recovery> {
    recover_with(Arc::new(RealFs), dir, config)
}

/// [`recover`] over an arbitrary [`StorageBackend`].
pub fn recover_with(
    backend: Arc<dyn StorageBackend>,
    dir: &Path,
    config: OakConfig,
) -> io::Result<Recovery> {
    if !backend.dir_exists(dir) {
        return Ok(Recovery {
            oak: Oak::new(config),
            snapshot_loaded: false,
            events_replayed: 0,
            torn_segments: 0,
            watermark: 0,
            replayed_seqs: Vec::new(),
            segments: Vec::new(),
        });
    }

    let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
    for name in backend.list_dir(dir)? {
        if let Some(watermark) = parse_snapshot_name(&name) {
            snapshots.push((watermark, dir.join(name)));
        }
    }
    snapshots.sort();

    let mut oak = None;
    let mut watermark = 0;
    let mut snapshot_loaded = false;
    let mut refused: Vec<String> = Vec::new();
    for (snap_watermark, path) in snapshots.iter().rev() {
        match load_snapshot(&*backend, path, config) {
            Ok(recovered) => {
                oak = Some(recovered);
                watermark = *snap_watermark;
                snapshot_loaded = true;
                break;
            }
            // Unreadable snapshot: fall back to an older one.
            Err(why) => refused.push(format!("{}: {why}", path.display())),
        }
    }
    let oak = oak.unwrap_or_else(|| Oak::new(config));

    // What to replay is the shared reader's call (log matching against
    // the snapshot's branch included) — the same call `tail` ships by.
    let wal = wal_events(&*backend, dir, watermark..u64::MAX, oak.epoch())?;
    // Falling back is sound only while the fallback plus the WAL still
    // hold every event a refused snapshot did: compaction kept the WAL
    // that far for the snapshots it kept, not for one that cannot be read,
    // and an installed snapshot has no WAL beneath it at all.
    if let Some((refused_at, _)) = snapshots.last().filter(|_| !refused.is_empty()) {
        // The events are ascending, one per seq, none below `watermark`.
        let first_missing = wal
            .events
            .iter()
            .zip(watermark..)
            .find(|(event, seq)| event.seq != *seq)
            .map_or(watermark + wal.events.len() as u64, |(_, seq)| seq);
        if first_missing < *refused_at {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: event {first_missing} is in neither the newest readable state (which \
                     ends at {watermark}) nor the journal, but a snapshot this build refused \
                     holds every event below {refused_at} ({})",
                    dir.display(),
                    refused.join("; ")
                ),
            ));
        }
    }
    let events_replayed = wal.events.len() as u64;
    let replayed_seqs: Vec<u64> = wal.events.iter().map(|e| e.seq).collect();
    for event in &wal.events {
        oak.apply_event(event);
    }
    Ok(Recovery {
        oak,
        snapshot_loaded,
        events_replayed,
        torn_segments: wal.torn_segments,
        watermark,
        replayed_seqs,
        segments: wal.segments,
    })
}

/// Loads and validates one snapshot file: an `OAKSNAP2` frame holding a
/// state image. Anything else — a snapshot document from before the
/// image, say — is refused (DESIGN.md §8, "Upgrades").
fn load_snapshot(backend: &dyn StorageBackend, path: &Path, config: OakConfig) -> io::Result<Oak> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let buf = backend.read(path)?;
    if buf.get(..SNAPSHOT_MAGIC.len()) != Some(&SNAPSHOT_MAGIC[..]) {
        return Err(bad("snapshot magic mismatch"));
    }
    let Some((payload, end)) = decode_file_frame(&buf, SNAPSHOT_MAGIC.len()) else {
        return Err(bad("snapshot frame torn or corrupt"));
    };
    if end != buf.len() {
        return Err(bad("trailing bytes after snapshot frame"));
    }
    Oak::from_state_image(config, payload).map_err(|e| bad(&e))
}

pub(crate) fn segment_name(slot: usize, id: u64) -> String {
    format!("seg-{slot:02}-{id:08}.wal")
}

fn sealed_segment_name(slot: usize, id: u64, max_seq: u64) -> String {
    format!("seg-{slot:02}-{id:08}-{max_seq:020}.wal")
}

fn snapshot_name(watermark: u64) -> String {
    format!("snap-{watermark:020}.snap")
}

/// What a segment file's name says about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SegmentName {
    pub slot: usize,
    pub id: u64,
    /// The highest seq in the file, for a sealed segment.
    pub sealed: Option<u64>,
}

/// Parses `seg-SS-NNNNNNNN.wal`, or a sealed
/// `seg-SS-NNNNNNNN-MMMMMMMMMMMMMMMMMMMM.wal`.
pub(crate) fn parse_segment_name(name: &str) -> Option<SegmentName> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    let (slot, rest) = rest.split_once('-')?;
    let (id, sealed) = match rest.split_once('-') {
        Some((id, max_seq)) => (id, Some(max_seq.parse().ok()?)),
        None => (rest, None),
    };
    Some(SegmentName {
        slot: slot.parse().ok()?,
        id: id.parse().ok()?,
        sealed,
    })
}

/// Parses `snap-W...W.snap` into the watermark.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use oak_core::events::{EngineEvent, SequencedEvent};
    use oak_core::rule::RuleId;

    use super::{ring_insert, ring_tail, RECENT_TAIL_CAP};
    use crate::segment::{build_frame, FRAME_OVERHEAD};

    /// The ring walk as it was: from the front, skipping below `from_seq`.
    fn linear_tail(
        recent: &VecDeque<(u64, Vec<u8>)>,
        from_seq: u64,
        max: usize,
    ) -> Option<Vec<SequencedEvent>> {
        let first = recent.front()?.0;
        if from_seq < first {
            return None;
        }
        let mut events = Vec::new();
        let mut expect = from_seq;
        for (seq, frame) in recent {
            if *seq < expect {
                continue;
            }
            if events.len() == max || *seq != expect {
                break;
            }
            events.push(SequencedEvent::decode(&frame[FRAME_OVERHEAD..]).ok()?);
            expect += 1;
        }
        Some(events)
    }

    fn seqs(events: Option<Vec<SequencedEvent>>) -> Option<Vec<u64>> {
        events.map(|events| events.iter().map(|e| e.seq).collect())
    }

    /// Out-of-order shard appends, a hole and an overflowing ring: for
    /// every `from_seq` the ring can answer, the jump to it returns what
    /// walking from the front returned.
    #[test]
    fn the_ring_jump_is_the_linear_walk() {
        const HOLE: u64 = 1_100;
        let total = RECENT_TAIL_CAP as u64 + 200;
        let mut recent = VecDeque::new();
        // Shards land in runs of eight, each run reversed: every append
        // but the first of a run is behind one already filed.
        for run in (0..total).step_by(8) {
            for seq in (run..(run + 8).min(total)).rev().filter(|&seq| seq != HOLE) {
                let event = SequencedEvent {
                    seq,
                    epoch: 1,
                    event: EngineEvent::RuleRemoved {
                        id: RuleId(seq as u32),
                    },
                };
                ring_insert(&mut recent, seq, build_frame(|out| event.encode_into(out)));
            }
        }
        assert_eq!(recent.len(), RECENT_TAIL_CAP);
        let first = recent.front().unwrap().0;
        assert!(recent
            .iter()
            .zip(recent.iter().skip(1))
            .all(|(a, b)| a.0 < b.0));
        for from in first.saturating_sub(2)..total + 2 {
            for max in [0, 1, 64, usize::MAX] {
                assert_eq!(
                    seqs(ring_tail(&recent, from, max)),
                    seqs(linear_tail(&recent, from, max)),
                    "from {from}, max {max}"
                );
            }
        }
        assert_eq!(seqs(ring_tail(&recent, first - 1, 64)), None);
        assert_eq!(
            seqs(ring_tail(&recent, HOLE - 3, 64)),
            Some(vec![HOLE - 3, HOLE - 2, HOLE - 1]),
            "stops at the hole"
        );
        assert_eq!(seqs(ring_tail(&recent, HOLE, 64)), Some(Vec::new()));
    }
}
