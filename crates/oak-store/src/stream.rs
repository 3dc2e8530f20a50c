//! WAL tailing: reading the journaled event stream back out of a store
//! directory, in global sequence order, starting at an arbitrary
//! sequence number.
//!
//! This is the read half of WAL shipping. A replication primary answers
//! "send me everything from sequence `F`" by calling
//! [`OakStore::tail`](crate::OakStore::tail) (or [`tail_wal`] on a bare
//! directory) and forwarding the returned events. Two outcomes are
//! possible:
//!
//! - [`Tail::Events`] — the log still covers `from_seq`, and the result
//!   is the *contiguous* run of events `from_seq, from_seq + 1, …` as
//!   far as the log currently reaches. Contiguity is the load-bearing
//!   guarantee: segments are read back sorted by sequence number, and a
//!   frame that is mid-write (or torn) truncates the run rather than
//!   leaving a hole, so a follower can apply the batch blindly.
//! - [`Tail::Compacted`] — `from_seq` predates the newest snapshot
//!   watermark and the covering segments may already be deleted. The
//!   caller must fall back to snapshot transfer (ship the engine's
//!   current snapshot, then resume tailing from its watermark).
//!
//! # One reader
//!
//! Tailing is read-only and crash-consistent: what it ships is what a
//! post-crash replay would reconstruct, because both get their events
//! from [`wal_events`] — the one place that walks the segment files,
//! decodes frames ([`SequencedEvent::decode`]), and decides which of two
//! frames claiming the same sequence number is history and which is a
//! dead branch. [`recover_with`](crate::recover_with) replays its result;
//! [`tail_wal`] ships the contiguous run at its front.

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use oak_core::events::SequencedEvent;

use crate::backend::StorageBackend;
use crate::segment::parse_segment;
use crate::store::{parse_segment_name, parse_snapshot_name};

/// What tailing the WAL from a sequence number produced.
#[derive(Debug)]
pub enum Tail {
    /// The log covers `from_seq`: the contiguous events from `from_seq`
    /// up to wherever the log currently ends (possibly empty when the
    /// follower is already caught up). Sorted ascending, no gaps.
    Events(Vec<SequencedEvent>),
    /// `from_seq` predates the newest snapshot watermark; events that
    /// old may have been compacted away. Ship a snapshot instead, then
    /// resume tailing from `watermark`.
    Compacted {
        /// The newest on-disk snapshot watermark: every event below it
        /// is reflected in that snapshot.
        watermark: u64,
    },
}

/// What one segment file yields: the events with a seq in `seqs` in its
/// checksum-valid frame prefix, the highest sequence number in that
/// prefix, and whether the prefix was the whole file.
///
/// A frame outside `seqs` is skipped on the `seq` in its fixed header,
/// body unread ([`skipped_seq`]). A frame that passes its CRC but cannot
/// be decoded is not a torn tail — the bytes are what some writer meant —
/// so it is an error, not the end of the salvage: a journal from a newer
/// build (an unknown version byte after a downgrade) must not recover as
/// a prefix that the next compaction then makes permanent.
fn segment_events(
    backend: &dyn StorageBackend,
    path: &Path,
    seqs: &Range<u64>,
) -> io::Result<(Vec<SequencedEvent>, u64, bool)> {
    let buf = backend.read(path)?;
    let contents = parse_segment(&buf);
    let mut events = Vec::new();
    let mut max_seq = 0;
    for &(offset, payload) in &contents.frames {
        if let Some(seq) = skipped_seq(payload, seqs) {
            max_seq = max_seq.max(seq);
            continue;
        }
        let event = SequencedEvent::decode(payload).map_err(|why| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: the frame at offset {offset} passes its CRC but this build cannot \
                     read it (first byte 0x{:02x}): {why}",
                    path.display(),
                    payload[0] // `parse_segment` yields no empty payload
                ),
            )
        })?;
        max_seq = max_seq.max(event.seq);
        if seqs.contains(&event.seq) {
            events.push(event);
        }
    }
    Ok((events, max_seq, contents.clean))
}

/// The `seq` of a frame the walk passes over body unread, because it
/// lies outside `seqs`; `None` for a frame to decode.
///
/// Below the range the skip is final — no later read of this reader
/// starts lower — so only a version byte this build knows vouches for
/// the `seq` behind it, and any other frame is decoded (and refused, if
/// it cannot be). Past the range the skip only defers: the call whose
/// range reaches the frame reads it in full, and recovery's range has
/// no end. There the `seq` at offset 1 is taken whatever the version
/// byte says, so one batch of a follower's catch-up is not refused for
/// a frame far ahead of it.
fn skipped_seq(payload: &[u8], seqs: &Range<u64>) -> Option<u64> {
    if let Some(seq) = SequencedEvent::encoded_seq(payload) {
        return (!seqs.contains(&seq)).then_some(seq);
    }
    let seq = payload
        .get(1..9)
        .map(|bytes| u64::from_le_bytes(bytes.try_into().expect("8 bytes")))?;
    (seq >= seqs.end).then_some(seq)
}

/// What [`wal_events`] read out of a store directory.
pub(crate) struct WalScan {
    /// The events with a seq in the range asked for on the live branch,
    /// ascending, one per sequence number.
    pub events: Vec<SequencedEvent>,
    /// Every segment file, with the highest sequence number it holds (0
    /// when it yielded nothing): the one its sealed name carries, or the
    /// highest its frames yielded.
    pub segments: Vec<(PathBuf, u64)>,
    /// How many of the files read ended in a torn or corrupt frame (their
    /// valid prefix still counts).
    pub torn_segments: usize,
}

/// Reads the frames with a seq in `seqs` out of the WAL in `dir` — the
/// only code that walks the segment files.
///
/// A sealed segment (`store.rs`: one renamed, once nothing appended to it
/// any more, to carry the highest seq in it) whose highest seq lies below
/// the range is not opened: every frame in it would be skipped on its
/// header anyway, so the events returned are the same, and it is reported
/// with the highest seq its name carries, as if it had been read. A
/// build from before sealed names does not list them, so the upgrade is
/// one-way.
///
/// Raft-style log matching decides what "the live branch" is. A replica
/// that installed a newer primary's snapshot may still hold frames
/// journaled on a dead branch — events a deposed primary emitted that
/// never committed — under sequence numbers the live branch reuses.
/// Among frames with the same seq the highest epoch wins, and a frame
/// whose epoch is below the highest already on the branch (seeded with
/// `branch_epoch`: the loaded snapshot's epoch at recovery, 0 when only
/// the frames themselves are to be judged) is a conflicting suffix and
/// is dropped. Single-node WALs are uniformly epoch 0, where this
/// reduces to the plain merge by sequence number. Cutting the range at
/// its end changes nothing below it: the sort, the per-seq choice and
/// the branch filter each decide a seq from the frames at or below it.
pub(crate) fn wal_events(
    backend: &dyn StorageBackend,
    dir: &Path,
    seqs: Range<u64>,
    mut branch_epoch: u64,
) -> io::Result<WalScan> {
    let mut names = backend.list_dir(dir)?;
    names.sort();
    let mut events: Vec<SequencedEvent> = Vec::new();
    let mut segments = Vec::new();
    let mut torn_segments = 0;
    for name in &names {
        let Some(segment) = parse_segment_name(name) else {
            continue;
        };
        let path = dir.join(name);
        if let Some(max_seq) = segment.sealed.filter(|&max_seq| max_seq < seqs.start) {
            segments.push((path, max_seq));
            continue;
        }
        let (segment, max_seq, clean) = segment_events(backend, &path, &seqs)?;
        segments.push((path, max_seq));
        events.extend(segment);
        torn_segments += usize::from(!clean);
    }
    events.sort_by(|a, b| a.seq.cmp(&b.seq).then(b.epoch.cmp(&a.epoch)));
    events.dedup_by_key(|e| e.seq);
    events.retain(|e| {
        if e.epoch < branch_epoch {
            return false;
        }
        branch_epoch = e.epoch;
        true
    });
    Ok(WalScan {
        events,
        segments,
        torn_segments,
    })
}

/// Tails the WAL in `dir` through `backend`, returning every event with
/// `seq >= from_seq` that the log contiguously covers. See the module
/// docs for the `Events` / `Compacted` split.
pub fn tail_wal(backend: &dyn StorageBackend, dir: &Path, from_seq: u64) -> io::Result<Tail> {
    tail_batch(backend, dir, from_seq, usize::MAX)
}

/// [`tail_wal`], the run cut at `max` events — one batch of shipping.
/// Frames at or past `from_seq + max` are skipped on their header like
/// those below `from_seq`, so a batch decodes what it ships and no more.
pub(crate) fn tail_batch(
    backend: &dyn StorageBackend,
    dir: &Path,
    from_seq: u64,
    max: usize,
) -> io::Result<Tail> {
    if !backend.dir_exists(dir) {
        return Ok(Tail::Events(Vec::new()));
    }
    // At least one seq: whether the log covers `from_seq` decides between
    // an empty batch and `Compacted`.
    let until = from_seq.saturating_add(max.max(1) as u64);
    let mut events = wal_events(backend, dir, from_seq..until, 0)?.events;
    if events.first().is_none_or(|e| e.seq != from_seq) {
        // The run does not start at `from_seq`. If the snapshot
        // watermark has moved past it, the missing prefix was (or may
        // have been) compacted — snapshot transfer territory. Otherwise
        // nothing at `from_seq` has reached the log yet (caught-up
        // follower, or a frame still mid-write): ship nothing.
        let watermark = wal_watermark(backend, dir)?;
        return Ok(if from_seq < watermark {
            Tail::Compacted { watermark }
        } else {
            Tail::Events(Vec::new())
        });
    }
    // Truncate at the first gap: a hole means a lower-seq frame is still
    // being written (or was torn), and shipping past it would let a
    // follower apply out of order.
    let run = events
        .iter()
        .zip(from_seq..)
        .take_while(|(event, seq)| event.seq == *seq)
        .count();
    events.truncate(run.min(max));
    Ok(Tail::Events(events))
}

/// The newest snapshot watermark visible in `dir` (0 when none): every
/// event with `seq` below it is reflected in that snapshot.
pub fn wal_watermark(backend: &dyn StorageBackend, dir: &Path) -> io::Result<u64> {
    if !backend.dir_exists(dir) {
        return Ok(0);
    }
    let mut watermark = 0;
    for name in backend.list_dir(dir)? {
        if let Some(w) = parse_snapshot_name(&name) {
            watermark = watermark.max(w);
        }
    }
    Ok(watermark)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use oak_core::prelude::*;

    use super::*;
    use crate::{FsyncPolicy, OakStore, StoreOptions};

    fn options() -> StoreOptions {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            ..StoreOptions::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oak-stream-{tag}-{}", std::process::id()))
    }

    /// Hand-writes the segment `name` in `dir`: one `RuleRemoved`
    /// frame per seq, stamped with `epoch`.
    fn write_segment(dir: &Path, name: &str, epoch: u64, seqs: impl IntoIterator<Item = u64>) {
        let mut writer = crate::segment::SegmentWriter::create(dir.join(name)).unwrap();
        for seq in seqs {
            let ev = SequencedEvent {
                seq,
                epoch,
                event: oak_core::events::EngineEvent::RuleRemoved {
                    id: oak_core::rule::RuleId(seq as u32),
                },
            };
            writer.append(seq, &ev.encode()).unwrap();
        }
        writer.sync().unwrap();
    }

    fn events_of(tail: Tail) -> Vec<SequencedEvent> {
        match tail {
            Tail::Events(events) => events,
            Tail::Compacted { watermark } => panic!("unexpected Compacted {{ {watermark} }}"),
        }
    }

    #[test]
    fn tails_from_zero_and_midstream() {
        let dir = temp_dir("mid");
        let _ = std::fs::remove_dir_all(&dir);
        let boot = OakStore::boot(&dir, OakConfig::default(), options()).unwrap();
        let id = boot
            .oak
            .add_rule(Rule::remove(r#"<script src="http://a.example/x.js">"#))
            .unwrap();
        for i in 0..5 {
            boot.oak
                .force_activate(Instant::ZERO, &format!("u-{i}"), id);
        }
        let head = boot.oak.event_seq();
        assert_eq!(head, 6);

        let all = events_of(boot.store.tail(0, usize::MAX).unwrap());
        assert_eq!(all.len(), 6);
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );

        let suffix = events_of(boot.store.tail(4, usize::MAX).unwrap());
        assert_eq!(suffix.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);

        // At or past the head: caught up, nothing to ship.
        assert!(events_of(boot.store.tail(head, usize::MAX).unwrap()).is_empty());
        assert!(events_of(boot.store.tail(head + 10, usize::MAX).unwrap()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tailed_events_carry_their_epoch() {
        let dir = temp_dir("epoch");
        let _ = std::fs::remove_dir_all(&dir);
        let boot = OakStore::boot(&dir, OakConfig::default(), options()).unwrap();
        boot.oak.set_epoch(7);
        boot.oak
            .add_rule(Rule::remove(r#"<script src="http://a.example/x.js">"#))
            .unwrap();
        let events = events_of(boot.store.tail(0, usize::MAX).unwrap());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].epoch, 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recent_ring_matches_the_log_scan() {
        let dir = temp_dir("ring");
        let _ = std::fs::remove_dir_all(&dir);
        let boot = OakStore::boot(&dir, OakConfig::default(), options()).unwrap();
        let id = boot
            .oak
            .add_rule(Rule::remove(r#"<script src="http://a.example/x.js">"#))
            .unwrap();
        let total = crate::RECENT_TAIL_CAP + 40;
        for i in 0..total - 1 {
            boot.oak
                .force_activate(Instant::ZERO, &format!("u-{i}"), id);
        }
        let head = boot.oak.event_seq();
        assert_eq!(head as usize, total);
        let same = |a: &[SequencedEvent], b: &[SequencedEvent]| {
            assert_eq!(a.len(), b.len());
            for (a, b) in a.iter().zip(b) {
                assert_eq!(a.encode(), b.encode());
            }
        };
        // A follower further back than the ring reaches falls through to
        // the disk scan and still gets the complete contiguous run; one
        // batch of it is the first `max` events of that run.
        let deep = events_of(boot.store.tail(0, usize::MAX).unwrap());
        assert_eq!(deep.len(), total);
        same(&events_of(boot.store.tail(8, 64).unwrap()), &deep[8..72]);
        // A nearly-caught-up follower is served from memory; the two
        // paths must agree event for event.
        let from = head - 16;
        let ring = events_of(boot.store.tail(from, usize::MAX).unwrap());
        let scan = events_of(tail_wal(&crate::RealFs, &dir, from).unwrap());
        assert_eq!(ring.len(), 16);
        same(&ring, &scan);
        // Fully caught up: both paths ship nothing.
        assert!(events_of(boot.store.tail(head, usize::MAX).unwrap()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_forces_snapshot_fallback() {
        let dir = temp_dir("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            fsync: FsyncPolicy::Always,
            keep_snapshots: 1,
            ..StoreOptions::default()
        };
        let boot = OakStore::boot(&dir, OakConfig::default(), opts).unwrap();
        let id = boot
            .oak
            .add_rule(Rule::remove(r#"<script src="http://a.example/x.js">"#))
            .unwrap();
        boot.oak.force_activate(Instant::ZERO, "u-1", id);
        // Snapshot at the head; with keep_snapshots=1 the segments
        // holding seqs 0..2 compact away immediately.
        boot.store.snapshot(&boot.oak).unwrap();
        let head = boot.oak.event_seq();
        // The live store still covers the compacted prefix from its
        // recent ring: shipping beats forcing a snapshot transfer.
        assert_eq!(
            events_of(boot.store.tail(0, usize::MAX).unwrap()).len(),
            head as usize
        );
        // A rebooted store starts with an empty ring, so a follower
        // behind the on-disk compaction horizon is snapshot-transfer
        // territory.
        drop(boot);
        let reboot = OakStore::boot(&dir, OakConfig::default(), opts).unwrap();
        match reboot.store.tail(0, usize::MAX).unwrap() {
            Tail::Compacted { watermark } => assert_eq!(watermark, head),
            Tail::Events(events) => panic!("expected Compacted, got {} events", events.len()),
        }
        // From the watermark onward the (empty) tail is servable again.
        assert!(events_of(reboot.store.tail(head, usize::MAX).unwrap()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncates_at_sequence_gaps() {
        use crate::backend::RealFs;

        let dir = temp_dir("gap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write a segment with seqs 0, 1, 3 — seq 2 is "mid-write
        // elsewhere". The tail must stop at the gap.
        write_segment(&dir, "seg-00-00000000.wal", 0, [0, 1, 3]);
        let tail = tail_wal(&RealFs, &dir, 0).unwrap();
        let events = events_of(tail);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        // Asking from past the gap works once the gap is behind us.
        let events = events_of(tail_wal(&RealFs, &dir, 3).unwrap());
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ships_the_live_branch_where_two_epochs_claim_a_seq() {
        use crate::backend::RealFs;

        let dir = temp_dir("branches");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A deposed primary's directory: it journaled seqs 0..5 in epoch
        // 1, of which only 0 and 1 ever committed; then it installed the
        // winner's snapshot at 2 and followed seqs 2 and 3 in epoch 3.
        // The dead frames sit in the file that sorts first.
        write_segment(&dir, "seg-00-00000000.wal", 1, 0..5);
        write_segment(&dir, "seg-00-00000001.wal", 3, 2..4);

        let shipped = |from| -> Vec<(u64, u64)> {
            let events = events_of(tail_wal(&RealFs, &dir, from).unwrap());
            events.iter().map(|e| (e.seq, e.epoch)).collect()
        };
        // Seq 4 exists only on the dead branch: nothing to ship there.
        assert_eq!(shipped(0), vec![(0, 1), (1, 1), (2, 3), (3, 3)]);
        assert_eq!(shipped(3), vec![(3, 3)]);
        // And it is, seq for seq, what recovery replays.
        let recovered = crate::recover(&dir, OakConfig::default()).unwrap();
        assert_eq!(recovered.replayed_seqs, vec![0, 1, 2, 3]);
        assert_eq!(recovered.oak.epoch(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_an_empty_tail() {
        let dir = temp_dir("missing-nonexistent");
        let _ = std::fs::remove_dir_all(&dir);
        let backend: Arc<dyn StorageBackend> = Arc::new(crate::backend::RealFs);
        assert!(events_of(tail_wal(&*backend, &dir, 0).unwrap()).is_empty());
        assert_eq!(wal_watermark(&*backend, &dir).unwrap(), 0);
    }

    fn removed(seq: u64) -> Vec<u8> {
        SequencedEvent {
            seq,
            epoch: 0,
            event: oak_core::events::EngineEvent::RuleRemoved {
                id: oak_core::rule::RuleId(9),
            },
        }
        .encode()
    }

    #[test]
    fn a_batch_is_not_refused_for_a_frame_past_it() {
        let dir = temp_dir("past-batch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let from = 100;
        let ahead = from + 100;
        let mut writer =
            crate::segment::SegmentWriter::create(dir.join("seg-00-00000000.wal")).unwrap();
        for seq in 0..ahead {
            writer.append(seq, &removed(seq)).unwrap();
        }
        // What a downgrade finds: a version byte this build has never
        // heard of, its checksum intact.
        let mut newer = removed(ahead);
        newer[0] = oak_core::events::EVENT_VERSION + 1;
        writer.append(ahead, &newer).unwrap();
        writer.append(ahead + 1, &removed(ahead + 1)).unwrap();
        writer.sync().unwrap();

        // A store opened bare has an empty ring: the batch comes off disk.
        let store = OakStore::open(&dir, options()).unwrap();
        let batch = events_of(store.tail(from, 64).unwrap());
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (from..from + 64).collect::<Vec<_>>()
        );
        // The batch that reaches the frame is refused, and so is a boot.
        let refused = |result: io::Result<()>| {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
        };
        refused(store.tail(from + 64, 64).map(drop));
        refused(crate::recover(&dir, OakConfig::default()).map(drop));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One step of the exactness workload: `(kind, user, host)`.
    type Op = (u8, u8, u8);

    fn report(user: u8, host: u8, violating: bool) -> PerfReport {
        let mut report = PerfReport::new(format!("u-{user}"), "/p");
        for h in 0..4 {
            let slow = if violating && h == host { 900.0 } else { 0.0 };
            report.push(ObjectTiming::new(
                format!("http://cdn{h}.example/lib.js"),
                format!("10.0.{h}.1"),
                30_000,
                80.0 + f64::from(h) * 5.0 + slow,
            ));
        }
        report
    }

    fn apply(oak: &Oak, store: &OakStore, step: usize, (kind, user, host): Op) {
        let now = Instant(step as u64 * 10);
        let rule = || Rule::remove(format!(r#"<script src="http://cdn{host}.example/lib.js">"#));
        match kind % 6 {
            0 | 1 => drop(oak.ingest_report(now, &report(user, host, kind == 0), &NoFetch)),
            2 => {
                // Rule churn: retire one, add a replacement.
                if let Some((id, _)) = oak.rules().nth(usize::from(host)) {
                    oak.remove_rule(id);
                }
                oak.add_rule(rule()).unwrap();
            }
            3 => {
                if let Some((id, _)) = oak.rules().nth(usize::from(host)) {
                    oak.force_activate(now, &format!("u-{user}"), id);
                }
            }
            4 => {
                if let Some((id, _)) = oak.rules().nth(usize::from(host)) {
                    oak.force_deactivate(&format!("u-{user}"), id);
                }
            }
            _ => drop(store.snapshot(oak)),
        }
        store.maybe_snapshot(oak).unwrap();
    }

    /// Copies `from` into `to`, every segment under its unsealed name.
    fn unsealed_copy(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let target = match parse_segment_name(&name) {
                Some(segment) => crate::store::segment_name(segment.id),
                None => name.clone(),
            };
            assert!(!to.join(&target).exists(), "{name} twice");
            std::fs::copy(from.join(&name), to.join(target)).unwrap();
        }
    }

    /// What a scan returned: each event as `(seq, epoch, bytes)`, and each
    /// file's highest seq under its unsealed name.
    type Read = (Vec<(u64, u64, Vec<u8>)>, Vec<(String, u64)>);

    fn read(dir: &Path, seqs: Range<u64>) -> Read {
        let scan = wal_events(&crate::RealFs, dir, seqs, 0).unwrap();
        let events = scan
            .events
            .iter()
            .map(|e| (e.seq, e.epoch, e.encode()))
            .collect();
        let mut highs: Vec<(String, u64)> = scan
            .segments
            .iter()
            .map(|(path, high)| {
                let name = path.file_name().unwrap().to_str().unwrap();
                let segment = parse_segment_name(name).unwrap();
                (crate::store::segment_name(segment.id), *high)
            })
            .collect();
        highs.sort();
        (events, highs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A sealed name changes nothing any read returns. Random ingest,
        /// rule churn, snapshots and rotations, through a replica deposed
        /// at `dead_at` — it installs the winner's image, taken at half
        /// that point, under a higher epoch and reuses the seqs its dead
        /// branch journaled — then a reboot (which seals what it keeps)
        /// and more of the workload: for every `from_seq`, the sealed
        /// directory and a copy with every name unsealed yield the same
        /// events and the same per-file highest seqs.
        #[test]
        fn sealed_names_change_nothing_a_read_returns(
            ops in proptest::collection::vec((0u8..6, 0u8..5, 0u8..4), 20..90),
            dead_at in 4usize..60,
        ) {
            let dir = temp_dir(&format!("sealed-{}", ops.len()));
            let copy = dir.with_extension("unsealed");
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&copy);
            let options = StoreOptions {
                fsync: FsyncPolicy::Never,
                snapshot_every_events: 9,
                rotate_segment_bytes: 900,
                keep_snapshots: 2,
            };
            let (first, rest) = ops.split_at(ops.len() * 2 / 3);
            {
                let store = Arc::new(OakStore::open(&dir, options).unwrap());
                let mut oak = Oak::new(OakConfig::default());
                oak.set_event_sink(store.clone());
                oak.set_epoch(1);
                let mut winner = None;
                for (step, op) in first.iter().enumerate() {
                    if step == dead_at / 2 {
                        winner = Some(oak.state_image().1);
                    }
                    if step == dead_at {
                        let image = winner.take().unwrap();
                        let mut fresh = Oak::from_state_image(OakConfig::default(), &image).unwrap();
                        fresh.set_epoch(2);
                        fresh.set_event_sink(store.clone());
                        store.snapshot(&fresh).unwrap();
                        oak = fresh;
                    }
                    apply(&oak, &store, step, *op);
                }
            }
            let boot = OakStore::boot(&dir, OakConfig::default(), options).unwrap();
            for (step, op) in rest.iter().enumerate() {
                apply(&boot.oak, &boot.store, first.len() + step, *op);
            }
            let head = boot.oak.event_seq();
            drop(boot);

            unsealed_copy(&dir, &copy);
            let sealed = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name().into_string().unwrap();
                    parse_segment_name(&name).is_some_and(|s| s.sealed.is_some())
                })
                .count();
            proptest::prop_assert!(sealed > 0);
            for from in 0..=head + 1 {
                proptest::prop_assert_eq!(read(&dir, from..u64::MAX), read(&copy, from..u64::MAX));
                proptest::prop_assert_eq!(read(&dir, from..from + 5), read(&copy, from..from + 5));
            }
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&copy).unwrap();
        }
    }
}
