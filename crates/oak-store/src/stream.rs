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
//!   guarantee: per-shard segments are merged by sequence number, and a
//!   frame that is mid-write (or torn) truncates the run rather than
//!   leaving a hole, so a follower can apply the batch blindly.
//! - [`Tail::Compacted`] — `from_seq` predates the newest snapshot
//!   watermark and the covering segments may already be deleted. The
//!   caller must fall back to snapshot transfer (ship the engine's
//!   current snapshot, then resume tailing from its watermark).
//!
//! Tailing is read-only and crash-consistent: it decodes the same frame
//! prefix recovery would, so anything it ships is state a post-crash
//! replay would also reconstruct.

use std::io;
use std::path::Path;

use oak_core::events::SequencedEvent;

use crate::backend::StorageBackend;
use crate::segment::read_segment_with;
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

/// Decodes one WAL frame payload back into its event. `None` marks
/// corruption the CRC missed — callers treat it like a torn tail.
fn decode_event(payload: &[u8]) -> Option<SequencedEvent> {
    let text = std::str::from_utf8(payload).ok()?;
    let doc = oak_json::parse(text).ok()?;
    SequencedEvent::from_value(&doc).ok()
}

/// Tails the WAL in `dir` through `backend`, returning every event with
/// `seq >= from_seq` that the log contiguously covers. See the module
/// docs for the `Events` / `Compacted` split.
pub fn tail_wal(backend: &dyn StorageBackend, dir: &Path, from_seq: u64) -> io::Result<Tail> {
    if !backend.dir_exists(dir) {
        return Ok(Tail::Events(Vec::new()));
    }
    let mut watermark = 0u64;
    let mut events: Vec<SequencedEvent> = Vec::new();
    let mut names = backend.list_dir(dir)?;
    names.sort();
    for name in names {
        if let Some(w) = parse_snapshot_name(&name) {
            watermark = watermark.max(w);
            continue;
        }
        if parse_segment_name(&name).is_none() {
            continue;
        }
        let contents = read_segment_with(backend, &dir.join(&name))?;
        for payload in &contents.payloads {
            // Like recovery: a frame that passes its CRC but fails to
            // decode truncates this segment's contribution.
            let Some(event) = decode_event(payload) else {
                break;
            };
            if event.seq >= from_seq {
                events.push(event);
            }
        }
    }
    events.sort_by_key(|e| e.seq);
    events.dedup_by_key(|e| e.seq);

    if events.first().is_none_or(|e| e.seq != from_seq) {
        // The run does not start at `from_seq`. If the snapshot
        // watermark has moved past it, the missing prefix was (or may
        // have been) compacted — snapshot transfer territory. Otherwise
        // nothing at `from_seq` has reached the log yet (caught-up
        // follower, or a frame still mid-write): ship nothing.
        return Ok(if from_seq < watermark {
            Tail::Compacted { watermark }
        } else {
            Tail::Events(Vec::new())
        });
    }
    // Truncate at the first gap: a hole means a lower-seq frame is still
    // being written (or was torn) in another shard's segment, and
    // shipping past it would let a follower apply out of order.
    let mut end = 0;
    for (i, event) in events.iter().enumerate() {
        if event.seq != from_seq + i as u64 {
            break;
        }
        end = i + 1;
    }
    events.truncate(end);
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
                assert_eq!(a.to_value().to_string(), b.to_value().to_string());
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
        use crate::segment::SegmentWriter;

        let dir = temp_dir("gap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write a segment with seqs 0, 1, 3 — seq 2 is "mid-write
        // elsewhere". The tail must stop at the gap.
        let mut writer = SegmentWriter::create(dir.join("seg-16-00000000.wal"), None).unwrap();
        for seq in [0u64, 1, 3] {
            let ev = SequencedEvent {
                seq,
                epoch: 0,
                event: oak_core::events::EngineEvent::RuleRemoved {
                    id: oak_core::rule::RuleId(seq as u32),
                },
            };
            writer
                .append(seq, ev.to_value().to_string().as_bytes())
                .unwrap();
        }
        writer.sync().unwrap();
        let tail = tail_wal(&RealFs, &dir, 0).unwrap();
        let events = events_of(tail);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        // Asking from past the gap works once the gap is behind us.
        let events = events_of(tail_wal(&RealFs, &dir, 3).unwrap());
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3]);
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
}
