//! Property tests for the durability layer: WAL frame round-trips and
//! replay determinism, from genesis and from a snapshot.

mod common;

use proptest::prelude::*;

use common::{apply_op, fingerprint, seed_rules, HOSTS, USERS};
use oak_core::engine::{Oak, OakConfig};
use oak_store::segment::{decode_frame, encode_frame, FRAME_OVERHEAD};
use oak_store::{recover, FsyncPolicy, OakStore, StoreOptions};

/// Strategy: one workload operation.
fn op_strategy() -> impl Strategy<Value = common::Op> {
    (0usize..8, 0usize..USERS, 0usize..HOSTS)
}

fn always_fsync() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode_frame` inverts `encode_frame` for any payload and tells
    /// exactly how many bytes the frame occupied.
    #[test]
    fn frame_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let frame = encode_frame(&payload);
        prop_assert_eq!(frame.len(), FRAME_OVERHEAD + payload.len());
        let (decoded, next) = decode_frame(&frame, 0).expect("frame decodes");
        prop_assert_eq!(decoded, &payload[..]);
        prop_assert_eq!(next, frame.len());
    }

    /// Concatenated frames decode back to the same payload sequence, and
    /// chopping any suffix off never yields a phantom frame.
    #[test]
    fn frame_stream_roundtrip(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..10),
        chop in 0usize..32,
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            buf.extend_from_slice(&encode_frame(p));
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((payload, next)) = decode_frame(&buf, offset) {
            decoded.push(payload.to_vec());
            offset = next;
        }
        prop_assert_eq!(&decoded, &payloads);
        prop_assert_eq!(offset, buf.len());

        // Truncate mid-stream: decoding stops at a frame boundary at or
        // before the cut, never past it.
        let cut = buf.len().saturating_sub(chop);
        let truncated = &buf[..cut];
        let mut offset = 0;
        while let Some((_, next)) = decode_frame(truncated, offset) {
            offset = next;
        }
        prop_assert!(offset <= cut);
    }

    /// Replay determinism, the tentpole guarantee: journal an arbitrary
    /// workload, recover from disk, and every engine observable — rules,
    /// activations, pending counts, log, aggregates, sequence counters —
    /// is byte-identical.
    #[test]
    fn replay_rebuilds_identical_state(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let dir = common::temp_dir("props");
        {
            let store = std::sync::Arc::new(
                OakStore::open(&dir, always_fsync()).expect("open store"),
            );
            let mut oak = Oak::new(OakConfig::default());
            oak.set_event_sink(store.clone());
            seed_rules(&oak);
            for (step, op) in ops.into_iter().enumerate() {
                apply_op(&oak, step, op);
            }
            let recovered = recover(&dir, OakConfig::default()).expect("recover");
            prop_assert_eq!(recovered.torn_segments, 0);
            prop_assert_eq!(fingerprint(&recovered.oak), fingerprint(&oak));
            let users = common::all_users();
            prop_assert_eq!(
                common::observables(&recovered.oak, &users),
                common::observables(&oak, &users)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Same as above, but with a mid-workload snapshot: recovery composes
    /// snapshot + WAL tail instead of replaying from genesis.
    #[test]
    fn snapshot_plus_tail_rebuilds_identical_state(
        ops in prop::collection::vec(op_strategy(), 2..60),
        cut_permille in 0usize..1000,
    ) {
        let dir = common::temp_dir("snap-tail");
        {
            let store = std::sync::Arc::new(
                OakStore::open(&dir, always_fsync()).expect("open store"),
            );
            let mut oak = Oak::new(OakConfig::default());
            oak.set_event_sink(store.clone());
            seed_rules(&oak);
            let cut = ops.len() * cut_permille / 1000;
            for (step, op) in ops.into_iter().enumerate() {
                if step == cut {
                    store.snapshot(&oak).expect("snapshot");
                }
                apply_op(&oak, step, op);
            }
            let recovered = recover(&dir, OakConfig::default()).expect("recover");
            prop_assert!(recovered.snapshot_loaded);
            prop_assert_eq!(fingerprint(&recovered.oak), fingerprint(&oak));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
