//! A replica that installs a primary's state image below its own head:
//! its snapshots only go forward, so neither the dead branch's snapshot
//! nor a late compaction of the engine it replaced can come back at the
//! next boot.

mod common;

use std::sync::Arc;

use common::{apply_op, fingerprint, scripted_ops, seed_rules, temp_dir};
use oak_core::engine::{Oak, OakConfig};
use oak_store::{recover, FsyncPolicy, OakStore, StoreOptions};

#[test]
fn an_install_below_the_head_retires_the_dead_branch() {
    let dir = temp_dir("installs");
    let options = StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    };
    let store = Arc::new(OakStore::open(&dir, options).expect("open store"));
    let mut dead = Oak::new(OakConfig::default());
    dead.set_event_sink(store.clone());
    dead.set_epoch(1);
    seed_rules(&dead);
    let ops = scripted_ops(5, 40);
    // What the winner holds: the shared prefix of both branches.
    for (step, op) in ops[..20].iter().enumerate() {
        apply_op(&dead, step, *op);
    }
    let (watermark, image) = dead.state_image();
    // This replica runs on, then compacts: a snapshot of a branch that
    // is about to die, above the watermark of the image it will install.
    for (step, op) in ops[20..].iter().enumerate() {
        apply_op(&dead, 20 + step, *op);
    }
    store.snapshot(&dead).expect("snapshot of the dead branch");
    assert!(dead.event_seq() > watermark);

    let mut live = Oak::from_state_image(OakConfig::default(), &image).expect("image loads");
    live.set_epoch(2);
    live.set_event_sink(store.clone());
    store.snapshot(&live).expect("install");
    for (step, op) in scripted_ops(6, 10).into_iter().enumerate() {
        apply_op(&live, 40 + step, op);
    }

    // A compaction of the engine the install replaced is not written.
    assert!(store.snapshot(&dead).is_err());
    assert!(!store.maybe_snapshot(&dead).expect("maybe_snapshot"));
    assert_eq!(store.write_errors(), 0);

    let recovered = recover(&dir, OakConfig::default()).expect("recover");
    assert_eq!(recovered.watermark, watermark);
    assert_eq!(fingerprint(&recovered.oak), fingerprint(&live));
    std::fs::remove_dir_all(&dir).ok();
}
