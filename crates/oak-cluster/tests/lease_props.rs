//! Property tests for the heartbeat/lease state machine: under
//! arbitrary interleavings of heartbeat loss, message duplication,
//! delayed delivery, and per-node clock skew, **at most one node ever
//! holds a partition's lease in any given epoch**.
//!
//! The harness drives N pure [`Lease`] machines with independent clocks
//! (skew is just clocks advancing at different generated rates) and a
//! shared bag of undelivered messages that steps may deliver, drop, or
//! duplicate in any order. Every time any machine reports
//! `Role::Primary` the claim is recorded against its epoch; two
//! distinct claimants for one epoch is the failure. This is the
//! election-safety half of the cluster's losslessness argument — the
//! sim sweep covers the other half (acked events survive the winner).

use proptest::prelude::*;

use oak_cluster::{Lease, LeaseConfig, LeaseMsg, NodeId, Role};
use std::collections::BTreeMap;

/// One scripted step: `(kind, selector, amount)`.
/// kind 0 => advance node (selector % n)'s clock by `amount` ms + tick
/// kind 1 => deliver message (selector % bag)
/// kind 2 => drop message (selector % bag)
/// kind 3 => duplicate message (selector % bag)
type Step = (usize, usize, u64);

struct Bag {
    /// `(from, to, msg)` not yet delivered.
    pending: Vec<(NodeId, NodeId, LeaseMsg)>,
}

struct Claims {
    /// epoch → the one node allowed to be primary in it.
    by_epoch: BTreeMap<u64, NodeId>,
}

impl Claims {
    fn record(&mut self, node: NodeId, lease: &Lease) {
        if lease.role() != Role::Primary {
            return;
        }
        let holder = self.by_epoch.entry(lease.epoch()).or_insert(node);
        assert_eq!(
            *holder,
            node,
            "two leaseholders in epoch {}: {} and {}",
            lease.epoch(),
            holder,
            node
        );
    }
}

fn run_interleaving(n: usize, logs: &[(u64, u64)], steps: &[Step], config: LeaseConfig) {
    let replicas: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut clocks = vec![0u64; n];
    let mut leases: Vec<Lease> = replicas
        .iter()
        .map(|&me| Lease::new(me, replicas.clone(), config, 0))
        .collect();
    let mut bag = Bag {
        pending: Vec::new(),
    };
    let mut claims = Claims {
        by_epoch: BTreeMap::new(),
    };

    for &(kind, selector, amount) in steps {
        match kind {
            0 => {
                let i = selector % n;
                // Clock skew: this node's clock advances while the
                // others stand still.
                clocks[i] += amount;
                let out = leases[i].tick(clocks[i], logs[i], 0);
                for (to, msg) in out {
                    bag.pending.push((replicas[i], to, msg));
                }
                claims.record(replicas[i], &leases[i]);
            }
            1 if !bag.pending.is_empty() => {
                let (from, to, msg) = bag.pending.remove(selector % bag.pending.len());
                let i = to.0 as usize;
                let out = leases[i].on_msg(clocks[i], from, &msg, logs[i]);
                for (peer, reply) in out {
                    bag.pending.push((to, peer, reply));
                }
                claims.record(to, &leases[i]);
            }
            2 if !bag.pending.is_empty() => {
                // Heartbeat / vote / ack loss.
                bag.pending.remove(selector % bag.pending.len());
            }
            3 if !bag.pending.is_empty() => {
                // Network duplication.
                let dup = bag.pending[selector % bag.pending.len()].clone();
                bag.pending.push(dup);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Three replicas, arbitrary interleavings: one leaseholder per
    /// epoch, always.
    #[test]
    fn at_most_one_leaseholder_per_epoch_3(
        steps in prop::collection::vec((0usize..4, 0usize..64, 0u64..150), 0..400),
        l0 in (0u64..3, 0u64..20), l1 in (0u64..3, 0u64..20), l2 in (0u64..3, 0u64..20),
    ) {
        run_interleaving(3, &[l0, l1, l2], &steps, LeaseConfig::default());
    }

    /// Five replicas (two simultaneous failures tolerated), same law.
    #[test]
    fn at_most_one_leaseholder_per_epoch_5(
        steps in prop::collection::vec((0usize..4, 0usize..64, 0u64..150), 0..400),
        l0 in (0u64..3, 0u64..20), l1 in (0u64..3, 0u64..20), l2 in (0u64..3, 0u64..20),
        l3 in (0u64..3, 0u64..20), l4 in (0u64..3, 0u64..20),
    ) {
        run_interleaving(5, &[l0, l1, l2, l3, l4], &steps, LeaseConfig::default());
    }

    /// The safety law must hold for any timing configuration, not just
    /// the default: squeeze the timeouts until elections thrash.
    #[test]
    fn safety_survives_aggressive_timeouts(
        steps in prop::collection::vec((0usize..4, 0usize..64, 0u64..80), 0..400),
        heartbeat in 5u64..40,
        timeout in 20u64..120,
        lease in 40u64..200,
    ) {
        let config = LeaseConfig {
            heartbeat_ms: heartbeat,
            election_timeout_ms: timeout,
            jitter_step_ms: 13,
            lease_ms: lease,
            buggy_promotion: false,
        };
        run_interleaving(3, &[(1, 4), (0, 9), (1, 2)], &steps, config);
    }
}
