//! The heartbeat/lease state machine: who is primary for a partition,
//! and when a follower may take over.
//!
//! One [`Lease`] instance lives on every replica of every partition. It
//! is a *pure* deterministic state machine — no clock, no sockets, no
//! randomness. Time arrives as a millisecond argument to [`Lease::tick`]
//! and [`Lease::on_msg`]; outgoing messages come back as an outbox the
//! caller delivers. That purity is what lets oak-sim replay arbitrary
//! heartbeat-loss/clock-skew interleavings and what the proptest suite
//! leans on.
//!
//! The protocol is a lease-flavored subset of Raft's leader election:
//!
//! - **Epochs.** Every primacy claim is scoped to an epoch. A node votes
//!   at most once per epoch ([`Lease::voted`] is persisted by the caller
//!   before any grant is sent), and winning needs a majority of the
//!   replica set — so two primaries can never share an epoch.
//! - **Election safety = durability.** A voter only grants to a
//!   candidate whose log is at least as up to date as the voter's own,
//!   where a log is the pair `(branch epoch, head)` — the epoch of its
//!   last event (or installed snapshot) and its head sequence number —
//!   compared lexicographically. Head numbers alone do not compare
//!   across branches: a deposed primary that kept journaling has the
//!   longest log and none of what the majority committed since. Any
//!   client-acked event was durable on a majority (that is what the
//!   replication watermark *means*), any election quorum intersects that
//!   majority, and the voter in the intersection refuses every
//!   candidate whose pair is below its own — so the winner provably
//!   holds every acked event. Skipping that check is exactly the
//!   `buggy_promotion` fault the sim harness injects to prove the
//!   no-acked-loss invariant has teeth.
//! - **Deterministic timeouts.** Election deadlines are jittered by the
//!   node id, never by a random source, so elections converge without
//!   ties and a seed replays bit-identically.
//! - **Leases.** A primary that cannot hear a majority within
//!   `lease_ms` steps down on its own: a partitioned-away primary stops
//!   claiming the partition (and its edge starts answering 503) instead
//!   of serving stale state forever. A healed stale primary steps down
//!   the moment it hears a higher epoch.

use std::collections::BTreeSet;

use crate::NodeId;

/// A replica's role in one partition's replication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Applying the primary's WAL stream; votes in elections.
    Follower,
    /// Ran an election timeout; soliciting votes for `epoch`.
    Candidate,
    /// Holds the lease for `epoch`: serves traffic, ships WAL.
    Primary,
}

impl Role {
    /// Stable lowercase name (health/stats surfaces).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Primary => "primary",
        }
    }
}

/// Timing (and fault-injection) knobs for the lease protocol.
#[derive(Debug, Clone, Copy)]
pub struct LeaseConfig {
    /// Primary heartbeat cadence.
    pub heartbeat_ms: u64,
    /// Base follower election timeout (jitter added per node).
    pub election_timeout_ms: u64,
    /// Per-node deterministic jitter step added to the timeout.
    pub jitter_step_ms: u64,
    /// A primary unable to reach a majority for this long steps down.
    pub lease_ms: u64,
    /// FAULT INJECTION: grant votes without the log comparison. This is
    /// the deliberately broken failover the sim self-check must catch —
    /// never enable it outside the harness.
    pub buggy_promotion: bool,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            heartbeat_ms: 50,
            election_timeout_ms: 200,
            // Must exceed the coarsest tick/delivery cadence a deployment
            // uses (oak-sim advances in up-to-50ms steps): two followers
            // whose deadlines land inside one step both turn candidate,
            // split the epoch's votes, and re-collide every retry.
            jitter_step_ms: 67,
            lease_ms: 400,
            buggy_promotion: false,
        }
    }
}

/// Lease-protocol messages between replicas of one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseMsg {
    /// Primary liveness + the current replication watermark (commit).
    Heartbeat { epoch: u64, commit: u64 },
    /// Follower's response: proof of contact plus its durable watermark.
    HeartbeatAck { epoch: u64, acked: u64 },
    /// Candidate solicits a vote for `epoch`; its log is `(branch_epoch,
    /// watermark)` — the epoch of its last event and its durable head.
    VoteRequest {
        epoch: u64,
        branch_epoch: u64,
        watermark: u64,
    },
    /// Voter granted `epoch` to the sender of the matching request.
    VoteRequestGranted { epoch: u64 },
}

/// The durable slice of lease state: epoch and the one-vote-per-epoch
/// record. The caller must persist this *before* delivering any message
/// the transition produced (a grant sent but not remembered is how two
/// primaries happen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Durable {
    /// Highest epoch this node has adopted.
    pub epoch: u64,
    /// The vote cast in `epoch`, if any.
    pub voted_for: Option<NodeId>,
}

/// The per-replica lease state machine. See the module docs.
#[derive(Debug)]
pub struct Lease {
    me: NodeId,
    /// Full replica set, `me` included.
    replicas: Vec<NodeId>,
    config: LeaseConfig,
    role: Role,
    epoch: u64,
    /// `(epoch, candidate)` of the vote cast in the current epoch.
    voted: Option<(u64, NodeId)>,
    /// Votes received while a candidate (self included).
    votes: BTreeSet<NodeId>,
    /// Follower/candidate: election deadline. Primary: next heartbeat.
    deadline_ms: u64,
    /// Primary: step down if no majority contact by this time.
    lease_until_ms: u64,
    /// Distinct peers heard from in the current lease window.
    contacts: BTreeSet<NodeId>,
    /// Last commit heard from a live primary (follower view).
    commit_hint: u64,
}

impl Lease {
    /// A fresh follower for one partition's replica set.
    pub fn new(me: NodeId, replicas: Vec<NodeId>, config: LeaseConfig, now_ms: u64) -> Lease {
        let mut lease = Lease {
            me,
            replicas,
            config,
            role: Role::Follower,
            epoch: 0,
            voted: None,
            votes: BTreeSet::new(),
            deadline_ms: 0,
            lease_until_ms: 0,
            contacts: BTreeSet::new(),
            commit_hint: 0,
        };
        lease.reset_election_deadline(now_ms);
        lease
    }

    /// Restores the durable slice after a restart. Everything else
    /// (role, votes-received, deadlines) is safely volatile.
    pub fn restore(&mut self, durable: Durable, now_ms: u64) {
        self.epoch = durable.epoch;
        self.voted = durable.voted_for.map(|node| (durable.epoch, node));
        self.reset_election_deadline(now_ms);
    }

    /// The durable slice to persist whenever it changes.
    pub fn durable(&self) -> Durable {
        Durable {
            epoch: self.epoch,
            voted_for: match self.voted {
                Some((epoch, node)) if epoch == self.epoch => Some(node),
                _ => None,
            },
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this node currently holds the partition lease.
    pub fn is_primary(&self) -> bool {
        self.role == Role::Primary
    }

    /// Last commit watermark heard from a primary (follower view).
    pub fn commit_hint(&self) -> u64 {
        self.commit_hint
    }

    fn majority(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.iter().copied().filter(move |&n| n != self.me)
    }

    fn reset_election_deadline(&mut self, now_ms: u64) {
        self.deadline_ms = now_ms
            + self.config.election_timeout_ms
            + u64::from(self.me.0) * self.config.jitter_step_ms;
    }

    /// Adopts a higher epoch seen on the wire: step down, clear votes.
    ///
    /// Deliberately does NOT touch the election deadline: whether the
    /// sender deserves to postpone our own candidacy depends on *why*
    /// the epoch moved. A refused `VoteRequest` from a stale candidate
    /// must not reset our clock, or a node whose WAL is behind ours —
    /// and which therefore can never win — would livelock the
    /// partition by electioneering on a shorter jitter forever while
    /// every electable node keeps deferring to its epoch bumps.
    fn adopt(&mut self, epoch: u64) {
        debug_assert!(epoch > self.epoch);
        self.epoch = epoch;
        self.role = Role::Follower;
        self.votes.clear();
    }

    /// Records proof of contact from a peer while primary; refreshes the
    /// lease once a majority (self included) has been heard this window.
    /// Also the seam the node layer uses to count `AppendAck`s as lease
    /// contact — any authenticated traffic from a follower proves reach.
    pub fn note_contact(&mut self, now_ms: u64, from: NodeId) {
        if self.role != Role::Primary {
            return;
        }
        self.contacts.insert(from);
        if self.contacts.len() + 1 >= self.majority() {
            self.lease_until_ms = now_ms + self.config.lease_ms;
            self.contacts.clear();
        }
    }

    /// Non-lease primary traffic (WAL `Append` / `Snapshot`) carries the
    /// primary's epoch; the node layer funnels it here so a stream of
    /// appends keeps a follower from electioneering even if a heartbeat
    /// is lost, and so a stale receiver adopts a newer epoch no matter
    /// which message type delivered the news first.
    pub fn observe_primary(&mut self, now_ms: u64, epoch: u64) {
        if epoch > self.epoch {
            self.adopt(epoch);
            self.reset_election_deadline(now_ms);
        }
        if epoch == self.epoch && self.role != Role::Primary {
            self.role = Role::Follower;
            self.reset_election_deadline(now_ms);
        }
    }

    /// Advances time: primaries heartbeat (and step down on an expired
    /// lease), followers/candidates start elections past their deadline.
    /// `my_log` is this node's `(branch epoch, durable applied head)`;
    /// `commit` is the replication watermark to advertise (primaries
    /// only).
    pub fn tick(
        &mut self,
        now_ms: u64,
        my_log: (u64, u64),
        commit: u64,
    ) -> Vec<(NodeId, LeaseMsg)> {
        let mut out = Vec::new();
        match self.role {
            Role::Primary => {
                if self.replicas.len() > 1 && now_ms >= self.lease_until_ms {
                    // Lost the majority for a full lease window: stop
                    // claiming the partition. Keep the epoch — a later
                    // election will move past it.
                    self.role = Role::Follower;
                    self.reset_election_deadline(now_ms);
                    return out;
                }
                if now_ms >= self.deadline_ms {
                    self.deadline_ms = now_ms + self.config.heartbeat_ms;
                    for peer in self.peers().collect::<Vec<_>>() {
                        out.push((
                            peer,
                            LeaseMsg::Heartbeat {
                                epoch: self.epoch,
                                commit,
                            },
                        ));
                    }
                }
            }
            Role::Follower | Role::Candidate => {
                if now_ms >= self.deadline_ms {
                    // Election: next epoch, vote for self, solicit.
                    self.epoch += 1;
                    self.voted = Some((self.epoch, self.me));
                    self.votes = BTreeSet::from([self.me]);
                    self.role = Role::Candidate;
                    self.reset_election_deadline(now_ms);
                    if self.votes.len() >= self.majority() {
                        self.win(now_ms);
                    } else {
                        for peer in self.peers().collect::<Vec<_>>() {
                            out.push((
                                peer,
                                LeaseMsg::VoteRequest {
                                    epoch: self.epoch,
                                    branch_epoch: my_log.0,
                                    watermark: my_log.1,
                                },
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    fn win(&mut self, now_ms: u64) {
        self.role = Role::Primary;
        self.lease_until_ms = now_ms + self.config.lease_ms;
        self.contacts.clear();
        // Heartbeat immediately: the faster followers hear the new
        // epoch, the shorter the 503 window.
        self.deadline_ms = now_ms;
    }

    /// Handles one lease message. `my_log` is this node's `(branch epoch,
    /// durable applied head)` — the vote-grant comparison point.
    pub fn on_msg(
        &mut self,
        now_ms: u64,
        from: NodeId,
        msg: &LeaseMsg,
        my_log: (u64, u64),
    ) -> Vec<(NodeId, LeaseMsg)> {
        let mut out = Vec::new();
        match *msg {
            LeaseMsg::Heartbeat { epoch, commit } => {
                if epoch < self.epoch {
                    // A stale primary is still heartbeating (healed
                    // partition): answer with our epoch so it steps
                    // down on receipt.
                    out.push((
                        from,
                        LeaseMsg::HeartbeatAck {
                            epoch: self.epoch,
                            acked: my_log.1,
                        },
                    ));
                    return out;
                }
                if epoch > self.epoch {
                    self.adopt(epoch);
                }
                if self.role != Role::Primary {
                    self.role = Role::Follower;
                    self.commit_hint = self.commit_hint.max(commit);
                    self.reset_election_deadline(now_ms);
                    out.push((
                        from,
                        LeaseMsg::HeartbeatAck {
                            epoch,
                            acked: my_log.1,
                        },
                    ));
                }
                // A same-epoch heartbeat while *we* are primary is a
                // protocol violation (two winners in one epoch); we do
                // not self-heal it — the sim invariant must catch it.
            }
            LeaseMsg::HeartbeatAck { epoch, acked: _ } => {
                if epoch > self.epoch {
                    // Someone is ahead of us: our claim (if any) is
                    // stale. Step down and wait a full timeout before
                    // running — the real primary's heartbeat should
                    // reach us first.
                    self.adopt(epoch);
                    self.reset_election_deadline(now_ms);
                } else if epoch == self.epoch {
                    self.note_contact(now_ms, from);
                }
            }
            LeaseMsg::VoteRequest {
                epoch,
                branch_epoch,
                watermark,
            } => {
                if epoch > self.epoch {
                    // Adopt the epoch but keep our own election clock:
                    // if we refuse the vote below (the candidate's WAL
                    // is behind ours), our deadline must stay live so
                    // candidacy rotates to a node that can actually
                    // win. Granting resets it explicitly.
                    self.adopt(epoch);
                }
                let not_yet_voted = match self.voted {
                    Some((e, granted_to)) if e == self.epoch => granted_to == from,
                    _ => true,
                };
                // Election safety: the candidate's log must be at least
                // as up to date as this voter's, or acked events could
                // be elected away. `buggy_promotion` skips exactly this
                // — the fault the sim self-check proves it can catch.
                let durable_enough =
                    self.config.buggy_promotion || (branch_epoch, watermark) >= my_log;
                if epoch == self.epoch
                    && self.role != Role::Primary
                    && not_yet_voted
                    && durable_enough
                {
                    self.voted = Some((epoch, from));
                    self.role = Role::Follower;
                    // Granting refreshes the deadline so the grantee
                    // gets a full timeout to win before we run against
                    // it.
                    self.reset_election_deadline(now_ms);
                    out.push((from, LeaseMsg::VoteRequestGranted { epoch }));
                }
            }
            LeaseMsg::VoteRequestGranted { epoch } => {
                if epoch == self.epoch && self.role == Role::Candidate {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.win(now_ms);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn pump(
        leases: &mut [Lease],
        now: u64,
        logs: &[(u64, u64)],
        mut inbox: Vec<(NodeId, NodeId, LeaseMsg)>,
    ) {
        // Deliver until quiescent (no partitions in these unit tests).
        while let Some((from, to, msg)) = inbox.pop() {
            let i = to.0 as usize;
            for (peer, reply) in leases[i].on_msg(now, from, &msg, logs[i]) {
                inbox.push((to, peer, reply));
            }
        }
    }

    #[test]
    fn single_replica_elects_itself() {
        let mut lease = Lease::new(NodeId(0), ids(1), LeaseConfig::default(), 0);
        assert_eq!(lease.role(), Role::Follower);
        let out = lease.tick(1_000, (0, 0), 0);
        assert!(out.is_empty());
        assert!(lease.is_primary());
        assert_eq!(lease.epoch(), 1);
    }

    #[test]
    fn three_replicas_elect_exactly_one_primary() {
        let config = LeaseConfig::default();
        let mut leases: Vec<Lease> = (0..3)
            .map(|i| Lease::new(NodeId(i), ids(3), config, 0))
            .collect();
        let logs = [(0, 0); 3];
        for step in 1..=50 {
            let now = step * 20;
            let mut inbox = Vec::new();
            for (i, lease) in leases.iter_mut().enumerate() {
                for (to, msg) in lease.tick(now, logs[i], 0) {
                    inbox.push((NodeId(i as u32), to, msg));
                }
            }
            pump(&mut leases, now, &logs, inbox);
        }
        let primaries: Vec<u64> = leases
            .iter()
            .filter(|l| l.is_primary())
            .map(|l| l.epoch())
            .collect();
        assert_eq!(primaries.len(), 1, "exactly one primary must emerge");
    }

    #[test]
    fn vote_refused_to_less_durable_candidate() {
        let config = LeaseConfig::default();
        let mut voter = Lease::new(NodeId(1), ids(3), config, 0);
        // Candidate at watermark 3; voter has durable head 10.
        let out = voter.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 1,
                branch_epoch: 0,
                watermark: 3,
            },
            (0, 10),
        );
        assert!(out.is_empty(), "must not grant to a less-durable candidate");
        // A longer log on an older branch is no better: the voter's
        // epoch-2 events are not in it, however far its head runs.
        let out = voter.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 3,
                branch_epoch: 1,
                watermark: 15,
            },
            (2, 10),
        );
        assert!(out.is_empty(), "must not grant to a dead branch");
        // ...while a shorter log on a newer branch holds everything the
        // voter's branch committed before it.
        let out = voter.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 3,
                branch_epoch: 2,
                watermark: 8,
            },
            (1, 10),
        );
        assert_eq!(out.len(), 1);
        // Same request with the buggy flag: the broken failover grants.
        let mut buggy = Lease::new(
            NodeId(1),
            ids(3),
            LeaseConfig {
                buggy_promotion: true,
                ..config
            },
            0,
        );
        let out = buggy.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 1,
                branch_epoch: 0,
                watermark: 3,
            },
            (0, 10),
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn one_vote_per_epoch() {
        let mut voter = Lease::new(NodeId(2), ids(3), LeaseConfig::default(), 0);
        let grant = voter.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 1,
                branch_epoch: 0,
                watermark: 0,
            },
            (0, 0),
        );
        assert_eq!(grant.len(), 1);
        assert_eq!(voter.durable().voted_for, Some(NodeId(0)));
        // A second candidate in the same epoch gets nothing.
        let refuse = voter.on_msg(
            0,
            NodeId(1),
            &LeaseMsg::VoteRequest {
                epoch: 1,
                branch_epoch: 0,
                watermark: 99,
            },
            (0, 0),
        );
        assert!(refuse.is_empty());
        // But re-requests from the *same* candidate are re-granted
        // (grant messages can be lost).
        let regrant = voter.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 1,
                branch_epoch: 0,
                watermark: 0,
            },
            (0, 0),
        );
        assert_eq!(regrant.len(), 1);
    }

    #[test]
    fn stale_primary_steps_down_on_higher_epoch() {
        let mut stale = Lease::new(NodeId(0), ids(1), LeaseConfig::default(), 0);
        stale.tick(1_000, (0, 0), 0);
        assert!(stale.is_primary());
        // Heal: a higher-epoch ack arrives from the other side.
        stale.on_msg(
            2_000,
            NodeId(1),
            &LeaseMsg::HeartbeatAck { epoch: 9, acked: 0 },
            (0, 0),
        );
        assert!(!stale.is_primary());
        assert_eq!(stale.epoch(), 9);
    }

    #[test]
    fn primary_steps_down_without_majority_contact() {
        let config = LeaseConfig::default();
        let mut leases: Vec<Lease> = (0..3)
            .map(|i| Lease::new(NodeId(i), ids(3), config, 0))
            .collect();
        let logs = [(0, 0); 3];
        for step in 1..=50 {
            let now = step * 20;
            let mut inbox = Vec::new();
            for (i, lease) in leases.iter_mut().enumerate() {
                for (to, msg) in lease.tick(now, logs[i], 0) {
                    inbox.push((NodeId(i as u32), to, msg));
                }
            }
            pump(&mut leases, now, &logs, inbox);
        }
        let primary = leases.iter().position(|l| l.is_primary()).unwrap();
        // Total silence: every message dropped from now on. The primary
        // must relinquish within a lease window.
        let mut now = 2_000;
        for _ in 0..100 {
            now += 20;
            let _ = leases[primary].tick(now, (0, 0), 0);
        }
        assert!(
            !leases[primary].is_primary(),
            "partitioned primary must step down after its lease expires"
        );
    }

    #[test]
    fn restore_preserves_vote_across_restart() {
        let config = LeaseConfig::default();
        let mut voter = Lease::new(NodeId(1), ids(3), config, 0);
        voter.on_msg(
            0,
            NodeId(0),
            &LeaseMsg::VoteRequest {
                epoch: 4,
                branch_epoch: 0,
                watermark: 0,
            },
            (0, 0),
        );
        let durable = voter.durable();
        assert_eq!(durable.epoch, 4);
        assert_eq!(durable.voted_for, Some(NodeId(0)));
        // "Crash", restore, and verify a rival can't double-collect.
        let mut restarted = Lease::new(NodeId(1), ids(3), config, 0);
        restarted.restore(durable, 0);
        let refuse = restarted.on_msg(
            0,
            NodeId(2),
            &LeaseMsg::VoteRequest {
                epoch: 4,
                branch_epoch: 0,
                watermark: 99,
            },
            (0, 0),
        );
        assert!(refuse.is_empty(), "restored vote record must hold");
    }
}
