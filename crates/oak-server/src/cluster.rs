//! The live TCP cluster runtime behind `oak-serve --cluster`.
//!
//! Wires one [`oak_cluster::ClusterNode`] to real sockets and the real
//! filesystem: the same protocol the simulator proves lossless
//! (`oak-sim --cluster`), with `SimNet` swapped for TCP and `SimFs` for
//! [`oak_store::RealFs`]. Envelopes travel as the CRC frames of
//! [`oak_cluster::Envelope::encode`] — the exact frames the sim codec
//! round-trips — so a corrupt or truncated frame drops the connection
//! instead of being applied.
//!
//! The `--peers` list is the replication group, every peer a replica of
//! every user's state, which makes the daemon a primary/standby HA pair
//! (or triple). Elections under network partitions, crashes mid-write
//! and the loss oracles are exercised in `oak-sim`, which runs this same
//! [`ClusterNode`] state machine.
//!
//! Threads:
//! - a **ticker** advances the lease state machine every [`TICK_MS`] —
//!   elections, heartbeats, snapshot transfer and the shipping
//!   retransmit — and, with the node lock released, compacts a follower
//!   replica's journal ([`ClusterNode::compactions_due`]). It is *not*
//!   what ships a journaled report: the ingest
//!   handler does that itself in [`ClusterRuntime::wait_for_commit`],
//!   and a reader thread answers a follower's ack with its next batch,
//! - an **acceptor** takes peer connections on this node's `--peers`
//!   entry; each connection gets a reader thread that decodes frames
//!   and feeds [`ClusterNode::handle`],
//! - a **writer per peer** drains that peer's bounded outbound queue
//!   onto its TCP connection, reconnecting when it breaks.
//!
//! Loss is fine everywhere: an unreachable peer just drops envelopes,
//! exactly like a cut `SimNet` link, and the lease protocol rides it
//! out. Enqueueing to a full or dead peer queue drops the envelope, so
//! neither the ticker nor a reader thread ever blocks on a slow peer —
//! one hung connection (full send buffer, half-open socket) must not
//! stall heartbeats to the healthy ones.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use oak_cluster::{
    ClusterNode, DecodeStep, Envelope, NodeId, NodeOptions, PartitionStatus, Role, Topology,
    PARTITION,
};
use oak_core::engine::{Oak, OakConfig};
use oak_store::segment::{FRAME_OVERHEAD, MAX_FRAME};
use oak_store::{OakStore, RealFs, StoreOptions};

use crate::service::ClusterStatusSource;

/// Wall-clock cadence of the lease tick (and shipping retransmit),
/// matching the sim's cluster world.
const TICK_MS: u64 = 20;

/// How long an outbound reconnect may block its peer's writer thread.
/// Short on purpose: a dead peer should drop frames, not queue them.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(40);

/// Bound on one blocking send to a peer. A connection that cannot make
/// progress within this window is treated as broken (the frame is
/// dropped and the writer reconnects) rather than parked on forever.
const WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// Frames a peer's outbound queue holds before new ones are dropped.
/// Sized for several heartbeat intervals of lease + shipping traffic;
/// a peer too slow to drain this is indistinguishable from a cut link.
const OUTBOX_FRAMES: usize = 256;

/// How long the ingest path may wait for the replication watermark to
/// cover a report before giving up with 503 (the client retries).
/// Generous against the healthy case (one round trip to the nearest
/// follower, or a few [`TICK_MS`] when an `Append` is lost and the tick
/// retransmits) but far below a client timeout.
const COMMIT_WAIT_MS: u64 = 1_000;

/// One live cluster member: the replicated node, its peer addresses,
/// and the per-peer outbound queues.
pub struct ClusterRuntime {
    node: Mutex<ClusterNode>,
    /// Signaled (paired with `node`) whenever the ticker or a reader
    /// thread has run the state machine — the only places the commit
    /// watermark can advance — so [`ClusterRuntime::wait_for_commit`]
    /// parks instead of polling.
    commits: Condvar,
    peers: Vec<String>,
    me: NodeId,
    /// Outbound queue per peer index; `None` at our own slot. Each is
    /// drained by that peer's dedicated writer thread.
    links: Vec<Option<mpsc::SyncSender<Vec<u8>>>>,
    /// Rules file to seed through the WAL once this node first holds
    /// the lease (never written directly into a follower replica).
    seed_rules: Mutex<Option<std::path::PathBuf>>,
    started: std::time::Instant,
}

impl ClusterRuntime {
    /// Boots node `role` of the `peers` replication group rooted at
    /// `root` and starts the ticker and acceptor threads. Fails fast if
    /// this node's own peer entry cannot be bound or the store cannot
    /// recover.
    pub fn start(
        role: u32,
        peers: Vec<String>,
        root: &Path,
        oak: OakConfig,
        store: StoreOptions,
    ) -> std::io::Result<Arc<ClusterRuntime>> {
        let me = NodeId(role);
        let nodes: Vec<NodeId> = (0..peers.len() as u32).map(NodeId).collect();
        let topology = Topology::new(nodes, 1, peers.len());
        let options = NodeOptions {
            oak,
            store,
            ..NodeOptions::default()
        };
        let listener = TcpListener::bind(&peers[role as usize])?;
        let started = std::time::Instant::now();
        let node = ClusterNode::new(me, topology, Arc::new(RealFs), root, options, 0)?;
        let mut links: Vec<Option<mpsc::SyncSender<Vec<u8>>>> = Vec::with_capacity(peers.len());
        for (index, addr) in peers.iter().enumerate() {
            if index == role as usize {
                links.push(None);
                continue;
            }
            let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(OUTBOX_FRAMES);
            let addr = addr.clone();
            std::thread::Builder::new()
                .name(format!("oak-cluster-send-{index}"))
                .spawn(move || writer_loop(&addr, rx))?;
            links.push(Some(tx));
        }
        let runtime = Arc::new(ClusterRuntime {
            node: Mutex::new(node),
            commits: Condvar::new(),
            links,
            peers,
            me,
            seed_rules: Mutex::new(None),
            started,
        });

        let acceptor = Arc::clone(&runtime);
        std::thread::Builder::new()
            .name("oak-cluster-accept".into())
            .spawn(move || acceptor.accept_loop(listener))?;
        let ticker = Arc::clone(&runtime);
        std::thread::Builder::new()
            .name("oak-cluster-tick".into())
            .spawn(move || ticker.tick_loop())?;
        Ok(runtime)
    }

    /// Defers `--rules` until this node first holds the lease, so the
    /// seed rules enter through the primary engine and ship to
    /// followers over the WAL like any other mutation.
    pub fn seed_rules_when_primary(&self, path: std::path::PathBuf) {
        *self.seed_rules.lock().expect("seed rules lock") = Some(path);
    }

    /// The durable store behind the replication group, for the ingest
    /// path's snapshot compaction.
    pub fn store(&self) -> Option<Arc<OakStore>> {
        self.node
            .lock()
            .expect("cluster node lock")
            .partition_store(PARTITION)
    }

    /// The replica engine at boot (recovery report, rule counts).
    pub fn boot_engine(&self) -> Option<Arc<Oak>> {
        self.node
            .lock()
            .expect("cluster node lock")
            .replica_engine(PARTITION)
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn tick_loop(self: Arc<Self>) {
        loop {
            std::thread::sleep(Duration::from_millis(TICK_MS));
            let now = self.now_ms();
            let compaction = {
                let mut node = self.node.lock().expect("cluster node lock");
                let out = node.tick(now);
                self.maybe_seed_rules(&node);
                self.send_all(out);
                node.compactions_due()
            };
            // The tick may have advanced the commit watermark (acks
            // heard, leases moved); wake any ingest handler parked on it.
            self.commits.notify_all();
            // A follower's snapshot runs with the node lock released, so
            // its fsync stalls no ack, no ship and no commit — only the
            // next tick, by the few milliseconds it takes. Errors land in
            // the store's `write_errors`.
            if let Some((store, oak)) = compaction {
                let _ = store.maybe_snapshot(&oak);
            }
        }
    }

    /// Applies the deferred `--rules` file the first time this node is
    /// primary of a virgin group.
    fn maybe_seed_rules(&self, node: &ClusterNode) {
        let mut seed = self.seed_rules.lock().expect("seed rules lock");
        let Some(path) = seed.as_ref() else { return };
        let Ok(oak) = node.primary_engine(PARTITION) else {
            return;
        };
        if oak.rules().count() == 0 {
            match crate::load_rules_into(&oak, path) {
                Ok(count) => eprintln!(
                    "oak-cluster: seeded {count} rule(s) from {} as primary",
                    path.display()
                ),
                Err(e) => eprintln!(
                    "oak-cluster: failed to seed --rules {}: {e}",
                    path.display()
                ),
            }
        } else {
            eprintln!(
                "oak-cluster: --rules {} skipped: replicated group already holds rules",
                path.display()
            );
        }
        *seed = None;
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            let reader = Arc::clone(&self);
            let spawned = std::thread::Builder::new()
                .name("oak-cluster-read".into())
                .spawn(move || reader.read_loop(stream));
            if spawned.is_err() {
                // Thread exhaustion: drop the connection, the peer
                // reconnects.
                continue;
            }
        }
    }

    /// Decodes envelopes off one inbound peer connection until it
    /// closes or turns corrupt.
    fn read_loop(&self, mut stream: TcpStream) {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut offset = 0;
            loop {
                match Envelope::decode_step(&buf, offset) {
                    DecodeStep::Frame(envelope, next) => {
                        offset = next;
                        let now = self.now_ms();
                        {
                            let mut node = self.node.lock().expect("cluster node lock");
                            let replies = node.handle(now, &envelope);
                            self.send_all(replies);
                        }
                        // A follower ack just handled may have advanced
                        // the watermark; wake parked ingest handlers.
                        self.commits.notify_all();
                    }
                    // More bytes are coming: keep the partial frame.
                    DecodeStep::Incomplete => break,
                    // A frame that can never decode poisons the whole
                    // stream (framing is lost): drop the connection so
                    // the peer's writer reconnects cleanly, instead of
                    // waiting forever for bytes that cannot help.
                    DecodeStep::Corrupt => return,
                }
            }
            buf.drain(..offset);
            // Belt and braces: a partial frame can never legitimately
            // exceed the frame format's own bound.
            if buf.len() > MAX_FRAME as usize + FRAME_OVERHEAD {
                return;
            }
        }
    }

    /// Queues envelopes onto their recipients' outbound queues. A full
    /// or dead queue drops the envelope — the protocol treats loss like
    /// a cut link, and blocking here would let one slow peer stall the
    /// ticker or a reader thread. Every caller holds the node lock:
    /// `Append`s are cut by the ticker, by reader threads answering
    /// acks and by ingest handlers, and a follower drops one that
    /// overtakes its predecessor as a gap, to be repaired a tick later.
    fn send_all(&self, envelopes: Vec<Envelope>) {
        for envelope in envelopes {
            let to = envelope.to.0 as usize;
            let Some(Some(link)) = self.links.get(to) else {
                continue;
            };
            let _ = link.try_send(envelope.encode());
        }
    }
}

/// Drains one peer's outbound queue onto its TCP connection, connecting
/// lazily and reconnecting (once per frame) when a send fails. Runs on
/// that peer's dedicated writer thread, so a hung connection blocks
/// only traffic to that peer, and only up to [`WRITE_TIMEOUT`] per
/// frame.
fn writer_loop(addr: &str, rx: mpsc::Receiver<Vec<u8>>) {
    use std::io::Write;

    let mut conn: Option<TcpStream> = None;
    while let Ok(bytes) = rx.recv() {
        let mut delivered = false;
        if let Some(stream) = conn.as_mut() {
            delivered = stream.write_all(&bytes).is_ok();
        }
        if !delivered {
            conn = connect(addr);
            if let Some(stream) = conn.as_mut() {
                delivered = stream.write_all(&bytes).is_ok();
            }
            if !delivered {
                conn = None;
            }
        }
    }
}

fn connect(addr: &str) -> Option<TcpStream> {
    let resolved: Vec<SocketAddr> = addr.to_socket_addrs().ok()?.collect();
    for candidate in resolved {
        if let Ok(stream) = TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            return Some(stream);
        }
    }
    None
}

impl ClusterStatusSource for ClusterRuntime {
    fn partitions(&self) -> Vec<PartitionStatus> {
        vec![self.node.lock().expect("cluster node lock").status()]
    }

    /// The group holds every user, so `user` does not matter.
    fn is_primary_for(&self, _user: &str) -> bool {
        self.leads_maintenance()
    }

    fn live_engine(&self) -> Option<Arc<Oak>> {
        self.node
            .lock()
            .expect("cluster node lock")
            .replica_engine(PARTITION)
    }

    fn leads_maintenance(&self) -> bool {
        self.node.lock().expect("cluster node lock").role(PARTITION) == Some(Role::Primary)
    }

    /// Blocks the ingest handler until the replication watermark covers
    /// `seq`. An uncovered `seq` is shipped from here, before the first
    /// park, so the healthy-path wait is one round trip to the nearest
    /// follower rather than the rest of a [`TICK_MS`]. The wait parks on
    /// a condvar the ticker and reader threads signal after running the
    /// state machine — the check and the park are atomic under the node
    /// lock, so an advance can never slip between them. A majority-less
    /// primary times out after [`COMMIT_WAIT_MS`] and the 204 is
    /// withheld. The group holds every user, so `user` does not matter.
    fn wait_for_commit(&self, _user: &str, seq: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(COMMIT_WAIT_MS);
        let mut node = self.node.lock().expect("cluster node lock");
        if node.commit(PARTITION).unwrap_or(0) < seq {
            let out = node.ship();
            self.send_all(out);
        }
        loop {
            if node.commit(PARTITION).unwrap_or(0) >= seq {
                return true;
            }
            // Deposed mid-wait: this node can no longer advance the
            // watermark itself, and its unreplicated tail is about
            // to be discarded — fail fast so the client retries
            // against the new primary.
            if node.role(PARTITION) != Some(Role::Primary) {
                return false;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            node = self
                .commits
                .wait_timeout(node, deadline - now)
                .expect("cluster node lock")
                .0;
        }
    }
}

impl std::fmt::Debug for ClusterRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRuntime")
            .field("me", &self.me)
            .field("peers", &self.peers)
            .finish_non_exhaustive()
    }
}
