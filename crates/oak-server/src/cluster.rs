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
//! Threads (DESIGN.md §14):
//! - a **ticker** advances the lease state machine every [`TICK_MS`] —
//!   elections, heartbeats, snapshot transfer and the shipping
//!   retransmit — writes what a link's socket did not take at once,
//!   re-dials a broken link that has frames waiting, and, with the node
//!   lock released, compacts a follower replica's journal
//!   ([`ClusterNode::compactions_due`]). It is *not* what ships a
//!   journaled report: the ingest handler does that itself in
//!   [`ClusterRuntime::wait_for_commit`], and a reader thread answers a
//!   follower's ack with its next batch,
//! - an **acceptor** takes peer connections on this node's `--peers`
//!   entry; each connection gets a **reader** thread that decodes frames
//!   and feeds [`ClusterNode::handle`].
//!
//! There is no writer thread: whichever thread cuts an envelope writes
//! it. Under the node lock it queues the frame on the peer's [`Link`],
//! so per-peer order is the lock's order; right after releasing the lock
//! it writes the link's queue to the non-blocking socket, and whatever
//! does not fit waits for the next writer or the ticker. No thread ever
//! writes to or dials a socket while it holds the node lock.
//!
//! Loss is fine everywhere: an unreachable peer just drops envelopes,
//! exactly like a cut `SimNet` link, and the lease protocol rides it
//! out. A link whose peer stops reading is cut once [`OUTBOX_FRAMES`]
//! frames wait on it, so neither the ticker nor a reader thread ever
//! blocks on a slow peer — one hung connection (full send buffer,
//! half-open socket) must not stall heartbeats to the healthy ones.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use oak_cluster::{
    ClusterNode, DecodeStep, Envelope, NodeId, NodeOptions, PartitionStatus, Role, Topology,
    MESSAGE_KINDS, PARTITION,
};
use oak_core::engine::{Oak, OakConfig};
use oak_store::segment::{FRAME_OVERHEAD, MAX_FRAME};
use oak_store::{OakStore, RealFs, StoreOptions};

use crate::service::ClusterStatusSource;

/// Wall-clock cadence of the lease tick (and shipping retransmit),
/// matching the sim's cluster world.
const TICK_MS: u64 = 20;

/// How long the ticker may block re-dialling one broken link. Short on
/// purpose: a dead peer should drop frames, not delay heartbeats.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(40);

/// Frames a link holds unwritten before it is cut: the queue is dropped
/// with the connection, and the ticker re-dials once there is something
/// to send. Sized for several heartbeat intervals of lease + shipping
/// traffic; a peer too slow to drain this is indistinguishable from a
/// cut link.
const OUTBOX_FRAMES: usize = 256;

/// How long the ingest path may wait for the replication watermark to
/// cover a report before giving up with 503 (the client retries).
/// Generous against the healthy case (one round trip to the nearest
/// follower, or a few [`TICK_MS`] when an `Append` is lost and the tick
/// retransmits) but far below a client timeout.
const COMMIT_WAIT_MS: u64 = 1_000;

/// One live cluster member: the replicated node, its peer addresses,
/// and the per-peer outbound links.
pub struct ClusterRuntime {
    node: Mutex<ClusterNode>,
    /// Signaled (paired with `node`) whenever the ticker or a reader
    /// thread moved the commit watermark or the role — the only changes
    /// [`ClusterRuntime::wait_for_commit`] waits for — so it parks
    /// instead of polling.
    commits: Condvar,
    peers: Vec<String>,
    me: NodeId,
    /// Outbound link per peer index; `None` at our own slot.
    links: Vec<Option<Link>>,
    /// Envelopes queued on a link since boot, by kind byte
    /// ([`MESSAGE_KINDS`]).
    sent: [AtomicU64; MESSAGE_KINDS.len()],
    /// Rules file to seed through the WAL once this node first holds
    /// the lease (never written directly into a follower replica).
    seed_rules: Mutex<Option<std::path::PathBuf>>,
    started: std::time::Instant,
}

/// What running the state machine changed that a parked commit wait
/// cares about.
fn watch(node: &ClusterNode) -> (Option<u64>, Option<Role>) {
    (node.commit(PARTITION), node.role(PARTITION))
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
        let links = peers
            .iter()
            .enumerate()
            .map(|(index, addr)| (index != role as usize).then(|| Link::new(addr.clone())))
            .collect();
        let runtime = Arc::new(ClusterRuntime {
            node: Mutex::new(node),
            commits: Condvar::new(),
            links,
            sent: Default::default(),
            peers,
            me,
            seed_rules: Mutex::new(None),
            started,
        });

        let acceptor = Arc::clone(&runtime);
        std::thread::Builder::new()
            .name("oak-repl-accept".into())
            .spawn(move || acceptor.accept_loop(listener))?;
        let ticker = Arc::clone(&runtime);
        std::thread::Builder::new()
            .name("oak-repl-tick".into())
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
        self.lock().partition_store(PARTITION)
    }

    /// The replica engine at boot (recovery report, rule counts).
    pub fn boot_engine(&self) -> Option<Arc<Oak>> {
        self.lock().replica_engine(PARTITION)
    }

    fn lock(&self) -> MutexGuard<'_, ClusterNode> {
        self.node.lock().expect("cluster node lock")
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn tick_loop(self: Arc<Self>) {
        loop {
            std::thread::sleep(Duration::from_millis(TICK_MS));
            let now = self.now_ms();
            let (compaction, moved) = {
                let mut node = self.lock();
                let before = watch(&node);
                let out = node.tick(now);
                self.maybe_seed_rules(&node);
                self.send_all(out);
                (node.compactions_due(), watch(&node) != before)
            };
            // The tick may have advanced the commit watermark (acks
            // heard, leases moved); wake any ingest handler parked on it.
            if moved {
                self.commits.notify_all();
            }
            for link in self.links.iter().flatten() {
                link.redial();
            }
            self.flush();
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
                .name("oak-repl-read".into())
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
            let mut corrupt = false;
            loop {
                match Envelope::decode_step(&buf, offset) {
                    DecodeStep::Frame(envelope, next) => {
                        offset = next;
                        let now = self.now_ms();
                        let moved = {
                            let mut node = self.lock();
                            let before = watch(&node);
                            let replies = node.handle(now, &envelope);
                            self.send_all(replies);
                            watch(&node) != before
                        };
                        // A follower ack just handled advanced the
                        // watermark (or the lease moved): wake parked
                        // ingest handlers.
                        if moved {
                            self.commits.notify_all();
                        }
                    }
                    // More bytes are coming: keep the partial frame.
                    DecodeStep::Incomplete => break,
                    // A frame that can never decode poisons the whole
                    // stream (framing is lost): drop the connection so
                    // the peer re-dials cleanly, instead of waiting
                    // forever for bytes that cannot help.
                    DecodeStep::Corrupt => {
                        corrupt = true;
                        break;
                    }
                }
            }
            // The replies go out now, with the node lock released.
            self.flush();
            if corrupt {
                return;
            }
            buf.drain(..offset);
            // Belt and braces: a partial frame can never legitimately
            // exceed the frame format's own bound.
            if buf.len() > MAX_FRAME as usize + FRAME_OVERHEAD {
                return;
            }
        }
    }

    /// Queues envelopes on their recipients' links. Every caller holds
    /// the node lock — `Append`s are cut by the ticker, by reader
    /// threads answering acks and by ingest handlers — so a peer's
    /// frames queue in the order the lock cut them; the caller writes
    /// them with [`ClusterRuntime::flush`] once it has released the lock.
    fn send_all(&self, envelopes: Vec<Envelope>) {
        for envelope in envelopes {
            let to = envelope.to.0 as usize;
            let Some(Some(link)) = self.links.get(to) else {
                continue;
            };
            self.sent[usize::from(envelope.msg.kind())].fetch_add(1, Ordering::Relaxed);
            link.push(envelope.encode());
        }
    }

    /// Writes every link's queue to its socket, as far as the socket
    /// takes it. Never called with the node lock held.
    fn flush(&self) {
        for link in self.links.iter().flatten() {
            link.flush();
        }
    }
}

/// One peer's outbound link: the frames cut for it, in the order the
/// node lock cut them, and the non-blocking connection they are written
/// to. Pushing takes only the queue's mutex; writing takes the wire's,
/// so a thread holding the node lock never waits on a socket.
struct Link {
    addr: String,
    /// Frames no writer has taken yet.
    queue: Mutex<VecDeque<Vec<u8>>>,
    /// The connection and the frame it is part-way through. One writer
    /// at a time, so frames leave whole and in queue order.
    wire: Mutex<Wire>,
    /// Set when the queue overflowed: the next writer drops the
    /// connection (a stream part-way through a frame cannot skip it).
    cut: AtomicBool,
}

#[derive(Default)]
struct Wire {
    stream: Option<TcpStream>,
    /// The frame being written and how many of its bytes are out.
    frame: Vec<u8>,
    written: usize,
}

impl Wire {
    /// Writes the frame in progress, then each frame `next` hands out,
    /// until `next` runs dry or the socket is full. `false` when the
    /// connection broke.
    fn drain(&mut self, mut next: impl FnMut() -> Option<Vec<u8>>) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return true;
        };
        loop {
            if self.written == self.frame.len() {
                // A written frame is dropped here, so a link holds no
                // buffer — a snapshot's included — once it is idle.
                (self.frame, self.written) = (next().unwrap_or_default(), 0);
                if self.frame.is_empty() {
                    return true;
                }
            }
            match stream.write(&self.frame[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

impl Link {
    fn new(addr: String) -> Link {
        Link {
            addr,
            queue: Mutex::new(VecDeque::new()),
            wire: Mutex::new(Wire::default()),
            cut: AtomicBool::new(false),
        }
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Vec<u8>>> {
        self.queue.lock().expect("link queue lock")
    }

    fn wire(&self) -> MutexGuard<'_, Wire> {
        self.wire.lock().expect("link wire lock")
    }

    /// Queues one frame. Past [`OUTBOX_FRAMES`] waiting frames the peer
    /// is not reading: the link is cut and starts over with this frame.
    fn push(&self, frame: Vec<u8>) {
        let mut queue = self.queue();
        if queue.len() >= OUTBOX_FRAMES {
            queue.clear();
            self.cut.store(true, Ordering::Relaxed);
        }
        queue.push_back(frame);
    }

    /// Whether every queued frame is written.
    #[cfg(test)]
    fn is_drained(&self) -> bool {
        let wire = self.wire();
        wire.written == wire.frame.len() && self.queue().is_empty()
    }

    /// Writes queued frames until the queue is empty or the socket is
    /// full. A broken connection drops itself and what was queued; the
    /// ticker re-dials once something is queued again.
    fn flush(&self) {
        let mut wire = self.wire();
        if self.cut.swap(false, Ordering::Relaxed) {
            *wire = Wire::default();
        }
        if !wire.drain(|| self.queue().pop_front()) {
            *wire = Wire::default();
            self.queue().clear();
        }
    }

    /// Dials the peer if the link has no connection and frames wait for
    /// one; a peer that cannot be reached loses them. The ticker's job,
    /// with no lock held across the dial.
    fn redial(&self) {
        if self.wire().stream.is_some() || self.queue().is_empty() {
            return;
        }
        let dialled = connect(&self.addr);
        let mut wire = self.wire();
        match dialled {
            Some(stream) => {
                self.cut.store(false, Ordering::Relaxed);
                *wire = Wire {
                    stream: Some(stream),
                    ..Wire::default()
                };
            }
            None => self.queue().clear(),
        }
    }
}

fn connect(addr: &str) -> Option<TcpStream> {
    let resolved: Vec<SocketAddr> = addr.to_socket_addrs().ok()?.collect();
    for candidate in resolved {
        if let Ok(stream) = TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_ok() {
                return Some(stream);
            }
        }
    }
    None
}

impl ClusterStatusSource for ClusterRuntime {
    fn partitions(&self) -> Vec<PartitionStatus> {
        vec![self.lock().status()]
    }

    /// The group holds every user, so `user` does not matter.
    fn is_primary_for(&self, _user: &str) -> bool {
        self.leads_maintenance()
    }

    fn live_engine(&self) -> Option<Arc<Oak>> {
        self.lock().replica_engine(PARTITION)
    }

    fn leads_maintenance(&self) -> bool {
        self.lock().role(PARTITION) == Some(Role::Primary)
    }

    fn envelopes_sent(&self) -> Vec<(&'static str, u64)> {
        MESSAGE_KINDS
            .iter()
            .zip(&self.sent)
            .map(|(&kind, count)| (kind, count.load(Ordering::Relaxed)))
            .collect()
    }

    /// Blocks the ingest handler until the replication watermark covers
    /// `seq`. An uncovered `seq` is shipped from here, before the first
    /// park — queued under the node lock, written by this thread right
    /// after releasing it — so the healthy-path wait is one round trip
    /// to the quorum follower rather than the rest of a [`TICK_MS`]. The
    /// wait parks on a condvar the ticker and reader threads signal when
    /// the watermark or the role moved — the check and the park are
    /// atomic under the node lock, so an advance can never slip between
    /// them. A majority-less primary times out after [`COMMIT_WAIT_MS`]
    /// and the 204 is withheld. The group holds every user, so `user`
    /// does not matter.
    fn wait_for_commit(&self, _user: &str, seq: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(COMMIT_WAIT_MS);
        let mut node = self.lock();
        if node.commit(PARTITION).unwrap_or(0) < seq {
            let out = node.ship();
            self.send_all(out);
            drop(node);
            self.flush();
            node = self.lock();
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

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use oak_cluster::Message;
    use oak_core::rule::Rule;

    use super::*;

    /// A listener on a free loopback port and its address.
    fn listener() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    /// `count` frames of `size` bytes, each filled with its own index.
    fn frames(count: usize, size: usize) -> Vec<Vec<u8>> {
        (0..count).map(|i| vec![i as u8; size]).collect()
    }

    /// What the ticker does for a link, every `TICK_MS`.
    fn tick(link: &Link) {
        link.redial();
        link.flush();
    }

    /// Reads `stream` to its end on a thread of its own.
    fn read_to_end(mut stream: TcpStream) -> std::thread::JoinHandle<Vec<u8>> {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            let _ = stream.read_to_end(&mut bytes);
            bytes
        })
    }

    #[test]
    fn a_peer_that_stops_reading_gets_every_frame_in_order_once_it_reads() {
        let (peer, addr) = listener();
        let link = Link::new(addr);
        // Far more than the socket buffers hold, in fewer frames than the
        // link's bound.
        let sent = frames(OUTBOX_FRAMES / 2, 128 * 1024);
        for frame in &sent {
            link.push(frame.clone());
        }
        tick(&link);
        let (stream, _) = peer.accept().unwrap();
        // The peer does not read: the socket fills and the rest waits.
        for _ in 0..5 {
            tick(&link);
        }
        assert!(!link.queue().is_empty(), "the socket took everything");
        let reader = read_to_end(stream);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !link.is_drained() {
            assert!(Instant::now() < deadline, "the link never drained");
            tick(&link);
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(link);
        assert!(
            reader.join().unwrap() == sent.concat(),
            "frames lost or reordered"
        );
    }

    #[test]
    fn a_link_is_cut_past_its_bound_of_frames_whatever_their_size() {
        let (peer, addr) = listener();
        let link = Link::new(addr);
        link.push(vec![0xaa; 16]);
        tick(&link);
        let (first, _) = peer.accept().unwrap();
        // A stalled socket: one frame part-written, the queue growing by
        // frames of one byte until it holds the bound.
        link.push(vec![0xbb; 32 << 20]);
        link.flush();
        for i in 0..OUTBOX_FRAMES {
            link.push(vec![i as u8]);
            link.flush();
        }
        assert_eq!(link.queue().len(), OUTBOX_FRAMES);
        // One more is past the bound: the waiting frames go, and the
        // connection with its part-written frame.
        link.push(vec![0xcc; 8]);
        assert_eq!(*link.queue(), [vec![0xcc; 8]]);
        let reader = read_to_end(first);
        link.flush();
        let cut = reader.join().unwrap();
        assert_eq!(cut[..16], [0xaa; 16]);
        assert!(
            cut.len() < 16 + (32 << 20),
            "the part-written frame was finished"
        );
        // The ticker dials again for what is queued since.
        tick(&link);
        let (second, _) = peer.accept().unwrap();
        let reader = read_to_end(second);
        drop(link);
        assert_eq!(reader.join().unwrap(), vec![0xcc; 8]);
    }

    #[test]
    fn a_snapshot_larger_than_the_socket_buffers_installs_on_a_live_follower() {
        let root = std::env::temp_dir().join(format!("oak-link-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Node 0 is this test, playing the primary; node 1 is live.
        let (_primary, primary_addr) = listener();
        let follower_addr = listener().1;
        let follower = ClusterRuntime::start(
            1,
            vec![primary_addr, follower_addr.clone()],
            &root,
            OakConfig::default(),
            StoreOptions::default(),
        )
        .unwrap();
        let oak = Oak::new(OakConfig::default());
        let huge = format!(
            r#"<script src="http://cdn.example/{}.js">"#,
            "x".repeat(8 << 20)
        );
        oak.add_rule(Rule::remove(huge)).unwrap();
        let (watermark, image) = oak.state_image();
        let snapshot = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            msg: Message::Snapshot {
                partition: PARTITION,
                epoch: 1_000,
                watermark,
                state: image.into(),
            },
        };
        let link = Link::new(follower_addr);
        link.push(snapshot.encode());
        // The link writes at the ticker's cadence only: what the socket
        // does not take waits a tick.
        let start = Instant::now();
        let mut drained = None;
        while follower.live_engine().unwrap().rules().count() == 0 {
            let took = start.elapsed();
            assert!(took < Duration::from_secs(60), "no install");
            if drained.is_none() && link.is_drained() {
                drained = Some(took);
            }
            tick(&link);
            std::thread::sleep(Duration::from_millis(TICK_MS));
        }
        let installed = start.elapsed();
        let drained = drained.unwrap_or(installed);
        assert!(drained < Duration::from_secs(1), "written in {drained:?}");
        // Decoding and journaling an 8 MiB image unoptimised takes
        // seconds of its own; the transfer is what the bound is for.
        if !cfg!(debug_assertions) {
            assert!(
                installed < Duration::from_secs(1),
                "installed in {installed:?}"
            );
        }
        drop(follower);
        let _ = std::fs::remove_dir_all(&root);
    }
}
