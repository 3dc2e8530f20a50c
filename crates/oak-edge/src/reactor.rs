//! The event loop: edge-triggered readiness over every connection.
//!
//! One reactor thread owns the listener, every connection, the timer
//! wheel, and the poller. Workers (see [`crate::workers`]) run handlers
//! and report back through a completion list, so the whole server costs
//! a handful of threads however many connections are open.
//!
//! Each socket is registered once, for read and write, and never
//! re-registered: backpressure is not reading, and the reactor hears a
//! client's next request while a worker still holds the connection. A
//! request whose socket is known empty is lent to its worker, which
//! writes the reply itself; the reactor learns of it on the client's
//! next read edge or its own next turn, so a keep-alive request costs
//! the reactor one wake-up. The wake pipe is kept for replies the
//! reactor must act on at once.
//!
//! Edge-triggered discipline: every progress function drains its socket
//! to `WouldBlock`, and every state re-entry re-kicks progress by hand
//! (buffered pipelined bytes produce no new readiness edge).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oak_http::framing::{content_length_of, head_is_chunked};
use oak_http::{
    over_capacity_response, Handler, HttpError, HttpMetrics, Request, Response, ServerLimits,
    Stage, StatusCode, TransportEvent, TransportStats, PEER_ADDR_HEADER,
};

use crate::conn::{Conn, ParseStep, State, HANDLING, NO_DEADLINE, READ_SEEN};
use crate::stats::EdgeStats;
use crate::sys::{Event, Poller};
use crate::wheel::{TimerWheel, TICK_MS};
use crate::workers::{spawn_workers, Direct, Job, Pool, Reply, WorkerCtx};
use crate::EdgeConfig;

/// Poller token for the accept socket.
const LISTENER: u64 = u64::MAX;
/// Poller token for the wake pipe's read end.
const WAKEUP: u64 = u64::MAX - 1;

/// Connection tokens carry a generation so an event queued for a closed
/// slot can never touch its replacement: `(gen << 32) | slab_index`.
fn token_of(index: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | index as u64
}

fn index_of(token: u64) -> usize {
    (token & 0xffff_ffff) as usize
}

fn gen_of(token: u64) -> u32 {
    (token >> 32) as u32
}

/// Bytes one socket read asks for. A shorter read means the socket was
/// emptied ([`Conn::read_drained`]).
const READ_CHUNK: usize = 16 * 1024;

fn millis(d: Duration) -> u64 {
    (d.as_millis() as u64).max(1)
}

/// True if a raw head block carries `Connection: close` — the one
/// header a shed request's answer still honours without a full parse.
fn head_asks_close(head: &[u8]) -> bool {
    String::from_utf8_lossy(head).split("\r\n").any(|line| {
        line.split_once(':').is_some_and(|(name, value)| {
            name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
        })
    })
}

/// Delay before the accept path is retried after `accept()` failed with
/// something time alone fixes (EMFILE, ENFILE, ENOBUFS): 1 ms doubling
/// to 100 ms, back to 1 ms on the next successful accept.
#[derive(Debug)]
struct AcceptBackoff {
    next_ms: u64,
    /// A retry sits in the timer wheel; the listener is not polled
    /// until it fires.
    pending: bool,
}

impl AcceptBackoff {
    const FIRST_MS: u64 = 1;
    const MAX_MS: u64 = 100;

    /// The delay for this failure; the next one waits twice as long.
    fn next_delay_ms(&mut self) -> u64 {
        let delay = self.next_ms;
        self.next_ms = (delay * 2).min(AcceptBackoff::MAX_MS);
        delay
    }

    fn reset(&mut self) {
        self.next_ms = AcceptBackoff::FIRST_MS;
    }
}

impl Default for AcceptBackoff {
    fn default() -> AcceptBackoff {
        AcceptBackoff {
            next_ms: AcceptBackoff::FIRST_MS,
            pending: false,
        }
    }
}

/// Handle workers use to kick the reactor out of its wait.
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Best-effort single-byte write; a full pipe already guarantees a
    /// pending wakeup, so `WouldBlock` is success.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// A running reactor-backed HTTP server; dropped or
/// [`EdgeServer::shutdown`] stops it.
pub struct EdgeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    loop_thread: Option<JoinHandle<()>>,
    stats: Arc<TransportStats>,
    edge: Arc<EdgeStats>,
    pool: Arc<Pool>,
    workers: usize,
}

impl EdgeServer {
    /// Binds to `127.0.0.1:port` (port 0 picks a free port) and starts
    /// the reactor: explicit limits, a caller-owned stats block,
    /// per-stage latencies recorded into `obs` when given, and the
    /// worker count from `config`. [`EdgeServer::start`] and its
    /// siblings fill in defaults.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation errors.
    pub fn start_with_config(
        port: u16,
        handler: Arc<dyn Handler>,
        limits: ServerLimits,
        stats: Arc<TransportStats>,
        obs: Option<Arc<HttpMetrics>>,
        config: EdgeConfig,
    ) -> Result<EdgeServer, HttpError> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        EdgeServer::serve(listener, handler, limits, stats, obs, config)
    }

    /// Starts the reactor over an already-bound listener.
    pub(crate) fn serve(
        listener: TcpListener,
        handler: Arc<dyn Handler>,
        limits: ServerLimits,
        stats: Arc<TransportStats>,
        obs: Option<Arc<HttpMetrics>>,
        config: EdgeConfig,
    ) -> Result<EdgeServer, HttpError> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER)?;
        poller.register(wake_rx.as_raw_fd(), WAKEUP)?;

        let stop = Arc::new(AtomicBool::new(false));
        let edge = Arc::new(EdgeStats::default());
        let pool = Arc::new(Pool::default());
        let completions = Arc::new(Mutex::new(Vec::new()));
        let waker = Waker {
            tx: Arc::new(wake_tx),
        };
        let workers = config.resolved_workers();
        spawn_workers(
            workers,
            &WorkerCtx {
                pool: Arc::clone(&pool),
                handler: Arc::clone(&handler),
                stats: Arc::clone(&stats),
                edge: Arc::clone(&edge),
                obs: obs.clone(),
                completions: Arc::clone(&completions),
                wake: waker.clone(),
                queue_deadline: limits.queue_deadline,
            },
        );

        let reactor = Reactor {
            poller,
            listener: Some(listener),
            wake_rx,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open_total: 0,
            open_counted: 0,
            wheel: TimerWheel::new(TICK_MS, 256),
            accept_backoff: AcceptBackoff::default(),
            epoch: Instant::now(),
            drain_until: None,
            stop: Arc::clone(&stop),
            stats: Arc::clone(&stats),
            edge: Arc::clone(&edge),
            obs,
            limits,
            handler,
            pool: Arc::clone(&pool),
            completions,
            applying: Vec::new(),
        };
        let loop_thread = std::thread::Builder::new()
            .name("oak-edge-loop".to_string())
            .spawn(move || reactor.run())?;

        Ok(EdgeServer {
            addr,
            stop,
            waker,
            loop_thread: Some(loop_thread),
            stats,
            edge,
            pool,
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The transport counters (shared with the reactor and workers).
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    /// The reactor gauges.
    pub fn edge_stats(&self) -> Arc<EdgeStats> {
        Arc::clone(&self.edge)
    }

    /// Connections currently counted against the cap.
    pub fn active_connections(&self) -> usize {
        self.edge.snapshot().connections_open as usize
    }

    /// Worker threads serving handlers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Stops accepting, drains in-flight connections for up to
    /// [`ServerLimits::drain_timeout`], joins the reactor thread, and
    /// tells the workers to exit (without joining them: a handler stuck
    /// forever costs its thread, never the shutdown path).
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        for _ in 0..self.workers {
            self.pool.submit(Job::Stop);
        }
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Loop-thread state; everything here is single-threaded by design.
struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Live slab entries (counted + uncounted).
    open_total: usize,
    /// Connections holding a slot against `max_connections`.
    open_counted: usize,
    wheel: TimerWheel,
    accept_backoff: AcceptBackoff,
    epoch: Instant,
    /// Set when draining: absolute ms the drain gives up at.
    drain_until: Option<u64>,
    stop: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    edge: Arc<EdgeStats>,
    obs: Option<Arc<HttpMetrics>>,
    limits: ServerLimits,
    /// Consulted at head completion ([`Handler::admit`]) before body
    /// framing; workers hold their own clone for `handle`.
    handler: Arc<dyn Handler>,
    pool: Arc<Pool>,
    completions: Arc<Mutex<Vec<(u64, Reply)>>>,
    /// Swapped with `completions` each turn, so neither side's buffer
    /// is reallocated per reply.
    applying: Vec<(u64, Reply)>,
}

impl Reactor {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn obs_now(&self) -> u64 {
        self.obs.as_ref().map_or(0, |o| o.now())
    }

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.conns.get_mut(idx).and_then(Option::as_mut)
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<u64> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) && self.drain_until.is_none() {
                self.begin_drain();
            }
            if let Some(until) = self.drain_until {
                if self.open_total == 0 {
                    break;
                }
                if self.now_ms() >= until {
                    self.force_close_all();
                    break;
                }
            }
            let timeout_ms = self.wait_timeout_ms();
            if self.poller.wait(timeout_ms, &mut events).is_err() {
                // A broken poller cannot be waited on; back off so a
                // persistent failure does not hot-spin the thread.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let processing_started = Instant::now();
            self.edge.note_ready_batch(events.len() as u64);
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKEUP if ev.readable => self.drain_wakeups(),
                    WAKEUP => {}
                    token => self.conn_event(token, ev.readable, ev.writable),
                }
            }
            // Every turn: a reply its worker wrote is settled here, on
            // the turn the client's next read edge starts or within a
            // tick, which arms the connection's idle deadline.
            self.apply_completions();
            let now = self.now_ms();
            self.wheel.advance(now, &mut due);
            for &token in &due {
                self.timer_fired(token, now);
            }
            self.edge.set_timers_pending(self.wheel.pending() as u64);
            self.edge
                .note_loop_lag(processing_started.elapsed().as_micros() as u64);
        }
    }

    /// Short tick while anything is in flight (timers need the wheel
    /// advanced); long sleep when fully idle — the wake pipe interrupts
    /// either way.
    fn wait_timeout_ms(&self) -> i32 {
        if self.open_total > 0 || !self.wheel.is_empty() {
            TICK_MS as i32
        } else {
            250
        }
    }

    // ---- accept path ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            if self.drain_until.is_some() || self.accept_backoff.pending {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, addr)) => {
                    self.accept_backoff.reset();
                    self.admit(stream, addr);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.stats.record(TransportEvent::AcceptFailed);
                    self.accept_retry_later();
                    return;
                }
            }
        }
    }

    /// `accept()` failed: look again after the backoff delay. Whatever
    /// is already in the backlog raises no new edge, so without the
    /// timer it would sit there until the next SYN; edges that do come
    /// meanwhile find the retry pending and are ignored.
    fn accept_retry_later(&mut self) {
        let at = self.now_ms() + self.accept_backoff.next_delay_ms();
        self.accept_backoff.pending = true;
        self.wheel.schedule(LISTENER, at);
    }

    fn accept_retry_fired(&mut self) {
        self.accept_backoff.pending = false;
        self.accept_ready();
    }

    fn admit(&mut self, stream: TcpStream, addr: SocketAddr) {
        let _ = stream.set_nonblocking(true);
        // Request/response ping-pong over keep-alive is latency-bound;
        // Nagle would serialize small responses against delayed ACKs.
        let _ = stream.set_nodelay(true);
        let now = self.now_ms();
        if self.open_counted >= self.limits.max_connections.max(1) {
            // Over capacity: answer 503 without occupying a counted
            // slot, under a short deadline so a non-draining peer
            // cannot pin the uncounted connection either.
            self.stats.record(TransportEvent::ConnectionRejected);
            let mut conn = Conn::new(stream, None, false);
            conn.out = over_capacity_response().to_bytes();
            conn.state = State::Writing;
            conn.close_after_write = true;
            conn.drain_after_write = true;
            let idx = self.insert(conn);
            let cap = millis(self.limits.write_timeout).min(1000);
            self.arm(idx, now + cap);
            self.write_ready(idx);
            return;
        }
        self.stats.record(TransportEvent::ConnectionAccepted);
        let peer_ip = Some(addr.ip().to_string());
        let mut conn = Conn::new(stream, peer_ip, true);
        conn.read_start_ns = self.obs_now();
        let idx = self.insert(conn);
        self.arm(idx, now + millis(self.limits.read_timeout));
        // Data may already be buffered; ET reports readiness present at
        // registration, but pumping now saves the extra loop turn.
        self.read_ready(idx);
    }

    // ---- slab -----------------------------------------------------------

    fn insert(&mut self, conn: Conn) -> usize {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let token = token_of(idx, self.gens[idx]);
        let _ = self.poller.register(conn.stream.as_raw_fd(), token);
        if conn.counted {
            self.open_counted += 1;
            self.edge.set_connections_open(self.open_counted as u64);
        }
        self.open_total += 1;
        self.conns[idx] = Some(conn);
        idx
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if conn.counted {
                self.open_counted -= 1;
                self.edge.set_connections_open(self.open_counted as u64);
                self.stats.record(TransportEvent::ConnectionClosed);
            }
            self.open_total -= 1;
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
        }
    }

    /// Arms the authoritative deadline and drops a wheel hint for it.
    fn arm(&mut self, idx: usize, deadline_ms: u64) {
        let token = token_of(idx, self.gens[idx]);
        if let Some(conn) = self.conn_mut(idx) {
            conn.deadline_ms = deadline_ms;
            self.wheel.schedule(token, deadline_ms);
        }
    }

    // ---- event dispatch -------------------------------------------------

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let idx = index_of(token);
        if idx >= self.gens.len() || self.gens[idx] != gen_of(token) {
            return; // stale: the slot was closed (and maybe reused)
        }
        if readable {
            self.read_ready(idx);
        }
        // Every socket is registered for writability too: an edge
        // matters only to a response the reactor is writing.
        let flushing = matches!(self.conn_mut(idx), Some(c) if matches!(c.state, State::Writing));
        if writable && flushing {
            self.write_ready(idx);
        }
    }

    fn drain_wakeups(&mut self) {
        self.edge.inc_wakeups();
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: fully drained
            }
        }
    }

    // ---- read path ------------------------------------------------------

    fn read_ready(&mut self, idx: usize) {
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        match conn.state {
            State::DrainClose => self.drain_discard(idx),
            State::ReadingHead | State::ReadingBody(_) => self.pump_read(idx),
            // The edge is spent. A worker still at work learns of it and
            // wakes the reactor when done; one already DONE has queued
            // its completion, which this loop turn applies. Either way
            // the keep-alive re-kick then reads the bytes.
            State::Handling => {
                let _ = conn.handoff.compare_exchange(
                    HANDLING,
                    READ_SEEN,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            // Backpressure: the bytes stay unread until the response is
            // out; the re-kick on keep-alive re-entry picks them up. The
            // edge is spent, so the socket is no longer known empty.
            State::Writing => conn.read_drained = false,
        }
    }

    fn pump_read(&mut self, idx: usize) {
        enum ReadStep {
            Eof,
            Got,
            Blocked,
            Retry,
            Broken,
        }
        let mut buf = [0u8; READ_CHUNK];
        loop {
            // Pipelined bytes buffered earlier may already complete the
            // message without any new socket data. A shed answered
            // inline leaves the connection reading again: parse on here
            // rather than re-enter from the write path, so a run of
            // pipelined sheds iterates instead of growing the stack.
            while self.try_parse(idx) {
                if !self.is_reading(idx) {
                    return;
                }
            }
            let step = {
                let Some(conn) = self.conn_mut(idx) else {
                    return;
                };
                if !matches!(conn.state, State::ReadingHead | State::ReadingBody(_)) {
                    return;
                }
                match (&*conn.stream).read(&mut buf) {
                    Ok(0) => ReadStep::Eof,
                    Ok(n) => {
                        conn.in_buf.extend_from_slice(&buf[..n]);
                        conn.read_drained = n < READ_CHUNK;
                        ReadStep::Got
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => ReadStep::Blocked,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadStep::Retry,
                    Err(_) => ReadStep::Broken,
                }
            };
            match step {
                // EOF (or a broken socket). Before any request byte this
                // is a clean keep-alive close; mid-request the peer
                // vanished and there is nobody to answer. Silent close
                // either way.
                ReadStep::Eof | ReadStep::Broken => {
                    self.close(idx);
                    return;
                }
                ReadStep::Blocked => return,
                ReadStep::Got | ReadStep::Retry => {}
            }
        }
    }

    fn is_reading(&self, idx: usize) -> bool {
        self.conns
            .get(idx)
            .and_then(Option::as_ref)
            .is_some_and(|c| matches!(c.state, State::ReadingHead | State::ReadingBody(_)))
    }

    /// Advances framing; returns true when the connection left its
    /// reading state (request submitted, shed, rejected, or closed). A
    /// shed whose answer went out at once may leave it reading again.
    fn try_parse(&mut self, idx: usize) -> bool {
        let limits = self.limits;
        let Some(conn) = self.conn_mut(idx) else {
            return true;
        };
        if conn.in_buf.is_empty() {
            return false;
        }
        match conn.parse_step(&limits) {
            Ok(ParseStep::NeedMore) => false,
            Ok(ParseStep::HeadReady { head_len }) => {
                if let Some(mut response) = self.admit_head(idx, head_len) {
                    self.stats.record(TransportEvent::RequestShed);
                    let Some(conn) = self.conn_mut(idx) else {
                        return true;
                    };
                    // Framed by the same helpers as an admitted request:
                    // a head that declares no body is the whole request,
                    // so consume it and keep the connection — pipelined
                    // requests behind it still parse. A body (or framing
                    // those helpers refuse) would stay unread and makes
                    // keep-alive unframeable: answer and close.
                    let head = &conn.in_buf[..head_len];
                    let bodyless = matches!(head_is_chunked(head), Ok(false))
                        && matches!(content_length_of(head), Ok(0));
                    if bodyless {
                        conn.close_after_write = head_asks_close(head);
                        conn.in_buf.drain(..head_len);
                        conn.scan_from = 0;
                    } else {
                        response.headers.set("Connection", "close");
                        conn.close_after_write = true;
                        conn.drain_after_write = true;
                    }
                    // Written without re-kicking the read side: the
                    // caller's loop parses what is pipelined behind.
                    self.stage(idx, response.to_bytes(), 0, false);
                    self.flush(idx);
                    return true;
                }
                // Admitted: resume framing over the same buffered bytes.
                self.try_parse(idx)
            }
            Ok(ParseStep::Complete { msg_end }) => {
                self.finish_request(idx, msg_end);
                true
            }
            Err(e) => {
                self.reject(idx, &e);
                true
            }
        }
    }

    /// Runs the pre-queue admission gate over a just-completed head.
    /// `Some(response)` sheds the request. A head whose request line
    /// resists the minimal peek is admitted here — the full parser will
    /// deliver its 400 with the body accounted for.
    fn admit_head(&mut self, idx: usize, head_len: usize) -> Option<Response> {
        let (method, target) = {
            let conn = self.conn_mut(idx)?;
            let (token, target) = oak_http::framing::request_line_of(&conn.in_buf[..head_len])?;
            (oak_http::Method::parse(token)?, target.to_string())
        };
        self.handler.admit(method, &target)
    }

    /// A complete message is framed at `in_buf[..msg_end]`: parse it,
    /// stamp the peer header, and hand it to the workers — with the
    /// socket, when no later byte can arrive without a fresh edge and
    /// the connection stays open after the reply.
    fn finish_request(&mut self, idx: usize, msg_end: usize) {
        let token = token_of(idx, self.gens[idx]);
        let parse_start = self.obs_now();
        let draining = self.drain_until.is_some();
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        match Request::parse(&conn.in_buf[..msg_end]) {
            Ok(mut request) => {
                // Observed peer address wins over anything the client
                // claimed (Oak's subnet-scoped policies key on it).
                if let Some(ip) = &conn.peer_ip {
                    request.headers.set(PEER_ADDR_HEADER, ip.clone());
                }
                conn.close_after_write = request
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                conn.in_buf.drain(..msg_end);
                conn.scan_from = 0;
                conn.state = State::Handling;
                conn.deadline_ms = NO_DEADLINE;
                // Pipelined bytes, a full last read or a close to come
                // all need the reactor straight after the reply.
                let lend = std::mem::take(&mut conn.read_drained)
                    && conn.in_buf.is_empty()
                    && !conn.close_after_write
                    && !draining;
                // The queue's lock orders this before the worker's swap.
                conn.handoff.store(HANDLING, Ordering::Relaxed);
                let direct = lend.then(|| Direct {
                    stream: Arc::clone(&conn.stream),
                    handoff: Arc::clone(&conn.handoff),
                });
                let read_start = conn.read_start_ns;
                if let Some(obs) = &self.obs {
                    // Read covers socket entry → complete buffer
                    // (keep-alive idle wait included); parse covers
                    // bytes → Request. Successful requests only:
                    // rejects have no stage to attribute.
                    obs.record(Stage::Read, read_start, parse_start);
                    obs.record(Stage::Parse, parse_start, obs.now());
                }
                self.edge.inc_worker_queue();
                self.pool.submit(Job::Run {
                    token,
                    request: Box::new(request),
                    enqueued: Instant::now(),
                    direct,
                });
            }
            Err(HttpError::Truncated | HttpError::Io(_)) => self.close(idx),
            Err(e) => self.reject(idx, &e),
        }
    }

    /// Maps a framing/parse error to its status + counter and queues the
    /// error response.
    fn reject(&mut self, idx: usize, err: &HttpError) {
        let (status, event) = match err {
            HttpError::TimedOut => (StatusCode::REQUEST_TIMEOUT, TransportEvent::Timeout),
            HttpError::HeadTooLarge { .. } => {
                (StatusCode::HEADERS_TOO_LARGE, TransportEvent::HeadTooLarge)
            }
            HttpError::BodyTooLarge { .. } => {
                (StatusCode::PAYLOAD_TOO_LARGE, TransportEvent::BodyTooLarge)
            }
            HttpError::Malformed(_) | HttpError::BadUrl(_) => {
                (StatusCode::BAD_REQUEST, TransportEvent::BadRequest)
            }
            HttpError::Truncated | HttpError::Io(_) => {
                self.close(idx);
                return;
            }
        };
        self.stats.record(event);
        let response = Response::new(status)
            .with_body(status.reason().as_bytes().to_vec(), "text/plain")
            .with_header("Connection", "close");
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        conn.close_after_write = true;
        conn.drain_after_write = true;
        self.stage(idx, response.to_bytes(), 0, false);
        self.write_ready(idx);
    }

    // ---- write path -----------------------------------------------------

    /// Stages serialised response bytes, `out[..sent]` already on the
    /// wire, under the write deadline. The caller pushes what the socket
    /// takes right now (with ET there may never be a writable event for
    /// an always-writable socket, so the eager attempt is correctness,
    /// not an optimization).
    fn stage(&mut self, idx: usize, out: Vec<u8>, sent: usize, from_handler: bool) {
        let now = self.now_ms();
        let write_start = self.obs_now();
        let write_deadline = now + millis(self.limits.write_timeout);
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        conn.out = out;
        conn.out_pos = sent;
        conn.from_handler = from_handler;
        conn.write_start_ns = write_start;
        conn.state = State::Writing;
        self.arm(idx, write_deadline);
    }

    fn write_ready(&mut self, idx: usize) {
        // Pipelined bytes (or reads skipped during Handling) never
        // produce a fresh edge; re-kick by hand once keep-alive resumes.
        self.flush(idx);
        if self.is_reading(idx) {
            self.pump_read(idx);
        }
    }

    /// Writes what the socket takes; once the response is out,
    /// [`Reactor::finish_write`] settles the connection.
    fn flush(&mut self, idx: usize) {
        loop {
            let now = self.now_ms();
            let write_timeout = millis(self.limits.write_timeout);
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if !matches!(conn.state, State::Writing) {
                return;
            }
            if conn.out_pos >= conn.out.len() {
                break;
            }
            let chunk = &conn.out[conn.out_pos..];
            match (&*conn.stream).write(chunk) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    if conn.out_pos >= conn.out.len() {
                        break;
                    }
                    // Progress re-arms the write deadline: it bounds
                    // each write, not the whole response.
                    self.arm(idx, now + write_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        self.finish_write(idx);
    }

    fn finish_write(&mut self, idx: usize) {
        let now = self.now_ms();
        let obs_now = self.obs_now();
        let read_deadline = now + millis(self.limits.read_timeout);
        let draining = self.drain_until.is_some();
        let (from_handler, write_start, drain_after, close_after) = {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            (
                conn.from_handler,
                conn.write_start_ns,
                conn.drain_after_write,
                conn.close_after_write,
            )
        };
        if from_handler {
            if let Some(obs) = &self.obs {
                obs.record(Stage::Write, write_start, obs.now());
            }
        }
        if drain_after {
            // Error verdict out: half-close, then discard briefly so the
            // FIN lands clean instead of an RST nuking the response.
            if let Some(conn) = self.conn_mut(idx) {
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.state = State::DrainClose;
            }
            self.arm(idx, now + 500);
            self.drain_discard(idx);
        } else if close_after || draining {
            // Explicit `Connection: close`, or the server is draining
            // and keep-alive ends with the in-flight response delivered.
            self.close(idx);
        } else {
            if let Some(conn) = self.conn_mut(idx) {
                conn.reset_for_next_request();
                conn.read_start_ns = obs_now;
            }
            self.arm(idx, read_deadline);
        }
    }

    fn drain_discard(&mut self, idx: usize) {
        let mut sink = [0u8; 8 * 1024];
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if !matches!(conn.state, State::DrainClose) {
                return;
            }
            match (&*conn.stream).read(&mut sink) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    // ---- timers ---------------------------------------------------------

    fn timer_fired(&mut self, token: u64, now: u64) {
        if token == LISTENER {
            self.accept_retry_fired();
            return;
        }
        let idx = index_of(token);
        if idx >= self.gens.len() || self.gens[idx] != gen_of(token) {
            return; // the connection this hint was for is gone
        }
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        let deadline = conn.deadline_ms;
        if deadline == NO_DEADLINE {
            return; // lazily cancelled
        }
        if deadline > now {
            // The deadline moved (keep-alive re-arm); keep a hint alive.
            self.wheel.schedule(token, deadline);
            return;
        }
        let reading = matches!(conn.state, State::ReadingHead | State::ReadingBody(_));
        let flushing = matches!(conn.state, State::Writing | State::DrainClose);
        let started = conn.request_started();
        if reading {
            if started {
                // Slowloris: budget spent mid-request.
                self.reject(idx, &HttpError::TimedOut);
            } else {
                // Idle keep-alive connection: silent close.
                self.close(idx);
            }
        } else if flushing {
            // A peer that stops draining its receive window, or one
            // still dribbling into a drain-close: disconnect.
            self.close(idx);
        }
        // Handlers have no deadline: State::Handling deliberately
        // ignores a stale fire.
    }

    // ---- worker completions ---------------------------------------------

    /// Settles every queued worker reply: a written one as a finished
    /// write, unsent bytes by writing them. Either way the connection
    /// then re-kicks its read side.
    fn apply_completions(&mut self) {
        let mut done = std::mem::take(&mut self.applying);
        std::mem::swap(
            &mut *self.completions.lock().expect("completion lock"),
            &mut done,
        );
        for (token, reply) in done.drain(..) {
            let idx = index_of(token);
            if idx >= self.gens.len() || self.gens[idx] != gen_of(token) {
                continue; // connection force-closed while handling
            }
            if !self.conns.get(idx).is_some_and(Option::is_some) {
                continue;
            }
            match reply {
                Reply::Written => self.finish_write(idx),
                Reply::Unsent { bytes, sent } => self.stage(idx, bytes, sent, true),
            }
            self.write_ready(idx);
        }
        self.applying = done;
    }

    // ---- drain / shutdown -----------------------------------------------

    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.drain_until = Some(self.now_ms() + millis(self.limits.drain_timeout));
        // Idle keep-alive connections hold no in-flight work; close them
        // now so they cannot stretch the drain.
        for idx in 0..self.conns.len() {
            let idle = matches!(
                &self.conns[idx],
                Some(c) if matches!(c.state, State::ReadingHead) && c.in_buf.is_empty()
            );
            if idle {
                self.close(idx);
            }
        }
    }

    fn force_close_all(&mut self) {
        for idx in 0..self.conns.len() {
            self.close(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::AcceptBackoff;

    #[test]
    fn accept_backoff_doubles_to_the_ceiling_and_resets() {
        let mut backoff = AcceptBackoff::default();
        let delays: Vec<u64> = (0..10).map(|_| backoff.next_delay_ms()).collect();
        assert_eq!(delays, [1, 2, 4, 8, 16, 32, 64, 100, 100, 100]);
        backoff.reset();
        assert_eq!(backoff.next_delay_ms(), 1);
    }
}
