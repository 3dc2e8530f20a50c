//! Fixed worker pool running engine handlers off the reactor thread.
//!
//! The reactor never calls a [`oak_http::Handler`] itself: a slow or
//! panicking handler on the event loop would stall every connection.
//! Instead, complete requests are queued here; a worker runs the handler
//! under `catch_unwind` (panic → 500) and serialises the response.
//!
//! A request handed over with its socket ([`Direct`]) is answered by the
//! worker itself with non-blocking writes. When the whole response goes
//! out it queues a [`Reply::Written`] completion and wakes the reactor
//! only if a read edge went by meanwhile (the hand-off word, DESIGN.md
//! §13); the reactor otherwise settles the connection on its next turn.
//! Any other reply — no socket lent, a partial write, `WouldBlock` or
//! an error — goes back as [`Reply::Unsent`] bytes with a wake, and the
//! reactor finishes it under the write deadline. A worker never blocks
//! on a socket.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use oak_http::{
    queue_shed_response, Handler, HttpMetrics, Request, Response, Stage, StatusCode,
    TransportEvent, TransportStats,
};

use crate::conn::{DONE, READ_SEEN};
use crate::reactor::Waker;
use crate::stats::EdgeStats;

/// One unit of work for a worker.
pub(crate) enum Job {
    /// Run the handler for the request framed on connection `token`.
    Run {
        token: u64,
        request: Box<Request>,
        /// When the reactor queued this job. At dequeue the worker
        /// records the sojourn for the overload signal and checks it
        /// against [`oak_http::ServerLimits::queue_deadline`].
        enqueued: Instant,
        /// The socket, when the worker may write the reply itself.
        direct: Option<Direct>,
    },
    /// Exit the worker loop (one sentinel per worker at shutdown).
    Stop,
}

/// What the reactor lends a worker to answer on the socket itself.
pub(crate) struct Direct {
    pub stream: Arc<TcpStream>,
    /// The connection's hand-off word (`crate::conn::HANDLING` when lent).
    pub handoff: Arc<AtomicU8>,
}

/// A worker's answer to one job, queued for the reactor.
pub(crate) enum Reply {
    /// The worker wrote the whole response to the lent socket.
    Written,
    /// The serialised response, written up to `sent`; the reactor
    /// writes the rest.
    Unsent { bytes: Vec<u8>, sent: usize },
}

/// The shared job queue.
#[derive(Default)]
pub(crate) struct Pool {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl Pool {
    pub fn submit(&self, job: Job) {
        self.queue.lock().unwrap().push_back(job);
        self.ready.notify_one();
    }

    fn next(&self) -> Job {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            queue = self.ready.wait(queue).unwrap();
        }
    }
}

/// Everything a worker thread needs, cloneable per worker.
#[derive(Clone)]
pub(crate) struct WorkerCtx {
    pub pool: Arc<Pool>,
    pub handler: Arc<dyn Handler>,
    pub stats: Arc<TransportStats>,
    pub edge: Arc<EdgeStats>,
    pub obs: Option<Arc<HttpMetrics>>,
    pub completions: Arc<Mutex<Vec<(u64, Reply)>>>,
    pub wake: Waker,
    /// Zero disables drop-at-dequeue.
    pub queue_deadline: Duration,
}

/// Spawns `n` detached workers. They exit on their `Stop` sentinel;
/// shutdown does not join them, so a handler stuck forever costs its
/// thread but never hangs the process exit path.
pub(crate) fn spawn_workers(n: usize, ctx: &WorkerCtx) {
    for i in 0..n {
        let ctx = ctx.clone();
        let _ = std::thread::Builder::new()
            .name(format!("oak-edge-worker-{i}"))
            .spawn(move || worker_loop(&ctx));
    }
}

fn worker_loop(ctx: &WorkerCtx) {
    loop {
        match ctx.pool.next() {
            Job::Stop => return,
            Job::Run {
                token,
                request,
                enqueued,
                direct,
            } => {
                ctx.edge.dec_worker_queue();
                // One clock read per job serves both the overload
                // signal (the interval's minimum sojourn) and the
                // deadline below.
                let waited = enqueued.elapsed();
                ctx.edge.note_sojourn(waited.as_micros() as u64);
                // CoDel-style drop-at-dequeue: work that overstayed its
                // queue deadline is answered with a canned 503 instead
                // of processed — under overload the queue's oldest
                // entries are the ones whose clients have already given
                // up. Exempt targets (health probes) always run.
                if !ctx.queue_deadline.is_zero()
                    && waited > ctx.queue_deadline
                    && !ctx.handler.shed_exempt(request.path())
                {
                    ctx.stats.record(TransportEvent::RequestShed);
                    ctx.reply(token, &queue_shed_response(), direct);
                    continue;
                }
                let handle_start = ctx.obs.as_ref().map(|o| o.now());
                // A panicking handler costs one response, not a worker:
                // the client gets a 500 and the panic lands in the stats.
                let response = match catch_unwind(AssertUnwindSafe(|| ctx.handler.handle(&request)))
                {
                    Ok(response) => response,
                    Err(_) => {
                        ctx.stats.record(TransportEvent::Panic);
                        Response::new(StatusCode::INTERNAL_ERROR)
                            .with_body(b"handler panicked".to_vec(), "text/plain")
                    }
                };
                if let (Some(obs), Some(start)) = (ctx.obs.as_ref(), handle_start) {
                    obs.record(Stage::Handle, start, obs.now());
                }
                // Counted whether or not the write later succeeds.
                ctx.stats.record(TransportEvent::RequestServed);
                ctx.reply(token, &response, direct);
            }
        }
    }
}

impl WorkerCtx {
    /// Serialises `response` and writes what the lent socket takes now;
    /// queues the outcome for the reactor and wakes it when it has to
    /// act (see the module docs).
    fn reply(&self, token: u64, response: &Response, direct: Option<Direct>) {
        let bytes = response.to_bytes();
        let write_start = self.obs.as_ref().map(|o| o.now());
        let sent = direct
            .as_ref()
            .map_or(0, |d| write_nonblocking(&d.stream, &bytes));
        let Some(direct) = direct.filter(|_| sent == bytes.len()) else {
            self.complete(token, Reply::Unsent { bytes, sent });
            self.wake.wake();
            return;
        };
        if let (Some(obs), Some(start)) = (self.obs.as_ref(), write_start) {
            obs.record(Stage::Write, start, obs.now());
        }
        // Queued before the swap: a reactor that finds DONE applies it
        // on the same turn.
        self.complete(token, Reply::Written);
        if direct.handoff.swap(DONE, Ordering::AcqRel) == READ_SEEN {
            self.wake.wake();
        }
    }

    fn complete(&self, token: u64, reply: Reply) {
        self.completions
            .lock()
            .expect("completion lock")
            .push((token, reply));
    }
}

/// Writes `bytes` until done, `WouldBlock` or an error; returns how many
/// went out. The socket is non-blocking, so this never waits.
fn write_nonblocking(mut stream: &TcpStream, bytes: &[u8]) -> usize {
    let mut sent = 0;
    while sent < bytes.len() {
        match stream.write(&bytes[sent..]) {
            Ok(0) => break,
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    sent
}
