//! Fixed worker pool running engine handlers off the reactor thread.
//!
//! The reactor never calls a [`oak_http::Handler`] itself: a slow or
//! panicking handler on the event loop would stall every connection.
//! Instead, complete requests are queued here; a worker runs the handler
//! under `catch_unwind` (panic → 500), pushes the response into the
//! completion list, and kicks the reactor's wake pipe so it picks the
//! response up.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use oak_http::{
    queue_shed_response, Handler, HttpMetrics, Request, Response, Stage, StatusCode,
    TransportEvent, TransportStats,
};

use crate::reactor::Waker;
use crate::stats::EdgeStats;

/// One unit of work for a worker.
pub(crate) enum Job {
    /// Run the handler for the request framed on connection `token`.
    Run {
        token: u64,
        request: Box<Request>,
        /// When the reactor queued this job; the CoDel-style queue
        /// deadline ([`oak_http::ServerLimits::queue_deadline`]) is
        /// measured against it at dequeue.
        enqueued: Instant,
    },
    /// Exit the worker loop (one sentinel per worker at shutdown).
    Stop,
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
    pub completions: Arc<Mutex<Vec<(u64, Response)>>>,
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
            } => {
                ctx.edge.dec_worker_queue();
                // CoDel-style drop-at-dequeue: work that overstayed its
                // queue deadline is answered with a canned 503 instead
                // of processed — under overload the queue's oldest
                // entries are the ones whose clients have already given
                // up. Exempt targets (health probes) always run.
                if !ctx.queue_deadline.is_zero()
                    && enqueued.elapsed() > ctx.queue_deadline
                    && !ctx.handler.shed_exempt(request.path())
                {
                    ctx.stats.record(TransportEvent::RequestShed);
                    ctx.completions
                        .lock()
                        .unwrap()
                        .push((token, queue_shed_response()));
                    ctx.wake.wake();
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
                ctx.completions.lock().unwrap().push((token, response));
                ctx.wake.wake();
            }
        }
    }
}
