//! The transport seam: what the server (`oak-edge`) and its handlers
//! share, plus a blocking client.
//!
//! The [`Handler`] trait is the seam between transport and logic — the Oak
//! proxy implements it once and runs identically over TCP (live example)
//! and direct in-memory calls (deterministic experiments).
//!
//! The server is *bounded* ([`ServerLimits`]): concurrent connections are
//! capped (over → 503), the request head and body have byte ceilings
//! (over → 431/413), reads and writes carry deadlines (a slowloris gets a
//! 408), and handler panics are caught and turned into 500s. Every limit
//! trip lands in a [`TransportStats`] counter so the operator's
//! `/oak/stats` view shows what the edge is absorbing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::HttpError;
use crate::message::{Method, Request, Response, StatusCode};

/// Header the server sets on inbound requests with the connection's
/// observed peer IP, overriding any client-supplied value. Handlers that
/// care about client addresses (Oak's subnet-scoped policies, §4.2.4 of
/// the paper) read this.
pub const PEER_ADDR_HEADER: &str = "X-Oak-Peer-Addr";

/// Turns a request into a response. Implementations must be thread-safe:
/// the server invokes them from its worker threads.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `request`.
    fn handle(&self, request: &Request) -> Response;

    /// Consulted by the server after the request head is
    /// complete but *before* any body byte is read or the request is
    /// queued for a worker. Returning `Some(response)` sheds the
    /// request: the transport answers with it immediately and never
    /// buffers the body — the overload-control fast path. A request
    /// whose head declares no body keeps its connection; any other
    /// (a body, or framing the server refuses) is answered with
    /// `Connection: close`, since unread bytes make the connection
    /// unframeable. The default admits everything.
    fn admit(&self, method: Method, target: &str) -> Option<Response> {
        let _ = (method, target);
        None
    }

    /// True for targets the transport must never shed on its own
    /// (queue-deadline drops skip them). Health probes stay answerable
    /// under any overload; the default exempts nothing.
    fn shed_exempt(&self, target: &str) -> bool {
        let _ = target;
        false
    }
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Resource bounds for the server.
///
/// The defaults are 10 s read/write deadlines, 64 KiB heads and 16 MiB
/// bodies, with a generous connection cap; deployments facing the open
/// Internet tighten them via `oak-serve` flags.
#[derive(Clone, Copy, Debug)]
pub struct ServerLimits {
    /// Maximum concurrently served connections; one more gets a 503 and
    /// an immediate close.
    pub max_connections: usize,
    /// Maximum request-head bytes (request line + headers + terminator);
    /// over yields a 431.
    pub max_head_bytes: usize,
    /// Maximum body bytes, whether declared via `Content-Length` or
    /// accumulated from chunks; over yields a 413 without reading the
    /// rest.
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading one complete request. Enforced
    /// across reads, so byte-dribbling (slowloris) cannot hold a
    /// connection past it; tripping mid-request yields a 408.
    pub read_timeout: Duration,
    /// Per-write deadline; a peer that stops draining its receive
    /// window gets disconnected.
    pub write_timeout: Duration,
    /// How long the server's `shutdown` waits for in-flight connections
    /// to finish before giving up on the stragglers.
    pub drain_timeout: Duration,
    /// CoDel-style queue deadline: a request that waited longer than
    /// this between being fully read and a worker picking it up is
    /// answered with a canned 503 + Retry-After instead of being
    /// processed — under overload, stale queued work is the least
    /// valuable work in the building. Zero disables the check. Targets
    /// for which [`Handler::shed_exempt`] returns true are never
    /// dropped.
    pub queue_deadline: Duration,
}

impl Default for ServerLimits {
    fn default() -> ServerLimits {
        ServerLimits {
            max_connections: 1024,
            max_head_bytes: 64 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            queue_deadline: Duration::ZERO,
        }
    }
}

/// Transport-level counters, shared between the server and whoever
/// renders them (the Oak service exports these under `transport` in
/// `/oak/stats`).
#[derive(Debug, Default)]
pub struct TransportStats {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    connections_closed: AtomicU64,
    accepts_failed: AtomicU64,
    requests_served: AtomicU64,
    requests_shed: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    heads_too_large: AtomicU64,
    bodies_too_large: AtomicU64,
    bad_requests: AtomicU64,
}

/// A point-in-time copy of [`TransportStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Connections admitted under the connection cap.
    pub connections_accepted: u64,
    /// Connections turned away with a 503 at the connection cap.
    pub connections_rejected: u64,
    /// Accepted connections since closed; `accepted - closed` is the
    /// live permit occupancy.
    pub connections_closed: u64,
    /// `accept()` failures (the accept path backs off instead of
    /// hot-spinning).
    pub accepts_failed: u64,
    /// Requests that reached the handler and were answered.
    pub requests_served: u64,
    /// Requests dropped pre-handler: rejected by [`Handler::admit`]
    /// before their body was read, or aged out of the worker queue past
    /// [`ServerLimits::queue_deadline`].
    pub requests_shed: u64,
    /// Handler panics converted to 500s.
    pub panics: u64,
    /// Requests that timed out mid-read (408).
    pub timeouts: u64,
    /// Request heads over the limit (431).
    pub heads_too_large: u64,
    /// Request bodies over the limit (413).
    pub bodies_too_large: u64,
    /// Requests rejected as malformed or truncated (400).
    pub bad_requests: u64,
}

/// One transport-level occurrence worth counting; the server records
/// each through [`TransportStats::record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportEvent {
    /// A connection got a permit and is being served.
    ConnectionAccepted,
    /// A connection was turned away with a 503 at the connection cap.
    ConnectionRejected,
    /// A previously accepted connection finished (permit returned).
    ConnectionClosed,
    /// `accept()` failed.
    AcceptFailed,
    /// A request reached the handler and was answered.
    RequestServed,
    /// A request was dropped pre-handler (admission shed or queue
    /// deadline).
    RequestShed,
    /// A handler panic was converted to a 500.
    Panic,
    /// A request timed out mid-read (408).
    Timeout,
    /// A request head exceeded the limit (431).
    HeadTooLarge,
    /// A request body exceeded the limit (413).
    BodyTooLarge,
    /// A request was rejected as malformed or truncated (400).
    BadRequest,
}

impl TransportStats {
    /// Counts one transport event.
    pub fn record(&self, event: TransportEvent) {
        let counter = match event {
            TransportEvent::ConnectionAccepted => &self.connections_accepted,
            TransportEvent::ConnectionRejected => &self.connections_rejected,
            TransportEvent::ConnectionClosed => &self.connections_closed,
            TransportEvent::AcceptFailed => &self.accepts_failed,
            TransportEvent::RequestServed => &self.requests_served,
            TransportEvent::RequestShed => &self.requests_shed,
            TransportEvent::Panic => &self.panics,
            TransportEvent::Timeout => &self.timeouts,
            TransportEvent::HeadTooLarge => &self.heads_too_large,
            TransportEvent::BodyTooLarge => &self.bodies_too_large,
            TransportEvent::BadRequest => &self.bad_requests,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            accepts_failed: self.accepts_failed.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            heads_too_large: self.heads_too_large.load(Ordering::Relaxed),
            bodies_too_large: self.bodies_too_large.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
        }
    }
}

/// Seconds every transport-minted shed/throttle response suggests the
/// client back off before retrying.
pub const SHED_RETRY_AFTER_SECS: u64 = 1;

/// The terse 503 a connection over the cap is answered with.
pub fn over_capacity_response() -> Response {
    Response::new(StatusCode::UNAVAILABLE)
        .with_body(b"connection limit reached".to_vec(), "text/plain")
        .with_header("Retry-After", &SHED_RETRY_AFTER_SECS.to_string())
        .with_header("Connection", "close")
}

/// The canned 503 for a request that aged past
/// [`ServerLimits::queue_deadline`] in the worker queue. The request was
/// fully read, so keep-alive survives — only the stale work is dropped.
pub fn queue_shed_response() -> Response {
    Response::new(StatusCode::UNAVAILABLE)
        .with_body(b"dropped from queue under overload".to_vec(), "text/plain")
        .with_header("Retry-After", &SHED_RETRY_AFTER_SECS.to_string())
}

/// Performs one blocking HTTP exchange over a fresh TCP connection.
///
/// # Errors
///
/// Propagates connect/read/write failures and response parse errors.
pub fn fetch_tcp(addr: SocketAddr, request: &Request) -> Result<Response, HttpError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut request = request.clone();
    request.headers.set("Connection", "close");
    stream.write_all(&request.to_bytes())?;
    stream.flush()?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    Response::parse(&bytes)
}
