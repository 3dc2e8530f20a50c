//! Deterministic fault injection for the TCP edge.
//!
//! The torture suite (and any embedder's resilience tests) drives a live
//! server through the abuse patterns a public origin sees:
//! byte-dribbling slowloris clients, connections dropped mid-body,
//! oversized heads and bodies, and permit-hogging idle connections. Every
//! helper is scripted — fixed byte schedules and delays, no randomness —
//! so a failing run replays identically.
//!
//! These helpers are *clients*: they speak raw bytes at a real socket, so
//! the server under test exercises exactly the code path production
//! traffic hits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use crate::error::HttpError;
use crate::framing::content_length_of;
use crate::message::{Request, Response};

/// A scripted abusive client aimed at one server address.
#[derive(Clone, Copy, Debug)]
pub struct ChaosClient {
    addr: SocketAddr,
    /// How long to wait for the server's answer before giving up.
    read_timeout: Duration,
}

impl ChaosClient {
    /// Targets `addr` with a 5-second response-read timeout.
    pub fn new(addr: SocketAddr) -> ChaosClient {
        ChaosClient {
            addr,
            read_timeout: Duration::from_secs(5),
        }
    }

    /// Overrides the response-read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> ChaosClient {
        self.read_timeout = timeout;
        self
    }

    fn connect(&self) -> Result<TcpStream, HttpError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        Ok(stream)
    }

    /// Slowloris: sends `bytes` in `chunk`-byte pieces with `delay`
    /// between pieces, then reads whatever the server answers. Stops
    /// dribbling early if the server closes the connection (broken
    /// pipe), which is exactly what a deadline-enforcing server does.
    ///
    /// # Errors
    ///
    /// Propagates connect errors; response parse errors mean the server
    /// closed without answering.
    pub fn dribble(
        &self,
        bytes: &[u8],
        chunk: usize,
        delay: Duration,
    ) -> Result<Response, HttpError> {
        let mut stream = self.connect()?;
        for piece in bytes.chunks(chunk.max(1)) {
            if stream.write_all(piece).is_err() {
                break; // server hung up mid-dribble; go read its verdict
            }
            let _ = stream.flush();
            std::thread::sleep(delay);
        }
        let _ = stream.shutdown(Shutdown::Write);
        read_response(&mut stream)
    }

    /// Declares a `Content-Length` of `declared` bytes on a POST to
    /// `path`, sends only `sent` of them, and drops the connection —
    /// the mid-body disconnect pattern.
    ///
    /// # Errors
    ///
    /// Propagates connect/write errors.
    pub fn disconnect_mid_body(
        &self,
        path: &str,
        declared: usize,
        sent: usize,
    ) -> Result<(), HttpError> {
        let mut stream = self.connect()?;
        let head = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {declared}\r\nContent-Type: application/json\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&vec![b'x'; sent.min(declared)])?;
        stream.flush()?;
        drop(stream); // RST or FIN mid-body; the server must shrug
        Ok(())
    }

    /// Sends a request whose head (one giant padding header) is
    /// `head_bytes` long and returns the server's verdict (431 when over
    /// the limit).
    ///
    /// # Errors
    ///
    /// Propagates connect errors; parse errors mean no answer arrived.
    pub fn oversized_head(&self, head_bytes: usize) -> Result<Response, HttpError> {
        let mut stream = self.connect()?;
        let mut head = b"GET / HTTP/1.1\r\nX-Padding: ".to_vec();
        head.resize(head_bytes.max(head.len()), b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let _ = stream.write_all(&head);
        let _ = stream.shutdown(Shutdown::Write);
        read_response(&mut stream)
    }

    /// Declares an oversized body via `Content-Length` (no body bytes are
    /// actually sent) and returns the server's verdict (413 when over
    /// the limit — *before* the server buffers anything).
    ///
    /// # Errors
    ///
    /// Propagates connect errors; parse errors mean no answer arrived.
    pub fn oversized_body(&self, path: &str, declared: usize) -> Result<Response, HttpError> {
        let mut stream = self.connect()?;
        let head = format!("POST {path} HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        read_response(&mut stream)
    }

    /// Sends raw `bytes` verbatim, half-closes, and returns the verdict.
    ///
    /// # Errors
    ///
    /// Propagates connect errors; parse errors mean no answer arrived.
    pub fn send_raw(&self, bytes: &[u8]) -> Result<Response, HttpError> {
        let mut stream = self.connect()?;
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(Shutdown::Write);
        read_response(&mut stream)
    }

    /// Opens a connection and holds it without sending a byte; the
    /// returned stream keeps a server permit occupied until dropped.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn hold_open(&self) -> Result<TcpStream, HttpError> {
        self.connect()
    }

    /// Opens `n` simultaneous keep-alive connections and returns the
    /// driver holding them all.
    ///
    /// This is the concurrency primitive behind `bench_edge_latency`
    /// (thousands of open keep-alive connections per client thread) and
    /// the multi-connection slowloris torture (every connection dribbles
    /// at once, so the server must time each one out independently
    /// without stalling the rest).
    ///
    /// # Errors
    ///
    /// Propagates the first connect error; on failure no connections are
    /// leaked.
    pub fn concurrent(&self, n: usize) -> Result<ConnPool, HttpError> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = self.connect()?;
            // Request/response ping-pong across many connections is
            // latency-bound, not throughput-bound; Nagle would serialize
            // it against delayed ACKs.
            let _ = stream.set_nodelay(true);
            conns.push(BufReader::new(stream));
        }
        Ok(ConnPool { conns })
    }
}

/// `n` simultaneously open keep-alive connections to one server, driven
/// from a single thread (see [`ChaosClient::concurrent`]).
pub struct ConnPool {
    conns: Vec<BufReader<TcpStream>>,
}

impl ConnPool {
    /// How many connections the pool holds open.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when the pool holds no connections.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Performs one keep-alive request/response exchange on connection
    /// `i`. The connection stays open for the next exchange, so a loop
    /// over `exchange` measures steady-state keep-alive latency with no
    /// per-request connect cost.
    ///
    /// # Errors
    ///
    /// Propagates write/read failures (a closed or timed-out connection
    /// surfaces as an I/O or parse error; reopen via a fresh pool).
    pub fn exchange(&mut self, i: usize, request: &Request) -> Result<Response, HttpError> {
        let conn = &mut self.conns[i];
        conn.get_mut().write_all(&request.to_bytes())?;
        conn.get_mut().flush()?;
        read_keepalive_response(conn)
    }

    /// Multi-connection slowloris: dribbles `bytes` in `chunk`-byte
    /// pieces on *every* pooled connection simultaneously (one piece per
    /// connection per round, `delay` between rounds), then half-closes
    /// each and collects every server verdict. A deadline-enforcing
    /// server answers each connection 408 independently; a server with a
    /// shared read loop would stall them all behind the first.
    pub fn dribble_all(
        &mut self,
        bytes: &[u8],
        chunk: usize,
        delay: Duration,
    ) -> Vec<Result<Response, HttpError>> {
        for piece in bytes.chunks(chunk.max(1)) {
            for conn in &mut self.conns {
                // A write error means the server already hung up on this
                // connection; its verdict is read below regardless.
                let _ = conn.get_mut().write_all(piece);
                let _ = conn.get_mut().flush();
            }
            std::thread::sleep(delay);
        }
        self.conns
            .iter_mut()
            .map(|conn| {
                let _ = conn.get_mut().shutdown(Shutdown::Write);
                let mut bytes = Vec::new();
                conn.read_to_end(&mut bytes)?;
                Response::parse(&bytes)
            })
            .collect()
    }
}

/// Reads exactly one `Content-Length`-framed response off a keep-alive
/// connection, leaving the stream open for the next exchange.
fn read_keepalive_response(conn: &mut BufReader<TcpStream>) -> Result<Response, HttpError> {
    let mut head = Vec::with_capacity(256);
    loop {
        let start = head.len();
        let n = conn.read_until(b'\n', &mut head)?;
        if n == 0 {
            return Err(HttpError::Truncated);
        }
        let line = &head[start..];
        if line == b"\r\n" || line == b"\n" {
            break;
        }
    }
    let body_len = content_length_of(&head)?;
    let mut bytes = head;
    let body_start = bytes.len();
    bytes.resize(body_start + body_len, 0);
    conn.read_exact(&mut bytes[body_start..])?;
    Response::parse(&bytes)
}

/// Reads to EOF and parses whatever the server sent.
fn read_response(stream: &mut TcpStream) -> Result<Response, HttpError> {
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    Response::parse(&bytes)
}
