//! Per-connection state for the reactor.
//!
//! One connection is a small state machine driven entirely by readiness
//! events and timer fires: reading a head, reading a body, waiting on a
//! worker, writing a response, or draining before close. All framing
//! decisions delegate to [`oak_http::framing`].

use std::net::TcpStream;
use std::sync::atomic::AtomicU8;
use std::sync::Arc;

use oak_http::framing::{
    content_length_of, head_end, head_is_chunked, ChunkedProgress, ChunkedScan,
};
use oak_http::{HttpError, ServerLimits};

/// Sentinel for "no deadline armed".
pub(crate) const NO_DEADLINE: u64 = u64::MAX;

/// [`Conn::handoff`]: a worker holds the request.
pub(crate) const HANDLING: u8 = 0;
/// [`Conn::handoff`]: a read edge went by while a worker held the
/// request; the worker must wake the reactor when it is done.
pub(crate) const READ_SEEN: u8 = 1;
/// [`Conn::handoff`]: the worker is done and its completion is queued.
pub(crate) const DONE: u8 = 2;

/// Where the connection is in its request/response cycle.
pub(crate) enum State {
    /// Accumulating head bytes until the blank-line terminator.
    ReadingHead,
    /// Head complete; accumulating body bytes.
    ReadingBody(Body),
    /// A worker owns the request; the reactor neither reads nor writes
    /// (not reading is the backpressure: the peer's next pipelined
    /// request stays in the socket buffer until this response is out).
    /// A worker lent the socket writes the reply itself; a read edge
    /// seen meanwhile is recorded in [`Conn::handoff`] so the worker
    /// wakes the reactor for it.
    Handling,
    /// Flushing `out` to the socket.
    Writing,
    /// Response written, write side half-closed; discarding any unread
    /// request bytes briefly so the FIN lands clean instead of an RST
    /// nuking the response out of the peer's receive buffer.
    DrainClose,
}

/// Body-framing progress, decided once per request from the head.
pub(crate) enum Body {
    /// `Content-Length` framing: the message ends at this total
    /// (head + declared length) in `in_buf`.
    Length { total: usize },
    /// `Transfer-Encoding: chunked`: incremental scan over the raw
    /// bytes after `head_len`.
    Chunked { head_len: usize, scan: ChunkedScan },
}

/// Outcome of advancing framing over the buffered bytes.
pub(crate) enum ParseStep {
    /// Need more socket bytes.
    NeedMore,
    /// The head just completed: `in_buf[..head_len]` is the full header
    /// block, no body byte has been consumed. Reported exactly once per
    /// request so the reactor can consult [`oak_http::Handler::admit`]
    /// before body framing begins.
    HeadReady { head_len: usize },
    /// `in_buf[..msg_end]` is one complete request message.
    Complete { msg_end: usize },
}

/// One live connection owned by the reactor thread.
pub(crate) struct Conn {
    /// Shared with a worker that writes its reply directly; the fd
    /// closes when the last holder drops it.
    pub stream: Arc<TcpStream>,
    /// The hand-off word, [`HANDLING`] → [`READ_SEEN`] (reactor) or
    /// [`DONE`] (worker); reset to [`HANDLING`] at each hand-off.
    pub handoff: Arc<AtomicU8>,
    /// Peer IP, stamped into [`oak_http::PEER_ADDR_HEADER`].
    pub peer_ip: Option<String>,
    pub state: State,
    /// Unparsed inbound bytes (head + body of the current request, plus
    /// any pipelined follow-on bytes).
    pub in_buf: Vec<u8>,
    /// Head-scan resume offset into `in_buf` (a line start).
    pub scan_from: usize,
    /// Response bytes being written, next-unwritten offset in `out_pos`.
    pub out: Vec<u8>,
    pub out_pos: usize,
    /// Close (instead of keep-alive) once `out` is flushed.
    pub close_after_write: bool,
    /// Half-close and drain after `out` is flushed (error verdicts).
    pub drain_after_write: bool,
    /// Whether `out` came from the handler (stage metrics record only
    /// handler responses).
    pub from_handler: bool,
    /// Whether this connection holds a slot against `max_connections`
    /// (over-capacity rejects are served uncounted).
    pub counted: bool,
    /// Authoritative deadline, absolute reactor-ms; the wheel's entries
    /// are hints checked against this.
    pub deadline_ms: u64,
    /// Clock reading when the current request's read phase began.
    pub read_start_ns: u64,
    /// Clock reading when the current response's write phase began.
    pub write_start_ns: u64,
    /// The last read returned less than its buffer, so the socket was
    /// empty and any later byte raises a fresh edge. Taken by the
    /// request it completes.
    pub read_drained: bool,
    /// Whether the current request's head was already surfaced as
    /// [`ParseStep::HeadReady`] (the admission gate runs once).
    pub head_seen: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, peer_ip: Option<String>, counted: bool) -> Conn {
        Conn {
            stream: Arc::new(stream),
            handoff: Arc::new(AtomicU8::new(DONE)),
            peer_ip,
            state: State::ReadingHead,
            in_buf: Vec::new(),
            scan_from: 0,
            out: Vec::new(),
            out_pos: 0,
            close_after_write: false,
            drain_after_write: false,
            from_handler: false,
            counted,
            deadline_ms: NO_DEADLINE,
            read_start_ns: 0,
            write_start_ns: 0,
            read_drained: false,
            head_seen: false,
        }
    }

    /// True once any byte of the *current* request has arrived: a
    /// deadline firing before that is an idle keep-alive connection
    /// (silent close), after it a slow request (408).
    pub fn request_started(&self) -> bool {
        !self.in_buf.is_empty()
    }

    /// Advances framing over `in_buf` as far as the buffered bytes
    /// allow, transitioning `ReadingHead → ReadingBody` internally.
    ///
    /// # Errors
    ///
    /// `HeadTooLarge` when the accumulated head exceeds its cap,
    /// `BodyTooLarge` when the *declared* length exceeds the body cap
    /// (before any body byte is buffered) or a chunked body's running
    /// total does, `Malformed` for unparseable framing headers.
    pub fn parse_step(&mut self, limits: &ServerLimits) -> Result<ParseStep, HttpError> {
        loop {
            match &mut self.state {
                State::ReadingHead => {
                    let (end, resume) = head_end(&self.in_buf, self.scan_from);
                    self.scan_from = resume;
                    let Some(head_len) = end else {
                        // The cap counts complete lines; checking the
                        // raw buffer too rejects a never-terminated
                        // line as soon as it crosses the cap instead of
                        // buffering it until the deadline.
                        if self.in_buf.len() > limits.max_head_bytes {
                            return Err(HttpError::HeadTooLarge {
                                limit: limits.max_head_bytes,
                            });
                        }
                        return Ok(ParseStep::NeedMore);
                    };
                    // `resume` is where the terminating blank line began:
                    // the bytes counted against the cap (the blank line
                    // itself is free).
                    if resume > limits.max_head_bytes {
                        return Err(HttpError::HeadTooLarge {
                            limit: limits.max_head_bytes,
                        });
                    }
                    if !self.head_seen {
                        self.head_seen = true;
                        return Ok(ParseStep::HeadReady { head_len });
                    }
                    let head = &self.in_buf[..head_len];
                    if head_is_chunked(head)? {
                        self.state = State::ReadingBody(Body::Chunked {
                            head_len,
                            scan: ChunkedScan::new(),
                        });
                    } else {
                        let needed = content_length_of(head)?;
                        if needed > limits.max_body_bytes {
                            return Err(HttpError::BodyTooLarge {
                                limit: limits.max_body_bytes,
                            });
                        }
                        self.state = State::ReadingBody(Body::Length {
                            total: head_len + needed,
                        });
                    }
                }
                State::ReadingBody(Body::Length { total }) => {
                    let total = *total;
                    return if self.in_buf.len() >= total {
                        Ok(ParseStep::Complete { msg_end: total })
                    } else {
                        Ok(ParseStep::NeedMore)
                    };
                }
                State::ReadingBody(Body::Chunked { head_len, scan }) => {
                    let head_len = *head_len;
                    let body = &self.in_buf[head_len..];
                    return match scan.advance(body, limits.max_body_bytes)? {
                        ChunkedProgress::Complete(raw) => Ok(ParseStep::Complete {
                            msg_end: head_len + raw,
                        }),
                        ChunkedProgress::Incomplete => Ok(ParseStep::NeedMore),
                    };
                }
                State::Handling | State::Writing | State::DrainClose => {
                    return Ok(ParseStep::NeedMore);
                }
            }
        }
    }

    /// Resets per-request fields for the next keep-alive request,
    /// leaving any pipelined bytes in `in_buf`.
    pub fn reset_for_next_request(&mut self) {
        self.scan_from = 0;
        self.out.clear();
        self.out_pos = 0;
        self.close_after_write = false;
        self.drain_after_write = false;
        self.from_handler = false;
        self.head_seen = false;
        self.state = State::ReadingHead;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> ServerLimits {
        ServerLimits {
            max_head_bytes: 128,
            max_body_bytes: 64,
            ..ServerLimits::default()
        }
    }

    fn conn() -> Conn {
        // Framing logic never touches the socket; a connected pair just
        // satisfies the struct.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Conn::new(stream, None, true)
    }

    /// Advances framing past the one-shot `HeadReady` admission gate,
    /// the way the reactor does after the handler admits the request.
    fn step(c: &mut Conn) -> Result<ParseStep, HttpError> {
        match c.parse_step(&limits())? {
            ParseStep::HeadReady { .. } => c.parse_step(&limits()),
            other => Ok(other),
        }
    }

    #[test]
    fn incremental_head_then_body_completes_once() {
        let mut c = conn();
        c.in_buf.extend_from_slice(b"POST /r HTTP/1.1\r\nContent-");
        assert!(matches!(step(&mut c).unwrap(), ParseStep::NeedMore));
        c.in_buf.extend_from_slice(b"Length: 5\r\n\r\nhel");
        assert!(matches!(step(&mut c).unwrap(), ParseStep::NeedMore));
        c.in_buf.extend_from_slice(b"lo");
        let ParseStep::Complete { msg_end } = step(&mut c).unwrap() else {
            panic!("expected completion");
        };
        assert_eq!(msg_end, c.in_buf.len());
    }

    #[test]
    fn head_ready_fires_once_with_no_body_byte_consumed() {
        let mut c = conn();
        c.in_buf
            .extend_from_slice(b"POST /r HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        let ParseStep::HeadReady { head_len } = c.parse_step(&limits()).unwrap() else {
            panic!("expected the admission gate first");
        };
        assert_eq!(&c.in_buf[head_len..], b"hello", "body left untouched");
        // Second call proceeds to body framing; the gate never re-fires.
        assert!(matches!(
            c.parse_step(&limits()).unwrap(),
            ParseStep::Complete { .. }
        ));
    }

    #[test]
    fn declared_oversize_rejected_before_body_bytes() {
        let mut c = conn();
        c.in_buf
            .extend_from_slice(b"POST /r HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert!(matches!(step(&mut c), Err(HttpError::BodyTooLarge { .. })));
    }

    #[test]
    fn unterminated_head_over_cap_rejected() {
        let mut c = conn();
        c.in_buf.extend_from_slice(b"GET / HTTP/1.1\r\nX-P: ");
        c.in_buf.resize(200, b'a');
        assert!(matches!(
            c.parse_step(&limits()),
            Err(HttpError::HeadTooLarge { .. })
        ));
    }

    #[test]
    fn chunked_body_completes_and_pipelined_tail_left_alone() {
        let mut c = conn();
        c.in_buf.extend_from_slice(
            b"POST /r HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\nGET /next",
        );
        let ParseStep::Complete { msg_end } = step(&mut c).unwrap() else {
            panic!("expected completion");
        };
        assert_eq!(&c.in_buf[msg_end..], b"GET /next");
    }

    #[test]
    fn pipelined_second_request_parses_after_reset() {
        let mut c = conn();
        c.in_buf
            .extend_from_slice(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let ParseStep::Complete { msg_end } = step(&mut c).unwrap() else {
            panic!("expected completion");
        };
        c.in_buf.drain(..msg_end);
        c.reset_for_next_request();
        let ParseStep::Complete { msg_end } = step(&mut c).unwrap() else {
            panic!("expected second completion");
        };
        assert_eq!(msg_end, c.in_buf.len());
    }
}
