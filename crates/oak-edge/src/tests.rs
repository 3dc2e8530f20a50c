//! Server behavior tests over real sockets.
//!
//! The abuse gauntlet lives in `tests/torture_edge.rs` at the workspace
//! root; these tests cover the protocol guards one at a time and the
//! reactor's mechanics — keep-alive re-kicks, pipelining, chunked
//! framing, timers, capacity, accept backoff, drain — close to the
//! implementation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oak_http::fault::ChaosClient;
use oak_http::framing::content_length_of;
use oak_http::{
    encode_chunked, fetch_tcp, queue_shed_response, Handler, Method, Request, Response,
    ServerLimits, StatusCode, TransportStats,
};

use crate::wheel::TICK_MS;
use crate::{EdgeConfig, EdgeServer};

fn echo() -> Arc<dyn Handler> {
    Arc::new(|req: &Request| {
        if req.path() == "/boom" {
            panic!("scripted handler panic");
        }
        let line = format!("path={} body={}", req.path(), req.body.len());
        Response::new(StatusCode::OK).with_body(line.into_bytes(), "text/plain")
    })
}

fn tight() -> ServerLimits {
    ServerLimits {
        max_connections: 4,
        max_head_bytes: 2048,
        max_body_bytes: 8192,
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_secs(2),
        drain_timeout: Duration::from_secs(2),
        queue_deadline: Duration::ZERO,
    }
}

fn start_tight() -> EdgeServer {
    EdgeServer::start_with_limits(0, echo(), tight()).expect("edge server starts")
}

/// Reads one `Content-Length`-framed response off a keep-alive stream.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut head = Vec::new();
    loop {
        let start = head.len();
        let n = reader.read_until(b'\n', &mut head).expect("response head");
        assert!(n > 0, "EOF before response head completed");
        if &head[start..] == b"\r\n" || &head[start..] == b"\n" {
            break;
        }
    }
    let body_len = content_length_of(&head).expect("content-length");
    let mut bytes = head;
    let body_start = bytes.len();
    bytes.resize(body_start + body_len, 0);
    reader.read_exact(&mut bytes[body_start..]).expect("body");
    Response::parse(&bytes).expect("parseable response")
}

#[test]
fn serves_a_get_and_parallel_posts() {
    let limits = ServerLimits {
        max_connections: 16,
        ..tight()
    };
    let server = EdgeServer::start_with_limits(0, echo(), limits).unwrap();
    let addr = server.addr();
    let resp = fetch_tcp(addr, &Request::new(Method::Get, "/hello")).unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(resp.body, b"path=/hello body=0");
    let clients: Vec<_> = (0..8usize)
        .map(|i| {
            std::thread::spawn(move || {
                let len = 1000 + i * 10;
                let req = Request::new(Method::Post, format!("/echo{i}"))
                    .with_body(vec![i as u8; len], "application/octet-stream");
                let resp = fetch_tcp(addr, &req).unwrap();
                assert_eq!(resp.body, format!("path=/echo{i} body={len}").into_bytes());
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
}

#[test]
fn keepalive_serves_many_exchanges_on_one_connection() {
    let server = start_tight();
    let mut pool = ChaosClient::new(server.addr()).concurrent(1).unwrap();
    for i in 0..5 {
        let req = Request::new(Method::Get, format!("/r{i}"));
        let resp = pool.exchange(0, &req).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body, format!("path=/r{i} body=0").into_bytes());
    }
    assert_eq!(server.stats().snapshot().requests_served, 5);
    assert_eq!(server.stats().snapshot().connections_accepted, 1);
}

#[test]
fn pipelined_requests_answered_in_order() {
    let server = start_tight();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // Both requests land in one segment; the reactor must serve the
    // second from its buffer without a fresh readiness edge.
    writer
        .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        .unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let first = read_one_response(&mut reader);
    let second = read_one_response(&mut reader);
    assert_eq!(first.body, b"path=/a body=0");
    assert_eq!(second.body, b"path=/b body=0");
}

/// Refuses `/shed` at the admission hook, runs `/slow` for 150 ms
/// (raising `busy` once it holds the worker) and exempts `/health` from
/// the transport's own drops; everything else echoes.
struct Gatekeeper {
    busy: AtomicBool,
}

impl Handler for Gatekeeper {
    fn handle(&self, req: &Request) -> Response {
        if req.path() == "/slow" {
            self.busy.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(150));
        }
        let line = format!("path={} body={}", req.path(), req.body.len());
        Response::new(StatusCode::OK).with_body(line.into_bytes(), "text/plain")
    }

    fn admit(&self, _method: Method, target: &str) -> Option<Response> {
        (target == "/shed").then(|| {
            Response::new(StatusCode::UNAVAILABLE).with_body(b"shed".to_vec(), "text/plain")
        })
    }

    fn shed_exempt(&self, target: &str) -> bool {
        target == "/health"
    }
}

fn gatekeeper() -> Arc<Gatekeeper> {
    Arc::new(Gatekeeper {
        busy: AtomicBool::new(false),
    })
}

#[test]
fn a_shed_get_keeps_its_connection_and_the_requests_pipelined_behind_it() {
    let server = EdgeServer::start_with_limits(0, gatekeeper(), tight()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // One segment: a GET the admission hook refuses, then two GETs the
    // reactor must still parse from the same buffer.
    writer
        .write_all(b"GET /shed HTTP/1.1\r\n\r\nGET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        .unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let shed = read_one_response(&mut reader);
    assert_eq!(shed.status, StatusCode::UNAVAILABLE);
    assert!(
        shed.header("connection").is_none(),
        "a body-less shed keeps alive"
    );
    assert_eq!(read_one_response(&mut reader).body, b"path=/a body=0");
    assert_eq!(read_one_response(&mut reader).body, b"path=/b body=0");
    let snap = server.stats().snapshot();
    assert_eq!((snap.requests_shed, snap.requests_served), (1, 2));
    assert_eq!(snap.connections_accepted, 1, "all three on one connection");

    // A shed request with a body it never read cannot keep alive.
    let post = Request::new(Method::Post, "/shed").with_body(vec![b'x'; 64], "text/plain");
    let resp = fetch_tcp(server.addr(), &post).unwrap();
    assert_eq!(resp.status, StatusCode::UNAVAILABLE);
    assert_eq!(resp.header("connection"), Some("close"));

    // Conflicting Content-Length declarations are refused by the same
    // framing an admitted request gets: the shed closes, and the bytes
    // the second declaration claims are never served as a request.
    let smuggled = "GET /smuggled HTTP/1.1\r\n\r\n";
    let wire = format!(
        "GET /shed HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: {}\r\n\r\n{smuggled}",
        smuggled.len()
    );
    let resp = ChaosClient::new(server.addr())
        .send_raw(wire.as_bytes())
        .unwrap();
    assert_eq!(resp.header("connection"), Some("close"));
    assert_eq!(server.stats().snapshot().requests_served, 2);
}

#[test]
fn a_thousand_pipelined_sheds_are_answered_on_one_connection() {
    // Each keep-alive shed is answered inline on the reactor thread; a
    // long run of them in one buffer must iterate, not recurse.
    const SHEDS: usize = 1_000;
    let server = EdgeServer::start_with_limits(0, gatekeeper(), tight()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut wire = b"GET /shed HTTP/1.1\r\n\r\n".repeat(SHEDS);
    wire.extend_from_slice(b"GET /after HTTP/1.1\r\n\r\n");
    writer.write_all(&wire).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..SHEDS {
        let shed = read_one_response(&mut reader);
        assert_eq!(shed.status, StatusCode::UNAVAILABLE, "response {i}");
    }
    assert_eq!(read_one_response(&mut reader).body, b"path=/after body=0");
    let snap = server.stats().snapshot();
    assert_eq!(snap.requests_shed, SHEDS as u64);
    assert_eq!(snap.connections_accepted, 1);
}

#[test]
fn queue_deadline_drops_stale_work_but_serves_exempt_targets() {
    let limits = ServerLimits {
        queue_deadline: Duration::from_millis(20),
        ..tight()
    };
    let handler = gatekeeper();
    let server = EdgeServer::start_with_config(
        0,
        Arc::clone(&handler) as Arc<dyn Handler>,
        limits,
        Arc::new(TransportStats::default()),
        None,
        EdgeConfig { workers: 1 },
    )
    .unwrap();
    let addr = server.addr();
    // Hold the one worker, and start a fresh sojourn interval once it
    // is held.
    let slow = std::thread::spawn(move || fetch_tcp(addr, &Request::new(Method::Get, "/slow")));
    while !handler.busy.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.edge_stats().take_min_sojourn_us();
    // Both queue behind it for well over the deadline.
    let page = std::thread::spawn(move || fetch_tcp(addr, &Request::new(Method::Get, "/page")));
    let health = std::thread::spawn(move || fetch_tcp(addr, &Request::new(Method::Get, "/health")));
    while server.edge_stats().snapshot().worker_queue_depth < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Jobs wait and none left the queue: a stalled interval, not a calm
    // one.
    assert_eq!(server.edge_stats().take_min_sojourn_us(), None);
    let page = page.join().unwrap().unwrap();
    let health = health.join().unwrap().unwrap();
    assert_eq!(slow.join().unwrap().unwrap().status, StatusCode::OK);

    assert_eq!(page.to_bytes(), queue_shed_response().to_bytes());
    assert_eq!(health.status, StatusCode::OK, "exempt targets always run");
    assert_eq!(health.body, b"path=/health body=0");
    assert_eq!(server.stats().snapshot().requests_shed, 1);
    // The same dequeues fed the overload signal: nothing left the queue
    // in this interval without waiting past the deadline.
    let min_us = server.edge_stats().take_min_sojourn_us().unwrap();
    assert!(min_us >= 20_000, "interval minimum {min_us} us");
    assert_eq!(
        server.edge_stats().take_min_sojourn_us(),
        Some(0),
        "an empty interval reads 0"
    );
}

#[test]
fn chunked_body_is_decoded_for_the_handler() {
    let server = start_tight();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut wire = b"POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    wire.extend_from_slice(&encode_chunked(b"hello chunked world", 7));
    writer.write_all(&wire).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let resp = read_one_response(&mut reader);
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(resp.body, b"path=/up body=19");
}

#[test]
fn slowloris_is_answered_408() {
    let server = start_tight();
    let chaos = ChaosClient::new(server.addr());
    // 20 bytes dribbled 2 at a time with 60 ms gaps blows the 300 ms
    // budget long before the head could complete.
    let resp = chaos
        .dribble(
            b"GET / HTTP/1.1\r\nX-Slow: yes",
            2,
            Duration::from_millis(60),
        )
        .unwrap();
    assert_eq!(resp.status, StatusCode::REQUEST_TIMEOUT);
    assert_eq!(server.stats().snapshot().timeouts, 1);
}

#[test]
fn idle_keepalive_connection_closed_silently() {
    let server = start_tight();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    // Never send a byte: the idle deadline must close without a 408.
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    assert!(
        buf.is_empty(),
        "idle close must be silent, got {:?}",
        String::from_utf8_lossy(&buf)
    );
    assert_eq!(server.stats().snapshot().timeouts, 0);
}

#[test]
fn over_capacity_connection_gets_503() {
    let limits = ServerLimits {
        max_connections: 1,
        ..tight()
    };
    let server = EdgeServer::start_with_limits(0, echo(), limits).unwrap();
    let chaos = ChaosClient::new(server.addr());
    let _holder = chaos.hold_open().unwrap();
    // Give the reactor a beat to count the holder before the probe.
    std::thread::sleep(Duration::from_millis(50));
    let resp = fetch_tcp(server.addr(), &Request::new(Method::Get, "/")).unwrap();
    assert_eq!(resp.status, StatusCode::UNAVAILABLE);
    assert_eq!(server.stats().snapshot().connections_rejected, 1);
}

#[test]
fn handler_panic_costs_one_response_not_the_connection() {
    let server = start_tight();
    let mut pool = ChaosClient::new(server.addr()).concurrent(1).unwrap();
    let boom = pool
        .exchange(0, &Request::new(Method::Get, "/boom"))
        .unwrap();
    assert_eq!(boom.status, StatusCode::INTERNAL_ERROR);
    // Same connection keeps serving afterwards.
    let ok = pool.exchange(0, &Request::new(Method::Get, "/ok")).unwrap();
    assert_eq!(ok.status, StatusCode::OK);
    let snap = server.stats().snapshot();
    assert_eq!(snap.panics, 1);
    assert_eq!(snap.requests_served, 2);
}

#[test]
fn connection_close_header_is_honored_in_any_case() {
    let server = start_tight();
    for variant in ["close", "Close", "CLOSE", "cLoSe"] {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer
            .write_all(format!("GET /bye HTTP/1.1\r\nConnection: {variant}\r\n\r\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream);
        let resp = read_one_response(&mut reader);
        assert_eq!(resp.status, StatusCode::OK, "{variant}");
        // The server closing (not the client) ends this read: a missed
        // casing variant would hang to the timeout and fail the unwrap.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "server must close after Connection: {variant}"
        );
    }
}

#[test]
fn malformed_head_and_content_length_get_400() {
    let server = start_tight();
    let chaos = ChaosClient::new(server.addr());
    for raw in [
        b"NOT A REQUEST\r\n\r\n".to_vec(),
        // Signs and padding are not digits: `usize::from_str` would
        // accept "+5", so strictness must be explicit.
        b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".to_vec(),
        b"POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello".to_vec(),
        b"POST / HTTP/1.1\r\nContent-Length: \r\n\r\n".to_vec(),
        // Conflicting duplicates smell like request smuggling.
        b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
    ] {
        let resp = chaos.send_raw(&raw).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_REQUEST, "{raw:?}");
    }
    // Duplicate *identical* declarations are tolerated (RFC 9110 §8.6).
    let resp = chaos
        .send_raw(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
        .unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(server.stats().snapshot().bad_requests, 5);
}

#[test]
fn oversized_head_and_body_rejected() {
    let server = start_tight();
    let chaos = ChaosClient::new(server.addr());
    let head = chaos.oversized_head(4096).unwrap();
    assert_eq!(head.status, StatusCode::HEADERS_TOO_LARGE);
    // The declared body is rejected from its declaration alone.
    let body = chaos.oversized_body("/up", 1 << 20).unwrap();
    assert_eq!(body.status, StatusCode::PAYLOAD_TOO_LARGE);
    // Chunked bodies trip the same cap as they accumulate.
    let mut raw = b"POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    raw.extend_from_slice(&encode_chunked(&vec![b'z'; 20_000], 512));
    let chunked = chaos.send_raw(&raw).unwrap();
    assert_eq!(chunked.status, StatusCode::PAYLOAD_TOO_LARGE);
    let snap = server.stats().snapshot();
    assert_eq!(snap.heads_too_large, 1);
    assert_eq!(snap.bodies_too_large, 2);
}

#[test]
fn gauges_track_connections_and_recover_after_close() {
    let server = start_tight();
    {
        let mut pool = ChaosClient::new(server.addr()).concurrent(2).unwrap();
        let _ = pool.exchange(0, &Request::new(Method::Get, "/a")).unwrap();
        let _ = pool.exchange(1, &Request::new(Method::Get, "/b")).unwrap();
        assert_eq!(server.active_connections(), 2);
        assert_eq!(server.edge_stats().snapshot().connections_open, 2);
    }
    // Pool dropped: the reactor must notice both EOFs and return slots.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.active_connections() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.active_connections(), 0);
}

/// A worker writes a keep-alive reply itself and wakes the loop only
/// when a read edge went by meanwhile, so sequential requests on one
/// connection leave the wake pipe almost untouched (one wake each when
/// the reactor wrote every reply). The client pauses between requests:
/// one sent back to back can reach the reactor before a preempted
/// worker has marked its reply done, and that race rightly costs a wake
/// (up to one request in five on a loaded 2-CPU host).
#[test]
fn sequential_keepalive_requests_rarely_wake_the_loop() {
    let server = start_tight();
    let mut pool = ChaosClient::new(server.addr()).concurrent(1).unwrap();
    let before = server.edge_stats().snapshot().wakeups;
    for i in 0..200 {
        let resp = pool
            .exchange(0, &Request::new(Method::Get, format!("/r{i}")))
            .unwrap();
        assert_eq!(resp.body, format!("path=/r{i} body=0").into_bytes());
        std::thread::sleep(Duration::from_millis(1));
    }
    let wakeups = server.edge_stats().snapshot().wakeups - before;
    assert!(wakeups < 20, "200 requests drained {wakeups} wakeups");
}

/// A reply the loop never hears about waits for its next tick before
/// the connection reads again. Round trips that lost their wake would
/// cost a tick each; these must average a tenth of one.
#[test]
fn ping_pong_round_trips_do_not_wait_for_the_tick() {
    const ROUND_TRIPS: u64 = 2_000;
    let server = start_tight();
    let mut pool = ChaosClient::new(server.addr()).concurrent(1).unwrap();
    let ping = Request::new(Method::Get, "/ping");
    let started = std::time::Instant::now();
    for _ in 0..ROUND_TRIPS {
        assert_eq!(pool.exchange(0, &ping).unwrap().status, StatusCode::OK);
    }
    let elapsed = started.elapsed();
    let budget = Duration::from_millis(ROUND_TRIPS * TICK_MS / 10);
    assert!(
        elapsed < budget,
        "{ROUND_TRIPS} round trips took {elapsed:?}"
    );
}

/// A request that arrives while the worker still holds its predecessor
/// raises its only read edge then; the worker must wake the loop for it
/// rather than leave it to the next tick.
#[test]
fn a_request_sent_during_its_predecessors_handling_is_read_at_once() {
    let handler = gatekeeper();
    let server =
        EdgeServer::start_with_limits(0, Arc::clone(&handler) as Arc<dyn Handler>, tight())
            .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut gaps = Duration::ZERO;
    for _ in 0..20 {
        writer.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        // The worker holds `/slow` for 150 ms from here on.
        while !handler.busy.swap(false, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        writer.write_all(b"GET /next HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_one_response(&mut reader).body, b"path=/slow body=0");
        let first = std::time::Instant::now();
        assert_eq!(read_one_response(&mut reader).body, b"path=/next body=0");
        gaps += first.elapsed();
    }
    // Twenty lost wakes would wait out half a tick each on average.
    let budget = Duration::from_millis(20 * TICK_MS / 4);
    assert!(gaps < budget, "second replies trailed by {gaps:?} in all");
}

/// Answers `/big` with [`BIG`] patterned bytes, more than a loopback
/// socket buffers, and echoes everything else.
fn big_replies() -> Arc<dyn Handler> {
    Arc::new(|req: &Request| {
        if req.path() == "/big" {
            let body = (0..BIG).map(|i| (i % 251) as u8).collect();
            return Response::new(StatusCode::OK).with_body(body, "application/octet-stream");
        }
        let line = format!("path={} body={}", req.path(), req.body.len());
        Response::new(StatusCode::OK).with_body(line.into_bytes(), "text/plain")
    })
}

const BIG: usize = 8 << 20;

fn one_worker(handler: Arc<dyn Handler>, limits: ServerLimits) -> EdgeServer {
    let stats = Arc::new(TransportStats::default());
    EdgeServer::start_with_config(0, handler, limits, stats, None, EdgeConfig { workers: 1 })
        .unwrap()
}

/// A reply the socket cannot take at once goes back to the loop: the one
/// worker serves the next connection while the first client has not
/// read, and that client still gets every byte when it does.
#[test]
fn a_reply_larger_than_the_socket_buffer_does_not_hold_the_worker() {
    let server = one_worker(big_replies(), tight());
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"GET /big HTTP/1.1\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let resp = fetch_tcp(server.addr(), &Request::new(Method::Get, "/other")).unwrap();
    assert_eq!(resp.body, b"path=/other body=0");

    let big = read_one_response(&mut BufReader::new(stream));
    assert_eq!(big.body.len(), BIG);
    assert!(big
        .body
        .iter()
        .enumerate()
        .all(|(i, &b)| b == (i % 251) as u8));
}

/// The rest of a reply the worker could not write is under the write
/// deadline like any other: a client that never reads is cut.
#[test]
fn a_client_that_never_reads_a_large_reply_is_cut_at_the_write_timeout() {
    let limits = ServerLimits {
        write_timeout: Duration::from_millis(300),
        ..tight()
    };
    let server = one_worker(big_replies(), limits);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let sent = std::time::Instant::now();
    stream.write_all(b"GET /big HTTP/1.1\r\n\r\n").unwrap();
    while server.active_connections() == 0 && sent.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    while server.active_connections() > 0 && sent.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let cut = sent.elapsed();
    assert!(
        (limits.write_timeout..Duration::from_secs(2)).contains(&cut),
        "cut after {cut:?}"
    );
    // The kernel delivers what it had queued, then the close.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = Vec::new();
    let _ = stream.read_to_end(&mut got);
    assert!(
        got.len() < BIG,
        "the whole reply went out: {} bytes",
        got.len()
    );
}

#[test]
fn shutdown_is_idempotent_and_quick_when_idle() {
    let mut server = start_tight();
    let addr = server.addr();
    let started = std::time::Instant::now();
    server.shutdown();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "idle shutdown must not wait out the drain timeout"
    );
    // The listener closed with the reactor thread `shutdown` joined.
    assert!(
        TcpStream::connect(addr).is_err(),
        "connect must be refused after shutdown"
    );
}

/// A failing `accept()` must be retried off the timer wheel — under
/// edge-triggered epoll nothing else would look at the backlog again —
/// and on the backoff schedule, not in a spin. The "listener" is a UDP
/// socket (`accept()` → `EOPNOTSUPP`) made readable by one datagram.
#[test]
fn failed_accept_leaves_a_retry_pending_and_backs_off() {
    let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = udp.local_addr().unwrap();
    let server = EdgeServer::serve(
        TcpListener::from(OwnedFd::from(udp)),
        echo(),
        tight(),
        Arc::new(TransportStats::default()),
        None,
        EdgeConfig::default(),
    )
    .unwrap();
    UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .send_to(b"x", addr)
        .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let failed = server.stats().snapshot().accepts_failed;
    // 1+2+4+…+64 ms, then every 100 ms: nine retries fit in 400 ms.
    assert!(
        (2..=12).contains(&failed),
        "expected a handful of backed-off retries, saw {failed}"
    );
    assert!(server.edge_stats().snapshot().timers_pending >= 1);
}

#[test]
fn worker_count_resolves_sanely() {
    let auto = EdgeConfig::default().resolved_workers();
    assert!((2..=8).contains(&auto));
    let pinned = EdgeConfig { workers: 3 };
    assert_eq!(pinned.resolved_workers(), 3);
}
