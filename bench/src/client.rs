//! The load: closed-loop clients, one keep-alive connection each, over
//! loopback TCP.
//!
//! Closed loop because the callers this models wait for their reply, and
//! because on a two-core shared host an open-loop schedule turns one
//! hypervisor stall into a half-second p99 (see the README's sizing
//! runs).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::gen::{fnv, Inputs, Kind};
use crate::trace::{self, Recorder, Span, CLASSES, PAGE, PAGE_PROBE, REPORT, REPORT_PROBE, SCRAPE};
use crate::Workload;

/// Closed-loop clients, as the issue fixes them (= `nproc` on the sizing
/// host).
pub const CLIENTS: u64 = 2;
/// A reply slower than this is a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Every this many page responses one is kept for the byte comparison
/// against the live engine.
const VERIFY_EVERY: u64 = 100;

/// In a traced window every this many requests one more is sent ahead of
/// the stream's own: shaped like it, answered without its work (see
/// [`Inputs::write_probe`]), with the other client's real work competing
/// for the reactor, the workers and the CPU.
const PROBE_EVERY: u64 = 25;
/// Probe tags start here, past any stream offset.
const PROBE_TAGS: u64 = 1 << 39;

/// One keep-alive connection with reusable buffers.
pub struct Conn {
    stream: TcpStream,
    /// The request to send next.
    pub wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// What came back.
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// Where the body sits in the connection's read buffer.
    body_start: usize,
    /// Bytes of the whole response.
    pub bytes: usize,
}

impl Conn {
    /// Connects with Nagle off and a bounded read wait.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            wbuf: Vec::with_capacity(32 * 1024),
            rbuf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends `wbuf` and reads one whole response.
    pub fn exchange(&mut self) -> io::Result<Reply> {
        self.stream.write_all(&self.wbuf)?;
        self.rbuf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = find(&self.rbuf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        };
        let head = &self.rbuf[..head_end];
        let status = std::str::from_utf8(head.get(9..12).unwrap_or_default())
            .ok()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(io::ErrorKind::InvalidData)?;
        let length = header_value(head, b"content-length:")
            .and_then(|v| std::str::from_utf8(v).ok()?.trim().parse::<usize>().ok())
            .unwrap_or(0);
        while self.rbuf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            body_start: head_end,
            bytes: head_end + length,
        })
    }

    /// The body of the reply just read.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.rbuf[reply.body_start..reply.bytes]
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The value of the header whose lowercase name (with colon) is `name`.
fn header_value<'h>(head: &'h [u8], name: &[u8]) -> Option<&'h [u8]> {
    head.split(|&b| b == b'\n').skip(1).find_map(|line| {
        (line.len() >= name.len() && line[..name.len()].eq_ignore_ascii_case(name))
            .then(|| &line[name.len()..])
    })
}

/// A page response kept for comparison against `Oak::modify_page`.
pub struct PageSample {
    /// Who asked.
    pub user: u32,
    /// FNV-1a of the body received.
    pub body_hash: u64,
    /// Whether the body was taken for a rewritten page.
    pub rewritten: bool,
}

/// Length of the windows a phase is cut into, in nanoseconds.
///
/// The host this runs on is shared. What its neighbours take comes in
/// bursts from a few milliseconds to a second long — within one 30 s run
/// the per-second rate of `report-ingest` swung between 5.7 k and 12.4 k
/// requests — and interference only ever slows a window down. So a run's
/// figures are read from its least disturbed windows: the upper decile of
/// the windows' rates, the lower decile of the windows' latency quantiles
/// and of their CPU per request. A change to the product moves those as
/// surely as it moves their medians; a neighbour's burst does not.
///
/// Short windows and an outer decile because of the p99: one hiccup of
/// 2.5 ms spoils the p99 of a 250 ms window, and on a busy host too few
/// such windows stay clean for their lower quartile to be one of them.
pub const WINDOW_NS: u64 = 100_000_000;

/// One answered (or failed) request: when it completed, in nanoseconds
/// since the phase began, and how long it took.
#[derive(Clone, Copy)]
pub struct Sample {
    end_ns: u64,
    latency_ns: u64,
}

impl Sample {
    fn window(self) -> usize {
        (self.end_ns / WINDOW_NS) as usize
    }
}

/// What the clients saw in one phase.
#[derive(Default)]
pub struct Tally {
    /// Every request by class; a failed one counts as the slowest sample
    /// there is, at the read timeout.
    pub samples_by_class: [Vec<Sample>; CLASSES],
    /// Requests sent, by class.
    pub attempted: [u64; CLASSES],
    /// Requests not answered with the expected status, by class.
    pub failed: [u64; CLASSES],
    /// Server on-CPU nanoseconds per window, when the phase sampled them.
    pub server_cpu_ns: Vec<u64>,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read.
    pub bytes_in: u64,
    /// Page replies whose body was not the origin's page. (The prefix rules
    /// swap hosts inside URLs, not whole tags, so the service sends no
    /// `X-Oak-Alternate`; every mirror host is three bytes longer, so the
    /// length tells, and the kept samples are compared byte for byte.)
    pub rewritten: u64,
    /// Every [`VERIFY_EVERY`]-th page reply.
    pub samples: Vec<PageSample>,
}

/// Which end of the windows a figure is read from.
#[derive(Clone, Copy)]
enum Decile {
    Lower,
    Upper,
}

/// The chosen outer decile (nearest rank) of per-window values; 0 without
/// any.
fn decile(mut values: Vec<f64>, which: Decile) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let step = (values.len() - 1) / 10;
    match which {
        Decile::Lower => values[step],
        Decile::Upper => values[values.len() - 1 - step],
    }
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        for class in 0..CLASSES {
            self.samples_by_class[class].extend_from_slice(&other.samples_by_class[class]);
            self.attempted[class] += other.attempted[class];
            self.failed[class] += other.failed[class];
        }
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.rewritten += other.rewritten;
        self.samples.extend(other.samples);
    }

    /// Requests sent, all classes.
    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    /// Requests failed, all classes.
    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    /// Expected-status replies, all classes.
    pub fn total_ok(&self) -> u64 {
        self.total_attempted() - self.total_failed()
    }

    /// How many requests of the workload (probes are not its work) completed
    /// in each of the phase's `windows` whole windows, and when the first
    /// did.
    fn completions_per_window(&self, windows: usize) -> Vec<(usize, Option<u64>)> {
        let mut per_window = vec![(0, None); windows];
        for (class, samples) in self.samples_by_class.iter().enumerate() {
            if class == PAGE_PROBE as usize || class == REPORT_PROBE as usize {
                continue;
            }
            for sample in samples {
                if let Some((count, first)) = per_window.get_mut(sample.window()) {
                    *count += 1;
                    *first = Some(first.map_or(sample.end_ns, |f: u64| f.min(sample.end_ns)));
                }
            }
        }
        per_window
    }

    /// The `q`-quantile of `class` in microseconds — the lower decile,
    /// over the phase's whole windows, of each window's quantile — with the
    /// sample count. Failures are in there as the slowest samples.
    pub fn quantile_us(&self, class: u8, q: f64, phase_len: Duration) -> (f64, usize) {
        let samples = &self.samples_by_class[class as usize];
        let windows = (phase_len.as_nanos() as u64 / WINDOW_NS).max(1) as usize;
        let mut by_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for sample in samples {
            if let Some(window) = by_window.get_mut(sample.window()) {
                window.push(sample.latency_ns);
            }
        }
        let per_window = by_window
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| crate::trace::percentile_ns(w, q) / 1e3)
            .collect();
        (decile(per_window, Decile::Lower), samples.len())
    }

    /// The plain median of `class` over the whole phase, in microseconds,
    /// with the sample count: what the accounting gate compares, since the
    /// spans it is held against are whole-phase medians too.
    pub fn median_us(&self, class: u8) -> (f64, usize) {
        let mut latencies: Vec<u64> = self.samples_by_class[class as usize]
            .iter()
            .map(|s| s.latency_ns)
            .collect();
        let stat = crate::trace::median_us(&mut latencies);
        (stat.value, stat.count)
    }

    /// Answered requests per second: the upper decile of the whole windows'
    /// rates. A window's rate is its completions over the time from its
    /// first completion to the next window's first — whole inter-completion
    /// gaps, so two clients answered in lock-step (the replication group's
    /// ticks) are not read as faster than they are.
    pub fn throughput_rps(&self, phase_len: Duration) -> f64 {
        let windows = (phase_len.as_nanos() as u64 / WINDOW_NS).max(1) as usize;
        let per_window = self.completions_per_window(windows);
        let rates = per_window
            .windows(2)
            .filter_map(|pair| {
                let ((count, first), (_, next)) = (pair[0], pair[1]);
                Some(count as f64 * 1e9 / (next? - first?) as f64)
            })
            .collect();
        decile(rates, Decile::Upper)
    }

    /// Server on-CPU microseconds per request: the lower decile over the
    /// windows that completed any.
    pub fn server_cpu_us_per_req(&self) -> f64 {
        let per_window = self
            .completions_per_window(self.server_cpu_ns.len())
            .iter()
            .zip(&self.server_cpu_ns)
            .filter(|((count, _), _)| *count > 0)
            .map(|((count, _), cpu_ns)| *cpu_ns as f64 / 1e3 / *count as f64)
            .collect();
        decile(per_window, Decile::Lower)
    }
}

/// One phase of load.
pub struct Phase<'a> {
    /// Which stream the clients follow.
    pub workload: Workload,
    /// How long they send for.
    pub duration: Duration,
    /// Where in the stream each client starts; phases use disjoint ranges.
    pub offset: u64,
    /// When set, requests carry their tag, root spans are recorded, and
    /// every [`PROBE_EVERY`]-th request is preceded by a probe.
    pub recorder: Option<&'a Arc<Recorder>>,
    /// Whether to read the server threads' CPU time at every window edge.
    pub sample_cpu: bool,
}

/// Stream offsets of the phases, far enough apart never to meet.
pub const MEASURED: u64 = 0;
/// The discarded warm-up.
pub const WARM_UP: u64 = 1 << 32;
/// The traced window.
pub const TRACED: u64 = 2 << 32;
/// The probe of the request class a workload does not send.
pub const OFF_CLASS: u64 = 3 << 32;

/// Runs the phase's clients to completion and merges what they saw.
pub fn run(addr: SocketAddr, inputs: &Inputs, phase: &Phase<'_>) -> io::Result<Tally> {
    let own_clock = Recorder::new();
    // One clock for latencies, windows and spans alike.
    let clock = phase.recorder.map_or(&own_clock, |r| r.as_ref());
    let started_ns = clock.now_ns();
    let windows = phase.duration.as_nanos() as u64 / WINDOW_NS;
    let (results, server_cpu_ns): (Vec<io::Result<Tally>>, Vec<u64>) =
        std::thread::scope(|scope| {
            let sampler = phase.sample_cpu.then(|| {
                std::thread::Builder::new()
                    .name("bench-cpu-sampler".into())
                    .spawn_scoped(scope, move || {
                        let mut edges = vec![crate::host::server_cpu_ns()];
                        for window in 1..=windows {
                            let due = started_ns + window * WINDOW_NS;
                            std::thread::sleep(Duration::from_nanos(
                                due.saturating_sub(clock.now_ns()),
                            ));
                            edges.push(crate::host::server_cpu_ns());
                        }
                        edges
                            .windows(2)
                            .map(|pair| pair[1].saturating_sub(pair[0]))
                            .collect()
                    })
                    .expect("spawn sampler thread")
            });
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    std::thread::Builder::new()
                        .name(format!("bench-client-{client}"))
                        .spawn_scoped(scope, move || {
                            client_loop(addr, inputs, phase, client, clock, started_ns)
                        })
                        .expect("spawn client thread")
                })
                .collect();
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            let cpu = sampler.map_or_else(Vec::new, |s| s.join().expect("sampler thread panicked"));
            (results, cpu)
        });
    let mut total = Tally {
        server_cpu_ns,
        ..Tally::default()
    };
    for tally in results {
        total.absorb(tally?);
    }
    Ok(total)
}

/// One client's connection, clock and tally.
struct ClientLoop<'a> {
    conn: Conn,
    tally: Tally,
    phase: &'a Phase<'a>,
    clock: &'a Recorder,
    started_ns: u64,
    addr: SocketAddr,
}

fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    phase: &Phase<'_>,
    client: u64,
    clock: &Recorder,
    started_ns: u64,
) -> io::Result<Tally> {
    let mut this = ClientLoop {
        conn: Conn::connect(addr)?,
        tally: Tally::default(),
        phase,
        clock,
        started_ns,
        addr,
    };
    let duration_ns = phase.duration.as_nanos() as u64;
    let mut pages_seen = 0u64;
    let mut probes = 0u64;
    for i in phase.offset.. {
        let req = inputs.request(phase.workload, client, i);
        // A client never leaves a user's GET without the POST that
        // follows it: the engine's last-seen clock would then differ from
        // what the journal replays.
        let mid_pair = phase.workload == Workload::DurableMixed && req.kind.is_report();
        if clock.now_ns() - this.started_ns >= duration_ns && !mid_pair {
            break;
        }
        if phase.recorder.is_some() && i % PROBE_EVERY == 0 {
            // Tagged from a range the stream never reaches.
            probes += 1;
            let tag = trace::request_tag(client, PROBE_TAGS + probes);
            let class = if req.kind.is_report() {
                REPORT_PROBE
            } else {
                PAGE_PROBE
            };
            this.conn.wbuf.clear();
            if let Some(answered) = inputs.write_probe(req, tag, &mut this.conn.wbuf) {
                this.exchange_timed(class, answered, Some(tag))?;
            }
        }
        let (class, expected) = match req.kind {
            Kind::Page => (PAGE, 200),
            Kind::ReportJson | Kind::ReportBinary => (REPORT, 204),
            Kind::Scrape => (SCRAPE, 200),
        };
        let tag = phase.recorder.map(|_| trace::request_tag(client, i));
        this.conn.wbuf.clear();
        inputs.write_request(req, tag, &mut this.conn.wbuf);
        let answered = this.exchange_timed(class, expected, tag)?;
        if let (Some(reply), PAGE) = (answered, class) {
            let body = this.conn.body(&reply);
            let rewritten = body.len() != inputs.page_of(req.user).html.len();
            this.tally.rewritten += u64::from(rewritten);
            pages_seen += 1;
            if pages_seen.is_multiple_of(VERIFY_EVERY) {
                this.tally.samples.push(PageSample {
                    user: req.user,
                    body_hash: fnv(body),
                    rewritten,
                });
            }
        }
    }
    Ok(this.tally)
}

impl ClientLoop<'_> {
    /// Sends the connection's write buffer, times the exchange, records
    /// the root span when tracing, and tallies the outcome. Returns the
    /// reply when it carried the expected status.
    fn exchange_timed(
        &mut self,
        class: u8,
        expected: u16,
        tag: Option<u64>,
    ) -> io::Result<Option<Reply>> {
        let tally = &mut self.tally;
        tally.attempted[class as usize] += 1;
        tally.bytes_out += self.conn.wbuf.len() as u64;
        let start_ns = self.clock.now_ns();
        let reply = self.conn.exchange();
        let end_ns = self.clock.now_ns();
        if let (Some(recorder), Some(tag)) = (self.phase.recorder, tag) {
            recorder.push(Span {
                name: trace::REQUEST,
                id: tag,
                parent: 0,
                req: tag,
                class,
                start_ns,
                end_ns,
            });
        }
        let mut record = |latency_ns: u64| {
            tally.samples_by_class[class as usize].push(Sample {
                end_ns: end_ns - self.started_ns,
                latency_ns,
            });
        };
        match reply {
            Ok(reply) if reply.status == expected => {
                record(end_ns - start_ns);
                tally.bytes_in += reply.bytes as u64;
                Ok(Some(reply))
            }
            Ok(reply) => {
                record(READ_TIMEOUT.as_nanos() as u64);
                tally.failed[class as usize] += 1;
                tally.bytes_in += reply.bytes as u64;
                Ok(None)
            }
            Err(_) => {
                record(READ_TIMEOUT.as_nanos() as u64);
                tally.failed[class as usize] += 1;
                // The connection's framing is lost; start a new one.
                self.conn = Conn::connect(self.addr)?;
                Ok(None)
            }
        }
    }
}

/// POSTs one report per user, split over the clients, so every user is
/// known before anything is timed. Returns how many were not answered
/// 204.
pub fn warm_all_users(addr: SocketAddr, inputs: &Inputs) -> io::Result<u64> {
    let failed: Vec<io::Result<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                std::thread::Builder::new()
                    .name(format!("bench-setup-{client}"))
                    .spawn_scoped(scope, move || {
                        let mut conn = Conn::connect(addr)?;
                        let mut failed = 0;
                        for user in (client as u32..crate::gen::USERS).step_by(CLIENTS as usize) {
                            conn.wbuf.clear();
                            inputs.write_request(inputs.setup_request(user), None, &mut conn.wbuf);
                            if conn.exchange()?.status != 204 {
                                failed += 1;
                            }
                        }
                        Ok(failed)
                    })
                    .expect("spawn set-up thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    failed.into_iter().sum()
}

/// Round trips of `GET /oak/health` on one connection: reactor, worker
/// hand-off and loopback with a near-empty handler. Nanoseconds.
pub fn health_round_trips(addr: SocketAddr, n: usize) -> io::Result<Vec<u64>> {
    let mut conn = Conn::connect(addr)?;
    conn.wbuf
        .extend_from_slice(b"GET /oak/health HTTP/1.1\r\nHost: oak.bench\r\n\r\n");
    let clock = Recorder::new();
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = clock.now_ns();
        if conn.exchange()?.status != 200 {
            return Err(io::Error::other("health probe was not answered 200"));
        }
        samples.push(clock.now_ns() - start);
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deciles_pick_the_outer_tenth() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(decile(values.clone(), Decile::Lower), 10.0);
        assert_eq!(decile(values, Decile::Upper), 91.0);
        assert_eq!(decile(vec![7.0], Decile::Lower), 7.0);
        assert_eq!(decile(Vec::new(), Decile::Upper), 0.0);
    }

    #[test]
    fn lock_step_clients_read_as_their_true_rate() {
        // Two clients answered together on every 20 ms tick: 100 a second.
        let mut tally = Tally::default();
        for tick in 1..=100u64 {
            for _ in 0..2 {
                tally.samples_by_class[REPORT as usize].push(Sample {
                    end_ns: tick * 20_000_000 - 1,
                    latency_ns: 20_000_000,
                });
            }
        }
        let rate = tally.throughput_rps(Duration::from_secs(2));
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        let (p50, n) = tally.quantile_us(REPORT, 0.5, Duration::from_secs(2));
        assert_eq!((p50, n), (20_000.0, 200));
        assert_eq!(tally.median_us(REPORT), (20_000.0, 200));
    }
}
