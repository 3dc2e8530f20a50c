//! Spans recorded from the benchmark's own seams.
//!
//! Nothing inside the product is instrumented: the client opens the root
//! `request` span, and bench-owned wrappers around the handler, the event
//! sink and the cluster status source open the spans below it. Spans live
//! in memory and are written out when the run ends.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root span name; the client records it.
pub const REQUEST: &str = "request";
/// The wrapper around `OakService::handle`.
pub const HANDLE: &str = "oak-server.handle";
/// The tee in front of `OakStore::record`.
pub const APPEND: &str = "oak-store.append";
/// The wrapper around `ClusterRuntime::wait_for_commit`.
pub const COMMIT_WAIT: &str = "oak-cluster.commit_wait";

/// Request classes, as spans and latency tallies carry them.
pub const PAGE: u8 = 0;
/// A report POST.
pub const REPORT: u8 = 1;
/// A metrics scrape.
pub const SCRAPE: u8 = 2;
/// A page-shaped probe slipped into the traced window: the edge and codec
/// under the workload's own load, with none of the page's work.
pub const PAGE_PROBE: u8 = 3;
/// A report-shaped probe, likewise.
pub const REPORT_PROBE: u8 = 4;
/// Request classes.
pub const CLASSES: usize = 5;

/// Ids at or above this are client request tags; ids the recorder hands
/// out stay below it.
const TAG_BASE: u64 = 1 << 48;

/// The id of the root span of client `client`'s `i`-th request, also sent
/// to the server as `X-Bench-Req`.
pub fn request_tag(client: u64, i: u64) -> u64 {
    TAG_BASE | (client << 40) | i
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which seam recorded it.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The client request all spans of one request share.
    pub req: u64,
    /// [`PAGE`], [`REPORT`], [`SCRAPE`], [`PAGE_PROBE`] or [`REPORT_PROBE`].
    pub class: u8,
    /// Nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// The span the current thread is inside: `(id, req, class)`.
    static CURRENT: Cell<Option<(u64, u64, u8)>> = const { Cell::new(None) };
}

/// Collects spans from every thread; off until [`Recorder::set_enabled`].
pub struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that records nothing yet.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            shards: (0..16).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Turns recording on or off for every seam at once.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether seams should record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        // Spread threads over shards by the id they were handed, so two
        // workers rarely meet on one lock.
        let shard = &self.shards[(span.id % self.shards.len() as u64) as usize];
        shard.lock().expect("span shard lock").push(span);
    }

    /// Runs `f` as the server-side span of request `req`, child of the
    /// client's root span, and makes it the thread's current span.
    pub fn under_request<T>(
        &self,
        name: &'static str,
        req: u64,
        class: u8,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let previous = CURRENT.with(|c| c.replace(Some((id, req, class))));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(previous));
        self.push(Span {
            name,
            id,
            parent: req,
            req,
            class,
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs `f` as a child of the thread's current span; without one (set-up
    /// traffic, or recording off) just runs it.
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some((parent, req, class)) = CURRENT.with(Cell::get).filter(|_| self.enabled()) else {
            return f();
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            id,
            parent,
            req,
            class,
            start_ns,
            end_ns,
        });
        out
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("span shard lock"));
        }
        all
    }
}

/// Checks that parent links form a forest rooted at `request` spans: every
/// root is a `request`, every other span's parent exists and belongs to
/// the same request, and no chain of parents loops.
pub fn check_forest(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("span ids are not unique".into());
    }
    for span in spans {
        let mut at = span;
        let mut seen = HashSet::new();
        while at.parent != 0 {
            if !seen.insert(at.id) {
                return Err(format!("span {} is on a parent cycle", span.id));
            }
            let Some(parent) = by_id.get(&at.parent) else {
                return Err(format!(
                    "{} span {} names parent {} which was not recorded",
                    at.name, at.id, at.parent
                ));
            };
            if parent.req != at.req {
                return Err(format!("span {} crosses requests", at.id));
            }
            at = parent;
        }
        if at.name != REQUEST {
            return Err(format!(
                "root span {} is a {}, not a request",
                at.id, at.name
            ));
        }
    }
    Ok(())
}

/// Writes the spans as one JSON array.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"class\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.name, s.id, s.parent, s.req, s.class, s.start_ns, s.end_ns
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

/// A median with the number of samples behind it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    /// The median, in the caller's unit; 0 with no samples.
    pub value: f64,
    /// Samples.
    pub count: usize,
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples: &mut [u64]) -> Stat {
    Stat {
        value: percentile_ns(samples, 0.5) / 1e3,
        count: samples.len(),
    }
}

/// The `q`-quantile (nearest rank) of nanosecond samples, in nanoseconds;
/// sorts `samples`.
pub fn percentile_ns(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Per-name, per-class durations out of a span set, with self times.
pub struct SpanTimes {
    durations: HashMap<(&'static str, u8), Vec<u64>>,
    self_times: HashMap<(&'static str, u8), Vec<u64>>,
}

impl SpanTimes {
    /// Groups `spans`; a span's self time is its duration minus its
    /// children's.
    pub fn of(spans: &[Span]) -> SpanTimes {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(span.parent).or_default() += span.duration_ns();
        }
        let mut durations: HashMap<(&'static str, u8), Vec<u64>> = HashMap::new();
        let mut self_times: HashMap<(&'static str, u8), Vec<u64>> = HashMap::new();
        for span in spans {
            let key = (span.name, span.class);
            durations.entry(key).or_default().push(span.duration_ns());
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            self_times
                .entry(key)
                .or_default()
                .push(span.duration_ns().saturating_sub(children));
        }
        SpanTimes {
            durations,
            self_times,
        }
    }

    /// Median duration of `name` spans of `class`, in microseconds.
    pub fn median_us(&mut self, name: &'static str, class: u8) -> Stat {
        self.durations
            .get_mut(&(name, class))
            .map_or_else(Stat::default, |v| median_us(v))
    }

    /// Median self time of `name` spans of `class`, in microseconds.
    pub fn self_median_us(&mut self, name: &'static str, class: u8) -> Stat {
        self.self_times
            .get_mut(&(name, class))
            .map_or_else(Stat::default, |v| median_us(v))
    }

    /// Median duration of `name` spans over every class.
    pub fn median_us_any(&mut self, name: &'static str) -> Stat {
        let mut all: Vec<u64> = self
            .durations
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        median_us(&mut all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, req: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req,
            class: PAGE,
            start_ns: 0,
            end_ns: 10,
        }
    }

    #[test]
    fn forest_check_accepts_trees_and_names_what_is_wrong() {
        let tag = request_tag(0, 1);
        let good = [
            span(REQUEST, tag, 0, tag),
            span(HANDLE, 1, tag, tag),
            span(APPEND, 2, 1, tag),
        ];
        assert!(check_forest(&good).is_ok());
        let orphan = [span(HANDLE, 1, tag, tag)];
        assert!(check_forest(&orphan).unwrap_err().contains("not recorded"));
        let wrong_root = [span(HANDLE, 1, 0, tag)];
        assert!(check_forest(&wrong_root)
            .unwrap_err()
            .contains("not a request"));
        let cycle = [span(HANDLE, 1, 2, tag), span(APPEND, 2, 1, tag)];
        assert!(check_forest(&cycle).unwrap_err().contains("cycle"));
    }

    #[test]
    fn self_time_subtracts_children() {
        let tag = request_tag(1, 9);
        let mut parent = span(HANDLE, 1, tag, tag);
        parent.end_ns = 100;
        let mut child = span(APPEND, 2, 1, tag);
        child.end_ns = 30;
        let mut root = span(REQUEST, tag, 0, tag);
        root.end_ns = 150;
        let mut times = SpanTimes::of(&[root, parent, child]);
        assert_eq!(times.median_us(HANDLE, PAGE).value, 0.1);
        assert_eq!(times.self_median_us(HANDLE, PAGE).value, 0.07);
        assert_eq!(times.median_us(APPEND, PAGE).count, 1);
    }
}
