//! Resilient external-script fetching.
//!
//! Level-3 connection-dependency matching fetches external JavaScript
//! bodies (§4.2.2), which puts third-party hosts on the report-ingest
//! path — and third-party hosts are routinely slow or dead. A naive
//! fetcher lets one hung host stall `ingest_report_from` indefinitely
//! while it holds the engine's state lock, blocking every user. [`ResilientFetcher`] decorates any
//! [`ScriptFetcher`] with the standard defenses:
//!
//! - a **per-attempt deadline**: the inner fetch runs on a helper thread
//!   and is abandoned when the deadline passes, so ingest latency is
//!   bounded no matter what the host does;
//! - **bounded retries** with deterministic, jittered exponential
//!   backoff (jitter is a hash of URL and attempt — reruns replay
//!   identically);
//! - a **negative-result cache** with TTL: a URL that just failed is not
//!   re-fetched on every report;
//! - a **per-host circuit breaker**: after N consecutive failures the
//!   host's circuit opens and fetches are skipped outright; after a
//!   cooldown one half-open probe is let through — success closes the
//!   circuit, failure re-opens it.
//!
//! All decisions use the engine-style [`Instant`] clock the embedder
//! installs, so breaker transitions are testable with a fake clock. The
//! outcomes land in [`FetchStats`], which the Oak service exports under
//! `fetch` in `/oak/stats`. None of this changes engine semantics: a
//! skipped or failed fetch is exactly a [`NoFetch`]-style `None`, which
//! matching already treats as "surface unavailable".
//!
//! [`NoFetch`]: crate::matching::NoFetch
//!
//! [`FlakyFetcher`] is the deterministic counterpart for tests and
//! benches: a scripted schedule of successes, failures, and hangs.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::matching::{url_host, ScriptFetcher};
use crate::Instant;

/// Tuning for [`ResilientFetcher`].
#[derive(Clone, Copy, Debug)]
pub struct FetchPolicy {
    /// Wall-clock budget per fetch attempt; `None` trusts the inner
    /// fetcher to return promptly (no helper thread is spawned).
    pub deadline: Option<Duration>,
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Base backoff between attempts; attempt `k` sleeps
    /// `base · 2^k + jitter(url, k)` where jitter < base.
    pub backoff_base: Duration,
    /// How long (engine-clock ms) a failed URL stays in the negative
    /// cache; 0 disables the cache.
    pub negative_ttl_ms: u64,
    /// Consecutive failures on one host that open its circuit.
    pub breaker_threshold: u32,
    /// How long (engine-clock ms) an open circuit skips fetches before
    /// letting a half-open probe through.
    pub breaker_cooldown_ms: u64,
}

impl Default for FetchPolicy {
    fn default() -> FetchPolicy {
        FetchPolicy {
            deadline: Some(Duration::from_millis(500)),
            retries: 1,
            backoff_base: Duration::from_millis(10),
            negative_ttl_ms: 30_000,
            breaker_threshold: 3,
            breaker_cooldown_ms: 10_000,
        }
    }
}

/// Fetch-outcome counters (atomics; share via [`Arc`]).
#[derive(Debug, Default)]
pub struct FetchStats {
    attempts: AtomicU64,
    successes: AtomicU64,
    failures: AtomicU64,
    timeouts: AtomicU64,
    negative_cache_hits: AtomicU64,
    breaker_open_skips: AtomicU64,
    breaker_opens: AtomicU64,
}

/// A point-in-time copy of [`FetchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchSnapshot {
    /// Individual attempts handed to the inner fetcher.
    pub attempts: u64,
    /// Attempts that returned a script body.
    pub successes: u64,
    /// Attempts that returned nothing (including timeouts).
    pub failures: u64,
    /// Attempts abandoned at the deadline (also counted in `failures`).
    pub timeouts: u64,
    /// Fetches answered `None` straight from the negative cache.
    pub negative_cache_hits: u64,
    /// Fetches skipped because the host's circuit was open.
    pub breaker_open_skips: u64,
    /// Times any host's circuit transitioned closed → open.
    pub breaker_opens: u64,
}

impl FetchStats {
    /// Reads every counter.
    pub fn snapshot(&self) -> FetchSnapshot {
        FetchSnapshot {
            attempts: self.attempts.load(Ordering::Relaxed),
            successes: self.successes.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            negative_cache_hits: self.negative_cache_hits.load(Ordering::Relaxed),
            breaker_open_skips: self.breaker_open_skips.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
        }
    }
}

/// Circuit-breaker bookkeeping for one host.
#[derive(Clone, Copy, Debug, Default)]
struct HostCircuit {
    consecutive_failures: u32,
    /// `Some(t)` while open: opened at `t`; cleared when a probe closes
    /// the circuit.
    opened_at: Option<Instant>,
}

/// What the breaker allows for one fetch.
enum Admission {
    /// Circuit closed: fetch normally.
    Closed,
    /// Circuit open and cooling down: skip.
    Skip,
    /// Cooldown over: this call is the half-open probe.
    Probe,
}

/// The decorator. See the module docs for the state machine.
///
/// The inner fetcher travels in an [`Arc`] because deadline enforcement
/// hands it to a helper thread; a timed-out attempt is abandoned (the
/// thread finishes in the background and its late result is dropped).
pub struct ResilientFetcher {
    inner: Arc<dyn ScriptFetcher + Send + Sync>,
    policy: FetchPolicy,
    clock: Box<dyn Fn() -> Instant + Send + Sync>,
    stats: Arc<FetchStats>,
    /// URL → engine-clock expiry of the remembered failure.
    negative: Mutex<HashMap<String, Instant>>,
    /// Host → breaker state.
    circuits: Mutex<HashMap<String, HostCircuit>>,
    /// Attempt-duration instrumentation: a nanosecond clock (finer than
    /// the engine `Instant` above) and the histogram attempts land in.
    obs: Option<(oak_obs::Clock, Arc<oak_obs::Histogram>)>,
}

/// Bound on remembered failures, mirroring
/// [`crate::matching::CachingFetcher::CAPACITY`]'s stop-admitting policy.
const NEGATIVE_CAPACITY: usize = 4_096;

impl ResilientFetcher {
    /// Wraps `inner` with `policy`, a zero clock, and fresh stats. Call
    /// [`ResilientFetcher::with_clock`] to install a real clock — TTL
    /// and cooldowns never elapse under the zero clock.
    pub fn new(
        inner: impl ScriptFetcher + Send + Sync + 'static,
        policy: FetchPolicy,
    ) -> ResilientFetcher {
        ResilientFetcher {
            inner: Arc::new(inner),
            policy,
            clock: Box::new(|| Instant::ZERO),
            stats: Arc::new(FetchStats::default()),
            negative: Mutex::new(HashMap::new()),
            circuits: Mutex::new(HashMap::new()),
            obs: None,
        }
    }

    /// Installs the clock that drives TTLs and breaker cooldowns (wall
    /// time in deployments, a fake clock in tests).
    pub fn with_clock(
        mut self,
        clock: impl Fn() -> Instant + Send + Sync + 'static,
    ) -> ResilientFetcher {
        self.clock = Box::new(clock);
        self
    }

    /// Installs attempt-duration instrumentation: each inner fetch
    /// attempt's wall time (measured with `clock`, nanoseconds) is
    /// recorded into `histogram` in microseconds.
    pub fn with_obs(
        mut self,
        clock: oak_obs::Clock,
        histogram: Arc<oak_obs::Histogram>,
    ) -> ResilientFetcher {
        self.obs = Some((clock, histogram));
        self
    }

    /// The shared counters (hand a clone to whatever renders stats).
    pub fn stats_handle(&self) -> Arc<FetchStats> {
        Arc::clone(&self.stats)
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> FetchSnapshot {
        self.stats.snapshot()
    }

    /// True while `host`'s circuit is open (including a pending probe).
    pub fn circuit_open(&self, host: &str) -> bool {
        self.circuits
            .lock()
            .expect("circuit lock")
            .get(host)
            .is_some_and(|c| c.opened_at.is_some())
    }

    /// Consults the breaker for `host` at time `now`.
    fn admit(&self, host: &str, now: Instant) -> Admission {
        let mut circuits = self.circuits.lock().expect("circuit lock");
        let circuit = circuits.entry(host.to_owned()).or_default();
        match circuit.opened_at {
            None => Admission::Closed,
            Some(opened) if now.since(opened) < self.policy.breaker_cooldown_ms => Admission::Skip,
            Some(_) => Admission::Probe,
        }
    }

    /// Records an attempt outcome against `host`'s circuit.
    fn record(&self, host: &str, now: Instant, success: bool) {
        let mut circuits = self.circuits.lock().expect("circuit lock");
        let circuit = circuits.entry(host.to_owned()).or_default();
        if success {
            *circuit = HostCircuit::default();
            return;
        }
        circuit.consecutive_failures += 1;
        let newly_open = circuit.opened_at.is_none()
            && circuit.consecutive_failures >= self.policy.breaker_threshold;
        if newly_open {
            self.stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        if newly_open || circuit.opened_at.is_some() {
            // Opening, or a failed half-open probe: (re)start the cooldown.
            circuit.opened_at = Some(now);
        }
    }

    /// One attempt against the inner fetcher, deadline enforced.
    fn attempt(&self, url: &str) -> Option<String> {
        self.stats.attempts.fetch_add(1, Ordering::Relaxed);
        let _span = oak_obs::span("fetch");
        let start = self.obs.as_ref().map(|(clock, _)| clock());
        let result = match self.policy.deadline {
            None => self.inner.fetch_script(url),
            Some(deadline) => {
                let (tx, rx) = std::sync::mpsc::channel();
                let inner = Arc::clone(&self.inner);
                let url = url.to_owned();
                // A fetch that outlives its deadline finishes on this
                // thread unawaited. One that cannot be spawned drops
                // `tx`, which ends the wait at once as a timeout.
                let _ = std::thread::Builder::new()
                    .name("oak-fetch".into())
                    .spawn(move || {
                        let _ = tx.send(inner.fetch_script(&url));
                    });
                match rx.recv_timeout(deadline) {
                    Ok(result) => result,
                    Err(_) => {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            }
        };
        match &result {
            Some(_) => self.stats.successes.fetch_add(1, Ordering::Relaxed),
            None => self.stats.failures.fetch_add(1, Ordering::Relaxed),
        };
        if let (Some((clock, histogram)), Some(start)) = (&self.obs, start) {
            histogram.record(oak_obs::elapsed_us(start, clock()));
        }
        result
    }

    /// Deterministic backoff before retry attempt `k` (k ≥ 1).
    fn backoff(&self, url: &str, attempt: u32) -> Duration {
        let base = self.policy.backoff_base;
        if base.is_zero() {
            return base;
        }
        let exp = base.saturating_mul(1 << attempt.min(6));
        let jitter_ms = fnv1a(url.as_bytes(), attempt) % (base.as_millis().max(1) as u64);
        exp + Duration::from_millis(jitter_ms)
    }

    fn remember_failure(&self, url: &str, now: Instant) {
        if self.policy.negative_ttl_ms == 0 {
            return;
        }
        let mut negative = self.negative.lock().expect("negative cache lock");
        if negative.len() >= NEGATIVE_CAPACITY {
            // Cheap pressure valve: drop expired entries; if everything
            // is still live, stop admitting rather than evict.
            negative.retain(|_, expiry| *expiry > now);
            if negative.len() >= NEGATIVE_CAPACITY {
                return;
            }
        }
        negative.insert(url.to_owned(), now + self.policy.negative_ttl_ms);
    }

    fn failure_remembered(&self, url: &str, now: Instant) -> bool {
        let mut negative = self.negative.lock().expect("negative cache lock");
        match negative.get(url) {
            Some(expiry) if now < *expiry => true,
            Some(_) => {
                negative.remove(url);
                false
            }
            None => false,
        }
    }
}

impl ScriptFetcher for ResilientFetcher {
    fn fetch_script(&self, url: &str) -> Option<String> {
        let now = (self.clock)();
        if self.failure_remembered(url, now) {
            self.stats
                .negative_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Relative URLs have no host to break on; attempt them directly.
        let host = url_host(url).unwrap_or_default();
        match self.admit(&host, now) {
            Admission::Skip => {
                self.stats
                    .breaker_open_skips
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Admission::Probe => {
                // Exactly one attempt, no retries: the probe either heals
                // the circuit or re-arms the cooldown.
                let result = self.attempt(url);
                self.record(&host, now, result.is_some());
                if result.is_none() {
                    self.remember_failure(url, now);
                }
                return result;
            }
            Admission::Closed => {}
        }
        let mut attempt_index = 0;
        loop {
            let result = self.attempt(url);
            self.record(&host, now, result.is_some());
            if result.is_some() {
                return result;
            }
            if attempt_index >= self.policy.retries || self.circuit_open(&host) {
                self.remember_failure(url, now);
                return None;
            }
            attempt_index += 1;
            std::thread::sleep(self.backoff(url, attempt_index));
        }
    }
}

/// FNV-1a over the URL plus the attempt counter — the deterministic
/// jitter source (same URL + attempt ⇒ same jitter, different URLs
/// de-synchronize).
fn fnv1a(bytes: &[u8], seed: u32) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.iter().chain(seed.to_le_bytes().iter()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One step of a [`FlakyFetcher`] script.
#[derive(Clone, Debug)]
pub enum FetchStep {
    /// Return this body.
    Ok(String),
    /// Return `None` immediately.
    Fail,
    /// Sleep this long, then return `None` — a hanging host. Combined
    /// with a [`ResilientFetcher`] deadline shorter than the hang, this
    /// exercises the timeout path.
    Hang(Duration),
}

/// A [`ScriptFetcher`] that follows a script, for deterministic
/// resilience tests and benches. Steps are consumed in order; when the
/// script runs out, every further fetch repeats the final step (an empty
/// script always fails).
pub struct FlakyFetcher {
    script: Mutex<VecDeque<FetchStep>>,
    last: Mutex<FetchStep>,
    calls: AtomicU64,
}

impl FlakyFetcher {
    /// A fetcher that will follow `script`.
    pub fn new(script: impl IntoIterator<Item = FetchStep>) -> FlakyFetcher {
        FlakyFetcher {
            script: Mutex::new(script.into_iter().collect()),
            last: Mutex::new(FetchStep::Fail),
            calls: AtomicU64::new(0),
        }
    }

    /// How many fetches have been asked of this fetcher.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl ScriptFetcher for FlakyFetcher {
    fn fetch_script(&self, _url: &str) -> Option<String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let step = match self.script.lock().expect("flaky script lock").pop_front() {
            Some(step) => {
                *self.last.lock().expect("flaky last lock") = step.clone();
                step
            }
            None => self.last.lock().expect("flaky last lock").clone(),
        };
        match step {
            FetchStep::Ok(body) => Some(body),
            FetchStep::Fail => None,
            FetchStep::Hang(how_long) => {
                std::thread::sleep(how_long);
                None
            }
        }
    }
}
