//! Deterministic inputs: pages, rules, report bodies and the request
//! stream, all from `--seed`.
//!
//! The generator owns its encoders (JSON and `application/x-oak-report`)
//! on purpose: a change to the product's own client-side encoders must
//! not change the bytes this benchmark sends, or parent and change would
//! be measured on different inputs.
//!
//! Report times are *structured*, not merely random, because the
//! detector is a within-report MAD test: independent jitter on ten
//! servers flags some healthy server in most reports, and then nearly
//! every user would carry an active rule. Each server's factor sits at
//! `1 ± (0.07..0.08)` with signs balanced inside each test population
//! (servers with small objects; servers with large objects), which keeps
//! every healthy server inside `median ± 2·MAD` with margin. An
//! even-numbered user's report then multiplies one provider's times by
//! ten, which the test flags alone.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;

use oak_core::report::PerfReport;
use oak_core::rule::Rule;
use oak_net::StatelessRng;
use oak_webgen::{Corpus, CorpusConfig, Inclusion};

use crate::Workload;

/// Sites in the corpus, and so pages served under `/p/<n>`.
pub const PAGES: usize = 32;
/// Sites generated per page served.
const OVERSAMPLE: usize = 16;
/// Object counts of the pages served: `SMALLEST_SITE * SITE_GROWTH^k`,
/// 12 up to 130.
const SMALLEST_SITE: f64 = 12.0;
const SITE_GROWTH: f64 = 1.0799;
/// Users `u-0 .. u-<USERS-1>`. The issue sized 20,000 for 30 s windows;
/// the driver's time cap leaves 10 s windows and three set-ups per run, so
/// the pool is scaled with the window and each user is still asked for
/// about as often.
pub const USERS: u32 = 6_000;
/// One `GET /oak/metrics` after every this many requests (so many GET/POST
/// pairs, whole) of a `durable-mixed` client.
const SCRAPE_EVERY: u64 = 1_000;
/// Where page-shaped probes fetch their object.
pub const PROBE_OBJECT_PATH: &str = "/bench/probe.bin";
/// Where report-shaped probes POST; the service knows no such path.
pub const PROBE_POST_PATH: &str = "/bench/probe";
/// Requests the stream hash and the layer replay cover.
pub const STREAM_PREFIX: u64 = 20_000;
/// The paper's small/large object split (§4.2), which decides whether an
/// object's time or its throughput is tested.
const SIZE_SPLIT: u64 = 50_000;
/// What a healthy server takes for a small object, before its factor.
const SMALL_MS: f64 = 80.0;
/// What a healthy server delivers on a large object, before its factor.
const LARGE_KBPS: f64 = 4_000.0;
/// How much slower the degraded provider of an even user's report is.
const SLOW_FACTOR: f64 = 10.0;

/// One object of a page as a report carries it, with everything but the
/// time already encoded.
struct Entry {
    /// `{"url":"…","ip":"…","bytes":N,"time_ms":` — the time and `}` follow.
    json_prefix: Vec<u8>,
    /// The binary entry up to, not including, the `f64le` time.
    bin_prefix: Vec<u8>,
    /// Index into the page's server list.
    server: usize,
    bytes: u64,
}

/// One corpus site as the benchmark serves and reports it.
pub struct Page {
    /// `/p/<n>`.
    pub path: String,
    /// The page as the origin serves it.
    pub html: String,
    entries: Vec<Entry>,
    /// Where each server stands in the small-object population, if it has
    /// small objects; likewise for large ones.
    small_rank: Vec<Option<usize>>,
    large_rank: Vec<Option<usize>>,
    small_population: usize,
    large_population: usize,
    /// The provider an even user's report degrades: its server index and
    /// hostname. `None` when no provider of the page is both referenced by
    /// a `src` attribute and in a population of three or more.
    pub slow: Option<(usize, String)>,
}

/// What a client is asked to send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `GET /p/<n>` with the user's cookie.
    Page,
    /// `POST /oak/report`, JSON body.
    ReportJson,
    /// `POST /oak/report`, `application/x-oak-report` body.
    ReportBinary,
    /// `GET /oak/metrics`.
    Scrape,
}

impl Kind {
    /// Whether this is a report POST of either encoding.
    pub fn is_report(self) -> bool {
        matches!(self, Kind::ReportJson | Kind::ReportBinary)
    }
}

/// One request of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// What to send.
    pub kind: Kind,
    /// The user it is sent for.
    pub user: u32,
}

/// Everything the benchmark derives from the seed.
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// The pages, `/p/0 .. /p/31`.
    pub pages: Vec<Page>,
    /// One type-2 rule per provider hostname the pages name.
    pub rules: Vec<Rule>,
}

impl Inputs {
    /// Generates the corpus and derives pages and rules from it.
    pub fn generate(seed: u64) -> Inputs {
        let corpus = Corpus::generate(&CorpusConfig {
            sites: PAGES * OVERSAMPLE,
            seed,
            ..CorpusConfig::default()
        });
        // Site sizes are heavy-tailed (a dozen to 160 objects): 32 sites
        // drawn outright differ by a sixth in mean report size from seed to
        // seed, and every per-request cost with them. So each seed's pages
        // are a fresh draw, but to one size profile: of a corpus sixteen
        // times as large (about the paper's 500 sites), the site nearest in
        // object count to each step of a fixed geometric ladder with the
        // corpus's own median (about 40) and mean (about 50).
        let mut unused: Vec<&oak_webgen::Site> = corpus.sites.iter().collect();
        unused.sort_by_key(|site| (site.objects.len(), site.host.clone()));
        let mut chosen: Vec<&oak_webgen::Site> = Vec::with_capacity(PAGES);
        for step in 0..PAGES {
            let target = (SMALLEST_SITE * SITE_GROWTH.powi(step as i32)).round() as usize;
            let nearest = (0..unused.len())
                .min_by_key(|&at| unused[at].objects.len().abs_diff(target))
                .expect("the corpus outnumbers the pages");
            chosen.push(unused.remove(nearest));
        }
        let mut domains: BTreeSet<String> = BTreeSet::new();
        let pages: Vec<Page> = chosen
            .into_iter()
            .enumerate()
            .map(|(index, site)| {
                for object in site.objects.iter().filter(|o| o.external) {
                    domains.insert(object.domain.clone());
                }
                build_page(seed, index, site)
            })
            .collect();
        let rules = domains
            .iter()
            .map(|d| {
                Rule::replace_identical(
                    format!("http://{d}/"),
                    [format!("http://m1.{d}/"), format!("http://m2.{d}/")],
                )
            })
            .collect();
        Inputs { seed, pages, rules }
    }

    /// The page a user visits and reports on.
    pub fn page_of(&self, user: u32) -> &Page {
        &self.pages[user as usize % PAGES]
    }

    /// Whether `user`'s report degrades a provider (and so, after set-up,
    /// whether the user's pages are rewritten).
    pub fn is_degraded(&self, user: u32) -> bool {
        user.is_multiple_of(2) && self.page_of(user).slow.is_some()
    }

    /// The `i`-th request of client `client` on `workload`.
    pub fn request(&self, workload: Workload, client: u64, i: u64) -> Req {
        let draw = |n: u64| StatelessRng::keyed(self.seed, &[0x5e9, client, n]).below(USERS as u64);
        match workload {
            Workload::PageServe => Req {
                kind: Kind::Page,
                user: draw(i) as u32,
            },
            Workload::ReportIngest => Req {
                kind: if i.is_multiple_of(2) {
                    Kind::ReportJson
                } else {
                    Kind::ReportBinary
                },
                user: draw(i) as u32,
            },
            Workload::ReplicatedIngest => Req {
                kind: Kind::ReportJson,
                user: draw(i) as u32,
            },
            Workload::DurableMixed => {
                // Scrapes sit between pairs, never between a GET and its
                // POST.
                if i % (SCRAPE_EVERY + 1) == SCRAPE_EVERY {
                    return Req {
                        kind: Kind::Scrape,
                        user: 0,
                    };
                }
                // The GET and the POST of one pair go to the same user.
                let j = i - i / (SCRAPE_EVERY + 1);
                Req {
                    kind: if j.is_multiple_of(2) {
                        Kind::Page
                    } else {
                        Kind::ReportJson
                    },
                    user: draw(j / 2) as u32,
                }
            }
        }
    }

    /// The set-up request for `user`: the report that makes the user known
    /// to the engine.
    pub fn setup_request(&self, user: u32) -> Req {
        Req {
            kind: Kind::ReportJson,
            user,
        }
    }

    /// Appends the wire bytes of `req` to `out`. `tag`, when given, is sent
    /// as `X-Bench-Req` so the traced server can tie its spans to the
    /// client's.
    pub fn write_request(&self, req: Req, tag: Option<u64>, out: &mut Vec<u8>) {
        let target = match req.kind {
            Kind::Scrape => "/oak/metrics",
            Kind::Page => &self.page_of(req.user).path,
            Kind::ReportJson | Kind::ReportBinary => "/oak/report",
        };
        self.write_to(target, req, tag, out);
    }

    /// A request shaped like `req` — same headers, same body, a response as
    /// large as the median page for a GET — that the service answers without
    /// doing any of `req`'s work: a GET of a stored object, or a POST to a
    /// path it answers 405. What the edge and the HTTP codec cost a request
    /// of this shape, and nothing else. `None` for a scrape.
    pub fn write_probe(&self, req: Req, tag: u64, out: &mut Vec<u8>) -> Option<u16> {
        let (target, answered) = match req.kind {
            Kind::Scrape => return None,
            Kind::Page => (PROBE_OBJECT_PATH, 200),
            Kind::ReportJson | Kind::ReportBinary => (PROBE_POST_PATH, 405),
        };
        self.write_to(target, req, Some(tag), out);
        Some(answered)
    }

    /// The body of the object page-shaped probes fetch: as long as the
    /// median page.
    pub fn probe_object(&self) -> Vec<u8> {
        let mut lengths: Vec<usize> = self.pages.iter().map(|p| p.html.len()).collect();
        lengths.sort_unstable();
        vec![b'x'; lengths[lengths.len() / 2]]
    }

    fn write_to(&self, target: &str, req: Req, tag: Option<u64>, out: &mut Vec<u8>) {
        let user = req.user;
        let mut body = Vec::new();
        if req.kind == Kind::Scrape {
            write!(out, "GET {target} HTTP/1.1\r\nHost: oak.bench\r\n").expect("write to Vec");
        } else if req.kind == Kind::Page {
            write!(
                out,
                "GET {target} HTTP/1.1\r\nHost: oak.bench\r\nCookie: oak_uid=u-{user}\r\n"
            )
            .expect("write to Vec");
        } else {
            let binary = req.kind == Kind::ReportBinary;
            body.reserve(8 * 1024);
            self.write_report_body(user, binary, &mut body);
            write!(
                out,
                "POST {target} HTTP/1.1\r\nHost: oak.bench\r\nCookie: oak_uid=u-{user}\r\n\
                 Content-Type: {}\r\nContent-Length: {}\r\n",
                if binary {
                    "application/x-oak-report"
                } else {
                    "application/json"
                },
                body.len()
            )
            .expect("write to Vec");
        }
        if let Some(tag) = tag {
            write!(out, "X-Bench-Req: {tag}\r\n").expect("write to Vec");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&body);
    }

    /// Appends `user`'s report body in the chosen encoding.
    pub fn write_report_body(&self, user: u32, binary: bool, out: &mut Vec<u8>) {
        let page = self.page_of(user);
        let slow = if self.is_degraded(user) {
            page.slow.as_ref().map(|(server, _)| *server)
        } else {
            None
        };
        let factors: Vec<(f64, f64)> = (0..page.small_rank.len())
            .map(|server| {
                let scale = if slow == Some(server) {
                    SLOW_FACTOR
                } else {
                    1.0
                };
                let small = balanced_factor(
                    self.seed,
                    user,
                    server,
                    0,
                    page.small_rank[server],
                    page.small_population,
                );
                let large = balanced_factor(
                    self.seed,
                    user,
                    server,
                    1,
                    page.large_rank[server],
                    page.large_population,
                );
                // A slower server takes longer on small objects and
                // delivers less on large ones.
                (small * scale, large / scale)
            })
            .collect();
        let time_ms = |entry: &Entry| {
            let (small, large) = factors[entry.server];
            if entry.bytes < SIZE_SPLIT {
                SMALL_MS * small
            } else {
                entry.bytes as f64 * 8.0 / (LARGE_KBPS * large)
            }
        };
        if binary {
            out.push(0x01);
            put_str(out, format!("u-{user}").as_bytes());
            put_str(out, page.path.as_bytes());
            put_varint(out, page.entries.len() as u64);
            for entry in &page.entries {
                out.extend_from_slice(&entry.bin_prefix);
                out.extend_from_slice(&time_ms(entry).to_le_bytes());
            }
        } else {
            write!(
                out,
                "{{\"user\":\"u-{user}\",\"page\":\"{}\",\"entries\":[",
                page.path
            )
            .expect("write to Vec");
            for (i, entry) in page.entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(&entry.json_prefix);
                write!(out, "{:.3}}}", time_ms(entry)).expect("write to Vec");
            }
            out.extend_from_slice(b"]}");
        }
    }

    /// `user`'s report as the service decodes it from its JSON body, which is
    /// left in `scratch`.
    pub fn report_of(&self, user: u32, scratch: &mut Vec<u8>) -> PerfReport {
        scratch.clear();
        self.write_report_body(user, false, scratch);
        PerfReport::from_json_bytes(scratch).expect("generated reports decode")
    }

    /// FNV-1a over the wire bytes of the first [`STREAM_PREFIX`] requests of
    /// `workload`, the two clients' streams interleaved. Two runs with the
    /// same seed must print the same value.
    pub fn stream_hash(&self, workload: Workload) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut buf = Vec::with_capacity(16 * 1024);
        for g in 0..STREAM_PREFIX {
            buf.clear();
            self.write_request(self.request(workload, g % 2, g / 2), None, &mut buf);
            hash = fnv1a(hash, &buf);
        }
        hash
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a of `bytes` from the standard offset.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// A healthy server's factor for one test: `1 ± (0.07..0.08)`, signs
/// alternating by rank so each population is balanced, and exactly 1 for
/// the odd one out. Servers outside the population get 1 (unused).
fn balanced_factor(
    seed: u64,
    user: u32,
    server: usize,
    class: u64,
    rank: Option<usize>,
    population: usize,
) -> f64 {
    let Some(rank) = rank else { return 1.0 };
    if population % 2 == 1 && rank == population - 1 {
        return 1.0;
    }
    let magnitude = 0.07
        + 0.01
            * StatelessRng::keyed(seed, &[0xfac, u64::from(user), server as u64, class]).next_f64();
    // Which half is slow flips with the user, so no server is always the
    // slower one.
    if (rank + user as usize / 2).is_multiple_of(2) {
        1.0 + magnitude
    } else {
        1.0 - magnitude
    }
}

fn build_page(seed: u64, index: usize, site: &oak_webgen::Site) -> Page {
    let path = format!("/p/{index}");
    let mut server_ids: BTreeMap<u32, usize> = BTreeMap::new();
    for object in &site.objects {
        let next = server_ids.len();
        server_ids.entry(object.server.0).or_insert(next);
    }
    let servers = server_ids.len();
    let mut has_small = vec![false; servers];
    let mut has_large = vec![false; servers];
    let entries: Vec<Entry> = site
        .objects
        .iter()
        .map(|object| {
            let server = server_ids[&object.server.0];
            if object.bytes < SIZE_SPLIT {
                has_small[server] = true;
            } else {
                has_large[server] = true;
            }
            let id = object.server.0;
            let ip = format!("198.18.{}.{}", (id >> 8) & 0xff, id & 0xff);
            let mut bin_prefix = Vec::new();
            put_str(&mut bin_prefix, object.url.as_bytes());
            put_str(&mut bin_prefix, ip.as_bytes());
            put_varint(&mut bin_prefix, object.bytes);
            Entry {
                json_prefix: format!(
                    "{{\"url\":\"{}\",\"ip\":\"{ip}\",\"bytes\":{},\"time_ms\":",
                    object.url, object.bytes
                )
                .into_bytes(),
                bin_prefix,
                server,
                bytes: object.bytes,
            }
        })
        .collect();
    let rank = |has: &[bool]| -> (Vec<Option<usize>>, usize) {
        let mut next = 0;
        let ranks = has
            .iter()
            .map(|&h| {
                h.then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        (ranks, next)
    };
    let (small_rank, small_population) = rank(&has_small);
    let (large_rank, large_population) = rank(&has_large);

    // Candidates for the degraded provider: its rule text must occur in
    // the page (so activation shows as a rewrite), and a MAD over fewer
    // than three servers cannot single one out.
    let mut candidates: BTreeMap<String, usize> = BTreeMap::new();
    for object in &site.objects {
        let server = server_ids[&object.server.0];
        let testable = (has_small[server] && small_population >= 3)
            || (has_large[server] && large_population >= 3);
        if object.external
            && matches!(object.inclusion, Inclusion::SrcAttr)
            && testable
            && site.html.contains(&format!("http://{}/", object.domain))
        {
            candidates.insert(object.domain.clone(), server);
        }
    }
    let slow = (!candidates.is_empty()).then(|| {
        let pick = StatelessRng::keyed(seed, &[0x510, index as u64]).below(candidates.len() as u64);
        let (domain, server) = candidates.iter().nth(pick as usize).expect("pick < len");
        (*server, domain.clone())
    });
    Page {
        path,
        html: site.html.clone(),
        entries,
        small_rank,
        large_rank,
        small_population,
        large_population,
        slow,
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use oak_core::analysis::PageAnalysis;
    use oak_core::detect::{detect_violators, DetectorConfig};

    #[test]
    fn same_seed_same_stream_and_another_seed_another() {
        let a = Inputs::generate(7);
        let b = Inputs::generate(7);
        let c = Inputs::generate(8);
        for workload in Workload::ALL {
            assert_eq!(a.stream_hash(workload), b.stream_hash(workload));
            assert_ne!(a.stream_hash(workload), c.stream_hash(workload));
        }
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let req = a.request(Workload::DurableMixed, 1, i);
            assert_eq!(req, b.request(Workload::DurableMixed, 1, i));
            a.write_request(req, None, &mut x);
            b.write_request(req, None, &mut y);
        }
        assert_eq!(x, y);
    }

    #[test]
    fn both_encodings_decode_to_the_same_report() {
        let inputs = Inputs::generate(3);
        for user in [0u32, 1, 62, 63, USERS - 1] {
            let mut json = Vec::new();
            let mut binary = Vec::new();
            inputs.write_report_body(user, false, &mut json);
            inputs.write_report_body(user, true, &mut binary);
            let from_json = PerfReport::from_json_bytes(&json).expect("json decodes");
            let from_binary = PerfReport::from_binary(&binary).expect("binary decodes");
            assert_eq!(from_json.user, format!("u-{user}"));
            assert_eq!(from_json.user, from_binary.user);
            assert_eq!(from_json.page, from_binary.page);
            assert_eq!(from_json.entries.len(), from_binary.entries.len());
            for (a, b) in from_json.entries.iter().zip(&from_binary.entries) {
                assert_eq!((&a.url, &a.ip, a.bytes), (&b.url, &b.ip, b.bytes));
                // JSON carries three decimals.
                assert!((a.time_ms - b.time_ms).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn healthy_reports_flag_nothing_and_degraded_ones_flag_their_provider() {
        for seed in [1u64, 2, 3, 42, 1234] {
            let inputs = Inputs::generate(seed);
            let with_slow = inputs.pages.iter().filter(|p| p.slow.is_some()).count();
            assert!(
                with_slow * 10 >= PAGES * 9,
                "seed {seed}: {with_slow} pages"
            );
            for user in 0..(4 * PAGES as u32) {
                let mut body = Vec::new();
                inputs.write_report_body(user, false, &mut body);
                let report = PerfReport::from_json_bytes(&body).expect("decodes");
                let violations = detect_violators(
                    &PageAnalysis::from_report(&report),
                    &DetectorConfig::default(),
                );
                if inputs.is_degraded(user) {
                    let (_, domain) = inputs.page_of(user).slow.as_ref().expect("degraded");
                    assert!(
                        violations.iter().any(|v| v.domains.contains(domain)),
                        "seed {seed} user {user}: {domain} not flagged"
                    );
                } else {
                    assert!(
                        violations.is_empty(),
                        "seed {seed} user {user}: {violations:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn durable_mixed_pairs_a_get_with_the_same_users_post_and_scrapes_once_per_thousand() {
        let inputs = Inputs::generate(5);
        let reqs: Vec<Req> = (0..3_003)
            .map(|i| inputs.request(Workload::DurableMixed, 0, i))
            .collect();
        assert_eq!(reqs.iter().filter(|r| r.kind == Kind::Scrape).count(), 3);
        for (i, _) in reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == Kind::Scrape)
        {
            // A client may stop at a scrape: the pair before it is whole.
            assert_eq!(reqs[i - 1].kind, Kind::ReportJson);
        }
        let rest: Vec<&Req> = reqs.iter().filter(|r| r.kind != Kind::Scrape).collect();
        for pair in rest.chunks_exact(2) {
            assert_eq!(pair[0].kind, Kind::Page);
            assert_eq!(pair[1].kind, Kind::ReportJson);
            assert_eq!(pair[0].user, pair[1].user);
        }
    }
}
