//! The paper's evaluation as one table of claims.
//!
//! Each [`Row`] is one exhibit (a figure, a table, an ablation of a
//! design argument, or the device-confound study): `run` measures it on
//! a shared [`Paper`] and judges the numbers against the band written in
//! `claim`. A band comes from the paper's own figure; where this
//! reproduction knowingly deviates (EXPERIMENTS.md, "Known deviations"),
//! the band states the shape that survives rather than the paper's value.
//!
//! The `repro` binary runs every row, prints one line each, and writes
//! `BENCH_paper.json` and EXPERIMENTS.md's exhibit tables from the result.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use oak_client::{Browser, BrowserConfig, ReportingMode, SimSession, Universe};
use oak_core::analysis::PageAnalysis;
use oak_core::detect::{detect_violators, DetectorConfig, OutlierMethod, Violation, ViolationKind};
use oak_core::engine::{Oak, OakConfig};
use oak_core::matching::MatchLevel;
use oak_core::report::{ObjectTiming, PerfReport};
use oak_core::rule::Rule;
use oak_core::stats;
use oak_net::{ClientId, DeviceProfile, Quality, Region, SimTime, WorldBuilder};
use oak_webgen::{Category, Corpus, CorpusConfig, Inclusion, Site};

use crate::benchworld::{benchmark_rules, benchmark_world, sensitivity_rules, sensitivity_world};
use crate::matchrate::site_match_rates;
use crate::replicated::{self, select_sites, ReplicatedResults};
use crate::support::{cdf_grid, fraction_at_least, fraction_at_most, median};

/// What every row runs on: the default corpus, the engine settings, and
/// the passes several rows share, each computed on first use.
pub struct Paper {
    /// The 500-site, 25-client corpus of §2 and §5.3.
    pub corpus: Corpus,
    /// Engine and detector settings for every engine and detector a row
    /// builds. Rows that sweep one setting override only that one.
    pub oak: OakConfig,
    census: OnceLock<Vec<Vec<Vec<Violation>>>>,
    replicated: OnceLock<ReplicatedResults>,
    sweep: OnceLock<Sweep>,
}

/// One exhibit and its claim.
pub struct Row {
    /// Stable name: `fig01`…`fig15`, `table1`…`table3`, `ablation_*`,
    /// `detector`.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// The band the measurement must fall in, in words.
    pub claim: &'static str,
    /// Measures the exhibit and judges it against the band.
    pub run: fn(&Paper) -> Measured,
}

/// What a row measured.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The numbers the claim is judged on, as one line.
    pub value: String,
    /// Whether they fall inside the claim's band.
    pub pass: bool,
    /// The figure's curves as named `(x, y)` points, so it can be plotted.
    pub series: Vec<(&'static str, Vec<(f64, f64)>)>,
}

impl Default for Paper {
    /// The default corpus under the default engine settings.
    fn default() -> Paper {
        Paper {
            corpus: Corpus::generate(&CorpusConfig::default()),
            oak: OakConfig::default(),
            census: OnceLock::new(),
            replicated: OnceLock::new(),
            sweep: OnceLock::new(),
        }
    }
}

impl Paper {
    /// External violators of every (site, client) load at hour 13, indexed
    /// `[site][client]`: the census behind Fig. 2, Table 1 and Fig. 3's
    /// first day.
    fn census(&self) -> &[Vec<Vec<Violation>>] {
        self.census.get_or_init(|| {
            let universe = Universe::new(&self.corpus);
            self.corpus
                .sites
                .iter()
                .map(|site| {
                    self.corpus
                        .clients
                        .iter()
                        .map(|&client| {
                            self.external_violators(&universe, site, client, census_time())
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// Violators of one load of `site` from `client` at `t`, leaving out
    /// the origin: the census is about third parties (every Table 1
    /// outlier is one), and a far-away origin is the site's own business.
    fn external_violators(
        &self,
        universe: &Universe<'_>,
        site: &Site,
        client: ClientId,
        t: SimTime,
    ) -> Vec<Violation> {
        let origin_ip = self.corpus.world.ip_of(site.origin).to_string();
        let mut browser = Browser::new(client, "census", BrowserConfig::default());
        let load = browser.load_page(universe, site, &site.html, &[], t);
        let mut violations =
            detect_violators(&PageAnalysis::from_report(&load.report), &self.oak.detector);
        violations.retain(|v| v.ip != origin_ip);
        violations
    }

    /// The §5.3 replicated-sites run behind Figs. 12–14 and Table 3.
    fn replicated(&self) -> &ReplicatedResults {
        self.replicated
            .get_or_init(|| replicated::run(&self.corpus, self.oak))
    }

    /// The page loads the threshold and size-split ablations sweep.
    fn sweep(&self) -> &Sweep {
        self.sweep.get_or_init(Sweep::load)
    }
}

/// When the census crawls: mid-day UTC on day zero, so providers across
/// the globe sit at various points of their diurnal curves, as in a live
/// crawl.
fn census_time() -> SimTime {
    SimTime::from_hours(13)
}

/// 150 sites × 8 clients loaded once at hour 13; the §4.2 ablations
/// re-detect these reports under each setting they sweep.
struct Sweep {
    corpus: Corpus,
    /// `(client, origin ip, report)` per load.
    loads: Vec<(ClientId, String, PerfReport)>,
}

impl Sweep {
    fn load() -> Sweep {
        let corpus = Corpus::generate(&CorpusConfig {
            sites: 150,
            ..CorpusConfig::default()
        });
        let universe = Universe::new(&corpus);
        let mut loads = Vec::new();
        for site in &corpus.sites {
            let origin_ip = corpus.world.ip_of(site.origin).to_string();
            for &client in corpus.clients.iter().take(8) {
                let mut browser = Browser::new(client, "abl", BrowserConfig::default());
                let load = browser.load_page(&universe, site, &site.html, &[], census_time());
                loads.push((client, origin_ip.clone(), load.report));
            }
        }
        Sweep { corpus, loads }
    }
}

/// Every row, in EXPERIMENTS.md order.
pub const ROWS: [Row; 21] = [
    Row {
        id: "fig01",
        section: "§2",
        claim: "median external-object fraction within ±0.10 of 0.75",
        run: fig01,
    },
    Row {
        id: "fig02",
        section: "§2",
        claim: "≥ 1 outlier on > 60 % of sites; ≥ 4 on 10–35 %",
        run: fig02,
    },
    Row {
        id: "table1",
        section: "§2.1",
        claim: "Ads/Analytics is the largest outlier category; Ads/Analytics + Social ≥ 50 %",
        run: table1,
    },
    Row {
        id: "fig03",
        section: "§2.1",
        claim: "1-day median vanished fraction within ±0.15 of 0.52; 5-day − 1-day ≤ 0.20",
        run: fig03,
    },
    Row {
        id: "fig08",
        section: "§4.2.2",
        claim: "match-rate medians strictly increase, each within ±0.10 of 0.42 / 0.60 / 0.81",
        run: fig08,
    },
    Row {
        id: "fig09",
        section: "§5.1",
        claim: "onsets NA < EU < AS, and ratio NA ≥ EU ≥ AS at every delay",
        run: fig09,
    },
    Row {
        id: "fig10",
        section: "§5.2",
        claim: "default median ≤ 0.4; ≥ 90 % of Oak loads at ≥ 0.5",
        run: fig10,
    },
    Row {
        id: "fig11",
        section: "§5.2",
        claim: "daily trough after the first report ≤ 1.5×; peak ≥ 5×",
        run: fig11,
    },
    Row {
        id: "table2",
        section: "§5.3",
        claim: "5 H1 sites with 5 < hosts < 15; 5 H2 sites with > 15",
        run: table2,
    },
    Row {
        id: "fig12",
        section: "§5.3",
        claim: "entirely correct ≥ 60 % in all four panels",
        run: fig12,
    },
    Row {
        id: "fig13",
        section: "§5.3",
        claim: "Oak-faster share within 57–80 % in all four panels",
        run: fig13,
    },
    Row {
        id: "fig14",
        section: "§5.3",
        claim: "≥ 80 % of rules at ≤ 18 % of their site's activations",
        run: fig14,
    },
    Row {
        id: "table3",
        section: "§5.3",
        claim: "the top five common rules are Ads/Analytics, Social or Fonts",
        run: table3,
    },
    Row {
        id: "fig15",
        section: "§6",
        claim: "median report < 10 KB",
        run: fig15,
    },
    Row {
        id: "ablation_match_depth",
        section: "§4.2.2",
        claim: "activations strictly increase over the three matching levels",
        run: ablation_match_depth,
    },
    Row {
        id: "ablation_threshold",
        section: "§4.2.1",
        claim: "precision strictly increases in k; true positives at k = 2 ≥ 95 % of k = 1",
        run: ablation_threshold,
    },
    Row {
        id: "ablation_size_split",
        section: "§4.2",
        claim: "at 50 KB, throughput-axis flags ≥ 90 % of the sweep's max, and time-axis flags < the 400 KB point's",
        run: ablation_size_split,
    },
    Row {
        id: "ablation_mobile",
        section: "§5.1",
        claim: "both clients flag exactly the broken server; mobile mean object time > broadband",
        run: ablation_mobile,
    },
    Row {
        id: "ablation_detectors",
        section: "§4.2.1, §6",
        claim: "uniformly slow page: MAD 0/8, absolute 8/8; two gross outliers: MAD 2, σ 0",
        run: ablation_detectors,
    },
    Row {
        id: "ablation_resource_timing",
        section: "§6",
        claim: "the Resource Timing API client misses ≥ 30 % of violators",
        run: ablation_resource_timing,
    },
    Row {
        id: "detector",
        section: "beyond the paper",
        claim: "mobile-heavy FP > desktop FP > 0 (the device confound is exercised); FP ≤ 7 % and FN ≤ 10 % on both mixes",
        run: detector,
    },
];

/// `0, 0.05, …, 1`: the x axis of every fraction-valued CDF.
fn unit_grid() -> Vec<f64> {
    (0..=20).map(|i| i as f64 / 20.0).collect()
}

fn pct(share: f64) -> String {
    format!("{:.0} %", share * 100.0)
}

/// Fig. 1 — fraction of each page's objects loaded from external hosts,
/// measured through the pipeline: each fetch is classified by the site's
/// own object table (sub-domains of the origin are not external, §2).
fn fig01(paper: &Paper) -> Measured {
    let corpus = &paper.corpus;
    let universe = Universe::new(corpus);
    let mut fractions = Vec::with_capacity(corpus.sites.len());
    for site in &corpus.sites {
        let mut browser = Browser::new(corpus.clients[0], "fig1", BrowserConfig::default());
        let load = browser.load_page(&universe, site, &site.html, &[], census_time());
        let (mut external, mut total) = (0usize, 0usize);
        for fetch in &load.fetches {
            let Some(object) = site.objects.iter().find(|o| o.url == fetch.url) else {
                continue;
            };
            total += 1;
            external += usize::from(object.external);
        }
        if total > 0 {
            fractions.push(external as f64 / total as f64);
        }
    }
    let mid = median(&fractions);
    Measured {
        value: format!("median {mid:.2}"),
        pass: (mid - 0.75).abs() <= 0.10,
        series: vec![("external fraction", cdf_grid(&fractions, &unit_grid()))],
    }
}

/// Fig. 2 — outliers per site. A server counts as a site outlier when
/// flagged from at least five of the 25 vantage points: single-client
/// blips are that client's problem (Oak handles them per user); the
/// site-level census wants repeatable offenders.
fn fig02(paper: &Paper) -> Measured {
    const QUORUM: usize = 5;
    let counts: Vec<f64> = paper
        .census()
        .iter()
        .map(|loads| {
            let mut flagged: BTreeMap<&str, usize> = BTreeMap::new();
            for v in loads.iter().flatten() {
                *flagged.entry(&v.ip).or_insert(0) += 1;
            }
            flagged.values().filter(|&&n| n >= QUORUM).count() as f64
        })
        .collect();
    let one = fraction_at_least(&counts, 1.0);
    let four = fraction_at_least(&counts, 4.0);
    let grid: Vec<f64> = (0..=14).map(f64::from).collect();
    Measured {
        value: format!("≥ 1 on {} of sites, ≥ 4 on {}", pct(one), pct(four)),
        pass: one > 0.60 && (0.10..=0.35).contains(&four),
        series: vec![("outliers per site", cdf_grid(&counts, &grid))],
    }
}

/// Table 1 — the census's violation events by provider category.
fn table1(paper: &Paper) -> Measured {
    let mut by_category: BTreeMap<&str, usize> = BTreeMap::new();
    for v in paper.census().iter().flatten().flatten() {
        for domain in &v.domains {
            let category = paper
                .corpus
                .provider_by_domain(domain)
                .map_or(Category::OriginAsset, |p| p.category);
            *by_category.entry(category.label()).or_insert(0) += 1;
        }
    }
    let total: usize = by_category.values().sum();
    let mut shares: Vec<(&str, f64)> = by_category
        .into_iter()
        .map(|(c, n)| (c, n as f64 / total as f64))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let share_of = |label: &str| shares.iter().find(|s| s.0 == label).map_or(0.0, |s| s.1);
    let ads = Category::AdsAnalytics.label();
    let text: Vec<String> = shares
        .iter()
        .map(|(c, s)| format!("{c} {:.1} %", s * 100.0))
        .collect();
    Measured {
        value: text.join(", "),
        pass: shares.first().is_some_and(|s| s.0 == ads)
            && share_of(ads) + share_of(Category::Social.label()) >= 0.50,
        series: Vec::new(),
    }
}

/// Fig. 3 — fraction of a (site, client)'s day-0 outliers that are gone
/// 1, 2 and 5 days later, from five of the vantage points.
fn fig03(paper: &Paper) -> Measured {
    let corpus = &paper.corpus;
    let universe = Universe::new(corpus);
    let census = paper.census();
    let ips = |violations: &[Violation]| -> BTreeSet<String> {
        violations.iter().map(|v| v.ip.clone()).collect()
    };
    let mut missing: [Vec<f64>; 3] = Default::default();
    for (si, site) in corpus.sites.iter().enumerate() {
        for (ci, &client) in corpus.clients.iter().enumerate().take(5) {
            let day0 = ips(&census[si][ci]);
            if day0.is_empty() {
                continue;
            }
            for (slot, days) in [1u64, 2, 5].into_iter().enumerate() {
                let t = census_time() + days * 86_400_000;
                let later = ips(&paper.external_violators(&universe, site, client, t));
                let vanished = day0.iter().filter(|ip| !later.contains(*ip)).count();
                missing[slot].push(vanished as f64 / day0.len() as f64);
            }
        }
    }
    let [one, two, five] = missing.each_ref().map(|m| median(m));
    Measured {
        value: format!("medians {one:.2} / {two:.2} / {five:.2} at 1 / 2 / 5 days"),
        pass: (one - 0.52).abs() <= 0.15 && five - one <= 0.20,
        series: vec![
            ("1 day", cdf_grid(&missing[0], &unit_grid())),
            ("2 days", cdf_grid(&missing[1], &unit_grid())),
            ("5 days", cdf_grid(&missing[2], &unit_grid())),
        ],
    }
}

/// Fig. 8 — the fraction of a page's external servers a whole-index rule
/// matches, at each matching level.
fn fig08(paper: &Paper) -> Measured {
    let mut levels: [Vec<f64>; 3] = Default::default();
    for site in &paper.corpus.sites {
        let rates = site_match_rates(&paper.corpus, site);
        if rates.external_servers == 0 {
            continue;
        }
        levels[0].push(rates.direct);
        levels[1].push(rates.text);
        levels[2].push(rates.external_js);
    }
    let [direct, text, js] = levels.each_ref().map(|l| median(l));
    let near = [direct, text, js]
        .iter()
        .zip([0.42, 0.60, 0.81])
        .all(|(m, paper)| (m - paper).abs() <= 0.10);
    Measured {
        value: format!("medians {direct:.2} / {text:.2} / {js:.2}"),
        pass: direct < text && text < js && near,
        series: vec![
            ("strict includes", cdf_grid(&levels[0], &unit_grid())),
            ("+ text matches", cdf_grid(&levels[1], &unit_grid())),
            ("+ external JavaScript", cdf_grid(&levels[2], &unit_grid())),
        ],
    }
}

/// Fig. 9 — mean PLT ratio (default / Oak) as one external host's
/// injected delay grows, from an NA, an EU and an AS client. The onset is
/// the first delay whose ratio passes 1.1.
fn fig09(paper: &Paper) -> Measured {
    const DELAYS_MS: [f64; 11] = [
        250.0, 500.0, 750.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0, 3_000.0, 3_500.0, 4_000.0, 5_000.0,
    ];
    const ITERATIONS: u64 = 20;
    const REGIONS: [&str; 3] = ["NA", "EU", "AS"];
    let mut ratios = [[0.0f64; 3]; DELAYS_MS.len()];
    for (di, &delay) in DELAYS_MS.iter().enumerate() {
        for ci in 0..REGIONS.len() {
            let mut sum = 0.0;
            for iter in 0..ITERATIONS {
                // Fresh world per iteration: path affinities and noise
                // redraw, as a new measurement day would.
                let (mut corpus, clients) = sensitivity_world(0x519 + iter);
                let delayed = corpus
                    .world
                    .servers()
                    .iter()
                    .find(|s| s.hostname == "s3.bench.example")
                    .expect("delayed host exists")
                    .id;
                corpus.world.inject_delay(delayed, delay);
                let oak = Oak::new(paper.oak);
                for rule in sensitivity_rules() {
                    oak.add_rule(rule).expect("bench rules validate");
                }
                let mut session = SimSession::new(&corpus, oak);
                let t = SimTime::from_hours(2 + iter * 3);
                // The first load reports the delay; the second is measured.
                session.visit(0, clients[ci], t);
                let (oak_load, _) = session.visit(0, clients[ci], t + 300_000);
                let default_load = session.visit_default(0, clients[ci], t + 300_000);
                sum += default_load.plt_ms / oak_load.plt_ms;
            }
            ratios[di][ci] = sum / ITERATIONS as f64;
        }
    }
    let onsets: Vec<Option<usize>> = (0..REGIONS.len())
        .map(|ci| ratios.iter().position(|r| r[ci] > 1.10))
        .collect();
    // The sweep starts at 250 ms, so an onset there is only known to lie
    // at or below it.
    let onset_text = |onset: Option<usize>| match onset {
        Some(0) => format!("≤ {:.0} ms", DELAYS_MS[0]),
        Some(i) => format!("{:.0} ms", DELAYS_MS[i]),
        None => "none".to_owned(),
    };
    let ordered = onsets
        .windows(2)
        .all(|w| matches!((w[0], w[1]), (Some(a), Some(b)) if a < b));
    Measured {
        value: format!(
            "onsets NA {} < EU {} < AS {}",
            onset_text(onsets[0]),
            onset_text(onsets[1]),
            onset_text(onsets[2])
        ),
        pass: ordered && ratios.iter().all(|r| r[0] >= r[1] && r[1] >= r[2]),
        series: REGIONS
            .iter()
            .enumerate()
            .map(|(ci, &region)| {
                let points = DELAYS_MS.iter().zip(&ratios).map(|(&d, r)| (d, r[ci]));
                (region, points.collect())
            })
            .collect(),
    }
}

/// The §5.2 benchmark on the world `seed` draws: the 25 clients load the
/// page every 30 minutes for 72 hours, through Oak and by default. Per
/// client, per slot: `(default PLT, Oak PLT)`.
fn benchmark_plts(paper: &Paper, seed: u64) -> Vec<Vec<(f64, f64)>> {
    let (corpus, clients) = benchmark_world(seed);
    let oak = Oak::new(paper.oak);
    for rule in benchmark_rules() {
        oak.add_rule(rule).expect("bench rules validate");
    }
    let mut session = SimSession::new(&corpus, oak);
    let mut plts = vec![Vec::new(); clients.len()];
    for slot in 0..BENCH_SLOTS {
        let t = SimTime::from_minutes(slot * 30);
        for (ci, &client) in clients.iter().enumerate() {
            let (oak_load, _) = session.visit(0, client, t);
            plts[ci].push((session.visit_default(0, client, t).plt_ms, oak_load.plt_ms));
        }
    }
    plts
}

/// 72 hours of 30-minute slots.
const BENCH_SLOTS: u64 = 72 * 2;

/// Fig. 10 — Min/Median PLT ratio per (client, day), per arm.
fn fig10(paper: &Paper) -> Measured {
    let min_over_median = |plts: Vec<f64>| {
        let min = plts.iter().cloned().fold(f64::INFINITY, f64::min);
        stats::median(&plts).map(|med| min / med)
    };
    let mut default_ratios = Vec::new();
    let mut oak_ratios = Vec::new();
    for client in benchmark_plts(paper, 0x10b) {
        for day in client.chunks(24 * 2) {
            default_ratios.extend(min_over_median(day.iter().map(|p| p.0).collect()));
            oak_ratios.extend(min_over_median(day.iter().map(|p| p.1).collect()));
        }
    }
    let default_median = median(&default_ratios);
    let oak_above = fraction_at_least(&oak_ratios, 0.5);
    Measured {
        value: format!(
            "median default {default_median:.2} → Oak {:.2}; {} of Oak loads at ≥ 0.5",
            median(&oak_ratios),
            pct(oak_above)
        ),
        pass: default_median <= 0.4 && oak_above >= 0.9,
        series: vec![
            ("default", cdf_grid(&default_ratios, &unit_grid())),
            ("oak", cdf_grid(&oak_ratios, &unit_grid())),
        ],
    }
}

/// Fig. 11 — mean PLT ratio (default / Oak) across the 25 clients, per
/// slot. Slot 0 precedes every report, so no rule exists yet and its
/// ratio is 1 by construction: the trough is read after it.
fn fig11(paper: &Paper) -> Measured {
    let plts = benchmark_plts(paper, 0x11b);
    let means: Vec<(f64, f64)> = (0..BENCH_SLOTS as usize)
        .map(|slot| {
            let sum: f64 = plts.iter().map(|c| c[slot].0 / c[slot].1).sum();
            (slot as f64 / 2.0, sum / plts.len() as f64)
        })
        .collect();
    let peak = means
        .iter()
        .copied()
        .reduce(|a, b| if b.1 > a.1 { b } else { a });
    let trough = means[1..]
        .iter()
        .copied()
        .reduce(|a, b| if b.1 < a.1 { b } else { a });
    let (peak, trough) = (peak.expect("72 h of slots"), trough.expect("72 h of slots"));
    Measured {
        value: format!(
            "trough {:.2}× at hour {}; peak {:.1}× at hour {}",
            trough.1,
            trough.0.floor(),
            peak.1,
            peak.0.floor()
        ),
        pass: trough.1 <= 1.5 && peak.1 >= 5.0,
        series: vec![("mean ratio", means)],
    }
}

/// Table 2 — the H1 and H2 sites the replicated experiment runs on.
/// `select_sites` admits only sites inside each set's host bounds, so
/// the band is that each set fills up.
fn table2(paper: &Paper) -> Measured {
    let (h1, h2) = select_sites(&paper.corpus);
    let describe = |sites: &[usize]| {
        let hosts: Vec<usize> = sites
            .iter()
            .map(|&i| paper.corpus.sites[i].external_domains().len())
            .collect();
        let (lo, hi) = (hosts.iter().min(), hosts.iter().max());
        format!(
            "{} sites, {}–{} hosts",
            sites.len(),
            lo.unwrap_or(&0),
            hi.unwrap_or(&0)
        )
    };
    Measured {
        value: format!("H1: {}; H2: {}", describe(&h1), describe(&h2)),
        pass: h1.len() == 5 && h2.len() == 5,
        series: Vec::new(),
    }
}

/// Fig. 12 — per activated rule, the fraction of informed loads on which
/// Oak's on/off choice matched the post-hoc correct one.
fn fig12(paper: &Paper) -> Measured {
    let conditions = &paper.replicated().conditions;
    let correct: Vec<f64> = conditions
        .values()
        .map(|c| fraction_at_least(&c.correct_fractions, 1.0))
        .collect();
    let panels: Vec<String> = conditions
        .keys()
        .zip(&correct)
        .map(|(key, &share)| format!("{key} {}", pct(share)))
        .collect();
    Measured {
        value: format!("entirely correct: {}", panels.join(", ")),
        pass: correct.iter().all(|&c| c >= 0.60),
        series: conditions
            .iter()
            .map(|(&key, c)| (key, cdf_grid(&c.correct_fractions, &unit_grid())))
            .collect(),
    }
}

/// Fig. 13 — per protected domain, median default object time over
/// median time under Oak's choice (> 1: Oak's choice was faster).
fn fig13(paper: &Paper) -> Measured {
    let conditions = &paper.replicated().conditions;
    let faster: Vec<f64> = conditions
        .values()
        .map(|c| fraction_at_least(&c.object_ratios, 1.0 + 1e-9))
        .collect();
    let panels: Vec<String> = conditions
        .keys()
        .zip(&faster)
        .map(|(key, &share)| format!("{key} {}", pct(share)))
        .collect();
    let grid = [
        0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0,
    ];
    Measured {
        value: format!("Oak faster: {}", panels.join(", ")),
        pass: faster.iter().all(|f| (0.57..=0.80).contains(f)),
        series: conditions
            .iter()
            .map(|(&key, c)| (key, cdf_grid(&c.object_ratios, &grid)))
            .collect(),
    }
}

/// Each activated rule's domain and share of its site's activations.
fn activation_shares(results: &ReplicatedResults) -> Vec<(&str, f64)> {
    results
        .rule_activations
        .iter()
        .map(|((site, domain), &count)| {
            let share = count as f64 / results.site_activations[site] as f64;
            (domain.as_str(), share)
        })
        .collect()
}

/// Fig. 14 — how concentrated activations are: most rules fire for a few
/// users only, a short head for problems many clients share.
fn fig14(paper: &Paper) -> Measured {
    let shares: Vec<f64> = activation_shares(paper.replicated())
        .iter()
        .map(|s| s.1)
        .collect();
    let at_most = fraction_at_most(&shares, 0.18);
    Measured {
        value: format!("{} of rules at ≤ 18 %", pct(at_most)),
        pass: at_most >= 0.80,
        series: vec![("activation share", cdf_grid(&shares, &unit_grid()))],
    }
}

/// Table 3 — the commonly-activated rules (> 18 % of their site's
/// activations), which the paper finds are ad and font networks many
/// clients see as slow.
fn table3(paper: &Paper) -> Measured {
    let mut common: Vec<(&str, f64)> = activation_shares(paper.replicated())
        .into_iter()
        .filter(|s| s.1 > 0.18)
        .collect();
    common.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
    let category = |domain: &str| paper.corpus.provider_by_domain(domain).map(|p| p.category);
    let top: Vec<String> = common
        .iter()
        .take(5)
        .map(|&(domain, share)| {
            let label = category(domain).map_or("?", Category::label);
            format!("{domain} ({label}) {}", pct(share))
        })
        .collect();
    let shared_kinds = [Category::AdsAnalytics, Category::Social, Category::Fonts];
    Measured {
        value: top.join(", "),
        pass: common.len() >= 5
            && common
                .iter()
                .take(5)
                .all(|(domain, _)| category(domain).is_some_and(|c| shared_kinds.contains(&c))),
        series: Vec::new(),
    }
}

/// Fig. 15 — report sizes on the wire, one load per corpus site. The
/// browser label is part of each report, so it is part of the size.
fn fig15(paper: &Paper) -> Measured {
    let corpus = &paper.corpus;
    let universe = Universe::new(corpus);
    let sizes_kb: Vec<f64> = corpus
        .sites
        .iter()
        .map(|site| {
            let mut browser = Browser::new(corpus.clients[0], "fig15", BrowserConfig::default());
            let load = browser.load_page(&universe, site, &site.html, &[], census_time());
            load.report.wire_size() as f64 / 1_000.0
        })
        .collect();
    let mid = median(&sizes_kb);
    let grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0];
    Measured {
        value: format!("median {mid:.1} KB"),
        pass: mid < 10.0,
        series: vec![("report size (KB)", cdf_grid(&sizes_kb, &grid))],
    }
}

/// Fig. 8's dynamic counterpart: the same traffic with matching capped at
/// each level, counting the rule activations that follow. A violator Oak
/// cannot tie to a rule is one it cannot route around.
fn ablation_match_depth(paper: &Paper) -> Measured {
    let corpus = Corpus::generate(&CorpusConfig {
        sites: 40,
        seed: 4242,
        providers: 60,
        persistent_impairment_rate: 0.3,
        ..CorpusConfig::default()
    });
    let activations: Vec<usize> = MatchLevel::ALL
        .into_iter()
        .map(|level| {
            let oak = Oak::new(OakConfig {
                max_match_level: level,
                ..paper.oak
            });
            for site in &corpus.sites {
                for rule in snippet_rules(site) {
                    let _ = oak.add_rule(rule);
                }
            }
            let mut session = SimSession::new(&corpus, oak);
            let mut activations = 0;
            for round in 0..3u64 {
                for site_index in 0..corpus.sites.len() {
                    for &client in corpus.clients.iter().take(10) {
                        let (_, outcome) =
                            session.visit(site_index, client, SimTime::from_minutes(round * 30));
                        activations += outcome.activated.len();
                    }
                }
            }
            activations
        })
        .collect();
    let text: Vec<String> = activations.iter().map(usize::to_string).collect();
    Measured {
        value: format!(
            "activations {} over direct / text / external JS",
            text.join(" → ")
        ),
        pass: activations.windows(2).all(|w| w[0] < w[1]),
        series: Vec::new(),
    }
}

/// §4.1-style *snippet* rules for a site: the default text is the exact
/// HTML block that references the provider, so each rule is matchable at
/// precisely the level its inclusion mechanism allows — unlike the
/// URL-prefix rules of §5.3, which always carry the domain as text.
fn snippet_rules(site: &Site) -> Vec<Rule> {
    let mut rules = Vec::new();
    let mut covered = BTreeSet::new();
    for object in site.objects.iter().filter(|o| o.external) {
        if !covered.insert(object.domain.clone()) {
            continue;
        }
        let default_text = match (&object.snippet, &object.inclusion) {
            (Some(snippet), _) => snippet.clone(),
            // Hidden providers: the only page text that *causes* the
            // connection is the loader tag.
            (None, Inclusion::ExternalJs { loader_url }) => {
                format!(r#"<script src="{loader_url}"></script>"#)
            }
            // Dynamic providers: nothing on the page causes them; no
            // rule can be written (the Fig. 8 residue).
            (None, _) => continue,
        };
        // Nested-mirror form: `http://<host>/<path>` becomes
        // `http://replica-na.example/<host>/<path>`; inline scripts that
        // build URLs as `"http://" + h + p` get the same prefix and
        // produce the same nested shape at runtime.
        let alternative = default_text.replace("http://", "http://replica-na.example/");
        if alternative == default_text || alternative.contains(&default_text) {
            continue;
        }
        rules.push(Rule::replace_identical(default_text, [alternative]));
    }
    rules
}

/// The `k·MAD` threshold swept, with each flag scored against the
/// model's ground truth — something the paper's live testbed could not
/// do. Lower k floods the engine with marginal violators; the paper's
/// k = 2 sheds them while recall barely moves.
fn ablation_threshold(paper: &Paper) -> Measured {
    const KS: [f64; 6] = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0];
    let sweep = paper.sweep();
    let analyses: Vec<PageAnalysis<'_>> = sweep
        .loads
        .iter()
        .map(|(_, _, report)| PageAnalysis::from_report(report))
        .collect();
    let scores: Vec<(usize, usize)> = KS
        .iter()
        .map(|&threshold| {
            let config = DetectorConfig {
                threshold,
                ..paper.oak.detector
            };
            let (mut flags, mut true_pos) = (0usize, 0usize);
            for ((client, origin_ip, _), analysis) in sweep.loads.iter().zip(&analyses) {
                for v in detect_violators(analysis, &config) {
                    if v.ip != *origin_ip {
                        flags += 1;
                        true_pos +=
                            usize::from(sweep.corpus.world.troubled(&v.ip, *client, census_time()));
                    }
                }
            }
            (flags, true_pos)
        })
        .collect();
    let precision: Vec<f64> = scores
        .iter()
        .map(|&(flags, tp)| tp as f64 / flags.max(1) as f64)
        .collect();
    let recall_kept = scores[2].1 as f64 / scores[0].1.max(1) as f64;
    let text: Vec<String> = precision
        .iter()
        .map(|&p| format!("{:.0}", p * 100.0))
        .collect();
    Measured {
        value: format!(
            "precision {} % over k = 1, 1.5, 2, 2.5, 3, 4; true positives at k = 2 are {:.1} % of k = 1's",
            text.join(" → "),
            recall_kept * 100.0
        ),
        pass: precision.windows(2).all(|w| w[0] < w[1]) && recall_kept >= 0.95,
        series: Vec::new(),
    }
}

/// The 50 KB small/large split moved: time is overhead-dominated for
/// small objects, throughput the meaningful axis once transfer dominates.
/// Below the split the throughput axis judges overhead; above it bulk
/// objects land on the time axis and over-fire.
fn ablation_size_split(paper: &Paper) -> Measured {
    const SPLITS: [u64; 5] = [5_000, 20_000, 50_000, 120_000, 400_000];
    let sweep = paper.sweep();
    let axes: Vec<(usize, usize)> = SPLITS
        .iter()
        .map(|&split| {
            let (mut by_time, mut by_tput) = (0usize, 0usize);
            for (_, origin_ip, report) in &sweep.loads {
                let analysis = PageAnalysis::from_report_with_split(report, split);
                for v in detect_violators(&analysis, &paper.oak.detector) {
                    if v.ip == *origin_ip {
                        continue;
                    }
                    match v.kind {
                        ViolationKind::SlowSmallObjects { .. } => by_time += 1,
                        ViolationKind::LowThroughput { .. } => by_tput += 1,
                    }
                }
            }
            (by_time, by_tput)
        })
        .collect();
    let at_50 = axes[2];
    let at_400 = axes[4];
    let tput_max = axes.iter().map(|a| a.1).max().unwrap_or(0);
    Measured {
        value: format!(
            "at 50 KB: {} time-axis, {} throughput-axis flags (sweep max {tput_max}); at 400 KB: {} time-axis",
            at_50.0, at_50.1, at_400.0
        ),
        pass: at_50.1 as f64 >= 0.9 * tput_max as f64 && at_50.0 < at_400.0,
        series: Vec::new(),
    }
}

/// §5.1: "this principle applies in other scenarios of reduced
/// functionality, for example when using a mobile device." A cellular
/// client sees every server slowly; relative detection must flag the
/// genuinely broken server and nothing else.
fn ablation_mobile(paper: &Paper) -> Measured {
    let mut b = WorldBuilder::new(0x40b);
    let hosts: Vec<_> = (0..6)
        .map(|i| {
            b.server(
                &format!("s{i}.example"),
                Region::NorthAmerica,
                Quality::Good,
            )
        })
        .collect();
    b.tune_server(hosts[3], |s| s.processing_ms = 600.0);
    let broadband = b.client(Region::NorthAmerica);
    let mobile = b.mobile_client(Region::NorthAmerica);
    let world = b.build();
    let t = SimTime::from_hours(10);

    let observe = |label: &str, client| {
        let mut report = PerfReport::new(label, "/");
        let mut total = 0.0;
        for (i, &server) in hosts.iter().enumerate() {
            let fetch = world.fetch(t, client, world.ip_of(server), 45_000, i as u64);
            total += fetch.time_ms;
            report.push(ObjectTiming::new(
                format!("http://s{i}.example/obj"),
                world.ip_of(server).to_string(),
                45_000,
                fetch.time_ms,
            ));
        }
        let flagged: Vec<String> =
            detect_violators(&PageAnalysis::from_report(&report), &paper.oak.detector)
                .into_iter()
                .flat_map(|v| v.domains)
                .collect();
        (total / hosts.len() as f64, flagged)
    };
    let (broadband_ms, broadband_flags) = observe("broadband", broadband);
    let (mobile_ms, mobile_flags) = observe("mobile", mobile);
    Measured {
        value: format!(
            "flagged {broadband_flags:?} on broadband, {mobile_flags:?} on mobile; \
             mean object time {mobile_ms:.0} ms mobile vs {broadband_ms:.0} ms"
        ),
        pass: broadband_flags == ["s3.example"]
            && mobile_flags == broadband_flags
            && mobile_ms > broadband_ms,
        series: Vec::new(),
    }
}

/// MAD against its two rejected alternatives: mean ± 2σ (§4.2.1: the
/// deviation must not be dragged by the outliers it hunts) and absolute
/// bounds (§6: a narrow-bandwidth client sees every server slow, and
/// switching providers cannot help it).
fn ablation_detectors(paper: &Paper) -> Measured {
    let absolute = OutlierMethod::Absolute {
        max_small_ms: 400.0,
        min_large_kbps: 500.0,
    };
    let count = |report: &PerfReport, method| {
        let config = DetectorConfig {
            method,
            ..paper.oak.detector
        };
        detect_violators(&PageAnalysis::from_report(report), &config).len()
    };

    let page = |times: &[f64], bytes| {
        let mut report = PerfReport::new("ablation", "/");
        for (i, &t) in times.iter().enumerate() {
            report.push(ObjectTiming::new(
                format!("http://host{i}.example/x.js"),
                format!("10.9.9.{i}"),
                bytes,
                t,
            ));
        }
        report
    };
    // A narrow-bandwidth long-haul client: every server ≈ 2 s.
    let slow_times: Vec<f64> = (0..8).map(|s| 2_000.0 + f64::from(s) * 60.0).collect();
    let slow = page(&slow_times, 20_000);
    // Two gross outliers inflate σ until they hide behind it.
    let masked = page(&[100.0, 105.0, 98.0, 102.0, 2_500.0, 2_700.0], 10_000);
    let outcome = [
        count(&slow, OutlierMethod::Mad),
        count(&slow, absolute),
        count(&masked, OutlierMethod::Mad),
        count(&masked, OutlierMethod::StdDev),
    ];
    Measured {
        value: format!(
            "slow page: MAD {}/8, absolute {}/8; two outliers: MAD {}, σ {}",
            outcome[0], outcome[1], outcome[2], outcome[3]
        ),
        pass: outcome == [0, 8, 2, 0],
        series: Vec::new(),
    }
}

/// §6: the Resource Timing API sees a third party only if it opts in with
/// `Timing-Allow-Origin`, "rendering Oak less effective" — how many of
/// the modified browser's violators does the API client miss?
fn ablation_resource_timing(paper: &Paper) -> Measured {
    let corpus = &paper.corpus;
    let universe = Universe::new(corpus);
    let api = BrowserConfig {
        reporting: ReportingMode::ResourceTimingApi,
        ..BrowserConfig::default()
    };
    let violators = |report: &PerfReport| -> BTreeSet<String> {
        detect_violators(&PageAnalysis::from_report(report), &paper.oak.detector)
            .into_iter()
            .map(|v| v.ip)
            .collect()
    };
    let (mut seen, mut missed) = (0usize, 0usize);
    for site in &corpus.sites {
        for &client in corpus.clients.iter().take(5) {
            let load = |label, config| {
                let mut browser = Browser::new(client, label, config);
                browser.load_page(&universe, site, &site.html, &[], census_time())
            };
            let full = violators(&load("full", BrowserConfig::default()).report);
            let api_sees = violators(&load("rt", api).report);
            seen += full.len();
            missed += full.difference(&api_sees).count();
        }
    }
    let missed_share = missed as f64 / seen.max(1) as f64;
    Measured {
        value: format!(
            "misses {missed} of {seen} violators ({})",
            pct(missed_share)
        ),
        pass: missed_share >= 0.30,
        series: Vec::new(),
    }
}

/// Confusion counts over (report, server) observations.
#[derive(Clone, Copy, Default)]
struct Score {
    tp: u64,
    fp: u64,
    fn_: u64,
    tn: u64,
}

impl Score {
    /// False-positive rate over healthy observations.
    fn fp_rate(&self) -> f64 {
        self.fp as f64 / (self.fp + self.tn).max(1) as f64
    }

    /// Miss rate over truly-bad observations.
    fn fn_rate(&self) -> f64 {
        self.fn_ as f64 / (self.fn_ + self.tp).max(1) as f64
    }
}

/// The paper's global MAD test under the device confound. The paper
/// measured from uniform PlanetLab hardware, so its test never met
/// clients whose own device inflates every ad-chain object. The test is
/// scored against the simulator's ground truth on two mixes: the plain
/// corpus on desktops, and an ad-chain-heavy corpus (60 % of sites,
/// 4-hop chains) on a 20/45/35 desktop/mid/low-end split. The band is
/// today's frontier; a device-aware detector has to lower both rates.
fn detector(paper: &Paper) -> Measured {
    let plain = CorpusConfig {
        sites: 150,
        providers: 120,
        seed: 0xD37EC7,
        ..CorpusConfig::default()
    };
    let ad_heavy = CorpusConfig {
        ad_heavy_fraction: 0.6,
        ad_chain_depth: 4,
        ..plain.clone()
    };
    let desktop = run_mix(paper, &Corpus::generate(&plain), |_| DeviceProfile::DESKTOP);
    let mobile = run_mix(paper, &Corpus::generate(&ad_heavy), |i| match i % 20 {
        0..=3 => DeviceProfile::DESKTOP,
        4..=12 => DeviceProfile::MID_MOBILE,
        _ => DeviceProfile::LOW_END_MOBILE,
    });
    let rates = |score: &Score| {
        format!(
            "{:.3} / {:.1} %",
            score.fp_rate() * 100.0,
            score.fn_rate() * 100.0
        )
    };
    let within = |score: &Score| score.fp_rate() <= 0.07 && score.fn_rate() <= 0.10;
    Measured {
        value: format!(
            "FP / FN rate: desktop {}, mobile-heavy {}",
            rates(&desktop),
            rates(&mobile)
        ),
        pass: mobile.fp_rate() > desktop.fp_rate()
            && desktop.fp > 0
            && within(&desktop)
            && within(&mobile),
        series: Vec::new(),
    }
}

/// Drives 24 rounds of the 25 clients and scores every (report, server)
/// observation. The corpus draws its transient congestion windows over
/// two weeks (about 4 h each), so the rounds are spaced across them.
fn run_mix(paper: &Paper, corpus: &Corpus, device_for: impl Fn(usize) -> DeviceProfile) -> Score {
    const ROUNDS: u64 = 24;
    let universe = Universe::new(corpus);
    let mut browsers: Vec<Browser> = corpus
        .clients
        .iter()
        .enumerate()
        .map(|(i, &client)| {
            let config = BrowserConfig {
                device: Some(device_for(i)),
                ..BrowserConfig::default()
            };
            Browser::new(client, format!("u-{i}"), config)
        })
        .collect();

    let mut score = Score::default();
    let round_spacing_min = 14 * 24 * 60 / ROUNDS;
    for round in 0..ROUNDS {
        for (ci, browser) in browsers.iter_mut().enumerate() {
            let site = &corpus.sites[(round as usize * 7 + ci * 5) % corpus.sites.len()];
            let t = SimTime::from_minutes(round * round_spacing_min + ci as u64 * 11);
            let load = browser.load_page(&universe, site, &site.html, &[], t);
            if load.report.entries.is_empty() {
                continue;
            }
            let analysis = PageAnalysis::from_report(&load.report);
            let flags = detect_violators(&analysis, &paper.oak.detector);
            for server in analysis.iter() {
                let flagged = flags.iter().any(|v| v.ip == server.ip);
                match (flagged, corpus.world.troubled(server.ip, browser.client, t)) {
                    (true, true) => score.tp += 1,
                    (true, false) => score.fp += 1,
                    (false, true) => score.fn_ += 1,
                    (false, false) => score.tn += 1,
                }
            }
        }
    }
    score
}
