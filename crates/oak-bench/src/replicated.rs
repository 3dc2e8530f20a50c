//! The §5.3 replicated-sites experiment.
//!
//! "We replicate existing sites by copying them onto a server in our
//! control which is running Oak. … We then load the site from external
//! clients and demonstrate that Oak is able to identify the violating
//! servers … and switch to viable alternatives when available."
//!
//! The machinery here drives Figs. 12 (correct choices), 13 (object time
//! ratios), 14 (rule activation concentration) and Tables 2–3.

use std::collections::BTreeMap;

use oak_client::rules::{closest_replica, rules_for_site};
use oak_client::{original_url, Browser, BrowserConfig, Universe};
use oak_core::engine::{Oak, OakConfig};
use oak_core::rule::RuleId;
use oak_core::stats::median;
use oak_core::Instant;
use oak_net::{ClientId, SimTime};
use oak_webgen::Corpus;

use crate::matchrate::site_match_rates;

/// Paper parameters: 15 loads per (site, client) per condition.
pub const LOADS: usize = 15;

/// H1 ("low-expectation") and H2 ("high-expectation") site indices:
/// 5 sites each, H1 with 5–15 external hosts, H2 with more than 15,
/// "sites which were able to achieve the highest rule-activation match
/// rate" (§5.3).
pub fn select_sites(corpus: &Corpus) -> (Vec<usize>, Vec<usize>) {
    let mut h1: Vec<(usize, f64)> = Vec::new();
    let mut h2: Vec<(usize, f64)> = Vec::new();
    for (i, site) in corpus.sites.iter().enumerate() {
        let hosts = site.external_domains().len();
        let rates = site_match_rates(corpus, site);
        if hosts > 5 && hosts < 15 {
            h1.push((i, rates.external_js));
        } else if hosts > 15 {
            h2.push((i, rates.external_js));
        }
    }
    let top5 = |mut v: Vec<(usize, f64)>| {
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v.into_iter().take(5).map(|(i, _)| i).collect::<Vec<_>>()
    };
    (top5(h1), top5(h2))
}

/// Samples aggregated per experimental condition (H1/H2 × Close/Far).
#[derive(Clone, Debug, Default)]
pub struct ConditionData {
    /// Per activated (site, client, rule): fraction of loads on which
    /// Oak's on/off choice matched the post-hoc correct choice (Fig. 12).
    pub correct_fractions: Vec<f64>,
    /// Per protected (site, client, domain) with an activated rule:
    /// median default object time / median Oak-arm object time (Fig. 13;
    /// > 1 means Oak's choice was faster).
    pub object_ratios: Vec<f64>,
}

/// Everything the replicated-sites rows read.
#[derive(Clone, Debug, Default)]
pub struct ReplicatedResults {
    /// Keys: `"H1-Close"`, `"H1-Far"`, `"H2-Close"`, `"H2-Far"`.
    pub conditions: BTreeMap<&'static str, ConditionData>,
    /// Activation counts per (site index, rule domain), across clients.
    pub rule_activations: BTreeMap<(usize, String), usize>,
    /// Total activations per site index.
    pub site_activations: BTreeMap<usize, usize>,
}

/// Runs the full experiment over the selected sites, every engine on
/// `config`.
pub fn run(corpus: &Corpus, config: OakConfig) -> ReplicatedResults {
    let (h1, h2) = select_sites(corpus);
    let universe = Universe::new(corpus);
    let mut results = ReplicatedResults::default();
    for key in ["H1-Close", "H1-Far", "H2-Close", "H2-Far"] {
        results.conditions.insert(key, ConditionData::default());
    }

    for (&site_index, is_h1) in h1
        .iter()
        .map(|s| (s, true))
        .chain(h2.iter().map(|s| (s, false)))
    {
        for &client in &corpus.clients {
            let (run, activated_domains) =
                run_site_client(corpus, config, &universe, site_index, client);
            let close = corpus.world.client(client).region
                == corpus.world.server(corpus.sites[site_index].origin).region;
            let key = match (is_h1, close) {
                (true, true) => "H1-Close",
                (true, false) => "H1-Far",
                (false, true) => "H2-Close",
                (false, false) => "H2-Far",
            };
            let data = results.conditions.get_mut(key).expect("condition exists");
            data.correct_fractions.extend(run.correct_fractions);
            data.object_ratios.extend(run.object_ratios);

            for domain in activated_domains {
                *results
                    .rule_activations
                    .entry((site_index, domain))
                    .or_insert(0) += 1;
                *results.site_activations.entry(site_index).or_insert(0) += 1;
            }
        }
    }
    results
}

struct SiteClientRun {
    correct_fractions: Vec<f64>,
    object_ratios: Vec<f64>,
}

/// Per-domain object times for one arm: `(load index, time_ms)` pairs, so
/// correctness can be judged over the same window Oak acted in.
type DomainTimes = BTreeMap<String, Vec<(usize, f64)>>;

/// Median of the times at or after `from_load`.
fn windowed_median(times: &DomainTimes, domain: &str, from_load: usize) -> Option<f64> {
    let window: Vec<f64> = times
        .get(domain)?
        .iter()
        .filter(|(load, _)| *load >= from_load)
        .map(|(_, t)| *t)
        .collect();
    median(&window)
}

/// Runs the three §5.3 conditions — default, all-rules-forced, normal Oak
/// — for one (site, client), and derives the per-rule correctness and
/// per-object ratio samples.
fn run_site_client(
    corpus: &Corpus,
    config: OakConfig,
    universe: &Universe<'_>,
    site_index: usize,
    client: ClientId,
) -> (SiteClientRun, Vec<String>) {
    let site = &corpus.sites[site_index];
    let region = corpus.world.client(client).region;
    let replica = closest_replica(region);
    let rules = rules_for_site(site, replica);

    // Arm 1: default (no Oak).
    let default_times = run_arm(universe, site_index, client, |_| None);

    // Arm 2: every rule forced on, no report ingestion.
    let forced_oak = Oak::new(config);
    let mut rule_ids: Vec<(RuleId, String)> = Vec::new();
    for (domain, rule) in &rules {
        if let Ok(id) = forced_oak.add_rule(rule.clone()) {
            rule_ids.push((id, domain.clone()));
        }
    }
    let user = format!("u-{}", client.0);
    for (id, _) in &rule_ids {
        forced_oak.force_activate(Instant::ZERO, &user, *id);
    }
    let forced_times = run_arm(universe, site_index, client, |t| {
        Some(forced_oak.modify_page(Instant(t.as_millis()), &user, &site.index_path, &site.html))
    });

    // Arm 3: normal Oak — serve, load, report, ingest, repeat.
    let oak = Oak::new(config);
    let mut id_to_domain: BTreeMap<RuleId, String> = BTreeMap::new();
    for (domain, rule) in &rules {
        if let Ok(id) = oak.add_rule(rule.clone()) {
            id_to_domain.insert(id, domain.clone());
        }
    }
    let mut browser = Browser::new(client, user.clone(), BrowserConfig::default());
    let mut oak_times: DomainTimes = BTreeMap::new();
    // Choice in effect per load, per rule id.
    let mut choices: BTreeMap<RuleId, Vec<bool>> = BTreeMap::new();
    // Activated domains: rules some ingest activated.
    let mut activated: Vec<RuleId> = Vec::new();
    for k in 0..LOADS {
        let t = load_time(k);
        let now = Instant(t.as_millis());
        let active: Vec<RuleId> = oak.active_rules(&user).iter().map(|(id, _)| *id).collect();
        // The first load precedes any report: Oak has no information yet,
        // so the paper's "choices" start once the client has reported
        // ("Oak must use a server before it has information about that
        // server", §5.3).
        if k > 0 {
            for id in id_to_domain.keys() {
                choices.entry(*id).or_default().push(active.contains(id));
            }
        }
        let modified = oak.modify_page(now, &user, &site.index_path, &site.html);
        let load = browser.load_page(universe, site, &modified.html, &modified.cache_hints, t);
        record_times(&mut oak_times, k, &load);
        let outcome = oak.ingest_report(now, &load.report, universe);
        activated.extend(outcome.activated);
    }
    let mut activated_domains: Vec<String> = Vec::new();

    // Correctness and ratios, for activated rules only ("we ignore cases
    // in which no rule was ever activated", §5.3). Both are judged over
    // the window from the rule's first activation to the end of the run:
    // before a violation surfaces there is nothing to choose, and the
    // paper's error budget is about activations "later deactivated when
    // the alternate was non-performing", not about watchful waiting.
    let mut correct_fractions = Vec::new();
    let mut object_ratios = Vec::new();
    for id in activated.iter().collect::<std::collections::BTreeSet<_>>() {
        let domain = &id_to_domain[id];
        activated_domains.push(domain.clone());
        let Some(chosen) = choices.get(id) else {
            continue;
        };
        // chosen[i] is the state in effect for load i+1.
        let Some(from) = chosen.iter().position(|&on| on) else {
            continue;
        };
        let from_load = from + 1;
        let (Some(default_med), Some(forced_med)) = (
            windowed_median(&default_times, domain, from_load),
            windowed_median(&forced_times, domain, from_load),
        ) else {
            continue;
        };
        // The post-hoc correct setting over the decision window:
        // whichever arm served this rule's objects faster (§5.3).
        let correct_on = forced_med < default_med;
        let window = &chosen[from..];
        if !window.is_empty() {
            let agree = window.iter().filter(|&&on| on == correct_on).count();
            correct_fractions.push(agree as f64 / window.len() as f64);
        }
        if let Some(oak_med) = windowed_median(&oak_times, domain, from_load) {
            if oak_med > 0.0 {
                object_ratios.push(default_med / oak_med);
            }
        }
    }

    (
        SiteClientRun {
            correct_fractions,
            object_ratios,
        },
        activated_domains,
    )
}

/// Loads the site [`LOADS`] times through an optional page-modification
/// hook, returning per-original-domain object times.
fn run_arm(
    universe: &Universe<'_>,
    site_index: usize,
    client: ClientId,
    mut modify: impl FnMut(SimTime) -> Option<oak_core::engine::ModifiedPage>,
) -> DomainTimes {
    let site = &universe.corpus().sites[site_index];
    let mut browser = Browser::new(client, "arm", BrowserConfig::default());
    let mut times = DomainTimes::new();
    for k in 0..LOADS {
        let t = load_time(k);
        let (html, hints) = match modify(t) {
            Some(m) => (m.html, m.cache_hints),
            None => (site.html.clone(), Vec::new()),
        };
        let load = browser.load_page(universe, site, &html, &hints, t);
        record_times(&mut times, k, &load);
    }
    times
}

/// Attributes each fetch to its *original* domain (replica fetches are
/// un-nested), so default/forced/Oak arms compare like for like.
fn record_times(times: &mut DomainTimes, load_index: usize, load: &oak_client::PageLoad) {
    for fetch in &load.fetches {
        if fetch.from_cache {
            continue;
        }
        let domain = original_url(&fetch.url)
            .and_then(|orig| {
                orig.split_once("://")
                    .map(|(_, r)| r.split('/').next().unwrap_or("").to_owned())
            })
            .unwrap_or_else(|| fetch.domain.clone());
        times
            .entry(domain)
            .or_default()
            .push((load_index, fetch.time_ms));
    }
}

/// Load `k`'s wall-clock: every 30 minutes starting 08:00, so the run
/// spans working hours and the diurnal curve moves underneath it.
fn load_time(k: usize) -> SimTime {
    SimTime::from_hours(8) + (k as u64) * 30 * 60_000
}
