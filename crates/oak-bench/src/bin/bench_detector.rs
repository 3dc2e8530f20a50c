//! Detector-policy head-to-head: the paper's global MAD test vs the
//! per-device-cohort detector, on device-mixed, ad-chain-heavy workloads.
//!
//! The paper's testbed measured from PlanetLab nodes — uniform hardware —
//! so its within-report MAD test never met the confound real client
//! populations carry: a low-end phone pays per-script CPU and per-fetch
//! radio costs that inflate every ad-chain object, and the global test
//! then blames healthy ad servers for the client's own silicon. This
//! study drives identical page loads through two real engines (one per
//! `DetectorPolicy`) and scores both against the simulator's ground
//! truth, which a live testbed cannot know.
//!
//! Two mixes:
//!
//! - `desktop` — the plain corpus on uniform desktop hardware; the
//!   policies should essentially agree (cohort may abstain while cold).
//! - `mobile_heavy` — an ad-chain-heavy corpus (60 % of sites route ads
//!   through 4-hop loader chains) on a 20/45/35 desktop/mid/low-end
//!   device split; the adversarial case the cohort policy exists for.
//!
//! Scoring is per (report, server) observation: a *flag* on a server the
//! model says is healthy is a false positive; a truly-bad server in the
//! report that goes unflagged is a false negative. Ground truth follows
//! `ablation_threshold`: impaired at t for the client's region,
//! single-homed far from the client, or Poor quality.
//!
//! Prints both tables, writes `BENCH_detector.json`, and exits nonzero
//! unless every gate holds:
//!
//! 1. cohort flags ⊆ global flags on every report (the construction);
//! 2. on `mobile_heavy`, the global policy produces false positives
//!    (the confound is real) and the cohort FP rate is strictly below
//!    the global FP rate (the policy earns its keep).
//!
//! Run: `cargo run --release -p oak-bench --bin bench_detector`
//! (`-- --smoke` for the quick CI mode).

use std::process::ExitCode;

use oak_client::{Browser, BrowserConfig, Universe};
use oak_core::analysis::PageAnalysis;
use oak_core::detect::DetectorPolicy;
use oak_core::engine::{Oak, OakConfig};
use oak_core::Instant;
use oak_net::{ClientId, DeviceProfile, SimTime};
use oak_webgen::{Corpus, CorpusConfig};

/// Confusion counts over (report, server) observations.
#[derive(Clone, Copy, Default)]
struct Score {
    tp: u64,
    fp: u64,
    fn_: u64,
    tn: u64,
}

impl Score {
    fn flags(&self) -> u64 {
        self.tp + self.fp
    }

    /// False-positive rate over healthy observations.
    fn fp_rate(&self) -> f64 {
        self.fp as f64 / (self.fp + self.tn).max(1) as f64
    }

    /// Miss rate over truly-bad observations.
    fn fn_rate(&self) -> f64 {
        self.fn_ as f64 / (self.fn_ + self.tp).max(1) as f64
    }
}

struct MixResult {
    name: &'static str,
    loads: u64,
    global: Score,
    cohort: Score,
    /// Reports where the cohort policy flagged a server the global
    /// policy did not — must be zero by construction.
    subset_violations: u64,
}

/// The device split for the mobile-heavy mix: 20 % desktop, 45 %
/// mid-mobile, 35 % low-end, by client index.
fn mobile_mix_device(index: usize) -> DeviceProfile {
    match index % 20 {
        0..=3 => DeviceProfile::DESKTOP,
        4..=12 => DeviceProfile::MID_MOBILE,
        _ => DeviceProfile::LOW_END_MOBILE,
    }
}

fn run_mix(
    name: &'static str,
    corpus: &Corpus,
    device_for: impl Fn(usize) -> DeviceProfile,
    rounds: u64,
) -> MixResult {
    let universe = Universe::new(corpus);
    let global = Oak::new(OakConfig::default());
    let cohort = Oak::new(OakConfig {
        detector_policy: DetectorPolicy::Cohort,
        ..OakConfig::default()
    });

    let mut browsers: Vec<Browser> = corpus
        .clients
        .iter()
        .enumerate()
        .map(|(i, &client)| {
            Browser::new(
                client,
                format!("u-{i}"),
                BrowserConfig {
                    device: Some(device_for(i)),
                    ..BrowserConfig::default()
                },
            )
        })
        .collect();

    let truly_bad = |ip: &str, client: ClientId, t: SimTime| -> bool {
        let Some(addr) = oak_net::IpAddr::parse(ip) else {
            return false;
        };
        let Some(server) = corpus.world.server_at(addr) else {
            return false;
        };
        let creg = corpus.world.client(client).region;
        corpus
            .world
            .impairments()
            .iter()
            .any(|i| i.server == server.id && i.latency_factor(t, creg) > 1.0)
            || (!server.distributed && server.region != creg)
            || server.quality == oak_net::Quality::Poor
    };

    let mut result = MixResult {
        name,
        loads: 0,
        global: Score::default(),
        cohort: Score::default(),
        subset_violations: 0,
    };
    // The corpus draws its transient congestion windows over a two-week
    // horizon (mean ~4 h each); spacing the rounds across that horizon
    // is what lets a warm baseline watch a server *become* slow.
    let round_spacing_min = 14 * 24 * 60 / rounds;
    for round in 0..rounds {
        for (ci, browser) in browsers.iter_mut().enumerate() {
            let site = &corpus.sites[(round as usize * 7 + ci * 5) % corpus.sites.len()];
            let t = SimTime::from_minutes(round * round_spacing_min + ci as u64 * 11);
            let load = browser.load_page(&universe, site, &site.html, &[], t);
            if load.report.entries.is_empty() {
                continue;
            }
            result.loads += 1;
            let now = Instant(t.as_millis());
            // The SAME report feeds both engines — the policies, not the
            // workloads, are what differ.
            let global_flags: Vec<String> = global
                .ingest_report(now, &load.report, &universe)
                .violations
                .into_iter()
                .map(|v| v.ip)
                .collect();
            let cohort_flags: Vec<String> = cohort
                .ingest_report(now, &load.report, &universe)
                .violations
                .into_iter()
                .map(|v| v.ip)
                .collect();
            if cohort_flags.iter().any(|ip| !global_flags.contains(ip)) {
                result.subset_violations += 1;
            }
            let analysis = PageAnalysis::from_report(&load.report);
            for server in analysis.iter() {
                let bad = truly_bad(server.ip, browser.client, t);
                for (score, flags) in [
                    (&mut result.global, &global_flags),
                    (&mut result.cohort, &cohort_flags),
                ] {
                    match (flags.iter().any(|ip| ip == server.ip), bad) {
                        (true, true) => score.tp += 1,
                        (true, false) => score.fp += 1,
                        (false, true) => score.fn_ += 1,
                        (false, false) => score.tn += 1,
                    }
                }
            }
        }
    }
    result
}

fn print_mix(mix: &MixResult) {
    println!(
        "\nmix {:>13} ({} loads; cohort⊆global violations: {}):",
        mix.name, mix.loads, mix.subset_violations
    );
    println!(
        "  {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "policy", "flags", "tp", "fp", "fn", "fp-rate", "fn-rate"
    );
    for (label, s) in [("global", &mix.global), ("cohort", &mix.cohort)] {
        println!(
            "  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8.3}% {:>8.1}%",
            label,
            s.flags(),
            s.tp,
            s.fp,
            s.fn_,
            s.fp_rate() * 100.0,
            s.fn_rate() * 100.0
        );
    }
}

fn score_json(s: &Score) -> oak_json::Value {
    let mut doc = oak_json::Value::object();
    doc.set("flags", s.flags());
    doc.set("true_positives", s.tp);
    doc.set("false_positives", s.fp);
    doc.set("false_negatives", s.fn_);
    doc.set("true_negatives", s.tn);
    doc.set("fp_rate", s.fp_rate());
    doc.set("fn_rate", s.fn_rate());
    doc
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sites, providers, rounds) = if smoke { (60, 60, 8) } else { (150, 120, 24) };
    let seed = 0xD37EC7;

    println!(
        "Detector policy head-to-head ({} sites, {} providers, {} rounds × 25 clients{})",
        sites,
        providers,
        rounds,
        if smoke { ", smoke" } else { "" }
    );

    let desktop_corpus = Corpus::generate(&CorpusConfig {
        sites,
        providers,
        seed,
        ..CorpusConfig::default()
    });
    let mobile_corpus = Corpus::generate(&CorpusConfig {
        sites,
        providers,
        seed,
        ad_heavy_fraction: 0.6,
        ad_chain_depth: 4,
        ..CorpusConfig::default()
    });

    let desktop = run_mix(
        "desktop",
        &desktop_corpus,
        |_| DeviceProfile::DESKTOP,
        rounds,
    );
    let mobile = run_mix("mobile_heavy", &mobile_corpus, mobile_mix_device, rounds);
    print_mix(&desktop);
    print_mix(&mobile);

    // --- Gates ---------------------------------------------------------
    let mut failures = Vec::new();
    for mix in [&desktop, &mobile] {
        if mix.subset_violations > 0 {
            failures.push(format!(
                "{}: cohort flagged outside the global candidate set in {} report(s)",
                mix.name, mix.subset_violations
            ));
        }
    }
    if mobile.global.fp == 0 {
        failures.push("mobile_heavy: global policy produced no false positives — the device confound is not being exercised".to_owned());
    }
    if mobile.cohort.fp_rate() >= mobile.global.fp_rate() {
        failures.push(format!(
            "mobile_heavy: cohort fp rate {:.4}% is not strictly below global {:.4}%",
            mobile.cohort.fp_rate() * 100.0,
            mobile.global.fp_rate() * 100.0
        ));
    }

    let mut doc = oak_json::Value::object();
    doc.set("smoke", smoke);
    doc.set("sites", sites as u64);
    doc.set("providers", providers as u64);
    doc.set("rounds", rounds);
    for mix in [&desktop, &mobile] {
        let mut m = oak_json::Value::object();
        m.set("loads", mix.loads);
        m.set("subset_violations", mix.subset_violations);
        m.set("global", score_json(&mix.global));
        m.set("cohort", score_json(&mix.cohort));
        doc.set(mix.name, m);
    }
    let mut gates = oak_json::Value::object();
    gates.set("passed", failures.is_empty());
    let mut failed = oak_json::Value::array();
    for f in &failures {
        failed.push(f.as_str());
    }
    gates.set("failures", failed);
    doc.set("gates", gates);
    std::fs::write("BENCH_detector.json", doc.to_string()).expect("write BENCH_detector.json");
    println!("\nwrote BENCH_detector.json");

    if failures.is_empty() {
        println!("all detector gates passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
