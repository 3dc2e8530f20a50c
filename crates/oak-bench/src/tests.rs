//! Tests for the experiment-harness library: the exhibits are only as
//! trustworthy as the machinery that computes them.

use crate::benchworld::{
    alternate_of, benchmark_rules, benchmark_world, sensitivity_rules, sensitivity_world,
};
use crate::matchrate::site_match_rates;
use crate::paper::{Paper, ROWS};
use crate::replicated::select_sites;
use crate::support::*;

use oak_webgen::{Corpus, CorpusConfig};

// ---------------------------------------------------------------------
// support
// ---------------------------------------------------------------------

#[test]
fn fractions_and_grid() {
    let xs = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(fraction_at_least(&xs, 3.0), 0.5);
    assert_eq!(fraction_at_most(&xs, 2.0), 0.5);
    assert_eq!(fraction_at_least(&[], 1.0), 0.0);
    assert_eq!(fraction_at_most(&[], 1.0), 0.0);
    let grid = [0.0, 2.5, 5.0];
    assert_eq!(
        cdf_grid(&xs, &grid),
        vec![(0.0, 0.0), (2.5, 0.5), (5.0, 1.0)]
    );
    assert!(median(&xs) == 2.5);
    assert!(median(&[]).is_nan());
}

// ---------------------------------------------------------------------
// benchworld
// ---------------------------------------------------------------------

#[test]
fn sensitivity_world_shape() {
    let (corpus, clients) = sensitivity_world(1);
    assert_eq!(clients.len(), 3);
    assert_eq!(corpus.sites.len(), 1);
    let site = &corpus.sites[0];
    // 5 hosts × 5 sizes.
    assert_eq!(site.objects.iter().filter(|o| o.external).count(), 25);
    // Every alternate host resolves.
    for host in crate::benchworld::sensitivity_hosts() {
        assert!(corpus
            .world
            .resolve(&alternate_of(&host), clients[0])
            .is_some());
    }
    let rules = sensitivity_rules();
    assert_eq!(rules.len(), 5);
    for rule in rules {
        rule.validate().unwrap();
    }
}

#[test]
fn alternate_host_naming() {
    assert_eq!(alternate_of("s3.bench.example"), "alt3.bench.example");
    assert_eq!(alternate_of("s1.bench.example"), "alt1.bench.example");
}

#[test]
fn benchmark_world_shape() {
    let (corpus, clients) = benchmark_world(2);
    assert_eq!(clients.len(), 25);
    let site = &corpus.sites[0];
    // 6 sets × 4 sizes.
    assert_eq!(site.objects.len(), 24);
    assert_eq!(site.objects.iter().filter(|o| !o.external).count(), 4);
    let rules = benchmark_rules();
    assert_eq!(rules.len(), 5);
    // The two Poor defaults carry the deep diurnal collapse.
    let deep: usize = corpus
        .world
        .servers()
        .iter()
        .filter(|s| s.diurnal_amplitude > 5.0)
        .count();
    assert_eq!(deep, 2);
}

#[test]
fn benchmark_world_is_deterministic() {
    let (a, _) = benchmark_world(7);
    let (b, _) = benchmark_world(7);
    assert_eq!(a.sites[0].html, b.sites[0].html);
}

// ---------------------------------------------------------------------
// matchrate + replicated selection
// ---------------------------------------------------------------------

fn small_corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        sites: 60,
        seed: 5,
        providers: 40,
        ..CorpusConfig::default()
    })
}

#[test]
fn match_rates_are_cumulative_and_bounded() {
    let corpus = small_corpus();
    for site in &corpus.sites {
        let r = site_match_rates(&corpus, site);
        assert!(r.direct <= r.text + 1e-9);
        assert!(r.text <= r.external_js + 1e-9);
        assert!((0.0..=1.0).contains(&r.direct));
        assert!((0.0..=1.0).contains(&r.external_js));
        assert_eq!(r.external_servers, site.external_domains().len());
    }
}

#[test]
fn site_selection_respects_host_bounds() {
    let corpus = small_corpus();
    let (h1, h2) = select_sites(&corpus);
    assert!(h1.len() <= 5 && h2.len() <= 5);
    for &i in &h1 {
        let hosts = corpus.sites[i].external_domains().len();
        assert!(hosts > 5 && hosts < 15, "H1 site {i} has {hosts} hosts");
    }
    for &i in &h2 {
        let hosts = corpus.sites[i].external_domains().len();
        assert!(hosts > 15, "H2 site {i} has {hosts} hosts");
    }
    // No overlap.
    for i in &h1 {
        assert!(!h2.contains(i));
    }
}

// ---------------------------------------------------------------------
// paper rows
// ---------------------------------------------------------------------

/// The table has teeth: halving the paper's 2·MAD multiplier floods the
/// census with marginal outliers, and Fig. 2's band catches it.
#[test]
fn halving_the_mad_multiplier_fails_a_paper_row() {
    let fig02 = ROWS
        .iter()
        .find(|row| row.id == "fig02")
        .expect("fig02 row");

    let mut halved = Paper::default();
    halved.oak.detector.threshold = 1.0;
    let measured = (fig02.run)(&halved);
    assert!(!measured.pass, "k = 1 still passes: {}", measured.value);

    let measured = (fig02.run)(&Paper::default());
    assert!(measured.pass, "k = 2 fails: {}", measured.value);
}

#[test]
fn durability_bench_workload_round_trips() {
    assert!(
        crate::durability::roundtrip_check(40),
        "bench WAL must recover cleanly with every event replayed"
    );
}

#[test]
fn resilience_bench_breaker_trace_is_deterministic() {
    use oak_core::fetch::FetchPolicy;
    let policy = FetchPolicy {
        deadline: None,
        retries: 0,
        backoff_base: std::time::Duration::ZERO,
        negative_ttl_ms: 0,
        breaker_threshold: 3,
        breaker_cooldown_ms: 1_000,
    };
    // Host heals on the third probe: exactly three cooldowns of
    // engine time, every run.
    let (ms, attempts, skips) = crate::resilience::breaker_recovery_trace(policy, 5);
    assert_eq!((ms, attempts, skips), (3_000, 6, 0));
    // Heal on the first probe: one cooldown.
    let (ms, attempts, _) = crate::resilience::breaker_recovery_trace(policy, 3);
    assert_eq!((ms, attempts), (1_000, 4));
}

#[test]
fn resilience_bench_flaky_ingest_opens_the_breaker() {
    use oak_core::fetch::FetchPolicy;
    let policy = FetchPolicy {
        deadline: Some(std::time::Duration::from_millis(5)),
        retries: 0,
        backoff_base: std::time::Duration::ZERO,
        negative_ttl_ms: 0,
        breaker_threshold: 2,
        breaker_cooldown_ms: 60_000,
    };
    let (_, fetches) =
        crate::resilience::flaky_ingest_duration(6, std::time::Duration::from_millis(30), policy);
    assert_eq!(fetches.attempts, 2, "breaker caps attempts at threshold");
    assert_eq!(fetches.breaker_open_skips, 4);
}
