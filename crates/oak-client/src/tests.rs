//! Tests for the simulated browser, rule helpers, and session loop.

use oak_core::engine::{Oak, OakConfig};
use oak_net::{Region, SimTime};
use oak_webgen::{Corpus, CorpusConfig, Inclusion};

use crate::rules::{closest_replica, inline_rule, prefix_rule, rules_for_site};
use crate::universe::{original_url, replica_url, Universe};
use crate::{Browser, BrowserConfig, SimSession};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        sites: 12,
        seed: 99,
        providers: 40,
        ..CorpusConfig::default()
    })
}

#[test]
fn replica_url_roundtrip() {
    let original = "http://stats.adnet3.example/obj7.js";
    let mirrored = replica_url("replica-eu.example", original);
    assert_eq!(
        mirrored,
        "http://replica-eu.example/stats.adnet3.example/obj7.js"
    );
    assert_eq!(original_url(&mirrored).as_deref(), Some(original));
}

#[test]
fn original_url_rejects_non_nested() {
    assert_eq!(original_url("http://plain.example/obj.js"), None);
    assert_eq!(original_url("not a url"), None);
}

#[test]
fn universe_resolves_bytes_including_replicas() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let object = corpus.sites[0]
        .objects
        .iter()
        .find(|o| o.external)
        .expect("external object");
    assert_eq!(universe.bytes_for(&object.url), object.bytes);
    let mirrored = replica_url("replica-na.example", &object.url);
    assert_eq!(universe.bytes_for(&mirrored), object.bytes);
    assert_eq!(universe.bytes_for("http://unknown.example/x"), 512);
}

#[test]
fn browser_fetches_everything_the_page_causes() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[0];
    let mut browser = Browser::new(corpus.clients[0], "u-0", BrowserConfig::default());
    let load = browser.load_page(&universe, site, &site.html, &[], SimTime::from_hours(1));

    // Every object of the site is fetched — including dynamic ones and
    // loader-script children.
    for object in &site.objects {
        assert!(
            load.fetches.iter().any(|f| f.url == object.url),
            "object {} ({:?}) was not fetched",
            object.url,
            object.inclusion
        );
    }
    assert!(load.plt_ms > load.index_ms);
    assert_eq!(load.report.entries.len(), load.fetches.len());
    assert!(load.bytes_transferred() > 0);
}

#[test]
fn browser_executes_ad_chains_to_the_end() {
    let corpus = Corpus::generate(&CorpusConfig {
        sites: 12,
        seed: 99,
        providers: 40,
        ad_heavy_fraction: 1.0,
        ad_chain_depth: 3,
        ..CorpusConfig::default()
    });
    let universe = Universe::new(&corpus);
    let site = corpus
        .sites
        .iter()
        .find(|s| s.objects.iter().any(|o| o.url.contains("/chain")))
        .expect("an ad-heavy site exists");
    let mut browser = Browser::new(corpus.clients[0], "u-0", BrowserConfig::default());
    let load = browser.load_page(&universe, site, &site.html, &[], SimTime::from_hours(1));
    // Every object is still fetched — chain hops AND the re-routed ad
    // objects the markup no longer names directly.
    for object in &site.objects {
        assert!(
            load.fetches.iter().any(|f| f.url == object.url),
            "object {} ({:?}) was not fetched",
            object.url,
            object.inclusion
        );
    }
}

#[test]
fn page_load_is_deterministic() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[1];
    let t = SimTime::from_hours(2);
    let mut b1 = Browser::new(corpus.clients[0], "u-0", BrowserConfig::default());
    let mut b2 = Browser::new(corpus.clients[0], "u-0", BrowserConfig::default());
    let l1 = b1.load_page(&universe, site, &site.html, &[], t);
    let l2 = b2.load_page(&universe, site, &site.html, &[], t);
    assert_eq!(l1.plt_ms, l2.plt_ms);
    assert_eq!(l1.fetches, l2.fetches);
}

#[test]
fn report_entries_carry_resolved_ips() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[2];
    let mut browser = Browser::new(corpus.clients[3], "u-3", BrowserConfig::default());
    let load = browser.load_page(&universe, site, &site.html, &[], SimTime::from_hours(3));
    for entry in &load.report.entries {
        let object = site.objects.iter().find(|o| o.url == entry.url).unwrap();
        let expected_ip = corpus.world.ip_of(object.server).to_string();
        assert_eq!(entry.ip, expected_ip, "{}", entry.url);
        assert!(entry.time_ms > 0.0);
    }
}

#[test]
fn caching_cuts_repeat_fetch_cost() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[3];
    let config = BrowserConfig {
        caching: true,
        ..BrowserConfig::default()
    };
    let mut browser = Browser::new(corpus.clients[0], "u-0", config);
    let t = SimTime::from_hours(1);
    let cold = browser.load_page(&universe, site, &site.html, &[], t);
    let warm = browser.load_page(&universe, site, &site.html, &[], t);
    assert!(warm.fetches.iter().all(|f| f.from_cache));
    assert!(warm.plt_ms < cold.plt_ms * 0.5);
    assert!(
        warm.report.entries.is_empty(),
        "cache hits are not reported"
    );
}

#[test]
fn alternate_hint_preserves_cache_across_host_swap() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[4];
    let object = site
        .objects
        .iter()
        .find(|o| o.external && matches!(o.inclusion, Inclusion::SrcAttr))
        .expect("src-included external object");
    let config = BrowserConfig {
        caching: true,
        ..BrowserConfig::default()
    };
    let mut browser = Browser::new(corpus.clients[0], "u-0", config);
    let t = SimTime::from_hours(1);
    // Cold load fills the cache with the default URLs.
    browser.load_page(&universe, site, &site.html, &[], t);

    // Simulate a Type 2 host swap to a replica, with and without the
    // X-Oak-Alternate hint.
    let swapped_html = site.html.replace(
        &format!("http://{}/", object.domain),
        &format!("http://replica-na.example/{}/", object.domain),
    );
    let hint = vec![(object.domain.clone(), "replica-na.example".to_owned())];
    let with_hint = browser
        .clone()
        .load_page(&universe, site, &swapped_html, &hint, t);
    let swapped_url = replica_url("replica-na.example", &object.url);
    let hit = with_hint
        .fetches
        .iter()
        .find(|f| f.url == swapped_url)
        .expect("swapped object fetched");
    assert!(
        hit.from_cache,
        "hint lets the cached copy serve the new URL"
    );
}

#[test]
fn closest_replica_covers_all_regions() {
    assert_eq!(closest_replica(Region::NorthAmerica), "replica-na.example");
    assert_eq!(closest_replica(Region::Europe), "replica-eu.example");
    assert_eq!(closest_replica(Region::Asia), "replica-as.example");
    assert_eq!(closest_replica(Region::Oceania), "replica-as.example");
    assert_eq!(closest_replica(Region::SouthAmerica), "replica-na.example");
}

#[test]
fn generated_rules_validate_and_cover_external_domains() {
    let corpus = corpus();
    for site in &corpus.sites {
        let rules = rules_for_site(site, "replica-eu.example");
        let domains = site.external_domains();
        assert_eq!(rules.len(), domains.len());
        for (domain, rule) in &rules {
            rule.validate().unwrap_or_else(|e| panic!("{domain}: {e}"));
            assert!(rule.default_text.contains(domain.as_str()));
        }
    }
}

#[test]
fn prefix_rule_rewrites_all_objects_of_domain() {
    let rule = prefix_rule("cdn9.edge.example", "replica-na.example");
    let page = r#"<img src="http://cdn9.edge.example/a.png">
<script src="http://cdn9.edge.example/b.js"></script>"#;
    let mut rewriter = oak_html::Rewriter::new(page);
    let n = rewriter.replace_all(&rule.default_text, &rule.alternatives[0]);
    assert_eq!(n, 2);
    let out = rewriter.apply().unwrap();
    assert!(out.contains("http://replica-na.example/cdn9.edge.example/a.png"));
    assert!(out.contains("http://replica-na.example/cdn9.edge.example/b.js"));
}

#[test]
fn inline_rule_redirects_interpreted_scripts() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    // Find a site with an inline-script object.
    let (site, object) = corpus
        .sites
        .iter()
        .find_map(|s| {
            s.objects
                .iter()
                .find(|o| matches!(o.inclusion, Inclusion::InlineScript))
                .map(|o| (s, o))
        })
        .expect("corpus has inline-script objects");
    let rule = inline_rule(&object.domain, "replica-as.example");
    let rewritten = site.html.replace(&rule.default_text, &rule.alternatives[0]);

    let mut browser = Browser::new(corpus.clients[0], "u-0", BrowserConfig::default());
    let load = browser.load_page(&universe, site, &rewritten, &[], SimTime::from_hours(1));
    let expected = replica_url("replica-as.example", &object.url);
    assert!(
        load.fetches.iter().any(|f| f
            .url
            .starts_with(&expected.split('?').next().unwrap().to_string())),
        "inline object should now load from the replica; fetches: {:?}",
        load.fetches.iter().map(|f| &f.url).collect::<Vec<_>>()
    );
}

#[test]
fn session_loop_activates_rules_and_improves_choice() {
    let corpus = corpus();
    // Install prefix rules for every site, pointing at the NA replica.
    let oak = Oak::new(OakConfig::default());
    for site in &corpus.sites {
        for (_, rule) in rules_for_site(site, "replica-na.example") {
            let _ = oak.add_rule(rule);
        }
    }
    let mut session = SimSession::new(&corpus, oak);
    let client = corpus.clients[0];

    let mut activated_any = false;
    for round in 0..6 {
        for site_index in 0..corpus.sites.len() {
            let t = SimTime::from_minutes(round * 30 + site_index as u64);
            let (_, outcome) = session.visit(site_index, client, t);
            activated_any |= !outcome.activated.is_empty();
        }
    }
    assert!(
        activated_any,
        "six rounds over {} sites should activate at least one rule",
        corpus.sites.len()
    );
    assert!(!session.oak.log().is_empty());
}

#[test]
fn keep_alive_reduces_page_load_time() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[0];
    let t = SimTime::from_hours(1);
    let mut cold = Browser::new(corpus.clients[0], "u-c", BrowserConfig::default());
    let mut warm = Browser::new(
        corpus.clients[0],
        "u-w",
        BrowserConfig {
            keep_alive: true,
            ..BrowserConfig::default()
        },
    );
    let cold_load = cold.load_page(&universe, site, &site.html, &[], t);
    let warm_load = warm.load_page(&universe, site, &site.html, &[], t);
    assert_eq!(cold_load.fetches.len(), warm_load.fetches.len());
    assert!(
        warm_load.plt_ms < cold_load.plt_ms,
        "keep-alive should cut repeated handshakes: {} vs {}",
        warm_load.plt_ms,
        cold_load.plt_ms
    );
    // Per-fetch: the first object of a host costs the same, repeats less.
    for (c, w) in cold_load.fetches.iter().zip(&warm_load.fetches) {
        assert!(w.time_ms <= c.time_ms + 1e-9, "{}", c.url);
    }
}

#[test]
fn har_export_is_valid_json_and_covers_fetches() {
    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[0];
    let mut browser = Browser::new(corpus.clients[0], "u-har", BrowserConfig::default());
    let load = browser.load_page(&universe, site, &site.html, &[], SimTime::from_hours(1));
    let har = oak_json::parse(&load.to_har_json()).expect("HAR is valid JSON");
    let log = har.get("log").unwrap();
    assert_eq!(log.get("version").and_then(|v| v.as_str()), Some("1.2"));
    let entries = log.get("entries").and_then(|e| e.as_array()).unwrap();
    assert_eq!(entries.len(), load.fetches.len());
    let on_load = log
        .at(0)
        .or(log.get("pages").and_then(|p| p.at(0)))
        .and_then(|p| p.get("pageTimings"))
        .and_then(|t| t.get("onLoad"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!((on_load - load.plt_ms).abs() < 1e-9);
}

#[test]
fn resource_timing_mode_omits_non_opted_in_providers() {
    use crate::ReportingMode;
    let corpus = corpus();
    let universe = Universe::new(&corpus);

    // Find a site contacting at least one opted-out provider.
    let (site, opted_out) = corpus
        .sites
        .iter()
        .find_map(|s| {
            s.external_domains()
                .into_iter()
                .find(|d| {
                    corpus
                        .provider_by_domain(d)
                        .is_some_and(|p| !p.timing_allow_origin)
                })
                .map(|d| (s, d.to_owned()))
        })
        .expect("corpus has opted-out providers");

    let t = SimTime::from_hours(2);
    let mut full = Browser::new(corpus.clients[0], "u-f", BrowserConfig::default());
    let mut rt = Browser::new(
        corpus.clients[0],
        "u-rt",
        BrowserConfig {
            reporting: ReportingMode::ResourceTimingApi,
            ..BrowserConfig::default()
        },
    );
    let full_load = full.load_page(&universe, site, &site.html, &[], t);
    let rt_load = rt.load_page(&universe, site, &site.html, &[], t);

    // Same fetches (the page loads identically)…
    assert_eq!(full_load.fetches.len(), rt_load.fetches.len());
    // …but the API-mode report omits the opted-out provider.
    assert!(full_load
        .report
        .entries
        .iter()
        .any(|e| e.url.contains(&opted_out)));
    assert!(!rt_load
        .report
        .entries
        .iter()
        .any(|e| e.url.contains(&opted_out)));
    assert!(rt_load.report.entries.len() < full_load.report.entries.len());
    // Same-origin objects stay visible.
    assert!(rt_load
        .report
        .entries
        .iter()
        .any(|e| e.url.contains(&site.host)));
}

#[test]
fn device_profile_inflates_script_cost_and_stamps_reports() {
    use oak_core::report::DeviceClass;
    use oak_net::DeviceProfile;

    let corpus = corpus();
    let universe = Universe::new(&corpus);
    let site = &corpus.sites[0];
    let t = SimTime::from_hours(1);

    let mut desktop = Browser::new(corpus.clients[0], "u-d", BrowserConfig::default());
    let mut phone = Browser::new(
        corpus.clients[0],
        "u-m",
        BrowserConfig {
            device: Some(DeviceProfile::LOW_END_MOBILE),
            ..BrowserConfig::default()
        },
    );
    let fast = desktop.load_page(&universe, site, &site.html, &[], t);
    let slow = phone.load_page(&universe, site, &site.html, &[], t);

    // Same fetches, slower page: the device pays radio + CPU, the
    // network model is untouched.
    assert_eq!(fast.fetches.len(), slow.fetches.len());
    assert!(slow.plt_ms > fast.plt_ms);
    for (f, s) in fast.fetches.iter().zip(&slow.fetches) {
        let delta = s.time_ms - f.time_ms;
        assert!(
            delta >= DeviceProfile::LOW_END_MOBILE.radio_rtt_ms - 1e-9,
            "{}",
            f.url
        );
        if f.url.split(['?', '#']).next().unwrap().ends_with(".js") {
            assert!(
                delta > DeviceProfile::LOW_END_MOBILE.radio_rtt_ms + 1e-9,
                "script {} should also pay CPU",
                f.url
            );
        }
    }

    // The device class rides the report; the default config stays unknown.
    assert_eq!(slow.report.device, DeviceClass::LowEndMobile);
    assert_eq!(fast.report.device, DeviceClass::Unknown);
}

#[test]
fn session_pins_devices_per_vantage_point() {
    use oak_core::report::DeviceClass;
    use oak_net::DeviceProfile;

    let corpus = corpus();
    let oak = Oak::new(OakConfig::default());
    let mut session = SimSession::new(&corpus, oak);
    session.assign_device(corpus.clients[1], DeviceProfile::MID_MOBILE);

    let t = SimTime::from_hours(1);
    let (mobile_load, _) = session.visit(0, corpus.clients[1], t);
    let (desktop_load, _) = session.visit(0, corpus.clients[2], t);
    assert_eq!(mobile_load.report.device, DeviceClass::MidMobile);
    assert_eq!(desktop_load.report.device, DeviceClass::Unknown);
}

#[test]
fn session_default_arm_never_touches_engine() {
    let corpus = corpus();
    let oak = Oak::new(OakConfig::default());
    let mut session = SimSession::new(&corpus, oak);
    let before = session.oak.log().len();
    session.visit_default(0, corpus.clients[1], SimTime::from_hours(1));
    assert_eq!(session.oak.log().len(), before);
    assert_eq!(session.oak.user_count(), 0);
}
