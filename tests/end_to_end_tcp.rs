//! End-to-end integration over real TCP: a corpus page served by the Oak
//! proxy, a client that measures over the simulated network but speaks
//! real HTTP to the proxy.

use std::sync::Arc;

use oak::client::{rules, Universe};
use oak::core::prelude::*;
use oak::edge::EdgeServer;
use oak::http::cookie::{get_cookie, OAK_USER_COOKIE};
use oak::http::{fetch_tcp, Method, Request};
use oak::net::SimTime;
use oak::server::{OakService, SiteStore, REPORT_PATH};
use oak::webgen::{Corpus, CorpusConfig};

/// Runs one corpus site through a live proxy: returns (activation events,
/// whether the served page was visibly rewritten to a replica).
fn run_site(corpus: &Corpus, site_index: usize) -> (usize, bool) {
    let universe = Universe::new(corpus);
    let client = corpus.clients[0];
    let region = corpus.world.client(client).region;
    let site = &corpus.sites[site_index];

    // Engine with this site's rules; corpus-backed script fetching so
    // level-3 matching works across the wire, too.
    let oak = Oak::new(OakConfig::default());
    for (_, rule) in rules::rules_for_site(site, rules::closest_replica(region)) {
        oak.add_rule(rule).unwrap();
    }
    let mut store = SiteStore::new();
    store.add_page(&site.index_path, &site.html);

    let corpus_for_fetcher = corpus.clone();
    let service = OakService::new(oak, store)
        .with_fetcher(move |url: &str| corpus_for_fetcher.script_body(url))
        .into_shared();
    let mut server = EdgeServer::start(0, Arc::clone(&service) as _).unwrap();
    let addr = server.addr();

    // 1. Fetch the page over HTTP; get the cookie.
    let resp = fetch_tcp(addr, &Request::new(Method::Get, &site.index_path)).unwrap();
    assert!(resp.status.is_success());
    let user = get_cookie(resp.header("set-cookie").unwrap(), OAK_USER_COOKIE)
        .unwrap()
        .to_owned();

    // 2. "Load" the delivered page over the simulated network, POST the
    //    real report, reload; repeat so rules can converge.
    let mut browser =
        oak::client::Browser::new(client, user.clone(), oak::client::BrowserConfig::default());
    let mut saw_rewrite = false;
    let mut delivered = resp.body_text();
    for round in 0..4u64 {
        let load = browser.load_page(
            &universe,
            site,
            &delivered,
            &[],
            SimTime::from_hours(13 + round),
        );
        assert!(!load.report.entries.is_empty());
        let post = Request::new(Method::Post, REPORT_PATH)
            .with_body(load.report.to_json().into_bytes(), "application/json")
            .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
        assert_eq!(fetch_tcp(addr, &post).unwrap().status.0, 204);

        let reload = Request::new(Method::Get, &site.index_path)
            .with_header("Cookie", &format!("{OAK_USER_COOKIE}={user}"));
        let resp = fetch_tcp(addr, &reload).unwrap();
        delivered = resp.body_text();
        if delivered.contains("replica-") {
            saw_rewrite = true;
            break;
        }
    }
    let activations = service.with_oak(|oak| {
        oak.log()
            .iter()
            .filter(|e| matches!(e.action, oak::core::engine::LogAction::Activated { .. }))
            .count()
    });
    server.shutdown();
    (activations, saw_rewrite)
}

/// Serve corpus sites' real generated HTML through the proxy, report
/// simulated measurements, observe the rewrite over the wire. Whether a
/// given site shows a *visible* rewrite depends on which provider
/// misbehaves for this client (a hidden/dynamic provider's rule activates
/// without a textual match), so the test drives several sites and
/// requires at least one to rewrite and several to activate.
#[test]
fn corpus_sites_through_live_proxy() {
    let corpus = Corpus::generate(&CorpusConfig {
        sites: 5,
        seed: 777,
        providers: 30,
        persistent_impairment_rate: 0.5,
        ..CorpusConfig::default()
    });
    let mut total_activations = 0;
    let mut any_rewrite = false;
    for site_index in 0..corpus.sites.len() {
        let (activations, rewrote) = run_site(&corpus, site_index);
        total_activations += activations;
        any_rewrite |= rewrote;
    }
    assert!(
        total_activations > 0,
        "rules should activate from reported measurements"
    );
    assert!(
        any_rewrite,
        "at least one site's served page should be visibly rewritten"
    );
}
