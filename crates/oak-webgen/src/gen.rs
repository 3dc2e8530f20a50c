//! Corpus generation.

use std::collections::BTreeMap;

use oak_net::{
    ClientId, Impairment, ImpairmentKind, Quality, Region, ServerId, SimTime, StatelessRng,
    WorldBuilder,
};

use crate::model::{Category, Corpus, CorpusConfig, Inclusion, PageObject, Provider, Site};

/// Number of shared tag-manager hosts serving sites' loader scripts.
const TAG_MANAGERS: u64 = 4;

/// Adds the paper's 25 vantage points to a world: "half of which are in
/// North America, and the remainder evenly spread between Europe and Asia
/// (including Oceania)" (§5).
pub fn standard_clients(builder: &mut WorldBuilder) -> Vec<ClientId> {
    let mut clients = Vec::with_capacity(25);
    for _ in 0..13 {
        clients.push(builder.client(Region::NorthAmerica));
    }
    for _ in 0..6 {
        clients.push(builder.client(Region::Europe));
    }
    for _ in 0..4 {
        clients.push(builder.client(Region::Asia));
    }
    for _ in 0..2 {
        clients.push(builder.client(Region::Oceania));
    }
    clients
}

impl Corpus {
    /// Generates a corpus from `config`. Deterministic in `config.seed`.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        Generator::new(config).run()
    }
}

struct Generator<'c> {
    config: &'c CorpusConfig,
    builder: WorldBuilder,
    providers: Vec<Provider>,
    script_bodies: BTreeMap<String, String>,
}

impl<'c> Generator<'c> {
    fn new(config: &'c CorpusConfig) -> Generator<'c> {
        Generator {
            config,
            builder: WorldBuilder::new(config.seed),
            providers: Vec::new(),
            script_bodies: BTreeMap::new(),
        }
    }

    fn rng(&self, salt: u64, extra: u64) -> StatelessRng {
        StatelessRng::keyed(self.config.seed, &[salt, extra])
    }

    fn run(mut self) -> Corpus {
        self.make_providers();
        self.make_tag_managers();
        let replicas = self.make_replicas();
        let clients = standard_clients(&mut self.builder);
        let sites: Vec<Site> = (0..self.config.sites).map(|i| self.make_site(i)).collect();
        self.add_impairments();

        Corpus {
            world: self.builder.build(),
            providers: self.providers,
            sites,
            clients,
            replicas,
            script_bodies: self.script_bodies,
        }
    }

    // ------------------------------------------------------------------
    // Providers
    // ------------------------------------------------------------------

    fn make_providers(&mut self) {
        for i in 0..self.config.providers {
            let mut rng = self.rng(0x11, i as u64);
            let category = pick_category(&mut rng);
            let domain = provider_domain(category, i);
            // Popularity (low pool index) correlates with being well-run:
            // the doubleclicks and font APIs of the world are fast and
            // globally distributed; the long tail is where single-homed
            // and under-provisioned providers live. Without this coupling
            // a single popular-but-poor provider contaminates half the
            // corpus, which real Alexa-500 pages do not show.
            let popular = i < 25;
            let quality = if popular {
                // A top-25 provider appears on a large fraction of all
                // sites; one Poor or single-homed provider there would
                // mark hundreds of sites at once, which the paper's
                // census rules out. Popular services are well-run and
                // globally distributed.
                Quality::Good
            } else {
                pick_quality(category, &mut rng)
            };
            let region = pick_provider_region(&mut rng);
            let distributed = popular
                || rng.chance(match quality {
                    Quality::Good => 0.985,
                    Quality::Mediocre => 0.95,
                    Quality::Poor => 0.90,
                });
            let server = self
                .builder
                .server_opts(&domain, region, quality, distributed);
            // Popularity is Zipf-like in pool order: a handful of
            // providers (big font/ad networks) appear on most sites.
            let weight = 1.0 / ((i + 1) as f64).powf(0.85);
            self.providers.push(Provider {
                domain,
                server,
                category,
                weight,
                // Roughly a third of real third parties opt in to the
                // Resource Timing API; popular CDNs more often than the
                // long tail.
                timing_allow_origin: rng.chance(if popular { 0.6 } else { 0.3 }),
            });
        }
    }

    fn make_replicas(&mut self) -> Vec<ServerId> {
        [
            ("replica-na.example", Region::NorthAmerica),
            ("replica-eu.example", Region::Europe),
            ("replica-as.example", Region::Asia),
        ]
        .into_iter()
        .map(|(host, region)| {
            let id = self.builder.server(host, region, Quality::Good);
            // The paper's alternates are dedicated servers serving only
            // the experiment — idle, fast, and flat around the clock —
            // unlike the production third parties they stand in for.
            self.builder.tune_server(id, |s| {
                s.processing_ms = 5.0;
                s.bandwidth_kbps = 200_000.0;
                s.diurnal_amplitude = 0.05;
                s.affinity_neutral = true;
            });
            id
        })
        .collect()
    }

    /// The shared tag-manager hosts that serve sites' loader scripts.
    /// They sit past `config.providers` in the pool, so regular site
    /// sampling never picks them: a tag manager's only role on a page is
    /// the loader `<script src>` tag.
    fn make_tag_managers(&mut self) {
        for k in 0..TAG_MANAGERS {
            let domain = format!("tags.mgr{k}.example");
            let server =
                self.builder
                    .distributed_server(&domain, Region::NorthAmerica, Quality::Good);
            self.providers.push(Provider {
                domain,
                server,
                category: Category::AdsAnalytics,
                weight: 0.0,
                timing_allow_origin: true,
            });
        }
    }

    /// Weighted sample of `k` distinct provider indices from the regular
    /// pool (tag managers excluded).
    fn pick_providers(&self, rng: &mut StatelessRng, k: usize) -> Vec<usize> {
        let pool = &self.providers[..self.config.providers];
        let total: f64 = pool.iter().map(|p| p.weight).sum();
        let mut chosen = Vec::with_capacity(k);
        let mut attempts = 0;
        while chosen.len() < k && attempts < k * 40 {
            attempts += 1;
            let mut ticket = rng.next_f64() * total;
            let mut idx = 0;
            for (i, p) in pool.iter().enumerate() {
                ticket -= p.weight;
                if ticket <= 0.0 {
                    idx = i;
                    break;
                }
            }
            if !chosen.contains(&idx) {
                chosen.push(idx);
            }
        }
        chosen
    }

    // ------------------------------------------------------------------
    // Sites
    // ------------------------------------------------------------------

    fn make_site(&mut self, index: usize) -> Site {
        let mut rng = self.rng(0x22, index as u64);
        let host = format!("site{index:03}.example");
        let static_host = format!("static.site{index:03}.example");
        let origin_region = match rng.below(4) {
            0 | 1 => Region::NorthAmerica,
            2 => Region::Europe,
            _ => Region::Asia,
        };
        let origin_quality = if rng.chance(0.7) {
            Quality::Good
        } else {
            Quality::Mediocre
        };
        let origin = self.builder.server(&host, origin_region, origin_quality);
        self.builder.alias(&static_host, origin);

        // Object counts: total ≈ lognormal around 45, external fraction
        // centered near the paper's 75 % median (Fig. 1).
        let total = ((45.0 * rng.lognormal(0.65)) as usize).clamp(8, 200);
        let ext_fraction = (0.74 + rng.normal() * 0.13).clamp(0.2, 0.97);
        let external_count = ((total as f64 * ext_fraction) as usize).min(total);
        let origin_count = total - external_count;

        // Spread external objects over a weighted provider selection.
        let provider_count = ((external_count as f64 / 3.0).round() as usize)
            .clamp(2, 60)
            .min(external_count.max(2));
        let provider_indices = self.pick_providers(&mut rng, provider_count);

        let mut objects = Vec::with_capacity(total);
        // Origin-hosted assets, some on the static sub-domain (which must
        // NOT count as external).
        for j in 0..origin_count {
            let domain = if rng.chance(0.6) { &host } else { &static_host };
            let (path, bytes) = object_shape(Category::OriginAsset, j, &mut rng);
            let url = format!("http://{domain}{path}");
            // Half of same-host references are root-relative, as on real
            // pages; the browser resolves them against the page URL.
            let snippet = if domain == &host && rng.chance(0.5) {
                src_snippet(Category::OriginAsset, &path)
            } else {
                src_snippet(Category::OriginAsset, &url)
            };
            objects.push(PageObject {
                url,
                domain: domain.clone(),
                server: origin,
                bytes,
                category: Category::OriginAsset,
                inclusion: Inclusion::SrcAttr,
                external: false,
                snippet: Some(snippet),
            });
        }

        // External objects: each chosen provider gets a share and one
        // inclusion mechanism for this site.
        let mut loader_lines: Vec<String> = Vec::new();
        let mut loader_host: Option<String> = None;
        for (slot, &pi) in provider_indices.iter().enumerate() {
            let provider = self.providers[pi].clone();
            let share = (external_count / provider_indices.len()).max(1);
            let inclusion_draw = rng.next_f64();
            for j in 0..share {
                if objects.len() >= total {
                    break;
                }
                let (path, bytes) = object_shape(provider.category, slot * 16 + j, &mut rng);
                let url = format!("http://{}{path}", provider.domain);
                // Mechanism proportions calibrated to Fig. 8's medians:
                // 42 % direct, +18 % text, +21 % external JS, ~19 % dynamic.
                let (inclusion, snippet) = if inclusion_draw < 0.42 {
                    let s = src_snippet(provider.category, &url);
                    (Inclusion::SrcAttr, Some(s))
                } else if inclusion_draw < 0.60 {
                    let s = inline_script_snippet(&provider.domain, &path);
                    (Inclusion::InlineScript, Some(s))
                } else if inclusion_draw < 0.81 {
                    // Defer: collected into the site's loader script.
                    let lh = loader_host
                        .get_or_insert_with(|| self.pick_loader_host(index))
                        .clone();
                    let loader_url = format!("http://{lh}/loader-{index}.js");
                    loader_lines.push(format!("  oakFetch(\"{url}\");"));
                    (Inclusion::ExternalJs { loader_url }, None)
                } else {
                    (Inclusion::Dynamic, None)
                };
                objects.push(PageObject {
                    url,
                    domain: provider.domain.clone(),
                    server: provider.server,
                    bytes,
                    category: provider.category,
                    inclusion,
                    external: true,
                    snippet,
                });
            }
        }

        // Materialize the loader script body (one per site, if needed) and
        // account for the loader itself as a fetched object.
        let loader_tag = loader_host.as_ref().map(|lh| {
            let loader_url = format!("http://{lh}/loader-{index}.js");
            let body = format!(
                "// tag loader for {host}\nfunction oakFetch(u) {{ new Image().src = u; }}\n{}\n",
                loader_lines.join("\n")
            );
            let tag = format!(r#"<script src="{loader_url}"></script>"#);
            let manager = self
                .providers
                .iter()
                .find(|p| p.domain == *lh)
                .expect("tag manager exists")
                .clone();
            objects.push(PageObject {
                url: loader_url.clone(),
                domain: lh.clone(),
                server: manager.server,
                bytes: body.len() as u64,
                category: Category::AdsAnalytics,
                inclusion: Inclusion::SrcAttr,
                external: true,
                snippet: Some(tag.clone()),
            });
            self.script_bodies.insert(loader_url, body);
            tag
        });

        // Ad-chain-heavy sites: re-route directly-included ad scripts
        // through dependent loader chains. Keyed off a fresh salt, so
        // corpora generated without chains draw exactly the streams they
        // always did.
        if self.config.ad_chain_depth > 0 {
            let mut chain_rng = self.rng(0x55, index as u64);
            if chain_rng.chance(self.config.ad_heavy_fraction) {
                self.add_ad_chains(index, &mut objects, &mut chain_rng);
            }
        }

        let html = render_page(&host, &objects, loader_tag.as_deref());
        Site {
            host,
            origin,
            index_path: "/index.html".to_owned(),
            html,
            objects,
        }
    }

    /// Re-routes most of a site's directly-included ad scripts behind
    /// dependent loader chains, the adPerf page shape: the markup names
    /// only `chain…-0.js`, whose body fetches hop 1, whose body fetches
    /// hop 2, … until the last hop fetches the original ad object. Every
    /// hop is a small script hosted on the ad provider's own domain — on
    /// a desktop the chain is almost free, on a phone each hop pays the
    /// per-script CPU cost, which is exactly the device-induced slowness
    /// a detector must not blame on the provider.
    fn add_ad_chains(
        &mut self,
        site_index: usize,
        objects: &mut Vec<PageObject>,
        rng: &mut StatelessRng,
    ) {
        let depth = self.config.ad_chain_depth;
        let candidates: Vec<usize> = objects
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.external
                    && o.category == Category::AdsAnalytics
                    && matches!(o.inclusion, Inclusion::SrcAttr)
                    && o.snippet.is_some()
            })
            .map(|(i, _)| i)
            .collect();
        let mut chain_objects = Vec::new();
        for (slot, &oi) in candidates.iter().enumerate() {
            if !rng.chance(0.8) {
                continue;
            }
            let (domain, server, target_url) = {
                let o = &objects[oi];
                (o.domain.clone(), o.server, o.url.clone())
            };
            let hop_urls: Vec<String> = (0..depth)
                .map(|hop| format!("http://{domain}/chain{site_index}-{slot}-{hop}.js"))
                .collect();
            for hop in 0..depth {
                let next = hop_urls.get(hop + 1).unwrap_or(&target_url);
                let body = format!(
                    "// ad chain hop {hop} for {domain}\nfunction oakFetch(u) {{ new Image().src = u; }}\noakFetch(\"{next}\");\n"
                );
                chain_objects.push(PageObject {
                    url: hop_urls[hop].clone(),
                    domain: domain.clone(),
                    server,
                    bytes: body.len() as u64,
                    category: Category::AdsAnalytics,
                    inclusion: if hop == 0 {
                        Inclusion::SrcAttr
                    } else {
                        Inclusion::ExternalJs {
                            loader_url: hop_urls[hop - 1].clone(),
                        }
                    },
                    external: true,
                    snippet: (hop == 0)
                        .then(|| format!(r#"<script src="{}"></script>"#, hop_urls[hop])),
                });
                self.script_bodies.insert(hop_urls[hop].clone(), body);
            }
            // The original ad object now arrives only through the chain:
            // its markup snippet disappears and its inclusion is the last
            // hop's external-JS reference.
            objects[oi].snippet = None;
            objects[oi].inclusion = Inclusion::ExternalJs {
                loader_url: hop_urls.last().expect("depth > 0").clone(),
            };
        }
        objects.extend(chain_objects);
    }

    /// The host serving a site's tag-loader script: one of the shared
    /// tag-manager providers.
    fn pick_loader_host(&mut self, site_index: usize) -> String {
        let mut rng = self.rng(0x33, site_index as u64);
        format!("tags.mgr{}.example", rng.below(TAG_MANAGERS))
    }

    // ------------------------------------------------------------------
    // Impairments
    // ------------------------------------------------------------------

    fn add_impairments(&mut self) {
        let providers = self.providers.clone();
        for (i, provider) in providers.iter().enumerate() {
            let mut rng = self.rng(0x44, i as u64);
            // Persistent regional degradation: "about half of them are
            // consistent, appearing reliably" (Fig. 3 discussion).
            if rng.chance(self.config.persistent_impairment_rate) {
                let region = match rng.below(4) {
                    0 => Region::NorthAmerica,
                    1 => Region::Europe,
                    2 => Region::Asia,
                    _ => Region::Oceania,
                };
                self.builder.impairment(Impairment {
                    server: provider.server,
                    kind: ImpairmentKind::RegionalPathDegradation {
                        region,
                        severity: rng.uniform(3.0, 8.0),
                    },
                    window: None,
                });
            }
            // Transient congestion windows over a two-week horizon.
            let expected = self.config.transient_windows_per_week * 2.0;
            let count = (expected * rng.lognormal(0.4)).round() as u64;
            for _ in 0..count {
                let start_ms = rng.below(14 * 24 * 3_600_000);
                let duration_ms = (rng.exponential(4.0 * 3_600_000.0) as u64).max(600_000);
                self.builder.impairment(Impairment {
                    server: provider.server,
                    kind: ImpairmentKind::TransientCongestion {
                        severity: rng.uniform(3.0, 7.0),
                    },
                    window: Some((
                        SimTime::from_millis(start_ms),
                        SimTime::from_millis(start_ms + duration_ms),
                    )),
                });
            }
        }
    }
}

// ----------------------------------------------------------------------
// Content shaping
// ----------------------------------------------------------------------

fn pick_category(rng: &mut StatelessRng) -> Category {
    let draw = rng.next_f64();
    if draw < 0.40 {
        Category::AdsAnalytics
    } else if draw < 0.65 {
        Category::Cdn
    } else if draw < 0.77 {
        Category::Social
    } else if draw < 0.87 {
        Category::Fonts
    } else {
        Category::Video
    }
}

/// Quality mix by category: the problem tier skews ads/analytics/social,
/// matching Table 1's outlier census.
fn pick_quality(category: Category, rng: &mut StatelessRng) -> Quality {
    let draw = rng.next_f64();
    match category {
        Category::AdsAnalytics | Category::Social => {
            if draw < 0.12 {
                Quality::Poor
            } else if draw < 0.55 {
                Quality::Mediocre
            } else {
                Quality::Good
            }
        }
        Category::Cdn | Category::Fonts => {
            if draw < 0.02 {
                Quality::Poor
            } else if draw < 0.22 {
                Quality::Mediocre
            } else {
                Quality::Good
            }
        }
        Category::Video => {
            if draw < 0.04 {
                Quality::Poor
            } else if draw < 0.45 {
                Quality::Mediocre
            } else {
                Quality::Good
            }
        }
        Category::OriginAsset => Quality::Good,
    }
}

fn pick_provider_region(rng: &mut StatelessRng) -> Region {
    let draw = rng.next_f64();
    if draw < 0.45 {
        Region::NorthAmerica
    } else if draw < 0.70 {
        Region::Europe
    } else if draw < 0.90 {
        Region::Asia
    } else if draw < 0.95 {
        Region::Oceania
    } else {
        Region::SouthAmerica
    }
}

fn provider_domain(category: Category, index: usize) -> String {
    match category {
        Category::AdsAnalytics => format!("stats.adnet{index}.example"),
        Category::Cdn => format!("cdn{index}.edge.example"),
        Category::Social => format!("widgets.social{index}.example"),
        Category::Fonts => format!("fonts.api{index}.example"),
        Category::Video => format!("video.stream{index}.example"),
        Category::OriginAsset => format!("origin{index}.example"),
    }
}

/// Path and size for one object of a category. Sizes straddle the 50 KB
/// small/large split so both detection paths are exercised.
fn object_shape(category: Category, index: usize, rng: &mut StatelessRng) -> (String, u64) {
    let (ext, large_chance, large_max) = match category {
        Category::OriginAsset => ("css", 0.15, 300_000.0),
        Category::Cdn => ("png", 0.25, 600_000.0),
        Category::AdsAnalytics => ("js", 0.08, 150_000.0),
        Category::Social => ("js", 0.12, 200_000.0),
        Category::Fonts => ("woff", 0.30, 180_000.0),
        Category::Video => ("mp4", 0.70, 2_000_000.0),
    };
    let bytes = if rng.chance(large_chance) {
        // Floor at 120 KB: below that, connection setup dominates the
        // whole-object throughput, so a server's *size mix* would read
        // as a throughput deficit. Real "large" assets (bundles, media)
        // comfortably clear this.
        rng.uniform(120_000.0, f64::max(large_max, 400_000.0)) as u64
    } else {
        // Log-uniform: real small objects (beacons, snippets, icons)
        // cluster toward the bottom of the range, so per-server average
        // small-object times are dominated by path cost, not size draw —
        // a server's size mix must not read as a performance outlier.
        let ln = rng.uniform(800f64.ln(), 45_000f64.ln());
        ln.exp() as u64
    };
    (format!("/obj{index}.{ext}"), bytes)
}

/// The HTML block for a directly-included object. CDN images with an
/// even-length URL use the responsive `srcset` form (with the plain `src`
/// as fallback) so the pipeline exercises srcset extraction; the browser
/// fetches the object once either way.
fn src_snippet(category: Category, url: &str) -> String {
    match category {
        Category::AdsAnalytics | Category::Social => {
            format!(r#"<script src="{url}"></script>"#)
        }
        Category::Fonts => format!(r#"<link rel="stylesheet" href="{url}">"#),
        Category::Video => format!(r#"<video src="{url}"></video>"#),
        Category::Cdn if url.len().is_multiple_of(2) => {
            format!(r#"<img srcset="{url} 1x" src="{url}">"#)
        }
        Category::OriginAsset | Category::Cdn => format!(r#"<img src="{url}">"#),
    }
}

/// An inline script that constructs the URL programmatically — the
/// level-2 matching surface: the domain appears as a string, but no
/// well-formed URL does.
fn inline_script_snippet(domain: &str, path: &str) -> String {
    format!(
        "<script>\n(function() {{\n  var h = \"{domain}\";\n  var p = \"{path}\";\n  var img = new Image();\n  img.src = \"http://\" + h + p + \"?t=\" + Date.now();\n}})();\n</script>"
    )
}

fn render_page(host: &str, objects: &[PageObject], loader_tag: Option<&str>) -> String {
    let mut head = String::new();
    let mut body = String::new();
    for object in objects {
        let Some(snippet) = &object.snippet else {
            continue;
        };
        match object.category {
            Category::Fonts => {
                head.push_str(snippet);
                head.push('\n');
            }
            _ => {
                body.push_str(snippet);
                body.push('\n');
            }
        }
    }
    if let Some(tag) = loader_tag {
        head.push_str(tag);
        head.push('\n');
    }
    format!(
        "<!DOCTYPE html>\n<html>\n<head>\n<title>{host}</title>\n{head}</head>\n<body>\n<h1>Welcome to {host}</h1>\n{body}</body>\n</html>\n"
    )
}
