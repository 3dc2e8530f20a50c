//! The simulated browser.

use std::collections::HashSet;

use oak_core::report::{DeviceClass, ObjectTiming, PerfReport};
use oak_html::Document;
use oak_net::{url_nonce, ClientId, DeviceProfile, SimTime};
use oak_webgen::{Inclusion, Site};

use crate::universe::{original_url, Universe};

/// How the client gathers the measurements it reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReportingMode {
    /// The paper's modified-browser client: every fetch is measured and
    /// reported (§5, Implementation).
    #[default]
    ModifiedBrowser,
    /// The JavaScript Resource Timing API alternative §6 discusses:
    /// timings for third parties are only visible when the provider
    /// opts in with `Timing-Allow-Origin`, so the report omits
    /// non-opted-in fetches — "rendering Oak less effective".
    ResourceTimingApi,
}

/// Browser knobs.
#[derive(Clone, Copy, Debug)]
pub struct BrowserConfig {
    /// Concurrent connections (browsers commonly use 6 per host; the
    /// scheduler applies it globally, which is what dominates makespan on
    /// multi-host pages).
    pub parallelism: usize,
    /// Whether the object cache is on. The paper's benchmark objects are
    /// served with no-cache headers (§5.2), so experiments default to off.
    pub caching: bool,
    /// How measurements reach the report.
    pub reporting: ReportingMode,
    /// HTTP keep-alive: after the first object from a host in a page
    /// load, further objects skip the TCP handshake. Off by default —
    /// the calibrated experiments price each object with a fresh
    /// connection, like the paper's uncached benchmark loads.
    pub keep_alive: bool,
    /// The hardware class this browser runs on. `None` (the default)
    /// is the testbed baseline: no device-side costs, and reports carry
    /// no device class — timings and wire bytes are identical to the
    /// pre-device client. `Some(profile)` adds the profile's radio
    /// latency to every network fetch and its CPU cost to every script,
    /// and stamps reports with the matching [`DeviceClass`].
    pub device: Option<DeviceProfile>,
}

impl Default for BrowserConfig {
    fn default() -> BrowserConfig {
        BrowserConfig {
            parallelism: 6,
            caching: false,
            reporting: ReportingMode::ModifiedBrowser,
            keep_alive: false,
            device: None,
        }
    }
}

/// One object fetch during a page load.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectFetch {
    /// The fetched URL (post-rewrite if Oak modified the page).
    pub url: String,
    /// Hostname the URL named.
    pub domain: String,
    /// Resolved server IP (dotted quad).
    pub ip: String,
    /// Object size, bytes.
    pub bytes: u64,
    /// Download time, ms (zero for cache hits).
    pub time_ms: f64,
    /// True if served from the browser cache.
    pub from_cache: bool,
}

/// The result of one page load.
#[derive(Clone, Debug)]
pub struct PageLoad {
    /// Page load time: index fetch plus the parallel-fetch makespan, ms.
    pub plt_ms: f64,
    /// Time to fetch the index document alone, ms.
    pub index_ms: f64,
    /// Every object fetch, in discovery order.
    pub fetches: Vec<ObjectFetch>,
    /// The performance report the client POSTs back to Oak (network
    /// fetches only; cache hits involve no server and are not reported).
    pub report: PerfReport,
}

impl PageLoad {
    /// Total bytes transferred (excluding cache hits).
    pub fn bytes_transferred(&self) -> u64 {
        self.fetches
            .iter()
            .filter(|f| !f.from_cache)
            .map(|f| f.bytes)
            .sum()
    }

    /// Exports the load as a minimal HAR-shaped JSON document (the paper's
    /// client reuses "infrastructure designed for use with outputting HAR
    /// files", §5). Useful for eyeballing a load in standard HAR viewers;
    /// the report Oak actually consumes is [`PageLoad::report`].
    pub fn to_har_json(&self) -> String {
        let mut entries = oak_json::Value::array();
        for fetch in &self.fetches {
            let mut request = oak_json::Value::object();
            request.set("method", "GET");
            request.set("url", fetch.url.as_str());

            let mut response = oak_json::Value::object();
            response.set("status", if fetch.from_cache { 304u64 } else { 200 });
            response.set("bodySize", fetch.bytes);

            let mut entry = oak_json::Value::object();
            entry.set("request", request);
            entry.set("response", response);
            entry.set("time", fetch.time_ms);
            entry.set("serverIPAddress", fetch.ip.as_str());
            entry.set("_fromCache", fetch.from_cache);
            entries.push(entry);
        }

        let mut page = oak_json::Value::object();
        page.set("id", "page_1");
        page.set("title", self.report.page.as_str());
        let mut timings = oak_json::Value::object();
        timings.set("onLoad", self.plt_ms);
        page.set("pageTimings", timings);

        let mut creator = oak_json::Value::object();
        creator.set("name", "oak-client");
        creator.set("version", env!("CARGO_PKG_VERSION"));

        let mut log = oak_json::Value::object();
        log.set("version", "1.2");
        log.set("creator", creator);
        log.set("pages", oak_json::Value::Array(vec![page]));
        log.set("entries", entries);

        let mut doc = oak_json::Value::object();
        doc.set("log", log);
        doc.to_string()
    }
}

/// A stateful simulated browser for one (user, vantage point) pair.
///
/// State persisting across loads: the object cache and DNS cache.
/// The Oak user id is the value of the identifying cookie the server
/// assigned (§4); the experiments derive it from the client id.
#[derive(Clone, Debug)]
pub struct Browser {
    /// The vantage point this browser runs at.
    pub client: ClientId,
    /// The Oak user-cookie value.
    pub user: String,
    config: BrowserConfig,
    cache: HashSet<String>,
    dns_cache: HashSet<String>,
}

impl Browser {
    /// A fresh browser with empty caches.
    pub fn new(client: ClientId, user: impl Into<String>, config: BrowserConfig) -> Browser {
        Browser {
            client,
            user: user.into(),
            config,
            cache: HashSet::new(),
            dns_cache: HashSet::new(),
        }
    }

    /// Clears object and DNS caches.
    pub fn clear_caches(&mut self) {
        self.cache.clear();
        self.dns_cache.clear();
    }

    /// Number of cached objects.
    pub fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    /// The device class this browser stamps on its reports: the device
    /// profile's class, or `Unknown` (no class, v1 wire frames) when no
    /// profile is configured.
    fn device_class(&self) -> DeviceClass {
        self.config
            .device
            .and_then(|p| DeviceClass::parse(p.label))
            .unwrap_or_default()
    }

    /// Loads `site`'s page as delivered in `html` (the Oak-modified
    /// markup; pass `site.html` for the default page), at simulated time
    /// `t`. `alternate_hints` is the parsed `X-Oak-Alternate` header —
    /// `(old_host, new_host)` pairs enabling cache reuse across a Type 2
    /// host swap.
    pub fn load_page(
        &mut self,
        universe: &Universe<'_>,
        site: &Site,
        html: &str,
        alternate_hints: &[(String, String)],
        t: SimTime,
    ) -> PageLoad {
        let world = &universe.corpus().world;

        // --- Index document -------------------------------------------
        let origin_ip = world.ip_of(site.origin);
        let index_fetch = world.fetch(t, self.client, origin_ip, html.len() as u64, 1);
        let mut index_ms = index_fetch.time_ms;
        if let Some(device) = self.config.device {
            // The index is markup, not script: the radio is the only
            // device cost on this fetch.
            index_ms += device.radio_rtt_ms;
        }

        // --- Discover subresources ------------------------------------
        let urls = self.discover(universe, site, html);

        // --- Fetch each one -------------------------------------------
        let mut fetches = Vec::with_capacity(urls.len());
        let mut report = PerfReport::new(self.user.clone(), site.index_path.clone())
            .with_device(self.device_class());
        let mut warm_hosts: HashSet<String> = HashSet::new();
        for url in urls {
            let fetch = self.fetch_object(universe, &url, alternate_hints, t, &mut warm_hosts);
            if let Some(f) = fetch {
                let visible = match self.config.reporting {
                    ReportingMode::ModifiedBrowser => true,
                    ReportingMode::ResourceTimingApi => universe.timing_allowed(&site.host, &f.url),
                };
                if !f.from_cache && visible {
                    report.push(ObjectTiming::new(
                        f.url.clone(),
                        f.ip.clone(),
                        f.bytes,
                        f.time_ms,
                    ));
                }
                fetches.push(f);
            }
        }

        // --- Page load time: bounded-parallel lane schedule ------------
        let mut lanes = vec![0.0f64; self.config.parallelism.max(1)];
        for f in &fetches {
            let lane = lanes
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).expect("finite"))
                .expect("at least one lane");
            *lane += f.time_ms;
        }
        let makespan = lanes.into_iter().fold(0.0f64, f64::max);

        PageLoad {
            plt_ms: index_ms + makespan,
            index_ms,
            fetches,
            report,
        }
    }

    /// Everything the delivered markup causes this browser to request, in
    /// discovery order: direct references, inline-script constructions,
    /// loader-script fetch lists, then the page's dynamic objects.
    fn discover(&self, universe: &Universe<'_>, site: &Site, html: &str) -> Vec<String> {
        let doc = Document::parse(html);
        let mut urls: Vec<String> = Vec::new();

        // Relative references (root-relative `/x.css`, sibling `x.css`,
        // protocol-relative `//host/x`) resolve against `<base href>` when
        // present, otherwise the page URL.
        let page_url = oak_http::Url::parse(&site.index_url()).ok();
        let base = match (doc.base_href(), &page_url) {
            (Some(href), Some(page)) => page.join(href).ok().or_else(|| page_url.clone()),
            _ => page_url,
        };
        // A real browser picks ONE srcset candidate per element; we take
        // the first (the 1x default).
        let mut srcset_spans_taken: HashSet<usize> = HashSet::new();
        for r in doc.external_refs() {
            if r.kind == oak_html::RefKind::SrcSet && !srcset_spans_taken.insert(r.span.start) {
                continue;
            }
            let url = if r.url.contains("://") {
                r.url.clone()
            } else if let Some(base) = &base {
                base.join(&r.url)
                    .map(|u| u.to_string())
                    .unwrap_or_else(|_| r.url.clone())
            } else {
                r.url.clone()
            };
            // "Execute" loader scripts: fetch list is the body's
            // oakFetch("…") lines — recursively, because a fetched
            // script may itself be a loader (ad chains).
            expand_script(universe, url, &mut urls, 0);
        }
        for script in doc.inline_scripts() {
            if let Some(url) = interpret_inline_script(&script.text) {
                urls.push(url);
            }
        }
        // Dynamic objects: invisible in markup, still fetched. Oak cannot
        // rewrite them, so they load from their default servers always.
        for object in &site.objects {
            if object.inclusion == Inclusion::Dynamic {
                urls.push(object.url.clone());
            }
        }
        // Browsers fetch each URL once per page (memory cache): an image
        // referenced by both `srcset` and its `src` fallback, or included
        // twice, costs one request.
        let mut seen = HashSet::new();
        urls.retain(|u| seen.insert(u.clone()));
        urls
    }

    fn fetch_object(
        &mut self,
        universe: &Universe<'_>,
        url: &str,
        alternate_hints: &[(String, String)],
        t: SimTime,
        warm_hosts: &mut HashSet<String>,
    ) -> Option<ObjectFetch> {
        let world = &universe.corpus().world;
        let domain = host_of(url)?;
        let bytes = universe.bytes_for(url);

        // Cache probe: the URL itself, or — with an X-Oak-Alternate hint —
        // the same object under its pre-swap URL (§4.3).
        if self.config.caching
            && (self.cache.contains(url)
                || cache_aliases(url, alternate_hints)
                    .iter()
                    .any(|alias| self.cache.contains(alias)))
        {
            return Some(ObjectFetch {
                url: url.to_owned(),
                domain,
                ip: String::new(),
                bytes,
                time_ms: 0.0,
                from_cache: true,
            });
        }

        let ip = world.resolve(&domain, self.client)?;
        let warm = self.config.keep_alive && !warm_hosts.insert(domain.clone());
        let mut time_ms = world
            .fetch_opts(t, self.client, ip, bytes, url_nonce(url), warm)
            .time_ms;
        if !self.dns_cache.contains(&domain) {
            time_ms += world.dns_lookup_ms(t, self.client, url_nonce(&domain));
            self.dns_cache.insert(domain.clone());
        }
        if let Some(device) = self.config.device {
            // Device-side cost rides on the object's measured time: the
            // client's timer spans request-to-executed, so the report
            // attributes the device's own radio and CPU to whatever
            // server the object came from — exactly the confound a
            // within-report detector cannot cancel.
            time_ms += device.object_cost_ms(bytes, is_script_url(url));
        }
        if self.config.caching {
            self.cache.insert(url.to_owned());
        }
        Some(ObjectFetch {
            url: url.to_owned(),
            domain,
            ip: ip.to_string(),
            bytes,
            time_ms,
            from_cache: false,
        })
    }
}

/// URLs under which this object may already be cached, given the Oak
/// alternate hints: map the URL's host back through each `new → old` pair,
/// and un-nest replica URLs.
fn cache_aliases(url: &str, hints: &[(String, String)]) -> Vec<String> {
    let mut aliases = Vec::new();
    if let Some(orig) = original_url(url) {
        aliases.push(orig);
    }
    if let Some(host) = host_of(url) {
        for (old, new) in hints {
            if *new == host {
                aliases.push(url.replacen(new.as_str(), old.as_str(), 1));
            }
        }
    }
    aliases
}

/// The hostname of an absolute URL.
fn host_of(url: &str) -> Option<String> {
    let rest = url.split_once("://")?.1;
    let host = rest.split(['/', '?', '#']).next()?;
    let host = host.split(':').next()?;
    (!host.is_empty()).then(|| host.to_ascii_lowercase())
}

/// Deepest loader-in-loader nesting the browser will execute. Real ad
/// chains run a handful of hops; the cap is a cycle guard, not a tuning
/// knob.
const MAX_SCRIPT_EXPANSION_DEPTH: usize = 16;

/// "Executes" a discovered script URL: expands its loader body's fetch
/// list first (each fetched URL may itself be a loader — ad chains nest),
/// then records the URL itself. Non-loader URLs just get recorded, so on
/// chain-free pages the discovery order is exactly the flat expansion.
fn expand_script(universe: &Universe<'_>, url: String, urls: &mut Vec<String>, depth: usize) {
    if depth < MAX_SCRIPT_EXPANSION_DEPTH {
        if let Some(body) = universe.script_body(&url) {
            for fetched in parse_loader_body(&body) {
                expand_script(universe, fetched, urls, depth + 1);
            }
        }
    }
    urls.push(url);
}

/// Whether a URL names script — the objects whose device-side CPU cost a
/// [`DeviceProfile`] prices. Query and fragment are ignored.
fn is_script_url(url: &str) -> bool {
    let path = url.split(['?', '#']).next().unwrap_or(url);
    path.ends_with(".js")
}

/// Extracts the fetch list from a loader-script body: every
/// `oakFetch("URL")` line.
fn parse_loader_body(body: &str) -> Vec<String> {
    let mut urls = Vec::new();
    let mut rest = body;
    while let Some(found) = rest.find("oakFetch(\"") {
        let after = &rest[found + "oakFetch(\"".len()..];
        if let Some(end) = after.find('"') {
            urls.push(after[..end].to_owned());
            rest = &after[end..];
        } else {
            break;
        }
    }
    urls
}

/// Interprets the corpus's inline-script idiom:
/// `var h = "<host-or-host/prefix>"; var p = "<path>"` →
/// `http://<h><p>`. Returns `None` when the script does not follow the
/// idiom (a real page's arbitrary script — nothing to fetch).
fn interpret_inline_script(text: &str) -> Option<String> {
    let h = extract_var(text, "h")?;
    let p = extract_var(text, "p")?;
    Some(format!("http://{h}{p}"))
}

fn extract_var(text: &str, name: &str) -> Option<String> {
    let needle = format!("var {name} = \"");
    let start = text.find(&needle)? + needle.len();
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_owned())
}
