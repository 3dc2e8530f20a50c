//! The Oak system: user-targeted web performance.
//!
//! This crate implements the paper's contribution end to end:
//!
//! 1. **Performance reports** ([`report`]): the compact HAR-like documents
//!    clients POST back — per object: URL, resolved server IP, byte size,
//!    download time (§4, §5 Implementation).
//! 2. **Performance analysis** ([`analysis`]): grouping report entries by
//!    the IP the client connected to, tracking all domain names involved,
//!    and averaging small-object times (< 50 KB) and large-object
//!    throughputs (≥ 50 KB) per server (§4.2).
//! 3. **Violator detection** ([`detect`]): the Median-Absolute-Deviation
//!    outlier test — a server is a violator when its small-object time
//!    exceeds `median + k·MAD` or its large-object throughput falls below
//!    `median − k·MAD`, with `k = 2` (§4.2.1).
//! 4. **Rules** ([`rule`], [`spec`]): the operator vocabulary — Type 1
//!    (remove), Type 2 (same object, alternative source), Type 3
//!    (different object), each with TTL, scope, sub-rules, a list of
//!    alternatives, and activation policy (§4.1, §4.2.4).
//! 5. **Connection-dependency matching** ([`matching`]): deciding whether
//!    a rule *caused* the connection to a violating server, at three
//!    escalating levels — direct `src` inclusion, domain text match, and
//!    one-level external-JavaScript expansion (§4.2.2, Fig. 8).
//! 6. **The engine** ([`engine`]): per-user state — rule activation,
//!    violation-count policies, TTL expiry, the rule-history
//!    distance-minimization rollback (§4.2.3) — and per-user page
//!    modification with the cache-hint response header (§4.3).
//!
//! The crate is transport- and testbed-agnostic: it never opens sockets
//! and never looks at a clock it isn't handed. `oak-server` binds it to
//! HTTP; `oak-client`/`oak-net` bind it to the simulated Internet.
//!
//! # Examples
//!
//! ```
//! use oak_core::prelude::*;
//!
//! // An operator rule: swap jQuery to a mirror if its CDN misbehaves.
//! let rule = Rule::replace_identical(
//!     r#"<script src="http://cdn-a.example/jquery.js">"#,
//!     [r#"<script src="http://cdn-b.example/jquery.js">"#],
//! );
//! let oak = Oak::new(OakConfig::default());
//! let rule_id = oak.add_rule(rule).unwrap();
//!
//! // A client report in which cdn-a.example is clearly the odd one out.
//! let mut report = PerfReport::new("u-1", "/index.html");
//! report.push(ObjectTiming::new("http://cdn-a.example/jquery.js", "10.0.0.1", 30_000, 900.0));
//! report.push(ObjectTiming::new("http://img.example/a.png", "10.0.0.2", 30_000, 80.0));
//! report.push(ObjectTiming::new("http://img.example/b.png", "10.0.0.2", 30_000, 95.0));
//! report.push(ObjectTiming::new("http://fonts.example/f.woff", "10.0.0.3", 30_000, 70.0));
//! report.push(ObjectTiming::new("http://api.example/d.js", "10.0.0.4", 30_000, 90.0));
//!
//! let outcome = oak.ingest_report(Instant::ZERO, &report, &NoFetch);
//! assert_eq!(outcome.activated, vec![rule_id]);
//!
//! // The user's next page is rewritten to the mirror.
//! let page = r#"<script src="http://cdn-a.example/jquery.js"></script>"#;
//! let modified = oak.modify_page(Instant::ZERO, "u-1", "/index.html", page);
//! assert!(modified.html.contains("cdn-b.example"));
//! ```

pub mod aggregates;
pub mod analysis;
pub mod audit;
pub mod detect;
pub mod engine;
pub mod events;
pub mod fetch;
pub mod intern;
pub mod matching;
pub mod obs;
pub mod report;
pub mod rule;
pub mod spec;
pub mod stats;
pub mod wire;

mod time;

pub use time::Instant;

/// The response header Oak uses to tell clients that an object moved hosts
/// under a Type 2 rule, so a cached copy fetched from the old host remains
/// usable (§4.3). Value format: comma-separated `old-host=new-host` pairs.
pub const OAK_ALTERNATE_HEADER: &str = "X-Oak-Alternate";

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::analysis::{PageAnalysis, ServerStats};
    pub use crate::detect::{DetectorConfig, OutlierMethod, Violation, ViolationKind};
    pub use crate::engine::{IngestOutcome, ModifiedPage, Oak, OakConfig};
    pub use crate::fetch::{FetchPolicy, FetchSnapshot, FetchStats, ResilientFetcher};
    pub use crate::matching::{MatchLevel, NoFetch, ScriptFetcher};
    pub use crate::obs::CoreMetrics;
    pub use crate::report::{DeviceClass, ObjectTiming, PerfReport};
    pub use crate::rule::{
        ActivationPolicy, ClientFilter, Rule, RuleId, RuleType, SelectionPolicy, SubRule,
    };
    pub use crate::Instant;
    pub use crate::OAK_ALTERNATE_HEADER;
}

#[cfg(test)]
mod tests;
