//! # Oak: user-targeted web performance
//!
//! This facade crate re-exports the full Oak workspace, a reproduction of
//! *Oak: User-Targeted Web Performance* (Flores, Wenzel, Kuzmanovic — ICDCS
//! 2017 / NU-EECS-16-10).
//!
//! Oak lets a site operator act on per-user, client-reported performance:
//! clients send compact per-object performance reports; Oak groups objects by
//! the server IP they were fetched from, flags *violators* with a
//! median-absolute-deviation test, matches violators against operator rules
//! via connection-dependency analysis, and rewrites outgoing pages per user
//! to route around under-performing external providers.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`core`] | `oak-core` | the paper's contribution: detection, rules, matching, rewriting |
//! | [`client`] | `oak-client` | simulated Oak-enabled browser (report generation) |
//! | [`server`] | `oak-server` | Oak proxy daemon over HTTP |
//! | [`net`] | `oak-net` | deterministic network/latency model with DNS and diurnal load |
//! | [`http`] | `oak-http` | from-scratch HTTP/1.1: messages, framing, limits, blocking client |
//! | [`edge`] | `oak-edge` | the HTTP server: non-blocking epoll/poll reactor + worker pool |
//! | [`html`] | `oak-html` | HTML tokenizer and span rewriter |
//! | [`webgen`] | `oak-webgen` | synthetic Alexa-like site corpus generator |
//! | [`json`] | `oak-json` | from-scratch JSON used by the report wire format |
//! | [`pattern`] | `oak-pattern` | regex/glob engine for rule scopes |
//! | [`store`] | `oak-store` | durability: write-ahead log, snapshots, crash recovery |
//! | [`obs`] | `oak-obs` | observability: histograms, counters, span traces, Prometheus exposition |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: build a world, load a
//! page, submit a report, watch Oak activate a rule and rewrite the page.

pub use oak_client as client;
pub use oak_core as core;
pub use oak_edge as edge;
pub use oak_html as html;
pub use oak_http as http;
pub use oak_json as json;
pub use oak_net as net;
pub use oak_obs as obs;
pub use oak_pattern as pattern;
pub use oak_server as server;
pub use oak_store as store;
pub use oak_webgen as webgen;
