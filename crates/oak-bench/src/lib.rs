//! Experiment harness for the Oak reproduction.
//!
//! The `repro` binary reproduces every table and figure of the paper as
//! one table of claims ([`paper::ROWS`]), checks each against its band,
//! and regenerates `BENCH_paper.json` and EXPERIMENTS.md's exhibit
//! tables. This library holds its machinery:
//!
//! - [`paper`]: the rows, their claims, and the shared [`paper::Paper`]
//!   context every row runs on,
//! - [`support`]: CDF and fraction helpers,
//! - [`benchworld`]: the §5.1/§5.2 controlled worlds (sensitivity and
//!   benchmark-detection experiments, Figs. 9–11),
//! - [`matchrate`]: per-site connection-dependency match rates (Fig. 8,
//!   Table 2),
//! - [`replicated`]: the §5.3 replicated-sites experiment shared by
//!   Figs. 12–14 and Tables 2–3.
//!
//! Run it with `cargo run --release -p oak-bench --bin repro`; DESIGN.md
//! §4 indexes the rows and EXPERIMENTS.md records the last run. The
//! `bench_*` binaries and `oak-load` measure the serving stack, not the
//! paper.

pub mod alloc;
pub mod benchworld;
pub mod contention;
pub mod durability;
pub mod matchrate;
pub mod paper;
pub mod replicated;
pub mod resilience;
pub mod support;

#[cfg(test)]
mod tests;
