//! Seed-sweep driver for the deterministic fault simulator.
//!
//! CI soaks a seed range (`--seeds`/`--start`); a developer replays one
//! failure (`--seed N` or `--replay FILE`). On a violation the driver
//! minimizes the scenario with delta debugging, writes it as a JSON
//! artifact, prints the replay command, and exits nonzero — so a red CI
//! run always leaves behind a file that reproduces the bug locally.
//!
//! `--cluster` generates replicated-cluster scenarios (WAL shipping,
//! elections, network partitions); `--mixed` alternates single-node and
//! cluster shapes through one seed range, which is what CI soaks.
//!
//! Two self-check faults prove the harness has teeth:
//! `--buggy-dirsync` drops directory fsyncs in the simulated filesystem
//! (the pre-fix store behavior); `--buggy-promotion` grants election
//! votes without the replication-watermark check, the classic failover
//! bug that silently loses acknowledged writes.

use std::process::ExitCode;

use oak_sim::{
    minimize_with, run_any_scenario, ClusterSimOptions, RunStats, Scenario, SimFailure,
    SimFsOptions,
};

struct Args {
    seeds: u64,
    start: u64,
    seed: Option<u64>,
    replay: Option<String>,
    buggy_dirsync: bool,
    buggy_promotion: bool,
    cluster: bool,
    mixed: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 200,
        start: 0,
        seed: None,
        replay: None,
        buggy_dirsync: false,
        buggy_promotion: false,
        cluster: false,
        mixed: false,
        out: "SIM_FAILURE.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = parse_u64(&value("--seeds")?)?,
            "--start" => args.start = parse_u64(&value("--start")?)?,
            "--seed" => args.seed = Some(parse_u64(&value("--seed")?)?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--out" => args.out = value("--out")?,
            "--buggy-dirsync" => args.buggy_dirsync = true,
            "--buggy-promotion" => args.buggy_promotion = true,
            "--cluster" => args.cluster = true,
            "--mixed" => args.mixed = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.cluster && args.mixed {
        return Err("--cluster and --mixed are mutually exclusive".to_owned());
    }
    Ok(args)
}

const USAGE: &str = "usage: oak-sim [--seeds N] [--start S] [--seed X] [--replay FILE]\n\
                \x20              [--cluster | --mixed]\n\
                \x20              [--buggy-dirsync] [--buggy-promotion] [--out FILE]\n\
    --seeds N           sweep N consecutive seeds (default 200)\n\
    --start S           first seed of the sweep (default 0)\n\
    --seed X            run exactly one generated seed\n\
    --replay FILE       run a scenario JSON written by a previous failure\n\
    --cluster           generate replicated-cluster scenarios\n\
    --mixed             alternate single-node and cluster scenarios\n\
    --buggy-dirsync     simulate a disk that drops directory fsyncs\n\
    --buggy-promotion   grant election votes without the watermark check\n\
    --out FILE          failure artifact path (default SIM_FAILURE.json)";

fn parse_u64(text: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .map_err(|_| format!("{text:?} is not a non-negative integer"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("oak-sim: {err}");
            return ExitCode::from(2);
        }
    };
    let options = ClusterSimOptions {
        fs: SimFsOptions {
            ignore_dir_sync: args.buggy_dirsync,
        },
        buggy_promotion: args.buggy_promotion,
    };
    let generate = |seed: u64| -> Scenario {
        if args.cluster {
            Scenario::generate_cluster(seed)
        } else if args.mixed {
            Scenario::generate_mixed(seed)
        } else {
            Scenario::generate(seed)
        }
    };

    let scenarios: Vec<Scenario> = if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("oak-sim: cannot read {path}: {err}");
                return ExitCode::from(2);
            }
        };
        let doc = match oak_json::parse(&text) {
            Ok(doc) => doc,
            Err(err) => {
                eprintln!("oak-sim: {path} is not valid JSON: {err}");
                return ExitCode::from(2);
            }
        };
        // Accept both a bare scenario and the failure artifact this very
        // binary writes (scenario nested under "scenario").
        let scenario = Scenario::from_value(doc.get("scenario").unwrap_or(&doc));
        match scenario {
            Ok(scenario) => vec![scenario],
            Err(err) => {
                eprintln!("oak-sim: {path} does not decode as a scenario: {err}");
                return ExitCode::from(2);
            }
        }
    } else if let Some(seed) = args.seed {
        vec![generate(seed)]
    } else {
        (args.start..args.start.saturating_add(args.seeds))
            .map(generate)
            .collect()
    };

    let mut totals = RunStats::default();
    let mut ran = 0u64;
    let started = std::time::Instant::now();
    for scenario in &scenarios {
        match run_any_scenario(scenario, options) {
            Ok(stats) => {
                ran += 1;
                accumulate(&mut totals, &stats);
            }
            Err(failure) => return report_failure(scenario, &failure, options, &args.out),
        }
    }

    let elapsed = started.elapsed();
    println!(
        "oak-sim: {ran} scenario(s) clean in {:.2}s ({:.1}/s)",
        elapsed.as_secs_f64(),
        ran as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "  steps {}  requests {}  events {}  recoveries {}  invariant checks {}",
        totals.steps, totals.requests, totals.events, totals.recoveries, totals.invariant_checks,
    );
    println!(
        "  cluster: {} failovers, {} requests refused (503)",
        totals.failovers, totals.refused,
    );
    println!(
        "  storage faults: {} crashes, {} torn files, {} dir entries lost, \
         {} bytes garbled, {} ops failed",
        totals.fs.crashes,
        totals.fs.torn_files,
        totals.fs.lost_dir_entries,
        totals.fs.garbled_bytes,
        totals.fs.failed_ops,
    );
    println!(
        "  fetch: {} served, {} failed, {} hung",
        totals.fetch.served, totals.fetch.failed, totals.fetch.hung,
    );
    ExitCode::SUCCESS
}

fn accumulate(totals: &mut RunStats, stats: &RunStats) {
    totals.steps += stats.steps;
    totals.requests += stats.requests;
    totals.events += stats.events;
    totals.recoveries += stats.recoveries;
    totals.failovers += stats.failovers;
    totals.refused += stats.refused;
    totals.invariant_checks += stats.invariant_checks;
    totals.invariant_ns += stats.invariant_ns;
    totals.fs.crashes += stats.fs.crashes;
    totals.fs.torn_files += stats.fs.torn_files;
    totals.fs.lost_dir_entries += stats.fs.lost_dir_entries;
    totals.fs.garbled_bytes += stats.fs.garbled_bytes;
    totals.fs.failed_ops += stats.fs.failed_ops;
    totals.fetch.served += stats.fetch.served;
    totals.fetch.failed += stats.fetch.failed;
    totals.fetch.hung += stats.fetch.hung;
}

/// Minimizes the failure, writes the replayable artifact, and tells the
/// reader exactly how to reproduce it.
fn report_failure(
    scenario: &Scenario,
    failure: &SimFailure,
    options: ClusterSimOptions,
    out: &str,
) -> ExitCode {
    eprintln!("oak-sim: FAILURE: {failure}");
    eprintln!("oak-sim: minimizing ({} steps)...", scenario.steps.len());
    let run = |candidate: &Scenario| run_any_scenario(candidate, options).err();
    let (minimal, min_failure, runs) = match minimize_with(scenario, &run) {
        Some(result) => (result.scenario, result.failure, result.runs),
        // A flaky environment (not the simulation) is the only way the
        // re-run can pass; fall back to the original scenario.
        None => (scenario.clone(), failure.clone(), 0),
    };
    eprintln!(
        "oak-sim: minimized to {} of {} steps in {runs} re-runs",
        minimal.steps.len(),
        scenario.steps.len(),
    );

    let mut doc = oak_json::Value::object();
    doc.set("invariant", min_failure.invariant.as_str());
    doc.set("detail", min_failure.detail.as_str());
    doc.set("failing_step", min_failure.step as u64);
    doc.set("buggy_dirsync", options.fs.ignore_dir_sync);
    doc.set("buggy_promotion", options.buggy_promotion);
    doc.set("scenario", minimal.to_value());
    if let Err(err) = std::fs::write(out, doc.to_string()) {
        eprintln!("oak-sim: cannot write artifact {out}: {err}");
        return ExitCode::from(2);
    }
    let mut faults = String::new();
    if options.fs.ignore_dir_sync {
        faults.push_str(" --buggy-dirsync");
    }
    if options.buggy_promotion {
        faults.push_str(" --buggy-promotion");
    }
    eprintln!("oak-sim: wrote {out}");
    eprintln!("oak-sim: replay with `oak-sim --replay {out}{faults}`");
    let shape = if minimal.cluster.is_some() {
        " --cluster"
    } else {
        ""
    };
    eprintln!(
        "oak-sim: or regenerate with `oak-sim --seed {}{shape}{faults}`",
        min_failure.seed,
    );
    ExitCode::FAILURE
}
