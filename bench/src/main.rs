//! One end-to-end benchmark for the Oak serving stack.
//!
//! Boots the real stack in-process (epoll edge, two workers, in front of
//! `OakService`), drives it over loopback TCP from two closed-loop clients,
//! checks every output, and prints every metric by name with its unit. See
//! `bench/README.md` for the catalogue and `BENCHMARK.json` for the bounds.

mod alloc;
mod catalog;
mod client;
mod gen;
mod host;
mod layers;
mod run;
mod stack;
mod trace;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use oak_json::Value;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The four traffic mixes. Names are fixed; later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100 % page GETs against a memory-only service.
    PageServe,
    /// 100 % report POSTs, JSON and binary alternating, memory-only.
    ReportIngest,
    /// Page GET then the same user's report POST, plus a scrape per
    /// thousand, against a durable service with the shipped store options.
    DurableMixed,
    /// Report POSTs to the lease holder of a three-member group.
    ReplicatedIngest,
}

impl Workload {
    /// In the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PageServe,
        Workload::ReportIngest,
        Workload::DurableMixed,
        Workload::ReplicatedIngest,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PageServe => "page-serve",
            Workload::ReportIngest => "report-ingest",
            Workload::DurableMixed => "durable-mixed",
            Workload::ReplicatedIngest => "replicated-ingest",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

const USAGE: &str = "\
usage: bench-e2e [--seed N] [--seconds S] [--workload NAME] [--trace 0|1]
                 [--no-trace | --traced-only] [--aa K]

  --seed N        workload seed (default 1); the same seed gives the same requests
  --seconds S     length of the measured window (default 30)
  --workload W    page-serve | report-ingest | durable-mixed | replicated-ingest
  --trace 0|1     run W once in this process: 0 prints the end-to-end metrics,
                  1 the per-layer ones; the last line of output is one JSON object
  --no-trace      without --trace: run only the untraced pass of each workload
  --traced-only   without --trace: run only the traced pass of each workload
  --aa K          run the whole set K times and print each end-to-end metric's
                  spread against its bound
";

struct Args {
    seed: u64,
    seconds: u64,
    workload: Option<Workload>,
    trace: Option<bool>,
    untraced_pass: bool,
    traced_pass: bool,
    aa: usize,
    setup_probe: bool,
    attempt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: 30,
        workload: None,
        trace: None,
        untraced_pass: true,
        traced_pass: true,
        aa: 1,
        setup_probe: false,
        attempt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 600")?;
            }
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--no-trace" => args.traced_pass = false,
            "--traced-only" => args.untraced_pass = false,
            "--aa" => {
                args.aa = value()?
                    .parse()
                    .ok()
                    .filter(|k| (2..=20).contains(k))
                    .ok_or("--aa needs a whole number from 2 to 20")?;
            }
            // Internal: one set-up in a fresh process, timed and torn down.
            "--setup-probe" => args.setup_probe = true,
            // Internal: this process is one attempt of a run its parent may
            // repeat.
            "--attempt" => args.attempt = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if (args.trace.is_some() || args.setup_probe) && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    if !args.untraced_pass && !args.traced_pass {
        return Err("--no-trace and --traced-only exclude each other".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match (args.workload, args.trace, args.setup_probe) {
        (Some(workload), _, true) => run::setup_probe(workload, args.seed),
        (Some(Workload::ReplicatedIngest), Some(traced), false) if !args.attempt => {
            replicated_with_retries(&args, traced)
        }
        (Some(workload), Some(traced), false) => {
            run::single(workload, args.seed, args.seconds, traced)
        }
        _ => whole_set(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench-e2e: {message}");
            if message.starts_with(run::LEASE_MOVED) {
                ExitCode::from(LEASE_MOVED_EXIT)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Exit code of an attempt abandoned because the group's lease moved.
pub const LEASE_MOVED_EXIT: u8 = 75;
/// Attempts at a `replicated-ingest` run before giving up.
const ATTEMPTS: usize = 3;

/// Runs `replicated-ingest` in a child process and again if the lease moved
/// under it.
///
/// The three members share this process and this host. A host stall longer
/// than the 200 ms election timeout stops all their clocks at once; when it
/// ends the followers have heard no heartbeat for that long, elect, and the
/// primary the clients talk to is deposed. That measures the hypervisor,
/// not the product, and on this kind of host it happens about once in ten
/// runs. Cluster threads cannot be stopped, so the retry is a new process.
/// Every attempt is printed; only a clean one yields the result line.
fn replicated_with_retries(args: &Args, traced: bool) -> Result<bool, String> {
    for attempt in 1..=ATTEMPTS {
        let mut run = single_run_args(Workload::ReplicatedIngest, args, traced);
        run.push("--attempt".into());
        let (_, code) = run_child(&run, true)?;
        if code != Some(i32::from(LEASE_MOVED_EXIT)) {
            return Ok(code == Some(0));
        }
        println!(
            "attempt {attempt} of {ATTEMPTS} abandoned: {}",
            run::LEASE_MOVED
        );
    }
    Err(format!(
        "{} in every one of {ATTEMPTS} attempts",
        run::LEASE_MOVED
    ))
}

/// The arguments of one pass of one workload in a process of its own.
fn single_run_args(workload: Workload, args: &Args, traced: bool) -> Vec<String> {
    [
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]
    .map(str::to_owned)
    .to_vec()
}

/// Runs this binary again with `extra`, echoes what it prints, and returns
/// its last line and its exit code. Each pass of each workload runs
/// in a process of its own, so cluster threads and resident memory never
/// leak from one into the next.
pub fn run_child(extra: &[String], echo: bool) -> Result<(String, Option<i32>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if echo {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    Ok((last, status.code()))
}

/// The default mode: every chosen workload, untraced pass then traced
/// pass, `--aa` times over; ends with the end-to-end table.
fn whole_set(args: &Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_ok = true;
    // [workload][metric] -> one value per repetition.
    let mut seen: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); workloads.len()];
    for repetition in 0..args.aa {
        for (w, workload) in workloads.iter().enumerate() {
            for traced in [false, true] {
                if (traced && !args.traced_pass) || (!traced && !args.untraced_pass) {
                    continue;
                }
                println!(
                    "\n=== {} · {} pass · repetition {} of {} ===",
                    workload.name(),
                    if traced { "traced" } else { "untraced" },
                    repetition + 1,
                    args.aa
                );
                let (last, code) = run_child(&single_run_args(*workload, args, traced), true)?;
                all_ok &= code == Some(0);
                if traced {
                    continue;
                }
                let Ok(doc) = oak_json::parse(&last) else {
                    continue;
                };
                for (name, _, _) in catalog::END_TO_END {
                    let value = doc
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64);
                    let Some(value) = value else { continue };
                    match seen[w].iter_mut().find(|(n, _)| n == name) {
                        Some((_, values)) => values.push(value),
                        None => seen[w].push(((*name).to_owned(), vec![value])),
                    }
                }
            }
        }
    }
    if args.untraced_pass {
        all_ok &= print_summary(&workloads, &seen, args.aa);
    }
    Ok(all_ok)
}

/// Bounds as `BENCHMARK.json` fixes them.
fn bounds() -> Vec<(String, f64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| oak_json::parse(&t).ok())
    else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Prints min / median / max of every end-to-end metric per workload and,
/// with repetitions, its spread against its bound. Returns false when a
/// spread exceeds its bound: that bound has to be widened (or the metric
/// demoted to a per-layer one), never left as is.
fn print_summary(
    workloads: &[Workload],
    seen: &[Vec<(String, Vec<f64>)>],
    repetitions: usize,
) -> bool {
    let bounds = bounds();
    let mut within = true;
    println!("\n=== end-to-end summary ({repetitions} repetition(s)) ===");
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (workload, metrics) in workloads.iter().zip(seen) {
        for (name, values) in metrics {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let median = if sorted.len() % 2 == 1 {
                sorted[sorted.len() / 2]
            } else {
                (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
            };
            let spread = if median > 0.0 {
                (max - min) / median
            } else {
                0.0
            };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let flag = match bound {
                Some(bound) if repetitions > 1 && name != "setup_s" && spread > bound => {
                    within = false;
                    "  <-- spread exceeds bound"
                }
                _ => "",
            };
            println!(
                "{:<18} {:<24} {:>12.3} {:>12.3} {:>12.3} {:>8.3} {:>6}{flag}",
                workload.name(),
                name,
                min,
                median,
                max,
                spread,
                bound.map_or("-".to_owned(), |b| format!("{b:.2}")),
            );
        }
    }
    within
}
