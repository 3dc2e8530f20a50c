//! Where the process spends its CPU, by thread class.
//!
//! At scrape time [`families`] reads every thread of this process from
//! `/proc/self/task/*/{comm,schedstat,status}` and sums its on-CPU time
//! and its voluntary and involuntary context switches by **class**: the
//! thread's name with its trailing index stripped, so `oak-edge-worker-0`
//! and `oak-edge-worker-1` are one `oak-edge-worker`. The kernel keeps 15
//! bytes of a thread name, so every class the product spawns is named
//! within them; an index cut off there leaves the class whole. A count
//! per request — switches, CPU — then comes from the difference of two
//! scrapes, with no code beside the server's own.
//!
//! A thread's counts leave the sums when it exits, so a class whose
//! threads come and go can read lower than before. Off Linux there is no
//! `/proc/self/task`, and both families are absent.

use std::collections::BTreeMap;

use crate::expo::{Family, FamilyKind, Series, SeriesValue};

/// One class's totals over its live threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassTotals {
    /// On-CPU nanoseconds (`schedstat`'s first field).
    pub cpu_ns: u64,
    /// Context switches the threads asked for: blocking on a lock, a
    /// condvar, a socket.
    pub voluntary: u64,
    /// Context switches the scheduler imposed.
    pub involuntary: u64,
}

/// The class of a thread named `name`: the name without a trailing index
/// and the separator before it. A name that is all index is its own
/// class.
pub fn class_of(name: &str) -> &str {
    let stem = name.trim_end_matches(|c: char| c.is_ascii_digit());
    if stem.len() == name.len() {
        return name;
    }
    match stem.trim_end_matches(['-', '_', '.', ' ']) {
        "" => name,
        class => class,
    }
}

/// This process's threads summed by class, or `None` where
/// `/proc/self/task` cannot be read.
pub fn read() -> Option<BTreeMap<String, ClassTotals>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut classes: BTreeMap<String, ClassTotals> = BTreeMap::new();
    for task in tasks.flatten() {
        let dir = task.path();
        // A thread that exits mid-walk just drops out of the sums.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let cpu_ns = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        let field = |key: &str| -> u64 {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.trim().parse().ok())
                .unwrap_or(0)
        };
        let totals = classes
            .entry(class_of(comm.trim_end_matches('\n')).to_owned())
            .or_default();
        totals.cpu_ns += cpu_ns;
        totals.voluntary += field("voluntary_ctxt_switches:");
        totals.involuntary += field("nonvoluntary_ctxt_switches:");
    }
    Some(classes)
}

/// `oak_thread_cpu_seconds_total{class}` and
/// `oak_thread_switches_total{class,kind}` as of now; empty where
/// [`read`] is `None`.
pub fn families() -> Vec<Family> {
    let Some(classes) = read() else {
        return Vec::new();
    };
    let series = |labels: &[(&str, &str)], value: f64| Series {
        labels: labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        value: SeriesValue::Scalar(value),
    };
    let mut cpu = Vec::new();
    let mut switches = Vec::new();
    for (class, totals) in &classes {
        cpu.push(series(&[("class", class)], totals.cpu_ns as f64 / 1e9));
        for (kind, count) in [
            ("involuntary", totals.involuntary),
            ("voluntary", totals.voluntary),
        ] {
            switches.push(series(&[("class", class), ("kind", kind)], count as f64));
        }
    }
    vec![
        Family {
            name: "oak_thread_cpu_seconds_total".into(),
            help: "On-CPU time of this process's live threads, by thread class.".into(),
            kind: FamilyKind::Counter,
            series: cpu,
        },
        Family {
            name: "oak_thread_switches_total".into(),
            help: "Context switches of this process's live threads, by thread class \
                   and kind (voluntary: the thread blocked; involuntary: it was \
                   preempted)."
                .into(),
            kind: FamilyKind::Counter,
            series: switches,
        },
    ]
}
