//! What the host says about a run: CPU time of the server's own threads,
//! peak memory, and how much the hypervisor took away.

use std::fs;

/// On-CPU nanoseconds of every thread of this process whose name starts
/// with `oak-` — the edge reactor and workers and the cluster threads.
/// The benchmark's own threads are named `bench-*`, so what the clients
/// burn is not charged to the server.
pub fn server_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.starts_with("oak-"))
        })
        .filter_map(|task| {
            let schedstat = fs::read_to_string(task.path().join("schedstat")).ok()?;
            schedstat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

extern "C" {
    // From the C library `std` already links; declared here because the
    // build has no `libc` crate.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a kernel CPU mask: room for 1,024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// `cpu`. Returns whether the kernel agreed.
fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, only read
    // by the call, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Where threads run: the load on the first CPU this process may use, the
/// server on the second.
///
/// Left to itself the scheduler flips, between runs and within them,
/// between packing a request's whole client -> reactor -> worker -> reactor
/// -> client chain on one CPU and spreading it over two. On a two-vCPU
/// guest a cross-CPU wake-up is an interrupt through the hypervisor, so the
/// two placements differ by 1.5x in server CPU per request and 2.5x in page
/// latency — far more than anything this benchmark is meant to resolve.
/// Pinning makes the placement the same on every run, keeps the clients'
/// own work off the CPU the server is measured on, and leaves exactly the
/// client/server hop crossing CPUs, as a network would.
///
/// Threads inherit the mask of the thread that spawns them, so the booting
/// thread moves to the server's CPU before it starts server threads and to
/// the clients' CPU before it does anything else.
#[derive(Clone, Copy)]
pub struct Placement {
    client_cpu: usize,
    server_cpu: usize,
}

impl Placement {
    /// `None` on a host with a single usable CPU: nothing to separate.
    pub fn choose() -> Option<Placement> {
        match allowed_cpus()[..] {
            [client_cpu, server_cpu, ..] => Some(Placement {
                client_cpu,
                server_cpu,
            }),
            _ => None,
        }
    }

    /// Moves the calling thread, and what it spawns next, to the server's
    /// CPU.
    pub fn enter_server(placement: Option<Placement>) {
        if let Some(placement) = placement {
            pin_current_thread(placement.server_cpu);
        }
    }

    /// Moves the calling thread, and what it spawns next, to the clients'
    /// CPU.
    pub fn enter_clients(placement: Option<Placement>) {
        if let Some(placement) = placement {
            pin_current_thread(placement.client_cpu);
        }
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal time since boot, summed over CPUs, in seconds.
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux this runs on.
    ticks / 100.0
}

/// The one-minute load average.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout the benchmark was built in, or `unknown`
/// where that is not a git repository.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}
