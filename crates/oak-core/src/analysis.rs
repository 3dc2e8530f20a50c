//! Per-server performance analysis of a report.
//!
//! "Oak begins by grouping all objects by the IP address to which the
//! client ultimately connected, keeping track of all related domain names.
//! We then consider the average time for small objects, and the average
//! throughput for large objects. Small objects are defined to be any
//! object less than 50 KB." (§4.2)
//!
//! The analysis borrows from the report it regroups: a server's IP and
//! its domain names are slices of the report's own strings, so grouping
//! allocates the per-server vectors and nothing per entry. Two orders
//! here reach the journal through [`crate::aggregates::distill`] and are
//! kept by hand, not by a tree: servers ascend by the bytes of their IP,
//! and each server's domains ascend, lowercase, without repeats.

use std::borrow::Cow;

use crate::report::PerfReport;
use crate::stats::mean;

/// The small/large cut-over, bytes. The paper fixes 50 KB; the knob exists
/// for the ablation benches.
pub const DEFAULT_SIZE_SPLIT: u64 = 50_000;

/// Aggregated view of one server (one IP) within one report.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerStats<'r> {
    /// The server's IP, as reported by the client.
    pub ip: &'r str,
    /// Every domain name observed resolving to this IP in the report:
    /// lowercase, ascending, each once. Borrowed from the entry's URL
    /// unless the client spelled the host with an uppercase letter.
    pub domains: Vec<Cow<'r, str>>,
    /// Download times of objects under the size split, ms (report order).
    pub small_times_ms: Vec<f64>,
    /// Throughputs of objects at or over the size split, kbit/s (report
    /// order).
    pub large_tputs_kbps: Vec<f64>,
    /// Total bytes fetched from this server.
    pub total_bytes: u64,
    /// Number of objects fetched from this server.
    pub object_count: usize,
}

impl ServerStats<'_> {
    /// Average small-object download time, if any small objects were seen.
    pub fn avg_small_time_ms(&self) -> Option<f64> {
        mean(&self.small_times_ms)
    }

    /// Average large-object throughput, if any large objects were seen.
    pub fn avg_large_tput_kbps(&self) -> Option<f64> {
        mean(&self.large_tputs_kbps)
    }
}

/// A report regrouped per server, ready for violator detection.
///
/// "These reports make no decisions on what objects may need to be acted
/// on, but instead stores the raw information about the observed
/// performance." (§4.2)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PageAnalysis<'r> {
    /// Stats per IP, ascending by the IP's bytes, each IP once.
    pub servers: Vec<ServerStats<'r>>,
}

impl<'r> PageAnalysis<'r> {
    /// Groups a report's entries by server IP using the paper's 50 KB
    /// size split.
    pub fn from_report(report: &'r PerfReport<impl AsRef<str>>) -> PageAnalysis<'r> {
        PageAnalysis::from_report_with_split(report, DEFAULT_SIZE_SPLIT)
    }

    /// As [`PageAnalysis::from_report`] with an explicit small/large split.
    pub fn from_report_with_split(
        report: &'r PerfReport<impl AsRef<str>>,
        size_split: u64,
    ) -> PageAnalysis<'r> {
        let mut servers: Vec<ServerStats<'r>> = Vec::with_capacity(report.entries.len().min(16));
        // The server of the previous entry: objects of one server tend to
        // arrive together, and IPs are unique in `servers`, so a hit here
        // is the index the search would return.
        let mut last = 0;
        for entry in &report.entries {
            let ip = entry.ip.as_ref();
            let found = match servers.get(last) {
                Some(s) if s.ip == ip => Ok(last),
                _ => servers.binary_search_by(|s| s.ip.cmp(ip)),
            };
            let at = match found {
                Ok(at) => at,
                Err(at) => {
                    servers.insert(
                        at,
                        ServerStats {
                            ip,
                            domains: Vec::new(),
                            small_times_ms: Vec::new(),
                            large_tputs_kbps: Vec::new(),
                            total_bytes: 0,
                            object_count: 0,
                        },
                    );
                    at
                }
            };
            last = at;
            let stats = &mut servers[at];
            if let Some(host) = entry.host() {
                // Domains are tracked lowercase (URL hosts are
                // case-insensitive); fold here, copying only when the
                // client actually sent uppercase.
                let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
                    Cow::Owned(host.to_ascii_lowercase())
                } else {
                    Cow::Borrowed(host)
                };
                if let Err(at) = stats.domains.binary_search(&host) {
                    stats.domains.insert(at, host);
                }
            }
            if entry.bytes < size_split {
                stats.small_times_ms.push(entry.time_ms);
            } else {
                stats.large_tputs_kbps.push(entry.throughput_kbps());
            }
            stats.total_bytes += entry.bytes;
            stats.object_count += 1;
        }
        PageAnalysis { servers }
    }

    /// Number of distinct servers contacted.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Iterates over server stats in IP order.
    pub fn iter(&self) -> impl Iterator<Item = &ServerStats<'r>> {
        self.servers.iter()
    }

    /// The stats for one IP, if present.
    pub fn server(&self, ip: &str) -> Option<&ServerStats<'r>> {
        self.servers
            .binary_search_by(|s| s.ip.cmp(ip))
            .ok()
            .map(|at| &self.servers[at])
    }
}

/// The owned, tree-ordered analysis this module used to build, kept as
/// the reference the borrowed one is tested against: the journal's bytes
/// depend on the two agreeing on every order.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use crate::report::PerfReport;

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct ServerStats {
        pub ip: String,
        pub domains: BTreeSet<String>,
        pub small_times_ms: Vec<f64>,
        pub large_tputs_kbps: Vec<f64>,
        pub total_bytes: u64,
        pub object_count: usize,
    }

    pub(crate) fn from_report_with_split(
        report: &PerfReport,
        size_split: u64,
    ) -> BTreeMap<String, ServerStats> {
        let mut servers: BTreeMap<String, ServerStats> = BTreeMap::new();
        for entry in &report.entries {
            let stats = servers
                .entry(entry.ip.clone())
                .or_insert_with(|| ServerStats {
                    ip: entry.ip.clone(),
                    domains: BTreeSet::new(),
                    small_times_ms: Vec::new(),
                    large_tputs_kbps: Vec::new(),
                    total_bytes: 0,
                    object_count: 0,
                });
            if let Some(host) = entry.host() {
                if host.bytes().any(|b| b.is_ascii_uppercase()) {
                    stats.domains.insert(host.to_ascii_lowercase());
                } else if !stats.domains.contains(host) {
                    stats.domains.insert(host.to_owned());
                }
            }
            if entry.bytes < size_split {
                stats.small_times_ms.push(entry.time_ms);
            } else {
                stats.large_tputs_kbps.push(entry.throughput_kbps());
            }
            stats.total_bytes += entry.bytes;
            stats.object_count += 1;
        }
        servers
    }
}
