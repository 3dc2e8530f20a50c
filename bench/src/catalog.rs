//! The metric catalogue: every name a run may print, with its unit and
//! which way is better. `BENCHMARK.json` lists the same names; a test
//! holds the two together.

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// As measured.
    pub value: f64,
    /// Samples behind the value; 0 where the workload never reaches the
    /// layer.
    pub count: usize,
}

impl Metric {
    /// A metric as measured.
    pub fn new(name: &'static str, unit: &'static str, value: f64, count: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            count,
        }
    }
}

/// `(name, unit, better)` of what a user of the system sees. Bounds live in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("page_p50_us", "us", "lower"),
    ("report_p50_us", "us", "lower"),
    ("server_cpu_us_per_req", "us", "lower"),
    ("rss_peak_mb", "MiB", "lower"),
    ("recovery_s", "s", "lower"),
];

/// `(name, unit, better)` of single layers, layer = crate name. The two
/// client-side p99s lead the list: they were end-to-end metrics until their
/// run-to-run spread on a shared host (0.33 and 0.38 of the median) passed
/// the widest bound the contract allows, and the issue's A/A rule demotes
/// such a metric rather than leave it with a bound it cannot keep.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("page_p99_us", "us", "lower"),
    ("report_p99_us", "us", "lower"),
    ("oak-edge.floor_p50_us", "us", "lower"),
    ("oak-edge.loaded_page_floor_p50_us", "us", "lower"),
    ("oak-edge.loaded_report_floor_p50_us", "us", "lower"),
    ("oak-edge.overhead_us", "us", "lower"),
    ("oak-edge.wakeups_per_req", "ratio", "lower"),
    ("oak-edge.ready_batch_max", "count", "lower"),
    ("oak-edge.loop_lag_max_us", "us", "lower"),
    ("oak-edge.queue_depth_max", "count", "lower"),
    ("oak-http.parse_report_us", "us", "lower"),
    ("oak-http.parse_get_us", "us", "lower"),
    ("oak-http.serialize_page_us", "us", "lower"),
    ("oak-http.bytes_in_per_req", "count", "lower"),
    ("oak-http.bytes_out_per_req", "count", "lower"),
    ("oak-server.handle_page_us", "us", "lower"),
    ("oak-server.handle_report_us", "us", "lower"),
    ("oak-server.handle_report_self_us", "us", "lower"),
    ("oak-server.handle_scrape_us", "us", "lower"),
    ("oak-server.rewrite_share", "ratio", "higher"),
    ("oak-core.decode_json_us", "us", "lower"),
    ("oak-core.decode_bin_us", "us", "lower"),
    ("oak-core.decode_json_allocs", "count", "lower"),
    ("oak-core.decode_bin_allocs", "count", "lower"),
    ("oak-core.analysis_us", "us", "lower"),
    ("oak-core.detect_us", "us", "lower"),
    ("oak-core.match_us", "us", "lower"),
    ("oak-core.ingest_us", "us", "lower"),
    ("oak-core.ingest_allocs", "count", "lower"),
    ("oak-core.ingest_bytes", "count", "lower"),
    ("oak-core.activations_per_report", "ratio", "higher"),
    ("oak-core.modify_page_us", "us", "lower"),
    ("oak-core.modify_page_noop_us", "us", "lower"),
    ("oak-core.modify_page_allocs", "count", "lower"),
    ("oak-html.rewrite_us", "us", "lower"),
    ("oak-html.edits_per_page", "count", "lower"),
    ("oak-pattern.scope_match_us", "us", "lower"),
    ("oak-store.append_us", "us", "lower"),
    ("oak-store.events_per_report", "ratio", "lower"),
    ("oak-store.bytes_per_report", "count", "lower"),
    ("oak-store.snapshot_ms", "ms", "lower"),
    ("oak-store.snapshots", "count", "lower"),
    ("oak-store.snapshot_stall_share", "ratio", "lower"),
    ("oak-store.sync_all_us", "us", "lower"),
    ("oak-store.recover_events_per_s", "1/s", "higher"),
    ("oak-store.write_errors", "count", "lower"),
    ("oak-store.recovery_missing_events", "count", "lower"),
    ("oak-cluster.commit_wait_us", "us", "lower"),
    ("oak-cluster.envelopes_per_commit", "count", "lower"),
    ("oak-cluster.bytes_per_commit", "count", "lower"),
    ("oak-cluster.follower_lag_max", "count", "lower"),
    ("oak-cluster.election_ms", "ms", "lower"),
    ("oak-obs.scrape_us", "us", "lower"),
    ("oak-obs.exposition_bytes", "count", "lower"),
    ("oak-obs.tax_share", "ratio", "lower"),
    ("trace.unaccounted_share_page", "ratio", "lower"),
    ("trace.unaccounted_share_report", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("fail_share", "ratio", "lower"),
];

/// Orders `measured` as `catalogue` lists them, filling what the run did
/// not reach with zero samples. Panics on a name the catalogue lacks: that
/// is a bug in the benchmark, not a measurement.
pub fn in_catalogue_order(
    catalogue: &[(&'static str, &'static str, &str)],
    measured: Vec<Metric>,
) -> Vec<Metric> {
    for m in &measured {
        assert!(
            catalogue
                .iter()
                .any(|(name, unit, _)| *name == m.name && *unit == m.unit),
            "{} ({}) is not in the catalogue",
            m.name,
            m.unit
        );
    }
    catalogue
        .iter()
        .map(|(name, unit, _)| {
            measured
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0, 0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oak_json::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = oak_json::parse(&text).expect("BENCHMARK.json parses");
        let own = |c: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            c.iter()
                .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let own_workloads: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own_workloads);
    }
}
