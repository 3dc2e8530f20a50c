use crate::analysis::{PageAnalysis, DEFAULT_SIZE_SPLIT};
use crate::report::{ObjectTiming, PerfReport};

fn report_with(entries: &[(&str, &str, u64, f64)]) -> PerfReport {
    let mut r = PerfReport::new("u", "/");
    for &(url, ip, bytes, time) in entries {
        r.push(ObjectTiming::new(url, ip, bytes, time));
    }
    r
}

#[test]
fn groups_by_ip_not_domain() {
    // Two domains co-hosted on one IP form one server entry — the paper's
    // "grouping all objects by the IP address … keeping track of all
    // related domain names".
    let r = report_with(&[
        ("http://img.a.example/1.png", "10.0.0.1", 10_000, 50.0),
        ("http://static.a.example/2.png", "10.0.0.1", 10_000, 60.0),
        ("http://other.example/3.png", "10.0.0.2", 10_000, 70.0),
    ]);
    let a = PageAnalysis::from_report(&r);
    assert_eq!(a.server_count(), 2);
    let s = a.server("10.0.0.1").unwrap();
    assert_eq!(s.domains, ["img.a.example", "static.a.example"]);
    assert_eq!(s.object_count, 2);
    assert_eq!(s.total_bytes, 20_000);
}

#[test]
fn splits_small_and_large_at_50kb() {
    let r = report_with(&[
        (
            "http://h.example/small",
            "10.0.0.1",
            DEFAULT_SIZE_SPLIT - 1,
            40.0,
        ),
        (
            "http://h.example/large",
            "10.0.0.1",
            DEFAULT_SIZE_SPLIT,
            100.0,
        ),
    ]);
    let a = PageAnalysis::from_report(&r);
    let s = a.server("10.0.0.1").unwrap();
    assert_eq!(s.small_times_ms, [40.0]);
    assert_eq!(s.large_tputs_kbps.len(), 1);
    // 50 KB ≥ split → throughput entry: 50_000·8 bits / 100 ms = 4000 kbps.
    assert!((s.large_tputs_kbps[0] - 4_000.0).abs() < 1e-9);
}

#[test]
fn averages_are_per_class() {
    let r = report_with(&[
        ("http://h.example/a", "10.0.0.1", 1_000, 10.0),
        ("http://h.example/b", "10.0.0.1", 1_000, 30.0),
        ("http://h.example/c", "10.0.0.1", 100_000, 100.0),
        ("http://h.example/d", "10.0.0.1", 100_000, 400.0),
    ]);
    let a = PageAnalysis::from_report(&r);
    let s = a.server("10.0.0.1").unwrap();
    assert_eq!(s.avg_small_time_ms(), Some(20.0));
    // Throughputs: 8000 and 2000 kbps → mean 5000.
    assert_eq!(s.avg_large_tput_kbps(), Some(5_000.0));
}

#[test]
fn missing_class_yields_none() {
    let r = report_with(&[("http://h.example/only-small", "10.0.0.1", 100, 10.0)]);
    let a = PageAnalysis::from_report(&r);
    let s = a.server("10.0.0.1").unwrap();
    assert!(s.avg_small_time_ms().is_some());
    assert_eq!(s.avg_large_tput_kbps(), None);
}

#[test]
fn custom_split_moves_the_boundary() {
    let r = report_with(&[("http://h.example/x", "10.0.0.1", 30_000, 50.0)]);
    let default = PageAnalysis::from_report(&r);
    assert_eq!(default.server("10.0.0.1").unwrap().small_times_ms.len(), 1);
    let tight = PageAnalysis::from_report_with_split(&r, 10_000);
    assert_eq!(tight.server("10.0.0.1").unwrap().small_times_ms.len(), 0);
    assert_eq!(tight.server("10.0.0.1").unwrap().large_tputs_kbps.len(), 1);
}

#[test]
fn empty_report_analyzes_to_empty() {
    let r = PerfReport::new("u", "/");
    let a = PageAnalysis::from_report(&r);
    assert_eq!(a.server_count(), 0);
    assert!(a.iter().next().is_none());
    assert!(a.server("10.0.0.1").is_none());
}

#[test]
fn unparseable_urls_still_count_toward_stats() {
    let r = report_with(&[("garbage-url", "10.0.0.1", 100, 10.0)]);
    let a = PageAnalysis::from_report(&r);
    let s = a.server("10.0.0.1").unwrap();
    assert!(s.domains.is_empty());
    assert_eq!(s.object_count, 1);
}

#[test]
fn servers_ascend_by_ip_bytes_and_domains_are_lowercase_sorted_unique() {
    // "10.0.0.10" sorts before "10.0.0.9" as bytes; a host spelled three
    // ways is one domain; the report's own order decides neither.
    let r = report_with(&[
        ("http://zeta.example/1", "10.0.0.9", 1, 1.0),
        ("http://Beta.Example/2", "10.0.0.10", 1, 2.0),
        ("http://alpha.example/3", "10.0.0.9", 1, 3.0),
        ("http://beta.example/4", "10.0.0.10", 1, 4.0),
        ("http://BETA.EXAMPLE/5", "10.0.0.9", 1, 5.0),
        ("http://alpha.example/6", "10.0.0.9", 1, 6.0),
    ]);
    let a = PageAnalysis::from_report(&r);
    let ips: Vec<&str> = a.iter().map(|s| s.ip).collect();
    assert_eq!(ips, ["10.0.0.10", "10.0.0.9"]);
    assert_eq!(a.server("10.0.0.10").unwrap().domains, ["beta.example"]);
    let nine = a.server("10.0.0.9").unwrap();
    assert_eq!(
        nine.domains,
        ["alpha.example", "beta.example", "zeta.example"]
    );
    assert_eq!(nine.small_times_ms, [1.0, 3.0, 5.0, 6.0], "report order");
}

mod against_the_reference {
    use proptest::prelude::*;

    use super::*;
    use crate::aggregates::{distill, ServerFold};
    use crate::analysis::reference;
    use crate::detect::{detect_violators, DetectorConfig, OutlierMethod};
    use crate::events::{EngineEvent, IngestEffect, SequencedEvent};
    use crate::intern::Interner;
    use crate::Instant;

    /// IPs whose byte order is not their numeric order, one that is a
    /// prefix of another, and one that is no address at all.
    const IPS: [&str; 7] = [
        "10.0.0.9",
        "10.0.0.10",
        "10.0.0.1",
        "10.0.0.100",
        "9.9.9.9",
        "",
        "not-an-ip",
    ];

    /// Hosts in several spellings, a host that only differs in case from
    /// another, and URLs `host_of` refuses.
    const URLS: [&str; 10] = [
        "http://cdn.example/a.js",
        "http://CDN.example/b.js",
        "http://Cdn.Example:8080/c.js",
        "http://img.example/d.png",
        "https://a.example/e",
        "http://z.example",
        "http://Z.EXAMPLE/f?g#h",
        "garbage-url",
        "http://user@spoof.example/",
        "",
    ];

    /// Reports of 0–24 entries drawing IPs and URLs independently, so an
    /// IP recurs and interleaves with others, one host lands on several
    /// IPs and one IP serves several hosts; sizes straddle both splits
    /// the property runs with.
    fn report_strategy() -> impl Strategy<Value = PerfReport> {
        let entry = (
            0usize..IPS.len(),
            0usize..URLS.len(),
            prop_oneof![0u64..20_000, 49_990u64..50_010, 50_010u64..400_000],
            0.0f64..5_000.0,
        );
        prop::collection::vec(entry, 0..24).prop_map(|entries| {
            let mut report = PerfReport::new("u-1", "/p");
            for (ip, url, bytes, time) in entries {
                report.push(ObjectTiming::new(URLS[url], IPS[ip], bytes, time));
            }
            report
        })
    }

    fn encode(folds: Vec<ServerFold>) -> Vec<u8> {
        SequencedEvent {
            seq: 7,
            epoch: 0,
            event: EngineEvent::Ingest(IngestEffect {
                time: Instant(3),
                user: "u-1".to_owned(),
                folds,
                pending: Vec::new(),
                records: Vec::new(),
            }),
        }
        .encode()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The borrowed analysis lists the servers, domains and samples
        /// the owned, tree-ordered one listed, in its order, bit for bit
        /// — and what `distill` makes of it is journaled as the same
        /// bytes.
        #[test]
        fn borrowed_analysis_is_the_owned_one(
            report in report_strategy(),
            tight_split in any::<bool>(),
        ) {
            let split = if tight_split { 10_000 } else { DEFAULT_SIZE_SPLIT };
            let analysis = PageAnalysis::from_report_with_split(&report, split);
            let owned = reference::from_report_with_split(&report, split);

            prop_assert_eq!(analysis.server_count(), owned.len());
            for (server, (key, expected)) in analysis.iter().zip(&owned) {
                prop_assert_eq!(server.ip, key.as_str());
                prop_assert_eq!(server.ip, expected.ip.as_str());
                let domains: Vec<&str> = server.domains.iter().map(|d| d.as_ref()).collect();
                let expected_domains: Vec<&str> =
                    expected.domains.iter().map(String::as_str).collect();
                prop_assert_eq!(domains, expected_domains);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&server.small_times_ms), bits(&expected.small_times_ms));
                prop_assert_eq!(
                    bits(&server.large_tputs_kbps),
                    bits(&expected.large_tputs_kbps)
                );
                prop_assert_eq!(server.total_bytes, expected.total_bytes);
                prop_assert_eq!(server.object_count, expected.object_count);
                prop_assert_eq!(analysis.server(server.ip), Some(server));
            }

            // Bounds low enough that most reports flag a server or two.
            let config = DetectorConfig {
                method: OutlierMethod::Absolute { max_small_ms: 2_500.0, min_large_kbps: 400.0 },
                min_servers: 1,
                ..DetectorConfig::default()
            };
            let violations = detect_violators(&analysis, &config);
            let violator_ips: Vec<&str> = violations.iter().map(|v| v.ip.as_str()).collect();
            for violation in &violations {
                let expected = &owned[&violation.ip];
                prop_assert_eq!(
                    &violation.domains,
                    &expected.domains.iter().cloned().collect::<Vec<_>>()
                );
            }

            // `distill` as it read the owned analysis.
            let interner = Interner::new();
            let expected_folds: Vec<ServerFold> = owned
                .values()
                .map(|server| ServerFold {
                    domains: server.domains.iter().map(|d| interner.intern_lower(d)).collect(),
                    objects: server.object_count as u64,
                    bytes: server.total_bytes,
                    small_times_ms: server.small_times_ms.clone(),
                    large_tputs_kbps: server.large_tputs_kbps.clone(),
                    violated: violator_ips.contains(&server.ip.as_str()),
                })
                .collect();
            let folds = distill(analysis, &violations, &interner);
            prop_assert_eq!(encode(folds), encode(expected_folds));
        }
    }
}
