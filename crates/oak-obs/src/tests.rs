use std::sync::Arc;

use crate::expo::encode;
use crate::metrics::{
    Histogram, HistogramSnapshot, Registry, DURATION_BOUNDS_US, MAX_SERIES_PER_FAMILY,
};
use crate::trace::{span, Tracer, MAX_SPANS_PER_TRACE};
use crate::validate::{parse_samples, validate_exposition};
use crate::{elapsed_us, fixed_clock, step_clock};

use proptest::prelude::*;

// --- metrics ---

#[test]
fn counter_and_gauge_round_trip() {
    let registry = Registry::new();
    let hits = registry.counter("oak_test_hits_total", "hits", &[("kind", "a")]);
    hits.inc();
    hits.add(4);
    assert_eq!(hits.get(), 5);
    let depth = registry.gauge("oak_test_depth", "depth", &[]);
    depth.set(17);
    assert_eq!(depth.get(), 17);
    // Re-resolving the same series returns the same underlying atomic.
    let again = registry.counter("oak_test_hits_total", "hits", &[("kind", "a")]);
    again.inc();
    assert_eq!(hits.get(), 6);
}

#[test]
fn histogram_buckets_use_le_semantics() {
    let h = Histogram::new(&[1.0, 10.0, 100.0]);
    h.record(1.0); // le="1"
    h.record(1.5); // le="10"
    h.record(100.0); // le="100"
    h.record(1e9); // +Inf
    let snap = h.snapshot();
    assert_eq!(snap.buckets, vec![1, 1, 1, 1]);
    assert_eq!(snap.count(), 4);
    assert!((snap.sum - (1.0 + 1.5 + 100.0 + 1e9)).abs() < 1e-6);
}

#[test]
fn duration_bounds_are_ascending() {
    assert!(DURATION_BOUNDS_US.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn registry_label_order_is_canonical() {
    let registry = Registry::new();
    let a = registry.counter("oak_test_pairs_total", "p", &[("b", "2"), ("a", "1")]);
    let b = registry.counter("oak_test_pairs_total", "p", &[("a", "1"), ("b", "2")]);
    a.inc();
    b.inc();
    let families = registry.families();
    assert_eq!(families.len(), 1);
    assert_eq!(
        families[0].series.len(),
        1,
        "one series regardless of argument order"
    );
}

#[test]
#[should_panic(expected = "different kind")]
fn registry_rejects_kind_conflicts() {
    let registry = Registry::new();
    registry.counter("oak_test_conflict", "c", &[]);
    registry.gauge("oak_test_conflict", "g", &[]);
}

#[test]
fn series_cardinality_is_capped_per_family() {
    let registry = Registry::new();
    // Twice the cap in distinct label values — an unbounded input
    // domain (user names, client IPs) leaking into labels.
    for i in 0..2 * MAX_SERIES_PER_FAMILY {
        let user = format!("user-{i}");
        registry
            .counter("oak_test_flood_total", "f", &[("user", &user)])
            .inc();
    }
    let families = registry.families();
    let family = families
        .iter()
        .find(|f| f.name == "oak_test_flood_total")
        .expect("family registered");
    // The cap plus the single shared overflow series.
    assert_eq!(family.series.len(), MAX_SERIES_PER_FAMILY + 1);
    let overflow = family
        .series
        .iter()
        .find(|s| s.labels == vec![("overflow".to_owned(), "true".to_owned())])
        .expect("overflow series present");
    // Every post-cap increment landed on the overflow series: no
    // observation is silently dropped.
    match overflow.value {
        crate::expo::SeriesValue::Scalar(v) => {
            assert_eq!(v as usize, MAX_SERIES_PER_FAMILY);
        }
        _ => panic!("counter family exposes scalars"),
    }
}

#[test]
fn capped_families_keep_existing_series_live_and_distinct() {
    let registry = Registry::new();
    let first = registry.gauge("oak_test_capped", "g", &[("k", "first")]);
    for i in 0..MAX_SERIES_PER_FAMILY {
        let v = format!("v-{i}");
        registry.gauge("oak_test_capped", "g", &[("k", &v)]);
    }
    // Pre-cap series still resolve to their own atomics...
    let first_again = registry.gauge("oak_test_capped", "g", &[("k", "first")]);
    first.set(41);
    first_again.set(42);
    assert_eq!(first.get(), 42);
    // ...while distinct new label sets collapse into one shared series.
    let over_a = registry.gauge("oak_test_capped", "g", &[("k", "late-a")]);
    let over_b = registry.gauge("oak_test_capped", "g", &[("k", "late-b")]);
    over_a.set(7);
    assert_eq!(over_b.get(), 7, "post-cap label sets share the overflow");
}

#[test]
fn capped_histograms_share_overflow_buckets() {
    let registry = Registry::new();
    for i in 0..MAX_SERIES_PER_FAMILY {
        let v = format!("v-{i}");
        registry.histogram("oak_test_capped_us", "h", &[("k", &v)], &[1.0, 10.0]);
    }
    let over_a = registry.histogram("oak_test_capped_us", "h", &[("k", "late-a")], &[1.0, 10.0]);
    let over_b = registry.histogram("oak_test_capped_us", "h", &[("k", "late-b")], &[1.0, 10.0]);
    over_a.record(5.0);
    assert_eq!(over_b.snapshot().count(), 1);
}

// --- exposition ---

fn sample_registry() -> Registry {
    let registry = Registry::new();
    registry
        .counter(
            "oak_test_requests_total",
            "Requests seen.",
            &[("status", "2xx")],
        )
        .add(7);
    registry
        .counter(
            "oak_test_requests_total",
            "Requests seen.",
            &[("status", "5xx")],
        )
        .inc();
    registry
        .gauge("oak_test_users", "Tracked users.", &[])
        .set(3);
    let h = registry.histogram(
        "oak_test_latency_us",
        "Stage latency.",
        &[("stage", "parse")],
        &[10.0, 100.0],
    );
    h.record(5.0);
    h.record(50.0);
    h.record(500.0);
    registry
}

#[test]
fn exposition_matches_expected_text() {
    let text = encode(sample_registry().families());
    let expected = "\
# HELP oak_test_latency_us Stage latency.
# TYPE oak_test_latency_us histogram
oak_test_latency_us_bucket{le=\"10\",stage=\"parse\"} 1
oak_test_latency_us_bucket{le=\"100\",stage=\"parse\"} 2
oak_test_latency_us_bucket{le=\"+Inf\",stage=\"parse\"} 3
oak_test_latency_us_sum{stage=\"parse\"} 555
oak_test_latency_us_count{stage=\"parse\"} 3
# HELP oak_test_requests_total Requests seen.
# TYPE oak_test_requests_total counter
oak_test_requests_total{status=\"2xx\"} 7
oak_test_requests_total{status=\"5xx\"} 1
# HELP oak_test_users Tracked users.
# TYPE oak_test_users gauge
oak_test_users 3
";
    assert_eq!(text, expected);
}

#[test]
fn exposition_is_stable_across_scrapes() {
    let registry = sample_registry();
    assert_eq!(encode(registry.families()), encode(registry.families()));
}

#[test]
fn exposition_passes_its_own_validator() {
    let text = encode(sample_registry().families());
    let errors = validate_exposition(&text);
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(parse_samples(&text).len(), 3 + 2 + 2 + 1);
}

#[test]
fn validator_rejects_malformed_lines() {
    let cases: &[(&str, &str)] = &[
        ("oak_x 1\n", "outside its family"),
        ("# HELP oak_x x\noak_x 1\n", "before its TYPE"),
        ("# HELP oak_x x\n# TYPE oak_x counter\noak_x{b=\"1\",a=\"2\"} 1\n", "not sorted"),
        ("# HELP oak_x x\n# TYPE oak_x counter\noak_x 1\noak_x 2\n", "duplicate series"),
        ("# HELP oak_x x\n# TYPE oak_x counter\noak_x -1\n", "negative counter"),
        ("# HELP oak_x x\n# TYPE oak_x bogus\noak_x 1\n", "unknown metric type"),
        ("# HELP oak_x x\n# TYPE oak_x counter\noak_x nope\n", "bad sample value"),
        ("# HELP oak_x x\n# TYPE oak_x counter\n\noak_x 1\n", "empty line"),
        (
            "# HELP oak_h h\n# TYPE oak_h histogram\noak_h_bucket{le=\"1\"} 1\noak_h_sum 1\noak_h_count 1\n",
            "did not end at +Inf",
        ),
        (
            "# HELP oak_h h\n# TYPE oak_h histogram\noak_h_bucket{le=\"1\"} 2\noak_h_bucket{le=\"+Inf\"} 1\noak_h_sum 1\noak_h_count 1\n",
            "not cumulative",
        ),
    ];
    for (text, needle) in cases {
        let errors = validate_exposition(text);
        assert!(
            errors.iter().any(|e| e.contains(needle)),
            "expected {needle:?} in {errors:?} for {text:?}"
        );
    }
}

#[test]
fn validator_accepts_escaped_labels() {
    let text = "# HELP oak_x x\n# TYPE oak_x counter\noak_x{path=\"a\\\"b\\\\c\\nd\"} 1\n";
    let errors = validate_exposition(text);
    assert!(errors.is_empty(), "{errors:?}");
    let samples = parse_samples(text);
    assert_eq!(samples[0].label("path"), Some("a\"b\\c\nd"));
}

// --- tracing ---

#[test]
fn spans_nest_and_land_in_the_ring() {
    let tracer = Tracer::new(step_clock(1_000_000), 4, 0);
    {
        let _t = tracer.begin("GET /page");
        let _outer = span("handle");
        {
            let _inner = span("rewrite");
        }
    }
    let traces = tracer.recent();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.name, "GET /page");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
    assert_eq!(names, vec!["handle", "rewrite"]);
    assert_eq!(trace.spans[0].depth, 0);
    assert_eq!(trace.spans[1].depth, 1);
    // step_clock: begin=0, handle open=1ms, rewrite open=2ms, rewrite
    // close=3ms, handle close=4ms, finish=5ms.
    assert_eq!(trace.spans[1].dur_ns, 1_000_000);
    assert_eq!(trace.spans[0].dur_ns, 3_000_000);
    assert_eq!(trace.dur_ns, 5_000_000);
    assert_eq!(tracer.completed(), 1);
}

#[test]
fn span_without_active_trace_is_inert() {
    let tracer = Tracer::new(fixed_clock(0), 4, 0);
    {
        let _s = span("orphan");
    }
    assert_eq!(tracer.recent().len(), 0);
    assert_eq!(tracer.completed(), 0);
}

#[test]
fn ring_evicts_oldest_and_caps_spans() {
    let tracer = Tracer::new(fixed_clock(0), 2, 0);
    for i in 0..3 {
        let _t = tracer.begin(&format!("t{i}"));
    }
    let names: Vec<String> = tracer.recent().into_iter().map(|t| t.name).collect();
    assert_eq!(names, vec!["t1", "t2"]);

    let _t = tracer.begin("big");
    let guards: Vec<_> = (0..MAX_SPANS_PER_TRACE + 5).map(|_| span("s")).collect();
    drop(guards);
    drop(_t);
    let traces = tracer.recent();
    let big = traces.last().unwrap();
    assert_eq!(big.spans.len(), MAX_SPANS_PER_TRACE);
    assert_eq!(big.dropped, 5);
    assert_eq!(tracer.dropped_spans(), 5);
}

#[test]
fn slow_traces_are_counted() {
    let tracer = Tracer::new(step_clock(10_000_000), 4, 5); // every read +10ms, slow ≥ 5ms
    {
        let _t = tracer.begin("slow one");
    }
    assert_eq!(tracer.slow(), 1);
}

#[test]
fn trace_text_is_deterministic() {
    let render = || {
        let tracer = Tracer::new(step_clock(1_000_000), 4, 0);
        {
            let _t = tracer.begin("POST /oak/report");
            let _a = span("ingest");
            let _b = span("detect");
        }
        tracer.recent()[0].to_text()
    };
    let text = render();
    assert_eq!(text, render());
    assert!(text.starts_with("trace 1 POST /oak/report dur=5000us spans=2\n"));
    assert!(text.contains("\n  ingest start=+1000us dur=3000us\n"));
    assert!(text.contains("\n    detect start=+2000us dur=1000us\n"));
}

#[test]
fn elapsed_us_rounds_up_nonzero() {
    assert_eq!(elapsed_us(0, 0), 0.0);
    assert_eq!(elapsed_us(0, 1), 1.0);
    assert_eq!(elapsed_us(0, 999), 1.0);
    assert_eq!(elapsed_us(0, 1_000), 1.0);
    assert_eq!(elapsed_us(0, 1_001), 2.0);
    assert_eq!(elapsed_us(5, 3), 0.0, "clock going backwards saturates");
}

// --- property tests (satellite b) ---

/// Strategy pieces: values in a range wide enough to exercise every
/// bucket of [`DURATION_BOUNDS_US`] including the overflow slot.
fn record_all(values: &[f64]) -> HistogramSnapshot {
    let h = Histogram::new(DURATION_BOUNDS_US);
    for v in values {
        h.record(*v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(0.0f64..1e8, 0..40),
        b in proptest::collection::vec(0.0f64..1e8, 0..40),
    ) {
        let (sa, sb) = (record_all(&a), record_all(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab.buckets, &ba.buckets);
        prop_assert!((ab.sum - ba.sum).abs() <= 1e-6 * (1.0 + ab.sum.abs()));
    }

    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0.0f64..1e8, 0..25),
        b in proptest::collection::vec(0.0f64..1e8, 0..25),
        c in proptest::collection::vec(0.0f64..1e8, 0..25),
    ) {
        let (sa, sb, sc) = (record_all(&a), record_all(&b), record_all(&c));
        let mut left = sa.clone(); // (a+b)+c
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone(); // a+(b+c)
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left.buckets, &right.buckets);
        prop_assert!((left.sum - right.sum).abs() <= 1e-6 * (1.0 + left.sum.abs()));
    }

    #[test]
    fn histogram_count_matches_buckets_and_bounds_sum(
        values in proptest::collection::vec(0.0f64..1e8, 0..60),
    ) {
        let snap = record_all(&values);
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.count(), snap.buckets.iter().sum::<u64>());
        let expected: f64 = values.iter().sum();
        prop_assert!((snap.sum - expected).abs() <= 1e-6 * (1.0 + expected.abs()));
    }

    #[test]
    fn histogram_quantile_is_monotone_in_q(
        values in proptest::collection::vec(0.0f64..1e8, 1..60),
        qs in proptest::collection::vec(0.0f64..1.0, 2..8),
    ) {
        let snap = record_all(&values);
        let mut qs = qs;
        qs.push(0.0);
        qs.push(1.0);
        qs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let quantiles: Vec<f64> = qs.iter().map(|q| snap.quantile(*q).unwrap()).collect();
        for pair in quantiles.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantiles not monotone: {:?}", quantiles);
        }
    }

    #[test]
    fn recorded_value_never_below_its_bucket_lower_bound(v in 0.0f64..1e8) {
        let h = Histogram::new(DURATION_BOUNDS_US);
        h.record(v);
        let snap = h.snapshot();
        let index = snap.buckets.iter().position(|b| *b == 1).unwrap();
        // Lower bound of bucket i is bounds[i-1] (exclusive); the value
        // must sit strictly above it and at or below bounds[i].
        if index > 0 {
            prop_assert!(v > DURATION_BOUNDS_US[index - 1]);
        }
        if index < DURATION_BOUNDS_US.len() {
            prop_assert!(v <= DURATION_BOUNDS_US[index]);
        }
    }
}

// --- cross-cutting: registry + encode + validator under concurrency ---

#[test]
fn concurrent_recording_is_torn_read_free() {
    let registry = Arc::new(Registry::new());
    let counter = registry.counter("oak_test_spin_total", "spins", &[]);
    let hist = registry.histogram("oak_test_spin_us", "spin time", &[], DURATION_BOUNDS_US);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let (counter, hist, stop) = (Arc::clone(&counter), Arc::clone(&hist), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                counter.inc();
                hist.record((n % 1000) as f64 + 1.0);
                n += 1;
            }
        })
    };
    let mut last_count = 0u64;
    for _ in 0..200 {
        let families = registry.families();
        let text = encode(families);
        let errors = validate_exposition(&text);
        assert!(errors.is_empty(), "{errors:?}");
        let samples = parse_samples(&text);
        let count = samples
            .iter()
            .find(|s| s.name == "oak_test_spin_us_count")
            .unwrap()
            .value as u64;
        assert!(count >= last_count, "histogram count went backwards");
        last_count = count;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

// --- threads ---

#[test]
fn a_thread_class_is_its_name_without_the_index() {
    use crate::threads::class_of;
    assert_eq!(class_of("oak-edge-worker-12"), "oak-edge-worker");
    assert_eq!(class_of("oak-repl-read"), "oak-repl-read");
    assert_eq!(class_of("worker7"), "worker");
    assert_eq!(class_of("42"), "42");
}

#[test]
fn a_named_thread_burning_cpu_raises_its_class() {
    const CLASS: &str = "oak-test-burn";
    if crate::threads::read().is_none() {
        // No `/proc/self/task`: the families are absent.
        assert!(crate::threads::families().is_empty());
        return;
    }
    let cpu_of = |classes: &std::collections::BTreeMap<String, crate::threads::ClassTotals>| {
        classes.get(CLASS).map_or(0, |t| t.cpu_ns)
    };
    let (burnt_tx, burnt_rx) = std::sync::mpsc::channel::<()>();
    let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
    let before = crate::threads::read().unwrap();
    let burner = std::thread::Builder::new()
        .name(format!("{CLASS}-3"))
        .spawn(move || {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed() < std::time::Duration::from_millis(50) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            burnt_tx.send(()).unwrap();
            // Alive until read: an exited thread leaves the sums.
            exit_rx.recv().unwrap();
        })
        .unwrap();
    burnt_rx.recv().unwrap();
    let after = crate::threads::read().unwrap();
    let text = encode(crate::threads::families());
    exit_tx.send(()).unwrap();
    burner.join().unwrap();

    assert!(
        cpu_of(&after) >= cpu_of(&before) + 10_000_000,
        "{CLASS} burnt {} ns",
        cpu_of(&after) - cpu_of(&before)
    );
    assert!(validate_exposition(&text).is_empty(), "{text}");
    let samples = parse_samples(&text);
    let cpu = samples
        .iter()
        .find(|s| {
            s.name == "oak_thread_cpu_seconds_total" && s.labels.iter().any(|(_, v)| v == CLASS)
        })
        .expect("the burner's class is exported");
    assert!(cpu.value >= 0.01, "{text}");
    assert!(samples.iter().any(|s| s.name == "oak_thread_switches_total"
        && s.labels.contains(&("class".to_owned(), CLASS.to_owned()))
        && s.labels
            .contains(&("kind".to_owned(), "voluntary".to_owned()))));
}
