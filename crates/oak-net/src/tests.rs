//! Unit and property tests for the network model.

use crate::*;

fn small_world(seed: u64) -> (World, ClientId, ServerId, ServerId) {
    let mut b = WorldBuilder::new(seed);
    let near = b.server("near.example", Region::NorthAmerica, Quality::Good);
    let far = b.server("far.example", Region::Asia, Quality::Good);
    let client = b.client(Region::NorthAmerica);
    (b.build(), client, near, far)
}

#[test]
fn ip_parse_and_display_roundtrip() {
    for text in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"] {
        let ip = IpAddr::parse(text).unwrap();
        assert_eq!(ip.to_string(), text);
    }
}

#[test]
fn ip_parse_rejects_garbage() {
    for bad in [
        "",
        "1.2.3",
        "1.2.3.4.5",
        "256.0.0.1",
        "a.b.c.d",
        "1..2.3",
        "01x.0.0.0",
    ] {
        assert!(IpAddr::parse(bad).is_none(), "{bad:?}");
    }
}

#[test]
fn subnet24_groups_neighbours() {
    let a = IpAddr::parse("10.1.2.3").unwrap();
    let b = IpAddr::parse("10.1.2.250").unwrap();
    let c = IpAddr::parse("10.1.3.3").unwrap();
    assert_eq!(a.subnet24(), b.subnet24());
    assert_ne!(a.subnet24(), c.subnet24());
}

#[test]
fn sim_time_units_and_display() {
    assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
    assert_eq!(SimTime::from_minutes(3).as_millis(), 180_000);
    assert_eq!(SimTime::from_hours(1).as_millis(), 3_600_000);
    assert_eq!(SimTime::from_days(2).day(), 2);
    assert_eq!((SimTime::from_secs(5) - SimTime::from_secs(2)), 3_000);
    assert_eq!(SimTime::from_hours(30).hour_of_day_utc(), 6.0);
    assert_eq!(
        format!("{}", SimTime::from_millis(90_061_001)),
        "1+01:01:01.001"
    );
}

#[test]
fn rtt_matrix_is_symmetric_with_local_minimum() {
    for a in Region::ALL {
        for b in Region::ALL {
            assert_eq!(rtt_ms(a, b), rtt_ms(b, a));
            if a != b {
                assert!(rtt_ms(a, b) > rtt_ms(a, a), "{a} -> {b}");
            }
        }
    }
}

#[test]
fn stateless_rng_is_deterministic_and_key_sensitive() {
    let a1 = StatelessRng::keyed(1, &[1, 2]).next_u64();
    let a2 = StatelessRng::keyed(1, &[1, 2]).next_u64();
    let b = StatelessRng::keyed(1, &[1, 3]).next_u64();
    let c = StatelessRng::keyed(2, &[1, 2]).next_u64();
    assert_eq!(a1, a2);
    assert_ne!(a1, b);
    assert_ne!(a1, c);
}

#[test]
fn rng_distributions_are_sane() {
    let mut rng = StatelessRng::keyed(99, &[7]);
    let n = 20_000;
    let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
    assert!((mean - 0.5).abs() < 0.02, "uniform mean {mean}");

    let mut rng = StatelessRng::keyed(99, &[8]);
    let nmean: f64 = (0..n).map(|_| rng.normal()).sum::<f64>() / n as f64;
    assert!(nmean.abs() < 0.05, "normal mean {nmean}");

    let mut rng = StatelessRng::keyed(99, &[9]);
    // Log-normal with median 1: about half the draws fall below 1.
    let below: usize = (0..n).filter(|_| rng.lognormal(0.3) < 1.0).count();
    let frac = below as f64 / n as f64;
    assert!(
        (frac - 0.5).abs() < 0.03,
        "lognormal median fraction {frac}"
    );

    let mut rng = StatelessRng::keyed(99, &[10]);
    for _ in 0..1000 {
        let v = rng.uniform(3.0, 5.0);
        assert!((3.0..5.0).contains(&v));
        assert!(rng.below(7) < 7);
    }
}

#[test]
fn dns_single_and_missing() {
    let (world, client, near, _) = small_world(5);
    assert_eq!(
        world.resolve("near.example", client),
        Some(world.ip_of(near))
    );
    assert_eq!(world.resolve("nosuch.example", client), None);
}

#[test]
fn dns_aliases_share_ip() {
    let mut b = WorldBuilder::new(5);
    let s = b.server("cdn.example", Region::Europe, Quality::Good);
    b.alias("img.brand.example", s);
    b.alias("static.brand.example", s);
    let c = b.client(Region::Europe);
    let world = b.build();
    let ip = world.ip_of(s);
    assert_eq!(world.resolve("img.brand.example", c), Some(ip));
    let mut domains = world.dns.domains_for(ip);
    domains.sort_unstable();
    assert_eq!(
        domains,
        ["cdn.example", "img.brand.example", "static.brand.example"]
    );
}

#[test]
fn dns_multihome_pins_clients_consistently() {
    let mut b = WorldBuilder::new(11);
    let s1 = b.server("replica1.example", Region::NorthAmerica, Quality::Good);
    let s2 = b.server("replica2.example", Region::Europe, Quality::Good);
    b.multihome("www.example", s1);
    b.multihome("www.example", s2);
    let clients: Vec<ClientId> = (0..40).map(|_| b.client(Region::NorthAmerica)).collect();
    let world = b.build();

    let mut seen = std::collections::BTreeSet::new();
    for &c in &clients {
        let first = world.resolve("www.example", c).unwrap();
        // Affinity: repeated resolution gives the same answer.
        assert_eq!(world.resolve("www.example", c), Some(first));
        seen.insert(first);
    }
    assert_eq!(seen.len(), 2, "40 clients should land on both replicas");
}

#[test]
fn fetch_is_deterministic() {
    let (world, client, near, _) = small_world(21);
    let t = SimTime::from_hours(3);
    let a = world.fetch(t, client, world.ip_of(near), 30_000, 42);
    let b = world.fetch(t, client, world.ip_of(near), 30_000, 42);
    assert_eq!(a, b);
}

#[test]
fn fetch_distance_dominates() {
    // Averaged over noise, the cross-ocean fetch is slower.
    let (world, client, near, far) = small_world(33);
    let (mut near_total, mut far_total) = (0.0, 0.0);
    for i in 0..50 {
        let t = SimTime::from_minutes(i * 7);
        near_total += world.fetch(t, client, world.ip_of(near), 20_000, i).time_ms;
        far_total += world.fetch(t, client, world.ip_of(far), 20_000, i).time_ms;
    }
    assert!(
        far_total > near_total * 1.5,
        "far {far_total} vs near {near_total}"
    );
}

#[test]
fn fetch_large_objects_report_lower_time_higher_bits() {
    let (world, client, near, _) = small_world(8);
    let t = SimTime::from_hours(1);
    let small = world.fetch(t, client, world.ip_of(near), 10_000, 1);
    let large = world.fetch(t, client, world.ip_of(near), 500_000, 1);
    assert!(large.time_ms > small.time_ms);
    assert!(
        large.throughput_kbps > small.throughput_kbps,
        "throughput improves once transfer dominates the fixed costs"
    );
    assert_eq!(large.bytes, 500_000);
}

#[test]
fn quality_tiers_order_latency() {
    let mut b = WorldBuilder::new(13);
    let good = b.server("good.example", Region::NorthAmerica, Quality::Good);
    let poor = b.server("poor.example", Region::NorthAmerica, Quality::Poor);
    // Average over several clients: the per-(client, server) path
    // affinity is deliberately stable, so a single pair could mask the
    // tier difference.
    let clients: Vec<ClientId> = (0..10).map(|_| b.client(Region::NorthAmerica)).collect();
    let world = b.build();
    let mut good_total = 0.0;
    let mut poor_total = 0.0;
    for &client in &clients {
        for i in 0..10 {
            let t = SimTime::from_minutes(i * 11);
            good_total += world.fetch(t, client, world.ip_of(good), 40_000, i).time_ms;
            poor_total += world.fetch(t, client, world.ip_of(poor), 40_000, i).time_ms;
        }
    }
    assert!(poor_total > good_total * 1.3);
}

#[test]
fn diurnal_load_peaks_in_local_afternoon() {
    let mut b = WorldBuilder::new(3);
    let s = b.server("s.example", Region::Europe, Quality::Poor);
    let world = b.build();
    let server = world.server(s);
    // 14:00 local in EU (UTC+1) is 13:00 UTC.
    let peak = server.diurnal_load(SimTime::from_hours(13));
    let trough = server.diurnal_load(SimTime::from_hours(1));
    assert!(peak > trough * 1.3, "peak {peak} trough {trough}");
    assert!(trough >= 1.0);
}

#[test]
fn injected_delay_adds_exactly() {
    let (mut world, client, near, _) = small_world(50);
    let t = SimTime::from_hours(2);
    let ip = world.ip_of(near);
    let before = world.fetch(t, client, ip, 30_000, 9);
    world.inject_delay(near, 1500.0);
    let after = world.fetch(t, client, ip, 30_000, 9);
    assert!((after.time_ms - before.time_ms - 1500.0).abs() < 1e-6);
    world.remove_injected_delays(near);
    let cleared = world.fetch(t, client, ip, 30_000, 9);
    assert_eq!(cleared, before);
}

#[test]
fn transient_congestion_has_a_window() {
    let (mut world, client, near, _) = small_world(60);
    let ip = world.ip_of(near);
    world.add_impairment(Impairment {
        server: near,
        kind: ImpairmentKind::TransientCongestion { severity: 5.0 },
        window: Some((SimTime::from_hours(10), SimTime::from_hours(12))),
    });
    let during = world.fetch(SimTime::from_hours(11), client, ip, 30_000, 1);
    let outside = world.fetch(SimTime::from_hours(13), client, ip, 30_000, 1);
    // Same noise bucket parameters differ; compare well beyond noise.
    assert!(during.time_ms > outside.time_ms * 1.5);
}

#[test]
fn regional_degradation_hits_only_target_region() {
    let mut b = WorldBuilder::new(71);
    let s = b.server("s.example", Region::NorthAmerica, Quality::Good);
    let na = b.client(Region::NorthAmerica);
    let eu = b.client(Region::Europe);
    let mut world = b.build();
    let ip = world.ip_of(s);
    let t = SimTime::from_hours(4);

    let eu_before = world.fetch(t, eu, ip, 30_000, 2);
    let na_before = world.fetch(t, na, ip, 30_000, 2);
    world.add_impairment(Impairment {
        server: s,
        kind: ImpairmentKind::RegionalPathDegradation {
            region: Region::Europe,
            severity: 6.0,
        },
        window: None,
    });
    let eu_after = world.fetch(t, eu, ip, 30_000, 2);
    let na_after = world.fetch(t, na, ip, 30_000, 2);
    assert!(eu_after.time_ms > eu_before.time_ms * 2.0);
    assert_eq!(na_after, na_before, "NA clients are untouched");
}

#[test]
fn clear_impairments_removes_all_for_server() {
    let (mut world, client, near, _) = small_world(80);
    let ip = world.ip_of(near);
    let t = SimTime::from_hours(1);
    let before = world.fetch(t, client, ip, 10_000, 1);
    world.inject_delay(near, 100.0);
    world.inject_delay(near, 200.0);
    assert_eq!(world.impairments().len(), 2);
    world.clear_impairments(near);
    assert_eq!(world.fetch(t, client, ip, 10_000, 1), before);
}

#[test]
fn dns_lookup_time_is_positive_and_deterministic() {
    let (world, client, _, _) = small_world(90);
    let t = SimTime::from_hours(1);
    let a = world.dns_lookup_ms(t, client, url_nonce("x.example"));
    let b = world.dns_lookup_ms(t, client, url_nonce("x.example"));
    assert_eq!(a, b);
    assert!(a > 0.0);
}

#[test]
fn warm_fetches_skip_the_handshake() {
    let (world, client, near, _) = small_world(70);
    let t = SimTime::from_hours(1);
    let ip = world.ip_of(near);
    let cold = world.fetch_opts(t, client, ip, 10_000, 5, false);
    let warm = world.fetch_opts(t, client, ip, 10_000, 5, true);
    assert!(warm.time_ms < cold.time_ms);
    assert!(warm.connect_ms < cold.connect_ms);
    // Exactly one RTT of handshake saved, modulo shared noise factors:
    // warm connect is a third of cold (0.5·rtt vs 1.5·rtt).
    assert!((warm.connect_ms * 3.0 - cold.connect_ms).abs() < 1e-6);
    // fetch() is the cold path.
    assert_eq!(world.fetch(t, client, ip, 10_000, 5), cold);
}

#[test]
fn mobile_clients_have_cellular_links() {
    let mut b = WorldBuilder::new(44);
    let broadband = b.client(Region::Europe);
    let mobile = b.mobile_client(Region::Europe);
    let custom = b.client_with_link(Region::Europe, (500.0, 501.0), (200.0, 201.0));
    let world = b.build();
    let bb = world.client(broadband);
    let mb = world.client(mobile);
    let cu = world.client(custom);
    assert!(mb.access_kbps < bb.access_kbps);
    assert!(mb.last_mile_ms > bb.last_mile_ms);
    assert!((500.0..=501.0).contains(&cu.access_kbps));
    assert!((200.0..=201.0).contains(&cu.last_mile_ms));
    assert_eq!(mb.region, Region::Europe);
}

#[test]
fn distributed_servers_serve_far_clients_locally() {
    let mut b = WorldBuilder::new(45);
    let single = b.server("single.example", Region::Asia, Quality::Good);
    let spread = b.distributed_server("spread.example", Region::Asia, Quality::Good);
    let na = b.client(Region::NorthAmerica);
    let world = b.build();
    let t = SimTime::from_hours(2);
    let mut single_total = 0.0;
    let mut spread_total = 0.0;
    for i in 0..30 {
        single_total += world.fetch(t, na, world.ip_of(single), 10_000, i).time_ms;
        spread_total += world.fetch(t, na, world.ip_of(spread), 10_000, i).time_ms;
    }
    assert!(
        single_total > spread_total * 1.8,
        "cross-Pacific single-homed {} vs edge-served {}",
        single_total,
        spread_total
    );
}

#[test]
fn affinity_neutral_servers_skip_the_pair_factor() {
    let mut b = WorldBuilder::new(46);
    let normal = b.server("n.example", Region::NorthAmerica, Quality::Good);
    let neutral = b.server("m.example", Region::NorthAmerica, Quality::Good);
    b.tune_server(neutral, |s| s.affinity_neutral = true);
    let clients: Vec<ClientId> = (0..30).map(|_| b.client(Region::NorthAmerica)).collect();
    let world = b.build();
    let t = SimTime::from_hours(1);
    // Across many clients, the neutral server's times vary much less
    // (only last-mile and jitter remain).
    let spread = |id| {
        let times: Vec<f64> = clients
            .iter()
            .map(|&c| world.fetch(t, c, world.ip_of(id), 10_000, 1).time_ms)
            .collect();
        let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = times.iter().cloned().fold(0.0f64, f64::max);
        hi / lo
    };
    assert!(spread(normal) > spread(neutral));
}

#[test]
fn troubled_names_each_cause_and_nothing_else() {
    let mut b = WorldBuilder::new(48);
    let healthy = b.distributed_server("ok.example", Region::Asia, Quality::Good);
    let local = b.server("local.example", Region::Europe, Quality::Good);
    let impaired = b.distributed_server("busy.example", Region::Europe, Quality::Good);
    let distant = b.server("far.example", Region::Asia, Quality::Good);
    let poor = b.distributed_server("poor.example", Region::Europe, Quality::Poor);
    let client = b.client(Region::Europe);
    let mut world = b.build();
    world.add_impairment(Impairment {
        server: impaired,
        kind: ImpairmentKind::TransientCongestion { severity: 4.0 },
        window: Some((SimTime::from_hours(10), SimTime::from_hours(12))),
    });
    let during = SimTime::from_hours(11);
    let troubled = |id, t| world.troubled(&world.ip_of(id).to_string(), client, t);

    assert!(!troubled(healthy, during));
    assert!(
        !troubled(local, during),
        "single-homed in the client's region"
    );
    assert!(troubled(impaired, during));
    assert!(
        !troubled(impaired, SimTime::from_hours(13)),
        "window closed"
    );
    assert!(troubled(distant, during));
    assert!(troubled(poor, during));
    assert!(
        !world.troubled("192.0.2.1", client, during),
        "no server there"
    );
    assert!(!world.troubled("not-an-ip", client, during));
}

#[test]
#[should_panic(expected = "fetch from unknown ip")]
fn fetch_from_unknown_ip_panics() {
    let (world, client, _, _) = small_world(91);
    world.fetch(SimTime::ZERO, client, IpAddr(1), 100, 0);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Fetch outputs are finite and positive for any parameters.
        #[test]
        fn fetch_is_well_formed(
            seed in 0u64..1000,
            bytes in 1u64..5_000_000,
            minutes in 0u64..10_000,
            nonce in any::<u64>(),
        ) {
            let (world, client, near, _) = small_world(seed);
            let f = world.fetch(SimTime::from_minutes(minutes), client, world.ip_of(near), bytes, nonce);
            prop_assert!(f.time_ms.is_finite() && f.time_ms > 0.0);
            prop_assert!(f.throughput_kbps.is_finite() && f.throughput_kbps > 0.0);
            prop_assert!(f.connect_ms > 0.0 && f.connect_ms <= f.time_ms + 1e-9);
        }

        /// Diurnal load stays within [1, 1+amplitude·(1+ε)] at all times.
        #[test]
        fn diurnal_load_is_bounded(hours in 0u64..2000) {
            let mut b = WorldBuilder::new(17);
            let s = b.server("s.example", Region::Asia, Quality::Poor);
            let world = b.build();
            let server = world.server(s);
            let load = server.diurnal_load(SimTime::from_hours(hours));
            prop_assert!(load >= 1.0);
            prop_assert!(load <= 1.0 + server.diurnal_amplitude + 1e-9);
        }

        /// IP parse/display round-trips for all 32-bit addresses.
        #[test]
        fn ip_roundtrip(v in any::<u32>()) {
            let ip = IpAddr(v);
            prop_assert_eq!(IpAddr::parse(&ip.to_string()), Some(ip));
        }

        /// Resolution is total over arbitrary domain strings.
        #[test]
        fn resolve_is_total(domain in "\\PC{0,32}") {
            let (world, client, _, _) = small_world(7);
            let _ = world.resolve(&domain, client);
        }
    }
}
