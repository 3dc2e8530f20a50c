//! Device-confound invariant: the cohort detector never blames a
//! healthy server for slowness the client's own device caused.
//!
//! Each seeded run builds a corpus with **zero network impairments** —
//! no persistent regional degradation, no transient congestion windows
//! — but heavy ad chains and a mixed desktop/mobile client population.
//! Every millisecond of extra latency in these page loads is therefore
//! either a stable property of the serving path (distance, server
//! quality) or the client's own silicon and radio. A detector flag on a
//! *healthy* server — one that is neither Poor-quality nor single-homed
//! far from the reporting client — can only be the device confound
//! leaking through, which is exactly what
//! [`oak_core::detect::DetectorPolicy::Cohort`] exists to stop.
//!
//! The sweep drives every report through a cohort-policy engine and
//! fails the moment any flag lands outside the truly-bad set. CI runs
//! `oak-sim --device-invariant --seeds N`, so the guarantee is checked
//! across many corpus draws, not one lucky seed.

use oak_client::{Browser, BrowserConfig, Universe};
use oak_core::detect::DetectorPolicy;
use oak_core::engine::{Oak, OakConfig};
use oak_core::Instant;
use oak_net::{DeviceProfile, SimTime};
use oak_webgen::{Corpus, CorpusConfig};

/// Counters from one clean device-invariant run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceRunStats {
    /// Page loads driven through the engine.
    pub loads: u64,
    /// Cohort flags that landed on genuinely bad servers (allowed).
    pub flags_on_bad: u64,
    /// Individual flag-vs-ground-truth checks performed.
    pub checks: u64,
}

/// Runs one seeded device-confound scenario; `Err` carries a
/// human-readable description of the blamed healthy server.
pub fn run_device_invariant(seed: u64) -> Result<DeviceRunStats, String> {
    let corpus = Corpus::generate(&CorpusConfig {
        sites: 40,
        providers: 40,
        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xD0D5),
        // The whole point: a world with no network faults at all.
        persistent_impairment_rate: 0.0,
        transient_windows_per_week: 0.0,
        // And the page shape that maximizes the device confound.
        ad_heavy_fraction: 1.0,
        ad_chain_depth: 3 + (seed % 3) as usize,
    });
    debug_assert!(corpus.world.impairments().is_empty());

    let universe = Universe::new(&corpus);
    let oak = Oak::new(OakConfig {
        detector_policy: DetectorPolicy::Cohort,
        ..OakConfig::default()
    });

    // Mixed population, rotated by seed so different sweeps pin
    // different devices to different vantage points.
    let mut browsers: Vec<Browser> = corpus
        .clients
        .iter()
        .enumerate()
        .map(|(i, &client)| {
            let device = DeviceProfile::ALL[(i + seed as usize) % DeviceProfile::ALL.len()];
            Browser::new(
                client,
                format!("u-{i}"),
                BrowserConfig {
                    device: Some(device),
                    ..BrowserConfig::default()
                },
            )
        })
        .collect();

    let mut stats = DeviceRunStats::default();
    let rounds: u64 = 10;
    let round_spacing_min = 14 * 24 * 60 / rounds;
    for round in 0..rounds {
        for (ci, browser) in browsers.iter_mut().enumerate() {
            let site = &corpus.sites[(round as usize * 3 + ci) % corpus.sites.len()];
            let t = SimTime::from_minutes(round * round_spacing_min + ci as u64 * 11);
            let load = browser.load_page(&universe, site, &site.html, &[], t);
            if load.report.entries.is_empty() {
                continue;
            }
            stats.loads += 1;
            let outcome = oak.ingest_report(Instant(t.as_millis()), &load.report, &universe);
            for violation in &outcome.violations {
                stats.checks += 1;
                // With no impairments in this world, "not troubled" is
                // exactly "healthy": neither Poor nor single-homed afar.
                if !corpus.world.troubled(&violation.ip, browser.client, t) {
                    let device =
                        DeviceProfile::ALL[(ci + seed as usize) % DeviceProfile::ALL.len()];
                    return Err(format!(
                        "seed {seed}: cohort detector blamed healthy server {} \
                         (device {}, site {}, round {round}) in an impairment-free \
                         world — device-induced slowness leaked through",
                        violation.ip, device.label, site.host,
                    ));
                }
                stats.flags_on_bad += 1;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI-swept invariant, pinned at one seed so `cargo test` keeps
    /// covering it even where the sweep binary is not run.
    #[test]
    fn cohort_never_blames_healthy_servers_for_device_slowness() {
        let stats = run_device_invariant(7).expect("invariant holds");
        assert!(stats.loads > 100, "scenario drove {} loads", stats.loads);
    }
}
