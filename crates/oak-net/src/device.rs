//! Client device hardware classes.
//!
//! The paper's testbed measured from PlanetLab nodes — server-class
//! hardware on wired links — so every vantage point paid roughly the
//! same CPU cost per object. Real client populations do not: a low-end
//! phone parses and executes a script an order of magnitude slower than
//! a desktop, and reaches the network over a radio that adds tens of
//! milliseconds of latency to every request. A [`DeviceProfile`] prices
//! both effects so the evaluation stack can load the same page on
//! different silicon and see different truths.
//!
//! The model is deliberately per-*object*, not per-page: the cost lands
//! on exactly the fetches whose URLs name script, which is what makes
//! ad chains — long dependent sequences of small `.js` objects — the
//! worst case on mobile even though they are nearly free on desktop.
//! That asymmetry is the device confound: a within-report test cannot
//! cancel it, so a phone's report makes healthy ad servers look like
//! violators.

/// Baseline (desktop) cost to parse + execute one script, ms.
const SCRIPT_BASE_MS: f64 = 8.0;

/// Baseline per-KiB script parse + execute cost, ms.
const SCRIPT_PER_KB_MS: f64 = 0.35;

/// One hardware class: a CPU processing-delay multiplier and a radio
/// latency class. Applied client-side by the simulated browser; the
/// network model itself is device-blind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    /// The class name — matches the report wire spelling, so a profile
    /// maps onto the report's device class without a lookup table.
    pub label: &'static str,
    /// Multiplier on script parse/execute CPU cost (desktop = 1).
    pub cpu_multiplier: f64,
    /// Extra last-hop latency the device's radio adds to every network
    /// fetch, ms (0 for wired/Wi-Fi desktop).
    pub radio_rtt_ms: f64,
}

impl DeviceProfile {
    /// Wired/Wi-Fi desktop: the testbed baseline. Costs are the model's
    /// unit scale, not zero — desktops execute script too.
    pub const DESKTOP: DeviceProfile = DeviceProfile {
        label: "desktop",
        cpu_multiplier: 1.0,
        radio_rtt_ms: 0.0,
    };

    /// A current mid-range phone on LTE: a few times slower per script,
    /// a modest radio penalty per request.
    pub const MID_MOBILE: DeviceProfile = DeviceProfile {
        label: "mid-mobile",
        cpu_multiplier: 3.0,
        radio_rtt_ms: 25.0,
    };

    /// A low-end phone on a congested radio: the order-of-magnitude CPU
    /// gap the adPerf literature measures, plus a long radio wake-up.
    pub const LOW_END_MOBILE: DeviceProfile = DeviceProfile {
        label: "low-end-mobile",
        cpu_multiplier: 9.0,
        radio_rtt_ms: 60.0,
    };

    /// CPU time to parse + execute one script of `bytes`, ms. Scripts
    /// carry a base cost (JIT warm-up, global execution) plus a per-KiB
    /// cost, both scaled by the class multiplier; a tiny ad-chain loader
    /// still costs real time on a phone.
    pub fn script_cost_ms(&self, bytes: u64) -> f64 {
        self.cpu_multiplier * (SCRIPT_BASE_MS + SCRIPT_PER_KB_MS * bytes as f64 / 1024.0)
    }

    /// The device-side cost this class adds to one object fetch, ms:
    /// the radio latency (every network fetch) plus, for script, the CPU
    /// execute cost.
    pub fn object_cost_ms(&self, bytes: u64, is_script: bool) -> f64 {
        self.radio_rtt_ms
            + if is_script {
                self.script_cost_ms(bytes)
            } else {
                0.0
            }
    }
}
