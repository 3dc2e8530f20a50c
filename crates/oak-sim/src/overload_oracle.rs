//! The overload oracle: an independent reference model of the
//! production controller's state machine, plus the deterministic
//! pressure schedule that drives both.
//!
//! The single-node world arms a *driven* `oak_server::OverloadController`
//! (live sampling disabled) and feeds it one minimum-sojourn reading
//! per scenario step, derived purely from `(seed, step index)` — so a run's
//! entire overload trajectory is replayable from the seed alone. This
//! module holds the other half of the check: [`RefOverload`] re-derives
//! the expected state from the same samples using its own arithmetic
//! (an integer log of the sojourn's multiple of the target, not the
//! controller's doubling threshold walk), and the world asserts the two
//! machines agree after every step. A bug in either implementation — a
//! flipped step-down comparison, a severity band off by one — shows up
//! as a divergence with a seed that reproduces it.

/// Mirror of the default policy's target, µs. A constant, not a policy
/// import: the reference must not share the controller's data any more
/// than its code.
const TARGET_US: u64 = 5_000;

/// The deterministic per-step pressure schedule: a splitmix64 hash of
/// `(seed, step)` mapped onto sojourn bands that spend roughly half the
/// run calm, a quarter browned out, and a quarter shedding at each of
/// the three severities — enough dwell time in each level for the
/// step-down and the severity ladder to be exercised, with transitions
/// at seed-determined points. The top band runs past 8× the target, so
/// severity 3 is reached by more than its bare threshold.
pub fn pressure_of(seed: u64, step: usize) -> u64 {
    let mut x = seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let r = x >> 4;
    match x % 16 {
        // Calm: [0, T).
        0..=7 => r % TARGET_US,
        // Brownout: [T, 2T).
        8..=11 => TARGET_US + r % TARGET_US,
        // Severity 1: [2T, 4T).
        12 | 13 => 2 * TARGET_US + r % (2 * TARGET_US),
        // Severity 2: [4T, 8T).
        14 => 4 * TARGET_US + r % (4 * TARGET_US),
        // Severity 3: [8T, 16T).
        _ => 8 * TARGET_US + r % (8 * TARGET_US),
    }
}

/// The independent reference state machine. The level is a plain
/// integer (0 nominal, 1 brownout, 2..=4 shedding at severity 1..=3),
/// so agreement with the controller is a real cross-check rather than
/// the same arithmetic twice.
#[derive(Debug, Default)]
pub struct RefOverload {
    level: u32,
}

impl RefOverload {
    /// Expected level after one minimum-sojourn reading (µs): the
    /// demanded level is `1 + log2(sojourn / target)` (0 below the
    /// target, capped at 4); escalate to it at once, otherwise step
    /// down one level.
    pub fn observe(&mut self, min_sojourn_us: u64) {
        let multiple = min_sojourn_us / TARGET_US;
        let demanded = if multiple == 0 {
            0
        } else {
            (multiple.ilog2() + 1).min(4)
        };
        self.level = if demanded >= self.level {
            demanded
        } else {
            self.level - 1
        };
    }

    /// Expected controller state (0 nominal, 1 brownout, 2 shedding).
    pub fn state(&self) -> u8 {
        self.level.min(2) as u8
    }

    /// Expected shed severity (0 outside shedding).
    pub fn severity(&self) -> u8 {
        if self.level >= 2 {
            (self.level - 1) as u8
        } else {
            0
        }
    }

    /// Whether a report ingest must be refused right now.
    pub fn sheds_reports(&self) -> bool {
        self.level >= 4
    }

    /// Whether a page serve must be refused right now.
    pub fn sheds_pages(&self) -> bool {
        self.level >= 2
    }

    /// Whether the node is expected to report itself degraded.
    pub fn degraded(&self) -> bool {
        self.level >= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_visits_every_band() {
        let mut bands = [0u32; 5];
        for step in 0..1_000 {
            let multiple = pressure_of(42, step) / TARGET_US;
            let band = match multiple {
                0 => 0,
                1 => 1,
                2 | 3 => 2,
                4..=7 => 3,
                _ => 4,
            };
            bands[band] += 1;
        }
        assert!(bands.iter().all(|&n| n > 0), "bands visited: {bands:?}");
    }

    #[test]
    fn reference_steps_down_one_level_per_sample() {
        let mut reference = RefOverload::default();
        reference.observe(8 * TARGET_US);
        assert_eq!((reference.state(), reference.severity()), (2, 3));
        for expected in [(2, 2), (2, 1), (1, 0), (0, 0)] {
            reference.observe(0);
            assert_eq!((reference.state(), reference.severity()), expected);
        }
    }
}
