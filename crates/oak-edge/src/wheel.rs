//! Hashed timer wheel with lazy cancellation.
//!
//! Every connection carries at most one *authoritative* deadline (a
//! field on the connection); the wheel only remembers that *some*
//! deadline was scheduled. Firing is therefore cheap to re-arm: moving a
//! deadline just overwrites the connection field and schedules a fresh
//! entry — stale entries fire, get compared against the authoritative
//! field, and are dropped or rescheduled. With one entry per keep-alive
//! request this stays O(1) per operation and never requires finding an
//! old entry to delete.
//!
//! Deadlines fire at tick granularity: up to `granularity_ms` late,
//! never early. The reactor's timeouts are hundreds of milliseconds, so
//! a [`TICK_MS`] tick is invisible to clients and keeps the idle wakeup
//! rate bounded.

/// The reactor's wheel granularity, and so its wait timeout while any
/// connection or timer exists: at most `1000 / TICK_MS` idle wakeups a
/// second.
pub(crate) const TICK_MS: u64 = 5;

/// The wheel. Slots hold `(token, deadline_ms)` pairs; a token's slot is
/// `(deadline / granularity) % slots`.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>,
    granularity: u64,
    /// Absolute ms the previous [`TimerWheel::advance`] ran at.
    cursor_ms: u64,
    pending: usize,
}

impl TimerWheel {
    pub fn new(granularity_ms: u64, slot_count: usize) -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); slot_count.max(1)],
            granularity: granularity_ms.max(1),
            cursor_ms: 0,
            pending: 0,
        }
    }

    /// Remembers that `token` has a deadline at absolute `deadline_ms`.
    pub fn schedule(&mut self, token: u64, deadline_ms: u64) {
        let slot = ((deadline_ms / self.granularity) as usize) % self.slots.len();
        self.slots[slot].push((token, deadline_ms));
        self.pending += 1;
    }

    /// Entries scheduled and not yet fired (stale ones included).
    pub fn pending(&self) -> usize {
        self.pending
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Collects every token whose scheduled deadline is `<= now_ms`,
    /// visiting only the slots whose tick boundaries passed since the
    /// previous call (capped at one full rotation, which covers every
    /// slot after a long stall).
    pub fn advance(&mut self, now_ms: u64, due: &mut Vec<u64>) {
        due.clear();
        if self.pending == 0 {
            self.cursor_ms = now_ms;
            return;
        }
        let slot_count = self.slots.len() as u64;
        let from_tick = self.cursor_ms / self.granularity;
        let to_tick = now_ms / self.granularity;
        let ticks = (to_tick.saturating_sub(from_tick)).min(slot_count);
        for i in 0..=ticks {
            let slot = ((from_tick + i) % slot_count) as usize;
            let bucket = &mut self.slots[slot];
            let mut j = 0;
            while j < bucket.len() {
                if bucket[j].1 <= now_ms {
                    due.push(bucket.swap_remove(j).0);
                    self.pending -= 1;
                } else {
                    j += 1;
                }
            }
        }
        self.cursor_ms = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::TimerWheel;

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let mut wheel = TimerWheel::new(10, 64);
        let mut due = Vec::new();
        wheel.schedule(7, 105);
        wheel.advance(100, &mut due);
        assert!(due.is_empty(), "fired {}ms early", 105 - 100);
        wheel.advance(110, &mut due);
        assert_eq!(due, vec![7]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn long_stall_sweeps_every_slot() {
        let mut wheel = TimerWheel::new(10, 8);
        let mut due = Vec::new();
        for token in 0..20u64 {
            wheel.schedule(token, 10 + token * 7);
        }
        // One advance far past every deadline (more ticks than slots).
        wheel.advance(100_000, &mut due);
        due.sort_unstable();
        assert_eq!(due, (0..20u64).collect::<Vec<_>>());
        assert!(wheel.is_empty());
    }

    #[test]
    fn future_rotation_entry_survives_until_its_turn() {
        // Slot collision: deadline 15 and deadline 15 + 8*10 share slot 1.
        let mut wheel = TimerWheel::new(10, 8);
        let mut due = Vec::new();
        wheel.schedule(1, 15);
        wheel.schedule(2, 95);
        wheel.advance(20, &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(wheel.pending(), 1);
        wheel.advance(90, &mut due);
        assert!(due.is_empty());
        wheel.advance(100, &mut due);
        assert_eq!(due, vec![2]);
    }

    #[test]
    fn repeated_advance_within_one_tick_is_cheap_and_correct() {
        let mut wheel = TimerWheel::new(10, 16);
        let mut due = Vec::new();
        wheel.schedule(3, 12);
        wheel.advance(11, &mut due);
        assert!(due.is_empty());
        wheel.advance(12, &mut due);
        assert_eq!(due, vec![3]);
        wheel.advance(13, &mut due);
        assert!(due.is_empty());
    }
}
