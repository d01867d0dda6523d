//! Clock-paced event schedule and the equal windows a timed run is cut into.

/// A fixed-rate schedule: event `k` falls due at `k · interval`, and there
/// are exactly `floor(duration / interval)` of them however the clock is
/// polled. A caller that falls behind gets the overdue events one per
/// [`Pacer::due`] call and the rest from [`Pacer::remaining`] at the end, so
/// the load offered is the same on every run and on both sides of a
/// comparison.
#[derive(Debug, Clone)]
pub struct Pacer {
    interval_ns: u64,
    total: u64,
    emitted: u64,
}

impl Pacer {
    /// A schedule of one event every `interval_ns` for `duration_ns`.
    pub fn new(interval_ns: u64, duration_ns: u64) -> Self {
        assert!(interval_ns > 0, "pacer interval must be positive");
        Pacer {
            interval_ns,
            total: duration_ns / interval_ns,
            emitted: 0,
        }
    }

    /// Whether the next event is due at `elapsed_ns`; consumes it if so.
    #[inline]
    pub fn due(&mut self, elapsed_ns: u64) -> bool {
        if self.emitted < self.total && elapsed_ns >= self.emitted * self.interval_ns {
            self.emitted += 1;
            true
        } else {
            false
        }
    }

    /// Events of the schedule not handed out yet; marks them all emitted.
    pub fn remaining(&mut self) -> u64 {
        let left = self.total - self.emitted;
        self.emitted = self.total;
        left
    }
}

/// Index of the window `elapsed_ns` falls into when a run is cut into
/// `windows` parts of `window_ns` each; work finishing after the end belongs
/// to the last window.
#[inline]
pub fn window_of(elapsed_ns: u64, window_ns: u64, windows: usize) -> usize {
    ((elapsed_ns / window_ns.max(1)) as usize).min(windows - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_exactly_rate_times_duration_when_polled_often() {
        // 50 batches/s for 25 s, polled every 7 µs.
        let mut p = Pacer::new(20_000_000, 25_000_000_000);
        let mut n = 0u64;
        let mut t = 0u64;
        while t < 25_000_000_000 {
            while p.due(t) {
                n += 1;
            }
            t += 7_000;
        }
        n += p.remaining();
        assert_eq!(n, 1250);
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn a_stalled_caller_still_emits_the_whole_schedule() {
        // The engine blocks the client for 3 s in the middle: overdue events
        // come out on the next polls, none are lost, none are invented.
        let mut p = Pacer::new(20_000_000, 10_000_000_000);
        let mut n = 0u64;
        for t in [
            0u64,
            1_000_000_000,
            4_000_000_000,
            4_000_001_000,
            9_999_999_999,
        ] {
            while p.due(t) {
                n += 1;
            }
        }
        n += p.remaining();
        assert_eq!(n, 500);
        assert!(!p.due(u64::MAX));
    }

    #[test]
    fn events_are_never_early() {
        let mut p = Pacer::new(1_000, 10_000);
        assert!(p.due(0));
        assert!(!p.due(999));
        assert!(p.due(1_000));
        assert!(!p.due(1_999));
    }

    #[test]
    fn windows_are_equal_and_late_work_lands_in_the_last() {
        let w = 5_000_000_000u64;
        assert_eq!(window_of(0, w, 5), 0);
        assert_eq!(window_of(4_999_999_999, w, 5), 0);
        assert_eq!(window_of(5_000_000_000, w, 5), 1);
        assert_eq!(window_of(24_999_999_999, w, 5), 4);
        assert_eq!(window_of(5 * w + 123, w, 5), 4);
    }
}
