//! Process memory figures from `/proc/self/status` and the clock's own cost.

use std::time::Instant;

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// Current resident set size (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS") * 1024.0
}

/// Median cost of one `Instant::now()` in nanoseconds: the floor under every
/// latency this harness reports.
pub fn timer_ns() -> f64 {
    let mut per_call = Vec::with_capacity(9);
    for _ in 0..9 {
        let t0 = Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(Instant::now());
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / 10_000.0);
    }
    crate::stats::median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_figures_are_read_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_bytes() > 0.0);
        assert!(peak_rss_mb() * 1024.0 * 1024.0 >= rss_bytes() * 0.99);
        assert!(timer_ns() > 0.0);
    }
}
