//! Fixed log-bucket latency histogram.
//!
//! Values (nanoseconds) below [`LINEAR`] get a bucket each; above, every
//! power-of-two octave is cut into [`SUB`] equal sub-buckets, so a bucket is
//! at most `1/SUB` (0.78 %) wide relative to its lower edge and the midpoint
//! reported for it is within 0.4 % of any value it holds. Recording is one
//! shift, one add and one increment — no allocation on the timed path.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are recorded exactly.
const LINEAR: u64 = 2 * SUB;
const OCTAVES: usize = 64 - SUB_BITS as usize;
const BUCKETS: usize = LINEAR as usize + OCTAVES * SUB as usize;

/// A latency histogram over `u64` nanoseconds.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let octave = msb - SUB_BITS; // >= 1
    let sub = (v >> octave) & (SUB - 1);
    (LINEAR + (u64::from(octave) - 1) * SUB + sub) as usize
}

/// The closed value interval `[lo, hi]` bucket `b` covers.
fn bounds_of(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < LINEAR {
        return (b, b);
    }
    let octave = (b - LINEAR) / SUB + 1;
    let sub = (b - LINEAR) % SUB;
    let lo = (SUB + sub) << octave;
    (lo, lo + (1 << octave) - 1)
}

impl Histogram {
    /// An empty histogram (allocates its fixed bucket array once).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Number of recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Largest recorded value, exact.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]` by the nearest-rank rule
    /// (rank `ceil(q · n)`), as the midpoint of the bucket holding that
    /// rank; `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                let (lo, hi) = bounds_of(b);
                return (lo as f64 + hi.min(self.max) as f64) / 2.0;
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn buckets_tile_the_value_axis() {
        let mut expect_lo = 0u64;
        for b in 0..2000 {
            let (lo, hi) = bounds_of(b);
            assert_eq!(lo, expect_lo, "bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            expect_lo = hi + 1;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_are_within_one_percent_of_an_exact_sort() {
        let mut rng = SmallRng::seed_from_u64(11);
        // Log-uniform over 50 ns .. 50 ms: the spread real op latencies have.
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| (50.0 * 10f64.powf(rng.gen::<f64>() * 6.0)) as u64)
            .collect();
        let mut h = Histogram::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= 0.01 * want,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.max(), *exact.last().unwrap());
        assert_eq!(h.len(), exact.len() as u64);
    }
}
