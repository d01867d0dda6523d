//! A table-based Zipf sampler.
//!
//! The Section 6.1 simulation uses "uniform and skewed (Zipf) distribution
//! of the queries over the attribute domain". The paper does not state the
//! exponent; we default to the classic `s = 1.0` (the Section 6.1
//! experiments, `repro --experiment simulation`, set their own — see
//! `SimConfig::zipf_exponent`). The sampler precomputes the CDF over `n`
//! ranks and inverts it with a binary search — exact, allocation-free per
//! sample, and fast enough for millions of draws.

use rand::Rng;

/// Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(k) ∝ 1 / k^s`.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/NaN.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0 && !s.is_nan(), "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Probability mass of rank `k` (1-based).
    #[cfg(test)]
    pub(crate) fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&k));
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Draws a rank in `1..=n` (rank 1 is the most probable).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First rank whose CDF value reaches u.
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_is_decreasing_and_normalized() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) > z.pmf(k + 1), "rank {k}");
        }
    }

    #[test]
    fn s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = vec![0u32; 1001];
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
            counts[k] += 1;
        }
        // Rank 1 should dominate: p(1) = 1/H_1000 ~ 0.133.
        let p1 = counts[1] as f64 / n as f64;
        assert!((p1 - z.pmf(1)).abs() < 0.01, "p1 = {p1}");
        // Top 10 ranks hold the plurality of the mass.
        let top10: u32 = counts[1..=10].iter().sum();
        assert!(top10 as f64 / n as f64 > 0.35);
    }

    #[test]
    fn heavier_exponent_concentrates_more() {
        let flat = Zipf::new(100, 0.5);
        let steep = Zipf::new(100, 2.0);
        assert!(steep.pmf(1) > flat.pmf(1));
        assert!(steep.pmf(100) < flat.pmf(100));
    }

    #[test]
    fn single_rank_always_samples_one() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
