//! Range-query workload generators.
//!
//! All four query-position regimes of the paper's evaluation:
//!
//! * **Uniform** — positions uniform over the domain (Section 6.1).
//! * **Zipf** — positions skewed by a Zipf law over domain buckets (6.1).
//! * **Hotspot** — "200 subsequent queries from the log that access two
//!   very limited areas of the domain" (the `skew` SkyServer load, 6.2).
//! * **Changing** — "four pieces of 50 subsequent queries with changing
//!   point of access" (the `changing` SkyServer load, 6.2).
//!
//! Every generator is fully determined by a seed; the query *width* is a
//! fraction of the domain width (the paper's selectivity factor: with data
//! uniform over the domain, domain-fraction ≈ result-fraction).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soc_core::{ColumnValue, ValueRange};

use crate::zipf::Zipf;

/// How query positions are distributed over the attribute domain.
#[derive(Debug, Clone)]
pub enum QueryDistribution {
    /// Uniform positions over the whole domain.
    Uniform,
    /// Uniform positions drawn from a fixed pool of `windows` distinct
    /// query windows — real query logs repeat popular windows, which is
    /// what the paper's SkyServer "random" load's segment counts imply
    /// (Table 2: ~23–31 segments after 200 queries).
    PooledUniform {
        /// Number of distinct windows in the pool.
        windows: usize,
    },
    /// Zipf-skewed positions: the domain is cut into `buckets` equal slices
    /// ranked 1..=buckets; slice popularity follows Zipf(`exponent`).
    Zipf {
        /// Zipf exponent (1.0 unless stated otherwise).
        exponent: f64,
        /// Number of domain slices carrying the Zipf ranks.
        buckets: usize,
    },
    /// All queries target a few narrow areas around `centers` (fractions of
    /// the domain in `[0,1]`), jittered by `spread` (also a domain fraction).
    Hotspot {
        /// Hot-area centers as domain fractions.
        centers: Vec<f64>,
        /// Jitter around each center as a domain fraction.
        spread: f64,
    },
    /// The workload walks through `phases` access points, spending an equal
    /// run of consecutive queries near each (with `spread` jitter).
    Changing {
        /// Per-phase access points as domain fractions.
        phases: Vec<f64>,
        /// Jitter around each phase point as a domain fraction.
        spread: f64,
    },
}

impl QueryDistribution {}

/// A complete, reproducible workload description.
///
/// ```
/// use soc_core::ValueRange;
/// use soc_workload::WorkloadSpec;
///
/// let domain = ValueRange::must(0u32, 999_999);
/// // The paper's uniform load: 10% selectivity.
/// let queries = WorkloadSpec::uniform(0.1, 100, 42).generate(&domain);
/// assert_eq!(queries.len(), 100);
/// assert!(queries.iter().all(|q| q.hi() <= 999_999));
/// // Same spec, same queries: everything is seeded.
/// assert_eq!(queries, WorkloadSpec::uniform(0.1, 100, 42).generate(&domain));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Position regime.
    pub distribution: QueryDistribution,
    /// Query width as a fraction of the domain width (the paper's
    /// selectivity factor: 0.1 and 0.01 in Section 6.1).
    pub selectivity: f64,
    /// Number of queries.
    pub count: usize,
    /// RNG seed; equal specs generate equal workloads.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Uniform workload (Section 6.1).
    pub fn uniform(selectivity: f64, count: usize, seed: u64) -> Self {
        WorkloadSpec {
            distribution: QueryDistribution::Uniform,
            selectivity,
            count,
            seed,
        }
    }

    /// Log-like uniform workload: `windows` distinct query windows spread
    /// uniformly over the domain, revisited at random (the Section 6.2
    /// "random" load).
    pub fn pooled_uniform(selectivity: f64, windows: usize, count: usize, seed: u64) -> Self {
        WorkloadSpec {
            distribution: QueryDistribution::PooledUniform { windows },
            selectivity,
            count,
            seed,
        }
    }

    /// Zipf workload with the default exponent 1.0 over 1000 buckets (6.1).
    pub fn zipf(selectivity: f64, count: usize, seed: u64) -> Self {
        Self::zipf_with_exponent(selectivity, 1.0, count, seed)
    }

    /// Zipf workload with an explicit exponent over 1000 buckets.
    pub fn zipf_with_exponent(selectivity: f64, exponent: f64, count: usize, seed: u64) -> Self {
        WorkloadSpec {
            distribution: QueryDistribution::Zipf {
                exponent,
                buckets: 1000,
            },
            selectivity,
            count,
            seed,
        }
    }

    /// The two-hot-areas "skew" load of Section 6.2.
    pub fn skewed_two_areas(selectivity: f64, count: usize, seed: u64) -> Self {
        WorkloadSpec {
            distribution: QueryDistribution::Hotspot {
                centers: vec![0.3, 0.72],
                spread: 0.01,
            },
            selectivity,
            count,
            seed,
        }
    }

    /// The four-phase "changing" load of Section 6.2.
    pub fn changing_four_points(selectivity: f64, count: usize, seed: u64) -> Self {
        WorkloadSpec {
            distribution: QueryDistribution::Changing {
                phases: vec![0.15, 0.4, 0.65, 0.9],
                spread: 0.01,
            },
            selectivity,
            count,
            seed,
        }
    }

    /// Generates the query sequence over `domain`.
    ///
    /// # Panics
    /// Panics when `selectivity` is not in `(0, 1]`.
    pub fn generate<V: ColumnValue>(&self, domain: &ValueRange<V>) -> Vec<ValueRange<V>> {
        assert!(
            self.selectivity > 0.0 && self.selectivity <= 1.0,
            "selectivity must be in (0, 1]"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let d_lo = domain.lo().to_f64();
        let d_hi = domain.hi().to_f64();
        let d_width = d_hi - d_lo;
        let q_width = d_width * self.selectivity;
        let max_lo = (d_hi - q_width).max(d_lo);

        let clamp01 = |x: f64| x.clamp(0.0, 1.0);
        let mk = |lo_pos: f64| -> ValueRange<V> {
            let lo_pos = lo_pos.clamp(d_lo, max_lo);
            let lo = V::from_f64(lo_pos);
            let hi = V::from_f64(lo_pos + q_width).max(lo);
            ValueRange::new(lo, hi.min(domain.hi()))
                .unwrap_or_else(|| ValueRange::new(lo, lo).expect("singleton range is valid"))
        };

        match &self.distribution {
            QueryDistribution::Uniform => (0..self.count)
                .map(|_| mk(d_lo + rng.gen::<f64>() * (max_lo - d_lo)))
                .collect(),
            QueryDistribution::PooledUniform { windows } => {
                assert!(*windows > 0, "pool needs at least one window");
                // Stratified placement: one window per stratum with light
                // jitter, so the pool "covers the attribute domain
                // uniformly" (Section 6.2) instead of clumping. When the
                // window count is near 1/selectivity the windows tile the
                // domain almost disjointly, which is what Table 2's
                // query-aligned segment sizes imply about the real log.
                let spacing = (max_lo - d_lo) / *windows as f64;
                let pool: Vec<f64> = (0..*windows)
                    .map(|i| d_lo + (i as f64 + rng.gen::<f64>() * 0.1) * spacing)
                    .collect();
                (0..self.count)
                    .map(|_| mk(pool[rng.gen_range(0..pool.len())]))
                    .collect()
            }
            QueryDistribution::Zipf { exponent, buckets } => {
                let zipf = Zipf::new(*buckets, *exponent);
                (0..self.count)
                    .map(|_| {
                        let rank = zipf.sample(&mut rng); // 1..=buckets
                        let frac = (rank as f64 - 1.0 + rng.gen::<f64>()) / *buckets as f64;
                        mk(d_lo + frac * (max_lo - d_lo))
                    })
                    .collect()
            }
            QueryDistribution::Hotspot { centers, spread } => {
                assert!(!centers.is_empty(), "hotspot needs at least one center");
                (0..self.count)
                    .map(|_| {
                        let c = centers[rng.gen_range(0..centers.len())];
                        let jitter = (rng.gen::<f64>() - 0.5) * 2.0 * spread;
                        mk(d_lo + clamp01(c + jitter) * (max_lo - d_lo))
                    })
                    .collect()
            }
            QueryDistribution::Changing { phases, spread } => {
                assert!(!phases.is_empty(), "changing needs at least one phase");
                let per_phase = self.count.div_ceil(phases.len());
                (0..self.count)
                    .map(|i| {
                        let c = phases[(i / per_phase).min(phases.len() - 1)];
                        let jitter = (rng.gen::<f64>() - 0.5) * 2.0 * spread;
                        mk(d_lo + clamp01(c + jitter) * (max_lo - d_lo))
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> ValueRange<u32> {
        ValueRange::must(0, 999_999)
    }

    #[test]
    fn uniform_queries_have_requested_width_and_stay_inside() {
        let spec = WorkloadSpec::uniform(0.1, 500, 7);
        let qs = spec.generate(&domain());
        assert_eq!(qs.len(), 500);
        for q in &qs {
            assert!(q.hi() <= 999_999);
            let width = (q.hi() - q.lo()) as f64;
            assert!(
                (width - 100_000.0).abs() < 2.0,
                "width {width} should be ~10% of the domain"
            );
        }
    }

    #[test]
    fn pooled_uniform_reuses_a_fixed_window_set() {
        let spec = WorkloadSpec::pooled_uniform(0.04, 25, 400, 13);
        let qs = spec.generate(&domain());
        assert_eq!(qs.len(), 400);
        let mut distinct: Vec<u32> = qs.iter().map(|q| q.lo()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= 25,
            "at most 25 distinct windows, got {}",
            distinct.len()
        );
        assert!(distinct.len() >= 20, "most windows get used over 400 draws");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = WorkloadSpec::uniform(0.01, 100, 3).generate(&domain());
        let b = WorkloadSpec::uniform(0.01, 100, 3).generate(&domain());
        let c = WorkloadSpec::uniform(0.01, 100, 4).generate(&domain());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_queries_concentrate_near_the_domain_start() {
        let spec = WorkloadSpec::zipf(0.01, 2_000, 11);
        let qs = spec.generate(&domain());
        let in_first_tenth = qs.iter().filter(|q| q.lo() < 100_000).count();
        // Zipf(1) over 1000 buckets puts far more than 10% of the mass in
        // the first 10% of ranks.
        assert!(
            in_first_tenth as f64 / qs.len() as f64 > 0.4,
            "only {in_first_tenth}/2000 queries in the first tenth"
        );
    }

    #[test]
    fn hotspot_queries_cluster_in_two_areas() {
        let spec = WorkloadSpec::skewed_two_areas(0.001, 1_000, 5);
        let qs = spec.generate(&domain());
        let near = |q: &ValueRange<u32>, c: f64| {
            let pos = q.lo() as f64 / 1_000_000.0;
            (pos - c).abs() < 0.05
        };
        let hits = qs.iter().filter(|q| near(q, 0.3) || near(q, 0.72)).count();
        assert_eq!(hits, qs.len(), "every query must fall in a hot area");
        let low = qs.iter().filter(|q| near(q, 0.3)).count();
        assert!(
            low > 300 && low < 700,
            "areas should share the load, got {low}"
        );
    }

    #[test]
    fn changing_load_shifts_access_point_per_quarter() {
        let spec = WorkloadSpec::changing_four_points(0.001, 200, 9);
        let qs = spec.generate(&domain());
        assert_eq!(qs.len(), 200);
        let phase_pos = |i: usize| qs[i].lo() as f64 / 1_000_000.0;
        // First quarter near 0.15, last near 0.9.
        assert!((phase_pos(10) - 0.15).abs() < 0.05);
        assert!((phase_pos(60) - 0.4).abs() < 0.05);
        assert!((phase_pos(110) - 0.65).abs() < 0.05);
        assert!((phase_pos(160) - 0.9).abs() < 0.05);
    }

    #[test]
    fn float_domain_generation_works() {
        use soc_core::OrdF64;
        let domain = ValueRange::must(OrdF64::from_finite(110.0), OrdF64::from_finite(260.0));
        let spec = WorkloadSpec::uniform(0.01, 100, 1);
        let qs = spec.generate(&domain);
        for q in qs {
            assert!(q.lo() >= domain.lo() && q.hi() <= domain.hi());
            let w = q.hi().get() - q.lo().get();
            assert!(
                (w - 1.5).abs() < 1e-6,
                "width {w} should be 1% of 150 degrees"
            );
        }
    }

    #[test]
    fn full_selectivity_is_the_whole_domain() {
        let spec = WorkloadSpec::uniform(1.0, 10, 2);
        let qs = spec.generate(&domain());
        for q in qs {
            assert_eq!(q.lo(), 0);
            assert_eq!(q.hi(), 999_999);
        }
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn zero_selectivity_rejected() {
        let _ = WorkloadSpec::uniform(0.0, 1, 1).generate(&domain());
    }
}
