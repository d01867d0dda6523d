//! Column dataset generators.
//!
//! * [`uniform_values`] — the Section 6.1 setup: `n` values drawn uniformly
//!   from a discrete domain (100K values from 1M integers in the paper).
//! * [`skyserver_ra`] — a synthetic stand-in for the SkyServer `ra` (right
//!   ascension) column of Section 6.2: real-valued degrees clustered into
//!   survey stripes over the SDSS DR4 northern-cap footprint, plus a
//!   uniform background. The real 100 GB sample is not redistributable;
//!   the substitution preserves what the experiments exercise — a large,
//!   real-typed, non-uniformly dense attribute under range selections
//!   (see DESIGN.md).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use soc_core::{ColumnValue, OrdF64, ValueRange};

/// `n` values drawn uniformly from `domain` (inclusive), seeded.
pub fn uniform_values<V: ColumnValue>(n: usize, domain: &ValueRange<V>, seed: u64) -> Vec<V> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lo = domain.lo().to_f64();
    let hi = domain.hi().to_f64();
    (0..n)
        .map(|_| {
            let x = lo + rng.gen::<f64>() * (hi - lo);
            // from_f64 rounds; keep the result inside the domain.
            V::from_f64(x).max(domain.lo()).min(domain.hi())
        })
        .collect()
}

/// `n` values with Zipf-skewed *data* density: the domain is cut into
/// `buckets` equal slices whose population follows Zipf(`exponent`).
///
/// Used by the estimator ablation: uniform-interpolation size estimates
/// (what the optimizer can know without scanning) err most on skewed data.
pub fn zipf_values<V: ColumnValue>(
    n: usize,
    domain: &ValueRange<V>,
    exponent: f64,
    buckets: usize,
    seed: u64,
) -> Vec<V> {
    let zipf = crate::zipf::Zipf::new(buckets, exponent);
    let mut rng = SmallRng::seed_from_u64(seed);
    let lo = domain.lo().to_f64();
    let hi = domain.hi().to_f64();
    let width = (hi - lo) / buckets as f64;
    (0..n)
        .map(|_| {
            let rank = zipf.sample(&mut rng); // 1..=buckets
            let x = lo + (rank as f64 - 1.0 + rng.gen::<f64>()) * width;
            V::from_f64(x).max(domain.lo()).min(domain.hi())
        })
        .collect()
}

/// The ra footprint our synthetic SkyServer column covers, in degrees.
pub(crate) const RA_FOOTPRINT: (f64, f64) = (110.0, 260.0);

/// Synthetic SkyServer right-ascension column.
///
/// A mixture: `stripe_fraction` of the values fall into a handful of dense
/// survey stripes (width ~2.5°, the SDSS imaging stripe width), the rest
/// spread uniformly over the footprint. Values are `f64` degrees wrapped in
/// [`OrdF64`].
pub fn skyserver_ra(n: usize, seed: u64) -> Vec<OrdF64> {
    skyserver_ra_with(n, seed, 0.35)
}

/// [`skyserver_ra`] with an explicit stripe fraction in `[0, 1]`.
pub(crate) fn skyserver_ra_with(n: usize, seed: u64, stripe_fraction: f64) -> Vec<OrdF64> {
    assert!((0.0..=1.0).contains(&stripe_fraction));
    let (lo, hi) = RA_FOOTPRINT;
    let stripes: [f64; 6] = [125.0, 150.0, 172.5, 195.0, 217.5, 242.0];
    let stripe_halfwidth = 1.25;
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ra = if rng.gen::<f64>() < stripe_fraction {
                let c = stripes[rng.gen_range(0..stripes.len())];
                c + (rng.gen::<f64>() - 0.5) * 2.0 * stripe_halfwidth
            } else {
                lo + rng.gen::<f64>() * (hi - lo)
            };
            OrdF64::from_finite(ra.clamp(lo, hi))
        })
        .collect()
}

/// The domain of the synthetic `ra` column.
pub fn skyserver_domain() -> ValueRange<OrdF64> {
    ValueRange::must(
        OrdF64::from_finite(RA_FOOTPRINT.0),
        OrdF64::from_finite(RA_FOOTPRINT.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_values_stay_in_domain_and_spread() {
        let domain = ValueRange::must(0u32, 999_999);
        let vals = uniform_values(100_000, &domain, 42);
        assert_eq!(vals.len(), 100_000);
        assert!(vals.iter().all(|v| domain.contains(*v)));
        // Roughly 10% in each tenth of the domain.
        for decile in 0..10u32 {
            let lo = decile * 100_000;
            let hi = lo + 99_999;
            let n = vals.iter().filter(|v| **v >= lo && **v <= hi).count();
            assert!(
                (8_000..12_000).contains(&n),
                "decile {decile} holds {n} values"
            );
        }
    }

    #[test]
    fn uniform_values_deterministic_by_seed() {
        let domain = ValueRange::must(0u32, 999);
        assert_eq!(
            uniform_values(100, &domain, 1),
            uniform_values(100, &domain, 1)
        );
        assert_ne!(
            uniform_values(100, &domain, 1),
            uniform_values(100, &domain, 2)
        );
    }

    #[test]
    fn ra_column_is_in_footprint_and_striped() {
        let vals = skyserver_ra(50_000, 7);
        let domain = skyserver_domain();
        assert!(vals.iter().all(|v| domain.contains(*v)));
        // Density inside a stripe must clearly exceed the background.
        let count_in = |lo: f64, hi: f64| {
            vals.iter()
                .filter(|v| v.get() >= lo && v.get() <= hi)
                .count() as f64
        };
        let stripe = count_in(149.0, 151.0); // around the 150° stripe
        let background = count_in(157.0, 159.0); // between stripes
        assert!(
            stripe > background * 2.0,
            "stripe {stripe} vs background {background}"
        );
    }

    #[test]
    fn ra_stripe_fraction_zero_is_plain_uniform() {
        let vals = skyserver_ra_with(20_000, 3, 0.0);
        let stripe = vals
            .iter()
            .filter(|v| v.get() >= 149.0 && v.get() <= 151.0)
            .count() as f64;
        let background = vals
            .iter()
            .filter(|v| v.get() >= 157.0 && v.get() <= 159.0)
            .count() as f64;
        assert!((stripe / background) < 1.5);
    }

    #[test]
    fn int_domain_generation_hits_bounds_safely() {
        let domain = ValueRange::must(10u32, 11);
        let vals = uniform_values(1000, &domain, 5);
        assert!(vals.iter().all(|v| *v == 10 || *v == 11));
    }

    #[test]
    fn zipf_values_concentrate_at_the_domain_start() {
        let domain = ValueRange::must(0u32, 99_999);
        let vals = zipf_values(20_000, &domain, 1.0, 100, 9);
        assert!(vals.iter().all(|v| domain.contains(*v)));
        let first_decile = vals.iter().filter(|v| **v < 10_000).count();
        assert!(
            first_decile as f64 / vals.len() as f64 > 0.3,
            "zipf data must clump at low values, got {first_decile}/20000"
        );
        // Exponent 0 degenerates to uniform.
        let flat = zipf_values(20_000, &domain, 0.0, 100, 9);
        let fd = flat.iter().filter(|v| **v < 10_000).count();
        assert!((fd as f64 / 20_000.0 - 0.1).abs() < 0.02);
    }
}
