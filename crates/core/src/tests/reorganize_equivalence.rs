//! `ColumnStrategy::reorganize` is `select_count` without the answer, and
//! `ColumnStrategy::peek_slices` hands over exactly the values in range:
//! for every kind, two instances built alike — one driven by
//! `select_count`, one by `reorganize` — stay indistinguishable query
//! after query, and the slices a strategy hands over for a range hold the
//! column's values in it, each once.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{
    ColumnStrategy, CountingTracker, SizeEstimator, StrategyKind, StrategySpec, ValueRange,
};

const DOMAIN_HI: u32 = 9_999;
const QUERIES: usize = 200;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

/// A column with a dense stripe and duplicates, so pieces differ in
/// density and the uniform estimate is wrong somewhere.
fn values() -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    (0..3_000)
        .map(|i| match i % 4 {
            0 => rng.gen_range(4_000..4_400),
            1 => (i as u32 % 50) * 200,
            _ => rng.gen_range(0..=DOMAIN_HI),
        })
        .collect()
}

/// Wide, narrow and point queries, and ones touching the domain edges.
fn queries() -> Vec<ValueRange<u32>> {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    (0..QUERIES)
        .map(|i| {
            let width = match i % 5 {
                0 => 0,
                1 => rng.gen_range(0..40),
                2 => rng.gen_range(0..600),
                3 => rng.gen_range(0..3_000),
                _ => DOMAIN_HI,
            };
            let lo = rng.gen_range(0..=DOMAIN_HI);
            ValueRange::must(lo, lo.saturating_add(width).min(DOMAIN_HI))
        })
        .collect()
}

/// Every kind under the paper's defaults (a small APM band, so pieces
/// form), a second seed for the Gaussian Dice kinds, and the exact
/// estimator for the segmentation kinds — the settings each kind reads.
fn specs() -> Vec<StrategySpec> {
    use StrategyKind::*;
    let base = |kind| {
        StrategySpec::new(kind)
            .with_apm_bounds(256, 1_024)
            .with_model_seed(7)
    };
    let mut specs: Vec<StrategySpec> = StrategyKind::ALL.into_iter().map(base).collect();
    for kind in [GdSegm, GdRepl, GdSegmMerged] {
        specs.push(base(kind).with_model_seed(11));
    }
    for kind in [GdSegm, ApmSegm, AutoApmSegm, GdSegmMerged] {
        specs.push(base(kind).with_estimator(SizeEstimator::Exact));
    }
    specs
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn sliced(s: &dyn ColumnStrategy<u32>, q: &ValueRange<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    s.peek_slices(q, &mut |part| out.extend_from_slice(part));
    out
}

#[test]
fn reorganize_leaves_what_select_count_leaves_on_every_kind() {
    let queries = queries();
    for spec in specs() {
        let build = || {
            spec.build(domain(), values())
                .expect("values lie in domain")
        };
        let (mut counted, mut reorganized) = (build(), build());
        let (mut t_counted, mut t_reorganized) = (CountingTracker::new(), CountingTracker::new());
        for (i, q) in queries.iter().enumerate() {
            // Sorted payloads take another split path: share them midway.
            if i == QUERIES / 2 {
                counted.share_sorted();
                reorganized.share_sorted();
            }
            counted.select_count(q, &mut t_counted);
            reorganized.reorganize(q, &mut t_reorganized);
            let at = || format!("{:?}/{:?} query {i} {q:?}", spec.kind, spec.estimator);
            assert_eq!(reorganized.pieces(), counted.pieces(), "{}", at());
            assert_eq!(reorganized.adaptation(), counted.adaptation(), "{}", at());
            let (a, b) = (t_reorganized.totals(), t_counted.totals());
            assert_eq!(
                (a.read_bytes, a.write_bytes, a.freed_bytes),
                (b.read_bytes, b.write_bytes, b.freed_bytes),
                "{}",
                at()
            );
            assert_eq!(a.segments_materialized, b.segments_materialized, "{}", at());
            assert_eq!(
                sorted(reorganized.peek_collect(&domain())),
                sorted(counted.peek_collect(&domain())),
                "{}",
                at()
            );
        }
    }
}

#[test]
fn peek_slices_hands_over_exactly_the_values_in_range_on_every_kind() {
    let queries = queries();
    // The oracle: the column's values in range, cut from a sorted copy.
    let oracle = sorted(values());
    let in_range = |r: &ValueRange<u32>| {
        let start = oracle.partition_point(|v| *v < r.lo());
        let end = oracle.partition_point(|v| *v <= r.hi());
        &oracle[start..end]
    };
    for kind in StrategyKind::ALL {
        let spec = StrategySpec::new(kind)
            .with_apm_bounds(256, 1_024)
            .with_model_seed(7);
        let mut s = spec
            .build(domain(), values())
            .expect("values lie in domain");
        for (i, q) in queries.iter().enumerate() {
            if i == QUERIES / 2 {
                s.share_sorted();
            }
            s.reorganize(q, &mut CountingTracker::new());
            // The next query's range, and the pieces' own ranges: both
            // straddled and covered pieces.
            let probe = queries[(i + 1) % QUERIES];
            let pieces = s.pieces().into_iter().map(|(r, _)| r);
            for r in std::iter::once(probe).chain(pieces) {
                assert_eq!(sorted(sliced(&*s, &r)), in_range(&r), "{kind:?} {r:?}");
            }
        }
    }
}
