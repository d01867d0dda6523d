//! The reorganizing scans of a column of more than twice
//! [`kernels::PAR_MIN`] values run in two halves on two threads. Through
//! a workload of splits, `GdSegm` and `ApmRepl` still answer what a sorted
//! oracle answers, and every segment or replica holds exactly the column's
//! values inside its range, in storage order. Over an `OrdF64` column,
//! `GdSegm` and `ApmSegm` also keep every segment's synopsis equal to one
//! pass over its values: the synopsis folds run four chunks side by side
//! and in two halves too, and the debug validator that would catch a
//! drifted sum compiles out of release builds.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kernels;
use crate::replication::NodeId;
use crate::value::{ColumnValue, OrdF64};
use crate::{
    AdaptivePageModel, AdaptiveReplication, AdaptiveSegmentation, ColumnStrategy, GaussianDice,
    NullTracker, ReplicaTree, SegmentedColumn, SizeEstimator, ValueRange,
};

const DOMAIN_HI: u32 = 999_999;

fn column() -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(19);
    (0..2 * kernels::PAR_MIN + 12_345)
        .map(|_| rng.gen_range(0..=DOMAIN_HI))
        .collect()
}

/// Wide queries first, so the first splits cut the whole column, then
/// narrower ones inside the products.
fn queries() -> Vec<ValueRange<u32>> {
    let mut rng = SmallRng::seed_from_u64(23);
    [300_000u32, 120_000, 40_000, 5_000]
        .iter()
        .flat_map(|&width| std::iter::repeat_n(width, 4))
        .map(|width| {
            let lo = rng.gen_range(0..=DOMAIN_HI - width);
            ValueRange::must(lo, lo + width)
        })
        .collect()
}

fn collect(values: &[u32], range: &ValueRange<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    kernels::collect_range(values, range, &mut out);
    out
}

/// Runs every query, mapped by `f`, against `strategy` and the sorted
/// oracle, then hands the strategy to `check_pieces`.
fn drive<V: ColumnValue, S: ColumnStrategy<V>>(
    strategy: &mut S,
    values: &[V],
    f: impl Fn(u32) -> V,
    check_pieces: impl Fn(&S),
) {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    for q in queries() {
        let q = ValueRange::must(f(q.lo()), f(q.hi()));
        let (start, end) = kernels::sorted_run(&sorted, &q);
        let got = strategy.select_count(&q, &mut NullTracker);
        assert_eq!(got, (end - start) as u64, "{} on {q:?}", strategy.name());
        check_pieces(strategy);
    }
}

#[test]
fn gd_segm_products_of_two_thread_partitions_hold_their_range() {
    let values = column();
    let domain = ValueRange::must(0, DOMAIN_HI);
    let column = SegmentedColumn::new(domain, values.clone()).expect("values in domain");
    let model = Box::new(GaussianDice::new(7));
    let mut gd = AdaptiveSegmentation::new(column, model, SizeEstimator::Uniform);
    drive(
        &mut gd,
        &values,
        |v| v,
        |gd| {
            for seg in gd.column().segments() {
                assert!(!seg.is_sorted(), "a bare strategy keeps storage order");
                assert_eq!(
                    seg.values(),
                    collect(&values, &seg.range()),
                    "{:?}",
                    seg.range()
                );
            }
        },
    );
    assert!(gd.segment_count() > 3, "the workload must split");
}

#[test]
fn apm_repl_replicas_filled_by_two_thread_scans_hold_their_range() {
    let values = column();
    let domain = ValueRange::must(0, DOMAIN_HI);
    let tree = ReplicaTree::new(domain, values.clone()).expect("values in domain");
    let model = Box::new(AdaptivePageModel::new(3 * 1024, 12 * 1024));
    let mut apm = AdaptiveReplication::new(tree, model);
    drive(
        &mut apm,
        &values,
        |v| v,
        |apm| {
            let tree = apm.tree();
            let mut stack: Vec<NodeId> = tree.top().to_vec();
            while let Some(id) = stack.pop() {
                let node = tree.node(id);
                if let Some(held) = node.values() {
                    assert_eq!(held, collect(&values, &node.range), "{:?}", node.range);
                }
                stack.extend(&node.children);
            }
        },
    );
    assert!(apm.replicas_created() > 3, "the workload must replicate");
}

/// `PieceSynopsis::from_values` as one pass: one accumulator per chunk,
/// each from `+0.0`, the chunk sums added in order, a branch per bound;
/// `(min, max, count, sum)` with the floats as bits.
fn one_pass_synopsis(values: &[OrdF64]) -> Option<[u64; 4]> {
    let &first = values.first()?;
    let (mut min, mut max, mut sum) = (first, first, 0.0f64);
    for chunk in values.chunks(kernels::CHUNK) {
        let mut acc = 0.0f64;
        for &v in chunk {
            acc += v.get();
            if v < min {
                min = v;
            }
            if max < v {
                max = v;
            }
        }
        sum += acc;
    }
    Some([
        min.get().to_bits(),
        max.get().to_bits(),
        values.len() as u64,
        sum.to_bits(),
    ])
}

#[test]
fn f64_synopses_of_two_thread_splits_are_one_pass_folds() {
    // Non-dyadic values: every addition rounds, so only the same additions
    // in the same order give the same bits.
    let f = |v: u32| OrdF64::from_finite(f64::from(v) * 0.37);
    let values: Vec<OrdF64> = column().into_iter().map(f).collect();
    let domain = ValueRange::must(f(0), f(DOMAIN_HI));
    let models: [Box<dyn crate::SegmentationModel>; 2] = [
        Box::new(GaussianDice::new(7)),
        Box::new(AdaptivePageModel::new(3 * 1024, 12 * 1024)),
    ];
    for model in models {
        let column = SegmentedColumn::new(domain, values.clone()).expect("values in domain");
        let mut segm = AdaptiveSegmentation::new(column, model, SizeEstimator::Uniform);
        let check = |segm: &AdaptiveSegmentation<OrdF64>| {
            for seg in segm.column().segments() {
                let synopsis = seg.synopsis().map(|s| {
                    [
                        s.min().get().to_bits(),
                        s.max().get().to_bits(),
                        s.count(),
                        s.sum().to_bits(),
                    ]
                });
                assert_eq!(
                    synopsis,
                    one_pass_synopsis(seg.values()),
                    "{:?}",
                    seg.range()
                );
            }
        };
        check(&segm);
        drive(&mut segm, &values, f, check);
        assert!(segm.segment_count() > 3, "{} must split", segm.name());
    }
}
