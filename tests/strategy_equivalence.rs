//! Cross-strategy equivalence: every organization strategy must return
//! exactly the same answer for every query — self-organization is purely
//! physical, invisible to results (the paper's core transparency claim,
//! Section 3.1: "the user is unaware of any such decision").

use socdb::adaptive::MergePolicy;
use socdb::prelude::*;

fn strategies_u32(domain: ValueRange<u32>, values: &[u32]) -> Vec<Box<dyn ColumnStrategy<u32>>> {
    let apm = || Box::new(AdaptivePageModel::new(512, 4096));
    vec![
        Box::new(NonSegmented::new(domain, values.to_vec())),
        Box::new(AdaptiveSegmentation::new(
            SegmentedColumn::new(domain, values.to_vec()).unwrap(),
            apm(),
            SizeEstimator::Uniform,
        )),
        Box::new(AdaptiveSegmentation::new(
            SegmentedColumn::new(domain, values.to_vec()).unwrap(),
            Box::new(GaussianDice::new(17)),
            SizeEstimator::Exact,
        )),
        Box::new(AdaptiveReplication::new(
            ReplicaTree::new(domain, values.to_vec()).unwrap(),
            apm(),
        )),
        Box::new(AdaptiveReplication::new(
            ReplicaTree::new(domain, values.to_vec()).unwrap(),
            Box::new(GaussianDice::new(18)),
        )),
        Box::new(CrackedColumn::new(values.to_vec())),
        Box::new(
            AdaptiveSegmentation::new(
                SegmentedColumn::new(domain, values.to_vec()).unwrap(),
                apm(),
                SizeEstimator::Uniform,
            )
            .with_merge(MergePolicy::new(512, 4096)),
        ),
    ]
}

#[test]
fn all_strategies_agree_on_every_query() {
    let domain = ValueRange::must(0u32, 99_999);
    let values = uniform_values(20_000, &domain, 101);
    let queries = WorkloadSpec::uniform(0.07, 250, 102).generate(&domain);

    let mut strategies = strategies_u32(domain, &values);
    for (qi, q) in queries.iter().enumerate() {
        let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
        for s in &mut strategies {
            let got = s.select_count(q, &mut NullTracker);
            assert_eq!(got, expect, "query #{qi} {q:?} on {}", s.name());
        }
    }
}

#[test]
fn all_strategies_agree_under_skewed_load() {
    let domain = ValueRange::must(0u32, 99_999);
    let values = uniform_values(20_000, &domain, 103);
    let queries = WorkloadSpec::skewed_two_areas(0.004, 250, 104).generate(&domain);

    let mut strategies = strategies_u32(domain, &values);
    for q in &queries {
        let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
        for s in &mut strategies {
            assert_eq!(s.select_count(q, &mut NullTracker), expect, "{}", s.name());
        }
    }
}

/// Every kind, built through its spec over clustered data: after each
/// reorganizing count, the read-only peek of the query and of the whole
/// domain must hold exactly the model's values. Many queries fall wholly
/// below, between or above the two clusters, so cracks and splits land
/// where no value is — empty pieces next to full ones.
#[test]
fn collect_and_count_agree_for_every_strategy() {
    let domain = ValueRange::must(0u32, 9_999);
    let values: Vec<u32> = (0..3_000u32)
        .map(|i| match i % 3 {
            0 | 1 => 4_000 + (i * 7_919) % 2_000,
            _ => 8_000 + (i * 104_729) % 1_000,
        })
        .collect();
    let mut all = values.clone();
    all.sort_unstable();
    let queries: Vec<ValueRange<u32>> = (0..40u32)
        .map(|k| {
            let lo = (k * 2_477) % 9_800;
            let width = [10, 150, 900, 3_000][k as usize % 4];
            ValueRange::must(lo, (lo + width).min(9_999))
        })
        .collect();

    for kind in StrategyKind::ALL {
        let mut s = StrategySpec::new(kind)
            .with_apm_bounds(512, 4096)
            .with_model_seed(19)
            .build(domain, values.clone())
            .expect("values lie in domain");
        for (i, q) in queries.iter().enumerate() {
            let want: Vec<u32> = all.iter().copied().filter(|v| q.contains(*v)).collect();
            assert_eq!(
                s.select_count(q, &mut NullTracker),
                want.len() as u64,
                "{kind:?}: count of query #{i} {q:?}"
            );
            let mut got = s.peek_collect(q);
            got.sort_unstable();
            assert_eq!(got, want, "{kind:?}: peek of query #{i} {q:?}");
            let mut got = s.peek_collect(&domain);
            got.sort_unstable();
            assert_eq!(
                got, all,
                "{kind:?}: peek of the domain after query #{i} {q:?}"
            );
        }
    }
}

#[test]
fn float_column_strategies_agree() {
    let domain = skyserver_domain();
    let values = skyserver_ra(30_000, 107);
    let queries = WorkloadSpec::uniform(0.02, 150, 108).generate(&domain);

    let mut seg = AdaptiveSegmentation::new(
        SegmentedColumn::new(domain, values.clone()).unwrap(),
        Box::new(AdaptivePageModel::new(2 * 1024, 16 * 1024)),
        SizeEstimator::Uniform,
    );
    let mut repl = AdaptiveReplication::new(
        ReplicaTree::new(domain, values.clone()).unwrap(),
        Box::new(AdaptivePageModel::new(2 * 1024, 16 * 1024)),
    );
    let mut base = NonSegmented::new(domain, values.clone());

    for q in &queries {
        let expect = base.select_count(q, &mut NullTracker);
        assert_eq!(seg.select_count(q, &mut NullTracker), expect);
        assert_eq!(repl.select_count(q, &mut NullTracker), expect);
    }
    seg.column().validate().unwrap();
    repl.tree().validate().unwrap();
    assert!(
        seg.segment_count() > 1,
        "float column must have reorganized"
    );
}

#[test]
fn tuple_counts_are_conserved_by_reorganization() {
    let domain = ValueRange::must(0u32, 99_999);
    let values = uniform_values(15_000, &domain, 109);
    let total = values.len() as u64;
    let queries = WorkloadSpec::zipf(0.05, 300, 110).generate(&domain);

    let mut strategies = strategies_u32(domain, &values);
    for q in &queries {
        for s in &mut strategies {
            s.select_count(q, &mut NullTracker);
        }
    }
    // The whole-domain query counts every tuple exactly once, after heavy
    // reorganization.
    let whole = ValueRange::must(0u32, 99_999);
    for s in &mut strategies {
        assert_eq!(
            s.select_count(&whole, &mut NullTracker),
            total,
            "{} lost or duplicated tuples",
            s.name()
        );
    }
}
