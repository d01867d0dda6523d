//! Property-based tests over the self-organization invariants: answers
//! equal the logical column's for every strategy family and for sharded
//! execution (the cases, the model and the systems are the shared
//! harness's, `model/mod.rs`), the covering set keeps its four formal
//! properties (Section 5) on arbitrary columns and query sequences,
//! replication's storage accounting adds up, and the workload generators
//! stay in the domain.

mod model;

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::prelude::*;

use model::Cases;

const DOMAIN_HI: u32 = 9_999;

fn arb_values() -> impl Strategy<Value = Vec<u32>> {
    vec(0..=DOMAIN_HI, 1..800)
}

fn arb_queries() -> impl Strategy<Value = Vec<(u32, u32)>> {
    vec((0..=DOMAIN_HI, 0..=DOMAIN_HI), 1..40)
}

fn to_range(lo: u32, hi: u32) -> ValueRange<u32> {
    ValueRange::must(lo.min(hi), lo.max(hi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn covering_set_properties_hold_for_grown_trees(
        values in arb_values(),
        grow_queries in arb_queries(),
        probe in (0..=DOMAIN_HI, 0..=DOMAIN_HI),
    ) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let mut r = AdaptiveReplication::new(
            ReplicaTree::new(domain, values.clone()).unwrap(),
            Box::new(AdaptivePageModel::new(128, 512)),
        );
        for (lo, hi) in grow_queries {
            r.select_count(&to_range(lo, hi), &mut NullTracker);
        }
        let q = to_range(probe.0, probe.1);
        let tree = r.tree();
        let cover = tree.covering_set(&q);
        // 1. all materialized
        prop_assert!(cover.iter().all(|&s| !tree.node(s).is_virtual()));
        // 2. the query is covered (sampled probe points)
        let width = (q.hi() - q.lo()).max(1);
        for k in 0..=10u32 {
            let v = q.lo() + (width / 10).max(1).saturating_mul(k).min(width);
            let v = v.min(q.hi());
            prop_assert!(
                cover.iter().any(|&s| tree.node(s).range.contains(v)),
                "probe value {} uncovered", v
            );
        }
        // 3/4. members pairwise disjoint and each overlaps the query
        for (i, &a) in cover.iter().enumerate() {
            prop_assert!(tree.node(a).range.intersect(&q).is_some());
            for &b in &cover[i + 1..] {
                prop_assert!(tree.node(a).range.intersect(&tree.node(b).range).is_none());
            }
        }
    }

    #[test]
    fn accounting_is_internally_consistent(
        values in arb_values(),
        queries in arb_queries(),
    ) {
        // writes - frees must equal the storage delta for replication.
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let initial = values.len() as u64 * 4;
        let mut r = AdaptiveReplication::new(
            ReplicaTree::new(domain, values).unwrap(),
            Box::new(AdaptivePageModel::new(128, 512)),
        );
        let mut t = CountingTracker::new();
        for (lo, hi) in queries {
            r.select_count(&to_range(lo, hi), &mut t);
        }
        let totals = t.totals();
        let expected_storage = initial + totals.write_bytes - totals.freed_bytes;
        prop_assert_eq!(r.storage_bytes(), expected_storage);
    }

    #[test]
    fn workload_generators_stay_in_domain(
        sel in 0.001f64..1.0,
        count in 1usize..200,
        seed in any::<u64>(),
        kind in 0u8..5,
    ) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let spec = match kind {
            0 => WorkloadSpec::uniform(sel, count, seed),
            1 => WorkloadSpec::zipf(sel, count, seed),
            2 => WorkloadSpec::skewed_two_areas(sel, count, seed),
            3 => WorkloadSpec::changing_four_points(sel, count, seed),
            _ => WorkloadSpec::pooled_uniform(sel, 16, count, seed),
        };
        let queries = spec.generate(&domain);
        prop_assert_eq!(queries.len(), count);
        for q in queries {
            prop_assert!(q.hi() <= DOMAIN_HI);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cracking_matches_naive_filter(case in Cases::MIXED) {
        model::bare(&case, &[StrategyKind::Cracking])?;
    }

    #[test]
    fn segmentation_apm_matches_naive_filter(case in Cases::MIXED) {
        model::bare(&case, &[StrategyKind::ApmSegm, StrategyKind::AutoApmSegm])?;
    }

    #[test]
    fn segmentation_gd_matches_naive_filter(case in Cases::MIXED) {
        model::bare(&case, &[StrategyKind::GdSegm, StrategyKind::GdSegmMerged])?;
    }

    /// The replica tree's validity is checked at every fold
    /// (`debug_assert_valid!`) and by the bare system's validator.
    #[test]
    fn replication_matches_naive_filter_and_tree_stays_valid(case in Cases::MIXED) {
        model::bare(&case, &[StrategyKind::ApmRepl, StrategyKind::GdRepl])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reads only: every kind, sharded by every policy on one to six
    /// nodes (the seed rotates them), answers as the model before and
    /// after each re-placement epoch, as does the single-node strategy.
    #[test]
    fn sharded_execution_matches_single_node_for_every_kind_and_policy(
        case in Cases { skewed: false, writes: false },
    ) {
        model::sharded(&case, &StrategyKind::ALL, &model::every_placement())?;
        model::bare(&case, &StrategyKind::ALL)?;
    }

    /// The same with writes: the nodes fold them at every drain, and the
    /// answers and the whole column stay the model's across re-placement.
    #[test]
    fn sharded_execution_with_a_folded_delta_matches_single_node(case in Cases::MIXED) {
        model::sharded(&case, &StrategyKind::ALL, &model::every_placement())?;
        model::bare(&case, &StrategyKind::ALL)?;
    }
}
