//! Property-based tests over the self-organization invariants.
//!
//! For arbitrary columns and arbitrary query sequences:
//! * answers always equal the naive filter (physical transparency);
//! * the segment list / replica tree structural invariants hold after
//!   every query;
//! * the covering set always satisfies its four formal properties
//!   (Section 5);
//! * tuple counts are conserved by any amount of reorganization.

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::prelude::*;

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
    fn segmentation_apm_matches_naive_filter(
        values in arb_values(),
        queries in arb_queries(),
        (mmin, factor) in (64u64..2048, 2u64..8),
    ) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let mut s = AdaptiveSegmentation::new(
            SegmentedColumn::new(domain, values.clone()).unwrap(),
            Box::new(AdaptivePageModel::new(mmin, mmin * factor)),
            SizeEstimator::Uniform,
        );
        for (lo, hi) in queries {
            let q = to_range(lo, hi);
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            prop_assert_eq!(s.select_count(&q, &mut NullTracker), expect);
            s.column().validate().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(s.column().total_len(), values.len() as u64);
    }

    #[test]
    fn segmentation_gd_matches_naive_filter(
        values in arb_values(),
        queries in arb_queries(),
        seed in any::<u64>(),
    ) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let mut s = AdaptiveSegmentation::new(
            SegmentedColumn::new(domain, values.clone()).unwrap(),
            Box::new(GaussianDice::new(seed)),
            SizeEstimator::Exact,
        );
        for (lo, hi) in queries {
            let q = to_range(lo, hi);
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            prop_assert_eq!(s.select_count(&q, &mut NullTracker), expect);
            s.column().validate().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn replication_matches_naive_filter_and_tree_stays_valid(
        values in arb_values(),
        queries in arb_queries(),
        (mmin, factor) in (64u64..2048, 2u64..8),
    ) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let mut r = AdaptiveReplication::new(
            ReplicaTree::new(domain, values.clone()).unwrap(),
            Box::new(AdaptivePageModel::new(mmin, mmin * factor)),
        );
        for (lo, hi) in queries {
            let q = to_range(lo, hi);
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            prop_assert_eq!(r.select_count(&q, &mut NullTracker), expect);
            r.tree().validate().map_err(TestCaseError::fail)?;
        }
        // Storage accounting never goes below the logical column…
        prop_assert!(r.tree().mat_bytes() >= r.tree().total_bytes());
    }

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
            prop_assert!(tree.node(a).range.overlaps(&q));
            for &b in &cover[i + 1..] {
                prop_assert!(!tree.node(a).range.overlaps(&tree.node(b).range));
            }
        }
    }

    #[test]
    fn cracking_matches_naive_filter(
        values in arb_values(),
        queries in arb_queries(),
    ) {
        let mut c = CrackedColumn::new(values.clone());
        for (lo, hi) in queries {
            let q = to_range(lo, hi);
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            prop_assert_eq!(c.select_count(&q, &mut NullTracker), expect);
        }
        prop_assert_eq!(c.len(), values.len() as u64);
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
    fn sharded_execution_matches_single_node_for_every_kind_and_policy(
        values in arb_values(),
        queries in arb_queries(),
        nodes in 1usize..7,
        seed in any::<u64>(),
    ) {
        // The distribution-transparency property of the sharded executor:
        // for arbitrary columns, arbitrary query sequences, every strategy
        // kind, and every placement policy, the routed, merged counts
        // equal plain single-node execution.
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(128, 512)
                .with_model_seed(seed);
            for policy in PlacementPolicy::ALL {
                let mut sharded = ShardedColumn::new(
                    spec, policy, nodes, domain, values.clone(),
                ).map_err(TestCaseError::fail)?;
                for (lo, hi) in &queries {
                    let q = to_range(*lo, *hi);
                    let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
                    prop_assert_eq!(
                        sharded.select_count(&q, &mut NullTracker),
                        expect,
                        "{:?}/{:?}/{} nodes, query {:?}", kind, policy, nodes, q
                    );
                }
                // One re-placement epoch must preserve every answer too.
                sharded.replace(&mut NullTracker).map_err(TestCaseError::fail)?;
                for (lo, hi) in &queries {
                    let q = to_range(*lo, *hi);
                    let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
                    prop_assert_eq!(
                        sharded.select_count(&q, &mut NullTracker),
                        expect,
                        "post-replace {:?}/{:?}/{} nodes, query {:?}", kind, policy, nodes, q
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_execution_with_a_folded_delta_matches_single_node(
        values in arb_values(),
        queries in vec((0..=DOMAIN_HI, 0..=DOMAIN_HI), 1..12),
        inserts in vec(0..=DOMAIN_HI, 0..200),
        deletes in vec(any::<usize>(), 0..100),
        nodes in 2usize..6,
        seed in any::<u64>(),
    ) {
        // Distribution transparency under writes: for every strategy kind
        // and placement policy, a sharded column that folded a delta batch
        // into its nodes returns the same counts and collected multisets
        // as a plain single-node strategy that folded the same batch, and
        // as a `Vec` model of the rows — before and after a re-placement
        // epoch.
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        let mut inserts = inserts;
        inserts.sort_unstable();
        let doomed: std::collections::BTreeSet<usize> =
            deletes.iter().map(|i| i % values.len()).collect();
        let mut tombstones: Vec<u32> = doomed.iter().map(|&i| values[i]).collect();
        tombstones.sort_unstable();
        let mut model: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !doomed.contains(i))
            .map(|(_, v)| *v)
            .chain(inserts.iter().copied())
            .collect();
        model.sort_unstable();
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(128, 512)
                .with_model_seed(seed);
            for policy in PlacementPolicy::ALL {
                let mut single = spec.build(domain, values.clone())
                    .map_err(TestCaseError::fail)?;
                let mut sharded = ShardedColumn::new(
                    spec, policy, nodes, domain, values.clone(),
                ).map_err(TestCaseError::fail)?;
                prop_assert_eq!(
                    single.fold_delta(&inserts, &tombstones, &mut NullTracker), Some(0)
                );
                prop_assert_eq!(
                    sharded.fold_delta(&inserts, &tombstones, &mut NullTracker), Some(0),
                    "{:?}/{:?}", kind, policy
                );

                for epoch in 0..2 {
                    for (lo, hi) in &queries {
                        let q = to_range(*lo, *hi);
                        let expect = model.iter().filter(|v| q.contains(**v)).count() as u64;
                        prop_assert_eq!(
                            single.select_count(&q, &mut NullTracker), expect,
                            "single-node vs model: {:?}/{:?} epoch {} query {:?}",
                            kind, policy, epoch, q
                        );
                        prop_assert_eq!(
                            sharded.select_count(&q, &mut NullTracker), expect,
                            "sharded vs model: {:?}/{:?} epoch {} query {:?}",
                            kind, policy, epoch, q
                        );
                    }
                    sharded.select_count(&domain, &mut NullTracker);
                    single.select_count(&domain, &mut NullTracker);
                    let mut from_sharded = sharded.peek_collect(&domain);
                    let mut from_single = single.peek_collect(&domain);
                    from_sharded.sort_unstable();
                    from_single.sort_unstable();
                    prop_assert_eq!(&from_sharded, &model, "{:?}/{:?}", kind, policy);
                    prop_assert_eq!(&from_single, &model, "{:?}/{:?}", kind, policy);
                    prop_assert_eq!(
                        sharded.segment_bytes().iter().sum::<u64>(),
                        model.len() as u64 * 4,
                        "{:?}/{:?} epoch {}", kind, policy, epoch
                    );

                    if epoch == 0 {
                        sharded.replace(&mut NullTracker).map_err(TestCaseError::fail)?;
                    }
                }
            }
        }
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
