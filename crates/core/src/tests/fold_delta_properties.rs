//! `ColumnStrategy::fold_delta` for every data-holding implementor: after
//! any sequence of sorted insert/tombstone batches the strategy holds
//! exactly what a `Vec` model holds, **and** the organization it had before
//! the fold — piece boundaries, piece count — is untouched. One harness,
//! one generator; each test builds a concrete strategy, drives it into the
//! shape the fold must cope with (split segments, nested replicas, several
//! cracks) and hands it to [`check_folds`].

use proptest::prelude::*;

use crate::merge::MergingSegmentation;
use crate::model::AlwaysSplit;
use crate::validate;
use crate::{
    AdaptiveReplication, AdaptiveSegmentation, ColumnStrategy, CountingTracker, CrackedColumn,
    FullySorted, MergePolicy, NonSegmented, NullTracker, ReplicaTree, SegmentedColumn,
    SizeEstimator, ValueRange,
};

const DOMAIN_HI: u32 = 9_999;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

/// Base columns whose extreme values sit on the domain edges. Cracking
/// reports piece ranges clipped to the data's `[min, max]`; pinning both
/// (the harness never tombstones them) makes "ranges identical before and
/// after" a fair demand of all six implementors.
fn arb_base() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        proptest::collection::vec(0u32..=DOMAIN_HI, 300..1_200),
        // Heavy duplicates: tombstones must cancel one occurrence at a
        // time.
        proptest::collection::vec(0u32..40, 300..1_200)
            .prop_map(|codes| codes.into_iter().map(|c| c * 250).collect()),
    ]
    .prop_map(|mut values: Vec<u32>| {
        values.extend([0, DOMAIN_HI]);
        values
    })
}

/// A batch as `(insert values, tombstone picks)`; picks index the sorted
/// model, so every tombstone has an occurrence to cancel.
type Batch = (Vec<u32>, Vec<u32>);

fn arb_batches() -> impl Strategy<Value = Vec<Batch>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u32..=DOMAIN_HI, 0..40),
            proptest::collection::vec(any::<u32>(), 0..25),
        ),
        1..6,
    )
}

fn queries() -> Vec<ValueRange<u32>> {
    (0..12u32)
        .map(|i| {
            let lo = (i * 1_733) % 9_000;
            ValueRange::must(lo, lo + 300 + (i * 97) % 600)
        })
        .collect()
}

/// Folds `batches` into `strategy` one by one, checking after each that
/// content equals the model, that no piece boundary moved, that bytes and
/// ranges still pair up, and that exactly the touched pieces were charged.
/// `nested` pieces (replication) hold a value once per level.
fn check_folds(
    strategy: &mut dyn ColumnStrategy<u32>,
    mut model: Vec<u32>,
    batches: &[Batch],
    nested: bool,
) -> Result<(), TestCaseError> {
    for (k, (ins, picks)) in batches.iter().enumerate() {
        model.sort_unstable();
        let mut inserts = ins.clone();
        inserts.sort_unstable();
        // Distinct positions strictly inside the sorted model: the pinned
        // minimum and maximum occurrence are never picked.
        let mut at: Vec<usize> = picks
            .iter()
            .map(|p| 1 + *p as usize % (model.len() - 2))
            .collect();
        at.sort_unstable();
        at.dedup();
        let mut tombstones: Vec<u32> = at.iter().map(|&i| model[i]).collect();
        // Every other batch also deletes a row it inserts: inserts apply
        // first, so the tombstone must find it.
        if k % 2 == 1 {
            tombstones.extend(inserts.first());
            tombstones.sort_unstable();
        }

        let ranges = strategy.segment_ranges();
        let pieces = strategy.segment_count();
        let mut tracker = CountingTracker::new();
        let unmatched = strategy.fold_delta(&inserts, &tombstones, &mut tracker);
        prop_assert_eq!(unmatched, Some(0), "batch {}", k);

        model.extend(&inserts);
        for t in &tombstones {
            let i = model
                .iter()
                .position(|v| v == t)
                .expect("picked from the model");
            model.swap_remove(i);
        }
        model.sort_unstable();
        let mut got = strategy.peek_collect(&domain());
        got.sort_unstable();
        prop_assert_eq!(&got, &model, "content after batch {}", k);

        prop_assert_eq!(strategy.segment_ranges(), ranges, "boundaries moved");
        prop_assert_eq!(strategy.segment_count(), pieces, "piece count changed");
        prop_assert!(validate::strategy_pieces(strategy).is_ok());
        let bytes = strategy.segment_bytes();
        prop_assert!(strategy.storage_bytes() >= bytes.iter().sum::<u64>());
        for (r, b) in strategy.segment_ranges().iter().zip(&bytes) {
            let rows = model.iter().filter(|v| r.contains(**v)).count() as u64;
            prop_assert_eq!(*b, rows * 4, "bytes of {:?}", r);
        }

        // Exactly the pieces owning a folded value are charged, each one
        // read and one write (nested replicas: at least the leaves).
        let stats = tracker.totals();
        let touched = ranges
            .iter()
            .filter(|r| inserts.iter().chain(&tombstones).any(|v| r.contains(*v)))
            .count() as u64;
        prop_assert_eq!(stats.segments_scanned, stats.segments_materialized);
        if nested {
            prop_assert!(stats.segments_scanned >= touched);
        } else {
            prop_assert_eq!(stats.segments_scanned, touched);
        }
    }
    Ok(())
}

/// A stray tombstone — a value the column does not hold, or one outside
/// the domain — is counted, cancels nothing and moves nothing.
fn check_stray(strategy: &mut dyn ColumnStrategy<u32>, model: &[u32]) -> Result<(), TestCaseError> {
    let absent = (0..=DOMAIN_HI)
        .find(|v| !model.contains(v))
        .expect("the model is far smaller than the domain");
    let ranges = strategy.segment_ranges();
    let mut before = strategy.peek_collect(&domain());
    before.sort_unstable();
    let unmatched = strategy.fold_delta(&[], &[absent, DOMAIN_HI + 7], &mut NullTracker);
    prop_assert_eq!(unmatched, Some(2));
    let mut after = strategy.peek_collect(&domain());
    after.sort_unstable();
    prop_assert_eq!(after, before);
    prop_assert_eq!(strategy.segment_ranges(), ranges);
    Ok(())
}

fn segmentation(values: Vec<u32>) -> AdaptiveSegmentation<u32> {
    let column = SegmentedColumn::new(domain(), values).expect("values in domain");
    let mut s = AdaptiveSegmentation::new(column, Box::new(AlwaysSplit), SizeEstimator::Uniform);
    for q in queries() {
        s.select_count(&q, &mut NullTracker);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segmentation_folds_into_the_owning_segments(base in arb_base(), batches in arb_batches()) {
        let mut s = segmentation(base.clone());
        prop_assert!(s.segment_count() > 2, "the workload must have split the column");
        check_folds(&mut s, base.clone(), &batches, false)?;
        s.column().validate().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut model = s.peek_collect(&domain());
        model.sort_unstable();
        check_stray(&mut s, &model)?;
    }

    #[test]
    fn merging_segmentation_delegates_the_fold(base in arb_base(), batches in arb_batches()) {
        let column = SegmentedColumn::new(domain(), base.clone()).expect("values in domain");
        let inner = AdaptiveSegmentation::new(column, Box::new(AlwaysSplit), SizeEstimator::Uniform);
        let mut s = MergingSegmentation::new(inner, MergePolicy::new(64, 512));
        for q in queries() {
            s.select_count(&q, &mut NullTracker);
        }
        check_folds(&mut s, base, &batches, false)?;
    }

    #[test]
    fn baselines_fold_into_their_single_segment(base in arb_base(), batches in arb_batches()) {
        let mut plain = NonSegmented::new(domain(), base.clone());
        check_folds(&mut plain, base.clone(), &batches, false)?;
        let model = plain.peek_collect(&domain());
        check_stray(&mut plain, &model)?;

        let mut sorted = FullySorted::new(domain(), base.clone());
        check_folds(&mut sorted, base.clone(), &batches, false)?;
        // Still sorted: the binary-search read path stays exact.
        let q = ValueRange::must(2_000, 6_999);
        let mut model = sorted.peek_collect(&domain());
        prop_assert!(model.windows(2).all(|w| w[0] <= w[1]));
        model.retain(|v| q.contains(*v));
        prop_assert_eq!(sorted.select_count(&q, &mut NullTracker), model.len() as u64);
        prop_assert_eq!(sorted.peek_collect(&q), model);
    }

    #[test]
    fn replication_folds_into_every_nested_replica(base in arb_base(), batches in arb_batches()) {
        let tree = ReplicaTree::new(domain(), base.clone()).expect("values in domain");
        let mut s = AdaptiveReplication::new(tree, Box::new(AlwaysSplit));
        // Nested queries grow replicas under replicas.
        for (lo, hi) in [(1_000, 8_999), (2_000, 5_999), (2_500, 3_499), (7_000, 7_999)] {
            s.select_count(&ValueRange::must(lo, hi), &mut NullTracker);
        }
        prop_assert!(s.tree().depth() >= 3 && s.tree().mat_count() >= 4, "replicas must nest");
        check_folds(&mut s, base.clone(), &batches, true)?;
        s.tree().validate().map_err(TestCaseError::fail)?;
        // Every materialized replica — not only the covering leaves — holds
        // exactly the model's values inside its range.
        let mut model = s.peek_collect(&domain());
        model.sort_unstable();
        for (range, bytes) in s.tree().mat_segments() {
            let rows = model.iter().filter(|v| range.contains(**v)).count() as u64;
            prop_assert_eq!(bytes, rows * 4, "replica {:?}", range);
        }
        check_stray(&mut s, &model)?;
        // The tree keeps adapting over the folded content.
        let q = ValueRange::must(3_000, 4_499);
        let expect = model.iter().filter(|v| q.contains(**v)).count() as u64;
        prop_assert_eq!(s.select_count(&q, &mut NullTracker), expect);
    }

    #[test]
    fn cracking_rebuilds_piece_by_piece_and_shifts_the_index(
        base in arb_base(),
        batches in arb_batches(),
    ) {
        let mut s = CrackedColumn::new(base.clone());
        for q in queries().into_iter().take(4) {
            s.select_count(&q, &mut NullTracker);
        }
        prop_assert!(s.cracks() >= 3);
        let boundaries: Vec<u32> = s.boundaries().into_iter().map(|(b, _)| b).collect();
        check_folds(&mut s, base, &batches, false)?;
        s.validate().map_err(TestCaseError::fail)?;
        let after: Vec<u32> = s.boundaries().into_iter().map(|(b, _)| b).collect();
        prop_assert_eq!(after, boundaries, "crack boundaries survive the fold");
        let mut model = s.peek_collect(&domain());
        model.sort_unstable();
        check_stray(&mut s, &model)?;
        // Cracking continues correctly over the shifted index.
        let q = ValueRange::must(1_234, 4_321);
        let expect = model.iter().filter(|v| q.contains(**v)).count() as u64;
        prop_assert_eq!(s.select_count(&q, &mut NullTracker), expect);
    }
}

#[test]
fn an_insert_outside_the_domain_is_refused_and_changes_nothing() {
    let base: Vec<u32> = (0..500u32).map(|i| (i * 37) % 10_000).collect();
    let mut s = segmentation(base.clone());
    let ranges = s.segment_ranges();
    assert_eq!(
        s.fold_delta(&[5, DOMAIN_HI + 1], &[base[0]], &mut NullTracker),
        None
    );
    assert_eq!(s.segment_ranges(), ranges);
    assert_eq!(s.peek_collect(&domain()).len(), base.len());
    let tree = ReplicaTree::new(domain(), base.clone()).expect("values in domain");
    let mut r = AdaptiveReplication::new(tree, Box::new(AlwaysSplit));
    assert_eq!(r.fold_delta(&[DOMAIN_HI + 1], &[], &mut NullTracker), None);
    let mut n = NonSegmented::new(domain(), base.clone());
    assert_eq!(n.fold_delta(&[DOMAIN_HI + 1], &[], &mut NullTracker), None);
    // Cracking has no domain: any value has an owning piece.
    let mut c = CrackedColumn::new(base);
    assert_eq!(
        c.fold_delta(&[DOMAIN_HI + 1], &[], &mut NullTracker),
        Some(0)
    );
    assert_eq!(c.peek_collect(&ValueRange::must(0, u32::MAX)).len(), 501);
}
