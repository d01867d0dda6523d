//! Adaptive replication (Section 5, Algorithm 2).
//!
//! ```text
//! procedure AdaptReplication(ql, qh)
//!     cv ← getCover(ql, qh, root)
//!     for all s ∈ cv do
//!         M ← analyseRepl(ql, qh, s)
//!         scanMat(s, M)
//!         check4Drop(s)
//! ```
//!
//! One scan of each covering segment answers the query *and* fills every
//! replica in the materialization list — reorganization is almost entirely
//! piggy-backed on query execution (lazy materialization).

use crate::model::SegmentationModel;
use crate::range::ValueRange;
use crate::strategy::ColumnStrategy;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

use super::arena::NodeId;
use super::tree::ReplicaTree;

/// A self-organizing column using lazy, replica-tree-based reorganization.
///
/// ```
/// use soc_core::{
///     AdaptivePageModel, AdaptiveReplication, ColumnStrategy, CountingTracker,
///     ReplicaTree, ValueRange,
/// };
///
/// let domain = ValueRange::must(0u32, 9_999);
/// let tree = ReplicaTree::new(domain, (0..10_000).collect()).unwrap();
/// let mut column = AdaptiveReplication::new(
///     tree,
///     Box::new(AdaptivePageModel::new(512, 2_048)),
/// );
///
/// let mut tracker = CountingTracker::new();
/// let q = ValueRange::must(4_000, 4_999);
/// // First query scans the whole column but keeps only its result
/// // as a replica (lazy materialization).
/// tracker.begin_query();
/// column.select_count(&q, &mut tracker);
/// assert_eq!(tracker.query_stats().read_bytes, 40_000);
/// assert_eq!(tracker.query_stats().write_bytes, 4_000);
/// // The repeat reads just the replica.
/// tracker.begin_query();
/// column.select_count(&q, &mut tracker);
/// assert_eq!(tracker.query_stats().read_bytes, 4_000);
/// ```
pub struct AdaptiveReplication<V> {
    tree: ReplicaTree<V>,
    model: Box<dyn SegmentationModel>,
    replicas_created: u64,
    drops: u64,
    budget_bytes: Option<u64>,
    budget_declines: u64,
}

impl<V: ColumnValue> AdaptiveReplication<V> {
    /// Wraps a freshly loaded column (single materialized root).
    pub fn new(tree: ReplicaTree<V>, model: Box<dyn SegmentationModel>) -> Self {
        AdaptiveReplication {
            tree,
            model,
            replicas_created: 0,
            drops: 0,
            budget_bytes: None,
            budget_declines: 0,
        }
    }

    /// Caps total materialized storage (Section 8 names replica
    /// configuration "in the presence of storage limitations" as open
    /// work; this is the straightforward policy: a replica whose
    /// materialization would push storage past the budget is declined, and
    /// its tree node is removed again so the range bookkeeping stays
    /// clean). The cap cannot be smaller than the column itself.
    pub(crate) fn with_storage_budget(mut self, budget_bytes: u64) -> Self {
        self.budget_bytes = Some(budget_bytes.max(self.tree.total_bytes()));
        self
    }

    /// The underlying replica tree.
    pub fn tree(&self) -> &ReplicaTree<V> {
        &self.tree
    }

    /// Number of replica segments materialized so far.
    pub fn replicas_created(&self) -> u64 {
        self.replicas_created
    }

    /// Number of fully replicated segments dropped so far (Algorithm 5).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// `scanMat(s, M)`: one scan of covering segment `s` counts the query
    /// answer and fills every node in `M` ([`crate::kernels::scan_fill`] —
    /// a single pass however many replicas it fills).
    fn scan_cover_member(
        &mut self,
        q: &ValueRange<V>,
        s: NodeId,
        m_list: &[NodeId],
        tracker: &mut dyn AccessTracker,
    ) -> u64 {
        // M comes out of the analysis in range order and its nodes are
        // leaves, so the fill ranges are ascending and disjoint.
        let ranges: Vec<ValueRange<V>> = m_list.iter().map(|&n| self.tree.node(n).range).collect();
        // Sized from the optimizer's estimate; trimmed to the fact below,
        // because a replica keeps its buffer for life.
        let mut fills: Vec<Vec<V>> = m_list
            .iter()
            .map(|&n| Vec::with_capacity(self.tree.node(n).len() as usize))
            .collect();
        let (seg_id, bytes, matched) = {
            let node = self.tree.node(s);
            let values = self.tree.cover_values(s);
            let matched = if m_list.is_empty() && q.covers(&node.range) {
                // Every value qualifies and nothing is filled: no scan.
                values.len() as u64
            } else {
                crate::kernels::scan_fill(values, q, &ranges, &mut fills)
            };
            (node.seg_id, node.bytes(), matched)
        };
        for vals in &mut fills {
            vals.shrink_to_fit();
        }
        tracker.scan(seg_id, bytes);

        let mut parents: Vec<NodeId> = Vec::with_capacity(fills.len());
        for (&n, vals) in m_list.iter().zip(fills) {
            // Storage-budget policy: declining a materialization simply
            // leaves the node virtual — it still has a materialized
            // ancestor, so the tree stays consistent and a later query can
            // retry once drops have freed space.
            if let Some(budget) = self.budget_bytes {
                let bytes = vals.len() as u64 * V::BYTES;
                if self.tree.mat_bytes() + bytes > budget {
                    self.budget_declines += 1;
                    continue;
                }
            }
            self.tree.materialize(n, vals, tracker);
            self.replicas_created += 1;
            if let Some(p) = self.tree.node(n).parent {
                if !parents.contains(&p) {
                    parents.push(p);
                }
            }
        }
        // Turning estimates into facts: re-balance the virtual siblings.
        for p in parents {
            self.tree.refine_virtual_children(p);
        }
        matched
    }

    fn run_select(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        let cover = self.tree.covering_set(q);
        let mut matched = 0u64;
        for s in cover {
            let m_list = self.tree.analyze_repl(q, s, self.model.as_mut());
            matched += self.scan_cover_member(q, s, &m_list, tracker);
            let before = self.tree.node_count();
            self.tree.check4drop(s, tracker);
            self.drops += (before - self.tree.node_count()) as u64;
        }
        crate::debug_assert_valid!(
            crate::validate::replica_tree(&self.tree),
            "adaptive replication reorganize"
        );
        matched
    }
}

// contract: ColumnStrategy thread-safety: replica promotion and delta folds mutate the tree only inside &mut self run_select / fold_delta; &self accessors are pure reads.
impl<V: ColumnValue> ColumnStrategy<V> for AdaptiveReplication<V> {
    fn name(&self) -> String {
        format!("{} Repl", self.model.name())
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        self.run_select(q, tracker)
    }

    fn peek_collect(&self, q: &ValueRange<V>) -> Vec<V> {
        // The covering set tiles the query with materialized nodes; reading
        // them answers the query without growing the tree.
        let mut out = Vec::new();
        for s in self.tree.covering_set(q) {
            let values = self.tree.cover_values(s);
            if q.covers(&self.tree.node(s).range) {
                out.extend_from_slice(values);
            } else {
                crate::kernels::collect_range(values, q, &mut out);
            }
        }
        out
    }

    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        let unmatched = self.tree.fold_delta(inserts, tombstones, tracker);
        crate::debug_assert_valid!(self.tree.validate(), "adaptive replication fold");
        unmatched
    }

    fn storage_bytes(&self) -> u64 {
        self.tree.mat_bytes()
    }

    fn segment_count(&self) -> usize {
        self.tree.mat_count()
    }

    fn segment_bytes(&self) -> Vec<u64> {
        // The flat covering leaf set, not every materialized replica:
        // nested parent/child replicas would double-count data, so byte i
        // here always describes the same segment as range i of
        // [`Self::segment_ranges`] and the bytes sum to the logical column.
        self.tree
            .covering_partition()
            .into_iter()
            .map(|(_, b)| b)
            .collect()
    }

    fn segment_ranges(&self) -> Vec<ValueRange<V>> {
        self.tree
            .covering_partition()
            .into_iter()
            .map(|(r, _)| r)
            .collect()
    }

    fn adaptation(&self) -> crate::strategy::AdaptationStats {
        crate::strategy::AdaptationStats {
            replicas_created: self.replicas_created,
            drops: self.drops,
            budget_declines: self.budget_declines,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePageModel, GaussianDice};
    use crate::replication::tree::NodePayload;
    use crate::tracker::{CountingTracker, NullTracker};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const DOMAIN_HI: u32 = 99_999;

    fn column_values(n: u32, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..=DOMAIN_HI)).collect()
    }

    fn repl(values: Vec<u32>, model: Box<dyn SegmentationModel>) -> AdaptiveReplication<u32> {
        let tree = ReplicaTree::new(ValueRange::must(0, DOMAIN_HI), values).unwrap();
        AdaptiveReplication::new(tree, model)
    }

    fn apm() -> Box<dyn SegmentationModel> {
        Box::new(AdaptivePageModel::new(3 * 1024, 12 * 1024))
    }

    #[test]
    fn results_match_naive_filter_apm() {
        let values = column_values(20_000, 1);
        let reference = values.clone();
        let mut r = repl(values, apm());
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..300 {
            let lo = rng.gen_range(0..=DOMAIN_HI);
            let width = rng.gen_range(0..=DOMAIN_HI / 4);
            let hi = lo.saturating_add(width).min(DOMAIN_HI);
            let q = ValueRange::must(lo, hi);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            let got = r.select_count(&q, &mut NullTracker);
            assert_eq!(got, expect, "query #{i} {q:?}");
            r.tree().validate().unwrap();
        }
        assert!(r.replicas_created() > 0);
    }

    #[test]
    fn results_match_naive_filter_gd() {
        let values = column_values(20_000, 3);
        let reference = values.clone();
        let mut r = repl(values, Box::new(GaussianDice::new(77)));
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..300 {
            let lo = rng.gen_range(0..=DOMAIN_HI - 10_000);
            let q = ValueRange::must(lo, lo + 9_999);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(r.select_count(&q, &mut NullTracker), expect);
            r.tree().validate().unwrap();
        }
    }

    #[test]
    fn collect_matches_count() {
        let values = column_values(5_000, 5);
        let mut r = repl(values.clone(), apm());
        let q = ValueRange::must(10_000, 29_999);
        r.select_count(&q, &mut NullTracker);
        let mut got = r.peek_collect(&q);
        got.sort_unstable();
        let mut expect: Vec<u32> = values.into_iter().filter(|v| q.contains(*v)).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn first_query_keeps_result_as_replica_at_selection_cost_only() {
        let values = column_values(100_000, 6);
        let mut r = repl(values, apm());
        let mut t = CountingTracker::new();
        t.begin_query();
        let q = ValueRange::must(40_000, 49_999);
        let n = r.select_count(&q, &mut t);
        let st = t.query_stats();
        // Reads: the whole column once. Writes: only the retained replica
        // (≈ the selection size), NOT the complements — the lazy win.
        assert_eq!(st.read_bytes, 400_000);
        assert_eq!(st.write_bytes, n * 4);
        assert!(st.write_bytes < 100_000, "lazy: complements not written");
        // Second identical query reads just the replica.
        t.begin_query();
        r.select_count(&q, &mut t);
        let st2 = t.query_stats();
        assert_eq!(st2.read_bytes, n * 4);
        assert_eq!(st2.write_bytes, 0);
    }

    #[test]
    fn query_hitting_virtual_area_rescans_column() {
        // The Figure 7 "spikes": untouched areas force a full scan.
        let values = column_values(100_000, 7);
        let mut r = repl(values, apm());
        let mut t = CountingTracker::new();
        r.select_count(&ValueRange::must(0, 9_999), &mut t);
        t.begin_query();
        // Disjoint area, still only covered by the root.
        r.select_count(&ValueRange::must(70_000, 79_999), &mut t);
        assert_eq!(t.query_stats().read_bytes, 400_000);
    }

    #[test]
    fn storage_grows_then_returns_to_db_size() {
        // Sweep the domain repeatedly: every piece gets materialized,
        // fully replicated parents (incl. the initial column) are dropped,
        // and storage converges back towards the DB size.
        let values = column_values(100_000, 8);
        let db_size = 400_000u64;
        let mut r = repl(values, apm());
        assert_eq!(r.storage_bytes(), db_size);
        let mut peak = 0u64;
        for round in 0..6 {
            for i in 0..10u32 {
                let lo = i * 10_000;
                let q = ValueRange::must(lo, lo + 9_999);
                r.select_count(&q, &mut NullTracker);
                peak = peak.max(r.storage_bytes());
            }
            r.tree().validate().unwrap();
            let _ = round;
        }
        assert!(
            peak > db_size,
            "replicas must cost extra storage at the peak"
        );
        // The initial full-column segment must be gone by now.
        assert!(
            r.storage_bytes() <= db_size + db_size / 5,
            "storage {} should settle near DB size {}",
            r.storage_bytes(),
            db_size
        );
        assert!(r.drops() > 0);
    }

    #[test]
    fn cover_members_stay_disjoint_no_double_counting() {
        let values: Vec<u32> = (0..=DOMAIN_HI).step_by(10).collect();
        let total = values.len() as u64;
        let mut r = repl(values, apm());
        // Build up structure.
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            let lo = rng.gen_range(0..=DOMAIN_HI - 5_000);
            r.select_count(&ValueRange::must(lo, lo + 4_999), &mut NullTracker);
        }
        // The whole-domain query must count every tuple exactly once.
        let got = r.select_count(&ValueRange::must(0, DOMAIN_HI), &mut NullTracker);
        assert_eq!(got, total);
    }

    #[test]
    fn replication_writes_less_than_segmentation_rewrites() {
        // The paper's headline overhead claim: replication materializes
        // only what queries express interest in.
        let values = column_values(100_000, 10);
        let mut r = repl(values.clone(), apm());
        let mut seg = crate::segmentation::AdaptiveSegmentation::new(
            crate::column::SegmentedColumn::new(ValueRange::must(0, DOMAIN_HI), values).unwrap(),
            apm(),
            crate::estimate::SizeEstimator::Uniform,
        );
        let mut tr_r = CountingTracker::new();
        let mut tr_s = CountingTracker::new();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..500 {
            let lo = rng.gen_range(0..=DOMAIN_HI - 10_000);
            let q = ValueRange::must(lo, lo + 9_999);
            use crate::strategy::ColumnStrategy as _;
            r.select_count(&q, &mut tr_r);
            seg.select_count(&q, &mut tr_s);
        }
        assert!(
            tr_r.totals().write_bytes < tr_s.totals().write_bytes,
            "replication writes {} must undercut segmentation writes {}",
            tr_r.totals().write_bytes,
            tr_s.totals().write_bytes
        );
    }

    #[test]
    fn storage_budget_is_respected_and_results_stay_correct() {
        let values = column_values(50_000, 20);
        let reference = values.clone();
        let db_bytes = 50_000u64 * 4;
        let budget = db_bytes + db_bytes / 4; // 25% headroom
        let tree = ReplicaTree::new(ValueRange::must(0, DOMAIN_HI), values).unwrap();
        let mut r = AdaptiveReplication::new(tree, apm()).with_storage_budget(budget);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut peak = 0;
        for _ in 0..400 {
            let lo = rng.gen_range(0..=DOMAIN_HI - 10_000);
            let q = ValueRange::must(lo, lo + 9_999);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(r.select_count(&q, &mut NullTracker), expect);
            peak = peak.max(r.storage_bytes());
            r.tree().validate().unwrap();
        }
        assert!(peak <= budget, "peak {peak} must respect budget {budget}");
        assert!(
            r.adaptation().budget_declines > 0,
            "a tight budget must have declined something"
        );
        // Progress still happens: replicas are created when space allows.
        assert!(r.replicas_created() > 0);
    }

    #[test]
    fn budget_below_column_size_is_clamped() {
        let values = column_values(1_000, 22);
        let tree = ReplicaTree::new(ValueRange::must(0, DOMAIN_HI), values).unwrap();
        let r = AdaptiveReplication::new(tree, apm()).with_storage_budget(1);
        // The budget can never be below the column itself.
        assert_eq!(r.budget_bytes, Some(4_000));
    }

    #[test]
    fn segment_ranges_flatten_to_a_disjoint_domain_covering_partition() {
        // Regression: materialized parent and child replicas used to be
        // reported together, so ranges nested and positional placement
        // double-counted data. The flat covering leaf set must tile the
        // domain exactly once, with bytes paired per range.
        let values = column_values(30_000, 13);
        let total_bytes = 30_000u64 * 4;
        for model in [
            apm(),
            Box::new(GaussianDice::new(5)) as Box<dyn SegmentationModel>,
        ] {
            let mut r = repl(values.clone(), model);
            let mut rng = SmallRng::seed_from_u64(14);
            let mut saw_nesting = false;
            for _ in 0..200 {
                let lo = rng.gen_range(0..=DOMAIN_HI - 8_000);
                r.select_count(&ValueRange::must(lo, lo + 7_999), &mut NullTracker);

                let ranges = r.segment_ranges();
                let bytes = r.segment_bytes();
                assert_eq!(ranges.len(), bytes.len(), "byte/range pairing");
                // While parent and child replicas coexist, more segments
                // occupy storage than the flat report lists.
                saw_nesting |= r.segment_count() > ranges.len();
                // The reported partition is disjoint, adjacent, and spans
                // the domain: every point covered exactly once.
                assert_eq!(ranges.first().expect("non-empty").lo(), 0);
                assert_eq!(ranges.last().expect("non-empty").hi(), DOMAIN_HI);
                for w in ranges.windows(2) {
                    assert!(
                        w[0].adjacent_before(&w[1]),
                        "ranges {:?} and {:?} must tile with no gap or overlap",
                        w[0],
                        w[1]
                    );
                }
                // Summing paired bytes counts every tuple exactly once.
                assert_eq!(bytes.iter().sum::<u64>(), total_bytes);
            }
            assert!(
                saw_nesting,
                "the run must have passed through a nested-replica state"
            );
        }
    }

    /// Every live node, depth first in range order.
    fn nodes(tree: &ReplicaTree<u32>) -> Vec<NodeId> {
        let mut stack: Vec<NodeId> = tree.top().iter().rev().copied().collect();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            out.push(id);
            stack.extend(tree.node(id).children.iter().rev());
        }
        out
    }

    #[test]
    fn replicas_filled_by_the_cover_scan_hold_no_spare_capacity() {
        // Skewed data: the uniform-interpolation estimates the fills are
        // sized from are wrong in both directions.
        let values: Vec<u32> = column_values(40_000, 30)
            .into_iter()
            .map(|v| (v / 1000) * (v / 1000) * 10)
            .collect();
        for model in [
            apm(),
            Box::new(GaussianDice::new(31)) as Box<dyn SegmentationModel>,
        ] {
            let mut r = repl(values.clone(), model);
            let mut rng = SmallRng::seed_from_u64(32);
            for _ in 0..60 {
                let lo = rng.gen_range(0..=DOMAIN_HI - 6_000);
                r.select_count(&ValueRange::must(lo, lo + 5_999), &mut NullTracker);
            }
            assert!(r.replicas_created() > 0);
            let tree = r.tree();
            for id in nodes(tree) {
                let node = tree.node(id);
                // Every materialized node but a surviving root was filled
                // by `scan_cover_member`.
                let is_root = node.range == tree.domain();
                if let (false, NodePayload::Materialized(v)) = (is_root, &node.payload) {
                    assert_eq!(v.capacity(), v.len(), "replica {:?}", node.range);
                }
            }
        }
    }

    #[test]
    fn peek_returns_the_same_rows_after_replicas_are_filled() {
        let values = column_values(30_000, 35);
        for model in [
            apm(),
            Box::new(GaussianDice::new(36)) as Box<dyn SegmentationModel>,
        ] {
            let mut r = repl(values.clone(), model);
            let mut rng = SmallRng::seed_from_u64(37);
            let mut filled = 0;
            for _ in 0..40 {
                let lo = rng.gen_range(0..=DOMAIN_HI - 9_000);
                let q = ValueRange::must(lo, lo + 8_999);
                let before = r.replicas_created();
                r.select_count(&q, &mut NullTracker);
                let mut got = r.peek_collect(&q);
                let mut expect: Vec<u32> =
                    values.iter().copied().filter(|v| q.contains(*v)).collect();
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "{q:?}");
                filled += r.replicas_created() - before;
            }
            assert!(filled > 0, "M was never non-empty");
        }
    }

    #[test]
    fn query_outside_domain_matches_nothing() {
        let values = column_values(1_000, 12);
        let mut r = repl(values, apm());
        // Clip to domain: a query range beyond all data.
        let q = ValueRange::must(DOMAIN_HI, DOMAIN_HI);
        let n = r.select_count(&q, &mut NullTracker);
        assert!(n <= 1_000);
    }
}
