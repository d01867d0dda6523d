//! Replica analysis (Section 5, Algorithm 4).
//!
//! For every leaf under a covering segment that overlaps the query, the
//! segmentation model classifies the overlap and the analysis attaches the
//! corresponding child segments to the tree: the piece the query expressed
//! interest in becomes a *materialization candidate* (filled by the
//! covering scan that follows), the complements become virtual segments.

use crate::estimate::interpolate_pieces;
use crate::model::{SegmentationModel, SplitDecision, SplitGeometry, Technique, WhichBound};
use crate::range::ValueRange;
use crate::value::ColumnValue;

use super::arena::NodeId;
use super::tree::ReplicaTree;

impl<V: ColumnValue> ReplicaTree<V> {
    /// Algorithm 4: analyzes the subtree under covering segment `s` for
    /// replica creation, returning the materialization list `M`.
    ///
    /// New segments are attached to the tree immediately (virtual); the ids
    /// in `M` are the ones the covering scan must fill with data.
    pub(crate) fn analyze_repl(
        &mut self,
        q: &ValueRange<V>,
        s: NodeId,
        model: &mut dyn SegmentationModel,
    ) -> Vec<NodeId> {
        let mut m = Vec::new();
        self.analyze_rec(q, s, model, &mut m);
        m
    }

    fn analyze_rec(
        &mut self,
        q: &ValueRange<V>,
        s: NodeId,
        model: &mut dyn SegmentationModel,
        m: &mut Vec<NodeId>,
    ) {
        let node = self.node(s);
        if !node.is_leaf() {
            // Recurse into the children overlapping the query.
            let kids = node.children.clone();
            for p in kids {
                if self.node(p).range.overlaps(q) {
                    self.analyze_rec(q, p, model, m);
                }
            }
            return;
        }

        // Recursion bottom: classify the overlap.
        let seg_range = node.range;
        let seg_len = node.len(); // actual for materialized, estimate for virtual
        let is_virtual = node.is_virtual();
        let Some(pieces) = interpolate_pieces(&seg_range, seg_len, q) else {
            return; // no overlap (caller guards, but stay safe)
        };
        let geom = SplitGeometry::from_piece_lens::<V>(pieces, seg_len, self.total_len());
        let decision = model.decide(&geom, Technique::Replication);
        let (lower_est, mid_est, upper_est) = pieces;

        match decision {
            // Case 0: no split. A virtual leaf is materialized whole
            // ("s is materialized without split").
            SplitDecision::None | SplitDecision::Mean => {
                if is_virtual {
                    m.push(s);
                }
            }
            // Cases 1–3: split at the query bounds inside the segment; the
            // overlap piece is the materialization candidate, complements
            // stay virtual.
            SplitDecision::QueryBounds => {
                let (below, mid, above) = seg_range.partition_by(q);
                #[expect(
                    clippy::expect_used,
                    reason = "the overlap test above guarantees a midpoint"
                )]
                let mid = mid.expect("overlap checked above");
                if let Some(below) = below {
                    self.add_virtual_child(s, below, lower_est.unwrap_or(0));
                }
                let mat = self.add_virtual_child(s, mid, mid_est);
                if let Some(above) = above {
                    self.add_virtual_child(s, above, upper_est.unwrap_or(0));
                }
                m.push(mat);
            }
            // Case 4: split on one query border, materializing the smallest
            // super-set of the selection.
            SplitDecision::SingleBound(WhichBound::Lower) => {
                // v = [lo, ql-1] virtual, m = [ql, hi] materialized.
                match seg_range.split_below(q.lo()) {
                    Some(below) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "q.lo lies inside seg_range so lo is at most hi"
                        )]
                        let rest =
                            ValueRange::new(q.lo(), seg_range.hi()).expect("ql inside the segment");
                        self.add_virtual_child(s, below, lower_est.unwrap_or(0));
                        let mat = self.add_virtual_child(s, rest, mid_est + upper_est.unwrap_or(0));
                        m.push(mat);
                    }
                    None => {
                        // Degenerate: the bound is not actually inside.
                        if is_virtual {
                            m.push(s);
                        }
                    }
                }
            }
            SplitDecision::SingleBound(WhichBound::Upper) => {
                // m = [lo, qh] materialized, v = [qh+1, hi] virtual.
                match seg_range.split_above(q.hi()) {
                    Some(above) => {
                        #[expect(
                            clippy::expect_used,
                            reason = "q.hi lies inside seg_range so lo is at most hi"
                        )]
                        let rest =
                            ValueRange::new(seg_range.lo(), q.hi()).expect("qh inside the segment");
                        let mat = self.add_virtual_child(s, rest, lower_est.unwrap_or(0) + mid_est);
                        self.add_virtual_child(s, above, upper_est.unwrap_or(0));
                        m.push(mat);
                    }
                    None => {
                        if is_virtual {
                            m.push(s);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePageModel, AlwaysSplit, NeverSplit};
    use crate::tracker::NullTracker;

    fn tree() -> ReplicaTree<u32> {
        // 1000 values, one per domain point: interpolation is exact.
        let values: Vec<u32> = (0..1000u32).collect();
        ReplicaTree::new(ValueRange::must(0, 999), values).unwrap()
    }

    fn q(lo: u32, hi: u32) -> ValueRange<u32> {
        ValueRange::must(lo, hi)
    }

    #[test]
    fn case3_query_inside_creates_three_children() {
        let mut t = tree();
        let root = t.top()[0];
        let mut model = AlwaysSplit;
        let m = t.analyze_repl(&q(400, 599), root, &mut model);
        assert_eq!(m.len(), 1);
        let kids = t.node(root).children.clone();
        assert_eq!(kids.len(), 3);
        assert_eq!(t.node(kids[0]).range, q(0, 399));
        assert_eq!(t.node(kids[1]).range, q(400, 599));
        assert_eq!(t.node(kids[2]).range, q(600, 999));
        assert_eq!(m[0], kids[1]);
        // All still virtual until the covering scan fills M.
        assert!(kids.iter().all(|&k| t.node(k).is_virtual()));
        // Estimates follow interpolation (uniform data: exact).
        assert_eq!(t.node(kids[0]).len(), 400);
        assert_eq!(t.node(kids[1]).len(), 200);
        assert_eq!(t.node(kids[2]).len(), 400);
        t.validate().unwrap();
    }

    #[test]
    fn case1_query_covering_lower_part_creates_two_children() {
        let mut t = tree();
        let root = t.top()[0];
        let mut model = AlwaysSplit;
        let m = t.analyze_repl(&q(0, 299), root, &mut model);
        let kids = t.node(root).children.clone();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.node(kids[0]).range, q(0, 299));
        assert_eq!(t.node(kids[1]).range, q(300, 999));
        assert_eq!(m, vec![kids[0]]);
        t.validate().unwrap();
    }

    #[test]
    fn case2_query_covering_upper_part_creates_two_children() {
        let mut t = tree();
        let root = t.top()[0];
        let mut model = AlwaysSplit;
        let m = t.analyze_repl(&q(700, 1500), root, &mut model);
        let kids = t.node(root).children.clone();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.node(kids[0]).range, q(0, 699));
        assert_eq!(t.node(kids[1]).range, q(700, 999));
        assert_eq!(m, vec![kids[1]]);
        t.validate().unwrap();
    }

    #[test]
    fn case0_never_split_materializes_virtual_leaves_whole() {
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let _b = t.add_virtual_child(root, q(500, 999), 500);
        let mut model = NeverSplit;
        // Query overlapping the virtual leaf a: a joins M un-split.
        let m = t.analyze_repl(&q(100, 200), root, &mut model);
        assert_eq!(m, vec![a]);
        // Materialized leaves are never re-materialized.
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        let m = t.analyze_repl(&q(100, 200), root, &mut model);
        assert!(m.is_empty());
    }

    #[test]
    fn case4_apm_materializes_smallest_superset() {
        // Point query inside a big segment: APM rule 3 materializes the
        // smaller of [lo,qh] / [ql,hi].
        let mut t = tree();
        let root = t.top()[0];
        // Mmin=100B(25 tuples), Mmax=400B(100 tuples); segment is 4000B.
        let mut model = AdaptivePageModel::new(100, 400);
        let m = t.analyze_repl(&q(100, 104), root, &mut model);
        let kids = t.node(root).children.clone();
        assert_eq!(kids.len(), 2);
        // Query sits near the low end: [0,104] is the smaller superset.
        assert_eq!(t.node(kids[0]).range, q(0, 104));
        assert_eq!(t.node(kids[1]).range, q(105, 999));
        assert_eq!(m, vec![kids[0]]);
        t.validate().unwrap();
    }

    #[test]
    fn analysis_recurses_to_overlapping_leaves_only() {
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let b = t.add_virtual_child(root, q(500, 999), 500);
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        t.materialize(b, (500..1000).collect(), &mut NullTracker);
        let mut model = AlwaysSplit;
        // Query inside a: b must stay untouched.
        let _ = t.analyze_repl(&q(100, 199), root, &mut model);
        assert_eq!(t.node(b).children.len(), 0);
        assert_eq!(t.node(a).children.len(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn virtual_leaf_can_be_split_too() {
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let mut model = AlwaysSplit;
        let m = t.analyze_repl(&q(100, 199), a, &mut model);
        assert_eq!(m.len(), 1);
        let kids = t.node(a).children.clone();
        assert_eq!(kids.len(), 3);
        // The virtual parent distributes its estimate.
        assert_eq!(t.node(kids[0]).len(), 100);
        assert_eq!(t.node(kids[1]).len(), 100);
        assert_eq!(t.node(kids[2]).len(), 300);
    }
}
