//! Minimal covering set search (Section 5, Algorithm 3).
//!
//! A query is answered from the *minimal covering set*: the deepest
//! materialized segments whose ranges jointly include the selection range.
//! The search descends the replica tree; whenever an overlapping subtree
//! bottoms out in a virtual leaf, the partial picks under the current node
//! are discarded (backtracking) and the node itself — if materialized —
//! covers its whole share of the query.

use crate::range::ValueRange;
use crate::value::ColumnValue;

use super::arena::NodeId;
use super::tree::ReplicaTree;

impl<V: ColumnValue> ReplicaTree<V> {
    /// The minimal covering set for a selection `[ql, qh]` (Algorithm 3
    /// applied to every overlapping top-level node).
    ///
    /// Properties (tested, and guaranteed by the top-level materialization
    /// invariant): every member is materialized, members have pairwise
    /// disjoint ranges, their union covers `q ∩ domain`, and no member can
    /// be removed or replaced by its children.
    pub fn covering_set(&self, q: &ValueRange<V>) -> Vec<NodeId> {
        let mut cover = Vec::new();
        for &t in self.top() {
            if self.node(t).range.overlaps(q) {
                let ok = self.get_cover(q, t, &mut cover);
                debug_assert!(ok, "top-level nodes are always materialized");
            }
        }
        cover
    }

    /// The values of a [`Self::covering_set`] member. Every member is
    /// materialized, so the lookup cannot miss.
    #[expect(
        clippy::expect_used,
        reason = "replica-tree invariant: covering-set nodes hold materialized values"
    )]
    pub(crate) fn cover_values(&self, id: NodeId) -> &[V] {
        self.node(id)
            .values()
            .expect("covering-set members are materialized")
    }

    /// Algorithm 3's recursive step. Appends to `cover` and returns whether
    /// the subtree under `s` (restricted to `q`) could be covered.
    fn get_cover(&self, q: &ValueRange<V>, s: NodeId, cover: &mut Vec<NodeId>) -> bool {
        let start = cover.len();
        let node = self.node(s);
        if node.is_leaf() {
            // Recursion bottom.
            if node.is_virtual() {
                false
            } else {
                cover.push(s);
                true
            }
        } else {
            for &p in &node.children {
                if self.node(p).range.overlaps(q) && !self.get_cover(q, p, cover) {
                    // Backtrack: drop the partial picks below s …
                    cover.truncate(start);
                    // … and let s itself cover the query, if it can.
                    return if node.is_virtual() {
                        false
                    } else {
                        cover.push(s);
                        true
                    };
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::NullTracker;

    /// root(mat, [0,999]) with helpers to build shapes quickly.
    fn tree() -> ReplicaTree<u32> {
        let values: Vec<u32> = (0..1000u32).collect();
        ReplicaTree::new(ValueRange::must(0, 999), values).unwrap()
    }

    fn q(lo: u32, hi: u32) -> ValueRange<u32> {
        ValueRange::must(lo, hi)
    }

    #[test]
    fn single_root_covers_everything() {
        let t = tree();
        let cover = t.covering_set(&q(100, 200));
        assert_eq!(cover, vec![t.top()[0]]);
    }

    #[test]
    fn materialized_leaves_are_preferred_over_the_root() {
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let b = t.add_virtual_child(root, q(500, 999), 500);
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        t.materialize(b, (500..1000).collect(), &mut NullTracker);
        // Query inside a: only a.
        assert_eq!(t.covering_set(&q(100, 200)), vec![a]);
        // Query spanning both: both, in range order.
        assert_eq!(t.covering_set(&q(400, 600)), vec![a, b]);
    }

    #[test]
    fn virtual_leaf_forces_backtrack_to_parent() {
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let _b = t.add_virtual_child(root, q(500, 999), 500);
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        // b is virtual: a query touching b must fall back to the root, and
        // the backtracking also discards a from the partial cover.
        assert_eq!(t.covering_set(&q(400, 600)), vec![root]);
        // A query entirely inside a still uses a.
        assert_eq!(t.covering_set(&q(0, 100)), vec![a]);
    }

    #[test]
    fn backtrack_stops_at_nearest_materialized_ancestor() {
        // root -> {a(mat) -> {a1(mat), a2(virt)}, b(mat)}
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let b = t.add_virtual_child(root, q(500, 999), 500);
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        t.materialize(b, (500..1000).collect(), &mut NullTracker);
        let a1 = t.add_virtual_child(a, q(0, 249), 250);
        let _a2 = t.add_virtual_child(a, q(250, 499), 250);
        t.materialize(a1, (0..250).collect(), &mut NullTracker);
        // Query touching a2 (virtual) backtracks to a — not to root — and b
        // still covers its own share.
        assert_eq!(t.covering_set(&q(300, 700)), vec![a, b]);
        // Query inside a1 uses the deep leaf.
        assert_eq!(t.covering_set(&q(0, 99)), vec![a1]);
    }

    #[test]
    fn cover_properties_hold() {
        // Build a three-level mixed tree and check the formal cover
        // properties for a sweep of queries.
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, q(0, 499), 500);
        let b = t.add_virtual_child(root, q(500, 999), 500);
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        t.materialize(b, (500..1000).collect(), &mut NullTracker);
        let b1 = t.add_virtual_child(b, q(500, 599), 100);
        let _b2 = t.add_virtual_child(b, q(600, 999), 400);
        t.materialize(b1, (500..600).collect(), &mut NullTracker);
        t.check4drop(root, &mut NullTracker);

        for (lo, hi) in [
            (0, 999),
            (450, 550),
            (600, 650),
            (0, 0),
            (999, 999),
            (250, 750),
        ] {
            let query = q(lo, hi);
            let cover = t.covering_set(&query);
            // 1. all materialized
            assert!(cover.iter().all(|&s| !t.node(s).is_virtual()));
            // 2. the query (clipped to the domain) is covered
            for v in lo..=hi {
                assert!(
                    cover.iter().any(|&s| t.node(s).range.contains(v)),
                    "value {v} uncovered for {query:?}"
                );
            }
            // disjointness
            for (i, &x) in cover.iter().enumerate() {
                for &y in &cover[i + 1..] {
                    assert!(!t.node(x).range.overlaps(&t.node(y).range));
                }
            }
            // 4. minimality: every member overlaps the query
            assert!(cover.iter().all(|&s| t.node(s).range.overlaps(&query)));
        }
    }

    #[test]
    fn query_outside_domain_has_empty_cover() {
        let t = tree();
        assert!(t.covering_set(&q(1000, 2000)).is_empty());
    }
}
