//! The replica tree (Section 5).
//!
//! Segments form a hierarchy: a segment is a child of another when its
//! value range is a subset of the parent's. *Materialized* segments hold
//! real data; *virtual* segments only complete the range partition of their
//! parent (range + size estimate, no data). The root level tiles the whole
//! attribute domain; the initial column is the single, materialized root.
//!
//! Data invariant: every materialized node holds exactly the column values
//! falling inside its range. Virtual nodes always have a materialized
//! ancestor, so their data can be recovered by one scan of that ancestor.

use crate::range::ValueRange;
use crate::segment::{SegId, SegIdGen};
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

use super::arena::{Arena, NodeId};

/// What a replica-tree node holds.
#[derive(Debug, Clone)]
pub(crate) enum NodePayload<V> {
    /// Real data: every column value within the node's range.
    Materialized(Vec<V>),
    /// No data; `est_len` is the optimizer's tuple-count estimate.
    Virtual {
        /// Estimated tuple count (refined as siblings materialize).
        est_len: u64,
    },
}

/// One segment in the replica tree.
#[derive(Debug)]
pub struct ReplicaNode<V> {
    /// Segment identity (fresh per materialization event).
    pub seg_id: SegId,
    /// The closed value range this node is responsible for.
    pub range: ValueRange<V>,
    /// Parent node; `None` for top-level nodes.
    pub parent: Option<NodeId>,
    /// Children ordered by range; they tile `range` exactly when non-empty.
    pub children: Vec<NodeId>,
    /// What the node holds; [`Self::values`] reads it.
    pub(super) payload: NodePayload<V>,
}

impl<V: ColumnValue> ReplicaNode<V> {
    /// Whether the node is virtual (no data).
    pub fn is_virtual(&self) -> bool {
        matches!(self.payload, NodePayload::Virtual { .. })
    }

    /// Tuple count: actual for materialized nodes, estimate for virtual.
    pub fn len(&self) -> u64 {
        match &self.payload {
            NodePayload::Materialized(v) => v.len() as u64,
            NodePayload::Virtual { est_len } => *est_len,
        }
    }

    /// Storage footprint in bytes (0 for virtual nodes).
    pub(crate) fn bytes(&self) -> u64 {
        match &self.payload {
            NodePayload::Materialized(v) => v.len() as u64 * V::BYTES,
            NodePayload::Virtual { .. } => 0,
        }
    }

    /// The stored values, if materialized.
    pub(crate) fn values(&self) -> Option<&[V]> {
        match &self.payload {
            NodePayload::Materialized(v) => Some(v),
            NodePayload::Virtual { .. } => None,
        }
    }

    /// Whether this node is a leaf.
    pub(crate) fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The replica tree of one column.
#[derive(Debug)]
pub struct ReplicaTree<V> {
    arena: Arena<ReplicaNode<V>>,
    top: Vec<NodeId>,
    ids: SegIdGen,
    domain: ValueRange<V>,
    total_len: u64,
    mat_bytes: u64,
    mat_count: usize,
}

impl<V: ColumnValue> ReplicaTree<V> {
    /// Loads a column as a single materialized root covering `domain`.
    pub fn new(domain: ValueRange<V>, values: Vec<V>) -> Result<Self, crate::column::ColumnError> {
        if crate::kernels::min_max_all(&values)
            .is_some_and(|(min, max)| !domain.contains(min) || !domain.contains(max))
        {
            return Err(crate::column::ColumnError::ValueOutsideDomain);
        }
        let mut ids = SegIdGen::new();
        let total_len = values.len() as u64;
        let mat_bytes = total_len * V::BYTES;
        let mut arena = Arena::new();
        let root = arena.insert(ReplicaNode {
            seg_id: ids.fresh(),
            range: domain,
            parent: None,
            children: Vec::new(),
            payload: NodePayload::Materialized(values),
        });
        Ok(ReplicaTree {
            arena,
            top: vec![root],
            ids,
            domain,
            total_len,
            mat_bytes,
            mat_count: 1,
        })
    }

    /// The attribute domain.
    pub(crate) fn domain(&self) -> ValueRange<V> {
        self.domain
    }

    /// Tuple count of the logical column (invariant).
    pub(crate) fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Byte size of the logical column (the "DB size" line of Figures 8–9).
    pub fn total_bytes(&self) -> u64 {
        self.total_len * V::BYTES
    }

    /// Total bytes currently held by materialized segments, including the
    /// original column while it lives (the "Replica storage" axis).
    pub fn mat_bytes(&self) -> u64 {
        self.mat_bytes
    }

    /// Number of materialized segments.
    pub fn mat_count(&self) -> usize {
        self.mat_count
    }

    /// Number of live nodes (materialized + virtual).
    pub(crate) fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Whether `id` is still a live node.
    #[cfg(test)]
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.arena.contains(id)
    }

    /// Top-level nodes in range order (they tile the domain).
    pub fn top(&self) -> &[NodeId] {
        &self.top
    }

    /// Borrows a node.
    pub fn node(&self, id: NodeId) -> &ReplicaNode<V> {
        self.arena.get(id)
    }

    /// `(range, bytes)` of every materialized segment, sorted by range
    /// start; nested replicas included.
    #[cfg(test)]
    pub(crate) fn mat_segments(&self) -> Vec<(ValueRange<V>, u64)> {
        let mut segs: Vec<(ValueRange<V>, u64)> = self
            .arena
            .iter()
            .filter(|(_, n)| !n.is_virtual())
            .map(|(_, n)| (n.range, n.bytes()))
            .collect();
        segs.sort_by(|(a, _), (b, _)| a.lo().cmp(&b.lo()).then(a.hi().cmp(&b.hi())));
        segs
    }

    /// `(range, bytes)` of the flat covering leaf set: the deepest
    /// materialized segments whose ranges jointly tile the whole domain,
    /// each point covered exactly once (the minimal covering set of the
    /// full-domain selection).
    ///
    /// This is the partitioning a distributed placement ships to nodes —
    /// unlike [`Self::mat_segments`], ranges never nest, so summing bytes
    /// counts every tuple exactly once. The returned ranges are sorted, pairwise
    /// disjoint, adjacent, and span the domain.
    pub(crate) fn covering_partition(&self) -> Vec<(ValueRange<V>, u64)> {
        self.covering_set(&self.domain)
            .into_iter()
            .map(|id| {
                let n = self.node(id);
                (n.range, n.bytes())
            })
            .collect()
    }

    /// Depth of the tree (a root-only tree has depth 1).
    pub fn depth(&self) -> usize {
        fn rec<V: ColumnValue>(tree: &ReplicaTree<V>, id: NodeId) -> usize {
            1 + tree
                .node(id)
                .children
                .iter()
                .map(|&c| rec(tree, c))
                .max()
                .unwrap_or(0)
        }
        self.top.iter().map(|&t| rec(self, t)).max().unwrap_or(0)
    }

    /// Adds a virtual child under `parent`, keeping children range-ordered.
    ///
    /// New segments always enter the tree virtual; [`Self::materialize`]
    /// fills them during the covering scan (Algorithm 2's `scanMat`).
    pub(crate) fn add_virtual_child(
        &mut self,
        parent: NodeId,
        range: ValueRange<V>,
        est_len: u64,
    ) -> NodeId {
        debug_assert!(
            self.node(parent).range.covers(&range),
            "child range must be inside the parent range"
        );
        let id = self.arena.insert(ReplicaNode {
            seg_id: self.ids.fresh(),
            range,
            parent: Some(parent),
            children: Vec::new(),
            payload: NodePayload::Virtual { est_len },
        });
        let pos = self
            .arena
            .get(parent)
            .children
            .iter()
            .position(|&c| self.arena.get(c).range.lo() > range.lo());
        let parent_node = self.arena.get_mut(parent);
        match pos {
            Some(p) => parent_node.children.insert(p, id),
            None => parent_node.children.push(id),
        }
        id
    }

    /// Fills a virtual node with data, reporting the write to `tracker`.
    ///
    /// # Panics
    /// Panics if the node is already materialized or a value falls outside
    /// its range.
    pub(crate) fn materialize(
        &mut self,
        id: NodeId,
        values: Vec<V>,
        tracker: &mut dyn AccessTracker,
    ) {
        let node = self.arena.get_mut(id);
        assert!(node.is_virtual(), "node {id:?} is already materialized");
        debug_assert!(
            values.iter().all(|v| node.range.contains(*v)),
            "materialized values must lie in the node range"
        );
        let bytes = values.len() as u64 * V::BYTES;
        node.payload = NodePayload::Materialized(values);
        let seg_id = node.seg_id;
        self.mat_bytes += bytes;
        self.mat_count += 1;
        tracker.materialize(seg_id, bytes);
    }

    /// Folds a delta (both sides ascending) into **every** materialized
    /// replica whose range holds one of its values, keeping the data
    /// invariant — each materialized node holds exactly the column values
    /// inside its range — at every level of the tree: inserts join the
    /// replica's values, then each tombstone cancels one occurrence. Each
    /// touched replica is charged one read of its old values plus one
    /// write of the new (a free and a materialization). Virtual nodes hold
    /// no data and keep their estimates; no node is created or dropped.
    ///
    /// Returns the tombstones that found no occurrence (counted once, at
    /// the top level, which tiles the domain with materialized nodes), or
    /// `None` — with nothing changed — when an insert lies outside the
    /// domain.
    pub(crate) fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        let (tombs, mut unmatched) = crate::delta::clip_fold(&self.domain, inserts, tombstones)?;
        for (_, node) in self.arena.iter_mut() {
            let NodePayload::Materialized(values) = &mut node.payload else {
                continue;
            };
            let (ins, tombs) = (
                crate::delta::run_in(inserts, &node.range),
                crate::delta::run_in(tombs, &node.range),
            );
            if ins.is_empty() && tombs.is_empty() {
                continue;
            }
            let old = values.len() as u64 * V::BYTES;
            tracker.scan(node.seg_id, old);
            values.extend_from_slice(ins);
            let stray = crate::kernels::cancel_occurrences(values, tombs);
            let new = values.len() as u64 * V::BYTES;
            tracker.free(node.seg_id, old);
            tracker.materialize(node.seg_id, new);
            self.mat_bytes = self.mat_bytes - old + new;
            if node.parent.is_none() {
                unmatched += stray;
            }
        }
        self.reset_logical_totals();
        Some(unmatched)
    }

    /// Re-estimates the virtual children of `parent` so all children sum to
    /// the parent's tuple count, distributing the residue proportionally to
    /// range width.
    ///
    /// Called after materializations under `parent` turned estimates into
    /// facts; keeps later model decisions honest.
    pub(crate) fn refine_virtual_children(&mut self, parent: NodeId) {
        let parent_len = self.node(parent).len();
        let children = self.node(parent).children.clone();
        if children.is_empty() {
            return;
        }
        let mut known = 0u64;
        let mut virt: Vec<(NodeId, f64)> = Vec::new();
        let mut virt_width = 0.0f64;
        for &c in &children {
            let n = self.node(c);
            if n.is_virtual() {
                let w = n.range.width();
                virt_width += w;
                virt.push((c, w));
            } else {
                known += n.len();
            }
        }
        if virt.is_empty() {
            return;
        }
        let residual = parent_len.saturating_sub(known);
        let mut assigned = 0u64;
        let last = virt.len() - 1;
        for (i, (c, w)) in virt.iter().enumerate() {
            let est = if i == last {
                residual.saturating_sub(assigned)
            } else if virt_width > 0.0 {
                ((residual as f64) * (w / virt_width)).round() as u64
            } else {
                0
            };
            assigned += est;
            if let NodePayload::Virtual { est_len } = &mut self.arena.get_mut(*c).payload {
                *est_len = est.min(residual);
            }
        }
    }

    /// Drops node `s`, splicing its children into its parent (or the top
    /// level) and releasing its storage — the reclamation step of
    /// Algorithm 5.
    ///
    /// # Panics
    /// Panics if `s` has no children (only interior nodes can be dropped —
    /// the children take over responsibility for the range).
    pub(crate) fn drop_node(&mut self, s: NodeId, tracker: &mut dyn AccessTracker) {
        #[expect(
            clippy::expect_used,
            reason = "the traversal above yielded a live node id"
        )]
        let node = self.arena.remove(s).expect("dropping a stale node");
        assert!(
            !node.children.is_empty(),
            "only interior nodes can be dropped"
        );
        for &c in &node.children {
            self.arena.get_mut(c).parent = node.parent;
        }
        match node.parent {
            Some(q) => {
                let qn = self.arena.get_mut(q);
                #[expect(
                    clippy::expect_used,
                    reason = "tree invariant: every child's parent link is live"
                )]
                let pos = qn
                    .children
                    .iter()
                    .position(|&c| c == s)
                    .expect("parent/child link broken");
                qn.children
                    .splice(pos..pos + 1, node.children.iter().copied());
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "tree invariant: every top-level node is in the top list"
                )]
                let pos = self
                    .top
                    .iter()
                    .position(|&c| c == s)
                    .expect("top list missing node");
                self.top.splice(pos..pos + 1, node.children.iter().copied());
            }
        }
        if let NodePayload::Materialized(values) = node.payload {
            let bytes = values.len() as u64 * V::BYTES;
            self.mat_bytes -= bytes;
            self.mat_count -= 1;
            tracker.free(node.seg_id, bytes);
        }
    }

    /// Algorithm 5: recursively drops every segment fully replicated by its
    /// children, starting from `s`.
    ///
    /// Children are visited first (their drops splice grandchildren up), and
    /// `s` itself is dropped only when *all* of its (current) children are
    /// materialized.
    pub(crate) fn check4drop(&mut self, s: NodeId, tracker: &mut dyn AccessTracker) {
        if self.node(s).children.is_empty() {
            return;
        }
        let snapshot = self.node(s).children.clone();
        for p in snapshot {
            self.check4drop(p, tracker);
        }
        let children = &self.node(s).children;
        if children.iter().any(|&p| self.node(p).is_virtual()) {
            return; // children do not fully replicate s
        }
        self.drop_node(s, tracker);
    }

    /// Recomputes the logical column size from the top-level nodes
    /// (used after structural imports; top nodes each hold every value in
    /// their range, so their lengths sum to the column).
    pub(crate) fn reset_logical_totals(&mut self) {
        self.total_len = self.top.iter().map(|&t| self.node(t).len()).sum();
    }

    /// Full structural + accounting invariant check (tests, debugging).
    pub fn validate(&self) -> Result<(), String> {
        // Top level tiles the domain with materialized nodes.
        if self.top.is_empty() {
            return Err("empty top level".into());
        }
        let first = self.node(self.top[0]);
        #[expect(clippy::expect_used, reason = "top is non-empty for a built tree")]
        let last = self.node(*self.top.last().expect("non-empty"));
        if first.range.lo() != self.domain.lo() || last.range.hi() != self.domain.hi() {
            return Err("top level does not span the domain".into());
        }
        for w in self.top.windows(2) {
            if !self
                .node(w[0])
                .range
                .adjacent_before(&self.node(w[1]).range)
            {
                return Err(format!("top nodes {:?}/{:?} not adjacent", w[0], w[1]));
            }
        }
        // Walk the whole tree.
        let mut mat_bytes = 0u64;
        let mut mat_count = 0usize;
        let mut stack: Vec<(NodeId, Option<NodeId>, bool)> =
            self.top.iter().map(|&t| (t, None, false)).collect();
        while let Some((id, parent, has_mat_ancestor)) = stack.pop() {
            let n = self.node(id);
            if n.parent != parent {
                return Err(format!("node {id:?} has wrong parent pointer"));
            }
            if parent.is_none() && n.is_virtual() {
                return Err(format!("top node {id:?} is virtual"));
            }
            if n.is_virtual() && !has_mat_ancestor && parent.is_some() {
                return Err(format!("virtual node {id:?} lacks a materialized ancestor"));
            }
            if let Some(values) = n.values() {
                if !values.iter().all(|v| n.range.contains(*v)) {
                    return Err(format!("node {id:?} holds out-of-range values"));
                }
                mat_bytes += n.bytes();
                mat_count += 1;
            }
            if !n.children.is_empty() {
                let kids: Vec<&ReplicaNode<V>> = n.children.iter().map(|&c| self.node(c)).collect();
                if kids[0].range.lo() != n.range.lo()
                    || kids[kids.len() - 1].range.hi() != n.range.hi()
                {
                    return Err(format!("children of {id:?} do not span its range"));
                }
                for w in kids.windows(2) {
                    if !w[0].range.adjacent_before(&w[1].range) {
                        return Err(format!("children of {id:?} not adjacent"));
                    }
                }
                let child_has_mat = has_mat_ancestor || !n.is_virtual();
                stack.extend(n.children.iter().map(|&c| (c, Some(id), child_has_mat)));
            }
        }
        if mat_bytes != self.mat_bytes {
            return Err(format!(
                "mat_bytes drifted: counted {mat_bytes}, tracked {}",
                self.mat_bytes
            ));
        }
        if mat_count != self.mat_count {
            return Err(format!(
                "mat_count drifted: counted {mat_count}, tracked {}",
                self.mat_count
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{CountingTracker, NullTracker};

    fn tree() -> ReplicaTree<u32> {
        let values: Vec<u32> = (0..1000u32).collect();
        ReplicaTree::new(ValueRange::must(0, 999), values).unwrap()
    }

    #[test]
    fn new_tree_is_a_single_materialized_root() {
        let t = tree();
        assert_eq!(t.top().len(), 1);
        assert_eq!(t.mat_count(), 1);
        assert_eq!(t.mat_bytes(), 4000);
        assert_eq!(t.total_bytes(), 4000);
        assert_eq!(t.depth(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn rejects_out_of_domain_values() {
        let err = ReplicaTree::new(ValueRange::must(0u32, 10), vec![11]).unwrap_err();
        assert_eq!(err, crate::column::ColumnError::ValueOutsideDomain);
    }

    #[test]
    fn add_children_keeps_order_and_estimates() {
        let mut t = tree();
        let root = t.top()[0];
        // Insert out of order; the tree keeps them sorted.
        let c2 = t.add_virtual_child(root, ValueRange::must(500, 999), 500);
        let c1 = t.add_virtual_child(root, ValueRange::must(0, 499), 500);
        let kids = &t.node(root).children;
        assert_eq!(kids, &vec![c1, c2]);
        assert_eq!(t.node(c1).len(), 500);
        assert!(t.node(c1).is_virtual());
        assert_eq!(t.node(c1).bytes(), 0);
        t.validate().unwrap();
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn materialize_updates_accounting() {
        let mut t = tree();
        let root = t.top()[0];
        let c1 = t.add_virtual_child(root, ValueRange::must(0, 499), 400);
        let _c2 = t.add_virtual_child(root, ValueRange::must(500, 999), 500);
        let mut tr = CountingTracker::new();
        let values: Vec<u32> = (0..500).collect();
        t.materialize(c1, values, &mut tr);
        assert_eq!(t.mat_count(), 2);
        assert_eq!(t.mat_bytes(), 4000 + 2000);
        assert_eq!(tr.totals().write_bytes, 2000);
        assert!(!t.node(c1).is_virtual());
        assert_eq!(t.node(c1).len(), 500, "actual count replaces the estimate");
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "already materialized")]
    fn double_materialize_panics() {
        let mut t = tree();
        let root = t.top()[0];
        let c = t.add_virtual_child(root, ValueRange::must(0, 499), 1);
        t.materialize(c, vec![1], &mut NullTracker);
        t.materialize(c, vec![2], &mut NullTracker);
    }

    #[test]
    fn refine_virtual_children_distributes_residual() {
        let mut t = tree();
        let root = t.top()[0];
        let m = t.add_virtual_child(root, ValueRange::must(0, 99), 0);
        let v1 = t.add_virtual_child(root, ValueRange::must(100, 549), 0);
        let v2 = t.add_virtual_child(root, ValueRange::must(550, 999), 0);
        t.materialize(m, (0..100).collect(), &mut NullTracker);
        t.refine_virtual_children(root);
        // Residual 900 split by width 450/450.
        assert_eq!(t.node(v1).len(), 450);
        assert_eq!(t.node(v2).len(), 450);
        let total: u64 = [m, v1, v2].iter().map(|&c| t.node(c).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn drop_root_promotes_children_to_top() {
        let mut t = tree();
        let root = t.top()[0];
        let c1 = t.add_virtual_child(root, ValueRange::must(0, 499), 500);
        let c2 = t.add_virtual_child(root, ValueRange::must(500, 999), 500);
        t.materialize(c1, (0..500).collect(), &mut NullTracker);
        t.materialize(c2, (500..1000).collect(), &mut NullTracker);
        let mut tr = CountingTracker::new();
        t.check4drop(root, &mut tr);
        assert!(!t.contains(root));
        assert_eq!(t.top(), &[c1, c2]);
        assert_eq!(t.node(c1).parent, None);
        // Root storage released.
        assert_eq!(tr.totals().freed_bytes, 4000);
        assert_eq!(t.mat_bytes(), 4000);
        assert_eq!(t.mat_count(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn check4drop_keeps_partially_virtual_parents() {
        let mut t = tree();
        let root = t.top()[0];
        let c1 = t.add_virtual_child(root, ValueRange::must(0, 499), 500);
        let _c2 = t.add_virtual_child(root, ValueRange::must(500, 999), 500);
        t.materialize(c1, (0..500).collect(), &mut NullTracker);
        t.check4drop(root, &mut NullTracker);
        assert!(t.contains(root), "root must stay while a child is virtual");
        assert_eq!(t.mat_bytes(), 4000 + 2000);
        t.validate().unwrap();
    }

    #[test]
    fn check4drop_cascades_from_the_bottom() {
        // root -> {a(mat), b(virt -> {b1(mat), b2(mat)})}
        // After the recursion, b collapses into root's children, then root
        // sees all-materialized children and drops itself.
        let mut t = tree();
        let root = t.top()[0];
        let a = t.add_virtual_child(root, ValueRange::must(0, 499), 500);
        let b = t.add_virtual_child(root, ValueRange::must(500, 999), 500);
        let b1 = t.add_virtual_child(b, ValueRange::must(500, 749), 250);
        let b2 = t.add_virtual_child(b, ValueRange::must(750, 999), 250);
        t.materialize(a, (0..500).collect(), &mut NullTracker);
        t.materialize(b1, (500..750).collect(), &mut NullTracker);
        t.materialize(b2, (750..1000).collect(), &mut NullTracker);
        t.check4drop(root, &mut NullTracker);
        assert!(!t.contains(root));
        assert!(!t.contains(b), "virtual b collapses too");
        assert_eq!(t.top(), &[a, b1, b2]);
        assert_eq!(t.mat_bytes(), 4000);
        t.validate().unwrap();
    }

    #[test]
    fn validate_catches_gaps() {
        let mut t = tree();
        let root = t.top()[0];
        // Children with a hole: [0,499] + [501,999].
        t.add_virtual_child(root, ValueRange::must(0, 499), 500);
        t.add_virtual_child(root, ValueRange::must(501, 999), 499);
        assert!(t.validate().is_err());
    }

    #[test]
    fn depth_tracks_nesting() {
        let mut t = tree();
        let root = t.top()[0];
        let c = t.add_virtual_child(root, ValueRange::must(0, 499), 500);
        let g = t.add_virtual_child(c, ValueRange::must(0, 249), 250);
        let _ = t.add_virtual_child(g, ValueRange::must(0, 124), 125);
        assert_eq!(t.depth(), 4);
    }
}
