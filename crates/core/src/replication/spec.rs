//! Structural import/export of replica trees.
//!
//! A [`ReplicaNodeSpec`] describes one node (range, payload or estimate,
//! children); a whole tree round-trips through `to_spec`/`from_spec`.
//! This is the bridge the checkpoint/restore layer (`soc-store`) builds
//! on, and a convenient way to construct exact tree shapes in tests.

use crate::column::ColumnError;
use crate::range::ValueRange;
use crate::tracker::NullTracker;
use crate::value::ColumnValue;

use super::arena::NodeId;
use super::tree::ReplicaTree;

/// A declarative description of one replica-tree node.
#[derive(Debug, Clone)]
pub struct ReplicaNodeSpec<V> {
    /// The node's closed value range.
    pub range: ValueRange<V>,
    /// `Some(values)` for materialized nodes, `None` for virtual ones.
    pub payload: Option<Vec<V>>,
    /// Tuple-count estimate (only meaningful for virtual nodes).
    pub est_len: u64,
    /// Child specs in value order (they must tile `range` when non-empty).
    pub children: Vec<ReplicaNodeSpec<V>>,
}

impl<V: ColumnValue> ReplicaNodeSpec<V> {
    /// A materialized node without children.
    pub fn materialized(range: ValueRange<V>, values: Vec<V>) -> Self {
        ReplicaNodeSpec {
            range,
            payload: Some(values),
            est_len: 0,
            children: Vec::new(),
        }
    }

    /// A virtual node without children.
    pub fn virtual_node(range: ValueRange<V>, est_len: u64) -> Self {
        ReplicaNodeSpec {
            range,
            payload: None,
            est_len,
            children: Vec::new(),
        }
    }

    /// Adds children (builder style).
    pub fn with_children(mut self, children: Vec<ReplicaNodeSpec<V>>) -> Self {
        self.children = children;
        self
    }
}

impl<V: ColumnValue> ReplicaTree<V> {
    /// Exports the tree's full structure (top nodes in value order).
    pub fn to_spec(&self) -> Vec<ReplicaNodeSpec<V>> {
        fn rec<V: ColumnValue>(tree: &ReplicaTree<V>, id: NodeId) -> ReplicaNodeSpec<V> {
            let node = tree.node(id);
            ReplicaNodeSpec {
                range: node.range,
                payload: node.payload().map(|p| p.decoded().into_owned()),
                est_len: if node.is_virtual() { node.len() } else { 0 },
                children: node.children.iter().map(|&c| rec(tree, c)).collect(),
            }
        }
        self.top().iter().map(|&t| rec(self, t)).collect()
    }

    /// Rebuilds a tree from specs.
    ///
    /// Validation is exactly the live-tree invariant: top nodes must be
    /// materialized and tile `domain`; children must tile their parent;
    /// materialized payloads must lie within their ranges. The logical
    /// column is defined by the top-level payloads.
    pub fn from_spec(
        domain: ValueRange<V>,
        tops: Vec<ReplicaNodeSpec<V>>,
    ) -> Result<Self, ColumnError> {
        // Seed the tree with the first top node, then graft the rest.
        let first = tops.first().ok_or(ColumnError::BadPartition)?;
        if first.range.lo() != domain.lo() {
            return Err(ColumnError::BadPartition);
        }
        #[expect(clippy::expect_used, reason = "tops is checked non-empty above")]
        let last = tops.last().expect("non-empty");
        if last.range.hi() != domain.hi() {
            return Err(ColumnError::BadPartition);
        }

        // Start from an empty-rooted tree over the whole domain, then
        // shape it. We construct via the public mutation API so all the
        // accounting (mat_bytes, counters) stays consistent, and finish
        // with `validate`.
        let mut tree = ReplicaTree::new(domain, Vec::new())?;
        let root = tree.top()[0];

        // Attach every top spec as a child of the placeholder root…
        for spec in &tops {
            attach(&mut tree, root, spec)?;
        }
        // …then drop the placeholder (its children must all be
        // materialized: the top-level invariant).
        {
            let kids = tree.node(root).children.clone();
            if kids.is_empty() || kids.iter().any(|&k| tree.node(k).is_virtual()) {
                return Err(ColumnError::BadPartition);
            }
        }
        tree.drop_node(root, &mut NullTracker);
        tree.reset_logical_totals();
        tree.validate().map_err(|_| ColumnError::BadPartition)?;
        return Ok(tree);

        fn attach<V: ColumnValue>(
            tree: &mut ReplicaTree<V>,
            parent: NodeId,
            spec: &ReplicaNodeSpec<V>,
        ) -> Result<(), ColumnError> {
            let id = tree.add_virtual_child(parent, spec.range, spec.est_len);
            if let Some(values) = &spec.payload {
                if !values.iter().all(|v| spec.range.contains(*v)) {
                    return Err(ColumnError::ValueOutsideDomain);
                }
                tree.materialize(id, values.clone(), &mut NullTracker);
            }
            for child in &spec.children {
                attach(tree, id, child)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AdaptivePageModel;
    use crate::replication::AdaptiveReplication;
    use crate::strategy::ColumnStrategy;
    use crate::tracker::NullTracker;

    fn q(lo: u32, hi: u32) -> ValueRange<u32> {
        ValueRange::must(lo, hi)
    }

    #[test]
    fn spec_roundtrip_preserves_structure_and_data() {
        // Grow a real tree.
        let values: Vec<u32> = (0..10_000).collect();
        let tree = ReplicaTree::new(q(0, 9_999), values).unwrap();
        let mut r = AdaptiveReplication::new(tree, Box::new(AdaptivePageModel::new(512, 2_048)));
        for lo in [1_000u32, 4_000, 7_000, 2_000, 8_500] {
            r.select_count(&q(lo, lo + 999), &mut NullTracker);
        }
        let tree = r.into_tree();
        let spec = tree.to_spec();

        let rebuilt = ReplicaTree::from_spec(tree.domain(), spec).unwrap();
        rebuilt.validate().unwrap();
        assert_eq!(rebuilt.domain(), tree.domain());
        assert_eq!(rebuilt.top().len(), tree.top().len());
        assert_eq!(rebuilt.mat_count(), tree.mat_count());
        assert_eq!(rebuilt.mat_bytes(), tree.mat_bytes());
        assert_eq!(rebuilt.total_len(), tree.total_len());
        assert_eq!(rebuilt.node_count(), tree.node_count());
        assert_eq!(rebuilt.depth(), tree.depth());

        // Queries answer identically.
        let mut a = AdaptiveReplication::new(tree, Box::new(crate::model::NeverSplit));
        let mut b = AdaptiveReplication::new(rebuilt, Box::new(crate::model::NeverSplit));
        for lo in (0..9_000).step_by(700) {
            let query = q(lo, lo + 999);
            assert_eq!(
                a.select_count(&query, &mut NullTracker),
                b.select_count(&query, &mut NullTracker),
                "{query:?}"
            );
        }
    }

    #[test]
    fn from_spec_rejects_virtual_tops_and_holes() {
        // Virtual top.
        let bad = vec![ReplicaNodeSpec::<u32>::virtual_node(q(0, 99), 10)];
        assert!(ReplicaTree::from_spec(q(0, 99), bad).is_err());
        // Hole between tops.
        let bad = vec![
            ReplicaNodeSpec::materialized(q(0, 49), vec![1]),
            ReplicaNodeSpec::materialized(q(51, 99), vec![60]),
        ];
        assert!(ReplicaTree::from_spec(q(0, 99), bad).is_err());
        // Payload outside the range.
        let bad = vec![ReplicaNodeSpec::materialized(q(0, 99), vec![200])];
        assert!(ReplicaTree::from_spec(q(0, 99), bad).is_err());
    }

    #[test]
    fn hand_built_spec_with_virtual_children() {
        let spec = vec![
            ReplicaNodeSpec::materialized(q(0, 99), (0..100).collect()).with_children(vec![
                ReplicaNodeSpec::materialized(q(0, 49), (0..50).collect()),
                ReplicaNodeSpec::virtual_node(q(50, 99), 50),
            ]),
        ];
        let tree = ReplicaTree::from_spec(q(0, 99), spec).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.mat_count(), 2);
        assert_eq!(tree.total_len(), 100);
        assert_eq!(tree.depth(), 2);
    }
}
