//! Segment placement for a distributed column store.
//!
//! Section 8 closes with: "Orthogonal to the above issue is how to exploit
//! the partitioning provided by the segmentation and replication in a
//! distributed column-store system." This module is that exploitation at
//! the planning level: policies assigning value-ranged segments to nodes,
//! plus the two quantities a distributed optimizer cares about —
//! storage balance across nodes and per-query fan-out (how many nodes a
//! range selection must touch).

use soc_core::{ColumnValue, ValueRange};

/// How segments are assigned to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Segment `i` goes to node `i mod n`: neighbouring ranges land on
    /// different nodes, so range queries fan out wide but node loads stay
    /// statistically even.
    RoundRobin,
    /// Contiguous runs of segments per node, split so every node carries
    /// roughly the same bytes: range queries touch few nodes, at the
    /// price of hot-range imbalance under skew.
    RangeContiguous,
    /// Greedy size balancing: each segment goes to the currently lightest
    /// node (classic LPT-style heuristic). Best balance, no range
    /// locality.
    SizeBalanced,
}

impl PlacementPolicy {
    /// All policies, for sweeps.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::RangeContiguous,
        PlacementPolicy::SizeBalanced,
    ];

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::RangeContiguous => "range-contiguous",
            PlacementPolicy::SizeBalanced => "size-balanced",
        }
    }
}

/// Errors computing a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A placement over zero nodes was requested; there is nowhere to put
    /// the segments.
    NoNodes,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoNodes => {
                write!(f, "cannot place segments onto zero nodes")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A computed assignment of segments to nodes.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `node[i]` = node id of segment `i` (segments in value order).
    pub node_of_segment: Vec<usize>,
    /// Total bytes per node.
    pub node_bytes: Vec<u64>,
}

impl Placement {
    /// Assigns `segment_bytes` (in value order) to `nodes` nodes.
    ///
    /// An empty `segment_bytes` list is valid and yields the empty
    /// placement: no segment assignments, every node at zero bytes (a
    /// freshly loaded, not-yet-reorganized column has nothing to ship).
    ///
    /// # Errors
    /// Returns [`PlacementError::NoNodes`] when `nodes == 0`.
    pub fn assign(
        policy: PlacementPolicy,
        segment_bytes: &[u64],
        nodes: usize,
    ) -> Result<Self, PlacementError> {
        if nodes == 0 {
            return Err(PlacementError::NoNodes);
        }
        let mut node_of_segment = Vec::with_capacity(segment_bytes.len());
        let mut node_bytes = vec![0u64; nodes];
        match policy {
            PlacementPolicy::RoundRobin => {
                for (i, &b) in segment_bytes.iter().enumerate() {
                    let n = i % nodes;
                    node_of_segment.push(n);
                    node_bytes[n] += b;
                }
            }
            PlacementPolicy::RangeContiguous => {
                let total: u64 = segment_bytes.iter().sum();
                let per_node = total.div_ceil(nodes as u64).max(1);
                let mut node = 0usize;
                let mut filled = 0u64;
                for &b in segment_bytes {
                    // Move on when the current node is full (but never past
                    // the last node).
                    if filled >= per_node && node + 1 < nodes {
                        node += 1;
                        filled = 0;
                    }
                    node_of_segment.push(node);
                    node_bytes[node] += b;
                    filled += b;
                }
            }
            PlacementPolicy::SizeBalanced => {
                for &b in segment_bytes {
                    let lightest = node_bytes
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| **w)
                        .map(|(i, _)| i)
                        .expect("nodes > 0");
                    node_of_segment.push(lightest);
                    node_bytes[lightest] += b;
                }
            }
        }
        Ok(Placement {
            node_of_segment,
            node_bytes,
        })
    }

    /// Imbalance factor: heaviest node / ideal share (1.0 = perfect).
    pub(crate) fn imbalance(&self) -> f64 {
        let total: u64 = self.node_bytes.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.node_bytes.iter().max().expect("non-empty") as f64;
        let ideal = total as f64 / self.node_bytes.len() as f64;
        max / ideal
    }

    /// Number of distinct nodes the segments `span` (by index range)
    /// touch — the fan-out of a query overlapping those segments.
    pub(crate) fn fanout(&self, span: std::ops::Range<usize>) -> usize {
        let mut nodes: Vec<usize> = span
            .filter_map(|i| self.node_of_segment.get(i).copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }
}

/// Indices of the segments in `segment_ranges` (sorted, pairwise
/// disjoint — the [`soc_core::ColumnStrategy::segment_ranges`] contract)
/// that a range selection `q` overlaps.
///
/// Boundary semantics: closed ranges overlap when they share a single
/// value, so a query with `q.lo() == r.hi()` touches segment `r` (and only
/// once — ranges are disjoint, so the value lives in exactly one segment).
/// A query falling entirely between two segments overlaps neither and the
/// span is empty.
///
/// Nested ranges (the pre-flattening replication report) violate the
/// sortedness assumption `partition_point` needs; segment providers must
/// hand over a flat partition.
pub(crate) fn overlapping_span<V: ColumnValue>(
    segment_ranges: &[ValueRange<V>],
    q: &ValueRange<V>,
) -> std::ops::Range<usize> {
    debug_assert!(
        segment_ranges.windows(2).all(|w| w[0].hi() < w[1].lo()),
        "segment ranges must be sorted and disjoint"
    );
    // First segment not entirely below the query: it overlaps q iff any
    // segment does, because r.hi() >= q.lo() and (within the span)
    // r.lo() <= q.hi().
    let start = segment_ranges.partition_point(|r| r.hi() < q.lo());
    // First segment entirely above the query.
    let end = segment_ranges.partition_point(|r| r.lo() <= q.hi());
    start..end.max(start)
}

/// Mean query fan-out of a placement over a workload, given the segment
/// ranges in value order.
pub(crate) fn mean_fanout<V: ColumnValue>(
    placement: &Placement,
    segment_ranges: &[ValueRange<V>],
    queries: &[ValueRange<V>],
) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let total: usize = queries
        .iter()
        .map(|q| placement.fanout(overlapping_span(segment_ranges, q)))
        .sum();
    total as f64 / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes() -> Vec<u64> {
        vec![100, 50, 200, 25, 125, 75, 150, 175]
    }

    fn assign(policy: PlacementPolicy, sizes: &[u64], nodes: usize) -> Placement {
        Placement::assign(policy, sizes, nodes).expect("nodes > 0")
    }

    #[test]
    fn round_robin_alternates() {
        let p = assign(PlacementPolicy::RoundRobin, &bytes(), 3);
        assert_eq!(p.node_of_segment, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        assert_eq!(p.node_bytes.iter().sum::<u64>(), 900);
    }

    #[test]
    fn range_contiguous_is_monotone() {
        let p = assign(PlacementPolicy::RangeContiguous, &bytes(), 3);
        assert!(p.node_of_segment.windows(2).all(|w| w[0] <= w[1]));
        assert!(*p.node_of_segment.last().unwrap() < 3);
    }

    #[test]
    fn size_balanced_has_best_imbalance() {
        let skewed: Vec<u64> = vec![1000, 10, 10, 10, 900, 10, 10, 800, 10, 10];
        let rr = assign(PlacementPolicy::RoundRobin, &skewed, 3).imbalance();
        let sb = assign(PlacementPolicy::SizeBalanced, &skewed, 3).imbalance();
        assert!(sb <= rr, "greedy {sb} must not lose to round-robin {rr}");
        assert!(sb < 1.2, "greedy should nearly balance, got {sb}");
    }

    #[test]
    fn contiguous_minimizes_fanout_for_narrow_queries() {
        let sizes = vec![100u64; 12];
        let contiguous = assign(PlacementPolicy::RangeContiguous, &sizes, 4);
        let rr = assign(PlacementPolicy::RoundRobin, &sizes, 4);
        // A query over segments 0..3 (one node's worth).
        assert_eq!(contiguous.fanout(0..3), 1);
        assert_eq!(rr.fanout(0..3), 3);
    }

    #[test]
    fn imbalance_of_empty_and_uniform() {
        let p = assign(PlacementPolicy::RoundRobin, &[], 4);
        assert_eq!(p.imbalance(), 1.0);
        let p = assign(PlacementPolicy::RoundRobin, &[10, 10, 10, 10], 4);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_fanout_over_workload() {
        use soc_core::ValueRange;
        let ranges: Vec<ValueRange<u32>> = (0..10)
            .map(|i| ValueRange::must(i * 100, i * 100 + 99))
            .collect();
        let sizes = vec![100u64; 10];
        let p = assign(PlacementPolicy::RangeContiguous, &sizes, 5);
        // Queries each covering exactly two adjacent segments = one node.
        let queries: Vec<ValueRange<u32>> = (0..5)
            .map(|i| ValueRange::must(i * 200, i * 200 + 199))
            .collect();
        let f = mean_fanout(&p, &ranges, &queries);
        assert!((f - 1.0).abs() < 1e-12, "fan-out {f}");
        // The same queries against round-robin touch 2 nodes each.
        let rr = assign(PlacementPolicy::RoundRobin, &sizes, 5);
        let f = mean_fanout(&rr, &ranges, &queries);
        assert!(f > 1.9, "fan-out {f}");
    }

    #[test]
    fn zero_nodes_is_a_typed_error_not_a_panic() {
        for policy in PlacementPolicy::ALL {
            let err = Placement::assign(policy, &[1, 2, 3], 0).unwrap_err();
            assert_eq!(err, PlacementError::NoNodes);
            assert!(err.to_string().contains("zero nodes"));
        }
    }

    #[test]
    fn empty_segment_list_is_the_empty_placement() {
        for policy in PlacementPolicy::ALL {
            let p = Placement::assign(policy, &[], 3).expect("empty list is valid");
            assert!(p.node_of_segment.is_empty());
            assert_eq!(p.node_bytes, vec![0, 0, 0]);
            assert_eq!(p.imbalance(), 1.0);
            assert_eq!(p.fanout(0..0), 0);
        }
    }

    #[test]
    fn span_counts_a_boundary_touching_query_exactly_once() {
        use soc_core::ValueRange;
        // Segments [0,99] [100,199] [200,299].
        let ranges: Vec<ValueRange<u32>> = (0..3)
            .map(|i| ValueRange::must(i * 100, i * 100 + 99))
            .collect();
        // q.lo() == ranges[0].hi(): the shared value 99 lives in exactly
        // one segment, so the span holds segment 0 once — plus segment 1,
        // which the rest of the query overlaps.
        assert_eq!(overlapping_span(&ranges, &ValueRange::must(99, 150)), 0..2);
        // A point query exactly on a segment's upper bound: one segment,
        // not zero, not two.
        assert_eq!(overlapping_span(&ranges, &ValueRange::must(99, 99)), 0..1);
        // A point query exactly on a segment's lower bound.
        assert_eq!(overlapping_span(&ranges, &ValueRange::must(200, 200)), 2..3);
        // Interior query: just its segment.
        assert_eq!(overlapping_span(&ranges, &ValueRange::must(120, 130)), 1..2);
        // Query beyond all segments: empty span.
        assert_eq!(overlapping_span(&ranges, &ValueRange::must(300, 400)), 3..3);
    }

    #[test]
    fn span_is_empty_between_gapped_segments() {
        use soc_core::ValueRange;
        // Cracked columns can report gapped partitions: [0,99] [200,299].
        let ranges = vec![ValueRange::must(0u32, 99), ValueRange::must(200, 299)];
        let span = overlapping_span(&ranges, &ValueRange::must(120, 180));
        assert!(span.is_empty(), "gap query must touch no segment: {span:?}");
        // Touching the gap edge from inside the gap still hits nothing…
        assert!(overlapping_span(&ranges, &ValueRange::must(100, 199)).is_empty());
        // …but sharing the boundary value does (once).
        assert_eq!(overlapping_span(&ranges, &ValueRange::must(99, 199)), 0..1);
    }
}
