//! The sharded column: placement, executed.
//!
//! Section 8 leaves "how to exploit the partitioning provided by the
//! segmentation and replication in a distributed column-store system" as
//! future work, and [`crate::placement`] only *scores* candidate
//! assignments. A [`ShardedColumn`] executes them: it splits a column
//! across `n` simulated nodes under a [`PlacementPolicy`], gives every node
//! its own self-organizing [`ColumnStrategy`], routes each range selection
//! only to the nodes whose pieces overlap it, and merges the per-node
//! results in ascending node order. Nodes partition the *values*, so counts
//! are never duplicated, and fan-out and per-node read balance are measured
//! (each routed node counts into a private [`EventLog`]), not estimated.
//!
//! The column is itself a [`ColumnStrategy`] — a combinator over its nodes
//! whose every call runs inline on the caller's thread. Behind
//! [`soc_core::ConcurrentColumn`] it gets the epoch layer's writer,
//! snapshots and admission, and pending deltas fold into the nodes owning
//! their values. A remote node would be one more `ColumnStrategy` behind
//! the same router. [`ShardedColumn::replace`] re-plans from the nodes'
//! live `segment_ranges()` and charges the moved bytes as reorganization.

use soc_core::kernels::sorted_run;
use soc_core::{
    AccessTracker, AdaptationStats, ColumnError, ColumnStrategy, ColumnValue, EventLog, SegIdGen,
    StrategySpec, ValueRange,
};

use crate::placement::{overlapping_span, Placement, PlacementError, PlacementPolicy};

/// Errors building or re-placing a [`ShardedColumn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The placement layer rejected the request (zero nodes).
    Placement(PlacementError),
    /// A per-node column rejected its values.
    Column(ColumnError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Placement(e) => write!(f, "placement: {e}"),
            ShardError::Column(e) => write!(f, "node column: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<PlacementError> for ShardError {
    fn from(e: PlacementError) -> Self {
        ShardError::Placement(e)
    }
}

impl From<ColumnError> for ShardError {
    fn from(e: ColumnError) -> Self {
        ShardError::Column(e)
    }
}

/// What one [`ShardedColumn::replace`] epoch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Segments (placement-grain pieces) in the new plan.
    pub pieces: usize,
    /// Pieces whose owning node changed.
    pub moved_pieces: usize,
    /// Bytes shipped between nodes (the reorganization cost of the epoch).
    pub moved_bytes: u64,
}

/// One simulated node: its strategy, the value ranges it holds, and its
/// read counters since the last (re-)placement epoch.
struct Node<V> {
    strategy: Box<dyn ColumnStrategy<V>>,
    /// Sorted, pairwise disjoint ranges whose values this node holds.
    assigned: Vec<ValueRange<V>>,
    read_bytes: u64,
    queries_touched: u64,
}

/// A column partitioned across `n` simulated nodes, each running its own
/// self-organizing [`ColumnStrategy`], with placement-aware query routing.
///
/// ```
/// use soc_core::{ColumnStrategy, CountingTracker, StrategyKind, StrategySpec, ValueRange};
/// use soc_sim::{PlacementPolicy, ShardedColumn};
///
/// let domain = ValueRange::must(0u32, 99_999);
/// let values: Vec<u32> = (0..20_000u32).map(|i| (i * 13) % 100_000).collect();
/// let mut sharded = ShardedColumn::new(
///     StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(1024, 4096),
///     PlacementPolicy::RangeContiguous,
///     4,
///     domain,
///     values.clone(),
/// )
/// .unwrap();
/// let q = ValueRange::must(10_000, 19_999);
/// let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
/// let mut tracker = CountingTracker::new();
/// assert_eq!(sharded.select_count(&q, &mut tracker), expect);
/// // A narrow query on a contiguous placement touches few nodes.
/// assert!(sharded.mean_measured_fanout() <= 2.0);
/// ```
pub struct ShardedColumn<V> {
    spec: StrategySpec,
    policy: PlacementPolicy,
    domain: ValueRange<V>,
    nodes: Vec<Node<V>>,
    /// The placement-grain partition `(range, bytes)` of the current plan:
    /// sorted, disjoint and tiling the domain, so every value has exactly
    /// one owning node. What [`ColumnStrategy::segment_ranges`] reports.
    partition: Vec<(ValueRange<V>, u64)>,
    /// Adaptation performed by node strategies retired in past epochs.
    retired: AdaptationStats,
    ids: SegIdGen,
    epochs: u64,
    moved_bytes: u64,
    queries: u64,
    fanout_sum: u64,
}

impl<V: ColumnValue + std::fmt::Debug> std::fmt::Debug for ShardedColumn<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedColumn")
            .field("policy", &self.policy)
            .field("domain", &self.domain)
            .field("nodes", &self.nodes.len())
            .field("pieces", &self.partition.len())
            .field("epochs", &self.epochs)
            .field("moved_bytes", &self.moved_bytes)
            .finish_non_exhaustive()
    }
}

/// Seed partition granularity: segments per node carved from the domain
/// before any workload has shaped the column. Fine enough that round-robin
/// and size-balancing have something to interleave, coarse enough to stay
/// out of the strategies' way.
const SEED_SEGMENTS_PER_NODE: usize = 4;

/// Recursively bisects `r` into up to `2^depth` adjacent pieces, stopping
/// early where the value domain cannot split further.
fn bisect<V: ColumnValue>(r: ValueRange<V>, depth: u32, out: &mut Vec<ValueRange<V>>) {
    if depth == 0 {
        out.push(r);
        return;
    }
    let mid = r.midpoint();
    let left = ValueRange::new(r.lo(), mid);
    let right = mid.succ().and_then(|s| ValueRange::new(s, r.hi()));
    match (left, right) {
        (Some(l), Some(h)) => {
            bisect(l, depth - 1, out);
            bisect(h, depth - 1, out);
        }
        _ => out.push(r),
    }
}

/// Merges adjacent ranges so each node's assignment list stays minimal.
fn coalesce<V: ColumnValue>(mut ranges: Vec<ValueRange<V>>) -> Vec<ValueRange<V>> {
    ranges.sort_by_key(|r| r.lo());
    let mut out: Vec<ValueRange<V>> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if last.adjacent_before(&r) => {
                *last = ValueRange::new(last.lo(), r.hi()).expect("merged range is non-empty");
            }
            _ => out.push(r),
        }
    }
    out
}

/// Widens sorted, disjoint `ranges` until they tile `domain`: the first
/// reaches down to its bottom, each one up to where the next begins, the
/// last up to its top. A gap holds no value (cracking reports no range
/// beyond its data), so no range gains a row — but every value a later
/// fold inserts has an owner.
fn tile<V: ColumnValue>(domain: ValueRange<V>, ranges: &mut [ValueRange<V>]) {
    for i in 0..ranges.len() {
        let lo = if i == 0 { domain.lo() } else { ranges[i].lo() };
        let hi = ranges.get(i + 1).map_or(domain.hi(), |next| {
            next.lo()
                .pred()
                .expect("the next range starts above this one")
        });
        ranges[i] = ValueRange::new(lo, hi).expect("a widened range is non-empty");
    }
}

/// The part of the ascending slice `sorted` that falls inside `range`.
fn run_in<'a, V: ColumnValue>(sorted: &'a [V], range: &ValueRange<V>) -> &'a [V] {
    let (start, end) = sorted_run(sorted, range);
    &sorted[start..end]
}

impl<V: ColumnValue> ShardedColumn<V> {
    /// Splits `values` (claimed to lie in `domain`) across `nodes` nodes
    /// according to `policy`, building one `spec` strategy per node.
    ///
    /// The initial plan places equal-width seed ranges (the column has not
    /// self-organized yet); [`Self::replace`] re-plans from the live,
    /// workload-shaped partitioning.
    ///
    /// # Errors
    /// [`ShardError::Placement`] when `nodes == 0`; [`ShardError::Column`]
    /// when a value lies outside `domain`.
    pub fn new(
        spec: StrategySpec,
        policy: PlacementPolicy,
        nodes: usize,
        domain: ValueRange<V>,
        values: Vec<V>,
    ) -> Result<Self, ShardError> {
        if nodes == 0 {
            return Err(PlacementError::NoNodes.into());
        }
        if !values.iter().all(|v| domain.contains(*v)) {
            return Err(ColumnError::ValueOutsideDomain.into());
        }
        let target = nodes.saturating_mul(SEED_SEGMENTS_PER_NODE).max(1);
        let mut depth = 0u32;
        while (1usize << depth) < target && depth < 12 {
            depth += 1;
        }
        let mut seed_ranges = Vec::with_capacity(1 << depth);
        bisect(domain, depth, &mut seed_ranges);

        // Bucket the values per seed range (ranges tile the domain, so
        // every value lands in exactly one bucket).
        let mut buckets: Vec<Vec<V>> = seed_ranges.iter().map(|_| Vec::new()).collect();
        for v in values {
            let i = seed_ranges.partition_point(|r| r.hi() < v);
            debug_assert!(seed_ranges[i].contains(v), "seed ranges tile the domain");
            buckets[i].push(v);
        }
        let sizes: Vec<u64> = buckets.iter().map(|b| b.len() as u64 * V::BYTES).collect();
        let plan = Placement::assign(policy, &sizes, nodes)?;

        let mut shard = ShardedColumn {
            spec,
            policy,
            domain,
            nodes: Vec::new(),
            partition: Vec::new(),
            retired: AdaptationStats::default(),
            ids: SegIdGen::new(),
            epochs: 0,
            moved_bytes: 0,
            queries: 0,
            fanout_sum: 0,
        };
        shard.install(nodes, &plan.node_of_segment, seed_ranges, buckets)?;
        Ok(shard)
    }

    /// Builds one strategy per node from a plan over pieces and installs
    /// them with the plan as the new partition. Every strategy is built
    /// before any is installed, so a build failure leaves the shard
    /// unchanged.
    fn install(
        &mut self,
        nodes: usize,
        node_of_piece: &[usize],
        piece_ranges: Vec<ValueRange<V>>,
        piece_values: Vec<Vec<V>>,
    ) -> Result<(), ShardError> {
        let mut per_node: Vec<(Vec<ValueRange<V>>, Vec<V>)> =
            (0..nodes).map(|_| Default::default()).collect();
        let mut partition = Vec::with_capacity(piece_ranges.len());
        for ((range, values), &n) in piece_ranges
            .into_iter()
            .zip(piece_values)
            .zip(node_of_piece)
        {
            partition.push((range, values.len() as u64 * V::BYTES));
            per_node[n].0.push(range);
            per_node[n].1.extend(values);
        }
        // Every node keeps the full domain: assignment, not the strategy's
        // domain, is what scopes a node's data.
        self.nodes = per_node
            .into_iter()
            .map(|(ranges, values)| {
                let strategy = self.spec.build(self.domain, values)?;
                Ok(Node {
                    strategy,
                    assigned: coalesce(ranges),
                    read_bytes: 0,
                    queries_touched: 0,
                })
            })
            .collect::<Result<_, ColumnError>>()?;
        self.partition = partition;
        Ok(())
    }

    /// Node indices whose assigned ranges overlap `q` — the routing
    /// decision a distributed coordinator would take from the placement
    /// catalog.
    fn route(&self, q: &ValueRange<V>) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !overlapping_span(&self.nodes[i].assigned, q).is_empty())
            .collect()
    }

    fn run_select(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        let routed = self.route(q);
        self.queries += 1;
        self.fanout_sum += routed.len() as u64;
        let mut matched = 0u64;
        for i in routed {
            let node = &mut self.nodes[i];
            // The node's own log attributes its scanned bytes to it — the
            // "measured, not estimated" per-node balance the ablation
            // tables report — before they reach the caller's tracker.
            let mut log = EventLog::new();
            matched += node.strategy.select_count(q, &mut log);
            log.replay_into(tracker);
            node.read_bytes += log.scan_bytes();
            node.queries_touched += 1;
        }
        matched
    }

    /// Re-placement epoch: collects the live (self-organized) partitioning
    /// from every node, computes a fresh plan with the same policy, and
    /// migrates segments to their new homes.
    ///
    /// Moved bytes are charged to `tracker` as one scan (read at the old
    /// node) plus one materialization (write at the new node) per moved
    /// piece — the reorganization cost of acting on the new plan. Pieces
    /// that stay put cost nothing.
    ///
    /// # Errors
    /// [`ShardError`] on placement failure; the shard is left unchanged in
    /// that case.
    pub fn replace(
        &mut self,
        tracker: &mut dyn AccessTracker,
    ) -> Result<MigrationReport, ShardError> {
        // Snapshot the adaptation history of the nodes about to be retired.
        let mut retired = self.retired;
        for node in &self.nodes {
            retired.absorb(&node.strategy.adaptation());
        }

        // 1. The live partitioning, restricted to each node's ownership:
        //    per-node strategies keep the full domain, so their ranges must
        //    be clipped to the ranges whose values the node actually holds.
        let mut pieces: Vec<(ValueRange<V>, usize)> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let live = Some(node.strategy.segment_ranges()).filter(|l| !l.is_empty());
            for r in live.unwrap_or_else(|| node.assigned.clone()) {
                for a in &node.assigned {
                    if let Some(piece) = r.intersect(a) {
                        pieces.push((piece, i));
                    }
                }
            }
        }
        pieces.sort_by_key(|(r, _)| r.lo());

        // 2. Extract each piece's values from its current owner with a
        //    read-only peek: it neither reorganizes the node nor is charged,
        //    as data that stays on its node does not cross the (simulated)
        //    network.
        let piece_values: Vec<Vec<V>> = pieces
            .iter()
            .map(|(range, owner)| self.nodes[*owner].strategy.peek_collect(range))
            .collect();
        let sizes: Vec<u64> = piece_values
            .iter()
            .map(|v| v.len() as u64 * V::BYTES)
            .collect();

        // 3. The new plan.
        let plan = Placement::assign(self.policy, &sizes, self.nodes.len())?;

        // 4. Migration accounting: only pieces changing nodes move.
        let mut report = MigrationReport {
            pieces: pieces.len(),
            ..MigrationReport::default()
        };
        for (((_, old_node), &new_node), &bytes) in
            pieces.iter().zip(&plan.node_of_segment).zip(&sizes)
        {
            if *old_node != new_node && bytes > 0 {
                report.moved_pieces += 1;
                report.moved_bytes += bytes;
                let seg = self.ids.fresh();
                tracker.scan(seg, bytes);
                tracker.materialize(seg, bytes);
            }
        }

        // 5. Retire the old strategies (their pre-extraction adaptation
        //    history was snapshotted above) and rebuild each node from its
        //    newly assigned values.
        let mut piece_ranges: Vec<ValueRange<V>> = pieces.iter().map(|(r, _)| *r).collect();
        tile(self.domain, &mut piece_ranges);
        let nodes = self.nodes.len();
        self.install(nodes, &plan.node_of_segment, piece_ranges, piece_values)?;
        self.retired = retired;
        self.moved_bytes += report.moved_bytes;
        self.epochs += 1;
        Ok(report)
    }

    /// Read bytes per node since the last (re-)placement epoch — measured
    /// balance, not an estimate.
    #[cfg(test)]
    pub(crate) fn node_read_bytes(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.read_bytes).collect()
    }

    /// Live storage bytes per node.
    #[cfg(test)]
    pub(crate) fn node_storage_bytes(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.strategy.storage_bytes())
            .collect()
    }

    /// Queries each node served since the last (re-)placement epoch.
    #[cfg(test)]
    pub(crate) fn node_queries_touched(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.queries_touched).collect()
    }

    /// Mean number of nodes touched per executed query (measured fan-out).
    pub fn mean_measured_fanout(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.fanout_sum as f64 / self.queries as f64
    }

    /// Heaviest node's read bytes over the ideal (even) share — 1.0 is a
    /// perfectly balanced read load.
    pub(crate) fn read_imbalance(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.read_bytes).sum();
        if total == 0 {
            return 1.0;
        }
        let max = self.nodes.iter().map(|n| n.read_bytes).max().unwrap_or(0) as f64;
        max / (total as f64 / self.nodes.len() as f64)
    }

    /// Bytes shipped between nodes across all re-placement epochs.
    #[cfg(test)]
    pub(crate) fn moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    /// Completed re-placement epochs.
    #[cfg(test)]
    pub(crate) fn epochs(&self) -> u64 {
        self.epochs
    }
}

// contract: ColumnStrategy thread-safety: the shard owns its node strategies outright; selects, folds and re-placement mutate them only inside &mut self calls, and &self accessors read the nodes and the partition.
impl<V: ColumnValue> ColumnStrategy<V> for ShardedColumn<V> {
    fn name(&self) -> String {
        let inner = self
            .nodes
            .first()
            .map(|n| n.strategy.name())
            .unwrap_or_else(|| "?".to_owned());
        format!(
            "Sharded {inner} ({} nodes, {})",
            self.nodes.len(),
            self.policy.name()
        )
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        self.run_select(q, tracker)
    }

    fn peek_collect(&self, q: &ValueRange<V>) -> Vec<V> {
        // Values partition across nodes, so concatenating the routed
        // nodes' answers is exact. Peeks are not queries: no accounting.
        let mut out = Vec::new();
        for i in self.route(q) {
            out.extend(self.nodes[i].strategy.peek_collect(q));
        }
        out
    }

    /// Routes each insert and tombstone to the node whose pieces hold its
    /// value and folds them there, one [`ColumnStrategy::fold_delta`] per
    /// touched node in node order; the touched pieces then re-count their
    /// bytes, so `segment_bytes` keeps summing to the column's rows.
    /// `None`, with no node touched, when an insert lies outside the
    /// domain; a tombstone outside it matches nothing and counts as
    /// unmatched.
    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        if run_in(inserts, &self.domain).len() != inserts.len() {
            return None;
        }
        let mut unmatched = (tombstones.len() - run_in(tombstones, &self.domain).len()) as u64;
        // A node's share of a side, gathered in assignment (= value) order,
        // is ascending; the assignments tile the domain, so every row has
        // exactly one owner.
        let share = |side: &[V], node: &Node<V>| -> Vec<V> {
            node.assigned
                .iter()
                .flat_map(|a| run_in(side, a))
                .copied()
                .collect()
        };
        for node in &mut self.nodes {
            let (ins, tombs) = (share(inserts, node), share(tombstones, node));
            if !ins.is_empty() || !tombs.is_empty() {
                // Every node strategy spans the whole domain, so none
                // declines an in-domain row.
                unmatched += node.strategy.fold_delta(&ins, &tombs, tracker)?;
            }
        }
        for i in 0..self.partition.len() {
            let range = self.partition[i].0;
            if !run_in(inserts, &range).is_empty() || !run_in(tombstones, &range).is_empty() {
                self.partition[i].1 = self.peek_collect(&range).len() as u64 * V::BYTES;
            }
        }
        Some(unmatched)
    }

    fn storage_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.strategy.storage_bytes()).sum()
    }

    fn segment_count(&self) -> usize {
        self.nodes.iter().map(|n| n.strategy.segment_count()).sum()
    }

    fn segment_bytes(&self) -> Vec<u64> {
        self.partition.iter().map(|(_, b)| *b).collect()
    }

    fn segment_ranges(&self) -> Vec<ValueRange<V>> {
        // The placement-grain partition, paired with `segment_bytes`. The
        // nodes may have split further since; `replace` re-reads them.
        self.partition.iter().map(|(r, _)| *r).collect()
    }

    fn adaptation(&self) -> AdaptationStats {
        let mut total = self.retired;
        for node in &self.nodes {
            total.absorb(&node.strategy.adaptation());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_core::{CountingTracker, NullTracker, StrategyKind};
    use soc_workload::{uniform_values, WorkloadSpec};

    const DOMAIN_HI: u32 = 99_999;

    fn domain() -> ValueRange<u32> {
        ValueRange::must(0, DOMAIN_HI)
    }

    fn spec(kind: StrategyKind) -> StrategySpec {
        StrategySpec::new(kind)
            .with_apm_bounds(512, 2_048)
            .with_model_seed(17)
    }

    fn workload(n: usize, seed: u64) -> Vec<ValueRange<u32>> {
        WorkloadSpec::uniform(0.05, n, seed).generate(&domain())
    }

    #[test]
    fn sharded_counts_match_single_node_for_every_kind_and_policy() {
        let values = uniform_values(12_000, &domain(), 3);
        let queries = workload(60, 4);
        for kind in StrategyKind::ALL {
            // The reference: one unsharded strategy.
            let mut single = spec(kind)
                .build(domain(), values.clone())
                .expect("values in domain");
            let expect: Vec<u64> = queries
                .iter()
                .map(|q| single.select_count(q, &mut NullTracker))
                .collect();
            for policy in PlacementPolicy::ALL {
                for nodes in [1usize, 3, 8] {
                    let mut sharded =
                        ShardedColumn::new(spec(kind), policy, nodes, domain(), values.clone())
                            .expect("shard construction");
                    for (q, &e) in queries.iter().zip(&expect) {
                        let got = sharded.select_count(q, &mut NullTracker);
                        assert_eq!(got, e, "{kind:?}/{policy:?}/{nodes} nodes, query {q:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn collect_returns_the_same_multiset_as_the_unsharded_column() {
        let values = uniform_values(5_000, &domain(), 5);
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::GdRepl),
            PlacementPolicy::RoundRobin,
            4,
            domain(),
            values.clone(),
        )
        .expect("shard construction");
        let q = ValueRange::must(20_000, 59_999);
        sharded.select_count(&q, &mut NullTracker);
        let mut got = sharded.peek_collect(&q);
        got.sort_unstable();
        let mut expect: Vec<u32> = values.into_iter().filter(|v| q.contains(*v)).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        let err = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::RoundRobin,
            0,
            domain(),
            vec![1u32, 2, 3],
        )
        .unwrap_err();
        assert_eq!(err, ShardError::Placement(PlacementError::NoNodes));
    }

    #[test]
    fn out_of_domain_values_are_a_typed_error() {
        let err = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::RoundRobin,
            2,
            ValueRange::must(0u32, 10),
            vec![11u32],
        )
        .unwrap_err();
        assert_eq!(err, ShardError::Column(ColumnError::ValueOutsideDomain));
    }

    #[test]
    fn contiguous_placement_routes_narrower_than_round_robin() {
        let values = uniform_values(20_000, &domain(), 7);
        let queries = workload(200, 8);
        let mut fanouts = Vec::new();
        for policy in [
            PlacementPolicy::RangeContiguous,
            PlacementPolicy::RoundRobin,
        ] {
            let mut sharded = ShardedColumn::new(
                spec(StrategyKind::ApmSegm),
                policy,
                8,
                domain(),
                values.clone(),
            )
            .expect("shard construction");
            for q in &queries {
                sharded.select_count(q, &mut NullTracker);
            }
            fanouts.push(sharded.mean_measured_fanout());
        }
        assert!(
            fanouts[0] < fanouts[1],
            "contiguous {} must touch fewer nodes than round-robin {}",
            fanouts[0],
            fanouts[1]
        );
    }

    #[test]
    fn routing_skips_nodes_and_saves_reads() {
        let values = uniform_values(20_000, &domain(), 9);
        // Contiguous placement over 4 nodes: a query in the first quarter
        // must not touch the last node at all.
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::NoSegm),
            PlacementPolicy::RangeContiguous,
            4,
            domain(),
            values.clone(),
        )
        .expect("shard construction");
        sharded.select_count(&ValueRange::must(0, 9_999), &mut NullTracker);
        let touched = sharded.node_queries_touched();
        assert!(
            touched.iter().sum::<u64>() < 4,
            "narrow query must not fan out to all nodes: {touched:?}"
        );
        // An unsharded NoSegm column reads everything; the shard reads
        // only the routed nodes' columns.
        let shard_reads: u64 = sharded.node_read_bytes().iter().sum();
        assert!(
            shard_reads < values.len() as u64 * 4,
            "routing must save reads: {shard_reads}"
        );
    }

    #[test]
    fn replace_after_convergence_improves_contiguous_fanout() {
        // Round-robin over seed ranges fans out maximally; after the
        // column self-organizes, re-planning with range-contiguous should
        // drop the measured fan-out.
        let values = uniform_values(20_000, &domain(), 11);
        let queries = workload(300, 12);
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::RangeContiguous,
            6,
            domain(),
            values.clone(),
        )
        .expect("shard construction");
        for q in &queries {
            sharded.select_count(q, &mut NullTracker);
        }
        let mut tracker = CountingTracker::new();
        let report = sharded.replace(&mut tracker).expect("replace");
        assert!(report.pieces > 0);
        // Migration cost is visible to the tracker byte-for-byte.
        assert_eq!(tracker.totals().write_bytes, report.moved_bytes);
        assert_eq!(sharded.moved_bytes(), report.moved_bytes);
        assert_eq!(sharded.epochs(), 1);
        // Results stay correct after migration.
        for q in &queries {
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(
                sharded.select_count(q, &mut NullTracker),
                expect,
                "post-replace query {q:?}"
            );
        }
    }

    #[test]
    fn replace_preserves_adaptation_history() {
        let values = uniform_values(10_000, &domain(), 13);
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::SizeBalanced,
            3,
            domain(),
            values,
        )
        .expect("shard construction");
        for q in workload(150, 14) {
            sharded.select_count(&q, &mut NullTracker);
        }
        let before = sharded.adaptation();
        assert!(before.splits > 0, "workload must have caused splits");
        sharded.replace(&mut NullTracker).expect("replace");
        let after = sharded.adaptation();
        assert!(
            after.splits >= before.splits,
            "retired split history must survive re-placement"
        );
    }

    #[test]
    fn replace_does_not_invent_adaptation() {
        // The extraction pass inside replace() issues adaptive queries of
        // its own (cracking cracks at piece boundaries, replication
        // materializes); none of that self-inflicted activity may leak
        // into the reported adaptation history.
        for kind in [
            StrategyKind::Cracking,
            StrategyKind::ApmRepl,
            StrategyKind::GdSegm,
        ] {
            let values = uniform_values(8_000, &domain(), 23);
            let mut sharded = ShardedColumn::new(
                spec(kind),
                PlacementPolicy::RangeContiguous,
                4,
                domain(),
                values,
            )
            .expect("shard construction");
            for q in workload(100, 24) {
                sharded.select_count(&q, &mut NullTracker);
            }
            let before = sharded.adaptation();
            sharded.replace(&mut NullTracker).expect("replace");
            assert_eq!(
                sharded.adaptation(),
                before,
                "{kind:?}: replace with no intervening queries must not \
                 change the adaptation counters"
            );
        }
    }

    #[test]
    fn partition_tiles_and_pairs_with_bytes() {
        // Cracking reports no range beyond each node's data; the
        // re-placed partition must still tile the whole domain.
        for kind in [StrategyKind::GdSegm, StrategyKind::Cracking] {
            let values = uniform_values(8_000, &domain(), 15);
            let mut sharded =
                ShardedColumn::new(spec(kind), PlacementPolicy::RoundRobin, 5, domain(), values)
                    .expect("shard construction");
            for q in workload(100, 16) {
                sharded.select_count(&q, &mut NullTracker);
            }
            sharded.replace(&mut NullTracker).expect("replace");
            let ranges = sharded.segment_ranges();
            let bytes = sharded.segment_bytes();
            assert_eq!(ranges.len(), bytes.len());
            assert_eq!(bytes.iter().sum::<u64>(), 8_000 * 4);
            assert_eq!(ranges.first().map(|r| r.lo()), Some(0), "{kind:?}");
            assert_eq!(ranges.last().map(|r| r.hi()), Some(DOMAIN_HI), "{kind:?}");
            assert!(
                ranges.windows(2).all(|w| w[0].adjacent_before(&w[1])),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn storage_and_reads_are_attributed_per_node() {
        let values = uniform_values(10_000, &domain(), 17);
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::NoSegm),
            PlacementPolicy::SizeBalanced,
            4,
            domain(),
            values,
        )
        .expect("shard construction");
        assert_eq!(sharded.storage_bytes(), 40_000);
        assert_eq!(sharded.node_storage_bytes().iter().sum::<u64>(), 40_000);
        for q in workload(80, 18) {
            sharded.select_count(&q, &mut NullTracker);
        }
        let reads = sharded.node_read_bytes();
        assert!(reads.iter().all(|&r| r > 0), "all nodes served reads");
        assert!(sharded.read_imbalance() >= 1.0);
        assert!(sharded.mean_measured_fanout() >= 1.0);
    }

    #[test]
    fn sharded_column_behind_the_epoch_layer_folds_deltas_into_its_nodes() {
        use soc_core::{ConcurrentColumn, DeltaBatch, DeltaOp};

        let values = uniform_values(6_000, &domain(), 23);
        let sharded = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::RangeContiguous,
            3,
            domain(),
            values.clone(),
        )
        .expect("shard construction");
        let column = ConcurrentColumn::new(Box::new(sharded), domain());
        let mut expected = values.clone();
        let mut batch = DeltaBatch::new();
        // Past the start watermark: the writer asks the strategy to fold.
        for i in 0..5_000u64 {
            let value = ((i * 7_919) % (DOMAIN_HI as u64 + 1)) as u32;
            batch.push(DeltaOp::Insert {
                oid: 1_000_000 + i,
                value,
            });
            expected.push(value);
        }
        batch.push(DeltaOp::Delete {
            oid: 0,
            value: values[0],
        });
        expected.swap_remove(0);
        column.apply_deltas(batch);
        column.drain_deltas();
        // Every row folded into the node owning its value: nothing is left
        // pending, the one tombstone found its row, and every read is exact.
        let snap = column.snapshot();
        assert_eq!(snap.pending_delta_rows(), 0);
        assert_eq!(snap.total_rows(), expected.len() as u64);
        assert_eq!(snap.unmatched_tombstones(), 0);
        for q in workload(40, 24) {
            let expect = expected.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(column.select_count(&q, &mut NullTracker), expect, "{q:?}");
        }
        // Σ node storage = Σ placement-grain bytes = rows × 4.
        let rows_bytes = expected.len() as u64 * 4;
        let sharded = column.into_strategy();
        assert_eq!(sharded.storage_bytes(), rows_bytes);
        assert_eq!(sharded.segment_bytes().iter().sum::<u64>(), rows_bytes);
    }

    #[test]
    fn an_out_of_domain_insert_folds_nothing() {
        let values = uniform_values(3_000, &domain(), 25);
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::RoundRobin,
            3,
            ValueRange::must(0, 49_999),
            values.iter().map(|v| v / 2).collect(),
        )
        .expect("shard construction");
        let before = (sharded.node_storage_bytes(), sharded.segment_bytes());
        let mut tracker = CountingTracker::new();
        // 10 is in the domain, 60 000 is not: the whole batch is refused.
        assert_eq!(sharded.fold_delta(&[10, 60_000], &[], &mut tracker), None);
        assert_eq!(
            (sharded.node_storage_bytes(), sharded.segment_bytes()),
            before
        );
        assert_eq!(tracker.totals(), Default::default(), "no node was touched");
        // A tombstone outside the domain matches nothing; an insert and a
        // tombstone inside it land on their owners.
        assert_eq!(sharded.fold_delta(&[10], &[60_000], &mut tracker), Some(1));
        assert_eq!(sharded.storage_bytes(), (values.len() as u64 + 1) * 4);
    }

    #[test]
    fn single_node_shard_degenerates_to_the_plain_strategy() {
        let values = uniform_values(6_000, &domain(), 19);
        let mut single = spec(StrategyKind::ApmSegm)
            .build(domain(), values.clone())
            .expect("values in domain");
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::RangeContiguous,
            1,
            domain(),
            values,
        )
        .expect("shard construction");
        let mut t_single = CountingTracker::new();
        let mut t_shard = CountingTracker::new();
        for q in workload(100, 20) {
            assert_eq!(
                sharded.select_count(&q, &mut t_shard),
                single.select_count(&q, &mut t_single)
            );
        }
        // One node serves everything; fan-out is exactly 1 per query that
        // overlaps data.
        assert!(sharded.mean_measured_fanout() <= 1.0);
        assert_eq!(sharded.read_imbalance(), 1.0);
    }
}
