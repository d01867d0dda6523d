//! The sharded range-selection executor: placement, executed.
//!
//! Section 8 leaves "how to exploit the partitioning provided by the
//! segmentation and replication in a distributed column-store system" as
//! future work, and [`crate::placement`] only *scores* candidate
//! assignments. This module executes them: a [`ShardedColumn`] splits a
//! loaded column across `n` simulated nodes according to a
//! [`PlacementPolicy`], gives every node its own self-organizing
//! [`ColumnStrategy`] (so per-node reorganization stays adaptive, in the
//! spirit of the crack-in-the-middle line of work), routes each range
//! selection only to the nodes whose data can overlap it, and merges the
//! per-node results.
//!
//! Because the nodes partition the *values* (each tuple lives on exactly
//! one node), routing is purely a performance concern: however coarse the
//! routing, counts are never duplicated. The executor therefore measures —
//! rather than estimates — the two quantities the placement ablation
//! previously interpolated: per-query fan-out (nodes actually touched) and
//! per-node read balance.
//!
//! Re-placement is supported as an explicit epoch ([`ShardedColumn::replace`]):
//! the live, self-organized partitioning is collected from every node's
//! `segment_ranges()`, a fresh plan is computed, and segments migrate to
//! their new homes with the moved bytes charged to the tracker as
//! reorganization cost.
//!
//! # Persistent node workers
//!
//! Every node runs a **persistent worker thread** that owns the node's
//! strategy for the shard's whole lifetime, fed over an `mpsc` channel —
//! the shape a distributed column store takes when each node sits behind a
//! network boundary, and the replacement for the per-batch
//! `std::thread::scope` spawns earlier revisions used. The coordinator
//! ships each routed scan to its node's channel as a boxed task; the worker
//! counts into a private [`soc_core::EventLog`] and replies on a per-call
//! channel. Logs are replayed into the caller's tracker in ascending node
//! order (see the merge contract on [`soc_core::AccessTracker`]), which
//! makes a parallel run *bit-identical* to the serial one: same counts,
//! same collected multisets (concatenated in node order), same tracker
//! event sequence.
//!
//! [`ExecMode::Parallel`] (the default) dispatches to every routed node
//! before collecting any reply, so the per-node scans overlap;
//! [`ExecMode::Serial`] dispatches and awaits one node at a time — the
//! reference execution and the baseline for measuring the executor's own
//! overhead. [`ShardedColumn::select_count_batch`] ships each node its
//! whole routed worklist in one task, so a query stream costs one channel
//! round-trip per node instead of one per query — the coordinator shape
//! the `sharded_scan` benchmark measures. Because the workers are
//! persistent, no path pays a thread spawn per query or per batch.
//!
//! # Supervision
//!
//! A node worker can die: a task panics, or the fault-injection harness
//! ([`soc_core::FaultInjector`], site [`FaultSite::ShardTask`]) kills it
//! deliberately. The coordinator **supervises**: a failed dispatch or
//! reply surfaces as a typed [`NodeError::Down`] (never a coordinator
//! panic), the node's strategy is rebuilt from the values packed at the
//! last (re-)placement epoch, a fresh worker is spawned, and the
//! in-flight task is retried under capped exponential backoff with
//! deterministic, seeded jitter. Because reorganization is purely
//! physical, a rebuilt node answers bit-identically to the lost one —
//! only its self-organized layout (and thus future scan *cost*) resets.
//! [`ShardedColumn::node_recoveries`] counts the rebuilds.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soc_core::{
    AccessTracker, AdaptationStats, ColumnError, ColumnStrategy, ColumnValue, EventLog, Fault,
    FaultInjector, FaultSite, NoFaults, NullTracker, SegIdGen, StrategySpec, ValueRange,
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

/// Typed failure of one node worker, surfaced to the coordinator instead
/// of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The node's worker thread is down (its task panicked, or fault
    /// injection killed it) and supervision could not complete the
    /// operation within its retry budget. Carries the node index and the
    /// worker's panic payload text when one was captured.
    Down {
        /// Index of the failed node.
        node: usize,
        /// The worker's panic message, or a generic note when the thread
        /// died without a payload.
        detail: String,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Down { node, detail } => {
                write!(f, "shard node {node} worker down: {detail}")
            }
        }
    }
}

impl std::error::Error for NodeError {}

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

/// How [`ShardedColumn`] executes the per-node scans of a routed selection.
///
/// Both modes produce bit-identical results and tracker accounting; they
/// differ only in wall-clock behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Dispatch to, and await, one routed node at a time — the reference
    /// execution. Both modes now cross the same worker-channel boundary
    /// (the workers own the strategies), so serial-vs-parallel isolates
    /// the *overlap*, not the channel cost; a serial run still pays one
    /// round-trip per routed node.
    Serial,
    /// Dispatch to every routed node's worker before awaiting any reply,
    /// so the per-node scans overlap; per-node event logs merge into the
    /// caller's tracker in ascending node order (the default).
    #[default]
    Parallel,
}

/// A boxed operation shipped to a node worker, executed against the
/// strategy the worker owns. Generic closures (scan, peek, extract, swap
/// the strategy wholesale) keep the protocol to a single message shape —
/// the actor pattern rather than a variant per operation.
type NodeTask<V> = Box<dyn FnOnce(&mut Box<dyn ColumnStrategy<V>>) + Send>;

/// One routed node's scan reply: matched count, collected values (empty
/// for counts), and the node-local event log replayed at merge time.
type ScanReply<V> = (u64, Vec<V>, EventLog);

/// One simulated node: the channel to its persistent worker thread (which
/// owns the node's strategy), the value ranges it holds, and its lifetime
/// read counters (maintained by the coordinator at merge time).
struct ShardNode<V> {
    index: usize,
    /// `Some` for the node's whole life; taken in `Drop` so the worker's
    /// receive loop ends before the thread is joined.
    tx: Option<mpsc::Sender<NodeTask<V>>>,
    /// Behind a mutex so the `&self` call paths can take the handle to
    /// join (and capture the panic payload) when the worker dies;
    /// uncontended everywhere else.
    worker: std::sync::Mutex<Option<thread::JoinHandle<()>>>,
    /// Sorted, pairwise disjoint ranges whose values this node holds.
    assigned: Vec<ValueRange<V>>,
    /// The node's values as packed at the last (re-)placement epoch — the
    /// durable state supervision rebuilds a crashed worker's strategy
    /// from. Self-organization since then is physical only, so a rebuild
    /// loses layout, never answers.
    packed: Arc<Vec<V>>,
    /// Fault seam consulted by the worker before each task; kept so a
    /// respawned worker stays under the same plan.
    injector: Arc<dyn FaultInjector>,
    read_bytes: u64,
    queries_touched: u64,
}

impl<V: ColumnValue> ShardNode<V> {
    /// Spawns the persistent worker owning `strategy`; it executes tasks
    /// in arrival (FIFO) order until the channel closes.
    fn spawn(
        index: usize,
        strategy: Box<dyn ColumnStrategy<V>>,
        assigned: Vec<ValueRange<V>>,
        packed: Arc<Vec<V>>,
        injector: Arc<dyn FaultInjector>,
    ) -> Self {
        let mut node = ShardNode {
            index,
            tx: None,
            worker: std::sync::Mutex::new(None),
            assigned,
            packed,
            injector,
            read_bytes: 0,
            queries_touched: 0,
        };
        node.start_worker(strategy);
        node
    }

    /// (Re)starts the worker thread owning `strategy`. The coordinator
    /// never queues more than one in-flight task per node per call, so
    /// the task channel is effectively bounded at the routed fan-out.
    fn start_worker(&mut self, strategy: Box<dyn ColumnStrategy<V>>) {
        #[expect(
            clippy::disallowed_methods,
            reason = "at most one in-flight task per node per coordinator call bounds this queue"
        )]
        let (tx, rx) = mpsc::channel::<NodeTask<V>>();
        let injector = Arc::clone(&self.injector);
        let worker = thread::Builder::new()
            .name(format!("soc-shard-node-{}", self.index))
            .spawn(move || {
                let mut strategy = strategy;
                for task in rx {
                    match injector.inject(FaultSite::ShardTask) {
                        Some(Fault::Slow(d)) => {
                            thread::sleep(d);
                            task(&mut strategy);
                        }
                        // Not `panic!`: an injected kill is not a bug, so it
                        // skips the panic hook (no report on stderr) and still
                        // reaches `join()` with the payload `down_error` reads.
                        Some(_) => {
                            std::panic::resume_unwind(Box::new("injected shard-worker crash"))
                        }
                        None => task(&mut strategy),
                    }
                }
            })
            .expect("spawn shard node worker");
        self.tx = Some(tx);
        self.put_worker(worker);
    }

    /// A channel operation failed, meaning the worker thread died (a task
    /// panicked, or fault injection killed it). Join it and capture the
    /// payload text into a typed [`NodeError::Down`] — the coordinator
    /// decides whether to recover or surface the error; it never unwinds.
    fn down_error(&self) -> NodeError {
        let detail = match self.take_worker().map(|h| h.join()) {
            Some(Err(payload)) => {
                if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "worker panicked with a non-string payload".to_owned()
                }
            }
            _ => "worker exited without a panic payload".to_owned(),
        };
        NodeError::Down {
            node: self.index,
            detail,
        }
    }

    /// Ships `f` to the worker without waiting; the result arrives on the
    /// returned channel. Dispatching to several nodes before receiving any
    /// reply is what overlaps their scans in [`ExecMode::Parallel`].
    ///
    /// # Errors
    /// [`NodeError::Down`] when the worker thread has died.
    fn try_dispatch<T, F>(&self, f: F) -> Result<mpsc::Receiver<T>, NodeError>
    where
        T: Send + 'static,
        F: FnOnce(&mut Box<dyn ColumnStrategy<V>>) -> T + Send + 'static,
    {
        // Exactly one reply per task, so the rendezvous buffer of one
        // never blocks the worker.
        let (reply, rx) = mpsc::sync_channel(1);
        let task: NodeTask<V> = Box::new(move |strategy| {
            let _ = reply.send(f(strategy));
        });
        match &self.tx {
            Some(sender) if sender.send(task).is_ok() => Ok(rx),
            _ => Err(self.down_error()),
        }
    }

    /// Awaits a dispatched reply; a dropped reply channel means the
    /// worker died mid-task.
    ///
    /// # Errors
    /// [`NodeError::Down`] when the worker thread died before replying.
    fn try_await<T>(&self, rx: mpsc::Receiver<T>) -> Result<T, NodeError> {
        rx.recv().map_err(|_| self.down_error())
    }

    /// Synchronous round-trip: dispatch and await the result.
    ///
    /// # Errors
    /// [`NodeError::Down`] when the worker thread has died.
    fn try_call<T, F>(&self, f: F) -> Result<T, NodeError>
    where
        T: Send + 'static,
        F: FnOnce(&mut Box<dyn ColumnStrategy<V>>) -> T + Send + 'static,
    {
        let rx = self.try_dispatch(f)?;
        self.try_await(rx)
    }

    /// Synchronous round-trip for the infallible accessor paths (`name`,
    /// `storage_bytes`, `adaptation`, …) whose trait signatures cannot
    /// carry an error and whose `&self` receivers cannot recover the
    /// node. A dead worker panics here with the typed error's message —
    /// the supervised read paths never take this route.
    fn call<T, F>(&self, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&mut Box<dyn ColumnStrategy<V>>) -> T + Send + 'static,
    {
        self.try_call(f).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The worker-handle slot. These two methods are the only code that locks
/// it, and each hands back at most the handle, never a guard — so no lock
/// can be live across a `send`, a `spawn` or a `join`.
impl<V> ShardNode<V> {
    fn put_worker(&self, worker: thread::JoinHandle<()>) {
        *self.worker.lock().unwrap_or_else(|e| e.into_inner()) = Some(worker);
    }

    fn take_worker(&self) -> Option<thread::JoinHandle<()>> {
        self.worker.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

impl<V> Drop for ShardNode<V> {
    fn drop(&mut self) {
        self.tx.take(); // closes the channel; the worker drains and exits
        if let Some(worker) = self.take_worker() {
            let _ = worker.join();
        }
    }
}

/// What one node's batch task replies with: one `(count, log)` per query
/// of the node's worklist, in worklist order.
type BatchReply = Vec<(u64, EventLog)>;

/// One node's share of one routed selection, run worker-side: the scan
/// reports into a private [`EventLog`] the coordinator replays (and
/// attributes) in deterministic node order.
fn scan_task<V: ColumnValue>(
    strategy: &mut Box<dyn ColumnStrategy<V>>,
    q: &ValueRange<V>,
    collect: bool,
) -> (u64, Vec<V>, EventLog) {
    let mut log = EventLog::new();
    let (matched, part) = if collect {
        let part = strategy.select_collect(q, &mut log);
        (part.len() as u64, part)
    } else {
        (strategy.select_count(q, &mut log), Vec::new())
    };
    (matched, part, log)
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
    exec: ExecMode,
    domain: ValueRange<V>,
    nodes: Vec<ShardNode<V>>,
    /// The placement-grain partition `(range, bytes)` of the current plan,
    /// sorted by range — what [`ColumnStrategy::segment_ranges`] reports.
    partition: Vec<(ValueRange<V>, u64)>,
    /// Adaptation performed by node strategies retired in past epochs.
    retired: AdaptationStats,
    ids: SegIdGen,
    epochs: u64,
    moved_bytes: u64,
    queries: u64,
    fanout_sum: u64,
    /// Fault seam handed to every node worker (and every respawn).
    injector: Arc<dyn FaultInjector>,
    /// Workers rebuilt by supervision after a crash.
    recoveries: u64,
    /// Seed for the deterministic retry-backoff jitter.
    retry_seed: u64,
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
        Self::with_faults(spec, policy, nodes, domain, values, Arc::new(NoFaults))
    }

    /// As [`Self::new`], with a fault-injection plan wired into every
    /// node worker (and every supervised respawn): before each task the
    /// worker consults `injector` at [`FaultSite::ShardTask`] —
    /// [`Fault::Slow`] delays the task, any other fault kills the worker
    /// with the task in hand, exercising the supervision path.
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn with_faults(
        spec: StrategySpec,
        policy: PlacementPolicy,
        nodes: usize,
        domain: ValueRange<V>,
        values: Vec<V>,
        injector: Arc<dyn FaultInjector>,
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
            exec: ExecMode::default(),
            domain,
            nodes: Vec::with_capacity(nodes),
            partition: seed_ranges.iter().copied().zip(sizes).collect(),
            retired: AdaptationStats::default(),
            ids: SegIdGen::new(),
            epochs: 0,
            moved_bytes: 0,
            queries: 0,
            fanout_sum: 0,
            injector,
            recoveries: 0,
            retry_seed: 0x7368_6172_645f_7276, // stable across runs: backoff jitter is deterministic
        };
        shard.build_nodes(nodes, &plan.node_of_segment, seed_ranges, buckets)?;
        Ok(shard)
    }

    /// Constructs the per-node strategies from a plan over pieces. On the
    /// first call the persistent workers are spawned; re-placement epochs
    /// keep the workers and ship each one its replacement strategy (every
    /// strategy is built before any is installed, so a build failure
    /// leaves the shard unchanged).
    fn build_nodes(
        &mut self,
        nodes: usize,
        node_of_piece: &[usize],
        piece_ranges: Vec<ValueRange<V>>,
        piece_values: Vec<Vec<V>>,
    ) -> Result<(), ShardError> {
        let mut per_node_ranges: Vec<Vec<ValueRange<V>>> = (0..nodes).map(|_| Vec::new()).collect();
        let mut per_node_values: Vec<Vec<V>> = (0..nodes).map(|_| Vec::new()).collect();
        for ((range, values), &n) in piece_ranges
            .into_iter()
            .zip(piece_values)
            .zip(node_of_piece)
        {
            per_node_ranges[n].push(range);
            per_node_values[n].extend(values);
        }
        let built = per_node_ranges
            .into_iter()
            .zip(per_node_values)
            .map(|(ranges, values)| {
                // Every node keeps the full domain: assignment, not the
                // strategy's domain, is what scopes a node's data. The
                // packed values are retained as the node's recovery
                // state: what supervision rebuilds from after a crash.
                let packed = Arc::new(values.clone());
                Ok((
                    coalesce(ranges),
                    packed,
                    self.spec.build(self.domain, values)?,
                ))
            })
            .collect::<Result<Vec<_>, ColumnError>>()?;
        for (i, (assigned, packed, strategy)) in built.into_iter().enumerate() {
            match self.nodes.get_mut(i) {
                Some(node) => {
                    if node.try_call(move |s| *s = strategy).is_err() {
                        // The old worker died before the hand-off: the
                        // strategy went down with the task, so rebuild
                        // the worker from the freshly packed values.
                        let replacement = self
                            .spec
                            .build(self.domain, packed.as_ref().clone())
                            .expect("packed values were just built from");
                        node.start_worker(replacement);
                        self.recoveries += 1;
                    }
                    node.assigned = assigned;
                    node.packed = packed;
                    node.read_bytes = 0;
                    node.queries_touched = 0;
                }
                None => self.nodes.push(ShardNode::spawn(
                    i,
                    strategy,
                    assigned,
                    packed,
                    Arc::clone(&self.injector),
                )),
            }
        }
        Ok(())
    }

    /// Supervision: rebuilds node `i`'s strategy from its last packed
    /// values and spawns a fresh worker for it. Layout self-organized
    /// since the last epoch is lost (it is physical only); answers are
    /// not.
    fn recover_node(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        let strategy = self
            .spec
            .build(self.domain, node.packed.as_ref().clone())
            .expect("packed values built this strategy before");
        node.start_worker(strategy);
        self.recoveries += 1;
    }

    /// Capped exponential backoff before retry `attempt` (1-based) on
    /// node `i`: 100µs · 2^(attempt−1), capped at 5ms, plus seeded jitter
    /// of up to half the step — deterministic for a given shard seed, so
    /// fault-injection runs replay exactly.
    fn backoff(&self, i: usize, attempt: u32) {
        const BASE_US: u64 = 100;
        const CAP_US: u64 = 5_000;
        let step = (BASE_US << (attempt.saturating_sub(1)).min(10)).min(CAP_US);
        let mut rng =
            SmallRng::seed_from_u64(self.retry_seed ^ ((i as u64) << 32) ^ u64::from(attempt));
        let jitter = rng.gen_range(0..=step / 2);
        thread::sleep(Duration::from_micros(step + jitter));
    }

    /// Runs `f` on node `i`, recovering the worker and retrying (with
    /// capped, seeded backoff) when it is down. `f` must be `Clone`: a
    /// retry re-ships the whole task to the rebuilt worker.
    ///
    /// # Errors
    /// The last [`NodeError::Down`] when every attempt failed — only
    /// reachable when a fault plan kills the worker on every retry.
    fn call_retry<T, F>(&mut self, i: usize, f: F) -> Result<T, NodeError>
    where
        T: Send + 'static,
        F: Fn(&mut Box<dyn ColumnStrategy<V>>) -> T + Clone + Send + 'static,
    {
        const MAX_ATTEMPTS: u32 = 4;
        let mut last: Option<NodeError> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(i, attempt);
                self.recover_node(i);
            }
            match self.nodes[i].try_call(f.clone()) {
                Ok(v) => return Ok(v),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Node indices whose assigned ranges overlap `q` — the routing
    /// decision a distributed coordinator would take from the placement
    /// catalog.
    fn route(&self, q: &ValueRange<V>) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !overlapping_span(&n.assigned, q).is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Merges one node's finished scan into the caller-visible state:
    /// replay the event log into the caller's tracker and attribute the
    /// scanned bytes to the node — the "measured, not estimated" per-node
    /// balance the ablation tables report.
    fn merge_scan(&mut self, node: usize, log: &EventLog, tracker: &mut dyn AccessTracker) {
        log.replay_into(tracker);
        self.nodes[node].read_bytes += log.scan_bytes();
        self.nodes[node].queries_touched += 1;
    }

    fn run_select(
        &mut self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
        out: Option<&mut Vec<V>>,
    ) -> u64 {
        self.try_run_select(q, tracker, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_run_select(
        &mut self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
        mut out: Option<&mut Vec<V>>,
    ) -> Result<u64, NodeError> {
        let routed = self.route(q);
        self.queries += 1;
        self.fanout_sum += routed.len() as u64;
        let collect = out.is_some();
        let q = *q;
        let task = move |s: &mut Box<dyn ColumnStrategy<V>>| scan_task(s, &q, collect);
        let mut matched = 0u64;
        // Parallel mode ships the scan to every routed node's worker before
        // awaiting any reply, so the scans overlap; serial mode dispatches
        // and awaits one node at a time. Both merge in ascending node
        // order, so the observable event sequence is exactly the serial
        // one. A node that died mid-scan is recovered and its scan
        // retried before its slot merges, so supervision preserves the
        // order — and the counts are those of the fault-free run, since
        // a rebuilt node holds the same logical values.
        let pending: Vec<(usize, Option<mpsc::Receiver<ScanReply<V>>>)> = match self.exec {
            ExecMode::Parallel => routed
                .into_iter()
                .map(|i| (i, self.nodes[i].try_dispatch(task).ok()))
                .collect(),
            ExecMode::Serial => routed.into_iter().map(|i| (i, None)).collect(),
        };
        for (i, rx) in pending {
            let live = rx.and_then(|rx| self.nodes[i].try_await(rx).ok());
            let (m, mut part, log) = match live {
                Some(reply) => reply,
                None => self.call_retry(i, task)?,
            };
            self.merge_scan(i, &log, tracker);
            matched += m;
            if let Some(out) = out.as_deref_mut() {
                out.append(&mut part);
            }
        }
        Ok(matched)
    }

    /// As [`ColumnStrategy::select_count`], surfacing an unrecoverable
    /// node failure as a typed error instead of a panic — the entry point
    /// for callers (and fault-injection proptests) that must survive a
    /// fault plan killing a worker faster than supervision can rebuild
    /// it.
    ///
    /// # Errors
    /// [`NodeError::Down`] when a routed node stayed down through the
    /// supervised retry budget.
    pub fn try_select_count(
        &mut self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> Result<u64, NodeError> {
        self.try_run_select(q, tracker, None)
    }

    /// As [`ColumnStrategy::select_collect`] with typed node failure —
    /// see [`Self::try_select_count`].
    ///
    /// # Errors
    /// [`NodeError::Down`] when a routed node stayed down through the
    /// supervised retry budget.
    pub fn try_select_collect(
        &mut self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> Result<Vec<V>, NodeError> {
        let mut out = Vec::new();
        self.try_run_select(q, tracker, Some(&mut out))?;
        Ok(out)
    }

    /// Executes a whole batch of counting range selections, returning one
    /// count per query (same order).
    ///
    /// Serial mode runs the queries one by one — same results and tracker
    /// stream as repeated [`ColumnStrategy::select_count`] calls, paying
    /// one worker round-trip per (query, node). Parallel mode ships **each
    /// node its whole routed worklist in one task** — the persistent
    /// worker drains the queries routed to its node in order — so a query
    /// stream costs one channel round-trip per node instead of one per
    /// query; this is the shape a distributed coordinator dispatching a
    /// query stream to node workers takes, and the one the `sharded_scan`
    /// benchmark measures. Per-(node, query) event logs are replayed into
    /// `tracker` in serial order (query-major, then ascending node), so
    /// counts, per-node read attribution, fan-out statistics, and the
    /// tracker's event sequence are all bit-identical to the serial run.
    pub fn select_count_batch(
        &mut self,
        queries: &[ValueRange<V>],
        tracker: &mut dyn AccessTracker,
    ) -> Vec<u64> {
        self.try_select_count_batch(queries, tracker)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Self::select_count_batch`], surfacing an unrecoverable node
    /// failure as a typed error instead of a panic. A node that dies with
    /// its worklist in hand is recovered and the whole worklist retried —
    /// counts are logical, so the retried answers are bit-identical to
    /// the fault-free run.
    ///
    /// # Errors
    /// [`NodeError::Down`] when a routed node stayed down through the
    /// supervised retry budget.
    pub fn try_select_count_batch(
        &mut self,
        queries: &[ValueRange<V>],
        tracker: &mut dyn AccessTracker,
    ) -> Result<Vec<u64>, NodeError> {
        let routes: Vec<Vec<usize>> = queries.iter().map(|q| self.route(q)).collect();
        self.queries += queries.len() as u64;
        self.fanout_sum += routes.iter().map(|r| r.len() as u64).sum::<u64>();
        let mut counts = vec![0u64; queries.len()];
        match self.exec {
            ExecMode::Serial => {
                for ((q, routed), count) in queries.iter().zip(&routes).zip(&mut counts) {
                    let q = *q;
                    for &i in routed {
                        let (m, _, log) = self.call_retry(i, move |s| scan_task(s, &q, false))?;
                        self.merge_scan(i, &log, tracker);
                        *count += m;
                    }
                }
            }
            ExecMode::Parallel => {
                // Per-node worklists of queries (ascending in query order
                // by construction, since routes are visited in query
                // order).
                let mut work: Vec<Vec<ValueRange<V>>> = vec![Vec::new(); self.nodes.len()];
                for (qi, routed) in routes.iter().enumerate() {
                    for &i in routed {
                        work[i].push(queries[qi]);
                    }
                }
                // One task per busy node: dispatch everything, then
                // await. The task is `Clone` (it owns its worklist), so
                // supervision can re-ship a whole worklist to a rebuilt
                // worker.
                let pending: Vec<_> = work
                    .into_iter()
                    .enumerate()
                    .filter(|(_, w)| !w.is_empty())
                    .map(|(i, w)| {
                        let task = move |s: &mut Box<dyn ColumnStrategy<V>>| {
                            w.iter()
                                .map(|q| {
                                    let (m, _, log) = scan_task(s, q, false);
                                    (m, log)
                                })
                                .collect::<BatchReply>()
                        };
                        let rx = self.nodes[i].try_dispatch(task.clone()).ok();
                        (i, task, rx)
                    })
                    .collect();
                let mut per_node: Vec<BatchReply> =
                    (0..self.nodes.len()).map(|_| Vec::new()).collect();
                for (i, task, rx) in pending {
                    let live = rx.and_then(|rx| self.nodes[i].try_await(rx).ok());
                    per_node[i] = match live {
                        Some(reply) => reply,
                        None => self.call_retry(i, task)?,
                    };
                }
                // Deterministic merge in serial order: query-major, then
                // ascending node index. Each node's results are in its
                // worklist (= query) order, so a cursor per node suffices.
                let mut cursor = vec![0usize; self.nodes.len()];
                for (routed, count) in routes.iter().zip(&mut counts) {
                    for &i in routed {
                        let (m, log) = &per_node[i][cursor[i]];
                        cursor[i] += 1;
                        self.merge_scan(i, log, tracker);
                        *count += m;
                    }
                }
            }
        }
        Ok(counts)
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
        // Snapshot the workload-caused adaptation history up front: the
        // extraction pass below issues adaptive queries of its own
        // (cracking cracks at piece boundaries, replication materializes),
        // and that self-inflicted activity must not count.
        let mut retired = self.retired;
        for node in &self.nodes {
            retired.absorb(&node.call(|s| s.adaptation()));
        }

        // 1. The live partitioning, restricted to each node's ownership:
        //    per-node strategies keep the full domain, so their ranges must
        //    be clipped to the ranges whose values the node actually holds.
        let mut pieces: Vec<(ValueRange<V>, usize)> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let live = node.call(|s| s.segment_ranges());
            let live = if live.is_empty() {
                node.assigned.clone()
            } else {
                live
            };
            for r in live {
                for a in &node.assigned {
                    if let Some(piece) = r.intersect(a) {
                        pieces.push((piece, i));
                    }
                }
            }
        }
        pieces.sort_by_key(|(r, _)| r.lo());

        // 2. Extract each piece's values from its current owner. The
        //    extraction itself is not charged: data that stays on its node
        //    does not cross the (simulated) network.
        let mut piece_values: Vec<Vec<V>> = Vec::with_capacity(pieces.len());
        for (range, owner) in &pieces {
            let range = *range;
            let vals = self.nodes[*owner].call(move |s| s.select_collect(&range, &mut NullTracker));
            piece_values.push(vals);
        }
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
        self.moved_bytes += report.moved_bytes;
        self.epochs += 1;

        // 5. Retire the old strategies (their pre-extraction adaptation
        //    history was snapshotted above) and rebuild each node from its
        //    newly assigned values.
        self.retired = retired;
        let nodes = self.nodes.len();
        let piece_ranges: Vec<ValueRange<V>> = pieces.iter().map(|(r, _)| *r).collect();
        self.partition = piece_ranges.iter().copied().zip(sizes).collect();
        self.build_nodes(nodes, &plan.node_of_segment, piece_ranges, piece_values)?;
        Ok(report)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The placement policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The execution mode in force.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Sets the execution mode (builder form).
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec = mode;
        self
    }

    /// Sets the execution mode in place — the benchmarks toggle one shard
    /// between serial and parallel so both modes measure identical state.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec = mode;
    }

    /// Lifetime read bytes per node — measured balance, not an estimate.
    pub fn node_read_bytes(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.read_bytes).collect()
    }

    /// Live storage bytes per node.
    pub fn node_storage_bytes(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.call(|s| s.storage_bytes()))
            .collect()
    }

    /// Queries each node actually served.
    pub fn node_queries_touched(&self) -> Vec<u64> {
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
    pub fn read_imbalance(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.read_bytes).sum();
        if total == 0 {
            return 1.0;
        }
        let max = self
            .nodes
            .iter()
            .map(|n| n.read_bytes)
            .max()
            .expect("nodes > 0") as f64;
        max / (total as f64 / self.nodes.len() as f64)
    }

    /// Bytes shipped between nodes across all re-placement epochs.
    pub fn moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    /// Completed re-placement epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Node workers rebuilt by supervision after a crash.
    pub fn node_recoveries(&self) -> u64 {
        self.recoveries
    }
}

// contract: ColumnStrategy thread-safety: shard access serializes through each node's worker; re-placement mutates the partition only inside &mut self selects, and &self accessors read the cached plan. fold_delta keeps the trait default (absorbs nothing): pending deltas of a wrapped sharded column stay in the epoch layer's overlay.
impl<V: ColumnValue> ColumnStrategy<V> for ShardedColumn<V> {
    fn name(&self) -> String {
        let inner = self
            .nodes
            .first()
            .map(|n| n.call(|s| s.name()))
            .unwrap_or_else(|| "?".to_owned());
        format!(
            "Sharded {inner} ({} nodes, {})",
            self.nodes.len(),
            self.policy.name()
        )
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        self.run_select(q, tracker, None)
    }

    fn select_collect(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> Vec<V> {
        let mut out = Vec::new();
        self.run_select(q, tracker, Some(&mut out));
        out
    }

    fn peek_collect(&self, q: &ValueRange<V>) -> Vec<V> {
        // Values partition across nodes, so concatenating the routed
        // nodes' read-only answers (in node order) is exact. No
        // fan-out/read accounting: peeks are not queries. Parallel mode
        // dispatches the peek to every routed worker before awaiting any,
        // so the fan-out overlaps; there are no event logs to merge.
        let routed = self.route(q);
        let q = *q;
        let pending: Vec<(usize, mpsc::Receiver<Vec<V>>)> = match self.exec {
            ExecMode::Parallel => routed
                .into_iter()
                .map(|i| {
                    let rx = self.nodes[i]
                        .try_dispatch(move |s| s.peek_collect(&q))
                        .unwrap_or_else(|e| panic!("{e}"));
                    (i, rx)
                })
                .collect(),
            ExecMode::Serial => {
                let mut out = Vec::new();
                for i in routed {
                    out.extend(self.nodes[i].call(move |s| s.peek_collect(&q)));
                }
                return out;
            }
        };
        let mut out = Vec::new();
        for (i, rx) in pending {
            out.extend(
                self.nodes[i]
                    .try_await(rx)
                    .unwrap_or_else(|e| panic!("{e}")),
            );
        }
        out
    }

    fn storage_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.call(|s| s.storage_bytes()))
            .sum()
    }

    fn segment_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.call(|s| s.segment_count()))
            .sum()
    }

    fn segment_bytes(&self) -> Vec<u64> {
        self.partition.iter().map(|(_, b)| *b).collect()
    }

    fn segment_ranges(&self) -> Vec<ValueRange<V>> {
        // The placement-grain partition (sorted, disjoint): what the
        // current plan ships around, paired with `segment_bytes`. The
        // node-local strategies may have split further since; `replace`
        // refreshes the partition from their live state.
        self.partition.iter().map(|(r, _)| *r).collect()
    }

    fn adaptation(&self) -> AdaptationStats {
        let mut total = self.retired;
        for node in &self.nodes {
            total.absorb(&node.call(|s| s.adaptation()));
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
        let mut got = sharded.select_collect(&q, &mut NullTracker);
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
        let values = uniform_values(8_000, &domain(), 15);
        let mut sharded = ShardedColumn::new(
            spec(StrategyKind::GdSegm),
            PlacementPolicy::RoundRobin,
            5,
            domain(),
            values,
        )
        .expect("shard construction");
        for q in workload(100, 16) {
            sharded.select_count(&q, &mut NullTracker);
        }
        sharded.replace(&mut NullTracker).expect("replace");
        let ranges = sharded.segment_ranges();
        let bytes = sharded.segment_bytes();
        assert_eq!(ranges.len(), bytes.len());
        assert_eq!(bytes.iter().sum::<u64>(), 8_000 * 4);
        assert!(ranges.windows(2).all(|w| w[0].hi() < w[1].lo()));
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

    /// Two identically built shards, one per exec mode.
    fn shard_pair(
        kind: StrategyKind,
        policy: PlacementPolicy,
        nodes: usize,
        values: &[u32],
    ) -> (ShardedColumn<u32>, ShardedColumn<u32>) {
        let serial = ShardedColumn::new(spec(kind), policy, nodes, domain(), values.to_vec())
            .expect("shard construction")
            .with_exec_mode(ExecMode::Serial);
        let parallel = ShardedColumn::new(spec(kind), policy, nodes, domain(), values.to_vec())
            .expect("shard construction")
            .with_exec_mode(ExecMode::Parallel);
        (serial, parallel)
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_serial() {
        // Counts, collected multisets, per-node attribution, and the full
        // tracker byte totals must agree between the two modes — the
        // deterministic-merge guarantee of the parallel executor.
        let values = uniform_values(10_000, &domain(), 29);
        let queries = workload(120, 30);
        for kind in [
            StrategyKind::ApmSegm,
            StrategyKind::GdRepl,
            StrategyKind::Cracking,
            StrategyKind::NoSegm,
        ] {
            let (mut serial, mut parallel) =
                shard_pair(kind, PlacementPolicy::RangeContiguous, 6, &values);
            let mut t_serial = CountingTracker::new();
            let mut t_parallel = CountingTracker::new();
            for q in &queries {
                assert_eq!(
                    serial.select_count(q, &mut t_serial),
                    parallel.select_count(q, &mut t_parallel),
                    "{kind:?} count diverged on {q:?}"
                );
            }
            assert_eq!(
                t_serial.totals(),
                t_parallel.totals(),
                "{kind:?}: merged tracker totals must match serial"
            );
            assert_eq!(serial.node_read_bytes(), parallel.node_read_bytes());
            assert_eq!(
                serial.node_queries_touched(),
                parallel.node_queries_touched()
            );
            assert_eq!(
                serial.mean_measured_fanout(),
                parallel.mean_measured_fanout()
            );

            // Collect returns the same value sequence (node-order merge).
            let q = ValueRange::must(15_000, 84_999);
            assert_eq!(
                serial.select_collect(&q, &mut NullTracker),
                parallel.select_collect(&q, &mut NullTracker),
                "{kind:?} collect diverged"
            );
            assert_eq!(serial.peek_collect(&q), parallel.peek_collect(&q));
        }
    }

    #[test]
    fn batch_execution_matches_per_query_execution_in_both_modes() {
        let values = uniform_values(9_000, &domain(), 31);
        let queries = workload(80, 32);
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let mut one_by_one = ShardedColumn::new(
                spec(StrategyKind::ApmSegm),
                PlacementPolicy::RoundRobin,
                5,
                domain(),
                values.clone(),
            )
            .expect("shard construction")
            .with_exec_mode(ExecMode::Serial);
            let mut batched = ShardedColumn::new(
                spec(StrategyKind::ApmSegm),
                PlacementPolicy::RoundRobin,
                5,
                domain(),
                values.clone(),
            )
            .expect("shard construction")
            .with_exec_mode(mode);
            let mut t_one = CountingTracker::new();
            let mut t_batch = CountingTracker::new();
            let expect: Vec<u64> = queries
                .iter()
                .map(|q| one_by_one.select_count(q, &mut t_one))
                .collect();
            let got = batched.select_count_batch(&queries, &mut t_batch);
            assert_eq!(got, expect, "{mode:?}");
            assert_eq!(t_batch.totals(), t_one.totals(), "{mode:?}");
            assert_eq!(batched.node_read_bytes(), one_by_one.node_read_bytes());
            assert_eq!(
                batched.mean_measured_fanout(),
                one_by_one.mean_measured_fanout()
            );
        }
    }

    #[test]
    fn parallel_replay_preserves_event_order_for_stateful_trackers() {
        // An EventLog (itself a tracker) downstream of the merge must see
        // the exact serial event sequence, not just equal totals.
        let values = uniform_values(6_000, &domain(), 33);
        let queries = workload(40, 34);
        let (mut serial, mut parallel) = shard_pair(
            StrategyKind::GdSegm,
            PlacementPolicy::SizeBalanced,
            4,
            &values,
        );
        let mut log_serial = soc_core::EventLog::new();
        let mut log_parallel = soc_core::EventLog::new();
        for q in &queries {
            serial.select_count(q, &mut log_serial);
            parallel.select_count(q, &mut log_parallel);
        }
        assert_eq!(log_serial.events(), log_parallel.events());
    }

    #[test]
    fn injected_worker_kill_recovers_with_bit_identical_counts() {
        use soc_core::{Fault, FaultPlan, FaultSite};

        let values = uniform_values(8_000, &domain(), 41);
        let queries = workload(60, 42);
        let expect: Vec<u64> = queries
            .iter()
            .map(|q| values.iter().filter(|v| q.contains(**v)).count() as u64)
            .collect();
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            // One injected kill: the first task to draw the fault takes
            // its worker down; supervision rebuilds and retries it.
            let plan = Arc::new(FaultPlan::one_shot(FaultSite::ShardTask, Fault::Panic));
            let mut sharded = ShardedColumn::with_faults(
                spec(StrategyKind::ApmSegm),
                PlacementPolicy::RangeContiguous,
                4,
                domain(),
                values.clone(),
                plan,
            )
            .expect("shard construction")
            .with_exec_mode(mode);
            for (q, &e) in queries.iter().zip(&expect) {
                let got = sharded
                    .try_select_count(q, &mut NullTracker)
                    .expect("supervision recovers a single kill");
                assert_eq!(got, e, "{mode:?}: count diverged on {q:?} after recovery");
            }
            assert_eq!(
                sharded.node_recoveries(),
                1,
                "{mode:?}: exactly the one killed worker is rebuilt"
            );
        }
    }

    #[test]
    fn injected_kill_mid_batch_recovers_and_matches() {
        use soc_core::{Fault, FaultPlan, FaultSite};

        let values = uniform_values(8_000, &domain(), 43);
        let queries = workload(50, 44);
        let expect: Vec<u64> = queries
            .iter()
            .map(|q| values.iter().filter(|v| q.contains(**v)).count() as u64)
            .collect();
        let plan = Arc::new(FaultPlan::one_shot(FaultSite::ShardTask, Fault::Panic));
        let mut sharded = ShardedColumn::with_faults(
            spec(StrategyKind::GdSegm),
            PlacementPolicy::RoundRobin,
            3,
            domain(),
            values,
            plan,
        )
        .expect("shard construction");
        let got = sharded
            .try_select_count_batch(&queries, &mut NullTracker)
            .expect("supervision recovers a single kill");
        assert_eq!(got, expect, "batch counts survive a worker kill");
        assert_eq!(sharded.node_recoveries(), 1);
    }

    #[test]
    fn relentless_fault_plan_surfaces_typed_error_not_panic() {
        use soc_core::{Fault, FaultPlan, FaultSite};

        // Every task draws a kill — supervision rebuilds, the retry dies
        // again, and after the capped budget the coordinator must hand
        // back a typed NodeError, never unwind.
        let plan = Arc::new(FaultPlan::new(7).with_fault(FaultSite::ShardTask, Fault::Panic, 1.0));
        let values = uniform_values(2_000, &domain(), 45);
        let mut sharded = ShardedColumn::with_faults(
            spec(StrategyKind::NoSegm),
            PlacementPolicy::RangeContiguous,
            2,
            domain(),
            values,
            plan,
        )
        .expect("shard construction");
        let err = sharded
            .try_select_count(&ValueRange::must(0, DOMAIN_HI), &mut NullTracker)
            .expect_err("a 100% kill plan must exhaust the retry budget");
        let NodeError::Down { detail, .. } = err;
        assert!(
            detail.contains("injected"),
            "the typed error carries the worker's panic payload: {detail}"
        );
        assert!(sharded.node_recoveries() >= 1, "supervision did try");
    }

    #[test]
    fn slow_node_fault_delays_but_never_changes_answers() {
        use soc_core::{Fault, FaultPlan, FaultSite};
        use std::time::Duration;

        let values = uniform_values(4_000, &domain(), 47);
        let queries = workload(20, 48);
        let plan = Arc::new(FaultPlan::new(11).with_fault(
            FaultSite::ShardTask,
            Fault::Slow(Duration::from_micros(200)),
            0.5,
        ));
        let mut sharded = ShardedColumn::with_faults(
            spec(StrategyKind::ApmSegm),
            PlacementPolicy::SizeBalanced,
            3,
            domain(),
            values.clone(),
            plan,
        )
        .expect("shard construction");
        for q in &queries {
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(
                sharded
                    .try_select_count(q, &mut NullTracker)
                    .expect("slow is not down"),
                expect
            );
        }
        assert_eq!(sharded.node_recoveries(), 0, "slowness needs no rebuild");
    }

    #[test]
    fn sharded_column_behind_the_epoch_layer_serves_deltas_from_the_overlay() {
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
        // A sharded column holds no data of its own and absorbs nothing:
        // the rows stay pending, and every read still sees them.
        let snap = column.snapshot();
        assert_eq!(snap.pending_delta_rows(), 5_001);
        assert_eq!(snap.total_rows(), values.len() as u64);
        for q in workload(40, 24) {
            let expect = expected.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(column.select_count(&q, &mut NullTracker), expect, "{q:?}");
        }
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
