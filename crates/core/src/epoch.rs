//! Epoch-snapshot read path: concurrent readers during reorganization.
//!
//! The paper makes reorganization "an integral part of query execution",
//! which is why [`ColumnStrategy::select_count`] takes `&mut self` — and
//! why, without this module, a single reorganizing query would block every
//! other reader on the column. This module splits the two roles the way
//! production systems do (Hyrise's automatic clustering runs
//! reorganization as a background job against a consistent snapshot):
//!
//! * [`StrategySnapshot`] is an **immutable, `Arc`-published epoch** of the
//!   column's physical organization: the strategy's live piece partition,
//!   each piece's values frozen in ascending order. Any number of threads
//!   read one snapshot concurrently; a snapshot never changes.
//! * [`ConcurrentColumn`] owns the actual (mutable) strategy on a **single
//!   writer thread**. Readers answer `select_count` / `select_collect` /
//!   `select_sum` / `select_min_max` against the current snapshot and
//!   merely *enqueue* the query for the writer, which folds the strategy's
//!   own reorganization (split, crack, replicate — Algorithm 1/2
//!   unchanged) off the read path and publishes the next epoch. Publishing
//!   swaps one `Arc` under a short-lived write lock; readers never wait for
//!   reorganization or for a [`ConcurrentColumn::set_strategy`] migration.
//!
//! Epochs share structure: reorganization is purely physical, so a piece
//! whose value range is unchanged between two epochs holds byte-identical
//! content unless a delta fold put a value inside that range — and the
//! writer knows which values it folded. The new snapshot reuses the old
//! piece's `Arc` for every such range and re-extracts only the rest: a
//! crack re-materializes one piece's successors, a fold of 1024 rows at
//! most 1024 pieces.
//!
//! Every piece carries a [`PieceSynopsis`] zone map, so reads prune:
//! disjoint pieces charge [`AccessTracker::skip`] (zero scan bytes, with
//! the pruned cost still reconstructible as `read + pruned`), covered
//! pieces answer counts and sums O(1) from the stored aggregates, and only
//! straddling pieces scan — one binary search each, the pieces being
//! sorted. All four reads are folds over one private walk, so they charge
//! the same events in the same order: pieces by value, then the delta run.
//!
//! Pending writes overlay the base as **one** immutable sorted
//! [`DeltaRun`] (see [`crate::delta`]) the writer coalesces every arriving
//! batch into: a read makes one zone-map test and one pair of binary
//! searches, folds the qualifying rows in on the fly (merge-on-read) and
//! is charged those rows, not the run; the writer *compacts* the head of
//! the run into the base a bounded number of rows per reorganization step
//! — hysteresis watermarks in [`CompactionPolicy`]. A fold is **piece-local**
//! ([`ColumnStrategy::fold_delta`]): each row lands in the piece(s) owning
//! its value and no boundary moves, so the organization the workload
//! earned survives the write. A strategy that cannot absorb a fold keeps
//! its rows in the overlay, visible to every read. A column with no
//! pending deltas takes exactly the pre-overlay read path: the overlay is
//! `None`.
//!
//! # Equivalence to the serial `&mut` path
//!
//! `select_count` results are *bit-identical* to serial execution: counts
//! depend only on the logical content, which reorganization never touches
//! (the transparency claim of Section 3.1). `select_collect` returns the
//! qualifying values in **canonical ascending order** — the physical order
//! a strategy's [`ColumnStrategy::peek_collect`] exposes after the same
//! queries is an epoch-dependent artifact, so the concurrent column
//! normalizes it; sorting the serial peek yields the identical sequence.
//! The property tests in `tests/` prove both, for all nine strategy kinds,
//! under concurrent readers racing the writer.
//!
//! The snapshot's `walk` is the one materializing read of this layer: a
//! strategy materializes only through `peek_collect`, which is how a
//! snapshot piece is extracted and how a migration reads the column it
//! rebuilds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread;

use crate::admission::{AdmissionGate, Admitted, QueryError};
use crate::column::ColumnError;
use crate::delta::{CompactionPolicy, DeltaBatch, DeltaRun};
use crate::kernels;
use crate::range::ValueRange;
use crate::segment::{SegId, SegIdGen};
use crate::spec::StrategySpec;
use crate::strategy::{AdaptationStats, ColumnStrategy};
use crate::synopsis::{PieceSynopsis, SynopsisClass};
use crate::tracker::{AccessTracker, CountingTracker, QueryStats};
use crate::validate::Violation;
use crate::value::ColumnValue;

/// One frozen piece of a snapshot: a value range and the column's values
/// inside it, in ascending order, shared across epochs while the range
/// survives reorganization.
struct SnapshotPiece<V: ColumnValue> {
    range: ValueRange<V>,
    /// Ascending values; `Arc` so unchanged pieces ride into the next
    /// epoch without copying.
    values: Arc<Vec<V>>,
    /// Stable scan-attribution id: reused along with the values, so a
    /// downstream tracker (buffer simulation) sees the same segment
    /// identity for the same physical piece across epochs.
    id: SegId,
    bytes: u64,
    /// Zone map over the frozen values, computed once at extraction (the
    /// values are already sorted, so bounds are the ends) and carried
    /// across epochs with the values it describes.
    synopsis: Option<PieceSynopsis<V>>,
}

impl<V: ColumnValue> SnapshotPiece<V> {
    fn extract(strategy: &dyn ColumnStrategy<V>, range: ValueRange<V>, id: SegId) -> Self {
        let mut values = strategy.peek_collect(&range);
        values.sort_unstable();
        let bytes = values.len() as u64 * V::BYTES;
        let synopsis = PieceSynopsis::from_sorted(&values);
        SnapshotPiece {
            range,
            values: Arc::new(values),
            id,
            bytes,
            synopsis,
        }
    }
}

/// An immutable epoch of a column's physical organization.
///
/// Produced and published by [`ConcurrentColumn`]'s writer; shared by
/// readers through an `Arc`. All read methods take `&self` and are safe to
/// call from any number of threads at once.
pub struct StrategySnapshot<V: ColumnValue> {
    /// Monotonic epoch number; 0 is the construction snapshot.
    epoch: u64,
    /// Sorted, disjoint pieces tiling the domain.
    pieces: Vec<SnapshotPiece<V>>,
    domain: ValueRange<V>,
    name: String,
    storage_bytes: u64,
    segment_count: usize,
    adaptation: AdaptationStats,
    /// The writer's cumulative reorganization accounting at publish time
    /// (reads at the old layout, writes of split/crack/replica products and
    /// migration rebuilds) — the tracker merge each epoch carries out.
    reorg: QueryStats,
    /// Background `set_strategy` migrations whose rebuild failed (the old
    /// strategy stays in force; diagnosable, never a panic on a reader).
    failed_migrations: u64,
    /// Folded tombstones that found no occurrence to cancel: an invariant
    /// break upstream, counted instead of vanishing into the arithmetic.
    unmatched_tombstones: u64,
    /// The pending delta run overlaid on the base pieces. Every read folds
    /// it in; `None` on a column with no pending writes, restoring the
    /// exact pre-delta path.
    delta: Option<DeltaRun<V>>,
}

impl<V: ColumnValue> std::fmt::Debug for StrategySnapshot<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategySnapshot")
            .field("epoch", &self.epoch)
            .field("strategy", &self.name)
            .field("pieces", &self.pieces.len())
            .field("delta_runs", &self.delta_runs())
            .finish_non_exhaustive()
    }
}

/// The run of one ascending slice that qualifies for a query
/// ([`kernels::sorted_run`]), kept with the whole slice:
/// [`kernels::sum_sorted_run`] aligns its chunks to the slice start, so
/// summing the sub-slice on its own would move f64 bits.
struct Hit<'a, V> {
    sorted: &'a [V],
    start: usize,
    end: usize,
}

impl<'a, V: ColumnValue> Hit<'a, V> {
    fn of(sorted: &'a [V], q: &ValueRange<V>) -> Self {
        let (start, end) = kernels::sorted_run(sorted, q);
        Hit { sorted, start, end }
    }

    fn len(&self) -> u64 {
        (self.end - self.start) as u64
    }

    fn values(&self) -> &'a [V] {
        &self.sorted[self.start..self.end]
    }

    fn sum(&self) -> f64 {
        kernels::sum_sorted_run(self.sorted, self.start, self.end)
    }
}

/// What [`StrategySnapshot::walk`] hands a read's fold, one part at a time.
enum Part<'a, V: ColumnValue> {
    /// A piece whose every value qualifies, with its synopsis.
    Covered(&'a [V], &'a PieceSynopsis<V>),
    /// The qualifying run of a piece the query cuts through.
    Straddle(Hit<'a, V>),
    /// The qualifying inserts and tombstones of the overlapping delta run.
    Run(Hit<'a, V>, Hit<'a, V>),
}

/// Extends `live` (a strategy's sorted, disjoint `segment_ranges()`) into a
/// partition tiling all of `domain`: gaps between pieces — cracking omits
/// empty boundary pieces, some strategies do not pad to the domain edges —
/// become explicit ranges so no value can fall between pieces.
fn tile_domain<V: ColumnValue>(
    domain: ValueRange<V>,
    live: Vec<ValueRange<V>>,
) -> Vec<ValueRange<V>> {
    let mut out = Vec::with_capacity(live.len() + 2);
    let mut cursor = Some(domain.lo());
    for r in live {
        let Some(r) = r.intersect(&domain) else {
            continue;
        };
        match cursor {
            Some(c) if c < r.lo() => {
                #[expect(
                    clippy::expect_used,
                    reason = "guarded: c is strictly below r.lo so a predecessor exists"
                )]
                let gap_hi = r.lo().pred().expect("c < r.lo() implies a predecessor");
                #[expect(
                    clippy::expect_used,
                    reason = "c is at most gap_hi by the gap construction"
                )]
                out.push(ValueRange::new(c, gap_hi).expect("c <= gap_hi"));
            }
            _ => {}
        }
        out.push(r);
        cursor = r.hi().succ();
    }
    if let Some(c) = cursor {
        if c <= domain.hi() {
            #[expect(
                clippy::expect_used,
                reason = "every loop path leaves c at most domain.hi"
            )]
            out.push(ValueRange::new(c, domain.hi()).expect("c <= domain.hi()"));
        }
    }
    if out.is_empty() {
        out.push(domain);
    }
    out
}

impl<V: ColumnValue> StrategySnapshot<V> {
    /// Freezes `strategy`'s current organization, reusing the pieces of
    /// `prev` whose value range is unchanged and holds none of the values
    /// `folded` (ascending) into the base since `prev` was captured — a
    /// piece's content is a pure function of its range and the logical
    /// column, and only a fold changes the latter, only at those values.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        strategy: &dyn ColumnStrategy<V>,
        domain: ValueRange<V>,
        prev: Option<&StrategySnapshot<V>>,
        folded: &[V],
        ids: &mut SegIdGen,
        epoch: u64,
        retired: AdaptationStats,
        reorg: QueryStats,
        (failed_migrations, unmatched_tombstones): (u64, u64),
        delta: Option<DeltaRun<V>>,
    ) -> Self {
        let untouched = |range: &ValueRange<V>| crate::delta::run_in(folded, range).is_empty();
        let pieces = tile_domain(domain, strategy.segment_ranges())
            .into_iter()
            .map(|range| {
                let kept = prev
                    .and_then(|s| s.piece_with_range(&range))
                    .filter(|_| untouched(&range));
                if let Some(p) = kept {
                    SnapshotPiece {
                        range,
                        values: Arc::clone(&p.values),
                        id: p.id,
                        bytes: p.bytes,
                        synopsis: p.synopsis,
                    }
                } else {
                    SnapshotPiece::extract(strategy, range, ids.fresh())
                }
            })
            .collect();
        let mut adaptation = strategy.adaptation();
        adaptation.absorb(&retired);
        StrategySnapshot {
            epoch,
            pieces,
            domain,
            name: strategy.name(),
            storage_bytes: strategy.storage_bytes(),
            segment_count: strategy.segment_count(),
            adaptation,
            reorg,
            failed_migrations,
            unmatched_tombstones,
            delta,
        }
    }

    fn piece_with_range(&self, range: &ValueRange<V>) -> Option<&SnapshotPiece<V>> {
        let i = self.pieces.partition_point(|p| p.range.lo() < range.lo());
        self.pieces.get(i).filter(|p| p.range == *range)
    }

    /// Pieces overlapping `q`, in value order.
    fn overlapping<'a>(
        &'a self,
        q: &'a ValueRange<V>,
    ) -> impl Iterator<Item = &'a SnapshotPiece<V>> {
        let first = self.pieces.partition_point(|p| p.range.hi() < q.lo());
        self.pieces[first..]
            .iter()
            .take_while(move |p| p.range.lo() <= q.hi())
    }

    /// The one walk behind every read: the pieces overlapping `q` in value
    /// order, then the overlay's run — the event order every tracker sees,
    /// whichever read is asking. `fold` only accumulates the
    /// [`Part`]s; it never sees the tracker, so no read's accounting can
    /// drift from another's.
    ///
    /// Pieces prune through their zone maps: a disjoint (or empty) piece
    /// charges [`AccessTracker::skip`] and moves no bytes; a covered piece
    /// charges a scan when the read moves its values (`reads_covered`) and
    /// a skip when the synopsis answers for it; a straddling piece charges
    /// a scan and binary-searches its qualifying run. The pending delta
    /// run prunes the same way through its own zone maps: a skip when they
    /// are disjoint from `q`, else one [`AccessTracker::delta_scan`] of the
    /// qualifying rows — what the read touches, however long the run.
    fn walk<'a>(
        &'a self,
        q: &'a ValueRange<V>,
        tracker: &mut dyn AccessTracker,
        reads_covered: bool,
        mut fold: impl FnMut(Part<'a, V>),
    ) {
        for p in self.overlapping(q) {
            match p.synopsis.as_ref().map(|s| (s.classify(q), s)) {
                Some((SynopsisClass::Covered, synopsis)) => {
                    if reads_covered {
                        tracker.scan(p.id, p.bytes);
                    } else {
                        tracker.skip(p.id, p.bytes);
                    }
                    fold(Part::Covered(&p.values, synopsis));
                }
                Some((SynopsisClass::Straddle, _)) => {
                    tracker.scan(p.id, p.bytes);
                    fold(Part::Straddle(Hit::of(&p.values, q)));
                }
                // An empty piece has no synopsis and nothing to find.
                Some((SynopsisClass::Disjoint, _)) | None => tracker.skip(p.id, p.bytes),
            }
        }
        match &self.delta {
            Some(run) if run.overlaps(q) => {
                let inserts = Hit::of(run.inserts(), q);
                let tombstones = Hit::of(run.tombstones(), q);
                tracker.delta_scan(run.id(), (inserts.len() + tombstones.len()) * V::BYTES);
                fold(Part::Run(inserts, tombstones));
            }
            Some(run) => tracker.skip(run.id(), run.bytes()),
            None => {}
        }
    }

    /// Counts the values in `q`: a covered piece answers O(1) from its
    /// length, a straddling piece from the width of its qualifying run, so
    /// the count is bit-identical to an unpruned walk. Pending deltas are
    /// multiset arithmetic (see [`crate::delta`]): qualifying inserts add,
    /// qualifying tombstones cancel one occurrence each, so the answer
    /// matches the catalog's Figure-1 merge without materializing it.
    pub fn select_count(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        let (mut n, mut added, mut removed) = (0u64, 0u64, 0u64);
        self.walk(q, tracker, false, |part| match part {
            Part::Covered(values, _) => n += values.len() as u64,
            Part::Straddle(hit) => n += hit.len(),
            Part::Run(inserts, tombstones) => {
                added += inserts.len();
                removed += tombstones.len();
            }
        });
        (n + added).saturating_sub(removed)
    }

    /// Materializes the values in `q`, ascending (the canonical order — see
    /// the module docs). A collect has to move the data, so covered pieces
    /// scan and only the disjoint class gets cheaper. Pending deltas fold
    /// in by galloping merge: the run's qualifying inserts merge into the
    /// result, then its qualifying tombstones subtract
    /// ([`kernels::subtract_sorted`] — one occurrence per tombstone).
    pub fn select_collect(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> Vec<V> {
        let mut out = Vec::new();
        self.walk(q, tracker, true, |part| match part {
            Part::Covered(values, _) => out.extend_from_slice(values),
            Part::Straddle(hit) => out.extend_from_slice(hit.values()),
            // The walk's last part: `out` holds every base value by now.
            Part::Run(inserts, tombstones) => {
                if !inserts.values().is_empty() {
                    let mut merged = Vec::new();
                    kernels::merge_sorted(&out, inserts.values(), &mut merged);
                    out = merged;
                }
                if !tombstones.values().is_empty() {
                    let mut net = Vec::new();
                    kernels::subtract_sorted(&out, tombstones.values(), &mut net);
                    out = net;
                }
            }
        });
        out
    }

    /// One-pass `SUM(v) WHERE v IN q`: covered pieces contribute their
    /// stored synopsis sum, straddling pieces sum only their qualifying run
    /// ([`kernels::sum_sorted_run`]) — both accumulated with the chunking of
    /// the masked [`kernels::sum_range`] they replace, so the total is
    /// bit-identical to an unpruned scan while reading O(result), not
    /// O(piece). Pending deltas fold in as `+ inserts − tombstones` of the
    /// overlapping run: exact for integer-valued columns whose totals stay
    /// below 2^53; float columns inherit the usual accumulation-order
    /// caveat.
    pub fn select_sum(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> f64 {
        let mut total = 0.0f64;
        self.walk(q, tracker, false, |part| match part {
            Part::Covered(_, synopsis) => total += synopsis.sum(),
            Part::Straddle(hit) => total += hit.sum(),
            Part::Run(inserts, tombstones) => {
                total += inserts.sum();
                total -= tombstones.sum();
            }
        });
        total
    }

    /// Fused `MIN/MAX(v) WHERE v IN q` (`None` when no value qualifies).
    /// A tombstone may cancel a piece's extremum, so the synopsis bounds
    /// alone cannot answer: the walk gathers the qualifying sorted slices —
    /// base and overlay — and [`kernels::net_min`] / [`kernels::net_max`]
    /// resolve the net extrema, inspecting at most the cancelled prefix
    /// (suffix) of each slice; with no tombstones that is the smallest
    /// first and the largest last element. Covered pieces are read no
    /// further than that and charge a skip.
    pub fn select_min_max(
        &self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> Option<(V, V)> {
        let (mut adds, mut tombs) = (Vec::new(), Vec::new());
        self.walk(q, tracker, false, |part| match part {
            Part::Covered(values, _) => adds.push(values),
            Part::Straddle(hit) => adds.push(hit.values()),
            Part::Run(inserts, tombstones) => {
                adds.push(inserts.values());
                tombs.push(tombstones.values());
            }
        });
        kernels::net_min(&adds, &tombs).zip(kernels::net_max(&adds, &tombs))
    }

    /// The epoch number (0 = the construction snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen strategy's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain the snapshot tiles.
    pub fn domain(&self) -> ValueRange<V> {
        self.domain
    }

    /// Value ranges of the snapshot pieces (sorted, disjoint, tiling the
    /// domain).
    pub fn piece_ranges(&self) -> Vec<ValueRange<V>> {
        self.pieces.iter().map(|p| p.range).collect()
    }

    /// Total rows frozen in this snapshot.
    pub fn total_rows(&self) -> u64 {
        self.pieces.iter().map(|p| p.values.len() as u64).sum()
    }

    /// The strategy's materialized storage at capture time.
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes
    }

    /// The strategy's segment count at capture time.
    pub fn segment_count(&self) -> usize {
        self.segment_count
    }

    /// Cumulative adaptation (including strategies retired by migrations).
    pub fn adaptation(&self) -> AdaptationStats {
        self.adaptation
    }

    /// The writer's cumulative reorganization accounting at publish time.
    pub fn reorg_totals(&self) -> QueryStats {
        self.reorg
    }

    /// Background migrations whose rebuild failed so far.
    pub fn failed_migrations(&self) -> u64 {
        self.failed_migrations
    }

    /// Tombstones folded into the base so far that found no occurrence to
    /// cancel. Zero on a correct write stream; a non-zero count means some
    /// layer above deleted (or updated away) a value the column never held.
    pub fn unmatched_tombstones(&self) -> u64 {
        self.unmatched_tombstones
    }

    /// Delta runs overlaid on this epoch: 1 while writes are pending.
    pub fn delta_runs(&self) -> usize {
        usize::from(self.delta.is_some())
    }

    /// Pending delta rows (inserts plus tombstones) in the overlay — the
    /// level the compaction watermarks act on.
    pub fn pending_delta_rows(&self) -> u64 {
        self.delta.as_ref().map_or(0, DeltaRun::rows)
    }

    /// Structural invariants: pieces sorted, disjoint, tiling the domain;
    /// values ascending and inside their piece's range; every zone-map
    /// synopsis exact against its values (a stale synopsis silently
    /// corrupts pruning decisions); the delta run valid
    /// ([`DeltaRun::validate`]). Asserted at every epoch publish
    /// (debug builds) and exercised by the corruption proptests.
    pub fn validate(&self) -> Result<(), Violation> {
        if self.pieces.is_empty() {
            return Err(Violation::Empty {
                what: "epoch snapshot",
            });
        }
        let ranges: Vec<ValueRange<V>> = self.pieces.iter().map(|p| p.range).collect();
        crate::validate::ranges_partition(&self.domain, &ranges)?;
        for (i, p) in self.pieces.iter().enumerate() {
            if !p.values.windows(2).all(|w| w[0] <= w[1]) {
                return Err(Violation::NotSorted { index: i });
            }
            if let Some(v) = p.values.iter().find(|v| !p.range.contains(**v)) {
                return Err(Violation::OutOfRange {
                    index: i,
                    detail: format!("{v:?} outside {:?}", p.range),
                });
            }
            crate::validate::synopsis_consistent(p.synopsis.as_ref(), &p.values).map_err(|v| {
                match v {
                    Violation::Synopsis { detail, .. } => Violation::Synopsis { index: i, detail },
                    other => other,
                }
            })?;
        }
        self.delta.as_ref().map_or(Ok(()), DeltaRun::validate)
    }
}

use cell::SnapshotCell;

/// A module of its own so the lock is private to these four methods:
/// none hands out a guard, so writer and reader code cannot hold one
/// across a `send`, a `spawn` or reorganization work.
mod cell {
    use super::*;

    /// The published-snapshot cell readers load from: an `Arc` swapped
    /// under a write lock the writer holds only for the O(1) pointer
    /// exchange, so a reader's `load` is never blocked by reorganization
    /// work.
    pub(super) struct SnapshotCell<V: ColumnValue> {
        snap: RwLock<Arc<StrategySnapshot<V>>>,
        epoch: AtomicU64,
    }

    impl<V: ColumnValue> SnapshotCell<V> {
        pub(super) fn new(initial: StrategySnapshot<V>) -> Self {
            SnapshotCell {
                epoch: AtomicU64::new(initial.epoch),
                snap: RwLock::new(Arc::new(initial)),
            }
        }

        pub(super) fn load(&self) -> Arc<StrategySnapshot<V>> {
            Arc::clone(&self.snap.read().unwrap_or_else(|e| e.into_inner()))
        }

        pub(super) fn publish(&self, snap: StrategySnapshot<V>) {
            let epoch = snap.epoch;
            *self.snap.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snap);
            self.epoch.store(epoch, Ordering::Release);
        }

        pub(super) fn epoch(&self) -> u64 {
            self.epoch.load(Ordering::Acquire)
        }
    }
}

enum WriterCmd<V: ColumnValue> {
    /// Fold one query's reorganization into the strategy.
    Reorganize(ValueRange<V>),
    /// Rebuild the column under a different spec from a content snapshot,
    /// then swap — the background migration behind `set_strategy`.
    Migrate(StrategySpec),
    /// Seal a batch of pending writes and coalesce it into the next
    /// epoch's [`DeltaRun`]. Deltas are data, not hints: senders block on
    /// a full queue instead of dropping.
    Deltas(DeltaBatch<V>),
    /// Fold **every** pending row into the base in one step — the bulk
    /// merge the benchmarks baseline incremental compaction against —
    /// then reply like `Sync`.
    Drain(mpsc::SyncSender<()>),
    /// Reply once every command sent before this one has been folded and
    /// the resulting epoch published.
    Sync(mpsc::SyncSender<()>),
}

/// The writer thread's state: the one place the strategy is mutated.
struct Writer<V: ColumnValue> {
    strategy: Box<dyn ColumnStrategy<V>>,
    domain: ValueRange<V>,
    cell: Arc<SnapshotCell<V>>,
    ids: SegIdGen,
    epoch: u64,
    /// Adaptation performed by strategies retired by past migrations.
    retired: AdaptationStats,
    /// Cumulative reorganization accounting (folded queries + migrations).
    reorg: CountingTracker,
    failed_migrations: u64,
    /// Folded tombstones that found no occurrence, cumulative.
    unmatched_tombstones: u64,
    /// The pending delta run every arriving batch coalesces into.
    run: Option<DeltaRun<V>>,
    /// Hysteresis watermarks and per-step budget for incremental folds.
    policy: CompactionPolicy,
    /// Whether the compactor is between its start and stop watermarks.
    compacting: bool,
    /// Cleared when the strategy refuses a fold, so the watermarks stop
    /// retrying one that cannot absorb; a migration installs one that can.
    absorbs: bool,
    /// Most commands one epoch takes before it compacts and publishes (the
    /// queue capacity): hints arriving faster than the writer drains them
    /// must not keep folds, publishes and `quiesce` replies waiting forever.
    batch_limit: usize,
}

impl<V: ColumnValue> Writer<V> {
    fn run(mut self, rx: mpsc::Receiver<WriterCmd<V>>) -> Box<dyn ColumnStrategy<V>> {
        while let Ok(first) = rx.recv() {
            // Fold the whole pending batch into one published epoch: the
            // "single writer that folds reorganizations" of the design.
            let mut dirty = false;
            let mut drain = false;
            let mut syncs: Vec<mpsc::SyncSender<()>> = Vec::new();
            let mut arrived: Option<DeltaRun<V>> = None;
            let batch = std::iter::once(first).chain(rx.try_iter());
            for cmd in batch.take(self.batch_limit) {
                match cmd {
                    WriterCmd::Reorganize(q) => {
                        self.strategy.select_count(&q, &mut self.reorg);
                        dirty = true;
                    }
                    WriterCmd::Migrate(spec) => {
                        self.migrate(spec);
                        dirty = true;
                    }
                    WriterCmd::Deltas(batch) => {
                        arrived = DeltaRun::merged(arrived, batch.seal(self.ids.fresh()));
                    }
                    WriterCmd::Drain(reply) => {
                        drain = true;
                        syncs.push(reply);
                    }
                    WriterCmd::Sync(reply) => syncs.push(reply),
                }
            }
            // One O(pending) merge per epoch, however many batches arrived.
            if arrived.is_some() {
                self.run = DeltaRun::merged(self.run.take(), arrived);
                dirty = true;
            }
            // One compaction step per folded batch: the bounded fold that
            // amortizes merge cost across epochs instead of spiking. A
            // drain folds everything at once (the bulk-merge baseline).
            let folded = if drain {
                self.fold_step(u64::MAX)
            } else if self.should_compact() {
                self.fold_step(self.policy.rows_per_step())
            } else {
                Vec::new()
            };
            if dirty || !folded.is_empty() {
                self.publish(&folded);
            }
            for reply in syncs {
                let _ = reply.send(());
            }
        }
        self.strategy
    }

    fn migrate(&mut self, spec: StrategySpec) {
        // Content snapshot off the live strategy (a read-only peek), then
        // a fresh organization under the new spec. The values came out of
        // the column, so the rebuild cannot leave the domain; a failure
        // (only reachable through a pathological custom strategy) keeps
        // the old strategy serving.
        let rows = self.strategy.peek_collect(&self.domain);
        let bytes = rows.len() as u64 * V::BYTES;
        match spec.build(self.domain, rows) {
            Ok(rebuilt) => {
                self.retired.absorb(&self.strategy.adaptation());
                // The migration is itself reorganization: one full read of
                // the old layout, one full write of the new.
                let seg = self.ids.fresh();
                self.reorg.scan(seg, bytes);
                self.reorg.materialize(seg, bytes);
                self.strategy = rebuilt;
                self.absorbs = true;
            }
            Err(_) => self.failed_migrations += 1,
        }
    }

    /// Hysteresis: folding starts once pending rows reach
    /// `policy.start_above()`, keeps going one step per writer wakeup, and
    /// stops once they fall to `policy.stop_below()` — so a column
    /// hovering at the threshold does not thrash.
    fn should_compact(&mut self) -> bool {
        let pending = match &self.run {
            Some(run) if self.absorbs => run.rows(),
            _ => {
                self.compacting = false;
                return false;
            }
        };
        if !self.compacting && pending >= self.policy.start_above() {
            self.compacting = true;
        }
        if self.compacting && pending <= self.policy.stop_below() {
            self.compacting = false;
        }
        self.compacting
    }

    /// Folds up to `budget` delta rows off the head of the pending run into
    /// the pieces of the base that own them ([`ColumnStrategy::fold_delta`]),
    /// charged as reorganization bytes of the touched pieces only. Returns
    /// the folded values, ascending — what the next capture re-extracts
    /// around — or nothing when the strategy cannot absorb the step, which
    /// leaves the run untouched and both base and overlay serving.
    fn fold_step(&mut self, budget: u64) -> Vec<V> {
        let Some(run) = &self.run else {
            return Vec::new();
        };
        let (fold_ins, fold_tombs, rest) =
            run.split_for_fold(usize::try_from(budget).unwrap_or(usize::MAX));
        let Some(unmatched) = self
            .strategy
            .fold_delta(&fold_ins, &fold_tombs, &mut self.reorg)
        else {
            // The strategy cannot absorb writes (it only wraps others, or
            // a row lies outside its domain): the overlay keeps serving.
            self.absorbs = false;
            return Vec::new();
        };
        self.unmatched_tombstones += unmatched;
        self.run = rest;
        let mut folded = Vec::new();
        kernels::merge_sorted(&fold_ins, &fold_tombs, &mut folded);
        folded
    }

    /// Publishes the next epoch; `folded` are the values a fold step put
    /// into (or cancelled from) the base since the last publish.
    fn publish(&mut self, folded: &[V]) {
        self.epoch += 1;
        let prev = self.cell.load();
        let snap = StrategySnapshot::capture(
            self.strategy.as_ref(),
            self.domain,
            Some(&prev),
            folded,
            &mut self.ids,
            self.epoch,
            self.retired,
            self.reorg.totals(),
            (self.failed_migrations, self.unmatched_tombstones),
            self.run.clone(),
        );
        crate::debug_assert_valid!(snap.validate(), "epoch publish");
        self.cell.publish(snap);
    }
}

/// A column any number of threads read while a single writer thread folds
/// reorganizations and publishes epochs.
///
/// ```
/// use soc_core::{ConcurrentColumn, CountingTracker, StrategyKind, StrategySpec, ValueRange};
///
/// let domain = ValueRange::must(0u32, 99_999);
/// let values: Vec<u32> = (0..20_000u32).map(|i| (i * 13) % 100_000).collect();
/// let column = ConcurrentColumn::from_spec(
///     &StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(1024, 4096),
///     domain,
///     values.clone(),
/// )
/// .unwrap();
/// let q = ValueRange::must(10_000, 19_999);
/// let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
/// let mut tracker = CountingTracker::new();
/// // Readers are `&self`: share the column across threads freely.
/// assert_eq!(column.select_count(&q, &mut tracker), expect);
/// column.quiesce(); // the folded reorganization published a new epoch
/// assert!(column.epoch() >= 1);
/// ```
pub struct ConcurrentColumn<V: ColumnValue> {
    cell: Arc<SnapshotCell<V>>,
    tx: Option<mpsc::SyncSender<WriterCmd<V>>>,
    writer: Option<thread::JoinHandle<Box<dyn ColumnStrategy<V>>>>,
    /// Reorganization hints dropped because the bounded writer queue was
    /// full — the explicit backpressure counter behind
    /// [`QueryStats::reorg_hints_dropped`].
    hints_dropped: AtomicU64,
}

impl<V: ColumnValue> std::fmt::Debug for ConcurrentColumn<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentColumn")
            .field("snapshot", &*self.snapshot())
            .finish_non_exhaustive()
    }
}

impl<V: ColumnValue> ConcurrentColumn<V> {
    /// The default bound of the writer command queue: deep enough that a
    /// bursty reader never drops hints in normal operation, small enough
    /// that overload cannot buffer unbounded reorganization debt.
    pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

    /// Wraps an already-built strategy (any of the nine kinds, or a whole
    /// sharded column — anything implementing the trait), spawning the
    /// writer thread. `domain` must cover the strategy's values; it is the
    /// range migrations rebuild over. The writer queue is bounded at
    /// [`Self::DEFAULT_QUEUE_CAPACITY`]. Pending deltas compact under the
    /// default [`CompactionPolicy`] whenever the strategy can absorb them
    /// ([`ColumnStrategy::fold_delta`] — every strategy of this crate
    /// can); one that cannot keeps them in the overlay, visible to every
    /// read.
    pub fn new(strategy: Box<dyn ColumnStrategy<V>>, domain: ValueRange<V>) -> Self {
        Self::with_queue_capacity(strategy, domain, Self::DEFAULT_QUEUE_CAPACITY)
    }

    /// As [`Self::new`] with an explicit writer-queue bound (clamped to at
    /// least 1). When the queue is full, reorganization *hints* from the
    /// read path are dropped and counted (never blocked on — hints are
    /// advisory); control commands ([`Self::set_strategy`],
    /// [`Self::quiesce`]) block until the writer drains.
    pub fn with_queue_capacity(
        strategy: Box<dyn ColumnStrategy<V>>,
        domain: ValueRange<V>,
        queue_capacity: usize,
    ) -> Self {
        let policy = CompactionPolicy::default();
        Self::build(strategy, domain, queue_capacity, policy)
    }

    fn build(
        strategy: Box<dyn ColumnStrategy<V>>,
        domain: ValueRange<V>,
        queue_capacity: usize,
        policy: CompactionPolicy,
    ) -> Self {
        let mut ids = SegIdGen::new();
        let initial = StrategySnapshot::capture(
            strategy.as_ref(),
            domain,
            None,
            &[],
            &mut ids,
            0,
            AdaptationStats::default(),
            QueryStats::default(),
            (0, 0),
            None,
        );
        let cell = Arc::new(SnapshotCell::new(initial));
        // Bounded by design: an unbounded channel here would let overload
        // buffer reorganization work without limit (clippy.toml disallows
        // `mpsc::channel` for that reason).
        let queue_capacity = queue_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel(queue_capacity);
        let writer_state = Writer {
            strategy,
            domain,
            cell: Arc::clone(&cell),
            ids,
            epoch: 0,
            retired: AdaptationStats::default(),
            reorg: CountingTracker::new(),
            failed_migrations: 0,
            unmatched_tombstones: 0,
            run: None,
            policy,
            compacting: false,
            absorbs: true,
            batch_limit: queue_capacity,
        };
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on process resource exhaustion and new has no error channel"
        )]
        let writer = thread::Builder::new()
            .name("soc-epoch-writer".into())
            .spawn(move || writer_state.run(rx))
            .expect("spawn epoch writer thread");
        ConcurrentColumn {
            cell,
            tx: Some(tx),
            writer: Some(writer),
            hints_dropped: AtomicU64::new(0),
        }
    }

    /// Builds the spec's strategy over `values` and wraps it, with the
    /// default [`CompactionPolicy`] watermarks.
    ///
    /// # Errors
    /// The [`ColumnError`] of the underlying constructor when a value lies
    /// outside `domain`.
    pub fn from_spec(
        spec: &StrategySpec,
        domain: ValueRange<V>,
        values: Vec<V>,
    ) -> Result<Self, ColumnError> {
        Self::from_spec_with_policy(spec, domain, values, CompactionPolicy::default())
    }

    /// As [`Self::from_spec`] with explicit compaction watermarks — the
    /// knob the write-heavy benchmarks turn to compare incremental folds
    /// against the bulk-merge baseline.
    ///
    /// # Errors
    /// The [`ColumnError`] of the underlying constructor when a value lies
    /// outside `domain`.
    pub fn from_spec_with_policy(
        spec: &StrategySpec,
        domain: ValueRange<V>,
        values: Vec<V>,
        policy: CompactionPolicy,
    ) -> Result<Self, ColumnError> {
        Ok(Self::build(
            spec.build(domain, values)?,
            domain,
            Self::DEFAULT_QUEUE_CAPACITY,
            policy,
        ))
    }

    #[expect(
        clippy::expect_used,
        reason = "tx is only taken by into_strategy, which consumes self"
    )]
    fn sender(&self) -> &mpsc::SyncSender<WriterCmd<V>> {
        self.tx
            .as_ref()
            .expect("writer channel lives as long as self")
    }

    /// Enqueues a reorganization hint without ever blocking the reader:
    /// a full writer queue drops the hint and bumps the backpressure
    /// counter. Hints are advisory — a dropped one delays adaptation but
    /// can never change an answer.
    fn hint_reorganize(&self, q: &ValueRange<V>) {
        if let Err(mpsc::TrySendError::Full(_)) = self.sender().try_send(WriterCmd::Reorganize(*q))
        {
            self.hints_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reorganization hints dropped so far under writer-queue
    /// backpressure.
    pub fn reorg_hints_dropped(&self) -> u64 {
        self.hints_dropped.load(Ordering::Relaxed)
    }

    /// The current epoch's snapshot. Holding the `Arc` pins that epoch for
    /// as long as the caller likes; later epochs publish alongside it.
    pub fn snapshot(&self) -> Arc<StrategySnapshot<V>> {
        self.cell.load()
    }

    /// The latest published epoch number.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Counts the values in `q` against the current snapshot and enqueues
    /// the query for background reorganization. Never blocks on the
    /// writer; bit-identical to the serial `&mut` path.
    pub fn select_count(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        let n = self.snapshot().select_count(q, tracker);
        self.hint_reorganize(q);
        n
    }

    /// Materializes the values in `q` (ascending — the canonical order)
    /// against the current snapshot and enqueues the query for background
    /// reorganization.
    pub fn select_collect(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> Vec<V> {
        let out = self.snapshot().select_collect(q, tracker);
        self.hint_reorganize(q);
        out
    }

    /// One-pass `SUM(v) WHERE v IN q` against the current snapshot
    /// (pruned — see [`StrategySnapshot::select_sum`]), enqueuing the
    /// query for background reorganization.
    pub fn select_sum(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> f64 {
        let total = self.snapshot().select_sum(q, tracker);
        self.hint_reorganize(q);
        total
    }

    /// Fused `MIN/MAX(v) WHERE v IN q` against the current snapshot
    /// (pruned — see [`StrategySnapshot::select_min_max`]), enqueuing the
    /// query for background reorganization.
    pub fn select_min_max(
        &self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> Option<(V, V)> {
        let out = self.snapshot().select_min_max(q, tracker);
        self.hint_reorganize(q);
        out
    }

    /// As [`Self::select_count`], behind an [`AdmissionGate`]: the query
    /// first acquires a permit (queueing up to its deadline) and holds it
    /// for the duration of the scan.
    ///
    /// # Errors
    /// [`QueryError::Shed`] when refused outright,
    /// [`QueryError::DeadlineExceeded`] when the queue wait timed out.
    pub fn select_count_gated(
        &self,
        gate: &AdmissionGate,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> Result<Admitted<u64>, QueryError> {
        let _permit = gate.admit()?;
        Ok(Admitted {
            value: self.select_count(q, tracker),
        })
    }

    /// The writer's cumulative reorganization accounting as of the
    /// current snapshot, with this column's dropped-hint backpressure
    /// count folded into
    /// [`reorg_hints_dropped`](QueryStats::reorg_hints_dropped).
    pub fn reorg_totals(&self) -> QueryStats {
        let mut totals = self.snapshot().reorg_totals();
        totals.reorg_hints_dropped += self.hints_dropped.load(Ordering::Relaxed);
        totals
    }

    /// Starts a background migration to the strategy `spec` describes: the
    /// writer rebuilds the column from a content snapshot and publishes
    /// the swap as the next epoch, while readers keep answering from the
    /// old organization. Returns immediately; [`Self::quiesce`] is the
    /// explicit completion barrier.
    pub fn set_strategy(&self, spec: StrategySpec) {
        let _ = self.sender().send(WriterCmd::Migrate(spec));
    }

    /// Queues a batch of pending writes for the writer to seal, coalesce
    /// into the sorted [`DeltaRun`] and overlay on the next published epoch.
    /// Readers see the batch once that epoch publishes
    /// ([`Self::quiesce`] is the visibility barrier); the writer folds it
    /// into the base incrementally under the compaction watermarks.
    /// Unlike reorganization hints, deltas are *data*: a full writer
    /// queue blocks the sender instead of dropping.
    pub fn apply_deltas(&self, batch: DeltaBatch<V>) {
        if batch.is_empty() {
            return;
        }
        let _ = self.sender().send(WriterCmd::Deltas(batch));
    }

    /// Pending delta rows visible in the current snapshot's overlay.
    pub fn pending_delta_rows(&self) -> u64 {
        self.snapshot().pending_delta_rows()
    }

    /// Folds **every** pending row into the base in one step and blocks
    /// until the resulting epoch publishes — the bulk merge the benchmarks
    /// baseline incremental compaction against, and the barrier to call
    /// before [`Self::into_strategy`] when the handed-back strategy must
    /// hold the folded rows. Over a strategy that cannot absorb deltas
    /// (see [`Self::new`]) this degrades to a sync barrier.
    pub fn drain_deltas(&self) {
        let (reply, done) = mpsc::sync_channel(1);
        if self.sender().send(WriterCmd::Drain(reply)).is_ok() {
            let _ = done.recv();
        }
    }

    /// Blocks until every command enqueued before this call has been
    /// folded and its epoch published — the determinism barrier tests and
    /// benchmarks use; readers never need it.
    pub fn quiesce(&self) {
        let (reply, done) = mpsc::sync_channel(1);
        if self.sender().send(WriterCmd::Sync(reply)).is_ok() {
            let _ = done.recv();
        }
    }

    /// Shuts the writer down and hands the (fully folded) strategy back —
    /// the hand-off layers use to move a column between execution modes.
    /// Pending delta rows are **not** folded on the way out; call
    /// [`Self::drain_deltas`] first when the handed-back strategy must
    /// hold them.
    pub fn into_strategy(mut self) -> Box<dyn ColumnStrategy<V>> {
        self.tx.take();
        #[expect(
            clippy::expect_used,
            reason = "writer is taken exactly once: into_strategy consumes self"
        )]
        let writer = self.writer.take().expect("writer joined exactly once");
        match writer.join() {
            Ok(strategy) => strategy,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl<V: ColumnValue> Drop for ConcurrentColumn<V> {
    fn drop(&mut self) {
        self.tx.take(); // closes the channel; the writer drains and exits
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{run_in, DeltaOp};
    use crate::spec::StrategyKind;
    use crate::tracker::NullTracker;

    fn domain() -> ValueRange<u32> {
        ValueRange::must(0, 9_999)
    }

    fn values() -> Vec<u32> {
        (0..6_000u32).map(|i| (i * 7919) % 10_000).collect()
    }

    fn queries() -> Vec<ValueRange<u32>> {
        (0..40)
            .map(|i| {
                let lo = (i * 577) % 9_000;
                ValueRange::must(lo, lo + 750)
            })
            .collect()
    }

    /// A batch inserting `values` as the rows `first_oid..`.
    fn insert_batch(first_oid: u64, values: impl IntoIterator<Item = u32>) -> DeltaBatch<u32> {
        let mut batch = DeltaBatch::new();
        for (oid, value) in (first_oid..).zip(values) {
            batch.push(DeltaOp::Insert { oid, value });
        }
        batch
    }

    #[test]
    fn counts_match_serial_for_every_kind() {
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(5);
            let mut serial = spec.build(domain(), values()).expect("values in domain");
            let concurrent =
                ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
            for q in queries() {
                let expect = serial.select_count(&q, &mut NullTracker);
                assert_eq!(
                    concurrent.select_count(&q, &mut NullTracker),
                    expect,
                    "{kind:?} diverged on {q:?}"
                );
            }
            concurrent.quiesce();
            let snap = concurrent.snapshot();
            snap.validate().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(snap.total_rows(), 6_000, "{kind:?} lost rows");
        }
    }

    #[test]
    fn collect_is_the_sorted_serial_result() {
        let spec = StrategySpec::new(StrategyKind::Cracking);
        let mut serial = spec.build(domain(), values()).expect("values in domain");
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        for q in queries() {
            serial.select_count(&q, &mut NullTracker);
            let mut expect = serial.peek_collect(&q);
            expect.sort_unstable();
            assert_eq!(concurrent.select_collect(&q, &mut NullTracker), expect);
        }
    }

    #[test]
    fn reorganization_folds_in_the_background() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        assert_eq!(concurrent.epoch(), 0);
        assert_eq!(concurrent.snapshot().adaptation(), Default::default());
        for q in queries() {
            concurrent.select_count(&q, &mut NullTracker);
        }
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert!(snap.epoch() >= 1, "folding must have published epochs");
        assert!(snap.adaptation().splits > 0, "the workload must split");
        assert!(
            snap.reorg_totals().write_bytes > 0,
            "reorganization writes must be accounted"
        );
        // The folded strategy is the serial one: handing it back and
        // re-running the queries serially changes nothing.
        let mut strategy = concurrent.into_strategy();
        for q in queries() {
            let expect = values().iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(strategy.select_count(&q, &mut NullTracker), expect);
        }
    }

    #[test]
    fn epochs_share_unchanged_pieces() {
        let spec = StrategySpec::new(StrategyKind::Cracking);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        concurrent.select_count(&ValueRange::must(4_000, 5_999), &mut NullTracker);
        concurrent.quiesce();
        let before = concurrent.snapshot();
        // A second crack inside [0, 3999] cannot touch the [6000, 9999]
        // side: its pieces must ride into the new epoch as the same Arcs.
        concurrent.select_count(&ValueRange::must(1_000, 1_999), &mut NullTracker);
        concurrent.quiesce();
        let after = concurrent.snapshot();
        assert!(after.epoch() > before.epoch());
        let shared = after
            .pieces
            .iter()
            .filter(|p| {
                before
                    .piece_with_range(&p.range)
                    .is_some_and(|old| Arc::ptr_eq(&old.values, &p.values))
            })
            .count();
        assert!(
            shared > 0,
            "unchanged pieces must be structurally shared across epochs"
        );

        // A fold is piece-local too: the one piece owning the folded value
        // is re-extracted, every other piece rides along as the same Arc,
        // and no boundary moves.
        concurrent.apply_deltas(insert_batch(900_000, [7_777]));
        concurrent.drain_deltas();
        let folded = concurrent.snapshot();
        assert_eq!(folded.pending_delta_rows(), 0);
        assert_eq!(folded.piece_ranges(), after.piece_ranges());
        assert_eq!(folded.segment_count(), after.segment_count());
        assert_eq!(folded.total_rows(), after.total_rows() + 1);
        for (old, new) in after.pieces.iter().zip(&folded.pieces) {
            assert_eq!(
                Arc::ptr_eq(&old.values, &new.values),
                !new.range.contains(7_777),
                "piece {:?}",
                new.range
            );
        }
    }

    #[test]
    fn set_strategy_migrates_in_the_background() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        for q in queries().into_iter().take(10) {
            concurrent.select_count(&q, &mut NullTracker);
        }
        concurrent.quiesce();
        let adaptation_before = concurrent.snapshot().adaptation();
        concurrent.set_strategy(StrategySpec::new(StrategyKind::FullSort));
        // Readers keep answering correctly whether they hit the old or the
        // new epoch.
        let q = ValueRange::must(2_500, 7_499);
        let expect = values().iter().filter(|v| q.contains(**v)).count() as u64;
        assert_eq!(concurrent.select_count(&q, &mut NullTracker), expect);
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert_eq!(snap.name(), "FullSort", "migration must have landed");
        assert_eq!(snap.total_rows(), 6_000);
        assert_eq!(snap.failed_migrations(), 0);
        // Retired adaptation history survives the swap.
        assert!(snap.adaptation().splits >= adaptation_before.splits);
        assert_eq!(concurrent.select_count(&q, &mut NullTracker), expect);
    }

    #[test]
    fn migrating_a_column_cracked_below_its_data_keeps_every_row() {
        // Cracking [10, 20] over 100..199 leaves an empty piece below the
        // data; the migration reads the column through `peek_collect`,
        // which used to return none of its rows.
        let values: Vec<u32> = (100..200).collect();
        let concurrent = ConcurrentColumn::from_spec(
            &StrategySpec::new(StrategyKind::Cracking),
            domain(),
            values,
        )
        .expect("values in domain");
        assert_eq!(
            concurrent.select_count(&ValueRange::must(10, 20), &mut NullTracker),
            0
        );
        concurrent.quiesce();
        concurrent.set_strategy(StrategySpec::new(StrategyKind::FullSort));
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert_eq!(snap.name(), "FullSort");
        assert_eq!(snap.total_rows(), 100);
        assert_eq!(concurrent.select_count(&domain(), &mut NullTracker), 100);
    }

    #[test]
    fn concurrent_readers_race_the_writer_safely() {
        let spec = StrategySpec::new(StrategyKind::GdSegm).with_model_seed(9);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let expect: Vec<u64> = queries()
            .iter()
            .map(|q| values().iter().filter(|v| q.contains(**v)).count() as u64)
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (q, &e) in queries().iter().zip(&expect) {
                        assert_eq!(concurrent.select_count(q, &mut NullTracker), e);
                    }
                });
            }
        });
        concurrent.quiesce();
        concurrent.snapshot().validate().unwrap();
    }

    /// A converged column: the workload has split it into many pieces.
    /// Wrapped bare — folding deltas needs no spec to rebuild under.
    fn converged_column() -> ConcurrentColumn<u32> {
        let strategy = StrategySpec::new(StrategyKind::ApmSegm)
            .with_apm_bounds(256, 1024)
            .with_model_seed(3)
            .build(domain(), values())
            .expect("values in domain");
        let concurrent = ConcurrentColumn::new(strategy, domain());
        for q in queries() {
            concurrent.select_count(&q, &mut NullTracker);
        }
        concurrent.quiesce();
        concurrent
    }

    /// A converged snapshot to exercise pruning against.
    fn converged() -> Arc<StrategySnapshot<u32>> {
        converged_column().snapshot()
    }

    #[test]
    fn pruned_reads_charge_skip_not_scan() {
        let snap = converged();
        assert!(snap.pieces.len() > 4, "workload must have split the column");
        let q = ValueRange::must(2_000, 2_500);
        let mut tracker = CountingTracker::new();
        let n = snap.select_count(&q, &mut tracker);
        assert_eq!(
            n,
            values().iter().filter(|v| q.contains(**v)).count() as u64
        );
        let stats = tracker.query_stats();
        // The narrow query must have pruned or covered something, and the
        // unpruned cost must be reconstructible from one pruned run.
        assert!(stats.segments_pruned > 0, "zone maps must prune pieces");
        assert_eq!(
            stats.unpruned_read_bytes(),
            stats.read_bytes + stats.pruned_bytes
        );
        assert!(stats.read_bytes < stats.unpruned_read_bytes());
    }

    #[test]
    fn select_sum_is_bit_identical_to_an_unpruned_walk() {
        let snap = converged();
        for q in queries() {
            let unpruned: f64 = snap
                .overlapping(&q)
                .map(|p| kernels::sum_range(&p.values, &q))
                .sum();
            let pruned = snap.select_sum(&q, &mut NullTracker);
            assert_eq!(
                pruned.to_bits(),
                unpruned.to_bits(),
                "pruned sum diverged on {q:?}"
            );
        }
    }

    #[test]
    fn select_min_max_matches_naive_filter() {
        let snap = converged();
        for q in queries() {
            let inside: Vec<u32> = values().into_iter().filter(|v| q.contains(*v)).collect();
            let expect = inside
                .iter()
                .min()
                .copied()
                .zip(inside.iter().max().copied());
            assert_eq!(snap.select_min_max(&q, &mut NullTracker), expect, "{q:?}");
        }
        // A query matching nothing is None, not a panic.
        let empty_band = ValueRange::must(0, 0);
        let expect_empty = values().contains(&0).then_some((0, 0));
        assert_eq!(
            snap.select_min_max(&empty_band, &mut NullTracker),
            expect_empty
        );
    }

    #[test]
    fn full_writer_queue_drops_hints_and_counts_them() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm);
        let strategy = spec.build(domain(), values()).expect("values in domain");
        let concurrent = ConcurrentColumn::with_queue_capacity(strategy, domain(), 1);
        // Saturate the queue far past its bound: answers stay correct,
        // nothing blocks, and the overflow is counted, not lost silently.
        for q in queries().iter().cycle().take(5_000) {
            let _ = concurrent.select_count(q, &mut NullTracker);
        }
        assert!(
            concurrent.reorg_hints_dropped() > 0,
            "a capacity-1 queue under 5k hints must have dropped some"
        );
        let totals = concurrent.reorg_totals();
        assert_eq!(totals.reorg_hints_dropped, concurrent.reorg_hints_dropped());
        // Dropped hints are advisory: the column still folds and validates.
        concurrent.quiesce();
        concurrent.snapshot().validate().unwrap();
    }

    #[test]
    fn gated_reads_match_ungated_and_respect_capacity() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let gate = AdmissionGate::new(crate::admission::AdmissionConfig::with_in_flight(2));
        for q in queries() {
            let expect = concurrent.snapshot().select_count(&q, &mut NullTracker);
            let got = concurrent
                .select_count_gated(&gate, &q, &mut NullTracker)
                .expect("uncontended gate admits");
            assert_eq!(got.value, expect);
        }
        assert_eq!(gate.in_flight(), 0, "permits release on drop");
        assert_eq!(gate.stats().admitted, queries().len() as u64);
    }

    #[test]
    fn deltas_are_visible_in_every_read() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let mut expected: Vec<u32> = values();
        let rows: Vec<u32> = (0..100).map(|i| (i * 97) % 10_000).collect();
        let mut batch = insert_batch(1_000_000, rows.clone());
        for oid in 0..50u64 {
            batch.push(DeltaOp::Delete {
                oid,
                value: expected[oid as usize],
            });
        }
        for oid in 50..80u64 {
            let old = expected[oid as usize];
            let new = (old + 137) % 10_000;
            batch.push(DeltaOp::Update { oid, old, new });
            expected[oid as usize] = new;
        }
        expected.extend(rows);
        expected.drain(0..50);
        concurrent.apply_deltas(batch);
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert!(snap.delta_runs() >= 1, "the overlay must be pending");
        assert!(snap.pending_delta_rows() > 0);
        snap.validate().unwrap();
        for q in queries() {
            let mut inside: Vec<u32> = expected
                .iter()
                .copied()
                .filter(|v| q.contains(*v))
                .collect();
            inside.sort_unstable();
            assert_eq!(
                snap.select_count(&q, &mut NullTracker),
                inside.len() as u64,
                "count diverged on {q:?}"
            );
            assert_eq!(
                snap.select_collect(&q, &mut NullTracker),
                inside,
                "collect diverged on {q:?}"
            );
            // Integer-valued sums below 2^53 are exact in f64.
            let sum: f64 = inside.iter().map(|v| f64::from(*v)).sum();
            assert_eq!(
                snap.select_sum(&q, &mut NullTracker),
                sum,
                "sum diverged on {q:?}"
            );
            let expect_mm = inside.first().copied().zip(inside.last().copied());
            assert_eq!(
                snap.select_min_max(&q, &mut NullTracker),
                expect_mm,
                "min/max diverged on {q:?}"
            );
        }
    }

    #[test]
    fn a_delta_read_charges_the_rows_it_touches() {
        use crate::tracker::{EventLog, TrackerEvent as E};

        let spec = StrategySpec::new(StrategyKind::FullSort);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let overlay_event = |q: ValueRange<u32>| {
            let mut log = EventLog::new();
            let _ = concurrent.snapshot().select_count(&q, &mut log);
            log.events().last().copied()
        };
        concurrent.apply_deltas(insert_batch(900_000, [9_990, 9_995]));
        concurrent.quiesce();
        let run = concurrent.snapshot().delta.clone().expect("pending");
        // The zone maps prune the run: a skip of its whole footprint.
        let low = ValueRange::must(0u32, 50);
        assert_eq!(overlay_event(low), Some(E::Skip(run.id(), 8)));

        concurrent.apply_deltas(insert_batch(900_002, [5]));
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert_eq!(snap.delta_runs(), 1, "batches coalesce into one run");
        // The low query touches one of the run's three rows and is
        // charged that row, not the run.
        assert_eq!(overlay_event(low), Some(E::DeltaScan(run.id(), 4)));
        let mut t = CountingTracker::new();
        t.begin_query();
        let _ = snap.select_count(&low, &mut t);
        let s = t.query_stats();
        assert_eq!(s.delta_read_bytes, 4, "exactly the one qualifying u32");
        assert!(
            s.read_bytes >= s.delta_read_bytes,
            "delta reads are a sub-attribution of reads"
        );
        // Between the rows the zone maps still overlap: the probe runs,
        // finds nothing and charges nothing.
        let between = ValueRange::must(4_000u32, 4_100);
        assert_eq!(overlay_event(between), Some(E::DeltaScan(run.id(), 0)));
    }

    #[test]
    fn batches_coalesce_into_one_run_that_answers_like_the_reference() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let mut expected = values();
        for round in 0..130u32 {
            let rows: Vec<u32> = (0..4).map(|i| (round * 389 + i * 53) % 10_000).collect();
            let mut batch = insert_batch(2_000_000 + u64::from(round) * 4, rows.clone());
            // One base row leaves per batch, too.
            batch.push(DeltaOp::Delete {
                oid: u64::from(round),
                value: expected[0],
            });
            expected.remove(0);
            expected.extend(rows);
            concurrent.apply_deltas(batch);
            concurrent.quiesce();
        }
        let snap = concurrent.snapshot();
        assert_eq!(snap.delta_runs(), 1, "130 batches, one run");
        let pending = snap.pending_delta_rows();
        assert!(0 < pending && pending <= 130 * 5, "equal values may cancel");
        snap.validate().unwrap();
        expected.sort_unstable();
        for q in queries() {
            let inside = run_in(&expected, &q);
            assert_eq!(snap.select_count(&q, &mut NullTracker), inside.len() as u64);
            assert_eq!(snap.select_collect(&q, &mut NullTracker), inside, "{q:?}");
            let sum: f64 = inside.iter().map(|v| f64::from(*v)).sum();
            assert_eq!(snap.select_sum(&q, &mut NullTracker), sum, "{q:?}");
            let min_max = inside.first().copied().zip(inside.last().copied());
            assert_eq!(snap.select_min_max(&q, &mut NullTracker), min_max, "{q:?}");
        }
    }

    #[test]
    fn a_pending_insert_and_a_later_delete_of_it_cancel() {
        let spec = StrategySpec::new(StrategyKind::FullSort);
        let concurrent =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let absent = (0..10_000u32)
            .find(|v| !values().contains(v))
            .expect("6000 rows leave gaps in a 10000-value domain");
        let only = ValueRange::must(absent, absent);
        concurrent.apply_deltas(insert_batch(900_000, [absent, absent, 7]));
        concurrent.quiesce();
        assert_eq!(concurrent.pending_delta_rows(), 3);
        assert_eq!(
            concurrent
                .snapshot()
                .select_collect(&only, &mut NullTracker),
            [absent, absent]
        );

        let mut batch = DeltaBatch::new();
        batch.push(DeltaOp::Delete {
            oid: 900_001,
            value: absent,
        });
        concurrent.apply_deltas(batch);
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert_eq!(snap.pending_delta_rows(), 2, "3 + 1 arrived, 2 cancelled");
        assert_eq!(snap.select_count(&only, &mut NullTracker), 1);
        assert_eq!(snap.select_collect(&only, &mut NullTracker), [absent]);
        snap.validate().unwrap();

        // An update to the value a row already holds seals to nothing:
        // no run, no publish.
        let mut batch = DeltaBatch::new();
        batch.push(DeltaOp::Update {
            oid: 900_002,
            old: 7,
            new: 7,
        });
        concurrent.apply_deltas(batch);
        concurrent.quiesce();
        assert_eq!(concurrent.epoch(), snap.epoch());

        // The overlay can cancel away entirely; the fold sees none of it.
        let mut batch = DeltaBatch::new();
        for (oid, value) in [(900_000, absent), (900_002, 7)] {
            batch.push(DeltaOp::Delete { oid, value });
        }
        concurrent.apply_deltas(batch);
        concurrent.drain_deltas();
        let snap = concurrent.snapshot();
        assert_eq!((snap.delta_runs(), snap.pending_delta_rows()), (0, 0));
        assert_eq!(snap.unmatched_tombstones(), 0);
        assert_eq!(snap.total_rows(), 6_000);
    }

    #[test]
    fn incremental_compaction_folds_runs_and_charges_reorg() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let policy = CompactionPolicy::new(64, 16, 32);
        let concurrent = ConcurrentColumn::from_spec_with_policy(&spec, domain(), values(), policy)
            .expect("values in domain");
        let mut expected = values();
        for round in 0..20u32 {
            let rows: Vec<u32> = (0..10).map(|i| (round * 389 + i * 53) % 10_000).collect();
            expected.extend(&rows);
            concurrent.apply_deltas(insert_batch(500_000 + u64::from(round) * 10, rows));
            concurrent.quiesce();
        }
        // 200 rows arrived; with start_above=64 the writer must have been
        // folding along the way instead of accumulating everything.
        let snap = concurrent.snapshot();
        assert!(
            snap.pending_delta_rows() < 200,
            "compaction must have folded runs (pending {})",
            snap.pending_delta_rows()
        );
        assert!(
            snap.reorg_totals().write_bytes > 0,
            "folds charge reorganization writes"
        );
        snap.validate().unwrap();
        // Answers include both folded and still-pending rows.
        for q in queries().into_iter().take(10) {
            let expect = expected.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(snap.select_count(&q, &mut NullTracker), expect, "{q:?}");
        }
        // The handed-back strategy holds exactly the folded rows; the
        // still-pending remainder lives in the overlay.
        let pending = concurrent.pending_delta_rows();
        let folded = concurrent.into_strategy();
        assert_eq!(
            folded.peek_collect(&ValueRange::must(0, 9_999)).len() as u64 + pending,
            expected.len() as u64
        );
    }

    #[test]
    fn drain_folds_everything_and_keeps_the_organization() {
        let concurrent = converged_column();
        let before = concurrent.snapshot();
        assert!(before.segment_count() > 4, "the workload must have split");
        // Past the default start watermark: the writer compacts on its own
        // (the column has no spec — none is needed); the drain finishes.
        let rows: Vec<u32> = (0..5_000u32).map(|i| (i * 7_919) % 10_000).collect();
        let mut expected = values();
        expected.extend(&rows);
        let mut batch = insert_batch(600_000, rows);
        for (oid, value) in (0..).zip(expected.drain(0..300)) {
            batch.push(DeltaOp::Delete { oid, value });
        }
        concurrent.apply_deltas(batch);
        concurrent.quiesce();
        assert!(concurrent.pending_delta_rows() < 5_300, "must compact");
        concurrent.drain_deltas();
        let snap = concurrent.snapshot();
        assert_eq!(snap.pending_delta_rows(), 0, "drain folds everything");
        assert_eq!(snap.total_rows(), expected.len() as u64);
        // The organization the queries earned survives the writes.
        assert_eq!(snap.segment_count(), before.segment_count());
        assert_eq!(snap.piece_ranges(), before.piece_ranges());
        assert_eq!(snap.adaptation(), before.adaptation());
        assert_eq!(snap.unmatched_tombstones(), 0);
        for q in queries() {
            let expect = expected.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(snap.select_count(&q, &mut NullTracker), expect, "{q:?}");
        }
        snap.validate().unwrap();
    }

    #[test]
    fn a_stray_tombstone_is_counted_and_changes_nothing() {
        let concurrent = converged_column();
        let before = concurrent.snapshot();
        let absent = (0..10_000u32)
            .find(|v| !values().contains(v))
            .expect("6000 rows leave gaps in a 10000-value domain");
        let mut batch = DeltaBatch::new();
        batch.push(DeltaOp::Delete {
            oid: 123_456,
            value: absent,
        });
        concurrent.apply_deltas(batch);
        concurrent.drain_deltas();
        let snap = concurrent.snapshot();
        assert_eq!(snap.unmatched_tombstones(), 1, "the stray must be counted");
        assert_eq!(snap.pending_delta_rows(), 0);
        assert_eq!(snap.total_rows(), before.total_rows());
        assert_eq!(snap.piece_ranges(), before.piece_ranges());
        assert_eq!(
            snap.select_collect(&domain(), &mut NullTracker),
            before.select_collect(&domain(), &mut NullTracker)
        );
        snap.validate().unwrap();
    }

    #[test]
    fn saturating_hints_cannot_starve_folds_publishes_or_barriers() {
        use std::sync::atomic::AtomicBool;

        let spec = StrategySpec::new(StrategyKind::NoSegm);
        let policy = CompactionPolicy::new(64, 16, 32);
        let concurrent = ConcurrentColumn::from_spec_with_policy(&spec, domain(), values(), policy)
            .expect("values in domain");
        let stop = AtomicBool::new(false);
        let q = ValueRange::must(1_000u32, 1_999);
        // Asserted after the scope: a panic inside it would leave the
        // reader spinning and the scope's join hanging.
        let (mut worst_pending, mut all_visible) = (0, true);
        std::thread::scope(|s| {
            // Each hint costs the writer a full scan of the unsegmented
            // column and the reader only a try_send: the queue never runs
            // empty, which used to keep the writer inside one epoch forever.
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    concurrent.hint_reorganize(&q);
                }
            });
            for round in 0..40u32 {
                let rows = (0..10).map(|i| (round * 389 + i * 53) % 10_000);
                concurrent.apply_deltas(insert_batch(800_000 + u64::from(round) * 10, rows));
                concurrent.quiesce();
                let snap = concurrent.snapshot();
                let pending = snap.pending_delta_rows();
                worst_pending = pending.max(worst_pending);
                all_visible &= snap.total_rows() + pending == 6_010 + u64::from(round) * 10;
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(
            all_visible,
            "every quiesce must publish the batch before it"
        );
        assert!(worst_pending <= policy.start_above() + policy.rows_per_step());
        assert!(concurrent.reorg_hints_dropped() > 0, "the reader saturated");
    }

    /// One walk serves every read: pieces in value order, then the one run,
    /// the same events whichever read asks — except that a collect moves
    /// covered pieces, so their skip becomes a scan.
    #[test]
    fn every_read_charges_the_one_walk() {
        use crate::tracker::{EventLog, TrackerEvent as E};

        let q = ValueRange::must(2_000u32, 5_499);
        // Three batches, one run: two of its rows qualify, the last does not.
        let rows = [(700_000, 2_500), (700_001, 4_000), (700_002, 9_990)];
        for (kind, pending) in StrategyKind::ALL.into_iter().flat_map(|k| [(k, 0), (k, 3)]) {
            let spec = StrategySpec::new(kind).with_apm_bounds(256, 1024);
            let column =
                ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
            for q in queries() {
                column.select_count(&q, &mut NullTracker);
            }
            for (oid, value) in rows.into_iter().take(pending) {
                column.apply_deltas(insert_batch(oid, [value]));
                column.quiesce();
            }
            column.quiesce();
            let snap = column.snapshot();
            assert_eq!(snap.pending_delta_rows(), pending as u64, "{kind:?}");
            let expected = |reads_covered: bool| -> Vec<E> {
                let piece = |p: &SnapshotPiece<u32>| match p.synopsis.map(|s| s.classify(&q)) {
                    Some(SynopsisClass::Straddle) => E::Scan(p.id, p.bytes),
                    Some(SynopsisClass::Covered) if reads_covered => E::Scan(p.id, p.bytes),
                    _ => E::Skip(p.id, p.bytes),
                };
                let run = |r: &DeltaRun<u32>| {
                    E::DeltaScan(r.id(), run_in(r.inserts(), &q).len() as u64 * 4)
                };
                let pieces = snap.overlapping(&q).map(piece);
                pieces.chain(snap.delta.iter().map(run)).collect()
            };
            assert!(kind != StrategyKind::ApmSegm || expected(true) != expected(false));
            let mut logs = [(); 4].map(|()| EventLog::new());
            let _ = snap.select_count(&q, &mut logs[0]);
            let _ = snap.select_sum(&q, &mut logs[1]);
            let _ = snap.select_min_max(&q, &mut logs[2]);
            let _ = snap.select_collect(&q, &mut logs[3]);
            for (read, log) in ["count", "sum", "min/max", "collect"]
                .into_iter()
                .zip(&logs)
            {
                let case = format!("{read}, {kind:?}, {pending} runs");
                assert_eq!(log.events(), expected(read == "collect"), "{case}");
            }
        }
    }

    #[test]
    fn tile_domain_fills_gaps_and_edges() {
        let d = ValueRange::must(0u32, 99);
        let tiled = tile_domain(d, vec![ValueRange::must(10, 19), ValueRange::must(40, 59)]);
        assert_eq!(
            tiled,
            vec![
                ValueRange::must(0, 9),
                ValueRange::must(10, 19),
                ValueRange::must(20, 39),
                ValueRange::must(40, 59),
                ValueRange::must(60, 99),
            ]
        );
        assert_eq!(tile_domain(d, Vec::new()), vec![d]);
        assert_eq!(tile_domain(d, vec![d]), vec![d]);
    }
}
