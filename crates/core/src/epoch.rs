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
//!   each piece an ascending, immutable [`Window`] of values. Any number of
//!   threads read one snapshot concurrently; a snapshot never changes.
//! * [`ConcurrentColumn`] owns the actual (mutable) strategy on a **single
//!   writer thread**. Readers answer `select_count` / `select_collect` /
//!   `select_sum` / `select_min_max` against the current snapshot and
//!   merely *enqueue* the query for the writer, which folds the strategy's
//!   own reorganization (split, crack, replicate — Algorithm 1/2
//!   unchanged) off the read path and publishes the next epoch whenever
//!   a query reorganized something. Publishing
//!   swaps one `Arc` under a short-lived write lock; readers never wait for
//!   reorganization or for a [`ConcurrentColumn::set_strategy`] migration.
//!
//! **One copy of the column.** A segment-based strategy (the adaptive
//! segmentations, with or without a merge policy, and both baselines)
//! shares its pieces ([`ColumnStrategy::share_sorted`]): it sorts each
//! segment in its own buffer once, and every snapshot piece *is* the
//! segment's window, so the served column is held once, not as the
//! strategy's payload plus a sorted copy. Sorted segments stay immutable:
//! a split windows the same buffer and copies nothing, and a fold writes
//! the one piece it touches into a fresh buffer while readers keep the old
//! one. Cracking, the replica trees and the sharded column decline, and
//! are served from a sorted copy of each piece instead.
//!
//! Epochs share structure. A shared piece whose window is the very one
//! the previous epoch served keeps its id and synopsis, so an unchanged
//! piece costs O(1) to publish. On the copy path, reorganization is
//! purely physical, so a piece whose value range is unchanged between two
//! epochs holds byte-identical content unless a delta fold put a value
//! inside that range — and the writer knows which values it folded. The
//! new snapshot reuses the old piece's window for every such range and
//! re-extracts only the rest: a crack re-materializes one piece's
//! successors, a fold of 1024 rows at most 1024 pieces.
//!
//! Every piece carries a [`PieceSynopsis`] zone map, so reads prune:
//! disjoint pieces charge [`AccessTracker::skip`] (zero scan bytes, with
//! the pruned cost still reconstructible as `read + pruned`), covered
//! pieces answer counts and sums O(1) from the stored aggregates, and only
//! straddling pieces scan — the pieces being sorted, a binary search for
//! each end of the qualifying run the zone map leaves open (a query that
//! reaches the piece's minimum or maximum settles that end for free),
//! and a collect copies every qualifying slice once into a result sized
//! for all of them. All four reads are folds over one private walk, so
//! they charge the same events in the same order: pieces by value, then
//! the delta run.
//!
//! Pending writes overlay the base as **one** immutable sorted
//! [`DeltaRun`] (see [`crate::delta`]) the writer coalesces every arriving
//! batch into: a read makes one zone-map test and one pair of binary
//! searches, folds the qualifying rows in on the fly (merge-on-read) and
//! is charged those rows, not the run; the writer *compacts* the head of
//! the run into the base a bounded number of rows per reorganization step,
//! between hysteresis watermarks: folding starts at 4 096 pending rows,
//! moves 1 024 rows per step and stops at 1 024. A fold is **piece-local**
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
//! a strategy's [`ColumnStrategy::peek_slices`] exposes after the same
//! queries is an epoch-dependent artifact, so the concurrent column
//! normalizes it; sorting the serial peek yields the identical sequence.
//! The model harness `tests/model/mod.rs` (run by
//! `concurrent_equivalence.rs` and others) checks both against the
//! logical column, for all nine strategy kinds and over a sharded column,
//! with two readers racing the writer's hints between writes, drains,
//! migrations and restores; the crate's own `tests::racing_compaction`
//! proves that readers racing the writer's fold steps observe only exact
//! batch-prefix states.
//!
//! All of the writer's work is one `Writer::step` per epoch.
//! [`SteppedColumn`] is the writer and its snapshot cell, stepped by its
//! owner on the owner's thread: the MAL catalog serves each segmented
//! column this way, and the crate's tests observe the writer
//! deterministically through it. The writer thread of a
//! [`ConcurrentColumn`] is one more driver of the same column: it only
//! receives the readers' commands and steps them.
//!
//! The snapshot's `walk` is the one materializing read of this layer: a
//! strategy materializes only through `peek_slices` (copied out by
//! `peek_collect`), which is how a declining strategy's snapshot piece is
//! extracted and how a migration reads the column it rebuilds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::thread;

use crate::admission::{AdmissionGate, Admitted, QueryError};
use crate::column::ColumnError;
use crate::delta::{run_in, CompactionPolicy, DeltaBatch, DeltaRun};
use crate::kernels;
use crate::range::ValueRange;
use crate::segment::{SegId, SegIdGen, Window};
use crate::spec::StrategySpec;
use crate::strategy::ColumnStrategy;
use crate::synopsis::{PieceSynopsis, SynopsisClass};
use crate::tracker::{AccessTracker, CountingTracker, QueryStats};
use crate::validate::Violation;
use crate::value::ColumnValue;

/// One frozen piece of a snapshot: a value range and the column's values
/// inside it, in ascending order, shared across epochs while the range
/// survives reorganization.
#[derive(Clone)]
struct SnapshotPiece<V: ColumnValue> {
    range: ValueRange<V>,
    /// Ascending values: a window of the strategy's own sorted segment
    /// buffer when the strategy shares one, else of a sorted copy. Shared
    /// either way, so unchanged pieces ride into the next epoch without
    /// copying.
    values: Window<V>,
    /// Stable scan-attribution id: reused along with the values, so a
    /// downstream tracker (buffer simulation) sees the same segment
    /// identity for the same physical piece across epochs.
    id: SegId,
    bytes: u64,
    /// Zone map over the frozen values, computed once when the piece is
    /// first frozen (the values are sorted, so bounds are the ends) and
    /// carried across epochs with the values it describes.
    synopsis: Option<PieceSynopsis<V>>,
}

impl<V: ColumnValue> SnapshotPiece<V> {
    fn new(range: ValueRange<V>, values: Window<V>, id: SegId) -> Self {
        SnapshotPiece {
            range,
            bytes: values.len() as u64 * V::BYTES,
            synopsis: PieceSynopsis::from_sorted(&values),
            values,
            id,
        }
    }

    /// A sorted copy of the strategy's values in `range`: the path of a
    /// strategy that does not share its pieces.
    fn extract(strategy: &dyn ColumnStrategy<V>, range: ValueRange<V>, id: SegId) -> Self {
        let mut values = strategy.peek_collect(&range);
        values.sort_unstable();
        Self::new(range, Window::new(values), id)
    }
}

/// An immutable epoch of a column's physical organization.
///
/// Produced and published by the writer of a [`SteppedColumn`] (or of
/// the [`ConcurrentColumn`] it runs as); shared by readers through an
/// `Arc`. All read methods take `&self` and are safe to
/// call from any number of threads at once.
pub struct StrategySnapshot<V: ColumnValue> {
    /// Monotonic epoch number; 0 is the construction snapshot.
    epoch: u64,
    /// Sorted, disjoint pieces tiling the domain.
    pieces: Vec<SnapshotPiece<V>>,
    domain: ValueRange<V>,
    name: String,
    segment_count: usize,
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

    /// The run of a piece `q` straddles: [`Self::of`], minus the search
    /// the piece's zone map settles. A query reaching down to the piece's
    /// minimum starts the run at 0 and one reaching up to its maximum ends
    /// it at the end, so only the other end is binary-searched; a query
    /// inside the piece searches both ends, independently (see
    /// [`kernels::sorted_run`]).
    fn of_straddled(sorted: &'a [V], q: &ValueRange<V>, synopsis: &PieceSynopsis<V>) -> Self {
        let (start, end) = if q.lo() <= synopsis.min() {
            (0, sorted.partition_point(|x| *x <= q.hi()))
        } else if synopsis.max() <= q.hi() {
            (sorted.partition_point(|x| *x < q.lo()), sorted.len())
        } else {
            kernels::sorted_run(sorted, q)
        };
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

/// Extends `live` (the sorted, disjoint ranges of a strategy's `pieces()`)
/// into a partition tiling all of `domain`, so no value can fall between
/// pieces: the first piece reaches down to the domain's floor and the last
/// up to its top — cracking clips its pieces to its rows' least and
/// greatest values, some strategies do not pad to the domain edges — and
/// each gap between two pieces becomes a range of its own.
fn tile_domain<V: ColumnValue>(
    domain: ValueRange<V>,
    live: impl ExactSizeIterator<Item = ValueRange<V>>,
) -> Vec<ValueRange<V>> {
    let mut out: Vec<ValueRange<V>> = Vec::with_capacity(live.len());
    for r in live.filter_map(|r| r.intersect(&domain)) {
        let lo = match out.last() {
            None => domain.lo(),
            Some(prev) => match prev.hi().succ() {
                Some(next) if next < r.lo() => {
                    out.extend(
                        r.lo()
                            .pred()
                            .and_then(|gap_hi| ValueRange::new(next, gap_hi)),
                    );
                    r.lo()
                }
                _ => r.lo(),
            },
        };
        out.extend(ValueRange::new(lo, r.hi()));
    }
    match out.last_mut() {
        Some(last) => *last = ValueRange::new(last.lo(), domain.hi()).unwrap_or(*last),
        None => out.push(domain),
    }
    out
}

impl<V: ColumnValue> StrategySnapshot<V> {
    fn piece_with_range(&self, range: &ValueRange<V>) -> Option<&SnapshotPiece<V>> {
        let i = self.pieces.partition_point(|p| p.range.lo() < range.lo());
        self.pieces.get(i).filter(|p| p.range == *range)
    }

    /// The rows of `v` the base pieces and the runs' inserts hold once the
    /// runs' tombstones of `v` have cancelled theirs, or `None` when the
    /// runs tombstone `v` more often than it is held: a stray.
    fn rows_of(&self, v: V, runs: &[&DeltaRun<V>]) -> Option<usize> {
        let point = ValueRange::must(v, v);
        let mut held: usize = self
            .overlapping(&point)
            .map(|p| run_in(&p.values, &point).len())
            .sum();
        let mut cancelled = 0;
        for run in runs {
            held += run_in(run.inserts(), &point).len();
            cancelled += run_in(run.tombstones(), &point).len();
        }
        held.checked_sub(cancelled)
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
    /// a scan and binary-searches its qualifying run — one search per end
    /// the zone map leaves open ([`Hit::of_straddled`]). The pending delta
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
                Some((SynopsisClass::Straddle, synopsis)) => {
                    tracker.scan(p.id, p.bytes);
                    fold(Part::Straddle(Hit::of_straddled(&p.values, q, synopsis)));
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
    /// multiset arithmetic (see `crate::delta`): qualifying inserts add,
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
        // Every run tombstone cancels a base row or a run insert of its
        // value (the writer drops strays before they reach a run, and
        // `validate` checks it at every publish), and both lie in `q`
        // with it: `removed` never exceeds `n + added`.
        n + added - removed
    }

    /// Materializes the values in `q`, ascending (the canonical order — see
    /// the module docs). A collect has to move the data, so covered pieces
    /// scan and only the disjoint class gets cheaper. The walk hands over
    /// slices, and each is copied once into a result sized for what the
    /// read returns. Pending deltas fold in during that one copy
    /// (`kernels::merge_subtract_sorted`): the run's qualifying inserts
    /// merge in between the base runs, and each qualifying tombstone
    /// cancels one occurrence of its value.
    pub fn select_collect(&self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> Vec<V> {
        let (mut parts, mut run) = (Vec::new(), None);
        self.walk(q, tracker, true, |part| match part {
            Part::Covered(values, _) => parts.push(values),
            Part::Straddle(hit) => parts.push(hit.values()),
            Part::Run(inserts, tombstones) => run = Some((inserts.values(), tombstones.values())),
        });
        let (inserts, tombstones) = run.unwrap_or_default();
        let mut out = Vec::new();
        kernels::merge_subtract_sorted(&parts, inserts, tombstones, &mut out);
        out
    }

    /// One-pass `SUM(v) WHERE v IN q`: covered pieces contribute their
    /// stored synopsis sum, straddling pieces sum only their qualifying run
    /// (`kernels::sum_sorted_run`) — both accumulated with the chunking of
    /// the masked [`kernels::sum_range`] they replace, so the total is
    /// bit-identical to an unpruned scan while reading O(result), not
    /// O(piece). Pending deltas fold in as `+ inserts − tombstones` of the
    /// overlapping run.
    ///
    /// The order of the `f64` additions is fixed, so a float column's sum
    /// repeats to the bit. A *run sum* of ascending values `s[start..end]`
    /// cuts the run into chunks of 4 096 positions counted from `s[0]`,
    /// adds each chunk's values in order into an accumulator starting at
    /// `+0.0`, and adds the chunk accumulators in order into a total
    /// starting at `+0.0`. The answer starts at `+0.0` and adds, piece by
    /// piece in value order, the run sum of each piece's qualifying values
    /// (all of a covered piece's, whose synopsis stores that sum); then
    /// adds the run sum of the qualifying pending inserts and subtracts
    /// that of the qualifying pending tombstones, each run counted from
    /// the first value of the run's inserts or tombstones.
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
    /// base and overlay — and `kernels::net_min` / `kernels::net_max`
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
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen strategy's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Value ranges of the snapshot pieces (sorted, disjoint, tiling the
    /// domain).
    #[cfg(test)]
    pub(crate) fn piece_ranges(&self) -> Vec<ValueRange<V>> {
        self.pieces.iter().map(|p| p.range).collect()
    }

    /// Number of pieces: the strategy's pieces, with the gaps between them
    /// and the domain's edges as pieces of their own.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// Piece `i` in value order: its range and its values, ascending.
    pub fn piece(&self, i: usize) -> Option<(ValueRange<V>, &[V])> {
        self.pieces.get(i).map(|p| (p.range, &*p.values))
    }

    /// Total rows frozen in this snapshot.
    pub fn total_rows(&self) -> u64 {
        self.pieces.iter().map(|p| p.values.len() as u64).sum()
    }

    /// The strategy's segment count at capture time.
    pub fn segment_count(&self) -> usize {
        self.segment_count
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
        let Some(run) = &self.delta else {
            return Ok(());
        };
        run.validate()?;
        let mut tombstones = run.tombstones().iter().copied();
        match tombstones.find(|&v| self.rows_of(v, &[run]).is_none()) {
            Some(v) => Err(Violation::Payload {
                index: 0,
                reason: format!("delta tombstone {v:?} matches no base row or insert"),
            }),
            None => Ok(()),
        }
    }
}

use cell::SnapshotCell;

/// A module of its own so the lock is private to these three methods:
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
    }

    impl<V: ColumnValue> SnapshotCell<V> {
        pub(super) fn new(initial: StrategySnapshot<V>) -> Self {
            SnapshotCell {
                snap: RwLock::new(Arc::new(initial)),
            }
        }

        pub(super) fn load(&self) -> Arc<StrategySnapshot<V>> {
            Arc::clone(&self.snap.read().unwrap_or_else(|e| e.into_inner()))
        }

        pub(super) fn publish(&self, snap: StrategySnapshot<V>) {
            *self.snap.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snap);
        }
    }
}

/// The bound of the writer command queue, and the most commands one epoch
/// takes before it compacts and publishes: deep enough that a bursty
/// reader never drops hints in normal operation, small enough that
/// overload cannot buffer unbounded reorganization debt, and hints
/// arriving faster than the writer drains them cannot keep folds,
/// publishes and `quiesce` replies waiting forever.
const QUEUE_CAPACITY: usize = 1024;

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
    /// merge the benchmarks baseline incremental compaction against.
    Drain,
    /// Reply once every command sent before this one has been folded and
    /// the resulting epoch published.
    Sync(mpsc::SyncSender<()>),
}

/// The writer's state: the one place the strategy is mutated.
struct Writer<V: ColumnValue> {
    strategy: Box<dyn ColumnStrategy<V>>,
    domain: ValueRange<V>,
    ids: SegIdGen,
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
}

impl<V: ColumnValue> Writer<V> {
    /// A writer over `strategy`, compacting under the default watermarks.
    fn new(strategy: Box<dyn ColumnStrategy<V>>, domain: ValueRange<V>) -> Self {
        Writer {
            strategy,
            domain,
            ids: SegIdGen::new(),
            reorg: CountingTracker::new(),
            failed_migrations: 0,
            unmatched_tombstones: 0,
            run: None,
            policy: CompactionPolicy::default(),
            compacting: false,
            absorbs: true,
        }
    }

    /// One epoch: takes at most [`QUEUE_CAPACITY`] of `cmds`, folds them
    /// and at most one compaction step into the strategy, publishes the
    /// result into `cell` at most once (only when something changed) and
    /// then answers the `Sync` barriers among them — the "single
    /// writer that folds reorganizations" of the design.
    fn step(&mut self, cell: &SnapshotCell<V>, cmds: impl IntoIterator<Item = WriterCmd<V>>) {
        let mut dirty = false;
        let mut drain = false;
        let mut syncs: Vec<mpsc::SyncSender<()>> = Vec::new();
        let mut arrived: Option<DeltaRun<V>> = None;
        for cmd in cmds.into_iter().take(QUEUE_CAPACITY) {
            match cmd {
                WriterCmd::Reorganize(q) => {
                    // A hint publishes only when it reorganized: every
                    // split, crack, merge, sort and replica create or drop
                    // writes, frees or materializes. The read bytes of one
                    // that did none of these wait for the next epoch.
                    // A served segment is sorted, so the hint's count of
                    // each straddled one is two binary searches, and the
                    // count-free `reorganize` would save only those. A
                    // writer that cheap keeps up with the readers, and
                    // they pay for it: when the count became a search,
                    // traced `serve_mixed` (seed 7, 20 s, 2 cores) dropped
                    // 0.6–0.7 % of hints instead of 48 %, published the
                    // same 52 epochs/s (one fold per paced write), and
                    // its `delta.apply_p99_us` rose from 0.41–0.45 to
                    // 1.9–2.2 µs (read p99 1.6 → 2.6–2.7 µs). A queue the
                    // writer keeps empty is written on every read, and
                    // an idle writer must be woken; ROADMAP items 12 and
                    // 25 replace this hint path.
                    let moved =
                        |t: QueryStats| (t.write_bytes, t.freed_bytes, t.segments_materialized);
                    let before = moved(self.reorg.totals());
                    self.strategy.select_count(&q, &mut self.reorg);
                    dirty |= moved(self.reorg.totals()) != before;
                }
                WriterCmd::Migrate(spec) => {
                    self.migrate(spec);
                    dirty = true;
                }
                WriterCmd::Deltas(batch) => {
                    // A tombstone matching no row is dropped and counted
                    // here, so a run never holds one. The last published
                    // pieces are the base: only a fold changes their
                    // content, and every fold publishes. A batch of strays
                    // alone still publishes, so the count shows.
                    let base = cell.load();
                    let earlier: Vec<&DeltaRun<V>> = [self.run.as_ref(), arrived.as_ref()]
                        .into_iter()
                        .flatten()
                        .collect();
                    let (sealed, strays) = batch
                        .seal_matched(self.ids.fresh(), |v| base.rows_of(v, &earlier).unwrap_or(0));
                    self.unmatched_tombstones += strays;
                    dirty |= sealed.is_some() || strays > 0;
                    arrived = DeltaRun::merged(arrived, sealed);
                }
                WriterCmd::Drain => drain = true,
                WriterCmd::Sync(reply) => syncs.push(reply),
            }
        }
        // One O(pending) merge per epoch, however many batches arrived.
        if arrived.is_some() {
            self.run = DeltaRun::merged(self.run.take(), arrived);
        }
        // One compaction step per epoch: the bounded fold that amortizes
        // merge cost across epochs instead of spiking. A drain folds
        // everything at once (the bulk-merge baseline).
        let folded = if drain {
            self.fold_step(u64::MAX)
        } else if self.should_compact() {
            self.fold_step(self.policy.rows_per_step())
        } else {
            Vec::new()
        };
        if dirty || !folded.is_empty() {
            self.publish(cell, &folded);
        }
        for reply in syncs {
            let _ = reply.send(());
        }
    }

    fn migrate(&mut self, spec: StrategySpec) {
        // A fresh organization of the live strategy's rows under the new
        // spec (`ColumnStrategy::rebuilt`: a sharded column keeps its
        // placement). The values came out of the column, so the rebuild
        // cannot leave the domain; a failure (only reachable through a
        // pathological custom strategy) keeps the old strategy serving.
        let mut rows = 0;
        self.strategy
            .peek_slices(&self.domain, &mut |part| rows += part.len() as u64);
        let bytes = rows * V::BYTES;
        match self.strategy.rebuilt(&spec, self.domain) {
            Ok(rebuilt) => {
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

    /// Publishes the next epoch into `cell`; `folded` are the values a fold
    /// step put into (or cancelled from) the base since the last publish.
    fn publish(&mut self, cell: &SnapshotCell<V>, folded: &[V]) {
        let prev = cell.load();
        let snap = self.capture(Some(&prev), folded);
        crate::debug_assert_valid!(snap.validate(), "epoch publish");
        cell.publish(snap);
    }

    /// Freezes the strategy's current organization as the epoch after
    /// `prev` (epoch 0 without one), with the writer's accounting and
    /// pending run. A strategy that shares its pieces
    /// ([`ColumnStrategy::share_sorted`]) is served from them directly: each
    /// snapshot piece is the strategy's own window, and one that is the
    /// very window of `prev`'s piece over the same range keeps that piece's
    /// id and synopsis, so an unchanged piece costs O(1). Otherwise every
    /// piece is a sorted copy ([`SnapshotPiece::extract`]), reusing the
    /// pieces of `prev` whose value range is unchanged and holds none of
    /// the values `folded` (ascending) into the base since `prev` was
    /// captured — a piece's content is a pure function of its range and
    /// the logical column, and only a fold changes the latter, only at
    /// those values.
    fn capture(&mut self, prev: Option<&StrategySnapshot<V>>, folded: &[V]) -> StrategySnapshot<V> {
        let domain = self.domain;
        let prev_piece = |range: &ValueRange<V>| prev.and_then(|s| s.piece_with_range(range));
        let shared = self.strategy.share_sorted().filter(|pieces| {
            let ranges: Vec<ValueRange<V>> = pieces.iter().map(|(r, _)| *r).collect();
            crate::validate::ranges_partition(&domain, &ranges).is_ok()
        });
        let ids = &mut self.ids;
        let pieces = match shared {
            Some(shared) => shared
                .into_iter()
                .map(|(range, values)| match prev_piece(&range) {
                    Some(p) if p.values.same(&values) => p.clone(),
                    _ => SnapshotPiece::new(range, values, ids.fresh()),
                })
                .collect(),
            None => {
                let untouched = |range: &ValueRange<V>| run_in(folded, range).is_empty();
                let strategy = self.strategy.as_ref();
                tile_domain(domain, strategy.pieces().into_iter().map(|(r, _)| r))
                    .into_iter()
                    .map(|range| match prev_piece(&range) {
                        Some(p) if untouched(&range) => p.clone(),
                        _ => SnapshotPiece::extract(strategy, range, ids.fresh()),
                    })
                    .collect()
            }
        };
        StrategySnapshot {
            epoch: prev.map_or(0, |p| p.epoch + 1),
            pieces,
            domain,
            name: self.strategy.name(),
            segment_count: self.strategy.segment_count(),
            reorg: self.reorg.totals(),
            failed_migrations: self.failed_migrations,
            unmatched_tombstones: self.unmatched_tombstones,
            delta: self.run.clone(),
        }
    }
}

/// A served column whose owner steps its writer: the one place the
/// strategy is mutated, and the cell each epoch's snapshot is published
/// into. Each mutating call is one `Writer::step` on the caller's thread,
/// so the snapshot it publishes is there when the call returns. Readers
/// read [`Self::snapshot`]; a snapshot they hold stays as it was.
///
/// [`ConcurrentColumn`] is this column moved onto a writer thread behind
/// a bounded queue: the same writer, snapshot and walk, stepped by the
/// readers' hints instead of by the owner.
pub struct SteppedColumn<V: ColumnValue> {
    writer: Writer<V>,
    cell: Arc<SnapshotCell<V>>,
}

impl<V: ColumnValue> SteppedColumn<V> {
    /// Serves `strategy` (see [`ConcurrentColumn::new`]), publishing its
    /// epoch 0. `domain` must cover the strategy's values; it is the range
    /// migrations rebuild over.
    pub fn new(strategy: Box<dyn ColumnStrategy<V>>, domain: ValueRange<V>) -> Self {
        let mut writer = Writer::new(strategy, domain);
        let cell = Arc::new(SnapshotCell::new(writer.capture(None, &[])));
        SteppedColumn { writer, cell }
    }

    /// One epoch over `cmds`.
    fn step(&mut self, cmds: impl IntoIterator<Item = WriterCmd<V>>) {
        self.writer.step(&self.cell, cmds);
    }

    /// The current epoch's snapshot.
    pub fn snapshot(&self) -> Arc<StrategySnapshot<V>> {
        self.cell.load()
    }

    /// Reorganizes for the query `q` exactly as the writer thread runs a
    /// reader's hint (the strategy's `select_count`), publishing an epoch
    /// when a piece moved.
    pub fn reorganize(&mut self, q: &ValueRange<V>) {
        self.step([WriterCmd::Reorganize(*q)]);
    }

    /// Seals `batch` and overlays it on the next epoch (see
    /// [`ConcurrentColumn::apply_deltas`]); the compaction watermarks may
    /// fold part of it in the same step.
    pub fn apply_deltas(&mut self, batch: DeltaBatch<V>) {
        if !batch.is_empty() {
            self.step([WriterCmd::Deltas(batch)]);
        }
    }

    /// Folds every pending row into the base (see
    /// [`ConcurrentColumn::drain_deltas`]).
    pub fn drain_deltas(&mut self) {
        self.step([WriterCmd::Drain]);
    }

    /// Rebuilds the column under `spec` (see
    /// [`ConcurrentColumn::set_strategy`]). A rebuild that fails keeps
    /// the old strategy and counts in the snapshot's
    /// [`StrategySnapshot::failed_migrations`].
    pub fn set_strategy(&mut self, spec: StrategySpec) {
        self.step([WriterCmd::Migrate(spec)]);
    }

    /// The live strategy, read-only: its name, adaptation counters and
    /// pieces as of the last step.
    pub fn strategy(&self) -> &dyn ColumnStrategy<V> {
        self.writer.strategy.as_ref()
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
    /// Wraps an already-built strategy (any of the nine kinds, or a whole
    /// sharded column — anything implementing the trait), spawning the
    /// writer thread. `domain` must cover the strategy's values; it is the
    /// range migrations rebuild over.
    ///
    /// The writer's queue holds 1 024 commands. When it is full,
    /// reorganization *hints* from the read path are dropped and counted
    /// (never blocked on — hints are advisory); data and control commands
    /// ([`Self::apply_deltas`], [`Self::set_strategy`], [`Self::quiesce`])
    /// block until the writer drains. Pending deltas compact whenever the
    /// strategy can absorb them ([`ColumnStrategy::fold_delta`] — every
    /// strategy of this crate can): folding starts at 4 096 pending rows,
    /// moves 1 024 rows per step and stops at 1 024. A strategy that cannot
    /// absorb them keeps them in the overlay, visible to every read.
    pub fn new(strategy: Box<dyn ColumnStrategy<V>>, domain: ValueRange<V>) -> Self {
        Self::start(SteppedColumn::new(strategy, domain))
    }

    /// `column` moved onto the writer thread, which waits for a command
    /// and then steps everything queued behind it.
    fn start(mut column: SteppedColumn<V>) -> Self {
        let cell = Arc::clone(&column.cell);
        // Bounded by design: an unbounded channel here would let overload
        // buffer reorganization work without limit (clippy.toml disallows
        // `mpsc::channel` for that reason).
        let (tx, rx) = mpsc::sync_channel(QUEUE_CAPACITY);
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on process resource exhaustion and new has no error channel"
        )]
        let thread = thread::Builder::new()
            .name("soc-epoch-writer".into())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    column.step(std::iter::once(first).chain(rx.try_iter()));
                }
                column.writer.strategy
            })
            .expect("spawn epoch writer thread");
        ConcurrentColumn {
            cell,
            tx: Some(tx),
            writer: Some(thread),
            hints_dropped: AtomicU64::new(0),
        }
    }

    /// Builds the spec's strategy over `values` and wraps it
    /// ([`Self::new`]).
    ///
    /// # Errors
    /// The [`ColumnError`] of the underlying constructor when a value lies
    /// outside `domain`.
    pub fn from_spec(
        spec: &StrategySpec,
        domain: ValueRange<V>,
        values: Vec<V>,
    ) -> Result<Self, ColumnError> {
        Ok(Self::new(spec.build(domain, values)?, domain))
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
        self.cell.load().epoch()
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
    /// `QueryError::Shed` when refused outright,
    /// `QueryError::DeadlineExceeded` when the queue wait timed out.
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
    /// `reorg_hints_dropped`. A hint that reorganized nothing publishes no
    /// epoch, so its read bytes show with the next one.
    pub fn reorg_totals(&self) -> QueryStats {
        let mut totals = self.snapshot().reorg_totals();
        totals.reorg_hints_dropped += self.hints_dropped.load(Ordering::Relaxed);
        totals
    }

    /// Starts a background migration to the strategy `spec` describes: the
    /// writer rebuilds the column's rows under it
    /// ([`ColumnStrategy::rebuilt`]: a sharded column keeps its nodes and
    /// placement) and publishes the swap as the next epoch, while readers
    /// keep answering from the old organization. Returns immediately; [`Self::quiesce`] is the
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
        let _ = self.sender().send(WriterCmd::Drain);
        self.quiesce();
    }

    /// Blocks until every command enqueued before this call has been
    /// folded and its epoch published — the determinism barrier tests and
    /// benchmarks use; readers never need it. Hints that reorganized
    /// nothing publish no epoch: their read bytes reach
    /// [`Self::reorg_totals`] with the next one.
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

    impl<V: ColumnValue> SteppedColumn<V> {
        /// As [`Self::new`] over `spec` built on `values`, compacting
        /// under `policy` instead of the default watermarks.
        fn with_policy(
            spec: &StrategySpec,
            domain: ValueRange<V>,
            values: Vec<V>,
            policy: CompactionPolicy,
        ) -> Result<Self, ColumnError> {
            let mut column = Self::new(spec.build(domain, values)?, domain);
            column.writer.policy = policy;
            Ok(column)
        }
    }

    impl<V: ColumnValue> ConcurrentColumn<V> {
        /// As [`Self::from_spec`], compacting under `policy` instead of the
        /// default watermarks.
        pub(crate) fn with_policy(
            spec: &StrategySpec,
            domain: ValueRange<V>,
            values: Vec<V>,
            policy: CompactionPolicy,
        ) -> Result<Self, ColumnError> {
            SteppedColumn::with_policy(spec, domain, values, policy).map(Self::start)
        }
    }

    /// `spec` built over [`values`], stepped by the test.
    fn stepped(spec: &StrategySpec, policy: CompactionPolicy) -> SteppedColumn<u32> {
        SteppedColumn::with_policy(spec, domain(), values(), policy).expect("values in domain")
    }

    /// Rows the strategy holds, folded deltas included.
    fn base_rows<V: ColumnValue>(s: &SteppedColumn<V>) -> u64 {
        s.strategy().peek_collect(&s.writer.domain).len() as u64
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
        for q in queries() {
            concurrent.select_count(&q, &mut NullTracker);
        }
        concurrent.quiesce();
        let snap = concurrent.snapshot();
        assert!(snap.epoch() >= 1, "folding must have published epochs");
        assert!(snap.segment_count() > 1, "the workload must split");
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

    /// Why a hint that writes, frees and materializes nothing may skip its
    /// publish: on every kind, a `select_count` that charges none of the
    /// three leaves the strategy's pieces and their contents as they were.
    #[test]
    fn a_query_that_charges_no_reorganization_changes_no_piece() {
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(5);
            let mut strategy = spec.build(domain(), values()).expect("values in domain");
            let mut unchanged = 0;
            for q in queries().iter().chain(&queries()) {
                let pieces = strategy.pieces();
                let contents = strategy.peek_collect(&domain());
                let mut tracker = CountingTracker::new();
                strategy.select_count(q, &mut tracker);
                let t = tracker.totals();
                if (t.write_bytes, t.freed_bytes, t.segments_materialized) == (0, 0, 0) {
                    assert_eq!(strategy.pieces(), pieces, "{kind:?} on {q:?}");
                    assert_eq!(
                        strategy.peek_collect(&domain()),
                        contents,
                        "{kind:?} on {q:?}"
                    );
                    unchanged += 1;
                }
            }
            assert!(unchanged > 0, "{kind:?}: the replay reorganizes nothing");
        }
    }

    #[test]
    fn replaying_a_converged_column_publishes_no_epoch() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let mut s = stepped(&spec, CompactionPolicy::default());
        let mut replays = Vec::new();
        for _ in 0..6 {
            let snap = s.snapshot();
            let (epoch, reads) = (snap.epoch(), snap.reorg_totals().read_bytes);
            // One step takes the replay's 40 hints: at most one publish.
            s.step(queries().into_iter().map(WriterCmd::Reorganize));
            let snap = s.snapshot();
            replays.push(snap.epoch() - epoch);
            if snap.epoch() == epoch {
                // The read bytes of hints that changed nothing wait in
                // the writer for the next epoch.
                assert_eq!(snap.reorg_totals().read_bytes, reads);
                assert!(s.writer.reorg.totals().read_bytes > reads);
                assert_eq!(replays[0], 1, "{replays:?}");
                return;
            }
            assert_eq!(snap.epoch(), epoch + 1);
        }
        panic!("epochs published per replay: {replays:?}");
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
                    .is_some_and(|old| old.values.same(&p.values))
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
                old.values.same(&new.values),
                !new.range.contains(7_777),
                "piece {:?}",
                new.range
            );
        }
    }

    /// Every piece of `snap` is the very window `strategy` shares for its
    /// range, and the distinct buffers the two reach hold the column about
    /// once: ≤ 1.1 × rows × width.
    fn assert_held_once(
        snap: &StrategySnapshot<u32>,
        strategy: &mut dyn ColumnStrategy<u32>,
        case: &str,
    ) {
        let shared = strategy.share_sorted().expect("segment kinds share");
        assert_eq!(shared.len(), snap.pieces.len(), "{case}");
        for ((range, window), p) in shared.iter().zip(&snap.pieces) {
            assert_eq!(*range, p.range, "{case}");
            assert!(window.same(&p.values), "{case}: piece {range:?}");
        }
        let mut distinct: Vec<&Window<u32>> = Vec::new();
        let windows = shared.iter().map(|(_, w)| w);
        for w in windows.chain(snap.pieces.iter().map(|p| &p.values)) {
            if !distinct.iter().any(|d| d.shares_buffer(w)) {
                distinct.push(w);
            }
        }
        let held: u64 = distinct.iter().map(|w| w.buffer_bytes()).sum();
        let rows = snap.total_rows() * u32::BYTES;
        assert!(held * 10 <= rows * 11, "{case}: {held} B held for {rows} B");
    }

    /// The segment kinds serve their own sorted segments: after a workload
    /// and after a drained fold, the snapshot's pieces are the strategy's
    /// windows, and a fold re-freezes only the piece it touched. The
    /// copy-path twin is `epochs_share_unchanged_pieces`.
    #[test]
    fn served_segment_kinds_hold_the_column_once() {
        let kinds = [
            StrategyKind::ApmSegm,
            StrategyKind::GdSegm,
            StrategyKind::NoSegm,
            StrategyKind::FullSort,
        ];
        for (kind, drained) in kinds.into_iter().flat_map(|k| [(k, false), (k, true)]) {
            let case = format!("{kind:?}, drained {drained}");
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(5);
            let column =
                ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
            for q in queries().iter().cycle().take(200) {
                column.select_count(q, &mut NullTracker);
            }
            column.quiesce();
            if drained {
                let before = column.snapshot();
                let mut batch = insert_batch(900_000, [7_777]);
                batch.push(DeltaOp::Delete {
                    oid: 0,
                    value: values()[0],
                });
                column.apply_deltas(batch);
                column.drain_deltas();
                let after = column.snapshot();
                assert_eq!(after.total_rows(), 6_000, "{case}");
                assert_eq!(after.piece_ranges(), before.piece_ranges(), "{case}");
                for (old, new) in before.pieces.iter().zip(&after.pieces) {
                    let touched = new.range.contains(7_777) || new.range.contains(values()[0]);
                    let kept = old.values.same(&new.values) && old.id == new.id;
                    assert_eq!(kept, !touched, "{case}: piece {:?}", new.range);
                }
            }
            let snap = column.snapshot();
            snap.validate().unwrap_or_else(|e| panic!("{case}: {e}"));
            let mut strategy = column.into_strategy();
            assert_held_once(&snap, strategy.as_mut(), &case);
        }
    }

    /// The in-place sort reorders a float piece's sum; the synopsis is
    /// recomputed from the sorted order, so a served `SUM` over real values
    /// still equals the unpruned walk bit for bit.
    #[test]
    fn served_float_sums_are_bit_identical_to_an_unpruned_walk() {
        use crate::value::OrdF64;

        let f = OrdF64::from_finite;
        let domain = ValueRange::must(f(0.0), f(1_000.0));
        let values: Vec<OrdF64> = (0..6_000u32)
            .map(|i| f(f64::from((i * 7919) % 10_000) * 0.1 + f64::from(i % 7) * 1e-3))
            .collect();
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let column = ConcurrentColumn::from_spec(&spec, domain, values).expect("values in domain");
        let queries: Vec<ValueRange<OrdF64>> = queries()
            .iter()
            .map(|q| ValueRange::must(f(f64::from(q.lo()) * 0.1), f(f64::from(q.hi()) * 0.1)))
            .collect();
        for q in &queries {
            column.select_count(q, &mut NullTracker);
        }
        column.quiesce();
        let snap = column.snapshot();
        snap.validate().unwrap();
        assert!(snap.pieces.len() > 4, "the workload must have split");
        for q in &queries {
            let unpruned: f64 = snap
                .overlapping(q)
                .map(|p| kernels::sum_range(&p.values, q))
                .sum();
            let served = snap.select_sum(q, &mut NullTracker);
            assert_eq!(served.to_bits(), unpruned.to_bits(), "{q:?}");
        }
    }

    /// `select_sum` on a float column adds in the order its doc states:
    /// piece by piece, covered and straddled alike, the run sums of the
    /// qualifying values (4 096-value chunks counted from each piece's
    /// first value), then the pending inserts' run sum, then minus the
    /// pending tombstones'. Pieces and the insert run span several chunks.
    #[test]
    fn a_float_select_sum_adds_in_its_documented_order() {
        use crate::value::OrdF64;

        /// The run sum of `sorted[start..end]`, written out.
        fn run_sum(sorted: &[OrdF64], start: usize, end: usize) -> f64 {
            let (mut total, mut acc) = (0.0f64, 0.0f64);
            for (i, v) in sorted.iter().enumerate().take(end).skip(start) {
                acc += v.get();
                if (i + 1) % kernels::CHUNK == 0 || i + 1 == end {
                    total += acc;
                    acc = 0.0;
                }
            }
            total
        }

        let f = |i: u32| OrdF64::from_finite(f64::from(i) * 0.37);
        let domain = ValueRange::must(f(0), f(100_000));
        let values: Vec<OrdF64> = (0..120_000u32).map(|i| f((i * 7919) % 100_000)).collect();
        let strategy = StrategySpec::new(StrategyKind::ApmSegm)
            .with_apm_bounds(40 * 1024, 160 * 1024)
            .build(domain, values)
            .expect("values in domain");
        // No compaction: the whole batch stays pending.
        let policy = CompactionPolicy::new(u64::MAX, u64::MAX, 1);
        let mut s = SteppedColumn::new(strategy, domain);
        s.writer.policy = policy;
        for lo in (0..85_000u32).step_by(5_000) {
            s.reorganize(&ValueRange::must(f(lo), f(lo + 15_000)));
        }
        // Pending inserts across the domain, and tombstones for some base
        // rows.
        let mut batch = DeltaBatch::new();
        for i in 0..5_000u32 {
            let value = OrdF64::from_finite(f64::from(i) * 7.4 + 1e-3);
            let oid = 1_000_000 + u64::from(i);
            batch.push(DeltaOp::Insert { oid, value });
        }
        for i in 0..400u32 {
            let value = f((i * 7919) % 100_000);
            batch.push(DeltaOp::Delete {
                oid: u64::from(i),
                value,
            });
        }
        s.apply_deltas(batch);
        let snap = s.snapshot();
        let run = snap.delta.as_ref().expect("the batch is pending");
        let (inserts, tombstones) = (run.inserts(), run.tombstones());
        assert_eq!((inserts.len(), tombstones.len()), (5_000, 400));
        let ranges = snap.piece_ranges();
        let mut shapes = (false, false);
        let pairs = ranges.windows(2).flat_map(|w| {
            // From the first value of one piece to the middle of the next,
            // and from the middle of one to the last value of the next: one
            // piece covered, the other straddled.
            [
                ValueRange::must(w[0].lo(), w[1].midpoint()),
                ValueRange::must(w[0].midpoint(), w[1].hi()),
            ]
        });
        for q in pairs {
            let qualifying = |sorted: &[OrdF64]| {
                let (start, end) = kernels::sorted_run(sorted, &q);
                run_sum(sorted, start, end)
            };
            let classes: Vec<SynopsisClass> = snap
                .overlapping(&q)
                .filter_map(|p| p.synopsis.map(|s| s.classify(&q)))
                .collect();
            shapes.0 |= classes.contains(&SynopsisClass::Covered)
                && classes.contains(&SynopsisClass::Straddle)
                && snap
                    .overlapping(&q)
                    .all(|p| p.values.len() > kernels::CHUNK);
            // Qualifying inserts on both sides of the run's first chunk end.
            let (start, end) = kernels::sorted_run(inserts, &q);
            shapes.1 |= start < kernels::CHUNK && kernels::CHUNK < end;
            let mut want = 0.0f64;
            for p in snap.overlapping(&q) {
                want += qualifying(&p.values);
            }
            want += qualifying(inserts);
            want -= qualifying(tombstones);
            let got = snap.select_sum(&q, &mut NullTracker);
            assert_eq!(got.to_bits(), want.to_bits(), "{q:?}");
        }
        assert_eq!(
            shapes,
            (true, true),
            "covered and straddled pieces, a run across chunks"
        );
    }

    /// The pieces, windows and reorganization totals `snap` publishes.
    type Published = (Vec<(ValueRange<u32>, Vec<u32>)>, QueryStats);

    fn published(snap: &StrategySnapshot<u32>) -> Published {
        let pieces = (0..snap.piece_count()).filter_map(|i| snap.piece(i));
        let pieces = pieces.map(|(r, values)| (r, values.to_vec())).collect();
        (pieces, snap.reorg_totals())
    }

    /// A stepped column and a column on the writer thread, given the same
    /// commands, publish the same pieces, windows and reorganization
    /// totals: one writer, driven two ways. The threaded column is
    /// quiesced after every command, so no hint is dropped, and the
    /// pending rows stay below the compaction watermark, so how the
    /// thread groups commands into steps moves nothing.
    #[test]
    fn a_stepped_column_publishes_what_the_writer_thread_publishes() {
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(5);
            let build = || spec.build(domain(), values()).expect("values in domain");
            let mut stepped = SteppedColumn::new(build(), domain());
            let threaded = ConcurrentColumn::new(build(), domain());
            for (round, q) in (0u32..).zip(queries()) {
                stepped.reorganize(&q);
                threaded.select_count(&q, &mut NullTracker);
                if round % 8 == 7 {
                    let rows = (0..16).map(|i| (round * 389 + i * 53) % 10_000);
                    let batch = insert_batch(900_000 + u64::from(round) * 16, rows);
                    stepped.apply_deltas(batch.clone());
                    threaded.apply_deltas(batch);
                }
                if round % 16 == 15 {
                    stepped.drain_deltas();
                    threaded.drain_deltas();
                }
                threaded.quiesce();
                let (pieces, _) = published(&stepped.snapshot());
                assert_eq!(pieces, published(&threaded.snapshot()).0, "{kind:?} {q:?}");
            }
            // A migration publishes, so the totals of every hint are in.
            stepped.set_strategy(spec);
            threaded.set_strategy(spec);
            threaded.quiesce();
            assert_eq!(
                published(&stepped.snapshot()),
                published(&threaded.snapshot()),
                "{kind:?}"
            );
            assert_eq!(threaded.reorg_hints_dropped(), 0);
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
        // The narrow query must have pruned something.
        assert!(stats.segments_pruned > 0, "zone maps must prune pieces");
        assert!(stats.pruned_bytes > 0);
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
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let column =
            ConcurrentColumn::from_spec(&spec, domain(), values()).expect("values in domain");
        let counts: Vec<(ValueRange<u32>, u64)> = queries()
            .into_iter()
            .map(|q| {
                (
                    q,
                    values().iter().filter(|v| q.contains(**v)).count() as u64,
                )
            })
            .collect();
        // The writer answers a barrier nobody receives yet: it blocks
        // after at most one step, which takes the barrier and fewer than
        // the queue bound of the hints below. Then the queue fills, and
        // every later hint is dropped and counted, not lost silently:
        // between one bound less one (the barrier still holds a slot)
        // and two bounds less one are taken. Answers stay correct and no
        // reader blocks.
        let (reply, release) = mpsc::sync_channel(0);
        column
            .sender()
            .send(WriterCmd::Sync(reply))
            .expect("the writer runs");
        let hints = 3 * QUEUE_CAPACITY;
        for (q, expect) in counts.iter().cycle().take(hints) {
            assert_eq!(column.select_count(q, &mut NullTracker), *expect);
        }
        let dropped = column.reorg_hints_dropped();
        let taken = hints - dropped as usize;
        assert!(
            (QUEUE_CAPACITY - 1..2 * QUEUE_CAPACITY).contains(&taken),
            "{taken} taken"
        );
        assert_eq!(column.reorg_totals().reorg_hints_dropped, dropped);
        // Dropped hints are advisory: the writer takes every queued hint,
        // and the column reorganizes and validates.
        release.recv().expect("the writer answers the barrier");
        column.quiesce();
        let snap = column.snapshot();
        assert!(snap.segment_count() > 1, "the hints must have split");
        snap.validate().unwrap();
        for (q, expect) in &counts {
            assert_eq!(snap.select_count(q, &mut NullTracker), *expect, "{q:?}");
        }
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

    /// The compactor's hysteresis, pinned step by step: folding starts
    /// once pending rows reach `start_above`, moves `rows_per_step` rows a
    /// step, stops once a step begins at or below `stop_below`, and does
    /// not restart until `start_above` is reached again.
    #[test]
    fn incremental_compaction_folds_runs_and_charges_reorg() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let mut s = stepped(&spec, CompactionPolicy::new(64, 16, 32));
        // Rows each step inserts, and the pending level after it.
        let script: [(u32, u64); 17] = [
            (10, 10),
            (10, 20),
            (10, 30),
            (10, 40),
            (10, 50),
            (10, 60),
            (20, 48), // 80 reach 64: fold 32
            (0, 16),  // 48 is above 16: fold 32
            (0, 16),  // 16 is at most 16: stop
            (0, 16),
            (10, 26), // between the watermarks: no fold
            (10, 36),
            (10, 46),
            (10, 56),
            (8, 32), // exactly 64 again: fold 32
            (0, 0),  // 32 is above 16: fold 32
            (0, 0),
        ];
        let mut expected = values();
        let mut pending = 0;
        for (round, (rows, after)) in (0u32..).zip(script) {
            let inserted: Vec<u32> = (0..rows).map(|i| (round * 389 + i * 53) % 10_000).collect();
            expected.extend(&inserted);
            let batch =
                (rows > 0).then(|| insert_batch(500_000 + u64::from(round) * 100, inserted));
            let (epoch, wrote) = (s.snapshot().epoch(), s.writer.reorg.totals().write_bytes);
            s.step(batch.map(WriterCmd::Deltas));
            let folded = pending + u64::from(rows) - after;
            assert!(matches!(folded, 0 | 32), "step {round}: folded {folded}");
            assert_eq!(s.snapshot().pending_delta_rows(), after, "step {round}");
            assert_eq!(base_rows(&s) + after, expected.len() as u64, "step {round}");
            // Folds charge reorganization writes; a step that neither
            // folded nor took a batch publishes nothing.
            let wrote_now = s.writer.reorg.totals().write_bytes;
            assert_eq!(wrote_now > wrote, folded > 0, "step {round}");
            let published = rows > 0 || folded > 0;
            assert_eq!(
                s.snapshot().epoch(),
                epoch + u64::from(published),
                "step {round}"
            );
            pending = after;
        }
        let snap = s.snapshot();
        assert!(snap.reorg_totals().write_bytes > 0);
        snap.validate().unwrap();
        // Answers include both folded and still-pending rows.
        for q in queries().into_iter().take(10) {
            let expect = expected.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(snap.select_count(&q, &mut NullTracker), expect, "{q:?}");
        }
    }

    /// A fold the strategy refuses (an insert outside its domain) leaves
    /// the run in place, and later steps neither retry it nor charge
    /// anything, until a migration installs a strategy that may absorb
    /// again: it gets one retry.
    #[test]
    fn a_refused_fold_waits_for_a_migration() {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024);
        let mut s = stepped(&spec, CompactionPolicy::new(64, 16, 32));
        s.apply_deltas(insert_batch(700_000, 10_000..10_070));
        assert_eq!(
            s.snapshot().pending_delta_rows(),
            70,
            "the fold was refused"
        );
        assert_eq!(s.snapshot().epoch(), 1, "the batch publishes");
        let refused = s.writer.reorg.totals();
        assert_eq!(refused.write_bytes, 0, "a refused fold charges nothing");
        // Rows inside the domain now lead the run, past the start
        // watermark, and still nothing folds.
        for round in 0..3u32 {
            let rows = (0..20).map(|i| (round * 389 + i * 53) % 10_000);
            s.apply_deltas(insert_batch(710_000 + u64::from(round) * 20, rows));
            assert_eq!(
                s.snapshot().pending_delta_rows(),
                90 + 20 * u64::from(round)
            );
            assert_eq!(s.writer.reorg.totals(), refused, "round {round}");
            assert_eq!(base_rows(&s), 6_000);
        }
        // The migration reads and rewrites the 6 000 base rows, then the
        // retry folds the 32 rows at the head of the run.
        s.set_strategy(spec);
        assert_eq!(s.snapshot().pending_delta_rows(), 98);
        assert_eq!(base_rows(&s), 6_032);
        let migrated = s.writer.reorg.totals();
        assert!(migrated.write_bytes > 6_000 * 4, "the fold charged too");
        // The next step reaches the rows outside the domain: refused
        // again, and then nothing more until the next migration.
        for _ in 0..2 {
            s.step([]);
            assert_eq!(s.snapshot().pending_delta_rows(), 98);
            assert_eq!(base_rows(&s), 6_032);
            assert_eq!(s.writer.reorg.totals(), migrated);
        }
        assert!(!s.writer.absorbs);
        s.snapshot().validate().unwrap();
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
        // Pending, below every compaction watermark: the writer dropped
        // the stray as it arrived, so every read answers as before it.
        concurrent.quiesce();
        let pending = concurrent.snapshot();
        assert_eq!(
            pending.unmatched_tombstones(),
            1,
            "the stray must be counted"
        );
        assert_eq!(pending.pending_delta_rows(), 0, "a run never holds a stray");
        let all = domain();
        assert_eq!(
            pending.select_count(&all, &mut NullTracker),
            before.select_count(&all, &mut NullTracker)
        );
        assert_eq!(
            pending.select_sum(&all, &mut NullTracker),
            before.select_sum(&all, &mut NullTracker)
        );
        assert_eq!(
            pending.select_collect(&all, &mut NullTracker),
            before.select_collect(&all, &mut NullTracker)
        );
        pending.validate().unwrap();
        concurrent.drain_deltas();
        let snap = concurrent.snapshot();
        assert_eq!(snap.unmatched_tombstones(), 1, "the stray is counted once");
        assert_eq!(snap.pending_delta_rows(), 0);
        assert_eq!(snap.total_rows(), before.total_rows());
        assert_eq!(snap.piece_ranges(), before.piece_ranges());
        assert_eq!(
            snap.select_collect(&domain(), &mut NullTracker),
            before.select_collect(&domain(), &mut NullTracker)
        );
        snap.validate().unwrap();

        // Within one batch a tombstone matches only the inserts pushed
        // before it: the stray delete stays a stray and must not cancel
        // the insert of its value that follows it.
        let mut batch = DeltaBatch::new();
        batch.push(DeltaOp::Delete {
            oid: 123_457,
            value: absent,
        });
        batch.push(DeltaOp::Insert {
            oid: 123_458,
            value: absent,
        });
        concurrent.apply_deltas(batch);
        concurrent.quiesce();
        let pending = concurrent.snapshot();
        assert_eq!(pending.unmatched_tombstones(), 2, "the second stray counts");
        assert_eq!(pending.pending_delta_rows(), 1, "the insert survives");
        assert_eq!(
            pending.select_count(&all, &mut NullTracker),
            before.select_count(&all, &mut NullTracker) + 1
        );
        let mut expected = before.select_collect(&all, &mut NullTracker);
        expected.push(absent);
        expected.sort_unstable();
        assert_eq!(pending.select_collect(&all, &mut NullTracker), expected);
        pending.validate().unwrap();

        // The other order is no stray: the delete takes the row the
        // batch inserted before it, and the two cancel.
        let mut batch = DeltaBatch::new();
        batch.push(DeltaOp::Insert {
            oid: 123_459,
            value: absent,
        });
        batch.push(DeltaOp::Delete {
            oid: 123_460,
            value: absent,
        });
        concurrent.apply_deltas(batch);
        concurrent.quiesce();
        let pending = concurrent.snapshot();
        assert_eq!(pending.unmatched_tombstones(), 2);
        assert_eq!(pending.select_collect(&all, &mut NullTracker), expected);
        pending.validate().unwrap();
    }

    #[test]
    fn validate_rejects_a_run_tombstone_that_cancels_no_row() {
        let absent = (0..10_000u32)
            .find(|v| !values().contains(v))
            .expect("6000 rows leave gaps in a 10000-value domain");
        let present = values()[0];
        let snapshot = |inserts: Vec<u32>, tombstones: Vec<u32>| {
            let strategy = StrategySpec::new(StrategyKind::NoSegm)
                .build(domain(), values())
                .expect("values in domain");
            let mut writer = Writer::new(strategy, domain());
            writer.run = Some(DeltaRun::from_parts(SegId(7), inserts, tombstones));
            writer.capture(None, &[])
        };
        // A tombstone of a base value beside a pending insert: valid.
        snapshot(vec![absent], vec![present]).validate().unwrap();
        // A tombstone of a value neither the base nor the run holds.
        assert!(matches!(
            snapshot(vec![], vec![absent]).validate(),
            Err(Violation::Payload { .. })
        ));
        // One occurrence too many of a base value.
        let copies = values().iter().filter(|&&v| v == present).count();
        assert!(snapshot(vec![], vec![present; copies + 1])
            .validate()
            .is_err());
    }

    #[test]
    fn saturating_hints_cannot_starve_folds_publishes_or_barriers() {
        let spec = StrategySpec::new(StrategyKind::NoSegm);
        let mut s = stepped(&spec, CompactionPolicy::new(64, 16, 32));
        let q = ValueRange::must(1_000u32, 1_999);
        let (reply, done) = mpsc::sync_channel(1);
        let batch = insert_batch(800_000, (0..70).map(|i| (i * 53) % 10_000));
        // Hints without end, each a full scan of the unsegmented column:
        // a queue that never runs empty once kept the writer inside one
        // epoch forever. The step returns after the bound, with the batch
        // folded and published and the barrier answered.
        let mut taken = 0;
        let hints = std::iter::repeat_with(|| WriterCmd::Reorganize(q));
        let cmds = [WriterCmd::Deltas(batch), WriterCmd::Sync(reply)];
        s.step(cmds.into_iter().chain(hints).inspect(|_| taken += 1));
        assert_eq!(taken, QUEUE_CAPACITY);
        assert_eq!(done.try_recv(), Ok(()), "the barrier is answered");
        let snap = s.snapshot();
        assert_eq!(snap.epoch(), 1, "one publish");
        assert_eq!(
            snap.pending_delta_rows(),
            38,
            "70 rows reach 64: one fold of 32"
        );
        assert_eq!(snap.total_rows(), 6_032);
        snap.validate().unwrap();
    }

    /// The four reads of `snap` over `q` against the ascending reference
    /// column `sorted`.
    fn assert_reads_match(snap: &StrategySnapshot<u32>, sorted: &[u32], q: &ValueRange<u32>) {
        let inside = run_in(sorted, q);
        let n = inside.len() as u64;
        assert_eq!(snap.select_count(q, &mut NullTracker), n, "count {q:?}");
        assert_eq!(snap.select_collect(q, &mut NullTracker), inside, "{q:?}");
        let sum: f64 = inside.iter().map(|v| f64::from(*v)).sum();
        assert_eq!(snap.select_sum(q, &mut NullTracker), sum, "sum {q:?}");
        let min_max = inside.first().copied().zip(inside.last().copied());
        assert_eq!(snap.select_min_max(q, &mut NullTracker), min_max, "{q:?}");
    }

    /// A straddled piece searches only the ends its zone map leaves open;
    /// the run it finds is the two-search run, and every read still equals
    /// the reference — with each value held up to eight times over, so the
    /// runs start and end among duplicates.
    #[test]
    fn straddled_runs_with_duplicated_edges_equal_the_reference() {
        let dup: Vec<u32> = values().into_iter().map(|v| v / 8 * 8).collect();
        let strategy = StrategySpec::new(StrategyKind::ApmSegm)
            .with_apm_bounds(256, 1024)
            .with_model_seed(3)
            .build(domain(), dup.clone())
            .expect("values in domain");
        let column = ConcurrentColumn::new(strategy, domain());
        for q in queries() {
            column.select_count(&q, &mut NullTracker);
        }
        column.quiesce();
        let snap = column.snapshot();
        let mut sorted = dup;
        sorted.sort_unstable();
        let (mut pieces, mut straddled) = (0, 0);
        for (i, p) in snap.pieces.iter().enumerate() {
            let mut distinct = p.values.to_vec();
            distinct.dedup();
            let (Some(syn), &[v0, v1, .., w1, w0]) = (p.synopsis, &distinct[..]) else {
                continue;
            };
            pieces += 1;
            let mut cases = vec![
                (v0, w1),           // q.lo == min
                (v1, w0),           // q.hi == max
                (v1, w1),           // strictly inside the piece
                (v1, p.range.hi()), // ends on the piece's upper boundary
                (p.range.lo(), w1), // starts on its lower boundary
            ];
            if let Some(next) = snap.pieces.get(i + 1) {
                // Ends on the first value of the next piece's range.
                cases.push((v1, next.range.lo()));
            }
            for (lo, hi) in cases {
                let q = ValueRange::must(lo, hi);
                if syn.classify(&q) == SynopsisClass::Straddle {
                    let hit = Hit::of_straddled(&p.values, &q, &syn);
                    let run = kernels::sorted_run(&p.values, &q);
                    assert_eq!((hit.start, hit.end), run, "piece {i}, {q:?}");
                    straddled += 1;
                }
                assert_reads_match(&snap, &sorted, &q);
            }
        }
        // Every piece straddles at least its first three cases.
        assert!(pieces > 4, "the workload must have split the column");
        assert!(
            straddled >= 3 * pieces,
            "{straddled} straddles of {pieces} pieces"
        );
    }

    /// The base values move once, into a result sized for all of them;
    /// an overlapping run still merges and subtracts to the reference.
    #[test]
    fn collect_allocates_once_and_merges_a_pending_run() {
        let column = converged_column();
        let mut sorted = values();
        sorted.sort_unstable();
        let snap = column.snapshot();
        for q in queries() {
            let got = snap.select_collect(&q, &mut NullTracker);
            assert_eq!(got.capacity(), got.len(), "{q:?}");
            assert_eq!(got, run_in(&sorted, &q), "{q:?}");
        }

        let mut expected = values();
        let mut batch = insert_batch(1_000_000, [9_990, 4_200, 4_200, 4_203]);
        for oid in 0..40u64 {
            batch.push(DeltaOp::Delete {
                oid,
                value: expected[oid as usize],
            });
        }
        expected.extend([9_990, 4_200, 4_200, 4_203]);
        expected.drain(0..40);
        expected.sort_unstable();
        column.apply_deltas(batch);
        column.quiesce();
        let snap = column.snapshot();
        assert_eq!(snap.delta_runs(), 1, "the run must be pending");
        let run = snap.delta.as_ref().expect("pending");
        assert!(
            queries().iter().any(|q| run.overlaps(q)),
            "a read merges the run"
        );
        for q in queries() {
            let got = snap.select_collect(&q, &mut NullTracker);
            assert_eq!(got.capacity(), got.len(), "{q:?}");
            assert_reads_match(&snap, &expected, &q);
        }
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
        let tiled = tile_domain(
            d,
            [ValueRange::must(10, 19), ValueRange::must(40, 59)].into_iter(),
        );
        assert_eq!(
            tiled,
            vec![
                ValueRange::must(0, 19),
                ValueRange::must(20, 39),
                ValueRange::must(40, 99),
            ]
        );
        assert_eq!(tile_domain(d, std::iter::empty()), vec![d]);
        assert_eq!(tile_domain(d, std::iter::once(d)), vec![d]);
    }
}
