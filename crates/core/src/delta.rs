//! Sorted delta runs: pending inserts/updates/deletes overlaid on the
//! epoch read path, MonetDB-style (Section 7 of the paper) but organized
//! for merge-on-read instead of merge-on-query-materialization.
//!
//! The paper's delta scheme keeps pending writes in separate structures
//! and folds them into every query answer; our catalog layer reproduces
//! that as a query-time materialized merge (Figure 1). This module is the
//! *epoch-layer* counterpart, shaped like an LSM overlay ("Columnar
//! Formats for Schemaless LSM-based Document Stores", PAPERS.md):
//!
//! * A write batch accumulates in a [`DeltaBatch`], which shadows
//!   operations per oid (a later update of the same row wins; deleting a
//!   row inserted in the same batch cancels both) so a sealed run never
//!   carries intra-batch ghosts.
//! * Sealing produces an immutable [`DeltaRun`]: two ascending-sorted
//!   sides — **inserts** (new values, including the new side of updates)
//!   and **tombstones** (deleted values and the old side of updates) —
//!   each carrying a [`PieceSynopsis`] zone map, so range reads prune the
//!   run exactly like a base piece. Values sort ascending; columns of
//!   [`Pair`](crate::Pair) rows therefore order by value with oid
//!   tiebreak, which is what keeps reconstruction joins exact.
//! * The overlay is **one run**: an arriving batch coalesces into the
//!   pending run ([`DeltaRun::merged`], a galloping merge per side), and
//!   an insert and a tombstone of equal value cancel wherever they meet,
//!   at seal and at merge — the multiset arithmetic every read applies to
//!   pending rows anyway, so no answer changes. A run therefore never
//!   holds a value on both sides: each tombstone targets a row of the
//!   base, and any part of the run folds safely — the incremental
//!   compactor splits it off the head ([`DeltaRun::split_for_fold`],
//!   bounded by [`CompactionPolicy::rows_per_step`]).
//! * A fold is an LSM flush in the small: it rewrites the components it
//!   overlaps, not the store. The compactor hands each step's rows to
//!   [`ColumnStrategy::fold_delta`](crate::ColumnStrategy::fold_delta),
//!   which edits the physical pieces owning those values in place — no
//!   piece boundary moves, untouched pieces are neither rewritten nor
//!   charged — and a strategy that cannot absorb rows leaves them here,
//!   in the overlay, where every read already sees them.
//!
//! Read semantics are multiset arithmetic by value: a query's answer is
//! `base + inserts − tombstones`, evaluated through the branchless
//! kernels in [`crate::kernels`] (`sorted_run` binary searches for
//! counts; for collects, one pass that merges the inserts in and cancels
//! the tombstones,
//! [`merge_subtract_sorted`](crate::kernels::merge_subtract_sorted)). The
//! epoch snapshot proves the resulting answers
//! bit-identical to the catalog's Figure-1 merge in `tests/`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::kernels;
use crate::range::ValueRange;
use crate::segment::SegId;
use crate::synopsis::{PieceSynopsis, SynopsisClass};
use crate::validate::Violation;
use crate::value::ColumnValue;

/// One pending logical write against a column.
///
/// The caller supplies the *old* value of updates and the value of
/// deletes (the catalog knows both from the base column); the run needs
/// them because tombstones cancel by value, not by oid probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp<V> {
    /// A new row `oid` with `value`.
    Insert {
        /// The new row's oid.
        oid: u64,
        /// The inserted value.
        value: V,
    },
    /// Row `oid` changes from `old` to `new`.
    Update {
        /// The updated row's oid.
        oid: u64,
        /// The value the row holds before the update (tombstoned).
        old: V,
        /// The value the row holds after the update (inserted).
        new: V,
    },
    /// Row `oid`, currently holding `value`, is removed.
    Delete {
        /// The deleted row's oid.
        oid: u64,
        /// The value the row held (tombstoned).
        value: V,
    },
}

/// Per-oid net effect of a batch, after shadowing, each side stamped
/// with the push that produced it: `2 × push` for a tombstone and
/// `2 × push + 1` for an inserted value, so an update's tombstone comes
/// before its own insert.
#[derive(Debug, Clone, Copy)]
enum Slot<V> {
    Inserted {
        new: V,
        at: u64,
    },
    Updated {
        old: V,
        old_at: u64,
        new: V,
        at: u64,
    },
    Deleted {
        old: V,
        old_at: u64,
    },
}

/// An order-preserving accumulator of pending writes, shadowed per oid.
///
/// Shadowing rules (the Figure-1 merge applied eagerly within one batch):
/// a later [`DeltaOp::Update`] of the same oid replaces the earlier new
/// value but keeps the *original* old value (only one base row is ever
/// tombstoned); updating or deleting a row inserted in the same batch
/// rewrites or cancels the insert instead of emitting a tombstone;
/// updates and deletes of a row already deleted in the batch are no-ops
/// (the catalog applies updates to existing rows only), while an insert
/// over a deleted or updated oid keeps that tombstone beside its value.
#[derive(Debug, Clone)]
pub struct DeltaBatch<V> {
    slots: BTreeMap<u64, Slot<V>>,
    pushes: u64,
}

impl<V: ColumnValue> Default for DeltaBatch<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: ColumnValue> DeltaBatch<V> {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch {
            slots: BTreeMap::new(),
            pushes: 0,
        }
    }

    /// Whether no operation survives shadowing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Rows with a surviving pending operation.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Applies one operation, shadowing earlier operations on the same
    /// oid (see the type docs for the exact rules).
    pub fn push(&mut self, op: DeltaOp<V>) {
        let (old_at, at) = (2 * self.pushes, 2 * self.pushes + 1);
        self.pushes += 1;
        match op {
            DeltaOp::Insert { oid, value } => {
                let slot = match self.slots.get(&oid) {
                    Some(&(Slot::Deleted { old, old_at } | Slot::Updated { old, old_at, .. })) => {
                        Slot::Updated {
                            old,
                            old_at,
                            new: value,
                            at,
                        }
                    }
                    Some(Slot::Inserted { .. }) | None => Slot::Inserted { new: value, at },
                };
                self.slots.insert(oid, slot);
            }
            DeltaOp::Update { oid, old, new } => match self.slots.get(&oid).copied() {
                Some(Slot::Inserted { .. }) => {
                    self.slots.insert(oid, Slot::Inserted { new, at });
                }
                Some(Slot::Updated {
                    old: first,
                    old_at: first_at,
                    ..
                }) => {
                    let slot = Slot::Updated {
                        old: first,
                        old_at: first_at,
                        new,
                        at,
                    };
                    self.slots.insert(oid, slot);
                }
                Some(Slot::Deleted { .. }) => {}
                None => {
                    let slot = Slot::Updated {
                        old,
                        old_at,
                        new,
                        at,
                    };
                    self.slots.insert(oid, slot);
                }
            },
            DeltaOp::Delete { oid, value } => match self.slots.get(&oid).copied() {
                Some(Slot::Inserted { .. }) => {
                    self.slots.remove(&oid);
                }
                Some(Slot::Updated { old, old_at, .. }) => {
                    self.slots.insert(oid, Slot::Deleted { old, old_at });
                }
                Some(Slot::Deleted { .. }) => {}
                None => {
                    let slot = Slot::Deleted { old: value, old_at };
                    self.slots.insert(oid, slot);
                }
            },
        }
    }

    /// Seals the batch into an immutable sorted run with equal values on
    /// the two sides cancelled (an update to the same value, or one row's
    /// insert meeting another's delete), or `None` when nothing survives.
    /// `id` is the run's scan-attribution identity.
    pub fn seal(self, id: SegId) -> Option<DeltaRun<V>> {
        let (mut inserts, mut tombstones) = (Vec::new(), Vec::new());
        for (v, stamp) in self.stamped() {
            if stamp % 2 == 1 {
                inserts.push(v);
            } else {
                tombstones.push(v);
            }
        }
        DeltaRun::net(id, inserts, tombstones)
    }

    /// [`Self::seal`] without the tombstones that cancel no row. Value by
    /// value, in push order, a tombstone takes one of the `outside(v)`
    /// rows the column holds beyond this batch or one the batch inserted
    /// before it; a tombstone that finds none is a stray and is dropped,
    /// so it cannot cancel an insert pushed after it. Returns the run and
    /// the number of strays.
    pub(crate) fn seal_matched(
        self,
        id: SegId,
        mut outside: impl FnMut(V) -> usize,
    ) -> (Option<DeltaRun<V>>, u64) {
        let (mut inserts, mut tombstones, mut strays) = (Vec::new(), Vec::new(), 0);
        // Rows of `value` free for its next tombstone; `outside` is asked
        // once per value, and only when the batch's own inserts run out.
        let (mut value, mut rows, mut asked) = (None, 0, false);
        for (v, stamp) in self.stamped() {
            if value != Some(v) {
                (value, rows, asked) = (Some(v), 0, false);
            }
            if stamp % 2 == 1 {
                inserts.push(v);
                rows += 1;
                continue;
            }
            if rows == 0 && !asked {
                (rows, asked) = (outside(v), true);
            }
            if rows > 0 {
                tombstones.push(v);
                rows -= 1;
            } else {
                strays += 1;
            }
        }
        (DeltaRun::net(id, inserts, tombstones), strays)
    }

    /// Every value the batch inserts or tombstones with its stamp (see
    /// [`Slot`]), ascending by value, then in push order.
    fn stamped(self) -> Vec<(V, u64)> {
        let mut stamped = Vec::with_capacity(2 * self.slots.len());
        for slot in self.slots.into_values() {
            match slot {
                Slot::Inserted { new, at } => stamped.push((new, at)),
                Slot::Updated {
                    old,
                    old_at,
                    new,
                    at,
                } => stamped.extend([(old, old_at), (new, at)]),
                Slot::Deleted { old, old_at } => stamped.push((old, old_at)),
            }
        }
        stamped.sort_unstable();
        stamped
    }
}

/// An immutable, sorted run of pending writes: what the epoch snapshot
/// overlays on its base pieces and what the compactor folds from.
///
/// Both sides are ascending; each carries an exact [`PieceSynopsis`]
/// (`None` for an empty side), so the read path classifies a query
/// against the run in O(1) and prunes a disjoint run with a
/// [`skip`](crate::AccessTracker::skip) charge — zone maps apply to
/// deltas exactly as they do to base pieces.
#[derive(Clone)]
pub struct DeltaRun<V> {
    id: SegId,
    /// New values (inserts and the new side of updates), ascending.
    inserts: Arc<Vec<V>>,
    /// Cancelled values (deletes and the old side of updates), ascending.
    /// One tombstone removes one occurrence of its value.
    tombstones: Arc<Vec<V>>,
    insert_synopsis: Option<PieceSynopsis<V>>,
    tombstone_synopsis: Option<PieceSynopsis<V>>,
    bytes: u64,
}

impl<V: ColumnValue> std::fmt::Debug for DeltaRun<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaRun")
            .field("inserts", &self.inserts.len())
            .field("tombstones", &self.tombstones.len())
            .finish_non_exhaustive()
    }
}

impl<V: ColumnValue> DeltaRun<V> {
    /// Assembles a run from its two sides verbatim, sorting them ascending
    /// (a defensive re-sort: already-sorted input costs one verification
    /// pass). Callers keep the sides free of common values, as every path
    /// of this module does; [`Self::validate`] rejects a run that is not.
    pub fn from_parts(id: SegId, mut inserts: Vec<V>, mut tombstones: Vec<V>) -> Self {
        inserts.sort_unstable();
        tombstones.sort_unstable();
        let bytes = (inserts.len() + tombstones.len()) as u64 * V::BYTES;
        let insert_synopsis = PieceSynopsis::from_sorted(&inserts);
        let tombstone_synopsis = PieceSynopsis::from_sorted(&tombstones);
        DeltaRun {
            id,
            inserts: Arc::new(inserts),
            tombstones: Arc::new(tombstones),
            insert_synopsis,
            tombstone_synopsis,
            bytes,
        }
    }

    /// The run over ascending `inserts − tombstones` and `tombstones −
    /// inserts` (multiset differences, one occurrence each), or `None`
    /// when everything cancels.
    fn net(id: SegId, inserts: Vec<V>, tombstones: Vec<V>) -> Option<Self> {
        let (mut net_ins, mut net_tombs) = (Vec::new(), Vec::new());
        kernels::subtract_sorted(&inserts, &tombstones, &mut net_ins);
        kernels::subtract_sorted(&tombstones, &inserts, &mut net_tombs);
        (!net_ins.is_empty() || !net_tombs.is_empty())
            .then(|| DeltaRun::from_parts(id, net_ins, net_tombs))
    }

    /// Coalesces `newer` into `older`, keeping the older id:
    /// [`kernels::merge_sorted`] on each side, then the cancellation of
    /// [`DeltaBatch::seal`] across the two. `None` when nothing is left.
    /// Associative, so arriving batches may meet in any grouping.
    pub(crate) fn merged(older: Option<Self>, newer: Option<Self>) -> Option<Self> {
        let (a, b) = match (older, newer) {
            (Some(a), Some(b)) => (a, b),
            (a, b) => return a.or(b),
        };
        let (mut inserts, mut tombstones) = (Vec::new(), Vec::new());
        kernels::merge_sorted(&a.inserts, &b.inserts, &mut inserts);
        kernels::merge_sorted(&a.tombstones, &b.tombstones, &mut tombstones);
        DeltaRun::net(a.id, inserts, tombstones)
    }

    /// Scan-attribution identity: one charge per query.
    pub(crate) fn id(&self) -> SegId {
        self.id
    }

    /// Footprint of both sides — what a query the zone maps prune skips.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Pending rows this run holds (inserts plus tombstones) — the unit
    /// the compaction watermarks and per-step budget count.
    pub(crate) fn rows(&self) -> u64 {
        (self.inserts.len() + self.tombstones.len()) as u64
    }

    /// Ascending new values.
    pub fn inserts(&self) -> &[V] {
        &self.inserts
    }

    /// Ascending cancelled values (one occurrence each).
    pub fn tombstones(&self) -> &[V] {
        &self.tombstones
    }

    /// Zone map of the insert side (`None` when empty).
    #[cfg(test)]
    pub(crate) fn insert_synopsis(&self) -> Option<&PieceSynopsis<V>> {
        self.insert_synopsis.as_ref()
    }

    /// Zone map of the tombstone side (`None` when empty).
    #[cfg(test)]
    pub(crate) fn tombstone_synopsis(&self) -> Option<&PieceSynopsis<V>> {
        self.tombstone_synopsis.as_ref()
    }

    /// Whether `q` can touch either side — the pruning decision. A run
    /// disjoint from `q` on both zone maps contributes nothing and
    /// charges only a [`skip`](crate::AccessTracker::skip).
    pub(crate) fn overlaps(&self, q: &ValueRange<V>) -> bool {
        let side = |s: &Option<PieceSynopsis<V>>| {
            s.as_ref()
                .is_some_and(|s| s.classify(q) != SynopsisClass::Disjoint)
        };
        side(&self.insert_synopsis) || side(&self.tombstone_synopsis)
    }

    /// Splits off up to `budget` rows for folding into the base:
    /// tombstones first (they only shrink the base), then inserts.
    /// Returns `(inserts, tombstones, remainder)`; `remainder` is `None`
    /// when the whole run fit the budget. Any subset folds safely: no
    /// tombstone of the run targets one of its own inserts (see the module
    /// docs), so all of them target rows already in the base.
    pub(crate) fn split_for_fold(&self, budget: usize) -> (Vec<V>, Vec<V>, Option<DeltaRun<V>>) {
        let t_take = budget.min(self.tombstones.len());
        let i_take = (budget - t_take).min(self.inserts.len());
        let fold_tombs = self.tombstones[..t_take].to_vec();
        let fold_ins = self.inserts[..i_take].to_vec();
        let rest_ins = self.inserts[i_take..].to_vec();
        let rest_tombs = self.tombstones[t_take..].to_vec();
        let remainder = (!rest_ins.is_empty() || !rest_tombs.is_empty())
            .then(|| DeltaRun::from_parts(self.id, rest_ins, rest_tombs));
        (fold_ins, fold_tombs, remainder)
    }

    /// Structural invariants: both sides ascending, zone maps exact, no
    /// value on both sides. Folded into
    /// [`StrategySnapshot::validate`](crate::StrategySnapshot) at every
    /// epoch publish.
    pub fn validate(&self) -> Result<(), Violation> {
        for (what, values, syn) in [
            ("insert", &self.inserts, self.insert_synopsis.as_ref()),
            (
                "tombstone",
                &self.tombstones,
                self.tombstone_synopsis.as_ref(),
            ),
        ] {
            if !values.windows(2).all(|w| w[0] <= w[1]) {
                return Err(Violation::NotSorted { index: 0 });
            }
            crate::validate::synopsis_consistent(syn, values).map_err(|v| match v {
                Violation::Synopsis { detail, .. } => Violation::Synopsis {
                    index: 0,
                    detail: format!("delta {what} side: {detail}"),
                },
                other => other,
            })?;
        }
        let on_both = |v: &&V| self.tombstones.binary_search(v).is_ok();
        if let Some(v) = self.inserts.iter().find(on_both) {
            return Err(Violation::Payload {
                index: 0,
                reason: format!("delta run holds {v:?} as both insert and tombstone"),
            });
        }
        Ok(())
    }
}

/// The part of an ascending delta side that falls inside `range`.
pub(crate) fn run_in<'a, V: ColumnValue>(sorted: &'a [V], range: &ValueRange<V>) -> &'a [V] {
    let (start, end) = crate::kernels::sorted_run(sorted, range);
    &sorted[start..end]
}

/// Clips a fold to the `domain` a strategy's pieces tile: `None` when an
/// insert lies outside it (no piece can own the row, so the fold cannot be
/// absorbed), otherwise the tombstones inside the domain plus the count of
/// those outside — which can match nothing and are unmatched by definition.
pub(crate) fn clip_fold<'a, V: ColumnValue>(
    domain: &ValueRange<V>,
    inserts: &[V],
    tombstones: &'a [V],
) -> Option<(&'a [V], u64)> {
    if run_in(inserts, domain).len() != inserts.len() {
        return None;
    }
    let inside = run_in(tombstones, domain);
    Some((inside, (tombstones.len() - inside.len()) as u64))
}

/// Hysteresis watermarks and the per-step budget of the incremental
/// compactor: folding starts when the pending rows across all runs reach
/// `start_above`, proceeds at most
/// `rows_per_step` delta rows per reorganization
/// step (each step rewrites only the pieces its rows land in, charged as
/// reorganization bytes), and stops once pending rows fall to
/// `stop_below` — so a column hovering at the
/// threshold does not thrash between folding and accumulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompactionPolicy {
    start_above: u64,
    stop_below: u64,
    rows_per_step: u64,
}

impl Default for CompactionPolicy {
    /// The epoch writer's watermarks: start at 4096 pending rows (the
    /// catalog's historical bulk-merge threshold), drain to 1024, fold 1024
    /// rows per step.
    fn default() -> Self {
        CompactionPolicy {
            start_above: 4096,
            stop_below: 1024,
            rows_per_step: 1024,
        }
    }
}

impl CompactionPolicy {
    /// A policy with explicit watermarks; `stop_below` is clamped to at
    /// most `start_above` and `rows_per_step` to at least 1.
    #[cfg(test)]
    pub(crate) fn new(start_above: u64, stop_below: u64, rows_per_step: u64) -> Self {
        CompactionPolicy {
            start_above,
            stop_below: stop_below.min(start_above),
            rows_per_step: rows_per_step.max(1),
        }
    }

    /// Pending-row level at which folding starts.
    pub(crate) fn start_above(&self) -> u64 {
        self.start_above
    }

    /// Pending-row level at which folding stops (hysteresis low side).
    pub(crate) fn stop_below(&self) -> u64 {
        self.stop_below
    }

    /// Maximum delta rows folded per reorganization step.
    pub(crate) fn rows_per_step(&self) -> u64 {
        self.rows_per_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::Pair;

    fn seal(batch: DeltaBatch<u32>) -> DeltaRun<u32> {
        batch.seal(SegId(1)).expect("non-empty batch")
    }

    #[test]
    fn seal_sorts_and_summarizes_both_sides() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Insert { oid: 9, value: 50 });
        b.push(DeltaOp::Insert { oid: 7, value: 10 });
        b.push(DeltaOp::Delete { oid: 1, value: 30 });
        b.push(DeltaOp::Update {
            oid: 2,
            old: 40,
            new: 5,
        });
        let run = seal(b);
        assert_eq!(run.inserts(), &[5, 10, 50]);
        assert_eq!(run.tombstones(), &[30, 40]);
        assert_eq!(run.rows(), 5);
        assert_eq!(run.bytes(), 5 * 4);
        let ins = run.insert_synopsis().expect("insert side non-empty");
        assert_eq!((ins.min(), ins.max(), ins.count()), (5, 50, 3));
        let tom = run.tombstone_synopsis().expect("tombstone side non-empty");
        assert_eq!((tom.min(), tom.max()), (30, 40));
        run.validate().expect("sealed runs validate");
    }

    #[test]
    fn seal_matched_drops_tombstones_no_earlier_row_backs() {
        let mut b = DeltaBatch::new();
        // Nothing holds 5 yet: a stray, which must not cancel the insert
        // of 5 that follows it.
        b.push(DeltaOp::Delete { oid: 1, value: 5 });
        b.push(DeltaOp::Insert { oid: 2, value: 5 });
        // The one 7 outside backs the update's tombstone; the delete
        // after it takes the 7 the update wrote.
        b.push(DeltaOp::Update {
            oid: 3,
            old: 7,
            new: 7,
        });
        b.push(DeltaOp::Delete { oid: 4, value: 7 });
        b.push(DeltaOp::Delete { oid: 5, value: 9 });
        let (run, strays) = b.seal_matched(SegId(1), |v| usize::from(v == 7 || v == 9));
        let run = run.expect("the insert of 5 survives");
        assert_eq!(strays, 1);
        assert_eq!(run.inserts(), &[5]);
        assert_eq!(run.tombstones(), &[7, 9]);
    }

    #[test]
    fn shadowing_applies_figure1_rules_within_a_batch() {
        let mut b = DeltaBatch::new();
        // Insert then update: the insert is rewritten, no tombstone.
        b.push(DeltaOp::Insert { oid: 1, value: 10 });
        b.push(DeltaOp::Update {
            oid: 1,
            old: 10,
            new: 11,
        });
        // Insert then delete: both cancel.
        b.push(DeltaOp::Insert { oid: 2, value: 20 });
        b.push(DeltaOp::Delete { oid: 2, value: 20 });
        // Update then update: later new wins, original old tombstones.
        b.push(DeltaOp::Update {
            oid: 3,
            old: 30,
            new: 31,
        });
        b.push(DeltaOp::Update {
            oid: 3,
            old: 31,
            new: 32,
        });
        // Update then delete: the original base value tombstones once.
        b.push(DeltaOp::Update {
            oid: 4,
            old: 40,
            new: 41,
        });
        b.push(DeltaOp::Delete { oid: 4, value: 41 });
        // Delete then update: no-op on a dead row.
        b.push(DeltaOp::Delete { oid: 5, value: 50 });
        b.push(DeltaOp::Update {
            oid: 5,
            old: 50,
            new: 51,
        });
        // Delete then insert: the base row stays tombstoned, the new
        // value lands — and again over the update that produces.
        b.push(DeltaOp::Delete { oid: 6, value: 60 });
        b.push(DeltaOp::Insert { oid: 6, value: 61 });
        b.push(DeltaOp::Insert { oid: 6, value: 62 });
        let run = seal(b);
        assert_eq!(run.inserts(), &[11, 32, 62]);
        assert_eq!(run.tombstones(), &[30, 40, 50, 60]);
    }

    #[test]
    fn equal_values_cancel_one_occurrence_each_at_seal_and_merge() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Update {
            oid: 1,
            old: 10,
            new: 10,
        });
        assert!(b.seal(SegId(1)).is_none(), "an update to itself is nothing");

        let mut older = DeltaBatch::new();
        older.push(DeltaOp::Insert { oid: 1, value: 10 });
        older.push(DeltaOp::Insert { oid: 2, value: 10 });
        older.push(DeltaOp::Delete { oid: 3, value: 30 });
        let mut newer = DeltaBatch::new();
        newer.push(DeltaOp::Delete { oid: 1, value: 10 });
        newer.push(DeltaOp::Insert { oid: 4, value: 30 });
        newer.push(DeltaOp::Insert { oid: 5, value: 5 });
        let (older, newer) = (seal(older), newer.seal(SegId(2)));
        let run = DeltaRun::merged(Some(older.clone()), newer).expect("rows survive");
        assert_eq!(run.inserts(), &[5, 10]);
        assert!(run.tombstones().is_empty());
        assert_eq!(run.id(), older.id(), "the pending run keeps its identity");
        run.validate().expect("merged runs validate");

        let undo = DeltaRun::from_parts(SegId(3), Vec::new(), vec![5, 10]);
        assert!(DeltaRun::merged(Some(run.clone()), Some(undo)).is_none());
        let alone = DeltaRun::merged(None, Some(run.clone())).expect("passes through");
        assert_eq!(alone.inserts(), run.inserts());
    }

    #[test]
    fn all_cancelling_batch_seals_to_none() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Insert { oid: 1, value: 10 });
        b.push(DeltaOp::Delete { oid: 1, value: 10 });
        assert!(b.is_empty());
        assert!(b.seal(SegId(1)).is_none());
    }

    #[test]
    fn paired_runs_order_by_value_with_oid_tiebreak() {
        let mut b: DeltaBatch<Pair<i64>> = DeltaBatch::new();
        b.push(DeltaOp::Insert {
            oid: 9,
            value: Pair::new(5, 9),
        });
        b.push(DeltaOp::Insert {
            oid: 3,
            value: Pair::new(5, 3),
        });
        b.push(DeltaOp::Insert {
            oid: 1,
            value: Pair::new(4, 1),
        });
        let run = b.seal(SegId(1)).expect("non-empty");
        assert_eq!(
            run.inserts(),
            &[Pair::new(4, 1), Pair::new(5, 3), Pair::new(5, 9)]
        );
    }

    #[test]
    fn overlaps_prunes_through_both_zone_maps() {
        let mut b = DeltaBatch::new();
        b.push(DeltaOp::Insert { oid: 1, value: 10 });
        b.push(DeltaOp::Delete { oid: 2, value: 90 });
        let run = seal(b);
        assert!(run.overlaps(&ValueRange::must(5, 15)), "insert side");
        assert!(run.overlaps(&ValueRange::must(85, 95)), "tombstone side");
        assert!(!run.overlaps(&ValueRange::must(20, 80)), "between sides");
        assert!(!run.overlaps(&ValueRange::must(95, 99)), "above both");
    }

    #[test]
    fn split_for_fold_takes_tombstones_first_and_preserves_rows() {
        let mut b = DeltaBatch::new();
        for i in 0..4 {
            b.push(DeltaOp::Insert {
                oid: i,
                value: 10 + i as u32,
            });
        }
        b.push(DeltaOp::Delete { oid: 100, value: 1 });
        b.push(DeltaOp::Delete { oid: 101, value: 2 });
        let run = seal(b); // 4 inserts, 2 tombstones
        let (ins, tombs, rest) = run.split_for_fold(3);
        assert_eq!(tombs, vec![1, 2], "tombstones fold first");
        assert_eq!(ins, vec![10]);
        let rest = rest.expect("three of six rows remain");
        assert_eq!(rest.rows(), 3);
        assert_eq!(rest.inserts(), &[11, 12, 13]);
        assert!(rest.tombstones().is_empty());
        assert_eq!(rest.id(), run.id());

        // A budget covering the whole run leaves no remainder.
        let (ins, tombs, rest) = run.split_for_fold(6);
        assert_eq!(ins.len() + tombs.len(), 6);
        assert!(rest.is_none());
    }

    #[test]
    fn policy_clamps_and_defaults() {
        let p = CompactionPolicy::default();
        assert_eq!(
            (p.start_above(), p.stop_below(), p.rows_per_step()),
            (4096, 1024, 1024)
        );
        let q = CompactionPolicy::new(100, 500, 0);
        assert_eq!(q.stop_below(), 100, "stop clamps to start");
        assert_eq!(q.rows_per_step(), 1, "step is at least one row");
    }

    #[test]
    fn validate_accepts_fresh_runs_and_rejects_a_value_on_both_sides() {
        let run = DeltaRun::from_parts(SegId(1), vec![3u32, 1, 2], vec![9]);
        assert_eq!(run.inserts(), &[1, 2, 3], "from_parts sorts");
        run.validate().expect("fresh runs validate");
        let bad = DeltaRun::from_parts(SegId(1), vec![1u32, 2, 3], vec![0, 2]);
        let err = bad.validate().expect_err("2 sits on both sides");
        assert!(matches!(err, Violation::Payload { .. }), "{err}");
    }
}
