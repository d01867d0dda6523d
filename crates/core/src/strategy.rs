//! The common interface all column-organization strategies implement.
//!
//! The evaluation (Section 6) compares four self-organizing strategies
//! ({GD, APM} × {segmentation, replication}) against a non-segmented
//! baseline; the experiment drivers in `soc-sim` treat them uniformly
//! through [`ColumnStrategy`]. A strategy has one reorganizing read,
//! [`ColumnStrategy::select_count`] (the query every workload and figure
//! runs) — with [`ColumnStrategy::reorganize`], its reorganization alone —
//! and one materializing read, the read-only
//! [`ColumnStrategy::peek_slices`], which lends the values in place;
//! [`ColumnStrategy::peek_collect`] is that read copied into one `Vec`.
//! Its organization is one list, [`ColumnStrategy::pieces`]: each placeable
//! piece's value range with its size.

use crate::column::ColumnError;
use crate::range::ValueRange;
use crate::segment::Window;
use crate::spec::StrategySpec;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// Counters describing how much self-organization a strategy has performed.
///
/// Uniform across strategies so experiment drivers can report adaptation
/// activity without downcasting: segmentation counts `splits` (and `merges`
/// under a merge policy), replication counts `replicas_created` /
/// `drops` / `budget_declines`, cracking counts its cracks as `splits`.
/// Counters a strategy does not maintain stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptationStats {
    /// Segment splits (or cracks) performed.
    pub splits: u64,
    /// Merge operations performed (segmentation under a merge policy only).
    pub merges: u64,
    /// Replica segments materialized (replication only).
    pub replicas_created: u64,
    /// Fully replicated segments dropped (replication only).
    pub drops: u64,
    /// Materializations declined by a storage budget (replication only).
    pub budget_declines: u64,
}

impl AdaptationStats {
    /// Accumulates `other` into `self` — how the counters of strategies
    /// retired by a migration, or of the nodes of a sharded column, add up.
    pub fn absorb(&mut self, other: &AdaptationStats) {
        self.splits += other.splits;
        self.merges += other.merges;
        self.replicas_created += other.replicas_created;
        self.drops += other.drops;
        self.budget_declines += other.budget_declines;
    }
}

/// A column organization that can answer range selections and may
/// reorganize itself as a side effect (the paper's "reorganization decisions
/// … made an integral part of query execution").
///
/// # Thread-safety contract
///
/// Every strategy is `Send + Sync`, so `Box<dyn ColumnStrategy<V>>` (what
/// [`crate::spec::StrategySpec::build`] produces) can be owned by, and
/// handed between, threads — the contract [`crate::ConcurrentColumn`]
/// relies on when its writer thread owns the strategy. Concretely:
///
/// * the **mutating** methods ([`Self::select_count`],
///   [`Self::reorganize`], [`Self::fold_delta`], [`Self::share_sorted`])
///   take `&mut self`, so they are exclusive per strategy *instance*;
///   concurrency comes from running *distinct* instances in parallel,
///   never from sharing one;
/// * the **read-only** methods ([`Self::peek_slices`],
///   [`Self::peek_collect`], [`Self::storage_bytes`],
///   [`Self::segment_count`], [`Self::pieces`], [`Self::adaptation`])
///   take `&self` and may
///   be called concurrently from multiple threads on one instance
///   (`Sync`); implementations must not use interior mutability for them;
/// * per-thread accounting goes to a private [`AccessTracker`] (e.g. an
///   event log) merged deterministically afterwards — see the merge
///   contract on [`crate::tracker::AccessTracker`].
pub trait ColumnStrategy<V: ColumnValue>: Send + Sync {
    /// Display name for experiment output ("GD Segm", "APM Repl", …).
    fn name(&self) -> String;

    /// Answers `SELECT count(*) WHERE v BETWEEN q.lo AND q.hi`, reporting
    /// every scan/materialization to `tracker` and self-organizing along
    /// the way.
    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64;

    /// Performs exactly the reorganization [`Self::select_count`] would
    /// for `q` — the same pieces, the same adaptation counters, the same
    /// charges to `tracker`, the same draws of a seeded model — but
    /// computes no answer: the Section 3.3 adaptation step of a plan that
    /// reads its answer from the pieces afterwards.
    ///
    /// The default is `select_count` with the count dropped. Adaptive
    /// segmentation overrides it to decide on its estimate first and
    /// count only a segment it splits at the query's bounds.
    fn reorganize(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) {
        self.select_count(q, tracker);
    }

    /// Hands the values in `q` (unordered) to `f` as one or more slices,
    /// without reorganizing, adapting, or reporting accesses — the one way
    /// to materialize a strategy's values. A piece `q` covers is lent in
    /// place; only the matches of a piece `q` cuts through are copied.
    ///
    /// This is the extraction path for layers that present a strategy's
    /// pieces as data (the MAL `bpm` module builds per-piece bats and keeps
    /// a `uselect`'s oids, the catalog checkpoint reads rows, the epoch
    /// layer copies the pieces of a strategy that does not
    /// [share](Self::share_sorted) them) — those reads must not perturb the
    /// self-organization the workload is driving, which only
    /// [`Self::select_count`] and [`Self::reorganize`] do.
    fn peek_slices(&self, q: &ValueRange<V>, f: &mut dyn FnMut(&[V]));

    /// The values [`Self::peek_slices`] hands over for `q`, concatenated
    /// in its order: the read of a caller that keeps them.
    fn peek_collect(&self, q: &ValueRange<V>) -> Vec<V> {
        let mut out = Vec::new();
        self.peek_slices(q, &mut |part| out.extend_from_slice(part));
        out
    }

    /// Bytes of materialized segment storage currently held, including the
    /// base column (the "Replica storage" axis of Figures 8–9).
    fn storage_bytes(&self) -> u64;

    /// Number of materialized segments currently held (Table 2's "Segm.#").
    fn segment_count(&self) -> usize;

    /// The placeable pieces in value order, each as its value range and
    /// its size in bytes (Table 2's size stats) — the partitioning a
    /// distributed placement policy ships to nodes (Section 8's outlook).
    ///
    /// The ranges are pairwise disjoint and sorted, so positional placement
    /// over them never double-counts data, and the bytes sum to the logical
    /// column. Replication reports the flat covering leaf set (the deepest
    /// materialized replicas tiling the domain), so nested parent replicas
    /// are excluded even though they occupy storage; strategies whose
    /// pieces can be degenerate (cracking's empty boundary pieces) may
    /// return fewer entries than [`Self::segment_count`].
    fn pieces(&self) -> Vec<(ValueRange<V>, u64)>;

    /// Folds a batch of pending writes into the physical pieces that own
    /// them, **in place**: every value of `inserts` joins the piece(s)
    /// whose range holds it, then every value of `tombstones` cancels one
    /// occurrence there (both slices ascending; inserts apply first, so a
    /// tombstone may cancel an insert of the same call). The strategy's
    /// organization survives — no piece boundary moves, untouched pieces
    /// are not rewritten — and only the touched pieces are charged to
    /// `tracker`, as one `scan` of the old payload plus one `materialize`
    /// of the new.
    ///
    /// Returns `Some(n)` when the batch was absorbed, `n` being the
    /// tombstones that found no occurrence to cancel (a caller's invariant
    /// break made countable — the survivors are never touched by one), or
    /// `None` when the strategy cannot absorb the batch, in which case it
    /// must have changed nothing and the rows stay in the caller's overlay.
    /// The default absorbs nothing, which is always correct; every
    /// strategy of this crate overrides it, and so does `soc-sim`'s sharded
    /// column, which routes each row to the node that owns its value.
    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        let _ = (inserts, tombstones, tracker);
        None
    }

    /// Sorts the strategy's pieces in their own buffers and hands out each
    /// piece's range with a `Window` of its values — the one copy a
    /// served column holds, shared by the strategy and every epoch
    /// snapshot. The pieces come in value order and tile the strategy's
    /// domain; each window is ascending and immutable, and stays valid
    /// whatever the strategy does next (a split windows the same buffer, a
    /// fold writes a fresh one).
    ///
    /// The sort happens once per piece, the first time it is shared; it
    /// is physical reorganization, charged to nobody, and it moves no
    /// answer or counted byte: pieces still split, fold and scan the same
    /// tuples. [`crate::ConcurrentColumn`] calls this at every epoch it
    /// publishes; a strategy that declines (the default, `None`) is served
    /// from a sorted copy of each piece instead. The segment-based
    /// strategies of this crate share; cracking and replication decline.
    fn share_sorted(&mut self) -> Option<Vec<(ValueRange<V>, Window<V>)>> {
        None
    }

    /// How much self-organization has been performed so far.
    ///
    /// The default reports no activity, which is correct for the static
    /// baselines; adaptive strategies override it.
    fn adaptation(&self) -> AdaptationStats {
        AdaptationStats::default()
    }

    /// This column's rows organized afresh under `spec` over `domain` —
    /// what a migration ([`crate::ConcurrentColumn::set_strategy`]) swaps
    /// in. The default builds one `spec` strategy from every row; `soc-sim`'s
    /// sharded column rebuilds each node under `spec` and keeps its
    /// placement.
    ///
    /// # Errors
    /// The [`ColumnError`] of the strategy constructor.
    fn rebuilt(
        &self,
        spec: &StrategySpec,
        domain: ValueRange<V>,
    ) -> Result<Box<dyn ColumnStrategy<V>>, ColumnError> {
        spec.build(domain, self.peek_collect(&domain))
    }
}
