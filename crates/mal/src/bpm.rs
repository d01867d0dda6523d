//! The `bpm` (bat partition manager) runtime module of Section 3.1.
//!
//! A [`SegmentedBat`] is a bat organized by one of the unified
//! self-organizing strategies: a `soc-core` [`SteppedColumn`] over
//! [`Pair`]s — ordered by value, carrying their head oid — so plans that
//! reconstruct tuples (the `join` in Figure 1) stay correct through any
//! reorganization, at the price the paper names: heads are no longer
//! positionally ordered.
//!
//! The column is served the way a `ConcurrentColumn` is, by the same
//! writer, stepped by the catalog on the statement's thread. Everything
//! this module reads — the piece list the segment optimizer consults (the
//! meta-index), a piece's rows, the packed column — is read off the
//! writer's published snapshot, whose pieces ascend and tile the domain
//! and each hold their rows sorted by `(value, oid)`. A statement pins
//! one snapshot per column ([`SegmentedBat::pinned`]) and reads it to the
//! end of its plan. Everything that changes the column is a writer step:
//! [`SegmentedBat::adapt`] (the Section 3.3 hook the segment optimizer
//! injects) is the reorganization the writer runs for a reader's hint, a
//! strategy switch is the writer's migration, and a catalog merge hands
//! the writer one delta batch of the rows the pending writes change,
//! which it folds into the pieces that own them, so the organization the
//! queries built survives. Every step charges the writer's
//! reorganization bill, which [`SegmentedBat::reorg_write_bytes`]
//! reports.
//!
//! A plan's `uselect` over a piece binary-searches the piece's sorted
//! rows and keeps the oids of the run it selects
//! ([`Pieces::uselect`]); any other consumer gets the piece's whole
//! bat. So a select returns a segmented column's base rows in ascending
//! `(value, oid)` order. Pending deltas are the plan's to merge
//! (`sql.subdelta`/`sql.projectdelta` over the catalog's delta bats),
//! which appends their rows after the base rows.

use std::cmp::Ordering::{Equal, Less};
use std::ops::Range;
use std::sync::Arc;

use soc_bat::algebra::{Atom, Selectable};
use soc_bat::{Bat, BatError, Head, Oid, Tail};
use soc_core::{
    AdaptationStats, ColumnError, ColumnStrategy, ColumnValue, DeltaBatch, DeltaOp, OrdF64, Pair,
    SteppedColumn, StrategyKind, StrategySnapshot, StrategySpec, ValueRange,
};

/// Errors from segmented-bat operations.
#[derive(Debug)]
pub enum BpmError {
    /// The tail type cannot be value-partitioned.
    UnsupportedTail(&'static str),
    /// A `:dbl` tail holds NaN, which has no place in a value order.
    NanTail {
        /// Row index of the offending value.
        row: usize,
    },
    /// The declared domain is empty or not representable in the tail type.
    EmptyDomain {
        /// Inclusive lower bound as passed in.
        lo: f64,
        /// Exclusive upper bound as passed in.
        hi_excl: f64,
    },
    /// The strategy constructor rejected the rows (value outside domain).
    Column(ColumnError),
    /// Underlying kernel error.
    Bat(BatError),
    /// Piece index out of range.
    BadPiece(usize),
    /// The rebuild under another strategy failed; the old one stays.
    MigrationFailed(StrategyKind),
}

impl std::fmt::Display for BpmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpmError::UnsupportedTail(t) => write!(f, "cannot segment a {t} tail"),
            BpmError::NanTail { row } => write!(f, "NaN at row {row} cannot be value-ordered"),
            BpmError::EmptyDomain { lo, hi_excl } => {
                write!(f, "domain [{lo}, {hi_excl}) is empty for this tail type")
            }
            BpmError::Column(e) => write!(f, "strategy construction: {e}"),
            BpmError::Bat(e) => write!(f, "{e}"),
            BpmError::BadPiece(i) => write!(f, "no piece #{i}"),
            BpmError::MigrationFailed(kind) => write!(f, "rebuild as {kind:?} failed"),
        }
    }
}

impl std::error::Error for BpmError {}

impl From<BatError> for BpmError {
    fn from(e: BatError) -> Self {
        BpmError::Bat(e)
    }
}

impl From<ColumnError> for BpmError {
    fn from(e: ColumnError) -> Self {
        BpmError::Column(e)
    }
}

/// A tail value type the bpm layer can organize: conversions between the
/// `f64` boundary space MAL atoms live in and the typed value domain.
pub(crate) trait TailValue: ColumnValue {
    /// The tail's type name, as [`Tail::type_name`] spells it.
    const TYPE_NAME: &'static str;

    /// The value as its bat tail holds it, compared as `algebra.uselect`
    /// compares that tail.
    type Raw: Selectable;

    /// This value as its bat tail holds it.
    fn raw(self) -> Self::Raw;

    /// Rebuilds this type's tail from extracted values.
    fn make_tail(values: Vec<Self>) -> Tail;

    /// The `(oid, value)` rows of `bat`, whose tail must be of this type;
    /// a `:dbl` NaN has no place in a value order ([`BpmError::NanTail`]).
    fn rows(bat: &Bat) -> Result<Vec<(u64, Self)>, BpmError>;

    /// Smallest representable value `>= x`; `None` when no such value
    /// exists (NaN, or `x` above the type's range) — an empty query.
    fn bound_lo(x: f64) -> Option<Self>;

    /// Largest representable value `<= x`; `None` when no such value
    /// exists.
    fn bound_hi(x: f64) -> Option<Self>;

    /// Largest representable value strictly below `x` — the closed top of
    /// a half-open `[lo, x)` domain declaration.
    fn below_excl(x: f64) -> Option<Self>;
}

impl TailValue for i64 {
    const TYPE_NAME: &'static str = "int";
    type Raw = i64;

    fn raw(self) -> i64 {
        self
    }

    fn make_tail(values: Vec<Self>) -> Tail {
        Tail::Int(values.into())
    }

    fn bound_lo(x: f64) -> Option<Self> {
        if x.is_nan() || x > i64::MAX as f64 {
            return None;
        }
        Some(x.ceil().max(i64::MIN as f64) as i64)
    }

    fn bound_hi(x: f64) -> Option<Self> {
        if x.is_nan() || x < i64::MIN as f64 {
            return None;
        }
        Some(x.floor().min(i64::MAX as f64) as i64)
    }

    fn below_excl(x: f64) -> Option<Self> {
        let f = x.floor();
        Self::bound_hi(if f == x { x - 1.0 } else { f })
    }

    fn rows(bat: &Bat) -> Result<Vec<(u64, Self)>, BpmError> {
        match bat.tail() {
            Tail::Int(v) => Ok(paired(bat, v)),
            other => Err(mismatch::<Self>(other)),
        }
    }
}

impl TailValue for u64 {
    const TYPE_NAME: &'static str = "oid";
    type Raw = u64;

    fn raw(self) -> u64 {
        self
    }

    fn make_tail(values: Vec<Self>) -> Tail {
        Tail::Oid(values.into())
    }

    fn bound_lo(x: f64) -> Option<Self> {
        if x.is_nan() || x > u64::MAX as f64 {
            return None;
        }
        Some(x.ceil().max(0.0) as u64)
    }

    fn bound_hi(x: f64) -> Option<Self> {
        if x.is_nan() || x < 0.0 {
            return None;
        }
        Some(x.floor().min(u64::MAX as f64) as u64)
    }

    fn below_excl(x: f64) -> Option<Self> {
        let f = x.floor();
        Self::bound_hi(if f == x { x - 1.0 } else { f })
    }

    fn rows(bat: &Bat) -> Result<Vec<(u64, Self)>, BpmError> {
        match bat.tail() {
            Tail::Oid(v) => Ok(paired(bat, v)),
            other => Err(mismatch::<Self>(other)),
        }
    }
}

impl TailValue for OrdF64 {
    const TYPE_NAME: &'static str = "dbl";
    type Raw = f64;

    fn raw(self) -> f64 {
        self.get()
    }

    fn make_tail(values: Vec<Self>) -> Tail {
        Tail::Dbl(Arc::new(values.into_iter().map(OrdF64::get).collect()))
    }

    fn bound_lo(x: f64) -> Option<Self> {
        OrdF64::new(x)
    }

    fn bound_hi(x: f64) -> Option<Self> {
        OrdF64::new(x)
    }

    fn below_excl(x: f64) -> Option<Self> {
        OrdF64::new(x.next_down())
    }

    fn rows(bat: &Bat) -> Result<Vec<(u64, Self)>, BpmError> {
        let Tail::Dbl(v) = bat.tail() else {
            return Err(mismatch::<Self>(bat.tail()));
        };
        let ordered = |(i, &x): (usize, &f64)| match OrdF64::new(x) {
            Some(ord) => Ok((bat.head_at(i), ord)),
            None => Err(BpmError::NanTail { row: i }),
        };
        v.iter().enumerate().map(ordered).collect()
    }
}

/// `bat`'s head oids beside its tail `values`.
fn paired<T: Copy>(bat: &Bat, values: &[T]) -> Vec<(u64, T)> {
    (0..)
        .zip(values)
        .map(|(i, &x)| (bat.head_at(i), x))
        .collect()
}

/// The error for a tail that is not `V`'s type.
fn mismatch<V: TailValue>(tail: &Tail) -> BpmError {
    BpmError::Bat(BatError::TypeMismatch {
        expected: V::TYPE_NAME,
        got: tail.type_name(),
    })
}

/// What a strategy constructor yields for one tail type.
type BuiltStrategy<V> = Result<Box<dyn ColumnStrategy<Pair<V>>>, ColumnError>;

/// A column's checked share of a merge, ready to fold — see
/// [`SegmentedBat::stage_fold`].
pub(crate) type StagedFold<'a> = Box<dyn FnOnce() + 'a>;

/// What a statement reads of a segmented column: one published snapshot,
/// whose pieces ascend and each hold their rows sorted by `(value, oid)`.
pub(crate) trait Pieces: Send + Sync {
    /// Number of pieces: the strategy's pieces, the first and last widened
    /// to the domain's edges, with the gaps between them as pieces of
    /// their own.
    fn count(&self) -> usize;

    /// Indices of the pieces overlapping the closed query `[lo, hi]`:
    /// one run, as the pieces ascend.
    fn overlapping(&self, lo: f64, hi: f64) -> Range<usize>;

    /// Estimated bytes a query over `[lo, hi]` must touch.
    fn footprint_bytes(&self, lo: f64, hi: f64) -> u64;

    /// Closed value spans of the pieces, projected to `f64`.
    fn spans(&self) -> Vec<(f64, f64)>;

    /// Pieces `pieces`' rows as a bat (materialized — MAL materializes
    /// intermediates): explicit oid head, typed tail, ascending.
    ///
    /// # Errors
    /// [`BpmError::BadPiece`] for an index past the last piece.
    fn bat(&self, pieces: Range<usize>) -> Result<Bat, BpmError>;

    /// `algebra.uselect(bat(i..i + 1), lo, hi)` without building the
    /// piece's bat: two binary searches in the piece's sorted rows find
    /// the run whose value lies in `[lo, hi]` and keep its oids, in order
    /// — the bat, head variant included, and the error that call returns.
    ///
    /// # Errors
    /// [`BpmError::BadPiece`] for an index past the last piece, and
    /// [`BpmError::Bat`] with `uselect`'s error for bounds the tail type
    /// cannot compare against.
    fn uselect(&self, i: usize, lo: &Atom, hi: &Atom) -> Result<Bat, BpmError>;

    /// The rows whose oid `oids` (ascending) lists, as [`Self::bat`]: one
    /// walk over the pieces, none when `oids` is empty.
    fn rows_of(&self, oids: &[Oid]) -> Result<Bat, BpmError>;
}

/// A statement's pinned snapshot of one column.
pub(crate) type Pinned = Arc<dyn Pieces>;

impl<V: TailValue> Pieces for StrategySnapshot<Pair<V>> {
    fn count(&self) -> usize {
        self.piece_count()
    }

    fn overlapping(&self, lo: f64, hi: f64) -> Range<usize> {
        if lo.is_nan() || hi.is_nan() {
            return 0..0;
        }
        // How many leading pieces `before` holds for: a prefix of them,
        // found by binary search, as `to_f64` keeps their order.
        let leading = |before: &dyn Fn(&ValueRange<Pair<V>>) -> bool| {
            let (mut lo, mut hi) = (0, self.piece_count());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                match self.piece(mid) {
                    Some((r, _)) if before(&r) => lo = mid + 1,
                    _ => hi = mid,
                }
            }
            lo
        };
        let start = leading(&|r| r.hi().value.to_f64() < lo);
        let end = leading(&|r| r.lo().value.to_f64() <= hi);
        start..end.max(start)
    }

    fn footprint_bytes(&self, lo: f64, hi: f64) -> u64 {
        let rows = self.overlapping(lo, hi).filter_map(|i| self.piece(i));
        rows.map(|(_, rows)| rows.len() as u64).sum::<u64>() * Pair::<V>::BYTES
    }

    fn spans(&self) -> Vec<(f64, f64)> {
        let ranges = (0..self.piece_count()).filter_map(|i| self.piece(i));
        ranges
            .map(|(r, _)| (r.lo().value.to_f64(), r.hi().value.to_f64()))
            .collect()
    }

    fn bat(&self, pieces: Range<usize>) -> Result<Bat, BpmError> {
        if pieces.end > self.piece_count() {
            return Err(BpmError::BadPiece(pieces.end - 1));
        }
        let parts = pieces.filter_map(|i| self.piece(i)).map(|(_, rows)| rows);
        let n = parts.clone().map(<[_]>::len).sum();
        let (mut heads, mut values) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for rows in parts {
            heads.extend(rows.iter().map(|p| p.oid));
            values.extend(rows.iter().map(|p| p.value));
        }
        Ok(Bat::new(Head::Oids(heads.into()), V::make_tail(values))?)
    }

    fn uselect(&self, i: usize, lo: &Atom, hi: &Atom) -> Result<Bat, BpmError> {
        let (_, rows) = self.piece(i).ok_or(BpmError::BadPiece(i))?;
        let keep = V::Raw::bounds(lo, hi)?;
        // The rows ascend by value, and a value's key does not fall as it
        // rises: the kept rows are one run. A NaN bound keeps none.
        let key = |p: &Pair<V>| p.value.raw().key();
        let below = |p: &Pair<V>| !matches!(keep.start().partial_cmp(&key(p)), Some(Less | Equal));
        let start = rows.partition_point(below);
        let end = rows.partition_point(|p| key(p) <= *keep.end());
        let heads: Vec<Oid> = rows[start..end.max(start)].iter().map(|p| p.oid).collect();
        let n = heads.len();
        Ok(Bat::new(Head::Oids(heads.into()), Tail::Nil(n))?)
    }

    fn rows_of(&self, oids: &[Oid]) -> Result<Bat, BpmError> {
        let (mut heads, mut values) = (Vec::new(), Vec::new());
        let pieces = (0..self.piece_count()).filter_map(|i| self.piece(i));
        for (_, rows) in pieces.take_while(|_| !oids.is_empty()) {
            for p in rows.iter().filter(|p| oids.binary_search(&p.oid).is_ok()) {
                heads.push(p.oid);
                values.push(p.value);
            }
        }
        Ok(Bat::new(Head::Oids(heads.into()), V::make_tail(values))?)
    }
}

/// One typed column behind the adapter: the served column and its value
/// domain.
struct TypedSeg<V: TailValue> {
    column: Box<SteppedColumn<Pair<V>>>,
    value_domain: ValueRange<V>,
}

impl<V: TailValue> TypedSeg<V> {
    fn build(
        rows: Vec<(u64, V)>,
        domain_lo: f64,
        domain_hi_excl: f64,
        make: impl FnOnce(ValueRange<V>, Vec<(u64, V)>) -> BuiltStrategy<V>,
    ) -> Result<Self, BpmError> {
        let empty = || BpmError::EmptyDomain {
            lo: domain_lo,
            hi_excl: domain_hi_excl,
        };
        let lo = V::bound_lo(domain_lo).ok_or_else(empty)?;
        let hi = V::below_excl(domain_hi_excl).ok_or_else(empty)?;
        let value_domain = ValueRange::new(lo, hi).ok_or_else(empty)?;
        let strategy = make(value_domain, rows)?;
        Ok(TypedSeg {
            column: Box::new(SteppedColumn::new(strategy, value_domain.paired())),
            value_domain,
        })
    }

    /// One self-organization pass for the closed query `[lo, hi]` (in
    /// `f64` boundary space, clipped to the domain): the writer's
    /// reorganization step, exactly as it runs a reader's hint. Returns the
    /// number of adaptation operations performed.
    fn adapt(&mut self, lo: f64, hi: f64) -> u64 {
        let (Some(lo_v), Some(hi_v)) = (V::bound_lo(lo), V::bound_hi(hi)) else {
            return 0;
        };
        let Some(q) = ValueRange::new(lo_v, hi_v).and_then(|q| q.intersect(&self.value_domain))
        else {
            return 0;
        };
        let before = self.column.strategy().adaptation();
        self.column.reorganize(&q.paired());
        let after = self.column.strategy().adaptation();
        (after.splits - before.splits)
            + (after.merges - before.merges)
            + (after.replicas_created - before.replicas_created)
    }

    /// `bat`'s rows as pairs the column can hold: typed like it, no NaN,
    /// inside the domain — the one fold a strategy refuses is an insert
    /// outside it.
    fn admitted(&self, bat: &Bat) -> Result<Vec<Pair<V>>, BpmError> {
        let pairs: Vec<Pair<V>> = V::rows(bat)?
            .into_iter()
            .map(|(oid, v)| Pair::new(v, oid))
            .collect();
        let domain = self.value_domain.paired();
        match pairs.iter().all(|p| domain.contains(*p)) {
            true => Ok(pairs),
            false => Err(ColumnError::ValueOutsideDomain.into()),
        }
    }

    /// See [`SegmentedBat::stage_fold`]: a `Delete` per `old` row and an
    /// `Insert` per `new` one, shadowed per oid ([`DeltaBatch`]), so an
    /// update to the same value cancels. Checking the `new` rows here
    /// leaves nothing fallible in the returned fold.
    fn stage_fold(&mut self, old: &Bat, new: &Bat) -> Result<StagedFold<'_>, BpmError> {
        let mut batch = DeltaBatch::new();
        for (oid, v) in V::rows(old)? {
            let value = Pair::new(v, oid);
            batch.push(DeltaOp::Delete { oid, value });
        }
        for value in self.admitted(new)? {
            batch.push(DeltaOp::Insert {
                oid: value.oid,
                value,
            });
        }
        Ok(Box::new(move || {
            self.column.apply_deltas(batch);
            self.column.drain_deltas();
        }))
    }
}

enum PairColumn {
    Int(TypedSeg<i64>),
    Dbl(TypedSeg<OrdF64>),
    Oid(TypedSeg<u64>),
}

/// Runs a generic expression against whichever typed column is inside.
macro_rules! on_seg {
    ($col:expr, $seg:ident => $body:expr) => {
        match $col {
            PairColumn::Int($seg) => $body,
            PairColumn::Dbl($seg) => $body,
            PairColumn::Oid($seg) => $body,
        }
    };
}

/// Dispatches construction over the three organizable tail types. `$make`
/// is token-pasted per arm, so one generic closure expression instantiates
/// at each tail's `TailValue` type (and moves its captures on exactly one
/// branch).
macro_rules! build_column {
    ($bat:expr, $lo:expr, $hi:expr, $make:expr) => {
        match $bat.tail() {
            Tail::Int(_) => PairColumn::Int(TypedSeg::build(i64::rows($bat)?, $lo, $hi, $make)?),
            Tail::Dbl(_) => PairColumn::Dbl(TypedSeg::build(OrdF64::rows($bat)?, $lo, $hi, $make)?),
            Tail::Oid(_) => PairColumn::Oid(TypedSeg::build(u64::rows($bat)?, $lo, $hi, $make)?),
            other => return Err(BpmError::UnsupportedTail(other.type_name())),
        }
    };
}

/// A bat organized by a self-organizing [`ColumnStrategy`], preserving
/// `(oid, value)` pairs across reorganization.
pub struct SegmentedBat {
    inner: PairColumn,
    /// The half-open domain `[lo, hi_excl)` and the spec the column was
    /// built under, kept so it can be re-organized under a different
    /// strategy and checkpointed.
    pub(crate) domain: (f64, f64),
    pub(crate) spec: StrategySpec,
    /// Reorganization writes billed before the column was restored from a
    /// checkpoint.
    restored_bill: u64,
}

impl std::fmt::Debug for SegmentedBat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedBat")
            .field("strategy", &self.strategy_name())
            .field("pieces", &self.piece_count())
            .finish_non_exhaustive()
    }
}

impl SegmentedBat {
    /// Organizes `bat` under the strategy `spec` describes — the unified
    /// construction path every execution layer shares. The domain is
    /// half-open `[domain_lo, domain_hi_excl)` (for `:int` tails pass
    /// `max + 1`), matching the optimizer-level knowledge the paper's
    /// meta-index carries.
    ///
    /// # Errors
    /// [`BpmError::UnsupportedTail`] for `:str`/`:nil` tails,
    /// [`BpmError::NanTail`] for NaN in a `:dbl` tail,
    /// [`BpmError::EmptyDomain`] when the domain has no representable
    /// value, and [`BpmError::Column`] when a value lies outside it.
    pub(crate) fn from_spec(
        bat: Bat,
        domain_lo: f64,
        domain_hi_excl: f64,
        spec: &StrategySpec,
    ) -> Result<Self, BpmError> {
        let inner = build_column!(&bat, domain_lo, domain_hi_excl, |d, rows| spec
            .build_paired(d, rows));
        Ok(SegmentedBat {
            inner,
            domain: (domain_lo, domain_hi_excl),
            spec: *spec,
            restored_bill: 0,
        })
    }

    /// The current snapshot, for a statement to read to its end.
    pub(crate) fn pinned(&self) -> Pinned {
        on_seg!(&self.inner, s => s.column.snapshot())
    }

    /// Number of pieces (the meta-index): the strategy's pieces, the first
    /// and last widened to the domain's edges, with the gaps between them
    /// as pieces of their own.
    pub fn piece_count(&self) -> usize {
        self.pinned().count()
    }

    /// Materialized storage held by the strategy (replication exceeds the
    /// bare column; in-place strategies equal it).
    #[cfg(test)]
    pub(crate) fn storage_bytes(&self) -> u64 {
        on_seg!(&self.inner, s => s.column.strategy().storage_bytes())
    }

    /// Row count of the whole column.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> u64 {
        on_seg!(&self.inner, s => s.column.snapshot().total_rows())
    }

    /// The underlying strategy's display name ("APM Segm", "Cracking", …).
    pub fn strategy_name(&self) -> String {
        on_seg!(&self.inner, s => s.column.strategy().name())
    }

    /// The strategy's uniform adaptation counters.
    pub fn adaptation(&self) -> AdaptationStats {
        on_seg!(&self.inner, s => s.column.strategy().adaptation())
    }

    /// Bytes written by reorganization — every [`Self::adapt`], merge fold
    /// and strategy switch, plus the bill a checkpoint restored — the
    /// reorganization bill SQL-level ablations report.
    pub fn reorg_write_bytes(&self) -> u64 {
        let billed = on_seg!(&self.inner, s => s.column.snapshot().reorg_totals().write_bytes);
        self.restored_bill + billed
    }

    /// Carries the bill of the column a checkpoint saved into the restored
    /// one.
    pub(crate) fn add_reorg_write_bytes(&mut self, bytes: u64) {
        self.restored_bill += bytes;
    }

    /// Closed value spans of the pieces, projected to `f64` — the
    /// meta-index view diagnostics and tests read.
    pub fn piece_spans(&self) -> Vec<(f64, f64)> {
        self.pinned().spans()
    }

    /// An empty bat typed like this column's tail — what a delta bind is
    /// shaped after. Read off the column's type, so it costs no piece
    /// read and holds for a column with no rows at all.
    pub(crate) fn empty_like(&self) -> Bat {
        match &self.inner {
            PairColumn::Int(_) => Bat::dense_int(Vec::new()),
            PairColumn::Dbl(_) => Bat::dense_dbl(Vec::new()),
            PairColumn::Oid(_) => Bat::dense_oid(Vec::new()),
        }
    }

    /// Estimated bytes a query over `[lo, hi]` must touch — the plan
    /// memory-footprint estimate of Section 3.1.
    pub fn footprint_bytes(&self, lo: f64, hi: f64) -> u64 {
        self.pinned().footprint_bytes(lo, hi)
    }

    /// Reconstructs the whole bat from the pieces (the fallback for plans
    /// that were not segment-optimized), ascending.
    pub fn pack(&self) -> Result<Bat, BpmError> {
        let pinned = self.pinned();
        pinned.bat(0..pinned.count())
    }

    /// Runs one self-organization pass for the closed query `[lo, hi]`:
    /// the strategy reorganizes exactly as its selection would (split,
    /// crack, or replicate — Section 3.3 made part of query execution),
    /// and the writer publishes the pieces it moved. The plan reads its
    /// answer from the pieces. Returns the number of adaptation operations.
    pub fn adapt(&mut self, lo: &Atom, hi: &Atom) -> Result<u64, BpmError> {
        let (Some(ql), Some(qh)) = (lo.as_f64(), hi.as_f64()) else {
            return Ok(0);
        };
        Ok(on_seg!(&mut self.inner, s => s.adapt(ql, qh)))
    }

    /// Re-organizes the column under `kind` through the writer's
    /// migration: its rows rebuilt, its bill charged one full read and
    /// write, its adaptation counters restarted.
    ///
    /// # Errors
    /// [`BpmError::MigrationFailed`] when the rebuild fails, which leaves
    /// the column as it was.
    pub(crate) fn set_strategy(&mut self, kind: StrategyKind) -> Result<(), BpmError> {
        let spec = StrategySpec { kind, ..self.spec };
        let took = on_seg!(&mut self.inner, s => {
            let failed = s.column.snapshot().failed_migrations();
            s.column.set_strategy(spec);
            s.column.snapshot().failed_migrations() == failed
        });
        if !took {
            return Err(BpmError::MigrationFailed(kind));
        }
        self.spec = spec;
        Ok(())
    }

    /// The rows whose oid `oids` (ascending) lists, as the pieces hold
    /// them: explicit oid head, typed tail, ascending.
    pub(crate) fn rows_of(&self, oids: &[Oid]) -> Result<Bat, BpmError> {
        self.pinned().rows_of(oids)
    }

    /// Whether the column can hold every row of `bat`, as a merge would
    /// fold it in.
    ///
    /// # Errors
    /// What [`Self::stage_fold`] raises for its `new` rows.
    pub(crate) fn admits(&self, bat: &Bat) -> Result<(), BpmError> {
        on_seg!(&self.inner, s => s.admitted(bat).map(drop))
    }

    /// Stages a merge that replaces the column's `old` rows (read off its
    /// pieces, [`Self::rows_of`]) by the `new` ones: one delta batch,
    /// whose inserts are checked against the column's domain. The returned
    /// fold cannot fail; it hands the batch to the writer, which seals it
    /// and folds it into the pieces that own its rows, keeping every piece
    /// boundary.
    ///
    /// # Errors
    /// [`BpmError::Bat`] for a bat of another type than the column's,
    /// [`BpmError::NanTail`] for a NaN, and [`BpmError::Column`] for a
    /// `new` row outside the registered domain.
    pub(crate) fn stage_fold(&mut self, old: &Bat, new: &Bat) -> Result<StagedFold<'_>, BpmError> {
        on_seg!(&mut self.inner, s => s.stage_fold(old, new))
    }

    /// Structural invariant check: the snapshot's validator, and the
    /// snapshot holds every row the strategy holds.
    pub fn validate(&self) -> Result<(), String> {
        on_seg!(&self.inner, s => {
            let snap = s.column.snapshot();
            snap.validate().map_err(|v| v.to_string())?;
            let held = s.column.strategy().peek_collect(&s.value_domain.paired()).len() as u64;
            match snap.total_rows() == held {
                true => Ok(()),
                false => Err(format!("pieces serve {} rows, the strategy holds {held}", snap.total_rows())),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cracking: every query bound becomes a piece boundary.
    fn cracked(bat: Bat, lo: f64, hi_excl: f64) -> Result<SegmentedBat, BpmError> {
        SegmentedBat::from_spec(bat, lo, hi_excl, &StrategySpec::new(StrategyKind::Cracking))
    }

    fn seg_bat() -> SegmentedBat {
        // 1000 int rows, value == oid, domain [0, 1000).
        cracked(Bat::dense_int((0..1000).collect()), 0.0, 1000.0).unwrap()
    }

    #[test]
    fn a_narrow_piece_selection_holds_only_the_oids_it_keeps() {
        // 25 of the piece's 1 000 rows qualify: the head the selection
        // hands out is sized by them, not by the piece.
        let s = seg_bat();
        let b = s
            .pinned()
            .uselect(0, &Atom::Int(500), &Atom::Int(524))
            .unwrap();
        let Head::Oids(heads) = b.head() else {
            panic!("a piece selection has explicit oids")
        };
        assert_eq!(**heads, (500..525).collect::<Vec<u64>>());
        assert_eq!(heads.capacity(), heads.len());
    }

    #[test]
    fn starts_as_one_piece() {
        let s = seg_bat();
        assert_eq!(s.piece_count(), 1);
        assert_eq!(s.pinned().bat(0..1).unwrap().len(), 1000);
        s.validate().unwrap();
        assert_eq!(s.pack().unwrap().len(), 1000);
    }

    #[test]
    fn empty_like_reads_the_tail_type_without_reading_a_piece() {
        let int = cracked(Bat::dense_int(vec![]), 0.0, 10.0).unwrap();
        let dbl = cracked(Bat::dense_dbl(vec![1.5]), 0.0, 10.0).unwrap();
        let oid = cracked(Bat::dense_oid(vec![]), 0.0, 10.0).unwrap();
        for (seg, name) in [(int, "int"), (dbl, "dbl"), (oid, "oid")] {
            let e = seg.empty_like();
            assert!(e.is_empty());
            assert_eq!(e.tail().type_name(), name);
        }
    }

    #[test]
    fn rejects_string_tails() {
        let bat = Bat::new(
            Head::Void { base: 0 },
            Tail::Str(vec!["a".to_owned()].into()),
        )
        .unwrap();
        assert!(matches!(
            cracked(bat, 0.0, 1.0),
            Err(BpmError::UnsupportedTail("str"))
        ));
    }

    #[test]
    fn rejects_nan_dbl_tails() {
        let bat = Bat::dense_dbl(vec![1.0, f64::NAN]);
        assert!(matches!(
            cracked(bat, 0.0, 10.0),
            Err(BpmError::NanTail { row: 1 })
        ));
    }

    #[test]
    fn rejects_empty_domains() {
        let bat = Bat::dense_int(vec![]);
        assert!(matches!(
            cracked(bat, 5.0, 5.0),
            Err(BpmError::EmptyDomain { .. })
        ));
    }

    #[test]
    fn adapt_splits_at_query_bounds_preserving_oids() {
        let mut s = seg_bat();
        let n = s.adapt(&Atom::Int(400), &Atom::Int(599)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(s.piece_count(), 3);
        s.validate().unwrap();
        // The middle piece holds exactly the selected rows with true oids.
        let mid = s.pinned().bat(1..2).unwrap();
        assert_eq!(mid.len(), 200);
        let mut oids = mid.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, (400..600).collect::<Vec<u64>>());
        // Row count is conserved.
        assert_eq!(s.rows(), 1000);
        let total: usize = (0..s.piece_count())
            .map(|i| s.pinned().bat(i..i + 1).unwrap().len())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn overlapping_respects_piece_boundaries() {
        let mut s = seg_bat();
        s.adapt(&Atom::Int(400), &Atom::Int(599)).unwrap();
        // Pieces are [0,399], [400,599], [600,999].
        assert_eq!(s.pinned().overlapping(600.0, 700.0), 2..3);
        assert_eq!(s.pinned().overlapping(599.0, 599.0), 1..2);
        assert_eq!(s.pinned().overlapping(0.0, 1000.0), 0..3);
        // Fractional bounds between pieces touch nothing extra.
        assert!(s.pinned().overlapping(599.5, 599.9).is_empty());
    }

    #[test]
    fn footprint_counts_overlapping_bytes() {
        let mut s = seg_bat();
        s.adapt(&Atom::Int(400), &Atom::Int(599)).unwrap();
        // 200 rows × (8-byte value + 8-byte oid).
        assert_eq!(s.footprint_bytes(450.0, 550.0), 200 * 16);
    }

    #[test]
    fn dbl_tails_split_with_exact_boundaries() {
        let bat = Bat::dense_dbl(vec![204.9, 205.05, 205.11, 205.115, 205.13]);
        let mut s = cracked(bat, 204.0, 206.0).unwrap();
        s.adapt(&Atom::Dbl(205.1), &Atom::Dbl(205.12)).unwrap();
        s.validate().unwrap();
        assert_eq!(s.piece_count(), 3);
        let mid = s.pinned().bat(1..2).unwrap();
        assert_eq!(mid.len(), 2); // 205.11 and 205.115
                                  // Oids preserved: positions 2 and 3 of the base bat.
        let mut oids = mid.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, vec![2, 3]);
    }

    #[test]
    fn pack_reconstructs_every_row() {
        let mut s = seg_bat();
        s.adapt(&Atom::Int(100), &Atom::Int(199)).unwrap();
        s.adapt(&Atom::Int(500), &Atom::Int(899)).unwrap();
        let packed = s.pack().unwrap();
        assert_eq!(packed.len(), 1000);
        let mut oids = packed.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn adapt_with_never_split_is_inert() {
        let bat = Bat::dense_int((0..100).collect());
        let spec = StrategySpec::new(StrategyKind::NoSegm);
        let mut s = SegmentedBat::from_spec(bat, 0.0, 100.0, &spec).unwrap();
        assert_eq!(s.adapt(&Atom::Int(10), &Atom::Int(20)).unwrap(), 0);
        assert_eq!(s.piece_count(), 1);
    }

    #[test]
    fn every_strategy_kind_drives_a_segmented_bat() {
        // The tentpole claim at the unit level: each of the nine kinds
        // organizes a bat, answers piece reads identically, and keeps the
        // pairing intact under adaptation.
        let values: Vec<i64> = (0..2_000).map(|i| (i * 7919) % 1000).collect();
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(7);
            let mut s = SegmentedBat::from_spec(Bat::dense_int(values.clone()), 0.0, 1000.0, &spec)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            for k in 0..8 {
                let lo = (k * 117) % 800;
                s.adapt(&Atom::Int(lo), &Atom::Int(lo + 150)).unwrap();
            }
            s.validate().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let packed = s.pack().unwrap();
            assert_eq!(packed.len(), 2_000, "{kind:?}");
            let mut oids = packed.head_oids();
            oids.sort_unstable();
            assert_eq!(oids, (0..2_000u64).collect::<Vec<_>>(), "{kind:?}");
            if kind.is_adaptive() {
                let a = s.adaptation();
                assert!(
                    a.splits + a.merges + a.replicas_created > 0,
                    "{kind:?} reported no adaptation"
                );
                assert!(s.reorg_write_bytes() > 0, "{kind:?} wrote nothing");
            }
        }
    }

    #[test]
    fn replication_pieces_are_the_flat_covering_partition() {
        let spec = StrategySpec::new(StrategyKind::ApmRepl).with_apm_bounds(256, 1024);
        let values: Vec<i64> = (0..2_000).map(|i| (i * 31) % 1000).collect();
        let mut s = SegmentedBat::from_spec(Bat::dense_int(values), 0.0, 1000.0, &spec).unwrap();
        for k in 0..10 {
            let lo = (k * 97) % 800;
            s.adapt(&Atom::Int(lo), &Atom::Int(lo + 100)).unwrap();
        }
        s.validate().unwrap();
        // Replication holds more storage than the logical column, but the
        // pieces tile it exactly once.
        assert!(s.storage_bytes() >= 2_000 * 16);
        let total: usize = (0..s.piece_count())
            .map(|i| s.pinned().bat(i..i + 1).unwrap().len())
            .sum();
        assert_eq!(total, 2_000);
    }
}
