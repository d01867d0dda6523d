//! The `bpm` (bat partition manager) runtime module of Section 3.1.
//!
//! A [`SegmentedBat`] is a bat organized by one of the unified
//! self-organizing strategies: a thin `(oid, value)`-pair-preserving
//! adapter over a boxed [`ColumnStrategy`] from `soc-core`. Rows are
//! [`Pair`]s — ordered by value, carrying their head oid — so plans that
//! reconstruct tuples (the `join` in Figure 1) stay correct through any
//! reorganization, at the price the paper names: heads inside a piece are
//! no longer positionally ordered.
//!
//! Because the adapter speaks only the [`ColumnStrategy`] trait, every
//! strategy the evaluation compares — segmentation, replication, cracking,
//! the static baselines — is drivable from the MAL/SQL stack: pieces come
//! from `segment_ranges()`, reorganization is the strategy's own
//! `select_count` run by [`SegmentedBat::adapt`] (the Section 3.3 hook the
//! segment optimizer injects), and reorganization accounting flows out of
//! `adaptation()` uniformly. A catalog merge is the strategy's own
//! `fold_delta` too: the pending deltas land in the pieces that own them,
//! and the organization the queries built survives.
//!
//! The adapter materializes rows one way: the strategy's read-only
//! `peek_collect`, into the piece bats a compiled plan binds. Pending
//! deltas are the plan's to merge (`sql.subdelta`/`sql.projectdelta` over
//! the catalog's delta bats); this module only seals them into a run when
//! the catalog merges them into the pieces.

use std::collections::BTreeMap;
use std::sync::Arc;

use soc_bat::{algebra::Atom, Bat, BatError, Head, Oid, Tail};
use soc_core::{
    AdaptationStats, ColumnError, ColumnStrategy, ColumnValue, CountingTracker, DeltaBatch,
    DeltaOp, DeltaRun, OrdF64, Pair, SegIdGen, StrategySpec, ValueRange,
};

use crate::catalog::{ColumnDeltas, MergeReport};

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

    /// Rebuilds this type's tail from extracted values.
    fn make_tail(values: Vec<Self>) -> Tail;

    /// The typed value a delta [`Atom`] lands as. The `:int` and `:oid`
    /// coercions *are* the ones `atoms_to_bat` applies to the delta bats
    /// the Figure 1 plan binds, so a merge folds exactly the rows the plan
    /// read, and `None` is exactly an atom a delta bind rejects
    /// (`Str`/`Nil`, a `Dbl` or negative `Int` into `:oid`). A `:dbl` tail
    /// is `None` for `Str`/`Nil` and for NaN, which has no place in a
    /// value order ([`BpmError::NanTail`]).
    fn from_atom(a: &Atom) -> Option<Self>;

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

    fn from_atom(a: &Atom) -> Option<Self> {
        match a {
            Atom::Int(v) => Some(*v),
            Atom::Oid(v) => Some(*v as i64),
            Atom::Dbl(v) => Some(*v as i64),
            Atom::Str(_) | Atom::Nil => None,
        }
    }
}

impl TailValue for u64 {
    const TYPE_NAME: &'static str = "oid";

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

    fn from_atom(a: &Atom) -> Option<Self> {
        match a {
            Atom::Oid(v) => Some(*v),
            Atom::Int(v) => u64::try_from(*v).ok(),
            Atom::Dbl(_) | Atom::Str(_) | Atom::Nil => None,
        }
    }
}

impl TailValue for OrdF64 {
    const TYPE_NAME: &'static str = "dbl";

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

    fn from_atom(a: &Atom) -> Option<Self> {
        a.as_f64().and_then(OrdF64::new)
    }
}

/// What a strategy constructor yields for one tail type.
type BuiltStrategy<V> = Result<Box<dyn ColumnStrategy<Pair<V>>>, ColumnError>;

/// A column's pending deltas sealed into one run over pair space, `None`
/// when nothing survives shadowing.
type PendingRun<V> = Option<DeltaRun<Pair<V>>>;

/// A column's checked share of a merge, ready to fold — see
/// [`SegmentedBat::stage_fold`].
pub(crate) type StagedFold<'a> = Box<dyn FnOnce() + 'a>;

/// One typed column behind the adapter: the boxed strategy plus the
/// bookkeeping the MAL layer reports upward.
struct TypedSeg<V: TailValue> {
    strategy: Box<dyn ColumnStrategy<Pair<V>>>,
    value_domain: ValueRange<V>,
    rows: u64,
    reorg_write_bytes: u64,
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
        let n = rows.len() as u64;
        let strategy = make(value_domain, rows)?;
        Ok(TypedSeg {
            strategy,
            value_domain,
            rows: n,
            reorg_write_bytes: 0,
        })
    }

    fn ranges(&self) -> Vec<ValueRange<Pair<V>>> {
        self.strategy.segment_ranges()
    }

    /// Indices of the pieces whose value span overlaps the closed query
    /// `[lo, hi]` (in `f64` boundary space).
    fn overlapping(&self, lo: f64, hi: f64) -> Vec<usize> {
        if lo.is_nan() || hi.is_nan() {
            return Vec::new();
        }
        self.ranges()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.lo().value.to_f64() <= hi && lo <= r.hi().value.to_f64())
            .map(|(i, _)| i)
            .collect()
    }

    fn footprint_bytes(&self, lo: f64, hi: f64) -> u64 {
        let bytes = self.strategy.segment_bytes();
        self.overlapping(lo, hi)
            .into_iter()
            .filter_map(|i| bytes.get(i).copied())
            .sum()
    }

    fn piece_bat(&self, i: usize) -> Result<Bat, BpmError> {
        let range = *self.ranges().get(i).ok_or(BpmError::BadPiece(i))?;
        bat_of_pairs(self.strategy.peek_collect(&range))
    }

    /// All pieces overlapping the closed query `[lo, hi]`, materialized in
    /// value order. One `segment_ranges()` build serves every piece — the
    /// bulk path the interpreter's segment iterator uses.
    fn piece_bats(&self, lo: f64, hi: f64) -> Result<Vec<Bat>, BpmError> {
        if lo.is_nan() || hi.is_nan() {
            return Ok(Vec::new());
        }
        self.ranges()
            .into_iter()
            .filter(|r| r.lo().value.to_f64() <= hi && lo <= r.hi().value.to_f64())
            .map(|r| bat_of_pairs(self.strategy.peek_collect(&r)))
            .collect()
    }

    fn pack(&self) -> Result<Bat, BpmError> {
        bat_of_pairs(self.strategy.peek_collect(&self.value_domain.paired()))
    }

    /// The typed pair query for closed `f64` bounds, clipped to the
    /// domain; `None` means the query selects nothing.
    fn query(&self, lo: f64, hi: f64) -> Option<ValueRange<Pair<V>>> {
        let lo_v = V::bound_lo(lo)?;
        let hi_v = V::bound_hi(hi)?;
        Some(
            ValueRange::new(lo_v, hi_v)?
                .intersect(&self.value_domain)?
                .paired(),
        )
    }

    /// One self-organization pass for the closed query `[lo, hi]`: the
    /// strategy's own `select_count` with its integral reorganization
    /// (Algorithm 1 / Algorithm 2 at the bpm level). Returns the number of
    /// adaptation operations performed; bytes written by reorganization
    /// accumulate in [`Self::reorg_write_bytes`].
    fn adapt(&mut self, lo: f64, hi: f64) -> u64 {
        let Some(q) = self.query(lo, hi) else {
            return 0;
        };
        let before = self.strategy.adaptation();
        let mut tracker = CountingTracker::new();
        self.strategy.select_count(&q, &mut tracker);
        self.reorg_write_bytes += tracker.totals().write_bytes;
        let after = self.strategy.adaptation();
        (after.splits - before.splits)
            + (after.merges - before.merges)
            + (after.replicas_created - before.replicas_created)
    }

    /// Seals the column's pending catalog deltas into one sorted
    /// [`DeltaRun`] over pair space — the merge's translation of oid-keyed
    /// operations: inserts land verbatim, updates and deletes probe their
    /// *old* value from the current pieces (tombstones cancel by value,
    /// not by oid). Per-oid
    /// shadowing — a later update wins, a delete of an inserted row
    /// cancels it — is [`DeltaBatch`]'s seal semantics. `None` when
    /// nothing survives shadowing. The report counts what the merge folds
    /// for this column: every insert entry, the update entries that hit a
    /// row, the rows the deletions remove.
    fn pending_run(
        &self,
        d: Option<&ColumnDeltas>,
        deleted: &[Oid],
    ) -> Result<(PendingRun<V>, MergeReport), BpmError> {
        let mut report = MergeReport {
            columns: 1,
            ..MergeReport::default()
        };
        let no_entries = d.is_none_or(|d| d.insert_heads.is_empty() && d.update_heads.is_empty());
        if no_entries && deleted.is_empty() {
            return Ok((None, report));
        }
        // Current value per oid: the base pieces, then pending ops replayed
        // in recorded order, so each op sees the value it overwrites.
        let mut current: BTreeMap<Oid, V> = self
            .strategy
            .peek_collect(&self.value_domain.paired())
            .into_iter()
            .map(|p| (p.oid, p.value))
            .collect();
        // An atom the tail cannot hold fails the read and the merge alike:
        // no row is invented for it.
        let land = |row: usize, a: &Atom| {
            V::from_atom(a).ok_or_else(|| match a {
                Atom::Dbl(x) if x.is_nan() && V::TYPE_NAME == "dbl" => BpmError::NanTail { row },
                _ => BpmError::Bat(BatError::TypeMismatch {
                    expected: V::TYPE_NAME,
                    got: a.type_name(),
                }),
            })
        };
        let mut batch = DeltaBatch::new();
        if let Some(d) = d {
            for (row, (oid, a)) in d.insert_heads.iter().zip(&d.insert_vals).enumerate() {
                let v = land(row, a)?;
                batch.push(DeltaOp::Insert {
                    oid: *oid,
                    value: Pair::new(v, *oid),
                });
                current.insert(*oid, v);
                report.inserted += 1;
            }
            for (row, (oid, a)) in d.update_heads.iter().zip(&d.update_vals).enumerate() {
                let new = land(row, a)?;
                // Updates of rows this column never held are inert — the
                // merge applies updates by matching oid only.
                if let Some(slot) = current.get_mut(oid) {
                    let old = std::mem::replace(slot, new);
                    batch.push(DeltaOp::Update {
                        oid: *oid,
                        old: Pair::new(old, *oid),
                        new: Pair::new(new, *oid),
                    });
                    report.updated += 1;
                }
            }
        }
        for oid in deleted {
            // Repeated deletes of one oid collapse: the first removes the
            // row from `current`, later ones find nothing to tombstone.
            if let Some(old) = current.remove(oid) {
                batch.push(DeltaOp::Delete {
                    oid: *oid,
                    value: Pair::new(old, *oid),
                });
                report.deleted += 1;
            }
        }
        Ok((batch.seal(SegIdGen::new().fresh()), report))
    }

    /// See [`SegmentedBat::stage_fold`]. An insert outside the domain is
    /// the one fold [`ColumnStrategy::fold_delta`] refuses, so checking it
    /// here leaves nothing fallible in the returned fold.
    fn stage_fold(
        &mut self,
        d: Option<&ColumnDeltas>,
        deleted: &[Oid],
    ) -> Result<(MergeReport, StagedFold<'_>), BpmError> {
        let (run, report) = self.pending_run(d, deleted)?;
        let domain = self.value_domain.paired();
        if run
            .as_ref()
            .is_some_and(|r| r.inserts().iter().any(|p| !domain.contains(*p)))
        {
            return Err(ColumnError::ValueOutsideDomain.into());
        }
        Ok((report, Box::new(move || self.fold(run))))
    }

    /// Folds a staged run into the pieces that own its rows: no piece
    /// boundary moves, and only the touched pieces' rewrite is charged to
    /// the reorganization bill.
    fn fold(&mut self, run: PendingRun<V>) {
        let Some(run) = run else {
            return;
        };
        let mut tracker = CountingTracker::new();
        #[expect(
            clippy::expect_used,
            reason = "stage_fold checked every insert against the domain, the only fold a strategy refuses"
        )]
        let unmatched = self
            .strategy
            .fold_delta(run.inserts(), run.tombstones(), &mut tracker)
            .expect("inserts inside the domain");
        debug_assert_eq!(unmatched, 0, "tombstones were read off the current rows");
        self.rows = self.rows + run.inserts().len() as u64 - run.tombstones().len() as u64;
        self.reorg_write_bytes += tracker.totals().write_bytes;
        soc_core::debug_assert_valid!(self.validate(), "catalog merge fold");
    }

    /// Structural invariant check (tests): pieces disjoint and ascending,
    /// values in range and domain, rows conserved.
    fn validate(&self) -> Result<(), String> {
        let ranges = self.ranges();
        for w in ranges.windows(2) {
            if w[0].hi() >= w[1].lo() {
                return Err(format!("pieces {:?} and {:?} out of order", w[0], w[1]));
            }
        }
        let domain = self.value_domain.paired();
        let mut total = 0u64;
        for (i, r) in ranges.iter().enumerate() {
            for p in self.strategy.peek_collect(r) {
                if !r.contains(p) {
                    return Err(format!("piece {i} holds out-of-range row {p:?}"));
                }
                if !domain.contains(p) {
                    return Err(format!("row {p:?} outside the column domain"));
                }
                total += 1;
            }
        }
        if total != self.rows {
            return Err(format!("pieces hold {total} rows, expected {}", self.rows));
        }
        Ok(())
    }
}

/// Builds a bat from pair rows: explicit oid head, typed tail.
fn bat_of_pairs<V: TailValue>(pairs: Vec<Pair<V>>) -> Result<Bat, BpmError> {
    let mut heads = Vec::with_capacity(pairs.len());
    let mut values = Vec::with_capacity(pairs.len());
    for p in pairs {
        heads.push(p.oid);
        values.push(p.value);
    }
    Ok(Bat::new(Head::Oids(heads.into()), V::make_tail(values))?)
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
            Tail::Int(v) => PairColumn::Int(TypedSeg::build(int_rows($bat, v), $lo, $hi, $make)?),
            Tail::Dbl(v) => PairColumn::Dbl(TypedSeg::build(dbl_rows($bat, v)?, $lo, $hi, $make)?),
            Tail::Oid(v) => PairColumn::Oid(TypedSeg::build(oid_rows($bat, v), $lo, $hi, $make)?),
            other => return Err(BpmError::UnsupportedTail(other.type_name())),
        }
    };
}

fn int_rows(b: &Bat, v: &[i64]) -> Vec<(u64, i64)> {
    v.iter()
        .enumerate()
        .map(|(i, &x)| (b.head_at(i), x))
        .collect()
}

fn oid_rows(b: &Bat, v: &[u64]) -> Vec<(u64, u64)> {
    v.iter()
        .enumerate()
        .map(|(i, &x)| (b.head_at(i), x))
        .collect()
}

fn dbl_rows(b: &Bat, v: &[f64]) -> Result<Vec<(u64, OrdF64)>, BpmError> {
    v.iter()
        .enumerate()
        .map(|(i, &x)| match OrdF64::new(x) {
            Some(ord) => Ok((b.head_at(i), ord)),
            None => Err(BpmError::NanTail { row: i }),
        })
        .collect()
}

/// A bat organized by a self-organizing [`ColumnStrategy`], preserving
/// `(oid, value)` pairs across reorganization.
pub struct SegmentedBat {
    inner: PairColumn,
}

impl std::fmt::Debug for SegmentedBat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedBat")
            .field("strategy", &self.strategy_name())
            .field("pieces", &self.piece_count())
            .field("rows", &self.rows())
            .finish()
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
        Ok(SegmentedBat { inner })
    }

    /// Number of placeable pieces (the strategy's flat segment partition).
    pub fn piece_count(&self) -> usize {
        on_seg!(&self.inner, s => s.ranges().len())
    }

    /// Materialized storage held by the strategy (replication exceeds the
    /// bare column; in-place strategies equal it).
    #[cfg(test)]
    pub(crate) fn storage_bytes(&self) -> u64 {
        on_seg!(&self.inner, s => s.strategy.storage_bytes())
    }

    /// Row count of the whole column.
    pub(crate) fn rows(&self) -> u64 {
        on_seg!(&self.inner, s => s.rows)
    }

    /// The underlying strategy's display name ("APM Segm", "Cracking", …).
    pub fn strategy_name(&self) -> String {
        on_seg!(&self.inner, s => s.strategy.name())
    }

    /// The strategy's uniform adaptation counters.
    pub fn adaptation(&self) -> AdaptationStats {
        on_seg!(&self.inner, s => s.strategy.adaptation())
    }

    /// Bytes written by reorganization across all [`Self::adapt`] calls
    /// and merge folds (plus any rebuild cost carried in by the catalog's
    /// strategy switch) — the reorganization bill SQL-level ablations
    /// report.
    pub fn reorg_write_bytes(&self) -> u64 {
        on_seg!(&self.inner, s => s.reorg_write_bytes)
    }

    /// Charges externally-incurred reorganization writes to this column's
    /// cumulative bill. `Catalog::set_strategy` uses this to carry the old
    /// column's history forward and to account the full-column rewrite the
    /// switch performs — mirroring how the sharded executor charges
    /// re-placement migration bytes.
    pub(crate) fn add_reorg_write_bytes(&mut self, bytes: u64) {
        on_seg!(&mut self.inner, s => s.reorg_write_bytes += bytes);
    }

    /// Closed value spans of the pieces, projected to `f64` — the
    /// meta-index view diagnostics and tests read.
    pub fn piece_spans(&self) -> Vec<(f64, f64)> {
        on_seg!(&self.inner, s => s
            .ranges()
            .iter()
            .map(|r| (r.lo().value.to_f64(), r.hi().value.to_f64()))
            .collect())
    }

    /// Piece `i`'s rows as a bat (materialized — MAL materializes
    /// intermediates). The read is strategy-state-preserving.
    pub(crate) fn piece_bat(&self, i: usize) -> Result<Bat, BpmError> {
        on_seg!(&self.inner, s => s.piece_bat(i))
    }

    /// An empty bat typed like this column's tail — what a delta bind is
    /// shaped after. Read off the column's type, so it costs no piece
    /// read and holds for a column with no pieces at all.
    pub(crate) fn empty_like(&self) -> Bat {
        match &self.inner {
            PairColumn::Int(_) => Bat::dense_int(Vec::new()),
            PairColumn::Dbl(_) => Bat::dense_dbl(Vec::new()),
            PairColumn::Oid(_) => Bat::dense_oid(Vec::new()),
        }
    }

    /// All pieces overlapping the closed query `[lo, hi]`, in value
    /// order — the bulk form of [`Self::piece_bat`] the interpreter's
    /// segment iterator uses (one piece-range computation for the whole
    /// set instead of one per piece).
    pub(crate) fn piece_bats(&self, lo: f64, hi: f64) -> Result<Vec<Bat>, BpmError> {
        on_seg!(&self.inner, s => s.piece_bats(lo, hi))
    }

    /// Indices of the pieces overlapping the closed query `[lo, hi]`.
    pub(crate) fn overlapping(&self, lo: f64, hi: f64) -> Vec<usize> {
        on_seg!(&self.inner, s => s.overlapping(lo, hi))
    }

    /// Estimated bytes a query over `[lo, hi]` must touch — the plan
    /// memory-footprint estimate of Section 3.1.
    pub fn footprint_bytes(&self, lo: f64, hi: f64) -> u64 {
        on_seg!(&self.inner, s => s.footprint_bytes(lo, hi))
    }

    /// Reconstructs the whole bat from the pieces (the fallback for plans
    /// that were not segment-optimized).
    pub fn pack(&self) -> Result<Bat, BpmError> {
        on_seg!(&self.inner, s => s.pack())
    }

    /// Runs one self-organization pass for the closed query `[lo, hi]`:
    /// the strategy executes the selection with its integral
    /// reorganization (split, crack, or replicate — Section 3.3 made part
    /// of query execution). Returns the number of adaptation operations.
    pub fn adapt(&mut self, lo: &Atom, hi: &Atom) -> Result<u64, BpmError> {
        let (Some(ql), Some(qh)) = (lo.as_f64(), hi.as_f64()) else {
            return Ok(0);
        };
        Ok(on_seg!(&mut self.inner, s => s.adapt(ql, qh)))
    }

    /// Stages a merge of the column's pending deltas: seals them into one
    /// sorted run and checks its inserts against the column's domain. The
    /// returned fold cannot fail; it hands the run to the strategy's
    /// [`ColumnStrategy::fold_delta`], which folds it into the pieces that
    /// own its rows and keeps every piece boundary.
    /// The report counts what the fold merges for this column.
    ///
    /// # Errors
    /// [`BpmError::Bat`] (or [`BpmError::NanTail`]) for a pending atom the
    /// tail cannot hold, and [`BpmError::Column`] for an insert or update
    /// outside the registered domain.
    pub(crate) fn stage_fold(
        &mut self,
        d: Option<&ColumnDeltas>,
        deleted: &[Oid],
    ) -> Result<(MergeReport, StagedFold<'_>), BpmError> {
        on_seg!(&mut self.inner, s => s.stage_fold(d, deleted))
    }

    /// Structural invariant check (tests): pieces disjoint and ascending,
    /// values in range, rows conserved.
    pub fn validate(&self) -> Result<(), String> {
        on_seg!(&self.inner, s => s.validate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_core::StrategyKind;

    /// Cracking: every query bound becomes a piece boundary.
    fn cracked(bat: Bat, lo: f64, hi_excl: f64) -> Result<SegmentedBat, BpmError> {
        SegmentedBat::from_spec(bat, lo, hi_excl, &StrategySpec::new(StrategyKind::Cracking))
    }

    fn seg_bat() -> SegmentedBat {
        // 1000 int rows, value == oid, domain [0, 1000).
        cracked(Bat::dense_int((0..1000).collect()), 0.0, 1000.0).unwrap()
    }

    #[test]
    fn starts_as_one_piece() {
        let s = seg_bat();
        assert_eq!(s.piece_count(), 1);
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
        let mid = s.piece_bat(1).unwrap();
        assert_eq!(mid.len(), 200);
        let mut oids = mid.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, (400..600).collect::<Vec<u64>>());
        // Row count is conserved.
        assert_eq!(s.rows(), 1000);
        let total: usize = (0..s.piece_count())
            .map(|i| s.piece_bat(i).unwrap().len())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn overlapping_respects_piece_boundaries() {
        let mut s = seg_bat();
        s.adapt(&Atom::Int(400), &Atom::Int(599)).unwrap();
        // Pieces are [0,399], [400,599], [600,999].
        assert_eq!(s.overlapping(600.0, 700.0), vec![2]);
        assert_eq!(s.overlapping(599.0, 599.0), vec![1]);
        assert_eq!(s.overlapping(0.0, 1000.0), vec![0, 1, 2]);
        // Fractional bounds between pieces touch nothing extra.
        assert_eq!(s.overlapping(599.5, 599.9), Vec::<usize>::new());
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
        let mid = s.piece_bat(1).unwrap();
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
            .map(|i| s.piece_bat(i).unwrap().len())
            .sum();
        assert_eq!(total, 2_000);
    }
}
