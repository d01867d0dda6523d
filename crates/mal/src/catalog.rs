//! The engine catalog: plain BATs for `sql.bind`, the segmented-bat
//! registry the segment optimizer consults (Section 3.1's meta-index at
//! the MAL level), and the delta bats the Figure 1 plan merges at query
//! time — pending inserts (`sql.bind` access 1), updates (access 2) and
//! deletions (`sql.bind_dbat`). The paper targets "data warehouse
//! applications with few large bulk loads and prevailing read-only
//! queries" (Section 7), which is exactly MonetDB's delta scheme: updates
//! accumulate beside the immutable base column.
//!
//! A segmented column is registered with a [`StrategySpec`] — the one
//! physical-design currency shared with the simulator and the storage
//! layer — so SQL queries can drive any of the nine strategy kinds, not
//! just segmentation. [`Catalog::set_strategy`] re-organizes a live
//! column under a different kind (the `ALTER COLUMN … SET STRATEGY` DDL
//! hook), preserving its rows and pending deltas: the rows are rebuilt
//! through the spec factory, and the rewrite is charged to the column's
//! reorganization bill.
//!
//! Deltas do not accumulate forever: [`Catalog::merge_deltas`] folds a
//! table's pending inserts/updates/deletes into the base columns. A
//! segmented column folds them through its strategy's own
//! `ColumnStrategy::fold_delta` — the seam the epoch writer of
//! `soc_core::ConcurrentColumn` folds through — so each row lands in the
//! piece that owns it, the organization the queries built survives the
//! merge, and only the touched pieces are charged as reorganization.
//! Plain columns are positional and are rebuilt in oid order. Once a
//! table's pending rows reach the threshold (global default, overridable
//! per table), the mutation that reached it merges the whole backlog.
//!
//! Pending deltas are read one way: through the compiled plan, whose
//! `sql.subdelta`/`sql.projectdelta` merge the delta bats `sql.bind`
//! hands out (Figure 1's merge, fused). The catalog has no second read
//! path of its own.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use soc_bat::{algebra::Atom, Bat, BatError, Head, Oid, Tail};
use soc_core::{StrategyKind, StrategySpec};

use crate::bpm::{BpmError, SegmentedBat, TailValue};

/// Typed catalog failures (no panics on query paths).
#[derive(Debug)]
pub enum CatalogError {
    /// No column registered under this key.
    UnknownColumn(String),
    /// The column exists but is not segmented (no strategy to change).
    NotSegmented(String),
    /// The requested strategy name is not a known [`StrategyKind`] token.
    UnknownStrategy(String),
    /// Re-organizing the column under the new strategy failed.
    Bpm(BpmError),
    /// A delta bat could not be materialized (malformed pending changes).
    MalformedDelta {
        /// The column key.
        key: String,
        /// The kernel's complaint.
        source: BatError,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownColumn(k) => write!(f, "unknown column {k}"),
            CatalogError::NotSegmented(k) => write!(f, "column {k} is not segmented"),
            CatalogError::UnknownStrategy(s) => write!(f, "unknown strategy {s:?}"),
            CatalogError::Bpm(e) => write!(f, "strategy change: {e}"),
            CatalogError::MalformedDelta { key, source } => {
                write!(f, "delta bat for {key}: {source}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<BpmError> for CatalogError {
    fn from(e: BpmError) -> Self {
        CatalogError::Bpm(e)
    }
}

/// Pending changes against one column.
#[derive(Debug, Default, Clone)]
pub(crate) struct ColumnDeltas {
    /// Appended rows: explicit (oid, value) pairs past the base.
    pub(crate) insert_heads: Vec<Oid>,
    pub(crate) insert_vals: Vec<Atom>,
    /// In-place updates of base rows: (oid, new value).
    pub(crate) update_heads: Vec<Oid>,
    pub(crate) update_vals: Vec<Atom>,
}

/// Materializes delta atoms as a bat typed like the base column. `Int`,
/// `Dbl` and `Oid` atoms coerce into each other's tails; an atom the tail
/// type cannot hold (`Str`/`Nil` into a numeric tail, a negative `Int` or
/// a `Dbl` into an `:oid` tail) is [`CatalogError::MalformedDelta`], never
/// a made-up `0`/`NaN` row.
fn atoms_to_bat(key: &str, heads: &[Oid], vals: &[Atom], like: &Bat) -> Result<Bat, CatalogError> {
    // An exact-size `map().collect()` (no per-element capacity check or
    // early exit) with the failure recorded on the side: this runs per
    // delta bind per statement.
    fn land<T: Default>(
        vals: &[Atom],
        expected: &'static str,
        typed: impl Fn(&Atom) -> Option<T>,
    ) -> Result<Arc<Vec<T>>, BatError> {
        let mut untyped = None;
        let out = vals
            .iter()
            .map(|a| {
                typed(a).unwrap_or_else(|| {
                    untyped.get_or_insert(a);
                    T::default()
                })
            })
            .collect();
        match untyped {
            None => Ok(Arc::new(out)),
            Some(a) => Err(BatError::TypeMismatch {
                expected,
                got: a.type_name(),
            }),
        }
    }
    let expected = like.tail().type_name();
    let tail = match like.tail() {
        Tail::Int(_) => land(vals, expected, i64::from_atom).map(Tail::Int),
        Tail::Dbl(_) => land(vals, expected, Atom::as_f64).map(Tail::Dbl),
        Tail::Oid(_) => land(vals, expected, u64::from_atom).map(Tail::Oid),
        Tail::Str(_) => Ok(Tail::Str(Arc::new(
            vals.iter()
                .map(|a| match a {
                    Atom::Str(s) => s.clone(),
                    other => other.to_string(),
                })
                .collect(),
        ))),
        Tail::Nil(_) => Ok(Tail::Nil(vals.len())),
    };
    tail.and_then(|tail| Bat::new(Head::from_oids(heads.to_vec()), tail))
        .map_err(|source| CatalogError::MalformedDelta {
            key: key.to_owned(),
            source,
        })
}

/// Calls `f` with `parts` joined by `.`, built in a stack buffer when the
/// result fits in 64 bytes and in a `String` otherwise.
fn with_joined<R>(parts: &[&str], f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; 64];
    let mut len = 0;
    for (k, part) in parts.iter().enumerate() {
        let sep = usize::from(k > 0);
        let end = len + sep + part.len();
        if end > buf.len() {
            return f(&parts.join("."));
        }
        if sep == 1 {
            buf[len] = b'.';
        }
        buf[len + sep..end].copy_from_slice(part.as_bytes());
        len = end;
    }
    match std::str::from_utf8(&buf[..len]) {
        Ok(joined) => f(joined),
        // Unreachable: `.`-joined `str`s are UTF-8.
        Err(_) => f(&parts.join(".")),
    }
}

/// The registered domain of a segmented column, kept so the column can be
/// re-organized under a different strategy later.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegMeta {
    pub(crate) domain_lo: f64,
    pub(crate) domain_hi_excl: f64,
    pub(crate) spec: StrategySpec,
}

/// What one [`Catalog::merge_deltas`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Columns merged (plain and segmented).
    pub columns: usize,
    /// Insert-delta entries folded into the base (one per row × column).
    pub inserted: usize,
    /// Update-delta entries applied.
    pub updated: usize,
    /// Deleted rows physically removed.
    pub deleted: usize,
}

impl MergeReport {
    /// Adds one column's share: entries add up, deleted rows are the
    /// table's.
    fn add(&mut self, column: MergeReport) {
        self.columns += column.columns;
        self.inserted += column.inserted;
        self.updated += column.updated;
        self.deleted = self.deleted.max(column.deleted);
    }
}

/// Pending delta rows that trigger an automatic [`Catalog::merge_deltas`]
/// when crossed (per table). Small enough that delta scans stay cheap,
/// large enough that a bulk load does not thrash merges.
pub(crate) const DEFAULT_DELTA_MERGE_THRESHOLD: usize = 4096;

/// Retry state for a table whose automatic delta merge failed.
#[derive(Debug, Clone, Copy, Default)]
struct MergeBackoff {
    /// Consecutive failed auto-merge attempts.
    failures: u32,
    /// Delta mutations to sit out before the next retry
    /// (`2^failures`, capped at 64).
    cooldown: u32,
}

/// Named storage the MAL interpreter binds against.
///
/// Fields are crate-visible for the checkpoint module
/// ([`Catalog::save_all`]/[`Catalog::load_all`] live in
/// `crate::checkpoint`).
#[derive(Debug, Default)]
pub struct Catalog {
    pub(crate) bats: HashMap<String, Bat>,
    pub(crate) segmented: HashMap<String, SegmentedBat>,
    pub(crate) seg_meta: HashMap<String, SegMeta>,
    pub(crate) deltas: HashMap<String, ColumnDeltas>,
    /// Deleted row oids per `schema.table`.
    pub(crate) deleted: HashMap<String, Vec<Oid>>,
    /// Next fresh oid per `schema.table` (rows appended so far + base).
    pub(crate) next_oid: HashMap<String, Oid>,
    /// Per-table retry state for failed automatic merges: a failed
    /// attempt (e.g. an out-of-domain insert) backs off exponentially in
    /// *mutations* rather than latching forever, so the pending deltas
    /// are retried — and never silently dropped — once the blocking
    /// mutation is compensated (say, the offending row deleted).
    auto_merge_backoff: HashMap<String, MergeBackoff>,
    /// Incrementally maintained pending-delta-row count per table (delta
    /// entries on *registered* columns + deleted oids) — what the
    /// auto-merge threshold compares against, kept O(1) per mutation.
    pending_rows: HashMap<String, usize>,
    /// Per-table threshold overrides (the `ALTER TABLE … SET MERGE
    /// THRESHOLD` DDL); absent tables use [`DEFAULT_DELTA_MERGE_THRESHOLD`].
    merge_thresholds: HashMap<String, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical key for `schema.table.column`.
    pub(crate) fn key(schema: &str, table: &str, column: &str) -> String {
        format!("{schema}.{table}.{column}")
    }

    fn table_key(schema: &str, table: &str) -> String {
        format!("{schema}.{table}")
    }

    /// Calls `f` with the key [`Self::key`] would build, built on the
    /// stack when it fits, so looking a column up by its parts allocates
    /// nothing.
    pub(crate) fn with_key<R>(
        schema: &str,
        table: &str,
        column: &str,
        f: impl FnOnce(&str) -> R,
    ) -> R {
        with_joined(&[schema, table, column], f)
    }

    /// Registration bookkeeping shared by every path: deltas recorded
    /// against this column *before* it was registered become mergeable
    /// (they now count toward the table's pending rows), and a failed
    /// auto-merge latch for the table is released — the table's content
    /// changed, so the merge deserves a fresh attempt.
    fn on_register(&mut self, schema: &str, table: &str, key: &str, was_registered: bool) {
        let tk = Self::table_key(schema, table);
        if !was_registered {
            if let Some(d) = self.deltas.get(key) {
                let n = d.insert_heads.len() + d.update_heads.len();
                if n > 0 {
                    *self.pending_rows.entry(tk.clone()).or_insert(0) += n;
                }
            }
        }
        self.auto_merge_backoff.remove(&tk);
    }

    /// Registers a plain (positional) column.
    pub fn register_bat(&mut self, schema: &str, table: &str, column: &str, bat: Bat) {
        let tk = Self::table_key(schema, table);
        let n = self.next_oid.entry(tk).or_insert(0);
        *n = (*n).max(bat.len() as u64);
        let key = Self::key(schema, table, column);
        let was_registered = self.is_registered(&key);
        self.bats.insert(key.clone(), bat);
        self.on_register(schema, table, &key, was_registered);
    }

    /// Registers a column as self-organizing under the strategy `spec`
    /// describes — the catalog-level entry of the unified strategy layer.
    ///
    /// `domain_lo`/`domain_hi_excl` bound the attribute domain
    /// (half-open; pass `max + 1` for integer columns).
    #[allow(clippy::too_many_arguments)]
    pub fn register_segmented(
        &mut self,
        schema: &str,
        table: &str,
        column: &str,
        bat: Bat,
        domain_lo: f64,
        domain_hi_excl: f64,
        spec: StrategySpec,
    ) -> Result<(), BpmError> {
        let rows = bat.len() as u64;
        let seg = SegmentedBat::from_spec(bat, domain_lo, domain_hi_excl, &spec)?;
        let key = Self::key(schema, table, column);
        // Fresh oids must clear the base rows even when no plain column
        // of the table was ever registered.
        let n = self
            .next_oid
            .entry(Self::table_key(schema, table))
            .or_insert(0);
        *n = (*n).max(rows);
        self.seg_meta.insert(
            key.clone(),
            SegMeta {
                domain_lo,
                domain_hi_excl,
                spec,
            },
        );
        let was_registered = self.is_registered(&key);
        self.segmented.insert(key.clone(), seg);
        self.on_register(schema, table, &key, was_registered);
        Ok(())
    }

    /// Re-organizes a live segmented column under a different strategy
    /// kind: the rows are packed (oids intact) and rebuilt through the spec
    /// factory. The column keeps its accumulated reorganization bill plus
    /// the full-column rewrite (adaptation counters restart — they
    /// describe the live strategy's organization, not the column's
    /// history). This is what the `ALTER COLUMN … SET STRATEGY` DDL and
    /// the `bpm.setStrategy` MAL operator execute; pending deltas are
    /// untouched.
    ///
    /// # Errors
    /// `CatalogError::NotSegmented` (or `UnknownColumn`) when `key` does
    /// not name a segmented column; `CatalogError::Bpm` when the rebuild
    /// fails, in which case the column is left unchanged.
    pub fn set_strategy(&mut self, key: &str, kind: StrategyKind) -> Result<(), CatalogError> {
        let seg = self.require_segmented(key)?;
        let Some(meta) = self.seg_meta.get(key).copied() else {
            return Err(CatalogError::UnknownColumn(key.to_owned()));
        };
        let spec = StrategySpec { kind, ..meta.spec };
        let packed = seg.pack()?;
        let billed = seg.reorg_write_bytes() + packed.bytes();
        let mut rebuilt =
            SegmentedBat::from_spec(packed, meta.domain_lo, meta.domain_hi_excl, &spec)?;
        rebuilt.add_reorg_write_bytes(billed);
        soc_core::debug_assert_valid!(rebuilt.validate(), "catalog strategy switch");
        self.seg_meta
            .insert(key.to_owned(), SegMeta { spec, ..meta });
        self.segmented.insert(key.to_owned(), rebuilt);
        Ok(())
    }

    /// Looks up a plain column.
    pub fn bat(&self, key: &str) -> Option<&Bat> {
        self.bats.get(key)
    }

    /// Looks up a segmented column.
    pub fn segmented(&self, key: &str) -> Option<&SegmentedBat> {
        self.segmented.get(key)
    }

    /// Mutable access to a segmented column (bpm adaptation).
    pub fn segmented_mut(&mut self, key: &str) -> Option<&mut SegmentedBat> {
        self.segmented.get_mut(key)
    }

    /// The spec a segmented column was registered (or last re-organized)
    /// with; `None` for plain columns.
    #[cfg(test)]
    pub(crate) fn strategy_spec(&self, key: &str) -> Option<StrategySpec> {
        self.seg_meta.get(key).map(|m| m.spec)
    }

    /// Whether `key` names a segmented column.
    pub(crate) fn is_segmented(&self, key: &str) -> bool {
        self.segmented.contains_key(key)
    }

    /// All registered keys (diagnostics).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<String> {
        let mut k: Vec<String> = self
            .bats
            .keys()
            .chain(self.segmented.keys())
            .cloned()
            .collect();
        k.sort();
        k.dedup();
        k
    }

    // ---- delta maintenance (MonetDB's update scheme) --------------------

    /// Appends a row: one `(column, value)` per column of the table.
    /// Returns the new row's oid. The base bats stay untouched; the row
    /// lives in the insert deltas until a (hypothetical) bulk merge.
    pub fn insert_row(&mut self, schema: &str, table: &str, row: &[(&str, Atom)]) -> Oid {
        let tk = Self::table_key(schema, table);
        let oid = {
            let n = self.next_oid.entry(tk).or_insert(0);
            let oid = *n;
            *n += 1;
            oid
        };
        let mut counted = 0usize;
        for (column, value) in row {
            let key = Self::key(schema, table, column);
            counted += usize::from(self.is_registered(&key));
            let d = self.deltas.entry(key).or_default();
            d.insert_heads.push(oid);
            d.insert_vals.push(value.clone());
        }
        if counted > 0 {
            *self
                .pending_rows
                .entry(Self::table_key(schema, table))
                .or_insert(0) += counted;
        }
        self.maybe_auto_merge(schema, table);
        oid
    }

    /// Records an in-place update of one column of row `oid`.
    pub fn update_value(&mut self, schema: &str, table: &str, column: &str, oid: Oid, value: Atom) {
        let key = Self::key(schema, table, column);
        if self.is_registered(&key) {
            *self
                .pending_rows
                .entry(Self::table_key(schema, table))
                .or_insert(0) += 1;
        }
        let d = self.deltas.entry(key).or_default();
        d.update_heads.push(oid);
        d.update_vals.push(value);
        self.maybe_auto_merge(schema, table);
    }

    /// Marks row `oid` deleted.
    pub fn delete_row(&mut self, schema: &str, table: &str, oid: Oid) {
        let tk = Self::table_key(schema, table);
        self.deleted.entry(tk.clone()).or_default().push(oid);
        *self.pending_rows.entry(tk).or_insert(0) += 1;
        self.maybe_auto_merge(schema, table);
    }

    /// The delta bat `sql.bind(schema, table, column, access)` returns for
    /// `access` 1 (inserts) or 2 (updates — the interpreter rejects every
    /// other code); typed like the base column, as `like` is, which comes
    /// back as it is when nothing is pending.
    pub(crate) fn delta_bat(&self, key: &str, access: i64, like: Bat) -> Result<Bat, CatalogError> {
        match self.deltas.get(key) {
            None => Ok(like),
            Some(d) if access == 1 => atoms_to_bat(key, &d.insert_heads, &d.insert_vals, &like),
            Some(d) => atoms_to_bat(key, &d.update_heads, &d.update_vals, &like),
        }
    }

    /// The deletions bat `sql.bind_dbat` returns: head void, tail = the
    /// deleted oids (Figure 1 reverses it before `kdifference`).
    pub(crate) fn dbat(&self, schema: &str, table: &str) -> Result<Bat, CatalogError> {
        with_joined(&[schema, table], |key| {
            let deleted = self.deleted.get(key).cloned().unwrap_or_default();
            Bat::new(Head::Void { base: 0 }, Tail::Oid(deleted.into())).map_err(|source| {
                CatalogError::MalformedDelta {
                    key: key.to_owned(),
                    source,
                }
            })
        })
    }

    fn require_segmented(&self, key: &str) -> Result<&SegmentedBat, CatalogError> {
        self.segmented.get(key).ok_or_else(|| {
            if self.bats.contains_key(key) {
                CatalogError::NotSegmented(key.to_owned())
            } else {
                CatalogError::UnknownColumn(key.to_owned())
            }
        })
    }

    // ---- delta merge ---------------------------------------------------

    /// Per-table override of the auto-merge threshold — what the
    /// `ALTER TABLE schema.table SET MERGE THRESHOLD n` DDL executes
    /// (0 disables auto-merging for this table only).
    pub fn set_table_merge_threshold(&mut self, schema: &str, table: &str, rows: usize) {
        self.merge_thresholds
            .insert(Self::table_key(schema, table), rows);
    }

    /// The auto-merge threshold in force for `schema.table`: the per-table
    /// override when one was set, the global default otherwise.
    pub fn table_merge_threshold(&self, schema: &str, table: &str) -> usize {
        self.merge_thresholds
            .get(&Self::table_key(schema, table))
            .copied()
            .unwrap_or(DEFAULT_DELTA_MERGE_THRESHOLD)
    }

    /// Pending delta rows against `schema.table` — the SQL-surface name
    /// for [`Self::pending_delta_rows`] (what `SELECT`s over the table
    /// still see un-merged, and what the merge threshold compares
    /// against). O(1).
    pub fn pending_rows(&self, schema: &str, table: &str) -> usize {
        self.pending_delta_rows(schema, table)
    }

    /// Pending delta rows against `schema.table`: insert and update
    /// entries across its **registered** columns plus the deleted-oid
    /// list — exactly what [`Self::merge_deltas`] will fold, and the size
    /// the auto-merge threshold is compared against. Deltas recorded
    /// against never-registered column names are inert (no base column
    /// binds them) and deliberately excluded, so they can neither trigger
    /// nor survive-past a merge into a thrash loop. Maintained
    /// incrementally: reading it is O(1).
    pub fn pending_delta_rows(&self, schema: &str, table: &str) -> usize {
        self.pending_rows
            .get(&Self::table_key(schema, table))
            .copied()
            .unwrap_or(0)
    }

    /// Whether `key` names a registered column (plain or segmented).
    fn is_registered(&self, key: &str) -> bool {
        self.bats.contains_key(key) || self.segmented.contains_key(key)
    }

    /// Rebuilds the whole [`Self::pending_rows`] map from the delta and
    /// deletion state — the bulk path checkpoint restore uses; everything
    /// else maintains the counters incrementally.
    pub(crate) fn recompute_pending(&mut self) {
        let mut pending: HashMap<String, usize> = HashMap::new();
        for (key, d) in &self.deltas {
            if !self.is_registered(key) {
                continue;
            }
            if let Some(dot) = key.rfind('.') {
                *pending.entry(key[..dot].to_owned()).or_insert(0) +=
                    d.insert_heads.len() + d.update_heads.len();
            }
        }
        for (table, oids) in &self.deleted {
            if !oids.is_empty() {
                *pending.entry(table.clone()).or_insert(0) += oids.len();
            }
        }
        self.pending_rows = pending;
    }

    /// Folds every pending delta of `schema.table` into its base columns —
    /// the merge MonetDB's delta scheme assumes happens at the next bulk
    /// load: inserts append, updates overwrite in place, deleted rows are
    /// physically removed. A **segmented** column seals its pending deltas
    /// into one sorted run and folds it through its strategy's
    /// `ColumnStrategy::fold_delta`: each row lands in the piece
    /// that owns it, no piece boundary moves, and the rewrite of the
    /// touched pieces is charged to the column's reorganization bill.
    /// Plain columns are positional and are rebuilt in oid order — with a
    /// void head while no row is missing, explicit oids once a delete has
    /// been folded in. Afterwards the table's delta bats and deletion list
    /// are empty.
    ///
    /// Deltas recorded against column names that were never registered
    /// are inert (no base column ever binds them): they are neither
    /// merged nor counted by [`Self::pending_delta_rows`], and they stay
    /// in place in case the column is registered later.
    ///
    /// The merge is all-or-nothing: every plain column is rebuilt, and
    /// every segmented column's run sealed and checked against its domain,
    /// before the first fold, so a failure (an inserted value outside a
    /// column's registered domain, a NaN update, an atom the column's type
    /// cannot hold) leaves the catalog unchanged.
    ///
    /// # Errors
    /// `CatalogError::MalformedDelta` when a delta cannot be typed like
    /// its base column; `CatalogError::Bpm` when a segmented column
    /// cannot take a pending value (outside its domain, NaN).
    pub fn merge_deltas(&mut self, schema: &str, table: &str) -> Result<MergeReport, CatalogError> {
        let mut report = MergeReport::default();
        if self.pending_delta_rows(schema, table) == 0 {
            return Ok(report);
        }
        let tk = Self::table_key(schema, table);
        let prefix = format!("{tk}.");
        let deleted = self.deleted.get(&tk).map_or(&[][..], Vec::as_slice);

        let mut plain: Vec<(&String, &Bat)> = self
            .bats
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .collect();
        plain.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut rebuilt = Vec::with_capacity(plain.len());
        for (key, bat) in plain {
            let (bat, r) = merge_plain(key, bat, self.deltas.get(key), deleted)?;
            report.add(r);
            rebuilt.push((key.clone(), bat));
        }

        let mut segmented: Vec<(&String, &mut SegmentedBat)> = self
            .segmented
            .iter_mut()
            .filter(|(k, _)| k.starts_with(&prefix))
            .collect();
        segmented.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut folds = Vec::with_capacity(segmented.len());
        for (key, seg) in segmented {
            let (r, fold) = seg
                .stage_fold(self.deltas.get(key), deleted)
                .map_err(|e| match e {
                    BpmError::Bat(source) => CatalogError::MalformedDelta {
                        key: key.clone(),
                        source,
                    },
                    other => CatalogError::Bpm(other),
                })?;
            report.add(r);
            folds.push((key, fold));
        }

        // Every column staged: fold, install and clear.
        for (key, fold) in folds {
            fold();
            self.deltas.remove(key);
        }
        for (key, bat) in rebuilt {
            self.deltas.remove(&key);
            self.bats.insert(key, bat);
        }
        self.deleted.remove(&tk);
        // All counted (registered-column) deltas were folded; deltas
        // against never-registered column names are inert and uncounted,
        // so the table's pending total is zero by construction.
        self.pending_rows.remove(&tk);
        self.auto_merge_backoff.remove(&tk);
        Ok(report)
    }

    /// Auto-merge hook run after every delta mutation: once the table's
    /// pending rows reach the threshold in force, the mutation merges the
    /// whole backlog ([`Self::merge_deltas`]). A failed merge (e.g. an
    /// out-of-domain insert) enters exponential backoff — the next
    /// `2^failures` mutations (capped at 64) only decrement a cooldown,
    /// keeping mutation O(1) — and is then retried, so pending deltas are
    /// never silently dropped; success (auto or explicit) clears the
    /// backoff.
    fn maybe_auto_merge(&mut self, schema: &str, table: &str) {
        let threshold = self.table_merge_threshold(schema, table);
        if threshold == 0 {
            return;
        }
        let tk = Self::table_key(schema, table);
        if let Some(b) = self.auto_merge_backoff.get_mut(&tk) {
            if b.cooldown > 0 {
                b.cooldown -= 1;
                return;
            }
        }
        if self.pending_delta_rows(schema, table) >= threshold
            && self.merge_deltas(schema, table).is_err()
        {
            let b = self.auto_merge_backoff.entry(tk).or_default();
            b.failures += 1;
            b.cooldown = 1u32 << b.failures.min(6);
        }
    }
}

/// One plain column's share of a merge: the base rows with the column's
/// pending entries and the table's deletions applied, in oid order.
fn merge_plain(
    key: &str,
    bat: &Bat,
    d: Option<&ColumnDeltas>,
    deleted: &[Oid],
) -> Result<(Bat, MergeReport), CatalogError> {
    let mut report = MergeReport {
        columns: 1,
        ..MergeReport::default()
    };
    let mut rows: BTreeMap<Oid, Atom> = (0..bat.len())
        .map(|i| (bat.head_at(i), atom_at(bat.tail(), i)))
        .collect();
    if let Some(d) = d {
        for (oid, v) in d.insert_heads.iter().zip(&d.insert_vals) {
            rows.insert(*oid, v.clone());
            report.inserted += 1;
        }
        // Recorded order: a later update of the same row wins.
        for (oid, v) in d.update_heads.iter().zip(&d.update_vals) {
            if let Some(slot) = rows.get_mut(oid) {
                *slot = v.clone();
                report.updated += 1;
            }
        }
    }
    for oid in deleted {
        report.deleted += usize::from(rows.remove(oid).is_some());
    }
    let (heads, vals): (Vec<Oid>, Vec<Atom>) = rows.into_iter().unzip();
    Ok((atoms_to_bat(key, &heads, &vals, bat)?, report))
}

/// The `i`-th tail value as an [`Atom`] (the inverse of `atoms_to_bat`).
fn atom_at(tail: &Tail, i: usize) -> Atom {
    match tail {
        Tail::Int(v) => Atom::Int(v[i]),
        Tail::Dbl(v) => Atom::Dbl(v[i]),
        Tail::Oid(v) => Atom::Oid(v[i]),
        Tail::Str(v) => Atom::Str(v[i].clone()),
        Tail::Nil(_) => Atom::Nil,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "objid", Bat::dense_int(vec![1, 2, 3]));
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl(vec![205.0, 205.1]),
            0.0,
            360.0,
            StrategySpec::new(StrategyKind::ApmSegm),
        )
        .unwrap();
        assert!(c.bat("sys.P.objid").is_some());
        assert!(c.bat("sys.P.ra").is_none());
        assert!(c.is_segmented("sys.P.ra"));
        assert!(!c.is_segmented("sys.P.objid"));
        assert_eq!(
            c.strategy_spec("sys.P.ra").map(|s| s.kind),
            Some(StrategyKind::ApmSegm)
        );
        assert_eq!(
            c.keys(),
            vec!["sys.P.objid".to_owned(), "sys.P.ra".to_owned()]
        );
    }

    #[test]
    fn segmented_registration_rejects_bad_tails() {
        let mut c = Catalog::new();
        let bat = Bat::new(soc_bat::Head::Void { base: 0 }, soc_bat::Tail::Nil(3)).unwrap();
        let spec = StrategySpec::new(StrategyKind::Cracking);
        assert!(c
            .register_segmented("s", "t", "c", bat, 0.0, 1.0, spec)
            .is_err());
    }

    #[test]
    fn set_strategy_rebuilds_preserving_rows() {
        let mut c = Catalog::new();
        let values: Vec<i64> = (0..500).map(|i| (i * 17) % 100).collect();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int(values.clone()),
            0.0,
            100.0,
            StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(128, 512),
        )
        .unwrap();
        // Shape the column a bit, then flip it to cracking.
        c.segmented_mut("sys.T.v")
            .unwrap()
            .adapt(&Atom::Int(20), &Atom::Int(40))
            .unwrap();
        let reorg_before = c.segmented("sys.T.v").unwrap().reorg_write_bytes();
        assert!(reorg_before > 0, "the adapt pass must have written");
        c.set_strategy("sys.T.v", StrategyKind::Cracking).unwrap();
        assert_eq!(
            c.strategy_spec("sys.T.v").map(|s| s.kind),
            Some(StrategyKind::Cracking)
        );
        let seg = c.segmented("sys.T.v").unwrap();
        assert_eq!(seg.strategy_name(), "Cracking");
        // The switch is itself reorganization: prior bill carried forward
        // plus the full-column rewrite (500 rows × 16 bytes/pair).
        assert_eq!(
            seg.reorg_write_bytes(),
            reorg_before + 500 * 16,
            "strategy switch must charge the rebuild, not reset the bill"
        );
        // Every row survived with its oid.
        let packed = seg.pack().unwrap();
        assert_eq!(packed.len(), 500);
        let mut oids = packed.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, (0..500u64).collect::<Vec<_>>());
    }

    #[test]
    fn set_strategy_after_a_crack_below_the_data_keeps_every_row() {
        // A query below every value leaves the cracked column an empty
        // first piece; the switch packs the column through the strategy's
        // peek, which used to return none of its rows.
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((100..200).collect()),
            0.0,
            1000.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        c.segmented_mut("sys.T.v")
            .unwrap()
            .adapt(&Atom::Int(10), &Atom::Int(20))
            .unwrap();
        assert_eq!(c.segmented("sys.T.v").unwrap().pack().unwrap().len(), 100);
        c.set_strategy("sys.T.v", StrategyKind::ApmSegm).unwrap();
        let seg = c.segmented("sys.T.v").unwrap();
        assert_eq!(seg.rows(), 100);
        let mut oids = seg.pack().unwrap().head_oids();
        oids.sort_unstable();
        assert_eq!(oids, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn re_registering_a_switched_column_keeps_the_new_rows() {
        let mut c = Catalog::new();
        let spec = StrategySpec::new(StrategyKind::ApmSegm);
        let old: Vec<i64> = (0..500).map(|i| i % 100).collect();
        c.register_segmented("sys", "T", "v", Bat::dense_int(old), 0.0, 100.0, spec)
            .unwrap();
        c.set_strategy("sys.T.v", StrategyKind::Cracking).unwrap();
        // A strategy switch still in flight must not outlive the column
        // it was switching: the new registration wins.
        let new: Vec<i64> = (0..10).collect();
        c.register_segmented("sys", "T", "v", Bat::dense_int(new), 0.0, 100.0, spec)
            .unwrap();
        c.merge_deltas("sys", "T").unwrap();
        let seg = c.segmented("sys.T.v").unwrap();
        assert_eq!(seg.rows(), 10);
        assert_eq!(
            c.strategy_spec("sys.T.v").map(|s| s.kind),
            Some(StrategyKind::ApmSegm)
        );
    }

    #[test]
    fn merge_deltas_folds_inserts_updates_and_deletes() {
        let mut c = Catalog::new();
        let base: Vec<i64> = (0..100).map(|i| (i * 7) % 50).collect();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int(base.clone()),
            0.0,
            50.0,
            StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(64, 256),
        )
        .unwrap();
        c.register_bat("sys", "T", "id", Bat::dense_int((1000..1100).collect()));
        let a = c.insert_row("sys", "T", &[("v", Atom::Int(11)), ("id", Atom::Int(1100))]);
        let b = c.insert_row("sys", "T", &[("v", Atom::Int(22)), ("id", Atom::Int(1101))]);
        c.update_value("sys", "T", "v", 0, Atom::Int(33));
        c.update_value("sys", "T", "v", 0, Atom::Int(44)); // later update wins
        c.update_value("sys", "T", "v", b, Atom::Int(23)); // update of an inserted row
        c.delete_row("sys", "T", 1);
        c.delete_row("sys", "T", a);
        let reorg_before = c.segmented("sys.T.v").unwrap().reorg_write_bytes();

        let report = c.merge_deltas("sys", "T").unwrap();
        assert_eq!(report.columns, 2);
        // Delta *entries* across columns: each inserted row wrote both v
        // and id, the three updates touched only v.
        assert_eq!(report.inserted, 4);
        assert_eq!(report.updated, 3);
        assert_eq!(report.deleted, 2);

        // Expected logical rows: base with oid 0 -> 44, oid 1 and the
        // first insert removed, the second insert updated to 23.
        let mut expect: BTreeMap<Oid, i64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| (i as Oid, *v))
            .collect();
        expect.insert(0, 44);
        expect.insert(b, 23);
        expect.remove(&1);
        let packed = c.segmented("sys.T.v").unwrap().pack().unwrap();
        let got: BTreeMap<Oid, i64> = match packed.tail() {
            Tail::Int(vals) => packed
                .head_oids()
                .into_iter()
                .zip(vals.iter().copied())
                .collect(),
            other => panic!("unexpected tail {other:?}"),
        };
        assert_eq!(got, expect);

        // The plain column shrank by the deletions and gained the inserts.
        let id = c.bat("sys.T.id").unwrap();
        assert_eq!(id.len(), 100 + 2 - 2);
        assert!(!id.head_oids().contains(&1));

        // Deltas and the deletion list are spent; the rewrite was charged.
        assert_eq!(c.pending_delta_rows("sys", "T"), 0);
        assert!(c.dbat("sys", "T").unwrap().is_empty());
        assert!(c.segmented("sys.T.v").unwrap().reorg_write_bytes() > reorg_before);
        // Fresh oids keep growing past the merged rows.
        assert_eq!(
            c.insert_row("sys", "T", &[("v", Atom::Int(1)), ("id", Atom::Int(9))]),
            b + 1
        );
    }

    #[test]
    fn auto_merge_triggers_at_the_threshold() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..50).collect()),
            0.0,
            100.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        c.set_table_merge_threshold("sys", "T", 4);
        for i in 0..3 {
            c.insert_row("sys", "T", &[("v", Atom::Int(50 + i))]);
        }
        assert_eq!(c.pending_delta_rows("sys", "T"), 3, "below threshold");
        c.insert_row("sys", "T", &[("v", Atom::Int(60))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 0, "threshold merged");
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 54);
    }

    #[test]
    fn orphan_deltas_neither_count_nor_thrash_the_auto_merge() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..50).collect()),
            0.0,
            100.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        c.set_table_merge_threshold("sys", "T", 2);
        // Deltas against a column name that was never registered are
        // inert: they must not count toward the threshold, and a merge
        // must leave them in place without looping.
        c.insert_row("sys", "T", &[("typo_col", Atom::Int(1))]);
        c.insert_row("sys", "T", &[("typo_col", Atom::Int(2))]);
        c.insert_row("sys", "T", &[("typo_col", Atom::Int(3))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 0);
        assert!(c.merge_deltas("sys", "T").unwrap() == MergeReport::default());
        // Registering the column later makes those deltas mergeable.
        c.register_bat("sys", "T", "typo_col", Bat::dense_int(vec![]));
        assert_eq!(c.pending_delta_rows("sys", "T"), 3);
        let report = c.merge_deltas("sys", "T").unwrap();
        assert_eq!(report.inserted, 3);
        assert_eq!(c.pending_delta_rows("sys", "T"), 0);
        assert_eq!(c.bat("sys.T.typo_col").unwrap().len(), 3);
    }

    #[test]
    fn merge_failure_is_typed_and_leaves_the_catalog_unchanged() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..50).collect()),
            0.0,
            100.0,
            StrategySpec::new(StrategyKind::ApmSegm),
        )
        .unwrap();
        // Out of the registered domain: the staged merge must fail.
        c.insert_row("sys", "T", &[("v", Atom::Int(500))]);
        assert!(matches!(
            c.merge_deltas("sys", "T"),
            Err(CatalogError::Bpm(_))
        ));
        assert_eq!(c.pending_delta_rows("sys", "T"), 1, "deltas kept");
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 50);
        // The auto-trigger gives up after one failed attempt instead of
        // re-trying the merge on every subsequent mutation.
        c.set_table_merge_threshold("sys", "T", 1);
        c.insert_row("sys", "T", &[("v", Atom::Int(1))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(2))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 3);
        // An atom the column's type cannot hold: typed error, not a
        // made-up 0 row.
        for (atom, got) in [(Atom::Str("forty".into()), "str"), (Atom::Nil, "nil")] {
            let mut plain = Catalog::new();
            plain.register_bat("sys", "T", "k", Bat::dense_int(vec![10, 20, 30]));
            plain.insert_row("sys", "T", &[("k", atom)]);
            match plain.merge_deltas("sys", "T") {
                Err(CatalogError::MalformedDelta { key, source }) => {
                    assert_eq!(key, "sys.T.k");
                    let expected = "int";
                    assert_eq!(source, BatError::TypeMismatch { expected, got });
                }
                other => panic!("expected MalformedDelta, got {other:?}"),
            }
            assert_eq!(plain.pending_delta_rows("sys", "T"), 1, "deltas kept");
            let unchanged = Bat::dense_int(vec![10, 20, 30]);
            assert_eq!(plain.bat("sys.T.k"), Some(&unchanged));
        }
    }

    #[test]
    fn failed_auto_merge_backs_off_then_retries_without_dropping_deltas() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..50).collect()),
            0.0,
            100.0,
            StrategySpec::new(StrategyKind::ApmSegm),
        )
        .unwrap();
        c.set_table_merge_threshold("sys", "T", 1);
        // The poisoned insert: out of the registered domain, so every
        // merge attempt fails until the row is compensated.
        let bad = c.insert_row("sys", "T", &[("v", Atom::Int(500))]);
        assert_eq!(
            c.pending_delta_rows("sys", "T"),
            1,
            "failed merge keeps deltas"
        );

        // First failure → cooldown 2: the next two mutations only tick
        // the clock (no merge attempt, so the pending count grows).
        c.insert_row("sys", "T", &[("v", Atom::Int(10))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(11))]);
        assert_eq!(
            c.pending_delta_rows("sys", "T"),
            3,
            "cooldown ticks, no merge"
        );

        // Cooldown elapsed: the next mutation retries — still poisoned,
        // so it fails again and the cooldown doubles to 4.
        c.insert_row("sys", "T", &[("v", Atom::Int(12))]);
        assert_eq!(
            c.pending_delta_rows("sys", "T"),
            4,
            "retry failed, deltas kept"
        );

        // Compensate the poison (delete the out-of-domain row), then
        // mutate through the second cooldown window. The retry at its
        // end succeeds and folds EVERY pending delta — nothing dropped.
        c.delete_row("sys", "T", bad); // cooldown 4 → 3
        c.insert_row("sys", "T", &[("v", Atom::Int(13))]); // 3 → 2
        c.insert_row("sys", "T", &[("v", Atom::Int(14))]); // 2 → 1
        c.insert_row("sys", "T", &[("v", Atom::Int(15))]); // 1 → 0
        assert!(c.pending_delta_rows("sys", "T") > 0, "still cooling down");
        c.insert_row("sys", "T", &[("v", Atom::Int(16))]); // retry: succeeds
        assert_eq!(
            c.pending_delta_rows("sys", "T"),
            0,
            "the backed-off retry merged every pending delta"
        );
        // All seven in-domain inserts landed; the poisoned row is gone.
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 57);

        // A fresh failure after success starts the backoff ladder over
        // (cooldown 2, not 8): success cleared the failure count.
        c.insert_row("sys", "T", &[("v", Atom::Int(700))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(20))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(21))]);
        assert_eq!(
            c.pending_delta_rows("sys", "T"),
            3,
            "ladder restarted at cooldown 2 after the earlier success"
        );
    }

    #[test]
    fn a_pending_atom_the_tail_cannot_hold_fails_the_merge() {
        // The domain holds 0, so a `Str` that landed as a made-up 0 would
        // fold in unnoticed; the merge refuses the row instead.
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..50).collect()),
            0.0,
            100.0,
            StrategySpec::new(StrategyKind::ApmSegm),
        )
        .unwrap();
        c.insert_row("sys", "T", &[("v", Atom::Str("forty".into()))]);
        let (expected, got) = ("int", "str");
        assert!(matches!(
            c.merge_deltas("sys", "T"),
            Err(CatalogError::MalformedDelta { source, .. })
                if source == BatError::TypeMismatch { expected, got }
        ));
    }

    #[test]
    fn merge_keeps_every_piece_for_every_kind() {
        // 2 000 rows, every value of [0, 1000) exactly twice, so no pending
        // operation below moves the column's min or max.
        let base: Vec<i64> = (0..2_000).map(|i| (i * 7919) % 1000).collect();
        for kind in StrategyKind::ALL {
            let mut c = Catalog::new();
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(128, 512)
                .with_model_seed(7);
            c.register_segmented(
                "sys",
                "T",
                "v",
                Bat::dense_int(base.clone()),
                0.0,
                1000.0,
                spec,
            )
            .unwrap();
            for k in 0..8 {
                let lo = (k * 117) % 800;
                c.segmented_mut("sys.T.v")
                    .unwrap()
                    .adapt(&Atom::Int(lo), &Atom::Int(lo + 150))
                    .unwrap();
            }
            let mut model: BTreeMap<Oid, i64> = (0u64..).zip(base.iter().copied()).collect();
            for v in [150, 420, 777] {
                let oid = c.insert_row("sys", "T", &[("v", Atom::Int(v))]);
                model.insert(oid, v);
            }
            for (oid, v) in [(10, 333), (11, 640), (2_000, 151)] {
                c.update_value("sys", "T", "v", oid, Atom::Int(v));
                model.insert(oid, v);
            }
            for oid in [20, 21, 2_001] {
                c.delete_row("sys", "T", oid);
                model.remove(&oid);
            }
            let seg = c.segmented("sys.T.v").unwrap();
            let (spans, bill) = (seg.piece_spans(), seg.reorg_write_bytes());

            c.merge_deltas("sys", "T").unwrap();
            let seg = c.segmented("sys.T.v").unwrap();
            assert_eq!(seg.piece_spans(), spans, "{kind:?}: a merge moved a piece");
            seg.validate().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let packed = seg.pack().unwrap();
            let Tail::Int(vals) = packed.tail() else {
                panic!("{kind:?}: int tail expected");
            };
            let got: BTreeMap<Oid, i64> = packed
                .head_oids()
                .into_iter()
                .zip(vals.iter().copied())
                .collect();
            assert_eq!(got, model, "{kind:?}");
            // The fold rewrites only the pieces (and replicas) its rows
            // land in: never more than the column stores, and less than
            // one full copy once the rows are spread over several pieces.
            let grew = seg.reorg_write_bytes() - bill;
            let full = model.len() as u64 * 16;
            assert!(grew <= seg.storage_bytes(), "{kind:?}: billed {grew}");
            if seg.piece_count() > 1 && seg.storage_bytes() == full {
                assert!(grew < full, "{kind:?}: billed {grew}, a full rewrite");
            }
        }
    }

    #[test]
    fn updates_of_a_row_the_column_never_held_stay_inert() {
        let mut c = Catalog::new();
        let spec = StrategySpec::new(StrategyKind::Cracking);
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..10).collect()),
            0.0,
            100.0,
            spec,
        )
        .unwrap();
        // Oid 50 never was a row: neither update may conjure one in the
        // merge that folds them.
        c.update_value("sys", "T", "v", 50, Atom::Int(70));
        c.update_value("sys", "T", "v", 50, Atom::Int(80));
        assert_eq!(c.merge_deltas("sys", "T").unwrap().updated, 0);
        let seg = c.segmented("sys.T.v").unwrap();
        assert_eq!(seg.rows(), 10);
        assert_eq!(seg.pack().unwrap().len(), 10);
    }

    #[test]
    fn crossing_the_threshold_folds_the_whole_backlog_and_keeps_the_pieces() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..100).collect()),
            0.0,
            100_000.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        c.segmented_mut("sys.T.v")
            .unwrap()
            .adapt(&Atom::Int(20), &Atom::Int(60))
            .unwrap();
        let spans = c.segmented("sys.T.v").unwrap().piece_spans();
        c.set_table_merge_threshold("sys", "T", 1024);
        assert_eq!(c.table_merge_threshold("sys", "T"), 1024);
        for i in 0..1023 {
            c.insert_row("sys", "T", &[("v", Atom::Int(i % 90))]);
        }
        assert_eq!(c.pending_rows("sys", "T"), 1023, "below the threshold");
        // The mutation that reaches the threshold merges every pending row.
        c.insert_row("sys", "T", &[("v", Atom::Int(42))]);
        assert_eq!(c.pending_rows("sys", "T"), 0, "the whole backlog folded");
        let seg = c.segmented("sys.T.v").unwrap();
        assert_eq!(seg.rows(), 100 + 1024);
        assert_eq!(seg.piece_spans(), spans, "the cracks survive the merge");
        // Below the threshold again, mutations only pend.
        c.insert_row("sys", "T", &[("v", Atom::Int(7))]);
        assert_eq!(c.pending_rows("sys", "T"), 1);
    }

    #[test]
    fn re_registering_a_poisoned_column_releases_the_merge_backoff() {
        let mut c = Catalog::new();
        let register = |c: &mut Catalog, hi: f64| {
            c.register_segmented(
                "sys",
                "T",
                "v",
                Bat::dense_int((0..50).collect()),
                0.0,
                hi,
                StrategySpec::new(StrategyKind::ApmSegm),
            )
            .unwrap();
        };
        register(&mut c, 100.0);
        c.set_table_merge_threshold("sys", "T", 1);
        // Poison the column: a value outside its domain fails the merge,
        // and the backoff latches.
        c.insert_row("sys", "T", &[("v", Atom::Int(500))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 1);
        assert!(
            c.auto_merge_backoff.contains_key("sys.T"),
            "backoff latched"
        );

        // Re-registering over the poisoned column (a domain that holds
        // the value) releases the backoff: the very next mutation merges
        // instead of sitting out the cooldown.
        register(&mut c, 1000.0);
        assert!(
            !c.auto_merge_backoff.contains_key("sys.T"),
            "re-register resets"
        );
        c.insert_row("sys", "T", &[("v", Atom::Int(13))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 0, "merged, no cooldown");
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 52);
    }

    #[test]
    fn per_table_threshold_overrides_the_global_default() {
        let mut c = Catalog::new();
        for t in ["A", "B"] {
            c.register_segmented(
                "sys",
                t,
                "v",
                Bat::dense_int((0..10).collect()),
                0.0,
                1000.0,
                StrategySpec::new(StrategyKind::Cracking),
            )
            .unwrap();
        }
        c.set_table_merge_threshold("sys", "A", 2);
        // Table A merges at its own threshold…
        c.insert_row("sys", "A", &[("v", Atom::Int(11))]);
        c.insert_row("sys", "A", &[("v", Atom::Int(12))]);
        assert_eq!(c.pending_rows("sys", "A"), 0);
        assert_eq!(c.segmented("sys.A.v").unwrap().rows(), 12);
        // …while table B sits on the global one.
        c.insert_row("sys", "B", &[("v", Atom::Int(11))]);
        c.insert_row("sys", "B", &[("v", Atom::Int(12))]);
        assert_eq!(c.pending_rows("sys", "B"), 2);
        // A per-table 0 disables auto-merging for that table alone.
        c.set_table_merge_threshold("sys", "A", 0);
        for i in 0..300 {
            c.insert_row("sys", "A", &[("v", Atom::Int(i))]);
        }
        assert_eq!(c.pending_rows("sys", "A"), 300);
    }

    #[test]
    fn set_strategy_errors_are_typed() {
        let mut c = Catalog::new();
        c.register_bat("sys", "T", "plain", Bat::dense_int(vec![1]));
        assert!(matches!(
            c.set_strategy("sys.T.plain", StrategyKind::Cracking),
            Err(CatalogError::NotSegmented(_))
        ));
        assert!(matches!(
            c.set_strategy("sys.T.nope", StrategyKind::Cracking),
            Err(CatalogError::UnknownColumn(_))
        ));
    }

    #[test]
    fn insert_rows_get_fresh_oids_past_the_base() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![1.0, 2.0, 3.0]));
        c.register_bat("sys", "P", "objid", Bat::dense_int(vec![10, 11, 12]));
        let a = c.insert_row(
            "sys",
            "P",
            &[("ra", Atom::Dbl(4.0)), ("objid", Atom::Int(13))],
        );
        let b = c.insert_row(
            "sys",
            "P",
            &[("ra", Atom::Dbl(5.0)), ("objid", Atom::Int(14))],
        );
        assert_eq!(a, 3);
        assert_eq!(b, 4);
        let like = Bat::dense_dbl(vec![]);
        let ins = c.delta_bat("sys.P.ra", 1, like).unwrap();
        assert_eq!(ins.head_oids(), vec![3, 4]);
        assert_eq!(ins.tail(), &Tail::Dbl(vec![4.0, 5.0].into()));
    }

    #[test]
    fn updates_and_deletes_land_in_their_deltas() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![1.0, 2.0]));
        c.update_value("sys", "P", "ra", 1, Atom::Dbl(9.0));
        c.delete_row("sys", "P", 0);
        let like = Bat::dense_dbl(vec![]);
        let upd = c.delta_bat("sys.P.ra", 2, like.clone()).unwrap();
        assert_eq!(upd.head_oids(), vec![1]);
        assert_eq!(upd.tail(), &Tail::Dbl(vec![9.0].into()));
        let dbat = c.dbat("sys", "P").unwrap();
        assert_eq!(dbat.tail(), &Tail::Oid(vec![0].into()));
        // Untouched columns still produce empty deltas.
        assert!(c.delta_bat("sys.P.nope", 1, like).unwrap().is_empty());
    }
}
