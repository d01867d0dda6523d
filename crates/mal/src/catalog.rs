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
//! hook), preserving its rows and pending deltas — as a **background
//! migration**: the rebuild runs on a builder thread against a content
//! snapshot while the old organization keeps serving reads, and the
//! finished column is installed atomically by
//! [`Catalog::integrate_migrations`] / [`Catalog::await_migrations`]
//! (mirroring the epoch publishes of `soc_core::ConcurrentColumn`).
//!
//! Deltas no longer accumulate forever: [`Catalog::merge_deltas`] folds a
//! table's pending inserts/updates/deletes into the base columns through
//! the same snapshot-rebuild machinery (segmented columns re-organize
//! under their registered spec with the rewrite charged as
//! reorganization). Automatic merging is **incremental**: once a table's
//! pending rows cross the threshold (global default, overridable per
//! table), each subsequent mutation folds one bounded
//! [`Catalog::merge_deltas_step`] — oldest rows first — until the backlog
//! drains below the stop watermark (threshold/4), so no single mutation
//! pays for a full backlog rebuild.
//!
//! Pending deltas are also **readable without merging**:
//! [`Catalog::snapshot_count`]/[`Catalog::snapshot_collect`] freeze a
//! [`soc_core::StrategySnapshot`] of the column with its deltas sealed
//! into a sorted run, and answer by merge-on-read — bit-identical to the
//! Figure 1 merged bat.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::thread;

use soc_bat::{algebra::Atom, Bat, BatError, Head, Oid, Tail};
use soc_core::model::SegmentationModel;
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
    /// The column was registered through the raw-model test hook, so it
    /// carries no [`StrategySpec`] to rebuild under (bulk merges and
    /// checkpoints need one).
    NoSpec(String),
    /// A background migration could not run: the builder thread failed to
    /// spawn, or panicked before producing a column. The old organization
    /// stays in force.
    Migration(String),
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
            CatalogError::NoSpec(k) => {
                write!(
                    f,
                    "column {k} has no registered StrategySpec (raw-model registration)"
                )
            }
            CatalogError::Migration(m) => write!(f, "migration failed: {m}"),
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

impl ColumnDeltas {
    /// Drops every entry whose row is in `folded` (those rows just merged
    /// into the base), preserving the recorded order of the remainder.
    fn retain_rows_outside(&mut self, folded: &BTreeSet<Oid>) {
        fn retain_pair(heads: &mut Vec<Oid>, vals: &mut Vec<Atom>, folded: &BTreeSet<Oid>) {
            let mut kept_heads = Vec::with_capacity(heads.len());
            let mut kept_vals = Vec::with_capacity(vals.len());
            for (h, v) in heads.drain(..).zip(vals.drain(..)) {
                if !folded.contains(&h) {
                    kept_heads.push(h);
                    kept_vals.push(v);
                }
            }
            *heads = kept_heads;
            *vals = kept_vals;
        }
        retain_pair(&mut self.insert_heads, &mut self.insert_vals, folded);
        retain_pair(&mut self.update_heads, &mut self.update_vals, folded);
    }
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

/// The registered domain of a segmented column, kept so the column can be
/// re-organized under a different strategy later.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegMeta {
    pub(crate) domain_lo: f64,
    pub(crate) domain_hi_excl: f64,
    /// `None` for columns registered through the raw-model test hook.
    pub(crate) spec: Option<StrategySpec>,
}

/// One in-flight background strategy migration: the builder thread
/// re-organizing a content snapshot, plus what the install needs.
#[derive(Debug)]
struct PendingMigration {
    spec: StrategySpec,
    /// The full-column rewrite the rebuild performs, charged to the
    /// column's reorganization bill at install time.
    rewrite_bytes: u64,
    handle: thread::JoinHandle<Result<SegmentedBat, BpmError>>,
}

/// What one [`Catalog::merge_deltas`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Columns rebuilt (plain and segmented).
    pub columns: usize,
    /// Insert-delta entries folded into the base (one per row × column).
    pub inserted: usize,
    /// Update-delta entries applied.
    pub updated: usize,
    /// Deleted rows physically removed.
    pub deleted: usize,
}

/// Pending delta rows that trigger an automatic [`Catalog::merge_deltas`]
/// when crossed (per table). Small enough that delta scans stay cheap,
/// large enough that a bulk load does not thrash rebuilds.
pub const DEFAULT_DELTA_MERGE_THRESHOLD: usize = 4096;

/// Smallest number of rows one automatic compaction step folds. Keeps the
/// per-step rebuild from degenerating into one-row rewrites under tiny
/// thresholds (tests, demos) while the default threshold compacts in
/// `threshold/4` chunks between the watermarks.
pub const MIN_AUTO_MERGE_STEP: usize = 256;

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
#[derive(Debug)]
pub struct Catalog {
    pub(crate) bats: HashMap<String, Bat>,
    pub(crate) segmented: HashMap<String, SegmentedBat>,
    pub(crate) seg_meta: HashMap<String, SegMeta>,
    pub(crate) deltas: HashMap<String, ColumnDeltas>,
    /// Deleted row oids per `schema.table`.
    pub(crate) deleted: HashMap<String, Vec<Oid>>,
    /// Next fresh oid per `schema.table` (rows appended so far + base).
    pub(crate) next_oid: HashMap<String, Oid>,
    /// In-flight background strategy migrations, by column key.
    migrations: HashMap<String, PendingMigration>,
    /// Pending-delta-row count at which a table auto-merges (0 disables).
    delta_merge_threshold: usize,
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
    /// THRESHOLD` DDL); absent tables use [`Self::delta_merge_threshold`].
    merge_thresholds: HashMap<String, usize>,
    /// Tables between the compaction watermarks: pending rows crossed the
    /// threshold and have not yet drained below threshold/4, so each
    /// mutation folds one bounded step (hysteresis — mirrors
    /// `soc_core::CompactionPolicy`).
    compacting: HashSet<String>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            bats: HashMap::new(),
            segmented: HashMap::new(),
            seg_meta: HashMap::new(),
            deltas: HashMap::new(),
            deleted: HashMap::new(),
            next_oid: HashMap::new(),
            migrations: HashMap::new(),
            delta_merge_threshold: DEFAULT_DELTA_MERGE_THRESHOLD,
            auto_merge_backoff: HashMap::new(),
            pending_rows: HashMap::new(),
            merge_thresholds: HashMap::new(),
            compacting: HashSet::new(),
        }
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical key for `schema.table.column`.
    pub fn key(schema: &str, table: &str, column: &str) -> String {
        format!("{schema}.{table}.{column}")
    }

    fn table_key(schema: &str, table: &str) -> String {
        format!("{schema}.{table}")
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
                spec: Some(spec),
            },
        );
        let was_registered = self.is_registered(&key);
        self.segmented.insert(key.clone(), seg);
        self.on_register(schema, table, &key, was_registered);
        Ok(())
    }

    /// Registers a segmented column governed by a raw
    /// [`SegmentationModel`] — the deterministic hook tests use
    /// (`AlwaysSplit`/`NeverSplit`); production call sites register a
    /// [`StrategySpec`] via [`Self::register_segmented`].
    #[allow(clippy::too_many_arguments)]
    pub fn register_segmented_with_model(
        &mut self,
        schema: &str,
        table: &str,
        column: &str,
        bat: Bat,
        domain_lo: f64,
        domain_hi_excl: f64,
        model: Box<dyn SegmentationModel>,
    ) -> Result<(), BpmError> {
        let rows = bat.len() as u64;
        let seg = SegmentedBat::new(bat, domain_lo, domain_hi_excl, model)?;
        let key = Self::key(schema, table, column);
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
                spec: None,
            },
        );
        let was_registered = self.is_registered(&key);
        self.segmented.insert(key.clone(), seg);
        self.on_register(schema, table, &key, was_registered);
        Ok(())
    }

    /// Re-organizes a live segmented column under a different strategy
    /// kind — as a **background migration**: the rows are snapshotted
    /// (oids intact, a read-only `pack`), a builder thread rebuilds them
    /// through the spec factory, and the old column keeps serving reads
    /// and adaptation until the finished one is installed atomically by
    /// [`Self::integrate_migrations`] / [`Self::await_migrations`]. This
    /// is what the `ALTER COLUMN … SET STRATEGY` DDL and the
    /// `bpm.setStrategy` MAL operator execute; pending deltas are
    /// untouched. A migration already in flight for the same column is
    /// awaited first (builds never race; last request wins).
    ///
    /// # Errors
    /// [`CatalogError::NotSegmented`] (or `UnknownColumn`) when `key` does
    /// not name a segmented column; [`CatalogError::Bpm`] when the content
    /// snapshot — or a prior migration of this column — fails (the column
    /// is left unchanged in that case). A failure of *this* rebuild
    /// surfaces at integration time; the old column stays in force.
    pub fn set_strategy(&mut self, key: &str, kind: StrategyKind) -> Result<(), CatalogError> {
        self.await_column(key)?;
        let Some(meta) = self.seg_meta.get(key).copied() else {
            return Err(if self.bats.contains_key(key) {
                CatalogError::NotSegmented(key.to_owned())
            } else {
                CatalogError::UnknownColumn(key.to_owned())
            });
        };
        let Some(seg) = self.segmented.get(key) else {
            return Err(CatalogError::UnknownColumn(key.to_owned()));
        };
        let spec = StrategySpec {
            kind,
            ..meta.spec.unwrap_or_else(|| StrategySpec::new(kind))
        };
        let packed = seg.pack()?;
        let rewrite_bytes = packed.bytes();
        let (lo, hi) = (meta.domain_lo, meta.domain_hi_excl);
        let handle = thread::Builder::new()
            .name("soc-catalog-migrate".into())
            .spawn(move || SegmentedBat::from_spec(packed, lo, hi, &spec))
            .map_err(|e| CatalogError::Migration(format!("spawn builder for {key}: {e}")))?;
        self.migrations.insert(
            key.to_owned(),
            PendingMigration {
                spec,
                rewrite_bytes,
                handle,
            },
        );
        Ok(())
    }

    /// Installs one finished migration: reorganization accounting survives
    /// the switch — the column keeps its accumulated bill (including any
    /// adaptation the old strategy performed *while* the rebuild ran),
    /// plus the full-column rewrite the rebuild performed (adaptation
    /// counters restart — they describe the live strategy's organization,
    /// not the column's history).
    fn install_migration(&mut self, key: &str, m: PendingMigration) -> Result<(), CatalogError> {
        let mut rebuilt = m
            .handle
            .join()
            .map_err(|_| CatalogError::Migration(format!("builder thread panicked for {key}")))??;
        let prior_reorg = self
            .segmented
            .get(key)
            .map(|s| s.reorg_write_bytes())
            .unwrap_or(0);
        rebuilt.add_reorg_write_bytes(prior_reorg + m.rewrite_bytes);
        soc_core::debug_assert_valid!(rebuilt.validate(), "catalog migration install");
        self.segmented.insert(key.to_owned(), rebuilt);
        if let Some(meta) = self.seg_meta.get_mut(key) {
            meta.spec = Some(m.spec);
        }
        Ok(())
    }

    /// Installs every background migration that has already finished
    /// building, without blocking on the ones still running. Returns the
    /// columns whose rebuild failed (their old organization stays in
    /// force). The MAL interpreter calls this at program entry, so DDL
    /// issued earlier lands at the next statement boundary.
    pub fn integrate_migrations(&mut self) -> Vec<(String, CatalogError)> {
        let finished: Vec<String> = self
            .migrations
            .iter()
            .filter(|(_, m)| m.handle.is_finished())
            .map(|(k, _)| k.clone())
            .collect();
        let mut failures = Vec::new();
        for key in finished {
            let Some(m) = self.migrations.remove(&key) else {
                continue;
            };
            if let Err(e) = self.install_migration(&key, m) {
                failures.push((key, e));
            }
        }
        failures
    }

    /// Blocks until every in-flight migration has built and installed —
    /// the explicit completion barrier (tests, checkpoints, shutdown).
    /// Returns the columns whose rebuild failed.
    pub fn await_migrations(&mut self) -> Vec<(String, CatalogError)> {
        let keys: Vec<String> = self.migrations.keys().cloned().collect();
        keys.into_iter()
            .filter_map(|key| {
                let m = self.migrations.remove(&key)?;
                self.install_migration(&key, m).err().map(|e| (key, e))
            })
            .collect()
    }

    /// Awaits (and installs) the migration in flight for `key`, if any —
    /// the per-column barrier metadata readers use.
    ///
    /// # Errors
    /// The rebuild's [`CatalogError`] when it failed; the old column
    /// stays in force.
    pub fn await_column(&mut self, key: &str) -> Result<(), CatalogError> {
        match self.migrations.remove(key) {
            Some(m) => self.install_migration(key, m),
            None => Ok(()),
        }
    }

    /// Whether a background migration is in flight for `key`.
    pub fn migration_in_progress(&self, key: &str) -> bool {
        self.migrations.contains_key(key)
    }

    /// Number of background migrations currently in flight.
    pub fn migrations_pending(&self) -> usize {
        self.migrations.len()
    }

    /// The spec a segmented column was registered (or last re-organized)
    /// with; `None` for plain columns and raw-model registrations.
    pub fn strategy_spec(&self, key: &str) -> Option<StrategySpec> {
        self.seg_meta.get(key).and_then(|m| m.spec)
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

    /// Whether `key` names a segmented column.
    pub fn is_segmented(&self, key: &str) -> bool {
        self.segmented.contains_key(key)
    }

    /// All registered keys (diagnostics).
    pub fn keys(&self) -> Vec<String> {
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
    /// `access` 1 (inserts) or 2 (updates); typed like the base column.
    pub(crate) fn delta_bat(
        &self,
        key: &str,
        access: i64,
        like: &Bat,
    ) -> Result<Bat, CatalogError> {
        match self.deltas.get(key) {
            None => Ok(like.empty_like()),
            Some(d) => match access {
                1 => atoms_to_bat(key, &d.insert_heads, &d.insert_vals, like),
                2 => atoms_to_bat(key, &d.update_heads, &d.update_vals, like),
                _ => Ok(like.empty_like()),
            },
        }
    }

    /// The deletions bat `sql.bind_dbat` returns: head void, tail = the
    /// deleted oids (Figure 1 reverses it before `kdifference`).
    pub(crate) fn dbat(&self, schema: &str, table: &str) -> Result<Bat, CatalogError> {
        let key = Self::table_key(schema, table);
        let deleted = self.deleted.get(&key).cloned().unwrap_or_default();
        Bat::new(Head::Void { base: 0 }, Tail::Oid(deleted.into()))
            .map_err(|source| CatalogError::MalformedDelta { key, source })
    }

    /// The delta overlay of column `key`: its pending insert/update
    /// entries plus the table's deleted oids.
    fn overlay(&self, key: &str) -> (Option<&ColumnDeltas>, &[Oid]) {
        let d = self.deltas.get(key);
        let deleted = key
            .rfind('.')
            .and_then(|dot| self.deleted.get(&key[..dot]))
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        (d, deleted)
    }

    // ---- delta-visible snapshot reads ----------------------------------

    /// Counts the rows of segmented column `key` in the closed query
    /// `[lo, hi]` **including** its pending deltas, by merge-on-read
    /// against a frozen [`soc_core::StrategySnapshot`] — no merge, no
    /// rebuild, and bit-identical to counting the Figure 1 merged bat.
    /// An in-flight background migration keeps serving from the old
    /// organization (same rows, same answer).
    ///
    /// # Errors
    /// [`CatalogError::NotSegmented`]/`UnknownColumn` when `key` does not
    /// name a segmented column; [`CatalogError::Bpm`] when a pending
    /// `:dbl` delta holds NaN, or a pending atom is one the column's tail
    /// type cannot hold (a `BatError::TypeMismatch`, as the merge reports).
    pub fn snapshot_count(&self, key: &str, lo: f64, hi: f64) -> Result<u64, CatalogError> {
        let seg = self.require_segmented(key)?;
        let (d, deleted) = self.overlay(key);
        let mut tracker = soc_core::NullTracker;
        Ok(seg.delta_visible_count(d, deleted, lo, hi, &mut tracker)?)
    }

    /// Materializes the rows of segmented column `key` in the closed
    /// query `[lo, hi]` including pending deltas, in value order (oid
    /// tiebreak) — the delta-visible snapshot twin of the Figure 1 merge
    /// plan. Same errors as [`Self::snapshot_count`].
    pub fn snapshot_collect(&self, key: &str, lo: f64, hi: f64) -> Result<Bat, CatalogError> {
        let seg = self.require_segmented(key)?;
        let (d, deleted) = self.overlay(key);
        let mut tracker = soc_core::NullTracker;
        Ok(seg.delta_visible_collect(d, deleted, lo, hi, &mut tracker)?)
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

    // ---- bulk delta merge ----------------------------------------------

    /// Sets the pending-delta-row count at which a table's deltas start
    /// compacting into the base columns automatically (0 disables
    /// auto-merging; the default is [`DEFAULT_DELTA_MERGE_THRESHOLD`]).
    /// Tables with a per-table override ([`Self::set_table_merge_threshold`])
    /// keep it.
    pub fn set_delta_merge_threshold(&mut self, rows: usize) {
        self.delta_merge_threshold = rows;
    }

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
            .unwrap_or(self.delta_merge_threshold)
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

    /// Keys of every registered column of `schema.table` (plain and
    /// segmented), sorted.
    fn table_columns(&self, schema: &str, table: &str) -> Vec<String> {
        let prefix = format!("{}.", Self::table_key(schema, table));
        let mut keys: Vec<String> = self
            .bats
            .keys()
            .chain(self.segmented.keys())
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Folds every pending delta of `schema.table` into its base columns —
    /// the bulk-merge pass MonetDB's delta scheme assumes happens at the
    /// next bulk load, closing the "deltas stay unorganized" gap: inserts
    /// append, updates overwrite in place, deleted rows are physically
    /// removed, and each **segmented** column is re-organized from the
    /// merged snapshot under its registered [`StrategySpec`] (the same
    /// snapshot-rebuild machinery background migrations use) with the
    /// full-column rewrite charged to its reorganization bill. Plain
    /// columns are rebuilt in oid order — with a void head while no row
    /// is missing, explicit oids once a delete has been folded in.
    /// Afterwards the table's delta bats and deletion list are empty.
    ///
    /// Deltas recorded against column names that were never registered
    /// are inert (no base column ever binds them): they are neither
    /// merged nor counted by [`Self::pending_delta_rows`], and they stay
    /// in place in case the column is registered later.
    ///
    /// The merge is staged: every rebuilt column is validated before any
    /// is installed, so a failure (an inserted value outside a column's
    /// registered domain, a NaN update) leaves the catalog unchanged.
    ///
    /// # Errors
    /// [`CatalogError::NoSpec`] for raw-model segmented columns (no spec
    /// to rebuild under); [`CatalogError::Bpm`] when a segmented rebuild
    /// fails; [`CatalogError::MalformedDelta`] when a delta cannot be
    /// typed like its base column.
    pub fn merge_deltas(&mut self, schema: &str, table: &str) -> Result<MergeReport, CatalogError> {
        self.fold_deltas(schema, table, None)
    }

    /// One **incremental** compaction step: folds the pending deltas of
    /// at most `max_rows` distinct logical rows — smallest oids first,
    /// the oldest pending rows — into the base columns, retaining the
    /// rest for later steps. Per-row delta operations are folded
    /// all-or-nothing (ops on different rows commute), so any prefix of
    /// steps leaves the catalog in a state bit-identical to what reads
    /// already saw through the delta overlay. This is the driver the
    /// automatic merge runs one bounded step of per mutation; `merge
    /// everything` is [`Self::merge_deltas`]. Same staging and errors.
    pub fn merge_deltas_step(
        &mut self,
        schema: &str,
        table: &str,
        max_rows: usize,
    ) -> Result<MergeReport, CatalogError> {
        self.fold_deltas(schema, table, Some(max_rows))
    }

    /// The shared fold machinery: `limit = None` folds every pending
    /// delta (bulk merge), `Some(k)` folds the `k` oldest pending rows
    /// (compaction step). Staged all-or-nothing: every rebuilt column is
    /// validated before any is installed.
    fn fold_deltas(
        &mut self,
        schema: &str,
        table: &str,
        limit: Option<usize>,
    ) -> Result<MergeReport, CatalogError> {
        let tk = Self::table_key(schema, table);
        let keys = self.table_columns(schema, table);
        // Land in-flight migrations on this table first: the merge below
        // replaces the segmented bats wholesale.
        for key in &keys {
            self.await_column(key)?;
        }
        let deleted_all: BTreeSet<Oid> = self
            .deleted
            .get(&tk)
            .map(|v| v.iter().copied().collect())
            .unwrap_or_default();
        let mut report = MergeReport::default();
        if self.pending_delta_rows(schema, table) == 0 {
            return Ok(report);
        }
        // The fold set: which logical rows this pass folds (`None` = all).
        let fold: Option<BTreeSet<Oid>> = limit.map(|max| {
            let mut oids: BTreeSet<Oid> = BTreeSet::new();
            for key in &keys {
                if let Some(d) = self.deltas.get(key) {
                    oids.extend(d.insert_heads.iter().copied());
                    oids.extend(d.update_heads.iter().copied());
                }
            }
            oids.extend(deleted_all.iter().copied());
            oids.into_iter().take(max).collect()
        });
        if fold.as_ref().is_some_and(|f| f.is_empty()) {
            return Ok(report);
        }
        let folds = |oid: &Oid| fold.as_ref().is_none_or(|f| f.contains(oid));
        let deleted: BTreeSet<Oid> = deleted_all.iter().copied().filter(folds).collect();

        enum Staged {
            Plain(Bat),
            Seg(SegmentedBat),
        }
        let mut staged: Vec<(String, Staged)> = Vec::with_capacity(keys.len());
        for key in &keys {
            // A partial fold leaves columns it does not touch alone — no
            // entries of theirs in the fold set and no row deletions means
            // no content change, so no rewrite to charge.
            let has_entries = self.deltas.get(key).is_some_and(|d| {
                d.insert_heads.iter().any(folds) || d.update_heads.iter().any(folds)
            });
            if fold.is_some() && !has_entries && deleted.is_empty() {
                continue;
            }
            // The merged logical rows, keyed (and thus ordered) by oid.
            let mut rows: BTreeMap<Oid, Atom> = BTreeMap::new();
            let (like, seg_rebuild) = if let Some(seg) = self.segmented.get(key) {
                #[expect(
                    clippy::expect_used,
                    reason = "seg_meta is inserted in lockstep with segmented"
                )]
                let meta = self.seg_meta.get(key).copied().expect("segmented has meta");
                let Some(spec) = meta.spec else {
                    return Err(CatalogError::NoSpec(key.clone()));
                };
                let prior_reorg = seg.reorg_write_bytes();
                (seg.pack()?, Some((meta, spec, prior_reorg)))
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "table_columns enumerates only registered keys"
                )]
                let bat = self.bats.get(key).expect("key is registered");
                (bat.clone(), None)
            };
            for i in 0..like.len() {
                rows.insert(like.head_at(i), atom_at(like.tail(), i));
            }
            if let Some(d) = self.deltas.get(key) {
                for (oid, v) in d.insert_heads.iter().zip(&d.insert_vals) {
                    if !folds(oid) {
                        continue;
                    }
                    rows.insert(*oid, v.clone());
                    report.inserted += 1;
                }
                // Recorded order: a later update of the same row wins.
                for (oid, v) in d.update_heads.iter().zip(&d.update_vals) {
                    if !folds(oid) {
                        continue;
                    }
                    if let Some(slot) = rows.get_mut(oid) {
                        *slot = v.clone();
                        report.updated += 1;
                    }
                }
            }
            let before = rows.len();
            rows.retain(|oid, _| !deleted.contains(oid));
            report.deleted = report.deleted.max(before - rows.len());
            let heads: Vec<Oid> = rows.keys().copied().collect();
            let vals: Vec<Atom> = rows.into_values().collect();
            let merged = atoms_to_bat(key, &heads, &vals, &like)?;
            report.columns += 1;
            match seg_rebuild {
                Some((meta, spec, prior_reorg)) => {
                    let rewrite = merged.bytes();
                    let mut rebuilt = SegmentedBat::from_spec(
                        merged,
                        meta.domain_lo,
                        meta.domain_hi_excl,
                        &spec,
                    )?;
                    rebuilt.add_reorg_write_bytes(prior_reorg + rewrite);
                    staged.push((key.clone(), Staged::Seg(rebuilt)));
                }
                None => staged.push((key.clone(), Staged::Plain(merged))),
            }
        }

        // Commit: every column rebuilt successfully — install and clear
        // (or, for a partial fold, retain the unfolded remainder).
        for (key, s) in staged {
            match s {
                Staged::Plain(bat) => {
                    self.bats.insert(key, bat);
                }
                Staged::Seg(seg) => {
                    self.segmented.insert(key, seg);
                }
            }
        }
        match &fold {
            None => {
                for key in &keys {
                    self.deltas.remove(key);
                }
                self.deleted.remove(&tk);
                // All counted (registered-column) deltas were folded;
                // deltas against never-registered column names are inert
                // and uncounted, so the table's pending total is zero by
                // construction.
                self.pending_rows.remove(&tk);
            }
            Some(f) => {
                for key in &keys {
                    if let Some(d) = self.deltas.get_mut(key) {
                        d.retain_rows_outside(f);
                        if d.insert_heads.is_empty() && d.update_heads.is_empty() {
                            self.deltas.remove(key);
                        }
                    }
                }
                if let Some(v) = self.deleted.get_mut(&tk) {
                    v.retain(|o| !f.contains(o));
                    if v.is_empty() {
                        self.deleted.remove(&tk);
                    }
                }
                self.recompute_pending();
            }
        }
        self.auto_merge_backoff.remove(&tk);
        Ok(report)
    }

    /// Auto-merge hook run after every delta mutation, now an
    /// **incremental compactor with hysteresis** (mirroring
    /// `soc_core::CompactionPolicy`): once the table's pending rows reach
    /// the threshold in force, each mutation folds one bounded
    /// [`Self::merge_deltas_step`] — at most `max(threshold/4,`
    /// [`MIN_AUTO_MERGE_STEP`]`)` rows, oldest first — until the backlog
    /// drains to the stop watermark (`threshold/4`). No single mutation
    /// pays for the whole backlog. A failed step (e.g. an out-of-domain
    /// insert among the oldest rows) leaves compaction and enters
    /// exponential backoff — the next `2^failures` mutations (capped at
    /// 64) only decrement a cooldown, keeping mutation O(1) — and is then
    /// retried, so pending deltas are never silently dropped; success
    /// (auto or explicit) clears the backoff.
    fn maybe_auto_merge(&mut self, schema: &str, table: &str) {
        let tk = Self::table_key(schema, table);
        let threshold = self.table_merge_threshold(schema, table);
        if threshold == 0 {
            self.compacting.remove(&tk);
            return;
        }
        if let Some(b) = self.auto_merge_backoff.get_mut(&tk) {
            if b.cooldown > 0 {
                b.cooldown -= 1;
                return;
            }
        }
        let stop = threshold / 4;
        if self.pending_delta_rows(schema, table) >= threshold {
            self.compacting.insert(tk.clone());
        }
        if !self.compacting.contains(&tk) {
            return;
        }
        let step = (threshold / 4).max(MIN_AUTO_MERGE_STEP);
        match self.merge_deltas_step(schema, table, step) {
            Ok(_) => {
                if self.pending_delta_rows(schema, table) <= stop {
                    self.compacting.remove(&tk);
                }
            }
            Err(_) => {
                self.compacting.remove(&tk);
                let b = self.auto_merge_backoff.entry(tk).or_default();
                b.failures += 1;
                b.cooldown = 1u32 << b.failures.min(6);
            }
        }
    }

    /// Drops a registered column (plain or segmented): its base storage,
    /// strategy metadata, pending deltas and any in-flight migration are
    /// discarded, and the table's failed-merge backoff is released — a
    /// poisoned column (say, an out-of-domain insert that latched the
    /// auto-merge into backoff) stops blocking the table the moment it is
    /// gone, instead of the backoff surviving until an unrelated success.
    /// Returns whether the column existed. The table's deleted-oid list
    /// is untouched (deletions are rows, not cells).
    pub fn drop_column(&mut self, schema: &str, table: &str, column: &str) -> bool {
        let key = Self::key(schema, table, column);
        let tk = Self::table_key(schema, table);
        if let Some(m) = self.migrations.remove(&key) {
            // The builder's output has no home any more; reap the thread.
            let _ = m.handle.join();
        }
        let had_plain = self.bats.remove(&key).is_some();
        let had_seg = self.segmented.remove(&key).is_some();
        if !(had_plain || had_seg) {
            return false;
        }
        self.seg_meta.remove(&key);
        if let Some(d) = self.deltas.remove(&key) {
            let n = d.insert_heads.len() + d.update_heads.len();
            if n > 0 {
                if let Some(p) = self.pending_rows.get_mut(&tk) {
                    *p = p.saturating_sub(n);
                    if *p == 0 {
                        self.pending_rows.remove(&tk);
                    }
                }
            }
        }
        self.auto_merge_backoff.remove(&tk);
        self.compacting.remove(&tk);
        true
    }
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
    use soc_core::model::AlwaysSplit;

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
        assert!(c
            .register_segmented_with_model("s", "t", "c", bat, 0.0, 1.0, Box::new(AlwaysSplit))
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
        // The rebuild runs on a builder thread; the old column serves
        // until the explicit barrier installs the new one.
        assert!(c.migration_in_progress("sys.T.v") || c.strategy_spec("sys.T.v").is_some());
        assert!(c.await_migrations().is_empty(), "rebuild must succeed");
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
    fn old_column_serves_reads_while_a_migration_builds() {
        let mut c = Catalog::new();
        let values: Vec<i64> = (0..4_000).map(|i| (i * 31) % 1000).collect();
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int(values),
            0.0,
            1000.0,
            StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(128, 512),
        )
        .unwrap();
        c.set_strategy("sys.T.v", StrategyKind::GdRepl).unwrap();
        // Whether or not the builder has finished yet, reads through the
        // catalog keep answering from a complete column (the old one
        // until install, the new one after) — never a gap, never a block
        // on the build.
        let packed = c.segmented("sys.T.v").unwrap().pack().unwrap();
        assert_eq!(packed.len(), 4_000);
        let n = c
            .segmented_mut("sys.T.v")
            .unwrap()
            .adapt(&Atom::Int(100), &Atom::Int(300))
            .unwrap();
        let _ = n; // adaptation on the serving column is allowed mid-build
        assert!(c.await_migrations().is_empty());
        assert!(!c.migration_in_progress("sys.T.v"));
        let seg = c.segmented("sys.T.v").unwrap();
        assert_eq!(seg.strategy_name(), "GD Repl");
        assert_eq!(seg.pack().unwrap().len(), 4_000);
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
        c.set_delta_merge_threshold(4);
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
        c.set_delta_merge_threshold(2);
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
        // Out of the registered domain: the staged rebuild must fail.
        c.insert_row("sys", "T", &[("v", Atom::Int(500))]);
        assert!(matches!(
            c.merge_deltas("sys", "T"),
            Err(CatalogError::Bpm(_))
        ));
        assert_eq!(c.pending_delta_rows("sys", "T"), 1, "deltas kept");
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 50);
        // The auto-trigger gives up after one failed attempt instead of
        // re-trying the rebuild on every subsequent mutation.
        c.set_delta_merge_threshold(1);
        c.insert_row("sys", "T", &[("v", Atom::Int(1))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(2))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 3);
        // Raw-model columns have no spec to rebuild under: typed error.
        let mut raw = Catalog::new();
        raw.register_segmented_with_model(
            "s",
            "t",
            "c",
            Bat::dense_int((0..10).collect()),
            0.0,
            100.0,
            Box::new(AlwaysSplit),
        )
        .unwrap();
        raw.insert_row("s", "t", &[("c", Atom::Int(5))]);
        assert!(matches!(
            raw.merge_deltas("s", "t"),
            Err(CatalogError::NoSpec(_))
        ));
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
        c.set_delta_merge_threshold(1);
        // The poisoned insert: out of the registered domain, so every
        // merge attempt fails until the row is compensated.
        let bad = c.insert_row("sys", "T", &[("v", Atom::Int(500))]);
        assert_eq!(
            c.pending_delta_rows("sys", "T"),
            1,
            "failed merge keeps deltas"
        );

        // First failure → cooldown 2: the next two mutations only tick
        // the clock (no rebuild attempt, so the pending count grows).
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
    fn snapshot_reads_see_pending_deltas_without_merging() {
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
        let b = c.insert_row("sys", "T", &[("v", Atom::Int(22))]);
        c.update_value("sys", "T", "v", 0, Atom::Int(33));
        c.update_value("sys", "T", "v", 0, Atom::Int(44)); // later update wins
        c.update_value("sys", "T", "v", b, Atom::Int(23)); // update of an insert
        c.delete_row("sys", "T", 1);
        assert!(c.pending_delta_rows("sys", "T") > 0, "nothing merged yet");

        // Expected logical rows after the (not yet run) merge.
        let mut expect: BTreeMap<Oid, i64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| (i as Oid, *v))
            .collect();
        expect.insert(0, 44);
        expect.insert(b, 23);
        expect.remove(&1);

        let snap = c.snapshot_collect("sys.T.v", 0.0, 49.0).unwrap();
        let got: BTreeMap<Oid, i64> = match snap.tail() {
            Tail::Int(vals) => snap
                .head_oids()
                .into_iter()
                .zip(vals.iter().copied())
                .collect(),
            other => panic!("unexpected tail {other:?}"),
        };
        assert_eq!(got, expect, "snapshot read ≡ merged read, before merging");
        assert_eq!(
            c.snapshot_count("sys.T.v", 0.0, 49.0).unwrap(),
            expect.len() as u64
        );
        // Sub-range probes agree with the expected multiset too.
        for (lo, hi) in [(0.0, 10.0), (20.0, 25.0), (44.0, 44.0), (45.0, 49.0)] {
            let want = expect
                .values()
                .filter(|v| lo <= **v as f64 && **v as f64 <= hi)
                .count() as u64;
            assert_eq!(c.snapshot_count("sys.T.v", lo, hi).unwrap(), want);
        }
        // The base column is untouched: pending rows still pending, and
        // after the real merge the answers do not move.
        assert!(c.pending_delta_rows("sys", "T") > 0);
        c.merge_deltas("sys", "T").unwrap();
        assert_eq!(
            c.snapshot_count("sys.T.v", 0.0, 49.0).unwrap(),
            expect.len() as u64
        );
        // Errors are typed.
        c.register_bat("sys", "T", "plain", Bat::dense_int(vec![1]));
        assert!(matches!(
            c.snapshot_count("sys.T.plain", 0.0, 1.0),
            Err(CatalogError::NotSegmented(_))
        ));
        assert!(matches!(
            c.snapshot_count("sys.T.nope", 0.0, 1.0),
            Err(CatalogError::UnknownColumn(_))
        ));
    }

    #[test]
    fn a_pending_atom_the_tail_cannot_hold_fails_the_snapshot_read() {
        // The domain holds 0, so a `Str` that landed as a made-up 0 would
        // be counted; the merge refuses the same row.
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
        let mismatch = |e: &CatalogError| {
            matches!(e, CatalogError::Bpm(BpmError::Bat(source))
                if *source == BatError::TypeMismatch { expected, got })
        };
        assert!(c
            .snapshot_count("sys.T.v", 0.0, 0.0)
            .is_err_and(|e| mismatch(&e)));
        assert!(c
            .snapshot_collect("sys.T.v", 0.0, 99.0)
            .is_err_and(|e| mismatch(&e)));
        assert!(matches!(
            c.merge_deltas("sys", "T"),
            Err(CatalogError::MalformedDelta { source, .. })
                if source == BatError::TypeMismatch { expected, got }
        ));
    }

    #[test]
    fn merge_deltas_step_folds_oldest_rows_first() {
        let mut c = Catalog::new();
        c.set_delta_merge_threshold(0); // drive the steps by hand
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..50).collect()),
            0.0,
            200.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        let mut oids = Vec::new();
        for i in 0..10 {
            oids.push(c.insert_row("sys", "T", &[("v", Atom::Int(100 + i))]));
        }
        c.delete_row("sys", "T", 3);
        assert_eq!(c.pending_delta_rows("sys", "T"), 11);

        // Step 1: the four oldest pending rows are oid 3 (the deletion)
        // and the first three inserts.
        let r = c.merge_deltas_step("sys", "T", 4).unwrap();
        assert_eq!((r.inserted, r.deleted), (3, 1));
        assert_eq!(c.pending_delta_rows("sys", "T"), 7);
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 52);
        // The overlay still answers for the retained rows.
        assert_eq!(c.snapshot_count("sys.T.v", 100.0, 200.0).unwrap(), 10);

        // Remaining steps drain the rest; a step past the backlog is a
        // clean no-op.
        while c.pending_delta_rows("sys", "T") > 0 {
            c.merge_deltas_step("sys", "T", 4).unwrap();
        }
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 59);
        assert_eq!(
            c.merge_deltas_step("sys", "T", 4).unwrap(),
            MergeReport::default()
        );
        assert_eq!(c.snapshot_count("sys.T.v", 100.0, 200.0).unwrap(), 10);
    }

    #[test]
    fn auto_merge_compacts_incrementally_with_hysteresis() {
        let mut c = Catalog::new();
        // threshold 1024 → stop watermark 256, step 256.
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
        c.set_table_merge_threshold("sys", "T", 1024);
        assert_eq!(c.table_merge_threshold("sys", "T"), 1024);
        for i in 0..1023 {
            c.insert_row("sys", "T", &[("v", Atom::Int(1000 + i))]);
        }
        assert_eq!(c.pending_rows("sys", "T"), 1023, "below the threshold");
        // Crossing the threshold folds one bounded step, not the backlog.
        c.insert_row("sys", "T", &[("v", Atom::Int(5000))]);
        let after_first = c.pending_rows("sys", "T");
        assert_eq!(after_first, 1024 - 256, "one 256-row step folded");
        // Hysteresis: still above the stop watermark, so mutations below
        // the threshold keep folding until the backlog drains to ≤ 256.
        let mut steps = 0;
        while c.pending_rows("sys", "T") > 256 {
            c.insert_row("sys", "T", &[("v", Atom::Int(6000 + steps))]);
            steps += 1;
            assert!(steps < 100, "compaction must converge");
        }
        assert!(c.pending_rows("sys", "T") <= 256);
        // Once drained below the watermark, mutations stop folding.
        let resting = c.pending_rows("sys", "T");
        c.insert_row("sys", "T", &[("v", Atom::Int(9000))]);
        assert_eq!(c.pending_rows("sys", "T"), resting + 1, "compactor idle");
        // Nothing was lost across the incremental folds.
        let total = c.segmented("sys.T.v").unwrap().rows() as usize + c.pending_rows("sys", "T");
        assert_eq!(total, 100 + 1024 + steps as usize + 1);
    }

    #[test]
    fn dropping_the_poisoned_column_releases_the_merge_backoff() {
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
        c.set_delta_merge_threshold(1);
        // Poison the column: every merge attempt fails, the backoff
        // ladder climbs.
        c.insert_row("sys", "T", &[("v", Atom::Int(500))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(10))]); // cooldown tick
        c.insert_row("sys", "T", &[("v", Atom::Int(11))]); // cooldown tick
        c.insert_row("sys", "T", &[("v", Atom::Int(12))]); // retry: fails again
        assert_eq!(c.pending_delta_rows("sys", "T"), 4);
        assert!(
            c.auto_merge_backoff.contains_key("sys.T"),
            "backoff latched"
        );

        // The fix under test: dropping the poisoned column releases the
        // table's backoff (before, only a successful merge reset it).
        assert!(c.drop_column("sys", "T", "v"));
        assert!(!c.auto_merge_backoff.contains_key("sys.T"), "drop resets");
        assert_eq!(c.pending_delta_rows("sys", "T"), 0, "its deltas are gone");
        assert!(!c.drop_column("sys", "T", "v"), "already dropped");

        // Re-register clean: the very next mutation merges immediately
        // instead of sitting out the surviving cooldown.
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
        c.insert_row("sys", "T", &[("v", Atom::Int(13))]);
        assert_eq!(c.pending_delta_rows("sys", "T"), 0, "merged, no cooldown");
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 51);

        // Re-registering over a poisoned column (without a drop) also
        // releases the backoff — the regression twin of the drop path.
        c.insert_row("sys", "T", &[("v", Atom::Int(600))]); // poison again
        assert!(c.auto_merge_backoff.contains_key("sys.T"));
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..51).collect()),
            0.0,
            1000.0,
            StrategySpec::new(StrategyKind::ApmSegm),
        )
        .unwrap();
        assert!(
            !c.auto_merge_backoff.contains_key("sys.T"),
            "re-register resets"
        );
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
        c.set_delta_merge_threshold(100);
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
        let ins = c.delta_bat("sys.P.ra", 1, &like).unwrap();
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
        let upd = c.delta_bat("sys.P.ra", 2, &like).unwrap();
        assert_eq!(upd.head_oids(), vec![1]);
        assert_eq!(upd.tail(), &Tail::Dbl(vec![9.0].into()));
        let dbat = c.dbat("sys", "P").unwrap();
        assert_eq!(dbat.tail(), &Tail::Oid(vec![0].into()));
        // Untouched columns still produce empty deltas.
        assert!(c.delta_bat("sys.P.nope", 1, &like).unwrap().is_empty());
    }
}
