//! The engine catalog: one entry per column and one per table, the state
//! MonetDB's delta scheme (Figure 1) keeps. A column entry holds its base
//! — a plain positional BAT for `sql.bind`, or a [`SegmentedBat`] the
//! segment optimizer consults (Section 3.1's meta-index at the MAL level)
//! — its pending inserts (`sql.bind` access 1) and updates (access 2),
//! and the two delta bats those binds hand out. A table entry holds the
//! ids of its columns, its deleted oids (`sql.bind_dbat`), its next
//! fresh oid, and its auto-merge threshold and retry state. The paper
//! targets "data warehouse applications with few large bulk loads and
//! prevailing read-only queries" (Section 7), which is exactly MonetDB's
//! delta scheme: updates accumulate beside the immutable base column.
//!
//! Entries are keyed by their names — a column by its `(schema, table,
//! column)` triple, never by the three joined, which two columns can
//! share — and each gets a dense id when its name is first seen. A plan
//! binds by names, and the catalog resolves each name it is handed once
//! per catalog state (a registration starts a new one), so a statement's
//! binds, `bpm.take` and the segment optimizer look their columns up by
//! comparing the plan's shared name strings, with no key joined or hashed.
//!
//! A segmented column is registered with a [`StrategySpec`] — the one
//! physical-design currency shared with the simulator and the storage
//! layer — so SQL queries can drive any of the nine strategy kinds, not
//! just segmentation. It is served by the epoch writer of `soc-core`,
//! which the catalog steps itself: [`Catalog::set_strategy`] (the `ALTER
//! COLUMN … SET STRATEGY` DDL hook) is the writer's migration, which keeps
//! the rows and the reorganization bill and charges the rewrite.
//!
//! Deltas do not accumulate forever: [`Catalog::merge_deltas`] folds a
//! table's pending inserts/updates/deletes into the base columns its entry
//! lists. A segmented column hands the writer one delta batch, folded
//! into the pieces that own its rows, so the organization the queries
//! built survives the merge and only the touched pieces are charged as
//! reorganization. Plain columns are positional and are rebuilt. Once a
//! table's pending rows reach the threshold (global default, overridable
//! per table), the mutation that reached it merges the whole backlog.
//!
//! Pending deltas are read one way: as the compiled plan reads them, whose
//! `sql.subdelta`/`sql.projectdelta` merge the delta bats `sql.bind` hands
//! out (Figure 1's merge, fused). A merge and a checkpoint read them
//! through [`logical_rows`], the plan's own `sql.projectdelta` over delta
//! bats typed as `sql.bind` types them, so all three see the same rows.
//! A write that names no live row is not recorded.

use std::collections::HashMap;
use std::sync::Arc;

use soc_bat::{algebra, algebra::Atom, Bat, BatError, Head, Oid, Tail};
use soc_core::{StrategyKind, StrategySpec};

use crate::bpm::{BpmError, SegmentedBat, StagedFold};

/// Typed catalog failures (no panics on query paths).
#[derive(Debug)]
pub enum CatalogError {
    /// No column registered under this key.
    UnknownColumn(String),
    /// The column exists but is not segmented (no strategy to change).
    NotSegmented(String),
    /// The requested strategy name is not a known [`StrategyKind`] token.
    UnknownStrategy(String),
    /// A segmented column refused a registration, a pending value or a
    /// strategy switch.
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
            CatalogError::Bpm(e) => write!(f, "segmented column: {e}"),
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
#[derive(Debug, Default)]
pub(crate) struct ColumnDeltas {
    /// Appended rows: explicit (oid, value) pairs past the base, their
    /// oids ascending (each is the table's next fresh oid).
    pub(crate) insert_heads: Vec<Oid>,
    pub(crate) insert_vals: Vec<Atom>,
    /// In-place updates of live rows: (oid, new value), one per row.
    pub(crate) update_heads: Vec<Oid>,
    pub(crate) update_vals: Vec<Atom>,
}

impl ColumnDeltas {
    /// Records that row `oid` is to hold `value`. A row keeps one pending
    /// update, the later value replacing the earlier, so a select merging
    /// the updates sees the value a merge would fold. The search for the
    /// row's earlier update is linear in the pending updates, so `n`
    /// updates of distinct rows between merges cost O(n²); no workload
    /// stacks many (`sql_session` writes no update).
    fn update(&mut self, oid: Oid, value: Atom) {
        match self.update_heads.iter().position(|&h| h == oid) {
            Some(i) => self.update_vals[i] = value,
            None => {
                self.update_heads.push(oid);
                self.update_vals.push(value);
            }
        }
    }

    /// The oids the pending updates and the table's `deleted` list name
    /// outside the pending inserts, ascending: the base rows a merge
    /// replaces or removes.
    fn named_base_rows(&self, deleted: &[Oid]) -> Vec<Oid> {
        let mut named: Vec<Oid> = deleted.iter().chain(&self.update_heads).copied().collect();
        named.retain(|oid| self.insert_heads.binary_search(oid).is_err());
        named.sort_unstable();
        named.dedup();
        named
    }
}

/// Materializes delta atoms as a bat typed like the base column — the one
/// place a pending [`Atom`] becomes a typed value. `Int`, `Dbl` and `Oid`
/// atoms coerce into each other's tails; an atom the tail type cannot hold
/// (`Str`/`Nil` into a numeric tail, a negative `Int` or a `Dbl` into an
/// `:oid` tail) is [`CatalogError::MalformedDelta`], never a made-up
/// `0`/`NaN` row.
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
        Tail::Int(_) => land(vals, expected, |a| match a {
            Atom::Int(v) => Some(*v),
            Atom::Oid(v) => Some(*v as i64),
            Atom::Dbl(v) => Some(*v as i64),
            Atom::Str(_) | Atom::Nil => None,
        })
        .map(Tail::Int),
        Tail::Dbl(_) => land(vals, expected, Atom::as_f64).map(Tail::Dbl),
        Tail::Oid(_) => land(vals, expected, |a| match a {
            Atom::Oid(v) => Some(*v),
            Atom::Int(v) => u64::try_from(*v).ok(),
            Atom::Dbl(_) | Atom::Str(_) | Atom::Nil => None,
        })
        .map(Tail::Oid),
        Tail::Str(_) => Ok(Tail::Str(Arc::new(
            vals.iter()
                .map(|a| match a {
                    Atom::Str(s) => s.to_string(),
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

/// A column's logical rows under its pending writes: `base`'s rows in base
/// order, then the pending inserts, with the pending updates applied and
/// the table's `deleted` oids removed — the rows a plan reads, in the
/// order it reads them, merged by the plan's own `sql.projectdelta`
/// ([`algebra::project_delta`]) over delta bats typed by [`atoms_to_bat`].
/// A merge folds these rows and a checkpoint saves them. Only live rows'
/// atoms are typed, so a deleted row, or an update of a row the column
/// does not hold, fails nothing. The head is void when the oids are
/// consecutive. The report counts this column's insert entries, its
/// updates of live rows and the rows the deletions remove.
pub(crate) fn logical_rows(
    key: &str,
    base: &Bat,
    d: &ColumnDeltas,
    deleted: &[Oid],
) -> Result<(Bat, MergeReport), CatalogError> {
    let live = |oid: &Oid| deleted.binary_search(oid).is_err();
    let mut oids: Vec<Oid> = (0..base.len()).map(|i| base.head_at(i)).collect();
    oids.retain(live);
    let mut held = oids.clone();
    held.sort_unstable();
    let held = |oid: &Oid| held.binary_search(oid).is_ok();
    let like = base.empty_like();
    let typed = |heads: &[Oid], vals: &[Atom], keep: &dyn Fn(&Oid) -> bool| {
        let (heads, vals): (Vec<Oid>, Vec<Atom>) = heads
            .iter()
            .zip(vals)
            .filter(|(oid, _)| keep(oid))
            .map(|(oid, a)| (*oid, a.clone()))
            .unzip();
        atoms_to_bat(key, &heads, &vals, &like)
    };
    // An insert repeating a base oid is shadowed, as `kunion` shadows it.
    let inserts = typed(&d.insert_heads, &d.insert_vals, &|o| live(o) && !held(o))?;
    let inserted = inserts.head_oids();
    let is_row = |o: &Oid| live(o) && (held(o) || inserted.binary_search(o).is_ok());
    let updates = typed(&d.update_heads, &d.update_vals, &is_row)?;
    let report = MergeReport {
        columns: 1,
        inserted: d.insert_heads.len(),
        updated: updates.len(),
        deleted: base.len() - oids.len() + d.insert_heads.iter().filter(|o| !live(o)).count(),
    };
    oids.extend(inserted);
    let malformed = |source| CatalogError::MalformedDelta {
        key: key.to_owned(),
        source,
    };
    let probe =
        Bat::new(Head::from_oids(oids.clone()), Tail::Oid(oids.into())).map_err(malformed)?;
    let rows = algebra::project_delta(&probe, base, &inserts, &updates).map_err(malformed)?;
    Ok((rows, report))
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MergeBackoff {
    /// Consecutive failed auto-merge attempts.
    failures: u32,
    /// Delta mutations to sit out before the next retry
    /// (`2^failures`, capped at 64).
    cooldown: u32,
}

/// A column's rows: positional, or organized under a strategy.
#[derive(Debug)]
pub(crate) enum Base {
    Plain(Bat),
    Segmented(SegmentedBat),
}

impl Base {
    /// Whether the base holds row `oid`: read off a plain column's head (a
    /// binary search, linear when a registered head is unsorted), or off a
    /// segmented column's pieces.
    fn holds(&self, oid: Oid) -> bool {
        match self {
            Base::Plain(bat) => match bat.head() {
                Head::Void { base } => (*base..*base + bat.len() as Oid).contains(&oid),
                Head::Oids(heads) => {
                    heads.binary_search(&oid).is_ok()
                        || (!heads.is_sorted() && heads.contains(&oid))
                }
            },
            Base::Segmented(seg) => seg.rows_of(&[oid]).is_ok_and(|b| !b.is_empty()),
        }
    }
}

/// [`Column::memo`]'s slot for the insert and the update delta bat.
const INSERTS: usize = 0;
const UPDATES: usize = 1;

/// A column's dense id: its slot in the catalog's column list, handed out
/// when its name is first seen (by a registration or a pending write) and
/// kept for the life of the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ColumnId(u32);

/// A table's dense id: its slot in the catalog's table list, likewise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableId(u32);

/// One column: its names, its base, its pending deltas, and the delta bats
/// `sql.bind(…, 1|2)` hands out. A column named only by a pending write
/// has no base; its deltas are inert — no bind reads them, no merge folds
/// them, no checkpoint saves them, the table's pending rows leave them
/// out — until the column is registered.
#[derive(Debug)]
pub(crate) struct Column {
    /// Its own name within its table.
    pub(crate) name: Arc<str>,
    pub(crate) table: TableId,
    /// `schema.table.column`: how MAL text and the `bpm` calls name the
    /// column, and what its checkpoint files and errors are filed under.
    /// Not a unique name: `P` + `x.c` and `P.x` + `c` join alike.
    pub(crate) key: Arc<str>,
    pub(crate) base: Option<Base>,
    pub(crate) deltas: ColumnDeltas,
    /// The insert and the update bat, each built once per pending state,
    /// so every later bind of it is a reference-count bump. A write to
    /// the slot's deltas, a merge and a registration drop it. A delta
    /// whose atoms the tail cannot hold is never stored: every bind of it
    /// fails anew.
    memo: [Option<Bat>; 2],
}

/// One table: its names, its columns and the state the delta scheme keeps
/// per table.
#[derive(Debug, Default)]
pub(crate) struct Table {
    pub(crate) schema: Arc<str>,
    pub(crate) name: Arc<str>,
    /// Its columns, ascending by name.
    pub(crate) columns: Vec<ColumnId>,
    /// Deleted row oids, ascending, each a row that was live when deleted
    /// and listed once.
    pub(crate) deleted: Vec<Oid>,
    /// Next fresh oid (rows appended so far + base).
    pub(crate) next_oid: Oid,
    /// The `ALTER TABLE … SET MERGE THRESHOLD` override; without one the
    /// table merges at [`DEFAULT_DELTA_MERGE_THRESHOLD`].
    pub(crate) merge_threshold: Option<usize>,
    /// A failed automatic merge (e.g. an out-of-domain insert) backs off
    /// exponentially in *mutations* rather than latching forever, so the
    /// pending deltas are retried — and never silently dropped — once
    /// the blocking mutation is compensated (say, the offending row
    /// deleted).
    backoff: MergeBackoff,
    /// The deletions bat `sql.bind_dbat` hands out, built once per
    /// deletion state.
    dbat: Option<Bat>,
}

impl Table {
    /// `schema.table`, as a manifest and an export name it.
    pub(crate) fn key(&self) -> String {
        format!("{}.{}", self.schema, self.name)
    }

    /// Pending delta rows: the entries of its columns that have a base
    /// plus its deleted oids.
    fn pending(&self, columns: &[Column]) -> usize {
        let registered = self.columns.iter().filter_map(|id| columns.get(id.slot()));
        let entries = registered.filter(|c| c.base.is_some()).map(|c| &c.deltas);
        let entries: usize = entries
            .map(|d| d.insert_heads.len() + d.update_heads.len())
            .sum();
        entries + self.deleted.len()
    }
}

impl ColumnId {
    fn slot(self) -> usize {
        self.0 as usize
    }
}

impl TableId {
    fn slot(self) -> usize {
        self.0 as usize
    }
}

/// The most names of one kind [`Resolved`] holds; resolving one more
/// starts it over.
const RESOLVED_MAX: usize = 32;

/// The names plans resolved in this catalog state, each beside the id it
/// names. A compiled plan's names are strings shared by every statement of
/// its shape (see `crate::sql`), so finding one costs a pointer compare
/// per part; any other string compares by content. A registration — a new
/// column or a replaced base — starts a new catalog state and empties it,
/// and a restored catalog is a new catalog.
#[derive(Debug, Default)]
struct Resolved {
    columns: Vec<([Arc<str>; 3], ColumnId)>,
    tables: Vec<([Arc<str>; 2], TableId)>,
    keys: Vec<([Arc<str>; 1], ColumnId)>,
}

/// The id `memo` holds for `names`: a pointer compare per part when the
/// strings are the ones it holds, a content compare otherwise.
fn recall<const N: usize, I: Copy>(
    memo: &[([Arc<str>; N], I)],
    names: [&Arc<str>; N],
) -> Option<I> {
    let same = |a: &Arc<str>, b: &Arc<str>| Arc::ptr_eq(a, b) || a == b;
    let hit = memo
        .iter()
        .find(|(held, _)| held.iter().zip(names).all(|(a, b)| same(a, b)));
    hit.map(|&(_, id)| id)
}

/// Remembers that `names` resolve to `id`.
fn remember<const N: usize, I>(memo: &mut Vec<([Arc<str>; N], I)>, names: [&Arc<str>; N], id: I) {
    if memo.len() == RESOLVED_MAX {
        memo.clear();
    }
    memo.push((names.map(Arc::clone), id));
}

/// Named storage the MAL interpreter binds against.
///
/// Columns and tables are keyed by their names — a column by its
/// `(schema, table, column)` triple — and held in lists indexed by their
/// dense ids. Fields are crate-visible for the checkpoint module
/// ([`Catalog::save_all`]/[`Catalog::load_all`] live in
/// `crate::checkpoint`).
#[derive(Debug, Default)]
pub struct Catalog {
    /// Per [`ColumnId`].
    pub(crate) columns: Vec<Column>,
    /// Per [`TableId`].
    pub(crate) tables: Vec<Table>,
    /// Schema name → table name → id.
    names: HashMap<Arc<str>, HashMap<Arc<str>, TableId>>,
    resolved: Resolved,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Column `id`.
    pub(crate) fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.slot()]
    }

    /// Table `id`.
    pub(crate) fn table(&self, id: TableId) -> &Table {
        &self.tables[id.slot()]
    }

    /// The id of table `schema.table`.
    pub(crate) fn table_id(&self, schema: &str, table: &str) -> Option<TableId> {
        self.names.get(schema)?.get(table).copied()
    }

    /// The id of column `column` of table `t`.
    fn column_in(&self, t: TableId, column: &str) -> Option<ColumnId> {
        let ids = &self.table(t).columns;
        let at = ids.binary_search_by(|&id| (*self.column(id).name).cmp(column));
        at.ok().map(|at| ids[at])
    }

    /// The id of column `schema.table.column`.
    pub(crate) fn column_id(&self, schema: &str, table: &str, column: &str) -> Option<ColumnId> {
        self.column_in(self.table_id(schema, table)?, column)
    }

    /// The registered column the joined key `schema.table.column` names:
    /// the one cut of `key` at two of its dots that names one. None when no
    /// cut or more than one does — `sys.P.x.c` when both `P`'s column
    /// `x.c` and `P.x`'s column `c` are registered.
    pub(crate) fn key_id(&self, key: &str) -> Option<ColumnId> {
        let mut found = None;
        for (i, _) in key.match_indices('.') {
            let (schema, rest) = (&key[..i], &key[i + 1..]);
            for (j, _) in rest.match_indices('.') {
                let id = self.column_id(schema, &rest[..j], &rest[j + 1..]);
                if let Some(id) = id.filter(|&id| self.column(id).base.is_some()) {
                    if found.replace(id).is_some() {
                        return None;
                    }
                }
            }
        }
        found
    }

    /// [`Self::column_id`] of the names a plan holds, recalled when this
    /// catalog state resolved them before.
    pub(crate) fn recall_column(&self, names: [&Arc<str>; 3]) -> Option<ColumnId> {
        let [schema, table, column] = names;
        recall(&self.resolved.columns, names).or_else(|| self.column_id(schema, table, column))
    }

    /// [`Self::recall_column`], remembering what it resolves.
    pub(crate) fn resolve_column(&mut self, names: [&Arc<str>; 3]) -> Option<ColumnId> {
        if let Some(id) = recall(&self.resolved.columns, names) {
            return Some(id);
        }
        let id = self.column_id(names[0], names[1], names[2])?;
        remember(&mut self.resolved.columns, names, id);
        Some(id)
    }

    /// [`Self::table_id`] of the names a plan holds, resolved once per
    /// catalog state as [`Self::resolve_column`] resolves a column.
    pub(crate) fn resolve_table(&mut self, names: [&Arc<str>; 2]) -> Option<TableId> {
        if let Some(t) = recall(&self.resolved.tables, names) {
            return Some(t);
        }
        let t = self.table_id(names[0], names[1])?;
        remember(&mut self.resolved.tables, names, t);
        Some(t)
    }

    /// The column a plan's `bpm.take` names by the joined key `key`: the
    /// column whose own key string it is (the segment optimizer hands out
    /// the catalog's), or else [`Self::key_id`]. Resolved once per catalog
    /// state, and recalled by the string's address alone, which the
    /// remembered copy keeps from being reused.
    pub(crate) fn resolve_key(&mut self, key: &Arc<str>) -> Option<ColumnId> {
        let held = self
            .resolved
            .keys
            .iter()
            .find(|([k], _)| Arc::ptr_eq(k, key));
        if let Some(&(_, id)) = held {
            return Some(id);
        }
        let own = self.columns.iter().position(|c| Arc::ptr_eq(&c.key, key));
        let id = own
            .map(|at| ColumnId(at as u32))
            .or_else(|| self.key_id(key))?;
        remember(&mut self.resolved.keys, [key], id);
        Some(id)
    }

    /// Segmented column `id` with its shared key.
    pub(crate) fn segmented_with_key(&self, id: ColumnId) -> Option<(&Arc<str>, &SegmentedBat)> {
        let c = self.column(id);
        match &c.base {
            Some(Base::Segmented(seg)) => Some((&c.key, seg)),
            _ => None,
        }
    }

    /// The id of table `schema.table`, made when absent.
    fn table_or_new(&mut self, schema: &str, table: &str) -> TableId {
        if let Some(id) = self.table_id(schema, table) {
            return id;
        }
        let id = TableId(self.tables.len() as u32);
        let (schema, name): (Arc<str>, Arc<str>) = (schema.into(), table.into());
        let tables = self.names.entry(Arc::clone(&schema)).or_default();
        tables.insert(Arc::clone(&name), id);
        self.tables.push(Table {
            schema,
            name,
            ..Table::default()
        });
        id
    }

    /// The entry of the table a `schema.table` key cut at its first dot
    /// names (a checkpoint manifest's), made when absent.
    pub(crate) fn table_of_key(&mut self, key: &str) -> Option<&mut Table> {
        let (schema, table) = key.split_once('.')?;
        let t = self.table_or_new(schema, table);
        Some(&mut self.tables[t.slot()])
    }

    /// The id of column `column` of table `t`, made and listed in the
    /// table's entry when absent.
    fn column_or_new(&mut self, t: TableId, column: &str) -> ColumnId {
        if let Some(id) = self.column_in(t, column) {
            return id;
        }
        let id = ColumnId(self.columns.len() as u32);
        let table = self.table(t);
        let key = format!("{}.{}.{column}", table.schema, table.name).into();
        self.columns.push(Column {
            name: column.into(),
            table: t,
            key,
            base: None,
            deltas: ColumnDeltas::default(),
            memo: Default::default(),
        });
        let Catalog {
            columns, tables, ..
        } = self;
        let ids = &mut tables[t.slot()].columns;
        let at = ids.partition_point(|&c| *columns[c.slot()].name < *column);
        ids.insert(at, id);
        id
    }

    /// Installs `base` as column `schema.table.column`. Its rows keep
    /// fresh oids clear of them, deltas recorded against the column
    /// before now count, and a backed-off auto-merge of the table gets a
    /// fresh attempt: the table's content changed. A pending update of a
    /// row neither `base` nor a pending insert holds is dropped, as a
    /// merge would drop it ([`logical_rows`]), so no select returns it
    /// meanwhile. The catalog enters a new state: names resolve anew.
    fn register(&mut self, schema: &str, table: &str, column: &str, base: Base, rows: usize) {
        let t = self.table_or_new(schema, table);
        let id = self.column_or_new(t, column);
        let c = &mut self.columns[id.slot()];
        let d = &mut c.deltas;
        let row = |oid: &Oid| base.holds(*oid) || d.insert_heads.binary_search(oid).is_ok();
        let updates = d.update_heads.drain(..).zip(d.update_vals.drain(..));
        (d.update_heads, d.update_vals) = updates.filter(|(oid, _)| row(oid)).unzip();
        c.base = Some(base);
        c.memo = Default::default();
        let t = &mut self.tables[t.slot()];
        t.next_oid = t.next_oid.max(rows as Oid);
        t.backoff = MergeBackoff::default();
        self.resolved = Resolved::default();
    }

    /// Registers a plain (positional) column.
    pub fn register_bat(&mut self, schema: &str, table: &str, column: &str, bat: Bat) {
        let rows = bat.len();
        self.register(schema, table, column, Base::Plain(bat), rows);
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
        let rows = bat.len();
        let seg = SegmentedBat::from_spec(bat, domain_lo, domain_hi_excl, &spec)?;
        self.register(schema, table, column, Base::Segmented(seg), rows);
        Ok(())
    }

    /// Re-organizes a live segmented column under a different strategy
    /// kind: its writer rebuilds the rows (oids intact) under the new
    /// spec, adding the full-column rewrite to the column's bill
    /// (adaptation counters restart). This is what the `ALTER COLUMN … SET
    /// STRATEGY` DDL and the `bpm.setStrategy` MAL operator execute;
    /// pending deltas are untouched. `key` is the joined
    /// `schema.table.column` ([`Self::segmented`]).
    ///
    /// # Errors
    /// `CatalogError::NotSegmented` (or `UnknownColumn`) when `key` does
    /// not name a segmented column; `CatalogError::Bpm` with
    /// `BpmError::MigrationFailed` when the rebuild fails, in which case
    /// the column is left unchanged.
    pub fn set_strategy(&mut self, key: &str, kind: StrategyKind) -> Result<(), CatalogError> {
        let id = self.key_id(key);
        match id.and_then(|id| self.columns[id.slot()].base.as_mut()) {
            Some(Base::Segmented(seg)) => Ok(seg.set_strategy(kind)?),
            Some(Base::Plain(_)) => Err(CatalogError::NotSegmented(key.to_owned())),
            None => Err(CatalogError::UnknownColumn(key.to_owned())),
        }
    }

    /// The base of column `id`; `None` when nothing is registered under
    /// it.
    pub(crate) fn base(&self, id: ColumnId) -> Option<&Base> {
        self.column(id).base.as_ref()
    }

    /// The segmented column `id`.
    pub(crate) fn segmented_at(&self, id: ColumnId) -> Option<&SegmentedBat> {
        match self.base(id)? {
            Base::Segmented(seg) => Some(seg),
            Base::Plain(_) => None,
        }
    }

    /// Mutable access to the segmented column `id`.
    pub(crate) fn segmented_mut_at(&mut self, id: ColumnId) -> Option<&mut SegmentedBat> {
        match self.columns[id.slot()].base.as_mut()? {
            Base::Segmented(seg) => Some(seg),
            Base::Plain(_) => None,
        }
    }

    /// Looks up a plain column by its joined `schema.table.column` key
    /// ([`Self::segmented`]).
    pub fn bat(&self, key: &str) -> Option<&Bat> {
        match self.base(self.key_id(key)?)? {
            Base::Plain(bat) => Some(bat),
            Base::Segmented(_) => None,
        }
    }

    /// Looks up a segmented column by its joined `schema.table.column`
    /// key: `None` when the key's dots can be cut into registered names in
    /// more than one way (`sys.P.x.c` with both `P`.`x.c` and `P.x`.`c`
    /// registered), which binding by names tells apart.
    pub fn segmented(&self, key: &str) -> Option<&SegmentedBat> {
        self.segmented_at(self.key_id(key)?)
    }

    /// Mutable access to a segmented column (bpm adaptation), by its
    /// joined key ([`Self::segmented`]).
    pub fn segmented_mut(&mut self, key: &str) -> Option<&mut SegmentedBat> {
        let id = self.key_id(key)?;
        self.segmented_mut_at(id)
    }

    /// The spec a segmented column was registered (or last re-organized)
    /// with; `None` for plain columns.
    #[cfg(test)]
    pub(crate) fn strategy_spec(&self, key: &str) -> Option<StrategySpec> {
        self.segmented(key).map(|seg| seg.spec)
    }

    /// All registered keys (diagnostics).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<String> {
        let registered = self.columns.iter().filter(|c| c.base.is_some());
        let mut k: Vec<String> = registered.map(|c| c.key.to_string()).collect();
        k.sort();
        k
    }

    /// Table `schema.table`'s entry.
    #[cfg(test)]
    pub(crate) fn table_entry(&self, schema: &str, table: &str) -> Option<&Table> {
        self.table_id(schema, table).map(|t| self.table(t))
    }

    /// Column `schema.table.column`'s entry.
    #[cfg(test)]
    pub(crate) fn column_entry(&self, schema: &str, table: &str, column: &str) -> Option<&Column> {
        self.column_id(schema, table, column)
            .map(|id| self.column(id))
    }

    // ---- delta maintenance (MonetDB's update scheme) --------------------

    /// Appends a row: one `(column, value)` per column of the table.
    /// Returns the new row's oid. The base bats stay untouched; the row
    /// lives in the insert deltas until a (hypothetical) bulk merge.
    pub fn insert_row(&mut self, schema: &str, table: &str, row: &[(&str, Atom)]) -> Oid {
        let t = self.table_or_new(schema, table);
        let entry = &mut self.tables[t.slot()];
        entry.next_oid += 1;
        let oid = entry.next_oid - 1;
        for (column, value) in row {
            let id = self.column_or_new(t, column);
            let c = &mut self.columns[id.slot()];
            c.memo[INSERTS] = None;
            c.deltas.insert_heads.push(oid);
            c.deltas.insert_vals.push(value.clone());
        }
        self.maybe_auto_merge(t);
        oid
    }

    /// Records an in-place update of one column of row `oid`, replacing
    /// the row's pending update of that column, if any. A no-op unless the
    /// row is live: handed out, not deleted, and a pending insert or a row
    /// of the table's base.
    pub fn update_value(&mut self, schema: &str, table: &str, column: &str, oid: Oid, value: Atom) {
        let Some(t) = self
            .table_id(schema, table)
            .filter(|&t| self.is_live(t, oid))
        else {
            return;
        };
        let id = self.column_or_new(t, column);
        let c = &mut self.columns[id.slot()];
        c.memo[UPDATES] = None;
        c.deltas.update(oid, value);
        self.maybe_auto_merge(t);
    }

    /// Marks row `oid` deleted. A no-op unless the row is live (see
    /// [`Self::update_value`]), so a row is listed once, and an oid not yet
    /// handed out stays free for the insert that receives it.
    pub fn delete_row(&mut self, schema: &str, table: &str, oid: Oid) {
        let Some(t) = self
            .table_id(schema, table)
            .filter(|&t| self.is_live(t, oid))
        else {
            return;
        };
        let entry = &mut self.tables[t.slot()];
        let at = entry.deleted.partition_point(|&d| d <= oid);
        entry.deleted.insert(at, oid);
        entry.dbat = None;
        self.maybe_auto_merge(t);
    }

    /// Whether row `oid` of table `t` is live: handed out (below the next
    /// fresh oid), not pending-deleted, and a pending insert (insert heads
    /// ascend, so a binary search finds it) or a row of the base. The base
    /// is read off a plain column's head; a segmented column's pieces are
    /// scanned only when the table has no plain column.
    fn is_live(&self, t: TableId, oid: Oid) -> bool {
        let t = self.table(t);
        if oid >= t.next_oid || t.deleted.binary_search(&oid).is_ok() {
            return false;
        }
        let columns = || t.columns.iter().map(|&id| self.column(id));
        if columns().any(|c| c.deltas.insert_heads.binary_search(&oid).is_ok()) {
            return true;
        }
        let bases = || columns().filter_map(|c| c.base.as_ref());
        match bases().find(|b| matches!(b, Base::Plain(_))) {
            Some(plain) => plain.holds(oid),
            None => bases().any(|b| b.holds(oid)),
        }
    }

    /// The delta bat `sql.bind` returns for column `id` and `access` 1
    /// (inserts) or 2 (updates — the interpreter rejects every other code),
    /// typed like the base column: empty when nothing is pending. Built
    /// once per pending state ([`Column::memo`]); `None` when the column
    /// has no base.
    pub(crate) fn delta_bat(
        &mut self,
        id: ColumnId,
        access: i64,
    ) -> Option<Result<Bat, CatalogError>> {
        let slot = if access == 1 { INSERTS } else { UPDATES };
        let column = &mut self.columns[id.slot()];
        if let Some(b) = &column.memo[slot] {
            return Some(Ok(b.clone()));
        }
        let like = match column.base.as_ref()? {
            Base::Plain(bat) => bat.empty_like(),
            Base::Segmented(seg) => seg.empty_like(),
        };
        let d = &column.deltas;
        let (heads, vals) = match slot {
            INSERTS => (&d.insert_heads, &d.insert_vals),
            _ => (&d.update_heads, &d.update_vals),
        };
        let built = if heads.is_empty() {
            Ok(like)
        } else {
            atoms_to_bat(&column.key, heads, vals, &like)
        };
        if let Ok(b) = &built {
            column.memo[slot] = Some(b.clone());
        }
        Some(built)
    }

    /// The deletions bat `sql.bind_dbat` returns for table `t`: head void,
    /// tail = the deleted oids, ascending. Built once per deletion state
    /// ([`Table::dbat`]).
    pub(crate) fn dbat(&mut self, t: TableId) -> Bat {
        let t = &mut self.tables[t.slot()];
        let deleted = &t.deleted;
        t.dbat
            .get_or_insert_with(|| Bat::dense_oid(deleted.clone()))
            .clone()
    }

    // ---- delta merge ---------------------------------------------------

    /// Per-table override of the auto-merge threshold — what the
    /// `ALTER TABLE schema.table SET MERGE THRESHOLD n` DDL executes
    /// (0 disables auto-merging for this table only).
    pub fn set_table_merge_threshold(&mut self, schema: &str, table: &str, rows: usize) {
        let t = self.table_or_new(schema, table);
        self.tables[t.slot()].merge_threshold = Some(rows);
    }

    /// The auto-merge threshold in force for `schema.table`: the per-table
    /// override when one was set, the global default otherwise.
    pub fn table_merge_threshold(&self, schema: &str, table: &str) -> usize {
        let t = self.table_id(schema, table);
        t.and_then(|t| self.table(t).merge_threshold)
            .unwrap_or(DEFAULT_DELTA_MERGE_THRESHOLD)
    }

    /// Pending delta rows against `schema.table`: insert and update
    /// entries across its **registered** columns plus the deleted-oid
    /// list — what `SELECT`s over the table still see un-merged, exactly
    /// what [`Self::merge_deltas`] will fold, and the size the auto-merge
    /// threshold is compared against. Deltas recorded against
    /// never-registered column names are inert (no base column binds
    /// them) and deliberately excluded, so they can neither trigger nor
    /// survive-past a merge into a thrash loop. Read off the table's
    /// entry and those of its columns.
    pub fn pending_rows(&self, schema: &str, table: &str) -> usize {
        let t = self.table_id(schema, table);
        t.map_or(0, |t| self.table(t).pending(&self.columns))
    }

    /// Folds every pending delta of `schema.table` into its base columns —
    /// the merge MonetDB's delta scheme assumes happens at the next bulk
    /// load: inserts append, updates overwrite in place, deleted rows are
    /// physically removed: each column is left holding its logical rows,
    /// the rows a plan reads. A **segmented** column reads the base rows the
    /// pending updates and deletes name off its pieces and hands their
    /// change and the inserts to its writer as one delta batch: each row
    /// lands in the piece that owns it, no piece boundary moves, and the
    /// rewrite of the touched pieces is billed. Plain columns are
    /// positional and are rebuilt — with a void head while no row is
    /// missing, explicit oids once a delete has been folded in. Afterwards
    /// the table's delta bats and deletion list are empty. Only the
    /// table's own columns take part.
    ///
    /// Deltas recorded against column names that were never registered
    /// are inert (no base column ever binds them): they are neither
    /// merged nor counted by [`Self::pending_rows`], and they stay
    /// in place in case the column is registered later.
    ///
    /// The merge is all-or-nothing: every plain column is rebuilt, and
    /// every segmented column's batch checked against its domain, before
    /// the first fold, so a failure (an inserted value outside a
    /// column's registered domain, a NaN update, an atom the column's type
    /// cannot hold) leaves the catalog unchanged.
    ///
    /// # Errors
    /// `CatalogError::MalformedDelta` when a delta cannot be typed like
    /// its base column; `CatalogError::Bpm` when a segmented column
    /// cannot take a pending value (outside its domain, NaN).
    pub fn merge_deltas(&mut self, schema: &str, table: &str) -> Result<MergeReport, CatalogError> {
        match self.table_id(schema, table) {
            Some(t) => self.merge_table(t),
            None => Ok(MergeReport::default()),
        }
    }

    /// [`Self::merge_deltas`] of table `t`.
    fn merge_table(&mut self, t: TableId) -> Result<MergeReport, CatalogError> {
        let Catalog {
            columns, tables, ..
        } = self;
        let table = &mut tables[t.slot()];
        if table.pending(columns) == 0 {
            return Ok(MergeReport::default());
        }
        let own = columns.iter_mut().filter(|c| c.table == t);
        let report = merge_columns(own, &table.deleted)?;
        table.deleted.clear();
        table.dbat = None;
        table.backoff = MergeBackoff::default();
        Ok(report)
    }

    /// Auto-merge hook run after every delta mutation: once the table's
    /// pending rows reach the threshold in force, the mutation merges the
    /// whole backlog ([`Self::merge_deltas`]). A failed merge (e.g. an
    /// out-of-domain insert) enters exponential backoff — the next
    /// `2^failures` mutations (capped at 64) only decrement a cooldown —
    /// and is then retried, so pending deltas are never silently dropped;
    /// success (auto or explicit) clears the backoff.
    fn maybe_auto_merge(&mut self, t: TableId) {
        let table = &mut self.tables[t.slot()];
        let threshold = table
            .merge_threshold
            .unwrap_or(DEFAULT_DELTA_MERGE_THRESHOLD);
        if threshold == 0 {
            return;
        }
        if table.backoff.cooldown > 0 {
            table.backoff.cooldown -= 1;
            return;
        }
        if table.pending(&self.columns) >= threshold && self.merge_table(t).is_err() {
            let b = &mut self.tables[t.slot()].backoff;
            b.failures += 1;
            b.cooldown = 1u32 << b.failures.min(6);
        }
    }
}

/// Merges the pending deltas of `columns` — one table's, those without a
/// base left alone — and the table's `deleted` oids: every column is
/// staged before the first one changes, so a failure changes none.
fn merge_columns<'a>(
    columns: impl Iterator<Item = &'a mut Column>,
    deleted: &[Oid],
) -> Result<MergeReport, CatalogError> {
    let mut report = MergeReport::default();
    let mut staged: Vec<(StagedFold<'a>, &mut ColumnDeltas, &mut [Option<Bat>; 2])> = Vec::new();
    for column in columns {
        let Column {
            key,
            base,
            deltas,
            memo,
            ..
        } = column;
        let key = &**key;
        let bpm = |e| match e {
            BpmError::Bat(source) => CatalogError::MalformedDelta {
                key: key.to_owned(),
                source,
            },
            other => CatalogError::Bpm(other),
        };
        let (r, install): (MergeReport, StagedFold<'_>) = match base {
            None => continue,
            Some(Base::Plain(bat)) => {
                let (merged, r) = logical_rows(key, bat, deltas, deleted)?;
                (r, Box::new(move || *bat = merged))
            }
            Some(Base::Segmented(seg)) => {
                // The fold turns the base rows the writes name into their
                // logical rows, read where the pieces hold them.
                let old = seg.rows_of(&deltas.named_base_rows(deleted)).map_err(bpm)?;
                let (new, r) = logical_rows(key, &old, deltas, deleted)?;
                (r, seg.stage_fold(&old, &new).map_err(bpm)?)
            }
        };
        report.add(r);
        staged.push((install, deltas, memo));
    }
    // Every column staged: install, and clear what was folded.
    for (install, deltas, memo) in staged {
        install();
        *deltas = ColumnDeltas::default();
        *memo = Default::default();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Column `column` of `sys.P`'s delta bat for `access`.
    fn delta_bat(c: &mut Catalog, column: &str, access: i64) -> Option<Result<Bat, CatalogError>> {
        let id = c.column_id("sys", "P", column)?;
        c.delta_bat(id, access)
    }

    /// Table `sys.{table}`'s deletions bat.
    fn deletions(c: &mut Catalog, table: &str) -> Bat {
        let t = c.table_id("sys", table).unwrap();
        c.dbat(t)
    }

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
        assert!(c.segmented("sys.P.ra").is_some());
        assert!(c.segmented("sys.P.objid").is_none());
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
        // and id; the updates touched only v, and row 0's second update
        // replaced its first, so two rows are updated.
        assert_eq!(report.inserted, 4);
        assert_eq!(report.updated, 2);
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
        assert_eq!(c.pending_rows("sys", "T"), 0);
        assert!(deletions(&mut c, "T").is_empty());
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
        assert_eq!(c.pending_rows("sys", "T"), 3, "below threshold");
        c.insert_row("sys", "T", &[("v", Atom::Int(60))]);
        assert_eq!(c.pending_rows("sys", "T"), 0, "threshold merged");
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
        assert_eq!(c.pending_rows("sys", "T"), 0);
        assert!(c.merge_deltas("sys", "T").unwrap() == MergeReport::default());
        // Registering the column later makes those deltas mergeable.
        c.register_bat("sys", "T", "typo_col", Bat::dense_int(vec![]));
        assert_eq!(c.pending_rows("sys", "T"), 3);
        let report = c.merge_deltas("sys", "T").unwrap();
        assert_eq!(report.inserted, 3);
        assert_eq!(c.pending_rows("sys", "T"), 0);
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
        assert_eq!(c.pending_rows("sys", "T"), 1, "deltas kept");
        assert_eq!(c.segmented("sys.T.v").unwrap().rows(), 50);
        // The auto-trigger gives up after one failed attempt instead of
        // re-trying the merge on every subsequent mutation.
        c.set_table_merge_threshold("sys", "T", 1);
        c.insert_row("sys", "T", &[("v", Atom::Int(1))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(2))]);
        assert_eq!(c.pending_rows("sys", "T"), 3);
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
            assert_eq!(plain.pending_rows("sys", "T"), 1, "deltas kept");
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
        assert_eq!(c.pending_rows("sys", "T"), 1, "failed merge keeps deltas");

        // First failure → cooldown 2: the next two mutations only tick
        // the clock (no merge attempt, so the pending count grows).
        c.insert_row("sys", "T", &[("v", Atom::Int(10))]);
        c.insert_row("sys", "T", &[("v", Atom::Int(11))]);
        assert_eq!(c.pending_rows("sys", "T"), 3, "cooldown ticks, no merge");

        // Cooldown elapsed: the next mutation retries — still poisoned,
        // so it fails again and the cooldown doubles to 4.
        c.insert_row("sys", "T", &[("v", Atom::Int(12))]);
        assert_eq!(c.pending_rows("sys", "T"), 4, "retry failed, deltas kept");

        // Compensate the poison (delete the out-of-domain row), then
        // mutate through the second cooldown window. The retry at its
        // end succeeds and folds EVERY pending delta — nothing dropped.
        c.delete_row("sys", "T", bad); // cooldown 4 → 3
        c.insert_row("sys", "T", &[("v", Atom::Int(13))]); // 3 → 2
        c.insert_row("sys", "T", &[("v", Atom::Int(14))]); // 2 → 1
        c.insert_row("sys", "T", &[("v", Atom::Int(15))]); // 1 → 0
        assert!(c.pending_rows("sys", "T") > 0, "still cooling down");
        c.insert_row("sys", "T", &[("v", Atom::Int(16))]); // retry: succeeds
        assert_eq!(
            c.pending_rows("sys", "T"),
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
            c.pending_rows("sys", "T"),
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
        assert_eq!(c.pending_rows("sys", "T"), 1);
        let latched = MergeBackoff {
            failures: 1,
            cooldown: 2,
        };
        assert_eq!(
            c.table_entry("sys", "T").unwrap().backoff,
            latched,
            "backoff latched"
        );

        // Re-registering over the poisoned column (a domain that holds
        // the value) releases the backoff: the very next mutation merges
        // instead of sitting out the cooldown.
        register(&mut c, 1000.0);
        assert_eq!(
            c.table_entry("sys", "T").unwrap().backoff,
            MergeBackoff::default(),
            "re-register resets"
        );
        c.insert_row("sys", "T", &[("v", Atom::Int(13))]);
        assert_eq!(c.pending_rows("sys", "T"), 0, "merged, no cooldown");
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
        let ins = delta_bat(&mut c, "ra", 1).unwrap().unwrap();
        assert_eq!(ins.head_oids(), vec![3, 4]);
        assert_eq!(ins.tail(), &Tail::Dbl(vec![4.0, 5.0].into()));
    }

    #[test]
    fn updates_and_deletes_land_in_their_deltas() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![1.0, 2.0]));
        c.update_value("sys", "P", "ra", 1, Atom::Dbl(9.0));
        c.delete_row("sys", "P", 0);
        let upd = delta_bat(&mut c, "ra", 2).unwrap().unwrap();
        assert_eq!(upd.head_oids(), vec![1]);
        assert_eq!(upd.tail(), &Tail::Dbl(vec![9.0].into()));
        let dbat = deletions(&mut c, "P");
        assert_eq!(dbat.tail(), &Tail::Oid(vec![0].into()));
        // A delta with nothing pending is empty and typed like the base;
        // a column never registered has none.
        let ins = delta_bat(&mut c, "ra", 1).unwrap().unwrap();
        assert!(ins.is_empty());
        assert_eq!(ins.tail().type_name(), "dbl");
        assert!(c.column_id("sys", "P", "nope").is_none());
    }

    /// A repeated delete, and one of an oid not yet handed out, names no
    /// live row: it is not recorded.
    #[test]
    fn deleted_oids_stay_ascending_each_listed_once() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![0.0; 10]));
        for oid in [7, 2, 9, 2, 0, 7, 10] {
            c.delete_row("sys", "P", oid);
        }
        assert_eq!(c.table_entry("sys", "P").unwrap().deleted, vec![0, 2, 7, 9]);
        assert_eq!(c.pending_rows("sys", "P"), 4);
        assert_eq!(
            deletions(&mut c, "P").tail(),
            &Tail::Oid(vec![0, 2, 7, 9].into())
        );
    }

    /// `sys.T`: `v` segmented (threshold 0), `id` plain, ten rows.
    fn two_columns() -> Catalog {
        let mut c = Catalog::new();
        c.set_table_merge_threshold("sys", "T", 0);
        let spec = StrategySpec::new(StrategyKind::Cracking);
        let v = Bat::dense_int((0..10).map(|i| i * 10).collect());
        c.register_segmented("sys", "T", "v", v, 0.0, 1000.0, spec)
            .unwrap();
        c.register_bat("sys", "T", "id", Bat::dense_int((100..110).collect()));
        c
    }

    /// The sorted `v` values `SELECT v` returns for `v` in `[lo, hi]`.
    fn select_v(c: &mut Catalog, lo: i64, hi: i64) -> Vec<i64> {
        let plan = crate::compile_select("SELECT v FROM sys.T WHERE v BETWEEN ? AND ?").unwrap();
        let result = crate::Interp::new(c).run(&plan, &[Atom::Int(lo), Atom::Int(hi)]);
        let Tail::Int(v) = result.unwrap().unwrap().tail().clone() else {
            panic!("int projection expected")
        };
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    }

    /// Deleting the next oid to be handed out hid the insert that received
    /// it until a merge, or for good once merged: merge timing changed
    /// answers. Such a delete is not recorded.
    #[test]
    fn deleting_an_oid_not_yet_handed_out_hides_no_later_insert() {
        for merge_between in [false, true] {
            let mut c = two_columns();
            c.delete_row("sys", "T", 10);
            if merge_between {
                c.merge_deltas("sys", "T").unwrap();
            }
            let oid = c.insert_row("sys", "T", &[("v", Atom::Int(55)), ("id", Atom::Int(110))]);
            assert_eq!(oid, 10);
            assert_eq!(
                select_v(&mut c, 50, 59),
                [50, 55],
                "merge_between={merge_between}"
            );
            c.merge_deltas("sys", "T").unwrap();
            assert_eq!(
                select_v(&mut c, 50, 59),
                [50, 55],
                "merge_between={merge_between}"
            );
        }
    }

    /// An update of an oid the table does not hold — never handed out, or
    /// deleted and merged — is not recorded, so no select returns a ghost
    /// row the merge would drop.
    #[test]
    fn updates_of_rows_the_table_does_not_hold_return_no_ghost() {
        let mut c = two_columns();
        c.update_value("sys", "T", "v", 50, Atom::Int(70));
        c.delete_row("sys", "T", 3);
        c.merge_deltas("sys", "T").unwrap();
        c.update_value("sys", "T", "v", 3, Atom::Int(75));
        assert_eq!(c.pending_rows("sys", "T"), 0);
        assert_eq!(select_v(&mut c, 60, 80), [60, 70, 80]);
        // A live row, base or pending insert, still takes its update.
        let oid = c.insert_row("sys", "T", &[("v", Atom::Int(5)), ("id", Atom::Int(110))]);
        c.update_value("sys", "T", "v", oid, Atom::Int(66));
        c.update_value("sys", "T", "v", 4, Atom::Int(77));
        assert_eq!(select_v(&mut c, 60, 80), [60, 66, 70, 77, 80]);
    }

    /// A re-registered column keeps the pending updates of rows its new
    /// base or a pending insert holds, and drops the rest, which a merge
    /// would drop: a select and a merge agree.
    #[test]
    fn re_registering_drops_updates_of_rows_the_new_base_lacks() {
        for segmented in [true, false] {
            let mut c = two_columns();
            let oid = c.insert_row("sys", "T", &[("v", Atom::Int(5)), ("id", Atom::Int(110))]);
            for (row, v) in [(8, 70), (2, 65), (oid, 75)] {
                c.update_value("sys", "T", "v", row, Atom::Int(v));
            }
            let v = Bat::dense_int((0..5).map(|i| i * 10).collect());
            if segmented {
                let spec = StrategySpec::new(StrategyKind::Cracking);
                c.register_segmented("sys", "T", "v", v, 0.0, 1000.0, spec)
                    .unwrap();
            } else {
                c.register_bat("sys", "T", "v", v);
            }
            c.register_bat("sys", "T", "id", Bat::dense_int((100..105).collect()));
            assert_eq!(select_v(&mut c, 60, 80), [65, 75], "segmented={segmented}");
            c.merge_deltas("sys", "T").unwrap();
            assert_eq!(select_v(&mut c, 60, 80), [65, 75], "segmented={segmented}");
        }
    }

    /// A table with no plain column finds its base rows in a segmented
    /// column's pieces.
    #[test]
    fn a_segmented_only_table_updates_its_live_rows_alone() {
        let mut c = Catalog::new();
        c.set_table_merge_threshold("sys", "T", 0);
        let spec = StrategySpec::new(StrategyKind::Cracking);
        let v = Bat::dense_int((0..10).map(|i| i * 10).collect());
        c.register_segmented("sys", "T", "v", v, 0.0, 1000.0, spec)
            .unwrap();
        c.delete_row("sys", "T", 2);
        c.merge_deltas("sys", "T").unwrap();
        c.update_value("sys", "T", "v", 2, Atom::Int(21));
        c.update_value("sys", "T", "v", 6, Atom::Int(61));
        assert_eq!(
            c.column_entry("sys", "T", "v").unwrap().deltas.update_heads,
            [6]
        );
    }

    /// Every mutation of what a delta bat is built from drops it; until
    /// then each bind hands out the same buffers.
    #[test]
    fn delta_binds_share_one_bat_until_what_it_was_built_from_changes() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![1.0, 2.0]));
        c.register_bat("sys", "P", "id", Bat::dense_int(vec![10, 11]));
        c.set_table_merge_threshold("sys", "P", 0);
        let ins = |c: &mut Catalog| delta_bat(c, "ra", 1).unwrap().unwrap();
        let upd = |c: &mut Catalog| delta_bat(c, "ra", 2).unwrap().unwrap();
        let shared = |a: &Bat, b: &Bat| a.shares_storage_with(b) && !a.is_empty();

        let before = (ins(&mut c), upd(&mut c), deletions(&mut c, "P"));
        c.insert_row("sys", "P", &[("ra", Atom::Dbl(3.0)), ("id", Atom::Int(12))]);
        let after_insert = ins(&mut c);
        assert_eq!(after_insert.tail(), &Tail::Dbl(vec![3.0].into()));
        assert!(shared(&after_insert, &ins(&mut c)));
        assert!(upd(&mut c).is_empty() && before.1.is_empty());

        c.update_value("sys", "P", "ra", 0, Atom::Dbl(5.0));
        let after_update = upd(&mut c);
        assert_eq!(after_update.head_oids(), vec![0]);
        assert!(shared(&after_update, &upd(&mut c)));
        assert!(shared(&after_insert, &ins(&mut c)), "inserts untouched");

        c.delete_row("sys", "P", 1);
        let dbat = deletions(&mut c, "P");
        assert_eq!(dbat.tail(), &Tail::Oid(vec![1].into()));
        assert!(before.2.is_empty());
        assert!(shared(&dbat, &deletions(&mut c, "P")));

        // Re-registering the column under another type re-types its deltas.
        c.register_bat("sys", "P", "ra", Bat::dense_int(vec![1, 2]));
        assert_eq!(ins(&mut c).tail(), &Tail::Int(vec![3].into()));

        c.merge_deltas("sys", "P").unwrap();
        assert!(ins(&mut c).is_empty() && upd(&mut c).is_empty());
        assert!(deletions(&mut c, "P").is_empty());
    }

    #[test]
    fn a_delta_atom_the_tail_cannot_hold_fails_every_bind() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![1.0]));
        c.insert_row("sys", "P", &[("ra", Atom::Str("x".into()))]);
        for _ in 0..2 {
            match delta_bat(&mut c, "ra", 1) {
                Some(Err(CatalogError::MalformedDelta { key, source })) => {
                    assert_eq!(key, "sys.P.ra");
                    assert_eq!(
                        source,
                        BatError::TypeMismatch {
                            expected: "dbl",
                            got: "str"
                        }
                    );
                }
                other => panic!("expected MalformedDelta, got {other:?}"),
            }
        }
        assert!(c.column_entry("sys", "P", "ra").unwrap().memo[INSERTS].is_none());
    }

    /// Columns are keyed by their names, not by the joined key: `P`'s
    /// column `x.c` and `P.x`'s column `c` are two columns, each bound by
    /// its own names, and the joined `sys.P.x.c` names neither.
    #[test]
    fn columns_whose_names_join_alike_bind_their_own_rows() {
        for segmented in [false, true] {
            let mut c = Catalog::new();
            let (a, b) = (Bat::dense_int(vec![1, 2, 3]), Bat::dense_int(vec![7]));
            if segmented {
                let spec = StrategySpec::new(StrategyKind::Cracking);
                c.register_segmented("sys", "P", "x.c", a, 0.0, 10.0, spec)
                    .unwrap();
                c.register_segmented("sys", "P.x", "c", b, 0.0, 10.0, spec)
                    .unwrap();
            } else {
                c.register_bat("sys", "P", "x.c", a);
                c.register_bat("sys", "P.x", "c", b);
            }
            let plan = crate::parse(
                r#"A := sql.bind("sys","P","x.c",0);
                   B := sql.bind("sys","P.x","c",0);"#,
            )
            .unwrap();
            let mut interp = crate::Interp::new(&mut c);
            interp.run(&plan, &[]).unwrap();
            let tail = |var: &str| match interp.get(var) {
                Some(crate::MalValue::Bat(b)) => b.tail().clone(),
                other => panic!("{var}: {other:?}"),
            };
            assert_eq!(tail("A"), Tail::Int(vec![1, 2, 3].into()), "{segmented}");
            assert_eq!(tail("B"), Tail::Int(vec![7].into()), "{segmented}");
            drop(interp);
            assert!(c.bat("sys.P.x.c").is_none());
            assert!(c.segmented("sys.P.x.c").is_none());
            assert!(c.segmented_mut("sys.P.x.c").is_none());
        }
    }

    /// A table's merge folds the columns its entry lists, and no column of
    /// a table whose name merely extends it (`P` and `P.x`).
    #[test]
    fn merging_a_table_leaves_a_table_whose_name_extends_it_alone() {
        let mut c = Catalog::new();
        c.register_bat("sys", "P", "a", Bat::dense_int(vec![1, 2]));
        c.register_bat("sys", "P.x", "c", Bat::dense_int(vec![10, 20]));
        c.delete_row("sys", "P", 0);
        let report = c.merge_deltas("sys", "P").unwrap();
        assert_eq!(report.columns, 1);
        assert_eq!(report.deleted, 1);
        assert_eq!(c.bat("sys.P.a").unwrap().len(), 1);
        assert_eq!(c.bat("sys.P.x.c"), Some(&Bat::dense_int(vec![10, 20])));
        assert_eq!(c.pending_rows("sys", "P.x"), 0);
    }
}
