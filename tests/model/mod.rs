//! One reference model, one generator, four systems: every organization
//! of a column answers exactly as the logical column does, read bare,
//! served, sharded or through SQL (the transparency claim of Section 3.1:
//! "the user is unaware of any such decision").
//!
//! * The **model** is the logical column, `oid → value`.
//! * The **generator** ([`Cases`]) draws a base column and an op list:
//!   range reads; inserts, updates and deletes (stacked on one row, of
//!   deleted rows, of the next oid to be handed out and of oids no row
//!   ever had); merges; strategy switches; checkpoint → restore. They interleave, so writes are pending across
//!   every other op.
//! * Every [`System`] runs a case for the strategy kinds it is given. Each
//!   answer it offers must be the model's, and its validator runs after
//!   every op:
//!   - [`Bare`]: a strategy over `(value, oid)` pairs, its writes folded
//!     through `ColumnStrategy::fold_delta`;
//!   - [`Served`]: a `ConcurrentColumn`, each run of reads made by two
//!     threads racing the writer's reorganization hints, and the same
//!     column over a `ShardedColumn`, re-placed (`ShardedColumn::replace`)
//!     whenever it is built or restored;
//!   - [`Sql`]: a catalog column read by the compiled, segment-optimized
//!     selects of its oids and of its values, checkpointed through
//!     `save_all`/`load_all`.
//!
//! This module holds no test. The properties that draw [`Cases`] and run
//! them through [`bare`], [`served`], [`sharded`] or [`sql`] sit in the
//! files named for what they check; each picks the systems, kinds,
//! placements and [`Cases`] knobs (skewed reads, writes or none) its name
//! asks for, and the shim seeds each property by its name, so each draws
//! cases of its own. Together they run, per system and kind, at least as
//! many cases as the pairwise suites they replaced (bare 64, served 16,
//! sharded 64, SQL 24).
//!
//! The `proptest` shim does not shrink, so [`check`] does: it deletes ops
//! and base rows for as long as the case still fails, and prints the
//! result as a [`Case`] literal for `model_equivalence.rs`'s replay test
//! to hold.

// Each test file uses the systems it needs.
#![allow(dead_code)]

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

use socdb::adaptive::{validate, DeltaBatch, DeltaOp, SegIdGen};
use socdb::bat::{Atom, Bat, Tail};
use socdb::mal::{compile_select, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::*;

const DOMAIN_HI: i64 = 999;
/// Oids from here on are never handed out: the targets of updates and
/// deletes of rows that never existed.
const NEVER: u64 = 1 << 40;
/// The SQL table's `id` column holds `ID_BASE + oid`.
const ID_BASE: i64 = 10_000;
/// Three placements of a sharded column, the `(policy, nodes)` halves of
/// `ApmSegm`/`RangeContiguous`/4, `Cracking`/`RoundRobin`/3 and
/// `GdRepl`/`SizeBalanced`/5.
pub const PLACEMENTS: [(PlacementPolicy, usize); 3] = [
    (PlacementPolicy::RangeContiguous, 4),
    (PlacementPolicy::RoundRobin, 3),
    (PlacementPolicy::SizeBalanced, 5),
];

/// Every placement policy on one to six nodes.
pub fn every_placement() -> Vec<(PlacementPolicy, usize)> {
    let on = |policy| (1..=6).map(move |nodes| (policy, nodes));
    PlacementPolicy::ALL.into_iter().flat_map(on).collect()
}

/// A row of every system: value first, so a value range is a pair range.
type Row = Pair<i64>;
/// What a system's step returns: why it went wrong, if it did.
type Checked = Result<(), String>;
/// A range read and the model's rows for it, ascending.
type Read = (ValueRange<i64>, Vec<Row>);

fn domain() -> ValueRange<Row> {
    ValueRange::must(0, DOMAIN_HI).paired()
}

/// The seed draws the model's dice, the APM bounds (`Mmin` 32 B to 512 B,
/// `Mmax` 2 to 7 times that: 2 to 224 rows of 16 B) and the estimator.
fn spec(kind: StrategyKind, seed: u64) -> StrategySpec {
    let mmin = 32 << (seed % 5);
    let estimator = [SizeEstimator::Uniform, SizeEstimator::Exact][(seed / 30 % 2) as usize];
    StrategySpec::new(kind)
        .with_apm_bounds(mmin, mmin * (2 + seed / 5 % 6))
        .with_model_seed(seed)
        .with_estimator(estimator)
}

/// `Read(lo, hi)` reads the rows with a value in `lo..=hi`; `Insert(v)`
/// appends a row at the next oid; `Update(oid, v)` and `Delete(oid)` write
/// a row, live or not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Read(i64, i64),
    Insert(i64),
    Update(u64, i64),
    Delete(u64),
    /// Folds the pending writes: `merge_deltas`, `drain_deltas`.
    Merge,
    Switch(StrategyKind),
    Checkpoint,
}

#[derive(Clone)]
pub struct Case {
    /// The values of rows `0..base.len()`.
    pub base: Vec<i64>,
    pub seed: u64,
    pub ops: Vec<Op>,
}

/// A literal that pastes into `model_equivalence.rs`'s replay test.
impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Case {{ base: vec!{:?}, seed: {}, ops: vec!{:?} }}",
            self.base, self.seed, self.ops
        )
    }
}

impl Case {
    /// The case without ops `at`, or without base rows `at` and with the
    /// oids past them renumbered. `None` unless every update and delete
    /// still names a row handed out before it, the next one to be, or one
    /// that never will be, as [`Cases`] draws them.
    fn without(&self, rows: bool, at: Range<usize>) -> Option<Case> {
        let mut case = self.clone();
        if rows {
            let (lo, hi) = (at.start as u64, at.end as u64);
            case.base.drain(at);
            for op in &mut case.ops {
                if let Op::Update(oid, _) | Op::Delete(oid) = op {
                    if (lo..hi).contains(oid) {
                        return None;
                    }
                    if (hi..NEVER).contains(oid) {
                        *oid -= hi - lo;
                    }
                }
            }
        } else {
            case.ops.drain(at);
        }
        let mut next = case.base.len() as u64;
        let well_formed = case.ops.iter().all(|op| match *op {
            Op::Update(oid, _) | Op::Delete(oid) => oid <= next || oid >= NEVER,
            op => {
                next += u64::from(matches!(op, Op::Insert(_)));
                true
            }
        });
        (well_formed && !case.base.is_empty()).then_some(case)
    }
}

/// Draws a [`Case`]: 20 to 200 base rows, 10 to 60 ops. Of the updates
/// and deletes, a third name a row written before, a tenth the next oid
/// to be handed out, a tenth a row that never existed.
pub struct Cases {
    /// Four reads in five start in one of two hot areas, `100..150` and
    /// `700..750`, as under the paper's skewed load; else reads are uniform.
    pub skewed: bool,
    /// Whether to draw inserts, updates and deletes; without them, the
    /// ops they would have been are reads.
    pub writes: bool,
}

impl Cases {
    pub const MIXED: Cases = Cases {
        skewed: false,
        writes: true,
    };
}

impl Strategy for Cases {
    type Value = Case;

    fn new_value(&self, rng: &mut TestRng) -> Case {
        let value = |rng: &mut TestRng| rng.gen_range(0..=DOMAIN_HI);
        let base: Vec<i64> = (0..rng.gen_range(20..200)).map(|_| value(rng)).collect();
        let mut next = base.len() as u64;
        let mut written: Vec<u64> = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..rng.gen_range(10..60) {
            let roll = match rng.gen_range(0..100u32) {
                40..=79 if !self.writes => 0,
                roll => roll,
            };
            let op = match roll {
                0..=39 => {
                    let lo = match self.skewed && rng.gen_bool(0.8) {
                        true => [100, 700][rng.gen_range(0..2usize)] + rng.gen_range(0..50i64),
                        false => value(rng),
                    };
                    let hi = if rng.gen_bool(0.5) {
                        lo + rng.gen_range(0..20i64)
                    } else {
                        value(rng)
                    };
                    Op::Read(lo.min(hi), lo.max(hi).min(DOMAIN_HI))
                }
                40..=54 => {
                    next += 1;
                    Op::Insert(value(rng))
                }
                55..=79 => {
                    let oid = match rng.gen_range(0..10u32) {
                        0 => NEVER + rng.gen_range(0..4u64),
                        1 => next,
                        2..=4 if !written.is_empty() => written[rng.gen_range(0..written.len())],
                        _ => rng.gen_range(0..next),
                    };
                    written.push(oid);
                    match rng.gen_bool(0.3) {
                        true => Op::Delete(oid),
                        false => Op::Update(oid, value(rng)),
                    }
                }
                80..=87 => Op::Merge,
                88..=93 => Op::Switch(StrategyKind::ALL[rng.gen_range(0..9usize)]),
                _ => Op::Checkpoint,
            };
            ops.push(op);
        }
        let seed = rng.gen();
        Case { base, seed, ops }
    }
}

/// The reference: the logical column.
struct Model {
    rows: BTreeMap<u64, i64>,
    next_oid: u64,
}

impl Model {
    fn new(base: &[i64]) -> Self {
        Model {
            rows: (0..).zip(base.iter().copied()).collect(),
            next_oid: base.len() as u64,
        }
    }

    /// Applies a write, returning what it does to the rows: `None` when it
    /// names no live row.
    fn write(&mut self, op: Op) -> Option<DeltaOp<Row>> {
        match op {
            Op::Insert(value) => {
                let oid = self.next_oid;
                self.next_oid += 1;
                self.rows.insert(oid, value);
                Some(DeltaOp::Insert {
                    oid,
                    value: Pair::new(value, oid),
                })
            }
            Op::Update(oid, value) => {
                let old = std::mem::replace(self.rows.get_mut(&oid)?, value);
                Some(DeltaOp::Update {
                    oid,
                    old: Pair::new(old, oid),
                    new: Pair::new(value, oid),
                })
            }
            Op::Delete(oid) => Some(DeltaOp::Delete {
                oid,
                value: Pair::new(self.rows.remove(&oid)?, oid),
            }),
            _ => None,
        }
    }

    /// The rows whose value lies in `q`, ascending.
    fn hits(&self, q: &ValueRange<i64>) -> Vec<Row> {
        let rows = self.rows.iter().map(|(&oid, &value)| Pair::new(value, oid));
        let mut hits: Vec<Row> = rows.filter(|row| q.contains(row.value)).collect();
        hits.sort_unstable();
        hits
    }

    fn all(&self) -> Vec<Row> {
        self.hits(&ValueRange::must(0, DOMAIN_HI))
    }
}

/// One way to hold the column, driven through the public API only.
#[derive(Clone, Copy, Debug)]
struct Layout {
    kind: StrategyKind,
    shards: Option<(PlacementPolicy, usize)>,
}

trait System: Sized {
    fn build(layout: Layout, seed: u64, base: &[i64]) -> Result<Self, String>;
    /// `effect` is what the model says `op` does (see [`Model::write`]).
    fn write(&mut self, op: Op, effect: Option<DeltaOp<Row>>) -> Checked;
    /// A run of reads.
    fn read(&mut self, reads: &[Read]) -> Checked;
    fn merge(&mut self) -> Checked;
    fn switch(&mut self, kind: StrategyKind) -> Checked;
    fn checkpoint(&mut self) -> Checked;
    fn validate(&self, model: &Model) -> Checked;
}

fn why(e: impl fmt::Display) -> String {
    e.to_string()
}

fn same<T: PartialEq + fmt::Debug>(what: impl fmt::Display, got: T, want: T) -> Checked {
    let differ = || format!("{what}: got {got:?}, want {want:?}");
    (got == want).then_some(()).ok_or_else(differ)
}

/// A bare strategy. Writes gather in a [`DeltaBatch`] and are folded as
/// one sealed run before the next read, merge, switch or checkpoint; a
/// switch or checkpoint rebuilds the strategy from its own rows.
struct Bare {
    strategy: Box<dyn ColumnStrategy<Row>>,
    spec: StrategySpec,
    pending: DeltaBatch<Row>,
}

impl Bare {
    fn flush(&mut self) -> Checked {
        let Some(run) = std::mem::take(&mut self.pending).seal(SegIdGen::new().fresh()) else {
            return Ok(());
        };
        let strategy = &mut self.strategy;
        let unmatched = strategy.fold_delta(run.inserts(), run.tombstones(), &mut NullTracker);
        same("fold_delta's unmatched tombstones", unmatched, Some(0))
    }

    fn rebuild(&mut self, spec: StrategySpec) -> Checked {
        self.flush()?;
        let rows = self.strategy.peek_collect(&domain());
        self.strategy = spec.build(domain(), rows).map_err(why)?;
        self.spec = spec;
        Ok(())
    }
}

impl System for Bare {
    fn build(layout: Layout, seed: u64, base: &[i64]) -> Result<Self, String> {
        let spec = spec(layout.kind, seed);
        let rows = (0..).zip(base.iter().copied()).collect();
        let built = spec.build_paired(ValueRange::must(0, DOMAIN_HI), rows);
        let strategy = built.map_err(why)?;
        Ok(Bare {
            strategy,
            spec,
            pending: DeltaBatch::new(),
        })
    }

    fn write(&mut self, _: Op, effect: Option<DeltaOp<Row>>) -> Checked {
        if let Some(op) = effect {
            self.pending.push(op);
        }
        Ok(())
    }

    fn read(&mut self, reads: &[Read]) -> Checked {
        self.flush()?;
        for (q, want) in reads {
            let count = self.strategy.select_count(&q.paired(), &mut NullTracker);
            same(format!("count of {q:?}"), count, want.len() as u64)?;
            let mut got = self.strategy.peek_collect(&q.paired());
            got.sort_unstable();
            same(format!("peek of {q:?}"), &got, want)?;
        }
        Ok(())
    }

    fn merge(&mut self) -> Checked {
        self.flush()
    }

    fn switch(&mut self, kind: StrategyKind) -> Checked {
        self.rebuild(StrategySpec { kind, ..self.spec })
    }

    fn checkpoint(&mut self) -> Checked {
        self.rebuild(self.spec)
    }

    /// The pieces are sorted and disjoint, and their bytes are stored
    /// bytes: they sum to `storage_bytes()`, or to less for a replica
    /// tree, whose nested replicas occupy storage too. With no write
    /// pending, the strategy holds exactly the model's rows.
    fn validate(&self, model: &Model) -> Checked {
        let strategy = self.strategy.as_ref();
        validate::strategy_pieces(strategy).map_err(why)?;
        let pieces: u64 = strategy.pieces().iter().map(|(_, bytes)| bytes).sum();
        let stored = strategy.storage_bytes();
        let replicating = matches!(self.spec.kind, StrategyKind::GdRepl | StrategyKind::ApmRepl);
        if pieces != stored && !(replicating && pieces < stored) {
            return Err(format!("piece bytes {pieces}, storage_bytes {stored}"));
        }
        if !self.pending.is_empty() {
            return Ok(());
        }
        let mut rows = strategy.peek_collect(&domain());
        rows.sort_unstable();
        same("rows", rows, model.all())
    }
}

/// A served column, over a `ShardedColumn` when the layout places shards.
/// A checkpoint restores a new column from the rows the old one serves; a
/// switch migrates the column in place (a sharded one keeps its
/// placement).
struct Served {
    column: ConcurrentColumn<Row>,
    layout: Layout,
    spec: StrategySpec,
    /// Whether a write was sent since the last barrier.
    unsynced: bool,
    /// Every range read so far.
    history: Vec<ValueRange<i64>>,
}

/// A column serving `rows`. A sharded one first replays `history` on its
/// nodes, which adapt, then runs a re-placement epoch
/// (`ShardedColumn::replace`) that moves their pieces to new homes; its
/// counts must be the rows' before the epoch, and all its answers the
/// model's after.
fn serve(
    layout: Layout,
    spec: StrategySpec,
    rows: Vec<Row>,
    history: Vec<ValueRange<i64>>,
) -> Result<Served, String> {
    let column = match layout.shards {
        None => ConcurrentColumn::from_spec(&spec, domain(), rows).map_err(why)?,
        Some((policy, nodes)) => {
            let new = ShardedColumn::new(spec, policy, nodes, domain(), rows.clone());
            let mut sharded = new.map_err(why)?;
            for q in &history {
                let want = rows.iter().filter(|row| q.contains(row.value)).count();
                let got = sharded.select_count(&q.paired(), &mut NullTracker);
                same(format!("sharded count of {q:?}"), got, want as u64)?;
            }
            sharded.replace(&mut NullTracker).map_err(why)?;
            ConcurrentColumn::new(Box::new(sharded), domain())
        }
    };
    Ok(Served {
        column,
        layout,
        spec,
        unsynced: false,
        history,
    })
}

/// Every answer a served column offers for each of `reads`.
fn serves<'a>(column: &ConcurrentColumn<Row>, reads: impl Iterator<Item = &'a Read>) -> Checked {
    for (q, want) in reads {
        let (pq, t) = (q.paired(), &mut NullTracker);
        let at = |what| format!("{what} of {q:?}");
        same(at("count"), column.select_count(&pq, t), want.len() as u64)?;
        same(at("collect"), &column.select_collect(&pq, t), want)?;
        let sum = want.iter().fold(0.0, |s, row| s + row.value as f64);
        same(
            at("sum bits"),
            column.select_sum(&pq, t).to_bits(),
            sum.to_bits(),
        )?;
        let min_max = want.first().copied().zip(want.last().copied());
        same(at("min/max"), column.select_min_max(&pq, t), min_max)?;
    }
    Ok(())
}

fn panic_message(panic: &(dyn Any + Send)) -> String {
    let text = panic.downcast_ref::<String>().map(String::as_str);
    let text = text.or(panic.downcast_ref::<&str>().copied());
    format!("panicked: {}", text.unwrap_or(""))
}

impl System for Served {
    fn build(layout: Layout, seed: u64, base: &[i64]) -> Result<Self, String> {
        let rows = pair_rows((0..).zip(base.iter().copied()));
        serve(layout, spec(layout.kind, seed), rows, Vec::new())
    }

    fn write(&mut self, _: Op, effect: Option<DeltaOp<Row>>) -> Checked {
        if let Some(op) = effect {
            let mut batch = DeltaBatch::new();
            batch.push(op);
            self.column.apply_deltas(batch);
            self.unsynced = true;
        }
        Ok(())
    }

    /// Two threads make the reads, one in order and one backwards, each
    /// read also hinting the writer to reorganize.
    fn read(&mut self, reads: &[Read]) -> Checked {
        if std::mem::take(&mut self.unsynced) {
            self.column.quiesce();
        }
        self.history.extend(reads.iter().map(|(q, _)| *q));
        let column = &self.column;
        std::thread::scope(|s| {
            let backward = s.spawn(|| serves(column, reads.iter().rev()));
            let forward = serves(column, reads.iter());
            forward.and(backward.join().unwrap_or_else(|p| Err(panic_message(&*p))))
        })
    }

    fn merge(&mut self) -> Checked {
        self.column.drain_deltas();
        self.unsynced = false;
        same("pending rows", self.column.pending_delta_rows(), 0)
    }

    fn switch(&mut self, kind: StrategyKind) -> Checked {
        (self.spec.kind, self.layout.kind) = (kind, kind);
        self.column.set_strategy(self.spec);
        Ok(())
    }

    fn checkpoint(&mut self) -> Checked {
        self.column.quiesce();
        let snapshot = self.column.snapshot();
        let rows = snapshot.select_collect(&domain(), &mut NullTracker);
        let history = std::mem::take(&mut self.history);
        *self = serve(self.layout, self.spec, rows, history)?;
        Ok(())
    }

    /// Once every write sent is visible, the snapshot holds exactly the
    /// model's rows.
    fn validate(&self, model: &Model) -> Checked {
        let snapshot = self.column.snapshot();
        snapshot.validate().map_err(why)?;
        same("failed migrations", snapshot.failed_migrations(), 0)?;
        same("unmatched tombstones", snapshot.unmatched_tombstones(), 0)?;
        if self.unsynced {
            return Ok(());
        }
        let rows = snapshot.select_collect(&domain(), &mut NullTracker);
        same("rows", rows, model.all())
    }
}

/// A catalog column `sys.T.v` beside a plain `sys.T.id`, merged only by
/// [`Op::Merge`] (threshold 0).
struct Sql {
    catalog: Catalog,
    kind: StrategyKind,
}

/// The ids (`ID_BASE + oid`) and the values of the rows a read selects.
const SELECTS: [&str; 2] = [
    "SELECT id FROM sys.T WHERE v BETWEEN ? AND ?",
    "SELECT v FROM sys.T WHERE v BETWEEN ? AND ?",
];
const KEY: &str = "sys.T.v";
const UNSEGMENTED: &str = "sys.T.v is not segmented";

impl Sql {
    fn spans(&self) -> Result<Vec<(f64, f64)>, String> {
        let column = self.catalog.segmented(KEY).ok_or(UNSEGMENTED)?;
        Ok(column.piece_spans())
    }

    /// `oid → value` of the column's pieces.
    fn rows(&self) -> Result<BTreeMap<u64, i64>, String> {
        let column = self.catalog.segmented(KEY).ok_or(UNSEGMENTED)?;
        let packed = column.pack().map_err(why)?;
        let Tail::Int(values) = packed.tail() else {
            return Err("the packed column must have an int tail".into());
        };
        let oids = packed.head_oids();
        Ok(oids.into_iter().zip(values.iter().copied()).collect())
    }

    /// What `select` returns for the read `q`, sorted.
    fn select(&mut self, select: &str, q: &ValueRange<i64>) -> Result<Vec<i64>, String> {
        let plan = compile_select(select).map_err(why)?;
        let (optimized, _) = SegmentOptimizer::new().optimize(&plan, &self.catalog);
        let bounds = [Atom::Int(q.lo()), Atom::Int(q.hi())];
        let result = Interp::new(&mut self.catalog)
            .run(&optimized, &bounds)
            .map_err(why)?
            .ok_or("the plan exported no result")?;
        let Tail::Int(got) = result.tail() else {
            return Err(format!("{select}: the projection must have an int tail"));
        };
        let mut got = got.to_vec();
        got.sort_unstable();
        Ok(got)
    }
}

impl System for Sql {
    fn build(layout: Layout, seed: u64, base: &[i64]) -> Result<Self, String> {
        let mut catalog = Catalog::new();
        catalog.set_table_merge_threshold("sys", "T", 0);
        let bat = Bat::dense_int(base.to_vec());
        let domain_hi = (DOMAIN_HI + 1) as f64;
        let spec = spec(layout.kind, seed);
        catalog
            .register_segmented("sys", "T", "v", bat, 0.0, domain_hi, spec)
            .map_err(why)?;
        let ids = (0..base.len() as i64).map(|oid| ID_BASE + oid).collect();
        catalog.register_bat("sys", "T", "id", Bat::dense_int(ids));
        let kind = layout.kind;
        Ok(Sql { catalog, kind })
    }

    fn write(&mut self, op: Op, effect: Option<DeltaOp<Row>>) -> Checked {
        let catalog = &mut self.catalog;
        match (op, effect) {
            (Op::Insert(value), Some(DeltaOp::Insert { oid, .. })) => {
                let id = Atom::Int(ID_BASE + oid as i64);
                let got = catalog.insert_row("sys", "T", &[("v", Atom::Int(value)), ("id", id)]);
                return same("inserted oid", got, oid);
            }
            (Op::Update(oid, value), _) => {
                catalog.update_value("sys", "T", "v", oid, Atom::Int(value))
            }
            (Op::Delete(oid), _) => catalog.delete_row("sys", "T", oid),
            _ => {}
        }
        Ok(())
    }

    /// The compiled selects, segment-optimized against the live catalog
    /// before each read (pieces move between reads), name exactly the
    /// model's rows, each once, and return exactly their values.
    fn read(&mut self, reads: &[Read]) -> Checked {
        for (q, want) in reads {
            let mut ids: Vec<i64> = want.iter().map(|row| ID_BASE + row.oid as i64).collect();
            ids.sort_unstable();
            let values = want.iter().map(|row| row.value).collect();
            for (select, want) in SELECTS.into_iter().zip([ids, values]) {
                same(format!("{select} for {q:?}"), self.select(select, q)?, want)?;
            }
        }
        Ok(())
    }

    /// The merge leaves nothing pending and moves no piece. (Cracking
    /// clips its edge pieces to the data's min and max, so its spans hold
    /// still only while the merge moves neither.)
    fn merge(&mut self) -> Checked {
        let (spans, rows) = (self.spans()?, self.rows()?);
        let catalog = &mut self.catalog;
        catalog.merge_deltas("sys", "T").map_err(why)?;
        same("pending rows", catalog.pending_rows("sys", "T"), 0)?;
        let edges = |r: &BTreeMap<u64, i64>| (r.values().min().copied(), r.values().max().copied());
        if self.kind != StrategyKind::Cracking || edges(&self.rows()?) == edges(&rows) {
            same("piece spans after the merge", self.spans()?, spans)?;
        }
        Ok(())
    }

    fn switch(&mut self, kind: StrategyKind) -> Checked {
        self.kind = kind;
        self.catalog.set_strategy(KEY, kind).map_err(why)
    }

    fn checkpoint(&mut self) -> Checked {
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let n = SAVES.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("soc_model_equivalence_{}_{n}", std::process::id()));
        self.catalog.save_all(&dir).map_err(why)?;
        let loaded = Catalog::load_all(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        self.catalog = loaded.map_err(why)?;
        // A checkpoint stores rows: the restore has nothing pending, so
        // the validator compares the pieces with the model's rows.
        same(
            "pending rows after the restore",
            self.catalog.pending_rows("sys", "T"),
            0,
        )
    }

    /// The column is structurally valid; with nothing pending, its pieces
    /// hold exactly the model's rows.
    fn validate(&self, model: &Model) -> Checked {
        let column = self.catalog.segmented(KEY).ok_or(UNSEGMENTED)?;
        column.validate()?;
        if self.catalog.pending_rows("sys", "T") > 0 {
            return Ok(());
        }
        same("merged rows", &self.rows()?, &model.rows)
    }
}

/// Runs `case` on `S` under `layout`, naming the op whose answer or
/// validation first failed.
fn run<S: System>(case: &Case, layout: Layout) -> Checked {
    let mut model = Model::new(&case.base);
    let mut system = S::build(layout, case.seed, &case.base)?;
    let built = system.validate(&model);
    built.map_err(|e| format!("after the build: {e}"))?;
    let mut i = 0;
    while i < case.ops.len() {
        let (at, op) = (i, case.ops[i]);
        let step = match op {
            Op::Read(..) => {
                let reads: Vec<Read> = case.ops[i..]
                    .iter()
                    .map_while(|op| match *op {
                        Op::Read(lo, hi) => Some(ValueRange::must(lo, hi)),
                        _ => None,
                    })
                    .map(|q| (q, model.hits(&q)))
                    .collect();
                i += reads.len() - 1;
                system.read(&reads)
            }
            Op::Insert(_) | Op::Update(..) | Op::Delete(_) => {
                let effect = model.write(op);
                system.write(op, effect)
            }
            Op::Merge => system.merge(),
            Op::Switch(kind) => system.switch(kind),
            Op::Checkpoint => system.checkpoint(),
        };
        step.and_then(|()| system.validate(&model))
            .map_err(|e| format!("op {at} ({op:?}): {e}"))?;
        i += 1;
    }
    Ok(())
}

/// Why `case` fails on `S` under `layout`, a panic included.
fn fails<S: System>(case: &Case, layout: Layout) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| run::<S>(case, layout))) {
        Ok(outcome) => outcome.err(),
        Err(panic) => Some(panic_message(&*panic)),
    }
}

/// Deletes chunks of ops, then of base rows, halving the chunk down to
/// one, and keeps each deletion after which the case still fails, until
/// no deletion does.
fn shrink(
    mut case: Case,
    mut error: String,
    fails: impl Fn(&Case) -> Option<String>,
) -> (Case, String) {
    loop {
        let before = (case.ops.len(), case.base.len());
        for rows in [false, true] {
            let len = |case: &Case| [case.ops.len(), case.base.len()][usize::from(rows)];
            let mut chunk = len(&case);
            while chunk > 0 {
                let mut start = 0;
                while start < len(&case) {
                    let smaller = case.without(rows, start..(start + chunk).min(len(&case)));
                    match smaller.and_then(|c| Some((fails(&c)?, c))) {
                        Some((e, c)) => (error, case) = (e, c),
                        None => start += chunk,
                    }
                }
                chunk /= 2;
            }
        }
        if (case.ops.len(), case.base.len()) == before {
            return (case, error);
        }
    }
}

/// Runs `case` on `S` under every layout; a failure is shrunk and printed
/// as a replayable case.
fn check<S: System>(system: &str, case: &Case, layouts: &[Layout]) -> Result<(), TestCaseError> {
    for &layout in layouts {
        if let Some(error) = fails::<S>(case, layout) {
            let (case, error) = shrink(case.clone(), error, |c| fails::<S>(c, layout));
            return Err(TestCaseError::fail(format!(
                "{system} under {layout:?}: {error}\nshrunk to {} ops: {case:?}",
                case.ops.len()
            )));
        }
    }
    Ok(())
}

/// The bare strategies of `kinds` answer `case` as the model.
pub fn bare(case: &Case, kinds: &[StrategyKind]) -> Result<(), TestCaseError> {
    check::<Bare>("bare", case, &unsharded(kinds))
}

/// The served columns of `kinds` answer `case` as the model.
pub fn served(case: &Case, kinds: &[StrategyKind]) -> Result<(), TestCaseError> {
    check::<Served>("served", case, &unsharded(kinds))
}

/// The served columns of `kinds`, each sharded by one of `placements`
/// (the case's seed rotates them), answer `case` as the model.
pub fn sharded(
    case: &Case,
    kinds: &[StrategyKind],
    placements: &[(PlacementPolicy, usize)],
) -> Result<(), TestCaseError> {
    let layouts: Vec<Layout> = (0..)
        .zip(kinds)
        .map(|(k, &kind)| Layout {
            kind,
            shards: Some(
                placements[(k + case.seed as usize % placements.len()) % placements.len()],
            ),
        })
        .collect();
    check::<Served>("sharded", case, &layouts)
}

/// The SQL catalogs of `kinds` answer `case` as the model.
pub fn sql(case: &Case, kinds: &[StrategyKind]) -> Result<(), TestCaseError> {
    check::<Sql>("sql", case, &unsharded(kinds))
}

fn unsharded(kinds: &[StrategyKind]) -> Vec<Layout> {
    let layout = |&kind| Layout { kind, shards: None };
    kinds.iter().map(layout).collect()
}
