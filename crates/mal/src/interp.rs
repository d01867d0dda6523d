//! The MAL interpreter: executes parsed programs against a [`Catalog`].
//!
//! Mirrors the MonetDB execution paradigm of Section 2 — every operator
//! materializes its result into a bat bound to a plan variable (binding a
//! column, fetching an argument and returning the result set clone a bat,
//! which shares its buffers) — and implements the `bpm` calls the segment
//! optimizer injects (Section 3.1), including the predicate-enhanced
//! segment iterator driving `barrier`/`redo`/`exit` blocks.
//!
//! `bpm.take` pins the column's published snapshot for the rest of the
//! plan, and every handle of the column reads that snapshot: a
//! `bpm.adapt` or `bpm.setStrategy` later in the plan publishes the next
//! epoch and leaves the pinned one as it was, so no handle needs building
//! before the pieces move. The one intermediate built late is a piece:
//! `bpm.takeSegment` and the segment iterator bind a [`MalValue::Piece`]
//! handle, `algebra.uselect` over it binary-searches the pinned piece's
//! sorted rows and keeps only the qualifying oids, and any other consumer
//! gets the piece's bat.

use std::collections::VecDeque;
use std::sync::Arc;

use soc_bat::{algebra, Atom, Bat, BatError, Head, Tail};

use soc_core::StrategyKind;

use crate::ast::{Arg, Instruction, Op, Program, Stmt, Var, VarName};
use crate::bpm::{BpmError, Pinned, SegmentedBat};
use crate::catalog::{Base, Catalog, CatalogError, ColumnId};

/// A runtime value bound to a plan variable.
#[derive(Debug, Clone)]
pub enum MalValue {
    /// A materialized bat.
    Bat(Bat),
    /// A scalar.
    Atom(Atom),
    /// Handle to a segmented column (`bpm.take`).
    SegHandle(Arc<str>),
    /// Piece `index` of segmented column `key` as the plan's `bpm.take`
    /// pinned it, not yet read (`bpm.takeSegment`, the segment iterator).
    Piece {
        /// The column's catalog key.
        key: Arc<str>,
        /// The piece's position in the column's value order.
        index: usize,
    },
    /// A segmented result under construction (`bpm.new`/`bpm.addSegment`).
    SegResult(Vec<Bat>),
    /// Absence of a value (ends iterator blocks).
    Nil,
}

impl MalValue {
    fn truthy(&self) -> bool {
        !matches!(self, MalValue::Nil | MalValue::Atom(Atom::Nil))
    }
}

/// Execution failures.
#[derive(Debug)]
pub enum ExecError {
    /// No such `module.function`.
    UnknownFunction(String),
    /// Variable read before assignment.
    Unbound(String),
    /// Argument had the wrong kind.
    BadArg {
        /// The function being called.
        call: String,
        /// Explanation.
        expected: String,
    },
    /// Kernel error.
    Bat(BatError),
    /// Segmented-bat error.
    Bpm(BpmError),
    /// Catalog failure (delta materialization, strategy change).
    Catalog(CatalogError),
    /// Catalog miss.
    UnknownColumn(String),
    /// A `barrier`/`redo` statement without a target variable.
    MissingTarget(&'static str),
    /// `barrier` without a matching `exit`.
    NoMatchingExit(String),
    /// `redo` outside any open block.
    RedoOutsideBlock(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            ExecError::Unbound(v) => write!(f, "unbound variable {v}"),
            ExecError::BadArg { call, expected } => write!(f, "{call}: expected {expected}"),
            ExecError::Bat(e) => write!(f, "kernel: {e}"),
            ExecError::Bpm(e) => write!(f, "bpm: {e}"),
            ExecError::Catalog(e) => write!(f, "catalog: {e}"),
            ExecError::UnknownColumn(k) => write!(f, "unknown column {k}"),
            ExecError::MissingTarget(s) => write!(f, "{s} statement has no target variable"),
            ExecError::NoMatchingExit(v) => write!(f, "barrier {v} has no exit"),
            ExecError::RedoOutsideBlock(v) => write!(f, "redo {v} outside a block"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<BatError> for ExecError {
    fn from(e: BatError) -> Self {
        ExecError::Bat(e)
    }
}

impl From<BpmError> for ExecError {
    fn from(e: BpmError) -> Self {
        ExecError::Bpm(e)
    }
}

impl From<CatalogError> for ExecError {
    fn from(e: CatalogError) -> Self {
        ExecError::Catalog(e)
    }
}

/// An argument's value, borrowed from the plan (a constant) or from the
/// environment (a bound variable).
enum Val<'v> {
    Const(&'v Atom),
    Bound(&'v MalValue),
}

impl std::fmt::Debug for Val<'_> {
    /// Formats as the [`MalValue`] the argument stands for.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Val::Const(c) => write!(f, "Atom({c:?})"),
            Val::Bound(v) => v.fmt(f),
        }
    }
}

/// The plan variables of one execution: a value per slot of the program's
/// variable table, so binding a variable or reading one is an index, with
/// no name hashed or copied.
#[derive(Default)]
struct Env(Vec<Option<MalValue>>);

impl Env {
    fn get(&self, v: Var) -> Option<&MalValue> {
        self.0.get(v.slot()).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, v: Var) -> Option<&mut MalValue> {
        self.0.get_mut(v.slot()).and_then(Option::as_mut)
    }

    fn set(&mut self, v: Var, value: MalValue) {
        if let Some(slot) = self.0.get_mut(v.slot()) {
            *slot = Some(value);
        }
    }
}

/// Instruction `i` of `prog` as it runs: constants read from the
/// program's table, variables from the run's slots. Every accessor
/// borrows: reading an argument copies no string or bat handle the caller
/// does not ask for.
struct Frame<'v> {
    prog: &'v Program,
    env: &'v Env,
    pins: &'v [Pin],
    i: &'v Instruction,
}

impl<'v> Frame<'v> {
    fn bad_arg(&self, expected: String) -> ExecError {
        ExecError::BadArg {
            call: self.prog.qualified(self.i),
            expected,
        }
    }

    fn need_args(&self, n: usize) -> Result<(), ExecError> {
        let got = self.i.args().len();
        if got < n {
            Err(self.bad_arg(format!("at least {n} arguments, got {got}")))
        } else {
            Ok(())
        }
    }

    fn arg(&self, k: usize) -> Result<Val<'v>, ExecError> {
        match self.i.arg(k) {
            None => Err(self.bad_arg(format!(
                "at least {} arguments, got {}",
                k + 1,
                self.i.args().len()
            ))),
            Some(Arg::Const(c)) => Ok(Val::Const(self.prog.konst(c))),
            Some(Arg::Var(v)) => self
                .env
                .get(v)
                .map(Val::Bound)
                .ok_or_else(|| ExecError::Unbound(self.prog.name(v).to_string())),
        }
    }

    /// Argument `k` as a bat; a piece handle is read into its bat.
    fn bat(&self, k: usize) -> Result<Bat, ExecError> {
        match self.arg(k)? {
            Val::Bound(MalValue::Bat(b)) => Ok(b.clone()),
            Val::Bound(MalValue::Piece { key, index }) => {
                Ok(self.pinned(key)?.bat(*index..*index + 1)?)
            }
            other => Err(self.bad_arg(format!("bat at arg {k}, got {other:?}"))),
        }
    }

    /// The snapshot of column `key` the plan's `bpm.take` pinned.
    fn pinned(&self, key: &str) -> Result<&'v Pinned, ExecError> {
        pin_of(self.pins, key).map(|(_, p)| p)
    }

    fn atom(&self, k: usize) -> Result<&'v Atom, ExecError> {
        match self.arg(k)? {
            Val::Const(a) | Val::Bound(MalValue::Atom(a)) => Ok(a),
            other => Err(self.bad_arg(format!("scalar at arg {k}, got {other:?}"))),
        }
    }

    fn str_atom(&self, k: usize) -> Result<&'v Arc<str>, ExecError> {
        match self.atom(k)? {
            Atom::Str(s) => Ok(s),
            other => Err(self.bad_arg(format!("string at arg {k}, got {other}"))),
        }
    }

    fn int_atom(&self, k: usize) -> Result<i64, ExecError> {
        match self.atom(k)? {
            Atom::Int(v) => Ok(*v),
            Atom::Oid(v) => Ok(*v as i64),
            other => Err(self.bad_arg(format!("int at arg {k}, got {other}"))),
        }
    }

    fn handle(&self, k: usize) -> Result<&'v Arc<str>, ExecError> {
        match self.arg(k)? {
            Val::Bound(MalValue::SegHandle(h)) => Ok(h),
            other => Err(self.bad_arg(format!("segmented-bat handle at arg {k}, got {other:?}"))),
        }
    }

    /// A column reference for the strategy-introspection ops: either a
    /// `bpm.take` handle or a bare `schema.table.column` key string.
    fn column_key(&self, k: usize) -> Result<&'v Arc<str>, ExecError> {
        match self.arg(k)? {
            Val::Bound(MalValue::SegHandle(h))
            | Val::Const(Atom::Str(h))
            | Val::Bound(MalValue::Atom(Atom::Str(h))) => Ok(h),
            other => Err(self.bad_arg(format!("handle or column key at arg {k}, got {other:?}"))),
        }
    }
}

/// The segmented column `key`.
fn segmented<'c>(catalog: &'c Catalog, key: &str) -> Result<&'c SegmentedBat, ExecError> {
    catalog
        .segmented(key)
        .ok_or_else(|| ExecError::UnknownColumn(key.to_owned()))
}

/// What a plan's `bpm.take` of a column pinned: the column's key, its id
/// and its snapshot.
type Pin = (Arc<str>, ColumnId, Pinned);

/// The pin of column `key`.
fn pin_of<'p>(pins: &'p [Pin], key: &str) -> Result<(ColumnId, &'p Pinned), ExecError> {
    let pin = pins.iter().find(|(k, ..)| **k == *key);
    pin.map(|(_, id, p)| (*id, p))
        .ok_or_else(|| ExecError::UnknownColumn(key.to_owned()))
}

/// `sql.bind` of column `id`: the base column (access 0) or its insert (1)
/// or update (2) delta, typed like the base; `None` when the column has no
/// base.
fn bind(catalog: &mut Catalog, id: ColumnId, access: i64) -> Option<Result<MalValue, ExecError>> {
    match access {
        0 => Some(match catalog.base(id)? {
            Base::Plain(b) => Ok(MalValue::Bat(b.clone())),
            // Fallback for non-optimized plans: reconstruct.
            Base::Segmented(seg) => seg.pack().map(MalValue::Bat).map_err(ExecError::from),
        }),
        _ => catalog.delta_bat(id, access).map(|d| Ok(MalValue::Bat(d?))),
    }
}

/// The interpreter: owns the variable environment for one plan execution.
pub struct Interp<'a> {
    catalog: &'a mut Catalog,
    env: Env,
    /// The slot names of the program last run, for [`Interp::get`].
    vars: Option<Arc<Vec<VarName>>>,
    /// The pieces each open segment iterator (by its target) has still
    /// to hand out.
    iters: Vec<(Option<Var>, VecDeque<MalValue>)>,
    /// The snapshot each column's first `bpm.take` of the run pinned.
    pins: Vec<Pin>,
    result: Option<Bat>,
}

impl<'a> Interp<'a> {
    /// An interpreter over `catalog`.
    pub fn new(catalog: &'a mut Catalog) -> Self {
        Interp {
            catalog,
            env: Env::default(),
            vars: None,
            iters: Vec::new(),
            pins: Vec::new(),
            result: None,
        }
    }

    /// Executes `prog` with positional `args` bound to the declared
    /// function parameters. Returns the exported result set, if any.
    pub fn run(&mut self, prog: &Program, args: &[Atom]) -> Result<Option<Bat>, ExecError> {
        self.env.0.clear();
        self.env.0.resize_with(prog.vars.len(), || None);
        self.vars = Some(Arc::clone(&prog.vars));
        self.iters.clear();
        self.pins.clear();
        self.result = None;
        for (&p, a) in prog.param_slots().iter().zip(args) {
            self.env.set(p, MalValue::Atom(a.clone()));
        }

        // var -> pc of the statement after its barrier.
        let mut open_blocks: Vec<(Var, usize)> = Vec::new();
        let mut pc = 0usize;
        while pc < prog.stmts.len() {
            match &prog.stmts[pc] {
                Stmt::Function { .. } | Stmt::End => pc += 1,
                Stmt::Assign(i) => {
                    let v = self.exec(prog, i)?;
                    if let Some(t) = i.target {
                        self.env.set(t, v);
                    }
                    pc += 1;
                }
                Stmt::Barrier(i) => {
                    let target = i.target.ok_or(ExecError::MissingTarget("barrier"))?;
                    let v = self.exec(prog, i)?;
                    if v.truthy() {
                        self.env.set(target, v);
                        open_blocks.push((target, pc + 1));
                        pc += 1;
                    } else {
                        // Skip to the matching exit.
                        let exit = prog.stmts[pc + 1..]
                            .iter()
                            .position(|s| matches!(s, Stmt::Exit(v) if *v == target))
                            .ok_or_else(|| {
                                ExecError::NoMatchingExit(prog.name(target).to_string())
                            })?;
                        pc = pc + 1 + exit + 1;
                    }
                }
                Stmt::Redo(i) => {
                    let target = i.target.ok_or(ExecError::MissingTarget("redo"))?;
                    let v = self.exec(prog, i)?;
                    if v.truthy() {
                        let body = open_blocks
                            .iter()
                            .rev()
                            .find(|(v, _)| *v == target)
                            .map(|(_, pc)| *pc)
                            .ok_or_else(|| {
                                ExecError::RedoOutsideBlock(prog.name(target).to_string())
                            })?;
                        self.env.set(target, v);
                        pc = body;
                    } else {
                        pc += 1;
                    }
                }
                Stmt::Exit(v) => {
                    while open_blocks.last().is_some_and(|(b, _)| b == v) {
                        open_blocks.pop();
                    }
                    pc += 1;
                }
            }
        }
        Ok(self.result.take())
    }

    /// Reads a variable of the last run by name (tests, diagnostics).
    pub fn get(&self, var: &str) -> Option<&MalValue> {
        let slot = self.vars.as_ref()?.iter().position(|n| n.is(var))?;
        self.env.get(Var::at(slot as u32))
    }

    fn exec(&mut self, prog: &Program, i: &Instruction) -> Result<MalValue, ExecError> {
        let f = Frame {
            prog,
            env: &self.env,
            pins: &self.pins,
            i,
        };
        let catalog = &*self.catalog;
        match i.op {
            Op::SqlBind => {
                f.need_args(4)?;
                let names = [f.str_atom(0)?, f.str_atom(1)?, f.str_atom(2)?];
                let access = f.int_atom(3)?;
                if !(0..=2).contains(&access) {
                    return Err(f.bad_arg(format!(
                        "access code 0 (base), 1 (inserts) or 2 (updates) at arg 3, got {access}"
                    )));
                }
                let id = self.catalog.resolve_column(names);
                let bound = id.and_then(|id| bind(self.catalog, id, access));
                bound.unwrap_or_else(|| {
                    let key = names.map(|n| &**n).join(".");
                    Err(ExecError::UnknownColumn(key))
                })
            }
            Op::SqlBindDbat => {
                f.need_args(2)?;
                let names = [f.str_atom(0)?, f.str_atom(1)?];
                Ok(MalValue::Bat(match self.catalog.resolve_table(names) {
                    Some(t) => self.catalog.dbat(t),
                    None => Bat::dense_oid(Vec::new()),
                }))
            }
            Op::SqlSetMergeThreshold => {
                // The `ALTER TABLE … SET MERGE THRESHOLD n` DDL: per-table
                // override of the auto-compaction threshold (0 disables).
                f.need_args(3)?;
                let (schema, table) = (f.str_atom(0)?, f.str_atom(1)?);
                let rows = f.int_atom(2)?.max(0) as usize;
                self.catalog.set_table_merge_threshold(schema, table, rows);
                Ok(MalValue::Atom(Atom::Int(rows as i64)))
            }
            Op::SqlPendingRows => {
                // Pending (un-merged) delta rows of a table — the overlay
                // size readers currently merge on the fly.
                f.need_args(2)?;
                let (schema, table) = (f.str_atom(0)?, f.str_atom(1)?);
                let n = self.catalog.pending_rows(schema, table);
                Ok(MalValue::Atom(Atom::Int(n as i64)))
            }
            Op::SqlSubdelta => {
                f.need_args(6)?;
                Ok(MalValue::Bat(algebra::sub_delta(
                    &f.bat(0)?,
                    &f.bat(1)?,
                    &f.bat(2)?,
                    &f.bat(3)?,
                    f.atom(4)?,
                    f.atom(5)?,
                )?))
            }
            Op::SqlProjectdelta => {
                f.need_args(4)?;
                Ok(MalValue::Bat(algebra::project_delta(
                    &f.bat(0)?,
                    &f.bat(1)?,
                    &f.bat(2)?,
                    &f.bat(3)?,
                )?))
            }
            Op::SqlResultSet => {
                f.need_args(3)?;
                self.result = Some(f.bat(2)?);
                Ok(MalValue::Atom(Atom::Int(1)))
            }
            Op::SqlRsColumn | Op::SqlExportResult => Ok(MalValue::Nil),
            Op::CalcOid => {
                f.need_args(1)?;
                match f.atom(0)? {
                    Atom::Oid(v) => Ok(MalValue::Atom(Atom::Oid(*v))),
                    Atom::Int(v) => Ok(MalValue::Atom(Atom::Oid(*v as u64))),
                    other => Err(f.bad_arg(format!("oid-coercible value, got {other}"))),
                }
            }
            Op::AlgebraSelect => {
                f.need_args(3)?;
                Ok(MalValue::Bat(algebra::select(
                    &f.bat(0)?,
                    f.atom(1)?,
                    f.atom(2)?,
                )?))
            }
            Op::AlgebraUselect => {
                f.need_args(3)?;
                if let Val::Bound(MalValue::Piece { key, index }) = f.arg(0)? {
                    let (lo, hi) = (f.atom(1)?, f.atom(2)?);
                    // A bound error is `uselect`'s own, as over the bat.
                    return match f.pinned(key)?.uselect(*index, lo, hi) {
                        Ok(b) => Ok(MalValue::Bat(b)),
                        Err(BpmError::Bat(e)) => Err(ExecError::Bat(e)),
                        Err(e) => Err(ExecError::Bpm(e)),
                    };
                }
                Ok(MalValue::Bat(algebra::uselect(
                    &f.bat(0)?,
                    f.atom(1)?,
                    f.atom(2)?,
                )?))
            }
            Op::AlgebraKunion => {
                f.need_args(2)?;
                Ok(MalValue::Bat(algebra::kunion(&f.bat(0)?, &f.bat(1)?)?))
            }
            Op::AlgebraKdifference => {
                f.need_args(2)?;
                Ok(MalValue::Bat(algebra::kdifference(&f.bat(0)?, &f.bat(1)?)?))
            }
            Op::AlgebraKintersect => {
                f.need_args(2)?;
                Ok(MalValue::Bat(algebra::kintersect(&f.bat(0)?, &f.bat(1)?)?))
            }
            Op::AlgebraMarkT | Op::AlgebraMarkt => {
                f.need_args(2)?;
                let b = f.bat(0)?;
                let base = match f.atom(1)? {
                    Atom::Oid(v) => *v,
                    Atom::Int(v) => *v as u64,
                    other => return Err(f.bad_arg(format!("oid base, got {other}"))),
                };
                Ok(MalValue::Bat(algebra::mark_t(&b, base)))
            }
            Op::BatReverse => {
                f.need_args(1)?;
                Ok(MalValue::Bat(algebra::reverse(&f.bat(0)?)?))
            }
            Op::BatAppend => {
                f.need_args(2)?;
                Ok(MalValue::Bat(algebra::append(&f.bat(0)?, &f.bat(1)?)?))
            }
            Op::BatSlice => {
                f.need_args(3)?;
                let b = f.bat(0)?;
                let lo = f.int_atom(1)?.max(0) as usize;
                let hi = f.int_atom(2)?.max(0) as usize;
                Ok(MalValue::Bat(algebra::slice(&b, lo, hi)))
            }
            Op::AlgebraJoin => {
                f.need_args(2)?;
                Ok(MalValue::Bat(algebra::join(&f.bat(0)?, &f.bat(1)?)?))
            }
            Op::AggrCount => Ok(MalValue::Atom(algebra::count(&f.bat(0)?))),
            Op::AggrSum => Ok(MalValue::Atom(algebra::sum(&f.bat(0)?)?)),
            Op::AggrMin => Ok(MalValue::Atom(algebra::min(&f.bat(0)?)?)),
            Op::AggrMax => Ok(MalValue::Atom(algebra::max(&f.bat(0)?)?)),
            Op::BpmTake => {
                f.need_args(1)?;
                let key = match f.atom(0)? {
                    Atom::Str(s) => Arc::clone(s),
                    other => return Err(f.bad_arg(format!("column key, got {other}"))),
                };
                if !self.pins.iter().any(|(k, ..)| *k == key) {
                    let id = self.catalog.resolve_key(&key);
                    let seg = id.and_then(|id| self.catalog.segmented_at(id).map(|s| (id, s)));
                    let (id, seg) = seg.ok_or_else(|| ExecError::UnknownColumn(key.to_string()))?;
                    self.pins.push((Arc::clone(&key), id, seg.pinned()));
                }
                Ok(MalValue::SegHandle(key))
            }
            Op::BpmNew => Ok(MalValue::SegResult(Vec::new())),
            Op::BpmNewIterator => {
                f.need_args(3)?;
                let key = f.handle(0)?;
                let (Some(lo), Some(hi)) = (f.atom(1)?.as_f64(), f.atom(2)?.as_f64()) else {
                    return Err(f.bad_arg("numeric bounds".to_owned()));
                };
                let mut queue: VecDeque<MalValue> = f
                    .pinned(key)?
                    .overlapping(lo, hi)
                    .map(|index| MalValue::Piece {
                        key: Arc::clone(key),
                        index,
                    })
                    .collect();
                match queue.pop_front() {
                    Some(first) => {
                        match self.iters.iter_mut().find(|(t, _)| *t == i.target) {
                            Some((_, open)) => *open = queue,
                            None => self.iters.push((i.target, queue)),
                        }
                        Ok(first)
                    }
                    None => Ok(MalValue::Nil),
                }
            }
            Op::BpmHasMoreElements => Ok(self
                .iters
                .iter_mut()
                .find(|(t, _)| *t == i.target)
                .and_then(|(_, queue)| queue.pop_front())
                .unwrap_or(MalValue::Nil)),
            Op::BpmAddSegment => {
                f.need_args(2)?;
                let b = f.bat(1)?;
                let Some(Arg::Var(var)) = i.arg(0) else {
                    return Err(f.bad_arg("result variable".to_owned()));
                };
                let name = || prog.name(var).to_string();
                match self.env.get_mut(var) {
                    Some(MalValue::SegResult(parts)) => {
                        parts.push(b);
                        Ok(MalValue::Nil)
                    }
                    Some(_) => Err(ExecError::BadArg {
                        call: prog.qualified(i),
                        expected: format!("{} to be a bpm.new result", name()),
                    }),
                    None => Err(ExecError::Unbound(name())),
                }
            }
            Op::BpmPack => {
                f.need_args(1)?;
                match f.arg(0)? {
                    Val::Bound(MalValue::SegResult(parts)) => {
                        let mut acc: Option<Bat> = None;
                        for p in parts {
                            acc = Some(match acc {
                                None => p.clone(),
                                Some(a) => algebra::append(&a, p)?,
                            });
                        }
                        Ok(MalValue::Bat(acc.unwrap_or(Bat::new(
                            Head::Void { base: 0 },
                            Tail::Nil(0),
                        )?)))
                    }
                    Val::Bound(MalValue::SegHandle(key)) => {
                        let pinned = f.pinned(key)?;
                        Ok(MalValue::Bat(pinned.bat(0..pinned.count())?))
                    }
                    other => Err(f.bad_arg(format!("segmented result or handle, got {other:?}"))),
                }
            }
            Op::BpmTakeSegment => {
                // A handle, not the piece's bat: the index is checked now,
                // the rows are read by whoever consumes it.
                f.need_args(2)?;
                let key = f.handle(0)?;
                let index = f.int_atom(1)?.max(0) as usize;
                if index >= f.pinned(key)?.count() {
                    return Err(BpmError::BadPiece(index).into());
                }
                Ok(MalValue::Piece {
                    key: Arc::clone(key),
                    index,
                })
            }
            Op::BpmSegments => {
                f.need_args(1)?;
                Ok(MalValue::Atom(Atom::Int(
                    f.pinned(f.handle(0)?)?.count() as i64
                )))
            }
            Op::BpmAdapt => {
                f.need_args(3)?;
                let (key, lo, hi) = (f.handle(0)?, f.atom(1)?, f.atom(2)?);
                let (id, _) = pin_of(&self.pins, key)?;
                let seg = self
                    .catalog
                    .segmented_mut_at(id)
                    .ok_or_else(|| ExecError::UnknownColumn(key.to_string()))?;
                let splits = seg.adapt(lo, hi)?;
                Ok(MalValue::Atom(Atom::Int(splits as i64)))
            }
            Op::BpmStrategy => {
                // Inspect a column's live strategy.
                f.need_args(1)?;
                let key = f.column_key(0)?;
                Ok(MalValue::Atom(Atom::Str(
                    segmented(catalog, key)?.strategy_name().into(),
                )))
            }
            Op::BpmSetStrategy => {
                // The DDL hook: re-organize a column under another kind.
                f.need_args(2)?;
                let (key, token) = (f.column_key(0)?, f.str_atom(1)?);
                let kind = StrategyKind::from_token(token).ok_or_else(|| {
                    ExecError::Catalog(CatalogError::UnknownStrategy(token.to_string()))
                })?;
                self.catalog.set_strategy(key, kind)?;
                Ok(MalValue::Atom(Atom::Str(kind.token().into())))
            }
            Op::IoPrint | Op::LanguagePass => Ok(MalValue::Nil),
            Op::Unknown { .. } => Err(ExecError::UnknownFunction(prog.qualified(i))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// sys.P with ra (dbl) and objid (int); ra values indexed by oid.
    fn catalog(segmented_ra: bool) -> Catalog {
        let ra = vec![204.9, 205.05, 205.11, 205.13, 205.115, 206.0];
        let objid = vec![9000, 9001, 9002, 9003, 9004, 9005];
        let mut c = Catalog::new();
        if segmented_ra {
            c.register_segmented(
                "sys",
                "P",
                "ra",
                Bat::dense_dbl(ra),
                204.0,
                207.0,
                soc_core::StrategySpec::new(StrategyKind::Cracking),
            )
            .unwrap();
        } else {
            c.register_bat("sys", "P", "ra", Bat::dense_dbl(ra));
        }
        c.register_bat("sys", "P", "objid", Bat::dense_int(objid));
        c
    }

    const FIGURE1: &str = r#"
function user.s1_0(A0:dbl,A1:dbl):void;
    X1:bat[:oid,:dbl]  := sql.bind("sys","P","ra",0);
    X16:bat[:oid,:dbl] := sql.bind("sys","P","ra",1);
    X19:bat[:oid,:dbl] := sql.bind("sys","P","ra",2);
    X23:bat[:oid,:oid] := sql.bind_dbat("sys","P",1);
    X30:bat[:oid,:lng] := sql.bind("sys","P","objid",0);
    X32:bat[:oid,:lng] := sql.bind("sys","P","objid",1);
    X34:bat[:oid,:lng] := sql.bind("sys","P","objid",2);
    X14 := algebra.uselect(X1,A0,A1,true,true);
    X17 := algebra.uselect(X16,A0,A1,true,true);
    X18 := algebra.kunion(X14,X17);
    X20 := algebra.kdifference(X18,X19);
    X21 := algebra.uselect(X19,A0,A1,true,true);
    X22 := algebra.kunion(X20,X21);
    X24 := bat.reverse(X23);
    X25 := algebra.kdifference(X22,X24);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X25,X26);
    X29 := bat.reverse(X28);
    X33 := algebra.kunion(X30,X32);
    X35 := algebra.kdifference(X33,X34);
    X36 := algebra.kunion(X35,X34);
    X37 := algebra.join(X29,X36);
    X38 := sql.resultSet(1,1,X37);
    sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
    sql.exportResult(X38,"");
end s1_0;
"#;

    #[test]
    fn figure1_plan_runs_end_to_end() {
        let mut c = catalog(false);
        let prog = parse(FIGURE1).unwrap();
        let mut interp = Interp::new(&mut c);
        let result = interp
            .run(&prog, &[Atom::Dbl(205.1), Atom::Dbl(205.12)])
            .unwrap()
            .expect("plan exports a result");
        // ra between 205.1 and 205.12 -> oids 2 and 4 -> objids 9002, 9004.
        assert_eq!(result.len(), 2);
        let Tail::Int(ids) = result.tail() else {
            panic!("int tail")
        };
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![9002, 9004]);
    }

    #[test]
    fn binds_and_pass_through_operators_share_the_catalog_column() {
        // No pending deltas: every union/difference on the projection side
        // has an empty operand, so X36 is still the catalog's own buffers.
        let mut c = catalog(false);
        let prog = parse(FIGURE1).unwrap();
        let mut interp = Interp::new(&mut c);
        let result = interp
            .run(&prog, &[Atom::Dbl(205.1), Atom::Dbl(205.12)])
            .unwrap()
            .expect("result");
        let bound = |var: &str| match interp.get(var) {
            Some(MalValue::Bat(b)) => b.clone(),
            other => panic!("{var} must be a bat, got {other:?}"),
        };
        let (x30, x36, x37) = (bound("X30"), bound("X36"), bound("X37"));
        assert!(result.shares_storage_with(&x37), "run() hands X37 out");
        drop(interp);
        let objid = c.bat("sys.P.objid").unwrap();
        assert!(x30.shares_storage_with(objid), "sql.bind(…,0) copied");
        assert!(x36.shares_storage_with(objid), "delta merge copied");
    }

    #[test]
    fn delta_binds_are_typed_like_the_segmented_base() {
        let mut c = catalog(true);
        c.insert_row("sys", "P", &[("ra", Atom::Dbl(205.111))]);
        let prog = parse(
            r#"I := sql.bind("sys","P","ra",1);
               U := sql.bind("sys","P","ra",2);"#,
        )
        .unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&prog, &[]).unwrap();
        let Some(MalValue::Bat(ins)) = interp.get("I") else {
            panic!("I must be a bat")
        };
        assert_eq!(ins.tail(), &Tail::Dbl(vec![205.111].into()));
        let Some(MalValue::Bat(upd)) = interp.get("U") else {
            panic!("U must be a bat")
        };
        assert!(upd.is_empty());
        assert_eq!(upd.tail().type_name(), "dbl");
    }

    #[test]
    fn an_unknown_bind_access_code_is_an_error_not_an_empty_delta() {
        // With an insert pending, an access code that silently bound
        // nothing would answer as if no delta were pending.
        for segmented in [false, true] {
            let mut c = catalog(segmented);
            c.insert_row("sys", "P", &[("ra", Atom::Dbl(205.111))]);
            for access in [3, -1] {
                let prog = parse(&format!(r#"I := sql.bind("sys","P","ra",{access});"#)).unwrap();
                match Interp::new(&mut c).run(&prog, &[]) {
                    Err(ExecError::BadArg { call, expected }) => {
                        assert_eq!(call, "sql.bind");
                        assert!(expected.contains("0 (base), 1 (inserts) or 2 (updates)"));
                        assert!(expected.ends_with(&format!("got {access}")), "{expected}");
                    }
                    other => panic!("access {access} must be rejected, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn figure1_runs_against_segmented_column_via_fallback() {
        // Unoptimized plan over a segmented ra: sql.bind falls back to
        // packing the pieces; results stay identical.
        let mut c = catalog(true);
        let prog = parse(FIGURE1).unwrap();
        let mut interp = Interp::new(&mut c);
        let result = interp
            .run(&prog, &[Atom::Dbl(205.1), Atom::Dbl(205.12)])
            .unwrap()
            .expect("result");
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn iterator_block_executes_per_segment() {
        let mut c = catalog(true);
        // Pre-split the ra column so the iterator sees several pieces.
        c.segmented_mut("sys.P.ra")
            .unwrap()
            .adapt(&Atom::Dbl(205.0), &Atom::Dbl(205.12))
            .unwrap();
        assert!(c.segmented("sys.P.ra").unwrap().piece_count() > 1);
        let src = r#"
function user.q(A0:dbl,A1:dbl):void;
    Y1 := bpm.take("sys.P.ra");
    Y2 := bpm.new();
    barrier rseg := bpm.newIterator(Y1,A0,A1);
    T1 := algebra.uselect(rseg,A0,A1);
    bpm.addSegment(Y2,T1);
    redo rseg := bpm.hasMoreElements(Y1,A0,A1);
    exit rseg;
    X14 := bpm.pack(Y2);
    X38 := sql.resultSet(1,1,X14);
end q;
"#;
        let prog = parse(src).unwrap();
        let mut interp = Interp::new(&mut c);
        let result = interp
            .run(&prog, &[Atom::Dbl(205.1), Atom::Dbl(205.12)])
            .unwrap()
            .expect("result");
        assert_eq!(result.len(), 2);
        let mut oids = result.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, vec![2, 4], "original oids preserved across segments");
    }

    #[test]
    fn iterator_with_no_overlap_skips_the_block() {
        let mut c = catalog(true);
        let src = r#"
    Y1 := bpm.take("sys.P.ra");
    Y2 := bpm.new();
    barrier rseg := bpm.newIterator(Y1,300.0,301.0);
    T1 := algebra.uselect(rseg,300.0,301.0);
    bpm.addSegment(Y2,T1);
    redo rseg := bpm.hasMoreElements(Y1,300.0,301.0);
    exit rseg;
    X14 := bpm.pack(Y2);
"#;
        let prog = parse(src).unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&prog, &[]).unwrap();
        let Some(MalValue::Bat(b)) = interp.get("X14") else {
            panic!("X14 must be a bat")
        };
        assert!(b.is_empty());
        // T1 never executed.
        assert!(interp.get("T1").is_none());
    }

    #[test]
    fn adapt_call_reorganizes_the_catalog_column() {
        let mut c = catalog(true);
        let src = r#"
    Y1 := bpm.take("sys.P.ra");
    N := bpm.adapt(Y1,205.1,205.12);
    K := bpm.segments(Y1);
"#;
        let prog = parse(src).unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&prog, &[]).unwrap();
        // The handle reads the snapshot `bpm.take` pinned; the column has
        // moved on.
        let Some(&MalValue::Atom(Atom::Int(k))) = interp.get("K") else {
            panic!("K must be an int")
        };
        drop(interp);
        let seg = c.segmented("sys.P.ra").unwrap();
        assert!(
            seg.piece_count() > k as usize,
            "adaptation must have split the column"
        );
        seg.validate().unwrap();
    }

    #[test]
    fn strategy_is_inspectable_and_switchable_from_mal() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl(vec![204.9, 205.05, 205.11, 205.13]),
            204.0,
            207.0,
            soc_core::StrategySpec::new(StrategyKind::ApmSegm),
        )
        .unwrap();
        let src = r#"
    S1 := bpm.strategy("sys.P.ra");
    K  := bpm.setStrategy("sys.P.ra","cracking");
    S2 := bpm.strategy("sys.P.ra");
"#;
        let prog = parse(src).unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&prog, &[]).unwrap();
        let Some(MalValue::Atom(Atom::Str(s1))) = interp.get("S1") else {
            panic!("S1 must be a string")
        };
        assert_eq!(&**s1, "APM 3K-12K Segm");
        let Some(MalValue::Atom(Atom::Str(s2))) = interp.get("S2") else {
            panic!("S2 must be a string")
        };
        assert_eq!(&**s2, "Cracking");
        assert_eq!(
            c.strategy_spec("sys.P.ra").map(|s| s.kind),
            Some(StrategyKind::Cracking)
        );
    }

    #[test]
    fn set_strategy_with_bad_token_is_a_typed_error() {
        let mut c = catalog(true);
        let prog = parse(r#"K := bpm.setStrategy("sys.P.ra","btree");"#).unwrap();
        assert!(matches!(
            Interp::new(&mut c).run(&prog, &[]),
            Err(ExecError::Catalog(
                crate::catalog::CatalogError::UnknownStrategy(_)
            ))
        ));
    }

    #[test]
    fn unknown_function_and_unbound_var_error() {
        let mut c = catalog(false);
        let prog = parse("X := nosuch.fn(1);").unwrap();
        assert!(matches!(
            Interp::new(&mut c).run(&prog, &[]),
            Err(ExecError::UnknownFunction(_))
        ));
        let prog = parse("X := aggr.count(Y);").unwrap();
        assert!(matches!(
            Interp::new(&mut c).run(&prog, &[]),
            Err(ExecError::Unbound(_))
        ));
    }

    #[test]
    fn a_variable_rebound_inside_a_block_reads_its_latest_value() {
        let mut c = catalog(true);
        c.segmented_mut("sys.P.ra")
            .unwrap()
            .adapt(&Atom::Dbl(205.0), &Atom::Dbl(205.12))
            .unwrap();
        let pieces = c.segmented("sys.P.ra").unwrap().piece_count();
        assert!(pieces > 2);
        // `rseg`, `T1` and `N` are rebound on every pass through the block;
        // each read inside it sees the current pass's value.
        let src = r#"
    Y1 := bpm.take("sys.P.ra");
    Y2 := bpm.new();
    barrier rseg := bpm.newIterator(Y1,204.0,207.0);
    T1 := algebra.uselect(rseg,204.0,207.0);
    N := aggr.count(T1);
    bpm.addSegment(Y2,T1);
    redo rseg := bpm.hasMoreElements(Y1,204.0,207.0);
    exit rseg;
    X14 := bpm.pack(Y2);
"#;
        let prog = parse(src).unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&prog, &[]).unwrap();
        let Some(MalValue::Bat(all)) = interp.get("X14") else {
            panic!("X14 must be a bat")
        };
        let mut oids = all.head_oids();
        oids.sort_unstable();
        assert_eq!(oids, (0..6).collect::<Vec<u64>>(), "each piece once");
        let Some(MalValue::Bat(last)) = interp.get("T1") else {
            panic!("T1 must be a bat")
        };
        let Some(MalValue::Atom(Atom::Int(n))) = interp.get("N") else {
            panic!("N must be an int")
        };
        assert_eq!(*n, last.len() as i64, "N counted the last pass's T1");
        let tail = algebra::slice(all, all.len() - last.len(), all.len());
        assert_eq!(tail.head_oids(), last.head_oids(), "T1 is the last piece's");
    }

    #[test]
    fn an_unknown_call_fails_only_when_it_runs() {
        let mut c = catalog(true);
        // The block is skipped: no piece overlaps [300, 301].
        let skipped = parse(
            r#"
    Y1 := bpm.take("sys.P.ra");
    barrier rseg := bpm.newIterator(Y1,300.0,301.0);
    X := nosuch.fn(rseg);
    redo rseg := bpm.hasMoreElements(Y1,300.0,301.0);
    exit rseg;
    K := bpm.segments(Y1);
"#,
        )
        .unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&skipped, &[]).unwrap();
        assert!(interp.get("X").is_none());
        assert!(matches!(
            interp.get("K"),
            Some(MalValue::Atom(Atom::Int(1)))
        ));
        // Entered, it fails with the call's own name.
        let entered = parse(
            r#"
    Y1 := bpm.take("sys.P.ra");
    barrier rseg := bpm.newIterator(Y1,204.0,207.0);
    X := nosuch.fn(rseg);
    redo rseg := bpm.hasMoreElements(Y1,204.0,207.0);
    exit rseg;
"#,
        )
        .unwrap();
        match Interp::new(&mut c).run(&entered, &[]) {
            Err(ExecError::UnknownFunction(name)) => assert_eq!(name, "nosuch.fn"),
            other => panic!("expected an unknown function, got {other:?}"),
        }
    }

    #[test]
    fn a_compiled_plan_and_its_text_answer_alike_and_read_by_name() {
        let sql = "SELECT objid FROM sys.P WHERE ra BETWEEN 205.1 AND 205.12";
        for segmented in [false, true] {
            let mut c = catalog(segmented);
            c.insert_row(
                "sys",
                "P",
                &[("ra", Atom::Dbl(205.111)), ("objid", Atom::Int(9006))],
            );
            c.delete_row("sys", "P", 2);
            let compiled = crate::compile_select(sql).unwrap();
            let mut answers = Vec::new();
            for (optimize, from_text) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                // An optimized plan names pieces, so it is built right
                // before it runs: the last run's `bpm.adapt` moved them.
                let mut plan = compiled.clone();
                if optimize {
                    plan = crate::SegmentOptimizer::new().optimize(&plan, &c).0;
                }
                if from_text {
                    plan = parse(&plan.render()).unwrap();
                }
                let mut interp = Interp::new(&mut c);
                let result = interp.run(&plan, &[]).unwrap().unwrap();
                let Some(MalValue::Bat(x37)) = interp.get("X37") else {
                    panic!("X37 must be a bat")
                };
                assert!(x37.shares_storage_with(&result), "X37 is the result");
                answers.push(result);
            }
            let Tail::Int(ids) = answers[0].tail() else {
                panic!("int tail")
            };
            let mut ids = ids.to_vec();
            ids.sort_unstable();
            assert_eq!(ids, [9004, 9006], "segmented {segmented}");
            for a in &answers[1..] {
                assert_eq!(a.head_oids(), answers[0].head_oids());
                assert_eq!(a.tail(), answers[0].tail());
            }
        }
    }

    #[test]
    fn aggregates_work_in_plans() {
        let mut c = catalog(false);
        let prog = parse(
            r#"X := sql.bind("sys","P","objid",0);
               S := aggr.sum(X);
               N := aggr.count(X);"#,
        )
        .unwrap();
        let mut interp = Interp::new(&mut c);
        interp.run(&prog, &[]).unwrap();
        let Some(MalValue::Atom(Atom::Int(s))) = interp.get("S") else {
            panic!()
        };
        assert_eq!(*s, 9000 + 9001 + 9002 + 9003 + 9004 + 9005);
        let Some(MalValue::Atom(Atom::Int(n))) = interp.get("N") else {
            panic!()
        };
        assert_eq!(*n, 6);
    }
}
