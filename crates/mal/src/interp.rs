//! The MAL interpreter: executes parsed programs against a [`Catalog`].
//!
//! Mirrors the MonetDB execution paradigm of Section 2 — every operator
//! materializes its result into a bat bound to a plan variable (binding a
//! column, fetching an argument and returning the result set clone a bat,
//! which shares its buffers) — and implements the `bpm` calls the segment
//! optimizer injects (Section 3.1), including the predicate-enhanced
//! segment iterator driving `barrier`/`redo`/`exit` blocks.
//!
//! The one intermediate built late is a segmented column's piece:
//! `bpm.takeSegment` and the segment iterator bind a
//! [`MalValue::Piece`] handle, `algebra.uselect` over it reads the piece
//! once and keeps only the qualifying oids, and any other consumer gets
//! the piece's bat. Before `bpm.adapt` or `bpm.setStrategy` moves a
//! column's pieces, the handles of that column a later instruction may
//! still read are built into the bats they stood for.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use soc_bat::{algebra, Atom, Bat, BatError, Head, Tail};

use soc_core::StrategyKind;

use crate::ast::{references, Arg, Instruction, Name, Program, Stmt};
use crate::bpm::{BpmError, SegmentedBat};
use crate::catalog::{Catalog, CatalogError};

/// A runtime value bound to a plan variable.
#[derive(Debug, Clone)]
pub enum MalValue {
    /// A materialized bat.
    Bat(Bat),
    /// A scalar.
    Atom(Atom),
    /// Handle to a segmented column (`bpm.take`).
    SegHandle(Arc<str>),
    /// Piece `index` of segmented column `key`, not yet read
    /// (`bpm.takeSegment`, the segment iterator).
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

fn bad_arg(i: &Instruction, expected: String) -> ExecError {
    ExecError::BadArg {
        call: i.qualified(),
        expected,
    }
}

fn need_args(i: &Instruction, n: usize) -> Result<(), ExecError> {
    if i.args.len() < n {
        Err(bad_arg(
            i,
            format!("at least {n} arguments, got {}", i.args.len()),
        ))
    } else {
        Ok(())
    }
}

/// The plan variables of one execution. Every accessor borrows: reading
/// an argument copies no name, string or bat handle the caller does not
/// ask for.
#[derive(Default)]
struct Env(HashMap<Name, MalValue>);

impl Env {
    fn arg<'v>(&'v self, i: &'v Instruction, k: usize) -> Result<Val<'v>, ExecError> {
        match i.args.get(k) {
            None => Err(bad_arg(
                i,
                format!("at least {} arguments, got {}", k + 1, i.args.len()),
            )),
            Some(Arg::Const(c)) => Ok(Val::Const(c)),
            Some(Arg::Var(v)) => self
                .0
                .get(v)
                .map(Val::Bound)
                .ok_or_else(|| ExecError::Unbound(v.to_string())),
        }
    }

    /// Argument `k` as a bat; a piece handle is read into its bat.
    fn bat(&self, catalog: &Catalog, i: &Instruction, k: usize) -> Result<Bat, ExecError> {
        match self.arg(i, k)? {
            Val::Bound(MalValue::Bat(b)) => Ok(b.clone()),
            Val::Bound(MalValue::Piece { key, index }) => {
                Ok(segmented(catalog, key)?.piece_bat(*index)?)
            }
            other => Err(bad_arg(i, format!("bat at arg {k}, got {other:?}"))),
        }
    }

    fn atom<'v>(&'v self, i: &'v Instruction, k: usize) -> Result<&'v Atom, ExecError> {
        match self.arg(i, k)? {
            Val::Const(a) | Val::Bound(MalValue::Atom(a)) => Ok(a),
            other => Err(bad_arg(i, format!("scalar at arg {k}, got {other:?}"))),
        }
    }

    fn str_atom<'v>(&'v self, i: &'v Instruction, k: usize) -> Result<&'v str, ExecError> {
        match self.atom(i, k)? {
            Atom::Str(s) => Ok(s),
            other => Err(bad_arg(i, format!("string at arg {k}, got {other}"))),
        }
    }

    fn int_atom(&self, i: &Instruction, k: usize) -> Result<i64, ExecError> {
        match self.atom(i, k)? {
            Atom::Int(v) => Ok(*v),
            Atom::Oid(v) => Ok(*v as i64),
            other => Err(bad_arg(i, format!("int at arg {k}, got {other}"))),
        }
    }

    fn handle<'v>(&'v self, i: &'v Instruction, k: usize) -> Result<&'v Arc<str>, ExecError> {
        match self.arg(i, k)? {
            Val::Bound(MalValue::SegHandle(h)) => Ok(h),
            other => Err(bad_arg(
                i,
                format!("segmented-bat handle at arg {k}, got {other:?}"),
            )),
        }
    }

    /// A column reference for the strategy-introspection ops: either a
    /// `bpm.take` handle or a bare `schema.table.column` key string.
    fn column_key<'v>(&'v self, i: &'v Instruction, k: usize) -> Result<&'v str, ExecError> {
        match self.arg(i, k)? {
            Val::Bound(MalValue::SegHandle(h)) => Ok(h),
            Val::Const(Atom::Str(h)) | Val::Bound(MalValue::Atom(Atom::Str(h))) => Ok(h),
            other => Err(bad_arg(
                i,
                format!("handle or column key at arg {k}, got {other:?}"),
            )),
        }
    }
}

/// The segmented column `key`.
fn segmented<'c>(catalog: &'c Catalog, key: &str) -> Result<&'c SegmentedBat, ExecError> {
    catalog
        .segmented(key)
        .ok_or_else(|| ExecError::UnknownColumn(key.to_owned()))
}

/// `sql.bind` of `key`: the base column (access 0) or its insert (1) or
/// update (2) delta, typed like the base.
fn bind(
    catalog: &mut Catalog,
    i: &Instruction,
    key: &str,
    access: i64,
) -> Result<MalValue, ExecError> {
    match access {
        0 => {
            if let Some(b) = catalog.bat(key) {
                Ok(MalValue::Bat(b.clone()))
            } else if let Some(seg) = catalog.segmented(key) {
                // Fallback for non-optimized plans: reconstruct.
                Ok(MalValue::Bat(seg.pack()?))
            } else {
                Err(ExecError::UnknownColumn(key.to_owned()))
            }
        }
        1 | 2 => match catalog.delta_bat(key, access) {
            Some(delta) => Ok(MalValue::Bat(delta?)),
            None => Err(ExecError::UnknownColumn(key.to_owned())),
        },
        access => Err(bad_arg(
            i,
            format!("access code 0 (base), 1 (inserts) or 2 (updates) at arg 3, got {access}"),
        )),
    }
}

/// The interpreter: owns the variable environment for one plan execution.
pub struct Interp<'a> {
    catalog: &'a mut Catalog,
    env: Env,
    /// The pieces each open segment iterator has still to hand out.
    iters: HashMap<Name, VecDeque<MalValue>>,
    result: Option<Bat>,
}

impl<'a> Interp<'a> {
    /// An interpreter over `catalog`.
    pub fn new(catalog: &'a mut Catalog) -> Self {
        Interp {
            catalog,
            env: Env::default(),
            iters: HashMap::new(),
            result: None,
        }
    }

    /// Executes `prog` with positional `args` bound to the declared
    /// function parameters. Returns the exported result set, if any.
    pub fn run(&mut self, prog: &Program, args: &[Atom]) -> Result<Option<Bat>, ExecError> {
        self.env.0.clear();
        self.env.0.reserve(prog.stmts.len());
        self.iters.clear();
        self.result = None;
        for (p, a) in prog.params().iter().zip(args) {
            self.env.0.insert(p.clone(), MalValue::Atom(a.clone()));
        }

        // var -> pc of the statement after its barrier.
        let mut open_blocks: Vec<(&Name, usize)> = Vec::new();
        let mut pc = 0usize;
        while pc < prog.stmts.len() {
            // What may still run: the rest of the plan, or all of it while
            // a `redo` can jump back.
            let later = if open_blocks.is_empty() {
                &prog.stmts[pc + 1..]
            } else {
                &prog.stmts[..]
            };
            match &prog.stmts[pc] {
                Stmt::Function { .. } | Stmt::End => pc += 1,
                Stmt::Assign(i) => {
                    let v = self.exec(i, later)?;
                    if let Some(t) = &i.target {
                        self.env.0.insert(t.clone(), v);
                    }
                    pc += 1;
                }
                Stmt::Barrier(i) => {
                    let target = i
                        .target
                        .as_ref()
                        .ok_or(ExecError::MissingTarget("barrier"))?;
                    let v = self.exec(i, later)?;
                    if v.truthy() {
                        self.env.0.insert(target.clone(), v);
                        open_blocks.push((target, pc + 1));
                        pc += 1;
                    } else {
                        // Skip to the matching exit.
                        let exit = prog.stmts[pc + 1..]
                            .iter()
                            .position(|s| matches!(s, Stmt::Exit(v) if v == target))
                            .ok_or_else(|| ExecError::NoMatchingExit(target.to_string()))?;
                        pc = pc + 1 + exit + 1;
                    }
                }
                Stmt::Redo(i) => {
                    let target = i.target.as_ref().ok_or(ExecError::MissingTarget("redo"))?;
                    let v = self.exec(i, later)?;
                    if v.truthy() {
                        let body = open_blocks
                            .iter()
                            .rev()
                            .find(|(v, _)| *v == target)
                            .map(|(_, pc)| *pc)
                            .ok_or_else(|| ExecError::RedoOutsideBlock(target.to_string()))?;
                        self.env.0.insert(target.clone(), v);
                        pc = body;
                    } else {
                        pc += 1;
                    }
                }
                Stmt::Exit(v) => {
                    while open_blocks.last().is_some_and(|(b, _)| *b == v) {
                        open_blocks.pop();
                    }
                    pc += 1;
                }
            }
        }
        Ok(self.result.take())
    }

    /// Reads a variable after a run (tests, diagnostics).
    pub fn get(&self, var: &str) -> Option<&MalValue> {
        self.env.0.get(var)
    }

    /// Builds the bats of column `key`'s piece handles that an instruction
    /// of `later` may still read — bound to a variable it reads, or queued
    /// in an open segment iterator — before the column's pieces move.
    fn pin_pieces(&mut self, key: &str, later: &[Stmt]) -> Result<(), ExecError> {
        let Some(seg) = self.catalog.segmented(key) else {
            return Ok(());
        };
        let of_key = |v: &MalValue| matches!(v, MalValue::Piece { key: k, .. } if **k == *key);
        let bound = self
            .env
            .0
            .iter_mut()
            .filter(|(var, v)| of_key(v) && references(later, var))
            .map(|(_, v)| v);
        let queued = self.iters.values_mut().flatten().filter(|v| of_key(v));
        for v in bound.chain(queued) {
            if let MalValue::Piece { index, .. } = v {
                *v = MalValue::Bat(seg.piece_bat(*index)?);
            }
        }
        Ok(())
    }

    fn exec(&mut self, i: &Instruction, later: &[Stmt]) -> Result<MalValue, ExecError> {
        let env = &self.env;
        let catalog = &*self.catalog;
        match (i.module.as_ref(), i.function.as_ref()) {
            ("sql", "bind") => {
                need_args(i, 4)?;
                let (schema, table) = (env.str_atom(i, 0)?, env.str_atom(i, 1)?);
                let column = env.str_atom(i, 2)?;
                let access = env.int_atom(i, 3)?;
                let catalog = &mut *self.catalog;
                Catalog::with_key(schema, table, column, |key| bind(catalog, i, key, access))
            }
            ("sql", "bind_dbat") => {
                need_args(i, 2)?;
                let (schema, table) = (env.str_atom(i, 0)?, env.str_atom(i, 1)?);
                Ok(MalValue::Bat(self.catalog.dbat(schema, table)))
            }
            ("sql", "setMergeThreshold") => {
                // The `ALTER TABLE … SET MERGE THRESHOLD n` DDL: per-table
                // override of the auto-compaction threshold (0 disables).
                need_args(i, 3)?;
                let (schema, table) = (env.str_atom(i, 0)?, env.str_atom(i, 1)?);
                let rows = env.int_atom(i, 2)?.max(0) as usize;
                self.catalog.set_table_merge_threshold(schema, table, rows);
                Ok(MalValue::Atom(Atom::Int(rows as i64)))
            }
            ("sql", "pendingRows") => {
                // Pending (un-merged) delta rows of a table — the overlay
                // size readers currently merge on the fly.
                need_args(i, 2)?;
                let (schema, table) = (env.str_atom(i, 0)?, env.str_atom(i, 1)?);
                let n = self.catalog.pending_rows(schema, table);
                Ok(MalValue::Atom(Atom::Int(n as i64)))
            }
            ("sql", "subdelta") => {
                need_args(i, 6)?;
                Ok(MalValue::Bat(algebra::sub_delta(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                    &env.bat(catalog, i, 2)?,
                    &env.bat(catalog, i, 3)?,
                    env.atom(i, 4)?,
                    env.atom(i, 5)?,
                )?))
            }
            ("sql", "projectdelta") => {
                need_args(i, 4)?;
                Ok(MalValue::Bat(algebra::project_delta(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                    &env.bat(catalog, i, 2)?,
                    &env.bat(catalog, i, 3)?,
                )?))
            }
            ("sql", "resultSet") => {
                need_args(i, 3)?;
                self.result = Some(env.bat(catalog, i, 2)?);
                Ok(MalValue::Atom(Atom::Int(1)))
            }
            ("sql", "rsColumn") | ("sql", "exportResult") => Ok(MalValue::Nil),
            ("calc", "oid") => {
                need_args(i, 1)?;
                match env.atom(i, 0)? {
                    Atom::Oid(v) => Ok(MalValue::Atom(Atom::Oid(*v))),
                    Atom::Int(v) => Ok(MalValue::Atom(Atom::Oid(*v as u64))),
                    other => Err(bad_arg(i, format!("oid-coercible value, got {other}"))),
                }
            }
            ("algebra", "select") => {
                need_args(i, 3)?;
                Ok(MalValue::Bat(algebra::select(
                    &env.bat(catalog, i, 0)?,
                    env.atom(i, 1)?,
                    env.atom(i, 2)?,
                )?))
            }
            ("algebra", "uselect") => {
                need_args(i, 3)?;
                if let Val::Bound(MalValue::Piece { key, index }) = env.arg(i, 0)? {
                    let seg = segmented(catalog, key)?;
                    let (lo, hi) = (env.atom(i, 1)?, env.atom(i, 2)?);
                    // A bound error is `uselect`'s own, as over the bat.
                    return match seg.piece_uselect(*index, lo, hi) {
                        Ok(b) => Ok(MalValue::Bat(b)),
                        Err(BpmError::Bat(e)) => Err(ExecError::Bat(e)),
                        Err(e) => Err(ExecError::Bpm(e)),
                    };
                }
                Ok(MalValue::Bat(algebra::uselect(
                    &env.bat(catalog, i, 0)?,
                    env.atom(i, 1)?,
                    env.atom(i, 2)?,
                )?))
            }
            ("algebra", "kunion") => {
                need_args(i, 2)?;
                Ok(MalValue::Bat(algebra::kunion(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                )?))
            }
            ("algebra", "kdifference") => {
                need_args(i, 2)?;
                Ok(MalValue::Bat(algebra::kdifference(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                )?))
            }
            ("algebra", "kintersect") => {
                need_args(i, 2)?;
                Ok(MalValue::Bat(algebra::kintersect(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                )?))
            }
            ("algebra", "markT") | ("algebra", "markt") => {
                need_args(i, 2)?;
                let b = env.bat(catalog, i, 0)?;
                let base = match env.atom(i, 1)? {
                    Atom::Oid(v) => *v,
                    Atom::Int(v) => *v as u64,
                    other => return Err(bad_arg(i, format!("oid base, got {other}"))),
                };
                Ok(MalValue::Bat(algebra::mark_t(&b, base)))
            }
            ("bat", "reverse") => {
                need_args(i, 1)?;
                Ok(MalValue::Bat(algebra::reverse(&env.bat(catalog, i, 0)?)?))
            }
            ("bat", "append") => {
                need_args(i, 2)?;
                Ok(MalValue::Bat(algebra::append(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                )?))
            }
            ("bat", "slice") => {
                need_args(i, 3)?;
                let b = env.bat(catalog, i, 0)?;
                let lo = env.int_atom(i, 1)?.max(0) as usize;
                let hi = env.int_atom(i, 2)?.max(0) as usize;
                Ok(MalValue::Bat(algebra::slice(&b, lo, hi)))
            }
            ("algebra", "join") => {
                need_args(i, 2)?;
                Ok(MalValue::Bat(algebra::join(
                    &env.bat(catalog, i, 0)?,
                    &env.bat(catalog, i, 1)?,
                )?))
            }
            ("aggr", "count") => Ok(MalValue::Atom(algebra::count(&env.bat(catalog, i, 0)?))),
            ("aggr", "sum") => Ok(MalValue::Atom(algebra::sum(&env.bat(catalog, i, 0)?)?)),
            ("aggr", "min") => Ok(MalValue::Atom(algebra::min(&env.bat(catalog, i, 0)?)?)),
            ("aggr", "max") => Ok(MalValue::Atom(algebra::max(&env.bat(catalog, i, 0)?)?)),
            ("bpm", "take") => {
                need_args(i, 1)?;
                let key = match env.atom(i, 0)? {
                    Atom::Str(s) => s,
                    other => return Err(bad_arg(i, format!("column key, got {other}"))),
                };
                if self.catalog.is_segmented(key) {
                    Ok(MalValue::SegHandle(key.as_str().into()))
                } else {
                    Err(ExecError::UnknownColumn(key.clone()))
                }
            }
            ("bpm", "new") => Ok(MalValue::SegResult(Vec::new())),
            ("bpm", "newIterator") => {
                need_args(i, 3)?;
                let key = env.handle(i, 0)?;
                let (Some(lo), Some(hi)) = (env.atom(i, 1)?.as_f64(), env.atom(i, 2)?.as_f64())
                else {
                    return Err(bad_arg(i, "numeric bounds".to_owned()));
                };
                let mut queue: VecDeque<MalValue> = segmented(catalog, key)?
                    .overlapping(lo, hi)
                    .into_iter()
                    .map(|index| MalValue::Piece {
                        key: Arc::clone(key),
                        index,
                    })
                    .collect();
                match queue.pop_front() {
                    Some(first) => {
                        let target = i.target.clone().unwrap_or(Name::Borrowed("_iter"));
                        self.iters.insert(target, queue);
                        Ok(first)
                    }
                    None => Ok(MalValue::Nil),
                }
            }
            ("bpm", "hasMoreElements") => {
                let target = i.target.as_deref().unwrap_or("_iter");
                Ok(self
                    .iters
                    .get_mut(target)
                    .and_then(VecDeque::pop_front)
                    .unwrap_or(MalValue::Nil))
            }
            ("bpm", "addSegment") => {
                need_args(i, 2)?;
                let b = env.bat(catalog, i, 1)?;
                let Some(var) = i.args[0].var() else {
                    return Err(bad_arg(i, "result variable".to_owned()));
                };
                match self.env.0.get_mut(var) {
                    Some(MalValue::SegResult(parts)) => {
                        parts.push(b);
                        Ok(MalValue::Nil)
                    }
                    Some(_) => Err(bad_arg(i, format!("{var} to be a bpm.new result"))),
                    None => Err(ExecError::Unbound(var.to_owned())),
                }
            }
            ("bpm", "pack") => {
                need_args(i, 1)?;
                match env.arg(i, 0)? {
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
                        Ok(MalValue::Bat(segmented(catalog, key)?.pack()?))
                    }
                    other => Err(bad_arg(
                        i,
                        format!("segmented result or handle, got {other:?}"),
                    )),
                }
            }
            ("bpm", "takeSegment") => {
                // A handle, not the piece's bat: the index is checked now,
                // the rows are read by whoever consumes it.
                need_args(i, 2)?;
                let key = env.handle(i, 0)?;
                let index = env.int_atom(i, 1)?.max(0) as usize;
                if index >= segmented(catalog, key)?.piece_count() {
                    return Err(BpmError::BadPiece(index).into());
                }
                Ok(MalValue::Piece {
                    key: Arc::clone(key),
                    index,
                })
            }
            ("bpm", "segments") => {
                need_args(i, 1)?;
                let key = env.handle(i, 0)?;
                Ok(MalValue::Atom(Atom::Int(
                    segmented(catalog, key)?.piece_count() as i64,
                )))
            }
            ("bpm", "adapt") => {
                need_args(i, 3)?;
                let key = Arc::clone(env.handle(i, 0)?);
                self.pin_pieces(&key, later)?;
                let (lo, hi) = (self.env.atom(i, 1)?, self.env.atom(i, 2)?);
                let seg = self
                    .catalog
                    .segmented_mut(&key)
                    .ok_or_else(|| ExecError::UnknownColumn(key.to_string()))?;
                let splits = seg.adapt(lo, hi)?;
                Ok(MalValue::Atom(Atom::Int(splits as i64)))
            }
            ("bpm", "strategy") => {
                // Inspect a column's live strategy.
                need_args(i, 1)?;
                let key = env.column_key(i, 0)?;
                Ok(MalValue::Atom(Atom::Str(
                    segmented(catalog, key)?.strategy_name(),
                )))
            }
            ("bpm", "setStrategy") => {
                // The DDL hook: re-organize a column under another kind.
                need_args(i, 2)?;
                let key = env.column_key(i, 0)?.to_owned();
                let token = env.str_atom(i, 1)?;
                let kind = StrategyKind::from_token(token).ok_or_else(|| {
                    ExecError::Catalog(CatalogError::UnknownStrategy(token.to_owned()))
                })?;
                self.pin_pieces(&key, later)?;
                self.catalog.set_strategy(&key, kind)?;
                Ok(MalValue::Atom(Atom::Str(kind.token().to_owned())))
            }
            ("io", "print") | ("language", "pass") => Ok(MalValue::Nil),
            _ => Err(ExecError::UnknownFunction(i.qualified())),
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
        let Some(MalValue::Atom(Atom::Int(k))) = interp.get("K") else {
            panic!("K must be an int")
        };
        assert!(*k > 1, "adaptation must have split the column");
        c.segmented("sys.P.ra").unwrap().validate().unwrap();
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
        assert_eq!(s1, "APM 3K-12K Segm");
        let Some(MalValue::Atom(Atom::Str(s2))) = interp.get("S2") else {
            panic!("S2 must be a string")
        };
        assert_eq!(s2, "Cracking");
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
