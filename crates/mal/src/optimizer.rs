//! The segment optimizer — the tactical-layer plan rewrite of Section 3.1.
//!
//! "We merely have to identify candidate bats and inject calls to a
//! segment optimizer, which transforms operations against a segmented bat
//! into a segment-aware instruction sequence against individual segments of
//! the bat relevant to the query. Two principle replacement strategies are
//! possible and the choice is based on the number of segments …: for a
//! small number of segments, an instance of the instruction is added for
//! each segment relevant to the query. For a large number of segments an
//! iterator approach is applied."
//!
//! Self-organization (Section 3.3) is injected as a `bpm.adapt` call after
//! the rewritten selection, making reorganization part of query execution.

use std::sync::Arc;

use soc_bat::Atom;

use crate::ast::{Arg, Consts, Instruction, Name, Op, Program, Stmt, Var, VarName};
use crate::bpm::SegmentedBat;
use crate::catalog::Catalog;

/// How one selection was rewritten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteStrategy {
    /// One instruction instance per relevant segment.
    Unrolled {
        /// Number of per-segment instances emitted.
        segments: usize,
    },
    /// Predicate-enhanced iterator block.
    Iterator,
}

/// What the optimizer did to a plan.
#[derive(Debug, Clone, Default)]
pub struct OptimizerReport {
    /// One entry per rewritten selection: (target var, strategy).
    pub rewrites: Vec<(Name, RewriteStrategy)>,
    /// `sql.bind` statements dropped as dead after rewriting.
    pub dropped_binds: usize,
}

/// The tactical segment optimizer.
#[derive(Debug, Clone, Copy)]
pub struct SegmentOptimizer {
    /// Segment-count threshold at or under which selections are unrolled;
    /// above it the iterator strategy is used.
    pub unroll_threshold: usize,
    /// Whether to inject `bpm.adapt` after rewritten selections
    /// (the Section 3.3 reorganization hook).
    pub inject_adaptation: bool,
}

impl Default for SegmentOptimizer {
    fn default() -> Self {
        SegmentOptimizer {
            unroll_threshold: 4,
            inject_adaptation: true,
        }
    }
}

/// A selection the optimizer rewrites: `target := op(bind, lo, hi)`,
/// where `bind` holds the segmented column `key`.
struct Selection<'c> {
    target: Var,
    op: Op,
    bind: Var,
    lo: Arg,
    hi: Arg,
    key: &'c Arc<str>,
    seg: &'c SegmentedBat,
}

/// The selection `s` is if it reads a segmented column: an
/// `algebra.select` or `algebra.uselect` with a target and two bounds
/// whose first argument is bound by `target := sql.bind(schema, table,
/// column, 0)` — the bind of a base column, with constant names — to a
/// segmented column. The names resolve as this catalog state resolved
/// them before ([`Catalog::recall_column`]).
fn segmented_selection<'c>(
    prog: &Program,
    catalog: &'c Catalog,
    s: &Stmt,
) -> Option<Selection<'c>> {
    let Stmt::Assign(i) = s else { return None };
    if !matches!(i.op, Op::AlgebraSelect | Op::AlgebraUselect) {
        return None;
    }
    let (Some(target), Some(Arg::Var(bind)), Some(lo), Some(hi)) =
        (i.target, i.arg(0), i.arg(1), i.arg(2))
    else {
        return None;
    };
    let name = |b: &Instruction, k: usize| match b.arg(k) {
        Some(Arg::Const(c)) => match prog.konst(c) {
            Atom::Str(s) => Some(s),
            _ => None,
        },
        _ => None,
    };
    let (key, seg) = prog.stmts.iter().find_map(|s| {
        let Stmt::Assign(b) = s else { return None };
        let base = matches!(b.arg(3), Some(Arg::Const(c)) if *prog.konst(c) == Atom::Int(0));
        if b.op != Op::SqlBind || b.target != Some(bind) || !base {
            return None;
        }
        let id = catalog.recall_column([name(b, 0)?, name(b, 1)?, name(b, 2)?])?;
        catalog.segmented_with_key(id)
    })?;
    Some(Selection {
        target,
        op: i.op,
        bind,
        lo,
        hi,
        key,
        seg,
    })
}

/// The plan a rewrite builds: its statements, and its variable and
/// constant tables, which start as the input's so that every slot of a
/// statement passed through keeps its meaning.
struct Rewrite {
    stmts: Vec<Stmt>,
    names: Vec<VarName>,
    consts: Consts,
    /// Variables minted so far; numbers the fresh names.
    fresh: u32,
}

impl Rewrite {
    /// The rewrite of `prog` whose first `copied` statements are passed
    /// through.
    fn new(prog: &Program, copied: usize) -> Rewrite {
        let mut stmts = Vec::with_capacity(prog.stmts.len() + 16);
        stmts.extend_from_slice(&prog.stmts[..copied]);
        let mut names = Vec::with_capacity(prog.vars.len() + 16);
        names.extend_from_slice(&prog.vars);
        Rewrite {
            stmts,
            names,
            consts: prog.consts.with_room(8),
            fresh: 0,
        }
    }

    /// A fresh variable `_{prefix}{n}`.
    fn var(&mut self, prefix: &'static str) -> Var {
        self.fresh += 1;
        self.names.push(VarName::Fresh(prefix, self.fresh));
        Var::at(self.names.len() as u32 - 1)
    }

    fn konst(&mut self, value: Atom) -> Arg {
        Arg::Const(self.consts.push(value))
    }

    /// `target := op(args)` as a fresh statement.
    fn assign<const N: usize>(&mut self, target: Option<Var>, op: Op, args: [Arg; N]) {
        self.stmts
            .push(Stmt::Assign(Instruction::new(target, op, args)));
    }
}

impl SegmentOptimizer {
    /// An optimizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrites `prog` against `catalog`, returning the new plan and a
    /// report of what changed. Plans without segmented selections come
    /// back untouched. A statement the rewrite leaves alone is copied as
    /// it is — its slots index the same names and constants in the new
    /// plan — and a statement it adds refers to its fresh variables by
    /// slot and to the column by the catalog's own shared key: no name is
    /// formatted and no key copied.
    pub fn optimize(&self, prog: &Program, catalog: &Catalog) -> (Program, OptimizerReport) {
        let mut report = OptimizerReport::default();
        // Begun at the first selection over a segmented bind.
        let mut out: Option<Rewrite> = None;
        let mut rewritten_bind_vars: Vec<Var> = Vec::new();
        for (k, s) in prog.stmts.iter().enumerate() {
            match (segmented_selection(prog, catalog, s), &mut out) {
                (None, None) => {}
                (None, Some(out)) => out.stmts.push(s.clone()),
                (Some(sel), out) => {
                    let out = out.get_or_insert_with(|| Rewrite::new(prog, k));
                    let strategy = self.expand(out, &sel);
                    report
                        .rewrites
                        .push((prog.name(sel.target).to_name(), strategy));
                    rewritten_bind_vars.push(sel.bind);
                }
            }
        }
        let Some(mut out) = out else {
            return (prog.clone(), report);
        };

        // Drop rewritten binds that no remaining instruction references.
        rewritten_bind_vars.retain(|&v| {
            let mut reads = out.stmts.iter().filter_map(Stmt::instruction);
            !reads.any(|i| i.args().contains(&Arg::Var(v)))
        });
        let before = out.stmts.len();
        out.stmts.retain(|s| {
            !matches!(s, Stmt::Assign(i) if i.op == Op::SqlBind
                && i.target.is_some_and(|t| rewritten_bind_vars.contains(&t)))
        });
        report.dropped_binds = before - out.stmts.len();

        let rewritten = Program {
            stmts: Arc::new(out.stmts),
            vars: Arc::new(out.names),
            consts: out.consts,
        };
        (rewritten, report)
    }

    /// Emits the replacement sequence for one selection; returns the
    /// strategy used.
    fn expand(&self, out: &mut Rewrite, sel: &Selection<'_>) -> RewriteStrategy {
        let Selection {
            target,
            op,
            lo,
            hi,
            key,
            seg,
            ..
        } = *sel;
        let y = out.var("Y");
        let key = out.konst(Atom::Str(Arc::clone(key)));
        out.assign(Some(y), Op::BpmTake, [key]);

        // Relevant segments: pruned via the meta-index when the predicate
        // constants are known at optimization time.
        let bound = |out: &Rewrite, a: Arg| match a {
            Arg::Const(c) => out.consts.get(c).and_then(Atom::as_f64),
            Arg::Var(_) => None,
        };
        let pieces = seg.pinned();
        let relevant = match (bound(out, lo), bound(out, hi)) {
            (Some(l), Some(h)) => pieces.overlapping(l, h),
            _ => 0..pieces.count(),
        };

        let strategy = if relevant.len() <= self.unroll_threshold {
            // Unrolled: one instruction instance per relevant segment.
            let mut partials: Vec<Var> = Vec::with_capacity(relevant.len());
            for idx in relevant.clone() {
                let s_var = out.var("S");
                let index = out.konst(Atom::Int(idx as i64));
                out.assign(Some(s_var), Op::BpmTakeSegment, [Arg::Var(y), index]);
                let t_var = out.var("T");
                out.assign(Some(t_var), op, [Arg::Var(s_var), lo, hi]);
                partials.push(t_var);
            }
            match partials.len() {
                0 => {
                    // Nothing overlaps: an empty result via an empty pack.
                    let r = out.var("R");
                    out.assign(Some(r), Op::BpmNew, []);
                    out.assign(Some(target), Op::BpmPack, [Arg::Var(r)]);
                }
                1 => {
                    // Rename the single partial into the original target.
                    if let Some(Stmt::Assign(last)) = out.stmts.last_mut() {
                        last.target = Some(target);
                    }
                }
                n => {
                    // Fold with bat.append.
                    let mut acc = partials[0];
                    for (k, &p) in partials[1..].iter().enumerate() {
                        let next = if k == n - 2 { target } else { out.var("U") };
                        out.assign(Some(next), Op::BatAppend, [Arg::Var(acc), Arg::Var(p)]);
                        acc = next;
                    }
                }
            }
            RewriteStrategy::Unrolled {
                segments: relevant.len(),
            }
        } else {
            // Iterator block (the Section 3.1 example rewrite).
            let r = out.var("R");
            let rseg = out.var("rseg");
            out.assign(Some(r), Op::BpmNew, []);
            out.stmts.push(Stmt::Barrier(Instruction::new(
                Some(rseg),
                Op::BpmNewIterator,
                [Arg::Var(y), lo, hi],
            )));
            let t = out.var("T");
            out.assign(Some(t), op, [Arg::Var(rseg), lo, hi]);
            out.assign(None, Op::BpmAddSegment, [Arg::Var(r), Arg::Var(t)]);
            out.stmts.push(Stmt::Redo(Instruction::new(
                Some(rseg),
                Op::BpmHasMoreElements,
                [Arg::Var(y), lo, hi],
            )));
            out.stmts.push(Stmt::Exit(rseg));
            out.assign(Some(target), Op::BpmPack, [Arg::Var(r)]);
            RewriteStrategy::Iterator
        };

        if self.inject_adaptation {
            out.assign(None, Op::BpmAdapt, [Arg::Var(y), lo, hi]);
        }
        strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::parser::parse;
    use soc_bat::Bat;
    use soc_core::{StrategyKind, StrategySpec};

    fn catalog() -> Catalog {
        let ra: Vec<f64> = (0..1000).map(|i| 200.0 + i as f64 * 0.01).collect();
        let objid: Vec<i64> = (0..1000).map(|i| 9000 + i).collect();
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl(ra),
            200.0,
            210.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        c.register_bat("sys", "P", "objid", Bat::dense_int(objid));
        c
    }

    const PLAN: &str = r#"
function user.q(A0:dbl,A1:dbl):void;
    X1:bat[:oid,:dbl] := sql.bind("sys","P","ra",0);
    X14 := algebra.select(X1,A0,A1);
    X38 := sql.resultSet(1,1,X14);
end q;
"#;

    #[test]
    fn fresh_column_uses_unrolled_single_segment() {
        let c = catalog();
        let prog = parse(PLAN).unwrap();
        let (opt, report) = SegmentOptimizer::new().optimize(&prog, &c);
        assert_eq!(report.rewrites.len(), 1);
        // Bounds are plan parameters (vars), one segment -> unrolled over 1.
        assert_eq!(
            report.rewrites[0].1,
            RewriteStrategy::Unrolled { segments: 1 }
        );
        assert_eq!(
            report.dropped_binds, 1,
            "the sql.bind is dead after rewrite"
        );
        let text = opt.render();
        assert!(text.contains("bpm.take"));
        assert!(!text.contains("sql.bind(\"sys\",\"P\",\"ra\""));
    }

    #[test]
    fn optimized_plan_matches_unoptimized_results() {
        let mut c = catalog();
        let prog = parse(PLAN).unwrap();
        let args = [Atom::Dbl(202.0), Atom::Dbl(203.0)];
        let baseline = Interp::new(&mut c).run(&prog, &args).unwrap().unwrap();

        let (opt, _) = SegmentOptimizer::new().optimize(&prog, &c);
        let optimized = Interp::new(&mut c).run(&opt, &args).unwrap().unwrap();
        assert_eq!(baseline.len(), optimized.len());
        let mut a = baseline.head_oids();
        let mut b = optimized.head_oids();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptation_splits_then_iterator_strategy_kicks_in() {
        let mut c = catalog();
        let prog = parse(PLAN).unwrap();
        // Run several optimized queries; each injects bpm.adapt.
        for k in 0..6 {
            let lo = 200.5 + k as f64;
            let (opt, _) = SegmentOptimizer::new().optimize(&prog, &c);
            let args = [Atom::Dbl(lo), Atom::Dbl(lo + 0.4)];
            Interp::new(&mut c).run(&opt, &args).unwrap();
        }
        let pieces = c.segmented("sys.P.ra").unwrap().piece_count();
        assert!(
            pieces > 4,
            "adaptation must have split the column, got {pieces}"
        );
        // With many segments and var bounds, the optimizer now emits the
        // iterator form.
        let (_, report) = SegmentOptimizer::new().optimize(&prog, &c);
        assert_eq!(report.rewrites[0].1, RewriteStrategy::Iterator);
        c.segmented("sys.P.ra").unwrap().validate().unwrap();
    }

    #[test]
    fn constant_bounds_prune_segments() {
        let mut c = catalog();
        // Split the column first.
        c.segmented_mut("sys.P.ra")
            .unwrap()
            .adapt(&Atom::Dbl(202.0), &Atom::Dbl(203.0))
            .unwrap();
        assert_eq!(c.segmented("sys.P.ra").unwrap().piece_count(), 3);
        let prog = parse(
            r#"X1 := sql.bind("sys","P","ra",0);
               X14 := algebra.select(X1,202.2,202.8);
               X38 := sql.resultSet(1,1,X14);"#,
        )
        .unwrap();
        let (opt, report) = SegmentOptimizer::new().optimize(&prog, &c);
        // Only the middle piece overlaps the constant range.
        assert_eq!(
            report.rewrites[0].1,
            RewriteStrategy::Unrolled { segments: 1 }
        );
        let result = Interp::new(&mut c).run(&opt, &[]).unwrap().unwrap();
        assert_eq!(result.len(), 61); // 202.2..=202.8 step 0.01
    }

    #[test]
    fn plans_without_segmented_selects_pass_through() {
        let c = catalog();
        let prog = parse(
            r#"X := sql.bind("sys","P","objid",0);
               N := aggr.count(X);"#,
        )
        .unwrap();
        let (opt, report) = SegmentOptimizer::new().optimize(&prog, &c);
        assert_eq!(opt, prog);
        assert!(report.rewrites.is_empty());
    }

    #[test]
    fn figure1_uselect_gets_rewritten_and_stays_correct() {
        let mut c = catalog();
        let fig1 = parse(
            r#"
function user.s1_0(A0:dbl,A1:dbl):void;
    X1:bat[:oid,:dbl]  := sql.bind("sys","P","ra",0);
    X16:bat[:oid,:dbl] := sql.bind("sys","P","ra",1);
    X14 := algebra.uselect(X1,A0,A1,true,true);
    X17 := algebra.uselect(X16,A0,A1,true,true);
    X18 := algebra.kunion(X14,X17);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X18,X26);
    X29 := bat.reverse(X28);
    X30:bat[:oid,:lng] := sql.bind("sys","P","objid",0);
    X37 := algebra.join(X29,X30);
    X38 := sql.resultSet(1,1,X37);
end s1_0;
"#,
        )
        .unwrap();
        let args = [Atom::Dbl(205.0), Atom::Dbl(205.05)];
        let base = Interp::new(&mut c).run(&fig1, &args).unwrap().unwrap();
        let (opt, report) = SegmentOptimizer::new().optimize(&fig1, &c);
        // Only the access-0 uselect is rewritten; the delta one stays.
        assert_eq!(report.rewrites.len(), 1);
        let optimized = Interp::new(&mut c).run(&opt, &args).unwrap().unwrap();
        assert_eq!(base.len(), optimized.len());
    }
}
