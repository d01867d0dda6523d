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

use soc_bat::Atom;

use crate::ast::{Arg, Instruction, Program, Stmt};
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
    pub rewrites: Vec<(String, RewriteStrategy)>,
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

impl SegmentOptimizer {
    /// An optimizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrites `prog` against `catalog`, returning the new plan and a
    /// report of what changed. Plans without segmented selections come
    /// back untouched.
    pub fn optimize(&self, prog: &Program, catalog: &Catalog) -> (Program, OptimizerReport) {
        let mut report = OptimizerReport::default();

        // Pass 1: binds of segmented base columns (access 0, const names).
        let mut seg_binds: Vec<(String, String)> = Vec::new(); // (var, key)
        for s in &prog.stmts {
            let Stmt::Assign(i) = s else { continue };
            if !i.is("sql", "bind") || i.args.len() < 4 {
                continue;
            }
            let consts: Vec<Option<&Atom>> = i
                .args
                .iter()
                .map(|a| match a {
                    Arg::Const(c) => Some(c),
                    Arg::Var(_) => None,
                })
                .collect();
            let (
                Some(Atom::Str(sch)),
                Some(Atom::Str(tab)),
                Some(Atom::Str(col)),
                Some(Atom::Int(0)),
            ) = (consts[0], consts[1], consts[2], consts[3])
            else {
                continue;
            };
            let key = Catalog::key(sch, tab, col);
            if catalog.is_segmented(&key) {
                if let Some(t) = &i.target {
                    seg_binds.push((t.clone(), key));
                }
            }
        }
        if seg_binds.is_empty() {
            return (prog.clone(), report);
        }

        // Pass 2: rewrite selections over segmented binds.
        let mut fresh = 0usize;
        let mut out: Vec<Stmt> = Vec::with_capacity(prog.stmts.len() + 16);
        let mut rewritten_bind_vars: Vec<String> = Vec::new();
        for s in &prog.stmts {
            let Stmt::Assign(i) = s else {
                out.push(s.clone());
                continue;
            };
            let is_select = i.is("algebra", "select") || i.is("algebra", "uselect");
            let bind = i
                .args
                .first()
                .and_then(|a| a.var())
                .and_then(|v| seg_binds.iter().find(|(var, _)| var == v));
            let (Some(target), true, Some((bind_var, key))) = (&i.target, is_select, bind) else {
                out.push(s.clone());
                continue;
            };
            let Some(seg) = catalog.segmented(key) else {
                // Registered set changed between passes — leave the
                // statement alone rather than rewriting against stale
                // metadata.
                out.push(s.clone());
                continue;
            };
            let lo = i.args[1].clone();
            let hi = i.args[2].clone();
            let strategy = self.expand(
                &mut out,
                &mut fresh,
                target,
                &i.function,
                key,
                seg,
                &lo,
                &hi,
            );
            report.rewrites.push((target.clone(), strategy));
            rewritten_bind_vars.push(bind_var.clone());
        }

        // Pass 3: drop binds that no remaining instruction references.
        let dead: Vec<bool> = {
            let referenced: std::collections::HashSet<&str> = out
                .iter()
                .filter_map(|s| match s {
                    Stmt::Assign(i) | Stmt::Barrier(i) | Stmt::Redo(i) => Some(i),
                    _ => None,
                })
                .flat_map(|i| i.args.iter().filter_map(Arg::var))
                .collect();
            out.iter()
                .map(|s| match s {
                    Stmt::Assign(i) if i.is("sql", "bind") => i.target.as_ref().is_some_and(|t| {
                        rewritten_bind_vars.contains(t) && !referenced.contains(t.as_str())
                    }),
                    _ => false,
                })
                .collect()
        };
        report.dropped_binds = dead.iter().filter(|&&d| d).count();
        let mut dead = dead.into_iter();
        out.retain(|_| !dead.next().unwrap_or(false));

        (Program { stmts: out }, report)
    }

    /// Emits the replacement sequence for one selection; returns the
    /// strategy used.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        out: &mut Vec<Stmt>,
        fresh: &mut usize,
        target: &str,
        op: &str,
        key: &str,
        seg: &crate::bpm::SegmentedBat,
        lo: &Arg,
        hi: &Arg,
    ) -> RewriteStrategy {
        let mut var = |prefix: &str| {
            *fresh += 1;
            format!("_{prefix}{fresh}")
        };
        let y = var("Y");
        out.push(Stmt::Assign(Instruction::new(
            Some(&y),
            "bpm",
            "take",
            vec![Arg::Const(Atom::Str(key.to_owned()))],
        )));

        // Relevant segments: pruned via the meta-index when the predicate
        // constants are known at optimization time.
        let bounds = match (lo, hi) {
            (Arg::Const(l), Arg::Const(h)) => l.as_f64().zip(h.as_f64()),
            _ => None,
        };
        let relevant: Vec<usize> = match bounds {
            Some((l, h)) => seg.overlapping(l, h),
            None => (0..seg.piece_count()).collect(),
        };

        let strategy = if relevant.len() <= self.unroll_threshold {
            // Unrolled: one instruction instance per relevant segment.
            let mut partials: Vec<String> = Vec::new();
            for idx in &relevant {
                let s_var = var("S");
                out.push(Stmt::Assign(Instruction::new(
                    Some(&s_var),
                    "bpm",
                    "takeSegment",
                    vec![Arg::Var(y.clone()), Arg::Const(Atom::Int(*idx as i64))],
                )));
                let t_var = var("T");
                out.push(Stmt::Assign(Instruction::new(
                    Some(&t_var),
                    "algebra",
                    op,
                    vec![Arg::Var(s_var), lo.clone(), hi.clone()],
                )));
                partials.push(t_var);
            }
            match partials.len() {
                0 => {
                    // Nothing overlaps: an empty result via an empty pack.
                    let r = var("R");
                    out.push(Stmt::Assign(Instruction::new(
                        Some(&r),
                        "bpm",
                        "new",
                        vec![],
                    )));
                    out.push(Stmt::Assign(Instruction::new(
                        Some(target),
                        "bpm",
                        "pack",
                        vec![Arg::Var(r)],
                    )));
                }
                1 => {
                    // Rename the single partial into the original target.
                    if let Some(Stmt::Assign(last)) = out.last_mut() {
                        last.target = Some(target.to_owned());
                    }
                }
                _ => {
                    // Fold with bat.append.
                    let mut acc = partials[0].clone();
                    for (k, p) in partials[1..].iter().enumerate() {
                        let next = if k == partials.len() - 2 {
                            target.to_owned()
                        } else {
                            var("U")
                        };
                        out.push(Stmt::Assign(Instruction::new(
                            Some(&next),
                            "bat",
                            "append",
                            vec![Arg::Var(acc), Arg::Var(p.clone())],
                        )));
                        acc = next;
                    }
                }
            }
            RewriteStrategy::Unrolled {
                segments: relevant.len(),
            }
        } else {
            // Iterator block (the Section 3.1 example rewrite).
            let r = var("R");
            let rseg = var("rseg");
            out.push(Stmt::Assign(Instruction::new(
                Some(&r),
                "bpm",
                "new",
                vec![],
            )));
            out.push(Stmt::Barrier(Instruction::new(
                Some(&rseg),
                "bpm",
                "newIterator",
                vec![Arg::Var(y.clone()), lo.clone(), hi.clone()],
            )));
            let t = var("T");
            out.push(Stmt::Assign(Instruction::new(
                Some(&t),
                "algebra",
                op,
                vec![Arg::Var(rseg.clone()), lo.clone(), hi.clone()],
            )));
            out.push(Stmt::Assign(Instruction::new(
                None,
                "bpm",
                "addSegment",
                vec![Arg::Var(r.clone()), Arg::Var(t)],
            )));
            out.push(Stmt::Redo(Instruction::new(
                Some(&rseg),
                "bpm",
                "hasMoreElements",
                vec![Arg::Var(y.clone()), lo.clone(), hi.clone()],
            )));
            out.push(Stmt::Exit(rseg));
            out.push(Stmt::Assign(Instruction::new(
                Some(target),
                "bpm",
                "pack",
                vec![Arg::Var(r)],
            )));
            RewriteStrategy::Iterator
        };

        if self.inject_adaptation {
            out.push(Stmt::Assign(Instruction::new(
                None,
                "bpm",
                "adapt",
                vec![Arg::Var(y), lo.clone(), hi.clone()],
            )));
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
