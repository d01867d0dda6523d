//! A piece handle read late answers as the piece's bat would.
//!
//! `bpm.takeSegment` and the segment iterator bind a handle, and
//! `algebra.uselect` over it reads the piece once, keeping only the
//! qualifying oids. Across all nine strategy kinds, the three organizable
//! tail types (`dbl` with `-0.0`/`+0.0` and bounds on a piece's own min or
//! max, `int` above 2⁵³, `oid`) and every kind of pending delta, the
//! optimized plan — unrolled, or an iterator block — returns the bat the
//! unoptimized plan returns over the packed column, and each piece's
//! late `uselect` is the `uselect` of its built bat.

use soc_bat::{algebra, Atom, Bat};
use soc_core::{StrategyKind, StrategySpec};

use crate::{parse, Catalog, Interp, Program, SegmentOptimizer};

const ROWS: u64 = 600;
const BIG: i64 = 1 << 53;

/// The Figure-1-class plan the SQL compiler emits, with the bounds as
/// parameters so that they keep their atom type.
const PROJECT: &str = r#"
function user.q(A0:dbl,A1:dbl):void;
    X1 := sql.bind("sys","P","v",0);
    X16 := sql.bind("sys","P","v",1);
    X19 := sql.bind("sys","P","v",2);
    X23 := sql.bind_dbat("sys","P",1);
    X30 := sql.bind("sys","P","id",0);
    X32 := sql.bind("sys","P","id",1);
    X34 := sql.bind("sys","P","id",2);
    X14 := algebra.uselect(X1,A0,A1);
    X25 := sql.subdelta(X14,X16,X19,X23,A0,A1);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X25,X26);
    X29 := bat.reverse(X28);
    X37 := sql.projectdelta(X29,X30,X32,X34);
    X38 := sql.resultSet(1,1,X37);
end q;
"#;

/// A selection whose taken segments feed `algebra.select`, which needs
/// their values: every handle is built into its bat.
const SELECT: &str = r#"
function user.q(A0:dbl,A1:dbl):void;
    X1 := sql.bind("sys","P","v",0);
    X14 := algebra.select(X1,A0,A1);
    X38 := sql.resultSet(1,1,X14);
end q;
"#;

#[derive(Clone, Copy, Debug)]
enum Column {
    Dbl,
    Int,
    Oid,
}

/// Row `i`'s value, as an atom the column's tail holds.
fn value(col: Column, i: u64) -> Atom {
    let k = (i * 37) % 400;
    match col {
        // Quarter steps around zero; every zero alternates its sign.
        Column::Dbl if k % 50 == 0 => Atom::Dbl(if i % 2 == 0 { 0.0 } else { -0.0 }),
        Column::Dbl => Atom::Dbl((k as f64 - 200.0) / 4.0),
        Column::Int => Atom::Int(BIG + k as i64),
        Column::Oid => Atom::Oid(k + 5),
    }
}

fn base(col: Column) -> Bat {
    let atoms = (0..ROWS).map(|i| value(col, i));
    match col {
        Column::Dbl => Bat::dense_dbl(atoms.filter_map(|a| a.as_f64()).collect()),
        Column::Int => Bat::dense_int(
            atoms
                .map(|a| match a {
                    Atom::Int(v) => v,
                    other => unreachable!("{other}"),
                })
                .collect(),
        ),
        Column::Oid => Bat::dense_oid(
            atoms
                .map(|a| match a {
                    Atom::Oid(v) => v,
                    other => unreachable!("{other}"),
                })
                .collect(),
        ),
    }
}

fn domain(col: Column) -> (f64, f64) {
    match col {
        Column::Dbl => (-50.0, 50.0),
        Column::Int => (BIG as f64, (BIG + 512) as f64),
        Column::Oid => (0.0, 512.0),
    }
}

/// Queries that split the column into pieces, as statements would.
fn adaptations(col: Column) -> Vec<(Atom, Atom)> {
    (0..6)
        .map(|k| {
            let lo = value(col, 3 + k * 11);
            let hi = value(col, 7 + k * 13);
            match (lo.as_f64(), hi.as_f64()) {
                (Some(a), Some(b)) if a > b => (hi, lo),
                _ => (lo, hi),
            }
        })
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Pending {
    Nothing,
    Inserts,
    Updates,
    Deletes,
}

fn catalog(kind: StrategyKind, col: Column, pending: Pending) -> Catalog {
    let (lo, hi) = domain(col);
    let mut c = Catalog::new();
    let spec = StrategySpec::new(kind)
        .with_apm_bounds(64, 256)
        .with_model_seed(7);
    c.register_segmented("sys", "P", "v", base(col), lo, hi, spec)
        .unwrap();
    c.register_bat(
        "sys",
        "P",
        "id",
        Bat::dense_int((0..ROWS as i64).map(|i| 1000 + i).collect()),
    );
    c.set_table_merge_threshold("sys", "P", 0);
    for (lo, hi) in adaptations(col) {
        c.segmented_mut("sys.P.v").unwrap().adapt(&lo, &hi).unwrap();
    }
    for k in 0..12u64 {
        let i = (k * 53) % ROWS;
        match pending {
            Pending::Nothing => {}
            Pending::Inserts => {
                c.insert_row(
                    "sys",
                    "P",
                    &[("v", value(col, k * 7)), ("id", Atom::Int(5000 + k as i64))],
                );
            }
            Pending::Updates => c.update_value("sys", "P", "v", i, value(col, i + 1)),
            Pending::Deletes => c.delete_row("sys", "P", i),
        }
    }
    c
}

/// Closed bounds to select with: a piece's own min and max, a boundary
/// between two pieces, and per type the bounds its rule is about.
fn bounds(c: &Catalog, col: Column) -> Vec<(Atom, Atom)> {
    let spans = c.segmented("sys.P.v").unwrap().piece_spans();
    let mut out = Vec::new();
    if let Column::Dbl = col {
        for w in spans.windows(2).take(3) {
            out.push((Atom::Dbl(w[0].0), Atom::Dbl(w[0].1)));
            out.push((Atom::Dbl(w[0].1), Atom::Dbl(w[1].0)));
        }
    }
    match col {
        Column::Dbl => out.extend([
            (Atom::Dbl(-0.0), Atom::Dbl(0.0)),
            (Atom::Dbl(0.0), Atom::Dbl(-0.0)),
            (Atom::Dbl(-0.0), Atom::Dbl(12.25)),
            (Atom::Int(-7), Atom::Int(0)),
        ]),
        Column::Int => out.extend([
            (Atom::Int(BIG + 1), Atom::Int(BIG + 1)),
            (Atom::Int(BIG + 3), Atom::Oid(BIG as u64 + 101)),
            (Atom::Dbl(BIG as f64), Atom::Int(BIG + 2)),
        ]),
        Column::Oid => out.extend([
            (Atom::Oid(10), Atom::Oid(50)),
            (Atom::Int(-5), Atom::Int(7)),
            (Atom::Dbl(10.5), Atom::Dbl(20.0)),
        ]),
    }
    out
}

fn run(c: &mut Catalog, plan: &Program, (lo, hi): &(Atom, Atom)) -> Bat {
    Interp::new(c)
        .run(plan, &[lo.clone(), hi.clone()])
        .unwrap()
        .expect("the plan exports a result")
}

#[test]
fn optimized_plans_over_late_pieces_equal_the_plan_over_the_packed_column() {
    let optimizers = [
        // Every piece unrolled; with the adaptation hook, the pieces move
        // after each statement's selection.
        (usize::MAX, false),
        (usize::MAX, true),
        // Every piece through the iterator block.
        (0, false),
    ]
    .map(|(unroll_threshold, inject_adaptation)| SegmentOptimizer {
        unroll_threshold,
        inject_adaptation,
    });
    let (mut split, mut selected) = (0, 0);
    for kind in StrategyKind::ALL {
        for col in [Column::Dbl, Column::Int, Column::Oid] {
            for pending in [
                Pending::Nothing,
                Pending::Inserts,
                Pending::Updates,
                Pending::Deletes,
            ] {
                let mut c = catalog(kind, col, pending);
                split += usize::from(c.segmented("sys.P.v").unwrap().piece_count() > 4);
                for text in [PROJECT, SELECT] {
                    let plan = parse(text).unwrap();
                    for b in bounds(&c, col) {
                        for optimizer in &optimizers {
                            let packed = run(&mut c, &plan, &b);
                            selected += usize::from(!packed.is_empty());
                            let form = optimizer.optimize(&plan, &c).0;
                            assert_eq!(
                                run(&mut c, &form, &b),
                                packed,
                                "{kind:?} {col:?} {pending:?} {b:?}\n{}",
                                form.render()
                            );
                        }
                    }
                }
            }
        }
    }
    // Not vacuous: most columns hold many pieces, most selections rows.
    assert!(split > 50, "{split} of 108 columns split");
    assert!(selected > 2_000, "{selected} non-empty results");
}

/// A handle a later instruction reads stands for the piece as it was
/// taken, even when `bpm.adapt` and `bpm.setStrategy` move the pieces in
/// between — bound to a variable, or still queued in an iterator block:
/// the plan reads the snapshot its `bpm.take` pinned.
#[test]
fn handles_read_after_an_adaptation_are_the_pieces_as_taken() {
    let taken_then_adapted = parse(
        r#"
function user.q(A0:dbl,A1:dbl):void;
    Y := bpm.take("sys.P.v");
    S := bpm.takeSegment(Y,0);
    N := bpm.adapt(Y,A0,A1);
    K := bpm.setStrategy("sys.P.v","cracking");
    X := bat.slice(S,0,100000);
    X38 := sql.resultSet(1,1,X);
end q;
"#,
    )
    .unwrap();
    let iterated = |adapt: &str| {
        parse(&format!(
            r#"
function user.q(A0:dbl,A1:dbl):void;
    Y := bpm.take("sys.P.v");
    R := bpm.new();
    barrier r := bpm.newIterator(Y,-50.0,50.0);
    T := algebra.uselect(r,A0,A1);
    bpm.addSegment(R,T);
    {adapt}
    redo r := bpm.hasMoreElements(Y,-50.0,50.0);
    exit r;
    X := bpm.pack(R);
    X38 := sql.resultSet(1,1,X);
end q;
"#
        ))
        .unwrap()
    };
    let without = iterated("");
    for (k, kind) in StrategyKind::ALL.into_iter().enumerate() {
        // Every pass adapts the column and switches it to another kind.
        let to = StrategyKind::ALL[(k + 1) % StrategyKind::ALL.len()].token();
        let moved = iterated(&format!(
            r#"N := bpm.adapt(Y,A0,A1);
    K := bpm.setStrategy("sys.P.v","{to}");"#
        ));
        for b in bounds(&catalog(kind, Column::Dbl, Pending::Nothing), Column::Dbl) {
            let mut c = catalog(kind, Column::Dbl, Pending::Nothing);
            let first = c.segmented("sys.P.v").unwrap().pinned().bat(0..1);
            let first = first.unwrap();
            assert_eq!(
                run(&mut c, &taken_then_adapted, &b),
                first,
                "{kind:?} {b:?}"
            );

            let mut adapted = catalog(kind, Column::Dbl, Pending::Nothing);
            let mut still = catalog(kind, Column::Dbl, Pending::Nothing);
            assert_eq!(
                run(&mut adapted, &moved, &b),
                run(&mut still, &without, &b),
                "{kind:?} {b:?}"
            );
        }
    }
}

/// The order a select over a segmented column answers in: its base rows
/// ascending by `(value, oid)` — the pieces ascend, and each holds its
/// rows sorted — then the pending rows, in the order `sql.subdelta`
/// appends them. For every kind, tail type and kind of pending write, and
/// both rewrites, the selection `X25` the projection reads is
/// `sql.subdelta` over the base rows `algebra.uselect` keeps, sorted.
#[test]
fn a_segmented_select_returns_base_rows_in_value_order_then_pending_rows() {
    let key_order = |a: &Atom, b: &Atom| match (a, b) {
        (Atom::Int(a), Atom::Int(b)) => a.cmp(b),
        (Atom::Oid(a), Atom::Oid(b)) => a.cmp(b),
        (Atom::Dbl(a), Atom::Dbl(b)) => a.partial_cmp(b).expect("no NaN"),
        other => unreachable!("{other:?}"),
    };
    let plan = parse(PROJECT).unwrap();
    let (mut unsorted, mut checked) = (0, 0);
    for kind in StrategyKind::ALL {
        for col in [Column::Dbl, Column::Int, Column::Oid] {
            for pending in [
                Pending::Nothing,
                Pending::Inserts,
                Pending::Updates,
                Pending::Deletes,
            ] {
                let mut c = catalog(kind, col, pending);
                let delta = |c: &mut Catalog, access| c.delta_bat("sys.P.v", access).unwrap();
                let (ins, upd) = (delta(&mut c, 1).unwrap(), delta(&mut c, 2).unwrap());
                let dbat = c.dbat("sys", "P");
                for (lo, hi) in bounds(&c, col) {
                    let Ok(kept) = algebra::uselect(&base(col), &lo, &hi) else {
                        continue;
                    };
                    let mut oids = kept.head_oids();
                    unsorted += usize::from(!oids.is_sorted_by_key(|&i| value(col, i).as_f64()));
                    oids.sort_by(|&a, &b| {
                        key_order(&value(col, a), &value(col, b)).then(a.cmp(&b))
                    });
                    let sorted = Bat::new(
                        soc_bat::Head::Oids(oids.into()),
                        soc_bat::Tail::Nil(kept.len()),
                    );
                    let want = algebra::sub_delta(&sorted.unwrap(), &ins, &upd, &dbat, &lo, &hi);
                    let want = want.unwrap().head_oids();
                    for unroll_threshold in [usize::MAX, 0] {
                        let optimizer = SegmentOptimizer {
                            unroll_threshold,
                            inject_adaptation: false,
                        };
                        let form = optimizer.optimize(&plan, &c).0;
                        let mut interp = Interp::new(&mut c);
                        interp.run(&form, &[lo.clone(), hi.clone()]).unwrap();
                        let Some(crate::MalValue::Bat(x25)) = interp.get("X25") else {
                            panic!("X25 must be a bat")
                        };
                        assert_eq!(
                            x25.head_oids(),
                            want,
                            "{kind:?} {col:?} {pending:?} [{lo}, {hi}]"
                        );
                        checked += usize::from(want.len() > 1);
                    }
                }
            }
        }
    }
    // Not vacuous: the rows arrive in another order than the oids'.
    assert!(unsorted > 100 && checked > 800, "{unsorted} {checked}");
}

/// Every piece's late `uselect` is the `uselect` of the piece's bat: the
/// same head variant, oids and order, or the same error.
#[test]
fn a_late_uselect_is_the_uselect_of_the_built_piece() {
    for kind in StrategyKind::ALL {
        for col in [Column::Dbl, Column::Int, Column::Oid] {
            let c = catalog(kind, col, Pending::Nothing);
            let seg = c.segmented("sys.P.v").unwrap().pinned();
            let mut cases = bounds(&c, col);
            cases.push((Atom::Str("a".into()), Atom::Int(3)));
            cases.push((Atom::Int(3), Atom::Nil));
            for i in 0..seg.count() {
                let piece = seg.bat(i..i + 1).unwrap();
                for (lo, hi) in &cases {
                    let late = seg.uselect(i, lo, hi).map_err(|e| e.to_string());
                    let built = algebra::uselect(&piece, lo, hi).map_err(|e| e.to_string());
                    assert_eq!(late, built, "{kind:?} {col:?} piece {i} [{lo}, {hi}]");
                }
            }
            assert!(seg
                .uselect(seg.count(), &Atom::Int(0), &Atom::Int(1))
                .is_err());
        }
    }
}
