//! The plans real statements produce, pinned as text: the compiled
//! Figure-1-class plan and both segment-optimizer rewrites of it (unrolled
//! over a few relevant pieces, an iterator block over many). A change to
//! how plans are built or stored must leave every instruction of them as
//! it is, and each must survive `render` → `parse` unchanged.

use soc_bat::{Atom, Bat};
use soc_core::{StrategyKind, StrategySpec};
use soc_mal::{compile_select, parse, Catalog, Program, RewriteStrategy, SegmentOptimizer};

const QUERY: &str = "SELECT objid FROM sys.P WHERE ra BETWEEN 205.1 AND 205.12";

const COMPILED: &str = r#"function user.p_ra():void;
    X1 := sql.bind("sys","P","ra",0);
    X16 := sql.bind("sys","P","ra",1);
    X19 := sql.bind("sys","P","ra",2);
    X23 := sql.bind_dbat("sys","P",1);
    X30 := sql.bind("sys","P","objid",0);
    X32 := sql.bind("sys","P","objid",1);
    X34 := sql.bind("sys","P","objid",2);
    X14 := algebra.uselect(X1,205.1,205.12);
    X25 := sql.subdelta(X14,X16,X19,X23,205.1,205.12);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X25,X26);
    X29 := bat.reverse(X28);
    X37 := sql.projectdelta(X29,X30,X32,X34);
    X38 := sql.resultSet(1,1,X37);
    sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
    sql.exportResult(X38,"");
end;
"#;

const UNROLLED: &str = r#"function user.p_ra():void;
    X16 := sql.bind("sys","P","ra",1);
    X19 := sql.bind("sys","P","ra",2);
    X23 := sql.bind_dbat("sys","P",1);
    X30 := sql.bind("sys","P","objid",0);
    X32 := sql.bind("sys","P","objid",1);
    X34 := sql.bind("sys","P","objid",2);
    _Y1 := bpm.take("sys.P.ra");
    _S2 := bpm.takeSegment(_Y1,1);
    _T3 := algebra.uselect(_S2,205.1,205.12);
    _S4 := bpm.takeSegment(_Y1,2);
    _T5 := algebra.uselect(_S4,205.1,205.12);
    _S6 := bpm.takeSegment(_Y1,3);
    _T7 := algebra.uselect(_S6,205.1,205.12);
    _U8 := bat.append(_T3,_T5);
    X14 := bat.append(_U8,_T7);
    bpm.adapt(_Y1,205.1,205.12);
    X25 := sql.subdelta(X14,X16,X19,X23,205.1,205.12);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X25,X26);
    X29 := bat.reverse(X28);
    X37 := sql.projectdelta(X29,X30,X32,X34);
    X38 := sql.resultSet(1,1,X37);
    sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
    sql.exportResult(X38,"");
end;
"#;

const ITERATOR: &str = r#"function user.p_ra():void;
    X16 := sql.bind("sys","P","ra",1);
    X19 := sql.bind("sys","P","ra",2);
    X23 := sql.bind_dbat("sys","P",1);
    X30 := sql.bind("sys","P","objid",0);
    X32 := sql.bind("sys","P","objid",1);
    X34 := sql.bind("sys","P","objid",2);
    _Y1 := bpm.take("sys.P.ra");
    _R2 := bpm.new();
    barrier _rseg3 := bpm.newIterator(_Y1,205.1,205.12);
    _T4 := algebra.uselect(_rseg3,205.1,205.12);
    bpm.addSegment(_R2,_T4);
    redo _rseg3 := bpm.hasMoreElements(_Y1,205.1,205.12);
    exit _rseg3;
    X14 := bpm.pack(_R2);
    bpm.adapt(_Y1,205.1,205.12);
    X25 := sql.subdelta(X14,X16,X19,X23,205.1,205.12);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X25,X26);
    X29 := bat.reverse(X28);
    X37 := sql.projectdelta(X29,X30,X32,X34);
    X38 := sql.resultSet(1,1,X37);
    sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
    sql.exportResult(X38,"");
end;
"#;

/// sys.P: 1 000 rows, `ra` = 200.00, 200.01, … under cracking, which
/// splits exactly at the bounds it is asked to adapt to.
fn catalog(cracks: &[(f64, f64)]) -> Catalog {
    let ra: Vec<f64> = (0..1000).map(|i| 200.0 + i as f64 * 0.01).collect();
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
    c.register_bat("sys", "P", "objid", Bat::dense_int((0..1000).collect()));
    for &(lo, hi) in cracks {
        c.segmented_mut("sys.P.ra")
            .unwrap()
            .adapt(&Atom::Dbl(lo), &Atom::Dbl(hi))
            .unwrap();
    }
    c
}

fn assert_round_trips(plan: &Program) {
    let text = plan.render();
    assert_eq!(&parse(&text).unwrap(), plan, "plan text:\n{text}");
}

#[test]
fn compiled_plan_is_pinned_and_round_trips() {
    let plan = compile_select(QUERY).unwrap();
    assert_eq!(plan.render(), COMPILED);
    assert_round_trips(&plan);
}

#[test]
fn unrolled_rewrite_is_pinned_and_round_trips() {
    // Three pieces overlap [205.1, 205.12].
    let c = catalog(&[(205.0, 205.11), (205.115, 205.2)]);
    let (plan, report) = SegmentOptimizer::new().optimize(&compile_select(QUERY).unwrap(), &c);
    assert_eq!(
        report.rewrites,
        vec![("X14".into(), RewriteStrategy::Unrolled { segments: 3 })]
    );
    assert_eq!(plan.render(), UNROLLED);
    assert_round_trips(&plan);
}

#[test]
fn iterator_rewrite_is_pinned_and_round_trips() {
    // Six pieces overlap [205.1, 205.12].
    let c = catalog(&[
        (205.0, 205.105),
        (205.108, 205.111),
        (205.113, 205.116),
        (205.119, 205.3),
    ]);
    let (plan, report) = SegmentOptimizer::new().optimize(&compile_select(QUERY).unwrap(), &c);
    assert_eq!(
        report.rewrites,
        vec![("X14".into(), RewriteStrategy::Iterator)]
    );
    assert_eq!(plan.render(), ITERATOR);
    assert_round_trips(&plan);
}
