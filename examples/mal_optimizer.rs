//! The tactical segment optimizer at work (Sections 2 and 3.1).
//!
//! ```text
//! cargo run --example mal_optimizer --release
//! ```
//!
//! Parses the paper's Figure 1 plan verbatim, registers `sys.P.ra` as a
//! segmented column, shows the optimizer's rewrite (bpm iteration instead
//! of a full-column select), and runs the query repeatedly so the injected
//! `bpm.adapt` call reorganizes the column between executions.

use socdb::bat::{Atom, Bat};
use socdb::mal::{parse, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::{StrategyKind, StrategySpec};

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

fn main() {
    // sys.P: 50k photo objects; ra clustered like a sky survey.
    let n = 50_000usize;
    let ra: Vec<f64> = (0..n)
        .map(|i| 110.0 + 150.0 * ((i as f64 * 0.618_033_988_749).fract()))
        .collect();
    let objid: Vec<i64> = (0..n as i64).map(|i| 587_730_000_000 + i).collect();

    let mut catalog = Catalog::new();
    catalog
        .register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl(ra),
            110.0,
            260.0,
            StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(8 * 1024, 64 * 1024),
        )
        .expect("dbl column segments fine");
    catalog.register_bat("sys", "P", "objid", Bat::dense_int(objid));

    let plan = parse(FIGURE1).expect("Figure 1 parses verbatim");
    println!(
        "parsed Figure 1: {} statements, parameters {:?}\n",
        plan.render().lines().count(),
        plan.params()
    );

    // `select objId from P where ra between 205.1 and 205.12` — repeatedly,
    // with a widening window so adaptation keeps firing.
    let optimizer = SegmentOptimizer::new();
    for round in 0..5 {
        let lo = 205.1 - round as f64 * 10.0;
        let hi = 205.12 + round as f64 * 2.0;
        let (optimized, report) = optimizer.optimize(&plan, &catalog);
        let result = Interp::new(&mut catalog)
            .run(&optimized, &[Atom::Dbl(lo), Atom::Dbl(hi)])
            .expect("plan executes")
            .expect("plan exports a result");
        let pieces = catalog.segmented("sys.P.ra").unwrap().piece_count();
        println!(
            "round {round}: ra in [{lo:.2}, {hi:.2}] -> {} objids | rewrite: {:?} | column now {} pieces",
            result.len(),
            report.rewrites.first().map(|(_, s)| s.clone()),
            pieces
        );
        if round == 0 {
            println!("\n--- optimized plan (round 0) ---\n{}", optimized.render());
        }
    }

    // Sanity: optimized and fallback plans agree.
    let args = [Atom::Dbl(150.0), Atom::Dbl(151.0)];
    let base = Interp::new(&mut catalog)
        .run(&plan, &args)
        .unwrap()
        .unwrap();
    let (optimized, _) = optimizer.optimize(&plan, &catalog);
    let opt = Interp::new(&mut catalog)
        .run(&optimized, &args)
        .unwrap()
        .unwrap();
    assert_eq!(base.len(), opt.len());
    println!(
        "\nverified: optimized plan returns the same {} objids as the fallback plan",
        opt.len()
    );
}
