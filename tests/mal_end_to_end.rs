//! End-to-end MAL: parse → optimize → execute, across repeated queries
//! with self-organization enabled (the Section 3.1 integration story).

use socdb::bat::{Atom, Bat, Head, Tail};
use socdb::mal::{
    compile_select, compile_stmt, parse, parse_stmt, Catalog, Interp, MalValue, Program,
    RewriteStrategy, SegmentOptimizer,
};
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

/// sys.P with `n` rows: ra spread over [110, 260), objid = 9000 + oid.
fn catalog(n: usize, segmented: bool) -> Catalog {
    let ra: Vec<f64> = (0..n)
        .map(|i| 110.0 + 150.0 * ((i as f64 * 0.754_877_666).fract()))
        .collect();
    let objid: Vec<i64> = (0..n as i64).map(|i| 9_000 + i).collect();
    let mut c = Catalog::new();
    if segmented {
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl(ra),
            110.0,
            260.0,
            StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(1024, 8 * 1024),
        )
        .unwrap();
    } else {
        c.register_bat("sys", "P", "ra", Bat::dense_dbl(ra));
    }
    c.register_bat("sys", "P", "objid", Bat::dense_int(objid));
    c
}

fn result_ids(result: &Bat) -> Vec<i64> {
    let Tail::Int(ids) = result.tail() else {
        panic!("objid result must be an int tail")
    };
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    ids
}

#[test]
fn optimized_and_plain_figure1_agree_across_a_session() {
    let plan = parse(FIGURE1).unwrap();
    let mut plain = catalog(20_000, false);
    let mut segmented = catalog(20_000, true);
    let optimizer = SegmentOptimizer::new();

    for k in 0..12 {
        let lo = 112.0 + k as f64 * 11.3;
        let hi = lo + 3.7;
        let args = [Atom::Dbl(lo), Atom::Dbl(hi)];

        let expected = Interp::new(&mut plain)
            .run(&plan, &args)
            .unwrap()
            .expect("plain plan exports a result");

        let (optimized, _) = optimizer.optimize(&plan, &segmented);
        let got = Interp::new(&mut segmented)
            .run(&optimized, &args)
            .unwrap()
            .expect("optimized plan exports a result");

        assert_eq!(
            result_ids(&expected),
            result_ids(&got),
            "query #{k} [{lo}, {hi}]"
        );
        segmented.segmented("sys.P.ra").unwrap().validate().unwrap();
    }
    // The session must have reorganized the column.
    assert!(segmented.segmented("sys.P.ra").unwrap().piece_count() > 3);
}

#[test]
fn optimizer_switches_from_unroll_to_iterator_as_column_fragments() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = catalog(20_000, true);
    let optimizer = SegmentOptimizer::new();

    let (_, first) = optimizer.optimize(&plan, &c);
    assert!(matches!(
        first.rewrites[0].1,
        RewriteStrategy::Unrolled { segments: 1 }
    ));

    // Fragment via adaptation.
    for k in 0..10 {
        let lo = 115.0 + k as f64 * 14.0;
        let (opt, _) = optimizer.optimize(&plan, &c);
        Interp::new(&mut c)
            .run(&opt, &[Atom::Dbl(lo), Atom::Dbl(lo + 6.0)])
            .unwrap();
    }
    let (_, later) = optimizer.optimize(&plan, &c);
    assert_eq!(later.rewrites[0].1, RewriteStrategy::Iterator);
}

#[test]
fn gd_model_works_at_the_mal_level_too() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = Catalog::new();
    let ra: Vec<f64> = (0..10_000).map(|i| (i % 3600) as f64 / 10.0).collect();
    c.register_segmented(
        "sys",
        "P",
        "ra",
        Bat::dense_dbl(ra),
        0.0,
        360.0,
        StrategySpec::new(StrategyKind::GdSegm).with_model_seed(5),
    )
    .unwrap();
    c.register_bat("sys", "P", "objid", Bat::dense_int((0..10_000).collect()));
    let optimizer = SegmentOptimizer::new();
    for k in 0..8 {
        let lo = (k * 40) as f64;
        let (opt, _) = optimizer.optimize(&plan, &c);
        let r = Interp::new(&mut c)
            .run(&opt, &[Atom::Dbl(lo), Atom::Dbl(lo + 160.0)])
            .unwrap()
            .unwrap();
        assert!(!r.is_empty());
    }
    c.segmented("sys.P.ra").unwrap().validate().unwrap();
}

#[test]
fn adaptation_can_be_disabled() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = catalog(5_000, true);
    let optimizer = SegmentOptimizer {
        inject_adaptation: false,
        ..SegmentOptimizer::new()
    };
    for k in 0..5 {
        let lo = 120.0 + k as f64 * 20.0;
        let (opt, _) = optimizer.optimize(&plan, &c);
        assert!(!opt.render().contains("bpm.adapt"));
        Interp::new(&mut c)
            .run(&opt, &[Atom::Dbl(lo), Atom::Dbl(lo + 5.0)])
            .unwrap();
    }
    assert_eq!(
        c.segmented("sys.P.ra").unwrap().piece_count(),
        1,
        "without adaptation the column never splits"
    );
}

#[test]
fn interpreter_intermediates_are_inspectable() {
    let mut c = catalog(1_000, false);
    let plan = parse(FIGURE1).unwrap();
    let mut interp = Interp::new(&mut c);
    interp
        .run(&plan, &[Atom::Dbl(110.0), Atom::Dbl(260.0)])
        .unwrap();
    // The whole-footprint query selects every row.
    let Some(MalValue::Bat(x14)) = interp.get("X14") else {
        panic!("X14 bound to a bat")
    };
    assert_eq!(x14.len(), 1_000);
}

/// The delta machinery of Figure 1, exercised with real pending changes:
/// the same plan must merge inserts, apply updates, and mask deletions —
/// MonetDB's update scheme for read-mostly warehouses.
#[test]
fn figure1_merges_inserts_updates_and_deletes() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = Catalog::new();
    c.register_bat(
        "sys",
        "P",
        "ra",
        Bat::dense_dbl(vec![204.9, 205.05, 205.11, 205.13, 205.115]),
    );
    c.register_bat(
        "sys",
        "P",
        "objid",
        Bat::dense_int(vec![9000, 9001, 9002, 9003, 9004]),
    );
    let args = [Atom::Dbl(205.1), Atom::Dbl(205.12)];
    let run = |c: &mut Catalog| -> Vec<i64> {
        let result = Interp::new(c).run(&plan, &args).unwrap().unwrap();
        let Tail::Int(ids) = result.tail() else {
            panic!("objid result must be int")
        };
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    };

    // Base state: oids 2 (205.11) and 4 (205.115) qualify.
    assert_eq!(run(&mut c), vec![9002, 9004]);

    // Insert a qualifying row: it must appear without touching the base.
    let new_oid = c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(205.111)), ("objid", Atom::Int(9005))],
    );
    assert_eq!(new_oid, 5);
    assert_eq!(run(&mut c), vec![9002, 9004, 9005]);

    // Insert a non-qualifying row: invisible to this predicate.
    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(190.0)), ("objid", Atom::Int(9006))],
    );
    assert_eq!(run(&mut c), vec![9002, 9004, 9005]);

    // Update row 2's ra out of the range: the kdifference(X18, X19) /
    // uselect(X19) pair must drop it.
    c.update_value("sys", "P", "ra", 2, Atom::Dbl(204.0));
    assert_eq!(run(&mut c), vec![9004, 9005]);

    // Update row 0's ra INTO the range: the same pair must add it.
    c.update_value("sys", "P", "ra", 0, Atom::Dbl(205.118));
    assert_eq!(run(&mut c), vec![9000, 9004, 9005]);

    // Update row 4's objid: the projection-side delta merge (X33–X36)
    // must surface the new value.
    c.update_value("sys", "P", "objid", 4, Atom::Int(9999));
    assert_eq!(run(&mut c), vec![9000, 9005, 9999]);

    // Delete row 4: reverse(dbat) + kdifference must mask it.
    c.delete_row("sys", "P", 4);
    assert_eq!(run(&mut c), vec![9000, 9005]);

    // Delete the inserted row too.
    c.delete_row("sys", "P", 5);
    assert_eq!(run(&mut c), vec![9000]);
}

/// The compiled statement and the verbatim Figure 1 plan return the same
/// bat — head variant, rows and row order — both unoptimized and through
/// the segment optimizer (without its `bpm.adapt`, so that the two runs
/// see the same pieces; a third, adapting run reorganizes the column
/// between checks).
fn assert_compiled_equals_figure1(c: &mut Catalog, args: &[Atom], step: &str) {
    let figure1 = parse(FIGURE1).unwrap();
    let compiled = compile_select("SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?").unwrap();
    let frozen = SegmentOptimizer {
        inject_adaptation: false,
        ..SegmentOptimizer::new()
    };
    for optimize in [false, true] {
        let run = |c: &mut Catalog, plan: &Program| {
            let plan = if optimize {
                frozen.optimize(plan, c).0
            } else {
                plan.clone()
            };
            Interp::new(c).run(&plan, args).unwrap().unwrap()
        };
        let want = run(c, &figure1);
        assert_eq!(run(c, &compiled), want, "{step}, optimize={optimize}");
    }
    let (adapting, _) = SegmentOptimizer::new().optimize(&figure1, c);
    Interp::new(c).run(&adapting, args).unwrap();
}

/// The lifecycle of `figure1_merges_inserts_updates_and_deletes`, on a
/// plain and on a segmented `ra`: at every step the compiled statement's
/// two fused delta operators answer what Figure 1's ten instructions do.
#[test]
fn compiled_select_equals_figure1_through_inserts_updates_and_deletes() {
    for segmented in [false, true] {
        let mut c = Catalog::new();
        let ra = Bat::dense_dbl(vec![204.9, 205.05, 205.11, 205.13, 205.115]);
        if segmented {
            c.register_segmented(
                "sys",
                "P",
                "ra",
                ra,
                200.0,
                210.0,
                StrategySpec::new(StrategyKind::Cracking),
            )
            .unwrap();
        } else {
            c.register_bat("sys", "P", "ra", ra);
        }
        c.register_bat(
            "sys",
            "P",
            "objid",
            Bat::dense_int(vec![9000, 9001, 9002, 9003, 9004]),
        );
        let args = [Atom::Dbl(205.1), Atom::Dbl(205.12)];
        let check = |c: &mut Catalog, step: &str| {
            assert_compiled_equals_figure1(c, &args, &format!("segmented={segmented}, {step}"))
        };

        check(&mut c, "base");
        c.insert_row(
            "sys",
            "P",
            &[("ra", Atom::Dbl(205.111)), ("objid", Atom::Int(9005))],
        );
        check(&mut c, "qualifying insert");
        c.insert_row(
            "sys",
            "P",
            &[("ra", Atom::Dbl(190.0)), ("objid", Atom::Int(9006))],
        );
        check(&mut c, "non-qualifying insert");
        c.update_value("sys", "P", "ra", 2, Atom::Dbl(204.0));
        check(&mut c, "ra updated out of the range");
        c.update_value("sys", "P", "ra", 0, Atom::Dbl(205.118));
        check(&mut c, "ra updated into the range");
        c.update_value("sys", "P", "objid", 4, Atom::Int(9999));
        check(&mut c, "objid updated");
        c.update_value("sys", "P", "objid", 5, Atom::Int(8888));
        check(&mut c, "an inserted row's objid updated");
        c.delete_row("sys", "P", 4);
        check(&mut c, "updated row deleted");
        c.delete_row("sys", "P", 5);
        check(&mut c, "inserted row deleted");
    }
}

/// The compiled statement answers what Figure 1 answers on a restored
/// catalog with an insert, a delete and an `objid` update pending — the
/// state in which Figure 1's merged projection column turns explicit.
#[test]
fn compiled_select_equals_figure1_on_a_restored_catalog_with_an_objid_update() {
    let mut c = catalog(2_000, true);
    let args = [Atom::Dbl(150.0), Atom::Dbl(152.0)];
    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(151.0)), ("objid", Atom::Int(77_777))],
    );
    let ids = result_ids(
        &Interp::new(&mut c)
            .run(&parse(FIGURE1).unwrap(), &args)
            .unwrap()
            .unwrap(),
    );
    c.update_value(
        "sys",
        "P",
        "objid",
        (ids[0] - 9_000) as u64,
        Atom::Int(99_999),
    );
    c.delete_row("sys", "P", (ids[1] - 9_000) as u64);
    assert_compiled_equals_figure1(&mut c, &args, "before the checkpoint");

    let dir = std::env::temp_dir().join(format!("socdb_e2e_compiled_{}", std::process::id()));
    c.save_all(&dir).unwrap();
    let mut restored = Catalog::load_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_compiled_equals_figure1(&mut restored, &args, "restored");
    let result = Interp::new(&mut restored)
        .run(
            &compile_select("SELECT objid FROM sys.P WHERE ra BETWEEN 150.0 AND 152.0").unwrap(),
            &[],
        )
        .unwrap()
        .unwrap();
    let ids = result_ids(&result);
    assert!(ids.contains(&77_777) && ids.contains(&99_999), "{ids:?}");
}

/// A restored catalog answers like the one that was saved, on both
/// reconstruction paths. Before the save the pending objid update punches
/// a hole in the void objid column — `kdifference(X33, X34)` leaves
/// explicit oids — so `X36` is no longer dense and the join hashes its few
/// outer oids and streams the column. The checkpoint stores the logical
/// rows, so the objid column comes back without the deleted row: explicit
/// oids, nothing pending, and `X36` is the column itself.
#[test]
fn figure1_on_a_restored_catalog_with_pending_deltas_returns_the_same_rows() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = catalog(2_000, true);
    let args = [Atom::Dbl(150.0), Atom::Dbl(152.0)];
    let run = |c: &mut Catalog, optimize: bool| {
        let plan = if optimize {
            SegmentOptimizer::new().optimize(&plan, c).0
        } else {
            plan.clone()
        };
        let mut interp = Interp::new(c);
        let result = interp.run(&plan, &args).unwrap().unwrap();
        let Some(MalValue::Bat(x36)) = interp.get("X36") else {
            panic!("X36 must be a bat")
        };
        (result_ids(&result), x36.head().clone())
    };

    let (base_ids, x36_head) = run(&mut c, true);
    assert!(base_ids.len() > 10, "the range must select rows");
    assert_eq!(x36_head, Head::Void { base: 0 }, "no deltas: X36 is X30");
    let (updated, deleted) = ((base_ids[0] - 9_000) as u64, (base_ids[1] - 9_000) as u64);

    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(151.0)), ("objid", Atom::Int(77_777))],
    );
    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(250.0)), ("objid", Atom::Int(77_778))],
    );
    let (with_inserts, x36_head) = run(&mut c, true);
    assert!(with_inserts.contains(&77_777));
    assert_eq!(
        x36_head,
        Head::Void { base: 0 },
        "insert oids continue the dense range"
    );
    c.update_value("sys", "P", "objid", updated, Atom::Int(99_999));
    c.delete_row("sys", "P", deleted);

    let (before, x36_head) = run(&mut c, true);
    assert!(
        matches!(x36_head, Head::Oids(_)),
        "the update punched a hole"
    );
    assert!(before.contains(&77_777) && before.contains(&99_999));
    assert!(!before.contains(&base_ids[0]) && !before.contains(&base_ids[1]));
    assert_eq!(before.len(), base_ids.len(), "+1 insert, -1 delete");

    let dir = std::env::temp_dir().join(format!("socdb_e2e_restore_{}", std::process::id()));
    c.save_all(&dir).unwrap();
    let mut restored = Catalog::load_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(restored.pending_rows("sys", "P"), 0);
    assert!(matches!(
        restored.bat("sys.P.objid").unwrap().head(),
        Head::Oids(_)
    ));
    for optimize in [false, true] {
        let (after, x36_head) = run(&mut restored, optimize);
        assert_eq!(after, before, "optimize={optimize}");
        assert!(matches!(x36_head, Head::Oids(_)));
    }
}

/// Bulk-merging the deltas is invisible to query results: the Figure 1
/// plan answers identically whether the pending changes are merged at
/// query time (the delta algebra) or folded into the base columns by
/// [`Catalog::merge_deltas`] — and afterwards the delta bats are empty, so
/// the plan's merge operators run over nothing.
#[test]
fn bulk_delta_merge_is_invisible_to_figure1_results() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = catalog(2_000, true);
    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(150.0005)), ("objid", Atom::Int(77_777))],
    );
    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(250.0)), ("objid", Atom::Int(77_778))],
    );
    c.update_value("sys", "P", "ra", 1, Atom::Dbl(150.0002));
    c.delete_row("sys", "P", 0);
    let args = [Atom::Dbl(150.0), Atom::Dbl(150.001)];

    let before = {
        let result = Interp::new(&mut c).run(&plan, &args).unwrap().unwrap();
        result_ids(&result)
    };
    assert!(before.contains(&77_777), "pending insert must qualify");

    let report = c.merge_deltas("sys", "P").unwrap();
    assert!(report.columns >= 2 && report.inserted > 0);
    assert_eq!(c.pending_rows("sys", "P"), 0);

    let after = {
        let result = Interp::new(&mut c).run(&plan, &args).unwrap().unwrap();
        result_ids(&result)
    };
    assert_eq!(before, after, "merge must not change any answer");
}

/// Deltas compose with the segment optimizer: the rewritten plan only
/// accelerates the base-column select, delta merging stays intact.
#[test]
fn deltas_survive_segment_optimization() {
    let plan = parse(FIGURE1).unwrap();
    let mut c = catalog(5_000, true);
    c.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(150.0005)), ("objid", Atom::Int(77_777))],
    );
    c.delete_row("sys", "P", 0);
    let args = [Atom::Dbl(150.0), Atom::Dbl(150.001)];

    let mut plain = catalog(5_000, false);
    plain.insert_row(
        "sys",
        "P",
        &[("ra", Atom::Dbl(150.0005)), ("objid", Atom::Int(77_777))],
    );
    plain.delete_row("sys", "P", 0);
    let expected = Interp::new(&mut plain).run(&plan, &args).unwrap().unwrap();

    let (optimized, report) = SegmentOptimizer::new().optimize(&plan, &c);
    assert_eq!(report.rewrites.len(), 1);
    let got = Interp::new(&mut c).run(&optimized, &args).unwrap().unwrap();
    assert_eq!(result_ids(&expected), result_ids(&got));
    // The inserted row is in both results.
    assert!(result_ids(&got).contains(&77_777));
}

/// The SQL surface over names whose keys are longer than the 64 bytes up
/// to which the catalog joins `schema.table` and `schema.table.column` on
/// the stack: a segmented table answers a prepared `SELECT` through an
/// insert, an update, a delete, a strategy change and a merge exactly as
/// its short-named twin does.
#[test]
fn long_names_answer_like_short_names_through_writes_and_a_merge() {
    /// Each step's answer, pending rows and piece count.
    fn session(schema: &str, table: &str, ra: &str, objid: &str) -> Vec<(Vec<i64>, usize, usize)> {
        let key = format!("{schema}.{table}.{ra}");
        let sql = [
            format!("SELECT {objid} FROM {schema}.{table} WHERE {ra} BETWEEN ? AND ?"),
            format!("ALTER TABLE {schema}.{table} SET MERGE THRESHOLD 0"),
            format!("ALTER COLUMN {key} SET STRATEGY cracking"),
        ];
        let [select, no_auto_merge, cracking] = sql.map(|s| compile_stmt(&parse_stmt(&s).unwrap()));
        let values = (0..2_000).map(|i| 110.0 + 150.0 * (f64::from(i) * 0.754_877_666).fract());
        let mut c = Catalog::new();
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(1024, 8 * 1024);
        let values = Bat::dense_dbl(values.collect());
        c.register_segmented(schema, table, ra, values, 110.0, 260.0, spec)
            .unwrap();
        c.register_bat(
            schema,
            table,
            objid,
            Bat::dense_int((9_000..11_000).collect()),
        );
        Interp::new(&mut c).run(&no_auto_merge, &[]).unwrap();
        let mut steps = Vec::new();
        let mut step = |c: &mut Catalog| {
            let (optimized, _) = SegmentOptimizer::new().optimize(&select, c);
            let args = [Atom::Dbl(150.0), Atom::Dbl(152.0)];
            let answer = result_ids(&Interp::new(c).run(&optimized, &args).unwrap().unwrap());
            let pieces = c.segmented(&key).unwrap().piece_count();
            steps.push((answer, c.pending_rows(schema, table), pieces));
        };
        step(&mut c);
        c.insert_row(
            schema,
            table,
            &[(ra, Atom::Dbl(151.5)), (objid, Atom::Int(77_777))],
        );
        step(&mut c);
        c.update_value(schema, table, ra, 1, Atom::Dbl(150.25));
        step(&mut c);
        c.delete_row(schema, table, 2);
        step(&mut c);
        Interp::new(&mut c).run(&cracking, &[]).unwrap();
        step(&mut c);
        let report = c.merge_deltas(schema, table).unwrap();
        assert_eq!((report.inserted, report.updated, report.deleted), (2, 1, 1));
        step(&mut c);
        steps
    }

    let (schema, table) = (
        "skyserver_data_release_7",
        "photo_objects_with_extinction_corrections",
    );
    assert!(
        schema.len() + 1 + table.len() > 64,
        "the table key outgrows the stack buffer"
    );
    let long = session(
        schema,
        table,
        "right_ascension_j2000",
        "sdss_object_identifier",
    );
    assert_eq!(long, session("sys", "P", "ra", "objid"));
    assert!(long[1].0.contains(&77_777), "the pending insert qualifies");
    assert_eq!(
        long.iter().map(|s| s.1).collect::<Vec<_>>(),
        [0, 2, 3, 4, 4, 0]
    );
}
