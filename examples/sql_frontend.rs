//! The full compilation stack of Section 2: SQL → MAL → tactical
//! optimization → execution, with self-organization along the way.
//!
//! ```text
//! cargo run --example sql_frontend --release
//! ```

use socdb::bat::{Atom, Bat};
use socdb::mal::{compile_select, compile_stmt, parse_stmt, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::{StrategyKind, StrategySpec};

fn main() {
    // sys.P: 100k photo objects with clustered ra.
    let n = 100_000usize;
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
            StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(16 * 1024, 128 * 1024),
        )
        .expect("ra registers");
    catalog.register_bat("sys", "P", "objid", Bat::dense_int(objid));

    // 1. Literal bounds: compiled constants let the optimizer prune
    //    segments through the meta-index.
    let sql = "SELECT objid FROM sys.P WHERE ra BETWEEN 205.1 AND 205.12";
    println!("SQL> {sql}\n");
    let plan = compile_select(sql).expect("the paper's query class");
    println!(
        "compiled to {} MAL statements (Figure 1's binds, selection and renumbering;\n\
         its delta merges fused into sql.subdelta and sql.projectdelta)\n",
        plan.stmts.len()
    );
    let (optimized, report) = SegmentOptimizer::new().optimize(&plan, &catalog);
    println!(
        "segment optimizer: {} rewrite(s), strategy {:?}\n",
        report.rewrites.len(),
        report.rewrites.first().map(|(_, s)| s.clone())
    );
    let result = Interp::new(&mut catalog)
        .run(&optimized, &[])
        .expect("plan runs")
        .expect("plan exports");
    println!("-> {} objids match\n", result.len());

    // 2. Prepared-statement style: `?` placeholders become plan parameters.
    let sql = "SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?";
    println!("SQL> {sql}   (prepared)\n");
    let plan = compile_select(sql).expect("placeholders compile");
    for (lo, hi) in [(120.0, 121.0), (180.0, 182.5), (240.0, 244.0)] {
        let (optimized, _) = SegmentOptimizer::new().optimize(&plan, &catalog);
        let result = Interp::new(&mut catalog)
            .run(&optimized, &[Atom::Dbl(lo), Atom::Dbl(hi)])
            .expect("plan runs")
            .expect("plan exports");
        let pieces = catalog.segmented("sys.P.ra").unwrap().piece_count();
        println!(
            "   ra in [{lo:>5.1}, {hi:>5.1}] -> {:>5} objids   (column now {pieces} pieces)",
            result.len()
        );
    }
    println!("\nEvery execution ran the injected bpm.adapt hook: the column");
    println!("reorganized itself around the query bounds, fully transparent");
    println!("to the SQL text — the Section 3.1 design goal.");

    // 3. Physical design is SQL-visible: switch the live column to a
    //    different self-organizing strategy and keep querying.
    let ddl = "ALTER COLUMN sys.P.ra SET STRATEGY cracking";
    println!("\nSQL> {ddl}\n");
    let stmt = parse_stmt(ddl).expect("DDL parses");
    Interp::new(&mut catalog)
        .run(&compile_stmt(&stmt), &[])
        .expect("DDL executes");
    println!(
        "ra now runs under {:?} (rebuilt from its rows, oids intact)",
        catalog.segmented("sys.P.ra").unwrap().strategy_name()
    );
    let plan = compile_select("SELECT objid FROM sys.P WHERE ra BETWEEN 205.1 AND 205.12")
        .expect("select compiles");
    let (optimized, _) = SegmentOptimizer::new().optimize(&plan, &catalog);
    let result = Interp::new(&mut catalog)
        .run(&optimized, &[])
        .expect("plan runs")
        .expect("plan exports");
    println!(
        "-> same query, {} objids, served by the cracked column ({} pieces)",
        result.len(),
        catalog.segmented("sys.P.ra").unwrap().piece_count()
    );

    // 4. Updates accumulate beside the base column (MonetDB's delta
    //    scheme) and stay visible to reads through the snapshot overlay —
    //    no merge needed. The merge threshold is SQL-visible too.
    let ddl = "ALTER TABLE sys.P SET MERGE THRESHOLD 50000";
    println!("\nSQL> {ddl}\n");
    let stmt = parse_stmt(ddl).expect("DDL parses");
    Interp::new(&mut catalog)
        .run(&compile_stmt(&stmt), &[])
        .expect("DDL executes");
    println!(
        "merge threshold for sys.P now {} pending rows",
        catalog.table_merge_threshold("sys", "P")
    );
    for i in 0..2_000i64 {
        catalog.insert_row(
            "sys",
            "P",
            &[
                ("ra", Atom::Dbl(205.1 + (i % 20) as f64 * 0.001)),
                ("objid", Atom::Int(900_000_000_000 + i)),
            ],
        );
    }
    let visible = catalog
        .snapshot_count("sys.P.ra", 205.1, 205.12)
        .expect("delta-visible read");
    println!(
        "inserted 2000 rows; {} still pending un-merged, yet the snapshot",
        catalog.pending_rows("sys", "P")
    );
    println!("overlay already counts {visible} rows in ra ∈ [205.1, 205.12]");
    let pieces = catalog.segmented("sys.P.ra").unwrap().piece_count();
    let report = catalog.merge_deltas("sys", "P").expect("merge");
    let after = catalog.segmented("sys.P.ra").unwrap().piece_count();
    println!(
        "the merge folded {} insert entries (rows × columns), each ra value into the piece\nthat owns it; {} pending remain,",
        report.inserted,
        catalog.pending_rows("sys", "P")
    );
    println!("and the column kept its organization: {pieces} pieces before, {after} after");
    assert_eq!(pieces, after, "a merge keeps every piece");
    assert_eq!(
        catalog
            .snapshot_count("sys.P.ra", 205.1, 205.12)
            .expect("delta-visible read"),
        visible,
        "the merged column answers what the overlay answered"
    );
}
