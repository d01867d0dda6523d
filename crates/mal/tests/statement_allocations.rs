//! The heap-allocation budget of one SQL statement, phase by phase.
//!
//! Compiling and rewriting a plan is on every query's path (the SQL
//! compiler emits MAL, the segment optimizer rewrites it), so names,
//! constants, instructions and catalog keys must not be allocated or
//! copied per statement. A
//! counting global allocator, local to this test binary, runs the
//! benchmark's `sql_session` statement shape — a 25-row window over a
//! 25 000-row `ApmSegm` column — and pins how many allocations
//! `compile_select`, `SegmentOptimizer::optimize` and `Interp::run` make
//! per statement, first with no pending deltas, then in the state the
//! benchmark's trickle writes reach after 20 s: 200 inserted rows and 200
//! deletions pending. A taken piece is read once into the oids its
//! selection keeps, and the delta bats are bound by reference, so neither
//! the piece's size nor the pending lists show in the count. The two
//! writes of the benchmark's trickle, `insert_row` and `delete_row`, get
//! a budget of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use soc_bat::{Atom, Bat};
use soc_core::{StrategyKind, StrategySpec};
use soc_mal::{compile_select, Catalog, Interp, SegmentOptimizer};

/// Counts allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made
/// on the current thread, so the test harness's own threads stay out of
/// the count.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 25_000;
const RA_LO: f64 = 110.0;
/// 25 rows of the 150-wide domain.
const WINDOW: f64 = 150.0 * 25.0 / ROWS as f64;
const HOT_WINDOWS: usize = 64;
const WARMUP: usize = 2_000;
const MEASURED: usize = 2_000;

/// Per-statement ceilings: what the statement path needs (2, 8 and 9
/// allocations in release builds; 2, 8 and 10 with debug assertions,
/// whose validators allocate) plus a little headroom. A name, constant, instruction or key allocated
/// per statement again breaks them. A statement of a cached shape
/// allocates its tokens and its literal bounds; compiled from its parse
/// each time, it made 10, and the rewrite made 7 before it wrapped its
/// statements to share them. With string-matched calls, name-keyed
/// variables and a heap-allocated instruction, argument list and string
/// constant per statement, the path made 64, 27 and 13 (28 and 16 with
/// debug assertions); with `String` names, deep-copied statements and formatted
/// bind keys, 133, 145 and 88; with every taken piece built into a bat and
/// every delta bind rebuilt, `Interp::run` made 34; with the piece ranges
/// rebuilt at each read and the taken piece copied before its selection,
/// 16.
const COMPILE_MAX: f64 = 4.0;
const OPTIMIZE_MAX: f64 = 11.0;
const RUN_MAX: f64 = 12.3;
const TOTAL_MAX: f64 = 27.3;
/// `Interp::run` with 200 inserts and 200 deletions pending: what it
/// needs (15.5 allocations; 16.5 with debug assertions) plus the same
/// headroom. With match lists per delta source in the projection and a
/// keep loop sized by the piece, it made 20.9 (23.9); with rebuilt ranges
/// and a copied piece, 23.5; with built pieces and rebuilt delta binds,
/// 60.7.
const RUN_PENDING_MAX: f64 = 18.8;
/// Per-call ceilings of `insert_row` and `delete_row` on the two-column
/// `sys.P` with auto-merging off, so no merge runs: a write finds its
/// table entry by its names and its column entries by theirs, and only
/// the amortized growth of the delta and deletion lists allocates. With a
/// `format!`ed key per column and per table lookup they made 6.00 and
/// 3.00.
const INSERT_MAX: f64 = 0.1;
const DELETE_MAX: f64 = 0.1;
/// Insert-then-delete pairs, once to warm up and once measured.
const WRITE_PAIRS: usize = 1_000;
/// Trickle writes pending in the second state: each inserts a row, then
/// deletes it, as the benchmark's alternating writes do.
const PENDING_ROWS: usize = 200;

fn catalog() -> Catalog {
    let ra: Vec<f64> = (0..ROWS)
        .map(|i| RA_LO + 150.0 * ((i as f64 * 0.754_877_666).fract()))
        .collect();
    let objid: Vec<i64> = (0..ROWS as i64).map(|i| 587_730_000_000 + i).collect();
    let mut c = Catalog::new();
    c.register_segmented(
        "sys",
        "P",
        "ra",
        Bat::dense_dbl(ra),
        RA_LO,
        260.001,
        StrategySpec::new(StrategyKind::ApmSegm),
    )
    .unwrap();
    c.register_bat("sys", "P", "objid", Bat::dense_int(objid));
    c
}

/// Hot window `w`: bounds with three decimals like the benchmark's.
fn window(w: usize) -> (f64, f64) {
    let lo = RA_LO + (w as f64 + 0.5) * (150.0 - WINDOW) / HOT_WINDOWS as f64;
    let lo = (lo * 1e3).round() / 1e3;
    (lo, ((lo + WINDOW) * 1e3).round() / 1e3)
}

/// The statements of a session: hot windows visited in a scrambled order.
fn statements(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            let (lo, hi) = window((k * 37 + k / HOT_WINDOWS) % HOT_WINDOWS);
            format!("SELECT objid FROM sys.P WHERE ra BETWEEN {lo} AND {hi}")
        })
        .collect()
}

/// Runs `sql` once; returns the allocations of compile, optimize and run.
fn statement(c: &mut Catalog, sql: &str) -> [u64; 3] {
    let a0 = allocations();
    let plan = compile_select(sql).unwrap();
    let a1 = allocations();
    let (optimized, _report) = SegmentOptimizer::new().optimize(&plan, c);
    let a2 = allocations();
    let result = Interp::new(c).run(&optimized, &[]).unwrap();
    let a3 = allocations();
    assert!(result.is_some_and(|b| !b.is_empty()), "{sql} found no rows");
    drop(optimized);
    drop(plan);
    [a1 - a0, a2 - a1, a3 - a2]
}

/// `catalog` with `PENDING_ROWS` rows inserted and as many deleted, half
/// of the inserts inside a hot window; nothing is merged.
fn catalog_with_pending_writes() -> Catalog {
    let mut c = catalog();
    for k in 0..PENDING_ROWS {
        let ra = if k % 2 == 0 {
            window(k % HOT_WINDOWS).0 + WINDOW / 2.0
        } else {
            RA_LO + 150.0 * ((k as f64 * 0.618_034).fract())
        };
        let objid = 587_730_000_000 + (ROWS + k) as i64;
        let oid = c.insert_row(
            "sys",
            "P",
            &[("ra", Atom::Dbl(ra)), ("objid", Atom::Int(objid))],
        );
        c.delete_row("sys", "P", oid);
    }
    assert_eq!(c.pending_rows("sys", "P"), 3 * PENDING_ROWS);
    c
}

/// Mean allocations per statement of compile, optimize and run, after a
/// warm-up.
fn allocations_per_statement(c: &mut Catalog) -> [f64; 3] {
    for sql in statements(WARMUP) {
        statement(c, &sql);
    }
    let mut total = [0u64; 3];
    for sql in statements(MEASURED) {
        let phase = statement(c, &sql);
        for (t, p) in total.iter_mut().zip(phase) {
            *t += p;
        }
    }
    total.map(|t| t as f64 / MEASURED as f64)
}

#[test]
fn a_statement_stays_inside_its_allocation_budget() {
    let [compile, optimize, run] = allocations_per_statement(&mut catalog());
    let sum = compile + optimize + run;
    println!("allocations per statement: compile {compile:.1}, optimize {optimize:.1}, run {run:.1}, total {sum:.1}");
    assert!(
        compile <= COMPILE_MAX,
        "compile_select: {compile:.1} allocations per statement"
    );
    assert!(
        optimize <= OPTIMIZE_MAX,
        "optimize: {optimize:.1} allocations per statement"
    );
    assert!(
        run <= RUN_MAX,
        "Interp::run: {run:.1} allocations per statement"
    );
    assert!(sum <= TOTAL_MAX, "{sum:.1} allocations per statement");
}

#[test]
fn pending_writes_do_not_grow_a_statements_allocations() {
    let mut c = catalog_with_pending_writes();
    let [compile, optimize, run] = allocations_per_statement(&mut c);
    println!("with {PENDING_ROWS} inserts and deletes pending: compile {compile:.1}, optimize {optimize:.1}, run {run:.1}");
    assert!(
        run <= RUN_PENDING_MAX,
        "Interp::run: {run:.1} allocations per statement"
    );
}

#[test]
fn a_write_stays_inside_its_allocation_budget() {
    let mut c = catalog();
    c.set_table_merge_threshold("sys", "P", 0);
    let pair = |c: &mut Catalog, k: usize| {
        let a0 = allocations();
        let objid = 587_730_000_000 + (ROWS + k) as i64;
        let row = [("ra", Atom::Dbl(RA_LO + 1.0)), ("objid", Atom::Int(objid))];
        let oid = c.insert_row("sys", "P", &row);
        let a1 = allocations();
        c.delete_row("sys", "P", oid);
        [a1 - a0, allocations() - a1]
    };
    for k in 0..WRITE_PAIRS {
        pair(&mut c, k);
    }
    let mut total = [0u64; 2];
    for k in WRITE_PAIRS..2 * WRITE_PAIRS {
        let [insert, delete] = pair(&mut c, k);
        total[0] += insert;
        total[1] += delete;
    }
    assert_eq!(c.pending_rows("sys", "P"), 3 * 2 * WRITE_PAIRS);
    let [insert, delete] = total.map(|t| t as f64 / WRITE_PAIRS as f64);
    println!("allocations per write: insert_row {insert:.3}, delete_row {delete:.3}");
    assert!(
        insert <= INSERT_MAX,
        "insert_row: {insert:.3} allocations per call"
    );
    assert!(
        delete <= DELETE_MAX,
        "delete_row: {delete:.3} allocations per call"
    );
}
