//! The SQL front-end of the compilation stack (Section 2): "The SQL
//! compiler for MonetDB maps the relational tables into collections of
//! bats … The query is compiled into MAL using common heuristic
//! optimization rules."
//!
//! Supports the query class the paper works with — single-column
//! projections filtered by a range predicate:
//!
//! ```sql
//! SELECT objid FROM sys.P WHERE ra BETWEEN 205.1 AND 205.12
//! SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?   -- plan parameters
//! ```
//!
//! The generated plan keeps Figure 1's binds (base + insert/update deltas
//! of both columns, the deletions bat), its `uselect` over the predicate
//! column and its `markT`/`reverse` renumbering. Figure 1's ten delta
//! instructions and its final `join` become two fused operators:
//! `sql.subdelta` merges the predicate side's deltas into the selection,
//! and `sql.projectdelta` fetches the projected values for the selected
//! oids by probing that column's updates, base and inserts. Both return
//! exactly what the `kunion`/`kdifference`/`join` chain they replace
//! returns, but `sql.projectdelta` never builds the merged projected
//! column: the chain copied the whole column per statement while inserts
//! were pending, and hashed it when an update was. The Figure 1 text
//! itself still parses and runs unchanged. The plan is deliberately *not*
//! segment-aware — that is the tactical [`crate::SegmentOptimizer`]'s job,
//! downstream.
//!
//! Physical design is SQL-visible through one DDL hint:
//!
//! ```sql
//! ALTER COLUMN sys.P.ra SET STRATEGY cracking
//! ```
//!
//! which compiles to a `bpm.setStrategy` call re-organizing the live
//! column under any [`StrategyKind`] token (see
//! [`StrategyKind::from_token`]).

use std::sync::Arc;

use soc_bat::Atom;
use soc_core::StrategyKind;

use crate::ast::{Arg, Instruction, Name, Program, Stmt};

/// A parsed range-selection query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectBetween {
    /// Schema (defaults to `sys` when the table is unqualified).
    pub schema: String,
    /// Table name.
    pub table: String,
    /// Projected column.
    pub projection: String,
    /// Predicate column.
    pub predicate: String,
    /// Lower bound, or `None` for a `?` placeholder.
    pub lo: Option<Atom>,
    /// Upper bound, or `None` for a `?` placeholder.
    pub hi: Option<Atom>,
}

/// A parsed `ALTER COLUMN … SET STRATEGY` hint: the catalog DDL face of
/// the unified strategy layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlterStrategy {
    /// Schema (defaults to `sys`).
    pub schema: String,
    /// Table name.
    pub table: String,
    /// Column whose physical design changes.
    pub column: String,
    /// The strategy to re-organize under.
    pub kind: StrategyKind,
}

/// A parsed `ALTER TABLE … SET MERGE THRESHOLD` hint: sets the pending
/// delta-row count at which the table starts compacting its deltas into
/// the base columns (0 disables auto-merging for the table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlterMergeThreshold {
    /// Schema (defaults to `sys`).
    pub schema: String,
    /// Table name.
    pub table: String,
    /// Pending rows at which compaction starts.
    pub rows: usize,
}

/// Any statement the SQL front-end accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStmt {
    /// A Figure-1-class range selection.
    Select(SelectBetween),
    /// The physical-design DDL hint.
    AlterStrategy(AlterStrategy),
    /// The delta-compaction DDL hint.
    AlterMergeThreshold(AlterMergeThreshold),
}

/// SQL parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL: {}", self.message)
    }
}

impl std::error::Error for SqlError {}

fn err(message: impl Into<String>) -> SqlError {
    SqlError {
        message: message.into(),
    }
}

#[derive(Debug, PartialEq)]
enum Tok<'s> {
    /// An identifier or keyword, sliced from the input.
    Word(&'s str),
    /// A literal without a fraction or exponent, read as an exact `i64`.
    Int(i64),
    /// A literal with a fraction or exponent.
    Dbl(f64),
    Placeholder,
    Dot,
    Star,
}

/// Reads one numeric literal: an integer parses as an exact `i64` (an
/// `f64` round trip would change integers above 2⁵³), anything with a
/// fraction or an exponent (`e` or `E`) as a finite `f64`.
fn number(text: &str) -> Result<Tok<'_>, SqlError> {
    if !text.contains(['.', 'e', 'E']) {
        return text.parse().map(Tok::Int).map_err(|e| match e.kind() {
            std::num::IntErrorKind::PosOverflow | std::num::IntErrorKind::NegOverflow => {
                err(format!("integer literal {text} is out of range"))
            }
            _ => err(format!("bad number {text:?}")),
        });
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Tok::Dbl(v)),
        Ok(_) => Err(err(format!("literal {text} is out of range"))),
        Err(_) => Err(err(format!("bad number {text:?}"))),
    }
}

fn tokenize(sql: &str) -> Result<Vec<Tok<'_>>, SqlError> {
    // Room for the usual statement, whose tokens are space-separated.
    let mut toks = Vec::with_capacity(sql.len() / 2);
    let b = sql.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            c if c.is_ascii_whitespace() || c == b';' => i += 1,
            b'.' if b.get(i + 1).is_some_and(|n| !n.is_ascii_digit()) => {
                toks.push(Tok::Dot);
                i += 1;
            }
            b'*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            b'?' => {
                toks.push(Tok::Placeholder);
                i += 1;
            }
            c if c.is_ascii_digit() || c == b'-' || c == b'.' => {
                let start = i;
                i += 1;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'-' | b'+')
                {
                    i += 1;
                }
                toks.push(number(&sql[start..i])?);
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'"' => {
                let quoted = c == b'"';
                if quoted {
                    i += 1;
                }
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &sql[start..i];
                if quoted {
                    if b.get(i) != Some(&b'"') {
                        return Err(err("unterminated quoted identifier"));
                    }
                    i += 1;
                }
                toks.push(Tok::Word(word));
            }
            _ => {
                // Every arm above consumed whole ASCII characters, so `i`
                // is on a character boundary.
                let c = sql[i..].chars().next().unwrap_or_default();
                if !c.is_whitespace() {
                    return Err(err(format!("unexpected character {c:?}")));
                }
                i += c.len_utf8();
            }
        }
    }
    Ok(toks)
}

/// Parses `ALTER COLUMN [<schema>.]<table>.<column> SET STRATEGY <kind>`.
pub(crate) fn parse_alter(sql: &str) -> Result<AlterStrategy, SqlError> {
    let toks = tokenize(sql)?;
    let kw = |i: usize, want: &str| -> bool {
        matches!(&toks.get(i), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(want))
    };
    let word = |i: usize, what: &str| -> Result<String, SqlError> {
        match toks.get(i) {
            Some(Tok::Word(w)) => Ok((*w).to_owned()),
            other => Err(err(format!("expected {what}, got {other:?}"))),
        }
    };
    if !(kw(0, "alter") && kw(1, "column")) {
        return Err(err("expected ALTER COLUMN"));
    }
    let mut i = 2;
    let mut parts = vec![word(i, "column reference")?];
    i += 1;
    while toks.get(i) == Some(&Tok::Dot) {
        i += 1;
        parts.push(word(i, "column reference part")?);
        i += 1;
    }
    let (schema, table, column) = match parts.len() {
        2 => ("sys".to_owned(), parts.remove(0), parts.remove(0)),
        3 => (parts.remove(0), parts.remove(0), parts.remove(0)),
        n => return Err(err(format!("expected table.column, got {n} name part(s)"))),
    };
    if !(kw(i, "set") && kw(i + 1, "strategy")) {
        return Err(err("expected SET STRATEGY"));
    }
    i += 2;
    let token = word(i, "strategy name")?;
    i += 1;
    if i != toks.len() {
        return Err(err("trailing tokens after the strategy name"));
    }
    let kind = StrategyKind::from_token(&token)
        .ok_or_else(|| err(format!("unknown strategy {token:?}")))?;
    Ok(AlterStrategy {
        schema,
        table,
        column,
        kind,
    })
}

/// Compiles the DDL hint into its one-instruction MAL plan.
pub(crate) fn compile_alter(a: &AlterStrategy) -> Program {
    let key = format!("{}.{}.{}", a.schema, a.table, a.column);
    Program {
        stmts: vec![Stmt::Assign(Arc::new(Instruction::new(
            Some(Name::Borrowed("X1")),
            "bpm",
            "setStrategy",
            vec![
                Arg::Const(Atom::Str(key)),
                Arg::Const(Atom::Str(a.kind.token().to_owned())),
            ],
        )))],
    }
}

/// Parses `ALTER TABLE [<schema>.]<table> SET MERGE THRESHOLD <n>`.
pub(crate) fn parse_alter_table(sql: &str) -> Result<AlterMergeThreshold, SqlError> {
    let toks = tokenize(sql)?;
    let kw = |i: usize, want: &str| -> bool {
        matches!(&toks.get(i), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(want))
    };
    let word = |i: usize, what: &str| -> Result<String, SqlError> {
        match toks.get(i) {
            Some(Tok::Word(w)) => Ok((*w).to_owned()),
            other => Err(err(format!("expected {what}, got {other:?}"))),
        }
    };
    if !(kw(0, "alter") && kw(1, "table")) {
        return Err(err("expected ALTER TABLE"));
    }
    let mut i = 2;
    let first = word(i, "table reference")?;
    i += 1;
    let (schema, table) = if toks.get(i) == Some(&Tok::Dot) {
        i += 1;
        let t = word(i, "table name after schema")?;
        i += 1;
        (first, t)
    } else {
        ("sys".to_owned(), first)
    };
    if !(kw(i, "set") && kw(i + 1, "merge") && kw(i + 2, "threshold")) {
        return Err(err("expected SET MERGE THRESHOLD"));
    }
    i += 3;
    let rows = match toks.get(i) {
        Some(&Tok::Int(v)) if v >= 0 => v as usize,
        other => return Err(err(format!("expected a row count, got {other:?}"))),
    };
    i += 1;
    if i != toks.len() {
        return Err(err("trailing tokens after the threshold"));
    }
    Ok(AlterMergeThreshold {
        schema,
        table,
        rows,
    })
}

/// Compiles the compaction DDL into its one-instruction MAL plan.
pub(crate) fn compile_alter_table(a: &AlterMergeThreshold) -> Program {
    Program {
        stmts: vec![Stmt::Assign(Arc::new(Instruction::new(
            Some(Name::Borrowed("X1")),
            "sql",
            "setMergeThreshold",
            vec![
                Arg::Const(Atom::Str(a.schema.clone())),
                Arg::Const(Atom::Str(a.table.clone())),
                Arg::Const(Atom::Int(a.rows as i64)),
            ],
        )))],
    }
}

/// Parses any accepted statement: a range selection or one of the DDL
/// hints (`ALTER COLUMN … SET STRATEGY`, `ALTER TABLE … SET MERGE
/// THRESHOLD`).
pub fn parse_stmt(sql: &str) -> Result<SqlStmt, SqlError> {
    let mut words = sql.split_whitespace();
    let first = words.next().unwrap_or("");
    if first.eq_ignore_ascii_case("alter") {
        if words
            .next()
            .is_some_and(|w| w.eq_ignore_ascii_case("table"))
        {
            Ok(SqlStmt::AlterMergeThreshold(parse_alter_table(sql)?))
        } else {
            Ok(SqlStmt::AlterStrategy(parse_alter(sql)?))
        }
    } else {
        Ok(SqlStmt::Select(parse_select(sql)?))
    }
}

/// Compiles any accepted statement to MAL.
pub fn compile_stmt(stmt: &SqlStmt) -> Program {
    match stmt {
        SqlStmt::Select(q) => compile(q),
        SqlStmt::AlterStrategy(a) => compile_alter(a),
        SqlStmt::AlterMergeThreshold(a) => compile_alter_table(a),
    }
}

/// Parses `SELECT <col> FROM [<schema>.]<table> WHERE <col> BETWEEN <b> AND <b>`.
pub(crate) fn parse_select(sql: &str) -> Result<SelectBetween, SqlError> {
    let toks = tokenize(sql)?;
    let mut i = 0;
    let kw = |toks: &[Tok<'_>], i: usize, want: &str| -> bool {
        matches!(&toks.get(i), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(want))
    };
    let word = |toks: &[Tok<'_>], i: usize, what: &str| -> Result<String, SqlError> {
        match toks.get(i) {
            Some(Tok::Word(w)) => Ok((*w).to_owned()),
            other => Err(err(format!("expected {what}, got {other:?}"))),
        }
    };

    if !kw(&toks, i, "select") {
        return Err(err("expected SELECT"));
    }
    i += 1;
    let projection = word(&toks, i, "projected column")?;
    i += 1;
    if !kw(&toks, i, "from") {
        return Err(err("expected FROM"));
    }
    i += 1;
    let first = word(&toks, i, "table name")?;
    i += 1;
    let (schema, table) = if toks.get(i) == Some(&Tok::Dot) {
        i += 1;
        let t = word(&toks, i, "table name after schema")?;
        i += 1;
        (first, t)
    } else {
        ("sys".to_owned(), first)
    };
    if !kw(&toks, i, "where") {
        return Err(err("expected WHERE"));
    }
    i += 1;
    let predicate = word(&toks, i, "predicate column")?;
    i += 1;
    if !kw(&toks, i, "between") {
        return Err(err("expected BETWEEN"));
    }
    i += 1;
    let bound = |i: &mut usize| -> Result<Option<Atom>, SqlError> {
        let b = match toks.get(*i) {
            Some(Tok::Placeholder) => None,
            Some(&Tok::Int(v)) => Some(Atom::Int(v)),
            Some(&Tok::Dbl(v)) => Some(Atom::Dbl(v)),
            other => return Err(err(format!("expected bound, got {other:?}"))),
        };
        *i += 1;
        Ok(b)
    };
    let lo = bound(&mut i)?;
    if !kw(&toks, i, "and") {
        return Err(err("expected AND"));
    }
    i += 1;
    let hi = bound(&mut i)?;
    if i != toks.len() {
        return Err(err("trailing tokens after the BETWEEN predicate"));
    }
    Ok(SelectBetween {
        schema,
        table,
        projection,
        predicate,
        lo,
        hi,
    })
}

/// Compiles a parsed query into a MAL plan: Figure 1's binds, base
/// selection and renumbering, with its delta merges as `sql.subdelta` and
/// `sql.projectdelta` (see the module doc for why). The plan answers what
/// the Figure 1 plan answers, to the bat.
///
/// Placeholder bounds become the function parameters `A0`/`A1`; literal
/// bounds are inlined as constants (enabling the segment optimizer's
/// meta-index pruning).
pub(crate) fn compile(q: &SelectBetween) -> Program {
    let s = |v: &str| Arg::Const(Atom::Str(v.to_owned()));
    let int = |v: i64| Arg::Const(Atom::Int(v));
    let var = |v: &'static str| Arg::Var(Name::Borrowed(v));
    let lo_arg = q.lo.clone().map_or(var("A0"), Arg::Const);
    let hi_arg = q.hi.clone().map_or(var("A1"), Arg::Const);

    let mut params = Vec::new();
    if q.lo.is_none() {
        params.push(Name::Borrowed("A0"));
    }
    if q.hi.is_none() {
        params.push(Name::Borrowed("A1"));
    }

    let mut p = Vec::with_capacity(18);
    p.push(Stmt::Function {
        name: format!(
            "user.{}_{}",
            q.table.to_lowercase(),
            q.predicate.to_lowercase()
        )
        .into(),
        params,
    });
    let mut push =
        |target: Option<&'static str>, module: &'static str, function: &'static str, args| {
            p.push(Stmt::Assign(Arc::new(Instruction::new(
                target.map(Name::Borrowed),
                module,
                function,
                args,
            ))));
        };

    // Predicate column: base + insert/update deltas + deletions.
    push(
        Some("X1"),
        "sql",
        "bind",
        vec![s(&q.schema), s(&q.table), s(&q.predicate), int(0)],
    );
    push(
        Some("X16"),
        "sql",
        "bind",
        vec![s(&q.schema), s(&q.table), s(&q.predicate), int(1)],
    );
    push(
        Some("X19"),
        "sql",
        "bind",
        vec![s(&q.schema), s(&q.table), s(&q.predicate), int(2)],
    );
    push(
        Some("X23"),
        "sql",
        "bind_dbat",
        vec![s(&q.schema), s(&q.table), int(1)],
    );
    // Projected column: base + deltas.
    push(
        Some("X30"),
        "sql",
        "bind",
        vec![s(&q.schema), s(&q.table), s(&q.projection), int(0)],
    );
    push(
        Some("X32"),
        "sql",
        "bind",
        vec![s(&q.schema), s(&q.table), s(&q.projection), int(1)],
    );
    push(
        Some("X34"),
        "sql",
        "bind",
        vec![s(&q.schema), s(&q.table), s(&q.projection), int(2)],
    );
    // Range selection over the base (what the segment optimizer rewrites),
    // then the predicate-side delta merge: + qualifying inserts, − updated
    // rows, + updated rows that qualify, − deleted rows.
    push(
        Some("X14"),
        "algebra",
        "uselect",
        vec![var("X1"), lo_arg.clone(), hi_arg.clone()],
    );
    push(
        Some("X25"),
        "sql",
        "subdelta",
        vec![
            var("X14"),
            var("X16"),
            var("X19"),
            var("X23"),
            lo_arg,
            hi_arg,
        ],
    );
    // Renumber, then reconstruct tuples by probing the projected column's
    // updates, base and inserts for the selected oids.
    push(Some("X26"), "calc", "oid", vec![Arg::Const(Atom::Oid(0))]);
    push(
        Some("X28"),
        "algebra",
        "markT",
        vec![var("X25"), var("X26")],
    );
    push(Some("X29"), "bat", "reverse", vec![var("X28")]);
    push(
        Some("X37"),
        "sql",
        "projectdelta",
        vec![var("X29"), var("X30"), var("X32"), var("X34")],
    );
    // Export.
    push(
        Some("X38"),
        "sql",
        "resultSet",
        vec![int(1), int(1), var("X37")],
    );
    push(
        None,
        "sql",
        "rsColumn",
        vec![
            var("X38"),
            Arg::Const(Atom::Str(format!("{}.{}", q.schema, q.table))),
            s(&q.projection),
            s("bigint"),
            int(64),
            int(0),
            var("X37"),
        ],
    );
    push(None, "sql", "exportResult", vec![var("X38"), s("")]);
    p.push(Stmt::End);
    Program { stmts: p }
}

/// Parses and compiles in one step.
pub fn compile_select(sql: &str) -> Result<Program, SqlError> {
    Ok(compile(&parse_select(sql)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::Catalog;
    use soc_bat::{Bat, Tail};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_bat(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl(vec![204.9, 205.05, 205.11, 205.13, 205.115]),
        );
        c.register_bat("sys", "P", "objid", Bat::dense_int(vec![0, 1, 2, 3, 4]));
        c
    }

    #[test]
    fn parses_the_papers_query() {
        let q = parse_select("select objId from P where ra between 205.1 and 205.12").unwrap();
        assert_eq!(q.schema, "sys");
        assert_eq!(q.table, "P");
        assert_eq!(q.projection, "objId");
        assert_eq!(q.predicate, "ra");
        assert_eq!(q.lo, Some(Atom::Dbl(205.1)));
        assert_eq!(q.hi, Some(Atom::Dbl(205.12)));
    }

    #[test]
    fn parses_qualified_table_and_placeholders() {
        let q = parse_select("SELECT objid FROM sky.photo WHERE ra BETWEEN ? AND ?").unwrap();
        assert_eq!(q.schema, "sky");
        assert_eq!(q.table, "photo");
        assert_eq!(q.lo, None);
        assert_eq!(q.hi, None);
        let plan = compile(&q);
        assert_eq!(plan.params(), ["A0", "A1"]);
    }

    #[test]
    fn parses_integer_bounds_as_ints() {
        let q = parse_select("select v from t where k between 10 and 20").unwrap();
        assert_eq!(q.lo, Some(Atom::Int(10)));
        assert_eq!(q.hi, Some(Atom::Int(20)));
    }

    #[test]
    fn integer_literals_are_exact_and_exponents_take_either_case() {
        let q = parse_select(
            "select v from t where k between 9007199254740993 and -9223372036854775808",
        )
        .unwrap();
        assert_eq!(q.lo, Some(Atom::Int(9_007_199_254_740_993)));
        assert_eq!(q.hi, Some(Atom::Int(i64::MIN)));
        let q = parse_select("select v from t where k between 1e3 and 2.5E-1").unwrap();
        assert_eq!(q.lo, Some(Atom::Dbl(1000.0)));
        assert_eq!(q.hi, Some(Atom::Dbl(0.25)));
        for bad in [
            "select v from t where k between 9223372036854775808 and 1",
            "select v from t where k between 1 and -9223372036854775809",
            "select v from t where k between 1e999 and 1",
        ] {
            let e = parse_select(bad).unwrap_err();
            assert!(e.message.contains("out of range"), "{bad:?}: {e}");
        }
        assert!(
            parse_alter_table("ALTER TABLE P SET MERGE THRESHOLD 99999999999999999999").is_err()
        );
    }

    #[test]
    fn integer_range_selections_are_exact_above_2_pow_53() {
        // 2^53 + 1 rounds to 2^53 as an f64; SDSS objIDs live up here.
        let big = 1i64 << 53;
        let sql = "SELECT v FROM sys.T WHERE k BETWEEN 9007199254740993 AND 9007199254740993";
        for segmented in [false, true] {
            let mut c = Catalog::new();
            let k = Bat::dense_int(vec![big, big + 1, big + 2]);
            if segmented {
                c.register_segmented(
                    "sys",
                    "T",
                    "k",
                    k,
                    big as f64,
                    (big + 4) as f64,
                    soc_core::StrategySpec::new(soc_core::StrategyKind::Cracking),
                )
                .unwrap();
            } else {
                c.register_bat("sys", "T", "k", k);
            }
            c.register_bat("sys", "T", "v", Bat::dense_int(vec![10, 11, 12]));
            // Twice: the first statement's `bpm.adapt` splits a segmented
            // column near the bound.
            for _ in 0..2 {
                let plan = compile_select(sql).unwrap();
                let (plan, _) = crate::SegmentOptimizer::new().optimize(&plan, &c);
                let result = Interp::new(&mut c).run(&plan, &[]).unwrap().unwrap();
                assert_eq!(
                    result.tail(),
                    &Tail::Int(vec![11].into()),
                    "segmented {segmented}"
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "select from t where k between 1 and 2",
            "select a from t",
            "select a t where k between 1 and 2",
            "select a from t where k between 1",
            "select a from t where k between 1 and 2 garbage",
            "delete from t",
        ] {
            assert!(parse_select(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn compiled_plan_runs_and_matches_figure1_semantics() {
        let mut c = catalog();
        let plan = compile_select("select objid from P where ra between 205.1 and 205.12").unwrap();
        let result = Interp::new(&mut c)
            .run(&plan, &[])
            .unwrap()
            .expect("plan exports a result");
        let Tail::Int(ids) = result.tail() else {
            panic!()
        };
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn compiled_plan_merges_deltas_with_the_two_fused_operators() {
        for sql in [
            "SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?",
            "select objid from P where ra between 205.1 and 205.12",
        ] {
            let plan = compile_select(sql).unwrap();
            let calls: Vec<String> = plan
                .stmts
                .iter()
                .filter_map(|s| match s {
                    Stmt::Assign(i) => Some(i.qualified()),
                    _ => None,
                })
                .collect();
            let count = |name: &str| calls.iter().filter(|c| *c == name).count();
            assert_eq!(count("sql.subdelta"), 1, "{calls:?}");
            assert_eq!(count("sql.projectdelta"), 1, "{calls:?}");
            for chain in ["algebra.kunion", "algebra.kdifference", "algebra.join"] {
                assert_eq!(count(chain), 0, "{chain} in {calls:?}");
            }
            assert_eq!(crate::parse(&plan.render()).unwrap(), plan, "{sql}");
        }
    }

    #[test]
    fn placeholder_plan_binds_parameters_at_run_time() {
        let mut c = catalog();
        let plan = compile_select("select objid from P where ra between ? and ?").unwrap();
        let result = Interp::new(&mut c)
            .run(&plan, &[Atom::Dbl(204.0), Atom::Dbl(205.1)])
            .unwrap()
            .unwrap();
        assert_eq!(result.len(), 2); // 204.9 and 205.05
    }

    #[test]
    fn alter_strategy_parses_and_compiles() {
        let a = parse_alter("ALTER COLUMN sys.P.ra SET STRATEGY cracking").unwrap();
        assert_eq!(a.schema, "sys");
        assert_eq!(a.table, "P");
        assert_eq!(a.column, "ra");
        assert_eq!(a.kind, soc_core::StrategyKind::Cracking);
        // Unqualified tables default to sys.
        let b = parse_alter("alter column P.ra set strategy gd_repl").unwrap();
        assert_eq!(b.schema, "sys");
        assert_eq!(b.kind, soc_core::StrategyKind::GdRepl);
        let plan = compile_alter(&a);
        assert!(plan.render().contains("bpm.setStrategy"));
        // parse_stmt dispatches on the leading keyword.
        assert!(matches!(
            parse_stmt("ALTER COLUMN P.ra SET STRATEGY fullsort"),
            Ok(SqlStmt::AlterStrategy(_))
        ));
        assert!(matches!(
            parse_stmt("select objid from P where ra between 1 and 2"),
            Ok(SqlStmt::Select(_))
        ));
        for bad in [
            "ALTER COLUMN ra SET STRATEGY cracking",
            "ALTER COLUMN P.ra SET STRATEGY btree",
            "ALTER COLUMN P.ra SET STRATEGY cracking extra",
            "ALTER TABLE P SET STRATEGY cracking",
        ] {
            assert!(parse_alter(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn alter_strategy_executes_end_to_end() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl((0..500).map(|i| i as f64 * 0.72).collect()),
            0.0,
            360.0,
            soc_core::StrategySpec::new(soc_core::StrategyKind::ApmSegm),
        )
        .unwrap();
        c.register_bat("sys", "P", "objid", Bat::dense_int((0..500).collect()));
        let ddl = parse_stmt("ALTER COLUMN sys.P.ra SET STRATEGY gd_repl").unwrap();
        Interp::new(&mut c)
            .run(&compile_stmt(&ddl), &[])
            .expect("DDL executes");
        assert_eq!(c.segmented("sys.P.ra").unwrap().strategy_name(), "GD Repl");
        // Queries still answer correctly on the re-organized column.
        let q = parse_stmt("select objid from P where ra between 90.0 and 180.0").unwrap();
        let result = Interp::new(&mut c)
            .run(&compile_stmt(&q), &[])
            .unwrap()
            .unwrap();
        // ra = i * 0.72 in [90, 180] -> i in [125, 250].
        assert_eq!(result.len(), 126);
    }

    #[test]
    fn alter_merge_threshold_parses_compiles_and_executes() {
        let a = parse_alter_table("ALTER TABLE sys.P SET MERGE THRESHOLD 128").unwrap();
        assert_eq!(
            a,
            AlterMergeThreshold {
                schema: "sys".to_owned(),
                table: "P".to_owned(),
                rows: 128,
            }
        );
        // Unqualified tables default to sys; parse_stmt dispatches on the
        // second keyword.
        assert!(matches!(
            parse_stmt("alter table P set merge threshold 0"),
            Ok(SqlStmt::AlterMergeThreshold(AlterMergeThreshold {
                rows: 0,
                ..
            }))
        ));
        let plan = compile_alter_table(&a);
        assert!(plan.render().contains("sql.setMergeThreshold"));
        for bad in [
            "ALTER TABLE SET MERGE THRESHOLD 1",
            "ALTER TABLE P SET MERGE THRESHOLD",
            "ALTER TABLE P SET MERGE THRESHOLD 1.5",
            "ALTER TABLE P SET MERGE THRESHOLD 1 extra",
            "ALTER TABLE P SET STRATEGY cracking",
        ] {
            assert!(parse_alter_table(bad).is_err(), "{bad:?} should fail");
        }

        // End to end: the DDL changes the threshold the auto-merge
        // consults, per table.
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl((0..50).map(f64::from).collect()),
            0.0,
            1000.0,
            soc_core::StrategySpec::new(soc_core::StrategyKind::Cracking),
        )
        .unwrap();
        let ddl = parse_stmt("ALTER TABLE sys.P SET MERGE THRESHOLD 3").unwrap();
        Interp::new(&mut c)
            .run(&compile_stmt(&ddl), &[])
            .expect("DDL executes");
        assert_eq!(c.table_merge_threshold("sys", "P"), 3);
        for i in 0..3 {
            c.insert_row("sys", "P", &[("ra", Atom::Dbl(100.0 + f64::from(i)))]);
        }
        assert_eq!(c.pending_rows("sys", "P"), 0, "merged at the DDL's pace");
        assert_eq!(c.segmented("sys.P.ra").unwrap().rows(), 53);
    }

    #[test]
    fn compiled_plan_composes_with_the_segment_optimizer() {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl((0..1000).map(|i| i as f64 * 0.36).collect()),
            0.0,
            360.0,
            soc_core::StrategySpec::new(soc_core::StrategyKind::Cracking),
        )
        .unwrap();
        c.register_bat("sys", "P", "objid", Bat::dense_int((0..1000).collect()));

        let plan = compile_select("select objid from P where ra between 90.0 and 180.0").unwrap();
        let (optimized, report) = crate::SegmentOptimizer::new().optimize(&plan, &c);
        assert_eq!(report.rewrites.len(), 1, "the base uselect is rewritten");
        let result = Interp::new(&mut c).run(&optimized, &[]).unwrap().unwrap();
        // ra in [90, 180] -> i in [250, 500].
        assert_eq!(result.len(), 251);
        // Adaptation was injected and fired.
        assert!(c.segmented("sys.P.ra").unwrap().piece_count() > 1);
    }
}
