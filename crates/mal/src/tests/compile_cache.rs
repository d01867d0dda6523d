//! The compile cache against a fresh compile: a statement whose shape was
//! compiled before — from other literal values, after a statement of the
//! same words with other literal kinds — renders, equals and answers as
//! the plan compiled from its own parse, and a text that fails to parse
//! fails with the same error. The cache is one per process, so these
//! tests also run with as many test threads as cores.

use std::sync::{Arc, Mutex, PoisonError};

use proptest::prelude::*;
use soc_bat::{Atom, Bat};
use soc_core::{StrategyKind, StrategySpec};

use crate::sql::{cached_shapes, compile, parse_select, SqlError, CACHED_SHAPES};
use crate::{compile_select, Catalog, Interp, Program, SegmentOptimizer};

/// Keeps the two tests of this file apart: each reasons about what the
/// other's shapes would evict.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Choices drawn from a seed (xorshift).
struct Dice(u64);

impl Dice {
    fn roll(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<'a>(&mut self, of: &[&'a str]) -> &'a str {
        of[self.roll(of.len() as u64) as usize]
    }
}

/// The kind a shape keys a bound by.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Placeholder,
    Int,
    Dbl,
}

/// A bound of kind `kind`, its value drawn from `d`: small and large
/// integers (above 2⁵³ too), fractions, exponents either case, `-0.0`.
fn bound(d: &mut Dice, kind: Kind) -> String {
    match kind {
        Kind::Placeholder => "?".into(),
        Kind::Int => match d.roll(3) {
            0 => (d.roll(400) as i64 - 100).to_string(),
            1 => (9_007_199_254_740_993 + d.roll(1000) as i64).to_string(),
            _ => (i64::MIN + d.roll(10) as i64).to_string(),
        },
        Kind::Dbl => match d.roll(5) {
            0 => format!("{}.{:03}", 200 + d.roll(10), d.roll(1000)),
            1 => format!("{}e{}", 1 + d.roll(9), d.roll(3)),
            2 => format!("2.05{}E{}", d.roll(100), 1 + d.roll(2)),
            3 => "-0.0".into(),
            _ => format!("-{}.5", d.roll(50)),
        },
    }
}

/// The two bounds' kinds a shape seed picks.
fn kinds(shape: u64) -> [Kind; 2] {
    let mut d = Dice(shape | 1);
    let kind = |d: &mut Dice| [Kind::Placeholder, Kind::Int, Kind::Dbl][d.roll(3) as usize];
    [kind(&mut d), kind(&mut d)]
}

/// A statement of the grammar: keywords in any case, names quoted or not,
/// the table qualified or not, the two bounds of kinds `kinds` with values
/// drawn from `values`, and the separators and terminator the shape seed
/// picks.
fn statement(shape: u64, kinds: [Kind; 2], values: u64) -> String {
    let mut d = Dice(shape | 1);
    d.roll(9); // the rolls `kinds` spent
    d.roll(9);
    let mut v = Dice(values | 1);
    let mut kw = |word: &str| match d.roll(4) {
        0 => word.to_owned(),
        1 => word.to_ascii_uppercase(),
        2 => word[..1].to_ascii_uppercase() + &word[1..],
        _ => word
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect(),
    };
    let words = ["select", "from", "where", "between", "and"].map(&mut kw);
    let quoted = |d: &mut Dice, name: &str| match d.roll(2) {
        0 => name.to_owned(),
        _ => format!("\"{name}\""),
    };
    let table = match d.roll(3) {
        0 => quoted(&mut d, "P"),
        _ => format!("{}.{}", quoted(&mut d, "sys"), quoted(&mut d, "P")),
    };
    let columns = ["objid", "ra"];
    let projection = d.pick(&columns);
    let projection = quoted(&mut d, projection);
    let predicate = d.pick(&columns);
    let predicate = quoted(&mut d, predicate);
    let sep = d.pick(&[" ", "  ", "\n", " \t"]);
    let end = d.pick(&["", ";", " ;"]);
    let [select, from, wher, between, and] = words;
    let [lo, hi] = kinds.map(|k| bound(&mut v, k));
    [
        select.as_str(),
        &projection,
        &from,
        &table,
        &wher,
        &predicate,
        &between,
        &lo,
        &and,
        &hi,
    ]
    .join(sep)
        + end
}

/// `sql` broken the way `how` picks, or `sql` itself: a keyword dropped,
/// trailing garbage, a word for a bound, an unterminated quote, an integer
/// past `i64`, a malformed number, a stray character.
fn broken(sql: &str, how: u8) -> String {
    match how {
        0 => sql.replacen("from", "", 1).replacen("FROM", "", 1),
        1 => format!("{sql} garbage"),
        2 => format!("{} x", sql.trim_end_matches([';', ' '])),
        3 => sql.replacen("P", "\"P", 1),
        4 => format!(
            "{} and 9223372036854775808",
            sql.trim_end_matches([';', ' '])
        ),
        5 => sql.replacen("between ", "between 1.2.3 ", 1),
        6 => format!("{sql} @"),
        _ => sql.to_owned(),
    }
}

/// `sys.P`: `ra` (dbl, cracked) and `objid` (int), 200 rows.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let ra: Vec<f64> = (0..200).map(|i| 200.0 + f64::from(i) * 0.05).collect();
    let spec = StrategySpec::new(StrategyKind::Cracking);
    c.register_segmented("sys", "P", "ra", Bat::dense_dbl(ra), 0.0, 400.0, spec)
        .unwrap();
    c.register_bat("sys", "P", "objid", Bat::dense_int((0..200).collect()));
    c
}

/// What `plan` answers on `c`, optimized, with `[200.2, 205]` for its
/// placeholders.
fn answer(c: &mut Catalog, plan: &Program) -> String {
    let (plan, _) = SegmentOptimizer::new().optimize(plan, c);
    let args = [Atom::Dbl(200.2), Atom::Dbl(205.0)];
    format!(
        "{:?}",
        Interp::new(c).run(&plan, &args[..plan.params().len()])
    )
}

/// A fresh compile of `sql`, bypassing the cache.
fn fresh(sql: &str) -> Result<Program, SqlError> {
    parse_select(sql).map(|q| compile(&q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_cached_shape_compiles_as_a_fresh_statement(
        shape in any::<u64>(),
        (first, second) in (any::<u64>(), any::<u64>()),
        flip in 0usize..2,
        how in 0u8..12,
    ) {
        let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
        let own = kinds(shape);
        // The same words with other literal kinds compile first: their
        // shape is another one.
        let mut other = own;
        other[flip] = match own[flip] {
            Kind::Int => Kind::Dbl,
            Kind::Dbl => Kind::Placeholder,
            Kind::Placeholder => Kind::Int,
        };
        let sibling_of = |kinds, values| broken(&statement(shape, kinds, values), how);
        let _ = compile_select(&sibling_of(other, first));
        let sibling = compile_select(&sibling_of(own, first));
        let sql = sibling_of(own, second);
        let cached = compile_select(&sql);
        match (fresh(&sql), cached) {
            (Err(want), got) => prop_assert_eq!(got.map(|p| p.render()), Err(want), "{}", sql),
            (Ok(want), Err(e)) => prop_assert!(false, "{sql}: {e}, a fresh compile gave\n{}", want.render()),
            (Ok(want), Ok(got)) => {
                prop_assert_eq!(got.render(), want.render(), "{}", sql);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got.params(), want.params());
                let shared = sibling.map(|s| Arc::ptr_eq(&s.stmts, &got.stmts));
                prop_assert_eq!(shared, Ok(true), "{} took no cached shape", sql);
                let mut c = catalog();
                prop_assert_eq!(answer(&mut c, &got), answer(&mut c, &want), "{}", sql);
            }
        }
    }
}

/// Threads compile shapes of their own at once, more of them than the
/// cache holds, each checked against a fresh compile; the cache never
/// holds more than its capacity, and ends full.
#[test]
fn threads_compiling_different_shapes_each_get_their_own_plan() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    const THREADS: usize = 4;
    const SHAPES: usize = CACHED_SHAPES / 2;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for round in 0..3 {
                    for i in 0..SHAPES {
                        let bound = if (t + i) % 2 == 0 { "?" } else { "205.1" };
                        let sql = format!(
                            "SELECT objid FROM sys.T{t}_{i} WHERE ra BETWEEN {bound} AND {}.5",
                            200 + round
                        );
                        let want = fresh(&sql).unwrap();
                        for _ in 0..2 {
                            let got = compile_select(&sql).unwrap();
                            assert_eq!(got.render(), want.render(), "{sql}");
                            assert_eq!(got, want, "{sql}");
                        }
                        assert!(cached_shapes() <= CACHED_SHAPES);
                    }
                }
            });
        }
    });
    assert_eq!(cached_shapes(), CACHED_SHAPES);
}
