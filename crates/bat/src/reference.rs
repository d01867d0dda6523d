//! The hash-everything kernels this crate shipped before density drove the
//! operators, kept as the reference the current kernels are checked
//! against: same rows in the same order, whatever the head representation.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::bat::{Bat, BatError, Head, Oid, Tail};

fn take_rows(b: &Bat, idx: &[usize]) -> Bat {
    let head = Head::Oids(Arc::new(idx.iter().map(|&i| b.head_at(i)).collect()));
    let tail = match b.tail() {
        Tail::Int(v) => Tail::Int(Arc::new(idx.iter().map(|&i| v[i]).collect())),
        Tail::Dbl(v) => Tail::Dbl(Arc::new(idx.iter().map(|&i| v[i]).collect())),
        Tail::Oid(v) => Tail::Oid(Arc::new(idx.iter().map(|&i| v[i]).collect())),
        Tail::Str(v) => Tail::Str(Arc::new(idx.iter().map(|&i| v[i].clone()).collect())),
        Tail::Nil(_) => Tail::Nil(idx.len()),
    };
    Bat::new(head, tail).expect("lengths match by construction")
}

/// `algebra.kunion(a, b)`: all rows of `a` plus the rows of `b` whose head
/// oid does not occur in `a`.
fn kunion(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    if std::mem::discriminant(a.tail()) != std::mem::discriminant(b.tail())
        && !a.is_empty()
        && !b.is_empty()
    {
        return Err(BatError::TypeMismatch {
            expected: a.tail().type_name(),
            got: b.tail().type_name(),
        });
    }
    let seen: HashSet<Oid> = (0..a.len()).map(|i| a.head_at(i)).collect();
    let extra: Vec<usize> = (0..b.len())
        .filter(|&i| !seen.contains(&b.head_at(i)))
        .collect();
    let first = take_rows(a, &(0..a.len()).collect::<Vec<_>>());
    let second = take_rows(b, &extra);
    append(&first, &second)
}

/// `algebra.kdifference(a, b)`: rows of `a` whose head oid does not occur
/// in `b`.
fn kdifference(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    let drop: HashSet<Oid> = (0..b.len()).map(|i| b.head_at(i)).collect();
    let keep: Vec<usize> = (0..a.len())
        .filter(|&i| !drop.contains(&a.head_at(i)))
        .collect();
    Ok(take_rows(a, &keep))
}

/// `algebra.kintersect(a, b)`: rows of `a` whose head oid occurs in `b`.
fn kintersect(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    let keep_set: HashSet<Oid> = (0..b.len()).map(|i| b.head_at(i)).collect();
    let keep: Vec<usize> = (0..a.len())
        .filter(|&i| keep_set.contains(&a.head_at(i)))
        .collect();
    Ok(take_rows(a, &keep))
}

/// `algebra.join(a, b)`: matches `a`'s tail oids against `b`'s head oids,
/// producing `(a.head, b.tail)` pairs.
fn join(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    let Tail::Oid(a_tails) = a.tail() else {
        return Err(BatError::OidTailRequired);
    };
    // Hash b's heads.
    let mut index: HashMap<Oid, Vec<usize>> = HashMap::new();
    for j in 0..b.len() {
        index.entry(b.head_at(j)).or_default().push(j);
    }
    let mut heads = Vec::new();
    let mut rows = Vec::new();
    for (i, t) in a_tails.iter().enumerate() {
        if let Some(matches) = index.get(t) {
            for &j in matches {
                heads.push(a.head_at(i));
                rows.push(j);
            }
        }
    }
    let picked = take_rows(b, &rows);
    let tail = picked.tail().clone();
    Bat::new(Head::Oids(heads.into()), tail)
}

/// Appends `b`'s rows to `a` (same tail type).
fn append(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    if a.is_empty() {
        return Ok(take_rows(b, &(0..b.len()).collect::<Vec<_>>()));
    }
    if b.is_empty() {
        return Ok(take_rows(a, &(0..a.len()).collect::<Vec<_>>()));
    }
    let mut heads = a.head_oids();
    heads.extend(b.head_oids());
    let tail = match (a.tail(), b.tail()) {
        (Tail::Int(x), Tail::Int(y)) => Tail::Int(Arc::new([&x[..], &y[..]].concat())),
        (Tail::Dbl(x), Tail::Dbl(y)) => Tail::Dbl(Arc::new([&x[..], &y[..]].concat())),
        (Tail::Oid(x), Tail::Oid(y)) => Tail::Oid(Arc::new([&x[..], &y[..]].concat())),
        (Tail::Str(x), Tail::Str(y)) => Tail::Str(Arc::new([&x[..], &y[..]].concat())),
        (Tail::Nil(x), Tail::Nil(y)) => Tail::Nil(x + y),
        (x, y) => {
            return Err(BatError::TypeMismatch {
                expected: x.type_name(),
                got: y.type_name(),
            })
        }
    };
    Bat::new(Head::Oids(heads.into()), tail)
}

mod properties {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::algebra;

    const HEAD_SHAPES: usize = 5;
    const TAIL_TYPES: usize = 5;

    /// A head over oids drawn from `raw`, in one of the shapes the kernels
    /// tell apart; the row count follows from the shape.
    fn head_of(shape: usize, base: Oid, raw: &[Oid]) -> (Head, usize) {
        let explicit = |oids: Vec<Oid>| {
            let n = oids.len();
            (Head::Oids(oids.into()), n)
        };
        match shape {
            0 => (Head::Void { base }, raw.len()),
            // Dense, but spelled out.
            1 => explicit((base..base + raw.len() as u64).collect()),
            // Sorted and sparse.
            2 => {
                let mut oids = raw.to_vec();
                oids.sort_unstable();
                oids.dedup();
                explicit(oids)
            }
            // Distinct, in draw order.
            3 => {
                let mut seen = HashSet::new();
                explicit(raw.iter().copied().filter(|o| seen.insert(*o)).collect())
            }
            // As drawn: duplicates are likely (24 draws from 64 oids).
            _ => explicit(raw.to_vec()),
        }
    }

    /// A tail of `n` values that differ between neighbouring rows and by
    /// `salt`, so a wrong row or the wrong input's value shows, and repeat
    /// every ninth row, so a join's outer oids hold duplicates. Oid tails
    /// point into (and past) the oid space the heads are drawn from.
    fn tail_of(kind: usize, n: usize, salt: u64) -> Tail {
        let at = |i: usize| salt.wrapping_mul(31).wrapping_add((i as u64 % 9) * 7) % 90;
        match kind {
            0 => Tail::Int(Arc::new((0..n).map(|i| at(i) as i64 - 40).collect())),
            1 => Tail::Dbl(Arc::new((0..n).map(|i| at(i) as f64 + 0.25).collect())),
            2 => Tail::Oid(Arc::new((0..n).map(at).collect())),
            3 => Tail::Str(Arc::new((0..n).map(|i| format!("s{}", at(i))).collect())),
            _ => Tail::Nil(n),
        }
    }

    fn bat_of(shape: usize, kind: usize, base: Oid, raw: &[Oid], salt: u64) -> Bat {
        let (head, n) = head_of(shape, base, raw);
        Bat::new(head, tail_of(kind, n, salt)).expect("tail built to the head's length")
    }

    /// Head oids, empty half the time.
    fn arb_raw() -> impl Strategy<Value = Vec<Oid>> {
        prop_oneof![
            Just(Vec::new()),
            vec(0u64..64, 1..24),
            vec(0u64..64, 1..24),
            vec(0u64..64, 1..24)
        ]
    }

    /// Every head shape × tail type × {empty, non-empty}.
    fn arb_bat() -> impl Strategy<Value = Bat> {
        (
            0..HEAD_SHAPES,
            0..TAIL_TYPES,
            0u64..40,
            arb_raw(),
            any::<u64>(),
        )
            .prop_map(|(shape, kind, base, raw, salt)| bat_of(shape, kind, base, &raw, salt))
    }

    /// Two bats, of one tail type four times in five.
    fn arb_pair() -> impl Strategy<Value = (Bat, Bat)> {
        (
            (0..HEAD_SHAPES, 0..TAIL_TYPES, 0u64..40, arb_raw()),
            (0..HEAD_SHAPES, 0..TAIL_TYPES, 0u64..40, arb_raw()),
            0usize..5,
            any::<u64>(),
        )
            .prop_map(|(a, b, mix, salt)| {
                let b_kind = if mix == 0 { b.1 } else { a.1 };
                (
                    bat_of(a.0, a.1, a.2, &a.3, salt),
                    bat_of(b.0, b_kind, b.2, &b.3, salt ^ 0x5bd1),
                )
            })
    }

    /// Same rows in the same order (or the same error); a void head and
    /// the explicit list it stands for are the same head.
    fn same(new: Result<Bat, BatError>, old: Result<Bat, BatError>) -> bool {
        match (new, old) {
            (Ok(n), Ok(o)) => n.head_oids() == o.head_oids() && n.tail() == o.tail(),
            (Err(n), Err(o)) => n == o,
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kunion_matches_reference((a, b) in arb_pair()) {
            prop_assert!(same(algebra::kunion(&a, &b), kunion(&a, &b)), "{:?} ∪ {:?}", a, b);
        }

        #[test]
        fn kdifference_matches_reference((a, b) in arb_pair()) {
            prop_assert!(same(algebra::kdifference(&a, &b), kdifference(&a, &b)), "{:?} \\ {:?}", a, b);
        }

        #[test]
        fn kintersect_matches_reference((a, b) in arb_pair()) {
            prop_assert!(same(algebra::kintersect(&a, &b), kintersect(&a, &b)), "{:?} ∩ {:?}", a, b);
        }

        #[test]
        fn append_matches_reference((a, b) in arb_pair()) {
            prop_assert!(same(algebra::append(&a, &b), append(&a, &b)), "{:?} ++ {:?}", a, b);
        }

        /// The outer tail oids run 0..90 while inner heads stop below 64
        /// (explicit) or `base + 24` (void), so some always dangle; a
        /// non-oid outer tail is the same error on both sides.
        #[test]
        fn join_matches_reference(
            outer in (0..HEAD_SHAPES, 0u64..40, arb_raw(), any::<u64>(), 0usize..8),
            inner in arb_bat(),
        ) {
            let (shape, base, raw, salt, kind) = outer;
            let kind = if kind == 0 { 0 } else { 2 };
            let a = bat_of(shape, kind, base, &raw, salt);
            prop_assert!(same(algebra::join(&a, &inner), join(&a, &inner)), "{:?} ⋈ {:?}", a, inner);
        }

        /// Extra rows that continue a void head's range (`gap == 0`) keep
        /// it void; a gap, or an overlap, makes the head explicit. Either
        /// way the rows are the reference's.
        #[test]
        fn kunion_past_a_void_head_matches_reference(
            base in 0u64..40,
            rows in 1usize..24,
            extra in 1usize..8,
            gap in 0u64..3,
            back in 0u64..3,
            extra_is_void in any::<bool>(),
            kind in 0..TAIL_TYPES,
        ) {
            let a = Bat::new(Head::Void { base }, tail_of(kind, rows, 1)).unwrap();
            let first = (base + rows as u64 + gap).saturating_sub(back);
            let head = if extra_is_void {
                Head::Void { base: first }
            } else {
                Head::Oids(Arc::new((first..first + extra as u64).collect()))
            };
            let b = Bat::new(head, tail_of(kind, extra, 2)).unwrap();
            let u = algebra::kunion(&a, &b);
            if gap == back {
                let u = u.clone().unwrap();
                prop_assert_eq!(u.head(), &Head::Void { base });
                prop_assert_eq!(u.len(), rows + extra);
            }
            prop_assert!(same(u, kunion(&a, &b)), "{:?} ∪ {:?}", a, b);
        }
    }
}
