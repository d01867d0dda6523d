//! The hash-everything kernels this crate shipped before density drove the
//! operators, kept as the reference the current kernels are checked
//! against: same rows in the same order, whatever the head representation.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::algebra::{Atom, Selectable};
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

/// The rows of `v` inside `[lo, hi]` as `selected_indices` kept them
/// before the branch-free keep loop: a short-circuit range test per row.
fn filtered<T: Selectable>(v: &[T], lo: &Atom, hi: &Atom) -> Result<Vec<usize>, BatError> {
    let keep = T::bounds(lo, hi)?;
    Ok((0..v.len())
        .filter(|&i| keep.contains(&v[i].key()))
        .collect())
}

mod properties {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::algebra::{self, Atom};

    const HEAD_SHAPES: usize = 6;
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
            4 => explicit(raw.to_vec()),
            // Ascending with the duplicates kept.
            _ => {
                let mut oids = raw.to_vec();
                oids.sort_unstable();
                explicit(oids)
            }
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

    /// `op` with every pair of explicit heads hashed, as the operators
    /// matched oids before binary search.
    fn hashed<T>(op: impl FnOnce() -> T) -> T {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                algebra::BINARY_SEARCH.set(true);
            }
        }
        let _restore = Restore;
        algebra::BINARY_SEARCH.set(false);
        op()
    }

    /// An outer side for a join whose tail oids are drawn from (and past)
    /// the inner heads' oid space: as drawn, or ascending with repeats
    /// kept, so both sides of the join can be the one that ascends.
    fn arb_outer() -> impl Strategy<Value = Bat> {
        (
            0..HEAD_SHAPES,
            0u64..40,
            vec(0u64..90, 0..24),
            any::<bool>(),
            0usize..8,
        )
            .prop_map(|(shape, base, mut oids, sorted, kind)| {
                let (head, n) = head_of(shape, base, &oids);
                oids.truncate(n);
                if sorted {
                    oids.sort_unstable();
                }
                let tail = if kind == 0 {
                    tail_of(0, n, base)
                } else {
                    Tail::Oid(Arc::new(oids))
                };
                Bat::new(head, tail).expect("one tail value per head oid")
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

    /// Figure 1's predicate-side delta merge, `X14`/`X16`/`X19`/`X23` in,
    /// `X25` out, one public operator per instruction.
    fn sub_delta_chain(
        x14: &Bat,
        x16: &Bat,
        x19: &Bat,
        x23: &Bat,
        lo: &Atom,
        hi: &Atom,
    ) -> Result<Bat, BatError> {
        let x17 = algebra::uselect(x16, lo, hi)?;
        let x18 = algebra::kunion(x14, &x17)?;
        let x20 = algebra::kdifference(&x18, x19)?;
        let x21 = algebra::uselect(x19, lo, hi)?;
        let x22 = algebra::kunion(&x20, &x21)?;
        let x24 = algebra::reverse(x23)?;
        algebra::kdifference(&x22, &x24)
    }

    /// Figure 1's projection-side delta merge and reconstruction join,
    /// `X29`/`X30`/`X32`/`X34` in, `X37` out.
    fn project_delta_chain(x29: &Bat, x30: &Bat, x32: &Bat, x34: &Bat) -> Result<Bat, BatError> {
        let x33 = algebra::kunion(x30, x32)?;
        let x35 = algebra::kdifference(&x33, x34)?;
        let x36 = algebra::kunion(&x35, x34)?;
        algebra::join(x29, &x36)
    }

    /// A projection kernel that consults the base before the updates: an
    /// update of a base row loses to the stale base value.
    fn base_first(probe: &Bat, base: &Bat, inserts: &Bat, updates: &Bat) -> Result<Bat, BatError> {
        algebra::join(
            probe,
            &algebra::kunion(&algebra::kunion(base, inserts)?, updates)?,
        )
    }

    /// `(probe, base, inserts, updates)`.
    type Projection = (Bat, Bat, Bat, Bat);
    type ProjectDelta = fn(&Bat, &Bat, &Bat, &Bat) -> Result<Bat, BatError>;

    /// Whether `kernel` answers `case` as the chain does: an equal bat —
    /// `==`, so the same head variant, rows and row order — or the same
    /// error.
    fn equals_chain(kernel: ProjectDelta, (probe, base, inserts, updates): &Projection) -> bool {
        kernel(probe, base, inserts, updates) == project_delta_chain(probe, base, inserts, updates)
    }

    /// A head shape, a tail type, a void base and raw oids.
    fn arb_side() -> impl Strategy<Value = (usize, usize, Oid, Vec<Oid>)> {
        (0..HEAD_SHAPES, 0..TAIL_TYPES, 0u64..40, arb_raw())
    }

    /// Every head shape × tail type × {empty, non-empty} on each of the
    /// four sides. The three column sides share one tail type four times
    /// in five (otherwise each keeps its own, so the unions' type checks
    /// fire, or do not because a side is empty or fully shadowed); the
    /// probe's tail is `oid` seven times in eight (otherwise `int`, which
    /// the join refuses).
    fn arb_projection() -> impl Strategy<Value = Projection> {
        (
            (arb_side(), 0usize..8),
            arb_side(),
            arb_side(),
            arb_side(),
            0usize..5,
            any::<u64>(),
        )
            .prop_map(|((probe, oid_tail), base, ins, upd, mix, salt)| {
                let kind = |k: usize| if mix == 0 { k } else { base.1 };
                (
                    bat_of(
                        probe.0,
                        if oid_tail == 0 { 0 } else { 2 },
                        probe.2,
                        &probe.3,
                        salt,
                    ),
                    bat_of(base.0, base.1, base.2, &base.3, salt ^ 1),
                    bat_of(ins.0, kind(ins.1), ins.2, &ins.3, salt ^ 2),
                    bat_of(upd.0, kind(upd.1), upd.2, &upd.3, salt ^ 3),
                )
            })
    }

    /// The shape a SQL statement sees: a void base of `rows` rows, inserts
    /// whose oids continue its range (`gap == back`) or leave a gap or
    /// overlap it, updates that punch holes into it (and may hit an insert
    /// or no row at all), and a dense probe whose oids fall on the base and
    /// the inserts' oid range, or half the time also a few oids past both.
    fn arb_void_base_projection() -> impl Strategy<Value = Projection> {
        (
            (0u64..40, 1usize..40, 0..TAIL_TYPES),
            (0usize..8, 0u64..3, 0u64..3, any::<bool>()),
            vec(0u64..48, 0..6),
            (vec(0u64..52, 0..30), any::<bool>()),
            any::<u64>(),
        )
            .prop_map(
                |(
                    (first, rows, kind),
                    (extra, gap, back, void_inserts),
                    upd,
                    (probe, past),
                    salt,
                )| {
                    let base =
                        Bat::new(Head::Void { base: first }, tail_of(kind, rows, salt)).unwrap();
                    let next = (first + rows as u64 + gap).saturating_sub(back);
                    let head = if void_inserts {
                        Head::Void { base: next }
                    } else {
                        Head::Oids(Arc::new((next..next + extra as u64).collect()))
                    };
                    let inserts = Bat::new(head, tail_of(kind, extra, salt ^ 1)).unwrap();
                    let updated = upd.len();
                    let upd = Head::from_oids(upd.iter().map(|o| first + o).collect());
                    let updates = Bat::new(upd, tail_of(kind, updated, salt ^ 2)).unwrap();
                    let span = if past {
                        u64::MAX
                    } else {
                        (rows + extra) as u64
                    };
                    let probe = probe.iter().map(|o| first + o % span).collect();
                    (Bat::dense_oid(probe), base, inserts, updates)
                },
            )
    }

    /// `(selected, inserts, updates, deletes, lo, hi)`.
    type Selection = (Bat, Bat, Bat, Bat, Atom, Atom);

    /// What `sql.subdelta` is handed, over every head shape × {empty,
    /// non-empty} on each side: a selection, nil-tailed (a `uselect`
    /// result) four times in five; inserts and updates of one valued tail
    /// type four times in five, otherwise of any type (`nil` included,
    /// which `uselect` refuses); a deletion bat whose tail is `oid` seven
    /// times in eight (otherwise `int`, which `reverse` refuses); and
    /// bounds of every kind `uselect` accepts for the inserts' type seven
    /// times in eight, otherwise a pair it refuses.
    fn arb_selection() -> impl Strategy<Value = Selection> {
        (
            (arb_side(), 0usize..5),
            (arb_side(), arb_side(), 0usize..4, 0usize..5),
            (arb_side(), 0usize..8),
            (0usize..8, -45i64..90, 0i64..40),
            any::<u64>(),
        )
            .prop_map(
                |((sel, nil), (ins, upd, kind, mix), (del, oid_tail), (bounds, lo, span), salt)| {
                    let kinds = if mix == 0 {
                        (ins.1, upd.1)
                    } else {
                        (kind, kind)
                    };
                    let (lo, hi) = match (bounds, kinds.0) {
                        (0, _) => (Atom::Int(lo), Atom::Str(format!("s{span}").into())),
                        (_, 3) => (
                            Atom::Str(format!("s{}", lo.abs()).into()),
                            Atom::Str(format!("s{}", lo.abs() + span).into()),
                        ),
                        (1 | 2, _) => (Atom::Int(lo), Atom::Int(lo + span)),
                        (3 | 4, _) => (Atom::Dbl(lo as f64 + 0.5), Atom::Dbl((lo + span) as f64)),
                        _ => (
                            Atom::Oid(lo.unsigned_abs()),
                            Atom::Oid((lo + span).unsigned_abs()),
                        ),
                    };
                    (
                        bat_of(sel.0, if nil == 0 { sel.1 } else { 4 }, sel.2, &sel.3, salt),
                        bat_of(ins.0, kinds.0, ins.2, &ins.3, salt ^ 1),
                        bat_of(upd.0, kinds.1, upd.2, &upd.3, salt ^ 2),
                        bat_of(
                            del.0,
                            if oid_tail == 0 { 0 } else { 2 },
                            del.2,
                            &del.3,
                            salt ^ 3,
                        ),
                        lo,
                        hi,
                    )
                },
            )
    }

    /// `Selectable::keep_into` after a prefix it must leave alone, as
    /// indices.
    fn kept<T: Selectable>(v: &[T], lo: &Atom, hi: &Atom) -> Result<Vec<usize>, BatError> {
        let mut out = vec![usize::MAX];
        T::keep_into(v, &T::bounds(lo, hi)?, |x| x, |i, _| i, &mut out);
        assert_eq!(
            out[0],
            usize::MAX,
            "the keep loop overwrote what `out` held"
        );
        Ok(out.split_off(1))
    }

    const TWO_53: i64 = 1 << 53;

    /// Bounds of every kind a selection meets: the edge values below, a
    /// fractional and a NaN `dbl`, and a string (refused by every
    /// numeric tail); `lo > hi` makes the range empty.
    fn arb_bound() -> impl Strategy<Value = Atom> {
        prop_oneof![
            (-3i64..4).prop_map(Atom::Int),
            Just(Atom::Int(TWO_53 + 1)),
            Just(Atom::Int(i64::MIN)),
            (0u64..4).prop_map(Atom::Oid),
            Just(Atom::Oid(TWO_53 as u64 + 1)),
            Just(Atom::Oid(u64::MAX)),
            (-6i32..6).prop_map(|x| Atom::Dbl(f64::from(x) / 2.0)),
            Just(Atom::Dbl(-0.0)),
            Just(Atom::Dbl(0.0)),
            Just(Atom::Dbl(TWO_53 as f64)),
            Just(Atom::Dbl(f64::NAN)),
            Just(Atom::Dbl(f64::INFINITY)),
            Just(Atom::Dbl(f64::NEG_INFINITY)),
            Just(Atom::Str("s".into())),
        ]
    }

    fn arb_dbls() -> impl Strategy<Value = Vec<f64>> {
        vec(
            prop_oneof![
                (-6i32..6).prop_map(|x| f64::from(x) / 2.0),
                Just(-0.0),
                Just(0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(TWO_53 as f64),
            ],
            0..40,
        )
    }

    fn arb_ints() -> impl Strategy<Value = Vec<i64>> {
        vec(
            prop_oneof![
                -3i64..4,
                TWO_53 - 1..TWO_53 + 3,
                Just(i64::MIN),
                Just(i64::MAX),
            ],
            0..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_keep_loop_keeps_what_the_range_filter_kept(
            dbls in arb_dbls(),
            ints in arb_ints(),
            lo in arb_bound(),
            hi in arb_bound(),
        ) {
            let oids: Vec<Oid> = ints.iter().map(|x| x.unsigned_abs()).collect();
            prop_assert_eq!(kept(&dbls, &lo, &hi), filtered(&dbls, &lo, &hi));
            prop_assert_eq!(kept(&ints, &lo, &hi), filtered(&ints, &lo, &hi));
            prop_assert_eq!(kept(&oids, &lo, &hi), filtered(&oids, &lo, &hi));
        }

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

        /// `sql.subdelta` is its chain: the same bat (`==`) or the same
        /// error.
        #[test]
        fn sub_delta_equals_its_chain(
            (selected, inserts, updates, deletes, lo, hi) in arb_selection(),
        ) {
            prop_assert_eq!(
                algebra::sub_delta(&selected, &inserts, &updates, &deletes, &lo, &hi),
                sub_delta_chain(&selected, &inserts, &updates, &deletes, &lo, &hi),
                "{:?} {:?} {:?} {:?} [{}, {}]", selected, inserts, updates, deletes, lo, hi
            );
        }

        #[test]
        fn project_delta_equals_its_chain(case in arb_projection()) {
            prop_assert!(equals_chain(algebra::project_delta, &case), "{:?}", case);
        }

        #[test]
        fn project_delta_over_a_void_base_equals_its_chain(case in arb_void_base_projection()) {
            prop_assert!(equals_chain(algebra::project_delta, &case), "{:?}", case);
        }

        /// Where a side ascends, the key operators match by binary search;
        /// the bat (`==`: head variant, rows, order) or error is the one
        /// hashing both sides gives.
        #[test]
        fn key_operators_match_by_binary_search_as_by_hashing((a, b) in arb_pair()) {
            for op in [algebra::kunion, algebra::kdifference, algebra::kintersect] {
                prop_assert_eq!(op(&a, &b), hashed(|| op(&a, &b)), "{:?} {:?}", a, b);
            }
        }

        #[test]
        fn join_matches_by_binary_search_as_by_hashing(outer in arb_outer(), inner in arb_bat()) {
            let join = || algebra::join(&outer, &inner);
            prop_assert_eq!(join(), hashed(join), "{:?} ⋈ {:?}", outer, inner);
            prop_assert!(same(join(), self::join(&outer, &inner)), "{:?} ⋈ {:?}", outer, inner);
        }

        #[test]
        fn sub_delta_matches_by_binary_search_as_by_hashing(
            (selected, inserts, updates, deletes, lo, hi) in arb_selection(),
        ) {
            let sub = || algebra::sub_delta(&selected, &inserts, &updates, &deletes, &lo, &hi);
            prop_assert_eq!(sub(), hashed(sub));
        }

        #[test]
        fn project_delta_matches_by_binary_search_as_by_hashing(
            (probe, base, inserts, updates) in prop_oneof![arb_projection(), arb_void_base_projection()],
        ) {
            let project = || algebra::project_delta(&probe, &base, &inserts, &updates);
            prop_assert_eq!(project(), hashed(project));
        }
    }

    /// The edges the keep loop must treat as the range filter did: a NaN
    /// bound keeps nothing, `-0.0` and `+0.0` are one value, `int` rows
    /// either side of 2⁵³ stay apart, and `lo > hi` keeps nothing.
    #[test]
    fn the_keep_loop_keeps_the_edges_the_range_filter_kept() {
        let dbls = [-0.0, 0.0, 1.0, f64::INFINITY];
        let ints = [TWO_53, TWO_53 + 1, TWO_53 + 2];
        let dbl_cases: [(Atom, Atom, Vec<usize>); 5] = [
            (Atom::Dbl(f64::NAN), Atom::Dbl(1.0), vec![]),
            (Atom::Dbl(-1.0), Atom::Dbl(f64::NAN), vec![]),
            (Atom::Dbl(0.0), Atom::Dbl(-0.0), vec![0, 1]),
            (Atom::Dbl(-0.0), Atom::Dbl(f64::INFINITY), vec![0, 1, 2, 3]),
            (Atom::Dbl(1.0), Atom::Dbl(0.5), vec![]),
        ];
        for (lo, hi, want) in dbl_cases {
            assert_eq!(kept(&dbls, &lo, &hi), Ok(want.clone()), "[{lo}, {hi}]");
            assert_eq!(filtered(&dbls, &lo, &hi), Ok(want), "[{lo}, {hi}]");
        }
        let int_cases: [(Atom, Atom, Vec<usize>); 4] = [
            (Atom::Int(TWO_53 + 1), Atom::Int(TWO_53 + 1), vec![1]),
            (Atom::Dbl(TWO_53 as f64), Atom::Dbl(TWO_53 as f64), vec![0]),
            (Atom::Dbl(f64::NAN), Atom::Int(TWO_53 + 2), vec![]),
            (Atom::Int(TWO_53 + 2), Atom::Int(TWO_53), vec![]),
        ];
        for (lo, hi, want) in int_cases {
            assert_eq!(kept(&ints, &lo, &hi), Ok(want.clone()), "[{lo}, {hi}]");
            assert_eq!(filtered(&ints, &lo, &hi), Ok(want), "[{lo}, {hi}]");
        }
        assert_eq!(
            kept::<f64>(&[], &Atom::Dbl(0.0), &Atom::Dbl(1.0)),
            Ok(vec![])
        );
    }

    /// The keep loop tests 64 rows per mask word and 512 per block: rows
    /// past the first word and the first block keep their positions, at
    /// every selectivity.
    #[test]
    fn the_keep_loop_keeps_across_mask_words_and_blocks() {
        let dbls: Vec<f64> = (0..1300u32)
            .map(|i| f64::from((i * 7919) % 1000) / 10.0)
            .collect();
        let ints: Vec<i64> = dbls.iter().map(|&v| v as i64).collect();
        for (lo, hi) in [
            (0.0, 100.0),
            (20.0, 25.0),
            (49.9, 50.0),
            (-1.0, -0.5),
            (99.9, 99.9),
        ] {
            let (lo, hi) = (Atom::Dbl(lo), Atom::Dbl(hi));
            assert_eq!(
                kept(&dbls, &lo, &hi),
                filtered(&dbls, &lo, &hi),
                "[{lo}, {hi}]"
            );
            assert_eq!(
                kept(&ints, &lo, &hi),
                filtered(&ints, &lo, &hi),
                "[{lo}, {hi}]"
            );
        }
        assert_eq!(
            kept(&dbls, &Atom::Dbl(0.0), &Atom::Dbl(100.0)).map(|k| k.len()),
            Ok(1300)
        );
    }

    /// A join emits every match: in probe order, and for one probe oid in
    /// the inner side's order — whichever side ascends, repeats on it
    /// included — and nothing against an empty side.
    #[test]
    fn joins_emit_every_repeated_match_in_probe_then_inner_order() {
        let outer = |oids: Vec<Oid>| Bat::dense_oid(oids);
        let inner = |heads: Vec<Oid>, vals: Vec<i64>| {
            Bat::new(Head::Oids(heads.into()), Tail::Int(vals.into())).unwrap()
        };
        let cases = [
            // The inner heads ascend, with a repeat.
            (
                outer(vec![5, 3, 5, 9]),
                inner(vec![3, 5, 5], vec![30, 50, 51]),
                (vec![0, 0, 1, 2, 2], vec![50, 51, 30, 50, 51]),
            ),
            // The probe ascends, with a repeat; the inner heads do not.
            (
                outer(vec![3, 5, 5]),
                inner(vec![5, 3, 5], vec![50, 30, 51]),
                (vec![0, 1, 1, 2, 2], vec![30, 50, 51, 50, 51]),
            ),
            // Both ascend.
            (
                outer(vec![3, 3, 5]),
                inner(vec![3, 3, 4], vec![30, 31, 40]),
                (vec![0, 0, 1, 1], vec![30, 31, 30, 31]),
            ),
            (
                outer(vec![]),
                inner(vec![1, 2], vec![10, 20]),
                (vec![], vec![]),
            ),
            (outer(vec![1, 2]), inner(vec![], vec![]), (vec![], vec![])),
        ];
        for (a, b, (heads, vals)) in cases {
            for j in [algebra::join(&a, &b), hashed(|| algebra::join(&a, &b))] {
                let j = j.unwrap();
                assert_eq!(j.head_oids(), heads, "{a:?} ⋈ {b:?}");
                assert_eq!(j.tail(), &Tail::Int(vals.clone().into()), "{a:?} ⋈ {b:?}");
            }
        }
        // Membership against an ascending side with repeats, both ways.
        let sorted = inner(vec![2, 4, 4, 7], vec![0; 4]);
        let unsorted = inner(vec![4, 9, 2, 4, 1], vec![0; 5]);
        for (a, b) in [(&sorted, &unsorted), (&unsorted, &sorted)] {
            for keep in [
                algebra::kintersect(a, b),
                hashed(|| algebra::kintersect(a, b)),
            ] {
                assert_eq!(keep.unwrap(), kintersect(a, b).unwrap());
            }
        }
    }

    /// The two projection properties, replayed case for case (the runner
    /// seeds each property from its name), both catch a kernel that reads
    /// the base before the updates.
    #[test]
    fn the_projection_properties_catch_a_kernel_that_reads_the_base_first() {
        let properties = [
            ("project_delta_equals_its_chain", arb_projection().boxed()),
            (
                "project_delta_over_a_void_base_equals_its_chain",
                arb_void_base_projection().boxed(),
            ),
        ];
        for (name, cases) in properties {
            let mut rng = proptest::test_runner::rng_for(&format!("{}::{name}", module_path!()));
            let caught = (0..512).any(|_| !equals_chain(base_first, &cases.new_value(&mut rng)));
            assert!(caught, "{name} passes a base-first kernel");
        }
    }

    /// The errors the chains raise, case by case: a non-oid probe, a base
    /// and inserts of different types, a merged column and updates of
    /// different types — unless every merged row is updated, when the
    /// chain's last union hands the updates back and no error is raised.
    #[test]
    fn fused_operators_fail_where_their_chains_fail() {
        let ints = |heads: Vec<Oid>, vals: Vec<i64>| {
            Bat::new(Head::Oids(heads.into()), Tail::Int(vals.into())).unwrap()
        };
        let dbls = |heads: Vec<Oid>, vals: Vec<f64>| {
            Bat::new(Head::Oids(heads.into()), Tail::Dbl(vals.into())).unwrap()
        };
        let probe = Bat::dense_oid(vec![0, 1, 2]);
        let base = Bat::dense_int(vec![10, 11, 12]);
        let none = base.empty_like();
        let cases: [(Projection, Result<Bat, BatError>); 5] = [
            (
                (
                    Bat::dense_int(vec![0]),
                    base.clone(),
                    none.clone(),
                    none.clone(),
                ),
                Err(BatError::OidTailRequired),
            ),
            (
                (
                    probe.clone(),
                    base.clone(),
                    dbls(vec![3], vec![1.5]),
                    none.clone(),
                ),
                Err(BatError::TypeMismatch {
                    expected: "int",
                    got: "dbl",
                }),
            ),
            (
                (
                    probe.clone(),
                    base.clone(),
                    none.clone(),
                    dbls(vec![1], vec![1.5]),
                ),
                Err(BatError::TypeMismatch {
                    expected: "int",
                    got: "dbl",
                }),
            ),
            (
                (
                    probe.clone(),
                    ints(vec![1], vec![11]),
                    none.clone(),
                    dbls(vec![1], vec![1.5]),
                ),
                Ok(Bat::new(Head::Oids(vec![1].into()), Tail::Dbl(vec![1.5].into())).unwrap()),
            ),
            (
                (
                    probe.clone(),
                    base.clone(),
                    ints(vec![3], vec![13]),
                    ints(vec![1], vec![99]),
                ),
                Ok(Bat::new(Head::Void { base: 0 }, Tail::Int(vec![10, 99, 12].into())).unwrap()),
            ),
        ];
        for (case, want) in &cases {
            assert_eq!(
                &project_delta_chain(&case.0, &case.1, &case.2, &case.3),
                want
            );
            assert!(equals_chain(algebra::project_delta, case), "{case:?}");
        }
        let (lo, hi) = (Atom::Int(0), Atom::Int(20));
        let deletes = Bat::new(Head::Void { base: 0 }, Tail::Oid(vec![2].into())).unwrap();
        let picked = algebra::uselect(&base, &lo, &hi).unwrap();
        let strs = Bat::new(
            Head::Oids(vec![3].into()),
            Tail::Str(vec!["s".into()].into()),
        )
        .unwrap();
        for (inserts, deletes, bounds, want) in [
            (&none, &base, (&lo, &hi), Err(BatError::OidTailRequired)),
            (
                &strs,
                &deletes,
                (&lo, &hi),
                Err(BatError::TypeMismatch {
                    expected: "str bounds",
                    got: "non-str",
                }),
            ),
            (
                &none,
                &deletes,
                (&lo, &Atom::Str("x".into())),
                Err(BatError::TypeMismatch {
                    expected: "int",
                    got: "non-numeric bound",
                }),
            ),
        ] {
            let chain = sub_delta_chain(&picked, inserts, &none, deletes, bounds.0, bounds.1);
            assert_eq!(chain, want);
            assert_eq!(
                algebra::sub_delta(&picked, inserts, &none, deletes, bounds.0, bounds.1),
                chain
            );
        }
    }
}
