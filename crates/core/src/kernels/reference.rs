//! The loops the reorganizing kernels replaced, kept as the reference the
//! current kernels are checked against: same values in the same order,
//! whatever the value type, the length relative to [`CHUNK`], or the way
//! the query and the fill ranges relate.

use super::{count_chunk, count_range, halves, BLOCK, CHUNK, PAR_MIN};
use crate::range::ValueRange;
use crate::value::ColumnValue;

/// `collect_range` with its mixed chunks filtered tuple at a time — a
/// data-dependent branch per element.
fn collect_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>, out: &mut Vec<V>) {
    let (lo, hi) = (q.lo(), q.hi());
    for chunk in values.chunks(CHUNK) {
        let n = count_chunk(chunk, lo, hi) as usize;
        if n == chunk.len() {
            out.extend_from_slice(chunk);
        } else if n > 0 {
            out.reserve(n);
            out.extend(chunk.iter().copied().filter(|&v| lo <= v && v <= hi));
        }
    }
}

/// `scanMat` as `scan_cover_member` ran it: one counting pass for the
/// query, then one collecting pass per replica of the materialization
/// list.
fn count_then_collect_per_fill<V: ColumnValue>(
    values: &[V],
    q: &ValueRange<V>,
    fills: &[ValueRange<V>],
) -> (u64, Vec<Vec<V>>) {
    let outs = fills
        .iter()
        .map(|r| {
            let mut vals = Vec::new();
            collect_range(values, r, &mut vals);
            vals
        })
        .collect();
    (count_range(values, q), outs)
}

/// `SegmentData::partition`'s body: every value probes the pieces in turn
/// and is pushed into a bucket sized by guesswork.
fn partition<V: ColumnValue>(values: &[V], pieces: &[ValueRange<V>]) -> Vec<Vec<V>> {
    let est = values.len() / pieces.len() + 1;
    let mut buckets: Vec<Vec<V>> = pieces.iter().map(|_| Vec::with_capacity(est)).collect();
    'outer: for &v in values {
        for (i, p) in pieces.iter().enumerate() {
            if p.contains(v) {
                buckets[i].push(v);
                continue 'outer;
            }
        }
        unreachable!("value {v:?} outside every piece of its own segment");
    }
    buckets
}

/// `min_max_all` with a branch per bound.
fn min_max_all<V: ColumnValue>(values: &[V]) -> Option<(V, V)> {
    let mut iter = values.iter();
    let &first = iter.next()?;
    let (mut mn, mut mx) = (first, first);
    for &v in iter {
        if v < mn {
            mn = v;
        }
        if mx < v {
            mx = v;
        }
    }
    Some((mn, mx))
}

/// `min_max_sum_all` as one pass: one accumulator per chunk, each from
/// `+0.0`, the chunk sums added in order, and a branch per bound.
fn serial_fold<V: ColumnValue>(values: &[V]) -> Option<(V, V, f64)> {
    let &first = values.first()?;
    let (mut mn, mut mx, mut total) = (first, first, 0.0f64);
    for chunk in values.chunks(CHUNK) {
        let mut acc = 0.0f64;
        for &v in chunk {
            acc += v.to_f64();
            if v < mn {
                mn = v;
            }
            if mx < v {
                mx = v;
            }
        }
        total += acc;
    }
    Some((mn, mx, total))
}

mod properties {
    use super::*;
    use crate::kernels;
    use crate::paired::Pair;
    use crate::value::OrdF64;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Lengths straddling every block and chunk boundary case.
    const LENS: [usize; 9] = [
        0,
        1,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        3 * CHUNK + 7,
    ];
    /// Every pool below has at least this many values, ascending.
    const POOL: usize = 40;

    fn u32_pool() -> Vec<u32> {
        let mut p: Vec<u32> = (1..39).map(|i| i * 100_000).collect();
        p.insert(0, 0);
        p.push(u32::MAX);
        p
    }

    fn i64_pool() -> Vec<i64> {
        let mut p: Vec<i64> = (-19..=19).map(|i| i * 1_000_003).collect();
        p.insert(0, i64::MIN);
        p.push(i64::MAX);
        p
    }

    /// Negative values, both zeros, subnormals, both infinities, and
    /// non-dyadic fractions (every `to_f64` sum rounds).
    fn f64_pool() -> Vec<OrdF64> {
        let mut p: Vec<f64> = (1..=14)
            .flat_map(|i| [i as f64 * 0.37, i as f64 * -0.37])
            .collect();
        p.extend([
            f64::NEG_INFINITY,
            -1e300,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ]);
        let mut p: Vec<OrdF64> = p.into_iter().map(OrdF64::from_finite).collect();
        p.sort();
        p
    }

    /// Every float of [`f64_pool`] under two oids, so equal values split
    /// on the oid tiebreak.
    fn pair_pool() -> Vec<Pair<OrdF64>> {
        let mut p: Vec<Pair<OrdF64>> = f64_pool()
            .into_iter()
            .enumerate()
            .flat_map(|(i, v)| [Pair::new(v, i as u64 % 3), Pair::new(v, u64::MAX - 1)])
            .collect();
        p.sort();
        p
    }

    fn range<V: ColumnValue>(pool: &[V], lo: usize, hi: usize) -> ValueRange<V> {
        ValueRange::must(pool[lo], pool[hi])
    }

    /// The range starting right after `prev` and ending at `pool[hi]`.
    fn adjacent_after<V: ColumnValue>(
        prev: &ValueRange<V>,
        pool: &[V],
        hi: usize,
    ) -> ValueRange<V> {
        ValueRange::must(prev.hi().succ().expect("not the domain top"), pool[hi])
    }

    /// The six fill shapes of the issue, as ascending disjoint ranges.
    fn fill_shapes<V: ColumnValue>(pool: &[V]) -> Vec<Vec<ValueRange<V>>> {
        let a = range(pool, 8, 12);
        let b = adjacent_after(&a, pool, 20);
        let c = adjacent_after(&b, pool, 25);
        // Strictly between two neighbouring pool values: matches nothing.
        let hole = pool
            .windows(2)
            .find_map(|w| ValueRange::new(w[0].succ()?, w[1].pred()?))
            .expect("some neighbours leave room between them");
        vec![
            vec![],
            vec![range(pool, 10, 20)],
            vec![a, b, c],
            vec![range(pool, 2, 5), range(pool, 10, 12), range(pool, 20, 30)],
            vec![range(pool, 0, pool.len() - 1)],
            vec![hole],
        ]
    }

    /// Inside, overlapping and (for the bounded shapes) disjoint from the
    /// fills.
    fn queries<V: ColumnValue>(pool: &[V]) -> [ValueRange<V>; 3] {
        [
            range(pool, 11, 12),
            range(pool, 18, 28),
            range(pool, 34, 37),
        ]
    }

    fn naive<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> Vec<V> {
        values.iter().copied().filter(|v| q.contains(*v)).collect()
    }

    /// Bitwise view of the `to_f64` projections: tells `-0.0` from `0.0`,
    /// which `==` on the values does not, so "same order" is checked even
    /// among `Ord`-equal values.
    fn bits<V: ColumnValue>(values: &[V]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    fn assert_same<V: ColumnValue>(got: &[V], want: &[V], what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(bits(got), bits(want), "{what} (bitwise)");
    }

    fn check_scans<V: ColumnValue>(pool: &[V], values: &[V]) {
        for q in queries(pool) {
            // The six shapes, plus the one fill adaptive replication
            // mostly asks for: the query's own range.
            for fills in fill_shapes(pool).into_iter().chain([vec![q]]) {
                let what = format!("len {} fills {fills:?} q {q:?}", values.len());
                let (count, want) = count_then_collect_per_fill(values, &q, &fills);
                assert_eq!(count, naive(values, &q).len() as u64, "{what}");

                let mut outs = vec![Vec::new(); fills.len()];
                let got = kernels::scan_fill(values, &q, &fills, &mut outs);
                assert_eq!(got, count, "{what}");
                for (o, w) in outs.iter().zip(&want) {
                    assert_same(o, w, &what);
                }

                for r in fills.iter().chain([&q]) {
                    let (mut got, mut old) = (Vec::new(), Vec::new());
                    kernels::collect_range(values, r, &mut got);
                    collect_range(values, r, &mut old);
                    assert_same(&got, &naive(values, r), &what);
                    assert_same(&got, &old, &what);
                }
            }
        }
    }

    fn check_partitions<V: ColumnValue>(pool: &[V], values: &[V]) {
        let top = pool.len() - 1;
        for cuts in [
            vec![],
            vec![15],
            vec![10, 25],
            vec![0, top - 1],
            vec![5, 15, 30],
        ] {
            // Tile [pool[0], pool[top]] with one piece per cut, plus the rest.
            let mut pieces: Vec<ValueRange<V>> = Vec::new();
            let mut lo = pool[0];
            for &c in &cuts {
                pieces.push(ValueRange::must(lo, pool[c]));
                lo = pool[c].succ().expect("cuts stay below the domain top");
            }
            pieces.push(ValueRange::must(lo, pool[top]));
            let bounds: Vec<V> = cuts.iter().map(|&c| pool[c]).collect();

            let want = partition(values, &pieces);
            // The pieces' sizes in each half, as a caller that counted
            // them passes them.
            let (lower, upper) = halves(values);
            let lens =
                [lower, upper].map(|half| partition(half, &pieces).iter().map(Vec::len).collect());
            for lens in [None, Some(lens)] {
                let got = kernels::partition_into(values.to_vec(), &bounds, lens);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_same(g, w, &format!("len {} cuts {cuts:?}", values.len()));
                    assert_eq!(g.capacity(), g.len(), "exact-sized bucket, cuts {cuts:?}");
                }
            }
        }
    }

    fn check_folds<V: ColumnValue>(values: &[V]) {
        assert_eq!(kernels::min_max_all(values), min_max_all(values));
        let fused = kernels::min_max_sum_all(values);
        assert_eq!(fused.map(|(mn, mx, _)| (mn, mx)), min_max_all(values));
        if let Some((_, _, sum)) = fused {
            assert_eq!(sum.to_bits(), kernels::sum_all(values).to_bits());
        }
    }

    /// Any pool value at every position: almost no block of 64 is without
    /// a hit of any range.
    fn uniform<V: ColumnValue>(pool: &[V], len: usize, rng: &mut SmallRng) -> Vec<V> {
        (0..len)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect()
    }

    /// The pool's top value — inside no query and no bounded fill — with
    /// about one value in 1 024 drawn from the pool, so most blocks hold no
    /// hit and the skip path runs. Forced hits sit at offsets 0,
    /// `BLOCK - 1`, `BLOCK` and `len - 1`; the one at `BLOCK - 1` lies in
    /// ranges the one at 0 misses, so for those ranges the first block's
    /// only hit is its last value.
    fn sparse<V: ColumnValue>(pool: &[V], len: usize, rng: &mut SmallRng) -> Vec<V> {
        let top = pool[pool.len() - 1];
        let mut values: Vec<V> = (0..len)
            .map(|_| match rng.gen_range(0..1024) {
                0 => pool[rng.gen_range(0..pool.len())],
                _ => top,
            })
            .collect();
        for (at, i) in [
            (0, 11),
            (BLOCK - 1, 20),
            (BLOCK, 12),
            (len.wrapping_sub(1), 36),
        ] {
            if let Some(v) = values.get_mut(at) {
                *v = pool[i];
            }
        }
        values
    }

    fn check<V: ColumnValue>(pool: Vec<V>, seed: u64) {
        assert!(pool.len() >= POOL && pool.windows(2).all(|w| w[0] <= w[1]));
        let mut rng = SmallRng::seed_from_u64(seed);
        for len in LENS {
            for generate in [uniform, sparse] {
                let values: Vec<V> = generate(&pool, len, &mut rng);
                check_scans(&pool, &values);
                check_partitions(&pool, &values);
                check_folds(&values);
            }
        }
    }

    /// The two-thread path: a slice past [`PAR_MIN`] whose upper half ends
    /// in a partial chunk. Counts, fills of the query, of one other range
    /// and of three ranges — into empty outputs and into outputs sized at
    /// their exact length — and partitions at 0–3 bounds all equal the
    /// loops they replaced.
    fn check_halves<V: ColumnValue>(pool: Vec<V>, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
        for generate in [uniform, sparse] {
            let values: Vec<V> = generate(&pool, PAR_MIN + 4099, &mut rng);
            assert_eq!(halves(&values).1.is_empty(), !two_cores);
            let shapes = fill_shapes(&pool);
            for q in queries(&pool) {
                let inside = naive(&values, &q).len() as u64;
                assert_eq!(kernels::count_range(&values, &q), inside, "{q:?}");
                let below = values.iter().filter(|v| **v < q.lo()).count() as u64;
                let above = values.iter().filter(|v| q.hi() < **v).count() as u64;
                let [lo, up] = kernels::count_partition(&values, &q);
                assert_eq!(up == [0; 3], !two_cores, "{q:?}");
                let parts = [0, 1, 2].map(|i| lo[i] + up[i]);
                assert_eq!(parts, [below, inside, above], "{q:?}");
                for fills in [vec![q], shapes[1].clone(), shapes[2].clone()] {
                    let what = format!("fills {fills:?} q {q:?}");
                    let (count, want) = count_then_collect_per_fill(&values, &q, &fills);
                    let sized = want.iter().map(|w| Vec::with_capacity(w.len()));
                    for mut outs in [vec![Vec::new(); fills.len()], sized.collect()] {
                        assert_eq!(kernels::scan_fill(&values, &q, &fills, &mut outs), count);
                        for (o, w) in outs.iter().zip(&want) {
                            assert_same(o, w, &what);
                        }
                    }
                }
            }
            check_partitions(&pool, &values);
        }
    }

    /// Lengths around one chunk, around the four chunks folded side by
    /// side, and past [`PAR_MIN`], where the fold runs in two halves.
    const FOLD_LENS: [usize; 7] = [
        0,
        1,
        CHUNK - 1,
        CHUNK + 1,
        4 * CHUNK - 1,
        4 * CHUNK + 1,
        PAR_MIN + 4099,
    ];

    /// The synopsis folds against [`serial_fold`]: sums by their bits,
    /// bounds by value and by the bits of their `to_f64`, which tell
    /// `-0.0` from `+0.0`.
    fn check_fold<V: ColumnValue>(values: &[V]) {
        let what = format!("len {}", values.len());
        let want = serial_fold(values);
        let got = kernels::min_max_sum_all(values);
        let bits = |f: Option<(V, V, f64)>| {
            f.map(|(mn, mx, sum)| [mn.to_f64(), mx.to_f64(), sum].map(f64::to_bits))
        };
        assert_eq!(bits(got), bits(want), "{what}");
        let bounds = want.map(|(mn, mx, _)| (mn, mx));
        assert_eq!(got.map(|(mn, mx, _)| (mn, mx)), bounds, "{what}");
        let sum = want.map_or(0.0, |(_, _, sum)| sum);
        assert_eq!(kernels::sum_all(values).to_bits(), sum.to_bits(), "{what}");
        let min_max = kernels::min_max_all(values);
        assert_eq!(min_max, bounds, "{what}");
        let bits = |b: Option<(V, V)>| b.map(|(mn, mx)| [mn, mx].map(|v| v.to_f64().to_bits()));
        assert_eq!(bits(min_max), bits(bounds), "{what}");
    }

    /// `len` copies of `fill` with about one value in 512 a zero of random
    /// sign (`zeros` is `[-0.0, +0.0]`, equal under `Ord`): with `fill`
    /// above zero the minimum is a zero, below zero the maximum, and its
    /// sign shows whether the fold kept the earliest of the equal zeros.
    fn signed_zeros<V: ColumnValue>(
        zeros: [V; 2],
        fill: V,
        len: usize,
        rng: &mut SmallRng,
    ) -> Vec<V> {
        (0..len)
            .map(|_| match rng.gen_range(0..1024) {
                0 | 1 => zeros[rng.gen_range(0..2usize)],
                _ => fill,
            })
            .collect()
    }

    /// `len` copies of `fill` with `zeros[0]` at `first` and `zeros[1]`
    /// at `second`: the one at `first` is the earliest.
    fn two_zeros<V: ColumnValue>(zeros: [V; 2], fill: V, len: usize, at: [usize; 2]) -> Vec<V> {
        let mut values = vec![fill; len];
        values[at[0]] = zeros[0];
        values[at[1]] = zeros[1];
        values
    }

    /// Every [`FOLD_LENS`] length drawn uniformly from `pool`, then, where
    /// the type has signed zeros (`zeros` with fillers `[below, above]`),
    /// zeros scattered among positive and among negative values, and two
    /// zeros placed where a fold that does not combine in storage order
    /// would pick the later one: the second chunk's sixth value before
    /// the third chunk's first (which four chains side by side reach
    /// first), and the lower half's last value before the upper half's
    /// first.
    fn check_folds_against_one_pass<V: ColumnValue>(
        pool: Vec<V>,
        zeros: Option<([V; 2], [V; 2])>,
        seed: u64,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let two_cores = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
        for len in FOLD_LENS {
            let values = uniform(&pool, len, &mut rng);
            assert_eq!(halves(&values).1.is_empty(), !two_cores || len < PAR_MIN);
            check_fold(&values);
            let Some((signed, fills)) = zeros else {
                continue;
            };
            for fill in fills {
                check_fold(&signed_zeros(signed, fill, len, &mut rng));
                let mid = halves(&vec![fill; len]).0.len();
                for at in [[CHUNK + 5, 2 * CHUNK], [mid.wrapping_sub(1), mid]] {
                    if at[0] < at[1] && at[1] < len {
                        for order in [signed, [signed[1], signed[0]]] {
                            check_fold(&two_zeros(order, fill, len, at));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn folds_match_one_pass_f64() {
        let f = OrdF64::from_finite;
        let fills = [f(-0.37), f(0.37)];
        check_folds_against_one_pass(f64_pool(), Some(([f(-0.0), f(0.0)], fills)), 3);
    }

    #[test]
    fn folds_match_one_pass_u64() {
        let pool = i64_pool().into_iter().map(|v| v as u64).collect();
        check_folds_against_one_pass::<u64>(pool, None, 4);
    }

    #[test]
    fn folds_match_one_pass_paired_f64() {
        let p = |v: f64| Pair::new(OrdF64::from_finite(v), 7);
        let fills = [p(-0.37), p(0.37)];
        check_folds_against_one_pass(pair_pool(), Some(([p(-0.0), p(0.0)], fills)), 5);
    }

    #[test]
    fn two_halves_match_the_loops_they_replaced_u32() {
        check_halves(u32_pool(), 1);
    }

    #[test]
    fn two_halves_match_the_loops_they_replaced_f64() {
        check_halves(f64_pool(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn kernels_match_the_loops_they_replaced_u32(seed in any::<u64>()) {
            check(u32_pool(), seed);
        }

        #[test]
        fn kernels_match_the_loops_they_replaced_i64(seed in any::<u64>()) {
            check(i64_pool(), seed);
        }

        #[test]
        fn kernels_match_the_loops_they_replaced_f64(seed in any::<u64>()) {
            check(f64_pool(), seed);
        }

        #[test]
        fn kernels_match_the_loops_they_replaced_paired_f64(seed in any::<u64>()) {
            check(pair_pool(), seed);
        }
    }
}
