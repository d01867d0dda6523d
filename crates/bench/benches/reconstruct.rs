//! Tuple reconstruction cost — the paper's named pitfall (Section 1):
//! "Since the positional correspondence of values in multiple columns is
//! not kept, operators that rely on it, e.g., tuple reconstruction, may
//! become somewhat slower."
//!
//! `tuple_reconstruction` measures the `markT`/`reverse`/`join` pipeline of
//! Figure 1 against a projected column when the qualifying oids come (a)
//! positionally ordered (non-segmented select) vs (b) value-ordered /
//! scattered (as a select over value-ranged pieces returns them).
//!
//! `delta_projection` measures the same reconstruction with deltas pending
//! on the projected column: Figure 1's
//! `join(X29, kunion(kdifference(kunion(X30, X32), X34), X34))` chain
//! against `algebra::project_delta`, which probes updates, base and inserts
//! per oid. A 25-oid probe (a SQL statement's result) meets a 200 000-row
//! void base in two shapes:
//!
//! - `inserts`: 30 pending inserts continuing the base's oid range. The
//!   chain keeps the merged column void, but its first `kunion` copies the
//!   whole base tail (1.6 MB) to append them; the kernel touches the 25
//!   probed rows and the 30 insert heads.
//! - `inserts_and_update`: the same plus one update of a base row. The
//!   update punches a hole into the merged column, so the chain's
//!   `kdifference` copies it again with an explicit head and its join
//!   streams all 200 000 heads; the kernel's cost does not change.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use soc_bat::{algebra, Atom, Bat, Head, Tail};

const N: usize = 200_000;

/// ra values scattered over [0, 360); objid = oid.
fn ra_bat() -> Bat {
    Bat::dense_dbl(
        (0..N)
            .map(|i| 360.0 * ((i as f64 * 0.618_033_988_749).fract()))
            .collect(),
    )
}

fn objid_bat() -> Bat {
    Bat::dense_int((0..N as i64).collect())
}

fn reconstruct(oids: &Bat, objid: &Bat) -> Bat {
    let marked = algebra::mark_t(oids, 0);
    let rev = algebra::reverse(&marked).expect("oid tail");
    algebra::join(&rev, objid).expect("join")
}

fn bench_reconstruction(c: &mut Criterion) {
    let ra = ra_bat();
    let objid = objid_bat();
    let lo = Atom::Dbl(90.0);
    let hi = Atom::Dbl(126.0); // 10% of the domain

    // Positional path: one uselect over the whole column.
    let positional_oids = algebra::uselect(&ra, &lo, &hi).expect("uselect");

    // Segmented path: the same rows in value order, as a select over
    // value-ranged pieces returns them (oids grouped by value, not by
    // position).
    let Tail::Dbl(values) = ra.tail() else {
        unreachable!("ra is a dbl column")
    };
    let mut oids: Vec<u64> = (0..positional_oids.len())
        .map(|i| positional_oids.head_at(i))
        .collect();
    oids.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
    let rows = oids.len();
    let segmented_oids = Bat::new(Head::Oids(oids.into()), Tail::Nil(rows)).expect("oid bat");
    assert_eq!(positional_oids.len(), segmented_oids.len(), "same rows");

    let mut group = c.benchmark_group("tuple_reconstruction");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("positional_oids", N), |b| {
        b.iter(|| black_box(reconstruct(&positional_oids, &objid).len()))
    });
    group.bench_function(BenchmarkId::new("value_ordered_oids", N), |b| {
        b.iter(|| black_box(reconstruct(&segmented_oids, &objid).len()))
    });
    group.finish();
}

fn bench_delta_projection(c: &mut Criterion) {
    let base = objid_bat();
    // X29: result oid -> row oid, 25 rows spread over the column.
    let probe = Bat::dense_oid((0..25u64).map(|k| k * 7_919 % N as u64).collect());
    let inserts = Bat::new(
        Head::Void { base: N as u64 },
        Tail::Int((0..30).map(|k| 1_000_000 + k).collect::<Vec<i64>>().into()),
    )
    .expect("30 insert rows");
    let none = base.empty_like();
    let one_update = Bat::new(
        Head::Oids(vec![probe.head_at(0) + 7_919].into()),
        Tail::Int(vec![-1].into()),
    )
    .expect("one update row");
    let chain = |updates: &Bat| {
        let merged = algebra::kunion(&base, &inserts).expect("kunion");
        let merged = algebra::kdifference(&merged, updates).expect("kdifference");
        let merged = algebra::kunion(&merged, updates).expect("kunion");
        algebra::join(&probe, &merged).expect("join")
    };

    let mut group = c.benchmark_group("delta_projection");
    group.sample_size(20);
    for (shape, updates) in [("inserts", &none), ("inserts_and_update", &one_update)] {
        let fused = algebra::project_delta(&probe, &base, &inserts, updates).expect("fused");
        assert_eq!(fused, chain(updates), "{shape}: the kernel is the chain");
        group.bench_function(BenchmarkId::new("chain", shape), |b| {
            b.iter(|| black_box(chain(updates).len()))
        });
        group.bench_function(BenchmarkId::new("project_delta", shape), |b| {
            b.iter(|| {
                black_box(
                    algebra::project_delta(&probe, &base, &inserts, updates)
                        .expect("fused")
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reconstruction, bench_delta_projection);
criterion_main!(benches);
