//! Tuple reconstruction cost — the paper's named pitfall (Section 1):
//! "Since the positional correspondence of values in multiple columns is
//! not kept, operators that rely on it, e.g., tuple reconstruction, may
//! become somewhat slower."
//!
//! Measures the `markT`/`reverse`/`join` pipeline of Figure 1 against a
//! projected column when the qualifying oids come (a) positionally ordered
//! (non-segmented select) vs (b) value-ordered / scattered (segmented
//! select over bpm pieces).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use soc_bat::{algebra, Atom, Bat};
use soc_core::{StrategyKind, StrategySpec};
use soc_mal::SegmentedBat;

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

    // Segmented path: the same rows, collected from value-ranged pieces
    // (oids arrive grouped by value range, not by position).
    let spec = StrategySpec::new(StrategyKind::Cracking);
    let mut seg = SegmentedBat::from_spec(ra.clone(), 0.0, 360.0, &spec).expect("dbl column");
    for k in 0..8 {
        let qlo = k as f64 * 45.0;
        seg.adapt(&Atom::Dbl(qlo), &Atom::Dbl(qlo + 20.0))
            .expect("adapt");
    }
    let mut segmented_oids: Option<Bat> = None;
    for idx in seg.overlapping(90.0, 126.0) {
        let piece = seg.piece_bat(idx).expect("piece");
        let part = algebra::uselect(&piece, &lo, &hi).expect("uselect");
        segmented_oids = Some(match segmented_oids {
            None => part,
            Some(acc) => algebra::append(&acc, &part).expect("append"),
        });
    }
    let segmented_oids = segmented_oids.expect("query overlaps pieces");
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

criterion_group!(benches, bench_reconstruction);
criterion_main!(benches);
