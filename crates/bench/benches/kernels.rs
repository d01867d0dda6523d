//! Kernel micro-benches: full-column scan vs segment-pruned selection —
//! the mechanism behind every read-size figure in the paper — plus the
//! branchless chunked kernels of `soc_core::kernels` against the naive
//! per-element filters they replaced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use soc_core::{
    kernels, AdaptivePageModel, AdaptiveSegmentation, ColumnStrategy, ColumnValue, NonSegmented,
    NullTracker, OrdF64, SegmentedColumn, SizeEstimator, ValueRange,
};
use soc_workload::{skyserver_domain, skyserver_ra, uniform_values, WorkloadSpec};

const DOMAIN_HI: u32 = 999_999;
const COLUMN_LEN: usize = 100_000;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

/// A pre-converged APM-segmented column (after 500 warm-up queries).
fn converged_segmentation() -> AdaptiveSegmentation<u32> {
    let column = SegmentedColumn::new(domain(), uniform_values(COLUMN_LEN, &domain(), 1)).unwrap();
    let mut s = AdaptiveSegmentation::new(
        column,
        Box::new(AdaptivePageModel::simulation_default()),
        SizeEstimator::Uniform,
    );
    for q in WorkloadSpec::uniform(0.1, 500, 2).generate(&domain()) {
        s.select_count(&q, &mut NullTracker);
    }
    s
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_sel0.1");
    group.sample_size(20);

    let queries = WorkloadSpec::uniform(0.1, 64, 3).generate(&domain());

    let mut baseline = NonSegmented::new(domain(), uniform_values(COLUMN_LEN, &domain(), 1));
    group.bench_function(BenchmarkId::new("full_scan", COLUMN_LEN), |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(baseline.select_count(q, &mut NullTracker))
        })
    });

    let mut segmented = converged_segmentation();
    group.bench_function(BenchmarkId::new("segmented_converged", COLUMN_LEN), |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(segmented.select_count(q, &mut NullTracker))
        })
    });
    group.finish();
}

fn bench_overlap_lookup(c: &mut Criterion) {
    let segmented = converged_segmentation();
    let meta = segmented.column().meta_index();
    let queries = WorkloadSpec::uniform(0.01, 256, 4).generate(&domain());
    c.bench_function("meta_index_overlap_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(meta.overlapping(q).len())
        })
    });
}

/// The raw scan kernels against the tuple-at-a-time loops they replaced —
/// one benchmark per kernel, same data, same query, elements/sec reported.
fn bench_scan_kernels(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let values = uniform_values(N, &domain(), 5);
    let q = ValueRange::must(200_000, 599_999); // ~40% selectivity
    let mut group = c.benchmark_group("scan_kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function(BenchmarkId::new("count_naive_filter", N), |b| {
        b.iter(|| black_box(values.iter().filter(|v| q.contains(**v)).count() as u64))
    });
    group.bench_function(BenchmarkId::new("count_branchless", N), |b| {
        b.iter(|| black_box(kernels::count_range(&values, &q)))
    });

    group.bench_function(BenchmarkId::new("collect_naive_filter", N), |b| {
        b.iter(|| {
            let out: Vec<u32> = values.iter().copied().filter(|v| q.contains(*v)).collect();
            black_box(out.len())
        })
    });
    group.bench_function(BenchmarkId::new("collect_chunked", N), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            kernels::collect_range(&values, &q, &mut out);
            black_box(out.len())
        })
    });

    group.bench_function(BenchmarkId::new("partition_branchless", N), |b| {
        b.iter(|| black_box(kernels::count_partition(&values, &q)))
    });

    let mut sorted = values.clone();
    sorted.sort_unstable();
    group.bench_function(BenchmarkId::new("sorted_run_binary_search", N), |b| {
        b.iter(|| black_box(kernels::sorted_run(&sorted, &q)))
    });
    group.finish();
}

/// The masked one-pass sum (`kernels::sum_range`, the specification the
/// served sums reproduce) vs collect-then-fold.
fn bench_aggregate_kernels(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let values = uniform_values(N, &domain(), 7);
    let q = ValueRange::must(200_000, 599_999);
    let mut group = c.benchmark_group("aggregate_kernels");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function(BenchmarkId::new("sum_collect_then_fold", N), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            kernels::collect_range(&values, &q, &mut out);
            black_box(out.iter().map(|v| f64::from(*v)).sum::<f64>())
        })
    });
    group.bench_function(BenchmarkId::new("sum_fused", N), |b| {
        b.iter(|| black_box(kernels::sum_range(&values, &q)))
    });
    group.finish();
}

/// The reorganizing scans on the paper's `ra` column (`OrdF64`, 8 MB): the
/// kernels behind `scanMat` and segment splits. `scan_fill` runs against
/// the loops it replaced — one `count_range` pass plus one `collect_range`
/// pass per replica — which live on only here, as the reference.
fn bench_reorganizing_scans(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let values = skyserver_ra(N, 7);
    let domain = skyserver_domain();
    let (lo, width) = (domain.lo().to_f64(), domain.width());
    // The closed range covering fractions [from, to] of the domain.
    let frac = |from: f64, to: f64| {
        ValueRange::must(
            OrdF64::from_f64(lo + from * width),
            OrdF64::from_f64(lo + to * width),
        )
    };
    let mut group = c.benchmark_group("reorganizing_scans_f64");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N as u64));

    let q = frac(0.4, 0.402);
    group.bench_function(BenchmarkId::new("count_range", N), |b| {
        b.iter(|| black_box(kernels::count_range(&values, &q)))
    });
    for sel in [0.002, 0.1, 0.5] {
        let r = frac(0.4, 0.4 + sel);
        group.bench_function(BenchmarkId::new("collect_range", sel), |b| {
            b.iter(|| {
                let mut out = Vec::new();
                kernels::collect_range(&values, &r, &mut out);
                black_box(out.len())
            })
        });
    }

    // Adaptive replication mostly fills a replica of exactly the query's
    // range: of the 2 149 M elements `scan_fill` scans with a fill over the
    // twelve `sky_adapt` cells (seed 7), 1 518 M (71 %) are scanned with
    // fill == `q` — 1 301 M of 1 353 M (96 %) on `apm_repl/random` — and
    // segmentation never calls it. The wide `1_fill`/`3_fills` shapes are
    // the rest of the traffic: fills wider than a narrow query.
    let eq_q = vec![q];
    let one = vec![frac(0.4, 0.9)];
    let three = vec![frac(0.1, 0.2), frac(0.4, 0.6), frac(0.7, 0.9)];
    for (name, fills) in [
        ("1_fill_eq_q", &eq_q),
        ("1_fill", &one),
        ("3_fills", &three),
    ] {
        group.bench_function(BenchmarkId::new("scan_fill", name), |b| {
            b.iter(|| {
                let mut outs = vec![Vec::new(); fills.len()];
                let n = kernels::scan_fill(&values, &q, fills, &mut outs);
                black_box((n, outs))
            })
        });
        group.bench_function(BenchmarkId::new("count_then_collect_per_fill", name), |b| {
            b.iter(|| {
                let n = kernels::count_range(&values, &q);
                let outs: Vec<Vec<OrdF64>> = fills
                    .iter()
                    .map(|r| {
                        let mut out = Vec::new();
                        kernels::collect_range(&values, r, &mut out);
                        out
                    })
                    .collect();
                black_box((n, outs))
            })
        });
    }

    let bounds = [frac(0.0, 0.33).hi(), frac(0.0, 0.66).hi()];
    for (name, bounds) in [("2_way", &bounds[..1]), ("3_way", &bounds[..])] {
        group.bench_function(BenchmarkId::new("partition_into", name), |b| {
            b.iter(|| black_box(kernels::partition_into(&values, bounds)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_overlap_lookup,
    bench_scan_kernels,
    bench_aggregate_kernels,
    bench_reorganizing_scans
);
criterion_main!(benches);
