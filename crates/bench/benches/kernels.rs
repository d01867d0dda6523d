//! Kernel micro-benches: full-column scan vs segment-pruned selection —
//! the mechanism behind every read-size figure in the paper — plus the
//! branchless chunked kernels of `soc_core::kernels` against the naive
//! per-element filters they replaced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use soc_core::{
    kernels, AdaptivePageModel, AdaptiveSegmentation, ColumnStrategy, ColumnValue, NullTracker,
    OrdF64, SegmentedColumn, SizeEstimator, StrategyKind, StrategySpec, ValueRange,
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

    let mut baseline = StrategySpec::new(StrategyKind::NoSegm)
        .build(domain(), uniform_values(COLUMN_LEN, &domain(), 1))
        .unwrap();
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

    let mut sorted = values.clone();
    sorted.sort_unstable();
    group.bench_function(BenchmarkId::new("sorted_run_binary_search", N), |b| {
        b.iter(|| black_box(kernels::sorted_run(&sorted, &q)))
    });
    group.finish();
}

/// The masked one-pass sum (`kernels::sum_range`, the specification the
/// served sums reproduce) vs collect-then-fold. Throughput counts the whole
/// column for both.
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
/// count and collect kernels behind `scanMat` and segment splits.
fn bench_reorganizing_scans(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let values = skyserver_ra(N, 7);
    let domain = skyserver_domain();
    let (lo, width) = (
        domain.lo().to_f64(),
        domain.hi().to_f64() - domain.lo().to_f64(),
    );
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
    group.finish();
}

criterion_group!(
    benches,
    bench_select,
    bench_scan_kernels,
    bench_aggregate_kernels,
    bench_reorganizing_scans
);
criterion_main!(benches);
