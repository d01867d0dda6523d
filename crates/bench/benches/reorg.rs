//! Reorganization cost: the price of one eager split (scan + rewrite of a
//! segment) and of one lazy replica materialization — the write-side
//! asymmetry behind Figures 5–6.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use soc_core::{
    AdaptivePageModel, AdaptiveReplication, AdaptiveSegmentation, ColumnStrategy, NullTracker,
    ReplicaTree, SegmentedColumn, SizeEstimator, ValueRange,
};
use soc_workload::uniform_values;

const DOMAIN_HI: u32 = 999_999;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

fn bench_split_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("first_query_reorg");
    group.sample_size(20);
    for len in [10_000usize, 100_000] {
        // Eager segmentation: rebuild the column each iteration, split once.
        group.bench_function(BenchmarkId::new("eager_split", len), |b| {
            b.iter_batched(
                || {
                    let col =
                        SegmentedColumn::new(domain(), uniform_values(len, &domain(), 7)).unwrap();
                    AdaptiveSegmentation::new(
                        col,
                        Box::new(AdaptivePageModel::simulation_default()),
                        SizeEstimator::Uniform,
                    )
                },
                |mut s| {
                    black_box(s.select_count(&ValueRange::must(400_000, 499_999), &mut NullTracker))
                },
                criterion::BatchSize::LargeInput,
            )
        });
        // Lazy replication: same query, only the result is written.
        group.bench_function(BenchmarkId::new("lazy_replica", len), |b| {
            b.iter_batched(
                || {
                    let tree =
                        ReplicaTree::new(domain(), uniform_values(len, &domain(), 7)).unwrap();
                    AdaptiveReplication::new(
                        tree,
                        Box::new(AdaptivePageModel::simulation_default()),
                    )
                },
                |mut s| {
                    black_box(s.select_count(&ValueRange::must(400_000, 499_999), &mut NullTracker))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_split_cost);
criterion_main!(benches);
