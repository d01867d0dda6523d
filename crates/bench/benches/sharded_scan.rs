//! Sharded range selection: the cost of the placement-routed column, whose
//! node strategies all run inline on the caller's thread.
//!
//! * `sharded_scan` — a 64-query batch of narrow (1 %) selections on a
//!   converged shard at 1/4/16 nodes. The 1-node shard bounds the router's
//!   own overhead over the plain strategy; contiguous placement shows
//!   routing selectivity (few nodes per query), round-robin what the wide
//!   fan-out of a range-blind placement costs.
//! * `sharded_fanout_scan` — wide (50 %) selections over round-robin
//!   placement of unsegmented nodes: every node scans for every query, so
//!   the batch is pure scan work, done one node after another.
//! * `sharded_replace` — one re-placement epoch on a converged shard:
//!   collecting the live partitioning, extracting every piece, planning
//!   and rebuilding the nodes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use soc_core::{ColumnStrategy, NullTracker, StrategyKind, StrategySpec, ValueRange};
use soc_sim::{PlacementPolicy, ShardedColumn};
use soc_workload::{uniform_values, WorkloadSpec};

const DOMAIN_HI: u32 = 999_999;
const COLUMN_LEN: usize = 100_000;
const NODE_COUNTS: [usize; 3] = [1, 4, 16];
const BATCH: usize = 64;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

fn spec() -> StrategySpec {
    StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(3 * 1024, 12 * 1024)
}

/// A converged shard: the workload has already shaped the per-node columns,
/// so the measurement sees steady-state routed scans, not first-touch
/// reorganization.
fn converged_shard(policy: PlacementPolicy, nodes: usize) -> ShardedColumn<u32> {
    let values = uniform_values(COLUMN_LEN, &domain(), 21);
    let mut sharded =
        ShardedColumn::new(spec(), policy, nodes, domain(), values).expect("valid shard");
    for q in WorkloadSpec::uniform(0.01, 400, 22).generate(&domain()) {
        sharded.select_count(&q, &mut NullTracker);
    }
    sharded
}

/// One count per query of `queries`, summed.
fn count_all(sharded: &mut ShardedColumn<u32>, queries: &[ValueRange<u32>]) -> u64 {
    queries
        .iter()
        .map(|q| sharded.select_count(q, &mut NullTracker))
        .sum()
}

fn bench_sharded_scan(c: &mut Criterion) {
    let queries = WorkloadSpec::uniform(0.01, BATCH, 23).generate(&domain());
    let mut group = c.benchmark_group("sharded_scan");
    group.sample_size(20);
    group.throughput(Throughput::Elements((COLUMN_LEN * BATCH) as u64));
    for policy in [
        PlacementPolicy::RangeContiguous,
        PlacementPolicy::RoundRobin,
    ] {
        for nodes in NODE_COUNTS {
            let mut sharded = converged_shard(policy, nodes);
            // Also converge on the benchmark queries themselves, so the
            // adapting strategy reaches a fixed point before it is timed.
            for _ in 0..3 {
                count_all(&mut sharded, &queries);
            }
            group.bench_function(BenchmarkId::new(format!("{policy:?}"), nodes), |b| {
                b.iter(|| black_box(count_all(&mut sharded, black_box(&queries))))
            });
        }
    }
    group.finish();
}

fn bench_sharded_fanout_scan(c: &mut Criterion) {
    const FANOUT_COLUMN_LEN: usize = 400_000;
    let queries = WorkloadSpec::uniform(0.5, BATCH, 24).generate(&domain());
    let mut group = c.benchmark_group("sharded_fanout_scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements((FANOUT_COLUMN_LEN * BATCH) as u64));
    for nodes in NODE_COUNTS {
        let values = uniform_values(FANOUT_COLUMN_LEN, &domain(), 25);
        let mut sharded = ShardedColumn::new(
            StrategySpec::new(StrategyKind::NoSegm),
            PlacementPolicy::RoundRobin,
            nodes,
            domain(),
            values,
        )
        .expect("valid shard");
        group.bench_function(BenchmarkId::from_parameter(nodes), |b| {
            b.iter(|| black_box(count_all(&mut sharded, black_box(&queries))))
        });
    }
    group.finish();
}

fn bench_replacement_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_replace");
    group.sample_size(10);
    for nodes in NODE_COUNTS {
        group.bench_function(BenchmarkId::from_parameter(nodes), |b| {
            b.iter_batched(
                || converged_shard(PlacementPolicy::RangeContiguous, nodes),
                |mut sharded| {
                    black_box(sharded.replace(&mut NullTracker).expect("nodes > 0"));
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_scan,
    bench_sharded_fanout_scan,
    bench_replacement_epoch
);
criterion_main!(benches);
