//! Table 1 as a benchmark: measures the wall-clock of a full
//! strategy × workload run at a reduced scale and reports the average
//! read size it produces (printed once per strategy).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use soc_core::StrategyKind;
use soc_sim::experiment::simulation::{run_sim_cell, SimConfig, SimDistribution};

fn bench_table1(c: &mut Criterion) {
    let cfg = SimConfig {
        column_len: 20_000,
        query_count: 1_000,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("table1_runs");
    group.sample_size(10);
    for kind in StrategyKind::SIMULATION {
        // Report the measured Table 1 cell once, so `cargo bench` output
        // doubles as a scaled reproduction record.
        let r = run_sim_cell(&cfg, SimDistribution::Uniform, 0.1, kind);
        println!(
            "table1[{}, U 0.1, scaled]: avg read {:.1} KB over {} queries",
            r.name,
            r.avg_read_kb(),
            cfg.query_count
        );
        group.bench_function(BenchmarkId::new("u0.1", format!("{kind:?}")), |b| {
            b.iter(|| {
                black_box(run_sim_cell(&cfg, SimDistribution::Uniform, 0.1, kind).avg_read_kb())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
