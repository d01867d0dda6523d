//! Threaded stress: readers hammering a [`ConcurrentColumn`] while the
//! writer folds reorganizations and background `set_strategy` migrations
//! keep rebuilding the column wholesale — plus the catalog-level strategy
//! switch, round after round. CI runs this file with `--test-threads`
//! matched to the runner's cores so the tests overlap and genuinely
//! contend.

use socdb::bat::{Atom, Bat, Tail};
use socdb::mal::Catalog;
use socdb::prelude::*;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, 99_999)
}

/// Readers never block and never see a wrong answer while the writer is
/// simultaneously folding reorganizations *and* swapping the entire
/// strategy kind underneath them.
#[test]
fn readers_survive_reorganization_and_migration_storm() {
    let values = uniform_values(40_000, &domain(), 71);
    let queries = WorkloadSpec::uniform(0.03, 120, 72).generate(&domain());
    let expect: Vec<u64> = queries
        .iter()
        .map(|q| values.iter().filter(|v| q.contains(**v)).count() as u64)
        .collect();
    let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(1024, 4096);
    let concurrent =
        ConcurrentColumn::from_spec(&spec, domain(), values.clone()).expect("values in domain");

    let readers = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 6))
        .unwrap_or(4);
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                for round in 0..3 {
                    for (i, q) in queries.iter().enumerate() {
                        assert_eq!(
                            concurrent.select_count(q, &mut NullTracker),
                            expect[i],
                            "round {round} query #{i}"
                        );
                    }
                }
            });
        }
        // The migration storm runs on the scope's main thread, racing
        // every reader: each command rebuilds the whole column.
        for kind in [
            StrategyKind::Cracking,
            StrategyKind::FullSort,
            StrategyKind::GdRepl,
            StrategyKind::NoSegm,
            StrategyKind::GdSegmMerged,
            StrategyKind::ApmSegm,
        ] {
            concurrent.set_strategy(StrategySpec { kind, ..spec });
        }
    });

    concurrent.quiesce();
    let snap = concurrent.snapshot();
    snap.validate()
        .expect("published snapshot is structurally sound");
    assert_eq!(snap.total_rows(), values.len() as u64);
    assert_eq!(snap.failed_migrations(), 0);
    assert!(
        snap.name().starts_with("APM") && snap.name().ends_with("Segm"),
        "the last migration wins: {}",
        snap.name()
    );
    // Hand the strategy back to the serial world: still byte-correct.
    let mut strategy = concurrent.into_strategy();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(strategy.select_count(q, &mut NullTracker), expect[i]);
    }
}

/// The epoch layer over a whole sharded column: reader threads above the
/// epoch writer, which runs every node strategy inline — two layers of
/// threads, one correct answer.
#[test]
fn sharded_column_behind_the_epoch_layer_under_load() {
    let values = uniform_values(30_000, &domain(), 73);
    let queries = WorkloadSpec::uniform(0.05, 80, 74).generate(&domain());
    let expect: Vec<u64> = queries
        .iter()
        .map(|q| values.iter().filter(|v| q.contains(**v)).count() as u64)
        .collect();
    let sharded = ShardedColumn::new(
        StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(1024, 4096),
        PlacementPolicy::RangeContiguous,
        6,
        domain(),
        values.clone(),
    )
    .expect("shard construction");
    let concurrent = ConcurrentColumn::new(Box::new(sharded), domain());
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for (i, q) in queries.iter().enumerate() {
                    assert_eq!(concurrent.select_count(q, &mut NullTracker), expect[i]);
                    assert_eq!(
                        concurrent.select_collect(q, &mut NullTracker).len() as u64,
                        expect[i]
                    );
                }
            });
        }
    });
    concurrent.quiesce();
    assert_eq!(concurrent.snapshot().total_rows(), values.len() as u64);
}

/// Catalog-level `set_strategy`: across repeated switches, adapted in
/// between, the rows survive every switch bit-exactly and the column
/// keeps accepting deltas.
#[test]
fn set_strategy_preserves_rows_across_every_switch() {
    let base: Vec<i64> = (0..20_000).map(|i| (i * 7919) % 10_000).collect();
    let mut expected_sorted = base.clone();
    expected_sorted.sort_unstable();
    let mut c = Catalog::new();
    c.register_segmented(
        "sys",
        "T",
        "v",
        Bat::dense_int(base),
        0.0,
        10_000.0,
        StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(2048, 8192),
    )
    .unwrap();

    for (round, kind) in [
        StrategyKind::Cracking,
        StrategyKind::GdRepl,
        StrategyKind::FullSort,
        StrategyKind::ApmSegm,
        StrategyKind::AutoApmSegm,
    ]
    .into_iter()
    .enumerate()
    {
        c.set_strategy("sys.T.v", kind).unwrap();
        // The switched column answers reads and adapts.
        let lo = (round * 1_700) as i64;
        c.segmented_mut("sys.T.v")
            .unwrap()
            .adapt(&Atom::Int(lo), &Atom::Int(lo + 500))
            .unwrap();
        let seg = c.segmented("sys.T.v").unwrap();
        seg.validate()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(seg.footprint_bytes(lo as f64, lo as f64 + 500.0) > 0);
        let packed = seg.pack().unwrap();
        assert_eq!(packed.len(), 20_000, "round {round}");
        let Tail::Int(vals) = packed.tail() else {
            panic!("int tail expected");
        };
        let mut vals = vals.to_vec();
        vals.sort_unstable();
        assert_eq!(vals, expected_sorted, "round {round}: rows mutated");
        // The column still accepts deltas after every switch.
        c.insert_row("sys", "T", &[("v", Atom::Int(5))]);
        c.delete_row("sys", "T", (20_000 + round) as u64);
    }
}
