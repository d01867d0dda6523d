//! Facade smoke test: drives `socdb::prelude` through the full
//! load → self-organize → re-query cycle for **every** strategy kind, all
//! dispatched through the shared [`ColumnStrategy`] trait object built by
//! [`StrategySpec`]. If any re-export in the facade or any strategy's
//! trait wiring rots, this fails.

use socdb::prelude::*;

const DOMAIN_HI: u32 = 999_999;
const COLUMN_LEN: usize = 20_000;
const COLUMN_BYTES: u64 = COLUMN_LEN as u64 * 4;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

fn load() -> Vec<u32> {
    uniform_values(COLUMN_LEN, &domain(), 42)
}

#[test]
fn every_strategy_answers_correctly_through_the_facade() {
    let values = load();
    let q = ValueRange::must(100_000, 199_999);
    let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
    for kind in StrategyKind::ALL {
        let mut strategy: Box<dyn ColumnStrategy<u32>> = StrategySpec::new(kind)
            .with_model_seed(7)
            .build(domain(), values.clone())
            .expect("values lie in domain");
        let mut tracker = CountingTracker::new();
        assert_eq!(strategy.select_count(&q, &mut tracker), expect, "{kind:?}");
        let collected = strategy.peek_collect(&q);
        assert_eq!(collected.len() as u64, expect, "{kind:?}");
        assert!(collected.iter().all(|v| q.contains(*v)), "{kind:?}");
    }
}

#[test]
fn self_organization_shrinks_reads_for_every_adaptive_strategy() {
    let organize = WorkloadSpec::uniform(0.1, 200, 3).generate(&domain());
    let probe = ValueRange::must(400_000, 499_999);
    for kind in StrategyKind::ALL {
        let mut strategy = StrategySpec::new(kind)
            .with_model_seed(7)
            .build(domain(), load())
            .expect("values lie in domain");
        let mut tracker = CountingTracker::new();

        // Cold probe: the first query against a fresh column.
        tracker.begin_query();
        strategy.select_count(&probe, &mut tracker);
        let cold_reads = tracker.query_stats().read_bytes;

        // Let the workload self-organize the column…
        for q in &organize {
            strategy.select_count(q, &mut tracker);
        }

        // …then repeat the probe.
        tracker.begin_query();
        strategy.select_count(&probe, &mut tracker);
        let warm_reads = tracker.query_stats().read_bytes;

        if kind.is_adaptive() {
            assert!(
                warm_reads < cold_reads / 2,
                "{kind:?}: warm reads {warm_reads} should be well under cold reads {cold_reads}"
            );
            let a = strategy.adaptation();
            assert!(
                a.splits + a.merges + a.replicas_created > 0,
                "{kind:?}: expected adaptation activity"
            );
        } else if kind == StrategyKind::NoSegm {
            assert_eq!(
                warm_reads, cold_reads,
                "NoSegm never reorganizes: every query is the same full scan"
            );
        } else {
            // FullSort paid everything up front; the warm probe reads
            // exactly its result.
            assert!(warm_reads <= cold_reads, "{kind:?}");
        }
        assert!(
            strategy.storage_bytes() >= COLUMN_BYTES,
            "{kind:?}: storage below the bare column"
        );
    }
}

#[test]
fn run_queries_pipeline_reproduces_declining_read_trajectory() {
    // The paper's core claim (Figure 7) end-to-end through the facade:
    // workload generation → strategy factory → instrumented runner.
    let queries = WorkloadSpec::uniform(0.1, 300, 3).generate(&domain());
    let mut strategy = StrategySpec::new(StrategyKind::ApmSegm)
        .build(domain(), load())
        .expect("values lie in domain");
    let mut tracker = SimTracker::unbuffered();
    let result: RunResult = run_queries(
        strategy.as_mut(),
        &queries,
        &mut tracker,
        &CostModel::era_2008_desktop(),
    );
    let reads = result.reads_per_query();
    assert_eq!(
        reads[0], COLUMN_BYTES as f64,
        "first query scans everything"
    );
    let late: f64 = reads[280..].iter().sum::<f64>() / 20.0;
    assert!(
        late < reads[0] / 4.0,
        "converged reads {late} should be a fraction of the full scan {}",
        reads[0]
    );
}

#[test]
fn sharded_executor_works_through_the_facade() {
    let values = load();
    let queries = WorkloadSpec::uniform(0.05, 80, 5).generate(&domain());
    for kind in [StrategyKind::ApmSegm, StrategyKind::GdRepl] {
        let mut sharded = ShardedColumn::new(
            StrategySpec::new(kind).with_model_seed(7),
            PlacementPolicy::RangeContiguous,
            4,
            domain(),
            values.clone(),
        )
        .expect("valid shard");
        let mut tracker = CountingTracker::new();
        for q in &queries {
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(sharded.select_count(q, &mut tracker), expect, "{kind:?}");
        }
        // The executor measured its routing: narrow queries on a
        // contiguous placement touch a fraction of the 4 nodes.
        assert!(sharded.mean_measured_fanout() < 3.0, "{kind:?}");
        let report = sharded.replace(&mut tracker).expect("replace");
        assert!(report.pieces > 0, "{kind:?}");
        assert!(
            sharded.storage_bytes() >= COLUMN_BYTES,
            "{kind:?}: storage below the bare column"
        );
    }
}

#[test]
fn replication_segment_ranges_are_placeable_through_the_facade() {
    // The flattening fix end-to-end: a replication strategy's reported
    // partition is disjoint and domain-covering, so positional placement
    // over it cannot double-count data.
    let mut strategy = StrategySpec::new(StrategyKind::ApmRepl)
        .build(domain(), load())
        .expect("values lie in domain");
    for q in WorkloadSpec::uniform(0.05, 120, 11).generate(&domain()) {
        strategy.select_count(&q, &mut NullTracker);
    }
    let ranges = strategy.segment_ranges();
    let bytes = strategy.segment_bytes();
    assert_eq!(ranges.len(), bytes.len());
    assert_eq!(ranges.first().expect("non-empty").lo(), 0);
    assert_eq!(ranges.last().expect("non-empty").hi(), DOMAIN_HI);
    assert!(ranges.windows(2).all(|w| w[0].adjacent_before(&w[1])));
    assert_eq!(bytes.iter().sum::<u64>(), COLUMN_BYTES);
    let placement = Placement::assign(PlacementPolicy::SizeBalanced, &bytes, 4).expect("4 nodes");
    assert_eq!(placement.node_bytes.iter().sum::<u64>(), COLUMN_BYTES);
}

#[test]
fn segment_ranges_expose_the_partitioning_for_placement() {
    let queries = WorkloadSpec::uniform(0.05, 150, 9).generate(&domain());
    let mut strategy = StrategySpec::new(StrategyKind::ApmSegm)
        .build(domain(), load())
        .expect("values lie in domain");
    for q in &queries {
        strategy.select_count(q, &mut NullTracker);
    }
    let ranges = strategy.segment_ranges();
    assert_eq!(ranges.len(), strategy.segment_count());
    assert!(
        ranges.windows(2).all(|w| w[0].hi() < w[1].lo()),
        "segmentation ranges tile in value order"
    );
}
