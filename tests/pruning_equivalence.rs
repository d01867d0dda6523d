//! Zone-map pruning never changes an answer and saves reads: pruned
//! served reads and SQL selects with writes pending answer as the logical
//! column does under a skewed load, which fragments its hot areas finely
//! (the cases, the model and the systems are the shared harness's,
//! `model/mod.rs`), and on a clustered column the pruned snapshot walk
//! reads a fraction of what an unpruned walk would.

mod model;

use proptest::prelude::*;
use socdb::prelude::*;

use model::Cases;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snapshot_pruned_reads_equal_naive_for_every_kind(case in Cases { skewed: true, writes: true }) {
        model::served(&case, &StrategyKind::ALL)?;
    }

    #[test]
    fn sql_answers_with_pending_deltas_survive_pruning(case in Cases { skewed: true, writes: true }) {
        model::sql(&case, &StrategyKind::ALL)?;
    }
}

/// The acceptance gate in test form: on a sorted, duplicate-clustered
/// column the pruned snapshot walk reads at most a third of what the
/// same walk charges as skipped — tracker-verified, deterministic.
#[test]
fn sorted_column_prunes_to_a_third_of_unpruned_bytes() {
    let values: Vec<u32> = (0..48_000u32).map(|i| i / 8).collect();
    let domain = ValueRange::must(0u32, 5_999);
    let spec = StrategySpec::new(StrategyKind::ApmSegm)
        .with_apm_bounds(256, 1024)
        .with_model_seed(5);
    let column = ConcurrentColumn::from_spec(&spec, domain, values.clone()).expect("in domain");
    let queries: Vec<ValueRange<u32>> = (0..32)
        .map(|i| {
            let lo = (i * 577) % 5_399;
            ValueRange::must(lo, lo + 600)
        })
        .collect();
    for q in &queries {
        let _ = column.select_count(q, &mut NullTracker);
    }
    column.quiesce();
    let snap = column.snapshot();

    let mut tracker = CountingTracker::new();
    for q in &queries {
        tracker.begin_query();
        let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
        assert_eq!(snap.select_count(q, &mut tracker), expect);
    }
    let pruned = tracker.totals().read_bytes;
    // What an unpruned execution would have read: the scans plus the
    // bytes synopsis pruning skipped.
    let unpruned = tracker.totals().read_bytes + tracker.totals().pruned_bytes;
    assert!(unpruned > 0, "the walk must visit pieces");
    assert!(
        pruned * 3 <= unpruned,
        "pruned scans read {pruned} B, more than a third of the {unpruned} B unpruned cost"
    );
}
