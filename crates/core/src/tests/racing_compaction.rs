//! Readers racing the epoch writer's incremental fold steps never see a
//! torn answer. The writer runs on its own thread here, because the
//! readers are what is under test; the fold steps themselves are pinned
//! deterministically by stepping the writer in `epoch`'s tests.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use crate::delta::CompactionPolicy;
use crate::{
    ConcurrentColumn, DeltaBatch, DeltaOp, NullTracker, StrategyKind, StrategySpec, ValueRange,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every observed count is the exact answer of some applied-batch
    /// prefix, and once the writer drains, reads are the exact final
    /// multiset — for every strategy kind, with a fold step small enough
    /// that compaction is still running while the readers probe.
    #[test]
    fn racing_readers_observe_only_exact_prefix_states_during_compaction(
        base in vec(0u32..=999, 40..120),
        batches in vec(vec(0u32..=999, 4..24), 3..6),
        seed in any::<u64>(),
    ) {
        let domain = ValueRange::must(0u32, 999);
        let full = ValueRange::must(0u32, 999);
        let sub = ValueRange::must(200u32, 700);

        // Script the write stream once. It opens with one stray delete: a
        // value no row holds, preferably one the next batch inserts. The
        // stray must change nothing, no count and not that later insert.
        // Then batch i inserts its values and deletes the first row batch
        // i-1 inserted (a cross-batch tombstone that must cancel by value
        // during any fold split).
        let stray = batches[0]
            .iter()
            .copied()
            .chain(0..=999)
            .find(|v| !base.contains(v))
            .expect("at most 120 rows leave gaps in 1000 values");
        let mut stray_batch = DeltaBatch::new();
        stray_batch.push(DeltaOp::Delete { oid: u64::MAX, value: stray });
        let mut next_oid = base.len() as u64;
        let mut prev_first: Option<(u64, u32)> = None;
        let mut scripted: Vec<DeltaBatch<u32>> = vec![stray_batch];
        let mut live: Vec<u32> = base.clone();
        let mut full_counts = BTreeSet::from([live.len() as u64]);
        let mut sub_counts =
            BTreeSet::from([live.iter().filter(|v| sub.contains(**v)).count() as u64]);
        for b in &batches {
            let mut batch = DeltaBatch::new();
            for &v in b {
                batch.push(DeltaOp::Insert { oid: next_oid, value: v });
                next_oid += 1;
                live.push(v);
            }
            if let Some((oid, value)) = prev_first.take() {
                batch.push(DeltaOp::Delete { oid, value });
                let slot = live.iter().position(|&v| v == value).expect("still live");
                live.remove(slot);
            }
            prev_first = Some((next_oid - b.len() as u64, b[0]));
            scripted.push(batch);
            full_counts.insert(live.len() as u64);
            sub_counts.insert(live.iter().filter(|v| sub.contains(**v)).count() as u64);
        }
        let mut expected_final = live;
        expected_final.sort_unstable();

        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(64, 256)
                .with_model_seed(seed);
            // Aggressive policy: folds start almost immediately and move
            // eight rows per step, so readers overlap live fold activity.
            let policy = CompactionPolicy::new(16, 8, 8);
            let column = ConcurrentColumn::with_policy(&spec, domain, base.clone(), policy)
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;

            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        while !done.load(Ordering::Relaxed) {
                            let n = column.select_count(&full, &mut NullTracker);
                            assert!(
                                full_counts.contains(&n),
                                "{kind:?}: torn full count {n}, valid {full_counts:?}"
                            );
                            let m = column.select_count(&sub, &mut NullTracker);
                            assert!(
                                sub_counts.contains(&m),
                                "{kind:?}: torn sub count {m}, valid {sub_counts:?}"
                            );
                            let rows = column.select_collect(&sub, &mut NullTracker);
                            assert!(
                                rows.windows(2).all(|w| w[0] <= w[1]),
                                "{kind:?}: collect under compaction lost value order"
                            );
                        }
                    });
                }
                let mut stream = scripted.iter().cloned();
                // The stray alone, settled below every watermark, leaves
                // the count as it was.
                column.apply_deltas(stream.next().expect("the stray batch"));
                column.quiesce();
                let n = column.select_count(&full, &mut NullTracker);
                assert!(full_counts.contains(&n), "{kind:?}: a stray delete moved the count to {n}");
                for batch in stream {
                    column.apply_deltas(batch);
                }
                column.drain_deltas();
                done.store(true, Ordering::Relaxed);
            });

            prop_assert_eq!(column.pending_delta_rows(), 0, "{:?}: drain left runs", kind);
            let got = column.select_collect(&full, &mut NullTracker);
            prop_assert_eq!(
                &got, &expected_final,
                "{:?}: post-drain reads diverged from the scripted multiset", kind
            );
        }
    }
}
