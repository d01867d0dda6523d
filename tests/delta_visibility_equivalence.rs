//! Property: delta visibility is exact. A compiled SQL select over
//! pending insert/update/delete deltas answers exactly the logical column
//! the deltas describe — for all nine strategy kinds, before and after the
//! catalog merge folds the deltas into the
//! pieces, which then hold exactly those rows — and concurrent readers
//! racing the epoch writer's fold steps may only ever observe exact prefix
//! states, never a torn one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::adaptive::{CompactionPolicy, DeltaBatch, DeltaOp};
use socdb::bat::{Atom, Bat, Tail};
use socdb::mal::{compile_select, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::*;

const DOMAIN_HI: i64 = 999;
const ID_BASE: i64 = 10_000;

/// Oids a Figure-1 SQL result names, recovered from the projected id
/// column.
fn figure1_oids(result: &Bat) -> Result<BTreeSet<u64>, TestCaseError> {
    let Tail::Int(ids) = result.tail() else {
        return Err(TestCaseError::fail("id projection must be an int tail"));
    };
    Ok(ids.iter().map(|id| (id - ID_BASE) as u64).collect())
}

/// `oid -> value` of a packed segmented column, whose head carries the
/// oids.
fn packed_rows(packed: &Bat) -> Result<BTreeMap<u64, i64>, TestCaseError> {
    let Tail::Int(vals) = packed.tail() else {
        return Err(TestCaseError::fail("packed column must have an int tail"));
    };
    Ok(packed
        .head_oids()
        .into_iter()
        .zip(vals.iter().copied())
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For every strategy kind the compiled plan, which
    /// merges the pending deltas with `sql.subdelta`/`sql.projectdelta`,
    /// names exactly the model's rows; the answers survive `merge_deltas`
    /// unchanged, the merge keeps every piece, and the merged column holds
    /// exactly the model's `(oid, value)` rows.
    #[test]
    fn figure1_merge_equals_the_model_for_every_kind(
        base in vec(0i64..=DOMAIN_HI, 20..100),
        inserts in vec(0i64..=DOMAIN_HI, 0..6),
        updates in vec((0usize..10_000, 0i64..=DOMAIN_HI), 0..6),
        deletes in vec(0usize..10_000, 0..4),
        raw_queries in vec((0i64..=DOMAIN_HI, 0i64..=DOMAIN_HI), 1..4),
        seed in any::<u64>(),
    ) {
        let base_len = base.len() as u64;
        let mut updated: BTreeMap<u64, i64> = BTreeMap::new();
        for (slot, v) in &updates {
            updated.entry((*slot as u64) % base_len).or_insert(*v);
        }
        let total_rows = base_len + inserts.len() as u64;
        let deleted: BTreeSet<u64> = deletes
            .iter()
            .map(|slot| (*slot as u64) % total_rows)
            .collect();

        // The visible logical column: oid -> value after all deltas.
        let mut visible: BTreeMap<u64, i64> = base
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect();
        for (i, v) in inserts.iter().enumerate() {
            visible.insert(base_len + i as u64, *v);
        }
        for (&oid, &v) in &updated {
            visible.insert(oid, v);
        }
        for oid in &deleted {
            visible.remove(oid);
        }
        let edges_kept = (base.iter().min(), base.iter().max())
            == (visible.values().min(), visible.values().max());

        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(128, 512)
                .with_model_seed(seed);
            let mut catalog = Catalog::new();
            catalog.set_delta_merge_threshold(0); // deltas stay pending
            catalog
                .register_segmented(
                    "sys", "T", "v",
                    Bat::dense_int(base.clone()),
                    0.0, (DOMAIN_HI + 1) as f64,
                    spec,
                )
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            catalog.register_bat(
                "sys", "T", "id",
                Bat::dense_int((0..base_len as i64).map(|i| ID_BASE + i).collect()),
            );
            for (i, v) in inserts.iter().enumerate() {
                catalog.insert_row(
                    "sys", "T",
                    &[
                        ("v", Atom::Int(*v)),
                        ("id", Atom::Int(ID_BASE + base_len as i64 + i as i64)),
                    ],
                );
            }
            for (&oid, &v) in &updated {
                catalog.update_value("sys", "T", "v", oid, Atom::Int(v));
            }
            for &oid in &deleted {
                catalog.delete_row("sys", "T", oid);
            }

            let plan = compile_select("SELECT id FROM sys.T WHERE v BETWEEN ? AND ?")
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let optimizer = SegmentOptimizer::new();

            // Answers are checked pending (overlay) and after the merge
            // (base only) — same reads, two states.
            for phase in ["pending", "merged"] {
                for (a, b) in &raw_queries {
                    let (lo, hi) = (*a.min(b), *a.max(b));
                    let expected_oids: BTreeSet<u64> = visible
                        .iter()
                        .filter(|(_, v)| (lo..=hi).contains(*v))
                        .map(|(&oid, _)| oid)
                        .collect();

                    let (optimized, _) = optimizer.optimize(&plan, &catalog);
                    let merged = Interp::new(&mut catalog)
                        .run(&optimized, &[Atom::Int(lo), Atom::Int(hi)])
                        .map_err(|e| {
                            TestCaseError::fail(format!("{kind:?}/{phase}: {e}"))
                        })?
                        .ok_or_else(|| TestCaseError::fail("plan exported no result"))?;
                    prop_assert_eq!(
                        &figure1_oids(&merged)?, &expected_oids,
                        "{:?}/{}: Figure-1 merge diverged on [{}, {}]",
                        kind, phase, lo, hi
                    );
                }
                if phase == "pending" {
                    let seg = catalog.segmented("sys.T.v").expect("still registered");
                    let spans = seg.piece_spans();
                    catalog.merge_deltas("sys", "T").map_err(|e| {
                        TestCaseError::fail(format!("{kind:?}: {e}"))
                    })?;
                    prop_assert_eq!(catalog.pending_rows("sys", "T"), 0);
                    // Cracking reports its edge pieces clipped to the
                    // data's min and max, so its spans hold still only
                    // when the merge moves neither.
                    if kind != StrategyKind::Cracking || edges_kept {
                        let seg = catalog.segmented("sys.T.v").expect("still registered");
                        prop_assert_eq!(
                            seg.piece_spans(), spans,
                            "{:?}: the merge moved a piece", kind
                        );
                    }
                }
            }
            let seg = catalog.segmented("sys.T.v").expect("still registered");
            seg.validate()
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            let packed = seg
                .pack()
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            prop_assert_eq!(
                &packed_rows(&packed)?, &visible,
                "{:?}: the merged column is not the model", kind
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Readers racing the epoch writer's incremental fold steps never
    /// see a torn answer: every observed count is the exact answer of
    /// some applied-batch prefix, and once the writer drains, reads are
    /// the exact final multiset — for every strategy kind, with a fold
    /// step small enough that compaction is still running while the
    /// readers probe.
    #[test]
    fn racing_readers_observe_only_exact_prefix_states_during_compaction(
        base in vec(0u32..=999, 40..120),
        batches in vec(vec(0u32..=999, 4..24), 3..6),
        seed in any::<u64>(),
    ) {
        let domain = ValueRange::must(0u32, 999);
        let full = ValueRange::must(0u32, 999);
        let sub = ValueRange::must(200u32, 700);

        // Script the write stream once: batch i inserts its values and
        // deletes the first row batch i-1 inserted (a cross-batch
        // tombstone that must cancel by value during any fold split).
        let mut next_oid = base.len() as u64;
        let mut prev_first: Option<(u64, u32)> = None;
        let mut scripted: Vec<DeltaBatch<u32>> = Vec::new();
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
            let column =
                ConcurrentColumn::from_spec_with_policy(&spec, domain, base.clone(), policy)
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
                for batch in scripted.iter().cloned() {
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
