//! Property: zone-map pruning is invisible in every answer. The pruned
//! snapshot read path — count, canonical collect, fused sum and min/max
//! — must return exactly what the naive filter over the logical column
//! returns, for **all nine strategy kinds**, and the SQL path must keep
//! doing so with pending insert/update/delete deltas stacked on top.
//! Pruning may only change *what is charged to the tracker*, never what is
//! answered.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::bat::{Atom, Bat, Tail};
use socdb::mal::{compile_select, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pruned snapshot reads == the naive filter, for every strategy kind.
    /// The sum comparison is on raw bits: the values are small integers,
    /// so every partial sum is exact and the synopsis-carried piece sums
    /// must reproduce the fold exactly. The same queries also drive a bare
    /// strategy of each kind, whose per-piece footprints must be the
    /// stored bytes: they add up to the column's footprint (a replica
    /// tree's covering set to less, while nested replicas occupy storage
    /// too).
    #[test]
    fn snapshot_pruned_reads_equal_naive_for_every_kind(
        values in vec(0u32..=999, 50..400),
        raw_queries in vec((0u32..=999, 0u32..=999), 1..6),
        seed in any::<u64>(),
    ) {
        let domain = ValueRange::must(0u32, 999);
        let queries: Vec<ValueRange<u32>> = raw_queries
            .iter()
            .map(|(a, b)| ValueRange::must(*a.min(b), *a.max(b)))
            .collect();
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(64, 256)
                .with_model_seed(seed);
            let column = ConcurrentColumn::from_spec(&spec, domain, values.clone())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            let mut strategy = spec
                .build(domain, values.clone())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            // Warm: every query reorganizes once, so the audited snapshot
            // carries a converged organization.
            for q in &queries {
                let _ = column.select_count(q, &mut NullTracker);
                let _ = strategy.select_count(q, &mut NullTracker);
            }
            let pieces: u64 = strategy.segment_bytes().iter().sum();
            let replicating = matches!(kind, StrategyKind::GdRepl | StrategyKind::ApmRepl);
            prop_assert!(
                pieces == strategy.storage_bytes()
                    || replicating && pieces < strategy.storage_bytes(),
                "{:?}: segment_bytes sum to {}, storage_bytes is {}",
                kind, pieces, strategy.storage_bytes()
            );
            column.quiesce();
            let snap = column.snapshot();
            for q in &queries {
                let mut hits: Vec<u32> =
                    values.iter().copied().filter(|v| q.contains(*v)).collect();
                hits.sort_unstable();
                prop_assert_eq!(
                    snap.select_count(q, &mut NullTracker),
                    hits.len() as u64,
                    "{:?} count diverged on {:?}", kind, q
                );
                prop_assert_eq!(
                    &snap.select_collect(q, &mut NullTracker), &hits,
                    "{:?} collect diverged on {:?}", kind, q
                );
                let naive_sum: f64 = hits.iter().map(|&v| f64::from(v)).sum();
                prop_assert_eq!(
                    snap.select_sum(q, &mut NullTracker).to_bits(),
                    naive_sum.to_bits(),
                    "{:?} sum diverged on {:?}", kind, q
                );
                let naive_mm = hits.first().copied().zip(hits.last().copied());
                prop_assert_eq!(
                    snap.select_min_max(q, &mut NullTracker), naive_mm,
                    "{:?} min/max diverged on {:?}", kind, q
                );
            }
        }
    }
}

const DOMAIN_HI: i64 = 999;
const ID_BASE: i64 = 10_000;

/// Oids a SQL result names, recovered from the projected id column.
fn result_oids(result: &Bat) -> Result<BTreeSet<u64>, TestCaseError> {
    let Tail::Int(ids) = result.tail() else {
        return Err(TestCaseError::fail("id projection must be an int tail"));
    };
    Ok(ids.iter().map(|id| (id - ID_BASE) as u64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The full MAL stack with pending deltas, for every kind: pruned
    /// segment reads must not leak into the delta algebra. Mirrors
    /// `sql_strategy_equivalence` and re-validates the column (synopsis
    /// consistency included) after the queries.
    #[test]
    fn sql_answers_with_pending_deltas_survive_pruning(
        base in vec(0i64..=DOMAIN_HI, 20..120),
        inserts in vec(0i64..=DOMAIN_HI, 0..5),
        updates in vec((0usize..10_000, 0i64..=DOMAIN_HI), 0..5),
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

        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(128, 512)
                .with_model_seed(seed);
            let mut catalog = Catalog::new();
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
                let oid = catalog.insert_row(
                    "sys", "T",
                    &[
                        ("v", Atom::Int(*v)),
                        ("id", Atom::Int(ID_BASE + base_len as i64 + i as i64)),
                    ],
                );
                prop_assert_eq!(oid, base_len + i as u64);
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
            for (a, b) in &raw_queries {
                let (lo, hi) = (*a.min(b), *a.max(b));
                let q = ValueRange::must(lo, hi);

                // Expected: naive base filter, minus re-valued and
                // deleted rows, plus qualifying updates and inserts.
                let mut expected: BTreeSet<u64> = base
                    .iter()
                    .enumerate()
                    .filter(|(i, v)| {
                        let oid = *i as u64;
                        q.contains(**v)
                            && !updated.contains_key(&oid)
                            && !deleted.contains(&oid)
                    })
                    .map(|(i, _)| i as u64)
                    .collect();
                for (&oid, &v) in &updated {
                    if q.contains(v) && !deleted.contains(&oid) {
                        expected.insert(oid);
                    }
                }
                for (i, v) in inserts.iter().enumerate() {
                    let oid = base_len + i as u64;
                    if q.contains(*v) && !deleted.contains(&oid) {
                        expected.insert(oid);
                    }
                }

                let (optimized, _) = optimizer.optimize(&plan, &catalog);
                let result = Interp::new(&mut catalog)
                    .run(&optimized, &[Atom::Int(lo), Atom::Int(hi)])
                    .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?
                    .ok_or_else(|| TestCaseError::fail("plan exported no result"))?;
                let got = result_oids(&result)?;
                prop_assert_eq!(
                    &got, &expected,
                    "{:?}: SQL with deltas diverged on [{}, {}]", kind, lo, hi
                );
            }
            catalog
                .segmented("sys.T.v")
                .expect("still registered")
                .validate()
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
        }
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
    let unpruned = tracker.totals().unpruned_read_bytes();
    assert!(unpruned > 0, "the walk must visit pieces");
    assert!(
        pruned * 3 <= unpruned,
        "pruned scans read {pruned} B, more than a third of the {unpruned} B unpruned cost"
    );
}
