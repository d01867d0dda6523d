//! Property: a SQL range selection executed through the whole MAL stack —
//! compile, segment-optimize, interpret, with pending deltas merged at
//! query time — returns exactly what direct [`ColumnStrategy`] execution
//! over the same spec returns, for **every one of the nine strategy
//! kinds** (the PR-3 acceptance criterion).
//!
//! The SQL path and the direct path self-organize independently (each
//! runs its own adaptation), which is the point: physical reorganization
//! of any flavor must be invisible in the answers.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::bat::{Atom, Bat, Tail};
use socdb::mal::{compile_select, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::*;

const DOMAIN_HI: i64 = 999;
const ID_BASE: i64 = 10_000;

fn arb_base() -> impl Strategy<Value = Vec<i64>> {
    vec(0..=DOMAIN_HI, 20..250)
}

fn arb_inserts() -> impl Strategy<Value = Vec<i64>> {
    vec(0..=DOMAIN_HI, 0..8)
}

/// `(base-row slot, new value)` updates; slots index into the base rows.
fn arb_updates() -> impl Strategy<Value = Vec<(usize, i64)>> {
    vec((0usize..10_000, 0..=DOMAIN_HI), 0..8)
}

/// Row slots to delete, indexing into base + inserted rows.
fn arb_deletes() -> impl Strategy<Value = Vec<usize>> {
    vec(0usize..10_000, 0..6)
}

fn arb_queries() -> impl Strategy<Value = Vec<(i64, i64)>> {
    vec((0..=DOMAIN_HI, 0..=DOMAIN_HI), 1..10)
}

/// Oids a SQL result names, recovered from the projected id column.
fn result_oids(result: &Bat) -> Result<BTreeSet<u64>, TestCaseError> {
    let Tail::Int(ids) = result.tail() else {
        return Err(TestCaseError::fail("id projection must be an int tail"));
    };
    Ok(ids.iter().map(|id| (id - ID_BASE) as u64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sql_equals_direct_strategy_execution_for_all_kinds(
        base in arb_base(),
        inserts in arb_inserts(),
        updates in arb_updates(),
        deletes in arb_deletes(),
        queries in arb_queries(),
        seed in any::<u64>(),
    ) {
        let base_len = base.len() as u64;
        let domain = ValueRange::must(0i64, DOMAIN_HI);

        // Resolve the generated slots against actual row counts, keeping
        // one update per oid (the Figure 1 delta algebra replaces a row's
        // value wholesale; stacking updates on one oid is out of scope).
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

            // The SQL side: a catalog column under this spec, plus the
            // pending deltas.
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
                    &[("v", Atom::Int(*v)), ("id", Atom::Int(ID_BASE + base_len as i64 + i as i64))],
                );
                prop_assert_eq!(oid, base_len + i as u64);
            }
            for (&oid, &v) in &updated {
                catalog.update_value("sys", "T", "v", oid, Atom::Int(v));
            }
            for &oid in &deleted {
                catalog.delete_row("sys", "T", oid);
            }

            // The direct side: the same spec over the same (oid, value)
            // rows, driven through the ColumnStrategy trait.
            let mut direct = spec
                .build_paired(domain, base.iter().copied().enumerate()
                    .map(|(i, v)| (i as u64, v)).collect())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;

            let plan = compile_select("SELECT id FROM sys.T WHERE v BETWEEN ? AND ?")
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let optimizer = SegmentOptimizer::new();

            for (a, b) in &queries {
                let (lo, hi) = (*a.min(b), *a.max(b));
                let q = ValueRange::must(lo, hi);

                // Direct ColumnStrategy execution over the base rows: the
                // reorganizing count, then a peek of what it left behind.
                let n = direct.select_count(&q.paired(), &mut NullTracker);
                let rows = direct.peek_collect(&q.paired());
                prop_assert_eq!(n, rows.len() as u64, "{:?}: count and peek disagree", kind);
                let direct_oids: BTreeSet<u64> = rows
                    .into_iter()
                    .map(|p| p.oid)
                    .collect();
                // Ground truth for the base portion.
                let naive: BTreeSet<u64> = base.iter().enumerate()
                    .filter(|(_, v)| q.contains(**v))
                    .map(|(i, _)| i as u64)
                    .collect();
                prop_assert_eq!(
                    &direct_oids, &naive,
                    "{:?}: direct execution diverged from the naive filter", kind
                );

                // What SQL must return: direct base answer, minus rows the
                // deltas removed or re-valued, plus qualifying updates and
                // inserts.
                let mut expected: BTreeSet<u64> = direct_oids
                    .iter()
                    .copied()
                    .filter(|oid| !updated.contains_key(oid) && !deleted.contains(oid))
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

                // The SQL path: optimize against the live catalog state
                // (pieces move between queries), then interpret.
                let (optimized, _) = optimizer.optimize(&plan, &catalog);
                let result = Interp::new(&mut catalog)
                    .run(&optimized, &[Atom::Int(lo), Atom::Int(hi)])
                    .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?
                    .ok_or_else(|| TestCaseError::fail("plan exported no result"))?;
                let got = result_oids(&result)?;
                prop_assert_eq!(
                    &got, &expected,
                    "{:?}: SQL result diverged on [{}, {}]", kind, lo, hi
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
