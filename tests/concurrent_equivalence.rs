//! Property: N concurrent readers interleaved with reorganizing writes on
//! a [`ConcurrentColumn`] return **exactly** the results of the serial
//! `&mut` execution — for every one of the nine strategy kinds, and for a
//! whole sharded column (placement-routed, its node strategies run inline
//! by the epoch writer) wrapped in the epoch layer (the PR-5 acceptance
//! criterion).
//!
//! Counts are compared bit-identically: they depend only on the logical
//! content, which reorganization never touches. Collects are compared in
//! the canonical ascending order (`ConcurrentColumn` normalizes; the
//! serial result is sorted for the comparison) — physical order is an
//! epoch-dependent artifact, the value multiset is not.

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::prelude::*;

const DOMAIN_HI: u32 = 49_999;
const READERS: usize = 3;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

fn arb_values() -> impl Strategy<Value = Vec<u32>> {
    vec(0..=DOMAIN_HI, 500..3_000)
}

fn arb_queries() -> impl Strategy<Value = Vec<(u32, u32)>> {
    vec((0..=DOMAIN_HI, 1..=DOMAIN_HI), 8..30)
}

fn ranges(raw: &[(u32, u32)]) -> Vec<ValueRange<u32>> {
    raw.iter()
        .map(|(a, w)| {
            let lo = *a.min(&(DOMAIN_HI - 1));
            ValueRange::must(lo, (lo + w).min(DOMAIN_HI).max(lo))
        })
        .collect()
}

/// Serial reference: the `&mut` path, queries in order, reorganization
/// inline — counts and (sorted) collects per query.
fn serial_reference(
    strategy: &mut dyn ColumnStrategy<u32>,
    queries: &[ValueRange<u32>],
) -> (Vec<u64>, Vec<Vec<u32>>) {
    let mut counts = Vec::with_capacity(queries.len());
    let mut collects = Vec::with_capacity(queries.len());
    for q in queries {
        counts.push(strategy.select_count(q, &mut NullTracker));
        let mut vals = strategy.select_collect(q, &mut NullTracker);
        vals.sort_unstable();
        collects.push(vals);
    }
    (counts, collects)
}

/// Readers race the writer: every reader runs the whole query sequence
/// (each read also enqueues its reorganization), so the writer is folding
/// splits/cracks/replications *while* other readers are mid-scan.
fn assert_concurrent_matches_serial(
    concurrent: &ConcurrentColumn<u32>,
    queries: &[ValueRange<u32>],
    counts: &[u64],
    collects: &[Vec<u32>],
    label: &str,
) {
    std::thread::scope(|s| {
        for reader in 0..READERS {
            s.spawn(move || {
                for (i, q) in queries.iter().enumerate() {
                    assert_eq!(
                        concurrent.select_count(q, &mut NullTracker),
                        counts[i],
                        "{label}: reader {reader} count diverged on query #{i} {q:?}"
                    );
                    assert_eq!(
                        concurrent.select_collect(q, &mut NullTracker),
                        collects[i],
                        "{label}: reader {reader} collect diverged on query #{i} {q:?}"
                    );
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All nine strategy kinds behind the epoch layer.
    #[test]
    fn concurrent_readers_equal_serial_for_all_kinds(
        values in arb_values(),
        raw_queries in arb_queries(),
        seed in any::<u64>(),
    ) {
        let queries = ranges(&raw_queries);
        for kind in StrategyKind::ALL {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(seed);
            let mut serial = spec
                .build(domain(), values.clone())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            let (counts, collects) = serial_reference(serial.as_mut(), &queries);

            let concurrent = ConcurrentColumn::from_spec(&spec, domain(), values.clone())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}: {e}")))?;
            assert_concurrent_matches_serial(
                &concurrent, &queries, &counts, &collects, &format!("{kind:?}"));

            // After the writer drains, the folded strategy answers the
            // whole-domain query with every row — nothing lost or
            // duplicated by any interleaving.
            concurrent.quiesce();
            let snap = concurrent.snapshot();
            snap.validate().map_err(TestCaseError::fail)?;
            prop_assert_eq!(snap.total_rows(), values.len() as u64, "{:?}", kind);
            prop_assert_eq!(snap.failed_migrations(), 0, "{:?}", kind);
        }
    }

    /// The epoch layer composes with sharded placement: a ShardedColumn
    /// (one self-organizing strategy per node) is itself a ColumnStrategy,
    /// so readers race the epoch writer, which routes each reorganization
    /// to the nodes and runs it there inline.
    #[test]
    fn concurrent_readers_equal_serial_over_sharded_placement(
        values in arb_values(),
        raw_queries in arb_queries(),
        seed in any::<u64>(),
    ) {
        let queries = ranges(&raw_queries);
        for (kind, policy, nodes) in [
            (StrategyKind::ApmSegm, PlacementPolicy::RangeContiguous, 4),
            (StrategyKind::Cracking, PlacementPolicy::RoundRobin, 3),
            (StrategyKind::GdRepl, PlacementPolicy::SizeBalanced, 5),
        ] {
            let spec = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(seed);
            let mut serial = ShardedColumn::new(
                spec, policy, nodes, domain(), values.clone())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}/{policy:?}: {e}")))?;
            let (counts, collects) = serial_reference(&mut serial, &queries);

            let sharded = ShardedColumn::new(spec, policy, nodes, domain(), values.clone())
                .map_err(|e| TestCaseError::fail(format!("{kind:?}/{policy:?}: {e}")))?;
            let concurrent = ConcurrentColumn::new(Box::new(sharded), domain());
            assert_concurrent_matches_serial(
                &concurrent, &queries, &counts, &collects,
                &format!("{kind:?}/{policy:?}/{nodes} nodes"));

            concurrent.quiesce();
            let snap = concurrent.snapshot();
            snap.validate().map_err(TestCaseError::fail)?;
            prop_assert_eq!(snap.total_rows(), values.len() as u64);
        }
    }
}
