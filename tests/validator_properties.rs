//! Corruption-injection properties over the structural validators
//! (`socdb::adaptive::validate`).
//!
//! For arbitrary valid structures the validators accept; for every
//! seeded corruption class — overlapping pieces, gapped/out-of-order
//! piece lists, truncated or length-drifted encoded payloads, zero-length
//! RLE runs, out-of-bounds dictionary codes, out-of-range raw values,
//! drifted or missing piece synopses, a delta run holding one value as
//! both insert and tombstone —
//! the matching validator must reject. This is the proptest counterpart
//! of the `debug_assert_valid!` boundary checks: a reorganization bug
//! that produces any of these shapes cannot pass silently.

use proptest::collection::vec;
use proptest::prelude::*;

use socdb::adaptive::validate;
use socdb::adaptive::{DeltaRun, EncodedPayload, PiecePayload, SegId, Violation};
use socdb::prelude::*;

const DOMAIN_HI: u32 = 9_999;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

/// Sorted, distinct interior cut points → an adjacent partition of the
/// domain into `cuts.len() + 1` pieces.
fn partition_from_cuts(cuts: &[u32]) -> Vec<ValueRange<u32>> {
    let mut cuts: Vec<u32> = cuts.iter().map(|c| c % DOMAIN_HI + 1).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut pieces = Vec::with_capacity(cuts.len() + 1);
    let mut lo = 0u32;
    for c in cuts {
        pieces.push(ValueRange::must(lo, c - 1));
        lo = c;
    }
    pieces.push(ValueRange::must(lo, DOMAIN_HI));
    pieces
}

fn arb_cuts() -> impl Strategy<Value = Vec<u32>> {
    vec(0..DOMAIN_HI, 0..12)
}

/// Bit-packs `codes` with `width` bits per field, non-straddling.
fn pack(codes: &[u64], width: u32) -> Vec<u64> {
    let fpw = (64 / width) as usize;
    let mut words = vec![0u64; codes.len().div_ceil(fpw)];
    for (i, c) in codes.iter().enumerate() {
        words[i / fpw] |= c << ((i % fpw) as u32 * width);
    }
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_partitions_are_accepted(cuts in arb_cuts()) {
        let pieces = partition_from_cuts(&cuts);
        prop_assert!(validate::ranges_partition(&domain(), &pieces).is_ok());
        prop_assert!(validate::ranges_disjoint_sorted(&pieces).is_ok());
    }

    #[test]
    fn overlapping_pieces_are_rejected(cuts in arb_cuts(), pick in any::<usize>()) {
        let mut pieces = partition_from_cuts(&cuts);
        prop_assume!(pieces.len() >= 2);
        // Stretch one piece over its successor's lo: an overlap.
        let i = pick % (pieces.len() - 1);
        pieces[i] = ValueRange::must(pieces[i].lo(), pieces[i + 1].lo());
        let err = validate::ranges_partition(&domain(), &pieces);
        prop_assert!(matches!(err, Err(Violation::Overlap { .. })), "{err:?}");
        prop_assert!(validate::ranges_disjoint_sorted(&pieces).is_err());
    }

    #[test]
    fn gapped_pieces_are_rejected(cuts in arb_cuts(), pick in any::<usize>()) {
        let mut pieces = partition_from_cuts(&cuts);
        prop_assume!(pieces.len() >= 3);
        // Drop an interior piece: a coverage gap.
        pieces.remove(1 + pick % (pieces.len() - 2));
        let err = validate::ranges_partition(&domain(), &pieces);
        prop_assert!(matches!(err, Err(Violation::Gap { .. })), "{err:?}");
    }

    #[test]
    fn out_of_order_pieces_are_rejected(cuts in arb_cuts(), pick in any::<usize>()) {
        let mut pieces = partition_from_cuts(&cuts);
        prop_assume!(pieces.len() >= 2);
        let i = pick % (pieces.len() - 1);
        pieces.swap(i, i + 1);
        prop_assert!(validate::ranges_disjoint_sorted(&pieces).is_err());
        prop_assert!(validate::ranges_partition(&domain(), &pieces).is_err());
    }

    #[test]
    fn for_payload_word_count_must_match_len(
        len in 1u64..500,
        width in 1u32..=63,
        base in 0u64..1_000_000,
    ) {
        let fpw = u64::from(64 / width);
        let words = vec![0u64; (len.div_ceil(fpw)) as usize];
        let ok = EncodedPayload::For { base, width, len, words: words.clone() };
        prop_assert!(validate::encoded_consistent(&ok).is_ok());

        // Truncated words: the drift the PR-6 bug class produces.
        let mut truncated = words.clone();
        truncated.pop();
        let bad = EncodedPayload::For { base, width, len, words: truncated };
        prop_assert!(matches!(validate::encoded_consistent(&bad), Err(Violation::Payload { .. })), "expected a Payload violation");

        // Length drift in the other direction: len claims more tuples
        // than the words can hold.
        let bad = EncodedPayload::For { base, width, len: len + 64, words };
        prop_assert!(matches!(validate::encoded_consistent(&bad), Err(Violation::Payload { .. })), "expected a Payload violation");
    }

    #[test]
    fn rle_zero_length_runs_are_rejected(
        runs in vec((0u64..1000, 1u32..200), 1..20),
        pick in any::<usize>(),
    ) {
        let ok = EncodedPayload::Rle { runs: runs.clone() };
        prop_assert!(validate::encoded_consistent(&ok).is_ok());

        let mut bad_runs = runs.clone();
        let i = pick % bad_runs.len();
        bad_runs[i].1 = 0;
        let bad = EncodedPayload::Rle { runs: bad_runs };
        prop_assert!(matches!(validate::encoded_consistent(&bad), Err(Violation::Payload { .. })), "expected a Payload violation");
    }

    #[test]
    fn dict_codes_must_index_the_table(
        table_len in 2usize..64,
        len in 1usize..300,
        pick in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let table: Vec<u64> = (0..table_len as u64).map(|k| k * 7 + 1).collect();
        let width = (usize::BITS - (table_len - 1).leading_zeros()).max(1);
        let codes: Vec<u64> = (0..len)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 7) % table_len as u64)
            .collect();
        let ok = EncodedPayload::Dict {
            table: table.clone(),
            width,
            len: len as u64,
            words: pack(&codes, width),
        };
        prop_assert!(validate::encoded_consistent(&ok).is_ok());

        // One code past the end of the table: the decoder would index
        // out of bounds, so the validator must catch it first.
        prop_assume!(table_len < (1usize << width));
        let mut bad_codes = codes;
        bad_codes[pick % len] = table_len as u64;
        let bad = EncodedPayload::Dict {
            table,
            width,
            len: len as u64,
            words: pack(&bad_codes, width),
        };
        prop_assert!(matches!(validate::encoded_consistent(&bad), Err(Violation::Payload { .. })), "expected a Payload violation");
    }

    #[test]
    fn raw_values_outside_the_piece_range_are_rejected(
        lo in 0u32..5000,
        span in 10u32..1000,
        stray in any::<usize>(),
    ) {
        let range = ValueRange::must(lo, lo + span);
        let mut values: Vec<u32> = (0..20).map(|i| lo + (i * 37) % span).collect();
        let good = PiecePayload::Raw(values.clone());
        prop_assert!(validate::payload(&range, &good).is_ok());

        values[stray % 20] = lo + span + 1;
        let bad = PiecePayload::Raw(values);
        prop_assert!(matches!(validate::payload(&range, &bad), Err(Violation::OutOfRange { .. })), "expected an OutOfRange violation");
    }

    #[test]
    fn synopsis_drift_is_rejected(
        values in vec(0u32..=DOMAIN_HI, 1..300),
        bump in 1u32..50,
        class in 0usize..5,
    ) {
        let good = PieceSynopsis::from_values(&values).expect("non-empty");
        prop_assert!(validate::synopsis_consistent(Some(&good), &values).is_ok());

        // One corruption per class: every synopsis axis is exact (the
        // sum up to a relative epsilon far below an off-by-one), so any
        // injected drift must be caught.
        let bad = match class {
            0 => PieceSynopsis::new(good.min() + bump, good.max(), good.count(), good.sum()),
            1 => PieceSynopsis::new(good.min(), good.max() + bump, good.count(), good.sum()),
            2 => PieceSynopsis::new(
                good.min(),
                good.max(),
                good.count() + u64::from(bump),
                good.sum(),
            ),
            3 => PieceSynopsis::new(
                good.min(),
                good.max(),
                good.count(),
                good.sum() + f64::from(bump),
            ),
            _ => {
                // A piece holding data with no synopsis at all.
                let err = validate::synopsis_consistent(None, &values);
                prop_assert!(matches!(err, Err(Violation::Synopsis { .. })), "{err:?}");
                return Ok(());
            }
        };
        let err = validate::synopsis_consistent(Some(&bad), &values);
        prop_assert!(matches!(err, Err(Violation::Synopsis { .. })), "{err:?}");
    }

    #[test]
    fn a_delta_run_with_a_value_on_both_sides_is_rejected(
        inserts in vec(0..=DOMAIN_HI, 1..100),
        tombstones in vec(0..=DOMAIN_HI, 0..100),
        pick in any::<usize>(),
    ) {
        // What cancellation leaves: no tombstone equals an insert.
        let mut tombstones = tombstones;
        tombstones.retain(|t| !inserts.contains(t));
        let good = DeltaRun::from_parts(SegId(0), inserts.clone(), tombstones.clone());
        prop_assert!(good.validate().is_ok());

        tombstones.push(inserts[pick % inserts.len()]);
        let err = DeltaRun::from_parts(SegId(0), inserts, tombstones).validate();
        prop_assert!(matches!(err, Err(Violation::Payload { .. })), "{err:?}");
    }

    #[test]
    fn strategies_stay_structurally_valid_under_workload(
        values in vec(0..=DOMAIN_HI, 1..400),
        queries in vec((0..=DOMAIN_HI, 0..=DOMAIN_HI), 1..25),
        kind_index in 0usize..5,
    ) {
        const KINDS: [StrategyKind; 5] = [
            StrategyKind::ApmSegm,
            StrategyKind::GdSegm,
            StrategyKind::ApmRepl,
            StrategyKind::Cracking,
            StrategyKind::FullSort,
        ];
        let mut strategy = StrategySpec::new(KINDS[kind_index])
            .with_model_seed(11)
            .build(domain(), values)
            .expect("values in domain");
        let mut tracker = CountingTracker::new();
        for (a, b) in queries {
            let q = ValueRange::must(a.min(b), a.max(b));
            strategy.select_count(&q, &mut tracker);
        }
        prop_assert!(validate::strategy_pieces(strategy.as_ref()).is_ok());
    }

    #[test]
    fn epoch_snapshots_stay_valid_under_workload(
        values in vec(0..=DOMAIN_HI, 1..400),
        queries in vec((0..=DOMAIN_HI, 0..=DOMAIN_HI), 1..15),
    ) {
        let spec = StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 2048);
        let concurrent = ConcurrentColumn::from_spec(&spec, domain(), values)
            .expect("values in domain");
        let mut tracker = CountingTracker::new();
        for (a, b) in queries {
            let q = ValueRange::must(a.min(b), a.max(b));
            concurrent.select_count(&q, &mut tracker);
        }
        concurrent.quiesce();
        prop_assert!(concurrent.snapshot().validate().is_ok());
    }
}
