//! Property tests for the compression layer: whatever a strategy stores —
//! raw slices, one fixed codec, or the adaptive mix the encoding policy
//! settles on per segment — every query answer must equal the raw
//! baseline's. Counts compare exactly; collects compare as canonical
//! (sorted) sequences, since piece order is a layout detail.

use proptest::prelude::*;

use soc_core::{
    EncodingMode, EncodingPolicy, NullTracker, SegmentEncoding, StrategyKind, StrategySpec,
    ValueRange,
};

const DOMAIN_HI: u32 = 9_999;

/// Value distributions that exercise every codec: dense duplicates (RLE),
/// narrow bands (FOR), low cardinality (dictionary), and plain uniform
/// noise (incompressible — packing must decline gracefully).
fn arb_values() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        // Run-heavy: long stretches of one value.
        proptest::collection::vec(0u32..=DOMAIN_HI / 100, 50..400).prop_map(|seeds| {
            seeds
                .into_iter()
                .flat_map(|s| std::iter::repeat_n(s * 100, 8))
                .collect()
        }),
        // Narrow band: all values inside a small window.
        (
            0u32..=DOMAIN_HI - 500,
            proptest::collection::vec(0u32..=500, 300..2_000)
        )
            .prop_map(|(base, offs)| offs.into_iter().map(|o| base + o).collect()),
        // Low cardinality: at most 16 distinct values.
        proptest::collection::vec(0u32..16, 300..2_000)
            .prop_map(|codes| codes.into_iter().map(|c| c * 617).collect()),
        // Uniform noise.
        proptest::collection::vec(0u32..=DOMAIN_HI, 300..2_000),
    ]
}

fn arb_queries() -> impl Strategy<Value = Vec<ValueRange<u32>>> {
    proptest::collection::vec((0u32..=DOMAIN_HI, 0u32..3_000), 4..16).prop_map(|qs| {
        qs.into_iter()
            .map(|(lo, w)| ValueRange::must(lo, lo.saturating_add(w).min(DOMAIN_HI)))
            .collect()
    })
}

fn modes() -> [EncodingMode; 4] {
    [
        EncodingMode::Fixed(SegmentEncoding::Rle),
        EncodingMode::Fixed(SegmentEncoding::For),
        EncodingMode::Fixed(SegmentEncoding::Dict),
        // Eager threshold so hot/cold diverge within a short query run,
        // leaving a genuine per-segment mix of raw and packed pieces.
        EncodingMode::Adaptive(EncodingPolicy::eager(2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counts and canonical collect sequences are encoding-invariant for
    /// every strategy kind, under every fixed codec and the adaptive mix.
    #[test]
    fn compressed_answers_equal_raw(values in arb_values(), queries in arb_queries()) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        for kind in StrategyKind::ALL {
            let build = |mode: EncodingMode| {
                StrategySpec::new(kind)
                    .with_apm_bounds(256, 1024)
                    .with_model_seed(5)
                    .with_encoding(mode)
                    .build(domain, values.clone())
                    .expect("values lie in domain")
            };
            let mut raw = build(EncodingMode::Raw);
            let mut packed: Vec<_> = modes().iter().map(|m| build(*m)).collect();
            for q in &queries {
                let expect = raw.select_count(q, &mut NullTracker);
                let mut rows = raw.peek_collect(q);
                rows.sort_unstable();
                for (m, s) in modes().iter().zip(packed.iter_mut()) {
                    prop_assert_eq!(
                        s.select_count(q, &mut NullTracker),
                        expect,
                        "{:?} under {:?} count diverged on {:?}", kind, m, q
                    );
                    let mut got = s.peek_collect(q);
                    got.sort_unstable();
                    prop_assert_eq!(
                        &got,
                        &rows,
                        "{:?} under {:?} collect diverged on {:?}", kind, m, q
                    );
                }
            }
            // The per-piece footprints are the stored bytes, not a
            // recomputation from tuple counts: they add up to the column's
            // footprint (the covering set of a replica tree to at most it).
            let replicating = matches!(kind, StrategyKind::GdRepl | StrategyKind::ApmRepl);
            for s in std::iter::once(&raw).chain(&packed) {
                let pieces: u64 = s.segment_bytes().iter().sum();
                prop_assert!(
                    pieces == s.storage_bytes() || replicating && pieces < s.storage_bytes(),
                    "{} segment_bytes sum to {}, storage_bytes is {}",
                    s.name(), pieces, s.storage_bytes()
                );
            }
            // Footprint sanity after the run: the adaptive policy only
            // packs when the codec beats raw, so its footprint never
            // exceeds the raw baseline's. (A *forced* codec may inflate —
            // RLE on uniform noise costs 12 bytes per run — which is
            // exactly why the adaptive mode exists.)
            let adaptive = packed.last().expect("adaptive is the last mode");
            prop_assert!(
                adaptive.storage_bytes() <= raw.storage_bytes(),
                "{:?} adaptive footprint above raw", kind
            );
        }
    }

    /// The read-only peek path answers identically over packed payloads
    /// (and, being `&self`, must not disturb the heat state it dispatches
    /// around).
    #[test]
    fn peek_collect_is_encoding_invariant(values in arb_values(), queries in arb_queries()) {
        let domain = ValueRange::must(0u32, DOMAIN_HI);
        for kind in StrategyKind::ALL {
            let build = |mode: EncodingMode| {
                StrategySpec::new(kind)
                    .with_apm_bounds(256, 1024)
                    .with_encoding(mode)
                    .build(domain, values.clone())
                    .expect("values lie in domain")
            };
            let raw = build(EncodingMode::Raw);
            let packed: Vec<_> = modes().iter().map(|m| build(*m)).collect();
            for q in &queries {
                let mut expect = raw.peek_collect(q);
                expect.sort_unstable();
                for (m, s) in modes().iter().zip(packed.iter()) {
                    let mut got = s.peek_collect(q);
                    got.sort_unstable();
                    prop_assert_eq!(
                        &got,
                        &expect,
                        "{:?} under {:?} peek diverged on {:?}", kind, m, q
                    );
                }
            }
        }
    }
}
