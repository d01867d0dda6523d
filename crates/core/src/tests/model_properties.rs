//! Property tests for the segmentation models' decision invariants.

use proptest::prelude::*;

use crate::model::{AutoTunedApm, SplitDecision, WhichBound};
use crate::{AdaptivePageModel, GaussianDice, SegmentationModel, SplitGeometry, Technique};

/// Arbitrary self-consistent geometry: pieces sum to the segment, segment
/// is at most the column.
fn arb_geometry() -> impl Strategy<Value = SplitGeometry> {
    (
        proptest::option::of(0u64..100_000),
        0u64..100_000,
        proptest::option::of(0u64..100_000),
        0u64..400_000,
    )
        .prop_map(|(lower, selected, upper, extra_total)| {
            let segment_bytes = lower.unwrap_or(0) + selected + upper.unwrap_or(0);
            SplitGeometry {
                segment_bytes,
                total_bytes: segment_bytes + extra_total,
                lower_bytes: lower,
                selected_bytes: selected,
                upper_bytes: upper,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// APM rule 1: segments below Mmin are never split, by either technique.
    #[test]
    fn apm_never_splits_below_mmin(
        (mmin, factor) in (3u64..50_000, 2u64..10),
        fractions in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        sides in (any::<bool>(), any::<bool>()),
    ) {
        // Build a geometry strictly smaller than mmin.
        let scale = (mmin - 1) as f64 / 3.0;
        let lower = sides.0.then_some((fractions.0 * scale) as u64);
        let selected = (fractions.1 * scale) as u64;
        let upper = sides.1.then_some((fractions.2 * scale) as u64);
        let segment_bytes = lower.unwrap_or(0) + selected + upper.unwrap_or(0);
        prop_assert!(segment_bytes < mmin);
        let g = SplitGeometry {
            segment_bytes,
            total_bytes: segment_bytes + 100_000,
            lower_bytes: lower,
            selected_bytes: selected,
            upper_bytes: upper,
        };
        let mut m = AdaptivePageModel::new(mmin, mmin * factor);
        prop_assert_eq!(m.decide(&g, Technique::Segmentation), SplitDecision::None);
        prop_assert_eq!(m.decide(&g, Technique::Replication), SplitDecision::None);
    }

    /// No model ever splits a fully covered segment.
    #[test]
    fn no_model_splits_full_covers(
        selected in 0u64..300_000,
        extra_total in 0u64..400_000,
        seed in any::<u64>(),
    ) {
        let g = SplitGeometry {
            segment_bytes: selected,
            total_bytes: selected + extra_total,
            lower_bytes: None,
            selected_bytes: selected,
            upper_bytes: None,
        };
        prop_assert!(g.full_cover());
        let mut apm = AdaptivePageModel::new(1024, 4096);
        let mut gd = GaussianDice::new(seed);
        let mut auto = AutoTunedApm::new();
        for t in [Technique::Segmentation, Technique::Replication] {
            prop_assert_eq!(apm.decide(&g, t), SplitDecision::None);
            prop_assert_eq!(gd.decide(&g, t), SplitDecision::None);
            prop_assert_eq!(auto.decide(&g, t), SplitDecision::None);
        }
    }

    /// APM's decision never names a bound that is not inside the segment.
    #[test]
    fn apm_single_bound_decisions_are_realizable(
        g in arb_geometry(),
        (mmin, factor) in (1u64..50_000, 2u64..10),
    ) {
        let mut m = AdaptivePageModel::new(mmin, mmin * factor);
        for t in [Technique::Segmentation, Technique::Replication] {
            match m.decide(&g, t) {
                SplitDecision::SingleBound(WhichBound::Lower) => {
                    prop_assert!(g.lower_bytes.is_some(), "{t:?}: ql is not inside");
                }
                SplitDecision::SingleBound(WhichBound::Upper) => {
                    prop_assert!(g.upper_bytes.is_some(), "{t:?}: qh is not inside");
                }
                SplitDecision::QueryBounds => {
                    prop_assert!(g.bounds_inside() > 0);
                }
                SplitDecision::None | SplitDecision::Mean => {}
            }
        }
    }

    /// APM rule 2 exactly: when every produced piece is >= Mmin (and the
    /// segment is not fully covered and not tiny), the decision is
    /// QueryBounds.
    #[test]
    fn apm_rule2_is_deterministic(
        g in arb_geometry(),
        (mmin, factor) in (1u64..50_000, 2u64..10),
    ) {
        prop_assume!(g.segment_bytes >= mmin);
        prop_assume!(!g.full_cover());
        let ok = g.lower_bytes.is_none_or(|b| b >= mmin)
            && g.selected_bytes >= mmin
            && g.upper_bytes.is_none_or(|b| b >= mmin);
        prop_assume!(ok);
        let mut m = AdaptivePageModel::new(mmin, mmin * factor);
        prop_assert_eq!(m.decide(&g, Technique::Segmentation), SplitDecision::QueryBounds);
        prop_assert_eq!(m.decide(&g, Technique::Replication), SplitDecision::QueryBounds);
    }

    /// APM rule 3 gate: small pieces only reorganize oversized segments —
    /// a segment inside the [Mmin, Mmax] band with a small selected piece
    /// stays intact (the band is absorbing).
    #[test]
    fn apm_rule3_respects_mmax_gate(
        (mmin, factor) in (8u64..50_000, 2u64..10),
        band_frac in 0.0f64..=1.0,
        small_frac in 0.0f64..1.0,
    ) {
        let mmax = mmin * factor;
        // Segment size inside [mmin, mmax]; the selected piece is small.
        let segment_bytes = mmin + ((mmax - mmin) as f64 * band_frac) as u64;
        let selected = ((mmin - 1) as f64 * small_frac) as u64;
        let rest = segment_bytes - selected;
        let g = SplitGeometry {
            segment_bytes,
            total_bytes: segment_bytes + 100_000,
            lower_bytes: Some(rest / 2),
            selected_bytes: selected,
            upper_bytes: Some(rest - rest / 2),
        };
        let mut m = AdaptivePageModel::new(mmin, mmax);
        prop_assert_eq!(m.decide(&g, Technique::Segmentation), SplitDecision::None);
        prop_assert_eq!(m.decide(&g, Technique::Replication), SplitDecision::None);
    }

    /// GD only ever answers None or QueryBounds — it has no coarse-split
    /// arm (those belong to APM's rule 3).
    #[test]
    fn gd_decisions_are_binary(g in arb_geometry(), seed in any::<u64>()) {
        let mut gd = GaussianDice::new(seed);
        for t in [Technique::Segmentation, Technique::Replication] {
            let d = gd.decide(&g, t);
            prop_assert!(
                matches!(d, SplitDecision::None | SplitDecision::QueryBounds),
                "GD produced {d:?}"
            );
        }
    }

    /// GD's decision probability is a proper probability and peaks at the
    /// balanced split.
    #[test]
    fn gd_probability_is_bounded_and_peaked(x in 0.0f64..1.0, sigma in 0.001f64..2.0) {
        let p = GaussianDice::decision_probability(x, sigma);
        prop_assert!((0.0..=1.0).contains(&p));
        let peak = GaussianDice::decision_probability(0.5, sigma);
        prop_assert!(p <= peak + 1e-12);
    }

    /// The auto-tuned model's derived band always satisfies APM's
    /// precondition Mmin < Mmax.
    #[test]
    fn auto_apm_bounds_always_valid(sels in proptest::collection::vec(0u64..10_000_000, 1..50)) {
        let mut m = AutoTunedApm::new();
        for s in sels {
            let g = SplitGeometry {
                segment_bytes: s + 10,
                total_bytes: s + 10,
                lower_bytes: Some(5),
                selected_bytes: s,
                upper_bytes: Some(5),
            };
            let _ = m.decide(&g, Technique::Segmentation);
            if let Some((mmin, mmax)) = m.current_bounds() {
                prop_assert!(mmin > 0 && mmin < mmax);
            }
        }
    }
}
