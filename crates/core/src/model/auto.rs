//! Self-tuning APM (Section 8: "to achieve complete self-organization, the
//! APM segmentation model needs to automatically determine the values of
//! its controlling parameters").
//!
//! The observation behind the policy: APM behaves well when its band
//! brackets the workload's typical selection size — `Mmax` a small multiple
//! of it (so query-aligned segments are left in peace) and `Mmin` a
//! fraction of it (so complements are not fragmented into slivers). The
//! auto-tuned model keeps an exponentially weighted moving average of the
//! selection sizes it is asked about and re-derives the bounds from it
//! before every decision.

use super::apm::AdaptivePageModel;
use super::{SegmentationModel, SplitDecision, SplitGeometry, Technique};

/// An [`AdaptivePageModel`] whose `Mmin`/`Mmax` follow the workload.
///
/// `mmin = selection_ewma × lo_factor`, `mmax = selection_ewma × hi_factor`,
/// clamped below by `floor_bytes` (fragmentation guard when selections are
/// tiny).
#[derive(Debug, Clone)]
pub(crate) struct AutoTunedApm {
    lo_factor: f64,
    hi_factor: f64,
    alpha: f64,
    floor_bytes: u64,
    ewma_bytes: Option<f64>,
    decisions: u64,
}

impl AutoTunedApm {
    /// A tuner with the default shape: `Mmin = 0.3 ×`, `Mmax = 1.2 ×` the
    /// moving-average selection size, EWMA weight 0.2, 256-byte floor.
    ///
    /// With the Section 6.1 workload (40 KB selections) this converges to
    /// a 12 KB / 48 KB band — the same order as the paper's hand-picked
    /// 3 KB / 12 KB.
    pub(crate) fn new() -> Self {
        Self::with_parameters(0.3, 1.2, 0.2, 256)
    }

    /// Full control over the tuning shape.
    ///
    /// # Panics
    /// Panics unless `0 < lo_factor < hi_factor`, `0 < alpha <= 1` and
    /// `floor_bytes > 0`.
    pub(crate) fn with_parameters(
        lo_factor: f64,
        hi_factor: f64,
        alpha: f64,
        floor_bytes: u64,
    ) -> Self {
        assert!(
            lo_factor > 0.0 && lo_factor < hi_factor,
            "need 0 < lo_factor < hi_factor"
        );
        assert!(alpha > 0.0 && alpha <= 1.0, "need 0 < alpha <= 1");
        assert!(floor_bytes > 0, "need a positive floor");
        AutoTunedApm {
            lo_factor,
            hi_factor,
            alpha,
            floor_bytes,
            ewma_bytes: None,
            decisions: 0,
        }
    }

    /// The current `(Mmin, Mmax)` the tuner would hand to APM.
    pub(crate) fn current_bounds(&self) -> Option<(u64, u64)> {
        let ewma = self.ewma_bytes?;
        let mmin = ((ewma * self.lo_factor) as u64).max(self.floor_bytes);
        let mmax = ((ewma * self.hi_factor) as u64).max(mmin * 2);
        Some((mmin, mmax))
    }

    fn observe(&mut self, selected_bytes: u64) {
        let x = selected_bytes as f64;
        self.ewma_bytes = Some(match self.ewma_bytes {
            None => x,
            Some(e) => e + self.alpha * (x - e),
        });
    }
}

impl Default for AutoTunedApm {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentationModel for AutoTunedApm {
    fn name(&self) -> String {
        "APM auto".to_owned()
    }

    fn decide(&mut self, g: &SplitGeometry, technique: Technique) -> SplitDecision {
        self.decisions += 1;
        // A segment may only see part of the selection; observing the
        // per-segment selected size still tracks the workload's scale
        // because converged segments are query-aligned.
        self.observe(g.selected_bytes);
        let Some((mmin, mmax)) = self.current_bounds() else {
            return SplitDecision::None;
        };
        AdaptivePageModel::new(mmin, mmax).decide(g, technique)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(lower: Option<u64>, sel: u64, upper: Option<u64>, seg: u64) -> SplitGeometry {
        SplitGeometry {
            segment_bytes: seg,
            total_bytes: 400_000,
            lower_bytes: lower,
            selected_bytes: sel,
            upper_bytes: upper,
        }
    }

    #[test]
    #[should_panic(expected = "lo_factor")]
    fn rejects_inverted_factors() {
        let _ = AutoTunedApm::with_parameters(2.0, 1.0, 0.5, 1);
    }

    #[test]
    fn bounds_track_selection_sizes() {
        let mut m = AutoTunedApm::new();
        assert!(m.current_bounds().is_none());
        // Feed a steady 40 KB selection.
        for _ in 0..50 {
            m.decide(
                &geom(Some(100_000), 40_960, Some(100_000), 240_960),
                Technique::Segmentation,
            );
        }
        let (mmin, mmax) = m.current_bounds().expect("ewma seeded");
        assert!((10_000..16_000).contains(&mmin), "mmin {mmin}");
        assert!((45_000..55_000).contains(&mmax), "mmax {mmax}");
    }

    #[test]
    fn bounds_adapt_when_the_workload_changes() {
        let mut m = AutoTunedApm::new();
        for _ in 0..50 {
            m.decide(
                &geom(Some(10_000), 40_000, Some(10_000), 60_000),
                Technique::Segmentation,
            );
        }
        let (_, mmax_before) = m.current_bounds().unwrap();
        // Selectivity drops 10x.
        for _ in 0..50 {
            m.decide(
                &geom(Some(10_000), 4_000, Some(10_000), 24_000),
                Technique::Segmentation,
            );
        }
        let (_, mmax_after) = m.current_bounds().unwrap();
        assert!(
            mmax_after < mmax_before / 5,
            "band must shrink with the selections ({mmax_before} -> {mmax_after})"
        );
    }

    #[test]
    fn floor_prevents_degenerate_bands() {
        let mut m = AutoTunedApm::with_parameters(0.3, 1.2, 0.5, 1_024);
        for _ in 0..10 {
            m.decide(&geom(Some(50), 10, Some(50), 110), Technique::Segmentation);
        }
        let (mmin, mmax) = m.current_bounds().unwrap();
        assert!(mmin >= 1_024);
        assert!(mmax >= 2 * mmin);
    }

    #[test]
    fn behaves_like_hand_tuned_apm_once_converged() {
        // After convergence on identical 40KB selections the EWMA is
        // exactly 40960; a probe decision must equal a hand-set APM whose
        // bounds include the probe's own observation (the tuner observes
        // before deciding).
        let mut auto = AutoTunedApm::new();
        let train = geom(Some(100_000), 40_960, Some(100_000), 240_960);
        for _ in 0..100 {
            auto.decide(&train, Technique::Segmentation);
        }
        let ewma = 40_960.0f64;
        for sel in [1_000u64, 10_000, 40_960, 100_000] {
            for side in [500u64, 5_000, 50_000] {
                let g = geom(Some(side), sel, Some(side), side * 2 + sel);
                // Mirror the tuner's observe-then-decide bounds.
                let e2 = ewma + 0.2 * (sel as f64 - ewma);
                let mmin = ((e2 * 0.3) as u64).max(256);
                let mmax = ((e2 * 1.2) as u64).max(mmin * 2);
                let want = AdaptivePageModel::new(mmin, mmax).decide(&g, Technique::Replication);
                // A fresh clone per probe keeps the converged state intact.
                let got = auto.clone().decide(&g, Technique::Replication);
                assert_eq!(got, want, "sel={sel} side={side}");
            }
        }
    }
}
