//! The Adaptive Page Model (Section 3.2.2).
//!
//! A deterministic policy bracketed by two bounds: `Mmin` guards against
//! fragmentation into tiny pieces, `Mmax` caps how many extra bytes the
//! system is willing to read for point queries. Segment sizes touched by
//! queries converge to the band `Mmin <= SizeS <= Mmax`.

use super::{SegmentationModel, SplitDecision, SplitGeometry, Technique, WhichBound};

/// The deterministic Adaptive Page Model split policy.
///
/// Decision rules for a segment `S` carved by a selection:
///
/// 1. `SizeS < Mmin` — leave intact.
/// 2. otherwise, if every piece the selection would produce is at least
///    `Mmin` — split at the query bounds.
/// 3. otherwise (some piece would be small), reorganize only if
///    `SizeS > Mmax`, choosing a coarser split point:
///    * *adaptive segmentation*: a query bound whose two-way split leaves no
///      small piece, or failing that an approximation of the segment mean;
///    * *adaptive replication* (Algorithm 4, case 4): the query bound whose
///      materialized side is the smallest super-set of the selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePageModel {
    mmin: u64,
    mmax: u64,
}

impl AdaptivePageModel {
    /// Creates an APM with bounds in bytes.
    ///
    /// # Panics
    /// Panics unless `0 < mmin < mmax`, the paper's stated precondition.
    pub fn new(mmin_bytes: u64, mmax_bytes: u64) -> Self {
        assert!(
            mmin_bytes > 0 && mmin_bytes < mmax_bytes,
            "APM requires 0 < Mmin < Mmax (got Mmin={mmin_bytes}, Mmax={mmax_bytes})"
        );
        AdaptivePageModel {
            mmin: mmin_bytes,
            mmax: mmax_bytes,
        }
    }

    /// The Section 6.1 simulation configuration: `Mmin = 3 KB`, `Mmax = 12 KB`.
    pub fn simulation_default() -> Self {
        Self::new(3 * 1024, 12 * 1024)
    }

    fn small(&self, bytes: u64) -> bool {
        bytes < self.mmin
    }

    /// Rule 3 for adaptive segmentation: prefer a single query bound whose
    /// two-way split leaves both sides at least `Mmin`; break ties toward
    /// the more balanced split; fall back to the segment mean.
    fn constrained_segmentation(&self, g: &SplitGeometry) -> SplitDecision {
        let mut best: Option<(WhichBound, u64)> = None;
        let mut consider = |bound: WhichBound, side_a: u64, side_b: u64| {
            if side_a >= self.mmin && side_b >= self.mmin {
                let balance = side_a.min(side_b);
                if best.is_none_or(|(_, b)| balance > b) {
                    best = Some((bound, balance));
                }
            }
        };
        if let Some(lower) = g.lower_bytes {
            // Split at ql: [lo, ql-1] vs [ql, hi].
            let rest = g.selected_bytes + g.upper_bytes.unwrap_or(0);
            consider(WhichBound::Lower, lower, rest);
        }
        if let Some(upper) = g.upper_bytes {
            // Split at qh: [lo, qh] vs [qh+1, hi].
            let rest = g.lower_bytes.unwrap_or(0) + g.selected_bytes;
            consider(WhichBound::Upper, rest, upper);
        }
        match best {
            Some((bound, _)) => SplitDecision::SingleBound(bound),
            None => SplitDecision::Mean,
        }
    }

    /// Rule 3 for adaptive replication (Algorithm 4, case 4): materialize
    /// the smallest super-set of the selection, i.e. split at the bound
    /// whose selection-side piece is smaller.
    fn constrained_replication(&self, g: &SplitGeometry) -> SplitDecision {
        match (g.lower_bytes, g.upper_bytes) {
            (Some(lower), Some(upper)) => {
                // `[lo, qh]` weighs lower+selected; `[ql, hi]` weighs selected+upper.
                // (The comparison `qh - s.low < s.hgh - ql` of Algorithm 4.)
                let low_side = lower + g.selected_bytes;
                let high_side = g.selected_bytes + upper;
                if low_side < high_side {
                    SplitDecision::SingleBound(WhichBound::Upper)
                } else {
                    SplitDecision::SingleBound(WhichBound::Lower)
                }
            }
            // Only one bound inside: the split point is forced. The
            // materialized side is exactly the selection's overlap with the
            // segment; the small piece stays virtual and costs nothing.
            (Some(_), None) => SplitDecision::SingleBound(WhichBound::Lower),
            (None, Some(_)) => SplitDecision::SingleBound(WhichBound::Upper),
            (None, None) => SplitDecision::None,
        }
    }
}

impl SegmentationModel for AdaptivePageModel {
    fn name(&self) -> String {
        // Bounds are reported in the unit that reads best (KB below 1 MB).
        const MB: u64 = 1024 * 1024;
        if self.mmin >= MB {
            format!("APM {}-{}", self.mmin / MB, self.mmax / MB)
        } else {
            format!("APM {}K-{}K", self.mmin / 1024, self.mmax / 1024)
        }
    }

    fn decide(&mut self, g: &SplitGeometry, technique: Technique) -> SplitDecision {
        // Rule 1: small segments are never split.
        if g.segment_bytes < self.mmin {
            return SplitDecision::None;
        }
        // A full cover selects the whole segment: nothing to split.
        if g.full_cover() {
            return SplitDecision::None;
        }
        // Rule 2: split when no produced piece would be small.
        let pieces_ok = g.lower_bytes.is_none_or(|b| !self.small(b))
            && !self.small(g.selected_bytes)
            && g.upper_bytes.is_none_or(|b| !self.small(b));
        if pieces_ok {
            return SplitDecision::QueryBounds;
        }
        // Rule 3: a small piece would appear — reorganize coarsely, but only
        // if the segment is oversized.
        if g.segment_bytes > self.mmax {
            match technique {
                Technique::Segmentation => self.constrained_segmentation(g),
                Technique::Replication => self.constrained_replication(g),
            }
        } else {
            SplitDecision::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;

    fn apm() -> AdaptivePageModel {
        AdaptivePageModel::new(3 * KB, 12 * KB)
    }

    fn geom(lower: Option<u64>, sel: u64, upper: Option<u64>, seg: u64) -> SplitGeometry {
        SplitGeometry {
            segment_bytes: seg,
            total_bytes: 400 * KB,
            lower_bytes: lower,
            selected_bytes: sel,
            upper_bytes: upper,
        }
    }

    #[test]
    #[should_panic(expected = "Mmin < Mmax")]
    fn rejects_inverted_bounds() {
        let _ = AdaptivePageModel::new(10, 10);
    }

    #[test]
    fn names_scale_units() {
        assert_eq!(apm().name(), "APM 3K-12K");
        let mb = AdaptivePageModel::new(1024 * KB, 25 * 1024 * KB);
        assert_eq!(mb.name(), "APM 1-25");
    }

    #[test]
    fn rule1_small_segment_intact() {
        // Segment below Mmin: rule 1, regardless of pieces.
        let g = geom(Some(KB), KB, Some(100), 2 * KB + 100);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::None
        );
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::None
        );
    }

    #[test]
    fn rule2_all_pieces_large_splits_at_bounds() {
        let g = geom(Some(4 * KB), 5 * KB, Some(6 * KB), 15 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::QueryBounds
        );
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::QueryBounds
        );
    }

    #[test]
    fn rule2_two_piece_geometry() {
        // Query covers the lower part: only the upper bound is inside.
        let g = geom(None, 5 * KB, Some(6 * KB), 11 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::QueryBounds
        );
    }

    #[test]
    fn rule3_small_piece_but_segment_within_band_stays_intact() {
        // One piece is small, but SizeS <= Mmax: no reorganization.
        let g = geom(Some(KB), 5 * KB, Some(5 * KB), 11 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::None
        );
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::None
        );
    }

    #[test]
    fn rule3_segmentation_picks_bound_avoiding_small_pieces() {
        // Lower piece is tiny; splitting at qh leaves [lo,qh]=21K and
        // [qh+1,hi]=8K, both >= Mmin. Expect the upper bound.
        let g = geom(Some(KB), 20 * KB, Some(8 * KB), 29 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::SingleBound(WhichBound::Upper)
        );
    }

    #[test]
    fn rule3_segmentation_falls_back_to_mean() {
        // A centred point query: both bounds leave a small piece on one side
        // (selection itself is tiny), so only the mean split remains.
        let g = geom(Some(12 * KB), 100, Some(12 * KB), 24 * KB + 100);
        // Split at ql: sides 12K | 12K+100 -> both fine? lower=12K >= 3K, rest fine.
        // That bound qualifies, so to force the mean we need both sides small.
        // Instead: tiny lower and tiny upper, fat selection is impossible under rule 3
        // (selection >= Mmin would have gone to rule 2 unless a side is small)…
        // Construct: lower tiny, upper tiny, selection large.
        let g2 = geom(Some(100), 20 * KB, Some(200), 20 * KB + 300);
        // Split at ql: 100 | 20K+200 -> small side. Split at qh: 20K+100 | 200 -> small side.
        assert_eq!(
            apm().decide(&g2, Technique::Segmentation),
            SplitDecision::Mean
        );
        // The first geometry picks a bound instead.
        assert!(matches!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::SingleBound(_)
        ));
    }

    #[test]
    fn rule3_replication_materializes_smallest_superset() {
        // Point query nearer the low end: [lo,qh] is the smaller super-set.
        let g = geom(Some(2 * KB), 100, Some(20 * KB), 22 * KB + 100);
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::SingleBound(WhichBound::Upper)
        );
        // Nearer the high end: [ql,hi] is smaller.
        let g = geom(Some(20 * KB), 100, Some(2 * KB), 22 * KB + 100);
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::SingleBound(WhichBound::Lower)
        );
    }

    #[test]
    fn rule3_replication_single_inside_bound_is_forced() {
        // Query covers the upper part, small lower piece, oversized segment.
        let g = geom(Some(KB), 13 * KB, None, 14 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::SingleBound(WhichBound::Lower)
        );
        let g = geom(None, 13 * KB, Some(KB), 14 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::SingleBound(WhichBound::Upper)
        );
    }

    #[test]
    fn full_cover_is_never_split() {
        let g = geom(None, 20 * KB, None, 20 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::None
        );
        assert_eq!(
            apm().decide(&g, Technique::Replication),
            SplitDecision::None
        );
    }

    #[test]
    fn boundary_exactly_mmin_pieces_split() {
        // Pieces of exactly Mmin are "not small" (strict < in rule 3).
        let g = geom(Some(3 * KB), 3 * KB, Some(3 * KB), 9 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::QueryBounds
        );
    }

    #[test]
    fn boundary_exactly_mmax_stays_intact_under_rule3() {
        // SizeS == Mmax is not "> Mmax": rule 3 does not fire.
        let g = geom(Some(100), 100, Some(12 * KB - 200), 12 * KB);
        assert_eq!(
            apm().decide(&g, Technique::Segmentation),
            SplitDecision::None
        );
    }

    #[test]
    fn convergence_band_is_stable() {
        // Segments inside [Mmin, Mmax] with a small-piece-producing query
        // are never reorganized: the band is absorbing.
        let mut m = apm();
        for seg_kb in 3..=12 {
            let seg = seg_kb * KB;
            let g = geom(Some(seg / 16), seg / 16, Some(seg - seg / 8), seg);
            assert_eq!(
                m.decide(&g, Technique::Segmentation),
                SplitDecision::None,
                "segment of {seg_kb}KB must stay intact"
            );
        }
    }
}
