//! Segmentation models: the split-or-not policies of Section 3.2.
//!
//! A *segmentation model* looks at how a range selection carves up one
//! segment and decides whether that carving should be used to reorganize the
//! column. The paper defines two: the randomized [`GaussianDice`] and the
//! deterministic [`AdaptivePageModel`]. Both see only sizes (bytes), never
//! values — exactly the information available at the tactical-optimizer
//! level from the segment meta-index.

mod apm;
mod auto;
mod gd;

pub use apm::AdaptivePageModel;
pub(crate) use auto::AutoTunedApm;
pub use gd::GaussianDice;

use crate::estimate::PieceLens;
use crate::value::ColumnValue;

/// Which self-organizing technique is asking for a decision.
///
/// The Adaptive Page Model's rule 3 genuinely differs between the two
/// techniques: adaptive segmentation splits at a query bound *or the segment
/// mean* (Section 3.2.2), while adaptive replication materializes the
/// smallest super-set of the selection (Algorithm 4, case 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// In-place reorganization (Section 4).
    Segmentation,
    /// Replica-tree growth (Section 5).
    Replication,
}

/// Which query bound a single-bound split uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhichBound {
    /// Split at `ql`: pieces `[seg.lo, ql-1]` and `[ql, seg.hi]`.
    Lower,
    /// Split at `qh`: pieces `[seg.lo, qh]` and `[qh+1, seg.hi]`.
    Upper,
}

/// The model's verdict for one (query, segment) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitDecision {
    /// Leave the segment intact (Algorithm 4's case 0).
    None,
    /// Split at every query bound that falls inside the segment, yielding
    /// two or three pieces (Algorithm 4's cases 1–3).
    QueryBounds,
    /// Split at a single query bound (Algorithm 4's case 4 and the
    /// bound-choosing arm of APM rule 3).
    SingleBound(WhichBound),
    /// Split at an approximation of the segment's mean value (the fallback
    /// arm of APM rule 3; cf. query Q3 in Figure 3).
    Mean,
}

/// The size information a model decision is based on.
///
/// All quantities are in bytes, the unit of the paper's simulator. Side
/// pieces are `None` when the corresponding query bound lies outside the
/// segment (so the query "covers" that side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitGeometry {
    /// Size of the segment under consideration (`SizeS`).
    pub segment_bytes: u64,
    /// Size of the whole column (`TotSize`), constant over a run.
    pub total_bytes: u64,
    /// Estimated size of the piece below the query (`[seg.lo, ql-1]`).
    pub lower_bytes: Option<u64>,
    /// Estimated size of the piece the query selects out of this segment.
    pub selected_bytes: u64,
    /// Estimated size of the piece above the query (`[qh+1, seg.hi]`).
    pub upper_bytes: Option<u64>,
}

impl SplitGeometry {
    /// Builds a geometry from piece tuple-counts.
    pub(crate) fn from_piece_lens<V: ColumnValue>(
        pieces: PieceLens,
        seg_len: u64,
        total_len: u64,
    ) -> Self {
        let (lower, selected, upper) = pieces;
        SplitGeometry {
            segment_bytes: seg_len * V::BYTES,
            total_bytes: total_len * V::BYTES,
            lower_bytes: lower.map(|n| n * V::BYTES),
            selected_bytes: selected * V::BYTES,
            upper_bytes: upper.map(|n| n * V::BYTES),
        }
    }

    /// Number of query bounds that fall inside the segment (0, 1 or 2).
    pub(crate) fn bounds_inside(&self) -> u8 {
        self.lower_bytes.is_some() as u8 + self.upper_bytes.is_some() as u8
    }

    /// Whether the query covers the segment entirely (no bound inside).
    pub(crate) fn full_cover(&self) -> bool {
        self.bounds_inside() == 0
    }
}

/// A split-or-not policy (Section 3.2).
///
/// `&mut self` because the Gaussian Dice consumes randomness; decisions may
/// therefore differ between calls with identical geometry.
///
/// `Send + Sync` because models live inside [`crate::ColumnStrategy`]
/// objects, which carry the same bound so a strategy can be owned by the
/// epoch writer thread (decisions stay single-threaded: `decide` takes
/// `&mut self` through the owning strategy's exclusive borrow).
pub trait SegmentationModel: Send + Sync {
    /// Short display name ("GD", "APM 1-25", …) used in experiment output.
    fn name(&self) -> String;

    /// Decides what to do with a segment carved by a query.
    fn decide(&mut self, g: &SplitGeometry, technique: Technique) -> SplitDecision;
}

impl<M: SegmentationModel + ?Sized> SegmentationModel for Box<M> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn decide(&mut self, g: &SplitGeometry, technique: Technique) -> SplitDecision {
        (**self).decide(g, technique)
    }
}

/// A model that never splits — turns either technique into the
/// non-segmented baseline and is handy in tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NeverSplit;

#[cfg(test)]
impl SegmentationModel for NeverSplit {
    fn name(&self) -> String {
        "NoSegm".to_owned()
    }

    fn decide(&mut self, _g: &SplitGeometry, _technique: Technique) -> SplitDecision {
        SplitDecision::None
    }
}

/// A model that always splits at the query bounds — maximally eager, used in
/// tests and as a worst-case fragmentation stressor.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AlwaysSplit;

#[cfg(test)]
impl SegmentationModel for AlwaysSplit {
    fn name(&self) -> String {
        "Always".to_owned()
    }

    fn decide(&mut self, g: &SplitGeometry, _technique: Technique) -> SplitDecision {
        if g.full_cover() {
            SplitDecision::None
        } else {
            SplitDecision::QueryBounds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(
        lower: Option<u64>,
        sel: u64,
        upper: Option<u64>,
        seg: u64,
        total: u64,
    ) -> SplitGeometry {
        SplitGeometry {
            segment_bytes: seg,
            total_bytes: total,
            lower_bytes: lower,
            selected_bytes: sel,
            upper_bytes: upper,
        }
    }

    #[test]
    fn bounds_inside_counts_sides() {
        assert_eq!(geom(Some(1), 1, Some(1), 3, 3).bounds_inside(), 2);
        assert_eq!(geom(None, 1, Some(1), 2, 2).bounds_inside(), 1);
        assert_eq!(geom(None, 1, None, 1, 1).bounds_inside(), 0);
        assert!(geom(None, 1, None, 1, 1).full_cover());
    }

    #[test]
    fn from_piece_lens_scales_by_value_width() {
        let g = SplitGeometry::from_piece_lens::<u32>((Some(10), 20, None), 30, 100);
        assert_eq!(g.lower_bytes, Some(40));
        assert_eq!(g.selected_bytes, 80);
        assert_eq!(g.upper_bytes, None);
        assert_eq!(g.segment_bytes, 120);
        assert_eq!(g.total_bytes, 400);
    }

    #[test]
    fn never_and_always_split() {
        let g = geom(Some(100), 100, Some(100), 300, 1000);
        assert_eq!(
            NeverSplit.decide(&g, Technique::Segmentation),
            SplitDecision::None
        );
        assert_eq!(
            AlwaysSplit.decide(&g, Technique::Segmentation),
            SplitDecision::QueryBounds
        );
        let full = geom(None, 100, None, 100, 1000);
        assert_eq!(
            AlwaysSplit.decide(&full, Technique::Replication),
            SplitDecision::None
        );
    }

    #[test]
    fn boxed_model_delegates() {
        let mut m: Box<dyn SegmentationModel> = Box::new(AlwaysSplit);
        assert_eq!(m.name(), "Always");
        let g = geom(Some(1), 1, None, 2, 10);
        assert_eq!(
            m.decide(&g, Technique::Replication),
            SplitDecision::QueryBounds
        );
    }
}
