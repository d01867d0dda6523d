//! Adaptive segmentation (Section 4, Algorithm 1).
//!
//! The column is a sequence of adjacent non-overlapping segments. Every
//! range selection scans exactly the overlapping segments; for each, the
//! segmentation model may decide to *eagerly* replace it with its two or
//! three sub-segments, piggy-backing the reorganization on the scan the
//! query pays for anyway.

use crate::column::SegmentedColumn;
use crate::estimate::{exact_pieces, interpolate_pieces, PieceLens, SizeEstimator};
use crate::kernels::HalfLens;
use crate::model::{SegmentationModel, SplitDecision, SplitGeometry, Technique, WhichBound};
use crate::range::ValueRange;
use crate::segment::Window;
use crate::strategy::ColumnStrategy;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// A self-organizing column using in-place adaptive segmentation.
pub struct AdaptiveSegmentation<V> {
    column: SegmentedColumn<V>,
    model: Box<dyn SegmentationModel>,
    estimator: SizeEstimator,
    splits: u64,
}

/// The estimators answer `None` for a segment the query misses.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "process_segment is only handed segments that passed the overlap test"
)]
fn overlapping(pieces: Option<PieceLens>) -> PieceLens {
    pieces.expect("segment passed the overlap test")
}

/// The sizes of `pieces`, cut at `q`'s own bounds, in each half of the
/// segment, from the query's `counts` of the values below, inside and
/// above `q` per half ([`crate::kernels::count_partition`]). A piece cut
/// at the query's bounds holds all or none of each of those three sets:
/// the values below `q` when it starts below `q.lo`, those inside when it
/// overlaps `q`, those above when it ends above `q.hi`.
fn query_piece_lens<V: ColumnValue>(
    pieces: &[ValueRange<V>],
    q: &ValueRange<V>,
    counts: &[[u64; 3]; 2],
) -> HalfLens {
    counts.map(|[below, inside, above]| {
        pieces
            .iter()
            .map(|p| {
                let mut n = 0;
                if p.lo() < q.lo() {
                    n += below;
                }
                if p.lo() <= q.hi() && q.lo() <= p.hi() {
                    n += inside;
                }
                if q.hi() < p.hi() {
                    n += above;
                }
                n as usize
            })
            .collect()
    })
}

impl<V: ColumnValue> AdaptiveSegmentation<V> {
    /// Wraps a freshly loaded column with a segmentation model.
    ///
    /// The `estimator` controls what the model sees: [`SizeEstimator::Uniform`]
    /// (default, optimizer-level knowledge) or [`SizeEstimator::Exact`].
    pub fn new(
        column: SegmentedColumn<V>,
        model: Box<dyn SegmentationModel>,
        estimator: SizeEstimator,
    ) -> Self {
        AdaptiveSegmentation {
            column,
            model,
            estimator,
            splits: 0,
        }
    }

    /// The underlying segmented column.
    pub fn column(&self) -> &SegmentedColumn<V> {
        &self.column
    }

    /// Mutable access to the column for maintenance passes (merging).
    pub(crate) fn column_mut(&mut self) -> &mut SegmentedColumn<V> {
        &mut self.column
    }

    /// Computes the piece ranges a decision implies for one segment.
    ///
    /// Returns `None` when the decision does not yield at least two
    /// non-degenerate pieces (nothing to reorganize).
    fn ranges_for(
        decision: SplitDecision,
        seg: ValueRange<V>,
        q: &ValueRange<V>,
    ) -> Option<Vec<ValueRange<V>>> {
        let ranges = match decision {
            SplitDecision::None => return None,
            SplitDecision::QueryBounds => {
                let (below, mid, above) = seg.partition_by(q);
                [below, mid, above]
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
            }
            SplitDecision::SingleBound(WhichBound::Lower) => {
                let below = seg.split_below(q.lo())?;
                let rest = ValueRange::new(q.lo(), seg.hi())?;
                vec![below, rest]
            }
            SplitDecision::SingleBound(WhichBound::Upper) => {
                let above = seg.split_above(q.hi())?;
                let rest = ValueRange::new(seg.lo(), q.hi())?;
                vec![rest, above]
            }
            SplitDecision::Mean => {
                let mid = seg.midpoint();
                let above = seg.split_above(mid)?;
                let below = ValueRange::new(seg.lo(), mid)?;
                vec![below, above]
            }
        };
        (ranges.len() >= 2).then_some(ranges)
    }

    /// Algorithm 1 over one overlapping segment: scan, answer, maybe split.
    fn process_segment(
        &mut self,
        idx: usize,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> u64 {
        let total_len = self.column.total_len();
        let seg = &self.column.segments()[idx];
        let seg_range = seg.range();
        let seg_len = seg.len();
        tracker.scan(seg.id(), seg.bytes());

        // One pass over the segment: exact piece counts, the middle one being
        // the answer.
        let counts = crate::kernels::count_partition(seg.values(), q);
        let exact = overlapping(exact_pieces(&seg_range, &counts, q));
        let matched = exact.1;

        // The model decides on estimates (what the optimizer level can know).
        let pieces = match self.estimator {
            SizeEstimator::Exact => exact,
            SizeEstimator::Uniform => overlapping(interpolate_pieces(&seg_range, seg_len, q)),
        };
        let geom = SplitGeometry::from_piece_lens::<V>(pieces, seg_len, total_len);
        let decision = self.model.decide(&geom, Technique::Segmentation);

        if let Some(ranges) = Self::ranges_for(decision, seg_range, q) {
            // Pieces cut at the query's own bounds take their sizes from the
            // query's count, so the split does not count again.
            let lens = matches!(
                decision,
                SplitDecision::QueryBounds | SplitDecision::SingleBound(_)
            )
            .then(|| query_piece_lens(&ranges, q, &counts));
            #[expect(
                clippy::expect_used,
                reason = "interpolated piece ranges tile the segment by construction"
            )]
            self.column
                .replace_segment(idx, &ranges, lens, tracker)
                .expect("piece ranges tile the segment by construction");
            self.splits += 1;
        }
        matched
    }

    fn run_select(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        let span = self.column.overlapping_span(q);
        let mut matched = 0;
        // Right-to-left so splice-induced index shifts stay ahead of us.
        for idx in span.rev() {
            matched += self.process_segment(idx, q, tracker);
        }
        crate::debug_assert_valid!(
            crate::validate::ranges_partition(
                &self.column.domain(),
                &self
                    .column
                    .segments()
                    .iter()
                    .map(|s| s.range())
                    .collect::<Vec<_>>(),
            ),
            "adaptive segmentation reorganize"
        );
        matched
    }
}

// contract: ColumnStrategy thread-safety: splits and delta folds mutate the piece table only inside &mut self run_select / fold_delta; &self accessors are pure reads.
impl<V: ColumnValue> ColumnStrategy<V> for AdaptiveSegmentation<V> {
    fn name(&self) -> String {
        format!("{} Segm", self.model.name())
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        self.run_select(q, tracker)
    }

    fn peek_collect(&self, q: &ValueRange<V>) -> Vec<V> {
        let mut out = Vec::new();
        for idx in self.column.overlapping_span(q) {
            self.column.segments()[idx].collect_in(q, &mut out);
        }
        out
    }

    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        let unmatched = self.column.fold_delta(inserts, tombstones, tracker);
        crate::debug_assert_valid!(self.column.validate(), "adaptive segmentation fold");
        unmatched
    }

    fn share_sorted(&mut self) -> Option<Vec<(ValueRange<V>, Window<V>)>> {
        Some(self.column.share_sorted())
    }

    fn storage_bytes(&self) -> u64 {
        // In-place reorganization: the stored values never exceed the bare
        // column. While a split runs it holds the segment plus every
        // product but the largest, which keeps the segment's own buffer
        // (`kernels::partition_into`).
        self.column.total_bytes()
    }

    fn segment_count(&self) -> usize {
        self.column.segment_count()
    }

    fn segment_bytes(&self) -> Vec<u64> {
        self.column.segments().iter().map(|s| s.bytes()).collect()
    }

    fn segment_ranges(&self) -> Vec<ValueRange<V>> {
        self.column.segments().iter().map(|s| s.range()).collect()
    }

    fn adaptation(&self) -> crate::strategy::AdaptationStats {
        crate::strategy::AdaptationStats {
            splits: self.splits,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AdaptivePageModel, AlwaysSplit, GaussianDice, NeverSplit};
    use crate::tracker::{CountingTracker, NullTracker};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const DOMAIN_HI: u32 = 99_999;

    /// A uniform column: values 0..n mapped over the domain, 100k tuples.
    fn uniform_column(n: u32) -> SegmentedColumn<u32> {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let values: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=DOMAIN_HI)).collect();
        SegmentedColumn::new(ValueRange::must(0, DOMAIN_HI), values).unwrap()
    }

    fn apm() -> Box<dyn SegmentationModel> {
        // 3KB / 12KB, the simulation setting.
        Box::new(AdaptivePageModel::new(3 * 1024, 12 * 1024))
    }

    #[test]
    fn never_split_behaves_like_baseline() {
        let mut s = AdaptiveSegmentation::new(
            uniform_column(10_000),
            Box::new(NeverSplit),
            SizeEstimator::Uniform,
        );
        let mut t = CountingTracker::new();
        let q = ValueRange::must(1000, 1999);
        s.select_count(&q, &mut t);
        s.select_count(&q, &mut t);
        assert_eq!(s.segment_count(), 1);
        assert_eq!(t.totals().read_bytes, 2 * 40_000);
        assert_eq!(t.totals().write_bytes, 0);
    }

    #[test]
    fn results_match_naive_filter() {
        let column = uniform_column(20_000);
        let reference: Vec<u32> = column.segments()[0].values().to_vec();
        let mut s = AdaptiveSegmentation::new(column, apm(), SizeEstimator::Uniform);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..200 {
            let lo = rng.gen_range(0..=DOMAIN_HI);
            let width = rng.gen_range(0..=DOMAIN_HI / 4);
            let hi = lo.saturating_add(width).min(DOMAIN_HI);
            let q = ValueRange::must(lo, hi);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            let got = s.select_count(&q, &mut NullTracker);
            assert_eq!(got, expect, "query {q:?}");
            s.column().validate().unwrap();
        }
        assert!(
            s.adaptation().splits > 0,
            "APM should have reorganized at least once"
        );
    }

    #[test]
    fn collect_returns_exactly_the_matching_values() {
        let column = uniform_column(5_000);
        let reference: Vec<u32> = column.segments()[0].values().to_vec();
        let mut s = AdaptiveSegmentation::new(column, apm(), SizeEstimator::Exact);
        let q = ValueRange::must(25_000, 74_999);
        s.select_count(&q, &mut NullTracker);
        let mut got = s.peek_collect(&q);
        let mut expect: Vec<u32> = reference.into_iter().filter(|v| q.contains(*v)).collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn repeated_query_reads_shrink_after_reorganization() {
        let mut s =
            AdaptiveSegmentation::new(uniform_column(100_000), apm(), SizeEstimator::Uniform);
        let q = ValueRange::must(40_000, 49_999); // 10% selectivity
        let mut t = CountingTracker::new();
        t.begin_query();
        s.select_count(&q, &mut t);
        let first = t.query_stats();
        t.begin_query();
        s.select_count(&q, &mut t);
        let second = t.query_stats();
        // First query scans the whole 400KB column; the second only the
        // query-aligned piece (~40KB).
        assert_eq!(first.read_bytes, 400_000);
        assert!(
            second.read_bytes < first.read_bytes / 5,
            "second read {} should be far below first {}",
            second.read_bytes,
            first.read_bytes
        );
        // Reorganization happened on the first query only.
        assert!(first.write_bytes > 0);
        assert_eq!(second.write_bytes, 0);
    }

    #[test]
    fn apm_segment_sizes_converge_into_the_band() {
        let mut s =
            AdaptiveSegmentation::new(uniform_column(100_000), apm(), SizeEstimator::Uniform);
        let mut rng = SmallRng::seed_from_u64(7);
        let width = 9_999; // ~10% selectivity
        for _ in 0..2_000 {
            let lo = rng.gen_range(0..=DOMAIN_HI - width);
            let q = ValueRange::must(lo, lo + width);
            s.select_count(&q, &mut NullTracker);
        }
        s.column().validate().unwrap();
        let mmax = 12 * 1024;
        let oversized = s.segment_bytes().into_iter().filter(|b| *b > mmax).count();
        assert_eq!(
            oversized, 0,
            "after heavy uniform load no segment should exceed Mmax"
        );
    }

    #[test]
    fn gd_reorganizes_and_stays_consistent() {
        let column = uniform_column(50_000);
        let reference: Vec<u32> = column.segments()[0].values().to_vec();
        let mut s = AdaptiveSegmentation::new(
            column,
            Box::new(GaussianDice::new(99)),
            SizeEstimator::Uniform,
        );
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..300 {
            let lo = rng.gen_range(0..=DOMAIN_HI - 10_000);
            let q = ValueRange::must(lo, lo + 9_999);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(s.select_count(&q, &mut NullTracker), expect);
        }
        s.column().validate().unwrap();
        assert!(
            s.segment_count() > 1,
            "GD splits a balanced cut of the full column"
        );
    }

    #[test]
    fn always_split_fragment_then_queries_read_minimum() {
        let mut s = AdaptiveSegmentation::new(
            uniform_column(100_000),
            Box::new(AlwaysSplit),
            SizeEstimator::Uniform,
        );
        let q = ValueRange::must(10_000, 19_999);
        s.select_count(&q, &mut NullTracker);
        // The query range is now exactly one segment; re-reading touches
        // only it.
        let mut t = CountingTracker::new();
        let n = s.select_count(&q, &mut t);
        assert_eq!(t.totals().read_bytes, n * 4);
        assert_eq!(t.totals().segments_scanned, 1);
    }

    #[test]
    fn mean_split_on_point_query_in_oversized_segment() {
        // A point query inside a huge segment triggers APM rule 3; with
        // both bound splits leaving a tiny piece the mean is used, which
        // must still keep the column valid.
        let values: Vec<u32> = (0..100_000u32).collect();
        let column = SegmentedColumn::new(ValueRange::must(0, DOMAIN_HI), values).unwrap();
        let mut s = AdaptiveSegmentation::new(column, apm(), SizeEstimator::Uniform);
        // Point query dead centre: both bound splits qualify (halves are
        // large), so a SingleBound split fires; afterwards keep hammering
        // point queries near the low edge to exercise the Mean arm.
        for lo in [50_000u32, 100, 50, 25, 12] {
            let q = ValueRange::must(lo, lo + 1);
            s.select_count(&q, &mut NullTracker);
            s.column().validate().unwrap();
        }
        assert!(s.adaptation().splits > 0);
    }

    #[test]
    fn writes_equal_full_segment_on_split() {
        // Eager materialization rewrites the whole segment: writes per split
        // must equal the replaced segment's size.
        let mut s =
            AdaptiveSegmentation::new(uniform_column(100_000), apm(), SizeEstimator::Uniform);
        let mut t = CountingTracker::new();
        t.begin_query();
        s.select_count(&ValueRange::must(30_000, 69_999), &mut t);
        let st = t.query_stats();
        assert_eq!(
            st.write_bytes, 400_000,
            "whole column rewritten on first split"
        );
        assert_eq!(st.freed_bytes, 400_000);
    }

    #[test]
    fn empty_query_range_outside_data() {
        let mut s = AdaptiveSegmentation::new(uniform_column(1_000), apm(), SizeEstimator::Uniform);
        // Query entirely inside the domain but matching nothing is fine.
        let q = ValueRange::must(0, 0);
        let n = s.select_count(&q, &mut NullTracker);
        assert!(n <= 1_000);
    }
}
