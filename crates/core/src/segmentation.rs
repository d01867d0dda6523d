//! Adaptive segmentation (Section 4, Algorithm 1).
//!
//! The column is a sequence of adjacent non-overlapping segments. Every
//! range selection scans exactly the overlapping segments; for each, the
//! segmentation model may decide to *eagerly* replace it with its two or
//! three sub-segments, piggy-backing the reorganization on the scan the
//! query pays for anyway. Under an optional [`MergePolicy`] (Section 8's
//! counter-measure to fragmentation) every query ends with a merge pass
//! over the segments it touched.
//!
//! The scan is the paper's cost model: a segment is billed whole. The
//! count behind it is a pass over an unsorted segment's values, but two
//! binary searches in a sorted one (every segment of a served column).

use crate::column::SegmentedColumn;
use crate::estimate::{exact_pieces, interpolate_pieces, PieceLens, SizeEstimator};
use crate::kernels::HalfLens;
use crate::merge::MergePolicy;
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
    merge: Option<MergePolicy>,
    splits: u64,
    merges: u64,
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

/// The sizes of `pieces`, cut at `q`'s own bounds, in each half of an
/// unsorted segment, from the query's `counts` of the values below, inside
/// and above `q` per half (`SegmentData::count_partition`). A piece cut
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
            merge: None,
            splits: 0,
            merges: 0,
        }
    }

    /// Ends every query with `policy`'s merge pass over the segments it
    /// touched — the "GD Segm+Merge" of the ablations.
    #[must_use]
    pub fn with_merge(mut self, policy: MergePolicy) -> Self {
        self.merge = Some(policy);
        self
    }

    /// The underlying segmented column.
    pub fn column(&self) -> &SegmentedColumn<V> {
        &self.column
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

    /// Algorithm 1 over one overlapping segment: count (a search of a
    /// sorted segment, a scan of an unsorted one; either is billed as the
    /// scan), answer, maybe split. With `answer` false
    /// ([`ColumnStrategy::reorganize`]) the segment is counted only where
    /// a decision needs it — an exact estimate, or an unsorted split at
    /// the query's bounds, whose piece sizes the count supplies — and the
    /// return is 0. The model decides on the same estimate either
    /// way, so a seeded model draws the same.
    fn process_segment(
        &mut self,
        idx: usize,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
        answer: bool,
    ) -> u64 {
        let total_len = self.column.total_len();
        let seg = &self.column.segments()[idx];
        let seg_range = seg.range();
        let seg_len = seg.len();
        let sorted = seg.is_sorted();
        tracker.scan(seg.id(), seg.bytes());

        // One count of the segment (two binary searches when it is sorted,
        // one pass when not): exact piece counts, the middle one being the
        // answer.
        let count = || seg.count_partition(q);
        let counts = (answer || self.estimator == SizeEstimator::Exact).then(count);

        // The model decides on estimates (what the optimizer level can know).
        let pieces = match (self.estimator, &counts) {
            (SizeEstimator::Exact, Some(counts)) => {
                overlapping(exact_pieces(&seg_range, counts, q))
            }
            _ => overlapping(interpolate_pieces(&seg_range, seg_len, q)),
        };
        let geom = SplitGeometry::from_piece_lens::<V>(pieces, seg_len, total_len);
        let decision = self.model.decide(&geom, Technique::Segmentation);

        if let Some(ranges) = Self::ranges_for(decision, seg_range, q) {
            // Pieces cut at the query's own bounds take their sizes from the
            // query's count, so an unsorted split does not count again; a
            // sorted one cuts its window by search and needs no sizes.
            let lens = (!sorted
                && matches!(
                    decision,
                    SplitDecision::QueryBounds | SplitDecision::SingleBound(_)
                ))
            .then(|| query_piece_lens(&ranges, q, &counts.unwrap_or_else(count)));
            #[expect(
                clippy::expect_used,
                reason = "interpolated piece ranges tile the segment by construction"
            )]
            self.column
                .replace_segment(idx, &ranges, lens, tracker)
                .expect("piece ranges tile the segment by construction");
            self.splits += 1;
        }
        counts.map_or(0, |[lower, upper]| lower[1] + upper[1])
    }

    fn run_select(
        &mut self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
        answer: bool,
    ) -> u64 {
        let span = self.column.overlapping_span(q);
        let mut matched = 0;
        // Right-to-left so splice-induced index shifts stay ahead of us.
        for idx in span.rev() {
            matched += self.process_segment(idx, q, tracker, answer);
        }
        if let Some(policy) = self.merge {
            self.merges += policy.merge_pass(&mut self.column, q, tracker) as u64;
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

// contract: ColumnStrategy thread-safety: splits, merges and delta folds mutate the piece table only inside &mut self run_select / fold_delta; &self accessors are pure reads.
impl<V: ColumnValue> ColumnStrategy<V> for AdaptiveSegmentation<V> {
    fn name(&self) -> String {
        let merge = if self.merge.is_some() { "+Merge" } else { "" };
        format!("{} Segm{merge}", self.model.name())
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        self.run_select(q, tracker, true)
    }

    fn reorganize(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) {
        self.run_select(q, tracker, false);
    }

    fn peek_slices(&self, q: &ValueRange<V>, f: &mut dyn FnMut(&[V])) {
        let mut scratch = Vec::new();
        for idx in self.column.overlapping_span(q) {
            self.column.segments()[idx].peek_in(q, &mut scratch, f);
        }
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

    fn pieces(&self) -> Vec<(ValueRange<V>, u64)> {
        let segments = self.column.segments().iter();
        segments.map(|s| (s.range(), s.bytes())).collect()
    }

    fn adaptation(&self) -> crate::strategy::AdaptationStats {
        crate::strategy::AdaptationStats {
            splits: self.splits,
            merges: self.merges,
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
        let oversized = s.pieces().into_iter().filter(|(_, b)| *b > mmax).count();
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

    /// Searching a sorted segment instead of scanning it changes no
    /// decision and no bill. One query stream of answered and count-free
    /// reads runs through a column whose segments were sorted for serving
    /// and through its unsorted twin: the answers, the pieces, the splits
    /// and merges and the tracker's totals are the same. The column is
    /// past `PAR_MIN`, so the twin counts and splits its first segments in
    /// two halves.
    #[test]
    fn sorted_and_unsorted_twins_decide_and_bill_alike() {
        let n = crate::kernels::PAR_MIN as u32 + 4_096;
        let gd = || Box::new(GaussianDice::new(5)) as Box<dyn SegmentationModel>;
        let merge = Some(MergePolicy::new(2_000, 8_000));
        let configs: [(&dyn Fn() -> Box<dyn SegmentationModel>, _, _); 3] = [
            (&apm, SizeEstimator::Exact, None),
            (&gd, SizeEstimator::Exact, merge),
            (&gd, SizeEstimator::Uniform, None),
        ];
        for (model, estimator, merge) in configs {
            let build = || {
                let s = AdaptiveSegmentation::new(uniform_column(n), model(), estimator);
                match merge {
                    Some(policy) => s.with_merge(policy),
                    None => s,
                }
            };
            let (mut sorted, mut twin) = (build(), build());
            sorted.share_sorted();
            let (mut ts, mut tt) = (CountingTracker::new(), CountingTracker::new());
            let mut rng = SmallRng::seed_from_u64(17);
            for i in 0..150 {
                let lo = rng.gen_range(0..=DOMAIN_HI);
                let hi = lo.saturating_add(rng.gen_range(0..=DOMAIN_HI / 8));
                let q = ValueRange::must(lo, hi.min(DOMAIN_HI));
                if i % 3 == 2 {
                    sorted.reorganize(&q, &mut ts);
                    twin.reorganize(&q, &mut tt);
                } else {
                    let answer = sorted.select_count(&q, &mut ts);
                    assert_eq!(answer, twin.select_count(&q, &mut tt), "{q:?}");
                }
            }
            let name = sorted.name();
            assert_eq!(sorted.pieces(), twin.pieces(), "{name}");
            assert_eq!(sorted.adaptation(), twin.adaptation(), "{name}");
            assert_eq!(ts.totals(), tt.totals(), "{name}");
            assert!(sorted.adaptation().splits > 0, "{name}");
            let sorted_segments = |s: &AdaptiveSegmentation<u32>, sorted| {
                s.column()
                    .segments()
                    .iter()
                    .all(|s| s.is_sorted() == sorted)
            };
            assert!(sorted_segments(&sorted, true), "{name}");
            assert!(sorted_segments(&twin, false), "{name}");
        }
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
