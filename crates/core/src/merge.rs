//! Segment merging: the anti-fragmentation counter-measure of Section 8.
//!
//! "Another direction of work are complementary merging strategies that
//! counter the fragmentation into small segments occurring with GD model
//! for some query workloads." — the skewed SkyServer load drives GD into
//! thousands of sub-1000-tuple segments (Section 6.2); this module
//! implements the obvious cure: after each query, adjacent runs of small
//! segments inside the touched region are glued back together. A
//! [`MergePolicy`] says when and how far; its pass runs at the end of every
//! query of an adaptive segmentation built with it
//! ([`crate::AdaptiveSegmentation::with_merge`]).

use crate::column::SegmentedColumn;
use crate::range::ValueRange;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// When and how aggressively to glue adjacent small segments.
#[derive(Debug, Clone, Copy)]
pub struct MergePolicy {
    /// Segments strictly smaller than this participate in merging.
    pub small_bytes: u64,
    /// A merged segment never exceeds this size.
    pub max_merged_bytes: u64,
}

impl MergePolicy {
    /// A policy gluing segments under `small_bytes` up to `max_merged_bytes`.
    ///
    /// # Panics
    /// Panics unless `0 < small_bytes <= max_merged_bytes`.
    pub fn new(small_bytes: u64, max_merged_bytes: u64) -> Self {
        assert!(
            small_bytes > 0 && small_bytes <= max_merged_bytes,
            "MergePolicy requires 0 < small_bytes <= max_merged_bytes"
        );
        MergePolicy {
            small_bytes,
            max_merged_bytes,
        }
    }

    /// One merge pass over the segments overlapping `hint`: greedily glues
    /// maximal runs of small adjacent segments whose combined size stays
    /// under the cap. Returns the number of merge operations performed.
    pub(crate) fn merge_pass<V: ColumnValue>(
        &self,
        column: &mut SegmentedColumn<V>,
        hint: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> usize {
        let mut merges = 0;
        // Widen the touched span by one segment on each side so splits at
        // the query borders can be glued to their neighbours.
        let span = column.overlapping_span(hint);
        let mut idx = span.start.saturating_sub(1);
        let mut end = (span.end + 1).min(column.segment_count());
        while idx < end && idx < column.segment_count() {
            let segs = column.segments();
            if segs[idx].bytes() >= self.small_bytes {
                idx += 1;
                continue;
            }
            // Extend a run of small segments while the merged size stays
            // under the cap.
            let mut run = 1;
            let mut sum = segs[idx].bytes();
            while idx + run < end
                && idx + run < segs.len()
                && segs[idx + run].bytes() < self.small_bytes
                && sum + segs[idx + run].bytes() <= self.max_merged_bytes
            {
                sum += segs[idx + run].bytes();
                run += 1;
            }
            if run >= 2 {
                #[expect(
                    clippy::expect_used,
                    reason = "run bounds come from the column's own piece table"
                )]
                column
                    .merge_segments(idx, run, tracker)
                    .expect("run bounds are valid");
                merges += 1;
                end -= run - 1;
            }
            idx += 1;
        }
        merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::SizeEstimator;
    use crate::model::AlwaysSplit;
    use crate::segmentation::AdaptiveSegmentation;
    use crate::strategy::ColumnStrategy;
    use crate::tracker::NullTracker;

    fn column() -> SegmentedColumn<u32> {
        let values: Vec<u32> = (0..10_000u32).collect();
        SegmentedColumn::new(ValueRange::must(0, 9_999), values).unwrap()
    }

    #[test]
    #[should_panic(expected = "MergePolicy requires")]
    fn policy_rejects_bad_bounds() {
        let _ = MergePolicy::new(10, 5);
    }

    #[test]
    fn merge_pass_glues_small_runs() {
        let mut c = column();
        // Fragment into 10 segments of 1000 tuples (4000 bytes) each.
        let pieces: Vec<ValueRange<u32>> = (0..10)
            .map(|i| ValueRange::must(i * 1000, i * 1000 + 999))
            .collect();
        c.replace_segment(0, &pieces, None, &mut NullTracker)
            .unwrap();
        assert_eq!(c.segment_count(), 10);
        // Everything under 5000 bytes is small; cap at 12000 bytes, so runs
        // of three merge (4000*3 = 12000).
        let policy = MergePolicy::new(5_000, 12_000);
        let merges = policy.merge_pass(&mut c, &ValueRange::must(0, 9_999), &mut NullTracker);
        assert!(merges > 0);
        assert!(c.segment_count() < 10);
        c.validate().unwrap();
        // No merged segment exceeds the cap.
        assert!(c.segments().iter().all(|s| s.bytes() <= 12_000));
    }

    #[test]
    fn merge_pass_leaves_large_segments_alone() {
        let mut c = column();
        let pieces = [ValueRange::must(0, 4_999), ValueRange::must(5_000, 9_999)];
        c.replace_segment(0, &pieces, None, &mut NullTracker)
            .unwrap();
        let policy = MergePolicy::new(1_000, 100_000);
        let merges = policy.merge_pass(&mut c, &ValueRange::must(0, 9_999), &mut NullTracker);
        assert_eq!(merges, 0);
        assert_eq!(c.segment_count(), 2);
    }

    #[test]
    fn merging_counters_fragmentation_under_point_queries() {
        // AlwaysSplit + point queries is the worst-case fragmenter; the
        // merge pass must keep the segment count bounded.
        let seg =
            || AdaptiveSegmentation::new(column(), Box::new(AlwaysSplit), SizeEstimator::Uniform);
        let mut frag = seg();
        let mut merged = seg().with_merge(MergePolicy::new(2_000, 8_000));
        for i in 0..200u32 {
            let v = (i * 47) % 9_999;
            let q = ValueRange::must(v, v);
            merged.select_count(&q, &mut NullTracker);
            frag.select_count(&q, &mut NullTracker);
        }
        assert!(merged.adaptation().merges > 0);
        assert!(
            merged.segment_count() < frag.segment_count(),
            "merging {} must beat bare fragmentation {}",
            merged.segment_count(),
            frag.segment_count()
        );
        merged.column().validate().unwrap();
    }

    #[test]
    fn results_stay_correct_with_merging() {
        let values: Vec<u32> = (0..10_000u32).rev().collect();
        let reference = values.clone();
        let col = SegmentedColumn::new(ValueRange::must(0, 9_999), values).unwrap();
        let mut merged =
            AdaptiveSegmentation::new(col, Box::new(AlwaysSplit), SizeEstimator::Uniform)
                .with_merge(MergePolicy::new(2_000, 8_000));
        for i in 0..100u32 {
            let lo = (i * 97) % 9_000;
            let q = ValueRange::must(lo, lo + 999);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(merged.select_count(&q, &mut NullTracker), expect);
        }
    }
}
