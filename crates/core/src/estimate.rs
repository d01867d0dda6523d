//! Size estimation for split decisions.
//!
//! The segmentation models decide *before* any materialization happens, so
//! they work on size estimates (Section 3.2.2: "the decision about
//! reorganization is taken deterministically using estimates of the segment
//! sizes"). The estimate of choice is uniform interpolation over the value
//! range — exactly what a query optimizer would do with only a sparse
//! meta-index and no data access. An exact mode exists for testing and for
//! callers that have already paid for a scan.

use crate::range::ValueRange;
use crate::value::ColumnValue;

/// How piece sizes are estimated when a query carves up a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SizeEstimator {
    /// Interpolate assuming values are uniform over the segment's range.
    /// This is what the paper's optimizer-level integration can know without
    /// touching data.
    #[default]
    Uniform,
    /// Count the actual values (requires a scan; used in tests and by
    /// callers that piggy-back on an existing scan).
    Exact,
}

/// Tuple counts of the up-to-three pieces a query cuts out of a segment:
/// `(below query, overlap, above query)`. A `None` side means the
/// corresponding query bound lies outside the segment.
pub type PieceLens = (Option<u64>, u64, Option<u64>);

/// Estimates piece tuple-counts by uniform interpolation over range widths.
///
/// The three counts always sum to `seg_len` (the overlap piece absorbs the
/// rounding), so downstream byte arithmetic cannot leak or invent tuples.
/// Returns `None` when the query does not overlap the segment.
pub fn interpolate_pieces<V: ColumnValue>(
    seg_range: &ValueRange<V>,
    seg_len: u64,
    q: &ValueRange<V>,
) -> Option<PieceLens> {
    let (below, mid, above) = seg_range.partition_by(q);
    mid?;
    let total_width = seg_range.width();
    let frac = |r: &ValueRange<V>| -> u64 {
        if total_width <= 0.0 {
            // Degenerate (point) range: everything is in the overlap.
            0
        } else {
            ((seg_len as f64) * (r.width() / total_width)).round() as u64
        }
    };
    let below_len = below.map(|r| frac(&r).min(seg_len));
    let above_len = above.map(|r| frac(&r).min(seg_len));
    let outer = below_len.unwrap_or(0) + above_len.unwrap_or(0);
    // The overlap takes the remainder so the pieces account for every tuple.
    let mid_len = seg_len.saturating_sub(outer);
    Some((below_len, mid_len, above_len))
}

/// Counts the actual piece sizes with one pass over the segment's values.
///
/// Returns `None` when the query does not overlap the segment's range.
pub fn exact_pieces<V: ColumnValue>(
    seg_range: &ValueRange<V>,
    values: &[V],
    q: &ValueRange<V>,
) -> Option<PieceLens> {
    let (below, mid, above) = seg_range.partition_by(q);
    mid?;
    let (below_n, mid_n, above_n) = crate::kernels::count_partition(values, q);
    Some((below.map(|_| below_n), mid_n, above.map(|_| above_n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_sums_to_segment_len() {
        let seg = ValueRange::must(0u32, 999);
        let q = ValueRange::must(100, 199);
        let (b, m, a) = interpolate_pieces(&seg, 1000, &q).unwrap();
        assert_eq!(b.unwrap() + m + a.unwrap(), 1000);
        // 10% selectivity over a uniform segment.
        assert_eq!(m, 100);
        assert_eq!(b.unwrap(), 100);
        assert_eq!(a.unwrap(), 800);
    }

    #[test]
    fn interpolation_sides_follow_query_position() {
        let seg = ValueRange::must(0u32, 999);
        // Query covers the lower part: no below piece.
        let (b, m, a) = interpolate_pieces(&seg, 1000, &ValueRange::must(0, 499)).unwrap();
        assert!(b.is_none());
        assert_eq!(m, 500);
        assert_eq!(a.unwrap(), 500);
        // Query covers everything: single piece.
        let (b, m, a) = interpolate_pieces(&seg, 1000, &ValueRange::must(0, 2000)).unwrap();
        assert!(b.is_none() && a.is_none());
        assert_eq!(m, 1000);
    }

    #[test]
    fn interpolation_disjoint_is_none() {
        let seg = ValueRange::must(0u32, 9);
        assert!(interpolate_pieces(&seg, 10, &ValueRange::must(100, 200)).is_none());
    }

    #[test]
    fn interpolation_handles_point_segment() {
        let seg = ValueRange::must(5u32, 5);
        let (b, m, a) = interpolate_pieces(&seg, 7, &ValueRange::must(0, 10)).unwrap();
        assert!(b.is_none() && a.is_none());
        assert_eq!(m, 7);
    }

    #[test]
    fn exact_pieces_count_data_not_ranges() {
        let seg = ValueRange::must(0u32, 999);
        // All values huddle at the bottom; interpolation would be fooled.
        let values: Vec<u32> = (0..100).collect();
        let q = ValueRange::must(500, 599);
        let (b, m, a) = exact_pieces(&seg, &values, &q).unwrap();
        assert_eq!(b.unwrap(), 100);
        assert_eq!(m, 0);
        assert_eq!(a.unwrap(), 0);
    }

    #[test]
    fn exact_matches_interpolation_on_uniform_data() {
        let seg = ValueRange::must(0u32, 9999);
        let values: Vec<u32> = (0..10000).collect();
        let q = ValueRange::must(2500, 4999);
        let (b1, m1, a1) = exact_pieces(&seg, &values, &q).unwrap();
        let (b2, m2, a2) = interpolate_pieces(&seg, 10000, &q).unwrap();
        assert_eq!(b1.unwrap(), b2.unwrap());
        assert_eq!(m1, m2);
        assert_eq!(a1.unwrap(), a2.unwrap());
    }
}
