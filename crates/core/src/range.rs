//! Closed value ranges `[lo, hi]`, the unit of segmentation.
//!
//! Both self-organizing techniques carve the attribute domain into closed,
//! adjacent ranges. Range selections in the paper are of the form
//! `val BETWEEN ql AND qh` (cf. Figure 1), i.e. also closed. All complement
//! arithmetic (`[SL, QL-1]`, `[QH+1, SH]` in Section 5) is expressed through
//! [`ValueRange::split_below`] / [`ValueRange::split_above`] so that the
//! "off-by-one" reasoning lives in exactly one place.

use crate::value::ColumnValue;

/// A non-empty closed range `[lo, hi]` over a column's value domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRange<V> {
    lo: V,
    hi: V,
}

impl<V: ColumnValue> ValueRange<V> {
    /// Creates `[lo, hi]`; returns `None` when `lo > hi` (empty range).
    #[inline]
    pub fn new(lo: V, hi: V) -> Option<Self> {
        (lo <= hi).then_some(ValueRange { lo, hi })
    }

    /// Creates `[lo, hi]`, panicking on an empty range.
    ///
    /// Intended for literals in tests and examples.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "must is the documented panic-on-misuse constructor; fallible callers use new"
    )]
    pub fn must(lo: V, hi: V) -> Self {
        Self::new(lo, hi).expect("ValueRange::must called with lo > hi")
    }

    /// Lower bound (inclusive).
    #[inline]
    pub fn lo(&self) -> V {
        self.lo
    }

    /// Upper bound (inclusive).
    #[inline]
    pub fn hi(&self) -> V {
        self.hi
    }

    /// Whether `v` falls inside the closed range.
    #[inline]
    pub fn contains(&self, v: V) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the two closed ranges share at least one value.
    #[inline]
    pub(crate) fn overlaps(&self, other: &Self) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether `other` is fully inside `self`.
    #[inline]
    pub(crate) fn covers(&self, other: &Self) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// The overlap of the two ranges, if any.
    #[inline]
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        Self::new(lo, hi)
    }

    /// Whether `other` starts exactly where `self` ends (`other.lo == self.hi + 1`).
    ///
    /// Adjacency is what lets a sequence of segments tile the domain with no
    /// holes, the invariant behind both Algorithm 1's segment list and the
    /// replica tree's child partitions.
    #[inline]
    pub fn adjacent_before(&self, other: &Self) -> bool {
        self.hi.succ() == Some(other.lo)
    }

    /// The part of `self` strictly below `at`: `[lo, at-1]`, if non-empty.
    ///
    /// This is the `R1 = [SL, QL-1]` construction of Section 5.
    #[inline]
    pub(crate) fn split_below(&self, at: V) -> Option<Self> {
        if at <= self.lo {
            return None;
        }
        let hi = at.pred()?;
        Self::new(self.lo, hi.min(self.hi))
    }

    /// The part of `self` strictly above `at`: `[at+1, hi]`, if non-empty.
    ///
    /// This is the `[QH+1, SH]` construction of Section 5.
    #[inline]
    pub(crate) fn split_above(&self, at: V) -> Option<Self> {
        if at >= self.hi {
            return None;
        }
        let lo = at.succ()?;
        Self::new(lo.max(self.lo), self.hi)
    }

    /// Width of the range for proportional size estimates.
    #[inline]
    pub(crate) fn width(&self) -> f64 {
        V::range_width(self.lo, self.hi)
    }

    /// A value approximately in the middle of the range.
    #[inline]
    pub fn midpoint(&self) -> V {
        V::midpoint(self.lo, self.hi)
    }

    /// Splits `self` at a query range into up to three pieces:
    /// `(below query, overlap, above query)`.
    ///
    /// The overlap is `None` only when the ranges do not intersect.
    pub(crate) fn partition_by(&self, q: &Self) -> (Option<Self>, Option<Self>, Option<Self>) {
        let mid = self.intersect(q);
        if mid.is_none() {
            return (None, None, None);
        }
        let below = self.split_below(q.lo);
        let above = self.split_above(q.hi);
        (below, mid, above)
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for ValueRange<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}, {:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> ValueRange<u32> {
        ValueRange::must(lo, hi)
    }

    #[test]
    fn new_rejects_inverted() {
        assert!(ValueRange::new(5u32, 4).is_none());
        assert!(ValueRange::new(5u32, 5).is_some());
    }

    #[test]
    fn contains_is_closed_on_both_ends() {
        let q = r(10, 20);
        assert!(q.contains(10));
        assert!(q.contains(20));
        assert!(!q.contains(9));
        assert!(!q.contains(21));
    }

    #[test]
    fn overlaps_closed_semantics() {
        assert!(r(0, 10).overlaps(&r(10, 20)));
        assert!(!r(0, 9).overlaps(&r(10, 20)));
        assert!(r(12, 13).overlaps(&r(10, 20)));
        assert!(r(0, 100).overlaps(&r(10, 20)));
    }

    #[test]
    fn intersect_matches_overlap() {
        assert_eq!(r(0, 10).intersect(&r(5, 20)), Some(r(5, 10)));
        assert_eq!(r(0, 10).intersect(&r(10, 20)), Some(r(10, 10)));
        assert_eq!(r(0, 9).intersect(&r(10, 20)), None);
    }

    #[test]
    fn covers_requires_full_containment() {
        assert!(r(0, 100).covers(&r(10, 20)));
        assert!(r(10, 20).covers(&r(10, 20)));
        assert!(!r(11, 20).covers(&r(10, 20)));
    }

    #[test]
    fn split_below_is_ql_minus_one() {
        let s = r(10, 100);
        assert_eq!(s.split_below(50), Some(r(10, 49)));
        assert_eq!(s.split_below(10), None);
        assert_eq!(s.split_below(9), None);
        // `at` beyond the segment clamps to the segment itself.
        assert_eq!(s.split_below(1000), Some(r(10, 100)));
    }

    #[test]
    fn split_above_is_qh_plus_one() {
        let s = r(10, 100);
        assert_eq!(s.split_above(50), Some(r(51, 100)));
        assert_eq!(s.split_above(100), None);
        assert_eq!(s.split_above(101), None);
        assert_eq!(s.split_above(0), Some(r(10, 100)));
    }

    #[test]
    fn split_at_domain_edge_is_safe() {
        let s = ValueRange::must(0u32, u32::MAX);
        assert_eq!(s.split_below(0), None);
        assert_eq!(s.split_above(u32::MAX), None);
        assert_eq!(s.split_below(1), Some(ValueRange::must(0, 0)));
    }

    #[test]
    fn partition_by_cases() {
        let s = r(10, 100);
        // Query strictly inside: three pieces.
        let (b, m, a) = s.partition_by(&r(40, 60));
        assert_eq!(
            (b, m, a),
            (Some(r(10, 39)), Some(r(40, 60)), Some(r(61, 100)))
        );
        // Query covering the lower part: two pieces.
        let (b, m, a) = s.partition_by(&r(0, 60));
        assert_eq!((b, m, a), (None, Some(r(10, 60)), Some(r(61, 100))));
        // Query covering the upper part: two pieces.
        let (b, m, a) = s.partition_by(&r(60, 200));
        assert_eq!((b, m, a), (Some(r(10, 59)), Some(r(60, 100)), None));
        // Query covering everything: one piece.
        let (b, m, a) = s.partition_by(&r(0, 200));
        assert_eq!((b, m, a), (None, Some(r(10, 100)), None));
        // Disjoint: nothing.
        let (b, m, a) = s.partition_by(&r(200, 300));
        assert_eq!((b, m, a), (None, None, None));
    }

    #[test]
    fn adjacency() {
        assert!(r(0, 9).adjacent_before(&r(10, 20)));
        assert!(!r(0, 10).adjacent_before(&r(10, 20)));
        assert!(!r(0, 8).adjacent_before(&r(10, 20)));
    }

    #[test]
    fn partition_pieces_tile_the_segment() {
        let s = r(10, 100);
        let q = r(40, 60);
        let (b, m, a) = s.partition_by(&q);
        let (b, m, a) = (b.unwrap(), m.unwrap(), a.unwrap());
        assert!(b.adjacent_before(&m));
        assert!(m.adjacent_before(&a));
        assert_eq!(b.lo(), s.lo());
        assert_eq!(a.hi(), s.hi());
    }

    #[test]
    fn float_ranges_work() {
        use crate::value::OrdF64;
        let s = ValueRange::must(OrdF64::from_finite(0.0), OrdF64::from_finite(360.0));
        let q = ValueRange::must(OrdF64::from_finite(205.1), OrdF64::from_finite(205.12));
        let (b, m, a) = s.partition_by(&q);
        let (b, m, a) = (b.unwrap(), m.unwrap(), a.unwrap());
        assert!(b.adjacent_before(&m));
        assert!(m.adjacent_before(&a));
        assert_eq!(m.lo().get(), 205.1);
    }
}
