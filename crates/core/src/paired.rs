//! Tail-paired column values: `(value, oid)` pairs that ride through any
//! [`ColumnStrategy`](crate::ColumnStrategy) unchanged.
//!
//! The simulator's strategies organize bare values, but the MAL layer
//! (Section 3.1) works on bats whose rows are `(oid, value)` pairs —
//! reconstruction joins (Figure 1) need the original oids back after any
//! amount of reorganization. [`Pair`] makes the pair itself the column
//! value: ordered by value first and oid second, it satisfies the
//! [`ColumnValue`] adjacency algebra exactly, so every strategy —
//! segmentation, replication, cracking, sorting — carries the oids along
//! for free while still partitioning by value.
//!
//! A value-range query `[ql, qh]` becomes the pair range
//! `[(ql, 0), (qh, u64::MAX)]` (see [`ValueRange::paired`]), which selects
//! precisely the rows whose *value* lies in the query regardless of oid.

use crate::range::ValueRange;
use crate::value::ColumnValue;

/// One `(value, oid)` row, ordered by value then oid.
///
/// The derived lexicographic order (value first) is what makes a paired
/// column behave, for every range query of the form
/// `[(ql, 0), (qh, u64::MAX)]`, exactly like the bare value column — while
/// the oid tiebreak keeps the order total so strategies can split between
/// equal values without losing rows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair<V> {
    /// The tail value the strategies organize by.
    pub value: V,
    /// The row's head oid, preserved verbatim through reorganization.
    pub oid: u64,
}

impl<V> Pair<V> {
    /// A `(value, oid)` pair.
    #[inline]
    pub fn new(value: V, oid: u64) -> Self {
        Pair { value, oid }
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for Pair<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}@{}", self.value, self.oid)
    }
}

impl<V: ColumnValue> ColumnValue for Pair<V> {
    /// Value bytes plus the 8-byte oid — matching a bat piece that stores
    /// an explicit oid head next to its tail column.
    const BYTES: u64 = V::BYTES + 8;

    #[inline]
    fn succ(self) -> Option<Self> {
        if self.oid < u64::MAX {
            Some(Pair::new(self.value, self.oid + 1))
        } else {
            self.value.succ().map(|v| Pair::new(v, 0))
        }
    }

    #[inline]
    fn pred(self) -> Option<Self> {
        if self.oid > 0 {
            Some(Pair::new(self.value, self.oid - 1))
        } else {
            self.value.pred().map(|v| Pair::new(v, u64::MAX))
        }
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self.value.to_f64()
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        Pair::new(V::from_f64(x), 0)
    }

    #[inline]
    fn midpoint(lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi);
        let v = V::midpoint(lo.value, hi.value);
        // Keep the result inside [lo, hi]: when the value midpoint collapses
        // onto an endpoint's value, the oid component must respect that
        // endpoint's oid bound.
        let oid = if v == lo.value && v == hi.value {
            lo.oid + (hi.oid - lo.oid) / 2
        } else if v == lo.value {
            lo.oid
        } else {
            0
        };
        Pair::new(v, oid)
    }

    #[inline]
    fn range_width(lo: Self, hi: Self) -> f64 {
        // The oid is a tiebreaker, not a dimension: proportional estimates
        // are over the value domain only.
        V::range_width(lo.value, hi.value)
    }

    #[inline]
    fn to_key(self) -> Option<u64> {
        // A (value, oid) pair is wider than 64 bits, so it has no packed
        // representation.
        None
    }

    #[inline]
    fn from_key(_key: u64) -> Option<Self> {
        None
    }
}

impl<V: ColumnValue> ValueRange<V> {
    /// Lifts a value range into pair space: `[(lo, 0), (hi, u64::MAX)]`,
    /// the pair query selecting exactly the rows whose value lies in
    /// `self`, whatever their oids.
    #[inline]
    pub fn paired(&self) -> ValueRange<Pair<V>> {
        ValueRange::must(Pair::new(self.lo(), 0), Pair::new(self.hi(), u64::MAX))
    }
}

/// Zips parallel oid/value columns into pair rows.
pub fn pair_rows<V: ColumnValue>(rows: impl IntoIterator<Item = (u64, V)>) -> Vec<Pair<V>> {
    rows.into_iter()
        .map(|(oid, value)| Pair::new(value, oid))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::OrdF64;

    #[test]
    fn order_is_value_then_oid() {
        let a = Pair::new(5u32, 9);
        let b = Pair::new(5u32, 10);
        let c = Pair::new(6u32, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn succ_pred_are_adjacent_across_the_oid_rollover() {
        let top = Pair::new(5u32, u64::MAX);
        assert_eq!(top.succ(), Some(Pair::new(6, 0)));
        assert_eq!(Pair::new(6u32, 0).pred(), Some(top));
        assert_eq!(Pair::new(5u32, 3).succ(), Some(Pair::new(5, 4)));
        // Domain edges terminate.
        assert_eq!(Pair::new(u32::MAX, u64::MAX).succ(), None);
        assert_eq!(Pair::new(0u32, 0).pred(), None);
    }

    #[test]
    fn paired_range_selects_by_value_only() {
        let q = ValueRange::must(10u32, 20).paired();
        assert!(q.contains(Pair::new(10, 0)));
        assert!(q.contains(Pair::new(10, u64::MAX)));
        assert!(q.contains(Pair::new(20, 7)));
        assert!(!q.contains(Pair::new(9, u64::MAX)));
        assert!(!q.contains(Pair::new(21, 0)));
    }

    #[test]
    fn midpoint_stays_inside_the_range() {
        let cases = [
            (Pair::new(0u32, 0), Pair::new(10, 5)),
            (Pair::new(4u32, 100), Pair::new(5, 3)),
            (Pair::new(7u32, 10), Pair::new(7, 20)),
            (Pair::new(0u32, u64::MAX), Pair::new(1, 0)),
        ];
        for (lo, hi) in cases {
            let m = <Pair<u32> as ColumnValue>::midpoint(lo, hi);
            assert!(lo <= m && m <= hi, "midpoint({lo:?}, {hi:?}) = {m:?}");
        }
    }

    #[test]
    fn width_and_bytes_come_from_the_value() {
        assert_eq!(Pair::<u32>::BYTES, 12);
        assert_eq!(Pair::<OrdF64>::BYTES, 16);
        let w = Pair::<u32>::range_width(Pair::new(0, 99), Pair::new(9, 1));
        assert_eq!(w, 10.0);
    }

    #[test]
    fn pair_rows_preserves_oids() {
        let rows = pair_rows([(7u64, 3u32), (9, 1)]);
        assert_eq!(rows[0], Pair::new(3, 7));
        assert_eq!(rows[1], Pair::new(1, 9));
    }

    #[test]
    fn ordf64_pairs_step_exactly() {
        let p = Pair::new(OrdF64::from_finite(205.1), u64::MAX);
        let s = p.succ().unwrap();
        assert_eq!(s.value.get(), 205.1f64.next_up());
        assert_eq!(s.oid, 0);
    }
}
