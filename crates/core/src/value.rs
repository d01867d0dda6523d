//! Value types storable in a self-organizing column.
//!
//! The paper's algorithms manipulate *closed value ranges* with
//! `ql - 1` / `qh + 1` arithmetic over an integer domain (Section 5).  The
//! [`ColumnValue`] trait captures exactly the operations the algorithms need:
//! a total order, a discrete successor/predecessor, and a projection to `f64`
//! used for uniform-interpolation size estimates and mean-split points.
//!
//! Implementations are provided for the unsigned/signed fixed-width integers
//! used by the Section 6.1 simulation and for [`OrdF64`], a totally ordered
//! `f64` wrapper used by the SkyServer-style `ra` column of Section 6.2.

use std::fmt::Debug;

/// A value that can live in a self-organizing column.
///
/// The domain must be totally ordered and *discrete*: [`ColumnValue::succ`]
/// and [`ColumnValue::pred`] step to the adjacent representable value, which
/// is what makes closed-range complement arithmetic (`[lo, ql-1]`,
/// `[qh+1, hi]`) exact. For floating point, "adjacent" means the next
/// representable number, which preserves the same adjacency algebra.
pub trait ColumnValue: Copy + Ord + Debug + Send + Sync + 'static {
    /// Storage footprint of one value in bytes, as counted by the paper's
    /// simulator (4-byte integers in Section 6.1, 8-byte reals in 6.2).
    const BYTES: u64;

    /// The next representable value, or `None` at the top of the domain.
    fn succ(self) -> Option<Self>;

    /// The previous representable value, or `None` at the bottom of the domain.
    fn pred(self) -> Option<Self>;

    /// Projection used for interpolation estimates and split-point selection.
    fn to_f64(self) -> f64;

    /// Inverse of [`Self::to_f64`], clamped to the representable domain.
    ///
    /// Used by workload generators to place query bounds at fractional
    /// domain positions. `x` must not be NaN.
    fn from_f64(x: f64) -> Self;

    /// A value approximately halfway between `lo` and `hi` (inclusive).
    ///
    /// Used by the Adaptive Page Model's rule 3 when it splits a segment at
    /// "an approximation of the mean value in the segment" (Section 3.2.2).
    /// The result is guaranteed to satisfy `lo <= mid <= hi`.
    fn midpoint(lo: Self, hi: Self) -> Self;

    /// Width of the closed range `[lo, hi]` for proportional estimates.
    ///
    /// For integers this is the population count `hi - lo + 1`; for reals it
    /// is the length `hi - lo` (the +1 vanishes in the continuum limit).
    fn range_width(lo: Self, hi: Self) -> f64;

    /// Order-preserving projection onto `u64`, the common currency of the
    /// packed codecs of the `compress` module: `a <= b` iff
    /// `a.to_key() <= b.to_key()`. Returns `None` for types wider than 64
    /// bits ([`crate::paired::Pair`]), which do not pack.
    ///
    /// `-0.0` normalizes to `+0.0` so `Ord`-equal values share one key; the
    /// round trip through [`Self::from_key`] is otherwise lossless.
    fn to_key(self) -> Option<u64>;

    /// Inverse of [`Self::to_key`]; `None` when the bit pattern does not
    /// decode to a valid value (e.g. NaN keys for [`OrdF64`], out-of-width
    /// keys for narrow integers).
    fn from_key(key: u64) -> Option<Self>;
}

macro_rules! impl_column_value_int {
    ($($t:ty => $bytes:expr),* $(,)?) => {$(
        impl ColumnValue for $t {
            const BYTES: u64 = $bytes;

            #[inline]
            fn succ(self) -> Option<Self> {
                self.checked_add(1)
            }

            #[inline]
            fn pred(self) -> Option<Self> {
                self.checked_sub(1)
            }

            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn from_f64(x: f64) -> Self {
                debug_assert!(!x.is_nan());
                x.round().clamp(<$t>::MIN as f64, <$t>::MAX as f64) as $t
            }

            #[inline]
            fn midpoint(lo: Self, hi: Self) -> Self {
                debug_assert!(lo <= hi);
                // Overflow-safe midpoint (i128 covers every impl'd width);
                // floors, i.e. rounds toward `lo`.
                ((lo as i128 + hi as i128).div_euclid(2)) as $t
            }

            #[inline]
            fn range_width(lo: Self, hi: Self) -> f64 {
                debug_assert!(lo <= hi);
                (hi - lo) as f64 + 1.0
            }

            #[inline]
            fn to_key(self) -> Option<u64> {
                // Offset encoding: subtracting MIN maps the whole domain
                // onto [0, 2^w) monotonically, for signed and unsigned
                // alike (i128 covers every impl'd width).
                Some((self as i128 - <$t>::MIN as i128) as u64)
            }

            #[inline]
            fn from_key(key: u64) -> Option<Self> {
                <$t>::try_from(key as i128 + <$t>::MIN as i128).ok()
            }
        }
    )*};
}

impl_column_value_int! {
    u32 => 4,
    u64 => 8,
    i32 => 4,
    i64 => 8,
    u16 => 2,
    i16 => 2,
}

/// A totally ordered, non-NaN `f64` for real-valued columns.
///
/// The SkyServer `ra` (right ascension) column of Section 6.2 is a real
/// type. `OrdF64` rejects NaN at construction so that `Ord` is total, and
/// steps with [`f64::next_up`]/[`f64::next_down`] so the closed-range
/// complement arithmetic of the replica tree stays exact.
#[derive(Clone, Copy, PartialEq)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wraps a finite or infinite (but not NaN) `f64`.
    ///
    /// Returns `None` for NaN, which has no place in a total order.
    #[inline]
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            Some(OrdF64(v))
        }
    }

    /// Wraps a value that is statically known not to be NaN.
    ///
    /// # Panics
    /// Panics if `v` is NaN.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "documented contract: from_finite panics on NaN; fallible callers use new"
    )]
    pub fn from_finite(v: f64) -> Self {
        Self::new(v).expect("OrdF64::from_finite called with NaN")
    }

    /// The inner `f64`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Debug for OrdF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl std::fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Eq for OrdF64 {}

/// The comparison operators compare the inner `f64`s directly. The default
/// `lt`/`le`/`gt`/`ge` go through [`Ord::cmp`], whose NaN check is a panic
/// edge inside every `lo <= v`: with it no scan kernel over an `OrdF64`
/// column autovectorizes. Neither operand can be NaN (the field is private
/// and every constructor rejects it), so the bare float comparison agrees
/// with `cmp` on every pair of values — including `-0.0 == +0.0`.
impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn lt(&self, other: &Self) -> bool {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan());
        self.0 < other.0
    }

    #[inline]
    fn le(&self, other: &Self) -> bool {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan());
        self.0 <= other.0
    }

    #[inline]
    fn gt(&self, other: &Self) -> bool {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan());
        self.0 > other.0
    }

    #[inline]
    fn ge(&self, other: &Self) -> bool {
        debug_assert!(!self.0.is_nan() && !other.0.is_nan());
        self.0 >= other.0
    }
}

impl Ord for OrdF64 {
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "constructors reject NaN, so the stored value is always finite"
    )]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: NaN is rejected at construction.
        self.0
            .partial_cmp(&other.0)
            .expect("OrdF64 invariant violated: NaN")
    }
}

impl From<OrdF64> for f64 {
    #[inline]
    fn from(v: OrdF64) -> f64 {
        v.0
    }
}

impl ColumnValue for OrdF64 {
    const BYTES: u64 = 8;

    #[inline]
    fn succ(self) -> Option<Self> {
        if self.0 == f64::INFINITY {
            None
        } else {
            Some(OrdF64(self.0.next_up()))
        }
    }

    #[inline]
    fn pred(self) -> Option<Self> {
        if self.0 == f64::NEG_INFINITY {
            None
        } else {
            Some(OrdF64(self.0.next_down()))
        }
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self.0
    }

    #[inline]
    fn from_f64(x: f64) -> Self {
        OrdF64::from_finite(x)
    }

    #[inline]
    fn midpoint(lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi);
        let mid = lo.0 + (hi.0 - lo.0) * 0.5;
        // Guard against rounding drifting outside the closed interval.
        OrdF64(mid.clamp(lo.0, hi.0))
    }

    #[inline]
    fn range_width(lo: Self, hi: Self) -> f64 {
        debug_assert!(lo <= hi);
        hi.0 - lo.0
    }

    #[inline]
    fn to_key(self) -> Option<u64> {
        // The classic monotone f64 -> u64 map: flip all bits of negatives,
        // set the sign bit of non-negatives. `-0.0` normalizes to `+0.0`
        // first so Ord-equal zeros share a key.
        let v = if self.0 == 0.0 { 0.0 } else { self.0 };
        let b = v.to_bits();
        Some(if b >> 63 == 1 { !b } else { b | (1 << 63) })
    }

    #[inline]
    fn from_key(key: u64) -> Option<Self> {
        let b = if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        };
        OrdF64::new(f64::from_bits(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_succ_pred_roundtrip() {
        assert_eq!(5u32.succ(), Some(6));
        assert_eq!(5u32.pred(), Some(4));
        assert_eq!(0u32.pred(), None);
        assert_eq!(u32::MAX.succ(), None);
        assert_eq!(i32::MIN.pred(), None);
        assert_eq!(i32::MAX.succ(), None);
        assert_eq!((-1i32).succ(), Some(0));
    }

    #[test]
    fn int_midpoint_bounds() {
        // Qualified calls: std has inherent `midpoint` methods that would
        // otherwise shadow the trait (with different rounding for signed).
        assert_eq!(<u32 as ColumnValue>::midpoint(0, 10), 5);
        assert_eq!(<u32 as ColumnValue>::midpoint(10, 10), 10);
        assert_eq!(<u32 as ColumnValue>::midpoint(10, 11), 10);
        // No overflow near the top of the domain.
        assert_eq!(
            <u32 as ColumnValue>::midpoint(u32::MAX - 2, u32::MAX),
            u32::MAX - 1
        );
        // Floors: rounds toward the low end.
        assert_eq!(<i32 as ColumnValue>::midpoint(i32::MIN, i32::MAX), -1);
    }

    #[test]
    fn int_range_width_counts_population() {
        assert_eq!(u32::range_width(3, 3), 1.0);
        assert_eq!(u32::range_width(0, 9), 10.0);
        assert_eq!(i32::range_width(-5, 4), 10.0);
    }

    #[test]
    fn ordf64_rejects_nan() {
        assert!(OrdF64::new(f64::NAN).is_none());
        assert!(OrdF64::new(0.0).is_some());
        assert!(OrdF64::new(f64::INFINITY).is_some());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ordf64_from_finite_panics_on_nan() {
        let _ = OrdF64::from_finite(f64::NAN);
    }

    #[test]
    fn ordf64_total_order() {
        let a = OrdF64::from_finite(1.0);
        let b = OrdF64::from_finite(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        let mut v = vec![b, a];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }

    /// Every float class the operators could disagree with `cmp` on.
    fn float_grid() -> Vec<OrdF64> {
        [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324, // largest negative subnormal
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0, // a subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            205.115,
            f64::MAX,
            f64::INFINITY,
        ]
        .into_iter()
        .map(OrdF64::from_finite)
        .collect()
    }

    #[test]
    fn ordf64_operators_agree_with_cmp_on_the_whole_grid() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let grid = float_grid();
        for &a in &grid {
            for &b in &grid {
                let ord = a.cmp(&b);
                assert_eq!(a < b, ord == Less, "{a:?} < {b:?}");
                assert_eq!(a <= b, ord != Greater, "{a:?} <= {b:?}");
                assert_eq!(a > b, ord == Greater, "{a:?} > {b:?}");
                assert_eq!(a >= b, ord != Less, "{a:?} >= {b:?}");
                assert_eq!(a == b, ord == Equal, "{a:?} == {b:?}");
                assert_eq!(a.partial_cmp(&b), Some(ord));
            }
        }
    }

    #[test]
    fn ordf64_sort_and_partition_point_are_unchanged() {
        // A deterministic shuffle of the grid, twice over (duplicates).
        let grid = float_grid();
        let n = grid.len();
        let shuffled: Vec<OrdF64> = (0..2 * n).map(|i| grid[(i * 7 + 3) % n]).collect();
        let mut by_ord = shuffled.clone();
        by_ord.sort();
        let mut by_cmp = shuffled.clone();
        by_cmp.sort_by(|a, b| a.get().partial_cmp(&b.get()).expect("no NaN in the grid"));
        // Bitwise, so the stable order of the two zeros is pinned too.
        let bits = |v: &[OrdF64]| v.iter().map(|x| x.get().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_ord), bits(&by_cmp));
        for &t in &grid {
            let below = by_ord.iter().filter(|x| x.get() < t.get()).count();
            let upto = by_ord.iter().filter(|x| x.get() <= t.get()).count();
            assert_eq!(by_ord.partition_point(|x| *x < t), below, "{t:?}");
            assert_eq!(by_ord.partition_point(|x| *x <= t), upto, "{t:?}");
        }
    }

    #[test]
    fn ordf64_succ_is_adjacent() {
        let a = OrdF64::from_finite(1.0);
        let s = a.succ().unwrap();
        assert!(s > a);
        assert_eq!(s.pred().unwrap(), a);
        assert_eq!(OrdF64::from_finite(f64::INFINITY).succ(), None);
        assert_eq!(OrdF64::from_finite(f64::NEG_INFINITY).pred(), None);
    }

    #[test]
    fn ordf64_midpoint_in_interval() {
        let lo = OrdF64::from_finite(205.1);
        let hi = OrdF64::from_finite(205.12);
        let m = OrdF64::midpoint(lo, hi);
        assert!(lo <= m && m <= hi);
        let same = OrdF64::midpoint(lo, lo);
        assert_eq!(same, lo);
    }

    #[test]
    fn bytes_constants() {
        assert_eq!(u32::BYTES, 4);
        assert_eq!(OrdF64::BYTES, 8);
        assert_eq!(u16::BYTES, 2);
    }

    fn assert_key_monotone_roundtrip<V: ColumnValue>(sorted: &[V]) {
        let keys: Vec<u64> = sorted.iter().map(|v| v.to_key().unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be ordered");
        for (&v, &k) in sorted.iter().zip(&keys) {
            assert_eq!(V::from_key(k), Some(v), "round trip for {v:?}");
        }
    }

    #[test]
    fn int_keys_are_monotone_and_roundtrip() {
        assert_key_monotone_roundtrip(&[0u32, 1, 500, u32::MAX]);
        assert_key_monotone_roundtrip(&[0u64, 9, u64::MAX]);
        assert_key_monotone_roundtrip(&[i32::MIN, -7, -1, 0, 1, i32::MAX]);
        assert_key_monotone_roundtrip(&[i64::MIN, -1, 0, i64::MAX]);
        assert_key_monotone_roundtrip(&[i16::MIN, -1i16, 0, i16::MAX]);
        assert_key_monotone_roundtrip(&[0u16, 1, u16::MAX]);
    }

    #[test]
    fn float_keys_are_monotone_and_roundtrip() {
        let sorted: Vec<OrdF64> = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            205.115,
            1e300,
            f64::INFINITY,
        ]
        .into_iter()
        .map(OrdF64::from_finite)
        .collect();
        assert_key_monotone_roundtrip(&sorted);
    }

    #[test]
    fn float_key_normalizes_negative_zero() {
        let nz = OrdF64::from_finite(-0.0);
        let pz = OrdF64::from_finite(0.0);
        assert_eq!(nz.to_key(), pz.to_key());
        assert_eq!(OrdF64::from_key(pz.to_key().unwrap()), Some(pz));
    }

    #[test]
    fn from_key_rejects_invalid_patterns() {
        // Narrow integer: key above the domain width.
        assert_eq!(<u16 as ColumnValue>::from_key(1 << 20), None);
        // Float: a NaN bit pattern has no OrdF64 value.
        let nan_key = f64::NAN.to_bits() | (1 << 63);
        assert_eq!(<OrdF64 as ColumnValue>::from_key(nan_key), None);
    }
}
