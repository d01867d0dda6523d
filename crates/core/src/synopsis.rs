//! Per-piece zone maps — the "small materialized aggregates" of
//! Moerkotte (1998) that Hyrise's automatic clustering work builds on
//! (PAPERS.md): each piece carries `{min, max, count, sum}`, computed at
//! reorganization and fold boundaries, consulted before every scan.
//!
//! The paper's whole premise is that reorganization buys cheap future
//! scans; the synopsis makes that payoff explicit. A range predicate is
//! classified against the bounds ([`PieceSynopsis::classify`]):
//!
//! - [`SynopsisClass::Disjoint`] — the piece provably holds no qualifying
//!   value. The read path *prunes* it: zero bytes move, and the tracker is
//!   told via [`crate::AccessTracker::skip`] (so `read + pruned` still
//!   reconstructs the unpruned cost).
//! - [`SynopsisClass::Covered`] — every value qualifies. Counts and sums
//!   are answered O(1) from the stored aggregates; only a collect still
//!   touches the data (the result has to materialize from somewhere).
//! - [`SynopsisClass::Straddle`] — partial overlap; only this class pays
//!   for a scan, through the same [`crate::kernels`] as before, so pruned
//!   and unpruned answers are bit-identical.
//!
//! The bounds are *exact*, not conservative: a covered `MIN`/`MAX` is
//! answered straight from the synopsis, which a loose bound would corrupt.
//! The stored sum of a raw piece is produced by the same accumulation the
//! scan kernels use ([`crate::kernels::sum_all`]), so substituting it for a
//! covered scan of a served piece changes no bits.
//! `validate::synopsis_consistent` guards all of this at every
//! `debug_assert_valid!` boundary.

use crate::kernels;
use crate::range::ValueRange;
use crate::value::ColumnValue;

/// How a predicate relates to a piece's `[min, max]` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynopsisClass {
    /// No stored value can qualify: prune, charge zero scan bytes.
    Disjoint,
    /// Every stored value qualifies: answer count/sum O(1) from the
    /// synopsis.
    Covered,
    /// Partial overlap: scan the payload (the only class that reads).
    Straddle,
}

/// Exact `{min, max, count, sum}` of one piece.
///
/// `sum` is the total of the values' [`ColumnValue::to_f64`] projections,
/// accumulated in scan-kernel order (see the module docs for why that
/// makes covered aggregates bit-identical to the scans they replace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PieceSynopsis<V> {
    min: V,
    max: V,
    count: u64,
    sum: f64,
}

impl<V: ColumnValue> PieceSynopsis<V> {
    /// Assembles a synopsis from parts the caller already holds. The
    /// caller asserts exactness; `validate::synopsis_consistent` checks it.
    pub fn new(min: V, max: V, count: u64, sum: f64) -> Self {
        PieceSynopsis {
            min,
            max,
            count,
            sum,
        }
    }

    /// Synopsis of an ascending-sorted slice: bounds O(1) from the ends,
    /// sum via the chunked kernel. `None` when empty.
    pub(crate) fn from_sorted(values: &[V]) -> Option<Self> {
        let (&min, &max) = (values.first()?, values.last()?);
        Some(PieceSynopsis {
            min,
            max,
            count: values.len() as u64,
            sum: kernels::sum_all(values),
        })
    }

    /// Synopsis of an arbitrary-order slice, bounds and sum folded in one
    /// pass (`kernels::min_max_sum_all`, whose sum is bit-identical to
    /// the chunked `kernels::sum_all`). `None` when empty.
    pub fn from_values(values: &[V]) -> Option<Self> {
        let (min, max, sum) = kernels::min_max_sum_all(values)?;
        Some(PieceSynopsis {
            min,
            max,
            count: values.len() as u64,
            sum,
        })
    }

    /// Smallest stored value.
    pub fn min(&self) -> V {
        self.min
    }

    /// Largest stored value.
    pub fn max(&self) -> V {
        self.max
    }

    /// Stored tuple count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the stored values' `to_f64` projections.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Classifies `q` against the bounds — the pruning decision.
    pub(crate) fn classify(&self, q: &ValueRange<V>) -> SynopsisClass {
        if q.hi() < self.min || self.max < q.lo() {
            SynopsisClass::Disjoint
        } else if q.lo() <= self.min && self.max <= q.hi() {
            SynopsisClass::Covered
        } else {
            SynopsisClass::Straddle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn() -> PieceSynopsis<u32> {
        PieceSynopsis::from_sorted(&[10, 11, 15, 20]).expect("non-empty")
    }

    #[test]
    fn from_sorted_reads_the_ends() {
        let s = syn();
        assert_eq!((s.min(), s.max(), s.count()), (10, 20, 4));
        assert_eq!(s.sum(), 56.0);
    }

    #[test]
    fn from_values_folds_unsorted_input() {
        let s = PieceSynopsis::from_values(&[15u32, 20, 10, 11]).expect("non-empty");
        assert_eq!((s.min(), s.max(), s.count(), s.sum()), (10, 20, 4, 56.0));
        assert_eq!(PieceSynopsis::<u32>::from_values(&[]), None);
        assert_eq!(PieceSynopsis::<u32>::from_sorted(&[]), None);
    }

    #[test]
    fn classify_covers_all_three_classes_and_edges() {
        let s = syn();
        // Strictly outside on both sides.
        assert_eq!(s.classify(&ValueRange::must(0, 9)), SynopsisClass::Disjoint);
        assert_eq!(
            s.classify(&ValueRange::must(21, 99)),
            SynopsisClass::Disjoint
        );
        // Covering, including the exact-bounds edge.
        assert_eq!(
            s.classify(&ValueRange::must(10, 20)),
            SynopsisClass::Covered
        );
        assert_eq!(s.classify(&ValueRange::must(0, 99)), SynopsisClass::Covered);
        // Straddling each side, and fully interior.
        assert_eq!(
            s.classify(&ValueRange::must(0, 10)),
            SynopsisClass::Straddle
        );
        assert_eq!(
            s.classify(&ValueRange::must(20, 99)),
            SynopsisClass::Straddle
        );
        assert_eq!(
            s.classify(&ValueRange::must(11, 19)),
            SynopsisClass::Straddle
        );
    }

    #[test]
    fn single_value_piece_classifies_exactly() {
        let s = PieceSynopsis::from_sorted(&[42u32]).expect("non-empty");
        assert_eq!(
            s.classify(&ValueRange::must(42, 42)),
            SynopsisClass::Covered
        );
        assert_eq!(
            s.classify(&ValueRange::must(43, 50)),
            SynopsisClass::Disjoint
        );
    }
}
