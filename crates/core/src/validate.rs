//! Deep structural invariant validators for the self-organizing layouts.
//!
//! Every reorganization technique in the paper preserves one structural
//! contract: the physical pieces of a column are **sorted, pairwise
//! disjoint, adjacent, and tile the attribute domain** (Section 4's
//! segment list, Section 5's covering leaf set of the replica tree, the
//! epoch snapshot's frozen piece array). PRs 4–6 multiplied the surfaces
//! where that can silently break — sharded nodes, migrations, epoch
//! publication — so the checks live here once, as public
//! functions over the public types, and are invoked at every
//! reorganization boundary through
//! [`debug_assert_valid!`](crate::debug_assert_valid) and by the
//! corruption-injection tests, which expect typed errors.
//!
//! Two cost tiers, by design:
//!
//! * **Cheap** ([`ranges_partition`], [`strategy_pieces`],
//!   `replica_tree`) — O(#pieces) range arithmetic, no payload access.
//!   Safe to run after every query inside `debug_assert_valid!`.
//! * **Deep** (`column()`, [`payload`], [`encoded_consistent`]) — walks
//!   values or packed words. For debug builds and tests.

use crate::column::SegmentedColumn;
use crate::kernels;
use crate::range::ValueRange;
use crate::replication::ReplicaTree;
use crate::segment::SegmentData;
use crate::strategy::ColumnStrategy;
use crate::synopsis::PieceSynopsis;
use crate::value::ColumnValue;
use crate::EncodedPayload;

/// A structural invariant violation, carrying enough context to locate
/// the broken piece without re-running the check under a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A piece list that must be non-empty is empty.
    Empty {
        /// What structure was empty.
        what: &'static str,
    },
    /// The piece ranges do not span the declared domain.
    DomainMismatch {
        /// The declared domain, rendered.
        domain: String,
        /// The span the pieces actually cover, rendered.
        found: String,
    },
    /// Adjacent pieces `index` and `index + 1` overlap.
    Overlap {
        /// Index of the left piece of the overlapping pair.
        index: usize,
        /// The two ranges, rendered.
        detail: String,
    },
    /// Pieces `index` and `index + 1` leave a hole or are out of order.
    Gap {
        /// Index of the left piece of the non-adjacent pair.
        index: usize,
        /// The two ranges, rendered.
        detail: String,
    },
    /// A piece holds a value outside its declared range.
    OutOfRange {
        /// Index of the offending piece.
        index: usize,
        /// The value and range, rendered.
        detail: String,
    },
    /// A piece that must be ascending is not sorted.
    NotSorted {
        /// Index of the offending piece.
        index: usize,
    },
    /// The per-piece tuple counts no longer sum to the column total.
    CountDrift {
        /// The recorded total.
        expected: u64,
        /// The sum over pieces.
        found: u64,
    },
    /// A packed payload or a delta run is internally inconsistent.
    Payload {
        /// Index of the offending piece (0 for standalone payloads).
        index: usize,
        /// What was inconsistent.
        reason: String,
    },
    /// A piece's zone-map synopsis disagrees with its data — pruning
    /// decisions made from it would be wrong.
    Synopsis {
        /// Index of the offending piece.
        index: usize,
        /// What disagreed (bounds, count or sum), rendered.
        detail: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Empty { what } => write!(f, "{what} has no pieces"),
            Violation::DomainMismatch { domain, found } => {
                write!(f, "pieces span {found}, domain is {domain}")
            }
            Violation::Overlap { index, detail } => {
                write!(f, "pieces {index} and {} overlap: {detail}", index + 1)
            }
            Violation::Gap { index, detail } => {
                write!(f, "gap between pieces {index} and {}: {detail}", index + 1)
            }
            Violation::OutOfRange { index, detail } => {
                write!(f, "piece {index} holds out-of-range values: {detail}")
            }
            Violation::NotSorted { index } => write!(f, "piece {index} is not sorted"),
            Violation::CountDrift { expected, found } => {
                write!(f, "tuple count drifted: {found} != {expected}")
            }
            Violation::Payload { index, reason } => {
                write!(f, "piece {index} payload invalid: {reason}")
            }
            Violation::Synopsis { index, detail } => {
                write!(f, "piece {index} synopsis inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for Violation {}

fn render<V: ColumnValue>(r: &ValueRange<V>) -> String {
    format!("[{:?}, {:?}]", r.lo(), r.hi())
}

/// Checks that `ranges` are sorted ascending and pairwise disjoint.
///
/// This is the weak form every piece list must satisfy; it does **not**
/// require adjacency or domain coverage (replica `mat_segments` nest, so
/// only flattened partitions get the strong [`ranges_partition`] check).
pub fn ranges_disjoint_sorted<V: ColumnValue>(ranges: &[ValueRange<V>]) -> Result<(), Violation> {
    for (i, w) in ranges.windows(2).enumerate() {
        if w[1].lo() <= w[0].hi() {
            let detail = format!("{} then {}", render(&w[0]), render(&w[1]));
            return Err(if w[0].overlaps(&w[1]) {
                Violation::Overlap { index: i, detail }
            } else {
                Violation::Gap { index: i, detail }
            });
        }
    }
    Ok(())
}

/// Checks that `ranges` form a partition of `domain`: non-empty, sorted,
/// pairwise adjacent (no hole, no overlap), first at `domain.lo()`, last
/// at `domain.hi()`.
pub fn ranges_partition<V: ColumnValue>(
    domain: &ValueRange<V>,
    ranges: &[ValueRange<V>],
) -> Result<(), Violation> {
    let (Some(first), Some(last)) = (ranges.first(), ranges.last()) else {
        return Err(Violation::Empty { what: "partition" });
    };
    for (i, w) in ranges.windows(2).enumerate() {
        if !w[0].adjacent_before(&w[1]) {
            let detail = format!("{} then {}", render(&w[0]), render(&w[1]));
            return Err(if w[0].overlaps(&w[1]) {
                Violation::Overlap { index: i, detail }
            } else {
                Violation::Gap { index: i, detail }
            });
        }
    }
    if first.lo() != domain.lo() || last.hi() != domain.hi() {
        return Err(Violation::DomainMismatch {
            domain: render(domain),
            found: format!("[{:?}, {:?}]", first.lo(), last.hi()),
        });
    }
    Ok(())
}

fn fields_per_word(width: u32) -> u64 {
    64 / width as u64
}

/// Structural self-consistency of a packed payload, checked **before**
/// anything decodes it: declared width in `1..=64`, enough packed words
/// for the declared tuple count, dictionary codes inside the table.
pub fn encoded_consistent(payload: &EncodedPayload) -> Result<(), Violation> {
    let fail = |reason: String| Violation::Payload { index: 0, reason };
    match payload {
        EncodedPayload::Rle { runs } => {
            if runs.iter().any(|&(_, n)| n == 0) {
                return Err(fail("RLE run with zero length".into()));
            }
        }
        EncodedPayload::For {
            width, len, words, ..
        }
        | EncodedPayload::Dict {
            width, len, words, ..
        } => {
            if *width == 0 || *width > 64 {
                return Err(fail(format!("field width {width} outside 1..=64")));
            }
            let need = len.div_ceil(fields_per_word(*width));
            if words.len() as u64 != need {
                return Err(fail(format!(
                    "{len} fields of width {width} need {need} words, found {}",
                    words.len()
                )));
            }
            if let EncodedPayload::Dict { table, .. } = payload {
                let mask = if *width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                let fpw = fields_per_word(*width);
                let mut remaining = *len;
                for &w in words {
                    let mut x = w;
                    for _ in 0..remaining.min(fpw) {
                        if (x & mask) as usize >= table.len() {
                            return Err(fail(format!(
                                "dictionary code {} outside table of {}",
                                x & mask,
                                table.len()
                            )));
                        }
                        x = x.checked_shr(*width).unwrap_or(0);
                    }
                    remaining = remaining.saturating_sub(fpw);
                }
            }
        }
    }
    Ok(())
}

/// Deep validation of one piece's values against its declared range.
pub fn payload<V: ColumnValue>(range: &ValueRange<V>, values: &[V]) -> Result<(), Violation> {
    match values.iter().find(|v| !range.contains(**v)) {
        Some(v) => Err(Violation::OutOfRange {
            index: 0,
            detail: format!("{v:?} outside {}", render(range)),
        }),
        None => Ok(()),
    }
}

/// Checks a piece's cached zone-map synopsis against its values: exact
/// bounds (they answer covered `MIN`/`MAX` directly, so "roughly right"
/// is wrong), exact count, and a sum bit-identical to a fresh
/// `kernels::sum_all` over the same values. Every synopsis is built by
/// [`PieceSynopsis::from_values`] or `PieceSynopsis::from_sorted`, which
/// accumulate in exactly that order, so any difference is drift.
///
/// An empty piece must carry no synopsis, and a non-empty one must carry
/// one: a missing synopsis silently disables pruning, which is a bug
/// worth catching, not a degraded mode.
pub fn synopsis_consistent<V: ColumnValue>(
    syn: Option<&PieceSynopsis<V>>,
    values: &[V],
) -> Result<(), Violation> {
    let fail = |detail: String| Violation::Synopsis { index: 0, detail };
    let Some(syn) = syn else {
        if values.is_empty() {
            return Ok(());
        }
        return Err(fail(format!("{} values but no synopsis", values.len())));
    };
    let Some((min, max)) = kernels::min_max_all(values) else {
        return Err(fail("synopsis over an empty piece".into()));
    };
    if syn.count() != values.len() as u64 {
        return Err(fail(format!(
            "count {} but {} values",
            syn.count(),
            values.len()
        )));
    }
    if syn.min() != min || syn.max() != max {
        return Err(fail(format!(
            "bounds [{:?}, {:?}] but data spans [{min:?}, {max:?}]",
            syn.min(),
            syn.max()
        )));
    }
    let expect = kernels::sum_all(values);
    if syn.sum().to_bits() != expect.to_bits() {
        return Err(fail(format!("sum {} but values total {expect}", syn.sum())));
    }
    Ok(())
}

/// Deep validation of one segment: values inside the segment's range
/// ([`payload`]), ascending when the segment is flagged sorted (a split
/// or a served read would binary-search garbage otherwise), cached
/// synopsis exact against them ([`synopsis_consistent`]).
pub(crate) fn segment<V: ColumnValue>(seg: &SegmentData<V>) -> Result<(), Violation> {
    payload(&seg.range(), seg.values())?;
    if seg.is_sorted() && !seg.values().windows(2).all(|w| w[0] <= w[1]) {
        return Err(Violation::NotSorted { index: 0 });
    }
    synopsis_consistent(seg.synopsis().as_ref(), seg.values())
}

/// Deep structural validation of a [`SegmentedColumn`]: segment ranges
/// partition the domain, every segment's values are in range, every
/// cached synopsis matches its data, and the per-segment tuple counts sum
/// to the recorded total.
pub(crate) fn column<V: ColumnValue>(col: &SegmentedColumn<V>) -> Result<(), Violation> {
    let domain = col.domain();
    let ranges: Vec<ValueRange<V>> = col.segments().iter().map(|s| s.range()).collect();
    ranges_partition(&domain, &ranges)?;
    let mut count = 0u64;
    for (i, seg) in col.segments().iter().enumerate() {
        segment(seg).map_err(|v| at_index(v, i))?;
        count += seg.len();
    }
    if count != col.total_len() {
        return Err(Violation::CountDrift {
            expected: col.total_len(),
            found: count,
        });
    }
    Ok(())
}

fn at_index(v: Violation, index: usize) -> Violation {
    match v {
        Violation::OutOfRange { detail, .. } => Violation::OutOfRange { index, detail },
        Violation::Payload { reason, .. } => Violation::Payload { index, reason },
        Violation::Synopsis { detail, .. } => Violation::Synopsis { index, detail },
        Violation::NotSorted { .. } => Violation::NotSorted { index },
        other => other,
    }
}

/// Cheap per-query check over any strategy through its public catalog
/// surface: [`ColumnStrategy::pieces`] non-empty unless the strategy holds
/// no rows (cracking then has no piece to report), its ranges sorted and
/// pairwise disjoint.
///
/// Disjointness (not partition) is the common denominator: replication
/// reports the flat covering partition, segmentation the segment list,
/// but the trait does not promise domain coverage.
pub fn strategy_pieces<V: ColumnValue>(strategy: &dyn ColumnStrategy<V>) -> Result<(), Violation> {
    let ranges: Vec<ValueRange<V>> = strategy.pieces().into_iter().map(|(r, _)| r).collect();
    if ranges.is_empty() && strategy.storage_bytes() > 0 {
        return Err(Violation::Empty { what: "strategy" });
    }
    ranges_disjoint_sorted(&ranges)
}

/// The replica tree's covering leaf set must partition the domain — the
/// Section 5 invariant that every point is covered exactly once by the
/// deepest materialized layer (drops and lazy materialization both
/// preserve it).
pub(crate) fn replica_tree<V: ColumnValue>(tree: &ReplicaTree<V>) -> Result<(), Violation> {
    let cover: Vec<ValueRange<V>> = tree
        .covering_partition()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    ranges_partition(&tree.domain(), &cover)
}

/// Asserts a validator result in debug builds, with the violation and
/// boundary name in the panic message; compiles to nothing in release.
///
/// ```
/// use soc_core::{debug_assert_valid, SegmentedColumn, ValueRange};
/// let col = SegmentedColumn::new(ValueRange::must(0u32, 99), vec![1, 2]).unwrap();
/// debug_assert_valid!(col.validate(), "doc example");
/// ```
#[macro_export]
macro_rules! debug_assert_valid {
    ($check:expr, $boundary:expr) => {
        if cfg!(debug_assertions) {
            if let Err(violation) = $check {
                panic!(
                    "structural invariant violated at {}: {}",
                    $boundary, violation
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> ValueRange<u32> {
        ValueRange::must(lo, hi)
    }

    #[test]
    fn partition_accepts_exact_tiling() {
        let dom = r(0, 99);
        ranges_partition(&dom, &[r(0, 49), r(50, 99)]).unwrap();
        ranges_partition(&dom, &[r(0, 99)]).unwrap();
    }

    #[test]
    fn partition_rejects_empty_gap_overlap_span() {
        let dom = r(0, 99);
        assert_eq!(
            ranges_partition::<u32>(&dom, &[]),
            Err(Violation::Empty { what: "partition" })
        );
        assert!(matches!(
            ranges_partition(&dom, &[r(0, 49), r(51, 99)]),
            Err(Violation::Gap { index: 0, .. })
        ));
        assert!(matches!(
            ranges_partition(&dom, &[r(0, 50), r(50, 99)]),
            Err(Violation::Overlap { index: 0, .. })
        ));
        assert!(matches!(
            ranges_partition(&dom, &[r(0, 98)]),
            Err(Violation::DomainMismatch { .. })
        ));
        assert!(matches!(
            ranges_partition(&dom, &[r(1, 99)]),
            Err(Violation::DomainMismatch { .. })
        ));
    }

    #[test]
    fn disjoint_sorted_rejects_out_of_order() {
        ranges_disjoint_sorted(&[r(0, 10), r(20, 30)]).unwrap();
        assert!(matches!(
            ranges_disjoint_sorted(&[r(20, 30), r(0, 10)]),
            Err(Violation::Gap { .. })
        ));
        assert!(matches!(
            ranges_disjoint_sorted(&[r(0, 10), r(10, 30)]),
            Err(Violation::Overlap { .. })
        ));
    }

    #[test]
    fn encoded_consistent_rejects_truncated_words() {
        // 100 fields of width 8 need 13 words; hand 12.
        let enc = EncodedPayload::For {
            base: 0,
            width: 8,
            len: 100,
            words: vec![0u64; 12],
        };
        assert!(matches!(
            encoded_consistent(&enc),
            Err(Violation::Payload { .. })
        ));
    }

    #[test]
    fn encoded_consistent_rejects_oob_dict_code() {
        // One field of width 8 whose code is 5 against a 2-entry table.
        let enc = EncodedPayload::Dict {
            table: vec![3, 7],
            width: 8,
            len: 1,
            words: vec![5u64],
        };
        assert!(matches!(
            encoded_consistent(&enc),
            Err(Violation::Payload { .. })
        ));
    }

    #[test]
    fn payload_rejects_raw_out_of_range() {
        assert!(matches!(
            payload(&r(0, 99), &[5u32, 200]),
            Err(Violation::OutOfRange { .. })
        ));
    }

    #[test]
    fn synopsis_consistent_accepts_exact_and_rejects_drift() {
        let values = [5u32, 10, 20];
        let good = PieceSynopsis::from_values(&values).expect("non-empty");
        synopsis_consistent(Some(&good), &values).unwrap();
        synopsis_consistent::<u32>(None, &[]).unwrap();

        // A non-empty piece without a synopsis silently disables pruning.
        assert!(matches!(
            synopsis_consistent::<u32>(None, &values),
            Err(Violation::Synopsis { .. })
        ));
        // A synopsis over an empty piece claims data that is not there.
        assert!(matches!(
            synopsis_consistent(Some(&good), &[]),
            Err(Violation::Synopsis { .. })
        ));
        // Narrowed bounds would corrupt covered MIN/MAX answers.
        let narrowed = PieceSynopsis::new(6u32, 20, 3, 35.0);
        assert!(matches!(
            synopsis_consistent(Some(&narrowed), &values),
            Err(Violation::Synopsis { .. })
        ));
        // Wrong count corrupts covered COUNT answers.
        let miscounted = PieceSynopsis::new(5u32, 20, 4, 35.0);
        assert!(matches!(
            synopsis_consistent(Some(&miscounted), &values),
            Err(Violation::Synopsis { .. })
        ));
        // A drifted sum corrupts covered SUM answers.
        let missummed = PieceSynopsis::new(5u32, 20, 3, 36.5);
        assert!(matches!(
            synopsis_consistent(Some(&missummed), &values),
            Err(Violation::Synopsis { .. })
        ));
        // So does one that is off by a single ulp: a covered SUM must be
        // bit-identical to the scan it replaces.
        let ulp = PieceSynopsis::new(5u32, 20, 3, f64::from_bits(35.0f64.to_bits() + 1));
        assert!(matches!(
            synopsis_consistent(Some(&ulp), &values),
            Err(Violation::Synopsis { .. })
        ));
    }

    #[test]
    fn segment_accepts_a_sorted_flag_only_over_ascending_values() {
        use crate::segment::SegIdGen;

        let mut ids = SegIdGen::new();
        let sorted = SegmentData::sorted(ids.fresh(), r(0, 99), vec![1u32, 5, 5, 9]);
        segment(&sorted).unwrap();
        // Storage order is fine for an unsorted segment; sorting it in
        // place keeps it valid under the flag.
        let mut unsorted = SegmentData::new(ids.fresh(), r(0, 99), vec![9u32, 1, 5]);
        segment(&unsorted).unwrap();
        let _ = unsorted.share_sorted();
        segment(&unsorted).unwrap();
    }

    #[test]
    fn segment_rejects_a_sorted_flag_over_unsorted_values() {
        use crate::segment::SegIdGen;

        let mut ids = SegIdGen::new();
        let bad = SegmentData::sorted(ids.fresh(), r(0, 99), vec![5u32, 1]);
        assert_eq!(segment(&bad), Err(Violation::NotSorted { index: 0 }));
    }

    #[test]
    fn macro_is_silent_on_ok() {
        let col = SegmentedColumn::new(r(0, 99), vec![1u32, 2, 3]).unwrap();
        crate::debug_assert_valid!(column(&col), "test");
    }

    // The macro compiles to nothing in release, so only a debug build panics.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "structural invariant violated")]
    fn macro_panics_on_violation() {
        crate::debug_assert_valid!(ranges_partition(&r(0, 99), &[r(0, 10)]), "test boundary");
    }
}
