//! Physical segments: a value range plus the tuples falling into it.

use crate::range::ValueRange;
use crate::synopsis::{PieceSynopsis, SynopsisClass};
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// Stable identity of a materialized segment.
///
/// Every materialization (initial load, split product, replica) gets a fresh
/// id from the owning structure's counter; ids are never reused. The buffer
/// manager in `soc-sim` keys residency on this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegId(pub u64);

impl std::fmt::Debug for SegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg#{}", self.0)
    }
}

/// Hands out fresh [`SegId`]s.
#[derive(Debug, Default)]
pub struct SegIdGen {
    next: u64,
}

impl SegIdGen {
    /// A generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next unused id.
    pub fn fresh(&mut self) -> SegId {
        let id = SegId(self.next);
        self.next += 1;
        id
    }
}

/// A materialized segment: contiguous storage of the values of one range.
///
/// Values are *not* sorted within the segment — the paper's value-based
/// organization only guarantees that every value lies inside `range`
/// (like a cracking piece). Positional correspondence across columns is
/// deliberately given up (Section 1).
///
/// Each segment also caches a [`PieceSynopsis`] (exact min/max/count/sum),
/// recomputed whenever the values change — construction and every fold.
/// The pure-read scan methods consult it first: a provably disjoint
/// predicate answers without touching the values, and a covering one
/// answers a count O(1) from the stored length. The synopsis bounds are
/// usually *tighter* than `range` (the range is the reorganization
/// partition; the data inside it clusters), which is where zone-map
/// pruning wins over the range check alone.
#[derive(Debug, Clone)]
pub struct SegmentData<V> {
    id: SegId,
    range: ValueRange<V>,
    values: Vec<V>,
    synopsis: Option<PieceSynopsis<V>>,
}

impl<V: ColumnValue> SegmentData<V> {
    /// Creates a segment, validating that every value is inside `range`.
    pub fn new(id: SegId, range: ValueRange<V>, values: Vec<V>) -> Self {
        debug_assert!(
            values.iter().all(|v| range.contains(*v)),
            "segment values must lie within the segment range"
        );
        let synopsis = PieceSynopsis::from_values(&values);
        SegmentData {
            id,
            range,
            values,
            synopsis,
        }
    }

    /// The cached zone-map synopsis (`None` for an empty segment).
    #[inline]
    pub fn synopsis(&self) -> Option<PieceSynopsis<V>> {
        self.synopsis
    }

    /// Segment identity.
    #[inline]
    pub fn id(&self) -> SegId {
        self.id
    }

    /// The closed value range this segment is responsible for.
    #[inline]
    pub fn range(&self) -> ValueRange<V> {
        self.range
    }

    /// The stored values, in storage order (not sorted by value).
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Number of stored tuples.
    #[inline]
    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// Whether the segment holds no tuples (its range may still be non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Storage footprint in bytes (tuples × width), the unit of the paper's
    /// read/write counters.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.len() * V::BYTES
    }

    /// Consumes the segment, returning its values.
    pub fn into_values(self) -> Vec<V> {
        self.values
    }

    /// Folds the part of a delta this segment owns into its values (the
    /// caller has already cut `inserts` and `tombstones` to the segment's
    /// range): `inserts` join the stored values, then each `tombstones`
    /// entry cancels one occurrence (both ascending; inserts first, so a
    /// tombstone can cancel an insert folded in the same step). `sorted`
    /// promises ascending values and keeps them ascending (the galloping
    /// merge and subtraction instead of an append and a per-value cancel).
    ///
    /// Refreshes the synopsis and charges one read of the old values plus
    /// one write of the new (a free of the old footprint and a
    /// materialization of the new one). Returns the tombstones that found
    /// no occurrence.
    pub fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        sorted: bool,
        tracker: &mut dyn AccessTracker,
    ) -> u64 {
        debug_assert!(
            inserts.iter().all(|v| self.range.contains(*v)),
            "folded inserts must lie within the segment range"
        );
        let old = self.bytes();
        tracker.scan(self.id, old);
        let unmatched = if sorted {
            let (mut merged, mut kept) = (Vec::new(), Vec::new());
            crate::kernels::merge_sorted(&self.values, inserts, &mut merged);
            crate::kernels::subtract_sorted(&merged, tombstones, &mut kept);
            let unmatched = (tombstones.len() + kept.len() - merged.len()) as u64;
            self.values = kept;
            unmatched
        } else {
            self.values.extend_from_slice(inserts);
            crate::kernels::cancel_occurrences(&mut self.values, tombstones)
        };
        self.synopsis = PieceSynopsis::from_values(&self.values);
        tracker.free(self.id, old);
        tracker.materialize(self.id, self.bytes());
        unmatched
    }

    /// Classifies `q` against the cached synopsis. An empty segment has
    /// no synopsis and nothing to find, so it classifies as disjoint.
    #[inline]
    fn classify(&self, q: &ValueRange<V>) -> SynopsisClass {
        match &self.synopsis {
            Some(s) => s.classify(q),
            None => SynopsisClass::Disjoint,
        }
    }

    /// Counts the stored values inside `q` without materializing them.
    ///
    /// The cached synopsis answers the easy classes without touching the
    /// values: a disjoint query is zero, a covering one is the length
    /// (the synopsis bounds are tighter than `range`, so this fires more
    /// often than the old whole-range shortcut). Only a straddling query
    /// scans, through the branchless [`crate::kernels::count_range`].
    pub fn count_in(&self, q: &ValueRange<V>) -> u64 {
        match self.classify(q) {
            SynopsisClass::Disjoint => 0,
            SynopsisClass::Covered => self.len(),
            SynopsisClass::Straddle => crate::kernels::count_range(&self.values, q),
        }
    }

    /// Copies the stored values inside `q` into `out`.
    ///
    /// A disjoint query returns untouched; a covering one appends every
    /// value; only partial overlap filters tuple by tuple.
    pub fn collect_in(&self, q: &ValueRange<V>, out: &mut Vec<V>) {
        match self.classify(q) {
            SynopsisClass::Disjoint => {}
            SynopsisClass::Covered => out.extend_from_slice(&self.values),
            SynopsisClass::Straddle => crate::kernels::collect_range(&self.values, q, out),
        }
    }

    /// Splits the segment's values across an ordered list of sub-ranges that
    /// tile `self.range`, producing one new segment per sub-range.
    ///
    /// This is the single scan that materializes split products in both
    /// Algorithm 1 (replace a segment by its sub-segments) and the eager part
    /// of the replica tree. `ids` supplies a fresh id per piece. The values
    /// move through [`crate::kernels::partition_into`]: storage order is
    /// kept within each product and each product's buffer is allocated at
    /// its exact size, so a piece never carries spare capacity for life.
    ///
    /// # Panics
    /// Panics (debug) if the sub-ranges do not tile `self.range`.
    pub fn partition(self, pieces: &[ValueRange<V>], ids: &mut SegIdGen) -> Vec<SegmentData<V>> {
        debug_assert!(!pieces.is_empty());
        debug_assert_eq!(
            pieces[0].lo(),
            self.range.lo(),
            "pieces must start at segment lo"
        );
        debug_assert_eq!(
            pieces[pieces.len() - 1].hi(),
            self.range.hi(),
            "pieces must end at segment hi"
        );
        debug_assert!(
            pieces.windows(2).all(|w| w[0].adjacent_before(&w[1])),
            "pieces must be adjacent and ordered"
        );

        // Each piece but the last ends at an inner bound.
        let inner = pieces.len().saturating_sub(1);
        let bounds: Vec<V> = pieces.iter().take(inner).map(|p| p.hi()).collect();
        let buckets = crate::kernels::partition_into(&self.values, &bounds);
        pieces
            .iter()
            .zip(buckets)
            .map(|(range, values)| SegmentData::new(ids.fresh(), *range, values))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(lo: u32, hi: u32, values: &[u32]) -> (SegmentData<u32>, SegIdGen) {
        let mut ids = SegIdGen::new();
        let s = SegmentData::new(ids.fresh(), ValueRange::must(lo, hi), values.to_vec());
        (s, ids)
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut g = SegIdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn bytes_counts_tuples_times_width() {
        let (s, _) = seg(0, 100, &[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.bytes(), 12); // 3 tuples x 4 bytes
    }

    #[test]
    fn count_and_collect_agree() {
        let (s, _) = seg(0, 100, &[5, 50, 95, 20, 60]);
        let q = ValueRange::must(20, 60);
        assert_eq!(s.count_in(&q), 3);
        let mut out = Vec::new();
        s.collect_in(&q, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![20, 50, 60]);
    }

    #[test]
    fn count_full_cover_shortcut() {
        let (s, _) = seg(10, 20, &[10, 15, 20]);
        assert_eq!(s.count_in(&ValueRange::must(0, 100)), 3);
    }

    #[test]
    fn synopsis_bounds_are_tighter_than_the_range() {
        // Range says [0, 100]; the data only spans [20, 60].
        let (s, _) = seg(0, 100, &[20, 40, 60]);
        let syn = s.synopsis().expect("non-empty segment has a synopsis");
        assert_eq!((syn.min(), syn.max(), syn.count()), (20, 60, 3));
        // A query inside the range but outside the data prunes to zero...
        assert_eq!(s.count_in(&ValueRange::must(61, 100)), 0);
        let mut out = Vec::new();
        s.collect_in(&ValueRange::must(61, 100), &mut out);
        assert!(out.is_empty());
        // ...and one covering only the data (not the range) answers O(1).
        assert_eq!(s.count_in(&ValueRange::must(20, 60)), 3);
    }

    #[test]
    fn empty_segment_prunes_everything() {
        let (s, _) = seg(0, 99, &[]);
        assert_eq!(s.synopsis(), None);
        assert_eq!(s.count_in(&ValueRange::must(0, 99)), 0);
        let mut out = Vec::new();
        s.collect_in(&ValueRange::must(0, 99), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn partition_three_way() {
        let (s, mut ids) = seg(0, 99, &[5, 10, 40, 60, 95, 41, 59]);
        let pieces = [
            ValueRange::must(0, 39),
            ValueRange::must(40, 59),
            ValueRange::must(60, 99),
        ];
        let parts = s.partition(&pieces, &mut ids);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 2); // 5, 10
        assert_eq!(parts[1].len(), 3); // 40, 41, 59
        assert_eq!(parts[2].len(), 2); // 60, 95
                                       // Fresh, distinct ids.
        assert!(parts[0].id() != parts[1].id() && parts[1].id() != parts[2].id());
        // Ranges preserved in order.
        assert_eq!(parts[0].range(), pieces[0]);
        assert_eq!(parts[2].range(), pieces[2]);
    }

    #[test]
    fn partition_preserves_every_tuple() {
        let values: Vec<u32> = (0..1000).map(|i| (i * 37) % 1000).collect();
        let (s, mut ids) = seg(0, 999, &values);
        let pieces = [ValueRange::must(0, 499), ValueRange::must(500, 999)];
        let parts = s.partition(&pieces, &mut ids);
        let total: u64 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 1000);
        for p in &parts {
            assert!(p.values().iter().all(|v| p.range().contains(*v)));
        }
    }

    #[test]
    fn partition_products_are_exact_sized_and_keep_storage_order() {
        // Uneven pieces: a len/pieces guess would over- and under-shoot.
        let values: Vec<u32> = (0..10_000).map(|i| (i * 7919) % 1000).collect();
        for pieces in [
            vec![ValueRange::must(0, 99), ValueRange::must(100, 999)],
            vec![
                ValueRange::must(0, 9),
                ValueRange::must(10, 899),
                ValueRange::must(900, 999),
            ],
        ] {
            let (s, mut ids) = seg(0, 999, &values);
            for (p, range) in s.partition(&pieces, &mut ids).into_iter().zip(&pieces) {
                let expect: Vec<u32> = values
                    .iter()
                    .copied()
                    .filter(|v| range.contains(*v))
                    .collect();
                assert_eq!(p.values(), expect, "{range:?}");
                let len = p.len() as usize;
                // The buffer a piece keeps for life holds its values and
                // nothing more.
                assert_eq!(p.into_values().capacity(), len, "{range:?}");
            }
        }
    }

    #[test]
    fn partition_allows_empty_pieces() {
        let (s, mut ids) = seg(0, 99, &[1, 2, 3]);
        let pieces = [ValueRange::must(0, 49), ValueRange::must(50, 99)];
        let parts = s.partition(&pieces, &mut ids);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 0);
        assert!(parts[1].is_empty());
        assert_eq!(parts[1].bytes(), 0);
    }
}
