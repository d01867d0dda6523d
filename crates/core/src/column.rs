//! A column stored as a list of adjacent value-ranged segments.
//!
//! This is the physical structure adaptive segmentation (Section 4)
//! reorganizes: "a column is represented as a sequence of adjacent
//! non-overlapping segments. Initially, the column is stored in a single
//! segment which is gradually reorganized into a list of segments as
//! selection queries arrive."

use crate::kernels::HalfLens;
use crate::range::ValueRange;
use crate::segment::{SegIdGen, SegmentData, Window};
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// Errors constructing or reorganizing a [`SegmentedColumn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnError {
    /// A value lies outside the declared domain.
    ValueOutsideDomain,
    /// The replacement pieces do not tile the replaced segment.
    BadPartition,
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnError::ValueOutsideDomain => write!(f, "value outside the column domain"),
            ColumnError::BadPartition => write!(f, "pieces do not tile the replaced segment"),
        }
    }
}

impl std::error::Error for ColumnError {}

/// A value-organized column: ordered segments tiling the attribute domain.
#[derive(Debug)]
pub struct SegmentedColumn<V> {
    domain: ValueRange<V>,
    segments: Vec<SegmentData<V>>,
    ids: SegIdGen,
    total_len: u64,
}

impl<V: ColumnValue> SegmentedColumn<V> {
    /// Loads a column: one segment covering the whole `domain`.
    ///
    /// # Errors
    /// [`ColumnError::ValueOutsideDomain`] when a value lies outside
    /// `domain`, found on the bounds of the segment's synopsis.
    pub fn new(domain: ValueRange<V>, values: Vec<V>) -> Result<Self, ColumnError> {
        let mut ids = SegIdGen::new();
        let total_len = values.len() as u64;
        let initial = SegmentData::checked(ids.fresh(), domain, values)
            .ok_or(ColumnError::ValueOutsideDomain)?;
        Ok(SegmentedColumn {
            domain,
            segments: vec![initial],
            ids,
            total_len,
        })
    }

    /// The attribute domain this column tiles.
    pub(crate) fn domain(&self) -> ValueRange<V> {
        self.domain
    }

    /// The ordered segment list.
    pub(crate) fn segments(&self) -> &[SegmentData<V>] {
        &self.segments
    }

    /// Number of segments.
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total tuple count (invariant under reorganization).
    pub(crate) fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Storage footprint in bytes (tuples × width), invariant under
    /// reorganization — the paper's notion of column size.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_len * V::BYTES
    }

    /// Index range of segments whose value ranges overlap `q`.
    pub(crate) fn overlapping_span(&self, q: &ValueRange<V>) -> std::ops::Range<usize> {
        let start = self.segments.partition_point(|s| s.range().hi() < q.lo());
        let end = self.segments.partition_point(|s| s.range().lo() <= q.hi());
        start..end.max(start)
    }

    /// Replaces the segment at `idx` by its partition over `pieces`,
    /// reporting the free + materializations to `tracker`. `lens` are the
    /// pieces' sizes per half of the segment when the caller counted them
    /// already ([`SegmentData::partition`]).
    ///
    /// `pieces` must tile the segment's range exactly (checked).
    pub(crate) fn replace_segment(
        &mut self,
        idx: usize,
        pieces: &[ValueRange<V>],
        lens: Option<HalfLens>,
        tracker: &mut dyn AccessTracker,
    ) -> Result<(), ColumnError> {
        let old = &self.segments[idx];
        let tiles = !pieces.is_empty()
            && pieces[0].lo() == old.range().lo()
            && pieces[pieces.len() - 1].hi() == old.range().hi()
            && pieces.windows(2).all(|w| w[0].adjacent_before(&w[1]));
        if !tiles {
            return Err(ColumnError::BadPartition);
        }
        let old = self.segments.remove(idx);
        tracker.free(old.id(), old.bytes());
        let parts = old.partition(pieces, lens, &mut self.ids);
        for p in &parts {
            tracker.materialize(p.id(), p.bytes());
        }
        self.segments.splice(idx..idx, parts);
        Ok(())
    }

    /// Merges the adjacent segments `[idx, idx + count)` into one,
    /// reporting the frees + materialization to `tracker`.
    ///
    /// Used by the anti-fragmentation merge policy (Section 8 names merging
    /// as the counter-measure to GD's fragmentation on skewed loads).
    pub(crate) fn merge_segments(
        &mut self,
        idx: usize,
        count: usize,
        tracker: &mut dyn AccessTracker,
    ) -> Result<(), ColumnError> {
        if count < 2 || idx + count > self.segments.len() {
            return Err(ColumnError::BadPartition);
        }
        let merged_range = ValueRange::new(
            self.segments[idx].range().lo(),
            self.segments[idx + count - 1].range().hi(),
        )
        .ok_or(ColumnError::BadPartition)?;
        let mut values = Vec::new();
        let mut sorted = true;
        for seg in self.segments.drain(idx..idx + count) {
            tracker.free(seg.id(), seg.bytes());
            values.extend_from_slice(seg.values());
            sorted &= seg.is_sorted();
        }
        // Adjacent ranges in order: sorted segments concatenate ascending.
        let id = self.ids.fresh();
        let merged = if sorted {
            SegmentData::sorted(id, merged_range, values)
        } else {
            SegmentData::new(id, merged_range, values)
        };
        tracker.materialize(merged.id(), merged.bytes());
        self.segments.insert(idx, merged);
        Ok(())
    }

    /// Folds a delta (both sides ascending) into the segments that own its
    /// values: each touched segment absorbs its inserts and cancels one
    /// occurrence per tombstone ([`SegmentData::fold_delta`]), charged as
    /// one read plus one write of that segment. Untouched segments, and every segment boundary,
    /// stay exactly as they were.
    ///
    /// Returns the tombstones that found no occurrence, or `None` — with
    /// nothing changed — when an insert lies outside the domain.
    pub(crate) fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        let (mut tombs, mut unmatched) =
            crate::delta::clip_fold(&self.domain, inserts, tombstones)?;
        let mut ins = inserts;
        while let Some(next) = match (ins.first(), tombs.first()) {
            (Some(a), Some(b)) => Some(*a.min(b)),
            (a, b) => a.or(b).copied(),
        } {
            // Segments tile the domain, so some segment owns `next`.
            let idx = self.segments.partition_point(|s| s.range().hi() < next);
            let seg = &mut self.segments[idx];
            let hi = seg.range().hi();
            let (i, t) = (
                ins.partition_point(|v| *v <= hi),
                tombs.partition_point(|v| *v <= hi),
            );
            let before = seg.len();
            unmatched += seg.fold_delta(&ins[..i], &tombs[..t], tracker);
            self.total_len = self.total_len - before + seg.len();
            (ins, tombs) = (&ins[i..], &tombs[t..]);
        }
        Some(unmatched)
    }

    /// Every segment's range with its shared window, in value order, each
    /// segment sorted in its own buffer the first time
    /// ([`SegmentData::share_sorted`]) — the column's side of
    /// [`crate::ColumnStrategy::share_sorted`].
    pub(crate) fn share_sorted(&mut self) -> Vec<(ValueRange<V>, Window<V>)> {
        self.segments
            .iter_mut()
            .map(|s| (s.range(), s.share_sorted()))
            .collect()
    }

    /// Full structural invariant check (test / debug aid):
    /// segments sorted, adjacent, tiling the domain, payloads consistent
    /// and in range, tuple count preserved.
    ///
    /// Delegates to `crate::validate::column`, the deep validator the
    /// debug-build checks and the corruption-injection proptests share.
    pub fn validate(&self) -> Result<(), crate::validate::Violation> {
        crate::validate::column(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{CountingTracker, NullTracker};

    fn column() -> SegmentedColumn<u32> {
        let values: Vec<u32> = (0..1000u32).map(|i| (i * 7919) % 10_000).collect();
        SegmentedColumn::new(ValueRange::must(0, 9_999), values).unwrap()
    }

    #[test]
    fn new_starts_with_single_domain_segment() {
        let c = column();
        assert_eq!(c.segment_count(), 1);
        assert_eq!(c.segments()[0].range(), c.domain());
        assert_eq!(c.total_len(), 1000);
        assert_eq!(c.total_bytes(), 4000);
        c.validate().unwrap();
    }

    #[test]
    fn new_rejects_out_of_domain_values() {
        let err = SegmentedColumn::new(ValueRange::must(0u32, 10), vec![5, 11]).unwrap_err();
        assert_eq!(err, ColumnError::ValueOutsideDomain);
        // Both builds find a value one step outside either end, and take
        // the ends themselves.
        fn check<V: ColumnValue>(lo: V, hi: V, inside: V) {
            let domain = ValueRange::must(lo, hi);
            for outside in [lo.pred(), hi.succ()].map(Option::unwrap) {
                let values = vec![inside, outside, inside];
                let err = SegmentedColumn::new(domain, values.clone()).unwrap_err();
                assert_eq!(err, ColumnError::ValueOutsideDomain, "{outside:?}");
                let err = crate::ReplicaTree::new(domain, values).unwrap_err();
                assert_eq!(err, ColumnError::ValueOutsideDomain, "{outside:?}");
            }
            let ends = vec![hi, inside, lo];
            assert!(SegmentedColumn::new(domain, ends.clone()).is_ok());
            assert!(crate::ReplicaTree::new(domain, ends).is_ok());
        }
        check(10u32, 20, 15);
        let f = crate::value::OrdF64::from_finite;
        check(f(-1.5), f(2.5), f(0.0));
    }

    #[test]
    fn replace_segment_preserves_invariants_and_accounts() {
        let mut c = column();
        let mut t = CountingTracker::new();
        let pieces = [
            ValueRange::must(0, 2_499),
            ValueRange::must(2_500, 4_999),
            ValueRange::must(5_000, 9_999),
        ];
        c.replace_segment(0, &pieces, None, &mut t).unwrap();
        assert_eq!(c.segment_count(), 3);
        c.validate().unwrap();
        // The whole segment is freed and rewritten.
        assert_eq!(t.totals().freed_bytes, 4000);
        assert_eq!(t.totals().write_bytes, 4000);
        assert_eq!(t.totals().segments_materialized, 3);
    }

    #[test]
    fn replace_rejects_non_tiling_pieces() {
        let mut c = column();
        // Hole between pieces.
        let bad = [ValueRange::must(0u32, 100), ValueRange::must(102, 9_999)];
        assert_eq!(
            c.replace_segment(0, &bad, None, &mut NullTracker),
            Err(ColumnError::BadPartition)
        );
        // Wrong span.
        let bad = [ValueRange::must(0u32, 100)];
        assert_eq!(
            c.replace_segment(0, &bad, None, &mut NullTracker),
            Err(ColumnError::BadPartition)
        );
    }

    #[test]
    fn overlapping_span_matches_linear_scan() {
        let mut c = column();
        let pieces = [
            ValueRange::must(0, 999),
            ValueRange::must(1_000, 3_999),
            ValueRange::must(4_000, 6_999),
            ValueRange::must(7_000, 9_999),
        ];
        c.replace_segment(0, &pieces, None, &mut NullTracker)
            .unwrap();
        for q in [
            ValueRange::must(0u32, 9_999),
            ValueRange::must(500, 500),
            ValueRange::must(999, 1_000),
            ValueRange::must(3_000, 8_000),
        ] {
            let span = c.overlapping_span(&q);
            for (i, s) in c.segments().iter().enumerate() {
                assert_eq!(
                    span.contains(&i),
                    s.range().overlaps(&q),
                    "segment {i} for query {q:?}"
                );
            }
        }
    }

    #[test]
    fn merge_restores_single_segment() {
        let mut c = column();
        let pieces = [ValueRange::must(0, 4_999), ValueRange::must(5_000, 9_999)];
        c.replace_segment(0, &pieces, None, &mut NullTracker)
            .unwrap();
        let mut t = CountingTracker::new();
        c.merge_segments(0, 2, &mut t).unwrap();
        assert_eq!(c.segment_count(), 1);
        c.validate().unwrap();
        assert_eq!(t.totals().write_bytes, 4000);
        assert_eq!(t.totals().freed_bytes, 4000);
    }

    #[test]
    fn a_sorted_split_copies_nothing_and_charges_the_same() {
        use crate::tracker::EventLog;

        let pieces = [
            ValueRange::must(0, 2_499),
            ValueRange::must(2_500, 4_999),
            ValueRange::must(5_000, 9_999),
        ];
        let (mut plain, mut sorted) = (column(), column());
        let shared = sorted.share_sorted();
        let (mut plain_log, mut sorted_log) = (EventLog::new(), EventLog::new());
        plain
            .replace_segment(0, &pieces, None, &mut plain_log)
            .unwrap();
        sorted
            .replace_segment(0, &pieces, None, &mut sorted_log)
            .unwrap();
        // The same free and materializations, byte for byte, in the same
        // order under the same ids: the split is the paper's rewrite
        // whatever it costs in memory.
        assert_eq!(sorted_log.events(), plain_log.events());
        sorted.validate().unwrap();
        for (s, p) in sorted.segments().iter().zip(plain.segments()) {
            // Each product is ascending and windows the parent's buffer.
            assert!(s.is_sorted() && !p.is_sorted());
            let window = s.window().expect("sorted");
            assert!(window.shares_buffer(&shared[0].1), "{:?}", s.range());
            let mut expect = p.values().to_vec();
            expect.sort_unstable();
            assert_eq!(s.values(), expect);
        }
    }

    #[test]
    fn merging_sorted_neighbours_stays_sorted() {
        let mut c = column();
        let pieces = [
            ValueRange::must(0, 2_499),
            ValueRange::must(2_500, 4_999),
            ValueRange::must(5_000, 9_999),
        ];
        c.replace_segment(0, &pieces, None, &mut NullTracker)
            .unwrap();
        let _ = c.share_sorted();
        c.merge_segments(1, 2, &mut NullTracker).unwrap();
        assert!(c.segments().iter().all(|s| s.is_sorted()));
        c.validate().unwrap();
        // One unsorted neighbour makes the merged segment unsorted.
        let mut c = column();
        c.replace_segment(0, &pieces, None, &mut NullTracker)
            .unwrap();
        let _ = c.segments[1].share_sorted();
        c.merge_segments(0, 2, &mut NullTracker).unwrap();
        assert!(!c.segments()[0].is_sorted());
        c.validate().unwrap();
    }

    #[test]
    fn merge_rejects_bad_spans() {
        let mut c = column();
        assert!(c.merge_segments(0, 1, &mut NullTracker).is_err());
        assert!(c.merge_segments(0, 2, &mut NullTracker).is_err());
    }
}
