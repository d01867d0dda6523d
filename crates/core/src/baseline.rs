//! The non-adaptive baselines bracketing the self-organizing strategies.
//!
//! * [`NonSegmented`] ("NoSegm" in Section 6.2) — a positionally organized
//!   column: every range selection is a full scan, exactly what MonetDB
//!   does for an unsegmented BAT ("operations at leaf nodes of the query
//!   execution plan … require access to the entire column stored on
//!   disk", Section 1). Zero reorganization, maximal reads.
//! * [`FullySorted`] — the opposite pole: the entire column is sorted up
//!   front (one big write, counted), after which every selection reads
//!   exactly its result by binary search. This is the "ideal
//!   segmentation" limit the adaptive strategies approach query by query,
//!   at the total upfront cost they exist to avoid.

use crate::range::ValueRange;
use crate::segment::{SegIdGen, SegmentData, Window};
use crate::strategy::ColumnStrategy;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// The single-segment fold both baselines share: clip the delta to the
/// segment's range (the column domain), fold it into the one payload, and
/// re-check the segment (a sorted one — [`FullySorted`]'s — stays sorted).
fn fold_segment<V: ColumnValue>(
    segment: &mut SegmentData<V>,
    inserts: &[V],
    tombstones: &[V],
    tracker: &mut dyn AccessTracker,
) -> Option<u64> {
    let (tombs, outside) = crate::delta::clip_fold(&segment.range(), inserts, tombstones)?;
    if inserts.is_empty() && tombs.is_empty() {
        return Some(outside);
    }
    let unmatched = outside + segment.fold_delta(inserts, tombs, tracker);
    crate::debug_assert_valid!(crate::validate::segment(segment), "baseline fold");
    Some(unmatched)
}

/// A column that never reorganizes: one segment, always fully scanned.
#[derive(Debug)]
pub struct NonSegmented<V> {
    segment: SegmentData<V>,
}

impl<V: ColumnValue> NonSegmented<V> {
    /// Wraps `values` (claimed to lie in `domain`) as a single segment.
    pub fn new(domain: ValueRange<V>, values: Vec<V>) -> Self {
        let mut ids = SegIdGen::new();
        NonSegmented {
            segment: SegmentData::new(ids.fresh(), domain, values),
        }
    }
}

// contract: ColumnStrategy thread-safety: no interior mutability; delta folds happen only inside &mut self fold_delta calls, and &self accessors read immutable state.
impl<V: ColumnValue> ColumnStrategy<V> for NonSegmented<V> {
    fn name(&self) -> String {
        "NoSegm".to_owned()
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        tracker.scan(self.segment.id(), self.segment.bytes());
        self.segment.count_in(q)
    }

    fn peek_slices(&self, q: &ValueRange<V>, f: &mut dyn FnMut(&[V])) {
        self.segment.peek_in(q, &mut Vec::new(), f);
    }

    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        fold_segment(&mut self.segment, inserts, tombstones, tracker)
    }

    fn share_sorted(&mut self) -> Option<Vec<(ValueRange<V>, Window<V>)>> {
        Some(vec![(self.segment.range(), self.segment.share_sorted())])
    }

    fn storage_bytes(&self) -> u64 {
        self.segment.bytes()
    }

    fn segment_count(&self) -> usize {
        1
    }

    fn pieces(&self) -> Vec<(ValueRange<V>, u64)> {
        vec![(self.segment.range(), self.segment.bytes())]
    }
}

/// A column fully sorted at load time: the eager-total-reorganization pole
/// of the design space.
#[derive(Debug)]
pub struct FullySorted<V> {
    segment: SegmentData<V>,
    sort_cost_charged: bool,
}

impl<V: ColumnValue> FullySorted<V> {
    /// Sorts `values` once; the write cost is reported to the tracker on
    /// the first query (the "upfront indexing" bill).
    pub(crate) fn new(domain: ValueRange<V>, mut values: Vec<V>) -> Self {
        values.sort_unstable();
        let mut ids = SegIdGen::new();
        FullySorted {
            segment: SegmentData::sorted(ids.fresh(), domain, values),
            sort_cost_charged: false,
        }
    }

    fn charge_sort(&mut self, tracker: &mut dyn AccessTracker) {
        if !self.sort_cost_charged {
            // The sort read and rewrote the whole column.
            tracker.scan(self.segment.id(), self.segment.bytes());
            tracker.materialize(self.segment.id(), self.segment.bytes());
            self.sort_cost_charged = true;
        }
    }
}

// contract: ColumnStrategy thread-safety: no interior mutability; the sort charge and delta folds happen only inside &mut self select / fold_delta calls, and &self accessors read immutable state.
impl<V: ColumnValue> ColumnStrategy<V> for FullySorted<V> {
    fn name(&self) -> String {
        "FullSort".to_owned()
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        self.charge_sort(tracker);
        let n = self.segment.count_in(q);
        tracker.scan(self.segment.id(), n * V::BYTES);
        n
    }

    fn peek_slices(&self, q: &ValueRange<V>, f: &mut dyn FnMut(&[V])) {
        self.segment.peek_in(q, &mut Vec::new(), f);
    }

    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        fold_segment(&mut self.segment, inserts, tombstones, tracker)
    }

    fn share_sorted(&mut self) -> Option<Vec<(ValueRange<V>, Window<V>)>> {
        Some(vec![(self.segment.range(), self.segment.share_sorted())])
    }

    fn storage_bytes(&self) -> u64 {
        self.segment.bytes()
    }

    fn segment_count(&self) -> usize {
        1
    }

    fn pieces(&self) -> Vec<(ValueRange<V>, u64)> {
        vec![(self.segment.range(), self.segment.bytes())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::CountingTracker;

    #[test]
    fn every_query_is_a_full_scan() {
        let values: Vec<u32> = (0..1000).collect();
        let mut col = NonSegmented::new(ValueRange::must(0, 999), values);
        let mut t = CountingTracker::new();
        let n = col.select_count(&ValueRange::must(100, 199), &mut t);
        assert_eq!(n, 100);
        assert_eq!(t.totals().read_bytes, 4000);
        // Again: another full scan, no writes ever.
        let n = col.select_count(&ValueRange::must(100, 199), &mut t);
        assert_eq!(n, 100);
        assert_eq!(t.totals().read_bytes, 8000);
        assert_eq!(t.totals().write_bytes, 0);
    }

    #[test]
    fn collect_matches_count() {
        let values: Vec<u32> = (0..100).rev().collect();
        let mut col = NonSegmented::new(ValueRange::must(0, 99), values);
        let mut t = CountingTracker::new();
        let q = ValueRange::must(10, 19);
        let n = col.select_count(&q, &mut t);
        let got = col.peek_collect(&q);
        assert_eq!(got.len() as u64, n);
        assert!(got.iter().all(|v| q.contains(*v)));
    }

    #[test]
    fn storage_is_the_bare_column() {
        let col = NonSegmented::new(ValueRange::must(0u32, 99), (0..50).collect());
        assert_eq!(col.storage_bytes(), 200);
        assert_eq!(col.segment_count(), 1);
        assert_eq!(col.pieces(), vec![(ValueRange::must(0, 99), 200)]);
    }

    #[test]
    fn fully_sorted_reads_exactly_the_result() {
        let values: Vec<u32> = (0..1000).rev().collect();
        let mut col = FullySorted::new(ValueRange::must(0, 999), values);
        let mut t = CountingTracker::new();
        t.begin_query();
        let n = col.select_count(&ValueRange::must(100, 199), &mut t);
        assert_eq!(n, 100);
        // First query pays the sort (read+write of the whole column)…
        assert_eq!(t.query_stats().write_bytes, 4_000);
        assert_eq!(t.query_stats().read_bytes, 4_000 + 400);
        // …every later query reads exactly its result bytes.
        t.begin_query();
        col.select_count(&ValueRange::must(100, 199), &mut t);
        assert_eq!(t.query_stats().read_bytes, 400);
        assert_eq!(t.query_stats().write_bytes, 0);
    }

    #[test]
    fn fully_sorted_matches_naive_filter_and_is_sorted() {
        let values: Vec<u32> = (0..500).map(|i| (i * 193) % 1000).collect();
        let reference = values.clone();
        let mut col = FullySorted::new(ValueRange::must(0, 999), values);
        let mut t = CountingTracker::new();
        for (lo, hi) in [(0, 999), (100, 250), (999, 999), (0, 0)] {
            let q = ValueRange::must(lo, hi);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(col.select_count(&q, &mut t), expect);
            let collected = col.peek_collect(&q);
            assert!(collected.windows(2).all(|w| w[0] <= w[1]), "sorted output");
            assert_eq!(collected.len() as u64, expect);
        }
    }

    #[test]
    fn fully_sorted_empty_range_reads_nothing() {
        let mut col = FullySorted::new(ValueRange::must(0u32, 999), vec![10, 20, 30]);
        let mut t = CountingTracker::new();
        col.select_count(&ValueRange::must(500, 600), &mut t); // pays sort
        t.begin_query();
        let n = col.select_count(&ValueRange::must(500, 600), &mut t);
        assert_eq!(n, 0);
        assert_eq!(t.query_stats().read_bytes, 0);
    }
}
