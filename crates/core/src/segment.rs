//! Physical segments: a value range plus the tuples falling into it.

use std::sync::Arc;

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

/// A window `start..end` of an immutable value buffer that any number of
/// owners share: the segment that holds it and every epoch-snapshot piece
/// serving it (see [`crate::ColumnStrategy::share_sorted`]). Cloning one
/// clones an `Arc`, never the values.
#[derive(Clone)]
pub struct Window<V> {
    buf: Arc<Vec<V>>,
    start: usize,
    end: usize,
}

impl<V: std::fmt::Debug> std::fmt::Debug for Window<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<V: ColumnValue> Window<V> {
    /// A window over all of `values`, which it takes without copying.
    pub(crate) fn new(values: Vec<V>) -> Self {
        let end = values.len();
        Window {
            buf: Arc::new(values),
            start: 0,
            end,
        }
    }

    /// Whether `other` is this very window: the same buffer, the same
    /// bounds — so the same values without comparing one.
    pub(crate) fn same(&self, other: &Window<V>) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && (self.start, self.end) == (other.start, other.end)
    }

    /// Whether `other` windows the same buffer, whatever its bounds.
    #[cfg(test)]
    pub(crate) fn shares_buffer(&self, other: &Window<V>) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Bytes of the whole underlying buffer (its capacity, not just the
    /// window): what keeping this window alive keeps resident.
    #[cfg(test)]
    pub(crate) fn buffer_bytes(&self) -> u64 {
        self.buf.capacity() as u64 * V::BYTES
    }

    /// The sub-window `start..end`, relative to this window.
    fn sub(&self, start: usize, end: usize) -> Window<V> {
        Window {
            buf: Arc::clone(&self.buf),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

/// A window reads as the slice of values it spans.
impl<V> std::ops::Deref for Window<V> {
    type Target = [V];

    #[inline]
    fn deref(&self) -> &[V] {
        &self.buf[self.start..self.end]
    }
}

/// A materialized segment: contiguous storage of the values of one range.
///
/// The paper's value-based organization only guarantees that every value
/// lies inside `range` (like a cracking piece), so a segment's values are
/// in storage order unless the segment is flagged **sorted**. Positional
/// correspondence across columns is deliberately given up (Section 1).
///
/// An *unsorted* segment owns its values alone, as a plain vector: a
/// split copies them into one exact-size buffer per product, and a fold
/// appends and cancels in place. A *sorted* segment holds them as a
/// [`Window`] of a shared, immutable buffer — shared with the segments it
/// was split from or into, and with the epoch snapshot that serves it: a
/// split hands each product a window of the same buffer, and a fold
/// writes the merged piece into a fresh buffer, leaving the shared one
/// untouched. [`Self::share_sorted`] turns the first kind into the
/// second, once.
///
/// Each segment also caches a [`PieceSynopsis`] (exact min/max/count/sum),
/// recomputed whenever the values change — construction, sort and every
/// fold. The pure-read scan methods consult it first: a provably disjoint
/// predicate answers without touching the values, and a covering one
/// answers a count O(1) from the stored length. The synopsis bounds are
/// usually *tighter* than `range` (the range is the reorganization
/// partition; the data inside it clusters), which is where zone-map
/// pruning wins over the range check alone.
#[derive(Debug, Clone)]
pub(crate) struct SegmentData<V> {
    id: SegId,
    range: ValueRange<V>,
    values: Payload<V>,
    synopsis: Option<PieceSynopsis<V>>,
}

/// A segment's values: in storage order and owned, or ascending in a
/// window that may be shared.
#[derive(Debug, Clone)]
enum Payload<V> {
    Unsorted(Vec<V>),
    Sorted(Window<V>),
}

impl<V> std::ops::Deref for Payload<V> {
    type Target = [V];

    #[inline]
    fn deref(&self) -> &[V] {
        match self {
            Payload::Unsorted(values) => values,
            Payload::Sorted(window) => window,
        }
    }
}

impl<V: ColumnValue> SegmentData<V> {
    /// Creates a segment of values in storage order, validating (debug)
    /// that every value is inside `range`.
    pub(crate) fn new(id: SegId, range: ValueRange<V>, values: Vec<V>) -> Self {
        let synopsis = PieceSynopsis::from_values(&values);
        Self::with_payload(id, range, Payload::Unsorted(values), synopsis)
    }

    /// [`Self::new`] for values not known to lie inside `range`: `None`
    /// when one does not. The synopsis's exact bounds decide, so the check
    /// costs no pass of its own.
    pub(crate) fn checked(id: SegId, range: ValueRange<V>, values: Vec<V>) -> Option<Self> {
        let synopsis = PieceSynopsis::from_values(&values);
        if synopsis.is_some_and(|s| !range.contains(s.min()) || !range.contains(s.max())) {
            return None;
        }
        Some(Self::with_payload(
            id,
            range,
            Payload::Unsorted(values),
            synopsis,
        ))
    }

    /// Creates a segment flagged sorted; `values` must be ascending
    /// ([`crate::validate::segment`] checks it).
    pub(crate) fn sorted(id: SegId, range: ValueRange<V>, values: Vec<V>) -> Self {
        Self::from_window(id, range, Window::new(values))
    }

    fn from_window(id: SegId, range: ValueRange<V>, window: Window<V>) -> Self {
        let synopsis = PieceSynopsis::from_sorted(&window);
        Self::with_payload(id, range, Payload::Sorted(window), synopsis)
    }

    fn with_payload(
        id: SegId,
        range: ValueRange<V>,
        values: Payload<V>,
        synopsis: Option<PieceSynopsis<V>>,
    ) -> Self {
        debug_assert!(
            values.iter().all(|v| range.contains(*v)),
            "segment values must lie within the segment range"
        );
        SegmentData {
            id,
            range,
            values,
            synopsis,
        }
    }

    /// The cached zone-map synopsis (`None` for an empty segment).
    #[inline]
    pub(crate) fn synopsis(&self) -> Option<PieceSynopsis<V>> {
        self.synopsis
    }

    /// Segment identity.
    #[inline]
    pub(crate) fn id(&self) -> SegId {
        self.id
    }

    /// The closed value range this segment is responsible for.
    #[inline]
    pub(crate) fn range(&self) -> ValueRange<V> {
        self.range
    }

    /// The stored values, in storage order (ascending when
    /// [`Self::is_sorted`]).
    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }

    /// The shared window of a sorted segment.
    #[cfg(test)]
    pub(crate) fn window(&self) -> Option<&Window<V>> {
        match &self.values {
            Payload::Sorted(window) => Some(window),
            Payload::Unsorted(_) => None,
        }
    }

    /// Whether the values are ascending in a window that may be shared.
    #[inline]
    pub(crate) fn is_sorted(&self) -> bool {
        matches!(self.values, Payload::Sorted(_))
    }

    /// Number of stored tuples.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// Storage footprint in bytes (tuples × width), the unit of the paper's
    /// read/write counters.
    #[inline]
    pub(crate) fn bytes(&self) -> u64 {
        self.len() * V::BYTES
    }

    /// The segment's window, for a served snapshot to share. An unsorted
    /// segment is first sorted in its own buffer, once, and from then on
    /// is a sorted one; the synopsis is recomputed from the new order (an
    /// `f64` sum depends on it). Reorganization is physical, so nothing is
    /// charged: no query asked for this.
    pub(crate) fn share_sorted(&mut self) -> Window<V> {
        let window = match &mut self.values {
            Payload::Sorted(window) => return window.clone(),
            Payload::Unsorted(values) => {
                let mut values = std::mem::take(values);
                values.sort_unstable();
                self.synopsis = PieceSynopsis::from_sorted(&values);
                Window::new(values)
            }
        };
        self.values = Payload::Sorted(window.clone());
        window
    }

    /// Folds the part of a delta this segment owns into its values (the
    /// caller has already cut `inserts` and `tombstones` to the segment's
    /// range): `inserts` join the stored values, then each `tombstones`
    /// entry cancels one occurrence (both ascending; inserts first, so a
    /// tombstone can cancel an insert folded in the same step). A sorted
    /// segment stays sorted: the galloping merge and subtraction write a
    /// fresh buffer of the new size, so a shared one is never changed
    /// under its readers. An unsorted one appends and cancels in its own
    /// buffer.
    ///
    /// Refreshes the synopsis and charges one read of the old values plus
    /// one write of the new (a free of the old footprint and a
    /// materialization of the new one). Returns the tombstones that found
    /// no occurrence.
    pub(crate) fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> u64 {
        debug_assert!(
            inserts.iter().all(|v| self.range.contains(*v)),
            "folded inserts must lie within the segment range"
        );
        let old = self.bytes();
        tracker.scan(self.id, old);
        let unmatched = match &mut self.values {
            Payload::Sorted(window) => {
                let mut merged = Vec::new();
                crate::kernels::merge_sorted(window, inserts, &mut merged);
                let kept = if tombstones.is_empty() {
                    merged
                } else {
                    let mut kept = Vec::with_capacity(merged.len());
                    crate::kernels::subtract_sorted(&merged, tombstones, &mut kept);
                    kept.shrink_to_fit();
                    kept
                };
                let cancelled = window.len() + inserts.len() - kept.len();
                self.synopsis = PieceSynopsis::from_sorted(&kept);
                *window = Window::new(kept);
                (tombstones.len() - cancelled) as u64
            }
            Payload::Unsorted(values) => {
                values.extend_from_slice(inserts);
                let unmatched = crate::kernels::cancel_occurrences(values, tombstones);
                self.synopsis = PieceSynopsis::from_values(values);
                unmatched
            }
        };
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
    pub(crate) fn count_in(&self, q: &ValueRange<V>) -> u64 {
        match self.classify(q) {
            SynopsisClass::Disjoint => 0,
            SynopsisClass::Covered => self.len(),
            SynopsisClass::Straddle => crate::kernels::count_range(&self.values, q),
        }
    }

    /// Hands the stored values inside `q` to `f`, in storage order: a
    /// covered segment lends its own values, a straddled one copies its
    /// matches into `scratch`. A disjoint query calls nothing.
    pub(crate) fn peek_in(&self, q: &ValueRange<V>, scratch: &mut Vec<V>, f: &mut dyn FnMut(&[V])) {
        match self.classify(q) {
            SynopsisClass::Disjoint => {}
            SynopsisClass::Covered => f(&self.values),
            SynopsisClass::Straddle => {
                scratch.clear();
                crate::kernels::collect_range(&self.values, q, scratch);
                f(scratch);
            }
        }
    }

    /// Splits the segment's values across an ordered list of sub-ranges that
    /// tile `self.range`, producing one new segment per sub-range.
    ///
    /// This is the single scan that materializes the split products of
    /// Algorithm 1, which `SegmentedColumn::replace_segment` puts in place
    /// of the segment. `ids` supplies a fresh id per piece. A sorted
    /// segment copies nothing: one binary search per inner bound cuts its
    /// window into the products' windows of the same buffer, each product
    /// sorted in turn. An unsorted one moves its values through
    /// [`crate::kernels::partition_into`]: storage order is kept within each
    /// product, the largest product keeps the segment's own buffer (cut to
    /// its values), and every other product is allocated at its exact
    /// size, so a piece never carries spare capacity for life. `lens`, the
    /// products' sizes per half of the values when the caller's query
    /// counted them already, spares that kernel its count; `None` counts.
    /// Either way the caller charges the same free and materializations:
    /// the split is the paper's rewrite, whatever it costs this process.
    ///
    /// # Panics
    /// Panics (debug) if the sub-ranges do not tile `self.range`.
    pub(crate) fn partition(
        self,
        pieces: &[ValueRange<V>],
        lens: Option<crate::kernels::HalfLens>,
        ids: &mut SegIdGen,
    ) -> Vec<SegmentData<V>> {
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

        let values = match self.values {
            Payload::Sorted(window) => {
                let mut start = 0;
                return pieces
                    .iter()
                    .map(|range| {
                        let end = start + window[start..].partition_point(|v| *v <= range.hi());
                        let product = window.sub(start, end);
                        start = end;
                        SegmentData::from_window(ids.fresh(), *range, product)
                    })
                    .collect();
            }
            Payload::Unsorted(values) => values,
        };
        // Each piece but the last ends at an inner bound.
        let inner = pieces.len().saturating_sub(1);
        let bounds: Vec<V> = pieces.iter().take(inner).map(|p| p.hi()).collect();
        let buckets = crate::kernels::partition_into(values, &bounds, lens);
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

    /// The values `peek_in` hands over for `q`, concatenated.
    fn peeked(s: &SegmentData<u32>, q: &ValueRange<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        s.peek_in(q, &mut Vec::new(), &mut |part| out.extend_from_slice(part));
        out
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
        assert_eq!(peeked(&s, &q), vec![50, 20, 60]);
        // A covered segment lends its own buffer.
        let mut lent = false;
        s.peek_in(&ValueRange::must(0, 100), &mut Vec::new(), &mut |part| {
            lent = std::ptr::eq(part, s.values());
        });
        assert!(lent);
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
        assert!(peeked(&s, &ValueRange::must(61, 100)).is_empty());
        // ...and one covering only the data (not the range) answers O(1).
        assert_eq!(s.count_in(&ValueRange::must(20, 60)), 3);
    }

    #[test]
    fn empty_segment_prunes_everything() {
        let (s, _) = seg(0, 99, &[]);
        assert_eq!(s.synopsis(), None);
        assert_eq!(s.count_in(&ValueRange::must(0, 99)), 0);
        assert!(peeked(&s, &ValueRange::must(0, 99)).is_empty());
    }

    #[test]
    fn partition_three_way() {
        let (s, mut ids) = seg(0, 99, &[5, 10, 40, 60, 95, 41, 59]);
        let pieces = [
            ValueRange::must(0, 39),
            ValueRange::must(40, 59),
            ValueRange::must(60, 99),
        ];
        let parts = s.partition(&pieces, None, &mut ids);
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
        let parts = s.partition(&pieces, None, &mut ids);
        let total: u64 = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 1000);
        for p in &parts {
            assert!(p.values().iter().all(|v| p.range().contains(*v)));
        }
    }

    #[test]
    fn partition_products_are_exact_sized_and_keep_storage_order() {
        // Values in [100, 999] of a segment over [0, 1999]: the pieces
        // below 100 and above 999 stay empty. The largest product comes
        // first, in the middle between empty ones, last, and among ten
        // bounds; it keeps the segment's buffer, the others get their own.
        let values: Vec<u32> = (0..10_000).map(|i| 100 + (i * 7919) % 900).collect();
        let r = ValueRange::must;
        let tens = (1..10).map(|i| r(i * 100, i * 100 + 99));
        for pieces in [
            vec![r(0, 799), r(800, 1999)],
            vec![r(0, 99), r(100, 999), r(1000, 1999)],
            vec![r(0, 199), r(200, 299), r(300, 1999)],
            std::iter::once(r(0, 99))
                .chain(tens)
                .chain([r(1000, 1999)])
                .collect(),
        ] {
            let want: Vec<Vec<u32>> = pieces
                .iter()
                .map(|range| {
                    let inside = values.iter().filter(|v| range.contains(**v));
                    inside.copied().collect()
                })
                .collect();
            // The sizes a query that counted them passes: the values are
            // fewer than the two-thread cut, so all of them in one half.
            let counted = [want.iter().map(Vec::len).collect(), vec![0; pieces.len()]];
            for lens in [None, Some(counted)] {
                let (s, mut ids) = seg(0, 1999, &values);
                let parts = s.partition(&pieces, lens, &mut ids);
                assert_eq!(parts.len(), pieces.len());
                for ((p, range), want) in parts.iter().zip(&pieces).zip(&want) {
                    assert_eq!(p.range(), *range);
                    assert_eq!(p.values(), want, "{range:?}");
                    // The buffer a piece keeps for life holds its values
                    // and nothing more.
                    let Payload::Unsorted(values) = &p.values else {
                        panic!("an unsorted split yields unsorted products")
                    };
                    assert_eq!(values.capacity(), values.len(), "{range:?}");
                    crate::validate::segment(p).unwrap();
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "passed-in piece sizes")]
    fn a_split_given_wrong_sizes_fails_its_debug_check() {
        let (s, mut ids) = seg(0, 99, &[5, 60, 70]);
        let pieces = [ValueRange::must(0, 49), ValueRange::must(50, 99)];
        s.partition(&pieces, Some([vec![2, 1], vec![0, 0]]), &mut ids);
    }

    #[test]
    fn sharing_sorts_in_place_and_recomputes_the_synopsis() {
        use crate::value::OrdF64;

        // An f64 sum depends on the order: 1e16 + 1 - 1e16 + 1 is 1 in
        // storage order and 0 ascending.
        let values = [1e16, 1.0, -1e16, 1.0].map(OrdF64::from_finite).to_vec();
        let range = ValueRange::must(OrdF64::from_finite(-1e17), OrdF64::from_finite(1e17));
        let mut s = SegmentData::new(SegIdGen::new().fresh(), range, values);
        let before = s.synopsis().expect("non-empty").sum();
        let window = s.share_sorted();
        assert!(s.is_sorted());
        assert!(window.same(&s.share_sorted()), "sorted once, then shared");
        assert!(s.values().windows(2).all(|w| w[0] <= w[1]));
        crate::validate::segment(&s).unwrap();
        assert_ne!(
            s.synopsis().expect("non-empty").sum().to_bits(),
            before.to_bits()
        );
    }

    #[test]
    fn a_sorted_fold_writes_a_fresh_buffer_and_leaves_the_shared_one() {
        let mut ids = SegIdGen::new();
        let s = SegmentData::sorted(ids.fresh(), ValueRange::must(0, 99), vec![10, 20, 30, 40]);
        let mut parts = s.partition(
            &[ValueRange::must(0, 24), ValueRange::must(25, 99)],
            None,
            &mut ids,
        );
        let served = parts[0].share_sorted();
        let unmatched = parts[0].fold_delta(&[15, 15], &[10, 11], &mut crate::tracker::NullTracker);
        assert_eq!(unmatched, 1, "11 was never stored");
        assert_eq!(parts[0].values(), [15, 15, 20]);
        assert!(parts[0].is_sorted());
        crate::validate::segment(&parts[0]).unwrap();
        // The reader's window still holds the old values, and the
        // untouched sibling still shares the buffer with it.
        assert_eq!(&served[..], [10, 20]);
        assert!(!parts[0].share_sorted().shares_buffer(&served));
        assert!(parts[1].share_sorted().shares_buffer(&served));
    }

    #[test]
    fn partition_allows_empty_pieces() {
        let (s, mut ids) = seg(0, 99, &[1, 2, 3]);
        let pieces = [ValueRange::must(0, 49), ValueRange::must(50, 99)];
        let parts = s.partition(&pieces, None, &mut ids);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 0);
        assert_eq!(parts[1].bytes(), 0);
    }
}
