//! Database cracking, the closest related technique (Section 7).
//!
//! "Our approach is in-line with the promising development of database
//! cracking, which, however, reorganizes a complete in-memory replica of
//! the cracked column." — Idreos, Kersten & Manegold, CIDR 2007.
//!
//! Implemented here as an ablation baseline: a cracker column (an in-memory
//! copy of the data) plus a cracker index of piece boundaries. Each range
//! selection *cracks* the pieces holding its bounds so the result becomes a
//! contiguous slice. Unlike adaptive segmentation, the whole column lives in
//! one allocation and only the touched pieces are physically reorganized.
//!
//! Accounting model: every crack scans its piece (`reads += piece bytes`)
//! and swaps values in place (`writes += 2 × swapped values`); answering the
//! query reads the result slice (`reads += result bytes`). Its pieces are
//! slices of one contiguous array, so its footprint is the column's
//! tuples × width, like every other strategy's.

use std::collections::BTreeMap;

use crate::range::ValueRange;
use crate::segment::{SegId, SegIdGen};
use crate::strategy::ColumnStrategy;
use crate::tracker::AccessTracker;
use crate::value::ColumnValue;

/// A column organized by database cracking.
#[derive(Debug)]
pub struct CrackedColumn<V> {
    id: SegId,
    data: Vec<V>,
    /// Boundary value → first position holding a value `>= boundary`.
    index: BTreeMap<V, usize>,
    cracks: u64,
    /// `(min, max)` of the data — invariant under cracking, which only
    /// permutes values in place.
    bounds: Option<(V, V)>,
}

impl<V: ColumnValue> CrackedColumn<V> {
    /// Takes ownership of the column copy to crack, computing the data's
    /// `(min, max)` with one fold.
    pub fn new(values: Vec<V>) -> Self {
        let bounds = values
            .iter()
            .fold(None, |acc: Option<(V, V)>, &v| match acc {
                None => Some((v, v)),
                Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
            });
        let mut ids = SegIdGen::new();
        CrackedColumn {
            id: ids.fresh(),
            data: values,
            index: BTreeMap::new(),
            cracks: 0,
            bounds,
        }
    }

    /// Number of crack operations performed.
    #[cfg(test)]
    pub(crate) fn cracks(&self) -> u64 {
        self.cracks
    }

    /// Number of pieces the cracker index currently delimits.
    pub(crate) fn piece_count(&self) -> usize {
        self.index.len() + 1
    }

    /// The cracker index as `(boundary value, first position >= boundary)`
    /// entries, ascending by value — together with [`Self::values`] the
    /// complete reorganization state.
    pub(crate) fn boundaries(&self) -> Vec<(V, usize)> {
        self.index.iter().map(|(&v, &p)| (v, p)).collect()
    }

    /// The cracker-index invariant over `values` and ascending
    /// `boundaries`: positions monotone and inside the data, every value
    /// left of a boundary's position `<` the boundary and every value at or
    /// right of it `>=`. Returns the data's `(min, max)`, derived by the
    /// same pass.
    fn check_partition(values: &[V], boundaries: &[(V, usize)]) -> Result<Option<(V, V)>, String> {
        for w in boundaries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!(
                    "boundaries not strictly ascending: {:?} then {:?}",
                    w[0].0, w[1].0
                ));
            }
            if w[0].1 > w[1].1 {
                return Err(format!(
                    "boundary positions not monotone: {} then {}",
                    w[0].1, w[1].1
                ));
            }
        }
        if let Some(&(_, p)) = boundaries.last() {
            if p > values.len() {
                return Err(format!(
                    "boundary position {p} exceeds column length {}",
                    values.len()
                ));
            }
        }
        // One pass over the data against the piece each position falls in.
        let mut piece = 0usize;
        let mut bounds: Option<(V, V)> = None;
        for (i, v) in values.iter().enumerate() {
            while piece < boundaries.len() && i >= boundaries[piece].1 {
                piece += 1;
            }
            if piece > 0 && *v < boundaries[piece - 1].0 {
                return Err(format!(
                    "value {v:?} at {i} below its piece boundary {:?}",
                    boundaries[piece - 1].0
                ));
            }
            if piece < boundaries.len() && *v >= boundaries[piece].0 {
                return Err(format!(
                    "value {v:?} at {i} at or above the next boundary {:?}",
                    boundaries[piece].0
                ));
            }
            bounds = Some(match bounds {
                None => (*v, *v),
                Some((lo, hi)) => (lo.min(*v), hi.max(*v)),
            });
        }
        Ok(bounds)
    }

    /// Full structural check of the live state: the cracker index
    /// partitions the data and the cached bounds are the data's exact
    /// `(min, max)` — run after every delta fold in debug builds.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let bounds = Self::check_partition(&self.data, &self.boundaries())?;
        if bounds != self.bounds {
            return Err(format!(
                "cached bounds {:?} but the data spans {bounds:?}",
                self.bounds
            ));
        }
        Ok(())
    }

    /// The piece `[start, end)` that a crack at `v` must partition.
    fn piece_of(&self, v: V) -> (usize, usize) {
        let start = self
            .index
            .range(..=v)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let end = self
            .index
            .range((std::ops::Bound::Excluded(v), std::ops::Bound::Unbounded))
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(self.data.len());
        (start, end)
    }

    /// Ensures a boundary at `v`: all values `< v` end up left of the
    /// returned position, all `>= v` right of it. One in-place partition of
    /// the piece containing `v` (crack-in-two).
    fn crack_at(&mut self, v: V, tracker: &mut dyn AccessTracker) -> usize {
        if let Some(&p) = self.index.get(&v) {
            return p;
        }
        let (start, end) = self.piece_of(v);
        let piece_bytes = (end - start) as u64 * V::BYTES;
        tracker.scan(self.id, piece_bytes);

        // Hoare-style partition: < v left, >= v right.
        let mut swaps = 0u64;
        let slice = &mut self.data[start..end];
        let mut l = 0usize;
        let mut r = slice.len();
        while l < r {
            if slice[l] < v {
                l += 1;
            } else {
                r -= 1;
                slice.swap(l, r);
                swaps += 1;
            }
        }
        let pos = start + l;
        tracker.materialize(self.id, swaps * 2 * V::BYTES);
        self.index.insert(v, pos);
        self.cracks += 1;
        pos
    }

    /// Cracks both query bounds and returns the contiguous result slice
    /// `[lo, hi)` of positions.
    fn crack_range(
        &mut self,
        q: &ValueRange<V>,
        tracker: &mut dyn AccessTracker,
    ) -> (usize, usize) {
        let lo = self.crack_at(q.lo(), tracker);
        let hi = match q.hi().succ() {
            Some(upper) => self.crack_at(upper, tracker),
            None => self.data.len(),
        };
        crate::debug_assert_valid!(
            crate::validate::ranges_disjoint_sorted(
                &self.pieces().iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            ),
            "cracked column reorganize"
        );
        (lo, hi.max(lo))
    }

    /// Recomputes the cached `(min, max)` after a fold changed the logical
    /// content: pieces are value-ordered, so the minimum lives in the first
    /// non-empty piece and the maximum in the last — two piece folds, not a
    /// pass over the column.
    fn refresh_bounds(&mut self) {
        let cuts: Vec<usize> = [0]
            .into_iter()
            .chain(self.index.values().copied())
            .chain([self.data.len()])
            .collect();
        let mut pieces = cuts
            .windows(2)
            .map(|w| &self.data[w[0]..w[1]])
            .filter(|p| !p.is_empty());
        let first = pieces.next();
        let last = pieces.next_back().or(first);
        self.bounds = first
            .and_then(crate::kernels::min_max_all)
            .zip(last.and_then(crate::kernels::min_max_all))
            .map(|((lo, _), (_, hi))| (lo, hi));
    }
}

// contract: ColumnStrategy thread-safety: cracking reorders data only inside &mut self selects, delta folds rebuild it only inside &mut self fold_delta; &self accessors are pure reads.
impl<V: ColumnValue> ColumnStrategy<V> for CrackedColumn<V> {
    fn name(&self) -> String {
        "Cracking".to_owned()
    }

    fn select_count(&mut self, q: &ValueRange<V>, tracker: &mut dyn AccessTracker) -> u64 {
        let (lo, hi) = self.crack_range(q, tracker);
        let result_bytes = (hi - lo) as u64 * V::BYTES;
        tracker.scan(self.id, result_bytes);
        (hi - lo) as u64
    }

    fn peek_slices(&self, q: &ValueRange<V>, f: &mut dyn FnMut(&[V])) {
        // Values in [q.lo, q.hi] can only live between the start of the
        // piece holding q.lo and the end of the piece holding q.hi; read
        // just that window, without cracking. Only the two boundary pieces
        // can contain non-qualifying values: every piece strictly between
        // them spans boundary values inside (q.lo, q.hi], so its slice is
        // lent in place — the cracked analogue of a covered segment — and
        // the boundary pieces' matches are copied by the branchless kernel.
        // "One piece" compares whole pieces: an empty piece shares its start
        // with the piece above it.
        let (lo_start, lo_end) = self.piece_of(q.lo());
        let (hi_start, hi_end) = self.piece_of(q.hi());
        let mut scratch = Vec::new();
        crate::kernels::collect_range(&self.data[lo_start..lo_end], q, &mut scratch);
        f(&scratch);
        if (lo_start, lo_end) != (hi_start, hi_end) {
            f(&self.data[lo_end..hi_start]);
            scratch.clear();
            crate::kernels::collect_range(&self.data[hi_start..hi_end], q, &mut scratch);
            f(&scratch);
        }
    }

    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        if inserts.is_empty() && tombstones.is_empty() {
            return Some(0);
        }
        // One pass rebuilds the value array piece by piece: piece k holds
        // the values below boundary k (the last piece everything else), so
        // any value has an owner and the fold always absorbs. Untouched
        // pieces are copied as they are; a touched piece takes its inserts
        // and drops its tombstoned occurrences on the way, and every
        // boundary position shifts by the net growth left of it.
        let old = std::mem::take(&mut self.data);
        let mut data = Vec::with_capacity(old.len() + inserts.len());
        let mut piece: Vec<V> = Vec::new();
        let (mut ins, mut tombs) = (inserts, tombstones);
        let mut unmatched = 0u64;
        let mut start = 0usize;
        let pieces = self.index.iter().map(|(b, end)| (Some(*b), *end));
        let pieces: Vec<(Option<V>, usize)> = pieces.chain([(None, old.len())]).collect();
        let mut shifted = Vec::with_capacity(pieces.len());
        for (upper, end) in pieces {
            let (i, t) = match upper {
                Some(b) => (
                    ins.partition_point(|v| *v < b),
                    tombs.partition_point(|v| *v < b),
                ),
                None => (ins.len(), tombs.len()),
            };
            if i == 0 && t == 0 {
                data.extend_from_slice(&old[start..end]);
            } else {
                tracker.scan(self.id, (end - start) as u64 * V::BYTES);
                piece.clear();
                piece.extend_from_slice(&old[start..end]);
                piece.extend_from_slice(&ins[..i]);
                unmatched += crate::kernels::cancel_occurrences(&mut piece, &tombs[..t]);
                tracker.materialize(self.id, piece.len() as u64 * V::BYTES);
                data.extend_from_slice(&piece);
            }
            shifted.push(data.len());
            (ins, tombs, start) = (&ins[i..], &tombs[t..], end);
        }
        self.data = data;
        for (pos, new) in self.index.values_mut().zip(shifted) {
            *pos = new;
        }
        self.refresh_bounds();
        crate::debug_assert_valid!(self.validate(), "cracked column fold");
        Some(unmatched)
    }

    fn storage_bytes(&self) -> u64 {
        self.data.len() as u64 * V::BYTES
    }

    fn segment_count(&self) -> usize {
        self.piece_count()
    }

    fn pieces(&self) -> Vec<(ValueRange<V>, u64)> {
        // Crack boundaries partition the value space: piece k holds values
        // in [boundary_k, boundary_{k+1}). Boundaries outside the data's
        // [min, max] delimit empty pieces with no representable range;
        // their (zero-byte) spans are folded away.
        let Some((lo, hi)) = self.bounds else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut cur = lo;
        let mut start_pos = 0usize;
        for (&b, &p) in &self.index {
            if b > cur {
                if let Some(end) = b.pred() {
                    if let Some(r) = ValueRange::new(cur, end.min(hi)) {
                        out.push((r, (p - start_pos) as u64 * V::BYTES));
                    }
                }
                cur = b;
            }
            // Positions are monotone in the boundary value, so this is the
            // start of whatever piece `cur` now opens.
            start_pos = start_pos.max(p);
        }
        if cur <= hi {
            if let Some(r) = ValueRange::new(cur.max(lo), hi) {
                out.push((r, (self.data.len() - start_pos) as u64 * V::BYTES));
            }
        }
        out
    }

    fn adaptation(&self) -> crate::strategy::AdaptationStats {
        crate::strategy::AdaptationStats {
            splits: self.cracks,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{CountingTracker, NullTracker};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn shuffled(n: u32, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..100_000)).collect()
    }

    #[test]
    fn results_match_naive_filter() {
        let values = shuffled(20_000, 1);
        let reference = values.clone();
        let mut c = CrackedColumn::new(values);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..300 {
            let lo = rng.gen_range(0..100_000u32);
            let hi = lo.saturating_add(rng.gen_range(0..25_000)).min(99_999);
            let q = ValueRange::must(lo, hi);
            let expect = reference.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(c.select_count(&q, &mut NullTracker), expect, "{q:?}");
        }
    }

    #[test]
    fn collect_returns_sorted_by_piece_not_necessarily_globally() {
        let values = shuffled(5_000, 3);
        let reference = values.clone();
        let mut c = CrackedColumn::new(values);
        let q = ValueRange::must(20_000, 39_999);
        c.select_count(&q, &mut NullTracker);
        let mut got = c.peek_collect(&q);
        let mut expect: Vec<u32> = reference.into_iter().filter(|v| q.contains(*v)).collect();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn peek_sees_every_row_after_a_crack_below_the_data() {
        // Regression: cracking [10, 20] over 100..199 leaves two boundaries
        // at position 0, so the piece holding 0 is empty and starts where
        // the piece holding 999 does; the peek took them for one piece and
        // returned none of the 100 rows.
        let mut c = CrackedColumn::new((100..200u32).collect());
        assert_eq!(
            c.select_count(&ValueRange::must(10, 20), &mut NullTracker),
            0
        );
        assert_eq!(c.boundaries(), vec![(10, 0), (21, 0)]);
        let mut got = c.peek_collect(&ValueRange::must(0, 999));
        got.sort_unstable();
        assert_eq!(got, (100..200).collect::<Vec<u32>>());
        assert_eq!(c.peek_collect(&ValueRange::must(15, 150)).len(), 51);
    }

    #[test]
    fn repeated_queries_stop_cracking() {
        let mut c = CrackedColumn::new(shuffled(10_000, 4));
        let q = ValueRange::must(10_000, 19_999);
        c.select_count(&q, &mut NullTracker);
        let cracks_after_first = c.cracks();
        assert_eq!(cracks_after_first, 2);
        let mut t = CountingTracker::new();
        let n = c.select_count(&q, &mut t);
        assert_eq!(c.cracks(), cracks_after_first, "no new cracks");
        // Only the result slice is read, nothing written.
        assert_eq!(t.totals().read_bytes, n * 4);
        assert_eq!(t.totals().write_bytes, 0);
    }

    #[test]
    fn pieces_partition_the_column() {
        let mut c = CrackedColumn::new(shuffled(10_000, 5));
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..50 {
            let lo = rng.gen_range(0..90_000u32);
            c.select_count(&ValueRange::must(lo, lo + 9_999), &mut NullTracker);
        }
        let total: u64 = c.pieces().iter().map(|(_, b)| b).sum();
        assert_eq!(total, c.storage_bytes());
        assert_eq!(c.segment_count(), c.piece_count());
        // Cracker-index invariant: data left of each boundary < boundary.
        for (v, &p) in &c.index {
            assert!(c.data[..p].iter().all(|x| x < v));
            assert!(c.data[p..].iter().all(|x| x >= v));
        }
    }

    #[test]
    fn pieces_skip_boundaries_outside_the_data() {
        // A crack below the data minimum (query lo under every value) or
        // above its maximum delimits an empty piece with no representable
        // range: it is left out, and the bytes still sum to the column.
        let values: Vec<u32> = (100..1100).collect();
        let mut c = CrackedColumn::new(values);
        c.select_count(&ValueRange::must(10, 499), &mut NullTracker);
        assert_eq!(
            c.pieces(),
            vec![
                (ValueRange::must(100, 499), 400 * 4),
                (ValueRange::must(500, 1099), 600 * 4)
            ]
        );

        c.select_count(&ValueRange::must(900, 5_000), &mut NullTracker);
        let pieces = c.pieces();
        assert_eq!(
            pieces.iter().map(|(_, b)| b).sum::<u64>(),
            c.storage_bytes()
        );
        assert_eq!(
            *pieces.last().unwrap(),
            (ValueRange::must(900, 1099), 200 * 4)
        );
    }

    #[test]
    fn check_partition_accepts_live_state_and_rejects_invalid() {
        let mut c = CrackedColumn::new(shuffled(5_000, 9));
        for k in 0..10u32 {
            let lo = (k * 997) % 90_000;
            c.select_count(&ValueRange::must(lo, lo + 5_000), &mut NullTracker);
        }
        assert!(c.piece_count() > 1);
        c.validate().unwrap();

        // Violations are rejected, not absorbed.
        let check = |values: &[u32], boundaries: &[(u32, usize)]| {
            CrackedColumn::check_partition(values, boundaries)
        };
        assert_eq!(check(&[1, 5], &[(3, 1)]), Ok(Some((1, 5))));
        assert!(
            check(&[5, 1], &[(3, 1)]).is_err(),
            "value 5 left of boundary 3 must fail"
        );
        assert!(
            check(&[1, 5], &[(3, 9)]).is_err(),
            "position beyond the data must fail"
        );
        assert!(
            check(&[1, 5], &[(3, 1), (2, 1)]).is_err(),
            "descending boundaries must fail"
        );
    }

    #[test]
    fn domain_max_bound_needs_no_succ() {
        let mut c = CrackedColumn::new(vec![u32::MAX, 0, u32::MAX - 1]);
        let q = ValueRange::must(u32::MAX - 1, u32::MAX);
        assert_eq!(c.select_count(&q, &mut NullTracker), 2);
    }

    #[test]
    fn first_query_scans_whole_column_like_segmentation() {
        let mut c = CrackedColumn::new(shuffled(100_000, 7));
        let mut t = CountingTracker::new();
        c.select_count(&ValueRange::must(40_000, 49_999), &mut t);
        // Two cracks over the virgin column: the first scans all 400KB, the
        // second only the upper piece.
        assert!(t.totals().read_bytes >= 400_000);
    }
}
