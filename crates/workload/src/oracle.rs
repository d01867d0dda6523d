//! A query oracle: exact reference answers for range selections in
//! `O(log n)`, used by tests and the verification harness to check
//! strategies without `O(n)` rescans per query.

use soc_core::{ColumnValue, ValueRange};

/// Sorted snapshot of a column answering range-count queries by binary
/// search.
#[derive(Debug, Clone)]
pub struct Oracle<V> {
    sorted: Vec<V>,
}

impl<V: ColumnValue> Oracle<V> {
    /// Builds the oracle (one sort).
    pub fn new(mut values: Vec<V>) -> Self {
        values.sort_unstable();
        Oracle { sorted: values }
    }

    /// Tuple count.
    pub fn len(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Exact number of values in the closed range.
    pub fn count(&self, q: &ValueRange<V>) -> u64 {
        let lo = self.sorted.partition_point(|v| *v < q.lo());
        let hi = self.sorted.partition_point(|v| *v <= q.hi());
        (hi - lo) as u64
    }

    /// The qualifying values, sorted.
    pub fn collect(&self, q: &ValueRange<V>) -> Vec<V> {
        let lo = self.sorted.partition_point(|v| *v < q.lo());
        let hi = self.sorted.partition_point(|v| *v <= q.hi());
        self.sorted[lo..hi].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_naive_filter() {
        let values: Vec<u32> = (0..1000).map(|i| (i * 37) % 500).collect();
        let oracle = Oracle::new(values.clone());
        for (lo, hi) in [(0, 499), (100, 100), (250, 400), (499, 499), (0, 0)] {
            let q = ValueRange::must(lo, hi);
            let expect = values.iter().filter(|v| q.contains(**v)).count() as u64;
            assert_eq!(oracle.count(&q), expect, "{q:?}");
        }
    }

    #[test]
    fn collect_is_sorted_and_complete() {
        let values: Vec<u32> = vec![5, 1, 9, 5, 3];
        let oracle = Oracle::new(values);
        let got = oracle.collect(&ValueRange::must(3, 5));
        assert_eq!(got, vec![3, 5, 5]);
    }

    #[test]
    fn duplicates_are_counted() {
        let oracle = Oracle::new(vec![7u32; 42]);
        assert_eq!(oracle.count(&ValueRange::must(7, 7)), 42);
        assert_eq!(oracle.count(&ValueRange::must(0, 6)), 0);
        assert_eq!(oracle.count(&ValueRange::must(8, 100)), 0);
    }
}
