//! The paper's Figure 3 walk-through, reconstructed exactly.
//!
//! "Figure 3 illustrates the process using the APM model for an example
//! load of three queries. In the initial state S0, the column is
//! represented by a single segment. Query Q1 causes its reorganization
//! into three segments (rule 2). Next, Q2 issues a split of the first
//! sub-segment, but not of the second where the selection is too small
//! (rule 2 is not fulfilled). Note, that query Q2 does not need to scan
//! the last segment which does not overlap with its range, i.e. it
//! immediately benefits from the reorganization triggered by the first
//! query. Finally, query Q3 with small selectivity causes a split at the
//! mean value of the last segment (rule 3)."

use crate::{
    AdaptivePageModel, AdaptiveSegmentation, ColumnStrategy, CountingTracker, SegmentedColumn,
    SizeEstimator, ValueRange,
};

const KB: u64 = 1024;

/// One value per domain point: estimates are exact, sizes are predictable.
/// 100 000 values x 4 bytes; Mmin = 3 KB (750 values), Mmax = 12 KB (3000).
fn strategy() -> AdaptiveSegmentation<u32> {
    let values: Vec<u32> = (0..100_000).collect();
    let column = SegmentedColumn::new(ValueRange::must(0, 99_999), values).unwrap();
    AdaptiveSegmentation::new(
        column,
        Box::new(AdaptivePageModel::new(3 * KB, 12 * KB)),
        SizeEstimator::Uniform,
    )
}

fn ranges(s: &AdaptiveSegmentation<u32>) -> Vec<(u32, u32)> {
    s.column()
        .segments()
        .iter()
        .map(|seg| (seg.range().lo(), seg.range().hi()))
        .collect()
}

#[test]
fn figure3_three_query_walkthrough() {
    let mut s = strategy();
    let mut t = CountingTracker::new();

    // S0: the initial state — one segment covering the whole column.
    assert_eq!(ranges(&s), vec![(0, 99_999)]);

    // Q1: a range in the lower third. All three produced pieces exceed
    // Mmin (750 values), so rule 2 splits the segment into three.
    t.begin_query();
    let n = s.select_count(&ValueRange::must(30_000, 32_799), &mut t);
    assert_eq!(n, 2_800);
    assert_eq!(
        ranges(&s),
        vec![(0, 29_999), (30_000, 32_799), (32_800, 99_999)],
        "Q1: rule 2 yields three segments"
    );
    // Eager reorganization: the whole column was rewritten.
    assert_eq!(t.query_stats().write_bytes, 400_000);

    // Q2: overlaps the first segment (big pieces on both sides -> rule 2
    // splits it) and clips 700 values out of the second segment — below
    // Mmin, and the segment itself is inside the [Mmin, Mmax] band, so
    // rule 2 is not fulfilled and rule 3's Mmax gate keeps it intact.
    t.begin_query();
    let n = s.select_count(&ValueRange::must(10_000, 30_699), &mut t);
    assert_eq!(n, 20_700);
    assert_eq!(
        ranges(&s),
        vec![
            (0, 9_999),
            (10_000, 29_999),
            (30_000, 32_799),
            (32_800, 99_999),
        ],
        "Q2: the first segment splits, the second stays"
    );
    // "Q2 does not need to scan the last segment": reads cover only the
    // first two segments (120KB + 11.2KB), not the 268.8KB tail.
    assert_eq!(t.query_stats().read_bytes, 120_000 + 11_200);
    // Only the first segment was rewritten.
    assert_eq!(t.query_stats().write_bytes, 120_000);

    // Q3: a point-ish query near the left edge of the big tail segment.
    // Both query bounds would cut off a piece under Mmin, the segment is
    // far over Mmax, so rule 3 splits at (an approximation of) the mean.
    t.begin_query();
    let n = s.select_count(&ValueRange::must(32_900, 32_999), &mut t);
    assert_eq!(n, 100);
    let r = ranges(&s);
    assert_eq!(r.len(), 5, "Q3: rule 3 split the tail segment in two");
    // The split point is the midpoint of [32_800, 99_999].
    let mid = 32_800 + (99_999 - 32_800) / 2;
    assert_eq!(r[3], (32_800, mid));
    assert_eq!(r[4], (mid + 1, 99_999));

    s.column().validate().unwrap();

    // The immediate pay-off the figure illustrates: repeating Q1 now
    // touches exactly its own 11.2KB segment.
    t.begin_query();
    s.select_count(&ValueRange::must(30_000, 32_799), &mut t);
    assert_eq!(t.query_stats().read_bytes, 11_200);
    assert_eq!(t.query_stats().write_bytes, 0);
}

/// The same walk-through under adaptive replication shows the contrast the
/// paper draws in Section 5: "both queries Q2 and Q3 overlap with virtual
/// segments and need to scan the entire column."
#[test]
fn figure4_replication_contrast() {
    use crate::{AdaptiveReplication, ReplicaTree};
    let values: Vec<u32> = (0..100_000).collect();
    let tree = ReplicaTree::new(ValueRange::must(0, 99_999), values).unwrap();
    let mut r = AdaptiveReplication::new(tree, Box::new(AdaptivePageModel::new(3 * KB, 12 * KB)));
    let mut t = CountingTracker::new();

    // Q1 keeps its result as a replica; complements stay virtual.
    t.begin_query();
    r.select_count(&ValueRange::must(30_000, 32_799), &mut t);
    assert_eq!(t.query_stats().read_bytes, 400_000);
    assert_eq!(
        t.query_stats().write_bytes,
        11_200,
        "only the result is kept"
    );

    // Q2 overlaps a virtual segment: the cover falls back to the root and
    // the entire column is scanned again — the Figure 7 spike.
    t.begin_query();
    r.select_count(&ValueRange::must(10_000, 30_699), &mut t);
    assert_eq!(t.query_stats().read_bytes, 400_000);

    // Q3 likewise.
    t.begin_query();
    r.select_count(&ValueRange::must(32_900, 32_999), &mut t);
    assert_eq!(t.query_stats().read_bytes, 400_000);

    r.tree().validate().unwrap();
}
