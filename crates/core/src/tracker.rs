//! Access accounting: the hooks the paper's simulator measures through.
//!
//! Section 6.1 evaluates the techniques by counting *memory reads* (bytes of
//! segments scanned to answer a query) and *memory writes* ("writes due to
//! segment materialization with segments including query results"). Every
//! data movement in `soc-core` is reported through [`AccessTracker`]; the
//! strategies never count anything themselves, so the accounting cannot
//! drift from the actual array work.

use crate::segment::SegId;

/// Observer of all segment-granularity data movement.
///
/// Implementations range from plain counters ([`CountingTracker`]) to the
/// buffer-managed, cost-modelled simulator in `soc-sim`.
///
/// # Merge contract (per-part attribution)
///
/// Trackers are deliberately *not* shared across threads. A caller that
/// must attribute work to the part that did it gives each part a private
/// tracker — an [`EventLog`] when the caller's tracker must see every
/// individual event (buffer simulation, per-segment cost models), or a
/// [`CountingTracker`] when only totals matter — and merges it into the
/// caller's tracker in a deterministic order. Replaying part logs in the
/// order the parts ran reports byte-for-byte the same totals, and the same
/// event sequence, as handing the caller's tracker to each part directly:
/// the callbacks are pure accumulation. `soc-sim`'s sharded column does
/// exactly this per routed node, in ascending node order, so each node's
/// scanned bytes are measured ([`EventLog::scan_bytes`]) on the way
/// through. An [`EventLog`] merges through [`EventLog::replay_into`]; a
/// [`CountingTracker`]'s totals merge by adding their `QueryStats`
/// fields.
pub trait AccessTracker {
    /// A full sequential scan of segment `seg` (`bytes` = its footprint).
    ///
    /// Fired once per segment touched while answering a query — overlapping
    /// segments in adaptive segmentation, covering-set members in adaptive
    /// replication, the whole column in the non-segmented baseline.
    fn scan(&mut self, seg: SegId, bytes: u64);

    /// A new segment `seg` of `bytes` was materialized (written).
    ///
    /// Fired for every retained piece: split products of Algorithm 1 and
    /// materialized replicas of Algorithm 2. Transient query results that
    /// are *not* retained are not reported, matching the paper's saturating
    /// write curves (Figures 5–6).
    fn materialize(&mut self, seg: SegId, bytes: u64);

    /// Segment `seg` was dropped and its storage released.
    ///
    /// Fired when a split replaces a segment and when Algorithm 5 drops a
    /// fully replicated segment from the replica tree.
    fn free(&mut self, seg: SegId, bytes: u64);

    /// Segment `seg` was *pruned*: a piece synopsis (min/max/count/sum)
    /// proved the query needs none of its bytes, so the read path skipped
    /// it — or answered it O(1) from the synopsis — without touching the
    /// payload. `bytes` is the footprint the scan *would* have charged, so
    /// `read_bytes + pruned_bytes` reconstructs the unpruned cost of the
    /// same query without a second execution.
    ///
    /// Pruned segments charge **zero** scan bytes by contract (pinned on
    /// the replay side by `tests::event_log_replays_verbatim`). The
    /// default is a no-op so trackers that predate pruning keep compiling.
    fn skip(&mut self, seg: SegId, bytes: u64) {
        let _ = (seg, bytes);
    }

    /// A merge-on-read probe of delta run `seg` (`bytes` = the qualifying
    /// inserts and tombstones its binary searches delimit — what the read
    /// touches, not the run's footprint). Fired **exactly once per
    /// query** — pinned by `epoch`'s
    /// `a_delta_read_charges_the_rows_it_touches` test — when the
    /// query's range overlaps either side's zone map; a run disjoint from
    /// the query charges [`AccessTracker::skip`] of its footprint instead.
    ///
    /// Delta reads are real reads: the default forwards to
    /// [`AccessTracker::scan`] so trackers that predate delta visibility
    /// keep counting every byte, while trackers that override it (the
    /// [`CountingTracker`]) additionally attribute the bytes to
    /// `QueryStats::delta_read_bytes` — the overlay's read overhead,
    /// separable from base scans without a second execution.
    fn delta_scan(&mut self, seg: SegId, bytes: u64) {
        self.scan(seg, bytes);
    }
}

/// Counters for one query (one "epoch") of tracked work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Bytes of segments scanned.
    pub read_bytes: u64,
    /// Bytes of segments materialized.
    pub write_bytes: u64,
    /// Bytes of segments released.
    pub freed_bytes: u64,
    /// Number of segments scanned (iteration overhead proxy).
    pub segments_scanned: u64,
    /// Number of segments materialized.
    pub segments_materialized: u64,
    /// Number of segments pruned by synopsis (answered without a scan).
    pub segments_pruned: u64,
    /// Bytes the pruned segments would have cost an unpruned scan.
    pub pruned_bytes: u64,
    /// Reorganization hints dropped because the writer's bounded command
    /// queue was full (backpressure on the concurrent read path). Hints
    /// are advisory — dropping one delays adaptation, never correctness —
    /// but the count must be visible so overload is measurable. Folded in
    /// by [`ConcurrentColumn`](crate::ConcurrentColumn), not by tracker
    /// callbacks.
    pub reorg_hints_dropped: u64,
    /// Bytes of delta runs scanned by merge-on-read — a sub-attribution
    /// of [`read_bytes`](Self::read_bytes) (every
    /// [`AccessTracker::delta_scan`] charges both), so
    /// `read_bytes - delta_read_bytes` is the base-only cost and this
    /// field alone is the overlay's read overhead.
    pub delta_read_bytes: u64,
}

/// The basic tracker: running totals plus a per-query epoch.
///
/// Call [`CountingTracker::begin_query`] before each query and read the
/// epoch's stats with [`CountingTracker::query_stats`] afterwards; totals
/// accumulate across the whole run (the cumulative curves of Figures 5–6).
#[derive(Debug, Default)]
pub struct CountingTracker {
    total: QueryStats,
    current: QueryStats,
}

impl CountingTracker {
    /// A fresh tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new per-query epoch (does not touch the running totals).
    pub fn begin_query(&mut self) {
        self.current = QueryStats::default();
    }

    /// Counters accumulated since the last [`Self::begin_query`].
    pub fn query_stats(&self) -> QueryStats {
        self.current
    }

    /// Counters accumulated over the tracker's whole lifetime.
    pub fn totals(&self) -> QueryStats {
        self.total
    }
}

impl AccessTracker for CountingTracker {
    fn scan(&mut self, _seg: SegId, bytes: u64) {
        self.current.read_bytes += bytes;
        self.current.segments_scanned += 1;
        self.total.read_bytes += bytes;
        self.total.segments_scanned += 1;
    }

    fn materialize(&mut self, _seg: SegId, bytes: u64) {
        self.current.write_bytes += bytes;
        self.current.segments_materialized += 1;
        self.total.write_bytes += bytes;
        self.total.segments_materialized += 1;
    }

    fn free(&mut self, _seg: SegId, bytes: u64) {
        self.current.freed_bytes += bytes;
        self.total.freed_bytes += bytes;
    }

    fn skip(&mut self, _seg: SegId, bytes: u64) {
        self.current.segments_pruned += 1;
        self.current.pruned_bytes += bytes;
        self.total.segments_pruned += 1;
        self.total.pruned_bytes += bytes;
    }

    fn delta_scan(&mut self, seg: SegId, bytes: u64) {
        self.scan(seg, bytes);
        self.current.delta_read_bytes += bytes;
        self.total.delta_read_bytes += bytes;
    }
}

/// One recorded [`AccessTracker`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerEvent {
    /// A [`AccessTracker::scan`] of `bytes` on segment `seg`.
    Scan(SegId, u64),
    /// A [`AccessTracker::materialize`] of `bytes` as segment `seg`.
    Materialize(SegId, u64),
    /// A [`AccessTracker::free`] of `bytes` from segment `seg`.
    Free(SegId, u64),
    /// An [`AccessTracker::skip`]: segment `seg` pruned, `bytes` unread.
    Skip(SegId, u64),
    /// An [`AccessTracker::delta_scan`]: delta run `seg`, `bytes` read by
    /// merge-on-read.
    DeltaScan(SegId, u64),
}

/// A tracker that records every event verbatim for later replay.
///
/// This is the exactness half of the [`AccessTracker`] merge contract:
/// a part counts into its own `EventLog`, and the caller replays the logs
/// into its real tracker in the order the parts ran. Because the
/// individual events — segment identities, byte counts, ordering within a
/// part — are all preserved, even stateful trackers (the buffer-pool
/// simulator keyed on [`SegId`]) observe the replay exactly as they would
/// the direct run.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<TrackerEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes of the recorded [`TrackerEvent::Scan`] and
    /// [`TrackerEvent::DeltaScan`] events — the per-part read attribution
    /// a caller charges to the part that produced this log (the other half
    /// of the merge contract). Delta scans are real reads, so they
    /// count here; skips never do.
    pub fn scan_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TrackerEvent::Scan(_, bytes) | TrackerEvent::DeltaScan(_, bytes) => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// The recorded events in arrival order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[TrackerEvent] {
        &self.events
    }

    /// Whether nothing has been recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-fires every recorded event, in order, at `target`. A recorded
    /// prune replays as a prune — mapping [`TrackerEvent::Skip`] to a
    /// scan charge would re-introduce exactly the bytes the pruner proved
    /// were never read (`tests::event_log_replays_verbatim` pins it).
    pub fn replay_into(&self, target: &mut dyn AccessTracker) {
        for e in &self.events {
            match *e {
                TrackerEvent::Scan(seg, bytes) => target.scan(seg, bytes),
                TrackerEvent::Materialize(seg, bytes) => target.materialize(seg, bytes),
                TrackerEvent::Free(seg, bytes) => target.free(seg, bytes),
                TrackerEvent::Skip(seg, bytes) => target.skip(seg, bytes),
                TrackerEvent::DeltaScan(seg, bytes) => target.delta_scan(seg, bytes),
            }
        }
    }
}

impl AccessTracker for EventLog {
    fn scan(&mut self, seg: SegId, bytes: u64) {
        self.events.push(TrackerEvent::Scan(seg, bytes));
    }

    fn materialize(&mut self, seg: SegId, bytes: u64) {
        self.events.push(TrackerEvent::Materialize(seg, bytes));
    }

    fn free(&mut self, seg: SegId, bytes: u64) {
        self.events.push(TrackerEvent::Free(seg, bytes));
    }

    fn skip(&mut self, seg: SegId, bytes: u64) {
        self.events.push(TrackerEvent::Skip(seg, bytes));
    }

    fn delta_scan(&mut self, seg: SegId, bytes: u64) {
        self.events.push(TrackerEvent::DeltaScan(seg, bytes));
    }
}

/// A tracker that ignores everything — for callers that only want results.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracker;

impl AccessTracker for NullTracker {
    fn scan(&mut self, _seg: SegId, _bytes: u64) {}
    fn materialize(&mut self, _seg: SegId, _bytes: u64) {}
    fn free(&mut self, _seg: SegId, _bytes: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracker_accumulates_totals_and_epochs() {
        let mut t = CountingTracker::new();
        t.begin_query();
        t.scan(SegId(1), 100);
        t.materialize(SegId(2), 40);
        assert_eq!(t.query_stats().read_bytes, 100);
        assert_eq!(t.query_stats().write_bytes, 40);
        assert_eq!(t.query_stats().segments_scanned, 1);

        t.begin_query();
        t.scan(SegId(3), 10);
        t.free(SegId(1), 100);
        // Epoch reset…
        assert_eq!(t.query_stats().read_bytes, 10);
        assert_eq!(t.query_stats().write_bytes, 0);
        assert_eq!(t.query_stats().freed_bytes, 100);
        // …totals keep growing.
        assert_eq!(t.totals().read_bytes, 110);
        assert_eq!(t.totals().write_bytes, 40);
        assert_eq!(t.totals().freed_bytes, 100);
        assert_eq!(t.totals().segments_scanned, 2);
    }

    #[test]
    fn delta_scan_charges_reads_and_attributes_overlay() {
        let mut t = CountingTracker::new();
        t.begin_query();
        t.scan(SegId(1), 100);
        t.delta_scan(SegId(9), 24);
        let s = t.query_stats();
        assert_eq!(s.read_bytes, 124, "delta reads are real reads");
        assert_eq!(s.segments_scanned, 2);
        assert_eq!(s.delta_read_bytes, 24);
        assert_eq!(s.read_bytes - s.delta_read_bytes, 100, "base-only cost");
    }

    #[test]
    fn skip_counts_pruned_not_read() {
        let mut t = CountingTracker::new();
        t.begin_query();
        t.scan(SegId(1), 100);
        t.skip(SegId(2), 400);
        t.skip(SegId(3), 50);
        let s = t.query_stats();
        assert_eq!(s.read_bytes, 100, "pruned segments charge zero reads");
        assert_eq!(s.segments_scanned, 1);
        assert_eq!(s.segments_pruned, 2);
        assert_eq!(s.pruned_bytes, 450);
    }

    #[test]
    fn event_log_replays_verbatim() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.scan(SegId(5), 64);
        log.materialize(SegId(6), 32);
        log.free(SegId(5), 64);
        log.skip(SegId(7), 128);
        log.delta_scan(SegId(8), 16);
        assert_eq!(
            log.events(),
            &[
                TrackerEvent::Scan(SegId(5), 64),
                TrackerEvent::Materialize(SegId(6), 32),
                TrackerEvent::Free(SegId(5), 64),
                TrackerEvent::Skip(SegId(7), 128),
                TrackerEvent::DeltaScan(SegId(8), 16),
            ]
        );
        assert_eq!(log.scan_bytes(), 80, "skips never count as scan bytes");

        // Replaying into a CountingTracker gives the direct-observation counters.
        let mut direct = CountingTracker::new();
        direct.scan(SegId(5), 64);
        direct.materialize(SegId(6), 32);
        direct.free(SegId(5), 64);
        direct.skip(SegId(7), 128);
        direct.delta_scan(SegId(8), 16);
        let mut replayed = CountingTracker::new();
        log.replay_into(&mut replayed);
        assert_eq!(replayed.totals(), direct.totals());
    }

    #[test]
    fn null_tracker_is_inert() {
        let mut t = NullTracker;
        t.scan(SegId(0), u64::MAX);
        t.materialize(SegId(0), u64::MAX);
        t.free(SegId(0), u64::MAX);
        t.skip(SegId(0), u64::MAX);
    }
}
