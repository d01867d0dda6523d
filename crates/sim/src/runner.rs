//! The experiment driver: runs a strategy over a workload, recording
//! per-query I/O, storage, and modelled time.

use soc_core::{AccessTracker, ColumnStrategy, ColumnValue, SegId, ValueRange};

use crate::buffer::{BufferPool, IoStats};
use crate::cost::CostModel;
use crate::stats;

/// The simulator's tracker: memory counters always, plus an optional
/// constrained buffer pool generating disk traffic.
#[derive(Debug)]
pub struct SimTracker {
    buffer: Option<BufferPool>,
    write_through: bool,
    total: IoStats,
    current: IoStats,
}

impl SimTracker {
    /// Pure memory accounting (the Section 6.1 figures).
    pub fn unbuffered() -> Self {
        SimTracker {
            buffer: None,
            write_through: false,
            total: IoStats::default(),
            current: IoStats::default(),
        }
    }

    /// Memory reads (the working column is cached) but durable writes:
    /// every materialized segment is also written to secondary store — the
    /// regime of the paper's Section 6.2 box, where the 173 MB column is
    /// memory-resident but reorganized segments must reach the 100 GB
    /// on-disk database.
    pub(crate) fn unbuffered_write_through() -> Self {
        SimTracker {
            buffer: None,
            write_through: true,
            total: IoStats::default(),
            current: IoStats::default(),
        }
    }

    /// Accounting through a constrained buffer of `capacity` bytes.
    pub(crate) fn buffered(capacity: u64) -> Self {
        SimTracker {
            buffer: Some(BufferPool::new(capacity)),
            write_through: false,
            total: IoStats::default(),
            current: IoStats::default(),
        }
    }

    /// Starts a new per-query epoch, folding the previous one into the
    /// lifetime totals.
    pub(crate) fn begin_query(&mut self) {
        self.total.absorb(&self.current);
        self.current = IoStats::default();
    }

    /// Counters since the last [`Self::begin_query`].
    pub(crate) fn query_stats(&self) -> IoStats {
        self.current
    }

    /// Lifetime totals (including the still-open epoch).
    pub(crate) fn totals(&self) -> IoStats {
        let mut t = self.total;
        t.absorb(&self.current);
        t
    }
}

impl AccessTracker for SimTracker {
    fn scan(&mut self, seg: SegId, bytes: u64) {
        self.current.mem_read_bytes += bytes;
        self.current.segments_scanned += 1;
        if let Some(buf) = &mut self.buffer {
            buf.on_scan(seg, bytes, &mut self.current);
        }
    }

    fn materialize(&mut self, seg: SegId, bytes: u64) {
        self.current.mem_write_bytes += bytes;
        self.current.segments_materialized += 1;
        if self.write_through && bytes > 0 {
            self.current.disk_write_bytes += bytes;
            self.current.disk_write_seeks += 1;
        }
        if let Some(buf) = &mut self.buffer {
            buf.on_materialize(seg, bytes, &mut self.current);
        }
    }

    fn free(&mut self, seg: SegId, bytes: u64) {
        self.current.freed_bytes += bytes;
        if let Some(buf) = &mut self.buffer {
            buf.on_free(seg);
        }
    }

    fn skip(&mut self, _seg: SegId, bytes: u64) {
        // A pruned segment moves no bytes and — unlike a scan — is never
        // faulted into the buffer pool: skipping residency churn is
        // precisely the benefit being measured.
        self.current.segments_pruned += 1;
        self.current.pruned_bytes += bytes;
    }
}

/// Everything recorded about one query of a run.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    /// Per-query I/O counters.
    pub io: IoStats,
    /// Materialized storage after the query (Figures 8–9's axis).
    pub storage_bytes: u64,
    /// Materialized segment count after the query.
    pub segment_count: usize,
    /// Qualifying tuples.
    pub result_count: u64,
    /// Modelled read-side time.
    pub selection_ms: f64,
    /// Modelled write-side (reorganization) time.
    pub adaptation_ms: f64,
}

impl QueryRecord {
    /// Selection + adaptation.
    pub(crate) fn total_ms(&self) -> f64 {
        self.selection_ms + self.adaptation_ms
    }
}

/// A completed strategy × workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy display name.
    pub name: String,
    /// One record per query, in execution order.
    pub records: Vec<QueryRecord>,
    /// Lifetime I/O totals.
    pub totals: IoStats,
    /// Sizes of the materialized segments at the end of the run.
    pub final_segment_bytes: Vec<u64>,
}

impl RunResult {
    /// Cumulative memory writes after each query (Figures 5–6).
    pub fn cumulative_writes(&self) -> Vec<f64> {
        stats::cumulative(self.records.iter().map(|r| r.io.mem_write_bytes as f64))
    }

    /// Per-query memory reads (Figure 7).
    pub fn reads_per_query(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.io.mem_read_bytes as f64)
            .collect()
    }

    /// Average memory read per query in KB (Table 1).
    pub fn avg_read_kb(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.totals.mem_read_bytes as f64 / self.records.len() as f64 / 1024.0
    }

    /// Materialized storage after each query (Figures 8–9).
    pub fn storage_series(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.storage_bytes as f64)
            .collect()
    }

    /// Cumulative modelled total time (Figures 11/13/15).
    pub fn cumulative_time_ms(&self) -> Vec<f64> {
        stats::cumulative(self.records.iter().map(|r| r.total_ms()))
    }

    /// Moving-average modelled total time (Figures 12/14/16).
    pub(crate) fn moving_avg_time_ms(&self, window: usize) -> Vec<f64> {
        let t: Vec<f64> = self.records.iter().map(|r| r.total_ms()).collect();
        stats::moving_average(&t, window)
    }

    /// Mean per-query selection and adaptation times (Figure 10's bars).
    pub fn mean_times_ms(&self) -> (f64, f64) {
        let sel: Vec<f64> = self.records.iter().map(|r| r.selection_ms).collect();
        let ada: Vec<f64> = self.records.iter().map(|r| r.adaptation_ms).collect();
        (stats::mean(&sel), stats::mean(&ada))
    }

    /// (count, mean MB, std-dev MB) of the final segments (Table 2).
    pub fn segment_stats_mb(&self) -> (usize, f64, f64) {
        const MB: f64 = 1024.0 * 1024.0;
        let sizes: Vec<f64> = self
            .final_segment_bytes
            .iter()
            .map(|b| *b as f64 / MB)
            .collect();
        (sizes.len(), stats::mean(&sizes), stats::std_dev(&sizes))
    }
}

/// Runs `strategy` over `queries`, one tracker epoch per query.
pub fn run_queries<V: ColumnValue>(
    strategy: &mut dyn ColumnStrategy<V>,
    queries: &[ValueRange<V>],
    tracker: &mut SimTracker,
    cost: &CostModel,
) -> RunResult {
    let mut records = Vec::with_capacity(queries.len());
    for q in queries {
        tracker.begin_query();
        let result_count = strategy.select_count(q, tracker);
        let io = tracker.query_stats();
        records.push(QueryRecord {
            io,
            storage_bytes: strategy.storage_bytes(),
            segment_count: strategy.segment_count(),
            result_count,
            selection_ms: cost.selection_ms(&io),
            adaptation_ms: cost.adaptation_ms(&io),
        });
    }
    RunResult {
        name: strategy.name(),
        records,
        totals: tracker.totals(),
        final_segment_bytes: strategy.segment_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_core::{
        AdaptivePageModel, AdaptiveSegmentation, SegmentedColumn, SizeEstimator, StrategyKind,
        StrategySpec,
    };
    use soc_workload::{uniform_values, WorkloadSpec};

    fn domain() -> ValueRange<u32> {
        ValueRange::must(0, 999_999)
    }

    fn nosegm(values: Vec<u32>) -> Box<dyn ColumnStrategy<u32>> {
        StrategySpec::new(StrategyKind::NoSegm)
            .build(domain(), values)
            .unwrap()
    }

    fn queries(n: usize) -> Vec<ValueRange<u32>> {
        WorkloadSpec::uniform(0.1, n, 3).generate(&domain())
    }

    #[test]
    fn nosegm_run_has_constant_reads_and_zero_writes() {
        let values = uniform_values(10_000, &domain(), 1);
        let mut s = nosegm(values);
        let mut tr = SimTracker::unbuffered();
        let r = run_queries(
            s.as_mut(),
            &queries(50),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        assert_eq!(r.records.len(), 50);
        assert!(r.records.iter().all(|q| q.io.mem_read_bytes == 40_000));
        assert_eq!(r.totals.mem_write_bytes, 0);
        assert_eq!(r.cumulative_writes().last().copied(), Some(0.0));
        assert!((r.avg_read_kb() - 40_000.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn segmentation_run_reads_decline() {
        let values = uniform_values(100_000, &domain(), 2);
        let column = SegmentedColumn::new(domain(), values).unwrap();
        let model = Box::new(AdaptivePageModel::simulation_default());
        let mut s = AdaptiveSegmentation::new(column, model, SizeEstimator::Uniform);
        let mut tr = SimTracker::unbuffered();
        let r = run_queries(
            &mut s,
            &queries(300),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        let reads = r.reads_per_query();
        // The first query scans the whole 400 KB column…
        assert_eq!(reads[0], 400_000.0);
        // …and converged queries touch little more than the ~40 KB result
        // (Table 1 reports ~43 KB for this setting).
        let late: f64 = reads[280..].iter().sum::<f64>() / 20.0;
        assert!(late < 60_000.0, "late reads {late} should approach 40KB");
        // Storage stays at the bare column for in-place segmentation.
        assert!(r.records.iter().all(|q| q.storage_bytes == 400_000));
    }

    #[test]
    fn buffered_tracker_generates_disk_traffic_when_tight() {
        let values = uniform_values(100_000, &domain(), 4);
        let mut s = nosegm(values);
        // Buffer smaller than the column: every scan hits disk.
        let mut tr = SimTracker::buffered(100_000);
        let r = run_queries(
            s.as_mut(),
            &queries(10),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        assert_eq!(r.totals.disk_read_bytes, 10 * 400_000);
        // Large buffer: only the cold first read.
        let values = uniform_values(100_000, &domain(), 4);
        let mut s = nosegm(values);
        let mut tr = SimTracker::buffered(1_000_000);
        let r = run_queries(
            s.as_mut(),
            &queries(10),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        assert_eq!(r.totals.disk_read_bytes, 400_000);
    }

    #[test]
    fn write_through_tracker_counts_durable_writes() {
        let values = uniform_values(50_000, &domain(), 8);
        let column = SegmentedColumn::new(domain(), values).unwrap();
        let model = Box::new(AdaptivePageModel::simulation_default());
        let mut s = AdaptiveSegmentation::new(column, model, SizeEstimator::Uniform);
        let mut tr = SimTracker::unbuffered_write_through();
        let r = run_queries(
            &mut s,
            &queries(50),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        // Every materialized byte also reached secondary store…
        assert_eq!(r.totals.disk_write_bytes, r.totals.mem_write_bytes);
        assert!(r.totals.disk_write_bytes > 0);
        assert_eq!(
            r.totals.disk_write_seeks, r.totals.segments_materialized,
            "one positioning op per flushed segment"
        );
        // …while reads stayed in memory.
        assert_eq!(r.totals.disk_read_bytes, 0);
    }

    #[test]
    fn time_series_helpers_have_right_shapes() {
        let values = uniform_values(10_000, &domain(), 5);
        let mut s = nosegm(values);
        let mut tr = SimTracker::unbuffered();
        let r = run_queries(
            s.as_mut(),
            &queries(40),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        assert_eq!(r.cumulative_time_ms().len(), 40);
        assert_eq!(r.moving_avg_time_ms(10).len(), 40);
        let (sel, ada) = r.mean_times_ms();
        assert!(sel > 0.0);
        assert_eq!(ada, 0.0);
        let cum = r.cumulative_time_ms();
        assert!(cum.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn segment_stats_summarize_final_state() {
        let values = uniform_values(10_000, &domain(), 6);
        let mut s = nosegm(values);
        let mut tr = SimTracker::unbuffered();
        let r = run_queries(
            s.as_mut(),
            &queries(5),
            &mut tr,
            &CostModel::era_2008_desktop(),
        );
        let (n, avg_mb, dev_mb) = r.segment_stats_mb();
        assert_eq!(n, 1);
        assert!((avg_mb - 40_000.0 / 1024.0 / 1024.0).abs() < 1e-9);
        assert_eq!(dev_mb, 0.0);
    }
}
