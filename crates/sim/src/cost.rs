//! The disk/memory cost model standing in for the paper's 2008 testbed.
//!
//! Section 6.2 measured wall-clock times on a dual Opteron 270 with 8 GB of
//! memory and a 100 GB on-disk database. We do not have that machine; the
//! model converts the simulator's byte/seek counters into milliseconds with
//! era-plausible constants. Absolute numbers are model outputs (`repro
//! --experiment skyserver` and PAPER.md's Section 6.2 paragraph compare
//! shapes, not milliseconds); *relative* behaviour — who wins and
//! when the reorganization overhead amortizes — depends only on the byte
//! counts, which are measured, not modelled.

use crate::buffer::IoStats;

/// Throughput/latency constants converting `IoStats` to milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Sequential scan throughput from memory, bytes/ms (predicated scan,
    /// not raw bandwidth).
    pub mem_read_bytes_per_ms: f64,
    /// Materialization throughput to memory, bytes/ms.
    pub mem_write_bytes_per_ms: f64,
    /// Sequential disk read throughput, bytes/ms.
    pub disk_read_bytes_per_ms: f64,
    /// Sequential disk write throughput, bytes/ms.
    pub disk_write_bytes_per_ms: f64,
    /// Cost of one disk positioning operation, ms.
    pub seek_ms: f64,
    /// Fixed interpretation overhead per segment touched, ms (the paper's
    /// "segment iteration overhead").
    pub per_segment_ms: f64,
}

impl CostModel {
    /// Constants for a 2008 desktop: ~300 MB/s predicated memory scan,
    /// ~250 MB/s memory materialization, ~60/55 MB/s disk, 8 ms seeks,
    /// 50 µs per-segment instruction overhead.
    pub fn era_2008_desktop() -> Self {
        CostModel {
            mem_read_bytes_per_ms: 300_000.0,
            mem_write_bytes_per_ms: 250_000.0,
            disk_read_bytes_per_ms: 60_000.0,
            disk_write_bytes_per_ms: 55_000.0,
            seek_ms: 8.0,
            per_segment_ms: 0.05,
        }
    }

    /// Time spent answering the query: all read-side work. The scans that
    /// piggy-back reorganization are charged here, exactly because eager
    /// materialization shares the query's scan (Section 3.3).
    pub(crate) fn selection_ms(&self, io: &IoStats) -> f64 {
        io.mem_read_bytes as f64 / self.mem_read_bytes_per_ms
            + io.disk_read_bytes as f64 / self.disk_read_bytes_per_ms
            + io.disk_read_seeks as f64 * self.seek_ms
            + io.segments_scanned as f64 * self.per_segment_ms
    }

    /// Time spent reorganizing: all write-side work (segment
    /// materialization, flushes) — Figure 10's "adaptation" share.
    pub(crate) fn adaptation_ms(&self, io: &IoStats) -> f64 {
        io.mem_write_bytes as f64 / self.mem_write_bytes_per_ms
            + io.disk_write_bytes as f64 / self.disk_write_bytes_per_ms
            + io.disk_write_seeks as f64 * self.seek_ms
            + io.segments_materialized as f64 * self.per_segment_ms
    }

    /// Selection + adaptation.
    pub(crate) fn total_ms(&self, io: &IoStats) -> f64 {
        self.selection_ms(io) + self.adaptation_ms(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::era_2008_desktop()
    }

    #[test]
    fn full_column_scan_is_roughly_600ms() {
        // The NoSegm anchor: a 173 MB ra column scanned from memory.
        let io = IoStats {
            mem_read_bytes: 173 * 1024 * 1024,
            segments_scanned: 1,
            ..IoStats::default()
        };
        let ms = model().selection_ms(&io);
        assert!((500.0..700.0).contains(&ms), "got {ms} ms");
        // Pure read work: no adaptation time at all.
        assert_eq!(model().adaptation_ms(&io), 0.0);
    }

    #[test]
    fn seeks_dominate_tiny_disk_reads() {
        let io = IoStats {
            disk_read_bytes: 4096,
            disk_read_seeks: 1,
            ..IoStats::default()
        };
        let ms = model().selection_ms(&io);
        assert!(ms > 8.0 && ms < 8.2);
    }

    #[test]
    fn total_is_selection_plus_adaptation() {
        let io = IoStats {
            mem_read_bytes: 1_000_000,
            mem_write_bytes: 2_000_000,
            segments_scanned: 3,
            segments_materialized: 5,
            ..IoStats::default()
        };
        let m = model();
        assert!((m.total_ms(&io) - m.selection_ms(&io) - m.adaptation_ms(&io)).abs() < 1e-9);
        assert!(m.adaptation_ms(&io) > m.selection_ms(&io));
    }

    #[test]
    fn zero_io_costs_nothing() {
        assert_eq!(model().total_ms(&IoStats::default()), 0.0);
    }
}
