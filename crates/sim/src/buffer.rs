//! Constrained-buffer simulation (Section 6.1: "we simulated the core
//! algorithms of MonetDB, its management in a constrained memory buffer
//! setting, and its read/write behavior as data is flushed to secondary
//! store").
//!
//! Segments are the residency unit. A scan of a non-resident segment costs
//! a disk read (plus a seek); materialized segments enter the pool dirty
//! and are flushed (a disk write) when evicted. Replaced/dropped segments
//! vanish without a flush — their data is dead.

use std::collections::HashMap;

use soc_core::SegId;

/// Byte- and seek-level I/O counters, split by memory and disk.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes of segments scanned (every scan passes through memory).
    pub mem_read_bytes: u64,
    /// Bytes of segments materialized in memory.
    pub mem_write_bytes: u64,
    /// Bytes read from secondary store (buffer misses).
    pub disk_read_bytes: u64,
    /// Bytes flushed to secondary store (dirty evictions).
    pub disk_write_bytes: u64,
    /// Positioning operations for disk reads.
    pub disk_read_seeks: u64,
    /// Positioning operations for disk writes.
    pub disk_write_seeks: u64,
    /// Segments scanned (iteration overhead proxy).
    pub segments_scanned: u64,
    /// Segments materialized.
    pub segments_materialized: u64,
    /// Bytes of segments released.
    pub freed_bytes: u64,
    /// Segments zone-map pruning skipped without reading.
    pub segments_pruned: u64,
    /// Bytes of pruned segments — what an unpruned scan would have read
    /// on top of `mem_read_bytes`.
    pub pruned_bytes: u64,
}

impl IoStats {
    /// Accumulates `other` into `self`.
    pub(crate) fn absorb(&mut self, other: &IoStats) {
        self.mem_read_bytes += other.mem_read_bytes;
        self.mem_write_bytes += other.mem_write_bytes;
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.disk_read_seeks += other.disk_read_seeks;
        self.disk_write_seeks += other.disk_write_seeks;
        self.segments_scanned += other.segments_scanned;
        self.segments_materialized += other.segments_materialized;
        self.freed_bytes += other.freed_bytes;
        self.segments_pruned += other.segments_pruned;
        self.pruned_bytes += other.pruned_bytes;
    }
}

#[derive(Debug)]
struct Resident {
    bytes: u64,
    dirty: bool,
    last_used: u64,
}

/// An LRU buffer pool over segments with write-back flushing.
#[derive(Debug)]
pub(crate) struct BufferPool {
    capacity: u64,
    used: u64,
    tick: u64,
    resident: HashMap<SegId, Resident>,
}

impl BufferPool {
    /// A pool holding at most `capacity` bytes of segments.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub(crate) fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        BufferPool {
            capacity,
            used: 0,
            tick: 0,
            resident: HashMap::new(),
        }
    }

    /// Bytes currently resident.
    #[cfg(test)]
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// Whether `seg` is resident.
    #[cfg(test)]
    pub(crate) fn is_resident(&self, seg: SegId) -> bool {
        self.resident.contains_key(&seg)
    }

    fn touch(&mut self, seg: SegId) {
        self.tick += 1;
        if let Some(r) = self.resident.get_mut(&seg) {
            r.last_used = self.tick;
        }
    }

    /// Evicts LRU segments until `needed` bytes fit, flushing dirty ones.
    fn make_room(&mut self, needed: u64, io: &mut IoStats) {
        while self.used + needed > self.capacity && !self.resident.is_empty() {
            let (&victim, _) = self
                .resident
                .iter()
                .min_by_key(|(_, r)| r.last_used)
                .expect("non-empty");
            let r = self.resident.remove(&victim).expect("present");
            self.used -= r.bytes;
            if r.dirty {
                io.disk_write_bytes += r.bytes;
                io.disk_write_seeks += 1;
            }
        }
    }

    /// A scan of `seg` (`bytes` big). Counts a disk read when non-resident,
    /// then caches it (clean).
    pub(crate) fn on_scan(&mut self, seg: SegId, bytes: u64, io: &mut IoStats) {
        if bytes == 0 {
            return;
        }
        if self.resident.contains_key(&seg) {
            self.touch(seg);
            return;
        }
        io.disk_read_bytes += bytes;
        io.disk_read_seeks += 1;
        if bytes > self.capacity {
            // Streams through without displacing the pool.
            return;
        }
        self.make_room(bytes, io);
        self.tick += 1;
        self.resident.insert(
            seg,
            Resident {
                bytes,
                dirty: false,
                last_used: self.tick,
            },
        );
        self.used += bytes;
    }

    /// A fresh materialization of `seg`: enters the pool dirty.
    pub(crate) fn on_materialize(&mut self, seg: SegId, bytes: u64, io: &mut IoStats) {
        if bytes == 0 {
            return;
        }
        if bytes > self.capacity {
            // Cannot be held: goes straight to secondary store.
            io.disk_write_bytes += bytes;
            io.disk_write_seeks += 1;
            return;
        }
        self.make_room(bytes, io);
        self.tick += 1;
        self.resident.insert(
            seg,
            Resident {
                bytes,
                dirty: true,
                last_used: self.tick,
            },
        );
        self.used += bytes;
    }

    /// Segment dropped: leaves the pool with no flush (its data is dead).
    pub(crate) fn on_free(&mut self, seg: SegId) {
        if let Some(r) = self.resident.remove(&seg) {
            self.used -= r.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(n: u64) -> SegId {
        SegId(n)
    }

    #[test]
    fn cold_scan_is_a_disk_read_then_cached() {
        let mut pool = BufferPool::new(1000);
        let mut io = IoStats::default();
        pool.on_scan(seg(1), 400, &mut io);
        assert_eq!(io.disk_read_bytes, 400);
        assert_eq!(io.disk_read_seeks, 1);
        assert!(pool.is_resident(seg(1)));
        // Warm scan: no further disk traffic.
        pool.on_scan(seg(1), 400, &mut io);
        assert_eq!(io.disk_read_bytes, 400);
    }

    #[test]
    fn lru_evicts_the_coldest_segment() {
        let mut pool = BufferPool::new(1000);
        let mut io = IoStats::default();
        pool.on_scan(seg(1), 400, &mut io);
        pool.on_scan(seg(2), 400, &mut io);
        pool.on_scan(seg(1), 400, &mut io); // refresh 1
        pool.on_scan(seg(3), 400, &mut io); // evicts 2
        assert!(pool.is_resident(seg(1)));
        assert!(!pool.is_resident(seg(2)));
        assert!(pool.is_resident(seg(3)));
        // Clean eviction: no disk write.
        assert_eq!(io.disk_write_bytes, 0);
    }

    #[test]
    fn dirty_eviction_flushes() {
        let mut pool = BufferPool::new(1000);
        let mut io = IoStats::default();
        pool.on_materialize(seg(1), 600, &mut io);
        pool.on_scan(seg(2), 600, &mut io); // evicts dirty 1
        assert_eq!(io.disk_write_bytes, 600);
        assert_eq!(io.disk_write_seeks, 1);
        // Re-reading 1 is now a disk read.
        pool.on_scan(seg(1), 600, &mut io);
        assert_eq!(io.disk_read_bytes, 1200);
    }

    #[test]
    fn free_drops_without_flush() {
        let mut pool = BufferPool::new(1000);
        let mut io = IoStats::default();
        pool.on_materialize(seg(1), 600, &mut io);
        pool.on_free(seg(1));
        assert_eq!(pool.used(), 0);
        pool.on_scan(seg(2), 900, &mut io);
        assert_eq!(io.disk_write_bytes, 0, "dead data must not be flushed");
    }

    #[test]
    fn oversized_segment_streams_through() {
        let mut pool = BufferPool::new(100);
        let mut io = IoStats::default();
        pool.on_scan(seg(1), 500, &mut io);
        assert_eq!(io.disk_read_bytes, 500);
        assert!(!pool.is_resident(seg(1)));
        assert_eq!(pool.used(), 0);
        pool.on_materialize(seg(2), 500, &mut io);
        assert_eq!(io.disk_write_bytes, 500);
    }

    #[test]
    fn zero_byte_segments_are_free() {
        let mut pool = BufferPool::new(100);
        let mut io = IoStats::default();
        pool.on_scan(seg(1), 0, &mut io);
        pool.on_materialize(seg(2), 0, &mut io);
        assert_eq!(io, IoStats::default());
    }

    #[test]
    fn absorb_sums_every_field() {
        let mut a = IoStats {
            mem_read_bytes: 1,
            mem_write_bytes: 2,
            disk_read_bytes: 3,
            disk_write_bytes: 4,
            disk_read_seeks: 5,
            disk_write_seeks: 6,
            segments_scanned: 7,
            segments_materialized: 8,
            freed_bytes: 9,
            segments_pruned: 10,
            pruned_bytes: 11,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.mem_read_bytes, 2);
        assert_eq!(a.freed_bytes, 18);
        assert_eq!(a.disk_write_seeks, 12);
        assert_eq!(a.segments_pruned, 20);
        assert_eq!(a.pruned_bytes, 22);
    }
}
