// Fixture: exercises every rule's trigger shape the compliant way — the
// whole file must produce zero findings (one justified waiver).

// contract: ColumnStrategy thread-safety: fixture impl with no shared state.
impl<V: ColumnValue> ColumnStrategy<V> for Documented<V> {
    fn name(&self) -> String {
        "documented".to_owned()
    }

    fn fold_delta(
        &mut self,
        inserts: &[V],
        tombstones: &[V],
        tracker: &mut dyn AccessTracker,
    ) -> Option<u64> {
        tracker.scan(self.id, self.payload_bytes);
        let unmatched = self.payload.fold_delta(inserts, tombstones, false);
        tracker.free(self.id, self.payload_bytes);
        tracker.materialize(self.id, self.payload.bytes());
        Some(unmatched)
    }
}

impl Documented {
    fn segment_bytes(&self) -> Vec<u64> {
        self.pieces.iter().map(|p| p.bytes()).collect()
    }

    fn fallible(v: Option<u32>) -> Result<u32, Error> {
        v.ok_or(Error::Missing)
    }

    fn justified(v: Option<u32>) -> u32 {
        // soc-lint: allow(L1-panic-free, the fixture proves justified pragmas waive)
        v.unwrap()
    }

    fn counted(&self, q: ValueRange<u64>, tracker: &mut dyn AccessTracker) -> u64 {
        tracker.scan(self.payload_bytes);
        kernels::count_range(&self.values, q)
    }

    fn summed(&self, q: ValueRange<u64>, tracker: &mut dyn AccessTracker) -> f64 {
        tracker.scan(self.id, self.payload_bytes);
        let (s, e) = kernels::sorted_run(&self.values, &q);
        kernels::sum_sorted_run(&self.values, s, e)
    }

    fn reorganized(&self, q: ValueRange<u64>, tracker: &mut dyn AccessTracker) -> u64 {
        tracker.scan(self.id, self.payload_bytes);
        let n = kernels::scan_fill(&self.values, &q, None, &self.fills, &mut self.outs);
        n + kernels::partition_into(&self.values, &self.bounds).len() as u64
    }

    fn replays(&self, events: &[TrackerEvent], target: &mut dyn AccessTracker) {
        for e in events {
            match e {
                TrackerEvent::Scan(seg, bytes) => target.scan(*seg, *bytes),
                TrackerEvent::Skip(seg, bytes) => target.skip(*seg, *bytes),
                TrackerEvent::DeltaScan(seg, bytes) => target.delta_scan(*seg, *bytes),
            }
        }
    }

    fn queues(&self) -> (SyncSender<Cmd>, Receiver<Cmd>) {
        mpsc::sync_channel(64)
    }

    fn publishes(&self) {
        let snap;
        {
            let guard = self.state.lock();
            snap = guard.snapshot();
        }
        self.tx.send(snap).ok();
    }
}
