// Fixture: a tracker-taking function that calls a scan kernel without
// charging or forwarding the tracker must fire — once per function, for
// the masked count, the sorted-run sum and the reorganizing scans alike.

impl Scanner {
    fn count(&self, q: ValueRange<u64>, tracker: &mut dyn AccessTracker) -> u64 {
        kernels::count_range(&self.values, q)
    }

    fn sum(&self, start: usize, end: usize, tracker: &mut dyn AccessTracker) -> f64 {
        kernels::sum_sorted_run(&self.values, start, end)
    }

    fn scan_mat(&self, q: ValueRange<u64>, tracker: &mut dyn AccessTracker) -> u64 {
        kernels::scan_fill(&self.values, &q, None, &self.fills, &mut self.outs)
    }

    fn split(&self, bounds: &[u64], tracker: &mut dyn AccessTracker) -> Vec<Vec<u64>> {
        kernels::partition_into(&self.values, bounds)
    }
}
