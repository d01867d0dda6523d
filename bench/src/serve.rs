//! `serve_read` and `serve_mixed` — one closed-loop client against a
//! [`ConcurrentColumn`] whose only other thread is the column's own writer.
//!
//! `serve_read` issues reads only: snapshot acquire, piece walk, hint
//! enqueue and the admission gate do the work, and the strategy runs on the
//! background writer. `serve_mixed` is the same column, ranges and op mix
//! plus a clock-paced delta batch every 20 ms, so the delta overlay,
//! merge-on-read and the writer's fold do the work; the write load is the
//! same on both sides of a comparison, so a read gain bought with write cost
//! (or the reverse) shows as `ops_per_s` there and as nothing on `serve_read`.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use socdb::adaptive::{AdmissionConfig, AdmissionGate, DeltaBatch, DeltaOp};
use socdb::prelude::*;
use socdb::workload::Oracle;

use crate::common::{
    derive, is_traced_window, median_ns, trace_overhead_share, Cfg, Latencies, LOG_SEED,
    TRACED_WINDOWS, WINDOWS,
};
use crate::hist::Histogram;
use crate::metrics::Outcome;
use crate::pace::{window_of, Pacer};
use crate::stats;
use crate::trace::{NameId, SpanId, Tracer};
use crate::{probes, sys};

/// Rows of the served column: 16 MB of `u32`, 4× the 4 MiB L2.
pub const ROWS: usize = 4_000_000;
const DOMAIN_HI: u32 = 99_999_999;
/// Distinct query ranges, cycled in order. A multiple of 4, so a range keeps
/// its op kind every time round.
const RANGES: usize = 100_000;
const SELECTIVITY: f64 = 0.001;
/// Reads issued (and checked) before the clock starts, inside `setup_s`.
const WARMUP_READS: u64 = 1_000_000;
/// A traced run records spans for one request in this many.
const SAMPLE_EVERY: u64 = 64;
/// `serve_mixed`: one batch every 20 ms, 24 inserts and 8 deletes of rows
/// inserted earlier — 1600 rows/s, whatever the read rate.
const BATCH_INTERVAL_NS: u64 = 20_000_000;
const BATCH_INSERTS: usize = 24;
const BATCH_DELETES: usize = 8;
/// Batches `serve_mixed` applies back to back before the clock starts: just
/// enough rows (4152) to reach the default compaction policy's start
/// watermark, so the first window already sees the steady cycle of
/// accumulate-and-fold instead of an empty overlay.
const PREFILL_BATCHES: usize = 130;
/// Every this-many-th collect is compared value by value with the oracle's;
/// the others are checked by length.
const DEEP_CHECK_EVERY: u64 = 16;
/// Ranges re-counted against the oracle after `serve_mixed` quiesces.
const FINAL_CHECKS: usize = 1000;

fn domain() -> ValueRange<u32> {
    ValueRange::must(0, DOMAIN_HI)
}

/// The ranges both workloads cycle through (fixed: see [`LOG_SEED`]).
fn query_log() -> Vec<ValueRange<u32>> {
    WorkloadSpec::zipf(SELECTIVITY, RANGES, derive(LOG_SEED, 11)).generate(&domain())
}

/// The answers `serve_read` must give, computed before the clock starts.
struct Expected {
    oracle: Oracle<u32>,
    count: Vec<u64>,
    /// Exact: every partial sum of `u32`s here is an integer below 2^53.
    sum: Vec<f64>,
}

impl Expected {
    fn new(values: &[u32], ranges: &[ValueRange<u32>]) -> Self {
        let oracle = Oracle::new(values.to_vec());
        let count = ranges.iter().map(|q| oracle.count(q)).collect();
        let sum = ranges
            .iter()
            .enumerate()
            .map(|(r, q)| {
                if r % 4 == 2 {
                    oracle.collect(q).iter().map(|&v| f64::from(v)).sum()
                } else {
                    0.0
                }
            })
            .collect();
        Expected { oracle, count, sum }
    }
}

/// The pending-write generator of `serve_mixed`.
struct Writes {
    rng: SmallRng,
    next_oid: u64,
    /// Rows inserted and not yet deleted, oldest first.
    live: VecDeque<(u64, u32)>,
    batches: u64,
    rows: u64,
    apply: Histogram,
    apply_ns: u64,
    pending_max: u64,
    runs_max: u64,
}

impl Writes {
    fn new(seed: u64) -> Self {
        Writes {
            rng: SmallRng::seed_from_u64(derive(seed, 12)),
            next_oid: ROWS as u64,
            live: VecDeque::new(),
            batches: 0,
            rows: 0,
            apply: Histogram::new(),
            apply_ns: 0,
            pending_max: 0,
            runs_max: 0,
        }
    }

    /// The next batch: deletes of the oldest live inserts first, then fresh
    /// inserts (so a batch never deletes what it inserts).
    fn next_batch(&mut self) -> DeltaBatch<u32> {
        let mut batch = DeltaBatch::new();
        for _ in 0..BATCH_DELETES.min(self.live.len()) {
            let (oid, value) = self.live.pop_front().expect("length checked");
            batch.push(DeltaOp::Delete { oid, value });
        }
        for _ in 0..BATCH_INSERTS {
            let value = self.rng.gen_range(0..=DOMAIN_HI);
            let oid = self.next_oid;
            self.next_oid += 1;
            self.live.push_back((oid, value));
            batch.push(DeltaOp::Insert { oid, value });
        }
        batch
    }

    fn apply_one(&mut self, col: &ConcurrentColumn<u32>) {
        let batch = self.next_batch();
        self.rows += batch.len() as u64;
        let t0 = Instant::now();
        col.apply_deltas(batch);
        let ns = t0.elapsed().as_nanos() as u64;
        self.apply.record(ns);
        self.apply_ns += ns;
        self.batches += 1;
        let snap = col.snapshot();
        self.pending_max = self.pending_max.max(snap.pending_delta_rows());
        self.runs_max = self.runs_max.max(snap.delta_runs() as u64);
    }
}

/// Span names of a traced request and its layer ladder.
struct Names {
    request: NameId,
    op: [NameId; 3],
    admit: NameId,
    acquire: NameId,
    snap: [NameId; 3],
    col_count: NameId,
    snap_again: NameId,
}

impl Names {
    fn new(t: &mut Tracer) -> Self {
        Names {
            request: t.name("client.request"),
            op: [
                t.name("op.select_count_gated"),
                t.name("op.select_sum"),
                t.name("op.select_collect"),
            ],
            admit: t.name("admission.admit"),
            acquire: t.name("epoch.snapshot"),
            snap: [
                t.name("snapshot.select_count"),
                t.name("snapshot.select_sum"),
                t.name("snapshot.select_collect"),
            ],
            col_count: t.name("epoch.select_count"),
            snap_again: t.name("snapshot.select_count_warm"),
        }
    }
}

/// What one timed stretch measured.
struct Stretch {
    lat: Latencies,
    reads: u64,
    wall_ns: u64,
    read_bytes: u64,
    epochs: u64,
    hints_dropped: u64,
}

/// One answer, reduced to what the check needs.
enum Answer {
    Count(u64),
    Sum(f64),
    Collect(Vec<u32>),
    Refused(String),
}

struct Client<'a> {
    seed: u64,
    col: ConcurrentColumn<u32>,
    gate: AdmissionGate,
    ranges: &'a [ValueRange<u32>],
    /// `None` once writes have started: answers then depend on which epoch
    /// the read saw, and the check moves to the end of the run.
    expected: Option<&'a Expected>,
    tracker: CountingTracker,
    next_op: u64,
    writes: Option<Writes>,
    /// Per sampled count request: `ConcurrentColumn::select_count` minus
    /// snapshot acquire minus a warm snapshot count, in nanoseconds.
    hint_ns: Vec<f64>,
}

impl Client<'_> {
    #[inline]
    fn read(&mut self, i: u64) -> Answer {
        let q = &self.ranges[(i % RANGES as u64) as usize];
        match i % 4 {
            0 | 1 => match self
                .col
                .select_count_gated(&self.gate, q, &mut self.tracker)
            {
                Ok(a) => Answer::Count(a.value),
                Err(e) => Answer::Refused(e.to_string()),
            },
            2 => Answer::Sum(self.col.select_sum(q, &mut self.tracker)),
            _ => Answer::Collect(self.col.select_collect(q, &mut self.tracker)),
        }
    }

    /// Off the clock: counts the op and, while the column is read-only,
    /// compares the answer with the oracle's.
    fn check(&mut self, i: u64, answer: Answer, out: &mut Outcome) {
        let r = (i % RANGES as u64) as usize;
        let seed = self.seed;
        let Some(exp) = self.expected else {
            let refused = matches!(answer, Answer::Refused(_));
            out.check(!refused, seed, i, || "read refused by the gate".into());
            return;
        };
        match answer {
            Answer::Count(n) => out.check(n == exp.count[r], seed, i, || {
                format!("count {n}, oracle says {}", exp.count[r])
            }),
            Answer::Sum(s) => out.check(s == exp.sum[r], seed, i, || {
                format!("sum {s}, oracle says {}", exp.sum[r])
            }),
            Answer::Collect(v) => {
                let deep = (i / 4) % DEEP_CHECK_EVERY == 0;
                let ok = v.len() as u64 == exp.count[r]
                    && (!deep || v == exp.oracle.collect(&self.ranges[r]));
                out.check(ok, seed, i, || {
                    format!("collect of {} rows, oracle says {}", v.len(), exp.count[r])
                });
            }
            Answer::Refused(e) => out.check(false, seed, i, || format!("refused: {e}")),
        }
    }

    /// A sampled request of a traced run: the real op under a span, then the
    /// same request taken apart layer by layer (extra calls on a null
    /// tracker, so op and byte counts stay exact).
    fn traced_request(&mut self, i: u64, n: &Names, t: &mut Tracer) -> (Answer, u64) {
        let kind = [0, 0, 1, 2][(i % 4) as usize];
        let root = t.begin(n.request, SpanId::NONE, i);
        let (answer, ns) = t.timed(n.op[kind], root, i, || self.read(i));
        let q = &self.ranges[(i % RANGES as u64) as usize];
        t.timed(n.admit, root, i, || drop(self.gate.admit()));
        let (snap, acquire_ns) = t.timed(n.acquire, root, i, || self.col.snapshot());
        match kind {
            0 => {
                t.timed(n.snap[0], root, i, || {
                    snap.select_count(q, &mut NullTracker)
                });
                // What the hint enqueue adds: the whole call minus its two
                // other parts, all three taken warm (the count above has
                // just pulled the pieces into cache) on this same request.
                let (_, whole_ns) = t.timed(n.col_count, root, i, || {
                    self.col.select_count(q, &mut NullTracker)
                });
                let (_, warm_count_ns) = t.timed(n.snap_again, root, i, || {
                    snap.select_count(q, &mut NullTracker)
                });
                self.hint_ns
                    .push(whole_ns as f64 - acquire_ns as f64 - warm_count_ns as f64);
            }
            1 => {
                t.timed(n.snap[1], root, i, || snap.select_sum(q, &mut NullTracker));
            }
            _ => {
                t.timed(n.snap[2], root, i, || {
                    snap.select_collect(q, &mut NullTracker)
                });
            }
        }
        t.end(root);
        (answer, ns)
    }

    /// Runs reads (and, on `serve_mixed`, the paced writes) for `windows`
    /// windows of `window_ns` and stops at the deadline however slow the
    /// engine is; only write batches still owed are sent after it. With a
    /// recording tracer, every other window samples requests into spans.
    fn stretch(
        &mut self,
        windows: usize,
        window_ns: u64,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Stretch {
        let names = Names::new(tracer);
        let duration = windows as u64 * window_ns;
        let mut lat = Latencies::new(windows);
        let mut pacer = self
            .writes
            .is_some()
            .then(|| Pacer::new(BATCH_INTERVAL_NS, duration));
        let bytes0 = self.tracker.totals().read_bytes;
        let epoch0 = self.col.epoch();
        let dropped0 = self.col.reorg_hints_dropped();
        let mut reads = 0u64;
        let t0 = Instant::now();
        loop {
            let start = t0.elapsed().as_nanos() as u64;
            if start >= duration {
                break;
            }
            if let (Some(p), Some(w)) = (&mut pacer, &mut self.writes) {
                if p.due(start) {
                    w.apply_one(&self.col);
                    out.attempted += 1;
                    continue;
                }
            }
            let i = self.next_op;
            self.next_op += 1;
            let w = window_of(start, window_ns, windows);
            tracer.set_on(is_traced_window(w));
            // One request per block of 64, at a slot that walks the op kinds.
            let sampled = tracer.is_on() && i % SAMPLE_EVERY == (i / SAMPLE_EVERY) % 4;
            let (answer, ns) = if sampled {
                self.traced_request(i, &names, tracer)
            } else {
                let answer = self.read(i);
                (answer, t0.elapsed().as_nanos() as u64 - start)
            };
            lat.record(w, ns);
            reads += 1;
            self.check(i, answer, out);
        }
        if let (Some(p), Some(w)) = (&mut pacer, &mut self.writes) {
            for _ in 0..p.remaining() {
                w.apply_one(&self.col);
                out.attempted += 1;
            }
        }
        Stretch {
            lat,
            reads,
            wall_ns: t0.elapsed().as_nanos() as u64,
            read_bytes: self.tracker.totals().read_bytes - bytes0,
            epochs: self.col.epoch() - epoch0,
            hints_dropped: self.col.reorg_hints_dropped() - dropped0,
        }
    }
}

/// Times of one set-up.
struct Setup {
    build_s: f64,
    warm_s: f64,
    quiesce_s: f64,
    resident_bytes: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.build_s + self.warm_s + self.quiesce_s
    }
}

/// Builds the column, reads it warm and waits for the writer to fold the
/// hints: everything the engine does before the first measured op.
fn set_up<'a>(
    seed: u64,
    values: &[u32],
    ranges: &'a [ValueRange<u32>],
    expected: &'a Expected,
    out: &mut Outcome,
) -> (Client<'a>, Setup) {
    let rss0 = sys::rss_bytes();
    let column = values.to_vec(); // the harness's copy, off the clock
    let t0 = Instant::now();
    let col =
        ConcurrentColumn::from_spec(&StrategySpec::new(StrategyKind::ApmSegm), domain(), column)
            .expect("generated values lie inside the domain");
    let build_s = t0.elapsed().as_secs_f64();
    let resident_bytes = (sys::rss_bytes() - rss0).max(0.0);
    let mut client = Client {
        seed,
        col,
        gate: AdmissionGate::new(AdmissionConfig::with_in_flight(2)),
        ranges,
        expected: Some(expected),
        tracker: CountingTracker::new(),
        next_op: 0,
        writes: None,
        hint_ns: Vec::new(),
    };
    let mut warm_ns = 0u64;
    for i in 0..WARMUP_READS {
        let t0 = Instant::now();
        let answer = client.read(i);
        warm_ns += t0.elapsed().as_nanos() as u64;
        client.check(i, answer, out);
    }
    client.next_op = WARMUP_READS;
    let t0 = Instant::now();
    client.col.quiesce();
    let quiesce_s = t0.elapsed().as_secs_f64();
    (
        client,
        Setup {
            build_s,
            warm_s: warm_ns as f64 / 1e9,
            quiesce_s,
            resident_bytes,
        },
    )
}

/// After `serve_mixed`: once the writer has caught up, the column must hold
/// exactly base ∪ live inserts, before and after the bulk drain.
fn final_check(client: &mut Client<'_>, values: &[u32], out: &mut Outcome) {
    let Some(w) = &client.writes else { return };
    let mut content = values.to_vec();
    content.extend(w.live.iter().map(|&(_, v)| v));
    let oracle = Oracle::new(content);
    let seed = client.seed;
    let recount = |what: &str, out: &mut Outcome| {
        let n = client.col.select_count(&domain(), &mut NullTracker);
        out.check(n == oracle.len(), seed, client.next_op, || {
            format!(
                "{what}: column holds {n} rows, base ∪ deltas is {}",
                oracle.len()
            )
        });
    };
    client.col.quiesce();
    out.put(
        "delta.pending_rows_end",
        client.col.pending_delta_rows() as f64,
    );
    recount("after quiesce", out);
    for (k, q) in client
        .ranges
        .iter()
        .step_by(RANGES / FINAL_CHECKS)
        .enumerate()
    {
        let n = client.col.select_count(q, &mut NullTracker);
        out.check(n == oracle.count(q), seed, k as u64, || {
            format!(
                "final count of {q:?} = {n}, base ∪ deltas has {}",
                oracle.count(q)
            )
        });
    }
    let t0 = Instant::now();
    client.col.drain_deltas();
    out.put("delta.drain_ms", t0.elapsed().as_secs_f64() * 1e3);
    recount("after drain", out);
}

/// Runs `serve_read` (`mixed == false`) or `serve_mixed`.
pub fn run(cfg: &Cfg, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    let name = if mixed { "serve_mixed" } else { "serve_read" };
    let values = uniform_values(ROWS, &domain(), cfg.seed);
    let ranges = query_log();
    let expected = Expected::new(&values, &ranges);

    let (mut client, setup) = set_up(cfg.seed, &values, &ranges, &expected, &mut out);
    let window_ns = cfg.window_ns();
    let reorg0 = client.col.reorg_totals().write_bytes;
    let mut baseline_p50 = 0.0;
    let mut prefill_s = 0.0;
    if mixed {
        if cfg.trace {
            // What the same reads cost before any write: one read-only window.
            let quiet = client.stretch(1, window_ns, &mut Tracer::off(), &mut out);
            baseline_p50 = quiet.lat.quantile_us(0.5);
        }
        client.expected = None;
        let mut writes = Writes::new(cfg.seed);
        let t0 = Instant::now();
        for _ in 0..PREFILL_BATCHES {
            writes.apply_one(&client.col);
        }
        client.col.quiesce();
        prefill_s = t0.elapsed().as_secs_f64();
        out.attempted += PREFILL_BATCHES as u64;
        client.writes = Some(writes);
    }

    if !cfg.trace {
        let s = client.stretch(WINDOWS, window_ns, &mut Tracer::off(), &mut out);
        let peak_rss_mb = sys::peak_rss_mb();
        s.lat.print_windows();
        out.put("setup_s", setup.total_s() + prefill_s);
        out.put("ops_per_s", s.reads as f64 / (s.wall_ns as f64 / 1e9));
        out.put("read_p50_us", s.lat.quantile_us(0.5));
        out.put("read_p95_us", s.lat.quantile_us(0.95));
        out.put("read_bytes_per_op", s.read_bytes as f64 / s.reads as f64);
        out.put("peak_rss_mb", peak_rss_mb);
        out.put("client.read_p99_us", s.lat.quantile_us(0.99));
        out.put("client.read_max_us", s.lat.max_us());
        out.put(
            "epoch.hints_dropped_share",
            s.hints_dropped as f64 / s.reads as f64,
        );
        report_writes(&client, reorg0, s.wall_ns, &mut out);
        final_check(&mut client, &values, &mut out);
        return out;
    }

    // Half the windows are traced; a sampled request is at most 7 spans.
    let expected_spans = (400_000.0 * cfg.seconds / SAMPLE_EVERY as f64) as usize * 7;
    let mut tracer = Tracer::with_capacity(expected_spans);
    let run = client.stretch(TRACED_WINDOWS, window_ns, &mut tracer, &mut out);
    let peak_rss_mb = sys::peak_rss_mb();

    // Nanosecond-scale spans are reported net of what an empty span records.
    let floor = Tracer::span_floor_ns();
    let med = |name: &str| (median_ns(&tracer.durations(name)) - floor).max(0.0);
    out.put("epoch.build_s", setup.build_s);
    out.put("epoch.snapshot_acquire_ns", med("epoch.snapshot"));
    out.put("epoch.count_ns", med("snapshot.select_count"));
    out.put("epoch.sum_ns", med("snapshot.select_sum"));
    out.put("epoch.collect_ns", med("snapshot.select_collect"));
    // One span's floor is in the whole call, two are in its parts.
    out.put(
        "epoch.hint_ns",
        (stats::median(&client.hint_ns) + floor).max(0.0),
    );
    out.put(
        "epoch.epochs_per_s",
        run.epochs as f64 / (run.wall_ns as f64 / 1e9),
    );
    out.put(
        "epoch.hints_dropped_share",
        run.hints_dropped as f64 / run.reads as f64,
    );
    out.put("epoch.pieces", client.col.snapshot().segment_count() as f64);
    out.put(
        "epoch.resident_bytes_per_user_byte",
        setup.resident_bytes / (ROWS as f64 * 4.0),
    );
    out.put("epoch.quiesce_ms", setup.quiesce_s * 1e3);
    out.put("admission.overhead_ns", med("admission.admit"));
    out.put("admission.shed_share", client.gate.stats().shed_rate());
    run.lat.print_windows();
    out.put("client.read_p99_us", run.lat.quantile_us(0.99));
    out.put("client.read_max_us", run.lat.max_us());
    out.put("client.timer_ns", sys::timer_ns());
    out.put(
        "client.trace_overhead_share",
        trace_overhead_share(|w| run.lat.count_in(w)),
    );
    out.put("client.samples", run.reads as f64);
    if mixed {
        out.put(
            "delta.read_slowdown",
            run.lat.quantile_us(0.5) / baseline_p50,
        );
        out.put(
            "delta.read_bytes_per_op",
            run.read_bytes as f64 / run.reads as f64,
        );
        out.put("delta.peak_rss_mb", peak_rss_mb);
        report_writes(&client, reorg0, run.wall_ns, &mut out);
    }
    final_check(&mut client, &values, &mut out);
    probes::run(&values, &domain(), &mut out);
    out.put("client.fail_rate", out.failed as f64 / out.attempted as f64);
    crate::write_trace(&tracer, cfg, name);
    out
}

/// The `delta.*` figures the write generator collected.
fn report_writes(client: &Client<'_>, reorg0: u64, wall_ns: u64, out: &mut Outcome) {
    let Some(w) = &client.writes else { return };
    client.col.quiesce();
    let folded = client.col.reorg_totals().write_bytes - reorg0;
    out.put("delta.apply_p50_us", w.apply.quantile(0.5) / 1e3);
    out.put("delta.apply_p99_us", w.apply.quantile(0.99) / 1e3);
    out.put(
        "delta.client_stall_share",
        w.apply_ns as f64 / wall_ns as f64,
    );
    out.put("delta.pending_rows_max", w.pending_max as f64);
    out.put("delta.runs_max", w.runs_max as f64);
    out.put(
        "delta.fold_bytes_per_row",
        folded as f64 / w.rows.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_stream_and_same_write_stream() {
        assert_eq!(query_log(), query_log());
        assert_eq!(query_log().len(), RANGES);
        let (mut w1, mut w2, mut w3) = (Writes::new(7), Writes::new(7), Writes::new(8));
        let mut differs = false;
        for _ in 0..50 {
            w1.next_batch();
            w2.next_batch();
            w3.next_batch();
            assert_eq!(w1.live, w2.live);
            differs |= w1.live != w3.live;
        }
        assert!(differs, "another seed writes other rows");
    }

    #[test]
    fn batches_delete_only_rows_inserted_by_earlier_batches() {
        let mut w = Writes::new(7);
        assert_eq!(w.next_batch().len(), BATCH_INSERTS); // nothing to delete yet
        for k in 1..40 {
            let before: Vec<u64> = w.live.iter().map(|&(oid, _)| oid).collect();
            let batch = w.next_batch();
            assert_eq!(batch.len(), BATCH_INSERTS + BATCH_DELETES, "batch {k}");
            // The 8 oldest are gone, 24 new ones are at the back.
            let after: Vec<u64> = w.live.iter().map(|&(oid, _)| oid).collect();
            assert_eq!(
                after[..before.len() - BATCH_DELETES],
                before[BATCH_DELETES..]
            );
            assert_eq!(after.len(), before.len() + BATCH_INSERTS - BATCH_DELETES);
        }
    }

    #[test]
    fn sampling_visits_every_op_kind_once_per_four_blocks() {
        let sampled: Vec<u64> = (0..4 * SAMPLE_EVERY)
            .filter(|i| i % SAMPLE_EVERY == (i / SAMPLE_EVERY) % 4)
            .collect();
        assert_eq!(sampled.len(), 4);
        let kinds: Vec<u64> = sampled.iter().map(|i| i % 4).collect();
        assert_eq!(kinds, [0, 1, 2, 3]);
    }

    #[test]
    fn a_small_mixed_run_is_correct_end_to_end() {
        let values = uniform_values(20_000, &domain(), 7);
        let ranges = WorkloadSpec::zipf(0.01, RANGES, derive(LOG_SEED, 11)).generate(&domain());
        let expected = Expected::new(&values, &ranges[..400]);
        let ranges = &ranges[..];
        let mut out = Outcome::default();
        let col = ConcurrentColumn::from_spec(
            &StrategySpec::new(StrategyKind::ApmSegm),
            domain(),
            values.clone(),
        )
        .unwrap();
        let mut client = Client {
            seed: 7,
            col,
            gate: AdmissionGate::new(AdmissionConfig::with_in_flight(2)),
            ranges,
            expected: Some(&expected),
            tracker: CountingTracker::new(),
            next_op: 0,
            writes: None,
            hint_ns: Vec::new(),
        };
        for i in 0..400 {
            let a = client.read(i);
            client.check(i, a, &mut out);
        }
        assert_eq!((out.attempted, out.failed), (400, 0));

        client.expected = None;
        client.writes = Some(Writes::new(7));
        let mut tracer = Tracer::with_capacity(4096);
        // 3 windows of 50 ms: seven batches are due; windows 1 and 2 are traced.
        let s = client.stretch(3, 50_000_000, &mut tracer, &mut out);
        assert_eq!(s.reads, s.lat.count());
        assert!(s.reads > 0);
        assert_eq!(client.writes.as_ref().unwrap().batches, 7);
        assert!(tracer.len() > 0);
        final_check(&mut client, &values, &mut out);
        assert_eq!(out.failed, 0);
        assert!(out.get("delta.pending_rows_end").is_some());
        assert!(out.unknown_names().is_empty());
    }
}
