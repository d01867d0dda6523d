//! `sky_adapt` — the paper's §6.2 experiment: four self-organizing
//! strategies × three query loads over a synthetic SkyServer `ra` column,
//! each cell a fresh strategy adapting under 1000 range counts.
//!
//! Only `strategy` and `kernels` do work here; `epoch`, `admission` and
//! `mal` are bypassed, so a serving-layer change must not move these
//! numbers, and with one thread and no timers the byte counts repeat exactly.

use std::time::Instant;

use socdb::prelude::*;
use socdb::workload::Oracle;

use crate::common::{derive, Cfg, DEFAULT_SECONDS, LOG_SEED};
use crate::hist::Histogram;
use crate::metrics::{Outcome, SKY_KINDS, SKY_LOADS};
use crate::trace::{SpanId, Tracer};
use crate::{probes, sys};

/// Rows of the `ra` column: 32 MB of `f64`, 8× the 4 MiB L2.
pub const ROWS: usize = 4_000_000;
/// Queries per cell at the default `--seconds`; scaled with it.
const QUERIES_PER_CELL: f64 = 1000.0;
/// The paper's selectivity for the SkyServer loads.
const SELECTIVITY: f64 = 0.002;
/// Warm-up inside `setup_s`: each kind is built once more and answers this
/// many queries of a stream of its own, so the first measured cell does not
/// pay for a cold allocator.
const WARMUP_QUERIES: usize = 8;

const KINDS: [StrategyKind; 4] = [
    StrategyKind::GdSegm,
    StrategyKind::ApmSegm,
    StrategyKind::GdRepl,
    StrategyKind::ApmRepl,
];

/// Queries each of the twelve cells runs.
pub fn queries_per_cell(seconds: f64, traced: bool) -> usize {
    let full = (QUERIES_PER_CELL * seconds / DEFAULT_SECONDS)
        .round()
        .max(20.0) as usize;
    if traced {
        (full / 4).max(5)
    } else {
        full
    }
}

/// The three query logs (fixed: see [`LOG_SEED`]).
pub fn streams(per_cell: usize) -> [Vec<ValueRange<OrdF64>>; 3] {
    let domain = skyserver_domain();
    [
        WorkloadSpec::pooled_uniform(SELECTIVITY, 400, per_cell, derive(LOG_SEED, 1)),
        WorkloadSpec::skewed_two_areas(SELECTIVITY, per_cell, derive(LOG_SEED, 2)),
        WorkloadSpec::changing_four_points(SELECTIVITY, per_cell, derive(LOG_SEED, 3)),
    ]
    .map(|spec| spec.generate(&domain))
}

/// What one pass over the 4 × 3 matrix measured.
pub struct Pass {
    pub latencies: Histogram,
    pub ops: u64,
    /// Time inside the twelve query loops (builds excluded).
    pub wall_s: f64,
    pub build_s: f64,
    pub busy_s: [[f64; 3]; 4],
    pub read_bytes: [u64; 4],
    pub write_bytes: [u64; 4],
    pub reorg_ops: u64,
    pub reorg_ns: u64,
    pub pieces_end: u64,
    pub storage_bytes_end: u64,
}

impl Pass {
    pub fn read_bytes_per_op(&self) -> f64 {
        self.read_bytes.iter().sum::<u64>() as f64 / self.ops as f64
    }

    pub fn reorg_write_bytes_per_op(&self) -> f64 {
        self.write_bytes.iter().sum::<u64>() as f64 / self.ops as f64
    }
}

/// Runs every cell once: build (timed as set-up), then the cell's stream.
pub fn pass(
    seed: u64,
    values: &[OrdF64],
    queries: &[Vec<ValueRange<OrdF64>>; 3],
    expected: &[Vec<u64>; 3],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let domain = skyserver_domain();
    let mut p = Pass {
        latencies: Histogram::new(),
        ops: 0,
        wall_s: 0.0,
        build_s: 0.0,
        busy_s: [[0.0; 3]; 4],
        read_bytes: [0; 4],
        write_bytes: [0; 4],
        reorg_ops: 0,
        reorg_ns: 0,
        pieces_end: 0,
        storage_bytes_end: 0,
    };
    let n_cell = tracer.name("sky_adapt.cell");
    let n_build = tracer.name("strategy.build");
    let n_op = tracer.name("strategy.select_count");
    for (k, kind) in KINDS.into_iter().enumerate() {
        for (l, stream) in queries.iter().enumerate() {
            let cell = (k * 3 + l) as u64;
            let cell_span = tracer.begin(n_cell, SpanId::NONE, cell);
            let column = values.to_vec(); // the harness's copy, off the clock
            let (built, build_ns) = tracer.timed(n_build, cell_span, cell, || {
                StrategySpec::new(kind).build(domain, column)
            });
            let mut strategy = built.expect("generated values lie inside the ra domain");
            p.build_s += build_ns as f64 / 1e9;

            let mut tracker = CountingTracker::new();
            let mut cell_lat = Histogram::new();
            let cell_t0 = Instant::now();
            for (i, q) in stream.iter().enumerate() {
                let op = cell * stream.len() as u64 + i as u64;
                tracker.begin_query();
                let (n, ns) = tracer.timed(n_op, cell_span, op, || {
                    strategy.select_count(q, &mut tracker)
                });
                p.latencies.record(ns);
                cell_lat.record(ns);
                p.busy_s[k][l] += ns as f64 / 1e9;
                if tracker.query_stats().write_bytes > 0 {
                    p.reorg_ops += 1;
                    p.reorg_ns += ns;
                }
                let want = expected[l][i];
                out.check(n == want, seed, op, || {
                    format!(
                        "{}/{} select_count({q:?}) = {n}, oracle says {want}",
                        SKY_KINDS[k], SKY_LOADS[l]
                    )
                });
            }
            p.wall_s += cell_t0.elapsed().as_secs_f64();
            println!(
                "cell {:>8}/{:<8} busy {:>7.3} s  p50 {:>9.1} us  p95 {:>10.1} us  {:>5} pieces",
                SKY_KINDS[k],
                SKY_LOADS[l],
                p.busy_s[k][l],
                cell_lat.quantile(0.5) / 1e3,
                cell_lat.quantile(0.95) / 1e3,
                strategy.segment_count()
            );
            p.ops += stream.len() as u64;
            let totals = tracker.totals();
            p.read_bytes[k] += totals.read_bytes;
            p.write_bytes[k] += totals.write_bytes;
            p.pieces_end += strategy.segment_count() as u64;
            p.storage_bytes_end += strategy.storage_bytes();
            drop(strategy);
            tracer.end(cell_span);
        }
    }
    p
}

/// The fixed-count warm-up; returns the time spent inside engine calls.
fn warm_up(seed: u64, values: &[OrdF64]) -> f64 {
    let domain = skyserver_domain();
    let queries =
        WorkloadSpec::uniform(SELECTIVITY, WARMUP_QUERIES, derive(seed, 4)).generate(&domain);
    let mut engine_s = 0.0;
    for kind in KINDS {
        let column = values.to_vec();
        let t0 = Instant::now();
        let mut strategy = StrategySpec::new(kind)
            .build(domain, column)
            .expect("generated values lie inside the ra domain");
        for q in &queries {
            std::hint::black_box(strategy.select_count(q, &mut NullTracker));
        }
        engine_s += t0.elapsed().as_secs_f64();
    }
    engine_s
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let values = skyserver_ra(ROWS, cfg.seed);
    let per_cell = queries_per_cell(cfg.seconds, cfg.trace);
    let queries = streams(per_cell);
    let expected: [Vec<u64>; 3] = {
        let oracle = Oracle::new(values.clone());
        [0, 1, 2].map(|l| queries[l].iter().map(|q| oracle.count(q)).collect())
    };

    let warm_s = warm_up(cfg.seed, &values);
    let plain = pass(
        cfg.seed,
        &values,
        &queries,
        &expected,
        &mut Tracer::off(),
        &mut out,
    );
    if !cfg.trace {
        out.put("setup_s", warm_s + plain.build_s);
        out.put("ops_per_s", plain.ops as f64 / plain.wall_s);
        // One window: the stream is non-stationary by design.
        out.put("read_p50_us", plain.latencies.quantile(0.5) / 1e3);
        out.put("read_p95_us", plain.latencies.quantile(0.95) / 1e3);
        out.put("read_bytes_per_op", plain.read_bytes_per_op());
        out.put(
            "strategy.reorg_write_bytes_per_op",
            plain.reorg_write_bytes_per_op(),
        );
        out.put("peak_rss_mb", sys::peak_rss_mb());
        return out;
    }

    let mut tracer = Tracer::with_capacity(12 * (per_cell + 2));
    let traced = pass(
        cfg.seed,
        &values,
        &queries,
        &expected,
        &mut tracer,
        &mut out,
    );
    for (k, kind) in SKY_KINDS.iter().enumerate() {
        for (l, load) in SKY_LOADS.iter().enumerate() {
            out.put(
                &format!("strategy.{kind}.{load}.busy_s"),
                traced.busy_s[k][l],
            );
        }
        let ops = (3 * per_cell) as f64;
        out.put(
            &format!("strategy.{kind}.read_bytes_per_op"),
            traced.read_bytes[k] as f64 / ops,
        );
        out.put(
            &format!("strategy.{kind}.reorg_write_bytes_per_op"),
            traced.write_bytes[k] as f64 / ops,
        );
    }
    let busy: f64 = traced.busy_s.iter().flatten().sum();
    out.put(
        "strategy.reorg_write_bytes_per_op",
        traced.reorg_write_bytes_per_op(),
    );
    out.put("strategy.build_s", traced.build_s);
    out.put(
        "strategy.reorg_op_share",
        traced.reorg_ops as f64 / traced.ops as f64,
    );
    out.put(
        "strategy.reorg_time_share",
        traced.reorg_ns as f64 / 1e9 / busy,
    );
    out.put("strategy.pieces_end", traced.pieces_end as f64 / 12.0);
    out.put(
        "strategy.storage_bytes_per_user_byte",
        traced.storage_bytes_end as f64 / (12.0 * ROWS as f64 * 8.0),
    );
    out.put("client.read_p99_us", traced.latencies.quantile(0.99) / 1e3);
    out.put("client.read_max_us", traced.latencies.max() as f64 / 1e3);
    out.put("client.timer_ns", sys::timer_ns());
    out.put(
        "client.trace_overhead_share",
        1.0 - (traced.ops as f64 / traced.wall_s) / (plain.ops as f64 / plain.wall_s),
    );
    out.put("client.samples", traced.ops as f64);
    probes::run(&values, &skyserver_domain(), &mut out);
    out.put("client.fail_rate", out.failed as f64 / out.attempted as f64);
    crate::write_trace(&tracer, cfg, "sky_adapt");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_same_byte_metrics() {
        assert_eq!(streams(40), streams(40));
        assert_ne!(skyserver_ra(1000, 7), skyserver_ra(1000, 8));

        // A small column keeps the test quick; the byte accounting is the
        // same code path at any size.
        let values = skyserver_ra(60_000, 7);
        let queries = streams(40);
        let oracle = Oracle::new(values.clone());
        let expected = [0, 1, 2].map(|l| queries[l].iter().map(|q| oracle.count(q)).collect());
        let mut out = Outcome::default();
        let a = pass(
            7,
            &values,
            &queries,
            &expected,
            &mut Tracer::off(),
            &mut out,
        );
        let mut tracer = Tracer::with_capacity(1024);
        let b = pass(7, &values, &queries, &expected, &mut tracer, &mut out);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, 2 * 12 * 40);
        assert_eq!(a.read_bytes, b.read_bytes);
        assert_eq!(a.write_bytes, b.write_bytes);
        assert_eq!(
            a.read_bytes_per_op().to_bits(),
            b.read_bytes_per_op().to_bits()
        );
        assert_eq!(
            a.reorg_write_bytes_per_op().to_bits(),
            b.reorg_write_bytes_per_op().to_bits()
        );
        assert!(
            a.write_bytes.iter().all(|&w| w > 0),
            "every kind reorganizes"
        );
        // 12 cells, each a cell span, a build span and 40 op spans.
        assert_eq!(tracer.len(), 12 * 42);
    }

    #[test]
    fn a_shorter_run_scales_the_stream_and_a_traced_one_is_a_quarter() {
        assert_eq!(queries_per_cell(25.0, false), 1000);
        assert_eq!(queries_per_cell(25.0, true), 250);
        assert_eq!(queries_per_cell(20.0, false), 800);
        assert_eq!(queries_per_cell(0.1, false), 20);
    }
}
