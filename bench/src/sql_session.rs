//! `sql_session` — SQL statements through the whole MAL stack: text →
//! `compile_select` → `SegmentOptimizer::optimize` → `Interp::run`, over a
//! catalog that was checkpointed and restored during set-up, with a trickle
//! of row inserts and deletes beside the reads.
//!
//! The table (25 000 rows, 400 KB) fits the L2 on purpose: this workload
//! measures the statement path, not memory. `mal` does all the work and never
//! reaches `epoch` or `admission`; `store` is on the set-up path only.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use socdb::bat::{Atom, Bat};
use socdb::mal::{compile_select, Catalog, Interp, SegmentOptimizer};
use socdb::prelude::*;
use socdb::workload::Oracle;

use crate::common::{
    derive, is_traced_window, median_ns, trace_overhead_share, Cfg, Latencies, LOG_SEED,
    TRACED_WINDOWS, WINDOWS,
};
use crate::metrics::Outcome;
use crate::pace::{window_of, Pacer};
use crate::trace::{NameId, SpanId, Tracer};
use crate::{probes, sys};

/// Rows of `sys.P`: 25 000 × (8 B `ra` + 8 B `objid`) = 400 KB.
pub const ROWS: usize = 25_000;
const KEY: &str = "sys.P.ra";
const RA_LO: f64 = 110.0;
/// Exclusive upper bound of the registered domain; the data tops out at 260.
const RA_HI_EXCL: f64 = 260.001;
/// Distinct hot query windows, each about 25 rows wide.
const HOT_WINDOWS: usize = 64;
const WINDOW_WIDTH: f64 = (260.0 - RA_LO) * 25.0 / ROWS as f64;
/// Statements run (and checked) before the checkpoint, inside `setup_s`.
const WARMUP_STATEMENTS: usize = 500;
/// One trickle write every 50 ms, alternating insert and delete.
const WRITE_INTERVAL_NS: u64 = 50_000_000;
const OBJID_BASE: i64 = 587_730_000_000;

/// The hot windows, the order statements visit them in, and the row count
/// each must return — kept current across trickle writes.
struct Session {
    seed: u64,
    windows: Vec<(f64, f64)>,
    /// Window index per statement, cycled.
    visits: Vec<usize>,
    expected: Vec<u64>,
    next_stmt: u64,
    rng: SmallRng,
    /// Trickled rows still in the table, oldest first.
    trickled: VecDeque<(u64, f64)>,
    writes: u64,
}

impl Session {
    fn new(seed: u64, ra: &[f64]) -> Self {
        // The statement log — windows and visiting order — is fixed (see
        // `LOG_SEED`); the seed draws the table and the trickle writes.
        let mut rng = SmallRng::seed_from_u64(derive(LOG_SEED, 21));
        // One window per equal slice of the domain, jittered inside it, so
        // the windows sample the stripes and the background of the `ra`
        // density alike.
        let slice = (260.0 - RA_LO - WINDOW_WIDTH) / HOT_WINDOWS as f64;
        let windows: Vec<(f64, f64)> = (0..HOT_WINDOWS)
            .map(|i| {
                let lo = RA_LO + (i as f64 + rng.gen::<f64>()) * slice;
                // Three decimals survive the trip through the SQL text.
                let lo = (lo * 1e3).round() / 1e3;
                (lo, ((lo + WINDOW_WIDTH) * 1e3).round() / 1e3)
            })
            .collect();
        let visits = (0..4096).map(|_| rng.gen_range(0..HOT_WINDOWS)).collect();
        let oracle = Oracle::new(ra.iter().map(|&v| OrdF64::from_finite(v)).collect());
        let expected = windows
            .iter()
            .map(|&(lo, hi)| {
                oracle.count(&ValueRange::must(
                    OrdF64::from_finite(lo),
                    OrdF64::from_finite(hi),
                ))
            })
            .collect();
        Session {
            seed,
            windows,
            visits,
            expected,
            next_stmt: 0,
            rng: SmallRng::seed_from_u64(derive(seed, 22)),
            trickled: VecDeque::new(),
            writes: 0,
        }
    }

    fn adjust(&mut self, v: f64, by: i64) {
        for (w, &(lo, hi)) in self.windows.iter().enumerate() {
            if lo <= v && v <= hi {
                self.expected[w] = self.expected[w].wrapping_add_signed(by);
            }
        }
    }

    /// One trickle write: even ones insert a row (half of them inside a hot
    /// window, so answers really change), odd ones delete the oldest
    /// trickled row.
    fn write(&mut self, catalog: &mut Catalog, names: &Names, t: &mut Tracer) {
        let k = self.writes;
        self.writes += 1;
        if k % 2 == 0 {
            let v = if self.rng.gen::<f64>() < 0.5 {
                let (lo, hi) = self.windows[self.rng.gen_range(0..HOT_WINDOWS)];
                lo + self.rng.gen::<f64>() * (hi - lo)
            } else {
                RA_LO + self.rng.gen::<f64>() * (260.0 - RA_LO)
            };
            let objid = OBJID_BASE + (ROWS as u64 + k) as i64;
            let (oid, _) = t.timed(names.insert, SpanId::NONE, k, || {
                catalog.insert_row(
                    "sys",
                    "P",
                    &[("ra", Atom::Dbl(v)), ("objid", Atom::Int(objid))],
                )
            });
            self.trickled.push_back((oid, v));
            self.adjust(v, 1);
        } else {
            let (oid, v) = self
                .trickled
                .pop_front()
                .expect("a delete follows an insert");
            t.timed(names.delete, SpanId::NONE, k, || {
                catalog.delete_row("sys", "P", oid);
            });
            self.adjust(v, -1);
        }
    }
}

struct Names {
    statement: NameId,
    compile: NameId,
    optimize: NameId,
    interp: NameId,
    insert: NameId,
    delete: NameId,
}

impl Names {
    fn new(t: &mut Tracer) -> Self {
        Names {
            statement: t.name("client.statement"),
            compile: t.name("mal.compile_select"),
            optimize: t.name("mal.optimize"),
            interp: t.name("mal.interp_run"),
            insert: t.name("mal.insert_row"),
            delete: t.name("mal.delete_row"),
        }
    }
}

/// One statement, start to finish. Returns rows returned (or the error) and
/// the statement's latency in nanoseconds.
fn statement(
    catalog: &mut Catalog,
    (lo, hi): (f64, f64),
    req: u64,
    names: &Names,
    t: &mut Tracer,
) -> (Result<u64, String>, u64) {
    let root = t.begin(names.statement, SpanId::NONE, req);
    let t0 = Instant::now();
    let (plan, _) = t.timed(names.compile, root, req, || {
        compile_select(&format!(
            "SELECT objid FROM sys.P WHERE ra BETWEEN {lo} AND {hi}"
        ))
    });
    let rows = match plan {
        Err(e) => Err(e.to_string()),
        Ok(plan) => {
            let ((optimized, _report), _) = t.timed(names.optimize, root, req, || {
                SegmentOptimizer::new().optimize(&plan, catalog)
            });
            let (result, _) = t.timed(names.interp, root, req, || {
                Interp::new(catalog).run(&optimized, &[])
            });
            match result {
                Ok(Some(bat)) => Ok(bat.len() as u64),
                Ok(None) => Err("the plan exported no result".into()),
                Err(e) => Err(e.to_string()),
            }
        }
    };
    let ns = t0.elapsed().as_nanos() as u64;
    t.end(root);
    (rows, ns)
}

/// What one timed stretch measured.
struct Stretch {
    lat: Latencies,
    reads: u64,
    wall_ns: u64,
    footprint_bytes: u64,
    result_rows: u64,
}

fn stretch(
    catalog: &mut Catalog,
    session: &mut Session,
    windows: usize,
    window_ns: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Stretch {
    let names = Names::new(tracer);
    let duration = windows as u64 * window_ns;
    let mut pacer = Pacer::new(WRITE_INTERVAL_NS, duration);
    let mut s = Stretch {
        lat: Latencies::new(windows),
        reads: 0,
        wall_ns: 0,
        footprint_bytes: 0,
        result_rows: 0,
    };
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= duration {
            break;
        }
        let w = window_of(now, window_ns, windows);
        tracer.set_on(is_traced_window(w));
        if pacer.due(now) {
            session.write(catalog, &names, tracer);
            out.attempted += 1;
            continue;
        }
        let i = session.next_stmt;
        session.next_stmt += 1;
        let hot = session.visits[(i % session.visits.len() as u64) as usize];
        let (lo, hi) = session.windows[hot];
        // Off the clock: what the plan is about to touch.
        s.footprint_bytes += catalog
            .segmented(KEY)
            .map_or(0, |seg| seg.footprint_bytes(lo, hi));
        let (rows, ns) = statement(catalog, (lo, hi), i, &names, tracer);
        s.lat.record(w, ns);
        s.reads += 1;
        let want = session.expected[hot];
        s.result_rows += *rows.as_ref().unwrap_or(&0);
        out.check(rows == Ok(want), session.seed, i, || {
            format!("ra BETWEEN {lo} AND {hi} returned {rows:?}, oracle says {want} rows")
        });
    }
    for _ in 0..pacer.remaining() {
        session.write(catalog, &names, tracer);
        out.attempted += 1;
    }
    s.wall_ns = t0.elapsed().as_nanos() as u64;
    s
}

/// Times of one set-up.
struct Setup {
    register_s: f64,
    warm_s: f64,
    save_s: f64,
    load_s: f64,
    disk_bytes: u64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.register_s + self.warm_s + self.save_s + self.load_s
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Register → warm-up statements → checkpoint → restore; the session runs
/// on the restored catalog.
fn set_up(
    ra: &[f64],
    session: &mut Session,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(Catalog, Setup), String> {
    let ra_bat = Bat::dense_dbl(ra.to_vec());
    let objid = Bat::dense_int((0..ROWS as i64).map(|i| OBJID_BASE + i).collect());
    let t0 = Instant::now();
    let mut catalog = Catalog::new();
    catalog
        .register_segmented(
            "sys",
            "P",
            "ra",
            ra_bat,
            RA_LO,
            RA_HI_EXCL,
            StrategySpec::new(StrategyKind::ApmSegm),
        )
        .map_err(|e| format!("register sys.P.ra: {e}"))?;
    catalog.register_bat("sys", "P", "objid", objid);
    let register_s = t0.elapsed().as_secs_f64();

    let mut off = Tracer::off();
    let names = Names::new(&mut off);
    let mut warm_ns = 0u64;
    for _ in 0..WARMUP_STATEMENTS {
        let i = session.next_stmt;
        session.next_stmt += 1;
        let w = session.visits[(i % session.visits.len() as u64) as usize];
        let (rows, ns) = statement(&mut catalog, session.windows[w], i, &names, &mut off);
        warm_ns += ns;
        let want = session.expected[w];
        out.check(rows == Ok(want), session.seed, i, || {
            format!("warm-up statement returned {rows:?}, oracle says {want} rows")
        });
    }

    let t0 = Instant::now();
    catalog
        .save_all(dir)
        .map_err(|e| format!("checkpoint to {}: {e}", dir.display()))?;
    let save_s = t0.elapsed().as_secs_f64();
    drop(catalog);
    let disk_bytes = dir_bytes(dir);
    let t0 = Instant::now();
    let restored =
        Catalog::load_all(dir).map_err(|e| format!("restore from {}: {e}", dir.display()))?;
    let load_s = t0.elapsed().as_secs_f64();
    Ok((
        restored,
        Setup {
            register_s,
            warm_s: warm_ns as f64 / 1e9,
            save_s,
            load_s,
            disk_bytes,
        },
    ))
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let ra: Vec<f64> = skyserver_ra(ROWS, cfg.seed)
        .iter()
        .map(|v| v.get())
        .collect();
    let mut session = Session::new(cfg.seed, &ra);
    let dir = cfg
        .out_dir
        .join(format!("checkpoint-{}", std::process::id()));

    let set_up_result = set_up(&ra, &mut session, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    let (mut catalog, setup) = match set_up_result {
        Ok(ready) => ready,
        Err(e) => {
            out.check(false, cfg.seed, 0, || e);
            return out;
        }
    };
    let window_ns = cfg.window_ns();
    let reorg0 = catalog.segmented(KEY).map_or(0, |s| s.reorg_write_bytes());

    if !cfg.trace {
        let s = stretch(
            &mut catalog,
            &mut session,
            WINDOWS,
            window_ns,
            &mut Tracer::off(),
            &mut out,
        );
        s.lat.print_windows();
        out.put("setup_s", setup.total_s());
        out.put("ops_per_s", s.reads as f64 / (s.wall_ns as f64 / 1e9));
        out.put("read_p50_us", s.lat.quantile_us(0.5));
        out.put("read_p95_us", s.lat.quantile_us(0.95));
        out.put(
            "read_bytes_per_op",
            s.footprint_bytes as f64 / s.reads as f64,
        );
        out.put("peak_rss_mb", sys::peak_rss_mb());
        out.put("client.read_p99_us", s.lat.quantile_us(0.99));
        out.put("client.read_max_us", s.lat.max_us());
        return out;
    }

    // Untraced and traced windows alternate; a statement is 4 spans.
    let mut tracer = Tracer::with_capacity((400.0 * cfg.seconds) as usize * 4);
    let run = stretch(
        &mut catalog,
        &mut session,
        TRACED_WINDOWS,
        window_ns,
        &mut tracer,
        &mut out,
    );
    let med_us = |name: &str| median_ns(&tracer.durations(name)) / 1e3;
    out.put("mal.compile_us", med_us("mal.compile_select"));
    out.put("mal.optimize_us", med_us("mal.optimize"));
    out.put("mal.interp_us", med_us("mal.interp_run"));
    out.put("mal.insert_us", med_us("mal.insert_row"));
    out.put("mal.delete_us", med_us("mal.delete_row"));
    out.put(
        "mal.bytes_examined_per_result_byte",
        run.footprint_bytes as f64 / (run.result_rows.max(1) as f64 * 8.0),
    );
    if let Some(seg) = catalog.segmented(KEY) {
        out.put("mal.pieces_end", seg.piece_count() as f64);
        out.put(
            "mal.reorg_write_bytes_per_op",
            (seg.reorg_write_bytes() - reorg0) as f64 / run.reads as f64,
        );
    }
    out.put(
        "mal.pending_rows_end",
        catalog.pending_rows("sys", "P") as f64,
    );
    out.put("store.save_ms", setup.save_s * 1e3);
    out.put("store.load_ms", setup.load_s * 1e3);
    out.put(
        "store.bytes_per_user_byte",
        setup.disk_bytes as f64 / (ROWS as f64 * 16.0),
    );
    run.lat.print_windows();
    out.put("client.read_p99_us", run.lat.quantile_us(0.99));
    out.put("client.read_max_us", run.lat.max_us());
    out.put("client.timer_ns", sys::timer_ns());
    out.put(
        "client.trace_overhead_share",
        trace_overhead_share(|w| run.lat.count_in(w)),
    );
    out.put("client.samples", run.reads as f64);
    let column: Vec<OrdF64> = ra.iter().map(|&v| OrdF64::from_finite(v)).collect();
    probes::run(&column, &skyserver_domain(), &mut out);
    out.put("client.fail_rate", out.failed as f64 / out.attempted as f64);
    crate::write_trace(&tracer, cfg, "sql_session");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_statements_and_same_writes() {
        let ra: Vec<f64> = skyserver_ra(ROWS, 7).iter().map(|v| v.get()).collect();
        let (a, b) = (Session::new(7, &ra), Session::new(7, &ra));
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.visits, b.visits);
        assert_eq!(a.expected, b.expected);
        let other: Vec<f64> = skyserver_ra(ROWS, 8).iter().map(|v| v.get()).collect();
        assert_ne!(a.expected, Session::new(8, &other).expected);
        // About 25 rows per hot window.
        let mean = a.expected.iter().sum::<u64>() as f64 / HOT_WINDOWS as f64;
        assert!((10.0..60.0).contains(&mean), "mean rows per window {mean}");
    }

    #[test]
    fn statements_stay_correct_across_checkpoint_and_trickle_writes() {
        let ra: Vec<f64> = skyserver_ra(ROWS, 7).iter().map(|v| v.get()).collect();
        let mut session = Session::new(7, &ra);
        let dir = std::env::temp_dir().join(format!("socbench-sql-test-{}", std::process::id()));
        let mut out = Outcome::default();
        let (mut catalog, setup) = set_up(&ra, &mut session, &dir, &mut out).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((out.attempted, out.failed), (WARMUP_STATEMENTS as u64, 0));
        assert!(setup.disk_bytes as usize >= ROWS * 16);

        let mut tracer = Tracer::with_capacity(4096);
        // 2 windows of 150 ms: six trickle writes are due; window 1 is traced.
        let s = stretch(
            &mut catalog,
            &mut session,
            2,
            150_000_000,
            &mut tracer,
            &mut out,
        );
        assert!(s.reads > 0);
        let traced_reads = s.lat.count_in(1);
        assert_eq!(session.writes, 6);
        assert_eq!(out.failed, 0);
        let totals = tracer.totals();
        assert_eq!(totals["client.statement"].count, traced_reads);
        assert_eq!(totals["mal.interp_run"].count, traced_reads);
        assert_eq!(s.reads, s.lat.count());
    }
}
