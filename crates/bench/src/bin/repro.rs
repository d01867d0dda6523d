//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p soc-bench --bin repro --release -- --experiment all
//! cargo run -p soc-bench --bin repro --release -- --experiment fig5 --out results
//! cargo run -p soc-bench --bin repro --release -- --experiment skyserver --quick
//! ```
//!
//! Experiments: fig2, fig5, fig6, fig7, tab1, fig8, fig9 (simulation);
//! fig10–fig16, tab2 (SkyServer); ablation-cracking, ablation-apm,
//! ablation-merge, ablation-buffer, ablation-budget, ablation-auto-apm,
//! ablation-estimator, ablation-placement, ablation-sharding,
//! ablation-sql-strategy; or the groups `simulation`,
//! `skyserver`, `ablation`, `all`.
//!
//! Each figure/table is printed (tables verbatim, figures as sparkline
//! summaries) and written as CSV under `--out` (default `results/`).

use std::path::PathBuf;
use std::process::ExitCode;

use soc_bench::fig2;
use soc_sim::experiment::ablation;
use soc_sim::experiment::simulation::{run_simulation_matrix, SimConfig, SimulationMatrix};
use soc_sim::experiment::skyserver::{
    run_skyserver, SkyConfig, SkyLoad, SkyScheme, SkyServerResults,
};
use soc_sim::output;
use soc_sim::{Figure, TableOut};

const USAGE: &str = "usage: repro [--experiment <id|group|all>] [--out DIR] [--quick] [--scale N]";

struct Opts {
    experiment: String,
    out: PathBuf,
    quick: bool,
    scale: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        experiment: "all".to_owned(),
        out: PathBuf::from("results"),
        quick: false,
        scale: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--experiment" | "-e" => {
                opts.experiment = args.next().ok_or("--experiment needs a value")?;
            }
            "--out" | "-o" => {
                opts.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--quick" => opts.quick = true,
            "--scale" => {
                opts.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|_| "bad --scale value")?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

struct Emitter {
    out: PathBuf,
    written: Vec<PathBuf>,
}

impl Emitter {
    fn figure(&mut self, f: &Figure) {
        println!("{}", output::render_figure_summary(f));
        match output::write_figure_csv(&self.out, f) {
            Ok(p) => self.written.push(p),
            Err(e) => eprintln!("warning: could not write {}: {e}", f.id),
        }
    }

    fn table(&mut self, t: &TableOut) {
        println!("{}", output::render_table(t));
        match output::write_table_csv(&self.out, t) {
            Ok(p) => self.written.push(p),
            Err(e) => eprintln!("warning: could not write {}: {e}", t.id),
        }
    }
}

fn wants(experiment: &str, id: &str, group: &str) -> bool {
    experiment == "all" || experiment == id || experiment == group
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut em = Emitter {
        out: opts.out.clone(),
        written: Vec::new(),
    };
    let e = opts.experiment.as_str();

    if wants(e, "fig2", "simulation") {
        em.figure(&fig2());
    }

    // ---- Section 6.1 simulation ----------------------------------------
    let sim_ids = ["fig5", "fig6", "fig7", "tab1", "fig8", "fig9"];
    if sim_ids.iter().any(|id| wants(e, id, "simulation")) {
        let cfg = if opts.quick {
            SimConfig {
                column_len: 20_000,
                query_count: 2_000,
                ..SimConfig::default()
            }
        } else {
            SimConfig::default()
        };
        eprintln!(
            "running simulation matrix ({} values, {} queries, 16 runs)…",
            cfg.column_len, cfg.query_count
        );
        let m: SimulationMatrix = run_simulation_matrix(&cfg);
        if wants(e, "fig5", "simulation") {
            for f in m.fig5() {
                em.figure(&f);
            }
        }
        if wants(e, "fig6", "simulation") {
            for f in m.fig6() {
                em.figure(&f);
            }
        }
        if wants(e, "fig7", "simulation") {
            em.figure(&m.fig7());
        }
        if wants(e, "tab1", "simulation") {
            em.table(&m.tab1());
        }
        if wants(e, "fig8", "simulation") {
            for f in m.fig8() {
                em.figure(&f);
            }
        }
        if wants(e, "fig9", "simulation") {
            for f in m.fig9() {
                em.figure(&f);
            }
        }
    }

    // ---- Section 6.2 SkyServer ------------------------------------------
    let sky_ids = [
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tab2",
    ];
    if sky_ids.iter().any(|id| wants(e, id, "skyserver")) {
        let mut cfg = SkyConfig::default();
        if opts.quick {
            cfg = cfg.scaled_down(40);
        }
        if opts.scale > 1 {
            cfg = cfg.scaled_down(opts.scale);
        }
        eprintln!(
            "running SkyServer grid ({} ra values ≈ {} MB, {} queries, 12 runs)…",
            cfg.column_len,
            cfg.column_len * 8 / (1024 * 1024),
            cfg.query_count
        );
        let r: SkyServerResults = run_skyserver(&cfg);
        if wants(e, "fig10", "skyserver") {
            em.table(&r.fig10());
        }
        for (id, fig) in [
            ("fig11", r.fig11()),
            ("fig12", r.fig12()),
            ("fig13", r.fig13()),
            ("fig14", r.fig14()),
            ("fig15", r.fig15()),
            ("fig16", r.fig16()),
        ] {
            if wants(e, id, "skyserver") {
                em.figure(&fig);
            }
        }
        if wants(e, "tab2", "skyserver") {
            em.table(&r.tab2());
        }
        // Narrative diagnostics matching the paper's Section 6.2 prose.
        if e == "all" || e == "skyserver" {
            for load in SkyLoad::ALL {
                for scheme in [SkyScheme::Gd, SkyScheme::Apm1_25, SkyScheme::Apm1_5] {
                    if let Some(n) = r.amortization_point(load, scheme) {
                        println!(
                            "amortization: {} on {} overtakes NoSegm after {} queries",
                            scheme.name(),
                            load.name(),
                            n
                        );
                    }
                }
            }
            println!();
        }
    }

    // ---- Ablations --------------------------------------------------------
    if [
        "ablation-cracking",
        "ablation-apm",
        "ablation-merge",
        "ablation-buffer",
        "ablation-budget",
        "ablation-auto-apm",
        "ablation-estimator",
        "ablation-placement",
        "ablation-sharding",
        "ablation-sql-strategy",
    ]
    .iter()
    .any(|id| wants(e, id, "ablation"))
    {
        let cfg = if opts.quick {
            SimConfig {
                column_len: 20_000,
                query_count: 1_000,
                ..SimConfig::default()
            }
        } else {
            SimConfig {
                query_count: 5_000,
                ..SimConfig::default()
            }
        };
        if wants(e, "ablation-cracking", "ablation") {
            em.table(&ablation::cracking_comparison(&cfg));
        }
        if wants(e, "ablation-apm", "ablation") {
            em.table(&ablation::apm_bound_sweep(&cfg));
        }
        if wants(e, "ablation-merge", "ablation") {
            em.table(&ablation::merge_ablation(&cfg));
        }
        if wants(e, "ablation-buffer", "ablation") {
            em.table(&ablation::buffer_ablation(&cfg));
        }
        if wants(e, "ablation-budget", "ablation") {
            em.table(&ablation::budget_ablation(&cfg));
        }
        if wants(e, "ablation-auto-apm", "ablation") {
            em.table(&ablation::auto_apm_ablation(&cfg));
        }
        if wants(e, "ablation-estimator", "ablation") {
            em.table(&ablation::estimator_ablation(&cfg));
        }
        if wants(e, "ablation-placement", "ablation") {
            em.table(&ablation::placement_ablation(&cfg, 8));
        }
        if wants(e, "ablation-sharding", "ablation") {
            em.table(&ablation::sharding_ablation(&cfg, 8));
        }
        if wants(e, "ablation-sql-strategy", "ablation") {
            em.table(&ablation::sql_strategy_ablation(&cfg));
        }
    }

    if em.written.is_empty() {
        eprintln!(
            "error: no experiment matched {e:?}; try fig2, fig5..fig16, tab1, tab2, \
             simulation, skyserver, ablation-*, or all"
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {} CSV file(s) under {}",
        em.written.len(),
        opts.out.display()
    );
    ExitCode::SUCCESS
}
