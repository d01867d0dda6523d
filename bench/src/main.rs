//! `socbench` — the repository's benchmark: four workloads driven through
//! `socdb`'s public API, timed from outside the engine.
//!
//! ```text
//! socbench run    [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! socbench repeat --runs N [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints every
//! metric by name with its unit, then one JSON object on the last line.
//! Without `--workload` it runs all four, each in a process of its own so
//! that `peak_rss_mb` is that workload's. See `bench/README.md`.

mod common;
mod hist;
mod json;
mod metrics;
mod pace;
mod probes;
mod repeat;
mod serve;
mod sky_adapt;
mod sql_session;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Cfg, DEFAULT_SECONDS, DEFAULT_SEED};
use metrics::{Outcome, WORKLOADS};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
}

const USAGE: &str = "usage: socbench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
       socbench repeat --runs N [--workload W] [--seed N] [--seconds S]
workloads: sky_adapt serve_read serve_mixed sql_session";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().ok_or("missing command")?,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 10,
    };
    if !["run", "repeat"].contains(&args.command.as_str()) {
        return Err(format!("unknown command {:?}", args.command));
    }
    let mut it = argv[1..].iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = s;
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` is also accepted.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `bench/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the trace of a traced run and prints where the time went.
pub fn write_trace(tracer: &trace::Tracer, cfg: &Cfg, workload: &str) {
    let path = cfg.out_dir.join(format!("trace-{workload}.json"));
    match tracer.write_json(&path, workload, cfg.seed) {
        Ok(()) => println!("trace: {} spans -> {}", tracer.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!(
        "{:<28} {:>9} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<28} {:>9} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Runs one workload in this process.
fn run_one(workload: &str, args: &Args) -> Outcome {
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    match workload {
        "sky_adapt" => sky_adapt::run(&cfg),
        "serve_read" => serve::run(&cfg, false),
        "serve_mixed" => serve::run(&cfg, true),
        "sql_session" => sql_session::run(&cfg),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// Prints every metric the run produced, then the contract's result line.
fn report(workload: &str, args: &Args, out: &Outcome) {
    let unknown = out.unknown_names();
    assert!(
        unknown.is_empty(),
        "metrics missing from the registry: {unknown:?}"
    );
    println!(
        "workload={workload} seed={} seconds={} trace={} cores={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for (name, value) in out.all() {
        println!("{name:<44} {value:>18.4} {}", metrics::unit_of(name));
    }
    println!(
        "{:<44} {:>18.6} ratio   ({} failed of {} attempted)",
        "fail_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let defs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!("{}", metrics::result_line(out, &defs));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("socbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), &args.workload) {
        ("run", Some(w)) => {
            let out = run_one(w, &args);
            report(w, &args, &out);
            ExitCode::SUCCESS
        }
        ("run", None) => repeat::run_all(&args),
        _ => repeat::repeat(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form_and_the_short_form() {
        let a = parse_args(&argv(
            "run --workload serve_read --seed 9 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_read"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, false));
        let a = parse_args(&argv("run --workload sky_adapt --trace 1")).unwrap();
        assert!(a.trace);
        let a = parse_args(&argv("run --trace --workload sky_adapt")).unwrap();
        assert!(a.trace && a.workload.is_some());
        let a = parse_args(&argv("repeat --runs 4")).unwrap();
        assert_eq!(
            (a.command.as_str(), a.runs, a.seed),
            ("repeat", 4, DEFAULT_SEED)
        );
        assert_eq!(a.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse_args(&argv("run --workload nope")).is_err());
        assert!(parse_args(&argv("fly")).is_err());
        assert!(parse_args(&argv("run --seconds 0")).is_err());
        assert!(parse_args(&argv("run --seed")).is_err());
        assert!(parse_args(&argv("repeat --runs 1")).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
