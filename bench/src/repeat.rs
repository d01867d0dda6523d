//! `socbench run` without a workload, and `socbench repeat`: both run
//! workloads as child processes of this same binary (one process per
//! workload run, so memory figures are that run's own) and read back the
//! result line each prints last.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::metrics::{self, Def, WORKLOADS};
use crate::{stats, Args};

/// What a child run reported.
struct RunResult {
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

fn parse_result(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let v = json::parse(line).map_err(|e| format!("last line is not a result: {e}"))?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result line lacks {key:?}"))
    };
    let values = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line lacks \"metrics\"")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        values,
    })
}

/// Runs one workload in a child process; `echo` passes its report through.
fn child(workload: &str, args: &Args, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    parse_result(&stdout)
}

/// `socbench run` with no `--workload`: all four, one process each.
pub fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        match child(w, args, true) {
            Ok(r) => ok &= r.failed == 0,
            Err(e) => {
                eprintln!("socbench: {e}");
                ok = false;
            }
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How far two medians of one metric are apart, as a share of the better
/// one: the regression the worse half would show against the other.
fn half_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

/// Summary of one metric over the runs; `true` when its interleaved halves
/// agree within the bound.
fn summarize(def: &Def, values: &[f64]) -> bool {
    let half = |first: usize| {
        let runs: Vec<f64> = values.iter().skip(first).step_by(2).copied().collect();
        stats::median(&runs)
    };
    let (m_even, m_odd) = (half(0), half(1));
    let gap = half_gap(m_even, m_odd);
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let ok = gap <= bound;
    let [q1, _, q3] = stats::quartiles(values).unwrap_or([0.0; 3]);
    println!(
        "  {:<20} median {:>14.4} {:<4} q1 {:>14.4} q3 {:>14.4} iqr/median {:>6.2}%  halves {:>14.4} | {:<14.4} gap {:>6.2}% (bound {:.0}%) {}",
        def.name,
        stats::median(values),
        def.unit,
        q1,
        q3,
        stats::iqr_share(values) * 100.0,
        m_even,
        m_odd,
        gap * 100.0,
        bound * 100.0,
        if ok { "ok" } else { "EXCEEDED" }
    );
    ok
}

/// `socbench repeat`: N untraced runs per workload at one seed; non-zero
/// exit when two interleaved halves of the same code disagree by more than
/// a metric's bound, or any op failed.
pub fn repeat(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    let defs = metrics::end_to_end();
    let mut ok = true;
    for w in workloads {
        println!(
            "{w}: {} runs, seed {}, {} s each",
            args.runs, args.seed, args.seconds
        );
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
        for run in 0..args.runs {
            match child(w, &untraced, false) {
                Ok(r) => {
                    if r.failed > 0 {
                        eprintln!("  run {run}: {} of {} ops failed", r.failed, r.attempted);
                        ok = false;
                    }
                    let mut line = format!("  run {run:>2}:");
                    for (d, col) in defs.iter().zip(&mut columns) {
                        let v = r
                            .values
                            .iter()
                            .find(|(k, _)| *k == d.name)
                            .map_or(0.0, |(_, v)| *v);
                        col.push(v);
                        line.push_str(&format!(" {}={v:.4}", d.name));
                    }
                    println!("{line}");
                }
                Err(e) => {
                    eprintln!("  run {run}: {e}");
                    ok = false;
                }
            }
        }
        for (d, col) in defs.iter().zip(&columns) {
            if col.len() >= 2 {
                ok &= summarize(d, col);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_last_line_of_a_report() {
        let stdout = "workload=x\nsetup_s  0.5 s\n{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n\n";
        let r = parse_result(stdout).unwrap();
        assert_eq!((r.attempted, r.failed), (12, 1));
        assert_eq!(r.values, [("setup_s".to_string(), 0.5)]);
        assert!(parse_result("no json here\n").is_err());
        assert!(parse_result("").is_err());
    }

    #[test]
    fn halves_that_agree_pass_and_halves_that_drift_fail() {
        let def = Def {
            name: "read_p50_us".into(),
            unit: "us",
            better: "lower",
            bound: Some(0.10),
        };
        // Interleaved halves: evens ~1.00, odds ~1.03 → 3 % apart.
        assert!(summarize(&def, &[1.00, 1.03, 1.01, 1.04, 0.99, 1.02]));
        // Odds 20 % slower → exceeds the 10 % bound.
        assert!(!summarize(&def, &[1.00, 1.20, 1.01, 1.21, 0.99, 1.19]));
        assert_eq!(half_gap(2.0, 2.0), 0.0);
        assert!((half_gap(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((half_gap(1.1, 1.0) - 0.1).abs() < 1e-12);
    }
}
