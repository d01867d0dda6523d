//! The benchmark's metric registry: every name a run may print, with its
//! unit, direction and (for end-to-end metrics) regression bound. It is the
//! in-code twin of `BENCHMARK.json`; a unit test keeps the two equal.

use std::collections::BTreeMap;

/// The four workloads, in the order `socbench run` executes them.
pub const WORKLOADS: [&str; 4] = ["sky_adapt", "serve_read", "serve_mixed", "sql_session"];

/// Strategy kinds × query loads of the `sky_adapt` matrix.
pub const SKY_KINDS: [&str; 4] = ["gd_segm", "apm_segm", "gd_repl", "apm_repl"];
pub const SKY_LOADS: [&str; 3] = ["random", "skew", "changing"];

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: printed by an untraced run of every workload.
pub fn end_to_end() -> Vec<Def> {
    let e = |name: &str, unit, better, bound| Def {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        e("setup_s", "s", "lower", 0.25),
        e("ops_per_s", "1/s", "higher", 0.25),
        e("read_p50_us", "us", "lower", 0.25),
        e("read_p95_us", "us", "lower", 0.25),
        e("read_bytes_per_op", "B", "lower", 0.25),
        e("peak_rss_mb", "MB", "lower", 0.25),
    ]
}

/// Per-layer metrics: printed by a traced run. A layer the workload never
/// enters reports 0 for its metrics.
pub fn per_layer() -> Vec<Def> {
    let mut v = Vec::new();
    let mut add = |name: &str, unit, better| v.push(def(name, unit, better));

    for k in ["count", "sum", "collect", "merge_sorted"] {
        add(&format!("kernels.{k}_ns_per_elem"), "ns", "lower");
    }
    add("kernels.sorted_run_ns", "ns", "lower");
    add("kernels.delta_count_ns_per_row", "ns", "lower");

    for c in ["rle", "for", "dict"] {
        add(&format!("compress.{c}_count_ns_per_elem"), "ns", "lower");
    }
    add("compress.best_ratio", "ratio", "higher");

    for kind in SKY_KINDS {
        for load in SKY_LOADS {
            add(&format!("strategy.{kind}.{load}.busy_s"), "s", "lower");
        }
    }
    for kind in SKY_KINDS {
        add(&format!("strategy.{kind}.read_bytes_per_op"), "B", "lower");
        add(
            &format!("strategy.{kind}.reorg_write_bytes_per_op"),
            "B",
            "lower",
        );
    }
    add("strategy.reorg_write_bytes_per_op", "B", "lower");
    add("strategy.build_s", "s", "lower");
    add("strategy.reorg_op_share", "ratio", "lower");
    add("strategy.reorg_time_share", "ratio", "lower");
    add("strategy.pieces_end", "count", "higher");
    add("strategy.storage_bytes_per_user_byte", "ratio", "lower");

    add("epoch.build_s", "s", "lower");
    for k in ["snapshot_acquire", "count", "sum", "collect", "hint"] {
        add(&format!("epoch.{k}_ns"), "ns", "lower");
    }
    add("epoch.epochs_per_s", "1/s", "higher");
    add("epoch.hints_dropped_share", "ratio", "lower");
    add("epoch.pieces", "count", "higher");
    add("epoch.resident_bytes_per_user_byte", "ratio", "lower");
    add("epoch.quiesce_ms", "ms", "lower");

    add("admission.overhead_ns", "ns", "lower");
    add("admission.shed_share", "ratio", "lower");

    add("delta.apply_p50_us", "us", "lower");
    add("delta.apply_p99_us", "us", "lower");
    add("delta.client_stall_share", "ratio", "lower");
    add("delta.pending_rows_max", "count", "lower");
    add("delta.pending_rows_end", "count", "lower");
    add("delta.runs_max", "count", "lower");
    add("delta.fold_bytes_per_row", "B", "lower");
    add("delta.read_slowdown", "ratio", "lower");
    add("delta.drain_ms", "ms", "lower");
    add("delta.read_bytes_per_op", "B", "lower");
    add("delta.peak_rss_mb", "MB", "lower");

    for k in ["compile", "optimize", "interp", "insert", "delete"] {
        add(&format!("mal.{k}_us"), "us", "lower");
    }
    add("mal.bytes_examined_per_result_byte", "ratio", "lower");
    add("mal.pieces_end", "count", "higher");
    add("mal.pending_rows_end", "count", "lower");
    add("mal.reorg_write_bytes_per_op", "B", "lower");

    add("store.save_ms", "ms", "lower");
    add("store.load_ms", "ms", "lower");
    add("store.bytes_per_user_byte", "ratio", "lower");

    add("client.read_p99_us", "us", "lower");
    add("client.read_max_us", "us", "lower");
    add("client.timer_ns", "ns", "lower");
    add("client.trace_overhead_share", "ratio", "lower");
    add("client.samples", "count", "higher");
    add("client.fail_rate", "ratio", "lower");
    v
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reads plus write batches plus checks).
    pub attempted: u64,
    /// Operations that errored, were shed, or disagreed with the oracle.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one attempted operation; `ok == false` also counts it failed
    /// and prints what went wrong (the first twenty times) with the seed and
    /// op index needed to replay it.
    pub fn check(&mut self, ok: bool, seed: u64, op: u64, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED op: seed={seed} op={op}: {}", what());
            }
        }
    }

    /// The metrics of `defs` in registry order, 0 for any the run did not
    /// produce.
    pub fn select(&self, defs: &[Def]) -> Vec<(String, f64, &'static str)> {
        defs.iter()
            .map(|d| (d.name.clone(), self.get(&d.name).unwrap_or(0.0), d.unit))
            .collect()
    }

    /// Names recorded that neither registry list knows.
    pub fn unknown_names(&self) -> Vec<String> {
        let known: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        self.values
            .keys()
            .filter(|k| !known.contains(k))
            .cloned()
            .collect()
    }

    /// Every recorded metric, by name.
    pub fn all(&self) -> &BTreeMap<String, f64> {
        &self.values
    }
}

/// The unit of metric `name` (either list).
pub fn unit_of(name: &str) -> &'static str {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// The one-line JSON result the benchmark contract asks for.
pub fn result_line(out: &Outcome, defs: &[Def]) -> String {
    let metrics: Vec<String> = out
        .select(defs)
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::quote(&name),
                fmt_num(value),
                crate::json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with all the digits measured.
pub fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut out = Outcome::default();
        out.check(true, 7, 0, String::new);
        out.put("setup_s", 0.8127);
        let v = json::parse(&result_line(&out, &end_to_end())).unwrap();
        let keys: Vec<&String> = v.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), end_to_end().len());
        assert_eq!(
            m["setup_s"].get("value").and_then(Json::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            m["ops_per_s"].get("unit").and_then(Json::as_str),
            Some("1/s")
        );
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// registry: names, units, directions, bounds and workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<Def> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| Def {
                    name: m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    unit: unit_of(m.get("name").and_then(Json::as_str).unwrap()),
                    better: match m.get("better").and_then(Json::as_str).unwrap() {
                        "lower" => "lower",
                        _ => "higher",
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), end_to_end());
        assert_eq!(listed("per_layer"), per_layer());
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            for (m, d) in v.get(key).and_then(Json::as_arr).unwrap().iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            }
        }
        let names: Vec<&str> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            v.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("bench".into())]
        );
    }
}
