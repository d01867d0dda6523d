//! Fixture-driven proof that every rule fires (and stays quiet on
//! compliant code), plus a full-workspace scan that must come back clean
//! — the same gate CI runs.

use soc_lint::{check_file, Report, SourceFile};

/// Scans one fixture under a chosen rel path.
fn scan(rel: &str, text: &str) -> Report {
    let file = SourceFile::prepare(rel.to_owned(), text);
    let mut report = Report::default();
    check_file(&file, &mut report);
    report.files_scanned = 1;
    report
}

fn rules_hit(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn l1_fixture_fires_once_per_token_class() {
    let report = scan(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/l1_violation.rs"),
    );
    assert_eq!(rules_hit(&report), ["L1-panic-free"; 3], "{report:?}");
    // The unwrap inside #[cfg(test)] is exempt: exactly three findings.
    assert!(report.waived.is_empty());
}

#[test]
fn l1_is_scoped_to_the_panic_free_crates() {
    let report = scan(
        "crates/sim/src/fixture.rs",
        include_str!("../fixtures/l1_violation.rs"),
    );
    assert!(
        report.findings.is_empty(),
        "sim is outside L1 scope: {report:?}"
    );
}

#[test]
fn l2_fixture_fires_on_unmarked_impl() {
    let report = scan(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/l2_violation.rs"),
    );
    assert_eq!(rules_hit(&report), ["L2-strategy-contract"], "{report:?}");
}

#[test]
fn l3_fixture_fires_on_recomputed_bytes() {
    let report = scan(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/l3_violation.rs"),
    );
    assert_eq!(rules_hit(&report), ["L3-segment-bytes-route"], "{report:?}");
}

#[test]
fn l4_fixture_fires_on_guard_across_send() {
    let report = scan(
        "crates/core/src/epoch.rs",
        include_str!("../fixtures/l4_violation.rs"),
    );
    assert_eq!(rules_hit(&report), ["L4-lock-across-send"], "{report:?}");
}

#[test]
fn l4_only_watches_the_concurrent_modules() {
    let report = scan(
        "crates/core/src/other.rs",
        include_str!("../fixtures/l4_violation.rs"),
    );
    assert!(report.findings.is_empty(), "{report:?}");
}

#[test]
fn l5_fixture_fires_on_unaccounted_kernel_scan() {
    let report = scan(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/l5_violation.rs"),
    );
    assert_eq!(rules_hit(&report), ["L5-scan-accounting"; 4], "{report:?}");
}

#[test]
fn l5_skip_fixture_fires_on_both_arm_shapes() {
    let report = scan(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/l5_skip_violation.rs"),
    );
    // Two Skip arms and two DeltaScan arms, each in expression and block shape.
    assert_eq!(rules_hit(&report), ["L5-scan-accounting"; 4], "{report:?}");
}

#[test]
fn l6_fixture_fires_on_both_channel_forms() {
    let report = scan(
        "crates/core/src/epoch.rs",
        include_str!("../fixtures/l6_violation.rs"),
    );
    assert_eq!(rules_hit(&report), ["L6-bounded-queues"; 2], "{report:?}");
}

#[test]
fn l6_only_watches_the_serving_modules() {
    let report = scan(
        "crates/core/src/other.rs",
        include_str!("../fixtures/l6_violation.rs"),
    );
    assert!(report.findings.is_empty(), "{report:?}");
}

#[test]
fn l6_justified_pragma_waives_the_unbounded_channel() {
    let src = "fn start() {\n\
               \x20   // soc-lint: allow(L6-bounded-queues, one in-flight task per caller bounds the depth)\n\
               \x20   let (tx, rx) = mpsc::channel::<Cmd>();\n\
               }\n";
    let report = scan("crates/sim/src/shard.rs", src);
    assert!(report.findings.is_empty(), "{report:?}");
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].rule, "L6-bounded-queues");
}

#[test]
fn clean_fixture_passes_every_rule() {
    let report = scan(
        "crates/core/src/epoch.rs",
        include_str!("../fixtures/clean.rs"),
    );
    assert!(report.findings.is_empty(), "{report:?}");
    // The one pragma'd unwrap shows up as a waiver, not a finding.
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.waived[0].rule, "L1-panic-free");
}

#[test]
fn reasonless_pragma_is_itself_a_finding() {
    let src = "// soc-lint: allow(L1-panic-free, )\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let report = scan("crates/core/src/fixture.rs", src);
    assert_eq!(rules_hit(&report), ["pragma"], "{report:?}");
}

#[test]
fn unknown_rule_pragma_is_a_finding() {
    let src = "// soc-lint: allow(L9-imaginary, because)\nfn f() {}\n";
    let report = scan("crates/core/src/fixture.rs", src);
    assert_eq!(rules_hit(&report), ["pragma"], "{report:?}");
}

#[test]
fn workspace_scan_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = soc_lint::run(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{}",
        report.render()
    );
}

#[test]
fn binary_exits_nonzero_on_violations_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("soc-lint-test-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("crates/core/src")).expect("mkdir");
    std::fs::write(
        dir.join("crates/core/src/lib.rs"),
        include_str!("../fixtures/l1_violation.rs"),
    )
    .expect("write fixture");
    let json_path = dir.join("findings.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .args(["--root"])
        .arg(&dir)
        .arg("--json")
        .arg(&json_path)
        .arg("--quiet")
        .output()
        .expect("run soc-lint");
    assert_eq!(out.status.code(), Some(1), "stderr: {:?}", out.stderr);
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"violation_count\": 3"), "{json}");
    assert!(json.contains("L1-panic-free"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_exits_zero_on_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soc-lint"))
        .args(["--root"])
        .arg(&root)
        .arg("--quiet")
        .output()
        .expect("run soc-lint");
    assert!(out.status.success(), "stdout: {:?}", out.stdout);
}
