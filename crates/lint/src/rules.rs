//! The project rules. Each rule walks one prepared [`SourceFile`] and
//! appends findings; pragma waiving happens in [`crate::check_file`].
//!
//! The matchers are deliberately token-level (no parser): every heuristic
//! is documented here and in `README.md`, and each has a fixture under
//! `fixtures/` proving it fires.

use crate::{match_braces, Finding, SourceFile};

fn finding(file: &SourceFile, line: usize, rule: &str, message: String) -> Finding {
    Finding {
        rule: rule.to_owned(),
        file: file.rel.clone(),
        line: line + 1,
        message,
    }
}

/// Is this file on a library path of one of the panic-free crates?
fn l1_in_scope(rel: &str) -> bool {
    ["crates/core/src/", "crates/store/src/", "crates/mal/src/"]
        .iter()
        .any(|p| rel.starts_with(p))
}

/// **L1 `panic-free`** — no `.unwrap()`, `.expect("…")`, or `panic!(` on
/// non-test paths in `soc-core`, `soc-store`, `soc-mal`.
///
/// `.expect(` is only matched when its first argument is a string
/// literal, so the MAL parser's own `self.expect(&Tok::…)` method does
/// not trip the rule.
pub fn l1_panic_free(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "L1-panic-free";
    if !l1_in_scope(&file.rel) {
        return;
    }
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for (token, what) in [
            (".unwrap()", "unwrap() on a library path"),
            (".expect(\"", "expect() on a library path"),
            ("panic!(", "panic!() on a library path"),
        ] {
            if line.contains(token) {
                out.push(finding(
                    file,
                    i,
                    RULE,
                    format!("{what}: return a typed error or justify with a pragma"),
                ));
            }
        }
    }
}

/// The marker comment an impl must carry (verbatim, in a comment within
/// the eight lines above the `impl` line).
pub const CONTRACT_MARKER: &str = "contract: ColumnStrategy thread-safety";

/// **L2 `strategy-contract`** — every `impl … ColumnStrategy<…> for …`
/// block carries the documented thread-safety contract marker, tying the
/// impl to the trait's documented rules (mutating selects take
/// `&mut self`; `&self` methods are pure reads with no interior
/// mutability).
pub fn l2_strategy_contract(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "L2-strategy-contract";
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let is_impl = line.trim_start().starts_with("impl")
            && line.contains("ColumnStrategy<")
            && line.contains(" for ");
        if !is_impl {
            continue;
        }
        let lookback = i.saturating_sub(8)..i;
        let marked = file.raw_lines[lookback]
            .iter()
            .any(|l| l.contains(CONTRACT_MARKER));
        if !marked {
            out.push(finding(
                file,
                i,
                RULE,
                format!(
                    "ColumnStrategy impl without the thread-safety contract marker — \
                     add a `// {CONTRACT_MARKER}: …` comment above the impl"
                ),
            ));
        }
    }
}

/// Tokens that prove a `segment_bytes` body reads stored/encoded sizes
/// instead of recomputing them from tuple counts (the PR-6 drift bug).
const L3_SANCTIONED: [&str; 4] = [
    "raw_piece_bytes",
    ".bytes()",
    ".segment_bytes()",
    "covering_partition()",
];

/// **L3 `segment-bytes-route`** — a `fn segment_bytes` body must route
/// through a sanctioned byte accessor (`raw_piece_bytes`, a stored
/// `.bytes()`, delegation, or the covering partition); ad-hoc width
/// arithmetic drifts from the encoded footprint.
pub fn l3_segment_bytes_route(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "L3-segment-bytes-route";
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] || !line.contains("fn segment_bytes") {
            continue;
        }
        // The trait's own declaration has no body to check.
        let Some(col) = line.find("fn segment_bytes") else {
            continue;
        };
        if line[col..].contains(';') {
            continue;
        }
        let Some((open, close)) = match_braces(&file.code_lines, i, col) else {
            continue;
        };
        let body = file.code_lines[open..=close].join("\n");
        if !L3_SANCTIONED.iter().any(|t| body.contains(t)) {
            out.push(finding(
                file,
                i,
                RULE,
                "segment_bytes does not route through a sanctioned byte accessor \
                 (raw_piece_bytes / .bytes() / delegation / covering_partition)"
                    .to_owned(),
            ));
        }
    }
}

/// **L4 `lock-across-send`** — in `epoch.rs` and `shard.rs`, a named
/// lock-guard binding (`let g = ….lock()/.read()/.write()`) must not be
/// live across a `send(`/`spawn(` call: the receiver may need the same
/// lock, which deadlocks, and at best serializes the channel under the
/// guard. Statement-scoped temporaries do not bind a guard and are fine.
pub fn l4_lock_across_send(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "L4-lock-across-send";
    let name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
    if name != "epoch.rs" && name != "shard.rs" {
        return;
    }
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let trimmed = line.trim_start();
        if !trimmed.starts_with("let ") {
            continue;
        }
        if ![".lock()", ".read()", ".write()"]
            .iter()
            .any(|t| line.contains(t))
        {
            continue;
        }
        let after_let = trimmed["let ".len()..].trim_start();
        let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
        let ident: String = after_let
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() || ident == "_" {
            continue;
        }
        // Walk the rest of the guard's scope: stop at `drop(ident)` or
        // when the brace depth falls below the binding's.
        let mut depth = 0i32;
        'scope: for (l, scan) in file.code_lines.iter().enumerate().skip(i) {
            let text = if l == i {
                // Start after the binding statement itself.
                let pos = scan.find(" = ").map_or(0, |p| p + 3);
                &scan[pos..]
            } else {
                scan.as_str()
            };
            if l > i {
                if text.contains(&format!("drop({ident})")) {
                    break 'scope;
                }
                if text.contains(".send(") || text.contains("spawn(") {
                    out.push(finding(
                        file,
                        l,
                        RULE,
                        format!(
                            "`{ident}` (lock guard bound on line {}) is still live across \
                             this send/spawn — drop the guard first",
                            i + 1
                        ),
                    ));
                    break 'scope;
                }
            }
            for c in text.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth < 0 {
                            break 'scope;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Kernel-scan entry points that read segment payloads (the merge-on-read
/// kernels walk delta-run payloads, which are reads all the same).
const L5_KERNELS: [&str; 11] = [
    "kernels::count_range",
    "kernels::collect_range",
    "kernels::count_partition",
    "kernels::sorted_run",
    "kernels::select_count",
    "kernels::merge_sorted",
    "kernels::sum_sorted_run",
    "kernels::scan_fill",
    "kernels::partition_into",
    "kernels::subtract_sorted",
    "kernels::delta_count",
];

/// Payload scan methods that read segment bytes.
const L5_PAYLOAD_SCANS: [&str; 2] = [".count_in(", ".collect_in("];

/// **L5 `scan-accounting`** — a function that takes an `AccessTracker`
/// parameter and calls a scan kernel (or a payload scan method) must
/// charge the tracker (`.scan(`) or forward it; a kernel call with the
/// tracker ignored is exactly the unaccounted-read bug class the paper's
/// byte figures cannot tolerate.
///
/// Pruning sub-check: a match arm on a `Skip` event must not charge
/// `.scan(`. A pruned piece was skipped precisely because it was never
/// read; replaying its bytes as a scan silently double-counts them (the
/// unpruned cost is reconstructed as `read + pruned`, so a skip turned
/// scan inflates both sides).
///
/// Delta sub-check: a match arm on a `DeltaScan` event must not charge
/// `.scan(`. A delta-run read is charged exactly once, through
/// `.delta_scan(` — replaying it as a base-piece scan folds overlay
/// bytes into the base-scan attribution and corrupts the pruned-vs-
/// unpruned split the paper's byte figures are reconstructed from.
pub fn l5_scan_accounting(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "L5-scan-accounting";
    if !file.rel.starts_with("crates/core/src/") && !file.rel.starts_with("crates/sim/src/") {
        return;
    }
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] || !line.contains("fn ") {
            continue;
        }
        let Some(col) = line.find("fn ") else {
            continue;
        };
        // Signature: from `fn` to the body's `{` (may span lines).
        let mut sig = String::new();
        let mut sig_end = i;
        let mut brace_col = None;
        'sig: for (l, s) in file.code_lines.iter().enumerate().skip(i) {
            let text = if l == i { &s[col..] } else { s.as_str() };
            if let Some(b) = text.find('{') {
                sig.push_str(&text[..b]);
                sig_end = l;
                brace_col = Some(if l == i { col + b } else { b });
                break 'sig;
            }
            if text.contains(';') {
                // A trait method declaration — no body.
                sig.clear();
                break 'sig;
            }
            sig.push_str(text);
            sig.push('\n');
            sig_end = l;
        }
        let Some(brace_col) = brace_col else { continue };
        if !sig.contains("tracker") {
            continue;
        }
        let Some((open, close)) = match_braces(&file.code_lines, sig_end, brace_col) else {
            continue;
        };
        // The body starts AT the opening brace: a single-line signature
        // would otherwise leak its own `tracker` parameter into the body
        // text and mask every finding.
        let mut body = String::new();
        for (l, s) in file
            .code_lines
            .iter()
            .enumerate()
            .take(close + 1)
            .skip(open)
        {
            body.push_str(if l == open { &s[brace_col..] } else { s });
            body.push('\n');
        }
        let scans = L5_KERNELS.iter().any(|k| body.contains(k))
            || L5_PAYLOAD_SCANS.iter().any(|k| body.contains(k));
        if scans && !body.contains(".scan(") && !body.contains("tracker") {
            out.push(finding(
                file,
                i,
                RULE,
                "kernel scan in a tracker-taking function without a tracker charge \
                 (.scan) or forwarding — reads must be accounted"
                    .to_owned(),
            ));
        }
    }
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let Some(arrow) = line.find("=>") else {
            continue;
        };
        let pattern = &line[..arrow];
        let message = if pattern.contains("Skip") {
            "a Skip-event arm charges .scan( — a pruned piece was never read; \
             replay it with .skip or leave it unaccounted"
        } else if pattern.contains("DeltaScan") {
            "a DeltaScan-event arm charges .scan( — a delta-run read is charged \
             exactly once, through .delta_scan; replaying it as a base scan \
             corrupts the pruned-vs-unpruned split"
        } else {
            continue;
        };
        // `.delta_scan(` does not substring-match `.scan(`, so a correct
        // replay arm stays quiet under both sub-checks.
        let after = &line[arrow + 2..];
        let charges_scan = match after.find('{') {
            // A block arm: check the whole arm body.
            Some(b) => {
                match_braces(&file.code_lines, i, arrow + 2 + b).is_some_and(|(open, close)| {
                    file.code_lines[open..=close].join("\n").contains(".scan(")
                })
            }
            None => after.contains(".scan("),
        };
        if charges_scan {
            out.push(finding(file, i, RULE, message.to_owned()));
        }
    }
}

/// **L6 `bounded-queues`** — no unbounded `mpsc::channel()` on serving
/// paths (`epoch.rs`, `shard.rs`).
///
/// An unbounded producer queue turns overload into unbounded memory
/// growth and latency instead of backpressure. Serving-path modules must
/// use `mpsc::sync_channel` (bounded, applies backpressure or sheds) or
/// carry a written justification for why the queue's depth is bounded by
/// construction.
pub fn l6_bounded_queues(file: &SourceFile, out: &mut Vec<Finding>) {
    const RULE: &str = "L6-bounded-queues";
    let name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
    if name != "epoch.rs" && name != "shard.rs" {
        return;
    }
    for (i, line) in file.code_lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        if !line.contains("mpsc::channel(") && !line.contains("mpsc::channel::<") {
            continue;
        }
        out.push(finding(
            file,
            i,
            RULE,
            "unbounded mpsc::channel() on a serving path — use \
             mpsc::sync_channel (backpressure) or justify the bound with \
             `soc-lint: allow(L6-bounded-queues, <why the depth is bounded>)`"
                .to_owned(),
        ));
    }
}
