//! The paper's currency does not move: a golden table of byte counts,
//! segment counts, storage, adaptation counters and per-query answers for
//! all nine strategy kinds under the three SkyServer loads (Section 6.2).
//! The four self-organizing kinds were recorded on the commit *before* the
//! scan kernels were rewritten (ISSUE 15), the other five on the last
//! commit that still had the scan-accounting lint (ISSUE 22). A kernel
//! change may move the wall clock; it must not change a single split,
//! replica or drop decision, nor drop, double or mis-class a tracker call.
//!
//! The workload is the benchmark harness's (`bench/src/sky_adapt.rs`):
//! `streams(40)` on `skyserver_ra(60_000, 7)`. Run it in debug and with
//! `--release` — the table is the same in both.

use socdb::prelude::*;

/// `bench/src/common.rs`: the seed of the three fixed query logs.
const LOG_SEED: u64 = 2008;
const SELECTIVITY: f64 = 0.002;
const PER_CELL: usize = 40;

/// `bench/src/common.rs::derive` (splitmix64 of seed and stream number).
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const LOADS: [&str; 3] = ["random", "skew", "changing"];

fn streams() -> [Vec<ValueRange<OrdF64>>; 3] {
    let domain = skyserver_domain();
    [
        WorkloadSpec::pooled_uniform(SELECTIVITY, 400, PER_CELL, derive(LOG_SEED, 1)),
        WorkloadSpec::skewed_two_areas(SELECTIVITY, PER_CELL, derive(LOG_SEED, 2)),
        WorkloadSpec::changing_four_points(SELECTIVITY, PER_CELL, derive(LOG_SEED, 3)),
    ]
    .map(|spec| spec.generate(&domain))
}

const KINDS: [(StrategyKind, &str); 9] = [
    (StrategyKind::GdSegm, "gd_segm"),
    (StrategyKind::ApmSegm, "apm_segm"),
    (StrategyKind::GdRepl, "gd_repl"),
    (StrategyKind::ApmRepl, "apm_repl"),
    (StrategyKind::NoSegm, "nosegm"),
    (StrategyKind::FullSort, "fullsort"),
    (StrategyKind::Cracking, "cracking"),
    (StrategyKind::AutoApmSegm, "auto_apm_segm"),
    (StrategyKind::GdSegmMerged, "gd_segm_merged"),
];

/// `kind/load read write segments storage splits replicas drops`, one line
/// per cell, then `load: counts…`, one line per load.
const GOLDEN: &str = "\
gd_segm/random 4139088 1438648 13 480000 6 0 0
gd_segm/skew 3000160 1898736 17 480000 9 0 0
gd_segm/changing 4600192 2930312 24 480000 12 0 0
apm_segm/random 2779088 2702096 33 480000 32 0 0
apm_segm/skew 2375344 2123024 21 480000 19 0 0
apm_segm/changing 2655936 2529376 22 480000 21 0 0
gd_repl/random 7722432 580040 13 580040 0 13 5
gd_repl/skew 7212984 850224 16 846744 0 18 6
gd_repl/changing 8844768 710560 24 857360 0 25 4
apm_repl/random 5089352 844224 34 1324224 0 33 0
apm_repl/skew 3992208 327568 14 783496 0 15 3
apm_repl/changing 7337048 359600 22 839600 0 21 0
nosegm/random 19200000 0 1 480000 0 0 0
nosegm/skew 19200000 0 1 480000 0 0 0
nosegm/changing 19200000 0 1 480000 0 0 0
fullsort/random 519128 480000 1 480000 0 0 0
fullsort/skew 555896 480000 1 480000 0 0 0
fullsort/changing 508880 480000 1 480000 0 0 0
cracking/random 4399168 6255600 73 480000 72 0 0
cracking/skew 3216200 3671872 81 480000 80 0 0
cracking/changing 6728096 10967984 81 480000 80 0 0
auto_apm_segm/random 2780536 2777896 72 480000 36 0 0
auto_apm_segm/skew 2270464 2238152 52 480000 42 0 0
auto_apm_segm/changing 3912832 3901680 59 480000 41 0 0
gd_segm_merged/random 4139088 1438648 13 480000 6 0 0
gd_segm_merged/skew 3007952 1897960 13 480000 8 0 0
gd_segm_merged/changing 5141832 2948600 13 480000 12 0 0
random: 70 75 85 71 82 69 155 81 75 98 79 89 72 91 75 81 85 80 480 81 73 490 82 525 75 77 69 80 72 87 73 79 85 82 85 81 58 79 77 488
skew: 77 75 94 90 499 73 507 62 240 74 477 82 75 484 66 290 539 84 495 61 94 83 78 503 79 73 485 504 536 74 172 81 455 480 86 66 80 476 84 554
changing: 96 77 72 93 89 96 81 86 66 81 80 86 85 85 92 77 67 497 87 77 74 78 81 70 92 78 67 69 76 79 77 85 68 81 82 70 79 68 75 91
";

#[test]
fn reorganizing_scans_leave_the_papers_numbers_untouched() {
    let domain = skyserver_domain();
    let values = skyserver_ra(60_000, 7);
    let queries = streams();

    let mut table = String::new();
    let mut counts: [Vec<u64>; 3] = Default::default();
    for (kind, kind_name) in KINDS {
        for (l, stream) in queries.iter().enumerate() {
            let mut strategy = StrategySpec::new(kind)
                .build(domain, values.clone())
                .expect("generated values lie inside the ra domain");
            let mut tracker = CountingTracker::new();
            let got: Vec<u64> = stream
                .iter()
                .map(|q| {
                    tracker.begin_query();
                    strategy.select_count(q, &mut tracker)
                })
                .collect();
            if counts[l].is_empty() {
                counts[l] = got;
            } else {
                assert_eq!(got, counts[l], "{kind_name}/{} answers", LOADS[l]);
            }
            let (t, a) = (tracker.totals(), strategy.adaptation());
            table.push_str(&format!(
                "{kind_name}/{} {} {} {} {} {} {} {}\n",
                LOADS[l],
                t.read_bytes,
                t.write_bytes,
                strategy.segment_count(),
                strategy.storage_bytes(),
                a.splits,
                a.replicas_created,
                a.drops,
            ));
        }
    }
    for (l, c) in counts.iter().enumerate() {
        let c: Vec<String> = c.iter().map(u64::to_string).collect();
        table.push_str(&format!("{}: {}\n", LOADS[l], c.join(" ")));
    }
    assert_eq!(table, GOLDEN, "actual table:\n{table}");
}
