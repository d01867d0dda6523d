//! The paper's evaluation claims, asserted at test scale.
//!
//! Each test encodes one qualitative result of Section 6 — the shapes
//! `repro --experiment all` generates at full scale (PAPER.md's Section 6
//! paragraph states them). Tests use reduced configurations so the suite
//! stays fast.

use socdb::adaptive::StrategyKind;
use socdb::sim::experiment::simulation::{
    run_sim_cell, run_simulation_matrix, SimConfig, SimDistribution,
};
use socdb::sim::experiment::skyserver::{run_skyserver, SkyConfig, SkyLoad, SkyScheme};

fn cfg() -> SimConfig {
    SimConfig {
        column_len: 20_000,
        domain_hi: 999_999,
        query_count: 1_500,
        mmin: 600, // scaled ~3KB/12KB of the 80KB column
        mmax: 2_400,
        ..SimConfig::default()
    }
}

/// Figures 5–6: "For all combinations of selectivity and distribution,
/// adaptive replication requires less writes than its counterpart
/// segmentation."
#[test]
fn replication_writes_less_than_segmentation_everywhere() {
    let c = cfg();
    for dist in [SimDistribution::Uniform, SimDistribution::Zipf] {
        for sel in [0.1, 0.01] {
            let seg = run_sim_cell(&c, dist, sel, StrategyKind::ApmSegm);
            let rep = run_sim_cell(&c, dist, sel, StrategyKind::ApmRepl);
            assert!(
                rep.totals.mem_write_bytes < seg.totals.mem_write_bytes,
                "{dist:?}/{sel}: repl {} vs segm {}",
                rep.totals.mem_write_bytes,
                seg.totals.mem_write_bytes
            );
            let gseg = run_sim_cell(&c, dist, sel, StrategyKind::GdSegm);
            let grep = run_sim_cell(&c, dist, sel, StrategyKind::GdRepl);
            assert!(
                grep.totals.mem_write_bytes <= gseg.totals.mem_write_bytes,
                "{dist:?}/{sel} (GD): repl {} vs segm {}",
                grep.totals.mem_write_bytes,
                gseg.totals.mem_write_bytes
            );
        }
    }
}

/// Figure 5/6 prose: "the APM model stops reorganizing the column after an
/// initial number of queries" under a uniform load.
#[test]
fn apm_write_curve_saturates_under_uniform_load() {
    let r = run_sim_cell(&cfg(), SimDistribution::Uniform, 0.1, StrategyKind::ApmSegm);
    let writes: Vec<u64> = r.records.iter().map(|q| q.io.mem_write_bytes).collect();
    let early: u64 = writes[..300].iter().sum();
    let late: u64 = writes[writes.len() - 300..].iter().sum();
    assert!(early > 0);
    // "Saturation comes after approximately a hundred queries" — late
    // reorganization must be a negligible trickle of the initial burst.
    assert!(
        (late as f64) < (early as f64) * 0.01,
        "late writes {late} must be <1% of the initial burst {early}"
    );
}

/// Figure 7: reads drop fast for segmentation; replication shows full-scan
/// spikes on first touches of untouched areas.
#[test]
fn reads_drop_for_segmentation_and_spike_for_replication() {
    let c = cfg();
    let seg = run_sim_cell(&c, SimDistribution::Uniform, 0.1, StrategyKind::ApmSegm);
    let reads = seg.reads_per_query();
    let db = c.db_bytes() as f64;
    assert_eq!(reads[0], db, "first query scans the whole column");
    let tail = &reads[reads.len() - 200..];
    assert!(
        tail.iter().all(|&r| r < db / 2.0),
        "converged reads stay low"
    );

    let rep = run_sim_cell(&c, SimDistribution::Uniform, 0.1, StrategyKind::ApmRepl);
    let rreads = rep.reads_per_query();
    // Spikes: some later query still reads the full column (untouched area).
    let spikes = rreads[1..60].iter().filter(|&&r| r == db).count();
    assert!(
        spikes > 0,
        "replication must show full-scan spikes early on"
    );
}

/// Table 1: for selectivity 0.1 the average read converges to roughly the
/// selection size for all strategies.
#[test]
fn average_reads_converge_to_selection_size() {
    let c = cfg();
    let selection_bytes = (c.column_len as f64) * 0.1 * 4.0;
    for kind in StrategyKind::SIMULATION {
        let r = run_sim_cell(&c, SimDistribution::Uniform, 0.1, kind);
        let avg = r.avg_read_kb() * 1024.0;
        assert!(
            avg < selection_bytes * 4.0,
            "{kind:?}: avg read {avg} should be within ~4x of the selection {selection_bytes}"
        );
    }
}

/// Figures 8–9: replica storage rises above DB size, then falls back as
/// fully replicated segments (including the initial column) are dropped.
#[test]
fn replica_storage_rises_then_settles() {
    let c = cfg();
    let r = run_sim_cell(&c, SimDistribution::Uniform, 0.1, StrategyKind::ApmRepl);
    let storage = r.storage_series();
    let db = c.db_bytes() as f64;
    let peak = storage.iter().copied().fold(0.0, f64::max);
    let end = *storage.last().unwrap();
    assert!(peak > db * 1.2, "peak {peak} must clearly exceed DB {db}");
    assert!(
        end < peak * 0.8,
        "end {end} must fall back from peak {peak}"
    );
    assert!(
        storage[0] >= db,
        "storage starts at the original column size"
    );
}

/// Figure 9 prose: with a skewed load the storage pay-back takes much
/// longer than with a uniform one.
#[test]
fn zipf_storage_payback_is_slower_than_uniform() {
    let c = cfg();
    let uni = run_sim_cell(&c, SimDistribution::Uniform, 0.1, StrategyKind::ApmRepl);
    let zipf = run_sim_cell(&c, SimDistribution::Zipf, 0.1, StrategyKind::ApmRepl);
    let db = c.db_bytes() as f64;
    // Query index where storage first returns to within 10% of DB size
    // after having exceeded it.
    let payback = |storage: &[f64]| -> usize {
        let mut exceeded = false;
        for (i, &s) in storage.iter().enumerate() {
            if s > db * 1.2 {
                exceeded = true;
            }
            if exceeded && s <= db * 1.1 {
                return i;
            }
        }
        storage.len()
    };
    let pu = payback(&uni.storage_series());
    let pz = payback(&zipf.storage_series());
    assert!(
        pz > pu,
        "zipf payback ({pz}) must be slower than uniform ({pu})"
    );
}

/// The simulation matrix runs all 16 cells and the derived figures/tables
/// are well-formed.
#[test]
fn simulation_matrix_is_complete() {
    let c = SimConfig::tiny();
    let m = run_simulation_matrix(&c);
    assert_eq!(m.entries.len(), 16);
    assert_eq!(m.tab1().rows.len(), 4);
    assert_eq!(
        m.fig5().len() + m.fig6().len() + m.fig8().len() + m.fig9().len(),
        8
    );
}

/// Section 6.2: adaptive schemes amortize their overhead and beat NoSegm in
/// cumulative time; the skewed load reorganizes only a limited area.
#[test]
fn skyserver_adaptive_schemes_amortize() {
    let r = run_skyserver(&SkyConfig::tiny());
    for scheme in [SkyScheme::Apm1_25, SkyScheme::Apm1_5, SkyScheme::Gd] {
        let adaptive = r.get(SkyLoad::Random, scheme).cumulative_time_ms();
        let base = r
            .get(SkyLoad::Random, SkyScheme::NoSegm)
            .cumulative_time_ms();
        assert!(
            adaptive.last().unwrap() < base.last().unwrap(),
            "{scheme:?} must win cumulatively on the random load"
        );
    }
    // Skewed: APM writes less than on random (limited area).
    let skew = r.get(SkyLoad::Skewed, SkyScheme::Apm1_25).totals;
    let rand = r.get(SkyLoad::Random, SkyScheme::Apm1_25).totals;
    assert!(skew.mem_write_bytes < rand.mem_write_bytes);
}

/// Table 2 contrast: the tighter Mmax of APM 1-5 produces more, smaller
/// segments than APM 1-25 on the random load.
#[test]
fn tighter_mmax_fragments_finer() {
    let r = run_skyserver(&SkyConfig::tiny());
    let coarse = r.get(SkyLoad::Random, SkyScheme::Apm1_25);
    let fine = r.get(SkyLoad::Random, SkyScheme::Apm1_5);
    let (n25, avg25, _) = coarse.segment_stats_mb();
    let (n5, avg5, _) = fine.segment_stats_mb();
    assert!(
        n5 > n25,
        "APM 1-5 ({n5}) must out-fragment APM 1-25 ({n25})"
    );
    assert!(avg5 < avg25, "APM 1-5 segments must be smaller on average");
}

/// The changing load triggers a reorganization burst at each phase shift
/// (Figures 15–16).
#[test]
fn changing_load_reorganizes_per_phase() {
    let cfg = SkyConfig::tiny();
    let r = run_skyserver(&cfg);
    let run = r.get(SkyLoad::Changing, SkyScheme::Apm1_25);
    let writes: Vec<u64> = run.records.iter().map(|q| q.io.mem_write_bytes).collect();
    let quarter = cfg.query_count / 4;
    // Each phase's first few queries write something (new area reorganized).
    for phase in 1..4 {
        let start = phase * quarter;
        let burst: u64 = writes[start..(start + quarter / 2).min(writes.len())]
            .iter()
            .sum();
        assert!(
            burst > 0,
            "phase {phase} must reorganize its fresh access area"
        );
    }
}

/// End-to-end determinism: the same configuration produces bit-identical
/// series (the whole stack is seeded).
#[test]
fn experiments_are_deterministic() {
    let c = SimConfig::tiny();
    let a = run_sim_cell(&c, SimDistribution::Zipf, 0.01, StrategyKind::GdRepl);
    let b = run_sim_cell(&c, SimDistribution::Zipf, 0.01, StrategyKind::GdRepl);
    assert_eq!(a.totals.mem_read_bytes, b.totals.mem_read_bytes);
    assert_eq!(a.totals.mem_write_bytes, b.totals.mem_write_bytes);
    assert_eq!(a.cumulative_writes(), b.cumulative_writes());
}
