//! Ablation studies beyond the paper's evaluation.
//!
//! * [`cracking_comparison`] — adaptive segmentation vs database cracking
//!   (the Section 7 related-work comparison the paper argues verbally).
//! * [`apm_bound_sweep`] — sensitivity of APM to its `Mmin`/`Mmax` bounds
//!   (Section 8 names auto-tuning them as future work).
//! * [`merge_ablation`] — GD with and without the merge policy on the
//!   fragmenting skewed load (Section 8's proposed counter-measure).
//! * [`buffer_ablation`] — the same workload with a constrained buffer:
//!   the disk-bound regime the paper's 100 GB setting lives in.
//! * [`budget_ablation`] / [`auto_apm_ablation`] — the Section 8 storage
//!   budget and self-tuning extensions.
//! * [`estimator_ablation`] — uniform-interpolation vs exact piece-size
//!   estimates on value-skewed data (the §3.2.2 "estimates" caveat).
//! * [`placement_ablation`] — the §8 distributed outlook: segment
//!   placement policies scored by balance and query fan-out.
//! * [`sharding_ablation`] — the same policies *executed* on the sharded
//!   executor: measured fan-out, measured per-node read balance, and the
//!   byte cost of a mid-run re-placement epoch.
//! * [`sql_strategy_ablation`] — the Section 3.1 integration measured end
//!   to end: the same SQL range workload compiled to MAL, segment-
//!   optimized, and executed against a catalog column registered under
//!   each of the nine [`StrategyKind`]s, reporting per-query plan
//!   footprint and reorganization bytes.

use soc_core::{ColumnStrategy as _, NullTracker, SizeEstimator, ValueRange};
use soc_workload::{uniform_values, zipf_values, WorkloadSpec};

use crate::cost::CostModel;
use crate::placement::{mean_fanout, Placement, PlacementPolicy};
use crate::runner::{run_queries, RunResult, SimTracker};
use crate::shard::ShardedColumn;

use super::simulation::SimConfig;
use super::{build_strategy, StrategyKind, StrategySpec, TableOut};

fn run_kind(
    cfg: &SimConfig,
    kind: StrategyKind,
    spec: &WorkloadSpec,
    buffer: Option<u64>,
    mmin: u64,
    mmax: u64,
) -> RunResult {
    let domain = ValueRange::must(0u32, cfg.domain_hi);
    let values = uniform_values(cfg.column_len, &domain, cfg.data_seed);
    let queries = spec.generate(&domain);
    let mut strategy = build_strategy(kind, domain, values, mmin, mmax, cfg.model_seed);
    let mut tracker = match buffer {
        Some(cap) => SimTracker::buffered(cap),
        None => SimTracker::unbuffered(),
    };
    run_queries(
        strategy.as_mut(),
        &queries,
        &mut tracker,
        &CostModel::era_2008_desktop(),
    )
}

/// Adaptive segmentation / replication vs database cracking on the
/// Section 6.1 workloads.
pub fn cracking_comparison(cfg: &SimConfig) -> TableOut {
    let mut rows = Vec::new();
    for (tag, spec) in [
        (
            "U 0.1",
            WorkloadSpec::uniform(0.1, cfg.query_count, cfg.query_seed),
        ),
        (
            "Z 0.1",
            WorkloadSpec::zipf(0.1, cfg.query_count, cfg.query_seed),
        ),
        (
            "U 0.01",
            WorkloadSpec::uniform(0.01, cfg.query_count, cfg.query_seed),
        ),
    ] {
        for kind in [
            StrategyKind::ApmSegm,
            StrategyKind::GdSegm,
            StrategyKind::Cracking,
            StrategyKind::FullSort,
        ] {
            let r = run_kind(cfg, kind, &spec, None, cfg.mmin, cfg.mmax);
            rows.push(vec![
                tag.to_owned(),
                r.name.clone(),
                format!("{:.1}", r.avg_read_kb()),
                format!("{}", r.totals.mem_write_bytes / 1024),
                r.final_segment_bytes.len().to_string(),
            ]);
        }
    }
    TableOut {
        id: "abl-cracking".to_owned(),
        title: "Ablation: adaptive segmentation vs database cracking".to_owned(),
        headers: vec![
            "Workload".to_owned(),
            "Strategy".to_owned(),
            "Avg read (KB)".to_owned(),
            "Total writes (KB)".to_owned(),
            "Pieces".to_owned(),
        ],
        rows,
    }
}

/// Sweeps APM's `(Mmin, Mmax)` over a grid, reporting reads/writes/segments.
pub fn apm_bound_sweep(cfg: &SimConfig) -> TableOut {
    let spec = WorkloadSpec::uniform(0.01, cfg.query_count, cfg.query_seed);
    let mut rows = Vec::new();
    let base = cfg.mmin.max(512);
    for (mmin, mmax) in [
        (base / 2, base * 2),
        (base, base * 2),
        (base, base * 4),
        (base, base * 8),
        (base * 2, base * 8),
        (base * 4, base * 8),
    ] {
        let r = run_kind(cfg, StrategyKind::ApmSegm, &spec, None, mmin, mmax);
        rows.push(vec![
            format!("{}", mmin / 1024),
            format!("{}", mmax / 1024),
            format!("{:.1}", r.avg_read_kb()),
            format!("{}", r.totals.mem_write_bytes / 1024),
            r.final_segment_bytes.len().to_string(),
        ]);
    }
    TableOut {
        id: "abl-apm".to_owned(),
        title: "Ablation: APM bound sensitivity (uniform, sel 0.01)".to_owned(),
        headers: vec![
            "Mmin (KB)".to_owned(),
            "Mmax (KB)".to_owned(),
            "Avg read (KB)".to_owned(),
            "Total writes (KB)".to_owned(),
            "Segments".to_owned(),
        ],
        rows,
    }
}

/// GD segmentation with and without the merge policy on a fragmenting
/// hotspot load.
pub fn merge_ablation(cfg: &SimConfig) -> TableOut {
    let spec = WorkloadSpec::skewed_two_areas(0.002, cfg.query_count, cfg.query_seed);
    let mut rows = Vec::new();
    for kind in [StrategyKind::GdSegm, StrategyKind::GdSegmMerged] {
        let r = run_kind(cfg, kind, &spec, None, cfg.mmin, cfg.mmax);
        rows.push(vec![
            r.name.clone(),
            r.final_segment_bytes.len().to_string(),
            format!("{:.1}", r.avg_read_kb()),
            format!("{}", r.totals.mem_write_bytes / 1024),
        ]);
    }
    TableOut {
        id: "abl-merge".to_owned(),
        title: "Ablation: GD fragmentation vs merge policy (two-hot-areas load)".to_owned(),
        headers: vec![
            "Strategy".to_owned(),
            "Final segments".to_owned(),
            "Avg read (KB)".to_owned(),
            "Total writes (KB)".to_owned(),
        ],
        rows,
    }
}

/// NoSegm vs APM segmentation under a buffer smaller than the column —
/// the disk-bound regime where segmentation saves actual I/O.
pub fn buffer_ablation(cfg: &SimConfig) -> TableOut {
    let spec = WorkloadSpec::uniform(0.1, cfg.query_count, cfg.query_seed);
    let db = cfg.db_bytes();
    let mut rows = Vec::new();
    for (label, buffer) in [
        ("unconstrained", None),
        ("buffer = DB", Some(db)),
        ("buffer = DB/2", Some(db / 2)),
        ("buffer = DB/8", Some((db / 8).max(1))),
    ] {
        for kind in [StrategyKind::NoSegm, StrategyKind::ApmSegm] {
            let r = run_kind(cfg, kind, &spec, buffer, cfg.mmin, cfg.mmax);
            let cost = CostModel::era_2008_desktop();
            rows.push(vec![
                label.to_owned(),
                r.name.clone(),
                format!("{}", r.totals.disk_read_bytes / 1024),
                format!("{}", r.totals.disk_write_bytes / 1024),
                format!("{:.0}", cost.total_ms(&r.totals)),
            ]);
        }
    }
    TableOut {
        id: "abl-buffer".to_owned(),
        title: "Ablation: constrained buffer (disk-bound regime), uniform sel 0.1".to_owned(),
        headers: vec![
            "Buffer".to_owned(),
            "Strategy".to_owned(),
            "Disk reads (KB)".to_owned(),
            "Disk writes (KB)".to_owned(),
            "Modelled total (ms)".to_owned(),
        ],
        rows,
    }
}

/// Replication under a storage budget (the Section 8 open problem:
/// "optimal replica configuration in the presence of storage limitations").
///
/// Sweeps the budget from "none" down to the bare column and reports
/// peak storage, declined materializations, and the read cost paid for
/// the missing replicas.
pub fn budget_ablation(cfg: &SimConfig) -> TableOut {
    let spec = WorkloadSpec::uniform(0.1, cfg.query_count, cfg.query_seed);
    let domain = ValueRange::must(0u32, cfg.domain_hi);
    let db = cfg.db_bytes();
    let mut rows = Vec::new();
    for (label, budget) in [
        ("none", None),
        ("2.0x DB", Some(db * 2)),
        ("1.5x DB", Some(db + db / 2)),
        ("1.1x DB", Some(db + db / 10)),
    ] {
        let values = uniform_values(cfg.column_len, &domain, cfg.data_seed);
        let queries = spec.generate(&domain);
        let mut builder = StrategySpec::new(StrategyKind::ApmRepl)
            .with_apm_bounds(cfg.mmin, cfg.mmax)
            .with_model_seed(cfg.model_seed);
        if let Some(b) = budget {
            builder = builder.with_storage_budget(b);
        }
        let mut strategy = builder.build(domain, values).expect("values in domain");
        let mut tracker = SimTracker::unbuffered();
        let r = run_queries(
            strategy.as_mut(),
            &queries,
            &mut tracker,
            &CostModel::era_2008_desktop(),
        );
        let peak = r.records.iter().map(|q| q.storage_bytes).max().unwrap_or(0);
        let stats = strategy.adaptation();
        rows.push(vec![
            label.to_owned(),
            format!("{:.2}", peak as f64 / db as f64),
            format!("{:.1}", r.avg_read_kb()),
            stats.budget_declines.to_string(),
            stats.replicas_created.to_string(),
        ]);
    }
    TableOut {
        id: "abl-budget".to_owned(),
        title: "Ablation: adaptive replication under a storage budget (uniform, sel 0.1)"
            .to_owned(),
        headers: vec![
            "Budget".to_owned(),
            "Peak storage (xDB)".to_owned(),
            "Avg read (KB)".to_owned(),
            "Declined".to_owned(),
            "Replicas".to_owned(),
        ],
        rows,
    }
}

/// Self-tuning APM vs hand-set bounds (the Section 8 open problem:
/// "automatically determine the values of its controlling parameters").
pub fn auto_apm_ablation(cfg: &SimConfig) -> TableOut {
    let mut rows = Vec::new();
    for sel in [0.1, 0.01] {
        let spec = WorkloadSpec::uniform(sel, cfg.query_count, cfg.query_seed);
        // Hand-set APM with the paper's bounds vs the self-tuning variant,
        // both through the shared factory.
        let hand = run_kind(cfg, StrategyKind::ApmSegm, &spec, None, cfg.mmin, cfg.mmax);
        let auto_run = run_kind(
            cfg,
            StrategyKind::AutoApmSegm,
            &spec,
            None,
            cfg.mmin,
            cfg.mmax,
        );
        for (r, tag) in [(&hand, "hand"), (&auto_run, "auto")] {
            rows.push(vec![
                format!("{sel}"),
                format!("{} ({tag})", r.name),
                format!("{:.1}", r.avg_read_kb()),
                format!("{}", r.totals.mem_write_bytes / 1024),
                r.final_segment_bytes.len().to_string(),
            ]);
        }
    }
    TableOut {
        id: "abl-auto-apm".to_owned(),
        title: "Ablation: hand-set vs self-tuning APM bounds (uniform)".to_owned(),
        headers: vec![
            "Selectivity".to_owned(),
            "Model".to_owned(),
            "Avg read (KB)".to_owned(),
            "Total writes (KB)".to_owned(),
            "Segments".to_owned(),
        ],
        rows,
    }
}

/// Uniform-interpolation vs exact size estimates under value skew.
///
/// The models decide on estimates "without touching the data" (§3.1);
/// uniform interpolation is exact for the paper's uniform column but errs
/// on skewed data. This quantifies the cost of that error.
pub fn estimator_ablation(cfg: &SimConfig) -> TableOut {
    let domain = ValueRange::must(0u32, cfg.domain_hi);
    let spec = WorkloadSpec::uniform(0.01, cfg.query_count, cfg.query_seed);
    let mut rows = Vec::new();
    for (data, exponent) in [("uniform", 0.0), ("zipf(1.0)", 1.0)] {
        for estimator in [SizeEstimator::Uniform, SizeEstimator::Exact] {
            let values = if exponent == 0.0 {
                uniform_values(cfg.column_len, &domain, cfg.data_seed)
            } else {
                zipf_values(cfg.column_len, &domain, exponent, 200, cfg.data_seed)
            };
            let queries = spec.generate(&domain);
            let mut s = StrategySpec::new(StrategyKind::ApmSegm)
                .with_apm_bounds(cfg.mmin, cfg.mmax)
                .with_estimator(estimator)
                .build(domain, values)
                .expect("values in domain");
            let mut tracker = SimTracker::unbuffered();
            let r = run_queries(
                s.as_mut(),
                &queries,
                &mut tracker,
                &CostModel::era_2008_desktop(),
            );
            rows.push(vec![
                data.to_owned(),
                format!("{estimator:?}"),
                format!("{:.1}", r.avg_read_kb()),
                format!("{}", r.totals.mem_write_bytes / 1024),
                r.final_segment_bytes.len().to_string(),
            ]);
        }
    }
    TableOut {
        id: "abl-estimator".to_owned(),
        title: "Ablation: interpolated vs exact size estimates (APM, sel 0.01)".to_owned(),
        headers: vec![
            "Data".to_owned(),
            "Estimator".to_owned(),
            "Avg read (KB)".to_owned(),
            "Total writes (KB)".to_owned(),
            "Segments".to_owned(),
        ],
        rows,
    }
}

/// Distributed placement of converged segments (the §8 outlook):
/// balance vs fan-out per policy over the live workload, for every
/// segmentation strategy — all driven through the shared
/// [`soc_core::ColumnStrategy`] interface, no concrete column access.
pub fn placement_ablation(cfg: &SimConfig, nodes: usize) -> TableOut {
    let domain = ValueRange::must(0u32, cfg.domain_hi);
    let spec = WorkloadSpec::uniform(0.05, cfg.query_count, cfg.query_seed);
    let queries = spec.generate(&domain);

    let mut rows = Vec::new();
    // Segmentation strategies only: their segments tile the domain in value
    // order, which is what a range-partitioned placement ships to nodes.
    for kind in [
        StrategyKind::ApmSegm,
        StrategyKind::GdSegm,
        StrategyKind::GdSegmMerged,
    ] {
        let values = uniform_values(cfg.column_len, &domain, cfg.data_seed);
        let mut s = build_strategy(kind, domain, values, cfg.mmin, cfg.mmax, cfg.model_seed);
        // Converge the column first.
        for q in &queries {
            s.select_count(q, &mut NullTracker);
        }
        let segment_bytes = s.segment_bytes();
        let segment_ranges = s.segment_ranges();
        for policy in PlacementPolicy::ALL {
            let p = Placement::assign(policy, &segment_bytes, nodes).expect("nodes > 0");
            rows.push(vec![
                s.name(),
                policy.name().to_owned(),
                format!("{:.2}", p.imbalance()),
                format!("{:.2}", mean_fanout(&p, &segment_ranges, &queries)),
                segment_bytes.len().to_string(),
            ]);
        }
    }
    TableOut {
        id: "abl-placement".to_owned(),
        title: format!("Ablation: segment placement over {nodes} nodes (converged columns)"),
        headers: vec![
            "Strategy".to_owned(),
            "Policy".to_owned(),
            "Imbalance (max/ideal)".to_owned(),
            "Mean query fan-out".to_owned(),
            "Segments".to_owned(),
        ],
        rows,
    }
}

/// Executed placement (the tentpole of the sharded executor): every
/// placement policy runs the same workload on a [`ShardedColumn`], so
/// fan-out and per-node read balance are **measured** from the routed
/// execution, not interpolated from segment lists — and replication
/// strategies participate, since their `segment_ranges()` now report a
/// flat, placeable partition.
///
/// Mid-run, each shard performs one re-placement epoch from its live,
/// workload-shaped partitioning; the moved bytes are the epoch's
/// reorganization bill.
pub fn sharding_ablation(cfg: &SimConfig, nodes: usize) -> TableOut {
    let domain = ValueRange::must(0u32, cfg.domain_hi);
    let spec = WorkloadSpec::uniform(0.05, cfg.query_count, cfg.query_seed);
    let queries = spec.generate(&domain);
    let db = cfg.db_bytes() as f64;

    let mut rows = Vec::new();
    for kind in [
        StrategyKind::ApmSegm,
        StrategyKind::GdSegm,
        StrategyKind::ApmRepl,
        StrategyKind::GdRepl,
        StrategyKind::Cracking,
    ] {
        for policy in PlacementPolicy::ALL {
            let values = uniform_values(cfg.column_len, &domain, cfg.data_seed);
            let strategy_spec = StrategySpec::new(kind)
                .with_apm_bounds(cfg.mmin, cfg.mmax)
                .with_model_seed(cfg.model_seed);
            let mut sharded = ShardedColumn::new(strategy_spec, policy, nodes, domain, values)
                .expect("nodes > 0 and values in domain");
            let mut tracker = SimTracker::unbuffered();
            let half = queries.len() / 2;
            let first = run_queries(
                &mut sharded,
                &queries[..half],
                &mut tracker,
                &CostModel::era_2008_desktop(),
            );
            // Re-plan from the self-organized partitioning, then keep going.
            tracker.begin_query();
            let migration = sharded.replace(&mut tracker).expect("nodes > 0");
            let second = run_queries(
                &mut sharded,
                &queries[half..],
                &mut tracker,
                &CostModel::era_2008_desktop(),
            );
            let avg_read_kb = |r: &RunResult| {
                let bytes: u64 = r.records.iter().map(|q| q.io.mem_read_bytes).sum();
                bytes as f64 / 1024.0 / r.records.len().max(1) as f64
            };
            rows.push(vec![
                sharded.name(),
                format!("{:.2}", sharded.mean_measured_fanout()),
                format!("{:.2}", sharded.read_imbalance()),
                format!("{:.1}", avg_read_kb(&first)),
                format!("{:.1}", avg_read_kb(&second)),
                format!("{:.3}", migration.moved_bytes as f64 / db),
            ]);
        }
    }
    TableOut {
        id: "abl-sharding".to_owned(),
        title: format!(
            "Ablation: executed placement over {nodes} nodes (measured fan-out & balance)"
        ),
        headers: vec![
            "Sharded strategy".to_owned(),
            "Measured fan-out".to_owned(),
            "Read imbalance".to_owned(),
            "Avg read pre (KB)".to_owned(),
            "Avg read post (KB)".to_owned(),
            "Replan moved (xDB)".to_owned(),
        ],
        rows,
    }
}

/// The MAL/SQL integration ablation: one SQL range workload — compiled,
/// segment-optimized, and interpreted — against the same column registered
/// under every one of the nine strategy kinds.
///
/// Per kind the table reports the mean result cardinality (identical
/// across kinds by construction — the correctness signal), the mean plan
/// footprint the meta-index estimates for the query (`bpm`'s Section 3.1
/// memory estimate), total reorganization writes incurred by the injected
/// `bpm.adapt` hook, total adaptation operations, and the final piece
/// count. SQL interpretation is per-query work, so the workload is capped
/// at [`SQL_ABLATION_MAX_QUERIES`] queries.
pub fn sql_strategy_ablation(cfg: &SimConfig) -> TableOut {
    use soc_bat::{algebra::Atom, Bat};
    use soc_core::StrategySpec;
    use soc_mal::{compile_select, Catalog, Interp, SegmentOptimizer};

    let domain = ValueRange::must(0u32, cfg.domain_hi);
    let query_count = cfg.query_count.min(SQL_ABLATION_MAX_QUERIES);
    let queries = WorkloadSpec::uniform(0.05, query_count, cfg.query_seed).generate(&domain);
    let plan = compile_select("SELECT id FROM sys.T WHERE v BETWEEN ? AND ?")
        .expect("the ablation's query is in the supported class");
    let optimizer = SegmentOptimizer::new();

    let mut rows = Vec::new();
    for kind in StrategyKind::ALL {
        let values = uniform_values(cfg.column_len, &domain, cfg.data_seed);
        let base: Vec<i64> = values.iter().map(|&v| v as i64).collect();
        let ids: Vec<i64> = (0..cfg.column_len as i64).collect();

        let mut catalog = Catalog::new();
        catalog
            .register_segmented(
                "sys",
                "T",
                "v",
                Bat::dense_int(base),
                0.0,
                (cfg.domain_hi as f64) + 1.0,
                StrategySpec::new(kind)
                    .with_apm_bounds(cfg.mmin, cfg.mmax)
                    .with_model_seed(cfg.model_seed),
            )
            .expect("int column registers under every kind");
        catalog.register_bat("sys", "T", "id", Bat::dense_int(ids));

        let mut result_rows = 0u64;
        let mut footprint_bytes = 0u64;
        for q in &queries {
            let (lo, hi) = (q.lo() as i64, q.hi() as i64);
            footprint_bytes += catalog
                .segmented("sys.T.v")
                .expect("registered above")
                .footprint_bytes(lo as f64, hi as f64);
            let (optimized, _) = optimizer.optimize(&plan, &catalog);
            let result = Interp::new(&mut catalog)
                .run(&optimized, &[Atom::Int(lo), Atom::Int(hi)])
                .expect("plan executes")
                .expect("plan exports a result");
            result_rows += result.len() as u64;
        }
        let seg = catalog.segmented("sys.T.v").expect("registered above");
        let a = seg.adaptation();
        rows.push(vec![
            seg.strategy_name(),
            format!("{:.1}", result_rows as f64 / queries.len() as f64),
            format!(
                "{:.1}",
                footprint_bytes as f64 / 1024.0 / queries.len() as f64
            ),
            format!("{}", seg.reorg_write_bytes() / 1024),
            (a.splits + a.merges + a.replicas_created).to_string(),
            seg.piece_count().to_string(),
        ]);
    }
    TableOut {
        id: "abl-sql-strategy".to_owned(),
        title: format!(
            "Ablation: SQL range workload through the MAL stack, all strategy kinds \
             ({query_count} queries, sel 0.05)"
        ),
        headers: vec![
            "Strategy".to_owned(),
            "Mean rows".to_owned(),
            "Mean footprint (KB)".to_owned(),
            "Reorg writes (KB)".to_owned(),
            "Adaptations".to_owned(),
            "Pieces".to_owned(),
        ],
        rows,
    }
}

/// Upper bound on queries the SQL ablation interprets per strategy kind:
/// MAL interpretation materializes intermediates per query, so the full
/// 10k-query simulation workload would dominate the repro run for no
/// additional signal.
pub const SQL_ABLATION_MAX_QUERIES: usize = 400;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cracking_comparison_runs_and_orders_sanely() {
        let t = cracking_comparison(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 12);
        // FullSort reads the least (exactly the results).
        let read = |i: usize| -> f64 { t.rows[i][2].parse().unwrap() };
        assert!(
            read(3) <= read(0),
            "FullSort {} vs APM {}",
            read(3),
            read(0)
        );
        // Cracking writes (swap bytes) are bounded by ~column size per
        // crack; segmentation rewrites whole segments. Both must be > 0.
        for row in &t.rows {
            let writes: u64 = row[3].parse().expect("numeric writes");
            let _ = writes;
        }
    }

    #[test]
    fn apm_sweep_tighter_mmax_gives_smaller_reads() {
        let t = apm_bound_sweep(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 6);
        let read_of = |i: usize| -> f64 { t.rows[i][2].parse().unwrap() };
        // (base, 2*base) reads <= (base, 8*base) reads: a tighter Mmax
        // splits further and reads less per query.
        assert!(
            read_of(1) <= read_of(3) * 1.25,
            "tight {} vs loose {}",
            read_of(1),
            read_of(3)
        );
    }

    #[test]
    fn merge_ablation_reduces_fragmentation() {
        let t = merge_ablation(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 2);
        let plain: usize = t.rows[0][1].parse().unwrap();
        let merged: usize = t.rows[1][1].parse().unwrap();
        assert!(
            merged <= plain,
            "merge policy must not increase the segment count ({merged} vs {plain})"
        );
    }

    #[test]
    fn budget_ablation_tightening_trades_reads_for_storage() {
        let t = budget_ablation(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 4);
        let peak = |i: usize| -> f64 { t.rows[i][1].parse().unwrap() };
        let reads = |i: usize| -> f64 { t.rows[i][2].parse().unwrap() };
        let declines = |i: usize| -> u64 { t.rows[i][3].parse().unwrap() };
        // Tighter budgets bound the peak…
        assert!(
            peak(3) <= 1.11,
            "1.1x budget must cap the peak, got {}",
            peak(3)
        );
        assert!(peak(0) > peak(3));
        // …and cost at most moderately more reads.
        assert!(reads(3) >= reads(0) * 0.8);
        assert_eq!(declines(0), 0, "no budget, no declines");
        assert!(declines(3) > 0, "tight budget must decline replicas");
    }

    #[test]
    fn auto_apm_tracks_hand_set_bounds() {
        let t = auto_apm_ablation(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 4);
        // At selectivity 0.1 the auto band lands near the hand band:
        // average reads within 2x of each other.
        let hand: f64 = t.rows[0][2].parse().unwrap();
        let auto: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            auto < hand * 2.5 && hand < auto * 2.5,
            "auto {auto} should be in the same regime as hand {hand}"
        );
    }

    #[test]
    fn estimator_ablation_exact_never_loses_badly() {
        let t = estimator_ablation(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 4);
        // On uniform data the two estimators behave almost identically.
        let uni_interp: f64 = t.rows[0][2].parse().unwrap();
        let uni_exact: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            (uni_interp - uni_exact).abs() < uni_interp.max(uni_exact) * 0.5,
            "uniform data: {uni_interp} vs {uni_exact}"
        );
    }

    #[test]
    fn placement_ablation_orders_policies_sanely() {
        let t = placement_ablation(&SimConfig::tiny(), 8);
        // Three segmentation strategies × three policies.
        assert_eq!(t.rows.len(), 9);
        let fanout = |i: usize| -> f64 { t.rows[i][3].parse().unwrap() };
        // For every strategy, range-contiguous (second policy row) must
        // touch fewer nodes per query than round-robin (first policy row).
        for base in [0, 3, 6] {
            assert!(
                fanout(base + 1) < fanout(base),
                "strategy {}: contiguous {} must beat round-robin {}",
                t.rows[base][0],
                fanout(base + 1),
                fanout(base)
            );
        }
    }

    #[test]
    fn sharding_ablation_measures_fanout_and_covers_replication() {
        let t = sharding_ablation(&SimConfig::tiny(), 8);
        // Five strategy kinds × three policies.
        assert_eq!(t.rows.len(), 15);
        let fanout = |i: usize| -> f64 { t.rows[i][1].parse().unwrap() };
        for base in (0..15).step_by(3) {
            // Policy order is round-robin, range-contiguous, size-balanced:
            // measured contiguous fan-out must undercut measured
            // round-robin fan-out for every strategy kind.
            assert!(
                fanout(base + 1) < fanout(base),
                "{}: contiguous {} must beat round-robin {}",
                t.rows[base][0],
                fanout(base + 1),
                fanout(base)
            );
        }
        // Replication rows exist (the flattening made them placeable)…
        assert!(t.rows.iter().any(|r| r[0].contains("Repl")));
        // …and every row reports a positive measured fan-out and a sane
        // imbalance.
        for row in &t.rows {
            let f: f64 = row[1].parse().unwrap();
            let imb: f64 = row[2].parse().unwrap();
            assert!(f >= 1.0, "{row:?}");
            assert!(imb >= 1.0, "{row:?}");
        }
    }

    #[test]
    fn sql_strategy_ablation_all_kinds_agree_on_results() {
        let t = sql_strategy_ablation(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 9, "all nine kinds ran");
        // Every kind must return the same mean result cardinality: the SQL
        // answer is strategy-independent.
        let mean_rows: Vec<&str> = t.rows.iter().map(|r| r[1].as_str()).collect();
        assert!(
            mean_rows.iter().all(|m| *m == mean_rows[0]),
            "result cardinality must not depend on the strategy: {mean_rows:?}"
        );
        // Adaptive kinds adapted; static baselines did not.
        for (row, kind) in t.rows.iter().zip(StrategyKind::ALL) {
            let adaptations: u64 = row[4].parse().unwrap();
            let reorg_kb: u64 = row[3].parse().unwrap();
            if kind.is_adaptive() {
                assert!(adaptations > 0, "{kind:?} must adapt under the workload");
                assert!(reorg_kb > 0, "{kind:?} must pay reorganization writes");
            } else {
                assert_eq!(adaptations, 0, "{kind:?} must stay static");
            }
        }
        // Self-organization shrinks the mean plan footprint below the
        // full column for the segmenting kinds.
        let footprint_of = |i: usize| -> f64 { t.rows[i][2].parse().unwrap() };
        let nosegm = footprint_of(0);
        let apm = footprint_of(3); // ApmSegm's position in StrategyKind::ALL
        assert!(
            apm < nosegm,
            "APM footprint {apm} must undercut NoSegm {nosegm}"
        );
    }

    #[test]
    fn buffer_ablation_segmentation_saves_disk_io() {
        let t = buffer_ablation(&SimConfig::tiny());
        assert_eq!(t.rows.len(), 8);
        // In the tightest regime, APM's disk reads undercut NoSegm's.
        let last_pair = &t.rows[6..8];
        let nosegm: u64 = last_pair[0][2].parse().unwrap();
        let apm: u64 = last_pair[1][2].parse().unwrap();
        assert!(
            apm < nosegm,
            "APM disk reads {apm} must undercut NoSegm {nosegm} when disk-bound"
        );
    }
}
