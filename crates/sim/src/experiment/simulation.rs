//! The Section 6.1 simulation: Figures 5–9 and Table 1.
//!
//! Setup (paper defaults): a column of 100 K values drawn from a domain of
//! 1 M integers; 10 K range selections; selectivity factors 0.1 and 0.01;
//! uniform and Zipf query positions; APM bounds 3 KB / 12 KB. All four
//! strategy combinations {GD, APM} × {Segm, Repl} run over each workload.

use soc_core::ValueRange;
use soc_workload::{uniform_values, WorkloadSpec};

use crate::cost::CostModel;
use crate::runner::{run_queries, RunResult, SimTracker};

use super::{build_strategy, Figure, Series, StrategyKind, TableOut};

/// Configuration of the simulation matrix.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Tuples in the column (paper: 100 000).
    pub column_len: usize,
    /// Highest domain value; the domain is `[0, domain_hi]`
    /// (paper: 1 M distinct values).
    pub domain_hi: u32,
    /// Queries per run (paper: 10 000).
    pub query_count: usize,
    /// APM lower bound in bytes (paper: 3 KB).
    pub mmin: u64,
    /// APM upper bound in bytes (paper: 12 KB).
    pub mmax: u64,
    /// Dataset seed.
    pub data_seed: u64,
    /// Workload seed.
    pub query_seed: u64,
    /// Gaussian Dice seed.
    pub model_seed: u64,
    /// Zipf exponent for the skewed workloads. The paper leaves it
    /// unstated; 1.3 is calibrated against Table 1's Zipf column
    /// (`repro --experiment tab1` regenerates it; PAPER.md's Section 6.1
    /// paragraph states the setting).
    pub zipf_exponent: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            column_len: 100_000,
            domain_hi: 999_999,
            query_count: 10_000,
            mmin: 3 * 1024,
            mmax: 12 * 1024,
            data_seed: 0xDA7A,
            query_seed: 0x9E14,
            model_seed: 0x6D0D,
            zipf_exponent: 1.3,
        }
    }
}

impl SimConfig {
    /// A reduced configuration for fast tests (2 K values, 200 queries).
    pub fn tiny() -> Self {
        SimConfig {
            column_len: 2_000,
            domain_hi: 99_999,
            query_count: 200,
            mmin: 256,
            mmax: 1024,
            ..SimConfig::default()
        }
    }

    fn domain(&self) -> ValueRange<u32> {
        ValueRange::must(0, self.domain_hi)
    }

    /// The column's byte size (the "DB size" reference line).
    pub fn db_bytes(&self) -> u64 {
        self.column_len as u64 * 4
    }
}

/// The two query-position distributions of Section 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimDistribution {
    /// Uniform positions.
    Uniform,
    /// Zipf positions over 1000 domain buckets
    /// (exponent from [`SimConfig::zipf_exponent`]).
    Zipf,
}

impl SimDistribution {
    fn spec(self, selectivity: f64, count: usize, seed: u64, zipf_exponent: f64) -> WorkloadSpec {
        match self {
            SimDistribution::Uniform => WorkloadSpec::uniform(selectivity, count, seed),
            SimDistribution::Zipf => {
                WorkloadSpec::zipf_with_exponent(selectivity, zipf_exponent, count, seed)
            }
        }
    }
}

/// One cell of the simulation matrix.
#[derive(Debug)]
pub struct MatrixEntry {
    /// Query-position distribution.
    pub distribution: SimDistribution,
    /// Selectivity factor.
    pub selectivity: f64,
    /// Strategy.
    pub kind: StrategyKind,
    /// The run's records and totals.
    pub result: RunResult,
}

/// All 16 runs of the Section 6.1 matrix
/// ({uniform, zipf} × {0.1, 0.01} × four strategies).
#[derive(Debug)]
pub struct SimulationMatrix {
    /// Configuration that produced the matrix.
    pub config: SimConfig,
    /// The runs.
    pub entries: Vec<MatrixEntry>,
}

/// Runs one strategy over one workload under `cfg`.
pub fn run_sim_cell(
    cfg: &SimConfig,
    distribution: SimDistribution,
    selectivity: f64,
    kind: StrategyKind,
) -> RunResult {
    let domain = cfg.domain();
    let values = uniform_values(cfg.column_len, &domain, cfg.data_seed);
    let queries = distribution
        .spec(
            selectivity,
            cfg.query_count,
            cfg.query_seed,
            cfg.zipf_exponent,
        )
        .generate(&domain);
    let mut strategy = build_strategy(kind, domain, values, cfg.mmin, cfg.mmax, cfg.model_seed);
    let mut tracker = SimTracker::unbuffered();
    run_queries(
        strategy.as_mut(),
        &queries,
        &mut tracker,
        &CostModel::era_2008_desktop(),
    )
}

/// Runs the full 16-cell matrix.
pub fn run_simulation_matrix(cfg: &SimConfig) -> SimulationMatrix {
    let mut entries = Vec::with_capacity(16);
    for distribution in [SimDistribution::Uniform, SimDistribution::Zipf] {
        for selectivity in [0.1, 0.01] {
            for kind in StrategyKind::SIMULATION {
                let result = run_sim_cell(cfg, distribution, selectivity, kind);
                entries.push(MatrixEntry {
                    distribution,
                    selectivity,
                    kind,
                    result,
                });
            }
        }
    }
    SimulationMatrix {
        config: *cfg,
        entries,
    }
}

impl SimulationMatrix {
    /// The run for one matrix cell.
    pub(crate) fn get(
        &self,
        distribution: SimDistribution,
        selectivity: f64,
        kind: StrategyKind,
    ) -> &RunResult {
        &self
            .entries
            .iter()
            .find(|e| {
                e.distribution == distribution
                    && (e.selectivity - selectivity).abs() < 1e-12
                    && e.kind == kind
            })
            .unwrap_or_else(|| {
                panic!("missing matrix cell {distribution:?}/{selectivity}/{kind:?}")
            })
            .result
    }

    fn writes_figure(&self, id: &str, distribution: SimDistribution, selectivity: f64) -> Figure {
        let series = StrategyKind::SIMULATION
            .iter()
            .map(|&k| {
                let r = self.get(distribution, selectivity, k);
                Series::from_ys(r.name.clone(), r.cumulative_writes())
            })
            .collect();
        Figure {
            id: id.to_owned(),
            title: format!(
                "Cumulative memory writes, {} distribution, selectivity {selectivity}",
                if distribution == SimDistribution::Uniform {
                    "uniform"
                } else {
                    "Zipf"
                },
            ),
            xlabel: "queries".to_owned(),
            ylabel: "Memory writes (B)".to_owned(),
            logy: true,
            series,
        }
    }

    /// Figure 5 (a: selectivity 0.1, b: 0.01) — cumulative memory writes,
    /// uniform distribution.
    pub fn fig5(&self) -> Vec<Figure> {
        vec![
            self.writes_figure("fig5a", SimDistribution::Uniform, 0.1),
            self.writes_figure("fig5b", SimDistribution::Uniform, 0.01),
        ]
    }

    /// Figure 6 — cumulative memory writes, Zipf distribution.
    pub fn fig6(&self) -> Vec<Figure> {
        vec![
            self.writes_figure("fig6a", SimDistribution::Zipf, 0.1),
            self.writes_figure("fig6b", SimDistribution::Zipf, 0.01),
        ]
    }

    /// Figure 7 — per-query memory reads, first 1000 queries, uniform
    /// distribution, selectivity 0.1 (four panels → four series).
    pub fn fig7(&self) -> Figure {
        let n = self.config.query_count.min(1000);
        let series = StrategyKind::SIMULATION
            .iter()
            .map(|&k| {
                let r = self.get(SimDistribution::Uniform, 0.1, k);
                Series::from_ys(r.name.clone(), r.reads_per_query().into_iter().take(n))
            })
            .collect();
        Figure {
            id: "fig7".to_owned(),
            title: "Memory reads for the first 1000 queries (uniform, sel 0.1)".to_owned(),
            xlabel: "Queries".to_owned(),
            ylabel: "Reads (B)".to_owned(),
            logy: true,
            series,
        }
    }

    /// Table 1 — average read size in KB over the whole run, per strategy
    /// and workload.
    pub fn tab1(&self) -> TableOut {
        let headers = vec![
            "Strategy".to_owned(),
            "U 0.1".to_owned(),
            "U 0.01".to_owned(),
            "Z 0.1".to_owned(),
            "Z 0.01".to_owned(),
        ];
        let rows = StrategyKind::SIMULATION
            .iter()
            .map(|&k| {
                let mut row = vec![self.get(SimDistribution::Uniform, 0.1, k).name.clone()];
                for (d, s) in [
                    (SimDistribution::Uniform, 0.1),
                    (SimDistribution::Uniform, 0.01),
                    (SimDistribution::Zipf, 0.1),
                    (SimDistribution::Zipf, 0.01),
                ] {
                    row.push(format!("{:.1}", self.get(d, s, k).avg_read_kb()));
                }
                row
            })
            .collect();
        TableOut {
            id: "tab1".to_owned(),
            title: "Average read sizes in KB for 10K queries".to_owned(),
            headers,
            rows,
        }
    }

    fn storage_figure(
        &self,
        id: &str,
        distribution: SimDistribution,
        selectivity: f64,
        first_n: usize,
    ) -> Figure {
        let n = self.config.query_count.min(first_n);
        let mut series: Vec<Series> = [StrategyKind::GdRepl, StrategyKind::ApmRepl]
            .iter()
            .map(|&k| {
                let r = self.get(distribution, selectivity, k);
                Series::from_ys(r.name.clone(), r.storage_series().into_iter().take(n))
            })
            .collect();
        series.push(Series::from_ys(
            "DB size",
            std::iter::repeat_n(self.config.db_bytes() as f64, n),
        ));
        Figure {
            id: id.to_owned(),
            title: format!(
                "Replica storage, {} distribution, selectivity {selectivity}",
                if distribution == SimDistribution::Uniform {
                    "uniform"
                } else {
                    "Zipf"
                },
            ),
            xlabel: "Queries".to_owned(),
            ylabel: "Replica storage (B)".to_owned(),
            logy: false,
            series,
        }
    }

    /// Figure 8 — replica storage over the first 500 queries, uniform.
    pub fn fig8(&self) -> Vec<Figure> {
        vec![
            self.storage_figure("fig8a", SimDistribution::Uniform, 0.1, 500),
            self.storage_figure("fig8b", SimDistribution::Uniform, 0.01, 500),
        ]
    }

    /// Figure 9 — replica storage over all 10 K queries, Zipf.
    pub fn fig9(&self) -> Vec<Figure> {
        vec![
            self.storage_figure("fig9a", SimDistribution::Zipf, 0.1, usize::MAX),
            self.storage_figure("fig9b", SimDistribution::Zipf, 0.01, usize::MAX),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared tiny matrix for all shape assertions (runs once).
    fn tiny_matrix() -> SimulationMatrix {
        run_simulation_matrix(&SimConfig::tiny())
    }

    #[test]
    fn matrix_has_all_sixteen_cells_and_paper_shapes_hold() {
        let m = tiny_matrix();
        assert_eq!(m.entries.len(), 16);

        // Headline claim (Figures 5–6): replication writes less than
        // segmentation for the same model and workload.
        for d in [SimDistribution::Uniform, SimDistribution::Zipf] {
            for sel in [0.1, 0.01] {
                let seg = m.get(d, sel, StrategyKind::ApmSegm).totals.mem_write_bytes;
                let rep = m.get(d, sel, StrategyKind::ApmRepl).totals.mem_write_bytes;
                assert!(
                    rep < seg,
                    "{d:?}/{sel}: APM Repl {rep} must write less than APM Segm {seg}"
                );
            }
        }

        // Figure 7 shape: segmentation reads drop well below the first-query
        // full scan.
        let r = m.get(SimDistribution::Uniform, 0.1, StrategyKind::ApmSegm);
        let reads = r.reads_per_query();
        let first = reads[0];
        let tail_avg: f64 = reads[150..].iter().sum::<f64>() / (reads.len() - 150) as f64;
        assert!(tail_avg < first / 2.0, "first {first}, tail {tail_avg}");

        // Figures 8–9 shape: replication storage peaks above DB size and
        // the initial column is eventually dropped.
        let r = m.get(SimDistribution::Uniform, 0.1, StrategyKind::ApmRepl);
        let db = m.config.db_bytes() as f64;
        let storage = r.storage_series();
        let peak = storage.iter().copied().fold(0.0, f64::max);
        let last = *storage.last().expect("non-empty");
        assert!(peak > db, "peak {peak} must exceed DB size {db}");
        assert!(last < peak, "storage must come down from the peak");
    }

    #[test]
    fn figures_and_tables_have_expected_arity() {
        let m = tiny_matrix();
        let f5 = m.fig5();
        assert_eq!(f5.len(), 2);
        assert_eq!(f5[0].series.len(), 4);
        assert_eq!(f5[0].series[0].points.len(), m.config.query_count);
        let f7 = m.fig7();
        assert_eq!(f7.series.len(), 4);
        let t1 = m.tab1();
        assert_eq!(t1.rows.len(), 4);
        assert_eq!(t1.headers.len(), 5);
        let f8 = m.fig8();
        assert_eq!(f8.len(), 2);
        assert_eq!(f8[0].series.len(), 3, "two strategies + DB-size line");
        let f9 = m.fig9();
        assert_eq!(f9[0].series[0].points.len(), m.config.query_count);
    }

    #[test]
    fn cumulative_writes_are_monotone() {
        let m = tiny_matrix();
        for e in &m.entries {
            let w = e.result.cumulative_writes();
            assert!(
                w.windows(2).all(|p| p[1] >= p[0]),
                "{:?} writes not monotone",
                e.kind
            );
        }
    }
}
