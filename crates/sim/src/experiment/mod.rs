//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section 6), plus ablations.
//!
//! * [`simulation`] — the Section 6.1 simulator matrix: Figures 5, 6, 7,
//!   8, 9 and Table 1.
//! * [`skyserver`] — the Section 6.2 SkyServer-style workload: Figures
//!   10–16 and Table 2.
//! * [`ablation`] — extensions: database-cracking comparison, APM bound
//!   sweep, GD merge policy, disk-bound buffer study, storage budget,
//!   auto-APM, estimators, placement/sharding, and the SQL×strategy
//!   integration sweep.

pub mod ablation;
pub mod simulation;
pub mod skyserver;

use soc_core::{ColumnStrategy, ColumnValue, ValueRange};

pub(crate) use soc_core::{StrategyKind, StrategySpec};

/// One plotted line of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from y-values with x = 1, 2, 3, … (query number).
    pub(crate) fn from_ys(label: impl Into<String>, ys: impl IntoIterator<Item = f64>) -> Self {
        Series {
            label: label.into(),
            points: ys
                .into_iter()
                .enumerate()
                .map(|(i, y)| ((i + 1) as f64, y))
                .collect(),
        }
    }
}

/// A reproduced figure: series plus axis metadata.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier matching the paper ("fig5a", "fig12", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// Whether the paper plots this with a logarithmic y axis.
    pub logy: bool,
    /// The plotted lines.
    pub series: Vec<Series>,
}

/// A reproduced table.
#[derive(Debug, Clone)]
pub struct TableOut {
    /// Identifier matching the paper ("tab1", "tab2", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells, formatted.
    pub rows: Vec<Vec<String>>,
}

/// Builds a ready-to-run strategy over `values` through the unified
/// [`StrategySpec`] factory in `soc-core`.
///
/// `mmin`/`mmax` configure the APM variants (bytes); `model_seed` feeds the
/// Gaussian Dice so runs are reproducible.
///
/// # Panics
/// Panics when `values` violate `domain`; the experiment drivers generate
/// both, so a violation is a driver bug.
pub fn build_strategy<V: ColumnValue>(
    kind: StrategyKind,
    domain: ValueRange<V>,
    values: Vec<V>,
    mmin: u64,
    mmax: u64,
    model_seed: u64,
) -> Box<dyn ColumnStrategy<V>> {
    StrategySpec::new(kind)
        .with_apm_bounds(mmin, mmax)
        .with_model_seed(model_seed)
        .build(domain, values)
        .expect("values within domain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_core::NullTracker;

    #[test]
    fn factory_builds_every_kind() {
        for kind in StrategyKind::ALL {
            let values: Vec<u32> = (0..1000).collect();
            let mut s = build_strategy(kind, ValueRange::must(0, 999), values, 64, 256, 1);
            let n = s.select_count(&ValueRange::must(100, 199), &mut NullTracker);
            assert_eq!(n, 100, "{kind:?}");
            assert!(s.storage_bytes() >= 4000, "{kind:?}");
        }
    }

    #[test]
    fn series_from_ys_numbers_queries_from_one() {
        let s = Series::from_ys("x", [5.0, 6.0]);
        assert_eq!(s.points, vec![(1.0, 5.0), (2.0, 6.0)]);
    }
}
