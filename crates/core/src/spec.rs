//! Declarative strategy construction: one factory for every column
//! organization the evaluation compares.
//!
//! [`StrategyKind`] names each strategy of the Section 6 evaluation (plus
//! the ablation baselines); [`StrategySpec`] carries the tuning knobs —
//! APM bounds, model seed, size estimator, storage budget, merge policy —
//! and [`StrategySpec::build`] produces a ready-to-run
//! `Box<dyn ColumnStrategy<V>>`. Every execution layer (the `soc-sim`
//! experiment drivers, the `soc-bench` repro binary, the `socdb` facade)
//! constructs strategies through this one path, so adding a strategy means
//! touching exactly this module.

use crate::baseline::{FullySorted, NonSegmented};
use crate::column::{ColumnError, SegmentedColumn};
use crate::cracking::CrackedColumn;
use crate::estimate::SizeEstimator;
use crate::merge::{MergePolicy, MergingSegmentation};
use crate::model::{AdaptivePageModel, AutoTunedApm, GaussianDice, SegmentationModel};
use crate::range::ValueRange;
use crate::replication::{AdaptiveReplication, ReplicaTree};
use crate::segmentation::AdaptiveSegmentation;
use crate::strategy::ColumnStrategy;
use crate::value::ColumnValue;

/// The strategies the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Positional organization, full scan per query ("NoSegm").
    NoSegm,
    /// Gaussian Dice × adaptive segmentation.
    GdSegm,
    /// Gaussian Dice × adaptive replication.
    GdRepl,
    /// Adaptive Page Model × adaptive segmentation.
    ApmSegm,
    /// Adaptive Page Model × adaptive replication.
    ApmRepl,
    /// Self-tuning APM × adaptive segmentation (the Section 8
    /// "automatically determine … controlling parameters" extension).
    AutoApmSegm,
    /// Database cracking (related-work ablation).
    Cracking,
    /// Fully sorted at load time (eager-total-reorganization ablation).
    FullSort,
    /// GD segmentation with the post-query merge pass (Section 8 extension).
    GdSegmMerged,
}

impl StrategyKind {
    /// The four strategies of the Section 6.1 simulation.
    pub const SIMULATION: [StrategyKind; 4] = [
        StrategyKind::GdSegm,
        StrategyKind::GdRepl,
        StrategyKind::ApmSegm,
        StrategyKind::ApmRepl,
    ];

    /// Every constructible kind, for sweeps and smoke tests.
    pub const ALL: [StrategyKind; 9] = [
        StrategyKind::NoSegm,
        StrategyKind::GdSegm,
        StrategyKind::GdRepl,
        StrategyKind::ApmSegm,
        StrategyKind::ApmRepl,
        StrategyKind::AutoApmSegm,
        StrategyKind::Cracking,
        StrategyKind::FullSort,
        StrategyKind::GdSegmMerged,
    ];

    /// Whether this strategy reorganizes in response to the workload (the
    /// static baselines NoSegm/FullSort do not).
    pub fn is_adaptive(self) -> bool {
        !matches!(self, StrategyKind::NoSegm | StrategyKind::FullSort)
    }

    /// The kind's stable lowercase token, used by catalog DDL
    /// (`ALTER COLUMN … SET STRATEGY <token>`) and experiment output.
    pub fn token(self) -> &'static str {
        match self {
            StrategyKind::NoSegm => "nosegm",
            StrategyKind::GdSegm => "gd_segm",
            StrategyKind::GdRepl => "gd_repl",
            StrategyKind::ApmSegm => "apm_segm",
            StrategyKind::ApmRepl => "apm_repl",
            StrategyKind::AutoApmSegm => "auto_apm_segm",
            StrategyKind::Cracking => "cracking",
            StrategyKind::FullSort => "fullsort",
            StrategyKind::GdSegmMerged => "gd_segm_merged",
        }
    }

    /// Parses a [`Self::token`] (case-insensitive). `None` for unknown
    /// names — callers turn that into their own typed error.
    pub fn from_token(token: &str) -> Option<StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.token().eq_ignore_ascii_case(token))
    }
}

/// A complete, declarative description of a strategy configuration.
///
/// ```
/// use soc_core::{CountingTracker, StrategyKind, StrategySpec, ValueRange};
///
/// let domain = ValueRange::must(0u32, 99_999);
/// let values: Vec<u32> = (0..10_000u32).map(|i| (i * 7) % 100_000).collect();
/// let mut strategy = StrategySpec::new(StrategyKind::ApmSegm)
///     .with_apm_bounds(1024, 4096)
///     .build(domain, values)
///     .unwrap();
/// let mut tracker = CountingTracker::new();
/// let n = strategy.select_count(&ValueRange::must(0, 9_999), &mut tracker);
/// assert!(n > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StrategySpec {
    /// Which strategy to build.
    pub kind: StrategyKind,
    /// APM lower bound in bytes (paper default: 3 KB). Ignored by
    /// non-APM kinds.
    pub mmin: u64,
    /// APM upper bound in bytes (paper default: 12 KB). Ignored by
    /// non-APM kinds.
    pub mmax: u64,
    /// Seed for the Gaussian Dice. Ignored by non-GD kinds.
    pub model_seed: u64,
    /// What the segmentation model sees: optimizer-level uniform
    /// interpolation (default) or exact piece sizes. Segmentation
    /// kinds only.
    pub estimator: SizeEstimator,
    /// Cap on total materialized storage in bytes. Replication kinds only.
    pub storage_budget: Option<u64>,
    /// Merge policy for [`StrategyKind::GdSegmMerged`]; defaults to
    /// `MergePolicy::new(mmin, mmax)` when unset.
    pub merge: Option<MergePolicy>,
}

impl StrategySpec {
    /// A spec for `kind` with the paper's simulation defaults
    /// (Mmin = 3 KB, Mmax = 12 KB, uniform estimator, no budget).
    pub fn new(kind: StrategyKind) -> Self {
        StrategySpec {
            kind,
            mmin: 3 * 1024,
            mmax: 12 * 1024,
            model_seed: 0,
            estimator: SizeEstimator::Uniform,
            storage_budget: None,
            merge: None,
        }
    }

    /// Sets the APM `(Mmin, Mmax)` band in bytes.
    #[must_use]
    pub fn with_apm_bounds(mut self, mmin: u64, mmax: u64) -> Self {
        self.mmin = mmin;
        self.mmax = mmax;
        self
    }

    /// Seeds the Gaussian Dice for reproducible runs.
    #[must_use]
    pub fn with_model_seed(mut self, seed: u64) -> Self {
        self.model_seed = seed;
        self
    }

    /// Chooses the size estimator the model decides on.
    #[must_use]
    pub fn with_estimator(mut self, estimator: SizeEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Caps materialized storage (replication kinds).
    #[must_use]
    pub fn with_storage_budget(mut self, budget_bytes: u64) -> Self {
        self.storage_budget = Some(budget_bytes);
        self
    }

    /// Overrides the merge policy ([`StrategyKind::GdSegmMerged`]).
    #[must_use]
    pub fn with_merge(mut self, policy: MergePolicy) -> Self {
        self.merge = Some(policy);
        self
    }

    fn gd(&self) -> Box<dyn SegmentationModel> {
        Box::new(GaussianDice::new(self.model_seed))
    }

    fn apm(&self) -> Box<dyn SegmentationModel> {
        Box::new(AdaptivePageModel::new(self.mmin, self.mmax))
    }

    fn segmentation<V: ColumnValue>(
        &self,
        domain: ValueRange<V>,
        values: Vec<V>,
        model: Box<dyn SegmentationModel>,
    ) -> Result<AdaptiveSegmentation<V>, ColumnError> {
        Ok(AdaptiveSegmentation::new(
            SegmentedColumn::new(domain, values)?,
            model,
            self.estimator,
        ))
    }

    fn replication<V: ColumnValue>(
        &self,
        domain: ValueRange<V>,
        values: Vec<V>,
        model: Box<dyn SegmentationModel>,
    ) -> Result<AdaptiveReplication<V>, ColumnError> {
        let mut strategy = AdaptiveReplication::new(ReplicaTree::new(domain, values)?, model);
        if let Some(budget) = self.storage_budget {
            strategy = strategy.with_storage_budget(budget);
        }
        Ok(strategy)
    }

    /// Builds the configured strategy over `values` (claimed to lie in
    /// `domain`).
    ///
    /// # Errors
    /// Returns the [`ColumnError`] of the underlying column constructor
    /// when the values violate `domain`.
    pub fn build<V: ColumnValue>(
        &self,
        domain: ValueRange<V>,
        values: Vec<V>,
    ) -> Result<Box<dyn ColumnStrategy<V>>, ColumnError> {
        Ok(match self.kind {
            StrategyKind::NoSegm => Box::new(NonSegmented::new(domain, values)),
            StrategyKind::GdSegm => Box::new(self.segmentation(domain, values, self.gd())?),
            StrategyKind::ApmSegm => Box::new(self.segmentation(domain, values, self.apm())?),
            StrategyKind::AutoApmSegm => {
                Box::new(self.segmentation(domain, values, Box::new(AutoTunedApm::new()))?)
            }
            StrategyKind::GdRepl => Box::new(self.replication(domain, values, self.gd())?),
            StrategyKind::ApmRepl => Box::new(self.replication(domain, values, self.apm())?),
            StrategyKind::Cracking => Box::new(CrackedColumn::new(values)),
            StrategyKind::FullSort => Box::new(FullySorted::new(domain, values)),
            StrategyKind::GdSegmMerged => {
                let policy = self
                    .merge
                    .unwrap_or_else(|| MergePolicy::new(self.mmin, self.mmax));
                Box::new(MergingSegmentation::new(
                    self.segmentation(domain, values, self.gd())?,
                    policy,
                ))
            }
        })
    }

    /// Builds the configured strategy over `(oid, value)` rows, organizing
    /// by value while preserving each row's oid through any reorganization
    /// (see [`crate::paired::Pair`]). This is the construction the MAL
    /// `bpm` layer uses, where bats must keep their heads.
    ///
    /// # Errors
    /// As [`Self::build`], when a row's value lies outside `domain`.
    pub fn build_paired<V: ColumnValue>(
        &self,
        domain: ValueRange<V>,
        rows: Vec<(u64, V)>,
    ) -> Result<Box<dyn ColumnStrategy<crate::paired::Pair<V>>>, ColumnError> {
        self.build(domain.paired(), crate::paired::pair_rows(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{CountingTracker, NullTracker};

    fn domain() -> ValueRange<u32> {
        ValueRange::must(0, 9_999)
    }

    fn values() -> Vec<u32> {
        (0..5_000u32).map(|i| (i * 7919) % 10_000).collect()
    }

    #[test]
    fn every_kind_builds_and_answers_correctly() {
        let q = ValueRange::must(2_000, 3_999);
        let expect = values().iter().filter(|v| q.contains(**v)).count() as u64;
        for kind in StrategyKind::ALL {
            let mut s = StrategySpec::new(kind)
                .with_apm_bounds(256, 1024)
                .with_model_seed(11)
                .build(domain(), values())
                .expect("values lie in domain");
            assert_eq!(s.select_count(&q, &mut NullTracker), expect, "{kind:?}");
            assert_eq!(s.select_count(&q, &mut NullTracker), expect, "{kind:?}");
            assert!(s.storage_bytes() >= 20_000, "{kind:?}");
            assert!(s.segment_count() >= 1, "{kind:?}");
        }
    }

    #[test]
    fn build_rejects_out_of_domain_values() {
        let r =
            StrategySpec::new(StrategyKind::ApmSegm).build(ValueRange::must(0u32, 10), vec![5, 11]);
        assert!(r.is_err());
    }

    #[test]
    fn adaptive_kinds_report_adaptation_static_kinds_do_not() {
        let queries: Vec<ValueRange<u32>> = (0..40)
            .map(|i| {
                let lo = (i * 241) % 9_000;
                ValueRange::must(lo, lo + 800)
            })
            .collect();
        for kind in StrategyKind::ALL {
            let mut s = StrategySpec::new(kind)
                .with_apm_bounds(128, 512)
                .with_model_seed(3)
                .build(domain(), values())
                .expect("values lie in domain");
            for q in &queries {
                s.select_count(q, &mut NullTracker);
            }
            let a = s.adaptation();
            let activity = a.splits + a.merges + a.replicas_created;
            if kind.is_adaptive() {
                assert!(activity > 0, "{kind:?} reported no adaptation");
            } else {
                assert_eq!(a, Default::default(), "{kind:?} must stay static");
            }
        }
    }

    #[test]
    fn storage_budget_flows_through_the_spec() {
        let mut s = StrategySpec::new(StrategyKind::ApmRepl)
            .with_apm_bounds(128, 512)
            .with_storage_budget(20_000) // clamps to the column itself
            .build(domain(), values())
            .expect("values lie in domain");
        let mut t = CountingTracker::new();
        for i in 0..30 {
            let lo = (i * 331) % 9_000;
            s.select_count(&ValueRange::must(lo, lo + 500), &mut t);
        }
        assert!(
            s.adaptation().budget_declines > 0,
            "a bare-column budget must decline materializations"
        );
        assert_eq!(s.storage_bytes(), 20_000, "budget held");
    }

    #[test]
    fn segment_ranges_tile_in_value_order_for_segmentation() {
        let mut s = StrategySpec::new(StrategyKind::ApmSegm)
            .with_apm_bounds(128, 512)
            .build(domain(), values())
            .expect("values lie in domain");
        for i in 0..40 {
            let lo = (i * 613) % 9_000;
            s.select_count(&ValueRange::must(lo, lo + 700), &mut NullTracker);
        }
        let ranges = s.segment_ranges();
        assert_eq!(ranges.len(), s.segment_count());
        assert!(ranges.windows(2).all(|w| w[0].hi() < w[1].lo()));
        assert_eq!(ranges.first().expect("non-empty").lo(), 0);
        assert_eq!(ranges.last().expect("non-empty").hi(), 9_999);
    }
}
