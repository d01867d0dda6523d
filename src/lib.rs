//! # socdb — self-organizing strategies for a column-store database
//!
//! A production-quality Rust reproduction of *"Self-organizing Strategies
//! for a Column-store Database"* (Ivanova, Kersten & Nes, EDBT 2008):
//! adaptive segmentation and adaptive replication for value-organized
//! columns, with the Gaussian Dice and Adaptive Page Model policies, a
//! MonetDB-style BAT/MAL substrate, and the full experiment harness
//! regenerating every table and figure of the paper's evaluation.
//!
//! This crate is a facade; the implementation lives in the workspace
//! crates, re-exported here under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`adaptive`] | `soc-core` | segments, models, segmentation, replication |
//! | [`bat`] | `soc-bat` | binary association tables + kernel algebra |
//! | [`mal`] | `soc-mal` | MAL parser/interpreter + segment optimizer |
//! | [`workload`] | `soc-workload` | dataset & query generators |
//! | [`sim`] | `soc-sim` | buffer/cost simulator + experiment drivers |
//! | [`store`] | `soc-store` | checksummed segment files for the catalog checkpoint |
//!
//! ## Quick start
//!
//! ```
//! use socdb::prelude::*;
//!
//! // Load a column, self-organize it under APM, watch reads shrink.
//! let domain = ValueRange::must(0u32, 999_999);
//! let values = socdb::workload::uniform_values(100_000, &domain, 42);
//! let column = SegmentedColumn::new(domain, values).unwrap();
//! let mut strategy = AdaptiveSegmentation::new(
//!     column,
//!     Box::new(AdaptivePageModel::simulation_default()),
//!     SizeEstimator::Uniform,
//! );
//! let mut tracker = CountingTracker::new();
//! let q = ValueRange::must(100_000, 199_999);
//! strategy.select_count(&q, &mut tracker); // full scan + reorganization
//! tracker.begin_query();
//! strategy.select_count(&q, &mut tracker); // now touches ~10% of the data
//! assert!(tracker.query_stats().read_bytes < 100_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub use soc_bat as bat;
pub use soc_core as adaptive;
pub use soc_mal as mal;
pub use soc_sim as sim;
pub use soc_store as store;
pub use soc_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use soc_core::{
        pair_rows, AccessTracker, AdaptationStats, AdaptivePageModel, AdaptiveReplication,
        AdaptiveSegmentation, ColumnStrategy, ColumnValue, ConcurrentColumn, CountingTracker,
        CrackedColumn, EventLog, FullySorted, GaussianDice, MergePolicy, NonSegmented, NullTracker,
        OrdF64, Pair, PieceSynopsis, ReplicaTree, SegmentationModel, SegmentedColumn,
        SizeEstimator, StrategyKind, StrategySnapshot, StrategySpec, SynopsisClass, TrackerEvent,
        ValueRange,
    };
    pub use soc_sim::{
        build_strategy, run_queries, CostModel, MigrationReport, Placement, PlacementError,
        PlacementPolicy, RunResult, ShardError, ShardedColumn, SimTracker,
    };
    pub use soc_workload::{skyserver_domain, skyserver_ra, uniform_values, WorkloadSpec};
}
