//! # soc-core — self-organizing strategies for a column store
//!
//! A faithful reproduction of the core of *"Self-organizing Strategies for
//! a Column-store Database"* (Ivanova, Kersten, Nes — EDBT 2008): two
//! workload-driven reorganization techniques for value-organized columns,
//! driven by pluggable segmentation models.
//!
//! * **Adaptive segmentation** ([`AdaptiveSegmentation`], Section 4) keeps a
//!   column as a list of adjacent value-ranged segments and eagerly splits
//!   the segments each range selection overlaps, in place.
//! * **Adaptive replication** ([`AdaptiveReplication`], Section 5) grows a
//!   replica tree: selection results are retained as materialized replicas,
//!   complements become virtual segments materialized lazily by later
//!   queries; fully replicated parents are dropped to reclaim storage.
//! * **Segmentation models** ([`GaussianDice`], [`AdaptivePageModel`],
//!   Section 3.2) decide split-or-not from size estimates only.
//!
//! ## Quick start
//!
//! ```
//! use soc_core::{
//!     AdaptivePageModel, AdaptiveSegmentation, ColumnStrategy, CountingTracker,
//!     SegmentedColumn, SizeEstimator, ValueRange,
//! };
//!
//! // A column of 100k uniformly distributed 4-byte values.
//! let values: Vec<u32> =
//!     (0..100_000u64).map(|i| ((i * 2_654_435_761) % 1_000_000) as u32).collect();
//! let column = SegmentedColumn::new(ValueRange::must(0, 999_999), values).unwrap();
//!
//! // Self-organize under the Adaptive Page Model (Mmin=3KB, Mmax=12KB).
//! let model = Box::new(AdaptivePageModel::simulation_default());
//! let mut strategy = AdaptiveSegmentation::new(column, model, SizeEstimator::Uniform);
//!
//! let mut tracker = CountingTracker::new();
//! let n = strategy.select_count(&ValueRange::must(100_000, 199_999), &mut tracker);
//! assert!(n > 0);
//! // The first query scanned the whole column and reorganized it…
//! assert!(strategy.segment_count() > 1);
//! // …so an identical query now touches a fraction of the data.
//! tracker.begin_query();
//! strategy.select_count(&ValueRange::must(100_000, 199_999), &mut tracker);
//! assert!(tracker.query_stats().read_bytes < 100_000);
//! ```
//!
//! All data movement is observable through [`AccessTracker`], which is how
//! the experiment harness (`soc-sim`) reproduces the paper's read/write
//! figures without instrumenting the algorithms themselves.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod admission;
pub(crate) mod baseline;
pub(crate) mod column;
pub mod compress;
pub(crate) mod cracking;
pub(crate) mod delta;
pub(crate) mod epoch;
pub(crate) mod estimate;
pub(crate) mod faults;
pub mod kernels;
pub mod merge;
pub(crate) mod model;
pub(crate) mod paired;
pub(crate) mod range;
pub mod replication;
pub(crate) mod segment;
pub(crate) mod segmentation;
pub(crate) mod spec;
pub(crate) mod strategy;
pub(crate) mod synopsis;
pub(crate) mod tracker;
pub mod validate;
pub(crate) mod value;

pub use admission::{AdmissionConfig, AdmissionGate};
pub use baseline::{FullySorted, NonSegmented};
pub use column::{ColumnError, SegmentedColumn};
pub use compress::EncodedPayload;
pub use cracking::CrackedColumn;
pub use delta::{DeltaBatch, DeltaOp, DeltaRun};
pub use epoch::{ConcurrentColumn, StrategySnapshot};
pub use estimate::SizeEstimator;
pub use faults::{Fault, FaultInjector, FaultPlan, FaultSite, NoFaults};
pub use merge::MergePolicy;
pub use model::{AdaptivePageModel, GaussianDice, SegmentationModel, SplitGeometry, Technique};
pub use paired::{pair_rows, Pair};
pub use range::ValueRange;
pub use replication::{AdaptiveReplication, ReplicaTree};
pub use segment::{SegId, SegIdGen};
pub use segmentation::AdaptiveSegmentation;
pub use spec::{StrategyKind, StrategySpec};
pub use strategy::{AdaptationStats, ColumnStrategy};
pub use synopsis::{PieceSynopsis, SynopsisClass};
pub use tracker::{AccessTracker, CountingTracker, EventLog, NullTracker, TrackerEvent};
pub use validate::Violation;
pub use value::{ColumnValue, OrdF64};

#[cfg(test)]
mod tests {
    mod figure3_walkthrough;
    mod fold_delta_properties;
    mod model_properties;
    mod racing_compaction;
    mod two_thread_scans;
}
