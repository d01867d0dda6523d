//! # soc-sim — the architecture-conscious simulator
//!
//! Section 6.1: "We simulated the core algorithms of MonetDB, its
//! management in a constrained memory buffer setting, and its read/write
//! behavior as data is flushed to secondary store."
//!
//! This crate is that simulator, plus the experiment drivers that
//! regenerate every table and figure of the paper's evaluation:
//!
//! * `buffer` — LRU buffer pool over segments, write-back flushing;
//! * `cost` — the 2008-desktop cost model converting byte/seek counters
//!   into milliseconds (the Section 6.2 time axes);
//! * `runner` — per-query instrumentation of any [`soc_core::ColumnStrategy`];
//! * [`experiment`] — Figures 5–16, Tables 1–2, and the ablations
//!   (cracking, APM bounds, merging, buffer, budget, auto-APM,
//!   estimator, placement, sharding, SQL×strategy);
//! * `placement` — segment-to-node assignment policies (the §8 outlook);
//! * `shard` — the sharded column: a `ColumnStrategy` combinator holding
//!   one strategy per node and routing range selections, and delta folds,
//!   via the placement plan;
//! * [`output`] — text/CSV renderers used by the `repro` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub(crate) mod buffer;
pub(crate) mod cost;
pub mod experiment;
pub mod output;
pub(crate) mod placement;
pub(crate) mod runner;
pub(crate) mod shard;
pub(crate) mod stats;

pub use cost::CostModel;
pub use experiment::{build_strategy, Figure, Series, TableOut};
pub use placement::{Placement, PlacementError, PlacementPolicy};
pub use runner::{run_queries, RunResult, SimTracker};
pub use shard::{MigrationReport, ShardError, ShardedColumn};
