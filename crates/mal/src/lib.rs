//! # soc-mal — the MAL plan layer and the tactical segment optimizer
//!
//! A working subset of the MonetDB Assembly Language (Section 2): parser,
//! interpreter with guarded blocks, a catalog, and the `bpm` runtime for
//! segmented bats. The [`SegmentOptimizer`] implements the Section 3.1
//! integration point — it detects selections over segmented columns in a
//! plan and rewrites them into segment-aware instruction sequences
//! (unrolled for few segments, iterator-based for many), injecting the
//! `bpm.adapt` reorganization hook of Section 3.3.
//!
//! Physical design flows through one currency: the catalog registers a
//! [`soc_core::StrategySpec`] per segmented column, [`SegmentedBat`] is a
//! thin `(oid, value)`-pair-preserving adapter over the boxed
//! [`soc_core::ColumnStrategy`] it builds, and SQL can pick or inspect the
//! strategy (`ALTER COLUMN … SET STRATEGY`, `bpm.strategy`). All nine
//! strategy kinds — segmentation, replication, cracking, the baselines —
//! are therefore drivable from the query layer, not just segmentation.
//!
//! The paper's Figure 1 plan parses and runs verbatim; see
//! `examples/mal_optimizer.rs` for the end-to-end tour.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ast;
pub mod bpm;
pub mod catalog;
pub mod checkpoint;
pub mod interp;
pub mod optimizer;
pub mod parser;
pub mod sql;

pub use ast::{Arg, Instruction, Name, Program, Stmt};
pub use bpm::{BpmError, SegmentedBat};
pub use catalog::{Catalog, CatalogError, MergeReport};
pub use checkpoint::CheckpointError;
pub use interp::{ExecError, Interp, MalValue};
pub use optimizer::{OptimizerReport, RewriteStrategy, SegmentOptimizer};
pub use parser::{parse, ParseError};
pub use sql::{
    compile_alter, compile_alter_table, compile_select, compile_stmt, parse_alter,
    parse_alter_table, parse_select, parse_stmt, AlterMergeThreshold, AlterStrategy, SelectBetween,
    SqlError, SqlStmt,
};
