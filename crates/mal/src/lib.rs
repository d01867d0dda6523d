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
//! [`soc_core::StrategySpec`] per segmented column, `SegmentedBat` is a
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

pub(crate) mod ast;
pub(crate) mod bpm;
pub(crate) mod catalog;
pub(crate) mod checkpoint;
pub(crate) mod interp;
pub(crate) mod optimizer;
pub(crate) mod parser;
pub(crate) mod sql;

pub use ast::Program;
pub use catalog::Catalog;
pub use interp::{Interp, MalValue};
pub use optimizer::{RewriteStrategy, SegmentOptimizer};
pub use parser::parse;
pub use sql::{compile_select, compile_stmt, parse_stmt};

#[cfg(test)]
mod tests {
    mod damaged_manifest;
    mod roundtrip;
}
