//! Adaptive replication (Section 5): the replica tree and its algorithms.
//!
//! * `tree` — the hierarchy of materialized and virtual segments
//!   (Algorithm 5's drop rule lives here too).
//! * `cover` — the minimal covering set search (Algorithm 3).
//! * `analyze` — replica analysis attaching new segments (Algorithm 4).
//! * `strategy` — [`AdaptiveReplication`], the query-execution loop
//!   interleaving all of the above (Algorithm 2).

pub(crate) mod analyze;
pub(crate) mod arena;
pub(crate) mod cover;
pub(crate) mod strategy;
pub(crate) mod tree;

pub use arena::NodeId;
pub use strategy::AdaptiveReplication;
pub use tree::ReplicaTree;
