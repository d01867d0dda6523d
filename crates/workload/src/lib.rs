//! # soc-workload — deterministic workload & dataset generation
//!
//! Everything the EDBT'08 evaluation throws at a column:
//!
//! * datasets — uniform integer columns (Section 6.1) and a synthetic
//!   SkyServer `ra` column (Section 6.2),
//! * range-query workloads — uniform / Zipf positions with a selectivity
//!   factor, the two-hot-areas "skew" load, and the four-phase "changing"
//!   load,
//! * a small exact `zipf::Zipf` sampler.
//!
//! All generators are pure functions of their seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub(crate) mod dataset;
pub(crate) mod oracle;
pub(crate) mod queries;
pub(crate) mod zipf;

pub use dataset::{skyserver_domain, skyserver_ra, uniform_values, zipf_values};
pub use oracle::Oracle;
pub use queries::WorkloadSpec;
