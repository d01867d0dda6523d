//! # soc-bat — the MonetDB-style BAT substrate
//!
//! Binary association tables (Section 2 of the paper) and the kernel
//! algebra the example plans use: `select`, `uselect`, `kunion`,
//! `kdifference`, `kintersect`, `markT`, `reverse`, `join`, `slice`, and
//! the aggregates. Every operator materializes its result, mirroring
//! MonetDB's execution paradigm; columns live in shared immutable buffers,
//! so a clone — or a result that is one of its inputs — copies nothing.
//!
//! ```
//! use soc_bat::{algebra, Atom, Bat};
//!
//! // select objId from P where ra between 205.1 and 205.12 — the tail of
//! // Figure 1, in kernel calls.
//! let ra = Bat::dense_dbl(vec![205.05, 205.11, 205.13, 205.115]);
//! let obj_id = Bat::dense_int(vec![9001, 9002, 9003, 9004]);
//! let hits = algebra::uselect(&ra, &Atom::Dbl(205.1), &Atom::Dbl(205.12)).unwrap();
//! let ids = algebra::join(
//!     &algebra::reverse(&algebra::mark_t(&hits, 0)).unwrap(),
//!     &obj_id,
//! ).unwrap();
//! assert_eq!(ids.len(), 2); // 9002 and 9004 qualify
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod algebra;
pub(crate) mod bat;
#[cfg(test)]
mod reference;

pub use algebra::Atom;
pub use bat::{Bat, BatError, Head, Oid, Tail};
