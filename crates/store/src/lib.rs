//! # soc-store — file-backed segment storage
//!
//! The paper's simulator models "read/write behavior as data is flushed to
//! secondary store" (Section 6.1); this crate makes the secondary store
//! real: one checksummed file per segment, incremental checkpointing of a
//! [`soc_core::SegmentedColumn`] (only segments created since the last
//! checkpoint are written, dropped segments are unlinked — mirroring the
//! `materialize`/`free` tracker events), and byte-exact restore. Replica
//! trees round-trip whole through [`save_tree`]/[`load_tree`]; cracked
//! columns — data in cracked order plus the cracker index — through
//! [`save_cracked`]/[`load_cracked`], so every strategy family survives a
//! restart with its reorganization intact.
//!
//! ```
//! use soc_core::{SegmentedColumn, ValueRange};
//! use soc_store::SegmentStore;
//!
//! let dir = std::env::temp_dir().join("soc-store-doc");
//! let store = SegmentStore::open(&dir).unwrap();
//! let column = SegmentedColumn::new(
//!     ValueRange::must(0u32, 999),
//!     (0..1000).collect(),
//! ).unwrap();
//! store.checkpoint(&column).unwrap();
//! let restored: SegmentedColumn<u32> = store.restore().unwrap();
//! assert_eq!(restored.total_len(), 1000);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod codec;
pub mod crack;
pub mod store;
pub mod tree;

pub use codec::FixedCodec;
pub use crack::{load_cracked, save_cracked};
pub use store::{SegmentStore, StoreError};
pub use tree::{load_tree, save_tree};
