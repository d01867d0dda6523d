//! # soc-store — file-backed segment storage
//!
//! The paper's simulator models "read/write behavior as data is flushed to
//! secondary store" (Section 6.1); this crate makes the secondary store
//! real: one checksummed file per segment, written atomically and checked
//! value by value on load. The catalog checkpoint (`soc_mal`'s
//! `Catalog::save_all`/`load_all`) persists every column's rows through
//! it; the physical organization is not saved — the workload rebuilds it.
//!
//! ```
//! use soc_core::{SegId, ValueRange};
//! use soc_store::SegmentStore;
//!
//! let dir = std::env::temp_dir().join("soc-store-doc");
//! let store = SegmentStore::open(&dir).unwrap();
//! let values: Vec<u32> = (0..1000).collect();
//! store.save(SegId(0), &ValueRange::must(0u32, 999), &values).unwrap();
//! let (range, back) = store.load::<u32>(SegId(0)).unwrap();
//! assert_eq!(range, ValueRange::must(0, 999));
//! assert_eq!(back, values);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod codec;
pub(crate) mod store;

pub use codec::FixedCodec;
pub use store::{SegmentStore, StoreError};
