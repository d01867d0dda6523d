//! The on-disk segment file.
//!
//! One file per segment, named by [`SegId`]. The file carries the
//! segment's value range and its values, checksummed, and is replaced
//! atomically (temp file + rename), so a crash mid-save leaves the
//! previously committed file intact.
//!
//! Format `SOCSEG02`: magic, the value type's [`FixedCodec::KIND`] byte, an
//! encoding byte (always `0`, raw), then little-endian `u64` words — value
//! count, range `lo`, range `hi`, one word per value, and a checksum over
//! the encoding byte, the range and the values.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use soc_core::{ColumnValue, Fault, FaultInjector, FaultSite, NoFaults, SegId, ValueRange};

use crate::codec::FixedCodec;

const MAGIC: &[u8; 8] = b"SOCSEG02";
/// The encoding byte of a raw payload, the only one the store writes.
const RAW: u8 = 0;

/// Errors from the segment store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a segment file or is truncated.
    Malformed {
        /// Which file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// Checksum mismatch — the file is corrupt.
    Corrupt {
        /// Which file.
        path: PathBuf,
    },
    /// The file stores a different value type.
    WrongKind {
        /// Expected type tag.
        expected: u8,
        /// Found type tag.
        found: u8,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Malformed { path, reason } => {
                write!(f, "{} is malformed: {reason}", path.display())
            }
            StoreError::Corrupt { path } => {
                write!(f, "{} failed its checksum", path.display())
            }
            StoreError::WrongKind { expected, found } => {
                write!(f, "wrong value kind: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Rotating XOR: order-sensitive, cheap, catches the truncation and
/// bit-flip cases the tests exercise. Not cryptographic.
fn xor_checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0x50C5_E600_D1CE_0001u64;
    for w in words {
        acc = acc.rotate_left(7) ^ w;
    }
    acc
}

/// A directory of segment files.
pub struct SegmentStore {
    dir: PathBuf,
    fsync: bool,
    /// Fault seam: consulted before each save's commit rename
    /// ([`FaultSite::StoreSave`] — an injected fault crashes "between
    /// temp-write and rename", leaving a stale `.tmp`) and before each
    /// read ([`FaultSite::StoreRestore`]).
    injector: Arc<dyn FaultInjector>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

impl SegmentStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SegmentStore {
            dir,
            fsync: false,
            injector: Arc::new(NoFaults),
        })
    }

    /// Enables fsync-per-write durability (slower, crash-safe).
    pub fn with_fsync(mut self) -> Self {
        self.fsync = true;
        self
    }

    /// Wires a fault-injection plan into the store's I/O seams — see the
    /// field docs on `injector`.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Consults the fault plan at `site`: a [`Fault::IoError`] aborts the
    /// operation with a transient [`StoreError::Io`].
    fn injected_io(&self, site: FaultSite) -> Result<(), StoreError> {
        match self.injector.inject(site) {
            Some(Fault::IoError) => Err(StoreError::Io(std::io::Error::other(
                "injected transient store fault",
            ))),
            None => Ok(()),
        }
    }

    fn path_of(&self, id: SegId) -> PathBuf {
        self.dir.join(format!("seg_{:016x}.seg", id.0))
    }

    /// Writes one segment: range + values, checksummed. Atomic via a
    /// temp-file rename.
    pub fn save<V: ColumnValue + FixedCodec>(
        &self,
        id: SegId,
        range: &ValueRange<V>,
        values: &[V],
    ) -> Result<(), StoreError> {
        let (lo, hi) = (range.lo().to_bits(), range.hi().to_bits());
        let mut buf = Vec::with_capacity(8 + 2 + 8 + 16 + values.len() * 8 + 8);
        buf.extend_from_slice(MAGIC);
        buf.push(V::KIND);
        buf.push(RAW);
        buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
        buf.extend_from_slice(&lo.to_le_bytes());
        buf.extend_from_slice(&hi.to_le_bytes());
        for v in values {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let sum = xor_checksum(
            [u64::from(RAW), lo, hi]
                .into_iter()
                .chain(values.iter().map(|v| v.to_bits())),
        );
        buf.extend_from_slice(&sum.to_le_bytes());

        let tmp = self.path_of(id).with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&buf)?;
            if self.fsync {
                f.sync_all()?;
            }
        }
        // The crash window the atomic rename protects: an injected fault
        // here leaves the fully written `.tmp` behind and the previous
        // file untouched — exactly a mid-save crash.
        self.injected_io(FaultSite::StoreSave)?;
        fs::rename(&tmp, self.path_of(id))?;
        Ok(())
    }

    /// Reads one segment back. The checksum, the value type, every value's
    /// bit pattern and its membership in the stored range are checked.
    pub fn load<V: ColumnValue + FixedCodec>(
        &self,
        id: SegId,
    ) -> Result<(ValueRange<V>, Vec<V>), StoreError> {
        self.injected_io(FaultSite::StoreRestore)?;
        let path = self.path_of(id);
        let buf = fs::read(&path)?;
        let malformed = |reason: &str| StoreError::Malformed {
            path: path.clone(),
            reason: reason.to_owned(),
        };
        let Some((header, rest)) = buf.split_first_chunk::<10>() else {
            return Err(malformed("too short"));
        };
        if &header[..8] != MAGIC {
            return Err(malformed("bad magic"));
        }
        if header[8] != V::KIND {
            return Err(StoreError::WrongKind {
                expected: V::KIND,
                found: header[8],
            });
        }
        if header[9] != RAW {
            return Err(malformed("unknown payload encoding"));
        }
        if rest.len() % 8 != 0 {
            return Err(malformed("length mismatch"));
        }
        let words: Vec<u64> = rest
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        let [count, lo_bits, hi_bits, body @ .., stored_sum] = words.as_slice() else {
            return Err(malformed("too short"));
        };
        if *count != body.len() as u64 {
            return Err(malformed("length mismatch"));
        }
        let sum = xor_checksum(
            [u64::from(RAW), *lo_bits, *hi_bits]
                .into_iter()
                .chain(body.iter().copied()),
        );
        if *stored_sum != sum {
            return Err(StoreError::Corrupt { path });
        }
        let lo = V::from_bits(*lo_bits).ok_or_else(|| malformed("invalid range lo"))?;
        let hi = V::from_bits(*hi_bits).ok_or_else(|| malformed("invalid range hi"))?;
        let range = ValueRange::new(lo, hi).ok_or_else(|| malformed("inverted range"))?;
        let values = body
            .iter()
            .map(|&bits| V::from_bits(bits))
            .collect::<Option<Vec<V>>>()
            .ok_or_else(|| malformed("invalid value bits"))?;
        if !values.iter().all(|v| range.contains(*v)) {
            return Err(malformed("values outside the stored range"));
        }
        Ok((range, values))
    }

    /// Removes stale `*.tmp` files — the residue of a crash between a
    /// save's temp-write and its commit rename. The committed `.seg` files
    /// are untouched (the rename never happened), so the last saved
    /// content stays fully loadable. Returns how many were swept; safe to
    /// call any time.
    pub fn sweep_stale_tmp(&self) -> Result<usize, StoreError> {
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                match fs::remove_file(&path) {
                    Ok(()) => removed += 1,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        Ok(removed)
    }
}
