//! The on-disk segment store and column checkpointing.
//!
//! One file per segment, named by [`SegId`]. The file carries the
//! segment's value range and payload, checksummed, so a whole segmented
//! column can be checkpointed incrementally (only segments whose id
//! appeared since the last checkpoint are written; dropped ids are
//! unlinked) and restored byte-exactly.
//!
//! Format v2 (`SOCSEG02`) stores the segment's *physical* payload: an
//! encoding byte (the [`soc_core::EncodedPayload`] wire tag, `0` for raw)
//! followed by either the raw values or the packed words verbatim. A
//! checkpoint of a compressed column therefore never decodes — the bytes
//! on disk are the bytes in memory — and a restore hands the packed
//! payloads straight back to the column.

use std::collections::HashSet;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use soc_core::validate::{self, Violation};
use soc_core::{
    ColumnValue, EncodedPayload, Fault, FaultInjector, FaultSite, NoFaults, PiecePayload, SegId,
    SegmentedColumn, ValueRange,
};

use crate::codec::FixedCodec;

const MAGIC: &[u8; 8] = b"SOCSEG02";

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
    /// The restored pieces do not form a valid column.
    BadColumn(String),
    /// The stored segments belong to a strategy the store cannot restore
    /// (only [`SegmentedColumn`] checkpoints round-trip).
    UnsupportedStrategy {
        /// What the piece layout looked like.
        reason: String,
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
            StoreError::BadColumn(m) => write!(f, "restored column invalid: {m}"),
            StoreError::UnsupportedStrategy { reason } => {
                write!(
                    f,
                    "unsupported strategy checkpoint: {reason}; only segmented-column \
                     checkpoints (adjacent, non-overlapping ranges) can be restored here — \
                     replica trees round-trip through save_tree/load_tree instead"
                )
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
    /// payload read ([`FaultSite::StoreRestore`]).
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

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, id: SegId) -> PathBuf {
        self.dir.join(format!("seg_{:016x}.seg", id.0))
    }

    /// Writes one segment in its physical representation: range + encoding
    /// byte + payload words, checksummed. A packed payload's words go to
    /// disk verbatim — no decode. Atomic via a temp-file rename.
    pub fn save_payload<V: ColumnValue + FixedCodec>(
        &self,
        id: SegId,
        range: &ValueRange<V>,
        payload: &PiecePayload<V>,
    ) -> Result<(), StoreError> {
        let (enc, body): (u8, Vec<u64>) = match payload {
            PiecePayload::Raw(values) => (0, values.iter().map(|v| v.to_bits()).collect()),
            PiecePayload::Packed(p) => (p.wire_tag(), p.to_words()),
        };
        let mut buf = Vec::with_capacity(8 + 2 + 8 + 16 + body.len() * 8 + 8);
        buf.extend_from_slice(MAGIC);
        buf.push(V::KIND);
        buf.push(enc);
        buf.extend_from_slice(&(body.len() as u64).to_le_bytes());
        buf.extend_from_slice(&range.lo().to_bits().to_le_bytes());
        buf.extend_from_slice(&range.hi().to_bits().to_le_bytes());
        let mut words = Vec::with_capacity(body.len() + 3);
        words.push(enc as u64);
        words.push(range.lo().to_bits());
        words.push(range.hi().to_bits());
        for w in &body {
            buf.extend_from_slice(&w.to_le_bytes());
            words.push(*w);
        }
        buf.extend_from_slice(&xor_checksum(words).to_le_bytes());

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
        // checkpoint untouched — exactly a mid-save crash.
        self.injected_io(FaultSite::StoreSave)?;
        fs::rename(&tmp, self.path_of(id))?;
        Ok(())
    }

    /// Writes one raw segment: range + values. Convenience wrapper over
    /// [`Self::save_payload`] for call sites that hold plain slices (the
    /// cracker and replica-tree checkpoints).
    pub fn save<V: ColumnValue + FixedCodec>(
        &self,
        id: SegId,
        range: &ValueRange<V>,
        values: &[V],
    ) -> Result<(), StoreError> {
        self.save_payload(id, range, &PiecePayload::Raw(values.to_vec()))
    }

    /// Reads one segment back in its stored physical representation. Raw
    /// payloads are value-checked against the range; packed payloads are
    /// structurally validated ([`EncodedPayload::validate_for`]) without
    /// being expanded.
    pub fn load_payload<V: ColumnValue + FixedCodec>(
        &self,
        id: SegId,
    ) -> Result<(ValueRange<V>, PiecePayload<V>), StoreError> {
        self.injected_io(FaultSite::StoreRestore)?;
        let path = self.path_of(id);
        let mut buf = Vec::new();
        fs::File::open(&path)?.read_to_end(&mut buf)?;
        let malformed = |reason: &str| StoreError::Malformed {
            path: path.clone(),
            reason: reason.to_owned(),
        };
        if buf.len() < 8 + 2 + 8 + 16 + 8 {
            return Err(malformed("too short"));
        }
        if &buf[..8] != MAGIC {
            return Err(malformed("bad magic"));
        }
        let kind = buf[8];
        if kind != V::KIND {
            return Err(StoreError::WrongKind {
                expected: V::KIND,
                found: kind,
            });
        }
        let enc = buf[9];
        #[expect(
            clippy::expect_used,
            reason = "slice bounds are checked before the loop"
        )]
        let word = |i: usize| -> u64 {
            u64::from_le_bytes(buf[i..i + 8].try_into().expect("bounds checked"))
        };
        let count = word(10) as usize;
        let expected_len = 8 + 2 + 8 + 16 + count * 8 + 8;
        if buf.len() != expected_len {
            return Err(malformed("length mismatch"));
        }
        let lo_bits = word(18);
        let hi_bits = word(26);
        let mut words = Vec::with_capacity(count + 3);
        words.push(enc as u64);
        words.push(lo_bits);
        words.push(hi_bits);
        let mut body = Vec::with_capacity(count);
        for k in 0..count {
            let bits = word(34 + k * 8);
            words.push(bits);
            body.push(bits);
        }
        let stored_sum = word(34 + count * 8);
        if stored_sum != xor_checksum(words) {
            return Err(StoreError::Corrupt { path });
        }
        let lo = V::from_bits(lo_bits).ok_or_else(|| malformed("invalid range lo"))?;
        let hi = V::from_bits(hi_bits).ok_or_else(|| malformed("invalid range hi"))?;
        let range = ValueRange::new(lo, hi).ok_or_else(|| malformed("inverted range"))?;
        let payload = if enc == 0 {
            let mut values = Vec::with_capacity(count);
            for bits in body {
                values.push(V::from_bits(bits).ok_or_else(|| malformed("invalid value bits"))?);
            }
            if !values.iter().all(|v| range.contains(*v)) {
                return Err(malformed("values outside the stored range"));
            }
            PiecePayload::Raw(values)
        } else {
            let packed = EncodedPayload::from_words(enc, &body)
                .map_err(|e| malformed(&format!("bad packed payload: {e}")))?;
            // Internal consistency first (word counts, dictionary code
            // bounds) — `validate_for` assumes it and would index the
            // dictionary table with untrusted codes otherwise.
            validate::encoded_consistent(&packed)
                .map_err(|v| malformed(&format!("packed payload inconsistent: {v}")))?;
            packed
                .validate_for::<V>(&range)
                .map_err(|e| malformed(&format!("packed payload violates its range: {e}")))?;
            PiecePayload::Packed(packed)
        };
        Ok((range, payload))
    }

    /// Reads one segment back as values, decoding a packed payload if the
    /// file stores one.
    pub fn load<V: ColumnValue + FixedCodec>(
        &self,
        id: SegId,
    ) -> Result<(ValueRange<V>, Vec<V>), StoreError> {
        let (range, payload) = self.load_payload::<V>(id)?;
        Ok((range, payload.into_values()))
    }

    /// Removes a segment file (idempotent).
    pub fn delete(&self, id: SegId) -> Result<(), StoreError> {
        match fs::remove_file(self.path_of(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Ids of every segment currently stored (unordered).
    pub fn list(&self) -> Result<Vec<SegId>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name
                .strip_prefix("seg_")
                .and_then(|s| s.strip_suffix(".seg"))
            {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    out.push(SegId(id));
                }
            }
        }
        Ok(out)
    }

    /// Removes stale `*.tmp` files — the residue of a crash between a
    /// save's temp-write and its commit rename. The previous committed
    /// `.seg` files are untouched (the rename never happened), so the
    /// last checkpoint stays fully loadable. Returns how many were
    /// swept. [`Self::restore`] runs this first; it is also safe to call
    /// any time.
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

    /// Bytes of segment files on disk.
    pub fn bytes_on_disk(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "seg") {
                total += entry.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// Incrementally checkpoints a segmented column: segments already on
    /// disk (by id) are kept, new ones written, stale ones unlinked.
    /// Returns `(written, deleted)` counts.
    pub fn checkpoint<V: ColumnValue + FixedCodec>(
        &self,
        column: &SegmentedColumn<V>,
    ) -> Result<(usize, usize), StoreError> {
        let live: HashSet<SegId> = column.segments().iter().map(|s| s.id()).collect();
        let on_disk: HashSet<SegId> = self.list()?.into_iter().collect();
        let mut written = 0;
        for seg in column.segments() {
            if !on_disk.contains(&seg.id()) {
                // Physical payload verbatim: a packed segment checkpoints
                // its packed words, never a decoded copy.
                self.save_payload(seg.id(), &seg.range(), seg.payload())?;
                written += 1;
            }
        }
        let mut deleted = 0;
        for id in on_disk.difference(&live) {
            self.delete(*id)?;
            deleted += 1;
        }
        Ok((written, deleted))
    }

    /// Restores a checkpointed column. The segment files' ranges must tile
    /// a domain; the restored column gets fresh segment ids (so a
    /// follow-up checkpoint rewrites everything — call sites that care
    /// should checkpoint into a fresh directory).
    ///
    /// Only [`SegmentedColumn`] checkpoints are restorable. Segment sets
    /// from other strategies are recognized by their layout and rejected
    /// with [`StoreError::UnsupportedStrategy`] instead of an opaque
    /// decode failure: a replica tree materializes nested/overlapping
    /// ranges, and a partially cracked or partially checkpointed column
    /// leaves gaps between ranges.
    pub fn restore<V: ColumnValue + FixedCodec>(&self) -> Result<SegmentedColumn<V>, StoreError> {
        // A crash between temp-write and rename leaves `.tmp` residue;
        // it was never committed, so it is swept, not loaded.
        self.sweep_stale_tmp()?;
        let mut pieces: Vec<(ValueRange<V>, PiecePayload<V>)> = Vec::new();
        for id in self.list()? {
            let (range, payload) = self.load_payload::<V>(id)?;
            pieces.push((range, payload));
        }
        if pieces.is_empty() {
            return Err(StoreError::BadColumn("store is empty".into()));
        }
        pieces.sort_by(|a, b| a.0.lo().cmp(&b.0.lo()).then(a.0.hi().cmp(&b.0.hi())));
        let domain = ValueRange::new(pieces[0].0.lo(), pieces[pieces.len() - 1].0.hi())
            .ok_or_else(|| StoreError::BadColumn("empty domain".into()))?;
        // Structural screening through the shared validators: a piece set
        // whose every file passes its checksum can still be the wrong
        // *shape* — overlapping (replica-tree checkpoint) or gapped
        // (cracked/partial checkpoint) — and must be rejected before
        // anything is installed.
        let ranges: Vec<ValueRange<V>> = pieces.iter().map(|(r, _)| *r).collect();
        match validate::ranges_partition(&domain, &ranges) {
            Ok(()) => {}
            Err(v @ Violation::Overlap { .. }) => {
                return Err(StoreError::UnsupportedStrategy {
                    reason: format!(
                        "{v} (a replica-tree checkpoint stores nested parent and child replicas)"
                    ),
                });
            }
            Err(v @ Violation::Gap { .. }) => {
                return Err(StoreError::UnsupportedStrategy {
                    reason: format!(
                        "{v} (a cracked or partial checkpoint does not tile its domain)"
                    ),
                });
            }
            Err(v) => return Err(StoreError::BadColumn(v.to_string())),
        }
        let restored = SegmentedColumn::from_encoded_pieces(domain, pieces)
            .map_err(|e| StoreError::BadColumn(e.to_string()))?;
        // Deep validation (payload consistency, tuple-count conservation)
        // before the column is handed to the caller.
        validate::column(&restored).map_err(|v| StoreError::BadColumn(v.to_string()))?;
        Ok(restored)
    }
}
