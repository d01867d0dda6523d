//! Cracked-column checkpointing: one file holding the cracker column in
//! its current (cracked) order plus the cracker index — so a restart
//! resumes with every crack already in place instead of re-paying the
//! reorganization the workload already bought.
//!
//! The restore path goes through the validated
//! [`CrackedColumn::from_parts`] constructor, so a tampered or truncated
//! file surfaces as a typed error, never as a silently wrong index.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use soc_core::{ColumnValue, CrackedColumn};

use crate::codec::FixedCodec;
use crate::store::StoreError;

const CRACK_MAGIC: &[u8; 8] = b"SOCCRK01";
const CHECKSUM_SEED: u64 = 0xC4AC_4ED0_1D00_0002;

fn mix(sum: u64, w: u64) -> u64 {
    sum.rotate_left(11) ^ w
}

/// Writes a cracked column to `path` (atomic via temp-file rename):
/// values in cracked order, then the `(boundary, position)` index, then
/// the crack counter, checksummed.
pub fn save_cracked<V: ColumnValue + FixedCodec>(
    path: impl AsRef<Path>,
    column: &CrackedColumn<V>,
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let values = column.values();
    let boundaries = column.boundaries();

    let mut body: Vec<u64> = Vec::with_capacity(3 + values.len() + boundaries.len() * 2);
    body.push(column.cracks());
    body.push(values.len() as u64);
    body.extend(values.iter().map(|v| v.to_bits()));
    body.push(boundaries.len() as u64);
    for (b, p) in &boundaries {
        body.push(b.to_bits());
        body.push(*p as u64);
    }
    let sum = body.iter().fold(CHECKSUM_SEED, |s, &w| mix(s, w));

    let mut out = Vec::with_capacity(8 + 1 + body.len() * 8 + 8);
    out.extend_from_slice(CRACK_MAGIC);
    out.push(V::KIND);
    for w in &body {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&sum.to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&out)?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a cracked column back from `path`, index and all.
pub fn load_cracked<V: ColumnValue + FixedCodec>(
    path: impl AsRef<Path>,
) -> Result<CrackedColumn<V>, StoreError> {
    let path: PathBuf = path.as_ref().to_path_buf();
    let mut buf = Vec::new();
    fs::File::open(&path)?.read_to_end(&mut buf)?;
    let malformed = |reason: &str| StoreError::Malformed {
        path: path.clone(),
        reason: reason.to_owned(),
    };
    if buf.len() < 8 + 1 + 3 * 8 + 8 {
        return Err(malformed("too short"));
    }
    if &buf[..8] != CRACK_MAGIC {
        return Err(malformed("bad magic"));
    }
    if buf[8] != V::KIND {
        return Err(StoreError::WrongKind {
            expected: V::KIND,
            found: buf[8],
        });
    }
    let body = &buf[9..buf.len() - 8];
    if body.len() % 8 != 0 {
        return Err(malformed("body not word-aligned"));
    }
    #[expect(
        clippy::expect_used,
        reason = "chunks_exact yields exactly 8-byte chunks"
    )]
    let mut words = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")));
    let mut sum = CHECKSUM_SEED;
    let mut next = |what: &str| -> Result<u64, StoreError> {
        let w = words.next().ok_or_else(|| StoreError::Malformed {
            path: path.clone(),
            reason: format!("truncated at {what}"),
        })?;
        sum = mix(sum, w);
        Ok(w)
    };

    let cracks = next("crack counter")?;
    let n = next("value count")? as usize;
    if n > body.len() / 8 {
        return Err(malformed("value count exceeds file size"));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let bits = next("value")?;
        values.push(V::from_bits(bits).ok_or_else(|| malformed("invalid value bits"))?);
    }
    let k = next("boundary count")? as usize;
    if k > body.len() / 16 {
        return Err(malformed("boundary count exceeds file size"));
    }
    let mut boundaries = Vec::with_capacity(k);
    for _ in 0..k {
        let bits = next("boundary value")?;
        let b = V::from_bits(bits).ok_or_else(|| malformed("invalid boundary bits"))?;
        let p = next("boundary position")? as usize;
        boundaries.push((b, p));
    }
    if words.next().is_some() {
        return Err(malformed("trailing bytes"));
    }
    #[expect(
        clippy::expect_used,
        reason = "the length was checked against the checksum frame above"
    )]
    let stored_sum = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("length checked"));
    if stored_sum != sum {
        return Err(StoreError::Corrupt { path });
    }
    CrackedColumn::from_parts(values, boundaries, cracks).map_err(StoreError::BadColumn)
}
