//! Replica-tree checkpointing: one file holding the whole tree — node
//! structure, estimates, and materialized payloads — written pre-order
//! and checksummed, restored through the validated
//! [`ReplicaTree::from_spec`] path.

use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use soc_core::replication::ReplicaNodeSpec;
use soc_core::{ColumnValue, ReplicaTree, ValueRange};

use crate::codec::FixedCodec;
use crate::store::StoreError;

const TREE_MAGIC: &[u8; 8] = b"SOCTREE1";

struct Writer {
    buf: Vec<u8>,
    sum: u64,
}

const CHECKSUM_SEED: u64 = 0x7EEE_0001_CAFE_F00D;

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::new(),
            sum: CHECKSUM_SEED,
        }
    }

    fn word(&mut self, w: u64) {
        self.buf.extend_from_slice(&w.to_le_bytes());
        self.sum = self.sum.rotate_left(9) ^ w;
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    sum: u64,
    path: PathBuf,
}

impl<'a> Reader<'a> {
    fn word(&mut self) -> Result<u64, StoreError> {
        if self.pos + 8 > self.buf.len() {
            return Err(StoreError::Malformed {
                path: self.path.clone(),
                reason: "truncated".to_owned(),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "the reader bounds-checks pos before slicing"
        )]
        let w = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("len ok"));
        self.pos += 8;
        self.sum = self.sum.rotate_left(9) ^ w;
        Ok(w)
    }
}

fn write_node<V: ColumnValue + FixedCodec>(w: &mut Writer, spec: &ReplicaNodeSpec<V>) {
    w.word(spec.range.lo().to_bits());
    w.word(spec.range.hi().to_bits());
    match &spec.payload {
        Some(values) => {
            w.word(1);
            w.word(values.len() as u64);
            for v in values {
                w.word(v.to_bits());
            }
        }
        None => {
            w.word(0);
            w.word(spec.est_len);
        }
    }
    w.word(spec.children.len() as u64);
    for c in &spec.children {
        write_node(w, c);
    }
}

fn read_node<V: ColumnValue + FixedCodec>(
    r: &mut Reader<'_>,
    depth: usize,
) -> Result<ReplicaNodeSpec<V>, StoreError> {
    let malformed = |r: &Reader<'_>, reason: &str| StoreError::Malformed {
        path: r.path.clone(),
        reason: reason.to_owned(),
    };
    if depth > 10_000 {
        return Err(malformed(r, "tree too deep"));
    }
    let lo = V::from_bits(r.word()?).ok_or_else(|| malformed(r, "bad lo bits"))?;
    let hi = V::from_bits(r.word()?).ok_or_else(|| malformed(r, "bad hi bits"))?;
    let range = ValueRange::new(lo, hi).ok_or_else(|| malformed(r, "inverted range"))?;
    let materialized = r.word()? == 1;
    let (payload, est_len) = if materialized {
        let count = r.word()? as usize;
        if count > r.buf.len() / 8 {
            return Err(malformed(r, "value count exceeds file size"));
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(V::from_bits(r.word()?).ok_or_else(|| malformed(r, "bad value bits"))?);
        }
        (Some(values), 0)
    } else {
        (None, r.word()?)
    };
    let child_count = r.word()? as usize;
    if child_count > r.buf.len() / 8 {
        return Err(malformed(r, "child count exceeds file size"));
    }
    let mut children = Vec::with_capacity(child_count);
    for _ in 0..child_count {
        children.push(read_node(r, depth + 1)?);
    }
    Ok(ReplicaNodeSpec {
        range,
        payload,
        est_len,
        children,
    })
}

/// Writes a replica tree to `path` (atomic via temp-file rename).
pub fn save_tree<V: ColumnValue + FixedCodec>(
    path: impl AsRef<Path>,
    tree: &ReplicaTree<V>,
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let tops = tree.to_spec();
    let mut w = Writer::new();
    w.word(tree.domain().lo().to_bits());
    w.word(tree.domain().hi().to_bits());
    w.word(tops.len() as u64);
    for t in &tops {
        write_node(&mut w, t);
    }
    let sum = w.sum;

    let mut out = Vec::with_capacity(w.buf.len() + 24);
    out.extend_from_slice(TREE_MAGIC);
    out.push(V::KIND);
    out.extend_from_slice(&w.buf);
    out.extend_from_slice(&sum.to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&out)?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a replica tree back from `path`.
pub fn load_tree<V: ColumnValue + FixedCodec>(
    path: impl AsRef<Path>,
) -> Result<ReplicaTree<V>, StoreError> {
    let path = path.as_ref().to_path_buf();
    let mut buf = Vec::new();
    fs::File::open(&path)?.read_to_end(&mut buf)?;
    let malformed = |reason: &str| StoreError::Malformed {
        path: path.clone(),
        reason: reason.to_owned(),
    };
    if buf.len() < 8 + 1 + 24 + 8 {
        return Err(malformed("too short"));
    }
    if &buf[..8] != TREE_MAGIC {
        return Err(malformed("bad magic"));
    }
    if buf[8] != V::KIND {
        return Err(StoreError::WrongKind {
            expected: V::KIND,
            found: buf[8],
        });
    }
    let body = &buf[9..buf.len() - 8];
    let mut r = Reader {
        buf: body,
        pos: 0,
        sum: CHECKSUM_SEED,
        path: path.clone(),
    };
    let lo = V::from_bits(r.word()?).ok_or_else(|| malformed("bad domain lo"))?;
    let hi = V::from_bits(r.word()?).ok_or_else(|| malformed("bad domain hi"))?;
    let domain = ValueRange::new(lo, hi).ok_or_else(|| malformed("inverted domain"))?;
    let top_count = r.word()? as usize;
    if top_count > body.len() / 8 {
        return Err(malformed("top count exceeds file size"));
    }
    let mut tops = Vec::with_capacity(top_count);
    for _ in 0..top_count {
        tops.push(read_node::<V>(&mut r, 0)?);
    }
    if r.pos != body.len() {
        return Err(malformed("trailing bytes"));
    }
    #[expect(
        clippy::expect_used,
        reason = "the length was checked against the checksum frame above"
    )]
    let stored_sum = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("length checked"));
    if stored_sum != r.sum {
        return Err(StoreError::Corrupt { path });
    }
    ReplicaTree::from_spec(domain, tops).map_err(|e| StoreError::BadColumn(e.to_string()))
}
