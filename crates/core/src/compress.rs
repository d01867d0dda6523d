//! Packed piece codecs, a leaf module with no caller in the engine.
//!
//! No strategy stores packed values: counting a packed payload costs 5–8×
//! a raw count, so a codec would only shrink the footprint of data it
//! makes slower to scan (PAPER.md has the numbers). The codecs serve the
//! benchmark's `compress.*` probes, which measure that gap. Range counts
//! run **directly over the packed data**:
//!
//! * **RLE** — `(key, run-length)` pairs in storage order; a range count
//!   sums the lengths of matching runs without expanding them;
//! * **FOR** (frame of reference) — values rebased against the payload
//!   minimum and bit-packed to the width of the local span; a range count
//!   rebases the query bounds once and compares packed fields;
//! * **Dictionary** — a sorted table of distinct keys plus bit-packed
//!   codes; a range probe binary-searches the table for the code interval
//!   and then counts codes.
//!
//! All three codecs operate on the order-preserving `u64` key projection
//! of [`ColumnValue`] (`to_key`/`from_key`), so one implementation serves
//! every value type; types wider than 64 bits ([`crate::paired::Pair`])
//! have no projection and do not pack.

use crate::range::ValueRange;
use crate::value::ColumnValue;

/// One of the packed codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentEncoding {
    /// Run-length encoding over equal adjacent values.
    Rle,
    /// Frame-of-reference bit-packing against the payload minimum.
    For,
    /// Sorted dictionary of distinct keys + bit-packed codes.
    Dict,
}

/// Whether `V` has a packed representation at all.
fn packable<V: ColumnValue>() -> bool {
    V::from_f64(0.0).to_key().is_some()
}

// ---------------------------------------------------------------------------
// Bit-packed word layout (shared by FOR and Dict codes)
// ---------------------------------------------------------------------------
//
// Fields never straddle word boundaries: each 64-bit word holds
// `64 / width` fields, low bits first. Slightly less dense than straddling
// layouts but the extract is one shift+mask, which LLVM unrolls and
// vectorizes.

#[inline]
fn fields_per_word(width: u32) -> usize {
    debug_assert!((1..=64).contains(&width));
    (64 / width) as usize
}

#[inline]
fn field_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Bits needed to represent `max_delta` (at least 1 so the layout is valid).
#[inline]
fn bits_for(max_delta: u64) -> u32 {
    (64 - max_delta.leading_zeros()).max(1)
}

fn pack_fields(deltas: impl ExactSizeIterator<Item = u64>, width: u32) -> Vec<u64> {
    let fpw = fields_per_word(width);
    let len = deltas.len();
    let mut words = Vec::with_capacity(len.div_ceil(fpw));
    let mut cur = 0u64;
    let mut filled = 0usize;
    for d in deltas {
        debug_assert!(d <= field_mask(width));
        cur |= d << (filled as u32 * width);
        filled += 1;
        if filled == fpw {
            words.push(cur);
            cur = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        words.push(cur);
    }
    words
}

/// Calls `f(field)` for each of the `len` packed fields, in storage order.
#[inline]
fn for_each_field(words: &[u64], width: u32, len: usize, mut f: impl FnMut(u64)) {
    let fpw = fields_per_word(width);
    let mask = field_mask(width);
    let mut remaining = len;
    for &w in words {
        let n = remaining.min(fpw);
        let mut x = w;
        for _ in 0..n {
            f(x & mask);
            x = x.checked_shr(width).unwrap_or(0);
        }
        remaining -= n;
    }
}

// ---------------------------------------------------------------------------
// The packed payload forms
// ---------------------------------------------------------------------------

/// A payload in one of the packed representations. Value-type agnostic:
/// everything is stored as order-preserving `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedPayload {
    /// `(key, run length)` pairs in storage order.
    Rle {
        /// The runs; lengths are capped at `u32::MAX` (longer runs split).
        runs: Vec<(u64, u32)>,
    },
    /// Frame-of-reference bit-packing.
    For {
        /// The payload-minimum key every field is rebased against.
        base: u64,
        /// Bits per field, `1..=64`.
        width: u32,
        /// Tuple count (the words may have unused tail fields).
        len: u64,
        /// The packed fields, non-straddling.
        words: Vec<u64>,
    },
    /// Dictionary: sorted distinct keys, bit-packed code per tuple.
    Dict {
        /// Sorted, deduplicated keys.
        table: Vec<u64>,
        /// Bits per code, `1..=64`.
        width: u32,
        /// Tuple count.
        len: u64,
        /// The packed codes, non-straddling.
        words: Vec<u64>,
    },
}

impl EncodedPayload {
    /// Encoded footprint in bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            // 8-byte key + 4-byte run length per run.
            EncodedPayload::Rle { runs } => runs.len() as u64 * 12,
            // base + width header, then the packed words.
            EncodedPayload::For { words, .. } => 16 + words.len() as u64 * 8,
            // the table, a width/len header, then the packed codes.
            EncodedPayload::Dict { table, words, .. } => {
                table.len() as u64 * 8 + 16 + words.len() as u64 * 8
            }
        }
    }

    /// Counts stored keys inside `[lo_key, hi_key]` **without decoding** —
    /// the compressed-domain scan kernels.
    pub(crate) fn count_keys(&self, lo_key: u64, hi_key: u64) -> u64 {
        match self {
            EncodedPayload::Rle { runs } => {
                let mut acc = 0u64;
                for &(k, n) in runs {
                    acc += n as u64 * (u64::from(lo_key <= k) & u64::from(k <= hi_key));
                }
                acc
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => {
                if hi_key < *base {
                    return 0;
                }
                // Rebase the query once; fields compare in delta space.
                let lo = lo_key.saturating_sub(*base);
                let hi = hi_key - *base;
                let mut acc = 0u64;
                for_each_field(words, *width, *len as usize, |f| {
                    acc += u64::from(lo <= f) & u64::from(f <= hi);
                });
                acc
            }
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => {
                // Probe the sorted code table: the matching codes form one
                // contiguous interval [c_lo, c_hi).
                let c_lo = table.partition_point(|&t| t < lo_key) as u64;
                let c_hi = table.partition_point(|&t| t <= hi_key) as u64;
                if c_lo >= c_hi {
                    return 0;
                }
                let mut acc = 0u64;
                for_each_field(words, *width, *len as usize, |c| {
                    acc += u64::from(c_lo <= c) & u64::from(c < c_hi);
                });
                acc
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding: values -> packed payload
// ---------------------------------------------------------------------------

/// Encodes `values` (storage order preserved) with the requested codec.
/// Returns `None` when `V` has no key projection.
pub fn encode<V: ColumnValue>(values: &[V], enc: SegmentEncoding) -> Option<EncodedPayload> {
    if !packable::<V>() {
        return None;
    }
    let keys = keys_of(values);
    Some(encode_keys(&keys, enc))
}

#[inline]
#[expect(
    clippy::expect_used,
    reason = "packing is only attempted for keyed value types"
)]
fn keys_of<V: ColumnValue>(values: &[V]) -> Vec<u64> {
    values
        .iter()
        .map(|v| v.to_key().expect("packable type"))
        .collect()
}

fn encode_keys(keys: &[u64], enc: SegmentEncoding) -> EncodedPayload {
    match enc {
        SegmentEncoding::Rle => {
            let mut runs: Vec<(u64, u32)> = Vec::new();
            for &k in keys {
                match runs.last_mut() {
                    Some((rk, n)) if *rk == k && *n < u32::MAX => *n += 1,
                    _ => runs.push((k, 1)),
                }
            }
            EncodedPayload::Rle { runs }
        }
        SegmentEncoding::For => {
            let base = keys.iter().copied().min().unwrap_or(0);
            let max = keys.iter().copied().max().unwrap_or(0);
            let width = bits_for(max - base);
            let words = pack_fields(keys.iter().map(|&k| k - base), width);
            EncodedPayload::For {
                base,
                width,
                len: keys.len() as u64,
                words,
            }
        }
        SegmentEncoding::Dict => {
            let mut table: Vec<u64> = keys.to_vec();
            table.sort_unstable();
            table.dedup();
            let width = bits_for(table.len().saturating_sub(1) as u64);
            let words = pack_fields(
                keys.iter().map(|&k| {
                    table.partition_point(|&t| t < k) as u64 // exact: k is in table
                }),
                width,
            );
            EncodedPayload::Dict {
                table,
                width,
                len: keys.len() as u64,
                words,
            }
        }
    }
}

/// Sizes each codec without building it, then builds only the smallest —
/// returns `None` when no codec beats the raw footprint (or `V` is not
/// packable).
pub fn best_encoding<V: ColumnValue>(values: &[V]) -> Option<EncodedPayload> {
    if values.is_empty() || !packable::<V>() {
        return None;
    }
    let keys = keys_of(values);
    let raw_bytes = values.len() as u64 * V::BYTES;
    let n = keys.len() as u64;

    // One pass: run count + min/max.
    let mut runs = 1u64;
    let mut min = keys[0];
    let mut max = keys[0];
    for w in keys.windows(2) {
        runs += u64::from(w[0] != w[1]);
        min = min.min(w[1]);
        max = max.max(w[1]);
    }
    let rle_bytes = runs * 12;
    let for_width = bits_for(max - min);
    let for_bytes = 16 + (n as usize).div_ceil(fields_per_word(for_width)) as u64 * 8;
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let dict_width = bits_for(sorted.len().saturating_sub(1) as u64);
    let dict_bytes = sorted.len() as u64 * 8
        + 16
        + (n as usize).div_ceil(fields_per_word(dict_width)) as u64 * 8;

    // Of equally small codecs the first wins, in RLE, FOR, dict order.
    let (enc, bytes) = [
        (SegmentEncoding::For, for_bytes),
        (SegmentEncoding::Dict, dict_bytes),
    ]
    .into_iter()
    .fold((SegmentEncoding::Rle, rle_bytes), |best, c| {
        if c.1 < best.1 {
            c
        } else {
            best
        }
    });
    if bytes >= raw_bytes {
        return None;
    }
    Some(encode_keys(&keys, enc))
}

/// A piece's values, raw or packed: what the `compress.*` probes count
/// over.
#[derive(Debug, Clone)]
pub enum PiecePayload<V> {
    /// Plain values in storage order.
    Raw(Vec<V>),
    /// A packed representation (keys).
    Packed(EncodedPayload),
}

impl<V: ColumnValue> PiecePayload<V> {
    /// Counts stored values inside `q`. Packed payloads are counted in the
    /// compressed domain — no value is ever decoded.
    #[expect(
        clippy::expect_used,
        reason = "a packed payload exists only for keyed value types"
    )]
    pub fn count_range(&self, q: &ValueRange<V>) -> u64 {
        match self {
            PiecePayload::Raw(v) => crate::kernels::count_range(v, q),
            PiecePayload::Packed(p) => {
                let key = |v: V| v.to_key().expect("packed payload implies keyed type");
                p.count_keys(key(q.lo()), key(q.hi()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paired::Pair;
    use crate::value::OrdF64;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const CODECS: [SegmentEncoding; 3] = [
        SegmentEncoding::Rle,
        SegmentEncoding::For,
        SegmentEncoding::Dict,
    ];

    /// Every stored value in storage order.
    fn decoded<V: ColumnValue>(p: &EncodedPayload) -> Vec<V> {
        let decode = |k: u64| V::from_key(k).expect("packed key decodes");
        let mut out = Vec::new();
        match p {
            EncodedPayload::Rle { runs } => {
                for &(k, n) in runs {
                    out.extend(std::iter::repeat_n(decode(k), n as usize));
                }
            }
            EncodedPayload::For {
                base,
                width,
                len,
                words,
            } => for_each_field(words, *width, *len as usize, |d| out.push(decode(base + d))),
            EncodedPayload::Dict {
                table,
                width,
                len,
                words,
            } => for_each_field(words, *width, *len as usize, |c| {
                out.push(decode(table[c as usize]))
            }),
        }
        out
    }

    fn mixed_values(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Duplicates + clustering so every codec has structure.
                let base = rng.gen_range(0..50u32) * 1000;
                base + rng.gen_range(0..10u32)
            })
            .collect()
    }

    #[test]
    fn packed_counts_match_raw_for_every_codec() {
        let values = mixed_values(10_000, 1);
        let raw = PiecePayload::Raw(values.clone());
        for enc in CODECS {
            let packed = PiecePayload::Packed(encode(&values, enc).expect("u32 packs"));
            for (lo, hi) in [(0, 60_000), (5_000, 25_000), (999, 999), (30_001, 30_004)] {
                let q = ValueRange::must(lo, hi);
                assert_eq!(packed.count_range(&q), raw.count_range(&q), "{enc:?} {q:?}");
            }
        }
    }

    #[test]
    fn every_codec_round_trips_in_storage_order() {
        // RLE merges only equal adjacent values, so every codec keeps
        // storage order.
        let values = mixed_values(2_000, 3);
        for enc in CODECS {
            let packed = encode(&values, enc).expect("u32 packs");
            assert_eq!(decoded::<u32>(&packed), values, "{enc:?}");
        }
    }

    #[test]
    fn sorted_column_compresses_at_least_2x() {
        // A sorted column with duplicates: every codec's best case.
        let values: Vec<u32> = (0..40_000u32).map(|i| i / 8).collect();
        let raw_bytes = values.len() as u64 * 4;
        let best = best_encoding(&values).expect("sorted data compresses");
        assert!(
            best.bytes() * 2 <= raw_bytes,
            "expected >=2x reduction, got {} vs {raw_bytes}",
            best.bytes()
        );
    }

    #[test]
    fn best_encoding_declines_incompressible_data() {
        let mut rng = SmallRng::seed_from_u64(9);
        let values: Vec<u32> = (0..4_096).map(|_| rng.gen()).collect();
        // Full-width random u32: FOR needs ~32 bits (8 bytes/field in the
        // non-straddling layout), RLE has ~no runs, dict ~no duplicates.
        assert!(best_encoding(&values).is_none());
    }

    #[test]
    fn pair_values_never_pack() {
        let values = vec![Pair::new(1u32, 0), Pair::new(2, 1)];
        assert!(!packable::<Pair<u32>>());
        assert!(encode(&values, SegmentEncoding::For).is_none());
        assert!(best_encoding(&values).is_none());
    }

    #[test]
    fn float_payloads_roundtrip() {
        let values: Vec<OrdF64> = (0..500)
            .map(|i| OrdF64::from_finite(205.0 + (i % 50) as f64 * 0.01))
            .collect();
        let raw = PiecePayload::Raw(values.clone());
        let q = ValueRange::must(OrdF64::from_finite(205.1), OrdF64::from_finite(205.3));
        for enc in CODECS {
            let packed = encode(&values, enc).unwrap();
            assert_eq!(decoded::<OrdF64>(&packed), values, "{enc:?}");
            let packed = PiecePayload::Packed(packed);
            assert_eq!(packed.count_range(&q), raw.count_range(&q), "{enc:?}");
        }
    }

    #[test]
    fn full_width_for_payload_works() {
        // Forces width 64: i64 spanning the whole domain.
        let values: Vec<i64> = vec![i64::MIN, -1, 0, 1, i64::MAX];
        let packed = encode(&values, SegmentEncoding::For).unwrap();
        assert_eq!(decoded::<i64>(&packed), values);
        let q = ValueRange::must(-1i64, 1);
        assert_eq!(PiecePayload::Packed(packed).count_range(&q), 3);
    }
}
