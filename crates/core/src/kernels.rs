//! Branchless, chunked scan kernels — the innermost loops of every range
//! selection and of every reorganizing scan.
//!
//! The paper's figures count *bytes* scanned; how fast those bytes move is
//! the other half of the story once the layout has converged. Tuple-at-a-time
//! `filter(contains)` loops carry a data-dependent branch per element, which
//! modern cores mispredict on the ~selectivity boundary of every query. The
//! kernels here follow the column-store playbook (vectorized, predicate-as-
//! arithmetic execution): fixed-size chunks that stay in L1, comparisons
//! folded into `0/1` integers summed in a narrow accumulator, a `covers`
//! fast path that degenerates to `memcpy`, and a binary-search fast path for
//! sorted runs that skips the scan entirely.
//!
//! "No flow control inside the hot loop, so LLVM autovectorizes it" holds
//! only if the comparison itself is flow-free. For the integer types it
//! always was; for [`crate::value::OrdF64`] it is because the type
//! overrides `lt`/`le`/`gt`/`ge` with bare `f64` comparisons — the default
//! operators go through `Ord::cmp`, whose NaN check puts a panic edge inside
//! every `lo <= v` and keeps the whole loop scalar.
//!
//! Sums are the exception to "bandwidth, not latency": one `f64`
//! accumulator per chunk, added in order, is a chain of dependent adds and
//! runs at the add's latency — and that order is what every served `SUM`
//! reproduces bit for bit. For the integer types of at most 32 bits the
//! chain is exact, so a chunk is summed in a 64-bit integer instead
//! (vectorized, converted once) and lands on the same bits
//! ([`ColumnValue::exact_chunk_sum`]). For `u64`, `i64`, `OrdF64` and
//! pairs the chain stays, but a whole-slice fold (a piece synopsis,
//! `min_max_sum_all` and `sum_all`) runs four consecutive chunks' chains
//! side by side: each chunk still adds its values in order from `+0.0`, so
//! the bits are the same and the latency is hidden. Only a sum over a run
//! that ends inside a piece (`sum_sorted_run`, a served read) still waits
//! on one chain per chunk.
//!
//! Reorganization rides on the same passes (Algorithm 2's `scanMat`: "one
//! scan of each covering segment answers the query and fills every replica
//! in M"):
//!
//! - `scan_fill` counts the query **and** fills every replica of the
//!   materialization list in one pass over the payload. The values that
//!   qualify are counted and moved in 64-element blocks: an empty block
//!   moves nothing, a full one is a `memcpy`, and only a mixed block is
//!   compress-stored (`dst[k] = v; k += in_range`) — never a
//!   `filter` loop. A selective fill therefore costs about what a count
//!   costs, and when the only fill is the query one count answers both.
//!   Element order is preserved in every output.
//! - `partition_into` splits a payload at its inner bounds with a
//!   vectorized count (exact piece sizes; skipped when the caller's query
//!   counted them already) followed by one scatter pass: order within a
//!   piece preserved, no piece ever reallocates or holds spare capacity,
//!   and the largest piece keeps the payload's own buffer, compacted in
//!   place, so only the other pieces take fresh memory.
//!
//! A sorted payload skips both: `SegmentData::count_partition` counts a
//! sorted window with `sorted_partition`, two binary searches at the
//! query's bounds, and a sorted split cuts its window by search into
//! windows of the same buffer. Every segment of a served column is
//! sorted, so only a bare strategy's unsorted payloads reach the scans.
//! The callers bill Algorithm 1's whole-segment scan either way.
//!
//! The reorganizing scans — `count_partition`, `scan_fill` and
//! `partition_into` — the plain `count_range`, and the whole-slice fold
//! behind `min_max_sum_all`, `sum_all` and `min_max_all` take a slice of at least
//! `PAR_MIN` (2¹⁹) values in two halves: cut at a `CHUNK`-aligned
//! midpoint, the upper half on one helper thread, the lower half on the
//! caller, combined in order. Counts add; every output holds the lower
//! half's values followed by the upper half's, so answers, storage order
//! and `capacity() == len()` are those of one pass; the fold adds the
//! helper's chunk sums after the caller's, in order, so the sum is that of
//! one pass too. One core counts at its own share of the memory
//! bandwidth, not the memory's: on 2 cores a count of 2²⁰ `OrdF64` values
//! takes 0.4–0.6× the time it takes on one. The helper is a scoped thread
//! started per scan, not a pool: a start and a join cost about a tenth of
//! a scan of `PAR_MIN` values, while a pool's hand-off cost more than the
//! sub-microsecond queries it served. The caller allocates every buffer
//! the helper fills (a `scan_fill` output grows on the helper only past a
//! short estimate), and the byte charges stay with the callers, so every
//! counter is that of one pass. On one core, or when the helper cannot
//! start, the caller scans both halves.
//!
//! Everything downstream — `crate::segment::SegmentData`, the cracked
//! column, adaptive replication's cover scans, the fully-sorted baseline —
//! routes its per-element work through this module, so a kernel improvement
//! lands in every strategy at once. Aggregates have no strategy-side
//! kernel: a served `SUM`/`MIN`/`MAX` folds the epoch snapshot's sorted
//! pieces (`sum_sorted_run`, `net_min`, `net_max`), and the masked
//! [`sum_range`] survives as the specification those sums reproduce.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::range::ValueRange;
use crate::value::ColumnValue;

#[cfg(test)]
mod reference;

/// Elements per chunk. Small enough that a chunk of 8-byte values sits in
/// L1 alongside the output, large enough to amortize the loop bookkeeping.
/// It fixes the accumulation order of every `f64` sum: one accumulator per
/// chunk, which [`sum_sorted_run`] and the piece synopses reproduce bit for
/// bit — as an exact integer sum where the value type has one
/// ([`ColumnValue::exact_chunk_sum`]; 4096 values of at most 32 bits stay
/// below 2⁵³). It is also the granularity at which [`scan_fill`] answers
/// the query and cuts several fills out of the hull's survivors. Moving
/// matches happens per `BLOCK`. Also bounds the inner `u32` match
/// accumulator (4096 < `u32::MAX`).
pub(crate) const CHUNK: usize = 4096;

/// Elements per block: the unit in which [`collect_range`] and
/// [`scan_fill`] count and move matches. Moving happens per block because
/// a selective range leaves most blocks empty long before it leaves a
/// chunk empty: at the paper's 0.2 % selectivity (0.13 % of the `ra`
/// values) a chunk holds ≈ 5 matches and is empty 0.5 % of the time, while
/// a block is empty ≈ 92 % of the time. Counting a block still vectorizes,
/// and one branch per 64 elements is noise.
const BLOCK: usize = 64;

/// The shortest slice the reorganizing scans split in two halves, the
/// upper one on a helper thread. Starting and joining a scoped thread
/// costs ≈ 50 µs on 2 cores, about a tenth of a one-core count of 2¹⁹
/// `OrdF64` values; shorter slices give it a larger share of what the
/// helper saves. A longer threshold leaves the segments a column's first
/// splits produce (0.5–1 M values of a 4 M-value column) on one core: at
/// 2²¹ `socbench sky_adapt` kept about two thirds of the throughput gain
/// of 2¹⁹.
pub(crate) const PAR_MIN: usize = 1 << 19;

/// `values` cut at a [`CHUNK`]-aligned midpoint, so each half keeps the
/// chunks of the whole — or, when the slice is shorter than [`PAR_MIN`]
/// or the process may run on one core only, the whole slice and an empty
/// upper half.
fn halves<V>(values: &[V]) -> (&[V], &[V]) {
    static TWO_CORES: OnceLock<bool> = OnceLock::new();
    let two_cores =
        *TWO_CORES.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2));
    if two_cores && values.len() >= PAR_MIN {
        values.split_at(values.len() / 2 / CHUNK * CHUNK)
    } else {
        (values, &[])
    }
}

/// Runs `lower` and `upper` and returns both results. When `two` is set,
/// `upper` runs on one scoped helper thread while the caller runs `lower`;
/// otherwise, or when the helper cannot start, the caller runs `upper`
/// after `lower`. A panic in the helper resumes on the caller.
fn join<A, B: Send>(
    two: bool,
    lower: impl FnOnce() -> A,
    mut upper: impl FnMut() -> B + Send,
) -> (A, B) {
    if two {
        let helper = &mut upper;
        let (a, b) = std::thread::scope(|s| {
            let handle = std::thread::Builder::new().spawn_scoped(s, helper).ok();
            (lower(), handle.map(|h| h.join()))
        });
        return match b {
            Some(Ok(b)) => (a, b),
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => (a, upper()),
        };
    }
    let a = lower();
    (a, upper())
}

/// Counts the values of `values` (a chunk or a block) inside `[lo, hi]`
/// with no branches in the loop body: each comparison becomes a `0/1` and
/// the pair is combined with bitwise `&` (not `&&`, which would
/// reintroduce a branch).
#[inline]
fn count_chunk<V: ColumnValue>(values: &[V], lo: V, hi: V) -> u32 {
    let mut acc = 0u32;
    for &v in values {
        acc += u32::from(lo <= v) & u32::from(v <= hi);
    }
    acc
}

/// Branchless chunked count of the values inside `q`.
///
/// Equivalent to `values.iter().filter(|v| q.contains(**v)).count()` but
/// with the comparison folded into integer arithmetic so the loop carries
/// no data-dependent branch (sum-of-bool-cast counting). A slice of at
/// least 2¹⁹ values is counted in two halves, the upper one on a helper
/// thread.
pub fn count_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> u64 {
    let (lo, hi) = (q.lo(), q.hi());
    let count = |half: &[V]| {
        let mut total = 0u64;
        for chunk in half.chunks(CHUNK) {
            total += count_chunk(chunk, lo, hi) as u64;
        }
        total
    };
    let (lower, upper) = halves(values);
    let (a, b) = join(!upper.is_empty(), || count(lower), || count(upper));
    a + b
}

/// Appends the values of `values` inside `[lo, hi]` to `out`, order
/// preserved, and returns how many there were.
///
/// Block by block: a vectorized [`count_chunk`] first, then an empty block
/// moves nothing, a full block is one `extend_from_slice`, and only a
/// mixed block is compress-stored. So a selective range costs a count plus
/// the few blocks that hold its matches, not a compress-store of every
/// value.
#[inline]
fn append_matches<V: ColumnValue>(values: &[V], lo: V, hi: V, out: &mut Vec<V>) -> usize {
    let mut blocks = values.chunks_exact(BLOCK);
    let mut n = 0;
    for block in &mut blocks {
        n += append_block(block, lo, hi, out);
    }
    n + append_block(blocks.remainder(), lo, hi, out)
}

/// [`append_matches`] for one block of at most [`BLOCK`] values; always
/// inlined, so a whole block's count and compress-store run over a
/// constant length.
///
/// A mixed block is compress-stored straight into a block-sized window at
/// the end of `out`, which is cut back to the matches afterwards. Only
/// when `out` lacks the spare capacity for the window — a replica buffer
/// sized for exactly its matches, or one that is about to grow — does the
/// block go through a stack buffer, so that `out` grows by the matches
/// alone.
#[inline(always)]
fn append_block<V: ColumnValue>(block: &[V], lo: V, hi: V, out: &mut Vec<V>) -> usize {
    let c = count_chunk(block, lo, hi) as usize;
    if c == block.len() {
        out.extend_from_slice(block);
    } else if c > 0 {
        let start = out.len();
        let k = if out.capacity() - start >= BLOCK {
            out.resize(start + BLOCK, block[0]);
            let k = compress_block(block, lo, hi, &mut out[start..start + BLOCK]);
            out.truncate(start + c);
            k
        } else {
            let mut buf = [block[0]; BLOCK];
            let k = compress_block(block, lo, hi, &mut buf);
            out.extend_from_slice(&buf[..c]);
            k
        };
        debug_assert_eq!(k, c, "the compress-store moves what the count counted");
    }
    c
}

/// The branchless compress-store of a mixed block into `dst`, [`BLOCK`]
/// values long; returns the number of matches. Every value is written at
/// the cursor unconditionally and the cursor advances by the predicate as
/// a `0/1`, so the loop carries no data-dependent branch; the values
/// failing the predicate after the last match land past the matches.
#[inline(always)]
fn compress_block<V: ColumnValue>(block: &[V], lo: V, hi: V, dst: &mut [V]) -> usize {
    let mut k = 0usize;
    for &v in block {
        // A mixed block has fewer than `BLOCK` matches, so the modulo
        // never wraps; it only lets the compiler drop the bounds check.
        dst[k % BLOCK] = v;
        k += usize::from(lo <= v) & usize::from(v <= hi);
    }
    k
}

/// Copy of the values inside `q` into `out`, order preserved.
///
/// Counted and moved in blocks of 64 by `append_matches`: `memcpy` for a
/// fully matching block, nothing for an empty one, a branchless
/// compress-store for a mixed block only.
pub fn collect_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>, out: &mut Vec<V>) {
    append_matches(values, q.lo(), q.hi(), out);
}

/// `scanMat(s, M)` over a raw payload: one pass answers `q` **and** fills
/// every replica of the materialization list.
///
/// Returns the number of values inside `q`. `fills` are the value ranges
/// of the replicas to fill — ascending and pairwise disjoint — and
/// `outs[i]` receives, in storage order, exactly the values inside
/// `fills[i]` (what `collect_range(values, &fills[i], &mut outs[i])`
/// would append).
///
/// A slice of at least [`PAR_MIN`] values is scanned in two halves. The
/// caller's half appends straight to `outs`; the helper's half appends to
/// outputs of its own, which the caller allocates at the spare capacity of
/// the matching `outs[i]` (its estimate of the fill, capped at the half's
/// length; an output grows on the helper only where the estimate was
/// short) and appends to `outs[i]` after the join. So every output holds
/// the lower half's values followed by the upper half's, in storage order.
pub(crate) fn scan_fill<V: ColumnValue>(
    values: &[V],
    q: &ValueRange<V>,
    fills: &[ValueRange<V>],
    outs: &mut [Vec<V>],
) -> u64 {
    debug_assert_eq!(fills.len(), outs.len(), "one output per fill range");
    debug_assert!(
        fills.windows(2).all(|w| w[0].hi() < w[1].lo()),
        "fill ranges must be ascending and disjoint"
    );
    if fills.is_empty() {
        return count_range(values, q);
    }
    let (lower, upper) = halves(values);
    if upper.is_empty() {
        return fill_half(values, q, fills, outs, &mut Vec::new());
    }
    let mut tails: Vec<Vec<V>> = outs
        .iter()
        .map(|out| Vec::with_capacity((out.capacity() - out.len()).min(upper.len())))
        .collect();
    // The survivors of one chunk at most; allocated here so that the helper
    // starts with every buffer it writes.
    let mut survivors = Vec::with_capacity(if fills.len() > 1 { CHUNK } else { 0 });
    let (a, b) = join(
        true,
        || fill_half(lower, q, fills, outs, &mut Vec::new()),
        || fill_half(upper, q, fills, &mut tails, &mut survivors),
    );
    for (out, tail) in outs.iter_mut().zip(&tails) {
        out.extend_from_slice(tail);
    }
    a + b
}

/// [`scan_fill`] on one thread; `survivors` is scratch for several fills.
///
/// Per chunk the hull of the fills is counted and moved in blocks by
/// `append_matches`, so only its mixed blocks are compress-stored. A
/// single fill is its hull and moves straight into its output. With
/// several fills the hull's values are moved once into the chunk-sized
/// `survivors` and each fill is then cut out of those survivors the same
/// way — the per-fill work scales with the hull's hits, not with the chunk
/// (values in a gap between fills match no fill and are dropped there).
/// The query is answered from the same chunk while it is hot in L1: when
/// the only fill *is* the query — the common case of adaptive replication
/// — the hull's one count is the answer; when the hull holds the query,
/// the query is counted over the hull's hits; otherwise over the chunk.
/// Branchless throughout.
fn fill_half<V: ColumnValue>(
    values: &[V],
    q: &ValueRange<V>,
    fills: &[ValueRange<V>],
    outs: &mut [Vec<V>],
    survivors: &mut Vec<V>,
) -> u64 {
    let (Some(first), Some(last)) = (fills.first(), fills.last()) else {
        return 0;
    };
    let (qlo, qhi) = (q.lo(), q.hi());
    let (hlo, hhi) = (first.lo(), last.hi());
    let fill_is_query = matches!(fills, [f] if f == q);
    let q_in_hull = hlo <= qlo && qhi <= hhi;
    let mut total = 0u64;
    for chunk in values.chunks(CHUNK) {
        // The hull's hits: straight into the only fill's output, or into
        // the survivors each of several fills is then cut from.
        let hits = match &mut *outs {
            [out] => {
                let start = out.len();
                append_matches(chunk, hlo, hhi, out);
                &out[start..]
            }
            _ => {
                survivors.clear();
                append_matches(chunk, hlo, hhi, survivors);
                for (r, out) in fills.iter().zip(outs.iter_mut()) {
                    append_matches(survivors, r.lo(), r.hi(), out);
                }
                &survivors[..]
            }
        };
        // Inside the hull the query's values are among the hits; when the
        // only fill is the query they are the hits.
        total += if fill_is_query {
            hits.len() as u64
        } else {
            let src = if q_in_hull { hits } else { chunk };
            u64::from(count_chunk(src, qlo, qhi))
        };
    }
    total
}

/// How many values of each half of a slice, as [`halves`] cuts it, go to
/// each piece of its partition: `[lower, upper]`, one length per piece.
pub(crate) type HalfLens = [Vec<usize>; 2];

/// Splits `values` at the ascending inner `bounds` into `bounds.len() + 1`
/// pieces: piece `i` holds, in storage order, the values with exactly `i`
/// bounds strictly below them (`bounds[i - 1] < v <= bounds[i]`), so each
/// bound is the inclusive upper end of the piece before it.
///
/// `lens` gives the pieces' sizes in each half when the caller counted
/// them already (a split at a query's own bounds, counted by that query's
/// [`count_partition`]); otherwise a vectorized count of the values above
/// each bound gives them. Then one scatter pass moves every value: the
/// piece index is arithmetic on the comparisons (`(b0 < v) + (b1 < v)`),
/// not a probe.
///
/// The largest piece keeps the buffer of `values`: the pass compacts its
/// values, order kept, toward the front of the buffer over values already
/// read, and writes every other value to the next free slot of its piece,
/// each allocated at its final size. So the largest piece takes no fresh
/// pages and no initialising pass, the split holds `n + (n - largest)`
/// values at its peak instead of `2n`, and every piece returns with
/// `capacity() == len()`.
///
/// A slice of at least [`PAR_MIN`] values runs both passes in two halves.
/// The caller scatters the lower half into the front of each piece and
/// compacts its share of the largest one to the front of the buffer; the
/// helper does the same with the upper half, into the back of each piece
/// and the front of the upper half. One `copy_within` then closes the gap
/// between the two shares of the largest piece. Appending the helper's
/// half from buckets of its own instead measured no faster and peaked
/// 6 MB higher on `socbench sky_adapt`.
pub(crate) fn partition_into<V: ColumnValue>(
    mut values: Vec<V>,
    bounds: &[V],
    lens: Option<HalfLens>,
) -> Vec<Vec<V>> {
    debug_assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "partition bounds must be strictly ascending"
    );
    let Some(&first) = values.first() else {
        return vec![Vec::new(); bounds.len() + 1];
    };
    let [lens_lower, lens_upper] = match lens {
        Some(lens) => {
            debug_assert_eq!(lens, count_pieces(&values, bounds), "passed-in piece sizes");
            lens
        }
        None => count_pieces(&values, bounds),
    };
    let sizes: Vec<usize> = lens_lower
        .iter()
        .zip(&lens_upper)
        .map(|(a, b)| a + b)
        .collect();
    // A largest piece keeps the buffer; every other one gets its own.
    let keep = (0..sizes.len()).max_by_key(|&i| sizes[i]).unwrap_or(0);
    let mut pieces: Vec<Vec<V>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            if i == keep {
                Vec::new()
            } else {
                vec![first; n]
            }
        })
        .collect();
    let (mut slots_lower, mut slots_upper): (Vec<&mut [V]>, Vec<&mut [V]>) = pieces
        .iter_mut()
        .zip(&lens_lower)
        .map(|(piece, &n)| {
            // The kept piece has no buffer of its own yet.
            let n = n.min(piece.len());
            piece.split_at_mut(n)
        })
        .unzip();
    let lower_len = halves(&values).0.len();
    let (lower, upper) = values.split_at_mut(lower_len);
    let (kept_lower, kept_upper) = join(
        !upper.is_empty(),
        || scatter(lower, bounds, keep, &mut slots_lower),
        || scatter(&mut upper[..], bounds, keep, &mut slots_upper),
    );
    debug_assert_eq!(
        [kept_lower, kept_upper],
        [lens_lower[keep], lens_upper[keep]]
    );
    values.copy_within(lower_len..lower_len + kept_upper, kept_lower);
    values.truncate(kept_lower + kept_upper);
    values.shrink_to_fit();
    pieces[keep] = values;
    pieces
}

/// The sizes of `values`' pieces at `bounds` in each half, from a count of
/// the values above each bound (in two halves on two threads, as
/// [`halves`] cuts them).
fn count_pieces<V: ColumnValue>(values: &[V], bounds: &[V]) -> HalfLens {
    let (lower, upper) = halves(values);
    let (mut above_lower, mut above_upper) = (vec![0; bounds.len()], vec![0; bounds.len()]);
    join(
        !upper.is_empty(),
        || count_above(lower, bounds, &mut above_lower),
        || count_above(upper, bounds, &mut above_upper),
    );
    [
        piece_lens(lower.len(), &above_lower),
        piece_lens(upper.len(), &above_upper),
    ]
}

/// Counts into `above[i]` the values of `values` above `bounds[i]`.
fn count_above<V: ColumnValue>(values: &[V], bounds: &[V], above: &mut [u64]) {
    for chunk in values.chunks(CHUNK) {
        for (total, &b) in above.iter_mut().zip(bounds) {
            let mut acc = 0u32;
            for &v in chunk {
                acc += u32::from(b < v);
            }
            *total += acc as u64;
        }
    }
}

/// The sizes of the `above.len() + 1` pieces of `len` values, given how
/// many lie above each bound: piece `i` is above bound `i - 1` (every
/// value, for piece 0) but not above bound `i` (none, for the last piece).
fn piece_lens(len: usize, above: &[u64]) -> Vec<usize> {
    let mut lens = Vec::with_capacity(above.len() + 1);
    let mut reach = len as u64;
    for &a in above {
        lens.push((reach - a) as usize);
        reach = a;
    }
    lens.push(reach as usize);
    lens
}

/// The scatter pass of [`partition_into`] over one half: compacts the
/// values of piece `keep` to the front of `values`, order kept, and
/// writes every other value to the front of its piece's `slots`, moving
/// that front past it; returns how many values piece `keep` holds. The
/// slots are exactly as many as the values each piece receives; the kept
/// piece's slot is ignored.
fn scatter<V: ColumnValue>(
    values: &mut [V],
    bounds: &[V],
    keep: usize,
    slots: &mut [&mut [V]],
) -> usize {
    match *bounds {
        [b0] => scatter_n::<V, 2>(values, keep, slots, |v| usize::from(b0 < v)),
        [b0, b1] => scatter_n::<V, 3>(values, keep, slots, |v| {
            usize::from(b0 < v) + usize::from(b1 < v)
        }),
        _ => scatter_many(values, keep, slots, |v| bounds.partition_point(|b| *b < v)),
    }
}

/// [`scatter`] into `N` pieces, the piece of a value computed by
/// `piece_of`. Every value is written at the cursor of every piece, and
/// only its own piece's cursor advances past it, so the loop takes no
/// branch on the piece and keeps the cursors in registers. The kept
/// piece's cursor runs over `values` itself, never past the value being
/// read: whatever it overwrites was read already.
#[inline]
fn scatter_n<V: ColumnValue, const N: usize>(
    values: &mut [V],
    keep: usize,
    slots: &mut [&mut [V]],
    piece_of: impl Fn(V) -> usize,
) -> usize {
    let values = Cell::from_mut(values).as_slice_of_cells();
    let outs: [&[Cell<V>]; N] = std::array::from_fn(|k| match slots.get_mut(k) {
        Some(slot) if k != keep => Cell::from_mut(std::mem::take(slot)).as_slice_of_cells(),
        _ => values,
    });
    let mut at = [0usize; N];
    for v in values {
        let v = v.get();
        let piece = piece_of(v);
        for k in 0..N {
            // Past its end only once a piece has all its values.
            if let Some(cell) = outs[k].get(at[k]) {
                cell.set(v);
            }
            at[k] += usize::from(k == piece);
        }
    }
    at[keep]
}

/// [`scatter`] into any number of pieces: the kept values compact behind
/// a cursor, every other value moves to the front of its piece's slot.
fn scatter_many<V: ColumnValue>(
    values: &mut [V],
    keep: usize,
    slots: &mut [&mut [V]],
    piece_of: impl Fn(V) -> usize,
) -> usize {
    let mut kept = 0;
    for at in 0..values.len() {
        let v = values[at];
        let piece = piece_of(v);
        if piece == keep {
            // `kept <= at`: the cursor never passes a value not yet read.
            values[kept] = v;
            kept += 1;
        } else if let Some((slot, rest)) = std::mem::take(&mut slots[piece]).split_first_mut() {
            *slot = v;
            slots[piece] = rest;
        }
    }
    kept
}

/// Branchless three-way partition count against `q`: `[below q.lo,
/// inside, above q.hi]` for each half of `values` as [`halves`] cuts it
/// (`[lower, upper]`, the upper one zeros when the slice is not cut),
/// summing to `values.len()`.
///
/// This is the one-pass carve-up the segmentation models decide on
/// ([`crate::estimate::exact_pieces`]), and a split at the query's own
/// bounds takes its pieces' sizes per half from it ([`partition_into`]);
/// two accumulators per chunk, the overlap by subtraction. A slice of at
/// least [`PAR_MIN`] values is counted in two halves, the upper one on a
/// helper thread.
pub(crate) fn count_partition<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> [[u64; 3]; 2] {
    let (lo, hi) = (q.lo(), q.hi());
    let count = |half: &[V]| {
        let mut below = 0u64;
        let mut above = 0u64;
        for chunk in half.chunks(CHUNK) {
            let mut b = 0u32;
            let mut a = 0u32;
            for &v in chunk {
                b += u32::from(v < lo);
                a += u32::from(hi < v);
            }
            below += b as u64;
            above += a as u64;
        }
        [below, half.len() as u64 - below - above, above]
    };
    let (lower, upper) = halves(values);
    let (a, b) = join(!upper.is_empty(), || count(lower), || count(upper));
    [a, b]
}

/// [`count_partition`] of an ascending slice, by search instead of a
/// scan: the values below `q.lo` and those up to `q.hi` end where two
/// binary searches ([`sorted_run`]) find them. All of them count in the
/// lower half, the upper one zeros: a sorted split cuts its window by
/// search and takes no per-half sizes.
///
/// The caller guarantees `sorted` is ascending, as for [`sorted_run`].
pub(crate) fn sorted_partition<V: ColumnValue>(sorted: &[V], q: &ValueRange<V>) -> [[u64; 3]; 2] {
    let (start, end) = sorted_run(sorted, q);
    let len = sorted.len();
    [
        [start as u64, (end - start) as u64, (len - end) as u64],
        [0; 3],
    ]
}

/// Masked `SUM(v) WHERE v IN q` (as `f64`): the predicate folds into a
/// `0.0/1.0` multiplier, so the loop carries no branch. No read calls it —
/// a served `SUM` adds a sorted run (`sum_sorted_run`) or a synopsis —
/// but it is the specification both reproduce bit for bit, and the
/// benchmark harness times it as `kernels.sum_ns_per_elem`.
pub fn sum_range<V: ColumnValue>(values: &[V], q: &ValueRange<V>) -> f64 {
    let (lo, hi) = (q.lo(), q.hi());
    let mut total = 0.0f64;
    for chunk in values.chunks(CHUNK) {
        let mut acc = 0.0f64;
        for &v in chunk {
            let m = (u32::from(lo <= v) & u32::from(v <= hi)) as f64;
            acc += m * v.to_f64();
        }
        total += acc;
    }
    total
}

/// One chunk's accumulator: the sum of the `to_f64` projections of at most
/// [`CHUNK`] values, added in order into one `f64` that starts at `+0.0` —
/// or the value type's exact integer sum, which yields the same bits
/// ([`ColumnValue::exact_chunk_sum`]) without the chain of dependent
/// floating-point adds.
#[inline]
fn sum_chunk<V: ColumnValue>(chunk: &[V]) -> f64 {
    V::exact_chunk_sum(chunk).unwrap_or_else(|| {
        let mut acc = 0.0f64;
        for &v in chunk {
            acc += v.to_f64();
        }
        acc
    })
}

/// Widens the bounds `b` to take in `lo` and `hi`. A value equal to a bound
/// already held (`-0.0` and `+0.0`) leaves it, so bounds widened in storage
/// order keep the earliest occurrence.
#[inline(always)]
fn widen<V: ColumnValue>(b: &mut (V, V), lo: V, hi: V) {
    b.0 = if lo < b.0 { lo } else { b.0 };
    b.1 = if b.1 < hi { hi } else { b.1 };
}

/// [`sum_chunk`] of one chunk, widening `b` by its values when `bounds` is
/// set: after the exact sum in a second, vectorized pass over the chunk,
/// on the `f64` chain in the chain's own loop.
#[inline(always)]
fn fold_chunk<V: ColumnValue>(chunk: &[V], bounds: bool, b: &mut (V, V)) -> f64 {
    if !bounds {
        return sum_chunk(chunk);
    }
    if let Some(sum) = V::exact_chunk_sum(chunk) {
        for &v in chunk {
            widen(b, v, v);
        }
        return sum;
    }
    let mut acc = 0.0f64;
    for &v in chunk {
        acc += v.to_f64();
        widen(b, v, v);
    }
    acc
}

/// Four consecutive whole chunks of `quad` folded side by side, each into
/// its own accumulator and bounds: the four sums, in chunk order, with `b`
/// widened by each chunk's bounds in chunk order.
#[inline(always)]
fn fold_quad<V: ColumnValue>(quad: &[V], bounds: bool, b: &mut (V, V)) -> [f64; 4] {
    let (c0, rest) = quad.split_at(CHUNK);
    let (c1, rest) = rest.split_at(CHUNK);
    let (c2, c3) = rest.split_at(CHUNK);
    let mut acc = [0.0f64; 4];
    let mut own = [c0[0], c1[0], c2[0], c3[0]].map(|v| (v, v));
    for (((&v0, &v1), &v2), &v3) in c0.iter().zip(c1).zip(c2).zip(c3) {
        for (k, v) in [v0, v1, v2, v3].into_iter().enumerate() {
            acc[k] += v.to_f64();
            if bounds {
                widen(&mut own[k], v, v);
            }
        }
    }
    for (lo, hi) in own {
        widen(b, lo, hi);
    }
    acc
}

/// The chunk fold behind every synopsis: hands each [`CHUNK`]'s sum
/// ([`sum_chunk`]'s bits) to `emit` in chunk order and returns the slice's
/// bounds as one compare-select pass in storage order finds them — or,
/// when `bounds` is unset, the first value twice. `None` when empty.
///
/// One `f64` chain waits on the add's latency for every value. Here four
/// consecutive chunks fold side by side, each still adding its values in
/// order into its own accumulator from `+0.0`, so the four independent
/// chains hide that latency without changing a bit. Each chunk keeps its
/// own bounds as well, and they widen the result in chunk order, which
/// keeps the earliest of equal values. A type with an exact chunk sum
/// (asked of the empty chunk) has no chain to hide and folds chunk by
/// chunk, as does the tail of fewer than four whole chunks.
#[inline(always)]
fn fold_chunks<V: ColumnValue>(
    values: &[V],
    bounds: bool,
    mut emit: impl FnMut(f64),
) -> Option<(V, V)> {
    let &first = values.first()?;
    let mut b = (first, first);
    let quads = if V::exact_chunk_sum(&[]).is_some() {
        0
    } else {
        values.len() / (4 * CHUNK)
    };
    let (whole, tail) = values.split_at(quads * 4 * CHUNK);
    for quad in whole.chunks_exact(4 * CHUNK) {
        for sum in fold_quad(quad, bounds, &mut b) {
            emit(sum);
        }
    }
    for chunk in tail.chunks(CHUNK) {
        emit(fold_chunk(chunk, bounds, &mut b));
    }
    Some(b)
}

/// `(min, max, sum)` of `values` by [`fold_chunks`] — the chunk sums added
/// in order into one total from `+0.0` — where the bounds are the first
/// value twice unless `bounds` is set; `None` when empty.
///
/// A slice of at least [`PAR_MIN`] values folds in two halves. The helper
/// folds the upper half and keeps its chunk sums in a buffer the caller
/// allocated; the caller adds its own chunk sums, then the helper's, in
/// order, and widens the lower half's bounds by the upper half's. So the
/// total adds the same chunk sums in the same order, and the bounds are
/// those of one pass.
fn fold<V: ColumnValue>(values: &[V], bounds: bool) -> Option<(V, V, f64)> {
    let (lower, upper) = halves(values);
    let mut total = 0.0f64;
    if upper.is_empty() {
        let (mn, mx) = fold_chunks(values, bounds, |sum| total += sum)?;
        return Some((mn, mx, total));
    }
    let mut upper_sums = Vec::with_capacity(upper.len().div_ceil(CHUNK));
    let (b, upper_b) = join(
        true,
        || fold_chunks(lower, bounds, |sum| total += sum),
        || fold_chunks(upper, bounds, |sum| upper_sums.push(sum)),
    );
    let (mut b, (lo, hi)) = (b?, upper_b?);
    widen(&mut b, lo, hi);
    for sum in upper_sums {
        total += sum;
    }
    Some((b.0, b.1, total))
}

/// Sum of every value's `to_f64` projection, chunked exactly like
/// [`sum_range`]. This is what a piece synopsis stores: because IEEE-754
/// guarantees `1.0 * x == x`, and the chunk/accumulator structure is the
/// same, the stored sum is bit-identical to the `sum_range` result of any
/// query that covers the whole slice — so a pruned aggregate that answers
/// a covered piece from its synopsis reproduces the unpruned scan exactly.
/// The chunks fold four at a time, a long slice in two halves ([`fold`]).
pub(crate) fn sum_all<V: ColumnValue>(values: &[V]) -> f64 {
    fold(values, false).map_or(0.0, |(_, _, sum)| sum)
}

/// Min and max over the whole slice (no predicate); `None` when empty.
/// The bounds of the synopsis fold, four chunks side by side and a slice
/// of at least 2¹⁹ values in two halves: those one compare-select pass in
/// storage order finds, the earliest of equal values.
pub fn min_max_all<V: ColumnValue>(values: &[V]) -> Option<(V, V)> {
    fold(values, true).map(|(min, max, _)| (min, max))
}

/// `(min, max, sum)` of the whole slice in one pass; `None` when empty.
///
/// What a piece synopsis needs right after a split has written the piece:
/// the bounds of [`min_max_all`] and the sum of [`sum_all`], chunk by
/// chunk while the chunk is in L1. The sum is [`fold`]'s, as `sum_all`'s
/// is, so the two are bit-identical (and hence equal to a covering
/// [`sum_range`]); on the `f64` chain the bounds' compare-selects share
/// the chain's loop, four chunks at a time.
pub(crate) fn min_max_sum_all<V: ColumnValue>(values: &[V]) -> Option<(V, V, f64)> {
    fold(values, true)
}

/// The positions `[start, end)` of the values inside `q` within a *sorted*
/// run — two binary searches, no scan. The two do not depend on each
/// other, so the core overlaps them; confining the second to
/// `sorted[start..]` makes it wait for the first, which measured slower
/// than the steps it saves (`socbench`'s `kernels.sorted_run_ns` probe,
/// PR 32 in CHANGES.md).
///
/// This is the fast path for data that is already totally ordered: the
/// fully-sorted baseline, and the contiguous result slices a cracked
/// column's pieces delimit. `end >= start` always holds (an empty result is
/// `start == end`).
///
/// The caller guarantees `sorted` is ascending (an O(n) check here would
/// invert the fast path's complexity on every query); unsorted input
/// yields positions of no particular meaning, never a panic.
pub fn sorted_run<V: ColumnValue>(sorted: &[V], q: &ValueRange<V>) -> (usize, usize) {
    let start = sorted.partition_point(|x| *x < q.lo());
    let end = sorted.partition_point(|x| *x <= q.hi());
    (start, end.max(start))
}

/// Sum of the `to_f64` projections of `sorted[start..end]` — the qualifying
/// run [`sorted_run`] delimits — accumulated per [`CHUNK`] with the chunk
/// boundaries aligned to the start of `sorted`, not of the run.
///
/// That alignment is what makes the result **bit-identical** to the masked
/// [`sum_range`] over the whole slice: the masked kernel adds an exact
/// `0.0` for every value outside the run (finite `v`, so `0.0 * v` is a
/// zero, and an accumulator that starts at `+0.0` never changes by adding
/// one), so per chunk both kernels add the same values in the same order,
/// and chunks wholly outside the run contribute `0.0` to the total. Only
/// the O(run) values are read instead of the whole piece, each chunk's
/// share as one `sum_chunk` — an integer sum for the narrow integer
/// types.
pub(crate) fn sum_sorted_run<V: ColumnValue>(sorted: &[V], start: usize, end: usize) -> f64 {
    let mut total = 0.0f64;
    let mut at = start;
    while at < end {
        let stop = ((at / CHUNK + 1) * CHUNK).min(end);
        total += sum_chunk(&sorted[at..stop]);
        at = stop;
    }
    total
}

/// Galloping merge of two ascending runs into `out` (ascending, stable:
/// ties take from `a` first).
///
/// Instead of a per-element compare-and-branch, each iteration binary
/// searches how far the current side runs below the other side's head and
/// appends that whole prefix with `extend_from_slice` — so merging a long
/// base stream with a short delta run costs O(short · log long) plus the
/// `memcpy`s, and the inner loop carries no per-element branch. This is
/// the merge-on-read kernel behind delta-visible collects.
pub fn merge_sorted<V: ColumnValue>(mut a: &[V], mut b: &[V], out: &mut Vec<V>) {
    out.reserve(a.len() + b.len());
    while !a.is_empty() && !b.is_empty() {
        if a[0] <= b[0] {
            let n = a.partition_point(|x| *x <= b[0]);
            out.extend_from_slice(&a[..n]);
            a = &a[n..];
        } else {
            let n = b.partition_point(|x| *x < a[0]);
            out.extend_from_slice(&b[..n]);
            b = &b[n..];
        }
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

/// Sorted multiset subtraction: appends `base` minus one occurrence per
/// `tombstones` entry to `out`. Both inputs ascending; the output is the
/// ascending remainder. A tombstone with no matching occurrence cancels
/// nothing (the delta layer guarantees matches by construction, but a
/// stray tombstone must degrade to a no-op, never corrupt the survivors).
///
/// Runs of surviving values move with `extend_from_slice` (the positions
/// come from binary searches against the next tombstone), so the kernel
/// never pays a per-element branch on the survivor path.
pub(crate) fn subtract_sorted<V: ColumnValue>(base: &[V], tombstones: &[V], out: &mut Vec<V>) {
    let mut i = 0;
    for &t in tombstones {
        if i >= base.len() {
            return;
        }
        let run = base[i..].partition_point(|x| *x < t);
        out.extend_from_slice(&base[i..i + run]);
        i += run;
        if i < base.len() && base[i] == t {
            i += 1; // cancel exactly one occurrence
        }
    }
    out.extend_from_slice(&base[i..]);
}

/// `parts` (ascending, one after another) merged with `inserts` and less
/// one occurrence per `tombstones` entry, appended to `out` in one pass:
/// what [`merge_sorted`] of the concatenated parts with `inserts`, then
/// [`subtract_sorted`] of `tombstones`, leave — the same values, and the
/// same one of two equal values cancelled (the first in merged order, a
/// base value before an insert), which for `OrdF64` tells `-0.0` from
/// `+0.0`. Each part is copied once, in runs between the next insert and
/// the next tombstone, into `out` grown by `parts + inserts − tombstones`
/// values, which is exact when every tombstone cancels a value.
pub(crate) fn merge_subtract_sorted<'a, V: ColumnValue>(
    parts: &[&'a [V]],
    mut inserts: &'a [V],
    mut tombstones: &[V],
    out: &mut Vec<V>,
) {
    let rows = parts.iter().map(|p| p.len()).sum::<usize>() + inserts.len();
    out.reserve_exact(rows.saturating_sub(tombstones.len()));
    let mut parts = parts.iter().copied();
    let mut base: &'a [V] = &[];
    loop {
        if inserts.is_empty() && tombstones.is_empty() {
            // Nothing (left) to merge or cancel — a read with no pending
            // run in range starts here: the rest is copied part by part.
            out.extend_from_slice(base);
            for part in parts {
                out.extend_from_slice(part);
            }
            return;
        }
        if base.is_empty() {
            if let Some(part) = parts.next() {
                base = part;
                continue;
            }
        }
        // The merged stream's head: a base value ties ahead of an insert.
        let (from_base, other) = match (base.first(), inserts.first()) {
            (Some(b), Some(y)) if b <= y => (true, Some(*y)),
            (Some(b), Some(_)) => (false, Some(*b)),
            (Some(_), None) => (true, None),
            (None, Some(_)) => (false, None),
            (None, None) => break,
        };
        let side = if from_base { &mut base } else { &mut inserts };
        let head = side[0];
        // A tombstone below the head matches nothing; one equal to it
        // cancels it.
        tombstones = &tombstones[tombstones.partition_point(|t| *t < head)..];
        if tombstones.first() == Some(&head) {
            *side = &side[1..];
            tombstones = &tombstones[1..];
            continue;
        }
        // A run of the side below the next tombstone and ahead of the other
        // side's head: all of it when neither is left.
        let n = match (tombstones.first().copied(), other) {
            (None, None) => side.len(),
            (next_tombstone, _) => side.partition_point(|x| {
                next_tombstone.is_none_or(|t| *x < t)
                    && other.is_none_or(|o| if from_base { *x <= o } else { *x < o })
            }),
        };
        out.extend_from_slice(&side[..n]);
        *side = &side[n..];
    }
}

/// Cancels one occurrence of each `tombstones` entry (ascending) from
/// `values` (any order, which is preserved), returning how many tombstones
/// found **no** occurrence — the in-place counterpart of
/// [`subtract_sorted`] for pieces that are not sorted, and the one place a
/// stray tombstone is counted instead of silently absorbed.
///
/// One pass over `values`: each value binary-searches the start of its
/// equal run among the tombstones, and a per-run cursor hands out the next
/// unconsumed tombstone, so duplicates cancel one occurrence apiece.
pub(crate) fn cancel_occurrences<V: ColumnValue>(values: &mut Vec<V>, tombstones: &[V]) -> u64 {
    if tombstones.is_empty() {
        return 0;
    }
    // next[s]: first unconsumed tombstone of the equal run starting at s.
    let mut next: Vec<usize> = (0..tombstones.len()).collect();
    let mut matched = 0u64;
    values.retain(|v| {
        let s = tombstones.partition_point(|t| t < v);
        match next.get(s).copied() {
            Some(i) if tombstones.get(i) == Some(v) => {
                next[s] = i + 1;
                matched += 1;
                false
            }
            _ => true,
        }
    });
    tombstones.len() as u64 - matched
}

/// Delete-mask count of one delta run against `q`: how many inserts and
/// how many tombstones fall inside the query, as `(added, removed)` —
/// four binary searches, no scan. The caller folds these into the base
/// count as `base + added − removed` (the multiset identity; `removed`
/// never exceeds the values actually present when tombstones are valid).
pub fn delta_count<V: ColumnValue>(
    inserts: &[V],
    tombstones: &[V],
    q: &ValueRange<V>,
) -> (u64, u64) {
    let (s, e) = sorted_run(inserts, q);
    let added = (e - s) as u64;
    let (s, e) = sorted_run(tombstones, q);
    (added, (e - s) as u64)
}

/// Smallest net-surviving value across ascending `adds` streams after
/// cancelling one occurrence per entry of the ascending `tombs` streams;
/// `None` when everything cancels.
///
/// Both sides walk ascending in lockstep: a tombstone equal to the
/// current smallest add cancels it and the walk advances; a tombstone
/// below every add cancels nothing. The walk stops at the first
/// uncancelled add, so the cost is O(cancelled prefix), not O(total) —
/// the update-shadowing kernel behind delta-visible `MIN`.
pub(crate) fn net_min<V: ColumnValue>(adds: &[&[V]], tombs: &[&[V]]) -> Option<V> {
    let mut ai = vec![0usize; adds.len()];
    let mut ti = vec![0usize; tombs.len()];
    loop {
        let mut best: Option<(usize, V)> = None;
        for (k, s) in adds.iter().enumerate() {
            if let Some(&v) = s.get(ai[k]) {
                let better = match best {
                    None => true,
                    Some((_, b)) => v < b,
                };
                if better {
                    best = Some((k, v));
                }
            }
        }
        let (k, v) = best?;
        let mut tbest: Option<(usize, V)> = None;
        for (j, s) in tombs.iter().enumerate() {
            if let Some(&t) = s.get(ti[j]) {
                let better = match tbest {
                    None => true,
                    Some((_, b)) => t < b,
                };
                if better {
                    tbest = Some((j, t));
                }
            }
        }
        match tbest {
            Some((j, t)) if t < v => ti[j] += 1, // stray: nothing to cancel
            Some((j, t)) if t == v => {
                ti[j] += 1;
                ai[k] += 1;
            }
            _ => return Some(v),
        }
    }
}

/// Largest net-surviving value — the descending mirror of [`net_min`],
/// walking both sides from their tails. The kernel behind delta-visible
/// `MAX`.
pub(crate) fn net_max<V: ColumnValue>(adds: &[&[V]], tombs: &[&[V]]) -> Option<V> {
    let mut ai: Vec<usize> = adds.iter().map(|s| s.len()).collect();
    let mut ti: Vec<usize> = tombs.iter().map(|s| s.len()).collect();
    loop {
        let mut best: Option<(usize, V)> = None;
        for (k, s) in adds.iter().enumerate() {
            if ai[k] > 0 {
                let v = s[ai[k] - 1];
                let better = match best {
                    None => true,
                    Some((_, b)) => v > b,
                };
                if better {
                    best = Some((k, v));
                }
            }
        }
        let (k, v) = best?;
        let mut tbest: Option<(usize, V)> = None;
        for (j, s) in tombs.iter().enumerate() {
            if ti[j] > 0 {
                let t = s[ti[j] - 1];
                let better = match tbest {
                    None => true,
                    Some((_, b)) => t > b,
                };
                if better {
                    tbest = Some((j, t));
                }
            }
        }
        match tbest {
            Some((j, t)) if t > v => ti[j] -= 1, // stray: nothing to cancel
            Some((j, t)) if t == v => {
                ti[j] -= 1;
                ai[k] -= 1;
            }
            _ => return Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn shuffled(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..100_000)).collect()
    }

    fn naive_count(values: &[u32], q: &ValueRange<u32>) -> u64 {
        values.iter().filter(|v| q.contains(**v)).count() as u64
    }

    #[test]
    fn count_matches_naive_across_chunk_boundaries() {
        // Lengths straddling 0, 1, CHUNK-1, CHUNK, CHUNK+1, several chunks.
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let values = shuffled(n, n as u64);
            for (lo, hi) in [(0, 99_999), (20_000, 59_999), (99_999, 99_999), (0, 0)] {
                let q = ValueRange::must(lo, hi);
                assert_eq!(
                    count_range(&values, &q),
                    naive_count(&values, &q),
                    "n={n} {q:?}"
                );
            }
        }
    }

    #[test]
    fn collect_matches_naive_and_preserves_order() {
        let values = shuffled(2 * CHUNK + 123, 7);
        for (lo, hi) in [(0, 99_999), (10_000, 49_999), (50_000, 50_000)] {
            let q = ValueRange::must(lo, hi);
            let mut got = Vec::new();
            collect_range(&values, &q, &mut got);
            let expect: Vec<u32> = values.iter().copied().filter(|v| q.contains(*v)).collect();
            assert_eq!(got, expect, "{q:?}");
        }
    }

    #[test]
    fn collect_full_cover_chunk_fast_path() {
        // Every value matches: the fast path must still append all chunks.
        let values: Vec<u32> = (0..(CHUNK as u32 * 2 + 5)).collect();
        let q = ValueRange::must(0, u32::MAX);
        let mut got = Vec::new();
        collect_range(&values, &q, &mut got);
        assert_eq!(got, values);
    }

    #[test]
    fn partition_counts_sum_and_match() {
        let values = shuffled(CHUNK + 999, 11);
        let q = ValueRange::must(25_000, 74_999);
        let [[b, m, a], upper] = count_partition(&values, &q);
        assert_eq!(upper, [0; 3], "a slice below PAR_MIN is one half");
        assert_eq!(b + m + a, values.len() as u64);
        assert_eq!(b, values.iter().filter(|&&v| v < 25_000).count() as u64);
        assert_eq!(a, values.iter().filter(|&&v| v > 74_999).count() as u64);
        assert_eq!(m, naive_count(&values, &q));
    }

    #[test]
    fn sorted_run_matches_linear_scan() {
        let mut values = shuffled(5_000, 13);
        values.sort_unstable();
        for (lo, hi) in [(0, 99_999), (30_000, 30_000), (99_998, 99_999), (0, 0)] {
            let q = ValueRange::must(lo, hi);
            let (s, e) = sorted_run(&values, &q);
            assert_eq!((e - s) as u64, naive_count(&values, &q), "{q:?}");
            assert!(values[s..e].iter().all(|v| q.contains(*v)));
        }
    }

    #[test]
    fn sorted_run_empty_result_is_start_eq_end() {
        let values: Vec<u32> = vec![10, 20, 30];
        let (s, e) = sorted_run(&values, &ValueRange::must(11, 19));
        assert_eq!(s, e);
        let (s, e) = sorted_run(&values, &ValueRange::must(31, 99));
        assert_eq!((s, e), (3, 3));
    }

    #[test]
    fn fused_sum_matches_collect_then_fold() {
        let values = shuffled(2 * CHUNK + 77, 17);
        for (lo, hi) in [(0, 99_999), (20_000, 59_999), (5, 5), (99_999, 99_999)] {
            let q = ValueRange::must(lo, hi);
            let expect: f64 = values
                .iter()
                .filter(|v| q.contains(**v))
                .map(|&v| v as f64)
                .sum();
            assert_eq!(sum_range(&values, &q), expect, "{q:?}");
        }
    }

    #[test]
    fn sum_all_is_bit_identical_to_a_covering_sum_range() {
        let values = shuffled(3 * CHUNK + 41, 23);
        let covering = ValueRange::must(0u32, u32::MAX);
        assert_eq!(
            sum_all(&values).to_bits(),
            sum_range(&values, &covering).to_bits()
        );
        assert_eq!(sum_all::<u32>(&[]), 0.0);
    }

    #[test]
    fn min_max_all_matches_iterator_fold() {
        let values = shuffled(CHUNK + 3, 29);
        let mn = values.iter().copied().min().unwrap();
        let mx = values.iter().copied().max().unwrap();
        assert_eq!(min_max_all(&values), Some((mn, mx)));
        assert_eq!(min_max_all::<u32>(&[]), None);
        assert_eq!(min_max_all(&[7u32]), Some((7, 7)));
    }

    #[test]
    fn merge_sorted_matches_sort_of_concatenation() {
        for (na, nb) in [(0, 0), (0, 7), (7, 0), (300, 5), (5, 300), (257, 263)] {
            let mut a = shuffled(na, na as u64 + 1);
            let mut b = shuffled(nb, nb as u64 + 2);
            a.sort_unstable();
            b.sort_unstable();
            let mut got = Vec::new();
            merge_sorted(&a, &b, &mut got);
            let mut expect = [a.clone(), b.clone()].concat();
            expect.sort_unstable();
            assert_eq!(got, expect, "na={na} nb={nb}");
        }
    }

    #[test]
    fn merge_sorted_is_stable_on_ties() {
        // Equal values interleave with the `a` side first — observable
        // through Pair's oid component.
        use crate::paired::Pair;
        let a = vec![Pair::new(5u32, 1), Pair::new(5, 3)];
        let b = vec![Pair::new(5u32, 2)];
        // Pairs differ in oid so the total order decides; merge by value
        // stability is inherited from the total order here.
        let mut got = Vec::new();
        merge_sorted(&a, &b, &mut got);
        assert_eq!(got, vec![Pair::new(5, 1), Pair::new(5, 2), Pair::new(5, 3)]);
    }

    #[test]
    fn subtract_sorted_removes_one_occurrence_per_tombstone() {
        let base = vec![1u32, 2, 2, 2, 5, 7, 7, 9];
        let mut out = Vec::new();
        subtract_sorted(&base, &[2, 2, 7, 9], &mut out);
        assert_eq!(out, vec![1, 2, 5, 7]);

        // Stray tombstones (no matching occurrence) cancel nothing.
        out.clear();
        subtract_sorted(&base, &[0, 3, 100], &mut out);
        assert_eq!(out, base);

        // Tombstones can drain the base completely.
        out.clear();
        subtract_sorted(&[4u32, 4], &[4, 4], &mut out);
        assert!(out.is_empty());

        // Empty sides are identities.
        out.clear();
        subtract_sorted(&base, &[], &mut out);
        assert_eq!(out, base);
        out.clear();
        subtract_sorted(&[], &[1u32], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_subtract_sorted_cancels_the_first_equal_in_merged_order() {
        use crate::value::OrdF64;
        let z = |v: f64| OrdF64::from_finite(v);
        // A base `-0.0` ties ahead of an inserted `+0.0`: a tombstone for
        // zero cancels the base's.
        let mut out = Vec::new();
        merge_subtract_sorted(&[&[z(-0.0)][..], &[z(1.0)]], &[z(0.0)], &[z(0.0)], &mut out);
        assert_eq!(
            out.iter().map(|v| v.get().to_bits()).collect::<Vec<_>>(),
            [0.0f64.to_bits(), 1.0f64.to_bits()]
        );
        assert_eq!(out.capacity(), out.len());
        // Strays cancel nothing; empty sides are identities.
        let mut out = Vec::new();
        merge_subtract_sorted(
            &[&[1u32, 2, 2][..], &[5]],
            &[2, 9],
            &[0, 2, 3, 9, 10],
            &mut out,
        );
        assert_eq!(out, [1, 2, 2, 5]);
        out.clear();
        merge_subtract_sorted::<u32>(&[], &[], &[4], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn delta_count_masks_both_sides() {
        let ins = vec![10u32, 20, 30, 40];
        let tombs = vec![15u32, 25];
        let q = ValueRange::must(12, 32);
        assert_eq!(delta_count(&ins, &tombs, &q), (2, 2));
        assert_eq!(delta_count(&ins, &tombs, &ValueRange::must(0, 5)), (0, 0));
        assert_eq!(delta_count(&ins, &tombs, &ValueRange::must(0, 99)), (4, 2));
    }

    #[test]
    fn net_min_max_cancel_tombstones_in_order() {
        // Base {5, 7, 9} plus inserts {6}, tombstones cancel 5 and 9.
        let adds: Vec<&[u32]> = vec![&[5, 7, 9], &[6]];
        let tombs: Vec<&[u32]> = vec![&[5, 9]];
        assert_eq!(net_min(&adds, &tombs), Some(6));
        assert_eq!(net_max(&adds, &tombs), Some(7));

        // No tombstones: plain k-way min/max.
        assert_eq!(net_min(&adds, &[]), Some(5));
        assert_eq!(net_max(&adds, &[]), Some(9));

        // Everything cancels.
        let all: Vec<&[u32]> = vec![&[1, 2]];
        let kill: Vec<&[u32]> = vec![&[1], &[2]];
        assert_eq!(net_min(&all, &kill), None);
        assert_eq!(net_max(&all, &kill), None);

        // Stray tombstones below/above everything cancel nothing.
        let stray: Vec<&[u32]> = vec![&[0, 100]];
        assert_eq!(net_min(&adds, &stray), Some(5));
        assert_eq!(net_max(&adds, &stray), Some(9));

        // Duplicates cancel one occurrence at a time.
        let dup: Vec<&[u32]> = vec![&[3, 3, 3]];
        let one: Vec<&[u32]> = vec![&[3]];
        assert_eq!(net_min(&dup, &one), Some(3));
        let two: Vec<&[u32]> = vec![&[3, 3]];
        assert_eq!(net_min(&dup, &two), Some(3));
        let three: Vec<&[u32]> = vec![&[3, 3, 3]];
        assert_eq!(net_min(&dup, &three), None);

        // Empty adds.
        assert_eq!(net_min::<u32>(&[], &[]), None);
        assert_eq!(net_max::<u32>(&[], &[]), None);
    }

    #[test]
    fn net_walk_matches_naive_multiset_subtraction() {
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..50 {
            let a: Vec<u32> = {
                let mut v: Vec<u32> = (0..30).map(|_| rng.gen_range(0..20)).collect();
                v.sort_unstable();
                v
            };
            let b: Vec<u32> = {
                let mut v: Vec<u32> = (0..10).map(|_| rng.gen_range(0..20)).collect();
                v.sort_unstable();
                v
            };
            let t: Vec<u32> = {
                let mut v: Vec<u32> = (0..15).map(|_| rng.gen_range(0..20)).collect();
                v.sort_unstable();
                v
            };
            let mut merged = Vec::new();
            merge_sorted(&a, &b, &mut merged);
            let mut survivors = Vec::new();
            subtract_sorted(&merged, &t, &mut survivors);
            let adds: Vec<&[u32]> = vec![&a, &b];
            let tombs: Vec<&[u32]> = vec![&t];
            assert_eq!(net_min(&adds, &tombs), survivors.first().copied());
            assert_eq!(net_max(&adds, &tombs), survivors.last().copied());
        }
    }

    #[test]
    fn cancel_occurrences_cancels_one_each_and_counts_strays() {
        // Unordered values: order of the survivors is preserved.
        let mut values = vec![7u32, 2, 9, 2, 5, 2, 7];
        assert_eq!(cancel_occurrences(&mut values, &[2, 2, 7]), 0);
        assert_eq!(values, vec![9, 5, 2, 7]);

        // Strays — absent values and surplus duplicates — are counted and
        // leave the survivors alone.
        let mut values = vec![4u32, 4, 1];
        assert_eq!(cancel_occurrences(&mut values, &[0, 4, 4, 4, 8]), 3);
        assert_eq!(values, vec![1]);

        let mut values = vec![3u32, 1];
        assert_eq!(cancel_occurrences(&mut values, &[]), 0);
        assert_eq!(values, vec![3, 1]);
        assert_eq!(cancel_occurrences(&mut Vec::<u32>::new(), &[1, 2]), 2);
    }

    /// Every sum kernel against the masked `sum_range`, bit for bit: the
    /// whole-slice `sum_all` and `min_max_sum_all` against a query covering
    /// every value, and `sum_sorted_run` over the sorted values' run
    /// qualifying for `[a, b]` against the masked sum of the whole slice.
    fn assert_sums_match_masked_sum<V: ColumnValue>(mut values: Vec<V>, a: V, b: V) {
        if let Some((mn, mx)) = min_max_all(&values) {
            let all = sum_range(&values, &ValueRange::must(mn, mx)).to_bits();
            assert_eq!(sum_all(&values).to_bits(), all, "sum_all");
            let fused = min_max_sum_all(&values).map(|(lo, hi, sum)| (lo, hi, sum.to_bits()));
            assert_eq!(fused, Some((mn, mx, all)), "min_max_sum_all");
        }
        values.sort_unstable();
        let q = ValueRange::must(a.min(b), a.max(b));
        let (s, e) = sorted_run(&values, &q);
        assert_eq!(
            sum_sorted_run(&values, s, e).to_bits(),
            sum_range(&values, &q).to_bits(),
            "run [{s}, {e}) of {} values, {q:?}",
            values.len()
        );
    }

    /// The values below, inside and above `[a, b]` (or `[b, a]`) that
    /// [`sorted_partition`] finds by search in the sorted `values`, against
    /// [`count_partition`]'s scan of the same slice, its halves added.
    fn assert_search_counts_as_the_scan<V: ColumnValue>(mut values: Vec<V>, a: V, b: V) {
        values.sort_unstable();
        let q = ValueRange::must(a.min(b), a.max(b));
        let [lower, upper] = count_partition(&values, &q);
        let [searched, rest] = sorted_partition(&values, &q);
        assert_eq!(rest, [0; 3], "a search counts in the lower half");
        assert_eq!(
            searched,
            [0, 1, 2].map(|i| lower[i] + upper[i]),
            "{q:?} over {} values",
            values.len()
        );
    }

    #[test]
    fn sorted_partition_counts_the_edges_as_the_scan() {
        use crate::value::OrdF64;
        let z = OrdF64::from_finite;
        // Empty slices, any query.
        assert_search_counts_as_the_scan(Vec::<u32>::new(), 0, u32::MAX);
        assert_search_counts_as_the_scan(Vec::<i64>::new(), -1, -1);
        assert_search_counts_as_the_scan(Vec::<OrdF64>::new(), z(-0.0), z(0.0));
        // Duplicates at both bounds; queries wholly below, wholly above,
        // on the ends and covering everything.
        let dups = vec![3u32, 5, 5, 5, 7, 7, 9, 9, 9, 3];
        for (a, b) in [
            (5, 9),
            (5, 5),
            (7, 7),
            (0, 2),
            (10, 99),
            (0, 3),
            (9, 99),
            (0, 99),
        ] {
            assert_search_counts_as_the_scan(dups.clone(), a, b);
        }
        let signed: Vec<i64> = dups.iter().map(|&v| i64::from(v) - 6).collect();
        for (a, b) in [(-1, 3), (-1, -1), (-9, -4), (4, 9), (i64::MIN, i64::MAX)] {
            assert_search_counts_as_the_scan(signed.clone(), a, b);
        }
        // `-0.0` and `+0.0` compare equal, as values and as bounds: a query
        // ending at either zero takes both, one starting past it neither.
        let zeroes = [0.0, -0.0, -1.0, 0.0, 2.0, -0.0].map(z).to_vec();
        for (a, b) in [
            (-0.0, 0.0),
            (0.0, 0.0),
            (-0.0, -0.0),
            (-1.0, -0.0),
            (0.0, 2.0),
            (-5.0, -2.0),
            (3.0, 4.0),
        ] {
            assert_search_counts_as_the_scan(zeroes.clone(), z(a), z(b));
        }
    }

    /// A slice past [`PAR_MIN`]: the scan counts it in two halves (one, on
    /// one core), the search in one, and the three classes agree.
    #[test]
    fn sorted_partition_counts_a_two_half_slice_as_the_scan() {
        use crate::value::OrdF64;
        let n = PAR_MIN + 3 * CHUNK + 5;
        let ints: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(7919) % 1_000)
            .collect();
        let floats: Vec<OrdF64> = (0..n)
            .map(|i| OrdF64::from_finite([-0.0, 0.0, 1.5, -2.0][i % 4]))
            .collect();
        for (a, b) in [
            (0, 999),
            (499, 500),
            (500, 500),
            (1_000, 5_000),
            (0, 0),
            (999, 999),
        ] {
            assert_search_counts_as_the_scan(ints.clone(), a, b);
        }
        for (a, b) in [(0.0, 0.0), (-2.0, -0.0), (1.5, 9.0), (-9.0, -3.0)] {
            let (a, b) = (OrdF64::from_finite(a), OrdF64::from_finite(b));
            assert_search_counts_as_the_scan(floats.clone(), a, b);
        }
    }

    #[test]
    fn full_chunks_of_u32_max_sum_exactly() {
        // Three chunks of the largest u32 plus a stray: every chunk's
        // accumulator peaks at 4096 · (2³² − 1), the widest an exact chunk
        // sum gets. Runs start and end on and next to chunk boundaries.
        let mut values = vec![u32::MAX; 3 * CHUNK];
        values.push(7);
        assert_sums_match_masked_sum(values.clone(), 0, u32::MAX);
        assert_sums_match_masked_sum(values.clone(), u32::MAX, u32::MAX);
        values.sort_unstable();
        for (s, e) in [
            (1, CHUNK),
            (1, CHUNK + 1),
            (CHUNK - 1, 2 * CHUNK + 1),
            (0, 3 * CHUNK),
        ] {
            let exact: f64 = values[s..e].iter().map(|&v| f64::from(v)).sum();
            assert_eq!(sum_sorted_run(&values, s, e), exact, "[{s}, {e})");
        }
    }

    mod properties {
        use super::*;
        use crate::value::OrdF64;
        use proptest::prelude::*;
        use proptest::strategy::Union;

        /// The ends of a narrow integer domain, one step inside them, and
        /// anything in between: sorted, equal extremes form long runs that
        /// fill and cross chunks.
        fn edgy<V: ColumnValue>(lo: V, hi: V, any: impl Strategy<Value = V> + 'static) -> Union<V> {
            let (lo1, hi1) = (lo.succ().unwrap_or(lo), hi.pred().unwrap_or(hi));
            prop_oneof![Just(lo), Just(lo1), Just(hi1), Just(hi), any]
        }

        /// Few distinct values, `-0.0` and `+0.0` among them: duplicates
        /// across base, inserts and tombstones, and a tie whose two sides
        /// differ in sign.
        fn zeroes_and_dups() -> impl Strategy<Value = Vec<OrdF64>> {
            proptest::collection::vec(
                prop_oneof![Just(-0.0), Just(0.0), (-3i32..4).prop_map(f64::from)],
                0..48,
            )
            .prop_map(|mut v| {
                v.sort_by(f64::total_cmp);
                v.into_iter().map(OrdF64::from_finite).collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The one-pass fold is the merge-then-subtract it replaces, to
            /// the bit: the same occurrence of an equal value is cancelled.
            #[test]
            fn merge_subtract_equals_merge_then_subtract(
                base in zeroes_and_dups(),
                inserts in zeroes_and_dups(),
                tombstones in zeroes_and_dups(),
                mut cuts in proptest::collection::vec(0usize..48, 0..4),
            ) {
                cuts.iter_mut().for_each(|c| *c = (*c).min(base.len()));
                cuts.sort_unstable();
                let mut parts = Vec::new();
                let mut from = 0;
                for &c in cuts.iter().chain([&base.len()]) {
                    parts.push(&base[from..c]);
                    from = c;
                }
                let (mut merged, mut want) = (Vec::new(), Vec::new());
                merge_sorted(&base, &inserts, &mut merged);
                subtract_sorted(&merged, &tombstones, &mut want);
                let mut got = Vec::new();
                merge_subtract_sorted(&parts, &inserts, &tombstones, &mut got);
                let bits = |v: &[OrdF64]| v.iter().map(|x| x.get().to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }

        // Narrow value bands under wider query bounds: duplicates at both
        // bounds, queries wholly below or above the values, empty slices,
        // and `-0.0`/`+0.0` as values and as bounds.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn sorted_partition_equals_count_partition_u32(
                values in proptest::collection::vec(2u32..8, 0..64),
                a in 0u32..10,
                b in 0u32..10,
            ) {
                assert_search_counts_as_the_scan(values, a, b);
            }

            #[test]
            fn sorted_partition_equals_count_partition_i64(
                values in proptest::collection::vec(-3i64..3, 0..64),
                a in -5i64..5,
                b in -5i64..5,
            ) {
                assert_search_counts_as_the_scan(values, a, b);
            }

            #[test]
            fn sorted_partition_equals_count_partition_f64(
                values in zeroes_and_dups(),
                a in prop_oneof![Just(-0.0), Just(0.0), (-5i32..6).prop_map(f64::from)],
                b in prop_oneof![Just(-0.0), Just(0.0), (-5i32..6).prop_map(f64::from)],
            ) {
                assert_search_counts_as_the_scan(values, OrdF64::from_finite(a), OrdF64::from_finite(b));
            }
        }

        // Up to three chunks of narrow value bands or of a domain's edges:
        // duplicates everywhere and runs that start, end and span across
        // chunk boundaries.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn sum_sorted_run_equals_sum_range_u32(
                values in proptest::collection::vec(0u32..6_000, 0..3 * CHUNK),
                a in 0u32..6_000,
                b in 0u32..6_000,
            ) {
                assert_sums_match_masked_sum(values, a, b);
            }

            #[test]
            fn sum_sorted_run_equals_sum_range_i64(
                values in proptest::collection::vec(-3_000i64..3_000, 0..3 * CHUNK),
                a in -3_000i64..3_000,
                b in -3_000i64..3_000,
            ) {
                assert_sums_match_masked_sum(values, a, b);
            }

            #[test]
            fn narrow_integer_sums_are_the_f64_chain_u32(
                values in proptest::collection::vec(edgy(0, u32::MAX, any::<u32>()), 0..3 * CHUNK),
                a in edgy(0, u32::MAX, any::<u32>()),
                b in edgy(0, u32::MAX, any::<u32>()),
            ) {
                assert_sums_match_masked_sum(values, a, b);
            }

            #[test]
            fn narrow_integer_sums_are_the_f64_chain_i32(
                values in proptest::collection::vec(edgy(i32::MIN, i32::MAX, -3i32..3), 0..3 * CHUNK),
                a in edgy(i32::MIN, i32::MAX, any::<i32>()),
                b in edgy(i32::MIN, i32::MAX, any::<i32>()),
            ) {
                assert_sums_match_masked_sum(values, a, b);
            }

            #[test]
            fn narrow_integer_sums_are_the_f64_chain_u16(
                values in proptest::collection::vec(edgy(0, u16::MAX, any::<u16>()), 0..3 * CHUNK),
                a in any::<u16>(),
                b in any::<u16>(),
            ) {
                assert_sums_match_masked_sum(values, a, b);
            }

            #[test]
            fn narrow_integer_sums_are_the_f64_chain_i16(
                values in proptest::collection::vec(edgy(i16::MIN, i16::MAX, any::<i16>()), 0..3 * CHUNK),
                a in any::<i16>(),
                b in any::<i16>(),
            ) {
                assert_sums_match_masked_sum(values, a, b);
            }

            #[test]
            fn sum_sorted_run_equals_sum_range_f64(
                values in proptest::collection::vec(-3_000i64..3_000, 0..3 * CHUNK),
                a in -3_000i64..3_000,
                b in -3_000i64..3_000,
            ) {
                // Non-dyadic fractions: every addition rounds, so only the
                // same order of the same additions gives the same bits.
                let f = |i: i64| OrdF64::from_finite(i as f64 * 0.37);
                assert_sums_match_masked_sum(values.into_iter().map(f).collect(), f(a), f(b));
            }
        }

        /// 64-bit integers stay on the `f64` chain: `1 + 2⁵³` rounds to
        /// 2⁵³ there, so the chain ends at 2⁵⁴, while the exact integer
        /// sum 2⁵⁴ + 3 converts to 2⁵⁴ + 4.
        #[test]
        fn sixty_four_bit_sums_keep_the_rounding_chain() {
            let chain = 2f64.powi(54);
            let big = 1u64 << 53;
            let unsigned = vec![1, big, big + 2];
            let signed: Vec<i64> = unsigned.iter().map(|&v| v as i64).collect();
            assert_ne!(unsigned.iter().sum::<u64>() as f64, chain);
            assert_eq!(sum_all(&unsigned), chain);
            assert_eq!(sum_sorted_run(&unsigned, 0, 3), chain);
            assert_eq!(min_max_sum_all(&unsigned), Some((1, big + 2, chain)));
            assert_eq!(sum_all(&signed), chain);
            assert_eq!(sum_sorted_run(&signed, 0, 3), chain);
            assert_sums_match_masked_sum(unsigned, 1, big + 2);
            assert_sums_match_masked_sum(signed, 1, big as i64 + 2);
        }
    }

    #[test]
    fn kernels_handle_float_values() {
        use crate::value::OrdF64;
        let values: Vec<OrdF64> = (0..1000)
            .map(|i| OrdF64::from_finite(i as f64 * 0.5))
            .collect();
        let q = ValueRange::must(OrdF64::from_finite(100.0), OrdF64::from_finite(200.0));
        assert_eq!(count_range(&values, &q), 201);
        let (s, e) = sorted_run(&values, &q);
        assert_eq!(e - s, 201);
    }
}
