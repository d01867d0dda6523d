//! The kernel algebra over bats: the operators the paper's example plans
//! use (Figure 1) plus the usual aggregates.
//!
//! MonetDB's execution paradigm materializes every intermediate result.
//! Here a result that *is* one of its inputs (a union with nothing, a
//! difference that removes nothing) is that input's buffers shared, and
//! the operators exploit a dense ([`Head::Void`]) head wherever one shows
//! up: membership in it is a range check, a join against it a positional
//! fetch, and rows appended past its end leave it void.

use std::collections::{HashMap, HashSet};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

use crate::bat::{Bat, BatError, Head, Oid, Tail};

/// A scalar value moving through a plan (predicate constants, aggregates).
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Dbl(f64),
    /// Object identifier.
    Oid(Oid),
    /// String, shared: a plan's constant is cloned into every variable
    /// it flows to without copying its bytes.
    Str(Arc<str>),
    /// Missing value.
    Nil,
}

impl Atom {
    /// Numeric view (ints and oids widen to f64).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Atom::Int(v) => Some(*v as f64),
            Atom::Dbl(v) => Some(*v),
            Atom::Oid(v) => Some(*v as f64),
            Atom::Nil | Atom::Str(_) => None,
        }
    }

    /// The name of the tail type this atom's variant belongs to, as
    /// [`crate::Tail::type_name`] spells it.
    pub fn type_name(&self) -> &'static str {
        match self {
            Atom::Int(_) => "int",
            Atom::Dbl(_) => "dbl",
            Atom::Oid(_) => "oid",
            Atom::Str(_) => "str",
            Atom::Nil => "nil",
        }
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Dbl(v) => write!(f, "{v}"),
            Atom::Oid(v) => write!(f, "{v}@0"),
            Atom::Str(v) => write!(f, "{v:?}"),
            Atom::Nil => write!(f, "nil"),
        }
    }
}

/// A tail value `algebra.uselect` compares against closed `[lo, hi]`
/// bounds — the one rule every selection over an `int`, `dbl` or `oid`
/// column applies, whether its values sit in a bat or in a piece nobody
/// has built a bat of. `int` and `oid` values compare as exact integers
/// (`i128`), so neighbours above 2⁵³ stay apart and a fractional `dbl`
/// bound rounds inward; `dbl` values compare as `f64`. A NaN bound
/// selects nothing.
pub trait Selectable: Copy {
    /// What a value and the bounds compare as.
    type Key: PartialOrd + Copy;

    /// The values `[lo, hi]` keeps, or the error `uselect` raises for
    /// bounds this tail type cannot compare against.
    fn bounds(lo: &Atom, hi: &Atom) -> Result<RangeInclusive<Self::Key>, BatError>;

    /// This value as the bounds see it.
    fn key(self) -> Self::Key;

    /// The one keep loop of a selection: appends `emit(i, x)` to `out` for
    /// every item `x` of `items` (at position `i`) whose value `value(x)`
    /// lies in `keep`, in order. The test is arithmetic, `(lo <= k) &
    /// (k <= hi)`, written as one byte per item and packed into a 64-bit
    /// mask word, so rows in storage order cost no mispredicted branch;
    /// then each set bit is emitted. The items go in blocks of 512 whose
    /// masks sit on the stack, and `out` grows by what a block keeps, not
    /// by the block: a narrow selection over a large piece holds only its
    /// rows.
    /// A NaN bound fails both comparisons and keeps nothing.
    fn keep_into<X: Copy, O>(
        items: &[X],
        keep: &RangeInclusive<Self::Key>,
        value: impl Fn(X) -> Self,
        emit: impl Fn(usize, X) -> O,
        out: &mut Vec<O>,
    ) {
        let (lo, hi) = (*keep.start(), *keep.end());
        let mut masks = [0u64; KEEP_BLOCK / 64];
        for (b, block) in items.chunks(KEEP_BLOCK).enumerate() {
            let mut kept = 0;
            for (mask, word) in masks.iter_mut().zip(block.chunks(64)) {
                let mut hits = [0u8; 64];
                for (hit, &x) in hits.iter_mut().zip(word) {
                    let k = value(x).key();
                    *hit = u8::from((lo <= k) & (k <= hi));
                }
                *mask = 0;
                for (g, group) in hits.chunks_exact(8).enumerate() {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(group);
                    // Eight 0/1 bytes into eight bits: the product moves
                    // byte i's bit to bit 56 + i, and no two terms collide.
                    let bits = u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                    *mask |= bits << (8 * g);
                }
                kept += mask.count_ones() as usize;
            }
            out.reserve(kept);
            for (w, (mask, word)) in masks.iter().zip(block.chunks(64)).enumerate() {
                let mut m = *mask;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    out.push(emit(b * KEEP_BLOCK + w * 64 + j, word[j]));
                    m &= m - 1;
                }
            }
        }
    }
}

/// Items [`Selectable::keep_into`] tests before it emits what they keep:
/// eight 64-bit mask words, 64 bytes of stack.
const KEEP_BLOCK: usize = 512;

impl Selectable for i64 {
    type Key = i128;

    fn bounds(lo: &Atom, hi: &Atom) -> Result<RangeInclusive<i128>, BatError> {
        integer_bounds(lo, hi, "int")
    }

    fn key(self) -> i128 {
        i128::from(self)
    }
}

impl Selectable for Oid {
    type Key = i128;

    fn bounds(lo: &Atom, hi: &Atom) -> Result<RangeInclusive<i128>, BatError> {
        integer_bounds(lo, hi, "oid")
    }

    fn key(self) -> i128 {
        i128::from(self)
    }
}

impl Selectable for f64 {
    type Key = f64;

    fn bounds(lo: &Atom, hi: &Atom) -> Result<RangeInclusive<f64>, BatError> {
        match (lo.as_f64(), hi.as_f64()) {
            (Some(lo), Some(hi)) => Ok(lo..=hi),
            _ => Err(BatError::TypeMismatch {
                expected: "dbl",
                got: "non-numeric bound",
            }),
        }
    }

    fn key(self) -> f64 {
        self
    }
}

fn selected_indices(b: &Bat, lo: &Atom, hi: &Atom) -> Result<Vec<usize>, BatError> {
    fn within<T: Selectable>(v: &[T], lo: &Atom, hi: &Atom) -> Result<Vec<usize>, BatError> {
        let mut out = Vec::new();
        T::keep_into(v, &T::bounds(lo, hi)?, |x| x, |i, _| i, &mut out);
        Ok(out)
    }
    match b.tail() {
        Tail::Int(v) => within(v, lo, hi),
        Tail::Dbl(v) => within(v, lo, hi),
        Tail::Oid(v) => within(v, lo, hi),
        Tail::Str(v) => match (lo, hi) {
            (Atom::Str(lo), Atom::Str(hi)) => Ok((0..v.len())
                .filter(|&i| *v[i] >= **lo && *v[i] <= **hi)
                .collect()),
            _ => Err(BatError::TypeMismatch {
                expected: "str bounds",
                got: "non-str",
            }),
        },
        Tail::Nil(_) => Err(BatError::TypeMismatch {
            expected: "valued tail",
            got: "nil",
        }),
    }
}

/// The closed bounds `[lo, hi]` as the integers an `int` or `oid` row
/// must lie between, compared exactly: every `i64` and `u64` fits an
/// `i128`, and a fractional `dbl` bound rounds inward (`x ≥ 2.5` iff
/// `x ≥ 3`). Widening the rows to `f64` instead would merge neighbouring
/// integers above 2⁵³. A NaN bound selects nothing.
fn integer_bounds(
    lo: &Atom,
    hi: &Atom,
    expected: &'static str,
) -> Result<RangeInclusive<i128>, BatError> {
    let bound = |a: &Atom, round: fn(f64) -> f64, nan: i128| match a {
        Atom::Int(v) => Ok(i128::from(*v)),
        Atom::Oid(v) => Ok(i128::from(*v)),
        Atom::Dbl(v) if v.is_nan() => Ok(nan),
        // `as` saturates: a bound beyond every integer stays beyond them.
        Atom::Dbl(v) => Ok(round(*v) as i128),
        Atom::Str(_) | Atom::Nil => Err(BatError::TypeMismatch {
            expected,
            got: "non-numeric bound",
        }),
    };
    Ok(bound(lo, f64::ceil, i128::MAX)?..=bound(hi, f64::floor, i128::MIN)?)
}

/// Whether `idx` selects every one of `len` rows in place.
fn is_identity(idx: &[usize], len: usize) -> bool {
    idx.len() == len && idx.iter().enumerate().all(|(k, &i)| k == i)
}

/// Head oids of rows `idx` of `b`; the identity selection shares `b`'s
/// head (and so keeps a void head void).
fn take_head(b: &Bat, idx: &[usize]) -> Head {
    if is_identity(idx, b.len()) {
        return b.head().clone();
    }
    Head::Oids(Arc::new(idx.iter().map(|&i| b.head_at(i)).collect()))
}

/// Tail values of rows `idx` of `b`; the identity selection shares `b`'s
/// tail.
fn take_tail(b: &Bat, idx: &[usize]) -> Tail {
    if is_identity(idx, b.len()) {
        return b.tail().clone();
    }
    match b.tail() {
        Tail::Int(v) => Tail::Int(Arc::new(idx.iter().map(|&i| v[i]).collect())),
        Tail::Dbl(v) => Tail::Dbl(Arc::new(idx.iter().map(|&i| v[i]).collect())),
        Tail::Oid(v) => Tail::Oid(Arc::new(idx.iter().map(|&i| v[i]).collect())),
        Tail::Str(v) => Tail::Str(Arc::new(idx.iter().map(|&i| v[i].clone()).collect())),
        Tail::Nil(_) => Tail::Nil(idx.len()),
    }
}

fn take_rows(b: &Bat, idx: &[usize]) -> Bat {
    Bat::new(take_head(b, idx), take_tail(b, idx)).expect("lengths match by construction")
}

/// Position of `oid` under a void head of `len` rows starting at `base`.
fn void_position(base: Oid, len: usize, oid: Oid) -> Option<usize> {
    oid.checked_sub(base)
        .filter(|&p| p < len as u64)
        .map(|p| p as usize)
}

/// End-of-chain marker in [`Positions::next`].
const END: usize = usize::MAX;

/// The positions of every distinct oid of a list, ascending, with no
/// allocation per key: `first` maps an oid to its first position and
/// `next[p]` is the following position holding the same oid.
struct Positions {
    first: HashMap<Oid, usize>,
    next: Vec<usize>,
}

impl Positions {
    fn of(oids: &[Oid]) -> Self {
        let mut first = HashMap::with_capacity(oids.len());
        let mut next = vec![END; oids.len()];
        for (p, &oid) in oids.iter().enumerate().rev() {
            if let Some(later) = first.insert(oid, p) {
                next[p] = later;
            }
        }
        Positions { first, next }
    }

    fn at(&self, oid: Oid) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.first.get(&oid).copied(), |&p| {
            Some(self.next[p]).filter(|&q| q != END)
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Off, [`ascending`] answers no and every pair of explicit heads is
    /// hashed: the tests run each operator both ways and hold the
    /// binary-search paths to the hash paths they replace.
    pub(crate) static BINARY_SEARCH: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Whether `oids` ascend (repeats allowed), so that binary search can
/// match other oids against them. One pass, no allocation.
fn ascending(oids: &[Oid]) -> bool {
    #[cfg(test)]
    if !BINARY_SEARCH.get() {
        return false;
    }
    oids.is_sorted()
}

/// The positions of `oid` in the ascending `sorted`: one binary search,
/// then a step per duplicate.
fn equal_range(sorted: &[Oid], oid: Oid) -> Range<usize> {
    let first = sorted.partition_point(|&o| o < oid);
    let dups = sorted[first..].iter().take_while(|&&o| o == oid).count();
    first..first + dups
}

/// For each row of `b`, whether its head oid occurs among `other`'s heads.
/// Density decides the work: a void `other` is a range check per row, a
/// void `b` is one positional mark per row of `other`. Two explicit heads
/// are matched by binary search when one of them ascends — the oids of
/// the other side probe into it, into the longer when both ascend — and
/// otherwise by hashing the shorter one and streaming the longer.
fn head_hits(b: &Bat, other: &Bat) -> Vec<bool> {
    let mut hit = vec![false; b.len()];
    match (b.head(), other.head()) {
        (_, Head::Void { base }) => {
            for (i, h) in hit.iter_mut().enumerate() {
                *h = void_position(*base, other.len(), b.head_at(i)).is_some();
            }
        }
        (Head::Void { base }, Head::Oids(theirs)) => {
            for &oid in theirs.iter() {
                if let Some(p) = void_position(*base, b.len(), oid) {
                    hit[p] = true;
                }
            }
        }
        (Head::Oids(ours), Head::Oids(theirs)) => {
            let (ours_up, theirs_up) = (ascending(ours), ascending(theirs));
            if theirs_up && (!ours_up || theirs.len() >= ours.len()) {
                for (h, oid) in hit.iter_mut().zip(ours.iter()) {
                    *h = theirs.binary_search(oid).is_ok();
                }
            } else if ours_up {
                for &oid in theirs.iter() {
                    hit[equal_range(ours, oid)].fill(true);
                }
            } else if theirs.len() <= ours.len() {
                let theirs: HashSet<Oid> = theirs.iter().copied().collect();
                for (h, oid) in hit.iter_mut().zip(ours.iter()) {
                    *h = theirs.contains(oid);
                }
            } else {
                let ours = Positions::of(ours);
                for &oid in theirs.iter() {
                    for p in ours.at(oid) {
                        hit[p] = true;
                    }
                }
            }
        }
    }
    hit
}

/// The rows of `b` whose [`head_hits`] flag equals `want`; all of them
/// is `b` shared.
fn rows_flagged(b: &Bat, hit: &[bool], want: bool) -> Bat {
    let n = hit.iter().filter(|&&h| h == want).count();
    if n == b.len() {
        return b.clone();
    }
    let mut idx = Vec::with_capacity(n);
    idx.extend((0..hit.len()).filter(|&i| hit[i] == want));
    take_rows(b, &idx)
}

/// `algebra.select(b, lo, hi)`: rows whose tail value lies in `[lo, hi]`.
pub fn select(b: &Bat, lo: &Atom, hi: &Atom) -> Result<Bat, BatError> {
    let idx = selected_indices(b, lo, hi)?;
    Ok(take_rows(b, &idx))
}

/// `algebra.uselect(b, lo, hi)`: qualifying head oids with a nil tail.
pub fn uselect(b: &Bat, lo: &Atom, hi: &Atom) -> Result<Bat, BatError> {
    let idx = selected_indices(b, lo, hi)?;
    Ok(Bat::new(take_head(b, &idx), Tail::Nil(idx.len())).expect("lengths match"))
}

/// `algebra.kunion(a, b)`: all rows of `a` plus the rows of `b` whose head
/// oid does not occur in `a`. An empty side hands the other back shared.
pub fn kunion(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    if a.is_empty() {
        return Ok(b.clone());
    }
    if b.is_empty() {
        return Ok(a.clone());
    }
    if std::mem::discriminant(a.tail()) != std::mem::discriminant(b.tail()) {
        return Err(BatError::TypeMismatch {
            expected: a.tail().type_name(),
            got: b.tail().type_name(),
        });
    }
    append(a, &rows_flagged(b, &head_hits(b, a), false))
}

/// `algebra.kdifference(a, b)`: rows of `a` whose head oid does not occur
/// in `b`. Nothing to remove hands `a` back shared.
pub fn kdifference(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    if a.is_empty() || b.is_empty() {
        return Ok(a.clone());
    }
    Ok(rows_flagged(a, &head_hits(a, b), false))
}

/// `algebra.kintersect(a, b)`: rows of `a` whose head oid occurs in `b`.
pub fn kintersect(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    Ok(rows_flagged(a, &head_hits(a, b), true))
}

/// `algebra.markT(b, base)`: keeps the head, renumbers the tail with
/// consecutive oids from `base` — the tuple-renumbering step of Figure 1.
pub fn mark_t(b: &Bat, base: Oid) -> Bat {
    let tail = Tail::Oid(Arc::new((0..b.len() as u64).map(|i| base + i).collect()));
    Bat::new(b.head().clone(), tail).expect("lengths match")
}

/// `bat.reverse(b)`: swaps head and tail; the tail must be oid-typed.
pub fn reverse(b: &Bat) -> Result<Bat, BatError> {
    let Tail::Oid(tails) = b.tail() else {
        return Err(BatError::OidTailRequired);
    };
    let tail = match b.head() {
        Head::Void { .. } => Tail::Oid(Arc::new(b.head_oids())),
        Head::Oids(heads) => Tail::Oid(Arc::clone(heads)),
    };
    Bat::new(Head::Oids(Arc::clone(tails)), tail).map_err(|_| BatError::LengthMismatch)
}

/// `(position in probe, row of b)` for every match of a `probe` oid
/// against `b`'s head oids, in probe order (then `b`'s). A void head is a
/// positional fetch per probe oid. Explicit heads that ascend take a
/// binary search per probe oid, and so does each head against a probe
/// that ascends; otherwise the shorter side is hashed and the longer
/// streamed once.
fn join_pairs(probe: &[Oid], b: &Bat) -> Vec<(usize, usize)> {
    // Sized for one match per probe oid, what a key join makes at most.
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(probe.len().min(b.len()));
    match b.head() {
        Head::Void { base } => {
            for (i, &t) in probe.iter().enumerate() {
                pairs.extend(void_position(*base, b.len(), t).map(|j| (i, j)));
            }
        }
        Head::Oids(heads) if ascending(heads) => {
            for (i, &t) in probe.iter().enumerate() {
                pairs.extend(equal_range(heads, t).map(|j| (i, j)));
            }
        }
        Head::Oids(heads) if ascending(probe) => {
            for (j, &h) in heads.iter().enumerate() {
                pairs.extend(equal_range(probe, h).map(|i| (i, j)));
            }
            pairs.sort_unstable();
        }
        Head::Oids(heads) if heads.len() <= probe.len() => {
            let inner = Positions::of(heads);
            for (i, &t) in probe.iter().enumerate() {
                pairs.extend(inner.at(t).map(|j| (i, j)));
            }
        }
        Head::Oids(heads) => {
            let outer = Positions::of(probe);
            for (j, &h) in heads.iter().enumerate() {
                pairs.extend(outer.at(h).map(|i| (i, j)));
            }
            pairs.sort_unstable();
        }
    }
    pairs
}

/// `algebra.join(a, b)`: matches `a`'s tail oids against `b`'s head oids,
/// producing `(a.head, b.tail)` pairs in `a`'s row order (then `b`'s).
/// A void inner head is a positional fetch per outer row; explicit inner
/// heads hash the shorter input and stream the longer once.
pub fn join(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    let Tail::Oid(probe) = a.tail() else {
        return Err(BatError::OidTailRequired);
    };
    let (outer_rows, inner_rows): (Vec<usize>, Vec<usize>) =
        join_pairs(probe, b).into_iter().unzip();
    Bat::new(take_head(a, &outer_rows), take_tail(b, &inner_rows))
}

/// `sql.subdelta(selected, inserts, updates, deletes, lo, hi)`: the
/// predicate side of Figure 1's delta merge in one call — `selected` (the
/// base column's `uselect`) plus the qualifying inserts, minus the updated
/// rows, plus the updated rows that qualify now, minus the deleted oids
/// (`deletes` is the `sql.bind_dbat` bat, deleted oids in its tail). It is
/// the six-operator chain it replaces, called in the chain's order, so its
/// rows and errors are the chain's. The last step matches against the
/// deleted oids where they lie instead of reversing `deletes` into a bat
/// of its own.
pub fn sub_delta(
    selected: &Bat,
    inserts: &Bat,
    updates: &Bat,
    deletes: &Bat,
    lo: &Atom,
    hi: &Atom,
) -> Result<Bat, BatError> {
    if !selected.is_empty() && inserts.is_empty() && updates.is_empty() && deletes.is_empty() {
        // Nothing to merge: the chain hands `selected` back, once its two
        // selections and its deletion match have raised what they raise.
        // (An empty `selected` it replaces by the empty update selection.)
        selected_indices(inserts, lo, hi)?;
        selected_indices(updates, lo, hi)?;
        return match deletes.tail() {
            Tail::Oid(_) => Ok(selected.clone()),
            _ => Err(BatError::OidTailRequired),
        };
    }
    let merged = kunion(selected, &uselect(inserts, lo, hi)?)?;
    let merged = kunion(&kdifference(&merged, updates)?, &uselect(updates, lo, hi)?)?;
    let Tail::Oid(deleted) = deletes.tail() else {
        return Err(BatError::OidTailRequired);
    };
    let deleted = Bat::new(Head::Oids(Arc::clone(deleted)), Tail::Nil(deleted.len()))?;
    kdifference(&merged, &deleted)
}

/// Where [`project_delta`] takes a row from: the base, the inserts or the
/// updates — the order the merged column lists them in.
const BASE: usize = 0;
const INSERTS: usize = 1;
const UPDATES: usize = 2;

/// Whether `kdifference(kunion(base, inserts), updates)` keeps a row: a
/// base row no update replaces, or an insert that neither the base nor an
/// update shadows.
fn merge_keeps_a_row(base: &Bat, inserts: &Bat, updates: &Bat) -> bool {
    head_hits(base, updates).contains(&false)
        || head_hits(inserts, base)
            .into_iter()
            .zip(head_hits(inserts, updates))
            .any(|(in_base, updated)| !in_base && !updated)
}

/// A tail of `like`'s type holding, per `(source, row)` pick, that row of
/// that source's tail. A source of another type is never picked.
fn gather(like: &Tail, sources: [&Tail; 3], picks: &[(usize, usize)]) -> Tail {
    fn pick<'a, T: Clone + 'a>(
        sources: [&'a Tail; 3],
        picks: &[(usize, usize)],
        values: fn(&'a Tail) -> Option<&'a [T]>,
    ) -> Arc<Vec<T>> {
        let sources = sources.map(|t| values(t).unwrap_or_default());
        Arc::new(
            picks
                .iter()
                .map(|&(s, row)| sources[s][row].clone())
                .collect(),
        )
    }
    match like {
        Tail::Int(_) => Tail::Int(pick(sources, picks, |t| match t {
            Tail::Int(v) => Some(v.as_slice()),
            _ => None,
        })),
        Tail::Dbl(_) => Tail::Dbl(pick(sources, picks, |t| match t {
            Tail::Dbl(v) => Some(v.as_slice()),
            _ => None,
        })),
        Tail::Oid(_) => Tail::Oid(pick(sources, picks, |t| match t {
            Tail::Oid(v) => Some(v.as_slice()),
            _ => None,
        })),
        Tail::Str(_) => Tail::Str(pick(sources, picks, |t| match t {
            Tail::Str(v) => Some(v.as_slice()),
            _ => None,
        })),
        Tail::Nil(_) => Tail::Nil(picks.len()),
    }
}

/// `sql.projectdelta(probe, base, inserts, updates)`: the projected
/// column's values for `probe`'s tail oids with its pending deltas merged
/// in, without building the merged column. Equal — rows, order, head
/// variant and error — to Figure 1's
/// `join(probe, kunion(kdifference(kunion(base, inserts), updates), updates))`.
///
/// Per probe oid an update wins, then the base row, then an insert (one
/// that repeats a base oid is shadowed, as `kunion` shadows it). Each of
/// the three is matched against the probe as [`join`] matches its inner
/// side — positionally under a void head, otherwise by hashing the shorter
/// of probe and heads (the few update and insert heads) and streaming the
/// other once — so against a void base the cost is O(result + |inserts| +
/// |updates|) and the base is never copied.
pub fn project_delta(
    probe: &Bat,
    base: &Bat,
    inserts: &Bat,
    updates: &Bat,
) -> Result<Bat, BatError> {
    let same_type =
        |a: &Bat, b: &Bat| std::mem::discriminant(a.tail()) == std::mem::discriminant(b.tail());
    // The chain's first union: both sides non-empty must agree in type.
    if !base.is_empty() && !inserts.is_empty() && !same_type(base, inserts) {
        return Err(BatError::TypeMismatch {
            expected: base.tail().type_name(),
            got: inserts.tail().type_name(),
        });
    }
    // Its result is typed like the base, or like the inserts when the base
    // is empty. The second union hands `updates` back when the difference
    // left nothing, and fails only when both of its sides hold rows.
    let merged = if base.is_empty() { inserts } else { base };
    let like = if same_type(merged, updates) {
        merged
    } else if !merge_keeps_a_row(base, inserts, updates) {
        updates
    } else if updates.is_empty() {
        merged
    } else {
        return Err(BatError::TypeMismatch {
            expected: merged.tail().type_name(),
            got: updates.tail().type_name(),
        });
    };
    let Tail::Oid(oids) = probe.tail() else {
        return Err(BatError::OidTailRequired);
    };

    let mut lookups = [base, inserts, updates].map(|b| Lookup::of(oids, b));
    let mut picks: Vec<(usize, usize)> = Vec::with_capacity(oids.len());
    // The result's head oids, written only once the picks stop being
    // probe row 0, 1, 2, … — until then the chain's join shares the
    // probe's head.
    let mut heads: Vec<Oid> = Vec::new();
    let mut identity = true;
    for (i, &oid) in oids.iter().enumerate() {
        // An update wins, then the base row, then an insert.
        for s in [UPDATES, BASE, INSERTS] {
            let found = lookups[s].find(i, oid);
            if found.is_empty() {
                continue;
            }
            for k in found {
                if identity && picks.len() != i {
                    identity = false;
                    heads.reserve(oids.len());
                    heads.extend((0..picks.len()).map(|r| probe.head_at(r)));
                }
                if !identity {
                    heads.push(probe.head_at(i));
                }
                picks.push((s, lookups[s].row(k)));
            }
            break;
        }
    }
    let tail = gather(
        like.tail(),
        [base.tail(), inserts.tail(), updates.tail()],
        &picks,
    );
    let head = if identity && picks.len() == oids.len() {
        probe.head().clone()
    } else {
        if identity {
            heads.extend((0..picks.len()).map(|r| probe.head_at(r)));
        }
        Head::Oids(Arc::new(heads))
    };
    Bat::new(head, tail)
}

/// How [`project_delta`] finds a probe oid's rows in one source, probe
/// row by probe row: positionally under a void head, by binary search in
/// an ascending one, and otherwise through the pairs [`join_pairs`]
/// matched up front, which come in probe order.
enum Lookup<'a> {
    Void {
        base: Oid,
        len: usize,
    },
    Sorted(&'a [Oid]),
    Pairs {
        pairs: Vec<(usize, usize)>,
        next: usize,
    },
}

impl<'a> Lookup<'a> {
    fn of(probe: &[Oid], b: &'a Bat) -> Self {
        match b.head() {
            Head::Void { base } => Lookup::Void {
                base: *base,
                len: b.len(),
            },
            Head::Oids(heads) if heads.is_empty() || ascending(heads) => Lookup::Sorted(heads),
            Head::Oids(_) => Lookup::Pairs {
                pairs: join_pairs(probe, b),
                next: 0,
            },
        }
    }

    /// The matches of probe row `i` (oid `oid`), as positions for
    /// [`Lookup::row`]; rows are asked for in probe order.
    fn find(&mut self, i: usize, oid: Oid) -> Range<usize> {
        match self {
            Lookup::Void { base, len } => match void_position(*base, *len, oid) {
                Some(p) => p..p + 1,
                None => 0..0,
            },
            Lookup::Sorted(heads) => equal_range(heads, oid),
            Lookup::Pairs { pairs, next } => {
                // Skip the rows of earlier probe rows a source of higher
                // priority answered.
                while pairs.get(*next).is_some_and(|&(p, _)| p < i) {
                    *next += 1;
                }
                let first = *next;
                while pairs.get(*next).is_some_and(|&(p, _)| p == i) {
                    *next += 1;
                }
                first..*next
            }
        }
    }

    /// The source row at position `k` of a [`Lookup::find`] range.
    fn row(&self, k: usize) -> usize {
        match self {
            Lookup::Pairs { pairs, .. } => pairs[k].1,
            _ => k,
        }
    }
}

/// `bat.slice(b, lo, hi)`: rows `lo..=hi` (clamped).
pub fn slice(b: &Bat, lo: usize, hi: usize) -> Bat {
    let hi = hi.min(b.len().saturating_sub(1));
    if lo > hi || b.is_empty() {
        return b.empty_like();
    }
    take_rows(b, &(lo..=hi).collect::<Vec<_>>())
}

/// `x` followed by `y`, each copied once into a buffer sized up front.
fn concat<T: Clone>(x: &[T], y: &[T]) -> Arc<Vec<T>> {
    let mut out = Vec::with_capacity(x.len() + y.len());
    out.extend_from_slice(x);
    out.extend_from_slice(y);
    Arc::new(out)
}

/// Appends `b`'s rows to `a` (same tail type). An empty side hands the
/// other back shared, and a void head stays void when `b`'s oids continue
/// its range.
pub fn append(a: &Bat, b: &Bat) -> Result<Bat, BatError> {
    if a.is_empty() {
        return Ok(b.clone());
    }
    if b.is_empty() {
        return Ok(a.clone());
    }
    let tail = match (a.tail(), b.tail()) {
        (Tail::Int(x), Tail::Int(y)) => Tail::Int(concat(x, y)),
        (Tail::Dbl(x), Tail::Dbl(y)) => Tail::Dbl(concat(x, y)),
        (Tail::Oid(x), Tail::Oid(y)) => Tail::Oid(concat(x, y)),
        (Tail::Str(x), Tail::Str(y)) => Tail::Str(concat(x, y)),
        (Tail::Nil(x), Tail::Nil(y)) => Tail::Nil(x + y),
        (x, y) => {
            return Err(BatError::TypeMismatch {
                expected: x.type_name(),
                got: y.type_name(),
            })
        }
    };
    let head = match a.head() {
        Head::Void { base }
            if base
                .checked_add(a.len() as u64)
                .is_some_and(|next| b.head().continues_from(next)) =>
        {
            a.head().clone()
        }
        _ => Head::Oids(match (a.head(), b.head()) {
            (Head::Oids(x), Head::Oids(y)) => concat(x, y),
            _ => concat(&a.head_oids(), &b.head_oids()),
        }),
    };
    Bat::new(head, tail)
}

/// `aggr.count(b)`.
pub fn count(b: &Bat) -> Atom {
    Atom::Int(b.len() as i64)
}

/// `aggr.sum(b)` over numeric tails.
pub fn sum(b: &Bat) -> Result<Atom, BatError> {
    match b.tail() {
        Tail::Int(v) => Ok(Atom::Int(v.iter().sum())),
        Tail::Dbl(v) => Ok(Atom::Dbl(v.iter().sum())),
        other => Err(BatError::TypeMismatch {
            expected: "numeric tail",
            got: other.type_name(),
        }),
    }
}

/// `aggr.min(b)` over numeric tails; `Nil` when empty.
pub fn min(b: &Bat) -> Result<Atom, BatError> {
    match b.tail() {
        Tail::Int(v) => Ok(v.iter().min().map_or(Atom::Nil, |m| Atom::Int(*m))),
        Tail::Dbl(v) => Ok(v
            .iter()
            .copied()
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.min(x))))
            .map_or(Atom::Nil, Atom::Dbl)),
        other => Err(BatError::TypeMismatch {
            expected: "numeric tail",
            got: other.type_name(),
        }),
    }
}

/// `aggr.max(b)` over numeric tails; `Nil` when empty.
pub fn max(b: &Bat) -> Result<Atom, BatError> {
    match b.tail() {
        Tail::Int(v) => Ok(v.iter().max().map_or(Atom::Nil, |m| Atom::Int(*m))),
        Tail::Dbl(v) => Ok(v
            .iter()
            .copied()
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a| a.max(x))))
            .map_or(Atom::Nil, Atom::Dbl)),
        other => Err(BatError::TypeMismatch {
            expected: "numeric tail",
            got: other.type_name(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dbl_bat() -> Bat {
        Bat::dense_dbl(vec![205.05, 205.11, 205.13, 205.115, 204.9])
    }

    #[test]
    fn select_returns_oid_value_pairs() {
        let b = dbl_bat();
        let r = select(&b, &Atom::Dbl(205.1), &Atom::Dbl(205.12)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.head_oids(), vec![1, 3]);
        assert_eq!(r.tail(), &Tail::Dbl(vec![205.11, 205.115].into()));
    }

    #[test]
    fn sub_delta_with_nothing_to_merge_hands_the_selection_back() {
        let selected = uselect(&dbl_bat(), &Atom::Dbl(205.1), &Atom::Dbl(205.12)).unwrap();
        let (lo, hi) = (Atom::Dbl(205.1), Atom::Dbl(205.12));
        let none = Bat::dense_dbl(Vec::new());
        let no_deletes = Bat::dense_oid(Vec::new());
        let merged = sub_delta(&selected, &none, &none, &no_deletes, &lo, &hi).unwrap();
        assert!(merged.shares_storage_with(&selected));
        // The errors of the chain it stands for still surface.
        let str_bound = Atom::Str("a".into());
        assert!(sub_delta(&selected, &none, &none, &no_deletes, &str_bound, &hi).is_err());
        assert_eq!(
            sub_delta(&selected, &none, &none, &none, &lo, &hi).unwrap_err(),
            BatError::OidTailRequired
        );
    }

    #[test]
    fn uselect_returns_oids_only() {
        let b = dbl_bat();
        let r = uselect(&b, &Atom::Dbl(205.1), &Atom::Dbl(205.12)).unwrap();
        assert_eq!(r.head_oids(), vec![1, 3]);
        assert_eq!(r.tail(), &Tail::Nil(2));
    }

    #[test]
    fn select_int_with_int_bounds() {
        let b = Bat::dense_int(vec![5, 10, 15, 20]);
        let r = select(&b, &Atom::Int(10), &Atom::Int(15)).unwrap();
        assert_eq!(r.head_oids(), vec![1, 2]);
    }

    #[test]
    fn integer_selections_are_exact_above_2_pow_53() {
        // 2^53 and 2^53 + 1 are one f64; the selection must tell them apart.
        let big = 1i64 << 53;
        let ints = Bat::dense_int(vec![big, big + 1, big + 2, i64::MAX, i64::MIN]);
        let oids = Bat::dense_oid(vec![big as u64, big as u64 + 1, big as u64 + 2, u64::MAX]);
        let one = Atom::Int(big + 1);
        assert_eq!(uselect(&ints, &one, &one).unwrap().head_oids(), vec![1]);
        assert_eq!(uselect(&oids, &one, &one).unwrap().head_oids(), vec![1]);
        let one = Atom::Oid(big as u64 + 1);
        assert_eq!(uselect(&ints, &one, &one).unwrap().head_oids(), vec![1]);
        assert_eq!(uselect(&oids, &one, &one).unwrap().head_oids(), vec![1]);
        let r = uselect(&ints, &Atom::Int(i64::MAX), &Atom::Oid(u64::MAX)).unwrap();
        assert_eq!(r.head_oids(), vec![3]);
        let r = uselect(&oids, &Atom::Int(-1), &Atom::Oid(u64::MAX - 1)).unwrap();
        assert_eq!(r.head_oids(), vec![0, 1, 2]);
        let r = uselect(&ints, &Atom::Int(i64::MIN), &Atom::Int(i64::MIN)).unwrap();
        assert_eq!(r.head_oids(), vec![4]);
    }

    #[test]
    fn fractional_bounds_on_integer_tails_round_inward() {
        let ints = Bat::dense_int(vec![-3, -2, -1, 0, 1, 2, 3]);
        let r = uselect(&ints, &Atom::Dbl(-2.5), &Atom::Dbl(1.5)).unwrap();
        assert_eq!(r.head_oids(), vec![1, 2, 3, 4]);
        let r = uselect(&ints, &Atom::Dbl(0.2), &Atom::Dbl(0.8)).unwrap();
        assert!(r.is_empty());
        let r = uselect(&ints, &Atom::Dbl(f64::NEG_INFINITY), &Atom::Dbl(1e300)).unwrap();
        assert_eq!(r.len(), 7);
        for nan in [(f64::NAN, 1.0), (-1.0, f64::NAN)] {
            let r = uselect(&ints, &Atom::Dbl(nan.0), &Atom::Dbl(nan.1)).unwrap();
            assert!(r.is_empty(), "a NaN bound selects nothing");
        }
        let oids = Bat::dense_oid(vec![0, 1, 2, 3]);
        let r = uselect(&oids, &Atom::Dbl(0.5), &Atom::Dbl(2.0)).unwrap();
        assert_eq!(r.head_oids(), vec![1, 2]);
        assert!(uselect(&oids, &Atom::Str("a".into()), &Atom::Int(1)).is_err());
        assert!(uselect(&ints, &Atom::Int(0), &Atom::Nil).is_err());
    }

    #[test]
    fn select_on_nil_tail_fails() {
        let b = Bat::new(Head::Void { base: 0 }, Tail::Nil(3)).unwrap();
        assert!(select(&b, &Atom::Int(0), &Atom::Int(1)).is_err());
    }

    #[test]
    fn kunion_deduplicates_by_head() {
        let a = Bat::new(
            Head::Oids(vec![0, 1].into()),
            Tail::Int(vec![10, 11].into()),
        )
        .unwrap();
        let b = Bat::new(
            Head::Oids(vec![1, 2].into()),
            Tail::Int(vec![99, 12].into()),
        )
        .unwrap();
        let u = kunion(&a, &b).unwrap();
        assert_eq!(u.head_oids(), vec![0, 1, 2]);
        assert_eq!(
            u.tail(),
            &Tail::Int(vec![10, 11, 12].into()),
            "a's value wins for oid 1"
        );
    }

    #[test]
    fn an_empty_side_shares_the_other_input() {
        let a = Bat::new(
            Head::Oids(vec![3, 1].into()),
            Tail::Int(vec![30, 10].into()),
        )
        .unwrap();
        let none = a.empty_like();
        assert!(kunion(&a, &none).unwrap().shares_storage_with(&a));
        assert!(kunion(&none, &a).unwrap().shares_storage_with(&a));
        assert!(kdifference(&a, &none).unwrap().shares_storage_with(&a));
        assert!(append(&a, &none).unwrap().shares_storage_with(&a));
        // Nothing removed is the same bat too, and keeps a void head void.
        let dense = Bat::dense_int(vec![1, 2, 3]);
        let elsewhere = Bat::new(Head::Void { base: 10 }, Tail::Nil(2)).unwrap();
        assert!(kdifference(&dense, &elsewhere)
            .unwrap()
            .shares_storage_with(&dense));
        assert!(kintersect(&dense, &dense)
            .unwrap()
            .shares_storage_with(&dense));
    }

    #[test]
    fn rows_past_a_void_head_keep_it_void() {
        let base = Bat::dense_int(vec![10, 11, 12]);
        let inserts = Bat::new(
            Head::Oids(vec![3, 4].into()),
            Tail::Int(vec![13, 14].into()),
        );
        let u = kunion(&base, &inserts.unwrap()).unwrap();
        assert_eq!(u, Bat::dense_int(vec![10, 11, 12, 13, 14]));
        let gap = Bat::new(Head::Oids(vec![4].into()), Tail::Int(vec![14].into())).unwrap();
        let u = kunion(&base, &gap).unwrap();
        assert_eq!(u.head(), &Head::Oids(vec![0, 1, 2, 4].into()));
    }

    #[test]
    fn join_against_a_void_head_fetches_by_position() {
        let probe = Bat::new(
            Head::Void { base: 0 },
            Tail::Oid(vec![102, 99, 100, 103].into()),
        )
        .unwrap();
        let inner = Bat::new(Head::Void { base: 100 }, Tail::Int(vec![7, 8, 9].into())).unwrap();
        let j = join(&probe, &inner).unwrap();
        // 99 and 103 fall outside [100, 103).
        assert_eq!(j.head_oids(), vec![0, 2]);
        assert_eq!(j.tail(), &Tail::Int(vec![9, 7].into()));
    }

    #[test]
    fn kdifference_and_kintersect_partition() {
        let a = Bat::new(
            Head::Oids(vec![0, 1, 2, 3].into()),
            Tail::Int(vec![1, 2, 3, 4].into()),
        )
        .unwrap();
        let b = Bat::new(Head::Oids(vec![1, 3].into()), Tail::Nil(2)).unwrap();
        let d = kdifference(&a, &b).unwrap();
        let i = kintersect(&a, &b).unwrap();
        assert_eq!(d.head_oids(), vec![0, 2]);
        assert_eq!(i.head_oids(), vec![1, 3]);
        assert_eq!(d.len() + i.len(), a.len());
    }

    #[test]
    fn mark_then_reverse_builds_renumbering_map() {
        // The X25 -> X28 -> X29 pattern of Figure 1.
        let picked = Bat::new(Head::Oids(vec![42, 17, 99].into()), Tail::Nil(3)).unwrap();
        let marked = mark_t(&picked, 0);
        assert_eq!(marked.tail(), &Tail::Oid(vec![0, 1, 2].into()));
        let rev = reverse(&marked).unwrap();
        // New head: dense result oids; tail: original oids.
        assert_eq!(rev.head_oids(), vec![0, 1, 2]);
        assert_eq!(rev.tail(), &Tail::Oid(vec![42, 17, 99].into()));
    }

    #[test]
    fn reverse_requires_oid_tail() {
        assert_eq!(
            reverse(&Bat::dense_int(vec![1])).unwrap_err(),
            BatError::OidTailRequired
        );
    }

    #[test]
    fn join_matches_tail_to_head() {
        // a: result-oid -> row-oid; b: row-oid -> value.
        let a = Bat::new(
            Head::Oids(vec![0, 1].into()),
            Tail::Oid(vec![10, 12].into()),
        )
        .unwrap();
        let b = Bat::new(
            Head::Oids(vec![10, 11, 12].into()),
            Tail::Int(vec![100, 110, 120].into()),
        )
        .unwrap();
        let j = join(&a, &b).unwrap();
        assert_eq!(j.head_oids(), vec![0, 1]);
        assert_eq!(j.tail(), &Tail::Int(vec![100, 120].into()));
    }

    #[test]
    fn join_drops_dangling_oids() {
        let a = Bat::new(Head::Oids(vec![0].into()), Tail::Oid(vec![77].into())).unwrap();
        let b = Bat::dense_int(vec![1, 2]);
        let j = join(&a, &b).unwrap();
        assert!(j.is_empty());
    }

    #[test]
    fn slice_clamps() {
        let b = Bat::dense_int(vec![1, 2, 3, 4, 5]);
        let s = slice(&b, 1, 3);
        assert_eq!(s.tail(), &Tail::Int(vec![2, 3, 4].into()));
        assert_eq!(s.head_oids(), vec![1, 2, 3]);
        assert!(slice(&b, 4, 2).is_empty());
        let whole = slice(&b, 0, 100);
        assert_eq!(whole.len(), 5);
    }

    #[test]
    fn append_concatenates_same_types() {
        let a = Bat::dense_int(vec![1]);
        let b = Bat::new(Head::Oids(vec![5].into()), Tail::Int(vec![2].into())).unwrap();
        let c = append(&a, &b).unwrap();
        assert_eq!(c.head_oids(), vec![0, 5]);
        assert_eq!(c.tail(), &Tail::Int(vec![1, 2].into()));
        assert!(append(&a, &Bat::dense_dbl(vec![1.0])).is_err());
    }

    #[test]
    fn aggregates() {
        let b = Bat::dense_int(vec![3, 1, 2]);
        assert_eq!(count(&b), Atom::Int(3));
        assert_eq!(sum(&b).unwrap(), Atom::Int(6));
        assert_eq!(min(&b).unwrap(), Atom::Int(1));
        assert_eq!(max(&b).unwrap(), Atom::Int(3));
        let d = Bat::dense_dbl(vec![1.5, 2.5]);
        assert_eq!(sum(&d).unwrap(), Atom::Dbl(4.0));
        let empty = Bat::dense_int(vec![]);
        assert_eq!(min(&empty).unwrap(), Atom::Nil);
    }

    #[test]
    fn select_whole_range_is_identity_on_heads() {
        let b = dbl_bat();
        let r = select(&b, &Atom::Dbl(f64::NEG_INFINITY), &Atom::Dbl(f64::INFINITY)).unwrap();
        assert_eq!(r.len(), b.len());
    }
}
