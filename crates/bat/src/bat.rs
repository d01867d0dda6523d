//! The binary association table (Section 2).
//!
//! "The central storage component in MonetDB is a binary association table
//! (bat), i.e. a 2-column data structure. … The elements comprising a bat
//! are physically stored in a contiguous area. There are no holes, deleted
//! elements, or auxiliary data in this storage structure, which means that
//! a bat can be conveniently split at any point."
//!
//! Heads are always oid-typed (the SQL compiler maps relational tables to
//! collections of bats whose head column is an oid); dense ("void") heads
//! are stored as just a base oid.
//!
//! Stored heads and tails live in shared immutable buffers, so cloning a
//! bat — binding a catalog column to a plan variable, handing an operator
//! input back as its result — is a reference-count bump, never a copy of
//! the column. The buffer is a frozen `Vec` (`Arc<Vec<T>>`, not
//! `Arc<[T]>`): every operator builds its result in a `Vec`, and freezing
//! one is free where converting it to a shared slice would copy it again.

use std::sync::Arc;

/// Object identifier, MonetDB's positional surrogate.
pub type Oid = u64;

/// Errors from kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatError {
    /// Tails (or a head/tail pair) have incompatible types.
    TypeMismatch {
        /// What the operation expected.
        expected: &'static str,
        /// What it got.
        got: &'static str,
    },
    /// Head and tail lengths disagree.
    LengthMismatch,
    /// Operation needs an oid-typed tail (e.g. `reverse`, `join` inner).
    OidTailRequired,
}

impl std::fmt::Display for BatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            BatError::LengthMismatch => write!(f, "head/tail length mismatch"),
            BatError::OidTailRequired => write!(f, "operation requires an oid tail"),
        }
    }
}

impl std::error::Error for BatError {}

/// The head column: dense (void) or explicit oids.
#[derive(Debug, Clone, PartialEq)]
pub enum Head {
    /// Consecutive oids `base, base+1, …` — nothing stored.
    Void {
        /// First oid.
        base: Oid,
    },
    /// Explicit oid list.
    Oids(Arc<Vec<Oid>>),
}

impl Head {
    /// The head for `oids`: [`Head::Void`] when they are consecutive from
    /// their first element (one pass), explicit otherwise.
    pub fn from_oids(oids: Vec<Oid>) -> Head {
        match oids.first() {
            Some(&base) if consecutive_from(&oids, base) => Head::Void { base },
            _ => Head::Oids(oids.into()),
        }
    }

    /// Whether this head's oids are exactly `first, first + 1, …` — what
    /// lets rows appended after a void head keep it void.
    pub(crate) fn continues_from(&self, first: Oid) -> bool {
        match self {
            Head::Void { base } => *base == first,
            Head::Oids(v) => consecutive_from(v, first),
        }
    }

    /// Oid at position `i`.
    pub(crate) fn get(&self, i: usize) -> Oid {
        match self {
            Head::Void { base } => base + i as u64,
            Head::Oids(v) => v[i],
        }
    }

    /// Length when explicit; `None` for void (length comes from the tail).
    fn explicit_len(&self) -> Option<usize> {
        match self {
            Head::Void { .. } => None,
            Head::Oids(v) => Some(v.len()),
        }
    }
}

fn consecutive_from(oids: &[Oid], first: Oid) -> bool {
    oids.iter()
        .enumerate()
        .all(|(i, &o)| first.checked_add(i as u64) == Some(o))
}

/// The tail column: one of the kernel's value types.
#[derive(Debug, Clone, PartialEq)]
pub enum Tail {
    /// 64-bit integers (`:int`/`:lng`).
    Int(Arc<Vec<i64>>),
    /// 64-bit floats (`:dbl`).
    Dbl(Arc<Vec<f64>>),
    /// Oids (`:oid`).
    Oid(Arc<Vec<Oid>>),
    /// Strings (`:str`).
    Str(Arc<Vec<String>>),
    /// No tail values (`:void` results of `uselect`); carries the length.
    Nil(usize),
}

impl Tail {
    /// Number of tail entries.
    pub(crate) fn len(&self) -> usize {
        match self {
            Tail::Int(v) => v.len(),
            Tail::Dbl(v) => v.len(),
            Tail::Oid(v) => v.len(),
            Tail::Str(v) => v.len(),
            Tail::Nil(n) => *n,
        }
    }

    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Tail::Int(_) => "int",
            Tail::Dbl(_) => "dbl",
            Tail::Oid(_) => "oid",
            Tail::Str(_) => "str",
            Tail::Nil(_) => "nil",
        }
    }
}

/// A 2-column binary association table.
#[derive(Debug, Clone, PartialEq)]
pub struct Bat {
    head: Head,
    tail: Tail,
}

impl Bat {
    /// Builds a bat, validating head/tail lengths.
    pub fn new(head: Head, tail: Tail) -> Result<Self, BatError> {
        if let Some(h) = head.explicit_len() {
            if h != tail.len() {
                return Err(BatError::LengthMismatch);
            }
        }
        Ok(Bat { head, tail })
    }

    /// A dense-headed bat over integer values (head starts at 0).
    pub fn dense_int(values: Vec<i64>) -> Self {
        Bat {
            head: Head::Void { base: 0 },
            tail: Tail::Int(values.into()),
        }
    }

    /// A dense-headed bat over float values (head starts at 0).
    pub fn dense_dbl(values: Vec<f64>) -> Self {
        Bat {
            head: Head::Void { base: 0 },
            tail: Tail::Dbl(values.into()),
        }
    }

    /// A dense-headed bat over oid values.
    pub fn dense_oid(values: Vec<Oid>) -> Self {
        Bat {
            head: Head::Void { base: 0 },
            tail: Tail::Oid(values.into()),
        }
    }

    /// An empty bat of the same tail type as `self`.
    pub fn empty_like(&self) -> Self {
        let tail = match &self.tail {
            Tail::Int(_) => Tail::Int(Arc::default()),
            Tail::Dbl(_) => Tail::Dbl(Arc::default()),
            Tail::Oid(_) => Tail::Oid(Arc::default()),
            Tail::Str(_) => Tail::Str(Arc::default()),
            Tail::Nil(_) => Tail::Nil(0),
        };
        Bat {
            head: Head::Oids(Arc::default()),
            tail,
        }
    }

    /// Whether `self` and `other` are the same rows held in the same
    /// buffers — what a clone, or an operator that hands an input back as
    /// its result, yields. Columns that store nothing (void heads, nil
    /// tails) compare by value.
    pub fn shares_storage_with(&self, other: &Bat) -> bool {
        let same_head = match (&self.head, &other.head) {
            (Head::Void { base: a }, Head::Void { base: b }) => a == b,
            (Head::Oids(a), Head::Oids(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let same_tail = match (&self.tail, &other.tail) {
            (Tail::Int(a), Tail::Int(b)) => Arc::ptr_eq(a, b),
            (Tail::Dbl(a), Tail::Dbl(b)) => Arc::ptr_eq(a, b),
            (Tail::Oid(a), Tail::Oid(b)) => Arc::ptr_eq(a, b),
            (Tail::Str(a), Tail::Str(b)) => Arc::ptr_eq(a, b),
            (Tail::Nil(a), Tail::Nil(b)) => a == b,
            _ => false,
        };
        same_head && same_tail
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// Whether the bat has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head column.
    pub fn head(&self) -> &Head {
        &self.head
    }

    /// The tail column.
    pub fn tail(&self) -> &Tail {
        &self.tail
    }

    /// Oid at row `i`.
    pub fn head_at(&self, i: usize) -> Oid {
        self.head.get(i)
    }

    /// All head oids, materialized.
    pub fn head_oids(&self) -> Vec<Oid> {
        (0..self.len()).map(|i| self.head.get(i)).collect()
    }

    /// Storage footprint in bytes (8 bytes per stored head/tail entry;
    /// void heads and nil tails are free).
    pub fn bytes(&self) -> u64 {
        let head = match &self.head {
            Head::Void { .. } => 0,
            Head::Oids(v) => v.len() as u64 * 8,
        };
        let tail = match &self.tail {
            Tail::Nil(_) => 0,
            Tail::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
            other => other.len() as u64 * 8,
        };
        head + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_heads_number_from_base() {
        let b = Bat::dense_int(vec![10, 20, 30]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.head_at(0), 0);
        assert_eq!(b.head_at(2), 2);
        let b = Bat::new(Head::Void { base: 100 }, Tail::Nil(2)).unwrap();
        assert_eq!(b.head_at(1), 101);
    }

    #[test]
    fn new_rejects_length_mismatch() {
        let err = Bat::new(Head::Oids(vec![1, 2].into()), Tail::Int(vec![5].into())).unwrap_err();
        assert_eq!(err, BatError::LengthMismatch);
    }

    #[test]
    fn void_head_nil_tail_roundtrip() {
        let b = Bat::new(Head::Void { base: 7 }, Tail::Nil(4)).unwrap();
        assert_eq!(b.head_oids(), vec![7, 8, 9, 10]);
        assert_eq!(b.bytes(), 0, "void/nil stores nothing");
    }

    #[test]
    fn bytes_counts_stored_columns() {
        let b = Bat::new(
            Head::Oids(vec![0, 1].into()),
            Tail::Dbl(vec![1.0, 2.0].into()),
        )
        .unwrap();
        assert_eq!(b.bytes(), 32);
        assert_eq!(Bat::dense_int(vec![1, 2, 3]).bytes(), 24);
    }

    #[test]
    fn clone_shares_storage_instead_of_copying() {
        let b = Bat::new(Head::Oids(vec![4, 9].into()), Tail::Int(vec![1, 2].into())).unwrap();
        assert!(b.clone().shares_storage_with(&b));
        let same_rows =
            Bat::new(Head::Oids(vec![4, 9].into()), Tail::Int(vec![1, 2].into())).unwrap();
        assert_eq!(same_rows, b);
        assert!(
            !same_rows.shares_storage_with(&b),
            "equal rows, own buffers"
        );
        let dense = Bat::dense_dbl(vec![1.0]);
        assert!(dense.clone().shares_storage_with(&dense));
    }

    #[test]
    fn from_oids_recognizes_consecutive_runs() {
        assert_eq!(Head::from_oids(vec![5, 6, 7]), Head::Void { base: 5 });
        assert_eq!(
            Head::from_oids(vec![5, 7, 8]),
            Head::Oids(vec![5, 7, 8].into())
        );
        assert_eq!(Head::from_oids(vec![6, 5]), Head::Oids(vec![6, 5].into()));
        assert_eq!(Head::from_oids(vec![]), Head::Oids(Arc::default()));
        assert_eq!(
            Head::from_oids(vec![u64::MAX, 0]),
            Head::Oids(vec![u64::MAX, 0].into()),
            "no wrap-around"
        );
    }

    #[test]
    fn empty_like_preserves_type() {
        let b = Bat::dense_dbl(vec![1.0]);
        let e = b.empty_like();
        assert!(e.is_empty());
        assert_eq!(e.tail().type_name(), "dbl");
    }
}
