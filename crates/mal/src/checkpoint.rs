//! The checkpoint: every registered column's logical rows — its base with
//! its pending writes merged, as a plan reads it ([`logical_rows`]) — with
//! its [`StrategySpec`], and each table's oid counter and merge threshold,
//! persisted in one operation through `soc-store` and restored with one
//! call. A checkpoint stores rows, not deltas: a restored catalog has
//! nothing pending, and writes made after a save are a log's to replay.
//!
//! [`Catalog::save_all`] writes a `catalog.manifest` describing the whole
//! catalog plus one segment-store directory per column (values and oid
//! heads as checksummed segment files), and [`Catalog::load_all`] rebuilds
//! the catalog from it. Only logical rows are saved, never a physical
//! organization: segmented columns re-organize under their persisted spec
//! and the workload rebuilds their pieces, as the paper's premise has it;
//! the rows, the spec, and the accumulated reorganization bill survive
//! exactly.
//!
//! The manifest is a line-oriented text file (the build is offline — no
//! serde): one line per column/table fact, strings hex-encoded UTF-8. A
//! damaged manifest, or one of another version, is a [`CheckpointError`],
//! never a panic.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use soc_bat::{Bat, Head, Oid, Tail};
use soc_core::{
    kernels, MergePolicy, OrdF64, SegId, SizeEstimator, StrategyKind, StrategySpec, ValueRange,
};
use soc_store::{FixedCodec, SegmentStore, StoreError};

use crate::bpm::BpmError;
use crate::catalog::{logical_rows, Base, Catalog, Column};

/// Errors saving or loading a whole-catalog checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure outside the segment store.
    Io(std::io::Error),
    /// The segment store rejected a read or write.
    Store(StoreError),
    /// The manifest is syntactically or semantically invalid.
    Malformed(String),
    /// A column cannot be persisted (NaN in a plain `:dbl` bat).
    Unsupported(String),
    /// Rebuilding a restored segmented column failed.
    Bpm(BpmError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io: {e}"),
            CheckpointError::Store(e) => write!(f, "segment store: {e}"),
            CheckpointError::Malformed(m) => write!(f, "manifest: {m}"),
            CheckpointError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CheckpointError::Bpm(e) => write!(f, "rebuild: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

impl From<BpmError> for CheckpointError {
    fn from(e: BpmError) -> Self {
        CheckpointError::Bpm(e)
    }
}

const MANIFEST: &str = "catalog.manifest";
const MAGIC: &str = "SOCCAT 3";
/// Segment-file id of a column's tail values within its store directory.
const VALUES: SegId = SegId(0);
/// Segment-file id of a column's head oids within its store directory.
const HEADS: SegId = SegId(1);

fn hex_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.as_bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(s: &str) -> Result<String, CheckpointError> {
    let bad = || CheckpointError::Malformed(format!("bad hex: {s:?}"));
    let digit = |b: u8| char::from(b).to_digit(16).ok_or_else(bad);
    let pairs = s.as_bytes().chunks(2);
    let bytes = pairs
        .map(|p| match *p {
            [hi, lo] => Ok(((digit(hi)? << 4) | digit(lo)?) as u8),
            _ => Err(bad()),
        })
        .collect::<Result<Vec<u8>, _>>()?;
    String::from_utf8(bytes).map_err(|_| CheckpointError::Malformed(format!("non-utf8: {s:?}")))
}

/// `StrategySpec` as one manifest token run of [`SPEC_FIELDS`] fields
/// (everything is `Copy` and integral, so the round-trip is exact).
fn spec_to_text(spec: &StrategySpec) -> String {
    let estimator = match spec.estimator {
        SizeEstimator::Uniform => "uniform",
        SizeEstimator::Exact => "exact",
    };
    let budget = spec
        .storage_budget
        .map_or("-".to_owned(), |b| b.to_string());
    let merge = spec.merge.map_or("-".to_owned(), |m| {
        format!("{},{}", m.small_bytes, m.max_merged_bytes)
    });
    format!(
        "{} {} {} {} {estimator} {budget} {merge}",
        spec.kind.token(),
        spec.mmin,
        spec.mmax,
        spec.model_seed
    )
}

/// Fields [`spec_to_text`] writes.
const SPEC_FIELDS: usize = 7;

/// Parses `a,b,…` into exactly `N` integers.
fn parse_list<const N: usize>(s: &str) -> Option<[u64; N]> {
    let mut out = [0; N];
    let mut parts = s.split(',');
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

fn spec_from_fields(fields: &[&str]) -> Result<StrategySpec, CheckpointError> {
    let bad = |what: &str| CheckpointError::Malformed(format!("bad spec {what}: {fields:?}"));
    let &[kind, mmin, mmax, seed, estimator, budget, merge] = fields else {
        return Err(bad("arity"));
    };
    let kind = StrategyKind::from_token(kind).ok_or_else(|| bad("kind"))?;
    let mmin: u64 = mmin.parse().map_err(|_| bad("mmin"))?;
    let mmax: u64 = mmax.parse().map_err(|_| bad("mmax"))?;
    // Only what a kind's constructor asserts is checked, so every spec
    // that builds in code also loads.
    let bounds_ok = match kind {
        StrategyKind::ApmSegm | StrategyKind::ApmRepl => 0 < mmin && mmin < mmax,
        StrategyKind::GdSegmMerged if merge == "-" => 0 < mmin && mmin <= mmax,
        _ => true,
    };
    if !bounds_ok {
        return Err(bad("bounds"));
    }
    let mut spec = StrategySpec::new(kind)
        .with_apm_bounds(mmin, mmax)
        .with_model_seed(seed.parse().map_err(|_| bad("seed"))?)
        .with_estimator(match estimator {
            "uniform" => SizeEstimator::Uniform,
            "exact" => SizeEstimator::Exact,
            _ => return Err(bad("estimator")),
        });
    if budget != "-" {
        spec = spec.with_storage_budget(budget.parse().map_err(|_| bad("budget"))?);
    }
    if merge != "-" {
        let [small_bytes, max_merged_bytes] = parse_list(merge).ok_or_else(|| bad("merge"))?;
        // The literal, not `MergePolicy::new`: a policy is used as given.
        spec.merge = Some(MergePolicy {
            small_bytes,
            max_merged_bytes,
        });
    }
    Ok(spec)
}

fn col_dir(dir: &Path, key: &str) -> PathBuf {
    dir.join("cols").join(key)
}

/// Writes a numeric slice through the column's segment store under `id`,
/// with a covering range derived from the data (skipped when empty).
fn save_values<V: soc_core::ColumnValue + FixedCodec>(
    store: &SegmentStore,
    id: SegId,
    values: &[V],
) -> Result<(), CheckpointError> {
    let Some((lo, hi)) = kernels::min_max_all(values) else {
        return Ok(());
    };
    let range = ValueRange::new(lo, hi).ok_or_else(|| {
        CheckpointError::Unsupported(format!("segment {id:?}: min {lo:?} above max {hi:?}"))
    })?;
    store.save(id, &range, values)?;
    Ok(())
}

fn load_values<V: soc_core::ColumnValue + FixedCodec>(
    store: &SegmentStore,
    id: SegId,
    rows: usize,
) -> Result<Vec<V>, CheckpointError> {
    if rows == 0 {
        return Ok(Vec::new());
    }
    let (_, values) = store.load::<V>(id)?;
    if values.len() != rows {
        return Err(CheckpointError::Malformed(format!(
            "segment {id:?} holds {} values, manifest says {rows}",
            values.len()
        )));
    }
    Ok(values)
}

/// Persists one column's rows (oid head + typed tail) under its own
/// segment-store directory. Str/Nil tails carry no segment files — their
/// contents live in the manifest (`strrow` lines) or are length-only.
fn save_column(dir: &Path, key: &str, heads: &[Oid], tail: &Tail) -> Result<(), CheckpointError> {
    let store = SegmentStore::open(col_dir(dir, key))?;
    save_values(&store, HEADS, heads)?;
    match tail {
        Tail::Int(v) => save_values(&store, VALUES, v)?,
        Tail::Oid(v) => save_values(&store, VALUES, v)?,
        Tail::Dbl(v) => {
            let ord: Vec<OrdF64> = v
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    OrdF64::new(*x).ok_or_else(|| {
                        CheckpointError::Unsupported(format!("NaN at row {i} of {key}"))
                    })
                })
                .collect::<Result<_, _>>()?;
            save_values(&store, VALUES, &ord)?;
        }
        Tail::Str(_) | Tail::Nil(_) => {}
    }
    Ok(())
}

fn tail_tag(tail: &Tail) -> &'static str {
    match tail {
        Tail::Int(_) => "int",
        Tail::Dbl(_) => "dbl",
        Tail::Oid(_) => "oid",
        Tail::Str(_) => "str",
        Tail::Nil(_) => "nil",
    }
}

/// Reads one column's rows back. `strrows` supplies the tail for `str`
/// columns (oid-keyed, collected from the manifest). A consecutive oid
/// list comes back as the void head it was saved from, so the restored
/// column is as positional as the original.
fn load_column(
    dir: &Path,
    key: &str,
    tag: &str,
    rows: usize,
    strrows: &[(Oid, String)],
) -> Result<Bat, CheckpointError> {
    // Every saved column has its directory, so a missing one is a damaged
    // key — and opening it would create it.
    let path = col_dir(dir, key);
    if !path.is_dir() {
        return Err(CheckpointError::Malformed(format!(
            "{key}: no column directory"
        )));
    }
    let store = SegmentStore::open(path)?;
    let heads: Vec<Oid> = load_values(&store, HEADS, rows)?;
    let tail = match tag {
        "int" => Tail::Int(load_values(&store, VALUES, rows)?.into()),
        "oid" => Tail::Oid(load_values(&store, VALUES, rows)?.into()),
        "dbl" => Tail::Dbl(Arc::new(
            load_values::<OrdF64>(&store, VALUES, rows)?
                .into_iter()
                .map(OrdF64::get)
                .collect(),
        )),
        "str" => {
            if strrows.len() != rows {
                return Err(CheckpointError::Malformed(format!(
                    "{key}: {} strrow lines, manifest says {rows}",
                    strrows.len()
                )));
            }
            let mut vals = Vec::with_capacity(rows);
            for (i, (oid, s)) in strrows.iter().enumerate() {
                if heads.get(i) != Some(oid) {
                    return Err(CheckpointError::Malformed(format!(
                        "{key}: strrow oid {oid} out of order"
                    )));
                }
                vals.push(s.clone());
            }
            Tail::Str(vals.into())
        }
        "nil" => Tail::Nil(rows),
        other => {
            return Err(CheckpointError::Malformed(format!(
                "unknown tail tag {other:?}"
            )))
        }
    };
    Bat::new(Head::from_oids(heads), tail)
        .map_err(|e| CheckpointError::Malformed(format!("{key}: {e}")))
}

fn split_key(key: &str) -> Result<(&str, &str, &str), CheckpointError> {
    let mut it = key.splitn(3, '.');
    match (it.next(), it.next(), it.next()) {
        (Some(s), Some(t), Some(c)) if !s.is_empty() && !t.is_empty() && !c.is_empty() => {
            Ok((s, t, c))
        }
        _ => Err(CheckpointError::Malformed(format!(
            "key {key:?} is not schema.table.column"
        ))),
    }
}

impl Catalog {
    /// Checkpoints the whole catalog under `dir` in one operation: every
    /// plain and segmented column's logical rows (each with its
    /// [`StrategySpec`] and accumulated reorganization bill), and the
    /// per-table oid counters and merge thresholds. A column with nothing
    /// pending is written as it stands; writes to a column that was never
    /// registered are rows of no column and are not saved.
    ///
    /// The directory is replaced wholesale — but only after the new
    /// checkpoint has been written completely: everything lands in a
    /// sibling temp directory first and swaps in at the end, so a
    /// mid-save failure (unsupported column, I/O error) leaves the
    /// previous checkpoint intact.
    ///
    /// # Errors
    /// `CheckpointError::Unsupported` for NaN-bearing plain `:dbl`
    /// bats, for a pending atom a column's type cannot hold, and for names
    /// a manifest cannot hold (one with whitespace, a column key that does
    /// not split back into its table's name and its own);
    /// `CheckpointError::Bpm` for a pending value a segmented column
    /// cannot take (NaN, outside its domain) — the writes a merge would
    /// refuse; I/O and store errors otherwise. On error the previous
    /// checkpoint under `dir` is untouched.
    pub fn save_all(&self, dir: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let target = dir.as_ref();
        // Write the whole checkpoint next to the target, swap on success.
        let mut tmp_name = target
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint".to_owned());
        tmp_name.push_str(&format!(".tmp-{}", std::process::id()));
        let tmp = target.with_file_name(tmp_name);
        let result = self.save_all_into(&tmp);
        match result {
            Ok(()) => {
                if target.exists() {
                    fs::remove_dir_all(target)?;
                }
                fs::rename(&tmp, target)?;
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_dir_all(&tmp);
                Err(e)
            }
        }
    }

    /// The write half of [`Self::save_all`], against a fresh directory:
    /// table by table, each column's lines, then the table's own.
    fn save_all_into(&self, dir: &Path) -> Result<(), CheckpointError> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;

        let unsupported = |name: &str| {
            CheckpointError::Unsupported(format!("{name:?} cannot be named in a manifest"))
        };
        let mut manifest = String::new();
        let _ = writeln!(manifest, "{MAGIC}");
        let mut tables: Vec<_> = self.tables.iter().map(|t| (t.key(), t)).collect();
        tables.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        for (tk, t) in tables {
            // Lines split on spaces, and a load files a table under the
            // names its key splits to at its first dot.
            if tk.contains(char::is_whitespace) || t.schema.contains('.') {
                return Err(unsupported(&tk));
            }
            for &id in &t.columns {
                let Column {
                    key, base, deltas, ..
                } = self.column(id);
                let key = &**key;
                // A load files a column under the names its key splits to
                // at its first two dots.
                let loads_back = !key.contains(char::is_whitespace)
                    && split_key(key).is_ok_and(|(s, n, _)| *s == *t.schema && *n == *t.name);
                let (base, d) = match base {
                    // Writes to a never-registered column are rows of no
                    // column.
                    None => continue,
                    Some(base) if loads_back => (base, deltas),
                    Some(_) => return Err(unsupported(key)),
                };
                let pending = !(d.insert_heads.is_empty()
                    && d.update_heads.is_empty()
                    && t.deleted.is_empty());
                let rows = |base: Bat| match pending {
                    false => Ok(base),
                    true => logical_rows(key, &base, d, &t.deleted)
                        .map(|(rows, _)| rows)
                        .map_err(|e| CheckpointError::Unsupported(e.to_string())),
                };
                match base {
                    Base::Segmented(seg) => {
                        let packed = rows(seg.pack()?)?;
                        if pending {
                            seg.admits(&packed)?;
                        }
                        let (domain_lo, domain_hi_excl) = seg.domain;
                        let _ = writeln!(
                            manifest,
                            "segmented {key} {} {} {} {} {} {}",
                            tail_tag(packed.tail()),
                            packed.len(),
                            domain_lo.to_bits(),
                            domain_hi_excl.to_bits(),
                            seg.reorg_write_bytes(),
                            spec_to_text(&seg.spec),
                        );
                        save_column(dir, key, &packed.head_oids(), packed.tail())?;
                    }
                    Base::Plain(bat) => {
                        let bat = &rows(bat.clone())?;
                        let _ = writeln!(
                            manifest,
                            "plain {key} {} {}",
                            tail_tag(bat.tail()),
                            bat.len()
                        );
                        if let Tail::Str(vals) = bat.tail() {
                            for (i, s) in vals.iter().enumerate() {
                                let _ = writeln!(
                                    manifest,
                                    "strrow {key} {} {}",
                                    bat.head_at(i),
                                    hex_encode(s)
                                );
                            }
                        }
                        save_column(dir, key, &bat.head_oids(), bat.tail())?;
                    }
                }
            }
            let _ = writeln!(manifest, "next_oid {tk} {}", t.next_oid);
            if let Some(rows) = t.merge_threshold {
                let _ = writeln!(manifest, "threshold {tk} {rows}");
            }
        }
        fs::write(dir.join(MANIFEST), manifest)?;
        Ok(())
    }

    /// Restores a catalog checkpointed by [`Catalog::save_all`]: every
    /// column re-registers under its persisted spec (segmented columns
    /// re-organize from their logical rows, keeping the accumulated
    /// reorganization bill), merge thresholds are restored, nothing is
    /// pending, and fresh oids continue where the saved catalog stopped.
    /// A manifest without `threshold` lines loads with every table at the
    /// default threshold.
    ///
    /// # Errors
    /// `CheckpointError::Malformed` for a damaged manifest and for one of
    /// another version (`SOCCAT 2` saved pending writes as deltas); store
    /// and rebuild errors otherwise.
    pub fn load_all(dir: impl AsRef<Path>) -> Result<Catalog, CheckpointError> {
        let dir = dir.as_ref();
        let text = fs::read_to_string(dir.join(MANIFEST))?;
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(CheckpointError::Malformed("bad magic line".into()));
        }
        let mut catalog = Catalog::new();
        // Collected first so `strrow` lines may follow their column line.
        let mut plain: Vec<(String, String, usize)> = Vec::new();
        let mut strrows: Vec<(String, Oid, String)> = Vec::new();
        let mut columns: BTreeSet<&str> = BTreeSet::new();

        let bad = |line: &str| CheckpointError::Malformed(format!("bad line: {line:?}"));
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(' ').collect();
            if matches!(fields[0], "plain" | "segmented")
                && fields.len() > 1
                && !columns.insert(fields[1])
            {
                return Err(CheckpointError::Malformed(format!(
                    "column {} listed twice",
                    fields[1]
                )));
            }
            match fields[0] {
                "plain" if fields.len() == 4 => {
                    plain.push((
                        fields[1].to_owned(),
                        fields[2].to_owned(),
                        fields[3].parse().map_err(|_| bad(line))?,
                    ));
                }
                "strrow" if fields.len() == 4 => {
                    strrows.push((
                        fields[1].to_owned(),
                        fields[2].parse().map_err(|_| bad(line))?,
                        hex_decode(fields[3])?,
                    ));
                }
                "segmented" if fields.len() == 7 + SPEC_FIELDS => {
                    let key = fields[1];
                    let rows: usize = fields[3].parse().map_err(|_| bad(line))?;
                    let domain_lo = f64::from_bits(fields[4].parse().map_err(|_| bad(line))?);
                    let domain_hi = f64::from_bits(fields[5].parse().map_err(|_| bad(line))?);
                    let reorg: u64 = fields[6].parse().map_err(|_| bad(line))?;
                    let spec = spec_from_fields(&fields[7..])?;
                    let bat = load_column(dir, key, fields[2], rows, &[])?;
                    let (schema, table, column) = split_key(key)?;
                    catalog
                        .register_segmented(schema, table, column, bat, domain_lo, domain_hi, spec)
                        .map_err(CheckpointError::Bpm)?;
                    let id = catalog.column_id(schema, table, column);
                    let col = id.and_then(|id| catalog.segmented_mut_at(id));
                    let col = col.ok_or_else(|| {
                        CheckpointError::Malformed(format!("{key} did not register"))
                    })?;
                    col.add_reorg_write_bytes(reorg);
                    soc_core::debug_assert_valid!(
                        col.validate(),
                        format!("checkpoint load of {key}")
                    );
                }
                "next_oid" if fields.len() == 3 => {
                    let n: Oid = fields[2].parse().map_err(|_| bad(line))?;
                    let t = catalog.table_of_key(fields[1]).ok_or_else(|| bad(line))?;
                    // Registration only raises it, so the persisted
                    // counter (>= every bat length) wins in any order.
                    t.next_oid = t.next_oid.max(n);
                }
                "threshold" if fields.len() == 3 => {
                    let rows = fields[2].parse().map_err(|_| bad(line))?;
                    let t = catalog.table_of_key(fields[1]).ok_or_else(|| bad(line))?;
                    t.merge_threshold = Some(rows);
                }
                _ => return Err(bad(line)),
            }
        }
        for (key, tag, rows) in plain {
            let rows_for_key: Vec<(Oid, String)> = strrows
                .iter()
                .filter(|(k, _, _)| *k == key)
                .map(|(_, oid, s)| (*oid, s.clone()))
                .collect();
            let bat = load_column(dir, &key, &tag, rows, &rows_for_key)?;
            let (schema, table, column) = split_key(&key)?;
            catalog.register_bat(schema, table, column, bat);
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_select, Interp, SegmentOptimizer};
    use soc_bat::Atom;
    use soc_core::{StrategyKind, StrategySpec};

    /// `spec` with an explicit merge policy.
    fn with_merge(spec: StrategySpec, small_bytes: u64, max_merged_bytes: u64) -> StrategySpec {
        StrategySpec {
            merge: Some(MergePolicy {
                small_bytes,
                max_merged_bytes,
            }),
            ..spec
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soc_catalog_ckpt_{name}_{}", std::process::id()))
    }

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_segmented(
            "sys",
            "P",
            "ra",
            Bat::dense_dbl((0..500).map(|i| 110.0 + (i as f64) * 0.3).collect()),
            110.0,
            260.0,
            StrategySpec::new(StrategyKind::ApmSegm)
                .with_apm_bounds(512, 2048)
                .with_model_seed(7),
        )
        .unwrap();
        c.register_segmented(
            "sys",
            "P",
            "z",
            Bat::dense_int((0..500).map(|i| (i * 13) % 400).collect()),
            0.0,
            400.0,
            StrategySpec::new(StrategyKind::Cracking),
        )
        .unwrap();
        c.register_bat("sys", "P", "objid", Bat::dense_int((9000..9500).collect()));
        c.register_bat(
            "sys",
            "P",
            "name",
            Bat::new(
                Head::Void { base: 0 },
                Tail::Str(Arc::new((0..500).map(|i| format!("obj {i}")).collect())),
            )
            .unwrap(),
        );
        // Shape the segmented columns and leave pending deltas behind.
        c.segmented_mut("sys.P.ra")
            .unwrap()
            .adapt(&Atom::Dbl(120.0), &Atom::Dbl(140.0))
            .unwrap();
        c.insert_row(
            "sys",
            "P",
            &[
                ("ra", Atom::Dbl(200.5)),
                ("z", Atom::Int(42)),
                ("objid", Atom::Int(9500)),
                ("name", Atom::Str("späßchen".into())),
                // A column no registration names: its delta is inert.
                ("ghost", Atom::Int(5)),
            ],
        );
        c.update_value("sys", "P", "ra", 3, Atom::Dbl(111.5));
        c.delete_row("sys", "P", 7);
        c.set_table_merge_threshold("sys", "P", 0);
        c.set_table_merge_threshold("sys", "Q", 7);
        c
    }

    /// `oid → value` of column `key`'s rows, plain or segmented.
    fn rows_by_oid(c: &Catalog, key: &str) -> Vec<(Oid, String)> {
        let bat = match c.key_id(key).and_then(|id| c.base(id)) {
            Some(Base::Plain(bat)) => bat.clone(),
            Some(Base::Segmented(seg)) => seg.pack().unwrap(),
            None => panic!("{key} is not registered"),
        };
        let values: Vec<String> = match bat.tail() {
            Tail::Int(v) => v.iter().map(i64::to_string).collect(),
            Tail::Dbl(v) => v.iter().map(|x| x.to_bits().to_string()).collect(),
            Tail::Str(v) => v.to_vec(),
            other => panic!("unexpected tail {other:?}"),
        };
        let mut rows: Vec<(Oid, String)> = bat.head_oids().into_iter().zip(values).collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn whole_catalog_round_trips() {
        let dir = tmp("roundtrip");
        let c = sample_catalog();
        let reorg_before = c.segmented("sys.P.ra").unwrap().reorg_write_bytes();
        assert!(reorg_before > 0);
        c.save_all(&dir).unwrap();
        let restored = Catalog::load_all(&dir).unwrap();
        // What the checkpoint holds: the rows a merge leaves behind.
        let mut merged = sample_catalog();
        merged.merge_deltas("sys", "P").unwrap();

        assert_eq!(restored.keys(), c.keys());
        for key in ["sys.P.ra", "sys.P.z"] {
            let (a, b) = (c.segmented(key).unwrap(), restored.segmented(key).unwrap());
            assert_eq!(a.strategy_name(), b.strategy_name(), "{key}");
            assert_eq!(a.reorg_write_bytes(), b.reorg_write_bytes(), "{key}");
            assert_eq!(b.rows(), merged.segmented(key).unwrap().rows(), "{key}");
        }
        assert_eq!(
            c.strategy_spec("sys.P.ra").map(|s| s.kind),
            restored.strategy_spec("sys.P.ra").map(|s| s.kind)
        );
        for key in ["sys.P.ra", "sys.P.z", "sys.P.objid", "sys.P.name"] {
            assert_eq!(
                rows_by_oid(&restored, key),
                rows_by_oid(&merged, key),
                "{key}"
            );
        }
        // Plain bats restore as they were merged, explicit heads included.
        for key in ["sys.P.objid", "sys.P.name"] {
            assert_eq!(
                merged.bat(key).unwrap(),
                restored.bat(key).unwrap(),
                "{key}"
            );
        }
        assert_eq!(restored.pending_rows("sys", "P"), 0);
        assert!(restored.table_entry("sys", "P").unwrap().deleted.is_empty());
        for table in ["P", "Q", "R"] {
            assert_eq!(
                restored.table_merge_threshold("sys", table),
                c.table_merge_threshold("sys", table),
                "{table}"
            );
        }
        assert_eq!(restored.table_merge_threshold("sys", "P"), 0);
        // Fresh oids continue where the saved catalog stopped (500 base
        // rows + the one pending insert -> next is 501).
        let mut r = restored;
        assert_eq!(r.insert_row("sys", "P", &[("objid", Atom::Int(1))]), 501);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The delta against a column no registration names is a row of no
    /// column: the checkpoint leaves it out, and the manifest names no
    /// such column.
    #[test]
    fn writes_to_a_never_registered_column_are_not_saved() {
        let dir = tmp("ghost");
        let c = sample_catalog();
        assert!(c.column_entry("sys", "P", "ghost").unwrap().base.is_none());
        c.save_all(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert!(!manifest.contains("ghost"), "{manifest}");
        let restored = Catalog::load_all(&dir).unwrap();
        assert!(restored.column_entry("sys", "P", "ghost").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every range's answer, through the compiled and segment-optimized
    /// select, is the same before the save and after the restore, which
    /// has nothing pending.
    #[test]
    fn a_restore_leaves_nothing_pending_and_answers_as_the_saved_catalog() {
        let dir = tmp("answers");
        let mut c = sample_catalog();
        c.update_value("sys", "P", "objid", 4, Atom::Int(-4));
        c.delete_row("sys", "P", 11);
        assert!(c.pending_rows("sys", "P") > 0);
        c.save_all(&dir).unwrap();
        let mut restored = Catalog::load_all(&dir).unwrap();
        assert_eq!(restored.pending_rows("sys", "P"), 0);
        for column in ["ra", "z", "objid"] {
            assert!(restored
                .column_entry("sys", "P", column)
                .unwrap()
                .deltas
                .insert_heads
                .is_empty());
        }
        let select = |c: &mut Catalog, sql: &str, lo: f64, hi: f64| {
            let plan = compile_select(sql).unwrap();
            let (plan, _) = SegmentOptimizer::new().optimize(&plan, c);
            let result = Interp::new(c).run(&plan, &[Atom::Dbl(lo), Atom::Dbl(hi)]);
            let result = result.unwrap().unwrap();
            let Tail::Int(ids) = result.tail() else {
                panic!("int projection expected")
            };
            let mut ids = ids.to_vec();
            ids.sort_unstable();
            ids
        };
        let by_ra = "SELECT objid FROM sys.P WHERE ra BETWEEN ? AND ?";
        let by_z = "SELECT objid FROM sys.P WHERE z BETWEEN ? AND ?";
        for (sql, lo, hi) in [
            (by_ra, 110.0, 112.0),
            (by_ra, 200.0, 201.0),
            (by_ra, 110.0, 260.0),
            (by_z, 40.0, 45.0),
            (by_z, 0.0, 400.0),
        ] {
            let want = select(&mut c, sql, lo, hi);
            assert!(!want.is_empty(), "{sql} [{lo}, {hi}]");
            assert_eq!(
                select(&mut restored, sql, lo, hi),
                want,
                "{sql} [{lo}, {hi}]"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pending writes a merge would refuse fail the save, typed, and the
    /// checkpoint saved before stays: an atom the column's type cannot
    /// hold, a NaN in a segmented column, a value outside its domain.
    #[test]
    fn a_save_whose_pending_writes_cannot_merge_fails_and_keeps_the_previous_checkpoint() {
        let dir = tmp("unmergeable");
        sample_catalog().save_all(&dir).unwrap();
        let mut merged = sample_catalog();
        merged.merge_deltas("sys", "P").unwrap();
        let mut unholdable = sample_catalog();
        unholdable.update_value("sys", "P", "objid", 2, Atom::Str("two".into()));
        let mut nan = sample_catalog();
        nan.update_value("sys", "P", "ra", 2, Atom::Dbl(f64::NAN));
        let mut outside = sample_catalog();
        outside.insert_row("sys", "P", &[("z", Atom::Int(400))]);
        for (bad, what) in [(unholdable, "str"), (nan, "NaN"), (outside, "domain")] {
            let failed = bad.save_all(&dir);
            match (what, &failed) {
                ("str", Err(CheckpointError::Unsupported(_)))
                | ("NaN", Err(CheckpointError::Bpm(BpmError::NanTail { .. })))
                | ("domain", Err(CheckpointError::Bpm(BpmError::Column(_)))) => {}
                _ => panic!("{what}: {failed:?}"),
            }
            let restored = Catalog::load_all(&dir).expect("old checkpoint intact");
            for key in merged.keys() {
                assert_eq!(
                    rows_by_oid(&restored, &key),
                    rows_by_oid(&merged, &key),
                    "{key}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dense_heads_restore_void_and_gapped_heads_restore_explicit() {
        let dir = tmp("density");
        let mut c = Catalog::new();
        c.register_bat("sys", "T", "i", Bat::dense_int((0..300).collect()));
        c.register_bat(
            "sys",
            "T",
            "d",
            Bat::dense_dbl((0..300).map(f64::from).collect()),
        );
        // Oid 2 is missing, as after a merged delete.
        let gapped = Bat::new(
            Head::Oids(vec![0, 1, 3].into()),
            Tail::Int(vec![10, 11, 13].into()),
        )
        .unwrap();
        c.register_bat("sys", "G", "i", gapped.clone());
        c.save_all(&dir).unwrap();
        let restored = Catalog::load_all(&dir).unwrap();
        for key in ["sys.T.i", "sys.T.d"] {
            let b = restored.bat(key).unwrap();
            assert_eq!(b.head(), &Head::Void { base: 0 }, "{key}");
            assert_eq!(b, c.bat(key).unwrap(), "{key}");
        }
        assert_eq!(restored.bat("sys.G.i").unwrap(), &gapped);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_preserves_the_previous_checkpoint() {
        let dir = tmp("failsafe");
        let c = sample_catalog();
        c.save_all(&dir).unwrap();

        // A catalog that cannot checkpoint (NaN in a plain :dbl bat)
        // must fail without touching the existing checkpoint on disk.
        let mut bad = Catalog::new();
        bad.register_bat("sys", "P", "ra", Bat::dense_dbl(vec![1.0, f64::NAN]));
        assert!(matches!(
            bad.save_all(&dir),
            Err(CheckpointError::Unsupported(_))
        ));
        let restored = Catalog::load_all(&dir).expect("old checkpoint intact");
        assert_eq!(restored.keys(), c.keys());

        // Names a manifest line cannot carry fail the save the same way:
        // whitespace in a name, and a key whose `schema.table.column`
        // split names another table (table `P.x`, column `c`).
        let mut spaced = Catalog::new();
        spaced.register_bat("sys", "my table", "c", Bat::dense_int(vec![1, 2, 3]));
        let mut spaced_column = Catalog::new();
        spaced_column.register_bat("sys", "T", "my c", Bat::dense_int(vec![1]));
        let mut spaced_table = Catalog::new();
        spaced_table.set_table_merge_threshold("sys", "my table", 0);
        let mut dotted = Catalog::new();
        dotted.register_bat("sys", "P.x", "c", Bat::dense_int(vec![1]));
        for bad in [spaced, spaced_column, spaced_table, dotted] {
            assert!(
                matches!(bad.save_all(&dir), Err(CheckpointError::Unsupported(_))),
                "{bad:?}"
            );
            let restored = Catalog::load_all(&dir).expect("old checkpoint intact");
            assert_eq!(restored.keys(), c.keys());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_manifest_without_threshold_lines_loads_at_the_default() {
        let dir = tmp("no-threshold");
        sample_catalog().save_all(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert!(manifest.contains("\nthreshold sys.P 0\n"));
        let old: String = manifest
            .lines()
            .filter(|l| !l.starts_with("threshold "))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(dir.join(MANIFEST), old).unwrap();
        let restored = Catalog::load_all(&dir).unwrap();
        assert_eq!(restored.table_merge_threshold("sys", "P"), 4096);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn spec_round_trip(spec: &StrategySpec) -> Result<StrategySpec, CheckpointError> {
        let text = spec_to_text(spec);
        let fields: Vec<&str> = text.split(' ').collect();
        spec_from_fields(&fields)
    }

    #[test]
    fn spec_text_round_trips_every_field() {
        let spec = StrategySpec::new(StrategyKind::GdSegmMerged)
            .with_apm_bounds(1111, 2222)
            .with_model_seed(33)
            .with_estimator(SizeEstimator::Exact)
            .with_storage_budget(9999);
        let spec = with_merge(spec, 10, 100);
        let back = spec_round_trip(&spec).unwrap();
        assert_eq!(back.kind, spec.kind);
        assert_eq!(back.mmin, 1111);
        assert_eq!(back.mmax, 2222);
        assert_eq!(back.model_seed, 33);
        assert_eq!(back.storage_budget, Some(9999));
        assert!(matches!(back.estimator, SizeEstimator::Exact));
        let m = back.merge.unwrap();
        assert_eq!((m.small_bytes, m.max_merged_bytes), (10, 100));
    }

    #[test]
    fn spec_survives_save_and_load() {
        let dir = tmp("spec");
        let mut c = Catalog::new();
        let spec = StrategySpec::new(StrategyKind::ApmSegm)
            .with_apm_bounds(512, 2048)
            .with_model_seed(9)
            .with_estimator(SizeEstimator::Exact);
        c.register_segmented(
            "sys",
            "T",
            "v",
            Bat::dense_int((0..300).collect()),
            0.0,
            300.0,
            spec,
        )
        .unwrap();
        c.save_all(&dir).unwrap();
        let restored = Catalog::load_all(&dir).unwrap();
        let back = restored.strategy_spec("sys.T.v").expect("registered");
        assert_eq!(back.kind, spec.kind);
        assert_eq!((back.mmin, back.mmax, back.model_seed), (512, 2048, 9));
        assert!(matches!(back.estimator, SizeEstimator::Exact));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spec_of_the_old_arity_is_a_typed_error() {
        // The 8-field spec of the `SOCCAT 1` manifest, its last field the
        // dropped encoding.
        let fields = ["apm_segm", "3072", "12288", "0", "uniform", "-", "-", "raw"];
        assert!(matches!(
            spec_from_fields(&fields),
            Err(CheckpointError::Malformed(_))
        ));
        // A whole segmented line of the old arity is rejected the same way.
        let dir = tmp("old-arity");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST),
            format!(
                "{MAGIC}\nsegmented sys.T.v int 0 0 4636737291354636288 0 {}\n",
                fields.join(" ")
            ),
        )
        .unwrap();
        assert!(matches!(
            Catalog::load_all(&dir),
            Err(CheckpointError::Malformed(_))
        ));
        // A whole manifest written under the old magic line is refused
        // before any line is parsed.
        std::fs::write(
            dir.join(MANIFEST),
            format!(
                "SOCCAT 1\nsegmented sys.T.v int 0 0 4636737291354636288 0 {}\n",
                fields.join(" ")
            ),
        )
        .unwrap();
        assert!(matches!(
            Catalog::load_all(&dir),
            Err(CheckpointError::Malformed(m)) if m == "bad magic line"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `SOCCAT 2` manifest, whose pending writes were `ins`/`upd`/
    /// `deleted` lines, is refused whole, and so is such a line under the
    /// current magic.
    #[test]
    fn a_manifest_of_the_delta_format_is_a_typed_error() {
        let dir = tmp("soccat2");
        let mut c = Catalog::new();
        c.register_bat("sys", "T", "i", Bat::dense_int(vec![1, 2, 3]));
        c.save_all(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert!(manifest.starts_with("SOCCAT 3\n"), "{manifest}");
        let body = manifest.trim_start_matches("SOCCAT 3\n");
        for damaged in [
            format!("SOCCAT 2\n{body}"),
            format!("SOCCAT 2\n{body}ins sys.T.i 3 i:4\n"),
            format!("{MAGIC}\n{body}ins sys.T.i 3 i:4\n"),
            format!("{MAGIC}\n{body}upd sys.T.i 0 i:9\n"),
            format!("{MAGIC}\n{body}deleted sys.T 1\n"),
        ] {
            std::fs::write(dir.join(MANIFEST), &damaged).unwrap();
            assert!(
                matches!(Catalog::load_all(&dir), Err(CheckpointError::Malformed(_))),
                "{damaged}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn specs_breaking_a_constructor_precondition_are_typed_errors() {
        let apm = |kind, mmin, mmax| StrategySpec::new(kind).with_apm_bounds(mmin, mmax);
        for bad in [
            // AdaptivePageModel::new needs 0 < mmin < mmax.
            apm(StrategyKind::ApmSegm, 4096, 4096),
            apm(StrategyKind::ApmRepl, 5000, 10),
            apm(StrategyKind::ApmSegm, 0, 10),
            // The default MergePolicy::new(mmin, mmax) needs 0 < mmin <= mmax.
            apm(StrategyKind::GdSegmMerged, 0, 4096),
            apm(StrategyKind::GdSegmMerged, 9, 8),
        ] {
            assert!(
                matches!(spec_round_trip(&bad), Err(CheckpointError::Malformed(_))),
                "{bad:?}"
            );
        }
        // Kinds that ignore the bounds load whatever they hold, and an
        // explicit merge policy replaces the bounds-derived one.
        for ok in [
            apm(StrategyKind::GdSegm, 0, 0),
            apm(StrategyKind::Cracking, 9, 8),
            apm(StrategyKind::AutoApmSegm, 0, 0),
            with_merge(apm(StrategyKind::GdSegmMerged, 0, 0), 1, 2),
        ] {
            let back = spec_round_trip(&ok).unwrap();
            let built = back.build(ValueRange::must(0u32, 99), (0..100).collect());
            assert!(built.is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn a_duplicate_or_unsaved_column_is_a_typed_error() {
        let dir = tmp("columns");
        let mut c = Catalog::new();
        c.register_bat("sys", "T", "i", Bat::dense_int(vec![1, 2, 3]));
        c.save_all(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        for damaged in [
            format!("{manifest}plain sys.T.i int 3\n"),
            manifest.replace("sys.T.i", "sys.T.j"),
        ] {
            std::fs::write(dir.join(MANIFEST), damaged).unwrap();
            assert!(matches!(
                Catalog::load_all(&dir),
                Err(CheckpointError::Malformed(_))
            ));
        }
        // The load created no directory for the key it could not find.
        assert!(!col_dir(&dir, "sys.T.j").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hex_decode_rejects_multibyte_and_signed_digits() {
        assert_eq!(hex_decode("c3a9").unwrap(), "é");
        for bad in ["0é0", "é0", "+f+f", "-1", "0", "zz", " 1"] {
            assert!(
                matches!(hex_decode(bad), Err(CheckpointError::Malformed(_))),
                "{bad:?}"
            );
        }
    }
}
