//! Catalog-level checkpointing: every registered column — with its
//! [`StrategySpec`], pending deltas, deletion lists, and oid counters —
//! persisted in one operation through `soc-store`, and restored with one
//! call.
//!
//! The storage layer already round-trips *individual* columns
//! (`SegmentStore::checkpoint`, `save_tree`, `save_cracked`); what it
//! lacked was the catalog: a restart had to re-register and re-load every
//! column by hand. [`Catalog::save_all`] writes a `catalog.manifest`
//! describing the whole catalog plus one segment-store directory per
//! column (values and oid heads as checksummed segment files), and
//! [`Catalog::load_all`] rebuilds the catalog from it — segmented columns
//! re-organize under their persisted spec (physical adaptation state is
//! rebuilt by the workload; the logical rows, the spec, and the
//! accumulated reorganization bill survive exactly).
//!
//! The manifest is a line-oriented text file (the build is offline — no
//! serde): one line per column/table fact, atoms encoded as
//! `i:`/`d:`/`o:` numerics or `s:` hex-encoded UTF-8.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use soc_bat::{algebra::Atom, Bat, Head, Oid, Tail};
use soc_core::{MergePolicy, OrdF64, SegId, SizeEstimator, StrategyKind, StrategySpec, ValueRange};
use soc_store::{FixedCodec, SegmentStore, StoreError};

use crate::bpm::BpmError;
use crate::catalog::Catalog;

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
const MAGIC: &str = "SOCCAT 1";
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
    if s.len() % 2 != 0 {
        return Err(CheckpointError::Malformed(format!("odd hex: {s:?}")));
    }
    let bytes: Result<Vec<u8>, _> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16))
        .collect();
    let bytes = bytes.map_err(|_| CheckpointError::Malformed(format!("bad hex: {s:?}")))?;
    String::from_utf8(bytes).map_err(|_| CheckpointError::Malformed(format!("non-utf8: {s:?}")))
}

fn atom_to_text(a: &Atom) -> String {
    match a {
        Atom::Int(v) => format!("i:{v}"),
        Atom::Dbl(v) => format!("d:{}", v.to_bits()),
        Atom::Oid(v) => format!("o:{v}"),
        Atom::Str(s) => format!("s:{}", hex_encode(s)),
        Atom::Nil => "n".to_owned(),
    }
}

fn atom_from_text(s: &str) -> Result<Atom, CheckpointError> {
    let bad = || CheckpointError::Malformed(format!("bad atom: {s:?}"));
    if s == "n" {
        return Ok(Atom::Nil);
    }
    let (tag, body) = s.split_once(':').ok_or_else(bad)?;
    match tag {
        "i" => body.parse().map(Atom::Int).map_err(|_| bad()),
        "d" => body
            .parse::<u64>()
            .map(|bits| Atom::Dbl(f64::from_bits(bits)))
            .map_err(|_| bad()),
        "o" => body.parse().map(Atom::Oid).map_err(|_| bad()),
        "s" => hex_decode(body).map(Atom::Str),
        _ => Err(bad()),
    }
}

/// `StrategySpec` as one manifest token run (everything is `Copy` and
/// numeric; f64 fields travel as bit patterns so the round-trip is exact).
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

fn spec_from_fields(fields: &[&str]) -> Result<StrategySpec, CheckpointError> {
    let bad = |what: &str| CheckpointError::Malformed(format!("bad spec {what}: {fields:?}"));
    if fields.len() != 7 {
        return Err(bad("arity"));
    }
    let kind = StrategyKind::from_token(fields[0]).ok_or_else(|| bad("kind"))?;
    let mut spec = StrategySpec::new(kind)
        .with_apm_bounds(
            fields[1].parse().map_err(|_| bad("mmin"))?,
            fields[2].parse().map_err(|_| bad("mmax"))?,
        )
        .with_model_seed(fields[3].parse().map_err(|_| bad("seed"))?);
    spec = spec.with_estimator(match fields[4] {
        "uniform" => SizeEstimator::Uniform,
        "exact" => SizeEstimator::Exact,
        _ => return Err(bad("estimator")),
    });
    if fields[5] != "-" {
        spec = spec.with_storage_budget(fields[5].parse().map_err(|_| bad("budget"))?);
    }
    if fields[6] != "-" {
        let (small, max) = fields[6].split_once(',').ok_or_else(|| bad("merge"))?;
        spec = spec.with_merge(MergePolicy::new(
            small.parse().map_err(|_| bad("merge"))?,
            max.parse().map_err(|_| bad("merge"))?,
        ));
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
    if values.is_empty() {
        return Ok(());
    }
    #[expect(
        clippy::expect_used,
        reason = "guarded by the is_empty early return above; min/max of a non-empty slice always exist"
    )]
    let lo = *values.iter().min().expect("non-empty");
    #[expect(
        clippy::expect_used,
        reason = "guarded by the is_empty early return above; min/max of a non-empty slice always exist"
    )]
    let hi = *values.iter().max().expect("non-empty");
    #[expect(
        clippy::expect_used,
        reason = "min <= max by definition, so the range constructor cannot reject"
    )]
    let range = ValueRange::new(lo, hi).expect("min <= max");
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
    let store = SegmentStore::open(col_dir(dir, key))?;
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
            let mut vals = vec![String::new(); rows];
            if strrows.len() != rows {
                return Err(CheckpointError::Malformed(format!(
                    "{key}: {} strrow lines, manifest says {rows}",
                    strrows.len()
                )));
            }
            for (i, (oid, s)) in strrows.iter().enumerate() {
                if heads.get(i) != Some(oid) {
                    return Err(CheckpointError::Malformed(format!(
                        "{key}: strrow oid {oid} out of order"
                    )));
                }
                vals[i] = s.clone();
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
    /// plain and segmented column (each with its [`StrategySpec`] and
    /// accumulated reorganization bill), all pending deltas, the deletion
    /// lists, and the per-table oid counters.
    ///
    /// The directory is replaced wholesale — but only after the new
    /// checkpoint has been written completely: everything lands in a
    /// sibling temp directory first and swaps in at the end, so a
    /// mid-save failure (unsupported column, I/O error) leaves the
    /// previous checkpoint intact.
    ///
    /// # Errors
    /// [`CheckpointError::Unsupported`] for NaN-bearing plain `:dbl`
    /// bats; I/O and store errors otherwise. On error the previous
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

    /// The write half of [`Self::save_all`], against a fresh directory.
    fn save_all_into(&self, dir: &Path) -> Result<(), CheckpointError> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;

        let mut manifest = String::new();
        let _ = writeln!(manifest, "{MAGIC}");
        let mut keys: BTreeSet<String> = BTreeSet::new();
        keys.extend(self.bats.keys().cloned());
        keys.extend(self.segmented.keys().cloned());

        for key in &keys {
            if let Some(seg) = self.segmented.get(key) {
                let meta = self.seg_meta.get(key).copied().ok_or_else(|| {
                    CheckpointError::Unsupported(format!("{key} has no strategy metadata"))
                })?;
                let packed = seg.pack()?;
                let _ = writeln!(
                    manifest,
                    "segmented {key} {} {} {} {} {} {}",
                    tail_tag(packed.tail()),
                    packed.len(),
                    meta.domain_lo.to_bits(),
                    meta.domain_hi_excl.to_bits(),
                    seg.reorg_write_bytes(),
                    spec_to_text(&meta.spec),
                );
                save_column(dir, key, &packed.head_oids(), packed.tail())?;
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "the key came from the union of the maps and is not segmented"
                )]
                let bat = self.bats.get(key).expect("key from the union");
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
        for (table, n) in self.next_oid.iter().collect::<BTreeSet<_>>() {
            let _ = writeln!(manifest, "next_oid {table} {n}");
        }
        for (table, oids) in self.deleted.iter().collect::<BTreeSet<_>>() {
            if oids.is_empty() {
                continue;
            }
            let list: Vec<String> = oids.iter().map(Oid::to_string).collect();
            let _ = writeln!(manifest, "deleted {table} {}", list.join(" "));
        }
        let mut delta_keys: Vec<&String> = self.deltas.keys().collect();
        delta_keys.sort();
        for key in delta_keys {
            let d = &self.deltas[key];
            for (oid, v) in d.insert_heads.iter().zip(&d.insert_vals) {
                let _ = writeln!(manifest, "ins {key} {oid} {}", atom_to_text(v));
            }
            for (oid, v) in d.update_heads.iter().zip(&d.update_vals) {
                let _ = writeln!(manifest, "upd {key} {oid} {}", atom_to_text(v));
            }
        }
        fs::write(dir.join(MANIFEST), manifest)?;
        Ok(())
    }

    /// Restores a catalog checkpointed by [`Catalog::save_all`]: every
    /// column re-registers under its persisted spec (segmented columns
    /// re-organize from their logical rows, keeping the accumulated
    /// reorganization bill), deltas and deletions replay verbatim, and
    /// fresh oids continue where the saved catalog stopped.
    ///
    /// # Errors
    /// [`CheckpointError::Malformed`] for a damaged manifest; store and
    /// rebuild errors otherwise.
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

        let bad = |line: &str| CheckpointError::Malformed(format!("bad line: {line:?}"));
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(' ').collect();
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
                "segmented" if fields.len() == 14 => {
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
                    let col = catalog.segmented_mut(key).ok_or_else(|| {
                        CheckpointError::Malformed(format!("{key} did not register"))
                    })?;
                    col.add_reorg_write_bytes(reorg);
                    soc_core::debug_assert_valid!(
                        col.validate(),
                        format!("checkpoint load of {key}")
                    );
                }
                "next_oid" if fields.len() == 3 => {
                    catalog.next_oid.insert(
                        fields[1].to_owned(),
                        fields[2].parse().map_err(|_| bad(line))?,
                    );
                }
                "deleted" if fields.len() >= 3 => {
                    let oids: Result<Vec<Oid>, _> = fields[2..].iter().map(|s| s.parse()).collect();
                    catalog
                        .deleted
                        .insert(fields[1].to_owned(), oids.map_err(|_| bad(line))?);
                }
                "ins" if fields.len() == 4 => {
                    let d = catalog.deltas.entry(fields[1].to_owned()).or_default();
                    d.insert_heads
                        .push(fields[2].parse().map_err(|_| bad(line))?);
                    d.insert_vals.push(atom_from_text(fields[3])?);
                }
                "upd" if fields.len() == 4 => {
                    let d = catalog.deltas.entry(fields[1].to_owned()).or_default();
                    d.update_heads
                        .push(fields[2].parse().map_err(|_| bad(line))?);
                    d.update_vals.push(atom_from_text(fields[3])?);
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
            // Registration only raises next_oid, so the persisted counter
            // (already replayed above, and >= every bat length) wins.
            catalog.register_bat(schema, table, column, bat);
        }
        // Delta/deletion lines were replayed straight into the maps, so
        // the incremental pending counters must be rebuilt once.
        catalog.recompute_pending();
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_core::{StrategyKind, StrategySpec};

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
            ],
        );
        c.update_value("sys", "P", "ra", 3, Atom::Dbl(111.5));
        c.delete_row("sys", "P", 7);
        c
    }

    #[test]
    fn whole_catalog_round_trips() {
        let dir = tmp("roundtrip");
        let c = sample_catalog();
        let reorg_before = c.segmented("sys.P.ra").unwrap().reorg_write_bytes();
        assert!(reorg_before > 0);
        c.save_all(&dir).unwrap();
        let restored = Catalog::load_all(&dir).unwrap();

        assert_eq!(restored.keys(), c.keys());
        for key in ["sys.P.ra", "sys.P.z"] {
            let (a, b) = (c.segmented(key).unwrap(), restored.segmented(key).unwrap());
            assert_eq!(a.rows(), b.rows(), "{key}");
            assert_eq!(a.strategy_name(), b.strategy_name(), "{key}");
            assert_eq!(a.reorg_write_bytes(), b.reorg_write_bytes(), "{key}");
            // Logical content is byte-identical (pack sorts by value).
            let (pa, pb) = (a.pack().unwrap(), b.pack().unwrap());
            assert_eq!(pa.head_oids(), pb.head_oids(), "{key}");
            assert_eq!(pa.tail(), pb.tail(), "{key}");
        }
        assert_eq!(
            c.strategy_spec("sys.P.ra").map(|s| s.kind),
            restored.strategy_spec("sys.P.ra").map(|s| s.kind)
        );
        // Plain bats restore as they were saved, dense heads included.
        for key in ["sys.P.objid", "sys.P.name"] {
            assert_eq!(c.bat(key).unwrap(), restored.bat(key).unwrap(), "{key}");
        }
        assert_eq!(
            restored.pending_delta_rows("sys", "P"),
            c.pending_delta_rows("sys", "P")
        );
        assert_eq!(
            restored.dbat("sys", "P").unwrap().tail(),
            c.dbat("sys", "P").unwrap().tail()
        );
        // Fresh oids continue where the saved catalog stopped (500 base
        // rows + the one pending insert -> next is 501).
        let mut r = restored;
        assert_eq!(r.insert_row("sys", "P", &[("objid", Atom::Int(1))]), 501);
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_text_round_trips_every_field() {
        let spec = StrategySpec::new(StrategyKind::GdSegmMerged)
            .with_apm_bounds(1111, 2222)
            .with_model_seed(33)
            .with_estimator(SizeEstimator::Exact)
            .with_storage_budget(9999)
            .with_merge(MergePolicy::new(10, 100));
        let text = spec_to_text(&spec);
        let fields: Vec<&str> = text.split(' ').collect();
        let back = spec_from_fields(&fields).unwrap();
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
    fn atoms_round_trip_including_strings() {
        for a in [
            Atom::Int(-5),
            Atom::Dbl(205.115),
            Atom::Dbl(f64::INFINITY),
            Atom::Oid(9),
            Atom::Str("hello wörld".into()),
            Atom::Nil,
        ] {
            let back = atom_from_text(&atom_to_text(&a)).unwrap();
            match (&a, &back) {
                (Atom::Dbl(x), Atom::Dbl(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(format!("{a:?}"), format!("{back:?}")),
            }
        }
    }
}
