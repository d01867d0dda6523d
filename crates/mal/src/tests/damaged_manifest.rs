//! A damaged `catalog.manifest` never panics `Catalog::load_all`: byte
//! flips, truncated lines, inserted multi-byte characters, swapped or
//! out-of-range numeric fields all end in `Ok` or a `CheckpointError`.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::Catalog;
use proptest::prelude::*;
use soc_bat::{Atom, Bat, Head, Tail};
use soc_core::{StrategyKind, StrategySpec};

const MANIFEST: &str = "catalog.manifest";

struct TempDir(PathBuf);

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "soc-mal-damaged-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Segmented columns of two kinds (APM on `:dbl`, merging GD on `:int`,
/// whose default merge policy derives from the APM bounds), plain `:int`
/// and `:str` columns, pending inserts, updates and deletes, and a
/// per-table merge threshold.
fn sample_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register_segmented(
        "sys",
        "P",
        "ra",
        Bat::dense_dbl((0..200).map(|i| 110.0 + f64::from(i) * 0.5).collect()),
        110.0,
        260.0,
        StrategySpec::new(StrategyKind::ApmSegm).with_apm_bounds(256, 1024),
    )
    .expect("ra registers");
    c.register_segmented(
        "sys",
        "P",
        "z",
        Bat::dense_int((0..200).map(|i| (i * 13) % 400).collect()),
        0.0,
        400.0,
        StrategySpec::new(StrategyKind::GdSegmMerged).with_apm_bounds(256, 1024),
    )
    .expect("z registers");
    c.register_bat("sys", "P", "objid", Bat::dense_int((9000..9200).collect()));
    c.register_bat(
        "sys",
        "P",
        "name",
        Bat::new(
            Head::Void { base: 0 },
            Tail::Str(Arc::new((0..200).map(|i| format!("o{}", i % 4)).collect())),
        )
        .expect("name bat"),
    );
    c.segmented_mut("sys.P.ra")
        .expect("ra")
        .adapt(&Atom::Dbl(120.0), &Atom::Dbl(140.0))
        .expect("adapt");
    c.insert_row(
        "sys",
        "P",
        &[
            ("ra", Atom::Dbl(200.5)),
            ("z", Atom::Int(42)),
            ("objid", Atom::Int(9200)),
            ("name", Atom::Str("späßchen".into())),
        ],
    );
    c.update_value("sys", "P", "ra", 3, Atom::Dbl(111.5));
    c.delete_row("sys", "P", 7);
    c.set_table_merge_threshold("sys", "P", 64);
    c
}

#[derive(Debug, Clone)]
enum Damage {
    /// XOR one ASCII byte with a 7-bit mask (the text stays UTF-8).
    FlipByte { at: usize, mask: u8 },
    /// Cut a line after `keep` bytes. Line damages pick a column line
    /// for even `line` values, any line for odd ones (see [`pick`]).
    TruncateLine { line: usize, keep: usize },
    /// Insert a character, multi-byte ones included.
    InsertChar { at: usize, ch: char },
    /// Swap two space-separated fields of a line.
    SwapFields { line: usize, a: usize, b: usize },
    /// Overwrite a field with an out-of-range or ill-formed number.
    SetField {
        line: usize,
        field: usize,
        value: &'static str,
    },
}

const CHARS: [char; 8] = ['é', '€', '𝄞', 'ß', 'ｆ', ' ', ',', ':'];

const VALUES: [&str; 14] = [
    "0",
    "1",
    "-1",
    "+5",
    "4096",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "99999999999999999999999",
    // f64 bit patterns of NaN and +inf.
    "9221120237041090560",
    "9218868437227405312",
    "-",
    "",
    "ff",
];

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), 1u8..128).prop_map(|(at, mask)| Damage::FlipByte { at, mask }),
        (any::<usize>(), 0usize..40).prop_map(|(line, keep)| Damage::TruncateLine { line, keep }),
        (any::<usize>(), 0usize..CHARS.len())
            .prop_map(|(at, i)| Damage::InsertChar { at, ch: CHARS[i] }),
        (any::<usize>(), 0usize..16, 0usize..16).prop_map(|(line, a, b)| Damage::SwapFields {
            line,
            a,
            b
        }),
        (any::<usize>(), 0usize..16, 0usize..VALUES.len()).prop_map(|(line, field, v)| {
            Damage::SetField {
                line,
                field,
                value: VALUES[v],
            }
        }),
    ]
}

/// The line a line damage hits: half the time one of the few column
/// lines (whose numeric fields feed the strategy constructors), otherwise
/// any line.
fn pick(lines: &[String], line: usize) -> usize {
    let columns: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("segmented ") || lines[i].starts_with("plain "))
        .collect();
    match (line % 2, columns.len()) {
        (0, k) if k > 0 => columns[line / 2 % k],
        _ => line / 2 % lines.len(),
    }
}

/// Applies `d` to `text`, keeping it valid UTF-8 so the damage reaches the
/// manifest parser rather than stopping at the file read.
fn apply(text: &mut String, d: &Damage) {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    match *d {
        Damage::FlipByte { at, mask } => {
            let mut bytes = std::mem::take(text).into_bytes();
            let at = at % bytes.len();
            if bytes[at].is_ascii() {
                bytes[at] ^= mask;
            }
            *text = String::from_utf8(bytes).expect("ASCII stays ASCII");
            return;
        }
        Damage::InsertChar { at, ch } => {
            let mut at = at % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.insert(at, ch);
            return;
        }
        Damage::TruncateLine { line, keep } => {
            let at = pick(&lines, line);
            let l = &mut lines[at];
            let mut keep = keep.min(l.len());
            while !l.is_char_boundary(keep) {
                keep -= 1;
            }
            l.truncate(keep);
        }
        Damage::SwapFields { line, a, b } => {
            let at = pick(&lines, line);
            let l = &mut lines[at];
            let mut fields: Vec<&str> = l.split(' ').collect();
            let k = fields.len();
            fields.swap(a % k, b % k);
            *l = fields.join(" ");
        }
        Damage::SetField { line, field, value } => {
            let at = pick(&lines, line);
            let l = &mut lines[at];
            let mut fields: Vec<&str> = l.split(' ').collect();
            let k = fields.len();
            fields[field % k] = value;
            *l = fields.join(" ");
        }
    }
    *text = lines.join("\n");
    text.push('\n');
}

#[test]
fn the_undamaged_manifest_loads() {
    let dir = TempDir::new();
    let c = sample_catalog();
    c.save_all(&dir.0).expect("save");
    let restored = Catalog::load_all(&dir.0).expect("load");
    assert_eq!(restored.keys(), c.keys());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_damaged_manifest_is_an_error_or_a_catalog_never_a_panic(
        damages in proptest::collection::vec(damage(), 1..5),
    ) {
        let dir = TempDir::new();
        sample_catalog().save_all(&dir.0).expect("save");
        let path = dir.0.join(MANIFEST);
        let mut text = fs::read_to_string(&path).expect("manifest");
        for d in &damages {
            apply(&mut text, d);
        }
        fs::write(&path, &text).expect("write damaged manifest");
        let outcome = catch_unwind(AssertUnwindSafe(|| Catalog::load_all(&dir.0).map(drop)));
        prop_assert!(
            outcome.is_ok(),
            "load_all panicked after {:?} on manifest:\n{}",
            damages,
            text
        );
    }
}
