//! Segment-store integration tests: roundtrips, corruption detection,
//! and the crash window of the atomic save.

use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::sync::Arc;

use soc_core::{Fault, FaultPlan, FaultSite, OrdF64, SegId, ValueRange};
use soc_store::{SegmentStore, StoreError};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("soc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }

    /// The one segment file in the directory.
    fn only_file(&self) -> std::path::PathBuf {
        fs::read_dir(&self.0)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path()
    }

    fn tmp_files(&self) -> usize {
        fs::read_dir(&self.0)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn crashing_store(dir: &TempDir, site: FaultSite) -> SegmentStore {
    SegmentStore::open(&dir.0)
        .unwrap()
        .with_fault_injector(Arc::new(FaultPlan::one_shot(site, Fault::IoError)))
}

#[test]
fn segment_roundtrip_u32() {
    let dir = TempDir::new("roundtrip");
    let store = SegmentStore::open(&dir.0).unwrap();
    let range = ValueRange::must(10u32, 99);
    let values: Vec<u32> = vec![10, 55, 99, 42];
    store.save(SegId(7), &range, &values).unwrap();
    let (r, v) = store.load::<u32>(SegId(7)).unwrap();
    assert_eq!(r, range);
    assert_eq!(v, values);
    // Header (8 magic + 2 tag bytes + count, lo, hi) + values + checksum.
    assert_eq!(
        fs::metadata(dir.only_file()).unwrap().len(),
        8 + 2 + 24 + 4 * 8 + 8
    );
}

#[test]
fn segment_roundtrip_f64_and_empty() {
    let dir = TempDir::new("f64");
    let store = SegmentStore::open(&dir.0).unwrap();
    let range = ValueRange::must(OrdF64::from_finite(110.0), OrdF64::from_finite(260.0));
    let values: Vec<OrdF64> = [205.1, 205.115, 110.0, 260.0]
        .iter()
        .map(|x| OrdF64::from_finite(*x))
        .collect();
    store.save(SegId(1), &range, &values).unwrap();
    let (r, v) = store.load::<OrdF64>(SegId(1)).unwrap();
    assert_eq!(r, range);
    assert_eq!(v, values);
    // A range-only (empty) segment also survives.
    store.save(SegId(2), &range, &[] as &[OrdF64]).unwrap();
    let (_, v) = store.load::<OrdF64>(SegId(2)).unwrap();
    assert!(v.is_empty());
}

#[test]
fn wrong_type_is_rejected() {
    let dir = TempDir::new("kind");
    let store = SegmentStore::open(&dir.0).unwrap();
    store
        .save(SegId(3), &ValueRange::must(0u32, 10), &[5u32])
        .unwrap();
    match store.load::<i64>(SegId(3)) {
        Err(StoreError::WrongKind { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
}

#[test]
fn bit_flip_is_detected() {
    let dir = TempDir::new("corrupt");
    let store = SegmentStore::open(&dir.0).unwrap();
    let values: Vec<u32> = (0..100).collect();
    store
        .save(SegId(9), &ValueRange::must(0u32, 99), &values)
        .unwrap();
    // Flip one byte in the middle of the payload.
    let mut f = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.only_file())
        .unwrap();
    f.seek(SeekFrom::Start(60)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(60)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
    drop(f);
    match store.load::<u32>(SegId(9)) {
        Err(StoreError::Corrupt { .. }) | Err(StoreError::Malformed { .. }) => {}
        other => panic!("corruption must be detected, got {other:?}"),
    }
}

#[test]
fn truncation_is_detected() {
    let dir = TempDir::new("trunc");
    let store = SegmentStore::open(&dir.0).unwrap();
    let values: Vec<u32> = (0..50).collect();
    store
        .save(SegId(4), &ValueRange::must(0u32, 49), &values)
        .unwrap();
    let path = dir.only_file();
    let len = fs::metadata(&path).unwrap().len();
    for cut in [16, 9, len - 5] {
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..(len - cut) as usize]).unwrap();
        assert!(
            matches!(
                store.load::<u32>(SegId(4)),
                Err(StoreError::Malformed { .. })
            ),
            "cut {cut}"
        );
        store
            .save(SegId(4), &ValueRange::must(0u32, 49), &values)
            .unwrap();
    }
}

#[test]
fn a_packed_encoding_byte_is_rejected() {
    let dir = TempDir::new("encbyte");
    let store = SegmentStore::open(&dir.0).unwrap();
    store
        .save(SegId(1), &ValueRange::must(0u32, 999), &[1u32, 2, 3])
        .unwrap();
    let path = dir.only_file();
    let mut bytes = fs::read(&path).unwrap();
    bytes[9] = 2;
    fs::write(&path, &bytes).unwrap();
    match store.load::<u32>(SegId(1)) {
        Err(StoreError::Malformed { reason, .. }) => assert!(reason.contains("encoding")),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn values_outside_the_stored_range_are_rejected() {
    let dir = TempDir::new("outside");
    let store = SegmentStore::open(&dir.0).unwrap();
    // `save` trusts its caller; `load` does not.
    store
        .save(SegId(1), &ValueRange::must(0u32, 10), &[5u32, 50])
        .unwrap();
    match store.load::<u32>(SegId(1)) {
        Err(StoreError::Malformed { reason, .. }) => assert!(reason.contains("range")),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn mid_save_crash_leaves_previous_checkpoint_fully_loadable() {
    let dir = TempDir::new("crash");
    // The first save commits cleanly.
    let store = SegmentStore::open(&dir.0).unwrap();
    let range = ValueRange::must(0u32, 999);
    let first: Vec<u32> = (0..500u32).collect();
    store.save(SegId(3), &range, &first).unwrap();

    // A second save of the same segment "crashes" between temp-write and
    // rename: the injected fault fires after the tmp file is fully
    // written but before the atomic commit.
    let second: Vec<u32> = (500..999u32).collect();
    let err = crashing_store(&dir, FaultSite::StoreSave)
        .save(SegId(3), &range, &second)
        .unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "typed IO error: {err}");

    // The crash residue is on disk; the committed file is untouched.
    assert_eq!(
        dir.tmp_files(),
        1,
        "the aborted save leaves exactly its tmp file"
    );

    // Stale tmp is swept, never loaded, and the previous content comes
    // back byte-exactly.
    let reopened = SegmentStore::open(&dir.0).unwrap();
    assert_eq!(reopened.sweep_stale_tmp().unwrap(), 1);
    assert_eq!(
        reopened.sweep_stale_tmp().unwrap(),
        0,
        "sweep is idempotent"
    );
    let (r, v) = reopened.load::<u32>(SegId(3)).unwrap();
    assert_eq!(r, range);
    assert_eq!(v, first, "the pre-crash content survives unchanged");
}

#[test]
fn a_crashed_first_save_commits_nothing_and_its_residue_is_swept() {
    let dir = TempDir::new("crash-new");
    let store = SegmentStore::open(&dir.0).unwrap();
    let values: Vec<u32> = (0..2_000u32).map(|i| (i * 37) % 1_000).collect();
    store
        .save(SegId(0), &ValueRange::must(0u32, 999), &values)
        .unwrap();

    // A save of a segment that was never committed dies mid-save.
    let err = crashing_store(&dir, FaultSite::StoreSave)
        .save(SegId(0xdead), &ValueRange::must(0u32, 999), &[1u32, 2, 3])
        .unwrap_err();
    assert!(matches!(err, StoreError::Io(_)));

    // The half-written segment does not exist; the committed one loads.
    let reopened = SegmentStore::open(&dir.0).unwrap();
    assert!(matches!(
        reopened.load::<u32>(SegId(0xdead)),
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
    ));
    assert_eq!(reopened.sweep_stale_tmp().unwrap(), 1);
    let (_, got) = reopened.load::<u32>(SegId(0)).unwrap();
    assert_eq!(got, values, "the committed segment is untouched");
    assert_eq!(dir.tmp_files(), 0, "the residue is gone");
}

#[test]
fn transient_restore_io_fault_is_typed_and_retry_succeeds() {
    let dir = TempDir::new("restore-fault");
    let store = SegmentStore::open(&dir.0).unwrap();
    let range = ValueRange::must(0u32, 99);
    store.save(SegId(1), &range, &[5u32, 50, 99]).unwrap();

    let flaky = crashing_store(&dir, FaultSite::StoreRestore);
    let err = flaky.load::<u32>(SegId(1)).unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_)),
        "typed, not a panic: {err}"
    );
    // The fault was transient (budget 1): the retry reads the same bytes.
    let (r, v) = flaky.load::<u32>(SegId(1)).unwrap();
    assert_eq!(r, range);
    assert_eq!(v, vec![5, 50, 99]);
}
