//! The durable files — WAL, snapshot, manifest — are a trust boundary:
//! whatever bytes they hold, reading them either succeeds or reports an
//! error, and never panics (STORAGE.md §5). Both codecs are canonical, so
//! anything the decoders accept must re-encode to exactly the bytes read.
//!
//! The inputs are arbitrary bytes (optionally behind a valid file header,
//! so the fuzzing reaches past the magic check) and random mutations —
//! overwrites, cuts, insertions — of valid files written by real engines.

use graph_store::snapshot::{SnapshotState, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use graph_store::wal::{crc32, decode_wal_bytes, encode_wal_header, WalOp, WalRecord};
use graph_store::{current_generation, GraphStoreError, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem};
use moctopus_server::{DurabilityOptions, DurableEngine};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("moctopus-file-decode-{tag}-{}-{n}", std::process::id()))
}

/// A labelled graph with one hub past the degree threshold, so a Moctopus
/// image holds module rows, host rows and partitioner state.
fn edges() -> Vec<(NodeId, NodeId, Label)> {
    let mut edges: Vec<_> = (1..=20u64).map(|i| (NodeId(0), NodeId(i), Label(1))).collect();
    edges.extend((0..24u64).map(|i| (NodeId(i), NodeId((i * 5 + 3) % 24), Label(2))));
    edges
}

fn valid_wal() -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_wal_header(&mut bytes);
    let records = [
        WalRecord { seq: 1, op: WalOp::Insert, edges: edges()[..5].to_vec() },
        WalRecord { seq: 2, op: WalOp::Delete, edges: edges()[2..3].to_vec() },
        WalRecord { seq: 3, op: WalOp::Insert, edges: Vec::new() },
    ];
    for record in &records {
        record.encode_frame(&mut bytes);
    }
    bytes
}

/// Snapshot files of a Moctopus engine and of the host baseline (the only
/// engine that fills the adjacency section).
fn valid_snapshots() -> [Vec<u8>; 2] {
    let engines: [Box<dyn GraphEngine>; 2] = [
        Box::new(MoctopusSystem::new(MoctopusConfig::small_test())),
        Box::new(HostBaseline::new(MoctopusConfig::small_test())),
    ];
    engines.map(|mut engine| {
        engine.insert_labeled_edges(&edges());
        engine.export_snapshot().expect("engine writes an image").encode_file()
    })
}

/// The file framing of a snapshot payload: magic, version, length, payload,
/// CRC.
fn snapshot_file(payload: &[u8]) -> Vec<u8> {
    let mut file = SNAPSHOT_MAGIC.to_vec();
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file
}

const MANIFEST: &[u8] = b"moctopus-durable v1\ngeneration 3\n";

/// One edit of a byte string: overwrite, cut, or insert at a position.
type Edit = (u8, u64, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..3, 0u64..1 << 16, (0u16..256).prop_map(|b| b as u8)), 1..6)
}

fn mutate(mut bytes: Vec<u8>, edits: &[Edit]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        match kind {
            0 if at < bytes.len() => bytes[at] ^= byte.max(1),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96)
}

/// Every check a file must pass, whatever its bytes.
fn check_wal(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decode = decode_wal_bytes(bytes);
    prop_assert!(decode.valid_len <= bytes.len() as u64);
    // Clean exactly when a valid header and whole frames fill the input.
    let whole = decode.valid_len > 0 && decode.valid_len == bytes.len() as u64;
    prop_assert_eq!(decode.torn.is_none(), whole);
    if decode.valid_len > 0 {
        let mut again = Vec::new();
        encode_wal_header(&mut again);
        for record in &decode.records {
            record.encode_frame(&mut again);
        }
        prop_assert!(again == bytes[..decode.valid_len as usize], "valid prefix re-encodes");
    }
    Ok(())
}

fn check_snapshot(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(state) = SnapshotState::decode_file(bytes) {
        prop_assert!(state.encode_file() == bytes, "an accepted snapshot re-encodes verbatim");
    }
    Ok(())
}

fn check_manifest(bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = scratch_dir("manifest");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join(graph_store::durable::MANIFEST_NAME), bytes).expect("manifest write");
    let read = current_generation(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    match read {
        Ok(generation) => prop_assert!(generation.is_some(), "an existing manifest names one"),
        Err(e) => prop_assert!(matches!(e, GraphStoreError::Corrupt { .. }), "{e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_files_decode_or_fail_cleanly(edits in edits()) {
        check_wal(&mutate(valid_wal(), &edits))?;
        for snapshot in valid_snapshots() {
            check_snapshot(&mutate(snapshot, &edits))?;
        }
        check_manifest(&mutate(MANIFEST.to_vec(), &edits))?;
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(body in arbitrary_bytes()) {
        let mut wal = Vec::new();
        encode_wal_header(&mut wal);
        wal.extend_from_slice(&body);
        check_wal(&body)?;
        check_wal(&wal)?;
        check_snapshot(&body)?;
        check_snapshot(&snapshot_file(&body))?;
        let mut manifest = MANIFEST[..20].to_vec();
        manifest.extend_from_slice(&body);
        check_manifest(&body)?;
        check_manifest(&manifest)?;
    }
}

#[test]
fn valid_files_pass_their_own_checks() {
    check_wal(&valid_wal()).unwrap();
    for snapshot in valid_snapshots() {
        assert!(SnapshotState::decode_file(&snapshot).is_ok());
        check_snapshot(&snapshot).unwrap();
    }
    check_manifest(MANIFEST).unwrap();
    // A header declaring an empty payload: the 16- to 19-byte cuts pass the
    // length check and must still fail, on the missing CRC.
    let empty = snapshot_file(&[]);
    for cut in 0..=empty.len() {
        assert!(SnapshotState::decode_file(&empty[..cut]).is_err(), "cut at {cut}");
    }
}

/// A module section whose tag byte announces an MRAM capacity (tag 1, then
/// the capacity) is rejected at the tag, by the decoder and by recovery: no
/// engine writes one, and a store holding a 1-byte cap would drop every
/// fresh insert that the WAL has already logged.
#[test]
fn a_snapshot_naming_a_capacity_is_rejected_at_its_tag() {
    let mut engine = MoctopusSystem::new(MoctopusConfig::small_test());
    engine.insert_labeled_edges(&edges());
    let payload = engine.export_snapshot().expect("engine writes an image").encode_payload();
    // last_seq, edge_count and the module count precede module 0's tag.
    const TAG: usize = 24;
    assert_eq!(payload[TAG], 0, "the encoder writes tag 0");
    let mut capped = payload[..TAG].to_vec();
    capped.push(1);
    capped.extend_from_slice(&1u64.to_le_bytes());
    capped.extend_from_slice(&payload[TAG + 1..]);
    let file = snapshot_file(&capped);
    let tag_offset = 16 + TAG as u64;
    let (offset, why) = SnapshotState::decode_file(&file).unwrap_err();
    assert_eq!(offset, tag_offset, "{why}");

    let dir = scratch_dir("capacity-tag");
    let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
    let fresh = || Box::new(MoctopusSystem::new(MoctopusConfig::small_test()));
    let mut live = DurableEngine::open(fresh(), &dir, options).unwrap();
    live.insert_labeled_edges(&edges());
    live.rotate().expect("rotation must succeed");
    drop(live);
    std::fs::write(graph_store::generation_snapshot_path(&dir, 1), &file).unwrap();
    match DurableEngine::open(fresh(), &dir, options) {
        Err(GraphStoreError::Corrupt { offset, .. }) => assert_eq!(offset, tag_offset),
        Err(other) => panic!("a capacity tag must be reported as corrupt: {other}"),
        Ok(_) => panic!("a snapshot naming a capacity was restored"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
