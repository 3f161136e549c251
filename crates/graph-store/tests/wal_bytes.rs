//! The WAL's bytes on disk are a contract: a frame encoded today must be the
//! frame every earlier build wrote, whichever append path produced it, and
//! the sliced CRC must be the bytewise CRC.

use graph_store::wal::{crc32, WAL_MAGIC, WAL_VERSION};
use graph_store::{DurableStore, Label, NodeId, WalOp, WalRecord, WalWriter};

/// The fixed record and its frame, hex-encoded **at the commit before the
/// encoder was rewritten** (PR 18): `len`, `crc`, then the payload.
fn golden() -> (WalRecord, &'static str) {
    let record = WalRecord {
        seq: 0x0102_0304_0506_0708,
        op: WalOp::Delete,
        edges: vec![
            (NodeId(1), NodeId(0x1_0000_0002), Label(3)),
            (NodeId(u64::MAX), NodeId(0), Label::ANY),
            (NodeId(7), NodeId(7), Label(0xBEEF)),
        ],
    };
    (
        record,
        "43000000a09fb8cc\
         0807060504030201020300000001000000000000000200000001000000\
         0300ffffffffffffffff0000000000000000000007000000000000000700000000000000efbe",
    )
}

const GOLDEN_EMPTY: &str = "0d000000b7b682ef01000000000000000100000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moctopus-wal-bytes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_fixed_record_encodes_to_the_pinned_frame() {
    let (record, want) = golden();
    let mut frame = Vec::new();
    record.encode_frame(&mut frame);
    assert_eq!(hex(&frame), want);
    assert_eq!(hex(&frame[8..]), hex(&record.encode_payload()));

    let empty = WalRecord { seq: 1, op: WalOp::Insert, edges: Vec::new() };
    let mut frame = vec![0xAA]; // frames append; what precedes them is untouched
    empty.encode_frame(&mut frame);
    assert_eq!(hex(&frame[1..]), GOLDEN_EMPTY);
    assert_eq!(frame[0], 0xAA);
}

#[test]
fn both_append_paths_put_the_pinned_bytes_on_disk() {
    let (record, want) = golden();
    let mut header = WAL_MAGIC.to_vec();
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    let want_file = format!("{}{want}{GOLDEN_EMPTY}{want}", hex(&header));

    // The record path (`perf`, recovery tooling).
    let dir = scratch("writer");
    let path = dir.join("golden.mwal");
    let empty = WalRecord { seq: 1, op: WalOp::Insert, edges: Vec::new() };
    let mut writer = WalWriter::create(&path, 1).unwrap();
    for r in [&record, &empty, &record] {
        writer.append(r).unwrap();
    }
    assert_eq!(hex(&std::fs::read(&path).unwrap()), want_file);
    assert_eq!(writer.len_bytes() as usize, want_file.len() / 2);

    // The borrowed-batch path (`DurableEngine`'s write-ahead step).
    let (mut store, _) = DurableStore::open(&dir.join("store"), 1).unwrap();
    for r in [&record, &empty, &record] {
        store.append(r.seq, r.op, &r.edges).unwrap();
    }
    assert_eq!(hex(&std::fs::read(store.wal_path()).unwrap()), want_file);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytewise reference: one table-free bit loop per byte.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn sliced_crc_equals_the_bytewise_crc() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let data: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
    // Every length around the eight-byte stride, at every alignment of it.
    for len in 0..=64 {
        for offset in 0..8 {
            let slice = &data[offset..offset + len];
            assert_eq!(crc32(slice), crc32_reference(slice), "len {len} offset {offset}");
        }
    }
    // Random unaligned slices of random lengths.
    for _ in 0..500 {
        let start = next() as usize % data.len();
        let len = next() as usize % (data.len() - start + 1);
        let slice = &data[start..start + len];
        assert_eq!(crc32(slice), crc32_reference(slice), "start {start} len {len}");
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
