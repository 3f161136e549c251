//! Append-only write-ahead log of labelled-edge update batches.
//!
//! The log is a flat byte stream: an 8-byte file header (magic + version)
//! followed by zero or more *frames*, each `[len: u32][crc: u32][payload]`
//! (all integers little-endian) where `crc` is the CRC-32 of the payload
//! bytes. A payload is one [`WalRecord`]: the batch's sequence number, the
//! operation (insert/delete), and the labelled edges.
//!
//! Encoding and decoding are pure byte-level functions, so crash injection
//! can exercise every truncation point and bit flip in memory without
//! touching a filesystem: [`decode_wal_bytes`] returns the longest prefix of
//! whole, checksummed frames and reports where — and why — it stopped. A torn
//! or corrupted tail therefore costs at most the records past the last intact
//! frame, and can never surface garbage as a decoded record.
//!
//! Every field is read through the crate's one checked cursor
//! (`bytes::Reader`), so no input, however short or corrupt, can make the
//! decoder panic.
//!
//! [`WalWriter`] is the file-backed append side with fsync batching: records
//! are flushed to the OS on every append and fsynced every `sync_every`
//! records (and on [`WalWriter::sync`]).

use crate::bytes::{put_u16, put_u32, put_u64, read_if_exists, DecodeError, Reader};
use crate::error::GraphStoreError;
use crate::ids::{Label, NodeId};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"MWAL";
/// On-disk format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;
/// Byte length of the WAL file header (magic + version).
pub const WAL_HEADER_LEN: usize = 8;
/// Byte length of a frame header (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;
/// Smallest legal payload: seq (8) + op (1) + edge count (4), zero edges.
const MIN_PAYLOAD_LEN: usize = 13;
/// Bytes per encoded labelled edge: src (8) + dst (8) + label (2).
const EDGE_ENCODED_LEN: usize = 18;

/// Slicing-by-8 tables of the reflected IEEE polynomial: `CRC_TABLES[0]` is
/// the classic bytewise table, `CRC_TABLES[k][b]` the CRC of byte `b`
/// followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    while i < 8 * 256 {
        let prev = tables[i / 256 - 1][i % 256];
        tables[i / 256][i % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        i += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`, eight bytes per step.
///
/// Guarantees detection of any single-bit error in the checked span, which is
/// what the crash-injection property test leans on.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let (words, tail) = bytes.as_chunks::<8>();
    for &w in words {
        let word = u64::from_le_bytes(w);
        let lo = (word as u32 ^ crc) as usize;
        let hi = (word >> 32) as usize;
        crc = t[7][lo & 0xFF]
            ^ t[6][(lo >> 8) & 0xFF]
            ^ t[5][(lo >> 16) & 0xFF]
            ^ t[4][lo >> 24]
            ^ t[3][hi & 0xFF]
            ^ t[2][(hi >> 8) & 0xFF]
            ^ t[1][(hi >> 16) & 0xFF]
            ^ t[0][hi >> 24];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The operation a WAL record applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Insert the batch's labelled edges.
    Insert,
    /// Delete the batch's labelled edges.
    Delete,
}

impl WalOp {
    fn code(self) -> u8 {
        match self {
            WalOp::Insert => 1,
            WalOp::Delete => 2,
        }
    }

    fn from_code(code: u8) -> Option<WalOp> {
        match code {
            1 => Some(WalOp::Insert),
            2 => Some(WalOp::Delete),
            _ => None,
        }
    }
}

/// One durable update: a sequenced batch of labelled edge inserts or deletes.
///
/// Sequence numbers are assigned by the caller in execution order and are
/// strictly increasing within a log; recovery uses them to skip records
/// already folded into a snapshot (duplicate-replay idempotence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Position of this batch in the engine's total update order.
    pub seq: u64,
    /// Whether the batch inserts or deletes its edges.
    pub op: WalOp,
    /// The labelled edges of the batch, in submission order.
    pub edges: Vec<(NodeId, NodeId, Label)>,
}

impl WalRecord {
    /// Serialises the record payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.encode_frame(&mut frame);
        frame.split_off(FRAME_HEADER_LEN)
    }

    /// Parses a payload produced by [`WalRecord::encode_payload`].
    ///
    /// Returns `Err(reason)` if the bytes are not exactly one well-formed
    /// record — decoding never guesses at partially valid input.
    pub fn decode_payload(bytes: &[u8]) -> Result<WalRecord, String> {
        decode_record(&mut Reader::new(bytes)).map_err(|(_, why)| why)
    }

    /// Appends the framed record (`len`, `crc`, payload) to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        encode_frame(out, self.seq, self.op, &self.edges);
    }
}

/// [`WalRecord::decode_payload`] with the offset of a failure kept.
fn decode_record(r: &mut Reader<'_>) -> Result<WalRecord, DecodeError> {
    let seq = r.u64("seq")?;
    let code = r.u8("op")?;
    let op = WalOp::from_code(code).ok_or_else(|| (8, format!("unknown op code {code}")))?;
    let count = r.u32("edge count")? as u64;
    let len = r.offset() + r.remaining() as u64;
    let expected = MIN_PAYLOAD_LEN as u64 + count * EDGE_ENCODED_LEN as u64;
    if len != expected {
        return Err((
            r.offset(),
            format!("payload length {len} does not match {count} edges (expected {expected})"),
        ));
    }
    let mut edges = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let src = NodeId(r.u64("edge src")?);
        let dst = NodeId(r.u64("edge dst")?);
        edges.push((src, dst, Label(r.u16("edge label")?)));
    }
    Ok(WalRecord { seq, op, edges })
}

/// The one frame encoder, over a *borrowed* batch: the payload is written
/// straight behind a reserved frame header and `len`/`crc` are patched in,
/// so a frame is encoded once, into one buffer.
fn encode_frame(out: &mut Vec<u8>, seq: u64, op: WalOp, edges: &[(NodeId, NodeId, Label)]) {
    let header = out.len();
    let payload = header + FRAME_HEADER_LEN;
    out.reserve(FRAME_HEADER_LEN + MIN_PAYLOAD_LEN + edges.len() * EDGE_ENCODED_LEN);
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    put_u64(out, seq);
    out.push(op.code());
    put_u32(out, edges.len() as u32);
    for &(src, dst, label) in edges {
        put_u64(out, src.0);
        put_u64(out, dst.0);
        put_u16(out, label.0);
    }
    let (len, crc) = ((out.len() - payload) as u32, crc32(&out[payload..]));
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Writes the 8-byte WAL file header into `out`.
pub fn encode_wal_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&WAL_MAGIC);
    put_u32(out, WAL_VERSION);
}

/// Where and why [`decode_wal_bytes`] stopped before the end of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first frame that failed validation.
    pub offset: u64,
    /// Index the bad frame would have had (== number of recovered records).
    pub record_index: u64,
    /// Human-readable reason the frame was rejected.
    pub reason: String,
}

/// Result of decoding a WAL byte stream: the longest valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDecode {
    /// Every whole, checksum-valid record, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + whole frames). Truncating
    /// the stream to this length yields a clean log ending in a whole record.
    pub valid_len: u64,
    /// `Some` if decoding stopped before the end of the input.
    pub torn: Option<TornTail>,
}

impl WalDecode {
    /// The decode of a log that does not exist yet: clean and empty.
    fn empty() -> WalDecode {
        WalDecode { records: Vec::new(), valid_len: WAL_HEADER_LEN as u64, torn: None }
    }
}

/// Decodes a WAL byte stream, tolerating a torn or corrupted tail.
///
/// Validation order per frame: enough bytes for the frame header, declared
/// length within the remaining bytes, CRC match, then payload parse. The
/// first failure ends decoding — everything before it is returned, nothing
/// after it is trusted. A missing or corrupted *file header* rejects the
/// whole stream (zero records): frames cannot be located without it.
pub fn decode_wal_bytes(bytes: &[u8]) -> WalDecode {
    let mut r = Reader::new(bytes);
    let mut records = Vec::new();
    let (valid_len, torn) = match decode_wal_header(&mut r) {
        Err((offset, reason)) => (0, Some(TornTail { offset, record_index: 0, reason })),
        Ok(()) => loop {
            let at = r.offset();
            if r.remaining() == 0 {
                break (at, None);
            }
            match decode_frame(&mut r) {
                Ok(record) => records.push(record),
                Err(reason) => {
                    let record_index = records.len() as u64;
                    break (at, Some(TornTail { offset: at, record_index, reason }));
                }
            }
        },
    };
    WalDecode { records, valid_len, torn }
}

/// Checks the 8-byte file header: magic, then version.
fn decode_wal_header(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let len = r.remaining();
    let (Ok(magic), Ok(version)) = (r.array::<4>("magic"), r.u32("version")) else {
        return Err((0, format!("file header torn: {len} bytes")));
    };
    if magic != WAL_MAGIC {
        return Err((0, "bad magic".to_string()));
    }
    if version != WAL_VERSION {
        return Err((4, format!("unsupported version {version}")));
    }
    Ok(())
}

/// Reads one frame: whole header, whole payload, matching CRC, well-formed
/// record — in that order.
fn decode_frame(r: &mut Reader<'_>) -> Result<WalRecord, String> {
    let left = r.remaining();
    let (Ok(len), Ok(crc)) = (r.u32("frame length"), r.u32("frame crc")) else {
        return Err(format!("torn frame header: {left} bytes"));
    };
    let present = left - FRAME_HEADER_LEN;
    let payload = r
        .take(len as usize, "payload")
        .map_err(|_| format!("torn payload: {len} declared, {present} present"))?;
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!("crc mismatch: stored {crc:#010x}, computed {actual:#010x}"));
    }
    WalRecord::decode_payload(payload)
}

/// File-backed append side of the WAL, with fsync batching.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    sync_every: usize,
    unsynced: usize,
    len: u64,
    records: u64,
    /// The frame being appended; kept for its capacity.
    frame: Vec<u8>,
}

impl WalWriter {
    fn new(file: File, path: &Path, sync_every: usize, len: u64, records: u64) -> WalWriter {
        WalWriter {
            file,
            path: path.to_path_buf(),
            sync_every: sync_every.max(1),
            unsynced: 0,
            len,
            records,
            frame: Vec::new(),
        }
    }

    /// Creates (or truncates) a WAL file, writes the header, and fsyncs.
    ///
    /// `sync_every` is the fsync batch size: the file is fsynced after every
    /// `sync_every` appended records (1 = every record). `0` is treated as 1.
    pub fn create(path: &Path, sync_every: usize) -> Result<WalWriter, GraphStoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| GraphStoreError::io(path, "create wal", &e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN);
        encode_wal_header(&mut header);
        file.write_all(&header).map_err(|e| GraphStoreError::io(path, "write wal header", &e))?;
        file.sync_all().map_err(|e| GraphStoreError::io(path, "sync wal header", &e))?;
        Ok(WalWriter::new(file, path, sync_every, WAL_HEADER_LEN as u64, 0))
    }

    /// Opens an existing WAL for appending, after decoding what it holds.
    ///
    /// A torn tail is truncated away so appends extend the last whole record;
    /// a missing or header-corrupt file is recreated empty. The decoded
    /// prefix is returned for replay.
    pub fn open_for_append(
        path: &Path,
        sync_every: usize,
    ) -> Result<(WalWriter, WalDecode), GraphStoreError> {
        let bytes = read_if_exists(path, "wal")?;
        let decode = bytes.as_deref().map_or_else(WalDecode::empty, decode_wal_bytes);
        let file_len = match bytes {
            Some(bytes) if decode.valid_len > 0 => bytes.len() as u64,
            _ => return Ok((WalWriter::create(path, sync_every)?, decode)),
        };
        // Append mode: every write lands at the end, which the truncation
        // below moves to the end of the last whole record.
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| GraphStoreError::io(path, "open wal for append", &e))?;
        if decode.valid_len < file_len {
            file.set_len(decode.valid_len)
                .map_err(|e| GraphStoreError::io(path, "truncate torn wal tail", &e))?;
            file.sync_all().map_err(|e| GraphStoreError::io(path, "sync truncated wal", &e))?;
        }
        let writer =
            WalWriter::new(file, path, sync_every, decode.valid_len, decode.records.len() as u64);
        Ok((writer, decode))
    }

    /// Appends one framed record; fsyncs when the batch size is reached.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), GraphStoreError> {
        self.append_batch(record.seq, record.op, &record.edges)
    }

    /// [`WalWriter::append`] from a borrowed batch (the write-ahead path
    /// never owns the edges it logs).
    pub(crate) fn append_batch(
        &mut self,
        seq: u64,
        op: WalOp,
        edges: &[(NodeId, NodeId, Label)],
    ) -> Result<(), GraphStoreError> {
        self.frame.clear();
        encode_frame(&mut self.frame, seq, op, edges);
        self.file
            .write_all(&self.frame)
            .map_err(|e| GraphStoreError::io(&self.path, "append wal record", &e))?;
        self.len += self.frame.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), GraphStoreError> {
        if self.unsynced > 0 {
            self.file.sync_all().map_err(|e| GraphStoreError::io(&self.path, "fsync wal", &e))?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Bytes written so far, header included.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Records in the log (decoded at open plus appended since).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads and decodes a WAL file without opening it for writing.
///
/// A missing file decodes as an empty, clean log.
pub fn read_wal_file(path: &Path) -> Result<WalDecode, GraphStoreError> {
    let bytes = read_if_exists(path, "wal")?;
    Ok(bytes.as_deref().map_or_else(WalDecode::empty, decode_wal_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                seq: 1,
                op: WalOp::Insert,
                edges: vec![(NodeId(0), NodeId(1), Label(3)), (NodeId(1), NodeId(2), Label::ANY)],
            },
            WalRecord { seq: 2, op: WalOp::Delete, edges: vec![(NodeId(0), NodeId(1), Label(3))] },
            WalRecord { seq: 3, op: WalOp::Insert, edges: Vec::new() },
        ]
    }

    fn encode_log(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_wal_header(&mut bytes);
        for r in records {
            r.encode_frame(&mut bytes);
        }
        bytes
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_bytes() {
        let records = sample_records();
        let decode = decode_wal_bytes(&encode_log(&records));
        assert_eq!(decode.records, records);
        assert!(decode.torn.is_none());
        assert_eq!(decode.valid_len, encode_log(&records).len() as u64);
    }

    #[test]
    fn every_truncation_point_recovers_a_whole_record_prefix() {
        let records = sample_records();
        let bytes = encode_log(&records);
        // Frame boundaries: the only cut points where the log decodes clean.
        let mut boundaries = vec![WAL_HEADER_LEN as u64];
        {
            let mut at = WAL_HEADER_LEN as u64;
            for r in &records {
                at += (FRAME_HEADER_LEN + r.encode_payload().len()) as u64;
                boundaries.push(at);
            }
        }
        for cut in 0..=bytes.len() {
            let decode = decode_wal_bytes(&bytes[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count();
            let expect = whole.saturating_sub(1); // header boundary is record 0
            assert_eq!(decode.records.len(), expect, "cut at {cut}");
            assert_eq!(decode.records[..], records[..expect], "cut at {cut}");
            if cut < WAL_HEADER_LEN {
                assert_eq!(decode.valid_len, 0, "cut at {cut}");
            } else {
                assert_eq!(decode.valid_len, boundaries[expect], "cut at {cut}");
            }
            // Clean decode exactly when the cut lands on a frame boundary.
            let at_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(decode.torn.is_none(), at_boundary, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let records = sample_records();
        let clean = encode_log(&records);
        // Frame start offsets, to know which records precede a flipped byte.
        let mut starts = vec![WAL_HEADER_LEN as u64];
        for r in &records {
            let last = *starts.last().unwrap();
            starts.push(last + (FRAME_HEADER_LEN + r.encode_payload().len()) as u64);
        }
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let decode = decode_wal_bytes(&bytes);
                // Records strictly before the flipped frame must survive;
                // the flipped frame and everything after it must be dropped.
                if byte < WAL_HEADER_LEN {
                    assert!(decode.records.is_empty(), "flip {byte}.{bit}");
                } else {
                    let frame = starts.iter().filter(|&&s| s <= byte as u64).count() - 1;
                    assert_eq!(decode.records.len(), frame, "flip {byte}.{bit}");
                    assert_eq!(decode.records[..], records[..frame], "flip {byte}.{bit}");
                    assert!(decode.torn.is_some(), "flip {byte}.{bit}");
                }
            }
        }
    }

    #[test]
    fn writer_appends_and_reopens() {
        let dir = std::env::temp_dir().join(format!("moctopus-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.mwal");
        let records = sample_records();
        {
            let mut w = WalWriter::create(&path, 2).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
            assert_eq!(w.records(), 3);
        }
        // Reopen cleanly, append one more.
        let extra = WalRecord { seq: 4, op: WalOp::Delete, edges: Vec::new() };
        {
            let (mut w, decode) = WalWriter::open_for_append(&path, 1).unwrap();
            assert_eq!(decode.records, records);
            assert!(decode.torn.is_none());
            w.append(&extra).unwrap();
        }
        // Tear the tail and reopen: the torn bytes are truncated away.
        {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
            let (w, decode) = WalWriter::open_for_append(&path, 1).unwrap();
            assert_eq!(decode.records, records);
            assert!(decode.torn.is_some());
            assert_eq!(w.len_bytes(), decode.valid_len);
        }
        let decode = read_wal_file(&path).unwrap();
        assert_eq!(decode.records, records);
        assert!(decode.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_wal_reads_as_empty() {
        let path = std::env::temp_dir().join("moctopus-wal-definitely-missing.mwal");
        let decode = read_wal_file(&path).unwrap();
        assert!(decode.records.is_empty());
        assert!(decode.torn.is_none());
    }
}
