//! Versioned, checksummed on-disk snapshot of an engine's storage plane.
//!
//! A [`SnapshotState`] is a complete, canonical image of everything an engine
//! needs to resume **bit-identically**: the per-PIM-module local rows, the
//! host-resident heterogeneous rows (slot layout and free lists verbatim —
//! they govern future update behaviour and row-read costs), the raw partition
//! assignment, the degree table, the partitioner's promotion log, and the
//! host baseline's adjacency rows. Engines fill only the sections they own;
//! unused sections stay empty and encode to a handful of bytes.
//!
//! The byte format is hand-rolled little-endian: hash-map
//! iteration order must never leak into the encoding, so every section is
//! strictly ascending by node id, module and adjacency rows are strictly
//! sorted, and only the host rows' slot layout is written as the store holds
//! it. The decoder rejects an image that breaks any of these. The
//! file layout is `[magic "MSNP"][version: u32][payload_len: u64][payload]
//! [crc: u32]` where `crc` is the CRC-32 of the payload — one checksum over
//! the whole image, verified before a single field is trusted. Every field
//! is read through the crate's one checked cursor (`bytes::Reader`), so a
//! malformed image is an `(offset, reason)` error, never a panic.
//!
//! Each module section opens with a tag byte that once announced an MRAM
//! capacity. No engine ever set one, so the encoder writes 0 and the decoder
//! rejects any other value.

use crate::bytes::{put_u16, put_u32, put_u64, write_atomic, DecodeError, Reader};
use crate::error::GraphStoreError;
use crate::heterogeneous::FREE_SLOT;
use crate::ids::{Label, NodeId};
use crate::wal::crc32;
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MSNP";
/// On-disk snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One PIM module's local storage image: rows sorted by id, contents
/// verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocalModuleSnapshot {
    /// `(row id, strictly sorted labelled next-hops)`, sorted by row id.
    pub rows: Vec<(NodeId, Vec<(NodeId, Label)>)>,
}

/// One host-resident heterogeneous row: `cols_vector` slots verbatim (free
/// slots included, as the sentinel id) and the free list in exact pop order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRowSnapshot {
    /// The high-degree row this entry belongs to.
    pub node: NodeId,
    /// The host-side slot array, free-slot sentinels included.
    pub slots: Vec<(NodeId, Label)>,
    /// Free slot positions, in the order the next inserts will pop them.
    pub free: Vec<u64>,
}

/// Complete durable image of one engine's storage plane.
///
/// See the [module docs](self) for what each section captures and why the
/// encoding is canonical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotState {
    /// Sequence number of the last update folded into this snapshot; WAL
    /// records with `seq <= last_seq` are skipped at recovery.
    pub last_seq: u64,
    /// Total directed labelled edges the engine stored at snapshot time.
    pub edge_count: u64,
    /// Per-PIM-module local rows (index = module id).
    pub local_modules: Vec<LocalModuleSnapshot>,
    /// Host heterogeneous rows, sorted by node id.
    pub host_rows: Vec<HostRowSnapshot>,
    /// Raw partition-assignment slots (index = node id).
    pub assignment_slots: Vec<u32>,
    /// Out-degree table, sorted by node id.
    pub degrees: Vec<(NodeId, u64)>,
    /// Promotion log of the greedy-adaptive partitioner, in promotion order.
    pub promotions: Vec<NodeId>,
    /// Host-baseline adjacency rows, strictly ascending by node id, each
    /// strictly sorted; every id is below `adjacency_id_bound`.
    pub adjacency_rows: Vec<(NodeId, Vec<(NodeId, Label)>)>,
    /// The adjacency graph's id bound (one past the largest id ever seen).
    pub adjacency_id_bound: u64,
}

fn put_row(out: &mut Vec<u8>, node: NodeId, hops: &[(NodeId, Label)]) {
    put_u64(out, node.0);
    put_u64(out, hops.len() as u64);
    for &(dst, label) in hops {
        put_u64(out, dst.0);
        put_u16(out, label.0);
    }
}

/// One decoded adjacency row: `(row id, labelled hops)`.
type DecodedRow = (NodeId, Vec<(NodeId, Label)>);

impl Reader<'_> {
    /// One row of a `what` section, whose row ids ascend strictly: `prev`
    /// holds the section's previous id.
    fn row(&mut self, what: &str, prev: &mut Option<NodeId>) -> Result<DecodedRow, DecodeError> {
        let at = self.offset();
        let node = NodeId(self.u64("row id")?);
        if let Some(p) = prev.replace(node).filter(|&p| p >= node) {
            return Err((at, format!("{what} row {} follows row {}", node.0, p.0)));
        }
        let n = self.count(10, "row hops")?;
        let mut hops = Vec::with_capacity(n);
        for _ in 0..n {
            let dst = NodeId(self.u64("hop id")?);
            let label = Label(self.u16("hop label")?);
            hops.push((dst, label));
        }
        Ok((node, hops))
    }

    /// [`Reader::row`] for a section whose rows are strictly sorted.
    fn sorted_row(
        &mut self,
        what: &str,
        prev: &mut Option<NodeId>,
    ) -> Result<DecodedRow, DecodeError> {
        let at = self.offset();
        let (node, hops) = self.row(what, prev)?;
        if !hops.windows(2).all(|w| w[0] < w[1]) {
            return Err((at, format!("{what} row {} is not strictly sorted", node.0)));
        }
        Ok((node, hops))
    }
}

/// The live edges of one host row, or why a store installing it as decoded
/// would panic or overwrite a live edge.
fn host_row_edges(slots: &[(NodeId, Label)], free: &[u64]) -> Result<u64, String> {
    let mut freed = vec![false; slots.len()];
    for &pos in free {
        let Some(seen) = usize::try_from(pos).ok().and_then(|p| freed.get_mut(p)) else {
            return Err(format!("free position {pos} is past its {} slots", slots.len()));
        };
        if std::mem::replace(seen, true) {
            return Err(format!("free position {pos} is listed twice"));
        }
        if slots[pos as usize].0 != FREE_SLOT {
            return Err(format!("free position {pos} holds a live edge"));
        }
    }
    let mut live: Vec<(NodeId, Label)> =
        slots.iter().copied().filter(|&(dst, _)| dst != FREE_SLOT).collect();
    live.sort_unstable();
    match live.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(format!("edge {:?} fills two slots", w[0])),
        None => Ok(live.len() as u64),
    }
}

impl SnapshotState {
    /// Serialises the snapshot payload (no file header or checksum).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.last_seq);
        put_u64(&mut out, self.edge_count);

        put_u64(&mut out, self.local_modules.len() as u64);
        for module in &self.local_modules {
            out.push(0); // capacity tag: none
            put_u64(&mut out, module.rows.len() as u64);
            for (node, hops) in &module.rows {
                put_row(&mut out, *node, hops);
            }
        }

        put_u64(&mut out, self.host_rows.len() as u64);
        for row in &self.host_rows {
            put_row(&mut out, row.node, &row.slots);
            put_u64(&mut out, row.free.len() as u64);
            for &pos in &row.free {
                put_u64(&mut out, pos);
            }
        }

        put_u64(&mut out, self.assignment_slots.len() as u64);
        for &slot in &self.assignment_slots {
            put_u32(&mut out, slot);
        }

        put_u64(&mut out, self.degrees.len() as u64);
        for &(node, degree) in &self.degrees {
            put_u64(&mut out, node.0);
            put_u64(&mut out, degree);
        }

        put_u64(&mut out, self.promotions.len() as u64);
        for &node in &self.promotions {
            put_u64(&mut out, node.0);
        }

        put_u64(&mut out, self.adjacency_rows.len() as u64);
        for (node, hops) in &self.adjacency_rows {
            put_row(&mut out, *node, hops);
        }
        put_u64(&mut out, self.adjacency_id_bound);
        out
    }

    /// Serialises the full snapshot file image: header, payload, checksum.
    pub fn encode_file(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        put_u32(&mut out, crc32(&payload));
        out
    }

    /// Parses a payload produced by [`SnapshotState::encode_payload`].
    ///
    /// Returns `(offset, reason)` on malformed input; counts are sanity-
    /// bounded against the remaining bytes before any allocation.
    pub fn decode_payload(bytes: &[u8]) -> Result<SnapshotState, (u64, String)> {
        let mut r = Reader::new(bytes);
        let last_seq = r.u64("last_seq")?;
        let edge_count = r.u64("edge_count")?;

        let n_modules = r.count(9, "local modules")?;
        let mut local_modules = Vec::with_capacity(n_modules);
        for _ in 0..n_modules {
            let tag_at = r.offset();
            let tag = r.u8("capacity tag")?;
            if tag != 0 {
                return Err((tag_at, format!("module names an MRAM capacity (tag {tag})")));
            }
            let n_rows = r.count(16, "module rows")?;
            let mut rows = Vec::with_capacity(n_rows);
            let mut prev = None;
            for _ in 0..n_rows {
                rows.push(r.sorted_row("module", &mut prev)?);
            }
            local_modules.push(LocalModuleSnapshot { rows });
        }

        let n_host = r.count(24, "host rows")?;
        let mut host_rows = Vec::with_capacity(n_host);
        let mut host_edges = 0u64;
        let mut prev = None;
        for _ in 0..n_host {
            let at = r.offset();
            let (node, slots) = r.row("host", &mut prev)?;
            let n_free = r.count(8, "free list")?;
            let mut free = Vec::with_capacity(n_free);
            for _ in 0..n_free {
                free.push(r.u64("free slot")?);
            }
            host_edges += host_row_edges(&slots, &free)
                .map_err(|why| (at, format!("host row {}: {why}", node.0)))?;
            host_rows.push(HostRowSnapshot { node, slots, free });
        }

        let n_slots = r.count(4, "assignment slots")?;
        let mut assignment_slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            assignment_slots.push(r.u32("assignment slot")?);
        }

        let n_degrees = r.count(16, "degree entries")?;
        let mut degrees = Vec::with_capacity(n_degrees);
        for _ in 0..n_degrees {
            let node = NodeId(r.u64("degree node")?);
            let degree = r.u64("degree value")?;
            degrees.push((node, degree));
        }

        let n_promotions = r.count(8, "promotions")?;
        let mut promotions = Vec::with_capacity(n_promotions);
        for _ in 0..n_promotions {
            promotions.push(NodeId(r.u64("promotion")?));
        }

        let n_adj = r.count(16, "adjacency rows")?;
        let mut adjacency_rows = Vec::with_capacity(n_adj);
        let mut prev = None;
        for _ in 0..n_adj {
            adjacency_rows.push(r.sorted_row("adjacency", &mut prev)?);
        }
        let bound_at = r.offset();
        let adjacency_id_bound = r.u64("adjacency id bound")?;
        let ids = adjacency_rows.iter().flat_map(|(n, hops)| hops.iter().map(|h| h.0).chain([*n]));
        if let Some(id) = ids.filter(|id| id.0 >= adjacency_id_bound).max() {
            return Err((
                bound_at,
                format!("adjacency id {} is not below the id bound {adjacency_id_bound}", id.0),
            ));
        }

        if r.remaining() != 0 {
            return Err((r.offset(), format!("{} trailing bytes", r.remaining())));
        }
        let row_edges: u64 = local_modules
            .iter()
            .flat_map(|m| &m.rows)
            .chain(&adjacency_rows)
            .map(|(_, hops)| hops.len() as u64)
            .sum();
        let held = row_edges + host_edges;
        if held != edge_count {
            return Err((8, format!("edge_count {edge_count}, but the rows hold {held} edges")));
        }
        Ok(SnapshotState {
            last_seq,
            edge_count,
            local_modules,
            host_rows,
            assignment_slots,
            degrees,
            promotions,
            adjacency_rows,
            adjacency_id_bound,
        })
    }

    /// Parses a full snapshot file image, verifying header and checksum.
    pub fn decode_file(bytes: &[u8]) -> Result<SnapshotState, (u64, String)> {
        if bytes.len() < 16 {
            return Err((0, format!("file too short: {} bytes", bytes.len())));
        }
        let mut r = Reader::new(bytes);
        if r.array::<4>("magic")? != SNAPSHOT_MAGIC {
            return Err((0, "bad magic".to_string()));
        }
        let version = r.u32("version")?;
        if version != SNAPSHOT_VERSION {
            return Err((4, format!("unsupported version {version}")));
        }
        let payload_len = r.u64("payload length")?;
        if payload_len != (bytes.len() as u64).saturating_sub(20) {
            return Err((8, format!("payload length {payload_len} vs file {}", bytes.len())));
        }
        let payload = r.take(payload_len as usize, "payload")?;
        let stored = r.u32("crc")?;
        let actual = crc32(payload);
        if stored != actual {
            return Err((
                16 + payload_len,
                format!("crc mismatch: stored {stored:#010x}, computed {actual:#010x}"),
            ));
        }
        SnapshotState::decode_payload(payload).map_err(|(off, why)| (off + 16, why))
    }

    /// Writes the snapshot to `path` atomically: a `.tmp` sibling is written
    /// and fsynced, then renamed over the target and the directory fsynced.
    pub fn write_file(&self, path: &Path) -> Result<(), GraphStoreError> {
        write_atomic(path, &self.encode_file(), "snapshot")
    }

    /// Reads and verifies a snapshot from `path`.
    pub fn read_file(path: &Path) -> Result<SnapshotState, GraphStoreError> {
        let bytes =
            std::fs::read(path).map_err(|e| GraphStoreError::io(path, "read snapshot", &e))?;
        SnapshotState::decode_file(&bytes)
            .map_err(|(offset, why)| GraphStoreError::corrupt(path, offset, 0, &why))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotState {
        SnapshotState {
            last_seq: 42,
            edge_count: 6,
            local_modules: vec![
                LocalModuleSnapshot {
                    rows: vec![
                        (NodeId(1), vec![(NodeId(2), Label(3)), (NodeId(4), Label::ANY)]),
                        (NodeId(7), vec![(NodeId(1), Label::ANY)]),
                    ],
                },
                LocalModuleSnapshot { rows: Vec::new() },
            ],
            host_rows: vec![HostRowSnapshot {
                node: NodeId(9),
                slots: vec![
                    (NodeId(5), Label::ANY),
                    (NodeId(u64::MAX), Label::ANY), // free slot sentinel
                    (NodeId(6), Label(2)),
                ],
                free: vec![1],
            }],
            assignment_slots: vec![0, 1, u32::MAX, u32::MAX - 1],
            degrees: vec![(NodeId(1), 2), (NodeId(9), 17)],
            promotions: vec![NodeId(9)],
            adjacency_rows: vec![(NodeId(0), vec![(NodeId(3), Label::ANY)]), (NodeId(3), vec![])],
            adjacency_id_bound: 10,
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let snap = sample();
        let decoded = SnapshotState::decode_file(&snap.encode_file()).unwrap();
        assert_eq!(decoded, snap);
        let empty = SnapshotState::default();
        assert_eq!(SnapshotState::decode_file(&empty.encode_file()).unwrap(), empty);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let clean = sample().encode_file();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                assert!(
                    SnapshotState::decode_file(&bytes).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let clean = sample().encode_file();
        for cut in 0..clean.len() {
            assert!(SnapshotState::decode_file(&clean[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn implausible_counts_are_rejected_without_allocating() {
        // A payload claiming 2^60 rows must fail fast on the count bound.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0); // last_seq
        put_u64(&mut payload, 0); // edge_count
        put_u64(&mut payload, 1 << 60); // local module count
        let mut file = Vec::new();
        file.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut file, SNAPSHOT_VERSION);
        put_u64(&mut file, payload.len() as u64);
        file.extend_from_slice(&payload);
        put_u32(&mut file, crc32(&payload));
        let err = SnapshotState::decode_file(&file).unwrap_err();
        assert!(err.1.contains("implausible"), "{err:?}");
    }

    #[test]
    fn file_round_trip_is_atomic_and_verified() {
        let dir = std::env::temp_dir().join(format!("moctopus-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.msnp");
        let snap = sample();
        snap.write_file(&path).unwrap();
        assert_eq!(SnapshotState::read_file(&path).unwrap(), snap);
        // Corrupt one byte on disk: the read must fail with context.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = SnapshotState::read_file(&path).unwrap_err();
        assert!(matches!(err, GraphStoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
