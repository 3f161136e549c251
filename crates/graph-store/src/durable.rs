//! Durable store façade: generation-numbered snapshot + WAL pairs behind an
//! atomically updated manifest.
//!
//! On-disk layout inside the store directory:
//!
//! ```text
//! MANIFEST                  current generation (text, rewritten atomically)
//! snapshot-<g>.msnp         full engine image for generation g (g >= 1)
//! wal-<g>.mwal              updates appended since snapshot g
//! ```
//!
//! Generation 0 has no snapshot — the WAL alone replays onto a freshly built
//! engine. [`DurableStore::rotate`] advances the generation: it writes the
//! new snapshot (tmp + fsync + rename), starts an empty WAL, and only then
//! flips the manifest — a crash at any point leaves the previous generation
//! fully intact, so recovery never sees a half-written generation. Old
//! generation files are deleted best-effort after the flip.
//!
//! [`DurableStore::open`] performs recovery: it reads the manifest, loads the
//! generation's snapshot (checksum-verified), decodes the WAL tolerating a
//! torn tail (truncating it away so appends resume cleanly), and returns the
//! snapshot plus the WAL records that post-date it — duplicate records at or
//! below the snapshot's sequence number are filtered, making replay
//! idempotent.

use crate::bytes::{read_if_exists, write_atomic};
use crate::error::GraphStoreError;
use crate::ids::{Label, NodeId};
use crate::snapshot::SnapshotState;
use crate::wal::{TornTail, WalOp, WalRecord, WalWriter};
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// First line of every manifest, identifying format and version.
pub const MANIFEST_HEADER: &str = "moctopus-durable v1";

/// What [`DurableStore::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState {
    /// The current generation's snapshot, if the generation has one.
    pub snapshot: Option<SnapshotState>,
    /// WAL records to replay on top of the snapshot, in log order, already
    /// filtered to `seq > snapshot.last_seq`.
    pub records: Vec<WalRecord>,
    /// `Some` if the WAL ended in a torn or corrupted tail (now truncated).
    pub torn: Option<TornTail>,
    /// The generation that was recovered.
    pub generation: u64,
}

impl RecoveredState {
    /// Highest sequence number recovered (snapshot or WAL), 0 if none.
    pub fn last_seq(&self) -> u64 {
        self.records
            .last()
            .map(|r| r.seq)
            .or_else(|| self.snapshot.as_ref().map(|s| s.last_seq))
            .unwrap_or(0)
    }
}

/// File-backed durability for one engine: a snapshot + WAL generation pair.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    generation: u64,
    wal: WalWriter,
    sync_every: usize,
}

/// Path of generation `generation`'s snapshot file inside `dir`.
pub fn generation_snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:08}.msnp"))
}

/// Path of generation `generation`'s WAL file inside `dir`.
pub fn generation_wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:08}.mwal"))
}

/// Flips the manifest to `generation`. The atomic write's directory fsync
/// also persists the snapshot and WAL files created before it.
fn write_manifest(dir: &Path, generation: u64) -> Result<(), GraphStoreError> {
    let contents = format!("{MANIFEST_HEADER}\ngeneration {generation}\n");
    write_atomic(&dir.join(MANIFEST_NAME), contents.as_bytes(), "manifest")
}

/// The generation the directory's manifest currently names, or `None` if the
/// directory has never been initialised. Lets external tooling (the serve
/// crash smoke, CI) locate the live WAL without opening the store.
///
/// # Errors
///
/// An unreadable manifest is an I/O error; a malformed one is
/// [`GraphStoreError::Corrupt`].
pub fn current_generation(dir: &Path) -> Result<Option<u64>, GraphStoreError> {
    let path = dir.join(MANIFEST_NAME);
    let Some(bytes) = read_if_exists(&path, "manifest")? else { return Ok(None) };
    let text = std::str::from_utf8(&bytes).map_err(|e| {
        GraphStoreError::corrupt(&path, e.valid_up_to() as u64, 0, "manifest is not UTF-8")
    })?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(GraphStoreError::corrupt(&path, 0, 0, "bad manifest header"));
    }
    let gen_line = lines
        .next()
        .ok_or_else(|| GraphStoreError::corrupt(&path, 0, 1, "missing generation line"))?;
    let generation = gen_line
        .strip_prefix("generation ")
        .and_then(|g| g.parse::<u64>().ok())
        .ok_or_else(|| GraphStoreError::corrupt(&path, 0, 1, "malformed generation line"))?;
    Ok(Some(generation))
}

impl DurableStore {
    /// Opens (or initialises) a store directory and recovers its contents.
    ///
    /// `sync_every` is the WAL fsync batch size (1 = fsync every record).
    /// A fresh directory starts at generation 0 with an empty WAL and no
    /// snapshot; an existing one is recovered as described in the
    /// [module docs](self).
    ///
    /// # Errors
    ///
    /// I/O failures and a corrupt manifest or snapshot are reported with
    /// path/offset context; a torn WAL tail is *not* an error — it is
    /// truncated and reported in [`RecoveredState::torn`].
    pub fn open(
        dir: &Path,
        sync_every: usize,
    ) -> Result<(DurableStore, RecoveredState), GraphStoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| GraphStoreError::io(dir, "create store directory", &e))?;
        let generation = match current_generation(dir)? {
            Some(generation) => generation,
            None => {
                write_manifest(dir, 0)?;
                0
            }
        };
        let snapshot = if generation > 0 {
            Some(SnapshotState::read_file(&generation_snapshot_path(dir, generation))?)
        } else {
            None
        };
        let (wal, decode) =
            WalWriter::open_for_append(&generation_wal_path(dir, generation), sync_every)?;
        let floor = snapshot.as_ref().map(|s| s.last_seq).unwrap_or(0);
        let mut records = decode.records;
        records.retain(|r| r.seq > floor);
        let recovered = RecoveredState { snapshot, records, torn: decode.torn, generation };
        let store = DurableStore { dir: dir.to_path_buf(), generation, wal, sync_every };
        Ok((store, recovered))
    }

    /// Appends one update record to the current WAL (write-ahead: call this
    /// before applying the update to the engine). The batch is borrowed: it
    /// is framed straight into the writer's buffer.
    pub fn append(
        &mut self,
        seq: u64,
        op: WalOp,
        edges: &[(NodeId, NodeId, Label)],
    ) -> Result<(), GraphStoreError> {
        self.wal.append_batch(seq, op, edges)
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), GraphStoreError> {
        self.wal.sync()
    }

    /// Advances to a new generation: persists `snapshot`, starts an empty
    /// WAL, and atomically flips the manifest. See the [module docs](self)
    /// for the crash-safety argument.
    pub fn rotate(&mut self, snapshot: &SnapshotState) -> Result<(), GraphStoreError> {
        let next = self.generation + 1;
        snapshot.write_file(&generation_snapshot_path(&self.dir, next))?;
        let wal = WalWriter::create(&generation_wal_path(&self.dir, next), self.sync_every)?;
        write_manifest(&self.dir, next)?;
        let old = self.generation;
        self.wal = wal;
        self.generation = next;
        // The old generation is unreachable now; reclaim it best-effort.
        let _ = std::fs::remove_file(generation_wal_path(&self.dir, old));
        if old > 0 {
            let _ = std::fs::remove_file(generation_snapshot_path(&self.dir, old));
        }
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records in the current WAL (recovered plus appended since).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Path of the current WAL file (the crash-injection smoke corrupts it).
    pub fn wal_path(&self) -> PathBuf {
        generation_wal_path(&self.dir, self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("moctopus-durable-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(seq: u64, op: WalOp) -> WalRecord {
        WalRecord { seq, op, edges: vec![(NodeId(seq), NodeId(seq + 1), Label(1))] }
    }

    fn append(store: &mut DurableStore, record: &WalRecord) {
        store.append(record.seq, record.op, &record.edges).unwrap();
    }

    #[test]
    fn fresh_open_is_empty_generation_zero() {
        let dir = tmp_dir("fresh");
        let (store, recovered) = DurableStore::open(&dir, 1).unwrap();
        assert_eq!(recovered.generation, 0);
        assert!(recovered.snapshot.is_none());
        assert!(recovered.records.is_empty());
        assert!(recovered.torn.is_none());
        assert_eq!(recovered.last_seq(), 0);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_only_recovery_returns_appended_records() {
        let dir = tmp_dir("walonly");
        {
            let (mut store, _) = DurableStore::open(&dir, 2).unwrap();
            append(&mut store, &rec(1, WalOp::Insert));
            append(&mut store, &rec(2, WalOp::Delete));
            store.sync().unwrap();
        }
        let (_, recovered) = DurableStore::open(&dir, 2).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.records, vec![rec(1, WalOp::Insert), rec(2, WalOp::Delete)]);
        assert_eq!(recovered.last_seq(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_moves_records_into_the_snapshot() {
        let dir = tmp_dir("rotate");
        {
            let (mut store, _) = DurableStore::open(&dir, 1).unwrap();
            append(&mut store, &rec(1, WalOp::Insert));
            let snap = SnapshotState { last_seq: 1, ..SnapshotState::default() };
            store.rotate(&snap).unwrap();
            assert_eq!(store.generation(), 1);
            append(&mut store, &rec(2, WalOp::Insert));
            // Double rotation: generation 2 folds record 2 in as well.
            let snap = SnapshotState { last_seq: 2, ..SnapshotState::default() };
            store.rotate(&snap).unwrap();
            append(&mut store, &rec(3, WalOp::Insert));
            store.sync().unwrap();
        }
        let (store, recovered) = DurableStore::open(&dir, 1).unwrap();
        assert_eq!(recovered.generation, 2);
        assert_eq!(recovered.snapshot.as_ref().unwrap().last_seq, 2);
        assert_eq!(recovered.records, vec![rec(3, WalOp::Insert)]);
        // Old generation files were reclaimed.
        assert!(!generation_snapshot_path(store.dir(), 1).exists());
        assert!(!generation_wal_path(store.dir(), 0).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_replay_is_filtered_against_the_snapshot() {
        let dir = tmp_dir("dupes");
        {
            let (mut store, _) = DurableStore::open(&dir, 1).unwrap();
            let snap = SnapshotState { last_seq: 5, ..SnapshotState::default() };
            store.rotate(&snap).unwrap();
            // Simulate a writer that re-appended already-snapshotted records.
            for seq in [4, 5, 6, 7] {
                append(&mut store, &rec(seq, WalOp::Insert));
            }
            store.sync().unwrap();
        }
        let (_, recovered) = DurableStore::open(&dir, 1).unwrap();
        let seqs: Vec<u64> = recovered.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_survives_reopen() {
        let dir = tmp_dir("torn");
        {
            let (mut store, _) = DurableStore::open(&dir, 1).unwrap();
            append(&mut store, &rec(1, WalOp::Insert));
            append(&mut store, &rec(2, WalOp::Insert));
            store.sync().unwrap();
        }
        // Crash mid-append: garbage half-frame at the tail.
        let wal = generation_wal_path(&dir, 0);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&wal, &bytes).unwrap();

        let (mut store, recovered) = DurableStore::open(&dir, 1).unwrap();
        assert_eq!(recovered.records.len(), 2);
        assert!(recovered.torn.is_some());
        // The tail was truncated: appending now yields a clean log.
        append(&mut store, &rec(3, WalOp::Insert));
        store.sync().unwrap();
        drop(store);
        let (_, recovered) = DurableStore::open(&dir, 1).unwrap();
        assert_eq!(recovered.records.len(), 3);
        assert!(recovered.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_data_loss() {
        let dir = tmp_dir("badmanifest");
        {
            let (mut store, _) = DurableStore::open(&dir, 1).unwrap();
            append(&mut store, &rec(1, WalOp::Insert));
        }
        std::fs::write(dir.join(MANIFEST_NAME), b"not a manifest\n").unwrap();
        let err = DurableStore::open(&dir, 1).unwrap_err();
        assert!(matches!(err, GraphStoreError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
