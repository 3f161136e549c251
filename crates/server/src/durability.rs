//! WAL-backed durability for a served engine.
//!
//! [`DurableEngine`] wraps any `Box<dyn GraphEngine + Send>` and gives the
//! serving tier a crash-safe storage plane: every update batch is appended to
//! a write-ahead log **before** it is applied to the engine, and the engine's
//! storage plane is periodically checkpointed into a versioned snapshot
//! (`graph_store::durable`). After a crash, [`DurableEngine::open`] restores
//! the last snapshot and replays the surviving WAL suffix, landing on a state
//! that answers every future query and update byte-identically to an engine
//! that never crashed (STORAGE.md walks the recovery invariants).
//!
//! The wrapper composes with the rest of the serving stack by *being* a
//! [`GraphEngine`]: `QueryServer` executes requests serially under its core
//! lock, so the WAL order is exactly the deterministic execution order the
//! concurrent session layer already guarantees — no extra synchronisation is
//! needed for the log to be a faithful update history.
//!
//! Queries forward straight through (they never touch the log); only the four
//! labelled update entry points pay the append. Unlabelled inserts/deletes go
//! through the trait's default materialisation into the labelled paths, so
//! they are logged too.

use graph_store::{DurableStore, GraphStoreError, Label, NodeId, SnapshotState, WalOp};
use moctopus::{GraphEngine, QueryDeps, QueryStats, UpdateFootprint, UpdateStats};
use rpq::RpqExpr;
use std::path::Path;

/// Tunables of the durability plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Fsync the WAL after this many appended records (1 = every record).
    pub sync_every: usize,
    /// Rotate to a fresh snapshot + empty WAL once the current WAL holds this
    /// many records; `0` disables automatic rotation (WAL grows unbounded
    /// until [`DurableEngine::rotate`] is called explicitly).
    pub rotate_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions { sync_every: 8, rotate_every: 0 }
    }
}

/// What [`DurableEngine::open`] found on disk, for deterministic reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot/WAL generation that was opened.
    pub generation: u64,
    /// Whether a snapshot was restored into the engine.
    pub restored_snapshot: bool,
    /// WAL records replayed on top of the snapshot (or the caller's base).
    pub replayed_records: u64,
    /// Whether the WAL ended in a torn or corrupt tail (now truncated away).
    pub torn_tail: bool,
    /// Highest update sequence number recovered; new updates continue above.
    pub last_seq: u64,
}

/// A [`GraphEngine`] whose update history survives crashes.
///
/// See the [module docs](self) for the write-ahead discipline and recovery
/// contract.
///
/// # Panics
///
/// Once open, the wrapper treats WAL I/O failures as fatal: the infallible
/// [`GraphEngine`] update methods panic (with full path context) rather than
/// silently dropping an acknowledged update from the log. Open and rotation
/// errors are returned as [`GraphStoreError`] values.
pub struct DurableEngine {
    engine: Box<dyn GraphEngine + Send>,
    store: DurableStore,
    /// Sequence number of the last logged update; the next batch logs seq + 1.
    seq: u64,
    rotate_every: u64,
    report: RecoveryReport,
}

impl std::fmt::Debug for DurableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine")
            .field("engine", &self.engine.name())
            .field("dir", &self.store.dir())
            .field("generation", &self.store.generation())
            .field("seq", &self.seq)
            .finish()
    }
}

impl DurableEngine {
    /// Opens (or creates) the durable store in `dir` and recovers `engine`
    /// into the last durable state.
    ///
    /// The caller passes the engine *already loaded with the deterministic
    /// base workload* (the serving tier re-derives it from the trace
    /// generator): if a snapshot exists it **replaces** the engine's whole
    /// storage plane, otherwise the WAL suffix replays on top of the base.
    /// Either way the resulting state is the last acknowledged durable state.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from the store, and reports a
    /// snapshot that the engine rejects (written under an incompatible
    /// configuration) as [`GraphStoreError::Corrupt`]. A torn WAL tail is
    /// *not* an error — it is truncated and noted in the
    /// [`RecoveryReport`].
    pub fn open(
        mut engine: Box<dyn GraphEngine + Send>,
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<DurableEngine, GraphStoreError> {
        let (store, recovered) = DurableStore::open(dir, options.sync_every)?;
        let mut restored_snapshot = false;
        if let Some(snapshot) = &recovered.snapshot {
            if !engine.restore_snapshot(snapshot) {
                return Err(GraphStoreError::corrupt(
                    &graph_store::generation_snapshot_path(dir, recovered.generation),
                    0,
                    0,
                    "snapshot rejected by the engine (incompatible configuration)",
                ));
            }
            restored_snapshot = true;
        }
        let replayed_records = recovered.records.len() as u64;
        for record in &recovered.records {
            match record.op {
                WalOp::Insert => {
                    engine.insert_labeled_edges(&record.edges);
                }
                WalOp::Delete => {
                    engine.delete_labeled_edges(&record.edges);
                }
            }
        }
        let last_seq = recovered.last_seq();
        let report = RecoveryReport {
            generation: recovered.generation,
            restored_snapshot,
            replayed_records,
            torn_tail: recovered.torn.is_some(),
            last_seq,
        };
        Ok(DurableEngine {
            engine,
            store,
            seq: last_seq,
            rotate_every: options.rotate_every,
            report,
        })
    }

    /// What recovery found when this wrapper was opened.
    pub fn report(&self) -> RecoveryReport {
        self.report
    }

    /// The current snapshot/WAL generation.
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// Records in the current WAL (recovered plus appended since).
    pub fn wal_records(&self) -> u64 {
        self.store.wal_records()
    }

    /// Sequence number of the last logged update.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Forces every acknowledged update to stable storage.
    pub fn sync(&mut self) -> Result<(), GraphStoreError> {
        self.store.sync()
    }

    /// Checkpoints the engine into a new snapshot generation and starts an
    /// empty WAL. No-op (returning `Ok`) when the wrapped engine does not
    /// support snapshot export — the WAL then remains the full history.
    pub fn rotate(&mut self) -> Result<(), GraphStoreError> {
        let Some(mut snapshot) = self.engine.export_snapshot() else {
            return Ok(());
        };
        snapshot.last_seq = self.seq;
        self.store.rotate(&snapshot)
    }

    /// Write-ahead step shared by the four update entry points: logs the
    /// batch under the next sequence number, then lets the caller apply it.
    fn log_update(&mut self, op: WalOp, edges: &[(NodeId, NodeId, Label)]) {
        self.seq += 1;
        if let Err(e) = self.store.append(self.seq, op, edges) {
            // moctopus-lint: allow(panic-in-lib, reason = "deliberate crash-on-WAL-failure: acknowledging an unlogged update would break the durability contract (STORAGE.md)")
            panic!("WAL append failed, cannot acknowledge update: {e}");
        }
    }

    /// Auto-rotation hook, run after each applied update batch.
    fn maybe_rotate(&mut self) {
        if self.rotate_every > 0 && self.store.wal_records() >= self.rotate_every {
            if let Err(e) = self.rotate() {
                // moctopus-lint: allow(panic-in-lib, reason = "deliberate crash-on-rotation-failure: continuing would let the WAL grow past the configured recovery bound")
                panic!("snapshot rotation failed: {e}");
            }
        }
    }
}

impl GraphEngine for DurableEngine {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn insert_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.log_update(WalOp::Insert, edges);
        let stats = self.engine.insert_labeled_edges(edges);
        self.maybe_rotate();
        stats
    }

    fn delete_labeled_edges(&mut self, edges: &[(NodeId, NodeId, Label)]) -> UpdateStats {
        self.log_update(WalOp::Delete, edges);
        let stats = self.engine.delete_labeled_edges(edges);
        self.maybe_rotate();
        stats
    }

    fn insert_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        self.log_update(WalOp::Insert, edges);
        let out = self.engine.insert_labeled_edges_tracked(edges);
        self.maybe_rotate();
        out
    }

    fn delete_labeled_edges_tracked(
        &mut self,
        edges: &[(NodeId, NodeId, Label)],
    ) -> (UpdateStats, UpdateFootprint) {
        self.log_update(WalOp::Delete, edges);
        let out = self.engine.delete_labeled_edges_tracked(edges);
        self.maybe_rotate();
        out
    }

    fn rpq_batch(&mut self, expr: &RpqExpr, sources: &[NodeId]) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.engine.rpq_batch(expr, sources)
    }

    fn rpq_batch_planned(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
        strategy: rpq::PlanStrategy,
    ) -> (Vec<Vec<NodeId>>, QueryStats) {
        self.engine.rpq_batch_planned(expr, sources, strategy)
    }

    fn rpq_batch_tracked(
        &mut self,
        expr: &RpqExpr,
        sources: &[NodeId],
    ) -> (Vec<Vec<NodeId>>, QueryStats, QueryDeps) {
        self.engine.rpq_batch_tracked(expr, sources)
    }

    fn edge_count(&self) -> usize {
        self.engine.edge_count()
    }

    fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    fn threads(&self) -> usize {
        self.engine.threads()
    }

    fn export_snapshot(&self) -> Option<SnapshotState> {
        self.engine.export_snapshot()
    }

    fn label_stats(&self) -> graph_store::LabelStatsSnapshot {
        self.engine.label_stats()
    }

    fn export_rev_rows(&self) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
        self.engine.export_rev_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moctopus::{MoctopusConfig, MoctopusSystem};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moctopus-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh(dir: &Path, options: DurabilityOptions) -> DurableEngine {
        let engine = MoctopusSystem::new(MoctopusConfig::small_test());
        DurableEngine::open(Box::new(engine), dir, options).unwrap()
    }

    fn ring(n: u64) -> Vec<(NodeId, NodeId, Label)> {
        (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n), Label((i % 3) as u16 + 1))).collect()
    }

    #[test]
    fn updates_survive_reopen_via_wal_replay() {
        let dir = tmp_dir("replay");
        let mut live = fresh(&dir, DurabilityOptions::default());
        live.insert_labeled_edges(&ring(16));
        live.delete_labeled_edges(&ring(16)[..4]);
        let (want, want_stats) = live.k_hop_batch(&[NodeId(4), NodeId(7)], 2);
        let live_edges = live.edge_count();
        live.sync().unwrap();
        drop(live);

        let mut back = fresh(&dir, DurabilityOptions::default());
        assert_eq!(back.report().replayed_records, 2);
        assert!(!back.report().restored_snapshot);
        assert_eq!(back.edge_count(), live_edges);
        let (got, got_stats) = back.k_hop_batch(&[NodeId(4), NodeId(7)], 2);
        assert_eq!(got, want);
        assert_eq!(got_stats, want_stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_rotation_checkpoints_and_empties_the_wal() {
        let dir = tmp_dir("rotate");
        let mut live = fresh(&dir, DurabilityOptions { sync_every: 1, rotate_every: 3 });
        for batch in ring(12).chunks(2) {
            live.insert_labeled_edges(batch);
        }
        assert!(live.generation() >= 1, "rotation must have advanced the generation");
        assert!(live.wal_records() < 3);
        let (want, _) = live.k_hop_batch(&[NodeId(0)], 3);
        drop(live);

        let mut back = fresh(&dir, DurabilityOptions::default());
        assert!(back.report().restored_snapshot);
        let (got, _) = back.k_hop_batch(&[NodeId(0)], 3);
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restore would bypass the log, so a durable engine refuses one: the
    /// engine, and what a reopen recovers, stay the logged history.
    #[test]
    fn restoring_another_image_is_refused() {
        let dir = tmp_dir("restore");
        let mut live = fresh(&dir, DurabilityOptions::default());
        live.insert_labeled_edges(&ring(16));
        let sources = [NodeId(0), NodeId(5)];
        let want = (live.k_hop_batch(&sources, 2), live.edge_count());
        let mut other = MoctopusSystem::new(MoctopusConfig::small_test());
        other.insert_labeled_edges(&ring(5));
        let image = other.export_snapshot().expect("a PIM engine exports its image");
        assert!(!live.restore_snapshot(&image));
        assert_eq!((live.k_hop_batch(&sources, 2), live.edge_count()), want);
        live.sync().unwrap();
        drop(live);

        let mut back = fresh(&dir, DurabilityOptions::default());
        assert_eq!((back.k_hop_batch(&sources, 2), back.edge_count()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incompatible_snapshot_is_rejected_with_context() {
        let dir = tmp_dir("mismatch");
        let mut live = fresh(&dir, DurabilityOptions { sync_every: 1, rotate_every: 1 });
        live.insert_labeled_edges(&ring(4));
        assert!(live.generation() >= 1);
        drop(live);

        // Re-open under a different module count: the snapshot cannot map.
        let mut cfg = MoctopusConfig::small_test();
        cfg.pim.num_modules += 1;
        let engine = MoctopusSystem::new(cfg);
        let err =
            DurableEngine::open(Box::new(engine), &dir, DurabilityOptions::default()).unwrap_err();
        assert!(matches!(err, GraphStoreError::Corrupt { .. }), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
