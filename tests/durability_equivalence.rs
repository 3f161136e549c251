//! Durable-storage equivalence: the crash-recovery contract of the
//! snapshot + WAL plane (`graph_store::{snapshot, wal, durable}` behind
//! `moctopus_server::DurableEngine`), proven by interleaving random labelled
//! updates with snapshot rotations, clean reopens, and injected crashes on
//! all three engines.
//!
//! The contract under test (STORAGE.md):
//!
//! * **Bit-identity** — after any reopen (clean or post-crash), the recovered
//!   engine answers every future query and update byte-identically — results,
//!   stats, and dependency footprints — to a mirror engine that never went
//!   through disk.
//! * **Torn-tail tolerance** — a crash may tear the WAL tail at *any* byte
//!   boundary or flip any bit; recovery lands on exactly the longest prefix
//!   of whole, checksummed records, never on garbage.
//! * **Idempotence** — records already folded into a snapshot are skipped on
//!   replay (sequence numbers, not file positions, decide).

use graph_store::wal::{decode_wal_bytes, WalOp, WalRecord, WalWriter};
use graph_store::{GraphStoreError, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use moctopus_server::{DurabilityOptions, DurableEngine};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory per scenario, so parallel tests never collide.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("moctopus-durability-eq-{tag}-{}-{n}", std::process::id()))
}

const ENGINE_KINDS: usize = 3;

/// A fresh engine of the given kind, on the shared small test configuration.
fn fresh_engine(kind: usize) -> Box<dyn GraphEngine + Send> {
    let cfg = MoctopusConfig::small_test();
    match kind {
        0 => Box::new(MoctopusSystem::new(cfg)),
        1 => Box::new(PimHashSystem::new(cfg)),
        _ => Box::new(HostBaseline::new(cfg)),
    }
}

/// Asserts two engines are observationally bit-identical: edge count, k-hop
/// results + stats, and RPQ results + stats + dependency footprints.
fn assert_states_match(a: &mut dyn GraphEngine, b: &mut dyn GraphEngine, ctx: &str) {
    assert_eq!(a.edge_count(), b.edge_count(), "{ctx}: edge count diverged");
    let sources: Vec<NodeId> = (0..24u64).map(NodeId).collect();
    let (ra, sa) = a.k_hop_batch(&sources, 3);
    let (rb, sb) = b.k_hop_batch(&sources, 3);
    assert_eq!(ra, rb, "{ctx}: k-hop results diverged");
    assert_eq!(sa, sb, "{ctx}: k-hop stats diverged");
    for text in ["1/(2|3)*", ".{2}", "1+"] {
        let expr = rpq::parser::parse(text).expect("probe query must parse");
        let (ra, sa, da) = a.rpq_batch_tracked(&expr, &sources);
        let (rb, sb, db) = b.rpq_batch_tracked(&expr, &sources);
        assert_eq!(ra, rb, "{ctx}: rpq {text:?} results diverged");
        assert_eq!(sa, sb, "{ctx}: rpq {text:?} stats diverged");
        assert_eq!(da, db, "{ctx}: rpq {text:?} dependency footprints diverged");
    }
}

/// One step of a random durability scenario.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of labelled edges (applied to live and mirror alike).
    Insert(Vec<(u64, u64, u16)>),
    /// Delete a batch (random, so most deletes are no-ops — exercising the
    /// applied/ignored accounting surviving recovery).
    Delete(Vec<(u64, u64, u16)>),
    /// Checkpoint into a fresh snapshot generation + empty WAL.
    Rotate,
    /// Clean shutdown and reopen from disk.
    Reopen,
    /// Crash: drop the engine, scribble garbage on the WAL tail, reopen.
    Crash(Vec<u8>),
}

fn edges_of(raw: &[(u64, u64, u16)]) -> Vec<(NodeId, NodeId, Label)> {
    raw.iter().map(|&(s, d, l)| (NodeId(s), NodeId(d), Label(l))).collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let edge = (0..48u64, 0..48u64, 1..4u16);
    let batch = prop::collection::vec(edge, 1..6);
    prop_oneof![
        5 => batch.clone().prop_map(Op::Insert),
        2 => batch.prop_map(Op::Delete),
        1 => (0..1u8).prop_map(|_| Op::Rotate),
        1 => (0..1u8).prop_map(|_| Op::Reopen),
        1 => prop::collection::vec(0..255u8, 1..24).prop_map(Op::Crash),
    ]
}

/// Drives one op sequence against a durable engine and an in-memory mirror,
/// demanding bit-identity after every reopen and crash.
fn run_scenario(kind: usize, ops: &[Op], dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
    let mut live = DurableEngine::open(fresh_engine(kind), dir, options)
        .expect("fresh durable store must open");
    let mut mirror = fresh_engine(kind);
    let mut updates = 0u64;

    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(raw) => {
                let edges = edges_of(raw);
                let a = live.insert_labeled_edges(&edges);
                let b = mirror.insert_labeled_edges(&edges);
                assert_eq!(a, b, "step {step}: insert stats diverged");
                updates += 1;
            }
            Op::Delete(raw) => {
                let edges = edges_of(raw);
                let a = live.delete_labeled_edges(&edges);
                let b = mirror.delete_labeled_edges(&edges);
                assert_eq!(a, b, "step {step}: delete stats diverged");
                updates += 1;
            }
            Op::Rotate => {
                live.rotate().expect("rotation must succeed");
                assert_eq!(live.wal_records(), 0, "step {step}: rotation must empty the WAL");
            }
            Op::Reopen => {
                drop(live);
                live = DurableEngine::open(fresh_engine(kind), dir, options)
                    .expect("clean reopen must succeed");
                let report = live.report();
                assert!(!report.torn_tail, "step {step}: clean shutdown left a torn tail");
                assert_eq!(report.last_seq, updates, "step {step}: sequence numbers drifted");
                assert_states_match(&mut live, mirror.as_mut(), &format!("step {step} reopen"));
            }
            Op::Crash(garbage) => {
                drop(live);
                let generation = graph_store::current_generation(dir).ok().flatten().unwrap_or(0);
                let wal = graph_store::generation_wal_path(dir, generation);
                {
                    use std::io::Write;
                    let mut file = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&wal)
                        .expect("WAL file must exist");
                    file.write_all(garbage).expect("crash injection write");
                }
                live = DurableEngine::open(fresh_engine(kind), dir, options)
                    .expect("post-crash reopen must succeed");
                let report = live.report();
                assert!(report.torn_tail, "step {step}: injected garbage went undetected");
                assert_eq!(
                    report.last_seq, updates,
                    "step {step}: crash lost an acknowledged update (or surfaced garbage)"
                );
                assert_states_match(&mut live, mirror.as_mut(), &format!("step {step} crash"));
            }
        }
    }

    // Final clean reopen: whatever the sequence did, the disk state must
    // reconstruct the mirror exactly.
    drop(live);
    let mut back =
        DurableEngine::open(fresh_engine(kind), dir, options).expect("final reopen must succeed");
    assert_eq!(back.report().last_seq, updates);
    assert_states_match(&mut back, mirror.as_mut(), "final reopen");
    let _ = std::fs::remove_dir_all(dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of updates, rotations, reopens and crashes keep
    /// every engine bit-identical to its never-persisted mirror.
    #[test]
    fn recovery_is_bit_identical_under_random_interleavings(
        ops in prop::collection::vec(op_strategy(), 1..32),
        kind in 0..ENGINE_KINDS,
    ) {
        let dir = scratch_dir("prop");
        run_scenario(kind, &ops, &dir);
    }
}

/// Applies WAL records to an engine the way recovery does.
fn replay(engine: &mut dyn GraphEngine, records: &[WalRecord]) {
    for record in records {
        match record.op {
            WalOp::Insert => {
                engine.insert_labeled_edges(&record.edges);
            }
            WalOp::Delete => {
                engine.delete_labeled_edges(&record.edges);
            }
        }
    }
}

/// The crash-injection matrix: truncate the WAL at **every** byte boundary
/// and flip sampled bits; recovery must always land on exactly the longest
/// prefix of whole records — verified against a mirror replaying that
/// prefix — and never panic or surface garbage.
#[test]
fn crash_injection_matrix_recovers_every_prefix() {
    let dir = scratch_dir("matrix");
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };

    // Build a WAL of six update batches of varied shapes (no rotation, so
    // the WAL is the whole history and every cut point is meaningful).
    let mut live = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    for step in 0..6u64 {
        let edges: Vec<(NodeId, NodeId, Label)> = (0..=step)
            .map(|i| (NodeId(step * 7 + i), NodeId((step + i) % 20), Label((i % 3) as u16 + 1)))
            .collect();
        if step == 4 {
            live.delete_labeled_edges(&edges);
        } else {
            live.insert_labeled_edges(&edges);
        }
    }
    drop(live);
    let wal_path = graph_store::generation_wal_path(&dir, 0);
    let clean = std::fs::read(&wal_path).expect("WAL must exist");
    let full = decode_wal_bytes(&clean);
    assert_eq!(full.records.len(), 6);
    assert!(full.torn.is_none());

    let check = |bytes: &[u8], ctx: String| {
        std::fs::write(&wal_path, bytes).unwrap();
        let expected = decode_wal_bytes(bytes);
        let mut recovered = DurableEngine::open(fresh_engine(0), &dir, options)
            .unwrap_or_else(|e| panic!("{ctx}: recovery must not fail: {e}"));
        let report = recovered.report();
        assert_eq!(
            report.replayed_records,
            expected.records.len() as u64,
            "{ctx}: replayed record count"
        );
        assert_eq!(report.torn_tail, expected.torn.is_some(), "{ctx}: torn-tail detection");
        let mut mirror = fresh_engine(0);
        replay(mirror.as_mut(), &expected.records);
        assert_states_match(&mut recovered, mirror.as_mut(), &ctx);
    };

    // Every truncation point, including 0 (empty file) and mid-header cuts.
    for cut in 0..=clean.len() {
        check(&clean[..cut], format!("truncate at {cut}"));
    }
    // Sampled bit flips across the whole file (every 5th byte, rolling bit).
    for byte in (0..clean.len()).step_by(5) {
        let mut bytes = clean.clone();
        bytes[byte] ^= 1 << (byte % 8);
        check(&bytes, format!("bit flip at {byte}.{}", byte % 8));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_wal_recovers_to_base() {
    let dir = scratch_dir("empty");
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions::default();
    drop(DurableEngine::open(fresh_engine(0), &dir, options).unwrap());
    let mut back = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    let report = back.report();
    assert_eq!(report.generation, 0);
    assert!(!report.restored_snapshot);
    assert_eq!(report.replayed_records, 0);
    assert!(!report.torn_tail);
    assert_states_match(&mut back, fresh_engine(0).as_mut(), "empty WAL");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_only_recovery_replays_nothing() {
    for kind in 0..ENGINE_KINDS {
        let dir = scratch_dir("snaponly");
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
        let mut live = DurableEngine::open(fresh_engine(kind), &dir, options).unwrap();
        let mut mirror = fresh_engine(kind);
        let edges: Vec<(NodeId, NodeId, Label)> = (0..20u64)
            .map(|i| (NodeId(i), NodeId((i + 1) % 20), Label((i % 3) as u16 + 1)))
            .collect();
        live.insert_labeled_edges(&edges);
        mirror.insert_labeled_edges(&edges);
        live.rotate().unwrap();
        drop(live);

        let mut back = DurableEngine::open(fresh_engine(kind), &dir, options).unwrap();
        let report = back.report();
        assert!(report.restored_snapshot, "kind {kind}: snapshot must restore");
        assert_eq!(report.replayed_records, 0, "kind {kind}: WAL must be empty after rotation");
        assert_eq!(report.last_seq, 1, "kind {kind}");
        assert_states_match(&mut back, mirror.as_mut(), &format!("kind {kind} snapshot-only"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_only_recovery_replays_everything() {
    for kind in 0..ENGINE_KINDS {
        let dir = scratch_dir("walonly");
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
        let mut live = DurableEngine::open(fresh_engine(kind), &dir, options).unwrap();
        let mut mirror = fresh_engine(kind);
        for step in 0..5u64 {
            let edges: Vec<(NodeId, NodeId, Label)> =
                (0..4u64).map(|i| (NodeId(step * 4 + i), NodeId(i), Label(1))).collect();
            live.insert_labeled_edges(&edges);
            mirror.insert_labeled_edges(&edges);
        }
        drop(live);

        let mut back = DurableEngine::open(fresh_engine(kind), &dir, options).unwrap();
        let report = back.report();
        assert!(!report.restored_snapshot, "kind {kind}: no snapshot was ever written");
        assert_eq!(report.replayed_records, 5, "kind {kind}");
        assert_states_match(&mut back, mirror.as_mut(), &format!("kind {kind} WAL-only"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn double_rotation_keeps_only_the_latest_generation() {
    let dir = scratch_dir("doublerot");
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
    let mut live = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    let mut mirror = fresh_engine(0);
    for round in 0..2u64 {
        let edges: Vec<(NodeId, NodeId, Label)> =
            (0..6u64).map(|i| (NodeId(round * 6 + i), NodeId(i), Label(2))).collect();
        live.insert_labeled_edges(&edges);
        mirror.insert_labeled_edges(&edges);
        live.rotate().unwrap();
    }
    assert_eq!(live.generation(), 2);
    drop(live);

    // Generation-0/1 files are superseded and garbage-collected; only the
    // latest snapshot + WAL pair remains.
    assert!(!graph_store::generation_snapshot_path(&dir, 1).exists());
    assert!(!graph_store::generation_wal_path(&dir, 1).exists());
    assert!(graph_store::generation_snapshot_path(&dir, 2).exists());

    let mut back = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    assert_eq!(back.report().generation, 2);
    assert!(back.report().restored_snapshot);
    assert_states_match(&mut back, mirror.as_mut(), "double rotation");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_replay_is_skipped_by_sequence_number() {
    let dir = scratch_dir("dupes");
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
    let mut live = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    let mut mirror = fresh_engine(0);
    let edges: Vec<(NodeId, NodeId, Label)> =
        (0..8u64).map(|i| (NodeId(i), NodeId((i + 1) % 8), Label(1))).collect();
    live.insert_labeled_edges(&edges);
    mirror.insert_labeled_edges(&edges);
    live.rotate().unwrap();
    let generation = live.generation();
    drop(live);

    // Simulate a crash window where a record the snapshot already covers is
    // still sitting in the WAL: append a duplicate of seq 1 with *different*
    // (bogus) edges. Sequence-number idempotence must skip it entirely.
    let wal = graph_store::generation_wal_path(&dir, generation);
    let (mut writer, _) = WalWriter::open_for_append(&wal, 1).unwrap();
    writer
        .append(&WalRecord {
            seq: 1,
            op: WalOp::Insert,
            edges: vec![(NodeId(40), NodeId(41), Label(3))],
        })
        .unwrap();
    writer.sync().unwrap();
    drop(writer);

    let mut back = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    assert_eq!(
        back.report().replayed_records,
        0,
        "a record with seq <= snapshot.last_seq must not replay"
    );
    assert_states_match(&mut back, mirror.as_mut(), "duplicate replay");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-tail recovery reconstructs the **reverse adjacency index**
/// bit-identically, on every engine.
///
/// The scenario stacks all three recovery sources: a snapshot (whose format
/// never carries reverse rows — they are derived data, rebuilt from forward
/// rows on restore), a WAL with post-rotation updates including deletes, and
/// a crash that tears the final record mid-byte. The recovered engine must
/// hold exactly the reverse rows of a mirror that replayed the surviving
/// prefix — verified structurally via `export_rev_rows` and semantically by
/// executing a rare-tail query under the forced bidirectional plan (the one
/// consumer whose answers depend on those rows).
#[test]
fn torn_tail_recovery_rebuilds_reverse_rows_bit_identical() {
    for kind in 0..ENGINE_KINDS {
        let dir = scratch_dir("revrows");
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
        let mut live = DurableEngine::open(fresh_engine(kind), &dir, options).unwrap();
        let mut mirror = fresh_engine(kind);

        // Phase 1 — folded into the snapshot by the rotation: a labelled mesh
        // with a rare label 3 tail so the bidirectional probe has anchors.
        let base: Vec<(NodeId, NodeId, Label)> = (0..40u64)
            .map(|i| (NodeId(i % 20), NodeId((i * 7 + 3) % 20), Label((i % 3) as u16 + 1)))
            .collect();
        live.insert_labeled_edges(&base);
        mirror.insert_labeled_edges(&base);
        live.rotate().expect("rotation must succeed");
        let generation = live.generation();

        // Phase 2 — lives only in the WAL: three more batches (the last one
        // will be torn away and must *not* reach the mirror).
        let batches: Vec<Vec<(NodeId, NodeId, Label)>> = vec![
            (0..10u64).map(|i| (NodeId(20 + i), NodeId(i), Label(3))).collect(),
            base[..8].to_vec(),
            (0..6u64).map(|i| (NodeId(i), NodeId(30 + i), Label(2))).collect(),
        ];
        live.insert_labeled_edges(&batches[0]);
        live.delete_labeled_edges(&batches[1]);
        live.insert_labeled_edges(&batches[2]);
        drop(live);

        // Tear the WAL tail mid-record: cut five bytes off the final record
        // so recovery must land on the two-record prefix.
        let wal_path = graph_store::generation_wal_path(&dir, generation);
        let clean = std::fs::read(&wal_path).expect("WAL must exist");
        let torn = &clean[..clean.len() - 5];
        let surviving = decode_wal_bytes(torn);
        assert!(surviving.torn.is_some(), "kind {kind}: the cut must tear a record");
        assert_eq!(surviving.records.len(), 2, "kind {kind}: two whole records must survive");
        std::fs::write(&wal_path, torn).unwrap();

        let mut recovered = DurableEngine::open(fresh_engine(kind), &dir, options).unwrap();
        assert!(recovered.report().torn_tail, "kind {kind}: torn tail went undetected");
        replay(mirror.as_mut(), &surviving.records);

        // Structural bit-identity: snapshot restore + WAL replay land on the
        // exact reverse rows incremental maintenance built in the mirror.
        let rev = recovered.export_rev_rows();
        assert_eq!(rev, mirror.export_rev_rows(), "kind {kind}: reverse rows diverged");
        assert!(
            rev.iter().any(|(_, row)| !row.is_empty()),
            "kind {kind}: reverse index came back empty — the assertion above proved nothing"
        );

        // The reverse rows are exactly the transpose of the recovered forward
        // edge multiset, independently recomputed from a probe query's answer
        // domain: count entries both ways.
        let rev_entries: usize = rev.iter().map(|(_, row)| row.len()).sum();
        assert_eq!(rev_entries, recovered.edge_count(), "kind {kind}: transpose entry count");

        // Semantic bit-identity: the bidirectional executor walks those rows;
        // rare-tail and closure probes must answer exactly like the mirror.
        let sources: Vec<NodeId> = (0..26u64).map(NodeId).collect();
        for text in ["(1|2)*/3", "1+/3", ".{2}/2"] {
            let expr = rpq::parser::parse(text).expect("probe query must parse");
            let (ra, sa) =
                recovered.rpq_batch_planned(&expr, &sources, rpq::PlanStrategy::Bidirectional);
            let (rb, sb) =
                mirror.rpq_batch_planned(&expr, &sources, rpq::PlanStrategy::Bidirectional);
            assert_eq!(ra, rb, "kind {kind}: bidirectional {text:?} results diverged");
            assert_eq!(sa, sb, "kind {kind}: bidirectional {text:?} stats diverged");
            let (canonical, _) = mirror.rpq_batch(&expr, &sources);
            assert_eq!(ra, canonical, "kind {kind}: bidirectional {text:?} broke byte-identity");
        }
        assert_states_match(&mut recovered, mirror.as_mut(), &format!("kind {kind} rev-rows"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_is_thread_count_invariant() {
    let dir = scratch_dir("threads");
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurabilityOptions { sync_every: 1, rotate_every: 3 };
    let mut live = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    for step in 0..7u64 {
        let edges: Vec<(NodeId, NodeId, Label)> = (0..5u64)
            .map(|i| (NodeId(step * 5 + i), NodeId(i * 3), Label((i % 3) as u16 + 1)))
            .collect();
        live.insert_labeled_edges(&edges);
    }
    drop(live);

    let mut one = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    one.set_threads(1);
    let mut four = DurableEngine::open(fresh_engine(0), &dir, options).unwrap();
    four.set_threads(4);
    assert_states_match(&mut one, &mut four, "threads 1 vs 4");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable image holds the sections of the engine kind that wrote it, so a
/// store written by one kind and opened by another is reported corrupt —
/// never restored as an empty graph (the host baseline reading a PIM image),
/// with hub rows the hash placement never uses (PIM-hash reading a Moctopus
/// image), or without the degree table that times promotions (Moctopus
/// reading a PIM-hash image).
#[test]
fn an_image_written_by_another_engine_kind_is_rejected() {
    // Two hubs past the promotion threshold, plus a labelled ring of chords.
    let mut edges: Vec<(NodeId, NodeId, Label)> =
        (1..=24u64).map(|i| (NodeId(0), NodeId(i), Label(1))).collect();
    edges.extend((1..=20u64).map(|i| (NodeId(7), NodeId(30 + i), Label(2))));
    edges.extend(
        (0..40u64).map(|i| (NodeId(i), NodeId((i * 7 + 3) % 40), Label((i % 3) as u16 + 1))),
    );
    let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test());
    moctopus.insert_labeled_edges(&edges);
    assert_eq!(moctopus.host_row_count(), 2, "both hubs live on the host under Moctopus");

    let options = DurabilityOptions { sync_every: 1, rotate_every: 0 };
    for writer in 0..ENGINE_KINDS {
        let dir = scratch_dir("crosskind");
        let _ = std::fs::remove_dir_all(&dir);
        let mut live = DurableEngine::open(fresh_engine(writer), &dir, options).unwrap();
        live.insert_labeled_edges(&edges);
        live.rotate().expect("rotation must succeed");
        drop(live);
        for reader in (0..ENGINE_KINDS).filter(|&kind| kind != writer) {
            match DurableEngine::open(fresh_engine(reader), &dir, options) {
                Err(GraphStoreError::Corrupt { .. }) => {}
                Err(other) => panic!("kind {writer}'s image under kind {reader}: {other}"),
                Ok(_) => panic!("kind {reader} restored an image written by kind {writer}"),
            }
        }
        // The kind that wrote the image still recovers it.
        let mut back = DurableEngine::open(fresh_engine(writer), &dir, options).unwrap();
        assert!(back.report().restored_snapshot, "kind {writer}: snapshot must restore");
        let mut mirror = fresh_engine(writer);
        mirror.insert_labeled_edges(&edges);
        assert_states_match(&mut back, mirror.as_mut(), &format!("kind {writer} after rejections"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
