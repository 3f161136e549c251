//! Pins the update path's simulated costs bit for bit.
//!
//! A seeded labelled churn runs on both PIM engines and on the host baseline
//! through every update entry point and folds what the update path reports — every
//! [`UpdateStats`] timeline's `f64` bits and transfer counters,
//! `requested`/`applied`, every [`UpdateFootprint`], the refinement pass —
//! and what it leaves behind — the snapshot file image, the reverse rows,
//! the label statistics — into checksums. The constants below were computed
//! at the commit *before* the update funnel and the storage plane's maps were
//! rewritten (PR 18) and must never move without a stated reason: nothing
//! else pins the order in which update-side float charges accumulate except
//! the experiment binaries' rounded stdout. The host baseline's constants
//! were computed at the commit before its insert and delete loops became
//! one.

use graph_store::{Label, NodeId};
use moctopus::{
    GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, Phase, PimHashSystem, Timeline,
    UpdateFootprint, UpdateStats,
};

type Edge = (NodeId, NodeId, Label);

/// FNV-1a over 64-bit words: order-sensitive, so a reordered charge shows.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    fn timeline(&mut self, t: &Timeline) {
        for phase in Phase::ALL {
            self.word(t.time(phase).as_nanos().to_bits());
        }
        let x = &t.transfers;
        for w in [
            x.cpu_to_pim_bytes,
            x.pim_to_cpu_bytes,
            x.inter_pim_bytes,
            x.cpu_to_pim_messages,
            x.pim_to_cpu_messages,
            x.inter_pim_messages,
        ] {
            self.word(w);
        }
    }
}

/// The three checksums of one engine's run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    costs: u64,
    footprints: u64,
    state: u64,
}

struct Run {
    costs: Fold,
    footprints: Fold,
}

impl Run {
    fn stats(&mut self, s: UpdateStats) {
        self.costs.timeline(&s.timeline);
        self.costs.word(s.requested as u64);
        self.costs.word(s.applied as u64);
    }

    fn tracked(&mut self, (s, fp): (UpdateStats, UpdateFootprint)) {
        self.stats(s);
        self.footprints.bytes(format!("{fp:?}").as_bytes());
    }
}

/// splitmix64: the churn must not depend on any crate's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn edge(&mut self, nodes: u64) -> Edge {
        // Label 0 is `Label::ANY`, whose bytes are elided on the wire.
        (NodeId(self.below(nodes)), NodeId(self.below(nodes)), Label(self.below(4) as u16))
    }

    fn edges(&mut self, nodes: u64, n: usize) -> Vec<Edge> {
        (0..n).map(|_| self.edge(nodes)).collect()
    }
}

const NODES: u64 = 160;
/// A source no random edge names: its degree is driven by hand.
const HUB: NodeId = NodeId(1_000);

fn unlabelled(edges: &[Edge]) -> Vec<(NodeId, NodeId)> {
    edges.iter().map(|&(s, d, _)| (s, d)).collect()
}

/// The churn. `refine` runs between the two halves (a no-op on PIM-hash and
/// on the host baseline).
fn churn<E: GraphEngine>(engine: &mut E, refine: impl FnOnce(&mut E, &mut Fold)) -> Golden {
    let mut rng = Rng(0x18_5eed);
    let mut run = Run { costs: Fold::new(), footprints: Fold::new() };

    // Fresh inserts (with the duplicates a random stream brings), untracked
    // and tracked, labelled and unlabelled.
    let base = rng.edges(NODES, 700);
    run.stats(engine.insert_labeled_edges(&base[..400]));
    run.tracked(engine.insert_labeled_edges_tracked(&base[400..]));
    run.stats(engine.insert_edges(&unlabelled(&rng.edges(NODES, 120))));
    // Duplicate inserts only.
    run.tracked(engine.insert_labeled_edges_tracked(&base[..64]));
    run.stats(engine.insert_labeled_edges(&base[300..420]));

    // A source driven across the degree-16 promotion in the middle of a
    // batch, with other rows' writes on both sides of the crossing; some of
    // its edges repeat (the degree tracker counts arrivals, not rows).
    let hub_edges: Vec<Edge> =
        (0..24u64).map(|i| (HUB, NodeId((i * 7) % NODES), Label((i % 3) as u16))).collect();
    run.stats(engine.insert_labeled_edges(&hub_edges[..10]));
    let mut crossing = Vec::new();
    for (i, &e) in hub_edges[8..].iter().enumerate() {
        crossing.push(e);
        crossing.push(rng.edge(NODES));
        if i % 3 == 0 {
            // In-edges of the hub: its reverse row moves with it.
            crossing.push((NodeId(rng.below(NODES)), HUB, Label(1)));
        }
    }
    run.tracked(engine.insert_labeled_edges_tracked(&crossing));

    // Deletes: present edges, absent edges, both entry-point flavours.
    run.tracked(engine.delete_labeled_edges_tracked(&base[100..260]));
    run.stats(engine.delete_labeled_edges(&rng.edges(NODES, 90)));
    run.stats(engine.delete_edges(&unlabelled(&base[..40])));
    run.stats(engine.delete_labeled_edges(&base[100..140]));

    refine(engine, &mut run.costs);

    // The same mix again on the refined placement, the hub's row included:
    // fresh, duplicate, present-delete and absent-delete writes.
    let more = rng.edges(NODES, 400);
    run.tracked(engine.insert_labeled_edges_tracked(&more[..250]));
    run.stats(engine.insert_labeled_edges(&more[200..]));
    let hub_more: Vec<Edge> =
        (0..12u64).map(|i| (HUB, NodeId((i * 11) % NODES), Label((i % 4) as u16))).collect();
    run.tracked(engine.insert_labeled_edges_tracked(&hub_more));
    run.stats(engine.insert_labeled_edges(&hub_edges[..6]));
    run.tracked(engine.delete_labeled_edges_tracked(&hub_edges[4..16]));
    run.stats(engine.delete_labeled_edges(&hub_edges[4..10]));
    run.tracked(engine.delete_labeled_edges_tracked(&crossing));
    run.stats(engine.delete_labeled_edges(&more[50..350]));
    run.stats(engine.insert_edges(&unlabelled(&more[..80])));

    let mut state = Fold::new();
    state.word(engine.edge_count() as u64);
    let snapshot = engine.export_snapshot().expect("every engine here exports snapshots");
    state.bytes(&snapshot.encode_file());
    state.bytes(format!("{:?}", engine.export_rev_rows()).as_bytes());
    state.bytes(format!("{:?}", engine.label_stats()).as_bytes());
    Golden { costs: run.costs.0, footprints: run.footprints.0, state: state.0 }
}

fn moctopus(config: MoctopusConfig) -> Golden {
    churn(&mut MoctopusSystem::new(config), |engine, costs| {
        let (report, timeline) = engine.refine_locality();
        costs.timeline(&timeline);
        costs.bytes(format!("{report:?}").as_bytes());
    })
}

fn pim_hash(config: MoctopusConfig) -> Golden {
    churn(&mut PimHashSystem::new(config), |_, _| {})
}

fn host_baseline(config: MoctopusConfig) -> Golden {
    churn(&mut HostBaseline::new(config), |_, _| {})
}

const MOCTOPUS: Golden = Golden {
    costs: 0x9753_a362_52a5_2fb4,
    footprints: 0x1406_af35_2089_d41f,
    state: 0x3b71_3477_4e63_ebcc,
};
const PIM_HASH: Golden = Golden {
    costs: 0x27a3_5e20_93c4_f89d,
    footprints: 0x58cf_36d5_5d2b_b715,
    state: 0x8666_4f60_8c1f_4736,
};
/// `state` moved once, when the baseline's adjacency rows became sorted: it is
/// the fold the commit before that change produces when each exported
/// adjacency row is sorted before `encode_file` (`costs` and `footprints`
/// did not move).
const HOST_BASELINE: Golden = Golden {
    costs: 0x83af_b988_64d4_061c,
    footprints: 0xd1c7_4387_44d8_2f3e,
    state: 0x8d9b_9e76_eb29_f1dd,
};

#[test]
fn moctopus_update_costs_match_the_pinned_checksums() {
    // The default config follows MOCTOPUS_THREADS (CI runs both legs); the
    // explicit counts make the same statement inside one process.
    let base = MoctopusConfig::small_test();
    for config in [base, base.with_threads(1), base.with_threads(4)] {
        assert_eq!(moctopus(config), MOCTOPUS, "threads = {}", config.threads);
    }
}

#[test]
fn pim_hash_update_costs_match_the_pinned_checksums() {
    let base = MoctopusConfig::small_test();
    for config in [base, base.with_threads(1), base.with_threads(4)] {
        assert_eq!(pim_hash(config), PIM_HASH, "threads = {}", config.threads);
    }
}

#[test]
fn host_baseline_update_costs_match_the_pinned_checksums() {
    let base = MoctopusConfig::small_test();
    for config in [base, base.with_threads(1), base.with_threads(4)] {
        assert_eq!(host_baseline(config), HOST_BASELINE, "threads = {}", config.threads);
    }
}

#[test]
fn the_churn_exercises_what_it_claims_to() {
    // Guards the fixture, not the engine: the promotion really happens mid
    // batch, rows really migrate, and both applied and no-op writes occur.
    let mut engine = MoctopusSystem::new(MoctopusConfig::small_test());
    let mut saw_noop = false;
    let mut saw_applied = false;
    let mut rng = Rng(0x18_5eed);
    let base = rng.edges(NODES, 700);
    let s = engine.insert_labeled_edges(&base);
    saw_applied |= s.applied > 0;
    saw_noop |= s.applied < s.requested;
    assert!(saw_applied && saw_noop, "random stream must bring duplicates");
    assert_eq!(engine.host_row_count(), 0, "no random source reaches degree 17 here");
    let hub: Vec<Edge> = (0..24u64).map(|i| (HUB, NodeId((i * 7) % NODES), Label(0))).collect();
    engine.insert_labeled_edges(&hub[..10]);
    assert_eq!(engine.host_row_count(), 0);
    engine.insert_labeled_edges(&hub[8..]);
    assert_eq!(engine.host_row_count(), 1, "the hub crossed the threshold inside the batch");
    let (report, _) = engine.refine_locality();
    assert!(report.migrated > 0, "refinement must move rows for the second half to mean anything");
}
