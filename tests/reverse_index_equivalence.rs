//! Reverse-index equivalence: the in-adjacency mirror every store carries is
//! **exactly** the transpose of the forward adjacency, under arbitrary
//! labelled churn — and the expression-level reversal that the bidirectional
//! plan relies on really does reverse the language.
//!
//! Three layers of the same invariant:
//!
//! * **Stores** — after any interleaving of labelled inserts, deletes, and
//!   row migrations, `export_rev_rows()` on [`LocalGraphStorage`],
//!   [`HeterogeneousStorage`], and [`AdjacencyGraph`] equals an independently
//!   computed transpose of the forward rows, entry for entry; reverse-entry
//!   counts and mirrored-byte accounting follow the same ledger; and the
//!   per-label distinct-target statistics (exact since the reverse index
//!   exists) match a brute-force recount. A scripted prelude
//!   (`scripted_steps`) drives the label transitions the row tables detect
//!   from the row itself, with a recount after every step.
//! * **Expressions** — [`RpqExpr::reverse`] is an involution, commutes with
//!   normalization, and evaluating `e` forward agrees pair-for-pair with
//!   evaluating `e.reverse()` on the transposed graph (the brute-force
//!   [`ReferenceEvaluator`] on both sides).
//!
//! Together these are the soundness base of the bidirectional executor: it
//! walks reverse rows with the reversed expression, so any divergence in
//! either layer would surface as a byte-level answer drift there.

use graph_store::{AdjacencyGraph, HeterogeneousStorage, Label, LocalGraphStorage, NodeId};
use proptest::prelude::*;
use rpq::{LabelSpec, ReferenceEvaluator, RpqExpr};
use std::collections::{BTreeMap, BTreeSet};

/// Ground truth for the churn tests: the exact labelled edge set.
type EdgeSet = BTreeSet<(NodeId, NodeId, Label)>;

/// Deterministic splitmix-style generator so every churn schedule is a pure
/// function of the proptest-sampled seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The transpose of a labelled edge set, in the canonical reverse-row shape:
/// rows ascending by node id, entries strictly sorted.
fn transpose(edges: &EdgeSet) -> Vec<(NodeId, Vec<(NodeId, Label)>)> {
    let mut rows: BTreeMap<NodeId, Vec<(NodeId, Label)>> = BTreeMap::new();
    for &(src, dst, label) in edges {
        rows.entry(dst).or_default().push((src, label));
    }
    rows.into_iter()
        .map(|(n, mut v)| {
            v.sort();
            (n, v)
        })
        .collect()
}

/// Brute-force per-label distinct source/target/edge counts from the edge set.
fn recount(edges: &EdgeSet) -> BTreeMap<Label, (u64, u64, u64)> {
    let mut per: BTreeMap<Label, (BTreeSet<NodeId>, BTreeSet<NodeId>, u64)> = BTreeMap::new();
    for &(src, dst, label) in edges {
        let entry = per.entry(label).or_default();
        entry.0.insert(src);
        entry.1.insert(dst);
        entry.2 += 1;
    }
    per.into_iter().map(|(l, (s, t, e))| (l, (e, s.len() as u64, t.len() as u64))).collect()
}

/// Checks a merged statistics snapshot against the brute-force recount —
/// distinct-target counts must be *exact* now that every reverse row lives in
/// exactly one store.
fn assert_stats_exact(
    snapshot: &graph_store::LabelStatsSnapshot,
    edges: &EdgeSet,
    context: &str,
) -> Result<(), TestCaseError> {
    let want = recount(edges);
    prop_assert_eq!(snapshot.total_edges, edges.len() as u64, "{}: total edges", context);
    for (&label, &(e, s, t)) in &want {
        let c = snapshot.counters(label);
        prop_assert_eq!(c.edges, e, "{}: label {:?} edge count", context, label);
        prop_assert_eq!(c.sources, s, "{}: label {:?} distinct sources", context, label);
        prop_assert_eq!(
            c.targets,
            t,
            "{}: label {:?} distinct targets (must be exact)",
            context,
            label
        );
    }
    prop_assert_eq!(
        snapshot.per_label.iter().filter(|(_, c)| c.edges + c.sources + c.targets > 0).count(),
        want.len(),
        "{}: phantom label entries survived churn",
        context
    );
    Ok(())
}

/// A random labelled edge over a small id space; labels 1..=4 so duplicate
/// hits (the error paths) actually occur.
fn sample_edge(mix: &mut Mix, nodes: u64) -> (NodeId, NodeId, Label) {
    (NodeId(mix.below(nodes)), NodeId(mix.below(nodes)), Label(1 + mix.below(4) as u16))
}

/// Picks the `i`-th edge of the model (deterministic; BTreeSet order).
fn nth_edge(edges: &EdgeSet, i: usize) -> (NodeId, NodeId, Label) {
    *edges.iter().nth(i % edges.len()).expect("nth_edge on non-empty set")
}

/// One churn step against a store under test and the model.
#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(NodeId, NodeId, Label),
    Delete(NodeId, NodeId, Label),
    /// The node's forward and reverse rows leave whole and arrive whole
    /// (`take` then `install`).
    Move(NodeId),
}

/// The transitions a row scan must get right, run on every store before
/// its random churn, each followed by an exact statistics check. Node ids
/// stay below 8, the smallest churn id space.
fn scripted_steps() -> Vec<Step> {
    use Step::{Delete, Insert, Move};
    let n = NodeId;
    let (any, one, two, three) = (Label::ANY, Label(1), Label(2), Label(3));
    vec![
        // The same pair under two labels.
        Insert(n(0), n(1), one),
        Insert(n(0), n(1), two),
        // Row 0 holds label 1 three times.
        Insert(n(0), n(2), one),
        Insert(n(0), n(3), one),
        // Row 0 loses its last label-2 edge while label 1 remains.
        Delete(n(0), n(1), two),
        // Row 3 keeps an ANY edge throughout, so a row that still counts
        // for ANY after losing its last live ANY entry shows as a source.
        Insert(n(3), n(0), any),
        // Row 2: a free slot between two ANY entries, then free ANY-marked
        // slots and no live ANY entry, then a first live ANY entry again.
        Insert(n(2), n(4), any),
        Insert(n(2), n(5), three),
        Insert(n(2), n(6), any),
        Delete(n(2), n(5), three),
        Delete(n(2), n(4), any),
        Insert(n(2), n(7), three),
        Delete(n(2), n(6), any),
        Insert(n(2), n(1), any),
        // The same between two label-1 entries of row 3.
        Insert(n(3), n(4), one),
        Insert(n(3), n(5), two),
        Insert(n(3), n(6), one),
        Delete(n(3), n(5), two),
        Delete(n(3), n(4), one),
        // Whole rows holding one label several times move: forward row 0
        // (label 1 three times), reverse row 1 (label 1 from 0 and 3).
        Insert(n(3), n(1), one),
        Move(n(0)),
        Move(n(1)),
        // Label 6 reaches node 5 from node 4; where 4 and 5 live apart, the
        // store holding 5 sees the label in its reverse rows only.
        Insert(n(4), n(5), Label(6)),
    ]
}

/// Applies `step` to two local segments under the engine's mirror
/// discipline (forward row at `owner(src)`, reverse row at `owner(dst)`,
/// both migrating together) and to the model.
fn local_step(
    segments: &mut [LocalGraphStorage; 2],
    owner: &mut [usize],
    model: &mut EdgeSet,
    step: Step,
) -> Result<(), TestCaseError> {
    match step {
        // Duplicates must be reported unchanged on *both* sides.
        Step::Insert(s, d, l) => {
            let (_, fwd) = segments[owner[s.0 as usize]].insert_edge(s, d, l);
            let (_, rev) = segments[owner[d.0 as usize]].insert_rev_edge(d, s, l);
            if model.insert((s, d, l)) {
                prop_assert!(fwd && rev, "fresh edge rejected");
            } else {
                prop_assert!(!fwd && !rev, "duplicate accepted");
            }
        }
        Step::Delete(s, d, l) => {
            let (_, fwd) = segments[owner[s.0 as usize]].remove_edge(s, d, l);
            let (_, rev) = segments[owner[d.0 as usize]].remove_rev_edge(d, s, l);
            if model.remove(&(s, d, l)) {
                prop_assert!(fwd && rev, "stored edge not removed");
            } else {
                prop_assert!(!fwd && !rev, "absent edge removed");
            }
        }
        Step::Move(n) => {
            let from = owner[n.0 as usize];
            let to = 1 - from;
            if let Some(row) = segments[from].take_row(n) {
                segments[to].install_row(n, row);
            }
            if let Some(rev) = segments[from].take_rev_row(n) {
                segments[to].install_rev_row(n, rev);
            }
            owner[n.0 as usize] = to;
        }
    }
    Ok(())
}

/// Applies `step` to a host store holding both directions and to the
/// model; a move demotes the row and promotes it again.
fn hetero_step(
    store: &mut HeterogeneousStorage,
    model: &mut EdgeSet,
    step: Step,
) -> Result<(), TestCaseError> {
    match step {
        Step::Insert(s, d, l) => {
            let changed = store.insert_edge(s, d, l).changed;
            prop_assert_eq!(changed, model.insert((s, d, l)));
            if changed {
                prop_assert!(store.insert_rev_edge(d, s, l).1, "mirror of a fresh edge");
            }
        }
        Step::Delete(s, d, l) => {
            let changed = store.delete_edge(s, d, l).changed;
            prop_assert_eq!(changed, model.remove(&(s, d, l)));
            if changed {
                prop_assert!(store.remove_rev_edge(d, s, l).1, "mirrored entry");
            }
        }
        Step::Move(n) => {
            if let Some(row) = store.take_row(n) {
                store.install_row(n, row);
            }
            if let Some(rev) = store.take_rev_row(n) {
                store.install_rev_row(n, rev);
            }
        }
    }
    Ok(())
}

/// Applies `step` to the whole-graph view and to the model. The graph has
/// no row hand-over, so a move rebuilds it from its exported rows.
fn adjacency_step(
    g: &mut AdjacencyGraph,
    model: &mut EdgeSet,
    step: Step,
) -> Result<(), TestCaseError> {
    match step {
        Step::Insert(s, d, l) => prop_assert_eq!(g.insert_edge(s, d, l), model.insert((s, d, l))),
        Step::Delete(s, d, l) => prop_assert_eq!(g.remove_edge(s, d, l), model.remove(&(s, d, l))),
        Step::Move(_) => *g = AdjacencyGraph::from_rows(g.export_rows(), g.id_bound()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two [`LocalGraphStorage`] segments behind a parity placement, with the
    /// engine's mirror discipline (forward row at `owner(src)`, reverse row
    /// at `owner(dst)`, both migrating together): after arbitrary insert /
    /// delete / migrate churn, the union of reverse rows is exactly the
    /// transpose of the union of forward rows, the reverse ledger matches,
    /// and the merged statistics are exact.
    #[test]
    fn local_segments_mirror_the_transposed_forward_rows(
        seed in 0u64..10_000,
        nodes in 8u64..24,
        ops in 60usize..160,
    ) {
        let mut mix = Mix(seed);
        let mut segments = [LocalGraphStorage::new(), LocalGraphStorage::new()];
        // owner[n] starts at parity and flips on migration.
        let mut owner: Vec<usize> = (0..nodes).map(|n| (n % 2) as usize).collect();
        let mut model: EdgeSet = BTreeSet::new();

        let merged = |segments: &[LocalGraphStorage; 2]| {
            let mut snapshot = segments[0].label_stats().snapshot();
            snapshot.merge(&segments[1].label_stats().snapshot());
            snapshot
        };
        for (i, step) in scripted_steps().into_iter().enumerate() {
            local_step(&mut segments, &mut owner, &mut model, step)?;
            assert_stats_exact(&merged(&segments), &model, &format!("local step {i} {step:?}"))?;
        }
        // Nodes 4 and 5 start on different segments and never moved.
        let c = segments[owner[5]].label_stats().snapshot().counters(Label(6));
        prop_assert_eq!((c.edges, c.sources, c.targets), (0, 0, 1), "reverse-only label");

        for _ in 0..ops {
            let step = match mix.below(6) {
                0..=2 => {
                    let (s, d, l) = sample_edge(&mut mix, nodes);
                    Step::Insert(s, d, l)
                }
                // Delete an existing edge (or exercise the not-found path).
                3..=4 => {
                    let (s, d, l) = if model.is_empty() || mix.below(8) == 0 {
                        sample_edge(&mut mix, nodes)
                    } else {
                        nth_edge(&model, mix.below(1 << 16) as usize)
                    };
                    Step::Delete(s, d, l)
                }
                // Migrate a node: forward row and reverse row move together
                // (the colocation invariant the engines maintain).
                _ => Step::Move(NodeId(mix.below(nodes))),
            };
            local_step(&mut segments, &mut owner, &mut model, step)?;
        }

        // Union of forward rows across segments == the model.
        let mut forward: EdgeSet = BTreeSet::new();
        for seg in &segments {
            for (src, row) in seg.export_rows() {
                for (dst, label) in row {
                    forward.insert((src, dst, label));
                }
            }
        }
        prop_assert_eq!(&forward, &model, "forward rows drifted from the model");

        // Union of reverse rows == the transpose, and each node's reverse row
        // is colocated with its owner.
        let mut rev_union: Vec<(NodeId, Vec<(NodeId, Label)>)> = Vec::new();
        for (idx, seg) in segments.iter().enumerate() {
            for (dst, row) in seg.export_rev_rows() {
                prop_assert_eq!(
                    owner[dst.0 as usize], idx,
                    "reverse row of {:?} not colocated with its owner", dst
                );
                rev_union.push((dst, row));
            }
        }
        rev_union.sort_by_key(|&(n, _)| n);
        prop_assert_eq!(rev_union, transpose(&model), "reverse rows are not the transpose");

        // Ledger: entry counts and byte accounting stay in lockstep.
        let fwd_edges: usize = segments.iter().map(LocalGraphStorage::edge_count).sum();
        let rev_edges: usize = segments.iter().map(LocalGraphStorage::rev_edge_count).sum();
        prop_assert_eq!(rev_edges, fwd_edges, "mirror entry count diverged");
        prop_assert_eq!(
            segments.iter().map(LocalGraphStorage::rev_bytes).sum::<u64>() == 0,
            model.is_empty(),
            "reverse byte accounting out of step with content"
        );

        // Merged statistics are exact — including distinct targets.
        assert_stats_exact(&merged(&segments), &model, "local segments")?;
    }

    /// [`HeterogeneousStorage`] (the host store behind promotions) under the
    /// same mirror discipline, including its free-list slot reuse: reverse
    /// rows equal the transpose, and the slotted forward representation still
    /// round-trips through `check_invariants`.
    #[test]
    fn heterogeneous_store_mirrors_the_transposed_forward_rows(
        seed in 0u64..10_000,
        nodes in 8u64..24,
        ops in 60usize..160,
    ) {
        let mut mix = Mix(seed);
        let mut store = HeterogeneousStorage::new();
        let mut model: EdgeSet = BTreeSet::new();

        for (i, step) in scripted_steps().into_iter().enumerate() {
            hetero_step(&mut store, &mut model, step)?;
            let context = format!("host step {i} {step:?}");
            assert_stats_exact(&store.label_stats().snapshot(), &model, &context)?;
        }
        // A reverse-only label: an in-edge whose forward row lives elsewhere.
        prop_assert!(store.insert_rev_edge(NodeId(5), NodeId(4), Label(7)).1, "fresh reverse entry");
        let c = store.label_stats().snapshot().counters(Label(7));
        prop_assert_eq!((c.edges, c.sources, c.targets), (0, 0, 1), "reverse-only label");
        prop_assert!(store.remove_rev_edge(NodeId(5), NodeId(4), Label(7)).1, "stored reverse entry");

        for _ in 0..ops {
            let step = if mix.below(2) == 0 || model.is_empty() {
                let (s, d, l) = sample_edge(&mut mix, nodes);
                Step::Insert(s, d, l)
            } else {
                let (s, d, l) = nth_edge(&model, mix.below(1 << 16) as usize);
                Step::Delete(s, d, l)
            };
            hetero_step(&mut store, &mut model, step)?;
        }

        store.check_invariants().expect("slot maps stay consistent");
        let mut forward: EdgeSet = BTreeSet::new();
        for (src, row) in store.iter() {
            for (dst, label) in row {
                forward.insert((src, dst, label));
            }
        }
        prop_assert_eq!(&forward, &model, "live slots drifted from the model");
        prop_assert_eq!(
            store.export_rev_rows(),
            transpose(&model),
            "reverse rows are not the transpose"
        );
        prop_assert_eq!(store.rev_edge_count(), model.len());
        assert_stats_exact(&store.label_stats().snapshot(), &model, "heterogeneous store")?;
    }

    /// [`AdjacencyGraph`] maintains its own transpose on the plain
    /// insert/delete path, and `from_rows` (the snapshot-restore path)
    /// re-derives an identical reverse side *and* identical statistics.
    #[test]
    fn adjacency_graph_maintains_its_own_transpose(
        seed in 0u64..10_000,
        nodes in 8u64..32,
        ops in 60usize..200,
    ) {
        let mut mix = Mix(seed);
        let mut g = AdjacencyGraph::new();
        let mut model: EdgeSet = BTreeSet::new();

        for (i, step) in scripted_steps().into_iter().enumerate() {
            adjacency_step(&mut g, &mut model, step)?;
            let context = format!("graph step {i} {step:?}");
            assert_stats_exact(&g.label_stats().snapshot(), &model, &context)?;
        }
        for _ in 0..ops {
            let step = if mix.below(3) > 0 || model.is_empty() {
                let (s, d, l) = sample_edge(&mut mix, nodes);
                Step::Insert(s, d, l)
            } else {
                let (s, d, l) = nth_edge(&model, mix.below(1 << 16) as usize);
                Step::Delete(s, d, l)
            };
            adjacency_step(&mut g, &mut model, step)?;
        }

        prop_assert_eq!(g.export_rev_rows(), transpose(&model));
        assert_stats_exact(&g.label_stats().snapshot(), &model, "adjacency graph")?;
        for &(_, dst, _) in &model {
            let row = g.in_neighbors(dst);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "in-row not strictly sorted");
        }

        // Snapshot-restore: the reverse side is derived data and must come
        // back bit-identical from forward rows alone.
        let restored = AdjacencyGraph::from_rows(g.export_rows(), g.id_bound());
        prop_assert_eq!(restored.export_rev_rows(), g.export_rev_rows());
        prop_assert_eq!(restored.label_stats().snapshot(), g.label_stats().snapshot());
    }
}

/// Random RPQ expressions over labels 1..=4 (matching the churn alphabet),
/// with the occasional any-label atom.
struct ArbExpr;

impl Strategy for ArbExpr {
    type Value = RpqExpr;

    fn sample(&self, rng: &mut TestRng) -> RpqExpr {
        sample_expr(rng, 3)
    }
}

fn sample_expr(rng: &mut TestRng, depth: u32) -> RpqExpr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(7) == 0 {
            RpqExpr::Atom(LabelSpec::Any)
        } else {
            RpqExpr::Atom(LabelSpec::Exact(Label(1 + rng.below(4) as u16)))
        };
    }
    match rng.below(6) {
        0 => RpqExpr::Concat((0..2 + rng.below(2)).map(|_| sample_expr(rng, depth - 1)).collect()),
        1 => RpqExpr::Alt((0..2 + rng.below(2)).map(|_| sample_expr(rng, depth - 1)).collect()),
        2 => RpqExpr::Star(Box::new(sample_expr(rng, depth - 1))),
        3 => RpqExpr::Plus(Box::new(sample_expr(rng, depth - 1))),
        4 => RpqExpr::Optional(Box::new(sample_expr(rng, depth - 1))),
        _ => {
            let min = rng.below(3) as usize;
            let max = min + rng.below(3) as usize;
            RpqExpr::Repeat { expr: Box::new(sample_expr(rng, depth - 1)), min, max }
        }
    }
}

/// All `(source, target)` pairs the reference evaluator accepts for `expr`
/// on `g`, sweeping every node as a source.
fn accepted_pairs(g: &AdjacencyGraph, expr: &RpqExpr) -> BTreeSet<(NodeId, NodeId)> {
    let mut sources: Vec<NodeId> = g.nodes().collect();
    sources.sort();
    let eval = ReferenceEvaluator::new(g);
    let mut pairs = BTreeSet::new();
    for (i, reached) in eval.evaluate(expr, &sources).into_iter().enumerate() {
        for t in reached {
            pairs.insert((sources[i], t));
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `RpqExpr::reverse` is an involution on the raw tree and commutes with
    /// normalization, and — the semantic half — `e` on `G` accepts exactly
    /// the flipped pairs of `e.reverse()` on the transposed `G`, per the
    /// brute-force reference evaluator on both sides.
    #[test]
    fn expression_reversal_reverses_the_language(
        seed in 0u64..5_000,
        expr in ArbExpr,
    ) {
        prop_assert_eq!(expr.reverse().reverse(), expr.clone(), "reverse is not an involution");
        prop_assert_eq!(
            expr.normalize().reverse().normalize(),
            expr.reverse().normalize(),
            "reverse does not commute with normalization"
        );

        // A small labelled graph and its transpose over the same node set.
        let mut mix = Mix(seed);
        let nodes = 6 + mix.below(10);
        let mut g = AdjacencyGraph::new();
        let mut gt = AdjacencyGraph::new();
        for n in 0..nodes {
            g.note_node(NodeId(n));
            gt.note_node(NodeId(n));
        }
        for _ in 0..(2 * nodes + mix.below(3 * nodes)) {
            let (s, d, l) = sample_edge(&mut mix, nodes);
            g.insert_edge(s, d, l);
            gt.insert_edge(d, s, l);
        }

        let forward = accepted_pairs(&g, &expr);
        let backward = accepted_pairs(&gt, &expr.reverse());
        let flipped: BTreeSet<(NodeId, NodeId)> =
            backward.into_iter().map(|(t, s)| (s, t)).collect();
        prop_assert_eq!(
            forward,
            flipped,
            "reversed expression on the transposed graph accepts different pairs"
        );
    }
}
