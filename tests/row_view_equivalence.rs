//! The row view against the stores it is derived from.
//!
//! Both hop loops read forward rows from a node-indexed CSR copy of the
//! stores once one is built, and from the stores otherwise. Every write that
//! can move a row drops the copy, and a clone starts without one. Here a
//! veteran engine has its view built before every step of a scripted history
//! and rebuilt after it. A twin restored from the veteran's snapshot reads
//! the stores. Every `k_hop_batch` (k = 1..3) and `rpq_batch` answer of the
//! two, and every `QueryStats` field, must be equal. The history promotes
//! hubs (Moctopus only) and frees host slots by deleting from them. It
//! carries self-loops and one node pair under two labels, names ids past the
//! old directory bound, and interleaves refinement, restore and clones. It
//! runs at one and two worker threads.

use graph_store::{Label, NodeId, HIGH_DEGREE_THRESHOLD};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem};

/// Node ids of the first graph; later steps name ids past them.
const NODES: u64 = 40;

/// The closures every step is checked on.
const EXPRS: [&str; 3] = ["1+", "(1|8)+", "1/(2|3)*/4"];

/// The two PIM engines, as this test drives them.
trait ViewedEngine: GraphEngine + Clone {
    fn fresh() -> Self;
    fn reads_view(&self) -> bool;
    /// Runs the refinement pass, if the engine has one.
    fn refine(&mut self) -> bool;
}

impl ViewedEngine for MoctopusSystem {
    fn fresh() -> Self {
        MoctopusSystem::new(MoctopusConfig::small_test())
    }
    fn reads_view(&self) -> bool {
        self.reads_row_view()
    }
    fn refine(&mut self) -> bool {
        self.refine_locality();
        true
    }
}

impl ViewedEngine for PimHashSystem {
    fn fresh() -> Self {
        PimHashSystem::new(MoctopusConfig::small_test())
    }
    fn reads_view(&self) -> bool {
        self.reads_row_view()
    }
    fn refine(&mut self) -> bool {
        false
    }
}

/// One step of the history.
#[derive(Debug)]
enum Step {
    Insert(Vec<(u64, u64, u16)>),
    Delete(Vec<(u64, u64, u16)>),
    /// Moctopus' locality refinement (nothing for PIM-hash).
    Refine,
    /// Continue on another engine, whose own view was built over another
    /// graph, restored from this one's snapshot.
    Restore,
    /// Continue on a clone.
    Clone,
}

fn labelled(edges: &[(u64, u64, u16)]) -> Vec<(NodeId, NodeId, Label)> {
    edges.iter().map(|&(s, d, l)| (NodeId(s), NodeId(d), Label(l))).collect()
}

/// Queries `engine` until its view is built: each call adds its work to the
/// tally that triggers the build at the start of a later call.
fn build_view<E: ViewedEngine>(engine: &mut E) {
    let everyone: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    for _ in 0..64 {
        if engine.reads_view() {
            return;
        }
        engine.k_hop_batch(&everyone, 1);
    }
    panic!("{}: no row view after 64 calls", engine.name());
}

/// A fresh engine at `threads` workers restored from `engine`'s snapshot.
fn twin<E: ViewedEngine>(engine: &E, threads: usize) -> E {
    let mut twin = E::fresh();
    twin.set_threads(threads);
    let image = engine.export_snapshot().expect("a PIM engine exports its image");
    assert!(twin.restore_snapshot(&image), "an engine restores its own image");
    twin
}

/// Restores `engine`'s snapshot into an engine holding another graph and a
/// view built over it: the restore must drop that view.
fn restore_over_a_stale_view<E: ViewedEngine>(engine: &E, threads: usize) -> E {
    let mut target = E::fresh();
    target.set_threads(threads);
    let decoy: Vec<_> = (0..NODES).map(|n| (n, (n + 3) % NODES, 1 + (n % 4) as u16)).collect();
    target.insert_labeled_edges(&labelled(&decoy));
    build_view(&mut target);
    let image = engine.export_snapshot().expect("a PIM engine exports its image");
    assert!(target.restore_snapshot(&image), "an engine restores its own image");
    target
}

/// Asserts that `engine`, reading its view, answers every query exactly as
/// a twin reading the stores does. Each query gets a twin of its own, whose
/// first call reads the stores; 600 sources make every loop go wide at two
/// threads. The sources include hubs, the ids past the first graph and ids
/// no edge names.
fn assert_matches_stores<E: ViewedEngine>(engine: &mut E, threads: usize, ctx: &str) {
    let sources: Vec<NodeId> = (0..600u64).map(|i| NodeId(i % (NODES + 90))).collect();
    let queries = (1..=3usize).map(Err).chain(EXPRS.into_iter().map(Ok));
    for query in queries {
        assert!(engine.reads_view(), "{ctx}: {query:?} must read the view");
        let mut store_twin = twin(engine, threads);
        let (got, want) = match query {
            Err(k) => (engine.k_hop_batch(&sources, k), store_twin.k_hop_batch(&sources, k)),
            Ok(text) => {
                let expr = rpq::parser::parse(text).expect("fixture query parses");
                (engine.rpq_batch(&expr, &sources), store_twin.rpq_batch(&expr, &sources))
            }
        };
        assert!(!store_twin.reads_view(), "{ctx}: {query:?}: the twin read the stores");
        assert_eq!(got.0, want.0, "{ctx}: {query:?} answers");
        assert_eq!(got.1, want.1, "{ctx}: {query:?} stats");
    }
    assert!(engine.reads_view(), "{ctx}: no query drops the view");
}

/// Runs the history on an engine at `threads` worker threads and returns it.
fn run<E: ViewedEngine>(steps: &[Step], threads: usize) -> E {
    let mut engine = E::fresh();
    engine.set_threads(threads);
    for (i, step) in steps.iter().enumerate() {
        let ctx = format!("{} at {threads} threads, step {i} ({step:?})", engine.name());
        if i > 0 {
            build_view(&mut engine);
        }
        let wrote = match step {
            Step::Insert(edges) => {
                engine.insert_labeled_edges(&labelled(edges));
                true
            }
            Step::Delete(edges) => {
                let stats = engine.delete_labeled_edges(&labelled(edges));
                assert_eq!(stats.applied, edges.len(), "{ctx}: every deleted edge was live");
                true
            }
            Step::Refine => engine.refine(),
            Step::Restore => {
                engine = restore_over_a_stale_view(&engine, threads);
                true
            }
            Step::Clone => {
                engine = engine.clone();
                true
            }
        };
        assert_eq!(engine.reads_view(), !wrote, "{ctx}: a write or clone leaves no view");
        build_view(&mut engine);
        assert_matches_stores(&mut engine, threads, &ctx);
    }
    engine
}

/// Every step kind at least once: a first graph with self-loops and a pair
/// under two labels, a hub promoted to the host and deletes that free its
/// slots, ids past the old directory bound, refinement, restore and clone,
/// then more writes on the restored and cloned engines.
fn history() -> Vec<Step> {
    let mut first: Vec<(u64, u64, u16)> =
        (0..NODES).map(|n| (n, (n * 7 + 3) % NODES, 1 + (n % 4) as u16)).collect();
    first.extend((0..NODES).map(|n| (n, (n + 1) % NODES, 1)));
    first.extend([(7, 7, 1), (9, 9, 8), (3, 9, 1), (3, 9, 2), (5, 2, 8)]);
    let hub = HIGH_DEGREE_THRESHOLD as u64 + 4;
    let hub_edges: Vec<_> =
        (0..hub).map(|d| (1, (d * 3 + 5) % NODES, 1 + (d % 3) as u16)).collect();
    let freed: Vec<_> = hub_edges.iter().copied().step_by(3).collect();
    vec![
        Step::Insert(first),
        Step::Insert(hub_edges),
        Step::Delete(freed),
        Step::Insert(vec![(2, 100, 1), (100, 129, 4), (129, 0, 8), (100, 100, 2), (4, 129, 3)]),
        Step::Refine,
        Step::Restore,
        Step::Insert(vec![(1, 2, 1), (1, 3, 3), (6, 1, 1), (6, 1, 8), (0, 0, 4)]),
        Step::Clone,
        Step::Delete(vec![(3, 9, 1), (7, 7, 1), (2, 100, 1)]),
        Step::Refine,
        Step::Insert((0..NODES).map(|n| (2, n, 1 + (n % 4) as u16)).collect()),
    ]
}

#[test]
fn the_view_answers_and_charges_like_the_stores() {
    let steps = history();
    for threads in [1, 2] {
        let moctopus: MoctopusSystem = run(&steps, threads);
        assert!(moctopus.host_row_count() >= 2, "the history promotes at least two hubs");
        let pim_hash: PimHashSystem = run(&steps, threads);
        assert_eq!(pim_hash.host_row_count(), 0);
    }
}
