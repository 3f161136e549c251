//! Hostile source ids against the dense hop-loop structures.
//!
//! The hop loops keep dense structures over the owner directory's id space:
//! the k-hop loop's lane array, the NFA-product memo's slot table and a
//! pruned plan's `sparse::ProductSet`. The NFA-product loop's lane words
//! live in its memo entries, one per key a call reaches. A query source is caller-supplied and may be any `u64`: `NodeId(1 << 40)`
//! and `NodeId(u64::MAX)` must be answered like any other node the graph has
//! never seen — an empty answer, or the source itself when the expression
//! accepts the empty path — without any structure being sized by the id. A
//! set that indexed by such an id would ask the allocator for 128 GiB and
//! up, so the test runs under a counting allocator and bounds the largest
//! single request made while the queries run. The one structure of the
//! NFA-product loop that is sized by the key space at all — a worker's
//! memo slot table, `4 × directory bound × automaton states` bytes — is
//! what bounds the largest request of a many-state automaton, however
//! little such a query expands.
//!
//! This file holds exactly one `#[test]`: the allocator is process-global,
//! and a sibling test allocating concurrently would pollute the measurement.

use graph_store::{Label, NodeId};
use moctopus::{DepMask, GraphEngine, MoctopusConfig, MoctopusSystem, PimHashSystem};
use rpq::PlanStrategy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Far more than any structure of the 600-node fixture needs, far less than
/// anything sized by a hostile id.
const LARGEST_ALLOWED_REQUEST: usize = 1 << 20;

const HOSTILE: [NodeId; 2] = [NodeId(1 << 40), NodeId(u64::MAX)];

/// A 600-node labelled graph with cycles and a few hubs (host lane active on
/// Moctopus), loaded into both PIM engines.
fn engines() -> Vec<Box<dyn GraphEngine>> {
    let mut edges: Vec<(NodeId, NodeId, Label)> = Vec::new();
    for i in 0..600u64 {
        edges.push((NodeId(i), NodeId((i + 1) % 600), Label(1)));
        edges.push((NodeId(i), NodeId((i * 7 + 3) % 600), Label((i % 3) as u16 + 1)));
        edges.push((NodeId(i % 5), NodeId((i * 11) % 600), Label(8)));
    }
    let cfg = MoctopusConfig::small_test();
    let mut moctopus = MoctopusSystem::new(cfg);
    moctopus.insert_labeled_edges(&edges);
    moctopus.refine_locality();
    let mut pim_hash = PimHashSystem::new(cfg);
    pim_hash.insert_labeled_edges(&edges);
    vec![Box::new(moctopus), Box::new(pim_hash)]
}

#[test]
fn hostile_source_ids_cost_nothing_of_their_size() {
    let mut engines = engines();
    let known: Vec<NodeId> = (0..12u64).map(|i| NodeId(i * 47)).collect();
    let mixed: Vec<NodeId> = known.iter().copied().chain(HOSTILE).collect();

    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    for engine in &mut engines {
        let name = engine.name();

        // `(query, whether it accepts the empty path)`: closures, a bounded
        // label chain and an optional, through all three RPQ entry points.
        for (text, accepts_empty) in
            [("1+", false), ("1*", true), ("(1|2)+/8", false), ("1/2?", false), ("(1/2)*", true)]
        {
            let expr = rpq::parser::parse(text).expect("fixture query parses");
            let (want, want_stats) = engine.rpq_batch(&expr, &known);
            let (got, got_stats) = engine.rpq_batch(&expr, &mixed);

            // Known sources answer as if the hostile ones were not there.
            assert_eq!(&got[..known.len()], &want[..], "{name} {text}");
            // Hostile sources answer like any never-seen node.
            for (answer, source) in got[known.len()..].iter().zip(HOSTILE) {
                let expected = if accepts_empty { vec![source] } else { Vec::new() };
                assert_eq!(answer, &expected, "{name} {text} from {source}");
            }
            // They are expanded once (to nothing) and charged nothing else.
            assert_eq!(
                got_stats.expansions,
                want_stats.expansions + HOSTILE.len(),
                "{name} {text}"
            );
            let empties = if accepts_empty { HOSTILE.len() } else { 0 };
            assert_eq!(got_stats.matched_pairs, want_stats.matched_pairs + empties);

            let (tracked, tracked_stats, deps) = engine.rpq_batch_tracked(&expr, &mixed);
            assert_eq!(tracked, got, "{name} {text} tracked");
            assert_eq!(tracked_stats, got_stats, "{name} {text} tracked stats");
            for source in HOSTILE {
                let mut bucket = DepMask::EMPTY;
                bucket.insert(source);
                assert!(deps.nodes.intersects(bucket), "{name} {text}: deps cover {source}");
            }

            let strategies = [
                PlanStrategy::Forward,
                PlanStrategy::Bidirectional,
                PlanStrategy::RareLabelSplit { split_at: 1 },
            ];
            for strategy in strategies {
                let (planned, _) = engine.rpq_batch_planned(&expr, &mixed, strategy);
                assert_eq!(planned, got, "{name} {text} under {strategy:?}");
            }
        }

        for k in 0..4usize {
            let (want, want_stats) = engine.k_hop_batch(&known, k);
            let (got, got_stats) = engine.k_hop_batch(&mixed, k);
            assert_eq!(&got[..known.len()], &want[..], "{name} k = {k}");
            for (answer, source) in got[known.len()..].iter().zip(HOSTILE) {
                let expected = if k == 0 { vec![source] } else { Vec::new() };
                assert_eq!(answer, &expected, "{name} k = {k} from {source}");
            }
            // A never-seen source is one frontier entry in the first hop.
            let first_hop = if k == 0 { 0 } else { HOSTILE.len() };
            assert_eq!(got_stats.expansions, want_stats.expansions + first_hop, "{name} k = {k}");
        }
    }

    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest <= LARGEST_ALLOWED_REQUEST,
        "a query over hostile ids asked the allocator for {largest} bytes at once"
    );

    // A source outside the directory has no product key and no owner: it is
    // one expansion of one hop — the numbers the loop reported when it still
    // carried `(node, state)` pairs — unless a pruned plan drops it up front.
    let closure = rpq::parser::parse("1+").expect("fixture query parses");
    for engine in &mut engines {
        let (answers, stats) = engine.rpq_batch(&closure, &HOSTILE);
        assert_eq!(answers, vec![Vec::new(); HOSTILE.len()]);
        assert_eq!((stats.hops, stats.expansions), (1, HOSTILE.len()), "{}", engine.name());
        let (_, pruned) = engine.rpq_batch_planned(&closure, &HOSTILE, PlanStrategy::Bidirectional);
        assert_eq!((pruned.hops, pruned.expansions), (0, 0), "{} pruned", engine.name());
    }

    // A 64-atom concatenation (65 automaton states) whose first label no edge
    // carries, over every node plus the hostile ids: a batch of dead ends.
    // Nothing is sized by an id, and the largest request is a slot table.
    let atoms: Vec<&str> =
        std::iter::once("9").chain(["1", "2"].into_iter().cycle()).take(64).collect();
    let long = rpq::parser::parse(&atoms.join("/")).expect("a concatenation parses");
    let states = rpq::Nfa::from_expr(&long).state_count();
    assert_eq!(states, 65);
    let everyone: Vec<NodeId> = (0..600u64).map(NodeId).chain(HOSTILE).collect();
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    for engine in &mut engines {
        let (answers, stats) = engine.rpq_batch(&long, &everyone);
        assert!(answers.iter().all(Vec::is_empty), "{}", engine.name());
        assert_eq!((stats.hops, stats.expansions), (1, everyone.len()), "{}", engine.name());
    }
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    let slot_table = 4 * 600 * states;
    assert!(largest <= slot_table, "{largest} bytes at once; a slot table is {slot_table}");
}
