//! Label statistics cost memory per label, not per node.
//!
//! A store's per-label statistics are counters its row tables keep, so a
//! `LocalGraphStorage` holding forward and mirrored reverse rows must use no
//! more heap than two bare `SortedRows` fed the same entries, give or take a
//! constant — a per-node degree map would add bytes for every source and
//! every target. The test counts live heap bytes with a counting allocator
//! around both builds.
//!
//! This file holds exactly one `#[test]`: the allocator is process-global,
//! and a sibling test allocating concurrently would pollute the measurement.

use graph_store::{Label, LocalGraphStorage, NodeId, SortedRows};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, tracking the bytes currently allocated.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Edges, each from its own source.
const EDGES: u64 = 50_000;

/// What the store may spend beyond its two row tables, however many nodes
/// it holds.
const SLACK_BYTES: isize = 4 << 10;

/// `EDGES` edges from distinct sources to distinct targets (7919 is prime
/// and does not divide 50 000, so `i ↦ 7919 i mod 50 000` is a permutation),
/// alternating between two labels.
fn edges() -> impl Iterator<Item = (NodeId, NodeId, Label)> {
    (0..EDGES).map(|i| (NodeId(i), NodeId(i * 7919 % EDGES), Label(1 + (i % 2) as u16)))
}

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn label_statistics_cost_memory_per_label_not_per_node() {
    let before = live_bytes();
    let mut store = LocalGraphStorage::new();
    for (src, dst, label) in edges() {
        assert!(store.insert_edge(src, dst, label).1, "a fresh edge");
        assert!(store.insert_rev_edge(dst, src, label).1, "a fresh mirror entry");
    }
    let store_bytes = live_bytes() - before;

    let before = live_bytes();
    let (mut forward, mut reverse) = (SortedRows::default(), SortedRows::default());
    for (src, dst, label) in edges() {
        forward.insert(src, (dst, label));
        reverse.insert(dst, (src, label));
    }
    let rows_bytes = live_bytes() - before;

    assert!(
        store_bytes <= rows_bytes + SLACK_BYTES,
        "the store holds {store_bytes} B against {rows_bytes} B for its two row tables"
    );
    // The counters are still exact: every source and every target is
    // distinct, half of them under each label.
    let snapshot = store.label_stats().snapshot();
    for label in [Label(1), Label(2)] {
        let c = snapshot.counters(label);
        assert_eq!((c.edges, c.sources, c.targets), (EDGES / 2, EDGES / 2, EDGES / 2));
    }
    assert_eq!((forward.entries(), reverse.entries()), (EDGES as usize, EDGES as usize));
}
