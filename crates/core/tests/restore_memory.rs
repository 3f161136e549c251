//! Restoring a durable image copies one store's edges at a time.
//!
//! Snapshots carry forward rows only; a restore rebuilds the reverse rows by
//! mirroring every stored edge at its destination's owner. The rebuild may
//! copy a store's edges out before mirroring them, but never the whole
//! graph's: on a uniform graph over 8 modules, the most the restore holds at
//! once beyond the restored engine's own bytes stays under half of what one
//! `(NodeId, NodeId, Label)` per stored edge costs. The test counts live and
//! peak heap bytes with a counting allocator around the restore.
//!
//! This file holds exactly one `#[test]`: the allocator is process-global,
//! and a sibling test allocating concurrently would pollute the measurement.

use moctopus::{GraphEngine, Label, MoctopusConfig, MoctopusSystem, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, tracking the bytes currently allocated and the
/// most allocated at once.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is two relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Nodes of the graph, each with [`OUT_DEGREE`] out-edges.
const NODES: u64 = 12_500;
/// Far below the promotion threshold: no row moves to the host.
const OUT_DEGREE: u64 = 4;

/// `NODES × OUT_DEGREE` = 50 000 distinct edges: node `i` points at
/// `i + 1 + 3121 j (mod NODES)` for `j < OUT_DEGREE`, none of them `i`.
fn edges() -> Vec<(NodeId, NodeId, Label)> {
    (0..NODES)
        .flat_map(|i| {
            (0..OUT_DEGREE).map(move |j| {
                (NodeId(i), NodeId((i + 1 + 3121 * j) % NODES), Label((1 + (i + j) % 3) as u16))
            })
        })
        .collect()
}

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[test]
fn restore_copies_one_stores_edges_at_a_time() {
    let config = MoctopusConfig::small_test().with_threads(1);
    assert_eq!(config.pim.num_modules, 8);
    let edges = edges();
    let mut source = MoctopusSystem::new(config);
    assert_eq!(source.insert_labeled_edges(&edges).applied, edges.len());
    assert_eq!(source.host_row_count(), 0, "a uniform graph has no hubs");
    let image = source.export_snapshot().expect("a PIM engine exports its storage plane");
    let mut restored = MoctopusSystem::new(config);

    let before = live_bytes();
    PEAK_BYTES.store(before, Ordering::Relaxed);
    assert!(restored.restore_snapshot(&image));
    let restored_bytes = live_bytes();
    let held_at_once = PEAK_BYTES.load(Ordering::Relaxed) - restored_bytes;

    let whole_graph_bytes = (edges.len() * std::mem::size_of::<(NodeId, NodeId, Label)>()) as isize;
    assert!(
        2 * held_at_once < whole_graph_bytes,
        "the restore held {held_at_once} B beyond the engine's own at once; a copy of every \
         stored edge is {whole_graph_bytes} B"
    );
    // The rebuilt reverse rows are the ones incremental maintenance built.
    assert_eq!(restored.export_rev_rows(), source.export_rev_rows());
    assert_eq!(restored.edge_count(), edges.len());
}
