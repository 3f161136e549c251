//! The quality of `graph_store::IdMap`'s hasher is a test, not a hope.
//!
//! hashbrown (the table behind `std`'s `HashMap`) uses two ends of a 64-bit
//! hash: the **low bits** pick the bucket (the low 16 are the whole index of
//! a 65 536-bucket table and part of every larger one) and the **top 7 bits**
//! are the control tag that filters a probe group before any key is
//! compared. A multiplicative hash can starve either end on structured keys,
//! and node ids are nothing but structured. For every key set below — each
//! of `N` keys, `N` ≥ 4 096 — the bounds are:
//!
//! * **bucket index**: no low-16 value is shared by more than
//!   `16 × ⌈N / 65 536⌉` keys (a uniformly random function's expected worst
//!   bucket at `N` = 65 536 holds 8–9);
//! * **control tag**: all 128 tags occur, none more often than twice and none
//!   less often than half its fair share `N / 128`.
//!
//! The hasher's key is fixed, so none of this is collision-*attack*
//! resistance; STORAGE.md §7 says why the storage plane does not need it.

use graph_store::{IdMap, Label, NodeId};
use moctopus_bench::{HarnessOptions, RpqWorkload, TraceWorkload};
use std::hash::{BuildHasher, Hash};

fn hash_of<K: Hash>(key: K) -> u64 {
    IdMap::<K, ()>::default().hasher().hash_one(key)
}

/// Asserts both bounds of the module docs on one key set.
fn assert_spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
    let mut low = vec![0u32; 1 << 16];
    let mut tag = [0usize; 128];
    let mut n = 0usize;
    for key in keys {
        let h = hash_of(key);
        low[(h & 0xFFFF) as usize] += 1;
        tag[(h >> 57) as usize] += 1;
        n += 1;
    }
    assert!(n >= 4096, "{what}: {n} keys are too few for the tag bound to mean anything");
    let worst_bucket = *low.iter().max().unwrap() as usize;
    let bucket_bound = 16 * n.div_ceil(1 << 16);
    assert!(
        worst_bucket <= bucket_bound,
        "{what}: {worst_bucket} of {n} keys share one low-16 value (bound {bucket_bound})"
    );
    let (rarest, commonest) = (*tag.iter().min().unwrap(), *tag.iter().max().unwrap());
    assert!(
        rarest * 2 * 128 >= n && commonest * 128 <= 2 * n,
        "{what}: tag counts span {rarest}..={commonest} of {n} keys (fair share {})",
        n / 128
    );
}

#[test]
fn dense_ids_stay_spread() {
    assert_spread("dense 0..2^16", (0..1u64 << 16).map(NodeId));
    assert_spread("dense 0..2^20", (0..1u64 << 20).map(NodeId));
    // A store holds an arbitrary slice of the id space, not a prefix of it.
    assert_spread("dense 2^20..2^20+2^16", ((1u64 << 20)..(1 << 20) + (1 << 16)).map(NodeId));
}

#[test]
fn strided_ids_stay_spread_at_every_stride() {
    for k in 1..=48u32 {
        assert_spread(&format!("i << {k}"), (0..1u64 << 16).map(|i| NodeId(i << k)));
    }
}

#[test]
fn edge_keys_differing_in_one_field_stay_spread() {
    let (s, d, l) = (NodeId(12_345), NodeId(54_321), Label(3));
    assert_spread("(i, d, l)", (0..1u64 << 16).map(|i| (NodeId(i), d, l)));
    assert_spread("(s, i, l)", (0..1u64 << 16).map(|i| (s, NodeId(i), l)));
    assert_spread("(s, d, i)", (0..=u16::MAX).map(|i| (s, d, Label(i))));
    // Swapping the endpoints must not collide either: the fields are folded
    // in order, not summed.
    let swapped = (0..1u64 << 12).filter(|&i| {
        hash_of((NodeId(i), NodeId(i + 1), l)) == hash_of((NodeId(i + 1), NodeId(i), l))
    });
    assert_eq!(swapped.count(), 0);
}

#[test]
fn the_benchmark_generators_id_sets_stay_spread() {
    // The three graphs `perf` drives (khop's skewed web trace, closure's and
    // serve_write's power law, serve_read's rare-closure chains) at scale
    // 0.05 — half the serving workloads', a fifth of khop's: node ids as the
    // stores key rows by them, and labelled edges as the host store's
    // position map keys them.
    let options = HarnessOptions { scale: 0.05, seed: 42, ..HarnessOptions::default() };
    let web = TraceWorkload::generate(12, &options);
    assert_spread("web trace nodes", web.graph.nodes());
    assert_spread("web trace edges", web.edges.iter().map(|&(s, d)| (s, d, Label::ANY)));
    for w in [RpqWorkload::power_law(&options), RpqWorkload::rare_closure(&options)] {
        assert_spread(&format!("{} nodes", w.name), w.graph.nodes());
        assert_spread(&format!("{} edges", w.name), w.edges.iter().copied());
    }
}

#[test]
fn the_byte_slice_fallback_hashes_what_the_word_path_hashes() {
    // A key that is not id-shaped goes through `Hasher::write`; on the words
    // of an id-shaped key it must agree with the word path (little-endian
    // eight-byte chunks), and a short tail must still count.
    use std::hash::Hasher;
    let build = IdMap::<u64, ()>::default().hasher().clone();
    let mut words = build.build_hasher();
    words.write_u64(7);
    words.write_u64(9);
    let mut bytes = build.build_hasher();
    bytes.write(&[7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(words.finish(), bytes.finish());
    assert_ne!(hash_of("node-7"), hash_of("node-8"));
    assert_ne!(hash_of([1u8, 2, 3].as_slice()), hash_of([1u8, 2, 3, 0].as_slice()));
}
