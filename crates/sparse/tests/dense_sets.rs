//! Property tests of the two dense-key structures the hop loops rest on:
//! [`ProductSet`] against a `BTreeSet` model across its promotion boundary
//! (through its pair and its key entry points), and
//! [`OrderedBitmap::sort_dedup`] against `concat + sort_unstable + dedup` on
//! both sides of its density switch.

use proptest::prelude::*;
use sparse::{OrderedBitmap, ProductSet};
use std::collections::BTreeSet;

/// Turns three raw draws into a pair that is mostly inside a `nodes × states`
/// key space, with a tail of never-keyed pairs: nodes just past the bound,
/// hostile nodes near `u64::MAX`, and states past the automaton's.
fn pair_in(nodes: u64, states: u32, (a, b, kind): (u64, u32, u8)) -> (u64, u32) {
    match kind {
        0..=7 => (a % nodes, b % states),
        8 => (nodes + a % 4, b % (states + 2)),
        9 => (u64::MAX - a % 4, b % states),
        _ => (a % nodes, states + b % 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Insert / contains / len / ordered iteration agree with a `BTreeSet`
    /// at every step, whichever side of the promotion boundary the set is on.
    #[test]
    fn product_set_matches_a_btreeset_model(
        nodes in 1u64..400,
        states in 1u32..5,
        draws in proptest::collection::vec((0u64..1 << 20, 0u32..64, 0u8..11), 1..200),
    ) {
        let mut set = ProductSet::new(nodes, states);
        let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
        prop_assert_eq!(set.bound() as u64, nodes * u64::from(states));
        let mut was_dense = false;
        for &draw in &draws {
            let (node, state) = pair_in(nodes, states, draw);
            prop_assert_eq!(set.contains(node, state), model.contains(&(node, state)));
            prop_assert_eq!(set.insert(node, state), model.insert((node, state)));
            prop_assert!(set.contains(node, state));
            prop_assert_eq!(set.len(), model.len());
            prop_assert!(set.is_dense() || !was_dense, "a set never demotes");
            was_dense = set.is_dense();

            // The promotion rule, stated on the model: dense iff the keyed
            // members (they only grow) have reached bound / 128.
            let keyed = model.iter().filter(|&&(n, s)| set.key(n, s).is_some()).count();
            prop_assert_eq!(set.is_dense(), keyed > 0 && keyed * 128 >= set.bound());
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    /// A traversal that carries keys: `insert_key` / `contains_key` and the
    /// pair methods are interchangeable step by step, on both sides of the
    /// promotion boundary, in two sets driven through either entry point —
    /// membership, freshness, an exact `len()` and the iteration all agree
    /// with the model.
    #[test]
    fn key_and_pair_entry_points_are_interchangeable(
        nodes in 1u64..400,
        states in 1u32..5,
        draws in proptest::collection::vec((0u64..1 << 20, 0u32..64, 0u8..11, 0u8..2), 1..200),
    ) {
        let mut by_key = ProductSet::new(nodes, states);
        let mut by_pair = ProductSet::new(nodes, states);
        let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
        for &(a, b, kind, read_first) in &draws {
            let (node, state) = pair_in(nodes, states, (a, b, kind));
            let fresh = model.insert((node, state));
            match by_key.key(node, state) {
                Some(key) => {
                    prop_assert_eq!(by_key.pair(key), (node, state));
                    if read_first == 1 {
                        prop_assert_eq!(by_key.contains_key(key), !fresh);
                        prop_assert_eq!(by_pair.contains_key(key), !fresh);
                    }
                    prop_assert_eq!(by_key.insert_key(key), fresh);
                    prop_assert!(by_key.contains_key(key) && by_key.contains(node, state));
                }
                None => prop_assert_eq!(by_key.insert(node, state), fresh),
            }
            prop_assert_eq!(by_pair.insert(node, state), fresh);
            prop_assert_eq!(by_key.len(), model.len());
            prop_assert_eq!(by_pair.len(), model.len());
            prop_assert_eq!(by_key.is_dense(), by_pair.is_dense());
        }
        // A key at or past the bound stands for no pair, dense or not.
        prop_assert!(!by_key.contains_key(by_key.bound()));
        let want: Vec<(u64, u32)> = model.iter().copied().collect();
        prop_assert_eq!(by_key.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(by_pair.iter().collect::<Vec<_>>(), want);
    }

    /// The bitmap-ordered merge equals the comparison-sort merge for random
    /// multi-worker candidate lists, whether the scan or the sort path runs,
    /// and leaves the bitmap clean for the next call.
    #[test]
    fn ordered_bitmap_matches_sort_and_dedup(
        bound in 64usize..40_000,
        raw in proptest::collection::vec(0usize..1 << 20, 0..1200),
        spread_pct in 1usize..101,
        hostile in 0usize..8,
    ) {
        // `spread_pct` narrows the key range the candidates fall in, so the
        // cases straddle the one-item-per-16-words density switch.
        let range = (bound * spread_pct / 100).max(1);
        let mut bitmap = OrderedBitmap::new();
        // Two "hops" on one bitmap. A merge only ever sees the workers' lists
        // concatenated, so one list stands for any number of workers.
        for (hop, candidates) in raw.chunks(raw.len().div_ceil(2).max(1)).enumerate() {
            let mut items: Vec<u64> = candidates.iter().map(|&k| (k % range) as u64).collect();
            // One case in eight carries an item with no key: the whole call
            // must take the comparison path and still agree.
            if hostile == 0 && hop == 0 {
                items.push(1 << 40);
            }
            let mut want = items.clone();
            want.sort_unstable();
            want.dedup();
            bitmap.sort_dedup(
                &mut items,
                |i| usize::try_from(i).ok().filter(|&k| k < bound),
                |k| k as u64,
            );
            prop_assert_eq!(items, want);
        }
    }
}
