//! Property tests of [`ProductSet`] against a `BTreeSet` model across its
//! promotion boundary, through its pair and its key entry points.

use proptest::prelude::*;
use sparse::ProductSet;
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
}
