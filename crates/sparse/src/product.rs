//! A set of `(node, automaton state)` product pairs that is a bitset when
//! that is the cheaper representation and an ordered tree otherwise.
//!
//! A regular-path traversal keeps, per query, the set of product pairs it has
//! visited. The node ids that can be *reached* are bounded by the engine's
//! dense owner directory, so the pairs map onto the **node-major key**
//! `node × states + state` — whose order is the `(node, state)` tuple order —
//! and membership can be one bit test. A bitset over the whole key space is
//! only worth its `bound / 8` bytes for a query that visits a fair share of
//! it, though, and a batch holds one set per query: [`ProductSet`] therefore
//! starts sparse and promotes itself exactly once, when the bitset is no
//! bigger than the sparse side it replaces. Memory stays proportional to
//! what a query visits, whatever the size of the directory.
//!
//! The key is also the cheapest name a pair has: a traversal that carries
//! its frontiers as keys tests and extends a set through
//! [`ProductSet::contains_key`] / [`ProductSet::insert_key`] — one bit test
//! once the set is dense — and goes back to `(node, state)` only where it
//! needs the node (to find a row) or the state (to read an answer).
//!
//! Pairs outside the key space (a node at or past the bound — a query source
//! the graph has never seen, say — or a state past the automaton's) never
//! index an array: they live in a tree of their own forever, so a hostile id
//! costs one tree entry, not an allocation of its own magnitude.

use std::collections::BTreeSet;

/// Promotion threshold: a set becomes a bitset when it holds at least
/// `bound / PROMOTE_RATIO` keyed pairs. A tree member costs 8 bytes of key
/// plus its share of B-tree node headers and slack — 10 to 16 bytes — and a
/// bitset `bound / 8` bytes, so from `len ≥ bound / 128` on the bitset is at
/// most about the size of the tree it replaces, and every probe after that is
/// a bit test.
const PROMOTE_RATIO: u128 = 128;

/// A set of `(node, state)` pairs over the node-major key space
/// `node × states + state`, iterated in `(node, state)` order.
///
/// A traversal that already holds keys — a frontier carried as keys, a
/// memoised successor list — uses [`ProductSet::insert_key`] and
/// [`ProductSet::contains_key`] and pays neither the multiply of
/// [`ProductSet::key`] nor the division of [`ProductSet::pair`]; the pair
/// methods are those two behind a key computation.
///
/// # Examples
///
/// ```
/// use sparse::ProductSet;
///
/// // 1000 nodes, a 2-state automaton: keys 0..2000.
/// let mut seen = ProductSet::new(1000, 2);
/// assert!(seen.insert(7, 1));
/// assert!(!seen.insert(7, 1));
/// assert!(seen.insert(1 << 40, 0)); // outside the key space: kept sparse
/// assert!(seen.contains(7, 1) && seen.contains(1 << 40, 0));
/// assert_eq!(seen.iter().collect::<Vec<_>>(), vec![(7, 1), (1 << 40, 0)]);
///
/// let key = seen.key(7, 1).expect("inside the key space");
/// assert!(seen.contains_key(key) && !seen.insert_key(key));
/// assert!(seen.insert_key(key + 1) && seen.contains(8, 0));
/// ```
#[derive(Debug, Clone)]
pub struct ProductSet {
    /// Nodes the key space covers; `nodes × states` fits a `usize`.
    nodes: u64,
    /// Automaton states per node.
    states: u64,
    /// The keys of the keyed members until promotion; empty afterwards.
    tree: BTreeSet<usize>,
    /// One bit per key; empty until promotion.
    bits: Vec<u64>,
    /// Members that have a key, on whichever side they currently live.
    keyed: usize,
    /// The members that have no key.
    unkeyed: BTreeSet<(u64, u32)>,
}

impl ProductSet {
    /// An empty set whose key space covers nodes `0..nodes` and states
    /// `0..states`. `nodes` is clamped so that every key fits a `usize`;
    /// pairs past the clamp are members like any other, just never keyed.
    pub fn new(nodes: u64, states: u32) -> Self {
        let states = u64::from(states);
        let nodes = match states {
            0 => 0,
            _ => nodes.min(usize::MAX as u64 / states),
        };
        let (tree, unkeyed) = (BTreeSet::new(), BTreeSet::new());
        ProductSet { nodes, states, tree, bits: Vec::new(), keyed: 0, unkeyed }
    }

    /// Size of the key space: every key is below it.
    pub fn bound(&self) -> usize {
        // `new` clamped `nodes` so that the product fits.
        (self.nodes * self.states) as usize
    }

    /// The key of `(node, state)`, or `None` for a pair outside the key
    /// space. Key order is `(node, state)` order.
    #[inline]
    pub fn key(&self, node: u64, state: u32) -> Option<usize> {
        let state = u64::from(state);
        (node < self.nodes && state < self.states).then(|| (node * self.states + state) as usize)
    }

    /// The pair a key stands for (the inverse of [`ProductSet::key`]).
    #[inline]
    pub fn pair(&self, key: usize) -> (u64, u32) {
        let key = key as u64;
        (key / self.states, (key % self.states) as u32)
    }

    /// Adds a pair; returns `true` if it was not yet a member.
    #[inline]
    pub fn insert(&mut self, node: u64, state: u32) -> bool {
        match self.key(node, state) {
            Some(key) => self.insert_key(key),
            None => self.unkeyed.insert((node, state)),
        }
    }

    /// Returns `true` if the pair is a member.
    #[inline]
    pub fn contains(&self, node: u64, state: u32) -> bool {
        match self.key(node, state) {
            Some(key) => self.contains_key(key),
            None => self.unkeyed.contains(&(node, state)),
        }
    }

    /// [`ProductSet::insert`] for the pair `key` stands for. `key` must be
    /// below [`ProductSet::bound`]: a key of this set, or of one of the same
    /// shape.
    #[inline]
    pub fn insert_key(&mut self, key: usize) -> bool {
        debug_assert!(key < self.bound(), "key {key} outside the key space");
        let fresh = if self.is_dense() {
            let (word, bit) = (key / 64, 1u64 << (key % 64));
            let fresh = self.bits[word] & bit == 0;
            self.bits[word] |= bit;
            fresh
        } else {
            self.tree.insert(key)
        };
        if fresh {
            self.keyed += 1;
            if !self.is_dense() && self.keyed as u128 * PROMOTE_RATIO >= self.bound() as u128 {
                self.promote();
            }
        }
        fresh
    }

    /// [`ProductSet::contains`] for the pair `key` stands for (a key at or
    /// past the bound stands for none).
    #[inline]
    pub fn contains_key(&self, key: usize) -> bool {
        if self.is_dense() {
            self.bits.get(key / 64).is_some_and(|word| word & (1u64 << (key % 64)) != 0)
        } else {
            self.tree.contains(&key)
        }
    }

    /// Moves every keyed member into a freshly allocated bitset.
    fn promote(&mut self) {
        self.bits = vec![0; self.bound().div_ceil(64)];
        for key in std::mem::take(&mut self.tree) {
            self.bits[key / 64] |= 1u64 << (key % 64);
        }
    }

    /// Whether the set has promoted itself to a bitset.
    pub fn is_dense(&self) -> bool {
        !self.bits.is_empty()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.keyed + self.unkeyed.len()
    }

    /// Returns `true` if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys of the keyed members, ascending: the tree, or a word scan
    /// over the bitset (exactly one of the two is in use).
    fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        // The bitset cursor: `rest` holds the unread bits of word `index`.
        let (mut index, mut rest) = (0, self.bits.first().copied().unwrap_or(0));
        let bits = std::iter::from_fn(move || {
            while rest == 0 && index + 1 < self.bits.len() {
                index += 1;
                rest = self.bits[index];
            }
            (rest != 0).then(|| {
                let key = index * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                key
            })
        });
        self.tree.iter().copied().chain(bits)
    }

    /// The members in ascending `(node, state)` order: the keyed members in
    /// key order merged with the unkeyed ones (a pair is one or the other).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let mut unkeyed = self.unkeyed.iter().copied().peekable();
        let mut keyed = self.keys().map(|key| self.pair(key)).peekable();
        std::iter::from_fn(move || {
            let Some(&pair) = keyed.peek() else { return unkeyed.next() };
            match unkeyed.peek() {
                Some(&other) if other < pair => unkeyed.next(),
                _ => keyed.next(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotes_once_the_bitset_is_no_bigger_than_the_sparse_side() {
        // bound 128 × 10 = 1280 keys → promote at the 10th keyed member.
        let mut set = ProductSet::new(128, 10);
        for n in 0..9 {
            assert!(set.insert(n, 0));
            assert!(!set.is_dense(), "{} members are below bound / 128", n + 1);
        }
        assert!(set.insert(1 << 50, 3), "unkeyed members never count toward promotion");
        assert!(!set.is_dense());
        assert!(set.insert(9, 9));
        assert!(set.is_dense());
        assert_eq!(set.len(), 11);
        assert!(!set.insert(3, 0), "members survive promotion");
        assert!(set.contains(1 << 50, 3) && set.contains(9, 9) && !set.contains(9, 8));
    }

    #[test]
    fn iterates_in_pair_order_on_both_sides() {
        let mut set = ProductSet::new(64, 2);
        // (5, 7) has a node inside the directory but no key: the merge in
        // `iter` must still place it between (5, 1) and (6, 0).
        for (n, s) in [(6, 0), (u64::MAX, 1), (5, 7), (0, 1), (5, 1), (63, 1), (64, 0)] {
            assert!(set.insert(n, s));
        }
        assert!(set.is_dense());
        let want = vec![(0, 1), (5, 1), (5, 7), (6, 0), (63, 1), (64, 0), (u64::MAX, 1)];
        assert_eq!(set.iter().collect::<Vec<_>>(), want);
        assert_eq!(set.len(), want.len());
    }

    #[test]
    fn hostile_bounds_and_ids_allocate_nothing_of_their_size() {
        // A key space that would overflow is clamped, not wrapped.
        let mut set = ProductSet::new(u64::MAX, u32::MAX);
        assert!(set.bound() as u128 <= usize::MAX as u128);
        assert!(set.insert(u64::MAX, u32::MAX - 1));
        assert!(set.insert(1 << 40, 0));
        assert!(!set.is_dense());
        assert_eq!(set.len(), 2);
        // No states: no key space at all, members still work.
        let mut none = ProductSet::new(100, 0);
        assert_eq!(none.bound(), 0);
        assert!(none.insert(1, 0) && none.contains(1, 0) && !none.is_dense());
        // No nodes (an empty engine): every pair is unkeyed.
        let mut empty = ProductSet::new(0, 4);
        assert!(empty.is_empty());
        assert!(empty.insert(0, 0) && !empty.insert(0, 0) && !empty.is_dense());
    }

    #[test]
    fn key_and_pair_are_inverse_and_order_preserving() {
        let set = ProductSet::new(50, 3);
        let mut last = None;
        for node in 0..50u64 {
            for state in 0..3u32 {
                let key = set.key(node, state).expect("inside the key space");
                assert_eq!(set.pair(key), (node, state));
                assert!(last < Some(key));
                last = Some(key);
            }
        }
        assert_eq!(last, Some(set.bound() - 1));
        assert_eq!(set.key(50, 0), None);
        assert_eq!(set.key(0, 3), None);
    }
}
