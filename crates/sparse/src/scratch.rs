//! Reusable epoch-stamped marker scratch (SuiteSparse-style).
//!
//! Gustavson-style sparse kernels and frontier expansions both need a dense
//! "have I produced this column already?" bitmap. Allocating (or clearing) a
//! boolean vector per row/query dominates the wall-clock of the whole kernel
//! at scale, so SuiteSparse:GraphBLAS instead keeps one `int64` scratch array
//! whose entries are compared against a generation counter: bumping the
//! counter invalidates every mark in O(1). [`EpochMarks`] packages that trick
//! so the [`ops`](crate::ops) kernels and the distributed query engine in
//! `moctopus` share one implementation. [`OrderedBitmap`] is the same idea
//! for the step after: turning the produced entries into a sorted,
//! duplicate-free frontier without a comparison sort.

/// A dense set over `usize` keys with O(1) bulk clear.
///
/// Every slot stores the epoch at which it was last marked; a slot is "set"
/// iff its stamp equals the current epoch, so [`EpochMarks::next_epoch`]
/// clears the whole set without touching memory. The backing vector grows on
/// demand, and the (practically unreachable) epoch overflow falls back to one
/// real clear.
///
/// # Examples
///
/// ```
/// use sparse::EpochMarks;
///
/// let mut marks = EpochMarks::new();
/// marks.next_epoch();
/// assert!(marks.mark(3)); // first visit
/// assert!(!marks.mark(3)); // duplicate
/// marks.next_epoch(); // O(1) clear
/// assert!(marks.mark(3)); // a first visit again
/// ```
#[derive(Debug, Clone)]
pub struct EpochMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Default for EpochMarks {
    fn default() -> Self {
        // Stamps default to 0, so the live epoch must start above it: a fresh
        // scratch is usable immediately, with every key unmarked.
        EpochMarks { stamps: Vec::new(), epoch: 1 }
    }
}

impl EpochMarks {
    /// Creates an empty scratch; the backing vector grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for keys `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        EpochMarks { stamps: vec![0; n], epoch: 1 }
    }

    /// Starts a new generation, logically unmarking every key in O(1).
    pub fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // One real clear every 2^32 - 1 generations.
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Marks `key`, growing the backing vector if needed.
    ///
    /// Returns `true` if the key was not yet marked this epoch (first visit).
    #[inline]
    pub fn mark(&mut self, key: usize) -> bool {
        if key >= self.stamps.len() {
            self.stamps.resize(key + 1, 0);
        }
        if self.stamps[key] == self.epoch {
            false
        } else {
            self.stamps[key] = self.epoch;
            true
        }
    }

    /// Number of keys the backing vector currently covers.
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }
}

/// Density switch of [`OrderedBitmap::sort_dedup`]: the word scan runs when
/// there is at least one item per this many words between the smallest and
/// the largest key; sparser inputs are cheaper to comparison-sort.
const SCAN_WORDS_PER_ITEM: usize = 16;

/// A reusable bitmap that sorts and deduplicates items by their dense keys:
/// set one bit per item, then read the bits back in order.
///
/// This is the merge stage of a frontier expansion: per-worker candidate
/// lists are concatenated, and the next frontier is their sorted,
/// duplicate-free union. When the candidates are dense in their key range,
/// setting bits and scanning the words between the smallest and the largest
/// key replaces an `O(n log n)` comparison sort with one pass over the items
/// and one over `span / 64` words. The bitmap is all-zero between calls (the
/// scan clears each word as it reads it), so one instance serves every hop of
/// every query.
///
/// # Examples
///
/// ```
/// use sparse::OrderedBitmap;
///
/// let mut bitmap = OrderedBitmap::new();
/// let mut items: Vec<u32> = vec![9, 3, 9, 4, 3];
/// bitmap.sort_dedup(&mut items, |i| Some(i as usize), |k| k as u32);
/// assert_eq!(items, vec![3, 4, 9]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OrderedBitmap {
    words: Vec<u64>,
}

impl OrderedBitmap {
    /// Creates an empty bitmap; it grows to the largest key it is handed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts `items` ascending and removes duplicates.
    ///
    /// `key` maps an item to its dense key and `item` maps a key back; the
    /// two must be inverse, and `key` must preserve order. `key` is also the
    /// bound: an item it maps to `None` is never used as an index, and sends
    /// the whole call down the comparison-sort path — as does an input too
    /// sparse for a word scan to pay off. The choice depends only on the
    /// items, and both paths produce the same vector.
    pub fn sort_dedup<T: Copy + Ord>(
        &mut self,
        items: &mut Vec<T>,
        key: impl Fn(T) -> Option<usize>,
        item: impl Fn(usize) -> T,
    ) {
        if items.len() < 2 {
            return;
        }
        let Some((first, last)) = Self::word_span(items, &key) else {
            items.sort_unstable();
            items.dedup();
            return;
        };
        if self.words.len() <= last {
            self.words.resize(last + 1, 0);
        }
        for &t in items.iter() {
            if let Some(k) = key(t) {
                self.words[k / 64] |= 1u64 << (k % 64);
            }
        }
        items.clear();
        for index in first..=last {
            let mut word = std::mem::take(&mut self.words[index]);
            while word != 0 {
                items.push(item(index * 64 + word.trailing_zeros() as usize));
                word &= word - 1;
            }
        }
    }

    /// The first and last word a scan over `items` would touch, or `None`
    /// when an item has no key or the items are too sparse for a scan.
    fn word_span<T: Copy>(items: &[T], key: impl Fn(T) -> Option<usize>) -> Option<(usize, usize)> {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &t in items {
            let k = key(t)?;
            lo = lo.min(k);
            hi = hi.max(k);
        }
        let (first, last) = (lo / 64, hi / 64);
        (items.len() >= (last - first + 1) / SCAN_WORDS_PER_ITEM).then_some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_reports_first_visit_only() {
        let mut m = EpochMarks::new();
        m.next_epoch();
        assert!(m.mark(7));
        assert!(!m.mark(7));
        assert!(m.mark(8), "other keys stay unmarked");
    }

    #[test]
    fn next_epoch_clears_in_constant_time() {
        let mut m = EpochMarks::with_capacity(16);
        m.next_epoch();
        m.mark(0);
        m.mark(15);
        m.next_epoch();
        assert!(m.mark(0));
        assert!(m.mark(15));
    }

    #[test]
    fn grows_on_demand() {
        let mut m = EpochMarks::new();
        m.next_epoch();
        assert_eq!(m.capacity(), 0);
        assert!(m.mark(1000));
        assert!(m.capacity() >= 1001);
        assert!(!m.mark(1000));
    }

    #[test]
    fn epoch_overflow_falls_back_to_a_real_clear() {
        let mut m = EpochMarks::with_capacity(4);
        m.epoch = u32::MAX - 1;
        m.next_epoch(); // epoch == u32::MAX
        m.mark(2);
        m.next_epoch(); // wraps: real clear, epoch restarts at 1
        assert!(m.mark(2));
        assert!(!m.mark(2));
    }

    #[test]
    fn ordered_bitmap_scans_dense_inputs_and_sorts_sparse_ones() {
        let key = |i: u64| Some(i as usize);
        let item = |k: usize| k as u64;

        // 4 items over words 0..=63: 4 ≥ 64 / 16, so the scan path runs — it
        // sizes the bitmap and leaves it all-zero for the next call.
        let mut bitmap = OrderedBitmap::new();
        let mut dense = vec![64 * 63, 5, 5, 70];
        bitmap.sort_dedup(&mut dense, key, item);
        assert_eq!(dense, vec![5, 70, 64 * 63]);
        assert_eq!(bitmap.words, vec![0; 64]);

        // 3 items over the same 64 words: 3 < 4, comparison sort, no bitmap.
        let mut untouched = OrderedBitmap::new();
        let mut sparse = vec![64 * 63, 5, 5];
        untouched.sort_dedup(&mut sparse, key, item);
        assert_eq!(sparse, vec![5, 64 * 63]);
        assert!(untouched.words.is_empty());

        // An item without a key is never an index: comparison sort again.
        let mut hostile = vec![u64::MAX, 3, 1, 3, 2, 1];
        untouched.sort_dedup(&mut hostile, |i| usize::try_from(i).ok().filter(|&k| k < 64), item);
        assert_eq!(hostile, vec![1, 2, 3, u64::MAX]);
        assert!(untouched.words.is_empty());
    }

    #[test]
    fn fresh_scratch_is_usable_without_next_epoch() {
        // Stamps default to 0 and the live epoch starts at 1, so a fresh
        // scratch has every key unmarked.
        let mut m = EpochMarks::with_capacity(4);
        assert!(m.mark(0));
        assert!(!m.mark(0));
    }
}
