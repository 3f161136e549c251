//! Reusable epoch-stamped marker scratch (SuiteSparse-style).
//!
//! Gustavson-style sparse kernels and frontier expansions both need a dense
//! "have I produced this column already?" bitmap. Allocating (or clearing) a
//! boolean vector per row/query dominates the wall-clock of the whole kernel
//! at scale, so SuiteSparse:GraphBLAS instead keeps one `int64` scratch array
//! whose entries are compared against a generation counter: bumping the
//! counter invalidates every mark in O(1). [`EpochMarks`] packages that trick
//! for the [`ops`](crate::ops) kernels and the benchmark's marks layer.

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
    fn fresh_scratch_is_usable_without_next_epoch() {
        // Stamps default to 0 and the live epoch starts at 1, so a fresh
        // scratch has every key unmarked.
        let mut m = EpochMarks::with_capacity(4);
        assert!(m.mark(0));
        assert!(!m.mark(0));
    }
}
