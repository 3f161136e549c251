//! [`key_ranges`], the NFA-product loop's per-hop split: every entry of every
//! sorted list lands in exactly one range — the one whose `partition_point`
//! slice of its list (what a worker expands) holds it — the ranges ascend
//! from key 0 to `usize::MAX`, the same lists always give the same ranges,
//! and with distinct keys each range holds its exact share of the entries.

use moctopus_runtime::key_ranges;

/// Checks one split and returns the entries per range.
fn dealt(lists: &[Vec<usize>], parts: usize) -> Vec<usize> {
    let ranges = key_ranges(lists, parts);
    assert_eq!(ranges.len(), parts);
    assert_eq!(ranges, key_ranges(lists, parts), "a pure function of the lists");
    let mut next = 0;
    for r in &ranges {
        assert!(r.start == next && r.end >= r.start, "ranges must ascend: {ranges:?}");
        next = r.end;
    }
    assert_eq!(next, usize::MAX, "ranges must cover the key space: {ranges:?}");
    // A range ends where the next one's first entry is.
    let is_entry = |key: &usize| lists.iter().any(|list| list.binary_search(key).is_ok());
    let entries: usize = lists.iter().map(Vec::len).sum();
    assert!(entries == 0 || ranges[..parts - 1].iter().all(|r| is_entry(&r.end)), "{ranges:?}");
    let mut dealt = vec![0; parts];
    for list in lists {
        let mut slices: Vec<usize> = Vec::new();
        for (worker, r) in ranges.iter().enumerate() {
            let slice = &list[list.partition_point(|&k| k < r.start)..];
            let slice = &slice[..slice.partition_point(|&k| k < r.end)];
            assert!(slice.iter().all(|key| r.contains(key)));
            slices.extend_from_slice(slice);
            dealt[worker] += slice.len();
        }
        assert_eq!(&slices, list, "every entry in exactly one slice, in order");
    }
    dealt
}

/// The exact shares of `entries` distinct keys over `parts` ranges.
fn shares(entries: usize, parts: usize) -> Vec<usize> {
    (0..parts).map(|w| (w + 1) * entries / parts - w * entries / parts).collect()
}

#[test]
fn every_entry_lands_in_exactly_one_range() {
    // Three lists woven key by key; one long list beside 300 one-entry
    // lists far above it; a list holding one key twice.
    let woven: Vec<Vec<usize>> = (0..3).map(|q| (0..1000).map(|i| 3 * i + q).collect()).collect();
    let mut mixed: Vec<Vec<usize>> = vec![(0..900).map(|i| 2 * i).collect()];
    mixed.extend((0..300).map(|q| vec![1_000_000 + 7 * q]));
    for parts in [1, 2, 3, 4, 8] {
        // No list, or only empty ones.
        assert_eq!(dealt(&[], parts), vec![0; parts]);
        assert_eq!(dealt(&[vec![], vec![]], parts), vec![0; parts]);
        // More parts than entries: the trailing ranges are empty.
        assert_eq!(dealt(&[vec![3], vec![], vec![9]], parts), shares(2, parts));
        // Every list's entries on one key: one range takes them all.
        let one_key = dealt(&vec![vec![5]; 6], parts);
        assert_eq!(one_key.iter().filter(|&&n| n > 0).collect::<Vec<_>>(), [&6]);
        assert_eq!(dealt(&woven, parts), shares(3000, parts));
        assert_eq!(dealt(&mixed, parts), shares(1200, parts));
        assert_eq!(dealt(&[vec![4, 7, 7, 8]], parts).iter().sum::<usize>(), 4);
    }
}
