//! Order statistics, the seeded generators the op streams draw from, and the
//! input checksum. Pure arithmetic: nothing here touches a library crate.

/// Nearest-rank quantile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle order statistics (the usual
/// definition, so an even-sized sample does not lean high or low).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `statistics.quantiles(values, n=4)` of Python (exclusive method), as the
/// benchmark contract defines run-to-run spread: `(q3 - q1) / median`.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |k: usize| {
        // Python: j = k*(n+1)/4 clamped to 1..n-1, interpolate between v[j-1], v[j].
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = cut(2);
    if med == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / med
    }
}

/// FNV-1a, 64 bit: the input checksum (edge stream and op list).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer in (little endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The checksum so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the op streams' only source of randomness, owned by the
/// harness so a change to the repository's `rand` stand-in cannot reshuffle
/// a workload.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`); the modulo bias is below 2^-40
    /// for every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(1/r) weights over ranks `0..n`: rank `r` weighs `1/(r+1)`, normalised
/// to sum to one.
pub fn zipf_weights(n: usize) -> Vec<f64> {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    (1..=n).map(|r| 1.0 / r as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        // 200 samples leave exactly ten beyond p95.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(v.iter().filter(|&&x| x > quantile(&v, 0.95)).count(), 10);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut r = SplitMix64::new(9);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn zipf_weights_sum_to_one_and_fall_as_one_over_rank() {
        let w = zipf_weights(32);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[0] / w[3] - 4.0).abs() < 1e-12);
        // 1/H(32) = 0.246: rank 0 takes about a quarter of the requests.
        assert!((0.24..0.25).contains(&w[0]));
    }
}
