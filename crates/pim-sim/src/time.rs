//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, stored in whole picoseconds.
///
/// `SimTime` is the unit every cost-model function returns. A cost model
/// computes in floating-point nanoseconds; the value is rounded to the
/// nearest picosecond once, where the span is made from a float
/// ([`from_nanos`](SimTime::from_nanos), [`from_micros`](SimTime::from_micros),
/// [`from_millis`](SimTime::from_millis) and the `f64` scaling operators).
/// Everything after that is integer arithmetic, saturating at both ends, so
/// a sum of spans is exact and the same in any order or grouping: a
/// parallel loop may add its charges wherever they arise.
///
/// # Examples
///
/// ```
/// use pim_sim::SimTime;
/// let a = SimTime::from_micros(2.0);
/// let b = SimTime::from_nanos(500.0);
/// assert_eq!((a + b).as_nanos(), 2500.0);
/// assert!(a.max(b) == a);
/// assert_eq!(SimTime::from_millis(1.0).as_micros(), 1000.0);
/// assert_eq!(SimTime::from_nanos(0.0004), SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero elapsed time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time span from nanoseconds, rounded to the nearest
    /// picosecond. A negative or NaN input is zero, and an input past the
    /// largest span saturates.
    pub fn from_nanos(ns: f64) -> Self {
        SimTime::from_picos(ns * 1e3)
    }

    /// The one rounding: `max` turns NaN into 0.0 and the cast saturates.
    /// `+ 0.5` and a truncating cast round half up without `f64::round`,
    /// which is a libm call on the cost model's hottest path.
    fn from_picos(ps: f64) -> Self {
        SimTime((ps.max(0.0) + 0.5) as u64)
    }

    /// Creates a time span from microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimTime::from_nanos(us * 1e3)
    }

    /// Creates a time span from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimTime::from_nanos(ms * 1e6)
    }

    /// The span in nanoseconds.
    pub fn as_nanos(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Returns `true` if the span is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating subtraction: never produces a negative span.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    /// Exact, saturating: `t * n` is `n` additions of `t`.
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_picos(self.0 as f64 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_picos(self.0 as f64 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_micros())
        } else {
            write!(f, "{:.1}ns", self.as_nanos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        let t = SimTime::from_millis(1500.0);
        assert_eq!(t.as_millis(), 1500.0);
        assert_eq!(t.as_micros(), 1.5e6);
        assert_eq!(t.as_nanos(), 1.5e9);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        assert_eq!(SimTime::from_nanos(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_nanos(3.0) - SimTime::from_nanos(10.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_works() {
        let a = SimTime::from_nanos(100.0);
        let b = SimTime::from_nanos(50.0);
        assert_eq!((a + b).as_nanos(), 150.0);
        assert_eq!((a - b).as_nanos(), 50.0);
        assert_eq!((a * 2.0).as_nanos(), 200.0);
        assert_eq!((a / 4.0).as_nanos(), 25.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_nanos(), 150.0);
    }

    #[test]
    fn sum_and_max_min() {
        let spans = [SimTime::from_nanos(1.0), SimTime::from_nanos(2.0), SimTime::from_nanos(3.0)];
        let total: SimTime = spans.iter().copied().sum();
        assert_eq!(total.as_nanos(), 6.0);
        assert_eq!(spans[0].max(spans[2]).as_nanos(), 3.0);
        assert_eq!(spans[0].min(spans[2]).as_nanos(), 1.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_nanos(12.0).to_string(), "12.0ns");
        assert_eq!(SimTime::from_micros(3.5).to_string(), "3.500us");
        assert_eq!(SimTime::from_millis(7.25).to_string(), "7.250ms");
        assert_eq!(SimTime::from_millis(2000.0).to_string(), "2.000s");
    }

    #[test]
    fn zero_detection() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_nanos(0.1).is_zero());
    }

    /// Mixed cost values as the cost model makes them: fractions of a
    /// nanosecond, odd microseconds, milliseconds, sub-picosecond dust.
    fn mixed_costs() -> Vec<SimTime> {
        let ns = [0.1, 0.7, 1e-9, 3.33, 0.001, 123.456, 2.5e6, 42.42, 1e3 / 3.0, 7.77e-4, 0.2];
        (0..96).map(|i| SimTime::from_nanos(ns[i % ns.len()] * (1 + i / 7) as f64)).collect()
    }

    #[test]
    fn a_shuffled_sum_has_the_same_bits_in_every_order_and_grouping() {
        let (mut costs, mut state) = (mixed_costs(), 0x9e37_79b9_7f4a_7c15u64);
        let forward: SimTime = costs.iter().copied().sum();
        for round in 0..64 {
            for i in (1..costs.len()).rev() {
                state ^= state << 13; // xorshift, then a Fisher-Yates step
                state ^= state >> 7;
                state ^= state << 17;
                costs.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let parts: SimTime =
                costs.chunks(1 + round % 13).map(|c| c.iter().copied().sum()).sum();
            assert_eq!((costs.iter().copied().sum(), parts), (forward, forward), "round {round}");
        }
    }

    #[test]
    fn integer_scaling_is_repeated_addition() {
        for (t, n) in mixed_costs().into_iter().flat_map(|t| [0, 1, 3, 64, 1000].map(|n| (t, n))) {
            assert_eq!(t * n, (0..n).map(|_| t).sum(), "{t:?} * {n}");
        }
    }

    #[test]
    fn floats_round_to_the_nearest_picosecond_once() {
        let ps = SimTime::from_nanos(0.001);
        assert_eq!((SimTime::from_nanos(0.0004), SimTime::from_nanos(0.0005)), (SimTime::ZERO, ps));
        assert_eq!((SimTime::from_micros(1e-6), SimTime::from_millis(1e-9)), (ps, ps));
        let one = SimTime::from_nanos(1.0);
        assert_eq!((one * 0.0004, one / 2e3, one * 1.2346), (SimTime::ZERO, ps, ps * 1235));
    }

    #[test]
    fn negative_and_nan_inputs_clamp_to_zero() {
        let five = SimTime::from_nanos(5.0);
        for bad in [-1e-3, -5.0, f64::NEG_INFINITY, f64::NAN] {
            let made =
                [SimTime::from_nanos(bad), SimTime::from_micros(bad), SimTime::from_millis(bad)];
            assert_eq!(made, [SimTime::ZERO; 3], "{bad}");
            assert_eq!([five * bad, five / -bad.abs()], [SimTime::ZERO; 2], "{bad}");
        }
    }

    #[test]
    fn display_keeps_its_units_at_the_boundaries() {
        let shown =
            [0.04, 999.9, 1e3, 999_500.0, 1e6, 1e9].map(|ns| SimTime::from_nanos(ns).to_string());
        assert_eq!(shown, ["0.0ns", "999.9ns", "1.000us", "999.500us", "1.000ms", "1.000s"]);
    }
}
