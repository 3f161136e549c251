//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, stored in nanoseconds.
///
/// `SimTime` is the unit every cost-model function returns. It is a simple
/// wrapper over `f64` nanoseconds with saturating-at-zero subtraction and the
/// arithmetic needed for accumulating phase breakdowns.
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
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Zero elapsed time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time span from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        SimTime(ns.max(0.0))
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
        self.0
    }

    /// The span in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 / 1e3
    }

    /// The span in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 / 1e6
    }

    /// The span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns `true` if the span is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating subtraction: never produces a negative span.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_nanos(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_nanos(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}ms", self.as_millis())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}us", self.as_micros())
        } else {
            write!(f, "{:.1}ns", self.0)
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
}
