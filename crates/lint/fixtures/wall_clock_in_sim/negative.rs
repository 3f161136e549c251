//! D2 negative fixture — linted as `crates/bench/src/fixture.rs`: the
//! experiment harness reports simulated time, and naming a clock type without
//! reading it is not a finding.

use std::time::{Duration, Instant};

/// Simulated nanoseconds, as the cost model hands them out.
pub struct SimNanos(pub f64);

/// Formats a simulated latency; no clock is read.
pub fn report(latency: SimNanos) -> String {
    format!("{:.3} ms", latency.0 / 1e6)
}

/// A deadline computed by a caller that owns a clock (type position only).
pub fn remaining(deadline: Instant, at: Instant) -> Duration {
    deadline.saturating_duration_since(at)
}
