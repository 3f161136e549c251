//! D2 positive fixture for the experiment harness — linted as
//! `crates/bench/src/bin/fixture.rs`: `crates/bench` prints the paper's
//! simulated tables and figures and has no carve-out; wall-clock belongs in
//! `perf/`.

use std::time::Instant;

/// Times a closure on the host clock inside an experiment binary.
pub fn measure<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}
