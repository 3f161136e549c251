//! System configuration shared by the PIM-based engines.

use graph_partition::GreedyAdaptiveConfig;
use pim_sim::PimConfig;

/// Configuration of a Moctopus (or PIM-hash) deployment.
///
/// # Examples
///
/// ```
/// use moctopus::MoctopusConfig;
/// let cfg = MoctopusConfig::paper_defaults();
/// assert_eq!(cfg.pim.num_modules, 64);
/// assert!(cfg.labor_division);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoctopusConfig {
    /// The simulated PIM platform (module count, bandwidths, latencies).
    pub pim: PimConfig,
    /// Enables labor division (host handles high-degree nodes). Disabled for
    /// the PIM-hash contrast system and for ablations.
    pub labor_division: bool,
    /// Host worker threads the engines use to execute per-module work in
    /// parallel (`moctopus_runtime::WorkerPool`). `0` means "use the
    /// machine's available parallelism". This knob changes **wall-clock
    /// only**: simulated results, `SimTime`, and transfer tallies are
    /// byte-identical at every thread count (see CONCURRENCY.md).
    pub threads: usize,
}

impl MoctopusConfig {
    /// The configuration used in the paper's evaluation: one UPMEM rank
    /// (64 PIM modules) plus a dedicated host core.
    ///
    /// The execution-runtime thread count defaults to 1 (the deterministic
    /// baseline the unit tests pin their cost oracles against) unless the
    /// `MOCTOPUS_THREADS` environment variable overrides it — that override
    /// is how CI runs the whole test suite at `--threads 4` to prove the
    /// suite's assertions hold at any thread count. Experiment binaries set
    /// their own default (available parallelism) through `--threads`.
    pub fn paper_defaults() -> Self {
        MoctopusConfig {
            pim: PimConfig::upmem_rank(),
            labor_division: true,
            threads: Self::default_threads(),
        }
    }

    /// The default worker-thread count: `MOCTOPUS_THREADS` if set and
    /// parseable, 1 otherwise.
    fn default_threads() -> usize {
        std::env::var("MOCTOPUS_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
    }

    /// Returns a copy configured for a different worker-thread count
    /// (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// A small 8-module configuration for unit tests and doc examples.
    pub fn small_test() -> Self {
        MoctopusConfig { pim: PimConfig::small_test(), ..Self::paper_defaults() }
    }

    /// Returns a copy configured for a different number of PIM modules.
    pub fn with_modules(mut self, num_modules: usize) -> Self {
        self.pim = self.pim.with_modules(num_modules);
        self
    }

    /// The partitioner configuration implied by this system configuration:
    /// the paper's defaults over this module count, with this labor-division
    /// setting.
    pub fn partitioner_config(&self) -> GreedyAdaptiveConfig {
        GreedyAdaptiveConfig {
            labor_division: self.labor_division,
            ..GreedyAdaptiveConfig::paper_defaults(self.pim.num_modules)
        }
    }
}

impl Default for MoctopusConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper_parameters() {
        let cfg = MoctopusConfig::paper_defaults();
        assert_eq!(cfg.pim.num_modules, 64);
        assert!(cfg.labor_division);
    }

    #[test]
    fn with_modules_propagates_to_pim_config() {
        let cfg = MoctopusConfig::paper_defaults().with_modules(16);
        assert_eq!(cfg.pim.num_modules, 16);
        assert_eq!(cfg.partitioner_config().num_pim_modules, 16);
    }

    #[test]
    fn partitioner_config_mirrors_flags() {
        let cfg = MoctopusConfig::small_test();
        assert_eq!(cfg.partitioner_config(), GreedyAdaptiveConfig::paper_defaults(8));
        let off = MoctopusConfig { labor_division: false, ..cfg };
        assert_eq!(
            off.partitioner_config(),
            GreedyAdaptiveConfig {
                labor_division: false,
                ..GreedyAdaptiveConfig::paper_defaults(8)
            }
        );
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(MoctopusConfig::default(), MoctopusConfig::paper_defaults());
    }

    #[test]
    fn with_threads_overrides_the_worker_count() {
        let cfg = MoctopusConfig::small_test().with_threads(4);
        assert_eq!(cfg.threads, 4);
        // `0` is the "available parallelism" sentinel, resolved by the pool.
        assert_eq!(MoctopusConfig::small_test().with_threads(0).threads, 0);
    }
}
