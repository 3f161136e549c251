//! Platform configuration: bandwidths, latencies, capacities.
//!
//! Default figures follow the UPMEM platform characterisation used by the
//! paper (Gómez-Luna et al., "Benchmarking a new paradigm", 2021) and the
//! paper's own Section 2.2/4.1: 64 PIM modules per rank, 64 MB MRAM per
//! module, ~1.28 TB/s aggregate intra-PIM bandwidth across 2048 modules
//! (~625 MB/s per module), and ~25 GB/s of total CPU↔PIM bandwidth across the
//! whole 2048-module system — which is what makes CPC/IPC "less than 2 % of
//! intra-PIM bandwidth".

/// Host-CPU cost-model parameters (one dedicated core, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Sequential DRAM read bandwidth available to the dedicated core, bytes/s.
    pub sequential_bandwidth: f64,
    /// Latency of a random DRAM access that misses the last-level cache, ns.
    pub random_access_latency_ns: f64,
    /// Latency of a last-level-cache hit, ns.
    pub cache_hit_latency_ns: f64,
    /// Last-level cache capacity in bytes (22 MB L3 in the paper's Xeon).
    pub cache_capacity_bytes: u64,
    /// Simple-instruction throughput of the core, instructions/s.
    pub instruction_rate: f64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            sequential_bandwidth: 12.0e9,
            random_access_latency_ns: 90.0,
            cache_hit_latency_ns: 18.0,
            cache_capacity_bytes: 22 * 1024 * 1024,
            instruction_rate: 2.1e9 * 2.0, // 2.1 GHz, ~2 IPC on simple loops
        }
    }
}

/// Full PIM-platform configuration.
///
/// # Examples
///
/// ```
/// use pim_sim::PimConfig;
/// let cfg = PimConfig::upmem_rank();
/// assert_eq!(cfg.num_modules, 64);
/// // System-wide, CPU<->PIM bandwidth is a tiny fraction of aggregate
/// // intra-PIM bandwidth (the paper's "< 2%" figure).
/// assert!(cfg.communication_ratio() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimConfig {
    /// Number of PIM modules available to the system (a rank = 64 on UPMEM).
    pub num_modules: usize,
    /// Streaming MRAM bandwidth available to one module's core, bytes/s.
    pub intra_pim_bandwidth: f64,
    /// Fixed latency of issuing one MRAM transfer from the module core, ns.
    pub mram_access_latency_ns: f64,
    /// Simple-instruction throughput of one PIM core, instructions/s.
    pub pim_instruction_rate: f64,
    /// Total CPU<->PIM (CPC) bandwidth shared by all modules in use, bytes/s.
    pub cpc_bandwidth: f64,
    /// Fixed per-transfer latency of a CPC batch (driver + DMA setup), ns.
    pub cpc_latency_ns: f64,
    /// Cost model of the host CPU core that orchestrates the system.
    pub host: HostConfig,
}

impl PimConfig {
    /// Total CPU↔PIM bandwidth of the full 2048-module system (bytes/s); the
    /// "roughly 25 GB/s" figure the paper quotes against 1.28 TB/s of
    /// aggregate intra-PIM bandwidth (< 2 %).
    pub const SYSTEM_CPC_BANDWIDTH: f64 = 25.0e9;
    /// Number of PIM modules in the full system the paper describes.
    const SYSTEM_MODULES: usize = 2048;

    /// Configuration of one UPMEM rank (64 modules), the setup used in the
    /// paper's evaluation alongside a dedicated host core.
    pub fn upmem_rank() -> Self {
        PimConfig {
            num_modules: 64,
            // 1.28 TB/s over 2048 modules => 625 MB/s per module.
            intra_pim_bandwidth: 625.0e6,
            mram_access_latency_ns: 600.0,
            // 350 MHz DPU, roughly one simple instruction per cycle.
            pim_instruction_rate: 350.0e6,
            // Rank-level CPU<->DPU DMA bandwidth (PrIM characterisation);
            // using more ranks shares the ~25 GB/s system total.
            cpc_bandwidth: 6.0e9,
            cpc_latency_ns: 2000.0,
            host: HostConfig::default(),
        }
    }

    /// A small configuration for unit tests and doc examples (8 modules).
    pub fn small_test() -> Self {
        PimConfig { num_modules: 8, ..PimConfig::upmem_rank() }
    }

    /// Returns a copy with a different module count. Per-module MRAM bandwidth
    /// is preserved; CPU↔PIM bandwidth scales with the number of ranks in use
    /// but never exceeds the ~25 GB/s system total.
    pub fn with_modules(self, num_modules: usize) -> Self {
        let ranks = (num_modules as f64 / 64.0).max(1.0);
        PimConfig {
            num_modules,
            cpc_bandwidth: (6.0e9 * ranks).min(Self::SYSTEM_CPC_BANDWIDTH),
            ..self
        }
    }

    /// Ratio of the full system's CPU↔PIM bandwidth to its aggregate intra-PIM
    /// bandwidth (25 GB/s against 1.28 TB/s).
    ///
    /// On the real platform this is below 2 %, the imbalance that motivates
    /// locality-preserving partitioning.
    pub fn communication_ratio(&self) -> f64 {
        Self::SYSTEM_CPC_BANDWIDTH / (self.intra_pim_bandwidth * Self::SYSTEM_MODULES as f64)
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        PimConfig::upmem_rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upmem_rank_matches_paper_figures() {
        let cfg = PimConfig::upmem_rank();
        assert_eq!(cfg.num_modules, 64);
        // The CPC/intra ratio must be below the 2% the paper quotes.
        assert!(cfg.communication_ratio() < 0.02, "ratio = {}", cfg.communication_ratio());
    }

    #[test]
    fn with_modules_rescales_cpc_up_to_the_system_cap() {
        let full = PimConfig::upmem_rank().with_modules(2048);
        assert!((full.cpc_bandwidth - PimConfig::SYSTEM_CPC_BANDWIDTH).abs() < 1.0);
        assert_eq!(full.num_modules, 2048);
        let rank = full.with_modules(64);
        assert!(rank.cpc_bandwidth < full.cpc_bandwidth);
        // Fewer modules than a rank still get the rank's DMA bandwidth.
        let tiny = full.with_modules(8);
        assert!((tiny.cpc_bandwidth - 6.0e9).abs() < 1.0);
    }

    #[test]
    fn small_test_config_is_smaller() {
        let cfg = PimConfig::small_test();
        assert_eq!(cfg.num_modules, 8);
        assert_eq!(PimConfig { num_modules: 64, ..cfg }, PimConfig::upmem_rank());
    }

    #[test]
    fn default_host_config_is_sane() {
        let host = HostConfig::default();
        assert!(host.sequential_bandwidth > 1e9);
        assert!(host.random_access_latency_ns > host.cache_hit_latency_ns);
    }
}
