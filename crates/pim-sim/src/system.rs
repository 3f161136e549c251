//! The simulated PIM system: cost-model entry points.

use crate::config::PimConfig;
use crate::time::SimTime;

/// A host CPU plus a set of PIM modules, with cost-model helpers.
///
/// `PimSystem` does not execute user code; the query engines execute their
/// algorithms directly and call these helpers to convert the work they did
/// (bytes touched, lookups performed, items transferred) into simulated time.
/// Keeping the cost model in one place guarantees that Moctopus, PIM-hash and
/// the host baseline are charged with identical rules.
///
/// # Examples
///
/// ```
/// use pim_sim::{PimConfig, PimSystem};
///
/// let sys = PimSystem::new(PimConfig::upmem_rank());
/// // Moving a batch over the shared CPU<->PIM bus is far slower than every
/// // module streaming its share of the same data from local MRAM in parallel.
/// let total_bytes = 8 << 20;
/// let per_module = total_bytes / sys.module_count() as u64;
/// assert!(sys.cpc_transfer_cost(total_bytes) > sys.mram_read_cost(per_module));
/// ```
#[derive(Debug, Clone)]
pub struct PimSystem {
    config: PimConfig,
    /// Busy time each module has accumulated, for the load-imbalance report.
    busy: Vec<SimTime>,
}

impl PimSystem {
    /// Creates a system with `config.num_modules` idle modules.
    pub fn new(config: PimConfig) -> Self {
        PimSystem { busy: vec![SimTime::ZERO; config.num_modules], config }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Number of PIM modules.
    pub fn module_count(&self) -> usize {
        self.busy.len()
    }

    // ------------------------------------------------------------------
    // PIM-side costs
    // ------------------------------------------------------------------

    /// Time for one module to stream `bytes` from its MRAM.
    pub fn mram_read_cost(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let transfer = bytes as f64 / self.config.intra_pim_bandwidth * 1e9;
        SimTime::from_nanos(self.config.mram_access_latency_ns + transfer)
    }

    /// Time for one module to write `bytes` to its MRAM.
    pub fn mram_write_cost(&self, bytes: u64) -> SimTime {
        // Write bandwidth on UPMEM is close to read bandwidth; reuse the model.
        self.mram_read_cost(bytes)
    }

    /// Time for one module to execute `count` simple instructions (hash
    /// probes, comparisons, pointer arithmetic) from its working memory.
    pub fn pim_instructions_cost(&self, count: u64) -> SimTime {
        SimTime::from_nanos(count as f64 / self.config.pim_instruction_rate * 1e9)
    }

    /// Time for one module to perform a hash-map lookup over a row of
    /// `row_bytes` bytes: one MRAM access for the bucket plus a streaming read
    /// of the row data, plus the probe instructions.
    pub fn pim_hash_lookup_cost(&self, row_bytes: u64) -> SimTime {
        self.mram_read_cost(row_bytes.max(8)) + self.pim_instructions_cost(40)
    }

    /// Completes a parallel step: every module `i` is charged
    /// `per_module[i]`, and the step's latency is the slowest module.
    ///
    /// # Panics
    ///
    /// Panics if `per_module.len() != module_count()`.
    pub fn parallel_step(&mut self, per_module: &[SimTime]) -> SimTime {
        assert_eq!(per_module.len(), self.busy.len(), "one time entry per module is required");
        let mut max = SimTime::ZERO;
        for (busy, &t) in self.busy.iter_mut().zip(per_module) {
            if !t.is_zero() {
                *busy += t;
            }
            max = max.max(t);
        }
        max
    }

    // ------------------------------------------------------------------
    // Communication costs
    // ------------------------------------------------------------------

    /// Time to move `bytes` across the CPU↔PIM bus in one direction.
    pub fn cpc_transfer_cost(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let transfer = bytes as f64 / self.config.cpc_bandwidth * 1e9;
        SimTime::from_nanos(self.config.cpc_latency_ns + transfer)
    }

    /// Time to move `bytes` between two PIM modules.
    ///
    /// UPMEM has no direct module-to-module link: the CPU reads the data out
    /// of the source module and writes it into the destination module, so the
    /// bytes cross the narrow bus twice.
    pub fn ipc_transfer_cost(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.cpc_transfer_cost(bytes) + self.cpc_transfer_cost(bytes)
    }

    // ------------------------------------------------------------------
    // Host-side costs
    // ------------------------------------------------------------------

    /// Time for the host core to stream `bytes` sequentially from DRAM,
    /// assuming the data misses the last-level cache (graph data is far larger
    /// than the cache in the paper's workloads).
    pub fn host_sequential_read_cost(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_nanos(bytes as f64 / self.config.host.sequential_bandwidth * 1e9)
    }

    /// Time for the host core to perform `count` random accesses, each
    /// touching one cache line. `resident_bytes` is the size of the structure
    /// being accessed; accesses to structures that fit in the last-level cache
    /// are charged the cache-hit latency instead of a DRAM miss.
    pub fn host_random_access_cost(&self, count: u64, resident_bytes: u64) -> SimTime {
        if count == 0 {
            return SimTime::ZERO;
        }
        let per_access = if resident_bytes <= self.config.host.cache_capacity_bytes {
            self.config.host.cache_hit_latency_ns
        } else {
            // Partial cache residency: interpolate between hit and miss cost.
            let fit = self.config.host.cache_capacity_bytes as f64 / resident_bytes as f64;
            fit * self.config.host.cache_hit_latency_ns
                + (1.0 - fit) * self.config.host.random_access_latency_ns
        };
        SimTime::from_nanos(count as f64 * per_access)
    }

    /// Time for the host core to execute `count` simple instructions.
    pub fn host_instructions_cost(&self, count: u64) -> SimTime {
        SimTime::from_nanos(count as f64 / self.config.host.instruction_rate * 1e9)
    }

    // ------------------------------------------------------------------
    // Load-balance reporting
    // ------------------------------------------------------------------

    /// Load-imbalance factor: max module busy time divided by the mean.
    ///
    /// Returns 1.0 when all modules are idle.
    pub fn load_imbalance(&self) -> f64 {
        let times: Vec<f64> = self.busy.iter().map(|t| t.as_nanos()).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> PimSystem {
        PimSystem::new(PimConfig::small_test())
    }

    #[test]
    fn mram_read_cost_scales_with_bytes() {
        let s = sys();
        let small = s.mram_read_cost(64);
        let large = s.mram_read_cost(64 * 1024);
        assert!(large > small);
        assert_eq!(s.mram_read_cost(0), SimTime::ZERO);
    }

    #[test]
    fn cpc_is_much_slower_than_aggregate_mram() {
        // The CPU<->PIM bus is shared by all modules of a rank, so moving N
        // bytes over it is far slower than every module streaming its N/P
        // share of the same data from local MRAM in parallel.
        let s = PimSystem::new(PimConfig::upmem_rank());
        let total_bytes: u64 = 8 << 20;
        let per_module = total_bytes / s.module_count() as u64;
        let parallel_local = s.mram_read_cost(per_module);
        let bus = s.cpc_transfer_cost(total_bytes);
        assert!(bus > parallel_local * 2.0);
    }

    #[test]
    fn ipc_costs_two_bus_crossings() {
        let s = sys();
        let one_way = s.cpc_transfer_cost(1024);
        let ipc = s.ipc_transfer_cost(1024);
        assert!((ipc.as_nanos() - 2.0 * one_way.as_nanos()).abs() < 1e-6);
        assert_eq!(s.ipc_transfer_cost(0), SimTime::ZERO);
    }

    #[test]
    fn parallel_step_latency_is_the_straggler() {
        let mut s = sys();
        let mut times = vec![SimTime::ZERO; s.module_count()];
        times[2] = SimTime::from_micros(10.0);
        times[5] = SimTime::from_micros(3.0);
        let step = s.parallel_step(&times);
        assert_eq!(step.as_micros(), 10.0);
        assert_eq!(s.busy[2].as_micros(), 10.0);
        assert_eq!(s.busy[0], SimTime::ZERO);
        s.parallel_step(&times);
        assert_eq!((s.busy[2].as_micros(), s.busy[5].as_micros()), (20.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "one time entry per module")]
    fn parallel_step_requires_full_vector() {
        let mut s = sys();
        let _ = s.parallel_step(&[SimTime::ZERO]);
    }

    #[test]
    fn load_imbalance_reflects_skew() {
        let mut s = sys();
        assert_eq!(s.load_imbalance(), 1.0);
        let mut even = vec![SimTime::from_micros(1.0); s.module_count()];
        s.parallel_step(&even);
        assert!((s.load_imbalance() - 1.0).abs() < 1e-9);
        even[0] = SimTime::from_micros(100.0);
        s.parallel_step(&even);
        assert!(s.load_imbalance() > 2.0);
    }

    #[test]
    fn host_random_access_respects_cache_capacity() {
        let s = sys();
        let in_cache = s.host_random_access_cost(1000, 1 << 20);
        let out_of_cache = s.host_random_access_cost(1000, 1 << 30);
        assert!(out_of_cache > in_cache);
        assert_eq!(s.host_random_access_cost(0, 1 << 30), SimTime::ZERO);
    }

    #[test]
    fn host_sequential_read_is_fast() {
        let s = sys();
        let bytes = 1 << 20;
        assert!(
            s.host_sequential_read_cost(bytes) < s.host_random_access_cost(bytes / 64, 1 << 30)
        );
    }

    #[test]
    fn instruction_costs_scale_linearly() {
        let s = sys();
        let one = s.pim_instructions_cost(1000);
        let ten = s.pim_instructions_cost(10_000);
        assert!((ten.as_nanos() - 10.0 * one.as_nanos()).abs() < 1e-6);
        let h1 = s.host_instructions_cost(1000);
        assert!(h1 < one, "host core is faster than a PIM core");
    }

    #[test]
    fn hash_lookup_includes_latency_floor() {
        let s = sys();
        let cost = s.pim_hash_lookup_cost(0);
        assert!(cost.as_nanos() >= s.config().mram_access_latency_ns);
    }
}
