//! Per-module state: memory occupancy and busy-time accounting.

use crate::config::PimConfig;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// State of one PIM module (one UPMEM DPU): MRAM occupancy and the busy time
/// it has accumulated, used to quantify load (im)balance across modules.
///
/// # Examples
///
/// ```
/// use pim_sim::{PimConfig, PimModule, SimTime};
/// let cfg = PimConfig::small_test();
/// let mut m = PimModule::new(0, &cfg);
/// m.reserve_bytes(1024)?;
/// m.add_busy_time(SimTime::from_micros(5.0));
/// assert_eq!(m.mram_used_bytes(), 1024);
/// # Ok::<(), pim_sim::module::MramOverflow>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PimModule {
    id: usize,
    mram_capacity_bytes: u64,
    mram_used_bytes: u64,
    busy_time: SimTime,
    tasks_executed: u64,
}

/// Error returned when a module's MRAM capacity would be exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MramOverflow {
    /// Module that overflowed.
    pub module: usize,
    /// Bytes requested beyond capacity.
    pub requested: u64,
    /// Module capacity in bytes.
    pub capacity: u64,
}

impl std::fmt::Display for MramOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mram overflow on module {}: requested {} bytes with capacity {}",
            self.module, self.requested, self.capacity
        )
    }
}

impl std::error::Error for MramOverflow {}

impl PimModule {
    /// Creates a module with the capacity from `config`.
    pub fn new(id: usize, config: &PimConfig) -> Self {
        PimModule {
            id,
            mram_capacity_bytes: config.mram_capacity_bytes,
            mram_used_bytes: 0,
            busy_time: SimTime::ZERO,
            tasks_executed: 0,
        }
    }

    /// The module's index within its rank.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Reserves MRAM for graph data placed on this module.
    ///
    /// # Errors
    ///
    /// Returns [`MramOverflow`] if the reservation would exceed the module's
    /// MRAM capacity.
    pub fn reserve_bytes(&mut self, bytes: u64) -> Result<(), MramOverflow> {
        let new_total = self.mram_used_bytes + bytes;
        if new_total > self.mram_capacity_bytes {
            return Err(MramOverflow {
                module: self.id,
                requested: new_total,
                capacity: self.mram_capacity_bytes,
            });
        }
        self.mram_used_bytes = new_total;
        Ok(())
    }

    /// Currently reserved MRAM bytes.
    pub fn mram_used_bytes(&self) -> u64 {
        self.mram_used_bytes
    }

    /// MRAM capacity in bytes.
    pub fn mram_capacity_bytes(&self) -> u64 {
        self.mram_capacity_bytes
    }

    /// Adds busy time accumulated by a task executed on this module.
    pub fn add_busy_time(&mut self, t: SimTime) {
        self.busy_time += t;
        self.tasks_executed += 1;
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Number of tasks charged to this module.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed
    }

    /// Resets busy-time accounting (memory occupancy is preserved).
    pub fn reset_busy_time(&mut self) {
        self.busy_time = SimTime::ZERO;
        self.tasks_executed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_is_detected() {
        let cfg = PimConfig::small_test();
        let mut m = PimModule::new(1, &cfg);
        let cap = m.mram_capacity_bytes();
        m.reserve_bytes(1000).unwrap();
        assert_eq!(m.mram_used_bytes(), 1000);
        m.reserve_bytes(cap - 1000).unwrap();
        let err = m.reserve_bytes(1).unwrap_err();
        assert_eq!(err.module, 1);
        assert_eq!(err.capacity, cap);
        assert!(err.to_string().contains("mram overflow"));
    }

    #[test]
    fn busy_time_accumulates_and_resets() {
        let cfg = PimConfig::small_test();
        let mut m = PimModule::new(0, &cfg);
        m.add_busy_time(SimTime::from_micros(1.0));
        m.add_busy_time(SimTime::from_micros(2.0));
        assert_eq!(m.busy_time().as_micros(), 3.0);
        assert_eq!(m.tasks_executed(), 2);
        m.reset_busy_time();
        assert!(m.busy_time().is_zero());
        assert_eq!(m.tasks_executed(), 0);
    }
}
