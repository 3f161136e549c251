//! Per-module state: MRAM capacity and busy-time accounting.

use crate::config::PimConfig;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// State of one PIM module (one UPMEM DPU): its MRAM capacity and the busy
/// time it has accumulated, used to quantify load (im)balance across modules.
///
/// # Examples
///
/// ```
/// use pim_sim::{PimConfig, PimModule, SimTime};
/// let cfg = PimConfig::small_test();
/// let mut m = PimModule::new(0, &cfg);
/// m.add_busy_time(SimTime::from_micros(5.0));
/// assert_eq!(m.busy_time().as_micros(), 5.0);
/// assert_eq!(m.mram_capacity_bytes(), cfg.mram_capacity_bytes);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PimModule {
    id: usize,
    mram_capacity_bytes: u64,
    busy_time: SimTime,
}

impl PimModule {
    /// Creates a module with the capacity from `config`.
    pub fn new(id: usize, config: &PimConfig) -> Self {
        PimModule { id, mram_capacity_bytes: config.mram_capacity_bytes, busy_time: SimTime::ZERO }
    }

    /// The module's index within its rank.
    pub fn id(&self) -> usize {
        self.id
    }

    /// MRAM capacity in bytes.
    pub fn mram_capacity_bytes(&self) -> u64 {
        self.mram_capacity_bytes
    }

    /// Adds busy time accumulated by a task executed on this module.
    pub fn add_busy_time(&mut self, t: SimTime) {
        self.busy_time += t;
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_accumulates() {
        let cfg = PimConfig::small_test();
        let mut m = PimModule::new(0, &cfg);
        m.add_busy_time(SimTime::from_micros(1.0));
        m.add_busy_time(SimTime::from_micros(2.0));
        assert_eq!(m.busy_time().as_micros(), 3.0);
        assert_eq!((m.id(), m.mram_capacity_bytes()), (0, cfg.mram_capacity_bytes));
    }
}
