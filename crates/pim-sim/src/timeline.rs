//! Per-phase breakdown of a simulated operation.
//!
//! The paper attributes query latency to distinct phases: host-side compute,
//! PIM-side compute, CPU–PIM communication (CPC), inter-PIM communication
//! (IPC, forwarded by the CPU), and the final result reduction. [`Timeline`]
//! accumulates time into those phases and carries the raw
//! [`TransferStats`] so experiments such as Figure 5
//! (IPC cost) can be reported directly.

use crate::time::SimTime;
use crate::transfer::TransferStats;
use std::fmt;
use std::ops::{Add, AddAssign};

/// The phase a charged cost belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Work executed on the host CPU (high-degree rows, planning, merging).
    HostCompute,
    /// Work executed inside PIM modules (low-degree rows).
    PimCompute,
    /// CPU→PIM and PIM→CPU transfers (dispatch and gather).
    Cpc,
    /// Inter-PIM transfers, forwarded through the host CPU.
    Ipc,
    /// Result reduction / deduplication on the host (the `mwait` operator).
    Reduce,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 5] =
        [Phase::HostCompute, Phase::PimCompute, Phase::Cpc, Phase::Ipc, Phase::Reduce];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::HostCompute => "host",
            Phase::PimCompute => "pim",
            Phase::Cpc => "cpc",
            Phase::Ipc => "ipc",
            Phase::Reduce => "reduce",
        };
        write!(f, "{s}")
    }
}

/// Accumulated simulated time per phase plus transfer statistics.
///
/// # Examples
///
/// ```
/// use pim_sim::{Phase, SimTime, Timeline};
/// let mut t = Timeline::new();
/// t.charge(Phase::PimCompute, SimTime::from_micros(10.0));
/// t.charge(Phase::Ipc, SimTime::from_micros(2.0));
/// assert_eq!(t.total().as_micros(), 12.0);
/// assert_eq!(t.time(Phase::Ipc).as_micros(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timeline {
    host_compute: SimTime,
    pim_compute: SimTime,
    cpc: SimTime,
    ipc: SimTime,
    reduce: SimTime,
    /// Raw transfer counters accumulated alongside the time charges.
    pub transfers: TransferStats,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `time` to the given phase.
    pub fn charge(&mut self, phase: Phase, time: SimTime) {
        match phase {
            Phase::HostCompute => self.host_compute += time,
            Phase::PimCompute => self.pim_compute += time,
            Phase::Cpc => self.cpc += time,
            Phase::Ipc => self.ipc += time,
            Phase::Reduce => self.reduce += time,
        }
    }

    /// Time accumulated in one phase.
    pub fn time(&self, phase: Phase) -> SimTime {
        match phase {
            Phase::HostCompute => self.host_compute,
            Phase::PimCompute => self.pim_compute,
            Phase::Cpc => self.cpc,
            Phase::Ipc => self.ipc,
            Phase::Reduce => self.reduce,
        }
    }

    /// End-to-end simulated time (phases are executed sequentially).
    ///
    /// Host and PIM compute of the same hop overlap only partially in the real
    /// system; summing them is the conservative model the reproduction uses
    /// consistently for every engine, so relative comparisons remain fair.
    pub fn total(&self) -> SimTime {
        self.host_compute + self.pim_compute + self.cpc + self.ipc + self.reduce
    }

    /// Communication time (CPC + IPC).
    pub fn communication(&self) -> SimTime {
        self.cpc + self.ipc
    }
}

impl Add for Timeline {
    type Output = Timeline;
    fn add(self, rhs: Timeline) -> Timeline {
        Timeline {
            host_compute: self.host_compute + rhs.host_compute,
            pim_compute: self.pim_compute + rhs.pim_compute,
            cpc: self.cpc + rhs.cpc,
            ipc: self.ipc + rhs.ipc,
            reduce: self.reduce + rhs.reduce,
            transfers: self.transfers + rhs.transfers,
        }
    }
}

impl AddAssign for Timeline {
    fn add_assign(&mut self, rhs: Timeline) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} (host {}, pim {}, cpc {}, ipc {}, reduce {})",
            self.total(),
            self.host_compute,
            self.pim_compute,
            self.cpc,
            self.ipc,
            self.reduce
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_phase() {
        let mut t = Timeline::new();
        t.charge(Phase::HostCompute, SimTime::from_nanos(10.0));
        t.charge(Phase::HostCompute, SimTime::from_nanos(5.0));
        t.charge(Phase::Cpc, SimTime::from_nanos(20.0));
        assert_eq!(t.time(Phase::HostCompute).as_nanos(), 15.0);
        assert_eq!(t.time(Phase::Cpc).as_nanos(), 20.0);
        assert_eq!(t.time(Phase::Reduce), SimTime::ZERO);
        assert_eq!(t.total().as_nanos(), 35.0);
    }

    #[test]
    fn communication_sums_cpc_and_ipc() {
        let mut t = Timeline::new();
        t.charge(Phase::Cpc, SimTime::from_nanos(7.0));
        t.charge(Phase::Ipc, SimTime::from_nanos(3.0));
        assert_eq!(t.communication().as_nanos(), 10.0);
    }

    #[test]
    fn timelines_add_componentwise() {
        let mut a = Timeline::new();
        a.charge(Phase::PimCompute, SimTime::from_nanos(1.0));
        a.transfers.record_inter_pim(8, 1);
        let mut b = Timeline::new();
        b.charge(Phase::Reduce, SimTime::from_nanos(2.0));
        b.transfers.record_cpu_to_pim(16, 1);
        let c = a + b;
        assert_eq!(c.total().as_nanos(), 3.0);
        assert_eq!(c.transfers.inter_pim_bytes, 8);
        assert_eq!(c.transfers.cpu_to_pim_bytes, 16);
        a += b;
        assert_eq!(a, c);
    }

    #[test]
    fn phase_display_names() {
        let names: Vec<String> = Phase::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["host", "pim", "cpc", "ipc", "reduce"]);
    }

    #[test]
    fn display_mentions_total() {
        let mut t = Timeline::new();
        t.charge(Phase::Reduce, SimTime::from_millis(1.0));
        assert!(t.to_string().contains("total"));
    }
}
