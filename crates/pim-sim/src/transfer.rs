//! Accounting of data movement between the host and the PIM modules.

use std::ops::{Add, AddAssign};

/// Byte and message counters for every class of data movement.
///
/// The paper distinguishes CPU–PIM communication (CPC: dispatching operators,
/// pushing frontiers, gathering results) from inter-PIM communication (IPC:
/// next-hops that land on a different module, realised by CPU forwarding).
///
/// # Examples
///
/// ```
/// use pim_sim::TransferStats;
/// let mut stats = TransferStats::default();
/// stats.record_cpu_to_pim(1024, 1);
/// stats.record_inter_pim(256, 4);
/// assert_eq!(stats.total_bytes(), 1280);
/// assert_eq!(stats.inter_pim_bytes, 256);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Bytes pushed from the host CPU to PIM modules.
    pub cpu_to_pim_bytes: u64,
    /// Bytes gathered from PIM modules back to the host CPU.
    pub pim_to_cpu_bytes: u64,
    /// Bytes exchanged between PIM modules (forwarded through the CPU).
    pub inter_pim_bytes: u64,
    /// Number of CPU→PIM transfer batches.
    pub cpu_to_pim_messages: u64,
    /// Number of PIM→CPU transfer batches.
    pub pim_to_cpu_messages: u64,
    /// Number of inter-PIM forwarded messages.
    pub inter_pim_messages: u64,
}

impl TransferStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a host→module transfer batch.
    pub fn record_cpu_to_pim(&mut self, bytes: u64, messages: u64) {
        self.cpu_to_pim_bytes += bytes;
        self.cpu_to_pim_messages += messages;
    }

    /// Records a module→host transfer batch.
    pub fn record_pim_to_cpu(&mut self, bytes: u64, messages: u64) {
        self.pim_to_cpu_bytes += bytes;
        self.pim_to_cpu_messages += messages;
    }

    /// Records an inter-module transfer (forwarded through the CPU).
    pub fn record_inter_pim(&mut self, bytes: u64, messages: u64) {
        self.inter_pim_bytes += bytes;
        self.inter_pim_messages += messages;
    }

    /// Total bytes moved over the narrow CPU↔PIM bus.
    ///
    /// IPC bytes are counted once here even though the CPU forwards them
    /// (receive + resend); the time model charges the double crossing.
    pub fn total_bytes(&self) -> u64 {
        self.cpu_to_pim_bytes + self.pim_to_cpu_bytes + self.inter_pim_bytes
    }

    /// Total CPC bytes (excludes inter-PIM forwarding).
    pub fn cpc_bytes(&self) -> u64 {
        self.cpu_to_pim_bytes + self.pim_to_cpu_bytes
    }
}

impl Add for TransferStats {
    type Output = TransferStats;
    fn add(self, rhs: TransferStats) -> TransferStats {
        TransferStats {
            cpu_to_pim_bytes: self.cpu_to_pim_bytes + rhs.cpu_to_pim_bytes,
            pim_to_cpu_bytes: self.pim_to_cpu_bytes + rhs.pim_to_cpu_bytes,
            inter_pim_bytes: self.inter_pim_bytes + rhs.inter_pim_bytes,
            cpu_to_pim_messages: self.cpu_to_pim_messages + rhs.cpu_to_pim_messages,
            pim_to_cpu_messages: self.pim_to_cpu_messages + rhs.pim_to_cpu_messages,
            inter_pim_messages: self.inter_pim_messages + rhs.inter_pim_messages,
        }
    }
}

impl AddAssign for TransferStats {
    fn add_assign(&mut self, rhs: TransferStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TransferStats::new();
        s.record_cpu_to_pim(100, 2);
        s.record_pim_to_cpu(50, 1);
        s.record_inter_pim(25, 5);
        assert_eq!(s.cpc_bytes(), 150);
        assert_eq!(s.total_bytes(), 175);
        assert_eq!(s.cpu_to_pim_messages, 2);
        assert_eq!(s.inter_pim_messages, 5);
    }

    #[test]
    fn add_combines_all_fields() {
        let mut a = TransferStats::new();
        a.record_cpu_to_pim(10, 1);
        let mut b = TransferStats::new();
        b.record_inter_pim(20, 2);
        b.record_pim_to_cpu(5, 1);
        let c = a + b;
        assert_eq!(c.cpu_to_pim_bytes, 10);
        assert_eq!(c.inter_pim_bytes, 20);
        assert_eq!(c.pim_to_cpu_bytes, 5);
        a += b;
        assert_eq!(a, c);
    }

    #[test]
    fn default_is_zero() {
        let s = TransferStats::default();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.cpc_bytes(), 0);
    }
}
