//! Query and update statistics reported by every engine.

use pim_sim::{SimTime, Timeline};

/// Statistics of one batch query execution.
///
/// The `timeline` is the engine's simulated-time breakdown — the quantity the
/// paper's figures report — and the remaining fields describe the workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Per-phase simulated time and transfer counters.
    pub timeline: Timeline,
    /// Number of queries in the batch.
    pub batch_size: usize,
    /// Number of hops requested.
    pub hops: usize,
    /// Total matched (query, destination) pairs across the batch.
    pub matched_pairs: usize,
    /// Total frontier expansions performed (a proxy for algorithmic work).
    pub expansions: usize,
}

impl QueryStats {
    /// End-to-end simulated latency of the batch.
    pub fn latency(&self) -> SimTime {
        self.timeline.total()
    }

    /// Simulated inter-PIM communication time (the Figure 5 metric).
    pub fn ipc_latency(&self) -> SimTime {
        self.timeline.time(pim_sim::Phase::Ipc)
    }

    /// Combines the statistics of executing disjoint sub-batches of one
    /// query (the sharded serving plane's gather step; see SERVING.md).
    ///
    /// Timelines, batch sizes, matched pairs and expansions add; `hops` is a
    /// per-sub-batch maximum (every sub-batch runs the same expression, so the
    /// deepest frontier sweep defines the whole query's hop count).
    ///
    /// Every summed field is an integer (`SimTime` counts picoseconds), so
    /// the merged totals do not depend on the order sub-batches merge in.
    pub fn merge(&mut self, other: &QueryStats) {
        self.timeline += other.timeline;
        self.batch_size += other.batch_size;
        self.hops = self.hops.max(other.hops);
        self.matched_pairs += other.matched_pairs;
        self.expansions += other.expansions;
    }
}

/// Statistics of one batch update (insertion or deletion) execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Per-phase simulated time and transfer counters.
    pub timeline: Timeline,
    /// Edges the batch asked to insert or delete.
    pub requested: usize,
    /// Edges that actually changed the graph (duplicates/missing skipped).
    pub applied: usize,
}

impl UpdateStats {
    /// End-to-end simulated latency of the batch.
    pub fn latency(&self) -> SimTime {
        self.timeline.total()
    }

    /// Combines two update statistics (e.g. per-module partial results).
    pub fn merge(&mut self, other: &UpdateStats) {
        self.timeline += other.timeline;
        self.requested += other.requested;
        self.applied += other.applied;
    }
}

/// Per-worker accumulator of one parallel execution stage (a hop of the
/// batch-frontier loop, or one update batch): **each worker has its own**
/// full set of accumulators, into which it adds every charge of its own
/// work, and the barrier at the end of the stage sums them with
/// [`StatsDelta::merge`].
///
/// Determinism (see CONCURRENCY.md §4): every slot is an integer — time in
/// whole picoseconds, bytes, messages — so a sum over a partition of the
/// work is exact and the same for any partition and any merge order: the
/// merged delta equals the sequential loop's bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDelta {
    /// Simulated busy time charged to each PIM module this stage.
    pub per_module: Vec<SimTime>,
    /// Simulated host-CPU compute time charged this stage.
    pub host_time: SimTime,
    /// Bytes gathered to the host over the CPU↔PIM bus (query hop loops).
    pub cpc_bytes: u64,
    /// Bytes forwarded between PIM modules through the host CPU.
    pub ipc_bytes: u64,
    /// Number of forwarded inter-PIM messages (each one costs host
    /// re-routing instructions on UPMEM-like platforms).
    pub ipc_messages: u64,
    /// Bytes pushed from the CPU to PIM modules (update batches).
    pub cpu_to_pim_bytes: u64,
    /// Bytes pulled from PIM modules to the CPU (update batches).
    pub pim_to_cpu_bytes: u64,
    /// Updates that actually changed the graph this stage.
    pub applied: usize,
}

impl StatsDelta {
    /// Creates a zeroed delta with one `per_module` slot per PIM module.
    pub fn new(module_count: usize) -> Self {
        StatsDelta { per_module: vec![SimTime::ZERO; module_count], ..Default::default() }
    }

    /// Accumulates `other` into `self` (the id-ordered barrier reduction).
    ///
    /// # Panics
    ///
    /// Panics if the two deltas were sized for different module counts.
    pub fn merge(&mut self, other: &StatsDelta) {
        assert_eq!(
            self.per_module.len(),
            other.per_module.len(),
            "deltas must cover the same module count"
        );
        for (slot, &t) in self.per_module.iter_mut().zip(&other.per_module) {
            *slot += t;
        }
        self.host_time += other.host_time;
        self.cpc_bytes += other.cpc_bytes;
        self.ipc_bytes += other.ipc_bytes;
        self.ipc_messages += other.ipc_messages;
        self.cpu_to_pim_bytes += other.cpu_to_pim_bytes;
        self.pim_to_cpu_bytes += other.pim_to_cpu_bytes;
        self.applied += other.applied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::Phase;

    #[test]
    fn query_latency_is_timeline_total() {
        let mut s = QueryStats::default();
        s.timeline.charge(Phase::PimCompute, SimTime::from_micros(5.0));
        s.timeline.charge(Phase::Ipc, SimTime::from_micros(2.0));
        assert_eq!(s.latency().as_micros(), 7.0);
        assert_eq!(s.ipc_latency().as_micros(), 2.0);
    }

    #[test]
    fn update_stats_merge_accumulates() {
        let mut a = UpdateStats { requested: 10, applied: 8, ..Default::default() };
        a.timeline.charge(Phase::HostCompute, SimTime::from_nanos(100.0));
        let mut b = UpdateStats { requested: 5, applied: 5, ..Default::default() };
        b.timeline.charge(Phase::Cpc, SimTime::from_nanos(50.0));
        a.merge(&b);
        assert_eq!(a.requested, 15);
        assert_eq!(a.applied, 13);
        assert_eq!(a.latency().as_nanos(), 150.0);
    }

    #[test]
    fn query_stats_merge_combines_sub_batches() {
        let mut a = QueryStats {
            batch_size: 2,
            hops: 3,
            matched_pairs: 5,
            expansions: 7,
            ..Default::default()
        };
        a.timeline.charge(Phase::PimCompute, SimTime::from_nanos(10.0));
        let mut b = QueryStats {
            batch_size: 1,
            hops: 1,
            matched_pairs: 2,
            expansions: 4,
            ..Default::default()
        };
        b.timeline.charge(Phase::Ipc, SimTime::from_nanos(4.0));
        a.merge(&b);
        assert_eq!(a.batch_size, 3);
        assert_eq!(a.hops, 3, "hops is a per-sub-batch maximum");
        assert_eq!(a.matched_pairs, 7);
        assert_eq!(a.expansions, 11);
        assert_eq!(a.latency().as_nanos(), 14.0);
    }

    #[test]
    fn defaults_are_zero() {
        let q = QueryStats::default();
        assert_eq!(q.latency(), SimTime::ZERO);
        assert_eq!(q.matched_pairs, 0);
        let u = UpdateStats::default();
        assert_eq!(u.latency(), SimTime::ZERO);
    }

    /// Regression guard for the `StatsDelta` refactor: splitting a sequential
    /// accumulation across per-worker deltas with disjoint module ownership
    /// and merging them must reproduce the sequential totals bit for bit,
    /// every `SimTime` slot included.
    #[test]
    fn split_deltas_merge_to_the_sequential_totals() {
        // Sequential accumulation over 4 modules; each nanosecond value
        // rounds once to whole picoseconds.
        let charges = [
            (0usize, 0.1f64),
            (2, 0.7),
            (0, 0.2),
            (3, 1e-9),
            (2, 3.33),
            (1, 0.001),
            (0, 123.456),
            (3, 2.5),
        ];
        let mut sequential = StatsDelta::new(4);
        for &(m, ns) in &charges {
            sequential.per_module[m] += SimTime::from_nanos(ns);
        }
        sequential.host_time = SimTime::from_nanos(42.42);
        sequential.cpc_bytes = 100;
        sequential.ipc_bytes = 30;
        sequential.ipc_messages = 3;
        sequential.applied = 7;

        // Two workers: worker 0 owns modules 0..2 and the host lane, worker 1
        // owns modules 2..4. Each replays the same charges in the same order,
        // filtered to its own slots.
        let mut worker0 = StatsDelta::new(4);
        let mut worker1 = StatsDelta::new(4);
        for &(m, ns) in &charges {
            let delta = if m < 2 { &mut worker0 } else { &mut worker1 };
            delta.per_module[m] += SimTime::from_nanos(ns);
        }
        worker0.host_time = SimTime::from_nanos(42.42);
        worker0.cpc_bytes = 60;
        worker1.cpc_bytes = 40;
        worker0.ipc_bytes = 30;
        worker1.ipc_messages = 3;
        worker0.applied = 5;
        worker1.applied = 2;

        let mut merged = StatsDelta::new(4);
        merged.merge(&worker0);
        merged.merge(&worker1);
        assert_eq!(merged, sequential, "the merged deltas must equal the sequential totals");
    }

    #[test]
    #[should_panic(expected = "same module count")]
    fn merging_mismatched_deltas_panics() {
        let mut a = StatsDelta::new(2);
        a.merge(&StatsDelta::new(3));
    }
}
