//! Ablation study (extension beyond the paper): how much each design choice of
//! the PIM-friendly partitioning algorithm contributes.
//!
//! * partitioning scheme comparison — hash, LDG, adaptive, and the paper's
//!   greedy-adaptive heuristic, measured by locality, load balance, and (for
//!   the streaming schemes) end-to-end 3-hop query latency;
//! * labor division on/off — the effect of promoting high-degree nodes to the
//!   host on load imbalance and query latency;
//! * capacity-constraint sweep — locality versus balance as the slack factor
//!   varies, the trade-off Section 3.2.2 describes qualitatively.
//!
//! Run with: `cargo run --release --bin ablation [--traces 8,12]`

use graph_partition::{
    GreedyAdaptiveConfig, GreedyAdaptivePartitioner, HashPartitioner, PartitionMetrics,
    StreamingPartitioner,
};
use moctopus::{GraphEngine, MoctopusSystem};
use moctopus_bench::{fmt_ms, HarnessOptions, TraceWorkload};

fn main() {
    let (mut options, _) = HarnessOptions::from_env(&[]);
    if options.traces.len() == 15 {
        // Default to one low-skew and two highly skewed traces to keep the
        // ablation quick; pass --traces to override.
        options.traces = vec![2, 8, 12];
    }
    println!("Ablation study (scale = {:.4}, batch = {})\n", options.scale, options.batch);

    for &trace_id in &options.traces {
        let workload = TraceWorkload::generate(trace_id, &options);
        println!(
            "=== trace #{} ({}) : {} nodes, {} edges ===",
            trace_id,
            workload.spec.name,
            workload.graph.node_count(),
            workload.graph.edge_count()
        );

        // ------------------------------------------------------------------
        // 1. Partitioning scheme comparison (64 partitions, offline metrics).
        // ------------------------------------------------------------------
        let modules = 64usize;
        println!("\npartitioning schemes over {modules} PIM modules:");
        println!("{:>18}  {:>10}  {:>10}  {:>12}", "scheme", "locality", "balance", "migrations");

        let mut hash = HashPartitioner::new(modules);
        let mut greedy = GreedyAdaptivePartitioner::new(modules);
        for &(s, d) in &workload.edges {
            hash.on_edge(s, d);
            greedy.on_edge(s, d);
        }
        let greedy_report = greedy.refine(&workload.graph);
        let ldg = graph_partition::ldg::partition_graph(&workload.graph, modules, 1.05);
        let adaptive =
            graph_partition::adaptive::partition_graph(&workload.graph, modules, 1.05, 3);

        let rows = [
            ("hash", PartitionMetrics::compute(workload.graph.edges(), hash.assignment()), 0usize),
            ("LDG (offline)", PartitionMetrics::compute(workload.graph.edges(), &ldg), 0),
            (
                "adaptive",
                PartitionMetrics::compute(workload.graph.edges(), &adaptive.assignment),
                adaptive.migrations,
            ),
            (
                "greedy-adaptive",
                PartitionMetrics::compute(workload.graph.edges(), greedy.assignment()),
                greedy_report.migrated,
            ),
        ];
        for (name, metrics, migrations) in rows {
            println!(
                "{:>18}  {:>10.3}  {:>10.3}  {:>12}",
                name, metrics.locality, metrics.load_balance_factor, migrations
            );
        }

        // ------------------------------------------------------------------
        // 2. Labor division on/off (end-to-end query latency).
        // ------------------------------------------------------------------
        let mut with_labor = workload.moctopus(&options);
        let mut config_off = options.system_config();
        config_off.labor_division = false;
        let mut without_labor = MoctopusSystem::from_edge_stream(config_off, &workload.edges);
        let mut pim_hash = workload.pim_hash(&options);

        let (_, on) = with_labor.k_hop_batch(&workload.sources, 3);
        let (_, off) = without_labor.k_hop_batch(&workload.sources, 3);
        let (_, hash_stats) = pim_hash.k_hop_batch(&workload.sources, 3);
        println!("\nlabor division (3-hop batch latency, simulated ms):");
        println!("{:>28}  {:>12}  {:>14}", "configuration", "latency", "load imbalance");
        println!(
            "{:>28}  {:>12}  {:>14.2}",
            "labor division ON",
            fmt_ms(on.latency()),
            with_labor.load_imbalance()
        );
        println!(
            "{:>28}  {:>12}  {:>14.2}",
            "labor division OFF",
            fmt_ms(off.latency()),
            without_labor.load_imbalance()
        );
        println!(
            "{:>28}  {:>12}  {:>14.2}",
            "PIM-hash (no division)",
            fmt_ms(hash_stats.latency()),
            pim_hash.load_imbalance()
        );

        // ------------------------------------------------------------------
        // 3. Capacity-constraint sweep (locality vs balance).
        // ------------------------------------------------------------------
        println!("\ncapacity-constraint sweep (greedy-adaptive, 64 modules):");
        println!("{:>8}  {:>10}  {:>10}", "slack", "locality", "balance");
        for slack in [1.01f64, 1.05, 1.2, 1.5, 2.0] {
            let mut cfg = GreedyAdaptiveConfig::paper_defaults(modules);
            cfg.capacity_slack = slack;
            let mut p = GreedyAdaptivePartitioner::with_config(cfg);
            for &(s, d) in &workload.edges {
                p.on_edge(s, d);
            }
            p.refine(&workload.graph);
            let m = PartitionMetrics::compute(workload.graph.edges(), p.assignment());
            println!("{:>8.2}  {:>10.3}  {:>10.3}", slack, m.locality, m.load_balance_factor);
        }
        println!();
    }
    println!(
        "expected shape: greedy-adaptive approaches LDG's locality at a fraction of its cost,\n\
         far above hash; labor division lowers both latency and load imbalance on skewed traces;\n\
         loosening the capacity slack trades balance for locality."
    );
}
