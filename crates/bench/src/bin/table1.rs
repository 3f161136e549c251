//! Regenerates Table 1: the evaluation graphs and their high-degree-node
//! percentages, comparing the paper's published values with the synthetic
//! stand-ins generated at the requested `--scale`.
//!
//! Run with: `cargo run --release --bin table1 [--scale S]`

use graph_gen::GraphStats;
use moctopus_bench::{HarnessOptions, TraceWorkload};

fn main() {
    let (options, _) = HarnessOptions::from_env(&[]);
    println!(
        "Table 1 — real-world graphs and their synthetic stand-ins (scale = {:.4})\n",
        options.scale
    );
    println!(
        "{:>3}  {:<15}  {:>12}  {:>12}  {:>10}  {:>12}  {:>12}  {:>10}",
        "id",
        "name",
        "paper nodes",
        "gen nodes",
        "gen edges",
        "paper hi-deg%",
        "gen hi-deg%",
        "max degree"
    );
    for &trace_id in &options.traces {
        let workload = TraceWorkload::generate(trace_id, &options);
        let stats = GraphStats::compute(&workload.graph);
        println!(
            "{:>3}  {:<15}  {:>12}  {:>12}  {:>10}  {:>12.2}  {:>12.2}  {:>10}",
            workload.spec.trace_id,
            workload.spec.name,
            workload.spec.nodes,
            stats.nodes,
            stats.edges,
            workload.spec.high_degree_pct,
            stats.high_degree_pct,
            stats.max_degree
        );
    }
    println!(
        "\nhigh-degree node = out-degree > 16 (paper, Table 1); generated percentages should\n\
         track the paper's column, and road/co-purchase traces should stay at 0%."
    );
}
