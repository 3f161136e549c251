//! Road-network reachability: long path queries on a low-skew graph.
//!
//! Road networks (traces #1–#3 in the paper) have no high-degree nodes and
//! bounded fan-out, so the number of matched paths stays manageable even for
//! long queries — this is why the paper evaluates k = 4, 6, 8 only on the road
//! graphs. The example builds a synthetic road network, runs k-hop queries of
//! increasing length on all three engines, and prints a latency table in the
//! spirit of Figure 4(d–f).
//!
//! Run with: `cargo run --release --example routing_reachability`

use graph_store::NodeId;
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let graph = graph_gen::road::generate(30_000, 0.08, 42);
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    edges.sort();
    let sources = graph_gen::stream::sample_start_nodes(&graph, 1024, 7);
    println!(
        "synthetic road network: {} intersections, {} road segments, batch = {} queries",
        graph.node_count(),
        graph.edge_count(),
        sources.len()
    );

    let config = MoctopusConfig::paper_defaults();
    let mut moctopus = MoctopusSystem::from_edge_stream(config, &edges);
    let mut pim_hash = PimHashSystem::from_edge_stream(config, &edges);
    let mut baseline = HostBaseline::from_edge_stream(config, &edges);

    println!(
        "\n{:>4}  {:>14}  {:>14}  {:>14}  {:>9}",
        "k", "Moctopus", "PIM-hash", "RedisGraph", "speedup"
    );
    for k in [2usize, 4, 6, 8] {
        let (_, moc) = moctopus.k_hop_batch(&sources, k);
        let (_, hash) = pim_hash.k_hop_batch(&sources, k);
        let (_, host) = baseline.k_hop_batch(&sources, k);
        println!(
            "{:>4}  {:>12.3}ms  {:>12.3}ms  {:>12.3}ms  {:>8.2}x",
            k,
            moc.latency().as_millis(),
            hash.latency().as_millis(),
            host.latency().as_millis(),
            host.latency().as_nanos() / moc.latency().as_nanos().max(1.0),
        );
    }

    let metrics = moctopus.partition_metrics();
    println!(
        "\nMoctopus partition quality: locality = {:.2}, load balance = {:.2}, host rows = {}",
        metrics.locality,
        metrics.load_balance_factor,
        moctopus.host_row_count()
    );
    Ok(())
}
