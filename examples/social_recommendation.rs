//! Friend-of-friend recommendation on a skewed social graph.
//!
//! Social graphs are the hard case for PIM systems: a few celebrity accounts
//! have enormous followings, which overload individual PIM modules under hash
//! partitioning. The example builds a power-law follower graph, shows how
//! Moctopus's labor division moves the celebrity rows to the host, runs a
//! batch friend-of-friend (2-hop) recommendation query on all three engines,
//! and also demonstrates the general RPQ pipeline (parse → automaton →
//! reference evaluation) for a label-constrained query.
//!
//! Run with: `cargo run --release --example social_recommendation`

use graph_store::NodeId;
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use rpq::{parser, ReferenceEvaluator};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let spec = graph_gen::powerlaw::PowerLawConfig {
        nodes: 20_000,
        high_degree_fraction: 0.02,
        mean_low_degree: 4.0,
        mean_high_degree: 96.0,
        locality: 0.85,
        community_size: 256,
        hub_in_bias: 0.25,
    };
    let graph = graph_gen::powerlaw::generate(&spec, 2024);
    let stats = graph_gen::GraphStats::compute(&graph);
    println!(
        "follower graph: {} users, {} follows, {:.2}% celebrities (out-degree > 16)",
        stats.nodes, stats.edges, stats.high_degree_pct
    );

    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    edges.sort();
    let config = MoctopusConfig::paper_defaults();
    let mut moctopus = MoctopusSystem::from_edge_stream(config, &edges);
    let mut pim_hash = PimHashSystem::from_edge_stream(config, &edges);
    let mut baseline = HostBaseline::from_edge_stream(config, &edges);

    println!(
        "labor division: {} celebrity rows promoted to the host ({:.2}% of users)",
        moctopus.host_row_count(),
        100.0 * moctopus.partition_metrics().host_node_fraction
    );

    // Batch friend-of-friend query from 2048 random users.
    let sources = graph_gen::stream::sample_start_nodes(&graph, 2048, 99);
    println!("\nfriend-of-friend (2-hop) recommendation, batch = {}:", sources.len());
    let (_, moc) = moctopus.k_hop_batch(&sources, 2);
    let (_, hash) = pim_hash.k_hop_batch(&sources, 2);
    let (_, host) = baseline.k_hop_batch(&sources, 2);
    for (name, stats) in [("Moctopus", &moc), ("PIM-hash", &hash), ("RedisGraph-like", &host)] {
        println!(
            "  {name:<16} {:>10.3} ms   (ipc {:>8.3} ms, matched pairs {})",
            stats.latency().as_millis(),
            stats.ipc_latency().as_millis(),
            stats.matched_pairs
        );
    }
    println!(
        "  -> Moctopus is {:.2}x faster than the RedisGraph-like baseline and {:.2}x faster than PIM-hash",
        host.latency().as_nanos() / moc.latency().as_nanos().max(1.0),
        hash.latency().as_nanos() / moc.latency().as_nanos().max(1.0),
    );

    // A label-constrained RPQ evaluated with the reference pipeline: the text
    // query is parsed, compiled to an automaton, and evaluated directly.
    let expr = parser::parse(".{2}")?;
    let reference = ReferenceEvaluator::new(&graph);
    let sample: Vec<NodeId> = sources.iter().take(4).copied().collect();
    let reference_results = reference.evaluate(&expr, &sample);
    println!("\nreference RPQ check on {} sampled users:", sample.len());
    for (src, matched) in sample.iter().zip(&reference_results) {
        println!("  user {} -> {} recommendations", src.0, matched.len());
    }
    Ok(())
}
