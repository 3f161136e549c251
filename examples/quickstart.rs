//! Quickstart: the Figure 2 scenario from the paper.
//!
//! Builds the routing-connection graph of Figure 2 (hosts identified
//! by IP address, directed "connects-to" relationships), runs the batch 2-hop
//! path query
//!
//! ```text
//! UNWIND ['127.0.0.2','127.0.0.3'] AS ipAddr MATCH ({ip:ipAddr})-[2]->(t)
//! ```
//!
//! on Moctopus, and prints the matched destinations together with the
//! simulated cost breakdown.
//!
//! Run with: `cargo run --example quickstart`

use graph_store::{Label, NodeId};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem};

fn main() {
    // 1. The routing graph: host `i` has address 127.0.0.i; every connection
    //    is one directed, untyped "connects-to" edge.
    let ip_of = |host: u64| format!("127.0.0.{host}");
    let connections: [(u64, u64); 12] = [
        (0, 1),
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 5),
        (3, 6),
        (3, 9),
        (4, 5),
        (5, 6),
        (5, 8),
        (6, 9),
        (8, 9),
    ];
    let edges: Vec<(NodeId, NodeId, Label)> =
        connections.iter().map(|&(src, dst)| (NodeId(src), NodeId(dst), Label::ANY)).collect();

    // 2. Ingest the labelled edges into Moctopus (8 PIM modules) exactly as
    //    a graph database client would, then let placement settle.
    let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test());
    let ingest = moctopus.insert_labeled_edges(&edges);
    moctopus.refine_locality();
    println!("ingested routing graph: 10 hosts, {} connections", ingest.applied);

    // 3. Resolve the query's start nodes by address, then run the batch
    //    2-hop path query.
    let start_ips = ["127.0.0.2", "127.0.0.3"];
    let sources: Vec<NodeId> = start_ips
        .iter()
        .filter_map(|ip| (0..10u64).find(|&host| ip_of(host) == *ip).map(NodeId))
        .collect();
    let (results, stats) = moctopus.k_hop_batch(&sources, 2);

    // 4. Report results the way the paper's Figure 2 does.
    println!("\nbatch 2-hop path query (batch size = {}):", sources.len());
    for (ip, matched) in start_ips.iter().zip(&results) {
        let ids: Vec<String> = matched.iter().map(|n| format!("Node {}", n.0)).collect();
        println!("  {ip}: {}", if ids.is_empty() { "(none)".to_owned() } else { ids.join(", ") });
    }
    println!("\nsimulated cost breakdown: {}", stats.timeline);
    println!(
        "partition state: {} rows on the host, locality = {:.2}",
        moctopus.host_row_count(),
        moctopus.partition_metrics().locality
    );
}
