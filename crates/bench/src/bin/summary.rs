//! Headline-claims summary: reproduces every number called out in the paper's
//! abstract and introduction and prints paper-vs-measured side by side.
//!
//! * up to 10.67x faster than RedisGraph for k-hop RPQs;
//! * up to 2.98x faster than PIM-hash on highly skewed graphs;
//! * 89.56% average IPC reduction versus PIM-hash at k = 3;
//! * 30.01x / 52.59x average insert / delete speedups over RedisGraph
//!   (up to 81.45x / 209.31x).
//!
//! Run with: `cargo run --release --bin summary [--scale S]`

use moctopus::GraphEngine;
use moctopus_bench::{geometric_mean, HarnessOptions, TraceWorkload};

fn main() {
    let (options, _) = HarnessOptions::from_env(&[]);
    println!(
        "Headline claims (scale = {:.4}, batch = {}). All latencies are simulated.\n",
        options.scale, options.batch
    );

    let mut rpq_speedups: Vec<f64> = Vec::new();
    let mut hash_speedups_skewed: Vec<f64> = Vec::new();
    let mut ipc_reductions: Vec<f64> = Vec::new();
    let mut insert_speedups: Vec<f64> = Vec::new();
    let mut delete_speedups: Vec<f64> = Vec::new();

    for &trace_id in &options.traces {
        let workload = TraceWorkload::generate(trace_id, &options);
        let mut moctopus = workload.moctopus(&options);
        let mut pim_hash = workload.pim_hash(&options);
        let mut baseline = workload.host_baseline(&options);

        // RPQ latencies across k = 1..3.
        for k in 1..=3usize {
            let (_, moc) = moctopus.k_hop_batch(&workload.sources, k);
            let (_, hash) = pim_hash.k_hop_batch(&workload.sources, k);
            let (_, host) = baseline.k_hop_batch(&workload.sources, k);
            rpq_speedups.push(host.latency().as_nanos() / moc.latency().as_nanos().max(1.0));
            if graph_gen::traces::TraceSpec::high_skew_ids().contains(&trace_id) {
                hash_speedups_skewed
                    .push(hash.latency().as_nanos() / moc.latency().as_nanos().max(1.0));
            }
            if k == 3 {
                let moc_ipc = moc.ipc_latency().as_nanos();
                let hash_ipc = hash.ipc_latency().as_nanos();
                if hash_ipc > 0.0 {
                    ipc_reductions.push(100.0 * (1.0 - moc_ipc / hash_ipc));
                }
            }
        }

        // Updates.
        let inserts =
            graph_gen::stream::sample_new_edges(&workload.graph, options.batch, options.seed + 1);
        let deletes = graph_gen::stream::sample_existing_edges(
            &workload.graph,
            options.batch,
            options.seed + 2,
        );
        let moc_ins = moctopus.insert_edges(&inserts);
        let host_ins = baseline.insert_edges(&inserts);
        let moc_del = moctopus.delete_edges(&deletes);
        let host_del = baseline.delete_edges(&deletes);
        insert_speedups.push(host_ins.latency().as_nanos() / moc_ins.latency().as_nanos().max(1.0));
        delete_speedups.push(host_del.latency().as_nanos() / moc_del.latency().as_nanos().max(1.0));
    }

    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    println!("{:<46}  {:>16}  {:>16}", "claim", "paper", "measured");
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "max RPQ speedup vs RedisGraph (k-hop)",
        "10.67x",
        max(&rpq_speedups)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "geomean RPQ speedup vs RedisGraph",
        "2.54-10.67x",
        geometric_mean(&rpq_speedups)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "max speedup vs PIM-hash (skewed traces)",
        "2.98x",
        max(&hash_speedups_skewed)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}%",
        "average IPC reduction vs PIM-hash (k=3)",
        "89.56%",
        avg(&ipc_reductions)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "average insert speedup vs RedisGraph",
        "30.01x",
        geometric_mean(&insert_speedups)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "max insert speedup vs RedisGraph",
        "81.45x",
        max(&insert_speedups)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "average delete speedup vs RedisGraph",
        "52.59x",
        geometric_mean(&delete_speedups)
    );
    println!(
        "{:<46}  {:>16}  {:>15.2}x",
        "max delete speedup vs RedisGraph",
        "209.31x",
        max(&delete_speedups)
    );
    println!(
        "\nThe reproduction targets the *direction and rough magnitude* of each claim on a\n\
         simulated platform and synthetic traces; see EXPERIMENTS.md for the full discussion."
    );
}
