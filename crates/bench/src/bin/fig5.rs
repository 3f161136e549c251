//! Regenerates Figure 5: inter-PIM communication (IPC) cost of Moctopus and
//! PIM-hash while processing 3-hop path queries, per trace plus the average.
//!
//! The paper reports that Moctopus reduces IPC cost by 89.56% on average
//! compared with PIM-hash; the reproduction prints the same per-trace bars
//! (simulated ms spent on inter-PIM forwarding) and the average reduction.
//!
//! Run with: `cargo run --release --bin fig5 [--scale S]`

use moctopus::GraphEngine;
use moctopus_bench::{fmt_ms, HarnessOptions, TraceWorkload};

fn main() {
    let (options, _) = HarnessOptions::from_env(&[]);
    let k = 3usize;
    println!(
        "Figure 5 — IPC cost of {k}-hop path queries (simulated ms), scale = {:.4}, batch = {}\n",
        options.scale, options.batch
    );
    println!(
        "{:>3}  {:<15}  {:>14}  {:>14}  {:>12}  {:>12}  {:>10}",
        "id", "trace", "Moctopus IPC", "PIM-hash IPC", "Moc bytes", "hash bytes", "reduction"
    );

    let mut reductions = Vec::new();
    let mut moc_total = 0.0f64;
    let mut hash_total = 0.0f64;
    for &trace_id in &options.traces {
        let workload = TraceWorkload::generate(trace_id, &options);
        let mut moctopus = workload.moctopus(&options);
        let mut pim_hash = workload.pim_hash(&options);
        let (_, moc) = moctopus.k_hop_batch(&workload.sources, k);
        let (_, hash) = pim_hash.k_hop_batch(&workload.sources, k);

        let moc_ipc = moc.ipc_latency();
        let hash_ipc = hash.ipc_latency();
        let reduction = if hash_ipc.as_nanos() > 0.0 {
            100.0 * (1.0 - moc_ipc.as_nanos() / hash_ipc.as_nanos())
        } else {
            0.0
        };
        reductions.push(reduction);
        moc_total += moc_ipc.as_millis();
        hash_total += hash_ipc.as_millis();
        println!(
            "{:>3}  {:<15}  {:>14}  {:>14}  {:>12}  {:>12}  {:>9.2}%",
            trace_id,
            workload.spec.name,
            fmt_ms(moc_ipc),
            fmt_ms(hash_ipc),
            moc.timeline.transfers.inter_pim_bytes,
            hash.timeline.transfers.inter_pim_bytes,
            reduction
        );
    }

    let n = options.traces.len().max(1) as f64;
    let avg_reduction: f64 = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    println!(
        "\n{:>3}  {:<15}  {:>14.3}  {:>14.3}  {:>12}  {:>12}  {:>9.2}%",
        "",
        "Average",
        moc_total / n,
        hash_total / n,
        "",
        "",
        avg_reduction
    );
    println!("\npaper: Moctopus reduces IPC cost by 89.56% on average at k = 3");
}
