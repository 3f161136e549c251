//! Regenerates Figure 4: run time of k-hop path queries.
//!
//! Panels (a)–(c) sweep k = 1, 2, 3 over all fifteen traces for Moctopus,
//! PIM-hash, and the RedisGraph-like baseline. Panels (d)–(f) sweep the long
//! queries k = 4, 6, 8 over the road networks only (traces #1–#3), exactly as
//! the paper does because matched-path counts explode on the other graphs.
//!
//! All latencies are simulated milliseconds from the cost model (the paper's
//! y-axis); the *ordering and rough ratios* between the three systems are the
//! reproduction target, not the absolute values.
//!
//! Run with: `cargo run --release --bin fig4 [--scale S] [--traces 1,2,...]`

use moctopus::GraphEngine;
use moctopus_bench::{fmt_ms, geometric_mean, HarnessOptions, TraceWorkload};

fn main() {
    let (options, _) = HarnessOptions::from_env(&[]);
    println!(
        "Figure 4 — k-hop path query run time (simulated ms), scale = {:.4}, batch = {}\n",
        options.scale, options.batch
    );

    let mut speedups_vs_host: Vec<f64> = Vec::new();
    let mut speedups_vs_hash_skewed: Vec<f64> = Vec::new();

    // Panels (a)-(c): k = 1, 2, 3 on every trace.
    for k in [1usize, 2, 3] {
        println!("--- Figure 4({}) : k = {k} ---", (b'a' + (k - 1) as u8) as char);
        println!(
            "{:>3}  {:<15}  {:>12}  {:>12}  {:>12}  {:>9}  {:>9}",
            "id", "trace", "Moctopus", "PIM-hash", "RedisGraph", "vs RG", "vs hash"
        );
        for &trace_id in &options.traces {
            let workload = TraceWorkload::generate(trace_id, &options);
            let mut moctopus = workload.moctopus(&options);
            let mut pim_hash = workload.pim_hash(&options);
            let mut baseline = workload.host_baseline(&options);

            let (_, moc) = moctopus.k_hop_batch(&workload.sources, k);
            let (_, hash) = pim_hash.k_hop_batch(&workload.sources, k);
            let (_, host) = baseline.k_hop_batch(&workload.sources, k);

            let vs_host = host.latency().as_nanos() / moc.latency().as_nanos().max(1.0);
            let vs_hash = hash.latency().as_nanos() / moc.latency().as_nanos().max(1.0);
            speedups_vs_host.push(vs_host);
            if graph_gen::traces::TraceSpec::high_skew_ids().contains(&trace_id) {
                speedups_vs_hash_skewed.push(vs_hash);
            }
            println!(
                "{:>3}  {:<15}  {:>12}  {:>12}  {:>12}  {:>8.2}x  {:>8.2}x",
                trace_id,
                workload.spec.name,
                fmt_ms(moc.latency()),
                fmt_ms(hash.latency()),
                fmt_ms(host.latency()),
                vs_host,
                vs_hash
            );
        }
        println!();
    }

    // Panels (d)-(f): long queries on the road networks.
    let road_traces: Vec<usize> = options.traces.iter().copied().filter(|t| *t <= 3).collect();
    if !road_traces.is_empty() {
        for k in [4usize, 6, 8] {
            println!(
                "--- Figure 4({}) : k = {k}, road networks only ---",
                // k = 4, 6, 8 are panels (d), (e), (f).
                (b'a' + (k / 2 + 1) as u8) as char
            );
            println!(
                "{:>3}  {:<15}  {:>12}  {:>12}  {:>12}  {:>9}",
                "id", "trace", "Moctopus", "PIM-hash", "RedisGraph", "vs RG"
            );
            for &trace_id in &road_traces {
                let workload = TraceWorkload::generate(trace_id, &options);
                let mut moctopus = workload.moctopus(&options);
                let mut pim_hash = workload.pim_hash(&options);
                let mut baseline = workload.host_baseline(&options);
                let (_, moc) = moctopus.k_hop_batch(&workload.sources, k);
                let (_, hash) = pim_hash.k_hop_batch(&workload.sources, k);
                let (_, host) = baseline.k_hop_batch(&workload.sources, k);
                let vs_host = host.latency().as_nanos() / moc.latency().as_nanos().max(1.0);
                speedups_vs_host.push(vs_host);
                println!(
                    "{:>3}  {:<15}  {:>12}  {:>12}  {:>12}  {:>8.2}x",
                    trace_id,
                    workload.spec.name,
                    fmt_ms(moc.latency()),
                    fmt_ms(hash.latency()),
                    fmt_ms(host.latency()),
                    vs_host
                );
            }
            println!();
        }
    }

    let max_speedup = speedups_vs_host.iter().cloned().fold(0.0, f64::max);
    println!("summary:");
    println!(
        "  Moctopus vs RedisGraph-like: geomean {:.2}x, max {:.2}x   (paper: 2.54–10.67x on low-skew traces, 6.00–9.71x on long road queries)",
        geometric_mean(&speedups_vs_host),
        max_speedup
    );
    if !speedups_vs_hash_skewed.is_empty() {
        println!(
            "  Moctopus vs PIM-hash on highly skewed traces: geomean {:.2}x, max {:.2}x   (paper: up to 2.98x)",
            geometric_mean(&speedups_vs_hash_skewed),
            speedups_vs_hash_skewed.iter().cloned().fold(0.0, f64::max)
        );
    }
}
