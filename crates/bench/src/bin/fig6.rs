//! Regenerates Figure 6: run time of graph updates (insert a batch of new
//! edges, delete a batch of existing edges) on Moctopus and the
//! RedisGraph-like baseline, per trace plus the average.
//!
//! The paper inserts and deletes 64 K randomly selected edges; the harness
//! scales that batch with `--scale` (same rule as the query batch).
//!
//! Run with: `cargo run --release --bin fig6 [--scale S]`

use moctopus::GraphEngine;
use moctopus_bench::{fmt_ms, geometric_mean, HarnessOptions, TraceWorkload};

fn main() {
    let (options, _) = HarnessOptions::from_env(&[]);
    println!(
        "Figure 6 — graph update run time (simulated ms), scale = {:.4}, update batch = {}\n",
        options.scale, options.batch
    );

    let mut insert_speedups = Vec::new();
    let mut delete_speedups = Vec::new();

    println!("--- Figure 6(a) : insert ---");
    println!(
        "{:>3}  {:<15}  {:>12}  {:>12}  {:>9}",
        "id", "trace", "Moctopus", "RedisGraph", "speedup"
    );
    let mut insert_rows = Vec::new();
    let mut delete_rows = Vec::new();
    for &trace_id in &options.traces {
        let workload = TraceWorkload::generate(trace_id, &options);
        let inserts =
            graph_gen::stream::sample_new_edges(&workload.graph, options.batch, options.seed + 1);
        let deletes = graph_gen::stream::sample_existing_edges(
            &workload.graph,
            options.batch,
            options.seed + 2,
        );

        let mut moctopus = workload.moctopus(&options);
        let mut baseline = workload.host_baseline(&options);

        let moc_ins = moctopus.insert_edges(&inserts);
        let host_ins = baseline.insert_edges(&inserts);
        let ins_speedup = host_ins.latency().as_nanos() / moc_ins.latency().as_nanos().max(1.0);
        insert_speedups.push(ins_speedup);
        insert_rows.push((
            trace_id,
            workload.spec.name,
            moc_ins.latency(),
            host_ins.latency(),
            ins_speedup,
        ));

        let moc_del = moctopus.delete_edges(&deletes);
        let host_del = baseline.delete_edges(&deletes);
        let del_speedup = host_del.latency().as_nanos() / moc_del.latency().as_nanos().max(1.0);
        delete_speedups.push(del_speedup);
        delete_rows.push((
            trace_id,
            workload.spec.name,
            moc_del.latency(),
            host_del.latency(),
            del_speedup,
        ));
    }
    for (id, name, moc, host, s) in &insert_rows {
        println!(
            "{:>3}  {:<15}  {:>12}  {:>12}  {:>8.2}x",
            id,
            name,
            fmt_ms(*moc),
            fmt_ms(*host),
            s
        );
    }
    println!(
        "{:>3}  {:<15}  {:>12}  {:>12}  {:>8.2}x\n",
        "",
        "Average",
        "",
        "",
        geometric_mean(&insert_speedups)
    );

    println!("--- Figure 6(b) : delete ---");
    println!(
        "{:>3}  {:<15}  {:>12}  {:>12}  {:>9}",
        "id", "trace", "Moctopus", "RedisGraph", "speedup"
    );
    for (id, name, moc, host, s) in &delete_rows {
        println!(
            "{:>3}  {:<15}  {:>12}  {:>12}  {:>8.2}x",
            id,
            name,
            fmt_ms(*moc),
            fmt_ms(*host),
            s
        );
    }
    println!(
        "{:>3}  {:<15}  {:>12}  {:>12}  {:>8.2}x",
        "",
        "Average",
        "",
        "",
        geometric_mean(&delete_speedups)
    );

    println!(
        "\npaper: insertion up to 81.45x faster (average 30.01x); deletion up to 209.31x (average 52.59x)"
    );
}
