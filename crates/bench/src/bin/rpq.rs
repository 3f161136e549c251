//! Labelled regular-path-query experiment: the general-RPQ counterpart of the
//! k-hop figures.
//!
//! Sweeps the fixed query set ([`moctopus_bench::RPQ_QUERY_SET`]) over
//! labelled uniform and power-law workloads (Zipf label mix, see
//! `graph_gen::labels`) for all three engines:
//!
//! * fixed-length chains (`1/2/3`) execute as matrix chains on the baseline
//!   and as label-filtered frontier hops on the PIM engines;
//! * `1/(2|3)*/4` and `1+` exercise the NFA-product frontier (PIM) and the
//!   per-label automaton sweep (host);
//! * `.{2}` takes the k-hop fast path everywhere, tying the labelled sweep
//!   back to the paper's headline workload.
//!
//! The three engines' results are cross-checked against each other and
//! against `rpq::ReferenceEvaluator` on every run, so the binary doubles as
//! an end-to-end correctness probe. All latencies are simulated milliseconds.
//!
//! Run with: `cargo run --release --bin rpq [--scale S] [--batch N] [--seed N]
//! [--taxonomy [--optimize on|off] [--json [PATH]]]`
//!
//! `--taxonomy` switches to the PathForge AQ1–AQ28 conformance sweep
//! ([`moctopus_bench::AQ_TAXONOMY`]): every AQ runs on all three engines over
//! both workloads, and stdout carries only plan-invariant observables (normal
//! form, fingerprint, matched count, result checksum, canonical-forward
//! simulated latency) so CI can diff it verbatim between `--optimize on` and
//! `--optimize off` — even though with the optimizer on, every chosen
//! non-forward plan now **actually executes** (bidirectional / rare-split
//! traversals over the reverse adjacency index) and is asserted byte-identical
//! to the forward product on every engine. Plan choices, priced costs, and
//! *measured* executed costs go to stderr in text mode, or into the record
//! written by `--json [PATH]` (default `rpq_taxonomy.json`).

use moctopus_bench::{
    fmt_ms, geometric_mean, ExtraArgs, HarnessOptions, RpqWorkload, AQ_TAXONOMY, RPQ_FLAGS,
    RPQ_QUERY_SET,
};
use rpq::{parser, ReferenceEvaluator};

fn main() {
    let (options, extra) = HarnessOptions::from_env(&RPQ_FLAGS);
    if extra.has("--taxonomy") {
        taxonomy(&options, &extra);
        return;
    }
    println!(
        "Labelled RPQ run time (simulated ms), scale = {:.4}, labels = {}\n",
        options.scale,
        RpqWorkload::label_mix().describe()
    );

    let workloads = [RpqWorkload::uniform(&options), RpqWorkload::power_law(&options)];
    let mut speedups_vs_host: Vec<f64> = Vec::new();
    let mut speedups_vs_hash: Vec<f64> = Vec::new();

    for workload in &workloads {
        println!(
            "--- {} : {} nodes, {} labelled edges, batch = {} ---",
            workload.name,
            workload.graph.node_count(),
            workload.graph.edge_count(),
            workload.sources.len()
        );
        println!(
            "{:<12}  {:>12}  {:>12}  {:>12}  {:>9}  {:>9}  {:>10}",
            "query", "Moctopus", "PIM-hash", "RedisGraph", "vs RG", "vs hash", "matched"
        );
        let mut engines = workload.all_engines(&options);
        // The reference evaluator double-checks a sample of the batch (the
        // full batch would dominate the run time of the whole binary).
        let reference = ReferenceEvaluator::new(&workload.graph);
        let probe: Vec<_> = workload.sources.iter().copied().take(16).collect();

        for text in RPQ_QUERY_SET {
            let expr = parser::parse(text).expect("query set must parse");
            let mut latencies = Vec::with_capacity(engines.len());
            let mut results = Vec::with_capacity(engines.len());
            for engine in engines.iter_mut() {
                let (r, stats) = engine.rpq_batch(&expr, &workload.sources);
                latencies.push(stats.latency());
                results.push(r);
            }
            for (engine, result) in engines.iter().zip(&results).skip(1) {
                assert_eq!(
                    result,
                    &results[0],
                    "{} disagrees with {} on {text:?}",
                    engine.name(),
                    engines[0].name()
                );
            }
            let want = reference.evaluate(&expr, &probe);
            for (got, want) in results[0].iter().zip(want.iter()) {
                let want: Vec<_> = want.iter().copied().collect();
                assert_eq!(got, &want, "engines disagree with the reference on {text:?}");
            }

            let matched: usize = results[0].iter().map(Vec::len).sum();
            let vs_host = latencies[2].as_nanos() / latencies[0].as_nanos().max(1.0);
            let vs_hash = latencies[1].as_nanos() / latencies[0].as_nanos().max(1.0);
            speedups_vs_host.push(vs_host);
            speedups_vs_hash.push(vs_hash);
            println!(
                "{:<12}  {:>12}  {:>12}  {:>12}  {:>8.2}x  {:>8.2}x  {:>10}",
                text,
                fmt_ms(latencies[0]),
                fmt_ms(latencies[1]),
                fmt_ms(latencies[2]),
                vs_host,
                vs_hash,
                matched
            );
        }
        println!();
    }

    println!("summary:");
    println!(
        "  Moctopus vs RedisGraph-like on labelled RPQs: geomean {:.2}x, max {:.2}x",
        geometric_mean(&speedups_vs_host),
        speedups_vs_host.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "  Moctopus vs PIM-hash on labelled RPQs:        geomean {:.2}x, max {:.2}x",
        geometric_mean(&speedups_vs_hash),
        speedups_vs_hash.iter().cloned().fold(0.0, f64::max)
    );
    println!("\nall three engines agreed with each other and the reference evaluator");
}

/// One AQ's outcome on one workload: the plan-invariant stdout row plus the
/// (optimizer-only) plan record destined for stderr / the JSON baseline.
struct AqOutcome {
    workload: &'static str,
    aq: &'static str,
    pattern: &'static str,
    normal_form: String,
    fingerprint: u64,
    matched: usize,
    checksum: u64,
    sim_ms: [String; 3],
    plan: Option<rpq::PlanChoice>,
    /// Measured costs of actually running the chosen plan (set only when the
    /// optimizer picked a non-forward strategy): per-engine executed
    /// simulated latency plus the measured forward/executed speedup.
    executed: Option<ExecutedPlan>,
}

/// The measured side of a non-forward plan: what the executor really charged.
struct ExecutedPlan {
    sim_ms: [String; 3],
    speedup: [f64; 3],
}

impl ExecutedPlan {
    fn best_speedup(&self) -> f64 {
        self.speedup.iter().cloned().fold(0.0, f64::max)
    }
}

/// FNV-1a over the batch's result rows (row index, row length, node ids) —
/// a stable identity for "these exact served answers" that fits one column.
fn result_checksum(results: &[Vec<graph_store::NodeId>]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const MULT: u64 = 0x0000_0100_0000_01b3;
    let mut h = SEED;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(MULT);
        }
    };
    for (i, row) in results.iter().enumerate() {
        mix(i as u64);
        mix(row.len() as u64);
        for node in row {
            mix(node.0);
        }
    }
    h
}

/// The PathForge AQ1–AQ28 sweep. Stdout is byte-identical between
/// `--optimize on` and `--optimize off` (the CI taxonomy job diffs it);
/// plan/cost observables are reported out-of-band.
fn taxonomy(options: &HarnessOptions, extra: &ExtraArgs) {
    let optimize = extra.on("--optimize").unwrap_or(true);
    let json_path =
        extra.has("--json").then(|| extra.text("--json").unwrap_or("rpq_taxonomy.json"));

    println!(
        "PathForge AQ1-AQ28 taxonomy (simulated ms), scale = {:.4}, labels = {}\n",
        options.scale,
        RpqWorkload::label_mix().describe()
    );

    let workloads = [
        RpqWorkload::uniform(options),
        RpqWorkload::power_law(options),
        RpqWorkload::rare_closure(options),
    ];
    let mut outcomes: Vec<AqOutcome> = Vec::new();

    for workload in &workloads {
        println!(
            "--- {} : {} nodes, {} labelled edges, batch = {} ---",
            workload.name,
            workload.graph.node_count(),
            workload.graph.edge_count(),
            workload.sources.len()
        );
        println!(
            "{:<6} {:<10} {:<12} {:>18}  {:>8}  {:>18}  {:>10}  {:>10}  {:>10}",
            "aq",
            "pattern",
            "normal",
            "fingerprint",
            "matched",
            "checksum",
            "Moctopus",
            "PIM-hash",
            "RedisGraph"
        );
        let mut engines = workload.all_engines(options);
        let stats = engines[0].label_stats();
        let reference = ReferenceEvaluator::new(&workload.graph);
        let probe: Vec<_> = workload.sources.iter().copied().take(8).collect();

        for (aq, text) in AQ_TAXONOMY {
            let expr = parser::parse(text).expect("taxonomy patterns parse");
            let norm = expr.normalize();
            let mut latencies = Vec::with_capacity(engines.len());
            let mut results = Vec::with_capacity(engines.len());
            for engine in engines.iter_mut() {
                let (r, s) = engine.rpq_batch(&expr, &workload.sources);
                latencies.push(s.latency());
                results.push(r);
            }
            for (engine, result) in engines.iter().zip(&results).skip(1) {
                assert_eq!(
                    result,
                    &results[0],
                    "{} disagrees with {} on {aq} ({text:?})",
                    engine.name(),
                    engines[0].name()
                );
            }
            let want = reference.evaluate(&expr, &probe);
            for (got, want) in results[0].iter().zip(want.iter()) {
                let want: Vec<_> = want.iter().copied().collect();
                assert_eq!(got, &want, "engines disagree with the reference on {aq} ({text:?})");
            }

            let plan = optimize.then(|| rpq::choose_plan(&norm, &stats, workload.sources.len()));
            // Execute the chosen plan for real when it is non-forward: the
            // answers must be byte-identical to the forward product on every
            // engine (the reverse-index contract), and the executed simulated
            // cost is the *measured* side of the optimizer's priced win.
            let executed = plan.filter(|p| p.strategy != rpq::PlanStrategy::Forward).map(|p| {
                let mut exec_ms: [String; 3] = Default::default();
                let mut speedup = [0.0f64; 3];
                for (i, engine) in engines.iter_mut().enumerate() {
                    let (r, s) = engine.rpq_batch_planned(&expr, &workload.sources, p.strategy);
                    assert_eq!(
                        r,
                        results[i],
                        "{} answers moved under the {} plan on {aq} ({text:?})",
                        engine.name(),
                        p.strategy.describe()
                    );
                    exec_ms[i] = fmt_ms(s.latency());
                    speedup[i] = latencies[i].as_nanos() / s.latency().as_nanos().max(1.0);
                }
                ExecutedPlan { sim_ms: exec_ms, speedup }
            });
            let outcome = AqOutcome {
                workload: workload.name,
                aq,
                pattern: text,
                normal_form: format!("{norm}"),
                fingerprint: norm.fingerprint(),
                matched: results[0].iter().map(Vec::len).sum(),
                checksum: result_checksum(&results[0]),
                sim_ms: [fmt_ms(latencies[0]), fmt_ms(latencies[1]), fmt_ms(latencies[2])],
                plan,
                executed,
            };
            println!(
                "{:<6} {:<10} {:<12} {:#018x}  {:>8}  {:#018x}  {:>10}  {:>10}  {:>10}",
                outcome.aq,
                outcome.pattern,
                outcome.normal_form,
                outcome.fingerprint,
                outcome.matched,
                outcome.checksum,
                outcome.sim_ms[0],
                outcome.sim_ms[1],
                outcome.sim_ms[2]
            );
            if let Some(plan) = outcome.plan {
                eprintln!(
                    "plan {} {:<10} {:<14} forward_cost={} chosen_cost={} speedup_millis={}",
                    workload.name,
                    outcome.aq,
                    plan.strategy.describe(),
                    plan.forward_cost,
                    plan.chosen_cost,
                    plan.simulated_speedup_millis()
                );
            }
            if let Some(exec) = &outcome.executed {
                eprintln!(
                    "executed {} {:<10} moctopus={} pim_hash={} host={} measured_win={:.3}x",
                    workload.name,
                    outcome.aq,
                    exec.sim_ms[0],
                    exec.sim_ms[1],
                    exec.sim_ms[2],
                    exec.best_speedup()
                );
            }
            outcomes.push(outcome);
        }
        println!();
    }

    println!("all three engines agreed with each other and the reference evaluator");
    if optimize {
        let best = outcomes
            .iter()
            .filter_map(|o| o.plan.map(|p| (o, p.simulated_speedup_millis())))
            .max_by_key(|&(_, s)| s)
            .expect("taxonomy is non-empty");
        eprintln!(
            "best simulated plan win: {} on {} ({}) at {}.{:03}x",
            best.0.aq,
            best.0.workload,
            best.0.pattern,
            best.1 / 1000,
            best.1 % 1000
        );
        if let Some((o, exec)) = outcomes
            .iter()
            .filter_map(|o| o.executed.as_ref().map(|e| (o, e)))
            .max_by(|a, b| a.1.best_speedup().total_cmp(&b.1.best_speedup()))
        {
            eprintln!(
                "best measured executed win: {} on {} ({}) at {:.3}x",
                o.aq,
                o.workload,
                o.pattern,
                exec.best_speedup()
            );
        }
    }

    if let Some(path) = json_path {
        let json = render_taxonomy_json(options, optimize, &outcomes);
        std::fs::write(path, json).expect("write taxonomy baseline");
        eprintln!("wrote {path}");
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the taxonomy record as JSON (two-space indent, stable order).
fn render_taxonomy_json(
    options: &HarnessOptions,
    optimize: bool,
    outcomes: &[AqOutcome],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"rpq-taxonomy\",\n");
    out.push_str(&format!("  \"scale\": {},\n", options.scale));
    out.push_str(&format!("  \"batch\": {},\n", options.batch));
    out.push_str(&format!("  \"seed\": {},\n", options.seed));
    out.push_str(&format!("  \"threads\": {},\n", options.threads));
    out.push_str(&format!("  \"optimize\": {optimize},\n"));
    out.push_str("  \"queries\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workload\": \"{}\",\n", json_escape(o.workload)));
        out.push_str(&format!("      \"aq\": \"{}\",\n", o.aq));
        out.push_str(&format!("      \"pattern\": \"{}\",\n", json_escape(o.pattern)));
        out.push_str(&format!("      \"normal_form\": \"{}\",\n", json_escape(&o.normal_form)));
        out.push_str(&format!("      \"fingerprint\": \"{:#018x}\",\n", o.fingerprint));
        out.push_str(&format!("      \"matched\": {},\n", o.matched));
        out.push_str(&format!("      \"result_checksum\": \"{:#018x}\",\n", o.checksum));
        out.push_str(&format!(
            "      \"sim_ms\": {{\"moctopus\": {}, \"pim_hash\": {}, \"host\": {}}}",
            o.sim_ms[0], o.sim_ms[1], o.sim_ms[2]
        ));
        if let Some(plan) = o.plan {
            out.push_str(",\n");
            out.push_str(&format!("      \"plan\": \"{}\",\n", plan.strategy.describe()));
            out.push_str(&format!("      \"forward_cost\": {},\n", plan.forward_cost));
            out.push_str(&format!("      \"chosen_cost\": {},\n", plan.chosen_cost));
            out.push_str(&format!(
                "      \"simulated_speedup_millis\": {}",
                plan.simulated_speedup_millis()
            ));
            if let Some(exec) = &o.executed {
                out.push_str(",\n");
                out.push_str(&format!(
                    "      \"executed_sim_ms\": {{\"moctopus\": {}, \"pim_hash\": {}, \"host\": {}}},\n",
                    exec.sim_ms[0], exec.sim_ms[1], exec.sim_ms[2]
                ));
                out.push_str(&format!(
                    "      \"measured_speedup\": {{\"moctopus\": {:.3}, \"pim_hash\": {:.3}, \"host\": {:.3}}}\n",
                    exec.speedup[0], exec.speedup[1], exec.speedup[2]
                ));
            } else {
                out.push('\n');
            }
        } else {
            out.push('\n');
        }
        out.push_str(if i + 1 < outcomes.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
