//! Concurrent query-serving workload: many clients, interleaved RPQs and
//! labelled updates, over a sharded execution plane with an
//! update-consistent result cache.
//!
//! The binary drives one deterministic open-loop trace
//! (`moctopus_bench::ServeTrace`: Zipf-popular query pool, configurable
//! update fraction, same-timestamp burst rounds, rotated source batches,
//! round-robin logical arrival across clients) through the
//! `moctopus-server` layer three times, each over a freshly built sharded
//! engine (`--shards` full replicas behind one `ShardedEngine`):
//!
//! * `cost-exact` — caching on, hits bit-identical in results *and* stats;
//! * `row-exact`  — caching per (expression, source) row, shared across
//!   overlapping batches, with label-precise invalidation;
//! * `no-cache`   — every query executes on the engine (burst duplicates
//!   still collapse).
//!
//! It self-verifies on every run: all three modes must produce identical
//! query results (zero staleness), every `cost-exact` response's stats must
//! equal the uncached run's, and a shard sweep (1, 2, 4 shards of the
//! cost-exact mode) must produce byte-identical responses at every shard
//! count while simulated serving throughput improves monotonically.
//!
//! With `--snapshot-dir PATH` the binary additionally runs the **durability
//! smoke** (STORAGE.md §6): it serves the first half of the trace through a
//! `DurableEngine` (write-ahead log + periodic snapshot rotation under
//! `PATH/serve-smoke`), simulates a crash by dropping the server and
//! scribbling a torn half-frame onto the WAL tail, recovers into a fresh
//! base engine, resumes the second half behind a cold cache, and asserts
//! every stitched response — results *and* stats — is byte-identical to an
//! uninterrupted reference run (a cold cache may only relabel hits as
//! misses; under cost-exact consistency that changes no served byte).
//!
//! Stdout is deterministic for a fixed seed — simulated times and counters
//! only — and byte-identical at every `--threads` **and every `--shards`**
//! value (CI diffs both); the shard-dependent throughput model goes only into
//! the `--json` record (simulated quantities too — the harness reads no
//! clock).
//!
//! Run with: `cargo run --release --bin serve [--scale S] [--seed N]
//! [--threads N] [--shards N] [--clients N] [--requests N]
//! [--update-fraction F] [--distinct N] [--burst F] [--rotate F]
//! [--emit-trace PATH] [--snapshot-dir PATH] [--json [PATH]]`

use graph_partition::PartitionAssignment;
use graph_store::NodeId;
use moctopus::{GraphEngine, MoctopusSystem};
use moctopus_bench::{
    ExtraArgs, HarnessOptions, RpqWorkload, ServeTrace, ServeTraceConfig, SERVE_FLAGS,
};
use moctopus_server::{
    CacheConfig, ConcurrentServer, ConsistencyMode, DurabilityOptions, DurableEngine, QueryServer,
    RequestKind, Response, ResponseBody, ServerConfig, Session, ShardPlan, ShardThroughput,
    ShardedEngine,
};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One mode's deterministic outcome plus its (JSON-only) shard-dependent
/// throughput model.
struct ModeOutcome {
    name: &'static str,
    responses: Vec<Vec<Response>>,
    totals: moctopus_server::ServeTotals,
    cache: Option<moctopus_server::CacheStats>,
    throughput: ShardThroughput,
}

/// The trace shape the serve-specific flags ask for.
fn trace_config(extra: &ExtraArgs) -> ServeTraceConfig {
    let mut cfg = ServeTraceConfig {
        burst_fraction: 0.15,
        rotate_fraction: 0.25,
        ..ServeTraceConfig::default()
    };
    if let Some(n) = extra.count("--clients") {
        cfg.clients = n.max(1);
    }
    if let Some(n) = extra.count("--requests") {
        cfg.requests_per_client = n.max(1);
    }
    if let Some(f) = extra.fraction("--update-fraction") {
        cfg.update_fraction = f;
    }
    if let Some(n) = extra.count("--distinct") {
        cfg.distinct_queries = n.max(1);
    }
    if let Some(f) = extra.fraction("--burst") {
        cfg.burst_fraction = f;
    }
    if let Some(f) = extra.fraction("--rotate") {
        cfg.rotate_fraction = f;
    }
    cfg
}

/// One fully built replica: workload ingested, locality refined.
fn build_replica(options: &HarnessOptions, workload: &RpqWorkload) -> MoctopusSystem {
    let mut engine = MoctopusSystem::new(options.system_config());
    engine.insert_labeled_edges(&workload.edges);
    engine.refine_locality();
    engine
}

/// The frozen shard plan, read off the placements one built replica's
/// partitioner produced. Every replica is built identically, so this is the
/// plan for all of them — and it is independent of the shard count, which is
/// what keeps the scatter/gather decomposition shard-invariant.
fn shard_plan(options: &HarnessOptions, workload: &RpqWorkload) -> ShardPlan {
    let replica = build_replica(options, workload);
    let modules = options.system_config().pim.num_modules;
    let mut assignment = PartitionAssignment::new(modules);
    for id in 0..workload.graph.node_count() as u64 {
        if let Some(p) = replica.partition_of(NodeId(id)) {
            assignment.assign(NodeId(id), p);
        }
    }
    ShardPlan::from_assignment(&assignment, ShardPlan::DEFAULT_GROUPS)
}

/// Runs the trace through one server mode over a freshly built sharded
/// plane.
fn run_mode(
    name: &'static str,
    cache: Option<CacheConfig>,
    options: &HarnessOptions,
    workload: &RpqWorkload,
    trace: &ServeTrace,
    plan: &ShardPlan,
    shards: usize,
) -> ModeOutcome {
    let replicas: Vec<Box<dyn GraphEngine + Send>> =
        (0..shards).map(|_| Box::new(build_replica(options, workload)) as _).collect();
    let engine = ShardedEngine::new(replicas, plan.clone(), options.threads);
    let clock: Arc<Mutex<ShardThroughput>> = engine.clock();
    let config =
        ServerConfig { cache, pricing: options.system_config(), ..ServerConfig::default() };
    let server = ConcurrentServer::new(QueryServer::new(Box::new(engine), config));

    let mut sessions: Vec<Session> =
        (0..trace.per_client.len()).map(|_| server.session()).collect();
    std::thread::scope(|scope| {
        for (session, schedule) in sessions.drain(..).zip(&trace.per_client) {
            scope.spawn(move || {
                let mut session = session;
                for (at, kind) in schedule {
                    session.submit(*at, kind.clone()).expect("trace timestamps are monotonic");
                }
                session.finish();
            });
        }
        server.run();
    });

    let responses = server.take_responses();
    let (totals, cache) = server.with_core(|core| (core.totals(), core.cache_stats()));
    let throughput = clock.lock().expect("shard clock poisoned").clone();
    ModeOutcome { name, responses, totals, cache, throughput }
}

/// Asserts the self-verification invariants across modes (see module docs):
/// every cached mode's query answers equal the uncached run's — zero
/// staleness — and cost-exact hit stats are bit-identical to re-execution.
fn cross_check(reference: &ModeOutcome, cached: &[&ModeOutcome]) {
    for mode in cached {
        assert_eq!(
            mode.responses.len(),
            reference.responses.len(),
            "{}: client count drifted",
            mode.name
        );
        for (client, (got, want)) in mode.responses.iter().zip(&reference.responses).enumerate() {
            assert_eq!(got.len(), want.len(), "{}: response count for client {client}", mode.name);
            for (g, w) in got.iter().zip(want) {
                match (&g.body, &w.body) {
                    (
                        ResponseBody::Query { results: a, stats: sa, .. },
                        ResponseBody::Query { results: b, stats: sb, .. },
                    ) => {
                        assert_eq!(a, b, "{}: cached answer diverged at {}", mode.name, g.id);
                        if mode.name == "cost-exact" {
                            assert_eq!(sa, sb, "{}: cached stats diverged at {}", mode.name, g.id);
                        }
                    }
                    (
                        ResponseBody::Update { stats: sa, .. },
                        ResponseBody::Update { stats: sb, .. },
                    ) => {
                        assert_eq!(sa, sb, "{}: update stats diverged at {}", mode.name, g.id);
                    }
                    _ => panic!("{}: response kind mismatch at {}", mode.name, g.id),
                }
            }
        }
    }
}

/// The shard-scaling model for the JSON record: simulated serving
/// throughput at a shard count, from the plane's throughput clock plus the
/// host-side cache overhead (which shards don't touch).
fn sim_throughput(requests: usize, outcome: &ModeOutcome) -> f64 {
    let sim_s = (outcome.throughput.makespan.as_nanos() + outcome.totals.hit_time.as_nanos()) / 1e9;
    if sim_s > 0.0 {
        requests as f64 / sim_s
    } else {
        0.0
    }
}

/// Splits the trace at logical time `t`: requests arriving at or before `t`
/// run before the simulated crash, the rest after recovery. Burst rounds
/// share one timestamp, so a timestamp split never cuts a collapse window
/// in half.
fn split_trace(trace: &ServeTrace, t: u64) -> (ServeTrace, ServeTrace) {
    let half = |keep: &dyn Fn(u64) -> bool| ServeTrace {
        per_client: trace
            .per_client
            .iter()
            .map(|s| s.iter().filter(|&&(at, _)| keep(at)).cloned().collect())
            .collect(),
    };
    (half(&|at| at <= t), half(&|at| at > t))
}

/// Runs one trace (or trace half) through a serving core, returning the
/// per-client responses and the engine's edge count afterwards.
fn run_phase(core: QueryServer, trace: &ServeTrace) -> (Vec<Vec<Response>>, usize) {
    let server = ConcurrentServer::new(core);
    let mut sessions: Vec<Session> =
        (0..trace.per_client.len()).map(|_| server.session()).collect();
    std::thread::scope(|scope| {
        for (session, schedule) in sessions.drain(..).zip(&trace.per_client) {
            scope.spawn(move || {
                let mut session = session;
                for (at, kind) in schedule {
                    session.submit(*at, kind.clone()).expect("trace timestamps are monotonic");
                }
                session.finish();
            });
        }
        server.run();
    });
    let edges = server.with_core(|core| core.engine_ref().edge_count());
    (server.take_responses(), edges)
}

/// Response equality modulo cache temperature. Results and stats must match
/// bit-for-bit: recovery is bit-identical and cost-exact hits equal
/// re-execution, so a cold post-recovery cache may only relabel hits as
/// misses (and reset the `invalidated` counters, which count cache
/// residency, not engine state).
fn assert_recovery_equivalent(stitched: &[Vec<Response>], reference: &[Vec<Response>]) {
    assert_eq!(stitched.len(), reference.len(), "durability: client count drifted");
    for (client, (got, want)) in stitched.iter().zip(reference).enumerate() {
        assert_eq!(got.len(), want.len(), "durability: response count for client {client}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.at, w.at, "durability: request order drifted for client {client}");
            match (&g.body, &w.body) {
                (
                    ResponseBody::Query { results: a, stats: sa, .. },
                    ResponseBody::Query { results: b, stats: sb, .. },
                ) => {
                    assert_eq!(a, b, "durability: query answer diverged at @{}", g.at);
                    assert_eq!(sa, sb, "durability: query stats diverged at @{}", g.at);
                }
                (
                    ResponseBody::Update { stats: sa, .. },
                    ResponseBody::Update { stats: sb, .. },
                ) => {
                    assert_eq!(sa, sb, "durability: update stats diverged at @{}", g.at);
                }
                _ => panic!("durability: response kind mismatch at @{}", g.at),
            }
        }
    }
}

/// The crash/recover/self-check smoke behind `--snapshot-dir` (module
/// docs). Everything printed is a deterministic count — no timings — so the
/// lines stay byte-identical at every `--threads` and `--shards` value.
fn run_durability_smoke(
    options: &HarnessOptions,
    workload: &RpqWorkload,
    trace: &ServeTrace,
    dir: &Path,
) {
    // The smoke owns (and wipes) only its own subdirectory of the
    // user-supplied path, so a shared directory is safe to pass.
    let dir = dir.join("serve-smoke");
    let _ = std::fs::remove_dir_all(&dir);

    let durability = DurabilityOptions { sync_every: 1, rotate_every: 8 };
    let config = || ServerConfig {
        cache: Some(CacheConfig { mode: ConsistencyMode::CostExact, ..CacheConfig::default() }),
        pricing: options.system_config(),
        ..ServerConfig::default()
    };

    // The reference: the whole trace on one engine, never interrupted.
    let reference_core = QueryServer::new(Box::new(build_replica(options, workload)), config());
    let (reference, reference_edges) = run_phase(reference_core, trace);

    // Crash at the midpoint of the logical arrival range.
    let max_at = trace.per_client.iter().flatten().map(|&(at, _)| at).max().unwrap_or(0);
    let (before, after) = split_trace(trace, max_at / 2);
    let acknowledged = before
        .per_client
        .iter()
        .flatten()
        .filter(|(_, kind)| !matches!(kind, RequestKind::Query { .. }))
        .count() as u64;

    // Phase 1: serve the prefix durably (every record fsynced, snapshots
    // rotating), then "crash" — drop the server and scribble a torn
    // half-frame onto the WAL tail, exactly what a power cut mid-append of a
    // never-acknowledged record leaves behind.
    let durable = DurableEngine::open(Box::new(build_replica(options, workload)), &dir, durability)
        .expect("fresh durable store must open");
    assert_eq!(durable.report().generation, 0, "fresh directory starts at generation 0");
    assert_eq!(durable.report().replayed_records, 0);
    let (phase1, _) = run_phase(QueryServer::new(Box::new(durable), config()), &before);

    let generation = graph_store::current_generation(&dir).ok().flatten().unwrap_or(0);
    let wal = graph_store::generation_wal_path(&dir, generation);
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal)
            .expect("WAL file must exist after the durable phase");
        // A frame header claiming a 64-byte payload, followed by 3 bytes.
        file.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03])
            .expect("crash injection write");
    }
    println!(
        "[durability] phase 1: {} requests served, {} update batches acknowledged, then a \
         simulated crash tears the WAL tail",
        before.len(),
        acknowledged
    );

    // Recovery: a fresh base engine plus the surviving snapshot/WAL suffix.
    let recovered =
        DurableEngine::open(Box::new(build_replica(options, workload)), &dir, durability)
            .expect("recovery must open despite the torn tail");
    let report = recovered.report();
    assert!(report.torn_tail, "the injected half-frame must be detected as a torn tail");
    assert_eq!(
        report.last_seq, acknowledged,
        "recovery must land on exactly the acknowledged update batches — no more, no less"
    );
    println!(
        "[durability] recovery: generation {}, snapshot restored: {}, replayed WAL records: {}, \
         torn tail truncated: {}",
        report.generation,
        if report.restored_snapshot { "yes" } else { "no" },
        report.replayed_records,
        if report.torn_tail { "yes" } else { "no" },
    );

    // Phase 2: resume the trace on the recovered engine behind a cold cache,
    // then stitch the halves and demand byte-identity with the reference.
    let (phase2, recovered_edges) =
        run_phase(QueryServer::new(Box::new(recovered), config()), &after);
    let stitched: Vec<Vec<Response>> = phase1
        .into_iter()
        .zip(phase2)
        .map(|(mut a, b)| {
            a.extend(b);
            a
        })
        .collect();
    assert_recovery_equivalent(&stitched, &reference);
    assert_eq!(
        recovered_edges, reference_edges,
        "recovered engine edge count must match the uninterrupted run"
    );
    println!(
        "[durability] phase 2: {} requests served after recovery; self-check passed: all {} \
         responses byte-identical to the uninterrupted run (results and stats), final edge \
         count {}",
        after.len(),
        trace.len(),
        recovered_edges
    );
}

fn render_json(
    options: &HarnessOptions,
    cfg: &ServeTraceConfig,
    shards: usize,
    workload: &RpqWorkload,
    modes: &[&ModeOutcome],
    sweep: &[(usize, &ModeOutcome)],
    trace_len: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serve\",\n");
    out.push_str(&format!("  \"scale\": {},\n", options.scale));
    out.push_str(&format!("  \"seed\": {},\n", options.seed));
    out.push_str(&format!("  \"threads\": {},\n", options.threads));
    out.push_str(&format!("  \"shards\": {shards},\n"));
    out.push_str(&format!("  \"clients\": {},\n", cfg.clients));
    out.push_str(&format!("  \"requests_per_client\": {},\n", cfg.requests_per_client));
    out.push_str(&format!("  \"update_fraction\": {},\n", cfg.update_fraction));
    out.push_str(&format!("  \"distinct_queries\": {},\n", cfg.distinct_queries));
    out.push_str(&format!("  \"burst_fraction\": {},\n", cfg.burst_fraction));
    out.push_str(&format!("  \"rotate_fraction\": {},\n", cfg.rotate_fraction));
    out.push_str(&format!(
        "  \"workload\": {{\"name\": \"{}\", \"nodes\": {}, \"labelled_edges\": {}}},\n",
        workload.name,
        workload.graph.node_count(),
        workload.graph.edge_count()
    ));
    out.push_str("  \"modes\": [\n");
    let no_cache_served = modes
        .iter()
        .find(|m| m.name == "no-cache")
        .map(|m| m.totals.served_time().as_millis())
        .unwrap_or(0.0);
    for (i, m) in modes.iter().enumerate() {
        let t = &m.totals;
        let served = t.served_time().as_millis();
        let speedup = if served > 0.0 { no_cache_served / served } else { 1.0 };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sim_served_ms\": {:.3}, \
             \"sim_engine_ms\": {:.3}, \"sim_hit_overhead_ms\": {:.3}, \
             \"sim_avoided_ms\": {:.3}, \"sim_saved_ms\": {:.3}, \
             \"sim_speedup_vs_no_cache\": {:.3}, \"hits\": {}, \"misses\": {}, \
             \"hit_rate\": {:.4}, \"collapsed\": {}, \"invalidated\": {}, \"evictions\": {}}}{}\n",
            m.name,
            served,
            t.engine_time.as_millis(),
            t.hit_time.as_millis(),
            t.avoided_time.as_millis(),
            t.saved_nanos() / 1e6,
            speedup,
            m.cache.map_or(0, |c| c.hits),
            m.cache.map_or(0, |c| c.misses),
            m.cache.map_or(0.0, |c| c.hit_rate()),
            t.collapsed,
            m.cache.map_or(0, |c| c.invalidated),
            m.cache.map_or(0, |c| c.evictions),
            if i + 1 == modes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // The shard sweep: cost-exact serving at 1/2/4 shards. Responses are
    // byte-identical at every count (checked before this is written); only
    // the throughput model below may move, and it must move monotonically
    // upward.
    out.push_str("  \"shard_sweep\": [\n");
    for (i, (n, m)) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"sim_makespan_ms\": {:.3}, \"sim_busy_ms\": {:.3}, \
             \"sim_throughput_req_per_s\": {:.1}, \"hit_rate\": {:.4}, \
             \"results_identical_to_one_shard\": true}}{}\n",
            n,
            m.throughput.makespan.as_nanos() / 1e6,
            m.throughput.busy_total().as_nanos() / 1e6,
            sim_throughput(trace_len, m),
            m.cache.map_or(0.0, |c| c.hit_rate()),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (options, extra) = HarnessOptions::from_env(&SERVE_FLAGS);
    let cfg = trace_config(&extra);
    let shards = extra.count("--shards").map_or(1, |n| n.max(1));

    let workload = RpqWorkload::power_law(&options);
    let trace = ServeTrace::generate(&workload, &cfg, options.seed);
    if let Some(path) = extra.text("--emit-trace") {
        match std::fs::write(path, trace.render()) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("failed to write trace to {path}: {e}"),
        }
    }

    // Stdout must be byte-identical at every `--shards` (and `--threads`)
    // value — CI diffs it — so the shard count itself is never printed here;
    // it lives in the JSON record.
    println!(
        "Concurrent RPQ serving (simulated ms), scale = {:.4}: {} clients x {} requests, \
         {:.0}% updates, query pool = {} ({} sources each), burst {:.0}%, rotate {:.0}%",
        options.scale,
        cfg.clients,
        cfg.requests_per_client,
        cfg.update_fraction * 100.0,
        cfg.distinct_queries,
        cfg.sources_per_query,
        cfg.burst_fraction * 100.0,
        cfg.rotate_fraction * 100.0,
    );
    println!(
        "workload: {} ({} nodes, {} labelled edges), engine: Moctopus\n",
        workload.name,
        workload.graph.node_count(),
        workload.graph.edge_count()
    );

    let plan = shard_plan(&options, &workload);
    let run = |name, cache, n| run_mode(name, cache, &options, &workload, &trace, &plan, n);
    let cache_with = |mode| Some(CacheConfig { mode, ..CacheConfig::default() });

    let cost_exact = run("cost-exact", cache_with(ConsistencyMode::CostExact), shards);
    let row_exact = run("row-exact", cache_with(ConsistencyMode::RowExact), shards);
    let no_cache = run("no-cache", None, shards);
    cross_check(&no_cache, &[&cost_exact, &row_exact]);

    println!(
        "{:<14}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>6} {:>6} {:>6} {:>6}  {:>6}",
        "mode",
        "served",
        "engine",
        "hit-ovhd",
        "avoided",
        "saved",
        "hits",
        "miss",
        "clps",
        "inval",
        "hit%"
    );
    for m in [&cost_exact, &row_exact, &no_cache] {
        let t = &m.totals;
        println!(
            "{:<14}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}  {:>6} {:>6} {:>6} {:>6}  \
             {:>5.1}%",
            m.name,
            t.served_time().as_millis(),
            t.engine_time.as_millis(),
            t.hit_time.as_millis(),
            t.avoided_time.as_millis(),
            t.saved_nanos() / 1e6,
            m.cache.map_or(0, |c| c.hits),
            m.cache.map_or(0, |c| c.misses),
            t.collapsed,
            m.cache.map_or(0, |c| c.invalidated),
            m.cache.map_or(0.0, |c| c.hit_rate() * 100.0),
        );
    }
    let speedup = |m: &ModeOutcome| {
        let served = m.totals.served_time().as_millis();
        if served > 0.0 {
            no_cache.totals.served_time().as_millis() / served
        } else {
            1.0
        }
    };
    println!(
        "\nsimulated serving-time speedup vs no-cache: cost-exact {:.2}x, row-exact {:.2}x",
        speedup(&cost_exact),
        speedup(&row_exact)
    );
    println!(
        "self-check passed: all modes returned identical query results, and every cost-exact \
         response's stats matched uncached re-execution"
    );

    // Shard sweep: the cost-exact mode at 1, 2, and 4 shards. Every
    // externally visible output must be byte-identical across shard counts;
    // only the shard-dependent throughput model may (and must, upward) move.
    let sweep_runs: Vec<ModeOutcome> = [1usize, 2, 4]
        .into_iter()
        .map(|n| run("cost-exact", cache_with(ConsistencyMode::CostExact), n))
        .collect();
    for m in &sweep_runs {
        assert_eq!(
            m.responses, sweep_runs[0].responses,
            "shard sweep: responses must be byte-identical at every shard count"
        );
        assert_eq!(m.totals, sweep_runs[0].totals);
        assert_eq!(m.cache, sweep_runs[0].cache);
    }
    let throughputs: Vec<f64> = sweep_runs.iter().map(|m| sim_throughput(trace.len(), m)).collect();
    assert!(
        throughputs.windows(2).all(|w| w[0] < w[1]),
        "shard sweep: simulated throughput must improve monotonically, got {throughputs:?}"
    );
    assert!(
        sweep_runs[0].cache.is_some_and(|c| c.hit_rate() > 0.0),
        "shard sweep must exercise a non-zero cache hit rate"
    );
    println!(
        "shard-scaling self-check passed: responses byte-identical at 1/2/4 shards, simulated \
         serving throughput strictly increasing, zero staleness at non-zero hit rate"
    );

    if let Some(dir) = extra.text("--snapshot-dir") {
        println!();
        run_durability_smoke(&options, &workload, &trace, Path::new(dir));
    }

    if extra.has("--json") {
        let path = extra.text("--json").unwrap_or("serve_record.json");
        let sweep: Vec<(usize, &ModeOutcome)> =
            [1usize, 2, 4].into_iter().zip(sweep_runs.iter()).collect();
        let json = render_json(
            &options,
            &cfg,
            shards,
            &workload,
            &[&cost_exact, &row_exact, &no_cache],
            &sweep,
            trace.len(),
        );
        match std::fs::write(path, &json) {
            Ok(()) => println!("\nServe bench baseline written to {path}"),
            Err(e) => eprintln!("\nFailed to write {path}: {e}"),
        }
    }
}
