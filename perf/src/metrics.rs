//! The benchmark's metric tables: every name the harness reports, with its
//! unit and direction, the layer it belongs to, and which end-to-end metric
//! it should move on which workload. `/BENCHMARK.json` lists the same names,
//! units and directions; a test keeps the two from drifting apart.
//!
//! Units name the clock. `s`, `ms`, `us`, `ns` are *host* wall-clock (how long
//! the simulator took); `sim_ms` is *simulated* PIM time (what the modelled
//! hardware would take) and repeats bit for bit for a seed.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Reported name.
    pub name: &'static str,
    /// Unit, naming the clock for times.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
    /// What it measures, and (per layer) which end-to-end metric it should
    /// move on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound, note }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0, note }
}

/// What a user of the system sees, measured with tracing off.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25, "input generation, engine build, refine_locality, cache/WAL open and warm-up ops; median of three set-ups in the run"),
    e2e("ops_per_s", "1/s", "higher", 0.25, "ops / host seconds of a segment of the timed phase, median over the segments: the simulator's own speed"),
    e2e("wall_p50_ms", "ms", "lower", 0.25, "median host wall-clock per op of a segment, median over the segments"),
    e2e("wall_p95_ms", "ms", "lower", 0.25, "p95 host wall-clock per op over all timed ops (at least 200, so at least ten samples lie beyond it)"),
    e2e("sim_ms", "sim_ms", "lower", 0.10, "summed simulated latency of the window's ops on MoctopusSystem, the paper's quantity; repeats bit for bit for a seed"),
    e2e("peak_rss_mb", "MiB", "lower", 0.10, "VmHWM of the workload's process when its last timed op has returned"),
];

/// Single layers, measured by the traced run. Layers are the crate names.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: &[MetricDef] = &[
    // rpq: together < 1 % of a closure / serve_read miss, so speeding them should move nothing end to end.
    layer("rpq.parse.us", "us", "lower", "median parser::parse of the workload's expressions; moves nothing end to end"),
    layer("rpq.normalize.us", "us", "lower", "median RpqExpr::normalize; moves nothing end to end"),
    layer("rpq.nfa_build.us", "us", "lower", "median Nfa::from_expr; moves nothing end to end"),
    layer("rpq.plan.us", "us", "lower", "median optimizer::choose_plan; moves nothing end to end"),
    layer("rpq.plan.nonforward_share", "ratio", "higher", "planned executions that left the forward plan; > 0 only on serve_read, where it lets sim_ms and ops_per_s fall once the chosen plan is served"),
    layer("rpq.plan.q_error_max", "ratio", "lower", "max(r, 1/r) of priced / executed simulated speed-up over sampled non-forward plans (0: none sampled); the estimator's error"),
    // core
    layer("core.query.busy_share", "ratio", "lower", "served query calls on the base engine / op wall; ~1 on khop and closure"),
    layer("core.query.calls", "count", "lower", "served query calls on the base engine in the window"),
    layer("core.query.expansions", "count", "lower", "frontier expansions of those calls; exact"),
    layer("core.query.ns_per_expansion", "ns", "lower", "-> wall_p50_ms, ops_per_s on khop and closure; wall_p95_ms on serve_read"),
    layer("core.query.matched_pairs", "count", "lower", "changes iff answers change"),
    layer("core.planned.busy_share", "ratio", "lower", "non-forward rpq_batch_planned calls (shadow runs) / op wall -> ops_per_s on serve_read only"),
    layer("core.planned.calls", "count", "lower", "non-forward rpq_batch_planned calls in the window"),
    layer("core.deps.overhead_share", "ratio", "lower", "wall of rpq_batch_tracked / rpq_batch - 1 on sampled queries -> serve_read misses"),
    layer("core.update.busy_share", "ratio", "lower", "update calls on the base engine / op wall; ~1 on serve_write"),
    layer("core.update.calls", "count", "lower", "update calls on the base engine in the window"),
    layer("core.update.edges_applied", "count", "lower", "edges those calls changed; exact"),
    layer("core.update.ns_per_edge", "ns", "lower", "replayed update batches on a harness-owned engine -> wall_p50_ms, ops_per_s on serve_write; setup_s everywhere"),
    layer("core.label_stats.us", "us", "lower", "median GraphEngine::label_stats; per planned execution on closure and serve_read"),
    layer("core.ingest.ns_per_edge", "ns", "lower", "streaming the input into a fresh engine -> setup_s"),
    layer("core.refine.ms", "ms", "lower", "refine_locality -> setup_s"),
    layer("core.snapshot.export_ms", "ms", "lower", "export_snapshot -> rotations, i.e. wall_p95_ms on serve_write"),
    layer("core.snapshot.restore_ms", "ms", "lower", "restore_snapshot -> recovery"),
    layer("core.sim_speedup_vs_host", "ratio", "higher", "simulated HostBaseline / Moctopus on sampled queries (paper: 2.54-10.67x)"),
    layer("core.sim_speedup_vs_hash", "ratio", "higher", "simulated PimHash / Moctopus on sampled queries (paper: up to 2.98x)"),
    layer("core.host_wall_ratio", "ratio", "lower", "wall Moctopus / wall HostBaseline on sampled queries: what simulating costs"),
    layer("core.scaling_2t", "ratio", "higher", "wall at 1 thread / wall at 2 on sampled queries: whether a second thread buys anything"),
    // server
    layer("server.request.self_share", "ratio", "lower", "QueryServer::execute minus engine spans / op wall -> wall_p50_ms on serve_read (the hit path)"),
    layer("server.cache.hit_share", "ratio", "higher", "up -> ops_per_s up, sim_ms down on serve_read"),
    layer("server.cache.invalidated_per_update", "count", "lower", "entries an update removes; invalidation precision"),
    layer("server.cache.evictions", "count", "lower", "entries the LRU bound removed in the window; > 0 on serve_write"),
    layer("server.cache.entries_peak", "count", "higher", "most resident entries seen in the window"),
    layer("server.cache.lookup_us", "us", "lower", "median ResultCache::lookup hit, replayed -> wall_p50_ms on serve_read"),
    layer("server.cache.insert_us", "us", "lower", "median ResultCache::insert, replayed"),
    layer("server.cache.invalidate_us", "us", "lower", "median ResultCache::invalidate over the resident entries -> wall_p50_ms on serve_write"),
    layer("server.shadow.runs", "count", "lower", "shadow executions in the window"),
    layer("server.shadow.sim_ms", "sim_ms", "lower", "simulated time of those shadow runs; not part of sim_ms while shadows are not served"),
    layer("server.durable.self_share", "ratio", "lower", "DurableEngine calls minus base-engine spans / op wall -> wall_p50_ms on serve_write"),
    layer("server.durable.self_us", "us", "lower", "median DurableEngine self time per replayed update (WAL append, amortised fsync)"),
    layer("server.durable.rotations", "count", "lower", "snapshot rotations in the window; they land in wall_p95_ms / p99 on serve_write, not the median"),
    layer("server.durable.recover_ms", "ms", "lower", "DurableEngine::open after a torn tail on the replay store"),
    layer("server.durable.replayed_records", "count", "lower", "WAL records that recovery replayed"),
    layer("server.shard.wall_ratio", "ratio", "lower", "sampled queries through a 2-replica ShardedEngine / unsharded, wall"),
    layer("server.shard.sim_ratio", "ratio", "lower", "the same, simulated"),
    layer("server.session.overhead_share", "ratio", "lower", "the same requests through ConcurrentServer with 2 Sessions / sequential - 1"),
    layer("server.session.shed", "count", "lower", "submissions the bounded queue refused; counted as failures"),
    // graph_store: read, write and space trade against each other, so all three are reported.
    layer("graph_store.local.insert_ns", "ns", "lower", "LocalGraphStorage::insert_edge per edge"),
    layer("graph_store.local.rev_insert_ns", "ns", "lower", "insert_rev_edge per edge; / insert_ns is what mirroring costs an insert -> serve_write wall_p50_ms, setup_s"),
    layer("graph_store.local.remove_ns", "ns", "lower", "remove_edge per edge"),
    layer("graph_store.local.scan_ns_per_entry", "ns", "lower", "row scans -> khop / closure wall"),
    layer("graph_store.hetero.insert_ns", "ns", "lower", "HeterogeneousStorage::insert_edge per edge (host rows)"),
    layer("graph_store.labelstats.snapshot_us", "us", "lower", "LabelStatsTable::snapshot"),
    layer("graph_store.wal.append_us", "us", "lower", "median WalWriter::append without fsync"),
    layer("graph_store.wal.sync_us", "us", "lower", "median WalWriter::sync; x fsyncs / ops bounds WAL gains on serve_write"),
    layer("graph_store.wal.fsyncs", "count", "lower", "fsyncs the replayed update stream costs at sync_every = 8"),
    layer("graph_store.wal.bytes_per_edge", "B", "lower", "log bytes per logged edge"),
    layer("graph_store.snapshot.write_ms", "ms", "lower", "SnapshotState::write_file"),
    layer("graph_store.snapshot.read_ms", "ms", "lower", "SnapshotState::read_file"),
    layer("graph_store.snapshot.bytes_per_edge", "B", "lower", "snapshot bytes per stored edge"),
    // graph_partition
    layer("graph_partition.on_edge_ns", "ns", "lower", "GreedyAdaptivePartitioner::on_edge per edge -> setup_s, serve_write wall"),
    layer("graph_partition.refine_ms", "ms", "lower", "GreedyAdaptivePartitioner::refine"),
    layer("graph_partition.locality", "ratio", "higher", "-> sim_ms on khop through pim_sim.ipc_ms"),
    layer("graph_partition.load_imbalance", "ratio", "lower", "-> sim_ms on khop"),
    layer("graph_partition.host_rows", "count", "lower", "rows promoted to the host"),
    layer("graph_partition.migrated", "count", "lower", "rows the refinement pass moved"),
    // pim_sim: the five phases sum to sim_ms; a wall-clock-only change leaves all eight bit-identical.
    layer("pim_sim.host_ms", "sim_ms", "lower", "simulated host compute of the window, hit probes included"),
    layer("pim_sim.pim_ms", "sim_ms", "lower", "simulated PIM compute"),
    layer("pim_sim.cpc_ms", "sim_ms", "lower", "simulated CPU-PIM transfers"),
    layer("pim_sim.ipc_ms", "sim_ms", "lower", "simulated inter-PIM transfers"),
    layer("pim_sim.reduce_ms", "sim_ms", "lower", "simulated result reduction"),
    layer("pim_sim.ipc_bytes", "B", "lower", "simulated; exact"),
    layer("pim_sim.cpc_bytes", "B", "lower", "simulated; exact"),
    layer("pim_sim.ipc_messages", "count", "lower", "simulated; exact"),
    // runtime
    layer("runtime.pool.dispatch_us", "us", "lower", "empty WorkerPool::run round trip at the workload's thread count; x hops bounds what barrier work can save"),
    layer("runtime.sequencer.ns_per_item", "ns", "lower", "SequencedQueue submit -> pop"),
    layer("runtime.threads", "count", "higher", "engine worker threads of the workload"),
    // sparse
    layer("sparse.marks.ns_per_mark", "ns", "lower", "EpochMarks on a frontier of the workload graph -> khop wall"),
    layer("sparse.mxm.ns_per_nnz", "ns", "lower", "ops::mxm frontier x adjacency; only moves core.host_wall_ratio"),
    // harness, repo: context.
    layer("harness.trace_overhead_share", "ratio", "lower", "traced / untraced wall of the same ops - 1"),
    layer("harness.wall_p99_ms", "ms", "lower", "p99 host wall-clock per op of the traced pass"),
    layer("harness.wall_max_ms", "ms", "lower", "slowest op of the traced pass"),
    layer("harness.ops", "count", "higher", "ops of the traced pass: as many as the bare pass fitted into half the run's seconds, so host-dependent"),
    layer("harness.timed_s", "s", "lower", "their summed wall"),
    layer("harness.cores", "count", "higher", "available_parallelism of the recording box"),
    layer("harness.input_checksum_ok", "count", "higher", "1 when both passes generated the same edge stream and op list"),
    layer("repo.rust_lines", "count", "lower", "lines of Rust under crates/*/src"),
    layer("repo.pub_items", "count", "lower", "pub items there"),
    layer("repo.panic_exemptions", "count", "lower", "reasoned panic-in-lib exemptions there"),
];

/// Looks a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Named values of one run, checked against a table when reported.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records a value; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "{name} is not in the metric tables");
        debug_assert!(self.get(name).is_none(), "{name} reported twice");
        self.0.push((name, value));
    }

    /// Looks a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The values of `table`, in table order. A name without a value is a
    /// harness bug, reported by name.
    pub fn in_table_order(
        &self,
        table: &'static [MetricDef],
    ) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        let out: Vec<_> = table.iter().filter_map(|def| Some((def, self.get(def.name)?))).collect();
        if out.len() == table.len() {
            return Ok(out);
        }
        let missing: Vec<_> =
            table.iter().filter(|d| self.get(d.name).is_none()).map(|d| d.name).collect();
        Err(format!("metrics never measured: {}", missing.join(", ")))
    }
}
