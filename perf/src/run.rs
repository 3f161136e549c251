//! One run of one workload: set-up, the closed-loop timed phase, answer
//! checking, and the metrics of that run.
//!
//! An untraced run reports the end-to-end metrics. A traced run makes two
//! passes over the same ops — bare, then with a [`TracedEngine`] at every
//! layer boundary — derives the per-layer metrics from the spans of the
//! second, takes the difference between the two as the tracing overhead, and
//! then replays the workload's recorded inputs through each layer's public
//! functions (the legs).
//!
//! [`TracedEngine`]: crate::layers::TracedEngine

use crate::layers::{self, Input, LegMaterial, NodeId, ServeCounters, Sut};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, Fnv};
use crate::trace::{self_times, SharedTracer, Span, Tracer, PHASES};
use crate::workloads::{checksum_edges, Op, OpStream, Sizes, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Shrunk sizes.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every check passed: answers, update counts, recovery, and (traced)
    /// simulated quantities identical between the two passes.
    pub correct: bool,
    /// Timed ops.
    pub attempted: usize,
    /// Timed ops that errored or whose checked answer mismatched.
    pub failed: usize,
    /// The run's metrics.
    pub values: Values,
    /// FNV of the generated edge stream and of the ops through the window.
    pub input_checksum: u64,
    /// Samples behind `wall_p95_ms`.
    pub samples: usize,
    /// What failed, for a human.
    pub problems: Vec<String>,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// One query op in this many is checked against the reference evaluator.
const CHECK_EVERY: usize = 8;
/// Update batches kept for the legs.
const KEPT_UPDATES: usize = 64;
/// Op index stamped on warm-up spans, outside every window.
const WARMUP_OP: u32 = u32::MAX;

/// A stack built, warmed up, and ready for its first timed op.
struct Ready {
    input: Input,
    sizes: Sizes,
    stream: OpStream,
    sut: Sut,
    checksum: Fnv,
    setup_s: f64,
    updates: Vec<(bool, Vec<layers::Edge>)>,
    problems: Vec<String>,
}

fn keep_update(updates: &mut Vec<(bool, Vec<layers::Edge>)>, op: &Op) {
    if updates.len() < KEPT_UPDATES {
        match op {
            Op::Insert { edges } => updates.push((true, edges.clone())),
            Op::Delete { edges } => updates.push((false, edges.clone())),
            _ => {}
        }
    }
}

/// Checks one op's reply; the mirror follows every update either way.
fn reply_ok(input: &mut Input, op: &Op, outcome: &layers::Outcome, check_answers: bool) -> bool {
    let applied = layers::apply_to_mirror(&mut input.mirror, op);
    !outcome.failed
        && applied == outcome.applied
        && (!check_answers || layers::answers_match(&input.mirror, op, outcome))
}

fn set_up(
    options: &RunOptions,
    tracer: Option<&SharedTracer>,
    scratch: &Path,
) -> Result<Ready, String> {
    let started = Instant::now();
    let sizes = options.workload.sizes(options.smoke);
    let mut input = layers::generate_input(options.workload, options.smoke);
    let mut stream =
        OpStream::new(options.workload, options.seed, &input.nodes, &input.pinned, options.smoke);
    let mut sut = Sut::build(options.workload, &input, tracer.cloned(), scratch)?;
    let mut checksum = Fnv::default();
    checksum_edges(&mut checksum, &input.edges);
    if let Some(t) = tracer {
        t.lock().expect("tracer poisoned").set_op(WARMUP_OP);
    }
    let mut updates = Vec::new();
    let mut problems = Vec::new();
    for i in 0..sizes.warmup_ops {
        let op = stream.next_op();
        op.checksum(&mut checksum);
        keep_update(&mut updates, &op);
        let outcome = sut.run(&op);
        if !reply_ok(&mut input, &op, &outcome, false) {
            problems.push(format!("warm-up op {i} failed"));
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Ready { input, sizes, stream, sut, checksum, setup_s, updates, problems })
}

/// When a pass stops issuing ops.
enum Stop {
    /// After this many seconds of the timed phase, and not before the window
    /// is complete.
    AfterSeconds(f64),
    /// After exactly this many ops.
    AtOps(usize),
}

/// What one pass over the ops measured.
struct Pass {
    input: Input,
    sizes: Sizes,
    walls_ns: Vec<u64>,
    sims_ns: Vec<f64>,
    failed: usize,
    checksum: u64,
    counters_start: ServeCounters,
    counters_window: ServeCounters,
    entries_peak: u64,
    rotations: u64,
    /// `VmHWM` when the last timed op had returned (the crash check that
    /// follows builds a second engine, which is the harness's memory).
    peak_rss_mb: f64,
    sampled: Vec<Op>,
    updates: Vec<(bool, Vec<layers::Edge>)>,
    problems: Vec<String>,
}

fn drive(ready: Ready, stop: Stop, tracer: Option<&SharedTracer>) -> Result<Pass, String> {
    let Ready {
        mut input,
        sizes,
        mut stream,
        mut sut,
        mut checksum,
        mut updates,
        mut problems,
        ..
    } = ready;
    let window = sizes.window_ops;
    let counters_start = sut.counters();
    let mut counters_window = counters_start;
    let (mut walls_ns, mut sims_ns, mut sampled) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut queries_seen, mut entries_peak, mut rotations) =
        (0usize, 0usize, 0u64, 0u64);
    let phase = Instant::now();
    loop {
        let i = walls_ns.len();
        let op = stream.next_op();
        if i < window {
            op.checksum(&mut checksum);
            keep_update(&mut updates, &op);
        }
        if let Some(t) = tracer {
            t.lock().expect("tracer poisoned").set_op(i as u32);
        }
        let issued = Instant::now();
        let outcome = sut.run(&op);
        walls_ns.push(issued.elapsed().as_nanos() as u64);
        // Everything below is outside the timed region.
        sims_ns.push(outcome.sim_ns);
        let is_query = !outcome.answers.is_empty();
        let check = is_query && queries_seen % CHECK_EVERY == 0;
        queries_seen += usize::from(is_query);
        if !reply_ok(&mut input, &op, &outcome, check) {
            failed += 1;
            if problems.len() < 8 {
                problems.push(format!("op {i} failed its check"));
            }
        }
        if check && i < window {
            sampled.push(op);
        }
        let done = i + 1;
        if done <= window {
            counters_window = sut.counters();
            entries_peak = entries_peak.max(counters_window.entries);
        }
        if done == window {
            rotations = sut.rotations();
        }
        let stop_now = match stop {
            Stop::AfterSeconds(seconds) => {
                done >= window && phase.elapsed().as_secs_f64() >= seconds
            }
            Stop::AtOps(ops) => done >= ops,
        };
        if stop_now {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let recovery = sut.crash_and_recover(&input)?;

    if let Some(r) = &recovery {
        if !(r.identical && r.torn_tail) {
            failed += 1;
            problems.push(format!(
                "recovery: identical = {}, torn tail seen = {}",
                r.identical, r.torn_tail
            ));
        }
    }
    Ok(Pass {
        input,
        sizes,
        walls_ns,
        sims_ns,
        failed,
        checksum: checksum.finish(),
        counters_start,
        counters_window,
        entries_peak,
        rotations,
        peak_rss_mb,
        sampled,
        updates,
        problems,
    })
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn sorted_ms(walls_ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = walls_ns.iter().map(|&ns| ms(ns as f64)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The recording machine's core count (1 where the platform will not say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(options: &RunOptions) -> Result<Scratch, String> {
        let dir = PathBuf::from(".perf_tmp").join(format!(
            "{}-{}",
            options.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last concurrent run has left it.
        let _ = std::fs::remove_dir(".perf_tmp");
    }
}

/// Runs one workload once.
pub fn run(options: &RunOptions) -> Result<RunReport, String> {
    let scratch = Scratch::new(options)?;
    if options.trace {
        run_traced(options, &scratch.0)
    } else {
        run_untraced(options, &scratch.0)
    }
}

fn run_untraced(options: &RunOptions, scratch: &Path) -> Result<RunReport, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // The previous stack is torn down before the next set-up is timed.
        drop(ready.take());
        let next = set_up(options, None, scratch)?;
        setups.push(next.setup_s);
        ready = Some(next);
    }
    let ready = ready.expect("at least one set-up");
    let pass = drive(ready, Stop::AfterSeconds(options.seconds), None)?;

    let walls = sorted_ms(&pass.walls_ns);
    let (mut rates, mut medians) = (Vec::new(), Vec::new());
    for segment in pass.walls_ns.chunks_exact(pass.sizes.segment_ops) {
        let wall_s = segment.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9;
        rates.push(segment.len() as f64 / wall_s);
        medians.push(quantile(&sorted_ms(segment), 0.50));
    }
    let mut values = Values::default();
    values.set("setup_s", median(&setups));
    values.set("ops_per_s", median(&rates));
    values.set("wall_p50_ms", median(&medians));
    values.set("wall_p95_ms", quantile(&walls, 0.95));
    values.set("sim_ms", ms(pass.sims_ns[..pass.sizes.window_ops].iter().sum()));
    values.set("peak_rss_mb", pass.peak_rss_mb);
    values.in_table_order(END_TO_END)?;
    Ok(RunReport {
        correct: pass.failed == 0 && pass.problems.is_empty(),
        attempted: pass.walls_ns.len(),
        failed: pass.failed,
        values,
        input_checksum: pass.checksum,
        samples: walls.len(),
        problems: pass.problems,
    })
}

fn run_traced(options: &RunOptions, scratch: &Path) -> Result<RunReport, String> {
    // Pass one, bare: half the run's seconds decide how many ops both passes make.
    let bare =
        drive(set_up(options, None, scratch)?, Stop::AfterSeconds(options.seconds / 2.0), None)?;
    let ops = bare.walls_ns.len();
    let window = bare.sizes.window_ops;
    // Pass two, the same ops with a span at every layer boundary.
    let tracer = Tracer::shared();
    let mut traced =
        drive(set_up(options, Some(&tracer), scratch)?, Stop::AtOps(ops), Some(&tracer))?;
    let tracer = tracer.lock().expect("tracer poisoned");
    if let Some(path) = &options.trace_out {
        tracer.write_json(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let mut problems: Vec<String> = bare.problems.iter().chain(&traced.problems).cloned().collect();
    let mut values = Values::default();
    // A wall-clock-only difference (tracing) must not move a simulated number.
    let same_sim =
        bare.sims_ns.iter().map(|s| s.to_bits()).eq(traced.sims_ns.iter().map(|s| s.to_bits()));
    if !same_sim {
        problems.push("simulated time differs between the bare and the traced pass".into());
    }
    values.set("harness.input_checksum_ok", f64::from(u8::from(bare.checksum == traced.checksum)));
    if bare.checksum != traced.checksum {
        problems.push("the two passes generated different inputs".into());
    }

    let bare_ns: f64 = bare.walls_ns.iter().map(|&ns| ns as f64).sum();
    let traced_ns: f64 = traced.walls_ns.iter().map(|&ns| ns as f64).sum();
    let walls = sorted_ms(&traced.walls_ns);
    values.set("harness.trace_overhead_share", traced_ns / bare_ns - 1.0);
    values.set("harness.wall_p99_ms", quantile(&walls, 0.99));
    values.set("harness.wall_max_ms", quantile(&walls, 1.0));
    values.set("harness.ops", ops as f64);
    values.set("harness.timed_s", traced_ns / 1e9);
    values.set("harness.cores", cores() as f64);

    let window_sim_ns: f64 = traced.sims_ns[..window].iter().sum();
    let window_wall_ns: f64 = traced.walls_ns[..window].iter().map(|&ns| ns as f64).sum();
    if let Err(problem) =
        span_metrics(tracer.spans(), window, window_wall_ns, window_sim_ns, &mut values)
    {
        problems.push(problem);
    }
    counter_metrics(&traced, &mut values);

    let queries: Vec<(&'static str, Vec<NodeId>)> = traced
        .sampled
        .iter()
        .flat_map(Op::queries)
        .map(|(text, sources)| (text, sources.to_vec()))
        .collect();
    let material = LegMaterial {
        workload: options.workload,
        input: &traced.input,
        queries,
        updates: std::mem::take(&mut traced.updates),
        update_edges: Workload::ServeWrite.sizes(options.smoke).update_edges,
        scratch: &scratch.join("legs"),
    };
    for (name, value) in layers::run_legs(material)? {
        values.set(name, value);
    }
    if values.get("server.session.shed").is_some_and(|shed| shed > 0.0) {
        problems.push("the session leg shed submissions".into());
    }

    match crate::repo::scan(Path::new(".")) {
        Ok(size) => {
            values.set("repo.rust_lines", size.rust_lines as f64);
            values.set("repo.pub_items", size.pub_items as f64);
            values.set("repo.panic_exemptions", size.panic_exemptions as f64);
        }
        Err(e) => return Err(format!("scanning crates/*/src from the working directory: {e}")),
    }
    values.in_table_order(PER_LAYER)?;
    let failed = bare.failed.max(traced.failed);
    Ok(RunReport {
        correct: failed == 0 && problems.is_empty(),
        attempted: ops,
        failed,
        values,
        input_checksum: traced.checksum,
        samples: walls.len(),
        problems,
    })
}

/// The per-layer metrics that come from spans of the window's ops.
fn span_metrics(
    spans: &[Span],
    window: usize,
    window_wall_ns: f64,
    window_sim_ns: f64,
    values: &mut Values,
) -> Result<(), String> {
    #[derive(Default)]
    struct Busy {
        self_ns: f64,
        calls: f64,
    }
    let (mut query, mut planned, mut update, mut request, mut durable) =
        (Busy::default(), Busy::default(), Busy::default(), Busy::default(), Busy::default());
    let (mut expansions, mut matched, mut applied) = (0u64, 0u64, 0u64);
    let (mut ipc_bytes, mut cpc_bytes, mut ipc_messages) = (0u64, 0u64, 0u64);
    let mut phases = [0.0f64; 5];
    let mut shadow_sim_ns = 0.0;
    let selfs = self_times(spans);
    for (span, &self_ns) in spans.iter().zip(&selfs) {
        if span.op as usize >= window {
            continue;
        }
        let bucket = match span.layer {
            layers::CORE if layers::is_served_query(span.name) => &mut query,
            layers::CORE if layers::is_update(span.name) => &mut update,
            layers::CORE if span.name == layers::PLANNED_NONFORWARD => {
                shadow_sim_ns += span.counts.sim_total_ns();
                planned.self_ns += self_ns as f64;
                planned.calls += 1.0;
                continue;
            }
            layers::SERVER => &mut request,
            layers::DURABLE => &mut durable,
            _ => continue,
        };
        bucket.self_ns += self_ns as f64;
        bucket.calls += 1.0;
        // Served simulated work: engine calls, and the tier's own hit cost.
        for (total, part) in phases.iter_mut().zip(span.counts.sim_ns) {
            *total += part;
        }
        expansions += span.counts.expansions;
        matched += span.counts.matched_pairs;
        applied += span.counts.edges_applied;
        ipc_bytes += span.counts.ipc_bytes;
        cpc_bytes += span.counts.cpc_bytes;
        ipc_messages += span.counts.ipc_messages;
    }
    values.set("core.query.busy_share", query.self_ns / window_wall_ns);
    values.set("core.query.calls", query.calls);
    values.set("core.query.expansions", expansions as f64);
    values.set("core.query.ns_per_expansion", query.self_ns / (expansions.max(1)) as f64);
    values.set("core.query.matched_pairs", matched as f64);
    values.set("core.planned.busy_share", planned.self_ns / window_wall_ns);
    values.set("core.planned.calls", planned.calls);
    values.set("core.update.busy_share", update.self_ns / window_wall_ns);
    values.set("core.update.calls", update.calls);
    values.set("core.update.edges_applied", applied as f64);
    values.set("server.request.self_share", request.self_ns / window_wall_ns);
    values.set("server.durable.self_share", durable.self_ns / window_wall_ns);
    values.set("server.shadow.sim_ms", ms(shadow_sim_ns));
    const PHASE_METRICS: [&str; PHASES.len()] = [
        "pim_sim.host_ms",
        "pim_sim.pim_ms",
        "pim_sim.cpc_ms",
        "pim_sim.ipc_ms",
        "pim_sim.reduce_ms",
    ];
    for (name, total) in PHASE_METRICS.into_iter().zip(phases) {
        values.set(name, ms(total));
    }
    values.set("pim_sim.ipc_bytes", ipc_bytes as f64);
    values.set("pim_sim.cpc_bytes", cpc_bytes as f64);
    values.set("pim_sim.ipc_messages", ipc_messages as f64);
    // The phases are summed span by span and the ops' latencies op by op, so
    // the two agree to rounding, not to the bit.
    let phase_sum: f64 = phases.iter().sum();
    if (phase_sum - window_sim_ns).abs() > 1e-6 * window_sim_ns.abs().max(1.0) {
        return Err(format!(
            "the five phases sum to {phase_sum} simulated ns, the window's ops to {window_sim_ns}"
        ));
    }
    Ok(())
}

/// The per-layer metrics that come from the serving tier's own counters,
/// taken over the window.
fn counter_metrics(pass: &Pass, values: &mut Values) {
    let (start, end) = (pass.counters_start, pass.counters_window);
    let lookups = (end.hits - start.hits) + (end.misses - start.misses);
    let updates = end.updates - start.updates;
    let planned = end.planned - start.planned;
    let share = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    values.set("server.cache.hit_share", share(end.hits - start.hits, lookups));
    values.set(
        "server.cache.invalidated_per_update",
        share(end.invalidated - start.invalidated, updates),
    );
    values.set("server.cache.evictions", (end.evictions - start.evictions) as f64);
    values.set("server.cache.entries_peak", pass.entries_peak as f64);
    values.set("server.shadow.runs", (end.shadow_runs - start.shadow_runs) as f64);
    values.set("rpq.plan.nonforward_share", share(end.nonforward - start.nonforward, planned));
    values.set("server.durable.rotations", pass.rotations as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, seed: u64) -> RunReport {
        let options = RunOptions {
            workload,
            seed,
            seconds: 0.01,
            trace: false,
            smoke: true,
            trace_out: None,
        };
        run(&options).expect("the smoke run completes")
    }

    #[test]
    fn same_seed_repeats_sim_ms_bit_for_bit_and_another_seed_does_not() {
        let (a, b, other) = (
            smoke(Workload::Closure, 42),
            smoke(Workload::Closure, 42),
            smoke(Workload::Closure, 7),
        );
        assert!(a.correct && a.failed == 0, "{:?}", a.problems);
        assert_eq!(
            a.values.get("sim_ms").map(f64::to_bits),
            b.values.get("sim_ms").map(f64::to_bits)
        );
        assert_eq!(a.input_checksum, b.input_checksum);
        assert_ne!(a.values.get("sim_ms"), other.values.get("sim_ms"));
        assert_ne!(a.input_checksum, other.input_checksum);
        assert!(a.attempted >= Workload::Closure.sizes(true).window_ops);
    }

    #[test]
    fn serve_write_survives_its_torn_tail() {
        let report = smoke(Workload::ServeWrite, 3);
        assert!(report.correct && report.failed == 0, "{:?}", report.problems);
        assert!(END_TO_END.iter().all(|m| report.values.get(m.name).is_some_and(|v| v > 0.0)));
    }

    #[test]
    fn span_metrics_split_the_window_by_layer() {
        let span = |layer, name, start_ns, end_ns, parent, op, sim: f64, expansions| Span {
            layer,
            name,
            start_ns,
            end_ns,
            parent,
            op,
            counts: crate::trace::Counts {
                sim_ns: [sim, 0.0, 0.0, 0.0, 0.0],
                expansions,
                ..Default::default()
            },
        };
        let spans = vec![
            span(layers::SERVER, "execute", 0, 100, None, 0, 5.0, 0),
            span(layers::DURABLE, "rpq_batch_tracked", 10, 90, Some(0), 0, 0.0, 0),
            span(layers::CORE, "rpq_batch_tracked", 20, 80, Some(1), 0, 40.0, 30),
            span(layers::CORE, layers::PLANNED_NONFORWARD, 82, 88, Some(1), 0, 7.0, 9),
            // Outside the window: ignored.
            span(layers::CORE, "rpq_batch", 200, 300, None, 1, 1000.0, 1000),
        ];
        let mut values = Values::default();
        span_metrics(&spans, 1, 100.0, 45.0, &mut values).expect("phases add up to the window");
        assert_eq!(values.get("core.query.busy_share"), Some(0.6));
        assert_eq!(values.get("core.planned.busy_share"), Some(0.06));
        assert_eq!(values.get("server.request.self_share"), Some(0.2));
        assert_eq!(values.get("server.durable.self_share"), Some(0.14));
        assert_eq!(values.get("core.query.expansions"), Some(30.0));
        assert_eq!(values.get("core.query.ns_per_expansion"), Some(2.0));
        assert_eq!(values.get("pim_sim.host_ms"), Some(45.0 / 1e6));
        assert_eq!(values.get("server.shadow.sim_ms"), Some(7.0 / 1e6));
        // A window whose ops do not add up to the phases is reported.
        assert!(span_metrics(&spans, 1, 100.0, 50.0, &mut Values::default()).is_err());
    }
}
