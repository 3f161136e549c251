//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Every experiment binary (`table1`, `fig4`, `fig5`, `fig6`, `summary`,
//! `ablation`) builds its workloads and engines through this library so the
//! scaling rules are identical everywhere:
//!
//! * graphs are generated from the Table 1 trace specifications at a uniform
//!   `--scale` factor (default 1/64 of the original node counts);
//! * the query batch size and the update batch size are the paper's 64 K,
//!   scaled by the same factor (with a floor so tiny scales stay meaningful);
//! * the modeled host last-level cache shrinks with the graph so the
//!   scaled-down runs stay in the paper's "graph ≫ cache" regime (see the
//!   substitution notes in EXPERIMENTS.md);
//! * all latencies reported by the binaries are **simulated times** from the
//!   [`pim_sim`] cost model, the quantity the paper's figures plot.
#![forbid(unsafe_code)]

pub mod serve;

pub use serve::{ServeTrace, ServeTraceConfig};

use graph_gen::labels::LabelMixConfig;
use graph_gen::traces::TraceSpec;
use graph_store::{AdjacencyGraph, Label, NodeId};
use moctopus::{GraphEngine, HostBaseline, MoctopusConfig, MoctopusSystem, PimHashSystem};
use moctopus_runtime::WorkerPool;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Uniform scale factor applied to the paper's node counts (default 1/64).
    pub scale: f64,
    /// Batch size for queries and updates (default: 64 K × `scale`, ≥ 1024).
    pub batch: usize,
    /// Random seed for graph generation and workload sampling.
    pub seed: u64,
    /// Trace ids to run (defaults to all fifteen).
    pub traces: Vec<usize>,
    /// Host worker threads for the engines' execution runtime (default: the
    /// machine's available parallelism). Changes wall-clock only — simulated
    /// output is byte-identical at every thread count (CONCURRENCY.md).
    pub threads: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let scale = 1.0 / 64.0;
        HarnessOptions {
            scale,
            batch: Self::scaled_batch(scale),
            seed: 42,
            traces: (1..=15).collect(),
            threads: WorkerPool::available_parallelism(),
        }
    }
}

impl HarnessOptions {
    /// The paper's 64 K batch, scaled, with a floor of 1024.
    fn scaled_batch(scale: f64) -> usize {
        ((64.0 * 1024.0 * scale) as usize).max(1024)
    }

    /// The parser behind [`HarnessOptions::from_env`].
    fn from_args<I: IntoIterator<Item = String>>(
        args: I,
        extra: &[ExtraFlag],
    ) -> Result<(Self, ExtraArgs), UsageError> {
        fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, UsageError> {
            value.parse().map_err(|_| UsageError(format!("{flag}: cannot parse {value:?}")))
        }
        // Rejects NaN and the infinities too: no comparison holds for NaN.
        fn parsed_within(
            flag: &str,
            value: &str,
            range: &str,
            within: impl Fn(f64) -> bool,
        ) -> Result<f64, UsageError> {
            let x = parsed(flag, value)?;
            if within(x) {
                Ok(x)
            } else {
                Err(UsageError(format!("{flag}: {value} is outside {range}")))
            }
        }
        let missing_value = |flag: &str| UsageError(format!("{flag}: missing value"));
        let mut options = HarnessOptions::default();
        let mut found = ExtraArgs::default();
        let mut explicit_batch = false;
        let mut args = args.into_iter().peekable();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            if let Some(&kind) = extra.iter().find(|kind| kind.name() == flag) {
                // Values are validated here and kept as text; the typed
                // accessors of `ExtraArgs` re-parse what is known to parse.
                let value = match kind {
                    ExtraFlag::Switch(_) => None,
                    ExtraFlag::OptionalText(_) => args.next_if(|next| !next.starts_with("--")),
                    _ => {
                        let v = args.next().ok_or_else(|| missing_value(flag))?;
                        match kind {
                            ExtraFlag::Count(_) => drop(parsed::<usize>(flag, &v)?),
                            ExtraFlag::Fraction(_) => {
                                parsed_within(flag, &v, "[0, 1]", |x| (0.0..=1.0).contains(&x))?;
                            }
                            ExtraFlag::OnOff(_) if v != "on" && v != "off" => {
                                return Err(UsageError(format!("{flag}: expected on or off")))
                            }
                            _ => {}
                        }
                        Some(v)
                    }
                };
                found.0.push((kind.name(), value));
                continue;
            }
            if !["--scale", "--batch", "--seed", "--traces", "--threads"].contains(&flag) {
                return Err(UsageError(format!("unknown flag {flag:?}")));
            }
            let v = args.next().ok_or_else(|| missing_value(flag))?;
            match flag {
                "--scale" => {
                    options.scale = parsed_within(flag, &v, "(0, 1]", |x| x > 0.0 && x <= 1.0)?
                }
                "--batch" => {
                    options.batch = parsed::<usize>(flag, &v)?.max(1);
                    explicit_batch = true;
                }
                "--seed" => options.seed = parsed(flag, &v)?,
                "--traces" => {
                    let ids: Vec<usize> =
                        v.split(',').map(|t| parsed(flag, t.trim())).collect::<Result<_, _>>()?;
                    // Ids outside Table 1 are dropped, but not all of them:
                    // an empty selection would mean the full sweep.
                    options.traces = ids.into_iter().filter(|t| (1..=15).contains(t)).collect();
                    if options.traces.is_empty() {
                        return Err(UsageError(format!("{flag}: no trace id in 1..=15")));
                    }
                }
                _ => {
                    let t: usize = parsed(flag, &v)?;
                    // 0 is the "available parallelism" sentinel.
                    options.threads = if t == 0 { WorkerPool::available_parallelism() } else { t };
                }
            }
        }
        if !explicit_batch {
            options.batch = Self::scaled_batch(options.scale);
        }
        Ok((options, found))
    }

    /// Parses the process's command line strictly: the shared flags
    /// `--scale <f64 in (0, 1]>`, `--batch <usize>`, `--seed <u64>`,
    /// `--traces <comma separated ids in 1..=15>`, `--threads <usize>` (`0` =
    /// available parallelism), plus the `extra` flags the calling binary
    /// names. An unknown flag, a missing value, or a value that does not parse
    /// or is out of range (`NaN` included) prints a usage error to stderr and
    /// exits with status 2 — a typo must not silently launch the default-scale
    /// sweep.
    pub fn from_env(extra: &[ExtraFlag]) -> (Self, ExtraArgs) {
        Self::from_args(std::env::args().skip(1), extra).unwrap_or_else(|UsageError(reason)| {
            let extras: String = extra.iter().map(|kind| format!(" [{}]", kind.usage())).collect();
            eprintln!(
                "error: {reason}\nusage: [--scale F] [--batch N] [--seed N] [--traces ID,ID,...] \
                 [--threads N]{extras}"
            );
            std::process::exit(2)
        })
    }

    /// The system configuration used by the PIM engines and the baseline,
    /// with the host cache scaled down alongside the graph and the execution
    /// runtime set to `self.threads` workers.
    pub fn system_config(&self) -> MoctopusConfig {
        let mut cfg = MoctopusConfig::paper_defaults().with_threads(self.threads);
        let scaled_cache = (22.0 * 1024.0 * 1024.0 * self.scale) as u64;
        cfg.pim.host.cache_capacity_bytes = scaled_cache.max(64 * 1024);
        cfg
    }
}

/// A command line the harness refuses: what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UsageError(String);

/// A flag one binary accepts on top of the shared [`HarnessOptions`] flags,
/// by the kind of value it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtraFlag {
    /// `--flag`: present or absent.
    Switch(&'static str),
    /// `--flag N`: a `usize`.
    Count(&'static str),
    /// `--flag F`: an `f64` in `[0, 1]`.
    Fraction(&'static str),
    /// `--flag TEXT`.
    Text(&'static str),
    /// `--flag [TEXT]`: the next argument is the value unless it is a flag.
    OptionalText(&'static str),
    /// `--flag on|off`.
    OnOff(&'static str),
}

impl ExtraFlag {
    fn name(self) -> &'static str {
        match self {
            ExtraFlag::Switch(name)
            | ExtraFlag::Count(name)
            | ExtraFlag::Fraction(name)
            | ExtraFlag::Text(name)
            | ExtraFlag::OptionalText(name)
            | ExtraFlag::OnOff(name) => name,
        }
    }

    fn usage(self) -> String {
        match self {
            ExtraFlag::Switch(name) => name.to_string(),
            ExtraFlag::Count(name) => format!("{name} N"),
            ExtraFlag::Fraction(name) => format!("{name} F"),
            ExtraFlag::Text(name) => format!("{name} TEXT"),
            ExtraFlag::OptionalText(name) => format!("{name} [TEXT]"),
            ExtraFlag::OnOff(name) => format!("{name} on|off"),
        }
    }
}

/// The extra flags of the `rpq` binary.
pub const RPQ_FLAGS: [ExtraFlag; 3] = [
    ExtraFlag::Switch("--taxonomy"),
    ExtraFlag::OnOff("--optimize"),
    ExtraFlag::OptionalText("--json"),
];

/// The extra flags of the `serve` binary.
pub const SERVE_FLAGS: [ExtraFlag; 10] = [
    ExtraFlag::Count("--shards"),
    ExtraFlag::Count("--clients"),
    ExtraFlag::Count("--requests"),
    ExtraFlag::Fraction("--update-fraction"),
    ExtraFlag::Count("--distinct"),
    ExtraFlag::Fraction("--burst"),
    ExtraFlag::Fraction("--rotate"),
    ExtraFlag::Text("--emit-trace"),
    ExtraFlag::Text("--snapshot-dir"),
    ExtraFlag::OptionalText("--json"),
];

/// The [`ExtraFlag`]s found on a command line, values already validated (a
/// repeated flag reads as its last occurrence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtraArgs(Vec<(&'static str, Option<String>)>);

impl ExtraArgs {
    /// Whether `flag` was given (with or without a value).
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `flag` as given; `None` when the flag is absent or, for
    /// an [`ExtraFlag::OptionalText`], was given bare.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(name, _)| *name == flag)?.1.as_deref()
    }

    /// The value of an [`ExtraFlag::Count`].
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.text(flag)?.parse().ok()
    }

    /// The value of an [`ExtraFlag::Fraction`].
    pub fn fraction(&self, flag: &str) -> Option<f64> {
        self.text(flag)?.parse().ok()
    }

    /// The value of an [`ExtraFlag::OnOff`].
    pub fn on(&self, flag: &str) -> Option<bool> {
        self.text(flag).map(|value| value == "on")
    }
}

/// A generated workload for one trace: the graph, its edge stream, and the
/// query start nodes.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// The trace specification this workload was generated from.
    pub spec: &'static TraceSpec,
    /// The synthetic stand-in graph.
    pub graph: AdjacencyGraph,
    /// The graph's edges in ingestion order.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Randomly selected start nodes (batch of queries).
    pub sources: Vec<NodeId>,
}

impl TraceWorkload {
    /// Generates the workload for one paper trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace_id` is not in `1..=15`.
    pub fn generate(trace_id: usize, options: &HarnessOptions) -> Self {
        let spec = TraceSpec::by_trace_id(trace_id).expect("trace id must be 1..=15");
        let graph = spec.generate(options.scale, options.seed ^ trace_id as u64);
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
        edges.sort();
        let sources = graph_gen::stream::sample_start_nodes(&graph, options.batch, options.seed);
        TraceWorkload { spec, graph, edges, sources }
    }

    /// Builds a Moctopus system loaded with this workload.
    pub fn moctopus(&self, options: &HarnessOptions) -> MoctopusSystem {
        MoctopusSystem::from_edge_stream(options.system_config(), &self.edges)
    }

    /// Builds a PIM-hash system loaded with this workload.
    pub fn pim_hash(&self, options: &HarnessOptions) -> PimHashSystem {
        PimHashSystem::from_edge_stream(options.system_config(), &self.edges)
    }

    /// Builds the RedisGraph-like baseline loaded with this workload.
    pub fn host_baseline(&self, options: &HarnessOptions) -> HostBaseline {
        HostBaseline::from_edge_stream(options.system_config(), &self.edges)
    }

    /// Builds all three engines, boxed, in the order the paper plots them.
    pub fn all_engines(&self, options: &HarnessOptions) -> Vec<Box<dyn GraphEngine>> {
        vec![
            Box::new(self.moctopus(options)),
            Box::new(self.pim_hash(options)),
            Box::new(self.host_baseline(options)),
        ]
    }
}

/// The labelled query set swept by the `rpq` experiment binary: a
/// fixed-length label chain, a
/// star/alternation pattern, a plain k-hop, and a transitive closure — one
/// representative of every execution strategy the engines implement.
pub const RPQ_QUERY_SET: [&str; 4] = ["1/2/3", "1/(2|3)*/4", ".{2}", "1+"];

/// The PathForge AQ1–AQ28 conformance taxonomy, instantiated over the Zipf
/// label mix this harness generates: `a` = label 1 (the most common), `b` =
/// label 8 (the rarest), `c` = label 4 (mid-rank); PathForge's `.`
/// concatenation operator is this syntax's `/`. Swept by `rpq --taxonomy`
/// and pinned end-to-end by `tests/rpq_taxonomy.rs`.
pub const AQ_TAXONOMY: [(&str, &str); 28] = [
    ("AQ1", "1/8"),
    ("AQ2", "1/8/4"),
    ("AQ3", "(1/8)?"),
    ("AQ4", "1/(8|4)"),
    ("AQ5", "4/(1?)"),
    ("AQ6", "(4?)/1"),
    ("AQ7", "1|8"),
    ("AQ8", "(1/8)|4"),
    ("AQ9", "(1|8)|4"),
    ("AQ10", "1+|8"),
    ("AQ11", "1*|8"),
    ("AQ12", "1|4"),
    ("AQ13", "(1?)|8"),
    ("AQ14", "4|(1?)"),
    ("AQ15", "1?"),
    ("AQ16", "1??"),
    ("AQ17", "4|(1|8)"),
    ("AQ18", "(1|8)+"),
    ("AQ19", "(1|8)?"),
    ("AQ20", "(1|8)*"),
    ("AQ21", "4|(1/8)"),
    ("AQ22", "1+/8"),
    ("AQ23", "1*/8"),
    ("AQ24", "1/8+"),
    ("AQ25", "1/8*"),
    ("AQ26", "1|(1+)"),
    ("AQ27", "1+"),
    ("AQ28", "1*"),
];

/// A generated labelled workload: a Zipf label mix layered over one of the
/// standard topologies, plus the labelled ingestion stream and query sources.
#[derive(Debug, Clone)]
pub struct RpqWorkload {
    /// Topology family name used in experiment output.
    pub name: &'static str,
    /// The labelled stand-in graph.
    pub graph: AdjacencyGraph,
    /// The graph's labelled edges in ingestion order.
    pub edges: Vec<(NodeId, NodeId, Label)>,
    /// Randomly selected start nodes (batch of queries).
    pub sources: Vec<NodeId>,
}

impl RpqWorkload {
    /// Node cap of the labelled workloads: unlike k-hop batches, closure
    /// queries (`1+`, `(2|3)*`) materialise a per-source *reachable set*, so
    /// answer size — and the engines' product-frontier working set — grows
    /// with `nodes × batch` instead of staying frontier-sized.
    const MAX_NODES: usize = 32 * 1024;

    /// Batch cap of the labelled workloads, for the same reason (the k-hop
    /// harness floor).
    const MAX_BATCH: usize = 1024;

    /// Paper-like node budget of the labelled workloads at `scale`, capped at
    /// [`RpqWorkload::MAX_NODES`].
    fn scaled_nodes(scale: f64) -> usize {
        ((128.0 * 1024.0 * scale) as usize).clamp(256, Self::MAX_NODES)
    }

    /// The label mix every labelled workload draws from (one source of truth
    /// for the generators and the metadata the binaries print/record).
    pub fn label_mix() -> LabelMixConfig {
        LabelMixConfig::default()
    }

    /// A labelled uniform (low-skew) workload.
    pub fn uniform(options: &HarnessOptions) -> Self {
        let topology =
            graph_gen::uniform::generate(Self::scaled_nodes(options.scale), 6.0, options.seed);
        Self::from_topology("uniform", topology, options)
    }

    /// A labelled power-law (skewed, community-structured) workload.
    pub fn power_law(options: &HarnessOptions) -> Self {
        let cfg = graph_gen::powerlaw::PowerLawConfig {
            nodes: Self::scaled_nodes(options.scale),
            high_degree_fraction: 0.02,
            ..Default::default()
        };
        let topology = graph_gen::powerlaw::generate(&cfg, options.seed);
        Self::from_topology("power-law", topology, options)
    }

    /// The paper's motivating rare-closure case as a crafted workload: a
    /// large chorded label-1 ring that can never reach the rare label 8,
    /// plus a small **disjoint** pocket whose label-1 chains feed label-8
    /// edges into a tiny sink cluster (labels 2–7 sprinkled over the big
    /// component so the rest of the taxonomy stays non-trivial).
    ///
    /// Closure-over-rare-tail queries (`1+/8`, `1*/8`) flood the whole big
    /// component under the forward plan but prune to the pocket under the
    /// bidirectional plan — the backward useful-set pass starts from the
    /// rare label's few sources and never touches the ring — so this is the
    /// workload where the optimizer's priced win becomes a large *measured*
    /// executed win (EXPERIMENTS.md).
    pub fn rare_closure(options: &HarnessOptions) -> Self {
        let nodes = Self::scaled_nodes(options.scale) as u64;
        let big = (nodes * 7 / 8).max(64);
        let chains = (nodes / 128).max(4);
        let mut graph = AdjacencyGraph::new();
        // Label 1 is a near-ring (one out-edge per node plus sparse stride-32
        // shortcuts): per-round closure fanout stays ~1, so the backward
        // sweep priced from the rare label's few sources is honestly cheap
        // while a forward closure must still flood the whole component.
        for i in 0..big {
            graph.insert_edge(NodeId(i), NodeId((i + 1) % big), Label(1));
            if i % 32 == 0 {
                graph.insert_edge(NodeId(i), NodeId((i + 32) % big), Label(1));
            }
            if i % 3 == 0 {
                graph.insert_edge(NodeId(i), NodeId((i * 5 + 1) % big), Label(2 + (i % 6) as u16));
            }
        }
        const CHAIN_LEN: u64 = 8;
        let sink = big + chains * CHAIN_LEN;
        for c in 0..chains {
            let start = big + c * CHAIN_LEN;
            for i in 0..CHAIN_LEN - 1 {
                graph.insert_edge(NodeId(start + i), NodeId(start + i + 1), Label(1));
            }
            graph.insert_edge(NodeId(start + CHAIN_LEN - 1), NodeId(sink + c % 4), Label(8));
        }
        let edges = graph_gen::labels::labeled_edge_stream(&graph);
        let batch = options.batch.min(Self::MAX_BATCH);
        let mut sources = graph_gen::stream::sample_start_nodes(&graph, batch, options.seed);
        // Pin a few chain heads into the batch so rare-tail answers are
        // non-empty regardless of what the sampler drew.
        for c in 0..chains.min(8) {
            let slot = (c as usize * 7) % sources.len();
            sources[slot] = NodeId(big + c * CHAIN_LEN);
        }
        RpqWorkload { name: "rare-closure", graph, edges, sources }
    }

    fn from_topology(
        name: &'static str,
        topology: AdjacencyGraph,
        options: &HarnessOptions,
    ) -> Self {
        let graph = graph_gen::labels::relabel(&topology, &Self::label_mix(), options.seed);
        let edges = graph_gen::labels::labeled_edge_stream(&graph);
        let batch = options.batch.min(Self::MAX_BATCH);
        let sources = graph_gen::stream::sample_start_nodes(&graph, batch, options.seed);
        RpqWorkload { name, graph, edges, sources }
    }

    /// Builds all three engines loaded with the labelled stream, in the order
    /// the paper plots them (Moctopus refined once, as in the k-hop harness).
    pub fn all_engines(&self, options: &HarnessOptions) -> Vec<Box<dyn GraphEngine>> {
        let mut moctopus = MoctopusSystem::new(options.system_config());
        moctopus.insert_labeled_edges(&self.edges);
        moctopus.refine_locality();
        let mut pim_hash = PimHashSystem::new(options.system_config());
        pim_hash.insert_labeled_edges(&self.edges);
        let mut baseline = HostBaseline::new(options.system_config());
        baseline.insert_labeled_edges(&self.edges);
        vec![Box::new(moctopus), Box::new(pim_hash), Box::new(baseline)]
    }
}

/// Geometric mean of a slice of positive ratios (1.0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a simulated latency in milliseconds with three decimals.
pub fn fmt_ms(t: pim_sim::SimTime) -> String {
    format!("{:.3}", t.as_millis())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_cover_all_traces() {
        let o = HarnessOptions::default();
        assert_eq!(o.traces.len(), 15);
        assert_eq!(o.batch, 1024);
        assert!(o.scale > 0.0);
    }

    fn parse(line: &str, extra: &[ExtraFlag]) -> Result<(HarnessOptions, ExtraArgs), UsageError> {
        HarnessOptions::from_args(line.split_whitespace().map(str::to_string), extra)
    }

    #[test]
    fn argument_parsing_overrides_defaults() {
        let (o, _) = parse("--scale 0.5 --batch 2048 --seed 7 --traces 1,2,99", &[]).unwrap();
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.batch, 2048);
        assert_eq!(o.seed, 7);
        assert_eq!(o.traces, vec![1, 2]);
    }

    #[test]
    fn batch_follows_scale_unless_explicit() {
        let (o, _) = parse("--scale 1.0", &[]).unwrap();
        assert_eq!(o.batch, 64 * 1024);
        let (o2, _) = parse("--scale 1.0 --batch 128", &[]).unwrap();
        assert_eq!(o2.batch, 128);
    }

    #[test]
    fn threads_flag_overrides_and_zero_means_auto() {
        let (o, _) = parse("--threads 3", &[]).unwrap();
        assert_eq!(o.threads, 3);
        assert_eq!(o.system_config().threads, 3);
        let (auto, _) = parse("--threads 0", &[]).unwrap();
        assert_eq!(auto.threads, moctopus_runtime::WorkerPool::available_parallelism());
        assert!(HarnessOptions::default().threads >= 1, "default follows the machine");
    }

    #[test]
    fn typos_missing_values_and_unparseable_values_are_usage_errors() {
        let flags = [&RPQ_FLAGS[..], &SERVE_FLAGS[..]].concat();
        for bad in [
            "--sacle 1",
            "--nope",
            "--scale 0.25 --json out.json stray",
            "--scale",
            "--traces 1,2 --seed",
            "--clients",
            "--scale x",
            "--batch -3",
            "--seed 1.5",
            "--traces 1,two",
            "--traces 99",
            "--threads many",
            "--clients 4.5",
            "--burst lots",
            "--optimize maybe",
            "--scale nan",
            "--scale inf",
            "--scale 0",
            "--scale -0.5",
            "--scale 5",
            "--burst nan",
            "--rotate 1.5",
            "--update-fraction -0.1",
            "--update-fraction inf",
        ] {
            assert!(parse(bad, &flags).is_err(), "{bad:?} must be refused");
        }
        // A flag only another binary names is unknown here.
        assert!(parse("--clients 4", &RPQ_FLAGS).is_err());
        let UsageError(reason) = parse("--sacle 1", &[]).unwrap_err();
        assert!(reason.contains("--sacle"), "the error names the offending flag: {reason}");
    }

    /// The flag set every binary documents, parsed with the flag tables the
    /// binaries themselves pass.
    #[test]
    fn every_documented_flag_set_is_accepted() {
        let shared = "--scale 0.002 --batch 64 --seed 9 --threads 2";
        let (o, _) = parse(&format!("{shared} --traces 8,12"), &[]).unwrap();
        assert_eq!((o.scale, o.batch, o.seed, o.threads), (0.002, 64, 9, 2));
        assert_eq!(o.traces, vec![8, 12]);

        let (_, rpq) =
            parse(&format!("{shared} --taxonomy --optimize off --json"), &RPQ_FLAGS).unwrap();
        assert!(rpq.has("--taxonomy") && rpq.has("--json"));
        assert_eq!((rpq.on("--optimize"), rpq.text("--json")), (Some(false), None));

        let (o, serve) = parse(
            "--shards 2 --clients 3 --requests 40 --update-fraction 0.1 --distinct 6 --burst 0.2 \
             --rotate 0.3 --emit-trace t.txt --snapshot-dir snap --json serve.json --json --seed 5",
            &SERVE_FLAGS,
        )
        .unwrap();
        assert_eq!(o.seed, 5, "a flag after a value-less --json is not swallowed as its path");
        assert_eq!(serve.count("--shards"), Some(2));
        assert_eq!(serve.count("--requests"), Some(40));
        assert_eq!(serve.fraction("--update-fraction"), Some(0.1));
        assert_eq!(serve.text("--emit-trace"), Some("t.txt"));
        assert_eq!(serve.text("--snapshot-dir"), Some("snap"));
        assert_eq!(serve.text("--json"), None, "the last occurrence wins");
        assert_eq!(serve.count("--distinct"), Some(6));
        assert_eq!(serve.fraction("--rotate"), Some(0.3));
    }

    #[test]
    fn workload_generation_matches_spec_family() {
        let options = HarnessOptions { scale: 0.001, batch: 64, ..HarnessOptions::default() };
        let road = TraceWorkload::generate(1, &options);
        assert_eq!(road.spec.trace_id, 1);
        assert_eq!(road.graph.count_high_degree(16), 0);
        assert_eq!(road.sources.len(), 64);
        let skewed = TraceWorkload::generate(12, &options);
        assert!(skewed.graph.count_high_degree(16) > 0);
    }

    #[test]
    fn engines_built_from_a_workload_agree() {
        let options = HarnessOptions { scale: 0.0005, batch: 32, ..HarnessOptions::default() };
        let w = TraceWorkload::generate(14, &options);
        let mut engines = w.all_engines(&options);
        let (reference, _) = engines[2].k_hop_batch(&w.sources, 2);
        for engine in engines.iter_mut().take(2) {
            let (r, _) = engine.k_hop_batch(&w.sources, 2);
            assert_eq!(r, reference, "{} differs from the baseline", engine.name());
        }
    }

    #[test]
    fn geometric_mean_behaviour() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_config_shrinks_the_cache() {
        let options = HarnessOptions { scale: 0.01, ..HarnessOptions::default() };
        let cfg = options.system_config();
        assert!(cfg.pim.host.cache_capacity_bytes < 22 * 1024 * 1024);
        assert!(cfg.pim.host.cache_capacity_bytes >= 64 * 1024);
    }

    #[test]
    fn rpq_workload_is_labelled_and_capped() {
        let options = HarnessOptions { scale: 1.0, ..HarnessOptions::default() };
        let w = RpqWorkload::power_law(&options);
        assert!(w.graph.node_count() <= RpqWorkload::MAX_NODES);
        assert_eq!(w.sources.len(), RpqWorkload::MAX_BATCH, "batch capped at the harness floor");
        assert!(w.graph.edges().all(|(_, _, l)| l.0 >= 1), "every edge carries a real label");
        assert_eq!(w.edges.len(), w.graph.edge_count());
    }

    #[test]
    fn rpq_engines_agree_on_the_query_set() {
        let options = HarnessOptions { scale: 0.001, batch: 16, ..HarnessOptions::default() };
        let w = RpqWorkload::uniform(&options);
        let mut engines = w.all_engines(&options);
        for text in RPQ_QUERY_SET {
            let expr = rpq::parser::parse(text).expect("query set must parse");
            let (reference, _) = engines[2].rpq_batch(&expr, &w.sources);
            for engine in engines.iter_mut().take(2) {
                let (r, _) = engine.rpq_batch(&expr, &w.sources);
                assert_eq!(r, reference, "{} differs from the baseline on {text:?}", engine.name());
            }
        }
    }
}
