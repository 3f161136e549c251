//! `perf`: the repository's benchmark. One harness, four workloads, both
//! clocks, a layer-by-layer trace. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON line
//! perf all [--seed n] [--seconds s] [--repeat k] [--smoke] [--out file]
//! perf compare A.json B.json
//! ```

mod compare;
mod json;
mod layers;
mod metrics;
mod repo;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{RunOptions, RunReport};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// `run_seconds` of `/BENCHMARK.json`: how long one run measures by default.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  perf --workload <khop|closure|serve_read|serve_write> [--seed n] [--seconds s] [--trace 0|1]
       [--smoke] [--trace-out spans.json]
  perf all [--seed n] [--seconds s] [--repeat k] [--smoke] [--out record.json]
  perf compare A.json B.json
  perf list";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run(RunOptions),
    All { seed: u64, seconds: f64, repeat: usize, smoke: bool, out: Option<PathBuf> },
    Compare { a: PathBuf, b: PathBuf },
    List,
}

/// Parses the arguments after the program name. Unknown flags, missing or
/// unparseable values are errors, never silently defaulted.
fn parse_args(args: &[String]) -> Result<Command, String> {
    fn value<'a, T: std::str::FromStr>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<T, String> {
        let text = it.next().ok_or(format!("{flag} needs a value"))?;
        text.parse().map_err(|_| format!("{flag}: cannot parse `{text}`"))
    }
    let positive = |flag: &str, seconds: f64| {
        if seconds > 0.0 && seconds.is_finite() {
            Ok(seconds)
        } else {
            Err(format!("{flag} must be a positive number"))
        }
    };
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(Command::Compare { a: a.into(), b: b.into() }),
            _ => Err("compare takes exactly two records".into()),
        },
        Some("list") if args.len() == 1 => Ok(Command::List),
        Some("all") => {
            let (mut seed, mut seconds, mut repeat, mut smoke, mut out) =
                (42, None, 1usize, false, None);
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => seed = value(flag, &mut it)?,
                    "--seconds" => seconds = Some(positive(flag, value(flag, &mut it)?)?),
                    "--repeat" => {
                        repeat = value(flag, &mut it)?;
                        if repeat == 0 {
                            return Err("--repeat must be at least 1".into());
                        }
                    }
                    "--smoke" => smoke = true,
                    "--out" => out = Some(PathBuf::from(value::<String>(flag, &mut it)?)),
                    other => return Err(format!("unknown argument `{other}`")),
                }
            }
            // A smoke run is a look at the plumbing: a second per run will do.
            let seconds = seconds.unwrap_or(if smoke { 1.0 } else { RUN_SECONDS });
            Ok(Command::All { seed, seconds, repeat, smoke, out })
        }
        _ => {
            let mut workload = None;
            let (mut seed, mut seconds, mut trace, mut smoke, mut trace_out) =
                (42, RUN_SECONDS, false, false, None);
            let mut it = args.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workload" => {
                        let name: String = value(flag, &mut it)?;
                        workload = Some(
                            Workload::from_name(&name)
                                .ok_or(format!("unknown workload `{name}`"))?,
                        );
                    }
                    "--seed" => seed = value(flag, &mut it)?,
                    "--seconds" => seconds = positive(flag, value(flag, &mut it)?)?,
                    "--trace" => {
                        trace = match value::<u8>(flag, &mut it)? {
                            0 => false,
                            1 => true,
                            _ => return Err("--trace takes 0 or 1".into()),
                        }
                    }
                    "--smoke" => smoke = true,
                    "--trace-out" => {
                        trace_out = Some(PathBuf::from(value::<String>(flag, &mut it)?))
                    }
                    other => return Err(format!("unknown argument `{other}`")),
                }
            }
            let workload = workload.ok_or("--workload is required")?;
            if trace_out.is_some() && !trace {
                return Err("--trace-out needs --trace 1".into());
            }
            Ok(Command::Run(RunOptions { workload, seed, seconds, trace, smoke, trace_out }))
        }
    }
}

fn metrics_json(report: &RunReport, table: &'static [MetricDef]) -> Result<Json, String> {
    Ok(Json::obj(report.values.in_table_order(table)?.into_iter().map(|(def, value)| {
        (def.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]))
    })))
}

/// One run: a detail line for `perf all`, then the contract's result line.
fn run_one(options: &RunOptions) -> Result<bool, String> {
    let report = run::run(options)?;
    let table = if options.trace { PER_LAYER } else { END_TO_END };
    let metrics = metrics_json(&report, table)?;
    let detail = Json::obj([
        ("workload", Json::str(options.workload.name())),
        ("seed", Json::Num(options.seed as f64)),
        ("input_checksum", Json::str(format!("{:016x}", report.input_checksum))),
        ("p95_samples", Json::Num(report.samples as f64)),
        ("problems", Json::Arr(report.problems.iter().map(Json::str).collect())),
    ]);
    println!("{}", Json::obj([("detail", detail)]).compact());
    let result = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    Ok(report.correct)
}

/// The two lines a child run printed, parsed.
struct ChildRun {
    detail: Json,
    result: Json,
}

fn spawn_run(options: &RunOptions) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the perf binary: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", options.workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }]);
    if options.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child; its stderr passes through to ours.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", options.workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the run printed nothing")?;
    let detail = lines.next().ok_or("the run printed no detail line")?;
    if !output.status.success() {
        eprintln!("perf: the {} run exited with {}", options.workload.name(), output.status);
    }
    Ok(ChildRun {
        detail: json::parse(detail)?.get("detail").cloned().ok_or("malformed detail line")?,
        result: json::parse(result)?,
    })
}

fn sizes_json(workload: Workload, smoke: bool) -> Json {
    let s = workload.sizes(smoke);
    Json::obj([
        ("scale", Json::Num(s.scale)),
        ("sources_per_op", Json::Num(s.sources as f64)),
        ("update_edges", Json::Num(s.update_edges as f64)),
        ("warmup_ops", Json::Num(s.warmup_ops as f64)),
        ("window_ops", Json::Num(s.window_ops as f64)),
        ("threads", Json::Num(workload.threads() as f64)),
    ])
}

/// A workload whose process died: every op counts as failed.
fn dead_workload(why: &str) -> Json {
    Json::obj([
        ("correct", Json::Bool(false)),
        ("failed_share", Json::Num(1.0)),
        ("problems", Json::Arr(vec![Json::str(why)])),
    ])
}

/// Runs one workload in fresh child processes: `repeat` untraced runs (each
/// end-to-end metric is their median, with every value and the spread
/// recorded), then one traced run; checks the two agree on inputs and on
/// simulated time.
fn run_workload(workload: Workload, seed: u64, seconds: f64, repeat: usize, smoke: bool) -> Json {
    let options = RunOptions { workload, seed, seconds, trace: false, smoke, trace_out: None };
    let mut untraced = Vec::new();
    for _ in 0..repeat {
        match spawn_run(&options) {
            Ok(run) => untraced.push(run),
            Err(e) => return dead_workload(&e),
        }
    }
    let traced = match spawn_run(&RunOptions { trace: true, ..options }) {
        Ok(run) => run,
        Err(e) => return dead_workload(&e),
    };

    let number = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let metric = |run: &ChildRun, name: &str| {
        run.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let mut problems: Vec<Json> = Vec::new();
    for run in untraced.iter().chain([&traced]) {
        problems.extend(
            run.detail.get("problems").and_then(Json::as_arr).unwrap_or(&[]).iter().cloned(),
        );
    }
    let checksum = untraced[0].detail.get("input_checksum").cloned().unwrap_or(Json::Null);
    if traced.detail.get("input_checksum") != Some(&checksum) {
        problems.push(Json::str("the traced run generated different inputs"));
    }
    // The traced run's five phases must add up to the untraced run's sim_ms.
    let phases: f64 = ["host", "pim", "cpc", "ipc", "reduce"]
        .iter()
        .filter_map(|p| metric(&traced, &format!("pim_sim.{p}_ms")))
        .sum();
    // (A missing sim_ms is NaN, whose difference is not small either.)
    let sim = metric(&untraced[0], "sim_ms").unwrap_or(f64::NAN);
    let off = (phases - sim).abs();
    if off.is_nan() || off > 1e-6 * sim.abs() {
        problems.push(Json::str(format!("sim_ms {sim} but the traced phases sum to {phases}")));
    }

    let end_to_end = Json::obj(END_TO_END.iter().map(|def| {
        let values: Vec<f64> = untraced.iter().filter_map(|run| metric(run, def.name)).collect();
        let mut fields = vec![
            (
                "value",
                if values.is_empty() { Json::Null } else { Json::Num(stats::median(&values)) },
            ),
            ("unit", Json::str(def.unit)),
        ];
        if values.len() > 1 {
            fields.push(("spread", Json::Num(stats::iqr_share(&values))));
            fields.push(("values", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())));
        }
        (def.name, Json::obj(fields))
    }));
    let attempted: f64 = untraced.iter().map(|run| number(&run.result, "attempted")).sum();
    let failed: f64 = untraced.iter().map(|run| number(&run.result, "failed")).sum();
    let correct = problems.is_empty()
        && untraced
            .iter()
            .chain([&traced])
            .all(|run| run.result.get("correct") == Some(&Json::Bool(true)));
    Json::obj([
        ("why", Json::str(workload.why())),
        ("sizes", sizes_json(workload, smoke)),
        ("input_checksum", checksum),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_share", Json::Num(failed / attempted)),
        ("p95_samples", untraced[0].detail.get("p95_samples").cloned().unwrap_or(Json::Null)),
        ("runs", Json::Num(repeat as f64)),
        ("end_to_end", end_to_end),
        ("per_layer", traced.result.get("metrics").cloned().unwrap_or(Json::Null)),
        ("traced_run_failed", traced.result.get("failed").cloned().unwrap_or(Json::Null)),
        ("problems", Json::Arr(problems)),
    ])
}

fn run_all(
    seed: u64,
    seconds: f64,
    repeat: usize,
    smoke: bool,
    out: Option<PathBuf>,
) -> Result<bool, String> {
    let workloads: Vec<(String, Json)> = Workload::ALL
        .into_iter()
        .map(|w| {
            eprintln!("perf: {} ...", w.name());
            (w.name().to_string(), run_workload(w, seed, seconds, repeat, smoke))
        })
        .collect();
    let correct = workloads.iter().all(|(_, w)| w.get("correct") == Some(&Json::Bool(true)));
    let record = Json::obj([
        ("schema", Json::str("moctopus-perf/1")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("cores", Json::Num(run::cores() as f64)),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let text = record.pretty();
    if let Some(path) = out {
        std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print!("{text}");
    Ok(correct)
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Regressed))
}

/// Prints both metric tables: what each metric measures and, per layer, which
/// end-to-end metric it should move on which workload.
fn list_metrics() {
    for (title, table) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        println!("# {title}");
        for def in table {
            let bound = if title == "end to end" {
                format!(" bound {:.2}", def.bound)
            } else {
                String::new()
            };
            println!("{:<40} {:<7} {:<6}{bound}  {}", def.name, def.unit, def.better, def.note);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &command {
        Command::Run(options) => run_one(options),
        Command::All { seed, seconds, repeat, smoke, out } => {
            run_all(*seed, *seconds, *repeat, *smoke, out.clone())
        }
        Command::Compare { a, b } => run_compare(a, b),
        Command::List => {
            list_metrics();
            Ok(true)
        }
    };
    match outcome {
        // A finished run exits 0 and says in its result whether it was correct;
        // `all` and `compare` turn an incorrect run or a regression into exit 1.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) if matches!(command, Command::Run(_)) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse_args(&args("--workload khop --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunOptions {
                workload: Workload::KHop,
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false,
                trace_out: None,
            })
        );
        assert!(matches!(
            parse_args(&args("all --seed 42 --smoke")).unwrap(),
            Command::All { seed: 42, smoke: true, repeat: 1, .. }
        ));
        assert!(matches!(
            parse_args(&args("compare a.json b.json")).unwrap(),
            Command::Compare { .. }
        ));
    }

    #[test]
    fn flags_are_strict() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload khop --sede 3",
            "--workload khop --seed x",
            "--workload khop --seed -1",
            "--workload khop --seconds 0",
            "--workload khop --seconds soon",
            "--workload khop --trace 2",
            "--workload khop --trace-out spans.json",
            "--seed 3",
            "all --workload khop",
            "all --repeat 0",
            "all --seconds",
            "compare a.json",
            "compare a.json b.json c.json",
            "list all",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be a usage error");
        }
    }

    /// `/BENCHMARK.json` and the harness tables must list the same workloads
    /// and the same metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_harness_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let harness: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), harness);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(
                names(key),
                table.iter().map(|m| m.name.to_string()).collect::<Vec<_>>(),
                "{key}"
            );
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better),
                    "{}",
                    def.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").and_then(Json::as_f64),
                        Some(def.bound),
                        "{}",
                        def.name
                    );
                }
            }
        }
        for (entry, w) in
            doc.get("workloads").and_then(Json::as_arr).unwrap().iter().zip(Workload::ALL)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
        let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, [Json::str("perf")]);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(def.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
