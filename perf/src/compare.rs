//! `perf compare A.json B.json`: per workload and end-to-end metric, A, B,
//! the ratio with its base, the bound, and a verdict.
//!
//! Host-time metrics are compared against the benchmark's bound, and reported
//! `unresolved` when a record's own run-to-run spread is wider than the bound
//! (a difference smaller than the noise is not a finding either way).
//! Simulated metrics repeat bit for bit, so they are compared exactly.
//! Records of different inputs are refused: a generator change outside the
//! benchmark's files must not silently change a workload.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END};

/// How B relates to A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound (simulated: by any amount).
    Improved,
    /// Within the bound (simulated: identical).
    Unchanged,
    /// Worse than A by more than the bound (simulated: by any amount).
    Regressed,
    /// A record's spread exceeds the bound; the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric. `spread` is the wider of the two records'
/// recorded spreads (`(q3 - q1) / median` over repeated runs; 0 when a record
/// holds a single run).
pub fn verdict(def: &MetricDef, a: f64, b: f64, spread: f64) -> Verdict {
    let lower_is_better = def.better == "lower";
    if def.unit == "sim_ms" {
        return match (a.to_bits() == b.to_bits(), (b < a) == lower_is_better) {
            (true, _) => Verdict::Unchanged,
            (false, true) => Verdict::Improved,
            (false, false) => Verdict::Regressed,
        };
    }
    if spread > def.bound {
        return Verdict::Unresolved;
    }
    // Worsening as a share of A, the base.
    let worsening = if lower_is_better { (b - a) / a } else { (a - b) / a };
    if worsening > def.bound {
        Verdict::Regressed
    } else if worsening < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's value (the base of the ratio).
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// Verdict.
    pub verdict: Verdict,
}

fn metric_of(record: &Json, workload: &str, metric: &str, field: &str) -> Option<f64> {
    record.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get(field)?.as_f64()
}

/// Compares two records written by `perf all`.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads =
        a.get("workloads").and_then(Json::as_obj).ok_or("record A has no `workloads` object")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        let checksum = |record: &Json| {
            record
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("input_checksum"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let (sum_a, sum_b) = (checksum(a), checksum(b));
        if sum_b.is_none() {
            return Err(format!("record B has no workload `{workload}`"));
        }
        if sum_a != sum_b {
            return Err(format!(
                "`{workload}` ran on different inputs (input_checksum {} vs {}): not comparable",
                sum_a.unwrap_or_default(),
                sum_b.unwrap_or_default()
            ));
        }
        for def in END_TO_END {
            let value = |record, which: &str| {
                metric_of(record, workload, def.name, "value")
                    .ok_or(format!("record {which} lacks {workload}.{}", def.name))
            };
            let spread = |record| metric_of(record, workload, def.name, "spread").unwrap_or(0.0);
            let (va, vb) = (value(a, "A")?, value(b, "B")?);
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: va,
                b: vb,
                verdict: verdict(def, va, vb, spread(a).max(spread(b))),
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a table; every ratio is given with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<12} {:>14} {:>14} {:>16} {:>6}  {}\n",
        "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict"
    );
    for row in rows {
        let def = crate::metrics::find(row.metric).expect("rows come from the table");
        let bound =
            if def.unit == "sim_ms" { "exact".to_string() } else { format!("{:.2}", def.bound) };
        out.push_str(&format!(
            "{:<12} {:<12} {:>14.4} {:>14.4} {:>16.4} {:>6}  {}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.b / row.a,
            bound,
            row.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn def(name: &str) -> &'static MetricDef {
        crate::metrics::find(name).unwrap()
    }

    #[test]
    fn host_metrics_follow_the_bound_and_direction() {
        let p50 = def("wall_p50_ms"); // lower is better, bound 0.25
        assert_eq!(verdict(p50, 10.0, 12.0, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(p50, 10.0, 13.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(p50, 10.0, 7.0, 0.0), Verdict::Improved);
        let rate = def("ops_per_s"); // higher is better
        assert_eq!(verdict(rate, 100.0, 70.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(rate, 100.0, 130.0, 0.0), Verdict::Improved);
        assert_eq!(verdict(rate, 100.0, 80.0, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let p50 = def("wall_p50_ms");
        assert_eq!(verdict(p50, 10.0, 20.0, p50.bound + 0.01), Verdict::Unresolved);
        assert_eq!(verdict(p50, 10.0, 20.0, p50.bound), Verdict::Regressed);
    }

    #[test]
    fn simulated_metrics_are_compared_exactly() {
        let sim = def("sim_ms");
        assert_eq!(verdict(sim, 12.5, 12.5, 9.9), Verdict::Unchanged);
        assert_eq!(verdict(sim, 12.5, 12.500000001, 0.0), Verdict::Regressed);
        assert_eq!(verdict(sim, 12.5, 12.499999999, 0.0), Verdict::Improved);
    }

    fn record(checksum: &str, p50: f64) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "wall_p50_ms" { p50 } else { 1.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        parse(&format!(
            "{{\"workloads\": {{\"khop\": {{\"input_checksum\": \"{checksum}\", \"end_to_end\": {{{}}}}}}}}}",
            metrics.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn records_are_compared_row_by_row() {
        let rows = compare(&record("abc", 10.0), &record("abc", 14.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        let p50 = rows.iter().find(|r| r.metric == "wall_p50_ms").unwrap();
        assert_eq!(p50.verdict, Verdict::Regressed);
        assert!(rows
            .iter()
            .filter(|r| r.metric != "wall_p50_ms")
            .all(|r| r.verdict == Verdict::Unchanged));
        assert!(render(&rows).contains("regressed"));
    }

    #[test]
    fn records_of_different_inputs_are_refused() {
        let err = compare(&record("abc", 10.0), &record("abd", 10.0)).unwrap_err();
        assert!(err.contains("different inputs"), "{err}");
        let empty = parse("{\"workloads\": {}}").unwrap();
        assert!(compare(&record("abc", 10.0), &empty).is_err());
        assert!(compare(&parse("{}").unwrap(), &empty).is_err());
    }
}
