//! Result records: the one-line JSON object a run ends with, the result
//! file `--out` writes (an `env` block plus every run), and `--compare`,
//! which applies `BENCHMARK.json`'s bounds to two result files.

use std::collections::BTreeMap;
use std::path::Path;

use les3_net::json::Json;

use crate::gen::Scale;
use crate::stats::{median, quartile_spread};

/// One finished run, as printed on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl RunRecord {
    /// The members the benchmark contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    fn result_members(&self) -> Vec<(String, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = obj(vec![
                    ("value", Json::from(*value)),
                    ("unit", Json::from(unit.as_str())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        vec![
            ("correct".to_string(), Json::from(self.correct)),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    }

    /// The last line of a run: the contract's object and nothing else.
    pub fn result_line(&self) -> String {
        Json::Obj(self.result_members()).to_string()
    }

    /// A result file entry: which run it was, then the contract's object.
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("workload".to_string(), Json::from(self.workload.as_str())),
            ("seed".to_string(), Json::from(self.seed)),
            ("trace".to_string(), Json::from(self.trace)),
        ];
        members.extend(self.result_members());
        Json::Obj(members)
    }

    /// Reads a record back from a result file entry, or from a result
    /// line plus what the caller knows about the run.
    pub fn from_json(value: &Json, workload: &str, seed: u64, trace: bool) -> Option<RunRecord> {
        let Json::Obj(metrics) = value.get("metrics")? else {
            return None;
        };
        let metrics = metrics
            .iter()
            .map(|(name, entry)| {
                let value = entry.get("value")?.as_f64()?;
                Some((
                    name.clone(),
                    value,
                    entry.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunRecord {
            workload: value
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or(workload)
                .to_string(),
            seed: value.get("seed").and_then(Json::as_u64).unwrap_or(seed),
            trace: value.get("trace").and_then(Json::as_bool).unwrap_or(trace),
            correct: value.get("correct")?.as_bool()?,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What machine and build produced a result file.
pub fn env_block(seed: u64, seconds: f64, scale: Scale) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("logical_cores", Json::from(cores)),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"]).as_str()),
        ),
        (
            "rustc",
            Json::from(command_line("rustc", &["--version"]).as_str()),
        ),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(scale.name)),
        ("sets", Json::from(scale.sets)),
        ("groups", Json::from(scale.groups)),
        ("l2p_pairs", Json::from(scale.l2p_pairs)),
        ("queries", Json::from(scale.queries)),
        ("check_queries", Json::from(scale.check_queries)),
    ])
}

/// Writes a result file: the `env` block and every run.
pub fn write_result_file(path: &Path, env: Json, runs: &[RunRecord]) -> std::io::Result<()> {
    let runs = Json::Arr(runs.iter().map(RunRecord::to_json).collect());
    std::fs::write(
        path,
        obj(vec![("env", env), ("runs", runs)]).to_string() + "\n",
    )
}

fn read_result_file(path: &str) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    json.get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?
        .iter()
        .map(|run| {
            RunRecord::from_json(run, "", 0, false).ok_or_else(|| format!("{path}: malformed run"))
        })
        .collect()
}

/// An end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no \"end_to_end\" array")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The base's own runs spread wider than the bound: no verdict.
    Unresolved,
}

/// One `(workload, metric)` row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    /// Medians over the runs of each file.
    pub base: f64,
    pub change: f64,
    /// Interquartile distance of the base's runs as a share of their median.
    pub base_spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn judge(rule: &Bound, base: f64, change: f64, base_spread: f64) -> Verdict {
    let worse_by = if rule.higher_is_better {
        (base - change) / base
    } else {
        (change - base) / base
    };
    if base_spread > rule.bound {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares the untraced runs of two result sets under the bounds.
pub fn compare(bounds: &[Bound], base: &[RunRecord], change: &[RunRecord]) -> Vec<Row> {
    let collect = |runs: &[RunRecord]| {
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in runs.iter().filter(|r| !r.trace) {
            for (name, value, _) in &run.metrics {
                values
                    .entry((run.workload.clone(), name.clone()))
                    .or_default()
                    .push(*value);
            }
        }
        values
    };
    let (base, change) = (collect(base), collect(change));
    let mut rows = Vec::new();
    for ((workload, metric), base_values) in &base {
        let rule = bounds.iter().find(|b| b.name == *metric);
        let other = change.get(&(workload.clone(), metric.clone()));
        if let (Some(rule), Some(change_values)) = (rule, other) {
            let (b, c) = (median(base_values), median(change_values));
            let spread = quartile_spread(base_values);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: b,
                change: c,
                base_spread: spread,
                bound: rule.bound,
                verdict: judge(rule, b, c, spread),
            });
        }
    }
    rows
}

/// `--compare A.json B.json`: prints one row per (workload, metric) and
/// returns whether any regressed.
pub fn run_compare(base_path: &str, change_path: &str) -> Result<bool, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = compare(
        &read_bounds(&text)?,
        &read_result_file(base_path)?,
        &read_result_file(change_path)?,
    );
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".to_string());
    }
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base (A)", "change (B)", "B/A", "spread A", "bound"
    );
    for row in &rows {
        println!(
            "{:<13} {:<12} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>7.3}  {}",
            row.workload,
            row.metric,
            row.base,
            row.change,
            row.change / row.base,
            row.base_spread,
            row.bound,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(rows.iter().any(|r| r.verdict == Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, p50: f64, qps: f64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            seed: 1,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("p50_us".to_string(), p50, "us".to_string()),
                ("qps".to_string(), qps, "1/s".to_string()),
            ],
        }
    }

    fn bounds() -> Vec<Bound> {
        read_bounds(
            r#"{"end_to_end":[
                {"name":"p50_us","unit":"us","better":"lower","bound":0.1},
                {"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn result_line_round_trips() {
        let run = record("lib_knn", 1234.5678, 800.25);
        let line = run.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        let back = RunRecord::from_json(&Json::parse(&line).unwrap(), "lib_knn", 1, false);
        assert_eq!(back, Some(run.clone()));
        let entry = run.to_json();
        assert_eq!(RunRecord::from_json(&entry, "", 0, true), Some(run));
    }

    #[test]
    fn compare_judges_direction_and_bound() {
        let base = vec![record("w", 100.0, 1000.0)];
        // Latency 5 % worse (inside the bound), throughput 20 % worse.
        let rows = compare(&bounds(), &base, &[record("w", 105.0, 800.0)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        // Better in both directions is never a regression.
        let rows = compare(&bounds(), &base, &[record("w", 50.0, 2000.0)]);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // A workload only one side ran is not compared.
        assert!(compare(&bounds(), &base, &[record("other", 1.0, 1.0)]).is_empty());
    }

    #[test]
    fn compare_reports_unresolved_when_the_base_spreads_wider_than_the_bound() {
        let base: Vec<RunRecord> = [80.0, 100.0, 120.0, 140.0]
            .iter()
            .map(|&p50| record("w", p50, 1000.0))
            .collect();
        let rows = compare(&bounds(), &base, &[record("w", 200.0, 1000.0)]);
        assert_eq!(rows[0].metric, "p50_us");
        assert_eq!(rows[0].base, 110.0);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[1].verdict, Verdict::Ok);
    }
}
