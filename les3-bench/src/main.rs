//! `les3-bench`: the repository's benchmark — five workloads, end-to-end
//! metrics measured with tracing off and per-layer metrics from a traced
//! run, every answer checked. `BENCHMARK.json` at the repository root
//! declares the metrics, the workloads and the regression bounds; this
//! binary is its `command`. See `README.md` beside this package.
//!
//! ```text
//! les3-bench --workload <name|all> --seed <u64> --seconds <s> --trace <0|1>
//!            [--scale full|tiny] [--reps N] [--out FILE]
//! les3-bench --compare A.json B.json
//! ```

mod check;
mod gen;
mod http;
mod metrics;
mod open_loop;
mod report;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Scale;
use les3_net::json::Json;
use report::RunRecord;
use workloads::{Ctx, WORKLOADS};

const USAGE: &str = "\
les3-bench --workload <name|all> --seed <u64> --seconds <s> --trace <0|1>
           [--scale full|tiny] [--reps N] [--out FILE]
les3-bench --compare A.json B.json

  --workload  lib_knn | lib_range | lib_masked | serve_closed | durable_rw, or
              `all`: one child process per workload, untraced then traced, so
              set-up time and peak memory are per workload
  --seed      generates the data, the queries, the insert stream and the
              arrival schedule                                  [default: 1]
  --seconds   how long a run measures                           [default: 5]
  --trace     0: end-to-end metrics, tracing off; 1: per-layer metrics from
              a traced run                                      [default: 0]
  --scale     full (what BENCHMARK.json measures) | tiny (smoke test)
  --reps      with `all`: runs per workload, on seeds seed..seed+N [default: 1]
  --out       also write the runs, with an env block, as JSON
  --compare   apply BENCHMARK.json's bounds to two --out files; exits
              non-zero if any end-to-end metric regressed
";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    reps: u64,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 5.0,
        trace: false,
        scale: Scale::FULL,
        reps: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?.clone(), value()?.clone())),
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--reps" => args.reps = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::FULL,
                    "tiny" => Scale::TINY,
                    v => return Err(bad(v)),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|(name, _)| *name == args.workload);
    if !known {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Command::Run(args))
}

/// Scratch space for durable directories and trace files: under the
/// build directory, so inside the checkout and ignored by git.
fn work_dir() -> std::io::Result<PathBuf> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("les3-bench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs one workload in this process and prints its metrics; the last
/// line is the result object.
fn run_one(args: &Args) -> Result<RunRecord, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        work_dir: work_dir().map_err(|e| format!("cannot create the work directory: {e}"))?,
    };
    let outcome = workloads::run(&args.workload, &ctx).expect("workload name was checked");
    println!(
        "# les3-bench workload={} seed={} seconds={} trace={} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale.name
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# gate: {} checks, {} failed; operations: {} attempted, {} failed",
        outcome.gate.checked,
        outcome.gate.failures.len(),
        outcome.attempted,
        outcome.failed
    );
    for failure in outcome.gate.failures.iter().take(5) {
        println!("# FAILED {failure}");
    }
    let record = RunRecord {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        correct: outcome.gate.passed(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .report(args.trace)
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit.to_string()))
            .collect(),
    };
    for (name, value, unit) in &record.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", record.result_line());
    Ok(record)
}

/// `--workload all`: one child process per workload and mode, so that
/// `peak_rss_mb` and `setup_s` are each workload's own.
fn run_all(args: &Args) -> Result<Vec<RunRecord>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut records = Vec::new();
    for rep in 0..args.reps.max(1) {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let seed = args.seed + rep;
                let output = std::process::Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(["--scale", args.scale.name])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let record = stdout
                    .lines()
                    .last()
                    .and_then(|line| Json::parse(line).ok())
                    .and_then(|json| RunRecord::from_json(&json, workload, seed, trace))
                    .ok_or_else(|| {
                        format!("{workload} (trace {}) printed no result", u8::from(trace))
                    })?;
                records.push(record);
            }
        }
    }
    Ok(records)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(command) => command,
        Err(why) => {
            eprintln!("les3-bench: {why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &command {
        Command::Compare(base, change) => {
            report::run_compare(base, change).map(|regressed| !regressed)
        }
        Command::Run(args) => {
            let records = if args.workload == "all" {
                run_all(args)
            } else {
                run_one(args).map(|record| vec![record])
            };
            records.and_then(|records| {
                if let Some(path) = &args.out {
                    let env = report::env_block(args.seed, args.seconds, args.scale);
                    report::write_result_file(path, env, &records)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                }
                Ok(records.iter().all(|r| r.correct))
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("les3-bench: {why}");
            ExitCode::FAILURE
        }
    }
}
