//! Runs every workload of `les3-bench` at tiny scale, traced and
//! untraced, and holds the binary to what `BENCHMARK.json` declares:
//! every declared metric is emitted, finite, with the declared unit;
//! every gate passes; and two runs on one seed agree exactly on every
//! count metric.

use std::process::Command;

use les3_net::json::Json;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Metrics that are counts of work or bytes on fixed inputs, or ratios of
/// such counts: the same seed must give the same value, whatever the
/// machine does.
fn is_exact_count(name: &str, unit: &str) -> bool {
    let counted = name.ends_with("_per_query") || name.ends_with("bytes");
    (counted && matches!(unit, "count" | "B"))
        || matches!(
            name,
            "partition.groups"
                | "partition.pruning_efficiency"
                | "index.early_exit_share"
                | "index.size_skip_share"
                | "metadata.selectivity"
                | "metadata.mask_groups_share"
                | "approx.recall"
                | "approx.recall_est"
        )
}

struct Declared {
    workloads: Vec<String>,
    /// `(name, unit)`.
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn declared() -> Declared {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str, field: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| {
                let get = |f: &str| {
                    entry
                        .get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (get("name"), get(field))
            })
            .collect()
    };
    Declared {
        workloads: names("workloads", "why")
            .into_iter()
            .map(|(name, _)| name)
            .collect(),
        end_to_end: names("end_to_end", "unit"),
        per_layer: names("per_layer", "unit"),
    }
}

/// One tiny run; returns `(name, value, unit)` of its metrics.
fn run(workload: &str, trace: bool) -> Vec<(String, f64, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_les3-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run les3-bench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
    let Json::Obj(members) = &result else {
        panic!("result is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, entry)| {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = entry.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn check_workload(workload: &str) {
    let declared = declared();
    assert!(
        declared.workloads.iter().any(|w| w == workload),
        "{workload} is not declared"
    );
    for (trace, table) in [(false, &declared.end_to_end), (true, &declared.per_layer)] {
        let (first, second) = (run(workload, trace), run(workload, trace));
        let emitted: Vec<(String, String)> = first
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(
            &emitted, table,
            "{workload} trace {trace}: metrics differ from BENCHMARK.json"
        );
        for ((name, value, unit), (_, again, _)) in first.iter().zip(&second) {
            assert!(
                value.is_finite() && again.is_finite(),
                "{workload} {name} = {value}"
            );
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            if !trace {
                assert!(
                    *value > 0.0,
                    "{workload}: end-to-end metric {name} is {value}"
                );
            }
            if is_exact_count(name, unit) {
                assert_eq!(
                    value, again,
                    "{workload}: count metric {name} differs between two runs on one seed"
                );
            }
        }
    }
}

#[test]
fn lib_knn() {
    check_workload("lib_knn");
}

#[test]
fn lib_range() {
    check_workload("lib_range");
}

#[test]
fn lib_masked() {
    check_workload("lib_masked");
}

#[test]
fn serve_closed() {
    check_workload("serve_closed");
}

#[test]
fn durable_rw() {
    check_workload("durable_rw");
}

#[test]
fn declared_workloads_are_the_five_the_binary_knows() {
    let declared = declared();
    assert_eq!(
        declared.workloads,
        [
            "lib_knn",
            "lib_range",
            "lib_masked",
            "serve_closed",
            "durable_rw"
        ]
    );
    // An undeclared workload is refused, not run.
    let output = Command::new(env!("CARGO_BIN_EXE_les3-bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run les3-bench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
