//! Table 5 (repo extension): the approximate tier's recall-vs-speedup
//! ladder.
//!
//! Builds one database + flat index with the MinHash sidecar enabled,
//! computes **exact** ground truth for a kNN batch, then walks a ladder
//! of [`ApproxPolicy::Prefilter`] configurations from aggressive (few
//! bands, all rows — fast, low recall) to saturated (`rows == 0` — the
//! exact fallback path, recall exactly 1). For every rung it reports:
//!
//! * measured recall vs. ground truth (per-query id overlap with the
//!   exact top-k, averaged),
//! * the tier's own mean `recall_est` (the banding-formula estimate —
//!   printed next to the truth so the estimate's calibration is
//!   visible),
//! * per-query latency and speedup vs. the exact engine,
//! * a verdict: a rung at useful recall (≥ 0.9) either `earns` its place
//!   by being faster than exact or is marked `remove`; below that recall
//!   it is `lossy` (a speed/recall trade the caller opts into), and the
//!   saturated rung is the `fallback`.
//!
//! The rows land in `BENCH_approx.json` at the workspace root, under an
//! `env` block saying what machine, commit and scale produced them. With
//! `LES3_BENCH_RECALL_FLOOR` set (CI's smoke config), the harness
//! asserts the mid-ladder rung — the sidecar's built shape — measures
//! at least that recall, so a regression in the signature pipeline
//! fails the build rather than silently degrading the tier.

use les3_bench::{bench_queries, bench_sets, env_json, header, per_query_us, time, workload};
use les3_core::{
    ApproxParams, ApproxPolicy, Jaccard, Les3Index, Partitioning, QueryCtl, QueryScratch,
};
use les3_data::zipfian::ZipfianGenerator;
use std::fmt::Write as _;

const K: usize = 10;

/// The ladder: (label, bands, rows), aggressive → saturated. The
/// `rows == 0` rung saturates the filter and routes through the exact
/// path — its recall must come out exactly 1.0, which closes the loop
/// on the fallback contract. Eight single-row bands is the widest
/// useful rung: sixteen measured recall 0.99 at 0.99× exact (verdict
/// `remove`) and was dropped.
const LADDER: [(&str, u32, u32); 4] = [
    ("b2-r2", 2, 2),
    ("b4-r2", 4, 2),
    ("b8-r1", 8, 1),
    ("saturated (exact)", 0, 0),
];

/// The recall from which a rung has to beat exact to stay on the ladder.
const USEFUL_RECALL: f64 = 0.9;

/// Index of the rung `LES3_BENCH_RECALL_FLOOR` asserts against: the
/// mid-ladder single-row config.
const FLOOR_RUNG: usize = 2;

fn main() {
    header(
        "Table 5",
        "approximate tier: recall vs speedup (MinHash prefilter)",
    );
    let n = bench_sets(20_000);
    let n_queries = bench_queries(256);
    let n_groups = (n / 78).clamp(16, 1024);
    let db = ZipfianGenerator::new(n, (n / 5) as u32, 12.0, 1.1).generate(2);
    let part = Partitioning::round_robin(db.len(), n_groups);
    let queries = workload(&db, n_queries, 11);
    let mut index = Les3Index::build(db, part, Jaccard);
    index.enable_approx(ApproxParams {
        bands: 16,
        rows: 2,
        seed: 0x1e53_c0de,
    });
    println!("|D| = {n}, {n_groups} groups, {n_queries} queries, k = {K}, sidecar 16x2\n");
    println!(
        "{:<20} {:>8} {:>12} {:>10} {:>12} {:>9}  verdict",
        "configuration", "recall", "recall_est", "us/query", "queries/s", "speedup"
    );

    let mut scratch = QueryScratch::new();
    let ctl = QueryCtl::NONE;
    // Exact ground truth + baseline latency (warm-up, then best of 3).
    let run_exact = |scratch: &mut QueryScratch| {
        queries
            .iter()
            .map(|q| {
                index
                    .knn_ctl_on(1, q, K, scratch, &ctl)
                    .unwrap_or_else(|_| unreachable!("QueryCtl::NONE never interrupts"))
            })
            .collect::<Vec<_>>()
    };
    let _ = run_exact(&mut scratch);
    let mut exact = Vec::new();
    let mut exact_t = std::time::Duration::MAX;
    for _ in 0..3 {
        let (res, t) = time(|| run_exact(&mut scratch));
        exact = res;
        exact_t = exact_t.min(t);
    }
    let exact_ids: Vec<Vec<u32>> = exact
        .iter()
        .map(|r| r.hits.iter().map(|&(id, _)| id).collect())
        .collect();
    let exact_us = per_query_us(exact_t, queries.len());
    println!(
        "{:<20} {:>8.4} {:>12.4} {:>10.1} {:>12.0} {:>8.2}x",
        "exact",
        1.0,
        1.0,
        exact_us,
        1e6 / exact_us,
        1.0
    );

    let mut rows = String::new();
    let _ = write!(
        rows,
        "{{\"config\": \"exact\", \"recall\": 1.0, \"recall_est\": 1.0, \"us_per_query\": {exact_us:.2}, \"qps\": {:.0}, \"speedup_vs_exact\": 1.0}}",
        1e6 / exact_us
    );
    for (rung, &(label, bands, rows_q)) in LADDER.iter().enumerate() {
        let policy = ApproxPolicy::Prefilter {
            bands,
            rows: rows_q,
        };
        let run = |scratch: &mut QueryScratch| {
            queries
                .iter()
                .map(|q| {
                    index
                        .knn_approx_ctl_on(1, q, K, policy, scratch, &ctl)
                        .unwrap_or_else(|_| unreachable!("QueryCtl::NONE never interrupts"))
                })
                .collect::<Vec<_>>()
        };
        let _ = run(&mut scratch);
        let mut got = Vec::new();
        let mut t = std::time::Duration::MAX;
        for _ in 0..3 {
            let (res, one) = time(|| run(&mut scratch));
            got = res;
            t = t.min(one);
        }
        // Measured recall: id overlap with the exact top-k, averaged
        // over queries that have any exact hits at all.
        let (mut recall_sum, mut counted) = (0.0f64, 0usize);
        let mut est_sum = 0.0f64;
        for ((result, info), truth) in got.iter().zip(&exact_ids) {
            est_sum += info.recall_est;
            if truth.is_empty() {
                continue;
            }
            let found = result
                .hits
                .iter()
                .filter(|&&(id, _)| truth.contains(&id))
                .count();
            recall_sum += found as f64 / truth.len() as f64;
            counted += 1;
        }
        let recall = recall_sum / counted.max(1) as f64;
        let est = est_sum / got.len().max(1) as f64;
        if rows_q == 0 {
            assert!(
                (recall - 1.0).abs() < 1e-12,
                "the saturated rung must take the exact path (recall {recall})"
            );
        }
        let us = per_query_us(t, queries.len());
        let verdict = if rows_q == 0 {
            "fallback"
        } else if recall < USEFUL_RECALL {
            "lossy"
        } else if us < exact_us {
            "earns"
        } else {
            "remove"
        };
        println!(
            "{:<20} {:>8.4} {:>12.4} {:>10.1} {:>12.0} {:>8.2}x  {verdict}",
            label,
            recall,
            est,
            us,
            1e6 / us,
            exact_us / us
        );
        let _ = write!(
            rows,
            ",\n  {{\"config\": \"{label}\", \"bands\": {bands}, \"rows\": {rows_q}, \"recall\": {recall:.4}, \"recall_est\": {est:.4}, \"us_per_query\": {us:.2}, \"qps\": {:.0}, \"speedup_vs_exact\": {:.3}, \"verdict\": \"{verdict}\"}}",
            1e6 / us,
            exact_us / us
        );
        if rung == FLOOR_RUNG {
            if let Ok(floor) = std::env::var("LES3_BENCH_RECALL_FLOOR") {
                let floor: f64 = floor
                    .parse()
                    .expect("LES3_BENCH_RECALL_FLOOR must be a float");
                assert!(
                    recall >= floor,
                    "mid-ladder rung {label:?} recall {recall:.4} fell below the floor {floor}"
                );
                println!("  (floor check passed: {recall:.4} >= {floor})");
            }
        }
    }

    let json = format!(
        "{{\n \"bench\": \"table5_approx\",\n \"env\": {},\n \"n_sets\": {n},\n \"n_groups\": {n_groups},\n \"n_queries\": {n_queries},\n \"k\": {K},\n \"sidecar\": {{\"bands\": 16, \"rows\": 2}},\n \"rows\": [{rows}]\n}}\n",
        env_json()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_approx.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded {path}"),
        Err(e) => println!("\n(could not record {path}: {e})"),
    }
}
