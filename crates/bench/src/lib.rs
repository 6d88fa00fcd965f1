//! Shared helpers for the figure/table benchmark harnesses.
//!
//! Both harnesses record their rows at the repository root, under an
//! [`env_json`] block: `paper` (the paper's evaluation — L2P's partitions
//! against the other partitioners and representations, Figures 7–10 and
//! the loss and TGM ablations, then LES3 against its baselines, Figures
//! 11–13 and Table 2, then pruning under insertions, Figure 15 — each
//! answer checked against brute force with [`same_answer`]) writes
//! `BENCH_paper.json`, and `table5_approx` writes
//! `BENCH_approx.json`. Scale is configurable through
//! environment variables so the suite finishes in minutes by default yet
//! can be pushed toward paper scale:
//!
//! * `LES3_BENCH_N` — sets per emulated dataset (default varies per
//!   harness, typically 4 000);
//! * `LES3_BENCH_QUERIES` — queries per measurement (default 50).

use les3_core::{Kind, SearchResult};
use les3_data::query::sample_query_ids;
use les3_data::{SetDatabase, TokenId};
use les3_partition::l2p::{L2p, L2pConfig, L2pResult};
use les3_partition::rep::{Ptr, RepMatrix, SetRepresentation};
use std::time::{Duration, Instant};

/// Reads a `usize` env override.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A command's trimmed output, or `"unknown"` if it fails or prints nothing.
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

/// The `env` object of a recorded `BENCH_*.json`: what machine, build
/// and scale produced the rows (a speed row without it cannot be
/// compared with anything). `commit` carries a `-dirty` suffix when the
/// working tree differs from it.
pub fn env_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"]);
    let rustc = command_line("rustc", &["--version"]);
    let scale = |key: &str| std::env::var(key).unwrap_or_else(|_| "default".to_string());
    format!(
        "{{\"logical_cores\": {cores}, \"commit\": \"{commit}\", \"rustc\": \"{rustc}\", \"LES3_BENCH_N\": \"{}\", \"LES3_BENCH_QUERIES\": \"{}\"}}",
        scale("LES3_BENCH_N"),
        scale("LES3_BENCH_QUERIES"),
    )
}

/// Writes a recorded `BENCH_*.json` to the repository root, or says
/// why it could not.
pub fn record(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nrecorded {path}"),
        Err(e) => println!("\n(could not record {path}: {e})"),
    }
}

/// Dataset size for a harness (`LES3_BENCH_N`).
pub fn bench_sets(default: usize) -> usize {
    env_usize("LES3_BENCH_N", default)
}

/// Query count for a harness (`LES3_BENCH_QUERIES`).
pub fn bench_queries(default: usize) -> usize {
    env_usize("LES3_BENCH_QUERIES", default)
}

/// Samples a query workload from the database (the paper samples database
/// sets uniformly, §7.1).
pub fn workload(db: &SetDatabase, count: usize, seed: u64) -> Vec<Vec<TokenId>> {
    sample_query_ids(db, count, seed)
        .into_iter()
        .map(|id| db.set(id).to_vec())
        .collect()
}

/// Wall-clock time of `f`.
pub fn time<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Mean per-item duration in microseconds.
pub fn per_query_us(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// The standard bench-scale L2P configuration: the paper's architecture
/// (2×8 sigmoid MLP, batch 256, 3 epochs, Adam) with sampling budgets
/// scaled to the dataset size.
pub fn l2p_config(db: &SetDatabase, target_groups: usize) -> L2pConfig {
    L2pConfig {
        target_groups,
        init_groups: (target_groups / 8).clamp(1, 128),
        min_group_size: (db.len() / target_groups.max(1) / 4).clamp(4, 50),
        pairs_per_model: (db.len() * 4).clamp(500, 40_000),
        ..Default::default()
    }
}

/// Runs the full L2P pipeline (PTR → cascade) and returns the result.
pub fn l2p_partition(db: &SetDatabase, target_groups: usize) -> L2pResult {
    let reps = RepMatrix::from_representation(db, &Ptr::new(db.universe_size()));
    L2p::new(l2p_config(db, target_groups)).partition(db, &reps)
}

/// Prints the standard harness header.
pub fn header(exhibit: &str, description: &str) {
    println!("=== {exhibit} — {description} ===");
}

/// Whether `got` is the exact answer `want` is, for a query of `kind`.
/// A range must return the same `(id, similarity)` list. A kNN must
/// return the same similarity list; ids may differ only among the ties
/// at the k-th (last) similarity, which each exact method breaks its own
/// way. Similarities compare with `==`: one ulp apart disagrees.
pub fn same_answer(kind: Kind, got: &SearchResult, want: &SearchResult) -> bool {
    let kth = want.hits.last().map(|&(_, sim)| sim);
    let tie_at_kth = |sim: f64| matches!(kind, Kind::Knn(_)) && Some(sim) == kth;
    got.hits.len() == want.hits.len()
        && got
            .hits
            .iter()
            .zip(&want.hits)
            .all(|(&(gid, gsim), &(wid, wsim))| gsim == wsim && (gid == wid || tie_at_kth(wsim)))
}

/// Embeds a database with any inductive representation and reports the
/// elapsed time (Figure 8's "embedding cost").
pub fn embed_timed<R: SetRepresentation>(db: &SetDatabase, rep: &R) -> (RepMatrix, Duration) {
    time(|| RepMatrix::from_representation(db, rep))
}

/// Per-query means of the work counters a partition row records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryWork {
    /// Groups the TGM did not prune.
    pub groups_verified: f64,
    /// Members of the verified groups' length windows.
    pub candidates: f64,
    /// Candidates whose tokens were read (`sims_computed`).
    pub sets_read: f64,
    /// TGM bits the counting pass visited (`columns_checked`).
    pub tgm_bits: f64,
}

impl QueryWork {
    /// The means over `results`; all zero when there are none.
    pub fn mean<'a>(results: impl IntoIterator<Item = &'a SearchResult>) -> Self {
        let (mut sum, mut n) = (Self::default(), 0usize);
        for r in results {
            sum.groups_verified += r.stats.groups_verified as f64;
            sum.candidates += r.stats.candidates as f64;
            sum.sets_read += r.stats.sims_computed as f64;
            sum.tgm_bits += r.stats.columns_checked as f64;
            n += 1;
        }
        let n = n.max(1) as f64;
        Self {
            groups_verified: sum.groups_verified / n,
            candidates: sum.candidates / n,
            sets_read: sum.sets_read / n,
            tgm_bits: sum.tgm_bits / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use les3_data::zipfian::ZipfianGenerator;

    #[test]
    fn helpers_produce_consistent_shapes() {
        let db = ZipfianGenerator::new(200, 150, 6.0, 1.0).generate(1);
        let queries = workload(&db, 10, 2);
        assert_eq!(queries.len(), 10);
        assert!(l2p_partition(&db, 8).finest().n_groups() >= 8);
        let (_, d) = time(|| 1 + 1);
        assert!(d.as_nanos() < 1_000_000);
    }

    #[test]
    fn query_work_is_the_per_query_mean() {
        let run = |groups_verified, candidates, sims_computed, columns_checked| SearchResult {
            hits: Vec::new(),
            stats: les3_core::SearchStats {
                groups_verified,
                candidates,
                sims_computed,
                columns_checked,
                ..Default::default()
            },
        };
        let runs = [run(3, 40, 10, 7), run(1, 0, 0, 2), run(2, 20, 5, 0)];
        let want = QueryWork {
            groups_verified: 2.0,
            candidates: 20.0,
            sets_read: 5.0,
            tgm_bits: 3.0,
        };
        assert_eq!(QueryWork::mean(&runs), want);
        // No queries: zeros, not NaN.
        assert_eq!(QueryWork::mean(&[]), QueryWork::default());
    }

    fn result(hits: &[(u32, f64)]) -> SearchResult {
        SearchResult {
            hits: hits.to_vec(),
            stats: Default::default(),
        }
    }

    #[test]
    fn same_answer_frees_ids_only_among_kth_ties() {
        let want = result(&[(4, 0.9), (2, 0.5), (3, 0.5)]);
        // Another member of the tie at the k-th similarity agrees…
        let tie = result(&[(4, 0.9), (2, 0.5), (7, 0.5)]);
        assert!(same_answer(Kind::Knn(3), &tie, &want));
        // …but not in a range, nor above the tie.
        assert!(!same_answer(Kind::Range(0.5), &tie, &want));
        let above = result(&[(5, 0.9), (2, 0.5), (3, 0.5)]);
        assert!(!same_answer(Kind::Knn(3), &above, &want));
        // A similarity one ulp off disagrees.
        let ulp = f64::from_bits(0.5f64.to_bits() + 1);
        let off = result(&[(4, 0.9), (2, 0.5), (3, ulp)]);
        assert!(!same_answer(Kind::Knn(3), &off, &want));
        // A range missing one hit disagrees.
        let short = result(&[(4, 0.9), (2, 0.5)]);
        assert!(!same_answer(Kind::Range(0.5), &short, &want));
        assert!(same_answer(Kind::Range(0.5), &want, &want));
    }

    #[test]
    fn env_overrides_parse() {
        std::env::set_var("LES3_TEST_KEY", "123");
        assert_eq!(env_usize("LES3_TEST_KEY", 5), 123);
        assert_eq!(env_usize("LES3_TEST_MISSING", 5), 5);
    }
}
