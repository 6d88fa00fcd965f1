//! Shared helpers for the figure/table benchmark harnesses.
//!
//! Every harness prints the rows/series of one exhibit from the paper's
//! §7 evaluation. Scale is configurable through environment variables so
//! the suite finishes in minutes by default yet can be pushed toward
//! paper scale:
//!
//! * `LES3_BENCH_N` — sets per emulated dataset (default varies per
//!   harness, typically 4 000);
//! * `LES3_BENCH_QUERIES` — queries per measurement (default 50).

use les3_core::{Jaccard, Les3Index, Partitioning};
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

/// Builds a Jaccard LES3 index with an L2P partitioning.
pub fn l2p_index(db: &SetDatabase, target_groups: usize) -> Les3Index<Jaccard> {
    let result = l2p_partition(db, target_groups);
    Les3Index::build(db.clone(), result.finest().clone(), Jaccard)
}

/// A PTR representation matrix for a database.
pub fn ptr_reps(db: &SetDatabase) -> RepMatrix {
    RepMatrix::from_representation(db, &Ptr::new(db.universe_size()))
}

/// Round-robin partitioning helper.
pub fn round_robin(db: &SetDatabase, n_groups: usize) -> Partitioning {
    Partitioning::round_robin(db.len(), n_groups)
}

/// Prints the standard harness header.
pub fn header(exhibit: &str, description: &str) {
    println!("=== {exhibit} — {description} ===");
}

/// Embeds a database with any inductive representation and reports the
/// elapsed time (Figure 8's "embedding cost").
pub fn embed_timed<R: SetRepresentation>(db: &SetDatabase, rep: &R) -> (RepMatrix, Duration) {
    time(|| RepMatrix::from_representation(db, rep))
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
        let index = l2p_index(&db, 8);
        assert!(index.partitioning().n_groups() >= 8);
        let (_, d) = time(|| 1 + 1);
        assert!(d.as_nanos() < 1_000_000);
    }

    #[test]
    fn env_overrides_parse() {
        std::env::set_var("LES3_TEST_KEY", "123");
        assert_eq!(env_usize("LES3_TEST_KEY", 5), 123);
        assert_eq!(env_usize("LES3_TEST_MISSING", 5), 5);
    }
}
