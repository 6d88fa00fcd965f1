//! The paper's §7.6 comparison (Figures 11–13, Table 2), recorded: LES3
//! against InvIdx, DualTrans, brute force and the repo's ScalarTrans
//! extension, in memory and on the simulated disk.
//!
//! Each shape's data is built once. A memory shape trains one L2P cascade;
//! its levels nearest 256 and 1 024 groups give two LES3 indexes, beside
//! `InvIdx`, `DualTrans(8, 16)`, `ScalarTrans` and `BruteForce`. A disk
//! shape (FS, PMC) drives `DiskLes3` and the three `Disk*` baselines on the
//! 5400 RPM HDD model, its positioning scaled down by the factor the data
//! shrank by (emulating the paper-size file).
//!
//! Every method answers the same queries, δ ∈ {0.9, 0.7, 0.5, 0.3} and
//! k ∈ {1, 10, 50}. Before a cell is timed, each answer must equal brute
//! force's ([`les3_bench::same_answer`]) or the run panics, so the table is
//! also a cross-method exactness check. A row is one method × shape ×
//! query: µs and sets read per query, simulated I/O ms per query (disk),
//! index bytes, build time, and LES3's group count and L2P training (one
//! cascade serves both memory rows). The rows and each shape's Table 2
//! statistics land in `BENCH_paper.json` at the repository root, under an
//! `env` block.

use les3_baselines::disk::{DiskBruteForce, DiskDualTrans, DiskInvIdx};
use les3_baselines::{BruteForce, DualTrans, InvIdx, ScalarTrans, SetSimSearch};
use les3_bench::{
    bench_queries, bench_sets, env_json, header, l2p_partition, per_query_us, record, same_answer,
    time, workload,
};
use les3_core::{DiskLes3, Jaccard, Kind, Les3Index, SearchResult};
use les3_data::realistic::DatasetSpec;
use les3_data::{SetDatabase, TokenId};
use les3_storage::{DiskModel, IoStats};
use std::time::Duration;

const KINDS: [Kind; 7] = [
    Kind::Range(0.9),
    Kind::Range(0.7),
    Kind::Range(0.5),
    Kind::Range(0.3),
    Kind::Knn(1),
    Kind::Knn(10),
    Kind::Knn(50),
];

/// Sends a query of one `Kind` to a method's `knn` or `range`.
macro_rules! ask {
    ($method:expr, $q:expr, $kind:expr) => {
        match $kind {
            Kind::Knn(k) => $method.knn($q, k),
            Kind::Range(delta) => $method.range($q, delta),
        }
    };
}

/// A method's answer to one query and, on disk, its simulated I/O ms.
type Ask = Box<dyn Fn(&[TokenId], Kind) -> (SearchResult, Option<f64>)>;

/// One method built on one shape.
struct Method {
    name: &'static str,
    /// LES3's group count.
    groups: Option<usize>,
    index_bytes: usize,
    build: Duration,
    /// LES3's L2P training, apart from `build`.
    l2p: Option<Duration>,
    ask: Ask,
}

impl Method {
    fn memory<M: SetSimSearch + 'static>((index, build): (M, Duration)) -> Self {
        Self {
            name: index.name(),
            groups: None,
            index_bytes: index.index_size_in_bytes(),
            build,
            l2p: None,
            ask: Box::new(move |q, kind| (ask!(index, q, kind), None)),
        }
    }

    /// The `Disk*` wrappers share `knn` / `range` signatures but no trait.
    fn disk<M: 'static>(
        name: &'static str,
        (index, build): (M, Duration),
        index_bytes: impl Fn(&M) -> usize,
        ask: fn(&M, &[TokenId], Kind) -> (SearchResult, IoStats),
    ) -> Self {
        Self {
            name,
            groups: None,
            index_bytes: index_bytes(&index),
            build,
            l2p: None,
            ask: Box::new(move |q, kind| {
                let (result, io) = ask(&index, q, kind);
                (result, Some(io.elapsed_ms))
            }),
        }
    }
}

fn memory_methods(db: &SetDatabase) -> Vec<Method> {
    let (cascade, train) = time(|| l2p_partition(db, 1024));
    let mut methods: Vec<Method> = [256, 1024]
        .iter()
        .map(|&target| {
            let part = cascade
                .levels
                .iter()
                .min_by_key(|p| p.n_groups().abs_diff(target))
                .expect("a cascade has levels");
            Method {
                groups: Some(part.n_groups()),
                l2p: Some(train),
                ..Method::memory(time(|| Les3Index::build(db.clone(), part.clone(), Jaccard)))
            }
        })
        .collect();
    methods.extend([
        Method::memory(time(|| InvIdx::build(db.clone(), Jaccard))),
        Method::memory(time(|| DualTrans::build(db.clone(), Jaccard, 8, 16))),
        Method::memory(time(|| ScalarTrans::build(db.clone(), Jaccard))),
        Method::memory(time(|| BruteForce::new(db.clone(), Jaccard))),
    ]);
    methods
}

fn disk_methods(spec: &DatasetSpec, db: &SetDatabase) -> Vec<Method> {
    let model = DiskModel::hdd_5400().scaled_for_emulation(spec.n_sets as f64 / db.len() as f64);
    // The paper's coarse 0.5 %·|D| rule: groups must span several pages
    // so one seek amortizes over a sequential run.
    let (cascade, train) = time(|| l2p_partition(db, (db.len() / 200).max(8)));
    let part = cascade.finest();
    let les3 = time(|| DiskLes3::new(Les3Index::build(db.clone(), part.clone(), Jaccard), model));
    vec![
        Method {
            groups: Some(part.n_groups()),
            l2p: Some(train),
            ..Method::disk(
                "LES3",
                les3,
                |m| m.index().index_size_in_bytes(),
                |m, q, kind| ask!(m, q, kind),
            )
        },
        Method::disk(
            "InvIdx",
            time(|| DiskInvIdx::new(db.clone(), Jaccard, model)),
            |m| m.inner().index_size_in_bytes(),
            |m, q, kind| ask!(m, q, kind),
        ),
        Method::disk(
            "DualTrans",
            time(|| DiskDualTrans::new(db.clone(), Jaccard, model, 8, 16)),
            |m| m.inner().index_size_in_bytes(),
            |m, q, kind| ask!(m, q, kind),
        ),
        Method::disk(
            "Brute-force",
            time(|| DiskBruteForce::new(db.clone(), Jaccard, model)),
            |_| 0,
            |m, q, kind| ask!(m, q, kind),
        ),
    ]
}

/// Checks each of `m`'s answers against brute force's, then times them:
/// µs, sets read and simulated I/O ms per query.
fn cell(
    shape: &str,
    m: &Method,
    kind: Kind,
    queries: &[Vec<TokenId>],
    truth: &[SearchResult],
) -> (f64, f64, Option<f64>) {
    let answers: Vec<_> = queries.iter().map(|q| (m.ask)(q, kind)).collect();
    for (i, ((got, _), want)) in answers.iter().zip(truth).enumerate() {
        assert!(
            same_answer(kind, got, want),
            "{shape} {} {kind:?} query {i}: {:?}, brute force {:?}",
            m.name,
            got.hits,
            want.hits
        );
    }
    let (_, t) = time(|| {
        for q in queries {
            std::hint::black_box((m.ask)(q, kind));
        }
    });
    let per_query = |total: f64| total / queries.len().max(1) as f64;
    let sets_read = answers.iter().map(|(r, _)| r.stats.sims_computed as f64);
    let io_ms = answers.iter().map(|&(_, io)| io).sum::<Option<f64>>();
    (
        per_query_us(t, queries.len()),
        per_query(sets_read.sum()),
        io_ms.map(per_query),
    )
}

fn main() {
    header("§7.6", "LES3 against its baselines, in memory and on disk");
    // Posting-list density (what InvIdx's cost tracks) approaches paper
    // conditions only as |D| grows against the ∛-scaled universe.
    let n = bench_sets(16_000);
    let n_queries = bench_queries(50);
    let memory = DatasetSpec::memory_datasets()
        .into_iter()
        .map(|spec| ("memory", spec));
    let disk = DatasetSpec::disk_datasets()
        .into_iter()
        .map(|spec| ("disk", spec));
    let (mut shapes, mut rows) = (Vec::new(), Vec::new());
    for (tier, spec) in memory.chain(disk) {
        let db = spec.with_sets(n).generate(31);
        let s = db.stats();
        shapes.push(format!(
            "{{\"shape\": \"{}\", \"tier\": \"{tier}\", \"n_sets\": {}, \"max_size\": {}, \"min_size\": {}, \"avg_size\": {:.2}, \"tokens\": {}, \"paper_n_sets\": {}, \"paper_tokens\": {}}}",
            spec.name, s.n_sets, s.max_size, s.min_size, s.avg_size, s.distinct_tokens, spec.n_sets, spec.universe
        ));
        let queries = workload(&db, n_queries, 7);
        let brute = BruteForce::new(db.clone(), Jaccard);
        let truth: Vec<Vec<SearchResult>> = KINDS
            .iter()
            .map(|&kind| queries.iter().map(|q| ask!(brute, q, kind)).collect())
            .collect();
        let methods = match tier {
            "memory" => memory_methods(&db),
            _ => disk_methods(&spec, &db),
        };
        println!("\n--- {} ({s}) ---", spec.name);
        println!(
            "{:<12} {:<11} {:>10} {:>10} {:>10}",
            "query", "method", "µs/query", "sets read", "I/O ms"
        );
        for m in &methods {
            for (&kind, truth) in KINDS.iter().zip(&truth) {
                let (us, sets_read, io_ms) = cell(spec.name, m, kind, &queries, truth);
                let label = m
                    .groups
                    .map_or(m.name.into(), |g| format!("{}@{g}", m.name));
                let io = io_ms.map_or(String::new(), |ms| format!("{ms:>10.3}"));
                println!(
                    "{:<12} {label:<11} {us:>10.1} {sets_read:>10.1} {io}",
                    format!("{kind:?}")
                );

                let or_null = |field: Option<String>| field.unwrap_or_else(|| "null".into());
                rows.push(format!(
                    "{{\"shape\": \"{}\", \"tier\": \"{tier}\", \"method\": \"{}\", \"groups\": {}, {}, \"us_per_query\": {us:.2}, \"sets_read_per_query\": {sets_read:.2}, \"io_ms_per_query\": {}, \"index_bytes\": {}, \"build_ms\": {:.2}, \"l2p_s\": {}}}",
                    spec.name,
                    m.name,
                    or_null(m.groups.map(|g| g.to_string())),
                    match kind {
                        Kind::Knn(k) => format!("\"k\": {k}"),
                        Kind::Range(delta) => format!("\"delta\": {delta}"),
                    },
                    or_null(io_ms.map(|ms| format!("{ms:.4}"))),
                    m.index_bytes,
                    m.build.as_secs_f64() * 1e3,
                    or_null(m.l2p.map(|t| format!("{:.3}", t.as_secs_f64()))),
                ));
            }
        }
    }

    let json = format!(
        "{{\n \"bench\": \"paper\",\n \"env\": {},\n \"n_queries\": {n_queries},\n \"shapes\": [\n  {}\n ],\n \"rows\": [\n  {}\n ]\n}}\n",
        env_json(),
        shapes.join(",\n  "),
        rows.join(",\n  ")
    );
    record("BENCH_paper.json", &json);
}
