//! The paper's evaluation, recorded: L2P's partitions (§7.2–7.5, Figs.
//! 7–10, the loss and TGM-storage ablations), LES3 against InvIdx,
//! DualTrans, brute force and the repo's ScalarTrans, in memory and on the
//! simulated disk (§7.6, Figs. 11–13, Table 2), and pruning under
//! insertions (§7.8, Fig. 15).
//!
//! Each shape is built once and trains one L2P cascade (PTR, surrogate
//! loss; every cascade here uses [`les3_bench::l2p_config`]). A memory
//! shape runs LES3 at every cascade level (Fig. 10); PAR-G/C/D/A and
//! round-robin at the group count of the level nearest 256 (Fig. 9); on
//! KOSARAK, every level of a second cascade trained with Eq. 15's hard
//! loss; and `InvIdx`, `DualTrans(8, 16)`, `ScalarTrans` and `BruteForce`.
//! The `sample` shape, KOSARAK at `n / 4` sets (MDS holds an `n × n`
//! matrix), trains one cascade per representation (PTR, PTR-half,
//! BinaryEnc, PCA, MDS) and runs LES3 on each finest level (Fig. 8). A disk
//! shape (FS, PMC) drives `DiskLes3` and the `Disk*` baselines on the
//! 5400 RPM HDD model, its positioning scaled down by the factor the data
//! shrank by.
//!
//! Queries are δ ∈ {0.9, 0.7, 0.5, 0.3} and k ∈ {1, 10, 50}. Before a cell
//! is timed, every answer must equal brute force's
//! ([`les3_bench::same_answer`]) or the run panics. A row is one method ×
//! partition × shape × query: µs, sets read and (disk) I/O ms per query,
//! index bytes, build time. LES3 rows add the partitioner and group count,
//! per-query groups verified, candidates and TGM bits, sampled GPO, dense
//! TGM bytes, partition seconds and measured bytes (`null` if unmeasured);
//! L2P rows the embedding seconds and models trained (Fig. 7(b) against
//! `partition_s`). Each shape block holds its cascade's first learning
//! curve (Fig. 7(a)).
//!
//! §7.8 grows a KOSARAK base of `n / 8` sets, partitioned by one cascade
//! into `|D| / 40` groups, by a quarter, half, three quarters and all of
//! its size, with sets drawn from its own universe (closed) or half from
//! beyond it (open). An `updates` row holds the kNN (k = 10) pruning
//! efficiency of the index grown by inserts and of one rebuilt by a
//! fresh cascade over the grown database, and the relative decrease. Both
//! indexes' answers must equal brute force's over the grown database
//! before the row is recorded.
//!
//! All of it goes to `BENCH_paper.json` at the repository root, under an
//! `env` block.

use les3_baselines::disk::{DiskBruteForce, DiskDualTrans, DiskInvIdx};
use les3_baselines::{BruteForce, DualTrans, InvIdx, ScalarTrans, SetSimSearch};
use les3_bench::{
    bench_queries, bench_sets, embed_timed, env_json, header, l2p_config, l2p_partition,
    per_query_us, record, same_answer, time, workload, QueryWork,
};
use les3_core::{DiskLes3, Jaccard, Kind, Les3Index, Partitioning, SearchResult};
use les3_data::realistic::DatasetSpec;
use les3_data::{SetDatabase, TokenId};
use les3_nn::PairLoss;
use les3_partition::graph::{knn_graph, partition_graph, GraphWorkload};
use les3_partition::l2p::L2p;
use les3_partition::objective::gpo_sampled;
use les3_partition::rep::{BinaryEncoding, Mds, Pca, Ptr, PtrHalf, RepMatrix};
use les3_partition::{ParA, ParC, ParD, ParG};
use les3_storage::{DiskModel, IoStats};
use std::fmt::Display;
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

/// The partitioning a LES3 method is built on, and what making it cost.
struct Part {
    /// `L2P`, `L2P/<representation>`, `L2P/hard`, `PAR-G`, `PAR-C`,
    /// `PAR-D`, `PAR-A` or `round-robin`.
    partitioner: String,
    partitioning: Partitioning,
    /// Sampled GPO (Eq. 13; 64 pairs per group).
    gpo: f64,
    /// The TGM as an uncompressed `n_groups × |T|` bit matrix.
    dense_tgm_bytes: usize,
    /// Wall time to partition; for L2P the cascade's training, which all
    /// its levels share, without the embedding.
    seconds: f64,
    /// Memory measured while partitioning.
    bytes: Option<usize>,
    /// L2P only: embedding seconds and models trained.
    embed_s: Option<f64>,
    models_trained: Option<usize>,
}

impl Part {
    fn new(
        db: &SetDatabase,
        partitioner: &str,
        partitioning: Partitioning,
        seconds: Duration,
        bytes: Option<usize>,
    ) -> Self {
        Self {
            partitioner: partitioner.into(),
            gpo: gpo_sampled(db, &partitioning, Jaccard, 64, 7),
            dense_tgm_bytes: partitioning.n_groups() * db.universe_size() as usize / 8,
            partitioning,
            seconds: seconds.as_secs_f64(),
            bytes,
            embed_s: None,
            models_trained: None,
        }
    }
}

/// Trains an L2P cascade with the recorder's one config: one `Part` per
/// level, and its first model's learning curve (Fig. 7(a)).
fn cascade(
    db: &SetDatabase,
    label: &str,
    (reps, embed): (RepMatrix, Duration),
    target: usize,
    loss: PairLoss,
) -> (Vec<Part>, Vec<f64>) {
    let mut cfg = l2p_config(db, target);
    cfg.siamese.loss = loss;
    let l2p = L2p::new(cfg);
    let (mut result, train) = time(|| l2p.partition(db, &reps));
    let curve = result.reports.swap_remove(0).epoch_losses;
    let parts = result.levels.into_iter().map(|level| Part {
        embed_s: Some(embed.as_secs_f64()),
        models_trained: Some(result.models_trained),
        ..Part::new(db, label, level, train, Some(result.model_bytes))
    });
    (parts.collect(), curve)
}

fn ptr(db: &SetDatabase) -> (RepMatrix, Duration) {
    embed_timed(db, &Ptr::new(db.universe_size()))
}

/// Fig. 9's algorithmic partitioners and round-robin, each at `groups`.
fn partitioners(db: &SetDatabase, groups: usize) -> Vec<Part> {
    // `ParG::partition`'s two steps, apart so the graph it cuts is weighed.
    let parg = ParG::new(groups);
    let ((assignment, graph_bytes), t) = time(|| {
        let graph = match parg.workload {
            GraphWorkload::Knn(k) => knn_graph(db, k, Jaccard),
            GraphWorkload::Range(_) => unreachable!("ParG::new cuts a kNN graph"),
        };
        (partition_graph(&graph, groups), graph.size_in_bytes())
    });
    let parg = Partitioning::from_assignment(assignment, groups);
    let mut parts = vec![Part::new(db, "PAR-G", parg, t, Some(graph_bytes))];
    // Nothing measures what the others hold, so their bytes stay null.
    let mut push = |name, (partitioning, t)| parts.push(Part::new(db, name, partitioning, t, None));
    push("PAR-C", time(|| ParC::new(groups).partition(db, Jaccard)));
    push("PAR-D", time(|| ParD::new(groups).partition(db, Jaccard)));
    push("PAR-A", time(|| ParA::new(groups).partition(db, Jaccard)));
    push(
        "round-robin",
        time(|| Partitioning::round_robin(db.len(), groups)),
    );
    parts
}

/// One method built on one shape.
struct Method {
    name: &'static str,
    /// LES3's partition.
    part: Option<Part>,
    index_bytes: usize,
    build: Duration,
    ask: Ask,
}

impl Method {
    fn memory<M: SetSimSearch + 'static>((index, build): (M, Duration)) -> Self {
        Self {
            name: index.name(),
            part: None,
            index_bytes: index.index_size_in_bytes(),
            build,
            ask: Box::new(move |q, kind| (ask!(index, q, kind), None)),
        }
    }

    fn les3(db: &SetDatabase, part: Part) -> Self {
        let (index, build) =
            time(|| Les3Index::build(db.clone(), part.partitioning.clone(), Jaccard));
        Self {
            part: Some(part),
            ..Self::memory((index, build))
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
            part: None,
            index_bytes: index_bytes(&index),
            build,
            ask: Box::new(move |q, kind| {
                let (result, io) = ask(&index, q, kind);
                (result, Some(io.elapsed_ms))
            }),
        }
    }

    /// `LES3 <partitioner>@<groups>`, or the method's name.
    fn label(&self) -> String {
        self.part.as_ref().map_or(self.name.into(), |p| {
            let groups = p.partitioning.n_groups();
            format!("{} {}@{groups}", self.name, p.partitioner)
        })
    }
}

fn memory_methods(shape: &str, db: &SetDatabase, mut parts: Vec<Part>) -> Vec<Method> {
    let groups = parts.iter().map(|p| p.partitioning.n_groups());
    let groups = groups
        .min_by_key(|g| g.abs_diff(256))
        .expect("a cascade has levels");
    parts.extend(partitioners(db, groups));
    if shape == "KOSARAK" {
        parts.extend(cascade(db, "L2P/hard", ptr(db), 1024, PairLoss::Hard).0);
    }
    let mut methods: Vec<Method> = parts.into_iter().map(|p| Method::les3(db, p)).collect();
    methods.extend([
        Method::memory(time(|| InvIdx::build(db.clone(), Jaccard))),
        Method::memory(time(|| DualTrans::build(db.clone(), Jaccard, 8, 16))),
        Method::memory(time(|| ScalarTrans::build(db.clone(), Jaccard))),
        Method::memory(time(|| BruteForce::new(db.clone(), Jaccard))),
    ]);
    methods
}

/// Fig. 8: one cascade per representation, LES3 on each finest level.
fn sample_methods(db: &SetDatabase, l2p: Vec<Part>) -> Vec<Method> {
    let universe = db.universe_size();
    let dim = (2 * Ptr::new(universe).height()).min(16);
    let (pca, fit) = time(|| Pca::fit(db, dim));
    let (pca, embed) = embed_timed(db, &pca);
    let half = embed_timed(db, &PtrHalf::new(universe));
    let binary = embed_timed(db, &BinaryEncoding::for_database_size(db.len()));
    let mds = time(|| Mds::new(dim).fit(db));
    let reps = [
        ("L2P/PTR-half", half),
        ("L2P/BinaryEnc", binary),
        ("L2P/PCA", (pca, fit + embed)),
        ("L2P/MDS", mds),
    ];
    let cascades = reps.map(|(label, reps)| cascade(db, label, reps, 256, PairLoss::Surrogate).0);
    std::iter::once(l2p)
        .chain(cascades)
        .filter_map(|mut levels| levels.pop())
        .map(|finest| Method::les3(db, finest))
        .collect()
}

fn disk_methods(spec: &DatasetSpec, db: &SetDatabase, mut parts: Vec<Part>) -> Vec<Method> {
    let model = DiskModel::hdd_5400().scaled_for_emulation(spec.n_sets as f64 / db.len() as f64);
    let part = parts.pop().expect("a cascade has levels");
    let les3 = time(|| {
        let index = Les3Index::build(db.clone(), part.partitioning.clone(), Jaccard);
        DiskLes3::new(index, model)
    });
    vec![
        Method {
            part: Some(part),
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
/// µs, work counters and simulated I/O ms per query.
fn cell(
    shape: &str,
    m: &Method,
    kind: Kind,
    queries: &[Vec<TokenId>],
    truth: &[SearchResult],
) -> (f64, QueryWork, Option<f64>) {
    let answers: Vec<_> = queries.iter().map(|q| (m.ask)(q, kind)).collect();
    for (i, ((got, _), want)) in answers.iter().zip(truth).enumerate() {
        assert!(
            same_answer(kind, got, want),
            "{shape} {} {kind:?} query {i}: {:?}, brute force {:?}",
            m.label(),
            got.hits,
            want.hits
        );
    }
    let (_, t) = time(|| {
        for q in queries {
            std::hint::black_box((m.ask)(q, kind));
        }
    });
    let io_ms = answers.iter().map(|&(_, io)| io).sum::<Option<f64>>();
    (
        per_query_us(t, queries.len()),
        QueryWork::mean(answers.iter().map(|(r, _)| r)),
        io_ms.map(|ms| ms / queries.len().max(1) as f64),
    )
}

/// New sets to insert; `open` draws half the tokens from beyond the
/// base's `universe` (§7.8: "half of the tokens in D_open are from D and
/// half are new"). Tokens are drawn directly, not compacted, so new ids
/// really lie outside the original universe.
fn new_sets(
    spec: &DatasetSpec,
    count: usize,
    universe: u32,
    open: bool,
    seed: u64,
) -> Vec<Vec<TokenId>> {
    use les3_data::rand_util::{rng, set_size, Zipf};
    use rand::Rng;
    let mut rng = rng(seed);
    let old_tokens = Zipf::new(universe as usize, spec.alpha);
    let new_tokens = Zipf::new((universe as usize / 2).max(1), spec.alpha);
    (0..count)
        .map(|_| {
            let size = set_size(&mut rng, spec.avg_size, spec.min_size, 200);
            let mut tokens: Vec<TokenId> = (0..size)
                .map(|_| {
                    if open && rng.gen_bool(0.5) {
                        universe + new_tokens.sample(&mut rng) as u32
                    } else {
                        old_tokens.sample(&mut rng) as u32
                    }
                })
                .collect();
            tokens.sort_unstable();
            tokens.dedup();
            tokens
        })
        .collect()
}

/// §7.8's rows: kNN pruning efficiency of an incrementally grown index
/// against a rebuilt one, per insertion ratio and universe.
fn updates(n_sets: usize, n_queries: usize) -> Vec<String> {
    const K: usize = 10;
    let spec = DatasetSpec::kosarak().with_sets(n_sets);
    let base = spec.generate(3);
    let universe = base.universe_size();
    let n_groups = (base.len() / 40).max(16);
    let partitioning = l2p_partition(&base, n_groups).finest().clone();
    println!("\n--- {} updates ({}) ---", spec.name, base.stats());
    println!(
        "{:>7} {:>9} {:>15} {:>12} {:>8}",
        "ratio", "universe", "PE incremental", "PE rebuilt", "ΔPE %"
    );
    let mut rows = Vec::new();
    for ratio in [0.25f64, 0.5, 0.75, 1.0] {
        let count = (base.len() as f64 * ratio) as usize;
        for open in [false, true] {
            let inserts = new_sets(&spec, count, universe, open, 91);
            let mut incremental = Les3Index::build(base.clone(), partitioning.clone(), Jaccard);
            let mut grown = base.clone();
            if open {
                grown.extend_universe(universe + universe / 2);
            }
            for s in &inserts {
                incremental.insert(&mut s.clone());
                grown.push_sorted(s);
            }
            let rebuilt_part = l2p_partition(&grown, n_groups).finest().clone();
            let rebuilt = Les3Index::build(grown.clone(), rebuilt_part, Jaccard);
            let queries = workload(&grown, n_queries, 5);
            let brute = BruteForce::new(grown.clone(), Jaccard);
            let universe_name = if open { "open" } else { "closed" };
            let mean_pe = |index: &Les3Index<Jaccard>, label: &str| {
                let mut total = 0.0;
                for (i, q) in queries.iter().enumerate() {
                    let (got, want) = (index.knn(q, K), brute.knn(q, K));
                    assert!(
                        same_answer(Kind::Knn(K), &got, &want),
                        "updates {ratio} {universe_name} {label} query {i}: {:?}, brute force {:?}",
                        got.hits,
                        want.hits
                    );
                    total += got.stats.pruning_efficiency_knn(grown.len(), K);
                }
                total / queries.len().max(1) as f64
            };
            let pe_inc = mean_pe(&incremental, "incremental");
            let pe_reb = mean_pe(&rebuilt, "rebuilt");
            let delta = (pe_reb - pe_inc) / pe_reb.max(1e-12) * 100.0;
            println!("{ratio:>7.2} {universe_name:>9} {pe_inc:>15.4} {pe_reb:>12.4} {delta:>8.2}");
            rows.push(format!(
                "{{\"shape\": \"{}\", \"universe\": \"{universe_name}\", \"insert_ratio\": {ratio}, \"base_sets\": {}, \"inserted\": {count}, \"groups\": {n_groups}, \"k\": {K}, \"pe_incremental\": {pe_inc:.6}, \"pe_rebuilt\": {pe_reb:.6}, \"delta_pe_pct\": {delta:.3}}}",
                spec.name,
                base.len(),
            ));
        }
    }
    rows
}

/// A JSON value, or `null` where there is none.
fn or_null(value: Option<impl Display>) -> String {
    value.map_or_else(|| "null".into(), |v| v.to_string())
}

fn main() {
    header(
        "§7",
        "L2P's partitions, LES3 against its baselines, and updates",
    );
    // Posting-list density (what InvIdx's cost tracks) approaches paper
    // conditions only as |D| grows against the ∛-scaled universe.
    let n = bench_sets(16_000);
    let n_queries = bench_queries(50);
    let memory = DatasetSpec::memory_datasets()
        .into_iter()
        .map(|spec| ("memory", spec, n));
    let sample = ("sample", DatasetSpec::kosarak(), n / 4);
    let disk = DatasetSpec::disk_datasets()
        .into_iter()
        .map(|spec| ("disk", spec, n));
    let (mut shapes, mut rows) = (Vec::new(), Vec::new());
    for (tier, spec, n_sets) in memory.chain([sample]).chain(disk) {
        let db = spec.with_sets(n_sets).generate(31);
        let queries = workload(&db, n_queries, 7);
        let brute = BruteForce::new(db.clone(), Jaccard);
        let truth: Vec<Vec<SearchResult>> = KINDS
            .iter()
            .map(|&kind| queries.iter().map(|q| ask!(brute, q, kind)).collect())
            .collect();
        let target = match tier {
            "memory" => 1024,
            "sample" => 256,
            // The paper's coarse 0.5 %·|D| rule: groups must span several
            // pages so one seek amortizes over a sequential run.
            _ => (db.len() / 200).max(8),
        };
        let (parts, curve) = cascade(&db, "L2P", ptr(&db), target, PairLoss::Surrogate);
        let methods = match tier {
            "memory" => memory_methods(spec.name, &db, parts),
            "sample" => sample_methods(&db, parts),
            _ => disk_methods(&spec, &db, parts),
        };
        let s = db.stats();
        let curve: Vec<String> = curve.iter().map(|l| format!("{l:.6}")).collect();
        shapes.push(format!(
            "{{\"shape\": \"{}\", \"tier\": \"{tier}\", \"n_sets\": {}, \"max_size\": {}, \"min_size\": {}, \"avg_size\": {:.2}, \"tokens\": {}, \"paper_n_sets\": {}, \"paper_tokens\": {}, \"epoch_losses\": [{}]}}",
            spec.name, s.n_sets, s.max_size, s.min_size, s.avg_size, s.distinct_tokens, spec.n_sets, spec.universe, curve.join(", ")
        ));

        println!("\n--- {} {tier} ({s}) ---", spec.name);
        println!(
            "{:<12} {:<24} {:>10} {:>10} {:>10} {:>10}",
            "query", "method", "µs/query", "sets read", "groups", "I/O ms"
        );
        for m in &methods {
            for (&kind, truth) in KINDS.iter().zip(&truth) {
                let (us, work, io_ms) = cell(spec.name, m, kind, &queries, truth);
                let io = io_ms.map_or(String::new(), |ms| format!("{ms:>10.3}"));
                println!(
                    "{:<12} {:<24} {us:>10.1} {:>10.1} {:>10.1} {io}",
                    format!("{kind:?}"),
                    m.label(),
                    work.sets_read,
                    work.groups_verified,
                );

                let p = m.part.as_ref();
                let per_part = |v: f64| or_null(p.map(|_| format!("{v:.2}")));
                rows.push(format!(
                    "{{\"shape\": \"{}\", \"tier\": \"{tier}\", \"method\": \"{}\", \"partitioner\": {}, \"groups\": {}, {}, \"us_per_query\": {us:.2}, \"sets_read_per_query\": {:.2}, \"groups_verified_per_query\": {}, \"candidates_per_query\": {}, \"tgm_bits_per_query\": {}, \"io_ms_per_query\": {}, \"index_bytes\": {}, \"dense_tgm_bytes\": {}, \"build_ms\": {:.2}, \"gpo_sampled\": {}, \"partition_s\": {}, \"partition_bytes\": {}, \"embed_s\": {}, \"models_trained\": {}}}",
                    spec.name,
                    m.name,
                    or_null(p.map(|p| format!("\"{}\"", p.partitioner))),
                    or_null(p.map(|p| p.partitioning.n_groups())),
                    match kind {
                        Kind::Knn(k) => format!("\"k\": {k}"),
                        Kind::Range(delta) => format!("\"delta\": {delta}"),
                    },
                    work.sets_read,
                    per_part(work.groups_verified),
                    per_part(work.candidates),
                    per_part(work.tgm_bits),
                    or_null(io_ms.map(|ms| format!("{ms:.4}"))),
                    m.index_bytes,
                    or_null(p.map(|p| p.dense_tgm_bytes)),
                    m.build.as_secs_f64() * 1e3,
                    or_null(p.map(|p| format!("{:.1}", p.gpo))),
                    or_null(p.map(|p| format!("{:.3}", p.seconds))),
                    or_null(p.and_then(|p| p.bytes)),
                    or_null(p.and_then(|p| p.embed_s).map(|s| format!("{s:.4}"))),
                    or_null(p.and_then(|p| p.models_trained)),
                ));
            }
        }
    }

    let updates = updates(n / 8, n_queries);

    let json = format!(
        "{{\n \"bench\": \"paper\",\n \"env\": {},\n \"n_queries\": {n_queries},\n \"shapes\": [\n  {}\n ],\n \"rows\": [\n  {}\n ],\n \"updates\": [\n  {}\n ]\n}}\n",
        env_json(),
        shapes.join(",\n  "),
        rows.join(",\n  "),
        updates.join(",\n  ")
    );
    record("BENCH_paper.json", &json);
}
