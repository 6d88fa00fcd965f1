//! Figure 9: L2P vs the algorithmic partitioners (PAR-G/C/D/A) on a
//! KOSARAK-like database: partitioning time, partitioning memory, and
//! resulting kNN (k = 10) query time.
//!
//! Expected shape (paper §7.4): L2P gives the fastest search with a small
//! fraction of the partitioning time and space of PAR-G (whose kNN graph
//! dominates memory); PAR-C/D/A trail on query time due to local optima.

use les3_bench::{bench_queries, bench_sets, header, per_query_us, ptr_reps, time, workload};
use les3_core::{Jaccard, Les3Index, Partitioning};
use les3_data::realistic::DatasetSpec;
use les3_data::SetDatabase;
use les3_partition::graph::knn_graph;
use les3_partition::l2p::{L2p, L2pConfig};
use les3_partition::{ParA, ParC, ParD, ParG};

fn report(
    name: &str,
    db: &SetDatabase,
    part: Partitioning,
    ptime: std::time::Duration,
    bytes: usize,
) {
    let index = Les3Index::build(db.clone(), part, Jaccard);
    let queries = workload(db, bench_queries(50), 3);
    let (_, qt) = time(|| {
        for q in &queries {
            std::hint::black_box(index.knn(q, 10));
        }
    });
    println!(
        "{:<7} {:>12.2?} {:>12} {:>14.1}",
        name,
        ptime,
        format!("{:.1} KiB", bytes as f64 / 1024.0),
        per_query_us(qt, queries.len())
    );
}

fn main() {
    header(
        "Figure 9",
        "partitioning methods: time, space, query time (kNN k=10)",
    );
    let n = bench_sets(4_000);
    // Paper: 1024 groups on 990K sets ≈ 0.1 %; same ratio at bench scale,
    // floored so groups stay meaningful.
    let n_groups = (n / 967).max(32);
    let db = DatasetSpec::kosarak().with_sets(n).generate(5);
    println!("database: {} → {n_groups} groups", db.stats());
    println!(
        "{:<7} {:>12} {:>12} {:>14}",
        "method", "part. time", "memory", "kNN µs/query"
    );

    // L2P: memory = what one model's training holds (paper §7.4):
    // parameters, Adam's moments, the gradient, the trainer's kernel
    // buffers and its row → slot table.
    let reps = ptr_reps(&db);
    let cfg = L2pConfig {
        target_groups: n_groups,
        init_groups: (n_groups / 8).max(1),
        min_group_size: 8,
        pairs_per_model: 2_000,
        ..Default::default()
    };
    let (result, t) = time(|| L2p::new(cfg.clone()).partition(&db, &reps));
    report("L2P", &db, result.finest().clone(), t, result.model_bytes);
    // L2P's time is its models' training: read the column per model
    // (`micro_l2p_train` times one model alone).
    println!(
        "        {} models × {} restarts, {} pairs each: {:.2} ms per model",
        result.models_trained,
        cfg.restarts,
        cfg.pairs_per_model,
        t.as_secs_f64() * 1e3 / result.models_trained.max(1) as f64
    );

    // PAR-G: memory dominated by the kNN similarity graph.
    let (graph_bytes, _) = {
        let g = knn_graph(&db, 10, Jaccard);
        (g.size_in_bytes(), g)
    };
    let (part, t) = time(|| ParG::new(n_groups).partition(&db, Jaccard));
    report("PAR-G", &db, part, t, graph_bytes);

    // PAR-C/D/A: memory is the working partition + samples (intermediate
    // group state, estimated as one id per set plus sampling buffers).
    let working = db.len() * std::mem::size_of::<u32>() * 2;
    let (part, t) = time(|| ParC::new(n_groups).partition(&db, Jaccard));
    report("PAR-C", &db, part, t, working);
    let (part, t) = time(|| ParD::new(n_groups).partition(&db, Jaccard));
    report("PAR-D", &db, part, t, working);
    let (part, t) = time(|| ParA::new(n_groups).partition(&db, Jaccard));
    report("PAR-A", &db, part, t, working);
}
