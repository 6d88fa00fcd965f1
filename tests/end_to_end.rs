//! End-to-end pipeline tests: data generation → representation → L2P →
//! TGM index → queries, validated against brute force.

use les3::prelude::*;

fn l2p_index(db: &SetDatabase, target_groups: usize, sim_seed: u64) -> Les3Index<Jaccard> {
    let reps = RepMatrix::from_representation(db, &Ptr::new(db.universe_size()));
    let result = les3::partition::l2p::L2p::new(L2pConfig {
        target_groups,
        init_groups: 4,
        min_group_size: 10,
        pairs_per_model: 800,
        seed: sim_seed,
        ..Default::default()
    })
    .partition(db, &reps);
    Les3Index::build(db.clone(), result.finest().clone(), Jaccard)
}

#[test]
fn full_pipeline_on_each_emulated_dataset() {
    for spec in DatasetSpec::memory_datasets() {
        let db = spec.with_sets(600).generate(1);
        let index = l2p_index(&db, 16, 7);
        let brute = BruteForce::new(db.clone(), Jaccard);
        for qid in [0u32, 100, 599] {
            let q = db.set(qid).to_vec();
            let a: Vec<f64> = index.knn(&q, 10).hits.iter().map(|h| h.1).collect();
            let b: Vec<f64> = SetSimSearch::knn(&brute, &q, 10)
                .hits
                .iter()
                .map(|h| h.1)
                .collect();
            assert_eq!(a, b, "{} qid {qid}", spec.name);
        }
    }
}

#[test]
fn l2p_partitioning_prunes_better_than_round_robin() {
    let db = DatasetSpec::kosarak().with_sets(2_000).generate(3);
    let learned = l2p_index(&db, 32, 1);
    let rr = Les3Index::build(
        db.clone(),
        Partitioning::round_robin(db.len(), learned.partitioning().n_groups()),
        Jaccard,
    );
    let query_ids = les3::data::query::sample_query_ids(&db, 50, 9);
    let mut learned_cands = 0usize;
    let mut rr_cands = 0usize;
    for &qid in &query_ids {
        let q = db.set(qid);
        learned_cands += learned.knn(q, 10).stats.candidates;
        rr_cands += rr.knn(q, 10).stats.candidates;
    }
    assert!(
        learned_cands < rr_cands,
        "L2P candidates {learned_cands} should beat round-robin {rr_cands}"
    );
}

#[test]
fn all_similarity_measures_stay_exact_end_to_end() {
    let db = ZipfianGenerator::new(400, 2_000, 7.0, 1.1).generate(5);
    let part = Partitioning::round_robin(db.len(), 10);

    fn check<S: Similarity>(db: &SetDatabase, part: &Partitioning, sim: S) {
        let index = Les3Index::build(db.clone(), part.clone(), sim);
        let brute = BruteForce::new(db.clone(), sim);
        let q = db.set(42).to_vec();
        let a: Vec<f64> = index.knn(&q, 8).hits.iter().map(|h| h.1).collect();
        let b: Vec<f64> = SetSimSearch::knn(&brute, &q, 8)
            .hits
            .iter()
            .map(|h| h.1)
            .collect();
        assert_eq!(a, b, "knn mismatch for {}", sim.name());
        assert_eq!(
            index.range(&q, 0.5).hits,
            SetSimSearch::range(&brute, &q, 0.5).hits,
            "range mismatch for {}",
            sim.name()
        );
    }
    check(&db, &part, Jaccard);
    check(&db, &part, Dice);
    check(&db, &part, Cosine);
    check(&db, &part, OverlapCoefficient);
}

#[test]
fn queries_with_unseen_tokens_are_exact() {
    let db = ZipfianGenerator::new(300, 1_000, 6.0, 1.1).generate(21);
    let index = l2p_index(&db, 8, 3);
    let brute = BruteForce::new(db.clone(), Jaccard);
    // Mix known and unknown tokens.
    let mut q = db.set(10).to_vec();
    q.extend([50_000u32, 60_000]);
    q.sort_unstable();
    let a: Vec<f64> = index.knn(&q, 5).hits.iter().map(|h| h.1).collect();
    let b: Vec<f64> = SetSimSearch::knn(&brute, &q, 5)
        .hits
        .iter()
        .map(|h| h.1)
        .collect();
    assert_eq!(a, b);
}
