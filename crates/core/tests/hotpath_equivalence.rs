//! Property tests: the overhauled query hot path — word-parallel filter,
//! bucketed group selection, length-window + threshold-aware verification
//! — must return exactly the same hit sets as the straightforward
//! reference path (TGM bounds under a comparison sort + exhaustive
//! per-member evaluation) and as a brute-force scan, for arbitrary
//! databases, partitionings, queries, thresholds and k (Theorem 3.1
//! exactness).

use les3_core::sim::distinct_len;
use les3_core::{
    normalize_query, Cosine, Dice, Jaccard, Les3Index, OverlapCoefficient, Partitioning, Similarity,
};
use les3_data::{SetDatabase, SetId, TokenId};
use proptest::prelude::*;

/// Every group with its bound `UB(Q, G_g)` from the TGM's overlap
/// counts, sorted by a full comparison sort: descending bound, ids
/// ascending.
fn reference_bounds<S: Similarity>(index: &Les3Index<S>, q: &[TokenId]) -> Vec<(u32, f64)> {
    let mut counts = Vec::new();
    index.tgm().group_overlaps_into(q, &mut counts);
    let ub = |r: u32| index.sim().ub_from_overlap(distinct_len(q), r as usize);
    let mut bounds: Vec<(u32, f64)> = (0u32..).zip(counts).map(|(g, r)| (g, ub(r))).collect();
    bounds.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    bounds
}

/// Every member of group `g` fully evaluated: no length window, no
/// early termination.
fn verify_group<S: Similarity>(index: &Les3Index<S>, q: &[TokenId], g: u32) -> Vec<(SetId, f64)> {
    let members = index.partitioning().members(g);
    members
        .iter()
        .map(|&id| (id, index.sim().eval(q, index.db().set(id))))
        .collect()
}

/// The pre-overhaul query path: bounds sorted by a full comparison sort,
/// every member of every surviving group fully evaluated.
fn reference_knn<S: Similarity>(index: &Les3Index<S>, q: &[TokenId], k: usize) -> Vec<f64> {
    if k == 0 || index.db().is_empty() {
        return Vec::new();
    }
    let q = &*normalize_query(q);
    // Collect every (id, sim), then take the top-k similarities — the
    // group pruning below only mirrors what the index is allowed to skip.
    let mut sims: Vec<f64> = Vec::new();
    for (g, _) in reference_bounds(index, q) {
        sims.extend(verify_group(index, q, g).iter().map(|&(_, s)| s));
    }
    sims.sort_by(|a, b| b.total_cmp(a));
    sims.truncate(k.min(index.db().len()));
    sims
}

fn reference_range<S: Similarity>(
    index: &Les3Index<S>,
    q: &[TokenId],
    delta: f64,
) -> Vec<(SetId, f64)> {
    let q = &*normalize_query(q);
    let mut hits: Vec<(SetId, f64)> = Vec::new();
    for (g, ub) in reference_bounds(index, q) {
        if ub < delta {
            continue;
        }
        hits.extend(
            verify_group(index, q, g)
                .into_iter()
                .filter(|&(_, s)| s >= delta),
        );
    }
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits
}

fn db_strategy() -> impl Strategy<Value = SetDatabase> {
    // Mixed set sizes (1..25) over a smallish universe so overlaps,
    // length-window cuts, and early exits all actually trigger.
    prop::collection::vec(prop::collection::btree_set(0u32..100, 1..25), 2..70).prop_map(|sets| {
        SetDatabase::from_sets(sets.into_iter().map(|s| s.into_iter().collect::<Vec<_>>()))
    })
}

fn pseudo_partitioning(n_sets: usize, n_groups: usize, seed: u64) -> Partitioning {
    let assignment: Vec<u32> = (0..n_sets)
        .map(|i| {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 33;
            (h % n_groups as u64) as u32
        })
        .collect();
    Partitioning::from_assignment(assignment, n_groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn knn_hot_path_equals_reference_path(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..15),
        k in 1usize..14,
        n_groups in 1usize..9,
        seed in 0u64..500,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);

        fn check<S: Similarity>(db: &SetDatabase, part: &Partitioning, sim: S, q: &[u32], k: usize) {
            let index = Les3Index::build(db.clone(), part.clone(), sim);
            let fast: Vec<f64> = index.knn(q, k).hits.iter().map(|h| h.1).collect();
            let reference = reference_knn(&index, q, k);
            assert_eq!(fast, reference, "{} k={k}", sim.name());
        }
        check(&db, &part, Jaccard, &query, k);
        check(&db, &part, Dice, &query, k);
        check(&db, &part, Cosine, &query, k);
        check(&db, &part, OverlapCoefficient, &query, k);
    }

    #[test]
    fn range_hot_path_equals_reference_path(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..15),
        delta in 0.0f64..1.05,
        n_groups in 1usize..9,
        seed in 0u64..500,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);

        fn check<S: Similarity>(db: &SetDatabase, part: &Partitioning, sim: S, q: &[u32], d: f64) {
            let index = Les3Index::build(db.clone(), part.clone(), sim);
            let fast = index.range(q, d).hits;
            let reference = reference_range(&index, q, d);
            assert_eq!(fast, reference, "{} δ={d}", sim.name());
        }
        check(&db, &part, Jaccard, &query, delta);
        check(&db, &part, Dice, &query, delta);
        check(&db, &part, Cosine, &query, delta);
        check(&db, &part, OverlapCoefficient, &query, delta);
    }

    #[test]
    fn batch_paths_equal_single_query_paths(
        db in db_strategy(),
        k in 1usize..8,
        delta in 0.05f64..1.0,
        n_groups in 1usize..7,
        seed in 0u64..500,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        let queries: Vec<Vec<TokenId>> =
            (0..db.len().min(24) as u32).map(|i| db.set(i).to_vec()).collect();
        let knn_batch = index.knn_batch(&queries, k);
        let range_batch = index.range_batch(&queries, delta);
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(&knn_batch[i].hits, &index.knn(q, k).hits, "kNN query {}", i);
            prop_assert_eq!(&range_batch[i].hits, &index.range(q, delta).hits, "range query {}", i);
        }
    }

    #[test]
    fn hot_path_stays_exact_under_inserts(
        db in db_strategy(),
        inserts in prop::collection::vec(prop::collection::btree_set(0u32..140, 1..20), 1..12),
        k in 1usize..6,
        delta in 0.1f64..1.0,
    ) {
        // The length-sorted verification order must stay consistent as
        // the update path grows groups.
        let part = pseudo_partitioning(db.len(), 4.min(db.len()), 7);
        let mut index = Les3Index::build(db, part, Jaccard);
        for s in inserts {
            let mut tokens: Vec<u32> = s.into_iter().collect();
            index.insert(&mut tokens);
        }
        let query = index.db().set(0).to_vec();
        let fast: Vec<f64> = index.knn(&query, k).hits.iter().map(|h| h.1).collect();
        prop_assert_eq!(fast, reference_knn(&index, &query, k));
        let fast = index.range(&query, delta).hits;
        prop_assert_eq!(fast, reference_range(&index, &query, delta));
    }
}
