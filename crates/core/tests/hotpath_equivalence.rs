//! Property tests: the overhauled query hot path — word-parallel filter,
//! bucketed group selection, length-window + threshold-aware verification
//! — must return exactly the same hit sets as the straightforward
//! reference path (TGM bounds under a comparison sort + exhaustive
//! per-member evaluation) and as a brute-force scan, for arbitrary
//! databases, partitionings, queries, thresholds and k (Theorem 3.1
//! exactness).

use les3_core::sim::{distinct_len, token_signature};
use les3_core::{
    normalize_query, Cosine, DeletionLog, Dice, Jaccard, Les3Index, OverlapCoefficient,
    Partitioning, PreparedQuery, QueryBits, QueryScratch, Similarity,
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
        workers in 0usize..30,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        let queries: Vec<Vec<TokenId>> =
            (0..db.len().min(24) as u32).map(|i| db.set(i).to_vec()).collect();
        let knn_batch = index.knn_batch_on(workers, 1, &queries, k);
        let mut scratch = QueryScratch::new();
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(&knn_batch[i], &index.knn(q, k), "kNN query {}", i);
            let range = index.range_with(q, delta, &mut scratch);
            prop_assert_eq!(&range, &index.range(q, delta), "range query {}", i);
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

    /// The capped kNN window is sound: for every group `g` and threshold
    /// `t`, every live member with exact `sim ≥ t` lies inside
    /// `window(g, |Q|, r_g, t)`, where `r_g` is the engine's own TGM
    /// overlap count. Multiset sets and queries, inserts past the
    /// universe, and deletes through the `DeletionLog` (which keep the TGM
    /// a superset of the live members' tokens); the thresholds include
    /// every member's own similarity, the boundary the window must keep.
    #[test]
    fn capped_window_keeps_every_member_at_or_above_the_threshold(
        sets in prop::collection::vec(prop::collection::vec(0u32..60, 1..16), 2..50),
        inserts in prop::collection::vec(prop::collection::vec(0u32..90, 1..16), 0..10),
        deletes in prop::collection::vec(0usize..1000, 0..20),
        query in prop::collection::vec(0u32..100, 1..14),
        extra_t in prop::collection::vec(0.0f64..1.0, 3),
        n_groups in 1usize..7,
        seed in 0u64..500,
    ) {
        fn check<S: Similarity>(
            sim: S,
            db: &SetDatabase,
            part: &Partitioning,
            ops: (&[Vec<u32>], &[usize]),
            query: &[u32],
            extra_t: &[f64],
        ) {
            let mut index = Les3Index::build(db.clone(), part.clone(), sim);
            let mut log = DeletionLog::build(&index);
            for set in ops.0 {
                let (id, _) = index.insert(&mut set.clone());
                log.note_insert(&index, id);
            }
            for &pick in ops.1 {
                let id = (pick % index.db().len()) as SetId;
                log.delete(&mut index, id);
            }
            let q = &*normalize_query(query);
            let q_len = distinct_len(q);
            let mut counts = Vec::new();
            index.tgm().group_overlaps_into(q, &mut counts);
            for (g, &r) in (0u32..).zip(&counts) {
                let live: Vec<(SetId, f64)> = index
                    .partitioning()
                    .members(g)
                    .iter()
                    .filter(|&&id| !log.is_deleted(id))
                    .map(|&id| (id, sim.eval(q, index.db().set(id))))
                    .collect();
                let thresholds = live.iter().map(|&(_, s)| s).chain(extra_t.iter().copied());
                for t in thresholds.chain([f64::NEG_INFINITY, 0.0, 1.0]) {
                    let window = index.verify_window(g, q_len, r as usize, t);
                    for &(id, s) in live.iter().filter(|&&(_, s)| s >= t) {
                        assert!(
                            window.contains(&id),
                            "{}: set {id} (sim {s}) outside group {g}'s window at t={t}, r={r}, |Q|={q_len}",
                            sim.name()
                        );
                    }
                }
            }
            // And the capped engine answers what brute force over the live
            // sets answers.
            let mut want: Vec<f64> = (0..index.db().len() as SetId)
                .filter(|&id| !log.is_deleted(id))
                .map(|id| sim.eval(q, index.db().set(id)))
                .collect();
            want.sort_by(|a, b| b.total_cmp(a));
            want.truncate(5);
            let got: Vec<f64> = index.knn(q, 5).hits.iter().map(|h| h.1).collect();
            assert_eq!(got, want, "{} kNN", sim.name());
        }
        let db = SetDatabase::from_sets(sets);
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let ops = (&inserts[..], &deletes[..]);
        check(Jaccard, &db, &part, ops, &query, &extra_t);
        check(Dice, &db, &part, ops, &query, &extra_t);
        check(Cosine, &db, &part, ops, &query, &extra_t);
        check(OverlapCoefficient, &db, &part, ops, &query, &extra_t);
    }

    /// The signature bound never falls below the true overlap:
    /// `|Q ∩ S| ≤ ⌊(|Q| + |S| − popcount(sig_Q ⊕ sig_S)) / 2⌋` over
    /// distinct lengths, for multisets on either side, empty sets, tokens
    /// near `u32::MAX` and query tokens past the universe the query's
    /// bitset was loaded for (prepared with and without the bitset).
    #[test]
    fn the_signature_bound_is_at_least_the_overlap(
        q in prop::collection::vec(prop_oneof![0u32..40, (u32::MAX - 8)..=u32::MAX], 0..7),
        s in prop::collection::vec(prop_oneof![0u32..40, (u32::MAX - 8)..=u32::MAX], 0..7),
        universe in 0u32..100,
    ) {
        let (mut q, mut s) = (q, s);
        q.sort_unstable();
        s.sort_unstable();
        let overlap = SetDatabase::overlap(&q, &s);
        let (s_len, s_sig) = (distinct_len(&s), token_signature(&s));
        let mut bits = QueryBits::new();
        for prepared in [PreparedQuery::without_bits(&q), bits.prepare(&q, universe)] {
            let bound = prepared.overlap_bound(s_len, s_sig);
            prop_assert!(overlap <= bound, "|Q ∩ S| = {} > bound {}", overlap, bound);
        }
    }
}

/// A window member the signature rejects, then a tie at the k-th
/// similarity that only a strict `<` lets through. Group 0 (`r = 4`) is
/// verified first: B (id 1, Jaccard 3/5) takes the 1-NN slot, and C (id 2,
/// one shared token) is rejected by its signature — bound 1 below the 4
/// tokens it needs — without its tokens being read. Group 1 (`r = 3`)
/// holds A (id 0, also 3/5): its signature bound is exactly the 3 tokens
/// it needs, so it is read, ties B and wins on its smaller id. Rejecting
/// at `bound ≤ needed` would answer B.
#[test]
fn the_signature_rejects_a_member_and_keeps_a_tie_at_the_kth_similarity() {
    let q: Vec<u32> = (0..4).collect();
    let a = vec![0, 1, 2, 10];
    let b = vec![0, 1, 2, 11];
    let c = vec![3, 20, 21, 22, 23];
    let prepared = PreparedQuery::without_bits(&q);
    assert_eq!(prepared.overlap_bound(4, token_signature(&a)), 3);
    assert_eq!(prepared.overlap_bound(5, token_signature(&c)), 1);
    let db = SetDatabase::from_sets([a, b, c]);
    let part = Partitioning::from_assignment(vec![1, 0, 0], 2);
    let index = Les3Index::build(db.clone(), part, Jaccard);
    assert_eq!(index.tgm().group_overlaps(&q), vec![4, 3]);

    let got = index.knn(&q, 1);
    let mut brute: Vec<(SetId, f64)> = db.iter().map(|(id, s)| (id, Jaccard.eval(&q, s))).collect();
    brute.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    brute.truncate(1);
    assert_eq!(got.hits, brute);
    assert_eq!(got.hits, vec![(0, 0.6)]);
    // B, C and A are window members; C's tokens are never read.
    let s = got.stats;
    assert_eq!(
        (s.groups_verified, s.candidates, s.sims_computed),
        (2, 3, 2)
    );
}

/// One hand-built group whose overlap count `r_g = 6` is below `|Q| = 10`:
/// the cap must cut member E (length 10, one shared token), which the
/// uncapped window keeps. Fails if the window ignores `r` or the engine
/// passes `|Q|`.
#[test]
fn the_cap_cuts_a_member_the_uncapped_window_keeps() {
    let q: Vec<u32> = (0..10).collect();
    let a = q.clone(); // group 0, Jaccard 1.0
    let b: Vec<u32> = (0..5).collect(); // group 0, 0.5
    let d: Vec<u32> = (0..6).chain([200]).collect(); // group 1, 6/11
    let e: Vec<u32> = [0].into_iter().chain(100..109).collect(); // group 1, 1/19
    let db = SetDatabase::from_sets([a, b, d, e]);
    let part = Partitioning::from_assignment(vec![0, 0, 1, 1], 2);
    let index = Les3Index::build(db, part, Jaccard);
    let r = index.tgm().group_overlaps(&q);
    assert_eq!(r, vec![10, 6]);
    // After group 0 a 2-NN's threshold is 0.5: E's bound at overlap 6 is
    // 6/14, at the uncapped overlap 10 it is 1.
    assert_eq!(index.verify_window(1, 10, 10, 0.5), &[2, 3]);
    assert_eq!(index.verify_window(1, 10, 6, 0.5), &[2]);

    let want_hits = vec![(0, 1.0), (2, 6.0 / 11.0)];
    let flat = index.knn(&q, 2);
    assert_eq!(flat.hits, want_hits);
    // Group 0: A and B verified; group 1: D verified, E cut.
    assert_eq!(
        (
            flat.stats.groups_verified,
            flat.stats.candidates,
            flat.stats.size_skipped
        ),
        (2, 3, 1)
    );
}
