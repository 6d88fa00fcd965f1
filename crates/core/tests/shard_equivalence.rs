//! Property tests: a [`ShardedLes3Index`] must be indistinguishable —
//! bit for bit, counters included — from a [`Les3Index`] built on the
//! same database and partitioning, for every similarity measure, shard
//! count, sharding policy, query shape, and interleaved insert/delete
//! sequence. This is the contract the cross-shard threshold-sharing
//! descent guarantees (see `shard.rs` module docs): the merged
//! per-shard group streams replay the unsharded verification order
//! exactly, so not only the hits but every cost counter must agree.
//! That includes a range its deadline stops mid-descent: what it has
//! verified by then, and so the partial answer it commits, is the flat
//! index's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use les3_core::{
    ApproxInfo, ApproxPolicy, Cosine, DeletionLog, Dice, Jaccard, Les3Index, OverlapCoefficient,
    Partitioning, Query, QueryCtl, QueryScratch, SearchResult, ShardPolicy, ShardedLes3Index,
    Similarity, ThresholdedEval,
};
use les3_data::{SetDatabase, TokenId};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
const POLICIES: [ShardPolicy; 2] = [ShardPolicy::Contiguous, ShardPolicy::Hash];

fn db_strategy() -> impl Strategy<Value = SetDatabase> {
    prop::collection::vec(prop::collection::btree_set(0u32..100, 1..25), 2..60).prop_map(|sets| {
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

/// Asserts knn + range agreement (hits and stats) between the flat index
/// and every (shard count, policy) sharded configuration.
fn check_all_configs<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    sim: S,
    query: &[TokenId],
    k: usize,
    delta: f64,
) {
    let flat = Les3Index::build(db.clone(), part.clone(), sim);
    let flat_knn = flat.knn(query, k);
    let flat_range = flat.range(query, delta);
    for policy in POLICIES {
        for n_shards in SHARD_COUNTS {
            let sharded = ShardedLes3Index::build(db.clone(), part.clone(), sim, n_shards, policy);
            let got = sharded.knn(query, k);
            assert_eq!(
                got.hits,
                flat_knn.hits,
                "knn hits {} {policy:?} N={n_shards}",
                sim.name()
            );
            assert_eq!(
                got.stats,
                flat_knn.stats,
                "knn stats {} {policy:?} N={n_shards}",
                sim.name()
            );
            let got = sharded.range(query, delta);
            assert_eq!(
                got.hits,
                flat_range.hits,
                "range hits {} {policy:?} N={n_shards}",
                sim.name()
            );
            assert_eq!(
                got.stats,
                flat_range.stats,
                "range stats {} {policy:?} N={n_shards}",
                sim.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_queries_equal_unsharded_for_all_measures(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..15),
        k in 1usize..12,
        delta in 0.0f64..1.05,
        n_groups in 1usize..11,
        seed in 0u64..500,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        check_all_configs(&db, &part, Jaccard, &query, k, delta);
        check_all_configs(&db, &part, Dice, &query, k, delta);
        check_all_configs(&db, &part, Cosine, &query, k, delta);
        check_all_configs(&db, &part, OverlapCoefficient, &query, k, delta);
    }

    #[test]
    fn sharded_batches_equal_unsharded_batches(
        db in db_strategy(),
        k in 1usize..8,
        delta in 0.05f64..1.0,
        n_groups in 1usize..9,
        seed in 0u64..500,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
        let queries: Vec<Vec<TokenId>> =
            (0..db.len().min(20) as u32).map(|i| db.set(i).to_vec()).collect();
        let flat_knn = flat.knn_batch(&queries, k);
        let flat_range = flat.range_batch(&queries, delta);
        for policy in POLICIES {
            for n_shards in SHARD_COUNTS {
                let sharded =
                    ShardedLes3Index::build(db.clone(), part.clone(), Jaccard, n_shards, policy);
                let knn = sharded.knn_batch(&queries, k);
                let range = sharded.range_batch(&queries, delta);
                for i in 0..queries.len() {
                    prop_assert_eq!(&knn[i].hits, &flat_knn[i].hits,
                        "kNN q{} {:?} N={}", i, policy, n_shards);
                    prop_assert_eq!(&knn[i].stats, &flat_knn[i].stats,
                        "kNN stats q{} {:?} N={}", i, policy, n_shards);
                    prop_assert_eq!(&range[i].hits, &flat_range[i].hits,
                        "range q{} {:?} N={}", i, policy, n_shards);
                    prop_assert_eq!(&range[i].stats, &flat_range[i].stats,
                        "range stats q{} {:?} N={}", i, policy, n_shards);
                }
            }
        }
    }

    #[test]
    fn sharded_stays_equal_under_interleaved_inserts_and_deletes(
        db in db_strategy(),
        inserts in prop::collection::vec(prop::collection::btree_set(0u32..140, 1..20), 1..10),
        delete_picks in prop::collection::vec(0u32..1000, 1..8),
        k in 1usize..6,
        delta in 0.1f64..1.0,
        n_groups in 1usize..7,
        seed in 0u64..500,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let mut flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
        let mut flat_log = DeletionLog::build(&flat);
        for policy in POLICIES {
            for n_shards in SHARD_COUNTS {
                let mut sharded =
                    ShardedLes3Index::build(db.clone(), part.clone(), Jaccard, n_shards, policy);
                let mut sharded_log = DeletionLog::build(&sharded);
                // Interleave: insert, delete, insert, delete, …, applying
                // the identical operation stream to both indexes. Only
                // the first (policy, N) iteration mutates `flat`; later
                // iterations replay onto fresh sharded copies, so
                // mutations to flat must happen exactly once.
                let first = policy == POLICIES[0] && n_shards == SHARD_COUNTS[0];
                let mut deletes = delete_picks.iter();
                for s in &inserts {
                    let mut tokens: Vec<u32> = s.iter().copied().collect();
                    let (sid, sg) = sharded.insert(&mut tokens.clone());
                    sharded_log.note_insert(&sharded, sid);
                    if first {
                        let (fid, fg) = flat.insert(&mut tokens);
                        flat_log.note_insert(&flat, fid);
                        prop_assert_eq!((sid, sg), (fid, fg), "insert routing diverged");
                    }
                    if let Some(&pick) = deletes.next() {
                        let id = pick % sharded.db().len() as u32;
                        let s_ok = sharded_log.delete(&mut sharded, id);
                        if first {
                            let f_ok = flat_log.delete(&mut flat, id);
                            prop_assert_eq!(s_ok, f_ok, "delete outcome diverged");
                        }
                    }
                }
                prop_assert_eq!(sharded.db().len(), flat.db().len());
                // Post-mutation queries must still match bit for bit,
                // both raw and after tombstone filtering.
                for qid in [0u32, (sharded.db().len() / 2) as u32] {
                    let q = sharded.db().set(qid).to_vec();
                    let mut a = sharded.knn(&q, k);
                    let mut b = flat.knn(&q, k);
                    prop_assert_eq!(&a.hits, &b.hits, "post-update kNN");
                    prop_assert_eq!(a.stats, b.stats, "post-update kNN stats");
                    sharded_log.filter_hits(&mut a.hits);
                    flat_log.filter_hits(&mut b.hits);
                    prop_assert_eq!(&a.hits, &b.hits, "post-update filtered kNN");
                    let mut a = sharded.range(&q, delta);
                    let mut b = flat.range(&q, delta);
                    prop_assert_eq!(&a.hits, &b.hits, "post-update range");
                    sharded_log.filter_hits(&mut a.hits);
                    flat_log.filter_hits(&mut b.hits);
                    prop_assert_eq!(&a.hits, &b.hits, "post-update filtered range");
                }
            }
        }
    }
}

/// A range whose deadline passes mid-descent under [`ApproxPolicy::Anytime`]
/// commits what it has verified so far, so *which* groups it verified
/// first is part of the answer: best-first over the whole group axis, at
/// every shard count. Deterministic: the `STALL_AT`-th evaluation
/// outlasts the deadline, and the next group-boundary poll stops the
/// descent. 64 singleton groups, δ = 0 (every group survives, spread
/// over all four shards), one worker; the only exact match sits in group
/// 40 — the first group of the flat order, and in the third shard of the
/// `Contiguous` layout.
#[test]
fn a_deadline_committed_range_is_the_flat_one_at_every_shard_count() {
    static EVALS: AtomicUsize = AtomicUsize::new(0);
    static DEADLINE: Mutex<Option<Instant>> = Mutex::new(None);
    const STALL_AT: usize = 24;
    const G: usize = 64;

    #[derive(Clone, Copy)]
    struct StallingSim;
    impl Similarity for StallingSim {
        fn name(&self) -> &'static str {
            "stalling-jaccard"
        }
        fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
            Jaccard.from_overlap(overlap, a_len, b_len)
        }
        fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
            Jaccard.ub_from_overlap(q_len, r)
        }
        fn eval_with_threshold(&self, a: &[TokenId], b: &[TokenId], t: f64) -> ThresholdedEval {
            if EVALS.fetch_add(1, Ordering::SeqCst) + 1 == STALL_AT {
                let deadline = DEADLINE.lock().unwrap().expect("set before the query");
                while Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Jaccard.eval_with_threshold(a, b, t)
        }
    }

    /// The interrupted range on `index`. A host pause that uses up the
    /// budget before the stall is reached is retried with a longer one.
    fn stalled_range(index: &ShardedLes3Index<StallingSim>) -> (SearchResult, ApproxInfo) {
        for budget_ms in [250, 2_500, 25_000] {
            let deadline = Instant::now() + Duration::from_millis(budget_ms);
            EVALS.store(0, Ordering::SeqCst);
            *DEADLINE.lock().unwrap() = Some(deadline);
            let q = Query {
                ctl: QueryCtl::with_deadline(deadline),
                approx: ApproxPolicy::Anytime,
                ..Query::range(&[40], 0.0)
            };
            let out = index
                .search(&q, &mut QueryScratch::new())
                .expect("an expired deadline commits");
            if out.0.stats.sims_computed == STALL_AT {
                return out;
            }
        }
        panic!("the deadline never outlasted the first {STALL_AT} evaluations");
    }

    let db = SetDatabase::from_sets((0..G as u32).map(|i| vec![i]));
    let part = Partitioning::from_assignment((0..G as u32).collect(), G);
    let flat = Les3Index::build(db.clone(), part.clone(), StallingSim);
    let want = stalled_range(&flat);
    assert_eq!(want.0.hits[0], (40, 1.0), "best-first: the exact match");
    assert_eq!(want.0.stats.groups_verified, STALL_AT);
    assert!(want.1.approx);
    assert_eq!(want.1.recall_est, STALL_AT as f64 / G as f64);
    for policy in POLICIES {
        let sharded = ShardedLes3Index::build(db.clone(), part.clone(), StallingSim, 4, policy);
        assert_eq!(stalled_range(&sharded), want, "{policy:?} N=4");
    }
}
