//! Property tests for `Query.workers`: a range query fanned out over
//! any number of verification workers (`par.rs`) must be
//! indistinguishable — hits *and* every [`SearchStats`] counter, bit for
//! bit — from the sequential descent, and a kNN, whose descent is
//! sequential at any value, must not change with it at all.
//!
//! Also covers cooperative cancellation mid-verification (tripping the
//! [`QueryCtl`] flag while several range workers are verifying must stop
//! *every* worker at its next group boundary) and where the work runs:
//! a kNN, a selective range and a served request evaluate every
//! candidate on one thread.
//!
//! Compiled out under the `model` feature: these are real-thread stress
//! tests, and loom-instrumented primitives only work inside a
//! `loom::model` run (`model_check.rs` is the model-build suite).
#![cfg(not(feature = "model"))]

mod common;

use common::run;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use les3_core::{
    Cosine, DeletionLog, Dice, FilterCandidates, InterruptReason, Jaccard, Les3Index,
    OverlapCoefficient, Partitioning, PreparedQuery, Query, QueryCtl, QueryScratch, ServeConfig,
    ServeFront, ShardPolicy, ShardedLes3Index, ShardedScratch, Similarity, ThresholdedEval,
};
use les3_data::{SetDatabase, TokenId};
use proptest::prelude::*;

/// Worker counts the sweeps pin: an even split, an odd one that leaves
/// a remainder against every group count, and the sequential baseline
/// is always computed with 1.
const WORKER_COUNTS: [usize; 3] = [2, 4, 7];

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

/// A deterministic stream for the fixed-size fixtures.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Asserts that every pinned worker count reproduces the sequential
/// result exactly, on both the flat and the sharded index.
fn check_parallel_configs<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    sim: S,
    query: &[TokenId],
    k: usize,
    delta: f64,
) {
    let flat = Les3Index::build(db.clone(), part.clone(), sim);
    let seq_knn = run(
        &flat,
        Query {
            workers: 1,
            ..Query::knn(query, k)
        },
    );
    let seq_range = run(
        &flat,
        Query {
            workers: 1,
            ..Query::range(query, delta)
        },
    );
    let sharded = ShardedLes3Index::build(db.clone(), part.clone(), sim, 3, ShardPolicy::Hash);
    let mut scratch = ShardedScratch::new();
    for workers in WORKER_COUNTS {
        let got = run(
            &flat,
            Query {
                workers,
                ..Query::knn(query, k)
            },
        );
        assert_eq!(
            got.hits,
            seq_knn.hits,
            "knn hits {} w={workers}",
            sim.name()
        );
        assert_eq!(
            got.stats,
            seq_knn.stats,
            "knn stats {} w={workers}",
            sim.name()
        );
        let got = run(
            &flat,
            Query {
                workers,
                ..Query::range(query, delta)
            },
        );
        assert_eq!(
            got.hits,
            seq_range.hits,
            "range hits {} w={workers}",
            sim.name()
        );
        assert_eq!(
            got.stats,
            seq_range.stats,
            "range stats {} w={workers}",
            sim.name()
        );
        let got = sharded
            .knn_ctl_on(workers, query, k, &mut scratch, &QueryCtl::NONE)
            .unwrap();
        assert_eq!(
            got.hits,
            seq_knn.hits,
            "sharded knn hits {} w={workers}",
            sim.name()
        );
        assert_eq!(
            got.stats,
            seq_knn.stats,
            "sharded knn stats {} w={workers}",
            sim.name()
        );
        let got = sharded
            .range_ctl_on(workers, query, delta, &mut scratch, &QueryCtl::NONE)
            .unwrap();
        assert_eq!(
            got.hits,
            seq_range.hits,
            "sharded range hits {} w={workers}",
            sim.name()
        );
        assert_eq!(
            got.stats,
            seq_range.stats,
            "sharded range stats {} w={workers}",
            sim.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_queries_equal_sequential_for_all_measures(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..15),
        k in 1usize..12,
        delta in 0.0f64..1.05,
        n_groups in 1usize..11,
        seed in 0u64..500,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        check_parallel_configs(&db, &part, Jaccard, &query, k, delta);
        check_parallel_configs(&db, &part, Dice, &query, k, delta);
        check_parallel_configs(&db, &part, Cosine, &query, k, delta);
        check_parallel_configs(&db, &part, OverlapCoefficient, &query, k, delta);
    }

    #[test]
    fn parallel_stays_equal_under_interleaved_inserts_and_deletes(
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
        let mut log = DeletionLog::build(&flat);
        let mut deletes = delete_picks.iter();
        // Mutate, then re-check the parallel/sequential contract after
        // every insert+delete pair: the fan-out must walk the updated
        // verification order, not a stale snapshot of it.
        for s in &inserts {
            let mut tokens: Vec<u32> = s.iter().copied().collect();
            let (id, _) = flat.insert(&mut tokens);
            log.note_insert(&flat, id);
            if let Some(&pick) = deletes.next() {
                let victim = pick % flat.db().len() as u32;
                log.delete(&mut flat, victim);
            }
            let q = flat.db().set((flat.db().len() - 1) as u32).to_vec();
            let seq_knn = run(&flat, Query { workers: 1, ..Query::knn(&q, k) });
            let seq_range = run(&flat, Query { workers: 1, ..Query::range(&q, delta) });
            for workers in WORKER_COUNTS {
                let got = run(&flat, Query { workers, ..Query::knn(&q, k) });
                prop_assert_eq!(&got.hits, &seq_knn.hits, "post-update knn w={}", workers);
                prop_assert_eq!(got.stats, seq_knn.stats, "post-update knn stats w={}", workers);
                let mut a = got.hits;
                let mut b = seq_knn.hits.clone();
                log.filter_hits(&mut a);
                log.filter_hits(&mut b);
                prop_assert_eq!(a, b, "post-update filtered knn w={}", workers);
                let got = run(&flat, Query { workers, ..Query::range(&q, delta) });
                prop_assert_eq!(&got.hits, &seq_range.hits, "post-update range w={}", workers);
                prop_assert_eq!(got.stats, seq_range.stats,
                    "post-update range stats w={}", workers);
            }
        }
    }
}

/// A database of single-token singleton sets, one group per set: every
/// group holds exactly one candidate, so the engine performs at most
/// one similarity evaluation per group and the eval counter below maps
/// one-to-one onto group boundaries.
fn singleton_fixture(n: usize) -> (SetDatabase, Partitioning) {
    let db = SetDatabase::from_sets((0..n as u32).map(|i| vec![i]));
    let part = Partitioning::from_assignment((0..n as u32).collect(), n);
    (db, part)
}

/// Mid-flight cancellation must reach *all* range verification workers
/// (δ = 0 admits every group): after the flag trips during the
/// `TRIP_AT`-th evaluation, each of the `workers` concurrent evaluators
/// may finish at most the one evaluation it has already begun (or just
/// claimed) before its next group-boundary poll observes the shared
/// abort — so the total evaluation count is bounded by
/// `TRIP_AT + workers`, far below the `G` evaluations a full run
/// performs.
#[test]
fn cancellation_stops_all_range_workers_mid_flight() {
    static EVALS: AtomicUsize = AtomicUsize::new(0);
    static CANCEL: AtomicBool = AtomicBool::new(false);
    const TRIP_AT: usize = 24;
    const G: usize = 64;

    #[derive(Clone, Copy)]
    struct TrippingSim;
    impl Similarity for TrippingSim {
        fn name(&self) -> &'static str {
            "tripping-jaccard"
        }
        fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
            Jaccard.from_overlap(overlap, a_len, b_len)
        }
        fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
            Jaccard.ub_from_overlap(q_len, r)
        }
        fn eval_with_threshold(&self, a: &[TokenId], b: &[TokenId], t: f64) -> ThresholdedEval {
            if EVALS.fetch_add(1, Ordering::SeqCst) + 1 == TRIP_AT {
                CANCEL.store(true, Ordering::SeqCst);
            }
            Jaccard.eval_with_threshold(a, b, t)
        }
    }

    let (db, part) = singleton_fixture(G);
    let index = Les3Index::build(db, part, TrippingSim);
    for workers in WORKER_COUNTS {
        EVALS.store(0, Ordering::SeqCst);
        CANCEL.store(false, Ordering::SeqCst);
        let ctl = QueryCtl::new(None, Some(&CANCEL));
        let err = index
            .range_ctl_on(workers, &[0], 0.0, &mut QueryScratch::new(), &ctl)
            .expect_err("tripped flag must interrupt the query");
        assert_eq!(err.reason, InterruptReason::Cancelled, "w={workers}");
        let evals = EVALS.load(Ordering::SeqCst);
        assert!(
            evals >= TRIP_AT,
            "flag trips at eval {TRIP_AT}, saw {evals}"
        );
        assert!(
            evals <= TRIP_AT + workers,
            "w={workers}: {evals} evaluations after cancelling at {TRIP_AT} — \
             some worker ran past its group boundary"
        );
    }
}

/// Deterministic spot check on an index large enough for a wide range
/// to engage the automatic worker heuristic (≥ 512 surviving groups;
/// below that it stays sequential).
#[test]
fn parallel_matches_sequential_on_larger_index() {
    let mut next = xorshift(0x2545_f491_4f6c_dd1d);
    let sets: Vec<Vec<u32>> = (0..1600)
        .map(|_| {
            let len = 3 + (next() % 20) as usize;
            let mut s: Vec<u32> = (0..len).map(|_| (next() % 300) as u32).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let db = SetDatabase::from_sets(sets);
    let part = pseudo_partitioning(db.len(), 640, 7);
    let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let sharded = ShardedLes3Index::build(db, part, Jaccard, 4, ShardPolicy::Contiguous);
    let mut scratch = ShardedScratch::new();
    for q in [
        vec![1u32, 5, 9, 42, 77, 120],
        vec![0u32],
        vec![200u32, 201, 202, 203],
    ] {
        let seq_knn = run(
            &flat,
            Query {
                workers: 1,
                ..Query::knn(&q, 10)
            },
        );
        let seq_range = run(
            &flat,
            Query {
                workers: 1,
                ..Query::range(&q, 0.3)
            },
        );
        // The plain entry points leave the worker count to the engine
        // (`workers: 0`): still bit-for-bit sequential.
        assert_eq!(flat.knn(&q, 10), seq_knn);
        assert_eq!(flat.range(&q, 0.3), seq_range);
        for workers in [2usize, 4, 8] {
            let got = run(
                &flat,
                Query {
                    workers,
                    ..Query::knn(&q, 10)
                },
            );
            assert_eq!(got.hits, seq_knn.hits, "knn w={workers}");
            assert_eq!(got.stats, seq_knn.stats, "knn stats w={workers}");
            let got = run(
                &flat,
                Query {
                    workers,
                    ..Query::range(&q, 0.3)
                },
            );
            assert_eq!(got.hits, seq_range.hits, "range w={workers}");
            assert_eq!(got.stats, seq_range.stats, "range stats w={workers}");
            let got = sharded
                .knn_ctl_on(workers, &q, 10, &mut scratch, &QueryCtl::NONE)
                .unwrap();
            assert_eq!(got.hits, seq_knn.hits, "sharded knn w={workers}");
            assert_eq!(got.stats, seq_knn.stats, "sharded knn stats w={workers}");
        }
    }
}

/// Default calls must not spawn threads for work that cannot pay for
/// them. A `Similarity` wrapper records the thread of every candidate
/// evaluation on a 1 024-group index: a kNN at any `workers` (flat and
/// sharded) and a selective range at `workers: 0` evaluate everything on
/// the calling thread, and a lone request served by a 4-worker front
/// evaluates on exactly one pool thread. The wrapper also counts the kNN
/// hook's calls: one per `sims_computed`, masked or not.
#[test]
fn knn_and_selective_ranges_evaluate_on_one_thread() {
    static SEEN: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

    fn note_thread() {
        let me = std::thread::current().id();
        let mut seen = SEEN.lock().unwrap();
        if seen.last() != Some(&me) {
            seen.push(me);
        }
    }

    /// The distinct threads that evaluated a candidate while `f` ran.
    fn evaluators(f: impl FnOnce()) -> HashSet<ThreadId> {
        SEEN.lock().unwrap().clear();
        f();
        SEEN.lock().unwrap().drain(..).collect()
    }

    #[derive(Clone, Copy)]
    struct WhereSim;
    impl Similarity for WhereSim {
        fn name(&self) -> &'static str {
            "where-jaccard"
        }
        fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
            Jaccard.from_overlap(overlap, a_len, b_len)
        }
        fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
            Jaccard.ub_from_overlap(q_len, r)
        }
        // The kNN window scan's per-candidate hook.
        fn eval_prepared(
            &self,
            q: &PreparedQuery<'_>,
            b: &[TokenId],
            b_len: usize,
            needed: usize,
            t: f64,
        ) -> ThresholdedEval {
            note_thread();
            HOOK_CALLS.fetch_add(1, Ordering::Relaxed);
            Jaccard.eval_prepared(q, b, b_len, needed, t)
        }
        // The range window scan's. A selective range is over in
        // microseconds; hold each evaluation long enough that a spawned
        // worker, if there were one, would get to claim a group.
        fn eval_with_threshold(&self, a: &[TokenId], b: &[TokenId], t: f64) -> ThresholdedEval {
            note_thread();
            std::thread::sleep(std::time::Duration::from_micros(100));
            Jaccard.eval_with_threshold(a, b, t)
        }
    }

    // 1 024 distinct sets, four copies of each, hashed over 1 024 groups:
    // a member query overlaps hundreds of groups (plenty for a kNN to
    // verify) but at δ = 0.8 only the groups holding one of its copies
    // survive.
    const GROUPS: usize = 1024;
    let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
    let base: Vec<Vec<u32>> = (0..GROUPS)
        .map(|_| {
            let len = 8 + (next() % 12) as usize;
            let mut s: Vec<u32> = (0..len).map(|_| (next() % 600) as u32).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let db = SetDatabase::from_sets((0..4 * GROUPS).map(|i| base[i % GROUPS].clone()));
    let part = pseudo_partitioning(db.len(), GROUPS, 11);
    let flat = Les3Index::build(db.clone(), part.clone(), WhereSim);
    let sharded = ShardedLes3Index::build(db, part, WhereSim, 4, ShardPolicy::Hash);
    let me = HashSet::from([std::thread::current().id()]);
    let q = base[17].clone();

    // (a) A kNN descends on the calling thread whatever `workers` says.
    for workers in [0usize, 2, 7] {
        let knn = Query {
            workers,
            ..Query::knn(&q, 10)
        };
        assert_eq!(evaluators(|| drop(run(&flat, knn))), me, "flat w={workers}");
        assert_eq!(
            evaluators(|| drop(run(&sharded, knn))),
            me,
            "sharded w={workers}"
        );
    }

    // Every candidate a kNN verifies passes through the one hook, so no
    // kernel can bypass the trait: plain or masked, the hook's calls are
    // the kNN's `sims_computed`.
    let every_other = FilterCandidates::from_words(
        &[0x5555_5555_5555_5555; 4 * GROUPS / 64],
        flat.partitioning(),
    );
    for mask in [None, Some(&every_other)] {
        HOOK_CALLS.store(0, Ordering::Relaxed);
        let stats = run(
            &flat,
            Query {
                mask,
                ..Query::knn(&q, 10)
            },
        )
        .stats;
        assert!(stats.sims_computed > 0, "fixture: the kNN verifies");
        assert_eq!(
            HOOK_CALLS.load(Ordering::Relaxed),
            stats.sims_computed,
            "masked: {}",
            mask.is_some()
        );
    }

    // (b) A selective range left to the auto policy stays on it too: the
    // policy counts the surviving groups, not the index's 1 024.
    let selective = run(&flat, Query::range(&q, 0.8)).stats;
    assert!(
        (2..=16).contains(&selective.groups_verified),
        "fixture: a handful of surviving groups, got {selective:?}"
    );
    assert_eq!(evaluators(|| drop(run(&flat, Query::range(&q, 0.8)))), me);
    assert_eq!(
        evaluators(|| drop(run(&sharded, Query::range(&q, 0.8)))),
        me
    );

    // (c) A lone served request is one pool job on one pool thread, even
    // with three more workers idle.
    let front = ServeFront::new(
        flat,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    for served in [
        evaluators(|| drop(front.knn(&q, 10).unwrap())),
        evaluators(|| drop(front.range(&q, 0.8).unwrap())),
    ] {
        assert_eq!(served.len(), 1, "one request, one thread: {served:?}");
        assert!(served.is_disjoint(&me), "served on a pool thread");
    }
}
