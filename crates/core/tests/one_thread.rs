//! One query, one thread: every search descends on the calling thread.
//!
//! A thread-recording `Similarity` shows where the work runs: a kNN, a
//! selective range and a wide range evaluate every candidate on the
//! calling thread, a blocking served request on the thread that waits
//! for it and a submitted one on exactly one pool thread. The
//! same wrapper pins that every candidate a kNN verifies passes through
//! the one kNN hook. A flag tripped mid-verification stops a range and a
//! kNN at the next group boundary, and a range whose deadline passes
//! mid-descent commits the groups best-first verified up to it.
//!
//! Compiled out under the `model` feature: these are real-thread tests,
//! and loom-instrumented primitives only work inside a `loom::model` run
//! (`model_check.rs` is the model-build suite).
#![cfg(not(feature = "model"))]

mod common;

use common::run;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use les3_core::{
    ApproxInfo, ApproxPolicy, FilterCandidates, InterruptReason, Jaccard, Les3Index, Partitioning,
    PreparedQuery, Query, QueryCtl, QueryScratch, Request, SearchResult, SearchStats, ServeConfig,
    ServeFront, ShardPolicy, ShardedLes3Index, Similarity, ThresholdedEval,
};
use les3_data::{SetDatabase, TokenId};

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

/// A database of single-token singleton sets, one group per set: every
/// group holds exactly one candidate, so the engine performs at most
/// one similarity evaluation per group and the eval counter below maps
/// one-to-one onto group boundaries.
fn singleton_fixture(n: usize) -> (SetDatabase, Partitioning) {
    let db = SetDatabase::from_sets((0..n as u32).map(|i| vec![i]));
    let part = Partitioning::from_assignment((0..n as u32).collect(), n);
    (db, part)
}

/// Mid-flight cancellation: the flag trips during the `TRIP_AT`-th
/// evaluation, and the query stops at its next group-boundary poll. A
/// range at δ = 0 and a kNN at k = `G` would each verify all `G` groups;
/// interrupted, each ends `Cancelled` having evaluated at most the
/// candidate that tripped the flag and one more.
#[test]
fn cancellation_stops_a_range_and_a_knn_at_the_next_group_boundary() {
    static EVALS: AtomicUsize = AtomicUsize::new(0);
    static CANCEL: AtomicBool = AtomicBool::new(false);
    const TRIP_AT: usize = 24;
    const G: usize = 64;

    fn count_eval() {
        if EVALS.fetch_add(1, Ordering::SeqCst) + 1 == TRIP_AT {
            CANCEL.store(true, Ordering::SeqCst);
        }
    }

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
        fn eval_prepared(
            &self,
            q: &PreparedQuery<'_>,
            b: &[TokenId],
            b_len: usize,
            needed: usize,
            t: f64,
        ) -> ThresholdedEval {
            count_eval();
            Jaccard.eval_prepared(q, b, b_len, needed, t)
        }
        fn eval_with_threshold(&self, a: &[TokenId], b: &[TokenId], t: f64) -> ThresholdedEval {
            count_eval();
            Jaccard.eval_with_threshold(a, b, t)
        }
    }

    let (db, part) = singleton_fixture(G);
    let index = Les3Index::build(db, part, TrippingSim);
    for kind in [Query::range(&[0], 0.0), Query::knn(&[0], G)] {
        EVALS.store(0, Ordering::SeqCst);
        CANCEL.store(false, Ordering::SeqCst);
        let q = Query {
            ctl: QueryCtl::new(None, Some(&CANCEL)),
            ..kind
        };
        let err = index
            .search(&q, &mut QueryScratch::new())
            .expect_err("tripped flag must interrupt the query");
        assert_eq!(err.reason, InterruptReason::Cancelled, "{:?}", q.kind);
        let evals = EVALS.load(Ordering::SeqCst);
        assert!(
            (TRIP_AT..=TRIP_AT + 1).contains(&evals),
            "{:?}: {evals} evaluations after cancelling at {TRIP_AT} — \
             the query ran past its group boundary",
            q.kind
        );
    }
}

/// A range whose deadline passes mid-descent under [`ApproxPolicy::Anytime`]
/// commits what it has verified so far, so *which* groups it verified
/// first is part of the answer: best-first over the whole group axis.
/// Deterministic: the `STALL_AT`-th evaluation outlasts the deadline, and
/// the next group-boundary poll stops the descent. 64 singleton groups,
/// δ = 0 (every group survives); the only exact match sits in group 40,
/// the first group of the bound order.
#[test]
fn a_deadline_committed_range_verifies_best_first() {
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
    fn stalled_range(index: &Les3Index<StallingSim>) -> (SearchResult, ApproxInfo) {
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

    let (db, part) = singleton_fixture(G);
    let index = Les3Index::build(db, part, StallingSim);
    let got = stalled_range(&index);
    assert_eq!(got.0.hits[0], (40, 1.0), "best-first: the exact match");
    assert_eq!(got.0.stats.groups_verified, STALL_AT);
    assert!(got.1.approx);
    assert_eq!(got.1.recall_est, STALL_AT as f64 / G as f64);
}

/// No call spawns a thread for a query. A `Similarity` wrapper records
/// the thread of every candidate evaluation on a 1 024-group index: a
/// kNN (flat and sharded), a selective range and a wide range evaluate
/// everything on the calling thread, and a lone request served by a
/// 4-worker front evaluates on exactly one pool thread. The wrapper
/// also counts the kNN hook's calls: one per `sims_computed`, masked or
/// not.
#[test]
fn knn_and_ranges_evaluate_on_one_thread() {
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
    let sharded = ShardedLes3Index::build(db, part, WhereSim, 4, ShardPolicy::Contiguous);
    let me = HashSet::from([std::thread::current().id()]);
    let q = base[17].clone();

    // (a) A kNN descends on the calling thread.
    let knn = Query::knn(&q, 10);
    assert_eq!(evaluators(|| drop(run(&flat, knn))), me, "flat");
    assert_eq!(evaluators(|| drop(run(&sharded, knn))), me, "sharded");

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

    // (b) A selective range: a handful of surviving groups.
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

    // (c) A wide range through the plain entry point: every group that
    // shares a token with the query survives, over half of the 1 024.
    let mut wide = SearchStats::default();
    let wide_evaluators =
        evaluators(|| wide = flat.range_with(&q, 0.05, &mut QueryScratch::new()).stats);
    assert!(
        wide.groups_verified >= GROUPS / 2,
        "fixture: at least 512 surviving groups, got {wide:?}"
    );
    assert_eq!(wide_evaluators, me);

    // (d) A lone blocking request runs on the thread that waits for it
    // (the workers are idle, so there is nothing to hand off to); a
    // submitted one runs on exactly one pool thread, even with three
    // more workers idle.
    let front = ServeFront::new(
        flat,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    assert_eq!(evaluators(|| drop(front.knn(&q, 10).unwrap())), me);
    assert_eq!(evaluators(|| drop(front.range(&q, 0.8).unwrap())), me);
    for served in [
        evaluators(|| drop(front.submit(Request::knn(q.clone(), 10)).wait().unwrap())),
        evaluators(|| drop(front.submit(Request::range(q.clone(), 0.8)).wait().unwrap())),
    ] {
        assert_eq!(served.len(), 1, "one request, one thread: {served:?}");
        assert!(served.is_disjoint(&me), "submitted to a pool thread");
    }
}
