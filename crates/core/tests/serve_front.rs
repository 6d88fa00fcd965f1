//! Serving-front contract tests.
//!
//! * **Equivalence** (the acceptance bar): results served through
//!   [`ServeFront`] — hits *and* [`SearchStats`] — are bit-for-bit
//!   identical to direct `knn_with` / `range_with` calls, for both
//!   index types, under ≥ 4 racing producer threads
//!   and across worker counts (proptest).
//! * **Admission control**: a bounded queue never exceeds its capacity
//!   in accepted-but-unfinished requests and sheds the overflow with
//!   [`ServeError::Overloaded`]; an already-expired request never
//!   reaches verification (asserted through its partial
//!   [`SearchStats`]); cancellation skips queued work; and under a
//!   capacity-1 queue with slow queries every submitted request
//!   resolves to exactly one of {identical hits, `Overloaded`,
//!   `DeadlineExceeded`, `Cancelled`} — no hangs, no lost tickets,
//!   drop-drain still clean (proptest). A namespace-routed request that
//!   dies while queued is counted in its namespace, never in the default
//!   route.
//! * **Panic isolation**: a poisoned query fails only its own request
//!   with [`ServeError::QueryPanicked`]; concurrent and subsequent
//!   requests keep succeeding on the same pool.
//! * **One request, one job**: two concurrent requests run on two
//!   workers at the same time.
//! * **Blocking calls run where they wait**: a blocking call runs on its
//!   own thread while a worker's scratch is free and queues behind the
//!   scratches otherwise — never more than `workers` requests execute at
//!   once — while `submit` always queues. Panics, answers and the stats
//!   identity are the same on either path.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use les3_core::serve::{
    OnFull, Request, Route, ServeConfig, ServeError, ServeFront, SubmitOpts, Ticket,
};
use les3_core::sim::Jaccard;
use les3_core::{ApproxInfo, ApproxPolicy};
use les3_core::{
    Filters, Les3Index, NamespaceSpec, Partitioning, PersistentBackend, QueryCtl, QueryScratch,
    SearchResult, SearchStats, ShardPolicy, ShardedLes3Index, Similarity,
};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::TokenId;
use proptest::prelude::*;

const PRODUCERS: usize = 4;

/// What each producer thread issues for query `i`: a deterministic mix
/// of kNN and range requests so both paths race through one front.
fn expected_for<B: PersistentBackend>(
    backend: &B,
    scratch: &mut QueryScratch,
    i: usize,
    q: &[TokenId],
) -> SearchResult {
    if i.is_multiple_of(3) {
        backend
            .sharded()
            .range_with(q, 0.25 + (i % 5) as f64 * 0.15, scratch)
    } else {
        backend.sharded().knn_with(q, 1 + i % 9, scratch)
    }
}

/// Races `PRODUCERS` threads against the front (blocking calls AND
/// ticket pipelines) and checks every response against the direct call.
fn check_front<B: PersistentBackend>(
    backend: Arc<B>,
    config: ServeConfig,
    queries: &[Vec<TokenId>],
) -> Result<(), TestCaseError> {
    let front = ServeFront::from_arc(Arc::clone(&backend), config);
    let served: Vec<Vec<(usize, SearchResult)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let front = &front;
                s.spawn(move || {
                    let mut out = Vec::new();
                    // First half: blocking calls (one in flight per
                    // producer).
                    for (i, q) in queries.iter().enumerate() {
                        if i % PRODUCERS != p || i % 2 == 0 {
                            continue;
                        }
                        let res = if i % 3 == 0 {
                            front.range(q, 0.25 + (i % 5) as f64 * 0.15)
                        } else {
                            front.knn(q, 1 + i % 9)
                        };
                        out.push((i, res.expect("served query failed")));
                    }
                    // Second half: pipelined tickets (many in flight,
                    // queued behind the workers).
                    let tickets: Vec<(usize, Ticket)> = queries
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % PRODUCERS == p && i % 2 == 0)
                        .map(|(i, q)| {
                            let t = if i % 3 == 0 {
                                front
                                    .submit(Request::range(q.clone(), 0.25 + (i % 5) as f64 * 0.15))
                            } else {
                                front.submit(Request::knn(q.clone(), 1 + i % 9))
                            };
                            (i, t)
                        })
                        .collect();
                    for (i, t) in tickets {
                        out.push((i, t.wait().expect("served query failed")));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread panicked"))
            .collect()
    });
    let mut scratch = QueryScratch::default();
    for per_producer in served {
        for (i, got) in per_producer {
            let want = expected_for(&*backend, &mut scratch, i, &queries[i]);
            prop_assert_eq!(&got.hits, &want.hits, "query {} hits", i);
            prop_assert_eq!(&got.stats, &want.stats, "query {} stats", i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance proptest: N racing producers, both index types,
    /// randomized worker counts — served results must equal
    /// direct calls bit for bit.
    #[test]
    fn served_results_equal_direct_calls(
        seed in 0u64..10_000,
        n_groups in 3usize..20,
        workers in 1usize..5,
    ) {
        let db = ZipfianGenerator::new(300, 180, 6.0, 1.1).generate(seed);
        let queries: Vec<Vec<TokenId>> = (0..40u32)
            .map(|i| db.set((i * 13 + seed as u32) % 300).to_vec())
            .collect();
        let part = Partitioning::round_robin(db.len(), n_groups);
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let flat = Arc::new(Les3Index::build(db.clone(), part.clone(), Jaccard));
        check_front(flat, config, &queries)?;
        let sharded = Arc::new(ShardedLes3Index::build(
            db, part, Jaccard, 4, ShardPolicy::Contiguous,
        ));
        check_front(sharded, config, &queries)?;
    }
}

/// A similarity measure with a poison pill: any query with exactly
/// `POISON_LEN` distinct tokens panics inside the filter pass — the
/// stand-in for "a defective measure or corrupted input blows up inside
/// a worker".
#[derive(Debug, Clone, Copy, Default)]
struct PanicAtLen(Jaccard);

const POISON_LEN: usize = 13;

impl Similarity for PanicAtLen {
    fn name(&self) -> &'static str {
        "panic-at-len"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        assert!(q_len != POISON_LEN, "poison query reached the filter");
        self.0.ub_from_overlap(q_len, r)
    }
}

#[test]
fn panicking_query_fails_alone_and_pool_keeps_serving() {
    let db = ZipfianGenerator::new(150, 120, 5.0, 1.1).generate(3);
    let index = Les3Index::build(db, Partitioning::round_robin(150, 6), PanicAtLen::default());
    let front = ServeFront::new(
        index,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let good: Vec<TokenId> = (0..5u32).collect();
    let poison: Vec<TokenId> = (100..100 + POISON_LEN as u32).collect();
    let expected = front.backend().knn(&good, 5);

    // Interleave more poison queries than there are workers: every one
    // must fail alone, and every good query must still succeed — before,
    // between and after the panics.
    let mut tickets = Vec::new();
    for round in 0..4 {
        tickets.push(("good", front.submit(Request::knn(good.clone(), 5))));
        tickets.push(("poison", front.submit(Request::knn(poison.clone(), 5))));
        if round % 2 == 0 {
            tickets.push(("good", front.submit(Request::range(good.clone(), 0.3))));
        }
    }
    let range_expected = front.backend().range(&good, 0.3);
    for (kind, ticket) in tickets {
        match (kind, ticket.wait()) {
            ("poison", Err(ServeError::QueryPanicked(msg))) => {
                assert!(msg.contains("poison query"), "got: {msg}");
            }
            ("poison", other) => panic!("poison query returned {other:?}"),
            ("good", Ok(res)) => {
                assert!(
                    res == expected || res == range_expected,
                    "good query diverged"
                );
            }
            ("good", Err(e)) => panic!("good query failed: {e}"),
            _ => unreachable!(),
        }
    }
    // The pool is still alive and exact after all those panics.
    assert_eq!(front.knn(&good, 5).unwrap(), expected);
}

/// A similarity measure under which two particular queries must overlap
/// in time: a query of `MEET_LENS[i]` distinct tokens announces itself in
/// the filter pass and waits there until the other one has too. The wait
/// gives up after 10 s — for both, and for good — so a front that runs
/// them back to back fails the test instead of hanging it.
#[derive(Debug, Clone, Copy, Default)]
struct RendezvousSim(Jaccard);

const MEET_LENS: [usize; 2] = [3, 5];
static INSIDE: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];
static NEVER_MET: AtomicBool = AtomicBool::new(false);

impl Similarity for RendezvousSim {
    fn name(&self) -> &'static str {
        "rendezvous"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        if let Some(me) = MEET_LENS.iter().position(|&len| len == q_len) {
            INSIDE[me].store(true, Ordering::Release);
            let start = Instant::now();
            while !INSIDE[1 - me].load(Ordering::Acquire) && !NEVER_MET.load(Ordering::Acquire) {
                if start.elapsed() >= Duration::from_secs(10) {
                    NEVER_MET.store(true, Ordering::Release);
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        self.0.ub_from_overlap(q_len, r)
    }
}

/// One request is one pool job: two requests submitted to a two-worker
/// front execute at the same time, each on its own worker. (A front that
/// gathers them into one batch for one worker runs them back to back,
/// and they never meet.)
#[test]
fn concurrent_requests_run_on_different_workers() {
    let db = ZipfianGenerator::new(120, 90, 5.0, 1.1).generate(5);
    let index = Les3Index::build(
        db,
        Partitioning::round_robin(120, 6),
        RendezvousSim::default(),
    );
    let front = ServeFront::new(
        index,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let a = front.submit(Request::knn((0..MEET_LENS[0] as u32).collect(), 4));
    let b = front.submit(Request::knn((10..10 + MEET_LENS[1] as u32).collect(), 4));
    assert!(a.wait().is_ok());
    assert!(b.wait().is_ok());
    assert!(
        !NEVER_MET.load(Ordering::Acquire),
        "the two requests never ran at the same time"
    );
}

/// A similarity measure whose filter pass blocks on an external gate:
/// the deterministic stand-in for "a query occupying the worker while
/// the world moves on". `GATES[ID]` starts closed; a test opens it when
/// it has arranged the state it wants to observe. The block self-releases
/// after 10 s so a failing test fails instead of hanging.
#[derive(Debug, Clone, Copy, Default)]
struct GatedSim<const ID: usize>(Jaccard);

static GATES: [AtomicBool; 7] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

impl<const ID: usize> Similarity for GatedSim<ID> {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        let start = Instant::now();
        while !GATES[ID].load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.0.ub_from_overlap(q_len, r)
    }
}

fn gated_front<const ID: usize>(queue_capacity: usize) -> ServeFront<Les3Index<GatedSim<ID>>> {
    let db = ZipfianGenerator::new(120, 90, 5.0, 1.1).generate(5);
    let index = Les3Index::build(
        db,
        Partitioning::round_robin(120, 6),
        GatedSim::<ID>::default(),
    );
    ServeFront::new(
        index,
        ServeConfig {
            workers: 1,
            queue_capacity,
        },
    )
}

/// The bounded queue: with capacity 2 and the worker pinned on a gated
/// query, a third submission is shed with `Overloaded` and the
/// accepted-but-unfinished count never exceeds 2.
#[test]
fn bounded_queue_sheds_overflow_and_respects_capacity() {
    let front = gated_front::<0>(2);
    let q = front.backend().db().set(3).to_vec();
    let t1 = front.submit(Request::knn(q.clone(), 4)); // occupies the worker (gated)
    let t2 = front.submit(Request::knn(q.clone(), 4)); // fills the queue
    assert_eq!(front.in_flight(), 2, "both accepted requests count");
    let t3 = front.submit(Request::knn(q.clone(), 4)); // over capacity: shed
    assert_eq!(t3.wait(), Err(ServeError::Overloaded));
    assert_eq!(front.in_flight(), 2, "shed requests never occupy capacity");
    assert_eq!(front.stats().shed, 1);
    GATES[0].store(true, Ordering::Release);
    let expected = front.backend().knn(&q, 4); // gate open: direct call runs
    assert_eq!(t1.wait().unwrap(), expected);
    assert_eq!(t2.wait().unwrap(), expected);
    // Completion releases capacity (release precedes the waiter's
    // wake-up by a hair, so poll briefly).
    let start = Instant::now();
    while front.in_flight() > 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_micros(50));
    }
    assert_eq!(front.in_flight(), 0);
    // A post-overload submission is served normally again.
    assert_eq!(front.knn(&q, 4).unwrap(), expected);
}

/// The phase-boundary deadline check: a query whose deadline expires
/// while the filter pass runs stops *before* verification — its partial
/// stats show filter work but zero groups verified, zero candidates.
#[test]
fn expired_mid_flight_never_reaches_verification() {
    let front = gated_front::<1>(usize::MAX);
    let q = front.backend().db().set(7).to_vec();
    let ticket = front.submit_knn_opts(
        q,
        4,
        SubmitOpts {
            deadline: Some(Instant::now() + Duration::from_secs(1)),
            ..Default::default()
        },
    );
    // The worker starts the query (deadline still a second away — wide
    // margin even on a preempted CI box), blocks in the gated filter
    // pass; the deadline passes; the gate opens; the worker finishes
    // phase A and must stop at the phase boundary.
    std::thread::sleep(Duration::from_secs(2));
    GATES[1].store(true, Ordering::Release);
    match ticket.wait() {
        Err(ServeError::DeadlineExceeded(stats)) => {
            assert!(stats.columns_checked > 0, "the filter pass did run");
            assert_eq!(stats.groups_verified, 0, "verification must not start");
            assert_eq!(stats.candidates, 0, "no set may be verified");
        }
        other => panic!("expected a mid-flight deadline stop, got {other:?}"),
    }
    assert_eq!(front.stats().expired, 1);
    assert_eq!(front.stats().groups_verified, 0);
}

/// Cancellation: a cancelled ticket's queued request is skipped without
/// consuming any query CPU, and a dropped ticket counts as cancelled
/// too.
#[test]
fn cancelled_and_dropped_tickets_skip_queued_work() {
    let front = gated_front::<2>(usize::MAX);
    let q = front.backend().db().set(11).to_vec();
    let blocker = front.submit(Request::knn(q.clone(), 4)); // pins the only worker
    let victim = front.submit(Request::knn(q.clone(), 4)); // queued behind it
    victim.cancel();
    drop(front.submit(Request::knn(q.clone(), 4))); // abandoned ticket == cancel
    GATES[2].store(true, Ordering::Release);
    assert!(blocker.wait().is_ok());
    match victim.wait() {
        Err(ServeError::Cancelled(stats)) => {
            assert_eq!(stats, SearchStats::default(), "skipped work costs nothing");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The dropped ticket resolves inside the front; its cancellation
    // lands in the aggregate once a worker reaches it.
    let start = Instant::now();
    while front.stats().cancelled < 2 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_micros(100));
    }
    assert_eq!(front.stats().cancelled, 2);
}

/// Holds `front`'s only worker on a gated default-route query, lets
/// `kill` doom a namespace-routed request queued behind it, opens the
/// gate and returns how that request resolved — with the worker as the
/// one place a queued request can die, it must be counted in its
/// namespace's aggregate (what `GET /ns/{name}/stats` reports), not in
/// the default route's, and the global identity must hold.
fn namespace_request_dying_while_queued<const ID: usize>(
    ttl: Option<Duration>,
    kill: impl FnOnce(&Ticket),
) -> (ServeError, SearchStats) {
    let front = gated_front::<ID>(usize::MAX);
    let sets = (0..20u32).map(|i| vec![i, i + 1, 3]).collect();
    let namespace = front
        .namespaces()
        .create(
            "tenant",
            NamespaceSpec {
                sets,
                ..NamespaceSpec::default()
            },
        )
        .unwrap();
    let q = front.backend().db().set(3).to_vec();
    let blocker = front.submit(Request::knn(q, 4)); // pins the only worker
    let victim = front.submit(Request {
        route: Route::Namespace("tenant".into(), Filters::none()),
        opts: SubmitOpts {
            deadline: ttl.map(|ttl| Instant::now() + ttl),
            ..Default::default()
        },
        ..Request::knn(vec![1, 2, 3], 4)
    });
    kill(&victim);
    GATES[ID].store(true, Ordering::Release);
    assert!(blocker.wait().is_ok());
    let err = victim.wait().expect_err("the queued request was doomed");
    let default_route = front.default_route_stats();
    assert_eq!((default_route.cancelled, default_route.expired), (0, 0));
    let mut sum = default_route;
    sum.accumulate(&front.namespaces().total_stats());
    assert_eq!(front.stats(), sum, "stats identity");
    (err, namespace.stats())
}

#[test]
fn namespace_request_cancelled_while_queued_counts_in_its_namespace() {
    let (err, ns_stats) = namespace_request_dying_while_queued::<4>(None, Ticket::cancel);
    assert_eq!(err, ServeError::Cancelled(SearchStats::default()));
    assert_eq!((ns_stats.cancelled, ns_stats.expired), (1, 0));
}

#[test]
fn namespace_request_expired_while_queued_counts_in_its_namespace() {
    // Admitted with its deadline a second ahead (wide margin even on a
    // preempted CI box); it passes in the queue.
    let ttl = Duration::from_secs(1);
    let (err, ns_stats) = namespace_request_dying_while_queued::<5>(Some(ttl), |_| {
        std::thread::sleep(ttl + Duration::from_millis(500))
    });
    assert_eq!(err, ServeError::DeadlineExceeded(SearchStats::default()));
    assert_eq!((ns_stats.cancelled, ns_stats.expired), (0, 1));
}

/// Anytime admission: a request whose deadline has already passed is
/// **served** — a committed (possibly empty) partial answer with a
/// recall estimate in `[0, 1]` — where the exact path 504s. Committed
/// anytime answers count as served, never as expired.
#[test]
fn anytime_expired_deadline_commits_partial_instead_of_504() {
    let db = ZipfianGenerator::new(150, 100, 5.0, 1.1).generate(9);
    let index = Les3Index::build(db, Partitioning::round_robin(150, 6), Jaccard);
    let front = ServeFront::new(
        index,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let q = front.backend().db().set(5).to_vec();
    let expired = Instant::now()
        .checked_sub(Duration::from_millis(1))
        .unwrap_or_else(Instant::now);
    std::thread::sleep(Duration::from_millis(2)); // strictly past either way

    let t = front.submit(Request {
        approx: ApproxPolicy::Anytime,
        opts: SubmitOpts {
            deadline: Some(expired),
            ..Default::default()
        },
        ..Request::knn(q.clone(), 4)
    });
    let (result, info) = t.wait_full().expect("anytime must commit, not expire");
    assert!(
        (0.0..=1.0).contains(&info.recall_est),
        "recall_est {} outside [0, 1]",
        info.recall_est
    );
    // Whatever was committed is exact: every hit carries the direct
    // call's similarity for that id.
    let full = front.backend().knn(&q, front.backend().db().len());
    for &(id, sim) in &result.hits {
        let want = full
            .hits
            .iter()
            .find(|&&(fid, _)| fid == id)
            .expect("committed hit must be a real set");
        assert_eq!(sim.to_bits(), want.1.to_bits(), "hit {id} not exact");
    }
    let t = front.submit(Request {
        approx: ApproxPolicy::Anytime,
        opts: SubmitOpts {
            deadline: Some(expired),
            ..Default::default()
        },
        ..Request::range(q.clone(), 0.3)
    });
    assert!(
        t.wait_full().is_ok(),
        "anytime range must commit, not expire"
    );
    assert_eq!(
        front.stats().expired,
        0,
        "committed anytime answers are served, not expired"
    );

    // A generous deadline completes exactly: exact verdict, exact bits.
    let t = front.submit(Request {
        approx: ApproxPolicy::Anytime,
        opts: SubmitOpts {
            deadline: Some(Instant::now() + Duration::from_secs(60)),
            ..Default::default()
        },
        ..Request::knn(q.clone(), 4)
    });
    let (result, info) = t.wait_full().expect("in-time anytime completes");
    assert_eq!(info, ApproxInfo::EXACT);
    assert_eq!(result, front.backend().knn(&q, 4));

    // The exact path with the same expired deadline still 504s.
    let t = front.submit_knn_opts(
        q,
        4,
        SubmitOpts {
            deadline: Some(expired),
            ..Default::default()
        },
    );
    assert!(matches!(t.wait(), Err(ServeError::DeadlineExceeded(_))));
    assert_eq!(front.stats().expired, 1);
}

/// Cancellation outranks the anytime commitment: a cancelled in-flight
/// anytime request resolves to `Cancelled` — a cancelled caller wants
/// no answer at all, so nothing is committed for it.
#[test]
fn cancellation_mid_anytime_interrupts_instead_of_committing() {
    let front = gated_front::<3>(usize::MAX);
    let q = front.backend().db().set(9).to_vec();
    let t = front.submit(Request {
        approx: ApproxPolicy::Anytime,
        opts: SubmitOpts {
            deadline: Some(Instant::now() + Duration::from_secs(60)),
            ..Default::default()
        },
        ..Request::knn(q, 4)
    });
    // Let the worker pick the query up and block in the gated filter,
    // then cancel it mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    t.cancel();
    GATES[3].store(true, Ordering::Release);
    match t.wait() {
        Err(ServeError::Cancelled(_)) => {}
        other => panic!("cancelled anytime request must not commit: {other:?}"),
    }
}

/// A gated measure that also counts the filter-bound evaluations in
/// flight at once, and the most it ever saw.
#[derive(Debug, Clone, Copy, Default)]
struct CountingGate(Jaccard);

static COUNTING_GATE: AtomicBool = AtomicBool::new(false);
static EVALUATING: AtomicUsize = AtomicUsize::new(0);
static MOST_EVALUATING: AtomicUsize = AtomicUsize::new(0);

impl Similarity for CountingGate {
    fn name(&self) -> &'static str {
        "counting-gate"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        let now = EVALUATING.fetch_add(1, Ordering::SeqCst) + 1;
        MOST_EVALUATING.fetch_max(now, Ordering::SeqCst);
        let start = Instant::now();
        while !COUNTING_GATE.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(50));
        }
        EVALUATING.fetch_sub(1, Ordering::SeqCst);
        self.0.ub_from_overlap(q_len, r)
    }
}

/// With `workers` gated blocking calls in flight — each on its caller's
/// thread, holding a scratch — one more blocking call is admitted but
/// queues: it does not start until a scratch comes back, so the measure
/// never sees more than `workers` evaluations at once. Every answer still
/// equals the direct call.
#[test]
fn a_blocking_call_beyond_the_scratches_queues() {
    const WORKERS: usize = 2;
    let db = ZipfianGenerator::new(120, 90, 5.0, 1.1).generate(5);
    let index = Les3Index::build(
        db,
        Partitioning::round_robin(120, 6),
        CountingGate::default(),
    );
    let front = ServeFront::new(
        index,
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
    );
    let queries: Vec<Vec<TokenId>> = (0..=WORKERS as u32)
        .map(|i| front.backend().db().set(i * 7).to_vec())
        .collect();
    let served: Vec<SearchResult> = std::thread::scope(|s| {
        let callers: Vec<_> = queries
            .iter()
            .map(|q| {
                let front = &front;
                s.spawn(move || front.knn(q, 4).expect("served"))
            })
            .collect();
        let start = Instant::now();
        while front.in_flight() < WORKERS + 1 || EVALUATING.load(Ordering::SeqCst) < WORKERS {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the calls never got in"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        // The last call stays queued however long the others hold on.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(EVALUATING.load(Ordering::SeqCst), WORKERS);
        assert_eq!(front.in_flight(), WORKERS + 1);
        COUNTING_GATE.store(true, Ordering::Release);
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(MOST_EVALUATING.load(Ordering::SeqCst), WORKERS);
    for (q, got) in queries.iter().zip(&served) {
        assert_eq!(got, &front.backend().knn(q, 4));
    }
}

/// A blocking call whose query panics fails alone with `QueryPanicked`,
/// and the next blocking call on the same thread — on the same rebuilt
/// scratch — answers bit for bit.
#[test]
fn a_panicking_blocking_call_fails_alone_on_its_thread() {
    let db = ZipfianGenerator::new(150, 120, 5.0, 1.1).generate(3);
    let index = Les3Index::build(db, Partitioning::round_robin(150, 6), PanicAtLen::default());
    let front = ServeFront::new(
        index,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let good: Vec<TokenId> = (0..5u32).collect();
    let poison: Vec<TokenId> = (100..100 + POISON_LEN as u32).collect();
    for _ in 0..2 {
        match front.knn(&poison, 5) {
            Err(ServeError::QueryPanicked(msg)) => assert!(msg.contains("poison query"), "{msg}"),
            other => panic!("poison query returned {other:?}"),
        }
        let knn = front.knn(&good, 5).unwrap();
        assert_eq!(knn.hits, front.backend().knn(&good, 5).hits);
        assert_eq!(knn.stats, front.backend().knn(&good, 5).stats);
        assert_eq!(
            front.range(&good, 0.3).unwrap(),
            front.backend().range(&good, 0.3)
        );
    }
    assert_eq!(front.in_flight(), 0);
}

/// `submit` never runs its request on the submitting thread, even with
/// the only worker idle: it returns while the gated query waits on a
/// worker (were it run inline, the gate would hold it for 10 s).
#[test]
fn submit_returns_before_its_gated_query_starts() {
    let front = gated_front::<6>(usize::MAX);
    let q = front.backend().db().set(4).to_vec();
    let t0 = Instant::now();
    let ticket = front.submit(Request::knn(q.clone(), 4));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "submit ran the query"
    );
    GATES[6].store(true, Ordering::Release);
    assert_eq!(ticket.wait().unwrap(), front.backend().knn(&q, 4));
}

/// Blocking calls from racing threads (on their own threads while a
/// scratch is free, queued otherwise) mixed with submitted tickets, over
/// the default route and a namespace: every answer equals the direct
/// call — hits and `SearchStats` — and `stats()` is the default route
/// plus the namespaces.
#[test]
fn inline_and_queued_requests_answer_alike_and_keep_the_stats_identity() {
    let db = ZipfianGenerator::new(200, 150, 6.0, 1.1).generate(21);
    let index = Arc::new(Les3Index::build(
        db,
        Partitioning::round_robin(200, 8),
        Jaccard,
    ));
    let front = ServeFront::from_arc(
        Arc::clone(&index),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let sets: Vec<Vec<TokenId>> = (0..40u32).map(|i| vec![i, i + 1, i % 7]).collect();
    let namespace = front
        .namespaces()
        .create(
            "tenant",
            NamespaceSpec {
                sets,
                ..NamespaceSpec::default()
            },
        )
        .unwrap();
    let ns_route = || Route::Namespace("tenant".into(), Filters::none());
    let queries: Vec<Vec<TokenId>> = (0..24u32).map(|i| index.db().set(i * 5).to_vec()).collect();
    std::thread::scope(|s| {
        for t in 0..3 {
            let (front, queries, index, namespace) = (&front, &queries, &index, &namespace);
            s.spawn(move || {
                let mut tickets = Vec::new();
                for (i, q) in queries.iter().enumerate().filter(|(i, _)| i % 3 == t) {
                    assert_eq!(front.knn(q, 6).unwrap(), index.knn(q, 6), "query {i}");
                    assert_eq!(
                        front.range(q, 0.3).unwrap(),
                        index.range(q, 0.3),
                        "query {i}"
                    );
                    let ns_query = vec![i as u32, i as u32 + 1, 3];
                    let (got, _) = front
                        .run(
                            Request {
                                route: ns_route(),
                                ..Request::knn(ns_query.clone(), 3)
                            },
                            &|| false,
                        )
                        .unwrap();
                    let want = namespace
                        .knn(&ns_query, 3, &Filters::none(), &QueryCtl::NONE)
                        .unwrap();
                    assert_eq!(got, want, "namespace query {i}");
                    tickets.push((i, front.submit(Request::knn(q.clone(), 4))));
                }
                for (i, ticket) in tickets {
                    assert_eq!(
                        ticket.wait().unwrap(),
                        index.knn(&queries[i], 4),
                        "query {i}"
                    );
                }
            });
        }
    });
    let mut sum = front.default_route_stats();
    sum.accumulate(&front.namespaces().total_stats());
    assert_eq!(front.stats(), sum, "stats identity");
    assert_eq!(front.in_flight(), 0);
}

/// A deliberately slow measure (no gate — just drag) for the overload
/// proptest: every filter-bound evaluation costs ~30 µs, so queries
/// take long enough that a capacity-1 queue actually overloads.
#[derive(Debug, Clone, Copy, Default)]
struct SlowSim(Jaccard);

impl Similarity for SlowSim {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        std::thread::sleep(Duration::from_micros(30));
        self.0.ub_from_overlap(q_len, r)
    }
}

/// Classifies one resolved ticket, checking `Ok` results against the
/// direct call bit for bit.
fn classify(
    index: &Les3Index<SlowSim>,
    q: &[TokenId],
    k: usize,
    outcome: les3_core::ServeResult,
) -> Result<&'static str, TestCaseError> {
    match outcome {
        Ok(res) => {
            prop_assert_eq!(&res, &index.knn(q, k), "served hits must equal direct");
            Ok("ok")
        }
        Err(ServeError::Overloaded) => Ok("overloaded"),
        Err(ServeError::DeadlineExceeded(stats)) => {
            // Whatever partial work ran, it never started verification
            // after expiring — at minimum the counters stay coherent: a
            // candidate is read at most once (the signature check may
            // reject it unread) and only a read one can exit early.
            prop_assert!(stats.sims_computed <= stats.candidates);
            prop_assert!(stats.early_exits <= stats.sims_computed);
            Ok("expired")
        }
        Err(ServeError::Cancelled(_)) => Ok("cancelled"),
        Err(other) => {
            prop_assert!(false, "unexpected outcome: {other:?}");
            unreachable!()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Admission-control totality: under a capacity-1 queue with slow
    /// queries and a mix of {shed, wait, deadline, cancel} submissions,
    /// every ticket resolves to exactly one of {identical hits,
    /// Overloaded, DeadlineExceeded, Cancelled} — no hangs, no lost
    /// tickets — and the front's aggregate counters agree with the
    /// observed outcomes. Dropping the front with tickets still
    /// outstanding drains them to the same four outcomes.
    #[test]
    fn capacity_one_requests_resolve_to_exactly_one_outcome(
        seed in 0u64..10_000,
        n_requests in 8usize..20,
        workers in 1usize..3,
    ) {
        let db = ZipfianGenerator::new(150, 100, 5.0, 1.1).generate(seed);
        let index = Arc::new(Les3Index::build(
            db,
            Partitioning::round_robin(150, 6),
            SlowSim::default(),
        ));
        let front = ServeFront::from_arc(Arc::clone(&index), ServeConfig {
            workers,
            queue_capacity: 1,
        });
        let queries: Vec<Vec<TokenId>> = (0..n_requests as u32)
            .map(|i| index.db().set((i * 13 + seed as u32) % 150).to_vec())
            .collect();
        // Phase 1: submit a mixed workload, wait every ticket.
        let mut tickets = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let opts = SubmitOpts {
                deadline: match i % 3 {
                    0 => None,
                    1 => Some(Instant::now() + Duration::from_micros(200 + 150 * i as u64)),
                    _ => Some(Instant::now() + Duration::from_secs(60)),
                },
                on_full: if i % 2 == 0 { OnFull::Shed } else { OnFull::Wait },
            };
            let t = front.submit_knn_opts(q.clone(), 3, opts);
            if i % 5 == 4 {
                t.cancel();
            }
            tickets.push(t);
        }
        let mut counts = std::collections::HashMap::new();
        for (i, t) in tickets.into_iter().enumerate() {
            let kind = classify(&index, &queries[i], 3, t.wait())?;
            *counts.entry(kind).or_insert(0usize) += 1;
        }
        // Totality: every ticket resolved to one of the four outcomes.
        prop_assert_eq!(counts.values().sum::<usize>(), n_requests);
        // The aggregate counters tell the same story the tickets did.
        let agg = front.stats();
        prop_assert_eq!(agg.shed, counts.get("overloaded").copied().unwrap_or(0));
        prop_assert_eq!(agg.expired, counts.get("expired").copied().unwrap_or(0));
        prop_assert_eq!(agg.cancelled, counts.get("cancelled").copied().unwrap_or(0));
        // Phase 2: drop-drain with outstanding tickets stays clean.
        let stragglers: Vec<Ticket> = queries
            .iter()
            .take(5)
            .map(|q| front.submit(Request::knn(q.clone(), 3)))
            .collect();
        drop(front);
        for (i, t) in stragglers.into_iter().enumerate() {
            classify(&index, &queries[i], 3, t.wait())?;
        }
    }
}
