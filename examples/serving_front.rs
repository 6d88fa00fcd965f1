//! Async serving front: single queries from many producer threads pass
//! an **admission-control layer**, then run on the producer's own thread
//! while a worker's scratch is free, or queue FIFO for a persistent
//! worker pool — at most one request per scratch at a time. This is the
//! request-queue step on top of the index's synchronous calls (`knn` /
//! `range`).
//!
//! This example drives the front **in-process**; the production path
//! puts the network layer (`crates/net`) in front of the very same
//! `ServeFront`, where these semantics become protocol behavior —
//! `Overloaded` → `503` + `Retry-After`, deadlines → `504`, client
//! disconnect → cancellation. Run `les3-serve` and see
//! `docs/PROTOCOL.md` / `examples/http_client.rs` for that view.
//!
//! Run with: `cargo run --release --example serving_front`
//!
//! # Usage sketch
//!
//! ```text
//! let front = ServeFront::new(index, ServeConfig {
//!     workers: 0,                             // 0 = one worker per core
//!     queue_capacity: 256,                    // accepted-but-unfinished cap
//! });
//! // Share &front across connection threads:
//! let hits = front.knn(&query, 10)?;          // blocking (backpressure on full; runs here if a scratch is free)
//! let ticket = front.submit(Request::knn(query, 10)); // fire-and-wait-later (sheds on full)
//! ticket.cancel();                            // …or give up: skips queued work
//! let t = front.submit(Request {
//!     opts: SubmitOpts {
//!         deadline: Some(Instant::now() + Duration::from_millis(20)),
//!         ..Default::default()
//!     },                                      // per-request deadline
//!     route: Route::Namespace("tenant".into(), filters), // a namespace's filtered sets
//!     ..Request::range(query, 0.8)
//! });
//! ```
//!
//! Every submitted request resolves to exactly one of: a result
//! bit-for-bit identical to the direct `knn`/`range` call (hits and
//! stats), `Overloaded` (shed at admission — the bounded queue was
//! full), `DeadlineExceeded` (expired at submit, while queued, or
//! mid-flight: workers poll the deadline between the filter pass and
//! verification and at every group boundary), or `Cancelled` (its
//! ticket was dropped or cancelled). A panicking query fails only its
//! own request and the pool keeps serving; `front.stats()` aggregates
//! the work plus the shed/expired/cancelled counts.

use les3::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;
const REQUESTS_PER_PRODUCER: usize = 500;
const K: usize = 10;

/// Jaccard behind a gate: a query's filter pass waits until `GATE`
/// opens (or 10 s pass). The admission demo uses it to hold the worker
/// busy for as long as it takes to show the queue filling up.
#[derive(Debug, Clone, Copy, Default)]
struct Gated(Jaccard);

static GATE: AtomicBool = AtomicBool::new(false);

impl Similarity for Gated {
    fn name(&self) -> &'static str {
        "gated-jaccard"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        let start = Instant::now();
        while !GATE.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.0.ub_from_overlap(q_len, r)
    }
}

fn main() {
    // A KOSARAK-shaped database.
    let spec = DatasetSpec::kosarak().with_sets(20_000);
    let db = spec.generate(7);
    println!("dataset {}: {}", spec.name, db.stats());
    let n_groups = (db.len() / 80).max(16);
    let part = Partitioning::round_robin(db.len(), n_groups);
    let index = Arc::new(Les3Index::build(db.clone(), part, Jaccard));

    let config = ServeConfig {
        workers: 0, // one worker per core
        ..ServeConfig::default()
    };
    let front = ServeFront::from_arc(Arc::clone(&index), config);
    println!("serving front up: one worker per core, unbounded queue\n");

    // Closed-loop producers: each thread fires blocking single-query
    // requests; each one runs on its producer while a worker's scratch
    // is free, and waits for the next free worker otherwise.
    let errors = AtomicUsize::new(0);
    let t = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let front = &front;
                let db = &db;
                let errors = &errors;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(REQUESTS_PER_PRODUCER);
                    for i in 0..REQUESTS_PER_PRODUCER {
                        let qid = ((p * REQUESTS_PER_PRODUCER + i) * 13) % db.len();
                        let q = db.set(qid as u32).to_vec();
                        let t0 = Instant::now();
                        match front.knn(&q, K) {
                            Ok(res) => {
                                assert!(res.hits.len() <= K);
                                lats.push(t0.elapsed());
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("producer panicked"))
            .collect()
    });
    let elapsed = t.elapsed();
    let total = PRODUCERS * REQUESTS_PER_PRODUCER;
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    println!(
        "{total} single-query requests from {PRODUCERS} producers in {:.2?}: {:.0} queries/s",
        elapsed,
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "latency p50 {:.0?}  p99 {:.0?}  max {:.0?}  (errors: {})",
        sorted[sorted.len() / 2],
        sorted[sorted.len() * 99 / 100],
        sorted[sorted.len() - 1],
        errors.load(Ordering::Relaxed)
    );

    // Served results are bit-for-bit the direct call's — hits AND stats.
    let mut scratch = QueryScratch::new();
    for qid in [0u32, 1_234, 9_999] {
        let q = db.set(qid).to_vec();
        let served = front.knn(&q, K).expect("serve failed");
        let direct = front.backend().knn_with(&q, K, &mut scratch);
        assert_eq!(served.hits, direct.hits);
        assert_eq!(served.stats, direct.stats);
    }
    println!("\nserved results identical to direct calls (hits and stats) ✓");

    // Pipelined tickets: queue a burst without blocking, then collect.
    let burst: Vec<Ticket> = (0..256)
        .map(|i| front.submit(Request::knn(db.set(i * 31 % db.len() as u32).to_vec(), K)))
        .collect();
    let t = Instant::now();
    let ok = burst
        .into_iter()
        .map(Ticket::wait)
        .filter(Result::is_ok)
        .count();
    println!(
        "burst of 256 pipelined tickets drained in {:.2?} ({ok}/256 ok) ✓",
        t.elapsed()
    );

    // Admission control: a front with a tiny bounded queue sheds the
    // overflow instead of queueing without bound. The first request
    // holds the only worker at the gate and the second waits behind it,
    // so the third submission deterministically finds the queue full.
    drop(front);
    let small_db = ZipfianGenerator::new(500, 300, 8.0, 1.1).generate(7);
    let q = small_db.set(42).to_vec();
    let part = Partitioning::round_robin(small_db.len(), 16);
    let small = ServeFront::new(
        Les3Index::build(small_db, part, Gated::default()),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
        },
    );
    let t1 = small.submit(Request::knn(q.clone(), K)); // on the worker, at the gate
    let t2 = small.submit(Request::knn(q.clone(), K)); // queued behind it
    let t3 = small.submit(Request::knn(q.clone(), K)); // queue full: shed
    match t3.wait() {
        Err(ServeError::Overloaded) => println!("\nthird request shed with Overloaded ✓"),
        other => panic!("expected an overload rejection, got {other:?}"),
    }
    // A per-request deadline that has already passed is shed too — it
    // never consumes a worker.
    let late = small.submit(Request {
        opts: SubmitOpts {
            deadline: Some(Instant::now()),
            ..Default::default()
        },
        ..Request::knn(q.clone(), K)
    });
    match late.wait() {
        Err(ServeError::DeadlineExceeded(stats)) => {
            assert_eq!(stats.groups_verified, 0);
            println!("expired request shed before verification ✓");
        }
        other => panic!("expected a deadline rejection, got {other:?}"),
    }
    GATE.store(true, Ordering::Release);
    assert!(t1.wait().is_ok() && t2.wait().is_ok());
    let agg = small.stats();
    println!(
        "admission counters: shed {} expired {} cancelled {} (accepted requests all served)",
        agg.shed, agg.expired, agg.cancelled
    );
}
