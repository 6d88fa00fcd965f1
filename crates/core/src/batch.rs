//! Batched query execution on a coalescing work queue.
//!
//! Search services rarely see one query at a time. The batch entry
//! points of both index types fan out over rayon workers through one
//! **coalescing executor**: the batch is cut into many small fixed-size
//! tasks, workers claim tasks one at a time from an atomic counter, and
//! each worker owns its scratch for its whole lifetime (zero
//! steady-state allocation). Compared to a one-contiguous-chunk-per-worker
//! split, a skewed batch — a few expensive queries clustered together —
//! does not leave the other workers idle: whoever finishes early simply
//! claims the next task. Every task runs its queries through the one
//! `search`, so results are bit-for-bit identical to running the queries
//! one by one — workers share nothing but the read-only index and their
//! disjoint output slots.
//!
//! Two executors live here:
//!
//! * `run_coalesced` — the synchronous one-shot executor behind
//!   [`ShardedLes3Index::knn_batch`] / [`ShardedLes3Index::range_batch_on`] and
//!   friends: spawn workers, claim tasks, join. Panicking tasks are
//!   isolated (every other task still runs; the first payload is
//!   rethrown to the caller).
//! * [`WorkerPool`] — the persistent counterpart used by the serving
//!   front ([`crate::serve::ServeFront`]): long-lived named threads
//!   popping one job at a time off a FIFO queue, each job together with
//!   one of the pool's scratch states. The states are the execution
//!   permits: a caller about to block on its job can run it on its own
//!   thread instead ([`WorkerPool::run_here`]) when a state is free and
//!   nothing is queued. A job is a whole unit of work (the front's is one
//!   request), so a free state is all the load balancing there is.
//!   Dropping the pool drains every submitted job before joining — the
//!   serving front's graceful-shutdown guarantee rests on this.
//!
//! # Example
//!
//! ```
//! use les3_core::sim::Jaccard;
//! use les3_core::{Les3Index, Partitioning};
//! use les3_data::SetDatabase;
//!
//! let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![0, 2], vec![3, 4]]);
//! let index = Les3Index::build(db, Partitioning::round_robin(3, 2), Jaccard);
//! let queries = vec![vec![0u32, 1], vec![3, 4]];
//! let batch = index.knn_batch(&queries, 2);
//! // One result per query, in input order, equal to per-query calls.
//! assert_eq!(batch[0], index.knn(&queries[0], 2));
//! assert_eq!(batch[1], index.knn(&queries[1], 2));
//! ```

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use les3_data::TokenId;

use crate::index::{Les3Index, SearchResult};
use crate::query::{self, Kind, Query};
use crate::scratch::QueryScratch;
use crate::shard::ShardedLes3Index;
use crate::sim::Similarity;

/// Queries per task. Small enough that a skewed batch decomposes into
/// many stealable tasks, large enough to amortize a task claim (one
/// uncontended atomic add) over real work.
const TASK_QUERIES: usize = 8;

/// Locks a mutex, recovering the guard when a panicking worker left it
/// poisoned. Every mutex in this module protects data that is either
/// written exactly once by one task or re-validated by the caller, so a
/// poisoned lock carries no corruption the executor's panic handling
/// does not already account for.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `n_tasks` tasks across `workers` rayon workers, each worker
/// claiming tasks one at a time from a shared atomic counter
/// (coalescing: fast workers absorb the tail of skewed workloads).
/// `make_state` builds one per-worker state (scratch) reused across all
/// tasks the worker claims; `run` must tolerate any task→worker
/// assignment, i.e. write only to task-owned locations.
///
/// # Panic isolation
///
/// A panicking task no longer takes the whole executor down mid-flight:
/// the panic is caught, the worker's state is rebuilt (a panicked task
/// may have left scratch invariants violated), and the worker keeps
/// claiming — every other task still runs exactly once. The *first*
/// panic payload is rethrown after all tasks finish, so callers of the
/// synchronous batch API still observe the original panic rather than a
/// poisoned-mutex cascade ("task cell poisoned"). The serving front's
/// [`WorkerPool`] goes one step further and converts panics into
/// per-request error results.
pub(crate) fn run_coalesced<W>(
    workers: usize,
    n_tasks: usize,
    make_state: impl Fn() -> W + Sync,
    run: impl Fn(usize, &mut W) + Sync,
) {
    if n_tasks == 0 {
        return;
    }
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let record = |payload: Box<dyn std::any::Any + Send>| {
        let mut slot = lock_unpoisoned(&first_panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    };
    if workers <= 1 {
        let mut state = make_state();
        for t in 0..n_tasks {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(t, &mut state))) {
                record(payload);
                state = make_state();
            }
        }
    } else {
        // One looping claimant per worker — the rayon shim's
        // scoped-worker idiom (`run_workers`), never a spawn per task.
        let next = AtomicUsize::new(0);
        rayon::run_workers(workers.min(n_tasks), |_w| {
            let mut state = make_state();
            loop {
                // relaxed: unique-ticket handout; task results flow
                // through per-task cells under their own locks (or the
                // panic record mutex), ordered by the join barrier.
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= n_tasks {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(t, &mut state))) {
                    record(payload);
                    state = make_state();
                }
            }
        });
    }
    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
}

/// A persistent worker pool — the long-lived counterpart of
/// `run_coalesced`, for callers that outlive any single batch (the
/// serving front's [`crate::serve::ServeFront`]).
///
/// `N` OS threads live for the pool's whole lifetime, and so do `N`
/// states (scratch) built once by the factory and reused across **every
/// job the pool ever executes**, so steady-state serving allocates
/// nothing per job. The states sit on a free list beside the FIFO job
/// queue, under the same lock: a worker pops a job only together with a
/// free state, runs it with the run function the pool was built with,
/// puts the state back and comes back for the next. A caller that would
/// block on its job anyway may run it itself with
/// [`WorkerPool::run_here`], which takes a state the same way. Either
/// way a job runs only while it holds a state, so at most `N` jobs
/// execute at once.
///
/// Dropping the pool is graceful: workers drain the queue (every
/// submitted job runs) before the threads are joined.
pub struct WorkerPool<J: Send + 'static, W: Send + 'static> {
    shared: Arc<PoolShared<J, W>>,
    /// Rebuilds a state a panicking job may have left inconsistent.
    make_state: Arc<dyn Fn() -> W + Send + Sync>,
    handles: Vec<crate::sync::thread::JoinHandle<()>>,
}

struct PoolShared<J, W> {
    inner: Mutex<PoolQueue<J, W>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// The jobs waiting for a state and the states waiting for a job.
struct PoolQueue<J, W> {
    jobs: VecDeque<J>,
    free: Vec<W>,
}

impl<J, W> PoolQueue<J, W> {
    /// The oldest job with a free state to run it on, if both exist.
    fn take(&mut self) -> Option<(J, W)> {
        if self.jobs.is_empty() {
            return None;
        }
        let state = self.free.pop()?;
        self.jobs.pop_front().map(|job| (job, state))
    }
}

impl<J: Send + 'static, W: Send + 'static> WorkerPool<J, W> {
    /// Builds `workers` states with `make_state` and spawns as many named
    /// threads, each calling `run(job, &mut state)` for every job it pops.
    /// `run` should not let panics escape (the serving front converts
    /// them into per-request errors); the pool treats an escaped panic
    /// as a defect, rebuilds the state and keeps the worker alive.
    pub fn new(
        workers: usize,
        name: &str,
        make_state: impl Fn() -> W + Send + Sync + 'static,
        run: impl Fn(J, &mut W) + Send + Sync + 'static,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            inner: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                free: (0..workers).map(|_| make_state()).collect(),
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let make_state: Arc<dyn Fn() -> W + Send + Sync> = Arc::new(make_state);
        let run = Arc::new(run);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let (make_state, run) = (Arc::clone(&make_state), Arc::clone(&run));
                crate::sync::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || pool_worker_loop(&shared, &*make_state, &*run))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            make_state,
            handles,
        }
    }

    /// Enqueues a job and wakes one parked worker. One wake-up per push
    /// loses none: a worker only parks after finding no job it can take
    /// under the lock this push takes.
    pub fn submit(&self, job: J) {
        lock_unpoisoned(&self.shared.inner).jobs.push_back(job);
        self.shared.available.notify_one();
    }

    /// Runs `job` on the calling thread with a free state — only when no
    /// job is queued (queued jobs keep their FIFO priority) and a state is
    /// free — then puts the state back and wakes one worker if a job
    /// queued meanwhile. Otherwise hands the job back untouched, for the
    /// caller to [`submit`](WorkerPool::submit). A panic in `run`
    /// rebuilds the state and resumes on the caller.
    pub fn run_here(&self, job: J, run: impl FnOnce(J, &mut W)) -> Result<(), J> {
        let mut state = {
            let mut inner = lock_unpoisoned(&self.shared.inner);
            if !inner.jobs.is_empty() {
                return Err(job);
            }
            match inner.free.pop() {
                Some(state) => state,
                None => return Err(job),
            }
        };
        let out = catch_unwind(AssertUnwindSafe(|| run(job, &mut state)));
        if out.is_err() {
            state = (self.make_state)();
        }
        let waiting = {
            let mut inner = lock_unpoisoned(&self.shared.inner);
            inner.free.push(state);
            !inner.jobs.is_empty()
        };
        // A worker that found a job but no state parked; this state is
        // its wake-up. (A worker returning a state takes the next job
        // itself and needs none.)
        if waiting {
            self.shared.available.notify_one();
        }
        if let Err(payload) = out {
            resume_unwind(payload);
        }
        Ok(())
    }
}

impl<J: Send + 'static, W: Send + 'static> Drop for WorkerPool<J, W> {
    fn drop(&mut self) {
        // Set the flag while holding the queue mutex: a worker that just
        // saw `shutdown == false` under the lock cannot yet be parked on
        // the condvar, so the notify below can never be lost.
        {
            let _queue = lock_unpoisoned(&self.shared.inner);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            // A worker that somehow died earlier already completed no
            // further jobs; the drain semantics below cover the rest.
            let _ = h.join();
        }
    }
}

fn pool_worker_loop<J, W>(
    shared: &PoolShared<J, W>,
    make_state: &dyn Fn() -> W,
    run: &dyn Fn(J, &mut W),
) {
    let mut inner = lock_unpoisoned(&shared.inner);
    loop {
        if let Some((job, mut state)) = inner.take() {
            drop(inner);
            // The run function catches per-request panics itself; this
            // outer catch is the backstop that keeps a defective job from
            // killing the worker thread (and with it the pool's capacity).
            if catch_unwind(AssertUnwindSafe(|| run(job, &mut state))).is_err() {
                state = make_state();
            }
            inner = lock_unpoisoned(&shared.inner);
            inner.free.push(state);
        } else if inner.jobs.is_empty() && shared.shutdown.load(Ordering::Acquire) {
            return; // queue drained and no more submitters
        } else {
            inner = shared
                .available
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Splits `slots` into per-task output cells the executor's workers can
/// claim: each task locks exactly its own cell once, so the mutexes are
/// uncontended and exist only to satisfy the aliasing rules.
fn task_cells<T>(slots: &mut [T], chunk: usize) -> Vec<Mutex<&mut [T]>> {
    slots.chunks_mut(chunk).map(Mutex::new).collect()
}

impl<S: Similarity> ShardedLes3Index<S> {
    /// Answers many range queries in parallel. Returns one result per
    /// query, in input order; results equal per-query
    /// [`ShardedLes3Index::range`].
    pub fn range_batch(&self, queries: &[Vec<TokenId>], delta: f64) -> Vec<SearchResult> {
        self.range_batch_on(rayon::current_num_threads(), queries, delta)
    }

    /// [`ShardedLes3Index::range_batch`] on `workers` threads, each
    /// answering whole queries.
    pub fn range_batch_on(
        &self,
        workers: usize,
        queries: &[Vec<TokenId>],
        delta: f64,
    ) -> Vec<SearchResult> {
        self.run_kind_on(workers, queries, Kind::Range(delta))
    }

    /// Answers many kNN queries in parallel. Returns one result per
    /// query, in input order; results equal per-query
    /// [`ShardedLes3Index::knn`].
    pub fn knn_batch(&self, queries: &[Vec<TokenId>], k: usize) -> Vec<SearchResult> {
        self.knn_batch_on(rayon::current_num_threads(), queries, k)
    }

    /// [`ShardedLes3Index::knn_batch`] on `workers` threads, each
    /// answering whole queries.
    pub fn knn_batch_on(
        &self,
        workers: usize,
        queries: &[Vec<TokenId>],
        k: usize,
    ) -> Vec<SearchResult> {
        self.run_kind_on(workers, queries, Kind::Knn(k))
    }

    /// Every query of the batch as a `kind` search.
    fn run_kind_on(
        &self,
        workers: usize,
        queries: &[Vec<TokenId>],
        kind: Kind,
    ) -> Vec<SearchResult> {
        self.run_batch_on(workers, queries, |index, tokens, scratch| {
            query::uninterrupted(index.search(&Query::new(tokens, kind), scratch))
        })
    }

    /// The one coalescing batch executor: `workers` claim query-chunks
    /// and `run_one` answers each query of a chunk on the thread that
    /// claimed it. Never more workers than chunks.
    fn run_batch_on(
        &self,
        workers: usize,
        queries: &[Vec<TokenId>],
        run_one: impl Fn(&Self, &[TokenId], &mut QueryScratch) -> SearchResult + Sync,
    ) -> Vec<SearchResult> {
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        let mut slots: Vec<Option<SearchResult>> = (0..n).map(|_| None).collect();
        let cells = task_cells(&mut slots, TASK_QUERIES);
        run_coalesced(workers, cells.len(), QueryScratch::new, |t, scratch| {
            let mut out = lock_unpoisoned(&cells[t]);
            for (q, slot) in queries[t * TASK_QUERIES..].iter().zip(out.iter_mut()) {
                *slot = Some(run_one(self, q, scratch));
            }
        });
        drop(cells);
        slots
            .into_iter()
            .map(|r| r.expect("worker filled its slice"))
            .collect()
    }
}

impl<S: Similarity> Les3Index<S> {
    /// [`ShardedLes3Index::knn_batch_on`] with an extra `_intra`
    /// argument that is ignored: every query runs on one thread.
    pub fn knn_batch_on(
        &self,
        workers: usize,
        _intra: usize,
        queries: &[Vec<TokenId>],
        k: usize,
    ) -> Vec<SearchResult> {
        self.run_kind_on(workers, queries, Kind::Knn(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::Partitioning;
    use crate::shard::ShardPolicy;
    use crate::sim::Jaccard;
    use les3_data::zipfian::ZipfianGenerator;

    fn setup() -> (Les3Index<Jaccard>, Vec<Vec<TokenId>>) {
        let db = ZipfianGenerator::new(400, 300, 7.0, 1.1).generate(71);
        let queries: Vec<Vec<TokenId>> =
            (0..20u32).map(|i| db.set(i * 17 % 400).to_vec()).collect();
        let index = Les3Index::build(db, Partitioning::round_robin(400, 16), Jaccard);
        (index, queries)
    }

    #[test]
    fn range_batch_equals_individual_queries() {
        let (index, queries) = setup();
        for delta in [0.3, 0.6, 0.9] {
            let batch = index.range_batch(&queries, delta);
            for (q, b) in queries.iter().zip(&batch) {
                let single = index.range(q, delta);
                assert_eq!(b.hits, single.hits, "δ {delta}");
                assert_eq!(b.stats.candidates, single.stats.candidates);
                assert_eq!(b.stats.groups_verified, single.stats.groups_verified);
            }
        }
    }

    #[test]
    fn knn_batch_equals_individual_queries() {
        let (index, queries) = setup();
        let batch = index.knn_batch(&queries, 7);
        for (q, b) in queries.iter().zip(&batch) {
            let single = index.knn(q, 7);
            assert_eq!(b.hits, single.hits);
        }
    }

    #[test]
    fn multi_worker_batch_preserves_order_and_results() {
        let (index, _) = setup();
        // Force the coalescing path regardless of the host's core count;
        // results must land in input order with identical contents.
        let queries: Vec<Vec<TokenId>> = (0..100u32)
            .map(|i| index.db().set(i * 3 % 400).to_vec())
            .collect();
        for workers in [2usize, 4, 7] {
            let batch = index.knn_batch_on(workers, 1, &queries, 5);
            assert_eq!(batch.len(), queries.len());
            for (q, b) in queries.iter().zip(&batch) {
                let single = index.knn(q, 5);
                assert_eq!(b.hits, single.hits, "workers {workers}");
                assert_eq!(b.stats, single.stats, "workers {workers}");
            }
            let batch = index.range_batch_on(workers, &queries, 0.5);
            for (q, b) in queries.iter().zip(&batch) {
                assert_eq!(b.hits, index.range(q, 0.5).hits, "workers {workers}");
            }
        }
    }

    #[test]
    fn coalesced_executor_runs_every_task_exactly_once() {
        for (workers, n_tasks) in [(1usize, 5usize), (3, 1), (4, 25), (9, 64)] {
            let counts: Vec<AtomicUsize> = (0..n_tasks).map(|_| AtomicUsize::new(0)).collect();
            run_coalesced(
                workers,
                n_tasks,
                || (),
                |t, _| {
                    counts[t].fetch_add(1, Ordering::Relaxed);
                },
            );
            for (t, c) in counts.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "task {t} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sharded_batches_equal_singles_across_worker_counts() {
        let db = ZipfianGenerator::new(500, 300, 7.0, 1.1).generate(29);
        let queries: Vec<Vec<TokenId>> = (0..60u32).map(|i| db.set(i * 7 % 500).to_vec()).collect();
        let part = Partitioning::round_robin(500, 20);
        let sharded = ShardedLes3Index::build(db, part, Jaccard, 3, ShardPolicy::Hash);
        for workers in [1usize, 2, 5] {
            let knn = sharded.knn_batch_on(workers, &queries, 6);
            let rng = sharded.range_batch_on(workers, &queries, 0.5);
            let k0 = sharded.knn_batch_on(workers, &queries, 0);
            for (i, q) in queries.iter().enumerate() {
                let single = sharded.knn(q, 6);
                assert_eq!(knn[i].hits, single.hits, "workers {workers} q {i}");
                assert_eq!(knn[i].stats, single.stats, "workers {workers} q {i}");
                let single = sharded.range(q, 0.5);
                assert_eq!(rng[i].hits, single.hits, "workers {workers} q {i}");
                assert_eq!(rng[i].stats, single.stats, "workers {workers} q {i}");
                // k = 0 must take the degenerate path in every schedule.
                let single = sharded.knn(q, 0);
                assert_eq!(k0[i].hits, single.hits, "k=0 workers {workers} q {i}");
                assert_eq!(k0[i].stats, single.stats, "k=0 workers {workers} q {i}");
            }
        }
        // An undersized batch against a big budget: 10 queries = 2
        // chunks for 8 workers, so only two start. Results (and stats)
        // must not move.
        let small = &queries[..10];
        let knn = sharded.knn_batch_on(8, small, 6);
        let rng = sharded.range_batch_on(8, small, 0.5);
        for (i, q) in small.iter().enumerate() {
            assert_eq!(knn[i], sharded.knn(q, 6), "undersized q {i}");
            assert_eq!(rng[i], sharded.range(q, 0.5), "undersized q {i}");
        }
    }

    #[test]
    fn long_sharded_batches_preserve_order_and_results() {
        // 300 queries are 38 chunks for 2 workers to claim; results must
        // land in input order, identical to the single-query path.
        let db = ZipfianGenerator::new(400, 250, 6.0, 1.1).generate(41);
        let queries: Vec<Vec<TokenId>> =
            (0..300u32).map(|i| db.set(i * 11 % 400).to_vec()).collect();
        let part = Partitioning::round_robin(400, 12);
        let sharded = ShardedLes3Index::build(db, part, Jaccard, 3, ShardPolicy::Contiguous);
        let knn = sharded.knn_batch_on(2, &queries, 4);
        let rng = sharded.range_batch_on(2, &queries, 0.4);
        assert_eq!(knn.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(knn[i].hits, sharded.knn(q, 4).hits, "q {i}");
            assert_eq!(rng[i].hits, sharded.range(q, 0.4).hits, "q {i}");
        }
    }

    #[test]
    fn coalesced_executor_isolates_panicking_tasks() {
        // One poisoned task must not stop the others: every non-poisoned
        // task still runs exactly once, and the caller observes the
        // original panic payload (not a poisoned-mutex cascade).
        for workers in [1usize, 3] {
            let counts: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_coalesced(
                    workers,
                    10,
                    || (),
                    |t, _| {
                        counts[t].fetch_add(1, Ordering::Relaxed);
                        if t == 4 {
                            panic!("poisoned task");
                        }
                    },
                );
            }));
            let payload = outcome.expect_err("executor rethrows the task panic");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("poisoned task"),
                "workers {workers}"
            );
            for (t, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "task {t} workers {workers}");
            }
        }
    }

    #[test]
    fn batch_panics_cleanly_not_with_poisoned_cells() {
        // A panicking query inside a real batch must surface its own
        // message; before panic isolation this died on "task cell
        // poisoned" from an unrelated worker instead.
        let (index, _) = setup();
        let queries: Vec<Vec<TokenId>> = (0..40u32)
            .map(|i| index.db().set(i % 400).to_vec())
            .collect();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            index.run_batch_on(3, &queries, |ix, q, scratch| {
                assert!(q != index.db().set(13), "query 13 is poisoned");
                ix.knn_with(q, 3, scratch)
            })
        }));
        let payload = outcome.expect_err("the poisoned query's panic propagates");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("query 13 is poisoned"), "got: {msg}");
    }

    #[test]
    fn worker_pool_runs_jobs_and_persists_state() {
        const JOBS: usize = 26;
        const WORKERS: usize = 3;
        let ran: Arc<Vec<AtomicUsize>> = Arc::new((0..JOBS).map(|_| AtomicUsize::new(0)).collect());
        // Each state's own job tally, as the state last saw it; a state
        // takes its tally slot when it is built.
        let tallies: Arc<Vec<AtomicUsize>> =
            Arc::new((0..WORKERS).map(|_| AtomicUsize::new(0)).collect());
        let next_slot = Arc::new(AtomicUsize::new(0));
        let pool: WorkerPool<usize, (usize, usize)> = {
            let (ran, tallies) = (Arc::clone(&ran), Arc::clone(&tallies));
            WorkerPool::new(
                WORKERS,
                "test-pool",
                move || (next_slot.fetch_add(1, Ordering::Relaxed), 0usize),
                move |job: usize, (slot, count): &mut (usize, usize)| {
                    *count += 1; // per-worker state survives across jobs
                    ran[job].fetch_add(1, Ordering::Relaxed);
                    tallies[*slot].store(*count, Ordering::Relaxed);
                },
            )
        };
        for job in 0..JOBS {
            pool.submit(job);
        }
        drop(pool); // graceful: drains the queue before joining workers
        for (job, c) in ran.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {job}");
        }
        // A state rebuilt per job would leave every tally at 1.
        let total: usize = tallies.iter().map(|t| t.load(Ordering::Relaxed)).sum();
        assert_eq!(total, JOBS);
    }

    #[test]
    fn run_here_runs_on_the_caller_only_with_a_free_state() {
        let ran = Arc::new(AtomicUsize::new(0));
        let pool: WorkerPool<usize, usize> = {
            let ran = Arc::clone(&ran);
            WorkerPool::new(
                1,
                "test-pool",
                || 0,
                move |_job: usize, jobs_on_state: &mut usize| {
                    *jobs_on_state += 1;
                    ran.fetch_add(1, Ordering::Relaxed);
                },
            )
        };
        let me = std::thread::current().id();
        let mut ran_here = None;
        // Idle: the job runs here, on the pool's one state.
        let outer = pool.run_here(1, |job, jobs_on_state| {
            *jobs_on_state += 1;
            // The only state is held: a second job is handed back, and a
            // submitted one waits for the state instead of running.
            assert_eq!(pool.run_here(2, |_, _| ()), Err(2));
            pool.submit(3);
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(ran.load(Ordering::Relaxed), 0, "ran without a state");
            ran_here = Some((job, std::thread::current().id()));
        });
        assert_eq!(outer, Ok(()));
        assert_eq!(ran_here, Some((1, me)));
        // A panic resumes on the caller and leaves the pool serving.
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut attempt = pool.run_here(4, |_, _| panic!("inline job fault"));
            while let Err(job) = attempt {
                std::thread::yield_now(); // job 3 may still hold the state
                attempt = pool.run_here(job, |_, _| panic!("inline job fault"));
            }
        }))
        .expect_err("the inline panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline job fault"));
        pool.submit(5);
        drop(pool);
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "jobs 3 and 5 ran on the worker"
        );
    }

    #[test]
    fn empty_batch_and_empty_queries() {
        let (index, _) = setup();
        assert!(index.range_batch(&[], 0.5).is_empty());
        let res = index.range_batch(&[vec![]], 0.5);
        assert_eq!(res.len(), 1);
        let res = index.knn_batch(&[vec![9999]], 3);
        assert_eq!(res[0].hits.len(), 3, "kNN still returns k sets");
    }
}
