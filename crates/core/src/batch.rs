//! The serving front's worker pool, and the batch kNN entry point the
//! repository benchmark calls.
//!
//! * [`WorkerPool`] — used by the serving front
//!   ([`crate::serve::ServeFront`]): long-lived named threads popping
//!   one job at a time off a FIFO queue, each job together with one of
//!   the pool's scratch states. The states are the execution permits: a
//!   caller about to block on its job can run it on its own thread
//!   instead ([`WorkerPool::run_here`]) when a state is free and nothing
//!   is queued. A job is a whole unit of work (the front's is one
//!   request), so a free state is all the load balancing there is.
//!   Dropping the pool drains every submitted job before joining — the
//!   serving front's graceful-shutdown guarantee rests on this.
//! * [`Les3Index::knn_batch_on`] — a batch of kNN queries split into one
//!   contiguous chunk per thread (`rayon::run_workers`), each thread with
//!   one scratch. It stays only because the repository benchmark calls
//!   it (ROADMAP 1(f)); a loop over
//!   [`knn_with`](crate::ShardedLes3Index::knn_with) is the same answers
//!   on one thread.
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
//! let batch = index.knn_batch_on(2, 1, &queries, 2);
//! // One result per query, in input order, equal to per-query calls.
//! assert_eq!(batch[0], index.knn(&queries[0], 2));
//! assert_eq!(batch[1], index.knn(&queries[1], 2));
//! ```

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use les3_data::TokenId;

use crate::index::{Les3Index, SearchResult};
use crate::scratch::QueryScratch;
use crate::sim::Similarity;

/// Locks a mutex, recovering the guard when a panicking job left it
/// poisoned. Every mutex in this module protects data that is either
/// written exactly once or re-validated by the caller, so a poisoned
/// lock carries no corruption the pool's panic handling does not
/// already account for.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A persistent worker pool, for callers that outlive any single batch
/// (the serving front's [`crate::serve::ServeFront`]).
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

impl<S: Similarity> Les3Index<S> {
    /// Answers every query as a kNN search on `workers` threads (0 and 1
    /// both mean the calling thread). Each thread takes one contiguous
    /// chunk of the batch and one scratch, and hands its answers back
    /// once; they return in input order, equal to per-query
    /// [`knn`](crate::ShardedLes3Index::knn) calls. `_intra` is ignored. A
    /// panicking query panics the call, as `search` does.
    pub fn knn_batch_on(
        &self,
        workers: usize,
        _intra: usize,
        queries: &[Vec<TokenId>],
        k: usize,
    ) -> Vec<SearchResult> {
        if queries.is_empty() {
            return Vec::new();
        }
        let chunks: Vec<&[Vec<TokenId>]> = queries
            .chunks(queries.len().div_ceil(workers.max(1)))
            .collect();
        let answers = Mutex::new(vec![Vec::new(); chunks.len()]);
        rayon::run_workers(chunks.len(), |w| {
            let mut scratch = QueryScratch::new();
            let mine = chunks[w]
                .iter()
                .map(|q| self.knn_with(q, k, &mut scratch))
                .collect();
            lock_unpoisoned(&answers)[w] = mine;
        });
        let answers = answers
            .into_inner()
            .expect("a panicking worker panics run_workers before this");
        answers.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::Partitioning;
    use crate::sim::Jaccard;
    use crate::sync::atomic::AtomicUsize;
    use les3_data::zipfian::ZipfianGenerator;

    fn setup() -> Les3Index<Jaccard> {
        let db = ZipfianGenerator::new(400, 300, 7.0, 1.1).generate(71);
        Les3Index::build(db, Partitioning::round_robin(400, 16), Jaccard)
    }

    #[test]
    fn knn_batch_preserves_order_and_results_at_any_width() {
        let index = setup();
        let queries: Vec<Vec<TokenId>> = (0..100u32)
            .map(|i| index.db().set(i * 3 % 400).to_vec())
            .collect();
        // 0 and 1 run inline; 7 leaves a short last chunk; 150 is more
        // threads than queries.
        for workers in [0usize, 1, 2, 7, 150] {
            let batch = index.knn_batch_on(workers, 1, &queries, 5);
            assert_eq!(batch.len(), queries.len());
            for (q, b) in queries.iter().zip(&batch) {
                assert_eq!(b, &index.knn(q, 5), "workers {workers}");
            }
        }
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
        let index = setup();
        assert!(index.knn_batch_on(2, 1, &[], 3).is_empty());
        let res = index.knn_batch_on(2, 1, &[vec![], vec![9999]], 3);
        assert_eq!(res.len(), 2);
        assert_eq!(res[1].hits.len(), 3, "kNN still returns k sets");
    }
}
