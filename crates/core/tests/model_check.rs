//! Exhaustive concurrency models for the atomic protocols in les3-core.
//!
//! Run with `cargo test -p les3-core --features model --test model_check`.
//! Under the `model` feature, [`les3_core::sync`] re-exports the vendored
//! loom-style checker, so the *real* protocol objects below
//! (`FrontShared`, `WorkerPool`, `QueryCtl`) execute on instrumented atomics and every
//! interleaving within the preemption bound is explored. The remaining
//! models are small, faithful mirrors of protocols whose production hosts
//! are too large to model whole (the snapshot busy guard of
//! `les3-net`); `docs/CONCURRENCY.md` maps each protocol to its model.
//!
//! Every passing test asserts `report.executions > 1`: the checker really
//! explored the schedule tree to completion, it did not see one lucky
//! interleaving. The `injected_*` tests drop one protocol step and
//! require the checker to fail — proof that the models have teeth, and a
//! template for pinning future ordering bugs (the checker's own suite,
//! `crates/shims/loom/tests/model.rs`, pins that a demoted ordering is
//! reported as a data race).

#![cfg(feature = "model")]

use std::collections::VecDeque;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::cell::Data;
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::{model, thread, Builder};

use les3_core::model_support::{FrontShared, WorkerPool};
use les3_core::{InterruptReason, OnFull, QueryCtl};

fn lock<'a, T>(m: &'a Mutex<T>) -> loom::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// (a) The admission gate (serve.rs::FrontShared).
// ---------------------------------------------------------------------------

/// The real `FrontShared` at capacity 1 under two competing producers:
/// in-flight never exceeds capacity (the `Data` cell would report a race
/// or the assert would fire if two requests were ever admitted at once),
/// and after both complete every admit has been released.
#[test]
fn admission_gate_capacity_is_never_exceeded() {
    let report = model(|| {
        let front = Arc::new(FrontShared::new(1));
        let active = Arc::new(Data::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (front, active) = (Arc::clone(&front), Arc::clone(&active));
                thread::spawn(move || {
                    front.admit(OnFull::Wait, None).expect("Wait never errors");
                    active.with_mut(|a| {
                        *a += 1;
                        assert!(*a <= 1, "two requests inside a capacity-1 gate");
                    });
                    active.with_mut(|a| *a -= 1);
                    front.release();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(front.in_flight(), 0, "an admit was never released");
    });
    assert!(report.executions > 1, "not exhaustive: {report:?}");
}

/// The abandon protocol pinned by `FrontShared::admit`'s deadline arm
/// (see the comment there): a timed waiter that gives up after being
/// woken MUST pass the wakeup on, because `release` only notifies one
/// waiter and the checker can always schedule the abandoner to be that
/// one. With the re-notify the gate is live in every schedule; the
/// `injected_abandon_without_renotify` variant below shows the starved
/// schedule the fix closes.
#[test]
fn admission_gate_abandon_must_renotify() {
    let report = model(|| abandon_gate_body(true));
    assert!(report.executions > 1, "not exhaustive: {report:?}");
}

#[test]
fn injected_abandon_without_renotify_starves_a_waiter() {
    let failure = Builder::default()
        .check_result(|| abandon_gate_body(false))
        .expect_err("swallowing release's notify_one must strand the peer");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// Mirror of the `FrontShared` gate loop with one slot, one holder, one
/// waiter that abandons (deadline expired) after its first wakeup, and
/// one waiter that insists. The real `admit` cannot be driven into the
/// abandon arm deterministically (it needs a real expired `Instant`),
/// so the mirror reproduces the exact lock/wait/notify shape.
fn abandon_gate_body(renotify: bool) {
    const CAPACITY: usize = 1;
    struct Gate {
        in_flight: Mutex<usize>,
        freed: Condvar,
    }
    impl Gate {
        fn release(&self) {
            *lock(&self.in_flight) -= 1;
            self.freed.notify_one();
        }
    }
    let gate = Arc::new(Gate {
        in_flight: Mutex::new(0),
        freed: Condvar::new(),
    });

    // Holder: admits immediately (runs first, before the waiters spawn),
    // then releases while both waiters may be parked.
    *lock(&gate.in_flight) += 1;

    let abandoner = {
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            let mut g = lock(&gate.in_flight);
            if *g < CAPACITY {
                // Got in: behave like any admitted request.
                *g += 1;
                drop(g);
                gate.release();
            } else {
                g = gate.freed.wait(g).unwrap_or_else(|e| e.into_inner());
                // Deadline expired: abandon. The buggy variant swallows
                // the wakeup `release` handed to us.
                if renotify {
                    gate.freed.notify_one();
                }
                drop(g);
            }
        })
    };
    let insister = {
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            let mut g = lock(&gate.in_flight);
            while *g >= CAPACITY {
                g = gate.freed.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            *g += 1;
            drop(g);
            gate.release();
        })
    };

    gate.release(); // the holder finishes; exactly one notify_one
    abandoner.join().unwrap();
    insister.join().unwrap();
    assert_eq!(*lock(&gate.in_flight), 0);
}

// ---------------------------------------------------------------------------
// (b) The worker pool's queue (batch.rs::WorkerPool).
// ---------------------------------------------------------------------------

/// The real `WorkerPool`: two workers, three submits, then `drop` — all
/// racing the workers' pop/park loop. In every schedule each job runs
/// exactly once and both threads join. That is two protocol facts: one
/// `notify_one` per push loses no wake-up (a worker parks only after
/// finding the queue empty under the lock the push takes), and the
/// shutdown flag, stored under that same lock, cannot land between a
/// worker's check and its park — a stranded worker would be reported as
/// a deadlock in `drop`'s join.
#[test]
fn worker_pool_runs_every_job_once_and_joins_on_drop() {
    let report = model(|| {
        const JOBS: usize = 3;
        let ran: Arc<Vec<Data<u32>>> = Arc::new((0..JOBS).map(|_| Data::new(0)).collect());
        let pool = {
            let ran = Arc::clone(&ran);
            WorkerPool::new(
                2,
                "model-pool",
                || (),
                move |job: usize, _state: &mut ()| ran[job].with_mut(|r| *r += 1),
            )
        };
        for job in 0..JOBS {
            pool.submit(job);
        }
        drop(pool); // drains, then joins both workers
        for (job, cell) in ran.iter().enumerate() {
            cell.with(|r| assert_eq!(*r, 1, "job {job} ran {r} times"));
        }
    });
    assert!(report.executions > 1, "not exhaustive: {report:?}");
}

/// The injected twin: a mirror of the pool's worker loop and `drop` with
/// the one change a "the flag is atomic anyway" refactor would make —
/// `shutdown` stored *outside* the queue lock. The store and the
/// broadcast can then both land after a worker saw `shutdown == false`
/// and before it parks, and the worker sleeps forever.
#[test]
fn injected_pool_shutdown_outside_the_lock_strands_a_worker() {
    struct Pool {
        queue: Mutex<VecDeque<u32>>,
        available: Condvar,
        shutdown: AtomicBool,
    }
    let failure = Builder::default()
        .check_result(|| {
            let pool = Arc::new(Pool {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            });
            let worker = {
                let pool = Arc::clone(&pool);
                thread::spawn(move || loop {
                    let mut queue = lock(&pool.queue);
                    while queue.pop_front().is_none() {
                        if pool.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        queue = pool
                            .available
                            .wait(queue)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                })
            };
            lock(&pool.queue).push_back(7);
            pool.available.notify_one();
            pool.shutdown.store(true, Ordering::Release); // not under the lock
            pool.available.notify_all();
            worker.join().unwrap();
        })
        .expect_err("the unguarded store can land in the check-to-park window");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

/// What a job does in the permit models: counts its run, touches the one
/// scratch — a second holder running at the same time would be an
/// unordered access the checker reports — and reports completion, so the
/// caller can wait for every job the way a blocked client waits for its
/// answer.
struct Ledger {
    ran: Vec<Data<u32>>,
    scratch: Data<u32>,
    done: Mutex<usize>,
    all_done: Condvar,
}

impl Ledger {
    fn new(jobs: usize) -> Arc<Self> {
        Arc::new(Ledger {
            ran: (0..jobs).map(|_| Data::new(0)).collect(),
            scratch: Data::new(0),
            done: Mutex::new(0),
            all_done: Condvar::new(),
        })
    }

    fn run(&self, job: usize) {
        self.scratch.with_mut(|s| *s += 1);
        self.ran[job].with_mut(|r| *r += 1);
        *lock(&self.done) += 1;
        self.all_done.notify_all();
    }

    /// Blocks until every job ran; a stranded one is a deadlock here.
    fn await_all(&self) {
        let mut done = lock(&self.done);
        while *done < self.ran.len() {
            done = self.all_done.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        for (job, cell) in self.ran.iter().enumerate() {
            cell.with(|r| assert_eq!(*r, 1, "job {job} ran {r} times"));
        }
    }
}

/// The real `WorkerPool` with one worker, so one state: a caller tries
/// `run_here` (submitting the job it is handed back) while two more jobs
/// are submitted, then every job is awaited and the pool dropped. In
/// every schedule each job runs exactly once, never two at a time (the
/// one state is the only permit; `Ledger::scratch` would report two
/// holders), and no job is stranded: a worker that found a job but no
/// state parks, and the `notify_one` with which `run_here` returns the
/// state is its wake-up.
#[test]
fn worker_pool_run_here_takes_the_only_state_and_strands_no_job() {
    let report = model(|| {
        let ledger = Ledger::new(3);
        // Dropped by hand at the end: were a failing schedule torn down
        // while the pool is alive, its `drop` would run mid-unwind.
        let pool = ManuallyDrop::new({
            let ledger = Arc::clone(&ledger);
            Arc::new(WorkerPool::new(
                1,
                "model-pool",
                || (),
                move |job: usize, _state: &mut ()| ledger.run(job),
            ))
        });
        let caller = {
            let (pool, ledger) = (Arc::clone(&pool), Arc::clone(&ledger));
            thread::spawn(move || {
                if let Err(job) = pool.run_here(0, |job, _state| ledger.run(job)) {
                    pool.submit(job);
                }
            })
        };
        pool.submit(1);
        pool.submit(2);
        caller.join().unwrap();
        ledger.await_all();
        drop(ManuallyDrop::into_inner(pool)); // the last handle: joins the worker
    });
    assert!(report.executions > 1, "not exhaustive: {report:?}");
}

/// The injected twin: a mirror of the pool with one state whose
/// `run_here` puts the state back *without* `notify_one`. The checker
/// finds the schedule where the worker saw the submitted job, found no
/// state and parked; nobody wakes it, and the job is stranded.
#[test]
fn injected_run_here_without_notify_strands_a_job() {
    struct Pool {
        /// Jobs, and the one state when it is free.
        inner: Mutex<(VecDeque<usize>, Option<()>)>,
        available: Condvar,
        shutdown: AtomicBool,
    }
    let failure = Builder::default()
        .check_result(|| {
            let ledger = Ledger::new(2);
            let pool = Arc::new(Pool {
                inner: Mutex::new((VecDeque::new(), Some(()))),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            });
            let worker = {
                let (pool, ledger) = (Arc::clone(&pool), Arc::clone(&ledger));
                thread::spawn(move || {
                    let mut inner = lock(&pool.inner);
                    loop {
                        if !inner.0.is_empty() && inner.1.is_some() {
                            let (job, state) = (inner.0.pop_front().unwrap(), inner.1.take());
                            drop(inner);
                            ledger.run(job);
                            inner = lock(&pool.inner);
                            inner.1 = state;
                        } else if inner.0.is_empty() && pool.shutdown.load(Ordering::Acquire) {
                            return;
                        } else {
                            inner = pool
                                .available
                                .wait(inner)
                                .unwrap_or_else(|e| e.into_inner());
                        }
                    }
                })
            };
            let caller = {
                let (pool, ledger) = (Arc::clone(&pool), Arc::clone(&ledger));
                thread::spawn(move || {
                    let state = {
                        let mut inner = lock(&pool.inner);
                        if inner.0.is_empty() {
                            inner.1.take()
                        } else {
                            None
                        }
                    };
                    if state.is_some() {
                        ledger.run(0);
                        lock(&pool.inner).1 = state; // no notify_one
                    } else {
                        lock(&pool.inner).0.push_back(0);
                        pool.available.notify_one();
                    }
                })
            };
            lock(&pool.inner).0.push_back(1);
            pool.available.notify_one();
            caller.join().unwrap();
            ledger.await_all();
            {
                let _inner = lock(&pool.inner);
                pool.shutdown.store(true, Ordering::Release);
            }
            pool.available.notify_all();
            worker.join().unwrap();
        })
        .expect_err("a state returned without a wake-up must strand the queued job");
    assert!(failure.message.contains("deadlock"), "{failure}");
}

// ---------------------------------------------------------------------------
// (c) The snapshot busy guard (les3-net server.rs).
// ---------------------------------------------------------------------------

/// Mirror of the `POST /snapshot` single-flight guard: `swap(true,
/// AcqRel)` admits one snapshot, a drop guard stores `false` with
/// `Release` on *every* exit — including unwinding out of a failed
/// checkpoint. In every schedule at most one thread is inside (a second
/// concurrent entrant would race on `scratch`), and the flag is clear at
/// the end even though one snapshot panics.
#[test]
fn snapshot_busy_guard_clears_on_panic_and_single_flights() {
    let report = model(|| {
        struct Clear(Arc<AtomicBool>);
        impl Drop for Clear {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let busy = Arc::new(AtomicBool::new(false));
        let scratch = Arc::new(Data::new(0u32));

        let handles: Vec<_> = (0..2)
            .map(|who| {
                let (busy, scratch) = (Arc::clone(&busy), Arc::clone(&scratch));
                thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if busy.swap(true, Ordering::AcqRel) {
                            return false; // shed: a snapshot is in flight
                        }
                        let _clear = Clear(Arc::clone(&busy));
                        // Exclusive access to the checkpoint scratch: any
                        // second entrant would be an unordered write.
                        scratch.with_mut(|s| *s = who);
                        assert!(who != 0, "checkpoint failed"); // t0's snapshot dies
                        true
                    }));
                    match outcome {
                        Ok(ran) => {
                            assert!(who != 0 || !ran, "t0 must panic when it runs");
                        }
                        Err(_) => assert_eq!(who, 0, "only t0's snapshot panics"),
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            !busy.load(Ordering::Acquire),
            "busy flag leaked: a panicking snapshot bricked /snapshot"
        );
    });
    assert!(report.executions > 1, "not exhaustive: {report:?}");
}

// ---------------------------------------------------------------------------
// Satellite: cancellation (ctl.rs::QueryCtl + serve.rs::Ticket::cancel).
// ---------------------------------------------------------------------------

/// The real `QueryCtl` against the real cancel protocol: the canceller
/// writes its reason, then stores the flag with `Release` exactly as
/// `Ticket::cancel` does; the query polls at each group boundary. In
/// every schedule the query stops at the first boundary that observes
/// the flag — never later — and the reason payload is readable through
/// the Acquire edge without a race.
#[test]
fn cancellation_is_observed_at_the_next_group_boundary() {
    let report = model(|| {
        const GROUPS: u32 = 3;
        let flag = AtomicBool::new(false);
        let reason = Data::new(0u32);
        let progressed = Data::new(0u32);

        thread::scope(|s| {
            s.spawn(|| {
                reason.with_mut(|r| *r = 42);
                flag.store(true, Ordering::Release); // Ticket::cancel
            });
            s.spawn(|| {
                let ctl = QueryCtl::new(None, Some(&flag));
                for _group in 0..GROUPS {
                    match ctl.interrupted() {
                        Some(InterruptReason::Cancelled) => {
                            // The Release store ordered the reason write
                            // before our Acquire observation.
                            reason.with(|r| assert_eq!(*r, 42));
                            return;
                        }
                        Some(other) => panic!("impossible interrupt {other:?}"),
                        None => progressed.with_mut(|p| *p += 1),
                    }
                }
                // Ran to completion: the cancel landed after our last
                // poll, which is the one group of slack the protocol
                // allows.
                progressed.with(|p| assert_eq!(*p, GROUPS));
            });
        });
        assert!(flag.load(Ordering::Acquire));
        progressed.with(|p| assert!(*p <= GROUPS));
    });
    assert!(report.executions > 1, "not exhaustive: {report:?}");
}
