//! Asynchronous serving front: an admission gate (backpressure,
//! per-request deadlines, cancellation) in front of a FIFO queue and a
//! persistent worker pool.
//!
//! The engine answers a query on the caller's thread. A search service
//! wants more than that: queries arrive one at a time on many connection
//! threads, and the service has to bound how much work it has accepted,
//! stop work nobody is waiting for, and survive a query that panics.
//! LES3 answers every query on its own (count its TGM columns, order the
//! groups by the bound, verify group by group), so requests have nothing
//! to share and [`ServeFront`] never holds one back to wait for company:
//! **one request runs on one thread**, and a caller that blocks on its
//! request runs it itself when nothing forces a hand-off.
//!
//! 1. **Admit.** Producer threads call [`ServeFront::run`] (blocking,
//!    with the caller's own "is anybody still waiting?" check),
//!    [`ServeFront::knn`] / [`ServeFront::range`] (blocking) or
//!    [`ServeFront::submit`] (returning a [`Ticket`]) with one owned
//!    [`Request`] — tokens, [`Kind`], [`ApproxPolicy`], [`Route`] (the
//!    default route, or a namespace with its [`Filters`]) and
//!    [`SubmitOpts`]. All of them pass one bounded gate
//!    ([`ServeConfig::queue_capacity`]) that caps the
//!    **accepted-but-unfinished** requests: when it is full, fire-and-
//!    forget submissions are shed immediately with
//!    [`ServeError::Overloaded`] (load shedding — overload degrades
//!    into fast rejections, not unbounded queueing), while the blocking
//!    calls and [`OnFull::Wait`] submissions park until capacity frees
//!    (backpressure).
//! 2. **Run here, or queue.** The pool owns one [`QueryScratch`] per
//!    worker, and a request executes only while it holds one: the
//!    scratches are the execution permits. A blocking call whose request
//!    finds no request queued and a scratch free runs it on the calling
//!    thread ([`WorkerPool::run_here`]) — no hand-off at all. Otherwise
//!    the request goes onto the pool's FIFO queue, waking one parked
//!    worker, and the caller waits in [`PROBE_INTERVAL`] slices. A
//!    [`submit`](ServeFront::submit) always queues: its caller is not
//!    going to wait yet. Either way at most `workers` requests execute at
//!    once, and queued requests keep their FIFO priority.
//! 3. **Execute.** A scratch serves the default route and every
//!    namespace alike, so steady-state serving allocates nothing per
//!    request and borrows nothing from the index it queries. A queued
//!    request that died while queued (deadline passed, ticket cancelled)
//!    is completed at the pop without running. Otherwise it runs the
//!    engine's one `search` under a [`QueryCtl`]: the deadline and
//!    cancellation token — and, for a request running on its caller's
//!    thread, the caller's `gone` check — are polled between the phase-A
//!    filter and verification and at every group boundary, so a request
//!    that expires or is cancelled *mid-flight* stops consuming CPU at
//!    the next boundary instead of running to completion. A request runs
//!    on one thread, start to finish, and its route records it: the
//!    default route and every [`Namespace`] each own their aggregate.
//! 4. **Complete.** The request's slot is filled with its
//!    [`SearchResult`] (releasing its unit of queue capacity); results
//!    are **bit-for-bit identical** — hits *and* [`SearchStats`] — to
//!    calling
//!    [`knn_with`](crate::ShardedLes3Index::knn_with) /
//!    [`range_with`](crate::ShardedLes3Index::range_with) directly
//!    (`tests/serve_front.rs` proves it under racing producers).
//!
//! The default route answers from a shared engine
//! ([`ServeFront::new`] / [`ServeFront::from_arc`]) or from the engine of
//! a [`LiveIndex`] ([`ServeFront::from_live`]) — the same answers either
//! way, since an engine's candidates are its live sets. The two differ in
//! what [`ServeFront::save`] can write: a bare engine has no tombstones
//! or attributes to snapshot.
//!
//! # Admission control
//!
//! Every submitted request resolves to exactly one of four outcomes —
//! no hangs, no lost tickets:
//!
//! | outcome | meaning |
//! |---|---|
//! | `Ok(result)` | identical to the direct call, bit for bit |
//! | [`ServeError::Overloaded`] | shed at admission: the bounded queue was full |
//! | [`ServeError::DeadlineExceeded`] | the request's deadline passed — at submit, while queued, or mid-flight (carries the partial [`SearchStats`]) |
//! | [`ServeError::Cancelled`] | its [`Ticket`] was dropped or [`cancel`](Ticket::cancel)-ed (carries the partial [`SearchStats`]) |
//!
//! ([`ServeError::QueryPanicked`] — see *Panic isolation* below — is the
//! defect path, not an admission outcome.) One modifier: under
//! [`ApproxPolicy::Anytime`] (see [`Request::approx`]) the deadline row
//! changes meaning — expiry
//! *commits* the partial answer as `Ok` (with an approximation verdict
//! readable through [`Ticket::wait_full`]) instead of rejecting, so an
//! anytime request only ever fails with `Overloaded` or `Cancelled`.
//! [`ServeFront::stats`] returns
//! an aggregate [`SearchStats`] over the front's
//! lifetime: the work counters sum every query executed (including the
//! partial work of interrupted ones) and the new `shed` / `expired` /
//! `cancelled` counters count the rejections, so shed rate and goodput
//! fall straight out of one snapshot.
//!
//! # Example: submit, deadline, aggregate counters
//!
//! ```
//! use les3_core::serve::{OnFull, Request, ServeConfig, ServeError, ServeFront, SubmitOpts};
//! use les3_core::sim::Jaccard;
//! use les3_core::{ApproxPolicy, Les3Index, Partitioning};
//! use les3_data::SetDatabase;
//! use std::time::Instant;
//!
//! let db = SetDatabase::from_sets(vec![vec![0u32, 1, 2], vec![0, 1, 3], vec![7, 8]]);
//! let index = Les3Index::build(db, Partitioning::round_robin(3, 2), Jaccard);
//! let front = ServeFront::new(
//!     index,
//!     ServeConfig {
//!         workers: 1,
//!         queue_capacity: 2, // at most 2 accepted-but-unfinished requests
//!     },
//! );
//! let t1 = front.submit(Request::knn(vec![0, 1, 2], 2));
//! // Parks if the queue is full, and commits a partial answer if a
//! // deadline passed (none is set, so it completes).
//! let t2 = front.submit(Request {
//!     approx: ApproxPolicy::Anytime,
//!     opts: SubmitOpts {
//!         on_full: OnFull::Wait,
//!         ..Default::default()
//!     },
//!     ..Request::range(vec![0, 1, 3], 0.5)
//! });
//! // A request whose deadline has already passed never runs at all:
//! let late = front.submit(Request {
//!     opts: SubmitOpts {
//!         deadline: Some(Instant::now()),
//!         ..Default::default()
//!     },
//!     ..Request::knn(vec![0, 1], 2)
//! });
//! match late.wait() {
//!     Err(ServeError::DeadlineExceeded(stats)) => assert_eq!(stats.groups_verified, 0),
//!     other => panic!("expected a deadline rejection, got {other:?}"),
//! }
//! // The admitted requests complete, identical to direct calls.
//! assert_eq!(t1.wait().unwrap(), front.backend().knn(&[0, 1, 2], 2));
//! assert_eq!(t2.wait().unwrap(), front.backend().range(&[0, 1, 3], 0.5));
//! // A blocking call finds the worker's scratch free and the queue empty,
//! // so it runs on this thread; `gone` would cancel it (never, here).
//! let (answer, _verdict) = front.run(Request::knn(vec![7, 8], 1), &|| false).unwrap();
//! assert_eq!(answer, front.backend().knn(&[7, 8], 1));
//! let agg = front.stats();
//! assert_eq!((agg.shed, agg.expired, agg.cancelled), (0, 1, 0));
//! ```
//!
//! Overload needs a worker held busy to be deterministic, so it is shown
//! where a test can hold one: a third submission against a full
//! `queue_capacity: 2` resolves to [`ServeError::Overloaded`] in
//! `bounded_queue_sheds_overflow_and_respects_capacity`
//! (`tests/serve_front.rs`).
//!
//! # Panic isolation
//!
//! A query that panics (a defective similarity implementation, a
//! corrupted input), on a worker or on its caller's thread, fails **only
//! its own request**: the panic is caught, the request completes with
//! [`ServeError::QueryPanicked`], the scratch is rebuilt
//! ([`QueryScratch::reset`]) and the pool keeps serving — no poisoned
//! mutexes, no dead workers, no hung tickets.
//!
//! # Shutdown
//!
//! Dropping the front is graceful: already-accepted requests are
//! executed (or skipped, if expired/cancelled by then) and completed
//! before the worker threads join, so a [`Ticket`] obtained before the
//! drop can always be waited on after it.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Arc, Condvar, Mutex};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use les3_data::TokenId;

use crate::approx::{ApproxInfo, ApproxPolicy};
use crate::batch::{lock_unpoisoned, WorkerPool};
use crate::ctl::{InterruptReason, Interrupted, QueryCtl};
use crate::index::SearchResult;
use crate::live::LiveIndex;
use crate::metadata::Filters;
use crate::namespace::{Namespace, NamespaceError, Namespaces};
use crate::persist::{self, PersistentBackend};
use crate::query::{Kind, Query, SearchOutcome};
use crate::scratch::QueryScratch;
use crate::stats::{SearchStats, StatsRecord};

/// Tuning knobs for a [`ServeFront`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads in the persistent pool; `0` means one per
    /// available core.
    pub workers: usize,
    /// Cap on **accepted-but-unfinished** requests — everything admitted
    /// (queued or executing) and not yet completed (clamped to
    /// ≥ 1). When the queue is full, [`OnFull::Shed`] submissions are
    /// rejected with [`ServeError::Overloaded`] and [`OnFull::Wait`]
    /// ones block until capacity frees. The default (`usize::MAX`) is
    /// effectively unbounded.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: usize::MAX,
        }
    }
}

impl ServeConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            crate::sync::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Why a served request did not produce a [`SearchResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed at admission: the front's bounded queue
    /// ([`ServeConfig::queue_capacity`]) was full. The request consumed
    /// no query CPU at all.
    Overloaded,
    /// The request's deadline passed — at submission, while queued, or
    /// mid-flight. Carries the partial [`SearchStats`] of whatever work
    /// ran before the stop (all-zero when the request never started
    /// running; `groups_verified == 0` whenever it expired before
    /// verification began).
    DeadlineExceeded(SearchStats),
    /// The request's [`Ticket`] was dropped or
    /// [`cancel`](Ticket::cancel)-ed. Carries the partial
    /// [`SearchStats`], as for `DeadlineExceeded`.
    Cancelled(SearchStats),
    /// The request named a namespace the registry does not know (or one
    /// already dropped at submit time). Namespace resolution happens at
    /// submission: a namespace dropped *after* admission still answers,
    /// against the retained handle.
    UnknownNamespace(String),
    /// The query panicked inside a worker. Only this request failed; the
    /// pool and every other in-flight request are unaffected. Carries
    /// the panic message.
    QueryPanicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request shed: serving queue is full"),
            ServeError::DeadlineExceeded(_) => write!(f, "request deadline exceeded"),
            ServeError::Cancelled(_) => write!(f, "request cancelled"),
            ServeError::UnknownNamespace(name) => write!(f, "unknown namespace: {name}"),
            ServeError::QueryPanicked(msg) => write!(f, "query panicked in worker: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a served request resolves to.
pub type ServeResult = Result<SearchResult, ServeError>;

/// A [`ServeResult`] with its approximation verdict — what a request's
/// slot holds and [`Ticket::wait_full`] returns.
type ServeResultFull = Result<(SearchResult, ApproxInfo), ServeError>;

/// What a submission does when the bounded queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OnFull {
    /// Reject immediately with [`ServeError::Overloaded`] (load
    /// shedding — the default).
    #[default]
    Shed,
    /// Block until capacity frees (backpressure). With a deadline set,
    /// blocks at most until the deadline, then resolves to
    /// [`ServeError::DeadlineExceeded`].
    Wait,
}

/// How a request is admitted: what the admission gate reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOpts {
    /// Drop-dead time: past this instant the request is shed (at submit,
    /// or unrun when a worker reaches it) or interrupted at the next
    /// phase/group boundary (mid-flight), resolving to
    /// [`ServeError::DeadlineExceeded`] — unless the request is
    /// [`ApproxPolicy::Anytime`], which commits instead (see
    /// [`Request::approx`]). `None` means "run to completion".
    pub deadline: Option<Instant>,
    /// Full-queue behavior; see [`OnFull`].
    pub on_full: OnFull,
}

/// How often a caller blocked on its request asks its `gone` check
/// ([`ServeFront::run`]): between waits while the request is queued, and
/// at the query's phase and group boundaries while it runs on the
/// caller's thread. Shorter means abandoned requests stop sooner, at the
/// cost of more checks (a socket probe each, over HTTP).
pub const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// The boundaries between clock reads of [`ServeFront::run`]'s inline
/// probe once a query has passed its first this many. A clock read costs
/// ≈ 48 ns (2-core x86-64 container) and a kNN of `serve_closed`'s shape
/// crosses ≈ 180 group boundaries, while the probe may ask only once per
/// [`PROBE_INTERVAL`]; reading at each of the first boundaries keeps a
/// slow query's reaction time, since one whose groups take long has few
/// of them.
const CLOCK_STRIDE: u32 = 16;

/// Parks on a full queue, no deadline: what the blocking calls submit
/// with.
const WAIT: SubmitOpts = SubmitOpts {
    deadline: None,
    on_full: OnFull::Wait,
};

/// Where a served request runs.
#[derive(Debug, Clone)]
pub enum Route {
    /// The front's own index.
    Default,
    /// The named namespace of [`ServeFront::namespaces`], answering only
    /// the sets the [`Filters`] admit ([`Filters::none`] runs the
    /// unfiltered path). The name is resolved at submission.
    Namespace(String, Filters),
}

/// One served query, owned: the [`Query`] fields a client sets, the
/// route it runs on and how it is admitted. Build with [`Request::knn`] /
/// [`Request::range`] and override fields with struct-update syntax.
#[derive(Debug, Clone)]
pub struct Request {
    /// The query set's tokens.
    pub tokens: Vec<TokenId>,
    /// kNN or range.
    pub kind: Kind,
    /// The query's [`Query::approx`] (default [`ApproxPolicy::Exact`]).
    /// Under [`ApproxPolicy::Anytime`] the deadline changes meaning:
    /// instead of rejecting with [`ServeError::DeadlineExceeded`], expiry
    /// **commits** the partial answer gathered so far (exact
    /// similarities, coverage-based recall estimate) — so an anytime
    /// request is never shed for a passed deadline, at submit, while
    /// queued, or mid-flight. Read the verdict with
    /// [`Ticket::wait_full`].
    pub approx: ApproxPolicy,
    /// The default route, or a namespace with its filters.
    pub route: Route,
    /// Deadline and full-queue behavior.
    pub opts: SubmitOpts,
}

impl Request {
    /// An exact request on the default route, shed on a full queue.
    pub fn new(tokens: Vec<TokenId>, kind: Kind) -> Self {
        Self {
            tokens,
            kind,
            approx: ApproxPolicy::Exact,
            route: Route::Default,
            opts: SubmitOpts::default(),
        }
    }

    /// [`Request::new`] for the `k` nearest neighbours.
    pub fn knn(tokens: Vec<TokenId>, k: usize) -> Self {
        Self::new(tokens, Kind::Knn(k))
    }

    /// [`Request::new`] for every set within `delta`.
    pub fn range(tokens: Vec<TokenId>, delta: f64) -> Self {
        Self::new(tokens, Kind::Range(delta))
    }
}

/// The admission gate shared by the front and every outstanding request:
/// the bounded count of accepted-but-unfinished requests and the
/// counters of the requests it turned away.
pub struct FrontShared {
    /// Cap on accepted-but-unfinished requests (≥ 1).
    capacity: usize,
    /// Accepted-but-unfinished count; the invariant `in_flight ≤
    /// capacity` holds at every instant because admission increments
    /// under this mutex and completion decrements before any waiter is
    /// woken.
    in_flight: Mutex<usize>,
    /// Signalled on every release (a completion freeing capacity).
    freed: Condvar,
    /// `shed` and `expired` of the requests rejected at admission, on
    /// the producer threads. Cold — one uncontended lock per *rejected*
    /// request.
    rejected: Mutex<SearchStats>,
}

impl FrontShared {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            rejected: Mutex::new(SearchStats::default()),
        }
    }

    /// Counts a rejection [`FrontShared::admit`] returned.
    fn note_rejected(&self, err: &ServeError) {
        let mut rejected = lock_unpoisoned(&self.rejected);
        match err {
            ServeError::Overloaded => rejected.shed += 1,
            _ => rejected.expired += 1,
        }
    }

    /// Takes one unit of queue capacity, or reports why it cannot.
    /// Checks the deadline first: a request already expired at submit is
    /// a deadline miss, not an overload, whatever the queue looks like.
    pub fn admit(&self, on_full: OnFull, deadline: Option<Instant>) -> Result<(), ServeError> {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ServeError::DeadlineExceeded(SearchStats::default()));
        }
        let mut in_flight = lock_unpoisoned(&self.in_flight);
        loop {
            if *in_flight < self.capacity {
                *in_flight += 1;
                return Ok(());
            }
            match (on_full, deadline) {
                (OnFull::Shed, _) => return Err(ServeError::Overloaded),
                (OnFull::Wait, None) => {
                    in_flight = self
                        .freed
                        .wait(in_flight)
                        .unwrap_or_else(|e| e.into_inner());
                }
                (OnFull::Wait, Some(d)) => {
                    let now = Instant::now();
                    if now >= d {
                        // This waiter may be the one `release`'s
                        // notify_one chose. Swallowing that wakeup
                        // leaves the remaining waiters' progress resting
                        // on the accident that the capacity check above
                        // runs before this deadline check; an abandoning
                        // waiter that does NOT pass the wakeup on is
                        // exactly the pattern the model checker shows
                        // starving a peer (tests/model_check.rs,
                        // `admission_gate_abandon_must_renotify`), so
                        // hand it to the next waiter. A spurious extra
                        // notify is harmless: every waiter re-checks
                        // capacity under the lock.
                        self.freed.notify_one();
                        return Err(ServeError::DeadlineExceeded(SearchStats::default()));
                    }
                    in_flight = self
                        .freed
                        .wait_timeout(in_flight, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

    /// Returns one unit of queue capacity (a request completed).
    pub fn release(&self) {
        {
            let mut in_flight = lock_unpoisoned(&self.in_flight);
            debug_assert!(*in_flight > 0, "release without admit");
            *in_flight = in_flight.saturating_sub(1);
        }
        self.freed.notify_one();
    }

    pub fn in_flight(&self) -> usize {
        *lock_unpoisoned(&self.in_flight)
    }
}

/// One-shot completion slot shared between a request and its ticket,
/// carrying the request's cancellation token and — once admitted — the
/// capacity unit it returns on completion.
struct Slot {
    cell: Mutex<Option<ServeResultFull>>,
    done: Condvar,
    /// The cancellation token: set by [`Ticket::cancel`], the ticket's
    /// drop or a [`ServeFront::run`] caller whose `gone` check fired;
    /// polled by the worker when it pops the request and at every
    /// phase/group boundary.
    cancelled: AtomicBool,
    /// `Some` for admitted requests: completing the slot releases their
    /// unit of the bounded queue's capacity.
    front: Option<Arc<FrontShared>>,
}

impl Slot {
    /// A slot for an admitted request, holding one capacity unit.
    fn admitted(front: Arc<FrontShared>) -> Self {
        Self {
            cell: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            front: Some(front),
        }
    }

    /// A pre-resolved slot (a submission rejected without admission).
    fn resolved(err: ServeError) -> Self {
        Self {
            cell: Mutex::new(Some(Err(err))),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            front: None,
        }
    }

    fn put(&self, value: ServeResultFull) {
        {
            let mut cell = lock_unpoisoned(&self.cell);
            debug_assert!(cell.is_none(), "slot completed twice");
            *cell = Some(value);
        }
        // Free the capacity unit only after the result is visible, so
        // "accepted-but-unfinished ≤ capacity" never over-counts.
        if let Some(front) = &self.front {
            front.release();
        }
        self.done.notify_all();
    }

    fn wait(&self) -> ServeResultFull {
        let mut cell = lock_unpoisoned(&self.cell);
        loop {
            if let Some(value) = cell.take() {
                return value;
            }
            cell = self.done.wait(cell).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Like [`Slot::wait`], but gives up at `deadline`; `None` means the
    /// request is still in flight (the result stays in the slot).
    fn wait_until(&self, deadline: Instant) -> Option<ServeResultFull> {
        let mut cell = lock_unpoisoned(&self.cell);
        loop {
            if let Some(value) = cell.take() {
                return Some(value);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            cell = self
                .done
                .wait_timeout(cell, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }
}

/// A handle onto one submitted request; [`Ticket::wait`] blocks until a
/// worker completes it. Tickets outlive the front: one obtained before
/// the front drops resolves during the front's graceful drain.
///
/// The ticket doubles as the request's **cancellation token**: calling
/// [`Ticket::cancel`] — or dropping the ticket without waiting — marks
/// the request so queued work is skipped and in-flight verification
/// stops at the next group boundary, resolving it to
/// [`ServeError::Cancelled`].
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// A ticket already resolved to a rejection that took no capacity.
    fn resolved(err: ServeError) -> Self {
        Self {
            slot: Arc::new(Slot::resolved(err)),
        }
    }

    /// Blocks until the request completes and returns its result.
    pub fn wait(self) -> ServeResult {
        self.wait_full().map(|(result, _)| result)
    }

    /// [`Ticket::wait`] plus the approximation verdict: `approx` is
    /// `false` (estimate 1) for every exact answer — including anytime
    /// requests that finished in time — and `true` with a recall
    /// estimate for prefiltered or deadline-committed partial ones.
    pub fn wait_full(self) -> Result<(SearchResult, ApproxInfo), ServeError> {
        self.slot.wait()
    }

    /// Cancels the request: queued work is skipped, in-flight
    /// verification aborts at the next group boundary. The ticket stays
    /// waitable — [`Ticket::wait`] then observes either
    /// [`ServeError::Cancelled`] or, if the request won the race by
    /// finishing first, its ordinary result.
    pub fn cancel(&self) {
        self.slot.cancel();
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // An abandoned ticket means nobody will read the answer: treat
        // it as a cancellation so the request stops consuming CPU. (For
        // waited tickets this fires after completion and is a no-op.)
        self.slot.cancel();
    }
}

/// Where an admitted request runs: the front's own index (the default
/// route), or a namespace resolved at submit time, carrying its decoded
/// attribute filters.
enum Target {
    Default,
    Ns(Arc<Namespace>, Filters),
}

impl Target {
    /// Runs `q` on this route, which records it.
    fn search<B: PersistentBackend>(
        &self,
        route: &DefaultRoute<B>,
        q: &Query<'_>,
        scratch: &mut QueryScratch,
    ) -> SearchOutcome {
        match self {
            Target::Default => route.search(q, scratch),
            Target::Ns(ns, filters) => ns.search(q, filters, scratch),
        }
    }

    /// Where this route records its queries.
    fn record<'r, B: PersistentBackend>(&'r self, route: &'r DefaultRoute<B>) -> &'r StatsRecord {
        match self {
            Target::Default => &route.agg,
            Target::Ns(ns, _) => ns.record(),
        }
    }
}

/// What the default route answers from. It is typed, shared and
/// read-only — library callers query the same `Arc` directly — which is
/// what sets it apart from a namespace (owned, mutable, type-erased,
/// behind a lock).
enum Served<B: PersistentBackend> {
    /// A shared engine; saved as an index nothing was deleted from.
    Engine(Arc<B>),
    /// An index with its deletion log and attributes, saved with both.
    Live(LiveIndex<B>),
}

/// The front's own route: its index and the record of every query it
/// ran, kept the way a [`Namespace`] keeps its own.
struct DefaultRoute<B: PersistentBackend> {
    served: Served<B>,
    agg: StatsRecord,
}

impl<B: PersistentBackend> DefaultRoute<B> {
    fn engine(&self) -> &B {
        match &self.served {
            Served::Engine(engine) => engine,
            Served::Live(live) => live.engine(),
        }
    }

    fn search(&self, q: &Query<'_>, scratch: &mut QueryScratch) -> SearchOutcome {
        let out = self.engine().sharded().search(q, scratch);
        self.agg.note(&out);
        out
    }
}

/// An admitted request, its route resolved: queued on the pool or run on
/// its caller's thread.
struct Job {
    tokens: Vec<TokenId>,
    kind: Kind,
    approx: ApproxPolicy,
    target: Target,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
}

/// Runs one job with a pool scratch — on the worker that popped it, or
/// on its caller's thread with the caller's `gone` check, which the query
/// polls from its first boundary on — and completes its slot. The start
/// is the only place a queued request can die; otherwise its route's
/// `search` runs it and records it.
fn serve_one<B: PersistentBackend>(
    route: &DefaultRoute<B>,
    job: Job,
    scratch: &mut QueryScratch,
    gone: Option<&dyn Fn() -> bool>,
) {
    let ctl = QueryCtl::new(job.deadline, Some(&job.slot.cancelled));
    let out = match ctl.interrupted() {
        // Dead on arrival (expired or cancelled while queued): skip the
        // query entirely — zero stats, zero CPU — and record it where its
        // route records queries. Exception: an expired *anytime* request
        // still runs — its contract converts expiry into a committed
        // partial answer, never a rejection (only cancellation skips it).
        Some(reason) if !(job.approx.is_anytime() && reason == InterruptReason::Expired) => {
            let stats = SearchStats::default();
            let out = Err(Interrupted { reason, stats });
            job.target.record(route).note(&out);
            out
        }
        // One request runs on one thread.
        _ => {
            let q = Query {
                ctl: gone.map_or(ctl, |gone| ctl.or_gone(gone)),
                approx: job.approx,
                ..Query::new(&job.tokens, job.kind)
            };
            match catch_unwind(AssertUnwindSafe(|| job.target.search(route, &q, scratch))) {
                Ok(out) => out,
                Err(payload) => {
                    // The panicked query may have left scratch invariants
                    // violated mid-update; rebuild before the next request.
                    scratch.reset();
                    // `&*` matters: `&payload` would coerce the Box itself
                    // into `dyn Any` and every downcast would miss.
                    let msg = panic_message(&*payload);
                    return job.slot.put(Err(ServeError::QueryPanicked(msg)));
                }
            }
        }
    };
    job.slot
        .put(out.map_err(|interrupted| match interrupted.reason {
            InterruptReason::Expired => ServeError::DeadlineExceeded(interrupted.stats),
            InterruptReason::Cancelled => ServeError::Cancelled(interrupted.stats),
        }));
}

/// The text of a caught panic: its `&str` or `String` payload, else a
/// fixed placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The admission-controlled serving front. See the
/// [module docs](self) for the architecture; share one instance behind
/// `&` (or `Arc`) across any number of producer threads.
pub struct ServeFront<B: PersistentBackend> {
    route: Arc<DefaultRoute<B>>,
    shared: Arc<FrontShared>,
    /// Named secondary indexes served through the same admission queue
    /// and worker pool as the default route; see [`Namespaces`].
    namespaces: Namespaces,
    /// The request queue, its workers and their scratches. Its drop
    /// drains every request already submitted before the threads join.
    pool: WorkerPool<Job, QueryScratch>,
}

impl<B: PersistentBackend> ServeFront<B> {
    /// Builds a front that owns its backend. An engine some
    /// [`DeletionLog`](crate::DeletionLog) deleted from answers
    /// correctly here, but [`ServeFront::save`] cannot write tombstones
    /// it does not hold — serve that one with [`ServeFront::from_live`].
    pub fn new(backend: B, config: ServeConfig) -> Self {
        Self::from_arc(Arc::new(backend), config)
    }

    /// [`ServeFront::new`] over a shared engine — direct
    /// [`knn`](crate::ShardedLes3Index::knn) calls on the same `Arc` stay
    /// available alongside served ones (and return identical results).
    pub fn from_arc(backend: Arc<B>, config: ServeConfig) -> Self {
        Self::over(Served::Engine(backend), config)
    }

    /// Builds a front over an index with its deletion log and
    /// attributes (what
    /// [`DurableIndex::into_live`](crate::DurableIndex::into_live)
    /// yields): the default route answers from its engine, and
    /// [`ServeFront::save`] snapshots the tombstones and attributes with
    /// it.
    pub fn from_live(live: LiveIndex<B>, config: ServeConfig) -> Self {
        Self::over(Served::Live(live), config)
    }

    fn over(served: Served<B>, config: ServeConfig) -> Self {
        let route = Arc::new(DefaultRoute {
            served,
            agg: StatsRecord::default(),
        });
        let worker_route = Arc::clone(&route);
        // One scratch per worker for the pool's lifetime, whatever it
        // serves next: the default route or any namespace.
        let pool = WorkerPool::new(
            config.effective_workers(),
            "les3-serve",
            QueryScratch::default,
            move |job: Job, scratch: &mut QueryScratch| {
                serve_one(&worker_route, job, scratch, None)
            },
        );
        Self {
            route,
            shared: Arc::new(FrontShared::new(config.queue_capacity)),
            namespaces: Namespaces::new(),
            pool,
        }
    }

    /// The index being served.
    pub fn backend(&self) -> &B {
        self.route.engine()
    }

    /// Snapshots what the front serves into `dir`: the default route's
    /// index (with its tombstones, if it has a log) as `dir`'s segment
    /// and every namespace under `dir/ns/{name}`. Borrows everything, so
    /// queries keep running while it streams.
    pub fn save(&self, dir: &Path) -> Result<(), NamespaceError> {
        match &self.route.served {
            Served::Engine(engine) => persist::save_index(&**engine, dir)?,
            Served::Live(live) => live.save(dir)?,
        }
        self.namespaces.save_all(&dir.join("ns"))
    }

    /// The namespace registry served alongside the default route:
    /// create, drop and list named indexes here; query them through
    /// [`ServeFront::submit`] with a [`Route::Namespace`] (or directly on
    /// the [`Namespace`] handle, which is accounted the same way).
    pub fn namespaces(&self) -> &Namespaces {
        &self.namespaces
    }

    /// Lifetime aggregate counters: per-query work summed over every
    /// executed request (interrupted ones contribute their partial
    /// work), plus `shed` (overload rejections), `expired` (deadline
    /// misses) and `cancelled` (dropped/cancelled tickets).
    ///
    /// The aggregate is exactly [`ServeFront::default_route_stats`] plus
    /// [`Namespaces::total_stats`] (which itself folds dropped
    /// namespaces in), so `stats() == default_route_stats() + Σ
    /// namespace stats` holds at every quiescent instant —
    /// `stats_identity_holds` in the unit tests asserts it.
    pub fn stats(&self) -> SearchStats {
        let mut agg = self.default_route_stats();
        agg.accumulate(&self.namespaces.total_stats());
        agg
    }

    /// The default route's share of [`ServeFront::stats`]: every request
    /// served against the front's own backend, namespaces excluded, plus
    /// every request the admission gate rejected.
    pub fn default_route_stats(&self) -> SearchStats {
        let mut agg = *lock_unpoisoned(&self.shared.rejected);
        agg.accumulate(&self.route.agg.get());
        agg
    }

    /// Accepted-but-unfinished requests right now — never exceeds
    /// [`ServeConfig::queue_capacity`].
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight()
    }

    /// Resolves a request's route and passes it through the admission
    /// gate: the job to run, or the outcome that ends it without running.
    /// A [`Route::Namespace`] is resolved *now*: an unknown name is
    /// [`ServeError::UnknownNamespace`] without consuming queue capacity,
    /// while a namespace dropped after admission still answers, against
    /// the retained handle.
    fn admit(&self, request: Request) -> Result<Job, ServeError> {
        let Request {
            tokens,
            kind,
            approx,
            route,
            opts,
        } = request;
        let target = match route {
            Route::Default => Target::Default,
            Route::Namespace(name, filters) => match self.namespaces.get(&name) {
                Some(ns) => Target::Ns(ns, filters),
                None => return Err(ServeError::UnknownNamespace(name)),
            },
        };
        // An anytime request is never deadline-rejected at admission —
        // expiry commits a partial answer instead — so its deadline is
        // withheld from the admission gate (it still bounds the query's
        // execution through its `QueryCtl`).
        let admit_deadline = opts.deadline.filter(|_| !approx.is_anytime());
        if let Err(err) = self.shared.admit(opts.on_full, admit_deadline) {
            self.shared.note_rejected(&err);
            return Err(err);
        }
        Ok(Job {
            tokens,
            kind,
            approx,
            target,
            deadline: opts.deadline,
            slot: Arc::new(Slot::admitted(Arc::clone(&self.shared))),
        })
    }

    /// Enqueues one request; the [`Ticket`] resolves to exactly what the
    /// route's `search` answers for the same [`Query`] fields, or to an
    /// admission outcome (an unknown namespace resolves it at once).
    /// Always queues, even with a worker idle: the caller is not waiting
    /// yet, so the request must not run on its thread.
    pub fn submit(&self, request: Request) -> Ticket {
        match self.admit(request) {
            Ok(job) => {
                let slot = Arc::clone(&job.slot);
                self.pool.submit(job);
                Ticket { slot }
            }
            Err(err) => Ticket::resolved(err),
        }
    }

    /// Answers one request for a caller that blocks until it is done:
    /// the same admission and outcome as [`ServeFront::submit`] then
    /// [`Ticket::wait_full`], and the same answer bit for bit.
    ///
    /// When nothing is queued and a worker's scratch is free, the request
    /// runs on the calling thread, and `gone` is polled (after the
    /// cancellation flag) at the query's phase and group boundaries — at
    /// most once per [`PROBE_INTERVAL`], reading the clock at each of the
    /// first 16 boundaries and then at every 16th. Otherwise it queues,
    /// and the caller waits in [`PROBE_INTERVAL`] slices, calling `gone`
    /// between them. When `gone` returns `true`
    /// the request is cancelled: on this thread it stops at the next
    /// boundary with [`ServeError::Cancelled`] and its partial stats; in
    /// the queue it is marked cancelled and `run` returns
    /// `Cancelled` at once, with empty stats — the worker that reaches it
    /// records what it did in its route.
    pub fn run(
        &self,
        request: Request,
        gone: &dyn Fn() -> bool,
    ) -> Result<(SearchResult, ApproxInfo), ServeError> {
        let job = self.admit(request)?;
        let slot = Arc::clone(&job.slot);
        let (boundaries, next_probe) =
            (Cell::new(0u32), Cell::new(Instant::now() + PROBE_INTERVAL));
        let probe = || {
            let n = boundaries.get();
            boundaries.set(n.wrapping_add(1));
            if n >= CLOCK_STRIDE && n % CLOCK_STRIDE != 0 {
                return false;
            }
            let now = Instant::now();
            if now < next_probe.get() {
                return false;
            }
            next_probe.set(now + PROBE_INTERVAL);
            gone()
        };
        let route = &*self.route;
        let Err(job) = self.pool.run_here(job, |job, scratch| {
            serve_one(route, job, scratch, Some(&probe))
        }) else {
            return slot.wait(); // completed on this thread: no wait
        };
        self.pool.submit(job);
        loop {
            if let Some(out) = slot.wait_until(Instant::now() + PROBE_INTERVAL) {
                return out;
            }
            if gone() {
                slot.cancel();
                return Err(ServeError::Cancelled(SearchStats::default()));
            }
        }
    }

    /// [`ServeFront::submit`] of a kNN on the default route, parking on a
    /// full queue. Kept only because `les3-bench` calls it (ROADMAP
    /// 1(f)); new callers use `submit`.
    pub fn submit_knn_wait(&self, query: Vec<TokenId>, k: usize) -> Ticket {
        self.submit(Request {
            opts: WAIT,
            ..Request::knn(query, k)
        })
    }

    /// [`ServeFront::submit`] of a kNN on the default route under `opts`.
    /// Kept only because `les3-bench` calls it (ROADMAP 1(f)); new
    /// callers use `submit`.
    pub fn submit_knn_opts(&self, query: Vec<TokenId>, k: usize, opts: SubmitOpts) -> Ticket {
        self.submit(Request {
            opts,
            ..Request::knn(query, k)
        })
    }

    /// Blocking kNN through the front ([`ServeFront::run`], never
    /// abandoned). Waits for admission on a full queue: a closed-loop
    /// caller experiences backpressure, never [`ServeError::Overloaded`].
    pub fn knn(&self, query: &[TokenId], k: usize) -> ServeResult {
        let request = Request {
            opts: WAIT,
            ..Request::knn(query.to_vec(), k)
        };
        self.run(request, &|| false).map(|(result, _)| result)
    }

    /// Blocking range search through the front (waiting admission, like
    /// [`ServeFront::knn`]).
    pub fn range(&self, query: &[TokenId], delta: f64) -> ServeResult {
        let request = Request {
            opts: WAIT,
            ..Request::range(query.to_vec(), delta)
        };
        self.run(request, &|| false).map(|(result, _)| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Les3Index;
    use crate::partitioning::Partitioning;
    use crate::sim::{Jaccard, Similarity};
    use les3_data::zipfian::ZipfianGenerator;
    use std::sync::atomic::AtomicUsize;

    fn front_and_index() -> (ServeFront<Les3Index<Jaccard>>, Arc<Les3Index<Jaccard>>) {
        let db = ZipfianGenerator::new(200, 150, 6.0, 1.1).generate(17);
        let index = Arc::new(Les3Index::build(
            db,
            Partitioning::round_robin(200, 8),
            Jaccard,
        ));
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        (ServeFront::from_arc(Arc::clone(&index), config), index)
    }

    #[test]
    fn served_single_requests_match_direct_calls() {
        let (front, index) = front_and_index();
        for qid in [0u32, 7, 199] {
            let q = index.db().set(qid).to_vec();
            assert_eq!(front.knn(&q, 5).unwrap(), index.knn(&q, 5));
            assert_eq!(front.range(&q, 0.4).unwrap(), index.range(&q, 0.4));
        }
        // Degenerate inputs flow through the front unchanged.
        let q = index.db().set(11).to_vec();
        assert!(front.knn(&q, 0).unwrap().hits.is_empty());
        assert!(front.knn(&[], 2).unwrap().hits.len() == 2);
    }

    /// Work counters must survive the per-worker split: stats recorded
    /// by different pool threads sum to exactly the direct-call totals.
    #[test]
    fn stats_aggregate_across_workers() {
        let (front, index) = front_and_index();
        let mut expected = SearchStats::default();
        let tickets: Vec<Ticket> = (0..40u32)
            .map(|qid| {
                let q = index.db().set(qid * 3).to_vec();
                expected.accumulate(&index.knn(&q, 4).stats);
                front.submit(Request::knn(q, 4))
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(front.stats(), expected);
    }

    /// The published identity: [`ServeFront::stats`] is exactly the
    /// default route's aggregate plus [`Namespaces::total_stats`], and
    /// the sum is invariant under dropping a namespace (the retired
    /// aggregate keeps its counters).
    #[test]
    fn stats_identity_holds() {
        use crate::namespace::NamespaceSpec;

        let (front, index) = front_and_index();
        let q = index.db().set(5).to_vec();
        front.knn(&q, 4).unwrap();
        for (name, base) in [("tenant-a", 100u32), ("tenant-b", 500)] {
            let sets = (0..20).map(|i| vec![base + i, base + i + 1, 3]).collect();
            front
                .namespaces()
                .create(
                    name,
                    NamespaceSpec {
                        sets,
                        ..NamespaceSpec::default()
                    },
                )
                .unwrap();
        }
        for _ in 0..3 {
            front
                .submit(Request {
                    route: Route::Namespace("tenant-a".into(), Filters::none()),
                    ..Request::knn(vec![100, 101, 3], 5)
                })
                .wait()
                .unwrap();
            front
                .submit(Request {
                    route: Route::Namespace("tenant-b".into(), Filters::none()),
                    ..Request::range(vec![500, 501], 0.1)
                })
                .wait()
                .unwrap();
        }
        // An unknown namespace resolves before admission and leaves
        // every aggregate untouched.
        let ghost = front
            .submit(Request {
                route: Route::Namespace("ghost".into(), Filters::none()),
                ..Request::knn(vec![1], 2)
            })
            .wait();
        assert!(matches!(ghost, Err(ServeError::UnknownNamespace(_))));

        let mut expected = front.default_route_stats();
        expected.accumulate(&front.namespaces().total_stats());
        assert_eq!(front.stats(), expected);
        assert_ne!(front.stats(), front.default_route_stats());

        let before = front.stats();
        assert!(front.namespaces().remove("tenant-a"));
        assert_eq!(front.stats(), before);
    }

    #[test]
    fn tickets_resolve_after_front_drops() {
        let (front, index) = front_and_index();
        let q = index.db().set(3).to_vec();
        let tickets: Vec<Ticket> = (0..20)
            .map(|_| front.submit(Request::knn(q.clone(), 4)))
            .collect();
        drop(front); // graceful drain: accepted requests still complete
        let expected = index.knn(&q, 4);
        for t in tickets {
            assert_eq!(t.wait().unwrap(), expected);
        }
    }

    #[test]
    fn expired_at_submit_is_rejected_without_admission() {
        let (front, index) = front_and_index();
        let q = index.db().set(0).to_vec();
        let ticket = front.submit_knn_opts(
            q,
            3,
            SubmitOpts {
                deadline: Some(Instant::now()),
                ..Default::default()
            },
        );
        match ticket.wait() {
            Err(ServeError::DeadlineExceeded(stats)) => {
                assert_eq!(stats, SearchStats::default(), "no work for a dead request");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(front.stats().expired, 1);
        assert_eq!(front.in_flight(), 0);
    }

    /// With both scratches held (as two requests running on their callers'
    /// threads hold them), a blocking call queues and asks `gone` once per
    /// probe interval; the third `true` cancels it at once. The worker
    /// that reaches it once a scratch is back records the cancellation.
    #[test]
    fn run_probes_gone_while_queued_and_cancels_at_once() {
        let (front, index) = front_and_index();
        let q = index.db().set(5).to_vec();
        let hold = |then: &dyn Fn()| {
            let job = front.admit(Request::knn(q.clone(), 3)).unwrap();
            let held = front.pool.run_here(job, |job, scratch| {
                then();
                serve_one(&front.route, job, scratch, None);
            });
            assert!(held.is_ok(), "a scratch was free");
        };
        hold(&|| {
            hold(&|| {
                let asked = Cell::new(0);
                let t0 = Instant::now();
                let out = front.run(Request::knn(q.clone(), 3), &|| {
                    asked.set(asked.get() + 1);
                    asked.get() == 3
                });
                assert_eq!(out, Err(ServeError::Cancelled(SearchStats::default())));
                assert_eq!(asked.get(), 3);
                assert!(t0.elapsed() >= 3 * PROBE_INTERVAL, "one ask per slice");
            })
        });
        let start = Instant::now();
        while front.in_flight() > 0 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(50));
        }
        let stats = front.stats();
        assert_eq!(stats.cancelled, 1);
        let mut held_work = index.knn(&q, 3).stats;
        held_work.accumulate(&index.knn(&q, 3).stats);
        held_work.cancelled = 1;
        assert_eq!(stats, held_work, "the cancelled request did no work");
    }

    /// Jaccard whose group bound counts its calls into `bounds` and
    /// sleeps `pause` first. It answers 1.0 — admissible, and no group is
    /// ever pruned — and a kNN asks for one bound per group right before
    /// it polls that group's boundary, so `bounds` numbers the boundaries.
    #[derive(Clone, Copy)]
    struct SlowBound {
        bounds: &'static AtomicUsize,
        pause: Duration,
    }

    impl Similarity for SlowBound {
        fn name(&self) -> &'static str {
            "slow-bound"
        }

        fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
            Jaccard.from_overlap(overlap, a_len, b_len)
        }

        fn ub_from_overlap(&self, _q_len: usize, _r: usize) -> f64 {
            self.bounds.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.pause);
            1.0
        }
    }

    /// A front over 256 sets, each alone in its group, so a kNN with `k`
    /// past the database crosses 256 group boundaries.
    fn singleton_front(sim: SlowBound) -> ServeFront<Les3Index<SlowBound>> {
        let sets = (0..256u32).map(|i| vec![i % 7, 10 + i]);
        let db = les3_data::SetDatabase::from_sets(sets);
        let index = Les3Index::build(db, Partitioning::round_robin(256, 256), sim);
        ServeFront::from_arc(Arc::new(index), ServeConfig::default())
    }

    /// A blocking kNN on its caller's thread reads the clock at every 16th
    /// group boundary at the latest: with each group outlasting the probe
    /// interval, a `gone` that turns true after boundary N cancels the
    /// query by boundary N + 16, and no later.
    #[test]
    fn a_client_gone_after_boundary_n_cancels_within_16_more() {
        static BOUNDS: AtomicUsize = AtomicUsize::new(0);
        const N: usize = 40;
        let front = singleton_front(SlowBound {
            bounds: &BOUNDS,
            pause: PROBE_INTERVAL,
        });
        let gone = || BOUNDS.load(Ordering::SeqCst) > N;
        let Err(ServeError::Cancelled(stats)) = front.run(Request::knn(vec![1, 2, 3], 1000), &gone)
        else {
            panic!("the query must be cancelled");
        };
        // The boundary it stopped at is the one after the last verified.
        let stopped_at = stats.groups_verified + 1;
        assert!(
            (N + 1..=N + 16).contains(&stopped_at),
            "stopped at boundary {stopped_at}"
        );
        assert_eq!(BOUNDS.load(Ordering::SeqCst), stopped_at);
    }

    /// A `gone` that never turns true is asked at most once per probe
    /// interval over a whole query of 256 group boundaries, and the query
    /// answers as the engine does.
    #[test]
    fn a_client_that_stays_is_asked_at_most_once_per_interval() {
        static BOUNDS: AtomicUsize = AtomicUsize::new(0);
        let front = singleton_front(SlowBound {
            bounds: &BOUNDS,
            pause: Duration::from_micros(50),
        });
        let asked = Cell::new(0u128);
        let gone = || {
            asked.set(asked.get() + 1);
            false
        };
        let t0 = Instant::now();
        let (served, _) = front.run(Request::knn(vec![1, 2, 3], 1000), &gone).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(served.stats.groups_verified, 256);
        assert_eq!(served, front.backend().knn(&[1, 2, 3], 1000));
        let intervals = elapsed.as_nanos() / PROBE_INTERVAL.as_nanos();
        assert!(
            asked.get() >= 1,
            "a {elapsed:?} query is asked at least once"
        );
        assert!(
            asked.get() <= intervals,
            "asked {} times in {elapsed:?}",
            asked.get()
        );
    }

    #[test]
    fn far_deadline_serves_normally() {
        let (front, index) = front_and_index();
        let q = index.db().set(42).to_vec();
        let ticket = front.submit_knn_opts(
            q.clone(),
            5,
            SubmitOpts {
                deadline: Some(Instant::now() + Duration::from_secs(600)),
                ..Default::default()
            },
        );
        assert_eq!(ticket.wait().unwrap(), index.knn(&q, 5));
        let agg = front.stats();
        assert_eq!((agg.shed, agg.expired, agg.cancelled), (0, 0, 0));
    }
}
