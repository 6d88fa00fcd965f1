//! Intra-query parallelism: bound-shared speculation with deterministic
//! replay.
//!
//! Everything parallel elsewhere in this crate works *across* queries;
//! this module makes **one** kNN or range descent use many cores while
//! keeping its result — hits *and* [`SearchStats`] — bit-for-bit
//! identical to the sequential loop. That contract is non-negotiable
//! (it is what the equivalence proptests pin), and it shapes the whole
//! design:
//!
//! * **Range** queries are trivially order-independent: the prune point
//!   is a pure function of the bound stream (`partition_point` on the
//!   descending bounds), every surviving group is verified against the
//!   same fixed `δ`, and the final `(similarity desc, id asc)` sort
//!   canonicalizes hit order. Workers claim groups from an atomic
//!   cursor and the per-worker stats merge additively.
//!
//! * **kNN** is a different animal: the threshold a group is verified
//!   at is the *evolving* k-th similarity, so group `i`'s work depends
//!   on groups `0..i`. The engine runs **speculate + deterministic
//!   replay**: worker threads verify groups ahead of the commit
//!   frontier at a *snapshot* threshold `t_snap` read from a shared
//!   atomic bound ([`SharedKth`]), recording per-candidate outcomes,
//!   while the calling thread **commits** groups strictly in the
//!   sequential `(r descending, group id ascending)` order with the
//!   true top-k. A recorded outcome is reused only when the true
//!   threshold at that exact candidate equals `t_snap` bit-for-bit
//!   (`f64 ==`); any mismatch falls back to recomputing the verdict —
//!   so the committed sequence of window cuts, heap offers and counter
//!   increments is *defined* to be the sequential one, and speculation
//!   only ever substitutes cached values of the identical pure
//!   computation. All three roles run the crate's one kNN candidate
//!   loop, [`VerifyQuery::knn_window`]; they differ only in the
//!   [`KnnVerdicts`] they hand it.
//!
//! # Why replay is sound
//!
//! During a query the index is immutable (`&self`), so for a fixed
//! group both the verification window (two `partition_point`s on the
//! length array) and a candidate's verdict — what
//! [`Similarity::eval_with_threshold`]`(Q, S, t)` returns — are pure
//! functions of the threshold `t`. If the committer enters a group at
//! threshold `t == t_snap`, the speculative window is the committed window —
//! same slice, same order — so the recorded outcomes align
//! positionally; and each candidate whose per-candidate threshold
//! still equals `t_snap` gets the identical `Hit`/`Rejected{early}`
//! the sequential loop would compute. The first candidate where the
//! thresholds diverge (the heap tightened mid-group) switches to
//! recomputation. Nothing speculative is ever *observable*: a stale
//! record is simply ignored.
//!
//! # The shared bound
//!
//! [`SharedKth`] packs the running k-th similarity into an `AtomicU64`
//! using the order-preserving bit trick (negative floats map to
//! `!bits`, non-negatives to `bits | sign`), so `fetch_max` on the
//! integer is exactly a monotone max on the float (`total_cmp` order)
//! — every speculation worker reads the freshest committed threshold
//! with one `Acquire` load, no lock. Only the committer writes it, and
//! only with true committed values, so `t_snap` is always a *past*
//! value of the true threshold: speculation at a stale (lower) bound
//! wastes work but can never corrupt the replay. The bound is also a
//! cheap **work cutoff**: the merged bound stream is non-increasing,
//! so a worker whose claimed group has `ub ≤ t_snap` knows the
//! committer will prune it (and everything after it) and stops
//! claiming entirely.
//!
//! # Interruption and panics
//!
//! One `AtomicBool` abort flag fans any stop — commit-side prune,
//! [`QueryCtl`] deadline/cancellation, or a panic unwinding the commit
//! loop (via an RAII guard) — out to every worker, which polls it
//! before each claim: a mid-flight cancel stops all workers at the
//! next group boundary with one flag read, without each of them paying
//! the deadline clock check. Speculative panics (a defective measure)
//! are swallowed where they occur and the slot published empty: if the
//! group is later committed the committer re-executes the same pure
//! function and panics exactly where the sequential loop would; if the
//! group is pruned the panic vanishes — also exactly like the
//! sequential loop, which would never have touched it.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex, OnceLock};
use std::panic::{catch_unwind, AssertUnwindSafe};

use les3_data::SetId;

use crate::batch::lock_unpoisoned;
use crate::ctl::{InterruptReason, QueryCtl};
use crate::index::{KnnVerdicts, TopK};
use crate::shard::MergedGroups;
use crate::sim::{Similarity, ThresholdedEval};
use crate::stats::SearchStats;

/// A single query's descent below this many groups stays sequential
/// under the auto policy (thread coordination would cost more than the
/// verification it spreads: at 256 groups two workers measured 1.5× the
/// sequential kNN latency and 3.8× the range latency, `les3-bench`
/// `par.w2_vs_seq_ratio` / `par.auto_vs_seq_ratio`).
const AUTO_MIN_GROUPS: usize = 512;

/// Groups per worker the auto policy aims for when it does fan out.
const AUTO_GROUPS_PER_WORKER: usize = 256;

/// How far past the commit frontier speculation may run, per worker.
/// Bounding the lookahead keeps speculative thresholds close to the
/// true ones (stale records are wasted work) and bounds memory to
/// `O(workers · lookahead)` outstanding records.
const LOOKAHEAD_PER_WORKER: usize = 8;

fn env_workers() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("LES3_TEST_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// Intra-query worker count for the implicit entry points (`knn_with`
/// and friends): the `LES3_TEST_WORKERS` override if set (CI uses it to
/// force the parallel paths on inputs the auto policy would run
/// sequentially), else a fan-out proportional to the group count,
/// capped by the machine width.
pub(crate) fn auto_workers(n_groups: usize) -> usize {
    if let Some(n) = env_workers() {
        return n.max(1);
    }
    if n_groups < AUTO_MIN_GROUPS {
        return 1;
    }
    rayon::current_num_threads()
        .min(n_groups / AUTO_GROUPS_PER_WORKER)
        .max(1)
}

/// A [`Query`](crate::Query)'s worker count: the explicit one, or for
/// `0` the auto policy over the groups the query considers (a mask's
/// candidate groups, else all of them).
pub(crate) fn resolve_workers(workers: usize, n_considered: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        auto_workers(n_considered)
    }
}

/// Caps a serve-side idle-worker budget to what this index size can
/// use; the `LES3_TEST_WORKERS` override wins over the size rule.
pub(crate) fn serve_intra_cap(n_groups: usize) -> usize {
    if let Some(n) = env_workers() {
        return n.max(1);
    }
    (n_groups / AUTO_GROUPS_PER_WORKER).max(1)
}

// ---------------------------------------------------------------------
// The shared k-th-similarity bound.
// ---------------------------------------------------------------------

/// Maps `f64` to `u64` preserving `total_cmp` order: flip all bits of
/// negatives, flip only the sign bit of non-negatives. `fetch_max` on
/// the encoding is then a monotone max on the float.
pub fn encode_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

pub fn decode_f64(e: u64) -> f64 {
    f64::from_bits(if e >> 63 == 1 { e ^ (1 << 63) } else { !e })
}

/// The running k-th similarity, shared lock-free with every
/// speculation worker. Written only by the commit thread (with true
/// committed thresholds), read by workers as their snapshot `t_snap`.
pub struct SharedKth(AtomicU64);

impl SharedKth {
    pub fn new() -> Self {
        Self(AtomicU64::new(encode_f64(f64::NEG_INFINITY)))
    }

    pub fn get(&self) -> f64 {
        decode_f64(self.0.load(Ordering::Acquire))
    }

    /// Monotone max-CAS: the bound only ever rises.
    pub fn raise(&self, x: f64) {
        self.0.fetch_max(encode_f64(x), Ordering::AcqRel);
    }
}

impl Default for SharedKth {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Group verification: the shared window scan, with optional replay.
// ---------------------------------------------------------------------

/// A speculated group: the snapshot threshold it ran at, plus the
/// verdict of every candidate in its (threshold-determined) window.
struct GroupRecord {
    t_snap: f64,
    verdicts: Vec<ThresholdedEval>,
}

/// Speculation: the window scan at the fixed snapshot threshold, every
/// verdict recorded and nothing offered.
impl KnnVerdicts for GroupRecord {
    fn threshold(&self) -> f64 {
        self.t_snap
    }

    fn settle(&mut self, _id: SetId, verdict: ThresholdedEval) {
        self.verdicts.push(verdict);
    }
}

/// Replay: the true top-k, with a record taken at the group's entry
/// threshold as a cache — a recorded verdict substitutes for the merge
/// only where the true per-candidate threshold still equals the record's
/// `t_snap` bit-for-bit. Same group, same threshold ⇒ same window (a
/// pure function of the threshold), so record slot `j` is candidate `j`.
struct Replay<'a> {
    top: &'a mut TopK,
    rec: &'a GroupRecord,
}

impl KnnVerdicts for Replay<'_> {
    fn threshold(&self) -> f64 {
        self.top.kth()
    }

    fn cached(&self, slot: usize, t: f64) -> Option<ThresholdedEval> {
        (t == self.rec.t_snap).then(|| self.rec.verdicts[slot])
    }

    fn settle(&mut self, id: SetId, verdict: ThresholdedEval) {
        self.top.settle(id, verdict);
    }
}

/// Verifies group `i` against the *true* top-k, exactly as the
/// sequential loop would, consulting `rec` as a cache when it was taken
/// at this group's entry threshold (else its window may differ).
fn commit_group<S: Similarity>(
    g: &MergedGroups<'_, S>,
    i: usize,
    rec: Option<&GroupRecord>,
    top: &mut TopK,
    stats: &mut SearchStats,
) {
    let (q, (verify, local)) = (&g.verify, g.locate(i));
    match rec.filter(|r| r.t_snap == top.kth()) {
        Some(rec) => q.knn_window(verify, local, &mut Replay { top, rec }, stats),
        None => q.knn_window(verify, local, top, stats),
    }
}

/// Speculatively verifies group `i` at the fixed snapshot threshold.
fn speculate_group<S: Similarity>(g: &MergedGroups<'_, S>, i: usize, t_snap: f64) -> GroupRecord {
    let (verify, local) = g.locate(i);
    let mut rec = GroupRecord {
        t_snap,
        verdicts: Vec::new(),
    };
    // Speculative work is never charged: the committer counts it.
    g.verify
        .knn_window(verify, local, &mut rec, &mut SearchStats::default());
    rec
}

// ---------------------------------------------------------------------
// kNN: speculate + deterministic replay.
// ---------------------------------------------------------------------

/// Slot states: `OPEN` (untouched) → `CLAIMED` (a worker is
/// speculating) → `DONE` (record published), or `OPEN` → `TAKEN` (the
/// committer got there first). The committer also moves `DONE` →
/// `TAKEN` when consuming a record.
pub const OPEN: u8 = 0;
pub const CLAIMED: u8 = 1;
pub const DONE: u8 = 2;
pub const TAKEN: u8 = 3;

struct SpecSlot {
    state: AtomicU8,
    rec: Mutex<Option<GroupRecord>>,
}

/// Shared coordination for one parallel descent.
struct Coord {
    /// Commit frontier: groups `< committed` are finished. Guarded by a
    /// mutex because the condvar below covers both "frontier advanced"
    /// (lookahead-parked workers) and "slot became DONE" (the waiting
    /// committer).
    committed: Mutex<usize>,
    cv: Condvar,
    /// The shared-flag fast path: set on prune, interruption, or commit
    /// unwind; every worker polls it before each claim.
    abort: AtomicBool,
    /// Speculation claim cursor.
    next: AtomicUsize,
    kth: SharedKth,
}

impl Coord {
    /// Sets the abort flag and wakes every parked thread. Taking the
    /// mutex orders the store against the `wait` loops' re-checks, so
    /// no worker can recheck-then-park between the store and the
    /// notify.
    fn raise_abort(&self) {
        let _guard = lock_unpoisoned(&self.committed);
        self.abort.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

/// Aborts the descent when the commit loop exits for *any* reason —
/// normal prune/finish, interruption `Err`, or a panic unwinding —
/// so speculation workers can never stay parked on the condvar.
struct AbortOnExit<'a>(&'a Coord);

impl Drop for AbortOnExit<'_> {
    fn drop(&mut self) {
        self.0.raise_abort();
    }
}

/// One speculation worker: claims groups ahead of the commit frontier,
/// verifies them at the current shared bound, publishes the records.
fn spec_worker<S: Similarity>(
    g: &MergedGroups<'_, S>,
    coord: &Coord,
    slots: &[SpecSlot],
    lookahead: usize,
    ctl: &QueryCtl<'_>,
) {
    let n = slots.len();
    loop {
        // The cheap shared flag first; the ctl poll (clock read) only
        // when still live.
        if coord.abort.load(Ordering::Acquire) {
            return;
        }
        if ctl.interrupted().is_some() {
            // Fan the stop out to the other workers; the committer
            // polls ctl itself at its next group boundary.
            coord.raise_abort();
            return;
        }
        // relaxed: the cursor only hands out unique indices (RMW
        // atomicity); everything a claimed index touches is published
        // through the slot CAS or the committed mutex, never the cursor.
        let i = coord.next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        {
            let mut committed = lock_unpoisoned(&coord.committed);
            while i >= *committed + lookahead && !coord.abort.load(Ordering::Acquire) {
                committed = coord.cv.wait(committed).unwrap_or_else(|e| e.into_inner());
            }
            if coord.abort.load(Ordering::Acquire) {
                return;
            }
        }
        let t_snap = coord.kth.get();
        // The bound stream is non-increasing: a group beaten by the
        // (monotone) shared bound will be pruned by the committer, and
        // so will everything after it — stop claiming.
        if t_snap > f64::NEG_INFINITY && g.ub(i) <= t_snap {
            return;
        }
        let slot = &slots[i];
        if slot
            .state
            .compare_exchange(OPEN, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // The committer already took it.
            continue;
        }
        // Swallow speculative panics: publish "no record" and let the
        // committer re-raise (or prune away) the panic exactly where
        // the sequential loop would. See the module docs.
        let rec = catch_unwind(AssertUnwindSafe(|| speculate_group(g, i, t_snap))).ok();
        {
            let _guard = lock_unpoisoned(&coord.committed);
            *lock_unpoisoned(&slot.rec) = rec;
            slot.state.store(DONE, Ordering::Release);
        }
        coord.cv.notify_all();
    }
}

/// The commit loop: replays the sequential descent over the bound
/// stream with the true top-k, consuming speculative records where
/// their thresholds match. Runs on the calling thread.
fn knn_commit<S: Similarity>(
    g: &MergedGroups<'_, S>,
    k: usize,
    coord: &Coord,
    slots: &[SpecSlot],
    stats: &mut SearchStats,
    ctl: &QueryCtl<'_>,
) -> Result<TopK, (InterruptReason, TopK)> {
    let n = slots.len();
    let mut top = TopK::new(k);
    for (i, slot) in slots.iter().enumerate() {
        if top.is_full() && g.ub(i) <= top.kth() {
            stats.groups_pruned += n - i;
            break;
        }
        if let Some(reason) = ctl.interrupted() {
            // The partial heap rides along: anytime callers commit it,
            // exact callers drop it.
            return Err((reason, top));
        }
        stats.groups_verified += 1;
        let rec = loop {
            match slot
                .state
                .compare_exchange(OPEN, TAKEN, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break None, // ours alone: plain sequential verify
                Err(CLAIMED) => {
                    // A worker is mid-speculation on this group; its
                    // record (even if stale) arrives shortly.
                    let mut committed = lock_unpoisoned(&coord.committed);
                    while slot.state.load(Ordering::Acquire) == CLAIMED {
                        committed = coord.cv.wait(committed).unwrap_or_else(|e| e.into_inner());
                    }
                }
                Err(_) => {
                    // DONE: consume the record.
                    // relaxed: DONE→TAKEN is committer-private (no other
                    // thread writes a DONE slot), and the record itself
                    // travels under the rec mutex plus the worker's DONE
                    // Release edge — nothing is published through TAKEN.
                    slot.state.store(TAKEN, Ordering::Relaxed);
                    break lock_unpoisoned(&slot.rec).take();
                }
            }
        };
        commit_group(g, i, rec.as_ref(), &mut top, stats);
        if top.is_full() {
            coord.kth.raise(top.kth());
        }
        *lock_unpoisoned(&coord.committed) = i + 1;
        coord.cv.notify_all();
    }
    Ok(top)
}

/// Parallel kNN descent over a bound stream: `workers - 1` threads
/// speculate ahead of the calling thread's sequential commit, whose
/// group loop (`knn_commit`; `commit_group` with no record is the plain
/// window scan) *is* the sequential descent — bit-for-bit what the
/// cursor merge computes. `search` sends one-worker and one-group
/// queries to the cursor kernels instead, so `2 ≤ workers ≤ n` here. An
/// interrupted descent returns the reason *with* the partial top-k
/// committed so far — only fully committed groups are in it, so the
/// partial heap is exact on everything it holds (the anytime tier's
/// contract).
pub(crate) fn knn_descend<S: Similarity>(
    g: &MergedGroups<'_, S>,
    k: usize,
    workers: usize,
    stats: &mut SearchStats,
    ctl: &QueryCtl<'_>,
) -> Result<TopK, (InterruptReason, TopK)> {
    let n = g.n_groups();
    debug_assert!((2..=n).contains(&workers), "search clamps the fan-out");
    let slots: Vec<SpecSlot> = (0..n)
        .map(|_| SpecSlot {
            state: AtomicU8::new(OPEN),
            rec: Mutex::new(None),
        })
        .collect();
    let coord = Coord {
        committed: Mutex::new(0),
        cv: Condvar::new(),
        abort: AtomicBool::new(false),
        next: AtomicUsize::new(0),
        kth: SharedKth::new(),
    };
    let lookahead = LOOKAHEAD_PER_WORKER * workers;
    let (slots, coord) = (&slots, &coord);
    rayon::scope(|s| {
        // Spawn per worker, not per group (see the rayon shim docs):
        // `workers - 1` speculators; the calling thread commits.
        for _ in 1..workers {
            s.spawn(move |_| spec_worker(g, coord, slots, lookahead, ctl));
        }
        let _abort = AbortOnExit(coord);
        knn_commit(g, k, coord, slots, stats, ctl)
    })
}

// ---------------------------------------------------------------------
// Range: order-independent fan-out.
// ---------------------------------------------------------------------

/// Verifies one group against the fixed range threshold.
fn range_group<S: Similarity>(
    g: &MergedGroups<'_, S>,
    i: usize,
    delta: f64,
    hits: &mut Vec<(SetId, f64)>,
    stats: &mut SearchStats,
) {
    let (verify, local) = g.locate(i);
    stats.groups_verified += 1;
    g.verify.range_window(verify, local, delta, hits, stats);
}

/// Parallel-capable range descent: all groups are verified at the same
/// fixed `δ` and the caller sorts the hits, so workers just split the
/// surviving prefix of the bound stream. Appends to `hits` (unsorted —
/// the caller's final `sort_hits` canonicalizes); `workers <= 1` is the
/// sequential loop.
pub(crate) fn range_scan<S: Similarity>(
    g: &MergedGroups<'_, S>,
    delta: f64,
    workers: usize,
    hits: &mut Vec<(SetId, f64)>,
    stats: &mut SearchStats,
    ctl: &QueryCtl<'_>,
) -> Result<(), InterruptReason> {
    let n = g.n_groups();
    // The prune point is independent of the results: the first group
    // whose (non-increasing) bound drops below δ, by binary search.
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if g.ub(mid) >= delta {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let stop = lo;
    let workers = workers.min(stop.max(1));
    if workers <= 1 || stop < 2 {
        for i in 0..stop {
            if let Some(reason) = ctl.interrupted() {
                return Err(reason);
            }
            range_group(g, i, delta, hits, stats);
        }
        stats.groups_pruned += n - stop;
        return Ok(());
    }
    struct Local {
        hits: Vec<(SetId, f64)>,
        stats: SearchStats,
    }
    let locals: Vec<Mutex<Local>> = (0..workers)
        .map(|_| {
            Mutex::new(Local {
                hits: Vec::new(),
                stats: SearchStats::default(),
            })
        })
        .collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let reason_cell: Mutex<Option<InterruptReason>> = Mutex::new(None);
    rayon::run_workers(workers, |w| {
        // Each worker owns its cell for the whole loop; the lock is
        // uncontended and only makes the borrow checker happy.
        let mut guard = lock_unpoisoned(&locals[w]);
        let local = &mut *guard;
        loop {
            // Shared-flag fast path first, then the (clock-reading)
            // ctl poll — one worker noticing stops all of them at
            // their next group boundary.
            if abort.load(Ordering::Acquire) {
                return;
            }
            if let Some(reason) = ctl.interrupted() {
                abort.store(true, Ordering::Release);
                lock_unpoisoned(&reason_cell).get_or_insert(reason);
                return;
            }
            // relaxed: unique-ticket handout only; every result flows
            // through the per-worker Mutex<Local> cells, which the
            // joining `run_workers` barrier orders with the reader.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= stop {
                return;
            }
            range_group(g, i, delta, &mut local.hits, &mut local.stats);
        }
    });
    for cell in &locals {
        let local = lock_unpoisoned(cell);
        stats.accumulate(&local.stats);
        hits.extend_from_slice(&local.hits);
    }
    if let Some(reason) = *lock_unpoisoned(&reason_cell) {
        return Err(reason);
    }
    stats.groups_pruned += n - stop;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_encoding_preserves_total_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for (a_i, &a) in values.iter().enumerate() {
            for (b_i, &b) in values.iter().enumerate() {
                assert_eq!(
                    encode_f64(a).cmp(&encode_f64(b)),
                    a.total_cmp(&b),
                    "{a} vs {b} ({a_i},{b_i})"
                );
            }
            assert_eq!(decode_f64(encode_f64(a)).to_bits(), a.to_bits(), "{a}");
        }
    }

    #[test]
    fn shared_kth_is_monotone() {
        let kth = SharedKth::new();
        assert_eq!(kth.get(), f64::NEG_INFINITY);
        kth.raise(0.25);
        assert_eq!(kth.get(), 0.25);
        kth.raise(0.125); // lower: ignored
        assert_eq!(kth.get(), 0.25);
        kth.raise(0.5);
        assert_eq!(kth.get(), 0.5);
    }

    #[test]
    fn auto_policy_stays_sequential_on_small_inputs() {
        if env_workers().is_some() {
            return; // the override deliberately defeats the policy
        }
        assert_eq!(auto_workers(0), 1);
        assert_eq!(auto_workers(256), 1);
        assert_eq!(auto_workers(AUTO_MIN_GROUPS - 1), 1);
        assert!(auto_workers(100_000) >= 1);
        // The serving front's lone-request budget follows the same rule.
        assert_eq!(serve_intra_cap(256), 1);
        assert_eq!(serve_intra_cap(AUTO_MIN_GROUPS - 1), 1);
        assert!(serve_intra_cap(AUTO_MIN_GROUPS) > 1);
    }
}
