//! Range fan-out: the one range descent, on one thread or several.
//!
//! A range query is order-independent: the prune point is a pure
//! function of the (non-increasing) bound stream, every surviving
//! group is verified against the same fixed `δ` whatever happened to the
//! groups before it, per-worker [`SearchStats`] add up, and the caller's
//! final `(similarity desc, id asc)` sort canonicalizes hit order. So
//! the surviving groups can be split across workers and the result —
//! hits *and* stats — is bit-for-bit the sequential one with nothing
//! shared but a claim cursor and a stop flag.
//!
//! A kNN has no such arm, on purpose. The threshold a group is verified
//! at is the *evolving* k-th similarity, so group `i`'s work depends on
//! groups `0..i`; a worker running ahead of that order verifies at a
//! stale threshold, forfeits the early exit that ends most merges, and
//! its work is redone whenever the true threshold has moved — which is
//! exactly while most groups are still unpruned. The speculate-and-replay
//! engine that tried lost 1.9–4.1× to the sequential descent at every
//! size measured (20 000 – 400 000 sets, 256 – 4 096 groups) and was
//! deleted; `search` runs every kNN on the calling thread.
//!
//! # Width
//!
//! The fan-out pays only when there is enough verification to split: on
//! the same probe two workers took 0.63–0.93× the sequential time on
//! wide ranges (δ = 0.3, thousands of sets verified) and 1.6–10× on
//! selective ones (δ = 0.8, a handful of surviving groups). The auto
//! policy therefore keys on the groups that *will be verified* — the
//! stream's surviving prefix — not on the size of the index.
//!
//! # Interruption
//!
//! One `AtomicBool` fans a [`QueryCtl`] deadline or cancellation out to
//! every worker, which polls it before each claim: a mid-flight stop
//! reaches all workers at their next group boundary with one flag read,
//! without each of them paying the deadline clock check.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::Mutex;

use les3_data::SetId;

use crate::batch::lock_unpoisoned;
use crate::ctl::{InterruptReason, QueryCtl};
use crate::index::VerifyQuery;
use crate::shard::{GroupBound, ShardedLes3Index};
use crate::sim::Similarity;
use crate::stats::SearchStats;

/// A range with fewer surviving groups than this stays sequential under
/// the auto policy (thread coordination would cost more than the
/// verification it spreads: two workers on a handful of groups measured
/// 1.6–10× the sequential latency).
const AUTO_MIN_GROUPS: usize = 512;

/// Surviving groups per worker the auto policy aims for when it does
/// fan out.
const AUTO_GROUPS_PER_WORKER: usize = 256;

/// Range verification workers for a query that left the choice open:
/// proportional to `stop`, the groups that survive the bound, capped by
/// the machine width.
fn auto_workers(stop: usize) -> usize {
    if stop < AUTO_MIN_GROUPS {
        return 1;
    }
    rayon::current_num_threads()
        .min(stop / AUTO_GROUPS_PER_WORKER)
        .max(1)
}

impl<S: Similarity> ShardedLes3Index<S> {
    /// The range descent: verifies every group of `stream` whose bound
    /// reaches `delta`, in stream order — the order a deadline-committed
    /// partial answer is defined by — appending hits (unsorted: the
    /// caller's final `sort_hits` canonicalizes). `workers` is
    /// [`Query::workers`](crate::Query): a pinned count is honoured, `0`
    /// asks the auto policy. Polls `ctl` at every group boundary.
    #[allow(clippy::too_many_arguments)] // internal kernel: callers thread scratch + ctl
    pub(crate) fn range_descend(
        &self,
        verify: &VerifyQuery<'_, S>,
        delta: f64,
        workers: usize,
        stream: &[GroupBound],
        hits: &mut Vec<(SetId, f64)>,
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<(), InterruptReason> {
        // The prune point is independent of the results: the bounds are
        // non-increasing, so the survivors are a prefix.
        let beaten =
            |b: &GroupBound| self.sim.ub_from_overlap(verify.q_len(), b.r as usize) < delta;
        let stop = stream.iter().position(beaten).unwrap_or(stream.len());
        let (survivors, pruned) = stream.split_at(stop);
        let workers = match workers {
            0 => auto_workers(stop),
            pinned => pinned,
        }
        .min(stop);
        if workers > 1 {
            self.range_fan_out(verify, delta, workers, survivors, hits, stats, ctl)?;
        } else {
            for b in survivors {
                if let Some(reason) = ctl.interrupted() {
                    return Err(reason);
                }
                stats.groups_verified += 1;
                verify.range_window(&self.verify, b.group, delta, hits, stats);
            }
        }
        stats.groups_pruned += pruned.len();
        Ok(())
    }

    /// [`Self::range_descend`]'s parallel arm: `workers ≥ 2` claim the
    /// surviving groups from one cursor. Out of line on purpose —
    /// sharing a frame with it cost the sequential arm 3 % of a 12 µs
    /// `lib_range` call.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn range_fan_out(
        &self,
        verify: &VerifyQuery<'_, S>,
        delta: f64,
        workers: usize,
        survivors: &[GroupBound],
        hits: &mut Vec<(SetId, f64)>,
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<(), InterruptReason> {
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
                let Some(b) = survivors.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                local.stats.groups_verified += 1;
                verify.range_window(
                    &self.verify,
                    b.group,
                    delta,
                    &mut local.hits,
                    &mut local.stats,
                );
            }
        });
        for cell in &locals {
            let local = lock_unpoisoned(cell);
            stats.accumulate(&local.stats);
            hits.extend_from_slice(&local.hits);
        }
        let stopped = *lock_unpoisoned(&reason_cell);
        stopped.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_policy_stays_sequential_on_small_inputs() {
        assert_eq!(auto_workers(0), 1);
        assert_eq!(auto_workers(256), 1);
        assert_eq!(auto_workers(AUTO_MIN_GROUPS - 1), 1);
        assert!(auto_workers(100_000) >= 1);
    }
}
