//! Search cost accounting.

use crate::batch::lock_unpoisoned;
use crate::ctl::InterruptReason;
use crate::query::SearchOutcome;
use crate::sync::Mutex;

/// Per-query cost counters.
///
/// These are the quantities the paper's evaluation plots: pruning
/// efficiency (Definition 2.3, Figures 10/15), similarity-computation
/// counts, and index access cost measured in TGM columns (Figure 14).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// The candidate set `S_Q` of Definition 2.3: for TGM search, the
    /// members of verified groups' length windows that the query's mask
    /// (if any) admits.
    pub candidates: usize,
    /// Candidates whose tokens were read to evaluate the similarity. A
    /// kNN rejects a candidate by its 64-bit token signature first, so
    /// there this is at most `candidates`; a range evaluates every
    /// candidate. Baselines count their own cheaper partial filters the
    /// same way.
    pub sims_computed: usize,
    /// TGM work performed by the filter step: the bits visited. A kNN
    /// counts every query column, `Σ_{t∈Q} |groups(t)|`; a range counts
    /// its rarest `|Q| − o + 1` columns (`o`: the least overlap whose
    /// bound reaches δ) and adds, per other column, its length if counted
    /// whole or one per surviving group probed — 0 when no overlap's
    /// bound reaches δ. A filtered query visits what its unfiltered twin
    /// does (its mask picks groups after phase A, not columns before it).
    /// (Earlier revisions charged the dense-matrix cost `|Q|·n_groups`
    /// regardless of how sparse the columns were; this is the honest
    /// figure benches should plot.)
    pub columns_checked: usize,
    /// Groups eliminated without verification.
    pub groups_pruned: usize,
    /// Groups verified.
    pub groups_verified: usize,
    /// Verifications abandoned early because the residual-overlap bound
    /// could no longer reach the threshold / current k-th best (at most
    /// `sims_computed`: a signature rejection reads no token).
    pub early_exits: usize,
    /// Group members skipped by the similarity-specific length filter
    /// without touching their token lists.
    pub size_skipped: usize,
    /// Requests rejected at admission because the serving front's
    /// bounded queue was full (`ServeError::Overloaded`). Always 0 for a
    /// single query; meaningful in the front's aggregate
    /// ([`crate::serve::ServeFront::stats`]).
    pub shed: usize,
    /// Requests stopped by their deadline — rejected at submit, skipped
    /// by the worker that reached them, or
    /// interrupted mid-flight (`ServeError::DeadlineExceeded`). Always 0
    /// for a single query; meaningful in the front's aggregate.
    pub expired: usize,
    /// Requests stopped by cancellation — a dropped or `.cancel()`-ed
    /// [`crate::serve::Ticket`]. Always 0 for a single query; meaningful
    /// in the front's aggregate.
    pub cancelled: usize,
}

impl SearchStats {
    /// Pruning efficiency for a kNN query (Definition 2.3):
    /// `(|D| − (|S_Q| − k)) / |D|`.
    pub fn pruning_efficiency_knn(&self, db_size: usize, k: usize) -> f64 {
        if db_size == 0 {
            return 1.0;
        }
        let extra = self.candidates.saturating_sub(k);
        (db_size - extra.min(db_size)) as f64 / db_size as f64
    }

    /// Pruning efficiency for a range query (Definition 2.3):
    /// `(|D| − (|S_Q| − |R|)) / |D|`.
    pub fn pruning_efficiency_range(&self, db_size: usize, result_size: usize) -> f64 {
        if db_size == 0 {
            return 1.0;
        }
        let extra = self.candidates.saturating_sub(result_size);
        (db_size - extra.min(db_size)) as f64 / db_size as f64
    }

    /// Sums a sequence of stats records into one — a batch's total, a
    /// range's per-worker records (work counters are per-group
    /// quantities, so records add exactly).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a SearchStats>) -> SearchStats {
        let mut out = SearchStats::default();
        for p in parts {
            out.accumulate(p);
        }
        out
    }

    /// Adds another stats record.
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.sims_computed += other.sims_computed;
        self.columns_checked += other.columns_checked;
        self.groups_pruned += other.groups_pruned;
        self.groups_verified += other.groups_verified;
        self.early_exits += other.early_exits;
        self.size_skipped += other.size_skipped;
        self.shed += other.shed;
        self.expired += other.expired;
        self.cancelled += other.cancelled;
    }
}

/// The lifetime aggregate of one serving route: the default route of a
/// [`ServeFront`](crate::ServeFront) and every
/// [`Namespace`](crate::Namespace) each own one and record every query
/// they run into it, so the front's total is the plain sum of its
/// routes' records.
#[derive(Default)]
pub(crate) struct StatsRecord(Mutex<SearchStats>);

impl StatsRecord {
    /// Folds one query in: its work — the partial work of an interrupted
    /// one, plus an `expired` or `cancelled` count. A committed anytime
    /// answer counts as served.
    pub(crate) fn note(&self, out: &SearchOutcome) {
        let mut agg = lock_unpoisoned(&self.0);
        match out {
            Ok((result, _)) => agg.accumulate(&result.stats),
            Err(interrupted) => {
                agg.accumulate(&interrupted.stats);
                match interrupted.reason {
                    InterruptReason::Expired => agg.expired += 1,
                    InterruptReason::Cancelled => agg.cancelled += 1,
                }
            }
        }
    }

    /// The aggregate so far.
    pub(crate) fn get(&self) -> SearchStats {
        *lock_unpoisoned(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_formulas_match_definition() {
        let stats = SearchStats {
            candidates: 120,
            ..Default::default()
        };
        // kNN, k = 20: PE = (1000 - (120-20)) / 1000 = 0.9
        assert!((stats.pruning_efficiency_knn(1000, 20) - 0.9).abs() < 1e-12);
        // Range with 30 true results: PE = (1000 - 90)/1000 = 0.91
        assert!((stats.pruning_efficiency_range(1000, 30) - 0.91).abs() < 1e-12);
    }

    #[test]
    fn pe_edge_cases() {
        let s = SearchStats {
            candidates: 5,
            ..Default::default()
        };
        assert_eq!(s.pruning_efficiency_knn(0, 3), 1.0);
        // Candidates fewer than k: PE caps at 1.
        assert_eq!(s.pruning_efficiency_knn(100, 10), 1.0);
    }

    #[test]
    fn merged_sums_all_parts() {
        let a = SearchStats {
            candidates: 3,
            columns_checked: 1,
            ..Default::default()
        };
        let b = SearchStats {
            candidates: 4,
            groups_pruned: 2,
            ..Default::default()
        };
        let m = SearchStats::merged([&a, &b]);
        assert_eq!(m.candidates, 7);
        assert_eq!(m.columns_checked, 1);
        assert_eq!(m.groups_pruned, 2);
        assert_eq!(SearchStats::merged([]), SearchStats::default());
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SearchStats {
            candidates: 1,
            sims_computed: 2,
            columns_checked: 3,
            groups_pruned: 4,
            groups_verified: 5,
            early_exits: 6,
            size_skipped: 7,
            shed: 8,
            expired: 9,
            cancelled: 10,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.candidates, 2);
        assert_eq!(a.columns_checked, 6);
        assert_eq!(a.groups_verified, 10);
        assert_eq!(a.early_exits, 12);
        assert_eq!(a.size_skipped, 14);
        assert_eq!(a.shed, 16);
        assert_eq!(a.expired, 18);
        assert_eq!(a.cancelled, 20);
    }
}
