//! The one query descriptor the engine executes.
//!
//! LES3 has a single query procedure — count `Q`'s TGM columns, order
//! the groups by the Theorem 3.1 bound, verify best-first until the
//! bound cannot beat the threshold. Everything a caller can vary about
//! it is a field of [`Query`]: where the threshold comes from
//! ([`Kind`]), which sets may answer (`mask`), when to stop early
//! (`ctl`) and how recall may be traded ([`ApproxPolicy`]: a prefilter
//! mask, or committing a partial answer when the deadline passes).
//! [`ShardedLes3Index::search`](crate::ShardedLes3Index::search) is the
//! only body that runs it, on the calling thread — on a
//! [`Les3Index`](crate::Les3Index) too, which derefs to that engine; the
//! named `knn*/range*` methods are single expressions over it.
//!
//! ```
//! use les3_core::sim::Jaccard;
//! use les3_core::{ApproxInfo, ApproxPolicy, Kind, Les3Index, Partitioning, Query, QueryScratch};
//! use les3_data::SetDatabase;
//!
//! let db = SetDatabase::from_sets(vec![vec![0u32, 1, 2], vec![0, 1, 3], vec![7, 8]]);
//! let index = Les3Index::build(db, Partitioning::round_robin(3, 2), Jaccard);
//! let mut scratch = QueryScratch::new();
//! // The same search as `index.knn(&[0, 1, 2], 2)`.
//! let query = Query::knn(&[0, 1, 2], 2);
//! let (result, info) = index.search(&query, &mut scratch).unwrap();
//! assert_eq!(result, index.knn(&[0, 1, 2], 2));
//! assert_eq!(info, ApproxInfo::EXACT);
//! assert_eq!(query.kind, Kind::Knn(2));
//! // Every axis is a field: a range that would commit a partial answer
//! // if a deadline passed — with none set, it runs to completion.
//! let query = Query {
//!     approx: ApproxPolicy::Anytime,
//!     ..Query::range(&[0, 1, 2], 0.5)
//! };
//! let (result, _) = index.search(&query, &mut scratch).unwrap();
//! assert_eq!(result, index.range(&[0, 1, 2], 0.5));
//! ```

use les3_data::{SetId, TokenId};

use crate::approx::{coverage, ApproxInfo, ApproxPolicy};
use crate::ctl::{InterruptReason, Interrupted, QueryCtl};
use crate::index::{sort_hits, SearchResult, TopK};
use crate::metadata::FilterCandidates;
use crate::stats::SearchStats;

/// Where the verification threshold comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The `k` most similar sets (Definition 2.1): the threshold is the
    /// running k-th best similarity.
    Knn(usize),
    /// Every set with `Sim(Q, S) ≥ δ` (Definition 2.2): the threshold is
    /// fixed.
    Range(f64),
}

/// One search, fully described. Build with [`Query::knn`] /
/// [`Query::range`] and override fields with struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// The query set's tokens (unsorted or duplicated tokens are
    /// normalized once, inside `search`).
    pub tokens: &'a [TokenId],
    /// kNN or range.
    pub kind: Kind,
    /// Restricts the answer to the sets a mask producer admitted — an
    /// attribute filter ([`crate::MetadataIndex::candidates`]) or the
    /// MinHash prefilter. Phase A then counts only the mask's groups and
    /// verification skips non-matching members; every survivor is still
    /// verified exactly.
    pub mask: Option<&'a FilterCandidates>,
    /// Deadline and cancellation, polled between phase A and
    /// verification and at every group boundary.
    pub ctl: QueryCtl<'a>,
    /// How recall may be traded. [`ApproxPolicy::Exact`] (the default)
    /// and [`ApproxPolicy::Prefilter`] stop with [`Interrupted`] when the
    /// deadline passes; [`ApproxPolicy::Anytime`] commits what was
    /// gathered so far instead. A prefilter builds the query's `mask`
    /// from the MinHash sidecar unless the caller supplied one.
    pub approx: ApproxPolicy,
}

impl<'a> Query<'a> {
    /// An unmasked, uninterruptible exact query.
    pub fn new(tokens: &'a [TokenId], kind: Kind) -> Self {
        Self {
            tokens,
            kind,
            mask: None,
            ctl: QueryCtl::NONE,
            approx: ApproxPolicy::Exact,
        }
    }

    /// [`Query::new`] for the `k` nearest neighbours.
    pub fn knn(tokens: &'a [TokenId], k: usize) -> Self {
        Self::new(tokens, Kind::Knn(k))
    }

    /// [`Query::new`] for every set within `delta`.
    pub fn range(tokens: &'a [TokenId], delta: f64) -> Self {
        Self::new(tokens, Kind::Range(delta))
    }

    /// Whether the answer is empty before any work: nothing asked for
    /// (`k == 0`), nothing indexed, or a mask that admits no group.
    pub(crate) fn is_vacuous(&self, db_is_empty: bool) -> bool {
        let nothing_to_rank = matches!(self.kind, Kind::Knn(k) if k == 0 || db_is_empty);
        nothing_to_rank || self.mask.is_some_and(|cand| cand.groups.is_empty())
    }

    /// How many groups phase A considers: the mask's, or all `n_groups`.
    pub(crate) fn n_considered(&self, n_groups: usize) -> usize {
        self.mask.map_or(n_groups, FilterCandidates::n_groups)
    }
}

/// What a `search` returns: the result and whether recall was traded.
pub type SearchOutcome = Result<(SearchResult, ApproxInfo), Interrupted>;

/// What verification gathered, complete or as far as it got.
pub(crate) enum Gathered {
    /// The kNN heap.
    Heap(TopK),
    /// The range hit list, in discovery order.
    List(Vec<(SetId, f64)>),
}

impl Gathered {
    /// Nothing gathered: phase B never started (or, for a
    /// [`Query::is_vacuous`] query, had nothing to do).
    pub(crate) const NOTHING: Gathered = Gathered::List(Vec::new());

    /// Splits a kNN descent's result into "why it stopped" and its heap.
    pub(crate) fn heap(
        out: Result<TopK, (InterruptReason, TopK)>,
    ) -> (Option<InterruptReason>, Self) {
        match out {
            Ok(top) => (None, Gathered::Heap(top)),
            Err((reason, top)) => (Some(reason), Gathered::Heap(top)),
        }
    }

    /// Runs a range scan into a fresh hit list.
    pub(crate) fn list(
        scan: impl FnOnce(&mut Vec<(SetId, f64)>) -> Result<(), InterruptReason>,
    ) -> (Option<InterruptReason>, Self) {
        let mut hits = Vec::new();
        let stopped = scan(&mut hits).err();
        (stopped, Gathered::List(hits))
    }

    fn into_sorted(self) -> Vec<(SetId, f64)> {
        match self {
            Gathered::Heap(top) => top.into_sorted(),
            Gathered::List(mut hits) => {
                sort_hits(&mut hits);
                hits
            }
        }
    }
}

/// The one place a search's ending is decided. A query that ran to
/// completion is exact; one whose deadline passed under
/// [`ApproxPolicy::Anytime`] keeps what it gathered, with the share of its
/// `n_considered` groups it verified or pruned as the recall estimate
/// (0 when it stopped before verification); every other stop is an
/// [`Interrupted`] carrying the partial stats.
pub(crate) fn settle(
    stopped: Option<InterruptReason>,
    gathered: Gathered,
    stats: SearchStats,
    approx: ApproxPolicy,
    n_considered: usize,
) -> SearchOutcome {
    let info = match (stopped, approx) {
        (None, _) => ApproxInfo::EXACT,
        (Some(InterruptReason::Expired), ApproxPolicy::Anytime) => ApproxInfo {
            approx: true,
            recall_est: coverage(&stats, n_considered),
        },
        (Some(reason), _) => return Err(Interrupted { reason, stats }),
    };
    let hits = gathered.into_sorted();
    Ok((SearchResult { hits, stats }, info))
}

/// Unwraps a search that cannot have been interrupted or approximated:
/// [`QueryCtl::NONE`] never fires.
pub(crate) fn uninterrupted(out: SearchOutcome) -> SearchResult {
    match out {
        Ok((result, _)) => result,
        Err(_) => unreachable!("QueryCtl::NONE never interrupts"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(verified: usize, pruned: usize) -> SearchStats {
        SearchStats {
            groups_verified: verified,
            groups_pruned: pruned,
            columns_checked: 7,
            ..SearchStats::default()
        }
    }

    fn heap(hits: &[(SetId, f64)]) -> Gathered {
        let mut top = TopK::new(8);
        hits.iter().for_each(|&(id, s)| top.offer(id, s));
        Gathered::Heap(top)
    }

    const UNSORTED: [(SetId, f64); 3] = [(9, 0.25), (4, 0.75), (2, 0.25)];
    const SORTED: [(SetId, f64); 3] = [(4, 0.75), (2, 0.25), (9, 0.25)];

    #[test]
    fn expiry_under_commit_keeps_the_gathered_hits_sorted() {
        for gathered in [heap(&UNSORTED), Gathered::List(UNSORTED.to_vec())] {
            let (result, info) = settle(
                Some(InterruptReason::Expired),
                gathered,
                stats(2, 1),
                ApproxPolicy::Anytime,
                12,
            )
            .expect("expiry commits");
            assert_eq!(result.hits, SORTED);
            assert_eq!(result.stats, stats(2, 1));
            assert!(info.approx);
            assert_eq!(info.recall_est, 0.25);
        }
    }

    #[test]
    fn expiry_before_verification_commits_empty_with_zero_recall() {
        for n_considered in [0, 12] {
            let (result, info) = settle(
                Some(InterruptReason::Expired),
                Gathered::NOTHING,
                stats(0, 0),
                ApproxPolicy::Anytime,
                n_considered,
            )
            .expect("expiry commits");
            assert!(result.hits.is_empty());
            assert_eq!((info.approx, info.recall_est), (true, 0.0));
        }
    }

    #[test]
    fn cancellation_and_fail_interrupt_with_the_partial_stats() {
        for (reason, approx) in [
            (InterruptReason::Cancelled, ApproxPolicy::Anytime),
            (InterruptReason::Cancelled, ApproxPolicy::Exact),
            (InterruptReason::Expired, ApproxPolicy::Exact),
            // A prefilter over a caller's mask fails on expiry too.
            (
                InterruptReason::Expired,
                ApproxPolicy::Prefilter { bands: 0, rows: 1 },
            ),
        ] {
            let err = settle(Some(reason), heap(&UNSORTED), stats(3, 0), approx, 12)
                .expect_err("must interrupt");
            assert_eq!(err.reason, reason);
            assert_eq!(err.stats, stats(3, 0));
        }
    }

    #[test]
    fn completion_is_exact_under_either_policy() {
        for approx in [ApproxPolicy::Exact, ApproxPolicy::Anytime] {
            let (result, info) =
                settle(None, heap(&UNSORTED), stats(5, 7), approx, 12).expect("completed");
            assert_eq!(result.hits, SORTED);
            assert_eq!(info, ApproxInfo::EXACT);
        }
    }

    #[test]
    fn vacuous_queries_are_recognised_before_any_work() {
        assert!(Query::knn(&[1], 0).is_vacuous(false));
        assert!(Query::knn(&[1], 3).is_vacuous(true));
        assert!(!Query::knn(&[1], 3).is_vacuous(false));
        // Range has no `k`; on an empty index it runs (and finds nothing).
        assert!(!Query::range(&[1], 0.5).is_vacuous(true));
        let empty = FilterCandidates::default();
        let masked = Query {
            mask: Some(&empty),
            ..Query::range(&[1], 0.5)
        };
        assert!(masked.is_vacuous(false));
        assert_eq!(masked.n_considered(40), 0);
        assert_eq!(Query::knn(&[1], 3).n_considered(40), 40);
    }
}
