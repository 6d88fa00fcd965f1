//! The query engine: one TGM and one verification order over the whole
//! group axis.
//!
//! A [`ShardedLes3Index`] is the paper's index — one [`Tgm`] over one
//! [`Partitioning`] (§3.1), one length-sorted verification order — and
//! the crate's only in-memory engine: [`crate::Les3Index`] derefs to it,
//! and `search`, `insert`, [`crate::DeletionLog::delete`] and the
//! persistence layer exist once, here. A query is one
//! filter pass, one bound stream in the bucketed `(overlap r descending,
//! group id ascending)` order, and one descent over it
//! (`tests/golden_stats.rs` pins its work). The type's name and the
//! ignored layout arguments of [`ShardedLes3Index::build`] remain only
//! until the repository benchmark stops naming them (ROADMAP 1(f)).
//!
//! # Example
//!
//! ```
//! use les3_core::sim::Jaccard;
//! use les3_core::{Les3Index, Partitioning, ShardPolicy, ShardedLes3Index};
//! use les3_data::SetDatabase;
//!
//! let db = SetDatabase::from_sets(vec![
//!     vec![0u32, 1, 2],
//!     vec![0, 1, 3],
//!     vec![2, 3, 4],
//!     vec![7, 8],
//! ]);
//! let part = Partitioning::round_robin(4, 2);
//! let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
//! let same = ShardedLes3Index::build(db, part, Jaccard, 2, ShardPolicy::Contiguous);
//! // One engine: the same traversal, hits AND stats.
//! assert_eq!(same.knn(&[0, 1, 2], 3), flat.knn(&[0, 1, 2], 3));
//! assert_eq!(same.range(&[0, 1, 2], 0.5), flat.range(&[0, 1, 2], 0.5));
//! ```

use les3_data::{SetDatabase, SetId, TokenId};

use crate::approx::{self, ApproxParams, ApproxPolicy, MinHashIndex};
use crate::ctl::{InterruptReason, Interrupted, QueryCtl};
use crate::index::{bucketed_descending, SearchResult, TopK, VerifyOrder, VerifyQuery};
use crate::metadata::FilterCandidates;
use crate::partitioning::Partitioning;
use crate::query::{self, Gathered, Kind, Query, SearchOutcome};
use crate::scratch::{FilterScratch, QueryScratch};
use crate::sim::{normalize_query, PreparedQuery, Similarity};
use crate::stats::SearchStats;
use crate::tgm::Tgm;

/// The layout argument of [`ShardedLes3Index::build`]: ignored, kept
/// only because the repository benchmark still names it (ROADMAP 1(f)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// The one remaining value; it selects nothing.
    Contiguous,
}

/// One entry of the filter output: a group in verification order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupBound {
    /// Group id (the order's tie-breaker).
    pub(crate) group: u32,
    /// Overlap count `r = |GS_g ∩ Q|` (the order's primary key — the
    /// upper bound is monotone in `r` but not injective, so ordering by
    /// `ub` alone would not reproduce the bucketed order). The bound
    /// itself (`UB(Q, G_g)`, Eq. 2) is derived lazily from `r` only for
    /// entries the descent reaches — groups pruned wholesale never pay
    /// for one. A kNN also caps the group's verify window by it.
    pub(crate) r: u32,
}

/// The LES3 index: database + partitioning + TGM + verification order +
/// similarity measure, answering exact kNN and range queries.
#[derive(Debug, Clone)]
pub struct ShardedLes3Index<S: Similarity> {
    pub(crate) db: SetDatabase,
    pub(crate) partitioning: Partitioning,
    pub(crate) sim: S,
    /// The token-group matrix over every group.
    pub(crate) tgm: Tgm,
    /// Length-sorted verification order, indexed by group id.
    pub(crate) verify: VerifyOrder,
    /// The opt-in MinHash sidecar of the approximate tier.
    pub(crate) approx: Option<MinHashIndex>,
}

impl<S: Similarity> ShardedLes3Index<S> {
    /// Builds the index: [`crate::Les3Index::build`] under this type's
    /// name. `_n_shards` and `_policy` are ignored; they stay only
    /// because the repository benchmark still passes them (ROADMAP 1(f)).
    pub fn build(
        db: SetDatabase,
        partitioning: Partitioning,
        sim: S,
        _n_shards: usize,
        _policy: ShardPolicy,
    ) -> Self {
        Self::new(db, partitioning, sim)
    }

    /// The engine over `db` + `partitioning`: the one place an engine is
    /// made, shared by both `build`s and the persistence layer's reopen —
    /// a segment stores the facts, not the structures, so an opened index
    /// is built by the code a fresh one is. The partitioning must cover
    /// the database.
    pub(crate) fn new(db: SetDatabase, partitioning: Partitioning, sim: S) -> Self {
        assert_eq!(
            db.len(),
            partitioning.n_sets(),
            "partitioning must cover the database"
        );
        Self {
            tgm: Tgm::build(&db, &partitioning),
            verify: VerifyOrder::build(&db, &partitioning),
            db,
            partitioning,
            sim,
            approx: None,
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &SetDatabase {
        &self.db
    }

    /// The partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The similarity measure.
    pub fn sim(&self) -> S {
        self.sim
    }

    /// Index size: the compressed matrix (Figure-11 quantity).
    pub fn index_size_in_bytes(&self) -> usize {
        self.tgm.size_in_bytes()
    }

    /// Builds the MinHash sidecar that backs
    /// [`ApproxPolicy::Prefilter`] queries. Until this is called,
    /// prefilter queries fall back to the exact path. The sidecar lives
    /// in memory only: saving the engine does not store it.
    pub fn enable_approx(&mut self, params: ApproxParams) {
        self.approx = Some(MinHashIndex::build(&self.db, params));
    }

    /// The MinHash sidecar, if the approximate tier is enabled.
    pub fn approx_sidecar(&self) -> Option<&MinHashIndex> {
        self.approx.as_ref()
    }

    /// The live members of group `g` that the kNN length window admits at
    /// `threshold`, for a query of `q_len` distinct tokens sharing `r`
    /// tokens with the group's TGM row. Exposed for the window's
    /// soundness property test (`tests/hotpath_equivalence.rs`); not
    /// public API.
    #[doc(hidden)]
    pub fn verify_window(&self, g: u32, q_len: usize, r: usize, threshold: f64) -> &[SetId] {
        self.verify.window(self.sim, g, q_len, r, threshold).0
    }

    /// The filter pass: word-parallel overlap counts over the TGM, then
    /// the `O(G + |Q|)` bucketed descending selection, written into
    /// `stream` in `(r descending, group id ascending)` order. Returns
    /// the TGM bits visited.
    pub(crate) fn filter(
        &self,
        query: &[TokenId],
        q_len: usize,
        kernel: &mut FilterScratch,
        stream: &mut Vec<GroupBound>,
    ) -> u64 {
        let cols = self.tgm.group_overlaps_into(query, &mut kernel.counts);
        stream.clear();
        stream.resize(self.tgm.n_groups(), GroupBound::default());
        bucketed_descending(
            &kernel.counts,
            q_len,
            &mut kernel.offsets,
            |pos, group, r| {
                stream[pos] = GroupBound { group, r };
            },
        );
        cols
    }

    /// [`ShardedLes3Index::filter`] restricted to a filtered query's
    /// candidate `groups` (ascending, so the emitted order is again `(r
    /// descending, group id ascending)`).
    fn filter_restricted(
        &self,
        query: &[TokenId],
        q_len: usize,
        groups: &[u32],
        kernel: &mut FilterScratch,
        stream: &mut Vec<GroupBound>,
    ) -> u64 {
        let cols = self.tgm.group_overlaps_restricted_into(
            query,
            groups,
            &mut kernel.mask,
            &mut kernel.restricted,
            &mut kernel.restricted_out,
        );
        stream.clear();
        stream.resize(groups.len(), GroupBound::default());
        bucketed_descending(
            &kernel.restricted_out,
            q_len,
            &mut kernel.offsets,
            |pos, i, r| {
                let group = groups[i as usize];
                stream[pos] = GroupBound { group, r };
            },
        );
        cols
    }

    /// The best-first kNN descent over the bound stream, stopping at the
    /// first group whose bound cannot improve the k-th best (Theorem
    /// 3.1); each verified group's length window is capped by its overlap
    /// count `r`. Polls `ctl` at every group boundary.
    fn knn_descend(
        &self,
        verify: &VerifyQuery<'_, S>,
        k: usize,
        stream: &[GroupBound],
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<TopK, (InterruptReason, TopK)> {
        let mut top = TopK::new(k);
        for (i, b) in stream.iter().enumerate() {
            // The bound is derived from `r` only here, at the front:
            // groups pruned wholesale never pay for one.
            let ub = self.sim.ub_from_overlap(verify.q_len(), b.r as usize);
            if top.is_full() && ub <= top.kth() {
                // Every remaining group sits behind this one in the
                // order, so they are all beaten too.
                stats.groups_pruned += stream.len() - i;
                break;
            }
            // Group boundary: stop before the next verification, not
            // after the whole descent. The partial heap rides along for
            // the anytime tier (exact callers drop it).
            if let Some(reason) = ctl.interrupted() {
                return Err((reason, top));
            }
            stats.groups_verified += 1;
            verify.knn_window(&self.verify, b.group, b.r, &mut top, stats);
        }
        Ok(top)
    }

    /// The range descent: verifies every group of `stream` whose bound
    /// reaches `delta`, in stream order — the order a deadline-committed
    /// partial answer is defined by — appending hits unsorted (`settle`
    /// sorts them). Polls `ctl` at every group boundary.
    fn range_descend(
        &self,
        verify: &VerifyQuery<'_, S>,
        delta: f64,
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
        for b in survivors {
            if let Some(reason) = ctl.interrupted() {
                return Err(reason);
            }
            stats.groups_verified += 1;
            verify.range_window(&self.verify, b.group, delta, hits, stats);
        }
        stats.groups_pruned += pruned.len();
        Ok(())
    }

    /// Runs one [`Query`] — the only query body of the in-memory index
    /// ([`crate::Les3Index`] derefs to it); every named `knn*/range*`
    /// method below is a single expression over it.
    ///
    /// An [`ApproxPolicy::Prefilter`] query without a mask first scans the
    /// MinHash sidecar into one — the same composition point as attribute
    /// filters — and runs again, masked and exact, with the prefilter
    /// verdict attached. A saturated candidate set (every set collides,
    /// e.g. `rows == 0`) and a missing sidecar both run unmasked, so those
    /// configurations stay bit-for-bit exact; a mask the caller supplied
    /// wins and the scan is skipped. [`ApproxPolicy::Anytime`] commits the
    /// partial answer when the deadline passes; every other policy fails.
    ///
    /// Guards, then phase A (the full filter pass, or the restricted
    /// kernels over the mask's groups), one `ctl` poll — filtering is
    /// cheap, verification is where the CPU goes, so an expired or
    /// cancelled query must not start it — then phase B over the bound
    /// stream on the calling thread: the best-first `knn_descend`, or
    /// `range_descend` over its surviving prefix.
    pub fn search(&self, q: &Query<'_>, scratch: &mut QueryScratch) -> SearchOutcome {
        if let (ApproxPolicy::Prefilter { bands, rows }, None) = (q.approx, q.mask) {
            return approx::run_prefiltered(
                self.approx_sidecar(),
                self.partitioning(),
                q.tokens,
                (bands, rows),
                scratch,
                |mask, scratch| {
                    let approx = ApproxPolicy::Exact;
                    self.search(&Query { mask, approx, ..*q }, scratch)
                },
            );
        }
        let mut stats = SearchStats::default();
        if q.is_vacuous(self.db.is_empty()) {
            return query::settle(None, Gathered::NOTHING, stats, q.approx, 0);
        }
        // One sort for an unsorted query serves the filter pass and the
        // verify step alike.
        let tokens = &*normalize_query(q.tokens);
        let QueryScratch {
            filter,
            stream,
            bits,
            ..
        } = scratch;
        // A kNN verifies by bitset lookups; a range keeps the merge.
        let query = match q.kind {
            Kind::Knn(_) => bits.prepare(tokens, self.db.universe_size()),
            Kind::Range(_) => PreparedQuery::without_bits(tokens),
        };
        let q_len = query.distinct_len();
        let n_considered = q.n_considered(self.partitioning.n_groups());
        let cols = match q.mask {
            None => self.filter(tokens, q_len, filter, stream),
            Some(cand) => self.filter_restricted(tokens, q_len, &cand.groups, filter, stream),
        };
        stats.columns_checked += cols as usize;
        // Phase boundary: verification must not start for an expired or
        // cancelled query.
        if let stopped @ Some(_) = q.ctl.interrupted() {
            return query::settle(stopped, Gathered::NOTHING, stats, q.approx, n_considered);
        }
        let verify = VerifyQuery {
            sim: self.sim,
            db: &self.db,
            query,
            filter: q.mask.map(|cand| &cand.sets),
        };
        let ctl = &q.ctl;
        let (stopped, gathered) = match q.kind {
            Kind::Knn(k) => Gathered::heap(self.knn_descend(&verify, k, stream, &mut stats, ctl)),
            Kind::Range(delta) => Gathered::list(|hits| {
                self.range_descend(&verify, delta, stream, hits, &mut stats, ctl)
            }),
        };
        query::settle(stopped, gathered, stats, q.approx, n_considered)
    }

    /// Exact kNN search (Definition 2.1).
    pub fn knn(&self, query: &[TokenId], k: usize) -> SearchResult {
        self.knn_with(query, k, &mut QueryScratch::new())
    }

    /// [`ShardedLes3Index::knn`] with caller-provided scratch
    /// (allocation-free in steady state).
    pub fn knn_with(
        &self,
        query: &[TokenId],
        k: usize,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        query::uninterrupted(self.search(&Query::knn(query, k), scratch))
    }

    /// Exact kNN under cooperative interruption. `_workers` is ignored:
    /// every query runs on the calling thread.
    pub fn knn_ctl_on(
        &self,
        _workers: usize,
        query: &[TokenId],
        k: usize,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        let q = Query {
            ctl: *ctl,
            ..Query::knn(query, k)
        };
        self.search(&q, scratch).map(|(result, _)| result)
    }

    /// [`ShardedLes3Index::knn_ctl_on`] over the matching subset of a
    /// filtered query: the k most similar sets among those `cand`
    /// admits. `_workers` is ignored.
    pub fn knn_filtered_ctl_on(
        &self,
        _workers: usize,
        query: &[TokenId],
        k: usize,
        cand: &FilterCandidates,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        let q = Query {
            mask: Some(cand),
            ctl: *ctl,
            ..Query::knn(query, k)
        };
        self.search(&q, scratch).map(|(result, _)| result)
    }

    /// kNN under an [`ApproxPolicy`]: [`ShardedLes3Index::search`] taking
    /// its [`Query`] as an argument list. `_workers` is ignored.
    pub fn knn_approx_ctl_on(
        &self,
        _workers: usize,
        query: &[TokenId],
        k: usize,
        approx: ApproxPolicy,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> SearchOutcome {
        let ctl = *ctl;
        self.search(
            &Query {
                ctl,
                approx,
                ..Query::knn(query, k)
            },
            scratch,
        )
    }

    /// Exact range search (Definition 2.2): all sets
    /// with `Sim(Q, S) ≥ delta`.
    pub fn range(&self, query: &[TokenId], delta: f64) -> SearchResult {
        self.range_with(query, delta, &mut QueryScratch::new())
    }

    /// [`ShardedLes3Index::range`] with caller-provided scratch.
    pub fn range_with(
        &self,
        query: &[TokenId],
        delta: f64,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        query::uninterrupted(self.search(&Query::range(query, delta), scratch))
    }

    /// Exact range search under cooperative interruption. `_workers` is
    /// ignored: every query runs on the calling thread.
    pub fn range_ctl_on(
        &self,
        _workers: usize,
        query: &[TokenId],
        delta: f64,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        let q = Query {
            ctl: *ctl,
            ..Query::range(query, delta)
        };
        self.search(&q, scratch).map(|(result, _)| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Jaccard;
    use les3_data::zipfian::ZipfianGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_partitioning(n: usize, groups: usize, seed: u64) -> Partitioning {
        let mut rng = StdRng::seed_from_u64(seed);
        Partitioning::from_assignment(
            (0..n).map(|_| rng.gen_range(0..groups as u32)).collect(),
            groups,
        )
    }

    #[test]
    fn sharded_scratch_reuse_is_equivalent_to_fresh() {
        let db = ZipfianGenerator::new(300, 200, 6.0, 1.2).generate(8);
        let part = random_partitioning(db.len(), 12, 2);
        let index = ShardedLes3Index::build(db.clone(), part, Jaccard, 4, ShardPolicy::Contiguous);
        let mut scratch = QueryScratch::new();
        for qid in [0u32, 50, 299] {
            let q = db.set(qid).to_vec();
            assert_eq!(
                index.knn_with(&q, 5, &mut scratch).hits,
                index.knn(&q, 5).hits
            );
            assert_eq!(
                index.range_with(&q, 0.4, &mut scratch).hits,
                index.range(&q, 0.4).hits
            );
        }
    }

    #[test]
    fn knn_handles_degenerate_inputs() {
        let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![2, 3]]);
        let index = ShardedLes3Index::build(
            db,
            Partitioning::round_robin(2, 2),
            Jaccard,
            2,
            ShardPolicy::Contiguous,
        );
        assert!(index.knn(&[0, 1], 0).hits.is_empty());
        assert_eq!(index.knn(&[0, 1], 10).hits.len(), 2);
        let res = index.knn(&[100, 200], 1);
        assert_eq!(res.hits.len(), 1);
        assert_eq!(res.hits[0].1, 0.0);
    }
}
