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

use std::cmp::Ordering;

use les3_data::{SetDatabase, SetId, TokenId};

use crate::approx::{self, ApproxParams, ApproxPolicy, MinHashIndex};
use crate::ctl::{InterruptReason, Interrupted, QueryCtl};
use crate::index::{
    bucketed_descending, window_limits, SearchResult, TopK, VerifyOrder, VerifyQuery, WindowCache,
};
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
    /// Insert placement's phase-A buffers, reused across inserts.
    pub(crate) placement: FilterScratch,
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
            placement: FilterScratch::default(),
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
        let (lo, hi) = window_limits(self.sim, q_len, r, threshold);
        self.verify.window(g, lo, hi).0
    }

    /// Phase A: the groups a query goes on to, written into `stream` in
    /// `(r descending, group id ascending)` order. A kNN (`range` is
    /// `None`) counts every query column over every group and orders them
    /// all — or, for a filtered query, the mask's candidate `groups`
    /// (ascending) only. A range at `Some(delta)` needs an overlap of at
    /// least `o` ([`ShardedLes3Index::min_overlap`]): it counts the rarest
    /// `|Q| − o + 1` columns, completes the counts of the groups they
    /// reach and orders those that reach `o` — the mask's share of them,
    /// for a filtered query — so its stream is exactly the groups it
    /// verifies; every other group is pruned. `o = 0` is the kNN's full
    /// count, and a `delta` no bound reaches counts nothing. Returns the
    /// TGM bits visited ([`Tgm::overlaps_reaching`]), which the mask does
    /// not change: it picks groups after phase A, not columns before it.
    pub(crate) fn filter(
        &self,
        query: &[TokenId],
        q_len: usize,
        range: Option<f64>,
        groups: Option<&[u32]>,
        kernel: &mut FilterScratch,
        stream: &mut Vec<GroupBound>,
    ) -> u64 {
        let Some(o) = range.map_or(Some(0), |delta| self.min_overlap(q_len, delta)) else {
            stream.clear();
            return 0;
        };
        let visited = self.tgm.overlaps_reaching(query, o, kernel);
        let FilterScratch {
            counts,
            offsets,
            survivors,
            ..
        } = kernel;
        let with_r = |&g: &u32| (g, counts[g as usize]);
        match (o, groups) {
            (0, None) => {
                bucketed_descending((0u32..).zip(counts.iter().copied()), q_len, offsets, stream);
            }
            (0, Some(groups)) => {
                bucketed_descending(groups.iter().map(with_r), q_len, offsets, stream)
            }
            (_, groups) => {
                if let Some(groups) = groups {
                    let mut mask = groups.iter().peekable();
                    survivors.retain(|g| {
                        while mask.next_if(|&m| m < g).is_some() {}
                        mask.next_if_eq(&g).is_some()
                    });
                }
                bucketed_descending(survivors.iter().map(with_r), q_len, offsets, stream);
            }
        }
        visited
    }

    /// The least overlap `o ∈ 0..=q_len` whose bound reaches `delta`, or
    /// `None` if none does — no bound reaches a NaN `delta`. The bound is
    /// monotone in the overlap, so a range verifies exactly the groups
    /// with `r ≥ o`.
    fn min_overlap(&self, q_len: usize, delta: f64) -> Option<usize> {
        (0..=q_len).find(|&r| {
            let ub = self.sim.ub_from_overlap(q_len, r);
            ub.partial_cmp(&delta).is_some_and(Ordering::is_ge)
        })
    }

    /// The best-first kNN descent over the bound stream, stopping at the
    /// first group whose bound cannot improve the k-th best (Theorem
    /// 3.1); each verified group's length window is capped by its overlap
    /// count `r`. Polls `ctl` at every group boundary.
    ///
    /// The body is compiled twice: portable, and for CPUs with the
    /// `popcnt` instruction, which the block walk's signature test runs
    /// once per window member. The CPU is asked once per query; other
    /// architectures build the portable body only.
    fn knn_descend(
        &self,
        verify: &VerifyQuery<'_, S>,
        cache: &mut WindowCache,
        k: usize,
        stream: &[GroupBound],
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<TopK, (InterruptReason, TopK)> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: `knn_descend_popcnt` is compiled for the popcnt
            // instruction, and the line above found it on this CPU.
            return unsafe { self.knn_descend_popcnt(verify, cache, k, stream, stats, ctl) };
        }
        self.knn_descend_portable(verify, cache, k, stream, stats, ctl)
    }

    /// [`ShardedLes3Index::knn_descend`]'s body compiled for the popcnt
    /// instruction.
    ///
    /// # Safety
    ///
    /// Callers without the `popcnt` target feature must make sure the CPU
    /// has the instruction before calling this.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn knn_descend_popcnt(
        &self,
        verify: &VerifyQuery<'_, S>,
        cache: &mut WindowCache,
        k: usize,
        stream: &[GroupBound],
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<TopK, (InterruptReason, TopK)> {
        self.knn_descend_body(verify, cache, k, stream, stats, ctl)
    }

    /// Runs the kNN descent over `stream` through every compilation of its
    /// body this CPU can run — the portable one first, then the popcnt
    /// one where the CPU has the instruction — each from a fresh window
    /// cache and fresh counters, for the tests to compare.
    #[cfg(test)]
    pub(crate) fn knn_descend_each_compilation(
        &self,
        verify: &VerifyQuery<'_, S>,
        k: usize,
        stream: &[GroupBound],
    ) -> Vec<(Vec<(SetId, f64)>, SearchStats)> {
        let run = |descend: &dyn Fn(&mut WindowCache, &mut SearchStats) -> Result<TopK, _>| {
            let (mut cache, mut stats) = (WindowCache::default(), SearchStats::default());
            cache.reset(verify.q_len());
            let Ok(top) = descend(&mut cache, &mut stats) else {
                panic!("QueryCtl::NONE never interrupts");
            };
            (top.into_sorted(), stats)
        };
        let ctl = &QueryCtl::NONE;
        let mut each = vec![run(&|cache, stats| {
            self.knn_descend_portable(verify, cache, k, stream, stats, ctl)
        })];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            each.push(run(&|cache, stats| {
                // SAFETY: the CPU has the popcnt instruction (checked above).
                unsafe { self.knn_descend_popcnt(verify, cache, k, stream, stats, ctl) }
            }));
        }
        each
    }

    /// [`ShardedLes3Index::knn_descend`]'s body compiled for any CPU.
    fn knn_descend_portable(
        &self,
        verify: &VerifyQuery<'_, S>,
        cache: &mut WindowCache,
        k: usize,
        stream: &[GroupBound],
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<TopK, (InterruptReason, TopK)> {
        self.knn_descend_body(verify, cache, k, stream, stats, ctl)
    }

    /// The descent itself, inlined into both compilations.
    #[inline(always)]
    fn knn_descend_body(
        &self,
        verify: &VerifyQuery<'_, S>,
        cache: &mut WindowCache,
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
            verify.knn_window(cache, &self.verify, b.group, b.r, &mut top, stats);
        }
        Ok(top)
    }

    /// The range descent: verifies every group of `stream` — phase A
    /// left exactly the groups whose bound reaches `delta` in it — in
    /// stream order, the order a deadline-committed partial answer is
    /// defined by, appending hits unsorted (`settle` sorts them), and
    /// prunes the rest of the `n_considered` groups. Polls `ctl` at every
    /// group boundary.
    #[allow(clippy::too_many_arguments)]
    fn range_descend(
        &self,
        verify: &VerifyQuery<'_, S>,
        cache: &mut WindowCache,
        delta: f64,
        stream: &[GroupBound],
        n_considered: usize,
        hits: &mut Vec<(SetId, f64)>,
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<(), InterruptReason> {
        // Counted before the loop: an interrupted range has pruned them
        // all the same, and its partial stats and recall estimate say so.
        stats.groups_pruned += n_considered - stream.len();
        for b in stream {
            if let Some(reason) = ctl.interrupted() {
                return Err(reason);
            }
            stats.groups_verified += 1;
            verify.range_window(cache, &self.verify, b.group, delta, hits, stats);
        }
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
    /// Guards, then phase A (`ShardedLes3Index::filter`: a kNN counts
    /// every query column, a range only those that can still change which
    /// groups survive; a mask only picks which groups enter the stream),
    /// one `ctl` poll — filtering is cheap, verification is where the CPU
    /// goes, so an expired or cancelled query must not start it — then
    /// phase B over the bound stream on the calling thread: the
    /// best-first `knn_descend`, or `range_descend` over every group in
    /// it.
    pub fn search(&self, q: &Query<'_>, scratch: &mut QueryScratch) -> SearchOutcome {
        self.search_with(q, scratch, Self::filter)
    }

    /// [`ShardedLes3Index::search`] over the given phase A, which fills
    /// the stream as [`ShardedLes3Index::filter`] does and returns the
    /// bits it visited. `search` passes `filter`; the tests pass the full
    /// count it replaced, as its oracle.
    fn search_with(
        &self,
        q: &Query<'_>,
        scratch: &mut QueryScratch,
        phase_a: impl Copy
            + Fn(
                &Self,
                &[TokenId],
                usize,
                Option<f64>,
                Option<&[u32]>,
                &mut FilterScratch,
                &mut Vec<GroupBound>,
            ) -> u64,
    ) -> SearchOutcome {
        if let (ApproxPolicy::Prefilter { bands, rows }, None) = (q.approx, q.mask) {
            return approx::run_prefiltered(
                self.approx_sidecar(),
                self.partitioning(),
                q.tokens,
                (bands, rows),
                scratch,
                |mask, scratch| {
                    let approx = ApproxPolicy::Exact;
                    self.search_with(&Query { mask, approx, ..*q }, scratch, phase_a)
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
            window,
            ..
        } = scratch;
        // A kNN verifies by bitset lookups; a range keeps the merge.
        let query = match q.kind {
            Kind::Knn(_) => bits.prepare(tokens, self.db.universe_size()),
            Kind::Range(_) => PreparedQuery::without_bits(tokens),
        };
        let q_len = query.distinct_len();
        window.reset(q_len);
        let n_considered = q.n_considered(self.partitioning.n_groups());
        let groups = q.mask.map(|cand| &*cand.groups);
        let range = match q.kind {
            Kind::Knn(_) => None,
            Kind::Range(delta) => Some(delta),
        };
        stats.columns_checked +=
            phase_a(self, tokens, q_len, range, groups, filter, stream) as usize;
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
            Kind::Knn(k) => {
                Gathered::heap(self.knn_descend(&verify, window, k, stream, &mut stats, ctl))
            }
            Kind::Range(delta) => Gathered::list(|hits| {
                let n = n_considered;
                self.range_descend(&verify, window, delta, stream, n, hits, &mut stats, ctl)
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
    use proptest::prelude::*;
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

    /// A phase A as `search_with` takes it.
    type PhaseA<S> = fn(
        &ShardedLes3Index<S>,
        &[TokenId],
        usize,
        Option<f64>,
        Option<&[u32]>,
        &mut FilterScratch,
        &mut Vec<GroupBound>,
    ) -> u64;

    /// Phase A before it counted rarest-first, the oracle of
    /// [`ShardedLes3Index::filter`]: every column counted over every group
    /// ([`Tgm::reference_overlaps_into`]), every considered group
    /// bucket-ordered, and a range's stream cut at the first group whose
    /// bound misses `delta` (no bound reaches a NaN one).
    fn full_count_filter<S: Similarity>(
        index: &ShardedLes3Index<S>,
        query: &[TokenId],
        q_len: usize,
        range: Option<f64>,
        groups: Option<&[u32]>,
        kernel: &mut FilterScratch,
        stream: &mut Vec<GroupBound>,
    ) -> u64 {
        let visited = index.tgm.reference_overlaps_into(query, &mut kernel.counts);
        let (counts, offsets) = (&kernel.counts, &mut kernel.offsets);
        match groups {
            None => {
                bucketed_descending((0u32..).zip(counts.iter().copied()), q_len, offsets, stream)
            }
            Some(groups) => {
                let entries = groups.iter().map(|&g| (g, counts[g as usize]));
                bucketed_descending(entries, q_len, offsets, stream);
            }
        }
        if let Some(delta) = range {
            let beaten = |b: &GroupBound| {
                let ub = index.sim.ub_from_overlap(q_len, b.r as usize);
                ub.partial_cmp(&delta).is_none_or(Ordering::is_lt)
            };
            stream.truncate(stream.iter().position(beaten).unwrap_or(stream.len()));
        }
        visited
    }

    /// `q` through `phase_a`, its `ctl` replaced by one that lets `polls`
    /// boundary polls pass (all of them for `None`) and stops at the next:
    /// cancelled, or — with `expire` — once the deadline it waits out at
    /// that poll has passed, which an [`ApproxPolicy::Anytime`] query
    /// commits.
    fn run_stopped<S: Similarity>(
        index: &ShardedLes3Index<S>,
        q: &Query<'_>,
        (polls, expire): (Option<usize>, bool),
        scratch: &mut QueryScratch,
        phase_a: PhaseA<S>,
    ) -> SearchOutcome {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(20);
        let seen = std::cell::Cell::new(0);
        let gone = || {
            seen.set(seen.get() + 1);
            let stop = polls.is_some_and(|n| seen.get() > n);
            while stop && expire && std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
            stop && !expire
        };
        let deadline = expire.then_some(deadline);
        let ctl = QueryCtl::new(deadline, None).or_gone(&gone);
        index.search_with(&Query { ctl, ..*q }, scratch, phase_a)
    }

    /// An outcome with `columns_checked` cleared: the one counter the
    /// rarest-first rule may move.
    fn but_bits(mut out: SearchOutcome) -> SearchOutcome {
        match &mut out {
            Ok((result, _)) => result.stats.columns_checked = 0,
            Err(stop) => stop.stats.columns_checked = 0,
        }
        out
    }

    /// `search` against the oracle phase A on `q` stopped as `stop` says:
    /// hits, approximation info and every counter but `columns_checked`
    /// agree — that too for a kNN, which counts every column either way.
    /// Stopped at the phase boundary, `search` has pruned and verified
    /// nothing.
    fn agrees_with_the_full_count<S: Similarity>(
        index: &ShardedLes3Index<S>,
        q: &Query<'_>,
        stop: (Option<usize>, bool),
        scratch: &mut QueryScratch,
    ) -> Result<(), String> {
        let got = run_stopped(index, q, stop, scratch, ShardedLes3Index::filter);
        let want = run_stopped(index, q, stop, scratch, full_count_filter);
        let stats = match &got {
            Ok((result, _)) => result.stats,
            Err(stopped) => stopped.stats,
        };
        if stop.0 == Some(0) && stats.groups_pruned + stats.groups_verified > 0 {
            return Err(format!("{q:?} stopped at the phase boundary: {got:?}"));
        }
        let (got, want) = match q.kind {
            Kind::Knn(_) => (got, want),
            Kind::Range(_) => (but_bits(got), but_bits(want)),
        };
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{} {:?} q={:?} masked={} stop={stop:?}:\n{got:?}\n!= {want:?}",
                index.sim.name(),
                q.kind,
                q.tokens,
                q.mask.is_some()
            ))
        }
    }

    const DELTAS: [f64; 10] = [
        f64::NEG_INFINITY,
        0.0,
        0.3,
        0.5,
        0.7,
        0.8,
        0.9,
        1.0,
        1.5,
        f64::NAN,
    ];

    proptest! {
        /// Rarest-first phase A against the full count it replaced, through
        /// `search`: all four measures, every δ of [`DELTAS`], member
        /// queries with extra tokens (duplicates and ones past the universe
        /// among them), the empty query and `u32::MAX`, random partitions
        /// with empty groups, with and without a mask, uninterrupted and
        /// stopped at the phase boundary or after the first group, before
        /// and after inserts (new columns and bits) and deletes (cleared
        /// bits). kNNs ride along at k = 1 and 5.
        #[test]
        fn rarest_first_phase_a_equals_the_full_count(
            sets in prop::collection::vec(prop::collection::vec(0u32..30, 0..10), 1..50),
            n_groups in 1usize..10,
            picks in prop::collection::vec(0usize..1000, 50),
            extras in prop::collection::vec((0usize..1000, prop::collection::vec(0u32..36, 0..5)), 1..4),
            inserts in prop::collection::vec(prop::collection::vec(0u32..40, 0..10), 0..6),
            deletes in prop::collection::vec(0usize..1000, 0..8),
            mask_word in any::<u64>(),
        ) {
            fn check<S: Similarity>(
                sim: S,
                (db, part): (&SetDatabase, &Partitioning),
                extras: &[(usize, Vec<TokenId>)],
                (inserts, deletes): (&[Vec<TokenId>], &[usize]),
                mask_word: u64,
            ) -> Result<(), String> {
                let mut index = ShardedLes3Index::new(db.clone(), part.clone(), sim);
                let mut log = crate::DeletionLog::build(&index);
                let mut scratch = QueryScratch::new();
                let mut queries: Vec<Vec<TokenId>> = extras
                    .iter()
                    .map(|(pick, extra)| [db.set((pick % db.len()) as SetId), extra].concat())
                    .collect();
                queries.extend([vec![], vec![u32::MAX, 3, 3]]);
                for round in 0..2 {
                    let mask = FilterCandidates::from_words(&[mask_word], &index.partitioning);
                    for q in &queries {
                        for mask in [None, Some(&mask)] {
                            for k in [1, 5] {
                                let knn = Query { mask, ..Query::knn(q, k) };
                                agrees_with_the_full_count(&index, &knn, (None, false), &mut scratch)?;
                            }
                            for delta in DELTAS {
                                let range = Query {
                                    mask,
                                    approx: ApproxPolicy::Anytime,
                                    ..Query::range(q, delta)
                                };
                                for polls in [None, Some(0), Some(1)] {
                                    agrees_with_the_full_count(&index, &range, (polls, false), &mut scratch)?;
                                }
                            }
                        }
                    }
                    if round == 0 {
                        for set in inserts {
                            let (id, _) = index.insert(&mut set.clone());
                            log.note_insert(&index, id);
                        }
                        for &d in deletes {
                            let id = (d % index.db.len()) as SetId;
                            log.delete(&mut index, id);
                        }
                    }
                }
                Ok(())
            }
            let db = SetDatabase::from_sets(sets);
            let assignment = picks[..db.len()].iter().map(|&p| (p % n_groups) as u32).collect();
            let part = Partitioning::from_assignment(assignment, n_groups);
            let fixture = (&db, &part);
            let updates = (&inserts[..], &deletes[..]);
            let checks = [
                check(Jaccard, fixture, &extras, updates, mask_word),
                check(crate::sim::Cosine, fixture, &extras, updates, mask_word),
                check(crate::sim::Dice, fixture, &extras, updates, mask_word),
                check(crate::sim::OverlapCoefficient, fixture, &extras, updates, mask_word),
            ];
            for outcome in checks {
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }
    }

    /// An [`ApproxPolicy::Anytime`] range whose deadline passes at the
    /// phase boundary, after the first group or after the second commits
    /// the partial answer and recall estimate the full count would have,
    /// for every measure, masked or not.
    #[test]
    fn an_expired_anytime_range_commits_what_the_full_count_would() {
        let db = ZipfianGenerator::new(300, 120, 6.0, 1.1).generate(3);
        let part = random_partitioning(db.len(), 12, 5);
        let mask = FilterCandidates::from_words(&[0x5555_5555_5555_5555; 5], &part);
        fn check<S: Similarity>(
            index: &ShardedLes3Index<S>,
            q: &[TokenId],
            mask: &FilterCandidates,
        ) {
            let mut scratch = QueryScratch::new();
            for mask in [None, Some(mask)] {
                let range = Query {
                    mask,
                    approx: ApproxPolicy::Anytime,
                    ..Query::range(q, 0.3)
                };
                for polls in 0..3 {
                    let stop = (Some(polls), true);
                    agrees_with_the_full_count(index, &range, stop, &mut scratch).unwrap();
                    let (_, info) =
                        run_stopped(index, &range, stop, &mut scratch, ShardedLes3Index::filter)
                            .expect("an expired anytime range commits");
                    assert!(info.approx, "stopped after {polls} polls");
                }
            }
        }
        for id in [4u32, 77] {
            let q = db.set(id);
            check(
                &ShardedLes3Index::new(db.clone(), part.clone(), Jaccard),
                q,
                &mask,
            );
            check(
                &ShardedLes3Index::new(db.clone(), part.clone(), crate::sim::Cosine),
                q,
                &mask,
            );
            check(
                &ShardedLes3Index::new(db.clone(), part.clone(), crate::sim::Dice),
                q,
                &mask,
            );
            let overlap = crate::sim::OverlapCoefficient;
            check(
                &ShardedLes3Index::new(db.clone(), part.clone(), overlap),
                q,
                &mask,
            );
        }
    }
}
