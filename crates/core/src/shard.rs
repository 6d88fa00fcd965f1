//! The query engine: per-shard TGMs with a cross-shard top-k merge, at
//! any shard count `N ≥ 1`.
//!
//! LES3's filter–verify pipeline partitions cleanly along the TGM's
//! *group axis*: every group is filtered and verified as a unit (the
//! paper's §5 cost model prices both steps per group), so assigning each
//! group — with all of its members — to one of `N` shards loses nothing.
//! A [`ShardedLes3Index`] gives every shard its own [`Tgm`] over its
//! slice of the group axis and its own verification order, so shards
//! share nothing on the query path but the read-only database. This is
//! the crate's only in-memory engine: [`crate::Les3Index`] is the same
//! struct built with one shard (whose slice is the whole axis), and
//! `search`, `insert`, [`crate::DeletionLog::delete`], the batch
//! executor and the persistence layer exist once, here.
//!
//! # The cross-shard threshold-sharing invariant
//!
//! Exact kNN needs **one global top-k**. The descent keeps a cursor into
//! each shard's filter output — groups in `(overlap r descending,
//! global group id ascending)` order, the bucketed order — and at every
//! step consumes the globally best-bounded front among all shards. Two
//! consequences, which together make results *bit-for-bit identical* at
//! every shard count (hits **and** stats):
//!
//! 1. **Admissible pruning across shards.** The merged stream is the
//!    one-shard verification order: when the best remaining front's
//!    upper bound cannot beat the current k-th similarity, *every*
//!    unvisited group in *every* shard is behind that front in the
//!    order, hence also beaten — the whole fleet stops at once. The
//!    running k-th similarity therefore acts as a cross-shard pruning
//!    threshold: a "tight" shard that fills the heap with high
//!    similarities early prunes the other shards' groups before they are
//!    verified.
//! 2. **Identical traversal.** Because the merge replays the one-shard
//!    order group by group with the same evolving threshold, every
//!    window cut, every abandoned merge and every heap offer happens at
//!    the same point with the same arguments — the equality is exact,
//!    not just up to ties (`tests/shard_equivalence.rs` asserts full
//!    `SearchResult` equality, counters included, and
//!    `tests/golden_stats.rs` pins the counters to recorded literals).
//!
//! Range queries need no shared state at all: shards verify their groups
//! against the fixed `δ` one after the other and the hit lists
//! concatenate (the final sort by `(similarity, id)` is
//! order-insensitive).
//!
//! Updates route to the owning shard: an insert picks its group with one
//! global rule (per-shard overlap counts are scattered back to global
//! group ids first — a no-op for a shard that owns every group), then
//! touches only that group's shard; deletions clear TGM bits through the
//! same routing (see [`crate::delete::DeletionLog`]).
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
//! let sharded = ShardedLes3Index::build(db, part, Jaccard, 2, ShardPolicy::Hash);
//! // Not merely the same answer — the same traversal: hits AND stats.
//! assert_eq!(sharded.knn(&[0, 1, 2], 3), flat.knn(&[0, 1, 2], 3));
//! assert_eq!(sharded.range(&[0, 1, 2], 0.5), flat.range(&[0, 1, 2], 0.5));
//! ```

use les3_bitmap::Bitmap;
use les3_data::{SetDatabase, TokenId};

use crate::approx::{self, ApproxParams, ApproxPolicy, MinHashIndex};
use crate::ctl::{InterruptReason, Interrupted, QueryCtl};
use crate::index::{SearchResult, TopK, VerifyOrder, VerifyQuery};
use crate::metadata::FilterCandidates;
use crate::partitioning::Partitioning;
use crate::query::{self, Gathered, Kind, OnExpiry, Query, SearchOutcome};
use crate::scratch::{FilterScratch, QueryScratch};
use crate::sim::{distinct_len, normalize_query, Similarity};
use crate::stats::SearchStats;
use crate::tgm::Tgm;

/// How groups are assigned to shards at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Contiguous ranges of group ids, balanced by member count. Groups
    /// that are contiguous in the partitioning stay contiguous in one
    /// shard — for length-ordered partitionings (PAR-C and friends) this
    /// is a contiguous-by-length split of the database.
    Contiguous,
    /// Multiplicative hash of the group id: spreads hot neighbourhoods
    /// of the group space across shards.
    Hash,
}

impl ShardPolicy {
    /// The shard of each group.
    fn assign(self, partitioning: &Partitioning, n_shards: usize) -> Vec<u32> {
        let n_groups = partitioning.n_groups();
        match self {
            ShardPolicy::Contiguous => {
                // Weight each group by members + 1 so empty groups still
                // spread instead of piling onto the last shard.
                let sizes = partitioning.group_sizes();
                let total: usize = sizes.iter().map(|s| s + 1).sum();
                let mut out = vec![0u32; n_groups];
                let (mut s, mut acc) = (0usize, 0usize);
                for g in 0..n_groups {
                    out[g] = s as u32;
                    acc += sizes[g] + 1;
                    if s + 1 < n_shards && acc * n_shards >= total * (s + 1) {
                        s += 1;
                    }
                }
                out
            }
            ShardPolicy::Hash => (0..n_groups as u32)
                .map(|g| {
                    (((g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) % n_shards as u64)
                        as u32
                })
                .collect(),
        }
    }
}

/// One shard: a slice of the group axis with its own filter and verify
/// structures.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Global group ids owned by this shard, ascending; the position is
    /// the shard-local group id.
    pub(crate) groups: Vec<u32>,
    /// Token-group matrix over the shard's local group ids.
    pub(crate) tgm: Tgm,
    /// Length-sorted verification order, indexed by local group id.
    pub(crate) verify: VerifyOrder,
}

/// One entry of a shard's filter output: a group in verification order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardBound {
    /// Global group id (the cross-shard merge tie-breaker).
    pub(crate) group: u32,
    /// Shard-local group id (what the shard's TGM/verify order speak).
    pub(crate) local: u32,
    /// Overlap count `r = |GS_g ∩ Q|` (the merge's primary key — the
    /// upper bound is monotone in `r` but not injective, so ordering by
    /// `ub` alone would not reproduce the bucketed order). The bound
    /// itself (`UB(Q, G_g)`, Eq. 2) is derived lazily from `r` only for
    /// entries that reach the front of the merge — groups pruned
    /// wholesale never pay for one.
    pub(crate) r: u32,
}

/// A shard's complete filter output for one query.
#[derive(Debug, Clone, Default)]
pub struct ShardFilter {
    /// Groups in `(r descending, global id ascending)` order.
    pub(crate) bounds: Vec<ShardBound>,
    /// TGM bits visited by the shard's filter pass.
    pub(crate) cols: u64,
}

/// The LES3 index: the group axis split across `N ≥ 1` shards, each
/// with its own TGM + verification order, answering exact kNN and range
/// queries bit-for-bit identically — hits and stats — at every `N` on
/// the same database and partitioning ([`crate::Les3Index`] is `N = 1`).
/// See the module docs for the cross-shard threshold-sharing invariant.
#[derive(Debug, Clone)]
pub struct ShardedLes3Index<S: Similarity> {
    pub(crate) db: SetDatabase,
    pub(crate) partitioning: Partitioning,
    pub(crate) sim: S,
    pub(crate) shards: Vec<Shard>,
    /// Global group id → owning shard.
    pub(crate) shard_of_group: Vec<u32>,
    /// Global group id → shard-local group id.
    pub(crate) local_of_group: Vec<u32>,
    /// The opt-in MinHash sidecar of the approximate tier. Sets are
    /// global, so one sidecar serves every shard (candidates become a
    /// per-set mask split across shards like any filtered query).
    pub(crate) approx: Option<MinHashIndex>,
}

impl<S: Similarity> ShardedLes3Index<S> {
    /// Builds the sharded index. The partitioning must cover the
    /// database; `n_shards ≥ 1` (shard counts beyond the group count
    /// leave the surplus shards empty).
    pub fn build(
        db: SetDatabase,
        partitioning: Partitioning,
        sim: S,
        n_shards: usize,
        policy: ShardPolicy,
    ) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        assert_eq!(
            db.len(),
            partitioning.n_sets(),
            "partitioning must cover the database"
        );
        let shard_of_group = policy.assign(&partitioning, n_shards);
        Self::from_layout(db, partitioning, sim, shard_of_group, n_shards)
    }

    /// The engine over `db` + `partitioning` under a given group → shard
    /// layout (every entry `< n_shards`, one per group): the one place
    /// shards are made, shared by [`ShardedLes3Index::build`] and the
    /// persistence layer's reopen — a segment stores the layout, not the
    /// structures, so an opened index is built by the code a fresh one is.
    pub(crate) fn from_layout(
        db: SetDatabase,
        partitioning: Partitioning,
        sim: S,
        shard_of_group: Vec<u32>,
        n_shards: usize,
    ) -> Self {
        let mut groups_per: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        let mut local_of_group = vec![0u32; partitioning.n_groups()];
        for (g, &s) in shard_of_group.iter().enumerate() {
            local_of_group[g] = groups_per[s as usize].len() as u32;
            groups_per[s as usize].push(g as u32);
        }
        // One database pass fills every shard's token columns.
        let mut cols: Vec<Vec<Bitmap>> = (0..n_shards)
            .map(|_| vec![Bitmap::new(); db.universe_size() as usize])
            .collect();
        for (id, set) in db.iter() {
            let g = partitioning.group_of(id) as usize;
            let s = shard_of_group[g] as usize;
            let l = local_of_group[g];
            for &t in set {
                cols[s][t as usize].insert(l);
            }
        }
        let shards = groups_per
            .into_iter()
            .zip(cols)
            .map(|(groups, c)| Shard {
                tgm: Tgm::from_columns(groups.len(), c),
                verify: VerifyOrder::build_for_groups(&db, &partitioning, &groups),
                groups,
            })
            .collect();
        Self {
            db,
            partitioning,
            sim,
            shards,
            shard_of_group,
            local_of_group,
            approx: None,
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &SetDatabase {
        &self.db
    }

    /// The global partitioning (shards are views onto its group axis).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The similarity measure.
    pub fn sim(&self) -> S {
        self.sim
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The global group ids owned by shard `s`.
    pub fn shard_groups(&self, s: usize) -> &[u32] {
        &self.shards[s].groups
    }

    /// The index's only shard, if it has exactly one: that shard owns
    /// every group in order, so its local group ids are the global ones
    /// and its counts and columns need no local → global scatter.
    pub(crate) fn sole_shard(&self) -> Option<&Shard> {
        match &self.shards[..] {
            [only] => Some(only),
            _ => None,
        }
    }

    /// The shard that owns global group `g`, and `g`'s id within it.
    pub(crate) fn locate(&self, g: u32) -> (usize, u32) {
        if self.shards.len() == 1 {
            return (0, g);
        }
        let s = self.shard_of_group[g as usize] as usize;
        (s, self.local_of_group[g as usize])
    }

    /// Total index size across all shard matrices (Figure-11 quantity).
    pub fn index_size_in_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.tgm.size_in_bytes()).sum()
    }

    /// Builds the MinHash sidecar that backs
    /// [`ApproxPolicy::Prefilter`] queries. Until this is called (opening
    /// a segment that carries the tier's parameters calls it), prefilter
    /// queries fall back to the exact path.
    pub fn enable_approx(&mut self, params: ApproxParams) {
        self.approx = Some(MinHashIndex::build(&self.db, params));
    }

    /// The MinHash sidecar, if the approximate tier is enabled.
    pub fn approx_sidecar(&self) -> Option<&MinHashIndex> {
        self.approx.as_ref()
    }

    /// Runs shard `s`'s filter pass for `query`: word-parallel overlap
    /// counts over the shard's TGM, then the `O(G_s + |Q|)` bucketed
    /// descending selection, written into `out` in `(r descending,
    /// global group id ascending)` order.
    pub(crate) fn filter_shard(
        &self,
        s: usize,
        query: &[TokenId],
        q_len: usize,
        scratch: &mut FilterScratch,
        out: &mut ShardFilter,
    ) {
        let shard = &self.shards[s];
        out.cols = shard.tgm.group_overlaps_into(query, &mut scratch.counts);
        out.bounds.clear();
        out.bounds
            .resize(shard.tgm.n_groups(), ShardBound::default());
        // The one shared bucketed selection (see its docs: the
        // bit-for-bit contract depends on every shard count emitting the
        // identical order). Local ids ascend with global ids within a
        // shard, so per-shard `(r desc, local asc)` is `(r desc, global
        // asc)` — what the cross-shard merge assumes.
        let bounds = &mut out.bounds;
        crate::index::bucketed_descending(
            &scratch.counts,
            q_len,
            &mut scratch.offsets,
            |pos, l, r| {
                bounds[pos] = ShardBound {
                    group: shard.groups[l as usize],
                    local: l,
                    r,
                };
            },
        );
    }

    /// [`ShardedLes3Index::filter_shard`] restricted to a filtered
    /// query's candidate groups: `locals` holds the shard-local ids of
    /// the shard's candidates, ascending (global candidates ascend, and
    /// local ids ascend with global within a shard), so the emitted
    /// `(r desc, local asc)` order is again `(r desc, global asc)`.
    fn filter_shard_restricted(
        &self,
        s: usize,
        query: &[TokenId],
        q_len: usize,
        locals: &[u32],
        scratch: &mut FilterScratch,
        out: &mut ShardFilter,
    ) {
        let shard = &self.shards[s];
        out.cols = shard.tgm.group_overlaps_restricted_into(
            query,
            locals,
            &mut scratch.mask,
            &mut scratch.restricted,
            &mut scratch.restricted_out,
        );
        out.bounds.clear();
        out.bounds.resize(locals.len(), ShardBound::default());
        let bounds = &mut out.bounds;
        crate::index::bucketed_descending(
            &scratch.restricted_out,
            q_len,
            &mut scratch.offsets,
            |pos, i, r| {
                let l = locals[i as usize];
                bounds[pos] = ShardBound {
                    group: shard.groups[l as usize],
                    local: l,
                    r,
                };
            },
        );
    }

    /// Splits a filtered query's global candidate groups into per-shard
    /// local candidate lists (ascending within each shard), reusing the
    /// scratch buffers.
    fn split_candidates(&self, cand: &FilterCandidates, locals: &mut Vec<Vec<u32>>) {
        if locals.len() < self.shards.len() {
            locals.resize_with(self.shards.len(), Vec::new);
        }
        for l in locals.iter_mut() {
            l.clear();
        }
        for &g in &cand.groups {
            let (s, l) = self.locate(g);
            locals[s].push(l);
        }
    }

    /// The cross-shard best-first descent over the shards' filter
    /// outputs, sharing one global top-k. `cursors` must hold one zeroed
    /// cursor per shard. Polls `ctl` at every merge step (a group
    /// boundary). See the module docs for why the merged order is the
    /// same at every shard count.
    fn merge_knn(
        &self,
        verify: &VerifyQuery<'_, S>,
        k: usize,
        filters: &[ShardFilter],
        cursors: &mut [usize],
        stats: &mut SearchStats,
        ctl: &QueryCtl<'_>,
    ) -> Result<TopK, (InterruptReason, TopK)> {
        let mut top = TopK::new(k);
        loop {
            // The globally best unvisited group: max r, ties to the
            // smallest global group id — the bucketed order.
            let mut best: Option<(usize, ShardBound)> = None;
            for (s, &cur) in cursors.iter().enumerate() {
                if let Some(&b) = filters[s].bounds.get(cur) {
                    let better = match &best {
                        None => true,
                        Some((_, cur)) => b.r > cur.r || (b.r == cur.r && b.group < cur.group),
                    };
                    if better {
                        best = Some((s, b));
                    }
                }
            }
            let Some((s, b)) = best else { break };
            // The bound is derived from `r` only here, at the front:
            // groups pruned wholesale never pay for one.
            let ub = self.sim.ub_from_overlap(verify.q_len, b.r as usize);
            if top.is_full() && ub <= top.kth() {
                // Every shard's remaining groups sit behind this front in
                // the merged order, so they are all beaten too.
                stats.groups_pruned += filters
                    .iter()
                    .zip(cursors.iter())
                    .map(|(f, &cur)| f.bounds.len() - cur)
                    .sum::<usize>();
                break;
            }
            // Group boundary: stop before the next verification, not
            // after the whole descent. The partial heap rides along for
            // the anytime tier (exact callers drop it).
            if let Some(reason) = ctl.interrupted() {
                return Err((reason, top));
            }
            cursors[s] += 1;
            stats.groups_verified += 1;
            verify.knn_window(&self.shards[s].verify, b.local, &mut top, stats);
        }
        Ok(top)
    }

    /// Runs one [`Query`] — the only query body of the in-memory index,
    /// at every shard count ([`crate::Les3Index`] is the 1-shard case);
    /// every named `knn*/range*` method below is a single expression
    /// over it. Hits *and* stats are the same at every shard count and
    /// worker count.
    ///
    /// Guards, then phase A shard after shard (the full filter pass, or
    /// the restricted kernels over each shard's slice of the mask's
    /// groups), one `ctl` poll — filtering is cheap, verification is
    /// where the CPU goes, so an expired or cancelled query must not
    /// start it — then phase B: the cross-shard best-first `merge_knn`
    /// sharing one top-k (stopping at the first front whose bound cannot
    /// improve the k-th best, Theorem 3.1), or `range_descend` over every
    /// shard's surviving prefix (`par.rs`).
    pub fn search(&self, q: &Query<'_>, scratch: &mut QueryScratch) -> SearchOutcome {
        let mut stats = SearchStats::default();
        if q.is_vacuous(self.db.is_empty()) {
            return query::settle(None, Gathered::NOTHING, stats, q.on_expiry, 0);
        }
        // One sort for an unsorted query serves every shard's filter
        // pass and the verify step alike.
        let tokens = &*normalize_query(q.tokens);
        let q_len = distinct_len(tokens);
        let n_shards = self.shards.len();
        // Every group surfaces in exactly one shard's filter output.
        let n_considered = q.n_considered(self.partitioning.n_groups());
        scratch.ensure(n_shards);
        let QueryScratch {
            per_shard,
            filters,
            cursors,
            cand_locals,
            ..
        } = scratch;
        match q.mask {
            None => {
                for s in 0..n_shards {
                    self.filter_shard(s, tokens, q_len, &mut per_shard[s], &mut filters[s]);
                }
            }
            Some(cand) => {
                self.split_candidates(cand, cand_locals);
                for (s, locals) in cand_locals.iter().enumerate().take(n_shards) {
                    let (scr, out) = (&mut per_shard[s], &mut filters[s]);
                    self.filter_shard_restricted(s, tokens, q_len, locals, scr, out);
                }
            }
        }
        let filters = &filters[..n_shards];
        stats.columns_checked += filters.iter().map(|f| f.cols as usize).sum::<usize>();
        // Phase boundary: verification must not start for an expired or
        // cancelled query.
        if let stopped @ Some(_) = q.ctl.interrupted() {
            return query::settle(stopped, Gathered::NOTHING, stats, q.on_expiry, n_considered);
        }
        let verify = VerifyQuery {
            sim: self.sim,
            db: &self.db,
            query: tokens,
            q_len,
            filter: q.mask.map(|cand| &cand.sets),
        };
        let ctl = &q.ctl;
        let (stopped, gathered) = match q.kind {
            Kind::Knn(k) => {
                Gathered::heap(self.merge_knn(&verify, k, filters, cursors, &mut stats, ctl))
            }
            Kind::Range(delta) => Gathered::list(|hits| {
                self.range_descend(
                    &verify, delta, q.workers, filters, cursors, hits, &mut stats, ctl,
                )
            }),
        };
        query::settle(stopped, gathered, stats, q.on_expiry, n_considered)
    }

    /// Exact kNN search across all shards (Definition 2.1).
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

    /// Exact kNN under cooperative interruption. `workers` lands in
    /// [`Query::workers`](Query), which a kNN does not read: its descent
    /// is sequential at any value.
    pub fn knn_ctl_on(
        &self,
        workers: usize,
        query: &[TokenId],
        k: usize,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        self.search(&Query::knn(query, k).pinned(workers, ctl), scratch)
            .map(|(result, _)| result)
    }

    /// [`ShardedLes3Index::knn_ctl_on`] over the matching subset of a
    /// filtered query: the k most similar sets among those `cand`
    /// admits.
    pub fn knn_filtered_ctl_on(
        &self,
        workers: usize,
        query: &[TokenId],
        k: usize,
        cand: &FilterCandidates,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        let q = Query {
            mask: Some(cand),
            ..Query::knn(query, k).pinned(workers, ctl)
        };
        self.search(&q, scratch).map(|(result, _)| result)
    }

    /// [`ShardedLes3Index::search`] under an [`ApproxPolicy`] — the one
    /// place a policy is turned into query fields, for every route:
    ///
    /// * [`ApproxPolicy::Exact`] is `search`, bit for bit.
    /// * [`ApproxPolicy::Anytime`] is `search` with
    ///   [`OnExpiry::Commit`].
    /// * [`ApproxPolicy::Prefilter`] scans the MinHash sidecar into the
    ///   query's `mask` — the same composition point as attribute
    ///   filters — and `search` re-verifies the survivors exactly. A
    ///   saturated candidate set (every set collides, e.g. `rows == 0`)
    ///   and a missing sidecar both run unmasked, so those
    ///   configurations stay bit-for-bit exact; a mask the caller
    ///   already supplied wins and the scan is skipped.
    pub fn search_approx(
        &self,
        q: &Query<'_>,
        policy: ApproxPolicy,
        scratch: &mut QueryScratch,
    ) -> SearchOutcome {
        match policy {
            ApproxPolicy::Prefilter { bands, rows } if q.mask.is_none() => approx::run_prefiltered(
                self.approx_sidecar(),
                self.partitioning(),
                q.tokens,
                (bands, rows),
                scratch,
                |mask, scratch| self.search(&Query { mask, ..*q }, scratch),
            ),
            ApproxPolicy::Anytime => {
                let on_expiry = OnExpiry::Commit;
                self.search(&Query { on_expiry, ..*q }, scratch)
            }
            ApproxPolicy::Exact | ApproxPolicy::Prefilter { .. } => self.search(q, scratch),
        }
    }

    /// kNN under an [`ApproxPolicy`]: [`ShardedLes3Index::search_approx`]
    /// taking its [`Query`] as an argument list.
    pub fn knn_approx_ctl_on(
        &self,
        workers: usize,
        query: &[TokenId],
        k: usize,
        policy: ApproxPolicy,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> SearchOutcome {
        self.search_approx(&Query::knn(query, k).pinned(workers, ctl), policy, scratch)
    }

    /// Exact range search across all shards (Definition 2.2): all sets
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

    /// Exact range search under cooperative interruption with a pinned
    /// verification worker count (`0` counts as `1`).
    pub fn range_ctl_on(
        &self,
        workers: usize,
        query: &[TokenId],
        delta: f64,
        scratch: &mut QueryScratch,
        ctl: &QueryCtl<'_>,
    ) -> Result<SearchResult, Interrupted> {
        self.search(&Query::range(query, delta).pinned(workers, ctl), scratch)
            .map(|(result, _)| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Les3Index;
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
    fn policies_cover_all_groups_exactly_once() {
        let part = random_partitioning(300, 17, 1);
        for policy in [ShardPolicy::Contiguous, ShardPolicy::Hash] {
            for n_shards in [1usize, 2, 5, 17, 40] {
                let assign = policy.assign(&part, n_shards);
                assert_eq!(assign.len(), 17);
                assert!(assign.iter().all(|&s| (s as usize) < n_shards));
                if policy == ShardPolicy::Contiguous {
                    // Contiguous ranges: shard ids are non-decreasing.
                    assert!(assign.windows(2).all(|w| w[0] <= w[1]), "{assign:?}");
                }
            }
        }
    }

    #[test]
    fn sharded_results_match_unsharded_bit_for_bit() {
        let db = ZipfianGenerator::new(500, 280, 7.0, 1.1).generate(13);
        let part = random_partitioning(db.len(), 20, 4);
        let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
        for policy in [ShardPolicy::Contiguous, ShardPolicy::Hash] {
            for n_shards in [1usize, 3, 8] {
                let sharded =
                    ShardedLes3Index::build(db.clone(), part.clone(), Jaccard, n_shards, policy);
                for qid in [0u32, 77, 499] {
                    let q = db.set(qid).to_vec();
                    let a = sharded.knn(&q, 9);
                    let b = flat.knn(&q, 9);
                    assert_eq!(a.hits, b.hits, "{policy:?} N={n_shards} qid={qid}");
                    assert_eq!(a.stats, b.stats, "{policy:?} N={n_shards} qid={qid}");
                    let a = sharded.range(&q, 0.55);
                    let b = flat.range(&q, 0.55);
                    assert_eq!(a.hits, b.hits, "{policy:?} N={n_shards} qid={qid}");
                    assert_eq!(a.stats, b.stats, "{policy:?} N={n_shards} qid={qid}");
                }
            }
        }
    }

    #[test]
    fn sharded_scratch_reuse_is_equivalent_to_fresh() {
        let db = ZipfianGenerator::new(300, 200, 6.0, 1.2).generate(8);
        let part = random_partitioning(db.len(), 12, 2);
        let index = ShardedLes3Index::build(db.clone(), part, Jaccard, 4, ShardPolicy::Hash);
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
    fn more_shards_than_groups_leaves_empties_harmless() {
        let db = ZipfianGenerator::new(60, 50, 5.0, 1.0).generate(3);
        let part = random_partitioning(db.len(), 3, 9);
        let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
        let sharded =
            ShardedLes3Index::build(db.clone(), part, Jaccard, 7, ShardPolicy::Contiguous);
        assert_eq!(sharded.n_shards(), 7);
        let q = db.set(5).to_vec();
        assert_eq!(sharded.knn(&q, 4).hits, flat.knn(&q, 4).hits);
        assert_eq!(sharded.range(&q, 0.3).hits, flat.range(&q, 0.3).hits);
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
