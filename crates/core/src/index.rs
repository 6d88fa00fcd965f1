//! The index type and the engine's verification machinery (paper §6).
//!
//! [`Les3Index`] is not an engine of its own: it derefs to the one
//! engine, [`ShardedLes3Index`], so every query, insert and delete runs
//! the one body in `shard.rs` / `update.rs` / `delete.rs`. What lives
//! here besides the newtype is what that body verifies with:
//!
//! * groups are ordered for verification by **bucketed descending
//!   selection** (`bucketed_descending`) — `ub_from_overlap` is
//!   monotone in the overlap count `r ∈ 0..=|Q|`, so bucketing groups by
//!   `r` yields the same order as sorting by bound in `O(G + |Q|)`
//!   instead of `O(G log G)`;
//! * verification is **threshold-aware**: a group's *live* members are
//!   stored length-sorted (`VerifyOrder` — plain sorted arrays that an
//!   insert and a delete edit in place under `&mut self`, so a query
//!   takes no lock and never meets a deleted set) so a
//!   similarity-specific length window excludes most of a group, and
//!   each surviving candidate is abandoned as soon as its overlap cannot
//!   reach the current threshold; the kNN and range candidate loops
//!   exist once each (`VerifyQuery::knn_window`,
//!   `VerifyQuery::range_window`) and share one window path;
//! * the window's **length limits are cached** per query in
//!   `WindowCache` (in the [`QueryScratch`]): the least admissible
//!   length below the cap, the end of the admissible lengths by cap `c`,
//!   and the minimal overlap `min_overlap_for(t, |Q|, L)` by length, all
//!   keyed by the threshold's bits. A threshold moves only on an accepted
//!   hit, so each value costs a few floating-point evaluations once per
//!   threshold, and a group's window is two integer `partition_point`s
//!   over its lengths. Two floating-point binary searches per group and
//!   the minimal overlaps recomputed per window were ≈ 12 % of a direct
//!   kNN on the round-robin index `serve_closed` serves (≈ 180 of 256
//!   groups verified);
//! * a kNN's window is **capped by the group's overlap count** `r_g =
//!   |Q ∩ GS_g|`, the number the filter pass already computed: a member
//!   `S` of distinct length `L` has similarity at most
//!   `from_overlap(min(r_g, L), |Q|, L)`, because every token it shares
//!   with `Q` lies in `GS_g ∩ Q` (deletes keep the TGM a superset of the
//!   live members' tokens). A member the cap cuts was below the k-th
//!   similarity already, so hits and the group counters are those of the
//!   uncapped window; only `candidates`, `sims_computed`, `early_exits`
//!   and `size_skipped` move. A range keeps the uncapped window
//!   (`r = |Q|`) until the benchmark bounds its sample memory;
//! * inside the window a kNN **rejects members by a 64-bit token
//!   signature** before reading their tokens: `VerifyOrder` keeps each
//!   live member's [`token_signature`] beside its id and length (16 B
//!   per live set where it was 8; not part of `index_bytes`, which is
//!   the TGM's size), and a member whose bound
//!   [`PreparedQuery::overlap_bound`] is below the overlap the k-th
//!   similarity needs is strictly below it. Hits and every counter but
//!   `sims_computed` and `early_exits` — which count only the members
//!   whose tokens were read — are those of the unsigned scan. A range
//!   reads every window member;
//! * the kNN loop is a **block walk**: 64 window members at a time make a
//!   `kept` word (the mask's bits; all ones unmasked), whose popcount is
//!   the block's candidates, and a `pass` word, one bit per kept member
//!   with `popcount(sig_Q ⊕ sig_S)` below the pass limit of its length
//!   (`|Q| + L + 1 − 2·needed(L)`, from a per-threshold table in
//!   `WindowCache`), set without a branch on its outcome. Only the pass
//!   bits are visited, in order. The per-member loop this replaced spent
//!   its time on branches, not on arithmetic: each admitted member (≈ a
//!   fifth) ended its search in a mispredicted exit, and a hardware
//!   popcount alone bought nothing there. A sparse `kept` word (a
//!   selective mask) is checked member by member, so it pays no more
//!   than it did. The engine's kNN descent is compiled twice, portable
//!   and for the `popcnt` instruction, and the CPU is asked once per
//!   query which one to run;
//! * both loops **fetch ahead** of their merges: reaching a member's
//!   tokens is a chain of dependent loads that misses L2 on a
//!   benchmark-sized database, and chains issued together overlap their
//!   misses where chains issued one by one wait for each. The kNN walk
//!   resolves the next pass member's token slice (the next set bit,
//!   making the next block's words if the current ones are spent) before
//!   it merges the current one; the range loop takes its window
//!   32 members at a time and reads the first token of each one the
//!   mask keeps before it merges any of them. Only when loads are issued
//!   moves, never which bytes are read or a verdict;
//! * both loops evaluate through one hook, [`Similarity::eval_prepared`],
//!   with `|S|` from the window's stored lengths and the minimal overlap
//!   from the cache, looked up only when the length (or a kNN's
//!   threshold) changes. A kNN loads a duplicate-free query into a
//!   membership bitset once ([`crate::sim::QueryBits`], in the scratch,
//!   at most `⌈universe / 64⌉` words) and counts each candidate by
//!   looking its tokens up there: independent loads, where a merge step
//!   waits on the previous step's cursor moves. A multiset on either
//!   side takes the merge, and so does every range candidate: a range's
//!   query carries no bitset. Both kernels return the merge's verdict,
//!   `Hit` bits and `early` flag alike, so every [`SearchStats`] counter
//!   is the merge's too (the proof is on [`Similarity::eval_prepared`]);
//! * all working memory lives in a reusable [`QueryScratch`], so
//!   steady-state queries allocate nothing but their result vector.

use std::ops::{Deref, DerefMut};

use les3_data::{SetDatabase, SetId, TokenId};

use crate::partitioning::Partitioning;
use crate::scratch::QueryScratch;
use crate::shard::{GroupBound, ShardedLes3Index};
use crate::sim::{
    distinct_len, normalize_query, token_signature, PreparedQuery, Similarity, ThresholdedEval,
};
use crate::stats::SearchStats;
use crate::tgm::Tgm;

/// Result of a kNN or range query.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// `(set id, similarity)` sorted by descending similarity, ties by id.
    pub hits: Vec<(SetId, f64)>,
    /// Cost counters.
    pub stats: SearchStats,
}

/// The LES3 index: database + partitioning + TGM + similarity measure.
///
/// A newtype over the one engine, [`ShardedLes3Index`]: `search`,
/// `knn*`, `range*`, `insert`, `enable_approx` and the accessors are the
/// engine's own, reached through `Deref`; this type adds the constructor
/// without layout arguments, [`Les3Index::tgm`], the phase-A probe
/// [`Les3Index::group_upper_bounds_with`] and the batch kNN
/// [`Les3Index::knn_batch_on`], which takes (and ignores) an
/// intra-query width. Both types save the same
/// segment bytes and open the same directories (see [`crate::persist`]).
#[derive(Debug, Clone)]
pub struct Les3Index<S: Similarity>(pub(crate) ShardedLes3Index<S>);

impl<S: Similarity> Deref for Les3Index<S> {
    type Target = ShardedLes3Index<S>;

    fn deref(&self) -> &ShardedLes3Index<S> {
        &self.0
    }
}

impl<S: Similarity> DerefMut for Les3Index<S> {
    fn deref_mut(&mut self) -> &mut ShardedLes3Index<S> {
        &mut self.0
    }
}

impl<S: Similarity> Les3Index<S> {
    /// Builds the index. The partitioning must cover the database.
    pub fn build(db: SetDatabase, partitioning: Partitioning, sim: S) -> Self {
        Self(ShardedLes3Index::new(db, partitioning, sim))
    }

    /// The token-group matrix.
    pub fn tgm(&self) -> &Tgm {
        &self.0.tgm
    }

    /// Upper bounds `UB(Q, G_g)` for every group, in verification order
    /// (descending bound, Eq. 2 via [`Similarity::ub_from_overlap`]),
    /// written into `scratch.bounds`. Records the true column-scan cost
    /// (`Σ_{t∈Q} |groups(t)|` bits visited) into `stats`. This is a kNN's
    /// phase A, which counts every column; a range's counts only its
    /// rarest ones and orders only the groups it verifies
    /// (`ShardedLes3Index::filter`).
    ///
    /// The order is the engine's phase A: overlap counts are bucketed
    /// (`r ∈ 0..=|Q|`) and buckets are emitted from `r = |Q|` down, group
    /// ids ascending within a bucket — exactly the order a stable
    /// descending sort on the (monotone in `r`) bounds would give, in
    /// `O(G + |Q|)`.
    pub fn group_upper_bounds_with(
        &self,
        query: &[TokenId],
        stats: &mut SearchStats,
        scratch: &mut QueryScratch,
    ) {
        let query = &*normalize_query(query);
        let q_len = distinct_len(query);
        let QueryScratch {
            filter,
            stream,
            bounds,
            ..
        } = scratch;
        stats.columns_checked += self.0.filter(query, q_len, None, None, filter, stream) as usize;
        let sim = self.0.sim;
        bounds.clear();
        bounds.extend(
            stream
                .iter()
                .map(|b| (b.group, sim.ub_from_overlap(q_len, b.r as usize))),
        );
    }
}

/// Per-group *live* member ids sorted by (distinct length, id), with the
/// lengths and token signatures alongside — the order the engine's verify
/// step scans.
///
/// Plain data: every mutation holds `&mut self` and puts the member
/// where it belongs (`push`) or takes it out (`remove`), so a query only
/// ever reads sorted slices and an engine cannot verify a deleted set.
#[derive(Debug, Clone)]
pub(crate) struct VerifyOrder {
    groups: Vec<GroupOrder>,
}

/// One group's verification order.
#[derive(Debug, Clone, Default)]
struct GroupOrder {
    ids: Vec<SetId>,
    lens: Vec<u32>,
    /// Each member's [`token_signature`].
    sigs: Vec<u64>,
}

impl VerifyOrder {
    /// Builds the per-group length-sorted order for every group.
    pub(crate) fn build(db: &SetDatabase, partitioning: &Partitioning) -> Self {
        let groups = (0..partitioning.n_groups() as u32)
            .map(|g| {
                let mut pairs: Vec<(u32, SetId)> = partitioning
                    .members(g)
                    .iter()
                    .map(|&id| (distinct_len(db.set(id)) as u32, id))
                    .collect();
                // Members arrive in ascending id order; the (length, id)
                // tuple sort keeps ids ascending within equal lengths.
                pairs.sort_unstable();
                GroupOrder {
                    ids: pairs.iter().map(|&(_, id)| id).collect(),
                    lens: pairs.iter().map(|&(len, _)| len).collect(),
                    sigs: pairs
                        .iter()
                        .map(|&(_, id)| token_signature(db.set(id)))
                        .collect(),
                }
            })
            .collect();
        Self { groups }
    }

    /// Registers a newly inserted member with sorted `tokens` (update
    /// path). `id` is the largest ever issued, so its `(length, id)`
    /// position is the end of its length run.
    pub(crate) fn push(&mut self, g: u32, tokens: &[TokenId], id: SetId) {
        let group = &mut self.groups[g as usize];
        let len = distinct_len(tokens) as u32;
        let at = group.lens.partition_point(|&l| l <= len);
        group.ids.insert(at, id);
        group.lens.insert(at, len);
        group.sigs.insert(at, token_signature(tokens));
    }

    /// Takes a deleted member out of group `g`; `false` if it was not
    /// there.
    pub(crate) fn remove(&mut self, g: u32, len: u32, id: SetId) -> bool {
        let group = &mut self.groups[g as usize];
        // Ids ascend within a run of equal lengths.
        let run = group.lens.partition_point(|&l| l < len);
        let end = group.lens.partition_point(|&l| l <= len);
        let Ok(at) = group.ids[run..end].binary_search(&id) else {
            return false;
        };
        group.ids.remove(run + at);
        group.lens.remove(run + at);
        group.sigs.remove(run + at);
        true
    }

    /// Members in every group's order: the live sets.
    pub(crate) fn n_members(&self) -> usize {
        self.groups.iter().map(|group| group.ids.len()).sum()
    }

    /// The slice of group `g`'s member ids (in (length, id) order) with
    /// distinct length in `lo..hi`, their lengths and signatures
    /// alongside, plus the number of members that length window excludes
    /// — two integer `partition_point`s. [`WindowCache::limits`] gives
    /// the limits at a threshold.
    pub(crate) fn window(&self, g: u32, lo: usize, hi: usize) -> (&[SetId], &[u32], &[u64], usize) {
        let GroupOrder { ids, lens, sigs } = &self.groups[g as usize];
        let lo = lens.partition_point(|&l| (l as usize) < lo);
        let hi = lens.partition_point(|&l| (l as usize) < hi);
        (
            &ids[lo..hi],
            &lens[lo..hi],
            &sigs[lo..hi],
            ids.len() - (hi - lo),
        )
    }
}

/// The least distinct length `L ≤ |Q|` with `from_overlap(L, |Q|, L) ≥
/// t`, or `|Q| + 1` if there is none: a member shorter than the cap `c ≤
/// |Q|` shares at most its own `L` tokens with the query, and that bound
/// rises with `L`. The search tests `< t`, as the float search did, so
/// a NaN threshold keeps every length below the cap, as it did there.
fn lo_len<S: Similarity>(sim: S, q_len: usize, t: f64) -> usize {
    let (mut lo, mut hi) = (0, q_len + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if sim.from_overlap(mid, q_len, mid) < t {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One past the greatest distinct length `L ≥ c` with `from_overlap(c,
/// |Q|, L) ≥ t`, or `c` if there is none: a member at least as long as
/// the cap `c` shares at most `c` tokens with the query, and that bound
/// falls as `L` grows. Lengths are stored as `u32`, so the search ends
/// at `u32::MAX`; it gallops up from `c`, so a window that ends near `c`
/// costs a few evaluations.
fn hi_end<S: Similarity>(sim: S, q_len: usize, c: usize, t: f64) -> usize {
    const MAX: usize = u32::MAX as usize;
    let admits = |l: usize| sim.from_overlap(c, q_len, l) >= t;
    if !admits(c) {
        return c;
    }
    if admits(MAX) {
        return MAX + 1;
    }
    // `lo` is admitted and `hi` is not.
    let (mut lo, mut step) = (c, 1);
    let mut hi = loop {
        let probe = (c + step).min(MAX);
        if !admits(probe) {
            break probe;
        }
        (lo, step) = (probe, step * 2);
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if admits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The verify windows' per-query caches, one per [`QueryScratch`]: the
/// length limits of [`VerifyOrder::window`] and the minimal overlap
/// `min_overlap_for(t, |Q|, L)` by member length, all at the threshold
/// `t` they were computed for.
///
/// A kNN's threshold is the heap's k-th similarity: it moves only on an
/// accepted hit, while a query verifies hundreds of groups and
/// thousands of window members. So every value is computed once per
/// threshold — a few floating-point evaluations — and each window after
/// that is two integer `partition_point`s. Entries carry the stamp of
/// the `(query, threshold)` they were computed for; a new query or a new
/// threshold takes a new stamp, so nothing is cleared on the hot path
/// and steady-state queries allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowCache {
    /// The query's distinct length, `|Q|`.
    q_len: usize,
    /// The bits of the threshold the fresh entries are for; `None` until
    /// the query asks for its first value.
    key: Option<u64>,
    /// The stamp of fresh entries: one per `(query, threshold)`, 64 bits
    /// so it never wraps, and never 0, the stamp of a new entry.
    stamp: u64,
    /// [`lo_len`] at the threshold, once asked for.
    lo_len: Option<usize>,
    /// [`hi_end`] by cap `c ∈ 0..=|Q|`, with its stamp.
    hi_end: Vec<(u64, usize)>,
    /// `min_overlap_for(t, |Q|, L)` by length `L <` [`NEEDED_LENS`], with
    /// its stamp; longer members compute theirs.
    needed: Vec<(u64, u32)>,
    /// The pass limits of [`WindowCache::pass_limits`] by length; those
    /// in `lims_fresh` are at the threshold the key holds.
    lims: Vec<u8>,
    lims_fresh: std::ops::Range<usize>,
}

/// The member lengths [`WindowCache`] keeps a minimal overlap for: its
/// table grows to the longest member a window offers, at most this many
/// entries (1 MiB).
const NEEDED_LENS: usize = 1 << 16;

/// The most lengths [`WindowCache::pass_limits`] adds to its table for
/// one block: a block whose lengths lie far from the lengths the table
/// holds is checked member by member instead.
const LIM_GROWTH: usize = 2 * BLOCK;

impl WindowCache {
    /// Starts a query of `q_len` distinct tokens: every entry goes stale.
    pub(crate) fn reset(&mut self, q_len: usize) {
        self.q_len = q_len;
        self.key = None;
        if self.hi_end.len() <= q_len {
            self.hi_end.resize(q_len + 1, (0, 0));
        }
    }

    /// Keys the cache to threshold `t`, taking a new stamp when it moved.
    #[inline]
    fn rekey(&mut self, t: f64) {
        if self.key == Some(t.to_bits()) {
            return;
        }
        self.key = Some(t.to_bits());
        self.lo_len = None;
        self.lims_fresh = 0..0;
        self.stamp += 1;
    }

    /// The length limits `lo..hi` of a window at threshold `t` for a
    /// group whose TGM overlap count is `r`.
    ///
    /// Every token a member `S` shares with `Q` lies in `GS_g ∩ Q`
    /// (deletes keep the TGM a superset of the live members' tokens), so
    /// with `c = min(r, |Q|)` a member of distinct length `L` has
    /// similarity at most `from_overlap(min(c, L), |Q|, L)`. That bound
    /// rises with `L` below `c` and falls from `c` up, for every measure,
    /// so the admissible lengths are the one run `min(lo_len, c)..hi_end`
    /// ([`lo_len`], [`hi_end`]). Passing `r = |Q|` gives the uncapped
    /// window.
    #[inline]
    pub(crate) fn limits<S: Similarity>(&mut self, sim: S, r: usize, t: f64) -> (usize, usize) {
        self.rekey(t);
        let (q_len, c) = (self.q_len, r.min(self.q_len));
        let lo = *self.lo_len.get_or_insert_with(|| lo_len(sim, q_len, t));
        let entry = &mut self.hi_end[c];
        if entry.0 != self.stamp {
            *entry = (self.stamp, hi_end(sim, q_len, c, t));
        }
        (lo.min(c), entry.1)
    }

    /// The pass limits of lengths `first..=last` at threshold `t`, in a
    /// table indexed by `L − first`: entry `L` is `|Q| + L + 1 −
    /// 2·needed(L)`, clamped to `0..=65`, so a member of length `L` and
    /// signature `sig` has [`PreparedQuery::overlap_bound`] `≥ needed(L)`
    /// iff `popcount(sig_Q ⊕ sig) <` its entry. The table keeps one run of
    /// lengths per threshold and extends it by what a block adds; `None`
    /// when that is more than [`LIM_GROWTH`] lengths, or the run would
    /// reach [`NEEDED_LENS`] (the caller checks such a block member by
    /// member).
    #[inline(always)]
    fn pass_limits<S: Similarity>(
        &mut self,
        sim: S,
        first: usize,
        last: usize,
        t: f64,
    ) -> Option<&[u8]> {
        self.rekey(t);
        let (have, want) = (self.lims_fresh.clone(), first..last + 1);
        if want.start < have.start || want.end > have.end {
            let grown = if have.is_empty() {
                want
            } else {
                have.start.min(want.start)..have.end.max(want.end)
            };
            if grown.end > NEEDED_LENS || grown.len() - have.len() > LIM_GROWTH {
                return None;
            }
            if self.lims.len() < grown.end {
                self.lims.resize(grown.end, 0);
            }
            for len in grown.clone().filter(|l| !have.contains(l)) {
                let needed = self.needed(sim, len, t);
                let lim = (self.q_len + len + 1).saturating_sub(2 * needed).min(65);
                self.lims[len] = lim as u8;
            }
            self.lims_fresh = grown;
        }
        Some(&self.lims[first..=last])
    }

    /// `sim.min_overlap_for(t, |Q|, len)`.
    #[inline]
    pub(crate) fn needed<S: Similarity>(&mut self, sim: S, len: usize, t: f64) -> usize {
        self.rekey(t);
        if len >= NEEDED_LENS {
            return sim.min_overlap_for(t, self.q_len, len);
        }
        if len >= self.needed.len() {
            self.needed.resize(len + 1, (0, 0));
        }
        let entry = &mut self.needed[len];
        if entry.0 != self.stamp {
            *entry = (self.stamp, sim.min_overlap_for(t, self.q_len, len) as u32);
        }
        entry.1 as usize
    }
}

/// The window limits [`WindowCache::limits`] caches, computed afresh —
/// for callers without a scratch.
pub(crate) fn window_limits<S: Similarity>(
    sim: S,
    q_len: usize,
    r: usize,
    t: f64,
) -> (usize, usize) {
    let c = r.min(q_len);
    (lo_len(sim, q_len, t).min(c), hi_end(sim, q_len, c, t))
}

#[cfg(test)]
impl VerifyOrder {
    /// The oracle of the cached limits: group `g`'s window as the index
    /// range two floating-point binary searches over its stored lengths
    /// find — split at `c = min(r, |Q|)`, the lower side keeping lengths
    /// with `from_overlap(L, |Q|, L) ≥ t`, the upper side those with
    /// `from_overlap(c, |Q|, L) ≥ t`.
    fn float_window<S: Similarity>(
        &self,
        sim: S,
        g: u32,
        q_len: usize,
        r: usize,
        t: f64,
    ) -> std::ops::Range<usize> {
        let lens = &self.groups[g as usize].lens;
        let c = r.min(q_len);
        let split = lens.partition_point(|&l| (l as usize) < c);
        let lo =
            lens[..split].partition_point(|&l| sim.from_overlap(l as usize, q_len, l as usize) < t);
        let hi =
            split + lens[split..].partition_point(|&l| sim.from_overlap(c, q_len, l as usize) >= t);
        lo..hi
    }
}

/// The query-constant inputs of verification. [`VerifyQuery::knn_window`]
/// is the one kNN candidate loop (the engine's `knn_descend` calls it)
/// and [`VerifyQuery::range_window`] the one range candidate loop (its
/// `range_descend`).
pub(crate) struct VerifyQuery<'a, S> {
    pub(crate) sim: S,
    pub(crate) db: &'a SetDatabase,
    /// The normalized query: with its bitset for a kNN, without for a
    /// range.
    pub(crate) query: PreparedQuery<'a>,
    /// Per-set match mask of a filtered query.
    pub(crate) filter: Option<&'a les3_bitmap::DenseBitSet>,
}

impl<S: Similarity> VerifyQuery<'_, S> {
    /// The query's distinct token count, `|Q|`.
    pub(crate) fn q_len(&self) -> usize {
        self.query.distinct_len()
    }

    /// Verifies group `g`'s length window, capped by the group's overlap
    /// count `r`, at `top`'s evolving k-th similarity, offering every hit
    /// and charging the work to `stats`. A member the cap leaves out is
    /// below the k-th similarity already, so the heap never sees it.
    /// `cache` is the query's own ([`WindowCache::reset`] at `|Q|`).
    /// Inlined into both compilations of the engine's kNN descent.
    #[inline(always)]
    pub(crate) fn knn_window(
        &self,
        cache: &mut WindowCache,
        order: &VerifyOrder,
        g: u32,
        r: u32,
        top: &mut TopK,
        stats: &mut SearchStats,
    ) {
        let (lo, hi) = cache.limits(self.sim, r as usize, top.kth());
        let (ids, lens, sigs, skipped) = order.window(g, lo, hi);
        stats.size_skipped += skipped;
        let window = (ids, lens, sigs);
        // Branch on the filter once per window, not per block.
        match self.filter {
            None => self.walk(
                cache,
                window,
                |ids| u64::MAX >> (BLOCK - ids.len()),
                top,
                stats,
            ),
            Some(m) => self.walk(cache, window, |ids| kept_word(m, ids), top, stats),
        }
    }

    /// The candidate loop, a block walk: the window is taken 64 members at
    /// a time, and each block makes two words. `kept` has a bit per member
    /// the mask keeps (all of them when unmasked); each one is a
    /// candidate. `pass` has a bit per kept member whose signature bound
    /// ([`PreparedQuery::overlap_bound`]) reaches the minimal overlap at
    /// the current k-th similarity `t` ([`VerifyQuery::pass_word`]); every
    /// other member is strictly below `t` and is dropped without reading
    /// its tokens. The members of `pass` go in bit order through the one
    /// per-candidate hook, [`Similarity::eval_prepared`], each one's token
    /// slice resolved before the previous one's merge (the fetch-ahead).
    ///
    /// A hit that raises `t` (a few times per group) re-checks the rest of
    /// the word and the member already fetched against the new minimal
    /// overlaps. The threshold only rises, so nothing a word rejected can
    /// pass again: the members evaluated, and so the hits and every
    /// counter, are those of a per-member check at the threshold of the
    /// moment.
    #[inline(always)]
    fn walk(
        &self,
        cache: &mut WindowCache,
        window @ (ids, lens, sigs): (&[SetId], &[u32], &[u64]),
        kept: impl Fn(&[SetId]) -> u64,
        top: &mut TopK,
        stats: &mut SearchStats,
    ) {
        let mut t = top.kth();
        let mut blocks = Blocks::default();
        let mut next = blocks.next(self, cache, window, &kept, t);
        let mut tokens = next.map(|i| self.db.set(ids[i]));
        let (mut evaluated, mut early_exits) = (0usize, 0usize);
        while let (Some(i), Some(b)) = (next, tokens) {
            let (id, b_len) = (ids[i], lens[i] as usize);
            next = blocks.next(self, cache, window, &kept, t);
            tokens = next.map(|i| self.db.set(ids[i]));
            evaluated += 1;
            let needed = cache.needed(self.sim, b_len, t);
            match self.sim.eval_prepared(&self.query, b, b_len, needed, t) {
                // Only an accepted hit can move the threshold.
                ThresholdedEval::Hit(s) => {
                    top.offer(id, s);
                    if top.kth().to_bits() != t.to_bits() {
                        t = top.kth();
                        let at = blocks.base;
                        blocks.word = self.recheck(cache, &lens[at..], &sigs[at..], blocks.word, t);
                        if next
                            .is_some_and(|j| self.recheck(cache, &lens[j..], &sigs[j..], 1, t) == 0)
                        {
                            next = blocks.next(self, cache, window, &kept, t);
                            tokens = next.map(|i| self.db.set(ids[i]));
                        }
                    }
                }
                ThresholdedEval::Rejected { early } => early_exits += usize::from(early),
            }
        }
        stats.candidates += blocks.candidates;
        stats.sims_computed += evaluated;
        stats.early_exits += early_exits;
    }

    /// The `pass` word of one block (`lens`, `sigs`: its members) at
    /// threshold `t`: bit `j` is set iff `kept` has it and member `j`'s
    /// signature bound reaches the minimal overlap at `t`. The dense loop
    /// sets a bit per member with no branch on its outcome, comparing the
    /// popcount with the block's pass limits ([`WindowCache::pass_limits`]).
    /// A sparse `kept` word (a selective mask), and a block the limits do
    /// not cover, are checked one member at a time.
    #[inline(always)]
    fn pass_word(
        &self,
        cache: &mut WindowCache,
        lens: &[u32],
        sigs: &[u64],
        kept: u64,
        t: f64,
    ) -> u64 {
        let (first, last) = (lens[0], lens[lens.len() - 1]);
        let dense = 4 * kept.count_ones() as usize >= lens.len();
        let lims = dense.then(|| cache.pass_limits(self.sim, first as usize, last as usize, t));
        let Some(lims) = lims.flatten() else {
            return self.recheck(cache, lens, sigs, kept, t);
        };
        let q_sig = self.query.sig();
        let mut pass = 0u64;
        for (j, (&len, &sig)) in lens.iter().zip(sigs).enumerate() {
            let popcount = (q_sig ^ sig).count_ones() as u8;
            pass |= u64::from(popcount < lims[(len - first) as usize]) << j;
        }
        pass & kept
    }

    /// The members of `word` (bits over `lens` / `sigs`) whose signature
    /// bound reaches the minimal overlap at `t`, one member at a time.
    #[inline(always)]
    fn recheck(
        &self,
        cache: &mut WindowCache,
        lens: &[u32],
        sigs: &[u64],
        mut word: u64,
        t: f64,
    ) -> u64 {
        let mut pass = 0;
        while word != 0 {
            let j = word.trailing_zeros() as usize;
            word &= word - 1;
            let len = lens[j] as usize;
            let reaches = self.query.overlap_bound(len, sigs[j]) >= cache.needed(self.sim, len, t);
            pass |= u64::from(reaches) << j;
        }
        pass
    }

    /// Verifies group `g`'s length window at the fixed range threshold
    /// `delta`, appending hits (unsorted) and charging the work to
    /// `stats`. The window stays uncapped (`r = |Q|`; ROADMAP direction
    /// 3). As in a kNN's scan, the limits and the minimal overlaps come
    /// from the query's `cache`, `|S|` from the stored lengths, and every
    /// member the mask keeps goes through the one hook,
    /// [`Similarity::eval_prepared`]; the query carries no bitset, so
    /// each takes the merge.
    pub(crate) fn range_window(
        &self,
        cache: &mut WindowCache,
        order: &VerifyOrder,
        g: u32,
        delta: f64,
        hits: &mut Vec<(SetId, f64)>,
        stats: &mut SearchStats,
    ) {
        let (lo, hi) = cache.limits(self.sim, self.q_len(), delta);
        let (ids, lens, _sigs, skipped) = order.window(g, lo, hi);
        stats.size_skipped += skipped;
        // `needed` by length: the window is length-sorted.
        let mut memo = (usize::MAX, 0);
        // Fetch ahead (module docs): per chunk of 32, read the first token
        // of every member the mask keeps, then merge those members.
        let mut kept = [(0 as SetId, 0u32); 32];
        for (ids, lens) in ids.chunks(kept.len()).zip(lens.chunks(kept.len())) {
            let (mut n, mut fetched) = (0, 0u32);
            for (&id, &len) in ids.iter().zip(lens) {
                if self.filter.is_none_or(|m| m.contains(id)) {
                    fetched ^= self.db.set(id).first().copied().unwrap_or(0);
                    kept[n] = (id, len);
                    n += 1;
                }
            }
            std::hint::black_box(fetched);
            stats.candidates += n;
            stats.sims_computed += n;
            for &(id, len) in &kept[..n] {
                let len = len as usize;
                if memo.0 != len {
                    memo = (len, cache.needed(self.sim, len, delta));
                }
                let set = self.db.set(id);
                match self.sim.eval_prepared(&self.query, set, len, memo.1, delta) {
                    ThresholdedEval::Hit(s) => hits.push((id, s)),
                    ThresholdedEval::Rejected { early } => stats.early_exits += usize::from(early),
                }
            }
        }
    }
}

/// The members a block walk ([`VerifyQuery::knn_window`]) takes at a
/// time: one bit each of a `u64`.
const BLOCK: usize = 64;

/// The `kept` word of a block of a masked window: bit `j` is set iff the
/// mask holds `ids[j]`.
#[inline(always)]
fn kept_word(mask: &les3_bitmap::DenseBitSet, ids: &[SetId]) -> u64 {
    (ids.iter().enumerate()).fold(0, |w, (j, &id)| w | u64::from(mask.contains(id)) << j)
}

/// A block walk's cursor over one window: the block that starts at
/// `base`, the members of its `pass` word not yet taken, where the next
/// block starts, and the candidates (`kept` bits) counted so far.
#[derive(Default)]
struct Blocks {
    base: usize,
    word: u64,
    end: usize,
    candidates: usize,
}

impl Blocks {
    /// The next member of the window that passes at `t`, making the
    /// words of the blocks it reaches.
    #[inline(always)]
    fn next<S: Similarity>(
        &mut self,
        verify: &VerifyQuery<'_, S>,
        cache: &mut WindowCache,
        (ids, lens, sigs): (&[SetId], &[u32], &[u64]),
        kept: &impl Fn(&[SetId]) -> u64,
        t: f64,
    ) -> Option<usize> {
        while self.word == 0 {
            if self.end == ids.len() {
                return None;
            }
            self.base = self.end;
            self.end = ids.len().min(self.base + BLOCK);
            let block = self.base..self.end;
            let kept = kept(&ids[block.clone()]);
            self.candidates += kept.count_ones() as usize;
            self.word = verify.pass_word(cache, &lens[block.clone()], &sigs[block], kept, t);
        }
        let j = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + j)
    }
}

/// The `O(G + |Q|)` bucketed descending selection of the filter pass:
/// the `(group, r)` entries (group ids ascending) are histogrammed into
/// buckets `r ∈ 0..=|Q|`, descending start offsets are prefixed, and
/// each group is scattered to its position in `stream`, which ends up
/// holding exactly the entries in `(r descending, group id ascending)`
/// order — the order a stable descending sort on the (monotone in `r`)
/// bounds would give.
pub(crate) fn bucketed_descending(
    entries: impl Iterator<Item = (u32, u32)> + Clone,
    q_len: usize,
    offsets: &mut Vec<u32>,
    stream: &mut Vec<GroupBound>,
) {
    let n_buckets = q_len + 1;
    offsets.clear();
    offsets.resize(n_buckets, 0);
    for (_, r) in entries.clone() {
        debug_assert!((r as usize) < n_buckets, "overlap exceeds |Q|");
        offsets[r as usize] += 1;
    }
    let mut acc = 0u32;
    for r in (0..n_buckets).rev() {
        let here = offsets[r];
        offsets[r] = acc;
        acc += here;
    }
    stream.clear();
    stream.resize(acc as usize, GroupBound::default());
    for (group, r) in entries {
        let pos = offsets[r as usize];
        offsets[r as usize] += 1;
        stream[pos as usize] = GroupBound { group, r };
    }
}

/// Sorts hits by descending similarity, ties by ascending id.
pub(crate) fn sort_hits(hits: &mut [(SetId, f64)]) {
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// A bounded top-k accumulator over `(id, similarity)` pairs.
///
/// Keeps the k largest similarities; ties broken toward smaller ids so
/// results are deterministic.
pub(crate) struct TopK {
    k: usize,
    /// Min-heap via reverse ordering on (sim, Reverse(id)).
    heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapEntry>>,
}

#[derive(PartialEq)]
struct HeapEntry {
    sim: f64,
    /// Reversed id ordering: larger ids are "smaller", so they get evicted
    /// first among equal similarities.
    id: SetId,
}

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sim.total_cmp(&other.sim).then(other.id.cmp(&self.id))
    }
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            // Capacity is only a hint: cap it so an absurd k (e.g. from
            // an untrusted network request) cannot demand an up-front
            // k-sized allocation — the heap never holds more than
            // min(k, |D|) entries and grows on demand.
            heap: std::collections::BinaryHeap::with_capacity(k.min(4096)),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Current k-th best similarity (−∞ until full).
    pub(crate) fn kth(&self) -> f64 {
        if self.is_full() {
            self.heap
                .peek()
                .map(|e| e.0.sim)
                .unwrap_or(f64::NEG_INFINITY)
        } else {
            f64::NEG_INFINITY
        }
    }

    pub(crate) fn offer(&mut self, id: SetId, sim: f64) {
        let entry = HeapEntry { sim, id };
        if !self.is_full() {
            self.heap.push(std::cmp::Reverse(entry));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            // Full: the offer either displaces the current worst in
            // place or is itself the (k+1)-th and dropped.
            if entry > worst.0 {
                worst.0 = entry;
            }
        }
    }

    pub(crate) fn into_sorted(self) -> Vec<(SetId, f64)> {
        let mut out: Vec<(SetId, f64)> = self.heap.into_iter().map(|e| (e.0.id, e.0.sim)).collect();
        sort_hits(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use crate::sim::{reference_eval_with_threshold, Cosine, Jaccard};
    use les3_data::zipfian::ZipfianGenerator;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_knn<S: Similarity>(
        db: &SetDatabase,
        sim: S,
        q: &[TokenId],
        k: usize,
    ) -> Vec<(SetId, f64)> {
        let mut all: Vec<(SetId, f64)> = db.iter().map(|(id, s)| (id, sim.eval(q, s))).collect();
        sort_hits(&mut all);
        all.truncate(k);
        all
    }

    fn brute_range<S: Similarity>(
        db: &SetDatabase,
        sim: S,
        q: &[TokenId],
        d: f64,
    ) -> Vec<(SetId, f64)> {
        let mut all: Vec<(SetId, f64)> = db
            .iter()
            .map(|(id, s)| (id, sim.eval(q, s)))
            .filter(|&(_, s)| s >= d)
            .collect();
        sort_hits(&mut all);
        all
    }

    fn random_partitioning(n: usize, groups: usize, seed: u64) -> Partitioning {
        let mut rng = StdRng::seed_from_u64(seed);
        Partitioning::from_assignment(
            (0..n).map(|_| rng.gen_range(0..groups as u32)).collect(),
            groups,
        )
    }

    /// One engine, one on-disk kind: a directory a `Les3Index` kept
    /// durable through inserts, deletes and a checkpoint opens as either
    /// index type, and both answer as the live index does.
    #[test]
    fn a_flat_directory_opens_as_either_index_type() {
        use crate::persist::DurableIndex;

        let db = ZipfianGenerator::new(200, 120, 6.0, 1.1).generate(47);
        let part = random_partitioning(db.len(), 7, 5);
        let index = Les3Index::build(db, part, Jaccard);

        let dir = std::env::temp_dir().join(format!("les3-one-kind-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut durable = DurableIndex::create(&dir, index).unwrap();
        for i in 0..30u32 {
            durable.insert(&mut [i % 9, 40 + i, 500 + i]).unwrap();
            assert!(durable.delete(i * 5).unwrap());
        }
        durable.checkpoint().unwrap();
        durable.insert(&mut [5, 901]).unwrap();
        let live = durable.into_live();
        let live = live.engine();
        let q = live.db().set(17).to_vec();
        let flat = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
        assert_eq!(flat.backend().knn(&q, 9), live.knn(&q, 9));
        assert_eq!(flat.backend().range(&q, 0.3), live.range(&q, 0.3));
        drop(flat);
        let same = DurableIndex::<ShardedLes3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
        assert_eq!(same.backend().knn(&q, 9), live.knn(&q, 9));
        assert_eq!(same.backend().range(&q, 0.3), live.range(&q, 0.3));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sets in runs of equal lengths (every fifth a multiset) over a
    /// 40-token alphabet, and decoys of `base`: `base` with its smallest
    /// token swapped for 1, 2, … of the tokens past the alphabet that set
    /// the same signature bit. On such an alphabet the signature is nearly
    /// exact, so the decoys are what its bound admits and the kernel then
    /// abandons early.
    fn window_sets(rng: &mut StdRng, n: usize, base: &[TokenId]) -> Vec<Vec<TokenId>> {
        let twins: Vec<TokenId> = (40..)
            .filter(|&t| token_signature(&[t]) == token_signature(&base[..1]))
            .take(13.min(n / 4))
            .collect();
        let rest: Vec<TokenId> = base.iter().copied().filter(|&t| t != base[0]).collect();
        let decoys = (1..=twins.len()).map(|n| [&rest[..], &twins[..n]].concat());
        let random = (0..).map(|i: usize| {
            let len = 2 + i / 8 % 12;
            let mut s: Vec<TokenId> = (0..len).map(|_| rng.gen_range(0..40)).collect();
            s.sort_unstable();
            if !i.is_multiple_of(5) {
                s.dedup();
            }
            s
        });
        [base.to_vec()]
            .into_iter()
            .chain(decoys)
            .chain(random)
            .take(n)
            .collect()
    }

    /// What the kNN descent over `stream` must equal: the groups taken
    /// best-first until one's bound cannot beat the k-th similarity, and in
    /// each group's window every member the mask keeps checked on its own
    /// — its signature bound against the minimal overlap at the heap's
    /// k-th similarity of the moment — then, if admitted, evaluated by the
    /// reference merge at that similarity. Also counts the threshold rises
    /// a later member of the same 64-block saw.
    fn reference_descent<S: Similarity>(
        sim: S,
        db: &SetDatabase,
        order: &VerifyOrder,
        stream: &[GroupBound],
        (query, k): (&[TokenId], usize),
        filter: Option<&les3_bitmap::DenseBitSet>,
        rises_mid_block: &mut usize,
    ) -> (Vec<(SetId, f64)>, SearchStats) {
        let (q_len, q_sig) = (distinct_len(query), token_signature(query));
        let (mut top, mut want) = (TopK::new(k), SearchStats::default());
        for (at, b) in stream.iter().enumerate() {
            if top.is_full() && sim.ub_from_overlap(q_len, b.r as usize) <= top.kth() {
                want.groups_pruned += stream.len() - at;
                break;
            }
            want.groups_verified += 1;
            let (lo, hi) = window_limits(sim, q_len, b.r as usize, top.kth());
            let (ids, _lens, _sigs, skipped) = order.window(b.group, lo, hi);
            want.size_skipped += skipped;
            for (i, &id) in ids.iter().enumerate() {
                if filter.is_some_and(|m| !m.contains(id)) {
                    continue;
                }
                want.candidates += 1;
                let set = db.set(id);
                let s_len = distinct_len(set);
                let popcount = (q_sig ^ token_signature(set)).count_ones() as usize;
                let needed = sim.min_overlap_for(top.kth(), q_len, s_len);
                if (q_len + s_len - popcount) / 2 < needed {
                    continue;
                }
                want.sims_computed += 1;
                let before = top.kth();
                match reference_eval_with_threshold(sim, query, set, top.kth()) {
                    ThresholdedEval::Hit(s) => top.offer(id, s),
                    ThresholdedEval::Rejected { early } => want.early_exits += usize::from(early),
                }
                let rest_of_block = (i + 1..ids.len()).take_while(|j| j % BLOCK != 0);
                if top.kth() != before && rest_of_block.count() > 0 {
                    *rises_mid_block += 1;
                }
            }
        }
        (top.into_sorted(), want)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The block walk, through both compilations of the kNN descent
        /// (portable, and popcnt where the CPU has it), against
        /// [`reference_window`]: hits and every counter. Windows of 0, 1,
        /// 63, 64, 65 and ≥ 130 members (a first window is its whole
        /// group), k from 1 — a threshold that rises inside a block, so the
        /// rest of the word is re-checked — to past the group; no mask, an
        /// empty one, one member, ≈ 10 %, dense and full (sparse `kept`
        /// words take the one-by-one check, dense ones the branch-free
        /// pass); all four measures; both kernels behind
        /// [`Similarity::eval_prepared`].
        #[test]
        fn window_scan_equals_per_candidate_eval_while_threshold_rises(
            seed in any::<u64>(),
            big in 130usize..200,
        ) {
            fn check<S: Similarity>(
                sim: S,
                db: &SetDatabase,
                part: &Partitioning,
                queries: &[Vec<TokenId>],
                masks: &[Option<les3_bitmap::DenseBitSet>],
            ) -> Result<(), TestCaseError> {
                let index = Les3Index::build(db.clone(), part.clone(), sim);
                let (mut sig_rejected, mut early, mut rises) = (0, 0, 0);
                for query in queries {
                    let overlaps = index.tgm().group_overlaps(query);
                    let mut bits = crate::sim::QueryBits::new();
                    let prepared = [
                        PreparedQuery::without_bits(query),
                        bits.prepare(query, db.universe_size()),
                    ];
                    // Each group on its own (its first window is the
                    // whole group), then every group in the bound order,
                    // the threshold carried from window to window.
                    let mut all = Vec::new();
                    let entries = (0u32..).zip(overlaps.iter().copied());
                    bucketed_descending(entries, distinct_len(query), &mut Vec::new(), &mut all);
                    let streams = (0u32..)
                        .zip(&overlaps)
                        .map(|(group, &r)| vec![GroupBound { group, r }])
                        .chain([all]);
                    for stream in streams {
                        for k in [1usize, 3, 8, 40, 500] {
                            for mask in masks {
                                let filter = mask.as_ref();
                                let want = reference_descent(
                                    sim, db, &index.verify, &stream, (query, k), filter, &mut rises,
                                );
                                sig_rejected += want.1.candidates - want.1.sims_computed;
                                early += want.1.early_exits;
                                for query in prepared {
                                    let verify = VerifyQuery { sim, db, query, filter };
                                    let each = index.knn_descend_each_compilation(&verify, k, &stream);
                                    #[cfg(target_arch = "x86_64")]
                                    prop_assert_eq!(
                                        each.len(),
                                        1 + usize::from(std::arch::is_x86_feature_detected!("popcnt"))
                                    );
                                    for (compiled, got) in each.iter().enumerate() {
                                        let at = format!(
                                            "{} groups {:?} k{k} masked {} compilation {compiled}",
                                            sim.name(),
                                            stream.iter().map(|b| b.group).collect::<Vec<_>>(),
                                            filter.is_some(),
                                        );
                                        prop_assert_eq!(&got.1, &want.1, "{}", at);
                                        prop_assert_eq!(&got.0, &want.0, "{}", at);
                                    }
                                }
                            }
                        }
                    }
                }
                prop_assert!(sig_rejected > 0, "the fixture must reject by signature");
                prop_assert!(early > 0, "the fixture must exit early");
                prop_assert!(rises > 0, "a threshold must rise inside a block");
                Ok(())
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let sizes = [0, 1, 63, 64, 65, big];
            let bases: Vec<Vec<TokenId>> = sizes
                .iter()
                .map(|_| {
                    let mut s: Vec<TokenId> = (0..rng.gen_range(3..10)).map(|_| rng.gen_range(0..40)).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let groups: Vec<Vec<Vec<TokenId>>> =
                sizes.iter().zip(&bases).map(|(&n, base)| window_sets(&mut rng, n, base)).collect();
            let assignment = (0u32..).zip(&groups).flat_map(|(g, sets)| sets.iter().map(move |_| g)).collect();
            let db = SetDatabase::from_sets(groups.concat());
            let part = Partitioning::from_assignment(assignment, sizes.len());
            // Each group's decoy base (in group order), every 41st set, an
            // unseen-token query.
            let queries: Vec<Vec<TokenId>> = bases
                .iter()
                .cloned()
                .chain((0..db.len() as SetId).step_by(41).map(|id| db.set(id).to_vec()))
                .chain([vec![3, 41, 77]])
                .collect();
            let mask = |keep: &dyn Fn(SetId) -> bool| {
                let mut m = les3_bitmap::DenseBitSet::new();
                m.reset(db.len());
                (0..db.len() as SetId).filter(|&id| keep(id)).for_each(|id| m.insert(id));
                Some(m)
            };
            let one = rng.gen_range(0..db.len() as SetId);
            let masks = [
                None,
                mask(&|_| false),
                mask(&|id| id == one),
                mask(&|id| (u64::from(id) ^ seed).is_multiple_of(10)),
                mask(&|id| !(u64::from(id) ^ seed).is_multiple_of(4)),
                mask(&|_| true),
            ];
            check(Jaccard, &db, &part, &queries, &masks)?;
            check(Cosine, &db, &part, &queries, &masks)?;
            check(crate::sim::Dice, &db, &part, &queries, &masks)?;
            check(crate::sim::OverlapCoefficient, &db, &part, &queries, &masks)?;
        }
    }

    /// A kNN whose query reaches past the universe — `u32::MAX` among
    /// other unseen tokens — answers what brute force answers, and its
    /// bitset stays within `⌈universe / 64⌉` words. After an insert
    /// extends the universe, a query on the new token finds the new set
    /// through the same scratch.
    #[test]
    fn knn_past_the_universe_is_exact_and_bounded() {
        let db = ZipfianGenerator::new(300, 200, 6.0, 1.1).generate(17);
        let part = random_partitioning(db.len(), 9, 8);
        let mut index = Les3Index::build(db, part, Jaccard);
        let mut scratch = QueryScratch::new();
        let universe = index.db().universe_size();
        let member: Vec<TokenId> = index.db().set(5).to_vec();
        for q in [
            vec![3, 17, universe, universe + 64_000, u32::MAX],
            vec![u32::MAX],
            member
                .iter()
                .copied()
                .chain([universe + 1, u32::MAX])
                .collect(),
        ] {
            for k in [1usize, 7, 40] {
                let got = index.knn_with(&q, k, &mut scratch);
                let want = brute_knn(index.db(), Jaccard, &q, k);
                let gs: Vec<f64> = got.hits.iter().map(|h| h.1).collect();
                let ws: Vec<f64> = want.iter().map(|h| h.1).collect();
                assert_eq!(gs, ws, "q {q:?} k {k}");
                let words = scratch.bits.set.n_words();
                assert!(words <= (universe as usize).div_ceil(64), "{words} words");
            }
        }
        let fresh = universe + 130;
        let (id, _) = index.insert(&mut [2, fresh]);
        let universe = index.db().universe_size();
        assert!(universe > fresh, "the insert extends the universe");
        let got = index.knn_with(&[fresh], 1, &mut scratch);
        assert_eq!(got.hits, vec![(id, 0.5)]);
        let words = scratch.bits.set.n_words();
        assert!(words <= (universe as usize).div_ceil(64), "{words} words");
    }

    /// `offer` on a full heap replaces the worst entry in place; among
    /// equal similarities the smaller id must win, exactly as the old
    /// push-then-pop did.
    #[test]
    fn topk_offer_breaks_similarity_ties_toward_smaller_ids() {
        let mut top = TopK::new(1);
        for id in [5u32, 9, 2, 7, 2] {
            top.offer(id, 0.5);
        }
        assert_eq!(top.kth(), 0.5);
        top.offer(11, 0.25); // worse: dropped
        assert_eq!(top.into_sorted(), vec![(2, 0.5)]);

        let mut top = TopK::new(3);
        for (id, sim) in [
            (8u32, 0.5),
            (3, 0.5),
            (6, 0.5),
            (4, 0.5),
            (9, 0.75),
            (1, 0.5),
        ] {
            top.offer(id, sim);
        }
        assert_eq!(top.kth(), 0.5);
        assert_eq!(top.into_sorted(), vec![(9, 0.75), (1, 0.5), (3, 0.5)]);

        let mut none = TopK::new(0);
        none.offer(1, 1.0);
        assert!(none.into_sorted().is_empty());
    }

    #[test]
    fn knn_matches_brute_force_on_zipf_data() {
        let db = ZipfianGenerator::new(600, 300, 8.0, 1.1).generate(3);
        let part = random_partitioning(db.len(), 16, 1);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        for qid in [0u32, 10, 99, 400] {
            let q = db.set(qid).to_vec();
            for k in [1usize, 5, 20] {
                let got = index.knn(&q, k);
                let expected = brute_knn(&db, Jaccard, &q, k);
                // Similarity multiset must match exactly (ids may tie-swap).
                let gs: Vec<f64> = got.hits.iter().map(|h| h.1).collect();
                let es: Vec<f64> = expected.iter().map(|h| h.1).collect();
                assert_eq!(gs, es, "qid {qid} k {k}");
                assert_eq!(got.hits.len(), k);
            }
        }
    }

    #[test]
    fn range_matches_brute_force() {
        let db = ZipfianGenerator::new(500, 250, 6.0, 1.2).generate(7);
        let part = random_partitioning(db.len(), 12, 2);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        for qid in [3u32, 77, 250] {
            let q = db.set(qid).to_vec();
            for delta in [0.3, 0.5, 0.8, 1.0] {
                let got = index.range(&q, delta);
                let expected = brute_range(&db, Jaccard, &q, delta);
                assert_eq!(got.hits, expected, "qid {qid} δ {delta}");
            }
        }
    }

    #[test]
    fn knn_with_cosine_is_exact_too() {
        let db = ZipfianGenerator::new(300, 200, 7.0, 1.0).generate(11);
        let part = random_partitioning(db.len(), 8, 3);
        let index = Les3Index::build(db.clone(), part, Cosine);
        let q = db.set(42).to_vec();
        let got = index.knn(&q, 10);
        let expected = brute_knn(&db, Cosine, &q, 10);
        let gs: Vec<f64> = got.hits.iter().map(|h| h.1).collect();
        let es: Vec<f64> = expected.iter().map(|h| h.1).collect();
        assert_eq!(gs, es);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        let db = ZipfianGenerator::new(400, 220, 7.0, 1.1).generate(23);
        let part = random_partitioning(db.len(), 12, 9);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        let mut scratch = QueryScratch::new();
        for qid in [0u32, 13, 77, 200, 399] {
            let q = db.set(qid).to_vec();
            let reused = index.knn_with(&q, 8, &mut scratch);
            let fresh = index.knn(&q, 8);
            assert_eq!(reused.hits, fresh.hits, "qid {qid}");
            assert_eq!(reused.stats, fresh.stats, "qid {qid}");
            let reused = index.range_with(&q, 0.4, &mut scratch);
            let fresh = index.range(&q, 0.4);
            assert_eq!(reused.hits, fresh.hits, "qid {qid}");
            assert_eq!(reused.stats, fresh.stats, "qid {qid}");
        }
    }

    #[test]
    fn bucketed_bounds_are_descending_with_ascending_id_ties() {
        let db = ZipfianGenerator::new(300, 150, 6.0, 1.0).generate(5);
        let part = random_partitioning(db.len(), 24, 4);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        let q = db.set(11).to_vec();
        let mut scratch = QueryScratch::new();
        index.group_upper_bounds_with(&q, &mut SearchStats::default(), &mut scratch);
        let bounds = scratch.bounds;
        assert_eq!(bounds.len(), 24);
        for w in bounds.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "order violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // Every group appears exactly once.
        let mut seen: Vec<u32> = bounds.iter().map(|b| b.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn grouping_by_similarity_prunes_more_than_random() {
        // Sets fall into 4 disjoint token regions; a region-aligned
        // partitioning should prune ~3/4 of the database.
        let mut sets = Vec::new();
        for region in 0..4u32 {
            for i in 0..50u32 {
                sets.push(vec![
                    region * 100 + i,
                    region * 100 + i + 1,
                    region * 100 + i + 2,
                ]);
            }
        }
        let db = SetDatabase::from_sets(sets);
        let aligned = Partitioning::from_assignment((0..200).map(|i| (i / 50) as u32).collect(), 4);
        let index = Les3Index::build(db.clone(), aligned, Jaccard);
        let q = db.set(10).to_vec();
        let res = index.knn(&q, 5);
        let pe = res.stats.pruning_efficiency_knn(200, 5);
        assert!(pe >= 0.75, "aligned partitioning PE {pe}");

        let random = random_partitioning(200, 4, 5);
        let index_r = Les3Index::build(db, random, Jaccard);
        let res_r = index_r.knn(&q, 5);
        assert!(
            res.stats.candidates < res_r.stats.candidates,
            "aligned {} vs random {}",
            res.stats.candidates,
            res_r.stats.candidates
        );
    }

    #[test]
    fn knn_handles_small_and_degenerate_inputs() {
        let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![2, 3]]);
        let index = Les3Index::build(db, Partitioning::round_robin(2, 2), Jaccard);
        assert!(index.knn(&[0, 1], 0).hits.is_empty());
        // k larger than |D| returns everything.
        let res = index.knn(&[0, 1], 10);
        assert_eq!(res.hits.len(), 2);
        // Query with only unseen tokens: similarities are 0 but k results
        // are still returned (Definition 2.1 wants exactly k).
        let res = index.knn(&[100, 200], 1);
        assert_eq!(res.hits.len(), 1);
        assert_eq!(res.hits[0].1, 0.0);
    }

    #[test]
    fn range_delta_one_and_above() {
        let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![0, 1], vec![0, 2]]);
        let index = Les3Index::build(db, Partitioning::round_robin(3, 2), Jaccard);
        let res = index.range(&[0, 1], 1.0);
        let ids: Vec<SetId> = res.hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn stats_are_consistent() {
        let db = ZipfianGenerator::new(400, 200, 6.0, 1.1).generate(5);
        let part = random_partitioning(db.len(), 10, 6);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        let q = db.set(0).to_vec();
        let res = index.range(&q, 0.6);
        assert_eq!(res.stats.candidates, res.stats.sims_computed);
        assert_eq!(res.stats.groups_pruned + res.stats.groups_verified, 10);
        assert!(res.stats.columns_checked > 0);
        let pe = res.stats.pruning_efficiency_range(db.len(), res.hits.len());
        assert!((0.0..=1.0).contains(&pe));
    }

    #[test]
    fn length_window_skips_without_losing_hits() {
        // Sets of wildly different sizes sharing a token: the window must
        // cut the extremes at a high threshold yet lose no true hit.
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for len in 1..=60u32 {
            sets.push((0..len).collect());
        }
        let db = SetDatabase::from_sets(sets);
        let index = Les3Index::build(db.clone(), Partitioning::single_group(60), Jaccard);
        let q: Vec<u32> = (0..30).collect();
        let res = index.range(&q, 0.8);
        let expected = brute_range(&db, Jaccard, &q, 0.8);
        assert_eq!(res.hits, expected);
        assert!(res.stats.size_skipped > 0, "window should cut extremes");
        assert!(
            res.stats.candidates < 60,
            "candidates {} should be well below the group size",
            res.stats.candidates
        );
    }

    #[test]
    fn order_stays_exact_under_interleaved_inserts_deletes_and_queries() {
        // Inserts and deletes edit the per-group order in place.
        // Interleave bursts of both with kNN and range queries and check
        // exactness against brute force over the live sets after every
        // step.
        let db = ZipfianGenerator::new(120, 90, 6.0, 1.1).generate(31);
        let part = random_partitioning(db.len(), 5, 3);
        let mut index = Les3Index::build(db, part, Jaccard);
        let mut log = crate::DeletionLog::build(&index);
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..12u32 {
            // A burst of inserts (several per group, into every length run).
            for _ in 0..(1 + round % 4) {
                let len = rng.gen_range(1usize..12);
                let mut tokens: Vec<u32> = (0..len).map(|_| rng.gen_range(0..110u32)).collect();
                let (id, _) = index.insert(&mut tokens);
                log.note_insert(&index, id);
            }
            for _ in 0..round % 3 {
                let id = rng.gen_range(0..index.db().len() as u32);
                let was_live = !log.is_deleted(id);
                assert_eq!(log.delete(&mut index, id), was_live, "round {round}");
            }
            let qid = rng.gen_range(0..index.db().len() as u32);
            let q = index.db().set(qid).to_vec();
            let got = index.knn(&q, 6);
            let mut expected = brute_knn(index.db(), Jaccard, &q, index.db().len());
            log.filter_hits(&mut expected);
            let gs: Vec<f64> = got.hits.iter().map(|h| h.1).collect();
            let es: Vec<f64> = expected[..6].iter().map(|h| h.1).collect();
            assert_eq!(gs, es, "round {round}");
            assert!(got.hits.iter().all(|h| !log.is_deleted(h.0)));
            let got = index.range(&q, 0.5);
            let mut expected = brute_range(index.db(), Jaccard, &q, 0.5);
            log.filter_hits(&mut expected);
            assert_eq!(got.hits, expected, "round {round}");
            // A repeat query reads the same order and must agree with
            // itself.
            assert_eq!(index.range(&q, 0.5).hits, got.hits, "round {round}");
        }
        assert!(
            log.live_count() < index.db().len(),
            "the script must delete"
        );
    }

    /// A range as the loop before the hoisting: every window member the
    /// mask keeps evaluated by the reference merge, both distinct lengths
    /// and `min_overlap_for` recomputed per member. Every group whose
    /// bound is not at least `delta` is pruned. Phase A's bits visited are
    /// those of the rarest-first count at the least overlap whose bound
    /// reaches `delta` (none if no overlap's does).
    fn reference_range<S: Similarity>(
        index: &Les3Index<S>,
        query: &[TokenId],
        delta: f64,
        mask: Option<&crate::FilterCandidates>,
    ) -> SearchResult {
        let (sim, mut stats, mut hits) = (index.sim(), SearchStats::default(), Vec::new());
        if mask.is_some_and(|m| m.groups.is_empty()) {
            return SearchResult { hits, stats };
        }
        let mut q = query.to_vec();
        q.sort_unstable();
        let q_len = distinct_len(&q);
        let mut counts = Vec::new();
        index.tgm().group_overlaps_into(&q, &mut counts);
        let reaches = |r| {
            !sim.ub_from_overlap(q_len, r)
                .partial_cmp(&delta)
                .is_none_or(std::cmp::Ordering::is_lt)
        };
        if let Some(o) = (0..=q_len).find(|&r| reaches(r)) {
            let kernel = &mut crate::scratch::FilterScratch::default();
            stats.columns_checked = index.tgm().overlaps_reaching(&q, o, kernel) as usize;
        }
        let groups: Vec<u32> = match mask {
            Some(m) => m.groups.clone(),
            None => (0..counts.len() as u32).collect(),
        };
        let (lo, hi) = window_limits(sim, q_len, q_len, delta);
        for g in groups {
            if !reaches(counts[g as usize] as usize) {
                stats.groups_pruned += 1;
                continue;
            }
            stats.groups_verified += 1;
            let (ids, _, _, skipped) = index.verify.window(g, lo, hi);
            stats.size_skipped += skipped;
            for &id in ids
                .iter()
                .filter(|&&id| mask.is_none_or(|m| m.sets.contains(id)))
            {
                stats.candidates += 1;
                stats.sims_computed += 1;
                match reference_eval_with_threshold(sim, &q, index.db().set(id), delta) {
                    ThresholdedEval::Hit(s) => hits.push((id, s)),
                    ThresholdedEval::Rejected { early } => stats.early_exits += usize::from(early),
                }
            }
        }
        sort_hits(&mut hits);
        SearchResult { hits, stats }
    }

    /// The database, partitioning, queries and mask of the range
    /// properties.
    type RangeFixture = (
        SetDatabase,
        Partitioning,
        Vec<Vec<TokenId>>,
        crate::FilterCandidates,
    );

    /// A [`RangeFixture`]: multiset sets, groups left empty, queries that
    /// are a member plus 0–3 more tokens (duplicates and unseen ones too).
    fn range_fixture(
        sets: &[Vec<TokenId>],
        n_groups: usize,
        picks: &[usize],
        queries: &[(usize, Vec<TokenId>)],
        mask_word: u64,
    ) -> RangeFixture {
        let db = SetDatabase::from_sets(sets.iter().cloned());
        let assignment = picks[..db.len()]
            .iter()
            .map(|&p| (p % n_groups) as u32)
            .collect();
        let part = Partitioning::from_assignment(assignment, n_groups);
        let queries = queries
            .iter()
            .map(|(pick, extra)| [db.set((pick % db.len()) as SetId), extra].concat())
            .collect();
        let mask = crate::FilterCandidates::from_words(&[mask_word], &part);
        (db, part, queries, mask)
    }

    proptest! {
        /// The range loop against [`reference_range`]: hits and every
        /// counter, for all four measures, at δ ∈ {−∞, 0, 0.3, 0.8, 1,
        /// 1.5}, with and without a mask, one scratch serving every query.
        #[test]
        fn range_loop_equals_the_per_candidate_reference(
            sets in prop::collection::vec(prop::collection::vec(0u32..30, 0..10), 1..60),
            n_groups in 1usize..9,
            picks in prop::collection::vec(0usize..1000, 60),
            queries in prop::collection::vec((0usize..1000, prop::collection::vec(0u32..34, 0..4)), 1..4),
            mask_word in any::<u64>(),
        ) {
            fn check<S: Similarity>(
                sim: S,
                (db, part, queries, mask): &RangeFixture,
            ) -> Result<(), TestCaseError> {
                let index = Les3Index::build(db.clone(), part.clone(), sim);
                let mut scratch = QueryScratch::new();
                for q in queries {
                    for delta in [f64::NEG_INFINITY, 0.0, 0.3, 0.8, 1.0, 1.5] {
                        for mask in [None, Some(mask)] {
                            let query = crate::Query { mask, ..crate::Query::range(q, delta) };
                            let got = query::uninterrupted(index.search(&query, &mut scratch));
                            let want = reference_range(&index, q, delta, mask);
                            let at = format!("{} q={q:?} δ={delta} masked={}", sim.name(), mask.is_some());
                            prop_assert_eq!(got.stats, want.stats, "{}", at);
                            prop_assert_eq!(got.hits, want.hits, "{}", at);
                        }
                    }
                }
                Ok(())
            }
            let fixture = range_fixture(&sets, n_groups, &picks, &queries, mask_word);
            check(Jaccard, &fixture)?;
            check(Cosine, &fixture)?;
            check(crate::sim::Dice, &fixture)?;
            check(crate::sim::OverlapCoefficient, &fixture)?;
        }

        /// No bound reaches a NaN `delta`: through every range entry point
        /// — `range`, `range_with`, `range_ctl_on`, a masked `search` and
        /// an anytime `search` — a NaN range returns nothing, verifies no
        /// group and prunes every group it considers.
        #[test]
        fn a_nan_range_prunes_every_group(
            sets in prop::collection::vec(prop::collection::vec(0u32..30, 0..10), 1..60),
            n_groups in 1usize..9,
            picks in prop::collection::vec(0usize..1000, 60),
            queries in prop::collection::vec((0usize..1000, prop::collection::vec(0u32..34, 0..4)), 1..4),
            mask_word in any::<u64>(),
        ) {
            fn check<S: Similarity>(
                sim: S,
                (db, part, queries, mask): &RangeFixture,
            ) -> Result<(), TestCaseError> {
                let index = Les3Index::build(db.clone(), part.clone(), sim);
                let mut scratch = QueryScratch::new();
                let nan = f64::NAN;
                for q in queries {
                    let search = |query: crate::Query<'_>, scratch: &mut QueryScratch| {
                        index.search(&query, scratch).expect("never interrupted").0
                    };
                    let anytime = crate::Query {
                        approx: crate::ApproxPolicy::Anytime,
                        ..crate::Query::range(q, nan)
                    };
                    let masked = crate::Query { mask: Some(mask), ..crate::Query::range(q, nan) };
                    let unmasked = [
                        index.range(q, nan),
                        index.range_with(q, nan, &mut scratch),
                        index.range_ctl_on(1, q, nan, &mut scratch, &crate::QueryCtl::NONE).unwrap(),
                        search(anytime, &mut scratch),
                    ];
                    let runs = unmasked
                        .into_iter()
                        .map(|r| (r, part.n_groups()))
                        .chain([(search(masked, &mut scratch), mask.n_groups())]);
                    for (i, (got, considered)) in runs.enumerate() {
                        let at = format!("{} q={q:?} entry point {i}", sim.name());
                        prop_assert!(got.hits.is_empty(), "{}", at);
                        prop_assert_eq!(got.stats.groups_verified, 0, "{}", at);
                        prop_assert_eq!(got.stats.groups_pruned, considered, "{}", at);
                    }
                }
                Ok(())
            }
            let fixture = range_fixture(&sets, n_groups, &picks, &queries, mask_word);
            check(Jaccard, &fixture)?;
            check(Cosine, &fixture)?;
            check(crate::sim::Dice, &fixture)?;
            check(crate::sim::OverlapCoefficient, &fixture)?;
        }

        /// The cached window limits against the floating-point searches
        /// they replaced, on one group whose lengths come in runs with
        /// gaps between (short, long and `u32::MAX`): every cap `r ∈
        /// 0..=|Q|+1` at thresholds −∞, 0, 0.8, 1, 1.5 and random ones
        /// in between, asked in rising order as a kNN's k-th similarity
        /// moves, then NaN (a range's `delta` is the caller's). One cache
        /// serves every measure and several queries in turn — as one
        /// scratch serves every namespace — and its minimal overlaps
        /// equal `min_overlap_for` at every threshold.
        #[test]
        fn cached_windows_equal_the_float_search(
            runs in prop::collection::vec(
                (prop_oneof![0u32..40, 40u32..100_000, Just(u32::MAX)], 1usize..4),
                0..14,
            ),
            q_lens in prop::collection::vec(0usize..24, 1..4),
            between in prop::collection::vec(0.0f64..1.2, 0..6),
        ) {
            fn check<S: Similarity>(
                sim: S,
                cache: &mut WindowCache,
                order: &VerifyOrder,
                q_len: usize,
                thresholds: &[f64],
            ) -> Result<(), TestCaseError> {
                let GroupOrder { ids, lens, .. } = &order.groups[0];
                let probes: Vec<usize> = lens
                    .iter()
                    .map(|&l| l as usize)
                    .chain(0..=q_len + 2)
                    .chain([NEEDED_LENS - 1, NEEDED_LENS])
                    .collect();
                cache.reset(q_len);
                for &t in thresholds {
                    for r in 0..=q_len + 1 {
                        let (lo, hi) = cache.limits(sim, r, t);
                        prop_assert_eq!((lo, hi), window_limits(sim, q_len, r, t));
                        let (got, _, _, skipped) = order.window(0, lo, hi);
                        let want = order.float_window(sim, 0, q_len, r, t);
                        let at = format!("{} |Q|={q_len} r={r} t={t}", sim.name());
                        prop_assert_eq!(got, &ids[want.clone()], "{}", at);
                        prop_assert_eq!(skipped, ids.len() - want.len(), "{}", at);
                    }
                    for &len in &probes {
                        prop_assert_eq!(
                            cache.needed(sim, len, t),
                            sim.min_overlap_for(t, q_len, len),
                            "{} |Q|={} L={} t={}", sim.name(), q_len, len, t
                        );
                    }
                }
                Ok(())
            }
            let mut lens: Vec<u32> = runs
                .iter()
                .flat_map(|&(len, n)| std::iter::repeat_n(len, n))
                .collect();
            lens.sort_unstable();
            let order = VerifyOrder {
                groups: vec![GroupOrder {
                    ids: (0..lens.len() as SetId).collect(),
                    sigs: vec![0; lens.len()],
                    lens,
                }],
            };
            let mut thresholds: Vec<f64> = [f64::NEG_INFINITY, 0.0, 0.8, 1.0, 1.5]
                .into_iter()
                .chain(between)
                .collect();
            thresholds.sort_by(f64::total_cmp);
            thresholds.push(f64::NAN);
            let mut cache = WindowCache::default();
            for &q_len in &q_lens {
                check(Jaccard, &mut cache, &order, q_len, &thresholds)?;
                check(Cosine, &mut cache, &order, q_len, &thresholds)?;
                check(crate::sim::Dice, &mut cache, &order, q_len, &thresholds)?;
                check(crate::sim::OverlapCoefficient, &mut cache, &order, q_len, &thresholds)?;
            }
        }

        /// Any interleaving of `push` and `remove` leaves every group's
        /// arrays — ids, lengths and signatures — equal to a `build` over
        /// the members that survive: what `open ≡ build + deletes` rests
        /// on. Sets of one length differ by a salt, so a signature that
        /// landed beside the wrong id shows.
        #[test]
        fn push_and_remove_leave_the_order_build_would(
            initial in prop::collection::vec((0u32..3, 1u32..6, 0u32..50), 0..20),
            ops in prop::collection::vec((0u32..3, 1u32..6, 0usize..3, 0usize..1000), 0..60),
        ) {
            let set = |len: u32, salt: u32| (0..len).map(|t| salt + 50 * t).collect::<Vec<TokenId>>();
            let mut db =
                SetDatabase::from_sets(initial.iter().map(|&(_, len, salt)| set(len, salt)));
            let mut part =
                Partitioning::from_assignment(initial.iter().map(|&(g, _, _)| g).collect(), 3);
            let mut order = VerifyOrder::build(&db, &part);
            let mut dead = vec![false; db.len()];
            for (g, len, kind, pick) in ops {
                if kind == 0 && !db.is_empty() {
                    let id = (pick % db.len()) as SetId;
                    let (g, len) = (part.group_of(id), distinct_len(db.set(id)) as u32);
                    let was_live = !std::mem::replace(&mut dead[id as usize], true);
                    prop_assert_eq!(order.remove(g, len, id), was_live);
                } else {
                    let tokens = set(len, pick as u32 % 50);
                    let id = db.push_sorted(&tokens);
                    part.push(g);
                    dead.push(false);
                    order.push(g, &tokens, id);
                }
            }
            let built = VerifyOrder::build(&db, &part);
            for (got, all) in order.groups.iter().zip(&built.groups) {
                let live: Vec<(SetId, u32, u64)> = (0..all.ids.len())
                    .map(|i| (all.ids[i], all.lens[i], all.sigs[i]))
                    .filter(|&(id, _, _)| !dead[id as usize])
                    .collect();
                prop_assert_eq!(&got.ids, &live.iter().map(|m| m.0).collect::<Vec<_>>());
                prop_assert_eq!(&got.lens, &live.iter().map(|m| m.1).collect::<Vec<_>>());
                prop_assert_eq!(&got.sigs, &live.iter().map(|m| m.2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn topk_tie_breaking_prefers_small_ids() {
        let mut top = TopK::new(2);
        top.offer(5, 0.5);
        top.offer(1, 0.5);
        top.offer(3, 0.5);
        let hits = top.into_sorted();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![1, 3]);
    }
}
