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
//!   similarity-specific length window excludes most of a group with
//!   two binary searches, and each surviving candidate is abandoned as
//!   soon as its overlap cannot reach the current threshold; the kNN and
//!   range candidate loops exist once each (`VerifyQuery::knn_window`,
//!   `VerifyQuery::range_window`);
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
//! * both loops **fetch ahead** of their merges (why: `tgm.rs` module
//!   docs). The kNN scan resolves the next admitted member's token slice
//!   before it merges the current one; the range loop takes its window
//!   32 members at a time and reads the first token of each one the
//!   mask keeps before it merges any of them. Only when loads are issued
//!   moves, never which bytes are read or a verdict;
//! * the two loops count overlap differently. A kNN loads a
//!   duplicate-free query into a membership bitset once
//!   ([`crate::sim::QueryBits`], in the scratch, at most `⌈universe /
//!   64⌉` words) and counts each candidate by looking its tokens up
//!   there ([`Similarity::eval_prepared`]): independent loads, where a
//!   merge step waits on the previous step's cursor moves. A multiset on
//!   either side takes the merge, and so does every range candidate
//!   ([`Similarity::eval_with_threshold`]): a range verifies ≈ 85
//!   candidates per call against the kNN's ≈ 5 800, so its time is the
//!   filter pass and per-call overhead, and hoisting its loop waits on
//!   the benchmark harness bounding its sample memory. Both kernels
//!   return the merge's verdict, `Hit` bits and `early` flag alike, so
//!   every [`SearchStats`] counter is the merge's too (the proof is on
//!   [`Similarity::eval_prepared`]);
//! * all working memory lives in a reusable [`QueryScratch`], so
//!   steady-state queries allocate nothing but their result vector.

use std::ops::{Deref, DerefMut};

use les3_data::{SetDatabase, SetId, TokenId};

use crate::partitioning::Partitioning;
use crate::scratch::QueryScratch;
use crate::shard::ShardedLes3Index;
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
    /// (`Σ_{t∈Q} |groups(t)|` bits visited) into `stats`.
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
        stats.columns_checked += self.0.filter(query, q_len, None, filter, stream) as usize;
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

    /// The slice of group `g`'s member ids (in (length, id) order) whose
    /// length alone permits `sim ≥ threshold`, their distinct lengths and
    /// signatures alongside, plus the number of members excluded by that
    /// length window.
    ///
    /// `r` is the group's TGM overlap count `|Q ∩ GS_g|`. Every token a
    /// member `S` shares with `Q` lies in `GS_g ∩ Q` (deletes keep the TGM
    /// a superset of the live members' tokens), so with `c = min(r, |Q|)`
    /// a member of distinct length `L` has similarity at most
    /// `from_overlap(min(c, L), |Q|, L)`. That bound rises with `L` below
    /// `c` and falls from `c` up, for every measure, so the admissible
    /// region is one contiguous window found by two binary searches.
    /// Passing `r = |Q|` gives the uncapped window.
    pub(crate) fn window<S: Similarity>(
        &self,
        sim: S,
        g: u32,
        q_len: usize,
        r: usize,
        threshold: f64,
    ) -> (&[SetId], &[u32], &[u64], usize) {
        let GroupOrder { ids, lens, sigs } = &self.groups[g as usize];
        let c = r.min(q_len);
        let split = lens.partition_point(|&l| (l as usize) < c);
        let lo = lens[..split]
            .partition_point(|&l| sim.from_overlap(l as usize, q_len, l as usize) < threshold);
        let hi = split
            + lens[split..]
                .partition_point(|&l| sim.from_overlap(c, q_len, l as usize) >= threshold);
        (
            &ids[lo..hi],
            &lens[lo..hi],
            &sigs[lo..hi],
            ids.len() - (hi - lo),
        )
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
    pub(crate) fn knn_window(
        &self,
        order: &VerifyOrder,
        g: u32,
        r: u32,
        top: &mut TopK,
        stats: &mut SearchStats,
    ) {
        let (ids, lens, sigs, skipped) =
            order.window(self.sim, g, self.q_len(), r as usize, top.kth());
        stats.size_skipped += skipped;
        // Branch on the filter once per window, not per candidate:
        // non-matching members are skipped before any accounting.
        match self.filter {
            None => self.scan(ids, lens, sigs, |_| true, top, stats),
            Some(m) => self.scan(ids, lens, sigs, |id| m.contains(id), top, stats),
        }
    }

    /// The candidate loop. Everything constant across candidates stays
    /// out of it: `|Q|` comes from the caller, `|S|` and the signature
    /// from the stored window arrays, and the minimal overlap is
    /// recomputed only when the length or the threshold changes —
    /// windows are length-sorted and the threshold moves only on an
    /// accepted hit, so that is a few times per group. A candidate whose
    /// signature bound ([`PreparedQuery::overlap_bound`]) is below the
    /// minimal overlap is strictly below the k-th similarity and is
    /// dropped without reading its tokens; every other one goes through
    /// the one kNN hook, [`Similarity::eval_prepared`], whose verdicts
    /// are those of [`Similarity::eval_with_threshold`] on the same `(Q,
    /// S, t)`.
    fn scan(
        &self,
        ids: &[SetId],
        lens: &[u32],
        sigs: &[u64],
        keep: impl Fn(SetId) -> bool,
        top: &mut TopK,
        stats: &mut SearchStats,
    ) {
        let mut t = top.kth();
        let (mut memo, mut candidates) = ((usize::MAX, 0u64, 0usize), 0usize);
        // The first member from `i` on that the mask keeps and whose
        // bound reaches the minimal overlap at `t`, with that overlap.
        // Every kept member it passes is a candidate.
        let mut seek = |mut i: usize, t: f64| {
            while i < ids.len() {
                if keep(ids[i]) {
                    candidates += 1;
                    let len = lens[i] as usize;
                    if (memo.0, memo.1) != (len, t.to_bits()) {
                        memo = (
                            len,
                            t.to_bits(),
                            self.sim.min_overlap_for(t, self.q_len(), len),
                        );
                    }
                    if self.query.overlap_bound(len, sigs[i]) >= memo.2 {
                        break;
                    }
                }
                i += 1;
            }
            (i, memo.2)
        };
        let (mut evaluated, mut early_exits) = (0usize, 0usize);
        let ((mut i, mut needed), mut sought_at) = (seek(0, t), t);
        let mut tokens = ids.get(i).map(|&id| self.db.set(id));
        while let Some(b) = tokens {
            let (id, b_len) = (ids[i], lens[i] as usize);
            // A hit since this member was admitted raised the threshold
            // (a few times per group): its bound must reach the new
            // minimal overlap too. The threshold only rises, so members
            // the bound rejected earlier stay rejected.
            let admitted = sought_at.to_bits() == t.to_bits() || {
                needed = self.sim.min_overlap_for(t, self.q_len(), b_len);
                self.query.overlap_bound(b_len, sigs[i]) >= needed
            };
            // Resolve the next admitted member's tokens before this
            // merge, so its offset loads are in flight while it runs.
            let (next, next_needed) = seek(i + 1, t);
            tokens = ids.get(next).map(|&id| self.db.set(id));
            sought_at = t;
            if admitted {
                evaluated += 1;
                match self.sim.eval_prepared(&self.query, b, b_len, needed, t) {
                    // Only an accepted hit can move the threshold.
                    ThresholdedEval::Hit(s) => {
                        top.offer(id, s);
                        t = top.kth();
                    }
                    ThresholdedEval::Rejected { early } => early_exits += usize::from(early),
                }
            }
            (i, needed) = (next, next_needed);
        }
        stats.candidates += candidates;
        stats.sims_computed += evaluated;
        stats.early_exits += early_exits;
    }

    /// Verifies group `g`'s length window at the fixed range threshold
    /// `delta`, appending hits (unsorted) and charging the work to
    /// `stats`. The window stays uncapped (`r = |Q|`): the cap is ready
    /// but waits on the benchmark bounding its sample memory (ROADMAP
    /// 1(a), direction 3).
    pub(crate) fn range_window(
        &self,
        order: &VerifyOrder,
        g: u32,
        delta: f64,
        hits: &mut Vec<(SetId, f64)>,
        stats: &mut SearchStats,
    ) {
        let q_len = self.q_len();
        let (ids, _lens, _sigs, skipped) = order.window(self.sim, g, q_len, q_len, delta);
        stats.size_skipped += skipped;
        // Fetch ahead (module docs): per chunk of 32, read the first token
        // of every member the mask keeps, then merge those members.
        let mut kept = [0 as SetId; 32];
        for chunk in ids.chunks(kept.len()) {
            let (mut n, mut fetched) = (0, 0u32);
            for &id in chunk {
                if self.filter.is_none_or(|m| m.contains(id)) {
                    fetched ^= self.db.set(id).first().copied().unwrap_or(0);
                    kept[n] = id;
                    n += 1;
                }
            }
            std::hint::black_box(fetched);
            for &id in &kept[..n] {
                stats.candidates += 1;
                stats.sims_computed += 1;
                match self
                    .sim
                    .eval_with_threshold(self.query.tokens(), self.db.set(id), delta)
                {
                    ThresholdedEval::Hit(s) => hits.push((id, s)),
                    ThresholdedEval::Rejected { early } => {
                        if early {
                            stats.early_exits += 1;
                        }
                    }
                }
            }
        }
    }
}

/// The `O(G + |Q|)` bucketed descending selection of the filter pass:
/// the `(group, r)` entries (group ids ascending) are histogrammed into
/// buckets `r ∈ 0..=|Q|`, descending start offsets are prefixed, and
/// each group is scattered to its verification-order position —
/// `emit(pos, g, r)` with `pos` running over the `(r descending, group
/// id ascending)` order. Exactly the order a stable descending sort on
/// the (monotone in `r`) bounds would give.
pub(crate) fn bucketed_descending(
    entries: impl Iterator<Item = (u32, u32)> + Clone,
    q_len: usize,
    offsets: &mut Vec<u32>,
    mut emit: impl FnMut(usize, u32, u32),
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
    for (g, r) in entries {
        let pos = offsets[r as usize];
        offsets[r as usize] += 1;
        emit(pos as usize, g, r);
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
    use crate::sim::{Cosine, Jaccard};
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

    /// The hoisted window scan against the loop it replaced: every
    /// member the signature bound admits evaluated by
    /// `eval_with_threshold` at the heap's current k-th similarity. One
    /// group holding runs of equal lengths, changing lengths, multisets
    /// and (for small k) a threshold that rises inside the window — so
    /// the `(length, threshold)` memo of the minimal overlap is both
    /// reused and invalidated mid-window — members the signature
    /// rejects, and decoys it admits that the kernel abandons early.
    #[test]
    fn window_scan_equals_per_candidate_eval_while_threshold_rises() {
        fn check<S: Similarity>(sim: S) {
            let mut sig_rejected = 0;
            let mut rng = StdRng::seed_from_u64(0x5ca9);
            let sets: Vec<Vec<TokenId>> = (0..240)
                .map(|i| {
                    // Lengths repeat in runs of ~8 and grow with i.
                    let len = 2 + i / 8 % 12;
                    let mut s: Vec<TokenId> = (0..len).map(|_| rng.gen_range(0..40)).collect();
                    s.sort_unstable();
                    if i % 5 != 0 {
                        s.dedup(); // every fifth set stays a multiset
                    }
                    s
                })
                .collect();
            let queries = [(7u32, 1usize), (100, 3), (191, 8), (239, 40), (64, 500)];
            // On a 40-token alphabet the signature is nearly exact, so
            // each query gets decoys: its own set with the smallest token
            // swapped for 1, 2, …, 13 tokens past the alphabet that set
            // the same signature bit. The bound admits every decoy at the
            // query's own overlap; the kernel abandons it early.
            let decoys: Vec<Vec<TokenId>> = queries
                .iter()
                .flat_map(|&(qid, _)| {
                    let s = &sets[qid as usize];
                    let twins: Vec<TokenId> = (40..)
                        .filter(|&t| token_signature(&[t]) == token_signature(&s[..1]))
                        .take(13)
                        .collect();
                    let rest: Vec<TokenId> = s.iter().copied().filter(|&t| t != s[0]).collect();
                    (1..=twins.len()).map(move |n| [&rest[..], &twins[..n]].concat())
                })
                .collect();
            let db = SetDatabase::from_sets(sets.into_iter().chain(decoys));
            let part = Partitioning::from_assignment(vec![0; db.len()], 1);
            let order = VerifyOrder::build(&db, &part);
            let mut mask = les3_bitmap::DenseBitSet::new();
            mask.reset(db.len());
            (0..db.len() as SetId)
                .filter(|&id| id % 3 != 0 || id >= 240) // the decoys pass
                .for_each(|id| mask.insert(id));
            let tgm = Tgm::build(&db, &part);
            for (qid, k) in queries {
                let query = db.set(qid);
                let q_len = distinct_len(query);
                let r = tgm.group_overlaps(query)[0];
                for filter in [None, Some(&mask)] {
                    let (mut want_top, mut want) = (TopK::new(k), SearchStats::default());
                    let (ids, _lens, _sigs, skipped) =
                        order.window(sim, 0, q_len, r as usize, want_top.kth());
                    want.size_skipped += skipped;
                    let q_sig = token_signature(query);
                    for &id in ids {
                        if filter.is_some_and(|m| !m.contains(id)) {
                            continue;
                        }
                        want.candidates += 1;
                        let set = db.set(id);
                        let s_len = distinct_len(set);
                        let popcount = (q_sig ^ token_signature(set)).count_ones() as usize;
                        let needed = sim.min_overlap_for(want_top.kth(), q_len, s_len);
                        if (q_len + s_len - popcount) / 2 < needed {
                            sig_rejected += 1;
                            continue;
                        }
                        want.sims_computed += 1;
                        match sim.eval_with_threshold(query, set, want_top.kth()) {
                            ThresholdedEval::Hit(s) => want_top.offer(id, s),
                            ThresholdedEval::Rejected { early } => {
                                want.early_exits += usize::from(early)
                            }
                        }
                    }
                    let want_hits = want_top.into_sorted();
                    // Without bits every candidate takes the merge; with
                    // them a set query takes the lookup kernel for every
                    // set candidate.
                    let mut bits = crate::sim::QueryBits::new();
                    for query in [
                        PreparedQuery::without_bits(query),
                        bits.prepare(query, db.universe_size()),
                    ] {
                        let (mut top, mut stats) = (TopK::new(k), SearchStats::default());
                        let verify = VerifyQuery {
                            sim,
                            db: &db,
                            query,
                            filter,
                        };
                        verify.knn_window(&order, 0, r, &mut top, &mut stats);
                        assert_eq!(stats, want, "{} q{qid} k{k}", sim.name());
                        assert_eq!(top.into_sorted(), want_hits);
                    }
                    assert!(want.early_exits > 0 || k >= 40, "fixture must exit early");
                }
            }
            assert!(sig_rejected > 0, "the fixture must reject by signature");
        }
        check(Jaccard);
        check(Cosine);
        check(crate::sim::Dice);
        check(crate::sim::OverlapCoefficient);
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

    proptest! {
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
