//! The approximate tier: a MinHash banded-signature sidecar with exact
//! fallback.
//!
//! LES3 is exact by construction; this module adds an *opt-in* knob
//! that trades bounded recall for speed without touching the exact
//! machinery:
//!
//! * **Prefilter** — a classic MinHash LSH candidate filter (b bands ×
//!   r rows; a set is a candidate iff it agrees with the query on every
//!   row of at least one band). The scan's output *is* the per-set mask,
//!   whose groups are the ones phase A puts in the bound stream — exactly
//!   how [`crate::metadata`] attribute filters already compose — so phase
//!   A, `TopK` and `QueryCtl` are reused unchanged, and every surviving
//!   candidate is re-verified
//!   with the **exact** similarity. Misses are only ever *omissions*:
//!   a true neighbour whose signature never collides. The probability a
//!   set with true similarity `s` survives is `1 − (1 − s^r)^b`, which
//!   is also the per-hit recall estimate the tier reports.
//! * **Anytime** — reuses the [`QueryCtl`](crate::QueryCtl) deadline
//!   machinery, but commits the current top-k with a coverage-based
//!   recall estimate instead of surfacing
//!   [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded).
//!   Hits are always exact similarities; only completeness is traded.
//! * **Exact** — the default; byte-for-byte the existing engine.
//!
//! # Layout and kernel
//!
//! The candidate side of an LSH-then-verify pipeline has to be nearly
//! free, or the pruning it buys is spent before verification starts. So
//! the signatures are laid out for the scan, not for the insert: sets
//! are grouped in blocks of 64 (`LANES`), and inside a block the
//! matrix is column-major — `sigs[(block·width + col)·64 + lane]` — in
//! one allocation, the tail block padded with the `u64::MAX` sentinel.
//! A query then costs, per block, one 64-lane equality compare per
//! signature column it reads (`bands × rows` of the `width` built),
//! packed into a `u64`, AND-ed across the rows of a band and OR-ed
//! across bands: **one candidate word per block**, with no hashing and
//! no per-set branch. Those words are exactly the words of the per-set
//! [`DenseBitSet`](les3_bitmap::DenseBitSet) inside
//! [`FilterCandidates`], which is filled from them directly
//! (`FilterCandidates::refill`) — no id vector, no `Bitmap`, no second
//! pass. An insert writes `width` lanes of the tail block, so it stays
//! `O(width)`.
//!
//! Signatures are deterministic (seeded splitmix64 row hashes, no
//! runtime randomness): a pure function of the sets and of
//! [`ApproxParams`], so [`MinHashIndex::build`] over the same sets
//! yields the same sidecar bit for bit. The sidecar lives in memory
//! only: no segment stores it and no server flag or wire field builds
//! or selects it — a library caller builds it with
//! [`ShardedLes3Index::enable_approx`](crate::ShardedLes3Index::enable_approx)
//! until the repository benchmark stops calling it (ROADMAP 1(f)).
//! Deletions need no sidecar maintenance: a deleted set leaves the
//! verify order, so a stale signature can only set a mask bit for a
//! set verification never visits.

use les3_data::{SetId, TokenId};

use crate::metadata::FilterCandidates;
use crate::partitioning::Partitioning;
use crate::query::SearchOutcome;
use crate::scratch::QueryScratch;

/// How a query trades recall for speed. The default is [`Exact`]
/// everywhere — approximation is strictly opt-in per query.
///
/// [`Exact`]: ApproxPolicy::Exact
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ApproxPolicy {
    /// The exact engine, byte-for-byte (hits *and* stats).
    #[default]
    Exact,
    /// MinHash LSH candidate prefilter: only sets colliding with the
    /// query in at least one of the first `bands` bands survive into
    /// phase A. `bands == 0` means "all built bands"; `rows == 0`
    /// saturates the filter (every set collides), which routes the
    /// query through the unfiltered exact path. Both are clamped to
    /// the sidecar's built parameters.
    Prefilter {
        /// Query-time band count (≤ built bands; 0 = all).
        bands: u32,
        /// Query-time rows per band (≤ built rows; 0 = saturate).
        rows: u32,
    },
    /// Run the exact engine but, on deadline expiry, commit the current
    /// top-k (or the range hits gathered so far) with a coverage-based
    /// recall estimate instead of failing with `DeadlineExceeded`.
    Anytime,
}

impl ApproxPolicy {
    /// Whether this policy commits partial results on deadline expiry.
    pub fn is_anytime(self) -> bool {
        matches!(self, ApproxPolicy::Anytime)
    }
}

/// The approximation verdict riding alongside a
/// [`SearchResult`](crate::SearchResult): whether any recall was
/// (potentially) given up, and the tier's estimate of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxInfo {
    /// `true` iff the answer may be missing admissible results. Exact
    /// queries — including prefilter queries whose candidate set
    /// saturated, and anytime queries that finished in time — report
    /// `false`.
    pub approx: bool,
    /// Estimated recall in `[0, 1]`. Prefilter: mean per-hit inclusion
    /// probability `1 − (1 − s^r)^b` over the returned hits (0 when no
    /// hits survive). Anytime: the fraction of candidate groups either
    /// verified or provably pruned before the deadline. Exact: 1.
    pub recall_est: f64,
}

impl ApproxInfo {
    /// The exact verdict: nothing given up.
    pub const EXACT: ApproxInfo = ApproxInfo {
        approx: false,
        recall_est: 1.0,
    };
}

/// Build-time MinHash parameters: `bands × rows` seeded row hashes per
/// set. Query-time policies may use any prefix of the bands and rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxParams {
    /// Number of signature bands (`b`). Must be ≥ 1.
    pub bands: u32,
    /// Rows (hashes) per band (`r`). Must be ≥ 1.
    pub rows: u32,
    /// Seed for the deterministic row-hash family.
    pub seed: u64,
}

impl Default for ApproxParams {
    fn default() -> Self {
        Self {
            bands: 16,
            rows: 2,
            seed: 0x1e53_c0de,
        }
    }
}

/// The 64-bit finalizer of splitmix64 — the deterministic mixing
/// function behind every row hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sets per signature block: one candidate-mask word.
const LANES: usize = 64;

/// The MinHash signature sidecar: an `n_sets × (bands·rows)` matrix of
/// row minima in 64-set column-major blocks (see the module docs),
/// appended to on insert and scanned at query time for band collisions.
/// Everything is derived deterministically from [`ApproxParams`], so a
/// rebuild — which is what save→load is — and WAL replay produce
/// bit-identical signatures.
#[derive(Debug, Clone, PartialEq)]
pub struct MinHashIndex {
    params: ApproxParams,
    /// Per-row hash seeds, `bands·rows` of them, derived from
    /// `params.seed`.
    row_seeds: Vec<u64>,
    /// Blocked signature matrix: set `id`'s value in signature column
    /// `col` is `sigs[((id / 64)·width + col)·64 + id % 64]`, band `b`
    /// occupying columns `b·rows .. (b+1)·rows`. Whole blocks only; the
    /// unused lanes of the tail block hold `u64::MAX`.
    sigs: Vec<u64>,
    n_sets: usize,
}

impl MinHashIndex {
    /// An empty sidecar. Panics on degenerate parameters (`bands` or
    /// `rows` of 0).
    pub fn new(params: ApproxParams) -> Self {
        assert!(params.bands >= 1, "need at least one band");
        assert!(params.rows >= 1, "need at least one row per band");
        let width = params.bands as u64 * params.rows as u64;
        let row_seeds = (0..width)
            .map(|i| splitmix64(params.seed ^ splitmix64(i + 1)))
            .collect();
        Self {
            params,
            row_seeds,
            sigs: Vec::new(),
            n_sets: 0,
        }
    }

    /// Builds the sidecar over every set of `db`, in id order.
    pub fn build(db: &les3_data::SetDatabase, params: ApproxParams) -> Self {
        let mut out = Self::new(params);
        out.sigs
            .reserve_exact(db.len().div_ceil(LANES) * out.width() * LANES);
        for (_, set) in db.iter() {
            out.push(set);
        }
        out
    }

    /// The build-time parameters.
    pub fn params(&self) -> ApproxParams {
        self.params
    }

    /// Number of signed sets.
    pub fn n_sets(&self) -> usize {
        self.n_sets
    }

    /// Signature width (`bands·rows`) in u64 rows.
    fn width(&self) -> usize {
        (self.params.bands * self.params.rows) as usize
    }

    /// Position of set `id`'s value in signature column 0; column `col`
    /// is `col · LANES` further on.
    fn slot(&self, id: usize) -> usize {
        (id / LANES) * self.width() * LANES + id % LANES
    }

    /// Appends the next set's signature (ids are assigned densely, in
    /// insertion order — the same contract as the database): `width`
    /// lanes of the tail block, which is opened (sentinel-filled) every
    /// 64th insert.
    pub fn push(&mut self, set: &[TokenId]) {
        if self.n_sets.is_multiple_of(LANES) {
            let grown = self.sigs.len() + self.width() * LANES;
            self.sigs.resize(grown, u64::MAX);
        }
        let slot = self.slot(self.n_sets);
        for (col, &seed) in self.row_seeds.iter().enumerate() {
            self.sigs[slot + col * LANES] = min_hash(seed, set);
        }
        self.n_sets += 1;
    }

    /// Clamps a query-time policy to the built parameters: `bands == 0`
    /// means all built bands, `rows` caps at the built rows (0 is kept:
    /// it saturates the filter).
    pub fn effective(&self, bands: u32, rows: u32) -> (u32, u32) {
        let b = if bands == 0 {
            self.params.bands
        } else {
            bands.min(self.params.bands)
        };
        (b, rows.min(self.params.rows))
    }

    /// Signs `query` for a scan of the first `rows` rows of the first
    /// `bands` bands (both already clamped): `qsig[b·rows + r]` is the
    /// query's minimum under the seed of signature column
    /// `b·built_rows + r`. Only the columns the scan reads are signed.
    fn sign_query(&self, query: &[TokenId], bands: u32, rows: u32, qsig: &mut Vec<u64>) {
        let built_rows = self.params.rows as usize;
        qsig.clear();
        for b in 0..bands as usize {
            let seeds = &self.row_seeds[b * built_rows..][..rows as usize];
            qsig.extend(seeds.iter().map(|&seed| min_hash(seed, query)));
        }
    }

    /// The candidate word of one block: bit `lane` is set iff set
    /// `block·64 + lane` agrees with `qsig` (from
    /// [`MinHashIndex::sign_query`] with the same shape) on every row of
    /// at least one band. `rows == 0` compares nothing, so every set
    /// collides. Lanes past `n_sets` are cleared (an empty query's
    /// sentinel signature equals the padding), and a block past the end
    /// is empty.
    fn block_word(&self, block: usize, qsig: &[u64], bands: u32, rows: u32) -> u64 {
        let (width, built_rows, rows) = (self.width(), self.params.rows as usize, rows as usize);
        let Some(cols) = self
            .sigs
            .get(block * width * LANES..(block + 1) * width * LANES)
        else {
            return 0;
        };
        let mut word = 0u64;
        for b in 0..bands as usize {
            let band_cols = &cols[b * built_rows * LANES..][..rows * LANES];
            let qrows = &qsig[b * rows..][..rows];
            word |= band_cols
                .chunks_exact(LANES)
                .zip(qrows)
                .fold(!0u64, |band, (col, &q)| band & eq_mask(col, q));
        }
        let live = self.n_sets - block * LANES;
        if live < LANES {
            word &= (1u64 << live) - 1;
        }
        word
    }

    /// The LSH candidates of `query` under the first `bands` bands with
    /// `rows` rows each (clamped via [`MinHashIndex::effective`]): every
    /// set id whose signature collides with the query's in at least one
    /// band, ascending. `rows == 0` makes every set collide — the
    /// saturated filter. A convenience over the block scan the engines
    /// feed straight into their candidate mask.
    pub fn candidates(&self, query: &[TokenId], bands: u32, rows: u32) -> Vec<SetId> {
        let (bands, rows) = self.effective(bands, rows);
        let mut qsig = Vec::new();
        self.sign_query(query, bands, rows, &mut qsig);
        let mut out = Vec::new();
        for block in 0..self.n_sets.div_ceil(LANES) {
            let mut word = self.block_word(block, &qsig, bands, rows);
            while word != 0 {
                out.push((block * LANES) as SetId + word.trailing_zeros());
                word &= word - 1;
            }
        }
        out
    }

    /// Probability a set with true similarity `sim` survives the
    /// `bands × rows` filter: `1 − (1 − sim^rows)^bands`. `rows == 0`
    /// (the saturated filter) includes everything.
    pub fn inclusion_prob(sim: f64, bands: u32, rows: u32) -> f64 {
        if rows == 0 {
            return 1.0;
        }
        let s = sim.clamp(0.0, 1.0);
        1.0 - (1.0 - s.powi(rows as i32)).powi(bands as i32)
    }

    /// The prefilter tier's recall estimate for a finished result: the
    /// mean inclusion probability of the returned hits (their
    /// similarities are exact, so each term is the true survival
    /// probability of a set *at that similarity*). No hits → 0.
    pub fn recall_estimate(hits: &[(SetId, f64)], bands: u32, rows: u32) -> f64 {
        if hits.is_empty() {
            return 0.0;
        }
        let sum: f64 = hits
            .iter()
            .map(|&(_, s)| Self::inclusion_prob(s, bands, rows))
            .sum();
        (sum / hits.len() as f64).clamp(0.0, 1.0)
    }
}

/// The prefilter's per-query working memory, kept in the caller's
/// scratch so a steady-state prefiltered query allocates nothing: the
/// candidate mask itself, the group flags it is derived through, and
/// the signed query columns.
#[derive(Debug, Clone, Default)]
pub struct PrefilterScratch {
    cand: FilterCandidates,
    group_hit: Vec<bool>,
    qsig: Vec<u64>,
}

/// The LSH candidate mask of a prefilter query, scanned straight into
/// `scratch`, or `None` when the query must take the unfiltered exact
/// path instead: no sidecar built, `rows == 0` (decided before any
/// signature is read), or a candidate set that came out saturated. A
/// full mask's stream still leaves out the groups that hold no set, so
/// only the unmasked path repeats the exact engine's group counters.
pub(crate) fn prefilter_candidates<'s>(
    mh: Option<&MinHashIndex>,
    partitioning: &Partitioning,
    query: &[TokenId],
    bands: u32,
    rows: u32,
    scratch: &'s mut PrefilterScratch,
) -> Option<&'s FilterCandidates> {
    let mh = mh?;
    let (bands, rows) = mh.effective(bands, rows);
    if rows == 0 {
        return None;
    }
    let PrefilterScratch {
        cand,
        group_hit,
        qsig,
    } = scratch;
    mh.sign_query(query, bands, rows, qsig);
    cand.refill(partitioning, group_hit, |block| {
        mh.block_word(block, qsig, bands, rows)
    });
    (cand.n_matching() < partitioning.n_sets()).then_some(&*cand)
}

/// The prefilter verdict for a finished result (clamped effective
/// parameters feed the banding formula).
pub(crate) fn prefilter_info(
    mh: &MinHashIndex,
    hits: &[(SetId, f64)],
    bands: u32,
    rows: u32,
) -> ApproxInfo {
    let (bands, rows) = mh.effective(bands, rows);
    ApproxInfo {
        approx: true,
        recall_est: MinHashIndex::recall_estimate(hits, bands, rows),
    }
}

/// Runs one [`ApproxPolicy::Prefilter`] query: builds the candidate
/// mask in the scratch's [`PrefilterScratch`] (taken out for the
/// duration of `search`, which needs the rest of the scratch mutably), hands `search` the mask — or `None` for the unfiltered
/// exact path — and attaches the verdict to an answer that is not
/// already a committed partial one.
pub(crate) fn run_prefiltered(
    mh: Option<&MinHashIndex>,
    partitioning: &Partitioning,
    query: &[TokenId],
    (bands, rows): (u32, u32),
    scratch: &mut QueryScratch,
    search: impl FnOnce(Option<&FilterCandidates>, &mut QueryScratch) -> SearchOutcome,
) -> SearchOutcome {
    let mut pre = std::mem::take(&mut scratch.prefilter);
    let cand = prefilter_candidates(mh, partitioning, query, bands, rows, &mut pre);
    let out = search(cand, scratch).map(|(result, info)| match cand.and(mh) {
        Some(mh) if !info.approx => {
            let info = prefilter_info(mh, &result.hits, bands, rows);
            (result, info)
        }
        _ => (result, info),
    });
    scratch.prefilter = pre;
    out
}

/// The anytime tier's recall estimate: the fraction of the candidate
/// groups a query either verified or provably pruned before it was
/// interrupted. Verified groups contribute their hits exactly; pruned
/// groups are *known* to hold nothing better than the partial k-th, so
/// both count as covered.
pub(crate) fn coverage(stats: &crate::stats::SearchStats, n_groups: usize) -> f64 {
    if n_groups == 0 {
        // Only a query stopped before verification gets here.
        return 0.0;
    }
    ((stats.groups_verified + stats.groups_pruned) as f64 / n_groups as f64).clamp(0.0, 1.0)
}

/// The MinHash of `set` under one row seed: the minimum row hash over
/// its tokens. The empty set keeps the `u64::MAX` sentinel.
fn min_hash(seed: u64, set: &[TokenId]) -> u64 {
    set.iter()
        .map(|&t| splitmix64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .min()
        .unwrap_or(u64::MAX)
}

/// Compares the 64 lanes of one signature column with `q`: bit `lane`
/// of the result is set iff `col[lane] == q`. Eight lanes at a time into
/// a byte, which the compiler turns into vector compares plus a
/// move-mask.
#[inline]
fn eq_mask(col: &[u64], q: u64) -> u64 {
    let mut mask = 0u64;
    for (i, lanes) in col.chunks_exact(8).enumerate() {
        let mut byte = 0u8;
        for (lane, &v) in lanes.iter().enumerate() {
            byte |= u8::from(v == q) << lane;
        }
        mask |= u64::from(byte) << (i * 8);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use les3_bitmap::Bitmap;
    use les3_data::SetDatabase;
    use proptest::prelude::*;

    /// Folds the first `rows` values of a band's signature slice into one
    /// comparable key. `rows == 0` folds nothing: every key is the band
    /// salt, so everything collides (the saturated filter).
    fn band_key(band_sig: &[u64], rows: usize, band: usize) -> u64 {
        let mut acc = band as u64;
        for &v in &band_sig[..rows] {
            acc = splitmix64(acc ^ v);
        }
        acc
    }

    impl MinHashIndex {
        /// Set `id`'s signature row, gathered out of its block.
        fn signature(&self, id: SetId) -> Vec<u64> {
            let slot = self.slot(id as usize);
            (0..self.width())
                .map(|col| self.sigs[slot + col * LANES])
                .collect()
        }

        /// The oracle: the per-set, per-band key-fold scan the block
        /// kernel replaced, as it stood (over gathered rows). The kernel
        /// compares a band's rows directly instead of folding them; for
        /// one row the fold is a bijection, for more the two can differ
        /// only when the 64-bit fold itself collides.
        fn candidates_oracle(&self, query: &[TokenId], bands: u32, rows: u32) -> Vec<SetId> {
            let (bands, rows) = self.effective(bands, rows);
            let built_rows = self.params.rows as usize;
            let qsig: Vec<u64> = self.row_seeds.iter().map(|&s| min_hash(s, query)).collect();
            let qkeys: Vec<u64> = (0..bands as usize)
                .map(|b| band_key(&qsig[b * built_rows..], rows as usize, b))
                .collect();
            let mut out = Vec::new();
            for id in 0..self.n_sets {
                let row = self.signature(id as SetId);
                let hit = (0..bands as usize)
                    .any(|b| band_key(&row[b * built_rows..], rows as usize, b) == qkeys[b]);
                if hit {
                    out.push(id as SetId);
                }
            }
            out
        }
    }

    fn to_vecs(sets: &[std::collections::BTreeSet<u32>]) -> Vec<Vec<u32>> {
        sets.iter().map(|s| s.iter().copied().collect()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Block kernel ≡ oracle on every query shape, incremental ≡ bulk
        /// across block boundaries, and the mask scanned into a (reused)
        /// scratch ≡ the mask built from the id list.
        #[test]
        fn block_kernel_matches_the_per_set_oracle(
            n_sets in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(200)],
            sets in prop::collection::vec(prop::collection::btree_set(0u32..24, 0..5), 200),
            queries in prop::collection::vec(prop::collection::btree_set(0u32..24, 0..5), 3),
            built in (1u32..=3, 1u32..=3),
            seed in any::<u64>(),
            n_bulk in 0usize..=200,
            n_groups in 1usize..=9,
        ) {
            let sets = to_vecs(&sets[..n_sets]);
            let mut queries = to_vecs(&queries);
            queries.push(Vec::new());
            let params = ApproxParams { bands: built.0, rows: built.1, seed };
            let mh = MinHashIndex::build(&SetDatabase::from_sets(sets.clone()), params);
            prop_assert_eq!(mh.sigs.len(), n_sets.div_ceil(LANES) * mh.width() * LANES);

            let n_bulk = n_bulk.min(n_sets);
            let mut inc =
                MinHashIndex::build(&SetDatabase::from_sets(sets[..n_bulk].to_vec()), params);
            for set in &sets[n_bulk..] {
                inc.push(set);
            }
            prop_assert_eq!(&inc, &mh);

            let part = Partitioning::from_assignment(
                (0..n_sets).map(|i| (splitmix64(seed ^ i as u64) % n_groups as u64) as u32).collect(),
                n_groups,
            );
            let mut scratch = PrefilterScratch::default();
            for query in &queries {
                for bands in 0..=built.0 + 1 {
                    for rows in 0..=built.1 + 1 {
                        let ids = mh.candidates(query, bands, rows);
                        prop_assert_eq!(&ids, &mh.candidates_oracle(query, bands, rows));

                        let got = prefilter_candidates(
                            Some(&mh), &part, query, bands, rows, &mut scratch,
                        ).is_some();
                        let saturated = rows == 0 || ids.len() >= n_sets;
                        prop_assert_eq!(got, !saturated);
                        if rows == 0 {
                            continue; // decided before the scan: scratch untouched
                        }
                        let want = FilterCandidates::build(&Bitmap::from_sorted(&ids), &part);
                        let cand = &scratch.cand;
                        prop_assert_eq!(cand.n_matching, want.n_matching);
                        prop_assert_eq!(&cand.groups, &want.groups);
                        for w in 0..n_sets.div_ceil(64) + 1 {
                            prop_assert_eq!(cand.sets.word(w), want.sets.word(w));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn missing_sidecar_and_zero_rows_skip_the_scan() {
        let db = tiny_db();
        let part = Partitioning::round_robin(db.len(), 2);
        let mh = MinHashIndex::build(&db, ApproxParams::default());
        let mut scratch = PrefilterScratch::default();
        assert!(prefilter_candidates(None, &part, &[0, 1], 0, 2, &mut scratch).is_none());
        assert!(prefilter_candidates(Some(&mh), &part, &[0, 1], 0, 0, &mut scratch).is_none());
        assert!(scratch.qsig.is_empty(), "no signature may be computed");
        assert!(
            prefilter_candidates(Some(&mh), &part, &[0, 1, 2, 3], 0, 2, &mut scratch).is_some()
        );
        assert!(!scratch.qsig.is_empty());
    }

    fn tiny_db() -> SetDatabase {
        SetDatabase::from_sets(vec![
            vec![0u32, 1, 2, 3],
            vec![0, 1, 2, 4],
            vec![10, 11, 12],
            vec![20, 21],
            vec![],
        ])
    }

    #[test]
    fn signatures_are_deterministic_and_order_insensitive() {
        let params = ApproxParams::default();
        let a = MinHashIndex::build(&tiny_db(), params);
        let b = MinHashIndex::build(&tiny_db(), params);
        assert_eq!(a, b);
        // Incremental push equals bulk build.
        let mut inc = MinHashIndex::new(params);
        for (_, set) in tiny_db().iter() {
            inc.push(set);
        }
        assert_eq!(a, inc);
    }

    #[test]
    fn identical_sets_share_signatures_and_collide() {
        let db = SetDatabase::from_sets(vec![vec![5u32, 6, 7], vec![5, 6, 7]]);
        let mh = MinHashIndex::build(&db, ApproxParams::default());
        assert_eq!(mh.signature(0), mh.signature(1));
        let cands = mh.candidates(&[5, 6, 7], 0, u32::MAX);
        assert_eq!(cands, vec![0, 1], "an exact duplicate always collides");
    }

    #[test]
    fn zero_rows_saturates_to_every_set() {
        let db = tiny_db();
        let mh = MinHashIndex::build(&db, ApproxParams::default());
        let cands = mh.candidates(&[999], 0, 0);
        assert_eq!(cands.len(), db.len(), "rows = 0 must match every set");
    }

    #[test]
    fn effective_clamps_to_built_shape() {
        let mh = MinHashIndex::new(ApproxParams {
            bands: 8,
            rows: 2,
            seed: 1,
        });
        assert_eq!(mh.effective(0, u32::MAX), (8, 2));
        assert_eq!(mh.effective(3, 1), (3, 1));
        assert_eq!(mh.effective(100, 0), (8, 0));
    }

    #[test]
    fn inclusion_probability_matches_the_banding_formula() {
        let p = MinHashIndex::inclusion_prob(0.5, 4, 2);
        let expected = 1.0 - (1.0 - 0.5f64.powi(2)).powi(4);
        assert!((p - expected).abs() < 1e-12);
        assert_eq!(MinHashIndex::inclusion_prob(0.3, 4, 0), 1.0);
        assert_eq!(MinHashIndex::inclusion_prob(1.0, 1, 1), 1.0);
        assert_eq!(MinHashIndex::inclusion_prob(0.0, 9, 3), 0.0);
    }
}
