//! Set similarity measures and the TGM applicability property (§3.2).
//!
//! Theorem 3.1: the TGM can prune for any measure `Sim` such that, with
//! `R = Q ∩ S`,
//!
//! 1. `Sim(Q, R) ≥ Sim(Q, S)`, and
//! 2. `Sim(Q, R) ≥ Sim(Q, R′)` for every `R′ ⊂ R`.
//!
//! Under these conditions `Sim(Q, R)` — a function of `|Q|` and
//! `r = |Q ∩ GS_g|` only — upper-bounds the similarity between `Q` and any
//! set in group `g`. Each measure here implements that bound in
//! [`Similarity::ub_from_overlap`]; a property test in this module verifies
//! admissibility against random sets.

use les3_bitmap::DenseBitSet;
use les3_data::TokenId;

/// A set similarity measure usable with the TGM.
///
/// Implementations must satisfy the TGM applicability property; the
/// crate's tests check this empirically for all provided measures.
#[allow(clippy::wrong_self_convention)] // `from_overlap` converts data, not Self
pub trait Similarity: Copy + Send + Sync + 'static {
    /// Human-readable name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Similarity from the overlap and both set sizes.
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64;

    /// Theorem 3.1 upper bound: the largest similarity any set can have to
    /// a query of size `q_len` when their overlap is at most `r`.
    ///
    /// `Sim(Q, R)` with `|R| = r`, `R ⊆ Q`, computed as the measure's own
    /// `from_overlap(r, q_len, r)`: the very float a set `S = R` would
    /// score, so no member a range at that δ must return falls one
    /// rounding below its group's bound.
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        self.from_overlap(r, q_len, r)
    }

    /// Evaluates the measure on two sorted token slices.
    fn eval(&self, a: &[TokenId], b: &[TokenId]) -> f64 {
        let o = les3_data::SetDatabase::overlap(a, b);
        self.from_overlap(o, distinct_len(a), distinct_len(b))
    }

    /// Smallest overlap `o ∈ 0..=max_overlap` with
    /// `from_overlap(o, a_len, b_len) ≥ threshold`, or `max_overlap + 1`
    /// if even a full overlap falls short. Well-defined because every
    /// admissible measure is monotone non-decreasing in the overlap for
    /// fixed set sizes.
    fn min_overlap_for(&self, threshold: f64, a_len: usize, b_len: usize) -> usize {
        let max_o = a_len.min(b_len);
        if self.from_overlap(max_o, a_len, b_len) < threshold {
            return max_o + 1;
        }
        // Binary search the monotone predicate.
        let (mut lo, mut hi) = (0usize, max_o);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.from_overlap(mid, a_len, b_len) >= threshold {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Threshold-aware evaluation, the one per-candidate hook of the kNN
    /// and the range candidate loops: the exact similarity of `q` and `b`
    /// when it is `≥ threshold`, or the reason it cannot be. `b_len` is
    /// the distinct length of `b` and `needed` is
    /// `min_overlap_for(threshold, q.distinct_len(), b_len)`; both loops
    /// take them from the window's stored lengths and the query's cached
    /// minimal overlaps, outside the per-candidate work. For any `Hit` the
    /// value equals [`Similarity::eval`] bit for bit (the same
    /// `from_overlap` on the same counts), so verification stays exact;
    /// only sub-threshold candidates are cut short.
    ///
    /// Two kernels, one verdict. A multiset on either side, and every
    /// candidate of a query without a bitset (a range's), takes the
    /// merge, which keeps the residual-overlap bound `o + min(rem_Q,
    /// rem_S)` and abandons once it drops below `needed`. When both sides
    /// are duplicate-free and the query carries a bitset
    /// ([`QueryBits::prepare`]), the overlap is counted by looking each
    /// candidate token up in the bitset instead: independent loads, where
    /// each merge step waits on the previous step's cursor moves. The
    /// lookup kernel derives the merge's `early` flag from the final
    /// count `o`:
    ///
    /// * on duplicate-free inputs every merge step either matches (`o`,
    ///   `rem_Q` and `rem_S` each move by one: the bound stays) or
    ///   advances one side (the bound stays or falls by one), so the
    ///   bound never increases and the merge abandons iff the bound it
    ///   tests before its *last* step is below `needed`;
    /// * that last step consumes `x = min(max Q, max S)` — every smaller
    ///   token of both sides is consumed before it, and it exhausts one
    ///   side — so one side has one token left and the bound is
    ///   `o' + 1`, where `o' = |Q ∩ S ∩ [0, x)|`;
    /// * `Q ∩ S ⊆ [0, x]`, so `o' = o − [x ∈ Q ∩ S]`, and the merge
    ///   abandons iff `o < needed ∧ (x ∈ Q ∩ S ∨ o + 1 < needed)` — which
    ///   is how the kernel sets `early`. (With an empty side the merge
    ///   takes no step and `needed = 0`: never early, and neither is the
    ///   formula.)
    ///
    /// The scan may therefore stop as soon as `o + rem_S + 1 < needed`:
    /// the final count cannot reach `needed − 1` any more. Its verdict is
    /// the merge's, so every [`SearchStats`](crate::SearchStats) counter
    /// is too.
    ///
    /// Forced inline: as a call the kNN scan pays ~4 % of `lib_knn` for
    /// the out-pointer return and the spills around it.
    #[inline(always)]
    fn eval_prepared(
        &self,
        q: &PreparedQuery<'_>,
        b: &[TokenId],
        b_len: usize,
        needed: usize,
        threshold: f64,
    ) -> ThresholdedEval {
        match q.bits {
            Some(bits) if b_len == b.len() => {
                lookup_with_threshold(*self, q, bits, b, needed, threshold)
            }
            _ => merge_with_threshold(*self, q.tokens, b, q.len, b_len, needed, threshold),
        }
    }
}

/// The merge kernel: `a_len`/`b_len` are the distinct lengths of `a`/`b`
/// and `needed` is `min_overlap_for(threshold, a_len, b_len)`.
///
/// The merge intersection maintains the residual-overlap bound
/// `o + min(remaining_a, remaining_b)` and abandons as soon as the bound
/// drops below `needed` — an integer comparison per merge step, no
/// floating point in the loop. The duplicate-free fast path takes the
/// same steps as the multiset loop on such inputs (one cursor move per
/// side per step), so both test the bound on the identical `(i, j, o)`
/// sequence and return the identical verdict.
#[inline(always)]
fn merge_with_threshold<S: Similarity>(
    sim: S,
    a: &[TokenId],
    b: &[TokenId],
    a_len: usize,
    b_len: usize,
    needed: usize,
    threshold: f64,
) -> ThresholdedEval {
    if needed > a_len.min(b_len) {
        // The length filter should normally have caught this.
        return ThresholdedEval::Rejected { early: true };
    }
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    if a_len == a.len() && b_len == b.len() {
        while i < a.len() && j < b.len() {
            if o + (a.len() - i).min(b.len() - j) < needed {
                return ThresholdedEval::Rejected { early: true };
            }
            let (x, y) = (a[i], b[j]);
            o += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
    } else {
        // Remaining raw lengths upper-bound the remaining distinct
        // overlap (duplicates only loosen the bound, never tighten it).
        while i < a.len() && j < b.len() {
            if o + (a.len() - i).min(b.len() - j) < needed {
                return ThresholdedEval::Rejected { early: true };
            }
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    o += 1;
                    let t = a[i];
                    while i < a.len() && a[i] == t {
                        i += 1;
                    }
                    while j < b.len() && b[j] == t {
                        j += 1;
                    }
                }
            }
        }
    }
    let sim = sim.from_overlap(o, a_len, b_len);
    if sim >= threshold {
        ThresholdedEval::Hit(sim)
    } else {
        ThresholdedEval::Rejected { early: false }
    }
}

/// The lookup kernel of [`Similarity::eval_prepared`]: `q` and `b` are
/// both duplicate-free and `bits` is `q`'s membership bitset. The
/// verdict is the merge's; the proof is on the trait method.
#[inline(always)]
fn lookup_with_threshold<S: Similarity>(
    sim: S,
    q: &PreparedQuery<'_>,
    bits: &DenseBitSet,
    b: &[TokenId],
    needed: usize,
    threshold: f64,
) -> ThresholdedEval {
    let (a_len, b_len) = (q.len, b.len());
    if needed > a_len.min(b_len) {
        return ThresholdedEval::Rejected { early: true };
    }
    // Tokens past the bitset lie at or above the universe: no match.
    let member = |t: TokenId| ((bits.word((t >> 6) as usize) >> (t & 63)) & 1) as usize;
    // Misses past `slack` leave `o + rem_S + 1 < needed`: settled early.
    let slack = b_len + 1 - needed;
    let mut o = 0usize;
    for (j, &t) in b.iter().enumerate() {
        o += member(t);
        if j + 1 - o > slack {
            return ThresholdedEval::Rejected { early: true };
        }
    }
    // Whether the merge's last step — on `min(max Q, max S)` — matched.
    // Asked only when `o + 1 == needed`, so both sides are non-empty.
    let last_matched = || {
        let (q_max, s_max) = (q.tokens[a_len - 1], b[b_len - 1]);
        if s_max <= q_max {
            member(s_max) == 1
        } else {
            b.binary_search(&q_max).is_ok()
        }
    };
    if o + 1 < needed || (o < needed && last_matched()) {
        return ThresholdedEval::Rejected { early: true };
    }
    let sim = sim.from_overlap(o, a_len, b_len);
    if sim >= threshold {
        ThresholdedEval::Hit(sim)
    } else {
        ThresholdedEval::Rejected { early: false }
    }
}

/// The 64-bit token signature of a set: bit `t·φ >> 26` (the top six
/// bits of a multiplicative hash) for each of its tokens. Duplicates set
/// the same bit, so a multiset and its distinct tokens share a signature.
/// Exposed for the bound's soundness property test
/// (`tests/hotpath_equivalence.rs`); not public API.
#[doc(hidden)]
pub fn token_signature(tokens: &[TokenId]) -> u64 {
    tokens
        .iter()
        .fold(0, |sig, &t| sig | 1 << (t.wrapping_mul(0x9e37_79b9) >> 26))
}

/// A query prepared once for the kNN candidate loop
/// ([`Similarity::eval_prepared`]): its sorted tokens, its distinct
/// length, its [`token_signature`] and — when it is duplicate-free and
/// was loaded by [`QueryBits::prepare`] — the membership bitset of its
/// tokens.
#[derive(Debug, Clone, Copy)]
pub struct PreparedQuery<'a> {
    tokens: &'a [TokenId],
    len: usize,
    sig: u64,
    /// Bit `t` is set iff `t ∈ Q`, for every `t` below the universe the
    /// bits were loaded for; `None` sends every candidate to the merge.
    bits: Option<&'a DenseBitSet>,
}

impl<'a> PreparedQuery<'a> {
    /// The sorted `query` without a bitset: every candidate takes the
    /// merge.
    pub fn without_bits(query: &'a [TokenId]) -> Self {
        Self {
            tokens: query,
            len: distinct_len(query),
            sig: token_signature(query),
            bits: None,
        }
    }

    /// An upper bound on `|Q ∩ S|` for a set `S` of distinct length
    /// `s_len` and signature `s_sig`: `⌊(|Q| + |S| − popcount(sig_Q ⊕
    /// s_sig)) / 2⌋`. A bit set on one side only was set by a token of
    /// that side the other lacks, and distinct bits come from distinct
    /// tokens, so the popcount is at most `|Q Δ S| = |Q| + |S| − 2|Q ∩
    /// S|`. Tokens of either side past the universe only add to `Q Δ S`.
    /// Exposed for the bound's soundness property test
    /// (`tests/hotpath_equivalence.rs`); not public API.
    #[doc(hidden)]
    #[inline]
    pub fn overlap_bound(&self, s_len: usize, s_sig: u64) -> usize {
        (self.len + s_len - (self.sig ^ s_sig).count_ones() as usize) / 2
    }

    /// The query's [`token_signature`].
    #[inline]
    pub(crate) fn sig(&self) -> u64 {
        self.sig
    }

    /// The sorted query tokens.
    pub fn tokens(&self) -> &'a [TokenId] {
        self.tokens
    }

    /// The number of distinct query tokens, `|Q|`.
    pub fn distinct_len(&self) -> usize {
        self.len
    }
}

/// The reusable membership bitset behind a [`PreparedQuery`]: one per
/// [`QueryScratch`](crate::QueryScratch), a [`DenseBitSet`] of at most
/// `⌈universe / 64⌉` words for the largest universe it has served.
#[derive(Debug, Clone, Default)]
pub struct QueryBits {
    pub(crate) set: DenseBitSet,
}

impl QueryBits {
    /// An empty bitset (it grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the sorted `query` against a database whose tokens all
    /// lie below `universe`. A duplicate-free query is loaded into the
    /// bitset — its tokens at or above `universe` can match no stored
    /// token and are left out; a multiset query gets no bitset. The words
    /// the previous load set are cleared first, so a query a panic or an
    /// interrupt abandoned leaves nothing behind.
    pub fn prepare<'a>(&'a mut self, query: &'a [TokenId], universe: u32) -> PreparedQuery<'a> {
        self.set.reset(universe as usize);
        let mut prepared = PreparedQuery::without_bits(query);
        if prepared.len != query.len() {
            return prepared;
        }
        for &t in query.iter().take_while(|&&t| t < universe) {
            self.set.insert(t);
        }
        prepared.bits = Some(&self.set);
        prepared
    }
}

/// Outcome of [`Similarity::eval_prepared`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdedEval {
    /// Similarity is `≥ threshold`; the exact value.
    Hit(f64),
    /// Similarity is `< threshold`. `early` is `true` when the merge was
    /// abandoned before completing (the residual bound ruled the pair
    /// out), `false` when the full intersection was computed.
    Rejected {
        /// Whether the merge terminated before scanning both sets.
        early: bool,
    },
}

/// Returns `query` in the sorted order every kernel in this crate
/// assumes, borrowing when it already is sorted — the common case, one
/// `O(|Q|)` scan and no allocation. An unsorted query is copied and
/// sorted; duplicates are kept either way (multiset semantics — the
/// filter kernels and [`distinct_len`] skip adjacent repeats).
///
/// Every public query entry point (engine, disk, batch and serving
/// front) routes through this, so callers may pass tokens in any
/// order and still get exact results.
pub fn normalize_query(query: &[TokenId]) -> std::borrow::Cow<'_, [TokenId]> {
    if query.windows(2).all(|w| w[0] <= w[1]) {
        std::borrow::Cow::Borrowed(query)
    } else {
        let mut v = query.to_vec();
        v.sort_unstable();
        std::borrow::Cow::Owned(v)
    }
}

/// Number of distinct tokens in a sorted slice (multisets store dups).
#[inline]
pub fn distinct_len(a: &[TokenId]) -> usize {
    let mut n = 0;
    let mut prev: Option<TokenId> = None;
    for &t in a {
        if prev != Some(t) {
            n += 1;
            prev = Some(t);
        }
    }
    n
}

/// The distinct tokens of a sorted slice: multiset duplicates count once.
pub(crate) fn distinct(set: &[TokenId]) -> impl Iterator<Item = TokenId> + '_ {
    let mut prev = None;
    set.iter()
        .copied()
        .filter(move |&t| prev.replace(t) != Some(t))
}

/// Jaccard similarity `|A∩B| / |A∪B|` — the paper's primary measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Similarity for Jaccard {
    fn name(&self) -> &'static str {
        "jaccard"
    }

    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        let union = a_len + b_len - overlap;
        if union == 0 {
            return 1.0; // both empty
        }
        overlap as f64 / union as f64
    }
}

/// Dice coefficient `2|A∩B| / (|A| + |B|)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dice;

impl Similarity for Dice {
    fn name(&self) -> &'static str {
        "dice"
    }

    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        if a_len + b_len == 0 {
            return 1.0;
        }
        2.0 * overlap as f64 / (a_len + b_len) as f64
    }
}

/// Cosine similarity `|A∩B| / sqrt(|A|·|B|)`. Does not obey the triangle
/// inequality, yet satisfies the TGM applicability property — the paper's
/// §3.2 example: `Q = {t1,t2,t3}`, `R = {t1,t2}` gives bound
/// `2/√6 ≈ 0.82`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cosine;

impl Similarity for Cosine {
    fn name(&self) -> &'static str {
        "cosine"
    }

    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        if a_len == 0 || b_len == 0 {
            return if a_len == b_len { 1.0 } else { 0.0 };
        }
        overlap as f64 / ((a_len * b_len) as f64).sqrt()
    }
}

/// Overlap (Szymkiewicz–Simpson) coefficient `|A∩B| / min(|A|, |B|)`.
///
/// Its TGM bound is weak — any shared token makes the bound 1.0 because a
/// singleton subset `S = {t} ⊆ R` reaches the maximum — but it remains
/// *admissible*, so search stays exact (just with less pruning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapCoefficient;

impl Similarity for OverlapCoefficient {
    fn name(&self) -> &'static str {
        "overlap-coefficient"
    }

    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        let denom = a_len.min(b_len);
        if denom == 0 {
            return 1.0;
        }
        overlap as f64 / denom as f64
    }

    fn ub_from_overlap(&self, _q_len: usize, r: usize) -> f64 {
        if r == 0 {
            0.0
        } else {
            1.0
        }
    }
}

/// The per-candidate evaluation as it stood before the prepare/merge
/// split (one loop, both distinct lengths and `needed` derived per call)
/// — the oracle both kernels and both candidate loops must reproduce:
/// `Hit` bits and the `early` flag.
#[cfg(test)]
pub(crate) fn reference_eval_with_threshold<M: Similarity>(
    m: M,
    a: &[TokenId],
    b: &[TokenId],
    threshold: f64,
) -> ThresholdedEval {
    let a_len = distinct_len(a);
    let b_len = distinct_len(b);
    let needed = m.min_overlap_for(threshold, a_len, b_len);
    if needed > a_len.min(b_len) {
        return ThresholdedEval::Rejected { early: true };
    }
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        if o + (a.len() - i).min(b.len() - j) < needed {
            return ThresholdedEval::Rejected { early: true };
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                o += 1;
                let t = a[i];
                while i < a.len() && a[i] == t {
                    i += 1;
                }
                while j < b.len() && b[j] == t {
                    j += 1;
                }
            }
        }
    }
    let sim = m.from_overlap(o, a_len, b_len);
    if sim >= threshold {
        ThresholdedEval::Hit(sim)
    } else {
        ThresholdedEval::Rejected { early: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jaccard_basics() {
        assert_eq!(Jaccard.eval(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(Jaccard.eval(&[1, 2], &[3, 4]), 0.0);
        assert!((Jaccard.eval(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(Jaccard.eval(&[], &[]), 1.0);
        assert_eq!(Jaccard.eval(&[], &[1]), 0.0);
    }

    #[test]
    fn cosine_matches_paper_example() {
        // Q = {t1,t2,t3}, overlap 2 → bound 2/sqrt(3*2) ≈ 0.8165.
        let ub = Cosine.ub_from_overlap(3, 2);
        assert!((ub - 2.0 / 6.0_f64.sqrt()).abs() < 1e-12, "ub {ub}");
        // And the Jaccard bound for the same example is 2/3 (paper §3.2).
        assert!((Jaccard.ub_from_overlap(3, 2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dice_and_overlap_basics() {
        assert!((Dice.eval(&[1, 2, 3], &[2, 3, 4]) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(OverlapCoefficient.eval(&[1, 2], &[1, 2, 3, 4]), 1.0);
        assert_eq!(OverlapCoefficient.ub_from_overlap(5, 0), 0.0);
        assert_eq!(OverlapCoefficient.ub_from_overlap(5, 1), 1.0);
    }

    #[test]
    fn multiset_duplicates_count_once_in_eval() {
        // {1,1,2} vs {1,2}: distinct lens 2 and 2, overlap 2 → J = 1.
        assert_eq!(Jaccard.eval(&[1, 1, 2], &[1, 2]), 1.0);
        assert_eq!(distinct_len(&[1, 1, 2, 2, 2, 9]), 3);
        assert_eq!(distinct_len(&[]), 0);
    }

    /// Admissibility (Theorem 3.1): for every query Q and set S, the bound
    /// computed from `r = |Q ∩ S|` must dominate the true similarity —
    /// and more generally from any r' ≥ |Q ∩ S| (the TGM may overcount
    /// because GS_g is a union over the group).
    fn check_admissible<M: Similarity>(m: M, q: &[TokenId], s: &[TokenId]) {
        let o = les3_data::SetDatabase::overlap(q, s);
        let true_sim = m.eval(q, s);
        let q_len = distinct_len(q);
        for r in o..=q_len {
            let ub = m.ub_from_overlap(q_len, r);
            assert!(
                ub >= true_sim - 1e-12,
                "{}: ub({q_len},{r})={ub} < sim={true_sim} for q={q:?} s={s:?}",
                m.name()
            );
        }
    }

    /// The hook on a query without a bitset, as a range calls it: the
    /// merge, with `b`'s distinct length and the minimal overlap.
    fn eval_without_bits<M: Similarity>(
        m: M,
        q: &[TokenId],
        b: &[TokenId],
        t: f64,
    ) -> ThresholdedEval {
        let b_len = distinct_len(b);
        let needed = m.min_overlap_for(t, distinct_len(q), b_len);
        m.eval_prepared(&PreparedQuery::without_bits(q), b, b_len, needed, t)
    }

    /// The same verdict: `Hit` bits, or the `early` flag.
    fn assert_same_verdict<M: Similarity>(
        got: ThresholdedEval,
        want: ThresholdedEval,
        m: M,
        t: f64,
        q: &[TokenId],
        s: &[TokenId],
    ) {
        match (got, want) {
            (ThresholdedEval::Hit(g), ThresholdedEval::Hit(w)) => {
                assert_eq!(g.to_bits(), w.to_bits(), "{} t={t}", m.name())
            }
            _ => assert_eq!(got, want, "{} t={t} q={q:?} s={s:?}", m.name()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bounds_are_admissible(
            q in prop::collection::btree_set(0u32..60, 1..15),
            s in prop::collection::btree_set(0u32..60, 1..15),
        ) {
            let q: Vec<u32> = q.into_iter().collect();
            let s: Vec<u32> = s.into_iter().collect();
            check_admissible(Jaccard, &q, &s);
            check_admissible(Dice, &q, &s);
            check_admissible(Cosine, &q, &s);
            check_admissible(OverlapCoefficient, &q, &s);
        }

        #[test]
        fn thresholded_eval_agrees_with_full_eval(
            q in prop::collection::vec(0u32..40, 0..18),
            s in prop::collection::vec(0u32..40, 0..18),
            threshold in -0.1f64..1.1,
        ) {
            let mut q = q; q.sort_unstable();
            let mut s = s; s.sort_unstable();
            fn check<M: Similarity>(m: M, q: &[u32], s: &[u32], t: f64) {
                let exact = m.eval(q, s);
                match eval_without_bits(m, q, s, t) {
                    ThresholdedEval::Hit(v) => {
                        assert!(v >= t, "{}: hit {v} below threshold {t}", m.name());
                        assert_eq!(v, exact, "{}: hit value must equal eval", m.name());
                    }
                    ThresholdedEval::Rejected { .. } => {
                        assert!(exact < t, "{}: rejected but eval {exact} ≥ {t}", m.name());
                    }
                }
            }
            check(Jaccard, &q, &s, threshold);
            check(Dice, &q, &s, threshold);
            check(Cosine, &q, &s, threshold);
            check(OverlapCoefficient, &q, &s, threshold);
            // −∞ threshold (kNN heap not yet full) must always hit.
            assert!(matches!(
                eval_without_bits(Jaccard, &q, &s, f64::NEG_INFINITY),
                ThresholdedEval::Hit(_)
            ));
        }

        #[test]
        fn prepared_merge_equals_reference_eval(
            q in prop::collection::vec(0u32..24, 0..14),
            s in prop::collection::vec(0u32..24, 0..14),
            dedup in 0usize..4,
            t_kind in 0usize..8,
            t_frac in 0.0f64..1.0,
        ) {
            // Sorted multisets with duplicates on neither, either or both
            // sides (the duplicate-free fast path needs both deduplicated).
            let (mut q, mut s) = (q, s);
            q.sort_unstable();
            s.sort_unstable();
            if dedup & 1 == 1 { q.dedup(); }
            if dedup & 2 == 2 { s.dedup(); }
            fn check<M: Similarity>(m: M, q: &[u32], s: &[u32], t_kind: usize, t_frac: f64) {
                let t = match t_kind {
                    0 => f64::NEG_INFINITY,
                    1 => -0.5,
                    2 => 1.0,
                    3 => 1.5,
                    4 => f64::NAN,
                    // The pair's own similarity: the `sim >= t` boundary.
                    5 => m.eval(q, s),
                    _ => t_frac,
                };
                let (a_len, b_len) = (distinct_len(q), distinct_len(s));
                let needed = m.min_overlap_for(t, a_len, b_len);
                let got = merge_with_threshold(m, q, s, a_len, b_len, needed, t);
                assert_same_verdict(got, reference_eval_with_threshold(m, q, s, t), m, t, q, s);
                assert_eq!(eval_without_bits(m, q, s, t), got, "prepare + merge");
                // A query prepared with a bitset sends multisets to the
                // merge and the rest to the lookup kernel: same verdict.
                let mut bits = QueryBits::new();
                let universe = s.iter().chain(q).max().map_or(0, |&t| t + 1);
                let prepared = bits.prepare(q, universe);
                assert_eq!(prepared.bits.is_some(), a_len == q.len());
                assert_same_verdict(m.eval_prepared(&prepared, s, b_len, needed, t), got, m, t, q, s);
            }
            check(Jaccard, &q, &s, t_kind, t_frac);
            check(Dice, &q, &s, t_kind, t_frac);
            check(Cosine, &q, &s, t_kind, t_frac);
            check(OverlapCoefficient, &q, &s, t_kind, t_frac);
        }

        /// The lookup kernel against the pre-split merge, on the inputs
        /// it serves: duplicate-free sorted pairs — empty sets,
        /// singletons, a query holding `u32::MAX` and other tokens at or
        /// above the universe, candidate tokens anywhere below it
        /// (including its last bit-word) — at every threshold kind. One
        /// bitset serves two queries in turn and must answer as a fresh
        /// one does: the first query's bits never leak into the second.
        #[test]
        fn lookup_kernel_equals_reference_eval(
            q1 in prop::collection::btree_set(0u32..150, 0..14),
            q2 in prop::collection::btree_set(0u32..150, 0..14),
            s in prop::collection::btree_set(0u32..130, 0..20),
            spare in 0u32..70,
            with_max in 0usize..4,
            t_kind in 0usize..9,
            t_frac in 0.0f64..1.0,
        ) {
            let s: Vec<u32> = s.into_iter().collect();
            // Candidates live below the universe; queries reach past it.
            let universe = s.last().map_or(0, |&t| t + 1) + spare;
            let (mut q1, mut q2): (Vec<u32>, Vec<u32>) =
                (q1.into_iter().collect(), q2.into_iter().collect());
            if with_max & 1 == 1 { q1.push(u32::MAX); }
            if with_max & 2 == 2 { q2.push(u32::MAX); }
            fn check<M: Similarity>(m: M, queries: [&[u32]; 2], s: &[u32], universe: u32, t_kind: usize, t_frac: f64) {
                let mut reused = QueryBits::new();
                for q in queries {
                    let t = match t_kind {
                        0 => f64::NEG_INFINITY,
                        1 => -0.5,
                        2 => 0.0,
                        3 => 1.0,
                        4 => 1.5,
                        5 => f64::NAN,
                        6 => m.eval(q, s),
                        _ => t_frac,
                    };
                    let needed = m.min_overlap_for(t, q.len(), s.len());
                    let want = reference_eval_with_threshold(m, q, s, t);
                    let mut fresh = QueryBits::new();
                    for bits in [&mut reused, &mut fresh] {
                        let prepared = bits.prepare(q, universe);
                        let words = prepared.bits.expect("a set query gets a bitset").n_words();
                        assert!(words <= (universe as usize).div_ceil(64), "{words} words");
                        let got = m.eval_prepared(&prepared, s, s.len(), needed, t);
                        assert_same_verdict(got, want, m, t, q, s);
                    }
                }
            }
            check(Jaccard, [&q1, &q2], &s, universe, t_kind, t_frac);
            check(Dice, [&q1, &q2], &s, universe, t_kind, t_frac);
            check(Cosine, [&q1, &q2], &s, universe, t_kind, t_frac);
            check(OverlapCoefficient, [&q1, &q2], &s, universe, t_kind, t_frac);
        }

        #[test]
        fn bounds_are_monotone_in_overlap(q_len in 1usize..40, r in 0usize..40) {
            let r = r.min(q_len);
            if r < q_len {
                prop_assert!(Jaccard.ub_from_overlap(q_len, r) <= Jaccard.ub_from_overlap(q_len, r + 1));
                prop_assert!(Dice.ub_from_overlap(q_len, r) <= Dice.ub_from_overlap(q_len, r + 1));
                prop_assert!(Cosine.ub_from_overlap(q_len, r) <= Cosine.ub_from_overlap(q_len, r + 1));
            }
            // Full overlap bound is exact similarity of Q with itself: 1.
            prop_assert!((Jaccard.ub_from_overlap(q_len, q_len) - 1.0).abs() < 1e-12);
        }
    }

    /// In floating point, with no tolerance: `ub(q, r)` is at least the
    /// similarity `from_overlap(o, q, o)` of every `S = R' ⊆ Q` with `|R'|
    /// = o ≤ r`, for every `0 ≤ o ≤ r ≤ q ≤ 300` — checked against the
    /// running maximum over `o`. `sqrt(r / q)`, Cosine's old bound, is
    /// one ulp short at `q = 3, r = o = 1`.
    #[test]
    fn bounds_cover_every_subset_of_the_query_exactly() {
        fn check<M: Similarity>(m: M) {
            for q in 0..=300 {
                let mut reached = f64::NEG_INFINITY;
                for r in 0..=q {
                    reached = reached.max(m.from_overlap(r, q, r));
                    let ub = m.ub_from_overlap(q, r);
                    assert!(
                        ub >= reached,
                        "{}: ub({q}, {r}) = {ub} < {reached}",
                        m.name()
                    );
                }
            }
        }
        check(Jaccard);
        check(Dice);
        check(Cosine);
        assert!((1.0f64 / 3.0).sqrt() < Cosine.from_overlap(1, 3, 1));
    }

    /// A Cosine range at exactly the similarity a member reaches returns
    /// it: `{1}` scores `1/√3` against `Q = {1, 2, 3}`, and its group's
    /// bound at `r = 1` must not fall one rounding below that.
    #[test]
    fn a_cosine_range_returns_the_set_on_its_delta() {
        let db = les3_data::SetDatabase::from_sets(vec![vec![1u32], vec![7, 8]]);
        let part = crate::Partitioning::from_assignment(vec![0, 1], 2);
        let index = crate::Les3Index::build(db, part, Cosine);
        let delta = Cosine.eval(&[1, 2, 3], &[1]);
        assert_eq!(index.range(&[1, 2, 3], delta).hits, [(0, delta)]);
    }
}
