//! Word-parallel counting kernels.
//!
//! The LES3 filter step accumulates, for every group, how many query
//! tokens its token signature contains (`r_g = |GS_g ∩ Q|`, paper §3.1).
//! Doing that through [`crate::BitmapIter`] costs an iterator call per set
//! bit; these kernels instead stream each container's 64-bit words and
//! decode them with `trailing_zeros`, fall through to direct slice adds
//! for sorted-array containers, and turn run containers into bulk
//! `counts[a..=b] += 1` range updates that the compiler vectorizes.
//!
//! Two kernels are exposed on [`crate::Bitmap`]:
//!
//! * [`Bitmap::count_into`] — `counts[v] += 1` for every member `v`;
//! * [`Bitmap::count_into_masked`] — the same, restricted to members also
//!   present in a [`DenseBitSet`] (a filtered query's restricted phase A
//!   intersects each token column against its candidate groups this way).
//!
//! Both return the number of members visited so callers can account the
//! true filter cost (`Σ_{t∈Q} |groups(t)|`) instead of a dense-matrix
//! estimate. [`Bitmap::visit_words`] exposes the underlying word stream
//! for callers that need a custom word-level scan.

use crate::container::Container;
use crate::run::Run;
use crate::Bitmap;

/// A flat, fixed-capacity bitset over `0..capacity`.
///
/// Used as the reusable "candidate groups" mask: group ids are small dense
/// integers, so a word array beats a compressed bitmap for the restricted
/// overlap pass, and clearing touches only the words that were set.
#[derive(Debug, Clone, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    /// Words that have been written since the last clear (each index at
    /// most once; bounded by capacity / 64).
    touched: Vec<u32>,
    /// Whether `touched` is known to be out of order (set by an
    /// out-of-order insert, cleared by `reset`/`sort_touched`) — lets the
    /// sparse kernel reject a mask whose sort step was forgotten instead
    /// of silently undercounting.
    unsorted: bool,
}

impl DenseBitSet {
    /// Creates an empty set with zero capacity (grows on demand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures values `0..capacity` can be stored, then clears the set.
    pub fn reset(&mut self, capacity: usize) {
        let need = capacity.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
        self.unsorted = false;
    }

    /// Inserts `v`. Caller guarantees `v` is within the reset capacity.
    #[inline]
    pub fn insert(&mut self, v: u32) {
        self.insert_word((v >> 6) as usize, 1u64 << (v & 63));
    }

    /// Inserts 64 values at once: every set bit `b` of `bits` adds value
    /// `64·w + b`. Caller guarantees they are within the reset capacity.
    /// A producer that already has its members as mask words fills the
    /// set this way; done in increasing `w` after a `reset`, the
    /// touched-word list comes out sorted with no `sort_touched` pass.
    #[inline]
    pub fn insert_word(&mut self, w: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        if self.words[w] == 0 {
            if self.touched.last().is_some_and(|&last| last > w as u32) {
                self.unsorted = true;
            }
            self.touched.push(w as u32);
        }
        self.words[w] |= bits;
    }

    /// Membership test (`false` for values beyond capacity).
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.words
            .get((v >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (v & 63)) != 0)
    }

    /// The word at index `i` (zero beyond capacity).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Sorts the touched-word list so [`DenseBitSet::touched_words`]
    /// yields word indices in increasing order. Call once after the last
    /// `insert` and before any `count_into_masked_sparse` pass; inserts
    /// record touched words in arrival order, and the sparse kernel's
    /// two-pointer walk needs them sorted.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
        self.unsorted = false;
    }

    /// Whether the touched-word list is in increasing order (the sparse
    /// kernel's precondition; false only if an out-of-order insert has
    /// happened since the last `reset`/`sort_touched`).
    pub fn touched_is_sorted(&self) -> bool {
        !self.unsorted
    }

    /// Indices of the 64-bit words that contain at least one member, in
    /// insertion order (sorted after [`DenseBitSet::sort_touched`]). Each
    /// index appears at most once.
    pub fn touched_words(&self) -> &[u32] {
        &self.touched
    }

    /// Number of 64-bit words containing at least one member — the unit
    /// the sparse masked kernel's cost scales with.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }
}

/// Decodes one 64-bit word: `counts[base + bit] += 1` for every set bit.
#[inline]
fn count_word(counts: &mut [u32], base: u32, mut word: u64) -> u64 {
    let n = word.count_ones() as u64;
    while word != 0 {
        let bit = word.trailing_zeros();
        counts[(base + bit) as usize] += 1;
        word &= word - 1;
    }
    n
}

impl Bitmap {
    /// Streams every non-zero 64-bit word of the bitmap as
    /// `(base_value, word)`: bit `i` of `word` set means value
    /// `base_value + i` is a member. `base_value` is always a multiple
    /// of 64 and strictly increases across calls.
    pub fn visit_words(&self, mut f: impl FnMut(u32, u64)) {
        for (high, container) in &self.chunks {
            let chunk_base = (*high as u32) << 16;
            match container {
                Container::Bits(bits) => {
                    for (i, &w) in bits.words().iter().enumerate() {
                        if w != 0 {
                            f(chunk_base + ((i as u32) << 6), w);
                        }
                    }
                }
                Container::Array(array) => {
                    let mut it = array.as_slice().iter().peekable();
                    while let Some(&&first) = it.peek() {
                        let word_base = first & !63;
                        let mut word = 0u64;
                        while let Some(&&v) = it.peek() {
                            if v & !63 != word_base {
                                break;
                            }
                            word |= 1u64 << (v & 63);
                            it.next();
                        }
                        f(chunk_base + word_base as u32, word);
                    }
                }
                Container::Runs(runs) => {
                    visit_run_words(runs.runs(), |word_base, word| {
                        f(chunk_base + word_base, word)
                    });
                }
            }
        }
    }

    /// Adds 1 to `counts[v]` for every member `v`; returns the number of
    /// members visited.
    ///
    /// # Panics
    ///
    /// Panics if any member is `>= counts.len()`.
    pub fn count_into(&self, counts: &mut [u32]) -> u64 {
        let mut visited = 0u64;
        for (high, container) in &self.chunks {
            let chunk_base = (*high as u32) << 16;
            match container {
                Container::Bits(bits) => {
                    for (i, &w) in bits.words().iter().enumerate() {
                        if w != 0 {
                            visited += count_word(counts, chunk_base + ((i as u32) << 6), w);
                        }
                    }
                }
                Container::Array(array) => {
                    for &v in array.as_slice() {
                        counts[(chunk_base + v as u32) as usize] += 1;
                    }
                    visited += array.len() as u64;
                }
                Container::Runs(runs) => {
                    for run in runs.runs() {
                        let lo = (chunk_base + run.start as u32) as usize;
                        let hi = (chunk_base + run.end() as u32) as usize;
                        for c in &mut counts[lo..=hi] {
                            *c += 1;
                        }
                        visited += run.len() as u64;
                    }
                }
            }
        }
        visited
    }

    /// Adds 1 to `counts[v]` for every member `v` that is also in `mask`;
    /// returns the number of members of the intersection.
    ///
    /// The mask must have been [`DenseBitSet::reset`] with a capacity of at
    /// least `counts.len()`; members `>= counts.len()` must not be present
    /// in the mask (they are skipped without panicking).
    pub fn count_into_masked(&self, mask: &DenseBitSet, counts: &mut [u32]) -> u64 {
        let mut visited = 0u64;
        for (high, container) in &self.chunks {
            let chunk_base = (*high as u32) << 16;
            match container {
                Container::Bits(bits) => {
                    let word_off = (chunk_base >> 6) as usize;
                    for (i, &w) in bits.words().iter().enumerate() {
                        if w != 0 {
                            let masked = w & mask.word(word_off + i);
                            if masked != 0 {
                                visited +=
                                    count_word(counts, chunk_base + ((i as u32) << 6), masked);
                            }
                        }
                    }
                }
                Container::Array(array) => {
                    for &v in array.as_slice() {
                        let abs = chunk_base + v as u32;
                        if mask.contains(abs) {
                            counts[abs as usize] += 1;
                            visited += 1;
                        }
                    }
                }
                Container::Runs(runs) => {
                    visit_run_words(runs.runs(), |word_base, word| {
                        let abs_base = chunk_base + word_base;
                        let masked = word & mask.word((abs_base >> 6) as usize);
                        if masked != 0 {
                            visited += count_word(counts, abs_base, masked);
                        }
                    });
                }
            }
        }
        visited
    }

    /// [`Bitmap::count_into_masked`] driven by the mask instead of the
    /// column: for each of the mask's touched 64-bit words the matching
    /// column word is materialized directly — O(1) in a bits container, a
    /// resumed binary search in an array container, a resumed run probe in
    /// a run container — so whole mask-free stretches of the column are
    /// skipped instead of word-scanned. Wins when the candidate mask
    /// covers far fewer words than the column has members; loses when the
    /// mask is as dense as the column (prefer
    /// [`Bitmap::count_into_masked_adaptive`], which picks per column).
    ///
    /// The mask must additionally have been [`DenseBitSet::sort_touched`]
    /// after its last insert.
    pub fn count_into_masked_sparse(&self, mask: &DenseBitSet, counts: &mut [u32]) -> u64 {
        // Release-mode guard: an unsorted touched list would silently
        // undercount (wrong partition_point ranges, missed words), so
        // reject it outright. O(1) — the flag is tracked by insert.
        assert!(
            mask.touched_is_sorted(),
            "mask words must be sorted (call DenseBitSet::sort_touched)"
        );
        let words = mask.touched_words();
        debug_assert!(words.windows(2).all(|w| w[0] < w[1]));
        if words.is_empty() {
            return 0;
        }
        let mut visited = 0u64;
        for (high, container) in &self.chunks {
            let chunk_base = (*high as u32) << 16;
            let w_lo = chunk_base >> 6;
            let w_hi = w_lo + (1 << 10); // 65 536 values / 64 per word
            let s = words.partition_point(|&w| w < w_lo);
            let e = s + words[s..].partition_point(|&w| w < w_hi);
            if s == e {
                continue; // whole chunk outside the mask: skipped wholesale
            }
            match container {
                Container::Bits(bits) => {
                    let col = bits.words();
                    for &w in &words[s..e] {
                        let masked = col[(w - w_lo) as usize] & mask.word(w as usize);
                        if masked != 0 {
                            visited += count_word(counts, w << 6, masked);
                        }
                    }
                }
                Container::Array(array) => {
                    let slice = array.as_slice();
                    let mut from = 0usize;
                    for &w in &words[s..e] {
                        let lo16 = ((w - w_lo) << 6) as u16;
                        from += slice[from..].partition_point(|&v| v < lo16);
                        let mut word = 0u64;
                        while from < slice.len() && slice[from] >> 6 == lo16 >> 6 {
                            word |= 1u64 << (slice[from] & 63);
                            from += 1;
                        }
                        let masked = word & mask.word(w as usize);
                        if masked != 0 {
                            visited += count_word(counts, w << 6, masked);
                        }
                    }
                }
                Container::Runs(runs) => {
                    let rs = runs.runs();
                    let mut ri = 0usize;
                    for &w in &words[s..e] {
                        let lo = (w - w_lo) << 6; // value range within chunk
                        let hi = lo + 63;
                        while ri < rs.len() && (rs[ri].end() as u32) < lo {
                            ri += 1;
                        }
                        let mut word = 0u64;
                        let mut rj = ri;
                        while rj < rs.len() && (rs[rj].start as u32) <= hi {
                            let a = (rs[rj].start as u32).max(lo) - lo;
                            let b = (rs[rj].end() as u32).min(hi) - lo;
                            let span = b - a;
                            word |= if span >= 63 {
                                u64::MAX
                            } else {
                                ((1u64 << (span + 1)) - 1) << a
                            };
                            if (rs[rj].end() as u32) <= hi {
                                rj += 1; // run exhausted within this word
                            } else {
                                break; // run spills into the next word
                            }
                        }
                        ri = rj;
                        let masked = word & mask.word(w as usize);
                        if masked != 0 {
                            visited += count_word(counts, w << 6, masked);
                        }
                    }
                }
            }
        }
        visited
    }

    /// Chooses between [`Bitmap::count_into_masked`] (word-scan the whole
    /// column) and [`Bitmap::count_into_masked_sparse`] (jump to
    /// mask-covered words) per column: the scan pass touches every column
    /// word (≈ `len / 64`-plus), the sparse pass costs a probe per mask
    /// word, so the sparse path pays off once the column holds several
    /// members per mask word. The mask must satisfy the
    /// [`Bitmap::count_into_masked_sparse`] sortedness contract.
    pub fn count_into_masked_adaptive(&self, mask: &DenseBitSet, counts: &mut [u32]) -> u64 {
        // 8 members per mask word ≈ the break-even observed in the
        // `micro_overlap_kernel/masked_kernel` bench across container mixes.
        if mask.touched_len() as u64 * 8 < self.len() as u64 {
            self.count_into_masked_sparse(mask, counts)
        } else {
            self.count_into_masked(mask, counts)
        }
    }
}

/// Emits the non-zero 64-bit words covered by a sorted run list. Adjacent
/// runs sharing a word are merged into one emission, so word bases
/// strictly increase.
fn visit_run_words(runs: &[Run], mut f: impl FnMut(u32, u64)) {
    let mut cur_idx = u32::MAX;
    let mut cur_word = 0u64;
    for run in runs {
        let (s, e) = (run.start as u32, run.end() as u32);
        let (ws, we) = (s >> 6, e >> 6);
        for w in ws..=we {
            let lo = if w == ws { s & 63 } else { 0 };
            let hi = if w == we { e & 63 } else { 63 };
            let span = hi - lo;
            let mask = if span >= 63 {
                u64::MAX
            } else {
                ((1u64 << (span + 1)) - 1) << lo
            };
            if w == cur_idx {
                cur_word |= mask;
            } else {
                if cur_idx != u32::MAX {
                    f(cur_idx << 6, cur_word);
                }
                cur_idx = w;
                cur_word = mask;
            }
        }
    }
    if cur_idx != u32::MAX {
        f(cur_idx << 6, cur_word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_of(bm: &Bitmap, n: usize) -> (Vec<u32>, u64) {
        let mut counts = vec![0u32; n];
        let visited = bm.count_into(&mut counts);
        (counts, visited)
    }

    #[test]
    fn count_into_matches_iteration_across_representations() {
        // Array, bits and runs representations in one bitmap.
        let mut values: Vec<u32> = Vec::new();
        values.extend((0..100u32).map(|i| i * 7)); // sparse → array
        values.extend(70_000..76_000u32); // dense → bits after insert
        let mut bm = Bitmap::from_sorted(&values);
        bm.run_optimize(); // dense range → runs
        let (counts, visited) = counts_of(&bm, 80_000);
        assert_eq!(visited, bm.len() as u64);
        for v in 0..80_000u32 {
            let expect = u32::from(bm.contains(v));
            assert_eq!(counts[v as usize], expect, "value {v}");
        }
    }

    #[test]
    fn count_into_accumulates() {
        let a = Bitmap::from_iter([1u32, 5, 9]);
        let b = Bitmap::from_iter([5u32, 9, 11]);
        let mut counts = vec![0u32; 16];
        a.count_into(&mut counts);
        b.count_into(&mut counts);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[5], 2);
        assert_eq!(counts[9], 2);
        assert_eq!(counts[11], 1);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn masked_count_restricts_to_mask() {
        let mut bm = Bitmap::from_iter(0u32..1000);
        bm.run_optimize();
        let mut mask = DenseBitSet::new();
        mask.reset(1000);
        for v in (0..1000u32).step_by(3) {
            mask.insert(v);
        }
        let mut counts = vec![0u32; 1000];
        let visited = bm.count_into_masked(&mask, &mut counts);
        assert_eq!(visited, (0..1000u32).step_by(3).count() as u64);
        for v in 0..1000u32 {
            assert_eq!(counts[v as usize], u32::from(v % 3 == 0), "value {v}");
        }
    }

    #[test]
    fn sparse_masked_count_matches_dense_masked_count() {
        // One bitmap exercising all three container kinds: sparse array
        // chunk, dense bits range, and a run-compressed range.
        let mut values: Vec<u32> = Vec::new();
        values.extend((0..3000u32).map(|i| i * 21)); // array-ish spread
        values.extend(70_000..76_000u32); // dense
        values.extend(140_000..141_024u32); // runs after optimize
        let mut bm = Bitmap::from_sorted(&values);
        bm.run_optimize();
        let n = 150_000usize;
        for (step, offset) in [(997usize, 0u32), (64, 13), (3, 1), (40_000, 7)] {
            let mut mask = DenseBitSet::new();
            mask.reset(n);
            for v in (offset..n as u32).step_by(step) {
                mask.insert(v);
            }
            mask.sort_touched();
            let mut dense_counts = vec![0u32; n];
            let dense_visited = bm.count_into_masked(&mask, &mut dense_counts);
            let mut sparse_counts = vec![0u32; n];
            let sparse_visited = bm.count_into_masked_sparse(&mask, &mut sparse_counts);
            assert_eq!(dense_visited, sparse_visited, "step {step}");
            assert_eq!(dense_counts, sparse_counts, "step {step}");
            let mut adaptive_counts = vec![0u32; n];
            let adaptive_visited = bm.count_into_masked_adaptive(&mask, &mut adaptive_counts);
            assert_eq!(dense_visited, adaptive_visited, "step {step}");
            assert_eq!(dense_counts, adaptive_counts, "step {step}");
        }
    }

    #[test]
    fn sparse_masked_count_handles_empty_and_disjoint_masks() {
        let bm = Bitmap::from_iter(0u32..500);
        let mut mask = DenseBitSet::new();
        mask.reset(70_000);
        let mut counts = vec![0u32; 70_000];
        assert_eq!(bm.count_into_masked_sparse(&mask, &mut counts), 0);
        // Mask entirely in a chunk the bitmap does not populate.
        mask.insert(66_000);
        mask.sort_touched();
        assert_eq!(bm.count_into_masked_sparse(&mask, &mut counts), 0);
        assert!(counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn dense_bitset_reset_clears_only_touched() {
        let mut mask = DenseBitSet::new();
        mask.reset(256);
        mask.insert(7);
        mask.insert(200);
        assert!(mask.contains(7) && mask.contains(200));
        mask.reset(256);
        assert!(!mask.contains(7) && !mask.contains(200));
        mask.insert(63);
        assert!(mask.contains(63));
    }

    #[test]
    fn dense_bitset_word_fill_matches_per_value_inserts() {
        let words = [0x8000_0000_0000_0001u64, 0, 0xff00, 1 << 17];
        let (mut by_word, mut by_value) = (DenseBitSet::new(), DenseBitSet::new());
        by_word.reset(256);
        by_value.reset(256);
        for (w, &bits) in words.iter().enumerate() {
            by_word.insert_word(w, bits);
            for bit in (0..64u32).filter(|bit| bits & (1u64 << bit) != 0) {
                by_value.insert(w as u32 * 64 + bit);
            }
        }
        for v in 0..256 {
            assert_eq!(by_word.contains(v), by_value.contains(v), "value {v}");
        }
        // An empty word is not "touched"; ascending fills need no sort.
        assert_eq!(by_word.touched_words(), &[0, 2, 3]);
        assert_eq!(by_word.touched_words(), by_value.touched_words());
        assert!(by_word.touched_is_sorted());
        // OR-ing into a live word does not touch it twice.
        by_word.insert_word(2, 1);
        assert_eq!(by_word.touched_words(), &[0, 2, 3]);
        // `reset` clears word-filled sets like any other.
        by_word.reset(256);
        assert!((0..4).all(|w| by_word.word(w) == 0));
        assert!(by_word.touched_words().is_empty());
        // Out-of-order fills are flagged, as out-of-order inserts are.
        by_word.insert_word(3, 1);
        by_word.insert_word(1, 1);
        assert!(!by_word.touched_is_sorted());
    }

    #[test]
    fn visit_words_reconstructs_bitmap() {
        let mut values: Vec<u32> = Vec::new();
        values.extend([0u32, 1, 63, 64, 127]);
        values.extend(1000..1500u32);
        values.extend((70_000..71_000u32).step_by(2));
        let mut bm = Bitmap::from_sorted(&values);
        bm.run_optimize();
        let mut seen = Vec::new();
        let mut last_base = None;
        bm.visit_words(|base, word| {
            assert_eq!(base % 64, 0);
            if let Some(lb) = last_base {
                assert!(base > lb, "bases must strictly increase: {lb} then {base}");
            }
            last_base = Some(base);
            for bit in 0..64u32 {
                if word & (1u64 << bit) != 0 {
                    seen.push(base + bit);
                }
            }
        });
        assert_eq!(seen, bm.to_vec());
    }
}
