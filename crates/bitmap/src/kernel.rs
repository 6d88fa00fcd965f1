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
//! [`Bitmap::count_into`] adds `counts[v] += 1` for every member `v` and
//! returns the number of members visited, so callers can account the
//! true filter cost (`Σ_{t∈Q} |groups(t)|`) instead of a dense-matrix
//! estimate. [`Bitmap::visit_words`] exposes the underlying word stream
//! for callers that need a custom word-level scan.

use crate::container::Container;
use crate::run::Run;
use crate::Bitmap;

/// A flat, fixed-capacity bitset over `0..capacity`.
///
/// Used as the reusable per-set mask of a filtered query: set ids are
/// dense integers, so a word array answers membership with one load, and
/// clearing touches only the words that were set.
#[derive(Debug, Clone, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    /// Words that have been written since the last clear (each index at
    /// most once; bounded by capacity / 64).
    touched: Vec<u32>,
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
    }

    /// Inserts `v`. Caller guarantees `v` is within the reset capacity.
    #[inline]
    pub fn insert(&mut self, v: u32) {
        self.insert_word((v >> 6) as usize, 1u64 << (v & 63));
    }

    /// Inserts 64 values at once: every set bit `b` of `bits` adds value
    /// `64·w + b`. Caller guarantees they are within the reset capacity.
    /// A producer that already has its members as mask words fills the
    /// set this way.
    #[inline]
    pub fn insert_word(&mut self, w: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        if self.words[w] == 0 {
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

    /// Number of words allocated: `⌈capacity / 64⌉` for the largest
    /// capacity any `reset` asked for.
    pub fn n_words(&self) -> usize {
        self.words.len()
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

    /// The first payload word of the first container (its first value,
    /// bit word or run start; 0 for an empty bitmap): the loads
    /// [`Bitmap::count_into`] starts with, for a caller that fetches
    /// ahead (`les3-core`'s `tgm.rs` says why).
    #[inline]
    pub fn first_word(&self) -> u64 {
        match self.chunks.first() {
            None => 0,
            Some((_, Container::Array(array))) => {
                array.as_slice().first().map_or(0, |&v| u64::from(v))
            }
            Some((_, Container::Bits(bits))) => bits.words()[0],
            Some((_, Container::Runs(runs))) => {
                runs.runs().first().map_or(0, |r| u64::from(r.start))
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
    fn first_word_is_the_first_containers_first_word() {
        assert_eq!(Bitmap::new().first_word(), 0);
        // Array: the first value's low 16 bits, from the first chunk.
        assert_eq!(Bitmap::from_iter([70_000u32, 9, 5]).first_word(), 5);
        assert_eq!(Bitmap::from_iter([70_000u32]).first_word(), 70_000 - 65_536);
        // Bits: word 0 (every odd value).
        let odd = Bitmap::from_iter((0..5_000u32).map(|v| 2 * v + 1));
        assert_eq!(odd.first_word(), 0xAAAA_AAAA_AAAA_AAAA);
        // Runs: the first run's start.
        let mut dense = Bitmap::from_iter(100u32..30_000);
        dense.run_optimize();
        assert_eq!(dense.first_word(), 100);
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
        // An empty word is not "touched".
        assert_eq!(by_word.touched, [0, 2, 3]);
        assert_eq!(by_word.touched, by_value.touched);
        // OR-ing into a live word keeps its bits and does not touch it twice.
        by_word.insert_word(2, 1);
        assert_eq!(by_word.word(2), 0xff01);
        assert_eq!(by_word.touched, [0, 2, 3]);
        // `reset` clears word-filled sets like any other.
        by_word.reset(256);
        assert!((0..4).all(|w| by_word.word(w) == 0));
        assert!(by_word.touched.is_empty());
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
