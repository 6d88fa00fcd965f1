//! Word-level access: [`Bitmap::visit_words`] streams a bitmap's 64-bit
//! words, and [`DenseBitSet`] is the flat bitset a filtered query's
//! per-set mask and a kNN query's token membership are built in.

use crate::container::Container;
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
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        values.extend(140_000..145_000u32);
        let bm = Bitmap::from_sorted(&values);
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
