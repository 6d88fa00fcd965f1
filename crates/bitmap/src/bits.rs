//! Dense fixed-size bitset container.

/// Number of 64-bit words in a dense container (covers the full u16 space).
pub const WORDS: usize = 1 << 10;

/// A dense bitset over the 2^16 values of a chunk: 8 KiB regardless of
/// cardinality. Used once a chunk exceeds
/// [`crate::ARRAY_TO_BITS_THRESHOLD`] values.
#[derive(Clone, PartialEq, Eq)]
pub struct BitsContainer {
    words: Box<[u64; WORDS]>,
    len: u32,
}

impl std::fmt::Debug for BitsContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitsContainer")
            .field("len", &self.len)
            .finish()
    }
}

impl Default for BitsContainer {
    fn default() -> Self {
        Self::new()
    }
}

impl BitsContainer {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self {
            words: Box::new([0; WORDS]),
            len: 0,
        }
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index(value: u16) -> (usize, u64) {
        ((value >> 6) as usize, 1u64 << (value & 63))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: u16) -> bool {
        let (w, mask) = Self::index(value);
        self.words[w] & mask != 0
    }

    /// Sets the bit for `value`; returns `true` if it was clear.
    #[inline]
    pub fn insert(&mut self, value: u16) -> bool {
        let (w, mask) = Self::index(value);
        let absent = self.words[w] & mask == 0;
        self.words[w] |= mask;
        if absent {
            self.len += 1;
        }
        absent
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &Self) {
        let mut len = 0u32;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
            len += a.count_ones();
        }
        self.len = len;
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &Self) {
        let mut len = 0u32;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
            len += a.count_ones();
        }
        self.len = len;
    }

    /// Iterates over set bits in increasing order.
    pub fn iter(&self) -> BitsIter<'_> {
        BitsIter {
            words: &self.words,
            word_idx: 0,
            current: self.words[0],
        }
    }

    /// Materializes the set bits into a sorted vector.
    pub fn to_vec(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// The raw 64-bit words (bit `i` of word `w` ⇔ value `w·64 + i`).
    /// Exposed for the word-parallel counting kernels.
    #[inline]
    pub fn words(&self) -> &[u64; WORDS] {
        &self.words
    }
}

/// Iterator over the set bits of a [`BitsContainer`].
pub struct BitsIter<'a> {
    words: &'a [u64; WORDS],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitsIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(((self.word_idx << 6) as u32 + bit) as u16);
            }
            self.word_idx += 1;
            if self.word_idx >= WORDS {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_len() {
        let mut b = BitsContainer::new();
        assert!(b.insert(0));
        assert!(b.insert(63));
        assert!(b.insert(64));
        assert!(b.insert(u16::MAX));
        assert!(!b.insert(64));
        assert_eq!(b.len(), 4);
        assert_eq!(b.to_vec(), vec![0, 63, 64, u16::MAX]);
    }

    #[test]
    fn set_ops() {
        let mut a = BitsContainer::new();
        let mut b = BitsContainer::new();
        for v in 0..100u16 {
            a.insert(v * 2);
            b.insert(v * 3);
        }
        let mut i = a.clone();
        i.intersect_with(&b);
        let multiples_of_6: Vec<u16> = (0..100 * 2).step_by(6).collect();
        assert_eq!(i.to_vec(), multiples_of_6);
        assert_eq!(i.len(), multiples_of_6.len());
        let mut u = a.clone();
        u.union_with(&b);
        for v in 0..100u16 {
            assert!(u.contains(v * 2) && u.contains(v * 3));
        }
        assert_eq!(u.len(), 200 - multiples_of_6.len());
    }
}
