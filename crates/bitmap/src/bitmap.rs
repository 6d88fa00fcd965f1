//! The top-level chunked bitmap.

use crate::array::ArrayContainer;
use crate::bits::BitsContainer;
use crate::container::Container;
use crate::iter::BitmapIter;
use crate::ARRAY_TO_BITS_THRESHOLD;

/// A compressed bitmap over `u32` values.
///
/// Values are partitioned by their high 16 bits into chunks; each chunk is a
/// [`Container`]: a sorted array or, past
/// [`ARRAY_TO_BITS_THRESHOLD`] values, a bitset. See the crate docs for
/// the role this plays in LES3's attribute filters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// `(high_bits, container)` pairs sorted by `high_bits` (the counting
    /// kernels in `kernel.rs` stream them directly).
    pub(crate) chunks: Vec<(u16, Container)>,
}

#[inline]
fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, value as u16)
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bitmap from a sorted slice, duplicates allowed. The chunk
    /// table holds exactly one entry per chunk and each array container
    /// exactly its values; a chunk of more than
    /// [`ARRAY_TO_BITS_THRESHOLD`] values is a bits container, as
    /// inserting them one by one would leave it.
    pub fn from_sorted(values: &[u32]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]));
        let by_chunk = || values.chunk_by(|a, b| a >> 16 == b >> 16);
        let mut chunks = Vec::with_capacity(by_chunk().count());
        for run in by_chunk() {
            let lows = || run.chunk_by(|a, b| a == b).map(|same| split(same[0]).1);
            let distinct = lows().count();
            let container = if distinct > ARRAY_TO_BITS_THRESHOLD {
                let mut bits = BitsContainer::new();
                lows().for_each(|v| {
                    bits.insert(v);
                });
                Container::Bits(bits)
            } else {
                let mut array = Vec::with_capacity(distinct);
                array.extend(lows());
                Container::Array(ArrayContainer::from_sorted(array))
            };
            chunks.push((split(run[0]).0, container));
        }
        Self { chunks }
    }

    fn chunk_index(&self, high: u16) -> Result<usize, usize> {
        self.chunks.binary_search_by(|(h, _)| h.cmp(&high))
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.len()).sum()
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(|(_, c)| c.is_empty())
    }

    /// Membership test.
    pub fn contains(&self, value: u32) -> bool {
        let (high, low) = split(value);
        match self.chunk_index(high) {
            Ok(i) => self.chunks[i].1.contains(low),
            Err(_) => false,
        }
    }

    /// Inserts `value`; returns `true` if it was new.
    pub fn insert(&mut self, value: u32) -> bool {
        let (high, low) = split(value);
        match self.chunk_index(high) {
            Ok(i) => self.chunks[i].1.insert(low),
            Err(i) => {
                let mut c = Container::default();
                c.insert(low);
                self.chunks.insert(i, (high, c));
                true
            }
        }
    }

    /// Iterates over stored values in increasing order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter::new(&self.chunks)
    }

    /// Materializes values into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Union of two bitmaps.
    pub fn union(&self, other: &Self) -> Self {
        let mut chunks = Vec::with_capacity(self.chunks.len().max(other.chunks.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ha, ca) = &self.chunks[i];
            let (hb, cb) = &other.chunks[j];
            match ha.cmp(hb) {
                std::cmp::Ordering::Less => {
                    chunks.push((*ha, ca.clone()));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    chunks.push((*hb, cb.clone()));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    chunks.push((*ha, ca.union(cb)));
                    i += 1;
                    j += 1;
                }
            }
        }
        chunks.extend_from_slice(&self.chunks[i..]);
        chunks.extend_from_slice(&other.chunks[j..]);
        Self { chunks }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        *self = self.union(other);
    }

    /// Intersection of two bitmaps.
    pub fn intersect(&self, other: &Self) -> Self {
        let mut chunks = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ha, ca) = &self.chunks[i];
            let (hb, cb) = &other.chunks[j];
            match ha.cmp(hb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = ca.intersect(cb);
                    if !c.is_empty() {
                        chunks.push((*ha, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Self { chunks }
    }
}

impl FromIterator<u32> for Bitmap {
    fn from_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut bm = Bitmap::new();
        for v in values {
            bm.insert(v);
        }
        bm
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = u32;
    type IntoIter = BitmapIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_chunk_insert_iter() {
        let vals = [0u32, 1, 65_535, 65_536, 131_072, u32::MAX];
        let bm = Bitmap::from_iter(vals.iter().copied());
        assert_eq!(bm.len(), vals.len());
        assert_eq!(bm.to_vec(), vals);
    }

    /// Sorted values with duplicates: per chunk spec `(high, n, step,
    /// dup)`, `n` lows `i·step mod 2^16`, every third repeated `dup`
    /// more times.
    fn chunk_values(specs: &[(u32, usize, u32, usize)]) -> Vec<u32> {
        let mut values: Vec<u32> = specs
            .iter()
            .flat_map(|&(high, n, step, dup)| {
                (0..n as u32).flat_map(move |i| {
                    let v = high << 16 | (i * step) & 0xffff;
                    std::iter::repeat_n(v, 1 + if i % 3 == 0 { dup } else { 0 })
                })
            })
            .collect();
        values.sort_unstable();
        values
    }

    /// `from_sorted` equals inserting one by one — containers and their
    /// kinds — and its chunk table holds exactly its chunks.
    fn check_from_sorted(values: &[u32]) -> Result<(), TestCaseError> {
        let built = Bitmap::from_sorted(values);
        prop_assert_eq!(&built, &Bitmap::from_iter(values.iter().copied()));
        prop_assert_eq!(built.chunks.capacity(), built.chunks.len());
        Ok(())
    }

    #[test]
    fn from_sorted_makes_bits_past_the_array_threshold() {
        // One chunk of 4 097 distinct values (every one twice), one of
        // 4 096, and a sparse third.
        let values = chunk_values(&[(0, 4097, 3, 1), (2, 4096, 1, 1), (9, 5, 1000, 0)]);
        check_from_sorted(&values).unwrap();
        let kinds: Vec<bool> = Bitmap::from_sorted(&values)
            .chunks
            .iter()
            .map(|(_, c)| matches!(c, Container::Bits(_)))
            .collect();
        assert_eq!(kinds, [true, false, false]);
        check_from_sorted(&[]).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn from_sorted_equals_from_iter(
            specs in prop::collection::vec(
                (0u32..6, prop_oneof![0usize..60, 4000usize..6000], 1u32..17, 0usize..3),
                0..5,
            ),
        ) {
            check_from_sorted(&chunk_values(&specs))?;
        }
    }

    #[test]
    fn set_algebra_across_chunks() {
        let a = Bitmap::from_iter([1u32, 2, 65_536, 65_540]);
        let b = Bitmap::from_iter([2u32, 65_540, 131_072]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 65_536, 65_540, 131_072]);
        assert_eq!(a.intersect(&b).to_vec(), vec![2, 65_540]);
        assert!(a.intersect(&Bitmap::from_iter([7u32])).is_empty());
    }
}
