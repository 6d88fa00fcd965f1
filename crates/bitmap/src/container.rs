//! Chunk container: the adaptive union of the three representations.

use crate::array::ArrayContainer;
use crate::bits::BitsContainer;
use crate::run::RunContainer;
use crate::ARRAY_TO_BITS_THRESHOLD;

/// One chunk (2^16 value range) of a [`crate::Bitmap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Container {
    /// Sparse sorted-array representation.
    Array(ArrayContainer),
    /// Dense fixed-size bitset representation.
    Bits(BitsContainer),
    /// Run-length-encoded representation.
    Runs(RunContainer),
}

impl Default for Container {
    fn default() -> Self {
        Container::Array(ArrayContainer::new())
    }
}

impl Container {
    /// Number of stored values.
    pub fn len(&self) -> usize {
        match self {
            Container::Array(c) => c.len(),
            Container::Bits(c) => c.len(),
            Container::Runs(c) => c.len(),
        }
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, value: u16) -> bool {
        match self {
            Container::Array(c) => c.contains(value),
            Container::Bits(c) => c.contains(value),
            Container::Runs(c) => c.contains(value),
        }
    }

    /// Inserts `value`, converting array → bits when crossing the density
    /// threshold. Returns `true` if the value was new.
    pub fn insert(&mut self, value: u16) -> bool {
        match self {
            Container::Array(c) => {
                let inserted = c.insert(value);
                if inserted && c.len() > ARRAY_TO_BITS_THRESHOLD {
                    let mut bits = BitsContainer::new();
                    for &v in c.as_slice() {
                        bits.insert(v);
                    }
                    *self = Container::Bits(bits);
                }
                inserted
            }
            Container::Bits(c) => c.insert(value),
            Container::Runs(c) => c.insert(value),
        }
    }

    /// Removes `value`, converting bits → array when dropping below the
    /// density threshold. Returns `true` if the value was present.
    pub fn remove(&mut self, value: u16) -> bool {
        match self {
            Container::Array(c) => c.remove(value),
            Container::Bits(c) => {
                let removed = c.remove(value);
                if removed && c.len() <= ARRAY_TO_BITS_THRESHOLD / 2 {
                    *self = Container::Array(ArrayContainer::from_sorted(c.to_vec()));
                }
                removed
            }
            Container::Runs(c) => c.remove(value),
        }
    }

    /// Materializes values into a sorted vector.
    pub fn to_vec(&self) -> Vec<u16> {
        match self {
            Container::Array(c) => c.as_slice().to_vec(),
            Container::Bits(c) => c.to_vec(),
            Container::Runs(c) => c.iter().collect(),
        }
    }

    /// Union of two containers (representation chosen by result density).
    pub fn union(&self, other: &Self) -> Self {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => {
                let merged = a.union(b);
                Container::Array(merged).normalized()
            }
            _ => {
                let mut bits = self.to_bits();
                bits.union_with(&other.to_bits());
                Container::Bits(bits).normalized()
            }
        }
    }

    /// Intersection of two containers.
    pub fn intersect(&self, other: &Self) -> Self {
        match (self, other) {
            (Container::Array(a), Container::Array(b)) => Container::Array(a.intersect(b)),
            (Container::Array(a), b) | (b, Container::Array(a)) => {
                let vals: Vec<u16> = a
                    .as_slice()
                    .iter()
                    .copied()
                    .filter(|&v| b.contains(v))
                    .collect();
                Container::Array(ArrayContainer::from_sorted(vals))
            }
            _ => {
                let mut bits = self.to_bits();
                bits.intersect_with(&other.to_bits());
                Container::Bits(bits).normalized()
            }
        }
    }

    /// Converts any representation to a dense bitset.
    pub fn to_bits(&self) -> BitsContainer {
        match self {
            Container::Bits(c) => c.clone(),
            other => {
                let mut bits = BitsContainer::new();
                for v in other.to_vec() {
                    bits.insert(v);
                }
                bits
            }
        }
    }

    /// Re-chooses array vs bits based on cardinality.
    fn normalized(self) -> Self {
        match self {
            Container::Bits(c) if c.len() <= ARRAY_TO_BITS_THRESHOLD => {
                Container::Array(ArrayContainer::from_sorted(c.to_vec()))
            }
            Container::Array(c) if c.len() > ARRAY_TO_BITS_THRESHOLD => {
                let mut bits = BitsContainer::new();
                for &v in c.as_slice() {
                    bits.insert(v);
                }
                Container::Bits(bits)
            }
            other => other,
        }
    }

    /// Converts to the smallest of the three representations.
    pub fn optimized(self) -> Self {
        let len = self.len();
        let runs = match &self {
            Container::Array(c) => {
                RunContainer::from_sorted_values(c.as_slice().iter().copied()).run_count()
            }
            Container::Bits(c) => c.run_count(),
            Container::Runs(c) => c.run_count(),
        };
        let run_bytes = runs * 4;
        let array_bytes = len * 2;
        let bits_bytes = crate::bits::WORDS * 8;
        if run_bytes <= array_bytes && run_bytes <= bits_bytes {
            Container::Runs(RunContainer::from_sorted_values(self.to_vec()))
        } else if array_bytes <= bits_bytes {
            match self {
                Container::Array(_) => self,
                other => Container::Array(ArrayContainer::from_sorted(other.to_vec())),
            }
        } else {
            match self {
                Container::Bits(_) => self,
                other => Container::Bits(other.to_bits()),
            }
        }
    }

    /// Heap bytes used by this container.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            Container::Array(c) => c.size_in_bytes(),
            Container::Bits(c) => c.size_in_bytes(),
            Container::Runs(c) => c.size_in_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_promotes_to_bits_on_threshold() {
        let mut c = Container::default();
        for v in 0..=(ARRAY_TO_BITS_THRESHOLD as u16) {
            c.insert(v * 2);
        }
        assert!(matches!(c, Container::Bits(_)));
        assert_eq!(c.len(), ARRAY_TO_BITS_THRESHOLD + 1);
    }

    #[test]
    fn bits_demotes_to_array_on_removal() {
        let mut c = Container::default();
        for v in 0..=(ARRAY_TO_BITS_THRESHOLD as u32) {
            c.insert(v as u16);
        }
        assert!(matches!(c, Container::Bits(_)));
        for v in 0..=(ARRAY_TO_BITS_THRESHOLD as u32 / 2 + 1) {
            c.remove(v as u16);
        }
        assert!(matches!(c, Container::Array(_)));
    }

    #[test]
    fn optimized_picks_runs_for_dense_ranges() {
        let mut c = Container::default();
        for v in 0..5000u16 {
            c.insert(v);
        }
        let opt = c.optimized();
        assert!(matches!(opt, Container::Runs(_)));
        assert_eq!(opt.len(), 5000);
        assert!(opt.size_in_bytes() < 16);
    }

    #[test]
    fn cross_representation_ops_agree_with_naive() {
        let mut sparse = Container::default();
        for v in (0..1000u16).step_by(7) {
            sparse.insert(v);
        }
        let mut dense = Container::default();
        for v in 0..5000u16 {
            dense.insert(v);
        }
        assert!(matches!(dense, Container::Bits(_)));
        let expected: Vec<u16> = (0..1000u16).step_by(7).collect();
        assert_eq!(sparse.intersect(&dense).to_vec(), expected);
        assert_eq!(dense.intersect(&sparse).to_vec(), expected);
        assert_eq!(dense.union(&sparse).len(), 5000);
    }
}
