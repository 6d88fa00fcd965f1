//! Chunk container: the adaptive union of the two representations.

use crate::array::ArrayContainer;
use crate::bits::BitsContainer;
use crate::ARRAY_TO_BITS_THRESHOLD;

/// One chunk (2^16 value range) of a [`crate::Bitmap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Container {
    /// Sparse sorted-array representation.
    Array(ArrayContainer),
    /// Dense fixed-size bitset representation.
    Bits(BitsContainer),
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
        }
    }

    /// Inserts `value`, converting array → bits when crossing the density
    /// threshold. Returns `true` if the value was new.
    pub fn insert(&mut self, value: u16) -> bool {
        match self {
            Container::Array(c) => {
                let inserted = c.insert(value);
                if inserted && c.len() > ARRAY_TO_BITS_THRESHOLD {
                    *self = Container::Bits(self.to_bits());
                }
                inserted
            }
            Container::Bits(c) => c.insert(value),
        }
    }

    /// Materializes values into a sorted vector.
    pub fn to_vec(&self) -> Vec<u16> {
        match self {
            Container::Array(c) => c.as_slice().to_vec(),
            Container::Bits(c) => c.to_vec(),
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
            Container::Array(c) => {
                let mut bits = BitsContainer::new();
                for &v in c.as_slice() {
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
            Container::Array(ref c) if c.len() > ARRAY_TO_BITS_THRESHOLD => {
                Container::Bits(self.to_bits())
            }
            other => other,
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
