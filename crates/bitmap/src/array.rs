//! Sorted-array container for sparse chunks.

/// A sorted array of distinct `u16` values.
///
/// Used for chunks with at most [`crate::ARRAY_TO_BITS_THRESHOLD`] values;
/// costs 2 bytes per stored value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrayContainer {
    values: Vec<u16>,
}

impl ArrayContainer {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self { values: Vec::new() }
    }

    /// Creates a container from a sorted, deduplicated vector.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `values` is not strictly increasing.
    pub fn from_sorted(values: Vec<u16>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        Self { values }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, value: u16) -> bool {
        self.values.binary_search(&value).is_ok()
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u16) -> bool {
        match self.values.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.values.insert(pos, value);
                true
            }
        }
    }

    /// Sorted slice of the stored values.
    pub fn as_slice(&self) -> &[u16] {
        &self.values
    }

    /// Merge-based union.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            match self.values[i].cmp(&other.values[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.values[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.values[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.values[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.values[i..]);
        out.extend_from_slice(&other.values[j..]);
        Self { values: out }
    }

    /// Merge-based intersection.
    pub fn intersect(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < other.values.len() {
            match self.values[i].cmp(&other.values[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.values[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Self { values: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_roundtrip() {
        let mut c = ArrayContainer::new();
        assert!(c.insert(5));
        assert!(c.insert(1));
        assert!(!c.insert(5));
        assert!(c.contains(1));
        assert!(c.contains(5));
        assert!(!c.contains(2));
        assert_eq!(c.as_slice(), &[1, 5]);
    }

    #[test]
    fn union_and_intersect() {
        let a = ArrayContainer::from_sorted(vec![1, 3, 5, 7]);
        let b = ArrayContainer::from_sorted(vec![3, 4, 7, 9]);
        assert_eq!(a.union(&b).as_slice(), &[1, 3, 4, 5, 7, 9]);
        assert_eq!(a.intersect(&b).as_slice(), &[3, 7]);
        assert_eq!(b.intersect(&a).as_slice(), &[3, 7]);
    }

    #[test]
    fn empty_behaviour() {
        let e = ArrayContainer::new();
        let a = ArrayContainer::from_sorted(vec![1]);
        assert!(e.is_empty());
        assert_eq!(e.union(&a).as_slice(), &[1]);
        assert!(e.intersect(&a).is_empty());
        assert!(a.intersect(&e).is_empty());
    }
}
