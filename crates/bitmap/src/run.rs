//! Run-length-encoded container.

/// A run of consecutive values `start..=start+len_minus_one`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First value of the run.
    pub start: u16,
    /// Length of the run minus one (so a singleton has `len_minus_one == 0`).
    pub len_minus_one: u16,
}

impl Run {
    /// Last value of the run.
    #[inline]
    pub fn end(&self) -> u16 {
        self.start + self.len_minus_one
    }

    /// Number of values covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len_minus_one as usize + 1
    }

    /// A run always covers at least one value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A container storing sorted, non-adjacent runs of consecutive values.
///
/// Chosen by [`crate::Bitmap::run_optimize`] when RLE beats both the array
/// and the dense representation (4 bytes per run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunContainer {
    runs: Vec<Run>,
    len: usize,
}

impl RunContainer {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a run container from a strictly increasing sequence of values.
    pub fn from_sorted_values<I: IntoIterator<Item = u16>>(values: I) -> Self {
        let mut runs: Vec<Run> = Vec::new();
        let mut len = 0usize;
        for v in values {
            len += 1;
            match runs.last_mut() {
                Some(run) if run.end() != u16::MAX && run.end() + 1 == v => {
                    run.len_minus_one += 1;
                }
                _ => runs.push(Run {
                    start: v,
                    len_minus_one: 0,
                }),
            }
        }
        Self { runs, len }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Membership test (binary search over run starts).
    pub fn contains(&self, value: u16) -> bool {
        match self.runs.binary_search_by(|r| r.start.cmp(&value)) {
            Ok(_) => true,
            Err(0) => false,
            Err(pos) => self.runs[pos - 1].end() >= value,
        }
    }

    /// Inserts `value`; returns `true` if it was not already present.
    ///
    /// Kept simple (merge neighbours when adjacent); run containers are
    /// mostly produced by [`Self::from_sorted_values`] during optimization.
    pub fn insert(&mut self, value: u16) -> bool {
        if self.contains(value) {
            return false;
        }
        let mut values: Vec<u16> = self.iter().collect();
        let pos = values.partition_point(|&v| v < value);
        values.insert(pos, value);
        *self = Self::from_sorted_values(values);
        true
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: u16) -> bool {
        if !self.contains(value) {
            return false;
        }
        let values: Vec<u16> = self.iter().filter(|&v| v != value).collect();
        *self = Self::from_sorted_values(values);
        true
    }

    /// Iterates over stored values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.runs.iter().flat_map(|r| r.start..=r.end())
    }

    /// Slice of the underlying runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Heap bytes used by this container.
    pub fn size_in_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_runs_from_sorted_values() {
        let c = RunContainer::from_sorted_values([1u16, 2, 3, 7, 9, 10]);
        assert_eq!(c.run_count(), 3);
        assert_eq!(c.len(), 6);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1, 2, 3, 7, 9, 10]);
    }

    #[test]
    fn contains_at_run_edges() {
        let c = RunContainer::from_sorted_values([5u16, 6, 7, 20, 21]);
        assert!(c.contains(5) && c.contains(7) && c.contains(21));
        assert!(!c.contains(4) && !c.contains(8) && !c.contains(19));
    }

    #[test]
    fn insert_merges_adjacent_runs() {
        let mut c = RunContainer::from_sorted_values([1u16, 3]);
        assert!(c.insert(2));
        assert_eq!(c.run_count(), 1);
        assert!(!c.insert(2));
        assert!(c.remove(2));
        assert_eq!(c.run_count(), 2);
    }

    #[test]
    fn handles_u16_max_boundary() {
        let c = RunContainer::from_sorted_values([u16::MAX - 1, u16::MAX]);
        assert_eq!(c.run_count(), 1);
        assert!(c.contains(u16::MAX - 1) && c.contains(u16::MAX));
        assert_eq!(c.len(), 2);
    }
}
