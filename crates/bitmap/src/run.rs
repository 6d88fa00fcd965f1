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

    /// Index of the last run starting at or before `value`, if any.
    fn run_before(&self, value: u16) -> Option<usize> {
        self.runs
            .partition_point(|r| r.start <= value)
            .checked_sub(1)
    }

    /// Inserts `value`; returns `true` if it was not already present.
    ///
    /// Edits the run list in place: `value` extends the run that ends
    /// just before it or starts just after it, joins two runs it is the
    /// only gap between, or else becomes a run of its own.
    pub fn insert(&mut self, value: u16) -> bool {
        let prev = self.run_before(value);
        if prev.is_some_and(|i| self.runs[i].end() >= value) {
            return false;
        }
        let next = prev.map_or(0, |i| i + 1);
        // No overflow: a previous run ends below `value`, a next run
        // starts above it.
        let joins_prev = prev.is_some_and(|i| self.runs[i].end() + 1 == value);
        let joins_next = self.runs.get(next).is_some_and(|r| r.start == value + 1);
        match (prev, joins_prev, joins_next) {
            (Some(i), true, true) => {
                let absorbed = self.runs.remove(next);
                self.runs[i].len_minus_one += absorbed.len_minus_one + 2;
            }
            (Some(i), true, false) => self.runs[i].len_minus_one += 1,
            (_, _, true) => {
                let run = &mut self.runs[next];
                run.start -= 1;
                run.len_minus_one += 1;
            }
            _ => self.runs.insert(
                next,
                Run {
                    start: value,
                    len_minus_one: 0,
                },
            ),
        }
        self.len += 1;
        true
    }

    /// Removes `value`; returns `true` if it was present.
    ///
    /// Edits the run list in place: `value` drops a singleton run, trims
    /// a run at either end, or splits a run in two.
    pub fn remove(&mut self, value: u16) -> bool {
        let Some(i) = self
            .run_before(value)
            .filter(|&i| self.runs[i].end() >= value)
        else {
            return false;
        };
        let run = &mut self.runs[i];
        let (start, end) = (run.start, run.end());
        if start == end {
            self.runs.remove(i);
        } else if value == start {
            run.start += 1;
            run.len_minus_one -= 1;
        } else if value == end {
            run.len_minus_one -= 1;
        } else {
            run.len_minus_one = value - start - 1;
            self.runs.insert(
                i + 1,
                Run {
                    start: value + 1,
                    len_minus_one: end - value - 1,
                },
            );
        }
        self.len -= 1;
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

    fn runs_of(c: &RunContainer) -> Vec<(u16, u16)> {
        c.runs().iter().map(|r| (r.start, r.end())).collect()
    }

    #[test]
    fn removing_from_the_middle_of_a_run_splits_it() {
        let mut c = RunContainer::from_sorted_values(10u16..=20);
        assert!(c.remove(15));
        assert_eq!(runs_of(&c), [(10, 14), (16, 20)]);
        assert_eq!(c.len(), 10);
        assert!(!c.remove(15));
        // Trimming either end keeps one run; a singleton run disappears.
        assert!(c.remove(10) && c.remove(14));
        assert_eq!(runs_of(&c), [(11, 13), (16, 20)]);
        let mut one = RunContainer::from_sorted_values([7u16]);
        assert!(one.remove(7));
        assert!(one.is_empty() && one.run_count() == 0);
    }

    #[test]
    fn inserting_between_two_runs_merges_them() {
        let mut c = RunContainer::from_sorted_values([1u16, 2, 4, 5, 9]);
        assert!(c.insert(3));
        assert_eq!(runs_of(&c), [(1, 5), (9, 9)]);
        assert_eq!(c.len(), 6);
        assert!(!c.insert(3) && !c.insert(1) && !c.insert(5));
    }

    #[test]
    fn inserting_at_a_runs_edge_extends_it() {
        let mut c = RunContainer::from_sorted_values([5u16, 6, 7, 20]);
        assert!(c.insert(8) && c.insert(4) && c.insert(19));
        assert_eq!(runs_of(&c), [(4, 8), (19, 20)]);
        // Away from every run: a run of its own, in order.
        assert!(c.insert(0) && c.insert(12) && c.insert(u16::MAX));
        assert_eq!(
            runs_of(&c),
            [(0, 0), (4, 8), (12, 12), (19, 20), (u16::MAX, u16::MAX)]
        );
        assert!(c.insert(u16::MAX - 1) && c.remove(u16::MAX));
        assert_eq!(runs_of(&c).last(), Some(&(u16::MAX - 1, u16::MAX - 1)));
        assert_eq!(c.len(), 10);
        let rebuilt = RunContainer::from_sorted_values(c.iter().collect::<Vec<_>>());
        assert_eq!(c, rebuilt);
    }

    #[test]
    fn handles_u16_max_boundary() {
        let c = RunContainer::from_sorted_values([u16::MAX - 1, u16::MAX]);
        assert_eq!(c.run_count(), 1);
        assert!(c.contains(u16::MAX - 1) && c.contains(u16::MAX));
        assert_eq!(c.len(), 2);
    }
}
