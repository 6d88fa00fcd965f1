//! Disk-resident LES3 (paper §7.6, Figure 13).
//!
//! The TGM stays memory-resident (it is up to 90 % smaller than competing
//! indexes — Figure 11), while the *data* lives on the simulated disk with
//! every group materialized contiguously. A query is the memory engine's
//! `search` — same hits, same [`crate::SearchStats`] — plus one
//! sequential page run per group it verified; pruned groups cost no I/O
//! at all.

use les3_data::TokenId;
use les3_storage::{DiskModel, GroupedLayout, IoStats, SimDisk};

use crate::index::{Les3Index, SearchResult};
use crate::query::{self, Query};
use crate::scratch::QueryScratch;
use crate::sim::Similarity;

/// Disk-resident LES3: index + group-contiguous layout + disk model.
#[derive(Debug, Clone)]
pub struct DiskLes3<S: Similarity> {
    index: Les3Index<S>,
    layout: GroupedLayout,
    model: DiskModel,
}

impl<S: Similarity> DiskLes3<S> {
    /// Lays the index's database out on the simulated disk.
    pub fn new(index: Les3Index<S>, model: DiskModel) -> Self {
        let layout = GroupedLayout::new(
            index.db(),
            index.partitioning().assignment(),
            index.partitioning().n_groups(),
            model.page_size,
        );
        Self {
            index,
            layout,
            model,
        }
    }

    /// The wrapped memory index.
    pub fn index(&self) -> &Les3Index<S> {
        &self.index
    }

    /// Total data pages on disk.
    pub fn data_pages(&self) -> u64 {
        self.layout.total_pages()
    }

    /// kNN with I/O accounting: groups are read (sequentially, one run per
    /// group) only when verified.
    pub fn knn(&self, query: &[TokenId], k: usize) -> (SearchResult, IoStats) {
        self.search(&Query::knn(query, k))
    }

    /// Range search with I/O accounting.
    pub fn range(&self, query: &[TokenId], delta: f64) -> (SearchResult, IoStats) {
        self.search(&Query::range(query, delta))
    }

    /// The engine's search, then the page run of each group it verified:
    /// the first `groups_verified` groups of the bound order, in that
    /// order.
    fn search(&self, q: &Query<'_>) -> (SearchResult, IoStats) {
        let mut scratch = QueryScratch::new();
        let result = query::uninterrupted(self.index.search(q, &mut scratch));
        let mut disk = SimDisk::new(self.model);
        for b in &scratch.stream[..result.stats.groups_verified] {
            let run = self.layout.group_run(b.group as usize);
            disk.read_run(run.start, run.count);
        }
        (result, disk.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::Partitioning;
    use crate::sim::Jaccard;
    use les3_data::zipfian::ZipfianGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> DiskLes3<Jaccard> {
        let db = ZipfianGenerator::new(500, 300, 8.0, 1.1).generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let part = Partitioning::from_assignment(
            (0..db.len()).map(|_| rng.gen_range(0..16u32)).collect(),
            16,
        );
        DiskLes3::new(Les3Index::build(db, part, Jaccard), DiskModel::hdd_5400())
    }

    /// The pages of the first `n` groups of the bound order, which a
    /// comparison sort on `(overlap desc, group asc)` reproduces here.
    fn pages_of_first(disk: &DiskLes3<Jaccard>, q: &[TokenId], n: usize) -> u64 {
        let mut counts = Vec::new();
        disk.index().tgm().group_overlaps_into(q, &mut counts);
        let mut order: Vec<u32> = (0..counts.len() as u32).collect();
        order.sort_by_key(|&g| (std::cmp::Reverse(counts[g as usize]), g));
        order[..n]
            .iter()
            .map(|&g| disk.layout.group_run(g as usize).count)
            .sum()
    }

    /// Disk answers are the memory engine's, hits and stats bit for bit,
    /// and read the pages of exactly the groups that engine verified.
    fn assert_memory_answers_and_verified_pages(disk: &DiskLes3<Jaccard>, q: &[TokenId]) {
        for k in [1usize, 5, 10] {
            let (got, io) = disk.knn(q, k);
            assert_eq!(got, disk.index().knn(q, k), "k {k}");
            let pages = pages_of_first(disk, q, got.stats.groups_verified);
            assert_eq!(io.pages_read, pages, "k {k}");
        }
        for delta in [0.3, 0.5, 0.8] {
            let (got, io) = disk.range(q, delta);
            assert_eq!(got, disk.index().range(q, delta), "δ {delta}");
            let pages = pages_of_first(disk, q, got.stats.groups_verified);
            assert_eq!(io.pages_read, pages, "δ {delta}");
        }
    }

    #[test]
    fn disk_results_equal_memory_results() {
        let disk = build(21);
        for qid in [5u32, 77, 499] {
            let q = disk.index().db().set(qid).to_vec();
            assert_memory_answers_and_verified_pages(&disk, &q);
        }
        let q = disk.index().db().set(5).to_vec();
        assert!(disk.knn(&q, 10).1.pages_read > 0);
    }

    #[test]
    fn pruned_groups_cost_no_io() {
        // Token-disjoint regions so the TGM actually prunes groups.
        let mut sets = Vec::new();
        for region in 0..8u32 {
            for i in 0..40u32 {
                let base = region * 1000;
                sets.push(vec![base + i, base + i + 1, base + i + 2, base + i + 3]);
            }
        }
        let db = les3_data::SetDatabase::from_sets(sets);
        let part = Partitioning::from_assignment((0..320).map(|i| (i / 40) as u32).collect(), 8);
        let disk = DiskLes3::new(Les3Index::build(db, part, Jaccard), DiskModel::hdd_5400());
        let q = disk.index().db().set(0).to_vec();
        let (res, io) = disk.range(&q, 0.5);
        assert!(
            res.stats.groups_pruned >= 7,
            "pruned {}",
            res.stats.groups_pruned
        );
        // Only verified groups were read: seeks ≤ verified groups.
        assert!(io.seeks as usize <= res.stats.groups_verified.max(1));
        // Reading the whole file would cost ≥ total pages.
        assert!(io.pages_read < disk.data_pages());
        assert_memory_answers_and_verified_pages(&disk, &q);
    }

    #[test]
    fn group_reads_are_sequential() {
        let disk = build(23);
        let q = disk.index().db().set(9).to_vec();
        let (res, io) = disk.knn(&q, 5);
        // One positioning per verified group at most (runs are contiguous).
        assert!(
            io.seeks as usize <= res.stats.groups_verified,
            "seeks {} > groups verified {}",
            io.seeks,
            res.stats.groups_verified
        );
    }
}
