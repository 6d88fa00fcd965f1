//! Disk-resident baselines (paper §7.6, Figure 13).
//!
//! Access-pattern models per method, with data laid out in id order
//! ([`SequentialLayout`]):
//!
//! * **Brute force** — one sequential scan of the whole data file;
//! * **InvIdx** — a seek + sequential read per prefix-token posting list,
//!   then a random read per candidate set ("repetitive retrieval of data
//!   with random disk access");
//! * **DualTrans** — a random page read per R-tree node on the search
//!   path, then a random read per verified set.
//!
//! Only the needed index parts are read, matching the paper's setup
//! ("only the part of the index that is necessary to the query answering
//! … is retrieved into memory").

use crate::brute::BruteForce;
use crate::dualtrans::DualTrans;
use crate::invidx::InvIdx;
use crate::SetSimSearch;
use les3_core::index::SearchResult;
use les3_core::Similarity;
use les3_data::{SetDatabase, SetId, TokenId};
use les3_storage::{DiskModel, IoStats, SequentialLayout, SimDisk};

/// Disk-resident brute force: sequential full scan.
#[derive(Debug, Clone)]
pub struct DiskBruteForce<S: Similarity> {
    inner: BruteForce<S>,
    layout: SequentialLayout,
    model: DiskModel,
}

impl<S: Similarity> DiskBruteForce<S> {
    /// Lays the database out in id order.
    pub fn new(db: SetDatabase, sim: S, model: DiskModel) -> Self {
        let layout = SequentialLayout::new(&db, model.page_size);
        Self {
            inner: BruteForce::new(db, sim),
            layout,
            model,
        }
    }

    fn scan_io(&self) -> IoStats {
        let mut disk = SimDisk::new(self.model);
        disk.read_run(0, self.layout.total_pages());
        disk.stats()
    }

    /// kNN with I/O accounting.
    pub fn knn(&self, query: &[TokenId], k: usize) -> (SearchResult, IoStats) {
        (self.inner.knn(query, k), self.scan_io())
    }

    /// Range search with I/O accounting.
    pub fn range(&self, query: &[TokenId], delta: f64) -> (SearchResult, IoStats) {
        (self.inner.range(query, delta), self.scan_io())
    }
}

/// Disk-resident InvIdx.
#[derive(Debug, Clone)]
pub struct DiskInvIdx<S: Similarity> {
    inner: InvIdx<S>,
    layout: SequentialLayout,
    model: DiskModel,
    /// First page of the postings region (after the data file).
    postings_base: u64,
}

impl<S: Similarity> DiskInvIdx<S> {
    /// Builds the index and the layout.
    pub fn new(db: SetDatabase, sim: S, model: DiskModel) -> Self {
        let layout = SequentialLayout::new(&db, model.page_size);
        let postings_base = layout.total_pages();
        Self {
            inner: InvIdx::build(db, sim),
            layout,
            model,
            postings_base,
        }
    }

    /// The wrapped memory index.
    pub fn inner(&self) -> &InvIdx<S> {
        &self.inner
    }

    /// Charges reading the posting lists of the query prefix at `delta`.
    fn charge_postings(&self, disk: &mut SimDisk, ordered: &[TokenId], delta: f64) {
        let prefix = InvIdx::<S>::prefix_len(ordered.len(), delta);
        let mut cursor = self.postings_base;
        for &tok in &ordered[..prefix.min(ordered.len())] {
            let bytes = self.inner.posting_len(tok) * std::mem::size_of::<SetId>();
            if bytes == 0 {
                continue;
            }
            let pages = self.model.pages_for_bytes(bytes);
            // Each posting list lives somewhere else: new seek, then a
            // sequential run. Leave a gap so the seek is charged.
            disk.read_run(cursor + 2, pages);
            cursor += 2 + pages;
        }
    }

    /// Charges random reads of candidate sets.
    fn charge_candidates(&self, disk: &mut SimDisk, ids: &[SetId]) {
        for &id in ids {
            let run = self.layout.pages_of(id);
            disk.read_run(run.start, run.count);
        }
    }

    /// Range search with I/O accounting.
    pub fn range(&self, query: &[TokenId], delta: f64) -> (SearchResult, IoStats) {
        let mut disk = SimDisk::new(self.model);
        let ordered = self.inner.ordered_query(query);
        if delta > 0.0 {
            self.charge_postings(&mut disk, &ordered, delta);
            let (cands, _) = self.inner.candidates(&ordered, delta);
            self.charge_candidates(&mut disk, &cands);
        } else {
            disk.read_run(0, self.layout.total_pages());
        }
        (self.inner.range(query, delta), disk.stats())
    }

    /// kNN with I/O accounting: replays the decreasing-δ loop, charging
    /// each round's postings and newly seen candidates.
    pub fn knn(&self, query: &[TokenId], k: usize) -> (SearchResult, IoStats) {
        let mut disk = SimDisk::new(self.model);
        let result = self.inner.knn(query, k);
        let ordered = self.inner.ordered_query(query);
        let mut seen: Vec<SetId> = Vec::new();
        let mut delta = 1.0f64;
        loop {
            self.charge_postings(&mut disk, &ordered, delta);
            let (cands, _) = self.inner.candidates(&ordered, delta);
            let new: Vec<SetId> = cands
                .iter()
                .copied()
                .filter(|id| !seen.contains(id))
                .collect();
            self.charge_candidates(&mut disk, &new);
            seen.extend(new);
            let kth = kth_similarity(&result, k);
            if kth >= delta || delta <= 0.0 {
                break;
            }
            delta = (delta - self.inner.knn_step).max(0.0);
        }
        (result, disk.stats())
    }
}

/// Disk-resident DualTrans.
#[derive(Debug, Clone)]
pub struct DiskDualTrans<S: Similarity> {
    inner: DualTrans<S>,
    layout: SequentialLayout,
    model: DiskModel,
    /// First page of the R-tree node region.
    nodes_base: u64,
}

impl<S: Similarity> DiskDualTrans<S> {
    /// Builds the index and the layout.
    pub fn new(db: SetDatabase, sim: S, model: DiskModel, dim: usize, fanout: usize) -> Self {
        let layout = SequentialLayout::new(&db, model.page_size);
        let nodes_base = layout.total_pages();
        Self {
            inner: DualTrans::build(db, sim, dim, fanout),
            layout,
            model,
            nodes_base,
        }
    }

    /// The wrapped memory index.
    pub fn inner(&self) -> &DualTrans<S> {
        &self.inner
    }

    /// Charges `count` scattered node-page reads (tree traversal order is
    /// not disk order, so every node read seeks).
    fn charge_nodes(&self, disk: &mut SimDisk, count: usize) {
        for i in 0..count as u64 {
            disk.read_page(self.nodes_base + i * 2);
        }
    }

    fn charge_candidates(&self, disk: &mut SimDisk, result: &SearchResult) {
        // Every verified candidate is a random set read; candidate ids are
        // not retained in SearchResult hits alone, so charge per
        // `candidates` counter with representative scattered reads.
        for &(id, _) in &result.hits {
            let run = self.layout.pages_of(id);
            disk.read_run(run.start, run.count);
        }
        let extra = result.stats.candidates.saturating_sub(result.hits.len());
        for cursor in 1..=extra as u64 {
            let run_len = 1;
            disk.read_run(cursor * 3 % self.layout.total_pages().max(1), run_len);
        }
    }

    /// kNN with I/O accounting.
    pub fn knn(&self, query: &[TokenId], k: usize) -> (SearchResult, IoStats) {
        let mut disk = SimDisk::new(self.model);
        let result = self.inner.knn(query, k);
        self.charge_nodes(&mut disk, result.stats.columns_checked);
        self.charge_candidates(&mut disk, &result);
        (result, disk.stats())
    }

    /// Range search with I/O accounting.
    pub fn range(&self, query: &[TokenId], delta: f64) -> (SearchResult, IoStats) {
        let mut disk = SimDisk::new(self.model);
        let result = self.inner.range(query, delta);
        self.charge_nodes(&mut disk, result.stats.columns_checked);
        self.charge_candidates(&mut disk, &result);
        (result, disk.stats())
    }
}

fn kth_similarity(result: &SearchResult, k: usize) -> f64 {
    if result.hits.len() >= k {
        result.hits[k - 1].1
    } else {
        f64::NEG_INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use les3_core::{DiskLes3, Jaccard, Les3Index, Partitioning};
    use les3_data::zipfian::ZipfianGenerator;

    fn db() -> SetDatabase {
        ZipfianGenerator::new(600, 300, 8.0, 1.1).generate(61)
    }

    #[test]
    fn brute_force_is_one_sequential_scan() {
        let dbf = DiskBruteForce::new(db(), Jaccard, DiskModel::hdd_5400());
        let q = dbf.inner.db().set(0).to_vec();
        let (_, io) = dbf.knn(&q, 10);
        assert_eq!(io.seeks, 1, "single positioning for a full scan");
        assert!(io.pages_read > 0);
    }

    #[test]
    fn invidx_random_io_exceeds_brute_at_low_delta() {
        // Small pages stand in for paper-scale data: candidates scatter
        // across many pages instead of all landing on one.
        let model = DiskModel {
            page_size: 64,
            ..DiskModel::hdd_5400()
        };
        let data = db();
        let dbf = DiskBruteForce::new(data.clone(), Jaccard, model);
        let dinv = DiskInvIdx::new(data.clone(), Jaccard, model);
        let q = data.set(1).to_vec();
        let (_, io_b) = dbf.range(&q, 0.2);
        let (_, io_i) = dinv.range(&q, 0.2);
        // At low δ InvIdx touches most sets randomly: slower than one scan
        // (the paper's headline observation for Figure 13).
        assert!(
            io_i.elapsed_ms > io_b.elapsed_ms,
            "InvIdx {:.1}ms vs brute {:.1}ms",
            io_i.elapsed_ms,
            io_b.elapsed_ms
        );
        // At high δ InvIdx touches a tiny fraction of the pages; the
        // elapsed-time crossover needs paper-scale data (see
        // `DiskModel::scaled_for_emulation` and the fig13 bench).
        let (_, io_i_hi) = dinv.range(&q, 0.9);
        assert!(
            io_i_hi.pages_read < io_b.pages_read / 4,
            "InvIdx {} pages vs brute {} pages",
            io_i_hi.pages_read,
            io_b.pages_read
        );
        // With emulated paper scale, the elapsed time flips too.
        let scaled = model.scaled_for_emulation(500.0);
        let dbf_s = DiskBruteForce::new(data.clone(), Jaccard, scaled);
        let dinv_s = DiskInvIdx::new(data, Jaccard, scaled);
        let (_, io_b_s) = dbf_s.range(&q, 0.9);
        let (_, io_i_s) = dinv_s.range(&q, 0.9);
        assert!(
            io_i_s.elapsed_ms < io_b_s.elapsed_ms,
            "scaled: InvIdx {:.3}ms vs brute {:.3}ms",
            io_i_s.elapsed_ms,
            io_b_s.elapsed_ms
        );
    }

    #[test]
    fn les3_disk_beats_baselines_on_grouped_layout() {
        // Token-region clusters + aligned partitioning.
        let mut sets = Vec::new();
        for region in 0..16u32 {
            for i in 0..50u32 {
                let base = region * 500;
                sets.push(vec![base + i, base + i + 1, base + i + 2, base + i + 3]);
            }
        }
        let data = SetDatabase::from_sets(sets);
        let part = Partitioning::from_assignment((0..800).map(|i| (i / 50) as u32).collect(), 16);
        let les3 = DiskLes3::new(
            Les3Index::build(data.clone(), part, Jaccard),
            DiskModel::hdd_5400(),
        );
        let dinv = DiskInvIdx::new(data.clone(), Jaccard, DiskModel::hdd_5400());
        let q = data.set(0).to_vec();
        let (r_l, io_l) = les3.range(&q, 0.5);
        let (r_i, io_i) = dinv.range(&q, 0.5);
        assert_eq!(r_l.hits, r_i.hits, "both exact");
        assert!(
            io_l.elapsed_ms <= io_i.elapsed_ms,
            "LES3 {:.2}ms vs InvIdx {:.2}ms",
            io_l.elapsed_ms,
            io_i.elapsed_ms
        );
    }

    #[test]
    fn dualtrans_charges_node_and_candidate_reads() {
        let data = db();
        let ddt = DiskDualTrans::new(data.clone(), Jaccard, DiskModel::hdd_5400(), 8, 16);
        let q = data.set(2).to_vec();
        let (res, io) = ddt.knn(&q, 5);
        assert!(io.pages_read as usize >= res.stats.columns_checked);
        assert!(io.seeks > 1, "tree traversal is random access");
    }
}
