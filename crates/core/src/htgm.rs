//! Hierarchical TGM (paper §5.2, evaluated in §7.7 / Figure 14).
//!
//! The L2P cascade partitions the database at every level `i` into `2^i`
//! groups; building a TGM per level gives the *hierarchical* TGM. If a
//! coarse group is pruned, none of its descendant groups (nor their column
//! ranges in finer matrices) need to be examined. The paper finds this
//! pays off when most sets are dissimilar (large power-law α) and hurts
//! when coarse levels cannot prune anything.

use les3_data::{SetDatabase, SetId, TokenId};

use crate::index::{sort_hits, SearchResult, TopK, VerifyOrder, VerifyQuery};
use crate::partitioning::Partitioning;
use crate::scratch::QueryScratch;
use crate::sim::{distinct_len, normalize_query, PreparedQuery, Similarity};
use crate::stats::SearchStats;
use crate::tgm::Tgm;

/// A sequence of nested partitionings, coarsest first.
#[derive(Debug, Clone)]
pub struct HierarchicalPartitioning {
    levels: Vec<Partitioning>,
    /// `children[l][g]` = groups of level `l + 1` nested in group `g` of
    /// level `l`.
    children: Vec<Vec<Vec<u32>>>,
}

impl HierarchicalPartitioning {
    /// Builds from per-level partitionings, validating that every level
    /// refines the previous one (each fine group lies inside exactly one
    /// coarse group).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, covers different set counts, or is not
    /// nested.
    pub fn new(levels: Vec<Partitioning>) -> Self {
        assert!(!levels.is_empty(), "need at least one level");
        let n_sets = levels[0].n_sets();
        assert!(
            levels.iter().all(|l| l.n_sets() == n_sets),
            "levels must cover the same sets"
        );
        let mut children: Vec<Vec<Vec<u32>>> = Vec::with_capacity(levels.len() - 1);
        for w in levels.windows(2) {
            let (coarse, fine) = (&w[0], &w[1]);
            let mut parent_of = vec![None; fine.n_groups()];
            for id in 0..n_sets as SetId {
                let fg = fine.group_of(id) as usize;
                let cg = coarse.group_of(id);
                match parent_of[fg] {
                    None => parent_of[fg] = Some(cg),
                    Some(p) => assert_eq!(
                        p, cg,
                        "partitioning is not nested: fine group {fg} spans coarse groups"
                    ),
                }
            }
            let mut ch = vec![Vec::new(); coarse.n_groups()];
            for (fg, p) in parent_of.iter().enumerate() {
                if let Some(p) = p {
                    ch[*p as usize].push(fg as u32);
                }
            }
            children.push(ch);
        }
        Self { levels, children }
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Partitioning at level `l` (0 = coarsest).
    pub fn level(&self, l: usize) -> &Partitioning {
        &self.levels[l]
    }

    /// The finest partitioning (what a flat TGM would be built on).
    pub fn finest(&self) -> &Partitioning {
        self.levels.last().unwrap()
    }

    /// Children at level `l + 1` of group `g` at level `l`.
    pub fn children(&self, l: usize, g: u32) -> &[u32] {
        &self.children[l][g as usize]
    }
}

/// The hierarchical TGM index.
#[derive(Debug, Clone)]
pub struct Htgm<S: Similarity> {
    db: SetDatabase,
    hp: HierarchicalPartitioning,
    tgms: Vec<Tgm>,
    sim: S,
    /// Finest-level length-sorted member order, for the length-window
    /// cut during leaf verification.
    verify: VerifyOrder,
}

impl<S: Similarity> Htgm<S> {
    /// Builds one TGM per level.
    pub fn build(db: SetDatabase, hp: HierarchicalPartitioning, sim: S) -> Self {
        let tgms = (0..hp.n_levels())
            .map(|l| Tgm::build(&db, hp.level(l)))
            .collect();
        let verify = VerifyOrder::build(&db, hp.finest());
        Self {
            db,
            hp,
            tgms,
            sim,
            verify,
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &SetDatabase {
        &self.db
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &HierarchicalPartitioning {
        &self.hp
    }

    /// Total index size across all level matrices.
    pub fn size_in_bytes(&self) -> usize {
        self.tgms.iter().map(Tgm::size_in_bytes).sum()
    }

    /// Exact range search with level-by-level pruning.
    pub fn range(&self, query: &[TokenId], delta: f64) -> SearchResult {
        self.range_with(query, delta, &mut QueryScratch::new())
    }

    /// [`Htgm::range`] with caller-provided scratch.
    pub fn range_with(
        &self,
        query: &[TokenId],
        delta: f64,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        let query = &*normalize_query(query);
        let q_len = distinct_len(query);
        let mut stats = SearchStats::default();
        // Every level's pass runs one after the other: one kernel
        // scratch serves them all.
        let scratch = &mut scratch.filter;
        // Level 0: full word-parallel scan of the coarsest matrix.
        let touched = self.tgms[0].group_overlaps_into(query, &mut scratch.counts);
        stats.columns_checked += touched as usize;
        let mut surviving: Vec<u32> = scratch
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &r)| self.sim.ub_from_overlap(q_len, r as usize) >= delta)
            .map(|(g, _)| g as u32)
            .collect();
        stats.groups_pruned += self.tgms[0].n_groups() - surviving.len();
        // Descend: each level intersects the query's columns against the
        // surviving candidates' bitset instead of probing per group.
        for l in 1..self.hp.n_levels() {
            let candidates: Vec<u32> = surviving
                .iter()
                .flat_map(|&g| self.hp.children(l - 1, g).iter().copied())
                .collect();
            let touched = self.tgms[l].group_overlaps_restricted_into(
                query,
                &candidates,
                &mut scratch.mask,
                &mut scratch.restricted,
                &mut scratch.restricted_out,
            );
            stats.columns_checked += touched as usize;
            surviving = candidates
                .iter()
                .zip(&scratch.restricted_out)
                .filter(|&(_, &r)| self.sim.ub_from_overlap(q_len, r as usize) >= delta)
                .map(|(&g, _)| g)
                .collect();
            stats.groups_pruned += candidates.len() - surviving.len();
        }
        // Verify the finest survivors through the length window +
        // threshold-aware merges.
        let mut hits: Vec<(SetId, f64)> = Vec::new();
        let verify = VerifyQuery {
            sim: self.sim,
            db: &self.db,
            query: PreparedQuery::without_bits(query),
            filter: None,
        };
        for &g in &surviving {
            stats.groups_verified += 1;
            verify.range_window(&self.verify, g, delta, &mut hits, &mut stats);
        }
        sort_hits(&mut hits);
        SearchResult { hits, stats }
    }

    /// Exact kNN search: best-first over the hierarchy. Group bounds are
    /// monotone along the hierarchy (`GS_child ⊆ GS_parent`), so the
    /// traversal is admissible.
    pub fn knn(&self, query: &[TokenId], k: usize) -> SearchResult {
        self.knn_with(query, k, &mut QueryScratch::new())
    }

    /// [`Htgm::knn`] with caller-provided scratch.
    pub fn knn_with(
        &self,
        query: &[TokenId],
        k: usize,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        let query = &*normalize_query(query);
        let q_len = distinct_len(query);
        let mut stats = SearchStats::default();
        if k == 0 || self.db.is_empty() {
            return SearchResult {
                hits: Vec::new(),
                stats,
            };
        }
        let QueryScratch {
            filter: scratch,
            bits,
            ..
        } = scratch;
        // Seed the frontier with level-0 bounds.
        let touched = self.tgms[0].group_overlaps_into(query, &mut scratch.counts);
        stats.columns_checked += touched as usize;
        let mut frontier = std::collections::BinaryHeap::new();
        for (g, &r) in scratch.counts.iter().enumerate() {
            frontier.push(Frontier {
                ub: self.sim.ub_from_overlap(q_len, r as usize),
                level: 0,
                group: g as u32,
            });
        }
        let mut top = TopK::new(k);
        let verify = VerifyQuery {
            sim: self.sim,
            db: &self.db,
            query: bits.prepare(query, self.db.universe_size()),
            filter: None,
        };
        let last_level = self.hp.n_levels() - 1;
        while let Some(Frontier { ub, level, group }) = frontier.pop() {
            if top.is_full() && ub <= top.kth() {
                stats.groups_pruned += 1 + frontier.len();
                break;
            }
            if level == last_level {
                stats.groups_verified += 1;
                verify.knn_window(&self.verify, group, &mut top, &mut stats);
            } else {
                let children = self.hp.children(level, group);
                let touched = self.tgms[level + 1].group_overlaps_restricted_into(
                    query,
                    children,
                    &mut scratch.mask,
                    &mut scratch.restricted,
                    &mut scratch.restricted_out,
                );
                stats.columns_checked += touched as usize;
                for (&child, &r) in children.iter().zip(&scratch.restricted_out) {
                    frontier.push(Frontier {
                        ub: self.sim.ub_from_overlap(q_len, r as usize),
                        level: level + 1,
                        group: child,
                    });
                }
            }
        }
        SearchResult {
            hits: top.into_sorted(),
            stats,
        }
    }
}

struct Frontier {
    ub: f64,
    level: usize,
    group: u32,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.ub == other.ub && self.level == other.level && self.group == other.group
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by UB; deeper levels first on ties (they are closer to
        // verification and tighten the k-th bound sooner).
        self.ub
            .total_cmp(&other.ub)
            .then(self.level.cmp(&other.level))
            .then(other.group.cmp(&self.group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Les3Index;
    use crate::sim::Jaccard;
    use les3_data::zipfian::ZipfianGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random nested hierarchy: level 0 with g0 groups, each split in two.
    fn nested(n: usize, g0: usize, seed: u64) -> HierarchicalPartitioning {
        let mut rng = StdRng::seed_from_u64(seed);
        let coarse: Vec<u32> = (0..n).map(|_| rng.gen_range(0..g0 as u32)).collect();
        let fine: Vec<u32> = coarse
            .iter()
            .map(|&g| g * 2 + rng.gen_range(0..2u32))
            .collect();
        HierarchicalPartitioning::new(vec![
            Partitioning::from_assignment(coarse, g0),
            Partitioning::from_assignment(fine, g0 * 2),
        ])
    }

    #[test]
    fn nesting_validation_accepts_nested() {
        let hp = nested(100, 4, 1);
        assert_eq!(hp.n_levels(), 2);
        let total_children: usize = (0..4u32).map(|g| hp.children(0, g).len()).sum();
        assert_eq!(total_children, hp.finest().n_groups());
    }

    #[test]
    #[should_panic(expected = "not nested")]
    fn nesting_validation_rejects_crossing() {
        HierarchicalPartitioning::new(vec![
            Partitioning::from_assignment(vec![0, 0, 1, 1], 2),
            Partitioning::from_assignment(vec![0, 1, 1, 2], 3), // fine group 1 spans both
        ]);
    }

    #[test]
    fn htgm_results_match_flat_index() {
        let db = ZipfianGenerator::new(400, 250, 7.0, 1.1).generate(17);
        let hp = nested(db.len(), 8, 2);
        let flat = Les3Index::build(db.clone(), hp.finest().clone(), Jaccard);
        let htgm = Htgm::build(db.clone(), hp, Jaccard);
        for qid in [0u32, 50, 399] {
            let q = db.set(qid).to_vec();
            let a = htgm.range(&q, 0.5);
            let b = flat.range(&q, 0.5);
            assert_eq!(a.hits, b.hits, "range qid {qid}");
            let a = htgm.knn(&q, 10);
            let b = flat.knn(&q, 10);
            let asims: Vec<f64> = a.hits.iter().map(|h| h.1).collect();
            let bsims: Vec<f64> = b.hits.iter().map(|h| h.1).collect();
            assert_eq!(asims, bsims, "knn qid {qid}");
        }
    }

    #[test]
    fn htgm_wins_on_dissimilar_data() {
        // Figure 14's regime: the coarse level prunes, so HTGM performs
        // less filter work than the flat TGM. `columns_checked` counts
        // the TGM bits actually visited (not the dense `|Q|·G` proxy an
        // earlier revision charged), so the win shows on data with
        // *popular* tokens whose coarse columns saturate at 32 groups
        // while their fine columns approach 256 — the Zipfian case. On
        // uniformly rare tokens both levels' columns are equally sparse
        // and a random hierarchy genuinely does not pay for itself.
        let db = ZipfianGenerator::new(2000, 1000, 10.0, 1.1).generate(3);
        let mut rng = StdRng::seed_from_u64(4);
        let coarse: Vec<u32> = (0..db.len()).map(|_| rng.gen_range(0..32u32)).collect();
        let fine: Vec<u32> = coarse
            .iter()
            .map(|&g| g * 8 + rng.gen_range(0..8u32))
            .collect();
        let hp = HierarchicalPartitioning::new(vec![
            Partitioning::from_assignment(coarse, 32),
            Partitioning::from_assignment(fine, 256),
        ]);
        let flat = Les3Index::build(db.clone(), hp.finest().clone(), Jaccard);
        let htgm = Htgm::build(db.clone(), hp, Jaccard);
        let mut flat_cols = 0usize;
        let mut h_cols = 0usize;
        for qid in 0..30u32 {
            let q = db.set(qid).to_vec();
            flat_cols += flat.range(&q, 0.8).stats.columns_checked;
            h_cols += htgm.range(&q, 0.8).stats.columns_checked;
        }
        assert!(
            h_cols < flat_cols,
            "HTGM {h_cols} columns vs flat {flat_cols}"
        );
    }

    #[test]
    fn three_level_hierarchy_works() {
        let db = ZipfianGenerator::new(300, 150, 5.0, 1.0).generate(9);
        let mut rng = StdRng::seed_from_u64(5);
        let l0: Vec<u32> = (0..db.len()).map(|_| rng.gen_range(0..4u32)).collect();
        let l1: Vec<u32> = l0.iter().map(|&g| g * 2 + rng.gen_range(0..2u32)).collect();
        let l2: Vec<u32> = l1.iter().map(|&g| g * 2 + rng.gen_range(0..2u32)).collect();
        let hp = HierarchicalPartitioning::new(vec![
            Partitioning::from_assignment(l0, 4),
            Partitioning::from_assignment(l1, 8),
            Partitioning::from_assignment(l2, 16),
        ]);
        let flat = Les3Index::build(db.clone(), hp.finest().clone(), Jaccard);
        let htgm = Htgm::build(db.clone(), hp, Jaccard);
        let q = db.set(7).to_vec();
        assert_eq!(htgm.range(&q, 0.4).hits, flat.range(&q, 0.4).hits);
        let a: Vec<f64> = htgm.knn(&q, 7).hits.iter().map(|h| h.1).collect();
        let b: Vec<f64> = flat.knn(&q, 7).hits.iter().map(|h| h.1).collect();
        assert_eq!(a, b);
    }
}
