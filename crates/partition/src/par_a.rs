//! PAR-A: agglomerative clustering (paper §4.3.4).
//!
//! Bottom-up merging: every set starts as its own group; until `n` groups
//! remain, the smallest group (the paper's heuristic, breaking ties
//! randomly) is merged with the partner minimizing the estimated
//! `φ(G₁ ∪ G₂)`. Partner evaluation samples both candidate groups and —
//! for tractability at scale — a random subset of candidate partners.

use crate::objective::{distance_sum, from_groups, sample_members, within_pairs};
use les3_core::{Partitioning, Similarity};
use les3_data::{SetDatabase, SetId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Members sampled per group in `φ` estimates.
const SAMPLE: usize = 8;
/// Candidate partner groups evaluated per merge (sampled).
const CANDIDATES: usize = 32;
/// RNG seed.
const SEED: u64 = 0;

/// The agglomerative partitioner.
#[derive(Debug, Clone)]
pub struct ParA {
    /// Target number of groups.
    pub n_groups: usize,
}

impl ParA {
    /// PAR-A down to `n_groups` groups.
    pub fn new(n_groups: usize) -> Self {
        Self { n_groups }
    }

    /// Runs the partitioner.
    pub fn partition<S: Similarity>(&self, db: &SetDatabase, sim: S) -> Partitioning {
        assert!(self.n_groups >= 1);
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut groups: Vec<Vec<SetId>> = (0..db.len() as SetId).map(|id| vec![id]).collect();
        while groups.len() > self.n_groups {
            // Smallest group first (§4.3.4 simplification), ties random.
            let min_size = groups.iter().map(Vec::len).min().unwrap();
            let smallest: Vec<usize> = (0..groups.len())
                .filter(|&g| groups[g].len() == min_size)
                .collect();
            let g1 = *smallest.choose(&mut rng).unwrap();
            // Sample candidate partners.
            let mut candidates: Vec<usize> = (0..groups.len()).filter(|&g| g != g1).collect();
            candidates.shuffle(&mut rng);
            candidates.truncate(CANDIDATES);
            let g2 = *candidates
                .iter()
                .min_by(|&&a, &&b| {
                    let pa = estimated_merged_phi(db, sim, &groups[g1], &groups[a], &mut rng);
                    let pb = estimated_merged_phi(db, sim, &groups[g1], &groups[b], &mut rng);
                    pa.total_cmp(&pb)
                })
                .unwrap();
            // Merge g1 into g2 and drop g1.
            let moved = std::mem::take(&mut groups[g1]);
            groups[g2].extend(moved);
            groups.swap_remove(g1);
        }
        from_groups(db.len(), &groups)
    }
}

/// Estimated `φ(G₁ ∪ G₂)`: within-φ of both sides plus the cross term,
/// all from samples. No group is ever empty, so no sum is over nothing.
fn estimated_merged_phi<S: Similarity>(
    db: &SetDatabase,
    sim: S,
    g1: &[SetId],
    g2: &[SetId],
    rng: &mut StdRng,
) -> f64 {
    let s1 = sample_members(g1, SAMPLE, rng);
    let s2 = sample_members(g2, SAMPLE, rng);
    let cross_pairs = s1.iter().flat_map(|&a| s2.iter().map(move |&b| (a, b)));
    let (acc, count) = distance_sum(db, sim, cross_pairs);
    let cross = acc / count as f64 * (2 * g1.len() * g2.len()) as f64;
    let phi_within = |s: &[SetId], full: usize| -> f64 {
        if s.len() < 2 {
            return 0.0;
        }
        let (acc, count) = distance_sum(db, sim, within_pairs(s));
        acc / count as f64 * (full * (full - 1)) as f64
    };
    cross + phi_within(&s1, g1.len()) + phi_within(&s2, g2.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::gpo;
    use les3_core::sim::Jaccard;

    fn clustered_db() -> SetDatabase {
        let mut sets = Vec::new();
        for c in 0..3u32 {
            for i in 0..10u32 {
                let base = c * 100;
                sets.push(vec![base, base + 1, base + 2 + i % 3]);
            }
        }
        SetDatabase::from_sets(sets)
    }

    #[test]
    fn merges_down_to_target_count() {
        let db = clustered_db();
        let part = ParA::new(3).partition(&db, Jaccard);
        assert_eq!(part.n_groups(), 3);
        assert_eq!(part.group_sizes().iter().sum::<usize>(), 30);
    }

    #[test]
    fn early_merges_are_similarity_driven() {
        // PAR-A's min-φ(G₁∪G₂) criterion is nearest-neighbour-like while
        // groups are small, but increasingly biased toward merging *small*
        // groups later on — the paper's §7.4 explanation for its weak
        // results. We therefore only require partial cluster recovery.
        let db = clustered_db();
        let part = ParA::new(3).partition(&db, Jaccard);
        let mut pure = 0;
        for c in 0..3 {
            let mut counts = std::collections::HashMap::new();
            for i in 0..10 {
                *counts
                    .entry(part.group_of((c * 10 + i) as SetId))
                    .or_insert(0usize) += 1;
            }
            if counts.values().copied().max().unwrap() >= 8 {
                pure += 1;
            }
        }
        assert!(pure >= 1, "clusters recovered: {pure}/3");
    }

    #[test]
    fn beats_random_partitioning_gpo() {
        let db = clustered_db();
        let part = ParA::new(3).partition(&db, Jaccard);
        let mut rng = StdRng::seed_from_u64(7);
        let mut random_assignment: Vec<u32> = (0..30).map(|i| (i % 3) as u32).collect();
        random_assignment.shuffle(&mut rng);
        let random = Partitioning::from_assignment(random_assignment, 3);
        assert!(gpo(&db, &part, Jaccard) < gpo(&db, &random, Jaccard));
    }

    #[test]
    fn target_exceeding_set_count_is_identity() {
        let db = SetDatabase::from_sets(vec![vec![0u32], vec![1]]);
        let part = ParA::new(5).partition(&db, Jaccard);
        assert_eq!(part.n_groups(), 2);
    }
}
