//! PAR-D: divisive clustering (paper §4.3.3).
//!
//! Top-down splitting: start with all sets in one group; repeatedly pick
//! the group with the largest estimated `φ(G)` (sum of pairwise
//! distances), seed a new group with a random member (the paper's
//! simplification of choosing the max-total-distance member), and move
//! over every member whose move reduces the GPO.

use crate::objective::{distance_sum, from_groups, sample_members, within_pairs};
use les3_core::{Partitioning, Similarity};
use les3_data::{SetDatabase, SetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Members sampled when estimating distances and `φ`.
const SAMPLE: usize = 16;
/// RNG seed.
const SEED: u64 = 0;

/// The divisive partitioner.
#[derive(Debug, Clone)]
pub struct ParD {
    /// Target number of groups.
    pub n_groups: usize,
}

impl ParD {
    /// PAR-D into `n_groups` groups.
    pub fn new(n_groups: usize) -> Self {
        Self { n_groups }
    }

    /// Runs the partitioner.
    pub fn partition<S: Similarity>(&self, db: &SetDatabase, sim: S) -> Partitioning {
        assert!(self.n_groups >= 1);
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut groups: Vec<Vec<SetId>> = vec![(0..db.len() as SetId).collect()];
        while groups.len() < self.n_groups {
            // Find the group with the largest estimated φ (only splittable
            // ones).
            let candidates: Vec<usize> = (0..groups.len())
                .filter(|&g| groups[g].len() >= 2)
                .collect();
            if candidates.is_empty() {
                break;
            }
            let target = *candidates
                .iter()
                .max_by(|&&a, &&b| {
                    let pa = estimated_phi(db, sim, &groups[a], &mut rng);
                    let pb = estimated_phi(db, sim, &groups[b], &mut rng);
                    pa.total_cmp(&pb)
                })
                .unwrap();
            // Seed the new group with a random member (§4.3.3 step 3).
            let seed_idx = rng.gen_range(0..groups[target].len());
            let seed_set = groups[target].swap_remove(seed_idx);
            let mut new_group = vec![seed_set];
            // Move members whose estimated distance to the new group is
            // smaller than to what stays behind ("move S′ to G_new if such
            // movement reduces the overall GPO").
            let mut remaining = Vec::with_capacity(groups[target].len());
            let old = std::mem::take(&mut groups[target]);
            for id in old {
                let to_new = mean_distance(db, sim, id, &new_group, &mut rng);
                let to_old = mean_distance(db, sim, id, &remaining, &mut rng);
                if to_new < to_old {
                    new_group.push(id);
                } else {
                    remaining.push(id);
                }
            }
            if remaining.is_empty() {
                // Degenerate split: put half back to guarantee progress.
                let half = new_group.split_off(new_group.len() / 2);
                groups[target] = half;
            } else {
                groups[target] = remaining;
            }
            groups.push(new_group);
        }
        from_groups(db.len(), &groups)
    }
}

/// Estimated `φ(G)` = mean sampled pairwise distance × (ordered) pairs,
/// for a splittable group (two or more members).
fn estimated_phi<S: Similarity>(
    db: &SetDatabase,
    sim: S,
    group: &[SetId],
    rng: &mut StdRng,
) -> f64 {
    let m = group.len();
    let sample = sample_members(group, SAMPLE, rng);
    let (acc, count) = distance_sum(db, sim, within_pairs(&sample));
    acc / count as f64 * (m * (m - 1)) as f64
}

/// Mean distance from `id` to a sample of `group` (infinite when empty).
fn mean_distance<S: Similarity>(
    db: &SetDatabase,
    sim: S,
    id: SetId,
    group: &[SetId],
    rng: &mut StdRng,
) -> f64 {
    if group.is_empty() {
        return f64::INFINITY;
    }
    let sample = sample_members(group, SAMPLE, rng);
    let (acc, count) = distance_sum(db, sim, sample.iter().map(|&o| (id, o)));
    acc / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::gpo;
    use les3_core::sim::Jaccard;

    fn clustered_db() -> SetDatabase {
        let mut sets = Vec::new();
        for c in 0..2u32 {
            for i in 0..30u32 {
                let base = c * 500;
                sets.push(vec![base, base + 1, base + 2 + i % 4]);
            }
        }
        SetDatabase::from_sets(sets)
    }

    #[test]
    fn produces_requested_group_count() {
        let db = clustered_db();
        let part = ParD::new(6).partition(&db, Jaccard);
        assert_eq!(part.n_groups(), 6);
        assert_eq!(part.n_sets(), 60);
        assert!(part.group_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn first_split_separates_the_two_clusters() {
        let db = clustered_db();
        let part = ParD::new(2).partition(&db, Jaccard);
        // The 2-way split should align with the true clusters.
        let g0 = part.group_of(0);
        let first_cluster_same: usize =
            (0..30).filter(|&i| part.group_of(i as SetId) == g0).count();
        let second_cluster_same: usize = (30..60)
            .filter(|&i| part.group_of(i as SetId) == g0)
            .count();
        assert!(
            first_cluster_same >= 25 && second_cluster_same <= 5,
            "split impure: {first_cluster_same}/30 vs {second_cluster_same}/30"
        );
    }

    #[test]
    fn beats_single_group_gpo() {
        let db = clustered_db();
        let part = ParD::new(4).partition(&db, Jaccard);
        let single = Partitioning::single_group(db.len());
        assert!(gpo(&db, &part, Jaccard) < gpo(&db, &single, Jaccard));
    }

    #[test]
    fn handles_more_groups_than_sets() {
        let db = SetDatabase::from_sets(vec![vec![0u32], vec![1], vec![2]]);
        let part = ParD::new(10).partition(&db, Jaccard);
        assert!(part.n_groups() <= 10);
        assert_eq!(part.n_sets(), 3);
    }
}
