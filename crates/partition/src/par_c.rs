//! PAR-C: centroid-based partitioning (paper §4.3.2).
//!
//! Iterative relocation in the spirit of k-means/Hartigan: starting from a
//! random partitioning, each set is moved to another group whenever the
//! move decreases the GPO. Following the paper's simplification, the
//! *first-improvement* variant is used (take the first group that improves
//! rather than the best), and group distances are estimated from sampled
//! members (footnote 2).

use crate::objective::{distance_sum, sample_members};
use les3_core::{Partitioning, Similarity};
use les3_data::{SetDatabase, SetId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Maximum relocation passes over the database.
const ROUNDS: usize = 5;
/// Members sampled per group when estimating `Σ_{x∈G} dist(S, x)`.
const SAMPLE: usize = 16;
/// RNG seed.
const SEED: u64 = 0;

/// The centroid-based partitioner.
#[derive(Debug, Clone)]
pub struct ParC {
    /// Target number of groups `n`.
    pub n_groups: usize,
}

impl ParC {
    /// PAR-C into `n_groups` groups.
    pub fn new(n_groups: usize) -> Self {
        Self { n_groups }
    }

    /// Runs the partitioner.
    pub fn partition<S: Similarity>(&self, db: &SetDatabase, sim: S) -> Partitioning {
        assert!(self.n_groups >= 1);
        let n = db.len();
        let mut rng = StdRng::seed_from_u64(SEED);
        // Random initialization (§4.3.2 step 1).
        let mut assignment: Vec<u32> = (0..n)
            .map(|_| rng.gen_range(0..self.n_groups as u32))
            .collect();
        let mut members: Vec<Vec<SetId>> = vec![Vec::new(); self.n_groups];
        for (id, &g) in assignment.iter().enumerate() {
            members[g as usize].push(id as SetId);
        }
        let mut order: Vec<usize> = (0..n).collect();
        let mut group_order: Vec<u32> = (0..self.n_groups as u32).collect();
        for _ in 0..ROUNDS {
            order.shuffle(&mut rng);
            let mut moved = 0usize;
            for &i in &order {
                let id = i as SetId;
                let cur = assignment[i];
                // Estimated total distance to the current group (minus S).
                let d_cur =
                    estimated_total_distance(db, sim, id, &members[cur as usize], true, &mut rng);
                group_order.shuffle(&mut rng);
                for &cand in &group_order {
                    if cand == cur {
                        continue;
                    }
                    let d_new = estimated_total_distance(
                        db,
                        sim,
                        id,
                        &members[cand as usize],
                        false,
                        &mut rng,
                    );
                    // First improvement: Δ = d(S, G_j) − d(S, G_i \ S) < 0.
                    if d_new < d_cur {
                        members[cur as usize].retain(|&x| x != id);
                        members[cand as usize].push(id);
                        assignment[i] = cand;
                        moved += 1;
                        break;
                    }
                }
            }
            if moved == 0 {
                break;
            }
        }
        Partitioning::from_assignment(assignment, self.n_groups)
    }
}

/// Estimates `Σ_{x∈G} (1 − Sim(S, x))` by sampling; `exclude_self`
/// drops `S` from its own group.
fn estimated_total_distance<S: Similarity>(
    db: &SetDatabase,
    sim: S,
    id: SetId,
    group: &[SetId],
    exclude_self: bool,
    rng: &mut StdRng,
) -> f64 {
    let effective = group.len() - usize::from(exclude_self);
    if effective == 0 {
        return 0.0;
    }
    // At least one sampled member is not `S`: a sample of two or more
    // distinct members holds `S` at most once.
    let sample = sample_members(group, SAMPLE, rng);
    let others = sample.iter().filter(|&&o| !(exclude_self && o == id));
    let (acc, count) = distance_sum(db, sim, others.map(|&o| (id, o)));
    acc / count as f64 * effective as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::gpo;
    use les3_core::sim::Jaccard;
    use les3_data::zipfian::ZipfianGenerator;

    fn clustered_db(clusters: usize, per_cluster: usize) -> SetDatabase {
        let mut sets = Vec::new();
        for c in 0..clusters as u32 {
            for i in 0..per_cluster as u32 {
                let base = c * 1000;
                sets.push(vec![base, base + 1, base + 2, base + 3 + i % 3]);
            }
        }
        SetDatabase::from_sets(sets)
    }

    #[test]
    fn improves_gpo_over_random() {
        let db = clustered_db(4, 25);
        let parc = ParC::new(4);
        let result = parc.partition(&db, Jaccard);
        let mut rng = StdRng::seed_from_u64(99);
        let random = Partitioning::from_assignment(
            (0..db.len()).map(|_| rng.gen_range(0..4u32)).collect(),
            4,
        );
        assert!(
            gpo(&db, &result, Jaccard) < gpo(&db, &random, Jaccard),
            "PAR-C should beat random initialization"
        );
    }

    #[test]
    fn recovers_obvious_clusters_mostly() {
        let db = clustered_db(3, 20);
        let result = ParC::new(3).partition(&db, Jaccard);
        // Each true cluster should be dominated by one group label.
        let mut pure = 0;
        for c in 0..3 {
            let labels: Vec<u32> = (0..20)
                .map(|i| result.group_of((c * 20 + i) as SetId))
                .collect();
            let mut counts = [0usize; 3];
            for &l in &labels {
                counts[l as usize] += 1;
            }
            if *counts.iter().max().unwrap() >= 15 {
                pure += 1;
            }
        }
        assert!(
            pure >= 2,
            "at least 2 of 3 clusters should be recovered: {pure}"
        );
    }

    #[test]
    fn runs_on_realistic_data() {
        let db = ZipfianGenerator::new(300, 200, 6.0, 1.1).generate(5);
        let result = ParC::new(8).partition(&db, Jaccard);
        assert_eq!(result.n_sets(), 300);
        assert_eq!(result.n_groups(), 8);
    }
}
