//! PAR-G: graph-cut partitioning (paper §4.3.1).
//!
//! Following Dong et al. (reference \[19\]), the database is turned into a
//! similarity graph — an edge per kNN relation (kNN workloads) or per pair
//! above the threshold δ (range workloads) — which is then cut into `n`
//! balanced parts with few crossing edges. The paper uses PaToH for the
//! cut; [`multilevel`] reimplements the same algorithm family (multilevel
//! heavy-edge-matching coarsening, greedy initial partitioning, FM-style
//! refinement).

pub mod knn_graph;
pub mod multilevel;

pub use knn_graph::{knn_graph, range_graph, SimilarityGraph};
pub use multilevel::partition_graph;

use les3_core::{Partitioning, Similarity};
use les3_data::SetDatabase;

/// Which workload the similarity graph is specialized for (PAR-G "takes k
/// or δ as one of its inputs").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphWorkload {
    /// kNN query workload: edges to the k nearest neighbours.
    Knn(usize),
    /// Range query workload: edges between pairs with `Sim ≥ δ`.
    Range(f64),
}

/// The graph-cut partitioner. Its balance cap and seed are the multilevel
/// cut's constants ([`multilevel`]).
#[derive(Debug, Clone)]
pub struct ParG {
    /// Target number of groups.
    pub n_groups: usize,
    /// Workload the graph is built for.
    pub workload: GraphWorkload,
}

impl ParG {
    /// PAR-G specialized for kNN workloads with the paper's default
    /// `k = 10`.
    pub fn new(n_groups: usize) -> Self {
        Self {
            n_groups,
            workload: GraphWorkload::Knn(10),
        }
    }

    /// Runs graph construction and the multilevel cut.
    pub fn partition<S: Similarity>(&self, db: &SetDatabase, sim: S) -> Partitioning {
        let graph = match self.workload {
            GraphWorkload::Knn(k) => knn_graph(db, k, sim),
            GraphWorkload::Range(delta) => range_graph(db, delta, sim),
        };
        let assignment = partition_graph(&graph, self.n_groups);
        Partitioning::from_assignment(assignment, self.n_groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::gpo;
    use les3_core::sim::Jaccard;
    use les3_core::Partitioning;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_db() -> SetDatabase {
        let mut sets = Vec::new();
        for c in 0..4u32 {
            for i in 0..20u32 {
                let base = c * 100;
                sets.push(vec![base, base + 1, base + 2 + i % 4]);
            }
        }
        SetDatabase::from_sets(sets)
    }

    #[test]
    fn parg_produces_balanced_groups() {
        let db = clustered_db();
        let part = ParG::new(4).partition(&db, Jaccard);
        assert_eq!(part.n_groups(), 4);
        assert!(part.imbalance() <= 1.5, "imbalance {}", part.imbalance());
    }

    #[test]
    fn parg_beats_random_on_gpo() {
        let db = clustered_db();
        let part = ParG::new(4).partition(&db, Jaccard);
        let mut rng = StdRng::seed_from_u64(3);
        let random = Partitioning::from_assignment(
            (0..db.len()).map(|_| rng.gen_range(0..4u32)).collect(),
            4,
        );
        assert!(gpo(&db, &part, Jaccard) < gpo(&db, &random, Jaccard));
    }

    #[test]
    fn parg_repeats_within_one_process() {
        // A std `HashMap` draws its hasher keys per instance: graph code
        // walking one in iteration order gives two calls different cuts.
        let db = les3_data::realistic::DatasetSpec::kosarak()
            .with_sets(1_000)
            .generate(5);
        let first = ParG::new(32).partition(&db, Jaccard);
        let second = ParG::new(32).partition(&db, Jaccard);
        assert_eq!(first.assignment(), second.assignment());
    }

    #[test]
    fn range_workload_variant_runs() {
        let db = clustered_db();
        let parg = ParG {
            workload: GraphWorkload::Range(0.5),
            ..ParG::new(4)
        };
        let part = parg.partition(&db, Jaccard);
        assert_eq!(part.n_sets(), db.len());
    }
}
