//! Classical multidimensional scaling (Figure 8 baseline).
//!
//! MDS embeds the sets so that Euclidean distances approximate the
//! Jaccard distances `1 − Sim`. Classical (Torgerson) MDS double-centers
//! the squared-distance matrix, `B = −½ J D² J`, and uses the top-`d`
//! eigenpairs `rep_j = √λ_j · v_j`, extracted by the crate's one power
//! iteration with deflation (`super::power_iteration`) at `ITERATIONS` = 50
//! rounds per component from seed `SEED` = 0.
//!
//! MDS is transductive — it embeds the training sets directly and needs
//! the full `n × n` distance matrix — which is exactly why the paper finds
//! it "can hardly be applied to the target setting where millions or
//! billions of sets are involved". [`Mds::fit`] therefore returns a
//! [`RepMatrix`] for the given database rather than implementing the
//! inductive [`super::SetRepresentation`] trait.

use super::{dot, power_iteration, RepMatrix};
use les3_core::{Jaccard, Similarity};
use les3_data::SetDatabase;

/// Power-iteration rounds per component.
const ITERATIONS: usize = 50;
/// RNG seed of the power-iteration starts.
const SEED: u64 = 0;

/// Classical MDS embedder.
#[derive(Debug, Clone)]
pub struct Mds {
    /// Output dimensionality.
    pub dim: usize,
}

impl Mds {
    /// Creates an embedder producing `dim`-dimensional coordinates.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }

    /// Embeds every set of `db`.
    ///
    /// # Panics
    ///
    /// Panics if the database is empty. Cost is `O(n²)` memory and time —
    /// cap `n` at a few thousand (the paper samples KOSARAK at 5 % for the
    /// same reason).
    pub fn fit(&self, db: &SetDatabase) -> RepMatrix {
        let n = db.len();
        assert!(n > 0, "cannot embed an empty database");
        // Squared distance matrix D².
        let mut d2 = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = 1.0 - Jaccard.eval(db.set(i as u32), db.set(j as u32));
                let v = dist * dist;
                d2[i * n + j] = v;
                d2[j * n + i] = v;
            }
        }
        // Double centering: B = -1/2 (D² - row - col + grand).
        let mut row_mean = vec![0.0; n];
        for i in 0..n {
            row_mean[i] = d2[i * n..(i + 1) * n].iter().sum::<f64>() / n as f64;
        }
        let grand = row_mean.iter().sum::<f64>() / n as f64;
        let mut b = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                b[i * n + j] = -0.5 * (d2[i * n + j] - row_mean[i] - row_mean[j] + grand);
            }
        }
        // Top-d eigenpairs: rep_j = √λ_j · v_j.
        let b_mul = |v: &[f64]| (0..n).map(|i| dot(&b[i * n..(i + 1) * n], v)).collect();
        let mut coords = vec![0.0f64; n * self.dim];
        for (j, (v, lambda)) in power_iteration(n, self.dim, ITERATIONS, SEED, b_mul)
            .into_iter()
            .enumerate()
        {
            let scale = lambda.max(0.0).sqrt();
            for i in 0..n {
                coords[i * self.dim + j] = scale * v[i];
            }
        }
        RepMatrix::from_raw(coords, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn euclid(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn preserves_cluster_structure() {
        // Two tight clusters: intra-cluster embedded distance must be
        // smaller than inter-cluster.
        let mut sets = Vec::new();
        for i in 0..10u32 {
            sets.push(vec![0, 1, 2, 3, i % 4]); // near-identical
        }
        for i in 0..10u32 {
            sets.push(vec![100, 101, 102, 103, 100 + i % 4]);
        }
        let db = SetDatabase::from_sets(sets);
        let reps = Mds::new(2).fit(&db);
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for i in 0..20 {
            for j in (i + 1)..20 {
                let d = euclid(reps.row(i), reps.row(j));
                if (i < 10) == (j < 10) {
                    intra += d;
                    n_intra += 1;
                } else {
                    inter += d;
                    n_inter += 1;
                }
            }
        }
        let intra = intra / n_intra as f64;
        let inter = inter / n_inter as f64;
        assert!(inter > 2.0 * intra, "inter {inter} vs intra {intra}");
    }

    #[test]
    fn identical_sets_embed_identically() {
        let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![0, 1], vec![5, 6]]);
        let reps = Mds::new(2).fit(&db);
        assert!(euclid(reps.row(0), reps.row(1)) < 1e-6);
        assert!(euclid(reps.row(0), reps.row(2)) > 0.1);
    }

    #[test]
    fn output_shape() {
        let db = SetDatabase::from_sets((0..7u32).map(|i| vec![i, i + 1]));
        let reps = Mds::new(3).fit(&db);
        assert_eq!(reps.len(), 7);
        assert_eq!(reps.dim(), 3);
        assert!(reps.as_slice().iter().all(|v| v.is_finite()));
    }
}
