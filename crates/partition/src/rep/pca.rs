//! PCA over n-hot set vectors (Figure 8 baseline).
//!
//! Principal component analysis of the binary set-token matrix, computed
//! sparsely: the covariance-vector product
//! `Cov·v = (1/n) Σ_i x_i (x_i·v) − μ (μ·v)` only touches the tokens each
//! set contains, so the |T|-dimensional n-hot vectors are never
//! materialized. Components are extracted by the crate's one power
//! iteration with deflation (`super::power_iteration`) at `ITERATIONS` = 25
//! rounds per component from seed `SEED` = 3, the values the `paper`
//! recorder has always fitted with. The paper's point — which the `paper`
//! bench's Figure 8 rows measure (`embed_s`) — is that even this sparse
//! PCA costs orders of magnitude more embedding time than PTR.

use super::{dot, power_iteration, SetRepresentation};
use les3_data::{SetDatabase, TokenId};

/// Power-iteration rounds per component.
const ITERATIONS: usize = 25;
/// RNG seed of the power-iteration starts.
const SEED: u64 = 3;

/// A fitted PCA embedding.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Token-frequency mean vector μ (length |T|).
    mean: Vec<f64>,
    /// `d` principal axes, each of length |T|.
    components: Vec<Vec<f64>>,
}

impl Pca {
    /// Fits `d` components on the database.
    ///
    /// # Panics
    ///
    /// Panics if the database is empty or `d == 0`.
    pub fn fit(db: &SetDatabase, d: usize) -> Self {
        assert!(!db.is_empty(), "cannot fit PCA on an empty database");
        assert!(d > 0, "need at least one component");
        let t = db.universe_size() as usize;
        let n = db.len() as f64;
        let mut mean = vec![0.0; t];
        for (_, set) in db.iter() {
            for &tok in set {
                mean[tok as usize] += 1.0;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let cov = |v: &[f64]| cov_mul(db, &mean, v);
        let components = power_iteration(t, d, ITERATIONS, SEED, cov);
        let components = components.into_iter().map(|(v, _)| v).collect();
        Self { mean, components }
    }
}

/// `Cov·v` computed sparsely (see module docs).
fn cov_mul(db: &SetDatabase, mean: &[f64], v: &[f64]) -> Vec<f64> {
    let n = db.len() as f64;
    let mut out = vec![0.0; mean.len()];
    for (_, set) in db.iter() {
        let mut s = 0.0;
        for &tok in set {
            s += v[tok as usize];
        }
        for &tok in set {
            out[tok as usize] += s;
        }
    }
    let mu_v = dot(mean, v);
    for (o, m) in out.iter_mut().zip(mean) {
        *o = *o / n - m * mu_v;
    }
    out
}

impl SetRepresentation for Pca {
    fn dim(&self) -> usize {
        self.components.len()
    }

    fn rep_into(&self, set: &[TokenId], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.components.len());
        for (j, c) in self.components.iter().enumerate() {
            // (x_S − μ)·w = Σ_{t∈S} w_t − μ·w ; the second term is constant
            // per component but cheap enough to recompute.
            let mut proj = 0.0;
            for &t in set {
                if (t as usize) < c.len() {
                    proj += c[t as usize];
                }
            }
            let mu_w = dot(&self.mean, c);
            out[j] = proj - mu_w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two token regions ⇒ the first principal axis should separate them.
    #[test]
    fn first_component_separates_clusters() {
        let mut sets = Vec::new();
        for i in 0..30u32 {
            sets.push(vec![i % 10, (i + 1) % 10, (i + 2) % 10]);
        }
        for i in 0..30u32 {
            sets.push(vec![100 + i % 10, 100 + (i + 1) % 10, 100 + (i + 2) % 10]);
        }
        let db = SetDatabase::from_sets(sets);
        let pca = Pca::fit(&db, 2);
        let a: Vec<f64> = (0..30u32).map(|i| pca.rep(db.set(i))[0]).collect();
        let b: Vec<f64> = (30..60u32).map(|i| pca.rep(db.set(i))[0]).collect();
        let mean_a = a.iter().sum::<f64>() / 30.0;
        let mean_b = b.iter().sum::<f64>() / 30.0;
        assert!(
            (mean_a - mean_b).abs() > 1.0,
            "cluster means should separate: {mean_a} vs {mean_b}"
        );
        // Within-cluster spread should be smaller than the gap.
        let spread_a = a.iter().map(|x| (x - mean_a).abs()).fold(0.0f64, f64::max);
        assert!(spread_a < (mean_a - mean_b).abs());
    }

    #[test]
    fn components_are_orthonormal() {
        let db =
            SetDatabase::from_sets((0..50u32).map(|i| vec![i % 20, (i * 3) % 20, (i * 7) % 20]));
        let pca = Pca::fit(&db, 3);
        for i in 0..3 {
            let norm = dot(&pca.components[i], &pca.components[i]);
            assert!((norm - 1.0).abs() < 1e-6, "component {i} norm {norm}");
            for j in 0..i {
                let d = dot(&pca.components[i], &pca.components[j]).abs();
                assert!(d < 1e-4, "components {i},{j} not orthogonal: {d}");
            }
        }
    }

    #[test]
    fn unseen_tokens_are_ignored() {
        let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![1, 2], vec![0, 2]]);
        let pca = Pca::fit(&db, 1);
        // A set with an out-of-universe token must not panic.
        let r = pca.rep(&[0, 999]);
        assert_eq!(r.len(), 1);
        assert!(r[0].is_finite());
    }
}
