//! Set representations (paper §5.3, compared in §7.3 / Figure 8).
//!
//! A Siamese network needs vector inputs, so sets must be embedded. The
//! paper proposes PTR (path-table representation) and compares it against
//! PCA, MDS, Binary Encoding, and the PTR-half ablation. All of them are
//! reimplemented here behind a common interface.

pub mod binary;
pub mod mds;
pub mod pca;
pub mod ptr;

pub use binary::BinaryEncoding;
pub use mds::Mds;
pub use pca::Pca;
pub use ptr::{Ptr, PtrHalf};

use les3_data::{SetDatabase, TokenId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An inductive set → vector embedding (can embed unseen sets).
pub trait SetRepresentation {
    /// Output dimensionality.
    fn dim(&self) -> usize;

    /// Writes the representation of `set` into `out` (`out.len() == dim`).
    fn rep_into(&self, set: &[TokenId], out: &mut [f64]);

    /// Convenience allocation variant.
    fn rep(&self, set: &[TokenId]) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.rep_into(set, &mut out);
        out
    }
}

/// A row-major `n × dim` matrix of set representations — the common
/// currency consumed by the L2P trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct RepMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl RepMatrix {
    /// Builds by embedding every database set with an inductive
    /// representation.
    pub fn from_representation<R: SetRepresentation + ?Sized>(db: &SetDatabase, rep: &R) -> Self {
        let dim = rep.dim();
        let mut data = vec![0.0; db.len() * dim];
        for (id, set) in db.iter() {
            rep.rep_into(set, &mut data[id as usize * dim..(id as usize + 1) * dim]);
        }
        Self { data, dim }
    }

    /// Wraps an existing row-major matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_raw(data: Vec<f64>, dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "data must be n × dim"
        );
        Self { data, dim }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Scales every entry (L2P normalizes PTR counts by the mean set size
    /// to keep sigmoid inputs in a trainable range).
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }
}

/// The top-`d` eigenvectors of the symmetric operator `mul` on
/// `len`-vectors, by power iteration with deflation, each with the norm of
/// its last iterate (its eigenvalue estimate). One RNG serves the call:
/// each start vector is drawn uniformly from `[-1, 1)^len` before its
/// `iterations` rounds, and every iterate is deflated against the vectors
/// found before it, in order. An iterate whose norm falls below `1e-12`
/// ends its rounds and the previous vector stands. [`Mds`] and [`Pca`]
/// both extract their components here.
pub(crate) fn power_iteration(
    len: usize,
    d: usize,
    iterations: usize,
    seed: u64,
    mul: impl Fn(&[f64]) -> Vec<f64>,
) -> Vec<(Vec<f64>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut found: Vec<(Vec<f64>, f64)> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut v: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        normalize(&mut v);
        let mut norm = 0.0;
        for _ in 0..iterations {
            let mut next = mul(&v);
            for (u, _) in &found {
                let d = dot(&next, u);
                for (x, y) in next.iter_mut().zip(u) {
                    *x -= d * y;
                }
            }
            norm = normalize(&mut next);
            if norm < 1e-12 {
                break;
            }
            v = next;
        }
        found.push((v, norm));
    }
    found
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Scales `v` to unit length (a zero vector stays zero); returns the norm.
fn normalize(v: &mut [f64]) -> f64 {
    let norm = dot(v, v).sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_matrix_round_trip() {
        let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![2, 3]]);
        let ptr = Ptr::new(db.universe_size());
        let m = RepMatrix::from_representation(&db, &ptr);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), ptr.dim());
        assert_eq!(m.row(0), ptr.rep(db.set(0)).as_slice());
        assert_eq!(m.row(1), ptr.rep(db.set(1)).as_slice());
    }

    #[test]
    fn scale_scales_all_entries() {
        let mut m = RepMatrix::from_raw(vec![1.0, 2.0, 3.0, 4.0], 2);
        m.scale(0.5);
        assert_eq!(m.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "n × dim")]
    fn from_raw_rejects_ragged() {
        RepMatrix::from_raw(vec![1.0, 2.0, 3.0], 2);
    }
}
