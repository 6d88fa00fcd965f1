//! Dense (fully connected) layer.

use crate::init;
use rand::rngs::StdRng;

/// The logistic sigmoid `1 / (1 + e^-z)`: every layer's activation, the
/// paper's choice (§7.1).
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// The sigmoid's derivative in terms of its output `y = sigmoid(z)`.
#[inline]
pub fn sigmoid_derivative(y: f64) -> f64 {
    y * (1.0 - y)
}

/// A dense layer computing `sigmoid(W·x + b)`.
///
/// Weights are stored row-major: `w[o * in_dim + i]` connects input `i` to
/// output `o`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Input dimensionality.
    pub in_dim: usize,
    /// Output dimensionality.
    pub out_dim: usize,
    /// Row-major weight matrix, `out_dim × in_dim`.
    pub w: Vec<f64>,
    /// Bias vector, length `out_dim`.
    pub b: Vec<f64>,
}

impl Dense {
    /// Creates a layer with Xavier-initialized weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let mut w = vec![0.0; in_dim * out_dim];
        init::xavier_uniform(rng, in_dim, out_dim, &mut w);
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// The per-sample passes: the oracle [`crate::kernel::BatchKernel`] is
/// held to, bit for bit.
#[cfg(test)]
impl Dense {
    /// Forward pass: writes the activated outputs into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim` or `out.len() != out_dim`.
    pub fn forward(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "input size mismatch");
        assert_eq!(out.len(), self.out_dim, "output size mismatch");
        for (o, out_slot) in out.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut z = self.b[o];
            for (wi, xi) in row.iter().zip(x.iter()) {
                z += wi * xi;
            }
            *out_slot = sigmoid(z);
        }
    }

    /// Reverse pass for one sample.
    ///
    /// * `x` — the layer input used in the forward pass;
    /// * `y` — the layer output produced by the forward pass;
    /// * `dy` — gradient of the loss w.r.t. `y`;
    /// * `grad_w`, `grad_b` — accumulated (+=) parameter gradients;
    /// * `dx` — if `Some`, receives the gradient w.r.t. the layer input.
    pub fn backward(
        &self,
        x: &[f64],
        y: &[f64],
        dy: &[f64],
        grad_w: &mut [f64],
        grad_b: &mut [f64],
        mut dx: Option<&mut [f64]>,
    ) {
        if let Some(dx) = dx.as_deref_mut() {
            dx.fill(0.0);
        }
        for o in 0..self.out_dim {
            // dL/dz = dL/dy * sigmoid'(z), expressed via the output.
            let dz = dy[o] * sigmoid_derivative(y[o]);
            if dz == 0.0 {
                continue;
            }
            grad_b[o] += dz;
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut grad_w[o * self.in_dim..(o + 1) * self.in_dim];
            match dx.as_deref_mut() {
                Some(dx) => {
                    for i in 0..self.in_dim {
                        grow[i] += dz * x[i];
                        dx[i] += dz * row[i];
                    }
                }
                None => {
                    for i in 0..self.in_dim {
                        grow[i] += dz * x[i];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
    }

    #[test]
    fn sigmoid_derivative_matches_finite_differences() {
        let eps = 1e-6;
        for &x in &[-2.0, -0.5, 0.3, 1.7] {
            let numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            let analytic = sigmoid_derivative(sigmoid(x));
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "at {x}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn forward_is_the_sigmoid_of_the_affine_map() {
        let mut layer = Dense::new(2, 2, &mut seeded_rng(0));
        layer.w = vec![1.0, 2.0, 3.0, 4.0];
        layer.b = vec![0.5, -0.5];
        let mut out = vec![0.0; 2];
        layer.forward(&[1.0, 1.0], &mut out);
        assert_eq!(out, vec![sigmoid(3.5), sigmoid(6.5)]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(3);
        let layer = Dense::new(3, 2, &mut rng);
        let x = [0.3, -0.7, 1.1];
        let mut y = vec![0.0; 2];
        layer.forward(&x, &mut y);
        // Loss = sum(y); dL/dy = 1.
        let dy = [1.0, 1.0];
        let mut gw = vec![0.0; 6];
        let mut gb = vec![0.0; 2];
        let mut dx = vec![0.0; 3];
        layer.backward(&x, &y, &dy, &mut gw, &mut gb, Some(&mut dx));

        let eps = 1e-6;
        let loss = |l: &Dense, x: &[f64]| {
            let mut out = vec![0.0; 2];
            l.forward(x, &mut out);
            out.iter().sum::<f64>()
        };
        for (k, &g) in gw.iter().enumerate() {
            let mut lp = layer.clone();
            lp.w[k] += eps;
            let mut lm = layer.clone();
            lm.w[k] -= eps;
            let numeric = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
            assert!((numeric - g).abs() < 1e-6, "w[{k}]: {numeric} vs {g}");
        }
        for k in 0..3 {
            let mut xp = x;
            xp[k] += eps;
            let mut xm = x;
            xm[k] -= eps;
            let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx[k]).abs() < 1e-6,
                "x[{k}]: {numeric} vs {}",
                dx[k]
            );
        }
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn forward_rejects_wrong_input_size() {
        let layer = Dense::new(3, 1, &mut seeded_rng(0));
        let mut out = vec![0.0; 1];
        layer.forward(&[1.0], &mut out);
    }
}
