//! The Adam optimizer (Kingma & Ba, 2015).

use crate::mlp::{Mlp, MlpGradients};

/// Adam optimizer state for an [`Mlp`].
///
/// Maintains first/second moment estimates per parameter and applies
/// bias-corrected updates. The learning rate is [`Adam::new`]'s argument
/// (L2P passes `SiameseConfig::lr`, 0.01); the rest are PyTorch's
/// defaults: `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub eps: f64,
    t: u64,
    /// Per-layer `(m_w, v_w, m_b, v_b)`.
    moments: Vec<LayerMoments>,
}

/// First/second moment estimates for one layer's weights and biases.
type LayerMoments = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

impl Adam {
    /// Creates optimizer state shaped like `mlp` with the given learning rate.
    pub fn new(mlp: &Mlp, lr: f64) -> Self {
        let moments = mlp
            .layers()
            .iter()
            .map(|l| {
                (
                    vec![0.0; l.w.len()],
                    vec![0.0; l.w.len()],
                    vec![0.0; l.b.len()],
                    vec![0.0; l.b.len()],
                )
            })
            .collect();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments,
        }
    }

    /// Applies one update step from accumulated gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grads` was not created from the same network shape.
    pub fn step(&mut self, mlp: &mut Mlp, grads: &MlpGradients) {
        assert_eq!(
            grads.layers.len(),
            self.moments.len(),
            "gradient shape mismatch"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (layer_idx, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (gw, gb) = &grads.layers[layer_idx];
            let (mw, vw, mb, vb) = &mut self.moments[layer_idx];
            Self::update_params(
                &mut layer.w,
                gw,
                mw,
                vw,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
            Self::update_params(
                &mut layer.b,
                gb,
                mb,
                vb,
                self.lr,
                self.beta1,
                self.beta2,
                self.eps,
                bc1,
                bc2,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn update_params(
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        bc1: f64,
        bc2: f64,
    ) {
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam should drive a single sigmoid unit to fit a logistic target
    /// quickly.
    #[test]
    fn converges_on_logistic_regression() {
        let mut mlp = Mlp::new(&[2, 1], 21);
        let mut adam = Adam::new(&mlp, 0.05);
        let data: Vec<([f64; 2], f64)> = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
            .into_iter()
            .map(|x| (x, crate::layer::sigmoid(2.0 * x[0] - x[1] + 1.0)))
            .collect();
        let mut grads = mlp.new_gradients();
        let mut trace = crate::mlp::Trace::default();
        let mut last_loss = f64::INFINITY;
        for _ in 0..500 {
            grads.zero();
            let mut loss = 0.0;
            for (x, y) in &data {
                mlp.forward_traced(x, &mut trace);
                let out = mlp.traced_output(&trace)[0];
                let err = out - y;
                loss += 0.5 * err * err;
                mlp.backward(x, &trace, &[err], &mut grads);
            }
            grads.scale(1.0 / data.len() as f64);
            adam.step(&mut mlp, &grads);
            last_loss = loss / data.len() as f64;
        }
        assert!(last_loss < 1e-3, "final loss {last_loss}");
        assert_eq!(adam.steps(), 500);
        let w = &mlp.layers()[0].w;
        let b = &mlp.layers()[0].b;
        assert!(
            (w[0] - 2.0).abs() < 0.05 && (w[1] + 1.0).abs() < 0.05 && (b[0] - 1.0).abs() < 0.05
        );
    }

    /// Bias correction should make the very first step have magnitude ≈ lr.
    #[test]
    fn first_step_magnitude_is_lr() {
        let mut mlp = Mlp::new(&[1, 1], 2);
        let w0 = mlp.layers()[0].w[0];
        let mut adam = Adam::new(&mlp, 0.01);
        let mut grads = mlp.new_gradients();
        grads.layers[0].0[0] = 5.0; // any nonzero gradient
        adam.step(&mut mlp, &grads);
        let delta = (mlp.layers()[0].w[0] - w0).abs();
        assert!((delta - 0.01).abs() < 1e-6, "delta {delta}");
    }
}
