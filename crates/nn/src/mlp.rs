//! Multi-layer perceptron with reverse-mode gradients.

use crate::activation::Activation;
use crate::init::seeded_rng;
use crate::kernel::BatchKernel;
use crate::layer::Dense;

/// A feed-forward network of [`Dense`] layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Per-layer parameter gradients, shaped like the network.
#[derive(Debug, Clone)]
pub struct MlpGradients {
    /// `(grad_w, grad_b)` per layer.
    pub layers: Vec<(Vec<f64>, Vec<f64>)>,
}

impl MlpGradients {
    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        for (gw, gb) in &mut self.layers {
            gw.fill(0.0);
            gb.fill(0.0);
        }
    }

    /// Scales all gradients by `factor` (e.g. 1/batch-size).
    pub fn scale(&mut self, factor: f64) {
        for (gw, gb) in &mut self.layers {
            for g in gw.iter_mut() {
                *g *= factor;
            }
            for g in gb.iter_mut() {
                *g *= factor;
            }
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[32, 8, 8, 1]`
    /// (the paper's architecture for a 32-dimensional PTR input).
    ///
    /// All layers use `act`; weights are Xavier-initialized from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], act: Activation, seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = seeded_rng(seed);
        let layers = widths
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], act, &mut rng))
            .collect();
        Self { layers }
    }

    /// Builds an MLP from explicit layers.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty());
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim
    }

    /// The layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by the optimizer).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Allocates a gradient buffer shaped like this network.
    pub fn new_gradients(&self) -> MlpGradients {
        MlpGradients {
            layers: self
                .layers
                .iter()
                .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
                .collect(),
        }
    }

    /// Convenience forward pass of one input, allocating its own buffers.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut kernel = BatchKernel::new(self, 1);
        kernel.forward(self, [x], [0]);
        kernel.output(0).to_vec()
    }
}

/// Activations of one per-sample forward pass, kept for its backward pass.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `outputs[l]` is the activated output of layer `l`.
    outputs: Vec<Vec<f64>>,
}

/// The per-sample passes the trainer used before [`BatchKernel`]: the
/// oracle its tests hold the kernel to, bit for bit.
#[cfg(test)]
impl Mlp {
    /// Forward pass retaining per-layer outputs in `trace` for
    /// [`Self::backward`]. Reuses `trace`'s buffers across calls.
    pub fn forward_traced(&self, x: &[f64], trace: &mut Trace) {
        trace.outputs.resize(self.layers.len(), Vec::new());
        for (l, layer) in self.layers.iter().enumerate() {
            // Split borrow: earlier outputs are read-only inputs here.
            let (before, rest) = trace.outputs.split_at_mut(l);
            let out = &mut rest[0];
            out.resize(layer.out_dim, 0.0);
            let input: &[f64] = if l == 0 { x } else { &before[l - 1] };
            layer.forward(input, out);
        }
    }

    /// Network output recorded in a trace by [`Self::forward_traced`].
    pub fn traced_output<'t>(&self, trace: &'t Trace) -> &'t [f64] {
        trace.outputs.last().expect("forward_traced not called")
    }

    /// Accumulates parameter gradients for one sample.
    ///
    /// * `x` — the input given to [`Self::forward_traced`];
    /// * `trace` — the recorded activations;
    /// * `dy` — gradient of the loss w.r.t. the network output;
    /// * `grads` — accumulated (+=) parameter gradients.
    pub fn backward(&self, x: &[f64], trace: &Trace, dy: &[f64], grads: &mut MlpGradients) {
        assert_eq!(grads.layers.len(), self.layers.len());
        let mut upstream = dy.to_vec();
        let mut downstream = Vec::new();
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            let input: &[f64] = if l == 0 { x } else { &trace.outputs[l - 1] };
            let output = &trace.outputs[l];
            let (gw, gb) = &mut grads.layers[l];
            if l == 0 {
                layer.backward(input, output, &upstream, gw, gb, None);
            } else {
                downstream.resize(layer.in_dim, 0.0);
                layer.backward(input, output, &upstream, gw, gb, Some(&mut downstream));
                std::mem::swap(&mut upstream, &mut downstream);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_grad(mlp: &Mlp, x: &[f64], layer: usize, is_bias: bool, k: usize) -> f64 {
        let eps = 1e-6;
        let mut plus = mlp.clone();
        let mut minus = mlp.clone();
        if is_bias {
            plus.layers_mut()[layer].b[k] += eps;
            minus.layers_mut()[layer].b[k] -= eps;
        } else {
            plus.layers_mut()[layer].w[k] += eps;
            minus.layers_mut()[layer].w[k] -= eps;
        }
        let f = |m: &Mlp| m.forward(x).iter().sum::<f64>();
        (f(&plus) - f(&minus)) / (2.0 * eps)
    }

    #[test]
    fn backward_matches_finite_difference_all_layers() {
        // Nine hidden outputs: a forward block and a one-output tail.
        let mlp = Mlp::new(&[4, 9, 8, 1], Activation::Sigmoid, 11);
        let x = [0.25, -0.5, 0.75, 1.0];
        let mut kernel = BatchKernel::new(&mlp, 1);
        kernel.forward(&mlp, [&x], [0]);
        let mut grads = mlp.new_gradients();
        kernel.backward(&mlp, [&x], [0], [&[1.0]], &mut grads);

        for l in 0..mlp.layers().len() {
            for k in 0..mlp.layers()[l].w.len() {
                let numeric = numeric_grad(&mlp, &x, l, false, k);
                let analytic = grads.layers[l].0[k];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {l} w[{k}]: {numeric} vs {analytic}"
                );
            }
            for k in 0..mlp.layers()[l].b.len() {
                let numeric = numeric_grad(&mlp, &x, l, true, k);
                let analytic = grads.layers[l].1[k];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {l} b[{k}]: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn backward_scratch_carries_nothing_between_calls() {
        // Two calls into one buffer, one at a time or as one two-call
        // sweep, must equal the two calls' own gradients added in call
        // order: the kernel's scratch is fully rewritten by every call.
        let mlp = Mlp::new(&[3, 5, 2, 1], Activation::Tanh, 4);
        let xs: [&[f64]; 2] = [&[0.5, -1.0, 2.0], &[-0.25, 0.0, 1.5]];
        let dys: [&[f64]; 2] = [&[0.7], &[-1.3]];
        let mut kernel = BatchKernel::new(&mlp, 2);
        kernel.forward(&mlp, xs, [0, 1]);
        let mut shared = mlp.new_gradients();
        let mut separate = Vec::new();
        for slot in 0..2 {
            let call = ([xs[slot]], [slot], [dys[slot]]);
            kernel.backward(&mlp, call.0, call.1, call.2, &mut shared);
            let mut own = mlp.new_gradients();
            kernel.backward(&mlp, call.0, call.1, call.2, &mut own);
            separate.push(own);
        }
        let mut swept = mlp.new_gradients();
        kernel.backward(&mlp, xs, [0, 1], dys, &mut swept);
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let sum = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a + b).collect::<Vec<_>>();
        for grads in [&shared, &swept] {
            for (l, (gw, gb)) in grads.layers.iter().enumerate() {
                let (first, second) = (&separate[0].layers[l], &separate[1].layers[l]);
                assert_eq!(bits(gw), bits(&sum(&first.0, &second.0)), "layer {l} w");
                assert_eq!(bits(gb), bits(&sum(&first.1, &second.1)), "layer {l} b");
            }
        }
    }

    #[test]
    fn forward_traced_reuses_buffers() {
        let mlp = Mlp::new(&[2, 4, 1], Activation::Tanh, 5);
        let mut trace = Trace::default();
        mlp.forward_traced(&[1.0, -1.0], &mut trace);
        let first = mlp.traced_output(&trace)[0];
        mlp.forward_traced(&[1.0, -1.0], &mut trace);
        assert_eq!(mlp.traced_output(&trace)[0], first);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mlp = Mlp::new(&[32, 8, 8, 1], Activation::Sigmoid, 0);
        // 32*8+8 + 8*8+8 + 8*1+1 = 264 + 72 + 9 = 345
        assert_eq!(mlp.param_count(), 345);
        assert_eq!(mlp.in_dim(), 32);
        assert_eq!(mlp.out_dim(), 1);
    }

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(&[4, 4, 1], Activation::Sigmoid, 9);
        let b = Mlp::new(&[4, 4, 1], Activation::Sigmoid, 9);
        assert_eq!(
            a.forward(&[0.1, 0.2, 0.3, 0.4]),
            b.forward(&[0.1, 0.2, 0.3, 0.4])
        );
    }
}
