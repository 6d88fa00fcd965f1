//! Mini-batch forward and backward kernels over flat buffers.
//!
//! Inside a mini-batch the weights do not move, so a batch's distinct rows
//! are forwarded once each into *slots* of one flat activation buffer per
//! layer, and every backward call of the batch reads its row's slot.
//!
//! Both passes repeat the per-sample arithmetic of a dense layer exactly:
//!
//! * **Forward.** The weights are kept a second time, input-major in
//!   blocks of `LANES` (eight) outputs, so a block's outputs advance
//!   together, one input at a time; the last `out % LANES` outputs run one
//!   at a time from the network's own rows. Two rows run side by side.
//!   Each output's sum still starts at its bias and adds
//!   `w · x` for input 0, 1, …, n − 1 in that order, and the activation is
//!   the same call ([`Activation::apply`]: the libm `exp` for sigmoid).
//! * **Backward.** Per layer from the last, for output `o` in ascending
//!   order: `dz = dy[o] · act'(y[o])`, skipped when zero; one add of `dz`
//!   into the bias gradient and one of `dz · x[i]` into each weight
//!   gradient; the input gradient starts at `0.0` and adds `dz · w[o][i]`
//!   over the outputs in ascending order, in registers. Two consecutive
//!   calls share one sweep: every gradient element gets the first call's
//!   add, then the second's.
//!
//! IEEE addition is not associative, but nothing here reassociates: every
//! sum is the same sequence of the same products (and no multiply-add is
//! fused), so the outputs and the gradients are bit for bit those of the
//! per-sample passes (the trainer's tests hold them to that oracle).

use crate::activation::Activation;
use crate::mlp::{Mlp, MlpGradients};

/// Outputs a forward block advances together, and inputs an input-gradient
/// block sums together; a layer's remainder runs through a scalar tail.
const LANES: usize = 8;

/// Backward calls one [`BatchKernel::backward`] runs together.
const MAX_ROWS: usize = 2;

/// Input-major weights and the activations of one mini-batch's rows.
///
/// Holds a copy of the network's weights: call [`Self::load`] after every
/// change to them (the trainer does after each Adam step).
#[derive(Debug, Clone)]
pub struct BatchKernel {
    layers: Vec<KernelLayer>,
    /// Width of a row of the backward scratch: the widest layer.
    widest: usize,
    /// Backward scratch, one row per call of a [`Self::backward`]: the
    /// loss gradient w.r.t. the current layer's output and input.
    up: Vec<f64>,
    down: Vec<f64>,
}

#[derive(Debug, Clone)]
struct KernelLayer {
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    /// The weights of each whole block of [`LANES`] outputs, input-major:
    /// block `j` is `in_dim` rows of `LANES`, entry `[i][k]` the weight
    /// from input `i` to output `j · LANES + k`. The last `out_dim %
    /// LANES` outputs (the tail) read the network's own output-major rows.
    wt: Vec<[f64; LANES]>,
    /// Slot-major outputs: slot `s` holds `acts[s * out_dim..][..out_dim]`.
    acts: Vec<f64>,
}

impl BatchKernel {
    /// A kernel for `mlp` with room for `slots` rows, weights loaded.
    pub fn new(mlp: &Mlp, slots: usize) -> Self {
        let layers = mlp
            .layers()
            .iter()
            .map(|l| KernelLayer {
                in_dim: l.in_dim,
                out_dim: l.out_dim,
                act: l.act,
                wt: vec![[0.0; LANES]; l.out_dim / LANES * l.in_dim],
                acts: vec![0.0; slots * l.out_dim],
            })
            .collect();
        let widest = mlp.layers().iter().map(|l| l.out_dim).max().unwrap_or(0);
        let mut kernel = Self {
            layers,
            widest,
            up: vec![0.0; MAX_ROWS * widest],
            down: vec![0.0; MAX_ROWS * widest],
        };
        kernel.load(mlp);
        kernel
    }

    /// Copies `mlp`'s weights into the blocks' input-major order.
    pub fn load(&mut self, mlp: &Mlp) {
        for (layer, dense) in self.layers.iter_mut().zip(mlp.layers()) {
            let n_in = layer.in_dim;
            for (j, block) in layer.wt.chunks_exact_mut(n_in).enumerate() {
                for lane in 0..LANES {
                    let row = &dense.w[(j * LANES + lane) * n_in..][..n_in];
                    for (w, &v) in block.iter_mut().zip(row) {
                        w[lane] = v;
                    }
                }
            }
        }
    }

    /// Forwards each input `xs[r]` through every layer into `slots[r]`.
    /// `mlp` supplies the biases and the tail rows; its weights must be
    /// the ones last [loaded](Self::load). Two rows at a time (distinct
    /// slots) run side by side: each output's sum is a chain of dependent
    /// adds, and two rows keep two chains in flight.
    ///
    /// # Panics
    ///
    /// Panics if a slot is past the kernel's room or an input is not the
    /// input width.
    pub fn forward<const R: usize>(&mut self, mlp: &Mlp, xs: [&[f64]; R], slots: [usize; R]) {
        #[cfg(test)]
        FORWARDS.with(|n| n.set(n.get() + R));
        for x in xs {
            assert_eq!(x.len(), self.layers[0].in_dim, "input size mismatch");
        }
        for (l, dense) in mlp.layers().iter().enumerate() {
            let (before, rest) = self.layers.split_at_mut(l);
            let layer = &mut rest[0];
            let inputs = match before.last() {
                None => xs,
                Some(prev) => slots.map(|slot| prev.row(slot)),
            };
            let (n_in, n_out, act) = (layer.in_dim, layer.out_dim, layer.act);
            let (bias_blocks, bias_tail) = dense.b.as_chunks::<LANES>();
            for (j, (bias, weights)) in bias_blocks
                .iter()
                .zip(layer.wt.chunks_exact(n_in))
                .enumerate()
            {
                let mut acc = [*bias; R];
                for (i, w) in weights.iter().enumerate() {
                    for (acc, input) in acc.iter_mut().zip(inputs) {
                        let xi = input[i];
                        for k in 0..LANES {
                            acc[k] += w[k] * xi;
                        }
                    }
                }
                for (acc, slot) in acc.into_iter().zip(slots) {
                    let z = &mut layer.acts[slot * n_out + j * LANES..][..LANES];
                    for (z, v) in z.iter_mut().zip(acc) {
                        *z = act.apply(v);
                    }
                }
            }
            let first = bias_blocks.len() * LANES;
            let tail_rows = dense.w[first * n_in..].chunks_exact(n_in);
            for ((o, &bias), row) in (first..).zip(bias_tail).zip(tail_rows) {
                let mut acc = [bias; R];
                for (i, &w) in row.iter().enumerate() {
                    for (acc, input) in acc.iter_mut().zip(inputs) {
                        *acc += w * input[i];
                    }
                }
                for (acc, slot) in acc.into_iter().zip(slots) {
                    layer.acts[slot * n_out + o] = act.apply(acc);
                }
            }
        }
    }

    /// The network output recorded in `slot` by [`Self::forward`].
    pub fn output(&self, slot: usize) -> &[f64] {
        self.layers[self.layers.len() - 1].row(slot)
    }

    /// Accumulates (+=) into `grads` the parameter gradients of `R ≤ 2`
    /// consecutive backward calls: call `r` for the row forwarded into
    /// `slots[r]` from input `xs[r]`, with loss gradient `dys[r]` w.r.t.
    /// the network output. `mlp` supplies the output-major weights. Every
    /// gradient element gets call 0's add, then call 1's.
    pub fn backward<const R: usize>(
        &mut self,
        mlp: &Mlp,
        xs: [&[f64]; R],
        slots: [usize; R],
        dys: [&[f64]; R],
        grads: &mut MlpGradients,
    ) {
        const { assert!(R <= MAX_ROWS, "the backward scratch holds two calls") };
        let Self {
            layers,
            widest,
            up,
            down,
            ..
        } = self;
        let width = *widest;
        for (up, dy) in up.chunks_exact_mut(width).zip(dys) {
            up[..dy.len()].copy_from_slice(dy);
        }
        let layer_grads = mlp.layers().iter().zip(&mut grads.layers);
        for (l, (dense, (gw, gb))) in layer_grads.enumerate().rev() {
            let layer = &layers[l];
            let (n_in, n_out, act) = (layer.in_dim, layer.out_dim, layer.act);
            let inputs = match l {
                0 => xs,
                _ => slots.map(|slot| layers[l - 1].row(slot)),
            };
            // dL/dy becomes dL/dz in place.
            for (dz, &slot) in up.chunks_exact_mut(width).zip(&slots) {
                for (d, &y) in dz.iter_mut().zip(layer.row(slot)) {
                    *d *= act.derivative_from_output(y);
                }
            }
            for (o, (gb, grow)) in gb.iter_mut().zip(gw.chunks_exact_mut(n_in)).enumerate() {
                let dz: [f64; R] = std::array::from_fn(|r| up[r * width + o]);
                if dz.iter().all(|&d| d != 0.0) {
                    for d in dz {
                        *gb += d;
                    }
                    add_scaled_rows(grow, dz, inputs);
                } else {
                    for (d, input) in dz.into_iter().zip(inputs) {
                        if d != 0.0 {
                            *gb += d;
                            add_scaled_rows(grow, [d], [input]);
                        }
                    }
                }
            }
            if l > 0 {
                let rows = down.chunks_exact_mut(width).zip(up.chunks_exact(width));
                for (dx, dz) in rows.take(R) {
                    input_gradient(&mut dx[..n_in], &dz[..n_out], &dense.w);
                }
                std::mem::swap(up, down);
            }
        }
    }

    /// Heap bytes of the input-major weights, the activation buffers and
    /// the backward scratch.
    pub(crate) fn heap_bytes(&self) -> usize {
        let floats: usize = self
            .layers
            .iter()
            .map(|l| l.wt.len() * LANES + l.acts.len())
            .sum::<usize>()
            + self.up.len()
            + self.down.len();
        floats * std::mem::size_of::<f64>()
    }
}

impl KernelLayer {
    #[inline]
    fn row(&self, slot: usize) -> &[f64] {
        &self.acts[slot * self.out_dim..][..self.out_dim]
    }
}

/// `y[i] += a[0] * x[0][i]`, then `+= a[1] * x[1][i]`, … for every `i`:
/// one add per call, in call order, with `y[i]` held in a register
/// between them.
#[inline]
fn add_scaled_rows<const R: usize>(y: &mut [f64], a: [f64; R], x: [&[f64]; R]) {
    for (i, y) in y.iter_mut().enumerate() {
        let mut acc = *y;
        for r in 0..R {
            acc += a[r] * x[r][i];
        }
        *y = acc;
    }
}

/// `dx[i] = Σ_o dz[o] · w[o][i]` over the outputs with `dz[o] != 0`, in
/// ascending order from `0.0`, for the output-major weights `w`. Each
/// block of [`LANES`] inputs sums in registers: the per-sample loop's
/// sums, without a store and reload of `dx` per output.
#[inline]
fn input_gradient(dx: &mut [f64], dz: &[f64], w: &[f64]) {
    let n_in = dx.len();
    let (blocks, tail) = dx.as_chunks_mut::<LANES>();
    for (j, block) in blocks.iter_mut().enumerate() {
        let mut acc = [0.0; LANES];
        for (&d, row) in dz.iter().zip(w.chunks_exact(n_in)) {
            if d != 0.0 {
                let w: &[f64; LANES] = row[j * LANES..][..LANES].try_into().unwrap();
                for k in 0..LANES {
                    acc[k] += d * w[k];
                }
            }
        }
        *block = acc;
    }
    let first = n_in - tail.len();
    for (i, dx) in (first..).zip(tail) {
        let mut acc = 0.0;
        for (&d, row) in dz.iter().zip(w.chunks_exact(n_in)) {
            if d != 0.0 {
                acc += d * row[i];
            }
        }
        *dx = acc;
    }
}

#[cfg(test)]
thread_local! {
    /// Rows forwarded on this thread (tests count them; the product has
    /// no such field).
    pub(crate) static FORWARDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}
