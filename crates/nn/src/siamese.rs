//! Siamese pair training (paper §5.1, §7.1).
//!
//! A Siamese network is a single [`Mlp`] applied to both elements of a pair;
//! the loss couples the two outputs. The paper's learning objective
//! (Eq. 15) is piecewise constant in the outputs, so it trains with the
//! surrogate (Eq. 18):
//!
//! ```text
//! loss'(Sx, Sy) = W(Ox, Oy) · (1 − Sim(Sx, Sy))   if V(Ox, Oy)
//!              = 0                                 otherwise
//! W(Ox, Oy) = 0.5 − |Ox − Oy|
//! V(Ox, Oy) = both outputs on the same side of 0.5
//! ```
//!
//! Minimizing pushes *dissimilar* same-side pairs to opposite sides of the
//! 0.5 decision boundary, weighted by their dissimilarity, while similar
//! pairs (dissimilarity ≈ 0) generate no force — exactly the grouping
//! pressure Eq. 15 expresses, but with useful gradients.
//!
//! # One forward per distinct row per mini-batch
//!
//! The weights only move at the end of a mini-batch (one Adam step on the
//! batch's mean gradient), so inside a batch a row's activations are a
//! function of the row alone. L2P samples 256 pairs from a group of a few
//! hundred members, so most rows of a batch are touched several times;
//! [`SiameseTrainer::train`] gives each distinct row of the batch a slot,
//! forwards every slot once through the [`BatchKernel`], and every pair
//! that names the row, and its backward passes, read that slot. Nothing
//! else changes: pairs are visited in the same shuffled order, the loss is
//! summed in that order, and each pair's two backward passes add into the
//! gradient buffer in that order — so the weights, the learning curve and
//! everything downstream are bit for bit those of the loop that ran two
//! per-sample forwards per pair (kept as the test oracle in this module).

use crate::adam::Adam;
use crate::kernel::BatchKernel;
use crate::mlp::Mlp;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which pair loss to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairLoss {
    /// The trainable surrogate of Eq. (18).
    Surrogate,
    /// The original hard loss of Eq. (15). Its gradient is zero almost
    /// everywhere; retained for the `ablation_l2p_loss` benchmark, which
    /// demonstrates why the surrogate is necessary.
    Hard,
}

impl PairLoss {
    /// Returns `(loss, dL/dOx, dL/dOy)` for outputs `ox`, `oy` and pair
    /// dissimilarity `d = 1 − Sim`.
    pub fn eval(self, ox: f64, oy: f64, d: f64) -> (f64, f64, f64) {
        let same_side = (ox >= 0.5) == (oy >= 0.5);
        if !same_side {
            return (0.0, 0.0, 0.0);
        }
        match self {
            PairLoss::Hard => (d, 0.0, 0.0),
            PairLoss::Surrogate => {
                let w = 0.5 - (ox - oy).abs();
                let loss = w * d;
                // d/dox [−|ox−oy|·d] = −sign(ox−oy)·d
                let s = if ox > oy {
                    1.0
                } else if ox < oy {
                    -1.0
                } else {
                    0.0
                };
                (loss, -s * d, s * d)
            }
        }
    }
}

/// A borrowed batch of training pairs over a flat representation matrix.
///
/// The trainer keeps one table entry per row, so hand it the rows the
/// pairs can name (L2P: the group's members), not a whole database.
#[derive(Debug, Clone, Copy)]
pub struct PairBatch<'a> {
    /// Row-major `n × dim` representation matrix.
    pub reps: &'a [f64],
    /// Representation dimensionality.
    pub dim: usize,
    /// `(row_a, row_b, dissimilarity)` triples.
    pub pairs: &'a [(u32, u32, f64)],
}

impl<'a> PairBatch<'a> {
    /// Representation of row `idx`.
    #[inline]
    pub fn rep(&self, idx: u32) -> &'a [f64] {
        let start = idx as usize * self.dim;
        &self.reps[start..start + self.dim]
    }
}

/// Training hyperparameters. Defaults follow the paper (§7.1): batch size
/// 256, 3 epochs, Adam, surrogate loss.
#[derive(Debug, Clone)]
pub struct SiameseConfig {
    /// Number of passes over the sampled pairs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Shuffle seed.
    pub seed: u64,
    /// Loss variant.
    pub loss: PairLoss,
}

impl Default for SiameseConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 256,
            lr: 0.01,
            seed: 0,
            loss: PairLoss::Surrogate,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch (the learning curve of Figure 7a).
    pub epoch_losses: Vec<f64>,
    /// Total pairs processed.
    pub pairs_seen: usize,
}

/// Trains one Siamese model over sampled pairs.
#[derive(Debug, Clone, Default)]
pub struct SiameseTrainer {
    /// Hyperparameters.
    pub cfg: SiameseConfig,
}

impl SiameseTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(cfg: SiameseConfig) -> Self {
        Self { cfg }
    }

    /// Runs mini-batch training of `mlp` on `batch`, mutating the network
    /// in place and returning the learning curve.
    pub fn train(&self, mlp: &mut Mlp, batch: PairBatch<'_>) -> TrainReport {
        assert_eq!(
            mlp.out_dim(),
            1,
            "Siamese networks here have one output neuron"
        );
        assert_eq!(
            mlp.in_dim(),
            batch.dim,
            "representation dim must match network input"
        );
        let n_rows = batch.reps.len() / batch.dim;
        let mut adam = Adam::new(mlp, self.cfg.lr);
        let mut grads = mlp.new_gradients();
        let mut kernel = BatchKernel::new(mlp, self.slots(n_rows));
        let mut slots = Slots::new(n_rows);
        let mut order: Vec<usize> = (0..batch.pairs.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut epoch_losses = Vec::with_capacity(self.cfg.epochs);
        let mut pairs_seen = 0usize;

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(self.cfg.batch_size.max(1)) {
                grads.zero();
                for &p in chunk {
                    let (a, b, _) = batch.pairs[p];
                    slots.assign(a);
                    slots.assign(b);
                }
                slots.forward(&mut kernel, mlp, &batch);
                for &p in chunk {
                    let (a, b, d) = batch.pairs[p];
                    let (slot_a, slot_b) = (slots.of(a), slots.of(b));
                    let ox = kernel.output(slot_a)[0];
                    let oy = kernel.output(slot_b)[0];
                    let (loss, gx, gy) = self.cfg.loss.eval(ox, oy, d);
                    epoch_loss += loss;
                    let (xa, xb) = (batch.rep(a), batch.rep(b));
                    match (gx != 0.0, gy != 0.0) {
                        (true, true) => kernel.backward(
                            mlp,
                            [xa, xb],
                            [slot_a, slot_b],
                            [&[gx], &[gy]],
                            &mut grads,
                        ),
                        (true, false) => kernel.backward(mlp, [xa], [slot_a], [&[gx]], &mut grads),
                        (false, true) => kernel.backward(mlp, [xb], [slot_b], [&[gy]], &mut grads),
                        (false, false) => {}
                    }
                    pairs_seen += 1;
                }
                grads.scale(1.0 / chunk.len() as f64);
                adam.step(mlp, &grads);
                // The step moved the weights: every slot is stale.
                kernel.load(mlp);
                slots.clear();
            }
            epoch_losses.push(epoch_loss / batch.pairs.len().max(1) as f64);
        }
        TrainReport {
            epoch_losses,
            pairs_seen,
        }
    }

    /// Rows one mini-batch can forward: two per pair, at most every row.
    fn slots(&self, n_rows: usize) -> usize {
        (2 * self.cfg.batch_size.max(1)).min(n_rows)
    }

    /// Heap bytes [`Self::train`] holds while it trains `mlp` over a batch
    /// of `n_rows` rows: the parameters, Adam's two moment vectors, the
    /// gradient buffer, the kernel (input-major weights, one activation
    /// row per slot, backward scratch) and the row → slot table.
    pub fn memory_bytes(&self, mlp: &Mlp, n_rows: usize) -> usize {
        let params = mlp.param_count() * std::mem::size_of::<f64>();
        let slots = self.slots(n_rows);
        let kernel = BatchKernel::new(mlp, slots).heap_bytes();
        let table = (n_rows + slots) * std::mem::size_of::<u32>();
        4 * params + kernel + table
    }
}

/// Which kernel slot holds each row's activations in the current
/// mini-batch. One `u32` per row of the batch's matrix.
struct Slots {
    /// Row → its slot, or `NO_SLOT` if no pair of this mini-batch has
    /// touched the row yet.
    slot_of: Vec<u32>,
    /// Rows forwarded in this mini-batch, in slot order.
    rows: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl Slots {
    fn new(n_rows: usize) -> Self {
        Self {
            slot_of: vec![NO_SLOT; n_rows],
            rows: Vec::new(),
        }
    }

    /// Gives `row` the next free slot unless this mini-batch already
    /// named it.
    fn assign(&mut self, row: u32) {
        if self.slot_of[row as usize] == NO_SLOT {
            self.slot_of[row as usize] = self.rows.len() as u32;
            self.rows.push(row);
        }
    }

    /// The slot of a row [`Self::assign`]ed in this mini-batch.
    fn of(&self, row: u32) -> usize {
        self.slot_of[row as usize] as usize
    }

    /// Forwards every assigned row into its slot, two at a time.
    fn forward(&self, kernel: &mut BatchKernel, mlp: &Mlp, batch: &PairBatch<'_>) {
        let mut pairs = self.rows.chunks_exact(2);
        for (slot, two) in (0..).step_by(2).zip(&mut pairs) {
            let xs = [batch.rep(two[0]), batch.rep(two[1])];
            kernel.forward(mlp, xs, [slot, slot + 1]);
        }
        if let [row] = pairs.remainder() {
            kernel.forward(mlp, [batch.rep(*row)], [self.rows.len() - 1]);
        }
    }

    /// Forgets every row (the weights changed).
    fn clear(&mut self) {
        for row in self.rows.drain(..) {
            self.slot_of[row as usize] = NO_SLOT;
        }
    }
}

/// The network's output for every row of a row-major `n × dim` matrix,
/// each forwarded through one reused kernel slot.
pub fn outputs(mlp: &Mlp, reps: &[f64], dim: usize) -> Vec<f64> {
    debug_assert_eq!(mlp.out_dim(), 1);
    let mut kernel = BatchKernel::new(mlp, 1);
    reps.chunks_exact(dim)
        .map(|rep| {
            kernel.forward(mlp, [rep], [0]);
            kernel.output(0)[0]
        })
        .collect()
}

/// Side of the 0.5 decision boundary an output falls on:
/// `false` = first sub-group (`O < 0.5`), `true` = second (`O ≥ 0.5`).
pub fn assign_side(output: f64) -> bool {
    output >= 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::kernel::FORWARDS;
    use crate::mlp::Trace;
    use proptest::prelude::*;

    /// The trainer as it was before rows were memoised: two forwards per
    /// pair, whatever the batch has already seen, through the per-sample
    /// passes (`Mlp::forward_traced` / `Mlp::backward`, test-only) — never
    /// the kernel. Kept as the oracle [`SiameseTrainer::train`] must equal
    /// bit for bit.
    fn train_per_pair(cfg: &SiameseConfig, mlp: &mut Mlp, batch: PairBatch<'_>) -> TrainReport {
        let mut adam = Adam::new(mlp, cfg.lr);
        let mut grads = mlp.new_gradients();
        let mut trace_x = Trace::default();
        let mut trace_y = Trace::default();
        let mut order: Vec<usize> = (0..batch.pairs.len()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut pairs_seen = 0usize;

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                grads.zero();
                for &p in chunk {
                    let (a, b, d) = batch.pairs[p];
                    let xa = batch.rep(a);
                    let xb = batch.rep(b);
                    mlp.forward_traced(xa, &mut trace_x);
                    let ox = mlp.traced_output(&trace_x)[0];
                    mlp.forward_traced(xb, &mut trace_y);
                    let oy = mlp.traced_output(&trace_y)[0];
                    let (loss, gx, gy) = cfg.loss.eval(ox, oy, d);
                    epoch_loss += loss;
                    if gx != 0.0 {
                        mlp.backward(xa, &trace_x, &[gx], &mut grads);
                    }
                    if gy != 0.0 {
                        mlp.backward(xb, &trace_y, &[gy], &mut grads);
                    }
                    pairs_seen += 1;
                }
                grads.scale(1.0 / chunk.len() as f64);
                adam.step(mlp, &grads);
            }
            epoch_losses.push(epoch_loss / batch.pairs.len().max(1) as f64);
        }
        TrainReport {
            epoch_losses,
            pairs_seen,
        }
    }

    fn parameter_bits(mlp: &Mlp) -> Vec<u64> {
        mlp.layers()
            .iter()
            .flat_map(|l| l.w.iter().chain(&l.b))
            .map(|v| v.to_bits())
            .collect()
    }

    /// Trains one copy of `mlp` with [`SiameseTrainer::train`] and one with
    /// the per-pair oracle and asserts they end bit for bit alike.
    fn assert_trainers_agree(cfg: &SiameseConfig, mlp: &Mlp, batch: PairBatch<'_>) {
        let mut kernel = mlp.clone();
        let mut per_pair = mlp.clone();
        let got = SiameseTrainer::new(cfg.clone()).train(&mut kernel, batch);
        let want = train_per_pair(cfg, &mut per_pair, batch);
        assert_eq!(parameter_bits(&kernel), parameter_bits(&per_pair));
        let bits = |r: &TrainReport| {
            r.epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.pairs_seen, want.pairs_seen);
    }

    /// `n_rows × dim` values in `[-1.5, 1.5)` and `n_pairs` pairs over
    /// them, dissimilarities in quarters.
    fn random_batch(
        dim: usize,
        n_rows: usize,
        n_pairs: usize,
        seed: u64,
    ) -> (Vec<f64>, Vec<(u32, u32, f64)>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let reps = (0..n_rows * dim)
            .map(|_| rng.gen_range(-1.5..1.5))
            .collect();
        let pairs = (0..n_pairs)
            .map(|_| {
                let (a, b) = (rng.gen_range(0..n_rows), rng.gen_range(0..n_rows));
                (a as u32, b as u32, rng.gen_range(0..5u32) as f64 / 4.0)
            })
            .collect();
        (reps, pairs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Few rows and many pairs: most pairs of a batch repeat a row,
        /// some repeat a whole pair, some are a row with itself or with a
        /// duplicate (`d = 0`). Input widths reach the product's PTR
        /// dimensions (28 on KOSARAK, 34 on LIVEJ) and hidden widths run
        /// past two forward blocks, so every layer takes its block path,
        /// its scalar tail, or both.
        #[test]
        fn memoised_training_equals_the_per_pair_loop_bit_for_bit(
            (dim, n_rows) in (1usize..=40, 1usize..12),
            hidden in prop::collection::vec(1usize..=17, 0..3),
            act in prop_oneof![
                Just(Activation::Sigmoid),
                Just(Activation::Tanh),
                Just(Activation::Relu),
                Just(Activation::Identity),
            ],
            (batch_size, epochs) in (1usize..20, 1usize..4),
            n_pairs in 0usize..60,
            hard in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (reps, pairs) = random_batch(dim, n_rows, n_pairs, seed);
            let mut widths = vec![dim];
            widths.extend(&hidden);
            widths.push(1);
            let cfg = SiameseConfig {
                epochs,
                batch_size,
                lr: 0.05,
                seed: seed ^ 0x5eed,
                loss: if hard { PairLoss::Hard } else { PairLoss::Surrogate },
            };
            let batch = PairBatch { reps: &reps, dim, pairs: &pairs };
            assert_trainers_agree(&cfg, &Mlp::new(&widths, act, seed), batch);
        }

        /// [`outputs`] decides every split: it must be the per-sample
        /// forward pass, bit for bit, at every shape.
        #[test]
        fn outputs_equal_the_per_sample_forward_bit_for_bit(
            (dim, n_rows) in (1usize..=40, 0usize..12),
            hidden in prop::collection::vec(1usize..=17, 0..3),
            act in prop_oneof![
                Just(Activation::Sigmoid),
                Just(Activation::Tanh),
                Just(Activation::Relu),
                Just(Activation::Identity),
            ],
            seed in any::<u64>(),
        ) {
            let (reps, _) = random_batch(dim, n_rows, 0, seed);
            let mut widths = vec![dim];
            widths.extend(&hidden);
            widths.push(1);
            // Nonzero biases: a fresh network's are zero, which would hide
            // where a sum adds its bias.
            let mut mlp = Mlp::new(&widths, act, seed);
            for (layer, bias) in mlp.layers_mut().iter_mut().zip(1u32..) {
                for (b, k) in layer.b.iter_mut().zip(1u32..) {
                    *b = (0.37 * (bias * 11 + k) as f64).sin();
                }
            }
            let mut trace = Trace::default();
            let want: Vec<u64> = reps
                .chunks_exact(dim)
                .map(|x| {
                    mlp.forward_traced(x, &mut trace);
                    mlp.traced_output(&trace)[0].to_bits()
                })
                .collect();
            let got: Vec<u64> = outputs(&mlp, &reps, dim).iter().map(|o| o.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn the_products_network_trains_bit_for_bit() {
        // L2P's model on KOSARAK's PTR dimension: [28, 8, 8, 1] sigmoid,
        // 5 000 pairs over a 156-member group, the default batch, epochs
        // and learning rate.
        let (reps, pairs) = random_batch(28, 156, 5_000, 28);
        let mlp = Mlp::new(&[28, 8, 8, 1], Activation::Sigmoid, 7);
        let batch = PairBatch {
            reps: &reps,
            dim: 28,
            pairs: &pairs,
        };
        assert_trainers_agree(&SiameseConfig::default(), &mlp, batch);
    }

    #[test]
    fn memory_bytes_count_what_training_holds() {
        // [28, 8, 8, 1]: 232 + 72 + 9 = 313 parameters. The trainer holds
        // them, Adam's two moments and the gradient (4 × 313 × 8 B); the
        // kernel's input-major weights (a 28 × 8 and an 8 × 8 block; the
        // output neuron is a tail and reads the network's row) and a
        // 17-wide activation row for each of 2 × 256 slots, plus two 2 × 8
        // rows of backward scratch (8 B each); and a u32 per row and per
        // slot.
        let mlp = Mlp::new(&[28, 8, 8, 1], Activation::Sigmoid, 0);
        let trainer = SiameseTrainer::default();
        let floats = 4 * 313 + (28 + 8) * 8 + 512 * 17 + 2 * 2 * 8;
        assert_eq!(floats * 8 + (625 + 512) * 4, 86_756);
        assert_eq!(trainer.memory_bytes(&mlp, 625), 86_756);
        // A group smaller than two batches' rows holds one slot per row.
        let floats = 4 * 313 + (28 + 8) * 8 + 156 * 17 + 2 * 2 * 8;
        assert_eq!(floats * 8 + (156 + 156) * 4, 35_040);
        assert_eq!(trainer.memory_bytes(&mlp, 156), 35_040);
    }

    #[test]
    fn a_mini_batch_forwards_each_distinct_row_once() {
        // Seven rows, one epoch, one batch of 40 pairs that never name
        // row 6 and repeat the other six many times.
        let (dim, n_rows) = (3usize, 7usize);
        let reps: Vec<f64> = (0..n_rows * dim).map(|i| (i as f64 * 0.37).sin()).collect();
        let pairs: Vec<(u32, u32, f64)> = (0..40u32)
            .map(|i| (i % 6, (i * i + 1) % 6, 0.25 * (i % 5) as f64))
            .collect();
        let distinct: std::collections::BTreeSet<u32> =
            pairs.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        assert_eq!(distinct.len(), 6);
        let mut mlp = Mlp::new(&[dim, 4, 1], Activation::Sigmoid, 2);
        let trainer = SiameseTrainer::new(SiameseConfig {
            epochs: 1,
            batch_size: 64,
            ..Default::default()
        });
        let before = FORWARDS.with(|n| n.get());
        trainer.train(
            &mut mlp,
            PairBatch {
                reps: &reps,
                dim,
                pairs: &pairs,
            },
        );
        assert_eq!(FORWARDS.with(|n| n.get()) - before, distinct.len());

        // Two batches of 20: the step makes every slot stale, so a row is
        // forwarded again in the second batch that names it.
        let trainer = SiameseTrainer::new(SiameseConfig {
            batch_size: 20,
            ..trainer.cfg
        });
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(trainer.cfg.seed));
        let per_batch: usize = order
            .chunks(20)
            .map(|chunk| {
                let rows: std::collections::BTreeSet<u32> = chunk
                    .iter()
                    .flat_map(|&p| [pairs[p].0, pairs[p].1])
                    .collect();
                rows.len()
            })
            .sum();
        assert!(per_batch > distinct.len());
        let before = FORWARDS.with(|n| n.get());
        trainer.train(
            &mut mlp,
            PairBatch {
                reps: &reps,
                dim,
                pairs: &pairs,
            },
        );
        assert_eq!(FORWARDS.with(|n| n.get()) - before, per_batch);
    }

    #[test]
    fn surrogate_loss_values_and_gradients() {
        // Same side, ox > oy: loss = (0.5 - 0.1) * 0.8 = 0.32
        let (l, gx, gy) = PairLoss::Surrogate.eval(0.7, 0.6, 0.8);
        assert!((l - 0.32).abs() < 1e-12);
        assert_eq!((gx, gy), (-0.8, 0.8));
        // Opposite sides: no loss, no gradient.
        let (l, gx, gy) = PairLoss::Surrogate.eval(0.7, 0.3, 0.8);
        assert_eq!((l, gx, gy), (0.0, 0.0, 0.0));
        // Equal outputs: zero (sub)gradient but max weight.
        let (l, gx, gy) = PairLoss::Surrogate.eval(0.6, 0.6, 1.0);
        assert!((l - 0.5).abs() < 1e-12);
        assert_eq!((gx, gy), (0.0, 0.0));
    }

    #[test]
    fn surrogate_gradient_matches_finite_difference() {
        let eps = 1e-7;
        for &(ox, oy, d) in &[(0.7, 0.62, 0.9), (0.2, 0.45, 0.5), (0.9, 0.55, 1.0)] {
            let (_, gx, gy) = PairLoss::Surrogate.eval(ox, oy, d);
            let num_gx = (PairLoss::Surrogate.eval(ox + eps, oy, d).0
                - PairLoss::Surrogate.eval(ox - eps, oy, d).0)
                / (2.0 * eps);
            let num_gy = (PairLoss::Surrogate.eval(ox, oy + eps, d).0
                - PairLoss::Surrogate.eval(ox, oy - eps, d).0)
                / (2.0 * eps);
            assert!((gx - num_gx).abs() < 1e-5, "gx {gx} vs {num_gx}");
            assert!((gy - num_gy).abs() < 1e-5, "gy {gy} vs {num_gy}");
        }
    }

    #[test]
    fn hard_loss_has_zero_gradient_and_freezes_training() {
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 1);
        let before = mlp.layers()[0].w.clone();
        let reps = vec![0.0, 0.0, 1.0, 1.0];
        let pairs = vec![(0u32, 1u32, 1.0)];
        let trainer = SiameseTrainer::new(SiameseConfig {
            loss: PairLoss::Hard,
            epochs: 5,
            ..Default::default()
        });
        let report = trainer.train(
            &mut mlp,
            PairBatch {
                reps: &reps,
                dim: 2,
                pairs: &pairs,
            },
        );
        assert_eq!(
            mlp.layers()[0].w,
            before,
            "hard loss must not move parameters"
        );
        assert!(report.epoch_losses.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn learns_to_separate_two_clusters() {
        // Two clusters in 4-d space; cross-cluster pairs are dissimilar.
        let n_per = 40usize;
        let dim = 4usize;
        let mut reps = Vec::with_capacity(2 * n_per * dim);
        let mut rng = crate::init::seeded_rng(33);
        use rand::Rng;
        for _ in 0..n_per {
            for _ in 0..dim {
                reps.push(rng.gen_range(-0.1..0.1) - 1.0);
            }
        }
        for _ in 0..n_per {
            for _ in 0..dim {
                reps.push(rng.gen_range(-0.1..0.1) + 1.0);
            }
        }
        let mut pairs = Vec::new();
        for _ in 0..3000 {
            let a = rng.gen_range(0..2 * n_per) as u32;
            let b = rng.gen_range(0..2 * n_per) as u32;
            if a == b {
                continue;
            }
            let cluster_a = a as usize >= n_per;
            let cluster_b = b as usize >= n_per;
            let d = if cluster_a == cluster_b { 0.05 } else { 1.0 };
            pairs.push((a, b, d));
        }
        let mut mlp = Mlp::new(&[dim, 8, 8, 1], Activation::Sigmoid, 7);
        let trainer = SiameseTrainer::new(SiameseConfig {
            epochs: 20,
            batch_size: 64,
            lr: 0.05,
            seed: 9,
            loss: PairLoss::Surrogate,
        });
        let report = trainer.train(
            &mut mlp,
            PairBatch {
                reps: &reps,
                dim,
                pairs: &pairs,
            },
        );
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "loss should decrease: {:?}",
            report.epoch_losses
        );
        // The two clusters should land on opposite sides of the boundary.
        let sides: Vec<bool> = outputs(&mlp, &reps, dim)
            .into_iter()
            .map(assign_side)
            .collect();
        let first: usize = sides[..n_per].iter().filter(|&&s| s).count();
        let second: usize = sides[n_per..].iter().filter(|&&s| s).count();
        let separated = (first <= n_per / 8 && second >= n_per * 7 / 8)
            || (first >= n_per * 7 / 8 && second <= n_per / 8);
        assert!(
            separated,
            "clusters not separated: {first}/{n_per} vs {second}/{n_per}"
        );
    }

    #[test]
    fn report_counts_pairs() {
        let reps = vec![0.0, 1.0, 1.0, 0.0];
        let pairs = vec![(0u32, 1u32, 0.5); 10];
        let mut mlp = Mlp::new(&[2, 4, 1], Activation::Sigmoid, 3);
        let trainer = SiameseTrainer::new(SiameseConfig {
            epochs: 2,
            ..Default::default()
        });
        let report = trainer.train(
            &mut mlp,
            PairBatch {
                reps: &reps,
                dim: 2,
                pairs: &pairs,
            },
        );
        assert_eq!(report.pairs_seen, 20);
        assert_eq!(report.epoch_losses.len(), 2);
    }
}
