//! Minimal neural-network library for LES3's learning-to-partition (L2P).
//!
//! The paper trains its Siamese networks with PyTorch: a multi-layer
//! perceptron with *two hidden layers of eight neurons each*, sigmoid
//! activations, a single sigmoid output neuron, the Adam optimizer, batch
//! size 256, and three epochs (paper §7.1, "Network and Loss Function" and
//! "Training"). A model that small needs no tensor framework, so this crate
//! implements exactly the required pieces from scratch:
//!
//! * [`Mlp`] — dense feed-forward network of sigmoid layers with
//!   configurable layer sizes;
//! * [`BatchKernel`] — the forward and backward passes of a mini-batch over
//!   flat buffers (see below);
//! * [`Adam`] — the Adam optimizer (Kingma & Ba) over the MLP parameters;
//! * [`siamese`] — pair training with the paper's surrogate loss
//!   (Eq. 18), plus the non-differentiable "hard" loss (Eq. 15) kept for the
//!   ablation benchmark;
//! * [`init`] — seeded Xavier/Glorot initialization so every training run is
//!   reproducible.
//!
//! All arithmetic is `f64`: the models are tiny, so the extra width costs
//! nothing and keeps the finite-difference gradient tests tight.
//!
//! # Mini-batch kernels
//!
//! Training is the L2P index's set-up time, so its passes run in
//! [`BatchKernel`]. Weights move only at a mini-batch's Adam step, so the
//! kernel keeps a copy of them input-major in blocks of eight outputs,
//! refreshed after each step, and forwards each distinct row of the batch
//! once into a *slot* of one flat activation buffer per layer, two rows at
//! a time: a block's eight sums advance together, one input at a time. The
//! backward pass reads the slots; a pair's two calls share one sweep over
//! the gradient buffer, and each input gradient sums in registers.
//!
//! The passes are the per-sample ones, bit for bit. Each output's sum
//! starts at its bias and adds inputs 0 … n−1 in order; `exp` is the libm
//! call; each gradient element gets one add per backward call, in call
//! order; an input gradient starts at `0.0` and adds the outputs in
//! ascending order; every `dz == 0` is skipped. Only independent sums are
//! interleaved — none is split or reassociated — so weights, losses and
//! every L2P split repeat exactly. The trainer's tests hold it to the
//! per-sample passes, kept as a `#[cfg(test)]` oracle.
//!
//! # Example
//!
//! ```
//! use les3_nn::Mlp;
//!
//! // The paper's network: input -> 8 -> 8 -> 1, all sigmoid.
//! let mlp = Mlp::new(&[32, 8, 8, 1], 42);
//! let x = vec![0.5; 32];
//! let out = mlp.forward(&x);
//! assert_eq!(out.len(), 1);
//! assert!(out[0] > 0.0 && out[0] < 1.0);
//! ```

pub mod adam;
pub mod init;
pub mod kernel;
pub mod layer;
pub mod mlp;
pub mod siamese;

pub use adam::Adam;
pub use kernel::BatchKernel;
pub use layer::Dense;
pub use mlp::{Mlp, MlpGradients};
pub use siamese::{PairBatch, PairLoss, SiameseConfig, SiameseTrainer, TrainReport};
