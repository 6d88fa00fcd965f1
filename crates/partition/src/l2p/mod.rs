//! L2P: learning to partition (paper §5).
//!
//! Training one network to place sets into thousands of groups is
//! infeasible (§5.2), so L2P trains a *cascade*: each level trains one
//! Siamese MLP per current group, splitting it in two. Level `i` therefore
//! holds up to `2^i · init_groups` groups; splitting stops below
//! `min_group_size` sets (the paper uses 50) or once `target_groups` is
//! reached.
//!
//! Paper-faithful details reproduced here:
//!
//! * **Initialization** (§7.1): sets are sorted by their minimal token and
//!   chunked into `init_groups` (paper: 128) equal consecutive groups,
//!   replacing the first ⌈log₂ 128⌉ cascade levels;
//! * **Network** (§7.1): MLP with two hidden layers of eight sigmoid
//!   neurons and a single sigmoid output; `O < 0.5` → first sub-group;
//! * **Training** (§7.1): 40 000 random pairs per model, batch 256,
//!   3 epochs, Adam, surrogate loss Eq. 18;
//! * **Inference**: every member is pushed through the trained model; if a
//!   split leaves one side empty the median output is used as the
//!   threshold instead (not specified by the paper; guarantees progress).
//!
//! Models at the same level are independent and train in parallel
//! (`parallel: true`), the direction the paper flags as future work.
//!
//! # Each piece of a model's work is done once
//!
//! Training the cascade *is* the index's set-up time, so one model's
//! training touches nothing it does not need:
//!
//! * **Group-local coordinates.** A model only ever sees its group. The
//!   group's representations are gathered once into a `members × dim`
//!   matrix shared by all restarts, and sampled pairs carry *positions*
//!   into the member list (the sampler draws positions anyway). Every
//!   per-member table — the trainer's, the split's sides — is then a plain
//!   array the size of the group, never of the database.
//! * **One forward per member per mini-batch.** Inside a mini-batch the
//!   weights are constant, and 256 pairs over a few hundred members name
//!   most members several times; the trainer forwards each distinct
//!   member once per batch into a slot of the kernel's flat activation
//!   buffers (see [`les3_nn::siamese`] and [`les3_nn::kernel`]).
//! * **Mini-batch kernels.** The forward pass reads a copy of the weights
//!   kept input-major in blocks of eight outputs, refreshed after each
//!   Adam step, and advances a block's eight sums together, one input at a
//!   time, for two rows at once; the backward pass runs a pair's two calls
//!   in one sweep over the gradient and sums each input gradient in
//!   registers. Each sum is still the per-sample one: bias first, then
//!   inputs 0 … n−1; every gradient element one add per call, in call
//!   order; input gradients over the outputs in ascending order; every
//!   `dz == 0` skipped; `exp` the libm call. Nothing is reassociated, so
//!   the partition is bit for bit the one a two-forwards-per-pair trainer
//!   produces — `crates/partition/tests/l2p_golden.rs` holds it to
//!   literals recorded from that trainer and, for the benchmark's KOSARAK
//!   and LIVEJ shapes, from the per-sample trainer before the kernels.
//! * **Scoring only ranks.** The within-side distance of a candidate split
//!   is computed only when there are several restarts to choose between.

use crate::rep::RepMatrix;
use les3_core::{Jaccard, Partitioning, Similarity};
use les3_data::{SetDatabase, SetId};
use les3_nn::siamese;
use les3_nn::{Activation, Mlp, PairBatch, SiameseConfig, SiameseTrainer, TrainReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of the cascade.
#[derive(Debug, Clone)]
pub struct L2pConfig {
    /// Stop once at least this many leaf groups exist.
    pub target_groups: usize,
    /// Groups formed by the min-token initialization (paper: 128).
    pub init_groups: usize,
    /// Groups smaller than this are not split further (paper: 50).
    pub min_group_size: usize,
    /// Pairs sampled per model (paper: 40 000).
    pub pairs_per_model: usize,
    /// Hidden layer widths (paper: `[8, 8]`).
    pub hidden: Vec<usize>,
    /// Siamese training hyperparameters (epochs, batch, lr, loss).
    pub siamese: SiameseConfig,
    /// Scale representations by `1 / mean set size` before training, which
    /// keeps sigmoid pre-activations in a trainable range.
    pub normalize_reps: bool,
    /// Train same-level models on multiple threads.
    pub parallel: bool,
    /// Independent training restarts per split; the candidate whose split
    /// minimizes the within-side distance of the sampled pairs wins. The
    /// tiny cascade MLPs are high-variance — a bad early split cannot be
    /// undone by later levels — so best-of-R selection buys robustness for
    /// a linear training-cost factor.
    pub restarts: usize,
    /// Master seed (every model derives a deterministic sub-seed).
    pub seed: u64,
}

impl Default for L2pConfig {
    fn default() -> Self {
        Self {
            target_groups: 1024,
            init_groups: 128,
            min_group_size: 50,
            pairs_per_model: 40_000,
            hidden: vec![8, 8],
            siamese: SiameseConfig::default(),
            normalize_reps: true,
            parallel: true,
            restarts: 2,
            seed: 0,
        }
    }
}

/// Output of the cascade: the per-level partitionings plus training
/// telemetry.
#[derive(Debug, Clone)]
pub struct L2pResult {
    /// Nested partitionings, coarsest (initialization) first.
    pub levels: Vec<Partitioning>,
    /// One learning curve per trained model, in training order
    /// (level-major). Level-0 curves are what Figure 7(a) plots.
    pub reports: Vec<TrainReport>,
    /// Number of Siamese models trained.
    pub models_trained: usize,
    /// Peak memory one model's training holds, the largest over the
    /// cascade: parameters, Adam's moments, the gradient, the trainer's
    /// kernel and its row → slot table
    /// ([`SiameseTrainer::memory_bytes`]). The paper credits L2P's tiny
    /// footprint in Figure 9.
    pub model_bytes: usize,
}

impl L2pResult {
    /// The finest partitioning (what the TGM is built on).
    pub fn finest(&self) -> &Partitioning {
        self.levels.last().unwrap()
    }
}

/// The L2P partitioner.
#[derive(Debug, Clone, Default)]
pub struct L2p {
    /// Configuration.
    pub cfg: L2pConfig,
}

/// One model to train at the current cascade level: the group's index and
/// its members.
type GroupTask<'g> = (usize, &'g [SetId]);

impl L2p {
    /// Creates the partitioner.
    pub fn new(cfg: L2pConfig) -> Self {
        Self { cfg }
    }

    /// Runs the cascade over the database using precomputed
    /// representations (`reps.len() == db.len()`).
    ///
    /// # Panics
    ///
    /// Panics if `reps` does not cover the database or the database is
    /// empty.
    pub fn partition(&self, db: &SetDatabase, reps: &RepMatrix) -> L2pResult {
        assert_eq!(reps.len(), db.len(), "one representation per set");
        assert!(!db.is_empty(), "cannot partition an empty database");
        let cfg = &self.cfg;
        // Optional normalization for trainability.
        let scaled;
        let reps = if cfg.normalize_reps {
            let mean_size = db.total_tokens() as f64 / db.len() as f64;
            let mut m = reps.clone();
            m.scale(1.0 / mean_size.max(1.0));
            scaled = m;
            &scaled
        } else {
            reps
        };

        // --- Initialization: sort by minimal token, chunk evenly (§7.1).
        let mut levels: Vec<Partitioning> = Vec::new();
        let init_groups = cfg.init_groups.clamp(1, db.len());
        let mut order: Vec<SetId> = (0..db.len() as SetId).collect();
        order.sort_by_key(|&id| db.set(id).first().copied().unwrap_or(u32::MAX));
        let chunk = db.len().div_ceil(init_groups);
        let mut groups: Vec<Vec<SetId>> = order.chunks(chunk).map(|c| c.to_vec()).collect();
        levels.push(groups_to_partitioning(db.len(), &groups));

        let mut reports: Vec<TrainReport> = Vec::new();
        let mut models_trained = 0usize;
        let mut model_bytes = 0usize;
        let max_levels = 24; // safety bound: 2^24 groups is beyond any use

        for level in 0..max_levels {
            if groups.len() >= cfg.target_groups {
                break;
            }
            let splittable: Vec<bool> = groups
                .iter()
                .map(|g| g.len() >= cfg.min_group_size.max(2))
                .collect();
            if !splittable.iter().any(|&s| s) {
                break;
            }
            // Train one model per splittable group (possibly in parallel).
            let tasks: Vec<GroupTask<'_>> = groups
                .iter()
                .enumerate()
                .filter(|&(i, _)| splittable[i])
                .map(|(i, g)| (i, g.as_slice()))
                .collect();
            let outcomes = if cfg.parallel && tasks.len() > 1 {
                self.train_parallel(db, reps, level, &tasks)
            } else {
                tasks
                    .iter()
                    .map(|&(i, members)| (i, self.train_one(db, reps, level, i, members)))
                    .collect()
            };
            // Apply the splits in deterministic (group index) order.
            let mut next_groups: Vec<Vec<SetId>> = Vec::with_capacity(groups.len() * 2);
            let mut outcome_iter = outcomes.into_iter().peekable();
            for (i, group) in groups.into_iter().enumerate() {
                match outcome_iter.peek() {
                    Some((gi, _)) if *gi == i => {
                        let (_, outcome) = outcome_iter.next().unwrap();
                        reports.push(outcome.report);
                        models_trained += 1;
                        model_bytes = model_bytes.max(outcome.model_bytes);
                        let ids = |side: &[u32]| -> Vec<SetId> {
                            side.iter().map(|&pos| group[pos as usize]).collect()
                        };
                        next_groups.push(ids(&outcome.left));
                        next_groups.push(ids(&outcome.right));
                    }
                    _ => next_groups.push(group), // passes through
                }
            }
            groups = next_groups;
            levels.push(groups_to_partitioning(db.len(), &groups));
        }

        L2pResult {
            levels,
            reports,
            models_trained,
            model_bytes,
        }
    }

    /// Trains the level's models on every core. Groups are uneven, so a
    /// thread claims the next untrained model when it finishes one; which
    /// thread trains a model does not matter (every model is seeded by its
    /// level and group), and the outcomes are put back in group order.
    fn train_parallel(
        &self,
        db: &SetDatabase,
        reps: &RepMatrix,
        level: usize,
        tasks: &[GroupTask<'_>],
    ) -> Vec<(usize, SplitOutcome)> {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let threads = threads.min(tasks.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<(usize, SplitOutcome)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut trained = Vec::new();
                        // relaxed: unique-ticket handout into `tasks`, which
                        // no thread writes; results flow through `join`.
                        let claim = || cursor.fetch_add(1, Ordering::Relaxed);
                        while let Some(&(i, members)) = tasks.get(claim()) {
                            trained.push((i, self.train_one(db, reps, level, i, members)));
                        }
                        trained
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("trainer panicked"))
                .collect()
        });
        out.sort_by_key(|(i, _)| *i);
        out
    }

    /// Trains one Siamese model on a group and splits it. With
    /// `cfg.restarts > 1`, trains that many independently-seeded models
    /// and keeps the split whose sampled within-side distance is lowest.
    fn train_one(
        &self,
        db: &SetDatabase,
        reps: &RepMatrix,
        level: usize,
        group_idx: usize,
        members: &[SetId],
    ) -> SplitOutcome {
        let cfg = &self.cfg;
        let model_seed = derive_seed(cfg.seed, level as u64, group_idx as u64);
        let mut rng = StdRng::seed_from_u64(model_seed);

        // The group's representations, row `pos` for `members[pos]`.
        let mut local = Vec::with_capacity(members.len() * reps.dim());
        for &id in members {
            local.extend_from_slice(reps.row(id as usize));
        }
        let local = RepMatrix::from_raw(local, reps.dim());

        // Sample training pairs with replacement (paper: 40 000 random
        // pairs per group), as positions into `members`. All restarts
        // train on the same pairs so their scores are comparable.
        let mut pairs: Vec<(u32, u32, f64)> = Vec::with_capacity(cfg.pairs_per_model);
        for _ in 0..cfg.pairs_per_model {
            let a = rng.gen_range(0..members.len());
            let b = rng.gen_range(0..members.len());
            if a == b {
                continue;
            }
            let d = 1.0 - Jaccard.eval(db.set(members[a]), db.set(members[b]));
            pairs.push((a as u32, b as u32, d));
        }

        let mut candidates = (0..cfg.restarts.max(1)).map(|restart| {
            let restart_seed = derive_seed(model_seed, u64::MAX, restart as u64);
            self.train_candidate(&local, &pairs, restart_seed)
        });
        let first = candidates.next().expect("at least one restart");
        if cfg.restarts <= 1 {
            // Nothing to rank it against.
            return first;
        }
        let mut best = (split_score(&first, members.len(), &pairs), first);
        for candidate in candidates {
            let score = split_score(&candidate, members.len(), &pairs);
            if score < best.0 {
                best = (score, candidate);
            }
        }
        best.1
    }

    /// One training run: fit a Siamese MLP on `pairs` over the group's
    /// `local` matrix, split the positions by output side (median fallback
    /// guarantees both sides are non-empty).
    fn train_candidate(
        &self,
        local: &RepMatrix,
        pairs: &[(u32, u32, f64)],
        model_seed: u64,
    ) -> SplitOutcome {
        let cfg = &self.cfg;
        let mut widths = Vec::with_capacity(cfg.hidden.len() + 2);
        widths.push(local.dim());
        widths.extend_from_slice(&cfg.hidden);
        widths.push(1);
        let mut mlp = Mlp::new(&widths, Activation::Sigmoid, model_seed);
        let trainer = SiameseTrainer::new(SiameseConfig {
            seed: model_seed ^ 0x9e37_79b9,
            ..cfg.siamese.clone()
        });
        let report = trainer.train(
            &mut mlp,
            PairBatch {
                reps: local.as_slice(),
                dim: local.dim(),
                pairs,
            },
        );

        // Inference: assign each member by output side.
        let outputs = siamese::outputs(&mlp, local.as_slice(), local.dim());
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (pos, &o) in (0u32..).zip(&outputs) {
            if siamese::assign_side(o) {
                right.push(pos);
            } else {
                left.push(pos);
            }
        }
        if left.is_empty() || right.is_empty() {
            // Median-output fallback (guarantees both sides non-empty).
            let mut indexed: Vec<(f64, u32)> = outputs.iter().copied().zip(0u32..).collect();
            indexed.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mid = indexed.len() / 2;
            left = indexed[..mid].iter().map(|&(_, pos)| pos).collect();
            right = indexed[mid..].iter().map(|&(_, pos)| pos).collect();
        }
        SplitOutcome {
            left,
            right,
            report,
            model_bytes: trainer.memory_bytes(&mlp, local.len()),
        }
    }
}

/// A trained split of one group. The sides hold *positions* into the
/// group's member list, in the order the next level will see them.
struct SplitOutcome {
    left: Vec<u32>,
    right: Vec<u32>,
    report: TrainReport,
    model_bytes: usize,
}

/// Mean Jaccard distance of the sampled pairs that land on the same side
/// of the split — the quantity a good split minimizes (a group's GPO
/// contribution is its within-group pairwise distance mass). Pairs with
/// endpoints on different sides stop contributing, so a split along a real
/// cluster boundary scores far below a random one. Falls back to the mean
/// distance over all pairs when no sampled pair stays together (neutral:
/// such a candidate is never preferred over a genuine cluster cut).
fn split_score(candidate: &SplitOutcome, n_members: usize, pairs: &[(u32, u32, f64)]) -> f64 {
    let mut side = vec![false; n_members];
    for &pos in &candidate.left {
        side[pos as usize] = true;
    }
    let (mut within, mut n_within, mut total) = (0.0, 0usize, 0.0);
    for &(a, b, d) in pairs {
        total += d;
        if side[a as usize] == side[b as usize] {
            within += d;
            n_within += 1;
        }
    }
    if n_within > 0 {
        within / n_within as f64
    } else if !pairs.is_empty() {
        total / pairs.len() as f64
    } else {
        0.0
    }
}

fn groups_to_partitioning(n_sets: usize, groups: &[Vec<SetId>]) -> Partitioning {
    let mut assignment = vec![0u32; n_sets];
    for (g, members) in groups.iter().enumerate() {
        for &id in members {
            assignment[id as usize] = g as u32;
        }
    }
    Partitioning::from_assignment(assignment, groups.len())
}

/// SplitMix64-style seed derivation so every (level, group) model is
/// deterministic yet decorrelated.
fn derive_seed(seed: u64, level: u64, group: u64) -> u64 {
    let mut z = seed
        ^ level.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ group.wrapping_mul(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::gpo;
    use crate::rep::{Ptr, RepMatrix};
    use les3_data::zipfian::ZipfianGenerator;

    fn small_cfg(target: usize) -> L2pConfig {
        L2pConfig {
            target_groups: target,
            init_groups: 2,
            min_group_size: 4,
            pairs_per_model: 400,
            parallel: false,
            ..Default::default()
        }
    }

    fn clustered_db(clusters: usize, per_cluster: usize) -> SetDatabase {
        let mut sets = Vec::new();
        for c in 0..clusters as u32 {
            for i in 0..per_cluster as u32 {
                let base = c * 64;
                sets.push(vec![base, base + 1, base + 2 + i % 4, base + 7]);
            }
        }
        SetDatabase::from_sets(sets)
    }

    #[test]
    fn cascade_reaches_target_and_is_nested() {
        let db = clustered_db(4, 30);
        let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
        let result = L2p::new(small_cfg(8)).partition(&db, &reps);
        assert!(result.finest().n_groups() >= 8);
        assert!(result.models_trained > 0);
        assert_eq!(nesting(&result.levels), Ok(()));
    }

    #[test]
    fn training_reports_are_recorded() {
        let db = clustered_db(2, 40);
        let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
        let result = L2p::new(small_cfg(4)).partition(&db, &reps);
        assert_eq!(result.reports.len(), result.models_trained);
        for r in &result.reports {
            assert_eq!(r.epoch_losses.len(), 3, "3 epochs by default");
        }
        // The first level's groups are the largest any model trains on.
        let largest = *result.levels[0].group_sizes().iter().max().unwrap();
        let mlp = Mlp::new(&[reps.dim(), 8, 8, 1], Activation::Sigmoid, 0);
        let want = SiameseTrainer::default().memory_bytes(&mlp, largest);
        assert_eq!(result.model_bytes, want);
    }

    #[test]
    fn l2p_beats_round_robin_on_gpo() {
        let db = clustered_db(4, 25);
        let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
        let result = L2p::new(small_cfg(4)).partition(&db, &reps);
        let rr = Partitioning::round_robin(db.len(), result.finest().n_groups());
        let l2p_gpo = gpo(&db, result.finest(), Jaccard);
        let rr_gpo = gpo(&db, &rr, Jaccard);
        assert!(l2p_gpo < rr_gpo, "L2P {l2p_gpo} vs round-robin {rr_gpo}");
    }

    #[test]
    fn min_group_size_stops_splitting() {
        let db = clustered_db(1, 10);
        let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
        let cfg = L2pConfig {
            target_groups: 64,
            init_groups: 1,
            min_group_size: 8,
            pairs_per_model: 100,
            parallel: false,
            ..Default::default()
        };
        let result = L2p::new(cfg).partition(&db, &reps);
        // 10 sets, min size 8: one split into (5,5), then both stop.
        assert!(result.finest().n_groups() <= 2);
        assert!(result.finest().group_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let db = ZipfianGenerator::new(150, 100, 5.0, 1.0).generate(9);
        let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
        let mut cfg = small_cfg(8);
        cfg.init_groups = 4;
        let serial = L2p::new(cfg.clone()).partition(&db, &reps);
        cfg.parallel = true;
        let parallel = L2p::new(cfg).partition(&db, &reps);
        assert_eq!(serial.finest().assignment(), parallel.finest().assignment());
    }

    #[test]
    fn works_on_realistic_zipf_data() {
        let db = ZipfianGenerator::new(400, 300, 7.0, 1.1).generate(2);
        let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
        let cfg = L2pConfig {
            target_groups: 16,
            init_groups: 4,
            min_group_size: 4,
            pairs_per_model: 600,
            ..Default::default()
        };
        let result = L2p::new(cfg).partition(&db, &reps);
        assert!(result.finest().n_groups() >= 16);
        assert_eq!(result.finest().n_sets(), 400);
        assert_eq!(nesting(&result.levels), Ok(()));
    }

    #[test]
    fn nesting_check_rejects_a_crossing_pair() {
        let crossing = [
            Partitioning::from_assignment(vec![0, 0, 1, 1], 2),
            // Fine group 1 holds set 1 (coarse 0) and set 2 (coarse 1).
            Partitioning::from_assignment(vec![0, 1, 1, 2], 3),
        ];
        assert_eq!(
            nesting(&crossing),
            Err("fine group 1 of level 1 spans coarse groups 0 and 1".into())
        );
    }

    /// Whether `levels` (coarsest first) is a cascade: every level covers
    /// the same sets, and all members of each finer group share one
    /// coarser group.
    fn nesting(levels: &[Partitioning]) -> Result<(), String> {
        let n_sets = levels[0].n_sets();
        for (l, pair) in levels.windows(2).enumerate() {
            let (coarse, fine) = (&pair[0], &pair[1]);
            if fine.n_sets() != n_sets {
                return Err(format!(
                    "level {} covers {} sets, not {n_sets}",
                    l + 1,
                    fine.n_sets()
                ));
            }
            let mut parent = vec![None; fine.n_groups()];
            for id in 0..n_sets as SetId {
                let (fg, cg) = (fine.group_of(id), coarse.group_of(id));
                let p = *parent[fg as usize].get_or_insert(cg);
                if p != cg {
                    return Err(format!(
                        "fine group {fg} of level {} spans coarse groups {p} and {cg}",
                        l + 1
                    ));
                }
            }
        }
        Ok(())
    }
}
