//! Everything a run feeds the product is generated here from `--seed`:
//! the database, the queries, the insert stream and the arrival
//! schedule. The same seed gives the same inputs; the product crates
//! receive only the generated inputs, never the seed's meaning.

use std::time::Duration;

use les3_core::Partitioning;
use les3_data::query::{materialize, perturb, sample_query_ids};
use les3_data::realistic::DatasetSpec;
use les3_data::{SetDatabase, TokenId};
use les3_partition::l2p::{L2p, L2pConfig};
use les3_partition::rep::{Ptr, RepMatrix};

/// The fixed sizes of a run. `full` is what `BENCHMARK.json` measures;
/// `tiny` is the smoke test's (every code path, a fraction of a second).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub name: &'static str,
    /// Sets in the generated database.
    pub sets: usize,
    /// Groups of every partitioning.
    pub groups: usize,
    /// L2P training pairs per Siamese model.
    pub l2p_pairs: usize,
    /// Distinct queries, drawn once and cycled.
    pub queries: usize,
    /// Queries of the untimed correctness sample; the per-query counts
    /// come from this fixed pass too, so they repeat exactly per seed.
    pub check_queries: usize,
    /// Cycles `durable_rw` always runs, so its byte counts repeat
    /// exactly per seed however long the timed section lasts.
    pub durable_fixed_cycles: usize,
    /// Mutations between two checkpoints in `durable_rw`.
    pub checkpoint_every: usize,
    /// An untraced run keeps setting up (at least three times) until this
    /// much time has gone into it: a 30 ms set-up needs more than three
    /// samples for a steady reading.
    pub setup_floor: Duration,
}

impl Scale {
    pub const FULL: Scale = Scale {
        name: "full",
        sets: 20_000,
        groups: 256,
        l2p_pairs: 5_000,
        queries: 1_024,
        check_queries: 256,
        durable_fixed_cycles: 256,
        checkpoint_every: 4_096,
        setup_floor: Duration::from_millis(1_500),
    };

    pub const TINY: Scale = Scale {
        name: "tiny",
        sets: 2_000,
        groups: 32,
        l2p_pairs: 500,
        queries: 128,
        check_queries: 64,
        durable_fixed_cycles: 16,
        checkpoint_every: 128,
        setup_floor: Duration::ZERO,
    };
}

/// The two dataset shapes the workloads use (paper Table 2, emulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Short sets (avg ≈ 8): kNN verification dominates.
    Kosarak,
    /// Long sets (avg ≈ 31) over a wide universe: TGM columns are sparse
    /// and range verification is small.
    Livej,
}

/// splitmix64: the harness's own deterministic mixer, for the streams
/// the product's generators do not cover.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent seed for input stream `stream` of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut state)
}

pub fn dataset(shape: Shape, scale: Scale, seed: u64) -> SetDatabase {
    let spec = match shape {
        Shape::Kosarak => DatasetSpec::kosarak(),
        Shape::Livej => DatasetSpec::livej(),
    };
    spec.with_sets(scale.sets).generate(sub_seed(seed, 1))
}

/// `count` queries: database members with one token replaced, so a
/// query has a near neighbour but is not itself stored.
pub fn queries(db: &SetDatabase, count: usize, seed: u64) -> Vec<Vec<TokenId>> {
    let members = materialize(db, &sample_query_ids(db, count, sub_seed(seed, 2)));
    perturb(db, &members, 1, sub_seed(seed, 3))
}

/// `count` sets to insert: members with two tokens replaced (new
/// near-duplicates, the shape of a growing collection).
pub fn insert_stream(db: &SetDatabase, count: usize, seed: u64) -> Vec<Vec<TokenId>> {
    let ids = sample_query_ids(db, db.len(), sub_seed(seed, 4));
    let members: Vec<Vec<TokenId>> = (0..count)
        .map(|i| db.set(ids[i % ids.len()]).to_vec())
        .collect();
    perturb(db, &members, 2, sub_seed(seed, 5))
}

/// The learned partitioning: the paper's cascade in the shape of the
/// figure harnesses' `l2p_config`, with the training budget cut so that
/// three set-ups fit a run (probes on the 2-core container: 20 000 pairs
/// × 2 restarts 11.9 s, 5 000 × 2 3.5 s, 5 000 × 1 1.7 s, for 8 309,
/// 8 271 and 8 309 kNN candidates per query — the same pruning).
pub fn l2p_partition(db: &SetDatabase, scale: Scale, seed: u64) -> Partitioning {
    let reps = RepMatrix::from_representation(db, &Ptr::new(db.universe_size()));
    let cfg = L2pConfig {
        target_groups: scale.groups,
        init_groups: (scale.groups / 8).clamp(1, 128),
        min_group_size: (db.len() / scale.groups / 4).clamp(4, 50),
        pairs_per_model: scale.l2p_pairs,
        restarts: 1,
        seed: sub_seed(seed, 6),
        ..Default::default()
    };
    L2p::new(cfg).partition(db, &reps).finest().clone()
}

/// Due times, in nanoseconds from the step start, of a Poisson arrival
/// process of `rate` per second over `duration_s` seconds.
pub fn poisson_schedule(rate: f64, duration_s: f64, seed: u64) -> Vec<u64> {
    let mut state = sub_seed(seed, 7);
    let (mut t, mut due) = (0.0f64, Vec::new());
    loop {
        // Uniform in (0, 1]: 53 random bits, never zero.
        let u = ((splitmix64(&mut state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= duration_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed_and_has_the_rate() {
        let a = poisson_schedule(1_000.0, 4.0, 42);
        assert_eq!(a, poisson_schedule(1_000.0, 4.0, 42));
        assert_ne!(a, poisson_schedule(1_000.0, 4.0, 43));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 4_000_000_000);
        // 4 000 expected arrivals, standard deviation ≈ 63.
        assert!((3_700..4_300).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let db = dataset(Shape::Kosarak, Scale::TINY, 1);
        assert_eq!(db.len(), Scale::TINY.sets);
        let again = dataset(Shape::Kosarak, Scale::TINY, 1);
        assert_eq!(queries(&db, 16, 1), queries(&again, 16, 1));
        assert_ne!(queries(&db, 16, 1), queries(&db, 16, 2));
        assert_eq!(insert_stream(&db, 40, 1), insert_stream(&again, 40, 1));
        let other = dataset(Shape::Kosarak, Scale::TINY, 2);
        assert!((0..50).any(|id| db.set(id) != other.set(id)));
    }
}
