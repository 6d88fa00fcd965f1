//! Golden fingerprints of the L2P cascade.
//!
//! The literals below were recorded at commit 054367c, whose trainer ran
//! two forwards per pair and looked members up by database id. A faster
//! trainer must be *that* trainer: the same RNG draws, the same pair order,
//! every floating-point sum in the same order — so the partition of every
//! level and the bit pattern of every epoch loss repeat exactly. A cell
//! that fails here means the cascade's output moved, not just its cost.
//!
//! Each cell is three FNV-1a hashes: the finest assignment, every level's
//! group count and assignment, and every report's `epoch_losses` bits.

use les3_data::realistic::DatasetSpec;
use les3_data::zipfian::ZipfianGenerator;
use les3_data::SetDatabase;
use les3_nn::{PairLoss, SiameseConfig};
use les3_partition::l2p::{L2p, L2pConfig, L2pResult};
use les3_partition::rep::{Ptr, RepMatrix};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }
}

/// `[finest assignment, all levels, all epoch losses]`.
fn fingerprint(result: &L2pResult) -> [u64; 3] {
    let mut finest = Fnv::new();
    finest.u32s(result.finest().assignment());
    let mut levels = Fnv::new();
    levels.u64(result.levels.len() as u64);
    for level in &result.levels {
        levels.u64(level.n_groups() as u64);
        levels.u32s(level.assignment());
    }
    let mut losses = Fnv::new();
    losses.u64(result.reports.len() as u64);
    for report in &result.reports {
        losses.u64(report.epoch_losses.len() as u64);
        for &l in &report.epoch_losses {
            losses.u64(l.to_bits());
        }
        losses.u64(report.pairs_seen as u64);
    }
    [finest.0, levels.0, losses.0]
}

fn run(db: &SetDatabase, cfg: L2pConfig) -> [u64; 3] {
    let reps = RepMatrix::from_representation(db, &Ptr::new(db.universe_size()));
    fingerprint(&L2p::new(cfg).partition(db, &reps))
}

/// Compares every cell and reports all mismatches at once, in a form that
/// can be pasted back as literals.
fn check(cells: &[(String, [u64; 3], [u64; 3])]) {
    let wrong: Vec<String> = cells
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, _)| {
            format!(
                "{name}: [{:#018x}, {:#018x}, {:#018x}]",
                got[0], got[1], got[2]
            )
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "the cascade's output moved; got\n{}",
        wrong.join("\n")
    );
}

fn zipf_cfg(restarts: usize, parallel: bool, loss: PairLoss) -> L2pConfig {
    L2pConfig {
        target_groups: 32,
        init_groups: 4,
        min_group_size: 6,
        pairs_per_model: 1_024,
        restarts,
        parallel,
        seed: 17,
        siamese: SiameseConfig {
            loss,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn zipfian_cascade_repeats_bit_for_bit() {
    // Skewed sizes and near-duplicates: uneven groups, `d = 0` pairs, and
    // levels where some groups pass through unsplit.
    let db = ZipfianGenerator::new(500, 300, 7.0, 1.1)
        .with_near_dups(0.1)
        .generate(4);
    let golden: [(usize, PairLoss, [u64; 3]); 4] = [
        (
            1,
            PairLoss::Surrogate,
            [0xa592c16f6ec638f5, 0xb435d080acb8335b, 0x2729bb1c424ba571],
        ),
        (
            2,
            PairLoss::Surrogate,
            [0xd3a130618dc00617, 0x91c0b58f8d3e08ec, 0xea75568a8ebb1c36],
        ),
        (
            1,
            PairLoss::Hard,
            [0x7e4656503b8dbff6, 0xc5e0ccf200aed8ed, 0x7aa5246142bdc49f],
        ),
        (
            2,
            PairLoss::Hard,
            [0x76eba09bd9fb0017, 0x09bf1adcb6dc9a0c, 0xf8f58b1dde15cd57],
        ),
    ];
    let mut cells = Vec::new();
    for (restarts, loss, want) in golden {
        for parallel in [false, true] {
            cells.push((
                format!("restarts={restarts} {loss:?} parallel={parallel}"),
                run(&db, zipf_cfg(restarts, parallel, loss)),
                want,
            ));
        }
    }
    check(&cells);
}

#[test]
fn multiset_database_repeats_bit_for_bit() {
    // Duplicate tokens inside a set (paper §2): PTR counts them, Jaccard
    // is the multiset one.
    let sets: Vec<Vec<u32>> = (0..160u32)
        .map(|i| {
            let base = (i % 5) * 20;
            let mut s = vec![base, base, base + 1 + i % 3, base + 7];
            s.extend(std::iter::repeat_n(base + 9, (i % 4) as usize));
            s
        })
        .collect();
    let db = SetDatabase::from_sets(sets);
    let cfg = L2pConfig {
        target_groups: 16,
        init_groups: 2,
        min_group_size: 4,
        pairs_per_model: 600,
        restarts: 2,
        parallel: false,
        seed: 3,
        ..Default::default()
    };
    check(&[(
        "multiset".into(),
        run(&db, cfg),
        [0xce7000fd79e0be84, 0xd9a5bfd0abbd157e, 0xe8639f21f7a0e4f0],
    )]);
}

#[test]
fn five_member_group_repeats_bit_for_bit() {
    // Every 256-pair batch repeats each of five members ~100 times: the
    // most sharing a batch can have.
    let db = SetDatabase::from_sets(vec![
        vec![0u32, 1, 2, 3],
        vec![0, 1, 2, 9],
        vec![4, 5, 6, 7],
        vec![4, 5, 6, 8],
        vec![0, 4, 8, 9, 10],
    ]);
    let cfg = L2pConfig {
        target_groups: 4,
        init_groups: 1,
        min_group_size: 2,
        pairs_per_model: 2_000,
        restarts: 2,
        parallel: false,
        seed: 5,
        ..Default::default()
    };
    check(&[(
        "five members".into(),
        run(&db, cfg),
        [0x2d36606fe049f7e1, 0x71551cb5280527c5, 0x7194cd57a47985f5],
    )]);
}

#[test]
fn ragged_last_batch_repeats_bit_for_bit() {
    // 700 draws minus the self-pairs, batches of 100: the last batch of
    // every epoch is short and is averaged over its own length.
    let db = ZipfianGenerator::new(200, 120, 6.0, 1.0).generate(8);
    let cfg = L2pConfig {
        target_groups: 8,
        init_groups: 2,
        min_group_size: 4,
        pairs_per_model: 700,
        restarts: 2,
        parallel: true,
        seed: 29,
        siamese: SiameseConfig {
            batch_size: 100,
            epochs: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    check(&[(
        "ragged".into(),
        run(&db, cfg),
        [0xe6fd08f060843d0c, 0x424e7e641ee25601, 0x2892853f33eb4949],
    )]);
}

/// The cascade `les3-bench` trains (`gen::l2p_partition`) at its tiny
/// scale: 2 000 sets, 32 groups, 500 pairs per model, one restart. The
/// other cells train PTR dimension 18; these train the two shapes the
/// benchmark runs, KOSARAK (PTR dimension 24 here, 28 at 20 000 sets) and
/// LIVEJ's wide universe (30 here, 34 at 20 000 sets). The literals were
/// recorded at 43a70da, before the trainer's mini-batch kernels.
fn bench_shape_cfg(n_sets: usize, parallel: bool) -> L2pConfig {
    let groups = 32;
    L2pConfig {
        target_groups: groups,
        init_groups: groups / 8,
        min_group_size: (n_sets / groups / 4).clamp(4, 50),
        pairs_per_model: 500,
        restarts: 1,
        parallel,
        seed: 41,
        ..Default::default()
    }
}

#[test]
fn benchmark_shapes_repeat_bit_for_bit() {
    let golden: [(DatasetSpec, [u64; 3]); 2] = [
        (
            DatasetSpec::kosarak(),
            [0x1d52b752a7ade7f9, 0x30e0594aa89f2e2b, 0x9a8f21e15694435f],
        ),
        (
            DatasetSpec::livej(),
            [0x4e54aa922f205858, 0xa5108d60ec4fb8cd, 0xce7da7d7ccdb11ce],
        ),
    ];
    let mut cells = Vec::new();
    for (spec, want) in golden {
        let db = spec.with_sets(2_000).generate(7);
        for parallel in [false, true] {
            cells.push((
                format!("{} parallel={parallel}", spec.name),
                run(&db, bench_shape_cfg(db.len(), parallel)),
                want,
            ));
        }
    }
    check(&cells);
}
