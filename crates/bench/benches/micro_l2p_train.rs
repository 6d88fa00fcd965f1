//! Criterion micro-benchmark of one L2P cascade model's training — the
//! unit of work behind Figure 9's partitioning-time column and behind
//! `les3-bench`'s `partition.l2p_s`.
//!
//! Group sizes are the ones the harness's cascade trains at 20 000 sets
//! (625 → 312 → 156 members per model); pair budgets are the harness's
//! 5 000 and the paper's 40 000 (§7.1). Besides the time per model, each
//! row prints pair-steps per second and forwards per pair-step: a trainer
//! that forwards both ends of every pair does 2.0; forwarding each distinct
//! member once per mini-batch does `distinct members of the batch / batch
//! size`, which falls as the group shrinks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use les3_core::{Jaccard, Similarity};
use les3_data::realistic::DatasetSpec;
use les3_nn::{Activation, Mlp, PairBatch, SiameseConfig, SiameseTrainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Distinct rows summed over every mini-batch the trainer will run: its
/// shuffle replayed, so the count is the trainer's own batches.
fn distinct_rows_per_run(cfg: &SiameseConfig, pairs: &[(u32, u32, f64)], n_rows: usize) -> usize {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut seen = vec![usize::MAX; n_rows];
    let (mut batch_no, mut distinct) = (0usize, 0usize);
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            for &p in chunk {
                for row in [pairs[p].0, pairs[p].1] {
                    if seen[row as usize] != batch_no {
                        seen[row as usize] = batch_no;
                        distinct += 1;
                    }
                }
            }
            batch_no += 1;
        }
    }
    distinct
}

fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2p_train_one_model");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(2_000));
    let cfg = SiameseConfig::default();
    for members in [156usize, 625] {
        // One group of a KOSARAK-shaped database, normalised as L2P does.
        let db = DatasetSpec::kosarak().with_sets(members).generate(7);
        let mut reps = les3_bench::ptr_reps(&db);
        reps.scale(db.len() as f64 / db.total_tokens() as f64);
        let mlp = Mlp::new(&[reps.dim(), 8, 8, 1], Activation::Sigmoid, 11);
        for budget in [5_000usize, 40_000] {
            let mut rng = StdRng::seed_from_u64(3);
            let pairs: Vec<(u32, u32, f64)> = (0..budget)
                .map(|_| (rng.gen_range(0..members), rng.gen_range(0..members)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| {
                    let d = 1.0 - Jaccard.eval(db.set(a as u32), db.set(b as u32));
                    (a as u32, b as u32, d)
                })
                .collect();
            let batch = PairBatch {
                reps: reps.as_slice(),
                dim: reps.dim(),
                pairs: &pairs,
            };
            let trainer = SiameseTrainer::new(cfg.clone());
            let (mut runs, mut busy) = (0u32, Duration::ZERO);
            group.bench_function(
                BenchmarkId::new(format!("members={members}"), format!("pairs={budget}")),
                |b| {
                    b.iter(|| {
                        let mut model = mlp.clone();
                        let start = Instant::now();
                        let report = trainer.train(&mut model, batch);
                        busy += start.elapsed();
                        runs += 1;
                        black_box((model, report))
                    })
                },
            );
            let steps = pairs.len() * cfg.epochs;
            println!(
                "    {:.2} M pair-steps/s, {:.3} forwards per pair-step",
                steps as f64 * runs as f64 / busy.as_secs_f64() / 1e6,
                distinct_rows_per_run(&cfg, &pairs, members) as f64 / steps as f64,
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_train
}
criterion_main!(benches);
