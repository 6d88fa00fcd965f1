//! Criterion micro-benchmarks of similarity verification — the paper's
//! premise that verification "incurs a cost linear in the size of the
//! set" and is cheap relative to index scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use les3_core::{Cosine, Dice, Jaccard, PreparedQuery, QueryBits, Similarity, ThresholdedEval};
use les3_data::realistic::DatasetSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_set(len: usize, range: u32, rng: &mut StdRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..range)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_verify(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("verify_jaccard");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for size in [8usize, 64, 512] {
        let a = random_set(size, size as u32 * 4, &mut rng);
        let b = random_set(size, size as u32 * 4, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bch, _| {
            bch.iter(|| black_box(Jaccard.eval(black_box(&a), black_box(&b))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("verify_measures_size64");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    let a = random_set(64, 256, &mut rng);
    let b = random_set(64, 256, &mut rng);
    group.bench_function("jaccard", |bch| {
        bch.iter(|| black_box(Jaccard.eval(&a, &b)))
    });
    group.bench_function("dice", |bch| bch.iter(|| black_box(Dice.eval(&a, &b))));
    group.bench_function("cosine", |bch| bch.iter(|| black_box(Cosine.eval(&a, &b))));
    group.finish();
}

/// The kNN candidate loop's two kernels behind
/// [`Similarity::eval_prepared`] on a Kosarak-shaped candidate stream: an
/// 8-token query against 1 000 candidates of 1–40 tokens, at thresholds
/// where most candidates exit early. One iteration verifies all 1 000, so
/// the time per iteration in µs is the time per candidate in ns.
/// `merge` prepares the query without a bitset; `lookup` is the bitset
/// kernel a kNN runs on duplicate-free inputs.
fn bench_knn_kernels(c: &mut Criterion) {
    const CANDIDATES: usize = 1000;
    let db = DatasetSpec::kosarak().with_sets(20_000).generate(1);
    let query = db
        .iter()
        .map(|(_, s)| s)
        .find(|s| s.len() == 8)
        .expect("an 8-token set")
        .to_vec();
    let candidates: Vec<&[u32]> = db
        .iter()
        .map(|(_, s)| s)
        .filter(|s| (1..=40).contains(&s.len()))
        .take(CANDIDATES)
        .collect();
    let mut bits = QueryBits::new();
    let kernels = [
        ("merge", PreparedQuery::without_bits(&query)),
        ("lookup", bits.prepare(&query, db.universe_size())),
    ];
    let mut group = c.benchmark_group("verify_knn_kosarak_q8_x1000");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    for t in [0.25f64, 0.5] {
        // What the scan hoists: each candidate's minimal overlap.
        let stream: Vec<(&[u32], usize)> = candidates
            .iter()
            .map(|&s| (s, Jaccard.min_overlap_for(t, query.len(), s.len())))
            .collect();
        let early = stream
            .iter()
            .filter(|&&(s, needed)| {
                let verdict = Jaccard.eval_prepared(&kernels[0].1, s, s.len(), needed, t);
                verdict == ThresholdedEval::Rejected { early: true }
            })
            .count();
        println!("t = {t}: {early} of {CANDIDATES} candidates exit early");
        for (name, q) in &kernels {
            group.bench_function(BenchmarkId::new(*name, t), |bch| {
                bch.iter(|| {
                    let q = black_box(q);
                    stream
                        .iter()
                        .filter(|&&(s, needed)| {
                            let verdict = Jaccard.eval_prepared(q, s, s.len(), needed, t);
                            matches!(verdict, ThresholdedEval::Hit(_))
                        })
                        .count()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_verify, bench_knn_kernels
}
criterion_main!(benches);
