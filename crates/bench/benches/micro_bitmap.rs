//! Criterion micro-benchmarks of the compressed bitmap substrate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use les3_bitmap::Bitmap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_bitmap(n: usize, range: u32, seed: u64) -> Bitmap {
    let mut rng = StdRng::seed_from_u64(seed);
    Bitmap::from_iter((0..n).map(|_| rng.gen_range(0..range)))
}

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));

    let a = random_bitmap(10_000, 200_000, 1);
    let b = random_bitmap(10_000, 200_000, 2);
    group.bench_function("contains_hit", |bch| {
        let probe: Vec<u32> = a.iter().take(128).collect();
        bch.iter(|| {
            let mut hits = 0;
            for &v in &probe {
                if a.contains(black_box(v)) {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.bench_function("intersect_10k", |bch| {
        bch.iter(|| black_box(a.intersect(&b)))
    });
    group.bench_function("union_10k", |bch| bch.iter(|| black_box(a.union(&b))));
    group.bench_function("iterate_10k", |bch| {
        bch.iter(|| black_box(a.iter().sum::<u32>()))
    });
    group.bench_function("insert_1k_sparse", |bch| {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<u32> = (0..1000).map(|_| rng.gen_range(0..10_000_000)).collect();
        bch.iter_batched(
            Bitmap::new,
            |mut bm| {
                for &v in &values {
                    bm.insert(v);
                }
                bm
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("run_optimize_dense", |bch| {
        bch.iter_batched(
            || Bitmap::from_iter(0u32..50_000),
            |mut bm| {
                bm.run_optimize();
                bm
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_bitmap
}
criterion_main!(benches);
