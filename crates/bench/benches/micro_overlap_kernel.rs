//! Criterion micro-benchmarks for the query hot-path overhaul:
//!
//! * `overlap_kernel/*` — the word-parallel counting kernel
//!   ([`les3_bitmap::Bitmap::count_into`], what `Tgm::group_overlaps`
//!   runs on) against the scalar `BitmapIter` loop it replaced, on the
//!   token columns of a Zipfian database;
//! * `batch_throughput/*` — `knn_batch_on` (one contiguous chunk and one
//!   scratch per available core) against the same kNN queries executed
//!   sequentially with a single reused scratch;
//! * `masked_kernel/*` — the chunk-skipping masked kernel
//!   ([`les3_bitmap::Bitmap::count_into_masked_sparse`], which jumps
//!   straight to mask-covered words) against the word-scanning
//!   [`les3_bitmap::Bitmap::count_into_masked`] across candidate-mask
//!   sparsities — the filtered query's restricted-pass regime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use les3_bitmap::{Bitmap, DenseBitSet};
use les3_core::{Jaccard, Les3Index, Partitioning, QueryScratch};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::{SetDatabase, TokenId};
use std::hint::black_box;

/// Token → group-bitmap columns, built exactly like `Tgm::build`.
fn token_columns(db: &SetDatabase, part: &Partitioning) -> Vec<Bitmap> {
    let mut cols = vec![Bitmap::new(); db.universe_size() as usize];
    for (id, set) in db.iter() {
        let g = part.group_of(id);
        for &t in set {
            cols[t as usize].insert(g);
        }
    }
    for bm in &mut cols {
        bm.run_optimize();
    }
    cols
}

/// The pre-overhaul scalar loop: one `BitmapIter` step per set bit.
fn scalar_overlaps(cols: &[Bitmap], query: &[TokenId], counts: &mut [u32]) {
    counts.fill(0);
    let mut prev = None;
    for &t in query {
        if prev == Some(t) {
            continue;
        }
        prev = Some(t);
        if let Some(bm) = cols.get(t as usize) {
            for g in bm.iter() {
                counts[g as usize] += 1;
            }
        }
    }
}

/// The word-parallel kernel the hot path now uses.
fn kernel_overlaps(cols: &[Bitmap], query: &[TokenId], counts: &mut [u32]) {
    counts.fill(0);
    let mut prev = None;
    for &t in query {
        if prev == Some(t) {
            continue;
        }
        prev = Some(t);
        if let Some(bm) = cols.get(t as usize) {
            bm.count_into(counts);
        }
    }
}

fn bench_overlap_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap_kernel");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let db = ZipfianGenerator::new(8_000, 2_000, 12.0, 1.1).generate(1);
    let query = db.set(17).to_vec();
    for n_groups in [64usize, 256, 1024] {
        let part = Partitioning::round_robin(db.len(), n_groups);
        let cols = token_columns(&db, &part);
        let mut counts = vec![0u32; n_groups];
        group.bench_with_input(BenchmarkId::new("scalar", n_groups), &cols, |b, cols| {
            b.iter(|| {
                scalar_overlaps(cols, black_box(&query), &mut counts);
                black_box(counts[0])
            })
        });
        group.bench_with_input(
            BenchmarkId::new("word_parallel", n_groups),
            &cols,
            |b, cols| {
                b.iter(|| {
                    kernel_overlaps(cols, black_box(&query), &mut counts);
                    black_box(counts[0])
                })
            },
        );
    }
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(12);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(2500));
    let db = ZipfianGenerator::new(20_000, 4_000, 12.0, 1.1).generate(2);
    let index = Les3Index::build(
        db.clone(),
        Partitioning::round_robin(db.len(), 256),
        Jaccard,
    );
    let queries: Vec<Vec<TokenId>> = (0..512u32)
        .map(|i| db.set(i * 37 % db.len() as u32).to_vec())
        .collect();
    group.bench_function("knn10_sequential", |b| {
        b.iter(|| {
            let mut scratch = QueryScratch::new();
            let total: usize = queries
                .iter()
                .map(|q| index.knn_with(q, 10, &mut scratch).hits.len())
                .sum();
            black_box(total)
        })
    });
    let workers = rayon::current_num_threads();
    group.bench_function("knn10_rayon_batch", |b| {
        b.iter(|| black_box(index.knn_batch_on(workers, 1, &queries, 10).len()))
    });
    group.finish();
    println!("(batch workers: {workers}, one per available core)");
}

fn bench_masked_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_kernel");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    // A popular token's column over 8 192 groups, mixing all three
    // container shapes: a run-compressed stretch, a dense-bits stretch,
    // and an array tail.
    let n_groups = 8_192usize;
    let mut values: Vec<u32> = (0..3_000u32).collect();
    values.extend((3_000..6_000u32).filter(|v| v % 2 == 0));
    values.extend((6_000..n_groups as u32).step_by(7));
    let mut column = Bitmap::from_sorted(&values);
    column.run_optimize();
    let mut counts = vec![0u32; n_groups];
    for candidates in [8usize, 64, 512, 4_096] {
        let mut mask = DenseBitSet::new();
        mask.reset(n_groups);
        let stride = n_groups / candidates;
        for i in 0..candidates {
            mask.insert((i * stride) as u32);
        }
        mask.sort_touched();
        group.bench_with_input(
            BenchmarkId::new("word_scan", candidates),
            &mask,
            |b, mask| {
                b.iter(|| {
                    counts.fill(0);
                    black_box(column.count_into_masked(black_box(mask), &mut counts))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("chunk_skip", candidates),
            &mask,
            |b, mask| {
                b.iter(|| {
                    counts.fill(0);
                    black_box(column.count_into_masked_sparse(black_box(mask), &mut counts))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("adaptive", candidates),
            &mask,
            |b, mask| {
                b.iter(|| {
                    counts.fill(0);
                    black_box(column.count_into_masked_adaptive(black_box(mask), &mut counts))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_overlap_kernel, bench_batch_throughput, bench_masked_kernel
}
criterion_main!(benches);
