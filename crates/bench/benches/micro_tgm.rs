//! Criterion micro-benchmarks of TGM upper-bound computation — the inner
//! loop of every LES3 query (cost `O(n·|Q|)`, §3.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use les3_core::{Partitioning, Tgm};
use les3_data::realistic::DatasetSpec;
use std::hint::black_box;

fn bench_tgm(c: &mut Criterion) {
    let mut group = c.benchmark_group("tgm_group_overlaps");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    let db = DatasetSpec::kosarak().with_sets(4_000).generate(1);
    let query = db.set(17).to_vec();
    for n_groups in [32usize, 128, 512, 1024] {
        let part = Partitioning::round_robin(db.len(), n_groups);
        let tgm = Tgm::build(&db, &part);
        group.bench_with_input(BenchmarkId::from_parameter(n_groups), &tgm, |b, tgm| {
            b.iter(|| black_box(tgm.group_overlaps(black_box(&query))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_tgm
}
criterion_main!(benches);
