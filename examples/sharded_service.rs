//! Batch serving, synchronous flavour: build the engine with a recorded
//! 4-shard layout, answer pre-assembled query batches through the
//! coalescing executor, and verify the results are bit-for-bit those of
//! the flat index. The layout is data the index reports and saves —
//! `n_shards()`, `shard_groups(s)`, a sharded segment's SHARDS block —
//! not a structure it runs on: there is one TGM and one verification
//! order at every shard count, so the answers, the work and the memory
//! are the flat index's.
//!
//! For the production-shaped path — single queries arriving on many
//! threads, each one a job for a persistent worker pool, behind
//! admission control (a bounded queue that sheds overflow with
//! `Overloaded`, per-request deadlines that stop expired queries before
//! and during verification, and cancellable tickets) — see
//! `examples/serving_front.rs`, which wraps this same index in a
//! `ServeFront` instead of looping over explicit `knn_batch` calls.
//! One step further sits the network layer (`crates/net`): `les3-serve
//! --shards N` serves this same engine over HTTP with identical
//! bit-for-bit results — see `docs/PROTOCOL.md`.
//!
//! Run with: `cargo run --release --example sharded_service`
//! (batches run one worker per available core; pin a width with
//! `knn_batch_on(workers, ..)`.)

use les3::prelude::*;
use std::time::Instant;

fn main() {
    // A KOSARAK-shaped database scaled down to 20 000 sets.
    let spec = DatasetSpec::kosarak().with_sets(20_000);
    let db = spec.generate(7);
    println!("dataset {}: {}", spec.name, db.stats());
    let n_groups = (db.len() / 80).max(16);
    let part = Partitioning::round_robin(db.len(), n_groups);

    // One flat index and one recording a 4-shard layout, over the same
    // partitioning.
    let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let t = Instant::now();
    let sharded = ShardedLes3Index::build(db.clone(), part, Jaccard, 4, ShardPolicy::Contiguous);
    println!(
        "index built in {:.2?}: {} groups, {} bytes compressed (flat: {}), {} shards recorded",
        t.elapsed(),
        n_groups,
        sharded.index_size_in_bytes(),
        flat.index_size_in_bytes(),
        sharded.n_shards(),
    );
    for s in 0..sharded.n_shards() {
        let groups = sharded.shard_groups(s);
        let members: usize = groups
            .iter()
            .map(|&g| sharded.partitioning().members(g).len())
            .sum();
        println!(
            "  shard {s} of the layout: {} groups, {members} sets",
            groups.len()
        );
    }

    // A batch of 1 000 queries through the coalescing executor.
    let queries: Vec<Vec<TokenId>> = (0..1_000u32)
        .map(|i| db.set(i * 13 % db.len() as u32).to_vec())
        .collect();
    let t = Instant::now();
    let batch = sharded.knn_batch(&queries, 10);
    let elapsed = t.elapsed();
    println!(
        "\nbatch of {} kNN queries in {:.2?} ({:.0} queries/s)",
        queries.len(),
        elapsed,
        queries.len() as f64 / elapsed.as_secs_f64()
    );

    // One bound stream, one descent: hits *and* cost counters equal the
    // flat index's.
    let flat_batch = flat.knn_batch(&queries, 10);
    assert_eq!(batch.len(), flat_batch.len());
    for (a, b) in batch.iter().zip(&flat_batch) {
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.stats, b.stats);
    }
    println!("results identical to the flat index ✓");

    // Single queries reuse one scratch; an insert is immediately
    // visible.
    let mut sharded = sharded;
    let (id, g) = sharded.insert(&mut [3, 14, 15, 92, 65]);
    println!("\ninserted set {id} into group {g}");
    let mut scratch = ShardedScratch::new();
    let res = sharded.knn_with(&[3, 14, 15, 92, 65], 1, &mut scratch);
    assert_eq!(res.hits[0].0, id);
    println!(
        "1-NN of the inserted set is itself (sim {:.2}) ✓",
        res.hits[0].1
    );
}
