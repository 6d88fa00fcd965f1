//! Degenerate-input audit: every public query/update entry point must
//! return an empty or no-op result on pathological inputs — empty
//! queries, `k == 0`, `k > n`, duplicate-token and *unsorted* queries,
//! out-of-universe tokens, out-of-range set ids — never panic or index
//! out of bounds.

use les3_core::serve::{ServeConfig, ServeFront};
use les3_core::sim::{Cosine, Jaccard, OverlapCoefficient};
use les3_core::{DeletionLog, DiskLes3, Les3Index, Partitioning, ShardPolicy, ShardedLes3Index};
use les3_data::{SetDatabase, TokenId};
use les3_storage::DiskModel;

fn small_db() -> SetDatabase {
    SetDatabase::from_sets(vec![
        vec![0u32, 1, 2],
        vec![0, 1, 3],
        vec![2, 3, 4, 5],
        vec![7, 8],
        vec![1, 2, 7],
    ])
}

fn flat() -> Les3Index<Jaccard> {
    Les3Index::build(small_db(), Partitioning::round_robin(5, 2), Jaccard)
}

fn sharded() -> ShardedLes3Index<Jaccard> {
    ShardedLes3Index::build(
        small_db(),
        Partitioning::round_robin(5, 3),
        Jaccard,
        2,
        ShardPolicy::Contiguous,
    )
}

#[test]
fn empty_queries_return_cleanly_everywhere() {
    let flat = flat();
    let sharded = sharded();
    // kNN with an empty query still returns k sets (all similarity 0,
    // or 1.0 for measures that define empty-vs-empty as 1).
    assert_eq!(flat.knn(&[], 3).hits.len(), 3);
    assert_eq!(sharded.knn(&[], 3).hits.len(), 3);
    assert!(flat.range(&[], 0.5).hits.is_empty());
    assert!(sharded.range(&[], 0.5).hits.is_empty());
    // Batches of empties, and empty batches, at every width: 0 and 1
    // run inline, 5 is more threads than queries.
    for workers in [0, 1, 2, 5] {
        assert!(flat.knn_batch_on(workers, 1, &[], 4).is_empty());
        let batch = flat.knn_batch_on(workers, 1, &[vec![], vec![]], 4);
        assert_eq!(batch, vec![flat.knn(&[], 4); 2], "workers {workers}");
    }
    // The disk variant.
    let disk = DiskLes3::new(flat, DiskModel::ssd());
    assert_eq!(disk.knn(&[], 2).0.hits.len(), 2);
    assert!(disk.range(&[], 0.9).0.hits.is_empty());
}

#[test]
fn k_zero_and_k_beyond_n() {
    let flat = flat();
    let sharded = sharded();
    let q = vec![0u32, 1];
    for res in [flat.knn(&q, 0), sharded.knn(&q, 0)] {
        assert!(res.hits.is_empty());
    }
    for res in [flat.knn(&q, 100), sharded.knn(&q, 100)] {
        assert_eq!(res.hits.len(), 5, "k > n returns the whole database");
    }
}

#[test]
fn unsorted_and_duplicate_queries_match_their_sorted_forms() {
    // The kernels assume sorted tokens; the entry points must normalize
    // rather than silently miscount (or index out of bounds).
    let flat = flat();
    let sharded = sharded();
    let messy: Vec<TokenId> = vec![7, 1, 2, 1, 7, 0];
    let mut sorted = messy.clone();
    sorted.sort_unstable();
    let a = flat.knn(&messy, 4);
    let b = flat.knn(&sorted, 4);
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.stats, b.stats);
    let a = flat.range(&messy, 0.3);
    let b = flat.range(&sorted, 0.3);
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.stats, b.stats);
    // Sharded single + batch paths normalize identically.
    assert_eq!(sharded.knn(&messy, 4).hits, flat.knn(&sorted, 4).hits);
    let a = flat.knn(&messy, 4);
    for workers in [0, 1, 3, 32] {
        let batch = flat.knn_batch_on(workers, 1, &vec![messy.clone(); 20], 4);
        assert_eq!(batch.len(), 20);
        for b in &batch {
            assert_eq!(b, &a, "workers {workers}");
        }
    }
    // Duplicate tokens behave as a multiset with one run per token.
    let dup: Vec<TokenId> = vec![1, 1, 1, 2];
    let plain: Vec<TokenId> = vec![1, 2];
    assert_eq!(flat.knn(&dup, 3).hits, flat.knn(&plain, 3).hits);
}

#[test]
fn out_of_universe_tokens_are_harmless() {
    let flat = flat();
    let sharded = sharded();
    let far = vec![1_000_000u32, 2_000_000];
    assert_eq!(flat.knn(&far, 2).hits.len(), 2);
    assert!(flat.knn(&far, 2).hits.iter().all(|&(_, s)| s == 0.0));
    assert!(flat.range(&far, 0.1).hits.is_empty());
    // Bit-for-bit against a flat index on the *same* partitioning (ties
    // at similarity 0 resolve by verification order, which is a
    // partitioning property).
    let flat3 = Les3Index::build(small_db(), Partitioning::round_robin(5, 3), Jaccard);
    assert_eq!(sharded.knn(&far, 2).hits, flat3.knn(&far, 2).hits);
    // Mixed known/unknown tokens still score the known part.
    let mixed = vec![0u32, 1_000_000];
    assert!(flat.knn(&mixed, 1).hits[0].1 > 0.0);
}

#[test]
fn deletion_log_tolerates_out_of_range_ids() {
    let mut flat = flat();
    let mut log = DeletionLog::build(&flat);
    assert!(!log.is_deleted(u32::MAX));
    assert!(!log.delete(&mut flat, 4_000_000_000));
    assert_eq!(log.live_count(), 5);
    let mut sharded = sharded();
    let mut slog = DeletionLog::build(&sharded);
    assert!(!slog.delete(&mut sharded, u32::MAX));
    assert_eq!(slog.live_count(), 5);
    // Real deletions still work after the no-ops.
    assert!(log.delete(&mut flat, 0));
    assert!(slog.delete(&mut sharded, 0));
    assert_eq!(log.live_count(), 4);
    assert_eq!(slog.live_count(), 4);
}

#[test]
fn empty_and_unseen_token_inserts() {
    let mut flat = flat();
    let (id, _) = flat.insert(&mut []);
    assert_eq!(flat.db().set(id), &[] as &[TokenId]);
    // The empty set is findable (every measure defines its self-sim).
    assert_eq!(flat.knn(&[], 1).hits.len(), 1);
    let mut sharded = sharded();
    let (id, g) = sharded.insert(&mut [5_000, 5_000, 4_999]);
    assert!((g as usize) < sharded.partitioning().n_groups());
    assert_eq!(sharded.db().set(id), &[4_999, 5_000, 5_000]);
    let res = sharded.knn(&[4_999, 5_000], 1);
    assert_eq!(res.hits[0].0, id);
}

#[test]
fn degenerate_inputs_flow_through_the_serving_front() {
    // The front must preserve every degenerate-input guarantee of the
    // direct API: same empty results, same normalization, no hangs.
    let front = ServeFront::new(sharded(), ServeConfig::default());
    assert!(front.knn(&[0, 1], 0).unwrap().hits.is_empty());
    assert_eq!(front.knn(&[], 2).unwrap().hits.len(), 2);
    assert_eq!(front.knn(&[0, 1], 100).unwrap().hits.len(), 5);
    let messy = vec![7u32, 1, 2, 1, 7, 0];
    let direct = front.backend().knn(&messy, 4);
    assert_eq!(front.knn(&messy, 4).unwrap(), direct);
    assert!(front.range(&[1_000_000], 0.5).unwrap().hits.is_empty());
}

#[test]
fn other_measures_survive_the_same_degenerate_inputs() {
    let db = small_db();
    let cos = Les3Index::build(db.clone(), Partitioning::round_robin(5, 2), Cosine);
    let ovl = Les3Index::build(db, Partitioning::round_robin(5, 2), OverlapCoefficient);
    for q in [vec![], vec![9u32, 3, 9], vec![800_000u32]] {
        assert_eq!(cos.knn(&q, 2).hits.len(), 2, "{q:?}");
        assert_eq!(ovl.knn(&q, 2).hits.len(), 2, "{q:?}");
        let _ = cos.range(&q, 0.4);
        let _ = ovl.range(&q, 0.4);
    }
}
