//! Property tests for the durable index: build → interleaved
//! insert/delete → checkpoint (folding part of the history into the
//! segment) → more mutations (left in the WAL tail) → reopen, and the
//! reopened index must be indistinguishable — hits *and*
//! [`SearchStats`](les3_core::SearchStats), raw and tombstone-filtered —
//! from the live index that never touched the disk. Both backends, all
//! four similarity measures. Inserts may carry attributes (the
//! `InsertAttrs` WAL record / segment METADATA block); the reopened
//! attribute table and attribute-filtered answers must round-trip too.
//! Plus: random corruption of the segment bytes — including the
//! METADATA block — must surface as a descriptive error, never a panic;
//! and the SIG payload is pinned to bytes recorded before the sidecar's
//! in-memory layout became blocked and column-major.

mod common;

use common::{fnv1a, run};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use les3_core::metadata::{Filter, Filters};
use les3_core::persist::{save_index_with_meta, DurableIndex, PersistentBackend};
use les3_core::{
    ApproxParams, ApproxPolicy, Cosine, DeletionLog, Dice, Jaccard, Les3Index, MetadataIndex,
    MinHashIndex, OverlapCoefficient, Partitioning, Query, QueryCtl, QueryScratch, SearchResult,
    ShardPolicy, ShardedLes3Index, ShardedScratch, Similarity,
};
use les3_data::SetDatabase;
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "les3-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The query surface shared by both backends, for generic round-trip
/// checks ([`PersistentBackend`] deliberately has no query methods).
trait TestBackend: PersistentBackend {
    fn knn_q(&self, q: &[u32], k: usize) -> SearchResult;
    fn range_q(&self, q: &[u32], delta: f64) -> SearchResult;
    fn attr_knn_q(&self, q: &[u32], k: usize, meta: &MetadataIndex) -> SearchResult;
    fn build_log(&self) -> DeletionLog;
    fn enable_sidecar(&mut self, params: ApproxParams);
    fn sidecar(&self) -> Option<&MinHashIndex>;
    fn prefilter_knn_q(&self, q: &[u32], k: usize) -> (SearchResult, les3_core::ApproxInfo);
}

/// A prefilter shape that exercises the sidecar without saturating on
/// these tiny corpora: one row per band keeps per-set inclusion odds
/// well under 1 for most pairs.
const SIDECAR_POLICY: ApproxPolicy = ApproxPolicy::Prefilter { bands: 0, rows: 1 };

/// The fixed attribute predicate every round-trip answers under (only
/// `InsertAttrs` ops with `code % 3 == 0` match it).
fn gold_filter() -> Filters {
    Filters(vec![Filter::Eq {
        key: "tier".to_string(),
        value: "gold".to_string(),
    }])
}

impl<S: Similarity> TestBackend for Les3Index<S> {
    fn knn_q(&self, q: &[u32], k: usize) -> SearchResult {
        self.knn(q, k)
    }
    fn range_q(&self, q: &[u32], delta: f64) -> SearchResult {
        self.range(q, delta)
    }
    fn attr_knn_q(&self, q: &[u32], k: usize, meta: &MetadataIndex) -> SearchResult {
        let cand = meta
            .candidates(&gold_filter(), self.partitioning())
            .expect("non-empty filter list");
        run(
            self,
            Query {
                mask: Some(&cand),
                workers: 1,
                ..Query::knn(q, k)
            },
        )
    }
    fn build_log(&self) -> DeletionLog {
        DeletionLog::build(self)
    }
    fn enable_sidecar(&mut self, params: ApproxParams) {
        self.enable_approx(params);
    }
    fn sidecar(&self) -> Option<&MinHashIndex> {
        self.approx_sidecar()
    }
    fn prefilter_knn_q(&self, q: &[u32], k: usize) -> (SearchResult, les3_core::ApproxInfo) {
        let mut scratch = QueryScratch::new();
        self.knn_approx_ctl_on(1, q, k, SIDECAR_POLICY, &mut scratch, &QueryCtl::NONE)
            .expect("QueryCtl::NONE never interrupts")
    }
}

impl<S: Similarity> TestBackend for ShardedLes3Index<S> {
    fn knn_q(&self, q: &[u32], k: usize) -> SearchResult {
        self.knn(q, k)
    }
    fn range_q(&self, q: &[u32], delta: f64) -> SearchResult {
        self.range(q, delta)
    }
    fn attr_knn_q(&self, q: &[u32], k: usize, meta: &MetadataIndex) -> SearchResult {
        let cand = meta
            .candidates(&gold_filter(), self.partitioning())
            .expect("non-empty filter list");
        run(
            self,
            Query {
                mask: Some(&cand),
                workers: 1,
                ..Query::knn(q, k)
            },
        )
    }
    fn build_log(&self) -> DeletionLog {
        DeletionLog::build(self)
    }
    fn enable_sidecar(&mut self, params: ApproxParams) {
        self.enable_approx(params);
    }
    fn sidecar(&self) -> Option<&MinHashIndex> {
        self.approx_sidecar()
    }
    fn prefilter_knn_q(&self, q: &[u32], k: usize) -> (SearchResult, les3_core::ApproxInfo) {
        let mut scratch = ShardedScratch::new();
        self.knn_approx_ctl_on(1, q, k, SIDECAR_POLICY, &mut scratch, &QueryCtl::NONE)
            .expect("QueryCtl::NONE never interrupts")
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    /// Insert with attributes derived from `code` (see [`attrs_for`]):
    /// an `InsertAttrs` WAL record on the durable side.
    InsertAttrs(Vec<u32>, u8),
    Delete(u32),
}

fn attrs_for(code: u8) -> Vec<(String, String)> {
    let tier = ["gold", "silver", "bronze"][code as usize % 3];
    let mut attrs = vec![("tier".to_string(), tier.to_string())];
    if code.is_multiple_of(2) {
        attrs.push(("region".to_string(), format!("r{}", code % 5)));
    }
    attrs
}

fn db_strategy() -> impl Strategy<Value = SetDatabase> {
    prop::collection::vec(prop::collection::btree_set(0u32..80, 1..20), 2..40).prop_map(|sets| {
        SetDatabase::from_sets(sets.into_iter().map(|s| s.into_iter().collect::<Vec<_>>()))
    })
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::btree_set(0u32..110, 1..15)
                .prop_map(|s| Op::Insert(s.into_iter().collect())),
            prop::collection::btree_set(0u32..110, 1..15).prop_map(|s| {
                let code = s.len() as u8 ^ s.iter().next().copied().unwrap_or(0) as u8;
                Op::InsertAttrs(s.into_iter().collect(), code)
            }),
            (0u32..1000).prop_map(Op::Delete),
        ],
        0..12,
    )
}

/// Applies `ops` to a live backend + log and to a [`DurableIndex`] over
/// an identical copy, checkpointing halfway, then reopens from disk and
/// demands bit-for-bit equality on structure and on every query.
fn check_roundtrip<B: TestBackend>(
    mut live: B,
    copy: B,
    ops: &[Op],
    queries: &[Vec<u32>],
    k: usize,
    delta: f64,
    tag: &str,
) {
    let dir = fresh_dir(tag);
    let mut live_log = live.build_log();
    let mut live_meta = MetadataIndex::new();
    live_meta.push_empty(live.sharded().db().len());
    let mut durable = DurableIndex::create(&dir, copy).unwrap();
    let halfway = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(tokens) => {
                let (live_id, live_g) = live.sharded_mut().insert(&mut tokens.clone());
                live_log.note_insert(live.sharded(), live_id);
                live_meta.push_empty(1);
                let placed = durable.insert(&mut tokens.clone()).unwrap();
                assert_eq!(placed, (live_id, live_g), "insert placement diverged");
            }
            Op::InsertAttrs(tokens, code) => {
                let (live_id, live_g) = live.sharded_mut().insert(&mut tokens.clone());
                live_log.note_insert(live.sharded(), live_id);
                let attrs = attrs_for(*code);
                live_meta.push(&attrs);
                let placed = durable
                    .insert_with_attrs(&mut tokens.clone(), &attrs)
                    .unwrap();
                assert_eq!(placed, (live_id, live_g), "insert placement diverged");
            }
            Op::Delete(pick) => {
                let id = pick % live.sharded().db().len() as u32;
                let live_ok = live_log.delete(live.sharded_mut(), id);
                assert_eq!(durable.delete(id).unwrap(), live_ok, "delete diverged");
            }
        }
        if i + 1 == halfway {
            // Fold the first half into a fresh segment; the second half
            // stays in the WAL and must replay on open.
            durable.checkpoint().unwrap();
        }
    }
    let expected_epoch = durable.epoch();
    let sim = live.sharded().sim();
    drop(durable);

    let reopened = DurableIndex::<B>::open(&dir, sim).unwrap();
    assert_eq!(reopened.epoch(), expected_epoch);
    assert_eq!(
        reopened.backend().sharded().db(),
        live.sharded().db(),
        "database diverged"
    );
    assert_eq!(
        reopened.log().deleted_ids(),
        live_log.deleted_ids(),
        "tombstones diverged"
    );
    assert_eq!(
        reopened.meta().n_sets(),
        live_meta.n_sets(),
        "metadata size diverged"
    );
    for id in 0..live_meta.n_sets() as u32 {
        assert_eq!(
            reopened.meta().attrs(id),
            live_meta.attrs(id),
            "attributes diverged at set {id}"
        );
    }
    for q in queries {
        let mut a = reopened.backend().knn_q(q, k);
        let mut b = live.knn_q(q, k);
        assert_eq!(a.hits, b.hits, "kNN hits diverged after reload");
        assert_eq!(a.stats, b.stats, "kNN stats diverged after reload");
        reopened.log().filter_hits(&mut a.hits);
        live_log.filter_hits(&mut b.hits);
        assert_eq!(a.hits, b.hits, "filtered kNN diverged after reload");
        let a = reopened.backend().attr_knn_q(q, k, reopened.meta());
        let b = live.attr_knn_q(q, k, &live_meta);
        assert_eq!(
            a.hits, b.hits,
            "attribute-filtered kNN diverged after reload"
        );
        assert_eq!(
            a.stats, b.stats,
            "attribute-filtered kNN stats diverged after reload"
        );
        let mut a = reopened.backend().range_q(q, delta);
        let mut b = live.range_q(q, delta);
        assert_eq!(a.hits, b.hits, "range hits diverged after reload");
        assert_eq!(a.stats, b.stats, "range stats diverged after reload");
        reopened.log().filter_hits(&mut a.hits);
        live_log.filter_hits(&mut b.hits);
        assert_eq!(a.hits, b.hits, "filtered range diverged after reload");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[allow(clippy::too_many_arguments)]
fn check_measure<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    sim: S,
    n_shards: usize,
    ops: &[Op],
    queries: &[Vec<u32>],
    k: usize,
    delta: f64,
) {
    check_roundtrip(
        Les3Index::build(db.clone(), part.clone(), sim),
        Les3Index::build(db.clone(), part.clone(), sim),
        ops,
        queries,
        k,
        delta,
        "rt-flat",
    );
    let build = || {
        ShardedLes3Index::build(
            db.clone(),
            part.clone(),
            sim,
            n_shards,
            ShardPolicy::Contiguous,
        )
    };
    check_roundtrip(build(), build(), ops, queries, k, delta, "rt-shard");
}

/// Like [`check_roundtrip`], with the MinHash sidecar enabled: the
/// reopened signatures must be bit-for-bit the live ones (the SIG
/// segment block plus WAL replay reproduce every incremental push),
/// both must equal a cold rebuild over the final database, and
/// prefiltered queries must answer identically after reload.
fn check_sidecar_roundtrip<B: TestBackend>(
    mut live: B,
    mut copy: B,
    ops: &[Op],
    queries: &[Vec<u32>],
    k: usize,
    params: ApproxParams,
    tag: &str,
) {
    live.enable_sidecar(params);
    copy.enable_sidecar(params);
    let dir = fresh_dir(tag);
    let mut live_log = live.build_log();
    let mut durable = DurableIndex::create(&dir, copy).unwrap();
    let halfway = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(tokens) | Op::InsertAttrs(tokens, _) => {
                let (live_id, _) = live.sharded_mut().insert(&mut tokens.clone());
                live_log.note_insert(live.sharded(), live_id);
                durable.insert(&mut tokens.clone()).unwrap();
            }
            Op::Delete(pick) => {
                let id = pick % live.sharded().db().len() as u32;
                let live_ok = live_log.delete(live.sharded_mut(), id);
                assert_eq!(durable.delete(id).unwrap(), live_ok, "delete diverged");
            }
        }
        if i + 1 == halfway {
            durable.checkpoint().unwrap();
        }
    }
    let sim = live.sharded().sim();
    drop(durable);

    let reopened = DurableIndex::<B>::open(&dir, sim).unwrap();
    let live_sig = live.sidecar().expect("sidecar enabled on the live index");
    assert_eq!(
        reopened.backend().sidecar(),
        Some(live_sig),
        "sidecar diverged after reload"
    );
    // Incremental pushes must land exactly where a cold rebuild over the
    // final corpus does (deletes are logical, so tombstoned sets keep
    // their signatures and the rebuild sees them too).
    assert_eq!(
        &MinHashIndex::build(live.sharded().db(), params),
        live_sig,
        "incremental sidecar diverged from a cold rebuild"
    );
    for q in queries {
        let (a, ai) = reopened.backend().prefilter_knn_q(q, k);
        let (b, bi) = live.prefilter_knn_q(q, k);
        assert_eq!(a.hits, b.hits, "prefiltered kNN hits diverged after reload");
        assert_eq!(
            a.stats, b.stats,
            "prefiltered kNN stats diverged after reload"
        );
        assert_eq!(ai, bi, "prefilter verdict diverged after reload");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn pseudo_partitioning(n_sets: usize, n_groups: usize, seed: u64) -> Partitioning {
    let assignment: Vec<u32> = (0..n_sets)
        .map(|i| {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 33;
            (h % n_groups as u64) as u32
        })
        .collect();
    Partitioning::from_assignment(assignment, n_groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn reopened_index_is_bit_for_bit_the_live_one(
        db in db_strategy(),
        ops in ops_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..12),
        k in 1usize..8,
        delta in 0.05f64..1.0,
        n_groups in 1usize..8,
        n_shards in 1usize..4,
        seed in 0u64..500,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let mut queries: Vec<Vec<u32>> = vec![query.into_iter().collect()];
        queries.push(db.set(0).to_vec());
        queries.push(db.set((db.len() / 2) as u32).to_vec());
        check_measure(&db, &part, Jaccard, n_shards, &ops, &queries, k, delta);
        check_measure(&db, &part, Dice, n_shards, &ops, &queries, k, delta);
        check_measure(&db, &part, Cosine, n_shards, &ops, &queries, k, delta);
        check_measure(&db, &part, OverlapCoefficient, n_shards, &ops, &queries, k, delta);
    }

    #[test]
    fn sidecar_signatures_roundtrip_bit_for_bit(
        db in db_strategy(),
        ops in ops_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..12),
        k in 1usize..8,
        n_groups in 1usize..8,
        n_shards in 1usize..4,
        seed in 0u64..500,
        bands in 1u32..5,
        rows in 1u32..4,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let params = ApproxParams { bands, rows, seed: seed ^ 0x51_67 };
        let mut queries: Vec<Vec<u32>> = vec![query.into_iter().collect()];
        queries.push(db.set(0).to_vec());
        queries.push(db.set((db.len() / 2) as u32).to_vec());
        check_sidecar_roundtrip(
            Les3Index::build(db.clone(), part.clone(), Jaccard),
            Les3Index::build(db.clone(), part.clone(), Jaccard),
            &ops,
            &queries,
            k,
            params,
            "rt-sig-flat",
        );
        let build = || {
            ShardedLes3Index::build(
                db.clone(),
                part.clone(),
                Jaccard,
                n_shards,
                ShardPolicy::Contiguous,
            )
        };
        check_sidecar_roundtrip(build(), build(), &ops, &queries, k, params, "rt-sig-shard");
    }

    #[test]
    fn corrupted_segments_error_and_never_panic(
        db in db_strategy(),
        n_groups in 1usize..6,
        seed in 0u64..500,
        flips in prop::collection::vec((any::<u16>(), 1u8..=255), 1..12),
        truncate_to in any::<u16>(),
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let index = Les3Index::build(db.clone(), part, Jaccard);
        let dir = fresh_dir("rt-corrupt");
        // Attributes on a third of the corpus put a METADATA block in the
        // segment, so the corruption sweep reaches its bytes too.
        let mut meta = MetadataIndex::new();
        for id in 0..index.db().len() {
            if id % 3 == 0 {
                meta.push(&attrs_for(id as u8));
            } else {
                meta.push_empty(1);
            }
        }
        save_index_with_meta(&index, &[], &meta, &dir).unwrap();
        let segment = dir.join("segment");
        let good = std::fs::read(&segment).unwrap();

        // Random byte flips: open must reject the file with a real error.
        let mut bad = good.clone();
        for &(pos, mask) in &flips {
            let p = pos as usize % bad.len();
            bad[p] ^= mask;
        }
        if bad != good {
            std::fs::write(&segment, &bad).unwrap();
            let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard)
                .err()
                .expect("corrupt segment must not open");
            prop_assert!(!err.to_string().is_empty());
        }

        // Truncation: the END block is gone, so open must reject too.
        let cut = (truncate_to as usize) % good.len();
        std::fs::write(&segment, &good[..cut]).unwrap();
        prop_assert!(DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}

// -- SIG payload pinned across in-memory layout changes ------------------

const PIN_PARAMS: ApproxParams = ApproxParams {
    bands: 2,
    rows: 2,
    seed: 42,
};

/// `MinHashIndex::encode()` of `[[0,1,2,3], [0,1,2,4], []]` under
/// [`PIN_PARAMS`], recorded from commit 5238dbd — the last one whose
/// in-memory matrix *was* the row-major payload.
#[rustfmt::skip]
const PINNED_SIG: [u8; 120] = [
    0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // bands, rows
    0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seed
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // n_sets
    0xdd, 0xb8, 0x9b, 0x8e, 0xd7, 0x02, 0xa7, 0x1e, // set 0
    0x33, 0x76, 0xaa, 0xf3, 0xe3, 0xb3, 0x5e, 0x19,
    0x8b, 0xdb, 0x0f, 0xfa, 0x14, 0x5e, 0xa2, 0x13,
    0xcb, 0x91, 0xe3, 0xb7, 0x80, 0x9b, 0x07, 0x13,
    0x25, 0xaf, 0x9c, 0x6c, 0x9b, 0x83, 0x91, 0x27, // set 1
    0xad, 0x35, 0x72, 0x90, 0x3f, 0x03, 0xcd, 0x35,
    0x8b, 0xdb, 0x0f, 0xfa, 0x14, 0x5e, 0xa2, 0x13,
    0xcb, 0x91, 0xe3, 0xb7, 0x80, 0x9b, 0x07, 0x13,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // set 2 (empty)
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
];

/// 70 sets (more than one 64-set block), every fifth one empty.
fn pinned_big_sets() -> Vec<Vec<u32>> {
    (0..70u32)
        .map(|i| {
            let mut s: Vec<u32> = (0..i % 5).map(|j| (i * 7 + j * 13) % 97).collect();
            s.sort_unstable();
            s
        })
        .collect()
}

/// The SIG block's bytes — and the answers a sidecar decoded from them
/// gives — are those of the parent commit: the blocked in-memory layout
/// must never leak into the payload, or segments written before it stop
/// loading (or worse, load as a transposed matrix).
#[test]
fn sig_payload_is_pinned_across_the_layout_rewrite() {
    let small = SetDatabase::from_sets(vec![vec![0u32, 1, 2, 3], vec![0, 1, 2, 4], vec![]]);
    let built = MinHashIndex::build(&small, PIN_PARAMS);
    assert_eq!(built.encode(), PINNED_SIG);
    let decoded = MinHashIndex::decode(&PINNED_SIG).expect("parent bytes decode");
    assert_eq!(decoded, built);
    // (query, bands, rows) → candidates, as the parent answered.
    let small_answers: [(&[u32], u32, u32, &[u32]); 5] = [
        (&[0, 1, 2, 3], 0, 2, &[0, 1]),
        (&[0, 1, 2, 4], 2, 1, &[0, 1]),
        (&[0, 1, 2], 1, 1, &[1]),
        (&[], 0, 2, &[2]),
        (&[7], 0, 0, &[0, 1, 2]),
    ];
    for (query, bands, rows, want) in small_answers {
        assert_eq!(decoded.candidates(query, bands, rows), want);
    }

    let sets = pinned_big_sets();
    let built = MinHashIndex::build(&SetDatabase::from_sets(sets.clone()), PIN_PARAMS);
    let bytes = built.encode();
    assert_eq!(bytes.len(), 2264);
    assert_eq!(fnv1a(&bytes), 0x1482_fe52_7265_9cd3, "recorded at 5238dbd");
    let decoded = MinHashIndex::decode(&bytes).expect("roundtrip");
    assert_eq!(decoded, built);
    let empties: Vec<u32> = (0..70).step_by(5).collect();
    let big_answers: [(&[u32], u32, u32, &[u32]); 5] = [
        (&sets[69], 0, 2, &[33, 57, 69]),
        (&sets[64], 2, 1, &[28, 52, 64]),
        (&sets[3], 1, 1, &[3]),
        (&[], 0, 2, &empties),
        (&[1, 14, 27], 2, 1, &[2, 14, 38]),
    ];
    for (query, bands, rows, want) in big_answers {
        assert_eq!(decoded.candidates(query, bands, rows), want);
    }
}

/// The fixed flat fixture of the compatibility pins: the 70 pinned sets
/// in 6 pseudo-random groups, Jaccard.
fn pinned_flat_index() -> Les3Index<Jaccard> {
    let db = SetDatabase::from_sets(pinned_big_sets());
    let part = pseudo_partitioning(db.len(), 6, 0x1e53);
    Les3Index::build(db, part, Jaccard)
}

/// A flat index is stored without a SHARDS block and with `n_shards ==
/// 0`; the bytes `DurableIndex::create` writes for a fixed fixture —
/// and for the same fixture after a logged insert, a logged delete and
/// a checkpoint — are those of 08853e3, the last commit where
/// `Les3Index` was an engine of its own rather than the 1-shard one.
#[test]
fn flat_segment_bytes_are_pinned_across_the_engine_merge() {
    let dir = fresh_dir("flat-pin");
    let mut durable = DurableIndex::create(&dir, pinned_flat_index()).unwrap();
    let bytes = std::fs::read(dir.join("segment")).unwrap();
    assert_eq!(bytes.len(), 4_279);
    assert_eq!(fnv1a(&bytes), 0xc181_e663_74fa_a6eb, "recorded at 08853e3");

    durable.insert(&mut [96, 3, 40, 3]).unwrap();
    durable.insert(&mut [200, 7]).unwrap();
    assert!(durable.delete(11).unwrap());
    durable.checkpoint().unwrap();
    let bytes = std::fs::read(dir.join("segment")).unwrap();
    assert_eq!(bytes.len(), 4_391);
    assert_eq!(fnv1a(&bytes), 0x9326_574e_dfa4_079b, "recorded at 08853e3");
    drop(durable);

    let meta = les3_core::persist::read_meta(&dir).unwrap();
    assert_eq!((meta.n_shards, meta.epoch), (0, 1));
    let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
    assert_eq!(reopened.backend().db().len(), 72);
    std::fs::remove_dir_all(&dir).ok();
}

/// Flat and sharded directories are distinct kinds on disk, however many
/// shards the sharded one has: opening either as the other is a
/// `Mismatch`, never a silently re-sharded index.
#[test]
fn opening_a_directory_as_the_other_kind_is_a_mismatch() {
    use les3_core::PersistError;
    let flat_dir = fresh_dir("kind-flat");
    drop(DurableIndex::create(&flat_dir, pinned_flat_index()).unwrap());
    let err = DurableIndex::<ShardedLes3Index<Jaccard>>::open(&flat_dir, Jaccard)
        .err()
        .expect("a flat segment must not open as sharded");
    assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
    assert_eq!(
        err.to_string(),
        "segment mismatch: expected a sharded index, found a flat segment"
    );
    DurableIndex::<Les3Index<Jaccard>>::open(&flat_dir, Jaccard).expect("still opens as flat");

    for n_shards in [1usize, 3] {
        let dir = fresh_dir("kind-sharded");
        let flat = pinned_flat_index();
        let sharded = ShardedLes3Index::build(
            flat.db().clone(),
            flat.partitioning().clone(),
            Jaccard,
            n_shards,
            ShardPolicy::Contiguous,
        );
        drop(DurableIndex::create(&dir, sharded).unwrap());
        let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard)
            .err()
            .expect("a sharded segment must not open as flat");
        assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "segment mismatch: expected a flat index, found a sharded segment"
        );
        let reopened = DurableIndex::<ShardedLes3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
        assert_eq!(reopened.backend().n_shards(), n_shards);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&flat_dir).ok();
}

/// A namespace created with `n_shards: 0` is the flat kind before and
/// after a save → load, and one created with a single shard is not.
#[test]
fn namespace_kind_survives_save_and_load() {
    use les3_core::{NamespaceSpec, Namespaces};
    for (n_shards, kind) in [(0usize, "flat"), (1, "sharded"), (2, "sharded")] {
        let root = fresh_dir("ns-kind");
        let registry = Namespaces::new();
        let spec = NamespaceSpec {
            n_shards,
            n_groups: 4,
            sets: pinned_big_sets(),
            ..Default::default()
        };
        let info = registry.create("pin", spec).unwrap().info();
        assert_eq!((info.kind, info.n_shards), (kind, n_shards));
        registry.save_all(&root).unwrap();

        let loaded = Namespaces::new();
        assert_eq!(loaded.load_all(&root).unwrap(), 1);
        assert_eq!(loaded.expect("pin").unwrap().info(), info);
        std::fs::remove_dir_all(&root).ok();
    }
}
