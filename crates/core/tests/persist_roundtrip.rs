//! Property tests for the durable index: build → interleaved
//! insert/delete → checkpoint (folding part of the history into the
//! segment) → more mutations (left in the WAL tail) → reopen, and the
//! reopened index must be indistinguishable — hits *and*
//! [`SearchStats`](les3_core::SearchStats), raw and tombstone-filtered —
//! from the live index that never touched the disk. Both index types,
//! all four similarity measures. Inserts may carry attributes (the
//! `InsertAttrs` WAL record / segment METADATA block); the reopened
//! attribute table and attribute-filtered answers must round-trip too.
//! The reopened index must also be the index `build` makes from what the
//! segment stores (open ≡ build: nothing derived is on disk). Plus:
//! random corruption of the segment bytes — including the METADATA
//! block — must surface as a descriptive error, never a panic; a
//! version-1 file and a version-1 block kind are each rejected by name;
//! the bytes of a version-2 segment are pinned, and both index types
//! write them; a segment that records shards, or carries the old SHARDS
//! block, is refused; the SIG block older builds wrote is checked, then
//! skipped.

mod common;

use common::{fnv1a, run};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use les3_core::metadata::{Filter, Filters};
use les3_core::persist::{DurableIndex, PersistentBackend};
use les3_core::{
    ApproxPolicy, Cosine, DeletionLog, Dice, Jaccard, Les3Index, LiveIndex, MetadataIndex,
    OverlapCoefficient, Partitioning, Query, QueryScratch, SearchResult, ShardPolicy,
    ShardedLes3Index, Similarity, Tgm,
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
    /// The global token-group matrix, for the kind that has one.
    fn flat_tgm(&self) -> Option<&Tgm> {
        None
    }
}

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
                ..Query::knn(q, k)
            },
        )
    }
    fn build_log(&self) -> DeletionLog {
        DeletionLog::build(self)
    }
    fn flat_tgm(&self) -> Option<&Tgm> {
        Some(self.tgm())
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
                ..Query::knn(q, k)
            },
        )
    }
    fn build_log(&self) -> DeletionLog {
        DeletionLog::build(self)
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

/// Applies `op` to an in-memory backend + log, the way WAL replay does.
fn apply<B: TestBackend>(backend: &mut B, log: &mut DeletionLog, op: &Op) {
    match op {
        Op::Insert(tokens) | Op::InsertAttrs(tokens, _) => {
            let (id, _) = backend.sharded_mut().insert(&mut tokens.clone());
            log.note_insert(backend.sharded(), id);
        }
        Op::Delete(pick) => {
            let id = pick % backend.sharded().db().len() as u32;
            log.delete(backend.sharded_mut(), id);
        }
    }
}

/// Applies `ops` to a live backend + log and to a [`DurableIndex`] over
/// an identical copy (both from `build`), checkpointing halfway, then
/// reopens from disk and demands bit-for-bit equality on structure and
/// on every query — with the live index, and with the index `build`
/// makes from the last segment's sets and assignment once its tombstones
/// and the WAL tail are applied to it.
#[allow(clippy::too_many_arguments)]
fn check_roundtrip<B: TestBackend>(
    build: impl Fn(SetDatabase, Partitioning) -> B,
    db: &SetDatabase,
    part: &Partitioning,
    ops: &[Op],
    queries: &[Vec<u32>],
    k: usize,
    delta: f64,
    tag: &str,
) {
    let dir = fresh_dir(tag);
    let mut live = build(db.clone(), part.clone());
    let mut live_log = live.build_log();
    let mut live_meta = MetadataIndex::new();
    live_meta.push_empty(live.sharded().db().len());
    let mut durable = DurableIndex::create(&dir, build(db.clone(), part.clone())).unwrap();
    // What `open` must produce: the segment is epoch 0's until the
    // checkpoint below replaces it, and every op after it is WAL tail.
    let mut rebuilt = build(db.clone(), part.clone());
    let mut rebuilt_log = rebuilt.build_log();
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
        apply(&mut rebuilt, &mut rebuilt_log, op);
        if i + 1 == halfway {
            // Fold the first half into a fresh segment; the second half
            // stays in the WAL and must replay on open.
            durable.checkpoint().unwrap();
            let engine = live.sharded();
            rebuilt = build(engine.db().clone(), engine.partitioning().clone());
            rebuilt_log = rebuilt.build_log();
            for id in live_log.deleted_ids() {
                rebuilt_log.delete(rebuilt.sharded_mut(), id);
            }
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

    // open ≡ build.
    let opened = reopened.backend();
    assert_eq!(
        opened.sharded().index_size_in_bytes(),
        rebuilt.sharded().index_size_in_bytes(),
        "index size diverged from a rebuild"
    );
    if let (Some(a), Some(b)) = (opened.flat_tgm(), rebuilt.flat_tgm()) {
        let engine = opened.sharded();
        for g in 0..engine.partitioning().n_groups() as u32 {
            for t in 0..engine.db().universe_size() {
                assert_eq!(a.bit(g, t), b.bit(g, t), "TGM bit ({g}, {t}) diverged");
            }
        }
    }
    for q in queries {
        assert_eq!(opened.knn_q(q, k), rebuilt.knn_q(q, k), "kNN vs rebuild");
        assert_eq!(
            opened.range_q(q, delta),
            rebuilt.range_q(q, delta),
            "range vs rebuild"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[allow(clippy::too_many_arguments)]
fn check_measure<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    sim: S,
    ops: &[Op],
    queries: &[Vec<u32>],
    k: usize,
    delta: f64,
) {
    check_roundtrip(
        |db, part| Les3Index::build(db, part, sim),
        db,
        part,
        ops,
        queries,
        k,
        delta,
        "rt-flat",
    );
    check_roundtrip(
        |db, part| ShardedLes3Index::build(db, part, sim, 4, ShardPolicy::Contiguous),
        db,
        part,
        ops,
        queries,
        k,
        delta,
        "rt-shard",
    );
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
        seed in 0u64..500,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let mut queries: Vec<Vec<u32>> = vec![query.into_iter().collect()];
        queries.push(db.set(0).to_vec());
        queries.push(db.set((db.len() / 2) as u32).to_vec());
        check_measure(&db, &part, Jaccard, &ops, &queries, k, delta);
        check_measure(&db, &part, Dice, &ops, &queries, k, delta);
        check_measure(&db, &part, Cosine, &ops, &queries, k, delta);
        check_measure(&db, &part, OverlapCoefficient, &ops, &queries, k, delta);
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
        LiveIndex::with_attrs(index, meta).save(&dir).unwrap();
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

// -- format pins ---------------------------------------------------------

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

/// The fixed flat fixture of the compatibility pins: the 70 pinned sets
/// in 6 pseudo-random groups, Jaccard.
fn pinned_flat_index() -> Les3Index<Jaccard> {
    let db = SetDatabase::from_sets(pinned_big_sets());
    let part = pseudo_partitioning(db.len(), 6, 0x1e53);
    Les3Index::build(db, part, Jaccard)
}

/// The bytes `DurableIndex::create` writes for a fixed fixture — and
/// for the same fixture after a logged insert, a logged delete and a
/// checkpoint — are format version 2's, recorded at the commit that
/// introduced it (version 1 wrote 4 279 and 4 391 bytes for the same two
/// states: the TGM and RUNS blocks are gone).
#[test]
fn flat_segment_bytes_are_pinned_at_format_v2() {
    let dir = fresh_dir("flat-pin");
    let mut durable = DurableIndex::create(&dir, pinned_flat_index()).unwrap();
    let bytes = std::fs::read(dir.join("segment")).unwrap();
    assert_eq!(bytes.len(), 1_251);
    assert_eq!(
        fnv1a(&bytes),
        0x6f21_be80_df5d_74c9,
        "recorded with format v2"
    );

    durable.insert(&mut [96, 3, 40, 3]).unwrap();
    durable.insert(&mut [200, 7]).unwrap();
    assert!(durable.delete(11).unwrap());
    durable.checkpoint().unwrap();
    let bytes = std::fs::read(dir.join("segment")).unwrap();
    assert_eq!(bytes.len(), 1_295);
    assert_eq!(
        fnv1a(&bytes),
        0xe4b8_3ada_066e_322b,
        "recorded with format v2"
    );
    drop(durable);

    let meta = les3_core::persist::read_meta(&dir).unwrap();
    assert_eq!(meta.epoch, 1);
    let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
    assert_eq!(reopened.backend().db().len(), 72);
    std::fs::remove_dir_all(&dir).ok();
}

/// One engine, one on-disk kind: the engine built under its sharded name,
/// with layout arguments, writes exactly the pinned bytes of
/// [`flat_segment_bytes_are_pinned_at_format_v2`]'s first state.
#[test]
fn a_sharded_build_writes_the_pinned_flat_bytes() {
    let flat = pinned_flat_index();
    let sharded = ShardedLes3Index::build(
        flat.db().clone(),
        flat.partitioning().clone(),
        Jaccard,
        4,
        ShardPolicy::Contiguous,
    );
    let dir = fresh_dir("sharded-flat-pin");
    drop(DurableIndex::create(&dir, sharded).unwrap());
    let bytes = std::fs::read(dir.join("segment")).unwrap();
    assert_eq!(bytes.len(), 1_251);
    assert_eq!(fnv1a(&bytes), 0x6f21_be80_df5d_74c9);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `(offset, kind, payload length)` of every block of a segment.
fn blocks(bytes: &[u8]) -> Vec<(usize, u32, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let (mut out, mut pos) = (Vec::new(), 8);
    while pos < bytes.len() {
        let len = u32_at(pos + 4) as usize;
        out.push((pos, u32_at(pos), len));
        pos += 12 + len;
    }
    out
}

/// There is one format: a version-1 header is refused by number, and the
/// two block kinds only version 1 had (4 = TGM, 5 = RUNS) are unknown
/// blocks in a version-2 file, wherever they sit.
#[test]
fn v1_files_and_v1_block_kinds_are_refused() {
    use les3_core::PersistError;
    let dir = fresh_dir("v1");
    drop(DurableIndex::create(&dir, pinned_flat_index()).unwrap());
    let segment = dir.join("segment");
    let good = std::fs::read(&segment).unwrap();
    assert_eq!(good[4..8], 2u32.to_le_bytes());

    let mut v1 = good.clone();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&segment, &v1).unwrap();
    let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).err();
    assert!(
        matches!(err, Some(PersistError::UnsupportedVersion(1))),
        "{err:?}"
    );

    // The kind field is outside the CRC, so relabelling a block keeps
    // the file well-formed down to the END count.
    let layout = blocks(&good);
    for kind in [4u32, 5] {
        for &(at, was, _) in &layout[1..layout.len() - 1] {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&kind.to_le_bytes());
            std::fs::write(&segment, &bad).unwrap();
            let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).err();
            assert!(
                matches!(
                    err,
                    Some(PersistError::Corrupt {
                        section: "block",
                        ..
                    })
                ),
                "kind {was} relabelled {kind}: {err:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `DurableIndex::create` starts a fresh deletion log, so a backend some
/// other log has already deleted from is outside its contract (those
/// sets would be believed live under bounds that no longer cover them):
/// debug builds refuse it, and the documented route — the deletions
/// happen inside a `LiveIndex`, which saves itself, then `open` — carries
/// them over.
#[cfg(debug_assertions)]
#[test]
fn create_refuses_a_backend_that_was_deleted_from() {
    let mut index = pinned_flat_index();
    let mut log = DeletionLog::build(&index);
    assert!(log.delete(&mut index, 11));
    let live = index.clone();

    let dir = fresh_dir("create-contract");
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        DurableIndex::create(&dir, index).map(drop)
    }));
    assert!(refused.is_err(), "create accepted a deleted-from backend");

    let mut with_log = LiveIndex::new(pinned_flat_index());
    assert!(with_log.delete(11));
    with_log.save(&dir).unwrap();
    let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
    assert_eq!(reopened.log().deleted_ids(), [11]);
    let q = live.db().set(11).to_vec();
    assert_eq!(reopened.backend().knn(&q, 5), live.knn(&q, 5));
    std::fs::remove_dir_all(&dir).ok();
}

/// Recomputes the CRC of the block whose header starts at `at`.
fn fix_crc(bytes: &mut [u8], at: usize) {
    let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
    let crc = les3_core::persist::io::crc32(&bytes[at + 12..at + 12 + len]);
    bytes[at + 8..at + 12].copy_from_slice(&crc.to_le_bytes());
}

/// A segment whose META records shards was written by a sharded index
/// of an earlier build; the format no longer reads that kind. With the
/// slot patched to 4 (CRC fixed up) the pinned segment is a `Mismatch`
/// to `read_meta`, to `open` under either index type and to
/// `Namespaces::load_all` — never a silently flattened index.
#[test]
fn a_segment_recording_shards_is_refused() {
    use les3_core::{NamespaceError, Namespaces, PersistError};
    let root = fresh_dir("sharded-refused");
    let dir = root.join("old");
    drop(DurableIndex::create(&dir, pinned_flat_index()).unwrap());
    let segment = dir.join("segment");
    let mut bytes = std::fs::read(&segment).unwrap();
    let (meta_at, kind, _) = blocks(&bytes)[0];
    assert_eq!(kind, 1, "META comes first");
    // META's payload: epoch u64, then the reserved slot.
    let slot = meta_at + 12 + 8;
    assert_eq!(bytes[slot..slot + 4], 0u32.to_le_bytes());
    bytes[slot..slot + 4].copy_from_slice(&4u32.to_le_bytes());
    fix_crc(&mut bytes, meta_at);
    std::fs::write(&segment, &bytes).unwrap();

    let expected = "segment mismatch: expected a flat segment, found a segment recording 4 shards";
    let err = les3_core::persist::read_meta(&dir).unwrap_err();
    assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
    assert_eq!(err.to_string(), expected);
    let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard)
        .err()
        .unwrap();
    assert_eq!(err.to_string(), expected);
    let err = DurableIndex::<ShardedLes3Index<Jaccard>>::open(&dir, Jaccard)
        .err()
        .unwrap();
    assert_eq!(err.to_string(), expected);
    let err = Namespaces::new().load_all(&root).unwrap_err();
    assert!(
        matches!(err, NamespaceError::Persist(PersistError::Mismatch { .. })),
        "{err}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// `good` with a well-formed block of `kind` spliced in before the
/// first block of kind `before`, the END count fixed up.
fn splice_block(good: &[u8], before: u32, kind: u32, payload: &[u8]) -> Vec<u8> {
    let layout = blocks(good);
    let &(at, _, _) = layout.iter().find(|b| b.1 == before).expect("the block");
    let mut out = good[..at].to_vec();
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&les3_core::persist::io::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&good[at..]);
    let (end_at, end_kind, _) = *blocks(&out).last().unwrap();
    assert_eq!(end_kind, 0, "END comes last");
    let count = u64::from_le_bytes(out[end_at + 12..end_at + 20].try_into().unwrap());
    out[end_at + 12..end_at + 20].copy_from_slice(&(count + 1).to_le_bytes());
    fix_crc(&mut out, end_at);
    out
}

/// Block kind 6 held a sharded segment's group → shard layout. It is an
/// unknown kind now: the pinned segment with a well-formed kind-6 block
/// spliced in before TOMBS (END count fixed up) is `Corrupt`.
#[test]
fn a_shards_block_is_an_unknown_kind() {
    use les3_core::PersistError;
    let dir = fresh_dir("shards-block");
    drop(DurableIndex::create(&dir, pinned_flat_index()).unwrap());
    let segment = dir.join("segment");
    let good = std::fs::read(&segment).unwrap();
    // The old SHARDS payload: 6 groups, all in shard 0.
    let payload: Vec<u8> = [6u32, 0, 0, 0, 0, 0, 0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    std::fs::write(&segment, splice_block(&good, 7, 6, &payload)).unwrap();

    let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).err();
    assert!(
        matches!(
            &err,
            Some(PersistError::Corrupt { section: "block", detail })
                if detail == "unknown block kind 6"
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Older builds saved a MinHash sidecar's parameters as a SIG block
/// (kind 9: bands u32, rows u32, seed u64), last before END. Its sets and
/// assignment are intact, so the reader checks its CRC like any block's
/// and skips it: the pinned segment with one spliced in opens to the
/// same index — kNN and range hits and stats — and its next checkpoint
/// writes the bytes the unspliced segment's does, with no kind-9 block.
/// A kind-9 block whose CRC does not hold is `Corrupt`.
#[test]
fn an_old_sig_block_is_checked_then_skipped() {
    use les3_core::PersistError;
    let root = fresh_dir("sig-skipped");
    let (plain_dir, sig_dir) = (root.join("plain"), root.join("sig"));
    drop(DurableIndex::create(&plain_dir, pinned_flat_index()).unwrap());
    drop(DurableIndex::create(&sig_dir, pinned_flat_index()).unwrap());
    let segment = sig_dir.join("segment");
    let good = std::fs::read(&segment).unwrap();
    let params: Vec<u8> = [8u32.to_le_bytes(), 1u32.to_le_bytes()]
        .concat()
        .into_iter()
        .chain(0x1e53_c0de_u64.to_le_bytes())
        .collect();
    let spliced = splice_block(&good, 0, 9, &params);
    assert_eq!(spliced.len(), good.len() + 12 + 16);
    std::fs::write(&segment, &spliced).unwrap();

    let open = |dir: &PathBuf| DurableIndex::<Les3Index<Jaccard>>::open(dir, Jaccard).unwrap();
    let (mut plain, mut sig) = (open(&plain_dir), open(&sig_dir));
    let db = plain.backend().db().clone();
    let queries: Vec<Vec<u32>> = (0..db.len() as u32)
        .step_by(9)
        .map(|id| db.set(id).to_vec())
        .chain([vec![3, 17, 40], vec![]])
        .collect();
    for q in &queries {
        for k in [1, 5] {
            assert_eq!(
                sig.backend().knn(q, k),
                plain.backend().knn(q, k),
                "kNN {q:?}"
            );
        }
        for delta in [0.2, 0.6] {
            let want = plain.backend().range(q, delta);
            assert_eq!(sig.backend().range(q, delta), want, "range {q:?}");
        }
    }

    plain.checkpoint().unwrap();
    sig.checkpoint().unwrap();
    let rewritten = std::fs::read(&segment).unwrap();
    assert!(blocks(&rewritten).iter().all(|b| b.1 != 9), "SIG rewritten");
    assert_eq!(rewritten, std::fs::read(plain_dir.join("segment")).unwrap());
    drop(sig);

    let mut bad = spliced;
    let &(sig_at, _, _) = blocks(&bad).iter().find(|b| b.1 == 9).unwrap();
    bad[sig_at + 8] ^= 0x01;
    std::fs::write(&segment, &bad).unwrap();
    let err = DurableIndex::<Les3Index<Jaccard>>::open(&sig_dir, Jaccard).err();
    assert!(
        matches!(
            &err,
            Some(PersistError::Corrupt { detail, .. }) if detail == "CRC mismatch in block kind 9"
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A namespace's info is the same before and after a save → load.
#[test]
fn namespace_info_survives_save_and_load() {
    use les3_core::{NamespaceSpec, Namespaces};
    let root = fresh_dir("ns-info");
    let registry = Namespaces::new();
    let spec = NamespaceSpec {
        n_groups: 4,
        sets: pinned_big_sets(),
        ..Default::default()
    };
    let info = registry.create("pin", spec).unwrap().info();
    assert_eq!((info.n_sets, info.n_groups), (70, 4));
    registry.save_all(&root).unwrap();

    let loaded = Namespaces::new();
    assert_eq!(loaded.load_all(&root).unwrap(), 1);
    assert_eq!(loaded.get("pin").unwrap().info(), info);
    std::fs::remove_dir_all(&root).ok();
}

/// Three owners, one value: the same insert / delete / insert-with-attrs
/// script applied through a `DurableIndex`, a `Namespace` and a bare
/// `LiveIndex` returns the same ids, groups and verdicts step by step and
/// leaves the same index — hits and `SearchStats` with and without a
/// filter, live count, and the segment bytes each owner saves. The bare
/// index is served by `ServeFront::from_live` and the namespace lives on
/// that front's registry, so both front routes answer through `submit`
/// too, under every policy that has no recall to trade here, and the
/// front's stats identity holds afterwards.
#[test]
fn every_owner_of_a_live_index_applies_one_script_identically() {
    use les3_core::{Kind, NamespaceSpec, Request, Route, ServeConfig, ServeFront};

    enum Step {
        Insert(Vec<u32>, Vec<(String, String)>),
        Delete(u32),
    }
    use Step::{Delete, Insert};
    let script = [
        Insert(vec![3, 40, 96], vec![]),
        Delete(7),
        Insert(vec![7, 14, 21, 21], attrs_for(0)),
        Delete(70),    // the first inserted set
        Delete(7),     // already deleted: a no-op
        Delete(9_999), // never issued: a no-op
        Insert(vec![200, 7], attrs_for(1)),
        Insert(vec![7, 14, 28], attrs_for(3)),
        Delete(33),
    ];
    let sets = pinned_big_sets();
    let base = || {
        let part = Partitioning::round_robin(sets.len(), 6);
        Les3Index::build(SetDatabase::from_sets(sets.clone()), part, Jaccard)
    };

    // Each owner runs the script and reports what every step returned.
    let dir = fresh_dir("owners-wal");
    let mut durable = DurableIndex::create(&dir, base()).unwrap();
    let via_durable: Vec<(u32, u32)> = script
        .iter()
        .map(|step| match step {
            Insert(tokens, attrs) if attrs.is_empty() => {
                durable.insert(&mut tokens.clone()).unwrap()
            }
            Insert(tokens, attrs) => durable
                .insert_with_attrs(&mut tokens.clone(), attrs)
                .unwrap(),
            Delete(id) => (durable.delete(*id).unwrap() as u32, 0),
        })
        .collect();
    let from_durable = durable.into_live();

    let mut bare = LiveIndex::new(base());
    let via_bare: Vec<(u32, u32)> = script
        .iter()
        .map(|step| match step {
            Insert(tokens, attrs) => bare.insert(&mut tokens.clone(), attrs),
            Delete(id) => (bare.delete(*id) as u32, 0),
        })
        .collect();
    let live_sets = sets.len() + 4 - 3; // four inserts, three deletes that took
    assert_eq!(from_durable.log().live_count(), live_sets);
    assert_eq!(bare.log().live_count(), live_sets);
    let front = ServeFront::from_live(bare, ServeConfig::default());

    let spec = NamespaceSpec {
        n_groups: 6,
        sets: sets.clone(),
        ..Default::default()
    };
    let ns = front.namespaces().create("owner", spec).unwrap();
    let via_namespace: Vec<(u32, u32)> = script
        .iter()
        .map(|step| match step {
            Insert(tokens, attrs) => ns.insert(&mut tokens.clone(), attrs).unwrap(),
            Delete(id) => (ns.delete(*id) as u32, 0),
        })
        .collect();
    assert_eq!(via_durable, via_namespace);
    assert_eq!(via_durable, via_bare);
    assert_eq!(ns.info().live_sets, live_sets);

    // Set 7 was the best answer to its own tokens, set 71 carries
    // `tier: gold`; both queries run into tombstones.
    let mut scratch = QueryScratch::new();
    let mut filtered_hits = 0;
    for tokens in [sets[7].clone(), vec![7, 14, 21], vec![]] {
        for kind in [les3_core::Kind::Knn(5), les3_core::Kind::Range(0.2)] {
            let q = Query::new(&tokens, kind);
            for filters in [Filters::none(), gold_filter()] {
                let (want, _) = from_durable.search(&q, &filters, &mut scratch).unwrap();
                assert!(want.hits.iter().all(|h| ![7, 33, 70].contains(&h.0)));
                filtered_hits += if filters.is_empty() {
                    0
                } else {
                    want.hits.len()
                };
                let (got, _) = ns.search(&q, &filters, &mut scratch).unwrap();
                assert_eq!(got, want, "namespace, {kind:?} {filters:?}");
                if filters.is_empty() {
                    let served = match kind {
                        les3_core::Kind::Knn(k) => front.knn(&tokens, k),
                        les3_core::Kind::Range(delta) => front.range(&tokens, delta),
                    };
                    assert_eq!(served.unwrap(), want, "front, {kind:?}");
                }
            }
        }
    }

    assert!(filtered_hits > 0, "the filter must admit inserted sets");

    // Both routes of the front through `submit`: anytime without a
    // deadline and a prefilter with no sidecar to scan answer exactly
    // what the durable owner's `search` does — hits, stats and verdict.
    let no_sidecar = ApproxPolicy::Prefilter { bands: 0, rows: 1 };
    for tokens in [sets[7].clone(), vec![7, 14, 21], vec![]] {
        for kind in [Kind::Knn(5), Kind::Range(0.2)] {
            for approx in [ApproxPolicy::Exact, ApproxPolicy::Anytime, no_sidecar] {
                let routes = [
                    (Route::Default, Filters::none()),
                    (
                        Route::Namespace("owner".into(), Filters::none()),
                        Filters::none(),
                    ),
                    (
                        Route::Namespace("owner".into(), gold_filter()),
                        gold_filter(),
                    ),
                ];
                for (route, filters) in routes {
                    let q = Query {
                        approx,
                        ..Query::new(&tokens, kind)
                    };
                    let want = from_durable.search(&q, &filters, &mut scratch).unwrap();
                    let ctx = format!("front, {route:?} {kind:?} {approx:?}");
                    let got = front.submit(Request {
                        approx,
                        route,
                        ..Request::new(tokens.clone(), kind)
                    });
                    assert_eq!(got.wait_full().unwrap(), want, "{ctx}");
                }
            }
        }
    }
    let mut routes_total = front.default_route_stats();
    routes_total.accumulate(&front.namespaces().total_stats());
    assert_eq!(front.stats(), routes_total, "stats identity");

    let saved: Vec<Vec<u8>> = ["owners-a", "owners-b", "owners-c"]
        .iter()
        .enumerate()
        .map(|(owner, tag)| {
            let dir = fresh_dir(tag);
            match owner {
                0 => from_durable.save(&dir).unwrap(),
                1 => ns.save(&dir).unwrap(),
                _ => front.save(&dir).unwrap(),
            }
            let bytes = std::fs::read(dir.join("segment")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            bytes
        })
        .collect();
    assert_eq!(
        saved[0], saved[1],
        "namespace saves what the durable index holds"
    );
    assert_eq!(
        saved[0], saved[2],
        "the front saves what the durable index holds"
    );
    std::fs::remove_dir_all(&dir).ok();
}
