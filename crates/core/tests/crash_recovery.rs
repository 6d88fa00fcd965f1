//! The crash-recovery contract, proven by exhaustive fault injection:
//! the save/append path is killed at **every** I/O event boundary —
//! every written byte, every create/fsync/rename — and after each
//! simulated crash the index must reopen cleanly into either the
//! pre-mutation or post-mutation state of whichever operation was in
//! flight, answering kNN and range queries bit-for-bit (hits *and*
//! [`SearchStats`](les3_core::SearchStats)) like an index that never
//! crashed. A deterministic corruption sweep also flips and truncates
//! every byte of a segment and demands a descriptive error, never a
//! panic or a wrong answer.

mod common;

use common::run;
use std::path::Path;
use std::sync::Arc;

use les3_core::metadata::{Filter, Filters};
use les3_core::persist::io::{FaultBudget, FaultyIo};
use les3_core::persist::{DurableIndex, DurableOptions, PersistentBackend};
use les3_core::{
    DeletionLog, Jaccard, Les3Index, LiveIndex, MetadataIndex, Partitioning, PersistError, Query,
    SearchResult, ShardPolicy, ShardedLes3Index,
};
use les3_data::SetDatabase;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    /// Insert with attached attributes: one `InsertAttrs` WAL record
    /// instead of a plain `Insert`, so the sweep kills the attribute
    /// payload at every byte too.
    InsertAttrs(Vec<u32>, Vec<(&'static str, &'static str)>),
    Delete(u32),
    Checkpoint,
}

/// The mutation schedule under fault injection. Each mutation changes
/// `(db len, tombstones)`, so every prefix state has a distinct
/// signature and recovery can be matched to exactly one prefix. The
/// first `InsertAttrs` lands before the first checkpoint, so the
/// checkpoint segments carry a METADATA block whose write path the
/// sweep also kills everywhere.
fn schedule() -> Vec<Op> {
    vec![
        Op::Insert(vec![1, 2, 21]),
        Op::InsertAttrs(vec![4, 5, 24], vec![("color", "red"), ("kind", "widget")]),
        Op::Delete(2),
        Op::Checkpoint,
        Op::Insert(vec![5, 6, 7, 22]),
        Op::Delete(0),
        Op::Checkpoint,
        Op::InsertAttrs(vec![0, 2, 25], vec![("color", "red")]),
        Op::Insert(vec![8, 9, 23]),
    ]
}

/// The filter every signature answers under: matches exactly the
/// `color=red` sets the schedule attaches attributes to.
fn red_filter() -> Filters {
    Filters(vec![Filter::Eq {
        key: "color".to_string(),
        value: "red".to_string(),
    }])
}

fn owned_attrs(attrs: &[(&str, &str)]) -> Vec<(String, String)> {
    attrs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn base_db() -> SetDatabase {
    SetDatabase::from_sets(vec![
        vec![0u32, 1, 2],
        vec![0, 1, 3],
        vec![2, 3, 4],
        vec![5, 6],
        vec![5, 7, 8],
        vec![6, 7, 9],
        vec![10, 11, 12, 13],
        vec![10, 14],
        vec![15, 16, 17],
        vec![0, 5, 10, 15],
    ])
}

fn queries() -> Vec<Vec<u32>> {
    vec![
        vec![0, 1, 2],
        vec![5, 6, 7, 22],
        vec![10, 14, 23],
        vec![15, 16],
    ]
}

/// Per-query answers: raw kNN, raw range, tombstone-filtered kNN, and
/// attribute-filtered kNN (the `color=red` predicate).
type QueryAnswers = (SearchResult, SearchResult, Vec<(u32, f64)>, SearchResult);

/// What "the same index" means: structure, the full attribute table,
/// plus raw / tombstone-filtered / attribute-filtered answers for a
/// fixed query set.
#[derive(Debug, PartialEq)]
struct Signature {
    n_sets: usize,
    tombstones: Vec<u32>,
    attrs: Vec<Vec<(String, String)>>,
    answers: Vec<QueryAnswers>,
}

trait CrashBackend: PersistentBackend {
    fn knn_q(&self, q: &[u32], k: usize) -> SearchResult;
    fn range_q(&self, q: &[u32], delta: f64) -> SearchResult;
    fn attr_knn_q(&self, q: &[u32], k: usize, meta: &MetadataIndex) -> SearchResult;
    fn build_log(&self) -> DeletionLog;
}

impl CrashBackend for Les3Index<Jaccard> {
    fn knn_q(&self, q: &[u32], k: usize) -> SearchResult {
        self.knn(q, k)
    }
    fn range_q(&self, q: &[u32], delta: f64) -> SearchResult {
        self.range(q, delta)
    }
    fn attr_knn_q(&self, q: &[u32], k: usize, meta: &MetadataIndex) -> SearchResult {
        let cand = meta
            .candidates(&red_filter(), self.partitioning())
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

impl CrashBackend for ShardedLes3Index<Jaccard> {
    fn knn_q(&self, q: &[u32], k: usize) -> SearchResult {
        self.knn(q, k)
    }
    fn range_q(&self, q: &[u32], delta: f64) -> SearchResult {
        self.range(q, delta)
    }
    fn attr_knn_q(&self, q: &[u32], k: usize, meta: &MetadataIndex) -> SearchResult {
        let cand = meta
            .candidates(&red_filter(), self.partitioning())
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

fn signature<B: CrashBackend>(backend: &B, log: &DeletionLog, meta: &MetadataIndex) -> Signature {
    let answers = queries()
        .iter()
        .map(|q| {
            let knn = backend.knn_q(q, 4);
            let range = backend.range_q(q, 0.3);
            let mut filtered = knn.hits.clone();
            log.filter_hits(&mut filtered);
            let attr_knn = backend.attr_knn_q(q, 4, meta);
            (knn, range, filtered, attr_knn)
        })
        .collect();
    Signature {
        n_sets: backend.sharded().db().len(),
        tombstones: log.deleted_ids(),
        attrs: (0..meta.n_sets() as u32).map(|id| meta.attrs(id)).collect(),
        answers,
    }
}

/// The states a crash may legally recover to: one per fully-applied
/// mutation prefix (checkpoints don't change the logical state).
fn reference_states<B: CrashBackend>(make: impl Fn() -> B) -> Vec<Signature> {
    let mut refs = Vec::new();
    let mut backend = make();
    let mut log = backend.build_log();
    let mut meta = MetadataIndex::new();
    meta.push_empty(backend.sharded().db().len());
    refs.push(signature(&backend, &log, &meta));
    for op in schedule() {
        match op {
            Op::Insert(tokens) => {
                let (id, _) = backend.sharded_mut().insert(&mut tokens.clone());
                log.note_insert(backend.sharded(), id);
                meta.push_empty(1);
            }
            Op::InsertAttrs(tokens, attrs) => {
                let (id, _) = backend.sharded_mut().insert(&mut tokens.clone());
                log.note_insert(backend.sharded(), id);
                meta.push(&owned_attrs(&attrs));
            }
            Op::Delete(id) => {
                log.delete(backend.sharded_mut(), id);
            }
            Op::Checkpoint => continue,
        }
        refs.push(signature(&backend, &log, &meta));
    }
    refs
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Runs the schedule against `dir` under `budget`, stopping at the first
/// injected fault. Returns how many mutations were fully applied and
/// whether the in-flight operation (if any) was a mutation.
fn run_schedule<B: CrashBackend>(
    dir: &Path,
    sim: B::Sim,
    budget: Arc<FaultBudget>,
) -> (usize, bool, Option<PersistError>) {
    let io = Arc::new(FaultyIo::new(budget));
    let mut durable = match DurableIndex::<B>::open_with(dir, sim, io, DurableOptions::default()) {
        Ok(d) => d,
        Err(e) => return (0, false, Some(e)),
    };
    let mut applied = 0;
    for op in schedule() {
        let (result, mutation) = match op {
            Op::Insert(tokens) => (durable.insert(&mut tokens.clone()).map(|_| ()), true),
            Op::InsertAttrs(tokens, attrs) => (
                durable
                    .insert_with_attrs(&mut tokens.clone(), &owned_attrs(&attrs))
                    .map(|_| ()),
                true,
            ),
            Op::Delete(id) => (durable.delete(id).map(|_| ()), true),
            Op::Checkpoint => (durable.checkpoint(), false),
        };
        match result {
            Ok(()) => {
                if mutation {
                    applied += 1;
                }
            }
            Err(e) => return (applied, mutation, Some(e)),
        }
    }
    (applied, false, None)
}

fn crash_everywhere<B: CrashBackend>(make: impl Fn() -> B, tag: &str) {
    let root = std::env::temp_dir().join(format!("les3-crash-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let pristine = root.join("pristine");
    let sim = make().sharded().sim();

    // Seed the directory with a clean epoch-0 save.
    drop(DurableIndex::create(&pristine, make()).unwrap());
    let refs = reference_states(&make);

    // Count the I/O events of an uncrashed run.
    let scratch = root.join("count");
    copy_dir(&pristine, &scratch);
    let budget = FaultBudget::unlimited();
    let (applied, _, err) = run_schedule::<B>(&scratch, sim, Arc::clone(&budget));
    assert!(err.is_none(), "unlimited budget must not fail: {err:?}");
    assert_eq!(applied, 7);
    let total = budget.consumed();
    assert!(total > 1000, "expected a rich fault surface, got {total}");

    // Kill the run at every event boundary and prove recovery.
    for k in 0..=total {
        let dir = root.join(format!("k{k}"));
        copy_dir(&pristine, &dir);
        let (applied, in_flight_mutation, err) =
            run_schedule::<B>(&dir, sim, FaultBudget::with_limit(k));
        if k == total {
            assert!(err.is_none(), "the full budget must suffice");
        }

        let reopened = DurableIndex::<B>::open(&dir, sim)
            .unwrap_or_else(|e| panic!("crash at k={k} broke recovery: {e}"));
        let got = signature(reopened.backend(), reopened.log(), reopened.meta());
        let matched = refs.iter().position(|r| *r == got).unwrap_or_else(|| {
            panic!(
                "crash at k={k} (applied {applied}, err {err:?}) recovered to a state \
                 matching no mutation prefix: {} sets, tombstones {:?}",
                got.n_sets, got.tombstones
            )
        });
        // The recovered prefix must be exactly the acknowledged history,
        // plus at most the one operation that was in flight.
        assert!(
            matched == applied || (in_flight_mutation && matched == applied + 1),
            "crash at k={k}: applied {applied} mutations but recovered prefix {matched}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn flat_index_recovers_from_a_crash_at_every_byte() {
    crash_everywhere(
        || {
            Les3Index::build(
                base_db(),
                Partitioning::round_robin(base_db().len(), 3),
                Jaccard,
            )
        },
        "flat",
    );
}

#[test]
fn sharded_index_recovers_from_a_crash_at_every_byte() {
    crash_everywhere(
        || {
            ShardedLes3Index::build(
                base_db(),
                Partitioning::round_robin(base_db().len(), 3),
                Jaccard,
                2,
                ShardPolicy::Contiguous,
            )
        },
        "sharded",
    );
}

fn flat_make() -> Les3Index<Jaccard> {
    Les3Index::build(
        base_db(),
        Partitioning::round_robin(base_db().len(), 3),
        Jaccard,
    )
}

/// The state a survivor must reach after recovery (with or without the
/// crashed first insert) plus the follow-up mutations applied to it.
fn flat_reference(with_first: bool) -> Signature {
    let mut backend = flat_make();
    let mut log = backend.build_log();
    let mut meta = MetadataIndex::new();
    meta.push_empty(backend.sharded().db().len());
    if with_first {
        let (id, _) = backend.sharded_mut().insert(&mut [1, 2, 21]);
        log.note_insert(backend.sharded(), id);
        meta.push_empty(1);
    }
    let (id, _) = backend.sharded_mut().insert(&mut [8, 9, 23]);
    log.note_insert(backend.sharded(), id);
    meta.push_empty(1);
    log.delete(backend.sharded_mut(), 3);
    signature(&backend, &log, &meta)
}

/// Crashing mid-append leaves a torn WAL tail. Recovery must not just
/// replay past it — it must *clip* it, so that mutations acknowledged
/// after the reopen land on a clean log and survive the next reopen
/// (instead of reading back as interior corruption, or being silently
/// swallowed by the tear).
#[test]
fn mutations_after_a_torn_append_survive_the_next_reopen() {
    type B = Les3Index<Jaccard>;
    let root = std::env::temp_dir().join(format!("les3-torn-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let pristine = root.join("pristine");
    drop(DurableIndex::create(&pristine, flat_make()).unwrap());

    // Count the I/O events of an uncrashed open + one insert.
    let scratch = root.join("count");
    copy_dir(&pristine, &scratch);
    let budget = FaultBudget::unlimited();
    {
        let io = Arc::new(FaultyIo::new(Arc::clone(&budget)));
        let mut durable =
            DurableIndex::<B>::open_with(&scratch, Jaccard, io, DurableOptions::default()).unwrap();
        durable.insert(&mut [1, 2, 21]).unwrap();
    }
    let total = budget.consumed();

    for k in 0..total {
        let dir = root.join(format!("t{k}"));
        copy_dir(&pristine, &dir);
        {
            let io = Arc::new(FaultyIo::new(FaultBudget::with_limit(k)));
            if let Ok(mut durable) =
                DurableIndex::<B>::open_with(&dir, Jaccard, io, DurableOptions::default())
            {
                let _ = durable.insert(&mut [1, 2, 21]);
            }
        }
        // First reopen: recovery clips whatever the crash tore.
        let mut durable = DurableIndex::<B>::open(&dir, Jaccard)
            .unwrap_or_else(|e| panic!("crash at k={k} broke the first reopen: {e}"));
        let with_first = durable.backend().db().len() == base_db().len() + 1;
        // Mutations acknowledged on the recovered log...
        durable.insert(&mut [8, 9, 23]).unwrap();
        durable.delete(3).unwrap();
        drop(durable);
        // ...must be exactly what the next reopen replays.
        let reopened = DurableIndex::<B>::open(&dir, Jaccard)
            .unwrap_or_else(|e| panic!("crash at k={k} broke the second reopen: {e}"));
        assert_eq!(
            signature(reopened.backend(), reopened.log(), reopened.meta()),
            flat_reference(with_first),
            "crash at k={k} (first insert recovered: {with_first})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A checkpoint that fails partway (a transient I/O fault, not a crash)
/// may have already renamed the new segment into place; appending to the
/// superseded WAL afterwards would be silently invisible to the next
/// open. The writer must poison itself, refuse mutations, and recover
/// through — and only through — a later successful checkpoint.
#[test]
fn failed_checkpoint_poisons_the_writer_until_one_succeeds() {
    type B = Les3Index<Jaccard>;
    let root = std::env::temp_dir().join(format!("les3-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let pristine = root.join("pristine");
    drop(DurableIndex::create(&pristine, flat_make()).unwrap());

    // Count the events of open + insert (the prefix to survive) and of
    // the checkpoint after them (the fault surface to sweep).
    let scratch = root.join("count");
    copy_dir(&pristine, &scratch);
    let budget = FaultBudget::unlimited();
    let before_ckpt = {
        let io = Arc::new(FaultyIo::new(Arc::clone(&budget)));
        let mut durable =
            DurableIndex::<B>::open_with(&scratch, Jaccard, io, DurableOptions::default()).unwrap();
        durable.insert(&mut [1, 2, 21]).unwrap();
        let before = budget.consumed();
        durable.checkpoint().unwrap();
        before
    };
    let total = budget.consumed();
    assert!(total > before_ckpt, "the checkpoint must cost I/O events");

    for k in before_ckpt..total {
        let dir = root.join(format!("c{k}"));
        copy_dir(&pristine, &dir);
        let budget = FaultBudget::with_limit(k);
        let io = Arc::new(FaultyIo::new(Arc::clone(&budget)));
        let mut durable =
            DurableIndex::<B>::open_with(&dir, Jaccard, io, DurableOptions::default()).unwrap();
        durable.insert(&mut [1, 2, 21]).unwrap();
        match durable.checkpoint() {
            // The injected fault may land on the best-effort stale-WAL
            // removal, which checkpoint deliberately ignores.
            Ok(()) => assert!(!durable.is_poisoned(), "k={k}"),
            Err(_) => {
                assert!(durable.is_poisoned(), "k={k}");
                assert!(
                    matches!(durable.insert(&mut [8, 9, 23]), Err(PersistError::Poisoned)),
                    "k={k}: a poisoned writer must refuse inserts"
                );
                assert!(
                    matches!(durable.delete(3), Err(PersistError::Poisoned)),
                    "k={k}: a poisoned writer must refuse deletes"
                );
            }
        }
        // The transient fault clears; a checkpoint un-poisons the writer.
        budget.refill(i64::MAX as u64);
        durable
            .checkpoint()
            .unwrap_or_else(|e| panic!("checkpoint retry at k={k} failed: {e}"));
        assert!(!durable.is_poisoned());
        durable.insert(&mut [8, 9, 23]).unwrap();
        durable.delete(3).unwrap();
        drop(durable);
        let reopened = DurableIndex::<B>::open(&dir, Jaccard)
            .unwrap_or_else(|e| panic!("reopen after k={k} failed: {e}"));
        assert_eq!(
            signature(reopened.backend(), reopened.log(), reopened.meta()),
            flat_reference(true),
            "crash at k={k}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Every single-byte flip and every truncation of a segment file must be
/// rejected with a descriptive error — the deterministic complement of
/// the random sweep in `persist_roundtrip.rs`. The saved segment carries
/// a METADATA block (interned tokens, postings, per-set attribute
/// lists), so the sweep covers every byte of the attribute encoding too.
#[test]
fn every_byte_flip_and_truncation_is_rejected() {
    let dir = std::env::temp_dir().join(format!("les3-flip-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let index = Les3Index::build(
        base_db(),
        Partitioning::round_robin(base_db().len(), 3),
        Jaccard,
    );
    let mut meta = MetadataIndex::new();
    for id in 0..index.db().len() {
        if id % 3 == 0 {
            meta.push(&owned_attrs(&[("color", "red"), ("kind", "widget")]));
        } else {
            meta.push_empty(1);
        }
    }
    let mut live = LiveIndex::with_attrs(index, meta);
    assert!(live.delete(3));
    live.save(&dir).unwrap();
    let segment = dir.join("segment");
    let good = std::fs::read(&segment).unwrap();

    DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).expect("the pristine file opens");

    for pos in 0..good.len() {
        for mask in [0x01u8, 0xff] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            std::fs::write(&segment, &bad).unwrap();
            let err = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard)
                .err()
                .unwrap_or_else(|| panic!("flip {mask:#04x} at byte {pos} was not detected"));
            assert!(!err.to_string().is_empty());
        }
    }
    for cut in 0..good.len() {
        std::fs::write(&segment, &good[..cut]).unwrap();
        assert!(
            DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).is_err(),
            "truncation to {cut} bytes was not detected"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
