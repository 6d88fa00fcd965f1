//! A deleted set leaves the verify order, so an engine's answers are
//! live by construction: no caller over-fetches, filters or truncates,
//! a kNN over an index with tombstones does no more work than before
//! the deletes, and an engine that lost its [`DeletionLog`] still never
//! answers a deleted set.

use les3_core::{
    ApproxParams, ApproxPolicy, DeletionLog, Filters, Jaccard, Les3Index, LiveIndex, NamespaceSpec,
    Namespaces, Partitioning, Query, QueryScratch, SearchResult, ServeConfig, ServeFront,
    ShardPolicy, ShardedLes3Index, Similarity,
};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::{SetDatabase, SetId, TokenId};

const N_SETS: usize = 2_000;
const N_GROUPS: usize = 32;
const K: usize = 10;

fn corpus() -> SetDatabase {
    ZipfianGenerator::new(N_SETS, 600, 9.0, 1.1).generate(0x70b5)
}

/// One set in ten is deleted — among them every tenth query's own set.
fn doomed(id: SetId) -> bool {
    id % 10 == 3
}

/// Member queries spread over the id range; `63 * i + 3` hits a doomed
/// id whenever `i` is a multiple of ten.
fn queries(db: &SetDatabase) -> Vec<Vec<TokenId>> {
    (0..32u32).map(|i| db.set(63 * i + 3).to_vec()).collect()
}

/// The similarities of the exact answer over the sets `live` admits,
/// best first (ids may swap inside a tie, so only they are compared).
fn brute_sims(db: &SetDatabase, q: &[TokenId], live: impl Fn(SetId) -> bool) -> Vec<f64> {
    let mut sims: Vec<f64> = db
        .iter()
        .filter(|&(id, _)| live(id))
        .map(|(_, s)| Jaccard.eval(q, s))
        .collect();
    sims.sort_by(|a, b| b.total_cmp(a));
    sims
}

/// Checks `res` as the exact kNN of `q` over the sets `live` admits.
fn assert_exact_knn(
    db: &SetDatabase,
    q: &[TokenId],
    res: &SearchResult,
    live: impl Fn(SetId) -> bool,
) {
    assert_eq!(res.hits.len(), K, "a kNN comes back with k hits");
    for &(id, sim) in &res.hits {
        assert!(live(id), "deleted set {id} answered");
        assert_eq!(sim, Jaccard.eval(q, db.set(id)));
    }
    let got: Vec<f64> = res.hits.iter().map(|h| h.1).collect();
    assert_eq!(got, brute_sims(db, q, live)[..K]);
}

/// Runs every query through `knn`, checks each answer against brute
/// force over the live sets, and returns the results.
fn run_all(
    db: &SetDatabase,
    deleted: bool,
    knn: impl Fn(&[TokenId]) -> SearchResult,
) -> Vec<SearchResult> {
    queries(db)
        .iter()
        .map(|q| {
            let res = knn(q);
            assert_exact_knn(db, q, &res, |id| !(deleted && doomed(id)));
            res
        })
        .collect()
}

fn sims_computed(results: &[SearchResult]) -> usize {
    results.iter().map(|r| r.stats.sims_computed).sum()
}

fn live_index(db: &SetDatabase, deleted: bool) -> LiveIndex<Les3Index<Jaccard>> {
    let part = Partitioning::round_robin(db.len(), N_GROUPS);
    let mut live = LiveIndex::new(Les3Index::build(db.clone(), part, Jaccard));
    if deleted {
        for id in (0..db.len() as SetId).filter(|&id| doomed(id)) {
            assert!(live.delete(id));
        }
    }
    live
}

/// The work counter, not a clock: with the `k + tombstones` over-fetch
/// the threshold was the (k + D)-th best and every delete *un-pruned*
/// the index; now a delete only ever removes candidates. Every owner of
/// a live index runs the same search, so all three agree bit for bit.
#[test]
fn knn_work_does_not_grow_with_tombstones() {
    let db = corpus();
    // Direct, then the same index served by a front: one search.
    let via_live_and_front = |deleted| {
        let live = live_index(&db, deleted);
        let direct = run_all(&db, deleted, |q| {
            let (q, mut scratch) = (Query::knn(q, K), QueryScratch::new());
            live.search(&q, &Filters::none(), &mut scratch)
                .expect("no deadline")
                .0
        });
        let front = ServeFront::from_live(live, ServeConfig::default());
        let served = run_all(&db, deleted, |q| front.knn(q, K).expect("served"));
        assert_eq!(served, direct, "front, deleted: {deleted}");
        direct
    };
    let (before, after) = (via_live_and_front(false), via_live_and_front(true));
    assert!(
        sims_computed(&after) <= sims_computed(&before),
        "deleting 10 % of the sets grew the work: {} -> {} sims",
        sims_computed(&before),
        sims_computed(&after)
    );

    let registry = Namespaces::new();
    let spec = NamespaceSpec {
        n_groups: N_GROUPS,
        sets: db.iter().map(|(_, s)| s.to_vec()).collect(),
        ..Default::default()
    };
    let ns = registry.create("tombs", spec).unwrap();
    let via_ns = |deleted| {
        run_all(&db, deleted, |q| {
            ns.knn(q, K, &Filters::none(), &les3_core::QueryCtl::NONE)
                .expect("no deadline")
        })
    };
    assert_eq!(via_ns(false), before, "namespace, nothing deleted");
    for id in (0..db.len() as SetId).filter(|&id| doomed(id)) {
        assert!(ns.delete(id));
    }
    assert_eq!(via_ns(true), after, "namespace, 10 % deleted");
}

/// The hazard both PR 19 bugs were: an engine that travels without the
/// log that deleted from it. It can no longer delete or save its
/// tombstones, but every entry point answers over the live sets with no
/// filter step, and both index types agree, stats included.
#[test]
fn an_engine_without_its_log_never_answers_a_deleted_set() {
    fn delete_and_drop_the_log<S: Similarity>(index: &mut ShardedLes3Index<S>) {
        let mut log = DeletionLog::build(index);
        for id in (0..index.db().len() as SetId).filter(|&id| doomed(id)) {
            assert!(log.delete(index, id));
        }
    }

    let db = corpus();
    let part = Partitioning::round_robin(db.len(), N_GROUPS);
    let mut flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let mut sharded =
        ShardedLes3Index::build(db.clone(), part, Jaccard, 4, ShardPolicy::Contiguous);
    for engine in [&mut *flat, &mut sharded] {
        engine.enable_approx(ApproxParams {
            bands: 8,
            rows: 1,
            ..ApproxParams::default()
        });
        delete_and_drop_the_log(engine);
    }

    let live = |id: SetId| !doomed(id);
    let queries = queries(&db);
    let batch = flat.knn_batch_on(2, 1, &queries, K);
    let prefilter = ApproxPolicy::Prefilter { bands: 8, rows: 1 };
    let mut prefiltered_hits = 0;
    for (q, batched) in queries.iter().zip(&batch) {
        let knn = flat.knn(q, K);
        assert_exact_knn(&db, q, &knn, live);
        assert_eq!(&knn, batched);
        assert_eq!(sharded.knn(q, K), knn);

        let range = flat.range(q, 0.3);
        let want: Vec<f64> = brute_sims(&db, q, live)
            .into_iter()
            .take_while(|&s| s >= 0.3)
            .collect();
        assert_eq!(range.hits.iter().map(|h| h.1).collect::<Vec<_>>(), want);
        assert!(range.hits.iter().all(|h| live(h.0)), "{range:?}");
        assert_eq!(sharded.range(q, 0.3), range);

        let mut scratch = QueryScratch::new();
        let prefiltered = Query {
            approx: prefilter,
            ..Query::knn(q, K)
        };
        let (approx, info) = flat
            .search(&prefiltered, &mut scratch)
            .expect("no deadline");
        assert!(info.approx, "the sidecar must be consulted");
        assert!(approx.hits.iter().all(|h| live(h.0)), "{approx:?}");
        prefiltered_hits += approx.hits.len();
        let (other, _) = sharded
            .search(&prefiltered, &mut scratch)
            .expect("no deadline");
        assert_eq!(other, approx);
    }
    assert!(prefiltered_hits > 0, "the prefilter must admit something");
}
