//! The approximate tier's recall-vs-ground-truth battery.
//!
//! Three contracts, property-tested across similarity measures,
//! both index types and interleaved insert/delete sequences:
//!
//! * **Soundness** — a prefiltered answer never *invents* anything: its
//!   hits are a subset of the exact admissible results, every reported
//!   similarity is bit-for-bit the exact similarity of that id (misses
//!   are only ever omissions), and the reported `recall_est` is a
//!   probability. Both index types agree bit for bit on the
//!   same prefilter, because the LSH mask feeds the same
//!   [`FilterCandidates`] composition point the metadata layer uses.
//! * **Exact fallback** — [`ApproxPolicy::Exact`] and a *saturated*
//!   prefilter (`rows == 0`: every signature collides) are bit-for-bit
//!   identical — hits AND stats — to the plain `knn`/`range` engine.
//!   The approximate tier is strictly opt-in; the saturation escape
//!   hatch routes through the genuinely unfiltered path, not a
//!   filtered path that happens to match everything (whose stats would
//!   differ).
//! * **Anytime** — an expired deadline *commits* a partial answer
//!   (exact similarities, `recall_est ∈ [0, 1]`) instead of erroring;
//!   no deadline at all reproduces the exact answer with an exact
//!   verdict; cancellation still interrupts.

#![cfg(not(feature = "model"))]

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use common::run;
use les3_core::{
    ApproxInfo, ApproxParams, ApproxPolicy, Cosine, DeletionLog, Dice, Filter, FilterCandidates,
    Filters, Jaccard, Kind, Les3Index, NamespaceSpec, Namespaces, OverlapCoefficient, Partitioning,
    Query, QueryCtl, QueryScratch, SearchResult, ShardPolicy, ShardedLes3Index, Similarity,
};
use les3_data::{SetDatabase, SetId, TokenId};
use proptest::prelude::*;

/// The saturated prefilter: `rows == 0` makes every band key the empty
/// fold, so every set collides and the engine must take the unfiltered
/// exact path.
const SATURATED: ApproxPolicy = ApproxPolicy::Prefilter { bands: 0, rows: 0 };

fn db_strategy() -> impl Strategy<Value = SetDatabase> {
    prop::collection::vec(prop::collection::btree_set(0u32..100, 1..25), 2..60).prop_map(|sets| {
        SetDatabase::from_sets(sets.into_iter().map(|s| s.into_iter().collect::<Vec<_>>()))
    })
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

fn sidecar_params(seed: u64) -> ApproxParams {
    ApproxParams {
        bands: 4,
        rows: 2,
        seed,
    }
}

/// Exact similarity of every set, by id, from a full exact ranking
/// (`k = n` exhausts the tie classes). Absent ids have similarity 0 or
/// are tombstoned — either way a prefiltered hit may not name them.
fn exact_sims(flat: &Les3Index<impl Similarity>, query: &[TokenId]) -> Vec<Option<u64>> {
    let full = run(flat, Query::knn(query, flat.db().len()));
    let mut sims = vec![None; flat.db().len()];
    for (id, sim) in full.hits {
        sims[id as usize] = Some(sim.to_bits());
    }
    sims
}

/// Soundness of one prefiltered answer: a subset of the exact
/// admissible results, exact similarity bits, a sane verdict.
fn assert_sound(
    got: &(SearchResult, ApproxInfo),
    sims: &[Option<u64>],
    exact_hits: &[(SetId, f64)],
    k_cap: Option<usize>,
    ctx: &str,
) {
    let (result, info) = got;
    if let Some(k) = k_cap {
        assert!(result.hits.len() <= k, "{ctx}: more than k hits");
    } else {
        // Range: hits must be a subset of the exact range answer.
        for &(id, sim) in &result.hits {
            let exact = exact_hits
                .iter()
                .find(|&&(eid, _)| eid == id)
                .unwrap_or_else(|| panic!("{ctx}: hit {id} not in the exact range answer"));
            assert_eq!(sim.to_bits(), exact.1.to_bits(), "{ctx}: sim of {id}");
        }
    }
    for &(id, sim) in &result.hits {
        let want = sims[id as usize]
            .unwrap_or_else(|| panic!("{ctx}: hit {id} is not an admissible (live) set"));
        assert_eq!(sim.to_bits(), want, "{ctx}: similarity of {id} not exact");
    }
    assert!(
        (0.0..=1.0).contains(&info.recall_est),
        "{ctx}: recall_est {} outside [0, 1]",
        info.recall_est
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness: prefiltered hits ⊆ exact admissible results, exact
    /// similarity bits, both index types bit for bit, across measures.
    #[test]
    fn prefilter_is_sound_and_backend_invariant(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..15),
        k in 1usize..12,
        delta in 0.0f64..1.05,
        n_groups in 1usize..11,
        seed in 1u64..u64::MAX,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        fn check<S: Similarity>(
            db: &SetDatabase,
            part: &Partitioning,
            sim: S,
            query: &[TokenId],
            k: usize,
            delta: f64,
            seed: u64,
        ) {
            let mut flat = Les3Index::build(db.clone(), part.clone(), sim);
            flat.enable_approx(sidecar_params(seed));
            let sims = exact_sims(&flat, query);
            let exact_range = run(&flat, Query::range(query, delta));
            let ctl = QueryCtl::NONE;
            let mut scratch = QueryScratch::new();
            for policy in [
                ApproxPolicy::Prefilter { bands: 1, rows: 2 },
                ApproxPolicy::Prefilter { bands: 0, rows: 1 },
                ApproxPolicy::Prefilter { bands: 2, rows: u32::MAX },
            ] {
                let knn = flat
                    .knn_approx_ctl_on(1, query, k, policy, &mut scratch, &ctl)
                    .expect("QueryCtl::NONE never interrupts");
                assert_sound(&knn, &sims, &[], Some(k), &format!("{} knn {policy:?}", sim.name()));
                let range = flat
                    .search(&Query { ctl, approx: policy, ..Query::range(query, delta) }, &mut scratch)
                    .expect("QueryCtl::NONE never interrupts");
                assert_sound(
                    &range,
                    &sims,
                    &exact_range.hits,
                    None,
                    &format!("{} range {policy:?}", sim.name()),
                );
                // The same prefilter must be backend-invariant, bit for
                // bit (mask composition is
                // shared with the metadata layer, which carries this
                // contract already).
                let mut sharded = ShardedLes3Index::build(
                    db.clone(), part.clone(), sim, 4, ShardPolicy::Contiguous,
                );
                sharded.enable_approx(sidecar_params(seed));
                let mut sscratch = QueryScratch::new();
                let sknn = sharded
                    .knn_approx_ctl_on(1, query, k, policy, &mut sscratch, &ctl)
                    .expect("QueryCtl::NONE never interrupts");
                assert_eq!(sknn.0.hits, knn.0.hits, "sharded knn hits diverged");
                assert_eq!(sknn.0.stats, knn.0.stats, "sharded knn stats diverged");
                assert_eq!(sknn.1, knn.1, "sharded knn verdict diverged");
                let srange = sharded
                    .search(&Query { ctl, approx: policy, ..Query::range(query, delta) }, &mut sscratch)
                    .expect("QueryCtl::NONE never interrupts");
                assert_eq!(srange.0.hits, range.0.hits, "sharded range hits diverged");
                assert_eq!(srange.0.stats, range.0.stats, "sharded range stats diverged");
                assert_eq!(srange.1, range.1, "sharded range verdict diverged");
            }
        }
        check(&db, &part, Jaccard, &query, k, delta, seed);
        check(&db, &part, Dice, &query, k, delta, seed);
        check(&db, &part, Cosine, &query, k, delta, seed);
        check(&db, &part, OverlapCoefficient, &query, k, delta, seed);
    }

    /// Exact fallback: `ApproxPolicy::Exact` AND the saturated
    /// prefilter are bit-for-bit the plain engine — hits and stats —
    /// for every measure and backend, and across an
    /// interleaved insert/delete sequence.
    #[test]
    fn exact_and_saturated_policies_are_bit_for_bit_exact(
        db in db_strategy(),
        inserts in prop::collection::vec(prop::collection::btree_set(0u32..140, 1..20), 1..8),
        delete_picks in prop::collection::vec(0u32..1000, 1..6),
        query in prop::collection::btree_set(0u32..140, 1..15),
        k in 1usize..10,
        delta in 0.0f64..1.05,
        n_groups in 1usize..9,
        seed in 1u64..u64::MAX,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        #[allow(clippy::too_many_arguments)]
        fn check<S: Similarity>(
            db: &SetDatabase,
            part: &Partitioning,
            sim: S,
            inserts: &[std::collections::BTreeSet<u32>],
            delete_picks: &[u32],
            query: &[TokenId],
            k: usize,
            delta: f64,
            seed: u64,
        ) {
            let mut flat = Les3Index::build(db.clone(), part.clone(), sim);
            flat.enable_approx(sidecar_params(seed));
            let mut log = DeletionLog::build(&flat);
            let mut deletes = delete_picks.iter();
            for s in inserts {
                let mut tokens: Vec<u32> = s.iter().copied().collect();
                let (id, _) = flat.insert(&mut tokens);
                log.note_insert(&flat, id);
                if let Some(&pick) = deletes.next() {
                    let victim = pick % flat.db().len() as u32;
                    log.delete(&mut flat, victim);
                }
            }
            let ctl = QueryCtl::NONE;
            let mut scratch = QueryScratch::new();
            let want_knn = flat
                .knn_ctl_on(1, query, k, &mut scratch, &ctl)
                .expect("QueryCtl::NONE never interrupts");
            let want_range = flat
                .range_ctl_on(1, query, delta, &mut scratch, &ctl)
                .expect("QueryCtl::NONE never interrupts");
            for policy in [ApproxPolicy::Exact, SATURATED] {
                let (knn, info) = flat
                    .knn_approx_ctl_on(1, query, k, policy, &mut scratch, &ctl)
                    .expect("QueryCtl::NONE never interrupts");
                assert_eq!(knn.hits, want_knn.hits, "{} flat knn hits {policy:?}", sim.name());
                assert_eq!(knn.stats, want_knn.stats, "{} flat knn stats {policy:?}", sim.name());
                assert_eq!(info, ApproxInfo::EXACT, "{} flat knn verdict {policy:?}", sim.name());
                let (range, info) = flat
                    .search(&Query { ctl, approx: policy, ..Query::range(query, delta) }, &mut scratch)
                    .expect("QueryCtl::NONE never interrupts");
                assert_eq!(range.hits, want_range.hits, "{} flat range hits {policy:?}", sim.name());
                assert_eq!(range.stats, want_range.stats, "{} flat range stats {policy:?}", sim.name());
                assert_eq!(info, ApproxInfo::EXACT, "{} flat range verdict {policy:?}", sim.name());
            }
            // The other index type: rebuilt at the final corpus (the
            // contract under test is the policy dispatch).
            let mut sharded = ShardedLes3Index::build(
                flat.db().clone(),
                flat.partitioning().clone(),
                sim,
                4,
                ShardPolicy::Contiguous,
            );
            sharded.enable_approx(sidecar_params(seed));
            // Replay the tombstones.
            let mut slog = DeletionLog::build(&sharded);
            for id in log.deleted_ids() {
                slog.delete(&mut sharded, id);
            }
            let mut sscratch = QueryScratch::new();
            let want_knn = sharded
                .knn_ctl_on(1, query, k, &mut sscratch, &ctl)
                .expect("QueryCtl::NONE never interrupts");
            let want_range = sharded
                .range_ctl_on(1, query, delta, &mut sscratch, &ctl)
                .expect("QueryCtl::NONE never interrupts");
            for policy in [ApproxPolicy::Exact, SATURATED] {
                let (knn, info) = sharded
                    .knn_approx_ctl_on(1, query, k, policy, &mut sscratch, &ctl)
                    .expect("QueryCtl::NONE never interrupts");
                assert_eq!(knn.hits, want_knn.hits, "{} sharded knn hits {policy:?}", sim.name());
                assert_eq!(knn.stats, want_knn.stats, "{} sharded knn stats {policy:?}", sim.name());
                assert_eq!(info, ApproxInfo::EXACT);
                let (range, info) = sharded
                    .search(&Query { ctl, approx: policy, ..Query::range(query, delta) }, &mut sscratch)
                    .expect("QueryCtl::NONE never interrupts");
                assert_eq!(range.hits, want_range.hits, "{} sharded range hits {policy:?}", sim.name());
                assert_eq!(range.stats, want_range.stats, "{} sharded range stats {policy:?}", sim.name());
                assert_eq!(info, ApproxInfo::EXACT);
            }
        }
        check(&db, &part, Jaccard, &inserts, &delete_picks, &query, k, delta, seed);
        check(&db, &part, Dice, &inserts, &delete_picks, &query, k, delta, seed);
        check(&db, &part, Cosine, &inserts, &delete_picks, &query, k, delta, seed);
        check(&db, &part, OverlapCoefficient, &inserts, &delete_picks, &query, k, delta, seed);
    }
}

/// Anytime with an already-expired deadline commits a (possibly empty)
/// partial answer instead of erroring; every committed hit is exact and
/// the estimate is a probability.
#[test]
fn anytime_commits_partials_on_expired_deadline() {
    let db = SetDatabase::from_sets((0..200).map(|i| vec![i as u32, i as u32 + 1, 7]));
    let part = Partitioning::round_robin(db.len(), 16);
    let flat = Les3Index::build(db, part.clone(), Jaccard);
    let query: Vec<u32> = vec![7, 50, 51];
    let sims = exact_sims(&flat, &query);
    let mut scratch = QueryScratch::new();
    // A deadline in the past: phase A already sees the interrupt.
    let ctl = QueryCtl::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
    let (result, info) = flat
        .search(
            &Query {
                ctl,
                approx: ApproxPolicy::Anytime,
                ..Query::knn(&query, 5)
            },
            &mut scratch,
        )
        .expect("anytime never surfaces Expired");
    assert!(info.approx, "an interrupted anytime answer is approximate");
    assert!((0.0..=1.0).contains(&info.recall_est));
    for &(id, sim) in &result.hits {
        assert_eq!(Some(sim.to_bits()), sims[id as usize], "hit {id} not exact");
    }
    let (range, info) = flat
        .search(
            &Query {
                ctl,
                approx: ApproxPolicy::Anytime,
                ..Query::range(&query, 0.2)
            },
            &mut scratch,
        )
        .expect("anytime never surfaces Expired");
    assert!(info.approx);
    assert!((0.0..=1.0).contains(&info.recall_est));
    for &(id, sim) in &range.hits {
        assert_eq!(Some(sim.to_bits()), sims[id as usize], "hit {id} not exact");
    }
    // Sharded twin, same contract.
    let sharded =
        ShardedLes3Index::build(flat.db().clone(), part, Jaccard, 4, ShardPolicy::Contiguous);
    let mut sscratch = QueryScratch::new();
    let (result, info) = sharded
        .search(
            &Query {
                ctl,
                approx: ApproxPolicy::Anytime,
                ..Query::knn(&query, 5)
            },
            &mut sscratch,
        )
        .expect("anytime never surfaces Expired");
    assert!(info.approx);
    assert!((0.0..=1.0).contains(&info.recall_est));
    for &(id, sim) in &result.hits {
        assert_eq!(Some(sim.to_bits()), sims[id as usize], "hit {id} not exact");
    }
}

/// Anytime without a deadline is the exact engine with an exact
/// verdict; cancellation still interrupts (a cancelled caller wants no
/// answer at all).
#[test]
fn anytime_without_deadline_is_exact_and_cancellation_interrupts() {
    let db = SetDatabase::from_sets((0..120).map(|i| vec![i as u32 % 40, i as u32, 3]));
    let part = Partitioning::round_robin(db.len(), 8);
    let flat = Les3Index::build(db, part, Jaccard);
    let query: Vec<u32> = vec![3, 20, 21];
    let mut scratch = QueryScratch::new();
    let want = flat
        .knn_ctl_on(1, &query, 7, &mut scratch, &QueryCtl::NONE)
        .expect("NONE never interrupts");
    let (got, info) = flat
        .search(
            &Query {
                ctl: QueryCtl::NONE,
                approx: ApproxPolicy::Anytime,
                ..Query::knn(&query, 7)
            },
            &mut scratch,
        )
        .expect("no deadline, nothing to commit early");
    assert_eq!(got.hits, want.hits);
    assert_eq!(got.stats, want.stats);
    assert_eq!(info, ApproxInfo::EXACT);

    let cancelled = AtomicBool::new(true);
    let ctl = QueryCtl::new(None, Some(&cancelled));
    let err = flat
        .search(
            &Query {
                ctl,
                approx: ApproxPolicy::Anytime,
                ..Query::knn(&query, 7)
            },
            &mut scratch,
        )
        .expect_err("cancellation must interrupt, not commit");
    assert_eq!(err.reason, les3_core::InterruptReason::Cancelled);
    // Relaxed read just to keep the atomic alive past the call.
    assert!(cancelled.load(Ordering::Relaxed));
}

/// Mask × anytime, first half: a masked query whose deadline has
/// already passed stops at the phase boundary and commits the empty
/// answer with recall 0 — the restricted phase A it did run is in the
/// stats, identically on both engines.
#[test]
fn masked_anytime_commits_empty_on_a_past_deadline() {
    let db = SetDatabase::from_sets((0..200).map(|i| vec![i as u32, i as u32 + 1, 7]));
    let part = Partitioning::round_robin(db.len(), 16);
    let every_third: Vec<u64> = (0..4)
        .map(|w| {
            (0..64)
                .filter(|b| (w * 64 + b) % 3 == 0)
                .fold(0, |m, b| m | 1 << b)
        })
        .collect();
    let mask = FilterCandidates::from_words(&every_third, &part);
    let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let sharded = ShardedLes3Index::build(db, part, Jaccard, 4, ShardPolicy::Contiguous);
    let tokens: Vec<u32> = vec![7, 50, 51];
    let ctl = QueryCtl::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
    for kind in [Kind::Knn(5), Kind::Range(0.2)] {
        let q = Query {
            mask: Some(&mask),
            ctl,
            approx: ApproxPolicy::Anytime,
            ..Query::new(&tokens, kind)
        };
        let (a, a_info) = flat
            .search(&q, &mut QueryScratch::new())
            .expect("anytime never surfaces Expired");
        let (b, b_info) = sharded
            .search(&q, &mut QueryScratch::new())
            .expect("anytime never surfaces Expired");
        assert!(a.hits.is_empty() && b.hits.is_empty(), "{kind:?}");
        assert_eq!((a_info.approx, a_info.recall_est), (true, 0.0), "{kind:?}");
        assert_eq!(a_info, b_info, "{kind:?}");
        assert_eq!(a.stats, b.stats, "{kind:?}");
        assert!(a.stats.columns_checked > 0, "phase A ran");
        assert_eq!(a.stats.groups_verified, 0, "phase B did not");
        // The same query without the commit policy is an error.
        let fail = Query {
            approx: ApproxPolicy::Exact,
            ..q
        };
        let err = flat
            .search(&fail, &mut QueryScratch::new())
            .expect_err("expired");
        assert_eq!(err.reason, les3_core::InterruptReason::Expired);
        assert_eq!(err.stats, a.stats);
    }
}

/// Mask × anytime, second half: a filtered anytime query that expires
/// *mid-descent* commits the masked partial answer. Deadlines double
/// from 1 µs until the query completes; every answer on the way —
/// partial or exact — may only name sets of the exact filtered answer,
/// with bit-equal similarities, and somewhere on the way a partial
/// answer must carry hits.
#[test]
fn filtered_anytime_commits_masked_partials_mid_descent() {
    // Large enough that verification takes milliseconds: 24 000 sets
    // sharing token 0 (so every group has range hits from its first
    // member on), half of them "red".
    let n = 24_000u32;
    let sets: Vec<Vec<u32>> = (0..n)
        .map(|i| vec![0, 1 + i % 97, 100 + i % 89, 200 + i % 83, 300 + i % 79])
        .collect();
    let attrs: Vec<Vec<(String, String)>> = (0..n)
        .map(|i| {
            let color = if i % 2 == 0 { "red" } else { "blue" };
            vec![("color".to_string(), color.to_string())]
        })
        .collect();
    let red = Filters(vec![Filter::Eq {
        key: "color".into(),
        value: "red".into(),
    }]);
    let tokens: Vec<u32> = vec![0, 5, 104, 207, 311];
    let registry = Namespaces::new();
    let spec = NamespaceSpec {
        n_groups: 96,
        sets,
        attrs,
        ..Default::default()
    };
    let ns = registry.create("ns", spec).expect("namespace builds");
    for kind in [Kind::Knn(10), Kind::Range(0.1)] {
        let exact = ns
            .search(&Query::new(&tokens, kind), &red, &mut QueryScratch::new())
            .expect("no deadline")
            .0;
        assert!(exact.hits.len() >= 10, "{kind:?}: fixture has hits");
        // kNN ties at the boundary may resolve to different ids once
        // fewer groups were seen, so a partial kNN hit is checked
        // against every matching set's exact similarity instead.
        let all = ns
            .range(&tokens, 0.0, &red, &QueryCtl::NONE)
            .expect("no deadline")
            .hits;
        let reference = if matches!(kind, Kind::Knn(_)) {
            &all
        } else {
            &exact.hits
        };
        let mut partials_with_hits = 0;
        for _sweep in 0..50 {
            let mut budget = std::time::Duration::from_micros(1);
            loop {
                let q = Query {
                    ctl: QueryCtl::with_deadline(Instant::now() + budget),
                    approx: ApproxPolicy::Anytime,
                    ..Query::new(&tokens, kind)
                };
                let (got, info) = ns
                    .search(&q, &red, &mut QueryScratch::new())
                    .expect("anytime never surfaces Expired");
                for hit in &got.hits {
                    let same = reference
                        .iter()
                        .find(|e| e.0 == hit.0)
                        .unwrap_or_else(|| panic!("{kind:?}: hit {} is not admissible", hit.0));
                    assert_eq!(hit.1.to_bits(), same.1.to_bits(), "{kind:?}");
                }
                assert!((0.0..=1.0).contains(&info.recall_est));
                if !info.approx {
                    assert_eq!(got.hits, exact.hits, "{kind:?}: in time is exact");
                    break;
                }
                partials_with_hits += usize::from(!got.hits.is_empty());
                budget *= 2;
            }
            if partials_with_hits > 0 {
                break;
            }
        }
        assert!(
            partials_with_hits > 0,
            "{kind:?}: no deadline caught the descent with hits in hand"
        );
    }
}
