//! Property tests for attribute-filtered search: a filtered kNN or
//! range query must be indistinguishable — hits *and* every
//! [`SearchStats`] counter, bit for bit — across both index types, and
//! must agree with brute-force
//! post-filtering of the exact unfiltered answer, for every similarity
//! measure, random filter tree, and interleaved insert/delete sequence.
//!
//! One caveat applies to the brute-force comparison only: the kNN
//! descent stops at the first group whose upper bound cannot *improve*
//! the current k-th best similarity (`ub <= kth`), so among sets whose
//! similarity exactly ties the final k-th value the engine surfaces a
//! deterministic but visit-order-dependent subset of the tie class.
//! Every such answer is a correct exact top-k. The brute-force check
//! therefore asserts the strongest order-invariant property — the
//! similarity vector is bit-for-bit that of the total-order reference,
//! ids above the boundary tie class are exact, and boundary ids are
//! drawn from the reference tie class — while the cross-backend
//! comparisons stay strictly bit-for-bit (that invariance is the
//! engine's contract). Range search has no top-k boundary and is
//! compared bit-for-bit against brute force throughout.
//!
//! This is the contract that lets the metadata layer sit *in front of*
//! the verification hot path instead of inside it: the predicate
//! resolves to a candidate mask once, phase A counts the TGM in the one
//! pass every query runs and puts only the candidate groups in the bound
//! stream, and verification skips non-matching members before any
//! accounting — no second result path exists to diverge.
//!
//! The matching-set model here is an independent reimplementation of
//! predicate semantics (a recursive matcher over the raw attribute
//! lists), so a bug in the posting-bitmap algebra cannot hide behind
//! itself.
#![cfg(not(feature = "model"))]

mod common;

use common::run;
use les3_core::metadata::{Filter, Filters};
use les3_core::{
    ApproxInfo, ApproxPolicy, Cosine, DeletionLog, Dice, FilterCandidates, Jaccard, Kind,
    Les3Index, MetadataIndex, OverlapCoefficient, Partitioning, Query, QueryScratch, SearchResult,
    ShardPolicy, ShardedLes3Index, Similarity,
};
use les3_data::{SetDatabase, SetId, TokenId};
use proptest::prelude::*;

const KEYS: [&str; 3] = ["color", "size", "kind"];
const VALUES: [[&str; 3]; 3] = [
    ["red", "green", "blue"],
    ["small", "large", "huge"],
    ["widget", "gadget", "gizmo"],
];

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

/// A tiny deterministic generator (xorshift64*), seeded per test case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn kv(k: usize, v: usize) -> (String, String) {
    (KEYS[k].to_string(), VALUES[k][v].to_string())
}

/// Random attributes for one set: each key present with probability
/// 2/3, value uniform; occasionally an off-vocabulary pair so filters
/// also meet attributes no leaf ever names.
fn random_attrs(g: &mut Gen) -> Vec<(String, String)> {
    let mut attrs = Vec::new();
    for k in 0..KEYS.len() {
        if g.below(3) < 2 {
            attrs.push(kv(k, g.below(3)));
        }
    }
    if g.below(10) == 0 {
        attrs.push(("exotic".to_string(), format!("v{}", g.below(4))));
    }
    attrs
}

/// Random predicate tree of depth ≤ 3. Leaves sometimes name a value no
/// set carries ("phantom"), exercising empty postings; `In` draws 1–3
/// values.
fn random_filter(g: &mut Gen, depth: usize) -> Filter {
    let leaf = depth == 0 || g.below(2) == 0;
    if leaf {
        let k = g.below(KEYS.len());
        if g.below(2) == 0 {
            let value = if g.below(5) == 0 {
                "phantom".to_string()
            } else {
                VALUES[k][g.below(3)].to_string()
            };
            Filter::Eq {
                key: KEYS[k].to_string(),
                value,
            }
        } else {
            let n = 1 + g.below(3);
            let values = (0..n).map(|_| VALUES[k][g.below(3)].to_string()).collect();
            Filter::In {
                key: KEYS[k].to_string(),
                values,
            }
        }
    } else {
        let n = 2 + g.below(2);
        let children = (0..n).map(|_| random_filter(g, depth - 1)).collect();
        if g.below(2) == 0 {
            Filter::And(children)
        } else {
            Filter::Or(children)
        }
    }
}

/// Independent model of predicate semantics over a raw attribute list:
/// the oracle the posting-bitmap algebra is checked against.
fn model_matches(filter: &Filter, attrs: &[(String, String)]) -> bool {
    match filter {
        Filter::Eq { key, value } => attrs.iter().any(|(k, v)| k == key && v == value),
        Filter::In { key, values } => attrs
            .iter()
            .any(|(k, v)| k == key && values.iter().any(|want| want == v)),
        Filter::And(children) => children.iter().all(|c| model_matches(c, attrs)),
        Filter::Or(children) => children.iter().any(|c| model_matches(c, attrs)),
    }
}

fn model_matches_all(filters: &Filters, attrs: &[(String, String)]) -> bool {
    filters.0.iter().all(|f| model_matches(f, attrs))
}

/// Brute-force reference: post-filter the exact unfiltered answer.
/// The unfiltered query runs with k = n, so the matching survivors are
/// the full exact ranking of the filtered corpus under the engine's
/// total order (similarity descending, id ascending) — the reference
/// [`assert_knn_matches`] truncates and compares against.
fn brute_knn_full(
    flat: &Les3Index<impl Similarity>,
    query: &[TokenId],
    matching: &[bool],
) -> Vec<(SetId, f64)> {
    run(flat, Query::knn(query, flat.db().len()))
        .hits
        .into_iter()
        .filter(|&(id, _)| matching[id as usize])
        .collect()
}

/// Tie-class-aware top-k comparison (module docs): `got` must have the
/// bit-for-bit similarity vector of `full[..k]`, exact ids wherever the
/// similarity exceeds the k-th value, and boundary ids drawn without
/// repetition from the set of *all* ids in `full` tied at the k-th
/// value.
fn assert_knn_matches(got: &[(SetId, f64)], full: &[(SetId, f64)], k: usize, ctx: &str) {
    let want = &full[..k.min(full.len())];
    assert_eq!(got.len(), want.len(), "{ctx}: answer length");
    let Some(&(_, boundary)) = want.last() else {
        return;
    };
    let tie_class: std::collections::BTreeSet<SetId> = full
        .iter()
        .filter(|h| h.1.to_bits() == boundary.to_bits())
        .map(|h| h.0)
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{ctx}: sim at rank {rank}: {got:?} != {want:?}"
        );
        if w.1.to_bits() == boundary.to_bits() {
            assert!(
                tie_class.contains(&g.0),
                "{ctx}: rank {rank} id {} outside the boundary tie class {tie_class:?}",
                g.0
            );
            assert!(
                seen.insert(g.0),
                "{ctx}: duplicate id {} at the boundary",
                g.0
            );
        } else {
            assert_eq!(g.0, w.0, "{ctx}: id at rank {rank}: {got:?} != {want:?}");
        }
    }
}

fn brute_range(
    flat: &Les3Index<impl Similarity>,
    query: &[TokenId],
    delta: f64,
    matching: &[bool],
) -> Vec<(SetId, f64)> {
    run(flat, Query::range(query, delta))
        .hits
        .into_iter()
        .filter(|&(id, _)| matching[id as usize])
        .collect()
}

/// Asserts the full equivalence square for one (db, partitioning,
/// filter, query) instance: filtered hits equal the brute-force
/// reference, and filtered stats are identical across both index types.
#[allow(clippy::too_many_arguments)]
fn check_filtered_configs<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    meta: &MetadataIndex,
    sim: S,
    filters: &Filters,
    attrs: &[Vec<(String, String)>],
    query: &[TokenId],
    k: usize,
    delta: f64,
) {
    let flat = Les3Index::build(db.clone(), part.clone(), sim);
    let cand = meta
        .candidates(filters, part)
        .expect("non-empty filter list");

    // The candidate mask must agree with the independent model before
    // anything downstream of it is trusted.
    let matching: Vec<bool> = attrs
        .iter()
        .map(|a| model_matches_all(filters, a))
        .collect();
    for (id, &m) in matching.iter().enumerate() {
        assert_eq!(
            cand.matches(id as u32),
            m,
            "{} candidate mask disagrees with the model at set {id}",
            sim.name()
        );
    }
    assert_eq!(cand.n_matching(), matching.iter().filter(|&&m| m).count());

    let full_knn = brute_knn_full(&flat, query, &matching);
    let want_range = brute_range(&flat, query, delta, &matching);

    let baseline_knn = run(
        &flat,
        Query {
            mask: Some(&cand),
            ..Query::knn(query, k)
        },
    );
    let baseline_range = run(
        &flat,
        Query {
            mask: Some(&cand),
            ..Query::range(query, delta)
        },
    );
    assert_knn_matches(
        &baseline_knn.hits,
        &full_knn,
        k,
        &format!("{} filtered knn vs brute force", sim.name()),
    );
    assert_eq!(
        baseline_range.hits,
        want_range,
        "{} filtered range != brute force",
        sim.name()
    );
    // Candidate accounting: verification only ever examines matching
    // sets, so the counter is bounded by the mask's population.
    assert!(baseline_knn.stats.candidates <= cand.n_matching());
    assert!(baseline_range.stats.candidates <= cand.n_matching());
    // Phase A is one counting pass, mask or not: a query that reaches it
    // visits the TGM bits its unfiltered twin does, and once complete it
    // has verified or pruned every one of the mask's groups.
    let reaches_phase_a = cand.n_groups() > 0;
    for (got, unfiltered, reached) in [
        (
            &baseline_knn,
            Query::knn(query, k),
            reaches_phase_a && k > 0 && !db.is_empty(),
        ),
        (&baseline_range, Query::range(query, delta), reaches_phase_a),
    ] {
        if !reached {
            continue;
        }
        let what = format!("{} {:?}", sim.name(), unfiltered.kind);
        let unfiltered = run(&flat, unfiltered);
        assert_eq!(
            got.stats.columns_checked, unfiltered.stats.columns_checked,
            "{what}: a filtered phase A visits the unfiltered bits"
        );
        assert_eq!(
            got.stats.groups_verified + got.stats.groups_pruned,
            cand.n_groups(),
            "{what}: every candidate group is verified or pruned"
        );
    }

    let check = |got: &SearchResult, want: &SearchResult, what: &str| {
        assert_eq!(got.hits, want.hits, "{} {what} hits", sim.name());
        assert_eq!(got.stats, want.stats, "{} {what} stats", sim.name());
    };
    let sharded =
        ShardedLes3Index::build(db.clone(), part.clone(), sim, 4, ShardPolicy::Contiguous);
    let got = run(
        &sharded,
        Query {
            mask: Some(&cand),
            ..Query::knn(query, k)
        },
    );
    check(&got, &baseline_knn, "sharded knn");
    let got = run(
        &sharded,
        Query {
            mask: Some(&cand),
            ..Query::range(query, delta)
        },
    );
    check(&got, &baseline_range, "sharded range");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline battery: 4 measures × both index types × random filter
    /// trees, hits and stats bit for bit.
    #[test]
    fn filtered_equals_brute_force_for_all_measures(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..15),
        k in 1usize..12,
        delta in 0.0f64..1.05,
        n_groups in 1usize..11,
        seed in 1u64..u64::MAX,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let mut g = Gen(seed);
        let attrs: Vec<Vec<(String, String)>> =
            (0..db.len()).map(|_| random_attrs(&mut g)).collect();
        let mut meta = MetadataIndex::new();
        for a in &attrs {
            meta.push(a);
        }
        let filters = Filters(vec![random_filter(&mut g, 3)]);
        check_filtered_configs(&db, &part, &meta, Jaccard, &filters, &attrs, &query, k, delta);
        check_filtered_configs(&db, &part, &meta, Dice, &filters, &attrs, &query, k, delta);
        check_filtered_configs(&db, &part, &meta, Cosine, &filters, &attrs, &query, k, delta);
        check_filtered_configs(
            &db, &part, &meta, OverlapCoefficient, &filters, &attrs, &query, k, delta,
        );
    }

    /// Top-level conjunctions (`Filters` with several trees) and
    /// degenerate predicates: phantom-only leaves (zero matches) and
    /// fully-matching trees must both hold the equivalence.
    #[test]
    fn conjunctions_and_degenerate_filters_hold(
        db in db_strategy(),
        query in prop::collection::btree_set(0u32..110, 1..12),
        k in 1usize..8,
        delta in 0.0f64..1.0,
        n_groups in 1usize..9,
        seed in 1u64..u64::MAX,
    ) {
        let query: Vec<u32> = query.into_iter().collect();
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let mut g = Gen(seed ^ 0xdead_beef);
        let attrs: Vec<Vec<(String, String)>> =
            (0..db.len()).map(|_| random_attrs(&mut g)).collect();
        let mut meta = MetadataIndex::new();
        for a in &attrs {
            meta.push(a);
        }
        let cases = vec![
            // A 2–3 term top-level conjunction.
            Filters((0..2 + g.below(2)).map(|_| random_filter(&mut g, 2)).collect()),
            // Nothing matches.
            Filters(vec![Filter::Eq { key: "color".into(), value: "phantom".into() }]),
            // Everything matches (And of zero terms is `true`).
            Filters(vec![Filter::And(Vec::new())]),
        ];
        for filters in &cases {
            check_filtered_configs(
                &db, &part, &meta, Jaccard, filters, &attrs, &query, k, delta,
            );
        }
        // The empty filter list is the unfiltered hot path, by contract.
        prop_assert!(meta.candidates(&Filters::none(), &part).is_none());
    }

    /// The equivalence must survive interleaved inserts and deletes:
    /// attributes attach to new sets as they arrive, tombstones drop out
    /// of both the filtered answer and the brute-force reference.
    #[test]
    fn filtered_stays_equal_under_interleaved_inserts_and_deletes(
        db in db_strategy(),
        inserts in prop::collection::vec(prop::collection::btree_set(0u32..140, 1..20), 1..10),
        delete_picks in prop::collection::vec(0u32..1000, 1..8),
        k in 1usize..6,
        delta in 0.1f64..1.0,
        n_groups in 1usize..7,
        seed in 1u64..u64::MAX,
    ) {
        let part = pseudo_partitioning(db.len(), n_groups, seed);
        let mut g = Gen(seed ^ 0x5151_5151);
        let mut attrs: Vec<Vec<(String, String)>> =
            (0..db.len()).map(|_| random_attrs(&mut g)).collect();
        let mut meta = MetadataIndex::new();
        for a in &attrs {
            meta.push(a);
        }
        let mut flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
        let mut log = DeletionLog::build(&flat);
        let mut deletes = delete_picks.iter();
        for s in &inserts {
            let mut tokens: Vec<u32> = s.iter().copied().collect();
            let (id, _) = flat.insert(&mut tokens);
            log.note_insert(&flat, id);
            let new_attrs = random_attrs(&mut g);
            let meta_id = meta.push(&new_attrs);
            attrs.push(new_attrs);
            prop_assert_eq!(meta_id, id, "metadata id drifted from database id");
            if let Some(&pick) = deletes.next() {
                let victim = pick % flat.db().len() as u32;
                log.delete(&mut flat, victim);
            }

            let filters = Filters(vec![random_filter(&mut g, 2)]);
            let cand = meta
                .candidates(&filters, flat.partitioning())
                .expect("non-empty filter list");
            let matching: Vec<bool> = attrs
                .iter()
                .map(|a| model_matches_all(&filters, a))
                .collect();
            let q = flat.db().set((flat.db().len() - 1) as u32).to_vec();

            // Brute force and filtered answers, both tombstone-filtered.
            // The live matching ranking is kept in full so the boundary
            // tie class is complete for `assert_knn_matches`.
            let mut full_live = brute_knn_full(&flat, &q, &matching);
            log.filter_hits(&mut full_live);
            let mut want_range = brute_range(&flat, &q, delta, &matching);
            log.filter_hits(&mut want_range);

            // Over-fetch exactly like the namespace layer does, so the
            // tombstone filter can never starve the answer below k.
            let fetch = k + (flat.db().len() - log.live_count());
            let got = run(&flat, Query { mask: Some(&cand), ..Query::knn(&q, fetch) });
            let mut hits = got.hits;
            log.filter_hits(&mut hits);
            hits.truncate(k);
            assert_knn_matches(&hits, &full_live, k, "post-update filtered knn");
            let got = run(&flat, Query { mask: Some(&cand), ..Query::range(&q, delta) });
            let mut hits = got.hits;
            log.filter_hits(&mut hits);
            prop_assert_eq!(&hits, &want_range, "post-update filtered range");
        }
    }
}

/// Deterministic spot check on a 160-group index: masked kNN and range
/// answer the same, hits and stats, under both index types.
#[test]
fn auto_worker_entry_points_match_explicit() {
    let mut g = Gen(0x0123_4567_89ab_cdef);
    let sets: Vec<Vec<u32>> = (0..400)
        .map(|_| {
            let len = 3 + g.below(20);
            let mut s: Vec<u32> = (0..len).map(|_| g.next() as u32 % 300).collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let attrs: Vec<Vec<(String, String)>> = (0..sets.len()).map(|_| random_attrs(&mut g)).collect();
    let db = SetDatabase::from_sets(sets);
    let part = pseudo_partitioning(db.len(), 160, 7);
    let mut meta = MetadataIndex::new();
    for a in &attrs {
        meta.push(a);
    }
    let filters = Filters(vec![Filter::In {
        key: "color".into(),
        values: vec!["red".into(), "blue".into()],
    }]);
    let cand = meta.candidates(&filters, &part).unwrap();
    let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let sharded = ShardedLes3Index::build(db, part, Jaccard, 4, ShardPolicy::Contiguous);
    for q in [
        vec![1u32, 5, 9, 42, 77, 120],
        vec![0u32],
        vec![200u32, 201, 202, 203],
    ] {
        let want_knn = run(
            &flat,
            Query {
                mask: Some(&cand),
                ..Query::knn(&q, 10)
            },
        );
        let want_range = run(
            &flat,
            Query {
                mask: Some(&cand),
                ..Query::range(&q, 0.3)
            },
        );
        let auto = run(
            &flat,
            Query {
                mask: Some(&cand),
                ..Query::knn(&q, 10)
            },
        );
        assert_eq!(auto.hits, want_knn.hits);
        assert_eq!(auto.stats, want_knn.stats);
        let auto = run(
            &flat,
            Query {
                mask: Some(&cand),
                ..Query::range(&q, 0.3)
            },
        );
        assert_eq!(auto.hits, want_range.hits);
        assert_eq!(auto.stats, want_range.stats);
        let auto = run(
            &sharded,
            Query {
                mask: Some(&cand),
                ..Query::knn(&q, 10)
            },
        );
        assert_eq!(auto.hits, want_knn.hits);
        assert_eq!(auto.stats, want_knn.stats);
        let auto = run(
            &sharded,
            Query {
                mask: Some(&cand),
                ..Query::range(&q, 0.3)
            },
        );
        assert_eq!(auto.hits, want_range.hits);
        assert_eq!(auto.stats, want_range.stats);
    }
}

/// One scratch, many indexes: a serving worker's `QueryScratch` answers
/// the default route and every namespace in turn, so nothing in it may
/// be sized for, or left describing, the index it served last. One
/// scratch alternates between a 256-group index with a sidecar
/// and tombstones, a flat 3-group namespace and an empty index over a
/// larger universe, under plain, attribute-filtered (broad and narrow
/// masks) and prefiltered kNN and range queries; every
/// answer, `SearchStats` and verdict included, is the fresh-scratch one.
#[test]
fn one_scratch_alternates_between_indexes_of_every_shape() {
    use les3_core::{ApproxParams, LiveIndex, NamespaceSpec, Namespaces};

    let mut g = Gen(0x51de_ca5e);
    let mut random_sets = |n: usize, universe: u64, max_len: usize| -> Vec<Vec<TokenId>> {
        (0..n)
            .map(|_| {
                let len = 1 + g.below(max_len);
                let set: std::collections::BTreeSet<u32> =
                    (0..len).map(|_| (g.next() % universe) as u32).collect();
                set.into_iter().collect()
            })
            .collect()
    };
    let big_sets = random_sets(1_500, 300, 18);
    let small_sets = random_sets(30, 40, 8);
    let mut attrs_for =
        |n: usize| -> Vec<Vec<(String, String)>> { (0..n).map(|_| random_attrs(&mut g)).collect() };
    let (big_attrs, small_attrs) = (attrs_for(big_sets.len()), attrs_for(small_sets.len()));

    let mut meta = MetadataIndex::new();
    for a in &big_attrs {
        meta.push(a);
    }
    let db = SetDatabase::from_sets(big_sets.clone());
    let part = pseudo_partitioning(db.len(), 256, 11);
    let mut engine = ShardedLes3Index::build(db, part, Jaccard, 4, ShardPolicy::Contiguous);
    engine.enable_approx(ApproxParams {
        bands: 8,
        rows: 1,
        ..ApproxParams::default()
    });
    let mut big = LiveIndex::with_attrs(engine, meta);
    for id in [3, 100, 777] {
        assert!(big.delete(id));
    }

    let registry = Namespaces::new();
    let spec = NamespaceSpec {
        n_groups: 3,
        sets: small_sets.clone(),
        attrs: small_attrs,
        ..Default::default()
    };
    let flat = registry.create("flat", spec).unwrap();
    assert_eq!(flat.info().n_groups, 3);

    let nothing = Les3Index::build(
        SetDatabase::new(5_000),
        Partitioning::round_robin(0, 1),
        Jaccard,
    );
    let empty = LiveIndex::new(nothing);

    type Ask<'a> =
        &'a dyn Fn(&Query<'_>, &Filters, &mut QueryScratch) -> (SearchResult, ApproxInfo);
    let indexes: [Ask<'_>; 3] = [
        &|q, f, scratch| big.search(q, f, scratch).unwrap(),
        &|q, f, scratch| flat.search(q, f, scratch).unwrap(),
        &|q, f, scratch| empty.search(q, f, scratch).unwrap(),
    ];

    let broad = Filters(vec![Filter::Eq {
        key: "color".into(),
        value: "red".into(),
    }]);
    let narrow = Filters(vec![Filter::In {
        key: "exotic".into(),
        values: vec!["v0".into(), "v1".into()],
    }]);
    let prefilter = ApproxPolicy::Prefilter { bands: 8, rows: 1 };
    let queries = [
        big_sets[42].clone(),
        small_sets[7].clone(),
        vec![4_000, 4_500], // inside the empty index's universe only
        vec![],
    ];

    let mut shared = QueryScratch::new();
    let (mut turn, mut hits, mut masked_hits, mut approx_answers) = (0usize, 0, 0, 0);
    for tokens in &queries {
        for kind in [Kind::Knn(7), Kind::Range(0.25)] {
            for filters in [&Filters::none(), &broad, &narrow] {
                for mode in [ApproxPolicy::Exact, prefilter] {
                    let q = Query {
                        approx: mode,
                        ..Query::new(tokens, kind)
                    };
                    // Rotate who goes first, so every index follows
                    // every other one in the shared scratch.
                    for step in 0..indexes.len() {
                        let which = (turn + step) % indexes.len();
                        let got = indexes[which](&q, filters, &mut shared);
                        let want = indexes[which](&q, filters, &mut QueryScratch::new());
                        assert_eq!(
                            got, want,
                            "index {which}: {tokens:?} {kind:?} {filters:?} {mode:?}"
                        );
                        hits += got.0.hits.len();
                        masked_hits += if filters.is_empty() {
                            0
                        } else {
                            got.0.hits.len()
                        };
                        approx_answers += usize::from(got.1.approx);
                    }
                    turn += 1;
                }
            }
        }
    }
    // The mix did reach every path it names.
    assert!(hits > 0 && masked_hits > 0 && approx_answers > 0);
}

/// `FilterCandidates::build` tolerates bitmap bits beyond the database
/// (stale postings after decode) by ignoring them.
#[test]
fn out_of_range_matches_are_ignored() {
    let part = Partitioning::round_robin(3, 2);
    let matching = les3_bitmap::Bitmap::from_sorted(&[1, 2, 9, 1000]);
    let cand = FilterCandidates::build(&matching, &part);
    assert_eq!(cand.n_matching(), 2);
    assert!(cand.matches(1) && cand.matches(2));
    assert!(!cand.matches(0));
}

/// The entry-point matrix as a table: every combination of the
/// [`Query`] axes, on every engine shape, is one `search` — equal to
/// brute force on hits, and to the flat sequential run on hits *and*
/// stats. With no deadline to pass, `ApproxPolicy::Anytime` changes nothing
/// and every verdict is exact.
#[test]
fn every_query_axis_combination_matches_brute_force_and_flat() {
    fn check<S: Similarity>(sim: S) {
        let mut g = Gen(0x5eed_cafe);
        let sets: Vec<Vec<TokenId>> = (0..230)
            .map(|_| {
                let len = 1 + g.below(14);
                let set: std::collections::BTreeSet<u32> =
                    (0..len).map(|_| g.below(60) as u32).collect();
                set.into_iter().collect()
            })
            .collect();
        let db = SetDatabase::from_sets(sets);
        let n = db.len();
        let part = pseudo_partitioning(n, 14, 0x9a7);
        let tokens: Vec<TokenId> = db.set(17).to_vec();

        let mask_of = |keep: &dyn Fn(usize) -> bool| {
            let words: Vec<u64> = (0..n.div_ceil(64))
                .map(|w| {
                    (0..64)
                        .filter(|b| w * 64 + b < n && keep(w * 64 + b))
                        .fold(0, |m, b| m | 1 << b)
                })
                .collect();
            FilterCandidates::from_words(&words, &part)
        };
        let masks = [
            ("none", None),
            ("10%", Some(mask_of(&|id| id % 10 == 3))),
            ("empty", Some(mask_of(&|_| false))),
            ("all", Some(mask_of(&|_| true))),
        ];
        let kinds = [
            Kind::Knn(1),
            Kind::Knn(10),
            Kind::Knn(n + 5),
            Kind::Range(0.2),
            Kind::Range(0.8),
            Kind::Range(1.0),
        ];

        let flat = Les3Index::build(db.clone(), part.clone(), sim);
        let sharded =
            ShardedLes3Index::build(db.clone(), part.clone(), sim, 3, ShardPolicy::Contiguous);

        for (mask_name, mask) in &masks {
            // Brute force: every admitted set's similarity, in the
            // engine's total order (similarity descending, id ascending).
            let mut ranked: Vec<(SetId, f64)> = db
                .iter()
                .filter(|&(id, _)| mask.as_ref().is_none_or(|m| m.matches(id)))
                .map(|(id, set)| (id, sim.eval(&tokens, set)))
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for kind in kinds {
                let ctx = format!("{} {kind:?} mask={mask_name}", sim.name());
                let query = |approx| Query {
                    mask: mask.as_ref(),
                    approx,
                    ..Query::new(&tokens, kind)
                };
                let (want, info) = flat
                    .search(&query(ApproxPolicy::Exact), &mut QueryScratch::new())
                    .expect("no deadline");
                assert_eq!(info, ApproxInfo::EXACT, "{ctx}");
                match kind {
                    Kind::Knn(k) => assert_knn_matches(&want.hits, &ranked, k, &ctx),
                    Kind::Range(delta) => {
                        let hits: Vec<_> =
                            ranked.iter().copied().filter(|h| h.1 >= delta).collect();
                        assert_eq!(want.hits, hits, "{ctx}");
                    }
                }
                for approx in [ApproxPolicy::Exact, ApproxPolicy::Anytime] {
                    let q = query(approx);
                    let ctx = format!("{ctx} {approx:?}");
                    let got = flat.search(&q, &mut QueryScratch::new());
                    assert_eq!(got, Ok((want.clone(), ApproxInfo::EXACT)), "flat {ctx}");
                    let got = sharded.search(&q, &mut QueryScratch::new());
                    assert_eq!(got, Ok((want.clone(), ApproxInfo::EXACT)), "sharded {ctx}");
                }
            }
        }
    }
    check(Jaccard);
    check(Cosine);
}
