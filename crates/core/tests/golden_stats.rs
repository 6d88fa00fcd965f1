//! Golden `SearchStats`: per-query work counters of a seeded Zipfian
//! fixture, recorded as literals and asserted for the flat and sharded ×4
//! engines.
//!
//! The equivalence suites compare engines *within* one commit, so a
//! verify-kernel rewrite that shifted `early_exits`, `size_skipped` or
//! `candidates` identically everywhere would pass them all. These
//! literals pin the counters *across* commits and must only ever change
//! together with a deliberate, documented change of the work the engines
//! do. The range tables were recorded from the commit before the shared
//! kNN window-verify routine landed (456e852). The kNN tables were
//! re-recorded when a kNN began to cap each group's verify window by its
//! TGM overlap count (the commit after d095c49); the uncapped kNN record
//! stays beside them, and `capping_the_window_moves_only_verify_work`
//! holds the two against each other.
#![cfg(not(feature = "model"))]

mod common;

use les3_core::{
    FilterCandidates, Jaccard, Les3Index, Partitioning, Query, SearchResult, SearchStats,
    ShardPolicy, ShardedLes3Index,
};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::{SetDatabase, TokenId};

const N_SETS: usize = 3000;
const N_GROUPS: usize = 64;
const K: usize = 10;
/// 32 kNN queries: the first 24 unfiltered, the last 8 filtered.
const N_QUERIES: usize = 32;
const N_UNFILTERED: usize = 24;

/// `candidates sims_computed columns_checked groups_pruned
/// groups_verified early_exits size_skipped` per query (flat and
/// sharded ×4 are bit-for-bit the same engine, so they share a table).
const GOLDEN_FLAT: [[usize; 7]; N_QUERIES] = [
    [98, 98, 64, 63, 1, 58, 0],
    [1040, 1040, 67, 1, 63, 42, 1932],
    [1283, 1283, 81, 5, 59, 328, 1510],
    [1408, 1408, 49, 15, 49, 31, 953],
    [2310, 2310, 648, 0, 64, 2098, 690],
    [2453, 2453, 504, 0, 64, 2217, 547],
    [1072, 1072, 33, 31, 33, 14, 441],
    [1156, 1156, 30, 34, 30, 20, 334],
    [2339, 2339, 248, 0, 64, 1765, 661],
    [2137, 2137, 646, 0, 64, 1916, 863],
    [2311, 2311, 206, 6, 58, 1860, 388],
    [2194, 2194, 624, 0, 64, 2008, 806],
    [2408, 2408, 228, 0, 64, 1870, 592],
    [2301, 2301, 265, 0, 64, 1965, 699],
    [2487, 2487, 559, 0, 64, 2197, 513],
    [1197, 1197, 36, 34, 30, 22, 291],
    [2673, 2673, 460, 0, 64, 2322, 327],
    [716, 716, 16, 48, 16, 8, 31],
    [2152, 2152, 200, 1, 63, 1686, 820],
    [2163, 2163, 682, 0, 64, 1951, 837],
    [1642, 1642, 1015, 0, 64, 1495, 1358],
    [2508, 2508, 201, 2, 62, 1686, 422],
    [2328, 2328, 215, 2, 62, 1745, 608],
    [2513, 2513, 296, 0, 64, 1872, 487],
    [619, 619, 128, 7, 57, 46, 275],
    [593, 593, 74, 6, 58, 4, 399],
    [539, 539, 64, 13, 51, 3, 289],
    [186, 186, 13, 51, 13, 0, 0],
    [35, 35, 3, 61, 3, 0, 0],
    [495, 495, 91, 8, 56, 49, 647],
    [407, 407, 91, 1, 63, 33, 1342],
    [666, 666, 198, 0, 64, 352, 377],
];

/// [`GOLDEN_FLAT`] as recorded before the kNN window was capped by the
/// group's overlap count (456e852 through d095c49).
const UNCAPPED_FLAT: [[usize; 7]; N_QUERIES] = [
    [98, 98, 64, 63, 1, 58, 0],
    [1988, 1988, 67, 1, 63, 930, 984],
    [1912, 1912, 81, 5, 59, 938, 881],
    [1408, 1408, 49, 15, 49, 31, 953],
    [2333, 2333, 648, 0, 64, 2121, 667],
    [2513, 2513, 504, 0, 64, 2277, 487],
    [1072, 1072, 33, 31, 33, 14, 441],
    [1156, 1156, 30, 34, 30, 20, 334],
    [2662, 2662, 248, 0, 64, 2085, 338],
    [2187, 2187, 646, 0, 64, 1966, 813],
    [2625, 2625, 206, 6, 58, 2173, 74],
    [2220, 2220, 624, 0, 64, 2034, 780],
    [2764, 2764, 228, 0, 64, 2225, 236],
    [2706, 2706, 265, 0, 64, 2369, 294],
    [2536, 2536, 559, 0, 64, 2246, 464],
    [1385, 1385, 36, 34, 30, 200, 103],
    [2732, 2732, 460, 0, 64, 2381, 268],
    [716, 716, 16, 48, 16, 8, 31],
    [2731, 2731, 200, 1, 63, 2261, 241],
    [2189, 2189, 682, 0, 64, 1977, 811],
    [1646, 1646, 1015, 0, 64, 1499, 1354],
    [2781, 2781, 201, 2, 62, 1958, 149],
    [2768, 2768, 215, 2, 62, 2183, 168],
    [2687, 2687, 296, 0, 64, 2046, 313],
    [679, 679, 128, 7, 57, 103, 0],
    [676, 676, 74, 6, 58, 83, 37],
    [589, 589, 64, 13, 51, 46, 89],
    [186, 186, 13, 51, 13, 0, 0],
    [35, 35, 3, 61, 3, 0, 0],
    [654, 654, 91, 8, 56, 199, 3],
    [720, 720, 91, 1, 63, 321, 130],
    [709, 709, 198, 0, 64, 395, 205],
];

/// The cap leaves out only members below the k-th similarity, so it
/// moves work from `candidates` (= `sims_computed`) to `size_skipped` and
/// changes nothing else: `columns_checked`, `groups_pruned` and
/// `groups_verified` repeat the uncapped record. In an unfiltered row the
/// moved members are all accounted for: `candidates + size_skipped` is
/// the group sizes summed over the verified groups, which the cap cannot
/// change. (A filtered row counts only matching members as candidates
/// but every cut member as skipped, so there the sum may grow.) The hits
/// are pinned by `GOLDEN_HIT_DIGESTS[0]`, recorded uncapped.
#[test]
fn capping_the_window_moves_only_verify_work() {
    let mut moved = 0;
    for (i, (new, old)) in GOLDEN_FLAT.iter().zip(&UNCAPPED_FLAT).enumerate() {
        assert_eq!(new[0], new[1], "row {i}: candidates = sims_computed");
        assert_eq!(new[2..5], old[2..5], "row {i}: group counters");
        assert!(new[0] <= old[0] && new[6] >= old[6], "row {i}");
        if i < N_UNFILTERED {
            assert_eq!(new[0] + new[6], old[0] + old[6], "row {i}: lost members");
        }
        moved += old[0] - new[0];
    }
    assert!(moved > 0, "the fixture must exercise the cap");
}

fn fixture() -> (SetDatabase, Partitioning) {
    let db = ZipfianGenerator::new(N_SETS, 1500, 9.0, 1.0).generate(0x1e53);
    // Grouped by rarest token (near-duplicates mostly share it), so
    // bounds separate and whole groups prune, while the mixed lengths
    // inside a group make length windows and early exits trigger.
    let fine: Vec<u32> = db
        .iter()
        .map(|(_, set)| set[set.len() - 1] % N_GROUPS as u32)
        .collect();
    let part = Partitioning::from_assignment(fine, N_GROUPS);
    (db, part)
}

/// Query `i`: database member `97·i` with its first token replaced (and,
/// every fourth query, a duplicated token — the multiset merge path).
fn query(db: &SetDatabase, i: usize) -> Vec<TokenId> {
    let mut q = db.set(((97 * i) % N_SETS) as u32).to_vec();
    q[0] = (11 * i as u32) % 1500;
    if i % 4 == 3 {
        q.push(q[q.len() - 1]);
    }
    q
}

fn counters(results: &[SearchResult]) -> Vec<[usize; 7]> {
    results
        .iter()
        .map(|r| {
            let s = &r.stats;
            [
                s.candidates,
                s.sims_computed,
                s.columns_checked,
                s.groups_pruned,
                s.groups_verified,
                s.early_exits,
                s.size_skipped,
            ]
        })
        .collect()
}

#[test]
fn per_query_search_stats_match_recorded_literals() {
    let (db, part) = fixture();
    let matching: Vec<u32> = (0..N_SETS as u32).filter(|id| id % 4 == 1).collect();
    let cand = FilterCandidates::build(&les3_bitmap::Bitmap::from_sorted(&matching), &part);

    let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let sharded = ShardedLes3Index::build(
        db.clone(),
        part.clone(),
        Jaccard,
        4,
        ShardPolicy::Contiguous,
    );

    let run = |knn: &dyn Fn(&[TokenId]) -> SearchResult,
               knn_filtered: &dyn Fn(&[TokenId]) -> SearchResult| {
        (0..N_QUERIES)
            .map(|i| {
                let q = query(&db, i);
                if i < N_UNFILTERED {
                    knn(&q)
                } else {
                    knn_filtered(&q)
                }
            })
            .collect::<Vec<_>>()
    };
    let flat_results = run(&|q| flat.knn(q, K), &|q| {
        common::run(
            &flat,
            Query {
                mask: Some(&cand),
                ..Query::knn(q, K)
            },
        )
    });
    let sharded_results = run(&|q| sharded.knn(q, K), &|q| {
        common::run(
            &sharded,
            Query {
                mask: Some(&cand),
                ..Query::knn(q, K)
            },
        )
    });

    // The fixture must exercise every counter the literals pin.
    let total = SearchStats::merged(flat_results.iter().map(|r| &r.stats));
    assert!(total.early_exits > 0 && total.size_skipped > 0 && total.groups_pruned > 0);

    assert_eq!(counters(&flat_results), GOLDEN_FLAT, "flat");
    assert_eq!(counters(&sharded_results), GOLDEN_FLAT, "sharded x4");
    for (f, s) in flat_results.iter().zip(&sharded_results) {
        assert_eq!(f.hits, s.hits);
    }
}

/// Range queries and the batch entry points, recorded from the flat
/// engine of 08853e3 — the last commit where `Les3Index` had a query
/// body of its own. Since then the flat index *is* the 1-shard engine,
/// so no engine in a later commit can stand in as the reference for
/// `SearchStats`: these literals plus the brute-force oracles are it.
/// Rows follow [`GOLDEN_FLAT`]'s layout (24 unfiltered queries, then 8
/// under the `id % 4 == 1` mask).
const GOLDEN_RANGE: [(f64, [[usize; 7]; N_QUERIES]); 2] = [
    (
        0.5,
        [
            [590, 590, 64, 0, 64, 0, 2410],
            [1199, 1199, 67, 1, 63, 893, 1773],
            [1130, 1130, 81, 5, 59, 836, 1663],
            [467, 467, 49, 15, 49, 0, 1894],
            [558, 558, 648, 24, 40, 556, 1381],
            [1243, 1243, 504, 4, 60, 1241, 1608],
            [291, 291, 33, 31, 33, 0, 1222],
            [313, 313, 30, 34, 30, 0, 1177],
            [1630, 1630, 248, 6, 58, 1625, 1126],
            [950, 950, 646, 1, 63, 949, 2002],
            [731, 731, 206, 36, 28, 729, 577],
            [46, 46, 624, 60, 4, 44, 166],
            [1755, 1755, 228, 1, 63, 1753, 1203],
            [1125, 1125, 265, 21, 43, 1124, 893],
            [1224, 1224, 559, 4, 60, 1223, 1617],
            [575, 575, 36, 34, 30, 419, 913],
            [800, 800, 460, 18, 46, 799, 1389],
            [131, 131, 16, 48, 16, 0, 616],
            [474, 474, 200, 47, 17, 473, 351],
            [435, 435, 682, 31, 33, 434, 1228],
            [184, 184, 1015, 40, 24, 183, 979],
            [1460, 1460, 201, 8, 56, 1458, 1241],
            [229, 229, 215, 55, 9, 228, 234],
            [1780, 1780, 296, 0, 64, 1778, 1220],
            [145, 145, 128, 43, 21, 145, 442],
            [83, 83, 74, 48, 16, 82, 435],
            [228, 228, 64, 13, 51, 176, 1503],
            [45, 45, 13, 51, 13, 0, 540],
            [3, 3, 3, 61, 3, 0, 132],
            [43, 43, 91, 59, 5, 42, 156],
            [149, 149, 91, 41, 23, 149, 488],
            [437, 437, 198, 0, 64, 430, 1257],
        ],
    ),
    (
        0.8,
        [
            [279, 279, 64, 0, 64, 0, 2721],
            [20, 20, 67, 60, 4, 20, 180],
            [111, 111, 81, 42, 22, 110, 957],
            [231, 231, 49, 15, 49, 0, 2130],
            [8, 8, 648, 63, 1, 7, 63],
            [58, 58, 504, 57, 7, 57, 306],
            [142, 142, 33, 31, 33, 0, 1371],
            [155, 155, 30, 34, 30, 0, 1335],
            [229, 229, 248, 44, 20, 229, 741],
            [82, 82, 646, 51, 13, 81, 630],
            [15, 15, 206, 63, 1, 15, 31],
            [3, 3, 624, 63, 1, 2, 52],
            [43, 43, 228, 59, 5, 43, 174],
            [22, 22, 265, 61, 3, 22, 139],
            [156, 156, 559, 43, 21, 155, 912],
            [26, 26, 36, 58, 6, 25, 266],
            [5, 5, 460, 63, 1, 4, 45],
            [54, 54, 16, 48, 16, 0, 693],
            [4, 4, 200, 63, 1, 4, 40],
            [2, 2, 682, 63, 1, 1, 45],
            [3, 3, 1015, 63, 1, 2, 39],
            [227, 227, 201, 45, 19, 227, 732],
            [3, 3, 215, 63, 1, 2, 63],
            [413, 413, 296, 25, 39, 412, 1455],
            [8, 8, 128, 62, 2, 8, 64],
            [0, 0, 74, 64, 0, 0, 0],
            [11, 11, 64, 51, 13, 11, 631],
            [26, 26, 13, 51, 13, 0, 618],
            [2, 2, 3, 61, 3, 0, 140],
            [5, 5, 91, 63, 1, 5, 40],
            [0, 0, 91, 64, 0, 0, 0],
            [25, 25, 198, 54, 10, 25, 410],
        ],
    ),
];

/// FNV-1a over every hit's `(id, similarity bits)` of the 32 kNN
/// answers, then of the 32 range answers at each `δ`.
const GOLDEN_HIT_DIGESTS: [u64; 3] = [
    0x1571_a075_ab5d_b901,
    0x654d_2c42_96c2_5a30,
    0x44ea_a1cb_cae4_d0cb,
];

fn hit_digest(results: &[SearchResult]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        bytes.extend_from_slice(&(r.hits.len() as u64).to_le_bytes());
        for &(id, sim) in &r.hits {
            bytes.extend_from_slice(&u64::from(id).to_le_bytes());
            bytes.extend_from_slice(&sim.to_bits().to_le_bytes());
        }
    }
    common::fnv1a(&bytes)
}

/// Every query of the fixture, one at a time: the first 24 unmasked,
/// the last 8 under `cand`.
fn one_by_one<B: les3_core::PersistentBackend>(
    index: &B,
    db: &SetDatabase,
    cand: &FilterCandidates,
    kind: les3_core::Kind,
) -> Vec<SearchResult> {
    (0..N_QUERIES)
        .map(|i| {
            let q = query(db, i);
            let mask = (i >= N_UNFILTERED).then_some(cand);
            common::run(
                index,
                Query {
                    mask,
                    ..Query::new(&q, kind)
                },
            )
        })
        .collect()
}

#[test]
fn range_and_batch_stats_match_recorded_literals() {
    use les3_core::Kind;
    let (db, part) = fixture();
    let matching: Vec<u32> = (0..N_SETS as u32).filter(|id| id % 4 == 1).collect();
    let cand = FilterCandidates::build(&les3_bitmap::Bitmap::from_sorted(&matching), &part);
    let sharded_with = |n_shards| {
        ShardedLes3Index::build(
            db.clone(),
            part.clone(),
            Jaccard,
            n_shards,
            ShardPolicy::Contiguous,
        )
    };
    let flat = Les3Index::build(db.clone(), part.clone(), Jaccard);
    let (sharded1, sharded4) = (sharded_with(1), sharded_with(4));
    let unfiltered: Vec<Vec<TokenId>> = (0..N_UNFILTERED).map(|i| query(&db, i)).collect();

    // kNN, one at a time: the existing table, now also for one shard.
    let knn = one_by_one(&flat, &db, &cand, Kind::Knn(K));
    assert_eq!(counters(&knn), GOLDEN_FLAT, "flat knn");
    assert_eq!(hit_digest(&knn), GOLDEN_HIT_DIGESTS[0], "flat knn hits");
    assert_eq!(one_by_one(&sharded1, &db, &cand, Kind::Knn(K)), knn, "x1");
    assert_eq!(one_by_one(&sharded4, &db, &cand, Kind::Knn(K)), knn, "x4");

    // kNN through the batch entry point, two inter-query workers.
    let batch = &knn[..N_UNFILTERED];
    assert_eq!(flat.knn_batch_on(2, 1, &unfiltered, K), batch, "flat batch");

    for (i, &(delta, golden)) in GOLDEN_RANGE.iter().enumerate() {
        let range = one_by_one(&flat, &db, &cand, Kind::Range(delta));
        assert_eq!(counters(&range), golden, "flat range {delta}");
        assert_eq!(hit_digest(&range), GOLDEN_HIT_DIGESTS[1 + i], "δ {delta}");
        let total = SearchStats::merged(range.iter().map(|r| &r.stats));
        assert!(total.early_exits > 0 && total.size_skipped > 0 && total.groups_pruned > 0);
        assert!(
            range.iter().any(|r| !r.hits.is_empty()),
            "δ {delta} must hit"
        );
        let x1 = one_by_one(&sharded1, &db, &cand, Kind::Range(delta));
        let x4 = one_by_one(&sharded4, &db, &cand, Kind::Range(delta));
        assert_eq!(x1, range, "x1 range {delta}");
        assert_eq!(x4, range, "x4 range {delta}");
    }
}
