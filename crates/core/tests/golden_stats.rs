//! Golden `SearchStats`: per-query work counters of a seeded Zipfian
//! fixture, recorded as literals and asserted for the flat, sharded ×4
//! and HTGM engines.
//!
//! The equivalence suites compare engines *within* one commit, so a
//! verify-kernel rewrite that shifted `early_exits`, `size_skipped` or
//! `candidates` identically everywhere would pass them all. These
//! literals pin the counters *across* commits: they were recorded from
//! the commit before the shared kNN window-verify routine landed
//! (456e852) and must only ever change together with a deliberate,
//! documented change of the work the engines do.
#![cfg(not(feature = "model"))]

mod common;

use les3_core::{
    FilterCandidates, HierarchicalPartitioning, Htgm, Jaccard, Les3Index, Partitioning, Query,
    SearchResult, SearchStats, ShardPolicy, ShardedLes3Index,
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

/// The same counters for the HTGM's best-first descent (unfiltered
/// queries only: the hierarchy has no filtered entry point).
const GOLDEN_HTGM: [[usize; 7]; N_UNFILTERED] = [
    [98, 98, 16, 14, 1, 58, 0],
    [2081, 2081, 79, 1, 63, 917, 891],
    [1912, 1912, 97, 5, 59, 938, 881],
    [1408, 1408, 57, 15, 49, 31, 953],
    [2333, 2333, 783, 0, 64, 2121, 667],
    [2508, 2508, 592, 0, 64, 2270, 492],
    [1072, 1072, 41, 31, 33, 14, 441],
    [1156, 1156, 38, 34, 30, 20, 334],
    [2662, 2662, 296, 0, 64, 2085, 338],
    [2187, 2187, 757, 0, 64, 1966, 813],
    [2625, 2625, 257, 6, 58, 2184, 74],
    [2220, 2220, 791, 0, 64, 2034, 780],
    [2764, 2764, 271, 0, 64, 2250, 236],
    [2706, 2706, 318, 0, 64, 2369, 294],
    [2536, 2536, 655, 0, 64, 2246, 464],
    [1385, 1385, 52, 34, 30, 200, 103],
    [2732, 2732, 548, 0, 64, 2381, 268],
    [716, 716, 24, 48, 16, 8, 31],
    [2731, 2731, 253, 1, 63, 2261, 241],
    [2189, 2189, 819, 0, 64, 1977, 811],
    [1646, 1646, 1225, 0, 64, 1499, 1354],
    [2776, 2776, 234, 2, 62, 1950, 154],
    [2768, 2768, 269, 2, 62, 2183, 168],
    [2687, 2687, 343, 0, 64, 2048, 313],
];

fn fixture() -> (SetDatabase, Partitioning, HierarchicalPartitioning) {
    let db = ZipfianGenerator::new(N_SETS, 1500, 9.0, 1.0).generate(0x1e53);
    // Grouped by rarest token (near-duplicates mostly share it), so
    // bounds separate and whole groups prune, while the mixed lengths
    // inside a group make length windows and early exits trigger; eight
    // fine groups per coarse group.
    let fine: Vec<u32> = db
        .iter()
        .map(|(_, set)| set[set.len() - 1] % N_GROUPS as u32)
        .collect();
    let coarse: Vec<u32> = fine.iter().map(|&g| g / 8).collect();
    let part = Partitioning::from_assignment(fine, N_GROUPS);
    let hp = HierarchicalPartitioning::new(vec![
        Partitioning::from_assignment(coarse, N_GROUPS / 8),
        part.clone(),
    ]);
    (db, part, hp)
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
    let (db, part, hp) = fixture();
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
    let htgm = Htgm::build(db.clone(), hp, Jaccard);

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
    let htgm_results: Vec<SearchResult> = (0..N_UNFILTERED)
        .map(|i| htgm.knn(&query(&db, i), K))
        .collect();

    // The fixture must exercise every counter the literals pin.
    let total = SearchStats::merged(flat_results.iter().map(|r| &r.stats));
    assert!(total.early_exits > 0 && total.size_skipped > 0 && total.groups_pruned > 0);

    assert_eq!(counters(&flat_results), GOLDEN_FLAT, "flat");
    assert_eq!(counters(&sharded_results), GOLDEN_FLAT, "sharded x4");
    assert_eq!(counters(&htgm_results), GOLDEN_HTGM, "htgm");
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

/// The HTGM's level-by-level range descent (unfiltered queries only).
const GOLDEN_HTGM_RANGE: [(f64, [[usize; 7]; N_UNFILTERED]); 2] = [
    (
        0.5,
        [
            [590, 590, 72, 0, 64, 0, 2410],
            [1199, 1199, 79, 1, 63, 893, 1773],
            [1130, 1130, 97, 5, 59, 836, 1663],
            [467, 467, 57, 15, 49, 0, 1894],
            [558, 558, 783, 24, 40, 556, 1381],
            [1243, 1243, 592, 4, 60, 1241, 1608],
            [291, 291, 41, 31, 33, 0, 1222],
            [313, 313, 38, 34, 30, 0, 1177],
            [1630, 1630, 296, 6, 58, 1625, 1126],
            [950, 950, 757, 1, 63, 949, 2002],
            [731, 731, 257, 36, 28, 729, 577],
            [46, 46, 791, 60, 4, 44, 166],
            [1755, 1755, 271, 1, 63, 1753, 1203],
            [1125, 1125, 318, 21, 43, 1124, 893],
            [1224, 1224, 655, 4, 60, 1223, 1617],
            [575, 575, 52, 34, 30, 419, 913],
            [800, 800, 548, 18, 46, 799, 1389],
            [131, 131, 24, 48, 16, 0, 616],
            [474, 474, 253, 47, 17, 473, 351],
            [435, 435, 819, 31, 33, 434, 1228],
            [184, 184, 1225, 40, 24, 183, 979],
            [1460, 1460, 234, 8, 56, 1458, 1241],
            [229, 229, 269, 55, 9, 228, 234],
            [1780, 1780, 343, 0, 64, 1778, 1220],
        ],
    ),
    (
        0.8,
        [
            [279, 279, 72, 0, 64, 0, 2721],
            [20, 20, 48, 32, 4, 20, 180],
            [111, 111, 97, 42, 22, 110, 957],
            [231, 231, 57, 15, 49, 0, 2130],
            [8, 8, 711, 56, 1, 7, 63],
            [58, 58, 592, 57, 7, 57, 306],
            [142, 142, 41, 31, 33, 0, 1371],
            [155, 155, 38, 34, 30, 0, 1335],
            [229, 229, 296, 44, 20, 229, 741],
            [82, 82, 757, 51, 13, 81, 630],
            [15, 15, 130, 28, 1, 15, 31],
            [3, 3, 426, 28, 1, 2, 52],
            [43, 43, 271, 59, 5, 43, 174],
            [22, 22, 190, 33, 3, 22, 139],
            [156, 156, 655, 43, 21, 155, 912],
            [26, 26, 52, 58, 6, 25, 266],
            [5, 5, 376, 42, 1, 4, 45],
            [54, 54, 24, 48, 16, 0, 693],
            [4, 4, 187, 42, 1, 4, 40],
            [2, 2, 483, 35, 1, 1, 45],
            [3, 3, 473, 21, 1, 2, 39],
            [227, 227, 234, 45, 19, 227, 732],
            [3, 3, 115, 21, 1, 2, 63],
            [413, 413, 343, 25, 39, 412, 1455],
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
    let (db, part, hp) = fixture();
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
    let htgm = Htgm::build(db.clone(), hp, Jaccard);
    let unfiltered: Vec<Vec<TokenId>> = (0..N_UNFILTERED).map(|i| query(&db, i)).collect();

    // kNN, one at a time: the existing table, now also for one shard.
    let knn = one_by_one(&flat, &db, &cand, Kind::Knn(K));
    assert_eq!(counters(&knn), GOLDEN_FLAT, "flat knn");
    assert_eq!(hit_digest(&knn), GOLDEN_HIT_DIGESTS[0], "flat knn hits");
    assert_eq!(one_by_one(&sharded1, &db, &cand, Kind::Knn(K)), knn, "x1");
    assert_eq!(one_by_one(&sharded4, &db, &cand, Kind::Knn(K)), knn, "x4");

    // kNN through the batch executors, two inter-query workers.
    let batch = &knn[..N_UNFILTERED];
    assert_eq!(flat.knn_batch_on(2, 1, &unfiltered, K), batch, "flat batch");
    assert_eq!(sharded1.knn_batch_on(2, &unfiltered, K), batch, "x1 batch");
    assert_eq!(sharded4.knn_batch_on(2, &unfiltered, K), batch, "x4 batch");

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

        let batch = &range[..N_UNFILTERED];
        let got = flat.range_batch_on(2, &unfiltered, delta);
        assert_eq!(got, batch, "flat range batch {delta}");
        let got = sharded1.range_batch_on(2, &unfiltered, delta);
        assert_eq!(got, batch, "x1 range batch {delta}");
        let got = sharded4.range_batch_on(2, &unfiltered, delta);
        assert_eq!(got, batch, "x4 range batch {delta}");

        let (htgm_delta, htgm_golden) = GOLDEN_HTGM_RANGE[i];
        assert_eq!(htgm_delta, delta);
        let got: Vec<SearchResult> = unfiltered.iter().map(|q| htgm.range(q, delta)).collect();
        assert_eq!(counters(&got), htgm_golden, "htgm range {delta}");
        for (h, f) in got.iter().zip(batch) {
            assert_eq!(h.hits, f.hits, "htgm range hits {delta}");
        }
    }
}
