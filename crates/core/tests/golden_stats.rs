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
