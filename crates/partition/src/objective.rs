//! Partitioning objectives (paper §4).

use les3_core::{Partitioning, Similarity};
use les3_data::{SetDatabase, SetId, TokenId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The general partitioning objective (Eq. 13): the sum over groups of all
/// intra-group pairwise distances `1 − Sim(Sx, Sy)`. Lower is better.
///
/// Exact computation is `O(Σ_g |G_g|²)`; use [`gpo_sampled`] at scale.
pub fn gpo<S: Similarity>(db: &SetDatabase, part: &Partitioning, sim: S) -> f64 {
    // Eq. 13 counts ordered pairs; each unordered pair twice. Doubling is
    // exact, so 2·Σ d is bit for bit Σ 2·d.
    let pairs = (0..part.n_groups() as u32).flat_map(|g| within_pairs(part.members(g)));
    2.0 * distance_sum(db, sim, pairs).0
}

/// Sampled GPO estimate: for each group, averages the pairwise distance
/// over `samples` random pairs and scales to the full pair count
/// (footnote 2 of the paper uses the same trick when running PAR-*).
pub fn gpo_sampled<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    sim: S,
    samples: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for g in 0..part.n_groups() as u32 {
        let members = part.members(g);
        let m = members.len();
        if m < 2 {
            continue;
        }
        let pairs = (m * (m - 1)) as f64; // ordered pairs
        let n_samples = samples.min(m * (m - 1) / 2).max(1);
        let sampled = (0..n_samples).map(|_| {
            let a = members[rng.gen_range(0..m)];
            let mut b = members[rng.gen_range(0..m)];
            while b == a {
                b = members[rng.gen_range(0..m)];
            }
            (a, b)
        });
        let (acc, _) = distance_sum(db, sim, sampled);
        total += acc / n_samples as f64 * pairs;
    }
    total
}

/// `U = Σ_g |∪_{S∈G_g} S|` — the summed group-signature sizes of
/// Theorem 4.3 (Eq. 10). Under the uniform assumption, minimizing `U`
/// with balanced groups maximizes pruning efficiency.
pub fn signature_cost(db: &SetDatabase, part: &Partitioning) -> usize {
    signatures(db, part).iter().map(HashSet::len).sum()
}

/// The `F` value of Eq. 8: `Σ_g |G_g| Σ_Q |GS_g ∩ Q| / |Q|`, estimated over
/// the given queries. Minimizing `F` maximizes expected pruning efficiency
/// (Eq. 5–8).
pub fn f_value(db: &SetDatabase, part: &Partitioning, queries: &[Vec<TokenId>]) -> f64 {
    let sigs = signatures(db, part);
    let mut total = 0.0;
    for (g, sig) in sigs.iter().enumerate() {
        let size = part.members(g as u32).len() as f64;
        let mut inner = 0.0;
        for q in queries {
            let overlap = q.iter().filter(|t| sig.contains(t)).count();
            inner += overlap as f64 / q.len().max(1) as f64;
        }
        total += size * inner;
    }
    total
}

/// Expected pruning efficiency (Eq. 5/6) over the given queries: the mean
/// over queries of `Σ_g |G_g| (1 − UB(Q, G_g)) / |D|`.
pub fn expected_pe<S: Similarity>(
    db: &SetDatabase,
    part: &Partitioning,
    sim: S,
    queries: &[Vec<TokenId>],
) -> f64 {
    if db.is_empty() || queries.is_empty() {
        return 1.0;
    }
    let sigs = signatures(db, part);
    let mut total = 0.0;
    for q in queries {
        let q_len = les3_core::sim::distinct_len(q);
        let mut kept = 0.0;
        for (g, sig) in sigs.iter().enumerate() {
            let r = q.iter().filter(|t| sig.contains(t)).count();
            let ub = sim.ub_from_overlap(q_len, r);
            kept += part.members(g as u32).len() as f64 * (1.0 - ub);
        }
        total += kept / db.len() as f64;
    }
    total / queries.len() as f64
}

/// Exhaustively enumerates all assignments of ≤ 12 sets into `n_groups`
/// and returns the minimum-GPO partitioning. Exponential — test-only
/// ground truth for the NP-hard objective (Thm 4.4).
pub fn optimal_bruteforce<S: Similarity>(
    db: &SetDatabase,
    n_groups: usize,
    sim: S,
) -> (Partitioning, f64) {
    let n = db.len();
    assert!(n <= 12, "brute force only for tiny instances");
    assert!(n_groups >= 1);
    let mut best: Option<(Vec<u32>, f64)> = None;
    let mut assignment = vec![0u32; n];
    loop {
        let part = Partitioning::from_assignment(assignment.clone(), n_groups);
        let cost = gpo(db, &part, sim);
        if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
            best = Some((assignment.clone(), cost));
        }
        // Next assignment in base-n_groups counting.
        let mut i = 0;
        loop {
            if i == n {
                let (a, c) = best.unwrap();
                return (Partitioning::from_assignment(a, n_groups), c);
            }
            assignment[i] += 1;
            if (assignment[i] as usize) < n_groups {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Each group's signature `GS_g`: the union of its members' tokens.
fn signatures(db: &SetDatabase, part: &Partitioning) -> Vec<HashSet<TokenId>> {
    (0..part.n_groups() as u32)
        .map(|g| {
            let members = part.members(g).iter();
            members.flat_map(|&id| db.set(id).iter().copied()).collect()
        })
        .collect()
}

/// `(Σ (1 − Sim(a, b)), pair count)` over `pairs`, in one running sum in
/// the given order (f64 addition is not associative, so the order is part
/// of the result). Every distance estimate of the partitioners and the
/// exact [`gpo`] go through here; each caller applies its own scaling.
pub(crate) fn distance_sum<S: Similarity>(
    db: &SetDatabase,
    sim: S,
    pairs: impl IntoIterator<Item = (SetId, SetId)>,
) -> (f64, usize) {
    pairs.into_iter().fold((0.0, 0), |(acc, count), (a, b)| {
        (acc + (1.0 - sim.eval(db.set(a), db.set(b))), count + 1)
    })
}

/// Every unordered pair of `sample`, as nested loops with `j > i`.
pub(crate) fn within_pairs(sample: &[SetId]) -> impl Iterator<Item = (SetId, SetId)> + '_ {
    let later = |(i, &a): (usize, &SetId)| sample[i + 1..].iter().map(move |&b| (a, b));
    sample.iter().enumerate().flat_map(later)
}

/// Samples up to `count` member ids of a group (partitioner helper).
pub(crate) fn sample_members(members: &[SetId], count: usize, rng: &mut StdRng) -> Vec<SetId> {
    if members.len() <= count {
        return members.to_vec();
    }
    let mut v = members.to_vec();
    v.shuffle(rng);
    v.truncate(count);
    v
}

/// The partitioning whose group `g` is `groups[g]` (the groups must cover
/// `0..n_sets` exactly once).
pub(crate) fn from_groups(n_sets: usize, groups: &[Vec<SetId>]) -> Partitioning {
    let mut assignment = vec![0u32; n_sets];
    for (g, members) in groups.iter().enumerate() {
        for &id in members {
            assignment[id as usize] = g as u32;
        }
    }
    Partitioning::from_assignment(assignment, groups.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use les3_core::sim::Jaccard;

    fn clustered_db() -> SetDatabase {
        // Two obvious clusters.
        SetDatabase::from_sets(vec![
            vec![0u32, 1, 2],
            vec![0, 1, 3],
            vec![1, 2, 3],
            vec![100, 101, 102],
            vec![100, 101, 103],
            vec![101, 102, 103],
        ])
    }

    #[test]
    fn gpo_prefers_cluster_aligned_partitioning() {
        let db = clustered_db();
        let aligned = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        let crossed = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1], 2);
        assert!(gpo(&db, &aligned, Jaccard) < gpo(&db, &crossed, Jaccard));
    }

    #[test]
    fn gpo_of_single_group_is_maximal() {
        // §4.2: placing all sets in one group gives the maximal GPO.
        let db = clustered_db();
        let single = Partitioning::single_group(db.len());
        let split = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        assert!(gpo(&db, &single, Jaccard) > gpo(&db, &split, Jaccard));
    }

    #[test]
    fn sampled_gpo_tracks_exact() {
        let db = clustered_db();
        let part = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        let exact = gpo(&db, &part, Jaccard);
        let approx = gpo_sampled(&db, &part, Jaccard, 200, 1);
        assert!(
            (exact - approx).abs() / exact.max(1e-9) < 0.3,
            "exact {exact} approx {approx}"
        );
    }

    #[test]
    fn signature_cost_minimized_by_coherent_groups() {
        let db = clustered_db();
        let aligned = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        let crossed = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1], 2);
        // Aligned: each group has 4 distinct tokens → U = 8.
        assert_eq!(signature_cost(&db, &aligned), 8);
        assert!(signature_cost(&db, &crossed) > 8);
    }

    #[test]
    fn expected_pe_higher_for_better_partitioning() {
        let db = clustered_db();
        let queries: Vec<Vec<u32>> = db.iter().map(|(_, s)| s.to_vec()).collect();
        let aligned = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        let crossed = Partitioning::from_assignment(vec![0, 1, 0, 1, 0, 1], 2);
        let pe_a = expected_pe(&db, &aligned, Jaccard, &queries);
        let pe_c = expected_pe(&db, &crossed, Jaccard, &queries);
        assert!(pe_a > pe_c, "aligned {pe_a} vs crossed {pe_c}");
        // F value moves the opposite way (Eq. 8: minimize F ⇔ maximize PE).
        assert!(f_value(&db, &aligned, &queries) < f_value(&db, &crossed, &queries));
    }

    #[test]
    fn bruteforce_optimum_is_cluster_aligned() {
        let db = clustered_db();
        let (opt, cost) = optimal_bruteforce(&db, 2, Jaccard);
        let aligned = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        assert!((cost - gpo(&db, &aligned, Jaccard)).abs() < 1e-9);
        // Group labels may swap; compare partitions as set families.
        let mut got: Vec<Vec<u32>> = (0..2u32).map(|g| opt.members(g).to_vec()).collect();
        got.sort();
        assert_eq!(got, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }
}
