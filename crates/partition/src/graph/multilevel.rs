//! Multilevel balanced graph partitioning.
//!
//! Replaces PaToH (reference \[9\] of the paper) with the same algorithm
//! family used by PaToH/METIS:
//!
//! 1. **Coarsening** — repeated heavy-edge matching (HEM): each vertex is
//!    matched to its unmatched neighbour with the heaviest edge, matched
//!    pairs are contracted, edge weights are summed;
//! 2. **Initial partitioning** — greedy: coarse vertices in
//!    decreasing-weight order go to the part with the highest edge
//!    affinity among those still under the balance cap;
//! 3. **Uncoarsening + refinement** — the partition is projected back and
//!    improved at every level with FM-style boundary moves (move a vertex
//!    to the neighbouring part with maximal positive gain, subject to the
//!    balance cap).
//!
//! The knobs are constants: the balance cap `BALANCE` = 1.2 (PAR-G's),
//! coarsening down to `COARSEN_UNTIL` = 8 vertices per part,
//! `REFINE_PASSES` = 4 FM passes per level and the RNG seed `SEED` = 0.
//! Every map the phases walk is ordered, so the graph alone fixes the
//! partition.

use super::knn_graph::SimilarityGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Allowed imbalance: max part weight ≤ `BALANCE × total / n_parts`.
const BALANCE: f64 = 1.2;
/// Stop coarsening below `COARSEN_UNTIL × n_parts` vertices.
const COARSEN_UNTIL: usize = 8;
/// FM refinement passes per level.
const REFINE_PASSES: usize = 4;
/// RNG seed.
const SEED: u64 = 0;

/// A coarsened graph with vertex weights.
struct Level {
    adj: Vec<Vec<(u32, f64)>>,
    weights: Vec<f64>,
    /// Mapping from the previous (finer) level's vertices to this level's.
    projection: Vec<u32>,
}

/// Partitions `graph` into `n_parts` balanced parts, returning one part id
/// per vertex.
pub fn partition_graph(graph: &SimilarityGraph, n_parts: usize) -> Vec<u32> {
    assert!(n_parts >= 1);
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    if n_parts == 1 {
        return vec![0; n];
    }
    let mut rng = StdRng::seed_from_u64(SEED);

    // --- Coarsening phase ---
    let mut levels: Vec<Level> = Vec::new();
    let mut cur_adj = graph.adj.clone();
    let mut cur_weights = vec![1.0f64; n];
    let target = (COARSEN_UNTIL * n_parts).max(32);
    while cur_adj.len() > target {
        let (projection, coarse_adj, coarse_weights) =
            heavy_edge_matching(&cur_adj, &cur_weights, &mut rng);
        if coarse_adj.len() as f64 > cur_adj.len() as f64 * 0.95 {
            break; // matching stalled (e.g. edgeless graph)
        }
        levels.push(Level {
            adj: cur_adj,
            weights: cur_weights,
            projection,
        });
        cur_adj = coarse_adj;
        cur_weights = coarse_weights;
    }

    // --- Initial partitioning on the coarsest graph ---
    let mut assignment = greedy_initial(&cur_adj, &cur_weights, n_parts, &mut rng);
    refine(&cur_adj, &cur_weights, &mut assignment, n_parts, &mut rng);

    // --- Uncoarsening + refinement ---
    while let Some(level) = levels.pop() {
        let mut fine_assignment = vec![0u32; level.adj.len()];
        for (v, &coarse) in level.projection.iter().enumerate() {
            fine_assignment[v] = assignment[coarse as usize];
        }
        assignment = fine_assignment;
        refine(
            &level.adj,
            &level.weights,
            &mut assignment,
            n_parts,
            &mut rng,
        );
    }
    assignment
}

/// One round of heavy-edge matching and contraction.
#[allow(clippy::type_complexity)]
fn heavy_edge_matching(
    adj: &[Vec<(u32, f64)>],
    weights: &[f64],
    rng: &mut StdRng,
) -> (Vec<u32>, Vec<Vec<(u32, f64)>>, Vec<f64>) {
    let n = adj.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut matched = vec![u32::MAX; n];
    let mut coarse_count = 0u32;
    for &v in &order {
        if matched[v] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbour.
        let partner = adj[v]
            .iter()
            .filter(|&&(u, _)| matched[u as usize] == u32::MAX && u as usize != v)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(u, _)| u);
        match partner {
            Some(u) => {
                matched[v] = coarse_count;
                matched[u as usize] = coarse_count;
            }
            None => matched[v] = coarse_count,
        }
        coarse_count += 1;
    }
    // Build coarse graph.
    let cn = coarse_count as usize;
    let mut coarse_weights = vec![0.0f64; cn];
    for v in 0..n {
        coarse_weights[matched[v] as usize] += weights[v];
    }
    let mut edge_map: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for v in 0..n {
        for &(u, w) in &adj[v] {
            let (a, b) = (matched[v], matched[u as usize]);
            if a == b {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            *edge_map.entry(key).or_insert(0.0) += w / 2.0; // each edge seen twice
        }
    }
    let mut coarse_adj = vec![Vec::new(); cn];
    for (&(a, b), &w) in &edge_map {
        coarse_adj[a as usize].push((b, w));
        coarse_adj[b as usize].push((a, w));
    }
    (matched, coarse_adj, coarse_weights)
}

/// Greedy affinity-based initial partitioning.
fn greedy_initial(
    adj: &[Vec<(u32, f64)>],
    weights: &[f64],
    n_parts: usize,
    rng: &mut StdRng,
) -> Vec<u32> {
    let n = adj.len();
    let total: f64 = weights.iter().sum();
    let cap = BALANCE * total / n_parts as f64;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
    let mut assignment = vec![u32::MAX; n];
    let mut part_weights = vec![0.0f64; n_parts];
    for &v in &order {
        // Affinity of v to each part.
        let mut affinity = vec![0.0f64; n_parts];
        for &(u, w) in &adj[v] {
            let p = assignment[u as usize];
            if p != u32::MAX {
                affinity[p as usize] += w;
            }
        }
        let mut best: Option<usize> = None;
        for p in 0..n_parts {
            if part_weights[p] + weights[v] > cap {
                continue;
            }
            match best {
                None => best = Some(p),
                Some(bp) => {
                    let better = affinity[p] > affinity[bp]
                        || (affinity[p] == affinity[bp] && part_weights[p] < part_weights[bp]);
                    if better {
                        best = Some(p);
                    }
                }
            }
        }
        // Everything over cap: fall back to the lightest part.
        let chosen = best.unwrap_or_else(|| {
            part_weights
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(p, _)| p)
                .unwrap()
        });
        assignment[v] = chosen as u32;
        part_weights[chosen] += weights[v];
    }
    assignment
}

/// FM-style refinement passes.
fn refine(
    adj: &[Vec<(u32, f64)>],
    weights: &[f64],
    assignment: &mut [u32],
    n_parts: usize,
    rng: &mut StdRng,
) {
    let n = adj.len();
    let total: f64 = weights.iter().sum();
    let cap = BALANCE * total / n_parts as f64;
    let mut part_weights = vec![0.0f64; n_parts];
    for v in 0..n {
        part_weights[assignment[v] as usize] += weights[v];
    }
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..REFINE_PASSES {
        order.shuffle(rng);
        let mut moves = 0usize;
        for &v in &order {
            let cur = assignment[v] as usize;
            // Edge weight to each adjacent part, by part id: of equal
            // gains the lowest part wins.
            let mut to_part: BTreeMap<u32, f64> = BTreeMap::new();
            for &(u, w) in &adj[v] {
                *to_part.entry(assignment[u as usize]).or_insert(0.0) += w;
            }
            let internal = to_part.get(&(cur as u32)).copied().unwrap_or(0.0);
            let mut best_gain = 0.0;
            let mut best_part = None;
            for (&p, &w) in &to_part {
                if p as usize == cur {
                    continue;
                }
                let gain = w - internal;
                if gain > best_gain && part_weights[p as usize] + weights[v] <= cap {
                    best_gain = gain;
                    best_part = Some(p);
                }
            }
            if let Some(p) = best_part {
                part_weights[cur] -= weights[v];
                part_weights[p as usize] += weights[v];
                assignment[v] = p;
                moves += 1;
            }
        }
        if moves == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cliques joined by a single light edge: the optimal bisection is
    /// obvious.
    fn two_cliques(k: usize) -> SimilarityGraph {
        let n = 2 * k;
        let mut adj = vec![Vec::new(); n];
        for c in 0..2 {
            for i in 0..k {
                for j in (i + 1)..k {
                    let (a, b) = (c * k + i, c * k + j);
                    adj[a].push((b as u32, 1.0));
                    adj[b].push((a as u32, 1.0));
                }
            }
        }
        adj[0].push((k as u32, 0.01));
        adj[k].push((0u32, 0.01));
        SimilarityGraph { adj }
    }

    #[test]
    fn bisects_two_cliques_perfectly() {
        let g = two_cliques(16);
        let assignment = partition_graph(&g, 2);
        assert!(
            g.cut_weight(&assignment) <= 0.011,
            "cut {}",
            g.cut_weight(&assignment)
        );
        // Balanced halves.
        let ones = assignment.iter().filter(|&&p| p == 1).count();
        assert_eq!(ones, 16);
    }

    #[test]
    fn respects_balance_cap() {
        let g = two_cliques(20);
        let assignment = partition_graph(&g, 4);
        let mut sizes = vec![0usize; 4];
        for &p in &assignment {
            sizes[p as usize] += 1;
        }
        let cap = (BALANCE * 40.0 / 4.0).ceil() as usize;
        assert!(
            sizes.iter().all(|&s| s <= cap + 1),
            "sizes {sizes:?} cap {cap}"
        );
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = SimilarityGraph {
            adj: vec![Vec::new(); 50],
        };
        let assignment = partition_graph(&g, 5);
        assert_eq!(assignment.len(), 50);
        let mut sizes = vec![0usize; 5];
        for &p in &assignment {
            sizes[p as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s >= 8), "roughly balanced: {sizes:?}");
    }

    #[test]
    fn single_part_is_trivial() {
        let g = two_cliques(4);
        assert_eq!(partition_graph(&g, 1), vec![0; 8]);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = two_cliques(12);
        assert_eq!(partition_graph(&g, 3), partition_graph(&g, 3));
    }
}
