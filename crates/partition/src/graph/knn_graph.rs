//! Similarity graph construction.
//!
//! Exact kNN over sets is computed with an inverted-index counting pass
//! (the paper accelerates this step "by LES3" itself; a token-posting
//! count achieves the same asymptotics without the circular dependency):
//! for each set, walk the posting lists of its tokens, count overlaps with
//! every co-occurring set, and keep the k most similar.

use les3_core::Similarity;
use les3_data::{SetDatabase, SetId};

/// An undirected weighted graph over the database's sets.
#[derive(Debug, Clone)]
pub struct SimilarityGraph {
    /// Adjacency lists: `adj[v]` = `(neighbour, weight)`, deduplicated.
    pub adj: Vec<Vec<(u32, f64)>>,
}

impl SimilarityGraph {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total weight of edges crossing parts under `assignment` — the
    /// quantity PAR-G minimizes.
    pub fn cut_weight(&self, assignment: &[u32]) -> f64 {
        let mut cut = 0.0;
        for (v, edges) in self.adj.iter().enumerate() {
            for &(u, w) in edges {
                if assignment[v] != assignment[u as usize] {
                    cut += w;
                }
            }
        }
        cut / 2.0
    }

    /// Estimated heap bytes (Figure 9 reports partitioning space cost; the
    /// kNN graph is PAR-G's dominant memory consumer).
    pub fn size_in_bytes(&self) -> usize {
        self.adj
            .iter()
            .map(|edges| edges.len() * std::mem::size_of::<(u32, f64)>())
            .sum::<usize>()
            + self.adj.len() * std::mem::size_of::<Vec<(u32, f64)>>()
    }

    fn from_directed(n: usize, directed: Vec<Vec<(u32, f64)>>) -> Self {
        // Symmetrize and deduplicate. The map is ordered so every run
        // builds the same adjacency order, which the cut's ties follow.
        let mut pair_set = std::collections::BTreeMap::new();
        for (v, edges) in directed.iter().enumerate() {
            for &(u, w) in edges {
                if v as u32 == u {
                    continue;
                }
                let key = if (v as u32) < u {
                    (v as u32, u)
                } else {
                    (u, v as u32)
                };
                let entry = pair_set.entry(key).or_insert(w);
                if w > *entry {
                    *entry = w;
                }
            }
        }
        let mut adj = vec![Vec::new(); n];
        for (&(a, b), &w) in &pair_set {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        Self { adj }
    }
}

/// Per-set exact kNN edges (weight = similarity).
pub fn knn_graph<S: Similarity>(db: &SetDatabase, k: usize, sim: S) -> SimilarityGraph {
    let postings = build_postings(db);
    let n = db.len();
    let mut directed: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut counts = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    for (id, set) in db.iter() {
        overlap_counts(set, &postings, id, &mut counts, &mut touched);
        // Similarity of id to each co-occurring set.
        let mut cands: Vec<(f64, u32)> = touched
            .iter()
            .map(|&other| {
                let o = counts[other as usize] as usize;
                let s = sim.from_overlap(
                    o,
                    les3_core::sim::distinct_len(set),
                    les3_core::sim::distinct_len(db.set(other)),
                );
                (s, other)
            })
            .collect();
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        directed[id as usize] = cands.iter().take(k).map(|&(s, other)| (other, s)).collect();
        for &t in &touched {
            counts[t as usize] = 0;
        }
        touched.clear();
    }
    SimilarityGraph::from_directed(n, directed)
}

/// Edges between every pair with `Sim ≥ delta`.
pub fn range_graph<S: Similarity>(db: &SetDatabase, delta: f64, sim: S) -> SimilarityGraph {
    let postings = build_postings(db);
    let n = db.len();
    let mut directed: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut counts = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    for (id, set) in db.iter() {
        overlap_counts(set, &postings, id, &mut counts, &mut touched);
        for &other in &touched {
            if other <= id {
                continue; // each pair once; symmetrized later
            }
            let o = counts[other as usize] as usize;
            let s = sim.from_overlap(
                o,
                les3_core::sim::distinct_len(set),
                les3_core::sim::distinct_len(db.set(other)),
            );
            if s >= delta {
                directed[id as usize].push((other, s));
            }
        }
        for &t in &touched {
            counts[t as usize] = 0;
        }
        touched.clear();
    }
    SimilarityGraph::from_directed(n, directed)
}

fn build_postings(db: &SetDatabase) -> Vec<Vec<SetId>> {
    let mut postings = vec![Vec::new(); db.universe_size() as usize];
    for (id, set) in db.iter() {
        let mut prev = None;
        for &t in set {
            if prev == Some(t) {
                continue;
            }
            prev = Some(t);
            postings[t as usize].push(id);
        }
    }
    postings
}

fn overlap_counts(
    set: &[u32],
    postings: &[Vec<SetId>],
    self_id: SetId,
    counts: &mut [u32],
    touched: &mut Vec<u32>,
) {
    let mut prev = None;
    for &t in set {
        if prev == Some(t) {
            continue;
        }
        prev = Some(t);
        for &other in &postings[t as usize] {
            if other == self_id {
                continue;
            }
            if counts[other as usize] == 0 {
                touched.push(other);
            }
            counts[other as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use les3_core::sim::Jaccard;

    fn db() -> SetDatabase {
        SetDatabase::from_sets(vec![
            vec![0u32, 1, 2],
            vec![0, 1, 3],
            vec![0, 1, 2],
            vec![50, 51, 52],
            vec![50, 51, 53],
        ])
    }

    #[test]
    fn knn_graph_links_nearest_neighbours() {
        let g = knn_graph(&db(), 2, Jaccard);
        assert_eq!(g.len(), 5);
        // Set 0 and 2 are identical: must be adjacent with weight 1.
        let w02 = g.adj[0].iter().find(|&&(u, _)| u == 2).map(|&(_, w)| w);
        assert_eq!(w02, Some(1.0));
        // No edge between the two token regions.
        assert!(g.adj[0].iter().all(|&(u, _)| u < 3));
        assert!(g.adj[3].iter().all(|&(u, _)| u >= 3));
    }

    #[test]
    fn knn_graph_matches_bruteforce_neighbours() {
        let database = les3_data::zipfian::ZipfianGenerator::new(80, 60, 5.0, 1.0).generate(3);
        let k = 3;
        let g = knn_graph(&database, k, Jaccard);
        for v in 0..database.len() as u32 {
            // Directed edges became undirected; check that v's true nearest
            // neighbour (if sim > 0) is adjacent.
            let mut best: Option<(f64, u32)> = None;
            for u in 0..database.len() as u32 {
                if u == v {
                    continue;
                }
                let s = Jaccard.eval(database.set(v), database.set(u));
                if best.map(|(bs, _)| s > bs).unwrap_or(true) {
                    best = Some((s, u));
                }
            }
            if let Some((s, _)) = best {
                if s > 0.0 {
                    let adj_best = g.adj[v as usize]
                        .iter()
                        .map(|&(_, w)| w)
                        .fold(0.0f64, f64::max);
                    assert!(
                        adj_best >= s - 1e-12,
                        "vertex {v}: best neighbour sim {s}, best edge {adj_best}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_graph_thresholds_edges() {
        let g = range_graph(&db(), 0.45, Jaccard);
        // J(0,1) = 2/4 = 0.5 ≥ 0.45 → edge; J(0,3) = 0 → none.
        assert!(g.adj[0].iter().any(|&(u, _)| u == 1));
        assert!(g.adj[0].iter().all(|&(u, _)| u != 3));
        let strict = range_graph(&db(), 0.99, Jaccard);
        // Only the identical pair (0,2) survives.
        assert_eq!(strict.edge_count(), 1);
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let g = range_graph(&db(), 0.4, Jaccard);
        let aligned = vec![0u32, 0, 0, 1, 1];
        let crossed = vec![0u32, 1, 0, 1, 0];
        assert_eq!(g.cut_weight(&aligned), 0.0);
        assert!(g.cut_weight(&crossed) > 0.0);
    }
}
