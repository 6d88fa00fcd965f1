//! Pull-based best-first traversal.
//!
//! DualTrans kNN search needs to visit index entries in decreasing order of
//! a similarity *upper bound* and stop as soon as the bound drops below the
//! current k-th result — a classic best-first branch-and-bound. The scoring
//! functions are supplied by the caller (they encode the set-similarity
//! bound over the transformed vectors), so the traversal itself stays
//! generic.

use crate::node::Children;
use crate::tree::{RTree, TraversalStats};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An item produced by [`BestFirst`]: the caller's payload plus the score
/// its leaf entry received.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Leaf item payload.
    pub item: u32,
    /// Exact leaf score (for points, usually the true bound).
    pub score: f64,
}

enum Entry {
    Node(usize, f64),
    Item(u32, f64),
}

impl Entry {
    fn score(&self) -> f64 {
        match self {
            Entry::Node(_, s) | Entry::Item(_, s) => *s,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        // Total-order equality so PartialEq agrees with Ord (a plain
        // `==` would make NaN-scored entries unequal to themselves).
        self.score().total_cmp(&other.score()).is_eq()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by score under the IEEE total order: a positive-NaN
        // score sorts *greatest* and pops first. Score functions are
        // expected to return real numbers; the total order just keeps a
        // stray NaN from corrupting the heap invariants.
        self.score().total_cmp(&other.score())
    }
}

/// Best-first traversal yielding leaf items in non-increasing score order.
///
/// `score_node` must be an *upper bound*: no item below a node may score
/// higher than the node itself, otherwise ordering is not guaranteed
/// (the same admissibility requirement as A*).
pub struct BestFirst<'t, FN, FI>
where
    FN: FnMut(&crate::rect::Rect) -> f64,
    FI: FnMut(&[f64], u32) -> f64,
{
    tree: &'t RTree,
    heap: BinaryHeap<Entry>,
    score_node: FN,
    score_item: FI,
    stats: TraversalStats,
}

impl<'t, FN, FI> BestFirst<'t, FN, FI>
where
    FN: FnMut(&crate::rect::Rect) -> f64,
    FI: FnMut(&[f64], u32) -> f64,
{
    /// Starts a traversal with the given bound functions.
    pub fn new(tree: &'t RTree, mut score_node: FN, score_item: FI) -> Self {
        let mut heap = BinaryHeap::new();
        let mut stats = TraversalStats::default();
        if let Some(root) = tree.root() {
            stats.nodes_visited += 1;
            let s = score_node(&tree.node(root).rect);
            heap.push(Entry::Node(root, s));
        }
        Self {
            tree,
            heap,
            score_node,
            score_item,
            stats,
        }
    }

    /// Node-visit statistics accumulated so far.
    pub fn stats(&self) -> TraversalStats {
        self.stats
    }
}

impl<FN, FI> Iterator for BestFirst<'_, FN, FI>
where
    FN: FnMut(&crate::rect::Rect) -> f64,
    FI: FnMut(&[f64], u32) -> f64,
{
    type Item = Scored;

    fn next(&mut self) -> Option<Scored> {
        while let Some(entry) = self.heap.pop() {
            match entry {
                Entry::Item(item, score) => return Some(Scored { item, score }),
                Entry::Node(id, _) => match &self.tree.node(id).children {
                    Children::Internal(children) => {
                        for &c in children {
                            self.stats.nodes_visited += 1;
                            let s = (self.score_node)(&self.tree.node(c).rect);
                            self.heap.push(Entry::Node(c, s));
                        }
                    }
                    Children::Leaf(rows) => {
                        for &row in rows {
                            self.stats.entries_examined += 1;
                            let s = (self.score_item)(self.tree.point(row), self.tree.item(row));
                            self.heap.push(Entry::Item(self.tree.item(row), s));
                        }
                    }
                },
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTree;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, dim: usize, seed: u64) -> (RTree, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..100.0)).collect();
        let items: Vec<u32> = (0..n as u32).collect();
        (RTree::bulk_load(dim, 16, &points, &items), points)
    }

    #[test]
    fn knn_by_euclidean_matches_brute_force() {
        let dim = 2;
        let (tree, points) = build(600, dim, 7);
        let q = [42.0, 58.0];
        // Score = -distance² so "higher is better".
        let bf = BestFirst::new(
            &tree,
            |rect| -rect.min_dist2(&q),
            |p, _| {
                -p.iter()
                    .zip(&q)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            },
        );
        let got: Vec<u32> = bf.take(10).map(|s| s.item).collect();
        let mut expected: Vec<(f64, u32)> = (0..600u32)
            .map(|i| {
                let p = &points[i as usize * dim..(i as usize + 1) * dim];
                (
                    p.iter()
                        .zip(&q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>(),
                    i,
                )
            })
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expected: Vec<u32> = expected[..10].iter().map(|&(_, i)| i).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn scores_are_non_increasing() {
        let (tree, _) = build(300, 3, 8);
        let q = [10.0, 20.0, 30.0];
        let bf = BestFirst::new(
            &tree,
            |rect| -rect.min_dist2(&q),
            |p, _| {
                -p.iter()
                    .zip(&q)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            },
        );
        let scores: Vec<f64> = bf.map(|s| s.score).collect();
        assert_eq!(scores.len(), 300);
        assert!(
            scores.windows(2).all(|w| w[0] >= w[1]),
            "best-first order violated"
        );
    }

    #[test]
    fn early_termination_saves_node_visits() {
        let (tree, _) = build(5000, 2, 9);
        let q = [50.0, 50.0];
        let mut bf = BestFirst::new(
            &tree,
            |rect| -rect.min_dist2(&q),
            |p, _| {
                -p.iter()
                    .zip(&q)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            },
        );
        for _ in 0..5 {
            bf.next();
        }
        let early = bf.stats().nodes_visited;
        bf.by_ref().count();
        let full = bf.stats().nodes_visited;
        assert!(early < full / 2, "early {early} vs full {full}");
    }
}
