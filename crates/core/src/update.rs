//! Dynamic updates (paper §6).
//!
//! LES3 is "the first to deal with dynamic tokens": new sets may arrive
//! after index construction, and may contain previously unseen tokens.
//!
//! * **Closed universe**: a new set `S` joins the group with the highest
//!   similarity upper bound to `S`; ties go to the smallest group (in line
//!   with the balance property of §4). The TGM rows are updated in place.
//! * **Open universe**: only the previously seen tokens `PS = S ∩ T`
//!   participate in group selection (if `PS = ∅`, the smallest group
//!   wins); new tokens get fresh TGM columns.

use les3_data::{SetId, TokenId};

use crate::shard::ShardedLes3Index;
use crate::sim::{distinct_len, Similarity};

impl<S: Similarity> ShardedLes3Index<S> {
    /// Inserts a new set, handling unseen tokens per §6. Returns the new
    /// set's id and the group it joined.
    pub fn insert(&mut self, tokens: &mut [TokenId]) -> (SetId, u32) {
        tokens.sort_unstable();
        let universe = self.db.universe_size();
        // PS = previously seen tokens (§6 step 1).
        let ps: Vec<TokenId> = tokens.iter().copied().filter(|&t| t < universe).collect();
        let size = |g: u32| self.partitioning.members(g).len();
        let g = if ps.is_empty() {
            smallest_group(self.partitioning.n_groups(), size)
        } else {
            let counts = self.tgm.group_overlaps(&ps);
            choose_group_from_counts(self.sim, distinct_len(&ps), &counts, size)
        };
        let id = self.db.push_sorted(tokens);
        let joined = self.partitioning.push(g);
        debug_assert_eq!(id, joined);
        for &t in tokens.iter() {
            self.tgm.set_bit(g, t);
        }
        self.verify.push(g, tokens, id);
        if let Some(mh) = &mut self.approx {
            debug_assert_eq!(mh.n_sets() as u32, id, "sidecar out of sync with db");
            mh.push(tokens);
        }
        (id, g)
    }
}

/// Group with the highest `UB(ps, G_g)` given pre-computed overlap
/// counts; ties (including the all-zero case) go to the smallest group,
/// then the smallest id — the §6 placement rule. `size(g)` is group
/// `g`'s member count.
pub(crate) fn choose_group_from_counts<S: Similarity>(
    sim: S,
    q_len: usize,
    counts: &[u32],
    size: impl Fn(u32) -> usize,
) -> u32 {
    let mut best_g = 0u32;
    let mut best_ub = f64::NEG_INFINITY;
    let mut best_size = usize::MAX;
    for (g, &r) in (0u32..).zip(counts) {
        let ub = sim.ub_from_overlap(q_len, r as usize);
        let size = size(g);
        if ub > best_ub || (ub == best_ub && size < best_size) {
            best_g = g;
            best_ub = ub;
            best_size = size;
        }
    }
    best_g
}

/// The smallest of `n_groups` groups by `size`, then the smallest id.
pub(crate) fn smallest_group(n_groups: usize, size: impl Fn(u32) -> usize) -> u32 {
    (0..n_groups as u32).min_by_key(|&g| size(g)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Les3Index;
    use crate::partitioning::Partitioning;
    use crate::sim::{Jaccard, OverlapCoefficient};
    use les3_data::SetDatabase;

    #[test]
    fn overlap_coefficient_ties_go_to_the_smallest_group_then_id() {
        // Every r ≥ 1 bounds 1.0: groups 0, 1, 3 and 4 tie, 0 and 4 are
        // the smallest of them, 0 has the smaller id. Group 2 is smaller
        // still but bounds 0.0.
        let (counts, sizes) = ([1, 3, 0, 2, 3], [2, 4, 1, 5, 2]);
        let size = |g: u32| sizes[g as usize];
        assert_eq!(
            choose_group_from_counts(OverlapCoefficient, 3, &counts, size),
            0
        );
        // Jaccard separates the same counts: r = 3 wins, then the size.
        assert_eq!(choose_group_from_counts(Jaccard, 3, &counts, size), 4);
        assert_eq!(smallest_group(counts.len(), size), 2);
    }

    fn two_region_index() -> Les3Index<Jaccard> {
        // Group 0 holds tokens 0..10, group 1 holds tokens 100..110.
        let db = SetDatabase::from_sets(vec![
            vec![0u32, 1, 2],
            vec![3, 4, 5],
            vec![100, 101, 102],
            vec![103, 104, 105],
        ]);
        Les3Index::build(
            db,
            Partitioning::from_assignment(vec![0, 0, 1, 1], 2),
            Jaccard,
        )
    }

    #[test]
    fn closed_universe_insert_joins_most_similar_group() {
        let mut index = two_region_index();
        let (id, g) = index.insert(&mut [1, 2, 3]);
        assert_eq!(g, 0, "tokens overlap group 0's signature");
        assert_eq!(index.db().set(id), &[1, 2, 3]);
        // The set is immediately findable.
        let res = index.knn(&[1, 2, 3], 1);
        assert_eq!(res.hits[0].0, id);
        assert_eq!(res.hits[0].1, 1.0);
    }

    #[test]
    fn ties_go_to_smallest_group() {
        // Make group 1 smaller, insert a set matching neither.
        let db = SetDatabase::from_sets(vec![vec![0u32], vec![1], vec![2]]);
        let mut index =
            Les3Index::build(db, Partitioning::from_assignment(vec![0, 0, 1], 2), Jaccard);
        let (_, g) = index.insert(&mut [50, 51]);
        assert_eq!(g, 1, "all-zero UBs tie; group 1 is smaller");
    }

    #[test]
    fn open_universe_insert_extends_token_table() {
        let mut index = two_region_index();
        let before_tokens = index.tgm().n_tokens();
        // 101 is known; 9999 is new.
        let (id, g) = index.insert(&mut [101, 9_999]);
        assert_eq!(g, 1, "group selection uses PS = {{101}} only");
        assert!(index.tgm().n_tokens() > before_tokens);
        assert!(index.tgm().bit(g, 9_999));
        // Searching with the new token finds the set.
        let res = index.range(&[101, 9_999], 0.9);
        assert_eq!(res.hits, vec![(id, 1.0)]);
    }

    #[test]
    fn all_new_tokens_insert_into_smallest_group() {
        let db = SetDatabase::from_sets(vec![vec![0u32], vec![1], vec![2]]);
        let mut index =
            Les3Index::build(db, Partitioning::from_assignment(vec![0, 0, 1], 2), Jaccard);
        let (_, g) = index.insert(&mut [7_000, 7_001]);
        assert_eq!(g, 1);
        // Query with a mix of old and new tokens still exact.
        let res = index.knn(&[7_000], 1);
        assert_eq!(res.hits.len(), 1);
        assert!(res.hits[0].1 > 0.0);
    }

    #[test]
    fn repeated_inserts_keep_search_exact() {
        let mut index = two_region_index();
        for i in 0..20u32 {
            index.insert(&mut [i % 7, i % 11 + 100, 200 + i]);
        }
        assert_eq!(index.db().len(), 24);
        // Brute-force check on a query.
        let q = vec![0u32, 100, 210];
        let res = index.knn(&q, 5);
        let mut brute: Vec<f64> = index
            .db()
            .iter()
            .map(|(_, s)| Jaccard.eval(&q, s))
            .collect();
        brute.sort_by(|a, b| b.total_cmp(a));
        let got: Vec<f64> = res.hits.iter().map(|h| h.1).collect();
        assert_eq!(got, brute[..5].to_vec());
    }
}
