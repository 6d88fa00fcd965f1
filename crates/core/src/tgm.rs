//! The token-group matrix (paper §3.1).
//!
//! `M[g, t] = 1` iff some set in group `g` contains token `t` (Eq. 1).
//! We store the matrix token-major: one compressed bitmap per token holding
//! the groups that contain it. Computing the overlap `|GS_g ∩ Q|` for *all*
//! groups is then one counting pass over the query's token bitmaps —
//! `O(Σ_{t∈Q} |groups(t)|) ≤ O(n·|Q|)`, the paper's bound with better
//! constants on sparse data.
//!
//! [`Tgm::build`] walks the partitioning group by group, so each token
//! meets its groups in ascending order, and makes two passes: the first
//! counts each column's distinct groups (a token's last group seen tells
//! a repeat), the second writes them into one flat transient array of
//! all columns. Each column is then [`Bitmap::from_sorted`] over its
//! slice — a chunk table of exactly its chunks, each array container
//! exactly its values — and recompressed by `run_optimize`. Inserting
//! bit by bit instead gave every column a 4-slot chunk table and a
//! doubling array, and left the freed growth buffers resident: ≈ 16 MB
//! of heap for a 2.2 MB matrix of 20 000 long sets. Updates still set
//! and clear single bits.
//!
//! Phase A (`Tgm::overlaps_reaching`) counts only what can still
//! change which groups survive. A range at δ verifies exactly the groups
//! whose overlap reaches `o`, the least `r` with `UB(|Q|, r) ≥ δ`. A
//! group with `r_g ≥ o` misses at most `|Q| − o` of the query's distinct
//! tokens, so it holds one of *any* `|Q| − o + 1` of them (pigeonhole —
//! the prefix filter of exact set-similarity joins, applied to TGM
//! columns instead of postings lists). So the pass reads every query
//! column's length first — independent load chains, all in flight at
//! once — selects the `|Q| − o + 1` shortest, counts them over every
//! group, and takes the groups with a non-zero count as survivors. The
//! other columns are completed over the survivors only, each the cheaper
//! way: a membership probe per survivor, or the whole column counted.
//! Every other group has `r_g ≤ o − 1` and is pruned uncounted. `o = 0`
//! (a kNN, or a δ that even `r = 0` reaches) counts every column over
//! every group, and `o = 1` counts every column with nothing to
//! complete. On `lib_range`'s LIVEJ-shaped index (range(0.8), 256
//! groups) this reads ≈ 190 bits per query where counting every column
//! read ≈ 2 930 (CHANGES.md).

use les3_bitmap::Bitmap;
use les3_data::{SetDatabase, TokenId};

use crate::partitioning::Partitioning;
use crate::scratch::FilterScratch;

/// What one survivor probe ([`Bitmap::contains`]: a chunk search, then a
/// container search) costs, in bits of a counting pass: completion
/// probes a column's survivors while they cost less than counting it.
const PROBE_BITS: usize = 4;

/// The token-group matrix: a bitmap per token over group ids.
#[derive(Debug, Clone, Default)]
pub struct Tgm {
    n_groups: usize,
    /// `token_groups[t]` = groups containing token `t`.
    token_groups: Vec<Bitmap>,
}

impl Tgm {
    /// Builds the TGM for a partitioned database (module docs: two
    /// counting passes, then one exactly sized column per token).
    pub fn build(db: &SetDatabase, partitioning: &Partitioning) -> Self {
        assert_eq!(
            db.len(),
            partitioning.n_sets(),
            "partitioning must cover the database"
        );
        // Pass 1 counts each column; pass 2 fills the columns into one
        // flat array, `ends[t]` walking from column t's start to its end.
        let mut ends = vec![0usize; db.universe_size() as usize];
        for_each_bit(db, partitioning, |t, _| ends[t] += 1);
        let mut start = 0;
        for end in &mut ends {
            (*end, start) = (start, start + *end);
        }
        let mut groups = vec![0u32; start];
        for_each_bit(db, partitioning, |t, g| {
            groups[ends[t]] = g;
            ends[t] += 1;
        });
        let mut start = 0;
        let token_groups = ends
            .iter()
            .map(|&end| {
                let mut column = Bitmap::from_sorted(&groups[start..end]);
                column.run_optimize();
                start = end;
                column
            })
            .collect();
        Self {
            n_groups: partitioning.n_groups(),
            token_groups,
        }
    }

    /// Number of groups (matrix rows).
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Number of token columns currently allocated.
    pub fn n_tokens(&self) -> usize {
        self.token_groups.len()
    }

    /// Whether token `t` appears in group `g`.
    pub fn bit(&self, g: u32, t: TokenId) -> bool {
        self.token_groups
            .get(t as usize)
            .map(|bm| bm.contains(g))
            .unwrap_or(false)
    }

    /// Sets `M[g, t] = 1`, growing the token table if `t` is new
    /// (open-universe updates, §6).
    pub fn set_bit(&mut self, g: u32, t: TokenId) {
        debug_assert!((g as usize) < self.n_groups);
        if t as usize >= self.token_groups.len() {
            self.token_groups.resize(t as usize + 1, Bitmap::new());
        }
        self.token_groups[t as usize].insert(g);
    }

    /// Clears `M[g, t] = 0` (deletion support; the caller must guarantee
    /// no remaining member of `g` contains `t`, see
    /// [`crate::delete::DeletionLog`]).
    pub fn clear_bit(&mut self, g: u32, t: TokenId) {
        if let Some(bm) = self.token_groups.get_mut(t as usize) {
            bm.remove(g);
        }
    }

    /// Phase A of a query that only needs the groups sharing at least `o`
    /// of its tokens (module docs): exact overlap counts `r_g = |GS_g ∩
    /// Q|` in `kernel.counts` for every group with `r_g ≥ o` and, for `o
    /// ≥ 1`, those groups in `kernel.survivors`, ascending. `o = 0` counts
    /// every column and every group survives (`survivors` is left as it
    /// was); a group outside the survivors has a count of at most `o − 1`
    /// or none at all. `query` must be sorted; duplicate tokens count once,
    /// tokens without a column count zero. Returns the TGM bits visited:
    /// the prefix columns' lengths plus, per completed column, its length
    /// or the number of survivors probed.
    pub(crate) fn overlaps_reaching(
        &self,
        query: &[TokenId],
        o: usize,
        kernel: &mut FilterScratch,
    ) -> u64 {
        let FilterScratch {
            counts,
            columns,
            survivors,
            ..
        } = kernel;
        counts.clear();
        counts.resize(self.n_groups, 0);
        // Column-length pass: independent load chains, all in flight.
        columns.clear();
        let mut prev: Option<TokenId> = None;
        for &t in query {
            if prev != Some(t) {
                prev = Some(t);
                columns.push((self.column(t).map_or(0, Bitmap::len), t));
            }
        }
        // Pigeonhole: a group with `r_g ≥ o` misses at most `|Q| − o` of
        // the query's tokens, so it holds one of any `|Q| − o + 1`.
        let prefix = (columns.len() + 1).saturating_sub(o).min(columns.len());
        if prefix < columns.len() {
            columns.select_nth_unstable(prefix);
        }
        let (prefix, rest) = columns.split_at(prefix);
        let mut visited = 0;
        for &(_, t) in prefix {
            if let Some(column) = self.column(t) {
                visited += column.count_into(counts);
            }
        }
        if o == 0 {
            return visited;
        }
        survivors.clear();
        survivors.extend(
            (0u32..)
                .zip(counts.iter())
                .filter(|(_, &r)| r > 0)
                .map(|(g, _)| g),
        );
        for &(len, t) in rest {
            let Some(column) = self.column(t) else {
                continue;
            };
            if survivors.len() * PROBE_BITS < len {
                for &g in survivors.iter() {
                    counts[g as usize] += u32::from(column.contains(g));
                }
                visited += survivors.len() as u64;
            } else {
                visited += column.count_into(counts);
            }
        }
        survivors.retain(|&g| counts[g as usize] as usize >= o);
        visited
    }

    /// Per-group overlap counts `r_g = |GS_g ∩ Q|` for all groups: phase A
    /// with every group surviving (`Tgm::overlaps_reaching` at `o = 0`),
    /// into caller-provided storage (resized and zeroed here). `query`
    /// must be sorted; duplicate tokens count once. Returns the number of
    /// TGM bits visited — `Σ_{t∈Q} |groups(t)|`.
    pub fn group_overlaps_into(&self, query: &[TokenId], counts: &mut Vec<u32>) -> u64 {
        let mut kernel = FilterScratch {
            counts: std::mem::take(counts),
            ..FilterScratch::default()
        };
        let visited = self.overlaps_reaching(query, 0, &mut kernel);
        *counts = kernel.counts;
        visited
    }

    /// Token `t`'s column, if the matrix has one.
    fn column(&self, t: TokenId) -> Option<&Bitmap> {
        self.token_groups.get(t as usize)
    }

    /// Phase A as it was before it counted rarest-first, less the fetch
    /// pass that only moved its loads: every column counted over every
    /// group. The oracle of the rarest-first rule.
    #[cfg(test)]
    pub(crate) fn reference_overlaps_into(&self, query: &[TokenId], counts: &mut Vec<u32>) -> u64 {
        counts.clear();
        counts.resize(self.n_groups, 0);
        let mut touched = 0u64;
        let mut prev: Option<TokenId> = None;
        for &t in query {
            if prev == Some(t) {
                continue; // multiset duplicate
            }
            prev = Some(t);
            if let Some(bm) = self.token_groups.get(t as usize) {
                touched += bm.count_into(counts);
            }
            // Tokens outside T contribute 0 (paper §3.1: M[*, t'] = 0).
        }
        touched
    }

    /// Allocating convenience wrapper around
    /// [`Tgm::group_overlaps_into`].
    pub fn group_overlaps(&self, query: &[TokenId]) -> Vec<u32> {
        let mut counts = Vec::new();
        self.group_overlaps_into(query, &mut counts);
        counts
    }

    /// Serialized bytes of the compressed matrix — the "index size"
    /// reported in Figure 11: per non-empty token column an 8-byte header
    /// (token id + offset) plus the Roaring-serialized group bitmap.
    /// Columns for tokens that appear nowhere cost nothing, exactly as in
    /// a packed on-disk TGM.
    pub fn size_in_bytes(&self) -> usize {
        self.token_groups
            .iter()
            .filter(|bm| !bm.is_empty())
            .map(|bm| 8 + bm.serialized_size_in_bytes())
            .sum()
    }

    /// Number of set bits (for density diagnostics).
    pub fn ones(&self) -> usize {
        self.token_groups.iter().map(Bitmap::len).sum()
    }
}

/// Calls `bit(t, g)` once per set bit `M[g, t]`, each token's groups in
/// ascending order. Groups are visited in order, so token `t` has met
/// group `g` iff the last group it met is `g`.
fn for_each_bit(db: &SetDatabase, partitioning: &Partitioning, mut bit: impl FnMut(usize, u32)) {
    let mut last = vec![u32::MAX; db.universe_size() as usize];
    for g in 0..partitioning.n_groups() as u32 {
        for &id in partitioning.members(g) {
            for &t in db.set(id) {
                if std::mem::replace(&mut last[t as usize], g) != g {
                    bit(t as usize, g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The example of Figure 1: T = {A,B,C,D} (0..4), six sets in two
    /// groups.
    fn figure1() -> (SetDatabase, Partitioning) {
        const A: u32 = 0;
        const B: u32 = 1;
        const C: u32 = 2;
        const D: u32 = 3;
        let db = SetDatabase::from_sets(vec![
            vec![A, B],    // G0
            vec![A, B, C], // G0
            vec![B, C],    // G0
            vec![C, D],    // G1
            vec![D],       // G1
            vec![C],       // G1
        ]);
        let part = Partitioning::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        (db, part)
    }

    #[test]
    fn figure1_matrix_bits() {
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        // G0 contains A,B,C; G1 contains C,D.
        assert!(tgm.bit(0, 0) && tgm.bit(0, 1) && tgm.bit(0, 2) && !tgm.bit(0, 3));
        assert!(!tgm.bit(1, 0) && !tgm.bit(1, 1) && tgm.bit(1, 2) && tgm.bit(1, 3));
    }

    #[test]
    fn figure1_upper_bounds() {
        // Query {A}: UB(G0) = 1, UB(G1) = 0 (paper §3.1 example).
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        let counts = tgm.group_overlaps(&[0]);
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn overlaps_ignore_duplicates_and_unknown_tokens() {
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        // Query {C, C, D, 99}: C and D hit; 99 ∉ T contributes zero.
        let counts = tgm.group_overlaps(&[2, 2, 3, 99]);
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn set_bit_grows_universe() {
        let (db, part) = figure1();
        let mut tgm = Tgm::build(&db, &part);
        assert_eq!(tgm.n_tokens(), 4);
        tgm.set_bit(1, 10);
        assert_eq!(tgm.n_tokens(), 11);
        assert!(tgm.bit(1, 10));
        assert_eq!(tgm.group_overlaps(&[10]), vec![0, 1]);
    }

    /// The column-length pass only reads ahead: for duplicate tokens,
    /// tokens at or past `n_tokens()`, columns that deletes emptied and
    /// the empty query, the counts are the per-group bit sums over the
    /// distinct tokens, and the bits visited — a kNN's `columns_checked`
    /// — are the summed lengths of their columns. A range at δ = 0.5
    /// visits `range_bits`: its rarest `|Q| − o + 1` columns, then the
    /// rest over the groups those reach — nothing more when the rarest
    /// columns are past the universe or emptied.
    #[test]
    fn phase_a_edge_queries_visit_each_column_once() {
        use crate::sim::Jaccard;
        use crate::{DeletionLog, Les3Index};
        // 40 sets in 8 groups: token 8 is in every group (a run column),
        // tokens 10 and 11 only in sets 38 and 39.
        let sets = (0..40u32).map(|i| {
            let mut s = vec![i % 5, 5 + i % 3, 8];
            s.extend(
                [(i == 38).then_some(10), (i == 39).then_some(11)]
                    .into_iter()
                    .flatten(),
            );
            s
        });
        let db = SetDatabase::from_sets(sets.collect::<Vec<_>>());
        let part = Partitioning::from_assignment((0..40).map(|i| i % 8).collect(), 8);
        let mut index = Les3Index::build(db, part, Jaccard);
        let check = |index: &Les3Index<Jaccard>, query: &[TokenId], range_bits: usize| {
            let tgm = index.tgm();
            let mut distinct = query.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let column = |t| (0..8).filter(|&g| tgm.bit(g, t)).count();
            let cols: usize = distinct.iter().map(|&t| column(t)).sum();
            let expected: Vec<u32> = (0..8)
                .map(|g| distinct.iter().filter(|&&t| tgm.bit(g, t)).count() as u32)
                .collect();
            let mut sorted = query.to_vec();
            sorted.sort_unstable();
            let mut counts = vec![7; 3]; // stale contents are cleared
            assert_eq!(
                tgm.group_overlaps_into(&sorted, &mut counts),
                cols as u64,
                "{query:?}"
            );
            assert_eq!(counts, expected, "{query:?}");
            assert_eq!(index.knn(query, 3).stats.columns_checked, cols, "{query:?}");
            assert_eq!(
                index.range(query, 0.5).stats.columns_checked,
                range_bits,
                "{query:?}"
            );
            cols
        };
        assert_eq!(check(&index, &[], 0), 0);
        assert_eq!(check(&index, &[8, 8, 8], 8), 8);
        assert_eq!(check(&index, &[2, 8, 2, 8, 0], 3 * 8), 3 * 8);
        let n = index.tgm().n_tokens() as TokenId;
        assert_eq!(n, 12);
        assert_eq!(check(&index, &[u32::MAX, n, 8, n + 500, 11], 0), 8 + 1);
        let mut log = DeletionLog::build(&index);
        assert!(log.delete(&mut index, 38) && log.delete(&mut index, 39));
        assert_eq!(
            index.tgm().n_tokens(),
            12,
            "an emptied column stays allocated"
        );
        assert_eq!(check(&index, &[10, 11], 0), 0);
        assert_eq!(check(&index, &[11, 10, 11, 8, n], 0), 8);
    }

    /// The matrix as it was built before the counting passes: every bit
    /// inserted one by one in set order, then recompressed.
    fn insert_built(db: &SetDatabase, part: &Partitioning) -> Tgm {
        let mut tgm = Tgm {
            n_groups: part.n_groups(),
            token_groups: vec![Bitmap::new(); db.universe_size() as usize],
        };
        for (id, set) in db.iter() {
            for &t in set {
                tgm.set_bit(part.group_of(id), t);
            }
        }
        tgm.token_groups.iter_mut().for_each(Bitmap::run_optimize);
        tgm
    }

    /// `Tgm::build` against the insert-built matrix: the same columns,
    /// every bit (and none past the universe), `ones`, the size model and
    /// the overlap counts and bits visited of each query.
    fn check_build_equals_insert_built(
        db: &SetDatabase,
        part: &Partitioning,
        queries: &[Vec<TokenId>],
    ) {
        let (built, want) = (Tgm::build(db, part), insert_built(db, part));
        assert_eq!(built.token_groups, want.token_groups);
        assert_eq!(built.n_groups(), want.n_groups());
        for t in 0..db.universe_size() + 2 {
            for g in 0..part.n_groups() as u32 {
                assert_eq!(built.bit(g, t), want.bit(g, t), "M[{g}, {t}]");
            }
        }
        assert_eq!(built.ones(), want.ones());
        assert_eq!(built.size_in_bytes(), want.size_in_bytes());
        for q in queries {
            let mut q = q.clone();
            q.sort_unstable();
            let (mut got, mut counts) = (Vec::new(), Vec::new());
            assert_eq!(
                built.group_overlaps_into(&q, &mut got),
                want.group_overlaps_into(&q, &mut counts),
                "{q:?}"
            );
            assert_eq!(got, counts, "{q:?}");
        }
    }

    proptest! {
        /// Multiset sets, groups left empty, tokens in no set (below the
        /// universe and past the last set's tokens), queries with
        /// duplicates and unseen tokens.
        #[test]
        fn build_equals_the_insert_built_matrix(
            sets in prop::collection::vec(prop::collection::vec(0u32..48, 0..9), 0..40),
            n_groups in 1usize..12,
            picks in prop::collection::vec(0usize..1000, 40),
            spare in 0u32..4,
            queries in prop::collection::vec(prop::collection::vec(0u32..56, 0..8), 1..5),
        ) {
            let max = sets.iter().flatten().max().map_or(0, |&t| t + 1);
            let mut db = SetDatabase::new(max + spare);
            for set in &sets {
                let mut set = set.clone();
                set.sort_unstable();
                db.push_sorted(&set);
            }
            let assignment = picks[..sets.len()].iter().map(|&p| (p % n_groups) as u32).collect();
            let part = Partitioning::from_assignment(assignment, n_groups);
            check_build_equals_insert_built(&db, &part, &queries);
        }
    }

    /// Columns past one chunk: 70 000 groups, most of them empty, and
    /// every token in groups on both sides of 65 536.
    #[test]
    fn build_equals_the_insert_built_matrix_across_chunks() {
        let db = SetDatabase::from_sets((0..300u32).map(|i| [i % 5, 5 + i % 3, i % 5]));
        let groups = 70_000;
        let part = Partitioning::from_assignment(
            (0..300).map(|i| i * 233 % groups).collect(),
            groups as usize,
        );
        let tgm = Tgm::build(&db, &part);
        assert!(tgm.bit(233 * 290 % groups, 0) && 233 * 290 % groups >= 1 << 16);
        check_build_equals_insert_built(&db, &part, &[vec![0, 0, 6], vec![1, 4, 7, 9]]);
    }

    /// A column of 5 000 groups in one chunk, every other group: a bits
    /// container before and after `run_optimize`.
    #[test]
    fn build_equals_the_insert_built_matrix_past_the_array_threshold() {
        let db = SetDatabase::from_sets((0..5_000u32).map(|i| [0, 1 + i % 7]));
        let part = Partitioning::from_assignment((0..5_000).map(|i| 2 * i).collect(), 10_000);
        assert_eq!(Tgm::build(&db, &part).ones(), 5_000 + 5_000);
        check_build_equals_insert_built(&db, &part, &[vec![0], vec![0, 3, 3, 8]]);
    }

    #[test]
    fn size_accounting_is_positive_and_small() {
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        assert!(tgm.size_in_bytes() > 0);
        assert_eq!(tgm.ones(), 5); // A,B,C in G0; C,D in G1
    }
}
