//! The token-group matrix (paper §3.1).
//!
//! `M[g, t] = 1` iff some set in group `g` contains token `t` (Eq. 1).
//! We store the matrix token-major: one column per token, the groups that
//! contain it as a sorted list of `(group, refs)` entries, where `refs`
//! is the number of live member sets of that group containing the token.
//! Computing the overlap `|GS_g ∩ Q|` for *all* groups is then one
//! counting pass over the query's columns — `O(Σ_{t∈Q} |groups(t)|) ≤
//! O(n·|Q|)`, the paper's bound with better constants on sparse data.
//!
//! The refs make §6 updates local: an insert adds one reference per
//! distinct token of the new set, a delete ([`crate::DeletionLog`])
//! removes them, and an entry goes when its last reference does — bit
//! `M[g, t]` is cleared exactly when no live member of `g` holds `t`.
//!
//! [`Tgm::build`] walks the partitioning group by group, so each token
//! meets its groups in ascending order, and makes two passes: the first
//! counts each column's distinct groups (a token's last group seen tells
//! a repeat), the second fills exactly sized columns, a member whose
//! group is already the column's last entry adding a reference to it.
//!
//! [`Tgm::size_in_bytes`] is the "index size" of the paper's Figure 11,
//! which compresses the matrix with Roaring (its ref. \[41\]). It stays
//! Roaring's serialized size, computed from the column: per 2^16-group
//! chunk a 4-byte header plus the smallest of a sorted array (2 bytes a
//! group), a run list (4 bytes a run) and a bitset (8 KiB). It is a size
//! model: it leaves out the in-memory heap (8 bytes an entry, a `Vec`
//! header a token) and the refs.
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
//! way: a binary-search probe per survivor, or the whole column counted.
//! Every other group has `r_g ≤ o − 1` and is pruned uncounted. `o = 0`
//! (a kNN, or a δ that even `r = 0` reaches) counts every column over
//! every group, and `o = 1` counts every column with nothing to
//! complete. On `lib_range`'s LIVEJ-shaped index (range(0.8), 256
//! groups) this reads ≈ 190 bits per query where counting every column
//! read ≈ 2 930 (CHANGES.md).

use les3_data::{SetDatabase, TokenId};

use crate::partitioning::Partitioning;
use crate::scratch::FilterScratch;
use crate::sim::distinct;

/// What one survivor probe (a binary search of the column) costs, in
/// entries of a counting pass: completion probes a column's survivors
/// while they cost less than counting it.
const PROBE_BITS: usize = 4;

/// One column: `(group, refs)` entries, ascending by group, every `refs`
/// at least 1.
type Column = Vec<(u32, u32)>;

/// The token-group matrix: a sorted `(group, refs)` column per token.
#[derive(Debug, Clone, Default)]
pub struct Tgm {
    n_groups: usize,
    /// `columns[t]` = the groups containing token `t`, with their refs.
    columns: Vec<Column>,
}

impl Tgm {
    /// Builds the TGM for a partitioned database (module docs: two
    /// passes, one exactly sized column per token).
    pub fn build(db: &SetDatabase, partitioning: &Partitioning) -> Self {
        assert_eq!(
            db.len(),
            partitioning.n_sets(),
            "partitioning must cover the database"
        );
        let universe = db.universe_size() as usize;
        // Groups are visited in order, so token `t` has met group `g` iff
        // the last group it met is `g`.
        let (mut lens, mut last) = (vec![0usize; universe], vec![u32::MAX; universe]);
        for_each_member(db, partitioning, |g, t| {
            lens[t as usize] += usize::from(std::mem::replace(&mut last[t as usize], g) != g);
        });
        let mut columns: Vec<Column> = lens.into_iter().map(Vec::with_capacity).collect();
        for_each_member(db, partitioning, |g, t| {
            let column = &mut columns[t as usize];
            match column.last_mut() {
                Some((last, refs)) if *last == g => *refs += 1,
                _ => column.push((g, 1)),
            }
        });
        Self {
            n_groups: partitioning.n_groups(),
            columns,
        }
    }

    /// Number of groups (matrix rows).
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Number of token columns currently allocated.
    pub fn n_tokens(&self) -> usize {
        self.columns.len()
    }

    /// Whether token `t` appears in group `g`.
    pub fn bit(&self, g: u32, t: TokenId) -> bool {
        find(self.column(t), g).is_ok()
    }

    /// Adds a reference per distinct token of `set`, a new member of
    /// group `g`, growing the token table for unseen tokens
    /// (open-universe updates, §6). `set` must be sorted.
    pub(crate) fn add_member(&mut self, g: u32, set: &[TokenId]) {
        debug_assert!((g as usize) < self.n_groups);
        if let Some(&max) = set.last() {
            if max as usize >= self.columns.len() {
                self.columns.resize_with(max as usize + 1, Vec::new);
            }
        }
        for t in distinct(set) {
            let column = &mut self.columns[t as usize];
            match find(column, g) {
                Ok(i) => column[i].1 += 1,
                Err(i) => column.insert(i, (g, 1)),
            }
        }
    }

    /// Removes the references [`Tgm::add_member`] (or the build) added for
    /// `set`, a live member of group `g`; an entry whose last reference
    /// goes leaves its column. `set` must be sorted.
    pub(crate) fn remove_member(&mut self, g: u32, set: &[TokenId]) {
        for t in distinct(set) {
            let column = &mut self.columns[t as usize];
            let i = find(column, g).expect("a live member's tokens have entries");
            column[i].1 -= 1;
            if column[i].1 == 0 {
                column.remove(i);
            }
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
        columns.extend(distinct(query).map(|t| (self.column(t).len(), t)));
        // Pigeonhole: a group with `r_g ≥ o` misses at most `|Q| − o` of
        // the query's tokens, so it holds one of any `|Q| − o + 1`.
        let prefix = (columns.len() + 1).saturating_sub(o).min(columns.len());
        if prefix < columns.len() {
            columns.select_nth_unstable(prefix);
        }
        let (prefix, rest) = columns.split_at(prefix);
        let mut visited = 0;
        for &(_, t) in prefix {
            visited += count_into(self.column(t), counts);
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
            let column = self.column(t);
            if survivors.len() * PROBE_BITS < len {
                for &g in survivors.iter() {
                    counts[g as usize] += u32::from(find(column, g).is_ok());
                }
                visited += survivors.len() as u64;
            } else {
                visited += count_into(column, counts);
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

    /// Token `t`'s column (empty past the token table).
    fn column(&self, t: TokenId) -> &[(u32, u32)] {
        self.columns.get(t as usize).map_or(&[], Vec::as_slice)
    }

    /// Phase A as it was before it counted rarest-first, less the fetch
    /// pass that only moved its loads: every column counted over every
    /// group. The oracle of the rarest-first rule.
    #[cfg(test)]
    pub(crate) fn reference_overlaps_into(&self, query: &[TokenId], counts: &mut Vec<u32>) -> u64 {
        counts.clear();
        counts.resize(self.n_groups, 0);
        // Tokens outside T contribute 0 (paper §3.1: M[*, t'] = 0).
        distinct(query)
            .map(|t| count_into(self.column(t), counts))
            .sum()
    }

    /// Allocating convenience wrapper around
    /// [`Tgm::group_overlaps_into`].
    pub fn group_overlaps(&self, query: &[TokenId]) -> Vec<u32> {
        let mut counts = Vec::new();
        self.group_overlaps_into(query, &mut counts);
        counts
    }

    /// Serialized bytes of the Roaring-compressed matrix — the "index
    /// size" reported in Figure 11 (module docs): per non-empty column an
    /// 8-byte header (token id + offset), plus per 2^16-group chunk a
    /// 4-byte header and the smallest container payload. Columns for
    /// tokens that appear nowhere cost nothing, exactly as in a packed
    /// on-disk TGM.
    pub fn size_in_bytes(&self) -> usize {
        let chunk_bytes = |chunk: &[(u32, u32)]| {
            let runs = 1 + chunk.windows(2).filter(|w| w[1].0 != w[0].0 + 1).count();
            4 + (2 * chunk.len()).min(4 * runs).min(8192)
        };
        self.columns
            .iter()
            .filter(|column| !column.is_empty())
            .map(|column| {
                let chunks = column.chunk_by(|a, b| a.0 >> 16 == b.0 >> 16);
                8 + chunks.map(chunk_bytes).sum::<usize>()
            })
            .sum()
    }

    /// Number of set bits (for density diagnostics).
    pub fn ones(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }
}

/// Where group `g` is in `column`, or where it would go.
fn find(column: &[(u32, u32)], g: u32) -> Result<usize, usize> {
    column.binary_search_by_key(&g, |&(group, _)| group)
}

/// Adds 1 to `counts[g]` for every group `g` of `column`; returns the
/// column's length.
fn count_into(column: &[(u32, u32)], counts: &mut [u32]) -> u64 {
    for &(g, _) in column {
        counts[g as usize] += 1;
    }
    column.len() as u64
}

/// Calls `member(g, t)` once per distinct token `t` of every member of
/// every group `g`, groups ascending.
fn for_each_member(
    db: &SetDatabase,
    partitioning: &Partitioning,
    mut member: impl FnMut(u32, TokenId),
) {
    for g in 0..partitioning.n_groups() as u32 {
        for &id in partitioning.members(g) {
            distinct(db.set(id)).for_each(|t| member(g, t));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sim::Jaccard;
    use crate::{DeletionLog, Les3Index, ShardedLes3Index, Similarity};
    use les3_data::SetId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
    fn figure1_matrix_bits_and_refs() {
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        // G0 contains A,B,C; G1 contains C,D.
        assert!(tgm.bit(0, 0) && tgm.bit(0, 1) && tgm.bit(0, 2) && !tgm.bit(0, 3));
        assert!(!tgm.bit(1, 0) && !tgm.bit(1, 1) && tgm.bit(1, 2) && tgm.bit(1, 3));
        assert_eq!(tgm.columns[1], [(0, 3)], "B is in all three sets of G0");
        assert_eq!(tgm.columns[2], [(0, 2), (1, 2)]);
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
    fn add_member_grows_universe() {
        let (db, part) = figure1();
        let mut tgm = Tgm::build(&db, &part);
        assert_eq!(tgm.n_tokens(), 4);
        tgm.add_member(1, &[3, 10, 10]);
        assert_eq!(tgm.n_tokens(), 11);
        assert_eq!(tgm.columns[10], [(1, 1)], "a duplicate is one reference");
        assert_eq!(tgm.columns[3], [(1, 3)]);
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
        // 40 sets in 8 groups: token 8 is in every group (one run),
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

    /// Every column of `index` against a recount over the sets `live`
    /// admits: each distinct token of a live set is one reference in its
    /// group's entry, and no entry is left without one. Columns past the
    /// recount's tokens must be empty.
    pub(crate) fn assert_columns_recount<S: Similarity>(
        index: &ShardedLes3Index<S>,
        live: impl Fn(SetId) -> bool,
    ) {
        let mut refs: BTreeMap<(TokenId, u32), u32> = BTreeMap::new();
        for (id, set) in index.db().iter().filter(|&(id, _)| live(id)) {
            for t in distinct(set) {
                *refs
                    .entry((t, index.partitioning().group_of(id)))
                    .or_default() += 1;
            }
        }
        let tgm = &index.tgm;
        assert!(refs.keys().all(|&(t, _)| (t as usize) < tgm.n_tokens()));
        for (t, column) in (0..).zip(&tgm.columns) {
            let want: Vec<(u32, u32)> = refs
                .range((t, 0)..=(t, u32::MAX))
                .map(|(&(_, g), &n)| (g, n))
                .collect();
            assert_eq!(column, &want, "column {t}");
        }
    }

    /// Phase A at every `o` from 0 to past the query's length against the
    /// full count: at `o = 0` the counts and the bits visited, above it
    /// the survivors (every group the full count puts at `o` or more)
    /// and their counts.
    fn assert_phase_a_equals_the_full_count(tgm: &Tgm, query: &[TokenId]) {
        let mut query = query.to_vec();
        query.sort_unstable();
        let mut want = Vec::new();
        let want_bits = tgm.reference_overlaps_into(&query, &mut want);
        let mut kernel = FilterScratch::default();
        for o in 0..=distinct(&query).count() + 1 {
            let bits = tgm.overlaps_reaching(&query, o, &mut kernel);
            if o == 0 {
                assert_eq!((&kernel.counts, bits), (&want, want_bits), "{query:?}");
                continue;
            }
            let reaching: Vec<u32> = (0..)
                .zip(&want)
                .filter(|(_, &r)| r as usize >= o)
                .map(|(g, _)| g)
                .collect();
            assert_eq!(kernel.survivors, reaching, "{query:?} o={o}");
            for &g in &reaching {
                assert_eq!(
                    kernel.counts[g as usize], want[g as usize],
                    "{query:?} o={o} g={g}"
                );
            }
        }
    }

    /// One step of an update script.
    #[derive(Debug, Clone)]
    enum Step {
        /// Insert these tokens (duplicates make a multiset).
        Insert(Vec<TokenId>),
        /// Delete the set at this pick, modulo the database's length.
        Delete(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            prop::collection::vec(0u32..60, 0..9).prop_map(Step::Insert),
            (0usize..1000).prop_map(Step::Delete),
        ]
    }

    proptest! {
        /// A random insert / delete script — multiset sets, tokens past
        /// the universe, repeated deletes of one id — through the engine
        /// and a [`DeletionLog`]: after the build and after every step
        /// each column equals a recount from the live sets, and phase A
        /// equals the full count.
        #[test]
        fn columns_equal_a_recount_through_inserts_and_deletes(
            sets in prop::collection::vec(prop::collection::vec(0u32..48, 0..9), 0..40),
            n_groups in 1usize..12,
            picks in prop::collection::vec(0usize..1000, 40),
            script in prop::collection::vec(step(), 0..24),
            queries in prop::collection::vec(prop::collection::vec(0u32..64, 0..8), 1..4),
        ) {
            let db = SetDatabase::from_sets(sets.clone());
            let assignment = picks[..sets.len()].iter().map(|&p| (p % n_groups) as u32).collect();
            let part = Partitioning::from_assignment(assignment, n_groups);
            let mut index = Les3Index::build(db, part, Jaccard);
            let mut log = DeletionLog::build(&index);
            let check = |index: &Les3Index<Jaccard>, log: &DeletionLog| {
                assert_columns_recount(index, |id| !log.is_deleted(id));
                for q in &queries {
                    assert_phase_a_equals_the_full_count(index.tgm(), q);
                }
            };
            check(&index, &log);
            for step in &script {
                match step {
                    Step::Insert(tokens) => {
                        let (id, _) = index.insert(&mut tokens.clone());
                        log.note_insert(&index, id);
                    }
                    Step::Delete(pick) if !index.db().is_empty() => {
                        let id = (pick % index.db().len()) as SetId;
                        let live = !log.is_deleted(id);
                        prop_assert_eq!(log.delete(&mut index, id), live);
                    }
                    Step::Delete(_) => {}
                }
                check(&index, &log);
            }
        }
    }

    /// Columns past one chunk: 70 000 groups, most of them empty, and
    /// every token in groups on both sides of 65 536, built and then
    /// updated on both sides.
    #[test]
    fn columns_equal_a_recount_across_chunks() {
        let db = SetDatabase::from_sets((0..300u32).map(|i| [i % 5, 5 + i % 3, i % 5]));
        let groups = 70_000;
        let part = Partitioning::from_assignment(
            (0..300).map(|i| i * 233 % groups).collect(),
            groups as usize,
        );
        let mut index = Les3Index::build(db, part, Jaccard);
        assert!(index.tgm().bit(233 * 290 % groups, 0) && 233 * 290 % groups >= 1 << 16);
        let mut log = DeletionLog::build(&index);
        for id in [290, 3, 4] {
            assert!(log.delete(&mut index, id));
        }
        let (id, _) = index.insert(&mut [0, 9, 9]);
        log.note_insert(&index, id);
        assert_columns_recount(&index, |id| !log.is_deleted(id));
        for q in [vec![0, 0, 6], vec![1, 4, 7, 9]] {
            assert_phase_a_equals_the_full_count(index.tgm(), &q);
        }
    }

    /// Bytes the Figure-11 model gives one column of `groups`.
    fn column_size(groups: impl IntoIterator<Item = u32>) -> usize {
        let column: Column = groups.into_iter().map(|g| (g, 1)).collect();
        Tgm {
            n_groups: column.last().map_or(0, |&(g, _)| g as usize + 1),
            columns: vec![Vec::new(), column],
        }
        .size_in_bytes()
    }

    /// The Figure-11 size model per container kind: an 8-byte column
    /// header, then per chunk a 4-byte header plus 2 bytes per group of
    /// a sorted array, 8 KiB of a bitset or 4 bytes per run, whichever
    /// is smallest.
    #[test]
    fn column_size_is_chunk_headers_plus_the_smallest_payload() {
        assert_eq!(column_size([]), 0, "an empty column costs nothing");
        assert_eq!(column_size([1, 5, 70_000]), 8 + (4 + 4) + (4 + 2));
        assert_eq!(column_size((0..5_000).map(|g| g * 7)), 8 + 4 + 8192);
        assert_eq!(column_size(100..30_000), 8 + 4 + 4);
        assert_eq!(
            column_size([3, 4, 5, 9]),
            8 + 4 + 8,
            "an array of 4 as cheap as 2 runs"
        );
        assert_eq!(
            column_size([65_535, 65_536]),
            8 + (4 + 2) + (4 + 2),
            "runs stop at a chunk"
        );
    }

    #[test]
    fn size_accounting_is_positive_and_small() {
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        assert!(tgm.size_in_bytes() > 0);
        assert_eq!(tgm.ones(), 5); // A,B,C in G0; C,D in G1
    }
}
