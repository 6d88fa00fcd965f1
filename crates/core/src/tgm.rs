//! The token-group matrix (paper §3.1).
//!
//! `M[g, t] = 1` iff some set in group `g` contains token `t` (Eq. 1).
//! We store the matrix token-major: one compressed bitmap per token holding
//! the groups that contain it. Computing the overlap `|GS_g ∩ Q|` for *all*
//! groups is then one counting pass over the query's token bitmaps —
//! `O(Σ_{t∈Q} |groups(t)|) ≤ O(n·|Q|)`, the paper's bound with better
//! constants on sparse data.

use les3_bitmap::Bitmap;
use les3_data::{SetDatabase, TokenId};

use crate::partitioning::Partitioning;

/// The token-group matrix: a bitmap per token over group ids.
#[derive(Debug, Clone, Default)]
pub struct Tgm {
    n_groups: usize,
    /// `token_groups[t]` = groups containing token `t`.
    token_groups: Vec<Bitmap>,
}

impl Tgm {
    /// Builds the TGM for a partitioned database.
    pub fn build(db: &SetDatabase, partitioning: &Partitioning) -> Self {
        assert_eq!(
            db.len(),
            partitioning.n_sets(),
            "partitioning must cover the database"
        );
        let mut token_groups = vec![Bitmap::new(); db.universe_size() as usize];
        for (id, set) in db.iter() {
            let g = partitioning.group_of(id);
            for &t in set {
                token_groups[t as usize].insert(g);
            }
        }
        let mut tgm = Self {
            n_groups: partitioning.n_groups(),
            token_groups,
        };
        tgm.run_optimize();
        tgm
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

    /// Per-group overlap counts `r_g = |GS_g ∩ Q|` for all groups in one
    /// word-parallel counting pass into caller-provided storage (resized
    /// and zeroed here; reusing one buffer across queries makes the filter
    /// step allocation-free). `query` must be sorted; duplicate tokens
    /// count once. Returns the number of TGM bits visited —
    /// `Σ_{t∈Q} |groups(t)|`, the honest filter cost.
    pub fn group_overlaps_into(&self, query: &[TokenId], counts: &mut Vec<u32>) -> u64 {
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

    /// Recompresses every column to its smallest representation.
    pub fn run_optimize(&mut self) {
        for bm in &mut self.token_groups {
            bm.run_optimize();
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn size_accounting_is_positive_and_small() {
        let (db, part) = figure1();
        let tgm = Tgm::build(&db, &part);
        assert!(tgm.size_in_bytes() > 0);
        assert_eq!(tgm.ones(), 5); // A,B,C in G0; C,D in G1
    }
}
