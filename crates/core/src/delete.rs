//! Deletions (extension beyond the paper).
//!
//! §6 of the paper covers insertions only. Deletions need one extra piece
//! of state: a TGM bit `M[g, t]` may only be cleared when *no* remaining
//! set of group `g` contains `t`, so the index keeps per-group token
//! reference counts. A deleted set becomes a tombstone: it stays in the
//! database arrays and in `Partitioning::members` (ids are stable, and
//! insert placement keeps counting it), but [`DeletionLog::delete`] takes
//! it out of its group's verify order — the membership queries scan — so
//! the engine never verifies or returns it again, with or without this
//! log in hand.
//!
//! Exactness is unaffected: bounds only ever shrink when bits are
//! cleared, and a group's bound still covers every set verification
//! visits there.

use les3_data::{SetDatabase, SetId, TokenId};
use std::collections::HashMap;

use crate::index::VerifyOrder;
use crate::shard::ShardedLes3Index;
use crate::sim::{distinct_len, Similarity};
use crate::tgm::Tgm;

/// Per-group token reference counts enabling exact TGM bit clearing.
///
/// Optional companion to an index (either type: a [`crate::Les3Index`]
/// derefs to the engine): build once with
/// [`DeletionLog::build`], then route deletions through
/// [`DeletionLog::delete`].
#[derive(Debug, Clone, Default)]
pub struct DeletionLog {
    /// `(group, token) → number of live member sets containing token`.
    counts: HashMap<(u32, TokenId), u32>,
    /// Tombstoned set ids.
    deleted: Vec<bool>,
    live: usize,
}

impl DeletionLog {
    /// Scans the index and counts token occurrences per group.
    pub fn build<S: Similarity>(index: &ShardedLes3Index<S>) -> Self {
        Self::count_all(index.db(), index.partitioning())
    }

    /// Whether every counted `(group, token)` still has its TGM bit —
    /// false over an index that some other log has deleted from.
    pub(crate) fn counted_bits_are_set<S: Similarity>(&self, index: &ShardedLes3Index<S>) -> bool {
        self.counts.keys().all(|&(g, t)| index.tgm.bit(g, t))
    }

    /// The tombstoned set ids, ascending (what persistence writes out).
    pub fn deleted_ids(&self) -> Vec<SetId> {
        self.deleted
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(id, _)| id as SetId)
            .collect()
    }

    /// Whether `id` has been deleted.
    pub fn is_deleted(&self, id: SetId) -> bool {
        self.deleted.get(id as usize).copied().unwrap_or(false)
    }

    /// Number of live (non-tombstoned) sets.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Registers an insertion performed through
    /// [`ShardedLes3Index::insert`] so reference counts stay in sync.
    pub fn note_insert(&mut self, index: &ShardedLes3Index<impl Similarity>, id: SetId) {
        self.count_in(index.db(), index.partitioning().group_of(id), id);
    }

    /// Tombstones set `id`: takes it out of its group's verify order and
    /// clears every TGM bit whose reference count drops to zero. Returns
    /// `false` — a no-op — if the set was already deleted or `id` is out
    /// of range (ids the index never issued are treated like any other
    /// absent set rather than panicking).
    pub fn delete<S: Similarity>(&mut self, index: &mut ShardedLes3Index<S>, id: SetId) -> bool {
        if (id as usize) >= index.db.len() {
            return false;
        }
        let g = index.partitioning.group_of(id);
        self.count_out(&index.db, g, id, &mut index.tgm, &mut index.verify)
    }

    // The refcount walks take the index's parts, not the index, so they
    // are compiled once, in this crate, whatever the similarity measure:
    // generic over it they are instantiated in the caller's crate, where
    // each call measured ≈ 0.4 µs slower (`durable_rw`).

    fn count_all(db: &SetDatabase, partitioning: &crate::Partitioning) -> Self {
        let mut counts: HashMap<(u32, TokenId), u32> = HashMap::new();
        for (id, set) in db.iter() {
            let g = partitioning.group_of(id);
            for t in distinct(set) {
                *counts.entry((g, t)).or_insert(0) += 1;
            }
        }
        Self {
            counts,
            deleted: vec![false; db.len()],
            live: db.len(),
        }
    }

    fn count_in(&mut self, db: &SetDatabase, g: u32, id: SetId) {
        for t in distinct(db.set(id)) {
            *self.counts.entry((g, t)).or_insert(0) += 1;
        }
        if self.deleted.len() <= id as usize {
            self.deleted.resize(id as usize + 1, false);
        }
        self.live += 1;
    }

    /// `id < db.len()`, and `g` is its group.
    fn count_out(
        &mut self,
        db: &SetDatabase,
        g: u32,
        id: SetId,
        tgm: &mut Tgm,
        verify: &mut VerifyOrder,
    ) -> bool {
        if self.deleted.len() < db.len() {
            self.deleted.resize(db.len(), false);
        }
        if std::mem::replace(&mut self.deleted[id as usize], true) {
            return false;
        }
        self.live -= 1;
        let set = db.set(id);
        let was_member = verify.remove(g, distinct_len(set) as u32, id);
        debug_assert!(was_member, "a live set is in its group's verify order");
        for t in distinct(set) {
            let entry = self.counts.get_mut(&(g, t)).expect("refcount must exist");
            *entry -= 1;
            if *entry == 0 {
                self.counts.remove(&(g, t));
                tgm.clear_bit(g, t);
            }
        }
        true
    }

    /// Filters a hit list, dropping tombstoned sets — for hits that did
    /// not come from the engine this log deletes from (a brute-force
    /// reference, another index over the same ids): the engine's own
    /// answers never name a deleted set.
    pub fn filter_hits(&self, hits: &mut Vec<(SetId, f64)>) {
        hits.retain(|&(id, _)| !self.is_deleted(id));
    }
}

/// The distinct tokens of a (sorted) set: multiset duplicates count once.
fn distinct(set: &[TokenId]) -> impl Iterator<Item = TokenId> + '_ {
    let mut prev = None;
    set.iter()
        .copied()
        .filter(move |&t| prev.replace(t) != Some(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Les3Index;
    use crate::partitioning::Partitioning;
    use crate::sim::Jaccard;
    use les3_data::SetDatabase;

    fn index() -> Les3Index<Jaccard> {
        let db = SetDatabase::from_sets(vec![
            vec![0u32, 1, 2],
            vec![0, 1, 3],
            vec![10, 11],
            vec![10, 12],
        ]);
        Les3Index::build(
            db,
            Partitioning::from_assignment(vec![0, 0, 1, 1], 2),
            Jaccard,
        )
    }

    #[test]
    fn delete_clears_bits_only_when_last_reference_goes() {
        let mut idx = index();
        let mut log = DeletionLog::build(&idx);
        assert!(idx.tgm().bit(0, 0));
        // Token 0 appears in sets 0 and 1 (both group 0).
        assert!(log.delete(&mut idx, 0));
        assert!(idx.tgm().bit(0, 0), "set 1 still holds token 0");
        assert!(!idx.tgm().bit(0, 2), "token 2 was only in set 0");
        assert!(log.delete(&mut idx, 1));
        assert!(!idx.tgm().bit(0, 0), "last reference gone");
        assert_eq!(log.live_count(), 2);
    }

    #[test]
    fn out_of_range_ids_are_noops() {
        let mut idx = index();
        let mut log = DeletionLog::build(&idx);
        assert!(!log.is_deleted(9_999), "unknown ids read as live");
        assert!(!log.delete(&mut idx, 9_999), "unknown ids delete as no-op");
        assert_eq!(log.live_count(), 4);
        // The index is untouched: every original bit survives.
        assert!(idx.tgm().bit(0, 0));
        assert!(idx.tgm().bit(1, 10));
    }

    #[test]
    fn double_delete_is_rejected() {
        let mut idx = index();
        let mut log = DeletionLog::build(&idx);
        assert!(log.delete(&mut idx, 2));
        assert!(!log.delete(&mut idx, 2));
        assert_eq!(log.live_count(), 3);
    }

    #[test]
    fn queries_stay_exact_with_tombstone_filtering() {
        let mut idx = index();
        let mut log = DeletionLog::build(&idx);
        log.delete(&mut idx, 0);
        let mut res = idx.knn(&[0, 1, 2], 4);
        log.filter_hits(&mut res.hits);
        // Set 0 (exact match) is gone; set 1 leads.
        assert_eq!(res.hits[0].0, 1);
        assert!(res.hits.iter().all(|&(id, _)| id != 0));
    }

    #[test]
    fn deleting_a_whole_group_prunes_it_entirely() {
        let mut idx = index();
        let mut log = DeletionLog::build(&idx);
        log.delete(&mut idx, 2);
        log.delete(&mut idx, 3);
        // Every group-1 column is now clear: the group's UB is 0.
        let res = idx.range(&[10, 11, 12], 0.01);
        let mut hits = res.hits.clone();
        log.filter_hits(&mut hits);
        assert!(hits.is_empty());
        assert!(!idx.tgm().bit(1, 10));
        assert!(!idx.tgm().bit(1, 11));
    }

    #[test]
    fn insert_after_delete_keeps_counts_in_sync() {
        let mut idx = index();
        let mut log = DeletionLog::build(&idx);
        log.delete(&mut idx, 0);
        let (id, _) = idx.insert(&mut [0, 1, 2]);
        log.note_insert(&idx, id);
        assert_eq!(log.live_count(), 4);
        // Deleting the replacement clears bits again only when warranted.
        log.delete(&mut idx, id);
        assert!(idx.tgm().bit(0, 0), "set 1 still references token 0");
    }
}
