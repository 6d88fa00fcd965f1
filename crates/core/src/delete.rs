//! Deletions (extension beyond the paper).
//!
//! §6 of the paper covers insertions only. A deletion has to undo one:
//! a TGM bit `M[g, t]` may only be cleared when *no* remaining set of
//! group `g` contains `t`. The matrix keeps that count itself — every
//! column entry carries `refs`, the number of live members of its group
//! holding the token ([`crate::tgm`]) — so a delete removes one
//! reference per distinct token of the set and the entries whose last
//! reference goes. A deleted set becomes a tombstone: it stays in the
//! database arrays and in `Partitioning::members` (ids are stable, and
//! insert placement keeps counting it), but [`DeletionLog::delete`] takes
//! it out of its group's verify order — the membership queries scan — so
//! the engine never verifies or returns it again, with or without this
//! log in hand. The log itself holds only the tombstones.
//!
//! Exactness is unaffected: bounds only ever shrink when bits are
//! cleared, and a group's bound still covers every set verification
//! visits there.

use les3_data::{SetDatabase, SetId};

use crate::index::VerifyOrder;
use crate::shard::ShardedLes3Index;
use crate::sim::{distinct_len, Similarity};
use crate::tgm::Tgm;

/// The tombstones of an index's deleted sets.
///
/// Optional companion to an index (either type: a [`crate::Les3Index`]
/// derefs to the engine): build once with [`DeletionLog::build`], then
/// route deletions through [`DeletionLog::delete`].
#[derive(Debug, Clone, Default)]
pub struct DeletionLog {
    /// Tombstoned set ids.
    deleted: Vec<bool>,
    live: usize,
}

impl DeletionLog {
    /// A log with no tombstones over the index's sets.
    pub fn build<S: Similarity>(index: &ShardedLes3Index<S>) -> Self {
        Self {
            deleted: vec![false; index.db().len()],
            live: index.db().len(),
        }
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
    /// [`ShardedLes3Index::insert`], which has already referenced the
    /// set's tokens in the TGM.
    pub fn note_insert(&mut self, index: &ShardedLes3Index<impl Similarity>, id: SetId) {
        debug_assert!((id as usize) < index.db().len(), "an id the index issued");
        if self.deleted.len() <= id as usize {
            self.deleted.resize(id as usize + 1, false);
        }
        self.live += 1;
    }

    /// Tombstones set `id`: takes it out of its group's verify order and
    /// its references out of the TGM. Returns `false` — a no-op — if the
    /// set is not in the engine: already deleted (through this log or any
    /// other) or out of range (ids the index never issued are treated like
    /// any other absent set rather than panicking).
    pub fn delete<S: Similarity>(&mut self, index: &mut ShardedLes3Index<S>, id: SetId) -> bool {
        if (id as usize) >= index.db.len() {
            return false;
        }
        let g = index.partitioning.group_of(id);
        self.count_out(&index.db, g, id, &mut index.tgm, &mut index.verify)
    }

    /// `id < db.len()`, and `g` is its group. Takes the index's parts,
    /// not the index, so it is compiled once, in this crate, whatever the
    /// similarity measure: generic over it, it is instantiated in the
    /// caller's crate, where each call measured ≈ 0.4 µs slower
    /// (`durable_rw`).
    fn count_out(
        &mut self,
        db: &SetDatabase,
        g: u32,
        id: SetId,
        tgm: &mut Tgm,
        verify: &mut VerifyOrder,
    ) -> bool {
        let set = db.set(id);
        // A set absent from the verify order has had its references
        // removed already: removing them again would under-count.
        if self.is_deleted(id) || !verify.remove(g, distinct_len(set) as u32, id) {
            return false;
        }
        tgm.remove_member(g, set);
        if self.deleted.len() < db.len() {
            self.deleted.resize(db.len(), false);
        }
        self.deleted[id as usize] = true;
        self.live -= 1;
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

    /// Two logs over one engine: the second does not know the first
    /// deleted set 0, so its delete finds the set gone from the verify
    /// order and leaves the refs alone — every column still equals a
    /// recount from the live sets.
    #[test]
    fn a_delete_through_a_second_log_removes_no_references() {
        let mut idx = index();
        let (mut first, mut second) = (DeletionLog::build(&idx), DeletionLog::build(&idx));
        assert!(first.delete(&mut idx, 0));
        assert!(
            !second.delete(&mut idx, 0),
            "set 0 is no longer in the engine"
        );
        assert!(!second.is_deleted(0) && second.live_count() == 4);
        crate::tgm::tests::assert_columns_recount(&idx, |id| id != 0);
        assert!(
            idx.tgm().bit(0, 0) && idx.tgm().bit(0, 1),
            "set 1 holds tokens 0 and 1"
        );
        assert!(second.delete(&mut idx, 1));
        crate::tgm::tests::assert_columns_recount(&idx, |id| id > 1);
    }
}
