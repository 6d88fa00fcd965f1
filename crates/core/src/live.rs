//! One live index: an engine together with the two structures that
//! describe it.
//!
//! Updates keep exactness only while three things move together: the
//! engine, the [`DeletionLog`] whose per-group reference counts decide
//! when a TGM bit may be cleared, and the [`MetadataIndex`] whose ids
//! must stay aligned with the database. [`LiveIndex`] owns all three
//! behind private fields, so the invariant "counts, tombstones and
//! attributes describe this engine" is the type: every mutation goes
//! through [`LiveIndex::insert`] / [`LiveIndex::delete`], and whoever
//! serves or saves an index that was ever deleted from holds one of
//! these — a [`DurableIndex`](crate::DurableIndex) (which adds the WAL),
//! a [`Namespace`](crate::Namespace) (which adds a lock and a name), or
//! a [`ServeFront`](crate::ServeFront) built with
//! [`from_live`](crate::ServeFront::from_live).

use std::path::Path;

use les3_data::{SetId, TokenId};

use crate::delete::DeletionLog;
use crate::metadata::{Filters, MetadataIndex};
use crate::persist::{self, PersistError, PersistentBackend};
use crate::query::{Query, SearchOutcome};
use crate::scratch::QueryScratch;

/// An engine with the deletion log and attribute metadata that describe
/// it. See the [module docs](self).
pub struct LiveIndex<B: PersistentBackend> {
    engine: B,
    deletes: DeletionLog,
    meta: MetadataIndex,
}

impl<B: PersistentBackend> LiveIndex<B> {
    /// Wraps an engine no [`DeletionLog`] has deleted from, with no
    /// deletions and no attributes.
    pub fn new(engine: B) -> Self {
        let mut attrs = MetadataIndex::new();
        attrs.push_empty(engine.sharded().db().len());
        Self::with_attrs(engine, attrs)
    }

    /// [`LiveIndex::new`] over per-set attributes, one entry per set of
    /// the engine's database.
    ///
    /// The log starts fresh, so an engine some other log already deleted
    /// from is outside the contract: its sets would be believed live
    /// under bounds that no longer cover them (checked in debug builds).
    pub fn with_attrs(engine: B, attrs: MetadataIndex) -> Self {
        let deletes = DeletionLog::build(engine.sharded());
        debug_assert!(
            deletes.counted_bits_are_set(engine.sharded()),
            "the engine has been deleted from by a log that is not this one"
        );
        assert_eq!(
            attrs.n_sets(),
            engine.sharded().db().len(),
            "attributes must cover the database"
        );
        Self {
            engine,
            deletes,
            meta: attrs,
        }
    }

    /// The engine. Its own answers are live too — a delete takes the
    /// set out of the verify order — but know nothing of attributes.
    pub fn engine(&self) -> &B {
        &self.engine
    }

    /// The deletion log.
    pub fn log(&self) -> &DeletionLog {
        &self.deletes
    }

    /// The attribute metadata, id-aligned with the engine's database.
    pub fn meta(&self) -> &MetadataIndex {
        &self.meta
    }

    /// Inserts a set with its attributes (none: `&[]`); returns
    /// `(id, group)`.
    pub fn insert(&mut self, tokens: &mut [TokenId], attrs: &[(String, String)]) -> (SetId, u32) {
        let (id, g) = self.engine.sharded_mut().insert(tokens);
        self.deletes.note_insert(self.engine.sharded(), id);
        let meta_id = self.meta.push(attrs);
        debug_assert_eq!(meta_id, id, "metadata and database ids must stay aligned");
        (id, g)
    }

    /// Tombstones a set; `false` for unknown or already-deleted ids.
    pub fn delete(&mut self, id: SetId) -> bool {
        self.deletes.delete(self.engine.sharded_mut(), id)
    }

    /// Runs `q` over the live sets `filters` admits (all of them when
    /// empty). The mask is the filters': `q.mask` is ignored. Deleted sets
    /// are no candidates of the engine's, so a kNN comes back with `k`
    /// live hits whenever they exist.
    pub fn search(
        &self,
        q: &Query<'_>,
        filters: &Filters,
        scratch: &mut QueryScratch,
    ) -> SearchOutcome {
        let engine = self.engine.sharded();
        let cand = self.meta.candidates(filters, engine.partitioning());
        let mask = cand.as_ref();
        engine.search(&Query { mask, ..*q }, scratch)
    }

    /// Snapshots the index — engine, tombstones, attributes — into
    /// `dir`, advancing the epoch past any segment already there. Borrows
    /// the index, so queries keep running while it streams; reopen with
    /// [`DurableIndex::open`](crate::DurableIndex::open).
    pub fn save(&self, dir: &Path) -> Result<(), PersistError> {
        persist::save_snapshot(&self.engine, &self.deletes.deleted_ids(), &self.meta, dir)
    }
}

impl<B: PersistentBackend> From<B> for LiveIndex<B> {
    fn from(engine: B) -> Self {
        Self::new(engine)
    }
}
