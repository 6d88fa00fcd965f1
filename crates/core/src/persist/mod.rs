//! The durable index: checksummed immutable segments, a write-ahead log
//! for post-save mutations, and crash recovery that is exact by
//! construction.
//!
//! A [`DurableIndex`] is a [`LiveIndex`] — the engine, as a
//! [`Les3Index`] or under its [`ShardedLes3Index`] name (both write the
//! same bytes and open the same directories), with the deletion log and
//! attributes that describe it — plus a directory:
//!
//! * `segment` — the immutable snapshot (see [`segment`](self) block
//!   format docs in `segment.rs`): the facts — database, partitioning
//!   assignment, tombstones and attributes — in CRC32-checksummed
//!   length-prefixed blocks, written to a tmp file, fsynced and renamed
//!   into place. Nothing derived from them is stored;
//! * `wal-<epoch>` — checksummed mutation records appended **before**
//!   each in-memory insert/delete and replayed on open. A truncated or
//!   corrupt *tail* record is the clean end of the log (a torn final
//!   write); a corrupt *interior* record is a hard, descriptive error.
//!
//! Both files are written and read by one codec (`codec.rs`): a WAL
//! record is the `length · CRC32 · payload` frame that follows a segment
//! block's kind, and the METADATA block's layout lives there too. Its
//! reader checks every length and count against the bytes present and
//! caps nothing below that, so every file the writers produce reopens.
//!
//! Recovery is bit-for-bit because open ≡ build: the TGM with its
//! reference counts and the verification order are pure functions of
//! what the segment stores, and [`DurableIndex::open`] computes them
//! with the code a fresh index is built by (`ShardedLes3Index::new`,
//! which both [`build`](crate::Les3Index::build)s end in too), applies the
//! tombstones through [`LiveIndex::delete`] and replays the WAL tail
//! through the same [`LiveIndex::insert`] / [`LiveIndex::delete`] the
//! live index was mutated by, so a reopened
//! index answers every kNN/range query with identical hits *and*
//! [`SearchStats`](crate::SearchStats) to one that never crashed.
//!
//! ```
//! use les3_core::persist::DurableIndex;
//! use les3_core::sim::Jaccard;
//! use les3_core::{Les3Index, Partitioning};
//! use les3_data::SetDatabase;
//!
//! let dir = std::env::temp_dir().join(format!("les3-doc-{}", std::process::id()));
//! let db = SetDatabase::from_sets(vec![vec![0u32, 1, 2], vec![0, 1, 3], vec![7, 8]]);
//! let index = Les3Index::build(db, Partitioning::round_robin(3, 2), Jaccard);
//! let mut durable = DurableIndex::create(&dir, index).unwrap();
//! durable.insert(&mut [0, 1, 2, 9]).unwrap(); // WAL-logged
//! drop(durable);
//! let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
//! assert_eq!(reopened.backend().db().len(), 4);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

mod codec;
pub mod io;
mod segment;
mod wal;

use crate::sync::Arc;
use std::path::{Path, PathBuf};

use les3_data::{SetId, TokenId};

use crate::delete::DeletionLog;
use crate::index::Les3Index;
use crate::live::LiveIndex;
use crate::metadata::MetadataIndex;
use crate::shard::ShardedLes3Index;
use crate::sim::Similarity;

use io::{PersistIo, RealIo, WriteSync};
pub use segment::SegmentMeta;
use wal::WalRecord;

/// Errors of the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O error (includes injected faults).
    Io(std::io::Error),
    /// The segment magic number does not match.
    BadMagic,
    /// The segment was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A segment section violates its invariants.
    Corrupt {
        /// Which section (header, META, ASSIGN, SETS, TOMBS, METADATA,
        /// block, END) failed validation.
        section: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// A WAL record before the tail is damaged.
    WalCorrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// What exactly was wrong.
        detail: String,
    },
    /// The opened segment does not match the request: a wrong
    /// similarity measure, a segment where an empty directory was
    /// expected, or a sharded segment (a kind this format no longer
    /// reads).
    Mismatch {
        /// What the caller asked for.
        expected: String,
        /// What the segment holds.
        found: String,
    },
    /// A previous append or checkpoint failed; the WAL may hold a torn
    /// record (or the on-disk epoch may have advanced past the writer),
    /// so further mutations are refused until
    /// [`DurableIndex::checkpoint`] re-establishes a clean log.
    Poisoned,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a LES3 segment (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment format version {v}")
            }
            PersistError::Corrupt { section, detail } => {
                write!(f, "corrupt segment ({section}): {detail}")
            }
            PersistError::WalCorrupt { offset, detail } => {
                write!(f, "corrupt wal record at offset {offset}: {detail}")
            }
            PersistError::Mismatch { expected, found } => {
                write!(f, "segment mismatch: expected {expected}, found {found}")
            }
            PersistError::Poisoned => {
                write!(
                    f,
                    "wal writer poisoned by a failed append or checkpoint; checkpoint to recover"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// When WAL appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every appended record (default): a crash loses at
    /// most the record being written.
    #[default]
    Always,
    /// Never fsync the WAL explicitly; the OS flushes when it pleases.
    /// Faster, but a crash may lose a suffix of acknowledged mutations
    /// (recovery still yields a consistent prefix state).
    Never,
}

/// Tunables for a [`DurableIndex`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// WAL durability; segment writes always fsync.
    pub fsync: FsyncPolicy,
}

/// An index that can be saved to and rebuilt from a segment: the one
/// engine, [`ShardedLes3Index`], as itself or as a [`Les3Index`]. Both
/// impls write the same bytes and open the same directories. Every bound
/// that says "an index" — [`LiveIndex`], [`DurableIndex`],
/// [`ServeFront`](crate::ServeFront) — is this trait.
pub trait PersistentBackend: Sized + Send + Sync + 'static {
    /// The similarity measure type.
    type Sim: Similarity;

    /// The engine (queries, the database, the partitioning: everything
    /// is read through this).
    fn sharded(&self) -> &ShardedLes3Index<Self::Sim>;
    /// The engine, for inserts and deletes.
    fn sharded_mut(&mut self) -> &mut ShardedLes3Index<Self::Sim>;
    /// Wraps the engine.
    fn from_engine(engine: ShardedLes3Index<Self::Sim>) -> Self;
}

impl<S: Similarity> PersistentBackend for Les3Index<S> {
    type Sim = S;

    fn sharded(&self) -> &ShardedLes3Index<S> {
        self
    }

    fn sharded_mut(&mut self) -> &mut ShardedLes3Index<S> {
        self
    }

    fn from_engine(engine: ShardedLes3Index<S>) -> Self {
        Les3Index(engine)
    }
}

impl<S: Similarity> PersistentBackend for ShardedLes3Index<S> {
    type Sim = S;

    fn sharded(&self) -> &Self {
        self
    }

    fn sharded_mut(&mut self) -> &mut Self {
        self
    }

    fn from_engine(engine: Self) -> Self {
        engine
    }
}

/// A crash-safe index: a [`LiveIndex`] kept in lockstep with an on-disk
/// segment plus write-ahead log. See the module docs for the file layout
/// and the recovery contract.
pub struct DurableIndex<B: PersistentBackend> {
    live: LiveIndex<B>,
    dir: PathBuf,
    epoch: u64,
    /// `None` after a failed append or checkpoint (poisoned) until the
    /// next successful checkpoint.
    wal: Option<Box<dyn WriteSync>>,
    io: Arc<dyn PersistIo>,
    opts: DurableOptions,
}

fn segment_path(dir: &Path) -> PathBuf {
    dir.join("segment")
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}"))
}

/// Writes a full checkpoint of `backend` + `tombstones` + `metadata`
/// into `dir` as `new_epoch`: segment to a tmp file, fsync, rename over
/// `segment`, directory fsync, then a fresh empty `wal-<new_epoch>` and
/// best-effort removal of stale WALs. Every prefix of this sequence
/// leaves the directory recoverable (old segment + old WAL until the
/// rename; new segment with an empty-or-absent WAL after it).
fn write_checkpoint<B: PersistentBackend>(
    io: &dyn PersistIo,
    dir: &Path,
    backend: &B,
    tombstones: &[SetId],
    metadata: &MetadataIndex,
    new_epoch: u64,
) -> Result<Box<dyn WriteSync>, PersistError> {
    let tmp = dir.join("segment.tmp");
    segment::write_segment(io, &tmp, backend, tombstones, metadata, new_epoch)?;
    io.rename(&tmp, &segment_path(dir))?;
    io.sync_dir(dir)?;
    let mut wal = io.create(&wal_path(dir, new_epoch))?;
    wal.sync()?;
    io.sync_dir(dir)?;
    // Stale WALs (superseded epochs) are dead weight: remove what we
    // can, ignore what we cannot — open() skips them by name anyway.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(epoch) = name
                .strip_prefix("wal-")
                .and_then(|e| e.parse::<u64>().ok())
            {
                if epoch != new_epoch {
                    io.remove_file(&entry.path()).ok();
                }
            }
        }
    }
    Ok(wal)
}

/// Saves a standalone snapshot of a bare engine — one nothing was
/// deleted from and whose sets carry no attributes — into `dir`,
/// advancing the epoch past any segment already there. Zero-copy and
/// read-only: it borrows the backend, so queries keep running while it
/// streams. An index with deletions or attributes is a [`LiveIndex`]
/// and saves itself ([`LiveIndex::save`]).
pub fn save_index<B: PersistentBackend>(backend: &B, dir: &Path) -> Result<(), PersistError> {
    save_snapshot(backend, &[], &MetadataIndex::new(), dir)
}

/// What [`save_index`] and [`LiveIndex::save`] share: the segment gains
/// a TOMBS entry per tombstone and a METADATA block whenever any set has
/// attributes.
pub(crate) fn save_snapshot<B: PersistentBackend>(
    backend: &B,
    tombstones: &[SetId],
    metadata: &MetadataIndex,
    dir: &Path,
) -> Result<(), PersistError> {
    std::fs::create_dir_all(dir)?;
    let new_epoch = match segment::read_meta(&segment_path(dir)) {
        Ok(meta) => meta.epoch + 1,
        Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => 0,
        // A corrupt or foreign segment is not silently overwritten.
        Err(e) => return Err(e),
    };
    write_checkpoint(&RealIo, dir, backend, tombstones, metadata, new_epoch)?;
    Ok(())
}

/// Reads the META header of the segment in `dir` — enough to decide
/// which backend type and similarity measure to open it with.
pub fn read_meta(dir: &Path) -> Result<SegmentMeta, PersistError> {
    segment::read_meta(&segment_path(dir))
}

/// Builds the index a validated segment describes, with the code a fresh
/// one is built by; the tombstones go through the live delete path, so
/// the TGM's reference counts and cleared bits are what the same deletions
/// left behind in the index that was saved.
fn live_from_segment<B: PersistentBackend>(raw: segment::RawSegment, sim: B::Sim) -> LiveIndex<B> {
    let engine = B::from_engine(ShardedLes3Index::new(raw.db, raw.partitioning, sim));
    // Segments without a METADATA block (attribute-free or written
    // before metadata existed) mean "no set has attributes".
    let mut live = match raw.metadata {
        Some(attrs) => LiveIndex::with_attrs(engine, attrs),
        None => LiveIndex::new(engine),
    };
    for &id in &raw.tombstones {
        live.delete(id);
    }
    live
}

impl<B: PersistentBackend> DurableIndex<B> {
    /// Saves `index` — a bare engine or a [`LiveIndex`] — into `dir`
    /// (created if needed) as epoch 0 and returns the durable wrapper.
    /// Fails if `dir` already holds a segment — open that instead.
    ///
    /// A bare engine must be one no [`DeletionLog`] has deleted from
    /// ([`LiveIndex::new`]'s contract, checked in debug builds); an
    /// index with deletions is a [`LiveIndex`] and arrives here with
    /// its log.
    pub fn create(
        dir: impl Into<PathBuf>,
        index: impl Into<LiveIndex<B>>,
    ) -> Result<Self, PersistError> {
        Self::create_with(dir, index, Arc::new(RealIo), DurableOptions::default())
    }

    /// [`DurableIndex::create`] with injectable I/O and options (the
    /// fault-injection harness passes a [`FaultyIo`](io::FaultyIo)
    /// here).
    pub fn create_with(
        dir: impl Into<PathBuf>,
        index: impl Into<LiveIndex<B>>,
        io: Arc<dyn PersistIo>,
        opts: DurableOptions,
    ) -> Result<Self, PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if segment_path(&dir).exists() {
            return Err(PersistError::Mismatch {
                expected: "an empty directory".into(),
                found: "an existing segment".into(),
            });
        }
        let mut durable = Self {
            live: index.into(),
            dir,
            epoch: 0,
            wal: None,
            io,
            opts,
        };
        durable.wal = Some(durable.checkpoint_as(0)?);
        Ok(durable)
    }

    /// Opens the index saved in `dir`: reads and validates the segment,
    /// builds the backend from it, deletes its tombstones, then replays
    /// the WAL tail — all through the same deterministic paths the live
    /// index used. `sim` must match the measure the segment was saved
    /// with.
    pub fn open(dir: impl Into<PathBuf>, sim: B::Sim) -> Result<Self, PersistError> {
        Self::open_with(dir, sim, Arc::new(RealIo), DurableOptions::default())
    }

    /// [`DurableIndex::open`] with injectable I/O and options.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        sim: B::Sim,
        io: Arc<dyn PersistIo>,
        opts: DurableOptions,
    ) -> Result<Self, PersistError> {
        let dir = dir.into();
        let raw = segment::read_segment(&segment_path(&dir))?;
        if raw.sim_name != sim.name() {
            return Err(PersistError::Mismatch {
                expected: format!("similarity {:?}", sim.name()),
                found: format!("similarity {:?}", raw.sim_name),
            });
        }
        let epoch = raw.epoch;
        let mut live = live_from_segment::<B>(raw, sim);

        // Replay the WAL tail. A missing file means a crash hit between
        // the segment rename and the fresh WAL creation — an empty log.
        let wal_file = wal_path(&dir, epoch);
        let records = match std::fs::read(&wal_file) {
            Ok(bytes) => {
                let parsed = wal::parse_wal(&bytes)?;
                // A torn tail is a clean end of the log for *replay*,
                // but it must not stay in the file: an append after the
                // garbage would read back on the next open as interior
                // corruption (hard error) or, worse, merge into the
                // tear and silently drop the acknowledged record. Clip
                // the file to the clean prefix before appending.
                if parsed.clean_len < bytes.len() as u64 {
                    io.truncate(&wal_file, parsed.clean_len)?;
                }
                parsed.records
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        for record in records {
            match record {
                WalRecord::Insert(mut tokens) => {
                    live.insert(&mut tokens, &[]);
                }
                WalRecord::Delete(id) => {
                    live.delete(id);
                }
                WalRecord::InsertAttrs(mut tokens, attrs) => {
                    live.insert(&mut tokens, &attrs);
                }
            }
        }

        let wal = io.open_append(&wal_file)?;
        Ok(Self {
            live,
            dir,
            epoch,
            wal: Some(wal),
            io,
            opts,
        })
    }

    /// The in-memory backend (query through this).
    pub fn backend(&self) -> &B {
        self.live.engine()
    }

    /// The deletion log (filter hits through
    /// [`DeletionLog::filter_hits`]).
    pub fn log(&self) -> &DeletionLog {
        self.live.log()
    }

    /// The attribute metadata, id-aligned with the backend's database.
    pub fn meta(&self) -> &MetadataIndex {
        self.live.meta()
    }

    /// The current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a failed append or checkpoint has poisoned the WAL
    /// writer.
    pub fn is_poisoned(&self) -> bool {
        self.wal.is_none()
    }

    /// Consumes the wrapper, yielding the index it kept durable: the
    /// engine with its log and attributes, as one value (serve it with
    /// [`ServeFront::from_live`](crate::ServeFront::from_live)).
    pub fn into_live(self) -> LiveIndex<B> {
        self.live
    }

    /// Writes the index as it is now into the directory as `epoch`.
    fn checkpoint_as(&self, epoch: u64) -> Result<Box<dyn WriteSync>, PersistError> {
        write_checkpoint(
            self.io.as_ref(),
            &self.dir,
            self.live.engine(),
            &self.live.log().deleted_ids(),
            self.live.meta(),
            epoch,
        )
    }

    fn append(&mut self, record: &WalRecord) -> Result<(), PersistError> {
        let Some(wal) = self.wal.as_mut() else {
            return Err(PersistError::Poisoned);
        };
        let bytes = record.framed()?;
        let result = wal.write_all(&bytes).and_then(|()| match self.opts.fsync {
            FsyncPolicy::Always => wal.sync(),
            FsyncPolicy::Never => Ok(()),
        });
        if let Err(e) = result {
            // The record may be torn on disk. Recovery handles that
            // (torn tail = clean end), but appending *more* records
            // after a torn one would corrupt the interior — poison the
            // writer until a checkpoint starts a fresh log.
            self.wal = None;
            return Err(e.into());
        }
        Ok(())
    }

    /// Inserts a set: WAL first (per the configured
    /// [`FsyncPolicy`]), then the in-memory index. On error the
    /// in-memory index is untouched and the writer is poisoned.
    pub fn insert(&mut self, tokens: &mut [TokenId]) -> Result<(SetId, u32), PersistError> {
        self.append(&WalRecord::Insert(tokens.to_vec()))?;
        Ok(self.live.insert(tokens, &[]))
    }

    /// [`DurableIndex::insert`] carrying the set's key/value attributes
    /// (WAL-logged with them, so replay restores the metadata too).
    pub fn insert_with_attrs(
        &mut self,
        tokens: &mut [TokenId],
        attrs: &[(String, String)],
    ) -> Result<(SetId, u32), PersistError> {
        self.append(&WalRecord::InsertAttrs(tokens.to_vec(), attrs.to_vec()))?;
        Ok(self.live.insert(tokens, attrs))
    }

    /// Tombstones a set: WAL first, then the in-memory log + TGM.
    /// Returns `Ok(false)` for unknown or already-deleted ids (the
    /// no-op is still logged and replays as a no-op).
    pub fn delete(&mut self, id: SetId) -> Result<bool, PersistError> {
        self.append(&WalRecord::Delete(id))?;
        Ok(self.live.delete(id))
    }

    /// Folds the WAL into a fresh segment at `epoch + 1` and starts an
    /// empty log. Also the way out of a poisoned WAL writer.
    ///
    /// A *failed* checkpoint poisons the writer: the failure may have
    /// hit after the segment rename, in which case the on-disk epoch has
    /// already advanced and anything appended to the superseded
    /// `wal-<epoch>` would be invisible to the next [`DurableIndex::open`].
    /// Mutations are refused until a later `checkpoint` succeeds.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        self.wal = None;
        self.wal = Some(self.checkpoint_as(self.epoch + 1)?);
        self.epoch += 1;
        Ok(())
    }
}

/// Byte pins of the WAL and segment formats, and the files the writers
/// produce at sizes the format must carry: every such file reopens to
/// the index that wrote it.
#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use les3_data::SetDatabase;
    use proptest::prelude::*;

    use super::codec::{self, put_frame, put_metadata, put_u32, put_u32s};
    use super::segment::{self, SegmentMeta};
    use super::wal::{self, WalRecord};
    use super::{DurableIndex, PersistError};
    use crate::index::{Les3Index, SearchResult};
    use crate::live::LiveIndex;
    use crate::metadata::{MetadataIndex, MAX_ATTRS_PER_SET, MAX_ATTR_STR};
    use crate::partitioning::Partitioning;
    use crate::sim::Jaccard;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "les3-unit-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// 64-bit FNV-1a, for pinning bytes recorded at an earlier commit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn kv(k: &str, v: &str) -> (String, String) {
        (k.to_owned(), v.to_owned())
    }

    /// 24 small sets in 4 round-robin groups, Jaccard.
    fn pinned_index() -> Les3Index<Jaccard> {
        let sets: Vec<Vec<u32>> = (0..24u32)
            .map(|i| {
                let mut s: Vec<u32> = (0..1 + i % 4).map(|j| (i * 5 + j * 11) % 37).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let db = SetDatabase::from_sets(sets);
        let part = Partitioning::round_robin(db.len(), 4);
        Les3Index::build(db, part, Jaccard)
    }

    /// A durable index with one logged record of each kind: an insert, a
    /// delete and an insert with attributes (one key multi-byte UTF-8).
    fn durable_with_every_record_kind(dir: &PathBuf) -> DurableIndex<Les3Index<Jaccard>> {
        let mut durable = DurableIndex::create(dir, pinned_index()).unwrap();
        durable.insert(&mut [30, 2, 17, 2]).unwrap();
        assert!(durable.delete(5).unwrap());
        durable
            .insert_with_attrs(
                &mut [4, 9],
                &[kv("größe", "groß"), kv("tier", "gold"), kv("", "")],
            )
            .unwrap();
        durable
    }

    /// The WAL bytes of one record of each kind, recorded before the
    /// persistence codecs were merged into one.
    #[test]
    fn wal_bytes_with_every_record_kind_are_pinned() {
        let dir = fresh_dir("wal-pin");
        drop(durable_with_every_record_kind(&dir));
        let bytes = std::fs::read(dir.join("wal-0")).unwrap();
        assert_eq!(bytes.len(), 111);
        assert_eq!(
            fnv1a(&bytes),
            0x43aa_b141_d01c_5e19,
            "recorded with format v2"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bytes of a segment carrying tombstones and a METADATA block,
    /// recorded before the persistence codecs were merged into one.
    #[test]
    fn segment_bytes_with_tombstones_and_metadata_are_pinned() {
        let dir = fresh_dir("segment-pin");
        let mut durable = durable_with_every_record_kind(&dir);
        assert!(durable.delete(0).unwrap());
        durable
            .insert_with_attrs(&mut [1, 2, 3], &[kv("tier", "gold")])
            .unwrap();
        durable.checkpoint().unwrap();
        let bytes = std::fs::read(dir.join("segment")).unwrap();
        assert_eq!(bytes.len(), 819);
        assert_eq!(
            fnv1a(&bytes),
            0xd165_0f58_b80f_134b,
            "recorded with format v2"
        );
        drop(durable);
        let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
        assert_eq!(reopened.log().deleted_ids(), [0, 5]);
        assert_eq!(reopened.meta().attrs(26), vec![kv("tier", "gold")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What an index answers: kNN and range hits with their `SearchStats`
    /// for every fixture set and two ad-hoc queries.
    fn answers(engine: &Les3Index<Jaccard>) -> Vec<(SearchResult, SearchResult)> {
        let db = engine.db();
        let mut queries: Vec<Vec<u32>> = (0..24).map(|id| db.set(id).to_vec()).collect();
        queries.extend([vec![7], vec![2, 7, 30]]);
        queries
            .iter()
            .map(|q| (engine.knn(q, 5), engine.range(q, 0.3)))
            .collect()
    }

    fn assert_reopens_to(dir: &PathBuf, live: &LiveIndex<Les3Index<Jaccard>>) {
        let reopened = DurableIndex::<Les3Index<Jaccard>>::open(dir, Jaccard).unwrap();
        assert_eq!(reopened.backend().db().len(), live.engine().db().len());
        assert_eq!(reopened.log().deleted_ids(), live.log().deleted_ids());
        assert_eq!(answers(reopened.backend()), answers(live.engine()));
        for id in 0..live.engine().db().len() as u32 {
            assert_eq!(reopened.meta().attrs(id), live.meta().attrs(id), "set {id}");
        }
    }

    /// Attributes longer or more numerous than the wire admits (the caps
    /// sit where outside input enters) are still the library's to save: a
    /// 4 097-byte value and a set with 257 pairs reopen as they were saved,
    /// from a snapshot and from a replayed WAL alike.
    #[test]
    fn attributes_past_the_wire_caps_reopen() {
        let long = "v".repeat(MAX_ATTR_STR + 1);
        let many: Vec<(String, String)> = (0..=MAX_ATTRS_PER_SET)
            .map(|i| kv("k", &i.to_string()))
            .collect();
        for attrs in [vec![kv("note", &long)], many] {
            let dir = fresh_dir("attrs-saved");
            let mut live = LiveIndex::new(pinned_index());
            live.insert(&mut [3, 8, 21], &attrs);
            assert!(live.delete(2));
            live.save(&dir).unwrap();
            assert_reopens_to(&dir, &live);
            std::fs::remove_dir_all(&dir).ok();

            let dir = fresh_dir("attrs-logged");
            let mut live = LiveIndex::new(pinned_index());
            let mut durable = DurableIndex::create(&dir, pinned_index()).unwrap();
            durable.insert_with_attrs(&mut [3, 8, 21], &attrs).unwrap();
            live.insert(&mut [3, 8, 21], &attrs);
            drop(durable);
            assert_reopens_to(&dir, &live);
            let mut replayed = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
            replayed.checkpoint().unwrap();
            drop(replayed);
            assert_reopens_to(&dir, &live);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// An acknowledged insert of 4 194 303 tokens logs a 16 777 217-byte
    /// record; the next open replays it, and a checkpoint stores it.
    #[test]
    fn an_acknowledged_insert_past_16_mib_reopens() {
        let dir = fresh_dir("big-record");
        let mut live = LiveIndex::new(pinned_index());
        let mut durable = DurableIndex::create(&dir, pinned_index()).unwrap();
        let mut tokens = vec![7u32; 4_194_303];
        durable.insert(&mut tokens.clone()).unwrap();
        live.insert(&mut tokens, &[]);
        drop(durable);
        assert_eq!(
            std::fs::metadata(dir.join("wal-0")).unwrap().len(),
            8 + 16_777_217
        );
        assert_reopens_to(&dir, &live);
        let mut replayed = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).unwrap();
        replayed.checkpoint().unwrap();
        drop(replayed);
        assert_reopens_to(&dir, &live);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn encoded(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        put(&mut out);
        out
    }

    /// `good`, every truncation of it and every single-byte flip.
    fn damaged(good: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..good.len()).map(|cut| good[..cut].to_vec());
        let flips = (0..good.len()).flat_map(move |i| {
            [0x01u8, 0x80, 0xff].map(|x| {
                let mut bad = good.to_vec();
                bad[i] ^= x;
                bad
            })
        });
        std::iter::once(good.to_vec()).chain(cuts).chain(flips)
    }

    /// Runs `decode` (`Ok`: the value re-encoded) on `good` damaged every
    /// way [`damaged`] lists and on `noise`: each run is `Ok` with the
    /// input's own bytes, or an error `own_error` accepts.
    fn sweep(
        good: &[u8],
        noise: &[u8],
        decode: impl Fn(&[u8]) -> Result<Vec<u8>, PersistError>,
        own_error: impl Fn(&PersistError) -> bool,
    ) -> Result<(), TestCaseError> {
        for input in damaged(good).chain([noise.to_vec()]) {
            match decode(&input) {
                Ok(again) => prop_assert_eq!(again, input),
                Err(e) => prop_assert!(own_error(&e), "{input:?}: {e:?}"),
            }
        }
        Ok(())
    }

    fn section(e: &PersistError, name: &str) -> bool {
        matches!(e, PersistError::Corrupt { section, .. } if *section == name)
    }

    fn key(k: u8) -> String {
        // One key is multi-byte UTF-8, so flips land inside a character.
        if k == 0 {
            "größe".to_owned()
        } else {
            format!("k{k}")
        }
    }

    proptest! {
        /// Every corruption sweep through a segment or a WAL meets the
        /// block's or record's CRC first. Here each payload decoder gets
        /// the damage directly (a WAL record reframed with its CRC
        /// recomputed), and no index is built: every truncation and
        /// single-byte flip of a valid payload, and random bytes, decode
        /// to a value that re-encodes to the input or fail as that
        /// section's error — META's reserved slot also as the sharded
        /// segment's `Mismatch` — and never panic.
        #[test]
        fn payload_decoders_past_the_crc_reencode_or_fail_in_their_section(
            (epoch, universe, n_sets, n_groups) in (any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>()),
            ids in prop::collection::vec(any::<u32>(), 0..12),
            sets in prop::collection::vec(prop::collection::btree_set(0u32..300, 0..6), 0..6),
            attrs in prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 0..4), 0..6),
            noise in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let meta = SegmentMeta {
                epoch,
                sim_name: key((epoch % 3) as u8),
                universe,
                n_sets: n_sets.into(),
                n_groups: n_groups.into(),
            };
            sweep(
                &encoded(|o| meta.put(o)),
                &noise,
                |p| SegmentMeta::decode(p).map(|m| encoded(|o| m.put(o))),
                |e| section(e, "META") || matches!(e, PersistError::Mismatch { .. }),
            )?;

            for name in ["ASSIGN", "TOMBS"] {
                sweep(
                    &encoded(|o| put_u32s(o, &ids)),
                    &noise,
                    |p| segment::decode_ids(p, name).map(|ids| encoded(|o| put_u32s(o, &ids))),
                    |e| section(e, name),
                )?;
            }

            let sets: Vec<Vec<u32>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
            let put_sets = |o: &mut Vec<u8>, sets: &[Vec<u32>]| {
                put_u32(o, sets.len() as u32);
                for s in sets {
                    put_u32s(o, s);
                }
            };
            sweep(
                &encoded(|o| put_sets(o, &sets)),
                &noise,
                |p| segment::decode_sets(p).map(|sets| encoded(|o| put_sets(o, &sets))),
                |e| section(e, "SETS"),
            )?;

            let attrs: Vec<Vec<(String, String)>> = attrs
                .iter()
                .map(|set| set.iter().map(|&(k, v)| (key(k), format!("v{v}"))).collect())
                .collect();
            let mut index = MetadataIndex::new();
            for set in &attrs {
                index.push(set);
            }
            sweep(
                &encoded(|o| put_metadata(o, &index)),
                &noise,
                |p| codec::metadata(p).map(|m| encoded(|o| put_metadata(o, &m))),
                |e| section(e, "METADATA"),
            )?;

            let records = [
                WalRecord::Insert(ids.clone()),
                WalRecord::Delete(universe),
                WalRecord::InsertAttrs(ids, attrs.concat()),
            ];
            for record in records {
                let framed = record.framed().unwrap();
                sweep(
                    &framed[8..],
                    &noise,
                    |payload| {
                        let input = encoded(|o| put_frame(o, |p| p.extend_from_slice(payload)).unwrap());
                        let parsed = wal::parse_wal(&input)?;
                        let again: Vec<u8> = parsed.records.iter().flat_map(WalRecord::encode).collect();
                        Ok(if again == input { payload.to_vec() } else { again })
                    },
                    |e| matches!(e, PersistError::WalCorrupt { offset: 0, .. }),
                )?;
            }
        }
    }
}
