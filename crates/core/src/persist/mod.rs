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
//! Recovery is bit-for-bit because open ≡ build: the TGM, the
//! verification order and the deletion refcounts are pure functions of
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

/// Decodes a little-endian `u32` from the first 4 bytes of `b`.
/// Callers guarantee the length; indexing (not `try_into().unwrap()`)
/// keeps the recovery path free of unwrap tokens the no-unwrap lint
/// polices.
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

/// Decodes a little-endian `u64` from the first 8 bytes of `b`.
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

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
/// the refcounts and the cleared TGM bits are what the same deletions
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
        let bytes = record.encode();
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
