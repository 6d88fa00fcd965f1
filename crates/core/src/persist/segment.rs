//! The immutable segment format: a versioned sequence of checksummed,
//! length-prefixed blocks.
//!
//! ```text
//! u32  magic "LS3S"
//! u32  format version (currently 2)
//! per block:
//!   u32  kind
//!   u32  payload length
//!   u32  CRC32 of the payload
//!   payload
//! ```
//!
//! Block kinds, in file order:
//!
//! | kind | section | payload |
//! |------|---------|---------|
//! | 1 | META    | epoch u64, reserved u32 (always 0), universe u32, n_sets u64, n_groups u64, sim name (u32 len + bytes) |
//! | 2 | ASSIGN  | u32 count, count × u32 group-of-set, in set-id order |
//! | 3 | SETS    | u32 count, count × (u32 len, len × u32 sorted tokens) |
//! | 7 | TOMBS   | u32 count, count × u32 deleted set ids, ascending |
//! | 8 | METADATA | u32 n_pairs, n_pairs × (key, value: each u32 len + UTF-8 bytes), u32 n_sets, n_sets × (u32 count, count × u32 pair ids, strictly ascending); only when attributes exist |
//! | 9 | SIG     | skipped; written by older builds (16 bytes: a MinHash sidecar's bands u32, rows u32, seed u64) |
//! | 0 | END     | u64 number of preceding blocks |
//!
//! A segment stores what cannot be recomputed — the sets, the learned
//! assignment, the tombstones, the attributes — and nothing derived from
//! them: the TGM with its reference counts and the verification order
//! are rebuilt at open by the code a fresh index is built by. Older builds
//! also wrote a SIG block (kind 9) with a MinHash sidecar's parameters;
//! its CRC is checked like any block's, then it is skipped, so such a
//! segment opens exact and its next checkpoint drops the block. Kinds 4
//! (TGM) and 5 (RUNS) belonged to format version 1, which stored a copy of that derived
//! state; they are unknown kinds now and a version-1 file is
//! [`PersistError::UnsupportedVersion`]. META's reserved slot once held a
//! shard count, and kind 6 (SHARDS) a group → shard layout: a segment
//! with a nonzero slot is a sharded one, refused as a
//! [`PersistError::Mismatch`], and kind 6 is an unknown kind.
//!
//! Multi-entry sections (ASSIGN/SETS) may span several blocks; blocks
//! are flushed near [`BLOCK_BUDGET`] bytes so saving streams entry by
//! entry and never materializes the index a second time. The END block
//! must be last and count every preceding block — a segment truncated at
//! a block boundary is detected by its absence, and a segment truncated
//! or corrupted mid-block by the length prefix or the CRC. All integers
//! are little-endian; every byte goes through [`codec`](super::codec),
//! whose frame (length, CRC, payload) follows each block's kind.

use les3_data::{SetDatabase, SetId, TokenId};

use super::codec::{self, put_frame, put_str, put_u32, put_u32s, put_u64, Dec};
use super::io::{PersistIo, WriteSync};
use super::{PersistError, PersistentBackend};
use crate::metadata::MetadataIndex;
use crate::partitioning::Partitioning;
use crate::sim::Similarity;

pub(crate) const MAGIC: u32 = 0x4c53_3353; // "LS3S"
pub(crate) const VERSION: u32 = 2;

/// Flush threshold for multi-entry blocks. One entry may exceed it (a
/// huge set gets its own oversized block).
const BLOCK_BUDGET: usize = 64 << 10;

pub(crate) const KIND_END: u32 = 0;
pub(crate) const KIND_META: u32 = 1;
pub(crate) const KIND_ASSIGN: u32 = 2;
pub(crate) const KIND_SETS: u32 = 3;
pub(crate) const KIND_TOMBS: u32 = 7;
pub(crate) const KIND_METADATA: u32 = 8;
pub(crate) const KIND_SIG: u32 = 9;

fn corrupt(section: &'static str, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        section,
        detail: detail.into(),
    }
}

/// Streams checksummed blocks to a [`WriteSync`] sink.
struct BlockWriter {
    out: Box<dyn WriteSync>,
    n_blocks: u64,
}

impl BlockWriter {
    fn new(mut out: Box<dyn WriteSync>) -> Result<Self, PersistError> {
        let mut header = Vec::with_capacity(8);
        put_u32(&mut header, MAGIC);
        put_u32(&mut header, VERSION);
        out.write_all(&header)?;
        Ok(Self { out, n_blocks: 0 })
    }

    fn write_block(
        &mut self,
        kind: u32,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), PersistError> {
        let mut block = Vec::new();
        put_u32(&mut block, kind);
        put_frame(&mut block, payload)?;
        self.out.write_all(&block)?;
        self.n_blocks += 1;
        Ok(())
    }

    /// Writes the END block and fsyncs the file.
    fn finish(mut self) -> Result<(), PersistError> {
        let n_blocks = self.n_blocks;
        self.write_block(KIND_END, |p| put_u64(p, n_blocks))?;
        self.out.sync()?;
        Ok(())
    }
}

/// Accumulates entries of one section and flushes a block — the entry
/// count, then the entries — whenever that payload passes the budget.
struct SectionWriter<'a> {
    writer: &'a mut BlockWriter,
    kind: u32,
    buf: Vec<u8>,
    entries: u32,
}

impl<'a> SectionWriter<'a> {
    fn new(writer: &'a mut BlockWriter, kind: u32) -> Self {
        Self {
            writer,
            kind,
            buf: Vec::new(),
            entries: 0,
        }
    }

    fn entry(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), PersistError> {
        write(&mut self.buf);
        self.entries += 1;
        if self.buf.len() + 4 >= BLOCK_BUDGET {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), PersistError> {
        if self.entries == 0 {
            return Ok(());
        }
        let (entries, buf) = (self.entries, &self.buf);
        self.writer.write_block(self.kind, |p| {
            put_u32(p, entries);
            p.extend_from_slice(buf);
        })?;
        self.buf.clear();
        self.entries = 0;
        Ok(())
    }

    fn finish(mut self) -> Result<(), PersistError> {
        self.flush()
    }
}

/// Writes a complete segment for `backend` + `tombstones` to `path`
/// (typically a tmp name the caller renames into place). Streams: at no
/// point is more than one block resident.
pub(crate) fn write_segment<B: PersistentBackend>(
    io: &dyn PersistIo,
    path: &std::path::Path,
    backend: &B,
    tombstones: &[SetId],
    metadata: &MetadataIndex,
    epoch: u64,
) -> Result<(), PersistError> {
    let engine = backend.sharded();
    let db = engine.db();
    let partitioning = engine.partitioning();

    let mut w = BlockWriter::new(io.create(path)?)?;

    let meta = SegmentMeta {
        epoch,
        sim_name: engine.sim().name().to_owned(),
        universe: db.universe_size(),
        n_sets: db.len() as u64,
        n_groups: partitioning.n_groups() as u64,
    };
    w.write_block(KIND_META, |p| meta.put(p))?;

    let mut sec = SectionWriter::new(&mut w, KIND_ASSIGN);
    for &g in partitioning.assignment() {
        sec.entry(|buf| put_u32(buf, g))?;
    }
    sec.finish()?;

    let mut sec = SectionWriter::new(&mut w, KIND_SETS);
    for (_, set) in db.iter() {
        sec.entry(|buf| put_u32s(buf, set))?;
    }
    sec.finish()?;

    w.write_block(KIND_TOMBS, |p| put_u32s(p, tombstones))?;

    // Segments predating attribute metadata carry no METADATA block, and
    // neither do attribute-free indexes — readers treat its absence as
    // "every set has no attributes", keeping old segments loadable.
    if !metadata.is_empty() {
        w.write_block(KIND_METADATA, |p| codec::put_metadata(p, metadata))?;
    }

    w.finish()
}

/// Everything a segment holds, parsed and cross-validated, ready for
/// `DurableIndex::open` to build the index from.
pub(crate) struct RawSegment {
    pub(crate) epoch: u64,
    pub(crate) sim_name: String,
    pub(crate) db: SetDatabase,
    pub(crate) partitioning: Partitioning,
    pub(crate) tombstones: Vec<SetId>,
    /// Attribute metadata; `None` when the segment has no METADATA block
    /// (attribute-free index or a pre-metadata segment).
    pub(crate) metadata: Option<MetadataIndex>,
}

/// Decodes an ASSIGN or TOMBS payload, reporting errors under `section`.
pub(crate) fn decode_ids(payload: &[u8], section: &'static str) -> Result<Vec<u32>, PersistError> {
    Dec::whole(payload, Dec::u32s).map_err(|e| corrupt(section, e))
}

/// Decodes a SETS payload; every set's tokens must be sorted.
pub(crate) fn decode_sets(payload: &[u8]) -> Result<Vec<Vec<TokenId>>, PersistError> {
    let sets = Dec::whole(payload, |d| d.list(Dec::u32s)).map_err(|e| corrupt("SETS", e))?;
    if sets.iter().any(|s| s.windows(2).any(|w| w[0] > w[1])) {
        return Err(corrupt("SETS", "set tokens are not sorted"));
    }
    Ok(sets)
}

/// Partially parsed meta header.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Checkpoint epoch; the live WAL is `wal-<epoch>`.
    pub epoch: u64,
    /// Similarity measure name the index was saved with.
    pub sim_name: String,
    /// Token universe size.
    pub universe: u32,
    /// Number of sets (live + tombstoned).
    pub n_sets: u64,
    /// Number of partitioning groups.
    pub n_groups: u64,
}

impl SegmentMeta {
    /// Writes the META payload; the reserved slot is 0.
    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.epoch);
        put_u32(out, 0);
        put_u32(out, self.universe);
        put_u64(out, self.n_sets);
        put_u64(out, self.n_groups);
        put_str(out, &self.sim_name);
    }

    /// Decodes a META payload. A nonzero reserved slot is a sharded
    /// segment, refused before anything after it is read.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let c = |e| corrupt("META", e);
        let mut d = Dec::new(payload);
        let epoch = d.u64().map_err(c)?;
        let n_shards = d.u32().map_err(c)?;
        if n_shards != 0 {
            return Err(PersistError::Mismatch {
                expected: "a flat segment".into(),
                found: format!("a segment recording {n_shards} shards"),
            });
        }
        let meta = Self {
            universe: d.u32().map_err(c)?,
            n_sets: d.u64().map_err(c)?,
            n_groups: d.u64().map_err(c)?,
            sim_name: d.str().map_err(c)?.to_owned(),
            epoch,
        };
        d.finish().map_err(c)?;
        if meta.n_sets > u32::MAX as u64 || meta.n_groups > u32::MAX as u64 {
            return Err(corrupt("META", "set or group count exceeds u32"));
        }
        Ok(meta)
    }
}

/// Iterates the validated `(kind, payload)` blocks of a segment file,
/// checking magic, version, per-block CRC and the END count.
fn for_each_block(
    bytes: &[u8],
    mut f: impl FnMut(u32, &[u8]) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let mut d = Dec::new(bytes);
    let (Ok(magic), Ok(version)) = (d.u32(), d.u32()) else {
        return Err(corrupt("header", "file shorter than the 8-byte header"));
    };
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let mut n_blocks = 0u64;
    let mut saw_end = false;
    while d.remaining() > 0 {
        if saw_end {
            return Err(corrupt("END", "trailing bytes after the END block"));
        }
        let kind = d.u32().map_err(|e| corrupt("block", e))?;
        let (payload, intact) = d.frame().map_err(|e| corrupt("block", e))?;
        if !intact {
            return Err(corrupt(
                "block",
                format!("CRC mismatch in block kind {kind}"),
            ));
        }
        if kind == KIND_END {
            let declared = Dec::whole(payload, Dec::u64).map_err(|e| corrupt("END", e))?;
            if declared != n_blocks {
                return Err(corrupt(
                    "END",
                    format!("block count mismatch: declared {declared}, found {n_blocks}"),
                ));
            }
            saw_end = true;
            continue;
        }
        n_blocks += 1;
        f(kind, payload)?;
    }
    if !saw_end {
        return Err(corrupt("END", "segment ends without an END block"));
    }
    Ok(())
}

/// Reads and validates only the META header of a segment file.
pub(crate) fn read_meta(path: &std::path::Path) -> Result<SegmentMeta, PersistError> {
    let bytes = std::fs::read(path)?;
    let mut meta: Option<SegmentMeta> = None;
    for_each_block(&bytes, |kind, payload| {
        if kind == KIND_META && meta.is_none() {
            meta = Some(SegmentMeta::decode(payload)?);
        }
        Ok(())
    })?;
    meta.ok_or_else(|| corrupt("META", "segment has no META block"))
}

/// Reads, checksums and cross-validates a whole segment file.
pub(crate) fn read_segment(path: &std::path::Path) -> Result<RawSegment, PersistError> {
    let bytes = std::fs::read(path)?;

    let mut meta: Option<SegmentMeta> = None;
    let mut assignment: Vec<u32> = Vec::new();
    let mut sets: Vec<Vec<TokenId>> = Vec::new();
    let mut tombstones: Option<Vec<SetId>> = None;
    let mut metadata: Option<MetadataIndex> = None;

    for_each_block(&bytes, |kind, payload| {
        if kind != KIND_META && meta.is_none() {
            return Err(corrupt("META", "first block is not META"));
        }
        match kind {
            KIND_META => {
                if meta.is_some() {
                    return Err(corrupt("META", "duplicate META block"));
                }
                meta = Some(SegmentMeta::decode(payload)?);
            }
            KIND_ASSIGN => assignment.extend(decode_ids(payload, "ASSIGN")?),
            KIND_SETS => sets.extend(decode_sets(payload)?),
            KIND_TOMBS => {
                if tombstones.is_some() {
                    return Err(corrupt("TOMBS", "duplicate TOMBS block"));
                }
                let ids = decode_ids(payload, "TOMBS")?;
                if ids.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(corrupt("TOMBS", "tombstones not strictly ascending"));
                }
                tombstones = Some(ids);
            }
            KIND_METADATA => {
                if metadata.is_some() {
                    return Err(corrupt("METADATA", "duplicate METADATA block"));
                }
                metadata = Some(codec::metadata(payload)?);
            }
            // Older builds wrote a MinHash sidecar's 16 parameter bytes
            // here; the CRC held, so it is skipped. Another length is a
            // damaged kind field, not such a block.
            KIND_SIG if payload.len() == 16 => {}
            other => {
                return Err(corrupt("block", format!("unknown block kind {other}")));
            }
        }
        Ok(())
    })?;

    let meta = meta.ok_or_else(|| corrupt("META", "segment has no META block"))?;
    let tombstones = tombstones.ok_or_else(|| corrupt("TOMBS", "segment has no TOMBS block"))?;

    // Cross-section validation: every count and id must agree with META
    // before any structure is built from them.
    let n_sets = meta.n_sets as usize;
    let n_groups = meta.n_groups as usize;
    if assignment.len() != n_sets {
        return Err(corrupt(
            "ASSIGN",
            format!("{} entries for {n_sets} sets", assignment.len()),
        ));
    }
    if let Some(&bad) = assignment.iter().find(|&&g| g as usize >= n_groups) {
        return Err(corrupt("ASSIGN", format!("group {bad} out of range")));
    }
    if sets.len() != n_sets {
        return Err(corrupt(
            "SETS",
            format!("{} sets declared, {n_sets} expected", sets.len()),
        ));
    }
    let mut db = SetDatabase::new(meta.universe);
    for tokens in &sets {
        if tokens.last().is_some_and(|&t| t >= meta.universe) {
            return Err(corrupt("SETS", "token id outside the declared universe"));
        }
        db.push_sorted(tokens);
    }
    // Out-of-range groups were rejected above, so this cannot panic
    // (with zero groups, any assigned set already failed that check).
    let partitioning = Partitioning::from_assignment(assignment, n_groups);

    if tombstones.last().is_some_and(|&id| id as usize >= n_sets) {
        return Err(corrupt("TOMBS", "tombstone id out of range"));
    }

    if let Some(m) = &metadata {
        if m.n_sets() != n_sets {
            return Err(corrupt(
                "METADATA",
                format!("metadata covers {} of {n_sets} sets", m.n_sets()),
            ));
        }
    }

    Ok(RawSegment {
        epoch: meta.epoch,
        sim_name: meta.sim_name,
        db,
        partitioning,
        tombstones,
        metadata,
    })
}
