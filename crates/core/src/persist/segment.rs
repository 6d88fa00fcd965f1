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
//! | 1 | META    | epoch u64, n_shards u32 (0 = flat), universe u32, n_sets u64, n_groups u64, sim name (u32 len + bytes) |
//! | 2 | ASSIGN  | u32 count, count × u32 group-of-set, in set-id order |
//! | 3 | SETS    | u32 count, count × (u32 len, len × u32 sorted tokens) |
//! | 6 | SHARDS  | u32 count, count × u32 shard-of-group (sharded only) |
//! | 7 | TOMBS   | u32 count, count × u32 deleted set ids, ascending |
//! | 8 | METADATA | `MetadataIndex::encode` bytes (only when attributes exist) |
//! | 9 | SIG     | `ApproxParams::encode` bytes: bands u32, rows u32, seed u64 (only when the approximate tier is enabled) |
//! | 0 | END     | u64 number of preceding blocks |
//!
//! A segment stores what cannot be recomputed — the sets, the learned
//! assignment, the shard layout, the tombstones, the attributes, the
//! sidecar's parameters — and nothing derived from them: the TGM, the
//! verification order, the deletion refcounts and the MinHash signatures
//! are rebuilt at open by the code a fresh index is built by. Kinds 4
//! (TGM) and 5 (RUNS) belonged to format version 1, which stored a copy
//! of that derived state; they are unknown kinds now and a version-1
//! file is [`PersistError::UnsupportedVersion`].
//!
//! Multi-entry sections (ASSIGN/SETS) may span several blocks; blocks
//! are flushed near [`BLOCK_BUDGET`] bytes so saving streams entry by
//! entry and never materializes the index a second time. The END block
//! must be last and count every preceding block — a segment truncated at
//! a block boundary is detected by its absence, and a segment truncated
//! or corrupted mid-block by the length prefix or the CRC. All integers
//! are little-endian.

use les3_data::{SetDatabase, SetId, TokenId};

use super::io::{crc32, PersistIo, WriteSync};
use super::{PersistError, PersistentBackend};
use crate::approx::ApproxParams;
use crate::metadata::MetadataIndex;
use crate::partitioning::Partitioning;
use crate::sim::Similarity;

pub(crate) const MAGIC: u32 = 0x4c53_3353; // "LS3S"
pub(crate) const VERSION: u32 = 2;

/// Flush threshold for multi-entry blocks. One entry may exceed it (a
/// huge set gets its own oversized block); the reader caps block length
/// at [`MAX_BLOCK`] instead.
const BLOCK_BUDGET: usize = 64 << 10;

/// Upper bound a reader will believe for one block's payload length.
const MAX_BLOCK: u32 = 64 << 20;

pub(crate) const KIND_END: u32 = 0;
pub(crate) const KIND_META: u32 = 1;
pub(crate) const KIND_ASSIGN: u32 = 2;
pub(crate) const KIND_SETS: u32 = 3;
pub(crate) const KIND_SHARDS: u32 = 6;
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
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&VERSION.to_le_bytes())?;
        Ok(Self { out, n_blocks: 0 })
    }

    fn write_block(&mut self, kind: u32, payload: &[u8]) -> Result<(), PersistError> {
        self.out.write_all(&kind.to_le_bytes())?;
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        self.n_blocks += 1;
        Ok(())
    }

    /// Writes the END block and fsyncs the file.
    fn finish(mut self) -> Result<(), PersistError> {
        let payload = self.n_blocks.to_le_bytes();
        self.write_block(KIND_END, &payload)?;
        self.out.sync()?;
        Ok(())
    }
}

/// Accumulates entries of one section and flushes a block whenever the
/// buffer passes the budget. The entry count is patched into the first
/// four payload bytes at flush time.
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
            buf: vec![0, 0, 0, 0],
            entries: 0,
        }
    }

    fn entry(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), PersistError> {
        write(&mut self.buf);
        self.entries += 1;
        if self.buf.len() >= BLOCK_BUDGET {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), PersistError> {
        if self.entries == 0 {
            return Ok(());
        }
        self.buf[..4].copy_from_slice(&self.entries.to_le_bytes());
        self.writer.write_block(self.kind, &self.buf)?;
        self.buf.clear();
        self.buf.extend_from_slice(&[0, 0, 0, 0]);
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
    let n_shards = backend.n_shards();

    let mut w = BlockWriter::new(io.create(path)?)?;

    let mut meta = Vec::new();
    meta.extend_from_slice(&epoch.to_le_bytes());
    meta.extend_from_slice(&n_shards.to_le_bytes());
    meta.extend_from_slice(&db.universe_size().to_le_bytes());
    meta.extend_from_slice(&(db.len() as u64).to_le_bytes());
    meta.extend_from_slice(&(partitioning.n_groups() as u64).to_le_bytes());
    let name = engine.sim().name();
    meta.extend_from_slice(&(name.len() as u32).to_le_bytes());
    meta.extend_from_slice(name.as_bytes());
    w.write_block(KIND_META, &meta)?;

    let mut sec = SectionWriter::new(&mut w, KIND_ASSIGN);
    for &g in partitioning.assignment() {
        sec.entry(|buf| buf.extend_from_slice(&g.to_le_bytes()))?;
    }
    sec.finish()?;

    let mut sec = SectionWriter::new(&mut w, KIND_SETS);
    for (_, set) in db.iter() {
        sec.entry(|buf| {
            buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for &t in set {
                buf.extend_from_slice(&t.to_le_bytes());
            }
        })?;
    }
    sec.finish()?;

    if let Some(sog) = backend.shard_layout() {
        let mut payload = Vec::with_capacity(4 + 4 * sog.len());
        payload.extend_from_slice(&(sog.len() as u32).to_le_bytes());
        for &s in sog {
            payload.extend_from_slice(&s.to_le_bytes());
        }
        w.write_block(KIND_SHARDS, &payload)?;
    }

    let mut payload = Vec::with_capacity(4 + 4 * tombstones.len());
    payload.extend_from_slice(&(tombstones.len() as u32).to_le_bytes());
    for &id in tombstones {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    w.write_block(KIND_TOMBS, &payload)?;

    // Segments predating attribute metadata carry no METADATA block, and
    // neither do attribute-free indexes — readers treat its absence as
    // "every set has no attributes", keeping old segments loadable.
    if !metadata.is_empty() {
        w.write_block(KIND_METADATA, &metadata.encode())?;
    }

    // The approximate tier travels as its parameters: absence means the
    // tier was never enabled and the reopened index answers only exact
    // queries until `enable_approx` builds a sidecar.
    if let Some(mh) = engine.approx_sidecar() {
        w.write_block(KIND_SIG, &mh.params().encode())?;
    }

    w.finish()
}

/// Everything a segment holds, parsed and cross-validated, ready for
/// `DurableIndex::open` to build the index from.
pub(crate) struct RawSegment {
    pub(crate) epoch: u64,
    pub(crate) sim_name: String,
    /// 0 = flat.
    pub(crate) n_shards: u32,
    pub(crate) db: SetDatabase,
    pub(crate) partitioning: Partitioning,
    pub(crate) shard_of_group: Option<Vec<u32>>,
    pub(crate) tombstones: Vec<SetId>,
    /// Attribute metadata; `None` when the segment has no METADATA block
    /// (attribute-free index or a pre-metadata segment).
    pub(crate) metadata: Option<MetadataIndex>,
    /// The MinHash sidecar's parameters; `None` when the segment has no
    /// SIG block (the approximate tier was not enabled at save time).
    pub(crate) approx: Option<ApproxParams>,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.buf.len() - self.pos {
            return Err(corrupt(self.section, "payload shorter than declared"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(super::le_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(super::le_u64(self.take(8)?))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Decodes a `u32 count, count × u32` payload — the ASSIGN, SHARDS and
/// TOMBS blocks — reporting errors under `section`.
fn u32_array(payload: &[u8], section: &'static str) -> Result<Vec<u32>, PersistError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
        section,
    };
    let n = r.u32()? as usize;
    if n > r.remaining() / 4 {
        return Err(corrupt(section, "entry count exceeds payload"));
    }
    let out = (0..n).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
    if !r.done() {
        return Err(corrupt(section, "trailing bytes"));
    }
    Ok(out)
}

/// Partially parsed meta header.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Checkpoint epoch; the live WAL is `wal-<epoch>`.
    pub epoch: u64,
    /// Similarity measure name the index was saved with.
    pub sim_name: String,
    /// Number of shards; 0 means a flat index.
    pub n_shards: u32,
    /// Token universe size.
    pub universe: u32,
    /// Number of sets (live + tombstoned).
    pub n_sets: u64,
    /// Number of partitioning groups.
    pub n_groups: u64,
}

fn parse_meta(payload: &[u8]) -> Result<SegmentMeta, PersistError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
        section: "META",
    };
    let epoch = r.u64()?;
    let n_shards = r.u32()?;
    let universe = r.u32()?;
    let n_sets = r.u64()?;
    let n_groups = r.u64()?;
    let name_len = r.u32()? as usize;
    if name_len > r.remaining() {
        return Err(corrupt("META", "similarity name overruns payload"));
    }
    let sim_name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| corrupt("META", "similarity name is not UTF-8"))?;
    if !r.done() {
        return Err(corrupt("META", "trailing bytes"));
    }
    if n_sets > u32::MAX as u64 || n_groups > u32::MAX as u64 {
        return Err(corrupt("META", "set or group count exceeds u32"));
    }
    Ok(SegmentMeta {
        epoch,
        sim_name,
        n_shards,
        universe,
        n_sets,
        n_groups,
    })
}

/// Iterates the validated `(kind, payload)` blocks of a segment file,
/// checking magic, version, per-block CRC and the END count.
fn for_each_block(
    bytes: &[u8],
    mut f: impl FnMut(u32, &[u8]) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    if bytes.len() < 8 {
        return Err(corrupt("header", "file shorter than the 8-byte header"));
    }
    if super::le_u32(&bytes[0..4]) != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = super::le_u32(&bytes[4..8]);
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let mut pos = 8usize;
    let mut n_blocks = 0u64;
    let mut saw_end = false;
    while pos < bytes.len() {
        if saw_end {
            return Err(corrupt("END", "trailing bytes after the END block"));
        }
        if bytes.len() - pos < 12 {
            return Err(corrupt("block", "truncated block header"));
        }
        let kind = super::le_u32(&bytes[pos..pos + 4]);
        let len = super::le_u32(&bytes[pos + 4..pos + 8]);
        let crc = super::le_u32(&bytes[pos + 8..pos + 12]);
        if len > MAX_BLOCK {
            return Err(corrupt("block", format!("block length {len} exceeds cap")));
        }
        pos += 12;
        if len as usize > bytes.len() - pos {
            return Err(corrupt("block", "payload overruns the file"));
        }
        let payload = &bytes[pos..pos + len as usize];
        pos += len as usize;
        if crc32(payload) != crc {
            return Err(corrupt(
                "block",
                format!("CRC mismatch in block kind {kind}"),
            ));
        }
        if kind == KIND_END {
            let mut r = Reader {
                buf: payload,
                pos: 0,
                section: "END",
            };
            let declared = r.u64()?;
            if !r.done() {
                return Err(corrupt("END", "trailing bytes"));
            }
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
            meta = Some(parse_meta(payload)?);
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
    let mut shard_of_group: Option<Vec<u32>> = None;
    let mut tombstones: Option<Vec<SetId>> = None;
    let mut metadata: Option<MetadataIndex> = None;
    let mut approx: Option<ApproxParams> = None;

    for_each_block(&bytes, |kind, payload| {
        if kind != KIND_META && meta.is_none() {
            return Err(corrupt("META", "first block is not META"));
        }
        match kind {
            KIND_META => {
                if meta.is_some() {
                    return Err(corrupt("META", "duplicate META block"));
                }
                meta = Some(parse_meta(payload)?);
            }
            KIND_ASSIGN => assignment.extend(u32_array(payload, "ASSIGN")?),
            KIND_SETS => {
                let mut r = Reader {
                    buf: payload,
                    pos: 0,
                    section: "SETS",
                };
                let n = r.u32()? as usize;
                for _ in 0..n {
                    let len = r.u32()? as usize;
                    if len > r.remaining() / 4 {
                        return Err(corrupt("SETS", "set length exceeds payload"));
                    }
                    let mut tokens = Vec::with_capacity(len);
                    for _ in 0..len {
                        tokens.push(r.u32()?);
                    }
                    if tokens.windows(2).any(|w| w[0] > w[1]) {
                        return Err(corrupt("SETS", "set tokens are not sorted"));
                    }
                    sets.push(tokens);
                }
                if !r.done() {
                    return Err(corrupt("SETS", "trailing bytes"));
                }
            }
            KIND_SHARDS => {
                if shard_of_group.is_some() {
                    return Err(corrupt("SHARDS", "duplicate SHARDS block"));
                }
                shard_of_group = Some(u32_array(payload, "SHARDS")?);
            }
            KIND_TOMBS => {
                if tombstones.is_some() {
                    return Err(corrupt("TOMBS", "duplicate TOMBS block"));
                }
                let ids = u32_array(payload, "TOMBS")?;
                if ids.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(corrupt("TOMBS", "tombstones not strictly ascending"));
                }
                tombstones = Some(ids);
            }
            KIND_METADATA => {
                if metadata.is_some() {
                    return Err(corrupt("METADATA", "duplicate METADATA block"));
                }
                metadata = Some(
                    MetadataIndex::decode(payload)
                        .map_err(|e| corrupt("METADATA", e.to_string()))?,
                );
            }
            KIND_SIG => {
                if approx.is_some() {
                    return Err(corrupt("SIG", "duplicate SIG block"));
                }
                approx = Some(ApproxParams::decode(payload).map_err(|e| corrupt("SIG", e))?);
            }
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

    if let Some(sog) = &shard_of_group {
        if meta.n_shards == 0 {
            return Err(corrupt("SHARDS", "SHARDS block in a flat segment"));
        }
        if sog.len() != n_groups {
            return Err(corrupt(
                "SHARDS",
                format!("{} entries for {n_groups} groups", sog.len()),
            ));
        }
        if let Some(&bad) = sog.iter().find(|&&s| s >= meta.n_shards) {
            return Err(corrupt("SHARDS", format!("shard {bad} out of range")));
        }
    } else if meta.n_shards > 0 {
        return Err(corrupt("SHARDS", "sharded segment lacks a SHARDS block"));
    }

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
        n_shards: meta.n_shards,
        db,
        partitioning,
        shard_of_group,
        tombstones,
        metadata,
        approx,
    })
}
