//! The write-ahead log: checksummed, length-prefixed mutation records
//! appended after the last checkpoint.
//!
//! ```text
//! per record:
//!   u32  payload length
//!   u32  CRC32 of the payload
//!   payload:
//!     u8 1 (insert), u32 n, n × u32 token   — tokens as given, unsorted
//!     u8 2 (delete), u32 set id
//!     u8 3 (insert with attributes), u32 n, n × u32 token,
//!          u32 m, m × (u32 key len, key bytes, u32 value len, value bytes)
//! ```
//!
//! Replay semantics (the crash contract): a record whose declared extent
//! reaches or passes the end of the file, or whose checksum fails while
//! it is the file's final record, is a **torn tail** — the clean end of
//! the log, exactly what a crash mid-append leaves behind. A checksum
//! failure or malformed payload with further bytes after it is an
//! **interior** corruption: a hard, descriptive error, because silently
//! resuming past it could replay mutations out of order and break
//! exactness.

use les3_data::{SetId, TokenId};

use super::codec::{put_frame, put_pairs, put_u32, put_u32s, Dec};
#[cfg(test)]
use super::io::crc32;
use super::PersistError;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_INSERT_ATTRS: u8 = 3;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// Tokens exactly as the caller passed them (the insert path sorts).
    Insert(Vec<TokenId>),
    Delete(SetId),
    /// An insert carrying the set's key/value attributes.
    InsertAttrs(Vec<TokenId>, Vec<(String, String)>),
}

impl WalRecord {
    /// Serializes the record, framing included.
    pub(crate) fn framed(&self) -> Result<Vec<u8>, PersistError> {
        let mut out = Vec::new();
        put_frame(&mut out, |p| match self {
            WalRecord::Insert(tokens) => {
                p.push(KIND_INSERT);
                put_u32s(p, tokens);
            }
            WalRecord::Delete(id) => {
                p.push(KIND_DELETE);
                put_u32(p, *id);
            }
            WalRecord::InsertAttrs(tokens, attrs) => {
                p.push(KIND_INSERT_ATTRS);
                put_u32s(p, tokens);
                put_pairs(p, attrs);
            }
        })?;
        Ok(out)
    }

    /// [`WalRecord::framed`], for records no frame length can overflow.
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        self.framed().expect("a test record fits its frame")
    }

    /// Decodes one record's payload.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(payload);
        let record = match d.u8()? {
            KIND_INSERT => WalRecord::Insert(d.u32s()?),
            KIND_DELETE => WalRecord::Delete(d.u32()?),
            KIND_INSERT_ATTRS => WalRecord::InsertAttrs(d.u32s()?, d.pairs()?),
            k => return Err(format!("unknown record kind {k}")),
        };
        d.finish()?;
        Ok(record)
    }
}

fn interior(offset: usize, detail: impl Into<String>) -> PersistError {
    PersistError::WalCorrupt {
        offset: offset as u64,
        detail: detail.into(),
    }
}

/// The outcome of [`parse_wal`]: the replayable records plus where the
/// clean prefix ends. Torn tail bytes past `clean_len` must be clipped
/// (`File::set_len`) before the log is appended to again — a new record
/// written after them would read back as interior corruption (hard
/// error) or merge into the tear and be silently dropped.
#[derive(Debug)]
pub(crate) struct ParsedWal {
    pub records: Vec<WalRecord>,
    /// Byte length of the parsed prefix; `bytes[..clean_len]` holds
    /// exactly `records`, anything after it is a torn tail.
    pub clean_len: u64,
}

/// Parses a WAL image into its records, applying the torn-tail rule: a
/// frame whose header or payload runs past the end of the file is the
/// tail, and so is a final frame whose CRC fails.
pub(crate) fn parse_wal(bytes: &[u8]) -> Result<ParsedWal, PersistError> {
    let mut records = Vec::new();
    let mut d = Dec::new(bytes);
    let mut pos = 0usize;
    while let Ok((payload, intact)) = d.frame() {
        if !intact {
            if d.remaining() == 0 {
                break;
            }
            return Err(interior(pos, "checksum mismatch with records after it"));
        }
        records.push(WalRecord::decode(payload).map_err(|e| interior(pos, e))?);
        pos = bytes.len() - d.remaining();
    }
    Ok(ParsedWal {
        records,
        clean_len: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs_record() -> WalRecord {
        WalRecord::InsertAttrs(
            vec![3, 1, 4],
            vec![
                ("color".to_string(), "red".to_string()),
                ("size".to_string(), String::new()),
            ],
        )
    }

    fn sample() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WalRecord::Insert(vec![5, 2, 9]).encode());
        bytes.extend_from_slice(&WalRecord::Delete(7).encode());
        bytes.extend_from_slice(&attrs_record().encode());
        bytes.extend_from_slice(&WalRecord::Insert(vec![1]).encode());
        bytes
    }

    #[test]
    fn round_trips_records() {
        let parsed = parse_wal(&sample()).unwrap();
        assert_eq!(
            parsed.records,
            vec![
                WalRecord::Insert(vec![5, 2, 9]),
                WalRecord::Delete(7),
                attrs_record(),
                WalRecord::Insert(vec![1]),
            ]
        );
        assert_eq!(parsed.clean_len, sample().len() as u64);
        let empty = parse_wal(&[]).unwrap();
        assert!(empty.records.is_empty());
        assert_eq!(empty.clean_len, 0);
    }

    #[test]
    fn every_truncation_is_a_clean_prefix() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let parsed = parse_wal(&bytes[..cut]).expect("truncation is never an error");
            assert!(parsed.records.len() <= 4);
            // The parsed prefix must be an exact prefix of the full log.
            let full = parse_wal(&bytes).unwrap();
            assert_eq!(parsed.records[..], full.records[..parsed.records.len()]);
            // And clean_len must point at the end of that prefix: the
            // torn bytes after it, reparsed alone, yield nothing more.
            assert!(parsed.clean_len as usize <= cut);
            let reparsed = parse_wal(&bytes[..parsed.clean_len as usize]).unwrap();
            assert_eq!(reparsed.records, parsed.records);
            assert_eq!(reparsed.clean_len, parsed.clean_len);
        }
    }

    #[test]
    fn corrupt_final_record_is_a_clean_end() {
        let mut bytes = sample();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // damage the last record's payload
        let parsed = parse_wal(&bytes).unwrap();
        assert_eq!(
            parsed.records.len(),
            3,
            "the damaged tail record is dropped"
        );
        assert_eq!(
            parsed.clean_len,
            (WalRecord::Insert(vec![5, 2, 9]).encode().len()
                + WalRecord::Delete(7).encode().len()
                + attrs_record().encode().len()) as u64
        );
    }

    #[test]
    fn malformed_attrs_payload_is_an_error_not_a_panic() {
        // Rewrite the attribute count to a fantasy value; the CRC is
        // recomputed so the damage is semantic, not a checksum failure —
        // and a record follows, so this is interior corruption.
        let rec = attrs_record().encode();
        let count_at = 8 + 1 + 4 + 3 * 4; // frame + kind + n + tokens
        let mut payload = rec[8..].to_vec();
        payload[count_at - 8..count_at - 8 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&WalRecord::Delete(1).encode());
        let err = parse_wal(&bytes).unwrap_err();
        assert!(err.to_string().contains("offset 0"), "got: {err}");

        // Non-UTF-8 attribute bytes are likewise rejected.
        let mut payload = attrs_record().encode()[8..].to_vec();
        let key_at = 1 + 4 + 3 * 4 + 4 + 4; // kind + n + tokens + m + klen
        payload[key_at] = 0xff;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&WalRecord::Delete(1).encode());
        let err = parse_wal(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "got: {err}");
    }

    #[test]
    fn corrupt_interior_record_is_a_hard_error() {
        let mut bytes = sample();
        // Damage the first record's payload (well before the tail).
        bytes[9] ^= 0xff;
        let err = parse_wal(&bytes).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("offset 0"), "descriptive error, got: {msg}");
    }

    #[test]
    fn absurd_length_field_reads_as_torn_tail() {
        let first = WalRecord::Delete(1).encode();
        let mut bytes = first.clone();
        let mut torn = WalRecord::Delete(2).encode();
        torn[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&torn);
        let parsed = parse_wal(&bytes).unwrap();
        assert_eq!(parsed.records, vec![WalRecord::Delete(1)]);
        assert_eq!(parsed.clean_len, first.len() as u64);
    }
}
