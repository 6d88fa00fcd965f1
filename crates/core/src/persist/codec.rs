//! The one byte codec of the persistence layer: segment blocks, the
//! METADATA layout and WAL records are all written by these encoders and
//! read by [`Dec`].
//!
//! * `u32` / `u64` — little-endian;
//! * a string — `u32` byte length, then UTF-8 bytes;
//! * a `u32` array — `u32` count, then the values;
//! * a list — `u32` count, then the items;
//! * a frame — `u32` payload length, `u32` CRC32 of the payload, then
//!   the payload. A segment block is its `u32` kind and a frame; a WAL
//!   record is a frame.
//!
//! [`Dec`] checks every length and count against the bytes that are
//! present, with checked arithmetic, and a string for UTF-8 — nothing
//! else: what a section's values must satisfy is its reader's to check.
//! Both readers hold the whole file in memory, so bounding every
//! length by the bytes that back it also bounds every allocation a
//! decode makes. Nothing caps a length below that: whatever the writers
//! write, the readers read.
//!
//! The METADATA block's layout lives here too:
//!
//! ```text
//! u32 n_pairs, n_pairs × (string key, string value)   — interned pairs, pair-id order
//! u32 n_sets,  n_sets × (u32 array of pair ids)       — per set id, strictly ascending
//! ```

use super::io::crc32;
use super::PersistError;
use crate::metadata::MetadataIndex;

/// A decode failure: which length or count the bytes could not back.
pub(crate) type Result<T> = std::result::Result<T, &'static str>;

const SHORT: &str = "payload shorter than declared";

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a length-prefixed string. Lengths here, like the counts of
/// [`put_u32s`] and the lists, are `as u32`: any that overflows makes
/// the enclosing payload overflow its frame, which [`put_frame`] refuses.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Writes a count-prefixed `u32` array.
pub(crate) fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u32(out, v);
    }
}

/// Writes a list of `(key, value)` string pairs.
pub(crate) fn put_pairs(out: &mut Vec<u8>, pairs: &[(String, String)]) {
    put_u32(out, pairs.len() as u32);
    for (k, v) in pairs {
        put_str(out, k);
        put_str(out, v);
    }
}

/// Appends a frame whose payload `payload` writes. A payload past
/// `u32::MAX` bytes is refused (as an `InvalidInput` I/O error) and
/// leaves `out` as it was.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> std::result::Result<(), PersistError> {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let Ok(len) = u32::try_from(out.len() - at - 8) else {
        out.truncate(at);
        return Err(PersistError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "payload exceeds a frame's u32 length",
        )));
    };
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Writes the METADATA block's payload (layout in the module docs).
pub(crate) fn put_metadata(out: &mut Vec<u8>, meta: &MetadataIndex) {
    put_pairs(out, meta.pairs());
    put_u32(out, meta.n_sets() as u32);
    for id in 0..meta.n_sets() {
        put_u32s(out, meta.pair_ids(id));
    }
}

/// Decodes a METADATA payload; the interning and posting invariants are
/// [`MetadataIndex::from_parts`]'s to check.
pub(crate) fn metadata(payload: &[u8]) -> std::result::Result<MetadataIndex, PersistError> {
    let corrupt = |detail: String| PersistError::Corrupt {
        section: "METADATA",
        detail,
    };
    let (pairs, sets) = Dec::whole(payload, |d| Ok((d.pairs()?, d.list(Dec::u32s)?)))
        .map_err(|e| corrupt(e.into()))?;
    MetadataIndex::from_parts(pairs, sets).map_err(|e| corrupt(e.to_string()))
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0; 4];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

/// A bounds-checked reader over a byte slice.
pub(crate) struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Runs `f` over `bytes`, which it must consume exactly.
    pub(crate) fn whole<T>(bytes: &'a [u8], f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let mut d = Self::new(bytes);
        let out = f(&mut d)?;
        d.finish()?;
        Ok(out)
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Fails unless every byte has been read.
    pub(crate) fn finish(&self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err("trailing bytes")
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(SHORT);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.take(4).map(le_u32)
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let mut a = [0; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| "string is not UTF-8")
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(SHORT)?)?;
        Ok(bytes.chunks_exact(4).map(le_u32).collect())
    }

    /// A count, then that many items. Every item reads at least one
    /// length, so a count the bytes cannot back fails at the first item
    /// they run out under.
    pub(crate) fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.u32()?;
        (0..n).map(|_| item(self)).collect()
    }

    pub(crate) fn pairs(&mut self) -> Result<Vec<(String, String)>> {
        self.list(|d| Ok((d.str()?.to_owned(), d.str()?.to_owned())))
    }

    /// The next frame: its payload, and whether its CRC holds.
    pub(crate) fn frame(&mut self) -> Result<(&'a [u8], bool)> {
        let len = self.u32()? as usize;
        let crc = self.u32()?;
        let payload = self.take(len)?;
        Ok((payload, crc32(payload) == crc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::Filter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kv(k: &str, v: &str) -> (String, String) {
        (k.to_owned(), v.to_owned())
    }

    fn sample() -> MetadataIndex {
        let mut meta = MetadataIndex::new();
        meta.push(&[kv("lang", "en"), kv("tier", "gold")]); // 0
        meta.push(&[kv("lang", "de"), kv("tier", "gold")]); // 1
        meta.push(&[kv("lang", "en")]); // 2
        meta.push(&[]); // 3
        meta.push(&[kv("lang", "fr"), kv("tier", "silver")]); // 4
        meta
    }

    fn encoded(meta: &MetadataIndex) -> Vec<u8> {
        let mut out = Vec::new();
        put_metadata(&mut out, meta);
        out
    }

    #[test]
    fn duplicate_attrs_collapse_and_roundtrip() {
        let mut meta = MetadataIndex::new();
        meta.push(&[kv("a", "1"), kv("a", "1"), kv("b", "2")]);
        assert_eq!(meta.attrs(0), vec![kv("a", "1"), kv("b", "2")]);
        let decoded = metadata(&encoded(&meta)).expect("roundtrip");
        assert_eq!(decoded.attrs(0), meta.attrs(0));
    }

    #[test]
    fn encode_decode_roundtrip_preserves_eval() {
        let meta = sample();
        let decoded = metadata(&encoded(&meta)).expect("roundtrip");
        assert_eq!(decoded.n_sets(), meta.n_sets());
        assert_eq!(decoded.n_pairs(), meta.n_pairs());
        for f in [
            Filter::Eq {
                key: "lang".into(),
                value: "en".into(),
            },
            Filter::And(vec![]),
            Filter::Or(vec![Filter::Eq {
                key: "tier".into(),
                value: "silver".into(),
            }]),
        ] {
            assert_eq!(decoded.eval(&f).to_vec(), meta.eval(&f).to_vec());
        }
        for id in 0..meta.n_sets() as u32 {
            assert_eq!(decoded.attrs(id), meta.attrs(id));
        }
    }

    /// A set without attributes stores nothing: the per-set lists cover
    /// the ids up to the last attributed set, before and after a
    /// round trip, while ids, `attrs`, `And([])` and the encoded count
    /// still cover every set.
    #[test]
    fn sets_without_attributes_store_nothing() {
        let mut meta = MetadataIndex::new();
        meta.push_empty(1000);
        meta.push(&[]);
        assert_eq!((meta.n_sets(), meta.stored_sets()), (1001, 0));
        assert!(meta.is_empty());
        assert_eq!(meta.push(&[kv("lang", "en")]), 1001);
        meta.push_empty(500);
        meta.push(&[]);
        assert_eq!((meta.n_sets(), meta.stored_sets()), (1503, 1002));
        let bytes = encoded(&meta);
        // Pair table (4 + 4 + 4 + 4 + 2 bytes), set count, one length per
        // set and the one pair id.
        assert_eq!(bytes.len(), 18 + 4 + 4 * 1503 + 4);
        let decoded = metadata(&bytes).expect("roundtrip");
        assert_eq!((decoded.n_sets(), decoded.stored_sets()), (1503, 1002));
        assert_eq!(encoded(&decoded), bytes);
        for id in [0u32, 1000, 1001, 1002, 1502, 1503] {
            assert_eq!(decoded.attrs(id), meta.attrs(id), "id {id}");
        }
        assert_eq!(decoded.attrs(1001), vec![kv("lang", "en")]);
        assert_eq!(decoded.eval(&Filter::And(vec![])).len(), 1503);
    }

    #[test]
    fn decode_never_panics_on_mutated_payloads() {
        // The flip/truncate-every-byte sweep: decode must return (Ok or
        // Err) on every mutation, and Ok only for payloads that are
        // genuinely valid re-encodings.
        let good = encoded(&sample());
        for cut in 0..good.len() {
            let _ = metadata(&good[..cut]);
        }
        for i in 0..good.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[i] ^= flip;
                if let Ok(decoded) = metadata(&bad) {
                    assert_eq!(encoded(&decoded), bad, "accepted payload must re-encode");
                }
            }
        }
    }

    #[test]
    fn decode_rejects_structural_corruption() {
        // Out-of-range pair id.
        let mut meta = MetadataIndex::new();
        meta.push(&[kv("k", "v")]);
        let mut bytes = encoded(&meta);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&7u32.to_le_bytes());
        assert!(metadata(&bytes).is_err());
        // Fantasy pair count.
        let mut bytes = encoded(&meta);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(metadata(&bytes).is_err());
        // Trailing garbage.
        let mut bytes = encoded(&meta);
        bytes.push(0);
        assert!(metadata(&bytes).is_err());
    }

    #[test]
    fn random_roundtrips_agree_with_model() {
        let mut rng = StdRng::seed_from_u64(0xA77);
        for _ in 0..50 {
            let mut meta = MetadataIndex::new();
            let n = rng.gen_range(0usize..40);
            for _ in 0..n {
                let n_attrs = rng.gen_range(0usize..5);
                let attrs: Vec<(String, String)> = (0..n_attrs)
                    .map(|_| {
                        (
                            format!("k{}", rng.gen_range(0..4)),
                            format!("v{}", rng.gen_range(0..6)),
                        )
                    })
                    .collect();
                meta.push(&attrs);
            }
            let decoded = metadata(&encoded(&meta)).expect("roundtrip");
            for id in 0..meta.n_sets() as u32 {
                assert_eq!(decoded.attrs(id), meta.attrs(id));
            }
        }
    }
}
