//! Keys and entry encoding shared by the memtable, WAL, and components.

use std::ops::{Deref, Range};
use std::sync::Arc;

use tc_util::varint;

/// A primary (or composite secondary) key: byte strings compared
/// lexicographically. Integer keys use the order-preserving encodings below.
pub type Key = Vec<u8>;

/// What an entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    Record = 0,
    /// A delete marker (paper §2.2): annihilates any older record with the
    /// same key during merges and reads.
    AntiMatter = 1,
}

/// A payload lent from the buffer that holds it: a shared buffer and the
/// range of it the payload occupies. A row-block scan lends each entry from
/// its block, so the block lives as long as any payload lent from it; a
/// memtable snapshot's payload is its own whole buffer. Cloning a `Lent`
/// shares the buffer, never copies it.
#[derive(Clone, Default)]
pub struct Lent {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Lent {
    /// The bytes `range` of `buf`.
    pub(crate) fn new(buf: &Arc<Vec<u8>>, range: Range<usize>) -> Lent {
        debug_assert!(range.start <= range.end && range.end <= buf.len());
        Lent { buf: Arc::clone(buf), range }
    }

    /// The payload as an owned `Vec`: the buffer itself when this is its
    /// only holder and the payload covers it, a copy otherwise.
    pub fn into_vec(self) -> Vec<u8> {
        if self.range.start == 0 && self.range.end == self.buf.len() {
            match Arc::try_unwrap(self.buf) {
                Ok(whole) => whole,
                Err(shared) => shared[self.range].to_vec(),
            }
        } else {
            self.buf[self.range].to_vec()
        }
    }
}

impl From<Vec<u8>> for Lent {
    /// Wrap `bytes` without copying them.
    fn from(bytes: Vec<u8>) -> Lent {
        let range = 0..bytes.len();
        Lent { buf: Arc::new(bytes), range }
    }
}

impl Deref for Lent {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for Lent {
    fn eq(&self, other: &Lent) -> bool {
        **self == **other
    }
}

impl Eq for Lent {}

impl std::fmt::Debug for Lent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Order-preserving big-endian encoding for unsigned keys.
pub fn encode_u64_key(v: u64) -> Key {
    v.to_be_bytes().to_vec()
}

pub fn decode_u64_key(key: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(key.try_into().ok()?))
}

/// Order-preserving encoding for signed keys (sign bit flipped so byte
/// order matches numeric order).
pub fn encode_i64_key(v: i64) -> Key {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes().to_vec()
}

pub fn decode_i64_key(key: &[u8]) -> Option<i64> {
    let raw = u64::from_be_bytes(key.try_into().ok()?);
    Some((raw ^ (1u64 << 63)) as i64)
}

/// Composite key: secondary key bytes followed by the primary key, with the
/// secondary part length-delimited so ordering is (secondary, primary).
/// Fixed-width secondary encodings keep lexicographic order correct.
pub fn encode_composite_key(secondary: &[u8], primary: &[u8]) -> Key {
    let mut out = Vec::with_capacity(secondary.len() + primary.len());
    out.extend_from_slice(secondary);
    out.extend_from_slice(primary);
    out
}

/// Serialize one entry into a component block / WAL record:
/// `[varint klen][key][kind][varint plen][payload]` (payload only for
/// records).
pub fn write_entry(out: &mut Vec<u8>, key: &[u8], kind: EntryKind, payload: &[u8]) {
    varint::write_u64(out, key.len() as u64);
    out.extend_from_slice(key);
    out.push(kind as u8);
    if kind == EntryKind::Record {
        varint::write_u64(out, payload.len() as u64);
        out.extend_from_slice(payload);
    }
}

/// Parse one entry from `buf`; returns (key, kind, payload, bytes consumed).
#[allow(clippy::type_complexity)]
pub fn read_entry(buf: &[u8]) -> Option<(&[u8], EntryKind, &[u8], usize)> {
    let (klen, mut pos) = varint::read_u64(buf)?;
    let key = buf.get(pos..pos + klen as usize)?;
    pos += klen as usize;
    let kind = match *buf.get(pos)? {
        0 => EntryKind::Record,
        1 => EntryKind::AntiMatter,
        _ => return None,
    };
    pos += 1;
    let payload = if kind == EntryKind::Record {
        let (plen, n) = varint::read_u64(&buf[pos..])?;
        pos += n;
        let p = buf.get(pos..pos + plen as usize)?;
        pos += plen as usize;
        p
    } else {
        &buf[0..0]
    };
    Some((key, kind, payload, pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_keys_preserve_order() {
        let keys = [0u64, 1, 255, 256, 1 << 20, u64::MAX];
        let encoded: Vec<Key> = keys.iter().map(|&k| encode_u64_key(k)).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (&k, e) in keys.iter().zip(&encoded) {
            assert_eq!(decode_u64_key(e), Some(k));
        }
    }

    #[test]
    fn i64_keys_preserve_order_across_zero() {
        let keys = [i64::MIN, -1000, -1, 0, 1, 1000, i64::MAX];
        let encoded: Vec<Key> = keys.iter().map(|&k| encode_i64_key(k)).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (&k, e) in keys.iter().zip(&encoded) {
            assert_eq!(decode_i64_key(e), Some(k));
        }
    }

    #[test]
    fn composite_keys_sort_by_secondary_then_primary() {
        let a = encode_composite_key(&encode_i64_key(5), &encode_u64_key(99));
        let b = encode_composite_key(&encode_i64_key(5), &encode_u64_key(100));
        let c = encode_composite_key(&encode_i64_key(6), &encode_u64_key(0));
        assert!(a < b && b < c);
    }

    #[test]
    fn entry_roundtrip() {
        let mut buf = Vec::new();
        write_entry(&mut buf, b"key1", EntryKind::Record, b"payload");
        write_entry(&mut buf, b"key2", EntryKind::AntiMatter, &[]);
        write_entry(&mut buf, b"", EntryKind::Record, &[]);
        let (k, kind, p, n1) = read_entry(&buf).unwrap();
        assert_eq!((k, kind, p), (&b"key1"[..], EntryKind::Record, &b"payload"[..]));
        let (k, kind, p, n2) = read_entry(&buf[n1..]).unwrap();
        assert_eq!((k, kind, p), (&b"key2"[..], EntryKind::AntiMatter, &b""[..]));
        let (k, kind, p, n3) = read_entry(&buf[n1 + n2..]).unwrap();
        assert_eq!((k, kind, p), (&b""[..], EntryKind::Record, &b""[..]));
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn lent_bytes_share_their_buffer() {
        let buf = Arc::new(b"headpayloadtail".to_vec());
        let lent = Lent::new(&buf, 4..11);
        assert_eq!(&*lent, b"payload");
        assert_eq!(Arc::strong_count(&buf), 2);
        assert_eq!(lent.clone().into_vec(), b"payload".to_vec());
        assert_eq!(lent, Lent::from(b"payload".to_vec()));
        assert_eq!(format!("{lent:?}"), format!("{:?}", &b"payload"[..]));
        // A whole, unshared buffer comes back without a copy.
        let whole = Lent::from(vec![1, 2, 3]);
        let ptr = whole.as_ptr();
        let v = whole.into_vec();
        assert_eq!((v.as_ptr(), v), (ptr, vec![1, 2, 3]));
        assert!(Lent::default().is_empty());
    }

    #[test]
    fn truncated_entries_rejected() {
        let mut buf = Vec::new();
        write_entry(&mut buf, b"key", EntryKind::Record, b"data");
        for cut in 0..buf.len() {
            assert!(read_entry(&buf[..cut]).is_none(), "cut={cut}");
        }
    }
}
