//! The in-memory component.
//!
//! A sorted map under a byte budget. Records here are *not* compacted — the
//! paper (§3.1) deliberately leaves in-memory records untouched because the
//! savings would be negligible and concurrent maintenance would slow
//! ingestion. Deletes store anti-matter entries carrying an opaque
//! attachment (the anti-schema, §3.2.2) for the flush hook to process.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::entry::Key;

/// An entry in the in-memory component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemEntry {
    Record(Vec<u8>),
    /// Anti-matter with an optional hook attachment: the anti-schema, which
    /// is the retired version's stored bytes. It counts against the budget
    /// (see `weight`), is consumed at flush and never written to disk.
    AntiMatter(Option<Vec<u8>>),
}

impl MemEntry {
    fn weight(&self, key_len: usize) -> usize {
        // Rough per-entry memory footprint: key + payload + node overhead.
        const NODE_OVERHEAD: usize = 64;
        key_len
            + NODE_OVERHEAD
            + match self {
                MemEntry::Record(p) => p.len(),
                MemEntry::AntiMatter(a) => a.as_ref().map_or(0, Vec::len),
            }
    }
}

/// The in-memory component: a BTreeMap plus byte accounting.
#[derive(Debug, Default)]
pub struct Memtable {
    map: BTreeMap<Key, MemEntry>,
    bytes: usize,
}

impl Memtable {
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Insert or overwrite. Within one in-memory component the latest write
    /// wins (an upsert's delete+insert collapses to the insert). Returns the
    /// displaced entry — the tree inspects it to preserve anti-schema
    /// attachments that a subsequent insert would otherwise discard
    /// (§3.2.2: the compactor must still decrement counters for the old,
    /// *flushed* version of an upserted record).
    pub fn put(&mut self, key: Key, entry: MemEntry) -> Option<MemEntry> {
        let key_len = key.len();
        let add = entry.weight(key_len);
        let displaced = self.map.insert(key, entry);
        if let Some(old) = &displaced {
            self.bytes = self.bytes.saturating_sub(old.weight(key_len)) + add;
        } else {
            self.bytes += add;
        }
        displaced
    }

    pub fn get(&self, key: &[u8]) -> Option<&MemEntry> {
        self.map.get(key)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate memory usage in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &MemEntry)> {
        self.map.iter()
    }

    /// Iterate a key range.
    pub fn range<'a>(
        &'a self,
        start: Bound<&'a [u8]>,
        end: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a Key, &'a MemEntry)> + 'a {
        self.map.range::<[u8], _>((start, end))
    }

    /// Drain the table for a flush, leaving it empty.
    pub fn take(&mut self) -> BTreeMap<Key, MemEntry> {
        self.bytes = 0;
        std::mem::take(&mut self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_overwrite() {
        let mut m = Memtable::new();
        m.put(b"k1".to_vec(), MemEntry::Record(b"v1".to_vec()));
        m.put(b"k2".to_vec(), MemEntry::Record(b"v2".to_vec()));
        assert_eq!(m.get(b"k1"), Some(&MemEntry::Record(b"v1".to_vec())));
        m.put(b"k1".to_vec(), MemEntry::AntiMatter(None));
        assert_eq!(m.get(b"k1"), Some(&MemEntry::AntiMatter(None)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Memtable::new();
        for k in [5u64, 1, 9, 3] {
            m.put(k.to_be_bytes().to_vec(), MemEntry::Record(vec![]));
        }
        let keys: Vec<u64> =
            m.iter().map(|(k, _)| u64::from_be_bytes(k[..8].try_into().unwrap())).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn byte_accounting_grows_and_resets() {
        let mut m = Memtable::new();
        assert_eq!(m.bytes(), 0);
        m.put(vec![0; 10], MemEntry::Record(vec![0; 100]));
        let b1 = m.bytes();
        assert!(b1 >= 110, "at least key+payload: {b1}");
        m.put(vec![1; 10], MemEntry::Record(vec![0; 100]));
        assert!(m.bytes() > b1);
        let drained = m.take();
        assert_eq!(drained.len(), 2);
        assert_eq!(m.bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn range_scan() {
        let mut m = Memtable::new();
        for k in 0u64..10 {
            m.put(k.to_be_bytes().to_vec(), MemEntry::Record(vec![k as u8]));
        }
        let lo = 3u64.to_be_bytes();
        let hi = 7u64.to_be_bytes();
        let got: Vec<u64> = m
            .range(Bound::Included(&lo[..]), Bound::Excluded(&hi[..]))
            .map(|(k, _)| u64::from_be_bytes(k[..8].try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
    }
}
