//! Secondary indexes and the keys-only primary-key index.
//!
//! * [`SecondaryIndex`] — an LSM tree over composite `(secondary key,
//!   primary key)` byte keys with empty payloads. Range queries return the
//!   primary keys whose records the caller then point-looks-up in the
//!   primary index (the access path of Fig 24).
//! * [`PrimaryKeyIndex`] — an LSM tree storing primary keys only. Upserts
//!   consult it first so brand-new keys skip the expensive primary-index
//!   lookup (paper §3.2.2, following [28, 29]).

use std::sync::Arc;

use tc_storage::device::Device;
use tc_storage::error::StorageError;
use tc_storage::BufferCache;

use crate::entry::{encode_composite_key, Key};
use crate::hook::NoopHook;
use crate::tree::{LsmOptions, LsmTree};

/// An LSM-backed secondary index. Secondary keys must use fixed-width
/// order-preserving encodings (see [`crate::entry`]) so composite keys sort
/// by (secondary, primary).
pub struct SecondaryIndex {
    tree: LsmTree,
    secondary_width: usize,
}

impl SecondaryIndex {
    pub fn new(
        device: Arc<Device>,
        cache: Arc<BufferCache>,
        opts: LsmOptions,
        secondary_width: usize,
    ) -> Self {
        SecondaryIndex {
            tree: LsmTree::new(device, cache, Arc::new(NoopHook), opts),
            secondary_width,
        }
    }

    pub fn insert(&self, secondary: &[u8], primary: &[u8]) -> Result<(), StorageError> {
        debug_assert_eq!(secondary.len(), self.secondary_width);
        self.tree.insert(encode_composite_key(secondary, primary), Vec::new()).map(|_| ())
    }

    pub fn delete(&self, secondary: &[u8], primary: &[u8]) -> Result<(), StorageError> {
        self.tree.delete(encode_composite_key(secondary, primary), None).map(|_| ())
    }

    /// Primary keys whose secondary key lies in `[start, end)`. Fails with
    /// the scan's first fault if any index component could not be read
    /// (quarantined, or a page failed), rather than return a partial list.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<Key>, StorageError> {
        debug_assert_eq!(start.len(), self.secondary_width);
        let mut scan = self.tree.scan_range(Some(start), Some(end));
        let mut out = Vec::new();
        while let Some((k, _, _)) = scan.next() {
            out.push(k[self.secondary_width..].to_vec());
        }
        match scan.health().first_error() {
            Some(e) => Err(e.clone()),
            None => Ok(out),
        }
    }

    pub fn flush(&self) -> Result<(), StorageError> {
        self.tree.flush()
    }

    pub fn disk_bytes(&self) -> u64 {
        self.tree.disk_bytes()
    }

    pub fn stats(&self) -> crate::tree::LsmStats {
        self.tree.stats()
    }

    pub fn tree(&self) -> &LsmTree {
        &self.tree
    }
}

/// Keys-only LSM tree for existence checks.
pub struct PrimaryKeyIndex {
    tree: LsmTree,
}

impl PrimaryKeyIndex {
    pub fn new(device: Arc<Device>, cache: Arc<BufferCache>, opts: LsmOptions) -> Self {
        PrimaryKeyIndex { tree: LsmTree::new(device, cache, Arc::new(NoopHook), opts) }
    }

    pub fn insert(&self, key: &[u8]) -> Result<(), StorageError> {
        self.tree.insert(key.to_vec(), Vec::new()).map(|_| ())
    }

    pub fn delete(&self, key: &[u8]) -> Result<(), StorageError> {
        self.tree.delete(key.to_vec(), None).map(|_| ())
    }

    /// Does the key exist? (Bloom filters make the common "new key" case
    /// cheap — §3.2.2.)
    pub fn contains(&self, key: &[u8]) -> Result<bool, StorageError> {
        self.tree.contains(key)
    }

    pub fn flush(&self) -> Result<(), StorageError> {
        self.tree.flush()
    }

    pub fn disk_bytes(&self) -> u64 {
        self.tree.disk_bytes()
    }

    pub fn stats(&self) -> crate::tree::LsmStats {
        self.tree.stats()
    }

    pub fn tree(&self) -> &LsmTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{encode_i64_key, encode_u64_key};
    use tc_storage::device::DeviceProfile;

    fn parts() -> (Arc<Device>, Arc<BufferCache>) {
        (Arc::new(Device::new(DeviceProfile::RAM)), Arc::new(BufferCache::new(256)))
    }

    #[test]
    fn range_query_returns_primary_keys_in_order() {
        let (d, c) = parts();
        let idx = SecondaryIndex::new(d, c, LsmOptions::default(), 8);
        // timestamps 100..200 map to pk = ts - 100
        for ts in 100i64..200 {
            idx.insert(&encode_i64_key(ts), &encode_u64_key((ts - 100) as u64)).unwrap();
        }
        idx.flush().unwrap();
        let pks = idx.range(&encode_i64_key(150), &encode_i64_key(160)).unwrap();
        let got: Vec<u64> = pks.iter().map(|k| crate::entry::decode_u64_key(k).unwrap()).collect();
        assert_eq!(got, (50..60).collect::<Vec<u64>>());
    }

    #[test]
    fn duplicate_secondary_keys_keep_all_primaries() {
        let (d, c) = parts();
        let idx = SecondaryIndex::new(d, c, LsmOptions::default(), 8);
        for pk in 0u64..5 {
            idx.insert(&encode_i64_key(42), &encode_u64_key(pk)).unwrap();
        }
        let pks = idx.range(&encode_i64_key(42), &encode_i64_key(43)).unwrap();
        assert_eq!(pks.len(), 5);
    }

    #[test]
    fn delete_removes_one_posting() {
        let (d, c) = parts();
        let idx = SecondaryIndex::new(d, c, LsmOptions::default(), 8);
        idx.insert(&encode_i64_key(1), &encode_u64_key(10)).unwrap();
        idx.insert(&encode_i64_key(1), &encode_u64_key(11)).unwrap();
        idx.delete(&encode_i64_key(1), &encode_u64_key(10)).unwrap();
        let pks = idx.range(&encode_i64_key(1), &encode_i64_key(2)).unwrap();
        assert_eq!(pks.len(), 1);
        assert_eq!(crate::entry::decode_u64_key(&pks[0]), Some(11));
    }

    #[test]
    fn range_over_a_quarantined_component_fails() {
        let (d, c) = parts();
        let idx = SecondaryIndex::new(d, c, LsmOptions::default(), 8);
        for pk in 0u64..20 {
            idx.insert(&encode_i64_key(pk as i64), &encode_u64_key(pk)).unwrap();
        }
        idx.flush().unwrap();
        idx.tree().components()[0].quarantine();
        let err = idx.range(&encode_i64_key(0), &encode_i64_key(20)).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn primary_key_index_existence() {
        let (d, c) = parts();
        let pki = PrimaryKeyIndex::new(d, c, LsmOptions::default());
        for i in 0..100u64 {
            pki.insert(&encode_u64_key(i)).unwrap();
        }
        pki.flush().unwrap();
        assert!(pki.contains(&encode_u64_key(50)).unwrap());
        assert!(!pki.contains(&encode_u64_key(500)).unwrap());
        pki.delete(&encode_u64_key(50)).unwrap();
        assert!(!pki.contains(&encode_u64_key(50)).unwrap());
    }
}
