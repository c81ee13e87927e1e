//! Clock-eviction buffer cache.
//!
//! Pages read through the cache are kept decompressed at their configured
//! fixed size (paper §2.4: "on read, pages are decompressed to their
//! original configured fixed-size and stored in memory in AsterixDB's buffer
//! cache"). Hits cost no device IO — which is what makes the second run of a
//! query cheap and what the warm-cache experiments (Fig 22b, Fig 24) rely
//! on.

use std::sync::Arc;

use tc_util::hash::FxHashMap;
use tc_util::sync::{self, ranks, OrderedMutex};

use crate::error::StorageError;
use crate::page_store::{PageId, PageStore};

/// Cache key: (store id, page id).
type Key = (u64, PageId);

#[derive(Debug)]
struct Frame {
    key: Key,
    data: Arc<Vec<u8>>,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Inner {
    map: FxHashMap<Key, usize>,
    frames: Vec<Frame>,
    clock_hand: usize,
    hits: u64,
    misses: u64,
}

/// A shared page cache. One per node controller in the simulator (partitions
/// on a node share the buffer cache — paper §2.2).
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    inner: OrderedMutex<Inner>,
}

impl BufferCache {
    /// `capacity` is in pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs at least one frame");
        BufferCache { capacity, inner: OrderedMutex::new(ranks::CACHE_INNER, Inner::default()) }
    }

    /// Capacity for a byte budget at a page size (how the experiments size
    /// the cache: e.g. 10 GB budget / 128 KB pages).
    pub fn with_budget(budget_bytes: u64, page_size: usize) -> Self {
        BufferCache::new(((budget_bytes as usize) / page_size).max(1))
    }

    /// Read a page through the cache. Misses fetch from the store (charging
    /// device IO); hits are free. Fetch failures — injected faults or
    /// checksum mismatches — propagate to the caller and cache nothing.
    /// A hit is a page read too: whether a read hits depends on what other
    /// threads did, so hits and misses alike count as blocking.
    pub fn read(&self, store: &PageStore, page: PageId) -> Result<Arc<Vec<u8>>, StorageError> {
        sync::blocking("BufferCache::read");
        let key = (store.id(), page);
        {
            let mut inner = self.inner.lock();
            if let Some(&slot) = inner.map.get(&key) {
                inner.hits += 1;
                inner.frames[slot].referenced = true;
                return Ok(Arc::clone(&inner.frames[slot].data));
            }
            inner.misses += 1;
        }
        // Fetch outside the lock: concurrent misses may duplicate work but
        // stay correct (pages are immutable).
        let data = Arc::new(store.read_page(page)?);
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            return Ok(data);
        }
        if inner.frames.len() < self.capacity {
            let slot = inner.frames.len();
            inner.frames.push(Frame { key, data: Arc::clone(&data), referenced: true });
            inner.map.insert(key, slot);
        } else {
            // Clock sweep: clear reference bits until an unreferenced frame
            // shows up.
            let slot = loop {
                let hand = inner.clock_hand;
                inner.clock_hand = (hand + 1) % self.capacity;
                if inner.frames[hand].referenced {
                    inner.frames[hand].referenced = false;
                } else {
                    break hand;
                }
            };
            let old_key = inner.frames[slot].key;
            inner.map.remove(&old_key);
            inner.frames[slot] = Frame { key, data: Arc::clone(&data), referenced: true };
            inner.map.insert(key, slot);
        }
        Ok(data)
    }

    /// Drop every cached page (simulates a cold cache between runs).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.frames.clear();
        inner.clock_hand = 0;
    }

    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceProfile};
    use tc_compress::CompressionScheme;

    use crate::page_store::PAGE_CRC_BYTES;

    fn store_with_pages(n: u8, device: Arc<Device>) -> PageStore {
        let store = PageStore::new(device, 64, CompressionScheme::None);
        for i in 0..n {
            store.write_page(&[i; 64]).unwrap();
        }
        store
    }

    #[test]
    fn hit_avoids_device_io() {
        let d = Arc::new(Device::new(DeviceProfile::SATA_SSD));
        let store = store_with_pages(4, Arc::clone(&d));
        let stride = (64 + PAGE_CRC_BYTES) as u64;
        let written = d.bytes_written();
        assert_eq!(written, 4 * stride);
        let cache = BufferCache::new(8);
        cache.read(&store, 0).unwrap();
        let after_miss = d.bytes_read();
        assert_eq!(after_miss, stride);
        let page = cache.read(&store, 0).unwrap();
        assert_eq!(d.bytes_read(), after_miss, "hit must not touch the device");
        assert_eq!(page[0], 0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_keeps_capacity_bound() {
        let d = Arc::new(Device::new(DeviceProfile::RAM));
        let store = store_with_pages(10, Arc::clone(&d));
        let cache = BufferCache::new(3);
        for i in 0..10 {
            cache.read(&store, i).unwrap();
        }
        assert_eq!(cache.len(), 3);
        // All pages still readable (refetched on miss).
        for i in 0..10u64 {
            assert_eq!(cache.read(&store, i).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn clock_evicts_unreferenced_before_referenced() {
        let d = Arc::new(Device::new(DeviceProfile::RAM));
        let store = store_with_pages(4, Arc::clone(&d));
        let cache = BufferCache::new(2);
        cache.read(&store, 0).unwrap(); // frame0 = p0 (ref)
        cache.read(&store, 1).unwrap(); // frame1 = p1 (ref)

        // Miss: the sweep clears both ref bits, wraps, and evicts frame0.
        cache.read(&store, 2).unwrap(); // frames: [p2 (ref), p1 (unref)]

        // Next miss must take the unreferenced frame (p1), not p2.
        cache.read(&store, 0).unwrap(); // frames: [p2 (ref), p0 (ref)]
        let misses_before = cache.misses();
        cache.read(&store, 2).unwrap();
        assert_eq!(cache.misses(), misses_before, "page 2 should have survived");
    }

    #[test]
    fn distinct_stores_do_not_collide() {
        let d = Arc::new(Device::new(DeviceProfile::RAM));
        let s1 = store_with_pages(2, Arc::clone(&d));
        let s2 = PageStore::new(Arc::clone(&d), 64, CompressionScheme::None);
        s2.write_page(&[0xaa; 64]).unwrap();
        let cache = BufferCache::new(8);
        assert_eq!(cache.read(&s1, 0).unwrap()[0], 0);
        assert_eq!(cache.read(&s2, 0).unwrap()[0], 0xaa);
    }

    #[test]
    fn clear_forces_refetch() {
        let d = Arc::new(Device::new(DeviceProfile::SATA_SSD));
        let store = store_with_pages(1, Arc::clone(&d));
        let cache = BufferCache::new(2);
        cache.read(&store, 0).unwrap();
        let reads = d.bytes_read();
        cache.clear();
        cache.read(&store, 0).unwrap();
        assert!(d.bytes_read() > reads);
    }

    #[test]
    fn with_budget_math() {
        let cache = BufferCache::with_budget(10 * 1024 * 1024, 128 * 1024);
        assert_eq!(cache.capacity(), 80);
    }
}
