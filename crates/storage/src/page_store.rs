//! A fixed-size-page file with optional page-level compression.
//!
//! Uncompressed stores address page *i* at byte `i × stride` directly.
//! Compressed stores write variable-size compressed images back-to-back and
//! record each page's `(offset, length)` in a [`Laf`] (paper §2.4). Either
//! way the caller sees fixed-size pages.
//!
//! With integrity checking on (the default), every stored page carries a
//! 4-byte CRC-32 footer over exactly the bytes on "disk" (the raw page, or
//! the compressed image), verified on every read. A flipped device bit
//! therefore surfaces as a typed [`StorageError::Corruption`] instead of
//! decoded garbage. The footer is part of the stored stride, so IO
//! accounting charges it in both directions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tc_compress::CompressionScheme;
use tc_util::crc;
use tc_util::sync::{self, ranks, OrderedRwLock};

use crate::device::Device;
use crate::error::{IoOp, StorageError};
use crate::file::FileStore;
use crate::laf::{Laf, LafEntry};

/// Identifies a page within one store.
pub type PageId = u64;

/// Bytes of the per-page CRC-32 footer when integrity checking is on.
pub const PAGE_CRC_BYTES: usize = 4;

static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// A page file. LSM components each own one (plus the buffer cache on top).
#[derive(Debug)]
pub struct PageStore {
    /// Globally unique id — the buffer cache's key space.
    id: u64,
    page_size: usize,
    scheme: CompressionScheme,
    /// Append a CRC-32 footer to every stored page and verify it on read.
    integrity: bool,
    data: FileStore,
    laf: OrderedRwLock<Laf>,
    pages: AtomicU64,
}

impl PageStore {
    pub fn new(device: Arc<Device>, page_size: usize, scheme: CompressionScheme) -> Self {
        PageStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            page_size,
            scheme,
            integrity: true,
            data: FileStore::new(device),
            laf: OrderedRwLock::new(ranks::PAGE_LAF, Laf::new()),
            pages: AtomicU64::new(0),
        }
    }

    /// Toggle per-page checksum footers (on by default). Only meaningful
    /// before the first write; exists so benchmarks can measure the
    /// zero-fault overhead of integrity checking.
    pub fn with_integrity(mut self, on: bool) -> Self {
        self.integrity = on;
        self
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    pub fn scheme(&self) -> CompressionScheme {
        self.scheme
    }

    /// On-device bytes per uncompressed page (page plus optional footer).
    fn stride(&self) -> usize {
        self.page_size + if self.integrity { PAGE_CRC_BYTES } else { 0 }
    }

    /// Append a page. `page` must be exactly `page_size` bytes (the engine
    /// zero-pads partially filled trailing pages, like any slotted layout);
    /// one that is not is refused as a permanent write error and nothing is
    /// stored. On error nothing usable was stored and the store should be
    /// abandoned by its builder — page ids are not reissued.
    pub fn write_page(&self, page: &[u8]) -> Result<PageId, StorageError> {
        sync::blocking("PageStore::write_page");
        if page.len() != self.page_size {
            return Err(StorageError::Permanent { op: IoOp::Write });
        }
        let id = self.pages.fetch_add(1, Ordering::Relaxed);
        if self.scheme.is_none() {
            let offset = if self.integrity {
                let mut framed = Vec::with_capacity(self.stride());
                framed.extend_from_slice(page);
                crc::append_crc32(&mut framed, page);
                self.data.append(&framed)?
            } else {
                self.data.append(page)?
            };
            debug_assert_eq!(offset, id * self.stride() as u64);
        } else {
            let mut stored = self.scheme.compress_reserving(page, PAGE_CRC_BYTES);
            if self.integrity {
                let sum = crc::crc32(&stored);
                stored.extend_from_slice(&sum.to_le_bytes());
            }
            let offset = self.data.append(&stored)?;
            self.laf.write().push(LafEntry { offset, length: stored.len() as u32 });
        }
        Ok(id)
    }

    /// Read a page back to its fixed size, verifying its checksum footer and
    /// decompressing if needed. IO is charged for the *stored* bytes.
    pub fn read_page(&self, id: PageId) -> Result<Vec<u8>, StorageError> {
        sync::blocking("PageStore::read_page");
        if self.scheme.is_none() {
            let stride = self.stride();
            let mut raw = self.data.read(id * stride as u64, stride)?;
            if !self.integrity {
                return Ok(raw);
            }
            if crc::verify_crc32(&raw).is_none() {
                return Err(self.checksum_failure(id));
            }
            // Drop the footer in place — no second copy of the page.
            raw.truncate(self.page_size);
            Ok(raw)
        } else {
            let entry = self.laf.read().get(id as usize).ok_or_else(|| {
                StorageError::corruption(
                    "page store",
                    format!("page {id} missing from the LAF of store {}", self.id),
                )
            })?;
            let stored = self.data.read(entry.offset, entry.length as usize)?;
            let compressed = if self.integrity {
                match crc::verify_crc32(&stored) {
                    Some(body) => body,
                    None => return Err(self.checksum_failure(id)),
                }
            } else {
                &stored[..]
            };
            self.scheme
                .decompress_exact(compressed, self.page_size)
                .map_err(|_| self.checksum_failure(id))
        }
    }

    fn checksum_failure(&self, page: PageId) -> StorageError {
        self.device().note_checksum_failure();
        StorageError::corruption(
            "data page",
            format!("checksum mismatch on page {page} of store {}", self.id),
        )
    }

    /// Number of data pages written.
    pub fn num_pages(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    /// Bytes of page data on "disk" (compressed size if compressed,
    /// including checksum footers).
    pub fn data_bytes(&self) -> u64 {
        self.data.len()
    }

    /// Bytes the LAF occupies on disk, rounded up to whole pages (the LAF
    /// is itself stored in fixed-size pages — paper §2.4).
    pub fn laf_bytes(&self) -> u64 {
        if self.scheme.is_none() {
            0
        } else {
            (self.laf.read().page_count(self.page_size) * self.page_size) as u64
        }
    }

    /// Total on-disk footprint: data + LAF.
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes() + self.laf_bytes()
    }

    pub fn device(&self) -> &Arc<Device> {
        self.data.device()
    }
}

/// Helper that packs byte slices into fixed-size pages and flushes them to a
/// store — the same one on every call; the writer holds only the page being
/// filled, so a builder that is lent its store call by call can keep one.
/// Row-block builders [`append`](Self::append) records (which never span page
/// boundaries unless a single record exceeds the page size, in which case it
/// spills across continuation pages); a byte-stream body
/// [`append_spanning`](Self::append_spanning)s and leaves no padding but the
/// last page's.
#[derive(Debug, Default)]
pub struct PageWriter {
    buf: Vec<u8>,
    pages_written: Vec<PageId>,
}

impl PageWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record. Returns `(page_index, offset_in_page)` of its start,
    /// where `page_index` counts pages this writer has produced. On error
    /// the component under construction must be abandoned.
    pub fn append(&mut self, store: &PageStore, record: &[u8]) -> Result<(u64, u32), StorageError> {
        if !self.buf.is_empty() && self.buf.len() + record.len() > store.page_size() {
            self.flush_page(store)?;
        }
        let pos = (self.pages_written.len() as u64, self.buf.len() as u32);
        self.append_spanning(store, record)?;
        Ok(pos)
    }

    /// Append `bytes` right behind what was appended before, across as many
    /// page boundaries as they span. Returns the offset of their first byte
    /// in the stream of this writer's pages.
    pub fn append_spanning(
        &mut self,
        store: &PageStore,
        bytes: &[u8],
    ) -> Result<u64, StorageError> {
        let page_size = store.page_size();
        let pos = (self.pages_written.len() * page_size + self.buf.len()) as u64;
        let mut rest = bytes;
        loop {
            let space = page_size - self.buf.len();
            if rest.len() < space {
                self.buf.extend_from_slice(rest);
                return Ok(pos);
            }
            let (head, tail) = rest.split_at(space);
            self.buf.extend_from_slice(head);
            self.flush_page(store)?;
            rest = tail;
        }
    }

    fn flush_page(&mut self, store: &PageStore) -> Result<(), StorageError> {
        self.buf.resize(store.page_size(), 0);
        let id = store.write_page(&self.buf)?;
        self.pages_written.push(id);
        self.buf.clear();
        Ok(())
    }

    /// Flush any partial page and return the ids of all pages written.
    pub fn finish(mut self, store: &PageStore) -> Result<Vec<PageId>, StorageError> {
        if !self.buf.is_empty() {
            self.flush_page(store)?;
        }
        Ok(self.pages_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::fault::FaultPlan;

    fn ram() -> Arc<Device> {
        Arc::new(Device::new(DeviceProfile::RAM))
    }

    #[test]
    fn wrong_sized_page_is_a_typed_error() {
        let store = PageStore::new(ram(), 64, CompressionScheme::None);
        for len in [0usize, 63, 65] {
            let err = store.write_page(&vec![1u8; len]).unwrap_err();
            assert!(matches!(err, StorageError::Permanent { op: IoOp::Write }), "{len}: {err}");
        }
        assert_eq!((store.num_pages(), store.data_bytes()), (0, 0), "nothing was stored");
        assert_eq!(store.write_page(&[1u8; 64]).unwrap(), 0, "and no page id was spent");
    }

    #[test]
    fn uncompressed_pages_roundtrip() {
        let store = PageStore::new(ram(), 64, CompressionScheme::None);
        let a = vec![1u8; 64];
        let b = vec![2u8; 64];
        let pa = store.write_page(&a).unwrap();
        let pb = store.write_page(&b).unwrap();
        assert_eq!(store.read_page(pa).unwrap(), a);
        assert_eq!(store.read_page(pb).unwrap(), b);
        assert_eq!(store.num_pages(), 2);
        assert_eq!(store.data_bytes(), 2 * (64 + PAGE_CRC_BYTES) as u64);
        assert_eq!(store.laf_bytes(), 0);
    }

    #[test]
    fn integrity_off_stores_bare_pages() {
        let store = PageStore::new(ram(), 64, CompressionScheme::None).with_integrity(false);
        let a = vec![9u8; 64];
        let id = store.write_page(&a).unwrap();
        assert_eq!(store.read_page(id).unwrap(), a);
        assert_eq!(store.data_bytes(), 64);
    }

    #[test]
    fn compressed_pages_roundtrip_and_shrink() {
        let store = PageStore::new(ram(), 4096, CompressionScheme::Snappy);
        let page: Vec<u8> =
            b"repetitive page content ".iter().copied().cycle().take(4096).collect();
        let id = store.write_page(&page).unwrap();
        assert_eq!(store.read_page(id).unwrap(), page);
        assert!(store.data_bytes() < 4096 / 2, "data bytes: {}", store.data_bytes());
        assert!(store.laf_bytes() >= 4096, "LAF occupies whole pages");
    }

    #[test]
    fn compressed_random_access_via_laf() {
        let store = PageStore::new(ram(), 512, CompressionScheme::Snappy);
        let pages: Vec<Vec<u8>> = (0..20u8)
            .map(|i| {
                let mut p = vec![i; 512];
                p[0] = 0xff; // make each page distinct at both ends
                p[511] = i;
                p
            })
            .collect();
        let ids: Vec<_> = pages.iter().map(|p| store.write_page(p).unwrap()).collect();
        // Read back out of order.
        for (&id, page) in ids.iter().zip(&pages).rev() {
            assert_eq!(store.read_page(id).unwrap(), *page);
        }
    }

    #[test]
    fn missing_laf_entry_is_a_typed_error() {
        let store = PageStore::new(ram(), 64, CompressionScheme::Snappy);
        let err = store.read_page(0).unwrap_err();
        assert!(matches!(err, StorageError::Corruption { .. }), "{err}");
    }

    #[test]
    fn flipped_bit_is_detected_uncompressed() {
        let d = ram();
        let store = PageStore::new(Arc::clone(&d), 128, CompressionScheme::None);
        d.set_fault_plan(FaultPlan::new(77).flip_bit_in_nth_write(1));
        let page = vec![0x5au8; 128];
        let id = store.write_page(&page).unwrap();
        d.clear_fault_plan();
        let err = store.read_page(id).unwrap_err();
        assert!(matches!(err, StorageError::Corruption { .. }), "{err}");
        assert_eq!(d.checksum_failures(), 1);
    }

    #[test]
    fn flipped_bit_is_detected_compressed() {
        let d = ram();
        let store = PageStore::new(Arc::clone(&d), 512, CompressionScheme::Snappy);
        d.set_fault_plan(FaultPlan::new(78).flip_bit_in_nth_write(1));
        let page: Vec<u8> = b"xyzzy ".iter().copied().cycle().take(512).collect();
        let id = store.write_page(&page).unwrap();
        d.clear_fault_plan();
        let err = store.read_page(id).unwrap_err();
        assert!(matches!(err, StorageError::Corruption { .. }), "{err}");
        assert_eq!(d.checksum_failures(), 1);
    }

    /// With integrity checks off nothing vouches for a compressed image, so
    /// a preamble claiming 2⁴⁰ bytes reaches the decoder; it must be refused
    /// as corruption, not allocated.
    #[test]
    fn lying_preamble_is_corruption_with_integrity_off() {
        let d = ram();
        let store =
            PageStore::new(Arc::clone(&d), 512, CompressionScheme::Snappy).with_integrity(false);
        let page: Vec<u8> = b"preamble ".iter().copied().cycle().take(512).collect();
        let id = store.write_page(&page).unwrap();
        let stored = store.data.take_all().unwrap();
        let (declared, used) = tc_util::varint::read_u64(&stored).unwrap();
        assert_eq!(declared, 512);
        let mut lying = Vec::new();
        tc_util::varint::write_u64(&mut lying, 1 << 40);
        lying.extend_from_slice(&stored[used..]);
        let offset = store.data.append(&lying).unwrap();
        *store.laf.write() = Laf::new();
        store.laf.write().push(LafEntry { offset, length: lying.len() as u32 });
        let err = store.read_page(id).unwrap_err();
        assert!(matches!(err, StorageError::Corruption { .. }), "{err}");
        assert_eq!(d.checksum_failures(), 1);
    }

    #[test]
    fn page_writer_packs_records() {
        let store = PageStore::new(ram(), 32, CompressionScheme::None);
        let mut w = PageWriter::new();
        let (p0, o0) = w.append(&store, &[1u8; 10]).unwrap();
        let (p1, o1) = w.append(&store, &[2u8; 10]).unwrap();
        let (p2, o2) = w.append(&store, &[3u8; 20]).unwrap(); // doesn't fit: new page
        assert_eq!((p0, o0), (0, 0));
        assert_eq!((p1, o1), (0, 10));
        assert_eq!((p2, o2), (1, 0));
        let pages = w.finish(&store).unwrap();
        assert_eq!(pages.len(), 2);
        let page0 = store.read_page(pages[0]).unwrap();
        assert_eq!(&page0[..10], &[1u8; 10]);
        assert_eq!(&page0[10..20], &[2u8; 10]);
        assert_eq!(&page0[20..], &[0u8; 12]); // zero padding
    }

    #[test]
    fn page_writer_spills_oversized_records() {
        let store = PageStore::new(ram(), 16, CompressionScheme::None);
        let mut w = PageWriter::new();
        let big = vec![7u8; 40]; // 2.5 pages
        let (p, o) = w.append(&store, &big).unwrap();
        assert_eq!((p, o), (0, 0));
        let pages = w.finish(&store).unwrap();
        assert_eq!(pages.len(), 3);
        let mut all = Vec::new();
        for id in pages {
            all.extend_from_slice(&store.read_page(id).unwrap());
        }
        assert_eq!(&all[..40], &big[..]);
    }

    #[test]
    fn page_writer_spanning_appends_leave_no_padding() {
        let store = PageStore::new(ram(), 16, CompressionScheme::None);
        let mut w = PageWriter::new();
        // 10 + 10 + 20 bytes back to back: `append` would start the second
        // and third on fresh pages (3 pages); the stream takes 40 bytes.
        let parts = [vec![1u8; 10], vec![2u8; 10], vec![3u8; 20], vec![4u8; 8]];
        let offsets: Vec<u64> =
            parts.iter().map(|part| w.append_spanning(&store, part).unwrap()).collect();
        assert_eq!(offsets, [0, 10, 20, 40]);
        assert_eq!(store.num_pages(), 3, "full pages go out as they fill");
        let pages = w.finish(&store).unwrap();
        assert_eq!(pages, [0, 1, 2]);
        let all: Vec<u8> = pages.iter().flat_map(|&id| store.read_page(id).unwrap()).collect();
        assert_eq!(all, parts.concat());
        // An exactly full last page is not followed by an empty one.
        let mut exact = PageWriter::new();
        exact.append_spanning(&store, &[5u8; 32]).unwrap();
        assert_eq!(exact.finish(&store).unwrap(), [3, 4]);
    }

    #[test]
    fn io_charging_reflects_compression() {
        let d = Arc::new(Device::new(DeviceProfile::SATA_SSD));
        let store = PageStore::new(Arc::clone(&d), 4096, CompressionScheme::Snappy);
        let page: Vec<u8> = b"abc".iter().copied().cycle().take(4096).collect();
        let id = store.write_page(&page).unwrap();
        let written = d.bytes_written();
        assert!(written < 4096, "compressed write should charge compressed bytes");
        store.read_page(id).unwrap();
        assert_eq!(d.bytes_read(), written, "read charges stored size");
    }
}
