//! Immutable on-disk components (paper §2.2).
//!
//! A component is a bottom-up-built B+-tree: sorted entries packed into
//! page-sized leaf blocks, an index of (first key → block) over them, a
//! bloom filter on keys, and a metadata page holding the validity bit, the
//! component id, and the hook's metadata blob (the tuple compactor's
//! persisted schema, §3.1). Index, bloom, and metadata are written to the
//! same page store after the leaves, so on-disk size accounting includes
//! them, as a real B+-tree's interior nodes would.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tc_compress::CompressionScheme;
use tc_storage::device::Device;
use tc_storage::error::StorageError;
use tc_storage::page_store::{PageStore, PageWriter};
use tc_storage::BufferCache;
use tc_util::varint;

use crate::bloom::BloomFilter;
use crate::columnar::{ColumnarChunk, ColumnarCodec, ColumnarWriter, RowSource};
use crate::entry::{read_entry, write_entry, EntryKind, Key};

/// Component identity: flushed components get `(n, n)`; a merge of
/// `[Ci..Cj]` gets `(i, j)`. Recency order is by `max` (paper §2.2:
/// AsterixDB infers recency from component ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ComponentId {
    pub min: u64,
    pub max: u64,
}

impl ComponentId {
    pub fn flushed(seq: u64) -> Self {
        ComponentId { min: seq, max: seq }
    }

    pub fn merged(oldest: ComponentId, newest: ComponentId) -> Self {
        ComponentId { min: oldest.min, max: newest.max }
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.min == self.max {
            write!(f, "C{}", self.min)
        } else {
            write!(f, "[C{},C{}]", self.min, self.max)
        }
    }
}

/// Index entry: where a leaf block lives.
#[derive(Debug, Clone)]
struct BlockRef {
    first_key: Key,
    start_page: u64,
    byte_len: u32,
}

/// How a component's entries are laid out on its page store.
#[derive(Debug)]
enum Body {
    /// Row blocks: sorted entries packed into page-sized leaf blocks with a
    /// (first key → block) index — the original layout.
    Rows(Vec<BlockRef>),
    /// Column pages: the AMAX layout, built and read through the pluggable
    /// [`ColumnarChunk`]. Keys stay sorted across row groups, so scans and
    /// point lookups position exactly like row blocks.
    Columnar(Box<dyn ColumnarChunk>),
}

/// An immutable on-disk component.
#[derive(Debug)]
pub struct DiskComponent {
    id: ComponentId,
    store: PageStore,
    body: Body,
    bloom: BloomFilter,
    /// Hook metadata blob (the persisted schema for inferred datasets).
    metadata: Option<Vec<u8>>,
    /// Largest key in the component (None if empty).
    max_key: Option<Key>,
    /// The validity bit (paper §2.2): set only after the flush/merge that
    /// produced this component completed. Recovery removes invalid
    /// components.
    valid: AtomicBool,
    /// Set once a read detected corruption in this component (a failed page
    /// checksum or an undecodable block). Quarantined components are
    /// immutable and stay on disk, but queries either skip them (degrade
    /// policy) or fail with a typed error — they are never silently decoded.
    quarantined: AtomicBool,
    num_entries: u64,
    num_antimatter: u64,
}

impl DiskComponent {
    pub fn id(&self) -> ComponentId {
        self.id
    }

    pub fn is_valid(&self) -> bool {
        self.valid.load(Ordering::Acquire)
    }

    /// Set the validity bit (the final step of flush/merge).
    pub fn set_valid(&self) {
        self.valid.store(true, Ordering::Release);
    }

    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    /// Mark the component as corrupt. Idempotent; called by any reader that
    /// hits a checksum failure or undecodable block inside it.
    pub fn quarantine(&self) {
        self.quarantined.store(true, Ordering::Release);
    }

    pub fn metadata(&self) -> Option<&[u8]> {
        self.metadata.as_deref()
    }

    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    pub fn num_antimatter(&self) -> u64 {
        self.num_antimatter
    }

    /// Total on-disk footprint (leaves + index + bloom + metadata + LAF).
    pub fn disk_bytes(&self) -> u64 {
        self.store.total_bytes()
    }

    pub fn min_key(&self) -> Option<&[u8]> {
        match &self.body {
            Body::Rows(index) => index.first().map(|b| b.first_key.as_slice()),
            Body::Columnar(chunk) => (chunk.num_groups() > 0).then(|| chunk.group_first_key(0)),
        }
    }

    /// Is this component stored in the columnar (AMAX) layout?
    pub fn is_columnar(&self) -> bool {
        matches!(self.body, Body::Columnar(_))
    }

    /// Format-aware access to the columnar body (chunk + its page store) for
    /// readers that want typed, column-pruned scans instead of row
    /// reconstruction. `None` for row-format components.
    pub fn columnar_view(&self) -> Option<(&dyn ColumnarChunk, &PageStore)> {
        match &self.body {
            Body::Rows(_) => None,
            Body::Columnar(chunk) => Some((chunk.as_ref(), &self.store)),
        }
    }

    pub fn max_key(&self) -> Option<&[u8]> {
        self.max_key.as_deref()
    }

    /// Key-range filter (the LSM-filter idea of \[17\], cited in §5): can this
    /// component contain keys in `[start, end)`? Scans skip components whose
    /// range doesn't intersect — e.g. old components during a
    /// recent-timestamp secondary range scan.
    pub fn overlaps(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> bool {
        let (Some(min), Some(max)) = (self.min_key(), self.max_key()) else {
            return false; // empty component
        };
        if let Some(end) = end {
            if min >= end {
                return false;
            }
        }
        if let Some(start) = start {
            if max < start {
                return false;
            }
        }
        true
    }

    /// Point lookup through the bloom filter and block index. A checksum
    /// failure or undecodable block quarantines the component and surfaces
    /// as a typed error — never as a silent miss or garbage payload.
    pub fn get(
        &self,
        cache: &BufferCache,
        key: &[u8],
    ) -> Result<Option<(EntryKind, Vec<u8>)>, StorageError> {
        if !self.bloom.contains(key) {
            return Ok(None);
        }
        match &self.body {
            Body::Rows(index) => {
                if index.is_empty() {
                    return Ok(None);
                }
                // Last block whose first_key <= key.
                let idx = match index.binary_search_by(|b| b.first_key.as_slice().cmp(key)) {
                    Ok(i) => i,
                    Err(0) => return Ok(None),
                    Err(i) => i - 1,
                };
                let block = self.read_block(cache, &index[idx])?;
                let mut pos = 0usize;
                while pos < block.len() {
                    let Some((k, kind, payload, n)) = read_entry(&block[pos..]) else {
                        return Err(self.corrupt_block(idx));
                    };
                    match k.cmp(key) {
                        std::cmp::Ordering::Equal => return Ok(Some((kind, payload.to_vec()))),
                        std::cmp::Ordering::Greater => return Ok(None),
                        std::cmp::Ordering::Less => pos += n,
                    }
                }
                Ok(None)
            }
            Body::Columnar(chunk) => {
                // Last group whose first_key <= key, then that one row of it.
                let Some(g) = columnar_group_for(chunk.as_ref(), key) else {
                    return Ok(None);
                };
                chunk
                    .get_row(&self.store, cache, g, key)
                    .inspect_err(|e| self.quarantine_if_corrupt(e))
            }
        }
    }

    fn quarantine_if_corrupt(&self, e: &StorageError) {
        if e.is_corruption() {
            self.quarantine();
        }
    }

    /// Build the typed error for an undecodable block and quarantine the
    /// component (the page checksum passed, so this is a writer-side bug or
    /// in-memory damage — either way the component can't be trusted).
    fn corrupt_block(&self, block_idx: usize) -> StorageError {
        self.quarantine();
        StorageError::corruption(
            "component block",
            format!("undecodable entry in block {block_idx} of component {}", self.id),
        )
    }

    fn read_block(&self, cache: &BufferCache, block: &BlockRef) -> Result<Vec<u8>, StorageError> {
        let page_size = self.store.page_size();
        let num_pages = (block.byte_len as usize).div_ceil(page_size);
        let mut out = Vec::with_capacity(block.byte_len as usize);
        for p in 0..num_pages {
            let page = cache
                .read(&self.store, block.start_page + p as u64)
                .inspect_err(|e| self.quarantine_if_corrupt(e))?;
            let take = (block.byte_len as usize - out.len()).min(page_size);
            out.extend_from_slice(&page[..take]);
        }
        Ok(out)
    }

    /// Iterate entries in key order, starting at the first key ≥ `start`
    /// (or from the beginning). The scan *owns* its component and cache
    /// handles, so it stays valid while concurrent flushes/merges replace
    /// the tree's component list — the merged-out component is simply kept
    /// alive by this scan's `Arc` until it finishes (snapshot semantics).
    pub fn scan(self: &Arc<Self>, cache: &Arc<BufferCache>, start: Option<&[u8]>) -> ComponentScan {
        // The last block / row group whose first key is ≤ `start`.
        let first_unit = match (&self.body, start) {
            (_, None) => 0,
            (Body::Rows(index), Some(key)) => {
                match index.binary_search_by(|b| b.first_key.as_slice().cmp(key)) {
                    Ok(i) => i,
                    Err(i) => i.saturating_sub(1),
                }
            }
            (Body::Columnar(chunk), Some(key)) => {
                columnar_group_for(chunk.as_ref(), key).unwrap_or(0)
            }
        };
        ComponentScan {
            component: Arc::clone(self),
            cache: Arc::clone(cache),
            next_unit: first_unit,
            block: Vec::new(),
            pos: 0,
            keys: Vec::new().into_iter(),
            row: 0,
            failed: false,
            skip_until: start.map(|s| s.to_vec()),
            group_memo: None,
            payload_error: None,
        }
    }
}

/// Last group whose first key is ≤ `key` (where a matching key must live),
/// or `None` if the component is empty or `key` precedes every group.
fn columnar_group_for(chunk: &dyn ColumnarChunk, key: &[u8]) -> Option<usize> {
    let n = chunk.num_groups();
    if n == 0 || chunk.group_first_key(0) > key {
        return None;
    }
    // Binary search: invariant first_key(lo) <= key < first_key(hi).
    let (mut lo, mut hi) = (0usize, n);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if chunk.group_first_key(mid) <= key {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// One materialized component entry: key, matter/anti-matter kind, payload.
pub type Entry = (Key, EntryKind, Vec<u8>);

/// What a scan holds of an entry's payload before anyone asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// The payload itself: row blocks, memtables and anti-matter (empty).
    Bytes(Vec<u8>),
    /// Row `row` of row group `group` of a columnar component. Only the
    /// group's keys block has been read; the record is assembled by
    /// [`ComponentScan::materialize`] or answered column by column.
    Row { group: u32, row: u32 },
}

/// A scanned entry whose payload may still be a row reference.
pub type LazyEntry = (Key, EntryKind, Payload);

/// Streaming scan over a component's leaf blocks (or row groups' key
/// blocks).
pub struct ComponentScan {
    component: Arc<DiskComponent>,
    cache: Arc<BufferCache>,
    /// The next leaf block / row group to load.
    next_unit: usize,
    /// Row layout: the loaded block and the read position in it.
    block: Vec<u8>,
    pos: usize,
    /// Columnar layout: the loaded group's remaining keys, and the row id of
    /// the next one.
    keys: std::vec::IntoIter<(Key, EntryKind)>,
    row: u32,
    failed: bool,
    skip_until: Option<Key>,
    /// The one row group [`ComponentScan::materialize`] last reconstructed,
    /// and the payloads of its rows nobody has taken yet. References arrive
    /// in key order, so one group is all a scan ever needs at a time.
    group_memo: Option<(u32, Vec<Option<Vec<u8>>>)>,
    /// Set once a row could not be materialized: the keys keep streaming
    /// (they still mask older versions), every later payload fails alike.
    payload_error: Option<StorageError>,
}

impl ComponentScan {
    /// The component this scan reads (for quarantine/health reporting).
    pub fn component(&self) -> &Arc<DiskComponent> {
        &self.component
    }

    /// Next entry as stored: a columnar component yields row references and
    /// reads nothing but key blocks. `Some(Err(_))` if the underlying
    /// component turned out to be corrupt (the component is quarantined and
    /// the scan yields nothing further).
    pub fn next_entry(&mut self) -> Option<Result<LazyEntry, StorageError>> {
        let ComponentScan { component, cache, next_unit, block, pos, keys, row, .. } = self;
        loop {
            if self.failed {
                return None;
            }
            let entry = match &component.body {
                Body::Rows(index) => {
                    if *pos >= block.len() {
                        let block_ref = index.get(*next_unit)?;
                        match component.read_block(cache, block_ref) {
                            Ok(b) => *block = b,
                            Err(e) => {
                                self.failed = true;
                                return Some(Err(e));
                            }
                        }
                        *next_unit += 1;
                        *pos = 0;
                        continue;
                    }
                    let Some((k, kind, payload, n)) = read_entry(&block[*pos..]) else {
                        self.failed = true;
                        return Some(Err(component.corrupt_block(*next_unit - 1)));
                    };
                    *pos += n;
                    (k.to_vec(), kind, Payload::Bytes(payload.to_vec()))
                }
                Body::Columnar(chunk) => match keys.next() {
                    Some((key, kind)) => {
                        let payload = match kind {
                            EntryKind::AntiMatter => Payload::Bytes(Vec::new()),
                            EntryKind::Record => {
                                Payload::Row { group: *next_unit as u32 - 1, row: *row }
                            }
                        };
                        *row += 1;
                        (key, kind, payload)
                    }
                    None => {
                        if *next_unit >= chunk.num_groups() {
                            return None;
                        }
                        match chunk
                            .read_group_keys(&component.store, cache, *next_unit)
                            .inspect_err(|e| component.quarantine_if_corrupt(e))
                        {
                            Ok(k) => *keys = k.into_iter(),
                            Err(e) => {
                                self.failed = true;
                                return Some(Err(e));
                            }
                        }
                        *next_unit += 1;
                        *row = 0;
                        continue;
                    }
                },
            };
            if let Some(skip) = &self.skip_until {
                if entry.0 < *skip {
                    continue;
                }
            }
            self.skip_until = None;
            return Some(Ok(entry));
        }
    }

    /// The payload behind a [`Payload::Row`] reference this scan handed out;
    /// a reference is good for one call. The first row asked of a group
    /// reconstructs the whole group (one `read_group_rows`, quarantining on
    /// corruption); the rest of the group is served from that. A group
    /// nobody asks about is never reconstructed.
    pub fn materialize(&mut self, group: u32, row: u32) -> Result<Vec<u8>, StorageError> {
        if let Some(e) = &self.payload_error {
            return Err(e.clone());
        }
        if self.group_memo.as_ref().is_none_or(|(g, _)| *g != group) {
            let rows = match self.component.columnar_view() {
                Some((chunk, store)) => chunk.read_group_rows(store, &self.cache, group as usize),
                None => Err(no_such_row(&self.component, group, row)),
            };
            match rows {
                Ok(rows) => {
                    let payloads = rows.into_iter().map(|(_, _, payload)| Some(payload)).collect();
                    self.group_memo = Some((group, payloads));
                }
                Err(e) => {
                    self.fail_payloads(e.clone());
                    return Err(e);
                }
            }
        }
        let memo = self.group_memo.as_mut();
        let payload = memo.and_then(|(_, payloads)| payloads.get_mut(row as usize)?.take());
        payload.ok_or_else(|| no_such_row(&self.component, group, row))
    }

    /// A reader of this component's column pages hit `e`: every payload the
    /// scan is asked for from now on fails with it.
    pub fn fail_payloads(&mut self, e: StorageError) {
        self.component.quarantine_if_corrupt(&e);
        self.payload_error.get_or_insert(e);
    }
}

fn no_such_row(component: &DiskComponent, group: u32, row: u32) -> StorageError {
    StorageError::corruption(
        "component scan",
        format!("no row {row} (left) in row group {group} of component {}", component.id),
    )
}

/// Builds a component from entries supplied in ascending key order — used
/// by flush, merge, and bulk load (the paper's §4.3 bulk-load builds a
/// single component bottom-up exactly like this). The component's metadata
/// blob is given at construction: every caller has it before its first
/// entry, and a columnar body needs it to know its columns. Either layout
/// streams — a row block or a row group is written as soon as it is full.
pub struct ComponentBuilder {
    store: PageStore,
    /// Hook metadata blob the finished component will carry.
    metadata: Option<Vec<u8>>,
    buf: Vec<u8>,
    index: Vec<BlockRef>,
    pending_first_key: Option<Key>,
    bloom: BloomFilter,
    next_page: u64,
    num_entries: u64,
    num_antimatter: u64,
    /// The last key admitted (meaningful once `num_entries > 0`); one buffer
    /// for the whole build.
    last_key: Key,
    page_size: usize,
    /// Set in columnar mode: entries go to the codec's writer instead of
    /// being packed into row blocks.
    columnar: Option<Box<dyn ColumnarWriter>>,
}

impl ComponentBuilder {
    pub fn new(
        device: Arc<Device>,
        page_size: usize,
        scheme: CompressionScheme,
        expected_keys: usize,
        bloom_bits_per_key: usize,
        metadata: Option<Vec<u8>>,
    ) -> Self {
        ComponentBuilder {
            store: PageStore::new(device, page_size, scheme),
            metadata,
            buf: Vec::with_capacity(page_size),
            index: Vec::new(),
            pending_first_key: None,
            bloom: BloomFilter::with_capacity(expected_keys, bloom_bits_per_key),
            next_page: 0,
            num_entries: 0,
            num_antimatter: 0,
            last_key: Vec::new(),
            page_size,
            columnar: None,
        }
    }

    /// Toggle per-page CRC footers on the component's store (see
    /// [`PageStore::with_integrity`]). Defaults to on.
    pub fn with_integrity(mut self, on: bool) -> Self {
        self.store = self.store.with_integrity(on);
        self
    }

    /// Build this component in the columnar (AMAX) layout: entries go to
    /// `codec`'s writer, opened here for the builder's metadata blob.
    pub fn with_columnar(mut self, codec: &dyn ColumnarCodec) -> Self {
        self.columnar = Some(codec.writer(self.metadata.as_deref()));
        self
    }

    /// Is the body under construction columnar — does
    /// [`ComponentBuilder::push_row`] take row references?
    pub fn is_columnar(&self) -> bool {
        self.columnar.is_some()
    }

    /// The bookkeeping every entry gets, however its payload arrives: keys
    /// must be strictly ascending (one that is not is refused with a typed
    /// error — a sorted source that yields it has been damaged), then the
    /// bloom filter and the entry counts.
    fn admit(&mut self, key: &[u8], kind: EntryKind) -> Result<(), StorageError> {
        if self.num_entries > 0 && key <= self.last_key.as_slice() {
            return Err(StorageError::corruption(
                "component build",
                format!(
                    "entries must be strictly ascending: key {key:?} after {:?}",
                    self.last_key
                ),
            ));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.bloom.insert(key);
        self.num_entries += 1;
        if kind == EntryKind::AntiMatter {
            self.num_antimatter += 1;
        }
        Ok(())
    }

    /// Append one entry. Keys must arrive in strictly ascending order. Any
    /// error aborts the build (the half-written store is simply dropped —
    /// components only become visible after `finish`).
    pub fn push(
        &mut self,
        key: &[u8],
        kind: EntryKind,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        self.admit(key, kind)?;
        self.append(key, kind, payload)
    }

    /// Route an admitted entry's payload to the body under construction.
    fn append(&mut self, key: &[u8], kind: EntryKind, payload: &[u8]) -> Result<(), StorageError> {
        if let Some(writer) = &mut self.columnar {
            return writer.push(&self.store, key, kind, payload);
        }
        if self.pending_first_key.is_none() {
            self.pending_first_key = Some(key.to_vec());
        }
        write_entry(&mut self.buf, key, kind, payload);
        if self.buf.len() >= self.page_size {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Append the record a scan of `source` referred to as row `row` of row
    /// group `group` (a `Payload::Row`), stored there under `key`. Only a
    /// columnar build takes references ([`ComponentBuilder::is_columnar`]):
    /// its writer may copy the row column by column. Errors reading the
    /// source come back untouched — whether to quarantine it is the caller's
    /// call. Otherwise as `push`.
    pub fn push_row(
        &mut self,
        key: &[u8],
        source: &DiskComponent,
        cache: &BufferCache,
        group: u32,
        row: u32,
    ) -> Result<(), StorageError> {
        let (chunk, store) =
            source.columnar_view().ok_or_else(|| no_such_row(source, group, row))?;
        self.admit(key, EntryKind::Record)?;
        match &mut self.columnar {
            Some(writer) => {
                writer.push_row(&self.store, key, RowSource { chunk, store, cache, group, row })
            }
            None => Err(StorageError::corruption(
                "component build",
                "a row-format build takes no row references",
            )),
        }
    }

    fn flush_block(&mut self) -> Result<(), StorageError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let byte_len = self.buf.len() as u32;
        let mut writer = PageWriter::new();
        writer.append(&self.store, &self.buf)?;
        let pages = writer.finish(&self.store)?;
        let start_page = pages[0];
        debug_assert_eq!(start_page, self.next_page);
        self.next_page += pages.len() as u64;
        #[expect(clippy::expect_used, reason = "a non-empty block has a first key")]
        let first_key = self.pending_first_key.take().expect("block has entries");
        self.index.push(BlockRef { first_key, start_page, byte_len });
        self.buf.clear();
        Ok(())
    }

    /// Finish the component. `valid=false` simulates a crash between data
    /// write and validity-bit set (recovery must discard the component).
    pub fn finish(mut self, id: ComponentId, valid: bool) -> Result<DiskComponent, StorageError> {
        // The writer has put every column page (and its index blob) through
        // this component's store when it hands back the chunk.
        let body = match self.columnar.take() {
            Some(writer) => Body::Columnar(writer.finish(&self.store)?),
            None => {
                self.flush_block()?;
                Body::Rows(std::mem::take(&mut self.index))
            }
        };
        let row_index: &[BlockRef] = match &body {
            Body::Rows(index) => index,
            Body::Columnar(_) => &[],
        };
        // Persist index, bloom, and metadata after the leaves, so the
        // component's on-disk footprint is complete.
        let mut tail = Vec::new();
        varint::write_u64(&mut tail, row_index.len() as u64);
        for b in row_index {
            varint::write_u64(&mut tail, b.first_key.len() as u64);
            tail.extend_from_slice(&b.first_key);
            varint::write_u64(&mut tail, b.start_page);
            varint::write_u64(&mut tail, b.byte_len as u64);
        }
        let bloom_bytes = self.bloom.serialize();
        varint::write_u64(&mut tail, bloom_bytes.len() as u64);
        tail.extend_from_slice(&bloom_bytes);
        let metadata = self.metadata;
        match &metadata {
            None => {
                varint::write_u64(&mut tail, 0);
            }
            Some(m) => {
                varint::write_u64(&mut tail, m.len() as u64 + 1);
                tail.extend_from_slice(m);
            }
        }
        tail.extend_from_slice(&id.min.to_le_bytes());
        tail.extend_from_slice(&id.max.to_le_bytes());
        tail.extend_from_slice(&self.num_entries.to_le_bytes());
        let mut writer = PageWriter::new();
        writer.append(&self.store, &tail)?;
        writer.finish(&self.store)?;

        let c = DiskComponent {
            id,
            store: self.store,
            body,
            bloom: self.bloom,
            metadata,
            max_key: (self.num_entries > 0).then_some(self.last_key),
            valid: AtomicBool::new(valid),
            quarantined: AtomicBool::new(false),
            num_entries: self.num_entries,
            num_antimatter: self.num_antimatter,
        };
        debug_assert!(valid || !c.is_valid());
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_storage::device::DeviceProfile;

    fn build(n: u64, page_size: usize) -> (Arc<DiskComponent>, Arc<BufferCache>) {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b = ComponentBuilder::new(
            device,
            page_size,
            CompressionScheme::None,
            n as usize,
            10,
            Some(b"schema".to_vec()),
        );
        for i in 0..n {
            let key = (i * 2).to_be_bytes(); // even keys only
            let payload = format!("value-{i}");
            b.push(&key, EntryKind::Record, payload.as_bytes()).unwrap();
        }
        let c = b.finish(ComponentId::flushed(0), true).unwrap();
        (Arc::new(c), Arc::new(BufferCache::new(128)))
    }

    #[test]
    fn point_lookup_hits_and_misses() {
        let (c, cache) = build(500, 256);
        for i in [0u64, 1, 250, 499] {
            let (kind, payload) = c.get(&cache, &(i * 2).to_be_bytes()).unwrap().unwrap();
            assert_eq!(kind, EntryKind::Record);
            assert_eq!(payload, format!("value-{i}").into_bytes());
        }
        // Odd keys are absent.
        for i in [1u64, 501, 999] {
            assert!(c.get(&cache, &i.to_be_bytes()).unwrap().is_none());
        }
        // Key below the first.
        assert!(c.get(&cache, &[0u8; 1]).unwrap().is_none());
    }

    #[test]
    fn scan_returns_all_in_order() {
        let (c, cache) = build(300, 128);
        let mut scan = c.scan(&cache, None);
        let mut prev: Option<Key> = None;
        let mut count = 0;
        while let Some(item) = scan.next_entry() {
            let (k, kind, _) = item.unwrap();
            assert_eq!(kind, EntryKind::Record);
            if let Some(p) = &prev {
                assert!(k > *p);
            }
            prev = Some(k);
            count += 1;
        }
        assert_eq!(count, 300);
    }

    #[test]
    fn scan_from_start_key() {
        let (c, cache) = build(100, 128);
        // Start between keys 100 (i=50) and 102 (i=51).
        let start = 101u64.to_be_bytes();
        let mut scan = c.scan(&cache, Some(&start));
        let (k, _, _) = scan.next_entry().unwrap().unwrap();
        assert_eq!(u64::from_be_bytes(k[..8].try_into().unwrap()), 102);
        let mut rest = 1;
        while scan.next_entry().is_some() {
            rest += 1;
        }
        assert_eq!(rest, 49);
    }

    #[test]
    fn oversized_entries_span_pages() {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b = ComponentBuilder::new(device, 64, CompressionScheme::None, 4, 10, None);
        let big = vec![7u8; 500];
        b.push(b"a", EntryKind::Record, &big).unwrap();
        b.push(b"b", EntryKind::Record, b"small").unwrap();
        let c = b.finish(ComponentId::flushed(1), true).unwrap();
        let cache = BufferCache::new(64);
        assert_eq!(c.get(&cache, b"a").unwrap().unwrap().1, big);
        assert_eq!(c.get(&cache, b"b").unwrap().unwrap().1, b"small".to_vec());
    }

    #[test]
    fn antimatter_entries_roundtrip() {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b = ComponentBuilder::new(device, 128, CompressionScheme::None, 2, 10, None);
        b.push(b"dead", EntryKind::AntiMatter, &[]).unwrap();
        b.push(b"live", EntryKind::Record, b"x").unwrap();
        let c = b.finish(ComponentId::flushed(2), true).unwrap();
        let cache = BufferCache::new(8);
        assert_eq!(c.get(&cache, b"dead").unwrap().unwrap().0, EntryKind::AntiMatter);
        assert_eq!(c.num_antimatter(), 1);
        assert_eq!(c.num_entries(), 2);
    }

    #[test]
    fn validity_bit_lifecycle() {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b = ComponentBuilder::new(device, 128, CompressionScheme::None, 1, 10, None);
        b.push(b"k", EntryKind::Record, b"v").unwrap();
        let c = b.finish(ComponentId::flushed(3), false).unwrap();
        assert!(!c.is_valid(), "INVALID until the operation completes");
        c.set_valid();
        assert!(c.is_valid());
    }

    #[test]
    fn out_of_order_push_is_a_typed_error() {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b = ComponentBuilder::new(device, 128, CompressionScheme::None, 2, 10, None);
        b.push(b"b", EntryKind::Record, b"").unwrap();
        for key in [&b"a"[..], b"b"] {
            let err = b.push(key, EntryKind::Record, b"").unwrap_err();
            assert!(matches!(err, StorageError::Corruption { .. }), "got {err}");
            assert!(err.to_string().contains("strictly ascending"), "got {err}");
        }
    }

    #[test]
    fn flipped_bit_quarantines_component_on_lookup() {
        use tc_storage::fault::FaultPlan;
        // Corrupt the very first data page while the component is built: the
        // build succeeds (bit flips are silent at write time), but any read
        // that touches the page must detect it, return a typed corruption
        // error, and quarantine the component — never decode garbage.
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        device.set_fault_plan(FaultPlan::new(7).flip_bit_in_nth_write(1));
        let mut b =
            ComponentBuilder::new(Arc::clone(&device), 64, CompressionScheme::None, 32, 10, None);
        for i in 0..32u64 {
            b.push(&i.to_be_bytes(), EntryKind::Record, b"payload").unwrap();
        }
        let c = Arc::new(b.finish(ComponentId::flushed(0), true).unwrap());
        device.clear_fault_plan();
        assert!(!c.is_quarantined());
        let cache = BufferCache::new(16);
        let err = c.get(&cache, &0u64.to_be_bytes()).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        assert!(c.is_quarantined());
        assert!(device.checksum_failures() >= 1);
    }

    #[test]
    fn flipped_bit_stops_scan_with_error() {
        use tc_storage::fault::FaultPlan;
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        // Flip a bit in a LATER data page: the scan yields the first
        // block's entries, then surfaces the corruption and ends.
        device.set_fault_plan(FaultPlan::new(9).flip_bit_in_nth_write(4));
        let mut b =
            ComponentBuilder::new(Arc::clone(&device), 64, CompressionScheme::None, 64, 10, None);
        for i in 0..64u64 {
            b.push(&i.to_be_bytes(), EntryKind::Record, b"payload").unwrap();
        }
        let c = Arc::new(b.finish(ComponentId::flushed(0), true).unwrap());
        device.clear_fault_plan();
        let cache = Arc::new(BufferCache::new(16));
        let mut scan = c.scan(&cache, None);
        let mut clean = 0usize;
        let mut saw_error = false;
        while let Some(item) = scan.next_entry() {
            match item {
                Ok(_) => clean += 1,
                Err(e) => {
                    assert!(e.is_corruption());
                    saw_error = true;
                }
            }
        }
        assert!(saw_error, "scan must surface the corrupt page");
        assert!(clean >= 1, "entries before the damage still stream");
        assert!(clean < 64, "entries after the damage must not appear");
        assert!(c.is_quarantined());
    }

    #[test]
    fn key_range_filter() {
        let (c, _) = build(100, 128); // keys 0..=198 (even)
        let max = 198u64.to_be_bytes();
        assert_eq!(c.max_key(), Some(&max[..]));
        let k = |v: u64| v.to_be_bytes().to_vec();
        // Fully inside.
        assert!(c.overlaps(Some(&k(10)), Some(&k(20))));
        // Range entirely above the component.
        assert!(!c.overlaps(Some(&k(199)), Some(&k(300))));
        // Range entirely below (end ≤ min).
        assert!(!c.overlaps(None, Some(&k(0))));
        // Touching boundaries.
        assert!(c.overlaps(Some(&k(198)), None));
        assert!(c.overlaps(None, Some(&k(1))));
        // Unbounded.
        assert!(c.overlaps(None, None));
    }

    #[test]
    fn component_id_display_and_order() {
        let c0 = ComponentId::flushed(0);
        let c1 = ComponentId::flushed(1);
        let merged = ComponentId::merged(c0, c1);
        assert_eq!(c0.to_string(), "C0");
        assert_eq!(merged.to_string(), "[C0,C1]");
        assert!(c1.max > c0.max);
        assert_eq!(merged.max, c1.max);
    }

    #[test]
    fn disk_bytes_include_tail_structures() {
        let (c, _) = build(100, 128);
        // 100 records ≈ data; index+bloom+metadata pages add beyond that.
        let data_estimate: u64 = 100 * 16;
        assert!(c.disk_bytes() > data_estimate);
        assert_eq!(c.metadata(), Some(&b"schema"[..]));
    }
}
