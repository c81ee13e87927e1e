//! K-way merged scans across the in-memory component(s) and on-disk
//! components, with newest-wins semantics and anti-matter annihilation
//! (paper §2.2, Fig 4b).
//!
//! A [`MergedScan`] *owns* its inputs: memtable contents are copied when the
//! snapshot is taken and disk components are retained via `Arc`. Once built,
//! the scan is independent of the tree's locks — concurrent flushes and
//! merges may replace the component list without invalidating an in-flight
//! scan, which simply keeps reading its consistent snapshot. Payloads are
//! lent, not copied, on their way out ([`crate::entry::Lent`]): a row
//! block's entry shares the block it was read from, a snapshot's entry is
//! its own buffer.
//!
//! The reconciliation runs on keys alone. A columnar component contributes
//! `(key, kind)` pairs from its key blocks and a row reference per record;
//! which version of a key wins, and which rows anti-matter deletes, is
//! decided without assembling anything. [`MergedScan::next_entry`] hands the
//! winners out as they are; [`MergedScan::next`] materializes them, one
//! reconstructed row group per source at a time, so a group none of whose
//! rows win is never read past its key block.
//!
//! A read scan may carry a zone filter ([`crate::zone`]). Before any block is
//! read, the components are walked oldest first, and a unit (row block or
//! row group) is skipped iff its zone fails the filter and its key interval
//! meets no unit of an older component that will be read. Memtable entries
//! are never skipped, and skipped units are never read, not even to prime
//! the heap. This loses no answer. Take a key whose newest version lies in a
//! skipped unit: every older version lies in an older unit its interval
//! meets, so in a skipped unit too, and every version fails the filter — the
//! key yields nothing either way. A key with a version in a unit that is read
//! is decided by its newest version, as without the filter; anti-matter in a
//! skipped unit is covered by the same argument.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tc_storage::error::StorageError;
use tc_storage::BufferCache;

use crate::component::{ComponentId, ComponentScan, DiskComponent, Payload, Span};
use crate::entry::{EntryKind, Key, Lent};
use crate::memtable::{MemEntry, Memtable};
use crate::zone::ZoneFilter;

/// Degradation record for a merged scan: the components that could not be
/// read — already quarantined at scan start, or quarantined mid-scan when a
/// page checksum failed — together with the error each one produced.
///
/// A scan with non-empty health still terminates normally, but its results
/// cover only the healthy sources; the query layer decides (per its
/// corruption policy) whether to surface partial results or fail the query
/// with the first recorded error.
#[derive(Debug, Default)]
pub struct ScanHealth {
    degraded: Vec<(ComponentId, StorageError)>,
}

impl ScanHealth {
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
    }

    /// Components dropped from the scan, oldest first.
    pub fn degraded(&self) -> &[(ComponentId, StorageError)] {
        &self.degraded
    }

    /// The first error encountered (what a fail-policy query reports).
    pub fn first_error(&self) -> Option<&StorageError> {
        self.degraded.first().map(|(_, e)| e)
    }

    /// Record that `id` could not be (fully) read; a component counts once.
    fn note(&mut self, id: ComponentId, e: StorageError) {
        if !self.degraded.iter().any(|(seen, _)| *seen == id) {
            self.degraded.push((id, e));
        }
    }
}

/// Copy a memtable's entries in `[start, end)` into an owned snapshot (the
/// cheap, in-memory part of scan construction — safe under a lock).
pub(crate) fn snapshot_memtable(
    mem: &Memtable,
    start: Option<&[u8]>,
    end: Option<&[u8]>,
) -> Vec<(Key, EntryKind, Vec<u8>)> {
    use std::ops::Bound;
    if start.zip(end).is_some_and(|(s, e)| s >= e) {
        return Vec::new();
    }
    mem.range(
        start.map_or(Bound::Unbounded, Bound::Included),
        end.map_or(Bound::Unbounded, Bound::Excluded),
    )
    .map(|(k, e)| match e {
        MemEntry::Record(p) => (k.clone(), EntryKind::Record, p.clone()),
        MemEntry::AntiMatter(_) => (k.clone(), EntryKind::AntiMatter, Vec::new()),
    })
    .collect()
}

/// One input to the merge. Rank encodes recency: higher = newer; memtables
/// are always newer than every disk component.
enum SourceIter {
    Mem(std::vec::IntoIter<(Key, EntryKind, Vec<u8>)>),
    Disk(ComponentScan),
}

struct HeapItem {
    key: Key,
    kind: EntryKind,
    payload: Payload,
    rank: usize,
}

/// An entry that won the reconciliation, its payload as the source holds it:
/// bytes, or — from a columnar component — a row reference that
/// [`MergedScan::materialize`] turns into bytes, or that a column-wise reader
/// answers from the source's pages ([`MergedScan::source_component`]).
#[derive(Debug)]
pub struct ScanEntry {
    pub key: Key,
    pub kind: EntryKind,
    pub payload: Payload,
    /// Which of the scan's sources the entry came from.
    pub rank: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.rank == other.rank
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert key order (smallest first), break
        // ties by rank (newest first).
        other.key.cmp(&self.key).then_with(|| self.rank.cmp(&other.rank))
    }
}

/// Merged iterator over an LSM tree's sources (self-contained snapshot).
pub struct MergedScan {
    heap: BinaryHeap<HeapItem>,
    sources: Vec<SourceIter>,
    /// Emit anti-matter entries (used by merge); reads skip them.
    include_antimatter: bool,
    /// Exclusive upper bound.
    end: Option<Key>,
    /// Components dropped because they were (or became) corrupt.
    health: ScanHealth,
    cache: Arc<BufferCache>,
    /// Units the zone filter let the scan leave unread.
    units_skipped: u64,
}

impl MergedScan {
    /// Build a scan. `components` are ordered oldest → newest;
    /// `mem_snapshots` (memtable copies of `[start, end)`, if any) are
    /// ordered oldest → newest too and are newer than every component —
    /// with a background flush in flight this is `[frozen, active]`. `start`
    /// is inclusive, `end` exclusive. A read scan with a zone `filter` skips
    /// the units it proves useless (see the module docs); a merge passes
    /// none. Heap priming reads (and possibly decompresses) one block per
    /// overlapping component, so a scan must be built *after* any tree lock is
    /// released.
    pub(crate) fn new(
        mem_snapshots: Vec<Vec<(Key, EntryKind, Vec<u8>)>>,
        components: &[Arc<DiskComponent>],
        cache: &Arc<BufferCache>,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        include_antimatter: bool,
        filter: Option<ZoneFilter<'_>>,
    ) -> Self {
        let mut read: Vec<&Arc<DiskComponent>> = Vec::with_capacity(components.len());
        let mut health = ScanHealth::default();
        for c in components {
            // Key-range filter: skip components outside [start, end).
            if !c.overlaps(start, end) {
                continue;
            }
            // A component already known corrupt is excluded up front; the
            // query layer sees it in the scan's health record.
            if c.is_quarantined() {
                health.note(
                    c.id(),
                    StorageError::corruption(
                        "component",
                        format!("component {} is quarantined", c.id()),
                    ),
                );
                continue;
            }
            read.push(c);
        }
        let masks = match filter {
            Some(filter) => skip_masks(&read, filter),
            None => vec![Vec::new(); read.len()],
        };
        let units_skipped = masks.iter().flatten().filter(|s| **s).count() as u64;
        let mut sources: Vec<SourceIter> = Vec::with_capacity(read.len() + mem_snapshots.len());
        for (c, skip) in read.into_iter().zip(masks) {
            sources.push(SourceIter::Disk(c.scan(cache, start, skip)));
        }
        for snapshot in mem_snapshots {
            sources.push(SourceIter::Mem(snapshot.into_iter()));
        }
        let mut scan = MergedScan {
            heap: BinaryHeap::with_capacity(sources.len()),
            sources,
            include_antimatter,
            end: end.map(|e| e.to_vec()),
            health,
            cache: Arc::clone(cache),
            units_skipped,
        };
        for rank in 0..scan.sources.len() {
            scan.advance(rank);
        }
        scan
    }

    fn advance(&mut self, rank: usize) {
        match &mut self.sources[rank] {
            SourceIter::Mem(it) => {
                if let Some((key, kind, payload)) = it.next() {
                    let payload = Payload::Bytes(payload.into());
                    self.heap.push(HeapItem { key, kind, payload, rank });
                }
            }
            SourceIter::Disk(scan) => match scan.next_entry() {
                Some(Ok((key, kind, payload))) => {
                    self.heap.push(HeapItem { key, kind, payload, rank });
                }
                Some(Err(e)) => {
                    // The component went corrupt mid-scan: it is quarantined
                    // (ComponentScan did that), the source yields nothing
                    // further, and the degradation is recorded for the query
                    // layer's policy decision.
                    let id = scan.component().id();
                    self.health.note(id, e);
                }
                None => {}
            },
        }
    }

    /// Row blocks and row groups the scan's zone filter left unread.
    pub fn units_skipped(&self) -> u64 {
        self.units_skipped
    }

    /// Degradation record: which components this scan had to drop.
    pub fn health(&self) -> &ScanHealth {
        &self.health
    }

    /// Take ownership of the health record (for absorbing into an
    /// aggregated, cross-partition report).
    pub fn take_health(&mut self) -> ScanHealth {
        std::mem::take(&mut self.health)
    }

    /// Next live entry: `(key, kind, payload)`, the payload owned. With
    /// `include_antimatter == false`, deleted keys are invisible. Row
    /// references are materialized here, for winners only; one whose
    /// component proves corrupt is dropped and recorded in the health.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Key, EntryKind, Vec<u8>)> {
        self.next_lent().map(|(key, kind, payload)| (key, kind, payload.into_vec()))
    }

    /// [`MergedScan::next`] with the payload lent, not copied: a row
    /// block's entry shares the block it was read from (see
    /// [`ComponentScan`]). For readers that only read the payload.
    pub fn next_lent(&mut self) -> Option<(Key, EntryKind, Lent)> {
        loop {
            let ScanEntry { key, kind, payload, rank } = self.next_entry()?;
            match payload {
                Payload::Bytes(bytes) => return Some((key, kind, bytes)),
                Payload::Row { group, row } => {
                    if let Ok(bytes) = self.materialize(rank, group, row) {
                        return Some((key, kind, bytes.into()));
                    }
                }
            }
        }
    }

    /// Next live entry with its payload left as the source holds it. The
    /// reconciliation runs on keys alone: a columnar source has read nothing
    /// but key blocks by the time its entry wins or is masked.
    pub fn next_entry(&mut self) -> Option<ScanEntry> {
        loop {
            let top = self.heap.pop()?;
            if let Some(end) = &self.end {
                if top.key.as_slice() >= end.as_slice() {
                    return None;
                }
            }
            self.advance(top.rank);
            // Drop older duplicates of the same key.
            while let Some(next) = self.heap.peek() {
                if next.key == top.key {
                    #[expect(clippy::expect_used, reason = "the heap was just peeked")]
                    let dup = self.heap.pop().expect("peeked");
                    self.advance(dup.rank);
                } else {
                    break;
                }
            }
            match top.kind {
                EntryKind::AntiMatter if !self.include_antimatter => continue,
                kind => {
                    let HeapItem { key, payload, rank, .. } = top;
                    return Some(ScanEntry { key, kind, payload, rank });
                }
            }
        }
    }

    /// The record behind a row reference `next_entry` returned for source
    /// `rank`. Reconstructs the row's group on first use (one group is kept
    /// per source). A storage error quarantines the component if it is
    /// corruption and lands in the scan's health; the source's keys keep
    /// masking older versions, its remaining rows fail the same way.
    pub fn materialize(
        &mut self,
        rank: usize,
        group: u32,
        row: u32,
    ) -> Result<Vec<u8>, StorageError> {
        let Some(SourceIter::Disk(scan)) = self.sources.get_mut(rank) else {
            return Err(StorageError::corruption(
                "merged scan",
                format!("source {rank} holds no row references"),
            ));
        };
        let id = scan.component().id();
        scan.materialize(group, row).inspect_err(|e| self.health.note(id, e.clone()))
    }

    /// The disk component behind source `rank` (`None` for a memtable), for
    /// readers that answer row references from its column pages.
    pub fn source_component(&self, rank: usize) -> Option<&Arc<DiskComponent>> {
        match self.sources.get(rank)? {
            SourceIter::Disk(scan) => Some(scan.component()),
            SourceIter::Mem(_) => None,
        }
    }

    /// The buffer cache every page of this scan is read through.
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// A reader of source `rank`'s column pages hit `e`: same consequences as
    /// a failed [`MergedScan::materialize`].
    pub fn report_fault(&mut self, rank: usize, e: StorageError) {
        if let Some(SourceIter::Disk(scan)) = self.sources.get_mut(rank) {
            self.health.note(scan.component().id(), e.clone());
            scan.fail_payloads(e);
        }
    }
}

/// Which units of each component (oldest first) a scan filtered by `filter`
/// leaves unread, one mask per component: a unit's zone fails the filter and
/// its key interval meets no unit of an older component that is read.
fn skip_masks(components: &[&Arc<DiskComponent>], filter: ZoneFilter<'_>) -> Vec<Vec<bool>> {
    // Per component already walked, the intervals of its units that are
    // read: ascending and disjoint.
    let mut read: Vec<Vec<Span<'_>>> = Vec::with_capacity(components.len());
    let mut masks = Vec::with_capacity(components.len());
    for c in components {
        let mut mask = vec![false; c.num_units()];
        let mut spans = Vec::new();
        for (u, skip) in mask.iter_mut().enumerate() {
            let span = c.unit_span(u);
            *skip =
                !c.unit_may_match(u, filter) && !read.iter().any(|older| meets_any(older, &span));
            if !*skip {
                spans.push(span);
            }
        }
        read.push(spans);
        masks.push(mask);
    }
    masks
}

/// Does `span` meet any of `spans` (ascending, disjoint)? Only the first
/// whose upper end lies above `span`'s first key can.
fn meets_any(spans: &[Span<'_>], span: &Span<'_>) -> bool {
    let first = spans.partition_point(|s| !s.below_hi(span.lo));
    spans.get(first).is_some_and(|s| s.meets(span))
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test hooks log events, outside the order")]
pub(crate) mod tests {
    use super::*;
    use crate::component::{ComponentBuilder, ComponentId};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Arc;
    use tc_compress::CompressionScheme;
    use tc_storage::device::{Device, DeviceProfile};
    use tc_storage::page_store::PageStore;

    fn component(seq: u64, entries: &[(u64, EntryKind, &str)]) -> Arc<DiskComponent> {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b =
            ComponentBuilder::new(device, 256, CompressionScheme::None, entries.len(), 10, None);
        for (k, kind, v) in entries {
            b.push(&k.to_be_bytes(), *kind, v.as_bytes()).unwrap();
        }
        Arc::new(b.finish(ComponentId::flushed(seq), true).unwrap())
    }

    fn collect(scan: &mut MergedScan) -> Vec<(u64, EntryKind, String)> {
        let mut out = Vec::new();
        while let Some((k, kind, p)) = scan.next() {
            out.push((
                u64::from_be_bytes(k[..8].try_into().unwrap()),
                kind,
                String::from_utf8(p).unwrap(),
            ));
        }
        out
    }

    #[test]
    fn newest_component_wins_per_key() {
        use EntryKind::*;
        let c0 = component(0, &[(1, Record, "old1"), (2, Record, "old2"), (3, Record, "old3")]);
        let c1 = component(1, &[(2, Record, "new2")]);
        let comps = vec![c0, c1];
        let cache = Arc::new(BufferCache::new(16));
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(
            collect(&mut scan),
            vec![
                (1, Record, "old1".into()),
                (2, Record, "new2".into()),
                (3, Record, "old3".into())
            ]
        );
    }

    #[test]
    fn paper_fig4_antimatter_annihilation() {
        use EntryKind::*;
        // C0: records 0 ("Kim") and 1 ("John"); C1: anti-matter for 0 and
        // record 2 ("Bob"). A read sees John and Bob only (Fig 4).
        let c0 = component(0, &[(0, Record, "Kim"), (1, Record, "John")]);
        let c1 = component(1, &[(0, AntiMatter, ""), (2, Record, "Bob")]);
        let comps = vec![c0, c1];
        let cache = Arc::new(BufferCache::new(16));
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(collect(&mut scan), vec![(1, Record, "John".into()), (2, Record, "Bob".into())]);
        // A merge-mode scan still sees the anti-matter entry.
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, true, None);
        let all = collect(&mut scan);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], (0, AntiMatter, "".into()));
    }

    #[test]
    fn memtable_overrides_disk() {
        use EntryKind::*;
        let c0 = component(0, &[(1, Record, "disk"), (2, Record, "stays")]);
        let comps = vec![c0];
        let mut mem = Memtable::new();
        mem.put(1u64.to_be_bytes().to_vec(), MemEntry::Record(b"mem".to_vec()));
        mem.put(3u64.to_be_bytes().to_vec(), MemEntry::AntiMatter(None));
        let cache = Arc::new(BufferCache::new(16));
        let mems = vec![snapshot_memtable(&mem, None, None)];
        let mut scan = MergedScan::new(mems, &comps, &cache, None, None, false, None);
        assert_eq!(
            collect(&mut scan),
            vec![(1, Record, "mem".into()), (2, Record, "stays".into())]
        );
    }

    #[test]
    fn frozen_memtable_ranks_between_disk_and_active() {
        use EntryKind::*;
        // Disk has k=1 "disk"; the frozen (mid-flush) memtable overwrote it
        // with "frozen"; the active memtable overwrote that with "active".
        // The scan must pick the active version; with the active one absent,
        // the frozen one must beat the disk one.
        let c0 = component(0, &[(1, Record, "disk"), (2, Record, "disk2")]);
        let comps = vec![c0];
        let mut frozen = Memtable::new();
        frozen.put(1u64.to_be_bytes().to_vec(), MemEntry::Record(b"frozen".to_vec()));
        frozen.put(2u64.to_be_bytes().to_vec(), MemEntry::Record(b"frozen2".to_vec()));
        let mut active = Memtable::new();
        active.put(1u64.to_be_bytes().to_vec(), MemEntry::Record(b"active".to_vec()));
        let cache = Arc::new(BufferCache::new(16));
        let mems =
            vec![snapshot_memtable(&frozen, None, None), snapshot_memtable(&active, None, None)];
        let mut scan = MergedScan::new(mems, &comps, &cache, None, None, false, None);
        assert_eq!(
            collect(&mut scan),
            vec![(1, Record, "active".into()), (2, Record, "frozen2".into())]
        );
    }

    #[test]
    fn scan_survives_component_list_replacement() {
        use EntryKind::*;
        // Snapshot semantics: dropping the caller's Arcs (as a concurrent
        // merge would) must not invalidate a running scan.
        let c0 = component(0, &[(1, Record, "a"), (2, Record, "b"), (3, Record, "c")]);
        let cache = Arc::new(BufferCache::new(16));
        let mut comps = vec![c0];
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(scan.next().unwrap().0, 1u64.to_be_bytes().to_vec());
        comps.clear(); // the tree swapped its list; the scan holds its own Arc
        assert_eq!(scan.next().unwrap().0, 2u64.to_be_bytes().to_vec());
        assert_eq!(scan.next().unwrap().0, 3u64.to_be_bytes().to_vec());
        assert!(scan.next().is_none());
    }

    #[test]
    fn range_bounds_are_respected() {
        use EntryKind::*;
        let entries: Vec<(u64, EntryKind, &str)> = (0..20).map(|i| (i, Record, "v")).collect();
        let c0 = component(0, &entries);
        let comps = vec![c0];
        let cache = Arc::new(BufferCache::new(16));
        let start = 5u64.to_be_bytes();
        let end = 9u64.to_be_bytes();
        let mut scan =
            MergedScan::new(Vec::new(), &comps, &cache, Some(&start), Some(&end), false, None);
        let got: Vec<u64> = collect(&mut scan).into_iter().map(|(k, _, _)| k).collect();
        assert_eq!(got, vec![5, 6, 7, 8]);
    }

    #[test]
    fn range_scan_skips_non_overlapping_components() {
        use EntryKind::*;
        // Old component holds keys 0..10; new holds 100..110. A range scan
        // over [100, 105) must not touch the old component's pages.
        let c_old = component(0, &(0..10).map(|i| (i, Record, "old")).collect::<Vec<_>>());
        let c_new = component(1, &(100..110).map(|i| (i, Record, "new")).collect::<Vec<_>>());
        let comps = vec![c_old, c_new];
        let cache = Arc::new(BufferCache::new(16));
        let start = 100u64.to_be_bytes();
        let end = 105u64.to_be_bytes();
        let misses_before = cache.misses();
        let mut scan =
            MergedScan::new(Vec::new(), &comps, &cache, Some(&start), Some(&end), false, None);
        let got: Vec<u64> = collect(&mut scan).into_iter().map(|(k, _, _)| k).collect();
        assert_eq!(got, vec![100, 101, 102, 103, 104]);
        // Only the new component's block was fetched.
        assert_eq!(cache.misses() - misses_before, 1);
    }

    #[test]
    fn quarantined_component_is_skipped_and_reported() {
        use EntryKind::*;
        let c0 = component(0, &[(1, Record, "a")]);
        let c1 = component(1, &[(2, Record, "b")]);
        c0.quarantine();
        let comps = vec![c0, c1];
        let cache = Arc::new(BufferCache::new(16));
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(collect(&mut scan), vec![(2, Record, "b".into())]);
        assert!(!scan.health().is_clean());
        assert_eq!(scan.health().degraded().len(), 1);
        assert_eq!(scan.health().degraded()[0].0, ComponentId::flushed(0));
        let health = scan.take_health();
        assert!(health.first_error().unwrap().is_corruption());
        assert!(scan.health().is_clean(), "take_health leaves a clean record");
    }

    #[test]
    fn mid_scan_corruption_degrades_without_panicking() {
        use tc_storage::fault::FaultPlan;
        use EntryKind::*;
        // Build one healthy component and one whose later pages are rotten.
        let healthy = component(1, &[(1000, Record, "ok1"), (1001, Record, "ok2")]);
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        device.set_fault_plan(FaultPlan::new(21).flip_bit_in_nth_write(4));
        let mut b =
            ComponentBuilder::new(Arc::clone(&device), 64, CompressionScheme::None, 64, 10, None);
        for i in 0..64u64 {
            b.push(&i.to_be_bytes(), Record, b"payload").unwrap();
        }
        let rotten = Arc::new(b.finish(ComponentId::flushed(0), true).unwrap());
        device.clear_fault_plan();
        let comps = vec![rotten.clone(), healthy];
        let cache = Arc::new(BufferCache::new(32));
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        let got = collect(&mut scan);
        // The healthy component's rows always survive; the rotten one
        // contributes only entries before the damage.
        assert!(got.iter().any(|(k, _, _)| *k == 1000));
        assert!(got.iter().any(|(k, _, _)| *k == 1001));
        assert!(got.len() < 2 + 64, "rows after the corrupt page must be gone");
        assert!(!scan.health().is_clean());
        assert_eq!(scan.health().degraded()[0].0, ComponentId::flushed(0));
        assert!(rotten.is_quarantined());
    }

    #[test]
    fn bounded_memtable_snapshot_copies_only_the_range() {
        let mut mem = Memtable::new();
        for i in 0..10u64 {
            mem.put(i.to_be_bytes().to_vec(), MemEntry::Record(b"v".to_vec()));
        }
        let keys = |start: u64, end: u64| -> Vec<u64> {
            snapshot_memtable(&mem, Some(&start.to_be_bytes()), Some(&end.to_be_bytes()))
                .iter()
                .map(|(k, _, _)| u64::from_be_bytes(k[..8].try_into().unwrap()))
                .collect()
        };
        assert_eq!(keys(3, 6), [3, 4, 5], "nothing at or past the end is copied");
        assert_eq!(keys(6, 6), [] as [u64; 0]);
        assert_eq!(keys(7, 2), [] as [u64; 0], "an empty range copies nothing");
        assert_eq!(snapshot_memtable(&mem, None, None).len(), 10);
    }

    /// Zones over one column `v`: a payload that parses as an integer is a
    /// number, any other a value of one non-numeric class.
    struct IntZones {
        columns: Vec<crate::zone::ZoneColumn>,
        range: Option<(i64, i64)>,
        other: bool,
    }

    impl crate::zone::ZoneExtractor for IntZones {
        fn columns(&self) -> &[crate::zone::ZoneColumn] {
            &self.columns
        }

        fn observe(&mut self, payload: &[u8]) {
            match std::str::from_utf8(payload).unwrap().parse::<i64>() {
                Ok(v) => {
                    let (lo, hi) = self.range.unwrap_or((v, v));
                    self.range = Some((lo.min(v), hi.max(v)));
                }
                Err(_) => self.other = true,
            }
        }

        fn take(&mut self) -> crate::zone::Zone {
            use crate::zone::{ColumnZone, Num};
            let range = self.range.take().map(|(lo, hi)| (Num::Int(lo), Num::Int(hi)));
            let ranks = std::mem::take(&mut self.other) as u32;
            vec![ColumnZone::Known { range, ranks }].into()
        }
    }

    /// One entry per block (a page holds less than one entry), every block
    /// with its zone.
    fn zoned_component(seq: u64, entries: &[(u64, EntryKind, &str)]) -> Arc<DiskComponent> {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let zones = IntZones { columns: vec![vec!["v".into()]], range: None, other: false };
        let mut b =
            ComponentBuilder::new(device, 8, CompressionScheme::None, entries.len(), 10, None)
                .with_zones(Box::new(zones));
        for (k, kind, v) in entries {
            b.push(&k.to_be_bytes(), *kind, v.as_bytes()).unwrap();
        }
        Arc::new(b.finish(ComponentId::flushed(seq), true).unwrap())
    }

    /// The scan filter `40 <= v < 60`, as a zone test and on a payload.
    fn in_window(cols: &[crate::zone::ZoneColumn], zone: &[crate::zone::ColumnZone]) -> bool {
        use crate::zone::{ColumnZone, Num};
        let Some(i) = cols.iter().position(|c| c[..] == ["v"]) else { return true };
        match zone[i] {
            ColumnZone::Unknown => true,
            ColumnZone::Known { range: Some((Num::Int(lo), Num::Int(hi))), .. } => {
                hi >= 40 && lo < 60
            }
            ColumnZone::Known { range, .. } => range.is_some(),
        }
    }

    fn passes(payload: &[u8]) -> bool {
        std::str::from_utf8(payload).unwrap().parse::<i64>().is_ok_and(|v| (40..60).contains(&v))
    }

    /// The trap: a unit whose zone fails the filter may be skipped only if
    /// no older unit that is read shares its key range. Three components and
    /// a memtable; each key below names the version the filter sees last.
    #[test]
    fn zone_skips_keep_newer_versions_masking_older_ones() {
        use EntryKind::*;
        let c0 = zoned_component(
            0,
            &[(3, Record, "45"), (5, Record, "50"), (7, Record, "55"), (9, Record, "100")],
        );
        // Key 5's newer version fails the filter and must still mask the
        // older one that passes; keys 100..103 overlap nothing older.
        let c1 = zoned_component(
            1,
            &[(5, Record, "100"), (100, Record, "0"), (101, Record, "x"), (102, Record, "1")],
        );
        // Anti-matter for key 7 sits alone in a block no zone can pass: it
        // must still delete. Key 20 passes.
        let c2 = zoned_component(2, &[(7, AntiMatter, ""), (20, Record, "41"), (30, Record, "x")]);
        // The memtable wins both ways: key 3 fails over a passing version,
        // key 9 passes over a failing one.
        let mut mem = Memtable::new();
        mem.put(3u64.to_be_bytes().to_vec(), MemEntry::Record(b"200".to_vec()));
        mem.put(9u64.to_be_bytes().to_vec(), MemEntry::Record(b"45".to_vec()));
        let comps = vec![c0, c1, c2];
        let scan = |filter: Option<ZoneFilter<'_>>| {
            let cache = Arc::new(BufferCache::new(64));
            let mems = vec![snapshot_memtable(&mem, None, None)];
            let mut scan = MergedScan::new(mems, &comps, &cache, None, None, false, filter);
            let kept: Vec<_> =
                collect(&mut scan).into_iter().filter(|(_, _, v)| passes(v.as_bytes())).collect();
            (kept, scan.units_skipped(), cache.misses())
        };
        let (unpruned, none_skipped, all_pages) = scan(None);
        assert_eq!(none_skipped, 0);
        assert_eq!(unpruned, vec![(9, Record, "45".into()), (20, Record, "41".into())]);
        let (pruned, skipped, pages) = scan(Some(&in_window));
        assert_eq!(pruned, unpruned);
        // c0's key 9 (nothing is older) and c1's keys 100..=102. Every other
        // failing block meets an older block that is read — c1's key-5 block
        // spans [5, 100), so c2's key 30 is read too.
        assert_eq!(skipped, 4);
        // Every block here lies on the same number of pages.
        assert_eq!(pages * 11, all_pages * (11 - 4), "skipped blocks are never read");
    }

    #[test]
    fn re_insert_after_delete_is_visible() {
        use EntryKind::*;
        let c0 = component(0, &[(7, Record, "v1")]);
        let c1 = component(1, &[(7, AntiMatter, "")]);
        let c2 = component(2, &[(7, Record, "v2")]);
        let comps = vec![c0, c1, c2];
        let cache = Arc::new(BufferCache::new(16));
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(collect(&mut scan), vec![(7, Record, "v2".into())]);
    }

    /// A columnar body kept in memory, counting how often each group is
    /// reconstructed — what the real codec's `rows_reconstructed` measures.
    #[derive(Debug)]
    struct CountingChunk {
        groups: Vec<Vec<crate::component::Entry>>,
        reconstructions: Arc<[AtomicUsize; 4]>,
        /// Key blocks read, row payloads rotten.
        rotten_rows: bool,
    }

    impl crate::columnar::ColumnarChunk for CountingChunk {
        fn num_groups(&self) -> usize {
            self.groups.len()
        }

        fn group_first_key(&self, g: usize) -> &[u8] {
            &self.groups[g][0].0
        }

        fn read_group_keys(
            &self,
            _: &tc_storage::page_store::PageStore,
            _: &BufferCache,
            g: usize,
        ) -> Result<Vec<(Key, EntryKind)>, StorageError> {
            Ok(self.groups[g].iter().map(|(k, kind, _)| (k.clone(), *kind)).collect())
        }

        fn read_group_rows(
            &self,
            _: &tc_storage::page_store::PageStore,
            _: &BufferCache,
            g: usize,
        ) -> Result<Vec<crate::component::Entry>, StorageError> {
            self.reconstructions[g].fetch_add(1, AtomicOrdering::Relaxed);
            if self.rotten_rows {
                return Err(StorageError::corruption("column block", "rotten".to_string()));
            }
            Ok(self.groups[g].clone())
        }

        fn find_row(
            &self,
            _: &tc_storage::page_store::PageStore,
            _: &BufferCache,
            g: usize,
            key: &[u8],
        ) -> Result<Option<(u32, EntryKind)>, StorageError> {
            let row = self.groups[g].iter().position(|(k, _, _)| k == key);
            Ok(row.map(|i| (i as u32, self.groups[g][i].1)))
        }

        fn read_row(
            &self,
            _: &tc_storage::page_store::PageStore,
            _: &BufferCache,
            g: usize,
            row: u32,
        ) -> Result<Vec<u8>, StorageError> {
            Ok(self.groups[g][row as usize].2.clone())
        }
    }

    /// What the hook and the codec of one tree saw, in order.
    type EventLog = Arc<std::sync::Mutex<Vec<String>>>;

    fn text(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(bytes)
    }

    /// Hands out writers that cut a component's entries into groups of three.
    #[derive(Debug, Default)]
    pub(crate) struct CountingCodec {
        reconstructions: Arc<[AtomicUsize; 4]>,
        rotten_rows: bool,
        log: EventLog,
    }

    impl crate::columnar::ColumnarCodec for CountingCodec {
        fn writer(&self, schema_blob: Option<&[u8]>) -> Box<dyn crate::columnar::ColumnarWriter> {
            self.log.lock().unwrap().push(format!("writer:{}", text(schema_blob.unwrap_or(b"-"))));
            Box::new(CountingWriter {
                chunk: CountingChunk {
                    groups: Vec::new(),
                    reconstructions: Arc::clone(&self.reconstructions),
                    rotten_rows: self.rotten_rows,
                },
                log: Arc::clone(&self.log),
            })
        }
    }

    /// Keeps the rows in memory (they are what the chunk serves) and writes
    /// each full group's payloads to the store as one block, so a build has
    /// pages to fault on and bytes to count.
    #[derive(Debug)]
    struct CountingWriter {
        chunk: CountingChunk,
        log: EventLog,
    }

    impl CountingWriter {
        fn write_last_group(&self, store: &PageStore) -> Result<(), StorageError> {
            let Some(group) = self.chunk.groups.last() else { return Ok(()) };
            let mut w = tc_storage::page_store::PageWriter::new();
            for (key, _, payload) in group {
                w.append(store, key)?;
                w.append(store, payload)?;
            }
            w.finish(store).map(|_| ())
        }
    }

    impl crate::columnar::ColumnarWriter for CountingWriter {
        fn push(
            &mut self,
            store: &PageStore,
            key: &[u8],
            kind: EntryKind,
            payload: &[u8],
        ) -> Result<(), StorageError> {
            let pages = store.num_pages();
            self.log.lock().unwrap().push(format!("push:{}@{pages}", text(key)));
            if self.chunk.groups.last().is_none_or(|g| g.len() == 3) {
                self.write_last_group(store)?;
                self.chunk.groups.push(Vec::new());
            }
            let group = self.chunk.groups.last_mut().expect("just opened");
            group.push((key.to_vec(), kind, payload.to_vec()));
            Ok(())
        }

        fn push_row(
            &mut self,
            store: &PageStore,
            key: &[u8],
            source: crate::columnar::RowSource<'_>,
        ) -> Result<(), StorageError> {
            let (group, row) = (source.group as usize, source.row);
            let payload = source.chunk.read_row(source.store, source.cache, group, row)?;
            self.push(store, key, EntryKind::Record, &payload)
        }

        fn finish(
            self: Box<Self>,
            store: &PageStore,
        ) -> Result<Box<dyn crate::columnar::ColumnarChunk>, StorageError> {
            self.write_last_group(store)?;
            self.log.lock().unwrap().push("finish".into());
            Ok(Box::new(self.chunk))
        }
    }

    fn columnar_component(
        seq: u64,
        entries: &[(u64, EntryKind, &str)],
        rotten_rows: bool,
    ) -> (Arc<DiskComponent>, Arc<[AtomicUsize; 4]>) {
        let codec = CountingCodec { rotten_rows, ..Default::default() };
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let mut b =
            ComponentBuilder::new(device, 256, CompressionScheme::None, entries.len(), 10, None)
                .with_columnar(&codec);
        for (k, kind, v) in entries {
            b.push(&k.to_be_bytes(), *kind, v.as_bytes()).unwrap();
        }
        (Arc::new(b.finish(ComponentId::flushed(seq), true).unwrap()), codec.reconstructions)
    }

    #[test]
    fn only_groups_that_own_a_winner_are_reconstructed() {
        use EntryKind::*;
        // The older component's second group (keys 3..=5) is masked whole: a
        // newer version of 3 and 5, anti-matter for 4. Its first group and
        // its third (key 6) each own a winner.
        let (old, old_counts) =
            columnar_component(0, &(0..7).map(|k| (k, Record, "old")).collect::<Vec<_>>(), false);
        let (new, new_counts) = columnar_component(
            1,
            &[(3, Record, "new"), (4, AntiMatter, ""), (5, Record, "new")],
            false,
        );
        let comps = vec![old, new];
        let cache = Arc::new(BufferCache::new(16));
        let counts = |c: &[AtomicUsize; 4]| c.each_ref().map(|n| n.load(AtomicOrdering::Relaxed));

        // Reconciling on keys alone pivots nothing.
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        let mut keys = Vec::new();
        while let Some(entry) = scan.next_entry() {
            keys.push(u64::from_be_bytes(entry.key[..8].try_into().unwrap()));
        }
        assert_eq!(keys, vec![0, 1, 2, 3, 5, 6]);
        assert_eq!((counts(&old_counts), counts(&new_counts)), ([0; 4], [0; 4]));

        // Materializing the winners reconstructs each owning group once.
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(
            collect(&mut scan),
            vec![
                (0, Record, "old".into()),
                (1, Record, "old".into()),
                (2, Record, "old".into()),
                (3, Record, "new".into()),
                (5, Record, "new".into()),
                (6, Record, "old".into()),
            ]
        );
        assert_eq!(counts(&old_counts), [1, 0, 1, 0], "the masked group stays on disk");
        assert_eq!(counts(&new_counts), [1, 0, 0, 0]);
        assert!(scan.health().is_clean());
    }

    #[test]
    fn unreadable_rows_are_dropped_but_their_keys_keep_masking() {
        use EntryKind::*;
        // The newer component's key blocks read fine, its rows do not: the
        // winner it owns (key 1) is lost, but neither that key's older
        // version nor the row its anti-matter deletes (key 2) resurfaces.
        let (old, _) =
            columnar_component(0, &(0..4).map(|k| (k, Record, "old")).collect::<Vec<_>>(), false);
        let (new, new_counts) = columnar_component(
            1,
            &[(1, Record, "new"), (2, AntiMatter, ""), (3, Record, "new")],
            true,
        );
        let comps = vec![old, Arc::clone(&new)];
        let cache = Arc::new(BufferCache::new(16));
        let mut scan = MergedScan::new(Vec::new(), &comps, &cache, None, None, false, None);
        assert_eq!(collect(&mut scan), vec![(0, Record, "old".into())]);
        assert_eq!(scan.health().degraded().len(), 1, "one component, counted once");
        assert_eq!(scan.health().degraded()[0].0, ComponentId::flushed(1));
        assert!(new.is_quarantined());
        let tries = new_counts[0].load(AtomicOrdering::Relaxed);
        assert_eq!(tries, 1, "later rows fail without another read");
    }

    /// Records every call of its flush passes in the shared log; each
    /// flush's metadata blob is distinct (`schema-1`, `schema-2`, …).
    struct RecordingHook {
        log: EventLog,
        blobs: AtomicUsize,
    }

    impl crate::hook::ComponentHook for RecordingHook {
        fn begin_flush(&self) -> Box<dyn crate::hook::FlushPass + '_> {
            self.log.lock().unwrap().push("begin".into());
            Box::new(self)
        }
    }

    impl crate::hook::FlushPass for &RecordingHook {
        fn on_record(
            &mut self,
            payload: &[u8],
            out: &mut Vec<u8>,
        ) -> Result<(), tc_storage::StorageError> {
            self.log.lock().unwrap().push(format!("record:{}", text(payload)));
            out.extend(payload.to_ascii_uppercase());
            Ok(())
        }

        fn on_antimatter(
            &mut self,
            attachment: Option<&[u8]>,
        ) -> Result<(), tc_storage::StorageError> {
            self.log.lock().unwrap().push(format!("anti:{}", text(attachment.unwrap_or(b"-"))));
            Ok(())
        }

        fn metadata(&mut self) -> Option<Vec<u8>> {
            let n = self.blobs.fetch_add(1, AtomicOrdering::Relaxed) + 1;
            self.log.lock().unwrap().push("metadata".into());
            Some(format!("schema-{n}").into_bytes())
        }

        fn commit(self: Box<Self>) {
            self.log.lock().unwrap().push("commit".into());
        }
    }

    /// A columnar tree over the mock codec and the recording hook, holding
    /// one flushed component (`a`) and a memtable of a replaced record (its
    /// displaced anti-schema pending), a fresh record and an anti-matter
    /// entry with an attachment. The log is cleared of the first flush.
    fn recorded_tree() -> (crate::tree::LsmTree, Arc<Device>, EventLog) {
        use crate::tree::{LsmOptions, LsmTree};
        let log = EventLog::default();
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let tree = LsmTree::new(
            Arc::clone(&device),
            Arc::new(BufferCache::new(64)),
            Arc::new(RecordingHook { log: Arc::clone(&log), blobs: AtomicUsize::new(0) }),
            LsmOptions {
                page_size: 64,
                merge_policy: crate::MergePolicy::NoMerge,
                // The only device writes are the component's pages.
                wal_enabled: false,
                columnar: Some(Arc::new(CountingCodec {
                    log: Arc::clone(&log),
                    ..Default::default()
                })),
                ..Default::default()
            },
        );
        tree.insert(b"a".to_vec(), b"old".to_vec()).unwrap();
        tree.flush().unwrap();
        tree.replace(b"a".to_vec(), b"new".to_vec(), Some(b"anti-a".to_vec())).unwrap();
        tree.insert(b"b".to_vec(), b"fresh".to_vec()).unwrap();
        tree.delete(b"c".to_vec(), Some(b"anti-c".to_vec())).unwrap();
        log.lock().unwrap().clear();
        (tree, device, log)
    }

    /// The second flush of [`recorded_tree`], as the log must read: the pass
    /// over everything, then the writer with that flush's blob, then the
    /// transformed entries into a store that holds no page yet, and the
    /// pass's commit once the component is built.
    const SECOND_FLUSH: [&str; 12] = [
        "begin",
        "anti:anti-a",
        "record:new",
        "record:fresh",
        "anti:anti-c",
        "metadata",
        "writer:schema-2",
        "push:a@0",
        "push:b@0",
        "push:c@0",
        "finish",
        "commit",
    ];

    #[test]
    fn a_flush_runs_the_hook_before_it_opens_the_writer() {
        let (tree, device, log) = recorded_tree();
        let written = device.write_ops();
        tree.flush().unwrap();
        assert_eq!(*log.lock().unwrap(), SECOND_FLUSH);
        assert!(device.write_ops() > written);
        let flushed = tree.components().pop().unwrap();
        assert!(flushed.is_columnar());
        assert_eq!(flushed.metadata(), Some(&b"schema-2"[..]));
        assert_eq!(tree.get(b"a").unwrap(), Some(b"NEW".to_vec()));
        assert_eq!(tree.get(b"b").unwrap(), Some(b"FRESH".to_vec()));
        assert_eq!(tree.get(b"c").unwrap(), None);

        // A bulk load takes the same route.
        let log = EventLog::default();
        let empty = crate::tree::LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::new(RecordingHook { log: Arc::clone(&log), blobs: AtomicUsize::new(0) }),
            crate::tree::LsmOptions::default(),
        );
        empty
            .bulk_load([(b"x".to_vec(), b"one".to_vec()), (b"y".to_vec(), b"two".to_vec())])
            .unwrap();
        let loaded = ["begin", "record:one", "record:two", "metadata", "commit"];
        assert_eq!(*log.lock().unwrap(), loaded);
        assert_eq!(empty.components()[0].metadata(), Some(&b"schema-1"[..]));
        assert_eq!(empty.get(b"y").unwrap(), Some(b"TWO".to_vec()));
    }

    #[test]
    fn a_fault_in_the_build_pass_aborts_once_and_the_flush_resumes() {
        use tc_storage::error::IoOp;
        use tc_storage::fault::{FaultKind, FaultPlan};
        let (reference, _, _) = recorded_tree();
        reference.flush().unwrap();
        let expected_bytes = reference.components()[1].disk_bytes();

        let (tree, device, log) = recorded_tree();
        let installed = tree.components();
        // The tail is the build's first page write: every pass call and
        // every push (three rows, one open group) come before it.
        device.set_fault_plan(FaultPlan::new(1).fail_nth(IoOp::Write, 1, FaultKind::Transient));
        assert!(tree.flush().is_err());
        device.clear_fault_plan();
        {
            let mut log = log.lock().unwrap();
            assert_eq!(*log, SECOND_FLUSH[..10], "the failed write: no finish, no commit");
            log.clear();
        }
        assert_eq!(tree.stats().maintenance_errors, 1);
        assert_eq!(tree.memtable_len(), 3, "the frozen memtable is kept");
        assert!(tree.components().iter().zip(&installed).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(tree.get(b"b").unwrap(), Some(b"fresh".to_vec()));

        // The resumed flush runs a fresh pass over the same frozen entries
        // and displaced anti-schema, builds the same component and commits.
        tree.flush().unwrap();
        let resumed = log.lock().unwrap().clone();
        assert_eq!(resumed[..6], SECOND_FLUSH[..6]);
        assert_eq!(resumed[6], "writer:schema-3");
        assert_eq!(resumed[7..], SECOND_FLUSH[7..]);
        assert_eq!(tree.memtable_len(), 0);
        assert_eq!(tree.components().len(), 2);
        assert_eq!(tree.components()[1].disk_bytes(), expected_bytes);
        assert_eq!(tree.components()[1].id(), reference.components()[1].id());
        assert_eq!(tree.get(b"a").unwrap(), Some(b"NEW".to_vec()));
    }

    /// One layer of a lending scan's inputs: `(key, payload length)`, no
    /// length for anti-matter.
    type Layer = Vec<(u16, Option<usize>)>;

    /// The payload `layer` stores under `key`: `len` bytes that differ by
    /// position, key and layer, so a misplaced range cannot pass.
    fn lent_payload(layer: usize, key: u16, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ key as u8 ^ (layer as u8) << 5).collect()
    }

    /// A layer's entries in key order, the last write of a key winning.
    fn lent_layer(
        layer: usize,
        entries: &Layer,
    ) -> std::collections::BTreeMap<Key, Option<Vec<u8>>> {
        entries
            .iter()
            .map(|&(key, len)| {
                (key.to_be_bytes().to_vec(), len.map(|n| lent_payload(layer, key, n)))
            })
            .collect()
    }

    fn arb_layer() -> impl proptest::strategy::Strategy<Value = Layer> {
        use proptest::prelude::*;
        // Payloads up to 1.5 pages of 256 bytes: blocks span pages.
        let payload = prop_oneof![4 => (0usize..384).prop_map(Some), 1 => Just(None)];
        proptest::collection::vec((0u16..64, payload), 0..24)
    }

    fn arb_bound() -> impl proptest::strategy::Strategy<Value = Option<u16>> {
        use proptest::prelude::*;
        prop_oneof![Just(None), (0u16..70).prop_map(Some)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A scan over 1–4 row-format components and 0–2 memtable snapshots
        /// (frozen, then active) yields exactly what a model of the layers
        /// holds, in `[start, end)`, in read and in merge mode; every
        /// payload it lends, all kept until the scan is done, equals the
        /// bytes `next` returns.
        #[test]
        fn lent_scan_matches_model(
            disk in proptest::collection::vec(arb_layer(), 1..5),
            mem in proptest::collection::vec(arb_layer(), 0..3),
            start in arb_bound(),
            end in arb_bound(),
        ) {
            let device = Arc::new(Device::new(DeviceProfile::RAM));
            let cache = Arc::new(BufferCache::new(64));
            let mut model = std::collections::BTreeMap::new();
            let mut comps = Vec::new();
            for (layer, entries) in disk.iter().enumerate() {
                let entries = lent_layer(layer, entries);
                let mut b = ComponentBuilder::new(
                    Arc::clone(&device),
                    256,
                    CompressionScheme::None,
                    entries.len(),
                    10,
                    None,
                );
                for (key, payload) in &entries {
                    match payload {
                        Some(p) => b.push(key, EntryKind::Record, p).unwrap(),
                        None => b.push(key, EntryKind::AntiMatter, &[]).unwrap(),
                    }
                }
                comps.push(Arc::new(b.finish(ComponentId::flushed(layer as u64), true).unwrap()));
                model.extend(entries);
            }
            let start = start.map(u16::to_be_bytes);
            let end = end.map(u16::to_be_bytes);
            let (start, end) = (start.as_ref().map(|s| &s[..]), end.as_ref().map(|e| &e[..]));
            let mut mems = Vec::new();
            for (layer, entries) in mem.iter().enumerate() {
                let entries = lent_layer(disk.len() + layer, entries);
                let mut m = Memtable::new();
                for (key, payload) in &entries {
                    let entry = match payload {
                        Some(p) => MemEntry::Record(p.clone()),
                        None => MemEntry::AntiMatter(None),
                    };
                    m.put(key.clone(), entry);
                }
                mems.push(m);
                model.extend(entries);
            }
            let in_range = |k: &Key| {
                start.is_none_or(|s| k.as_slice() >= s) && end.is_none_or(|e| k.as_slice() < e)
            };
            for include_antimatter in [false, true] {
                let expected: Vec<(Key, EntryKind, Vec<u8>)> = model
                    .iter()
                    .filter(|(k, p)| in_range(k) && (include_antimatter || p.is_some()))
                    .map(|(k, p)| match p {
                        Some(p) => (k.clone(), EntryKind::Record, p.clone()),
                        None => (k.clone(), EntryKind::AntiMatter, Vec::new()),
                    })
                    .collect();
                let scan = || {
                    let snapshots = mems.iter().map(|m| snapshot_memtable(m, start, end)).collect();
                    MergedScan::new(snapshots, &comps, &cache, start, end, include_antimatter, None)
                };
                let mut lent = Vec::new();
                let mut lending = scan();
                while let Some(entry) = lending.next_lent() {
                    lent.push(entry);
                }
                drop(lending);
                let mut owned = Vec::new();
                let mut copying = scan();
                while let Some(entry) = copying.next() {
                    owned.push(entry);
                }
                let lent: Vec<_> = lent.into_iter().map(|(k, kind, p)| (k, kind, p.to_vec())).collect();
                assert_eq!(&lent, &owned);
                assert_eq!(&owned, &expected);
            }
        }
    }
}
