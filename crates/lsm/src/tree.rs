//! The LSM tree: in-memory component + on-disk components + WAL, with the
//! flush/merge lifecycle the tuple compactor piggybacks on (paper §2.2,
//! §3.1).
//!
//! # Threading model
//!
//! The tree is internally synchronized so one writer, any number of
//! readers, and background flush/merge workers can share it through `&self`
//! (`Arc<LsmTree>`):
//!
//! * **`state: RwLock<TreeState>`** guards the mutable topology: the active
//!   memtable, the frozen memtable (mid-flush), the on-disk component list,
//!   and the displaced anti-schema queue. Writers take it briefly per
//!   operation. Readers take it in one of two routines,
//!   [`LsmTree::lookup_with`] (point lookups) and [`LsmTree::scan_with`]
//!   (scans), just long enough to build an owned snapshot (memtable hits or
//!   copies, a cloned `Arc` component list), and then read without any
//!   lock; state that must agree with the snapshot is captured by a
//!   closure inside the same section. The guard never leaves this module.
//!   Flush *freeze* and flush/merge *install* are the only other write
//!   acquisitions — both O(1) pointer swaps.
//! * **`flush_lock: Mutex<()>`** serializes flushes. A flush freezes the
//!   memtable (rotating the WAL in the same critical section, so the active
//!   WAL segment always covers exactly the active memtable), builds the
//!   component with no state lock held (this is where the hook's flush pass
//!   runs, on its own copy of the hook's state), then installs the
//!   component, clears the frozen memtable and commits the pass in one
//!   write-lock section — a reader snapshot can never see the flushed data
//!   twice or lose it, nor a schema that disagrees with the components.
//! * **`merge_lock: Mutex<()>`** serializes merges. A merge snapshots its
//!   input components, builds the merged component lock-free, and splices
//!   it in *by identity* (`Arc::ptr_eq`), so concurrent flush appends don't
//!   invalidate its indices. In-flight scans keep their `Arc`s to the old
//!   components (snapshot semantics).
//!
//! Schema commits keep the paper's discipline (§3.1.1): a flush publishes
//! the schema it inferred at the moment its component is installed, never
//! before; a merge keeps its newest input's metadata blob and never touches
//! the in-memory schema, so flushes and merges need no mutual
//! synchronization beyond the component-list swap.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use tc_compress::CompressionScheme;
use tc_storage::device::Device;
use tc_storage::error::StorageError;
use tc_storage::BufferCache;
use tc_util::sync::{ranks, OrderedMutex, OrderedRwLock};

use crate::columnar::ColumnarCodec;
use crate::component::{ComponentBuilder, ComponentId, DiskComponent, LookupHit, Payload};
use crate::entry::{EntryKind, Key};
use crate::hook::{ComponentHook, FlushPass};
use crate::iter::{snapshot_memtable, MergedScan, ScanEntry};
use crate::memtable::{MemEntry, Memtable};
use crate::policy::{CompactionDecision, MergePick, MergePolicy, MergeTrigger, NUM_MERGE_TRIGGERS};
use crate::wal::Wal;
use crate::zone::ZoneFilter;

/// Per-tree configuration.
#[derive(Debug, Clone)]
pub struct LsmOptions {
    pub page_size: usize,
    pub compression: CompressionScheme,
    /// In-memory component budget in bytes; exceeding it triggers a flush.
    pub memtable_budget: usize,
    pub merge_policy: MergePolicy,
    pub bloom_bits_per_key: usize,
    /// Disable to model bulk-load (no transaction log, §4.3).
    pub wal_enabled: bool,
    /// Flush (and run the merge policy) inline on the writing thread when
    /// the memtable exceeds its budget. Disable when a background
    /// maintenance worker drives flushes instead — writers then never stall
    /// on flush work (the scheduler watches [`LsmTree::needs_flush`]).
    pub auto_flush: bool,
    /// Store a CRC-32 footer with every component data page and verify it
    /// on read. On by default; disable only to measure the checksum
    /// overhead (bench A/B) — without it, injected bit flips go undetected.
    pub integrity: bool,
    /// The tree's layout, fixed at creation: with a codec, every flush,
    /// merge and bulk load shreds its entries into the columnar (AMAX)
    /// layout; without one, every component is row blocks.
    pub columnar: Option<Arc<dyn ColumnarCodec>>,
}

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            page_size: 32 * 1024,
            compression: CompressionScheme::None,
            memtable_budget: 4 * 1024 * 1024,
            merge_policy: MergePolicy::Prefix {
                max_mergeable_size: 64 * 1024 * 1024,
                max_tolerable_components: 5,
            },
            bloom_bits_per_key: 10,
            wal_enabled: true,
            auto_flush: true,
            integrity: true,
            columnar: None,
        }
    }
}

/// Lifecycle statistics (ingestion experiments report these).
#[derive(Debug, Clone, Copy, Default)]
pub struct LsmStats {
    pub flushes: u64,
    pub merges: u64,
    pub entries_flushed: u64,
    pub entries_merged: u64,
    /// Nanoseconds the *writing* thread spent blocked in budget-triggered
    /// inline flush/merge work (`auto_flush`). Structurally zero when a
    /// background worker owns maintenance — the Fig 17 writer-stall metric.
    pub writer_stall_nanos: u64,
    /// Nanoseconds the writing thread spent blocked on *backpressure*:
    /// with background maintenance, writers stall only when ingest outruns
    /// the flush pipeline past the overhang cap (see the dataset's
    /// scheduler). Reported separately from inline stall so "the writer
    /// never flushes inline" stays a checkable invariant.
    pub backpressure_stall_nanos: u64,
    /// Faults the device's injection plan fired (always 0 in production —
    /// nonzero only while a [`tc_storage::fault::FaultPlan`] is armed).
    pub faults_injected: u64,
    /// Checksum verifications that failed on read (WAL records or data
    /// pages). Detected corruption, never decoded rows.
    pub checksum_failures: u64,
    /// Operations retried after a transient storage fault (writers and
    /// maintenance workers report their retries here).
    pub transient_retries: u64,
    /// Flush/merge rounds abandoned on a storage fault. The tree was left
    /// exactly as before each failed round; the work is re-triggered later.
    pub maintenance_errors: u64,
    /// Disk components currently quarantined as corrupt.
    pub quarantined_components: u64,
    /// Bytes of flushed components installed (the "first write" of every
    /// ingested byte — the write-amplification denominator).
    pub bytes_flushed: u64,
    /// Bytes of merged components installed (every byte rewritten by
    /// compaction counts again here).
    pub bytes_merged: u64,
    /// Completed merges per [`MergeTrigger`] (indexed by the trigger's
    /// discriminant).
    pub merges_by_trigger: [u64; NUM_MERGE_TRIGGERS],
    /// Components dropped whole by a FIFO/TTL retire decision.
    pub components_retired: u64,
    /// Entries (records + anti-matter) in retired components.
    pub entries_retired: u64,
}

impl LsmStats {
    /// Cumulative write amplification: total component bytes written per
    /// byte first flushed. 1.0 means no compaction rewrites (no-merge /
    /// FIFO); leveled policies trend highest.
    pub fn write_amplification(&self) -> f64 {
        (self.bytes_flushed + self.bytes_merged) as f64 / self.bytes_flushed.max(1) as f64
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    flushes: AtomicU64,
    merges: AtomicU64,
    entries_flushed: AtomicU64,
    entries_merged: AtomicU64,
    writer_stall_nanos: AtomicU64,
    backpressure_stall_nanos: AtomicU64,
    transient_retries: AtomicU64,
    maintenance_errors: AtomicU64,
    bytes_flushed: AtomicU64,
    bytes_merged: AtomicU64,
    merges_by_trigger: [AtomicU64; NUM_MERGE_TRIGGERS],
    components_retired: AtomicU64,
    entries_retired: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> LsmStats {
        let mut merges_by_trigger = [0u64; NUM_MERGE_TRIGGERS];
        for (out, cell) in merges_by_trigger.iter_mut().zip(&self.merges_by_trigger) {
            *out = cell.load(AtomicOrdering::Relaxed);
        }
        LsmStats {
            flushes: self.flushes.load(AtomicOrdering::Relaxed),
            merges: self.merges.load(AtomicOrdering::Relaxed),
            entries_flushed: self.entries_flushed.load(AtomicOrdering::Relaxed),
            entries_merged: self.entries_merged.load(AtomicOrdering::Relaxed),
            writer_stall_nanos: self.writer_stall_nanos.load(AtomicOrdering::Relaxed),
            backpressure_stall_nanos: self.backpressure_stall_nanos.load(AtomicOrdering::Relaxed),
            transient_retries: self.transient_retries.load(AtomicOrdering::Relaxed),
            maintenance_errors: self.maintenance_errors.load(AtomicOrdering::Relaxed),
            bytes_flushed: self.bytes_flushed.load(AtomicOrdering::Relaxed),
            bytes_merged: self.bytes_merged.load(AtomicOrdering::Relaxed),
            merges_by_trigger,
            components_retired: self.components_retired.load(AtomicOrdering::Relaxed),
            entries_retired: self.entries_retired.load(AtomicOrdering::Relaxed),
            faults_injected: 0,
            checksum_failures: 0,
            quarantined_components: 0,
        }
    }

    /// Count one installed flush or bulk load.
    fn count_flush(&self, entries: u64, bytes: u64) {
        self.flushes.fetch_add(1, AtomicOrdering::Relaxed);
        self.entries_flushed.fetch_add(entries, AtomicOrdering::Relaxed);
        self.bytes_flushed.fetch_add(bytes, AtomicOrdering::Relaxed);
    }
}

/// The lock-guarded mutable topology (see the module docs).
struct TreeState {
    /// The active in-memory component.
    mem: Memtable,
    /// The immutable in-memory component a flush is currently writing out.
    /// Readers merge it between `mem` and the disk components; it clears
    /// in the same critical section that installs the flushed component.
    frozen: Option<Arc<Memtable>>,
    /// Oldest → newest.
    disk: Vec<Arc<DiskComponent>>,
    /// Anti-schema attachments whose anti-matter entries were displaced by
    /// newer same-key writes in the memtable. Their *old, flushed* record
    /// versions were counted by earlier flushes, so the next flush must
    /// still hand them to the hook (§3.2.2 upsert path).
    pending_anti: Vec<Vec<u8>>,
    /// Inputs saved at freeze time so a failed flush can be *resumed*: the
    /// retry re-processes the same frozen memtable with the same displaced
    /// anti-schemas and the same component sequence, without re-freezing
    /// (the WAL was already rotated).
    frozen_anti: Vec<Vec<u8>>,
    frozen_seq: u64,
    next_seq: u64,
}

/// A single-partition LSM tree, internally synchronized: one writer, many
/// readers, and background flush/merge may run concurrently through
/// `&self`. Cross-partition parallelism still lives above (partitions are
/// independent, §2.2); *within* a partition the ingestion order is the
/// caller's responsibility (one logical writer per partition).
pub struct LsmTree {
    opts: LsmOptions,
    device: Arc<Device>,
    cache: Arc<BufferCache>,
    hook: Arc<dyn ComponentHook>,
    state: OrderedRwLock<TreeState>,
    wal: Wal,
    /// Serializes flushes (freeze → build → install).
    flush_lock: OrderedMutex<()>,
    /// Serializes merges (decide → build → splice-by-identity).
    merge_lock: OrderedMutex<()>,
    stats: StatsCells,
}

impl TreeState {
    /// Point lookup in the in-memory components only (active, then frozen).
    fn mem_entry(&self, key: &[u8]) -> Option<LookupHit> {
        let hit = self.mem.get(key).or_else(|| self.frozen.as_deref().and_then(|f| f.get(key)));
        hit.map(|entry| match entry {
            MemEntry::Record(p) => LookupHit::Bytes(EntryKind::Record, p.clone()),
            MemEntry::AntiMatter(_) => LookupHit::Bytes(EntryKind::AntiMatter, Vec::new()),
        })
    }

    /// `attachment`, if the version of `key` a new entry displaces was (or
    /// is being) counted by a flush (§3.2.2). A record still in the active
    /// memtable was never observed by any flush; anything older lives in
    /// the frozen memtable or on disk, where a flush has counted or is
    /// committed to counting it.
    fn attachment_if_counted(&self, key: &[u8], attachment: Option<Vec<u8>>) -> Option<Vec<u8>> {
        attachment.filter(|_| !matches!(self.mem.get(key), Some(MemEntry::Record(_))))
    }
}

impl LsmTree {
    pub fn new(
        device: Arc<Device>,
        cache: Arc<BufferCache>,
        hook: Arc<dyn ComponentHook>,
        opts: LsmOptions,
    ) -> Self {
        let wal = Wal::new(Arc::clone(&device));
        LsmTree {
            opts,
            device,
            cache,
            hook,
            state: OrderedRwLock::new(
                ranks::TREE_STATE,
                TreeState {
                    mem: Memtable::new(),
                    frozen: None,
                    disk: Vec::new(),
                    pending_anti: Vec::new(),
                    frozen_anti: Vec::new(),
                    frozen_seq: 0,
                    next_seq: 0,
                },
            ),
            wal,
            flush_lock: OrderedMutex::new(ranks::FLUSH_LOCK, ()),
            merge_lock: OrderedMutex::new(ranks::MERGE_LOCK, ()),
            stats: StatsCells::default(),
        }
    }

    /// A component builder honoring the tree's page/compression/integrity
    /// options and its layout (columnar iff [`LsmOptions::columnar`] holds a
    /// codec), for a component that will carry `metadata` — every flush,
    /// merge, and bulk-load builder must come from here. A row-layout
    /// builder gets the hook's zone extractor, opened for that blob, so
    /// every block's zone is exact.
    fn new_builder(&self, expected_keys: usize, metadata: Option<Vec<u8>>) -> ComponentBuilder {
        let codec = self.opts.columnar.as_deref();
        let zones =
            if codec.is_some() { None } else { self.hook.zone_extractor(metadata.as_deref()) };
        let b = ComponentBuilder::new(
            Arc::clone(&self.device),
            self.opts.page_size,
            self.opts.compression,
            expected_keys,
            self.opts.bloom_bits_per_key,
            metadata,
        )
        .with_integrity(self.opts.integrity);
        match (codec, zones) {
            (Some(codec), _) => b.with_columnar(codec),
            (None, Some(zones)) => b.with_zones(zones),
            (None, None) => b,
        }
    }

    /// Build the component a flush or a bulk load installs (INVALID; the
    /// caller decides whether it completes) through `pass`, which the caller
    /// commits in the section that installs the component. Two passes over
    /// `entries`, which arrive in key order: the flush pass sees every entry
    /// first — the displaced anti-schemas (they still decrement the schema
    /// for their flushed old versions), then each record and anti-matter
    /// attachment — so its metadata blob is final before the builder opens,
    /// and a columnar body knows its columns from the first row; then the
    /// transformed entries are pushed. What is held between the passes is the
    /// transformed payloads, at most one memtable's worth, back to back in
    /// one buffer (each entry keeps the offset its payload ends at).
    ///
    /// On a storage fault, or a record or attachment the pass refuses, the
    /// error is counted and the caller drops the pass uncommitted; the
    /// half-written store is dropped on the floor — it was never visible.
    fn build_flushed<K: AsRef<[u8]>, E: std::borrow::Borrow<MemEntry>>(
        &self,
        pass: &mut dyn FlushPass,
        id: ComponentId,
        displaced_anti: &[Vec<u8>],
        mut entries: impl Iterator<Item = (K, E)>,
    ) -> Result<DiskComponent, StorageError> {
        let mut payloads = Vec::new();
        let mut rows = Vec::with_capacity(entries.size_hint().0);
        let displaced = displaced_anti.iter().try_for_each(|att| pass.on_antimatter(Some(att)));
        let transformed = displaced.and_then(|()| {
            entries.try_for_each(|(key, entry)| {
                let kind = match entry.borrow() {
                    MemEntry::Record(payload) => {
                        pass.on_record(payload, &mut payloads)?;
                        EntryKind::Record
                    }
                    MemEntry::AntiMatter(att) => {
                        pass.on_antimatter(att.as_deref())?;
                        EntryKind::AntiMatter
                    }
                };
                rows.push((key, kind, payloads.len()));
                Ok(())
            })
        });
        let built = transformed.and_then(|()| {
            let mut builder = self.new_builder(rows.len(), pass.metadata());
            let mut start = 0;
            for (key, kind, end) in &rows {
                builder.push(key.as_ref(), *kind, &payloads[start..*end])?;
                start = *end;
            }
            builder.finish(id, false)
        });
        built.inspect_err(|_| {
            self.stats.maintenance_errors.fetch_add(1, AtomicOrdering::Relaxed);
        })
    }

    /// Apply an entry to the active memtable under an already-held state
    /// lock, preserving any displaced anti-schema attachment (§3.2.2: the
    /// old, flushed version of an upserted record still needs its
    /// decrement). Every mutation path — live writes, conditional deletes,
    /// WAL replay — must go through this so the displacement rule can
    /// never diverge between them.
    fn apply_locked(st: &mut TreeState, key: Key, entry: MemEntry) {
        if let Some(MemEntry::AntiMatter(Some(att))) = st.mem.put(key, entry) {
            st.pending_anti.push(att);
        }
    }

    /// Log and apply an entry to the active memtable. One critical
    /// section, so the WAL order always matches the memtable state it
    /// covers. Returns whether the memtable ran over budget — measured
    /// under the lock already held, so the write hot path never re-locks
    /// just to check. A failed WAL append means the operation was NOT
    /// applied and must not be acknowledged: the memtable is untouched, so
    /// the caller may simply retry (transient faults) or give up.
    fn log_and_apply(&self, key: Key, entry: MemEntry) -> Result<bool, StorageError> {
        let mut st = self.state.write();
        if self.opts.wal_enabled {
            self.wal.log(&key, &entry)?;
        }
        Self::apply_locked(&mut st, key, entry);
        Ok(st.mem.bytes() >= self.opts.memtable_budget)
    }

    pub fn options(&self) -> &LsmOptions {
        &self.opts
    }

    /// Lifecycle + fault statistics. The fault counters live on the shared
    /// device (they cover WAL and page I/O alike); quarantine is
    /// recomputed from the current component list.
    pub fn stats(&self) -> LsmStats {
        let mut s = self.stats.snapshot();
        s.faults_injected = self.device.faults_injected();
        s.checksum_failures = self.device.checksum_failures();
        s.quarantined_components =
            self.state.read().disk.iter().filter(|c| c.is_quarantined()).count() as u64;
        s
    }

    /// Record one transient-fault retry (writers and maintenance workers
    /// call this so the storm's cost shows up in [`LsmStats`]).
    pub fn note_retry(&self) {
        self.stats.transient_retries.fetch_add(1, AtomicOrdering::Relaxed);
    }

    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// Snapshot of the on-disk components, oldest → newest.
    pub fn components(&self) -> Vec<Arc<DiskComponent>> {
        self.state.read().disk.clone()
    }

    /// The one disk component that holds the whole tree, if there is such a
    /// thing: nothing in memory (no frozen memtable, an empty active one)
    /// and exactly one component on disk. Copies nothing.
    pub fn sole_component(&self) -> Option<Arc<DiskComponent>> {
        let st = self.state.read();
        let at_rest = st.frozen.is_none() && st.mem.is_empty() && st.disk.len() == 1;
        at_rest.then(|| Arc::clone(&st.disk[0]))
    }

    /// Entries in memory (active + frozen) not yet installed on disk.
    pub fn memtable_len(&self) -> usize {
        let st = self.state.read();
        st.mem.len() + st.frozen.as_deref().map_or(0, Memtable::len)
    }

    /// Active memtable footprint in bytes.
    pub fn memtable_bytes(&self) -> usize {
        self.state.read().mem.bytes()
    }

    /// Is the active memtable over budget? Background maintenance
    /// schedulers poll this instead of flushing inline.
    pub fn needs_flush(&self) -> bool {
        self.memtable_bytes() >= self.opts.memtable_budget
    }

    /// Account time the writer spent blocked on maintenance backpressure —
    /// external flush schedulers call this when they stall the writer, so
    /// the cost is visible without polluting the inline-flush stall metric.
    pub fn note_backpressure_stall(&self, nanos: u64) {
        self.stats.backpressure_stall_nanos.fetch_add(nanos, AtomicOrdering::Relaxed);
    }

    /// Total on-disk footprint across components.
    pub fn disk_bytes(&self) -> u64 {
        self.components().iter().map(|c| c.disk_bytes()).sum()
    }

    /// Total live records (scan-count; O(n)).
    pub fn count(&self) -> u64 {
        let mut scan = self.scan();
        let mut n = 0;
        while scan.next_lent().is_some() {
            n += 1;
        }
        n
    }

    // -----------------------------------------------------------------
    // Writes
    // -----------------------------------------------------------------

    /// Insert (or overwrite) a record. Returns whether the memtable is
    /// over budget after the write — already computed under the write
    /// lock, so external flush schedulers don't re-lock to poll
    /// [`LsmTree::needs_flush`] on the hot path. `Err` means the WAL append
    /// failed and the write was NOT applied (safe to retry).
    pub fn insert(&self, key: Key, payload: Vec<u8>) -> Result<bool, StorageError> {
        let over_budget = self.log_and_apply(key, MemEntry::Record(payload))?;
        self.maybe_flush(over_budget);
        Ok(over_budget)
    }

    /// Delete by key: inserts an anti-matter entry. `attachment` is the
    /// hook payload (the anti-schema, §3.2.2), processed and discarded at
    /// flush. Returns the over-budget flag, like [`LsmTree::insert`].
    pub fn delete(&self, key: Key, attachment: Option<Vec<u8>>) -> Result<bool, StorageError> {
        let over_budget = self.log_and_apply(key, MemEntry::AntiMatter(attachment))?;
        self.maybe_flush(over_budget);
        Ok(over_budget)
    }

    /// Delete with a *conditional* anti-schema: attach it only if the
    /// version being replaced was (or is being) counted by a flush.
    ///
    /// The caller cannot decide this from a prior lookup: between its
    /// lookup and this apply, a background flush may freeze the memtable,
    /// moving a "never observed" in-memory version into a component whose
    /// flush *does* count it (§3.2.2) — skipping the decrement would then
    /// leak schema counts. So the decision is made here, atomically under
    /// the state lock, by `TreeState::attachment_if_counted` (the flush
    /// ordering guarantees a decrement that rides along lands after the
    /// count).
    pub fn delete_versioned(
        &self,
        key: Key,
        attachment_if_counted: Option<Vec<u8>>,
    ) -> Result<bool, StorageError> {
        let over_budget = {
            let mut st = self.state.write();
            let entry = MemEntry::AntiMatter(st.attachment_if_counted(&key, attachment_if_counted));
            if self.opts.wal_enabled {
                self.wal.log(&key, &entry)?;
            }
            Self::apply_locked(&mut st, key, entry);
            st.mem.bytes() >= self.opts.memtable_budget
        };
        self.maybe_flush(over_budget);
        Ok(over_budget)
    }

    /// Atomic upsert: replace the key's record and (conditionally) attach
    /// the displaced version's anti-schema, through ONE WAL record. The
    /// separate delete-then-insert sequence logs two records, and a crash
    /// between them replays the delete without the insert — losing the old,
    /// durably-acknowledged version of an upsert that was never acked.
    /// Here a crash replays both halves or neither.
    ///
    /// The "was the old version counted?" decision follows
    /// [`LsmTree::delete_versioned`], made under the same state lock.
    pub fn replace(
        &self,
        key: Key,
        payload: Vec<u8>,
        attachment_if_counted: Option<Vec<u8>>,
    ) -> Result<bool, StorageError> {
        let over_budget = {
            let mut st = self.state.write();
            let anti = st.attachment_if_counted(&key, attachment_if_counted);
            if self.opts.wal_enabled {
                self.wal.log_replace(&key, &payload, anti.as_deref())?;
            }
            // Same two applications the live delete+insert pair performs:
            // the anti-matter (displacing any previous entry), then the
            // record (displacing the anti-matter, which parks `anti` on the
            // pending anti-schema list for the next flush).
            Self::apply_locked(&mut st, key.clone(), MemEntry::AntiMatter(anti));
            Self::apply_locked(&mut st, key, MemEntry::Record(payload));
            st.mem.bytes() >= self.opts.memtable_budget
        };
        self.maybe_flush(over_budget);
        Ok(over_budget)
    }

    fn maybe_flush(&self, over_budget: bool) {
        if !self.opts.auto_flush || !over_budget {
            return;
        }
        // Inline maintenance stalls the writer — that stall is the metric
        // the background pipeline exists to remove (Fig 17). A maintenance
        // failure here does NOT fail the (already-acknowledged) write: the
        // tree is left as before, the error is counted, and the next
        // over-budget write re-triggers the flush.
        let start = Instant::now();
        if self.flush().is_ok() {
            let _ = self.maybe_merge();
        }
        self.stats
            .writer_stall_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
    }

    /// Flush the in-memory component to a new on-disk component, running
    /// every record through the hook's flush pass (where the tuple compactor
    /// infers and compacts — §3.1.1), which commits with the install. Safe
    /// to call from any thread; concurrent calls serialize, and a call that
    /// finds an empty memtable is a no-op.
    ///
    /// On a storage fault the flush aborts *cleanly*: the frozen memtable
    /// and its WAL coverage are exactly as before the build, the hook's
    /// [`FlushPass`] is dropped uncommitted, and the next `flush` call
    /// resumes from the same frozen state.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.flush_inner(true)
    }

    /// Failure injection: perform a flush but "crash" before the validity
    /// bit is set (and before the frozen WAL segment is discarded). The
    /// frozen in-memory component is lost, exactly as in a real crash
    /// (§3.1.2); writes that raced the flush stay in the active memtable
    /// and the active WAL segment.
    pub fn flush_crashing_before_validity(&self) {
        let _ = self.flush_inner(false);
    }

    fn flush_inner(&self, complete: bool) -> Result<(), StorageError> {
        let _flush = self.flush_lock.lock();
        // Freeze: swap the memtable out and rotate the WAL in one write-lock
        // section, so the active segment covers exactly the new (empty)
        // memtable. Readers from here on merge the frozen memtable.
        let (frozen, anti, seq) = {
            let mut st = self.state.write();
            if let Some(frozen) = &st.frozen {
                // A leftover frozen memtable is a failed attempt, resumed
                // here with the freeze inputs saved at freeze time: its
                // pass was dropped, so there is nothing to apply twice.
                (Arc::clone(frozen), st.frozen_anti.clone(), st.frozen_seq)
            } else {
                if st.mem.is_empty() {
                    return Ok(());
                }
                if self.opts.wal_enabled {
                    // A failed rotation leaves the WAL segments — and
                    // everything else — untouched; nothing was frozen yet.
                    self.wal.rotate()?;
                }
                let frozen = Arc::new(std::mem::take(&mut st.mem));
                st.frozen = Some(Arc::clone(&frozen));
                let anti = std::mem::take(&mut st.pending_anti);
                st.frozen_anti = anti.clone();
                let seq = st.next_seq;
                st.frozen_seq = seq;
                st.next_seq += 1;
                (frozen, anti, seq)
            }
        };

        // Build — the slow part — with no state lock held: the pass works on
        // its own copy of the hook's state. A failed attempt keeps the
        // frozen memtable (and its WAL coverage) for a later resume and
        // drops the pass; the tree reads exactly as before this attempt.
        let mut pass = self.hook.begin_flush();
        let component =
            self.build_flushed(&mut *pass, ComponentId::flushed(seq), &anti, frozen.iter())?;
        if complete {
            component.set_valid();
        }
        let bytes = component.disk_bytes();
        // Install + unfreeze + publish atomically: a reader snapshot sees
        // the flushed data exactly once (frozen memtable before, disk
        // component after — never both, never neither), and the pass's
        // edits exactly when it sees the component. On a crash the same
        // section leaves the invalid component on disk and drops the frozen
        // in-memory component; only the frozen WAL segment is kept.
        {
            let mut st = self.state.write();
            st.disk.push(Arc::new(component));
            st.frozen = None;
            st.frozen_anti.clear();
            pass.commit();
        }
        if complete {
            if self.opts.wal_enabled {
                self.wal.discard_frozen();
            }
            self.stats.count_flush(frozen.len() as u64, bytes);
        }
        Ok(())
    }

    /// Run the compaction policy to fixpoint: re-decide after every
    /// completed merge/retire until the policy is satisfied, so cascading
    /// policies (an L0 merge overflowing L1, a tier filling the next tier
    /// up) settle in one scheduling round. Terminates because every
    /// decision shrinks the component list the policy sees (merges take
    /// ≥ 2 inputs, retires drop ≥ 1). A storage fault abandons the round
    /// with the tree untouched (the half-built component is dropped,
    /// inputs stay installed); the policy re-fires later.
    pub fn maybe_merge(&self) -> Result<(), StorageError> {
        let guard = self.merge_lock.lock();
        loop {
            let disk = self.state.read().disk.clone();
            match self.opts.merge_policy.decide(&run_sizes(&disk)) {
                CompactionDecision::None => return Ok(()),
                CompactionDecision::Merge(pick) => self.merge_locked(&disk, pick, true, &guard)?,
                CompactionDecision::Retire(n) => {
                    let policy = &self.opts.merge_policy;
                    assert!(n >= 1 && n <= disk.len(), "bad retire count from {policy:?}");
                    self.retire_locked(&disk[..n], &guard);
                }
            }
        }
    }

    /// Per-level component counts as assigned by the active policy (all
    /// level 0 for policies without a level structure).
    pub fn level_counts(&self) -> Vec<u64> {
        let levels = self.opts.merge_policy.levels(&run_sizes(&self.state.read().disk));
        let mut counts = vec![0u64; levels.iter().map(|l| *l as usize + 1).max().unwrap_or(0)];
        for level in levels {
            counts[level as usize] += 1;
        }
        counts
    }

    /// Merge all on-disk components into one (bench/maintenance helper).
    pub fn force_full_merge(&self) -> Result<(), StorageError> {
        self.full_merge(true)
    }

    /// Failure injection: run a full merge but "crash" before the validity
    /// bit is set — the merged component lands on disk INVALID and the
    /// inputs are NOT spliced out, exactly the on-disk picture a crash
    /// between merge-write and install leaves behind. Recovery must drop
    /// the half-merged component and keep serving from the inputs.
    pub fn force_full_merge_crashing_before_validity(&self) -> Result<(), StorageError> {
        self.full_merge(false)
    }

    /// Merge every component, if there are at least two.
    fn full_merge(&self, complete: bool) -> Result<(), StorageError> {
        let guard = self.merge_lock.lock();
        let disk = self.state.read().disk.clone();
        if disk.len() < 2 {
            return Ok(());
        }
        let pick = MergePick { range: 0..disk.len(), trigger: MergeTrigger::Manual };
        self.merge_locked(&disk, pick, complete, &guard)
    }

    /// Merge the adjacent component range (oldest..newest indexes as of
    /// this call). Annihilated records are garbage-collected; anti-matter
    /// survives only if older components remain outside the merge (§2.2).
    pub fn merge(&self, range: Range<usize>) -> Result<(), StorageError> {
        let guard = self.merge_lock.lock();
        let disk = self.state.read().disk.clone();
        self.merge_locked(&disk, MergePick { range, trigger: MergeTrigger::Manual }, true, &guard)
    }

    /// Build the merged component (INVALID; the caller decides whether it
    /// completes). Pure build: touches no tree state, so a fault here
    /// leaves nothing to clean up.
    ///
    /// The output keeps the newest input's metadata blob, chosen before the
    /// scan starts. A winner that lives in a columnar input reaches the
    /// output, columnar like every component of its tree, as a row
    /// reference — copied column to column when the codec can, never
    /// assembled into a record on the way.
    fn build_merged(
        &self,
        inputs: &[Arc<DiskComponent>],
        drop_antimatter: bool,
    ) -> Result<(DiskComponent, u64), StorageError> {
        let expected: usize = inputs.iter().map(|c| c.num_entries() as usize).sum();
        let mut builder = self.new_builder(expected, newest_metadata(inputs));
        let mut count = 0u64;
        {
            let mut scan = MergedScan::new(Vec::new(), inputs, &self.cache, None, None, true, None);
            while let Some(ScanEntry { key, kind, payload, rank }) = scan.next_entry() {
                if kind == EntryKind::AntiMatter && drop_antimatter {
                    continue;
                }
                match payload {
                    Payload::Bytes(bytes) => builder.push(&key, kind, &bytes)?,
                    Payload::Row { group, row } => {
                        let pushed = match scan.source_component(rank) {
                            Some(source) => builder.push_row(&key, source, &self.cache, group, row),
                            None => Err(StorageError::corruption(
                                "merged scan",
                                format!("source {rank} holds no row references"),
                            )),
                        };
                        if let Err(e) = pushed {
                            // A merge must never write a component that
                            // silently lost rows to a corrupt input: the
                            // input is quarantined, the merge fails typed.
                            scan.report_fault(rank, e.clone());
                            return Err(e);
                        }
                    }
                }
                count += 1;
            }
            // Nor one that lost them to a key block the scan could not read.
            if let Some((_, e)) = scan.take_health().degraded().first() {
                return Err(e.clone());
            }
        }
        let id = ComponentId::merged(inputs[0].id(), inputs[inputs.len() - 1].id());
        let merged = builder.finish(id, false)?;
        Ok((merged, count))
    }

    /// The one merge routine: every merge entry point runs it under the
    /// merge lock (the guard proves the critical section) over `disk`, the
    /// component list the pick indexes. The plan is the pick plus one flag:
    /// anti-matter is dropped only when the range starts at the oldest
    /// component, so nothing older survives for it to annihilate (§2.2).
    /// The merged component keeps the newest input's metadata — the paper's
    /// rule, which never touches in-memory state (§3.1.1).
    ///
    /// A complete merge installs the output; an incomplete one is crash
    /// injection and only appends it INVALID. On a fault nothing installs:
    /// the inputs remain the live components and the error is counted.
    fn merge_locked(
        &self,
        disk: &[Arc<DiskComponent>],
        pick: MergePick,
        complete: bool,
        _guard: &tc_util::sync::OrderedMutexGuard<'_, ()>,
    ) -> Result<(), StorageError> {
        let MergePick { range, trigger } = pick;
        assert!(
            range.len() >= 2 && range.end <= disk.len(),
            "bad {} merge range {range:?} for {} components",
            trigger.label(),
            disk.len()
        );
        let drop_antimatter = range.start == 0;
        let inputs = &disk[range];
        let (merged, count) = self.build_merged(inputs, drop_antimatter).inspect_err(|_| {
            self.stats.maintenance_errors.fetch_add(1, AtomicOrdering::Relaxed);
        })?;
        if !complete {
            self.state.write().disk.push(Arc::new(merged));
            return Ok(());
        }
        merged.set_valid();
        let merged_bytes = merged.disk_bytes();
        // Splice the merged component in *by identity*: a concurrent flush
        // may have appended components while we built, so positions (not
        // membership or adjacency — flushes only append, and merges
        // serialize) may have shifted. Old inputs become garbage once
        // in-flight scans drop their Arcs (deleted after the merge
        // completes, §2.2).
        {
            let mut st = self.state.write();
            #[expect(clippy::expect_used, reason = "merges serialize and only merges remove")]
            let pos = st
                .disk
                .iter()
                .position(|c| Arc::ptr_eq(c, &inputs[0]))
                .expect("merge inputs disappeared from the component list");
            let span = pos..pos + inputs.len();
            let now = st.disk.get(span.clone()).unwrap_or_default();
            assert!(
                now.len() == inputs.len() && now.iter().zip(inputs).all(|(c, i)| Arc::ptr_eq(c, i)),
                "merge inputs are no longer adjacent in the component list"
            );
            st.disk.splice(span, [Arc::new(merged)]);
        }
        self.stats.merges.fetch_add(1, AtomicOrdering::Relaxed);
        self.stats.entries_merged.fetch_add(count, AtomicOrdering::Relaxed);
        self.stats.bytes_merged.fetch_add(merged_bytes, AtomicOrdering::Relaxed);
        self.stats.merges_by_trigger[trigger as usize].fetch_add(1, AtomicOrdering::Relaxed);
        Ok(())
    }

    /// Drop an oldest prefix of components whole (FIFO/TTL). No data is
    /// read or rewritten — the runs simply stop being served. Removal is
    /// by identity for the same reason merges install by identity.
    /// Deliberately lossy: live records in the retired runs are gone, and
    /// anti-matter above them now annihilates nothing (which is exactly
    /// the invariant that makes dropping only a *prefix* safe — nothing
    /// older remains to resurrect).
    fn retire_locked(
        &self,
        oldest: &[Arc<DiskComponent>],
        _guard: &tc_util::sync::OrderedMutexGuard<'_, ()>,
    ) {
        {
            let mut st = self.state.write();
            debug_assert!(
                oldest.iter().enumerate().all(|(i, c)| Arc::ptr_eq(&st.disk[i], c)),
                "retire must drop the current oldest prefix"
            );
            st.disk.retain(|c| !oldest.iter().any(|o| Arc::ptr_eq(c, o)));
        }
        let entries: u64 = oldest.iter().map(|c| c.num_entries()).sum();
        self.stats.components_retired.fetch_add(oldest.len() as u64, AtomicOrdering::Relaxed);
        self.stats.entries_retired.fetch_add(entries, AtomicOrdering::Relaxed);
    }

    /// Bulk-load a pre-sorted stream into a single component (paper §4.3:
    /// loading sorts records and builds one B+-tree bottom-up; the tuple
    /// compactor infers and compacts during the build, and its pass commits
    /// with the install, as a flush's does). A failed load leaves the tree
    /// empty and the hook's state untouched.
    ///
    /// # Panics
    /// If the tree is not empty: no component, nothing in memory. Loading
    /// into a tree that holds data is a caller bug; `Dataset`'s load checks
    /// every tree of its partition before it touches any.
    pub fn bulk_load<I>(&self, sorted: I) -> Result<(), StorageError>
    where
        I: IntoIterator<Item = (Key, Vec<u8>)>,
    {
        let _flush = self.flush_lock.lock();
        // Sequence numbers are only handed out under the flush lock, so the
        // one read here is still the next one at install time.
        let seq = {
            let st = self.state.read();
            assert!(
                st.disk.is_empty() && st.mem.is_empty() && st.frozen.is_none(),
                "bulk_load requires an empty tree"
            );
            st.next_seq
        };
        // Built without the state lock, so concurrent readers never block
        // on the load.
        let records = sorted.into_iter().map(|(key, payload)| (key, MemEntry::Record(payload)));
        let mut pass = self.hook.begin_flush();
        let component = self.build_flushed(&mut *pass, ComponentId::flushed(seq), &[], records)?;
        component.set_valid();
        let (count, bytes) = (component.num_entries(), component.disk_bytes());
        {
            let mut st = self.state.write();
            st.next_seq = seq + 1;
            st.disk.push(Arc::new(component));
            pass.commit();
        }
        self.stats.count_flush(count, bytes);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Reads
    // -----------------------------------------------------------------

    /// Point-look-up `keys`, in input order, against one snapshot, and run
    /// `capture` in the same read-lock section — so whatever it captures
    /// (the dataset's schema-dictionary decoder) agrees with every result:
    /// no flush can install or prune in between. Each result is the key's
    /// newest entry (deleted keys report their anti-matter) or `None`. A
    /// record a columnar component holds comes back unread, as a reference
    /// to its row ([`LookupHit::Row`]): a caller that wants a record
    /// assembles it from there, one that wants bytes reads them
    /// ([`LookupHit::into_bytes`], as [`LsmTree::get_entry`] does).
    ///
    /// Memtables are probed under the read lock (cheap map probes); the
    /// component list is cloned, if a key missed them, so the disk probes —
    /// which may fault pages in — run after release without blocking
    /// writers. A quarantined component a probe reaches fails the whole
    /// call with a typed error: skipping it could resurrect a deleted key
    /// or return a stale version, so point lookups never degrade (range
    /// scans do, with health reporting — see [`crate::iter::ScanHealth`]).
    ///
    /// The lookup deliberately does *not* report where an entry was found —
    /// with background flushes, "memtable vs disk" can change between a
    /// lookup and a subsequent write, so the counted/uncounted decision for
    /// anti-schemas is made atomically inside [`LsmTree::delete_versioned`].
    pub fn lookup_with<K: AsRef<[u8]>, T>(
        &self,
        keys: &[K],
        capture: impl FnOnce() -> T,
    ) -> Result<(T, Vec<Option<LookupHit>>), StorageError> {
        let (captured, mut hits, components) = {
            let st = self.state.read();
            let hits: Vec<_> = keys.iter().map(|k| st.mem_entry(k.as_ref())).collect();
            let missed = hits.iter().any(Option::is_none);
            (capture(), hits, if missed { st.disk.clone() } else { Vec::new() })
        };
        for (key, hit) in keys.iter().zip(&mut hits) {
            if hit.is_none() {
                *hit = probe_components(&components, &self.cache, key.as_ref())?;
            }
        }
        Ok((captured, hits))
    }

    /// Scan `start` (inclusive) to `end` (exclusive) over one snapshot, and
    /// run `capture` in the same read-lock section (see
    /// [`LsmTree::lookup_with`]). The lock is held only for the copy of the
    /// active memtable's `[start, end)`: the frozen memtable is immutable
    /// behind its `Arc`, so it is copied — and the scan, whose heap priming
    /// reads disk blocks, is built — after release. With a zone `filter` the
    /// scan leaves the units it proves useless unread
    /// ([`MergedScan::units_skipped`]). The scan owns its snapshot.
    pub fn scan_with<T>(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        filter: Option<ZoneFilter<'_>>,
        capture: impl FnOnce() -> T,
    ) -> (T, MergedScan) {
        let (captured, frozen, active, components) = {
            let st = self.state.read();
            (capture(), st.frozen.clone(), snapshot_memtable(&st.mem, start, end), st.disk.clone())
        };
        // Oldest → newest: the frozen memtable ranks above every component
        // and below the active one.
        let mut mems = Vec::with_capacity(2);
        if let Some(frozen) = &frozen {
            mems.push(snapshot_memtable(frozen, start, end));
        }
        mems.push(active);
        (captured, MergedScan::new(mems, &components, &self.cache, start, end, false, filter))
    }

    /// The key's newest entry (see [`LsmTree::lookup_with`]), without
    /// reading its payload.
    fn lookup(&self, key: &[u8]) -> Result<Option<LookupHit>, StorageError> {
        Ok(self.lookup_with(&[key], || ())?.1.pop().flatten())
    }

    /// Point lookup returning the entry kind and its payload as bytes.
    pub fn get_entry(&self, key: &[u8]) -> Result<Option<(EntryKind, Vec<u8>)>, StorageError> {
        self.lookup(key)?.map(|hit| hit.into_bytes(&self.cache)).transpose()
    }

    /// Point lookup for a live record.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(match self.get_entry(key)? {
            Some((EntryKind::Record, p)) => Some(p),
            _ => None,
        })
    }

    /// Does the key exist (live)? Used by the primary-key index fast path.
    /// Reads no payload.
    pub fn contains(&self, key: &[u8]) -> Result<bool, StorageError> {
        Ok(self.lookup(key)?.is_some_and(|hit| hit.kind() == EntryKind::Record))
    }

    /// Full scan of live records (an owned, consistent snapshot).
    pub fn scan(&self) -> MergedScan {
        self.scan_range(None, None)
    }

    /// Range scan of live records, `start` inclusive, `end` exclusive.
    pub fn scan_range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> MergedScan {
        self.scan_with(start, end, None, || ()).1
    }

    // -----------------------------------------------------------------
    // Crash & recovery (§3.1.2)
    // -----------------------------------------------------------------

    /// Simulate a process crash: the in-memory components vanish; disk
    /// components and the WAL survive as they are. Callers must quiesce
    /// background maintenance first (a worker mid-build would otherwise
    /// "survive" the crash and install its component afterwards).
    pub fn simulate_crash(&self) {
        let mut st = self.state.write();
        st.mem = Memtable::new();
        st.frozen = None;
        st.pending_anti.clear();
        st.frozen_anti.clear();
    }

    /// Recovery: discard invalid components (unset validity bit), then
    /// replay the WAL (frozen segment first) into a fresh in-memory
    /// component. Returns the number of (removed_components,
    /// replayed_operations). After recovery the caller may flush normally —
    /// the compactor hook "operates normally" on the restored component
    /// (§3.1.2).
    pub fn recover(&self) -> Result<(usize, usize), StorageError> {
        let _flush = self.flush_lock.lock();
        let _merge = self.merge_lock.lock();
        let mut st = self.state.write();
        let before = st.disk.len();
        st.disk.retain(|c| c.is_valid());
        let removed = before - st.disk.len();
        // Reset the sequence to follow the newest surviving component.
        st.next_seq = st.disk.last().map(|c| c.id().max + 1).unwrap_or(0);
        let ops = self.wal.replay()?;
        let replayed = ops.len();
        for (key, entry) in ops {
            // Anti-matter attachments re-make the `delete_versioned`
            // counted/uncounted decision against the *rebuilt* memtable.
            // The live decision can be voided by the crash: "counted"
            // meant the old version sat in the frozen memtable or on
            // disk, but if its covering flush never set the validity bit,
            // that version's insert is right here in the replayed WAL —
            // it was never durably counted, and letting its anti-schema
            // decrement the (recovered) schema would corrupt shared
            // counters. A Record present in the rebuilt memtable is
            // exactly that evidence, so the attachment is dropped;
            // conversely, no Record present means the old version's WAL
            // coverage was discarded by a *completed* flush, and the
            // decrement stands.
            let entry = match entry {
                MemEntry::AntiMatter(att) => {
                    MemEntry::AntiMatter(st.attachment_if_counted(&key, att))
                }
                entry => entry,
            };
            // Same displacement rule as live writes, so replayed upserts
            // rebuild the pending anti-schema list too.
            Self::apply_locked(&mut st, key, entry);
        }
        Ok((removed, replayed))
    }

    /// The newest component's metadata blob (the schema the recovery
    /// manager reloads, §3.1.2).
    pub fn newest_metadata(&self) -> Option<Vec<u8>> {
        newest_metadata(&self.state.read().disk)
    }

    /// Test/benchmark access to the WAL.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }
}

// The shared surface: the writer, readers and maintenance all reach a tree
// through `Arc<LsmTree>`, so these keep their `&self` receivers. Write
// exclusivity comes from the dataset's `WriterToken`, never from `&mut`; a
// method that took `&mut self` would fail its coercion here.
#[expect(clippy::type_complexity, reason = "each line spells out one method's signature")]
const _: () = {
    type R<T> = Result<T, StorageError>;
    let _: fn(&LsmTree, Key, Vec<u8>) -> R<bool> = LsmTree::insert;
    let _: fn(&LsmTree, Key, Option<Vec<u8>>) -> R<bool> = LsmTree::delete;
    let _: fn(&LsmTree, Key, Option<Vec<u8>>) -> R<bool> = LsmTree::delete_versioned;
    let _: fn(&LsmTree, Key, Vec<u8>, Option<Vec<u8>>) -> R<bool> = LsmTree::replace;
    let _: fn(&LsmTree) -> R<()> = LsmTree::flush;
    let _: fn(&LsmTree) = LsmTree::flush_crashing_before_validity;
    let _: fn(&LsmTree) -> R<()> = LsmTree::maybe_merge;
    let _: fn(&LsmTree) -> R<()> = LsmTree::force_full_merge;
    let _: fn(&LsmTree) -> R<()> = LsmTree::force_full_merge_crashing_before_validity;
    let _: fn(&LsmTree, Range<usize>) -> R<()> = LsmTree::merge;
    let _: fn(&LsmTree, Vec<(Key, Vec<u8>)>) -> R<()> = LsmTree::bulk_load;
    let _: fn(&LsmTree) -> R<(usize, usize)> = LsmTree::recover;
    let _: fn(&LsmTree) = LsmTree::simulate_crash;
    let _: fn(&LsmTree, &[u8]) -> R<Option<Vec<u8>>> = LsmTree::get;
    let _: fn(&LsmTree, &[u8]) -> R<Option<(EntryKind, Vec<u8>)>> = LsmTree::get_entry;
    let _: fn(&LsmTree, &[u8]) -> R<bool> = LsmTree::contains;
    let _: fn(&LsmTree) -> MergedScan = LsmTree::scan;
    let _: fn(&LsmTree, Option<&[u8]>, Option<&[u8]>) -> MergedScan = LsmTree::scan_range;
    let _: fn(&LsmTree, &[Key], fn()) -> R<((), Vec<Option<LookupHit>>)> = LsmTree::lookup_with;
    let _: fn(
        &LsmTree,
        Option<&[u8]>,
        Option<&[u8]>,
        Option<ZoneFilter<'_>>,
        fn(),
    ) -> ((), MergedScan) = LsmTree::scan_with;
    let _: fn(&LsmTree) -> Option<Arc<DiskComponent>> = LsmTree::sole_component;
    let _: fn(&LsmTree) -> Vec<Arc<DiskComponent>> = LsmTree::components;
};

/// What the merge policy decides over: each component's on-disk bytes,
/// oldest → newest.
fn run_sizes(disk: &[Arc<DiskComponent>]) -> Vec<u64> {
    disk.iter().map(|c| c.disk_bytes()).collect()
}

/// The newest metadata blob among `components` (oldest → newest): what a
/// merge output keeps, since the newest schema is a superset of the older
/// ones (§3.1.1), and what recovery reloads (§3.1.2).
fn newest_metadata(components: &[Arc<DiskComponent>]) -> Option<Vec<u8>> {
    components.iter().rev().find_map(|c| c.metadata().map(<[u8]>::to_vec))
}

/// Probe an owned component snapshot newest → oldest for one key; a
/// quarantined component on the way fails the probe (see
/// [`LsmTree::lookup_with`]).
fn probe_components(
    components: &[Arc<DiskComponent>],
    cache: &BufferCache,
    key: &[u8],
) -> Result<Option<LookupHit>, StorageError> {
    for c in components.iter().rev() {
        if c.is_quarantined() {
            return Err(StorageError::corruption(
                "component",
                format!("component {} is quarantined", c.id()),
            ));
        }
        if let Some(hit) = c.lookup(cache, key)? {
            return Ok(Some(hit));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::encode_u64_key;
    use crate::hook::NoopHook;
    use tc_storage::device::DeviceProfile;

    fn tree(opts: LsmOptions) -> LsmTree {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let cache = Arc::new(BufferCache::new(1024));
        LsmTree::new(device, cache, Arc::new(NoopHook), opts)
    }

    fn small_tree() -> LsmTree {
        tree(LsmOptions {
            page_size: 512,
            memtable_budget: 4 * 1024,
            merge_policy: MergePolicy::NoMerge,
            ..Default::default()
        })
    }

    #[test]
    fn insert_get_across_flushes() {
        let t = small_tree();
        for i in 0..200u64 {
            t.insert(encode_u64_key(i), format!("v{i}").into_bytes()).unwrap();
        }
        assert!(t.stats().flushes > 0, "budget should have forced flushes");
        assert!(t.stats().writer_stall_nanos > 0, "inline flushes stall the writer");
        for i in (0..200u64).step_by(17) {
            assert_eq!(t.get(&encode_u64_key(i)).unwrap(), Some(format!("v{i}").into_bytes()));
        }
        assert_eq!(t.get(&encode_u64_key(999)).unwrap(), None);
        assert_eq!(t.count(), 200);
    }

    #[test]
    fn delete_hides_record_across_components() {
        let t = small_tree();
        t.insert(encode_u64_key(1), b"one".to_vec()).unwrap();
        t.flush().unwrap();
        t.delete(encode_u64_key(1), None).unwrap();
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), None);
        t.flush().unwrap();
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), None);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn merge_annihilates_and_garbage_collects() {
        let t = small_tree();
        t.insert(encode_u64_key(0), b"Kim".to_vec()).unwrap();
        t.insert(encode_u64_key(1), b"John".to_vec()).unwrap();
        t.flush().unwrap(); // C0
        t.delete(encode_u64_key(0), None).unwrap();
        t.insert(encode_u64_key(2), b"Bob".to_vec()).unwrap();
        t.flush().unwrap(); // C1
        assert_eq!(t.components().len(), 2);
        t.force_full_merge().unwrap();
        assert_eq!(t.components().len(), 1);
        let merged = &t.components()[0];
        assert_eq!(merged.id().to_string(), "[C0,C1]");
        // Kim and the anti-matter annihilated: 2 live entries, 0 anti.
        assert_eq!(merged.num_entries(), 2);
        assert_eq!(merged.num_antimatter(), 0);
        assert_eq!(t.get(&encode_u64_key(0)).unwrap(), None);
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), Some(b"John".to_vec()));
    }

    #[test]
    fn partial_merge_preserves_antimatter() {
        let t = small_tree();
        t.insert(encode_u64_key(7), b"v".to_vec()).unwrap();
        t.flush().unwrap(); // C0 holds the record
        t.delete(encode_u64_key(7), None).unwrap();
        t.flush().unwrap(); // C1 holds anti-matter
        t.insert(encode_u64_key(8), b"w".to_vec()).unwrap();
        t.flush().unwrap(); // C2

        // Merge C1..C2 only: the anti-matter must survive, because C0 still
        // holds the record it kills.
        t.merge(1..3).unwrap();
        assert_eq!(t.components().len(), 2);
        assert_eq!(t.components()[1].num_antimatter(), 1);
        assert_eq!(t.get(&encode_u64_key(7)).unwrap(), None, "record must stay dead");
    }

    #[test]
    fn upsert_last_write_wins() {
        let t = small_tree();
        t.insert(encode_u64_key(5), b"a".to_vec()).unwrap();
        t.flush().unwrap();
        t.delete(encode_u64_key(5), None).unwrap();
        t.insert(encode_u64_key(5), b"b".to_vec()).unwrap();
        assert_eq!(t.get(&encode_u64_key(5)).unwrap(), Some(b"b".to_vec()));
        t.flush().unwrap();
        t.force_full_merge().unwrap();
        assert_eq!(t.get(&encode_u64_key(5)).unwrap(), Some(b"b".to_vec()));
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn scan_merges_mem_and_disk() {
        let t = small_tree();
        t.insert(encode_u64_key(2), b"disk".to_vec()).unwrap();
        t.flush().unwrap();
        t.insert(encode_u64_key(1), b"mem".to_vec()).unwrap();
        t.insert(encode_u64_key(2), b"mem-override".to_vec()).unwrap();
        let mut scan = t.scan();
        let mut got = Vec::new();
        while let Some((k, _, p)) = scan.next() {
            got.push((crate::entry::decode_u64_key(&k).unwrap(), p));
        }
        assert_eq!(got, vec![(1, b"mem".to_vec()), (2, b"mem-override".to_vec())]);
    }

    /// A payload lent from a row block stays valid, and unchanged, after
    /// its scan has moved on to later blocks, after the scan is gone, and
    /// after a merge has replaced its component.
    #[test]
    fn lent_payloads_outlive_their_scan_and_component() {
        let t = small_tree();
        let payload = |i: u64| format!("payload-{i:03}-").repeat(1 + i as usize % 7).into_bytes();
        for i in 0..150u64 {
            t.insert(encode_u64_key(i), payload(i)).unwrap();
        }
        t.flush().unwrap();
        let before = t.components();
        assert!(before.len() > 1 && t.memtable_len() == 0);
        let mut scan = t.scan();
        let mut lent = Vec::new();
        while let Some((_, _, p)) = scan.next_lent() {
            lent.push(p);
            assert_eq!(&*lent[0], &payload(0)[..], "after {} entries", lent.len());
        }
        drop(scan);
        t.force_full_merge().unwrap();
        assert_eq!(t.components().len(), 1);
        assert!(before.iter().all(|c| !Arc::ptr_eq(c, &t.components()[0])));
        drop(before);
        assert_eq!(lent.len(), 150);
        for (i, p) in lent.iter().enumerate() {
            assert_eq!(&**p, &payload(i as u64)[..]);
        }
    }

    #[test]
    fn multi_key_lookup_matches_per_key_get_entry() {
        use tc_storage::error::IoOp;
        use tc_storage::fault::{FaultKind, FaultPlan};
        let key = encode_u64_key;
        // No WAL: the only device writes are component pages.
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let t = LsmTree::new(
            Arc::clone(&device),
            Arc::new(BufferCache::new(64)),
            Arc::new(NoopHook),
            LsmOptions {
                page_size: 512,
                merge_policy: MergePolicy::NoMerge,
                wal_enabled: false,
                ..Default::default()
            },
        );
        for i in 0..6u64 {
            t.insert(key(i), format!("disk{i}").into_bytes()).unwrap();
        }
        t.flush().unwrap();
        // Key 1's newer version stays frozen: its flush fails on the first
        // page write.
        t.insert(key(1), b"frozen".to_vec()).unwrap();
        device.set_fault_plan(FaultPlan::new(1).fail_nth(IoOp::Write, 1, FaultKind::Transient));
        assert!(t.flush().is_err());
        device.clear_fault_plan();
        // Key 2's newest version is anti-matter in the active memtable; key
        // 7 lives only there.
        t.delete(key(2), None).unwrap();
        t.insert(key(7), b"active".to_vec()).unwrap();
        assert_eq!((t.components().len(), t.memtable_len()), (1, 3));

        // Input order, a duplicate (1) and an absent key (9).
        let keys = [key(4), key(1), key(2), key(9), key(1), key(7), key(0)];
        let (captured, hits) = t.lookup_with(&keys, || "captured").unwrap();
        assert_eq!(captured, "captured");
        let hits: Vec<_> =
            hits.into_iter().map(|hit| hit.map(|h| h.into_bytes(t.cache()).unwrap())).collect();
        let per_key: Vec<_> = keys.iter().map(|k| t.get_entry(k).unwrap()).collect();
        assert_eq!(hits, per_key);
        let record = |v: &str| Some((EntryKind::Record, v.as_bytes().to_vec()));
        let anti = Some((EntryKind::AntiMatter, Vec::new()));
        let want = [record("disk4"), record("frozen"), anti, None, record("frozen")];
        assert_eq!(hits[..5], want);
        assert_eq!(hits[5..], [record("active"), record("disk0")]);

        // The scan over the same state agrees with the lookups.
        let (_, mut scan) = t.scan_with(Some(&key(1)), Some(&key(8)), None, || ());
        let mut scanned = Vec::new();
        while let Some((k, _, payload)) = scan.next() {
            assert_eq!(t.get(&k).unwrap(), Some(payload));
            scanned.push(crate::entry::decode_u64_key(&k).unwrap());
        }
        assert_eq!(scanned, [1, 3, 4, 5, 7]);
    }

    #[test]
    fn multi_key_lookup_fails_whole_on_a_quarantined_component() {
        let t = small_tree();
        flush_batch(&t, &[], 0..10);
        flush_batch(&t, &[], 10..20);
        t.insert(encode_u64_key(30), b"mem".to_vec()).unwrap();
        t.components()[1].quarantine();
        // Key 3 lives in the older component; its probe meets the
        // quarantined newer one first.
        let keys = [encode_u64_key(30), encode_u64_key(3)];
        let err = t.lookup_with(&keys, || ()).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        // A lookup the memtable answers probes no component.
        let hit = t.lookup_with(&keys[..1], || ()).unwrap().1.pop().flatten();
        assert!(matches!(hit, Some(LookupHit::Bytes(EntryKind::Record, p)) if p == b"mem"));
    }

    #[test]
    fn sole_component_only_when_one_component_holds_everything() {
        let t = small_tree();
        assert!(t.sole_component().is_none(), "empty tree");
        flush_batch(&t, &[], 0..10);
        let sole = t.sole_component().expect("one component, nothing in memory");
        assert!(Arc::ptr_eq(&sole, &t.components()[0]));
        t.insert(encode_u64_key(10), b"v".to_vec()).unwrap();
        assert!(t.sole_component().is_none(), "a memtable entry");
        t.flush().unwrap();
        assert!(t.sole_component().is_none(), "two components");
        t.force_full_merge().unwrap();
        assert!(t.sole_component().is_some());
    }

    /// The panic message of `f`, which must panic (debug builds only).
    fn panic_text(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("must panic in debug builds");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// `sync::blocking` refuses page I/O while the hot `state` lock is held,
    /// cache hits included; released, the same probe is legal.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the check compiles out in release")]
    fn disk_probe_under_state_panics() {
        let t = small_tree();
        flush_batch(&t, &[], 0..10);
        let key = encode_u64_key(3);
        assert!(t.get(&key).unwrap().is_some(), "the page is now cached");
        let st = t.state.read();
        let msg = panic_text(|| drop(probe_components(&st.disk, &t.cache, &key)));
        assert!(msg.contains("blocking call 'BufferCache::read'"), "unexpected panic: {msg}");
        drop(st);
        assert!(probe_components(&t.components(), &t.cache, &key).unwrap().is_some());
    }

    /// A flush takes `flush_lock`, which ranks before `state`, so starting
    /// one under `state` trips the rank checker before anything blocks.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the check compiles out in release")]
    fn flush_under_state_panics() {
        let t = small_tree();
        t.insert(encode_u64_key(1), b"mem".to_vec()).unwrap();
        let st = t.state.read();
        let msg = panic_text(|| drop(t.flush()));
        assert!(msg.contains("acquiring 'flush_lock'"), "unexpected panic: {msg}");
        drop(st);
        t.flush().unwrap();
        assert_eq!(t.components().len(), 1);
    }

    #[test]
    fn crash_recovery_replays_wal() {
        let t = small_tree();
        t.insert(encode_u64_key(1), b"flushed".to_vec()).unwrap();
        t.flush().unwrap();
        t.insert(encode_u64_key(2), b"unflushed".to_vec()).unwrap();
        t.delete(encode_u64_key(1), Some(b"anti-schema".to_vec())).unwrap();
        t.simulate_crash();
        assert_eq!(t.get(&encode_u64_key(2)).unwrap(), None, "memtable lost");
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), Some(b"flushed".to_vec()));
        let (removed, replayed) = t.recover().unwrap();
        assert_eq!(removed, 0);
        assert_eq!(replayed, 2);
        assert_eq!(t.get(&encode_u64_key(2)).unwrap(), Some(b"unflushed".to_vec()));
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), None, "delete replayed");
    }

    #[test]
    fn crash_mid_flush_discards_invalid_component() {
        let t = small_tree();
        t.insert(encode_u64_key(1), b"a".to_vec()).unwrap();
        t.flush().unwrap(); // C0 valid
        t.insert(encode_u64_key(2), b"b".to_vec()).unwrap();
        t.flush_crashing_before_validity(); // C1 invalid, WAL intact
        assert_eq!(t.components().len(), 2);
        t.simulate_crash();
        let (removed, replayed) = t.recover().unwrap();
        assert_eq!(removed, 1, "invalid C1 removed");
        assert_eq!(replayed, 1, "WAL replays the lost insert");
        assert_eq!(t.get(&encode_u64_key(2)).unwrap(), Some(b"b".to_vec()));
        // Re-flush: the restored component becomes the new C1 (§3.1.2).
        t.flush().unwrap();
        assert_eq!(t.components().last().unwrap().id().to_string(), "C1");
    }

    #[test]
    fn torn_wal_tail_loses_only_last_op() {
        let t = small_tree();
        t.insert(encode_u64_key(1), b"a".to_vec()).unwrap();
        t.insert(encode_u64_key(2), b"b".to_vec()).unwrap();
        t.wal().tear_tail(3);
        t.simulate_crash();
        let (_, replayed) = t.recover().unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), Some(b"a".to_vec()));
        assert_eq!(t.get(&encode_u64_key(2)).unwrap(), None);
    }

    #[test]
    fn merge_policy_fires_during_ingestion() {
        let t = tree(LsmOptions {
            page_size: 512,
            memtable_budget: 2 * 1024,
            merge_policy: MergePolicy::Prefix {
                max_mergeable_size: 1024 * 1024,
                max_tolerable_components: 3,
            },
            ..Default::default()
        });
        for i in 0..2000u64 {
            t.insert(encode_u64_key(i), vec![0u8; 64]).unwrap();
        }
        assert!(t.stats().merges > 0, "prefix policy should have merged");
        assert!(t.components().len() <= 4);
        assert_eq!(t.count(), 2000);
    }

    #[test]
    fn bulk_load_builds_single_component() {
        let t = small_tree();
        t.bulk_load((0..1000u64).map(|i| (encode_u64_key(i), format!("v{i}").into_bytes())))
            .unwrap();
        assert_eq!(t.components().len(), 1);
        assert_eq!(t.count(), 1000);
        assert_eq!(t.get(&encode_u64_key(500)).unwrap(), Some(b"v500".to_vec()));
    }

    /// The layout is the options': with a codec every flush, bulk load and
    /// merge output is columnar, without one none is.
    #[test]
    fn every_component_takes_the_layout_the_options_fix() {
        let codec = Arc::new(crate::iter::tests::CountingCodec::default());
        for columnar in [Some(codec as Arc<dyn ColumnarCodec>), None] {
            let want = columnar.is_some();
            let t = tree(LsmOptions {
                page_size: 512,
                merge_policy: MergePolicy::NoMerge,
                columnar,
                ..Default::default()
            });
            let layouts = |t: &LsmTree| -> Vec<bool> {
                t.components().iter().map(|c| c.is_columnar()).collect()
            };
            // At most four groups of three per component: what the mock holds.
            t.bulk_load((0..6u64).map(|i| (encode_u64_key(i), format!("v{i}").into_bytes())))
                .unwrap();
            flush_batch(&t, &[3], 6..9);
            flush_batch(&t, &[], 9..12);
            assert_eq!(layouts(&t), vec![want; 3], "bulk load and flushes");
            t.merge(1..3).unwrap();
            assert_eq!(t.components()[1].num_antimatter(), 1);
            assert_eq!(layouts(&t), vec![want; 2], "a merge that keeps anti-matter");
            t.force_full_merge().unwrap();
            assert_eq!(layouts(&t), vec![want], "a full merge");
            assert_eq!(t.count(), 11);
            assert_eq!(t.get(&encode_u64_key(3)).unwrap(), None);
            assert_eq!(t.get(&encode_u64_key(10)).unwrap(), Some(b"v10".to_vec()));
        }
    }

    /// Each flush's blob is the next one the script names (`None`: no blob).
    struct ScriptedBlobs(Vec<Option<&'static str>>, AtomicU64);
    impl ComponentHook for ScriptedBlobs {
        fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
            Box::new(self)
        }
    }
    impl FlushPass for &ScriptedBlobs {
        fn metadata(&mut self) -> Option<Vec<u8>> {
            let flush = self.1.fetch_add(1, AtomicOrdering::Relaxed) as usize;
            self.0[flush].map(|blob| blob.as_bytes().to_vec())
        }
    }

    fn scripted_tree(blobs: Vec<Option<&'static str>>) -> LsmTree {
        LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::new(ScriptedBlobs(blobs, AtomicU64::new(0))),
            LsmOptions { merge_policy: MergePolicy::NoMerge, ..Default::default() },
        )
    }

    #[test]
    fn metadata_propagates_through_merge() {
        let t = scripted_tree(vec![Some("schema"); 2]);
        t.insert(encode_u64_key(1), b"a".to_vec()).unwrap();
        t.flush().unwrap();
        t.insert(encode_u64_key(2), b"b".to_vec()).unwrap();
        t.flush().unwrap();
        t.force_full_merge().unwrap();
        assert_eq!(t.newest_metadata(), Some(b"schema".to_vec()));
    }

    /// Counts the attachments its passes see.
    struct CountingHook(AtomicU64);
    impl ComponentHook for CountingHook {
        fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
            Box::new(self)
        }
    }
    impl FlushPass for &CountingHook {
        fn on_antimatter(&mut self, attachment: Option<&[u8]>) -> Result<(), StorageError> {
            if attachment.is_some() {
                self.0.fetch_add(1, AtomicOrdering::Relaxed);
            }
            Ok(())
        }
    }

    #[test]
    fn delete_versioned_attaches_only_for_observed_versions() {
        let hook = Arc::new(CountingHook(AtomicU64::new(0)));
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let cache = Arc::new(BufferCache::new(64));
        let t = LsmTree::new(
            device,
            cache,
            Arc::clone(&hook) as Arc<dyn ComponentHook>,
            LsmOptions { merge_policy: MergePolicy::NoMerge, ..Default::default() },
        );
        // Version still in the active memtable: never observed → the
        // attachment must be dropped.
        t.insert(encode_u64_key(1), b"v1".to_vec()).unwrap();
        t.delete_versioned(encode_u64_key(1), Some(b"anti".to_vec())).unwrap();
        t.flush().unwrap();
        assert_eq!(hook.0.load(AtomicOrdering::Relaxed), 0, "unobserved version: no decrement");
        // Version on disk: observed → the attachment reaches the hook.
        t.insert(encode_u64_key(2), b"v1".to_vec()).unwrap();
        t.flush().unwrap();
        t.delete_versioned(encode_u64_key(2), Some(b"anti".to_vec())).unwrap();
        t.flush().unwrap();
        assert_eq!(hook.0.load(AtomicOrdering::Relaxed), 1, "observed version: one decrement");
    }

    #[test]
    fn replay_strips_attachment_when_covering_flush_crashed() {
        // A delete decided "counted" because its old version sat in the
        // frozen memtable — but the covering flush crashed before the
        // validity bit, so the count never became durable. Recovery must
        // strip the (retroactively wrong) anti-schema so the hook never
        // decrements for a version that was never durably counted.
        let hook = Arc::new(CountingHook(AtomicU64::new(0)));
        let t = LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::clone(&hook) as Arc<dyn ComponentHook>,
            LsmOptions { merge_policy: MergePolicy::NoMerge, ..Default::default() },
        );
        t.insert(encode_u64_key(1), b"v1".to_vec()).unwrap();
        t.flush_crashing_before_validity(); // v1's count never durable; WAL keeps its insert
        t.delete_versioned(encode_u64_key(1), Some(b"anti".to_vec())).unwrap(); // sees no active record → "counted"
        t.simulate_crash();
        let (removed, replayed) = t.recover().unwrap();
        assert_eq!(removed, 1);
        assert_eq!(replayed, 2, "insert + anti-matter both replay");
        t.flush().unwrap();
        assert_eq!(
            hook.0.load(AtomicOrdering::Relaxed),
            0,
            "the never-durably-counted version must not be decremented"
        );
        assert_eq!(t.get(&encode_u64_key(1)).unwrap(), None, "the delete itself still holds");
    }

    #[test]
    fn concurrent_readers_during_writes_and_flushes() {
        // Shared-reader smoke test at the tree level: one writer inserts
        // and flushes; readers continuously get/scan. Every observed state
        // must be a prefix-consistent snapshot (values match their keys; no
        // torn payloads; counts never exceed what was written).
        let t = Arc::new(tree(LsmOptions {
            page_size: 512,
            memtable_budget: 2 * 1024,
            merge_policy: MergePolicy::Prefix {
                max_mergeable_size: 1024 * 1024,
                max_tolerable_components: 3,
            },
            ..Default::default()
        }));
        const N: u64 = 1500;
        std::thread::scope(|scope| {
            let writer = Arc::clone(&t);
            scope.spawn(move || {
                for i in 0..N {
                    writer.insert(encode_u64_key(i), format!("payload-{i}").into_bytes()).unwrap();
                }
            });
            for _ in 0..3 {
                let reader = Arc::clone(&t);
                scope.spawn(move || {
                    for round in 0..40u64 {
                        // Point gets: value must always match its key.
                        for i in (0..N).step_by(97) {
                            if let Some(p) = reader.get(&encode_u64_key(i)).unwrap() {
                                assert_eq!(p, format!("payload-{i}").into_bytes());
                            }
                        }
                        // Scans: sorted unique keys, consistent payloads.
                        let mut scan = reader.scan();
                        let mut prev: Option<u64> = None;
                        let mut seen = 0u64;
                        while let Some((k, _, p)) = scan.next() {
                            let key = crate::entry::decode_u64_key(&k).unwrap();
                            if let Some(prev) = prev {
                                assert!(key > prev, "scan keys must ascend");
                            }
                            prev = Some(key);
                            assert_eq!(p, format!("payload-{key}").into_bytes());
                            seen += 1;
                        }
                        assert!(seen <= N);
                        let _ = round;
                    }
                });
            }
        });
        assert_eq!(t.count(), N);
    }

    #[test]
    fn flush_from_background_thread_keeps_readers_consistent() {
        let t = Arc::new(small_tree());
        for i in 0..300u64 {
            t.insert(encode_u64_key(i), format!("v{i}").into_bytes()).unwrap();
        }
        std::thread::scope(|scope| {
            let flusher = Arc::clone(&t);
            scope.spawn(move || {
                flusher.flush().unwrap();
                flusher.force_full_merge().unwrap();
            });
            let reader = Arc::clone(&t);
            scope.spawn(move || {
                for _ in 0..50 {
                    assert_eq!(reader.count(), 300, "no reader may see torn state");
                }
            });
        });
        assert_eq!(t.memtable_len(), 0);
        assert_eq!(t.count(), 300);
    }

    /// A tree under `policy` whose memtable never fills in these tests, so
    /// only explicit flushes and `maybe_merge` calls reshape it.
    fn policy_tree(policy: MergePolicy) -> LsmTree {
        tree(LsmOptions { page_size: 512, merge_policy: policy, ..Default::default() })
    }

    /// Flush one component holding `keys`, after deleting `deleted`.
    fn flush_batch(t: &LsmTree, deleted: &[u64], keys: std::ops::Range<u64>) {
        for &k in deleted {
            t.delete(encode_u64_key(k), None).unwrap();
        }
        for i in keys {
            t.insert(encode_u64_key(i), format!("v{i}").into_bytes()).unwrap();
        }
        t.flush().unwrap();
    }

    #[test]
    fn policy_pick_past_a_dominating_oldest_keeps_antimatter() {
        let t = policy_tree(MergePolicy::Constant { max_components: 2 });
        flush_batch(&t, &[], 0..200); // C0 outweighs everything newer
        flush_batch(&t, &[7], 200..201); // C1 kills a record C0 holds
        flush_batch(&t, &[], 201..202);
        flush_batch(&t, &[], 202..203);
        let pick = MergePick { range: 1..4, trigger: MergeTrigger::ComponentCount };
        let decision = t.opts.merge_policy.decide(&run_sizes(&t.components()));
        assert_eq!(decision, CompactionDecision::Merge(pick));

        t.maybe_merge().unwrap();
        let comps = t.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[1].id().to_string(), "[C1,C3]");
        assert_eq!(comps[1].num_antimatter(), 1, "C0 survives, so its kill must too");
        assert_eq!(t.get(&encode_u64_key(7)).unwrap(), None);
        assert_eq!(t.count(), 202);
        assert_eq!(t.stats().merges_by_trigger[MergeTrigger::ComponentCount as usize], 1);
    }

    #[test]
    fn policy_prefix_pick_drops_antimatter() {
        let t = policy_tree(MergePolicy::Prefix {
            max_mergeable_size: u64::MAX,
            max_tolerable_components: 2,
        });
        flush_batch(&t, &[], 0..10);
        flush_batch(&t, &[7], 10..12);
        flush_batch(&t, &[], 12..14);
        t.maybe_merge().unwrap();
        let comps = t.components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id().to_string(), "[C0,C2]");
        assert_eq!(comps[0].num_antimatter(), 0, "nothing older survives the pick");
        assert_eq!(comps[0].num_entries(), 13, "the killed record went with its anti-matter");
        assert_eq!(t.get(&encode_u64_key(7)).unwrap(), None);
    }

    #[test]
    fn crashing_full_merge_appends_an_invalid_component_only() {
        let t = small_tree();
        flush_batch(&t, &[], 0..10);
        flush_batch(&t, &[3], 10..20);
        let inputs = t.components();
        let before = t.stats();
        t.force_full_merge_crashing_before_validity().unwrap();
        let comps = t.components();
        assert_eq!(comps.len(), 3);
        assert!(comps[..2].iter().zip(&inputs).all(|(c, i)| Arc::ptr_eq(c, i)));
        assert!(inputs.iter().all(|c| c.is_valid()));
        assert!(!comps[2].is_valid());
        assert_eq!(comps[2].id().to_string(), "[C0,C1]");
        let after = t.stats();
        assert_eq!((after.merges, after.bytes_merged), (before.merges, before.bytes_merged));
        t.simulate_crash();
        assert_eq!(t.recover().unwrap().0, 1, "recovery drops the half-merged component");
        assert_eq!(t.components().len(), 2);
        assert_eq!(t.count(), 19);
    }

    #[test]
    fn fifo_policy_retires_oldest_components() {
        let t = tree(LsmOptions {
            page_size: 512,
            memtable_budget: 4 * 1024,
            merge_policy: MergePolicy::Fifo { max_components: 2, max_total_bytes: u64::MAX },
            ..Default::default()
        });
        for batch in 0..4u64 {
            for i in batch * 10..batch * 10 + 10 {
                t.insert(encode_u64_key(i), format!("v{i}").into_bytes()).unwrap();
            }
            t.flush().unwrap();
            t.maybe_merge().unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.merges, 0, "FIFO never merges");
        assert_eq!(t.components().len(), 2, "count cap enforced");
        assert_eq!(stats.components_retired, 2);
        assert_eq!(stats.entries_retired, 20);
        // The oldest batches are gone (lossy by design), the newest live.
        assert_eq!(t.get(&encode_u64_key(0)).unwrap(), None);
        assert_eq!(t.get(&encode_u64_key(15)).unwrap(), None);
        assert_eq!(t.get(&encode_u64_key(25)).unwrap(), Some(b"v25".to_vec()));
        assert_eq!(t.get(&encode_u64_key(39)).unwrap(), Some(b"v39".to_vec()));
    }

    #[test]
    fn write_amplification_accounts_flushes_and_merges() {
        let t = tree(LsmOptions {
            page_size: 512,
            memtable_budget: 4 * 1024,
            merge_policy: MergePolicy::Constant { max_components: 2 },
            ..Default::default()
        });
        for i in 0..300u64 {
            t.insert(encode_u64_key(i), format!("payload-{i}").into_bytes()).unwrap();
        }
        t.flush().unwrap();
        t.maybe_merge().unwrap();
        let stats = t.stats();
        assert!(stats.flushes > 0 && stats.merges > 0);
        assert!(stats.bytes_flushed > 0, "every flush adds to the denominator");
        assert!(stats.bytes_merged > 0, "every merge adds to the numerator");
        assert!(stats.write_amplification() > 1.0);
        let triggered: u64 = stats.merges_by_trigger.iter().sum();
        assert_eq!(triggered, stats.merges, "every merge is attributed to a trigger");
        // NoMerge baseline: amplification is exactly 1.
        let t = small_tree();
        for i in 0..100u64 {
            t.insert(encode_u64_key(i), b"x".to_vec()).unwrap();
        }
        t.flush().unwrap();
        let stats = t.stats();
        assert_eq!(stats.bytes_merged, 0);
        assert!((stats.write_amplification() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn level_counts_follow_the_policy_assignment() {
        let t = tree(LsmOptions {
            page_size: 512,
            memtable_budget: 4 * 1024,
            merge_policy: MergePolicy::Leveled {
                level0_components: 8,
                base_bytes: 2 * 1024,
                fanout: 4,
            },
            ..Default::default()
        });
        assert!(t.level_counts().is_empty(), "no components, no levels");
        for batch in 0..3u64 {
            for i in batch * 5..batch * 5 + 5 {
                t.insert(encode_u64_key(i), vec![b'x'; 100]).unwrap();
            }
            t.flush().unwrap();
        }
        let counts = t.level_counts();
        assert_eq!(counts.iter().sum::<u64>(), t.components().len() as u64);
    }
}
