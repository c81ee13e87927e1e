//! The tuple compactor as an LSM component hook (paper §3.1), plus the
//! background maintenance worker that drives flushes and the merge policy
//! off the write path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use tc_schema::{FieldNameDictionary, Schema};
use tc_storage::StorageError;
use tc_util::sync::{self, ranks, OrderedMutex};
use tc_vector::{infer_and_compact_into, remove_anti_schema};

use tc_lsm::{ComponentHook, FlushPass, LsmTree, ZoneExtractor};

/// The tuple compactor: shared between a dataset's LSM tree (as its flush
/// hook) and its query path (which snapshots the schema dictionary).
///
/// One instance per dataset partition; partitions never coordinate (§3.4.1).
pub struct TupleCompactor {
    /// The published schema: the one persisted by the newest flushed
    /// component, changed only by a flush pass's commit (in the section
    /// that installs its component) and by `load_schema`.
    schema: OrderedMutex<Published>,
}

/// A schema and an `Arc` of its field-name dictionary, so the point-lookup
/// hot path pays an `Arc` clone instead of a dictionary copy.
#[derive(Clone, Default)]
struct Published {
    schema: Schema,
    dict: Arc<FieldNameDictionary>,
}

impl Published {
    /// Make `dict` a copy of the schema's dictionary, unless it already
    /// holds as many names: the dictionary is append-only, so equal lengths
    /// mean equal contents.
    fn sync_dict(&mut self) {
        if self.dict.len() != self.schema.dict().len() {
            self.dict = Arc::new(self.schema.dict().clone());
        }
    }
}

impl Default for TupleCompactor {
    /// A compactor with an empty schema. Declared fields need no catalog
    /// here: a stored record marks them, and both walks skip what is marked.
    fn default() -> Self {
        let schema = OrderedMutex::new(ranks::COMPACTOR_SCHEMA, Published::default());
        TupleCompactor { schema }
    }
}

impl TupleCompactor {
    /// Snapshot the published schema (query startup / schema broadcast —
    /// §3.4.1).
    pub fn schema_snapshot(&self) -> Schema {
        self.schema.lock().schema.clone()
    }

    /// Snapshot only the field-name dictionary — the part decoders need.
    /// An `Arc` clone: callers on the read path may hold the tree's state
    /// read lock.
    pub fn dict_snapshot(&self) -> Arc<FieldNameDictionary> {
        Arc::clone(&self.schema.lock().dict)
    }

    /// Replace the published schema (recovery reloads the newest valid
    /// component's schema — §3.1.2).
    pub fn load_schema(&self, schema: Schema) {
        let mut published = Published { schema, dict: Arc::default() };
        published.sync_dict();
        *self.schema.lock() = published;
    }
}

impl ComponentHook for TupleCompactor {
    /// A pass over a copy of the published schema: nothing it infers is
    /// visible until the tree commits it with the flushed component.
    fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
        Box::new(CompactorPass { compactor: self, next: self.schema.lock().clone() })
    }

    /// Row blocks get zones over the schema's first numeric top-level
    /// fields (see [`crate::zones`]), from the blob the component carries.
    fn zone_extractor(&self, metadata: Option<&[u8]>) -> Option<Box<dyn ZoneExtractor>> {
        crate::zones::extractor(metadata?)
    }
}

/// One flush's schema inference, on its own copy of the published schema.
/// Its dictionary `Arc` stays the published one until `metadata` finds the
/// dictionary grown.
struct CompactorPass<'a> {
    compactor: &'a TupleCompactor,
    next: Published,
}

impl FlushPass for CompactorPass<'_> {
    /// Flush-time transformation: one walk infers the schema and strips
    /// field names (§3.3.2), appending the compacted record to the flush's
    /// buffer. A frozen record the walk cannot read fails the flush as
    /// corruption.
    fn on_record(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), StorageError> {
        infer_and_compact_into(payload, &mut self.next.schema, out)
            .map_err(|e| StorageError::corruption("flushed record", e.to_string()))
    }

    /// Anti-matter processing: the attachment is the retired version's
    /// anti-schema — its stored bytes, compacted if it came from a
    /// component, uncompacted if from a memtable. One raw walk decrements
    /// the schema counters and prunes (§3.2.2); compacted names resolve
    /// through this pass's dictionary, which only ever grew since they were
    /// written. The attachment is discarded by the engine afterwards —
    /// anti-matter reaches disk as a bare key. One that is not an encoded
    /// object fails the flush as corruption, like a frozen record the
    /// compaction walk cannot read: skipping it would leave the deleted
    /// record's fields counted. A walk that fails halfway leaves this pass
    /// partly decremented, and the failed flush drops the pass.
    fn on_antimatter(&mut self, attachment: Option<&[u8]>) -> Result<(), StorageError> {
        let Some(bytes) = attachment else { return Ok(()) };
        remove_anti_schema(bytes, &mut self.next.schema)
            .map_err(|e| StorageError::corruption("anti-schema", e.to_string()))
    }

    /// The post-flush schema, persisted in the component's metadata page
    /// (§3.1.1). The dictionary copy a commit publishes is made here, off
    /// the tree's `state` lock.
    fn metadata(&mut self) -> Option<Vec<u8>> {
        self.next.sync_dict();
        Some(self.next.schema.serialize())
    }

    /// Publish the pass's schema: a swap; the replaced schema is freed
    /// after the lock is released.
    fn commit(mut self: Box<Self>) {
        self.next.sync_dict();
        let _replaced = std::mem::replace(&mut *self.compactor.schema.lock(), self.next);
    }
}

// ---------------------------------------------------------------------
// Background maintenance: flush scheduling + merge-policy driver
// ---------------------------------------------------------------------

enum Job {
    /// Flush the tree, then evaluate the merge policy (paper §2.2: merges
    /// are scheduled after flushes change the component list).
    FlushThenMerge,
    Shutdown,
}

/// Maximum attempts per maintenance round before a transient fault is
/// treated like a permanent one for this round (the round gives up and the
/// next over-budget write reschedules it).
const MAX_MAINTENANCE_ATTEMPTS: u32 = 3;

/// Capped exponential backoff between retries of a transiently-failed
/// maintenance round: 1ms, 2ms, 4ms, ... capped at 16ms. Blocking — only
/// ever called on the maintenance worker thread, never on a writer.
fn backoff_sleep(attempt: u32) {
    sync::blocking("maintenance backoff");
    let ms = 1u64 << attempt.min(4);
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// One maintenance round: flush, then evaluate the merge policy. Transient
/// storage faults are retried with capped backoff; permanent faults and
/// corruption give the round up (the tree has already counted them in
/// `maintenance_errors` and left itself exactly as before the attempt, so
/// the next over-budget write simply reschedules). Storage errors never
/// poison the worker — only panics do.
fn run_round(tree: &LsmTree) {
    let mut attempt = 0u32;
    loop {
        let outcome = tree.flush().and_then(|()| tree.maybe_merge());
        match outcome {
            Ok(()) => return,
            Err(e) if e.is_transient() && attempt + 1 < MAX_MAINTENANCE_ATTEMPTS => {
                tree.note_retry();
                backoff_sleep(attempt);
                attempt += 1;
            }
            Err(_) => return,
        }
    }
}

/// Outstanding-work gauge: counts queued + in-flight jobs so
/// [`MaintenanceWorker::await_quiescent`] can block until the pipeline
/// drains. (std `Condvar` — the vendored `parking_lot` shim has none.)
#[derive(Default)]
struct Gauge {
    #[expect(
        clippy::disallowed_types,
        reason = "a std Condvar waits on a std Mutex; a leaf lock, never held while taking another"
    )]
    outstanding: std::sync::Mutex<usize>,
    drained: Condvar,
}

impl Gauge {
    /// A plain counter can't be corrupted by a panicking holder, so poison
    /// here is noise, not damage: take the guard back rather than
    /// compounding a worker panic (already surfaced via `poisoned`) with a
    /// gauge panic on an unrelated thread.
    fn count(&self) -> std::sync::MutexGuard<'_, usize> {
        self.outstanding.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn add(&self) {
        *self.count() += 1;
    }

    fn done(&self) {
        let mut n = self.count();
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    fn wait_zero(&self) {
        sync::blocking("Gauge::wait_zero");
        let mut n = self.count();
        while *n > 0 {
            n = self.drained.wait(n).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A per-partition background maintenance worker: one thread that executes
/// flushes and drives the merge policy for an [`LsmTree`], decoupling both
/// from the writer ("Breaking Down Memory Walls"-style flush scheduling;
/// the tuple compactor's schema commits keep their existing lock discipline
/// because the tree's flush path already serializes them).
///
/// Scheduling is level-triggered and deduplicated: `schedule_flush` is a
/// no-op while a flush is already queued (the `queued` latch clears when
/// the worker *starts* the flush, so writes landing mid-flush re-arm it).
pub struct MaintenanceWorker {
    tx: Sender<Job>,
    gauge: Arc<Gauge>,
    queued: Arc<AtomicBool>,
    /// Set when the flush/merge pipeline panicked; the worker stays alive
    /// settling jobs (so no awaiter hangs) but stops touching the tree,
    /// and `schedule_flush` starts refusing work so callers can tell the
    /// pipeline is dead.
    poisoned: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MaintenanceWorker {
    /// Spawn the worker thread for `tree`.
    pub fn spawn(tree: Arc<LsmTree>) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let gauge = Arc::new(Gauge::default());
        let queued = Arc::new(AtomicBool::new(false));
        let poisoned = Arc::new(AtomicBool::new(false));
        let worker_gauge = Arc::clone(&gauge);
        let worker_queued = Arc::clone(&queued);
        let worker_poisoned = Arc::clone(&poisoned);
        #[expect(clippy::expect_used, reason = "only an OS out of threads refuses the spawn")]
        let handle = std::thread::Builder::new()
            .name("tc-maintenance".into())
            .spawn(move || {
                // Once the pipeline panics (e.g. a hook on a malformed
                // record), the worker turns *poisoned*: it stays alive and
                // keeps settling the gauge — so no `await_quiescent` ever
                // hangs and no send ever panics a writer — but it stops
                // touching the tree, and `schedule_flush` starts refusing.
                // The panicked pass was dropped uncommitted, so the frozen
                // memtable it left behind could be resumed; the vendored
                // `parking_lot` poisons the tree's `flush_lock`, though, so
                // a direct flush attempt still fails loudly.
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::FlushThenMerge => {
                            // Clear the latch *before* flushing: a write
                            // racing the flush can queue the next one.
                            worker_queued.store(false, Ordering::SeqCst);
                            if !worker_poisoned.load(Ordering::SeqCst)
                                && std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_round(&tree);
                                }))
                                .is_err()
                            {
                                worker_poisoned.store(true, Ordering::SeqCst);
                            }
                            worker_gauge.done();
                        }
                        Job::Shutdown => {
                            worker_gauge.done();
                            break;
                        }
                    }
                }
            })
            .expect("spawn maintenance worker");
        MaintenanceWorker { tx, gauge, queued, poisoned, handle: Some(handle) }
    }

    /// Queue a flush (followed by a merge-policy pass) unless one is
    /// already pending. Returns whether a job was enqueued; false also
    /// means the pipeline cannot make progress (flush already queued,
    /// worker poisoned, or worker gone) — callers polling for quiescence
    /// must not retry on false, or they would spin against a dead pipeline.
    pub fn schedule_flush(&self) -> bool {
        if self.poisoned.load(Ordering::SeqCst) {
            return false;
        }
        if self.queued.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            return false;
        }
        self.gauge.add();
        if self.tx.send(Job::FlushThenMerge).is_err() {
            self.queued.store(false, Ordering::SeqCst);
            self.gauge.done();
            return false;
        }
        true
    }

    /// Block until every queued job has completed.
    pub fn await_quiescent(&self) {
        self.gauge.wait_zero();
    }

    /// Did the flush/merge pipeline panic? A poisoned worker settles jobs
    /// without touching the tree, so pollers must stop re-arming — the
    /// memtable will never drain.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        self.gauge.add();
        if self.tx.send(Job::Shutdown).is_err() {
            self.gauge.done(); // worker already gone
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test hooks guard channel ends, outside the order")]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Mutex as StdMutex;
    use tc_adm::datatype::FieldDef;
    use tc_adm::{parse, ObjectType, TypeKind, TypeTag};
    use tc_vector::encode;

    fn pk_type() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    fn raw(src: &str) -> Vec<u8> {
        encode(&parse(src).unwrap(), Some(&pk_type()))
    }

    /// The record `c` writes to disk for the in-memory record `r`, through a
    /// one-record pass that commits.
    fn flush_record(c: &TupleCompactor, r: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut pass = c.begin_flush();
        pass.on_record(r, &mut out).unwrap();
        pass.commit();
        out
    }

    #[test]
    fn flush_compacts_and_grows_schema() {
        let c = TupleCompactor::default();
        let r = raw(r#"{"id": 0, "name": "Kim", "age": 26}"#);
        let compacted = flush_record(&c, &r);
        assert!(compacted.len() < r.len());
        let s = c.schema_snapshot();
        assert!(s.lookup_field(s.root(), "name").is_some());
        assert!(s.lookup_field(s.root(), "id").is_none(), "declared skipped");
        assert_eq!(s.record_count(), 1);
    }

    #[test]
    fn antimatter_decrements_schema() {
        let c = TupleCompactor::default();
        let r1 = raw(r#"{"id": 0, "name": "Kim", "age": 26}"#);
        let r2 = raw(r#"{"id": 1, "name": "John"}"#);
        flush_record(&c, &r1);
        flush_record(&c, &r2);
        // Delete record 0: its anti-schema removes `age` entirely.
        let anti = raw(r#"{"id": 0, "name": "Kim", "age": 26}"#);
        let mut pass = c.begin_flush();
        pass.on_antimatter(Some(&anti)).unwrap();
        pass.commit();
        let s = c.schema_snapshot();
        assert!(s.lookup_field(s.root(), "age").is_none());
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(s.node(name).counter(), 1);
    }

    #[test]
    fn metadata_roundtrips_through_serialization() {
        let c = TupleCompactor::default();
        let r = raw(r#"{"id": 0, "tags": [["a"], "b"], "deep": {"x": null}}"#);
        flush_record(&c, &r);
        let blob = c.begin_flush().metadata().unwrap();
        let restored = Schema::deserialize(&blob).unwrap();
        let live = c.schema_snapshot();
        assert!(restored.is_superset_of(&live) && live.is_superset_of(&restored));
    }

    /// A pass's edits are visible only once it commits: a pass dropped after
    /// an `Err`, or one that panics, leaves the published schema and its
    /// dictionary `Arc` as they were; a committed pass publishes exactly what
    /// its `metadata()` serialized.
    #[test]
    fn a_pass_publishes_only_on_commit() {
        let c = TupleCompactor::default();
        flush_record(&c, &raw(r#"{"id": 0, "name": "Kim"}"#));
        let (before, dict) = (c.schema_snapshot().serialize(), c.dict_snapshot());
        let unchanged = |why: &str| {
            assert_eq!(c.schema_snapshot().serialize(), before, "{why}");
            assert!(Arc::ptr_eq(&c.dict_snapshot(), &dict), "{why}");
        };
        let fresh = raw(r#"{"id": 1, "age": 26, "city": "Irvine"}"#);
        let mut bad = raw(r#"{"id": 2, "name": "Bob"}"#);
        bad[tc_vector::header::HEADER_LEN + 1] = 0xee; // no such type tag

        let mut pass = c.begin_flush();
        pass.on_record(&fresh, &mut Vec::new()).unwrap();
        assert!(pass.on_record(&bad, &mut Vec::new()).unwrap_err().is_corruption());
        drop(pass);
        unchanged("a pass dropped after an error");

        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pass = c.begin_flush();
            pass.on_record(&fresh, &mut Vec::new()).unwrap();
            panic!("bug in a flush");
        }));
        assert!(panicked.is_err());
        unchanged("a pass that panicked");

        let mut pass = c.begin_flush();
        pass.on_record(&fresh, &mut Vec::new()).unwrap();
        let blob = pass.metadata().unwrap();
        unchanged("a pass not yet committed");
        pass.commit();
        let published = c.schema_snapshot();
        assert_eq!(published.serialize(), blob);
        assert_eq!(published.record_count(), 2);
        assert_eq!(c.dict_snapshot().len(), published.dict().len());
        assert!(c.dict_snapshot().find("city").is_some());
    }

    /// A merge keeps its newest input's schema blob — a superset of the
    /// older ones — and publishes nothing (§3.1).
    #[test]
    fn merge_metadata_keeps_newest() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let c = Arc::new(TupleCompactor::default());
        let tree = LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::clone(&c) as Arc<dyn ComponentHook>,
            LsmOptions { merge_policy: MergePolicy::NoMerge, ..Default::default() },
        );
        tree.insert(encode_u64_key(1), raw(r#"{"id": 1, "name": "Kim"}"#)).unwrap();
        tree.flush().unwrap();
        tree.insert(encode_u64_key(2), raw(r#"{"id": 2, "age": 26}"#)).unwrap();
        tree.flush().unwrap();
        let newest = tree.components()[1].metadata().unwrap().to_vec();
        let published = c.schema_snapshot().serialize();
        assert_eq!(newest, published);

        tree.force_full_merge().unwrap();
        let merged = tree.components();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].metadata(), Some(&newest[..]));
        assert_eq!(c.schema_snapshot().serialize(), published, "a merge publishes nothing");
        let s = Schema::deserialize(&newest).unwrap();
        assert!(s.lookup_field(s.root(), "name").is_some());
        assert!(s.lookup_field(s.root(), "age").is_some());
    }

    #[test]
    fn maintenance_worker_flushes_and_merges_off_thread() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy, NoopHook};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let tree = Arc::new(LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(256)),
            Arc::new(NoopHook),
            LsmOptions {
                memtable_budget: 1024,
                auto_flush: false,
                merge_policy: MergePolicy::Constant { max_components: 2 },
                ..Default::default()
            },
        ));
        let worker = MaintenanceWorker::spawn(Arc::clone(&tree));
        for round in 0..3u64 {
            for i in 0..50u64 {
                tree.insert(encode_u64_key(round * 100 + i), vec![0u8; 32]).unwrap();
            }
            assert!(worker.schedule_flush());
            worker.await_quiescent();
        }
        let stats = tree.stats();
        assert_eq!(stats.flushes, 3);
        assert!(stats.merges > 0, "constant policy fires from the worker");
        assert_eq!(stats.writer_stall_nanos, 0, "no inline maintenance on the writer");
        assert_eq!(tree.count(), 150);
        drop(worker); // shuts the thread down cleanly
    }

    /// The worker's round drives the whole `CompactionDecision` space, not
    /// just `Merge`: a tiered policy reorganizes runs into tiers from the
    /// worker thread, and a FIFO policy's `Retire` decisions drop the
    /// oldest runs from the worker thread — no inline maintenance either
    /// way.
    #[test]
    fn maintenance_worker_drives_tiering_and_retirement() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy, NoopHook};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let spawn_tree = |policy| {
            Arc::new(LsmTree::new(
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::new(BufferCache::new(256)),
                Arc::new(NoopHook),
                LsmOptions {
                    memtable_budget: 1024,
                    auto_flush: false,
                    merge_policy: policy,
                    ..Default::default()
                },
            ))
        };

        let tiered =
            spawn_tree(MergePolicy::Tiered { base_bytes: 4096, size_ratio: 4, min_tier_runs: 3 });
        let worker = MaintenanceWorker::spawn(Arc::clone(&tiered));
        for round in 0..6u64 {
            for i in 0..40u64 {
                tiered.insert(encode_u64_key(round * 100 + i), vec![0u8; 32]).unwrap();
            }
            assert!(worker.schedule_flush());
            worker.await_quiescent();
        }
        let stats = tiered.stats();
        assert!(stats.merges > 0, "tier promotions fire from the worker");
        assert!(
            stats.merges_by_trigger[tc_lsm::MergeTrigger::TierFull as usize] > 0,
            "merges carry the tier-full trigger"
        );
        assert_eq!(stats.writer_stall_nanos, 0);
        assert_eq!(tiered.count(), 240);
        drop(worker);

        let fifo = spawn_tree(MergePolicy::Fifo { max_components: 2, max_total_bytes: u64::MAX });
        let worker = MaintenanceWorker::spawn(Arc::clone(&fifo));
        for round in 0..5u64 {
            for i in 0..40u64 {
                fifo.insert(encode_u64_key(round * 100 + i), vec![0u8; 32]).unwrap();
            }
            assert!(worker.schedule_flush());
            worker.await_quiescent();
        }
        let stats = fifo.stats();
        assert_eq!(stats.merges, 0, "FIFO never merges");
        assert!(stats.components_retired >= 3, "oldest runs retired from the worker");
        assert!(fifo.components().len() <= 2, "count cap held");
        drop(worker);
    }

    #[test]
    fn panicking_pipeline_never_wedges_awaiters() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        // A malformed record is an `Err` (see the next test); a panic here
        // stands for a bug in a hook.
        struct PanicHook;
        impl ComponentHook for PanicHook {
            fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
                Box::new(PanicHook)
            }
        }
        impl FlushPass for PanicHook {
            fn on_record(&mut self, _: &[u8], _: &mut Vec<u8>) -> Result<(), StorageError> {
                panic!("bug in a flush hook");
            }
        }
        let tree = Arc::new(LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::new(PanicHook),
            LsmOptions {
                auto_flush: false,
                merge_policy: MergePolicy::NoMerge,
                ..Default::default()
            },
        ));
        let worker = MaintenanceWorker::spawn(Arc::clone(&tree));
        tree.insert(encode_u64_key(1), b"x".to_vec()).unwrap();
        assert!(worker.schedule_flush());
        // The flush panics on the worker; the gauge must still settle so
        // this returns instead of hanging forever.
        worker.await_quiescent();
        // The poisoned worker refuses further work (so pollers like
        // Dataset::await_quiescent stop instead of spinning forever).
        assert!(!worker.schedule_flush(), "poisoned worker refuses new flushes");
        worker.await_quiescent();
        drop(worker); // clean shutdown still works
    }

    /// A frozen record the compactor cannot read fails the flush as typed
    /// corruption instead of panicking: the flush aborts once, the records
    /// its pass had already observed are never published, the error is
    /// counted, the frozen memtable stays readable — and a worker running
    /// the same flush is not poisoned.
    #[test]
    fn a_malformed_frozen_record_aborts_the_flush_and_rolls_the_schema_back() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let c = Arc::new(TupleCompactor::default());
        let tree = Arc::new(LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::clone(&c) as Arc<dyn ComponentHook>,
            LsmOptions {
                auto_flush: false,
                merge_policy: MergePolicy::NoMerge,
                ..Default::default()
            },
        ));
        tree.insert(encode_u64_key(1), raw(r#"{"id": 1, "name": "Kim"}"#)).unwrap();
        tree.flush().unwrap();
        let flushed = c.schema_snapshot().serialize();

        let good = raw(r#"{"id": 2, "name": "Ann", "age": 26}"#);
        let mut bad = raw(r#"{"id": 3, "name": "Bob"}"#);
        bad[tc_vector::header::HEADER_LEN + 1] = 0xee; // no such type tag
        tree.insert(encode_u64_key(2), good.clone()).unwrap();
        tree.insert(encode_u64_key(3), bad.clone()).unwrap();
        let err = tree.flush().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(tree.stats().maintenance_errors, 1, "aborted once");
        assert_eq!(c.schema_snapshot().serialize(), flushed, "record 2 never published");
        assert_eq!(tree.memtable_len(), 2, "the frozen memtable is kept");
        assert_eq!(tree.get(&encode_u64_key(2)).unwrap(), Some(good));
        assert_eq!(tree.get(&encode_u64_key(3)).unwrap(), Some(bad));
        assert!(tree.get(&encode_u64_key(1)).unwrap().is_some());

        let worker = MaintenanceWorker::spawn(Arc::clone(&tree));
        assert!(worker.schedule_flush());
        worker.await_quiescent();
        assert!(!worker.is_poisoned(), "a bad record is an error, not a panic");
        assert_eq!(tree.stats().maintenance_errors, 2);
        assert_eq!(tree.stats().flushes, 1);
        assert_eq!(c.schema_snapshot().serialize(), flushed);
    }

    /// An anti-schema the compactor cannot decode fails the flush as typed
    /// corruption, whether its anti-matter is frozen or was displaced by an
    /// upsert: the schema keeps the deleted record counted, one maintenance
    /// error is counted, and the frozen entries stay readable.
    #[test]
    fn an_undecodable_anti_schema_aborts_the_flush() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        for displaced in [false, true] {
            let c = Arc::new(TupleCompactor::default());
            let tree = LsmTree::new(
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::new(BufferCache::new(64)),
                Arc::clone(&c) as Arc<dyn ComponentHook>,
                LsmOptions {
                    auto_flush: false,
                    merge_policy: MergePolicy::NoMerge,
                    ..Default::default()
                },
            );
            tree.insert(encode_u64_key(1), raw(r#"{"id": 1, "name": "Kim", "age": 26}"#)).unwrap();
            tree.flush().unwrap();
            let live_nodes = c.schema_snapshot().num_live_nodes();

            let junk = Some(b"junk".to_vec());
            let newer = raw(r#"{"id": 1, "name": "Ann"}"#);
            if displaced {
                tree.replace(encode_u64_key(1), newer.clone(), junk).unwrap();
            } else {
                tree.delete(encode_u64_key(1), junk).unwrap();
            }
            let err = tree.flush().unwrap_err();
            assert!(err.is_corruption(), "{err}");
            assert_eq!(tree.stats().maintenance_errors, 1, "aborted once");
            assert_eq!(c.schema_snapshot().num_live_nodes(), live_nodes, "no decrement");
            assert_eq!(tree.memtable_len(), 1, "the frozen memtable is kept");
            let served = tree.get(&encode_u64_key(1)).unwrap();
            assert_eq!(served, displaced.then_some(newer));
        }
    }

    /// Records whose names recur at several depths, with nested objects,
    /// arrays and every common scalar.
    fn arb_record() -> impl proptest::strategy::Strategy<Value = tc_adm::Value> {
        use proptest::prelude::*;
        use tc_adm::Value;
        let name =
            || prop_oneof![Just("id"), Just("a"), Just("b"), Just("é")].prop_map(String::from);
        let leaf = prop_oneof![
            any::<i64>().prop_map(Value::Int64),
            "[a-z€]{0,4}".prop_map(Value::String),
            any::<f64>().prop_map(Value::Double),
            Just(Value::Null),
        ];
        let value = leaf.prop_recursive(3, 16, 3, move |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
                proptest::collection::btree_map(name(), inner, 0..3)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        });
        proptest::collection::btree_map(name(), value, 0..5)
            .prop_map(|m| Value::Object(m.into_iter().collect()))
    }

    /// Anti-schemas that do not parse — truncated, bit-flipped, a random
    /// body behind a valid header, random bytes — fail the pass with a typed
    /// corruption or are walked, never a panic, whether the record was
    /// stored compacted or not. `TC_FAULT_SEED` reseeds the inputs so CI
    /// can loop it.
    #[test]
    fn anti_schema_walk_never_panics() {
        use proptest::strategy::Strategy;
        use rand::{Rng, SeedableRng};

        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xA471);
        eprintln!("anti_schema_walk_never_panics: TC_FAULT_SEED={seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let records = arb_record();
        let c = TupleCompactor::default();
        let check = |bytes: &[u8]| {
            let walked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.begin_flush().on_antimatter(Some(bytes))
            }));
            match walked {
                Ok(Ok(())) => {}
                Ok(Err(e)) => assert!(e.is_corruption(), "{e} (TC_FAULT_SEED={seed})"),
                Err(_) => panic!("the walk panicked on {bytes:?} (TC_FAULT_SEED={seed})"),
            }
        };
        for _ in 0..300 {
            let raw = encode(&records.new_value(&mut rng), Some(&pk_type()));
            let compacted = flush_record(&c, &raw);
            for stored in [&raw, &compacted] {
                assert!(c.begin_flush().on_antimatter(Some(stored)).is_ok());
                for _ in 0..3 {
                    check(&stored[..rng.gen_range(0..stored.len())]);
                    let mut flipped = stored.clone();
                    let bit = rng.gen_range(0..flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    check(&flipped);
                }
                let mut body = stored.clone();
                body[tc_vector::header::HEADER_LEN..].iter_mut().for_each(|b| *b = rng.gen());
                check(&body);
            }
            let noise: Vec<u8> = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect();
            check(&noise);
        }
    }

    /// An anti-schema that fails after a valid prefix fails the flush as
    /// typed corruption, and the decrements of the prefix die with the
    /// pass: the published schema keeps the deleted record counted.
    #[test]
    fn an_anti_schema_failing_after_a_valid_prefix_publishes_nothing() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let c = Arc::new(TupleCompactor::default());
        let tree = LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::clone(&c) as Arc<dyn ComponentHook>,
            LsmOptions {
                auto_flush: false,
                merge_policy: MergePolicy::NoMerge,
                ..Default::default()
            },
        );
        tree.insert(encode_u64_key(1), raw(r#"{"id": 1, "name": "Kim", "age": [26]}"#)).unwrap();
        tree.flush().unwrap();
        let published = c.schema_snapshot().serialize();

        let mut stored = tree.get(&encode_u64_key(1)).unwrap().unwrap();
        let header = tc_vector::header::Header::read(&stored).unwrap();
        assert!(header.is_compacted());
        // The root's close tag, after every field was walked.
        stored[header.tags_off() + header.tag_count as usize - 2] = 0xee;
        tree.delete(encode_u64_key(1), Some(stored)).unwrap();
        let err = tree.flush().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(tree.stats().maintenance_errors, 1);
        assert_eq!(c.schema_snapshot().serialize(), published, "no decrement published");
    }

    /// Wraps `inner`'s flush passes: after its first record a pass signals
    /// `entered`, then blocks until the test sends `release` — which pins a
    /// flush mid-build deterministically (no wall-clock sleeps).
    struct GateHook {
        inner: Arc<dyn ComponentHook>,
        entered: StdMutex<Sender<()>>,
        release: StdMutex<Receiver<()>>,
    }

    struct GatedPass<'a> {
        gate: &'a GateHook,
        inner: Box<dyn FlushPass + 'a>,
        held: bool,
    }

    impl ComponentHook for GateHook {
        fn begin_flush(&self) -> Box<dyn FlushPass + '_> {
            Box::new(GatedPass { gate: self, inner: self.inner.begin_flush(), held: false })
        }
    }

    impl FlushPass for GatedPass<'_> {
        fn on_record(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), StorageError> {
            self.inner.on_record(payload, out)?;
            if !std::mem::replace(&mut self.held, true) {
                self.gate.entered.lock().unwrap().send(()).unwrap();
                self.gate.release.lock().unwrap().recv().unwrap();
            }
            Ok(())
        }

        fn on_antimatter(&mut self, attachment: Option<&[u8]>) -> Result<(), StorageError> {
            self.inner.on_antimatter(attachment)
        }

        fn metadata(&mut self) -> Option<Vec<u8>> {
            self.inner.metadata()
        }

        fn commit(self: Box<Self>) {
            self.inner.commit();
        }
    }

    /// A tree without inline flushes or merges whose flushes are gated
    /// around `inner`'s passes, with the gate's `entered` and `release` ends.
    fn gated_tree(inner: Arc<dyn ComponentHook>) -> (Arc<LsmTree>, Receiver<()>, Sender<()>) {
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let gate = GateHook {
            inner,
            entered: StdMutex::new(entered_tx),
            release: StdMutex::new(release_rx),
        };
        let tree = LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::new(gate),
            LsmOptions {
                auto_flush: false,
                merge_policy: MergePolicy::NoMerge,
                ..Default::default()
            },
        );
        (Arc::new(tree), entered_rx, release_tx)
    }

    /// The paper's rule (§3.1): a schema becomes visible when its component
    /// is installed, never before. While a worker's flush is held after its
    /// first record, the published schema is still the last component's and
    /// the dictionary the very same `Arc`; released, the flush publishes
    /// exactly the blob its component carries.
    #[test]
    fn a_flush_held_mid_build_publishes_nothing() {
        use tc_lsm::entry::encode_u64_key;

        let c = Arc::new(TupleCompactor::default());
        let (tree, entered, release) = gated_tree(Arc::clone(&c) as Arc<dyn ComponentHook>);
        tree.insert(encode_u64_key(1), raw(r#"{"id": 1, "name": "Kim"}"#)).unwrap();
        release.send(()).unwrap(); // lets the first flush through its gate
        tree.flush().unwrap();
        entered.recv().unwrap();
        let published = tree.components()[0].metadata().unwrap().to_vec();
        assert_eq!(c.schema_snapshot().serialize(), published);
        let dict = c.dict_snapshot();

        tree.insert(encode_u64_key(2), raw(r#"{"id": 2, "age": 26}"#)).unwrap();
        tree.insert(encode_u64_key(3), raw(r#"{"id": 3, "city": "Irvine"}"#)).unwrap();
        let worker = MaintenanceWorker::spawn(Arc::clone(&tree));
        assert!(worker.schedule_flush());
        entered.recv().unwrap(); // the pass has inferred record 2 and is held
        assert_eq!(c.schema_snapshot().serialize(), published, "nothing published mid-build");
        assert!(Arc::ptr_eq(&c.dict_snapshot(), &dict), "the same dictionary");
        assert_eq!(tree.components().len(), 1);

        release.send(()).unwrap();
        worker.await_quiescent();
        let flushed = tree.components()[1].metadata().unwrap().to_vec();
        assert_eq!(c.schema_snapshot().serialize(), flushed, "published with its component");
        assert_eq!(c.schema_snapshot().record_count(), 3);
        assert!(c.dict_snapshot().find("city").is_some(), "and its grown dictionary");
    }

    #[test]
    fn schedule_flush_deduplicates_while_pending() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::NoopHook;

        // The gate pins the worker inside job 1 while the test hammers the
        // schedule latch.
        let (tree, entered_rx, release_tx) = gated_tree(Arc::new(NoopHook));
        let worker = MaintenanceWorker::spawn(Arc::clone(&tree));
        tree.insert(encode_u64_key(1), b"x".to_vec()).unwrap();
        assert!(worker.schedule_flush(), "job 1 accepted");
        entered_rx.recv().unwrap(); // job 1 started (latch cleared) and is now gated
        tree.insert(encode_u64_key(2), b"y".to_vec()).unwrap();
        assert!(worker.schedule_flush(), "latch re-arms once job 1 starts");
        // While job 2 sits queued behind the gated job 1, every repeat must
        // dedupe.
        let repeats: Vec<bool> = (0..8).map(|_| worker.schedule_flush()).collect();
        assert!(repeats.iter().all(|accepted| !accepted), "queued flush dedupes repeats");
        release_tx.send(()).unwrap(); // job 1's record
        entered_rx.recv().unwrap(); // job 2 reached the hook
        release_tx.send(()).unwrap(); // job 2's record
        worker.await_quiescent();
        assert_eq!(tree.stats().flushes, 2, "both distinct jobs flushed");
    }

    #[test]
    fn worker_retries_transient_fault_without_poisoning() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy, NoopHook};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::{BufferCache, FaultKind, FaultPlan, IoOp};

        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let tree = Arc::new(LsmTree::new(
            Arc::clone(&device),
            Arc::new(BufferCache::new(256)),
            Arc::new(NoopHook),
            LsmOptions {
                auto_flush: false,
                merge_policy: MergePolicy::NoMerge,
                ..Default::default()
            },
        ));
        let worker = MaintenanceWorker::spawn(Arc::clone(&tree));
        for i in 0..20u64 {
            tree.insert(encode_u64_key(i), vec![7u8; 16]).unwrap();
        }
        // The first write of the flush fails transiently; the worker's
        // capped backoff retries the round and the resumable flush
        // completes on the second attempt.
        device.set_fault_plan(FaultPlan::new(11).fail_nth(IoOp::Write, 1, FaultKind::Transient));
        assert!(worker.schedule_flush());
        worker.await_quiescent();
        device.clear_fault_plan();
        assert!(!worker.is_poisoned(), "storage faults never poison the worker");
        let stats = tree.stats();
        assert_eq!(stats.flushes, 1, "retried round completed the flush");
        assert!(stats.transient_retries >= 1, "retry was counted");
        assert_eq!(tree.count(), 20);
    }

    #[test]
    fn load_schema_replaces_state() {
        let c = TupleCompactor::default();
        let r = raw(r#"{"id": 0, "transient": 1}"#);
        flush_record(&c, &r);
        c.load_schema(Schema::new());
        let s = c.schema_snapshot();
        assert_eq!(s.record_count(), 0);
        assert!(s.lookup_field(s.root(), "transient").is_none());
    }
}
