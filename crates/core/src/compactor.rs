//! The tuple compactor as an LSM component hook (paper §3.1), plus the
//! background maintenance worker that drives flushes and the merge policy
//! off the write path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use tc_adm::{ObjectType, Value};
use tc_schema::Schema;
use tc_storage::StorageError;
use tc_util::sync::{self, ranks, OrderedMutex};
use tc_vector::infer_and_compact_into;

use tc_lsm::{ComponentHook, LsmTree};

/// The tuple compactor: shared between a dataset's LSM tree (as its flush /
/// merge hook) and its query path (which snapshots the schema dictionary).
///
/// One instance per dataset partition; partitions never coordinate (§3.4.1).
pub struct TupleCompactor {
    /// The partition's in-memory schema. Flush inference, anti-schema
    /// processing, and query-time snapshots synchronize on this lock only.
    schema: OrderedMutex<Schema>,
    /// Cached `Arc` snapshot of the field-name dictionary, keyed by
    /// (load generation, dictionary length). The dictionary is append-only
    /// between `load_schema` calls, so the pair identifies its content; the
    /// point-lookup hot path then pays an `Arc` clone instead of a deep
    /// dictionary copy. Lock order: `schema` before `dict_cache` (the only
    /// nesting of the two).
    dict_cache: OrderedMutex<(u64, usize, std::sync::Arc<tc_schema::FieldNameDictionary>)>,
    /// Bumped by `load_schema` (recovery), which may shrink/replace the
    /// dictionary without changing its length.
    generation: std::sync::atomic::AtomicU64,
    /// Schema snapshot taken at `begin_flush`, restored by `abort_flush`
    /// when the flush fails on a storage fault or a frozen record the
    /// compaction pass cannot read — so a retried flush
    /// re-infers the same frozen entries against the same starting schema
    /// instead of double-counting them.
    flush_backup: OrderedMutex<Option<Schema>>,
    /// The dataset's declared type (to skip declared fields during
    /// anti-schema processing).
    declared: ObjectType,
}

impl TupleCompactor {
    pub fn new(declared: ObjectType) -> Self {
        TupleCompactor {
            schema: OrderedMutex::new(ranks::COMPACTOR_SCHEMA, Schema::new()),
            dict_cache: OrderedMutex::new(
                ranks::DICT_CACHE,
                (0, 0, std::sync::Arc::new(Default::default())),
            ),
            generation: std::sync::atomic::AtomicU64::new(0),
            flush_backup: OrderedMutex::new(ranks::FLUSH_BACKUP, None),
            declared,
        }
    }

    /// Snapshot the current in-memory schema (query startup / schema
    /// broadcast — §3.4.1).
    pub fn schema_snapshot(&self) -> Schema {
        self.schema.lock().clone()
    }

    /// Snapshot only the field-name dictionary — the part decoders need.
    /// Callers on the read path (which may hold the tree's state read
    /// lock) usually pay just an `Arc` clone: the deep copy happens only
    /// when the dictionary actually grew since the last snapshot.
    pub fn dict_snapshot(&self) -> std::sync::Arc<tc_schema::FieldNameDictionary> {
        let schema = self.schema.lock();
        let generation = self.generation.load(Ordering::Acquire);
        let len = schema.dict().len();
        let mut cache = self.dict_cache.lock();
        if cache.0 != generation || cache.1 != len {
            *cache = (generation, len, std::sync::Arc::new(schema.dict().clone()));
        }
        std::sync::Arc::clone(&cache.2)
    }

    /// Replace the in-memory schema (recovery reloads the newest valid
    /// component's schema — §3.1.2).
    pub fn load_schema(&self, schema: Schema) {
        let mut guard = self.schema.lock();
        self.generation.fetch_add(1, Ordering::AcqRel);
        *guard = schema;
    }

    fn is_declared(&self, name: &str) -> bool {
        self.declared.field_index(name).is_some()
    }
}

impl ComponentHook for TupleCompactor {
    /// Snapshot the schema before any frozen entry is processed: if the
    /// flush later fails on a storage fault, `abort_flush` rolls back to
    /// this point so the retry does not double-evolve the schema.
    fn begin_flush(&self) {
        let snapshot = self.schema.lock().clone();
        *self.flush_backup.lock() = Some(snapshot);
    }

    /// A flush attempt failed after `begin_flush`: restore the snapshot and
    /// bump the generation so cached dictionary snapshots are invalidated
    /// (the dictionary may have grown during the aborted attempt and a
    /// restore can shrink it without changing its length).
    fn abort_flush(&self) {
        let snapshot = self.flush_backup.lock().take();
        if let Some(schema) = snapshot {
            let mut guard = self.schema.lock();
            self.generation.fetch_add(1, Ordering::AcqRel);
            *guard = schema;
        }
    }

    /// Flush-time transformation: one pass infers the schema and strips
    /// field names (§3.3.2), appending the compacted record to the flush's
    /// buffer. A frozen record the pass cannot read fails the flush as
    /// corruption; `abort_flush` then undoes its partial observations.
    fn on_flush_record(&self, payload: &[u8], out: &mut Vec<u8>) -> Result<(), StorageError> {
        let mut schema = self.schema.lock();
        infer_and_compact_into(payload, &mut schema, out)
            .map_err(|e| StorageError::corruption("flushed record", e.to_string()))
    }

    /// Anti-matter processing: the attachment is the deleted record's
    /// anti-schema (encoded as an uncompacted vector record); decrement the
    /// schema counters and prune (§3.2.2). The attachment is discarded by
    /// the engine afterwards — anti-matter reaches disk as a bare key.
    fn on_flush_antimatter(&self, attachment: Option<&[u8]>) {
        let Some(bytes) = attachment else { return };
        let Ok(value) = tc_vector::decode(bytes, Some(&self.declared), None) else {
            return;
        };
        let Value::Object(fields) = value else { return };
        let mut schema = self.schema.lock();
        schema.remove_record(&fields, &|name| self.is_declared(name));
    }

    /// Persist the (post-flush) schema snapshot into the component's
    /// metadata page (§3.1.1).
    fn flush_metadata(&self) -> Option<Vec<u8>> {
        Some(self.schema.lock().serialize())
    }

    // `merge_metadata` is the hook default: a merge keeps the newest input
    // schema, a superset of the older ones, without touching the in-memory
    // schema, so flushes and merges never synchronize (§3.1.1).
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
                // The tree itself also refuses to freeze over the frozen
                // memtable a panicked flush left behind, so a direct flush
                // attempt fails loudly rather than silently dropping data.
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
    use std::sync::Mutex as StdMutex;
    use tc_adm::datatype::FieldDef;
    use tc_adm::{parse, TypeKind, TypeTag};
    use tc_vector::encode;

    fn pk_type() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    fn raw(compactor: &TupleCompactor, src: &str) -> Vec<u8> {
        encode(&parse(src).unwrap(), Some(&compactor.declared))
    }

    /// The record `c` writes to disk for the in-memory record `r`.
    fn flush_record(c: &TupleCompactor, r: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        c.on_flush_record(r, &mut out).unwrap();
        out
    }

    #[test]
    fn flush_compacts_and_grows_schema() {
        let c = TupleCompactor::new(pk_type());
        let r = raw(&c, r#"{"id": 0, "name": "Kim", "age": 26}"#);
        let compacted = flush_record(&c, &r);
        assert!(compacted.len() < r.len());
        let s = c.schema_snapshot();
        assert!(s.lookup_field(s.root(), "name").is_some());
        assert!(s.lookup_field(s.root(), "id").is_none(), "declared skipped");
        assert_eq!(s.record_count(), 1);
    }

    #[test]
    fn antimatter_decrements_schema() {
        let c = TupleCompactor::new(pk_type());
        let r1 = raw(&c, r#"{"id": 0, "name": "Kim", "age": 26}"#);
        let r2 = raw(&c, r#"{"id": 1, "name": "John"}"#);
        flush_record(&c, &r1);
        flush_record(&c, &r2);
        // Delete record 0: its anti-schema removes `age` entirely.
        let anti = raw(&c, r#"{"id": 0, "name": "Kim", "age": 26}"#);
        c.on_flush_antimatter(Some(&anti));
        let s = c.schema_snapshot();
        assert!(s.lookup_field(s.root(), "age").is_none());
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        assert_eq!(s.node(name).counter(), 1);
    }

    #[test]
    fn metadata_roundtrips_through_serialization() {
        let c = TupleCompactor::new(pk_type());
        let r = raw(&c, r#"{"id": 0, "tags": [["a"], "b"], "deep": {"x": null}}"#);
        flush_record(&c, &r);
        let blob = c.flush_metadata().unwrap();
        let restored = Schema::deserialize(&blob).unwrap();
        let live = c.schema_snapshot();
        assert!(restored.is_superset_of(&live) && live.is_superset_of(&restored));
    }

    #[test]
    fn merge_metadata_keeps_newest() {
        let c = TupleCompactor::new(pk_type());
        let old = b"old".to_vec();
        let new = b"new".to_vec();
        assert_eq!(c.merge_metadata(&[Some(&old), Some(&new)]), Some(b"new".to_vec()));
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
            fn on_flush_record(&self, _: &[u8], _: &mut Vec<u8>) -> Result<(), StorageError> {
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
    /// corruption instead of panicking: the flush aborts once, the schema
    /// rolls back past the records it had already observed, the error is
    /// counted, the frozen memtable stays readable — and a worker running
    /// the same flush is not poisoned.
    #[test]
    fn a_malformed_frozen_record_aborts_the_flush_and_rolls_the_schema_back() {
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        let c = Arc::new(TupleCompactor::new(pk_type()));
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
        tree.insert(encode_u64_key(1), raw(&c, r#"{"id": 1, "name": "Kim"}"#)).unwrap();
        tree.flush().unwrap();
        let flushed = c.schema_snapshot().serialize();

        let good = raw(&c, r#"{"id": 2, "name": "Ann", "age": 26}"#);
        let mut bad = raw(&c, r#"{"id": 3, "name": "Bob"}"#);
        bad[tc_vector::header::HEADER_LEN + 1] = 0xee; // no such type tag
        tree.insert(encode_u64_key(2), good.clone()).unwrap();
        tree.insert(encode_u64_key(3), bad.clone()).unwrap();
        let err = tree.flush().unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(tree.stats().maintenance_errors, 1, "aborted once");
        assert_eq!(c.schema_snapshot().serialize(), flushed, "record 2's observations undone");
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

    #[test]
    fn schedule_flush_deduplicates_while_pending() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use tc_lsm::entry::encode_u64_key;
        use tc_lsm::{LsmOptions, MergePolicy};
        use tc_storage::device::{Device, DeviceProfile};
        use tc_storage::BufferCache;

        // A gate hook: signals when the worker enters a flush, then blocks
        // until the test releases it — pins the worker inside job 1
        // deterministically (no wall-clock sleeps) while the test hammers
        // the schedule latch.
        struct GateHook {
            entered: StdMutex<Sender<()>>,
            release: StdMutex<Receiver<()>>,
        }
        impl ComponentHook for GateHook {
            fn on_flush_record(
                &self,
                payload: &[u8],
                out: &mut Vec<u8>,
            ) -> Result<(), StorageError> {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                out.extend_from_slice(payload);
                Ok(())
            }
        }
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let tree = Arc::new(LsmTree::new(
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(64)),
            Arc::new(GateHook {
                entered: StdMutex::new(entered_tx),
                release: StdMutex::new(release_rx),
            }),
            LsmOptions {
                auto_flush: false,
                merge_policy: MergePolicy::NoMerge,
                ..Default::default()
            },
        ));
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
    fn abort_flush_restores_schema_snapshot() {
        let c = TupleCompactor::new(pk_type());
        let r1 = raw(&c, r#"{"id": 0, "name": "Kim"}"#);
        c.begin_flush();
        flush_record(&c, &r1);
        let r2 = raw(&c, r#"{"id": 1, "age": 26}"#);
        flush_record(&c, &r2);
        {
            let s = c.schema_snapshot();
            assert_eq!(s.record_count(), 2);
        }
        // The flush fails on a storage fault: the schema rolls back to the
        // pre-flush snapshot so the retried flush re-infers from scratch.
        c.abort_flush();
        let s = c.schema_snapshot();
        assert_eq!(s.record_count(), 0, "aborted flush leaves the schema untouched");
        assert!(s.lookup_field(s.root(), "name").is_none());
        // The retry then replays the same records without double-counting.
        c.begin_flush();
        flush_record(&c, &r1);
        flush_record(&c, &r2);
        let s = c.schema_snapshot();
        assert_eq!(s.record_count(), 2);
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
        let c = TupleCompactor::new(pk_type());
        let r = raw(&c, r#"{"id": 0, "transient": 1}"#);
        flush_record(&c, &r);
        c.load_schema(Schema::new());
        let s = c.schema_snapshot();
        assert_eq!(s.record_count(), 0);
        assert!(s.lookup_field(s.root(), "transient").is_none());
    }
}
