//! A single-partition dataset: the user-facing ingestion and lookup API.
//!
//! One `Dataset` corresponds to one data partition of an AsterixDB dataset
//! (paper §2.2): a primary LSM B+-tree keyed on the primary key, optionally
//! a keys-only primary-key index (upsert fast path, §3.2.2) and a secondary
//! index (Fig 24), all sharing the partition's device and the node's buffer
//! cache. Cross-partition distribution lives in `tc-cluster`.
//!
//! # Threading model
//!
//! Every method takes `&self`; a `Dataset` can be shared across threads
//! behind an `Arc`. The supported concurrency is **one logical writer per
//! partition**, enforced at compile time: the write entry points
//! (`insert`/`upsert`/`delete`/`bulk_load`) live on [`WriterToken`], a
//! non-`Clone`, `!Sync` capability handed out by [`Dataset::writer`] to at
//! most one holder at a time (feeds route each partition's records to one
//! thread, which claims the partition's token for the batch). Alongside
//! the writer run any number of concurrent
//! readers (`get`/`scan_*`/queries) and, with
//! [`DatasetConfig::background_maintenance`], a maintenance worker running
//! flushes and merges off the write path. Readers always observe
//! consistent snapshots: point lookups and scans capture the
//! schema-dictionary decoder inside the primary tree's own snapshot
//! section ([`LsmTree::lookup_with`], [`LsmTree::scan_with`]), so a record
//! is never materialized against a dictionary that predates (or post-dates
//! a prune of) its codes.
//!
//! Consistency scope: the snapshot guarantee covers the **primary index**.
//! Auxiliary indexes (primary-key index, secondary index) are separate LSM
//! trees updated around — not atomically with — the primary write, so a
//! reader racing the writer may see a secondary posting before its record
//! lands (the follow-up primary lookup then skips it) or briefly miss a
//! just-reinserted posting during an upsert. This matches AsterixDB's
//! non-transactional secondary-index reads; `secondary_range` filters
//! through primary lookups, so it returns live records only — it never
//! fabricates rows, it can only exhibit read skew under concurrent writes.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tc_adm::path::PathStep;
use tc_adm::{AdmError, Value};
use tc_columnar::{AmaxCodec, ChunkReader, ColumnarCounters};
use tc_lsm::component::DiskComponent;
use tc_lsm::entry::{decode_i64_key, encode_i64_key, Key};
use tc_lsm::iter::MergedScan;
use tc_lsm::secondary::{PrimaryKeyIndex, SecondaryIndex};
use tc_lsm::{
    ColumnarCodec, ComponentHook, EntryKind, LookupHit, LsmOptions, LsmTree, NoopHook, ZoneFilter,
};
use tc_schema::Schema;
use tc_storage::device::Device;
use tc_storage::{BufferCache, StorageError};

use crate::compactor::{MaintenanceWorker, TupleCompactor};
use crate::config::{DatasetConfig, StorageFormat};
use crate::decoder::RecordDecoder;

/// Writers stall once the active memtable exceeds this multiple of its
/// budget while background maintenance is catching up (bounded memory
/// under saturation; see `maybe_schedule_maintenance`).
pub const BACKPRESSURE_OVERHANG_FACTOR: usize = 4;

/// Map a storage fault onto the data-path error type, preserving the
/// transient/permanent split so feeds can decide whether to retry.
fn storage_err(e: StorageError) -> AdmError {
    AdmError::storage(e.to_string(), e.is_transient())
}

/// A secondary index key: the indexed field's integer, encoded.
fn secondary_key(v: i64) -> [u8; 8] {
    #[expect(clippy::expect_used, reason = "an encoded i64 key is 8 bytes")]
    encode_i64_key(v).try_into().expect("i64 keys are 8 bytes")
}

/// A dataset partition.
pub struct Dataset {
    config: DatasetConfig,
    primary: Arc<LsmTree>,
    pk_index: Option<PrimaryKeyIndex>,
    secondary: Option<SecondaryIndex>,
    /// Present iff the format runs schema inference (`Inferred`/`Columnar`).
    compactor: Option<Arc<TupleCompactor>>,
    /// Present iff the format is `Columnar`: the codec's stats handle.
    columnar_counters: Option<Arc<ColumnarCounters>>,
    /// Present iff `config.background_maintenance`.
    maintenance: Option<MaintenanceWorker>,
    /// Dictionary-less decoder built once at creation; `decoder()` stamps
    /// the current dictionary snapshot onto it with `Arc` clones only.
    decoder_template: RecordDecoder,
    ingested: AtomicU64,
    /// Set while a [`WriterToken`] is live; `writer()` claims it with a CAS.
    writer_claimed: AtomicBool,
}

/// The exclusive write capability for one dataset partition.
///
/// PR 2 documented "one logical writer per partition" as prose; this token
/// makes it a compile-time property. It is deliberately neither `Clone` nor
/// `Sync` (the `Cell` marker), and [`Dataset::writer`] hands out at most one
/// at a time, so two threads can never hold write access to the same
/// partition simultaneously. Reads, flushes, merges, and recovery stay on
/// `Dataset` (`&self`): they are internally synchronized and safe to run
/// concurrently with the writer.
///
/// Dropping the token releases the claim.
pub struct WriterToken<'a> {
    ds: &'a Dataset,
    /// `Cell` makes the token `!Sync` (it can move between threads, but
    /// two threads can never share one by reference).
    _not_sync: PhantomData<Cell<()>>,
}

impl<'a> WriterToken<'a> {
    /// The partition this token writes to (for reads mid-batch).
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// Insert a new record (no existence check — data feeds with fresh keys).
    pub fn insert(&mut self, record: &Value) -> Result<(), AdmError> {
        self.ds.insert_unchecked(record)
    }

    /// Upsert: delete-then-insert (§3.2.2). The existence check goes
    /// through the primary-key index when configured, so brand-new keys
    /// skip the primary-index point lookup ([28, 29]).
    pub fn upsert(&mut self, record: &Value) -> Result<(), AdmError> {
        self.ds.upsert_unchecked(record)
    }

    /// Delete by primary key. Returns whether a record existed.
    pub fn delete(&mut self, pk: i64) -> Result<bool, AdmError> {
        self.ds.delete_unchecked(pk)
    }

    /// Bulk-load records into a single component (§4.3). The dataset must
    /// be empty — a load into one that is not fails with
    /// [`AdmError::Execution`] before any tree changes; the WAL is
    /// bypassed, like AsterixDB's load statement.
    pub fn bulk_load<I>(&mut self, records: I) -> Result<u64, AdmError>
    where
        I: IntoIterator<Item = Value>,
    {
        self.ds.bulk_load_unchecked(records)
    }
}

impl Drop for WriterToken<'_> {
    fn drop(&mut self) {
        self.ds.writer_claimed.store(false, Ordering::Release);
    }
}

impl Dataset {
    pub fn new(config: DatasetConfig, device: Arc<Device>, cache: Arc<BufferCache>) -> Self {
        // The codec fixes the primary tree's layout: with it, every
        // component the tree builds is columnar.
        let columnar_codec = (config.format == StorageFormat::Columnar)
            .then(|| Arc::new(AmaxCodec::new(config.datatype.clone())));
        let columnar_counters = columnar_codec.as_ref().map(|c| Arc::clone(c.counters()));
        let opts = LsmOptions {
            page_size: config.page_size,
            compression: config.compression,
            memtable_budget: config.memtable_budget,
            merge_policy: config.merge_policy,
            bloom_bits_per_key: config.bloom_bits_per_key,
            wal_enabled: config.wal_enabled,
            integrity: config.integrity,
            // With a background worker, the writer never flushes inline;
            // the scheduler below reacts to the budget instead.
            auto_flush: !config.background_maintenance,
            columnar: columnar_codec.map(|c| c as Arc<dyn ColumnarCodec>),
        };
        let compactor = config.format.is_inferred().then(|| Arc::new(TupleCompactor::default()));
        let hook: Arc<dyn ComponentHook> = match &compactor {
            Some(c) => Arc::clone(c) as Arc<dyn ComponentHook>,
            None => Arc::new(NoopHook),
        };
        let primary =
            Arc::new(LsmTree::new(Arc::clone(&device), Arc::clone(&cache), hook, opts.clone()));
        // Index trees use small memtables and no compression (keys only);
        // they always flush inline (their flushes are tiny and only the
        // writing thread touches them).
        let index_opts = LsmOptions {
            compression: tc_compress::CompressionScheme::None,
            memtable_budget: (config.memtable_budget / 8).max(64 * 1024),
            auto_flush: true,
            columnar: None, // keys-only trees have nothing to shred
            ..opts
        };
        let pk_index = config.primary_key_index.then(|| {
            PrimaryKeyIndex::new(Arc::clone(&device), Arc::clone(&cache), index_opts.clone())
        });
        let secondary = config
            .secondary_index_on
            .is_some()
            .then(|| SecondaryIndex::new(Arc::clone(&device), Arc::clone(&cache), index_opts, 8));
        let maintenance =
            config.background_maintenance.then(|| MaintenanceWorker::spawn(Arc::clone(&primary)));
        let decoder_template = RecordDecoder::new(config.format, config.datatype.clone(), None);
        Dataset {
            config,
            primary,
            pk_index,
            secondary,
            compactor,
            columnar_counters,
            maintenance,
            decoder_template,
            ingested: AtomicU64::new(0),
            writer_claimed: AtomicBool::new(false),
        }
    }

    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Records ingested (inserts + upserts).
    pub fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    // -----------------------------------------------------------------
    // Encoding
    // -----------------------------------------------------------------

    /// The record's primary key — the one extraction every write path and
    /// the cluster's partition routing use.
    pub fn primary_key_of(&self, record: &Value) -> Result<i64, AdmError> {
        let field = &self.config.primary_key;
        record.get_field(field).and_then(Value::as_i64).ok_or_else(|| {
            AdmError::type_check(format!("record lacks integer primary key '{field}'"))
        })
    }

    fn encode_record(&self, record: &Value) -> Result<Vec<u8>, AdmError> {
        // Open types admit anything beyond the declared fields; closed
        // types reject undeclared fields — both are enforced here (§2.1).
        self.config.datatype.check(record)?;
        // Every reader of a stored record recurses per nesting level, on
        // whatever thread runs it: both encoders refuse a record nested
        // past `MAX_NESTING`.
        let declared = Some(&self.config.datatype);
        match self.config.format {
            StorageFormat::Open | StorageFormat::Closed => {
                tc_adm::adm_format::encode_record(record, declared)
            }
            StorageFormat::Inferred
            | StorageFormat::VectorUncompacted
            | StorageFormat::Columnar => tc_vector::try_encode(record, declared),
        }
    }

    /// The secondary index and `record`'s key in it, if the dataset has one
    /// and the record carries an integer in the indexed field.
    fn secondary_key_of(&self, record: &Value) -> Option<(&SecondaryIndex, [u8; 8])> {
        let field = self.config.secondary_index_on.as_deref()?;
        let index = self.secondary.as_ref()?;
        Some((index, secondary_key(record.get_field(field)?.as_i64()?)))
    }

    /// [`Self::secondary_key_of`] for a stored record: one evaluation of the
    /// indexed field's path over its bytes, no materialized record.
    fn stored_secondary_key(
        &self,
        bytes: &[u8],
    ) -> Result<Option<(&SecondaryIndex, [u8; 8])>, AdmError> {
        let (Some(field), Some(index)) =
            (self.config.secondary_index_on.as_deref(), self.secondary.as_ref())
        else {
            return Ok(None);
        };
        let mut column = [tc_vector::Column::new(false)];
        self.decoder().batch(&[vec![PathStep::field(field)]]).append(bytes, &mut column)?;
        Ok(column[0].pop().as_ref().and_then(Value::as_i64).map(|v| (index, secondary_key(v))))
    }

    /// The auxiliary index trees (primary-key index, then secondary), as
    /// configured.
    fn index_trees(&self) -> impl Iterator<Item = &LsmTree> {
        let pk = self.pk_index.as_ref().map(PrimaryKeyIndex::tree);
        pk.into_iter().chain(self.secondary.as_ref().map(SecondaryIndex::tree))
    }

    // -----------------------------------------------------------------
    // Ingestion
    // -----------------------------------------------------------------

    /// Claim this partition's [`WriterToken`].
    ///
    /// # Panics
    /// If a token is already live — a second writer is a concurrency bug,
    /// per the loud-failure policy, not a condition to retry.
    #[expect(clippy::panic, reason = "documented: a second live writer is a caller bug")]
    pub fn writer(&self) -> WriterToken<'_> {
        self.try_writer().unwrap_or_else(|| {
            panic!(
                "dataset '{}' already has a live WriterToken (one logical writer per partition)",
                self.name()
            )
        })
    }

    /// Claim this partition's [`WriterToken`], or `None` if one is live.
    pub fn try_writer(&self) -> Option<WriterToken<'_>> {
        self.writer_claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
            .then_some(WriterToken { ds: self, _not_sync: PhantomData })
    }

    fn insert_unchecked(&self, record: &Value) -> Result<(), AdmError> {
        let key = encode_i64_key(self.primary_key_of(record)?);
        let bytes = self.encode_record(record)?;
        self.insert_encoded(record, key, bytes)
    }

    /// The index and tree half of an insert, once `record` is checked and
    /// encoded as `bytes`.
    fn insert_encoded(&self, record: &Value, key: Key, bytes: Vec<u8>) -> Result<(), AdmError> {
        if let Some((index, sec)) = self.secondary_key_of(record) {
            index.insert(&sec, &key).map_err(storage_err)?;
        }
        if let Some(pki) = self.pk_index.as_ref() {
            pki.insert(&key).map_err(storage_err)?;
        }
        let over_budget = self.primary.insert(key, bytes).map_err(storage_err)?;
        self.ingested.fetch_add(1, Ordering::Relaxed);
        self.maybe_schedule_maintenance(over_budget);
        Ok(())
    }

    fn upsert_unchecked(&self, record: &Value) -> Result<(), AdmError> {
        let key = encode_i64_key(self.primary_key_of(record)?);
        // Checked and encoded before any index is touched: a refused record
        // leaves the old version and its postings as they were.
        let bytes = self.encode_record(record)?;
        let may_exist = match &self.pk_index {
            Some(pki) => pki.contains(&key).map_err(storage_err)?,
            None => true,
        };
        let old = if may_exist { self.primary.get(&key).map_err(storage_err)? } else { None };
        let Some(old_bytes) = old else {
            return self.insert_encoded(record, key, bytes);
        };
        // Replacing a live record: fix the secondary index, hand the old
        // version's bytes over as its anti-schema, and run the swap through
        // the tree's atomic replace — ONE WAL record, so a crash can never
        // replay the delete half without the insert half (which would lose
        // the durably-acked old version). The primary-key index is
        // untouched: the key stays present throughout.
        let attachment = self.retire_old_version(&key, old_bytes)?;
        if let Some((index, sec)) = self.secondary_key_of(record) {
            index.insert(&sec, &key).map_err(storage_err)?;
        }
        let over_budget = self.primary.replace(key, bytes, attachment).map_err(storage_err)?;
        self.ingested.fetch_add(1, Ordering::Relaxed);
        self.maybe_schedule_maintenance(over_budget);
        Ok(())
    }

    /// Point-look-up the old record, then enqueue the anti-matter entry
    /// (for inferred datasets it carries the old version's stored bytes as
    /// its anti-schema) and fix the indexes.
    /// Whether the anti-schema actually reaches the hook is decided by the
    /// tree at apply time (`delete_versioned`): only versions a flush
    /// observed carry decrements (§3.2.2) — and with background flushes the
    /// "was it observed?" answer can change between our lookup and the
    /// apply, so it must be resolved under the tree's lock, not here.
    fn delete_unchecked(&self, pk: i64) -> Result<bool, AdmError> {
        let key = encode_i64_key(pk);
        let Some(old_bytes) = self.primary.get(&key).map_err(storage_err)? else {
            return Ok(false);
        };
        let attachment = self.retire_old_version(&key, old_bytes)?;
        if let Some(pki) = self.pk_index.as_ref() {
            pki.delete(&key).map_err(storage_err)?;
        }
        let over_budget = self.primary.delete_versioned(key, attachment).map_err(storage_err)?;
        self.maybe_schedule_maintenance(over_budget);
        Ok(true)
    }

    /// The old version's side of an upsert or delete, before the primary
    /// tree sees the new entry: drop the old record's secondary posting and
    /// return its anti-schema, which the compactor walks to decrement
    /// counters at flush (§3.2.2).
    ///
    /// The anti-schema is `old_bytes` itself, moved as the lookup returned
    /// them: compacted if the old version came from a component (its name
    /// ids stay valid, the dictionary only grows), uncompacted if from the
    /// frozen memtable, and for `Columnar` the row the component rebuilt.
    /// Nothing is decoded unless a secondary index needs the old secondary
    /// key, which one path evaluation reads. For a memtable-only version
    /// the tree discards the attachment under its lock: a caller-side
    /// "skip if unflushed" check is exactly the race `delete_versioned`
    /// exists to close.
    fn retire_old_version(
        &self,
        key: &Key,
        old_bytes: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, AdmError> {
        if let Some((index, sec)) = self.stored_secondary_key(&old_bytes)? {
            index.delete(&sec, key).map_err(storage_err)?;
        }
        Ok(self.compactor.as_ref().map(|_| old_bytes))
    }

    fn bulk_load_unchecked<I>(&self, records: I) -> Result<u64, AdmError>
    where
        I: IntoIterator<Item = Value>,
    {
        // A load needs an empty partition, refused up front for the reason a
        // repeated key is below.
        let mut trees = std::iter::once(&*self.primary).chain(self.index_trees());
        if trees.any(|t| t.memtable_len() > 0 || !t.components().is_empty()) {
            return Err(AdmError::execution("bulk load into a non-empty dataset"));
        }
        let mut keyed: Vec<(Key, Vec<u8>, Option<[u8; 8]>)> = Vec::new();
        for record in records {
            let key = encode_i64_key(self.primary_key_of(&record)?);
            let bytes = self.encode_record(&record)?;
            keyed.push((key, bytes, self.secondary_key_of(&record).map(|(_, sec)| sec)));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        // A load holds one version per key. Refused here, before any tree or
        // the schema has seen a record: the index trees below are loaded and
        // flushed ahead of the primary, which would only find out last.
        if let Some(pair) = keyed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            #[expect(clippy::expect_used, reason = "every key above is an encoded i64")]
            let pk = decode_i64_key(&pair[0].0).expect("keys are encoded i64s");
            return Err(AdmError::type_check(format!(
                "bulk load holds primary key {pk} more than once"
            )));
        }
        let n = keyed.len() as u64;
        if let Some(sec_idx) = self.secondary.as_ref() {
            for (key, _, sec) in &keyed {
                if let Some(sec) = sec {
                    sec_idx.insert(sec, key).map_err(storage_err)?;
                }
            }
            sec_idx.flush().map_err(storage_err)?;
        }
        if let Some(pki) = self.pk_index.as_ref() {
            for (key, _, _) in &keyed {
                pki.insert(key).map_err(storage_err)?;
            }
            pki.flush().map_err(storage_err)?;
        }
        self.primary.bulk_load(keyed.into_iter().map(|(k, b, _)| (k, b))).map_err(storage_err)?;
        self.ingested.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }

    // -----------------------------------------------------------------
    // Lookup / scan
    // -----------------------------------------------------------------

    /// Point lookup by primary key. A quarantined or corrupt component
    /// fails the lookup with a typed [`AdmError::Storage`] — skipping it
    /// could resurrect a deleted key, so point reads never degrade.
    pub fn get(&self, pk: i64) -> Result<Option<Value>, AdmError> {
        let key = encode_i64_key(pk);
        let (decoder, mut hits) =
            self.primary.lookup_with(&[key], || self.decoder()).map_err(storage_err)?;
        hits.pop().flatten().and_then(|hit| self.record(&decoder, hit).transpose()).transpose()
    }

    /// The record a point lookup hit holds, `None` for anti-matter. A row
    /// of a columnar component is assembled straight from the pages it lies
    /// on ([`ChunkReader::record_at`]), never encoded to bytes; a fault
    /// there quarantines the component, as any read of it does.
    fn record(&self, decoder: &RecordDecoder, hit: LookupHit) -> Result<Option<Value>, AdmError> {
        let cache = self.primary.cache();
        match hit {
            LookupHit::Bytes(EntryKind::AntiMatter, _) => Ok(None),
            LookupHit::Bytes(EntryKind::Record, bytes) => decoder.materialize(&bytes).map(Some),
            LookupHit::Row { component, group, row } => {
                let Some((reader, store)) = ChunkReader::of_component(&component) else {
                    // A chunk of another codec: its payload bytes.
                    let bytes = component.read_row(cache, group, row).map_err(storage_err)?;
                    return decoder.materialize(&bytes).map(Some);
                };
                let record = reader.record_at(store, cache, group as usize, row as usize);
                record
                    .inspect_err(|e| component.quarantine_if_corrupt(e))
                    .map(Some)
                    .map_err(storage_err)
            }
        }
    }

    /// A decoder snapshot for this partition's current state. For inferred
    /// datasets this carries the schema dictionary — the unit the schema
    /// broadcast ships between nodes at query start (§3.4.1).
    pub fn decoder(&self) -> RecordDecoder {
        let dict = self.compactor.as_ref().map(|c| c.dict_snapshot());
        self.decoder_template.with_dict(dict)
    }

    /// The partition's current in-memory schema (inferred datasets).
    pub fn schema_snapshot(&self) -> Option<Schema> {
        self.compactor.as_ref().map(|c| c.schema_snapshot())
    }

    /// A scan snapshot *paired with* the decoder that matches it, captured
    /// atomically with respect to flush installs — the right way to read
    /// records while background maintenance runs (queries use this). The
    /// decoder is captured inside [`LsmTree::scan_with`]'s read-lock
    /// section; the scan's block-priming IO runs after release.
    pub fn snapshot_scan(&self) -> (RecordDecoder, MergedScan) {
        self.snapshot_scan_where(None)
    }

    /// [`Dataset::snapshot_scan`] that leaves unread the row blocks and row
    /// groups a zone `filter` proves useless, by the skip rule of
    /// [`tc_lsm::iter`] ([`MergedScan::units_skipped`] counts them).
    pub fn snapshot_scan_where(
        &self,
        filter: Option<ZoneFilter<'_>>,
    ) -> (RecordDecoder, MergedScan) {
        self.primary.scan_with(None, None, filter, || self.decoder())
    }

    /// Materialized scan (tests/examples; queries stream raw + decoder).
    /// Fails with a typed error if any component degraded mid-scan — the
    /// permissive "return what survived" policy lives in the query layer
    /// (`ExecOptions::corruption_policy`), not here.
    pub fn scan_values(&self) -> Result<Vec<Value>, AdmError> {
        let (decoder, mut scan) = self.snapshot_scan();
        let mut out = Vec::new();
        while let Some((_, _, bytes)) = scan.next_lent() {
            out.push(decoder.materialize(&bytes)?);
        }
        if let Some(e) = scan.health().first_error() {
            return Err(storage_err(e.clone()));
        }
        Ok(out)
    }

    /// Secondary-index range query: primary keys with secondary value in
    /// `[lo, hi)`, then point lookups into the primary index (Fig 24's
    /// access path), in posting order. An unreadable index component fails
    /// the call with [`AdmError::Storage`], like [`Dataset::scan_values`],
    /// instead of dropping its postings. The primary lookups and their
    /// decoder come from one snapshot ([`LsmTree::lookup_with`]), so records
    /// landing in components flushed *after* the postings were read cannot
    /// be materialized against a stale dictionary.
    pub fn secondary_range(&self, lo: i64, hi: i64) -> Result<Vec<Value>, AdmError> {
        let sec = self
            .secondary
            .as_ref()
            .ok_or_else(|| AdmError::type_check("no secondary index configured".to_string()))?;
        let pks = sec.range(&encode_i64_key(lo), &encode_i64_key(hi)).map_err(storage_err)?;
        let (decoder, hits) =
            self.primary.lookup_with(&pks, || self.decoder()).map_err(storage_err)?;
        hits.into_iter()
            .flatten()
            .filter_map(|hit| self.record(&decoder, hit).transpose())
            .collect()
    }

    // -----------------------------------------------------------------
    // Lifecycle
    // -----------------------------------------------------------------

    /// If a background worker owns maintenance, wake it when the primary
    /// memtable runs over budget (deduplicated while a flush is pending).
    /// `over_budget` comes from the write that just happened (computed
    /// under the tree's lock), so the hot path never re-locks to poll.
    /// A poisoned pipeline fails the write path loudly: with `auto_flush`
    /// off nothing else would ever drain the memtable, and silent
    /// unbounded growth is strictly worse than a panic.
    fn maybe_schedule_maintenance(&self, over_budget: bool) {
        if let Some(worker) = &self.maintenance {
            self.assert_pipeline_alive(worker);
            if over_budget {
                worker.schedule_flush();
                // Backpressure: a decoupled flush pipeline must not let the
                // memtable diverge when ingest outpaces the worker ("Breaking
                // Down Memory Walls" stalls writers for exactly this reason).
                // Past the overhang cap, stall until the pending flush
                // *freezes* (the freeze empties the active memtable, so
                // waiting for the full build/merge would over-stall) —
                // honestly accounted as backpressure. The cap leaves room
                // for a few memtable generations so transient bursts
                // overlap with in-flight builds instead of stalling.
                let cap = BACKPRESSURE_OVERHANG_FACTOR * self.config.memtable_budget;
                if self.primary.memtable_bytes() >= cap {
                    let start = std::time::Instant::now();
                    while self.primary.memtable_bytes() >= cap && !worker.is_poisoned() {
                        tc_util::sync::blocking("backpressure stall");
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    self.primary.note_backpressure_stall(start.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    /// The loud-failure policy, shared by every path that depends on the
    /// background pipeline: a poisoned worker can never drain the memtable,
    /// so pretending to accept work would silently lose durability.
    fn assert_pipeline_alive(&self, worker: &MaintenanceWorker) {
        assert!(
            !worker.is_poisoned(),
            "background maintenance pipeline panicked; dataset '{}' cannot flush",
            self.config.name
        );
    }

    /// Flush the in-memory component (and index memtables) synchronously on
    /// this thread. With background maintenance enabled this still runs
    /// inline — flushes serialize inside the tree, so racing the worker is
    /// safe (one of the two finds an empty memtable and no-ops).
    pub fn flush(&self) -> Result<(), AdmError> {
        self.primary.flush().map_err(storage_err)?;
        self.index_trees().try_for_each(LsmTree::flush).map_err(storage_err)
    }

    /// Queue a *primary-tree* flush (and a merge-policy pass) on the
    /// background worker and return immediately. Auxiliary index trees are
    /// not covered — they flush inline on their own budgets; call
    /// [`Dataset::flush`] for the everything-durable semantics. Without
    /// background maintenance this falls back to a full synchronous flush.
    /// Panics if the maintenance pipeline has panicked (same loud-failure
    /// policy as the write path — a silently dropped flush request would
    /// leave callers believing their data durable).
    pub fn flush_async(&self) -> Result<(), AdmError> {
        match &self.maintenance {
            Some(worker) => {
                self.assert_pipeline_alive(worker);
                worker.schedule_flush();
                Ok(())
            }
            None => self.flush(),
        }
    }

    /// Block until background maintenance has drained: no queued or
    /// in-flight flush/merge jobs, and the memtable back under budget (a
    /// writer racing the last flush may have re-filled it). No-op without a
    /// background worker.
    pub fn await_quiescent(&self) {
        if let Some(worker) = &self.maintenance {
            loop {
                worker.await_quiescent();
                // Re-arm while the memtable is still over budget (a writer
                // racing the last flush may have re-filled it). A refused
                // schedule is NOT a reason to stop — it usually means a
                // job is already queued (e.g. the racing writer armed it
                // between our wait and this check), and the next wait
                // settles it.
                if !self.primary.needs_flush() {
                    break;
                }
                // Over budget with a dead pipeline: the postcondition can
                // never hold — fail loudly (same policy as the write path)
                // instead of returning with un-drainable data in memory.
                self.assert_pipeline_alive(worker);
                worker.schedule_flush();
            }
        }
    }

    /// Merge every on-disk component into one.
    pub fn force_full_merge(&self) -> Result<(), AdmError> {
        self.primary.force_full_merge().map_err(storage_err)
    }

    /// Primary-index on-disk footprint in bytes (Fig 16's metric).
    pub fn disk_bytes(&self) -> u64 {
        self.primary.disk_bytes()
    }

    /// Footprint including auxiliary indexes.
    pub fn total_disk_bytes(&self) -> u64 {
        self.primary.disk_bytes() + self.index_trees().map(LsmTree::disk_bytes).sum::<u64>()
    }

    pub fn primary(&self) -> &LsmTree {
        &self.primary
    }

    /// The primary tree's lifecycle stats. The columnar counters live in
    /// [`Dataset::columnar_counters`].
    pub fn lsm_stats(&self) -> tc_lsm::tree::LsmStats {
        self.primary.stats()
    }

    /// The shared columnar stats handle (the codec counts pages written,
    /// readers bump skip/fault counters through it). Present iff the format
    /// is `Columnar`, whose every component is columnar.
    pub fn columnar_counters(&self) -> Option<&Arc<ColumnarCounters>> {
        self.columnar_counters.as_ref()
    }

    /// A consistent columnar snapshot, or `None` unless the partition's
    /// *entire* contents live in exactly one valid columnar component (no
    /// memtable entries, no in-flight flush, no antimatter). That is the
    /// post-`force_full_merge` resting state of a `Columnar` dataset — the
    /// only shape where a scan may stream one component's column pages
    /// directly without LSM masking; anything else must go through
    /// [`Dataset::snapshot_scan`].
    ///
    /// Every batched query on every format asks this first, so the answer
    /// costs a look at the tree's state: no memtable is copied, no decoder
    /// built (column pages and residual records need none).
    pub fn snapshot_columnar(&self) -> Option<Arc<DiskComponent>> {
        let c = self.primary.sole_component()?;
        (c.is_columnar() && !c.is_quarantined() && c.num_antimatter() == 0).then_some(c)
    }

    /// Total time the writing thread spent blocked on maintenance across
    /// *all* of the partition's trees: inline flush/merge work (primary in
    /// sync mode; auxiliary index trees always) plus background-mode
    /// backpressure waits (the honest Fig 17 writer-stall number;
    /// `lsm_stats()` covers the primary only).
    pub fn writer_stall_nanos(&self) -> u64 {
        let p = self.primary.stats();
        let indexes: u64 = self.index_trees().map(|t| t.stats().writer_stall_nanos).sum();
        p.writer_stall_nanos + p.backpressure_stall_nanos + indexes
    }

    /// Crash: lose in-memory state (memtables and, for inferred datasets,
    /// the in-memory schema) across *every* tree in the partition — the
    /// primary and both auxiliary index trees die together in a real
    /// failure. Background maintenance is quiesced first — a worker
    /// mid-flush would otherwise install its component *after* the
    /// "crash", which no real failure can do.
    pub fn simulate_crash(&self) {
        self.await_quiescent();
        self.primary.simulate_crash();
        self.index_trees().for_each(LsmTree::simulate_crash);
        if let Some(c) = &self.compactor {
            c.load_schema(Schema::new());
        }
    }

    /// Recovery (§3.1.2): drop invalid components, reload the newest valid
    /// component's schema, replay the WAL into the in-memory component.
    /// WAL records with bad checksums truncate the replay at the first
    /// invalid record (a torn or rotten tail loses only unacked writes).
    /// The auxiliary index trees recover from their own WALs; the returned
    /// (removed, replayed) counts sum all trees.
    pub fn recover(&self) -> Result<(usize, usize), AdmError> {
        let (mut removed, mut replayed) = self.primary.recover().map_err(storage_err)?;
        for tree in self.index_trees() {
            let (r, p) = tree.recover().map_err(storage_err)?;
            removed += r;
            replayed += p;
        }
        if let Some(c) = &self.compactor {
            let schema = self
                .primary
                .newest_metadata()
                .and_then(|blob| Schema::deserialize(&blob))
                .unwrap_or_default();
            c.load_schema(schema);
        }
        Ok((removed, replayed))
    }
}

// The shared surface: a `Dataset` is shared behind an `Arc`, so these keep
// their `&self` receivers. Write exclusivity is the `WriterToken`'s, never
// `&mut`'s; a method that took `&mut self` would fail its coercion here.
const _: () = {
    type R<T> = Result<T, AdmError>;
    let _: fn(&Dataset) -> WriterToken<'_> = Dataset::writer;
    let _: fn(&Dataset) -> Option<WriterToken<'_>> = Dataset::try_writer;
    let _: fn(&Dataset, i64) -> R<Option<Value>> = Dataset::get;
    let _: fn(&Dataset) -> R<Vec<Value>> = Dataset::scan_values;
    let _: fn(&Dataset, i64, i64) -> R<Vec<Value>> = Dataset::secondary_range;
    let _: fn(&Dataset) -> (RecordDecoder, MergedScan) = Dataset::snapshot_scan;
    let _: fn(&Dataset) -> RecordDecoder = Dataset::decoder;
    let _: fn(&Dataset) -> Option<Schema> = Dataset::schema_snapshot;
    let _: fn(&Dataset) -> R<()> = Dataset::flush;
    let _: fn(&Dataset) -> R<()> = Dataset::flush_async;
    let _: fn(&Dataset) = Dataset::await_quiescent;
    let _: fn(&Dataset) -> R<()> = Dataset::force_full_merge;
    let _: fn(&Dataset) -> R<(usize, usize)> = Dataset::recover;
    let _: fn(&Dataset) = Dataset::simulate_crash;
};

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::datatype::{FieldDef, ObjectType};
    use tc_adm::{parse, TypeKind, TypeTag, MAX_NESTING};
    use tc_storage::device::DeviceProfile;

    fn make(config: DatasetConfig) -> Dataset {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let cache = Arc::new(BufferCache::new(4096));
        Dataset::new(config, device, cache)
    }

    fn small(format: StorageFormat) -> Dataset {
        make(
            DatasetConfig::new("Employee", "id")
                .with_format(format)
                .with_memtable_budget(8 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        )
    }

    fn employee(i: i64) -> Value {
        parse(&format!(
            r#"{{"id": {i}, "name": "emp{i}", "age": {}, "tags": ["a", "b"]}}"#,
            20 + (i % 50)
        ))
        .unwrap()
    }

    /// `{"id": id, "a": [[…id…]]}`, `depth` containers deep.
    fn nested_record(id: i64, depth: usize) -> Value {
        let inner = depth - 1;
        parse(&format!(r#"{{"id": {id}, "a": {}{id}{}}}"#, "[".repeat(inner), "]".repeat(inner)))
            .unwrap()
    }

    /// A record one level deeper than `MAX_NESTING` is a type-check error
    /// that leaves the dataset as it was — inserted under a new key or
    /// upserted over a live one, whose secondary posting stays put; one
    /// exactly that deep is stored, flushed, and read back by a point get
    /// and a scan on a thread with the default stack, in every format that
    /// admits an undeclared field.
    #[test]
    fn nesting_is_capped_at_insert() {
        for format in [
            StorageFormat::Open,
            StorageFormat::Inferred,
            StorageFormat::VectorUncompacted,
            StorageFormat::Columnar,
        ] {
            let ds = make(
                DatasetConfig::new("Employee", "id")
                    .with_format(format)
                    .with_secondary_index("age")
                    .with_memtable_budget(8 * 1024)
                    .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            );
            ds.writer().insert(&employee(1)).unwrap();
            let mut too_deep = nested_record(2, MAX_NESTING);
            if let Value::Object(fields) = &mut too_deep {
                fields[1].1 = Value::Array(vec![fields[1].1.clone()]);
            }
            assert_eq!(too_deep.max_depth(), MAX_NESTING + 1);
            let err = ds.writer().insert(&too_deep).unwrap_err();
            assert!(matches!(err, AdmError::TypeCheck(_)), "{format:?}: {err:?}");
            assert_eq!(ds.ingested(), 1, "{format:?}");
            assert_eq!(ds.scan_values().unwrap(), vec![employee(1)], "{format:?}");

            // The same depth over key 1, with a new secondary key (99).
            if let Value::Object(fields) = &mut too_deep {
                fields[0].1 = Value::Int64(1);
                fields.push(("age".into(), Value::Int64(99)));
            }
            assert_eq!(ds.primary_key_of(&too_deep).unwrap(), 1);
            let err = ds.writer().upsert(&too_deep).unwrap_err();
            assert!(matches!(err, AdmError::TypeCheck(_)), "{format:?}: {err:?}");
            assert_eq!(ds.ingested(), 1, "{format:?}");
            assert_eq!(ds.get(1).unwrap(), Some(employee(1)), "{format:?}");
            assert_eq!(ds.secondary_range(21, 22).unwrap(), vec![employee(1)], "{format:?}");
            assert_eq!(ds.secondary_range(99, 100).unwrap(), vec![], "{format:?}");

            let deepest = nested_record(3, MAX_NESTING);
            ds.writer().insert(&deepest).unwrap();
            ds.flush().unwrap();
            let (got, scanned) = std::thread::scope(|s| {
                s.spawn(|| (ds.get(3).unwrap(), ds.scan_values().unwrap())).join().unwrap()
            });
            assert_eq!(got.as_ref(), Some(&deepest), "{format:?}");
            assert_eq!(scanned, vec![employee(1), deepest], "{format:?}");
        }
    }

    #[test]
    fn ingest_and_get_all_formats() {
        for format in [
            StorageFormat::Open,
            StorageFormat::Closed,
            StorageFormat::Inferred,
            StorageFormat::VectorUncompacted,
            StorageFormat::Columnar,
        ] {
            let ds = if format == StorageFormat::Closed {
                let dt = ObjectType::closed(vec![
                    FieldDef {
                        name: "id".into(),
                        kind: TypeKind::Scalar(TypeTag::Int64),
                        optional: false,
                    },
                    FieldDef {
                        name: "name".into(),
                        kind: TypeKind::Scalar(TypeTag::String),
                        optional: false,
                    },
                    FieldDef {
                        name: "age".into(),
                        kind: TypeKind::Scalar(TypeTag::Int64),
                        optional: false,
                    },
                    FieldDef {
                        name: "tags".into(),
                        kind: TypeKind::Array(Box::new(TypeKind::Scalar(TypeTag::String))),
                        optional: true,
                    },
                ]);
                make(
                    DatasetConfig::new("Employee", "id")
                        .with_format(StorageFormat::Closed)
                        .with_datatype(dt)
                        .with_memtable_budget(8 * 1024)
                        .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                )
            } else {
                small(format)
            };
            for i in 0..100 {
                ds.writer().insert(&employee(i)).unwrap();
            }
            ds.flush().unwrap();
            for i in (0..100).step_by(13) {
                let got = ds.get(i).unwrap().unwrap();
                assert_eq!(got, employee(i), "format {format:?}, id {i}");
            }
            assert_eq!(ds.get(1000).unwrap(), None);
            assert_eq!(ds.scan_values().unwrap().len(), 100, "format {format:?}");
        }
    }

    #[test]
    fn columnar_components_roundtrip_updates_and_deletes() {
        let ds = small(StorageFormat::Columnar);
        for i in 0..50 {
            ds.writer().insert(&employee(i)).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.primary().components().iter().all(|c| c.is_columnar()));
        assert!(ds.writer().delete(7).unwrap());
        ds.writer().upsert(&parse(r#"{"id": 9, "name": "new", "extra": [1]}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        ds.force_full_merge().unwrap();
        assert_eq!(ds.get(7).unwrap(), None);
        assert_eq!(
            ds.get(9).unwrap().unwrap(),
            parse(r#"{"id": 9, "name": "new", "extra": [1]}"#).unwrap()
        );
        assert_eq!(ds.scan_values().unwrap().len(), 49);
        let counters = ds.columnar_counters().unwrap();
        assert!(counters.pages_written() > 0, "flushes shredded into column pages");
        assert!(counters.columns_faulted() > 0, "reads faulted columns in");
        // After a full merge the partition is in the single-component
        // columnar resting state.
        assert!(ds.snapshot_columnar().is_some());
    }

    #[test]
    fn columnar_point_operations_reconstruct_no_rows() {
        // A merged component with a flushed one beside it, and a memtable.
        let ds = small(StorageFormat::Columnar);
        for i in 0..100 {
            ds.writer().insert(&employee(i)).unwrap();
        }
        ds.flush().unwrap();
        ds.force_full_merge().unwrap();
        for i in 100..150 {
            ds.writer().insert(&employee(i)).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.primary().components().len() >= 2);
        let counters = ds.columnar_counters().unwrap();
        let reconstructed = counters.rows_reconstructed();
        assert_eq!(reconstructed, 0, "the schema-stable merge copied its inputs column to column");
        assert_eq!(counters.rows_column_merged(), 100, "every output row of the merge");
        let lookups = counters.point_lookups();

        // get, upsert and delete each look the old version up on disk.
        assert_eq!(ds.get(3).unwrap(), Some(employee(3)));
        assert_eq!(ds.get(120).unwrap(), Some(employee(120)));
        assert_eq!(ds.get(1000).unwrap(), None);
        let mut w = ds.writer();
        w.upsert(&parse(r#"{"id": 5, "name": "renamed"}"#).unwrap()).unwrap();
        w.upsert(&employee(130)).unwrap();
        w.upsert(&employee(2000)).unwrap();
        assert!(w.delete(60).unwrap());
        assert!(w.delete(140).unwrap());
        assert!(!w.delete(3000).unwrap());
        drop(w);
        assert_eq!(ds.get(5).unwrap(), Some(parse(r#"{"id": 5, "name": "renamed"}"#).unwrap()));
        assert_eq!(ds.get(60).unwrap(), None);

        assert_eq!(counters.rows_reconstructed(), reconstructed, "a point read pivots no group");
        assert!(counters.point_lookups() >= lookups + 5);
    }

    /// A get assembles its record from the pages its row lies on, exactly
    /// the pages the byte-form point read faults in — never the row group's
    /// whole blocks, as a scan's view reads them — records with collections
    /// of repeated columns (a span of each per row) included.
    #[test]
    fn columnar_get_reads_the_pages_of_its_row_only() {
        let with_arrays = |i: i64| {
            let visits: Vec<String> =
                (0..i % 5).map(|v| format!(r#"{{"at": {v}.5, "room": {}}}"#, i + v)).collect();
            parse(&format!(
                r#"{{"id": {i}, "name": "emp{i}", "scores": [{i}, {}, null], "visits": [{}]}}"#,
                i * 3,
                visits.join(", ")
            ))
            .unwrap()
        };
        for (record, repeated) in [(&employee as &dyn Fn(i64) -> Value, 1), (&with_arrays, 3)] {
            let ds = make(
                DatasetConfig::new("Employee", "id")
                    .with_format(StorageFormat::Columnar)
                    .with_page_size(256)
                    .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            );
            let mut w = ds.writer();
            for i in 0..300 {
                w.insert(&record(i)).unwrap();
            }
            drop(w);
            ds.flush().unwrap();
            ds.force_full_merge().unwrap();
            let component = ds.snapshot_columnar().expect("one merged columnar component");
            let (chunk, _) = component.columnar_view().unwrap();
            let reader = ChunkReader::of(chunk).unwrap();
            assert_eq!(reader.columns().iter().filter(|c| c.repeated.is_some()).count(), repeated);
            let group_pages = reader.group_pages(0, 256);
            let cache = ds.primary().cache();
            let cold_misses = |read: &dyn Fn()| {
                cache.clear();
                let before = cache.misses();
                read();
                cache.misses() - before
            };
            let decoder = ds.decoder();
            for i in [0, 1, 150, 299] {
                let key = encode_i64_key(i);
                let by_value = cold_misses(&|| assert_eq!(ds.get(i).unwrap(), Some(record(i))));
                let by_bytes = cold_misses(&|| {
                    let (kind, bytes) = component.get(cache, &key).unwrap().unwrap();
                    assert_eq!(kind, EntryKind::Record);
                    assert_eq!(decoder.materialize(&bytes).unwrap(), record(i));
                });
                assert_eq!(by_value, by_bytes, "get({i}) reads the pages the byte read does");
                assert!(by_value < group_pages, "get({i}): {by_value} of {group_pages} pages");
            }
        }
    }

    #[test]
    fn columnar_merge_pivots_only_the_rows_it_cannot_copy() {
        // One flush per phase: the older component has no `grade` column,
        // the newer one — and, a merge keeping the newest schema, the merged
        // one — does. The newer component's rows are copied; the older one's
        // survivors take the counted pivot.
        let ds = make(
            DatasetConfig::new("Employee", "id")
                .with_format(StorageFormat::Columnar)
                .with_memtable_budget(1 << 20)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        );
        let graded = |i: i64| {
            parse(&format!(r#"{{"id": {i}, "name": "emp{i}", "age": 30, "grade": {}}}"#, i % 5))
                .unwrap()
        };
        let mut oracle = std::collections::BTreeMap::new();
        let mut w = ds.writer();
        for i in 0..40 {
            w.insert(&employee(i)).unwrap();
            oracle.insert(i, employee(i));
        }
        drop(w);
        ds.flush().unwrap();
        let mut w = ds.writer();
        for i in 30..60 {
            w.upsert(&graded(i)).unwrap();
            oracle.insert(i, graded(i));
        }
        assert!(w.delete(5).unwrap());
        oracle.remove(&5);
        drop(w);
        ds.flush().unwrap();
        assert_eq!(ds.primary().components().len(), 2);

        let counters = ds.columnar_counters().unwrap();
        let (pivoted, copied) = (counters.rows_reconstructed(), counters.rows_column_merged());
        ds.force_full_merge().unwrap();
        assert_eq!(
            counters.rows_reconstructed() - pivoted,
            29,
            "ids 0..30 but 5: the older component's surviving rows, each pivoted once"
        );
        assert_eq!(counters.rows_column_merged() - copied, 30);
        assert_eq!(ds.primary().components().len(), 1);
        assert_eq!(ds.scan_values().unwrap(), oracle.values().cloned().collect::<Vec<_>>());
        for i in [0, 5, 29, 30, 59] {
            assert_eq!(ds.get(i).unwrap(), oracle.get(&i).cloned(), "id {i}");
        }

        // With the schemas level again, the next merge copies everything.
        ds.writer().insert(&graded(60)).unwrap();
        ds.flush().unwrap();
        let (pivoted, copied) = (counters.rows_reconstructed(), counters.rows_column_merged());
        ds.force_full_merge().unwrap();
        assert_eq!(counters.rows_reconstructed(), pivoted);
        assert_eq!(counters.rows_column_merged() - copied, 60);
    }

    #[test]
    fn closed_rejects_undeclared_fields() {
        let dt = ObjectType::closed(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }]);
        let ds = make(
            DatasetConfig::new("Strict", "id").with_format(StorageFormat::Closed).with_datatype(dt),
        );
        assert!(ds.writer().insert(&parse(r#"{"id": 1}"#).unwrap()).is_ok());
        assert!(ds.writer().insert(&parse(r#"{"id": 2, "extra": true}"#).unwrap()).is_err());
    }

    #[test]
    fn inferred_schema_evolves_across_flushes() {
        let ds = small(StorageFormat::Inferred);
        // Fig 9 scenario.
        ds.writer().insert(&parse(r#"{"id": 0, "name": "Kim", "age": 26}"#).unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 1, "name": "John", "age": 22}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        ds.writer().insert(&parse(r#"{"id": 2, "name": "Ann"}"#).unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 3, "name": "Bob", "age": "old"}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        let s = ds.schema_snapshot().unwrap();
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert!(s.node(age).matches_tag(TypeTag::Int64));
        assert!(s.node(age).matches_tag(TypeTag::String));
        // Records from both generations decode with the current dictionary.
        assert_eq!(
            ds.get(0).unwrap().unwrap(),
            parse(r#"{"id": 0, "name": "Kim", "age": 26}"#).unwrap()
        );
        assert_eq!(
            ds.get(3).unwrap().unwrap(),
            parse(r#"{"id": 3, "name": "Bob", "age": "old"}"#).unwrap()
        );
        // Merge keeps the newest schema and everything stays readable.
        ds.force_full_merge().unwrap();
        assert_eq!(ds.scan_values().unwrap().len(), 4);
    }

    #[test]
    fn inferred_is_smallest_on_disk() {
        let datasets: Vec<(StorageFormat, u64)> =
            [StorageFormat::Open, StorageFormat::Inferred, StorageFormat::VectorUncompacted]
                .into_iter()
                .map(|f| {
                    let ds = make(
                        DatasetConfig::new("Employee", "id")
                            .with_format(f)
                            .with_page_size(4096)
                            .with_memtable_budget(64 * 1024)
                            .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                    );
                    for i in 0..2000 {
                        ds.writer().insert(&employee(i)).unwrap();
                    }
                    ds.flush().unwrap();
                    ds.force_full_merge().unwrap();
                    (f, ds.disk_bytes())
                })
                .collect();
        let open = datasets[0].1;
        let inferred = datasets[1].1;
        let slvb = datasets[2].1;
        assert!(inferred < open, "inferred {inferred} < open {open}");
        assert!(inferred < slvb, "inferred {inferred} < sl-vb {slvb}");
        assert!(slvb < open, "sl-vb {slvb} < open {open} (Fig 21 ordering)");
    }

    #[test]
    fn delete_updates_schema_and_hides_record() {
        let ds = small(StorageFormat::Inferred);
        ds.writer()
            .insert(&parse(r#"{"id": 0, "name": "Kim", "weird": [1, 2]}"#).unwrap())
            .unwrap();
        ds.writer().insert(&parse(r#"{"id": 1, "name": "John"}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        assert!(ds.writer().delete(0).unwrap());
        assert!(!ds.writer().delete(99).unwrap(), "absent key");
        ds.flush().unwrap(); // anti-schema processed here
        assert_eq!(ds.get(0).unwrap(), None);
        let s = ds.schema_snapshot().unwrap();
        assert!(s.lookup_field(s.root(), "weird").is_none(), "weird pruned");
        assert!(s.lookup_field(s.root(), "name").is_some());
        ds.force_full_merge().unwrap();
        assert_eq!(ds.scan_values().unwrap().len(), 1);
    }

    #[test]
    fn upsert_existing_and_new_keys() {
        let ds = make(
            DatasetConfig::new("Employee", "id")
                .with_format(StorageFormat::Inferred)
                .with_primary_key_index(true)
                .with_memtable_budget(8 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        );
        ds.writer().insert(&parse(r#"{"id": 0, "old_field": 1}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        // Upsert changes the structure entirely.
        ds.writer().upsert(&parse(r#"{"id": 0, "new_field": "x"}"#).unwrap()).unwrap();
        // Upsert of a brand-new key takes the pk-index fast path.
        ds.writer().upsert(&parse(r#"{"id": 5, "new_field": "y"}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        let s = ds.schema_snapshot().unwrap();
        assert!(s.lookup_field(s.root(), "old_field").is_none(), "anti-schema pruned it");
        assert!(s.lookup_field(s.root(), "new_field").is_some());
        assert_eq!(ds.get(0).unwrap().unwrap(), parse(r#"{"id": 0, "new_field": "x"}"#).unwrap());
        assert_eq!(ds.scan_values().unwrap().len(), 2);
    }

    #[test]
    fn crash_recovery_restores_data_and_schema() {
        let ds = small(StorageFormat::Inferred);
        ds.writer().insert(&parse(r#"{"id": 0, "name": "Kim", "age": 26}"#).unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 1, "name": "John", "age": 22}"#).unwrap()).unwrap();
        ds.flush().unwrap(); // C0 valid, schema persisted
        ds.writer().insert(&parse(r#"{"id": 2, "name": "Ann"}"#).unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 3, "name": "Bob", "age": "old"}"#).unwrap()).unwrap();
        ds.simulate_crash();
        let (removed, replayed) = ds.recover().unwrap();
        assert_eq!(removed, 0);
        assert_eq!(replayed, 2);
        // The recovered in-memory schema is C0's (age: int only) until the
        // restored memtable flushes — then it evolves normally (§3.1.2).
        let s = ds.schema_snapshot().unwrap();
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert_eq!(s.node(age).type_tag(), Some(TypeTag::Int64));
        ds.flush().unwrap();
        let s = ds.schema_snapshot().unwrap();
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert!(s.node(age).matches_tag(TypeTag::String), "union after re-flush");
        assert_eq!(ds.scan_values().unwrap().len(), 4);
    }

    #[test]
    fn secondary_index_range_lookup() {
        let ds = make(
            DatasetConfig::new("Tweets", "id")
                .with_format(StorageFormat::Inferred)
                .with_secondary_index("timestamp_ms")
                .with_memtable_budget(16 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        );
        for i in 0..200 {
            ds.writer()
                .insert(
                    &parse(&format!(
                        r#"{{"id": {i}, "timestamp_ms": {}, "text": "t{i}"}}"#,
                        1000 + i
                    ))
                    .unwrap(),
                )
                .unwrap();
        }
        ds.flush().unwrap();
        let hits = ds.secondary_range(1050, 1060).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(
            |v| (1050..1060).contains(&v.get_field("timestamp_ms").unwrap().as_i64().unwrap())
        ));
        // Delete keeps the index consistent.
        ds.writer().delete(55).unwrap();
        let hits = ds.secondary_range(1050, 1060).unwrap();
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn secondary_range_over_a_quarantined_index_component_fails_typed() {
        let ds = make(
            DatasetConfig::new("Tweets", "id")
                .with_format(StorageFormat::Inferred)
                .with_secondary_index("timestamp_ms")
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        );
        let mut w = ds.writer();
        for i in 0..200 {
            let text = format!(r#"{{"id": {i}, "timestamp_ms": {}, "text": "t{i}"}}"#, 1000 + i);
            w.insert(&parse(&text).unwrap()).unwrap();
        }
        drop(w);
        ds.flush().unwrap();
        let index = ds.secondary.as_ref().unwrap().tree().components();
        assert_eq!(index.len(), 1);
        index[0].quarantine();
        let err = ds.secondary_range(1000, 1200).unwrap_err();
        assert!(matches!(err, AdmError::Storage { transient: false, .. }), "{err}");
        assert_eq!(ds.scan_values().unwrap().len(), 200, "the primary is intact");
    }

    /// An upsert or a delete drops the old version's posting, read from its
    /// stored bytes by one path evaluation, wherever the old version lives:
    /// on disk (compacted vector bytes, a rebuilt amax row, ADM bytes) or in
    /// the memtable. The postings are read straight from the index, since
    /// `secondary_range`'s primary lookups would hide a stale one whose key
    /// was deleted.
    #[test]
    fn upserts_and_deletes_drop_the_old_posting_from_stored_bytes() {
        for format in [StorageFormat::Open, StorageFormat::Inferred, StorageFormat::Columnar] {
            let ds = make(
                DatasetConfig::new("Tweets", "id")
                    .with_format(format)
                    .with_secondary_index("ts")
                    .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            );
            let tweet = |id: i64, ts: i64| {
                parse(&format!(r#"{{"id": {id}, "ts": {ts}, "text": "t{id}"}}"#)).unwrap()
            };
            let mut w = ds.writer();
            for i in 0..10 {
                w.insert(&tweet(i, 100 + i)).unwrap();
            }
            drop(w);
            ds.flush().unwrap();
            let mut w = ds.writer();
            w.upsert(&tweet(1, 500)).unwrap(); // the old version is on disk
            w.upsert(&tweet(1, 600)).unwrap(); // ... and now in the memtable
            assert!(w.delete(2).unwrap());
            w.insert(&tweet(20, 700)).unwrap();
            assert!(w.delete(20).unwrap());
            drop(w);
            let postings = |lo: i64, hi: i64| -> Vec<i64> {
                let index = ds.secondary.as_ref().unwrap();
                let pks = index.range(&encode_i64_key(lo), &encode_i64_key(hi)).unwrap();
                pks.iter().map(|k| decode_i64_key(k).unwrap()).collect()
            };
            for flushed in [false, true] {
                assert_eq!(postings(100, 110), [0, 3, 4, 5, 6, 7, 8, 9], "{format:?} {flushed}");
                assert_eq!(postings(110, 1000), [1], "{format:?} {flushed}");
                assert_eq!(ds.secondary_range(600, 601).unwrap(), [tweet(1, 600)]);
                ds.flush().unwrap();
            }
        }
    }

    /// Upserts and deletes of flushed keys log the old versions' compacted
    /// bytes as anti-schemas. A crash before the flush that covers them
    /// loses nothing: after `recover` and a flush, the schema is byte for
    /// byte the one a twin run without the crash publishes, and the one that
    /// attachments re-encoded uncompacted give (what the log held before
    /// attachments were the stored bytes).
    #[test]
    fn compacted_anti_schemas_survive_a_crash() {
        fn run(format: StorageFormat, crash: bool, reencoded: bool) -> (Vec<u8>, Vec<Value>) {
            let ds = small(format);
            let record = |id: i64, extra: &str| {
                parse(&format!(r#"{{"id": {id}, "name": "n{id}", "tags": ["a"]{extra}}}"#)).unwrap()
            };
            let mut w = ds.writer();
            for i in 0..7 {
                let extra = match i % 3 {
                    0 => r#", "age": 30"#,
                    1 => r#", "age": "old", "nested": {"x": [1, 2.5]}"#,
                    _ => r#", "only_here": null"#,
                };
                w.insert(&record(i, extra)).unwrap();
            }
            drop(w);
            ds.flush().unwrap();
            let retire = |pk: i64, new: Option<Value>| {
                if !reencoded {
                    let mut w = ds.writer();
                    match new {
                        Some(v) => w.upsert(&v).unwrap(),
                        None => assert!(w.delete(pk).unwrap()),
                    }
                    return;
                }
                let declared = &ds.config().datatype;
                let old = ds.get(pk).unwrap().unwrap();
                let anti = Some(tc_vector::encode(&old, Some(declared)));
                let key = encode_i64_key(pk);
                match new {
                    Some(v) => {
                        ds.primary().replace(key, tc_vector::encode(&v, Some(declared)), anti)
                    }
                    None => ds.primary().delete_versioned(key, anti),
                }
                .unwrap();
            };
            retire(1, Some(record(1, r#", "age": 31"#)));
            retire(4, None);
            retire(2, Some(record(2, "")));
            retire(5, None);
            retire(3, Some(record(3, r#", "fresh": true"#)));
            if crash {
                ds.simulate_crash();
                ds.recover().unwrap();
            }
            ds.flush().unwrap();
            (ds.schema_snapshot().unwrap().serialize(), ds.scan_values().unwrap())
        }
        for format in [StorageFormat::Inferred, StorageFormat::Columnar] {
            let twin = run(format, false, false);
            let s = Schema::deserialize(&twin.0).unwrap();
            let (_, age) = s.lookup_field(s.root(), "age").unwrap();
            assert!(!s.node(age).matches_tag(TypeTag::String), "{format:?}: the union collapsed");
            assert!(s.lookup_field(s.root(), "nested").is_none());
            assert!(s.lookup_field(s.root(), "only_here").is_none());
            assert_eq!(s.record_count(), 5);
            for (crash, reencoded) in [(true, false), (false, true), (true, true)] {
                let got = run(format, crash, reencoded);
                assert!(got == twin, "{format:?}: crash {crash}, re-encoded {reencoded}");
            }
        }
    }

    #[test]
    fn bulk_load_single_component() {
        let ds = small(StorageFormat::Inferred);
        let records: Vec<Value> = (0..300).rev().map(employee).collect(); // unsorted input
        ds.writer().bulk_load(records).unwrap();
        assert_eq!(ds.primary().components().len(), 1);
        assert_eq!(ds.scan_values().unwrap().len(), 300);
        assert_eq!(ds.get(123).unwrap().unwrap(), employee(123));
        let s = ds.schema_snapshot().unwrap();
        assert!(s.lookup_field(s.root(), "name").is_some());
    }

    #[test]
    fn failed_bulk_load_leaves_schema_and_trees_untouched() {
        let ds = make(
            DatasetConfig::new("Employee", "id")
                .with_format(StorageFormat::Inferred)
                .with_primary_key_index(true)
                .with_secondary_index("age")
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        );
        let nodes = || ds.schema_snapshot().unwrap().num_live_nodes();
        let components = || {
            (
                ds.primary().components().len(),
                ds.pk_index.as_ref().unwrap().tree().components().len(),
                ds.secondary.as_ref().unwrap().tree().components().len(),
            )
        };
        assert_eq!((nodes(), components()), (1, (0, 0, 0)));

        // The tree's own load: its pass has inferred both records' schema by
        // the time the builder refuses the second key, and is dropped.
        let row =
            |i| (encode_i64_key(i), tc_vector::encode(&employee(i), Some(&ds.config.datatype)));
        let err = ds.primary().bulk_load([row(1), row(1)]).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"), "got {err}");
        assert_eq!((nodes(), components()), (1, (0, 0, 0)));

        // The dataset's load refuses a repeated key before anything is fed.
        let mut records: Vec<Value> = (0..10).map(employee).collect();
        records.push(employee(3));
        let err = ds.writer().bulk_load(records.clone()).unwrap_err();
        assert!(matches!(err, AdmError::TypeCheck(_)), "got {err}");
        assert!(err.to_string().contains("primary key 3 more than once"), "got {err}");
        assert_eq!((nodes(), components()), (1, (0, 0, 0)));
        assert_eq!(ds.secondary_range(0, 100).unwrap(), vec![]);

        // Nothing is left in the way of the corrected load.
        records.pop();
        assert_eq!(ds.writer().bulk_load(records).unwrap(), 10);
        assert_eq!(components(), (1, 1, 1));
        assert_eq!(ds.scan_values().unwrap().len(), 10);
        assert_eq!(ds.secondary_range(20, 30).unwrap().len(), 10);
        assert!(nodes() > 1);

        // A second load is refused before any tree changes.
        let state = || {
            let schema = ds.schema_snapshot().unwrap().serialize();
            (components(), ds.total_disk_bytes(), schema, ds.secondary_range(0, 100).unwrap())
        };
        let loaded = state();
        let err = ds.writer().bulk_load((10..20).map(employee)).unwrap_err();
        assert!(matches!(err, AdmError::Execution(_)), "got {err}");
        assert!(err.to_string().contains("non-empty"), "got {err}");
        assert_eq!(state(), loaded);
    }

    #[test]
    fn antimatter_decrements_counters_at_flush() {
        // §3.2.2: delete and upsert carry the old record's anti-schema;
        // processing it at flush *decrements* the counters of shared nodes
        // (rather than dropping them) and prunes only zero-counted ones.
        let ds = small(StorageFormat::Inferred);
        ds.writer().insert(&parse(r#"{"id": 0, "name": "Kim", "age": 26}"#).unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 1, "name": "John", "age": 22}"#).unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 2, "name": "Ann", "salary": 9}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        let s = ds.schema_snapshot().unwrap();
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert_eq!(s.node(name).counter(), 3);
        assert_eq!(s.node(age).counter(), 2);
        assert_eq!(s.record_count(), 3);

        // Delete: the anti-schema decrements `name` 3→2 and `age` 2→1.
        assert!(ds.writer().delete(0).unwrap());
        // Upsert: old record 2's anti-schema decrements `name` and removes
        // `salary` entirely; the new image re-adds `name` and adds `bonus`.
        ds.writer().upsert(&parse(r#"{"id": 2, "name": "Ann", "bonus": 1}"#).unwrap()).unwrap();
        let before_flush = ds.schema_snapshot().unwrap();
        assert_eq!(before_flush.record_count(), 3, "anti-schemas apply at flush, not at ingest");
        ds.flush().unwrap();

        let s = ds.schema_snapshot().unwrap();
        let (_, name) = s.lookup_field(s.root(), "name").unwrap();
        let (_, age) = s.lookup_field(s.root(), "age").unwrap();
        assert_eq!(s.node(name).counter(), 2, "delete + upsert each -1, upsert re-adds 1");
        assert_eq!(s.node(age).counter(), 1, "only record 1 still has age");
        assert!(s.lookup_field(s.root(), "salary").is_none(), "zero-counted node pruned");
        let (_, bonus) = s.lookup_field(s.root(), "bonus").unwrap();
        assert_eq!(s.node(bonus).counter(), 1);
        assert_eq!(s.record_count(), 2);
    }

    #[test]
    fn merge_keeps_newest_superset_schema() {
        // §3.1.1: a merged component adopts the *newest* input schema, which
        // by construction is a superset of every older input's schema.
        let ds = small(StorageFormat::Inferred);
        ds.writer().insert(&parse(r#"{"id": 0, "a": 1}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        let first = Schema::deserialize(&ds.primary().newest_metadata().unwrap()).unwrap();
        ds.writer().insert(&parse(r#"{"id": 1, "a": 2, "b": "x"}"#).unwrap()).unwrap();
        ds.flush().unwrap();
        assert_eq!(ds.primary().components().len(), 2);

        ds.force_full_merge().unwrap();
        assert_eq!(ds.primary().components().len(), 1);
        let merged = Schema::deserialize(&ds.primary().newest_metadata().unwrap()).unwrap();
        assert!(merged.is_superset_of(&first), "newest input covers the older");
        assert!(
            merged.lookup_field(merged.root(), "b").is_some(),
            "kept the newest, not the oldest"
        );
        let live = ds.schema_snapshot().unwrap();
        assert!(
            merged.is_superset_of(&live) && live.is_superset_of(&merged),
            "merged metadata matches the in-memory schema"
        );
        // Both generations of records stay decodable through it.
        assert_eq!(ds.scan_values().unwrap().len(), 2);
        assert_eq!(ds.get(0).unwrap().unwrap(), parse(r#"{"id": 0, "a": 1}"#).unwrap());
    }

    #[test]
    fn compression_reduces_disk_size() {
        let sizes: Vec<u64> =
            [tc_compress::CompressionScheme::None, tc_compress::CompressionScheme::Snappy]
                .into_iter()
                .map(|scheme| {
                    let ds = make(
                        DatasetConfig::new("T", "id")
                            .with_format(StorageFormat::Open)
                            .with_compression(scheme)
                            .with_memtable_budget(32 * 1024)
                            .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                    );
                    for i in 0..500 {
                        ds.writer().insert(&employee(i)).unwrap();
                    }
                    ds.flush().unwrap();
                    ds.disk_bytes()
                })
                .collect();
        assert!(sizes[1] < sizes[0], "snappy {} should beat uncompressed {}", sizes[1], sizes[0]);
    }

    #[test]
    fn background_maintenance_flushes_without_writer_stall() {
        let ds = make(
            DatasetConfig::new("Employee", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(8 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::Prefix {
                    max_mergeable_size: 16 * 1024 * 1024,
                    max_tolerable_components: 3,
                })
                .with_background_maintenance(true),
        );
        for i in 0..800 {
            ds.writer().insert(&employee(i)).unwrap();
        }
        ds.await_quiescent();
        let stats = ds.lsm_stats();
        assert!(stats.flushes > 0, "budget-triggered background flushes happened");
        assert_eq!(stats.writer_stall_nanos, 0, "the writer never flushed inline");
        assert!(ds.primary().components().len() <= 4, "background merges kept up");
        ds.flush().unwrap();
        assert_eq!(ds.scan_values().unwrap().len(), 800);
        for i in (0..800).step_by(131) {
            assert_eq!(ds.get(i).unwrap().unwrap(), employee(i));
        }
    }

    #[test]
    fn backpressure_bounds_memtable_overhang() {
        // With background maintenance, a writer outrunning the worker must
        // stall at the overhang cap instead of growing the memtable without
        // bound: after every insert returns, the active memtable is at most
        // the capped overhang plus one record of slack.
        let budget = 4 * 1024;
        let ds = make(
            DatasetConfig::new("Employee", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(budget)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge)
                .with_background_maintenance(true),
        );
        let slack = 1024;
        for i in 0..500 {
            ds.writer().insert(&employee(i)).unwrap();
            assert!(
                ds.primary().memtable_bytes() < BACKPRESSURE_OVERHANG_FACTOR * budget + slack,
                "memtable must never diverge past the backpressure cap"
            );
        }
        ds.await_quiescent();
        ds.flush().unwrap();
        assert_eq!(ds.scan_values().unwrap().len(), 500);
        assert_eq!(ds.lsm_stats().writer_stall_nanos, 0, "no inline flushes — only backpressure");
    }

    #[test]
    fn flush_async_then_await_quiescent_installs_component() {
        let ds = make(
            DatasetConfig::new("Employee", "id")
                .with_format(StorageFormat::Inferred)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge)
                .with_background_maintenance(true),
        );
        for i in 0..50 {
            ds.writer().insert(&employee(i)).unwrap();
        }
        assert_eq!(ds.primary().components().len(), 0);
        ds.flush_async().unwrap();
        ds.await_quiescent();
        assert_eq!(ds.primary().components().len(), 1);
        assert_eq!(ds.lsm_stats().flushes, 1);
        // The schema committed with the flush, on the worker thread.
        let s = ds.schema_snapshot().unwrap();
        assert_eq!(s.record_count(), 50);
    }

    #[test]
    fn writer_token_is_exclusive() {
        let ds = small(StorageFormat::Inferred);
        let mut w = ds.writer();
        assert!(ds.try_writer().is_none(), "token is live; no second claim");
        w.insert(&employee(1)).unwrap();
        drop(w);
        // The claim releases on drop, so a new writer can take over.
        ds.writer().insert(&employee(2)).unwrap();
        assert_eq!(ds.ingested(), 2);
    }

    #[test]
    #[should_panic(expected = "already has a live WriterToken")]
    fn second_writer_claim_panics() {
        let ds = small(StorageFormat::Inferred);
        let _live = ds.writer();
        let _second = ds.writer();
    }
}
