//! Data feeds: continuous partition-parallel ingestion (paper §4.3).
//!
//! AsterixDB's data feeds push a stream of records through the hash
//! partitioner into every partition's LSM tree concurrently; ingestion time
//! is gated by the slowest partition (and, with WAL enabled, by log
//! writes). The feed here buffers a batch per partition, runs the partition
//! inserts on threads, and reports measured wall time plus the simulated
//! device-IO time of the slowest partition.

use std::time::{Duration, Instant};

use tc_adm::{AdmError, Value};
use tuple_compactor::WriterToken;

use crate::Cluster;

/// Insert-only or upsert feed (Fig 17a vs 17b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedMode {
    Insert,
    Upsert,
}

/// What a feed run measured.
#[derive(Debug, Clone, Copy)]
pub struct FeedReport {
    pub records: u64,
    /// Measured CPU wall time of the parallel ingestion.
    pub wall: Duration,
    /// Simulated IO stall time of the slowest device (write path).
    pub io: Duration,
}

impl FeedReport {
    /// The experiment's reported ingestion time: CPU + IO stall.
    pub fn total(&self) -> Duration {
        self.wall + self.io
    }
}

/// Attempts per record before a transient storage fault fails the feed.
const MAX_INSERT_ATTEMPTS: u32 = 3;

/// Capped exponential backoff between per-record retries: 2ms, 4ms, ...
/// capped at 16ms. Blocking — runs on a feed partition thread only.
fn backoff_sleep(attempt: u32) {
    std::thread::sleep(Duration::from_millis(1u64 << attempt.min(4)));
}

/// Apply one record, retrying transient storage faults with capped backoff.
/// A primary insert that errored was not applied (the WAL append fails
/// before the memtable changes), so the retry cannot double-apply; a
/// repeated keys-only index insert is idempotent. Permanent faults and
/// corruption fail the feed immediately.
fn apply_with_retry(
    writer: &mut WriterToken<'_>,
    record: &Value,
    mode: FeedMode,
) -> Result<(), AdmError> {
    let mut attempt = 0u32;
    loop {
        let res = match mode {
            FeedMode::Insert => writer.insert(record),
            FeedMode::Upsert => writer.upsert(record),
        };
        match res {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && attempt + 1 < MAX_INSERT_ATTEMPTS => {
                attempt += 1;
                backoff_sleep(attempt);
            }
            Err(e) => return Err(e),
        }
    }
}

impl Cluster {
    /// Ingest a stream through the feed. Records are routed by primary-key
    /// hash and applied by N genuinely parallel partition threads — each
    /// partition has exactly one writer (its feed pipeline), while its
    /// background maintenance worker (if configured) flushes and merges
    /// concurrently and readers keep full access.
    pub fn feed<I>(&self, records: I, mode: FeedMode) -> Result<FeedReport, AdmError>
    where
        I: IntoIterator<Item = Value>,
    {
        let n_parts = self.num_partitions();
        let mut per_partition: Vec<Vec<Value>> = vec![Vec::new(); n_parts];
        let mut count = 0u64;
        for record in records {
            let pk = self.partition(0).primary_key_of(&record)?;
            per_partition[self.partition_of(pk)].push(record);
            count += 1;
        }

        let snaps = self.io_snapshots();
        let start = Instant::now();
        // One worker per partition, mirroring per-partition feed pipelines.
        let results: Vec<Result<(), AdmError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .partitions()
                .into_iter()
                .zip(per_partition)
                .map(|(partition, batch)| {
                    scope.spawn(move || {
                        // One token per partition for the whole batch: the
                        // feed thread *is* the partition's logical writer.
                        let mut writer = partition.writer();
                        for record in &batch {
                            apply_with_retry(&mut writer, record, mode)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("feed worker panicked")).collect()
        });
        for r in results {
            r?;
        }
        let wall = start.elapsed();
        let io = self.max_io_time_since(&snaps);
        Ok(FeedReport { records: count, wall, io })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use tc_datagen::{twitter::TwitterGen, updates::Updater, Generator};
    use tc_query::exec::ExecOptions;
    use tc_query::paper_queries::{single_i64, twitter_q1};
    use tc_query::plan::QueryOptions;
    use tc_storage::device::DeviceProfile;
    use tuple_compactor::{DatasetConfig, StorageFormat};

    fn cluster(format: StorageFormat) -> Cluster {
        Cluster::create_dataset(
            ClusterConfig {
                nodes: 2,
                partitions_per_node: 2,
                device: DeviceProfile::SATA_SSD,
                cache_budget_per_node: 4 * 1024 * 1024,
            },
            DatasetConfig::new("Tweets", "id")
                .with_format(format)
                .with_memtable_budget(128 * 1024)
                .with_primary_key_index(format == StorageFormat::Inferred)
                .with_merge_policy(tc_lsm::MergePolicy::Prefix {
                    max_mergeable_size: 8 * 1024 * 1024,
                    max_tolerable_components: 5,
                }),
        )
    }

    #[test]
    fn insert_feed_lands_everything() {
        let c = cluster(StorageFormat::Inferred);
        let mut gen = TwitterGen::new(4);
        let records: Vec<_> = (0..300).map(|_| gen.next_record()).collect();
        let report = c.feed(records, FeedMode::Insert).unwrap();
        assert_eq!(report.records, 300);
        assert!(report.io > Duration::ZERO, "writes charge IO");
        c.flush_all().unwrap();
        let res = c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
        assert_eq!(single_i64(&res.rows), Some(300));
    }

    #[test]
    fn background_feed_matches_synchronous_feed() {
        // The same insert stream, then a 50%-update upsert stream (Fig 17b),
        // through sync-flush and background-flush clusters must land
        // identically; the background writers must never stall on flush work.
        let records: Vec<_> = {
            let mut gen = TwitterGen::new(11);
            (0..400).map(|_| gen.next_record()).collect()
        };
        let updates: Vec<_> = {
            let mut up = Updater::new(13);
            (0..200)
                .map(|_| {
                    let k = up.pick_key(400) as usize;
                    up.mutate(&records[k], "id").0
                })
                .collect()
        };
        let feeds = [(records, FeedMode::Insert), (updates, FeedMode::Upsert)];
        let config = |background: bool| {
            DatasetConfig::new("Tweets", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(32 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::Prefix {
                    max_mergeable_size: 8 * 1024 * 1024,
                    max_tolerable_components: 4,
                })
                .with_background_maintenance(background)
        };
        let topo = || ClusterConfig {
            nodes: 1,
            partitions_per_node: 4,
            device: DeviceProfile::RAM,
            cache_budget_per_node: 4 * 1024 * 1024,
        };
        let sync = Cluster::create_dataset(topo(), config(false));
        for (batch, mode) in &feeds {
            sync.feed(batch.clone(), *mode).unwrap();
        }
        sync.flush_all().unwrap();

        let bg = Cluster::create_dataset(topo(), config(true));
        for (batch, mode) in &feeds {
            let flushed: Vec<u64> = bg.partitions().iter().map(|p| p.lsm_stats().flushes).collect();
            bg.feed(batch.clone(), *mode).unwrap();
            bg.await_quiescent();
            // Captured BEFORE flush_all: these must come from budget-triggered
            // worker flushes, not the explicit flush below.
            for (p, before) in bg.partitions().iter().zip(flushed) {
                let stats = p.lsm_stats();
                assert_eq!(stats.writer_stall_nanos, 0, "{mode:?}: background writers never stall");
                assert!(stats.flushes > before, "{mode:?}: budget flushes ran on the workers");
            }
        }
        bg.flush_all().unwrap();

        for c in [&sync, &bg] {
            let res =
                c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
            assert_eq!(single_i64(&res.rows), Some(400));
        }
        // Same records per partition regardless of flush scheduling.
        let counts =
            |c: &Cluster| -> Vec<u64> { c.partitions().iter().map(|p| p.ingested()).collect() };
        assert_eq!(counts(&sync), counts(&bg));
    }

    #[test]
    fn feed_rides_out_transient_fault_storm() {
        use tc_storage::FaultPlan;

        let c = cluster(StorageFormat::Inferred);
        // 1% of device operations fail transiently on every device; the
        // per-record retry with capped backoff must absorb all of it.
        for (i, node) in c.nodes().iter().enumerate() {
            for (j, d) in node.devices.iter().enumerate() {
                d.set_fault_plan(
                    FaultPlan::new(100 + (i * 8 + j) as u64).with_transient_rate_permille(10),
                );
            }
        }
        let mut gen = TwitterGen::new(21);
        let records: Vec<_> = (0..300).map(|_| gen.next_record()).collect();
        let report = c.feed(records, FeedMode::Insert).unwrap();
        assert_eq!(report.records, 300);
        for node in c.nodes() {
            for d in &node.devices {
                d.clear_fault_plan();
            }
        }
        c.flush_all().unwrap();
        let res = c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
        assert_eq!(single_i64(&res.rows), Some(300), "no acked write lost to the storm");
    }

    #[test]
    fn upsert_feed_with_50_percent_updates() {
        let c = cluster(StorageFormat::Inferred);
        let mut gen = TwitterGen::new(6);
        let originals: Vec<_> = (0..200).map(|_| gen.next_record()).collect();
        c.feed(originals.clone(), FeedMode::Insert).unwrap();
        // 50% updates: mutate existing records uniformly (Fig 17b).
        let mut up = Updater::new(8);
        let updates: Vec<_> = (0..100)
            .map(|_| {
                let k = up.pick_key(200) as usize;
                up.mutate(&originals[k], "id").0
            })
            .collect();
        let report = c.feed(updates, FeedMode::Upsert).unwrap();
        assert_eq!(report.records, 100);
        c.flush_all().unwrap();
        let res = c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
        assert_eq!(single_i64(&res.rows), Some(200), "upserts never add keys");
    }
}
