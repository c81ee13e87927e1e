//! Cluster simulator (paper §2.2, Fig 3).
//!
//! An AsterixDB cluster is a set of node controllers (NCs), each owning
//! several data partitions on separate storage devices; partitions on one
//! node share a buffer cache. Records hash-partition by primary key across
//! all partitions; each partition runs its own LSM tree — and, for inferred
//! datasets, its own tuple compactor and schema, with **no cross-partition
//! coordination** (§3.4.1).
//!
//! This module reproduces that topology in one process: [`Cluster`] holds
//! `nodes × partitions_per_node` [`Dataset`]s, ingests via hash
//! partitioning (optionally partition-parallel, like a data feed), and
//! executes queries with `tc-query`'s partitioned executor. The scale-out
//! experiments (Figs 25/26) sweep the node count.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod feed;

use std::sync::Arc;

use tc_adm::{AdmError, Value};
use tc_query::exec::{execute, ExecOptions, QueryResult};
use tc_query::plan::Query;
use tc_storage::device::{Device, DeviceProfile, IoSnapshot};
use tc_storage::BufferCache;
use tc_util::hash::hash_u64;
use tuple_compactor::{Dataset, DatasetConfig};

pub use feed::{FeedMode, FeedReport};

/// Cluster topology and hardware model.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: usize,
    /// The paper's single-node setup uses 2 partitions/node (Fig 3).
    pub partitions_per_node: usize,
    pub device: DeviceProfile,
    /// Buffer-cache budget per node, in bytes.
    pub cache_budget_per_node: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            partitions_per_node: 2,
            device: DeviceProfile::NVME_SSD,
            cache_budget_per_node: 64 * 1024 * 1024,
        }
    }
}

/// One node controller: partitions sharing a buffer cache, each with its
/// own device.
pub struct Node {
    pub cache: Arc<BufferCache>,
    pub devices: Vec<Arc<Device>>,
    pub partitions: Vec<Dataset>,
}

/// A simulated cluster hosting one dataset.
pub struct Cluster {
    config: ClusterConfig,
    nodes: Vec<Node>,
}

impl Cluster {
    /// Create the dataset on every partition of every node.
    pub fn create_dataset(config: ClusterConfig, ds_config: DatasetConfig) -> Cluster {
        let nodes = (0..config.nodes)
            .map(|_| {
                let cache = Arc::new(BufferCache::with_budget(
                    config.cache_budget_per_node,
                    ds_config.page_size,
                ));
                let mut devices = Vec::with_capacity(config.partitions_per_node);
                let mut partitions = Vec::with_capacity(config.partitions_per_node);
                for _ in 0..config.partitions_per_node {
                    let device = Arc::new(Device::new(config.device));
                    devices.push(Arc::clone(&device));
                    partitions.push(Dataset::new(ds_config.clone(), device, Arc::clone(&cache)));
                }
                Node { cache, devices, partitions }
            })
            .collect();
        Cluster { config, nodes }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn num_partitions(&self) -> usize {
        self.config.nodes * self.config.partitions_per_node
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// The partition a primary key hashes to (paper §2.2: records are
    /// hash-partitioned on the primary key).
    pub fn partition_of(&self, pk: i64) -> usize {
        (hash_u64(pk as u64) % self.num_partitions() as u64) as usize
    }

    /// The partition at a global index.
    pub fn partition(&self, idx: usize) -> &Dataset {
        let per = self.config.partitions_per_node;
        &self.nodes[idx / per].partitions[idx % per]
    }

    /// The partition `record` routes to, by its primary key (every
    /// partition holds the same dataset, so any one can extract it).
    fn route(&self, record: &Value) -> Result<&Dataset, AdmError> {
        let pk = self.partition(0).primary_key_of(record)?;
        Ok(self.partition(self.partition_of(pk)))
    }

    /// Route one record to its partition. Claims the partition's
    /// [`tuple_compactor::WriterToken`] for the single call; a concurrent
    /// [`Cluster::feed`] holding a partition's token for a batch makes
    /// this panic — one logical writer per partition.
    pub fn insert(&self, record: &Value) -> Result<(), AdmError> {
        self.route(record)?.writer().insert(record)
    }

    pub fn upsert(&self, record: &Value) -> Result<(), AdmError> {
        self.route(record)?.writer().upsert(record)
    }

    pub fn delete(&self, pk: i64) -> Result<bool, AdmError> {
        self.partition(self.partition_of(pk)).writer().delete(pk)
    }

    /// Point lookup.
    pub fn get(&self, pk: i64) -> Result<Option<Value>, AdmError> {
        self.partition(self.partition_of(pk)).get(pk)
    }

    /// All partitions, in global order.
    pub fn partitions(&self) -> Vec<&Dataset> {
        self.nodes.iter().flat_map(|n| n.partitions.iter()).collect()
    }

    /// Execute a query across all partitions.
    pub fn query(&self, q: &Query, opts: &ExecOptions) -> Result<QueryResult, AdmError> {
        execute(&self.partitions(), q, opts)
    }

    /// Flush every partition (and its auxiliary indexes) synchronously.
    pub fn flush_all(&self) -> Result<(), AdmError> {
        for p in self.partitions() {
            p.flush()?;
        }
        Ok(())
    }

    /// Block until every partition's background maintenance has drained.
    pub fn await_quiescent(&self) {
        for p in self.partitions() {
            p.await_quiescent();
        }
    }

    /// Merge every partition down to one component.
    pub fn merge_all(&self) -> Result<(), AdmError> {
        for p in self.partitions() {
            p.force_full_merge()?;
        }
        Ok(())
    }

    /// Crash every partition at once (a node failure takes all its
    /// partitions' in-memory state together; see `Dataset::simulate_crash`).
    pub fn simulate_crash_all(&self) {
        for p in self.partitions() {
            p.simulate_crash();
        }
    }

    /// Recover every partition; returns the summed (removed components,
    /// replayed WAL records) across all partitions and their index trees.
    pub fn recover_all(&self) -> Result<(usize, usize), AdmError> {
        let (mut removed, mut replayed) = (0, 0);
        for p in self.partitions() {
            let (r, w) = p.recover()?;
            removed += r;
            replayed += w;
        }
        Ok((removed, replayed))
    }

    /// Per-partition primary-tree stats (the bench aggregates these into
    /// cluster-level write-amplification numbers).
    pub fn lsm_stats(&self) -> Vec<tc_lsm::LsmStats> {
        self.partitions().iter().map(|p| p.lsm_stats()).collect()
    }

    /// Total primary-index bytes on disk (Fig 16 / Fig 25a metric).
    pub fn total_disk_bytes(&self) -> u64 {
        self.partitions().iter().map(|p| p.disk_bytes()).sum()
    }

    /// Snapshot all devices (for IO-time deltas around a phase).
    pub fn io_snapshots(&self) -> Vec<IoSnapshot> {
        self.nodes.iter().flat_map(|n| n.devices.iter().map(|d| d.snapshot())).collect()
    }

    /// The *maximum* per-device simulated IO time since the snapshots —
    /// partitions run in parallel, so the slowest device gates the phase.
    pub fn max_io_time_since(&self, snaps: &[IoSnapshot]) -> std::time::Duration {
        self.nodes
            .iter()
            .flat_map(|n| n.devices.iter())
            .zip(snaps)
            .map(|(d, s)| d.io_time_since(s))
            .max()
            .unwrap_or_default()
    }

    /// Clear every node's buffer cache (cold-start queries).
    pub fn clear_caches(&self) {
        for node in &self.nodes {
            node.cache.clear();
        }
    }
}

// The shared surface: feeds, point writes and queries run side by side on a
// shared `Cluster`, so these keep their `&self` receivers; a method that took
// `&mut self` would fail its coercion here.
const _: () = {
    type R<T> = Result<T, AdmError>;
    let _: fn(&Cluster, &Value) -> R<()> = Cluster::insert;
    let _: fn(&Cluster, &Value) -> R<()> = Cluster::upsert;
    let _: fn(&Cluster, i64) -> R<bool> = Cluster::delete;
    let _: fn(&Cluster, i64) -> R<Option<Value>> = Cluster::get;
    let _: fn(&Cluster, Vec<Value>, FeedMode) -> R<FeedReport> = Cluster::feed;
    let _: fn(&Cluster) -> R<()> = Cluster::flush_all;
    let _: fn(&Cluster) -> R<()> = Cluster::merge_all;
    let _: fn(&Cluster) = Cluster::await_quiescent;
};

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::parse;
    use tc_datagen::{twitter::TwitterGen, Generator};
    use tc_query::paper_queries::{single_i64, twitter_q1, twitter_q3};
    use tc_query::plan::QueryOptions;
    use tuple_compactor::StorageFormat;

    fn small_cluster(nodes: usize) -> Cluster {
        Cluster::create_dataset(
            ClusterConfig {
                nodes,
                partitions_per_node: 2,
                device: DeviceProfile::RAM,
                cache_budget_per_node: 4 * 1024 * 1024,
            },
            DatasetConfig::new("Tweets", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(64 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
        )
    }

    #[test]
    fn hash_partitioning_spreads_and_routes() {
        let c = small_cluster(2);
        let mut gen = TwitterGen::new(1);
        for _ in 0..200 {
            c.insert(&gen.next_record()).unwrap();
        }
        c.flush_all().unwrap();
        let sizes: Vec<u64> = c.partitions().iter().map(|p| p.ingested()).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 200);
        assert!(sizes.iter().all(|&s| s > 20), "reasonable spread: {sizes:?}");
        // Point lookups route correctly.
        for pk in [0i64, 57, 199] {
            assert_eq!(c.get(pk).unwrap().unwrap().get_field("id").unwrap().as_i64(), Some(pk));
        }
        assert_eq!(c.get(10_000).unwrap(), None);
    }

    #[test]
    fn queries_span_all_partitions() {
        let c = small_cluster(3);
        let mut gen = TwitterGen::new(2);
        for _ in 0..150 {
            c.insert(&gen.next_record()).unwrap();
        }
        c.flush_all().unwrap();
        let res = c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
        assert_eq!(single_i64(&res.rows), Some(150));
        assert_eq!(res.stats.partitions, 6);
        let res = c.query(&twitter_q3(QueryOptions::default()), &ExecOptions::default()).unwrap();
        assert!(res.stats.broadcast_bytes > 0, "6 partitions, schemas broadcast");
        assert!(!res.rows.is_empty());
    }

    #[test]
    fn per_partition_schemas_are_independent() {
        let c = small_cluster(2);
        // A field that lands (by pk hash) on one specific partition only.
        let lone = parse(r#"{"id": 12345, "only_here": true}"#).unwrap();
        let p_target = c.partition_of(12345);
        c.insert(&lone).unwrap();
        for i in 0..40 {
            if i != 12345 {
                c.insert(&parse(&format!(r#"{{"id": {i}, "common": 1}}"#)).unwrap()).unwrap();
            }
        }
        c.flush_all().unwrap();
        let partitions = c.partitions();
        let with_field: Vec<usize> = partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let s = p.schema_snapshot().unwrap();
                s.lookup_field(s.root(), "only_here").is_some()
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(with_field, vec![p_target], "schema stays partition-local");
    }

    #[test]
    fn deletes_and_upserts_route() {
        let c = small_cluster(1);
        for i in 0..50 {
            c.insert(&parse(&format!(r#"{{"id": {i}, "v": 1}}"#)).unwrap()).unwrap();
        }
        assert!(c.delete(7).unwrap());
        c.upsert(&parse(r#"{"id": 8, "v": 2}"#).unwrap()).unwrap();
        c.flush_all().unwrap();
        assert_eq!(c.get(7).unwrap(), None);
        assert_eq!(c.get(8).unwrap().unwrap().get_field("v").unwrap().as_i64(), Some(2));
        let res = c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
        assert_eq!(single_i64(&res.rows), Some(49));
    }

    #[test]
    fn every_write_route_refuses_a_record_without_its_primary_key() {
        let c = small_cluster(1);
        let keyless = parse(r#"{"uid": 1, "v": 1}"#).unwrap();
        let errors = [
            c.insert(&keyless).unwrap_err(),
            c.upsert(&keyless).unwrap_err(),
            c.feed([keyless.clone()], FeedMode::Insert).unwrap_err(),
        ];
        for e in errors {
            assert!(e.to_string().contains("primary key 'id'"), "{e}");
        }
        assert!(c.partitions().iter().all(|p| p.ingested() == 0));
    }

    #[test]
    fn scale_out_preserves_results() {
        let counts: Vec<i64> = [1usize, 2, 4]
            .into_iter()
            .map(|nodes| {
                let c = small_cluster(nodes);
                let mut gen = TwitterGen::new(9);
                for _ in 0..120 {
                    c.insert(&gen.next_record()).unwrap();
                }
                c.flush_all().unwrap();
                let res =
                    c.query(&twitter_q1(QueryOptions::default()), &ExecOptions::default()).unwrap();
                single_i64(&res.rows).unwrap()
            })
            .collect();
        assert_eq!(counts, vec![120, 120, 120]);
    }
}
