//! The four workloads: their dataset configuration, the seeded op stream
//! each timed pass replays, and the oracle every read is checked against.

use std::collections::BTreeMap;

use tc_adm::Value;
use tc_cluster::{Cluster, ClusterConfig};
use tc_compress::CompressionScheme;
use tc_datagen::sensors::SensorsGen;
use tc_datagen::twitter::TwitterGen;
use tc_datagen::updates::Updater;
use tc_datagen::Generator;
use tc_lsm::MergePolicy;
use tc_storage::device::DeviceProfile;
use tuple_compactor::{DatasetConfig, StorageFormat};

/// Which generator feeds the workload (and so which queries it runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Twitter,
    Sensors,
}

/// The write mix of the timed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh keys only.
    InsertOnly,
    /// 70 % upserts of a live key, 10 % deletes of a live key, 20 % fresh
    /// inserts, over `preload` records loaded untimed inside each pass.
    Churn { preload: usize },
    /// Fresh inserts with a fixed handful of upserts and deletes of earlier
    /// keys spread evenly through the stream (anti-matter under live ingest).
    Sprinkle { upserts: usize, deletes: usize },
}

/// One workload. Sizes are for scale 1.0 (`--seconds` = `run_seconds`).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    pub format: StorageFormat,
    pub compression: CompressionScheme,
    pub cache_bytes: u64,
    pub memtable_budget: usize,
    /// Ops in the timed stream.
    pub ops: usize,
    pub mix: Mix,
    /// End the timed pass with `flush_all()`; `false` leaves a resident
    /// memtable for the reads.
    pub final_flush: bool,
    /// `merge_all()` before the reads (the at-rest state).
    pub merge_before_reads: bool,
    /// Point lookups in the read phase.
    pub gets: usize,
    /// Keys re-read after the crash/recover check.
    pub recovery_gets: usize,
    /// The state the reads are meant to see (checked at scale ≥ 1): primary
    /// components, and the buffer-cache hit rate of the gets.
    pub components_at_read: (u64, u64),
    pub hit_rate_get: (f64, f64),
}

/// The sensors workloads' memtable budget: at their record counts 1 MiB
/// would flush fewer than twenty times in a pass.
const SENSORS_MEMTABLE_BUDGET: usize = 384 << 10;

/// The workloads, in the order `BENCHMARK.json` lists them.
///
/// Record counts are the ISSUE's times 0.4, so that a run (three set-ups,
/// three timed passes, the reads) takes twenty to thirty seconds on a 2-core
/// box while a timed pass still makes dozens of flushes and a cascade of
/// merges. `twitter_feed` keeps the 1 MiB memtable: at 384 KiB one write in
/// a thousand pays a merge, which puts the cliff between flush stalls and
/// merge stalls exactly on the 99.9th percentile `write_p999_ms` reports.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "twitter_feed",
        data: Data::Twitter,
        format: StorageFormat::Inferred,
        compression: CompressionScheme::None,
        cache_bytes: 16 << 20,
        memtable_budget: 1 << 20,
        ops: 23_000,
        mix: Mix::InsertOnly,
        final_flush: true,
        merge_before_reads: false,
        gets: 5_000,
        recovery_gets: 100,
        components_at_read: (2, 16),
        hit_rate_get: (0.0, 0.6),
    },
    Spec {
        name: "sensors_upsert",
        data: Data::Sensors,
        format: StorageFormat::Inferred,
        compression: CompressionScheme::Snappy,
        cache_bytes: 256 << 20,
        memtable_budget: SENSORS_MEMTABLE_BUDGET,
        ops: 2_900,
        mix: Mix::Churn { preload: 3_200 },
        final_flush: true,
        merge_before_reads: false,
        gets: 5_000,
        recovery_gets: 100,
        components_at_read: (1, 16),
        hit_rate_get: (0.85, 1.0),
    },
    Spec {
        name: "sensors_amax_rest",
        data: Data::Sensors,
        format: StorageFormat::Columnar,
        compression: CompressionScheme::None,
        cache_bytes: 256 << 20,
        memtable_budget: SENSORS_MEMTABLE_BUDGET,
        ops: 2_680,
        mix: Mix::InsertOnly,
        final_flush: true,
        merge_before_reads: true,
        gets: 16,
        recovery_gets: 16,
        components_at_read: (1, 1),
        hit_rate_get: (0.0, 1.0),
    },
    Spec {
        name: "sensors_amax_live",
        data: Data::Sensors,
        format: StorageFormat::Columnar,
        compression: CompressionScheme::None,
        cache_bytes: 256 << 20,
        memtable_budget: SENSORS_MEMTABLE_BUDGET,
        ops: 2_680,
        mix: Mix::Sprinkle { upserts: 15, deletes: 6 },
        final_flush: false,
        merge_before_reads: false,
        gets: 16,
        recovery_gets: 16,
        components_at_read: (3, 16),
        hit_rate_get: (0.0, 1.0),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The load model every workload shares: one node, one partition,
    /// synchronous maintenance, NVMe profile, WAL, integrity and the
    /// primary-key index on, default page size and `Prefix` merge policy.
    pub fn dataset_config(&self) -> DatasetConfig {
        let defaults = DatasetConfig::new(self.name, "id");
        debug_assert!(matches!(defaults.merge_policy, MergePolicy::Prefix { .. }));
        defaults
            .with_format(self.format)
            .with_compression(self.compression)
            .with_memtable_budget(self.memtable_budget)
            .with_primary_key_index(true)
            .with_wal(true)
            .with_integrity_checks(true)
            .with_background_maintenance(false)
    }

    pub fn new_cluster(&self) -> Cluster {
        Cluster::create_dataset(
            ClusterConfig {
                nodes: 1,
                partitions_per_node: 1,
                device: DeviceProfile::NVME_SSD,
                cache_budget_per_node: self.cache_bytes,
            },
            self.dataset_config(),
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Upsert,
    Delete,
}

/// One write of the stream: the JSON line the client sends (empty for a
/// delete) and the key it touches.
#[derive(Debug, Clone)]
pub struct WriteOp {
    pub kind: OpKind,
    pub pk: i64,
    pub text: String,
}

/// Where the oracle finds the last value written under a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Last {
    Preload(usize),
    Op(usize),
    Deleted,
}

/// Everything a pass consumes, made from the seed alone.
pub struct Inputs {
    /// Records loaded untimed at the start of each pass.
    pub preload: Vec<String>,
    /// The timed stream.
    pub ops: Vec<WriteOp>,
    /// Last write per key ever written.
    pub oracle: BTreeMap<i64, Last>,
    /// Keys the read phase looks up, in order.
    pub get_keys: Vec<i64>,
    /// JSON text bytes of the timed stream (`write_amp` denominator).
    pub fed_text_bytes: u64,
    /// JSON text bytes of the records live after the stream
    /// (`storage_ratio` denominator).
    pub live_text_bytes: u64,
    /// Seconds spent in the generator and the JSON printer.
    pub gen_seconds: f64,
}

impl Inputs {
    pub fn live_keys(&self) -> u64 {
        self.oracle.values().filter(|l| **l != Last::Deleted).count() as u64
    }

    /// The JSON text of the last value written under `pk`, if it is live.
    pub fn expected_text(&self, pk: i64) -> Option<&str> {
        match self.oracle.get(&pk)? {
            Last::Preload(i) => Some(&self.preload[*i]),
            Last::Op(i) => Some(&self.ops[*i].text),
            Last::Deleted => None,
        }
    }
}

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

fn generator(data: Data, seed: u64) -> Box<dyn Generator> {
    match data {
        Data::Twitter => Box::new(TwitterGen::new(seed)),
        Data::Sensors => Box::new(SensorsGen::new(seed)),
    }
}

/// Build the op stream, the oracle and the get keys from `seed`.
pub fn build_inputs(spec: &Spec, seed: u64, scale: f64) -> Inputs {
    let started = std::time::Instant::now();
    let n_ops = scaled(spec.ops, scale, 64);
    let mut gen = generator(spec.data, seed);
    let mut picker = Updater::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let fresh = |gen: &mut Box<dyn Generator>| -> (i64, String) {
        let record = gen.next_record();
        let pk = record.get_field("id").and_then(Value::as_i64).expect("generated pk");
        (pk, tc_adm::to_string(&record))
    };

    let mut preload = Vec::new();
    let mut ops: Vec<WriteOp> = Vec::with_capacity(n_ops);
    let mut oracle: BTreeMap<i64, Last> = BTreeMap::new();
    // Live keys in insertion order with O(1) uniform pick and removal.
    let mut live: Vec<i64> = Vec::new();

    if let Mix::Churn { preload: n } = spec.mix {
        for i in 0..scaled(n, scale, 64) {
            let (pk, text) = fresh(&mut gen);
            oracle.insert(pk, Last::Preload(i));
            live.push(pk);
            preload.push(text);
        }
    }

    // Sprinkle: which stream positions are an upsert or a delete. Positions
    // are evenly spaced and the deletes evenly spread among them.
    let mut sprinkled: BTreeMap<usize, OpKind> = BTreeMap::new();
    if let Mix::Sprinkle { upserts, deletes } = spec.mix {
        let total = upserts + deletes;
        for j in 0..total {
            let is_delete = j * deletes / total != (j + 1) * deletes / total;
            let kind = if is_delete { OpKind::Delete } else { OpKind::Upsert };
            sprinkled.insert((j + 1) * n_ops / (total + 1), kind);
        }
    }

    for i in 0..n_ops {
        let kind = match spec.mix {
            Mix::InsertOnly => OpKind::Insert,
            Mix::Churn { .. } => match picker.pick_key(100) {
                0..=69 => OpKind::Upsert,
                70..=79 => OpKind::Delete,
                _ => OpKind::Insert,
            },
            Mix::Sprinkle { .. } => sprinkled.get(&i).copied().unwrap_or(OpKind::Insert),
        };
        // An empty live set (tiny scales) degrades to an insert.
        let kind = if live.is_empty() { OpKind::Insert } else { kind };
        let op = match kind {
            OpKind::Insert => {
                let (pk, text) = fresh(&mut gen);
                live.push(pk);
                oracle.insert(pk, Last::Op(i));
                WriteOp { kind, pk, text }
            }
            OpKind::Upsert => {
                let pk = live[picker.pick_key(live.len() as i64) as usize];
                let current = match oracle[&pk] {
                    Last::Preload(j) => &preload[j],
                    Last::Op(j) => &ops[j].text,
                    Last::Deleted => unreachable!("live keys are never deleted"),
                };
                let current = tc_adm::parse(current).expect("own JSON parses");
                // Churn evolves the schema (fields come, go and change
                // type); a sprinkled upsert only changes a value, so the
                // state under test does not depend on which field a seed
                // happens to drop.
                let mutated = match spec.mix {
                    Mix::Sprinkle { .. } => picker.mutate_values(&current, "id"),
                    _ => picker.mutate(&current, "id").0,
                };
                oracle.insert(pk, Last::Op(i));
                WriteOp { kind, pk, text: tc_adm::to_string(&mutated) }
            }
            OpKind::Delete => {
                let slot = picker.pick_key(live.len() as i64) as usize;
                let pk = live.swap_remove(slot);
                oracle.insert(pk, Last::Deleted);
                WriteOp { kind, pk, text: String::new() }
            }
        };
        ops.push(op);
    }

    // Gets draw uniformly over every key ever written, deleted ones too.
    let all_keys: Vec<i64> = oracle.keys().copied().collect();
    let n_gets = scaled(spec.gets, scale, 16);
    let get_keys =
        (0..n_gets).map(|_| all_keys[picker.pick_key(all_keys.len() as i64) as usize]).collect();

    let fed_text_bytes = ops.iter().map(|o| o.text.len() as u64).sum();
    let mut inputs = Inputs {
        preload,
        ops,
        oracle,
        get_keys,
        fed_text_bytes,
        live_text_bytes: 0,
        gen_seconds: 0.0,
    };
    inputs.live_text_bytes = inputs
        .oracle
        .keys()
        .filter_map(|pk| inputs.expected_text(*pk))
        .map(|t| t.len() as u64)
        .sum();
    inputs.gen_seconds = started.elapsed().as_secs_f64();
    inputs
}
