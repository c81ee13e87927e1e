//! Fault-injection integration suite: the crash-point sweep harness, the
//! transient fault storm, silent-corruption detection, and crash-mid-merge
//! recovery.
//!
//! The central invariant, checked from every angle here: **an acknowledged
//! write is never lost and a lost write is never acknowledged**. Writes are
//! "acked" when the API returned `Ok`; everything after a crash point fails
//! with a typed [`AdmError::Storage`], never a panic, and after
//! `recover()` the dataset is exactly the oracle built from the acked
//! prefix.

use std::collections::BTreeMap;
use std::sync::Arc;

use asterix_tc::prelude::*;
use tc_storage::FaultPlan;

/// Workload scale knobs, small enough that the sweep (which replays the
/// whole workload once per crash point) stays fast on a RAM device.
const PHASE1: i64 = 50;
const PHASE2: i64 = 80;
const PHASE3: i64 = 100;

fn record(id: i64, v: i64) -> Value {
    parse(&format!(r#"{{"id": {id}, "v": {v}, "tag": "t{}"}}"#, v % 7)).unwrap()
}

fn make_dataset() -> (Dataset, Arc<Device>) {
    make_dataset_with(StorageFormat::Inferred)
}

fn make_dataset_with(format: StorageFormat) -> (Dataset, Arc<Device>) {
    let device = Arc::new(Device::new(DeviceProfile::RAM));
    let cache = Arc::new(BufferCache::new(4096));
    let ds = Dataset::new(
        DatasetConfig::new("Faulty", "id")
            .with_format(format)
            .with_memtable_budget(8 * 1024)
            .with_merge_policy(MergePolicy::NoMerge),
        Arc::clone(&device),
        cache,
    );
    (ds, device)
}

/// The sweep's fixed workload: ingest, flush, updates and deletes, flush,
/// full merge, more ingest, a query, final flush. Every operation updates
/// the oracle only if the dataset acknowledged it; the first storage error
/// is "the crash" and ends the run (`false`). A clean, uninjected run
/// returns `true`, and the span of device operations (as the armed fault plan
/// counts them) its full merge took.
fn run_workload(ds: &Dataset) -> (BTreeMap<i64, i64>, bool, Option<(u64, u64)>) {
    let ops_seen = || ds.primary().device().fault_ops_seen();
    let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
    let mut w = ds.writer();
    for i in 0..PHASE1 {
        if w.insert(&record(i, i)).is_err() {
            return (oracle, false, None);
        }
        oracle.insert(i, i);
    }
    drop(w);
    if ds.flush().is_err() {
        return (oracle, false, None);
    }
    let mut w = ds.writer();
    for i in PHASE1..PHASE2 {
        if i % 13 == 0 {
            match w.delete(i - PHASE1) {
                Ok(_) => {
                    oracle.remove(&(i - PHASE1));
                }
                Err(_) => return (oracle, false, None),
            }
        } else if i % 10 == 0 {
            if w.upsert(&record(i - PHASE1, i * 100)).is_err() {
                return (oracle, false, None);
            }
            oracle.insert(i - PHASE1, i * 100);
        } else {
            if w.insert(&record(i, i)).is_err() {
                return (oracle, false, None);
            }
            oracle.insert(i, i);
        }
    }
    drop(w);
    if ds.flush().is_err() {
        return (oracle, false, None);
    }
    let merge_from = ops_seen();
    if ds.force_full_merge().is_err() {
        return (oracle, false, None);
    }
    let merge_ops = (merge_from, ops_seen());
    let mut w = ds.writer();
    for i in PHASE2..PHASE3 {
        if w.insert(&record(i, i)).is_err() {
            return (oracle, false, None);
        }
        oracle.insert(i, i);
    }
    drop(w);
    // A query mid-workload: reads consume I/O operations too, so crash
    // points land inside scans. Queries have no side effects; a typed
    // error here does not end the "process", the next write does.
    let _ = ds.scan_values();
    if ds.flush().is_err() {
        return (oracle, false, None);
    }
    (oracle, true, Some(merge_ops))
}

/// Read back the full dataset as `id -> v`.
fn contents(ds: &Dataset) -> BTreeMap<i64, i64> {
    ds.scan_values()
        .unwrap()
        .into_iter()
        .map(|rec| {
            let id = rec.get_field("id").and_then(Value::as_i64).unwrap();
            let v = rec.get_field("v").and_then(Value::as_i64).unwrap();
            (id, v)
        })
        .collect()
}

/// The tentpole harness: run the workload once uninjected to count its I/O
/// operations, then re-run it crashing at every Kth operation, recover, and
/// require the survivors to equal the acked oracle exactly.
fn sweep_crash_points(format: StorageFormat) {
    // Calibrate: an empty plan injects nothing but counts operations.
    let (ds, device) = make_dataset_with(format);
    device.set_fault_plan(FaultPlan::new(0));
    let (full_oracle, completed, merge_ops) = run_workload(&ds);
    assert!(completed, "uninjected workload must complete");
    let total_ops = device.clear_fault_plan().unwrap().ops_seen();
    assert!(total_ops > 50, "workload too small to sweep ({total_ops} ops)");
    let (merge_from, merge_to) = merge_ops.expect("a completed run merged");
    if format == StorageFormat::Columnar {
        // The workload's schema is stable, so its merge is column to column:
        // that is the writer the crash points counted below land in.
        let merged = ds.lsm_stats().entries_merged;
        assert!(merged > 0);
        assert_eq!(
            ds.columnar_counters().unwrap().rows_column_merged(),
            merged,
            "the merge copied every row it wrote"
        );
    }
    assert_eq!(contents(&ds), full_oracle, "clean run matches its oracle");

    // Sweep roughly 40 crash points across the run, always including the
    // very first operation and one point past the end (= no crash).
    let step = (total_ops / 40).max(1);
    let mut crash_points: Vec<u64> = (1..=total_ops).step_by(step as usize).collect();
    crash_points.push(total_ops + 1);
    let in_merge = crash_points.iter().filter(|&&k| merge_from < k && k <= merge_to).count();
    assert!(in_merge >= 1, "no crash point inside the merge's ops {merge_from}..{merge_to}");
    for k in crash_points {
        let (ds, device) = make_dataset_with(format);
        device.set_fault_plan(FaultPlan::new(k).with_crash_after_ops(k));
        let (oracle, completed, _) = run_workload(&ds);
        assert_eq!(
            completed,
            k > total_ops,
            "crash at op {k}/{total_ops}: completion must match the crash point"
        );
        device.clear_fault_plan();
        ds.simulate_crash();
        let (_removed, _replayed) = ds.recover().unwrap_or_else(|e| {
            panic!("recovery after crash at op {k} must succeed: {e}");
        });
        ds.flush().unwrap();
        assert_eq!(
            contents(&ds),
            oracle,
            "crash at op {k}/{total_ops}: recovered dataset != acked oracle"
        );
    }
}

#[test]
fn crash_point_sweep_recovers_every_acked_write() {
    sweep_crash_points(StorageFormat::Inferred);
}

/// The same sweep over the AMAX columnar format: crash points land inside
/// the column-shredding flush and merge writers (keys/column/residual pages
/// and the column index blob), and recovery must behave identically.
#[test]
fn crash_point_sweep_recovers_every_acked_write_columnar() {
    sweep_crash_points(StorageFormat::Columnar);
}

// ---------------------------------------------------------------------
// Cluster crash-point sweep, parameterized over the merge-policy matrix
// ---------------------------------------------------------------------

/// A cluster record. The secondary key `s` is a pure function of the
/// primary key, so updates rewrite `v` but never move the record in the
/// secondary index — a torn upsert can only *lose* a posting (completeness
/// gap for its one key), never leave a wrong-valued one behind.
fn cluster_record(id: i64, v: i64) -> Value {
    parse(&format!(r#"{{"id": {id}, "v": {v}, "s": {}}}"#, id * 10)).unwrap()
}

/// 1 node × 2 partitions on RAM devices, with WAL, a primary-key index,
/// and a secondary index — three LSM trees per partition, all governed by
/// the merge policy under test. Synchronous maintenance: budget-triggered
/// flushes run the policy inline, so crash points land inside
/// policy-chosen merges too.
fn make_cluster(policy: MergePolicy) -> Cluster {
    Cluster::create_dataset(
        ClusterConfig {
            nodes: 1,
            partitions_per_node: 2,
            device: DeviceProfile::RAM,
            ..Default::default()
        },
        DatasetConfig::new("Faulty", "id")
            .with_format(StorageFormat::Inferred)
            .with_memtable_budget(8 * 1024)
            .with_merge_policy(policy)
            .with_primary_key_index(true)
            .with_secondary_index("s"),
    )
}

/// The cluster sweep workload: hash-partitioned ingest, flushes, updates
/// and deletes, a full merge, more ingest, a secondary-range read, final
/// flush. Returns the acked oracle, whether the run completed, and the key
/// of the one op torn by the crash (`None` on structural-op failures).
fn run_cluster_workload(c: &Cluster) -> (BTreeMap<i64, i64>, bool, Option<i64>) {
    let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
    for i in 0..PHASE1 {
        if c.insert(&cluster_record(i, i)).is_err() {
            return (oracle, false, Some(i));
        }
        oracle.insert(i, i);
    }
    if c.flush_all().is_err() {
        return (oracle, false, None);
    }
    for i in PHASE1..PHASE2 {
        if i % 13 == 0 {
            match c.delete(i - PHASE1) {
                Ok(_) => {
                    oracle.remove(&(i - PHASE1));
                }
                Err(_) => return (oracle, false, Some(i - PHASE1)),
            }
        } else if i % 10 == 0 {
            if c.upsert(&cluster_record(i - PHASE1, i * 100)).is_err() {
                return (oracle, false, Some(i - PHASE1));
            }
            oracle.insert(i - PHASE1, i * 100);
        } else {
            if c.insert(&cluster_record(i, i)).is_err() {
                return (oracle, false, Some(i));
            }
            oracle.insert(i, i);
        }
    }
    if c.flush_all().is_err() || c.merge_all().is_err() {
        return (oracle, false, None);
    }
    for i in PHASE2..PHASE3 {
        if c.insert(&cluster_record(i, i)).is_err() {
            return (oracle, false, Some(i));
        }
        oracle.insert(i, i);
    }
    // Secondary-access-path read mid-workload: consumes I/O like any scan,
    // has no side effects; the next write decides whether we crashed.
    for p in c.partitions() {
        let _ = p.secondary_range(0, i64::MAX);
    }
    // Sentinel writes covering every partition: each device performs at
    // least one op AFTER the ignored reads, so a crash landing inside them
    // still surfaces as a visible error before the run can "complete".
    let mut covered = vec![false; c.num_partitions()];
    let mut id = PHASE3;
    while covered.iter().any(|done| !done) {
        let p = c.partition_of(id);
        if !covered[p] {
            covered[p] = true;
            if c.insert(&cluster_record(id, id)).is_err() {
                return (oracle, false, Some(id));
            }
            oracle.insert(id, id);
        }
        id += 1;
    }
    if c.flush_all().is_err() {
        return (oracle, false, None);
    }
    (oracle, true, None)
}

/// Union of all partitions' primary contents as `id -> v`.
fn cluster_contents(c: &Cluster) -> BTreeMap<i64, i64> {
    let mut all = BTreeMap::new();
    for p in c.partitions() {
        all.extend(contents(p));
    }
    all
}

/// Satellite sweep for the policy matrix: for every registry merge policy,
/// crash the whole cluster (every partition device arms the same plan) at
/// ~8 points across the run, recover all partitions, and require:
/// primary contents == acked oracle exactly; every secondary posting sound
/// (equal to the oracle); secondary completeness up to the single torn key.
#[test]
fn crash_point_sweep_cluster_covers_every_policy() {
    for policy in MergePolicy::matrix() {
        // Calibrate per policy: merge I/O differs, so op counts do too.
        let c = make_cluster(policy);
        for node in c.nodes() {
            for d in &node.devices {
                d.set_fault_plan(FaultPlan::new(0));
            }
        }
        let (full_oracle, completed, _) = run_cluster_workload(&c);
        assert!(completed, "[{}] uninjected workload must complete", policy.name());
        let total_ops = c
            .nodes()
            .iter()
            .flat_map(|n| &n.devices)
            .map(|d| d.clear_fault_plan().unwrap().ops_seen())
            .max()
            .unwrap();
        assert!(total_ops > 50, "[{}] workload too small ({total_ops} ops)", policy.name());
        assert_eq!(cluster_contents(&c), full_oracle, "[{}] clean run", policy.name());

        let step = (total_ops / 8).max(1);
        let mut crash_points: Vec<u64> = (1..=total_ops).step_by(step as usize).collect();
        crash_points.push(total_ops + 1);
        for k in crash_points {
            let c = make_cluster(policy);
            for node in c.nodes() {
                for d in &node.devices {
                    d.set_fault_plan(FaultPlan::new(k).with_crash_after_ops(k));
                }
            }
            let (oracle, completed, torn_key) = run_cluster_workload(&c);
            // Op k itself still succeeds (the plan fails ops numbered > k),
            // so the run completes exactly when k covers the whole op count.
            assert_eq!(
                completed,
                k >= total_ops,
                "[{}] crash at op {k}/{total_ops}: completion must match",
                policy.name()
            );
            for node in c.nodes() {
                for d in &node.devices {
                    d.clear_fault_plan();
                }
            }
            c.simulate_crash_all();
            let (_removed, _replayed) = c.recover_all().unwrap_or_else(|e| {
                panic!("[{}] recovery after crash at op {k} must succeed: {e}", policy.name());
            });
            c.flush_all().unwrap();
            assert_eq!(
                cluster_contents(&c),
                oracle,
                "[{}] crash at op {k}/{total_ops}: recovered cluster != acked oracle",
                policy.name()
            );
            // Secondary access path after recovery. Soundness: every record
            // served via the secondary index matches the oracle (dangling
            // postings from a torn op can't materialize — the primary
            // lookup misses). Completeness: at most the torn op's own key
            // may have lost its posting.
            let mut via_secondary = BTreeMap::new();
            for p in c.partitions() {
                for rec in p.secondary_range(0, i64::MAX).unwrap() {
                    let id = rec.get_field("id").and_then(Value::as_i64).unwrap();
                    let v = rec.get_field("v").and_then(Value::as_i64).unwrap();
                    assert_eq!(
                        oracle.get(&id),
                        Some(&v),
                        "[{}] crash at op {k}: secondary served a wrong record",
                        policy.name()
                    );
                    via_secondary.insert(id, v);
                }
            }
            let missing: Vec<i64> =
                oracle.keys().filter(|id| !via_secondary.contains_key(id)).copied().collect();
            assert!(
                missing.is_empty() || missing == vec![torn_key.unwrap_or(i64::MIN)],
                "[{}] crash at op {k}: secondary lost postings for {missing:?} (torn: {torn_key:?})",
                policy.name()
            );
        }
    }
}

/// Fault storm: 1% of all device operations fail transiently. Bounded
/// per-write retries must land every acked write; nothing panics; the
/// storm is visible in the stats counters. `TC_FAULT_SEED` reseeds the
/// storm (the CI `faults` job loops this test over many seeds).
#[test]
fn fault_storm_loses_no_acked_writes() {
    let seed: u64 =
        std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF0F0);
    let (ds, device) = make_dataset();
    device.set_fault_plan(FaultPlan::new(seed).with_transient_rate_permille(10));

    let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
    let mut w = ds.writer();
    for i in 0..400i64 {
        let mut attempts = 0;
        loop {
            match w.insert(&record(i, i)) {
                Ok(()) => {
                    oracle.insert(i, i);
                    break;
                }
                Err(e) if e.is_transient() && attempts < 12 => attempts += 1,
                Err(e) if e.is_transient() => break, // dropped, never acked
                Err(e) => panic!("storm injects only transients, got: {e}"),
            }
        }
    }
    drop(w);
    // Maintenance under the storm: keep asking until a round survives.
    let mut flushed = false;
    for _ in 0..50 {
        if ds.flush().is_ok() {
            flushed = true;
            break;
        }
    }
    assert!(flushed, "a 1% storm cannot starve flushes for 50 rounds");
    device.clear_fault_plan();
    ds.flush().unwrap();

    assert!(device.faults_injected() > 0, "the storm must actually storm");
    assert_eq!(contents(&ds), oracle, "an acked write was lost to the storm");
    assert_eq!(oracle.len(), 400, "1% transients with 12 retries drop nothing");
}

/// Silent corruption sweep: flip one bit in each of the first N component
/// writes (one fresh dataset per position). Every read must return either
/// the exact correct data or a typed corruption error — flipped bits are
/// never decoded into wrong rows, and at least one flip must be caught by
/// a checksum.
#[test]
fn bit_flips_are_always_detected_never_decoded() {
    let expected: BTreeMap<i64, i64> = (0..60).map(|i| (i, i)).collect();
    let mut detections = 0u64;
    for n in 1..=8u64 {
        let (ds, device) = make_dataset();
        let mut w = ds.writer();
        for i in 0..60i64 {
            w.insert(&record(i, i)).unwrap();
        }
        drop(w);
        // Armed right before the flush, so write #n is component data (a
        // page, the footer, or the length-and-offset file) — not the WAL.
        device.set_fault_plan(FaultPlan::new(n).flip_bit_in_nth_write(n));
        ds.flush().unwrap();
        let fired = device.faults_injected() > 0;
        device.clear_fault_plan();
        if !fired {
            continue; // flush used fewer than n writes
        }
        match ds.scan_values() {
            Ok(rows) => {
                let got: BTreeMap<i64, i64> = rows
                    .into_iter()
                    .map(|r| {
                        (
                            r.get_field("id").and_then(Value::as_i64).unwrap(),
                            r.get_field("v").and_then(Value::as_i64).unwrap(),
                        )
                    })
                    .collect();
                assert_eq!(got, expected, "flip in write {n} decoded into wrong rows");
            }
            Err(AdmError::Storage { transient, .. }) => {
                assert!(!transient, "corruption is permanent");
                assert!(
                    ds.lsm_stats().checksum_failures > 0,
                    "typed corruption error without a checksum failure"
                );
                detections += 1;
                // The degraded-read path: a permissive scan skips the
                // quarantined component instead of failing.
                use tc_query::exec::{execute, CorruptionPolicy, ExecOptions};
                use tc_query::{AccessStrategy, Query, ScanSpec};
                let q = Query {
                    scan: ScanSpec::all_early(
                        vec![tc_adm::path::parse_path("id")],
                        AccessStrategy::Consolidated,
                    ),
                    ops: vec![],
                };
                let opts = ExecOptions::with_corruption_policy(CorruptionPolicy::Degrade);
                let res = execute(&[&ds], &q, &opts).unwrap();
                assert!(res.stats.quarantined_components >= 1);
                assert!(res.rows.len() < 60, "quarantined rows must not be served");
            }
            Err(e) => panic!("flip in write {n}: unexpected error class: {e}"),
        }
    }
    assert!(detections > 0, "no flip in the sweep was ever detected");
}

/// Bit flips inside a resting columnar component: the zero-pivot batched
/// scan must never serve wrong rows. Each flipped write either lands in
/// pages the query never faults (exact correct answer), or the checksum
/// failure quarantines the component and the scan degrades through the
/// generic path's corruption policy — fewer rows, accounted for, no panic.
#[test]
fn columnar_bit_flip_quarantines_and_degrades_batched_scan() {
    use tc_query::exec::{execute, CorruptionPolicy, Engine, ExecOptions};
    use tc_query::{AccessStrategy, CmpOp, Expr, Query, ScanSpec};

    // id >= 0 runs the typed filter loop over the id column; `v` and `tag`
    // come out of other columns (or the residual), so different flip
    // positions corrupt different parts of the read set.
    let q = Query {
        scan: ScanSpec {
            paths: vec![tc_adm::path::parse_path("id")],
            filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(0i64))),
            late_paths: vec![tc_adm::path::parse_path("v"), tc_adm::path::parse_path("tag")],
            access: AccessStrategy::Consolidated,
        },
        ops: vec![],
    };
    let mut degradations = 0u64;
    for n in 1..=10u64 {
        let (ds, device) = make_dataset_with(StorageFormat::Columnar);
        let mut w = ds.writer();
        for i in 0..60i64 {
            w.insert(&record(i, i)).unwrap();
        }
        drop(w);
        // Armed right before the flush: write #n is columnar component data
        // (a keys/column/residual page, the index blob, or the footer).
        device.set_fault_plan(FaultPlan::new(n).flip_bit_in_nth_write(n));
        ds.flush().unwrap();
        let fired = device.faults_injected() > 0;
        device.clear_fault_plan();
        if !fired {
            continue;
        }
        assert!(ds.snapshot_columnar().is_some(), "partition must be at rest");

        let opts = ExecOptions {
            corruption_policy: CorruptionPolicy::Degrade,
            ..ExecOptions::with_engine(Engine::Batched)
        };
        let res = execute(&[&ds], &q, &opts).unwrap();
        if res.rows.len() == 60 {
            // The flip landed outside the query's read set; every served
            // row must still be exact.
            for (i, row) in res.rows.iter().enumerate() {
                assert_eq!(row[0], Value::Int64(i as i64), "flip {n}: wrong id served");
                assert_eq!(row[1], Value::Int64(i as i64), "flip {n}: wrong v served");
            }
        } else {
            assert!(
                res.stats.quarantined_components >= 1,
                "flip {n}: partial answer without a quarantine"
            );
            degradations += 1;
        }
    }
    assert!(degradations > 0, "no flip in the sweep ever degraded the columnar batched scan");
}

/// Bit flips under point lookups on a columnar component. A lookup reads
/// the group's keys block and then only the pages holding its own row (one
/// residual page, one page per column), so a flip shows up exactly when a
/// lookup's row lives on the damaged page: in the keys block that is the
/// first lookup, in a later residual or column page only the first lookup
/// of a row stored there. Whichever it is, `get` fails with a typed
/// corruption error and quarantines the component; no lookup ever returns
/// a wrong record.
#[test]
fn columnar_bit_flip_fails_point_lookups_typed_never_wrong() {
    let wide = |i: i64| {
        let text = format!(
            r#"{{"id": {i}, "v": {i}, "tag": "t{}", "readings": [{i}, {}, {}]}}"#,
            i % 7,
            i + 1,
            i + 2
        );
        parse(&text).unwrap()
    };
    let (mut at_first_lookup, mut at_later_lookup, mut untouched) = (0u64, 0u64, 0u64);
    for n in 1..=40u64 {
        // 256-byte pages: every block of the 60-row group spans several.
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let ds = Dataset::new(
            DatasetConfig::new("Faulty", "id")
                .with_format(StorageFormat::Columnar)
                .with_page_size(256)
                .with_memtable_budget(256 * 1024)
                .with_merge_policy(MergePolicy::NoMerge),
            Arc::clone(&device),
            Arc::new(BufferCache::new(4096)),
        );
        let mut w = ds.writer();
        for i in 0..60i64 {
            w.insert(&wide(i)).unwrap();
        }
        drop(w);
        device.set_fault_plan(FaultPlan::new(n).flip_bit_in_nth_write(n));
        ds.flush().unwrap();
        let fired = device.faults_injected() > 0;
        device.clear_fault_plan();
        if !fired {
            continue;
        }
        let mut failed_at = None;
        for i in 0..60i64 {
            match ds.get(i) {
                Ok(got) => {
                    assert!(
                        failed_at.is_none(),
                        "flip {n}: get({i}) served from a quarantined tree"
                    );
                    assert_eq!(got, Some(wide(i)), "flip {n}: get({i}) returned a wrong record");
                }
                Err(AdmError::Storage { message, transient }) => {
                    assert!(!transient, "corruption is permanent");
                    assert!(message.contains("corruption detected"), "flip {n}: {message}");
                    assert_eq!(ds.lsm_stats().quarantined_components, 1, "flip {n}, get({i})");
                    failed_at.get_or_insert(i);
                }
                Err(e) => panic!("flip {n}: unexpected error class: {e}"),
            }
        }
        match failed_at {
            None => untouched += 1,
            Some(0) => at_first_lookup += 1,
            Some(_) => at_later_lookup += 1,
        }
        if failed_at.is_some() {
            assert!(ds.lsm_stats().checksum_failures > 0, "flip {n}: error without a CRC failure");
        }
    }
    assert!(at_first_lookup > 0, "no flip landed in a page every lookup reads (keys block)");
    assert!(at_later_lookup > 0, "no flip landed in a page only some row's lookup reads");
    assert!(untouched > 0, "no flip landed outside the pages lookups read (index blob, tail)");
}

/// A sensor-like record: typed `id`/`v`/`tag` columns and an array that
/// stays in the residual.
fn wide(i: i64, v: i64) -> Value {
    let text =
        format!(r#"{{"id": {i}, "v": {v}, "tag": "t{}", "readings": [{v}, {}]}}"#, v % 7, v + 1);
    parse(&text).unwrap()
}

/// A Columnar partition of three flushed components on 256-byte pages —
/// records, then newer versions and deletes of some, then new ids, that last
/// flush damaged by a bit flipped in its n-th write — and, if `resident`, a
/// memtable of ids found nowhere on disk (a write that looked an id up in the
/// damaged component would meet the flip before any scan does). Returns the
/// oracle (id → record) and whether the flip fired.
fn damaged_columnar_partition(n: u64, resident: bool) -> (Dataset, BTreeMap<i64, Value>, bool) {
    let device = Arc::new(Device::new(DeviceProfile::RAM));
    let ds = Dataset::new(
        DatasetConfig::new("Faulty", "id")
            .with_format(StorageFormat::Columnar)
            .with_page_size(256)
            .with_memtable_budget(256 * 1024)
            .with_merge_policy(MergePolicy::NoMerge),
        Arc::clone(&device),
        Arc::new(BufferCache::new(4096)),
    );
    // `Some(v)` writes version `v` of the id, `None` deletes it.
    let mut phases: Vec<Vec<(i64, Option<i64>)>> = vec![
        (0..60).map(|i| (i, Some(i))).collect(),
        (0..60).step_by(4).map(|i| (i, Some(1000 + i))).chain([(9, None), (18, None)]).collect(),
        (100..160).map(|i| (i, Some(i))).collect(),
    ];
    if resident {
        phases.push(vec![(200, Some(200)), (201, Some(201)), (200, Some(2200)), (201, None)]);
    }
    let mut oracle: BTreeMap<i64, Value> = BTreeMap::new();
    let mut fired = false;
    for (phase, ops) in phases.iter().enumerate() {
        let mut w = ds.writer();
        for &(i, version) in ops {
            match version {
                Some(v) => {
                    w.upsert(&wide(i, v)).unwrap();
                    oracle.insert(i, wide(i, v));
                }
                None => {
                    assert!(w.delete(i).unwrap());
                    oracle.remove(&i);
                }
            }
        }
        drop(w);
        match phase {
            0 | 1 => ds.flush().unwrap(),
            2 => {
                device.set_fault_plan(FaultPlan::new(n).flip_bit_in_nth_write(n));
                ds.flush().unwrap();
                fired = device.faults_injected() > 0;
                device.clear_fault_plan();
            }
            _ => {}
        }
    }
    assert_eq!(ds.primary().components().len(), 3);
    assert_eq!(ds.primary().memtable_len() > 0, resident);
    (ds, oracle, fired)
}

/// Bit flips inside a *live* columnar partition — three unmerged components
/// under a resident memtable, stale versions and anti-matter between them.
/// A scan reconciles on key blocks, the batched engine then reads the
/// columns and residuals its paths name, so where a flip lands decides
/// which query first meets it: (a) a keys block fails even `count(*)`,
/// (b) a page of the `v` column fails a scan of `v` — pages only the
/// batched fill reads; the row engine never opens a column on its own —
/// (c) a residual page fails a scan of `readings[*]`. Whichever it is,
/// `Fail` turns it into a typed storage error and `Degrade` into fewer
/// rows, a quarantined component, and not one row that differs from the
/// oracle. The damaged component holds new ids only, so losing its keys
/// uncovers no stale version (that a dropped component stops masking is
/// PR 8's contract for every layout).
#[test]
fn columnar_bit_flip_in_live_partition_fails_typed_or_degrades_exactly() {
    use tc_adm::path::parse_path;
    use tc_query::exec::{execute, CorruptionPolicy, ExecOptions};
    use tc_query::{AccessStrategy, Query, ScanSpec};

    let build = |n: u64| damaged_columnar_partition(n, true);
    let scan_of = |paths: &[&str]| Query {
        scan: ScanSpec::all_early(
            paths.iter().map(|p| parse_path(p)).collect(),
            AccessStrategy::Consolidated,
        ),
        ops: vec![],
    };
    // In the order a scan meets the blocks: keys, then what its paths name.
    let probes = [
        ("keys block", scan_of(&[])),
        ("v column", scan_of(&["id", "v"])),
        ("residual", scan_of(&["id", "readings[*]"])),
    ];
    let fields = ["id", "v", "readings"];

    let mut hits = [0u64; 3];
    let mut untouched = 0u64;
    for n in 1..=40u64 {
        let (ds, oracle, fired) = build(n);
        if !fired {
            continue;
        }
        // Fail: the first probe whose read set holds the flipped page errors.
        let failed =
            probes.iter().position(|(what, q)| match execute(&[&ds], q, &ExecOptions::default()) {
                Ok(res) => {
                    assert_eq!(res.stats.rows_scanned, oracle.len() as u64, "flip {n}, {what}");
                    false
                }
                Err(AdmError::Storage { message, transient }) => {
                    assert!(!transient, "flip {n}, {what}: corruption is permanent");
                    assert!(message.contains("corruption detected"), "flip {n}, {what}: {message}");
                    assert_eq!(ds.lsm_stats().quarantined_components, 1, "flip {n}, {what}");
                    true
                }
                Err(e) => panic!("flip {n}, {what}: unexpected error class: {e}"),
            });
        let Some(probe) = failed else {
            untouched += 1;
            continue;
        };
        hits[probe] += 1;

        // Degrade, on an identical partition that has not met the flip yet:
        // the same read drops rows, never alters one.
        let (ds, oracle, _) = build(n);
        let q = scan_of(&["id", "v", "readings"]);
        let opts = ExecOptions::with_corruption_policy(CorruptionPolicy::Degrade);
        let res = execute(&[&ds], &q, &opts).unwrap();
        assert!(res.stats.quarantined_components >= 1, "flip {n}: {}", probes[probe].0);
        assert!(res.rows.len() < oracle.len(), "flip {n}: the damaged rows are not served");
        assert!(res.rows.len() >= 20, "flip {n}: the healthy components' rows are");
        for row in &res.rows {
            let expected = &oracle[&row[0].as_i64().unwrap()];
            for (got, field) in row.iter().zip(fields) {
                assert_eq!(Some(got), expected.get_field(field), "flip {n}: wrong {field} served");
            }
        }
    }
    assert!(hits[0] > 0, "no flip landed in a keys block");
    assert!(hits[1] > 0, "no flip landed in a column page only the batched fill reads");
    assert!(hits[2] > 0, "no flip landed in a residual page");
    assert!(
        untouched > 0,
        "no flip landed outside the probes' read sets (tag column, index, tail)"
    );
}

/// Bit flips inside a *merge input*: three flushed columnar components with
/// stale versions and anti-matter between them, the newest — new ids only —
/// damaged in its n-th write. The merge copies rows column to column, so it
/// reads the input's key block, its residual block and every column block,
/// and a flip in any of them must fail `force_full_merge` with a typed
/// corruption error, quarantine that input, install nothing and leave the
/// component list exactly as it was. Afterwards a `Fail` scan errors typed
/// and a `Degrade` scan serves exactly the oracle's rows outside the damaged
/// component — never a half-merged, stale or altered value. A flip in a page
/// the merge never reads (index blob, component tail) leaves it succeeding
/// with the oracle's contents.
#[test]
fn columnar_bit_flip_in_merge_input_fails_the_merge_typed_and_installs_nothing() {
    use tc_adm::path::parse_path;
    use tc_columnar::ChunkReader;
    use tc_query::exec::{execute, CorruptionPolicy, ExecOptions};
    use tc_query::{AccessStrategy, Query, ScanSpec};

    let scan = Query {
        scan: ScanSpec::all_early(
            ["id", "v", "readings"].iter().map(|p| parse_path(p)).collect(),
            AccessStrategy::Consolidated,
        ),
        ops: vec![],
    };

    // Flips by the block they landed in: keys, residual, a column, elsewhere.
    let mut hits = [0u64; 4];
    for n in 1..=40u64 {
        let (ds, oracle, fired) = damaged_columnar_partition(n, false);
        if !fired {
            continue;
        }
        let before = ds.primary().components();
        let damaged = before.last().unwrap();
        // Which block holds the page that no longer passes its checksum?
        let (chunk, store) = damaged.columnar_view().unwrap();
        let reader = ChunkReader::of(chunk).unwrap();
        let bad = (0..store.num_pages()).find(|&p| store.read_page(p).is_err());
        let bad = bad.expect("the flip landed in one of the component's pages");
        assert_eq!(reader.groups().len(), 1);
        let group = &reader.groups()[0];
        // A block is a byte range of the body; neighbours share a page, and
        // a flip there fails whichever of them is read first.
        let within = |run: &tc_columnar::chunk::PageRun| {
            let first = reader.body_page() + run.start / 256;
            (first..first + run.num_pages(256)).contains(&bad)
        };
        let block = if within(&group.keys) {
            0
        } else if within(&group.residual) {
            1
        } else if group.cols.iter().any(|c| within(&c.run)) {
            2
        } else {
            3
        };
        hits[block] += 1;

        let stats_before = ds.lsm_stats();
        let merged = ds.force_full_merge();
        if block == 3 {
            // Index blob or tail: the live handle never re-reads them.
            merged.unwrap_or_else(|e| panic!("flip {n}: merge read an unread page: {e}"));
            assert_eq!(ds.primary().components().len(), 1);
            let got = ds.scan_values().unwrap();
            assert_eq!(got, oracle.values().cloned().collect::<Vec<_>>(), "flip {n}");
            continue;
        }
        match merged {
            Err(AdmError::Storage { message, transient }) => {
                assert!(!transient, "flip {n}: corruption is permanent");
                assert!(message.contains("corruption detected"), "flip {n}: {message}");
            }
            other => panic!("flip {n} in block {block}: merge must fail typed, got {other:?}"),
        }
        assert!(damaged.is_quarantined(), "flip {n}: the damaged input is quarantined");
        let after = ds.primary().components();
        assert_eq!(after.len(), 3, "flip {n}: nothing installed");
        assert!(
            before.iter().zip(&after).all(|(a, b)| Arc::ptr_eq(a, b)),
            "flip {n}: the component list is as it was"
        );
        let stats = ds.lsm_stats();
        assert_eq!(stats.merges, stats_before.merges, "flip {n}");
        assert_eq!(stats.bytes_merged, stats_before.bytes_merged, "flip {n}");
        assert_eq!(stats.maintenance_errors, stats_before.maintenance_errors + 1, "flip {n}");
        assert_eq!(stats.quarantined_components, 1, "flip {n}: only the damaged input");
        // Asking again changes nothing.
        assert!(ds.force_full_merge().is_err(), "flip {n}: a quarantined input never merges");

        match execute(&[&ds], &scan, &ExecOptions::default()) {
            Err(AdmError::Storage { transient, .. }) => assert!(!transient, "flip {n}"),
            other => panic!("flip {n}: a Fail scan must error typed, got {other:?}"),
        }
        let opts = ExecOptions::with_corruption_policy(CorruptionPolicy::Degrade);
        let res = execute(&[&ds], &scan, &opts).unwrap();
        assert_eq!(res.stats.quarantined_components, 1, "flip {n}: accounted in the scan's health");
        let healthy: Vec<&Value> = oracle.range(..100).map(|(_, v)| v).collect();
        assert_eq!(res.rows.len(), healthy.len(), "flip {n}: the healthy inputs' rows, no more");
        for (row, expected) in res.rows.iter().zip(healthy) {
            for (got, field) in row.iter().zip(["id", "v", "readings"]) {
                assert_eq!(Some(got), expected.get_field(field), "flip {n}: wrong {field} served");
            }
        }
    }
    assert!(hits[0] > 0, "no flip landed in the input's keys block");
    assert!(hits[1] > 0, "no flip landed in a residual page");
    assert!(hits[2] > 0, "no flip landed in a column page");
    assert!(hits[3] > 0, "no flip landed outside the pages a merge reads");
}

/// Bit flips in row blocks a zone map skips. Two row-layout components on
/// 256-byte pages: ids 0..40 at `t = id`, their n-th write flipped, under
/// clean ids 100..140. The window `100 <= t < 120` skips every block of the
/// damaged component — it is the oldest, so nothing older pins its keys — and
/// must answer exactly, with no error, no checksum failure and no quarantine,
/// wherever the flip landed. A window that needs those blocks, `t < 120`,
/// meets a flip in any of them: a typed error under `Fail`, and under
/// `Degrade` the clean component's rows plus, of the damaged one, only rows
/// the oracle holds.
#[test]
fn a_bit_flip_in_a_block_the_zone_map_skips_is_never_read() {
    use tc_adm::path::parse_path;
    use tc_query::exec::{execute, CorruptionPolicy, ExecOptions};
    use tc_query::{AccessStrategy, CmpOp, Expr, Query, ScanSpec};

    let row = |i: i64| {
        parse(&format!(r#"{{"id": {i}, "t": {i}, "pad": "{}"}}"#, "p".repeat(30))).unwrap()
    };
    let build = |n: u64| {
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let ds = Dataset::new(
            DatasetConfig::new("Faulty", "id")
                .with_page_size(256)
                .with_memtable_budget(256 * 1024)
                .with_merge_policy(MergePolicy::NoMerge),
            Arc::clone(&device),
            Arc::new(BufferCache::new(4096)),
        );
        for ids in [0..40, 100..140] {
            let mut w = ds.writer();
            for i in ids.clone() {
                w.insert(&row(i)).unwrap();
            }
            drop(w);
            if ids.start == 0 {
                device.set_fault_plan(FaultPlan::new(n).flip_bit_in_nth_write(n));
            }
            ds.flush().unwrap();
            device.clear_fault_plan();
        }
        let fired = device.faults_injected() > 0;
        (ds, fired)
    };
    let window = |lo: i64, hi: i64| Query {
        scan: ScanSpec {
            paths: vec![parse_path("id"), parse_path("t")],
            filter: Some(Expr::and(
                Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(lo)),
                Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(hi)),
            )),
            late_paths: vec![],
            access: AccessStrategy::Consolidated,
        },
        ops: vec![],
    };
    let ids = |rows: &[Vec<Value>]| rows.iter().map(|r| r[0].as_i64().unwrap()).collect::<Vec<_>>();

    let (mut needed, mut tail) = (0u64, 0u64);
    for n in 1..=40u64 {
        let (ds, fired) = build(n);
        if !fired {
            continue;
        }
        let damaged = ds.primary().components()[0].num_units() as u64;
        let skipping = execute(&[&ds], &window(100, 120), &ExecOptions::default())
            .unwrap_or_else(|e| panic!("flip {n}: a skipped block was read: {e}"));
        assert_eq!(ids(&skipping.rows), (100..120).collect::<Vec<_>>(), "flip {n}");
        assert!(skipping.stats.units_skipped >= damaged, "flip {n}");
        let stats = ds.lsm_stats();
        assert_eq!((stats.checksum_failures, stats.quarantined_components), (0, 0), "flip {n}");

        match execute(&[&ds], &window(-1, 120), &ExecOptions::default()) {
            // The flip is in the component's tail, which no read re-reads.
            Ok(res) => {
                let want: Vec<i64> = (0..40).chain(100..120).collect();
                assert_eq!(ids(&res.rows), want, "flip {n}");
                tail += 1;
                continue;
            }
            Err(AdmError::Storage { message, transient }) => {
                assert!(!transient, "flip {n}: corruption is permanent");
                assert!(message.contains("corruption detected"), "flip {n}: {message}");
                assert_eq!(ds.lsm_stats().quarantined_components, 1, "flip {n}");
                needed += 1;
            }
            Err(e) => panic!("flip {n}: unexpected error class: {e}"),
        }
        let (ds, _) = build(n);
        let opts = ExecOptions::with_corruption_policy(CorruptionPolicy::Degrade);
        let res = execute(&[&ds], &window(-1, 120), &opts).unwrap();
        assert_eq!(res.stats.quarantined_components, 1, "flip {n}");
        let got = ids(&res.rows);
        let (damaged_rows, clean_rows): (Vec<i64>, Vec<i64>) = got.iter().partition(|&&i| i < 40);
        assert_eq!(clean_rows, (100..120).collect::<Vec<_>>(), "flip {n}: the clean rows, all");
        assert!(damaged_rows.len() < 40, "flip {n}: the damaged block is not served");
        assert_eq!(damaged_rows, (0..damaged_rows.len() as i64).collect::<Vec<_>>(), "flip {n}");
    }
    assert!(needed > 0, "no flip landed in a row block");
    assert!(tail > 0, "no flip landed in the component tail");
}

/// A WAL tail torn mid-append (the crash landed a prefix of the record):
/// replay must stop at the torn record, losing only the unacked write.
#[test]
fn torn_wal_tail_truncates_to_last_acked_write() {
    let (ds, device) = make_dataset();
    let mut w = ds.writer();
    for i in 0..30i64 {
        w.insert(&record(i, i)).unwrap();
    }
    device.set_fault_plan(FaultPlan::new(5).tear_nth_write(1));
    let torn = w.insert(&record(99, 99));
    assert!(torn.is_err(), "a torn append must not be acknowledged");
    drop(w);
    device.clear_fault_plan();

    ds.simulate_crash();
    let (_, replayed) = ds.recover().unwrap();
    assert_eq!(replayed, 30, "replay stops exactly at the torn record");
    ds.flush().unwrap();
    let got = contents(&ds);
    assert_eq!(got.len(), 30);
    assert!(!got.contains_key(&99), "the torn write must stay lost");
}

/// Crash between merge-write and install: the merged component is on disk
/// without its validity bit and the inputs were never spliced out.
/// Recovery drops the half-merged component and serves from the inputs.
#[test]
fn crash_mid_merge_keeps_inputs_drops_half_merged() {
    let (ds, _device) = make_dataset();
    for lo in [0i64, 40] {
        let mut w = ds.writer();
        for i in lo..lo + 40 {
            w.insert(&record(i, i)).unwrap();
        }
        drop(w);
        ds.flush().unwrap();
    }
    assert_eq!(ds.primary().components().len(), 2);

    ds.primary().force_full_merge_crashing_before_validity().unwrap();
    assert_eq!(ds.primary().components().len(), 3, "half-merged component on disk");

    ds.simulate_crash();
    let (removed, replayed) = ds.recover().unwrap();
    assert_eq!(removed, 1, "exactly the invalid merged component is dropped");
    assert_eq!(replayed, 0, "both inputs were durably flushed");
    assert_eq!(ds.primary().components().len(), 2, "inputs survive recovery");

    let expected: BTreeMap<i64, i64> = (0..80).map(|i| (i, i)).collect();
    assert_eq!(contents(&ds), expected);

    // And the re-run merge completes normally on the survivors.
    ds.force_full_merge().unwrap();
    assert_eq!(ds.primary().components().len(), 1);
    assert_eq!(contents(&ds), expected);
}
