//! Concurrency stress suite: multi-threaded ingestion with concurrent
//! readers while background flush/merge pipelines run.
//!
//! What "correct" means here:
//!
//! * **No torn records** — every record a reader materializes decodes
//!   cleanly and is internally consistent (its payload matches its key).
//! * **No resurrection** — once a reader observes a deleted-forever key as
//!   absent, no later read may see it again (anti-matter never un-happens).
//! * **Snapshot sanity** — scans return strictly ascending unique keys.
//! * **Oracle equivalence** — after quiescing, the concurrent run's final
//!   state equals a single-threaded synchronous run of the same operations.
//!
//! Every test runs under a watchdog: a deadlock fails fast with a panic
//! instead of hanging the suite (CI also wraps the binary in `timeout`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use asterix_tc::prelude::*;

// ---------------------------------------------------------------------
// Watchdog: fail fast instead of hanging on a deadlock
// ---------------------------------------------------------------------

fn with_watchdog<F: FnOnce() + Send + 'static>(limit: Duration, name: &str, body: F) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("stress-{name}"))
        .spawn(move || {
            body();
            let _ = tx.send(());
        })
        .expect("spawn stress body");
    match rx.recv_timeout(limit) {
        // Completed — or panicked (sender dropped mid-unwind): join either
        // way so a real assertion failure propagates with its own message
        // instead of being misreported as a deadlock.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: exceeded {limit:?} — possible deadlock in the flush/merge pipeline")
        }
    }
}

// ---------------------------------------------------------------------
// Workload helpers
// ---------------------------------------------------------------------

fn record(pk: i64, version: u64) -> Value {
    parse(&format!(
        r#"{{"id": {pk}, "version": {version}, "name": "user-{pk}", "nested": {{"score": {}, "tags": ["a", "b"]}}}}"#,
        pk % 97
    ))
    .unwrap()
}

fn stress_config(background: bool) -> DatasetConfig {
    DatasetConfig::new("Stress", "id")
        .with_format(StorageFormat::Inferred)
        .with_memtable_budget(8 * 1024) // tiny: constant flush pressure
        .with_merge_policy(MergePolicy::Prefix {
            max_mergeable_size: 16 * 1024 * 1024,
            max_tolerable_components: 3,
        })
        .with_background_maintenance(background)
}

fn make_dataset(background: bool) -> Dataset {
    Dataset::new(
        stress_config(background),
        Arc::new(Device::new(DeviceProfile::RAM)),
        Arc::new(BufferCache::new(4096)),
    )
}

/// Check one materialized record for internal consistency ("not torn").
fn assert_untorn(v: &Value) {
    let pk = v.get_field("id").and_then(Value::as_i64).expect("record must carry its id");
    assert_eq!(
        v.get_field("name").and_then(Value::as_str),
        Some(format!("user-{pk}")).as_deref(),
        "payload must match its key — torn record?"
    );
    let nested = v.get_field("nested").expect("nested object present");
    assert_eq!(nested.get_field("score").and_then(Value::as_i64), Some(pk % 97));
}

// ---------------------------------------------------------------------
// 1. Readers vs. one writer with background flush/merge
// ---------------------------------------------------------------------

#[test]
fn concurrent_reads_during_background_ingest() {
    with_watchdog(Duration::from_secs(120), "reads-during-ingest", || {
        const PRELOADED: i64 = 400; // keys 0..400 inserted up front
        const DELETED: i64 = 200; // keys 0..200 deleted during the run, never reinserted
        const UPSERTED: i64 = 300; // keys 300..400 upserted during the run
        const FRESH: i64 = 1200; // keys 1000..2200 inserted during the run
        let ds = Arc::new(make_dataset(true));
        {
            let mut w = ds.writer();
            for pk in 0..PRELOADED {
                w.insert(&record(pk, 0)).unwrap();
            }
        }
        ds.flush().unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let scan_rounds = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            // The single writer: fresh inserts, upserts of stable keys, and
            // deletes of the doomed range, interleaved.
            let writer_ds = Arc::clone(&ds);
            let writer_stop = Arc::clone(&stop);
            scope.spawn(move || {
                // The writer thread claims the partition's token: a second
                // claimant anywhere in this scope would panic, which is
                // exactly the one-writer contract under test.
                let mut w = writer_ds.writer();
                let mut deleted = 0i64;
                for i in 0..FRESH {
                    w.insert(&record(1000 + i, 1)).unwrap();
                    if i % 3 == 0 && deleted < DELETED {
                        assert!(w.delete(deleted).unwrap(), "doomed key existed");
                        deleted += 1;
                    }
                    if i % 7 == 0 {
                        // Upserts churn schema counters under the readers.
                        w.upsert(&record(UPSERTED + (i % (PRELOADED - UPSERTED)), 2)).unwrap();
                    }
                }
                assert_eq!(deleted, DELETED);
                writer_stop.store(true, Ordering::SeqCst);
            });

            // Readers: point gets + full scans, each validating snapshots.
            for r in 0..3i64 {
                let reader_ds = Arc::clone(&ds);
                let reader_stop = Arc::clone(&stop);
                let rounds = Arc::clone(&scan_rounds);
                scope.spawn(move || {
                    // Keys this reader has seen dead stay dead (deletes are
                    // never followed by reinsertions for 0..DELETED).
                    let mut seen_dead = vec![false; DELETED as usize];
                    while !reader_stop.load(Ordering::SeqCst) {
                        for pk in ((r * 13)..PRELOADED).step_by(29) {
                            match reader_ds.get(pk).unwrap() {
                                Some(v) => {
                                    assert_untorn(&v);
                                    assert!(
                                        pk >= DELETED || !seen_dead[pk as usize],
                                        "key {pk} resurrected after observed deletion"
                                    );
                                }
                                None => {
                                    // Deleted keys may (and eventually do)
                                    // read absent; upserted keys may read
                                    // absent transiently mid-upsert
                                    // (delete-then-insert is not atomic —
                                    // documented read skew). Untouched
                                    // keys must never disappear.
                                    assert!(
                                        !(DELETED..UPSERTED).contains(&pk),
                                        "untouched key {pk} must stay live"
                                    );
                                    if pk < DELETED {
                                        seen_dead[pk as usize] = true;
                                    }
                                }
                            }
                        }
                        let values = reader_ds.scan_values().unwrap();
                        let mut prev = i64::MIN;
                        for v in &values {
                            assert_untorn(v);
                            let pk = v.get_field("id").unwrap().as_i64().unwrap();
                            assert!(pk > prev, "scan keys must be strictly ascending");
                            prev = pk;
                            if pk < DELETED {
                                assert!(
                                    !seen_dead[pk as usize],
                                    "scan resurrected key {pk} after observed deletion"
                                );
                            }
                        }
                        rounds.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(
            scan_rounds.load(Ordering::Relaxed) >= 3,
            "readers must have made progress while the writer ran"
        );

        // Quiesce and compare against a synchronous single-threaded oracle.
        ds.await_quiescent();
        ds.flush().unwrap();
        let stats = ds.lsm_stats();
        assert!(stats.flushes > 0, "background flushes must have fired");
        assert_eq!(stats.writer_stall_nanos, 0, "writer never flushed inline");

        let oracle = make_dataset(false);
        let mut ow = oracle.writer();
        for pk in 0..PRELOADED {
            ow.insert(&record(pk, 0)).unwrap();
        }
        oracle.flush().unwrap();
        let mut deleted = 0i64;
        for i in 0..FRESH {
            ow.insert(&record(1000 + i, 1)).unwrap();
            if i % 3 == 0 && deleted < DELETED {
                ow.delete(deleted).unwrap();
                deleted += 1;
            }
            if i % 7 == 0 {
                ow.upsert(&record(UPSERTED + (i % (PRELOADED - UPSERTED)), 2)).unwrap();
            }
        }
        oracle.flush().unwrap();

        let got = ds.scan_values().unwrap();
        let expected = oracle.scan_values().unwrap();
        assert_eq!(got.len(), expected.len(), "concurrent run must match the oracle's cardinality");
        assert_eq!(got, expected, "concurrent run must equal the single-threaded oracle");
        // Schema record counts agree too (anti-schemas processed exactly once).
        assert_eq!(
            ds.schema_snapshot().unwrap().record_count(),
            oracle.schema_snapshot().unwrap().record_count()
        );
    });
}

// ---------------------------------------------------------------------
// 2. Parallel feed partitions with background maintenance vs. oracle
// ---------------------------------------------------------------------

#[test]
fn parallel_feed_with_background_flush_matches_oracle() {
    with_watchdog(Duration::from_secs(120), "parallel-feed", || {
        const N: i64 = 1500;
        let topo = ClusterConfig {
            nodes: 2,
            partitions_per_node: 2,
            device: DeviceProfile::RAM,
            cache_budget_per_node: 4 * 1024 * 1024,
        };
        let records: Vec<Value> = (0..N).map(|pk| record(pk, 0)).collect();

        let bg = Cluster::create_dataset(topo.clone(), stress_config(true));
        bg.feed(records.clone(), FeedMode::Insert).unwrap();
        // Upsert half the keys through the feed while maintenance churns.
        let updates: Vec<Value> = (0..N / 2).map(|pk| record(pk * 2, 1)).collect();
        bg.feed(updates.clone(), FeedMode::Upsert).unwrap();
        bg.await_quiescent();
        bg.flush_all().unwrap();

        let sync = Cluster::create_dataset(topo, stress_config(false));
        sync.feed(records, FeedMode::Insert).unwrap();
        sync.feed(updates, FeedMode::Upsert).unwrap();
        sync.flush_all().unwrap();

        for (p_bg, p_sync) in bg.partitions().iter().zip(sync.partitions()) {
            assert_eq!(p_bg.ingested(), p_sync.ingested());
            assert_eq!(
                p_bg.scan_values().unwrap(),
                p_sync.scan_values().unwrap(),
                "each partition must match its synchronous twin"
            );
            assert_eq!(p_bg.lsm_stats().writer_stall_nanos, 0);
        }
        for pk in (0..N).step_by(67) {
            let v = bg.get(pk).unwrap().unwrap();
            assert_untorn(&v);
            let expected_version = if pk % 2 == 0 && pk < N { 1 } else { 0 };
            assert_eq!(v.get_field("version").unwrap().as_i64(), Some(expected_version));
        }
    });
}

// ---------------------------------------------------------------------
// 3. Crash while a background flush is in flight (threaded extension of
//    the lsm-level `flush_crashing_before_validity` coverage)
// ---------------------------------------------------------------------

#[test]
fn crash_during_threaded_flush_replays_unflushed_suffix() {
    with_watchdog(Duration::from_secs(60), "crash-mid-flush", || {
        let ds = Arc::new(make_dataset(false));
        let mut w = ds.writer();
        // C0: a durable component.
        w.insert(&record(1, 0)).unwrap();
        ds.flush().unwrap();
        // These land in the memtable → frozen by the crashing flush.
        w.insert(&record(2, 0)).unwrap();
        w.insert(&record(3, 0)).unwrap();

        // The flush runs on another thread and "crashes" before setting the
        // validity bit; meanwhile the writer keeps appending — its writes go
        // to the rotated (active) WAL segment.
        let flusher = Arc::clone(&ds);
        let crashing = std::thread::spawn(move || {
            flusher.primary().flush_crashing_before_validity();
        });
        crashing.join().unwrap();
        w.insert(&record(4, 0)).unwrap(); // post-freeze write, active WAL only
        drop(w);

        assert_eq!(ds.primary().components().len(), 2, "invalid component is on disk");

        // Process crash: all in-memory state vanishes; recovery drops the
        // invalid component and replays BOTH WAL segments — the frozen one
        // (covering the crashed flush) and the active one (covering the
        // post-freeze write).
        ds.simulate_crash();
        let (removed, replayed) = ds.recover().unwrap();
        assert_eq!(removed, 1, "invalid component discarded");
        assert_eq!(replayed, 3, "exactly the un-flushed suffix: keys 2, 3, 4");
        for pk in 1..=4 {
            let v = ds.get(pk).unwrap().unwrap_or_else(|| panic!("key {pk} lost in recovery"));
            assert_untorn(&v);
        }
        assert_eq!(ds.scan_values().unwrap().len(), 4);

        // Normal operation resumes: the restored memtable flushes as C1.
        ds.flush().unwrap();
        assert_eq!(ds.primary().components().last().unwrap().id().to_string(), "C1");
        assert_eq!(ds.scan_values().unwrap().len(), 4);
    });
}

#[test]
fn crash_after_background_flush_loses_nothing() {
    with_watchdog(Duration::from_secs(60), "crash-after-bg-flush", || {
        // A *completed* background flush must be durable: crash right after
        // quiescing and nothing replays from the WAL except post-flush writes.
        let ds = make_dataset(true);
        let mut w = ds.writer();
        for pk in 0..300 {
            w.insert(&record(pk, 0)).unwrap();
        }
        ds.flush_async().unwrap();
        ds.await_quiescent();
        let flushed_components = ds.primary().components().len();
        assert!(flushed_components >= 1);
        w.insert(&record(9000, 0)).unwrap(); // not flushed
        drop(w);

        ds.simulate_crash();
        let (removed, replayed) = ds.recover().unwrap();
        assert_eq!(removed, 0, "background-flushed components are valid");
        assert!(
            replayed >= 1,
            "the un-flushed suffix (at least key 9000) replays from the active segment"
        );
        assert!(ds.get(9000).unwrap().is_some());
        assert_eq!(ds.scan_values().unwrap().len(), 301);
    });
}

// ---------------------------------------------------------------------
// 4. Concurrent scans vs. merges: snapshots survive component swaps
// ---------------------------------------------------------------------

#[test]
fn scans_stay_consistent_across_concurrent_merges() {
    with_watchdog(Duration::from_secs(60), "scans-vs-merges", || {
        let ds = Arc::new(make_dataset(false));
        const N: i64 = 600;
        let mut w = ds.writer();
        for pk in 0..N {
            w.insert(&record(pk, 0)).unwrap();
            if pk % 100 == 99 {
                ds.flush().unwrap();
            }
        }
        drop(w);
        ds.flush().unwrap();
        assert!(ds.primary().components().len() >= 2, "need components to merge");

        std::thread::scope(|scope| {
            let merger = Arc::clone(&ds);
            scope.spawn(move || {
                for _ in 0..3 {
                    merger.force_full_merge().unwrap();
                }
            });
            for _ in 0..3 {
                let reader = Arc::clone(&ds);
                scope.spawn(move || {
                    for _ in 0..25 {
                        let values = reader.scan_values().unwrap();
                        assert_eq!(values.len(), N as usize, "merge must never drop/double rows");
                        for v in values.iter().step_by(53) {
                            assert_untorn(v);
                        }
                    }
                });
            }
        });
        assert_eq!(ds.primary().components().len(), 1);
        assert_eq!(ds.scan_values().unwrap().len(), N as usize);
    });
}

/// Same shape as above, but the reorganization is policy-driven rather
/// than a manual full merge: leveled and tiered policies pick ranges that
/// need not start at the oldest component (spliced in by `Arc` identity),
/// and the background worker runs them to fixpoint while readers scan. No
/// policy may drop, double, or tear a row.
#[test]
fn scans_stay_consistent_under_policy_driven_merges() {
    for policy in [
        MergePolicy::Leveled { level0_components: 3, base_bytes: 16 * 1024, fanout: 4 },
        MergePolicy::Tiered { base_bytes: 16 * 1024, size_ratio: 4, min_tier_runs: 3 },
    ] {
        with_watchdog(Duration::from_secs(60), "scans-vs-policy-merges", move || {
            let ds = Arc::new(Dataset::new(
                stress_config(true).with_merge_policy(policy),
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::new(BufferCache::new(4096)),
            ));
            const N: i64 = 600;
            std::thread::scope(|scope| {
                let writer = Arc::clone(&ds);
                scope.spawn(move || {
                    // The 8 KiB budget keeps flushes firing, so the worker
                    // re-evaluates the policy throughout the ingest.
                    let mut w = writer.writer();
                    for pk in 0..N {
                        w.insert(&record(pk, 0)).unwrap();
                    }
                });
                for _ in 0..3 {
                    let reader = Arc::clone(&ds);
                    scope.spawn(move || {
                        for _ in 0..25 {
                            for v in reader.scan_values().unwrap().iter().step_by(29) {
                                assert_untorn(v);
                            }
                        }
                    });
                }
            });
            ds.await_quiescent();
            ds.flush().unwrap();
            assert_eq!(ds.scan_values().unwrap().len(), N as usize, "policy dropped rows");
            let stats = ds.lsm_stats();
            assert!(stats.merges > 0, "{} never reorganized under stress", policy.name());
            assert_eq!(stats.components_retired, 0, "merging policies are lossless");
        });
    }
}

// ---------------------------------------------------------------------
// 4b. Columnar: scans vs. a writer vs. column-to-column merges
// ---------------------------------------------------------------------

/// One Columnar partition under background maintenance: a writer inserting,
/// upserting and deleting, the worker flushing and merging column to column
/// behind it, and three readers scanning through the batched engine — typed
/// columns for one, a residual path too for the others. Every tree mutation
/// is atomic and every scan reads one snapshot, so each scan must equal the
/// oracle after exactly `k` operations, for some `k` between the count the
/// writer had published when the scan began and one past the count it had
/// published when the scan ended (the operation in flight).
///
/// Halfway through, the records start to carry an array of objects under
/// field names no earlier record had, each holding an array (nested
/// repetition, so no column takes them): the dictionary grows while the
/// column set stays as it was. Merges from then on copy residual rows compacted
/// against a shorter dictionary into components whose blob has the longer
/// one, while a reader's snapshot still holds — and decodes `extras` from —
/// the components they replace.
#[test]
fn columnar_scans_equal_an_oracle_prefix_across_column_merges() {
    use std::collections::BTreeMap;
    use tc_adm::path::parse_path;
    use tc_query::{AccessStrategy, ScanSpec};

    #[derive(Clone, Copy)]
    enum Op {
        Put(i64),
        Delete(i64),
    }
    /// Operation `i` writes version `i`: a fresh id, a newer version of an
    /// older id, or a delete (of an id that may be gone already).
    fn op(i: u64) -> Op {
        let id = i as i64;
        match i % 11 {
            7 => Op::Delete(id / 3),
            3 | 9 => Op::Put(id / 2),
            _ => Op::Put(id),
        }
    }
    fn apply(state: &mut BTreeMap<i64, u64>, i: u64) {
        match op(i) {
            Op::Put(id) => state.insert(id, i),
            Op::Delete(id) => state.remove(&id),
        };
    }
    const N: u64 = 3000;
    /// What operation `version` writes under `id`.
    fn evolving(id: i64, version: u64) -> Value {
        let mut v = record(id, version);
        if version >= N / 2 {
            let Value::Object(fields) = &mut v else { unreachable!() };
            // An array in each item keeps `extras` out of the repeated
            // columns: it stays in the residual.
            let inner = Value::Array(vec![Value::from(id)]);
            let later = Value::object([(format!("later_{}", version % 7), inner)]);
            fields.push(("extras".into(), Value::Array(vec![later])));
        }
        v
    }

    with_watchdog(Duration::from_secs(120), "columnar-scans-vs-merges", || {
        let ds = Arc::new(Dataset::new(
            stress_config(true).with_format(StorageFormat::Columnar),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        ));
        let applied = Arc::new(AtomicU64::new(0));
        let scans = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let (writer_ds, published) = (Arc::clone(&ds), Arc::clone(&applied));
            scope.spawn(move || {
                let mut w = writer_ds.writer();
                for i in 0..N {
                    match op(i) {
                        Op::Put(id) => w.upsert(&evolving(id, i)).unwrap(),
                        Op::Delete(id) => {
                            w.delete(id).unwrap();
                        }
                    }
                    published.store(i + 1, Ordering::SeqCst);
                }
            });
            for paths in [
                &["id", "version"][..],
                &["id", "version", "nested.tags[*]"],
                &["id", "version", "extras"],
            ] {
                let (reader_ds, published, scans) =
                    (Arc::clone(&ds), Arc::clone(&applied), Arc::clone(&scans));
                let query = Query {
                    scan: ScanSpec::all_early(
                        paths.iter().map(|p| parse_path(p)).collect(),
                        AccessStrategy::Consolidated,
                    ),
                    ops: vec![],
                };
                scope.spawn(move || loop {
                    let lo = published.load(Ordering::SeqCst);
                    let res = execute(&[&*reader_ds], &query, &ExecOptions::default()).unwrap();
                    let hi = (published.load(Ordering::SeqCst) + 1).min(N);
                    let got: BTreeMap<i64, u64> = res
                        .rows
                        .iter()
                        .map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap() as u64))
                        .collect();
                    assert_eq!(got.len(), res.rows.len(), "a scan returned an id twice");
                    for row in res.rows.iter().filter(|_| paths.contains(&"extras")) {
                        let written =
                            evolving(row[0].as_i64().unwrap(), got[&row[0].as_i64().unwrap()]);
                        let extras = written.get_field("extras").cloned().unwrap_or(Value::Missing);
                        assert_eq!(row[2], extras, "a residual field decoded under another name");
                    }
                    let mut oracle = BTreeMap::new();
                    (0..lo).for_each(|i| apply(&mut oracle, i));
                    let mut k = lo;
                    while oracle != got {
                        assert!(k < hi, "scan matches no oracle prefix in {lo}..={hi}");
                        apply(&mut oracle, k);
                        k += 1;
                    }
                    scans.fetch_add(1, Ordering::SeqCst);
                    if lo == N {
                        break;
                    }
                });
            }
        });
        ds.await_quiescent();
        let stats = ds.lsm_stats();
        assert!(scans.load(Ordering::SeqCst) >= 6, "readers scanned while the writer ran");
        assert!(stats.merges >= 3, "only {} merges under the scans", stats.merges);
        let counters = ds.columnar_counters().unwrap();
        assert!(counters.rows_column_merged() > 0);
        assert_eq!(
            counters.rows_reconstructed(),
            0,
            "a stable schema: no merge and no column scan pivoted a row"
        );

        ds.flush().unwrap();
        let mut oracle = BTreeMap::new();
        (0..N).for_each(|i| apply(&mut oracle, i));
        let expected: Vec<Value> = oracle.iter().map(|(id, v)| evolving(*id, *v)).collect();
        assert_eq!(ds.scan_values().unwrap(), expected);
    });
}

// ---------------------------------------------------------------------
// 4c. The schema is published with its component, never before
// ---------------------------------------------------------------------

/// A flush publishes the schema it inferred in the section that installs
/// its component (§3.1). With background maintenance and no merges, a
/// writer inserts records that each bring a new field name while a reader
/// reads the schema's record count and then the entries of the installed
/// components: the count never runs ahead of what is installed.
#[test]
fn published_schema_never_runs_ahead_of_installed_components() {
    with_watchdog(Duration::from_secs(60), "schema-vs-components", || {
        const N: i64 = 400;
        let ds = Dataset::new(
            stress_config(true).with_merge_policy(MergePolicy::NoMerge),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut w = ds.writer();
                for pk in 0..N {
                    let src = format!(r#"{{"id": {pk}, "name": "user-{pk}", "field_{pk}": {pk}}}"#);
                    w.insert(&parse(&src).unwrap()).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            scope.spawn(|| loop {
                let finished = done.load(Ordering::SeqCst);
                let counted = ds.schema_snapshot().unwrap().record_count();
                let installed: u64 =
                    ds.primary().components().iter().map(|c| c.num_entries()).sum();
                assert!(counted <= installed, "schema counts {counted}, installed {installed}");
                if finished {
                    break;
                }
                // Leave the CPU to the tests running beside this one.
                std::thread::yield_now();
            });
        });
        ds.await_quiescent();
        ds.flush().unwrap();
        assert!(ds.lsm_stats().flushes > 1, "background flushes must have fired");
        assert_eq!(ds.schema_snapshot().unwrap().record_count(), N as u64);
    });
}

// ---------------------------------------------------------------------
// 5. Repeated short runs: shake out interleavings (the suite is also run
//    20× in CI; this in-test loop catches cheap orderings every run)
// ---------------------------------------------------------------------

#[test]
fn repeated_short_stress_rounds() {
    with_watchdog(Duration::from_secs(120), "repeated-rounds", || {
        for round in 0..8 {
            let ds = Arc::new(make_dataset(true));
            let base = round * 10_000;
            std::thread::scope(|scope| {
                let writer = Arc::clone(&ds);
                scope.spawn(move || {
                    let mut w = writer.writer();
                    for i in 0..250 {
                        w.insert(&record(base + i, 0)).unwrap();
                        if i % 5 == 4 {
                            w.delete(base + i - 2).unwrap();
                        }
                    }
                });
                let reader = Arc::clone(&ds);
                scope.spawn(move || {
                    for _ in 0..15 {
                        for v in reader.scan_values().unwrap() {
                            assert_untorn(&v);
                        }
                    }
                });
            });
            ds.await_quiescent();
            ds.flush().unwrap();
            // 250 inserts, 50 deletes.
            assert_eq!(ds.scan_values().unwrap().len(), 200, "round {round}");
        }
    });
}
