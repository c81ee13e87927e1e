//! The partitioned query executor.
//!
//! Mirrors the paper's Hyracks job shape (Fig 5): every partition runs the
//! same pipeline over its own data; blocking operators (group-by, order-by,
//! distinct) introduce a non-local exchange, at which point (a) each
//! partition's schema is broadcast (§3.4.1 — accounted in
//! [`ExecStats::broadcast_bytes`]) and (b) partial results meet at a
//! coordinator that merges aggregate states / sorted runs and runs the rest
//! of the plan.
//!
//! Both stages run the same push pipeline (`crate::pipeline`). A partition's
//! scan is its source: each engine's scan pushes every surviving row, owned,
//! as soon as it has built it, through the streaming operators before the
//! first blocking operator into that operator's local side: a group-by folds
//! rows into partial states, a top-k sorts, a distinct dedupes, a limit
//! keeps the first k. Once a limit is full (`Pipeline::room` is `Some(0)`),
//! the scan stops pulling records — one rule for every scan and for the
//! coordinator, whatever stages sit in front of the limit. The coordinator
//! pushes the partitions' outputs into the blocking operator's exchange
//! side, and the result through the operators after it, one blocking
//! operator at a time. Rows move between stages by reference; a value is
//! copied only where something reads it again.

use tc_adm::{AdmError, Value};
use tuple_compactor::{Dataset, RecordDecoder};

use crate::batch::{self, ColumnSet};
use crate::pipeline::{LocalOutput, Pipeline};
use crate::plan::{Op, Query, ScanSpec};
use crate::zone::ZonePredicate;

/// A row of values.
pub type Row = Vec<Value>;

/// How a partition's scan pipeline is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Chunked scan → filter → project over column buffers with a
    /// selection vector and lazy decode (see [`crate::batch`]). Operators
    /// past the scan still see rows — the batched/row split lives entirely
    /// inside the scan, which is where the paper's pushdown applies.
    Batched,
    /// One full row per record before the filter runs — the pre-batching
    /// baseline, kept as the reference the batched engine is tested
    /// against.
    Row,
}

/// What a query does when a scan source proves corrupt — a component
/// already quarantined by an earlier read, or a checksum failure caught
/// mid-scan (which quarantines the component as a side effect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionPolicy {
    /// Fail the query with a typed [`AdmError::Storage`]. The default: a
    /// partial answer is never silently presented as a complete one.
    #[default]
    Fail,
    /// Return the rows that survived and report how many components were
    /// skipped or cut short in [`ExecStats::quarantined_components`] —
    /// graceful degradation for callers that prefer partial availability.
    Degrade,
}

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Run partitions on threads (the paper's one-executor-per-partition
    /// parallelism); otherwise serially on the caller thread (Fig 22b's
    /// 1-core configuration).
    pub parallel: bool,
    /// Scan pipeline implementation.
    pub engine: Engine,
    /// Records per chunk for [`Engine::Batched`].
    pub batch_size: usize,
    /// Behavior when a scan source is corrupt.
    pub corruption_policy: CorruptionPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: true,
            engine: Engine::Batched,
            batch_size: batch::DEFAULT_BATCH_SIZE,
            corruption_policy: CorruptionPolicy::default(),
        }
    }
}

impl ExecOptions {
    /// Serial or parallel, other options at their defaults.
    pub fn with_parallel(parallel: bool) -> Self {
        ExecOptions { parallel, ..Default::default() }
    }

    /// Pick the scan engine, other options at their defaults.
    pub fn with_engine(engine: Engine) -> Self {
        ExecOptions { engine, ..Default::default() }
    }

    /// Pick the corruption policy, other options at their defaults.
    pub fn with_corruption_policy(policy: CorruptionPolicy) -> Self {
        ExecOptions { corruption_policy: policy, ..Default::default() }
    }
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Records the scans consumed, summed over partitions. A scan feeding a
    /// `LIMIT` counts the records up to and including the one whose row
    /// filled its partition's limit, and none after it — the same count in
    /// both engines, whatever filter, stages or batch size sit between.
    pub rows_scanned: u64,
    /// Payload bytes of the records scanned; for rows answered from column
    /// pages, the bytes of the blocks read for them.
    pub bytes_scanned: u64,
    /// Rows in the result.
    pub rows_output: u64,
    /// Schema bytes shipped for queries with a non-local exchange (§3.4.1).
    pub broadcast_bytes: u64,
    /// Partitions the query ran over.
    pub partitions: usize,
    /// Components skipped (pre-quarantined) or cut short (mid-scan checksum
    /// failure) across all partitions. Non-zero only under
    /// [`CorruptionPolicy::Degrade`] — the `Fail` policy turns the first
    /// one into an error instead.
    pub quarantined_components: u64,
    /// Row blocks and amax row groups the scan filter's zone maps let the
    /// scan leave unread, summed over partitions (see [`crate::zone`]).
    pub units_skipped: u64,
    /// Rows whose collection reached the group-by as a typed `f64` slice —
    /// folded by a primitive loop, no `Value` built per item — summed over
    /// partitions: a stored record's matches (`getValues`) or an amax row's
    /// repeated `double` column, at rest or live. The row engine folds
    /// `Value`s only.
    pub typed_fold_rows: u64,
    /// Batches the batched engine's snapshot scan ran, summed over
    /// partitions: a batch ends at the batch size or once its payloads
    /// reach 64 KiB ([`crate::batch`]). The row engine and the at-rest
    /// columnar scan run none.
    pub batches: u64,
}

/// Rows + stats.
#[derive(Debug)]
pub struct QueryResult {
    pub rows: Vec<Row>,
    pub stats: ExecStats,
}

/// Execute a query over a set of dataset partitions.
pub fn execute(
    partitions: &[&Dataset],
    query: &Query,
    opts: &ExecOptions,
) -> Result<QueryResult, AdmError> {
    let mut stats = ExecStats { partitions: partitions.len(), ..Default::default() };

    // Schema broadcast: each partition ships its schema to every other
    // executor before a repartitioning query starts (§3.4.1). The decoders
    // below carry the dictionaries; here we account the traffic.
    if query.has_nonlocal_exchange() && partitions.len() > 1 {
        for ds in partitions {
            if let Some(schema) = ds.schema_snapshot() {
                stats.broadcast_bytes +=
                    schema.serialize().len() as u64 * (partitions.len() as u64 - 1);
            }
        }
    }

    let locals = run_partitions(partitions, opts.parallel, |ds| run_partition(ds, query, opts));
    let rows = coordinate(&query.ops, locals, &mut stats)?;
    stats.rows_output = rows.len() as u64;
    Ok(QueryResult { rows, stats })
}

/// Run `f` once per partition: on a thread each (the paper's
/// one-executor-per-partition parallelism) or serially on the caller
/// thread. Results come back in partition order either way.
fn run_partitions<P: Sync, T: Send>(
    partitions: &[P],
    parallel: bool,
    f: impl Fn(&P) -> Result<T, AdmError> + Sync,
) -> Vec<Result<T, AdmError>> {
    if parallel && partitions.len() > 1 {
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = partitions.iter().map(|p| scope.spawn(move || f(p))).collect();
            handles.into_iter().map(|h| join_partition(h.join())).collect()
        })
    } else {
        partitions.iter().map(f).collect()
    }
}

/// The coordinator. The plan splits at its first blocking operator — the
/// first that needs a global view; `Limit` counts too: each partition
/// truncates locally, but only the coordinator sees the union, so the limit
/// is re-applied here (k rows in total, not k per partition). The
/// partitions' outputs meet at that operator's exchange side, and the
/// operators after it run as the global stage.
fn coordinate(
    ops: &[Op],
    locals: Vec<Result<(LocalOutput, ExecStats), AdmError>>,
    stats: &mut ExecStats,
) -> Result<Vec<Row>, AdmError> {
    let (mut exchange, mut global_ops) = Pipeline::exchange(ops);
    for local in locals {
        let (out, part) = local?;
        stats.rows_scanned += part.rows_scanned;
        stats.bytes_scanned += part.bytes_scanned;
        stats.quarantined_components += part.quarantined_components;
        stats.units_skipped += part.units_skipped;
        stats.typed_fold_rows += part.typed_fold_rows;
        stats.batches += part.batches;
        match out {
            LocalOutput::Rows(rows) => exchange.push_all(rows),
            LocalOutput::Grouped(partials) => exchange.merge(partials)?,
        }
    }
    let mut rows = exchange.finish();
    while !global_ops.is_empty() {
        let (mut step, rest) = Pipeline::global(global_ops);
        step.push_all(rows);
        rows = step.finish();
        global_ops = rest;
    }
    Ok(rows)
}

/// Convert a partition thread's outcome into the caller's result: a panic
/// fails the query (or the feed) with an [`AdmError`], not the process.
pub fn join_partition<T>(joined: std::thread::Result<Result<T, AdmError>>) -> Result<T, AdmError> {
    match joined {
        Ok(res) => res,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(AdmError::execution(format!("partition thread panicked: {msg}")))
        }
    }
}

/// Scan + local pipeline for one partition, and the partition's scan
/// counters.
fn run_partition(
    ds: &Dataset,
    query: &Query,
    opts: &ExecOptions,
) -> Result<(LocalOutput, ExecStats), AdmError> {
    let scan = &query.scan;
    let mut pipeline = Pipeline::local(&query.ops);
    let zones = ZonePredicate::of(scan);
    // A partition resting in the columnar layout can answer batched scans
    // without pivoting records back into rows at all; `None` (shape not
    // covered, or partition not at rest) falls through to the generic
    // snapshot scan, before any row is pushed.
    if opts.engine == Engine::Batched {
        let policy = opts.corruption_policy;
        if let Some(stats) =
            crate::columnar::try_scan_columnar(ds, scan, zones.as_ref(), &mut pipeline, policy)?
        {
            return Ok((pipeline.finish_local(), stats));
        }
    }
    // One pruned snapshot both engines read, so they skip the same units.
    // Decoder and scan are captured atomically: with background flushes
    // running, a decoder taken separately could miss dictionary codes the
    // scan's records need (or carry prunes ahead of the snapshot).
    let may_match = zones.as_ref().map(ZonePredicate::as_filter);
    let (decoder, mut iter) = ds.snapshot_scan_where(may_match.as_ref().map(|f| f as _));
    let mut stats = ExecStats { units_skipped: iter.units_skipped(), ..Default::default() };
    match opts.engine {
        Engine::Batched => batch::scan_batched(
            &decoder,
            &mut iter,
            scan,
            opts.batch_size,
            &mut pipeline,
            &mut stats,
        )?,
        Engine::Row => scan_rows(&decoder, &mut iter, scan, &mut pipeline, &mut stats)?,
    }
    // Post-scan health check: the merged scan degrades (skips quarantined
    // components, stops a source at the first checksum failure) instead of
    // panicking; whether that degradation is acceptable is the query's
    // policy decision, made here.
    let health = iter.take_health();
    stats.quarantined_components = health.degraded().len() as u64;
    if opts.corruption_policy == CorruptionPolicy::Fail {
        if let Some(e) = health.first_error() {
            return Err(AdmError::storage(e.to_string(), e.is_transient()));
        }
    }
    Ok((pipeline.finish_local(), stats))
}

/// The row-at-a-time scan: materialize every early column per record, then
/// filter, then late columns for survivors — through the same column sets
/// (one path evaluator each, reused across the scan) as the batched engine.
/// Each survivor goes into `pipeline` as it is built.
fn scan_rows(
    decoder: &RecordDecoder,
    iter: &mut tc_lsm::iter::MergedScan,
    scan: &ScanSpec,
    pipeline: &mut Pipeline<'_>,
    stats: &mut ExecStats,
) -> Result<(), AdmError> {
    let mut early = ColumnSet::new(decoder, scan.paths.clone(), scan.access, false);
    let mut late = ColumnSet::new(decoder, scan.late_paths.clone(), scan.access, false);
    while pipeline.room() != Some(0) {
        let Some((_, _, payload)) = iter.next_lent() else { break };
        stats.rows_scanned += 1;
        stats.bytes_scanned += payload.len() as u64;
        let mut row = early.take_row(&payload)?;
        if let Some(pred) = &scan.filter {
            if !pred.eval_bool(&row) {
                continue;
            }
        }
        row.extend(late.take_row(&payload)?);
        pipeline.push(&mut row);
    }
    Ok(())
}

/// [`execute`] over partitions already scanned into rows: the local
/// pipelines and the coordinator, without the scan.
#[cfg(test)]
pub(crate) fn execute_rows(
    partitions: &[Vec<Row>],
    ops: &[Op],
    parallel: bool,
) -> Result<Vec<Row>, AdmError> {
    let locals = run_partitions(partitions, parallel, |rows| {
        let mut pipeline = Pipeline::local(ops);
        pipeline.push_all(rows.clone());
        Ok((pipeline.finish_local(), ExecStats::default()))
    });
    coordinate(ops, locals, &mut ExecStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{Agg, AggFn};
    use crate::expr::{CmpOp, Expr, Func};
    use crate::plan::AccessStrategy;
    use std::sync::Arc;
    use tc_adm::parse;
    use tc_adm::path::parse_path;
    use tc_storage::device::{Device, DeviceProfile};
    use tc_storage::BufferCache;
    use tuple_compactor::{DatasetConfig, StorageFormat};

    fn partitioned_dataset(format: StorageFormat, partitions: usize, n: i64) -> Vec<Dataset> {
        let cache = Arc::new(BufferCache::new(4096));
        let mut out: Vec<Dataset> = (0..partitions)
            .map(|_| {
                Dataset::new(
                    DatasetConfig::new("T", "id")
                        .with_format(format)
                        .with_memtable_budget(32 * 1024)
                        .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                    Arc::new(Device::new(DeviceProfile::RAM)),
                    Arc::clone(&cache),
                )
            })
            .collect();
        for i in 0..n {
            let r = parse(&format!(
                r#"{{"id": {i}, "grp": "g{}", "score": {}, "tags": [{{"text": "t{}"}}]}}"#,
                i % 3,
                i % 10,
                i % 5
            ))
            .unwrap();
            out[(i as usize) % partitions].writer().insert(&r).unwrap();
        }
        for ds in &mut out {
            ds.flush().unwrap();
        }
        out
    }

    fn refs(datasets: &[Dataset]) -> Vec<&Dataset> {
        datasets.iter().collect()
    }

    #[test]
    fn count_star_across_partitions() {
        for format in [StorageFormat::Open, StorageFormat::Inferred] {
            let ds = partitioned_dataset(format, 4, 100);
            let q = Query {
                scan: ScanSpec::all_early(vec![], AccessStrategy::Consolidated),
                ops: vec![Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] }],
            };
            let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
            assert_eq!(res.rows, vec![vec![Value::Int64(100)]], "{format:?}");
            assert_eq!(res.stats.rows_scanned, 100);
        }
    }

    #[test]
    fn group_by_merges_partials() {
        let ds = partitioned_dataset(StorageFormat::Inferred, 3, 99);
        let q = Query {
            scan: ScanSpec::all_early(
                vec![parse_path("grp"), parse_path("score")],
                AccessStrategy::Consolidated,
            ),
            ops: vec![
                Op::GroupBy {
                    keys: vec![Expr::col(0)],
                    aggs: vec![Agg::count_star(), Agg::of(AggFn::Avg, Expr::col(1))],
                },
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        assert_eq!(res.rows.len(), 3);
        for row in &res.rows {
            assert_eq!(row[1], Value::Int64(33));
        }
        assert!(res.stats.broadcast_bytes > 0, "inferred + exchange ⇒ broadcast");
    }

    #[test]
    fn filter_unnest_groupby_pipeline() {
        let ds = partitioned_dataset(StorageFormat::Inferred, 2, 50);
        // Count tag objects with text "t0" via unnest.
        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("tags")], AccessStrategy::Consolidated),
            ops: vec![
                Op::Unnest(Expr::col(0)),
                Op::Filter(Expr::eq(Expr::path(1, "text"), Expr::lit("t0"))),
                Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] },
            ],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int64(10)]]);
    }

    /// Wide records cut batches by their payload bytes, not by the record
    /// count: a batch stops once it holds 64 KiB, and a record past that
    /// alone still makes a batch of one. The answers are the row engine's.
    #[test]
    fn batches_are_cut_by_payload_bytes() {
        let wide = |n: usize, len: usize| {
            let ds = Dataset::new(
                DatasetConfig::new("W", "id").with_format(StorageFormat::Inferred),
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::new(BufferCache::new(4096)),
            );
            for i in 0..n {
                let text = "abcdefgh".repeat(len / 8 + i % 3);
                let r = Value::object([("id", Value::Int64(i as i64)), ("w", Value::string(text))]);
                ds.writer().insert(&r).unwrap();
            }
            ds.flush().unwrap();
            ds
        };
        let q = Query {
            scan: ScanSpec::all_early(
                vec![parse_path("id"), parse_path("w")],
                AccessStrategy::Consolidated,
            ),
            ops: vec![Op::Project(vec![
                Expr::col(0),
                Expr::func(Func::StrLen, vec![Expr::col(1)]),
            ])],
        };
        let run = |ds: &Dataset, engine| {
            let opts = ExecOptions { engine, parallel: false, ..Default::default() };
            execute(&[ds], &q, &opts).unwrap()
        };
        // ~40 KB each: two records reach the budget.
        let ds = wide(60, 40_000);
        let (batched, rows) = (run(&ds, Engine::Batched), run(&ds, Engine::Row));
        assert_eq!(batched.rows, rows.rows);
        assert_eq!(batched.stats.rows_scanned, 60);
        assert_eq!(batched.stats.batches, 30, "more than ⌈60 / 4096⌉ = 1 batch");
        assert_eq!(rows.stats.batches, 0);
        // Each record alone is past the budget.
        let ds = wide(5, 70_000);
        let (batched, rows) = (run(&ds, Engine::Batched), run(&ds, Engine::Row));
        assert_eq!(batched.rows, rows.rows);
        assert_eq!((batched.stats.rows_scanned, batched.stats.batches), (5, 5));
    }

    #[test]
    fn order_by_with_limit_is_global_topk() {
        let ds = partitioned_dataset(StorageFormat::Open, 4, 40);
        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("id")], AccessStrategy::Consolidated),
            ops: vec![Op::OrderBy { keys: vec![(Expr::col(0), true)], limit: Some(5) }],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        let got: Vec<i64> = res.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![39, 38, 37, 36, 35]);
    }

    #[test]
    fn scan_filter_and_late_paths() {
        let ds = partitioned_dataset(StorageFormat::Inferred, 2, 60);
        // Delayed-access plan: filter on id, extract grp only for survivors.
        let q = Query {
            scan: ScanSpec {
                paths: vec![parse_path("id")],
                filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(6i64))),
                late_paths: vec![parse_path("grp")],
                access: AccessStrategy::PerPath,
            },
            ops: vec![Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None }],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        assert_eq!(res.rows.len(), 6);
        assert_eq!(res.rows[0][1], Value::string("g0"));
        assert_eq!(res.stats.rows_scanned, 60);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let ds = partitioned_dataset(StorageFormat::Inferred, 4, 80);
        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("grp")], AccessStrategy::Consolidated),
            ops: vec![
                Op::GroupBy { keys: vec![Expr::col(0)], aggs: vec![Agg::count_star()] },
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        };
        let par = execute(&refs(&ds), &q, &ExecOptions::with_parallel(true)).unwrap();
        let ser = execute(&refs(&ds), &q, &ExecOptions::with_parallel(false)).unwrap();
        assert_eq!(par.rows, ser.rows);
    }

    #[test]
    fn distinct_across_partitions() {
        let ds = partitioned_dataset(StorageFormat::Open, 3, 30);
        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("grp")], AccessStrategy::Consolidated),
            ops: vec![
                Op::Distinct(vec![Expr::col(0)]),
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        assert_eq!(res.rows.len(), 3);
    }

    #[test]
    fn exists_filter_via_array_function() {
        let ds = partitioned_dataset(StorageFormat::Inferred, 2, 50);
        let q = Query {
            scan: ScanSpec::all_early(
                vec![parse_path("tags[*].text")],
                AccessStrategy::Consolidated,
            ),
            ops: vec![
                Op::Filter(Expr::func(
                    Func::ArrayContainsLower,
                    vec![Expr::col(0), Expr::lit("t1")],
                )),
                Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] },
            ],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int64(10)]]);
    }

    #[test]
    fn limit_is_global_across_partitions() {
        // Regression: LIMIT k used to truncate per-partition only, so
        // LIMIT 10 over 4 partitions returned up to 40 rows.
        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("id")], AccessStrategy::Consolidated),
            ops: vec![Op::Limit(10)],
        };
        for format in [StorageFormat::Inferred, StorageFormat::Columnar] {
            let ds = partitioned_dataset(format, 4, 100);
            for engine in [Engine::Batched, Engine::Row] {
                let res = execute(&refs(&ds), &q, &ExecOptions::with_engine(engine)).unwrap();
                assert_eq!(res.rows.len(), 10, "{format:?}/{engine:?}");
                // Each partition stops at the record that fills its sink.
                assert_eq!(res.stats.rows_scanned, 40, "{format:?}/{engine:?}");
            }
        }
    }

    #[test]
    fn limit_zero_reads_nothing() {
        // Regression: the at-rest scan checked the limit only after pushing
        // a row, so `LIMIT 0` read one row and faulted its column block.
        let ds = partitioned_dataset(StorageFormat::Columnar, 1, 100);
        assert!(ds[0].snapshot_columnar().is_some(), "partition must be at rest");
        let counters = ds[0].columnar_counters().unwrap();
        let scan = ScanSpec::all_early(vec![parse_path("id")], AccessStrategy::Consolidated);
        for ops in [vec![Op::Limit(0)], vec![Op::Project(vec![Expr::col(0)]), Op::Limit(0)]] {
            let q = Query { scan: scan.clone(), ops };
            for engine in [Engine::Batched, Engine::Row] {
                let faulted = counters.columns_faulted();
                let res = execute(&refs(&ds), &q, &ExecOptions::with_engine(engine)).unwrap();
                assert!(res.rows.is_empty(), "{engine:?}");
                assert_eq!(res.stats.rows_scanned, 0, "{engine:?}");
                assert_eq!(counters.columns_faulted(), faulted, "{engine:?}: faulted a column");
            }
        }
    }

    #[test]
    fn post_scan_filter_limit_stops_each_scan_when_full() {
        // An ops-level filter between scan and LIMIT still lets every scan
        // stop once its partition's sink is full, and the limit stays global.
        // Partition 0 holds every g0 record, so it stops after 7 of its 30;
        // the other two hold none and read all of theirs.
        let ds = partitioned_dataset(StorageFormat::Inferred, 3, 90);
        let q = Query {
            scan: ScanSpec::all_early(
                vec![parse_path("id"), parse_path("grp")],
                AccessStrategy::Consolidated,
            ),
            ops: vec![
                Op::Filter(Expr::eq(Expr::col(1), Expr::lit("g0"))),
                Op::Project(vec![Expr::col(0)]),
                Op::Limit(7),
            ],
        };
        for engine in [Engine::Batched, Engine::Row] {
            let res = execute(&refs(&ds), &q, &ExecOptions::with_engine(engine)).unwrap();
            assert_eq!(res.rows.len(), 7, "{engine:?}");
            assert_eq!(res.stats.rows_scanned, 7 + 30 + 30, "{engine:?}");
        }
    }

    #[test]
    fn distinct_of_computed_exprs_across_partitions() {
        // Regression: the coordinator used to re-evaluate Distinct's
        // expressions against rows the local stage had already projected —
        // here `tags[0].text` applied to a string, collapsing everything
        // into one Missing row.
        let ds = partitioned_dataset(StorageFormat::Inferred, 3, 30);
        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("tags[0]")], AccessStrategy::Consolidated),
            ops: vec![
                Op::Distinct(vec![Expr::path(0, "text")]),
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        };
        for engine in [Engine::Batched, Engine::Row] {
            let res = execute(&refs(&ds), &q, &ExecOptions::with_engine(engine)).unwrap();
            let texts: Vec<&str> = res.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
            assert_eq!(texts, vec!["t0", "t1", "t2", "t3", "t4"], "{engine:?}");
        }
    }

    #[test]
    fn partition_panic_becomes_query_error() {
        let joined = std::thread::spawn(|| -> Result<(), AdmError> {
            panic!("boom in partition");
        })
        .join();
        let err = join_partition(joined).unwrap_err();
        match err {
            AdmError::Execution(msg) => assert!(msg.contains("boom in partition"), "{msg}"),
            other => panic!("expected Execution error, got {other:?}"),
        }
    }

    #[test]
    fn batched_and_row_engines_agree_on_scan_shapes() {
        // Exercise every scan shape the batched pipeline special-cases:
        // typed vs generic filter conjuncts, lazy early columns, late
        // paths, per-path access, empty paths, and batch-boundary effects
        // (batch_size smaller than the partition).
        let plans = [
            // Typed i64 conjunct + lazily decoded non-filter column.
            Query {
                scan: ScanSpec {
                    paths: vec![parse_path("id"), parse_path("tags")],
                    filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(23i64))),
                    late_paths: vec![parse_path("grp")],
                    access: AccessStrategy::Consolidated,
                },
                ops: vec![],
            },
            // Generic (string) conjunct AND typed conjunct, per-path access.
            Query {
                scan: ScanSpec {
                    paths: vec![parse_path("grp"), parse_path("score")],
                    filter: Some(Expr::and(
                        Expr::eq(Expr::col(0), Expr::lit("g1")),
                        Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(4i64)),
                    )),
                    late_paths: vec![],
                    access: AccessStrategy::PerPath,
                },
                ops: vec![Op::Project(vec![Expr::col(1), Expr::col(0)])],
            },
            // No filter, whole-record path, unnest + group-by downstream.
            Query {
                scan: ScanSpec::all_early(
                    vec![Vec::new(), parse_path("tags")],
                    AccessStrategy::Consolidated,
                ),
                ops: vec![
                    Op::Unnest(Expr::col(1)),
                    Op::GroupBy {
                        keys: vec![Expr::path(2, "text")],
                        aggs: vec![Agg::count_star()],
                    },
                    Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
                ],
            },
            // Filter referencing a path expr (not a plain column) — fully
            // generic, with the filter column itself also projected.
            Query {
                scan: ScanSpec {
                    paths: vec![parse_path("tags[0]"), parse_path("id")],
                    filter: Some(Expr::eq(Expr::path(0, "text"), Expr::lit("t2"))),
                    late_paths: vec![],
                    access: AccessStrategy::Consolidated,
                },
                ops: vec![Op::OrderBy { keys: vec![(Expr::col(1), false)], limit: None }],
            },
        ];
        for format in [StorageFormat::Open, StorageFormat::Inferred, StorageFormat::Columnar] {
            let ds = partitioned_dataset(format, 3, 67);
            for (i, q) in plans.iter().enumerate() {
                let batched = execute(
                    &refs(&ds),
                    q,
                    &ExecOptions { batch_size: 7, ..ExecOptions::with_engine(Engine::Batched) },
                )
                .unwrap();
                let row = execute(&refs(&ds), q, &ExecOptions::with_engine(Engine::Row)).unwrap();
                assert_eq!(batched.rows, row.rows, "plan {i} on {format:?}");
                assert_eq!(batched.stats.rows_scanned, row.stats.rows_scanned, "plan {i}");
            }
        }
    }

    /// The Fig 23 Q4 shape on a resting columnar partition: a typed
    /// conjunct over a scalar column plus an array path projected from the
    /// residual. The zero-pivot path must fire (typed filter loops run,
    /// min/max stats skip whole row groups) and agree with the row engine.
    #[test]
    fn columnar_fast_path_typed_loops_and_group_skip() {
        let ds = Dataset::new(
            DatasetConfig::new("Sensors", "id")
                .with_format(StorageFormat::Columnar)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        // 3 row groups (1024 rows each by default); only the first can
        // satisfy report_time < 1_024_000.
        for i in 0..3000i64 {
            let r = parse(&format!(
                r#"{{"id": {i}, "sensor_id": {}, "report_time": {}, "readings": [{{"temp": {}.5}}]}}"#,
                i % 50,
                i * 1000,
                i % 40
            ))
            .unwrap();
            ds.writer().insert(&r).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.snapshot_columnar().is_some(), "partition must be at rest");

        let q = Query {
            scan: ScanSpec {
                paths: vec![parse_path("report_time")],
                filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1_024_000i64))),
                late_paths: vec![parse_path("sensor_id"), parse_path("readings[*].temp")],
                access: AccessStrategy::Consolidated,
            },
            ops: vec![],
        };
        let datasets = [&ds];
        let counters = ds.columnar_counters().unwrap();
        let typed = counters.typed_filter_rows();
        let skipped = counters.pages_skipped();
        let faulted = counters.columns_faulted();
        let fast = execute(&datasets, &q, &ExecOptions::with_engine(Engine::Batched)).unwrap();
        assert!(counters.typed_filter_rows() > typed, "typed primitive loop must run");
        assert!(
            counters.pages_skipped() > skipped,
            "later groups must be skipped via min/max stats"
        );
        // Column pruning: of the one group not skipped, the filter column;
        // for its survivors, the late typed column and the residual block.
        // `id` — and every block of the skipped groups — is never read.
        assert_eq!(counters.columns_faulted() - faulted, 3);
        let row = execute(&datasets, &q, &ExecOptions::with_engine(Engine::Row)).unwrap();

        assert_eq!(fast.rows, row.rows, "zero-pivot scan must match the row engine");
        assert_eq!(fast.rows.len(), 1024);
        assert_eq!(fast.rows[0][2], Value::Array(vec![Value::Double(0.5)]));
        // Skipped groups are never scanned: only the first group's rows
        // show up in the scan counter. The row engine reads a snapshot the
        // same zones pruned.
        assert_eq!(fast.stats.rows_scanned, 1024);
        assert_eq!(row.stats.rows_scanned, 1024);
        assert_eq!((fast.stats.units_skipped, row.stats.units_skipped), (2, 2));

        // A LIMIT the first group fills stops both scans at its fifth row,
        // and the zones still skip the two groups after it.
        let limited = Query { ops: vec![Op::Limit(5)], ..q };
        let fast =
            execute(&datasets, &limited, &ExecOptions::with_engine(Engine::Batched)).unwrap();
        let row = execute(&datasets, &limited, &ExecOptions::with_engine(Engine::Row)).unwrap();
        assert_eq!((fast.rows.len(), &fast.rows), (5, &row.rows));
        let counts = |r: &QueryResult| (r.stats.rows_scanned, r.stats.units_skipped);
        assert_eq!((counts(&fast), counts(&row)), ((5, 2), (5, 2)));
    }

    /// At rest, the zero-pivot scan answers whole-record paths too, and
    /// paths crossing a typed column's prefix: a survivor's record is
    /// assembled once, as a `Value`, and every such column is read off it —
    /// field for field and in the order the row engine's bytes give.
    #[test]
    fn columnar_whole_records_at_rest_take_the_zero_pivot_scan() {
        let ds = Dataset::new(
            DatasetConfig::new("Sensors", "id")
                .with_format(StorageFormat::Columnar)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        for i in 0..3000i64 {
            let r = parse(&format!(
                r#"{{"id": {i}, "report_time": {}, "meta": {{"t": {i}, "tags": ["x{}"]}}, "readings": [{}.5]}}"#,
                i * 1000,
                i % 3,
                i % 40
            ))
            .unwrap();
            ds.writer().insert(&r).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.snapshot_columnar().is_some(), "partition must be at rest");

        let q = Query {
            scan: ScanSpec {
                paths: vec![parse_path("report_time")],
                filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1_024_000i64))),
                late_paths: vec![vec![], parse_path("meta"), parse_path("meta.tags[0]"), vec![]],
                access: AccessStrategy::Consolidated,
            },
            ops: vec![],
        };
        let counters = ds.columnar_counters().unwrap();
        let (typed, skipped, assembled) =
            (counters.typed_filter_rows(), counters.pages_skipped(), counters.rows_reconstructed());
        let fast = execute(&[&ds], &q, &ExecOptions::with_engine(Engine::Batched)).unwrap();
        assert!(counters.typed_filter_rows() > typed, "the at-rest primitive loop ran");
        assert!(counters.pages_skipped() > skipped, "groups were skipped by their stats");
        assert_eq!(counters.rows_reconstructed() - assembled, 1024, "one record per survivor");
        let row = execute(&[&ds], &q, &ExecOptions::with_engine(Engine::Row)).unwrap();
        assert_eq!(format!("{:?}", fast.rows), format!("{:?}", row.rows));
        assert_eq!(fast.rows.len(), 1024);
        let first = &fast.rows[7];
        assert_eq!(first[1], first[4], "each whole-record column holds the record");
        assert_eq!(first[2], *first[1].get_field("meta").unwrap());
        assert_eq!(first[3], Value::string("x1"));
    }

    /// A nested numeric column is a zone column too, named by its whole
    /// path: `meta.t < k` skips groups at rest by the stats of `meta.t`, not
    /// by those of a top-level field spelled `"meta.t"`.
    #[test]
    fn columnar_nested_numeric_window_skips_groups_at_rest() {
        let ds = Dataset::new(
            DatasetConfig::new("Nested", "id")
                .with_format(StorageFormat::Columnar)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        // 3 row groups; only the first holds meta.t < 1_024_000.
        for i in 0..3000i64 {
            let r =
                parse(&format!(r#"{{"id": {i}, "meta.t": -1, "meta": {{"t": {}}}}}"#, i * 1000))
                    .unwrap();
            ds.writer().insert(&r).unwrap();
        }
        ds.flush().unwrap();
        assert!(ds.snapshot_columnar().is_some(), "partition must be at rest");

        let q = Query {
            scan: ScanSpec {
                paths: vec![parse_path("meta.t")],
                filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1_024_000i64))),
                late_paths: vec![],
                access: AccessStrategy::Consolidated,
            },
            ops: vec![],
        };
        let counters = ds.columnar_counters().unwrap();
        let typed = counters.typed_filter_rows();
        let fast = execute(&[&ds], &q, &ExecOptions::with_engine(Engine::Batched)).unwrap();
        assert!(counters.typed_filter_rows() > typed, "the at-rest typed loop runs");
        let row = execute(&[&ds], &q, &ExecOptions::with_engine(Engine::Row)).unwrap();
        assert_eq!(fast.rows, row.rows);
        assert_eq!(fast.rows.len(), 1024);
        assert_eq!((fast.stats.units_skipped, row.stats.units_skipped), (2, 2));
        assert_eq!((fast.stats.rows_scanned, row.stats.rows_scanned), (1024, 1024));
    }

    /// Zone maps on row blocks: a `report_time` window over sensor reports
    /// reads only the blocks that may hold it, in both engines, and answers
    /// exactly what the unfiltered scan does.
    #[test]
    fn zone_maps_skip_row_blocks_outside_a_report_time_window() {
        use crate::paper_queries::sensors_q4_scanfilter;
        use crate::plan::QueryOptions;
        use tc_datagen::{sensors::SensorsGen, Generator};

        let ds = Dataset::new(
            DatasetConfig::new("Sensors", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(512 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        let mut gen = SensorsGen::new(3);
        let mut w = ds.writer();
        for _ in 0..400 {
            w.insert(&gen.next_record()).unwrap();
        }
        drop(w);
        ds.flush().unwrap();
        let units: u64 = ds.primary().components().iter().map(|c| c.num_units() as u64).sum();
        assert!(ds.primary().components().len() > 1);

        // Six minutes of reports, halfway in.
        let start = 1_556_496_000_000 + 200 * 60_000;
        let window = sensors_q4_scanfilter(QueryOptions::default(), start, start + 6 * 60_000);
        let batched = execute(&[&ds], &window, &ExecOptions::default()).unwrap();
        let row = execute(&[&ds], &window, &ExecOptions::with_engine(Engine::Row)).unwrap();
        assert_eq!(batched.rows, row.rows);
        assert_eq!(batched.rows.len(), 6);
        let counts = |r: &QueryResult| (r.stats.units_skipped, r.stats.rows_scanned);
        assert_eq!(counts(&batched), counts(&row));
        let (skipped, scanned) = counts(&batched);
        assert!(skipped > units / 2 && skipped < units, "{skipped} of {units} units skipped");
        assert!(scanned < 400 / 4, "{scanned} rows scanned");

        // The same filter applied after an unfiltered scan skips nothing.
        let mut unpruned = window.clone();
        let filter = unpruned.scan.filter.take().unwrap();
        unpruned.ops.insert(0, Op::Filter(filter));
        let reference = execute(&[&ds], &unpruned, &ExecOptions::default()).unwrap();
        assert_eq!(reference.rows, batched.rows);
        assert_eq!(counts(&reference), (0, 400));
    }

    /// A columnar partition as it is during ingest — unmerged components,
    /// stale versions and anti-matter under a resident memtable — is
    /// reconciled on key blocks and answered from column pages: only a
    /// query that wants whole records pivots rows, and none of it is the
    /// at-rest path (`typed_filter_rows` stays 0 until a full merge).
    #[test]
    fn live_columnar_scans_reconstruct_rows_only_for_whole_records() {
        use crate::paper_queries::sensors_q4_scanfilter;
        use crate::plan::QueryOptions;

        let ds = Dataset::new(
            DatasetConfig::new("Sensors", "id")
                .with_format(StorageFormat::Columnar)
                .with_memtable_budget(16 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            Arc::new(Device::new(DeviceProfile::RAM)),
            Arc::new(BufferCache::new(4096)),
        );
        let report = |i: i64, temp: i64| {
            parse(&format!(
                r#"{{"id": {i}, "sensor_id": {}, "report_time": {}, "readings": [{{"temp": {temp}.5}}]}}"#,
                i % 7,
                i * 1000,
            ))
            .unwrap()
        };
        let mut w = ds.writer();
        for i in 0..400 {
            w.insert(&report(i, i % 40)).unwrap();
        }
        for i in (0..400).step_by(13) {
            assert!(w.delete(i).unwrap()); // anti-matter over flushed rows
        }
        drop(w);
        ds.flush().unwrap();
        let mut w = ds.writer();
        for i in (0..400).step_by(9).filter(|i| i % 13 != 0) {
            w.upsert(&report(i, 99)).unwrap(); // stale versions stay below
        }
        drop(w);
        assert!(ds.primary().components().len() >= 3, "unmerged components");
        assert!(ds.primary().memtable_len() > 0, "resident memtable");
        assert!(ds.primary().components().iter().any(|c| c.num_antimatter() > 0));
        assert!(ds.snapshot_columnar().is_none(), "not at rest");
        let live = (0..400).filter(|i| i % 13 != 0).count() as i64;

        let opts = QueryOptions::default();
        let count = Query {
            scan: ScanSpec::all_early(vec![], opts.access()),
            ops: vec![Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] }],
        };
        let filter = sensors_q4_scanfilter(opts, 100_000, 140_000);
        let group_by_residual = Query {
            scan: ScanSpec::all_early(vec![parse_path("readings[0].temp")], opts.access()),
            ops: vec![
                Op::GroupBy { keys: vec![Expr::col(0)], aggs: vec![Agg::count_star()] },
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        };
        let select_star = Query {
            scan: ScanSpec::all_early(vec![vec![]], opts.access()),
            ops: vec![Op::OrderBy { keys: vec![(Expr::path(0, "id"), false)], limit: None }],
        };

        let counters = ds.columnar_counters().unwrap();
        let run = |q: &Query, engine| {
            let (typed, reconstructed) =
                (counters.typed_filter_rows(), counters.rows_reconstructed());
            let res = execute(&[&ds], q, &ExecOptions::with_engine(engine)).unwrap();
            assert_eq!(
                counters.typed_filter_rows(),
                typed,
                "the at-rest typed loops must stay silent on a live partition"
            );
            (res, counters.rows_reconstructed() - reconstructed)
        };
        for (name, q) in
            [("count", &count), ("filter", &filter), ("group-by residual", &group_by_residual)]
        {
            let (batched, pivoted) = run(q, Engine::Batched);
            assert_eq!(pivoted, 0, "{name}: a scan of some fields must not pivot rows");
            let (row, row_pivoted) = run(q, Engine::Row);
            assert!(row_pivoted > 0, "{name}: the row engine assembles every winner");
            assert_eq!(batched.rows, row.rows, "{name}");
            assert_eq!(batched.stats.rows_scanned, row.stats.rows_scanned, "{name}");
            assert_eq!(batched.stats.units_skipped, row.stats.units_skipped, "{name}");
            // Only the window lets the zones skip row groups — and then
            // their rows are never scanned.
            let skipped = batched.stats.units_skipped;
            assert_eq!(skipped > 0, name == "filter", "{name}");
            if skipped == 0 {
                assert_eq!(batched.stats.rows_scanned, live as u64, "{name}");
            } else {
                assert!(batched.stats.rows_scanned < live as u64, "{name}");
            }
        }
        let (counted, _) = run(&count, Engine::Batched);
        assert_eq!(counted.rows, vec![vec![Value::Int64(live)]]);
        // Column pruning, live: of every row group that owns a winner the
        // fill reads the filter column, and of those that own a survivor the
        // late typed column and the residual block — what the at-rest scan
        // reads of a group, and never `id`. The groups that own a winner are
        // those the filtered scan's on-disk winners name, by (source rank,
        // group).
        let zones = crate::zone::ZonePredicate::of(&filter.scan).unwrap();
        let may_match = zones.as_filter();
        let (_, mut scan) = ds.snapshot_scan_where(Some(&may_match));
        let mut touched = std::collections::HashSet::new();
        let mut surviving = std::collections::HashSet::new();
        while let Some(winner) = scan.next_entry() {
            let tc_lsm::component::Payload::Row { group, row } = winner.payload else {
                continue; // a memtable winner reads no column
            };
            touched.insert((winner.rank, group));
            let (chunk, store) =
                scan.source_component(winner.rank).unwrap().columnar_view().unwrap();
            let reader = tc_columnar::ChunkReader::of(chunk).unwrap();
            let time = reader.find_column(&["report_time".into()]).unwrap();
            let mut view = reader.view(store, scan.cache(), group as usize);
            let time = view.i64_at(time, row as usize).unwrap().unwrap();
            if (100_000..140_000).contains(&time) {
                surviving.insert((winner.rank, group));
            }
        }
        assert!(
            !surviving.is_empty() && surviving.len() < touched.len(),
            "the window leaves some groups, not all, without a survivor"
        );
        let before = counters.columns_faulted();
        let (filtered, _) = run(&filter, Engine::Batched);
        assert!(!filtered.rows.is_empty(), "the window holds live reports");
        assert_eq!(
            counters.columns_faulted() - before,
            (touched.len() + 2 * surviving.len()) as u64
        );

        let (star, pivoted) = run(&select_star, Engine::Batched);
        assert!(pivoted > 0, "whole records are assembled");
        assert_eq!(star.rows.len(), live as usize);
        let id_9 = &star.rows[8][0]; // ids 1..=9, 0 is deleted
        assert_eq!(id_9.get_field("id"), Some(&Value::Int64(9)));
        assert_eq!(
            id_9.get_field("readings"),
            report(9, 99).get_field("readings"),
            "an upserted row shows its newest version"
        );
        assert_eq!(star.rows, run(&select_star, Engine::Row).0.rows);

        // At rest the same filter runs the primitive loops.
        ds.flush().unwrap();
        ds.force_full_merge().unwrap();
        assert!(ds.snapshot_columnar().is_some(), "at rest");
        let before = counters.typed_filter_rows();
        let rest = execute(&[&ds], &filter, &ExecOptions::default()).unwrap();
        assert_eq!(rest.rows, filtered.rows);
        assert!(counters.typed_filter_rows() > before);
    }

    #[test]
    fn corruption_policy_fail_and_degrade() {
        use tc_storage::FaultPlan;

        // Two single-partition datasets sharing nothing: corrupt one
        // component in the first by flipping a bit in its first page write.
        let device = Arc::new(Device::new(DeviceProfile::RAM));
        let ds = Dataset::new(
            DatasetConfig::new("T", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(32 * 1024)
                .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
            Arc::clone(&device),
            Arc::new(BufferCache::new(4096)),
        );
        for i in 0..40 {
            ds.writer()
                .insert(&parse(&format!(r#"{{"id": {i}, "grp": "g{}"}}"#, i % 3)).unwrap())
                .unwrap();
        }
        ds.flush().unwrap(); // clean component
        for i in 40..80 {
            ds.writer()
                .insert(&parse(&format!(r#"{{"id": {i}, "grp": "g{}"}}"#, i % 3)).unwrap())
                .unwrap();
        }
        device.set_fault_plan(FaultPlan::new(3).flip_bit_in_nth_write(1));
        ds.flush().unwrap(); // second component stored with a flipped bit
        device.clear_fault_plan();

        let q = Query {
            scan: ScanSpec::all_early(vec![parse_path("id")], AccessStrategy::Consolidated),
            ops: vec![],
        };
        for engine in [Engine::Batched, Engine::Row] {
            // Default policy: the corrupt component fails the query with a
            // typed error — never a panic, never a silently partial answer.
            let err =
                execute(&[&ds], &q, &ExecOptions { engine, ..ExecOptions::default() }).unwrap_err();
            assert!(
                matches!(err, AdmError::Storage { transient: false, .. }),
                "{engine:?}: {err:?}"
            );
            // Degrade: rows from healthy components survive; the stats
            // report the quarantined component.
            let res = execute(
                &[&ds],
                &q,
                &ExecOptions {
                    engine,
                    ..ExecOptions::with_corruption_policy(CorruptionPolicy::Degrade)
                },
            )
            .unwrap();
            assert!(res.stats.quarantined_components >= 1, "{engine:?}");
            assert!(
                res.rows.len() >= 40 && res.rows.len() < 80,
                "{engine:?}: healthy component survives, rotten one is cut ({} rows)",
                res.rows.len()
            );
        }
    }

    /// The at-rest twin of `corruption_policy_fail_and_degrade`: a bit flip
    /// in a block the zero-pivot scan reads follows the query's policy in
    /// place. `Fail` returns a typed error; `Degrade` serves the rows pushed
    /// before the fault, each exact, and reports the quarantined component.
    #[test]
    fn at_rest_corruption_policy_applies_in_place() {
        use tc_storage::FaultPlan;

        // Three row groups in one component, the `n`th write of whose flush
        // lands with a flipped bit.
        let flushed_with_flip = |n: u64| {
            let device = Arc::new(Device::new(DeviceProfile::RAM));
            let ds = Dataset::new(
                DatasetConfig::new("T", "id")
                    .with_format(StorageFormat::Columnar)
                    .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                Arc::clone(&device),
                Arc::new(BufferCache::new(4096)),
            );
            let mut w = ds.writer();
            for i in 0..2100i64 {
                w.insert(&parse(&format!(r#"{{"id": {i}, "grp": "g{}"}}"#, i % 3)).unwrap())
                    .unwrap();
            }
            drop(w);
            device.set_fault_plan(FaultPlan::new(n).flip_bit_in_nth_write(n));
            ds.flush().unwrap();
            let fired = device.faults_injected() > 0;
            device.clear_fault_plan();
            (fired && ds.snapshot_columnar().is_some()).then_some(ds)
        };
        let exact = |row: &Row| {
            let id = row[0].as_i64().unwrap();
            row[1] == Value::string(format!("g{}", id % 3))
        };
        let q = Query {
            scan: ScanSpec::all_early(
                vec![parse_path("id"), parse_path("grp")],
                AccessStrategy::Consolidated,
            ),
            ops: vec![],
        };
        let (mut faulted, mut partial) = (0, 0);
        for n in 1..=24u64 {
            let Some(ds) = flushed_with_flip(n) else { continue };
            let err = match execute(&[&ds], &q, &ExecOptions::default()) {
                Ok(res) => {
                    // The flip landed outside the query's read set.
                    assert_eq!(res.rows.len(), 2100, "flip {n}");
                    assert!(res.rows.iter().all(exact), "flip {n}: a wrong row served");
                    continue;
                }
                Err(err) => err,
            };
            assert!(matches!(err, AdmError::Storage { transient: false, .. }), "flip {n}: {err:?}");
            faulted += 1;
            let ds = flushed_with_flip(n).unwrap();
            let degrade = ExecOptions::with_corruption_policy(CorruptionPolicy::Degrade);
            let res = execute(&[&ds], &q, &degrade).unwrap();
            assert_eq!(res.stats.quarantined_components, 1, "flip {n}");
            assert!(res.rows.len() < 2100, "flip {n}: the fault cut nothing");
            assert!(res.rows.iter().all(exact), "flip {n}: a wrong row served");
            partial += usize::from(!res.rows.is_empty());
        }
        assert!(faulted > 0, "no flip in the sweep hit a block the scan reads");
        assert!(partial > 0, "no degraded scan kept the rows read before its fault");
    }

    #[test]
    fn empty_dataset_global_count_is_zero() {
        let ds = partitioned_dataset(StorageFormat::Inferred, 2, 0);
        let q = Query {
            scan: ScanSpec::all_early(vec![], AccessStrategy::Consolidated),
            ops: vec![Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] }],
        };
        let res = execute(&refs(&ds), &q, &ExecOptions::default()).unwrap();
        assert_eq!(res.rows, vec![vec![Value::Int64(0)]]);
    }
}
