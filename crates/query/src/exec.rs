//! The partitioned query executor.
//!
//! Mirrors the paper's Hyracks job shape (Fig 5): every partition runs the
//! same pipeline over its own data; blocking operators (group-by, order-by,
//! distinct) introduce a non-local exchange, at which point (a) each
//! partition's schema is broadcast (§3.4.1 — accounted in
//! [`ExecStats::broadcast_bytes`]) and (b) partial results meet at a
//! coordinator that merges aggregate states / sorted runs and runs the rest
//! of the plan.

use std::collections::hash_map::Entry;

use tc_adm::compare::{compare, OrdValue};
use tc_adm::{AdmError, Value};
use tc_util::hash::FxHashMap;
use tuple_compactor::{Dataset, RecordDecoder};

use crate::agg::{Agg, AggState};
use crate::batch::{self, ColumnSet};
use crate::expr::Expr;
use crate::plan::{Op, Query, ScanSpec};

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
    pub rows_scanned: u64,
    pub bytes_scanned: u64,
    pub rows_output: u64,
    /// Schema bytes shipped for queries with a non-local exchange (§3.4.1).
    pub broadcast_bytes: u64,
    pub partitions: usize,
    /// Components skipped (pre-quarantined) or cut short (mid-scan checksum
    /// failure) across all partitions. Non-zero only under
    /// [`CorruptionPolicy::Degrade`] — the `Fail` policy turns the first
    /// one into an error instead.
    pub quarantined_components: u64,
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

    // Split the pipeline at the first operator that needs a global view.
    // `Limit` belongs here too: each partition can truncate locally as an
    // optimization, but only the coordinator sees the union, so the limit
    // must be re-applied globally (k rows total, not k per partition).
    let split = query
        .ops
        .iter()
        .position(|op| {
            matches!(op, Op::GroupBy { .. } | Op::OrderBy { .. } | Op::Distinct(_) | Op::Limit(_))
        })
        .unwrap_or(query.ops.len());
    let local_ops = &query.ops[..split];
    let blocking = query.ops.get(split);
    let global_ops = if split < query.ops.len() { &query.ops[split + 1..] } else { &[][..] };

    // ---- local stage, one pipeline per partition ----
    let locals: Vec<Result<(LocalOutput, u64, u64, u64), AdmError>> = if opts.parallel
        && partitions.len() > 1
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .map(|ds| {
                    scope.spawn(move || run_partition(ds, &query.scan, local_ops, blocking, opts))
                })
                .collect();
            handles.into_iter().map(|h| join_partition(h.join())).collect()
        })
    } else {
        partitions
            .iter()
            .map(|ds| run_partition(ds, &query.scan, local_ops, blocking, opts))
            .collect()
    };

    let mut grouped: FxHashMap<Vec<OrdValue>, (Row, Vec<AggState>)> = FxHashMap::default();
    let mut rows: Vec<Row> = Vec::new();
    for local in locals {
        let (out, scanned, bytes, quarantined) = local?;
        stats.rows_scanned += scanned;
        stats.bytes_scanned += bytes;
        stats.quarantined_components += quarantined;
        match out {
            LocalOutput::Rows(mut r) => rows.append(&mut r),
            LocalOutput::Grouped(partials) => {
                for (key, states) in partials {
                    let hk: Vec<OrdValue> = key.iter().cloned().map(OrdValue).collect();
                    match grouped.entry(hk) {
                        Entry::Vacant(e) => {
                            e.insert((key, states));
                        }
                        Entry::Occupied(mut e) => {
                            let (_, existing) = e.get_mut();
                            for (a, b) in existing.iter_mut().zip(states) {
                                a.merge(b)?;
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- global stage ----
    let mut rows = match blocking {
        Some(Op::GroupBy { keys, aggs }) => {
            if grouped.is_empty() && keys.is_empty() {
                // Global aggregate over zero rows still yields one row.
                let finals: Row = aggs.iter().map(|a| AggState::new(&a.func).finalize()).collect();
                vec![finals]
            } else {
                grouped
                    .into_values()
                    .map(|(mut key, states)| {
                        key.extend(states.into_iter().map(AggState::finalize));
                        key
                    })
                    .collect()
            }
        }
        // The local stage already projected Distinct's expressions (and
        // deduped within each partition); re-evaluating them here against
        // the projected rows would be wrong for anything but identity
        // columns. The coordinator only finishes the dedupe.
        Some(Op::Distinct(_)) => dedupe_rows(rows),
        Some(op) => apply_op(rows, op),
        None => rows,
    };
    for op in global_ops {
        rows = apply_op(rows, op);
    }
    stats.rows_output = rows.len() as u64;
    Ok(QueryResult { rows, stats })
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

/// Dedupe already-projected rows by whole-row equality, keeping first-seen
/// order.
fn dedupe_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen: std::collections::HashSet<Vec<OrdValue>> = Default::default();
    rows.into_iter()
        .filter(|row| seen.insert(row.iter().cloned().map(OrdValue).collect()))
        .collect()
}

enum LocalOutput {
    Rows(Vec<Row>),
    Grouped(Vec<(Row, Vec<AggState>)>),
}

/// Scan + local pipeline for one partition.
fn run_partition(
    ds: &Dataset,
    scan: &ScanSpec,
    local_ops: &[Op],
    blocking: Option<&Op>,
    opts: &ExecOptions,
) -> Result<(LocalOutput, u64, u64, u64), AdmError> {
    let limit_hint = scan_limit_hint(local_ops, blocking);
    let mut scanned = 0u64;
    let mut bytes = 0u64;
    // A partition resting in the columnar layout can answer batched scans
    // without pivoting records back into rows at all; `None` (shape not
    // covered, partition not at rest, or a fault mid-scan) falls through to
    // the generic snapshot scan.
    if opts.engine == Engine::Batched {
        if let Some(rows) =
            crate::columnar::try_scan_columnar(ds, scan, limit_hint, &mut scanned, &mut bytes)?
        {
            return finish_partition(rows, local_ops, blocking, scanned, bytes, 0);
        }
    }
    // Decoder and scan are captured atomically: with background flushes
    // running, a decoder taken separately could miss dictionary codes the
    // scan's records need (or carry prunes ahead of the snapshot).
    let (decoder, mut iter) = ds.snapshot_scan();
    let rows = match opts.engine {
        Engine::Batched => batch::scan_batched(
            &decoder,
            &mut iter,
            scan,
            limit_hint,
            opts.batch_size,
            &mut scanned,
            &mut bytes,
        )?,
        Engine::Row => scan_rows(&decoder, &mut iter, scan, limit_hint, &mut scanned, &mut bytes)?,
    };
    // Post-scan health check: the merged scan degrades (skips quarantined
    // components, stops a source at the first checksum failure) instead of
    // panicking; whether that degradation is acceptable is the query's
    // policy decision, made here.
    let health = iter.take_health();
    let quarantined = health.degraded().len() as u64;
    if opts.corruption_policy == CorruptionPolicy::Fail {
        if let Some(e) = health.first_error() {
            return Err(AdmError::storage(e.to_string(), e.is_transient()));
        }
    }
    finish_partition(rows, local_ops, blocking, scanned, bytes, quarantined)
}

/// Local operator pipeline + the local side of the blocking operator,
/// shared by the columnar fast scan and the generic snapshot scan.
fn finish_partition(
    mut rows: Vec<Row>,
    local_ops: &[Op],
    blocking: Option<&Op>,
    scanned: u64,
    bytes: u64,
    quarantined: u64,
) -> Result<(LocalOutput, u64, u64, u64), AdmError> {
    for op in local_ops {
        rows = apply_op(rows, op);
    }
    // Local side of the blocking operator.
    let out = match blocking {
        Some(Op::GroupBy { keys, aggs }) => LocalOutput::Grouped(partial_group(rows, keys, aggs)),
        Some(Op::OrderBy { keys, limit: Some(k) }) => {
            // Local top-k: the global top-k is a subset of the union of
            // local top-ks.
            LocalOutput::Rows(apply_op(rows, &Op::OrderBy { keys: keys.clone(), limit: Some(*k) }))
        }
        Some(Op::Distinct(exprs)) => {
            // Local dedupe shrinks the exchange; global dedupe finishes.
            LocalOutput::Rows(apply_op(rows, &Op::Distinct(exprs.clone())))
        }
        Some(Op::Limit(k)) => {
            // Local truncation shrinks the exchange; the coordinator
            // re-applies the limit over the union.
            let mut rows = rows;
            rows.truncate(*k);
            LocalOutput::Rows(rows)
        }
        _ => LocalOutput::Rows(rows),
    };
    Ok((out, scanned, bytes, quarantined))
}

/// Can the scan stop after `k` surviving records? Only when the pending
/// blocking operator is a plain `Limit` and nothing between the scan and it
/// changes the row *count* — projections keep 1:1 cardinality, but a
/// post-scan filter or unnest would make an early stop undercount.
fn scan_limit_hint(local_ops: &[Op], blocking: Option<&Op>) -> Option<usize> {
    match blocking {
        Some(Op::Limit(k)) if local_ops.iter().all(|op| matches!(op, Op::Project(_))) => Some(*k),
        _ => None,
    }
}

/// The row-at-a-time scan: materialize every early column per record, then
/// filter, then late columns for survivors — through the same column sets
/// (one path evaluator each, reused across the scan) as the batched engine.
fn scan_rows(
    decoder: &RecordDecoder,
    iter: &mut tc_lsm::iter::MergedScan,
    scan: &ScanSpec,
    limit_hint: Option<usize>,
    scanned: &mut u64,
    bytes: &mut u64,
) -> Result<Vec<Row>, AdmError> {
    let mut early = ColumnSet::new(decoder, scan.paths.clone(), scan.access);
    let mut late = ColumnSet::new(decoder, scan.late_paths.clone(), scan.access);
    let mut rows: Vec<Row> = Vec::new();
    while limit_hint.is_none_or(|k| rows.len() < k) {
        let Some((_, _, payload)) = iter.next() else { break };
        *scanned += 1;
        *bytes += payload.len() as u64;
        let mut row = early.take_row(&payload)?;
        if let Some(pred) = &scan.filter {
            if !pred.eval_bool(&row) {
                continue;
            }
        }
        row.extend(late.take_row(&payload)?);
        rows.push(row);
    }
    Ok(rows)
}

/// Fold rows into per-key partial aggregate states.
fn partial_group(rows: Vec<Row>, keys: &[Expr], aggs: &[Agg]) -> Vec<(Row, Vec<AggState>)> {
    let mut map: FxHashMap<Vec<OrdValue>, (Row, Vec<AggState>)> = FxHashMap::default();
    for row in rows {
        let key: Row = keys.iter().map(|k| k.eval(&row)).collect();
        let hk: Vec<OrdValue> = key.iter().cloned().map(OrdValue).collect();
        let entry = map
            .entry(hk)
            .or_insert_with(|| (key, aggs.iter().map(|a| AggState::new(&a.func)).collect()));
        for (agg, state) in aggs.iter().zip(entry.1.iter_mut()) {
            state.update(agg.arg.as_ref().map(|e| e.eval(&row)));
        }
    }
    map.into_values().collect()
}

/// Apply one operator to in-memory rows (used for local pipelines and the
/// coordinator's global stage).
pub fn apply_op(rows: Vec<Row>, op: &Op) -> Vec<Row> {
    match op {
        Op::Filter(pred) => rows.into_iter().filter(|r| pred.eval_bool(r)).collect(),
        Op::Project(exprs) => {
            rows.into_iter().map(|r| exprs.iter().map(|e| e.eval(&r)).collect()).collect()
        }
        Op::Unnest(expr) => {
            // A plain-column source is consumed by the unnest: emitted rows
            // carry `null` in its slot so the (possibly large) collection
            // isn't cloned once per item — Hyracks likewise projects the
            // unnested field out of the frame.
            let consumed = match expr {
                Expr::Col(i) => Some(*i),
                _ => None,
            };
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                match expr.eval(&row) {
                    Value::Array(items) | Value::Multiset(items) => {
                        let mut base = row;
                        if let Some(i) = consumed {
                            base[i] = Value::Null;
                        }
                        let last = items.len().saturating_sub(1);
                        for (idx, item) in items.into_iter().enumerate() {
                            // The final item reuses the base row.
                            let mut r =
                                if idx == last { std::mem::take(&mut base) } else { base.clone() };
                            r.push(item);
                            out.push(r);
                        }
                    }
                    _ => {} // UNNEST of non-collections emits nothing
                }
            }
            out
        }
        Op::GroupBy { keys, aggs } => partial_group(rows, keys, aggs)
            .into_iter()
            .map(|(mut key, states)| {
                key.extend(states.into_iter().map(AggState::finalize));
                key
            })
            .collect(),
        Op::OrderBy { keys, limit } => {
            let mut keyed: Vec<(Vec<Value>, Row)> = rows
                .into_iter()
                .map(|r| (keys.iter().map(|(e, _)| e.eval(&r)).collect(), r))
                .collect();
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = compare(&a[i], &b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut out: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
            if let Some(k) = limit {
                out.truncate(*k);
            }
            out
        }
        Op::Limit(k) => {
            let mut rows = rows;
            rows.truncate(*k);
            rows
        }
        Op::Distinct(exprs) => {
            let mut seen: std::collections::HashSet<Vec<OrdValue>> = Default::default();
            let mut out = Vec::new();
            for row in rows {
                let projected: Row = exprs.iter().map(|e| e.eval(&row)).collect();
                let key: Vec<OrdValue> = projected.iter().cloned().map(OrdValue).collect();
                if seen.insert(key) {
                    out.push(projected);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFn;
    use crate::expr::{CmpOp, Func};
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
                // The LIMIT hint reaches the scan: no partition drains its
                // snapshot past what the limit can need.
                assert!(
                    res.stats.rows_scanned <= 40,
                    "{format:?}/{engine:?}: scanned {} rows for LIMIT 10 over 4 partitions",
                    res.stats.rows_scanned
                );
            }
        }
    }

    #[test]
    fn limit_hint_blocked_by_post_scan_filter() {
        // An ops-level filter between scan and LIMIT kills the hint (an
        // early stop would undercount), but the limit itself must still be
        // global.
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
            assert_eq!(res.stats.rows_scanned, 90, "{engine:?}: hint must not apply");
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
        // show up in the scan counter.
        assert_eq!(fast.stats.rows_scanned, 1024);
        assert_eq!(row.stats.rows_scanned, 3000);
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
            assert_eq!(batched.stats.rows_scanned, live as u64, "{name}");
        }
        let (counted, _) = run(&count, Engine::Batched);
        assert_eq!(counted.rows, vec![vec![Value::Int64(live)]]);
        // Column pruning, live: of every row group that owns a winner the
        // fill reads the filter column, and of those that own a survivor the
        // late typed column and the residual block — what the at-rest scan
        // reads of a group, and never `id`. The groups that own a winner are
        // those the scan's on-disk winners name, by (source rank, group).
        let (_, mut scan) = ds.snapshot_scan();
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
