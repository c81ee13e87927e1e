//! The batched scan pipeline: scan → filter → project over chunks of
//! records.
//!
//! Instead of materializing every scanned record into a full row before any
//! operator sees it, the batched engine pulls ~4K records at a time — the
//! winners of the snapshot's key reconciliation — and runs the scan in four
//! columnar phases. A pulled record is either its stored **bytes** (row
//! blocks, memtables) or a **row reference** into a columnar component,
//! `(source, group, row)`, for which nothing but the group's keys block has
//! been read.
//!
//! 1. **Eager decode** — only the early columns the scan filter actually
//!    reads are evaluated into reusable column buffers: one [`PathBatch`]
//!    drive per payload, or, for a row reference, one read of each named
//!    typed column / residual path through the view of a row group the
//!    at-rest columnar scan uses ([`tc_columnar::GroupView`]; the blocks it
//!    has read are kept per (source, group) for the batch), appended to the
//!    buffers with no row built.
//! 2. **Filter** — the predicate is split at top-level `AND`s and each
//!    conjunct refines a selection vector. Conjuncts of the shape
//!    `col <op> const` over homogeneous `Int64`/`Double` columns run as
//!    tight typed loops; everything else falls back to expression
//!    evaluation over a reused scratch row (no per-row allocation either
//!    way).
//! 3. **Lazy decode** — the remaining early columns plus every late path
//!    are evaluated only for selection-vector survivors, so a filtered-out
//!    record never pays for the columns it would have needed.
//! 4. **Emit** — surviving rows are assembled by *moving* values out of the
//!    column buffers, in pull order (primary-key order), and each is pushed
//!    into the partition's query pipeline as it is built. A column other
//!    than a filter's takes typed buffers: a record whose one-wildcard path
//!    (`readings[*].temp`) matches only doubles holds a range of a flat
//!    `f64` buffer, not a `Value` per item, and so does a row reference
//!    whose repeated `double` column holds only present items. When the
//!    pipeline's one stage unnests that column into a group-by keyed
//!    without the item, the row goes in with its typed slice and the sink
//!    folds the slice by a primitive loop
//!    ([`ExecStats::typed_fold_rows`] counts those rows); otherwise the
//!    `Value` array is built into the row as it is assembled. The row
//!    engine reads every column as `Value`s.
//!
//! Row references are answered per component: each path is classified
//! against the component's column list exactly as the at-rest scan does. A
//! repeated `double` column's row goes into the typed buffer through the
//! decode the at-rest fold uses ([`GroupView::present_doubles`]); a row
//! whose items take a `Value` to say (a null item, a spill, no collection),
//! or whose item type has no typed buffer, is an array of `Value`s. A path
//! into the collection is read off the collection zipped from its columns. A
//! whole-record path, or one crossing a typed column's prefix, is read off
//! the row's record, assembled into a `Value` through the same view
//! ([`GroupView::record`]); no row of a `tc_columnar` chunk is materialized
//! to bytes. Only a chunk of another codec, or a source whose column reads
//! faulted, has its references materialized as they are pulled. A scan with
//! no paths (`count(*)`) touches key blocks only.
//!
//! `bytes_scanned` counts payload bytes for records that arrive (or are
//! materialized) as bytes, and the bytes of the column and residual blocks
//! faulted in for row references — the at-rest columnar scan's convention.
//! A storage fault on such a block is reported to the scan's health (the
//! component is quarantined if it is corruption) and the rows it hits are
//! dropped: an error under `CorruptionPolicy::Fail`, missing rows plus
//! `quarantined_components` under `Degrade`, never a wrong value.
//!
//! A `LIMIT` sink bounds the pull: a batch pulls at most as many records as
//! the limit still has room for, so `LIMIT 10` decodes 10 records, not a
//! batch; and the scan stops at the record whose row fills it (see
//! [`crate::exec`]).

use std::collections::hash_map::Entry;
use std::rc::Rc;

use tc_adm::path::Path;
use tc_adm::{AdmError, Value};
use tc_columnar::{ChunkReader, GroupView};
use tc_lsm::component::Payload;
use tc_lsm::iter::MergedScan;
use tc_storage::StorageError;
use tc_util::hash::FxHashMap;
use tc_vector::Column;
use tuple_compactor::{PathBatch, RecordDecoder};

use crate::columnar::PathPlan;
use crate::exec::{ExecStats, Row};
use crate::expr::{CmpOp, Expr};
use crate::pipeline::Pipeline;
use crate::plan::{AccessStrategy, ScanSpec};

/// Records per scan chunk (the batched engine's unit of work).
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// One pulled record, as the fill phases read it.
enum BatchRow {
    /// Its stored bytes; every path is evaluated against them.
    Bytes(Vec<u8>),
    /// A row of a columnar component (source `rank` of the scan) that was
    /// not assembled: its values come straight from column pages, as `plan`
    /// maps them.
    Ref { plan: Rc<FillPlan>, rank: usize, group: u32, row: u32 },
}

/// Run one partition's scan in batches, pushing each surviving row into
/// `pipeline` as the batch emits it. `rows_scanned` counts the records
/// pulled from the snapshot up to the one whose row filled a `Limit` sink;
/// `bytes_scanned` the payload bytes of every record pulled — or, for rows
/// answered from column pages, the bytes of the blocks faulted in for them.
pub(crate) fn scan_batched(
    decoder: &RecordDecoder,
    iter: &mut MergedScan,
    scan: &ScanSpec,
    batch_size: usize,
    pipeline: &mut Pipeline<'_>,
    stats: &mut ExecStats,
) -> Result<(), AdmError> {
    let batch_size = batch_size.max(1);
    let mut scanner = BatchScanner::new(decoder, scan);
    let mut batch: Vec<BatchRow> = Vec::with_capacity(batch_size);
    loop {
        // Pull no more records than a limit still takes: each adds at most
        // one row to it, unless an unnest sits in front of it.
        let want = pipeline.room().map_or(batch_size, |room| batch_size.min(room));
        batch.clear();
        while batch.len() < want {
            let Some(entry) = iter.next_entry() else { break };
            let row = match entry.payload {
                Payload::Bytes(payload) => BatchRow::Bytes(payload),
                Payload::Row { group, row } => match scanner.fill_plan(iter, entry.rank) {
                    Some(plan) => BatchRow::Ref { plan, rank: entry.rank, group, row },
                    // A chunk of another codec, or a faulted source. A row
                    // whose component proves corrupt is dropped; the scan's
                    // health has the error.
                    None => match iter.materialize(entry.rank, group, row) {
                        Ok(payload) => BatchRow::Bytes(payload),
                        Err(_) => continue,
                    },
                },
            };
            if let BatchRow::Bytes(payload) = &row {
                stats.bytes_scanned += payload.len() as u64;
            }
            batch.push(row);
        }
        if batch.is_empty() {
            break;
        }
        let consumed = scanner.process_batch(iter, &batch, pipeline, stats)?;
        stats.rows_scanned += consumed as u64;
        if consumed < want {
            break;
        }
    }
    Ok(())
}

/// Which buffer group an output column is materialized in.
#[derive(Clone, Copy)]
enum Group {
    /// Decoded for every record in the batch (filter inputs).
    Eager,
    /// Decoded only for selection-vector survivors.
    Lazy,
}

/// Where one columnar component holds the scan's eager and lazy paths.
struct FillPlan {
    eager: PathPlan,
    lazy: PathPlan,
}

/// How one columnar source's row references are answered.
enum SourcePlan {
    /// No reference from this source pulled yet.
    Unseen,
    /// The component is a `tc_columnar` chunk: values are read from its
    /// column pages, per phase.
    Fill(Rc<FillPlan>),
    /// A chunk of another codec, or a fault ended column reads: references
    /// are materialized as they are pulled.
    Materialize,
}

/// A storage fault met while filling from a source's column pages.
type Fault = (usize, StorageError);

/// One batch's reads of column pages: the row groups its fills have touched,
/// by (source rank, group), and the faults they met.
struct ColumnReads<'c> {
    iter: &'c MergedScan,
    groups: FxHashMap<(usize, u32), GroupView<'c>>,
    faults: Vec<Fault>,
    /// One row's `double` items, on their way to a typed buffer.
    items: Vec<f64>,
}

impl ColumnReads<'_> {
    /// Append one row reference's values for `plan`'s paths to `cols`, one
    /// per path ([`PathPlan::fill`]). `false` drops the row, and leaves
    /// `cols` as they were: its source has faulted (now or earlier in the
    /// batch).
    fn fill(
        &mut self,
        plan: &PathPlan,
        rank: usize,
        group: u32,
        row: u32,
        cols: &mut [Column],
    ) -> bool {
        if plan.is_empty() {
            return true;
        }
        if self.faults.iter().any(|(faulted, _)| *faulted == rank) {
            return false;
        }
        let view = match self.groups.entry((rank, group)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let Some((reader, store)) =
                    self.iter.source_component(rank).and_then(|c| ChunkReader::of_component(c))
                else {
                    return false;
                };
                v.insert(reader.view(store, self.iter.cache(), group as usize))
            }
        };
        let before = cols[0].values().len();
        let Err(e) = plan.fill(view, row, cols, &mut self.items) else { return true };
        for col in cols.iter_mut().filter(|c| c.values().len() > before) {
            col.pop();
        }
        self.faults.push((rank, e));
        false
    }
}

/// Per-partition batch state: column-set decoders, the selection vector,
/// and scratch buffers, all reused across batches.
struct BatchScanner<'a> {
    /// Filter conjuncts (empty when the scan has no filter).
    conjuncts: Vec<&'a Expr>,
    eager: ColumnSet,
    lazy: ColumnSet,
    /// Per source rank of the scan, grown as ranks show up.
    sources: Vec<SourcePlan>,
    /// Output column → (group, slot within the group), in row order.
    slots: Vec<(Group, usize)>,
    /// Early column index → eager slot, for filter evaluation.
    eager_of_early: Vec<Option<usize>>,
    sel: Vec<u32>,
    /// Reused row image for the generic (non-typed) filter fallback; width
    /// = early columns, only filter-referenced slots are ever written.
    scratch_row: Vec<Value>,
}

impl<'a> BatchScanner<'a> {
    fn new(decoder: &RecordDecoder, scan: &'a ScanSpec) -> BatchScanner<'a> {
        let conjuncts = match &scan.filter {
            Some(pred) => split_conjuncts(pred),
            None => Vec::new(),
        };
        // Early columns the filter reads are decoded eagerly; everything
        // else (remaining early + all late) waits for the selection vector.
        let eager_early: Vec<usize> = match &scan.filter {
            Some(pred) => {
                let mut cols = pred.referenced_cols();
                cols.retain(|&c| c < scan.paths.len());
                cols
            }
            None => (0..scan.paths.len()).collect(),
        };
        let mut eager_of_early: Vec<Option<usize>> = vec![None; scan.paths.len()];
        for (slot, &c) in eager_early.iter().enumerate() {
            eager_of_early[c] = Some(slot);
        }
        let mut slots: Vec<(Group, usize)> = Vec::with_capacity(scan.width());
        let mut lazy_paths: Vec<Path> = Vec::new();
        for (i, p) in scan.paths.iter().enumerate() {
            match eager_of_early[i] {
                Some(slot) => slots.push((Group::Eager, slot)),
                None => {
                    slots.push((Group::Lazy, lazy_paths.len()));
                    lazy_paths.push(p.clone());
                }
            }
        }
        for p in &scan.late_paths {
            slots.push((Group::Lazy, lazy_paths.len()));
            lazy_paths.push(p.clone());
        }
        let eager_paths: Vec<Path> = eager_early.iter().map(|&c| scan.paths[c].clone()).collect();
        BatchScanner {
            conjuncts,
            // The filter reads its columns as `Value`s; every other column
            // takes typed buffers.
            eager: ColumnSet::new(decoder, eager_paths, scan.access, scan.filter.is_none()),
            lazy: ColumnSet::new(decoder, lazy_paths, scan.access, true),
            sources: Vec::new(),
            slots,
            eager_of_early,
            sel: Vec::new(),
            scratch_row: vec![Value::Missing; scan.paths.len()],
        }
    }

    /// How source `rank`'s row references are answered from its column
    /// pages, or `None` if they must be materialized. Decided once per
    /// source, by classifying every scan path against the component's
    /// column list.
    fn fill_plan(&mut self, iter: &MergedScan, rank: usize) -> Option<Rc<FillPlan>> {
        if self.sources.len() <= rank {
            self.sources.resize_with(rank + 1, || SourcePlan::Unseen);
        }
        if let SourcePlan::Unseen = self.sources[rank] {
            let plan = iter.source_component(rank).and_then(|c| ChunkReader::of_component(c)).map(
                |(reader, _)| {
                    let eager = PathPlan::classify(reader, self.eager.paths.iter());
                    let lazy = PathPlan::classify(reader, self.lazy.paths.iter());
                    Rc::new(FillPlan { eager, lazy })
                },
            );
            self.sources[rank] = plan.map_or(SourcePlan::Materialize, SourcePlan::Fill);
        }
        match &self.sources[rank] {
            SourcePlan::Fill(plan) => Some(Rc::clone(plan)),
            _ => None,
        }
    }

    /// Run the four phases over one batch, pushing its survivors into
    /// `pipeline`. Returns how many of the batch's records were consumed:
    /// all of them, unless a row filled the pipeline's `Limit` sink, which
    /// only a stage yielding several rows per row (`Unnest`) can do mid-batch.
    /// A storage fault reading column pages for a row reference is reported
    /// to the scan's health; the rows it hits are dropped from the batch, and
    /// the faulted source's later references are no longer filled.
    fn process_batch(
        &mut self,
        iter: &mut MergedScan,
        batch: &[BatchRow],
        pipeline: &mut Pipeline<'_>,
        stats: &mut ExecStats,
    ) -> Result<usize, AdmError> {
        let mut reads = ColumnReads {
            iter,
            groups: FxHashMap::default(),
            faults: Vec::new(),
            items: Vec::new(),
        };
        self.eager.clear();
        self.lazy.clear();
        self.sel.clear();
        for (i, row) in batch.iter().enumerate() {
            match row {
                BatchRow::Bytes(payload) => self.eager.append(payload)?,
                BatchRow::Ref { plan, rank, group, row } => {
                    if !reads.fill(&plan.eager, *rank, *group, *row, &mut self.eager.cols) {
                        // Keeps the columns row-aligned; never selected.
                        self.eager.cols.iter_mut().for_each(|c| c.push(Value::Missing));
                        continue;
                    }
                }
            }
            self.sel.push(i as u32);
        }

        self.apply_filter();

        let mut kept = 0;
        for pos in 0..self.sel.len() {
            let r = self.sel[pos];
            match &batch[r as usize] {
                BatchRow::Bytes(payload) => self.lazy.append(payload)?,
                BatchRow::Ref { plan, rank, group, row } => {
                    if !reads.fill(&plan.lazy, *rank, *group, *row, &mut self.lazy.cols) {
                        continue;
                    }
                }
            }
            self.sel[kept] = r;
            kept += 1;
        }
        self.sel.truncate(kept);
        stats.bytes_scanned += reads.groups.values().map(GroupView::bytes_read).sum::<u64>();
        for (rank, e) in reads.faults {
            self.sources[rank] = SourcePlan::Materialize;
            iter.report_fault(rank, e);
        }

        let limited = pipeline.room().is_some();
        // The column whose typed items the pipeline folds as they are; any
        // other record in a typed buffer is built into its array.
        let folds = pipeline.folds_typed(self.slots.len());
        // One row buffer for the batch: a pipeline that does not keep a row
        // hands its allocation back.
        let mut row: Row = Vec::new();
        let (eager, lazy) = (&mut self.eager.cols, &mut self.lazy.cols);
        for (pos, &r) in self.sel.iter().enumerate() {
            row.clear();
            for (i, &cell) in self.slots.iter().enumerate() {
                // The folded column is read last; it reads null below the
                // unnest.
                row.push(if folds == Some(i) {
                    Value::Null
                } else {
                    let (col, at) = column_at(eager, lazy, cell, r, pos);
                    col.take(at)
                });
            }
            match folds {
                Some(i) => {
                    let (col, at) = column_at(eager, lazy, self.slots[i], r, pos);
                    match col.doubles(at) {
                        Some(xs) => {
                            stats.typed_fold_rows += 1;
                            pipeline.push_doubles(&mut row, xs);
                        }
                        None => {
                            row[i] = col.take(at);
                            pipeline.push(&mut row);
                        }
                    }
                }
                None => pipeline.push(&mut row),
            }
            if limited && pipeline.room() == Some(0) {
                return Ok(r as usize + 1);
            }
        }
        Ok(batch.len())
    }

    /// Refine the selection vector with every filter conjunct: typed
    /// column-vs-constant loops first (they prune cheapest), then one pass
    /// for the generic leftovers.
    fn apply_filter(&mut self) {
        if self.conjuncts.is_empty() {
            return;
        }
        let mut generic: Vec<&Expr> = Vec::new();
        for &conjunct in &self.conjuncts {
            if self.sel.is_empty() {
                return;
            }
            match typed_cmp(conjunct, &self.eager_of_early) {
                Some((slot, op, konst)) => {
                    let col = self.eager.cols[slot].values();
                    if !refine_typed(&mut self.sel, col, op, konst) {
                        generic.push(conjunct);
                    }
                }
                None => generic.push(conjunct),
            }
        }
        if generic.is_empty() || self.sel.is_empty() {
            return;
        }
        let scratch = &mut self.scratch_row;
        let cols = &self.eager.cols;
        let eager_of_early = &self.eager_of_early;
        self.sel.retain(|&r| {
            for (early, slot) in eager_of_early.iter().enumerate() {
                if let Some(slot) = slot {
                    scratch[early] = cols[*slot].values()[r as usize].clone();
                }
            }
            generic.iter().all(|c| c.eval_bool(scratch))
        });
    }
}

/// The emit loop's column `slot` of `group`, and where row `r`, the `pos`-th
/// survivor, sits in it: eager columns hold every record of the batch, lazy
/// ones only the survivors.
fn column_at<'c>(
    eager: &'c mut [Column],
    lazy: &'c mut [Column],
    (group, slot): (Group, usize),
    r: u32,
    pos: usize,
) -> (&'c mut Column, usize) {
    match group {
        Group::Eager => (&mut eager[slot], r as usize),
        Group::Lazy => (&mut lazy[slot], pos),
    }
}

/// A group of columns decoded together, honoring the plan's
/// [`AccessStrategy`]: consolidated = one `getValues` drive per record,
/// per-path = one drive per path (the Fig 23 "un-op" configuration). Both
/// engines evaluate stored records through these; with `typed`, a record's
/// one-wildcard matches that are all doubles land in a column's `f64`
/// buffer instead of a `Value` array.
pub(crate) struct ColumnSet {
    paths: Vec<Path>,
    parts: Vec<PathBatch>,
    cols: Vec<Column>,
}

impl ColumnSet {
    pub(crate) fn new(
        decoder: &RecordDecoder,
        paths: Vec<Path>,
        access: AccessStrategy,
        typed: bool,
    ) -> ColumnSet {
        let parts: Vec<PathBatch> = if paths.is_empty() {
            Vec::new()
        } else {
            match access {
                AccessStrategy::Consolidated => vec![decoder.batch(&paths)],
                AccessStrategy::PerPath => {
                    paths.iter().map(|p| decoder.batch(std::slice::from_ref(p))).collect()
                }
            }
        };
        ColumnSet { cols: vec![Column::new(typed); paths.len()], paths, parts }
    }

    fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), AdmError> {
        let mut cols = self.cols.as_mut_slice();
        for part in &mut self.parts {
            let (head, rest) = cols.split_at_mut(part.width());
            part.append(bytes, head)?;
            cols = rest;
        }
        Ok(())
    }

    /// Evaluate every path against one record and hand its values back as a
    /// row (the row engine's step), leaving the columns empty.
    pub(crate) fn take_row(&mut self, bytes: &[u8]) -> Result<Row, AdmError> {
        self.clear();
        self.append(bytes)?;
        Ok(self.cols.iter_mut().filter_map(Column::pop).collect())
    }
}

/// Split a predicate at top-level `AND`s.
pub(crate) fn split_conjuncts(pred: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::And(a, b) => {
                rec(a, out);
                rec(b, out);
            }
            _ => out.push(e),
        }
    }
    rec(pred, &mut out);
    out
}

/// Recognize `col <op> const` (either orientation). Returns the scan
/// column index, the op normalized to column-on-the-left, and the
/// constant. Shared with the columnar fast path, which maps the column
/// index onto typed column buffers instead of eager slots.
pub(crate) fn typed_cmp_on(conjunct: &Expr) -> Option<(usize, CmpOp, &Value)> {
    let Expr::Cmp { op, lhs, rhs } = conjunct else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Col(i), Expr::Const(c)) => Some((*i, *op, c)),
        (Expr::Const(c), Expr::Col(i)) => Some((*i, flip(*op), c)),
        _ => None,
    }
}

/// [`typed_cmp_on`] resolved to an eagerly decoded column's slot.
fn typed_cmp<'e>(
    conjunct: &'e Expr,
    eager_of_early: &[Option<usize>],
) -> Option<(usize, CmpOp, &'e Value)> {
    let (col, op, konst) = typed_cmp_on(conjunct)?;
    let slot = *eager_of_early.get(col)?;
    slot.map(|s| (s, op, konst))
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Typed fast path: homogeneous `Int64` (or `Double`) column against a
/// same-typed constant runs as a primitive comparison loop. Returns false
/// when the column/constant isn't uniformly typed — the caller falls back
/// to generic evaluation, preserving SQL++ mixed-type semantics exactly.
fn refine_typed(sel: &mut Vec<u32>, col: &[Value], op: CmpOp, konst: &Value) -> bool {
    match konst {
        Value::Int64(k) => {
            if !sel.iter().all(|&r| matches!(col[r as usize], Value::Int64(_))) {
                return false;
            }
            let k = *k;
            sel.retain(|&r| match col[r as usize] {
                Value::Int64(x) => cmp_prim(op, x, k),
                _ => false,
            });
            true
        }
        Value::Double(k) if !k.is_nan() => {
            if !sel.iter().all(|&r| matches!(col[r as usize], Value::Double(x) if !x.is_nan())) {
                return false;
            }
            let k = *k;
            sel.retain(|&r| match col[r as usize] {
                Value::Double(x) => cmp_prim(op, x, k),
                _ => false,
            });
            true
        }
        _ => false,
    }
}

pub(crate) fn cmp_prim<T: PartialOrd>(op: CmpOp, x: T, k: T) -> bool {
    match op {
        CmpOp::Eq => x == k,
        CmpOp::Ne => x != k,
        CmpOp::Lt => x < k,
        CmpOp::Le => x <= k,
        CmpOp::Gt => x > k,
        CmpOp::Ge => x >= k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_split_is_top_level_only() {
        let e = Expr::and(
            Expr::eq(Expr::col(0), Expr::lit(1i64)),
            Expr::and(
                Expr::Or(
                    Box::new(Expr::eq(Expr::col(1), Expr::lit(2i64))),
                    Box::new(Expr::eq(Expr::col(2), Expr::lit(3i64))),
                ),
                Expr::eq(Expr::col(3), Expr::lit(4i64)),
            ),
        );
        assert_eq!(split_conjuncts(&e).len(), 3);
    }

    #[test]
    fn typed_refine_matches_expr_semantics() {
        let col = vec![Value::Int64(1), Value::Int64(5), Value::Int64(9)];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let mut sel: Vec<u32> = (0..col.len() as u32).collect();
            assert!(refine_typed(&mut sel, &col, op, &Value::Int64(5)));
            let pred = Expr::cmp(op, Expr::col(0), Expr::lit(5i64));
            let expected: Vec<u32> = (0..col.len() as u32)
                .filter(|&r| pred.eval_bool(std::slice::from_ref(&col[r as usize])))
                .collect();
            assert_eq!(sel, expected, "{op:?}");
        }
    }

    #[test]
    fn mixed_typed_column_declines_fast_path() {
        let col = vec![Value::Int64(1), Value::Null, Value::Int64(9)];
        let mut sel: Vec<u32> = vec![0, 1, 2];
        assert!(!refine_typed(&mut sel, &col, CmpOp::Lt, &Value::Int64(5)));
        assert_eq!(sel, vec![0, 1, 2], "declined refine must not touch sel");
        // But a selection that already excludes the nulls qualifies.
        let mut sel: Vec<u32> = vec![0, 2];
        assert!(refine_typed(&mut sel, &col, CmpOp::Lt, &Value::Int64(5)));
        assert_eq!(sel, vec![0]);
    }
}
