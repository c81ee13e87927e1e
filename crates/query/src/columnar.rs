//! The zero-pivot columnar scan.
//!
//! When a partition rests in the AMAX columnar layout (exactly one valid
//! columnar component, nothing in memory — see
//! [`tuple_compactor::Dataset::snapshot_columnar`]), the batched engine
//! bypasses row reconstruction entirely: filter conjuncts over typed
//! columns run as primitive loops straight over the decoded column
//! buffers, row groups whose zone (their min/max stats) fails the filter are
//! skipped without reading a single data page, and the residual column is
//! decoded only for rows that survive the filter. No record is ever
//! pivoted back into its row form — output values come from the typed
//! buffers and targeted path evaluation over survivors' residuals.
//!
//! The fast path is conservative: any shape it cannot answer *exactly*
//! like the generic scan (whole-record paths, paths crossing a typed
//! column's prefix, partitions not at rest) returns `None` before it pushes
//! a row, and the caller runs the batched scan ([`crate::batch`]) instead.
//! Survivors go into the query pipeline row by row, and no group is started
//! once a `LIMIT` is full. A storage fault mid-scan is not a fallback: it
//! follows the query's corruption policy in place. Per-group type spills
//! demote affected conjuncts to generic evaluation, so SQL++ mixed-type
//! semantics (`2 == 2.0`) survive schema drift.
//!
//! "Not at rest" no longer means "reconstruct every record": the batched
//! scan reconciles the partition's components on their key blocks and fills
//! its column buffers from the same column and residual blocks, through the
//! same lazily faulted view of a row group ([`tc_columnar::GroupView`]) and
//! the path classification (`PathPlan`) defined here — values boxed, generic
//! filter loops. Group skipping is one rule on both paths: a group's stats
//! are its zone ([`tc_lsm::ColumnarChunk::group_zone`]), judged by
//! [`crate::zone::ZonePredicate`] — here for the lone component, and by the
//! live scan's skip rule ([`tc_lsm::iter`]) for a partition of many. What
//! this module keeps to itself is what only a lone, anti-matter-free
//! component allows: primitive loops over a column's typed values.
//! `ColumnarCounters::pages_skipped` counts this scan's skips only; every
//! skip, here or live, counts in [`crate::exec::ExecStats::units_skipped`].
//!
//! Nothing here knows the block format: a group's blocks are read by the
//! view, and a block is read when — and only when — a row of it is asked for.

use std::cell::RefCell;

use tc_adm::path::{Path, PathStep};
use tc_adm::{AdmError, TypeTag, Value};
use tc_columnar::{ChunkReader, GroupView};
use tc_lsm::component::DiskComponent;
use tc_lsm::ColumnarChunk;
use tc_storage::page_store::PageStore;
use tc_storage::{BufferCache, StorageError};
use tc_vector::BatchPathEvaluator;
use tuple_compactor::Dataset;

use crate::batch::{cmp_prim, split_conjuncts, typed_cmp_on};
use crate::exec::{CorruptionPolicy, ExecStats, Row};
use crate::expr::{CmpOp, Expr};
use crate::pipeline::Pipeline;
use crate::plan::ScanSpec;
use crate::zone::ZonePredicate;

/// Where one scan output column comes from.
#[derive(Clone, Copy)]
enum Slot {
    /// A typed column (index into the chunk's column list).
    Typed(usize),
    /// Evaluated against the row's residual record (index into the
    /// residual path list).
    Residual(usize),
}

/// A conjunct compiled to a primitive loop over one typed column. `expr`
/// is the original conjunct, for groups where the loop must demote to
/// generic evaluation (spills, NaN values).
struct TypedPred<'e> {
    /// The chunk column it reads, and the scan column that is.
    col: usize,
    at: usize,
    op: CmpOp,
    konst: Prim,
    expr: &'e Expr,
}

/// The constant of a [`TypedPred`], of its column's type.
#[derive(Clone, Copy)]
enum Prim {
    Int(i64),
    /// Never NaN.
    Double(f64),
}

/// Try the columnar fast scan, pushing its rows into `pipeline`: its scan
/// counters, or `Ok(None)` — "not covered, run the generic scan instead" —
/// for a shape or state it does not cover, decided before the first row is
/// pushed. A storage fault mid-scan cannot fall back, since rows are already
/// in the pipeline; it follows the query's policy in place, by the live
/// scan's rule: corruption quarantines the component, `Fail` turns the fault
/// into an error, `Degrade` keeps the rows pushed so far and reports the
/// component in `quarantined_components`. A transient fault stays transient.
pub(crate) fn try_scan_columnar(
    ds: &Dataset,
    scan: &ScanSpec,
    zones: Option<&ZonePredicate>,
    pipeline: &mut Pipeline<'_>,
    policy: CorruptionPolicy,
) -> Result<Option<ExecStats>, AdmError> {
    let Some(component) = ds.snapshot_columnar() else {
        return Ok(None);
    };
    let component = component.as_ref();
    let Some((reader, store)) = chunk_reader(component) else {
        return Ok(None);
    };
    let Some(plan) = PathPlan::classify(reader, scan.paths.iter().chain(&scan.late_paths)) else {
        return Ok(None);
    };
    let slots = &plan.slots;
    let early = scan.paths.len();

    // ---- compile the filter ----
    let conjuncts = match &scan.filter {
        Some(pred) => split_conjuncts(pred),
        None => Vec::new(),
    };
    let mut typed: Vec<TypedPred<'_>> = Vec::new();
    let mut generic: Vec<&Expr> = Vec::new();
    for expr in conjuncts {
        match typed_cmp_on(expr) {
            Some((col, op, konst)) if col < early => match (slots[col], konst) {
                (Slot::Typed(c), Value::Int64(k)) if reader.columns()[c].tag == TypeTag::Int64 => {
                    typed.push(TypedPred { col: c, at: col, op, konst: Prim::Int(*k), expr });
                }
                (Slot::Typed(c), Value::Double(k))
                    if reader.columns()[c].tag == TypeTag::Double && !k.is_nan() =>
                {
                    typed.push(TypedPred { col: c, at: col, op, konst: Prim::Double(*k), expr });
                }
                _ => generic.push(expr),
            },
            _ => generic.push(expr),
        }
    }

    let cache = ds.primary().cache();
    let mut stats = ExecStats::default();
    if let Err(e) = scan_groups(
        reader, store, cache, scan, &plan, zones, &typed, &generic, pipeline, &mut stats,
    ) {
        if e.is_corruption() {
            component.quarantine();
        }
        if e.is_transient() || policy == CorruptionPolicy::Fail {
            return Err(AdmError::storage(e.to_string(), e.is_transient()));
        }
        stats.quarantined_components = 1;
    }
    Ok(Some(stats))
}

/// The scan proper; `stats` gets its rows scanned, bytes read and groups
/// skipped. A group's rows count as scanned up to the one whose row filled
/// a `Limit` sink, and no group is started after it.
#[allow(clippy::too_many_arguments)]
fn scan_groups(
    reader: &ChunkReader,
    store: &PageStore,
    cache: &BufferCache,
    scan: &ScanSpec,
    plan: &PathPlan,
    zones: Option<&ZonePredicate>,
    typed: &[TypedPred<'_>],
    generic: &[&Expr],
    pipeline: &mut Pipeline<'_>,
    stats: &mut ExecStats,
) -> Result<(), StorageError> {
    let PathPlan { slots, residual_paths, .. } = plan;
    let counters = reader.counters();
    let page_size = store.page_size();
    let early = scan.paths.len();
    let limited = pipeline.room().is_some();
    // The early columns the generic conjuncts read: (scan column, chunk
    // column) pairs read per row, and residual paths evaluated by one
    // evaluator for the scan. A group adds the column of each typed
    // conjunct it demotes.
    let mut refd: Vec<usize> = generic.iter().flat_map(|c| c.referenced_cols()).collect();
    refd.sort_unstable();
    refd.dedup();
    let (mut typed_cols, mut res_cols, mut res_paths) = (Vec::new(), Vec::new(), Vec::new());
    for i in refd.into_iter().filter(|&i| i < early) {
        match slots[i] {
            Slot::Typed(c) => typed_cols.push((i, c)),
            Slot::Residual(j) => {
                res_cols.push(i);
                res_paths.push(residual_paths[j].clone());
            }
        }
    }
    let mut res_eval = BatchPathEvaluator::new(&res_paths);

    for g in 0..reader.groups().len() {
        let gm = &reader.groups()[g];

        // ---- zone-based group skip (Fig 24-style) ----
        // Judged for every group, as the live scan's snapshot judges every
        // unit: `units_skipped` does not depend on where a limit stops.
        let zone = zones.zip(reader.group_zone(g));
        if zone.is_some_and(|(zones, (columns, zone))| !zones.may_match(columns, &zone)) {
            counters.note_pages_skipped(reader.group_pages(g, page_size));
            stats.units_skipped += 1;
            continue;
        }
        if limited && pipeline.room() == Some(0) {
            continue;
        }

        let mut sel: Vec<u32> = (0..gm.rows).collect();
        let mut view = reader.view(store, cache, g);
        let mut group_generic: Vec<&Expr> = generic.to_vec();
        let mut group_cols: Vec<(usize, usize)> = typed_cols.clone();

        // ---- typed primitive filter loops ----
        for p in typed {
            if sel.is_empty() {
                break;
            }
            // Spilled values live in the residual with a different type;
            // the primitive loop cannot see them. Demote for this group.
            if gm.cols[p.col].spilled > 0 {
                group_generic.push(p.expr);
                group_cols.push((p.at, p.col));
                continue;
            }
            // NaN breaks primitive comparison semantics; a group that holds
            // one goes to the generic evaluator.
            let kept = match p.konst {
                Prim::Int(k) => refine(&sel, p.op, k, |_| false, |r| view.i64_at(p.col, r)),
                Prim::Double(k) => refine(&sel, p.op, k, |x| x.is_nan(), |r| view.f64_at(p.col, r)),
            };
            match kept? {
                Some(kept) => {
                    counters.note_typed_filter_rows(sel.len() as u64);
                    sel = kept;
                }
                None => {
                    group_generic.push(p.expr);
                    group_cols.push((p.at, p.col));
                }
            }
        }

        // ---- generic conjuncts over a scratch row of early columns ----
        if !group_generic.is_empty() && !sel.is_empty() {
            let mut scratch: Vec<Value> = vec![Value::Missing; early];
            let mut keep: Vec<u32> = Vec::with_capacity(sel.len());
            for &r in &sel {
                for &(i, c) in &group_cols {
                    scratch[i] = view.value_at(c, r as usize)?;
                }
                if !res_cols.is_empty() {
                    let vals = view.residual_values(r as usize, &mut res_eval)?;
                    for (&i, v) in res_cols.iter().zip(vals) {
                        scratch[i] = v;
                    }
                }
                if group_generic.iter().all(|c| c.eval_bool(&scratch)) {
                    keep.push(r);
                }
            }
            sel = keep;
        }

        // ---- push survivor rows ----
        let mut consumed = gm.rows;
        for &r in &sel {
            pipeline.push(&mut plan.row_values(&mut view, r)?);
            if limited && pipeline.room() == Some(0) {
                consumed = r + 1;
                break;
            }
        }
        stats.rows_scanned += consumed as u64;
        stats.bytes_scanned += view.bytes_read();
    }
    Ok(())
}

/// The primitive loop of one typed conjunct: the rows of `sel` whose value
/// (`at(row)`; `None` = not present) satisfies `<op> k` — or `None`, nothing
/// decided, if one of them holds a value `unordered` says cannot be compared.
fn refine<T: PartialOrd + Copy>(
    sel: &[u32],
    op: CmpOp,
    k: T,
    unordered: impl Fn(T) -> bool,
    mut at: impl FnMut(usize) -> Result<Option<T>, StorageError>,
) -> Result<Option<Vec<u32>>, StorageError> {
    let mut kept = Vec::with_capacity(sel.len());
    for &r in sel {
        match at(r as usize)? {
            Some(x) if unordered(x) => return Ok(None),
            Some(x) if cmp_prim(op, x, k) => kept.push(r),
            _ => {}
        }
    }
    Ok(Some(kept))
}

/// The format-aware reader of a columnar component and the store its pages
/// live on; `None` for row-layout components and foreign chunk types.
pub(crate) fn chunk_reader(component: &DiskComponent) -> Option<(&ChunkReader, &PageStore)> {
    let (chunk, store) = component.columnar_view()?;
    Some((ChunkReader::of(chunk)?, store))
}

/// Where a list of scan paths is read from in one component.
pub(crate) struct PathPlan {
    /// Parallel to the path list.
    slots: Vec<Slot>,
    /// The paths evaluated against the residual record.
    residual_paths: Vec<Path>,
    /// Evaluates `residual_paths`: one evaluator for every row of a scan.
    residual: RefCell<BatchPathEvaluator>,
}

impl PathPlan {
    /// `None` if any path has a shape the column pages cannot answer exactly
    /// (see [`classify`]).
    pub(crate) fn classify<'p>(
        reader: &ChunkReader,
        paths: impl Iterator<Item = &'p Path>,
    ) -> Option<PathPlan> {
        let (mut slots, mut residual_paths) = (Vec::new(), Vec::new());
        for path in paths {
            match classify(reader, path)? {
                Slot::Residual(_) => {
                    slots.push(Slot::Residual(residual_paths.len()));
                    residual_paths.push(path.clone());
                }
                slot => slots.push(slot),
            }
        }
        let residual = RefCell::new(BatchPathEvaluator::new(&residual_paths));
        Some(PathPlan { slots, residual_paths, residual })
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Row `r`'s value at every planned path, in path order. A plain loop
    /// on purpose: the at-rest `count(*)` calls this once per row with no
    /// paths, and an iterator `collect::<Result<_, _>>()` here cost it 40 %.
    pub(crate) fn row_values(&self, view: &mut GroupView<'_>, r: u32) -> Result<Row, StorageError> {
        let mut residual = if self.residual_paths.is_empty() {
            Vec::new()
        } else {
            view.residual_values(r as usize, &mut self.residual.borrow_mut())?
        };
        let mut row: Row = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            row.push(match *slot {
                Slot::Typed(c) => view.value_at(c, r as usize)?,
                Slot::Residual(i) => std::mem::replace(&mut residual[i], Value::Missing),
            });
        }
        Ok(row)
    }
}

/// Map a scan path onto its source. `None` = unsupported shape (whole
/// record, or a prefix with typed columns carved out beneath it).
fn classify(reader: &ChunkReader, path: &Path) -> Option<Slot> {
    if path.is_empty() {
        return None; // whole-record access needs full reconstruction
    }
    // The leading run of plain field steps decides where the value lives.
    let field = |step: &PathStep| match step {
        PathStep::Field(name) => Some(name.clone()),
        _ => None,
    };
    let fields: Vec<String> = path.iter().map_while(field).collect();
    if fields.len() == path.len() {
        if let Some(c) = reader.find_column(&fields) {
            return Some(Slot::Typed(c));
        }
    }
    // Residual-safe iff no typed column was carved out at/below the prefix
    // the path enters through — then the residual holds the whole subtree.
    (!reader.has_column_at_or_below(&fields)).then_some(Slot::Residual(0))
}
