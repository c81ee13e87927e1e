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
//! buffers and targeted path evaluation over survivors' residuals. A query
//! that does want a survivor's whole record (`SELECT *`), or a value under
//! a prefix some typed column was carved out of, gets the record assembled
//! straight into a `Value` ([`GroupView::record`]) and read off it, never
//! encoded to vector bytes and decoded again.
//!
//! A path through a collection with repeated columns is read from them: its
//! column's steps (`readings[*].temp`) from that column alone, any other
//! path into the collection (`readings`, `readings[0].temp`) off the
//! collection zipped from its columns ([`GroupView::collection_at`]). When
//! the query unnests such a `double` column into a group-by keyed without
//! the item (`AVG(readings[*].temp)` per sensor), each row's present items go
//! from the column's bytes into a flat `f64` buffer the group-by folds, with
//! no `Value` per item ([`GroupView::present_doubles`]).
//!
//! Every path shape has its source (`PathPlan`); what the fast path does not
//! cover is a state — a partition not at rest, or a chunk of another codec.
//! It returns `None` for one before it pushes a row, and the caller runs the
//! batched scan ([`crate::batch`]) instead.
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
//! the path classification (`PathPlan`) defined here, appending each row's
//! values to the batch's column buffers (`PathPlan::fill`): a repeated
//! `double` column's row into the typed buffer as the fold here decodes it,
//! any other value as a `Value`; its filters run generic loops. Group
//! skipping is one rule on both paths: a group's stats
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

use tc_adm::path::{eval_path, Path, PathStep};
use tc_adm::{AdmError, TypeTag, Value};
use tc_columnar::{ChunkReader, GroupView};
use tc_lsm::ColumnarChunk;
use tc_storage::page_store::PageStore;
use tc_storage::{BufferCache, StorageError};
use tc_vector::{BatchPathEvaluator, Column};
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
    /// A repeated column read at its steps (`readings[*].temp`): the row's
    /// items' values. `doubles`: are they `double`s, for a typed buffer?
    Items { col: usize, doubles: bool },
    /// Evaluated against a collection zipped from its repeated columns
    /// ([`GroupView::collection_at`]; index into the collection path list):
    /// any other path into it, `readings` or `readings[0].temp`.
    InCollection(usize),
    /// Evaluated against the row's residual record (index into the
    /// residual path list).
    Residual(usize),
    /// The row's whole record, assembled ([`GroupView::record`]).
    Record,
    /// Evaluated against the assembled record (index into the record path
    /// list): a path that enters a prefix with typed columns carved out
    /// beneath it.
    InRecord(usize),
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
    let Some((reader, store)) = ChunkReader::of_component(component) else {
        return Ok(None);
    };
    let plan = PathPlan::classify(reader, scan.paths.iter().chain(&scan.late_paths));
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
    let counters = reader.counters();
    let page_size = store.page_size();
    let limited = pipeline.room().is_some();
    // The early columns the generic conjuncts read, and where this component
    // holds them: read per row into a scratch row. A group adds the column
    // of each typed conjunct it demotes.
    let mut refd: Vec<usize> = generic.iter().flat_map(|c| c.referenced_cols()).collect();
    refd.sort_unstable();
    refd.dedup();
    refd.retain(|&i| i < scan.paths.len());
    let refd_plan = PathPlan::classify(reader, refd.iter().map(|&i| &scan.paths[i]));
    // The column whose `double` items the pipeline folds as they are
    // (`readings[*].temp` unnested into a group-by): the scan column and
    // the repeated column; `items` holds one row's.
    let folds = pipeline.folds_typed(plan.slots.len()).and_then(|i| match plan.slots[i] {
        Slot::Items { col, doubles: true } => Some((i, col)),
        _ => None,
    });
    let mut items: Vec<f64> = Vec::new();

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
        // Demoted typed conjuncts: (scan column, chunk column).
        let mut demoted: Vec<(usize, usize)> = Vec::new();

        // ---- typed primitive filter loops ----
        for p in typed {
            if sel.is_empty() {
                break;
            }
            // Spilled values live in the residual with a different type;
            // the primitive loop cannot see them. Demote for this group.
            if gm.cols[p.col].spilled > 0 {
                group_generic.push(p.expr);
                demoted.push((p.at, p.col));
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
                    demoted.push((p.at, p.col));
                }
            }
        }

        // ---- generic conjuncts over a scratch row of early columns ----
        if !group_generic.is_empty() && !sel.is_empty() {
            let mut scratch: Vec<Value> = vec![Value::Missing; scan.paths.len()];
            let mut keep: Vec<u32> = Vec::with_capacity(sel.len());
            for &r in &sel {
                for (&i, v) in refd.iter().zip(refd_plan.row_values(&mut view, r)?) {
                    scratch[i] = v;
                }
                for &(i, c) in &demoted {
                    scratch[i] = view.value_at(c, r as usize)?;
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
            match folds {
                Some((i, c)) => {
                    let mut row = plan.row_values_but(&mut view, r, Some(i))?;
                    if view.present_doubles(c, r as usize, &mut items)? {
                        stats.typed_fold_rows += 1;
                        pipeline.push_doubles(&mut row, &items);
                    } else {
                        row[i] = view.value_at(c, r as usize)?;
                        pipeline.push(&mut row);
                    }
                }
                None => pipeline.push(&mut plan.row_values(&mut view, r)?),
            }
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

/// Where a list of scan paths is read from in one component.
pub(crate) struct PathPlan {
    /// Parallel to the path list.
    slots: Vec<Slot>,
    /// The paths evaluated against the residual record.
    residual_paths: Vec<Path>,
    /// Evaluates `residual_paths`: one evaluator for every row of a scan.
    residual: RefCell<BatchPathEvaluator>,
    /// The paths evaluated against the assembled record.
    record_paths: Vec<Path>,
    /// The paths into a collection: the collection, and the steps
    /// evaluated against it.
    collection_paths: Vec<(usize, Path)>,
    /// Does a row's value at some path need its record assembled?
    assembles: bool,
    /// The path that takes the assembled record instead of a copy: the last
    /// path reading it, if that path is the whole record.
    takes_record: Option<usize>,
}

impl PathPlan {
    /// Map each path onto its source in `reader`'s component: every shape
    /// has one (see [`classify`]).
    pub(crate) fn classify<'p>(
        reader: &ChunkReader,
        paths: impl Iterator<Item = &'p Path>,
    ) -> PathPlan {
        let (mut slots, mut residual_paths, mut record_paths) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut collection_paths = Vec::new();
        for path in paths {
            slots.push(match classify(reader, path) {
                Slot::InCollection(_) => {
                    let (k, depth) = reader.find_collection(path).unwrap_or_default();
                    collection_paths.push((k, path[depth..].to_vec()));
                    Slot::InCollection(collection_paths.len() - 1)
                }
                Slot::Residual(_) => {
                    residual_paths.push(path.clone());
                    Slot::Residual(residual_paths.len() - 1)
                }
                Slot::InRecord(_) => {
                    record_paths.push(path.clone());
                    Slot::InRecord(record_paths.len() - 1)
                }
                slot => slot,
            });
        }
        let residual = RefCell::new(BatchPathEvaluator::new(&residual_paths));
        let reads_record = |s: &Slot| matches!(s, Slot::Record | Slot::InRecord(_));
        let last_read = slots.iter().rposition(reads_record);
        let takes_record = last_read.filter(|&i| matches!(slots[i], Slot::Record));
        PathPlan {
            residual,
            residual_paths,
            record_paths,
            collection_paths,
            assembles: last_read.is_some(),
            takes_record,
            slots,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Row `r`'s value at every planned path, in path order. The at-rest
    /// `count(*)` calls this once per row with no paths, so a plan without
    /// paths returns before it reads a row's inputs (reading them cost it
    /// 60 %), and the loop is a plain one (an iterator
    /// `collect::<Result<_, _>>()` here cost it 40 %).
    pub(crate) fn row_values(&self, view: &mut GroupView<'_>, r: u32) -> Result<Row, StorageError> {
        self.row_values_but(view, r, None)
    }

    /// [`PathPlan::row_values`], but for path `skip`, which reads null: its
    /// value is the caller's to read.
    fn row_values_but(
        &self,
        view: &mut GroupView<'_>,
        r: u32,
        skip: Option<usize>,
    ) -> Result<Row, StorageError> {
        if self.slots.is_empty() {
            return Ok(Vec::new());
        }
        let (mut residual, mut record) = self.inputs(view, r)?;
        let mut row: Row = Vec::with_capacity(self.slots.len());
        for i in 0..self.slots.len() {
            row.push(if skip == Some(i) {
                Value::Null
            } else {
                self.value(view, r, i, &mut residual, &mut record)?
            });
        }
        Ok(row)
    }

    /// Append row `r`'s value at every planned path to `cols`, one per path,
    /// with no row built: a row of a repeated `double` column whose items are
    /// all present `double`s goes into its column's typed buffer, decoded
    /// through `items` — the range a stored record's matches would fill. On
    /// a fault, `cols` may hold the row's leading values; the caller rolls
    /// them back.
    pub(crate) fn fill(
        &self,
        view: &mut GroupView<'_>,
        r: u32,
        cols: &mut [Column],
        items: &mut Vec<f64>,
    ) -> Result<(), StorageError> {
        debug_assert_eq!(cols.len(), self.slots.len());
        let (mut residual, mut record) = self.inputs(view, r)?;
        for (i, col) in cols.iter_mut().enumerate() {
            match self.slots[i] {
                Slot::Items { col: c, doubles: true }
                    if view.present_doubles(c, r as usize, items)? =>
                {
                    col.push_f64s(items)
                }
                _ => col.push(self.value(view, r, i, &mut residual, &mut record)?),
            }
        }
        Ok(())
    }

    /// What row `r`'s paths read besides the view's columns: its residual
    /// paths' values and its assembled record (`missing` when no path needs
    /// them). Inlined, as [`PathPlan::value`] is: called per row and per
    /// path, the calls cost the at-rest `q_agg` 3 %.
    #[inline(always)]
    fn inputs(&self, view: &mut GroupView<'_>, r: u32) -> Result<(Row, Value), StorageError> {
        let residual = if self.residual_paths.is_empty() {
            Vec::new()
        } else {
            view.residual_values(r as usize, &mut self.residual.borrow_mut())?
        };
        let record = if self.assembles { view.record(r as usize)? } else { Value::Missing };
        Ok((residual, record))
    }

    /// Row `r`'s value at path `i`, off the view and [`PathPlan::inputs`]:
    /// a residual value moves out, and so does the record into the path that
    /// takes it.
    #[inline(always)]
    fn value(
        &self,
        view: &mut GroupView<'_>,
        r: u32,
        i: usize,
        residual: &mut [Value],
        record: &mut Value,
    ) -> Result<Value, StorageError> {
        Ok(match self.slots[i] {
            Slot::Typed(c) | Slot::Items { col: c, .. } => view.value_at(c, r as usize)?,
            Slot::Residual(j) => std::mem::replace(&mut residual[j], Value::Missing),
            Slot::InRecord(j) => eval_path(record, &self.record_paths[j]),
            Slot::InCollection(j) => {
                let (k, rest) = &self.collection_paths[j];
                eval_path(&view.collection_at(*k, r as usize)?, rest)
            }
            Slot::Record if self.takes_record == Some(i) => {
                std::mem::replace(record, Value::Missing)
            }
            Slot::Record => record.clone(),
        })
    }
}

/// Map a scan path onto its source: the whole record, a typed column, a
/// repeated column at its steps, the collection of repeated columns it
/// enters, the residual — iff no typed column was carved out at or below the
/// prefix the path enters through, so the residual holds the whole subtree
/// — or else the assembled record.
fn classify(reader: &ChunkReader, path: &Path) -> Slot {
    if path.is_empty() {
        return Slot::Record;
    }
    if let Some(col) = reader.find_repeated(path) {
        return Slot::Items { col, doubles: reader.columns()[col].tag == TypeTag::Double };
    }
    if reader.find_collection(path).is_some() {
        return Slot::InCollection(0);
    }
    // The leading run of plain field steps decides where the value lives.
    let field = |step: &PathStep| match step {
        PathStep::Field(name) => Some(name.clone()),
        _ => None,
    };
    let fields: Vec<String> = path.iter().map_while(field).collect();
    if fields.len() == path.len() {
        if let Some(c) = reader.find_column(&fields) {
            return Slot::Typed(c);
        }
    }
    if reader.has_column_at_or_below(&fields) {
        Slot::InRecord(0)
    } else {
        Slot::Residual(0)
    }
}
