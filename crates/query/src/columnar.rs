//! The zero-pivot columnar scan.
//!
//! When a partition rests in the AMAX columnar layout (exactly one valid
//! columnar component, nothing in memory — see
//! [`tuple_compactor::Dataset::snapshot_columnar`]), the batched engine
//! bypasses row reconstruction entirely: filter conjuncts over typed
//! columns run as primitive loops straight over the decoded column
//! buffers, row groups whose min/max stats cannot satisfy a conjunct are
//! skipped without reading a single data page, and the residual column is
//! decoded only for rows that survive the filter. No record is ever
//! pivoted back into its row form — output values come from the typed
//! buffers and targeted path evaluation over survivors' residuals.
//!
//! The fast path is conservative: any shape it cannot answer *exactly*
//! like the generic scan (whole-record paths, paths crossing a typed
//! column's prefix, partitions not at rest) returns `None` and the caller
//! falls back to [`crate::batch::scan_batched`]. Per-group type spills
//! likewise demote affected conjuncts to generic evaluation, so SQL++
//! mixed-type semantics (`2 == 2.0`) survive schema drift.
//!
//! "Not at rest" no longer means "reconstruct every record": the batched
//! scan reconciles the partition's components on their key blocks and fills
//! its column buffers from the same column and residual blocks, through the
//! same [`GroupIo`] and path classification ([`PathPlan`]) defined here —
//! values boxed, generic filter loops, no min/max group skipping. What this
//! module keeps to itself is what only a lone, anti-matter-free component
//! allows: primitive loops over whole decoded columns and skipping groups
//! by their stats without a reconciliation.

use tc_adm::path::{Path, PathStep};
use tc_adm::{AdmError, TypeTag, Value};
use tc_columnar::{ChunkReader, ColumnStats, ColumnValues, DecodedColumn, DEF_PRESENT};
use tc_lsm::component::DiskComponent;
use tc_storage::page_store::PageStore;
use tc_storage::{BufferCache, StorageError};
use tuple_compactor::Dataset;

use crate::batch::{cmp_prim, split_conjuncts, typed_cmp_on};
use crate::exec::Row;
use crate::expr::{CmpOp, Expr};
use crate::plan::ScanSpec;

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
    col: usize,
    op: CmpOp,
    konst: &'e Value,
    expr: &'e Expr,
}

/// The one reader of a row group's blocks: typed columns and the residual
/// block are faulted in on first use and kept for the reader's lifetime.
/// Serves the at-rest scan below and the batched engine's fill of row
/// references ([`crate::batch`]). Errors come back as the raw
/// [`StorageError`]; what a fault means for the component and the query is
/// the caller's policy.
pub(crate) struct GroupIo<'c> {
    reader: &'c ChunkReader,
    store: &'c PageStore,
    cache: &'c BufferCache,
    g: usize,
    cols: Vec<Option<DecodedColumn>>,
    residuals: Option<Vec<Vec<u8>>>,
    /// Bytes of the blocks faulted in so far.
    pub(crate) bytes_read: u64,
}

/// A non-transient storage fault inside the fast path: the component is
/// already quarantined; the caller abandons the fast path so the generic
/// scan's health machinery applies the query's corruption policy.
enum ScanFail {
    Degraded,
    Err(AdmError),
}

/// The at-rest scan's fault policy.
fn degrade(component: &DiskComponent, e: StorageError) -> ScanFail {
    if e.is_transient() {
        ScanFail::Err(AdmError::storage(e.to_string(), true))
    } else {
        component.quarantine();
        ScanFail::Degraded
    }
}

impl<'c> GroupIo<'c> {
    pub(crate) fn new(
        reader: &'c ChunkReader,
        store: &'c PageStore,
        cache: &'c BufferCache,
        g: usize,
    ) -> Self {
        let cols = vec![None; reader.columns().len()];
        GroupIo { reader, store, cache, g, cols, residuals: None, bytes_read: 0 }
    }

    /// Fault one typed column in (memoized for the group's lifetime).
    fn column(&mut self, c: usize) -> Result<&DecodedColumn, StorageError> {
        if self.cols[c].is_none() {
            let col = self.reader.read_column(self.store, self.cache, self.g, c)?;
            self.bytes_read += self.reader.groups()[self.g].cols[c].run.bytes as u64;
            self.cols[c] = Some(col);
        }
        Ok(self.cols[c].as_ref().expect("just faulted"))
    }

    /// Fault the group's residual rows in (memoized).
    fn residual(&mut self) -> Result<&[Vec<u8>], StorageError> {
        if self.residuals.is_none() {
            let res = self.reader.read_residual(self.store, self.cache, self.g)?;
            self.bytes_read += self.reader.groups()[self.g].residual.bytes as u64;
            self.residuals = Some(res);
        }
        Ok(self.residuals.as_ref().expect("just faulted"))
    }

    /// Evaluate `paths` against row `r`'s residual record.
    pub(crate) fn residual_values(
        &mut self,
        r: u32,
        paths: &[Path],
    ) -> Result<Vec<Value>, StorageError> {
        let bytes = &self.residual()?[r as usize];
        tc_vector::get_values(bytes, paths, None, None)
            .map_err(|e| StorageError::corruption("column block", e.to_string()))
    }

    /// One row's value from typed column `c`, falling back to the residual
    /// when the group recorded spills (the mismatched value lives there).
    pub(crate) fn typed_value(&mut self, c: usize, r: u32) -> Result<Value, StorageError> {
        let spilled = self.reader.groups()[self.g].cols[c].spilled;
        let v = self.column(c)?.value_at(r as usize);
        if !matches!(v, Value::Missing) || spilled == 0 {
            return Ok(v);
        }
        let path: Path = self.reader.columns()[c].path.iter().map(PathStep::field).collect();
        Ok(self.residual_values(r, std::slice::from_ref(&path))?.remove(0))
    }
}

/// Try the columnar fast scan. `Ok(None)` means "not covered — run the
/// generic scan instead": either the shape disqualifies up front, or a
/// storage fault mid-scan quarantined the component (PR 8's degradation
/// contract), in which case the generic path sees the quarantined
/// component and applies the query's corruption policy.
pub(crate) fn try_scan_columnar(
    ds: &Dataset,
    scan: &ScanSpec,
    limit_hint: Option<usize>,
    scanned: &mut u64,
    bytes: &mut u64,
) -> Result<Option<Vec<Row>>, AdmError> {
    let Some((_, component)) = ds.snapshot_columnar() else {
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
                (Slot::Typed(c), Value::Int64(_)) if reader.columns()[c].tag == TypeTag::Int64 => {
                    typed.push(TypedPred { col: c, op, konst, expr });
                }
                (Slot::Typed(c), Value::Double(k))
                    if reader.columns()[c].tag == TypeTag::Double && !k.is_nan() =>
                {
                    typed.push(TypedPred { col: c, op, konst, expr });
                }
                _ => generic.push(expr),
            },
            _ => generic.push(expr),
        }
    }

    match scan_groups(reader, store, ds, component, scan, &plan, &typed, &generic, limit_hint) {
        Ok((rows, row_scanned, bytes_read)) => {
            *scanned += row_scanned;
            *bytes += bytes_read;
            Ok(Some(rows))
        }
        Err(ScanFail::Degraded) => Ok(None),
        Err(ScanFail::Err(e)) => Err(e),
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_groups(
    reader: &ChunkReader,
    store: &PageStore,
    ds: &Dataset,
    component: &DiskComponent,
    scan: &ScanSpec,
    plan: &PathPlan,
    typed: &[TypedPred<'_>],
    generic: &[&Expr],
    limit_hint: Option<usize>,
) -> Result<(Vec<Row>, u64, u64), ScanFail> {
    let cache = ds.primary().cache();
    let fail = |e| degrade(component, e);
    let PathPlan { slots, residual_paths } = plan;
    let counters = reader.counters();
    let page_size = store.page_size();
    let early = scan.paths.len();
    let mut rows: Vec<Row> = Vec::new();
    let mut row_scanned = 0u64;
    let mut bytes_read = 0u64;

    'groups: for g in 0..reader.groups().len() {
        let gm = &reader.groups()[g];

        // ---- stats-based group skip (Fig 24-style) ----
        // Sound only for spill-free columns: a spilled value matches under
        // numeric promotion without appearing in the stats.
        for p in typed {
            let meta = &gm.cols[p.col];
            if meta.spilled == 0 && !stats_may_match(&meta.stats, p.op, p.konst) {
                counters.note_pages_skipped(reader.group_pages(g, page_size));
                continue 'groups;
            }
        }

        // With any filter conjunct, every row of the group runs through a
        // loop; a filterless scan only "scans" the rows the assembly loop
        // actually visits (a LIMIT may stop it mid-group).
        let has_filter = !(typed.is_empty() && generic.is_empty());
        if has_filter {
            row_scanned += gm.rows as u64;
        }
        let mut sel: Vec<u32> = (0..gm.rows).collect();
        let mut io = GroupIo::new(reader, store, cache, g);
        let mut group_generic: Vec<&Expr> = generic.to_vec();

        // ---- typed primitive filter loops ----
        for p in typed {
            if sel.is_empty() {
                break;
            }
            // Spilled values live in the residual with a different type;
            // the primitive loop cannot see them. Demote for this group.
            if gm.cols[p.col].spilled > 0 {
                group_generic.push(p.expr);
                continue;
            }
            let col = io.column(p.col).map_err(fail)?;
            match (&col.values, p.konst) {
                (ColumnValues::I64(vals), Value::Int64(k)) => {
                    counters.note_typed_filter_rows(sel.len() as u64);
                    let (k, def) = (*k, &col.def);
                    sel.retain(|&r| {
                        def[r as usize] == DEF_PRESENT && cmp_prim(p.op, vals[r as usize], k)
                    });
                }
                (ColumnValues::F64(vals), Value::Double(k)) => {
                    // NaN breaks primitive comparison semantics; hand those
                    // groups to the generic evaluator.
                    if sel
                        .iter()
                        .any(|&r| col.def[r as usize] == DEF_PRESENT && vals[r as usize].is_nan())
                    {
                        group_generic.push(p.expr);
                        continue;
                    }
                    counters.note_typed_filter_rows(sel.len() as u64);
                    let (k, def) = (*k, &col.def);
                    sel.retain(|&r| {
                        def[r as usize] == DEF_PRESENT && cmp_prim(p.op, vals[r as usize], k)
                    });
                }
                _ => return Err(ScanFail::Degraded), // index/column disagree
            }
        }

        // ---- generic conjuncts over a scratch row of early columns ----
        if !group_generic.is_empty() && !sel.is_empty() {
            let mut refd: Vec<usize> =
                group_generic.iter().flat_map(|c| c.referenced_cols()).collect();
            refd.sort_unstable();
            refd.dedup();
            refd.retain(|&i| i < early);
            let refd_residual: Vec<(usize, Path)> = refd
                .iter()
                .filter_map(|&i| match slots[i] {
                    Slot::Residual(j) => Some((i, residual_paths[j].clone())),
                    Slot::Typed(_) => None,
                })
                .collect();
            let res_paths: Vec<Path> = refd_residual.iter().map(|(_, p)| p.clone()).collect();
            let mut scratch: Vec<Value> = vec![Value::Missing; early];
            let mut keep: Vec<u32> = Vec::with_capacity(sel.len());
            for &r in &sel {
                for &i in &refd {
                    if let Slot::Typed(c) = slots[i] {
                        scratch[i] = io.typed_value(c, r).map_err(fail)?;
                    }
                }
                if !res_paths.is_empty() {
                    let vals = io.residual_values(r, &res_paths).map_err(fail)?;
                    for ((i, _), v) in refd_residual.iter().zip(vals) {
                        scratch[*i] = v;
                    }
                }
                if group_generic.iter().all(|c| c.eval_bool(&scratch)) {
                    keep.push(r);
                }
            }
            sel = keep;
        }

        // ---- assemble survivor rows ----
        for &r in &sel {
            if !has_filter {
                row_scanned += 1;
            }
            rows.push(plan.row_values(&mut io, r).map_err(fail)?);
            if limit_hint.is_some_and(|k| rows.len() >= k) {
                bytes_read += io.bytes_read;
                return Ok((rows, row_scanned, bytes_read));
            }
        }
        bytes_read += io.bytes_read;
    }

    Ok((rows, row_scanned, bytes_read))
}

/// The format-aware reader of a columnar component and the store its pages
/// live on; `None` for row-layout components and foreign chunk types.
pub(crate) fn chunk_reader(component: &DiskComponent) -> Option<(&ChunkReader, &PageStore)> {
    let (chunk, store) = component.columnar_view()?;
    Some((chunk.as_any().downcast_ref::<ChunkReader>()?, store))
}

/// Where a list of scan paths is read from in one component.
#[derive(Default)]
pub(crate) struct PathPlan {
    /// Parallel to the path list.
    slots: Vec<Slot>,
    /// The paths evaluated against the residual record.
    residual_paths: Vec<Path>,
}

impl PathPlan {
    /// `None` if any path has a shape the column pages cannot answer exactly
    /// (see [`classify`]).
    pub(crate) fn classify<'p>(
        reader: &ChunkReader,
        paths: impl Iterator<Item = &'p Path>,
    ) -> Option<PathPlan> {
        let mut plan = PathPlan::default();
        for path in paths {
            match classify(reader, path)? {
                Slot::Residual(_) => {
                    plan.slots.push(Slot::Residual(plan.residual_paths.len()));
                    plan.residual_paths.push(path.clone());
                }
                slot => plan.slots.push(slot),
            }
        }
        Some(plan)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Row `r`'s value at every planned path, in path order. A plain loop
    /// on purpose: the at-rest `count(*)` calls this once per row with no
    /// paths, and an iterator `collect::<Result<_, _>>()` here cost it 40 %.
    pub(crate) fn row_values(&self, io: &mut GroupIo<'_>, r: u32) -> Result<Row, StorageError> {
        let mut residual = if self.residual_paths.is_empty() {
            Vec::new()
        } else {
            io.residual_values(r, &self.residual_paths)?
        };
        let mut row: Row = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            row.push(match *slot {
                Slot::Typed(c) => io.typed_value(c, r)?,
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
    let mut fields: Vec<String> = Vec::new();
    let mut pure = true;
    for step in path {
        match step {
            PathStep::Field(name) if pure => fields.push(name.clone()),
            _ => {
                pure = false;
                break;
            }
        }
    }
    if pure {
        if let Some(c) = reader.find_column(&fields) {
            return Some(Slot::Typed(c));
        }
    }
    // Residual-safe iff no typed column was carved out at/below the prefix
    // the path enters through — then the residual holds the whole subtree.
    (!reader.has_column_at_or_below(&fields)).then_some(Slot::Residual(0))
}

/// Can any *present* value in the group satisfy `col <op> konst`, judged
/// by the group's min/max stats? Non-present rows never pass a comparison
/// (SQL++ null/missing semantics), so `false` skips the group outright.
/// `ColumnStats::None` is inconclusive — it covers both "no present
/// values" and "stats poisoned by NaN" — so it never skips.
fn stats_may_match(stats: &ColumnStats, op: CmpOp, konst: &Value) -> bool {
    match (stats, konst) {
        (ColumnStats::Int { min, max }, Value::Int64(k)) => range_may_match(*min, *max, op, *k),
        (ColumnStats::Float { min, max }, Value::Double(k)) => range_may_match(*min, *max, op, *k),
        _ => true,
    }
}

fn range_may_match<T: PartialOrd>(min: T, max: T, op: CmpOp, k: T) -> bool {
    match op {
        CmpOp::Eq => min <= k && k <= max,
        CmpOp::Ne => !(min == k && max == k),
        CmpOp::Lt => min < k,
        CmpOp::Le => min <= k,
        CmpOp::Gt => max > k,
        CmpOp::Ge => max >= k,
    }
}
