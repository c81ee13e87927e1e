//! The readable columnar chunk: column index, block format, the one view of
//! a stored row group ([`GroupView`]), lossless row-group reconstruction and
//! single-row point reads.

use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tc_adm::datatype::ObjectType;
use tc_adm::path::{Path, PathStep};
use tc_adm::{TypeTag, Value};
use tc_lsm::columnar::ColumnarChunk;
use tc_lsm::component::DiskComponent;
use tc_lsm::entry::{EntryKind, Key};
use tc_lsm::zone::{ColumnZone, Num, Zone, ZoneColumn};
use tc_schema::{FieldNameDictionary, Repetition};
use tc_storage::buffer_cache::BufferCache;
use tc_storage::error::StorageError;
use tc_storage::page_store::{PageId, PageStore};
use tc_util::varint;
use tc_vector::BatchPathEvaluator;

use crate::{ColumnStats, ColumnarCounters, DEF_ABSENT, DEF_ITEM_NULL, DEF_NULL, DEF_PRESENT};

/// Magic prefix of the serialized column index blob.
pub const INDEX_MAGIC: &[u8; 4] = b"TCAX";

/// The layout, as the index blob's version byte names it. Format 4: the
/// component body is one byte stream, every block a byte range of it
/// ([`PageRun`]); a residual row is a vector record *compacted* against the
/// component's field-name dictionary; a path through a collection is a
/// repeated column; and a variable-width row is bounded by its block's
/// offset table alone. (Format 3 had no repeated columns and opened every
/// key, residual and string row with its length; format 2 started every
/// block on a fresh page and spelled field names out in every residual row.
/// Both are refused, like every version but this one.)
pub const FORMAT_VERSION: u8 = 4;

/// A block's location: `bytes` bytes starting at byte `start` of the
/// component body — the stream of the pages the writer filled, blocks back
/// to back, padding after the index blob only. A block begins and ends
/// anywhere in a page; its neighbours share its first and last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    pub start: u64,
    pub bytes: u32,
}

impl PageRun {
    pub fn end(&self) -> u64 {
        self.start + self.bytes as u64
    }

    /// How many pages the range lies on.
    pub fn num_pages(&self, page_size: usize) -> u64 {
        let (page_size, last) = (page_size as u64, self.end().saturating_sub(1).max(self.start));
        last / page_size - self.start / page_size + 1
    }
}

/// A typed column's identity: its leaf path (object field names from the
/// root), scalar type, and where the path crosses a collection, if it does —
/// a repeated column holds one value per item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    pub path: Vec<String>,
    pub tag: TypeTag,
    pub repeated: Option<Repetition>,
}

impl ColumnSpec {
    /// The path a query names the column by: its field names, with a
    /// wildcard where it crosses its collection (`readings[*].temp`).
    pub fn steps(&self) -> Path {
        tc_schema::columns::steps(&self.path, self.repeated)
    }
}

/// The repeated columns under one collection path, which a record is
/// assembled from together: the collection's items zip their values, one
/// per item each.
#[derive(Debug)]
struct Collection {
    /// The field names leading to the collection.
    path: Vec<String>,
    kind: TypeTag,
    /// Its columns, in column order: one for items that are scalars, one per
    /// field for items that are objects.
    cols: Vec<usize>,
    /// The item field each column holds, for items that are objects; empty
    /// for scalar items.
    fields: Vec<String>,
}

/// One column's slice of one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunkMeta {
    pub run: PageRun,
    /// Rows stored as explicit nulls (`DEF_NULL`).
    pub null_count: u32,
    /// Rows whose value at this path exists but *left* the column's type —
    /// it lives in the residual. Nonzero spill disables stats-based group
    /// skipping for predicates on this column (a spilled `2.0` can still
    /// equal an int predicate's `2` under numeric promotion).
    pub spilled: u32,
    pub stats: ColumnStats,
}

/// One row group's layout and statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMeta {
    pub first_key: Key,
    pub rows: u32,
    pub keys: PageRun,
    pub residual: PageRun,
    /// Parallel to the chunk's column list.
    pub cols: Vec<ColumnChunkMeta>,
}

/// The in-memory handle to a columnar component body. Holds the column
/// index; all row data stays on the component's page store until a scan
/// faults the referenced blocks in.
#[derive(Debug)]
pub struct ChunkReader {
    declared: ObjectType,
    counters: Arc<ColumnarCounters>,
    columns: Vec<ColumnSpec>,
    groups: Vec<GroupMeta>,
    /// What the field ids in the residual rows name: the dictionary of the
    /// component's schema blob. `None` for a component built without one,
    /// whose residual rows spell their names out.
    dict: Option<FieldNameDictionary>,
    /// The page the body's byte 0 lies on.
    body: PageId,
    /// The zone columns (every `Int64`/`Double` column, at any depth, but
    /// for repeated ones): their indexes in `columns`, and their paths.
    zone_cols: Vec<usize>,
    zone_paths: Vec<ZoneColumn>,
    collections: Vec<Collection>,
    /// Each column's collection (an index into `collections`), if repeated.
    collection_of: Vec<Option<usize>>,
}

/// The first `N` bytes of `bytes` as an array, for `from_le_bytes`.
fn le_array<const N: usize>(bytes: &[u8]) -> Option<[u8; N]> {
    bytes.get(..N)?.try_into().ok()
}

/// A keys-block row (`key, kind byte`): the key and its kind.
fn read_key_entry(entry: &[u8]) -> Option<(&[u8], EntryKind)> {
    let (kind, key) = entry.split_last()?;
    let kind = match kind {
        0 => EntryKind::Record,
        1 => EntryKind::AntiMatter,
        _ => return None,
    };
    Some((key, kind))
}

impl ChunkReader {
    pub fn new(
        declared: ObjectType,
        counters: Arc<ColumnarCounters>,
        columns: Vec<ColumnSpec>,
        groups: Vec<GroupMeta>,
        dict: Option<FieldNameDictionary>,
        body: PageId,
    ) -> Self {
        let (zone_cols, zone_paths) = columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.repeated.is_none())
            .filter(|(_, c)| matches!(c.tag, TypeTag::Int64 | TypeTag::Double))
            .map(|(i, c)| (i, c.path.clone()))
            .unzip();
        let mut collections: Vec<Collection> = Vec::new();
        let mut collection_of = vec![None; columns.len()];
        for (c, spec) in columns.iter().enumerate() {
            let Some(rep) = spec.repeated else { continue };
            let path = &spec.path[..rep.depth.min(spec.path.len())];
            let at = match collections.iter().position(|k| k.path == path && k.kind == rep.kind) {
                Some(at) => at,
                None => {
                    collections.push(Collection {
                        path: path.to_vec(),
                        kind: rep.kind,
                        cols: vec![],
                        fields: vec![],
                    });
                    collections.len() - 1
                }
            };
            collections[at].cols.push(c);
            collections[at].fields.extend(spec.path.get(rep.depth).cloned());
            collection_of[c] = Some(at);
        }
        ChunkReader {
            declared,
            counters,
            columns,
            groups,
            dict,
            body,
            zone_cols,
            zone_paths,
            collections,
            collection_of,
        }
    }

    /// `chunk` as the format-aware reader, if this crate's codec built it.
    pub fn of(chunk: &dyn ColumnarChunk) -> Option<&ChunkReader> {
        let chunk: &dyn Any = chunk;
        chunk.downcast_ref()
    }

    /// The reader of a columnar component and the store its pages live on;
    /// `None` for a row-layout component or a chunk of another codec.
    pub fn of_component(component: &DiskComponent) -> Option<(&ChunkReader, &PageStore)> {
        let (chunk, store) = component.columnar_view()?;
        Some((ChunkReader::of(chunk)?, store))
    }

    pub fn columns(&self) -> &[ColumnSpec] {
        &self.columns
    }

    pub fn groups(&self) -> &[GroupMeta] {
        &self.groups
    }

    pub fn counters(&self) -> &Arc<ColumnarCounters> {
        &self.counters
    }

    /// The dictionary the residual rows' field ids index, if they hold ids.
    pub fn dict(&self) -> Option<&FieldNameDictionary> {
        self.dict.as_ref()
    }

    /// The page of the component's store the body starts on.
    pub fn body_page(&self) -> PageId {
        self.body
    }

    /// Index of the typed column at exactly this path of object fields, if
    /// any (a repeated column is found by its steps, [`Self::find_repeated`]).
    pub fn find_column(&self, path: &[String]) -> Option<usize> {
        self.columns.iter().position(|c| c.repeated.is_none() && c.path == path)
    }

    /// Index of the repeated column a query path names (`readings[*].temp`,
    /// `tags[*]`), if any.
    pub fn find_repeated(&self, steps: &[PathStep]) -> Option<usize> {
        self.columns.iter().position(|c| c.repeated.is_some() && c.steps() == steps)
    }

    /// The collection with repeated columns a query path enters
    /// (`readings`, `readings[0].temp`), if any: its index
    /// ([`GroupView::collection_at`]) and how many of the path's steps are
    /// its field names.
    pub fn find_collection(&self, steps: &[PathStep]) -> Option<(usize, usize)> {
        self.collections.iter().enumerate().find_map(|(k, coll)| {
            let depth = coll.path.len();
            let enters = steps.len() >= depth
                && coll
                    .path
                    .iter()
                    .zip(steps)
                    .all(|(name, step)| matches!(step, PathStep::Field(f) if f == name));
            enters.then_some((k, depth))
        })
    }

    /// Does any typed column live at `path` or strictly below it? A path
    /// with a typed column underneath cannot be answered from the residual
    /// alone (the typed values were carved out of it).
    pub fn has_column_at_or_below(&self, path: &[String]) -> bool {
        self.columns.iter().any(|c| c.path.len() >= path.len() && c.path[..path.len()] == *path)
    }

    /// The pages group `g`'s blocks lie on (keys first, the last column
    /// last, nothing between them) — what a stats-based group skip avoids
    /// reading, but for the two it may share with its neighbours.
    pub fn group_pages(&self, g: usize, page_size: usize) -> u64 {
        let gm = &self.groups[g];
        let end = gm.cols.last().map_or(gm.residual, |c| c.run).end();
        let whole = PageRun { start: gm.keys.start, bytes: (end - gm.keys.start) as u32 };
        whole.num_pages(page_size)
    }

    fn block<'a>(&self, store: &'a PageStore, cache: &'a BufferCache, run: PageRun) -> Block<'a> {
        Block { store, cache, body: self.body, run }
    }

    /// Row group `g`'s residual and column blocks, none of them read yet.
    pub fn view<'c>(
        &'c self,
        store: &'c PageStore,
        cache: &'c BufferCache,
        g: usize,
    ) -> GroupView<'c> {
        self.resume(store, cache, g, GroupBlocks::default())
    }

    /// The view of group `g` that `blocks` was taken from
    /// ([`GroupView::into_blocks`]), with what it had faulted in.
    pub(crate) fn resume<'c>(
        &'c self,
        store: &'c PageStore,
        cache: &'c BufferCache,
        g: usize,
        mut blocks: GroupBlocks,
    ) -> GroupView<'c> {
        blocks.cols.resize_with(self.columns.len(), || None);
        GroupView { reader: self, store, cache, g, blocks }
    }

    /// Assemble one record from its stored parts — the one routine every
    /// whole-record read ends in, so scans, point reads and the byte forms
    /// made of them agree: onto the row's decoded residual
    /// ([`ChunkReader::residual_record`]) graft each typed column's value at
    /// its path, and each collection zipped from its repeated columns' items
    /// at the collection's (`column(c)`: column `c`'s row).
    fn assemble(
        &self,
        mut value: Value,
        g: usize,
        mut column: impl FnMut(usize) -> Result<Cell, StorageError>,
    ) -> Result<Value, StorageError> {
        for (c, spec) in self.columns.iter().enumerate() {
            let (v, path) = match self.collection_of[c] {
                None => match column(c)? {
                    Cell::One(v) => (v, &spec.path),
                    Cell::Span(_) => return Err(corrupt("column block", g)),
                },
                Some(k) if self.collections[k].cols[0] == c => {
                    let coll = &self.collections[k];
                    let mut spans = Vec::with_capacity(coll.cols.len());
                    for &c in &coll.cols {
                        match column(c)? {
                            Cell::Span(span) => spans.push(span),
                            Cell::One(_) => return Err(corrupt("column block", g)),
                        }
                    }
                    (self.zip(coll, &spans, g)?, &coll.path)
                }
                Some(_) => continue,
            };
            if !matches!(v, Value::Missing) {
                insert_at_path(&mut value, path, v);
            }
        }
        Ok(value)
    }

    /// The collection `coll` holds in a row, zipped from its columns' row
    /// spans (`spans`, in `coll.cols` order): `Missing` when the row has none
    /// there (absent, or spilled to the residual). Every column must say the
    /// same: no collection, a null one, or as many items as the others.
    fn zip(&self, coll: &Collection, spans: &[Vec<u8>], g: usize) -> Result<Value, StorageError> {
        let disagree = || {
            let what = format!("repeated columns of one collection disagree in row group {g}");
            StorageError::corruption("column block", what)
        };
        // Per column: `None` no collection, `Some(None)` a null one.
        let mut rows = Vec::with_capacity(spans.len());
        for (span, &c) in spans.iter().zip(&coll.cols) {
            let tag = self.columns[c].tag;
            let row = if span.is_empty() { None } else { Some(split_items(tag, g, span)?) };
            rows.push((tag, row));
        }
        let count = |(_, row): &(TypeTag, Option<Option<Items<'_>>>)| {
            row.map(|row| row.map(|(defs, _)| defs.len()))
        };
        let first = rows.first().map(count).ok_or_else(disagree)?;
        if rows.iter().any(|row| count(row) != first) {
            return Err(disagree());
        }
        let n = match first {
            None => return Ok(Value::Missing),
            Some(None) => return Ok(Value::Null),
            Some(Some(n)) => n,
        };
        let mut columns = Vec::with_capacity(rows.len());
        for (tag, row) in rows {
            let (defs, values) = row.flatten().ok_or_else(disagree)?;
            columns.push((tag, items(width(tag)?, defs, values)));
        }
        let mut items = Vec::with_capacity(n);
        if coll.fields.is_empty() {
            // Scalar items: each one present or null.
            let Some((tag, column)) = columns.pop().filter(|_| columns.is_empty()) else {
                return Err(corrupt("repeated column", g));
            };
            for item in column {
                if !matches!(item.0, DEF_PRESENT | DEF_NULL) {
                    return Err(corrupt("repeated column", g));
                }
                items.push(decode_value(tag, g, item)?);
            }
        } else if coll.fields.len() == columns.len() {
            // Object items: field by field, or null whole.
            for _ in 0..n {
                let (mut fields, mut nulls) = (Vec::with_capacity(columns.len()), 0);
                for ((tag, column), name) in columns.iter_mut().zip(&coll.fields) {
                    match column.next().ok_or_else(disagree)? {
                        (DEF_ITEM_NULL, _) => nulls += 1,
                        (DEF_ABSENT, _) => {}
                        item => fields.push((name.clone(), decode_value(*tag, g, item)?)),
                    }
                }
                items.push(match nulls {
                    0 => Value::Object(fields),
                    n if n == columns.len() => Value::Null,
                    _ => return Err(disagree()),
                });
            }
        } else {
            return Err(corrupt("repeated column", g));
        }
        Ok(match coll.kind {
            TypeTag::Multiset => Value::Multiset(items),
            _ => Value::Array(items),
        })
    }

    /// Row `row` of group `g`, a record, assembled from the pages it lies on
    /// alone: the keys block is not read, the residual block and each column
    /// block only where the row's bytes are (its offset-table entries, its
    /// definition bytes and its value) — the point read's arithmetic over a
    /// [`GroupView`]'s. The record [`GroupView::record`] assembles for the
    /// row. Counted in no counter: the lookup that found the row is
    /// ([`ColumnarCounters::point_lookups`]).
    pub fn record_at(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        row: usize,
    ) -> Result<Value, StorageError> {
        let gm = self.groups.get(g).ok_or_else(|| corrupt("row group", g))?;
        let rows = gm.rows as usize;
        if row >= rows {
            return Err(corrupt("residual block", g));
        }
        let residual = var_row(&self.block(store, cache, gm.residual), g, rows * 4, row)?;
        self.assemble(self.residual_record(&residual)?, g, |c| {
            let (block, spec) = (self.block(store, cache, gm.cols[c].run), &self.columns[c]);
            let (def, raw) = column_row(&block, g, spec, rows, &mut Rank::default(), row)?;
            cell(spec, g, (def, raw))
        })
    }

    /// A record as the payload bytes the LSM layer hands out: its
    /// uncompacted vector encoding.
    fn payload(&self, record: &Value) -> Vec<u8> {
        tc_vector::encode(record, Some(&self.declared))
    }

    /// A row's residual record, decoded: declared fields by the catalog
    /// type, field ids by the component's dictionary. An id it lacks is the
    /// decoder's error, so `Corruption` here.
    fn residual_record(&self, raw: &[u8]) -> Result<Value, StorageError> {
        tc_vector::decode(raw, Some(&self.declared), self.dict.as_ref())
            .map_err(|e| StorageError::corruption("column block", e.to_string()))
    }
}

fn corrupt(what: &'static str, g: usize) -> StorageError {
    StorageError::corruption("column block", format!("undecodable {what} in row group {g}"))
}

// ---------------------------------------------------------------------
// Row addressing: where a row's bytes lie in a block. Written once, over a
// block read by byte range, so the view (whole blocks in memory) and the
// point read (pages faulted in as they are touched) cannot disagree.
// ---------------------------------------------------------------------

/// A block's bytes by range. A point read pages them in ([`Block`]); a
/// [`GroupView`] holds the block whole (`Vec<u8>`) and lends slices of it.
trait BlockBytes {
    type Range<'a>: std::ops::Deref<Target = [u8]>
    where
        Self: 'a;

    /// Bytes `[offset, offset + len)` of the block (of row group `g`, for
    /// the error). A range past its end means the index or an offset table
    /// lied.
    fn range(&self, g: usize, offset: usize, len: usize) -> Result<Self::Range<'_>, StorageError>;
}

impl BlockBytes for Vec<u8> {
    type Range<'a> = &'a [u8];

    fn range(&self, g: usize, offset: usize, len: usize) -> Result<&[u8], StorageError> {
        let end = offset.checked_add(len).ok_or_else(|| corrupt("block range", g))?;
        self.get(offset..end).ok_or_else(|| corrupt("block range", g))
    }
}

/// One block where it lies in the body: only the pages holding the bytes
/// asked for are faulted in.
struct Block<'a> {
    store: &'a PageStore,
    cache: &'a BufferCache,
    body: PageId,
    run: PageRun,
}

impl BlockBytes for Block<'_> {
    type Range<'a>
        = Vec<u8>
    where
        Self: 'a;

    fn range(&self, g: usize, offset: usize, len: usize) -> Result<Vec<u8>, StorageError> {
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= self.run.bytes as usize)
            .ok_or_else(|| corrupt("block range", g))?;
        let page_size = self.store.page_size() as u64;
        let mut out = Vec::with_capacity(len);
        let (mut pos, end) = (self.run.start + offset as u64, self.run.start + end as u64);
        while pos < end {
            let page = self.cache.read(self.store, self.body + pos / page_size)?;
            let in_page = (pos % page_size) as usize;
            let take = ((end - pos) as usize).min(page.len() - in_page);
            out.extend_from_slice(&page[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok(out)
    }
}

/// Row `i`'s bytes in a block's variable-width area, which begins at byte
/// `area`: after the end-offset table at the block's head and, in a string
/// column, the definition bytes. Row `i` starts where row `i - 1` ends; the
/// two table entries are adjacent, so the table costs one read.
fn var_row<B: BlockBytes>(
    block: &B,
    g: usize,
    area: usize,
    i: usize,
) -> Result<B::Range<'_>, StorageError> {
    let words = match i.checked_sub(1) {
        None => block.range(g, 0, 4)?,
        Some(prev) => block.range(g, prev * 4, 8)?,
    };
    let word = |at: usize| le_array(&words[at..]).map(|b| u32::from_le_bytes(b) as usize);
    let span = if i == 0 { Some(0).zip(word(0)) } else { word(0).zip(word(4)) };
    let (start, end) =
        span.filter(|(start, end)| start <= end).ok_or_else(|| corrupt("offset table", g))?;
    block.range(g, area + start, end - start)
}

/// How far a forward read of a fixed-width column has come: `rank` of the
/// column's first `row` rows are present.
#[derive(Debug, Default)]
struct Rank {
    row: usize,
    rank: usize,
}

/// The width of a `tag` column's values: `None` for strings, whose width
/// varies.
pub(crate) fn width(tag: TypeTag) -> Result<Option<usize>, StorageError> {
    match tag {
        TypeTag::Int64 | TypeTag::Double => Ok(Some(8)),
        TypeTag::Boolean => Ok(Some(1)),
        TypeTag::String => Ok(None),
        other => {
            let what = format!("column with non-columnar tag {other}");
            Err(StorageError::corruption("column block", what))
        }
    }
}

/// Row `i` of a column block of `rows` rows, as stored: its definition byte
/// and, for a present row, its value bytes (8 for i64/f64, 1 for bool, the
/// text of a string). A string is found through the block's offset table; a
/// fixed-width value by rank over the definition bytes, counted on from
/// `seen` — ascending rows cost O(rows) in all, a step back starts over. A
/// repeated column's row is its span, found through the offset table:
/// `DEF_ABSENT` when empty, else `DEF_PRESENT` and the span whole (see
/// [`split_items`]).
fn column_row<'b, B: BlockBytes>(
    block: &'b B,
    g: usize,
    spec: &ColumnSpec,
    rows: usize,
    seen: &mut Rank,
    i: usize,
) -> Result<(u8, Option<B::Range<'b>>), StorageError> {
    let err = || corrupt("column block", g);
    let width = width(spec.tag)?;
    if i >= rows {
        return Err(err());
    }
    if spec.repeated.is_some() {
        let span = var_row(block, g, rows * 4, i)?;
        return Ok(if span.is_empty() { (DEF_ABSENT, None) } else { (DEF_PRESENT, Some(span)) });
    }
    let table = if width.is_none() { rows * 4 } else { 0 };
    if width.is_none() {
        *seen = Rank { row: i, rank: 0 };
    } else if i < seen.row {
        *seen = Rank::default();
    }
    let def = block.range(g, table + seen.row, i + 1 - seen.row)?;
    if def.iter().any(|&d| d > DEF_PRESENT) {
        return Err(err());
    }
    let (before, at) = def.split_at(i - seen.row);
    seen.rank += before.iter().filter(|&&d| d == DEF_PRESENT).count();
    seen.row = i;
    if at[0] != DEF_PRESENT {
        return Ok((at[0], None));
    }
    let values = table + rows;
    let raw = match width {
        None => {
            let raw = var_row(block, g, values, i)?;
            text(&raw, g)?;
            raw
        }
        Some(width) => block.range(g, values + seen.rank * width, width)?,
    };
    Ok((DEF_PRESENT, Some(raw)))
}

/// The text of a stored string value.
fn text(raw: &[u8], g: usize) -> Result<&str, StorageError> {
    std::str::from_utf8(raw).map_err(|_| corrupt("column block", g))
}

/// What [`column_row`] found of a one-value column, or of one item, as a
/// `Value`: `Null` when null, `Missing` when it holds no value.
fn decode_value(tag: TypeTag, g: usize, row: (u8, Option<&[u8]>)) -> Result<Value, StorageError> {
    let err = || corrupt("column block", g);
    let raw = match row {
        (DEF_NULL, _) => return Ok(Value::Null),
        (_, None) => return Ok(Value::Missing),
        (_, Some(raw)) => raw,
    };
    Ok(match tag {
        TypeTag::Int64 => Value::Int64(i64::from_le_bytes(le_array(raw).ok_or_else(err)?)),
        TypeTag::Double => Value::Double(f64::from_le_bytes(le_array(raw).ok_or_else(err)?)),
        TypeTag::Boolean => Value::Boolean(*raw.first().ok_or_else(err)? != 0),
        _ => Value::String(text(raw, g)?.to_owned()),
    })
}

/// A repeated column row's items: their definition bytes, and the packed
/// values of the present ones.
pub(crate) type Items<'s> = (&'s [u8], &'s [u8]);

/// A repeated column's row span, `[varint header][def × n][values]`, split:
/// `None` for a null collection (header 0), else its `n = header - 1` items'
/// definition bytes and their packed values — present items only, fixed
/// width or `varint len, utf-8`. Checked whole before anything is read off
/// it: the counts must fit the span, every definition byte be one of the
/// four item levels, and the values fill the rest exactly.
pub(crate) fn split_items(
    tag: TypeTag,
    g: usize,
    span: &[u8],
) -> Result<Option<Items<'_>>, StorageError> {
    let err = |what: &str| {
        let what = format!("{what} in a repeated column of row group {g}");
        StorageError::corruption("column block", what)
    };
    let (header, n) = varint::read_u64(span).ok_or_else(|| err("no item count"))?;
    let rest = &span[n..];
    let Some(count) = header.checked_sub(1) else {
        return if rest.is_empty() { Ok(None) } else { Err(err("bytes after a null")) };
    };
    let (defs, values) = usize::try_from(count)
        .ok()
        .and_then(|count| rest.split_at_checked(count))
        .ok_or_else(|| err("an item span past its row"))?;
    if defs.iter().any(|&d| d > DEF_ITEM_NULL) {
        return Err(err("a definition byte out of range"));
    }
    let present = defs.iter().filter(|&&d| d == DEF_PRESENT).count();
    let fits = match width(tag)? {
        Some(width) => Some(values.len()) == present.checked_mul(width),
        None => {
            let mut rest = values;
            for _ in 0..present {
                let text = varint::read_u64(rest).and_then(|(len, n)| {
                    let text = rest.get(n..)?.get(..usize::try_from(len).ok()?)?;
                    Some((text, n + text.len()))
                });
                let Some((text, used)) = text else { return Err(err("an item span past its row")) };
                std::str::from_utf8(text).map_err(|_| err("an item that is no UTF-8"))?;
                rest = &rest[used..];
            }
            rest.is_empty()
        }
    };
    if !fits {
        return Err(err("values that do not fill the row"));
    }
    Ok(Some((defs, values)))
}

/// The items of a row [`split_items`] checked: each one's definition byte
/// and, when present, its value bytes (a string's text, unprefixed).
pub(crate) fn items<'s>(
    width: Option<usize>,
    defs: &'s [u8],
    mut values: &'s [u8],
) -> impl Iterator<Item = (u8, Option<&'s [u8]>)> + 's {
    defs.iter().map(move |&def| {
        if def != DEF_PRESENT {
            return (def, None);
        }
        let (skip, len) = match width {
            Some(width) => (0, width),
            None => varint::read_u64(values).map_or((0, 0), |(len, n)| (n, len as usize)),
        };
        let raw = values.get(skip..skip + len).unwrap_or_default();
        values = values.get(skip + len..).unwrap_or_default();
        (def, Some(raw))
    })
}

/// One column's row, for assembly.
enum Cell {
    /// A column of one value per row, decoded: `Missing` when it has none.
    One(Value),
    /// A repeated column's row span as stored (empty: no collection).
    Span(Vec<u8>),
}

/// What [`column_row`] found of `spec`'s column, for assembly.
fn cell<R: std::ops::Deref<Target = [u8]> + Into<Vec<u8>>>(
    spec: &ColumnSpec,
    g: usize,
    (def, raw): (u8, Option<R>),
) -> Result<Cell, StorageError> {
    if spec.repeated.is_some() {
        return Ok(Cell::Span(raw.map(Into::into).unwrap_or_default()));
    }
    decode_value(spec.tag, g, (def, raw.as_deref())).map(Cell::One)
}

/// What a [`GroupView`] has faulted in: the residual block and each column
/// block as stored, and how far each column has been read.
#[derive(Debug, Default)]
pub(crate) struct GroupBlocks {
    residual: Option<Vec<u8>>,
    cols: Vec<Option<(Vec<u8>, Rank)>>,
    bytes_read: u64,
}

/// Row group `g` of a chunk: its residual block and column blocks, each read
/// whole through the buffer cache the first time a row of it is asked for
/// and kept as stored from then on — the one reader of whole blocks. Scans,
/// group reconstruction and the merge copy all ask it; which blocks they
/// touch is which blocks are read. Rows may be asked for in any order;
/// ascending is the cheap one. Errors come back as the raw [`StorageError`];
/// what a fault means for the component and the query is the caller's policy.
pub struct GroupView<'c> {
    reader: &'c ChunkReader,
    store: &'c PageStore,
    cache: &'c BufferCache,
    g: usize,
    blocks: GroupBlocks,
}

impl<'c> GroupView<'c> {
    pub fn rows(&self) -> usize {
        self.reader.groups[self.g].rows as usize
    }

    /// Bytes of the blocks faulted in so far.
    pub fn bytes_read(&self) -> u64 {
        self.blocks.bytes_read
    }

    /// The faulted blocks without the borrows, for a holder that outlives
    /// them ([`ChunkReader::resume`] is the way back).
    pub(crate) fn into_blocks(self) -> GroupBlocks {
        self.blocks
    }

    /// Read one block whole.
    fn fault(&mut self, run: PageRun) -> Result<Vec<u8>, StorageError> {
        self.reader.counters.columns_faulted.fetch_add(1, Ordering::Relaxed);
        let block = self.reader.block(self.store, self.cache, run);
        let bytes = block.range(self.g, 0, run.bytes as usize)?;
        self.blocks.bytes_read += run.bytes as u64;
        Ok(bytes)
    }

    /// Row `row` of typed column `col` as stored — what a writer copies: its
    /// definition byte and, for a present row, its value bytes (8 for
    /// i64/f64, 1 for bool, a string's text). A repeated column's row is its
    /// span whole (`DEF_PRESENT`), or nothing (`DEF_ABSENT`).
    pub fn stored_value(
        &mut self,
        col: usize,
        row: usize,
    ) -> Result<(u8, Option<&[u8]>), StorageError> {
        let (g, rows, spec) = (self.g, self.rows(), &self.reader.columns[col]);
        if self.blocks.cols[col].is_none() {
            let block = self.fault(self.reader.groups[g].cols[col].run)?;
            self.blocks.cols[col] = Some((block, Rank::default()));
        }
        #[expect(clippy::expect_used, reason = "the slot was filled just above")]
        let (block, seen) = self.blocks.cols[col].as_mut().expect("just faulted");
        column_row(block, g, spec, rows, seen, row)
    }

    /// Row `row`'s value at column `col`'s path — for a repeated column, at
    /// its steps (`readings[*].temp`: the row's items' values, `null`s
    /// included, items without one left out): `Missing` when absent, `Null`
    /// when null, and the residual's value when the group recorded spills
    /// there (a value that left the column's type, or a collection that did
    /// not fit, lives in the row's residual record).
    pub fn value_at(&mut self, col: usize, row: usize) -> Result<Value, StorageError> {
        let (g, reader) = (self.g, self.reader);
        let spec = &reader.columns[col];
        let stored = self.stored_value(col, row)?;
        let v = match (spec.repeated, stored) {
            (None, stored) => decode_value(spec.tag, g, stored)?,
            (Some(_), (_, None)) => Value::Missing,
            (Some(_), (_, Some(span))) => match split_items(spec.tag, g, span)? {
                None => Value::Missing,
                Some((defs, values)) => Value::Array(
                    items(width(spec.tag)?, defs, values)
                        .filter(|(def, _)| matches!(*def, DEF_PRESENT | DEF_NULL))
                        .map(|item| decode_value(spec.tag, g, item))
                        .collect::<Result<_, _>>()?,
                ),
            },
        };
        if !matches!(v, Value::Missing) || reader.groups[g].cols[col].spilled == 0 {
            return Ok(v);
        }
        let path = spec.steps();
        Ok(self.residual_values(row, &mut BatchPathEvaluator::new(&[path]))?.remove(0))
    }

    /// Row `row`'s value at the path of collection `k`
    /// ([`ChunkReader::find_collection`]), zipped from its repeated columns:
    /// `Missing` when absent, `Null` when null, and the residual's value
    /// when the group recorded spills there.
    pub fn collection_at(&mut self, k: usize, row: usize) -> Result<Value, StorageError> {
        let (g, reader) = (self.g, self.reader);
        let coll = &reader.collections[k];
        let mut spans = Vec::with_capacity(coll.cols.len());
        for &c in &coll.cols {
            spans.push(self.stored_value(c, row)?.1.map(<[u8]>::to_vec).unwrap_or_default());
        }
        let v = reader.zip(coll, &spans, g)?;
        let spilled = coll.cols.iter().any(|&c| reader.groups[g].cols[c].spilled > 0);
        if !matches!(v, Value::Missing) || !spilled {
            return Ok(v);
        }
        let path: Path = coll.path.iter().map(PathStep::field).collect();
        Ok(self.residual_values(row, &mut BatchPathEvaluator::new(&[path]))?.remove(0))
    }

    /// Row `row`'s whole record, assembled from the residual block and every
    /// column block (each read whole the first time, like any other read of
    /// the view). Counted in [`ColumnarCounters::rows_reconstructed`]. Only
    /// for a record row: an anti-matter row has no residual to decode.
    pub fn record(&mut self, row: usize) -> Result<Value, StorageError> {
        let (g, reader) = (self.g, self.reader);
        reader.counters.rows_reconstructed.fetch_add(1, Ordering::Relaxed);
        let residual = reader.residual_record(self.residual_row(row)?)?;
        reader.assemble(residual, g, |c| cell(&reader.columns[c], g, self.stored_value(c, row)?))
    }

    /// Row `row` of an `Int64` column, for primitive loops: `None` unless
    /// present (null, absent and spilled rows alike, and every row of a
    /// repeated column).
    pub fn i64_at(&mut self, col: usize, row: usize) -> Result<Option<i64>, StorageError> {
        Ok(self.word_at(TypeTag::Int64, col, row)?.map(i64::from_le_bytes))
    }

    /// The same of a `Double` column.
    pub fn f64_at(&mut self, col: usize, row: usize) -> Result<Option<f64>, StorageError> {
        Ok(self.word_at(TypeTag::Double, col, row)?.map(f64::from_le_bytes))
    }

    fn word_at(
        &mut self,
        tag: TypeTag,
        col: usize,
        row: usize,
    ) -> Result<Option<[u8; 8]>, StorageError> {
        let (g, spec) = (self.g, &self.reader.columns[col]);
        if spec.tag != tag {
            return Err(corrupt("column type", g));
        }
        if spec.repeated.is_some() {
            return Ok(None);
        }
        let (_, raw) = self.stored_value(col, row)?;
        raw.map(|raw| le_array(raw).ok_or_else(|| corrupt("column block", g))).transpose()
    }

    /// Row `row`'s items of a repeated `Int64` or `Double` column, for
    /// primitive loops: the little-endian values of its present items, back
    /// to back — all the row holds at the column's steps — or `None` when
    /// that takes a `Value` to say: no collection, a null one, a spilled one,
    /// or a null among the values.
    pub fn present_items(&mut self, col: usize, row: usize) -> Result<Option<&[u8]>, StorageError> {
        let (g, spec) = (self.g, &self.reader.columns[col]);
        if spec.repeated.is_none() || !matches!(spec.tag, TypeTag::Int64 | TypeTag::Double) {
            return Err(corrupt("column type", g));
        }
        let (_, Some(span)) = self.stored_value(col, row)? else { return Ok(None) };
        Ok(split_items(spec.tag, g, span)?
            .filter(|(defs, _)| !defs.contains(&DEF_NULL))
            .map(|(_, values)| values))
    }

    /// Row `row`'s items of a repeated `Double` column, decoded into `out`
    /// (emptied first) for the group-by's primitive fold — the one decode of
    /// a row's present `double`s, shared by the at-rest and the live scan:
    /// `true` when they are all the row holds at the column's steps, `false`
    /// (and `out` empty) when that takes a `Value` to say, as
    /// [`GroupView::present_items`] has it.
    pub fn present_doubles(
        &mut self,
        col: usize,
        row: usize,
        out: &mut Vec<f64>,
    ) -> Result<bool, StorageError> {
        out.clear();
        if self.reader.columns[col].tag != TypeTag::Double {
            return Err(corrupt("column type", self.g));
        }
        let Some(values) = self.present_items(col, row)? else { return Ok(false) };
        // `split_items` checked that the values fill whole words.
        out.extend(values.as_chunks::<8>().0.iter().map(|w| f64::from_le_bytes(*w)));
        Ok(true)
    }

    /// Row `row`'s residual record (what the columns did not take of it;
    /// empty for an anti-matter row), a slice of the block.
    pub fn residual_row(&mut self, row: usize) -> Result<&[u8], StorageError> {
        let (g, rows) = (self.g, self.rows());
        if self.blocks.residual.is_none() {
            self.blocks.residual = Some(self.fault(self.reader.groups[g].residual)?);
        }
        #[expect(clippy::expect_used, reason = "the slot was filled just above")]
        let block = self.blocks.residual.as_ref().expect("just faulted");
        if row >= rows {
            return Err(corrupt("residual block", g));
        }
        var_row(block, g, rows * 4, row)
    }

    /// `eval`'s paths evaluated against row `row`'s residual record. One
    /// evaluator serves every row of a scan.
    pub fn residual_values(
        &mut self,
        row: usize,
        eval: &mut BatchPathEvaluator,
    ) -> Result<Vec<Value>, StorageError> {
        let (declared, dict) = (&self.reader.declared, self.reader.dict.as_ref());
        eval.values(self.residual_row(row)?, Some(declared), dict)
            .map_err(|e| StorageError::corruption("column block", e.to_string()))
    }
}

/// Insert `v` at `path`, creating intermediate objects as needed (they
/// normally already exist: shredding leaves emptied objects in place). `v`
/// is moved in, never copied.
fn insert_at_path(target: &mut Value, path: &[String], v: Value) {
    let (Value::Object(fields), Some((name, rest))) = (target, path.split_first()) else {
        return;
    };
    let slot = match fields.iter().position(|(n, _)| n == name) {
        Some(i) => &mut fields[i].1,
        None if rest.is_empty() => return fields.push((name.clone(), v)),
        None => {
            fields.push((name.clone(), Value::Object(Vec::new())));
            #[expect(clippy::expect_used, reason = "a field was pushed just above")]
            &mut fields.last_mut().expect("just pushed").1
        }
    };
    if rest.is_empty() {
        *slot = v;
    } else {
        insert_at_path(slot, rest, v);
    }
}

/// A column's group stats as a zone. A spilled value lives in the residual
/// under another type, and `ColumnStats::None` covers both "no present value"
/// and "stats poisoned by NaN": either way the zone is unknown.
fn column_zone(meta: &ColumnChunkMeta) -> ColumnZone {
    let range = match meta.stats {
        _ if meta.spilled > 0 => return ColumnZone::Unknown,
        ColumnStats::None => return ColumnZone::Unknown,
        ColumnStats::Int { min, max } => (Num::Int(min), Num::Int(max)),
        ColumnStats::Float { min, max } => (Num::Double(min), Num::Double(max)),
    };
    ColumnZone::Known { range: Some(range), ranks: 0 }
}

impl ColumnarChunk for ChunkReader {
    fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The group's min/max stats over every numeric column.
    fn group_zone(&self, g: usize) -> Option<(&[ZoneColumn], Zone)> {
        if self.zone_cols.is_empty() {
            return None;
        }
        let cols = &self.groups[g].cols;
        Some((&self.zone_paths, self.zone_cols.iter().map(|&c| column_zone(&cols[c])).collect()))
    }

    fn group_first_key(&self, g: usize) -> &[u8] {
        &self.groups[g].first_key
    }

    fn read_group_keys(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind)>, StorageError> {
        let gm = &self.groups[g];
        let rows = gm.rows as usize;
        let block = self.block(store, cache, gm.keys).range(g, 0, gm.keys.bytes as usize)?;
        let mut out = Vec::with_capacity(rows);
        for i in 0..rows {
            let entry = var_row(&block, g, rows * 4, i)?;
            let (key, kind) = read_key_entry(entry).ok_or_else(|| corrupt("keys block", g))?;
            out.push((key.to_vec(), kind));
        }
        Ok(out)
    }

    fn read_group_rows(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind, Vec<u8>)>, StorageError> {
        let keys = self.read_group_keys(store, cache, g)?;
        let mut view = self.view(store, cache, g);
        let mut rows = Vec::with_capacity(keys.len());
        for (i, (key, kind)) in keys.into_iter().enumerate() {
            // Anti-matter rows carry no payload.
            let payload = match kind {
                EntryKind::AntiMatter => Vec::new(),
                EntryKind::Record => self.payload(&view.record(i)?),
            };
            rows.push((key, kind, payload));
        }
        Ok(rows)
    }

    fn find_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        key: &[u8],
    ) -> Result<Option<(u32, EntryKind)>, StorageError> {
        self.counters.point_lookups.fetch_add(1, Ordering::Relaxed);
        // Binary search over the keys block's rows.
        let gm = &self.groups[g];
        let err = || corrupt("keys block", g);
        let block = self.block(store, cache, gm.keys);
        let (mut lo, mut hi) = (0usize, gm.rows as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let entry = var_row(&block, g, gm.rows as usize * 4, mid)?;
            let (k, kind) = read_key_entry(&entry).ok_or_else(err)?;
            match k.cmp(key) {
                std::cmp::Ordering::Equal => return Ok(Some((mid as u32, kind))),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    fn read_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        row: u32,
    ) -> Result<Vec<u8>, StorageError> {
        Ok(self.payload(&self.record_at(store, cache, g, row as usize)?))
    }
}

// ---------------------------------------------------------------------
// Column index blob (de)serialization. The blob is written to the
// component's store after the last row group, making the on-disk layout
// self-contained; the live handle keeps the parsed form in memory.
// ---------------------------------------------------------------------

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    varint::write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn write_run(out: &mut Vec<u8>, run: PageRun) {
    varint::write_u64(out, run.start);
    varint::write_u64(out, run.bytes as u64);
}

/// What is left of an index blob being parsed.
struct Input<'a>(&'a [u8]);

impl<'a> Input<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn varint(&mut self) -> Option<u64> {
        let (v, n) = varint::read_u64(self.0)?;
        self.take(n).map(|_| v)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = usize::try_from(self.varint()?).ok()?;
        self.take(len).map(<[u8]>::to_vec)
    }

    fn run(&mut self) -> Option<PageRun> {
        Some(PageRun { start: self.varint()?, bytes: self.u32()? })
    }

    /// A little-endian min or max.
    fn word(&mut self) -> Option<[u8; 8]> {
        le_array(self.take(8)?)
    }
}

/// Serialize the column index of a component.
///
/// `[0x80 | FORMAT_VERSION, 0x00]` follows the magic. The very first blobs
/// had the column count there, a canonical varint; the version is spelled as
/// an over-long one no canonical writer emits, so such a blob can never be
/// taken for a versioned one (it is refused).
pub fn serialize_index(columns: &[ColumnSpec], groups: &[GroupMeta]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&[0x80 | FORMAT_VERSION, 0x00]);
    varint::write_u64(&mut out, columns.len() as u64);
    for c in columns {
        varint::write_u64(&mut out, c.path.len() as u64);
        for seg in &c.path {
            write_bytes(&mut out, seg.as_bytes());
        }
        out.push(c.tag as u8);
        match c.repeated {
            None => out.push(0),
            Some(rep) => {
                varint::write_u64(&mut out, rep.depth as u64);
                out.push(rep.kind as u8);
            }
        }
    }
    varint::write_u64(&mut out, groups.len() as u64);
    for g in groups {
        write_bytes(&mut out, &g.first_key);
        varint::write_u64(&mut out, g.rows as u64);
        write_run(&mut out, g.keys);
        write_run(&mut out, g.residual);
        for c in &g.cols {
            write_run(&mut out, c.run);
            varint::write_u64(&mut out, c.null_count as u64);
            varint::write_u64(&mut out, c.spilled as u64);
            match c.stats {
                ColumnStats::None => out.push(0),
                ColumnStats::Int { min, max } => {
                    out.push(1);
                    out.extend_from_slice(&min.to_le_bytes());
                    out.extend_from_slice(&max.to_le_bytes());
                }
                ColumnStats::Float { min, max } => {
                    out.push(2);
                    out.extend_from_slice(&min.to_le_bytes());
                    out.extend_from_slice(&max.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Parse a serialized column index: the columns and the row groups. `None`
/// for anything but a well-formed blob of [`FORMAT_VERSION`] — the reader
/// would misread the blocks of any other.
pub fn deserialize_index(buf: &[u8]) -> Option<(Vec<ColumnSpec>, Vec<GroupMeta>)> {
    let mut input = Input(buf);
    if input.take(4)? != INDEX_MAGIC || *input.take(2)? != [0x80 | FORMAT_VERSION, 0x00] {
        return None;
    }
    let ncols = input.varint()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let segs = input.varint()? as usize;
        let mut path = Vec::with_capacity(segs);
        for _ in 0..segs {
            path.push(String::from_utf8(input.bytes()?).ok()?);
        }
        let tag = TypeTag::from_u8(input.take(1)?[0]).ok()?;
        // A repetition depth of 0 is none; a repeated column's path ends at
        // its collection (scalar items) or one field into its items.
        let repeated = match usize::try_from(input.varint()?).ok()? {
            0 => None,
            depth if depth == segs || depth + 1 == segs => {
                let kind = TypeTag::from_u8(input.take(1)?[0]).ok()?;
                matches!(kind, TypeTag::Array | TypeTag::Multiset)
                    .then_some(Some(Repetition { depth, kind }))?
            }
            _ => return None,
        };
        columns.push(ColumnSpec { path, tag, repeated });
    }
    let ngroups = input.varint()? as usize;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let (first_key, rows) = (input.bytes()?, input.u32()?);
        let (keys, residual) = (input.run()?, input.run()?);
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let (run, null_count, spilled) = (input.run()?, input.u32()?, input.u32()?);
            let stats = match input.take(1)?[0] {
                0 => ColumnStats::None,
                1 => ColumnStats::Int {
                    min: i64::from_le_bytes(input.word()?),
                    max: i64::from_le_bytes(input.word()?),
                },
                2 => ColumnStats::Float {
                    min: f64::from_le_bytes(input.word()?),
                    max: f64::from_le_bytes(input.word()?),
                },
                _ => return None,
            };
            cols.push(ColumnChunkMeta { run, null_count, spilled, stats });
        }
        groups.push(GroupMeta { first_key, rows, keys, residual, cols });
    }
    Some((columns, groups))
}
