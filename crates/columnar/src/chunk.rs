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
use tc_lsm::entry::{EntryKind, Key};
use tc_schema::FieldNameDictionary;
use tc_storage::buffer_cache::BufferCache;
use tc_storage::error::StorageError;
use tc_storage::page_store::{PageId, PageStore};
use tc_util::varint;

use crate::{ColumnStats, ColumnarCounters, DEF_NULL, DEF_PRESENT};

/// Magic prefix of the serialized column index blob.
pub const INDEX_MAGIC: &[u8; 4] = b"TCAX";

/// The layout, as the index blob's version byte names it. Format 3: the
/// component body is one byte stream, every block a byte range of it
/// ([`PageRun`]), and a residual row is a vector record *compacted* against
/// the component's field-name dictionary. (Format 2 started every block on a
/// fresh page and spelled field names out in every residual row; it is
/// refused, like every version but this one.)
pub const FORMAT_VERSION: u8 = 3;

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
/// root) and scalar type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpec {
    pub path: Vec<String>,
    pub tag: TypeTag,
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
}

/// The first `N` bytes of `bytes` as an array, for `from_le_bytes`.
fn le_array<const N: usize>(bytes: &[u8]) -> Option<[u8; N]> {
    bytes.get(..N)?.try_into().ok()
}

/// Split one keys-block entry (`varint klen, key, kind byte`) off the front
/// of `buf`: the key, its kind, and the bytes consumed.
fn read_key_entry(buf: &[u8]) -> Option<(&[u8], EntryKind, usize)> {
    let (klen, n) = varint::read_u64(buf)?;
    let key = buf.get(n..)?.get(..usize::try_from(klen).ok()?)?;
    let kind = match buf.get(n + key.len())? {
        0 => EntryKind::Record,
        1 => EntryKind::AntiMatter,
        _ => return None,
    };
    Some((key, kind, n + key.len() + 1))
}

/// The payload of a `varint len, bytes` item that fills `raw` exactly.
pub(crate) fn len_prefixed(raw: &[u8]) -> Option<&[u8]> {
    let (len, n) = varint::read_u64(raw)?;
    let payload = &raw[n..];
    (payload.len() as u64 == len).then_some(payload)
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
        ChunkReader { declared, counters, columns, groups, dict, body }
    }

    /// `chunk` as the format-aware reader, if this crate's codec built it.
    pub fn of(chunk: &dyn ColumnarChunk) -> Option<&ChunkReader> {
        let chunk: &dyn Any = chunk;
        chunk.downcast_ref()
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

    /// Index of the typed column at exactly this path, if any.
    pub fn find_column(&self, path: &[String]) -> Option<usize> {
        self.columns.iter().position(|c| c.path == path)
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

    /// Binary-search group `g`'s key column: the row id and kind of `key`.
    fn find_key(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        key: &[u8],
    ) -> Result<Option<(usize, EntryKind)>, StorageError> {
        let gm = &self.groups[g];
        let err = || corrupt("keys block", g);
        let block = self.block(store, cache, gm.keys);
        let (mut lo, mut hi) = (0usize, gm.rows as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let entry = var_row(&block, g, gm.rows as usize * 4, mid)?;
            let (k, kind, n) = read_key_entry(&entry).ok_or_else(err)?;
            if n != entry.len() {
                return Err(err());
            }
            match k.cmp(key) {
                std::cmp::Ordering::Equal => return Ok(Some((mid, kind))),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(None)
    }

    /// One record from its stored parts — what both the group read and the
    /// point read end in, so the two agree byte for byte: onto the row's
    /// decoded residual ([`ChunkReader::residual_record`]) graft each typed
    /// column's value at its path (`column_value(c)`; `Missing` = the row has none
    /// there), re-encode.
    fn record(
        &self,
        mut value: Value,
        mut column_value: impl FnMut(usize) -> Result<Value, StorageError>,
    ) -> Result<Vec<u8>, StorageError> {
        for (c, spec) in self.columns.iter().enumerate() {
            match column_value(c)? {
                Value::Missing => {}
                v => insert_at_path(&mut value, &spec.path, v),
            }
        }
        Ok(tc_vector::encode(&value, Some(&self.declared)))
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

/// Row `i` of a `tag` column block of `rows` rows, as stored: its definition
/// byte and, for a present row, its value bytes (8 for i64/f64, 1 for bool,
/// `varint len, utf-8` for a string). A string is found through the block's
/// offset table; a fixed-width value by rank over the definition bytes,
/// counted on from `seen` — ascending rows cost O(rows) in all, a step back
/// starts over.
fn column_row<'b, B: BlockBytes>(
    block: &'b B,
    g: usize,
    tag: TypeTag,
    rows: usize,
    seen: &mut Rank,
    i: usize,
) -> Result<(u8, Option<B::Range<'b>>), StorageError> {
    let err = || corrupt("column block", g);
    let width = match tag {
        TypeTag::Int64 | TypeTag::Double => 8,
        TypeTag::Boolean => 1,
        TypeTag::String => 0, // varies: the block has an offset table
        other => {
            let what = format!("column with non-columnar tag {other}");
            return Err(StorageError::corruption("column block", what));
        }
    };
    if i >= rows {
        return Err(err());
    }
    let table = if width == 0 { rows * 4 } else { 0 };
    if width == 0 {
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
    let raw = if width == 0 {
        let raw = var_row(block, g, values, i)?;
        text(&raw, g)?;
        raw
    } else {
        block.range(g, values + seen.rank * width, width)?
    };
    Ok((DEF_PRESENT, Some(raw)))
}

/// The string a stored `varint len, utf-8` value holds.
fn text(raw: &[u8], g: usize) -> Result<&str, StorageError> {
    len_prefixed(raw)
        .and_then(|text| std::str::from_utf8(text).ok())
        .ok_or_else(|| corrupt("column block", g))
}

/// What [`column_row`] found, as a `Value`: `Missing` when absent, `Null`
/// when null.
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
    /// i64/f64, 1 for bool, `varint len, utf-8` for a string).
    pub fn stored_value(
        &mut self,
        col: usize,
        row: usize,
    ) -> Result<(u8, Option<&[u8]>), StorageError> {
        let (g, rows, tag) = (self.g, self.rows(), self.reader.columns[col].tag);
        if self.blocks.cols[col].is_none() {
            let block = self.fault(self.reader.groups[g].cols[col].run)?;
            self.blocks.cols[col] = Some((block, Rank::default()));
        }
        #[expect(clippy::expect_used, reason = "the slot was filled just above")]
        let (block, seen) = self.blocks.cols[col].as_mut().expect("just faulted");
        column_row(block, g, tag, rows, seen, row)
    }

    /// What column `col` itself holds for row `row`; a spilled value reads
    /// as `Missing`.
    fn column_value(&mut self, col: usize, row: usize) -> Result<Value, StorageError> {
        let (g, tag) = (self.g, self.reader.columns[col].tag);
        decode_value(tag, g, self.stored_value(col, row)?)
    }

    /// Row `row`'s value at column `col`'s path: `Missing` when absent,
    /// `Null` when null, and the residual's value when the group recorded
    /// spills there (a value that left the column's type lives in the row's
    /// residual record).
    pub fn value_at(&mut self, col: usize, row: usize) -> Result<Value, StorageError> {
        let v = self.column_value(col, row)?;
        if !matches!(v, Value::Missing) || self.reader.groups[self.g].cols[col].spilled == 0 {
            return Ok(v);
        }
        let path: Path = self.reader.columns[col].path.iter().map(PathStep::field).collect();
        Ok(self.residual_values(row, std::slice::from_ref(&path))?.remove(0))
    }

    /// Row `row` of an `Int64` column, for primitive loops: `None` unless
    /// present (null, absent and spilled rows alike).
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
        let g = self.g;
        if self.reader.columns[col].tag != tag {
            return Err(corrupt("column type", g));
        }
        let (_, raw) = self.stored_value(col, row)?;
        raw.map(|raw| le_array(raw).ok_or_else(|| corrupt("column block", g))).transpose()
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
        let err = || corrupt("residual block", g);
        if row >= rows {
            return Err(err());
        }
        len_prefixed(var_row(block, g, rows * 4, row)?).ok_or_else(err)
    }

    /// `paths` evaluated against row `row`'s residual record.
    pub fn residual_values(
        &mut self,
        row: usize,
        paths: &[Path],
    ) -> Result<Vec<Value>, StorageError> {
        let (declared, dict) = (&self.reader.declared, self.reader.dict.as_ref());
        tc_vector::get_values(self.residual_row(row)?, paths, Some(declared), dict)
            .map_err(|e| StorageError::corruption("column block", e.to_string()))
    }
}

/// Insert `v` at `path`, creating intermediate objects as needed (they
/// normally already exist: shredding leaves emptied objects in place).
fn insert_at_path(target: &mut Value, path: &[String], v: Value) {
    let Value::Object(fields) = target else { return };
    let idx = match fields.iter().position(|(n, _)| n == &path[0]) {
        Some(i) => i,
        None => {
            let init = if path.len() == 1 { v.clone() } else { Value::Object(Vec::new()) };
            fields.push((path[0].clone(), init));
            if path.len() == 1 {
                return;
            }
            fields.len() - 1
        }
    };
    if path.len() == 1 {
        fields[idx].1 = v;
    } else {
        insert_at_path(&mut fields[idx].1, &path[1..], v);
    }
}

impl ColumnarChunk for ChunkReader {
    fn num_groups(&self) -> usize {
        self.groups.len()
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
        let table = gm.rows as usize * 4;
        let len = (gm.keys.bytes as usize)
            .checked_sub(table)
            .ok_or_else(|| corrupt("offset table", g))?;
        let body = self.block(store, cache, gm.keys).range(g, table, len)?;
        let mut out = Vec::with_capacity(gm.rows as usize);
        let mut pos = 0usize;
        for _ in 0..gm.rows {
            let (key, kind, n) =
                read_key_entry(&body[pos..]).ok_or_else(|| corrupt("keys block", g))?;
            out.push((key.to_vec(), kind));
            pos += n;
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
        self.counters.rows_reconstructed.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut view = self.view(store, cache, g);
        let mut rows = Vec::with_capacity(keys.len());
        for (i, (key, kind)) in keys.into_iter().enumerate() {
            // Anti-matter rows carry no payload.
            let payload = match kind {
                EntryKind::AntiMatter => Vec::new(),
                EntryKind::Record => {
                    let residual = self.residual_record(view.residual_row(i)?)?;
                    self.record(residual, |c| view.column_value(c, i))?
                }
            };
            rows.push((key, kind, payload));
        }
        Ok(rows)
    }

    fn get_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        key: &[u8],
    ) -> Result<Option<(EntryKind, Vec<u8>)>, StorageError> {
        self.counters.point_lookups.fetch_add(1, Ordering::Relaxed);
        let Some((i, kind)) = self.find_key(store, cache, g, key)? else {
            return Ok(None);
        };
        if kind == EntryKind::AntiMatter {
            return Ok(Some((kind, Vec::new())));
        }
        // The arithmetic of the view over pages faulted in one by one.
        let gm = &self.groups[g];
        let rows = gm.rows as usize;
        let residual = var_row(&self.block(store, cache, gm.residual), g, rows * 4, i)?;
        let residual = len_prefixed(&residual).ok_or_else(|| corrupt("residual block", g))?;
        let payload = self.record(self.residual_record(residual)?, |c| {
            let (block, tag) = (self.block(store, cache, gm.cols[c].run), self.columns[c].tag);
            let (def, raw) = column_row(&block, g, tag, rows, &mut Rank::default(), i)?;
            decode_value(tag, g, (def, raw.as_deref()))
        })?;
        Ok(Some((kind, payload)))
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
        columns.push(ColumnSpec { path, tag });
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
