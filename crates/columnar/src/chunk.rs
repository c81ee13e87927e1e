//! The readable columnar chunk: column index, block format, typed column
//! decoding, lossless row-group reconstruction, single-row point reads, and
//! the raw row-group view a merge copies rows out of.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use tc_adm::datatype::ObjectType;
use tc_adm::{TypeTag, Value};
use tc_lsm::columnar::ColumnarChunk;
use tc_lsm::entry::{EntryKind, Key};
use tc_storage::buffer_cache::BufferCache;
use tc_storage::error::StorageError;
use tc_storage::page_store::{PageId, PageStore};
use tc_util::varint;

use crate::{ColumnStats, ColumnarCounters, DEF_NULL, DEF_PRESENT};

/// Magic prefix of the serialized column index blob.
pub const INDEX_MAGIC: &[u8; 4] = b"TCAX";

/// The block format, as the index blob's version byte names it: keys,
/// residual and string-column blocks start with a per-row `u32` end-offset
/// table, so a point lookup reads one row without walking (or faulting in)
/// the rows before it.
pub const FORMAT_VERSION: u8 = 2;

/// A block's location: contiguous pages starting at `start`, `bytes` of
/// payload (the trailing page is zero-padded). Blocks always begin on a
/// fresh page so they can be faulted in independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    pub start: PageId,
    pub bytes: u32,
}

impl PageRun {
    pub fn num_pages(&self, page_size: usize) -> u64 {
        (self.bytes as usize).div_ceil(page_size).max(1) as u64
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

/// A typed column decoded for one row group, row-aligned: `def[i]` says
/// whether row `i` has a value, and the value arrays carry a filler at
/// non-present rows so filter loops index directly without rank queries.
#[derive(Debug, Clone)]
pub struct DecodedColumn {
    pub def: Vec<u8>,
    pub values: ColumnValues,
}

/// Row-aligned value storage per column type — the typed buffers the
/// zero-pivot filter loops run over.
#[derive(Debug, Clone)]
pub enum ColumnValues {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<String>),
}

impl DecodedColumn {
    /// Row `i` as a `Value`: `Missing` when absent, `Null` when null.
    pub fn value_at(&self, i: usize) -> Value {
        match self.def[i] {
            DEF_PRESENT => match &self.values {
                ColumnValues::I64(v) => Value::Int64(v[i]),
                ColumnValues::F64(v) => Value::Double(v[i]),
                ColumnValues::Bool(v) => Value::Boolean(v[i]),
                ColumnValues::Str(v) => Value::String(v[i].clone()),
            },
            DEF_NULL => Value::Null,
            _ => Value::Missing,
        }
    }
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
fn len_prefixed(raw: &[u8]) -> Option<&[u8]> {
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
    ) -> Self {
        ChunkReader { declared, counters, columns, groups }
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

    /// Total pages across one group's blocks (keys + residual + every
    /// column) — what a stats-based group skip avoids reading.
    pub fn group_pages(&self, g: usize, page_size: usize) -> u64 {
        let gm = &self.groups[g];
        gm.keys.num_pages(page_size)
            + gm.residual.num_pages(page_size)
            + gm.cols.iter().map(|c| c.run.num_pages(page_size)).sum::<u64>()
    }

    /// Bytes the per-row offset table takes at the head of group `g`'s
    /// variable-width blocks.
    fn table_len(&self, g: usize) -> usize {
        self.groups[g].rows as usize * 4
    }

    /// The same for column `col`'s block: only string columns have a table.
    fn column_table_len(&self, g: usize, col: usize) -> usize {
        if self.columns[col].tag == TypeTag::String {
            self.table_len(g)
        } else {
            0
        }
    }

    /// The group's `(key, kind)` pairs, in key order.
    pub fn read_keys(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind)>, StorageError> {
        let gm = &self.groups[g];
        let body = Block { store, cache, g, run: gm.keys }.read_from(self.table_len(g))?;
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

    /// The group's residual rows (row-encoded leftovers; empty for
    /// anti-matter rows).
    pub fn read_residual(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<Vec<u8>>, StorageError> {
        self.counters.columns_faulted.fetch_add(1, Ordering::Relaxed);
        let gm = &self.groups[g];
        let block = Block { store, cache, g, run: gm.residual }.read_from(self.table_len(g))?;
        let mut out = Vec::with_capacity(gm.rows as usize);
        let mut pos = 0usize;
        for _ in 0..gm.rows {
            let (len, n) =
                varint::read_u64(&block[pos..]).ok_or_else(|| corrupt("residual block", g))?;
            pos += n;
            let bytes = block
                .get(pos..pos + len as usize)
                .ok_or_else(|| corrupt("residual block", g))?
                .to_vec();
            pos += len as usize;
            out.push(bytes);
        }
        Ok(out)
    }

    /// Fault in and decode one typed column for one group.
    pub fn read_column(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        col: usize,
    ) -> Result<DecodedColumn, StorageError> {
        self.counters.columns_faulted.fetch_add(1, Ordering::Relaxed);
        let gm = &self.groups[g];
        let rows = gm.rows as usize;
        let table = self.column_table_len(g, col);
        let block = Block { store, cache, g, run: gm.cols[col].run }.read_from(table)?;
        let err = || corrupt("column block", g);
        if block.len() < rows {
            return Err(err());
        }
        let (def, mut body) = block.split_at(rows);
        if def.iter().any(|&d| d > DEF_PRESENT) {
            return Err(err());
        }
        let def = def.to_vec();
        let values = match self.columns[col].tag {
            TypeTag::Int64 => {
                let mut vals = vec![0i64; rows];
                for (i, v) in vals.iter_mut().enumerate() {
                    if def[i] == DEF_PRESENT {
                        *v = i64::from_le_bytes(le_array(body).ok_or_else(err)?);
                        body = &body[8..];
                    }
                }
                ColumnValues::I64(vals)
            }
            TypeTag::Double => {
                let mut vals = vec![0f64; rows];
                for (i, v) in vals.iter_mut().enumerate() {
                    if def[i] == DEF_PRESENT {
                        *v = f64::from_le_bytes(le_array(body).ok_or_else(err)?);
                        body = &body[8..];
                    }
                }
                ColumnValues::F64(vals)
            }
            TypeTag::Boolean => {
                let mut vals = vec![false; rows];
                for (i, v) in vals.iter_mut().enumerate() {
                    if def[i] == DEF_PRESENT {
                        *v = *body.first().ok_or_else(err)? != 0;
                        body = &body[1..];
                    }
                }
                ColumnValues::Bool(vals)
            }
            TypeTag::String => {
                let mut vals = vec![String::new(); rows];
                for (i, v) in vals.iter_mut().enumerate() {
                    if def[i] == DEF_PRESENT {
                        let (len, n) = varint::read_u64(body).ok_or_else(err)?;
                        let bytes = body.get(n..n + len as usize).ok_or_else(err)?;
                        *v = String::from_utf8(bytes.to_vec()).map_err(|_| err())?;
                        body = &body[n + len as usize..];
                    }
                }
                ColumnValues::Str(vals)
            }
            other => return Err(non_columnar_tag(other)),
        };
        Ok(DecodedColumn { def, values })
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
        let block = Block { store, cache, g, run: gm.keys };
        let table = self.table_len(g);
        let (mut lo, mut hi) = (0usize, gm.rows as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (start, end) = block.row_span(mid)?;
            let entry = block.read(table + start, end - start)?;
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

    /// Row `i`'s residual record, read through the offset table.
    fn residual_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        i: usize,
    ) -> Result<Vec<u8>, StorageError> {
        let block = Block { store, cache, g, run: self.groups[g].residual };
        let (start, end) = block.row_span(i)?;
        let row = block.read(self.table_len(g) + start, end - start)?;
        len_prefixed(&row).map(<[u8]>::to_vec).ok_or_else(|| corrupt("residual block", g))
    }

    /// Row `i` of typed column `col` — what [`DecodedColumn::value_at`]
    /// gives after `read_column`, without decoding the other rows.
    /// Fixed-width values are found by rank over the definition bytes,
    /// strings through the block's offset table.
    fn column_value(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        col: usize,
        i: usize,
    ) -> Result<Value, StorageError> {
        let rows = self.groups[g].rows as usize;
        let block = Block { store, cache, g, run: self.groups[g].cols[col].run };
        let err = || corrupt("column block", g);
        let table = self.column_table_len(g, col);
        // Definition bytes up to and including row `i`'s.
        let def = block.read(table, i + 1)?;
        if def.iter().any(|&d| d > DEF_PRESENT) {
            return Err(err());
        }
        match def[i] {
            DEF_PRESENT => {}
            DEF_NULL => return Ok(Value::Null),
            _ => return Ok(Value::Missing),
        }
        let values = table + rows;
        let fixed = |width: usize| {
            let rank = def[..i].iter().filter(|&&d| d == DEF_PRESENT).count();
            block.read(values + rank * width, width)
        };
        Ok(match self.columns[col].tag {
            TypeTag::Int64 => {
                Value::Int64(i64::from_le_bytes(le_array(&fixed(8)?).ok_or_else(err)?))
            }
            TypeTag::Double => {
                Value::Double(f64::from_le_bytes(le_array(&fixed(8)?).ok_or_else(err)?))
            }
            TypeTag::Boolean => Value::Boolean(fixed(1)?[0] != 0),
            TypeTag::String => {
                let (start, end) = block.row_span(i)?;
                let raw = block.read(values + start, end - start)?;
                let text = len_prefixed(&raw).ok_or_else(err)?;
                Value::String(String::from_utf8(text.to_vec()).map_err(|_| err())?)
            }
            other => return Err(non_columnar_tag(other)),
        })
    }

    /// One record from its stored parts — what both the group read and the
    /// point read end in, so the two agree byte for byte: decode the row's
    /// residual, graft each typed column's value back in at its path
    /// (`column_value(c)`; `Missing` = the row has none there), re-encode.
    fn assemble(
        &self,
        residual: &[u8],
        mut column_value: impl FnMut(usize) -> Result<Value, StorageError>,
    ) -> Result<Vec<u8>, StorageError> {
        let mut value = tc_vector::decode(residual, None, None)
            .map_err(|e| StorageError::corruption("column block", e.to_string()))?;
        for (c, spec) in self.columns.iter().enumerate() {
            match column_value(c)? {
                Value::Missing => {}
                v => insert_at_path(&mut value, &spec.path, v),
            }
        }
        Ok(tc_vector::encode(&value, Some(&self.declared)))
    }

    /// Group `g`'s residual and column blocks as stored, for a writer whose
    /// output has the typed columns `columns` — or `None` when copying a row
    /// out of them is not provably the same as re-shredding it: with
    /// different columns the residuals would differ; and which rows of a
    /// column with `spilled > 0` hold a spilled value (the output group's own
    /// spill count) is written nowhere but in the residual records.
    pub(crate) fn open_raw_group(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        columns: &[ColumnSpec],
    ) -> Result<Option<RawGroup>, StorageError> {
        let gm = self.groups.get(g).ok_or_else(|| corrupt("row reference", g))?;
        if self.columns != columns || gm.cols.iter().any(|c| c.spilled > 0) {
            return Ok(None);
        }
        let read = |run: PageRun| {
            self.counters.columns_faulted.fetch_add(1, Ordering::Relaxed);
            Block { store, cache, g, run }.read_from(0)
        };
        let residual = read(gm.residual)?;
        let mut cols = Vec::with_capacity(gm.cols.len());
        for (spec, meta) in self.columns.iter().zip(&gm.cols) {
            cols.push(RawColumn { tag: spec.tag, block: read(meta.run)?, row: 0, rank: 0 });
        }
        Ok(Some(RawGroup { g, rows: gm.rows as usize, residual, cols }))
    }
}

fn corrupt(what: &'static str, g: usize) -> StorageError {
    StorageError::corruption("column block", format!("undecodable {what} in row group {g}"))
}

fn non_columnar_tag(tag: TypeTag) -> StorageError {
    StorageError::corruption("column block", format!("column with non-columnar tag {tag}"))
}

/// One block of row group `g`, read by byte range: only the pages holding
/// the bytes asked for are faulted in.
struct Block<'a> {
    store: &'a PageStore,
    cache: &'a BufferCache,
    g: usize,
    run: PageRun,
}

impl Block<'_> {
    /// Bytes `[offset, offset + len)` of the block. A range past its end
    /// means the index or an offset table lied.
    fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, StorageError> {
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= self.run.bytes as usize)
            .ok_or_else(|| corrupt("block range", self.g))?;
        let page_size = self.store.page_size();
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < end {
            let page = self.cache.read(self.store, self.run.start + (pos / page_size) as u64)?;
            let in_page = pos % page_size;
            let take = (end - pos).min(page_size - in_page);
            out.extend_from_slice(&page[in_page..in_page + take]);
            pos += take;
        }
        Ok(out)
    }

    /// The block from `offset` (the length of its offset table, if it has
    /// one) to its end.
    fn read_from(&self, offset: usize) -> Result<Vec<u8>, StorageError> {
        let len = (self.run.bytes as usize)
            .checked_sub(offset)
            .ok_or_else(|| corrupt("offset table", self.g))?;
        self.read(offset, len)
    }

    /// Row `i`'s byte range in the block's variable-width area, from the
    /// end-offset table at the block's head (row `i` starts where row
    /// `i - 1` ends; the two entries are adjacent, so this is one read).
    fn row_span(&self, i: usize) -> Result<(usize, usize), StorageError> {
        let words = match i.checked_sub(1) {
            None => self.read(0, 4)?,
            Some(prev) => self.read(prev * 4, 8)?,
        };
        table_span(&words, i.min(1)).ok_or_else(|| corrupt("offset table", self.g))
    }
}

/// Row `i`'s byte range in a block's variable-width area, from `table`: the
/// end-offset table at the block's head, or the part of it from the entry of
/// the first row asked about.
fn table_span(table: &[u8], i: usize) -> Option<(usize, usize)> {
    let word = |row: usize| {
        le_array(table.get(row * 4..)?).map(|b: [u8; 4]| u32::from_le_bytes(b) as usize)
    };
    let start = match i.checked_sub(1) {
        None => 0,
        Some(prev) => word(prev)?,
    };
    let end = word(i)?;
    (start <= end).then_some((start, end))
}

/// One row group's residual and column blocks as stored, read whole: what a
/// merge copies rows out of without decoding them
/// ([`ChunkReader::open_raw_group`]). Rows may be asked for in any order;
/// ascending is the cheap one (fixed-width values are found by a running
/// rank over the definition bytes).
#[derive(Debug)]
pub(crate) struct RawGroup {
    g: usize,
    rows: usize,
    residual: Vec<u8>,
    cols: Vec<RawColumn>,
}

#[derive(Debug)]
struct RawColumn {
    tag: TypeTag,
    block: Vec<u8>,
    /// Fixed-width columns: `rank` rows among the first `row` are present.
    row: usize,
    rank: usize,
}

impl RawGroup {
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Row `i`'s residual entry as stored: `varint len, vector record`.
    pub(crate) fn residual_row(&self, i: usize) -> Result<&[u8], StorageError> {
        let err = || corrupt("residual block", self.g);
        if i >= self.rows {
            return Err(err());
        }
        let (start, end) = table_span(&self.residual, i).ok_or_else(err)?;
        let area = self.rows * 4;
        let raw = self.residual.get(area + start..area + end).ok_or_else(err)?;
        len_prefixed(raw).ok_or_else(err)?;
        Ok(raw)
    }

    /// Row `i` of column `col`: its definition byte and, for a present row,
    /// its value bytes as stored (8 for i64/f64, 1 for bool,
    /// `varint len, utf-8` for a string); empty otherwise.
    pub(crate) fn column_row(&mut self, col: usize, i: usize) -> Result<(u8, &[u8]), StorageError> {
        let (g, rows) = (self.g, self.rows);
        let err = || corrupt("column block", g);
        let c = self.cols.get_mut(col).ok_or_else(err)?;
        let table = if c.tag == TypeTag::String { rows * 4 } else { 0 };
        let def = match c.block.get(table..table + rows).and_then(|def| def.get(i)) {
            Some(&def) if def <= DEF_PRESENT => def,
            _ => return Err(err()),
        };
        if def != DEF_PRESENT {
            return Ok((def, &[]));
        }
        let values = table + rows;
        let width = match c.tag {
            TypeTag::Int64 | TypeTag::Double => 8,
            TypeTag::Boolean => 1,
            TypeTag::String => {
                let (start, end) = table_span(&c.block, i).ok_or_else(err)?;
                let raw = c.block.get(values + start..values + end).ok_or_else(err)?;
                let text = len_prefixed(raw).ok_or_else(err)?;
                std::str::from_utf8(text).map_err(|_| err())?;
                return Ok((def, raw));
            }
            other => return Err(non_columnar_tag(other)),
        };
        if i < c.row {
            (c.row, c.rank) = (0, 0);
        }
        c.rank += c.block[c.row..i].iter().filter(|&&d| d == DEF_PRESENT).count();
        c.row = i;
        let at = values + c.rank * width;
        Ok((def, c.block.get(at..at + width).ok_or_else(err)?))
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
        self.read_keys(store, cache, g)
    }

    fn read_group_rows(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind, Vec<u8>)>, StorageError> {
        let keys = self.read_keys(store, cache, g)?;
        self.counters.rows_reconstructed.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let residuals = self.read_residual(store, cache, g)?;
        if residuals.len() != keys.len() {
            return Err(corrupt("group", g));
        }
        let mut cols = Vec::with_capacity(self.columns.len());
        for c in 0..self.columns.len() {
            cols.push(self.read_column(store, cache, g, c)?);
        }
        let mut rows = Vec::with_capacity(keys.len());
        for (i, ((key, kind), residual)) in keys.into_iter().zip(&residuals).enumerate() {
            // Anti-matter rows carry no payload.
            let payload = match kind {
                EntryKind::AntiMatter => Vec::new(),
                EntryKind::Record => self.assemble(residual, |c| Ok(cols[c].value_at(i)))?,
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
        let residual = self.residual_row(store, cache, g, i)?;
        let payload = self.assemble(&residual, |c| self.column_value(store, cache, g, c, i))?;
        Ok(Some((kind, payload)))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
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

fn read_bytes(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
    let (len, n) = varint::read_u64(buf.get(*pos..)?)?;
    *pos += n;
    let b = buf.get(*pos..*pos + len as usize)?.to_vec();
    *pos += len as usize;
    Some(b)
}

fn write_run(out: &mut Vec<u8>, run: PageRun) {
    varint::write_u64(out, run.start);
    varint::write_u64(out, run.bytes as u64);
}

fn read_run(buf: &[u8], pos: &mut usize) -> Option<PageRun> {
    let (start, n) = varint::read_u64(buf.get(*pos..)?)?;
    *pos += n;
    let (bytes, n) = varint::read_u64(buf.get(*pos..)?)?;
    *pos += n;
    Some(PageRun { start, bytes: u32::try_from(bytes).ok()? })
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
    if buf.get(..4)? != INDEX_MAGIC || *buf.get(4..6)? != [0x80 | FORMAT_VERSION, 0x00] {
        return None;
    }
    let mut pos = 6usize;
    let read_u64 = |buf: &[u8], pos: &mut usize| -> Option<u64> {
        let (v, n) = varint::read_u64(buf.get(*pos..)?)?;
        *pos += n;
        Some(v)
    };
    let ncols = read_u64(buf, &mut pos)? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let segs = read_u64(buf, &mut pos)? as usize;
        let mut path = Vec::with_capacity(segs);
        for _ in 0..segs {
            path.push(String::from_utf8(read_bytes(buf, &mut pos)?).ok()?);
        }
        let tag = TypeTag::from_u8(*buf.get(pos)?).ok()?;
        pos += 1;
        columns.push(ColumnSpec { path, tag });
    }
    let ngroups = read_u64(buf, &mut pos)? as usize;
    let mut groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let first_key = read_bytes(buf, &mut pos)?;
        let rows = u32::try_from(read_u64(buf, &mut pos)?).ok()?;
        let keys = read_run(buf, &mut pos)?;
        let residual = read_run(buf, &mut pos)?;
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let run = read_run(buf, &mut pos)?;
            let null_count = u32::try_from(read_u64(buf, &mut pos)?).ok()?;
            let spilled = u32::try_from(read_u64(buf, &mut pos)?).ok()?;
            let kind = *buf.get(pos)?;
            pos += 1;
            let stats = match kind {
                0 => ColumnStats::None,
                1 => {
                    let min = i64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?);
                    let max = i64::from_le_bytes(buf.get(pos + 8..pos + 16)?.try_into().ok()?);
                    pos += 16;
                    ColumnStats::Int { min, max }
                }
                2 => {
                    let min = f64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?);
                    let max = f64::from_le_bytes(buf.get(pos + 8..pos + 16)?.try_into().ok()?);
                    pos += 16;
                    ColumnStats::Float { min, max }
                }
                _ => return None,
            };
            cols.push(ColumnChunkMeta { run, null_count, spilled, stats });
        }
        groups.push(GroupMeta { first_key, rows, keys, residual, cols });
    }
    Some((columns, groups))
}
