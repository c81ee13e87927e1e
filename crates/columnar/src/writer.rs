//! Flush/merge-time column shredding: the [`AmaxCodec`] and its streaming
//! row-group writer.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use tc_adm::datatype::{ObjectType, TypeKind};
use tc_adm::TypeTag;
use tc_lsm::columnar::{ColumnarChunk, ColumnarCodec, ColumnarWriter, RowSource};
use tc_lsm::entry::{EntryKind, Key};
use tc_schema::{leaf_columns, Schema};
use tc_storage::error::{IoOp, StorageError};
use tc_storage::page_store::{PageStore, PageWriter};
use tc_util::varint;

use crate::chunk::{
    len_prefixed, ChunkReader, ColumnChunkMeta, ColumnSpec, GroupBlocks, GroupMeta, PageRun,
};
use crate::shred::Shredder;
use crate::{ColumnStats, ColumnarCounters, DEFAULT_GROUP_ROWS, DEF_ABSENT, DEF_NULL};

/// Shreds flushed/merged entries into the AMAX column-page layout. One
/// codec serves a whole dataset (all its components share the counters);
/// the column set is re-derived per component from that component's own
/// schema blob, so schema evolution between flushes is free.
#[derive(Debug)]
pub struct AmaxCodec {
    declared: ObjectType,
    counters: Arc<ColumnarCounters>,
    group_rows: usize,
}

impl AmaxCodec {
    pub fn new(declared: ObjectType) -> Self {
        AmaxCodec {
            declared,
            counters: Arc::new(ColumnarCounters::default()),
            group_rows: DEFAULT_GROUP_ROWS,
        }
    }

    pub fn with_group_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "row groups need at least one row");
        self.group_rows = rows;
        self
    }

    pub fn counters(&self) -> &Arc<ColumnarCounters> {
        &self.counters
    }

    /// The component's typed columns: every eligible inferred leaf path,
    /// plus the declared root scalars (which inference skips — the primary
    /// key at minimum). Inferred paths win ties; the result is sorted so
    /// column order is stable across flushes.
    pub(crate) fn column_set(&self, schema: Option<&Schema>) -> Vec<ColumnSpec> {
        let mut cols: Vec<ColumnSpec> = schema
            .map(|s| {
                leaf_columns(s)
                    .into_iter()
                    .map(|lc| ColumnSpec { path: lc.path, tag: lc.tag })
                    .collect()
            })
            .unwrap_or_default();
        for f in &self.declared.fields {
            if let TypeKind::Scalar(tag) = f.kind {
                let path = vec![f.name.clone()];
                if tc_schema::column_eligible(tag) && !cols.iter().any(|c| c.path == path) {
                    cols.push(ColumnSpec { path, tag });
                }
            }
        }
        cols.sort_by(|a, b| a.path.cmp(&b.path));
        cols
    }
}

/// A block whose rows vary in width, under construction: the rows back to
/// back, and where each ends — the `u32` offset table the block opens with,
/// which lets a point lookup read row `i` alone.
#[derive(Debug, Default)]
struct VarRows {
    ends: Vec<u32>,
    bytes: Vec<u8>,
}

impl VarRows {
    /// Append a `varint len, bytes` item to the current row.
    fn put_prefixed(&mut self, item: &[u8]) {
        varint::write_u64(&mut self.bytes, item.len() as u64);
        self.bytes.extend_from_slice(item);
    }

    /// Close the current row (everything appended to `bytes` since the
    /// last call). `write_block` refuses blocks past `u32::MAX` bytes, so a
    /// truncated offset never reaches a reader.
    fn end_row(&mut self) {
        self.ends.push(self.bytes.len() as u32);
    }
}

/// Accumulates one column's block for the current row group.
#[derive(Debug, PartialEq)]
pub(crate) struct ColBuild {
    pub(crate) tag: TypeTag,
    def: Vec<u8>,
    values: Vec<u8>,
    /// String columns only: where each row's value ends in `values` (absent
    /// and null rows are empty) — the block's offset table.
    ends: Vec<u32>,
    null_count: u32,
    /// Rows whose value at the column's path has another type and stayed in
    /// the residual (they close as `DEF_ABSENT`).
    pub(crate) spilled: u32,
    stats: ColumnStats,
    stats_poisoned: bool,
}

impl ColBuild {
    pub(crate) fn new(tag: TypeTag) -> Self {
        ColBuild {
            tag,
            def: Vec::new(),
            values: Vec::new(),
            ends: Vec::new(),
            null_count: 0,
            spilled: 0,
            stats: ColumnStats::None,
            stats_poisoned: false,
        }
    }

    fn observe_int(&mut self, v: i64) {
        self.stats = match self.stats {
            ColumnStats::None => ColumnStats::Int { min: v, max: v },
            ColumnStats::Int { min, max } => ColumnStats::Int { min: min.min(v), max: max.max(v) },
            other => other,
        };
    }

    fn observe_float(&mut self, v: f64) {
        if v.is_nan() {
            // NaN has no place in an ordered range; drop stats for the
            // whole group rather than skip groups unsoundly.
            self.stats_poisoned = true;
            return;
        }
        self.stats = match self.stats {
            ColumnStats::None => ColumnStats::Float { min: v, max: v },
            ColumnStats::Float { min, max } => {
                ColumnStats::Float { min: min.min(v), max: max.max(v) }
            }
            other => other,
        };
    }

    /// Append the open row's value, given as the bytes a vector record
    /// stores for a scalar of the column's type (a string's text, unprefixed).
    pub(crate) fn put(&mut self, value: &[u8]) -> Result<(), StorageError> {
        let word = || {
            value.try_into().map_err(|_| {
                StorageError::corruption("column block", "fixed-width value cut short")
            })
        };
        match self.tag {
            TypeTag::Int64 => self.observe_int(i64::from_le_bytes(word()?)),
            TypeTag::Double => self.observe_float(f64::from_le_bytes(word()?)),
            TypeTag::Boolean if value.len() == 1 => {}
            TypeTag::String if std::str::from_utf8(value).is_ok() => {
                varint::write_u64(&mut self.values, value.len() as u64);
            }
            tag => {
                let what = format!("no {tag} column holds these {} bytes", value.len());
                return Err(StorageError::corruption("columnar shred", what));
            }
        }
        self.values.extend_from_slice(value);
        Ok(())
    }

    /// Close the row with its definition level; a string column records
    /// where its value ended.
    pub(crate) fn end_row(&mut self, def: u8) {
        self.def.push(def);
        self.null_count += (def == DEF_NULL) as u32;
        if self.tag == TypeTag::String {
            self.ends.push(self.values.len() as u32);
        }
    }

    /// Append one row as another group of this column stores it
    /// ([`GroupView::stored_value`](crate::GroupView::stored_value)): the
    /// bytes are copied, the group's stats and null count recomputed from
    /// them. The source column had no spill.
    fn push_stored(&mut self, def: u8, raw: Option<&[u8]>) -> Result<(), StorageError> {
        if let Some(raw) = raw {
            let text = || {
                len_prefixed(raw).ok_or_else(|| {
                    StorageError::corruption("column block", "string value without its length")
                })
            };
            self.put(if self.tag == TypeTag::String { text()? } else { raw })?;
        }
        self.end_row(def);
        Ok(())
    }

    fn finish(
        self,
        store: &PageStore,
        out: &mut PageWriter,
    ) -> Result<ColumnChunkMeta, StorageError> {
        let run = write_block(store, out, &self.ends, &[&self.def, &self.values])?;
        let stats = if self.stats_poisoned { ColumnStats::None } else { self.stats };
        Ok(ColumnChunkMeta { run, null_count: self.null_count, spilled: self.spilled, stats })
    }
}

/// Append one block to the component body — its offset table (`ends`, empty
/// for a fixed-width column), then its parts, right behind the block before
/// it — and say where it lies.
fn write_block(
    store: &PageStore,
    out: &mut PageWriter,
    ends: &[u32],
    parts: &[&[u8]],
) -> Result<PageRun, StorageError> {
    let table: Vec<u8> = ends.iter().flat_map(|end| end.to_le_bytes()).collect();
    // Block lengths and row offsets are `u32`s on disk.
    let len = table.len() + parts.iter().map(|part| part.len()).sum::<usize>();
    debug_assert!(len > 0, "blocks are never empty");
    let bytes = u32::try_from(len).map_err(|_| StorageError::Permanent { op: IoOp::Write })?;
    let start = out.append_spanning(store, &table)?;
    for part in parts {
        out.append_spanning(store, part)?;
    }
    Ok(PageRun { start, bytes })
}

/// The row group under construction: its keys block, residual block and one
/// block per typed column, all in memory until the group is full.
#[derive(Debug)]
struct GroupBuild {
    first_key: Key,
    rows: u32,
    keys: VarRows,
    residual: VarRows,
    cols: Vec<ColBuild>,
}

impl GroupBuild {
    fn new(columns: &[ColumnSpec]) -> Self {
        GroupBuild {
            first_key: Vec::new(),
            rows: 0,
            keys: VarRows::default(),
            residual: VarRows::default(),
            cols: columns.iter().map(|spec| ColBuild::new(spec.tag)).collect(),
        }
    }

    /// Open a row: its keys-block entry.
    fn begin_row(&mut self, key: &[u8], kind: EntryKind) {
        if self.rows == 0 {
            self.first_key = key.to_vec();
        }
        self.keys.put_prefixed(key);
        self.keys.bytes.push(kind as u8);
        self.keys.end_row();
        self.rows += 1;
    }

    /// Write the group's blocks: keys, residual, then the columns in order.
    fn write(self, store: &PageStore, out: &mut PageWriter) -> Result<GroupMeta, StorageError> {
        let keys = write_block(store, out, &self.keys.ends, &[&self.keys.bytes])?;
        let residual = write_block(store, out, &self.residual.ends, &[&self.residual.bytes])?;
        let mut cols = Vec::with_capacity(self.cols.len());
        for cb in self.cols {
            cols.push(cb.finish(store, out)?);
        }
        Ok(GroupMeta { first_key: self.first_key, rows: self.rows, keys, residual, cols })
    }
}

/// The one group a merge has open in one of its inputs: what its view has
/// read so far, kept between rows. `blocks` is `None` when rows of that group
/// cannot be copied column-wise ([`AmaxWriter`]) and are pivoted instead —
/// and once its last row has been copied.
#[derive(Debug)]
struct SourceGroup {
    /// The input's page store id — what tells the inputs apart.
    store: u64,
    /// Do the input's stored bytes mean in the output what they mean in it:
    /// the same columns, and field ids the output's dictionary reads alike?
    same_layout: bool,
    group: Option<usize>,
    blocks: Option<GroupBlocks>,
}

/// The streaming row-group writer behind every AMAX component: entries go in
/// one at a time, a full group is appended to the component body at once —
/// keys block, residual block, one block per column, back to back through one
/// page writer — and the index blob follows the last group. Memory is one
/// output group, plus one source group per merge input while rows are copied
/// out of it.
///
/// A record pushed as bytes is shredded as it is walked (`shred.rs`): a
/// scalar at a column's path goes to the column, everything else to the
/// row's residual record, field names as ids of the component's dictionary.
///
/// A row pushed by reference ([`ColumnarWriter::push_row`]) is **copied**:
/// its definition byte, value bytes and residual record go from the source
/// group's blocks into the open group's as they are stored, and the group's
/// min/max (NaN still poisons), null counts and offset tables are recomputed
/// from the copied bytes. A source group the copy cannot be proven right for
/// — its chunk's columns are not the output's (the residuals would hold
/// different fields), its dictionary is not a prefix of the output's (the
/// residuals' field ids would name other fields; within one partition it
/// always is, the dictionary only grows), or one of its columns has a
/// spilled value (which rows spilled, the output group's own spill count, is
/// written nowhere but in the residual records) — or a chunk that is no
/// [`ChunkReader`] has its rows pivoted through `get_row` and `push`, each
/// one counted in `rows_reconstructed`; copied rows count in
/// `rows_column_merged`. Both routes write the same bytes.
#[derive(Debug)]
pub struct AmaxWriter {
    counters: Arc<ColumnarCounters>,
    group_rows: usize,
    columns: Vec<ColumnSpec>,
    /// Holds the catalog type and the dictionary of the component's schema
    /// blob: what residual rows spell field names in. Without a blob they
    /// keep their names inline.
    shredder: Shredder,
    /// The groups written so far.
    groups: Vec<GroupMeta>,
    /// The component body: every block, then the index blob.
    out: PageWriter,
    open: GroupBuild,
    sources: Vec<SourceGroup>,
}

impl AmaxWriter {
    /// Close the open row; a full group goes to `store`.
    fn end_row(&mut self, store: &PageStore) -> Result<(), StorageError> {
        if self.open.rows as usize == self.group_rows {
            self.write_group(store)?;
        }
        Ok(())
    }

    fn write_group(&mut self, store: &PageStore) -> Result<(), StorageError> {
        let full = std::mem::replace(&mut self.open, GroupBuild::new(&self.columns));
        self.groups.push(full.write(store, &mut self.out)?);
        Ok(())
    }

    /// Copy the referenced row into the open group column by column; `false`
    /// (nothing appended) if its group has to be pivoted.
    fn copy_row(&mut self, key: &[u8], source: &RowSource<'_>) -> Result<bool, StorageError> {
        let Some(reader) = ChunkReader::of(source.chunk) else { return Ok(false) };
        let (store, group) = (source.store.id(), source.group as usize);
        let slot = match self.sources.iter().position(|s| s.store == store) {
            Some(slot) => slot,
            None => {
                let same_layout = reader.columns() == self.columns
                    && match (reader.dict(), self.shredder.dict()) {
                        (Some(theirs), Some(ours)) => theirs.is_prefix_of(ours),
                        (None, None) => true,
                        _ => false,
                    };
                self.sources.push(SourceGroup { store, same_layout, group: None, blocks: None });
                self.sources.len() - 1
            }
        };
        let open = &mut self.sources[slot];
        if open.group != Some(group) {
            let gm = reader.groups().get(group).ok_or_else(|| {
                StorageError::corruption("column block", format!("no row group {group}"))
            })?;
            let copyable = open.same_layout && gm.cols.iter().all(|c| c.spilled == 0);
            open.blocks = copyable.then(GroupBlocks::default);
            open.group = Some(group);
        }
        let Some(blocks) = open.blocks.take() else { return Ok(false) };
        let mut view = reader.resume(source.store, source.cache, group, blocks);
        let row = source.row as usize;
        self.open.residual.put_prefixed(view.residual_row(row)?);
        for (c, cb) in self.open.cols.iter_mut().enumerate() {
            let (def, value) = view.stored_value(c, row)?;
            cb.push_stored(def, value)?;
        }
        self.open.residual.end_row();
        self.open.begin_row(key, EntryKind::Record);
        // References arrive in key order: nothing follows a group's last row,
        // so its blocks need not wait for the input's next group to go.
        if row + 1 < view.rows() {
            open.blocks = Some(view.into_blocks());
        }
        Ok(true)
    }
}

impl ColumnarWriter for AmaxWriter {
    fn push(
        &mut self,
        store: &PageStore,
        key: &[u8],
        kind: EntryKind,
        payload: &[u8],
    ) -> Result<(), StorageError> {
        if kind == EntryKind::AntiMatter {
            self.open.cols.iter_mut().for_each(|cb| cb.end_row(DEF_ABSENT));
            self.open.residual.put_prefixed(&[]);
        } else {
            let rest = self.shredder.shred(payload, &mut self.open.cols)?;
            self.open.residual.put_prefixed(rest);
        }
        self.open.residual.end_row();
        self.open.begin_row(key, kind);
        self.end_row(store)
    }

    fn push_row(
        &mut self,
        store: &PageStore,
        key: &[u8],
        source: RowSource<'_>,
    ) -> Result<(), StorageError> {
        if self.copy_row(key, &source)? {
            self.counters.rows_column_merged.fetch_add(1, Ordering::Relaxed);
            return self.end_row(store);
        }
        let row = source.chunk.get_row(source.store, source.cache, source.group as usize, key)?;
        let Some((kind, payload)) = row else {
            return Err(StorageError::corruption(
                "column block",
                format!("row group {} does not hold the key a scan found in it", source.group),
            ));
        };
        self.counters.rows_reconstructed.fetch_add(1, Ordering::Relaxed);
        self.push(store, key, kind, &payload)
    }

    fn finish(
        mut self: Box<Self>,
        store: &PageStore,
    ) -> Result<Box<dyn ColumnarChunk>, StorageError> {
        if self.open.rows > 0 {
            self.write_group(store)?;
        }
        // Persist the column index after the last group — the component's
        // disk footprint includes its interior structure, like the row
        // layout's block index.
        let blob = crate::chunk::serialize_index(&self.columns, &self.groups);
        write_block(store, &mut self.out, &[], &[&blob])?;
        let AmaxWriter { shredder, counters, columns, groups, out, .. } = *self;
        let pages = out.finish(store)?;
        // A component build owns its store, so the body's pages are
        // contiguous — and every block is addressed on that footing.
        if pages.windows(2).any(|pair| pair[0] + 1 != pair[1]) {
            return Err(StorageError::Permanent { op: IoOp::Write });
        }
        let (declared, dict) = shredder.into_names();
        counters.pages_written.fetch_add(pages.len() as u64, Ordering::Relaxed);
        Ok(Box::new(ChunkReader::new(declared, counters, columns, groups, dict, pages[0])))
    }
}

impl ColumnarCodec for AmaxCodec {
    fn writer(&self, schema_blob: Option<&[u8]>) -> Box<dyn ColumnarWriter> {
        let schema = schema_blob.and_then(Schema::deserialize);
        let columns = self.column_set(schema.as_ref());
        let dict = schema.map(|schema| schema.dict().clone());
        Box::new(AmaxWriter {
            counters: Arc::clone(&self.counters),
            group_rows: self.group_rows,
            shredder: Shredder::new(&columns, self.declared.clone(), dict),
            open: GroupBuild::new(&columns),
            columns,
            groups: Vec::new(),
            out: PageWriter::new(),
            sources: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::datatype::FieldDef;
    use tc_adm::{parse, Value};
    use tc_compress::CompressionScheme;
    use tc_storage::buffer_cache::BufferCache;
    use tc_storage::device::{Device, DeviceProfile};

    use crate::chunk::{deserialize_index, serialize_index, FORMAT_VERSION};

    fn declared_pk() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    fn store() -> PageStore {
        PageStore::new(Arc::new(Device::new(DeviceProfile::RAM)), 256, CompressionScheme::None)
    }

    /// Encode records, infer their schema, shred, reconstruct, and compare
    /// the decoded values — the lossless-roundtrip core of the format.
    fn roundtrip(records: &[&str], group_rows: usize) -> (Vec<Value>, Vec<Value>) {
        let declared = declared_pk();
        let mut schema = Schema::new();
        let mut entries = Vec::new();
        for (i, text) in records.iter().enumerate() {
            let v = parse(text).unwrap();
            let Value::Object(fields) = &v else { panic!("object") };
            schema.observe_record(fields, &|n| n == "id").unwrap();
            entries.push((
                (i as u64).to_be_bytes().to_vec(),
                EntryKind::Record,
                tc_vector::encode(&v, Some(&declared)),
            ));
        }
        let codec = AmaxCodec::new(declared.clone()).with_group_rows(group_rows);
        let store = store();
        let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
        let cache = BufferCache::new(64);
        let mut originals = Vec::new();
        let mut rebuilt = Vec::new();
        let mut out = Vec::new();
        for g in 0..chunk.num_groups() {
            out.extend(chunk.read_group_rows(&store, &cache, g).unwrap());
        }
        assert_eq!(out.len(), entries.len());
        for ((key, kind, payload), (okey, okind, opayload)) in out.iter().zip(&entries) {
            assert_eq!(key, okey);
            assert_eq!(kind, okind);
            originals.push(tc_vector::decode(opayload, Some(&declared), None).unwrap());
            rebuilt.push(tc_vector::decode(payload, Some(&declared), None).unwrap());
        }
        (originals, rebuilt)
    }

    #[test]
    fn shred_and_reconstruct_is_lossless() {
        let (orig, back) = roundtrip(
            &[
                r#"{"id": 0, "name": "kim", "age": 26, "addr": {"zip": 90210, "ok": true}}"#,
                r#"{"id": 1, "name": "ann", "age": null, "tags": [1, 2, 3]}"#,
                r#"{"id": 2, "age": 7.5, "addr": {"zip": 10001}, "extra": {"deep": [true]}}"#,
                r#"{"id": 3}"#,
            ],
            2,
        );
        assert_eq!(orig, back);
    }

    #[test]
    fn antimatter_rows_reconstruct_empty() {
        let declared = declared_pk();
        let codec = AmaxCodec::new(declared);
        let store = store();
        let entries = vec![
            (0u64.to_be_bytes().to_vec(), EntryKind::AntiMatter, Vec::new()),
            (
                1u64.to_be_bytes().to_vec(),
                EntryKind::Record,
                tc_vector::encode(&parse(r#"{"id": 1, "x": 5}"#).unwrap(), None),
            ),
        ];
        let chunk = codec.build_chunk(&store, &entries, None).unwrap();
        let cache = BufferCache::new(16);
        let rows = chunk.read_group_rows(&store, &cache, 0).unwrap();
        assert_eq!(rows[0].1, EntryKind::AntiMatter);
        assert!(rows[0].2.is_empty());
        assert_eq!(rows[1].1, EntryKind::Record);
    }

    #[test]
    fn typed_columns_and_group_stats() {
        let declared = declared_pk();
        let mut schema = Schema::new();
        let mut entries = Vec::new();
        for i in 0..10i64 {
            let text = format!(r#"{{"id": {i}, "t": {}, "m": {}.5}}"#, 100 + i, i);
            let v = parse(&text).unwrap();
            let Value::Object(fields) = &v else { panic!("not an object") };
            schema.observe_record(fields, &|n| n == "id").unwrap();
            entries.push((
                (i as u64).to_be_bytes().to_vec(),
                EntryKind::Record,
                tc_vector::encode(&v, Some(&declared)),
            ));
        }
        let codec = AmaxCodec::new(declared).with_group_rows(4);
        let store = store();
        let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
        let reader = ChunkReader::of(chunk.as_ref()).unwrap();
        assert_eq!(reader.num_groups(), 3);
        let t = reader.find_column(&["t".into()]).unwrap();
        let m = reader.find_column(&["m".into()]).unwrap();
        assert!(reader.find_column(&["id".into()]).is_some(), "declared pk gets a column");
        // Group 1 covers i = 4..8.
        let g1 = &reader.groups()[1];
        assert_eq!(g1.cols[t].stats, ColumnStats::Int { min: 104, max: 107 });
        assert_eq!(g1.cols[m].stats, ColumnStats::Float { min: 4.5, max: 7.5 });
        assert_eq!(g1.cols[t].spilled, 0);
        let cache = BufferCache::new(64);
        let mut view = reader.view(&store, &cache, 1);
        let vals: Vec<_> = (0..view.rows()).map(|r| view.i64_at(t, r).unwrap()).collect();
        assert_eq!(vals, [Some(104), Some(105), Some(106), Some(107)]);
        assert_eq!(reader.counters().columns_faulted(), 1, "one block, read once");
        assert!(codec_pages_nonzero(reader));
    }

    fn codec_pages_nonzero(reader: &ChunkReader) -> bool {
        reader.counters().pages_written() > 0
    }

    #[test]
    fn type_mismatches_spill_to_residual() {
        // `age` is int in row 0 and string in row 1 → union → no typed
        // column; `t` is int in both but row 2 carries a double at `t` —
        // wait, a double at an int path makes a union too. Instead feed a
        // schema from rows 0-1 and shred a *different* row set, the
        // merge-time shape where the blob lags the data.
        let declared = declared_pk();
        let mut schema = Schema::new();
        let seed = parse(r#"{"id": 0, "t": 1}"#).unwrap();
        let Value::Object(fields) = &seed else { panic!("not an object") };
        schema.observe_record(fields, &|n| n == "id").unwrap();
        let rows = [r#"{"id": 0, "t": 1}"#, r#"{"id": 1, "t": "late"}"#];
        let mut entries = Vec::new();
        for (i, text) in rows.iter().enumerate() {
            entries.push((
                (i as u64).to_be_bytes().to_vec(),
                EntryKind::Record,
                tc_vector::encode(&parse(text).unwrap(), Some(&declared)),
            ));
        }
        let codec = AmaxCodec::new(declared.clone());
        let store = store();
        let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
        let reader = ChunkReader::of(chunk.as_ref()).unwrap();
        let t = reader.find_column(&["t".into()]).unwrap();
        assert_eq!(reader.groups()[0].cols[t].spilled, 1);
        // The spilled string survives reconstruction.
        let cache = BufferCache::new(16);
        let back = chunk.read_group_rows(&store, &cache, 0).unwrap();
        let v = tc_vector::decode(&back[1].2, Some(&declared), None).unwrap();
        assert_eq!(v.get_field("t"), Some(&Value::String("late".into())));
    }

    #[test]
    fn mistyped_column_value_is_a_typed_error() {
        // The shredder hands a column only scalars of its tag, so this is
        // reachable only through a record whose scalar has the wrong width, or
        // a column spec no block layout exists for; it must not panic the
        // flush.
        let mut col = ColBuild::new(TypeTag::Int64);
        col.put(&7i64.to_le_bytes()).unwrap();
        let err = col.put(b"seven").unwrap_err();
        assert!(matches!(err, StorageError::Corruption { .. }), "got {err}");
        assert!(err.to_string().contains("cut short"), "got {err}");
        let err = ColBuild::new(TypeTag::String).put(&[0xff, 0xfe]).unwrap_err();
        assert!(err.to_string().contains("no string column holds"), "got {err}");
        let err = ColBuild::new(TypeTag::Date).put(&1i32.to_le_bytes()).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    #[test]
    fn index_blob_roundtrips() {
        let columns = vec![
            ColumnSpec { path: vec!["a".into(), "b".into()], tag: TypeTag::Int64 },
            ColumnSpec { path: vec!["s".into()], tag: TypeTag::String },
        ];
        let groups = vec![GroupMeta {
            first_key: vec![0, 1, 2],
            rows: 7,
            keys: PageRun { start: 0, bytes: 55 },
            residual: PageRun { start: 55, bytes: 900 },
            cols: vec![
                ColumnChunkMeta {
                    run: PageRun { start: 955, bytes: 63 },
                    null_count: 2,
                    spilled: 1,
                    stats: ColumnStats::Int { min: -5, max: 9000 },
                },
                ColumnChunkMeta {
                    run: PageRun { start: 1018, bytes: 12 },
                    null_count: 0,
                    spilled: 0,
                    stats: ColumnStats::None,
                },
            ],
        }];
        let blob = serialize_index(&columns, &groups);
        let (c2, g2) = deserialize_index(&blob).unwrap();
        assert_eq!(c2, columns);
        assert_eq!(g2, groups);
        assert!(deserialize_index(&blob[..blob.len() - 1]).is_none());
        assert!(deserialize_index(b"nope").is_none());
        // The version byte names the block layout: one this reader does not
        // know is refused, and so is the unversioned shape of the first
        // blobs (the column count straight after the magic).
        assert_eq!(blob[4..6], [0x80 | FORMAT_VERSION, 0x00]);
        for version in [FORMAT_VERSION + 1, 2] {
            // Format 2's runs were page ids, its residual rows named their
            // fields: read as format 3 they would be garbage, not an error.
            let mut other = blob.clone();
            other[4] = 0x80 | version;
            assert!(deserialize_index(&other).is_none(), "format {version} blob");
        }
        let unversioned = [&blob[..4], &blob[6..]].concat();
        assert!(deserialize_index(&unversioned).is_none());
    }
}
