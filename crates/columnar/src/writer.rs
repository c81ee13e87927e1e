//! Flush/merge-time column shredding: the [`AmaxCodec`].

use std::sync::Arc;

use tc_adm::datatype::{ObjectType, TypeKind};
use tc_adm::{TypeTag, Value};
use tc_lsm::columnar::{ColumnarChunk, ColumnarCodec};
use tc_lsm::entry::{EntryKind, Key};
use tc_schema::{leaf_columns, Schema};
use tc_storage::error::{IoOp, StorageError};
use tc_storage::page_store::{PageStore, PageWriter};
use tc_util::varint;

use crate::chunk::{ChunkReader, ColumnChunkMeta, ColumnSpec, GroupMeta, PageRun, FORMAT_V2};
use crate::{ColumnStats, ColumnarCounters, DEFAULT_GROUP_ROWS, DEF_ABSENT, DEF_NULL, DEF_PRESENT};

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
    fn column_set(&self, schema: Option<&Schema>) -> Vec<ColumnSpec> {
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

/// What shredding found at one column's path in one record.
enum Taken {
    Absent,
    Null,
    Present(Value),
    /// The path holds a value outside the column's type; it stays in the
    /// residual and the column records a spill.
    Spilled,
}

/// Detach the value at `path` if it belongs in a `tag` column. Nulls and
/// matching values are removed (the residual keeps only what the columns
/// cannot represent); emptied intermediate objects stay in place so
/// `{"a": {}}` and `{}` remain distinguishable after reconstruction.
fn take_at_path(v: &mut Value, path: &[String], tag: TypeTag) -> Taken {
    let Value::Object(fields) = v else { return Taken::Absent };
    let Some(idx) = fields.iter().position(|(n, _)| n == &path[0]) else { return Taken::Absent };
    if path.len() > 1 {
        return take_at_path(&mut fields[idx].1, &path[1..], tag);
    }
    match &fields[idx].1 {
        Value::Null => {
            fields.remove(idx);
            Taken::Null
        }
        val if val.type_tag() == tag => Taken::Present(fields.remove(idx).1),
        Value::Missing => Taken::Absent,
        _ => Taken::Spilled,
    }
}

/// A block whose rows vary in width, under construction: the rows back to
/// back, and where each ends — the `u32` offset table the block opens with,
/// which lets a point lookup read row `i` alone.
#[derive(Default)]
struct VarRows {
    ends: Vec<u32>,
    bytes: Vec<u8>,
}

impl VarRows {
    /// Close the current row (everything appended to `bytes` since the
    /// last call). `write_block` refuses blocks past `u32::MAX` bytes, so a
    /// truncated offset never reaches a reader.
    fn end_row(&mut self) {
        self.ends.push(self.bytes.len() as u32);
    }

    /// The finished block: offset table, then the rows.
    fn into_block(self) -> Vec<u8> {
        let mut block = Vec::with_capacity(self.ends.len() * 4 + self.bytes.len());
        write_offset_table(&mut block, &self.ends);
        block.extend_from_slice(&self.bytes);
        block
    }
}

/// Append a block's offset table (format 2's block header) to `block`.
fn write_offset_table(block: &mut Vec<u8>, ends: &[u32]) {
    for end in ends {
        block.extend_from_slice(&end.to_le_bytes());
    }
}

/// Accumulates one column's block for the current row group.
struct ColBuild {
    tag: TypeTag,
    def: Vec<u8>,
    values: Vec<u8>,
    /// String columns only: where each row's value ends in `values` (absent
    /// and null rows are empty) — the block's offset table.
    ends: Vec<u32>,
    null_count: u32,
    spilled: u32,
    stats: ColumnStats,
    stats_poisoned: bool,
}

impl ColBuild {
    fn new(rows: usize, tag: TypeTag) -> Self {
        ColBuild {
            tag,
            def: Vec::with_capacity(rows),
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

    fn push(&mut self, taken: Taken) {
        match taken {
            Taken::Absent => self.def.push(DEF_ABSENT),
            Taken::Spilled => {
                self.def.push(DEF_ABSENT);
                self.spilled += 1;
            }
            Taken::Null => {
                self.def.push(DEF_NULL);
                self.null_count += 1;
            }
            Taken::Present(v) => {
                self.def.push(DEF_PRESENT);
                match (self.tag, v) {
                    (TypeTag::Int64, Value::Int64(i)) => {
                        self.observe_int(i);
                        self.values.extend_from_slice(&i.to_le_bytes());
                    }
                    (TypeTag::Double, Value::Double(d)) => {
                        self.observe_float(d);
                        self.values.extend_from_slice(&d.to_le_bytes());
                    }
                    (TypeTag::Boolean, Value::Boolean(b)) => {
                        self.values.push(b as u8);
                    }
                    (TypeTag::String, Value::String(s)) => {
                        varint::write_u64(&mut self.values, s.len() as u64);
                        self.values.extend_from_slice(s.as_bytes());
                    }
                    (tag, v) => unreachable!("{tag} column got {}", v.type_tag()),
                }
            }
        }
        if self.tag == TypeTag::String {
            self.ends.push(self.values.len() as u32);
        }
    }

    fn finish(self, store: &PageStore, pages: &mut u64) -> Result<ColumnChunkMeta, StorageError> {
        let mut block =
            Vec::with_capacity(self.ends.len() * 4 + self.def.len() + self.values.len());
        write_offset_table(&mut block, &self.ends);
        block.extend_from_slice(&self.def);
        block.extend_from_slice(&self.values);
        let run = write_block(store, &block, pages)?;
        let stats = if self.stats_poisoned { ColumnStats::None } else { self.stats };
        Ok(ColumnChunkMeta { run, null_count: self.null_count, spilled: self.spilled, stats })
    }
}

/// Write one block starting on a fresh page; returns its run and counts the
/// pages it took.
fn write_block(store: &PageStore, block: &[u8], pages: &mut u64) -> Result<PageRun, StorageError> {
    debug_assert!(!block.is_empty(), "blocks are never empty");
    // Run lengths and row offsets are `u32`s on disk.
    let bytes =
        u32::try_from(block.len()).map_err(|_| StorageError::Permanent { op: IoOp::Write })?;
    let mut w = PageWriter::new(store);
    w.append(block)?;
    let ids = w.finish()?;
    debug_assert_eq!(
        *ids.last().unwrap(),
        ids[0] + ids.len() as u64 - 1,
        "a component build owns its store, so pages are contiguous"
    );
    *pages += ids.len() as u64;
    Ok(PageRun { start: ids[0], bytes })
}

impl ColumnarCodec for AmaxCodec {
    fn build_chunk(
        &self,
        store: &PageStore,
        entries: &[(Key, EntryKind, Vec<u8>)],
        schema_blob: Option<&[u8]>,
    ) -> Result<Box<dyn ColumnarChunk>, StorageError> {
        let schema = schema_blob.and_then(Schema::deserialize);
        let columns = self.column_set(schema.as_ref());
        let dict = schema.as_ref().map(|s| s.dict());
        let mut groups: Vec<GroupMeta> = Vec::new();
        let mut pages = 0u64;

        for rows in entries.chunks(self.group_rows) {
            let mut keys_block = VarRows::default();
            let mut residual_block = VarRows::default();
            let mut cols: Vec<ColBuild> =
                columns.iter().map(|spec| ColBuild::new(rows.len(), spec.tag)).collect();
            for (key, kind, payload) in rows {
                varint::write_u64(&mut keys_block.bytes, key.len() as u64);
                keys_block.bytes.extend_from_slice(key);
                keys_block.bytes.push(*kind as u8);
                keys_block.end_row();
                if *kind == EntryKind::AntiMatter {
                    for cb in &mut cols {
                        cb.push(Taken::Absent);
                    }
                    varint::write_u64(&mut residual_block.bytes, 0);
                    residual_block.end_row();
                    continue;
                }
                // Payloads were encoded by this dataset's vector encoder
                // (compacted by the flush hook, or uncompacted); a decode
                // failure here means the memtable handed us garbage.
                let mut value = tc_vector::decode(payload, Some(&self.declared), dict)
                    .map_err(|e| StorageError::corruption("columnar shred", e.to_string()))?;
                for (spec, cb) in columns.iter().zip(&mut cols) {
                    cb.push(take_at_path(&mut value, &spec.path, spec.tag));
                }
                let residual = tc_vector::encode(&value, None);
                varint::write_u64(&mut residual_block.bytes, residual.len() as u64);
                residual_block.bytes.extend_from_slice(&residual);
                residual_block.end_row();
            }
            let keys = write_block(store, &keys_block.into_block(), &mut pages)?;
            let residual = write_block(store, &residual_block.into_block(), &mut pages)?;
            let mut col_metas = Vec::with_capacity(cols.len());
            for cb in cols {
                col_metas.push(cb.finish(store, &mut pages)?);
            }
            groups.push(GroupMeta {
                first_key: rows[0].0.clone(),
                rows: rows.len() as u32,
                keys,
                residual,
                cols: col_metas,
            });
        }

        // Persist the column index after the last group — the component's
        // disk footprint includes its interior structure, like the row
        // layout's block index.
        let blob = crate::chunk::serialize_index(&columns, &groups);
        write_block(store, &blob, &mut pages)?;
        self.counters.pages_written.fetch_add(pages, std::sync::atomic::Ordering::Relaxed);

        Ok(Box::new(ChunkReader::new(
            self.declared.clone(),
            Arc::clone(&self.counters),
            FORMAT_V2,
            columns,
            groups,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::datatype::FieldDef;
    use tc_adm::parse;
    use tc_compress::CompressionScheme;
    use tc_storage::buffer_cache::BufferCache;
    use tc_storage::device::{Device, DeviceProfile};

    use crate::chunk::{deserialize_index, serialize_index};
    use crate::ColumnValues;

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
            schema.observe_record(fields, &|n| n == "id");
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
            let Value::Object(fields) = &v else { unreachable!() };
            schema.observe_record(fields, &|n| n == "id");
            entries.push((
                (i as u64).to_be_bytes().to_vec(),
                EntryKind::Record,
                tc_vector::encode(&v, Some(&declared)),
            ));
        }
        let codec = AmaxCodec::new(declared).with_group_rows(4);
        let store = store();
        let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
        let reader = chunk.as_any().downcast_ref::<ChunkReader>().unwrap();
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
        let col = reader.read_column(&store, &cache, 1, t).unwrap();
        assert!(col.def.iter().all(|&d| d == DEF_PRESENT));
        let ColumnValues::I64(vals) = &col.values else { panic!("typed i64") };
        assert_eq!(vals, &[104, 105, 106, 107]);
        assert!(reader.counters().columns_faulted() >= 1);
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
        let Value::Object(fields) = &seed else { unreachable!() };
        schema.observe_record(fields, &|n| n == "id");
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
        let reader = chunk.as_any().downcast_ref::<ChunkReader>().unwrap();
        let t = reader.find_column(&["t".into()]).unwrap();
        assert_eq!(reader.groups()[0].cols[t].spilled, 1);
        // The spilled string survives reconstruction.
        let cache = BufferCache::new(16);
        let back = chunk.read_group_rows(&store, &cache, 0).unwrap();
        let v = tc_vector::decode(&back[1].2, Some(&declared), None).unwrap();
        assert_eq!(v.get_field("t"), Some(&Value::String("late".into())));
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
            residual: PageRun { start: 1, bytes: 900 },
            cols: vec![
                ColumnChunkMeta {
                    run: PageRun { start: 5, bytes: 63 },
                    null_count: 2,
                    spilled: 1,
                    stats: ColumnStats::Int { min: -5, max: 9000 },
                },
                ColumnChunkMeta {
                    run: PageRun { start: 6, bytes: 12 },
                    null_count: 0,
                    spilled: 0,
                    stats: ColumnStats::None,
                },
            ],
        }];
        let blob = serialize_index(&columns, &groups);
        let (format, c2, g2) = deserialize_index(&blob).unwrap();
        assert_eq!(format, FORMAT_V2);
        assert_eq!(c2, columns);
        assert_eq!(g2, groups);
        assert!(deserialize_index(&blob[..blob.len() - 1]).is_none());
        assert!(deserialize_index(b"nope").is_none());
    }
}
