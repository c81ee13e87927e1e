//! Column-to-column merges: a component built from row *references*
//! (`push_row`, values copied between column pages) must equal, page for
//! page, the one built by pivoting every winner to a record first (`read_row`
//! then `push`) — and every source the copy is refused for must take that
//! pivot, counted, and still round-trip.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;
use tc_adm::Value;
use tc_columnar::chunk::ChunkReader;
use tc_columnar::{AmaxCodec, ColumnStats};
use tc_lsm::columnar::{ColumnarChunk, ColumnarCodec, ColumnarWriter, RowSource};
use tc_lsm::entry::{EntryKind, Key};
use tc_schema::Schema;
use tc_storage::buffer_cache::BufferCache;
use tc_storage::error::StorageError;
use tc_storage::page_store::PageStore;

use common::{arb_row, declared_pk, key, new_store, object, observe, row_record, Row};

/// Where a key sits in a source: `(group, row)` for a record, `None` for
/// anti-matter.
type RowAt = Option<(u32, u32)>;

/// One merge input: its chunk, the store it lives in, and its keys.
struct Source {
    chunk: Box<dyn ColumnarChunk>,
    store: PageStore,
    rows: BTreeMap<Key, RowAt>,
}

/// Shred `rows` (key → record, `None` = anti-matter) into a source component.
fn build_source(
    codec: &AmaxCodec,
    group_rows: usize,
    page_size: usize,
    rows: &BTreeMap<u64, Option<Value>>,
    blob: &[u8],
) -> Source {
    let declared = declared_pk();
    let mut entries = Vec::new();
    let mut index = BTreeMap::new();
    for (i, (k, record)) in rows.iter().enumerate() {
        let at = ((i / group_rows) as u32, (i % group_rows) as u32);
        match record {
            None => entries.push((key(*k), EntryKind::AntiMatter, Vec::new())),
            Some(v) => {
                entries.push((key(*k), EntryKind::Record, tc_vector::encode(v, Some(&declared))))
            }
        }
        index.insert(key(*k), record.as_ref().map(|_| at));
    }
    let store = new_store(page_size);
    let chunk = codec.build_chunk(&store, &entries, Some(blob)).unwrap();
    Source { chunk, store, rows: index }
}

/// What the merge of `sources` (oldest first) writes: per key the newest
/// version; anti-matter dropped when the merge reaches the oldest component.
fn winners(sources: &[Source], includes_oldest: bool) -> Vec<(Key, usize, RowAt)> {
    let mut newest: BTreeMap<&Key, (usize, RowAt)> = BTreeMap::new();
    for (rank, source) in sources.iter().enumerate() {
        for (k, at) in &source.rows {
            newest.insert(k, (rank, *at));
        }
    }
    newest
        .into_iter()
        .filter(|(_, (_, at))| at.is_some() || !includes_oldest)
        .map(|(k, (rank, at))| (k.clone(), rank, at))
        .collect()
}

/// A merged component and the store it was written to.
struct Merged {
    store: PageStore,
    chunk: Box<dyn ColumnarChunk>,
}

impl Merged {
    fn reader(&self) -> &ChunkReader {
        ChunkReader::of(self.chunk.as_ref()).expect("the codec builds chunk readers")
    }

    fn pages(&self) -> Vec<Vec<u8>> {
        (0..self.store.num_pages()).map(|p| self.store.read_page(p).unwrap()).collect()
    }
}

/// Merge the winners twice with `codec`: by row reference, and by pivoting
/// each through `read_row` + `push` — the reference the first must equal.
fn merge_both_ways(
    codec: &AmaxCodec,
    page_size: usize,
    blob: &[u8],
    sources: &[Source],
    includes_oldest: bool,
    cache: &BufferCache,
) -> (Merged, Merged) {
    let mut by_reference: Box<dyn ColumnarWriter> = codec.writer(Some(blob));
    let mut by_pivot: Box<dyn ColumnarWriter> = codec.writer(Some(blob));
    let (ref_store, pivot_store) = (new_store(page_size), new_store(page_size));
    for (k, rank, at) in winners(sources, includes_oldest) {
        let source = &sources[rank];
        let Some((group, row)) = at else {
            by_reference.push(&ref_store, &k, EntryKind::AntiMatter, &[]).unwrap();
            by_pivot.push(&pivot_store, &k, EntryKind::AntiMatter, &[]).unwrap();
            continue;
        };
        let chunk = source.chunk.as_ref();
        let row_source = RowSource { chunk, store: &source.store, cache, group, row };
        by_reference.push_row(&ref_store, &k, row_source).unwrap();
        let payload = chunk.read_row(&source.store, cache, group as usize, row).unwrap();
        by_pivot.push(&pivot_store, &k, EntryKind::Record, &payload).unwrap();
    }
    let chunk = by_reference.finish(&ref_store).unwrap();
    let pivot_chunk = by_pivot.finish(&pivot_store).unwrap();
    (Merged { store: ref_store, chunk }, Merged { store: pivot_store, chunk: pivot_chunk })
}

/// Same page count, same bytes, same index (runs, stats, null and spill
/// counts).
fn assert_page_for_page(a: &Merged, b: &Merged) {
    assert_eq!(a.reader().columns(), b.reader().columns());
    assert_eq!(a.reader().groups(), b.reader().groups());
    assert_eq!(a.store.num_pages(), b.store.num_pages());
    for (p, (left, right)) in a.pages().iter().zip(b.pages()).enumerate() {
        assert_eq!(*left, right, "page {p}");
    }
}

/// Every key of `merged`, decoded (`None` = anti-matter).
fn contents(merged: &Merged, cache: &BufferCache) -> BTreeMap<Key, Option<Value>> {
    let declared = declared_pk();
    let mut out = BTreeMap::new();
    for g in 0..merged.chunk.num_groups() {
        for (k, kind, payload) in merged.chunk.read_group_rows(&merged.store, cache, g).unwrap() {
            let value = (kind == EntryKind::Record)
                .then(|| tc_vector::decode(&payload, Some(&declared), None).unwrap());
            out.insert(k, value);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// 2–4 overlapping sources with stale versions and anti-matter, tiny
    /// groups and pages, schemas that agree or not: the two routes write the
    /// same component, and exactly the rows of copyable groups are copied.
    #[test]
    fn push_row_equals_pivoting_every_winner(
        inputs in proptest::collection::vec(
            proptest::collection::vec((0u64..20, arb_row()), 1..16), 2..=4),
        geometry in (1usize..7, 1usize..7, prop_oneof![Just(64usize), Just(1024usize)]),
        flags in (any::<bool>(), prop_oneof![3 => Just(true), 1 => Just(false)]),
    ) {
        let (source_group_rows, group_rows, page_size) = geometry;
        let (includes_oldest, shared_schema) = flags;
        // What each source holds, and the schema its flush would have had:
        // the partition's one growing schema as it stood after that flush
        // (fewer columns and a shorter dictionary the older the source), or —
        // the schema-stable case — as it stands after the last.
        let rows_of = |input: &Vec<(u64, Row)>| -> BTreeMap<u64, (bool, Option<Value>)> {
            input.iter().map(|(k, row)| {
                let (anti, observed) = row.0;
                (*k, (observed, (!anti).then(|| row_record(*k, row))))
            }).collect()
        };
        let mut schema = Schema::new();
        let mut own = Vec::new();
        for input in &inputs {
            for (observed, record) in rows_of(input).values() {
                if let Some(record) = record {
                    observe(&mut schema, record, *observed);
                }
            }
            own.push(schema.serialize());
        }
        let shared = schema.serialize();
        let blob_of = |i: usize| if shared_schema { &shared } else { &own[i] };

        let source_codec = AmaxCodec::new(declared_pk()).with_group_rows(source_group_rows);
        let mut originals: BTreeMap<Key, Option<Value>> = BTreeMap::new();
        let sources: Vec<Source> = inputs.iter().enumerate().map(|(i, input)| {
            let rows: BTreeMap<u64, Option<Value>> =
                rows_of(input).into_iter().map(|(k, (_, record))| (k, record)).collect();
            for (k, record) in &rows {
                originals.insert(key(*k), record.clone());
            }
            build_source(&source_codec, source_group_rows, page_size, &rows, blob_of(i))
        }).collect();
        if includes_oldest {
            originals.retain(|_, record| record.is_some());
        }

        // A merge keeps the newest input's schema.
        let blob = blob_of(inputs.len() - 1);
        let codec = AmaxCodec::new(declared_pk()).with_group_rows(group_rows);
        let cache = BufferCache::new(4096);
        let (by_reference, by_pivot) =
            merge_both_ways(&codec, page_size, blob, &sources, includes_oldest, &cache);
        assert_page_for_page(&by_reference, &by_pivot);

        // Copied: the winners whose source has the output's columns and whose
        // group has no spill (its dictionary is a prefix of the output's, as
        // in any one partition). Everything else is a counted pivot.
        let columns = by_reference.reader().columns();
        let mut copyable = 0u64;
        let mut records = 0u64;
        for (_, rank, at) in winners(&sources, includes_oldest) {
            let Some((group, _)) = at else { continue };
            let reader = ChunkReader::of(sources[rank].chunk.as_ref()).unwrap();
            let clean = reader.groups()[group as usize].cols.iter().all(|c| c.spilled == 0);
            copyable += (reader.columns() == columns && clean) as u64;
            records += 1;
        }
        prop_assert_eq!(codec.counters().rows_column_merged(), copyable);
        prop_assert_eq!(codec.counters().rows_reconstructed(), records - copyable);
        prop_assert_eq!(contents(&by_reference, &cache), originals);
    }
}

/// Records for the refusal tests: `id`, an int `t`, a string `s`, an array
/// that stays in the residual and a double `d` (NaN in row 2).
fn sample(i: u64) -> Value {
    let d = if i == 2 { f64::NAN } else { i as f64 + 0.5 };
    object(vec![
        ("id", Some(Value::Int64(i as i64))),
        ("t", Some(Value::Int64(10 * i as i64))),
        ("s", Some(Value::String(format!("row {i}")))),
        ("rest", Some(Value::Array(vec![Value::Int64(i as i64)]))),
        ("d", Some(Value::Double(d))),
    ])
}

fn schema_of(records: &[Value]) -> Vec<u8> {
    let mut schema = Schema::new();
    for record in records {
        observe(&mut schema, record, true);
    }
    schema.serialize()
}

/// Merge `sources` both ways with three-row groups; the reference-built side
/// and the codec whose counters saw the merge.
fn merge_checked(blob: &[u8], sources: &[Source], cache: &BufferCache) -> (Merged, AmaxCodec) {
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(3);
    let (by_reference, by_pivot) = merge_both_ways(&codec, 256, blob, sources, true, cache);
    assert_page_for_page(&by_reference, &by_pivot);
    (by_reference, codec)
}

#[test]
fn schema_stable_sources_are_copied_and_stats_recomputed() {
    let old: Vec<Value> = (0..8).map(sample).collect();
    let new: Vec<Value> = (4..12).map(|i| sample(i + 100)).collect();
    let blob = schema_of(&[old.clone(), new.clone()].concat());
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(4);
    let rows = |records: &[Value], first: u64| -> BTreeMap<u64, Option<Value>> {
        records.iter().enumerate().map(|(i, v)| (first + i as u64, Some(v.clone()))).collect()
    };
    let mut newer = rows(&new, 4);
    newer.insert(1, None); // deletes the older component's row 1
    let sources = [
        build_source(&codec, 4, 256, &rows(&old, 0), &blob),
        build_source(&codec, 4, 256, &newer, &blob),
    ];
    let cache = BufferCache::new(1024);
    let (merged, out) = merge_checked(&blob, &sources, &cache);
    assert_eq!(out.counters().rows_column_merged(), 11, "0, 2, 3 and the eight newer rows");
    assert_eq!(out.counters().rows_reconstructed(), 0);

    let reader = merged.reader();
    let t = reader.find_column(&["t".into()]).unwrap();
    let d = reader.find_column(&["d".into()]).unwrap();
    // Group 0 holds ids 0, 2, 3 — id 2 carries the NaN.
    assert_eq!(reader.groups()[0].cols[t].stats, ColumnStats::Int { min: 0, max: 30 });
    assert_eq!(reader.groups()[0].cols[d].stats, ColumnStats::None, "NaN poisons the group");
    // Group 1 holds keys 4, 5, 6 — newer versions, ids 104..=106.
    assert_eq!(reader.groups()[1].cols[t].stats, ColumnStats::Int { min: 1040, max: 1060 });
    assert_eq!(reader.groups()[1].cols[d].stats, ColumnStats::Float { min: 104.5, max: 106.5 });
    let got = contents(&merged, &cache);
    assert_eq!(got.len(), 11);
    assert_eq!(got[&key(3)], Some(sample(3)));
    assert_eq!(got[&key(4)], Some(sample(104)));
}

#[test]
fn residuals_compacted_against_an_older_dictionary_are_copied_as_they_are() {
    // Schema evolution between two flushes that adds no column: the newer
    // records carry an array of objects holding arrays (nested repetition,
    // which no column takes), so `extra` and `later` join the dictionary and
    // nothing else changes. The older component's residual
    // rows hold ids of the shorter dictionary; the merged component's blob is
    // the newer one, under which those ids name the same fields.
    let old: Vec<Value> = (0..6).map(sample).collect();
    let evolved = |i: u64| {
        let mut v = sample(i);
        let Value::Object(fields) = &mut v else { unreachable!() };
        let later = object(vec![("later", Some(Value::Array(vec![Value::Int64(i as i64)])))]);
        fields.insert(1, ("extra".into(), Value::Array(vec![later])));
        v
    };
    let new: Vec<Value> = (4..9).map(evolved).collect();
    let (old_blob, new_blob) = (schema_of(&old), schema_of(&[old.clone(), new.clone()].concat()));
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(4);
    let rows = |records: &[Value], first: u64| -> BTreeMap<u64, Option<Value>> {
        records.iter().enumerate().map(|(i, v)| (first + i as u64, Some(v.clone()))).collect()
    };
    let sources = [
        build_source(&codec, 4, 256, &rows(&old, 0), &old_blob),
        build_source(&codec, 4, 256, &rows(&new, 4), &new_blob),
    ];
    let dict_of = |chunk: &dyn ColumnarChunk| ChunkReader::of(chunk).unwrap().dict().unwrap().len();
    let cache = BufferCache::new(1024);
    // `merge_checked` holds the copy to the pivot's pages — and the pivot
    // compacts each record it reconstructs against the output's dictionary.
    let (merged, out) = merge_checked(&new_blob, &sources, &cache);
    assert_eq!(dict_of(sources[0].chunk.as_ref()) + 2, dict_of(merged.chunk.as_ref()));
    assert_eq!(out.counters().rows_reconstructed(), 0, "a longer dictionary refuses no copy");
    assert_eq!(out.counters().rows_column_merged(), 9);
    let got = contents(&merged, &cache);
    let expected: BTreeMap<Key, Option<Value>> = (0..4)
        .map(|i| (key(i), Some(sample(i))))
        .chain((4..9).map(|i| (key(i), Some(evolved(i)))))
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn a_dictionary_of_another_lineage_takes_the_counted_pivot() {
    // Same columns, but the source's blob interned its names in another
    // order — no state of the output's dictionary. Its residual ids would
    // name other fields there, so its rows are pivoted, never copied.
    let records: Vec<Value> = (0..5).map(sample).collect();
    let reordered: Vec<Value> = records
        .iter()
        .map(|v| {
            let Value::Object(fields) = v else { unreachable!() };
            Value::Object(fields.iter().rev().cloned().collect())
        })
        .collect();
    let (blob, foreign_blob) = (schema_of(&records), schema_of(&reordered));
    let rows: BTreeMap<u64, Option<Value>> =
        records.iter().enumerate().map(|(i, v)| (i as u64, Some(v.clone()))).collect();
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(3);
    let source = build_source(&codec, 3, 256, &rows, &foreign_blob);
    let cache = BufferCache::new(1024);
    let sources = [source];
    let (merged, out) = merge_checked(&blob, &sources, &cache);
    let source = ChunkReader::of(sources[0].chunk.as_ref()).unwrap();
    assert_eq!(merged.reader().columns(), source.columns(), "the dictionaries alone differ");
    assert_eq!((out.counters().rows_column_merged(), out.counters().rows_reconstructed()), (0, 5));
    assert_eq!(contents(&merged, &cache)[&key(3)], Some(sample(3)));
}

#[test]
fn unequal_column_sets_take_the_counted_pivot() {
    // The older component was flushed before `z` appeared.
    let old: Vec<Value> = (0..5).map(sample).collect();
    let widened = |i: u64| {
        let mut v = sample(i);
        let Value::Object(fields) = &mut v else { unreachable!() };
        fields.push(("z".into(), Value::Int64(i as i64)));
        v
    };
    let new: Vec<Value> = (3..7).map(widened).collect();
    let (old_blob, new_blob) = (schema_of(&old), schema_of(&[old.clone(), new.clone()].concat()));
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(2);
    let rows = |records: &[Value], first: u64| -> BTreeMap<u64, Option<Value>> {
        records.iter().enumerate().map(|(i, v)| (first + i as u64, Some(v.clone()))).collect()
    };
    let sources = [
        build_source(&codec, 2, 256, &rows(&old, 0), &old_blob),
        build_source(&codec, 2, 256, &rows(&new, 3), &new_blob),
    ];
    let cache = BufferCache::new(1024);
    let (merged, out) = merge_checked(&new_blob, &sources, &cache);
    assert_eq!(out.counters().rows_reconstructed(), 3, "the older component's survivors");
    assert_eq!(out.counters().rows_column_merged(), 4, "the newer one has the output's columns");
    let got = contents(&merged, &cache);
    assert_eq!(got.len(), 7);
    assert_eq!(got[&key(2)], Some(sample(2)));
    assert_eq!(got[&key(3)], Some(widened(3)));
}

#[test]
fn a_spilled_group_takes_the_counted_pivot() {
    // The schema says `t` is an int; row 4 holds a string there — the
    // merge-time shape where a blob lags its data. Groups of three: rows
    // 0–2 are clean, the group of rows 3–5 has a spill.
    let seen: Vec<Value> = (0..6).map(sample).collect();
    let blob = schema_of(&seen);
    let mut stored = seen.clone();
    let Value::Object(fields) = &mut stored[4] else { unreachable!() };
    fields.iter_mut().find(|(n, _)| n == "t").unwrap().1 = Value::String("late".into());
    let rows: BTreeMap<u64, Option<Value>> =
        stored.iter().enumerate().map(|(i, v)| (i as u64, Some(v.clone()))).collect();
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(3);
    let source = build_source(&codec, 3, 256, &rows, &blob);
    let reader = ChunkReader::of(source.chunk.as_ref()).unwrap();
    let t = reader.find_column(&["t".into()]).unwrap();
    assert_eq!((reader.groups()[0].cols[t].spilled, reader.groups()[1].cols[t].spilled), (0, 1));

    let cache = BufferCache::new(1024);
    let (merged, out) = merge_checked(&blob, &[source], &cache);
    assert_eq!(out.counters().rows_column_merged(), 3);
    assert_eq!(out.counters().rows_reconstructed(), 3);
    assert_eq!(merged.reader().groups()[1].cols[t].spilled, 1, "the spill count survives");
    assert_eq!(contents(&merged, &cache)[&key(4)], Some(stored[4].clone()));
}

/// A chunk the writer cannot see into — it is no `ChunkReader` — that
/// delegates everything.
#[derive(Debug)]
struct Opaque(Box<dyn ColumnarChunk>);

impl ColumnarChunk for Opaque {
    fn num_groups(&self) -> usize {
        self.0.num_groups()
    }

    fn group_first_key(&self, g: usize) -> &[u8] {
        self.0.group_first_key(g)
    }

    fn read_group_keys(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind)>, StorageError> {
        self.0.read_group_keys(store, cache, g)
    }

    fn read_group_rows(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind, Vec<u8>)>, StorageError> {
        self.0.read_group_rows(store, cache, g)
    }

    fn find_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        key: &[u8],
    ) -> Result<Option<(u32, EntryKind)>, StorageError> {
        self.0.find_row(store, cache, g, key)
    }

    fn read_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        row: u32,
    ) -> Result<Vec<u8>, StorageError> {
        self.0.read_row(store, cache, g, row)
    }
}

#[test]
fn a_foreign_chunk_takes_the_counted_pivot() {
    let records: Vec<Value> = (0..5).map(sample).collect();
    let blob = schema_of(&records);
    let rows: BTreeMap<u64, Option<Value>> =
        records.iter().enumerate().map(|(i, v)| (i as u64, Some(v.clone()))).collect();
    let codec = AmaxCodec::new(declared_pk()).with_group_rows(3);
    let mut source = build_source(&codec, 3, 256, &rows, &blob);
    source.chunk = Box::new(Opaque(source.chunk));
    let cache = BufferCache::new(1024);
    let (merged, out) = merge_checked(&blob, &[source], &cache);
    assert_eq!(out.counters().rows_column_merged(), 0);
    assert_eq!(out.counters().rows_reconstructed(), 5);
    assert_eq!(contents(&merged, &cache).len(), 5);
}
