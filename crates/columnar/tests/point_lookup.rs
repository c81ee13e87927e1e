//! Row-addressable point reads: `find_row` + `read_row` must agree with the
//! group reconstruction they replace and, value for value, with the view of
//! the row group the scans read through; a record assembled by the view
//! (`GroupView::record`) or by the point read (`ChunkReader::record_at`) must
//! be the one those bytes decode to, field order included — and a damaged
//! offset table must be answered with a typed error.

mod common;

use std::sync::Arc;

use proptest::prelude::*;
use tc_adm::path::eval_path;
use tc_adm::{parse, TypeTag, Value};
use tc_columnar::chunk::{ChunkReader, GroupMeta};
use tc_columnar::{AmaxCodec, ColumnarCounters};
use tc_lsm::columnar::{ColumnarChunk, ColumnarCodec};
use tc_lsm::entry::EntryKind;
use tc_schema::Schema;
use tc_storage::buffer_cache::BufferCache;
use tc_storage::error::StorageError;
use tc_storage::page_store::PageStore;

use common::{arb_row, declared_pk, key, new_store, observe, row_record};

/// A point read as the tree makes it: the row `find_row` finds for `k` in
/// group `g`, and for a record its bytes (`read_row`; anti-matter has none).
fn get_row(
    chunk: &dyn ColumnarChunk,
    store: &PageStore,
    cache: &BufferCache,
    g: usize,
    k: &[u8],
) -> Result<Option<(EntryKind, Vec<u8>)>, StorageError> {
    let Some((row, kind)) = chunk.find_row(store, cache, g, k)? else { return Ok(None) };
    let payload = match kind {
        EntryKind::AntiMatter => Vec::new(),
        EntryKind::Record => chunk.read_row(store, cache, g, row)?,
    };
    Ok(Some((kind, payload)))
}

/// The group a lookup of `k` is routed to: the last one whose first key is
/// ≤ `k` (group 0 for keys below every group).
fn group_for(chunk: &dyn ColumnarChunk, k: &[u8]) -> usize {
    (0..chunk.num_groups()).rev().find(|&g| chunk.group_first_key(g) <= k).unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every stored key the point read returns exactly the row
    /// `read_group_rows` reconstructs, and nothing for keys below, between
    /// and above the stored ones — without reconstructing a row. For every
    /// stored record and typed column the group's view gives the value the
    /// point read's record holds at the column's path (a spilled one
    /// included), rows asked for forwards and then backwards. And every
    /// record assembled as a `Value`, by the view or by the point read,
    /// prints as its bytes decode: `Value`'s `==` ignores field order, its
    /// text does not.
    #[test]
    fn get_row_equals_reconstructed_row(
        rows in proptest::collection::vec(arb_row(), 1..24),
        group_rows in 1usize..7,
        page_size in prop_oneof![Just(64usize), Just(1024usize)],
    ) {
        let declared = declared_pk();
        let mut schema = Schema::new();
        let mut entries = Vec::new();
        // Stored keys are 2, 4, 6, …: odd probes fall between them.
        for (i, row) in rows.iter().enumerate() {
            let k = 2 * (i as u64 + 1);
            let (anti, observed) = row.0;
            if anti {
                entries.push((key(k), EntryKind::AntiMatter, Vec::new()));
                continue;
            }
            let record = row_record(k, row);
            observe(&mut schema, &record, observed);
            entries.push((key(k), EntryKind::Record, tc_vector::encode(&record, Some(&declared))));
        }
        let codec = AmaxCodec::new(declared.clone()).with_group_rows(group_rows);
        let store = new_store(page_size);
        let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
        let cache = BufferCache::new(512);

        let mut stored = Vec::new();
        for g in 0..chunk.num_groups() {
            stored.extend(chunk.read_group_rows(&store, &cache, g).unwrap());
        }
        prop_assert_eq!(stored.len(), entries.len());
        let reconstructed = codec.counters().rows_reconstructed();
        for (k, kind, payload) in &stored {
            let g = group_for(chunk.as_ref(), k);
            prop_assert_eq!(
                get_row(chunk.as_ref(), &store, &cache, g, k).unwrap(),
                Some((*kind, payload.clone()))
            );
        }
        for probe in (0..=2 * entries.len() as u64 + 3).filter(|p| p % 2 == 1 || *p == 0) {
            let k = key(probe);
            let g = group_for(chunk.as_ref(), &k);
            prop_assert_eq!(get_row(chunk.as_ref(), &store, &cache, g, &k).unwrap(), None);
        }
        prop_assert_eq!(codec.counters().rows_reconstructed(), reconstructed);

        let reader = ChunkReader::of(chunk.as_ref()).unwrap();
        let mut first = 0;
        for g in 0..reader.num_groups() {
            let mut view = reader.view(&store, &cache, g);
            let rows = view.rows();
            for i in (0..rows).chain((0..rows).rev()) {
                let (k, kind, _) = &stored[first + i];
                if *kind == EntryKind::AntiMatter {
                    prop_assert_eq!(view.residual_row(i).unwrap(), &[] as &[u8]);
                    continue;
                }
                let (_, payload) = get_row(reader, &store, &cache, g, k).unwrap().unwrap();
                let record = tc_vector::decode(&payload, Some(&declared), None).unwrap();
                for (c, spec) in reader.columns().iter().enumerate() {
                    let value = view.value_at(c, i).unwrap();
                    // By their text: NaN is not equal to itself.
                    let expected = eval_path(&record, &spec.steps());
                    prop_assert_eq!(format!("{value:?}"), format!("{expected:?}"));
                    match spec.tag {
                        TypeTag::Int64 => {
                            let typed = view.i64_at(c, i).unwrap().map(Value::Int64);
                            prop_assert_eq!(typed, Some(value).filter(|v| v.type_tag() == spec.tag));
                        }
                        TypeTag::Double => {
                            let typed = view.f64_at(c, i).unwrap().map(f64::to_bits);
                            let held = if let Value::Double(d) = value { Some(d.to_bits()) } else { None };
                            prop_assert_eq!(typed, held);
                        }
                        _ => {}
                    }
                }
            }
            first += rows;
        }

        let mut first = 0;
        for g in 0..reader.num_groups() {
            let mut view = reader.view(&store, &cache, g);
            for i in 0..view.rows() {
                let (_, kind, payload) = &stored[first + i];
                if *kind == EntryKind::AntiMatter {
                    continue;
                }
                let decoded = tc_vector::decode(payload, Some(&declared), None).unwrap();
                let text = tc_adm::to_string(&decoded);
                prop_assert_eq!(tc_adm::to_string(&view.record(i).unwrap()), text.clone());
                let record = reader.record_at(&store, &cache, g, i).unwrap();
                prop_assert_eq!(tc_adm::to_string(&record), text);
            }
            first += view.rows();
        }
    }
}

/// A copy of `store` with `bytes` written over byte `at` of the component
/// body (which starts on page 0) and what follows it.
fn store_with_damage(store: &PageStore, at: u64, bytes: &[u8]) -> PageStore {
    let copy = new_store(store.page_size());
    let mut body: Vec<u8> =
        (0..store.num_pages()).flat_map(|p| store.read_page(p).unwrap()).collect();
    body[at as usize..][..bytes.len()].copy_from_slice(bytes);
    for page in body.chunks(store.page_size()) {
        copy.write_page(page).unwrap();
    }
    copy
}

#[test]
fn damaged_offset_tables_are_typed_corruption() {
    let declared = declared_pk();
    let mut schema = Schema::new();
    let mut entries = Vec::new();
    for i in 0..4u64 {
        let v = parse(&format!(r#"{{"id": {i}, "s": "value {i}", "rest": [{i}]}}"#)).unwrap();
        observe(&mut schema, &v, true);
        entries.push((key(i), EntryKind::Record, tc_vector::encode(&v, Some(&declared))));
    }
    let codec = AmaxCodec::new(declared.clone());
    let store = new_store(256);
    let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
    let reader = ChunkReader::of(chunk.as_ref()).unwrap();
    let cache = BufferCache::new(64);
    assert!(get_row(reader, &store, &cache, 0, &key(1)).unwrap().is_some());

    let reopen = |groups: Vec<GroupMeta>| {
        let counters = Arc::new(ColumnarCounters::default());
        let (columns, dict) = (reader.columns().to_vec(), reader.dict().cloned());
        ChunkReader::new(declared.clone(), counters, columns, groups, dict, reader.body_page())
    };
    let assert_corrupt = |r: Result<Option<(EntryKind, Vec<u8>)>, _>| {
        let err: tc_storage::error::StorageError = r.unwrap_err();
        assert!(matches!(err, tc_storage::error::StorageError::Corruption { .. }), "got {err}");
    };
    let gm = &reader.groups()[0];
    let s = reader.find_column(&["s".into()]).unwrap();
    // Row 0's end offset blown past the block, in each block that has a
    // table: row 0 runs off the block, row 1 starts after it ends.
    for run in [gm.keys, gm.residual, gm.cols[s].run] {
        let damaged = store_with_damage(&store, run.start, &[0xff; 4]);
        let same = reopen(reader.groups().to_vec());
        for k in [0, 1] {
            assert_corrupt(get_row(&same, &damaged, &BufferCache::new(64), 0, &key(k)));
        }
    }
    // An index that claims a block shorter than its own offset table.
    let mut truncated = reader.groups().to_vec();
    truncated[0].residual.bytes = 6;
    let short = reopen(truncated);
    assert_corrupt(get_row(&short, &store, &cache, 0, &key(2)));
    assert!(short.read_group_rows(&store, &cache, 0).unwrap_err().is_corruption());

    damaged_repeated_columns_are_typed_corruption();
}

/// A repeated column's damage comes back as typed corruption from each of
/// its readers — the point read, the view's whole record and the scan's
/// fills — never as a panic or a short array: an item span that runs past
/// its block or its row, a definition byte out of range, and sibling columns
/// of one collection that disagree on a row's item count (which only a
/// reader of both can see: the record and the collection's fill).
fn damaged_repeated_columns_are_typed_corruption() {
    let declared = declared_pk();
    let mut schema = Schema::new();
    let mut entries = Vec::new();
    for i in 0..4u64 {
        let text =
            format!(r#"{{"id": {i}, "r": [{{"u": {i}}}, {{"t": 1.5, "u": 2}}], "q": [1, 2, 3]}}"#);
        let v = parse(&text).unwrap();
        observe(&mut schema, &v, true);
        entries.push((key(i), EntryKind::Record, tc_vector::encode(&v, Some(&declared))));
    }
    let codec = AmaxCodec::new(declared.clone());
    let store = new_store(256);
    let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
    let reader = ChunkReader::of(chunk.as_ref()).unwrap();
    let steps = tc_adm::path::parse_path;
    let t = reader.find_repeated(&steps("r[*].t")).unwrap();
    let u = reader.find_repeated(&steps("r[*].u")).unwrap();
    let q = reader.find_repeated(&steps("q[*]")).unwrap();
    let (r, depth) = reader.find_collection(&steps("r")).unwrap();
    assert_eq!(depth, 1);
    let cache = BufferCache::new(64);
    let mut view = reader.view(&store, &cache, 0);
    assert_eq!(view.present_items(t, 0).unwrap(), Some(&1.5f64.to_le_bytes()[..]));
    let mut doubles = vec![9.0];
    assert!(view.present_doubles(t, 0, &mut doubles).unwrap());
    assert_eq!(doubles, [1.5]);
    // `r[*].u` holds bigints: no `double` buffer reads it.
    assert!(view.present_doubles(u, 0, &mut doubles).unwrap_err().is_corruption());
    assert!(doubles.is_empty());
    assert_eq!(
        tc_adm::to_string(&view.collection_at(r, 1).unwrap()),
        r#"[{"u": 1}, {"t": 1.5, "u": 2}]"#
    );

    let reopen = |groups: Vec<GroupMeta>| {
        let counters = Arc::new(ColumnarCounters::default());
        let (columns, dict) = (reader.columns().to_vec(), reader.dict().cloned());
        ChunkReader::new(declared.clone(), counters, columns, groups, dict, reader.body_page())
    };
    let gm = &reader.groups()[0];
    // Row 0 of `r[*].t`: its span opens the block after the offset table —
    // `[header 3][absent, present][one double]`; the damaged definition
    // byte is the absent one, so the values still fill the row.
    let span = gm.cols[t].run.start + 4 * gm.rows as u64;
    let damages: [(&str, u64, &[u8]); 3] = [
        ("an item span past the block", gm.cols[t].run.start, &[0xff; 4]),
        ("an item span past the row", span, &[0x7f]),
        ("a definition byte out of range", span + 1, &[9]),
    ];
    for (what, at, bytes) in damages {
        let damaged = store_with_damage(&store, at, bytes);
        let same = reopen(reader.groups().to_vec());
        let cache = BufferCache::new(64);
        let err = get_row(&same, &damaged, &cache, 0, &key(0)).unwrap_err();
        assert!(err.is_corruption(), "{what}: point read: {err}");
        let mut view = same.view(&damaged, &cache, 0);
        assert!(view.record(0).unwrap_err().is_corruption(), "{what}: record");
        assert!(view.collection_at(r, 0).unwrap_err().is_corruption(), "{what}: collection");
        assert!(view.value_at(t, 0).unwrap_err().is_corruption(), "{what}: value");
        assert!(view.present_items(t, 0).unwrap_err().is_corruption(), "{what}: items");
        let err = view.present_doubles(t, 0, &mut Vec::new()).unwrap_err();
        assert!(err.is_corruption(), "{what}: doubles");
    }
    // `r[*].u` read from the block of `q[*]`: three items against two.
    let mut swapped = reader.groups().to_vec();
    swapped[0].cols[u].run = gm.cols[q].run;
    let same = reopen(swapped);
    let err = get_row(&same, &store, &cache, 0, &key(0)).unwrap_err();
    assert!(err.is_corruption() && err.to_string().contains("disagree"), "got {err}");
    let mut view = same.view(&store, &cache, 0);
    assert!(view.record(0).unwrap_err().is_corruption());
    assert!(view.collection_at(r, 0).unwrap_err().is_corruption());
}

#[test]
fn a_residual_id_the_dictionary_lacks_is_typed_corruption() {
    let declared = declared_pk();
    let mut schema = Schema::new();
    let mut entries = Vec::new();
    for i in 0..3u64 {
        let v = parse(&format!(r#"{{"id": {i}, "s": "value {i}", "rest": [{{"deep": [{i}]}}]}}"#));
        let v = v.unwrap();
        observe(&mut schema, &v, true);
        entries.push((key(i), EntryKind::Record, tc_vector::encode(&v, Some(&declared))));
    }
    let codec = AmaxCodec::new(declared.clone());
    let store = new_store(256);
    let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
    let reader = ChunkReader::of(chunk.as_ref()).unwrap();
    let cache = BufferCache::new(64);
    assert!(get_row(reader, &store, &cache, 0, &key(1)).unwrap().is_some());

    // The same blocks under a dictionary that stops before `deep`.
    let mut short = tc_schema::FieldNameDictionary::new();
    for name in ["s", "rest"] {
        short.get_or_insert(name);
    }
    assert!(short.is_prefix_of(reader.dict().unwrap()));
    let (columns, groups) = (reader.columns().to_vec(), reader.groups().to_vec());
    let counters = Arc::new(ColumnarCounters::default());
    let lagging = ChunkReader::new(declared, counters, columns, groups, Some(short), 0);
    let err = get_row(&lagging, &store, &cache, 0, &key(1)).unwrap_err();
    assert!(err.is_corruption() && err.to_string().contains("field name id"), "got {err}");
    assert!(lagging.read_group_rows(&store, &cache, 0).unwrap_err().is_corruption());
    let mut view = lagging.view(&store, &cache, 0);
    let path = tc_adm::path::parse_path("rest[*].deep");
    let mut eval = tc_vector::BatchPathEvaluator::new(&[path]);
    assert!(view.residual_values(1, &mut eval).unwrap_err().is_corruption());
}
