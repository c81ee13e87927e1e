//! The view of a stored row group reads a block when — and only when — a row
//! of it is first asked for, and accounts for it once.

mod common;

use tc_adm::{parse, Value};
use tc_columnar::{AmaxCodec, ChunkReader};
use tc_lsm::columnar::ColumnarCodec;
use tc_lsm::entry::EntryKind;
use tc_schema::Schema;
use tc_storage::buffer_cache::BufferCache;

use common::{declared_pk, key, new_store, observe};

#[test]
fn blocks_are_faulted_on_first_use_and_counted_once() {
    let declared = declared_pk();
    let mut schema = Schema::new();
    let mut entries = Vec::new();
    for i in 0..10u64 {
        let text =
            format!(r#"{{"id": {i}, "t": {}, "s": "row number {i}", "rest": [[{i}]]}}"#, 7 * i);
        let v = parse(&text).unwrap();
        observe(&mut schema, &v, true);
        entries.push((key(i), EntryKind::Record, tc_vector::encode(&v, Some(&declared))));
    }
    // Pages of 64 bytes: every block of a five-row group spans several.
    let codec = AmaxCodec::new(declared.clone()).with_group_rows(5);
    let store = new_store(64);
    let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
    let reader = ChunkReader::of(chunk.as_ref()).unwrap();
    let cache = BufferCache::new(256);
    let counters = reader.counters();
    let (t, s) =
        (reader.find_column(&["t".into()]).unwrap(), reader.find_column(&["s".into()]).unwrap());
    let gm = &reader.groups()[1];
    assert!(gm.residual.num_pages(64) > 1 && gm.cols[s].run.num_pages(64) > 1);
    // The group's blocks are byte ranges of the body, back to back: what a
    // view reads of a block is its range, whatever pages that lies on.
    let runs: Vec<_> =
        [gm.keys, gm.residual].into_iter().chain(gm.cols.iter().map(|c| c.run)).collect();
    assert_eq!(runs[0].start, reader.groups()[0].cols.last().unwrap().run.end());
    assert!(runs.windows(2).all(|pair| pair[0].end() == pair[1].start));
    assert!(runs.iter().any(|run| run.start % 64 != 0), "blocks start mid-page");

    let mut view = reader.view(&store, &cache, 1);
    assert_eq!((counters.columns_faulted(), view.bytes_read()), (0, 0), "opening reads nothing");

    let mut touched = 0u64;
    let mut expect =
        |view: &tc_columnar::GroupView<'_>, run: tc_columnar::chunk::PageRun, blocks| {
            touched += run.bytes as u64;
            assert_eq!((counters.columns_faulted(), view.bytes_read()), (blocks, touched));
        };
    // Every row of one column, twice over and out of order: one block.
    for i in [0, 1, 2, 3, 4, 2, 0, 4] {
        assert_eq!(view.i64_at(t, i).unwrap(), Some(7 * (5 + i as i64)));
    }
    expect(&view, gm.cols[t].run, 1);
    for i in [4, 0] {
        assert_eq!(view.value_at(s, i).unwrap(), Value::String(format!("row number {}", 5 + i)));
        assert_eq!(
            view.stored_value(t, i).unwrap().1,
            Some(&(7 * (5 + i as i64)).to_le_bytes()[..])
        );
    }
    expect(&view, gm.cols[s].run, 2);
    for i in 0..view.rows() {
        let rest = tc_vector::decode(view.residual_row(i).unwrap(), Some(&declared), reader.dict())
            .unwrap();
        let nested = Value::Array(vec![Value::Array(vec![Value::Int64(5 + i as i64)])]);
        assert_eq!(rest.get_field("rest"), Some(&nested), "nested arrays stay in the residual");
    }
    expect(&view, gm.residual, 3);

    // The `id` column was never asked for, so never read; another view of
    // the group starts over.
    let again = reader.view(&store, &cache, 1);
    assert_eq!((counters.columns_faulted(), again.bytes_read()), (3, 0));
}
