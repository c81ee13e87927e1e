//! Format 4's body: a component is one byte stream — every group's blocks
//! back to back, the index blob last — so the only padding is the last
//! page's; and a sensor report's readings are repeated columns.

mod common;

use tc_adm::{parse, Value};
use tc_columnar::chunk::{serialize_index, PageRun};
use tc_columnar::{AmaxCodec, ChunkReader};
use tc_lsm::columnar::ColumnarCodec;
use tc_lsm::entry::EntryKind;
use tc_schema::Schema;

use common::{declared_pk, key, new_store, observe};

/// A sensor report in miniature: a handful of typed columns and an array of
/// readings, a repeated column.
fn report(i: u64) -> Value {
    let readings: Vec<String> = (0..40).map(|r| (i * 100 + r).to_string()).collect();
    parse(&format!(
        r#"{{"id": {i}, "sensor": {}, "battery": {}.5, "ok": true, "site": "site-{}",
            "status": {{"level": {}}}, "readings": [{}]}}"#,
        i % 9,
        i % 50,
        i % 4,
        i % 3,
        readings.join(", ")
    ))
    .unwrap()
}

/// Payload bytes ÷ (pages × page size) of `rows` reports built into groups of
/// `group_rows`, and the number of groups.
fn fill_factor(rows: u64, group_rows: usize) -> (f64, usize) {
    const PAGE: usize = 4096;
    let declared = declared_pk();
    let mut schema = Schema::new();
    let entries: Vec<_> = (0..rows)
        .map(|i| {
            observe(&mut schema, &report(i), true);
            (key(i), EntryKind::Record, tc_vector::encode(&report(i), Some(&declared)))
        })
        .collect();
    let store = new_store(PAGE);
    let codec = AmaxCodec::new(declared).with_group_rows(group_rows);
    let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
    let reader = ChunkReader::of(chunk.as_ref()).unwrap();

    // Every block is a byte range of the body, each starting where the one
    // before it ends; the index blob follows the last.
    let runs: Vec<PageRun> = reader
        .groups()
        .iter()
        .flat_map(|g| [g.keys, g.residual].into_iter().chain(g.cols.iter().map(|c| c.run)))
        .collect();
    assert_eq!(runs[0].start, 0);
    assert!(runs.windows(2).all(|pair| pair[0].end() == pair[1].start));
    let index = serialize_index(reader.columns(), reader.groups()).len() as u64;
    let payload = runs.last().unwrap().end() + index;
    assert_eq!(payload, runs.iter().map(|run| run.bytes as u64).sum::<u64>() + index);
    assert_eq!(store.num_pages(), payload.div_ceil(PAGE as u64), "padding on the last page only");
    assert_eq!(codec.counters().pages_written(), store.num_pages());
    (payload as f64 / (store.num_pages() * PAGE as u64) as f64, reader.groups().len())
}

#[test]
fn a_flush_sized_component_fills_its_pages() {
    // One 90-row group, eight blocks: a block a page, the layout before this
    // one, spent 17 pages on these 40 KB.
    let (fill, groups) = fill_factor(90, 1024);
    assert_eq!(groups, 1);
    assert!(fill >= 0.9, "fill factor {fill}");
}

#[test]
fn a_three_group_component_fills_its_pages() {
    let (fill, groups) = fill_factor(90, 30);
    assert_eq!(groups, 3);
    assert!(fill >= 0.9, "fill factor {fill}");
}

/// A sensor report as the generator writes one: identity and status scalars
/// and 118 readings of a double and a bigint.
fn sensor_report(i: u64) -> Value {
    let readings: Vec<String> = (0..118)
        .map(|r| format!(r#"{{"temp": {}.25, "timestamp": {}}}"#, (i * 7 + r) % 40, i * 60 + r))
        .collect();
    parse(&format!(
        r#"{{"id": {i}, "sensor_id": {}, "report_time": {}, "status": {{"battery_level": {}.5,
            "error_count": {}}}, "readings": [{}]}}"#,
        i % 1000,
        i * 60_000,
        i % 100,
        i % 10,
        readings.join(", ")
    ))
    .unwrap()
}

#[test]
fn readings_are_repeated_columns_and_the_body_shrinks() {
    const ROWS: u64 = 300;
    let declared = declared_pk();
    let mut schema = Schema::new();
    let entries: Vec<_> = (0..ROWS)
        .map(|i| {
            let record = sensor_report(i);
            observe(&mut schema, &record, true);
            (key(i), EntryKind::Record, tc_vector::encode(&record, Some(&declared)))
        })
        .collect();
    let store = new_store(16 * 1024);
    let codec = AmaxCodec::new(declared).with_group_rows(128);
    let chunk = codec.build_chunk(&store, &entries, Some(&schema.serialize())).unwrap();
    let reader = ChunkReader::of(chunk.as_ref()).unwrap();
    for path in ["readings[*].temp", "readings[*].timestamp"] {
        let c = reader.find_repeated(&tc_adm::path::parse_path(path)).unwrap();
        assert!(reader.groups().iter().all(|g| g.cols[c].spilled == 0), "{path} spilled");
    }
    // Every block and the index, per row: format 3, which kept the readings
    // in the residual and opened each key, residual and string row with its
    // length, spent 2577 bytes a row on these reports.
    let blocks: u64 = reader
        .groups()
        .iter()
        .flat_map(|g| [g.keys, g.residual].into_iter().chain(g.cols.iter().map(|c| c.run)))
        .map(|run| run.bytes as u64)
        .sum();
    let index = serialize_index(reader.columns(), reader.groups()).len() as u64;
    assert_eq!((blocks + index) / ROWS, 2229, "body bytes per row");
}
