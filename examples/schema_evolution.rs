//! Schema evolution under fire: type changes, deletes, upserts, crashes.
//!
//! The data scientist story from the paper's introduction: a feed whose
//! structure drifts over time — new fields appear, a field changes type,
//! old records get deleted or upserted — while the system stays online and
//! the inferred schema tracks reality. Ends with a crash and recovery,
//! demonstrating §3.1.2: invalid components are discarded, the newest valid
//! schema is reloaded, and the WAL replays.
//!
//! Run with: `cargo run --example schema_evolution`

use std::sync::Arc;

use asterix_tc::prelude::*;

fn schema_fields(ds: &Dataset) -> Vec<String> {
    let schema = ds.schema_snapshot().expect("inferred");
    let asterix_tc::schema::SchemaNode::Object { fields, .. } = schema.node(schema.root()) else {
        unreachable!()
    };
    let mut names: Vec<String> =
        fields.iter().map(|(fid, _)| schema.field_name(*fid).unwrap_or("?").to_owned()).collect();
    names.sort();
    names
}

fn main() -> Result<(), AdmError> {
    let config = DatasetConfig::new("Events", "id")
        .with_format(StorageFormat::Inferred)
        .with_primary_key_index(true);
    let device = Arc::new(Device::new(DeviceProfile::NVME_SSD));
    let cache = Arc::new(BufferCache::new(2048));
    let events = Dataset::new(config, device, cache);
    let mut writer = events.writer();

    // Era 1: events carry a numeric `temperature`.
    for i in 0..100 {
        writer.insert(&parse(&format!(
            r#"{{"id": {i}, "source": "probe-{}", "temperature": {}}}"#,
            i % 4,
            15 + i % 20
        ))?)?;
    }
    events.flush().unwrap();
    println!("era 1 fields: {:?}", schema_fields(&events));

    // Era 2: the producer starts sending `temperature` as a string and adds
    // a `unit` field. No DDL, no downtime — the schema grows a union.
    for i in 100..200 {
        writer.insert(&parse(&format!(
            r#"{{"id": {i}, "source": "probe-{}", "temperature": "{}C", "unit": "celsius"}}"#,
            i % 4,
            15 + i % 20
        ))?)?;
    }
    events.flush().unwrap();
    println!("era 2 fields: {:?}", schema_fields(&events));

    // Era 3: the era-2 records are re-keyed by an upsert back to numeric;
    // the anti-schemas decrement the string branch away.
    for i in 100..200 {
        writer.upsert(&parse(&format!(
            r#"{{"id": {i}, "source": "probe-{}", "temperature": {}, "unit": "celsius"}}"#,
            i % 4,
            15 + i % 20
        ))?)?;
    }
    events.flush().unwrap();
    let schema = events.schema_snapshot().unwrap();
    let (_, temp) = schema.lookup_field(schema.root(), "temperature").unwrap();
    let still_string = schema.node(temp).matches_tag(TypeTag::String);
    println!("era 3: temperature matches string? {still_string}  (union collapsed back)");
    assert!(!still_string, "the upserts' anti-schemas must drop the string branch");

    // Crash mid-stream: unflushed records live only in the WAL.
    for i in 200..250 {
        writer.insert(&parse(&format!(r#"{{"id": {i}, "burst": true}}"#))?)?;
    }
    drop(writer);
    println!("\n-- crash! --");
    events.simulate_crash();
    let (removed, replayed) = events.recover().unwrap();
    println!("recovery: {removed} invalid components removed, {replayed} WAL ops replayed");
    events.flush().unwrap();
    println!("post-recovery fields: {:?}", schema_fields(&events));
    println!("record count: {}", events.scan_values()?.len());
    assert_eq!(events.scan_values()?.len(), 250);
    Ok(())
}
