//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;
use std::sync::Arc;

use asterix_tc::prelude::*;
use tc_adm::path::eval_path;
use tc_schema::Schema;

// ---------------------------------------------------------------------
// Value generator: arbitrary ADM trees (bounded depth/size)
// ---------------------------------------------------------------------

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        any::<i8>().prop_map(Value::Int8),
        any::<i16>().prop_map(Value::Int16),
        any::<i32>().prop_map(Value::Int32),
        any::<i64>().prop_map(Value::Int64),
        any::<f32>().prop_map(Value::Float),
        any::<f64>().prop_map(Value::Double),
        "[a-zA-Z0-9 _#@!]{0,24}".prop_map(Value::String),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Binary),
        (-50_000i32..50_000).prop_map(Value::Date),
        (0i32..86_400_000).prop_map(Value::Time),
        // Text roundtrip is defined for datetimes whose civil conversion
        // fits i64 milliseconds (±~100k years); binary formats take any i64.
        (-4_000_000_000_000_000i64..4_000_000_000_000_000).prop_map(Value::DateTime),
        any::<i64>().prop_map(Value::Duration),
        any::<[u8; 16]>().prop_map(Value::Uuid),
        (any::<f64>(), any::<f64>()).prop_map(|(x, y)| Value::Point(x, y)),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Multiset),
            arb_object_from(inner),
        ]
    })
}

fn arb_object_from(inner: impl Strategy<Value = Value> + 'static) -> impl Strategy<Value = Value> {
    proptest::collection::btree_map("[a-z]{1,8}", inner, 0..6)
        .prop_map(|m| Value::Object(m.into_iter().collect()))
}

/// A top-level record: an object with an integer `id` plus arbitrary fields.
fn arb_record() -> impl Strategy<Value = Value> {
    (0i64..1_000_000, arb_object_from(arb_value())).prop_map(|(id, obj)| {
        let Value::Object(mut fields) = obj else { unreachable!() };
        fields.retain(|(n, _)| n != "id");
        fields.insert(0, ("id".to_string(), Value::Int64(id)));
        Value::Object(fields)
    })
}

/// A sensors-shaped record: a sensor id and the collections the columnar
/// layout shreds into repeated columns — an array of doubles, one of strings
/// and `readings`, an array of flat objects — empty, `null`, with `null`
/// items and missing fields, and now and then an item of another type. A
/// reading may carry a `unit`, a field that only the newer components know
/// (the stale versions are written without it).
fn arb_sensor_record() -> impl Strategy<Value = Value> {
    fn maybe(s: impl Strategy<Value = Value> + 'static) -> BoxedStrategy<Option<Value>> {
        prop_oneof![1 => Just(None), 5 => s.prop_map(Some)].boxed()
    }
    // Halves only: sums of them are exact, so every engine's average is the
    // same double whatever order it adds in.
    let half = || (-40i64..80).prop_map(|k| Value::Double(k as f64 / 2.0));
    let list = |item: BoxedStrategy<Value>| {
        prop_oneof![
            8 => proptest::collection::vec(item, 0..5).prop_map(Value::Array),
            1 => Just(Value::Null),
        ]
    };
    let temps = list(prop_oneof![8 => half(), 1 => Just(Value::Null)].boxed());
    let tags = list(
        prop_oneof![6 => "[a-d]{0,3}".prop_map(Value::String), 1 => Just(Value::Null)].boxed(),
    );
    let reading = (
        maybe(prop_oneof![8 => half(), 1 => Just(Value::Null)]),
        maybe((0i64..1_000).prop_map(Value::Int64)),
        prop_oneof![3 => Just(None), 1 => "[CF]".prop_map(|u| Some(Value::String(u)))],
    )
        .prop_map(|(temp, timestamp, unit)| {
            let fields = [("temp", temp), ("timestamp", timestamp), ("unit", unit)];
            Value::Object(
                fields.into_iter().filter_map(|(n, v)| Some((n.to_string(), v?))).collect(),
            )
        });
    let item = prop_oneof![
        16 => reading,
        2 => Just(Value::Null),
        1 => Just(Value::String("offline".into())),
    ];
    let readings = list(item.boxed());
    (0i64..1_000_000, 0i64..4, maybe(temps), maybe(tags), maybe(readings)).prop_map(
        |(id, sensor, temps, tags, readings)| {
            let fields = [
                ("id", Some(Value::Int64(id))),
                ("sensor_id", Some(Value::Int64(sensor))),
                ("temps", temps),
                ("tags", tags),
                ("readings", readings),
            ];
            Value::Object(
                fields.into_iter().filter_map(|(n, v)| Some((n.to_string(), v?))).collect(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Text printer/parser roundtrip.
    #[test]
    fn adm_text_roundtrip(v in arb_value()) {
        let text = asterix_tc::adm::to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The baseline ADM physical format roundtrips.
    #[test]
    fn adm_format_roundtrip(v in arb_record()) {
        let bytes = asterix_tc::adm::adm_format::encode_record(&v, None).unwrap();
        let back = asterix_tc::adm::adm_format::decode_record(&bytes, None).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The vector-based format roundtrips (uncompacted).
    #[test]
    fn vector_format_roundtrip(v in arb_record()) {
        let bytes = asterix_tc::vector::encode(&v, None);
        let back = asterix_tc::vector::decode(&bytes, None, None).unwrap();
        prop_assert_eq!(back, v);
    }

    /// infer_and_compact preserves the value exactly (decoded through the
    /// schema dictionary) and never grows the record.
    #[test]
    fn compaction_preserves_value(records in proptest::collection::vec(arb_record(), 1..6)) {
        let mut schema = Schema::new();
        for v in &records {
            let raw = asterix_tc::vector::encode(v, None);
            let compacted =
                asterix_tc::vector::infer_and_compact(&raw, &mut schema).unwrap();
            prop_assert!(compacted.len() <= raw.len());
            let back =
                asterix_tc::vector::decode(&compacted, None, Some(schema.dict())).unwrap();
            prop_assert_eq!(&back, v);
        }
    }

    /// Observing then removing the same records restores the empty schema
    /// (anti-schema correctness): the flush walk observes each record, and
    /// the anti-schema walk removes it again from its stored bytes, the
    /// compacted ones or the uncompacted ones, alternately.
    #[test]
    fn schema_observe_remove_cancels(records in proptest::collection::vec(arb_record(), 1..8)) {
        let mut schema = Schema::new();
        let declared = DatasetConfig::new("records", "id").datatype;
        let stored: Vec<(Vec<u8>, Vec<u8>)> = records
            .iter()
            .map(|v| {
                let raw = asterix_tc::vector::encode(v, Some(&declared));
                let compacted = asterix_tc::vector::infer_and_compact(&raw, &mut schema).unwrap();
                (raw, compacted)
            })
            .collect();
        for (i, (raw, compacted)) in stored.iter().enumerate() {
            let bytes = if i % 2 == 0 { compacted } else { raw };
            asterix_tc::vector::remove_anti_schema(bytes, &mut schema).unwrap();
        }
        prop_assert_eq!(schema.record_count(), 0);
        prop_assert_eq!(schema.num_live_nodes(), 1);
    }

    /// Schema inference is monotone: after more records, the schema covers
    /// the earlier one.
    #[test]
    fn schema_growth_is_monotone(records in proptest::collection::vec(arb_record(), 2..6)) {
        let mut schema = Schema::new();
        let skip = |name: &str| name == "id";
        let mut prev = schema.clone();
        for v in &records {
            let Value::Object(fields) = v else { unreachable!() };
            schema.observe_record(fields, &skip).unwrap();
            prop_assert!(schema.is_superset_of(&prev));
            prev = schema.clone();
        }
        // Serialization roundtrip preserves coverage both ways.
        let back = Schema::deserialize(&schema.serialize()).unwrap();
        prop_assert!(back.is_superset_of(&schema) && schema.is_superset_of(&back));
    }

    /// Snappy roundtrips arbitrary byte strings, including ones that cross
    /// its 64 KiB block boundaries.
    #[test]
    fn snappy_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..140_000)) {
        let compressed = asterix_tc::compress::snappy::compress(&data);
        let back = asterix_tc::compress::snappy::decompress(&compressed, data.len()).unwrap();
        prop_assert_eq!(back, data);
    }

    /// getValues matches eval_path over the decoded value for arbitrary
    /// records and paths of field, index and wildcard steps — zero to two
    /// wildcards, indices in and out of range — over raw and compacted
    /// records, and so does `RecordDecoder::batch` for the `Open` and
    /// `Inferred` formats, into columns that take typed buffers.
    #[test]
    fn get_values_matches_eval_path(
        v in arb_record(),
        walks in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<usize>()), 0..5),
            1..4,
        ),
    ) {
        let mut paths: Vec<tc_adm::path::Path> = walks.iter().map(|w| path_into(&v, w)).collect();
        paths.push(tc_adm::path::parse_path("id"));
        let expected: Vec<Value> = paths.iter().map(|p| eval_path(&v, p)).collect();

        let raw = asterix_tc::vector::encode(&v, None);
        let got = asterix_tc::vector::get_values(&raw, &paths, None, None).unwrap();
        prop_assert_eq!(&got, &expected);
        let mut schema = Schema::new();
        let compacted = asterix_tc::vector::infer_and_compact(&raw, &mut schema).unwrap();
        let got =
            asterix_tc::vector::get_values(&compacted, &paths, None, Some(schema.dict())).unwrap();
        prop_assert_eq!(&got, &expected);

        use asterix_tc::core::RecordDecoder;
        let declared = DatasetConfig::new("records", "id").datatype;
        let adm = asterix_tc::adm::adm_format::encode_record(&v, Some(&declared)).unwrap();
        let raw = asterix_tc::vector::encode(&v, Some(&declared));
        let mut schema = Schema::new();
        let compacted = asterix_tc::vector::infer_and_compact(&raw, &mut schema).unwrap();
        let dict = Some(Arc::new(schema.dict().clone()));
        for (format, bytes, dict) in [
            (StorageFormat::Open, &adm, None),
            (StorageFormat::Inferred, &compacted, dict),
        ] {
            let mut batch = RecordDecoder::new(format, declared.clone(), dict).batch(&paths);
            let mut cols = vec![asterix_tc::vector::Column::new(true); paths.len()];
            batch.append(bytes, &mut cols).unwrap();
            let got: Vec<Value> = cols.iter_mut().map(|c| c.take(0)).collect();
            prop_assert_eq!(&got, &expected, "{:?}", format);
        }
    }
}

/// A path into `v` built from `walk`: each `(kind, n)` picks the next step
/// from the value the path has reached — one of an object's fields, a
/// wildcard (at most two per path) or an index in or just out of range of a
/// collection — or, past the value's end, a step that finds nothing.
fn path_into(v: &Value, walk: &[(u8, usize)]) -> tc_adm::path::Path {
    use tc_adm::path::PathStep;
    let mut path = Vec::new();
    let mut at = Some(v);
    let mut wildcards = 0;
    for &(kind, n) in walk {
        let step = match at {
            Some(Value::Object(fields)) if !fields.is_empty() && kind % 5 != 0 => {
                let (name, child) = &fields[n % fields.len()];
                at = Some(child);
                PathStep::field(name.as_str())
            }
            Some(Value::Array(items) | Value::Multiset(items))
                if kind % 2 == 0 && wildcards < 2 =>
            {
                wildcards += 1;
                at = items.get(n % items.len().max(1));
                PathStep::Wildcard
            }
            Some(Value::Array(items) | Value::Multiset(items)) => {
                let i = n % (items.len() + 2);
                at = items.get(i);
                PathStep::Index(i)
            }
            _ => {
                at = None;
                match kind % 3 {
                    0 if wildcards < 2 => {
                        wildcards += 1;
                        PathStep::Wildcard
                    }
                    1 => PathStep::Index(n % 3),
                    _ => PathStep::field("zz"),
                }
            }
        };
        path.push(step);
    }
    path
}

// ---------------------------------------------------------------------
// LSM model check: the tree behaves like a BTreeMap under arbitrary
// interleavings of insert / delete / upsert / flush / merge / crash+recover
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LsmOp {
    Insert(u8, u16),
    Delete(u8),
    Upsert(u8, u16),
    Flush,
    Merge,
    CrashRecover,
}

fn arb_op() -> impl Strategy<Value = LsmOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| LsmOp::Insert(k, v)),
        2 => any::<u8>().prop_map(LsmOp::Delete),
        2 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| LsmOp::Upsert(k, v)),
        1 => Just(LsmOp::Flush),
        1 => Just(LsmOp::Merge),
        1 => Just(LsmOp::CrashRecover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Background-flush execution is observationally identical to the
    /// synchronous one: for any op sequence with explicit flush points, a
    /// dataset whose flushes run on the maintenance worker (awaited at each
    /// flush point so the component boundaries line up) produces the same
    /// `scan_values()`, the same component count/stats invariants, and the
    /// same schema record count as a dataset flushing inline — while a
    /// third dataset that only quiesces at the END (letting flush jobs
    /// coalesce freely against the writer) still yields identical data.
    #[test]
    fn background_flush_equals_synchronous(ops in proptest::collection::vec(arb_op(), 1..60)) {
        fn make(background: bool) -> Dataset {
            // Large budget: only the explicit flush points flush, so both
            // executions see identical component boundaries.
            let config = DatasetConfig::new("model", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(64 * 1024 * 1024)
                .with_merge_policy(MergePolicy::NoMerge)
                .with_background_maintenance(background);
            let device = Arc::new(Device::new(DeviceProfile::RAM));
            let cache = Arc::new(BufferCache::new(1024));
            Dataset::new(config, device, cache)
        }
        let sync = make(false);
        let awaited = make(true);
        let coalesced = make(true);
        let (mut sync_w, mut awaited_w, mut coalesced_w) =
            (sync.writer(), awaited.writer(), coalesced.writer());

        for op in &ops {
            match op {
                LsmOp::Insert(k, v) | LsmOp::Upsert(k, v) => {
                    let record = parse(&format!(r#"{{"id": {k}, "v": {v}}}"#)).unwrap();
                    sync_w.upsert(&record).unwrap();
                    awaited_w.upsert(&record).unwrap();
                    coalesced_w.upsert(&record).unwrap();
                }
                LsmOp::Delete(k) => {
                    let a = sync_w.delete(*k as i64).unwrap();
                    let b = awaited_w.delete(*k as i64).unwrap();
                    let c = coalesced_w.delete(*k as i64).unwrap();
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(a, c);
                }
                LsmOp::Flush | LsmOp::Merge | LsmOp::CrashRecover => {
                    // All three structural ops act as flush points here
                    // (merge/crash need their own determinism and are
                    // covered by dataset_matches_model below).
                    sync.flush().unwrap();
                    awaited.flush_async().unwrap();
                    awaited.await_quiescent();
                    coalesced.flush_async().unwrap(); // NOT awaited: jobs coalesce
                }
            }
        }
        sync.flush().unwrap();
        awaited.flush_async().unwrap();
        awaited.await_quiescent();
        coalesced.await_quiescent();
        coalesced.flush().unwrap();

        // Lock-step execution: identical data AND identical lifecycle.
        prop_assert_eq!(awaited.scan_values().unwrap(), sync.scan_values().unwrap());
        let (s, a) = (sync.lsm_stats(), awaited.lsm_stats());
        prop_assert_eq!(a.flushes, s.flushes, "same flush points ⇒ same flush count");
        prop_assert_eq!(a.entries_flushed, s.entries_flushed);
        prop_assert_eq!(
            awaited.primary().components().len(),
            sync.primary().components().len()
        );
        prop_assert_eq!(
            awaited.schema_snapshot().unwrap().record_count(),
            sync.schema_snapshot().unwrap().record_count()
        );
        prop_assert_eq!(a.writer_stall_nanos, 0, "background writer never stalls");

        // Coalesced execution: component boundaries may differ, but the
        // observable data and schema accounting must not.
        // (No claim on coalesced entries_flushed vs sync: a worker freeze
        // landing mid-window splits windows as legally as it merges them.)
        prop_assert_eq!(coalesced.scan_values().unwrap(), sync.scan_values().unwrap());
        prop_assert_eq!(
            coalesced.schema_snapshot().unwrap().record_count(),
            sync.schema_snapshot().unwrap().record_count()
        );
    }

    #[test]
    fn dataset_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let config = DatasetConfig::new("model", "id")
            .with_format(StorageFormat::Inferred)
            .with_memtable_budget(8 * 1024)
            .with_merge_policy(MergePolicy::NoMerge);
        let device = Arc::new(Device::new(DeviceProfile::NVME_SSD));
        let cache = Arc::new(BufferCache::new(1024));
        let ds = Dataset::new(config, device, cache);
        let mut writer = ds.writer();
        let mut model: std::collections::BTreeMap<i64, u16> = Default::default();

        for op in ops {
            match op {
                LsmOp::Insert(k, v) | LsmOp::Upsert(k, v) => {
                    let record = parse(&format!(r#"{{"id": {k}, "v": {v}}}"#)).unwrap();
                    writer.upsert(&record).unwrap();
                    model.insert(k as i64, v);
                }
                LsmOp::Delete(k) => {
                    let existed = writer.delete(k as i64).unwrap();
                    let model_existed = model.remove(&(k as i64)).is_some();
                    prop_assert_eq!(existed, model_existed);
                }
                LsmOp::Flush => ds.flush().unwrap(),
                LsmOp::Merge => {
                    ds.flush().unwrap();
                    ds.force_full_merge().unwrap();
                }
                LsmOp::CrashRecover => {
                    // Crash is only lossless if everything is WAL-covered —
                    // which it is (WAL enabled by default).
                    ds.simulate_crash();
                    ds.recover().unwrap();
                }
            }
        }
        // Full scan equals the model.
        let got: Vec<(i64, i64)> = ds
            .scan_values()
            .unwrap()
            .into_iter()
            .map(|r| {
                (
                    r.get_field("id").unwrap().as_i64().unwrap(),
                    r.get_field("v").unwrap().as_i64().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(i64, i64)> =
            model.iter().map(|(k, v)| (*k, *v as i64)).collect();
        prop_assert_eq!(got, expected);
        // Spot point lookups, including absent keys.
        for k in [0i64, 17, 255] {
            prop_assert_eq!(ds.get(k).unwrap().is_some(), model.contains_key(&k));
        }
    }
}

// ---------------------------------------------------------------------
// Anti-schema invariant: after every flush, the published schema is the
// schema of the live records — no more, no less (§3.2.2)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SchemaOp {
    /// Write a version of key `k`: an insert for an absent key, else an
    /// upsert.
    Write(u8, Value),
    Delete(u8),
    Flush,
    /// A flush whose first page write fails: the frozen memtable stays, so
    /// the old versions the next writes retire sit in it.
    FailedFlush,
    Merge,
    CrashRecover,
}

/// A field value whose type changes from version to version: scalars,
/// nested objects and arrays.
fn arb_shifting_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        (0i64..4).prop_map(Value::Int64),
        "[ab]{0,2}".prop_map(Value::String),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        (0i8..3).prop_map(|i| Value::Double(i as f64 / 2.0)),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
            proptest::collection::btree_map(
                prop_oneof![Just("x"), Just("y")].prop_map(String::from),
                inner,
                0..3,
            )
            .prop_map(|m| Value::Object(m.into_iter().collect())),
        ]
    })
}

/// Fields from a small pool, so versions of a key share names with changed
/// types; `ts` is declared (an optional integer) and never inferred.
fn arb_shifting_fields() -> impl Strategy<Value = Vec<(String, Value)>> {
    let name = prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(String::from);
    (
        proptest::collection::btree_map(name, arb_shifting_value(), 0..4),
        prop_oneof![Just(None), (0i64..100).prop_map(Some)],
    )
        .prop_map(|(fields, ts)| {
            let mut fields: Vec<(String, Value)> = fields.into_iter().collect();
            if let Some(ts) = ts {
                fields.push(("ts".to_string(), Value::Int64(ts)));
            }
            fields
        })
}

fn arb_schema_op() -> impl Strategy<Value = SchemaOp> {
    prop_oneof![
        6 => (0u8..12, arb_shifting_fields()).prop_map(|(k, mut fields)| {
            fields.insert(0, ("id".to_string(), Value::Int64(k as i64)));
            SchemaOp::Write(k, Value::Object(fields))
        }),
        2 => (0u8..12).prop_map(SchemaOp::Delete),
        2 => Just(SchemaOp::Flush),
        1 => Just(SchemaOp::FailedFlush),
        1 => Just(SchemaOp::Merge),
        1 => Just(SchemaOp::CrashRecover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heterogeneous versions are written, upserted and deleted while their
    /// old versions sit in the active memtable, the frozen memtable of a
    /// failed flush, or on disk, across merges and crashes. After every
    /// flush the published schema covers the schema of the live records
    /// and is covered by it, with the same record count, in both formats
    /// that infer.
    #[test]
    fn published_schema_is_the_live_records_schema(
        ops in proptest::collection::vec(arb_schema_op(), 1..48),
    ) {
        use tc_storage::{FaultKind, FaultPlan, IoOp};

        let int = |name: &str, optional| tc_adm::datatype::FieldDef {
            name: name.to_string(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional,
        };
        let declared = ObjectType::open(vec![int("id", false), int("ts", true)]);
        for format in [StorageFormat::Inferred, StorageFormat::Columnar] {
            let config = DatasetConfig::new("anti", "id")
                .with_datatype(declared.clone())
                .with_format(format)
                .with_memtable_budget(4 * 1024)
                .with_merge_policy(MergePolicy::NoMerge);
            let device = Arc::new(Device::new(DeviceProfile::RAM));
            let ds = Dataset::new(config, Arc::clone(&device), Arc::new(BufferCache::new(1024)));
            let mut live: std::collections::BTreeSet<u8> = Default::default();
            let mut flushes = 0;
            for op in &ops {
                match op {
                    SchemaOp::Write(k, record) => {
                        let mut w = ds.writer();
                        if live.insert(*k) { w.insert(record) } else { w.upsert(record) }.unwrap();
                    }
                    SchemaOp::Delete(k) => {
                        prop_assert_eq!(ds.writer().delete(*k as i64).unwrap(), live.remove(k));
                    }
                    SchemaOp::FailedFlush => {
                        let fail = FaultPlan::new(1).fail_nth(IoOp::Write, 1, FaultKind::Transient);
                        device.set_fault_plan(fail);
                        let flushed = ds.primary().flush();
                        device.clear_fault_plan();
                        prop_assert!(flushed.is_err() || ds.primary().memtable_len() == 0);
                    }
                    SchemaOp::CrashRecover => {
                        ds.simulate_crash();
                        ds.recover().unwrap();
                    }
                    SchemaOp::Flush | SchemaOp::Merge => {
                        // Twice: a frozen memtable left by a failed flush is
                        // resumed alone, the active one flushes after it.
                        ds.flush().unwrap();
                        ds.flush().unwrap();
                        prop_assert_eq!(ds.primary().memtable_len(), 0);
                        if matches!(op, SchemaOp::Merge) {
                            ds.force_full_merge().unwrap();
                        }
                        let records = ds.scan_values().unwrap();
                        let mut expected = Schema::new();
                        for record in &records {
                            let Value::Object(fields) = record else { unreachable!() };
                            let skip = |name: &str| declared.field_index(name).is_some();
                            expected.observe_record(fields, &skip).unwrap();
                        }
                        let published = ds.schema_snapshot().unwrap();
                        prop_assert_eq!(records.len(), live.len());
                        prop_assert_eq!(published.record_count(), records.len() as u64);
                        prop_assert!(
                            published.is_superset_of(&expected),
                            "{:?}, flush {}: the published schema lacks a live shape", format, flushes
                        );
                        prop_assert!(
                            expected.is_superset_of(&published),
                            "{:?}, flush {}: the published schema kept a retired shape", format, flushes
                        );
                        flushes += 1;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The AMAX columnar format is observationally equivalent to the vector
    /// formats: arbitrary nested records (every scalar type, NaN doubles,
    /// type-mixed fields that spill, arrays, deep objects) or sensors-shaped
    /// ones (the collections of repeated columns, whose items' fields evolve
    /// between components), ingested under
    /// {Inferred, VectorUncompacted, Columnar} × {sync, background}, answer
    /// point lookups identically while stale versions, newer versions and
    /// anti-matter still sit in separate unmerged components (and the
    /// memtable), and once flushed and fully merged produce identical
    /// scans, point lookups, and batched query rows — including the
    /// columnar zero-pivot scan whenever the resting partition lets it fire.
    #[test]
    fn columnar_format_is_observationally_equivalent(
        records in prop_oneof![
            proptest::collection::vec(arb_record(), 1..10),
            proptest::collection::vec(arb_sensor_record(), 1..10),
        ],
        delete_mask in proptest::collection::vec(any::<bool>(), 10),
    ) {
        use tc_query::exec::{execute, Engine, ExecOptions};
        use tc_query::agg::{Agg, AggFn};
        use tc_query::{AccessStrategy, CmpOp, Expr, Op, Query, ScanSpec};

        /// Ingest without converging: a stale version of every record in
        /// flushed components, then the real versions and the deletes on
        /// top of them (in later components and the memtable).
        fn ingest(
            format: StorageFormat,
            background: bool,
            records: &[Value],
            delete_mask: &[bool],
        ) -> Dataset {
            let config = DatasetConfig::new("equiv", "id")
                .with_format(format)
                .with_memtable_budget(8 * 1024) // frequent flushes
                .with_merge_policy(MergePolicy::NoMerge)
                .with_background_maintenance(background);
            let device = Arc::new(Device::new(DeviceProfile::RAM));
            let cache = Arc::new(BufferCache::new(1024));
            let ds = Dataset::new(config, device, cache);
            let mut w = ds.writer();
            for r in records {
                let Value::Object(mut stale) = r.clone() else { unreachable!() };
                stale.push(("stale_version".to_string(), Value::Boolean(true)));
                // The readings' `unit` appears between two components.
                if let Some((_, Value::Array(readings))) =
                    stale.iter_mut().find(|(n, _)| n == "readings")
                {
                    for reading in readings {
                        if let Value::Object(fields) = reading {
                            fields.retain(|(n, _)| n != "unit");
                        }
                    }
                }
                w.upsert(&Value::Object(stale)).unwrap();
            }
            drop(w);
            ds.await_quiescent();
            ds.flush().unwrap();
            let mut w = ds.writer();
            for r in records {
                w.upsert(r).unwrap();
            }
            for (r, delete) in records.iter().zip(delete_mask) {
                if *delete {
                    let id = r.get_field("id").and_then(Value::as_i64).unwrap();
                    w.delete(id).unwrap();
                }
            }
            drop(w);
            ds.await_quiescent();
            ds
        }

        /// Converge to the resting single-component state — for Columnar,
        /// the state the zero-pivot scan serves from.
        fn settle(ds: &Dataset) {
            ds.flush().unwrap();
            ds.force_full_merge().unwrap();
        }

        // Probe a field that actually occurs in the data, so the query's
        // second output column exercises typed columns / residuals / spills
        // depending on what the records contain.
        let probe = records
            .iter()
            .find_map(|v| {
                let Value::Object(fields) = v else { return None };
                fields.iter().map(|(n, _)| n.clone()).find(|n| n != "id")
            })
            .unwrap_or_else(|| "absent".to_string());
        let query = Query {
            scan: ScanSpec {
                paths: vec![
                    tc_adm::path::parse_path("id"),
                    tc_adm::path::parse_path(&probe),
                ],
                filter: Some(Expr::cmp(
                    CmpOp::Ge,
                    Expr::col(0),
                    Expr::lit(500_000i64),
                )),
                late_paths: vec![],
                access: AccessStrategy::Consolidated,
            },
            ops: vec![],
        };

        // The sensors queries: the temperature average per sensor under an
        // unnest (the at-rest scan folds it from the column's bytes), and
        // paths into the collections every other way.
        let path = tc_adm::path::parse_path;
        let average = Query {
            scan: ScanSpec::all_early(
                vec![path("sensor_id"), path("readings[*].temp")],
                AccessStrategy::Consolidated,
            ),
            ops: vec![
                Op::Unnest(Expr::col(1)),
                Op::GroupBy {
                    keys: vec![Expr::col(0)],
                    aggs: vec![Agg::of(AggFn::Avg, Expr::col(2)), Agg::count_star()],
                },
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        };
        let collections = Query {
            scan: ScanSpec::all_early(
                ["id", "temps[*]", "tags", "readings[*].timestamp", "readings[1].temp", "readings[*]"]
                    .into_iter()
                    .map(path)
                    .collect(),
                AccessStrategy::Consolidated,
            ),
            ops: vec![Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None }],
        };
        let queries = [&query, &average, &collections];

        let reference = ingest(StorageFormat::Inferred, false, &records, &delete_mask);
        settle(&reference);
        let ids: Vec<i64> =
            records.iter().map(|r| r.get_field("id").and_then(Value::as_i64).unwrap()).collect();
        let expected_gets: Vec<Option<Value>> =
            ids.iter().map(|&id| reference.get(id).unwrap()).collect();
        let expected_scan = reference.scan_values().unwrap();
        let expected_rows: Vec<_> = queries
            .iter()
            .map(|q| execute(&[&reference], q, &ExecOptions::with_engine(Engine::Row)).unwrap().rows)
            .collect();

        let formats = [
            StorageFormat::Inferred,
            StorageFormat::VectorUncompacted,
            StorageFormat::Columnar,
        ];
        for format in formats {
            for background in [false, true] {
                let ds = ingest(format, background, &records, &delete_mask);
                // Live (versions across components and the memtable), with
                // the anti-matter flushed but unmerged, then at rest.
                for state in ["live", "flushed", "merged"] {
                    match state {
                        "flushed" => ds.flush().unwrap(),
                        "merged" => settle(&ds),
                        _ => {}
                    }
                    for (id, expected) in ids.iter().zip(&expected_gets) {
                        prop_assert_eq!(
                            &ds.get(*id).unwrap(),
                            expected,
                            "{:?} (background={}, {}) point get diverged",
                            format,
                            background,
                            state
                        );
                    }
                }
                prop_assert_eq!(
                    &ds.scan_values().unwrap(),
                    &expected_scan,
                    "{:?} (background={}) scan diverged",
                    format,
                    background
                );
                for engine in [Engine::Batched, Engine::Row] {
                    for (q, (query, expected)) in queries.iter().zip(&expected_rows).enumerate() {
                        let got = execute(&[&ds], query, &ExecOptions::with_engine(engine))
                            .unwrap()
                            .rows;
                        prop_assert_eq!(
                            &got,
                            expected,
                            "{:?} (background={}, {:?}) query {} diverged",
                            format,
                            background,
                            engine,
                            q
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case runs the workload 1 + |matrix| × 2 times, so a modest case
    // count still exercises every policy against hundreds of workloads.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merge policies are pure reorganization: for any random workload of
    /// inserts / upserts / deletes with explicit flush points, every policy
    /// in the registry matrix — run both synchronously and on the
    /// background maintenance worker — produces exactly the same
    /// `scan_values()` and schema record count as a no-merge reference.
    /// After a final full merge, every variant collapses to one component
    /// with zero anti-matter (deletes are fully garbage-collected), so
    /// anti-matter semantics are policy-independent too.
    #[test]
    fn merge_policies_are_observationally_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..30)
    ) {
        fn run(policy: MergePolicy, background: bool, ops: &[LsmOp]) -> Dataset {
            // Tiny budget: flushes fire often, so the policies under test
            // actually get multi-component lists to reorganize.
            let config = DatasetConfig::new("equiv", "id")
                .with_format(StorageFormat::Inferred)
                .with_memtable_budget(8 * 1024)
                .with_merge_policy(policy)
                .with_background_maintenance(background);
            let device = Arc::new(Device::new(DeviceProfile::RAM));
            let cache = Arc::new(BufferCache::new(1024));
            let ds = Dataset::new(config, device, cache);
            let mut writer = ds.writer();
            for op in ops {
                match op {
                    LsmOp::Insert(k, v) | LsmOp::Upsert(k, v) => {
                        let record =
                            parse(&format!(r#"{{"id": {k}, "v": {v}}}"#)).unwrap();
                        writer.upsert(&record).unwrap();
                    }
                    LsmOp::Delete(k) => {
                        writer.delete(*k as i64).unwrap();
                    }
                    LsmOp::Flush | LsmOp::Merge | LsmOp::CrashRecover => {
                        // Structural ops degrade to flush points: merging is
                        // exactly what varies across the matrix, and
                        // crash/recovery under policies is covered by the
                        // fault sweep in tests/faults.rs.
                        if background {
                            ds.flush_async().unwrap();
                        } else {
                            ds.flush().unwrap();
                        }
                    }
                }
            }
            drop(writer);
            ds.await_quiescent();
            ds.flush().unwrap();
            ds
        }

        let reference = run(MergePolicy::NoMerge, false, &ops);
        let expected = reference.scan_values().unwrap();
        let expected_records =
            reference.schema_snapshot().unwrap().record_count();

        for policy in MergePolicy::matrix() {
            for background in [false, true] {
                let ds = run(policy, background, &ops);
                prop_assert_eq!(
                    &ds.scan_values().unwrap(),
                    &expected,
                    "policy {} (background={}) diverged",
                    policy.name(),
                    background
                );
                prop_assert_eq!(
                    ds.schema_snapshot().unwrap().record_count(),
                    expected_records,
                    "policy {} (background={}) schema record count diverged",
                    policy.name(),
                    background
                );
                let stats = ds.lsm_stats();
                prop_assert_eq!(stats.components_retired, 0, "matrix policies must be lossless");
                // Every merge is attributed to a trigger, amplification is
                // well-formed once anything was flushed, and the
                // non-merging policies never merge.
                prop_assert_eq!(stats.merges_by_trigger.iter().sum::<u64>(), stats.merges);
                prop_assert!(stats.bytes_flushed == 0 || stats.write_amplification() >= 1.0);
                if matches!(policy, MergePolicy::NoMerge | MergePolicy::Fifo { .. }) {
                    prop_assert_eq!(stats.merges, 0, "{} merged", policy.name());
                }
                // Anti-matter semantics: a full merge converges to a single
                // component with every delete resolved. (With fewer than two
                // components the merge is a no-op, and a lone flushed
                // component may legitimately carry tombstones.)
                let before = ds.primary().components().len();
                ds.force_full_merge().unwrap();
                let comps = ds.primary().components();
                let live: u64 =
                    comps.iter().map(|c| c.num_entries() - c.num_antimatter()).sum();
                prop_assert_eq!(
                    live as usize,
                    expected.len(),
                    "live-entry accounting diverged under {}",
                    policy.name()
                );
                if before >= 2 {
                    prop_assert_eq!(comps.len(), 1);
                    prop_assert_eq!(
                        comps[0].num_antimatter(),
                        0,
                        "full merge under {} left anti-matter",
                        policy.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Zone maps: a scan filter skips row blocks and row groups, never answers
// ---------------------------------------------------------------------

/// What one upsert writes at the filter field `t`: its value, its type
/// (int → string → double) or its presence changes from version to version.
#[derive(Debug, Clone)]
enum ZoneVal {
    Int(i64),
    Double(f64),
    Str,
    Null,
    Absent,
}

#[derive(Debug, Clone)]
enum ZoneOp {
    Put(u8, ZoneVal),
    Delete(u8),
    Flush,
}

fn arb_zone_op() -> impl Strategy<Value = ZoneOp> {
    let val = prop_oneof![
        4 => (0i64..100).prop_map(ZoneVal::Int),
        2 => (0i64..100).prop_map(|v| ZoneVal::Double(v as f64 + 0.5)),
        1 => Just(ZoneVal::Str),
        1 => Just(ZoneVal::Null),
        1 => Just(ZoneVal::Absent),
    ];
    prop_oneof![
        6 => (0u8..48, val).prop_map(|(k, v)| ZoneOp::Put(k, v)),
        2 => (0u8..48).prop_map(ZoneOp::Delete),
        1 => Just(ZoneOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A scan filter's zone maps change which units are read, never the
    /// answer. Upserts move the filter field `t` across values, types and
    /// presence between components and the memtable; deletes leave
    /// anti-matter. In the row (`Inferred`) and amax (`Columnar`) layouts,
    /// live and fully merged, every random window `lo <= t < hi` returns
    /// exactly the rows the same filter returns applied after an unfiltered
    /// scan. The oldest component holds reports far above every window, so
    /// each live case skips something.
    #[test]
    fn zone_map_skips_never_change_a_filtered_scan(
        ops in proptest::collection::vec(arb_zone_op(), 1..80),
        windows in proptest::collection::vec((-10i64..110, 0i64..60, any::<bool>()), 1..4),
    ) {
        use tc_query::exec::{execute, ExecOptions};
        use tc_query::{AccessStrategy, CmpOp, Expr, Op, Query, ScanSpec};

        let record = |k: i64, v: &ZoneVal| {
            let t = match v {
                ZoneVal::Int(i) => Some(Value::Int64(*i)),
                ZoneVal::Double(d) => Some(Value::Double(*d)),
                ZoneVal::Str => Some(Value::string(format!("changed_{k}"))),
                ZoneVal::Null => Some(Value::Null),
                ZoneVal::Absent => None,
            };
            let mut fields = vec![("id".to_string(), Value::Int64(k))];
            fields.extend(t.map(|t| ("t".to_string(), t)));
            fields.push(("pad".to_string(), Value::string("p".repeat(40))));
            Value::Object(fields)
        };
        for format in [StorageFormat::Inferred, StorageFormat::Columnar] {
            let ds = Dataset::new(
                DatasetConfig::new("zones", "id")
                    .with_format(format)
                    .with_page_size(512)
                    .with_memtable_budget(64 * 1024 * 1024)
                    .with_merge_policy(MergePolicy::NoMerge),
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::new(BufferCache::new(1024)),
            );
            let mut w = ds.writer();
            for k in 1000..1030 {
                w.upsert(&record(k, &ZoneVal::Int(5000 + k))).unwrap();
            }
            ds.flush().unwrap();
            for op in &ops {
                match op {
                    ZoneOp::Put(k, v) => w.upsert(&record(*k as i64, v)).unwrap(),
                    ZoneOp::Delete(k) => {
                        w.delete(*k as i64).unwrap();
                    }
                    ZoneOp::Flush => ds.flush().unwrap(),
                }
            }
            drop(w);
            for state in ["live", "merged"] {
                if state == "merged" {
                    ds.flush().unwrap();
                    ds.force_full_merge().unwrap();
                }
                let mut skipped = 0;
                for &(lo, width, double) in &windows {
                    let lit = |v: i64| if double { Expr::lit(v as f64) } else { Expr::lit(v) };
                    let window = Expr::and(
                        Expr::cmp(CmpOp::Ge, Expr::col(1), lit(lo)),
                        Expr::cmp(CmpOp::Lt, Expr::col(1), lit(lo + width)),
                    );
                    let paths = vec![tc_adm::path::parse_path("id"), tc_adm::path::parse_path("t")];
                    let pruned = Query {
                        scan: ScanSpec {
                            paths: paths.clone(),
                            filter: Some(window.clone()),
                            late_paths: vec![],
                            access: AccessStrategy::Consolidated,
                        },
                        ops: vec![],
                    };
                    let unpruned = Query {
                        scan: ScanSpec::all_early(paths, AccessStrategy::Consolidated),
                        ops: vec![Op::Filter(window)],
                    };
                    let got = execute(&[&ds], &pruned, &ExecOptions::default()).unwrap();
                    let want = execute(&[&ds], &unpruned, &ExecOptions::default()).unwrap();
                    prop_assert_eq!(&got.rows, &want.rows, "{:?} {}: [{}, +{})", format, state, lo, width);
                    prop_assert_eq!(want.stats.units_skipped, 0);
                    skipped += got.stats.units_skipped;
                }
                if state == "live" {
                    prop_assert!(skipped > 0, "{:?}: the oldest component is never read", format);
                }
            }
        }
    }
}
