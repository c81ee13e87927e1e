//! Helpers the `tc_columnar` integration tests share: the declared type,
//! stores, and the random-document strategy.
#![allow(dead_code)] // each test binary uses its own subset

use std::sync::Arc;

use proptest::prelude::*;
use tc_adm::datatype::{FieldDef, ObjectType, TypeKind};
use tc_adm::{TypeTag, Value};
use tc_compress::CompressionScheme;
use tc_lsm::entry::Key;
use tc_schema::Schema;
use tc_storage::device::{Device, DeviceProfile};
use tc_storage::page_store::PageStore;

pub fn declared_pk() -> ObjectType {
    ObjectType::open(vec![FieldDef {
        name: "id".into(),
        kind: TypeKind::Scalar(TypeTag::Int64),
        optional: false,
    }])
}

pub fn new_store(page_size: usize) -> PageStore {
    PageStore::new(Arc::new(Device::new(DeviceProfile::RAM)), page_size, CompressionScheme::None)
}

/// What flushing `record` does to the partition's schema. Every field name
/// but the declared `id` enters the dictionary — a component's blob names every
/// field of every record in it, and the writer holds it to that — and, if `typed`, the
/// record's types are observed. Untyped, the schema lags the data: a path
/// gets no column, or a column of another type (a spill).
pub fn observe(schema: &mut Schema, record: &Value, typed: bool) {
    fn intern(schema: &mut Schema, v: &Value) {
        match v {
            Value::Object(fields) => fields.iter().for_each(|(name, v)| {
                schema.intern_name(name);
                intern(schema, v);
            }),
            Value::Array(items) | Value::Multiset(items) => {
                items.iter().for_each(|v| intern(schema, v))
            }
            _ => {}
        }
    }
    let Value::Object(fields) = record else { panic!("records are objects") };
    for (name, v) in fields.iter().filter(|(name, _)| name != "id") {
        schema.intern_name(name);
        intern(schema, v);
    }
    if typed {
        schema.observe_record(fields, &|n| n == "id").unwrap();
    }
}

pub fn key(i: u64) -> Key {
    i.to_be_bytes().to_vec()
}

/// One field of a generated record: missing, null, or a value whose type
/// varies from row to row — so a path is a typed column in one case, a
/// union (no column) in another, and spills wherever the schema lags.
pub fn arb_field() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        4 => Just(None),
        2 => Just(Some(Value::Null)),
        6 => any::<i64>().prop_map(|i| Some(Value::Int64(i))),
        6 => "[a-z ]{0,40}".prop_map(|s| Some(Value::String(s))),
        2 => any::<f64>().prop_map(|d| Some(Value::Double(d))),
        1 => Just(Some(Value::Double(f64::NAN))),
        2 => any::<bool>().prop_map(|b| Some(Value::Boolean(b))),
        2 => proptest::collection::vec(any::<i64>(), 0..4)
            .prop_map(|v| Some(Value::Array(v.into_iter().map(Value::Int64).collect()))),
    ]
}

pub fn object(fields: Vec<(&str, Option<Value>)>) -> Value {
    Value::Object(fields.into_iter().filter_map(|(n, v)| Some((n.to_string(), v?))).collect())
}

/// Collections repeated columns take, mostly: arrays (a multiset now and
/// then) of ints and nulls, and arrays of flat reading-like objects — empty,
/// `null`, with `null` items and missing fields, and with the odd item that
/// does not fit (a string among the ints, a scalar or a nested array among
/// the objects), which spills once the schema has seen the collection.
pub fn arb_collections() -> impl Strategy<Value = (Option<Value>, Option<Value>)> {
    let scalar = || {
        prop_oneof![
            8 => any::<i64>().prop_map(Value::Int64),
            2 => Just(Value::Null),
            1 => Just(Value::String("odd".into())),
        ]
    };
    let scalars = prop_oneof![
        6 => proptest::collection::vec(scalar(), 0..6).prop_map(Value::Array),
        1 => proptest::collection::vec(scalar(), 0..3).prop_map(Value::Multiset),
        1 => Just(Value::Null),
    ];
    let temp = prop_oneof![
        8 => any::<f64>().prop_map(Value::Double),
        1 => Just(Value::Double(f64::NAN)),
        1 => Just(Value::Null),
    ];
    let reading = (
        prop_oneof![6 => temp.prop_map(Some), 1 => Just(None)],
        prop_oneof![6 => any::<i64>().prop_map(|t| Some(Value::Int64(t))), 1 => Just(None)],
    )
        .prop_map(|(temp, timestamp)| object(vec![("temp", temp), ("timestamp", timestamp)]));
    let item = prop_oneof![
        12 => reading,
        2 => Just(Value::Null),
        1 => Just(Value::Int64(7)),
        1 => Just(object(vec![("temp", Some(Value::Array(vec![])))])),
    ];
    let readings = prop_oneof![
        6 => proptest::collection::vec(item, 0..6).prop_map(Value::Array),
        1 => Just(Value::Null),
    ];
    let maybe = |s: BoxedStrategy<Value>| prop_oneof![1 => Just(None), 3 => s.prop_map(Some)];
    (maybe(scalars.boxed()), maybe(readings.boxed()))
}

/// A generated row: anti-matter or a record, whether the component's schema
/// saw it, and its fields (`o` nests two of them, `xs` and `readings` are
/// collections).
pub type Row = (
    (bool, bool),
    (Option<Value>, Option<Value>, Option<Value>),
    (Option<Value>, Option<Value>),
    (Option<Value>, Option<Value>),
);

pub fn arb_row() -> impl Strategy<Value = Row> {
    (
        (prop_oneof![1 => Just(true), 5 => Just(false)], any::<bool>()),
        (arb_field(), arb_field(), arb_field()),
        (arb_field(), arb_field()),
        arb_collections(),
    )
}

/// The record of a generated row stored under key `k` (`id` = `k`).
pub fn row_record(k: u64, row: &Row) -> Value {
    let (_, (a, b, c), (x, y), (xs, readings)) = row.clone();
    let nested = (x.is_some() || y.is_some()).then(|| object(vec![("x", x), ("y", y)]));
    object(vec![
        ("id", Some(Value::Int64(k as i64))),
        ("a", a),
        ("xs", xs),
        ("b", b),
        ("c", c),
        ("o", nested),
        ("readings", readings),
    ])
}
