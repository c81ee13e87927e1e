//! Flush-time schema inference + record compaction (paper §3.3.2).
//!
//! One linear pass over an *uncompacted* record's tag stream and field-name
//! vector simultaneously (a) merges the record's structure into the
//! partition's in-memory [`Schema`] and (b) rewrites the field-name section
//! to bit-packed `FieldNameID`s, zeroing the header's fourth offset. The
//! tags, fixed-value, and varlen sections are byte-identical before and
//! after compaction, so they are copied wholesale.
//!
//! The pass is kept as cheap as the format allows, because it runs once per
//! record on every flush:
//!
//! * it steps the table-driven cursor ([`VectorReader::next_raw`]), so a
//!   scalar is its stored bytes — no `Value`, no `String` (a string is
//!   still checked to be UTF-8) — and a stream nested past
//!   [`tc_adm::MAX_NESTING`] is corruption;
//! * each open object carries a *slot hint*: one past the position in the
//!   schema node's field list where its previous field was found. The next
//!   name is compared with the dictionary entry at that slot
//!   ([`Schema::observe_field_at`]); only a miss hashes the name and
//!   searches the field list. Records shaped like their predecessor — the
//!   common case for a feed — are inferred without either;
//! * ids are collected in a per-thread buffer and packed straight into the
//!   output after the body is copied.
//!
//! It is still the one linear pass of §3.3.2: the hint changes how a field
//! is found, not what is observed — the schema and the bytes are exactly
//! those of a lookup per field (a property test holds the two equal).
//!
//! [`remove_anti_schema`] is the same walk for an upsert's or a delete's
//! retired version (§3.2.2): over its stored bytes, compacted or not, it
//! decrements what the flush walk observed, and a property test holds it to
//! the `Value` walk `Schema::remove_record`.

use std::cell::RefCell;

use tc_adm::{AdmError, TypeTag};
use tc_schema::{NodeId, Schema};
use tc_util::bytes_for_bits;

use crate::encode::{pack_field_entries, FieldEntry};
use crate::header::{entry_bits, Header, HEADER_LEN};
use crate::reader::{FieldName, RawItem, VectorReader};

/// Infer the record's schema into `schema` and return the compacted record.
///
/// The record must be uncompacted (fresh from the in-memory component).
/// Declared fields pass through untouched and unobserved — their metadata
/// lives in the catalog, not the schema structure (§3.1).
pub fn infer_and_compact(buf: &[u8], schema: &mut Schema) -> Result<Vec<u8>, AdmError> {
    let mut out = Vec::new();
    infer_and_compact_into(buf, schema, &mut out)?;
    Ok(out)
}

/// [`infer_and_compact`], appending the compacted record to `out`. On an
/// error `schema` may hold part of the record's observations (a flush rolls
/// it back) and `out` is unchanged.
pub fn infer_and_compact_into(
    buf: &[u8],
    schema: &mut Schema,
    out: &mut Vec<u8>,
) -> Result<(), AdmError> {
    WALK.with_borrow_mut(|walk| walk.run(buf, schema, out))
}

/// Remove a retired record version's contribution from `schema` — its
/// anti-schema (§3.2.2) — and prune what drops to zero, in one walk over the
/// version's stored bytes: the walk of [`infer_and_compact_into`], with the
/// same slot hints, decrementing what that walk observed. Nothing is
/// materialized. The record may be compacted (names resolve through
/// `schema`'s dictionary, which holds every id a component ever used) or
/// uncompacted (names resolve by their bytes). Declared fields and their
/// subtrees are skipped, and a shape the schema never saw is tolerated.
///
/// On an error `schema` may hold part of the decrements: a flush drops its
/// whole pass then, so the published schema never sees them.
pub fn remove_anti_schema(buf: &[u8], schema: &mut Schema) -> Result<(), AdmError> {
    WALK.with_borrow_mut(|walk| walk.remove(buf, schema))
}

thread_local! {
    /// The buffers of [`Walk`], reused record after record.
    static WALK: RefCell<Walk> = RefCell::default();
}

/// An open container: its schema node (`None` beneath a declared field —
/// the catalog, not the schema structure, owns declared metadata, §3.1) and,
/// for an object, the slot hint for its next field.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: Option<NodeId>,
    slot: usize,
}

#[derive(Debug, Default)]
struct Walk {
    entries: Vec<FieldEntry>,
    stack: Vec<Frame>,
}

impl Walk {
    fn run(&mut self, buf: &[u8], schema: &mut Schema, out: &mut Vec<u8>) -> Result<(), AdmError> {
        self.entries.clear();
        self.stack.clear();
        let mut reader = VectorReader::new(buf)?;
        if reader.is_compacted() {
            return Err(AdmError::corrupt("record is already compacted"));
        }
        let header_in = *reader.header();

        schema.observe_root();
        match reader.next_raw()? {
            RawItem::Begin { tag: TypeTag::Object, name: None } => {
                self.stack.push(Frame { node: Some(schema.root()), slot: 0 })
            }
            other => {
                return Err(AdmError::corrupt(format!(
                    "vector record must be rooted at an object, got {other:?}"
                )))
            }
        }
        while let Some(parent) = self.stack.last_mut() {
            let (tag, name, nested) = match reader.next_raw()? {
                RawItem::Eov => return Err(AdmError::corrupt("EOV inside container")),
                RawItem::Close => {
                    self.stack.pop();
                    continue;
                }
                RawItem::Begin { tag, name } => (tag, name, true),
                RawItem::Scalar { tag, bytes, name } => {
                    if tag == TypeTag::String && std::str::from_utf8(bytes).is_err() {
                        return Err(AdmError::corrupt("invalid UTF-8 string"));
                    }
                    (tag, name, false)
                }
            };
            let node = observe(schema, parent, name, tag, &mut self.entries)?;
            if nested {
                self.stack.push(Frame { node, slot: 0 });
            }
        }
        match reader.next_raw()? {
            RawItem::Eov => {}
            other => return Err(AdmError::corrupt(format!("trailing item {other:?}"))),
        }
        assemble_compacted(buf, &header_in, &self.entries, out)
    }

    fn remove(&mut self, buf: &[u8], schema: &mut Schema) -> Result<(), AdmError> {
        self.stack.clear();
        let mut reader = VectorReader::new(buf)?;
        match reader.next_raw()? {
            RawItem::Begin { tag: TypeTag::Object, name: None } => {
                schema.unobserve_root();
                self.stack.push(Frame { node: Some(schema.root()), slot: 0 })
            }
            other => {
                return Err(AdmError::corrupt(format!(
                    "vector record must be rooted at an object, got {other:?}"
                )))
            }
        }
        while let Some(parent) = self.stack.last_mut() {
            let (tag, name, nested) = match reader.next_raw()? {
                RawItem::Eov => return Err(AdmError::corrupt("EOV inside container")),
                RawItem::Close => {
                    self.stack.pop();
                    continue;
                }
                RawItem::Begin { tag, name } => (tag, name, true),
                RawItem::Scalar { tag, name, .. } => (tag, name, false),
            };
            let node = match (parent.node, name) {
                (None, _) | (_, Some(FieldName::Declared(_))) => None,
                (Some(p), None) => schema.unobserve_item(p, tag),
                (Some(p), Some(FieldName::Inferred(n))) => {
                    schema.unobserve_field_at(p, &mut parent.slot, n, tag)
                }
                (Some(p), Some(FieldName::InferredId(fid))) => {
                    if schema.dict().name(fid).is_none() {
                        return Err(AdmError::corrupt(format!(
                            "field name id {fid} not in schema"
                        )));
                    }
                    schema.unobserve_field_id_at(p, &mut parent.slot, fid, tag)
                }
            };
            if nested {
                self.stack.push(Frame { node, slot: 0 });
            }
        }
        match reader.next_raw()? {
            RawItem::Eov => {}
            other => return Err(AdmError::corrupt(format!("trailing item {other:?}"))),
        }
        schema.prune();
        Ok(())
    }
}

/// Observe one value under `parent`; translate its field-name entry. Returns
/// the schema node for recursion, or `None` for untracked (declared)
/// subtrees.
fn observe(
    schema: &mut Schema,
    parent: &mut Frame,
    name: Option<FieldName<'_>>,
    tag: TypeTag,
    entries: &mut Vec<FieldEntry>,
) -> Result<Option<NodeId>, AdmError> {
    match name {
        None => parent.node.map(|p| schema.observe_item(p, tag)).transpose(),
        Some(FieldName::Declared(idx)) => {
            entries.push(FieldEntry { declared: true, payload: idx as u64 });
            // Declared fields are excluded from the inferred schema (§3.1);
            // anything nested beneath them is untracked.
            Ok(None)
        }
        Some(FieldName::Inferred(n)) => match parent.node {
            Some(p) => {
                let (fid, node) = schema.observe_field_at(p, &mut parent.slot, n, tag)?;
                entries.push(FieldEntry { declared: false, payload: fid as u64 });
                Ok(Some(node))
            }
            None => {
                // Inside an untracked subtree: still intern the name so the
                // compacted record can reference it by id.
                let fid = schema.intern_name(n);
                entries.push(FieldEntry { declared: false, payload: fid as u64 });
                Ok(None)
            }
        },
        Some(FieldName::InferredId(_)) => {
            Err(AdmError::corrupt("compacted entry in uncompacted record"))
        }
    }
}

/// Append the compacted byte image to `out`: header + verbatim copy of
/// [tags | fixed | varlen lengths | varlen values] + packed FieldNameIDs.
fn assemble_compacted(
    buf: &[u8],
    header_in: &Header,
    entries: &[FieldEntry],
    out: &mut Vec<u8>,
) -> Result<(), AdmError> {
    let body_end = header_in.fieldname_lengths_off as usize;
    let body = buf.get(HEADER_LEN..body_end).ok_or_else(|| AdmError::corrupt("truncated body"))?;
    let fieldname_bits = entry_bits(entries.iter().map(|e| e.payload).max().unwrap_or(0), true);
    let record_len = body_end + bytes_for_bits(entries.len() * fieldname_bits as usize);
    let header_out = Header {
        record_len: record_len as u32,
        tag_count: header_in.tag_count,
        varlen_bits: header_in.varlen_bits,
        fieldname_bits,
        varlen_lengths_off: header_in.varlen_lengths_off,
        varlen_values_off: header_in.varlen_values_off,
        fieldname_lengths_off: header_in.fieldname_lengths_off,
        fieldname_values_off: 0, // the compaction marker (§3.3.2)
    };
    let start = out.len();
    out.reserve(record_len);
    header_out.write(out);
    out.extend_from_slice(body);
    pack_field_entries(out, entries, fieldname_bits);
    debug_assert_eq!(out.len() - start, record_len);
    Ok(())
}

/// The compaction pass as it was before the raw walk: a `Value` built per
/// scalar, a dictionary lookup and field search per field,
/// ids packed into their own buffer and then copied. The property tests
/// hold [`infer_and_compact`] to its bytes and its schema.
#[cfg(test)]
pub(crate) fn oracle_infer_and_compact(
    buf: &[u8],
    schema: &mut Schema,
) -> Result<Vec<u8>, AdmError> {
    use crate::reader::scalar_value;
    use tc_util::bits::BitWriter;

    let mut reader = VectorReader::new(buf)?;
    if reader.is_compacted() {
        return Err(AdmError::corrupt("record is already compacted"));
    }
    let header_in = *reader.header();
    schema.observe_root();
    let mut entries: Vec<FieldEntry> = Vec::new();
    let mut stack: Vec<Option<NodeId>> = Vec::new();
    match reader.next_raw()? {
        RawItem::Begin { tag: TypeTag::Object, name: None } => stack.push(Some(schema.root())),
        other => return Err(AdmError::corrupt(format!("not rooted at an object: {other:?}"))),
    }
    while let Some(&parent) = stack.last() {
        let (tag, name, nested) = match reader.next_raw()? {
            RawItem::Eov => return Err(AdmError::corrupt("EOV inside container")),
            RawItem::Close => {
                stack.pop();
                continue;
            }
            RawItem::Begin { tag, name } => (tag, name, true),
            RawItem::Scalar { tag, bytes, name } => {
                (scalar_value(tag, bytes)?.type_tag(), name, false)
            }
        };
        let node = match name {
            None => parent.map(|p| schema.observe_item(p, tag)).transpose()?,
            Some(FieldName::Declared(idx)) => {
                entries.push(FieldEntry { declared: true, payload: idx as u64 });
                None
            }
            Some(FieldName::Inferred(n)) => match parent {
                Some(p) => {
                    let (fid, node) = schema.observe_field(p, n, tag)?;
                    entries.push(FieldEntry { declared: false, payload: fid as u64 });
                    Some(node)
                }
                None => {
                    let fid = schema.intern_name(n);
                    entries.push(FieldEntry { declared: false, payload: fid as u64 });
                    None
                }
            },
            Some(FieldName::InferredId(_)) => {
                return Err(AdmError::corrupt("compacted entry in uncompacted record"))
            }
        };
        if nested {
            stack.push(node);
        }
    }
    if reader.next_raw()? != RawItem::Eov {
        return Err(AdmError::corrupt("trailing item"));
    }

    let fieldname_bits = entry_bits(entries.iter().map(|e| e.payload).max().unwrap_or(0), true);
    let mut packed = BitWriter::new();
    for e in &entries {
        packed.write(((e.declared as u64) << (fieldname_bits - 1)) | e.payload, fieldname_bits);
    }
    let ids = packed.into_bytes();
    let body_end = header_in.fieldname_lengths_off as usize;
    let header_out = Header {
        record_len: (body_end + ids.len()) as u32,
        fieldname_bits,
        fieldname_values_off: 0,
        ..header_in
    };
    let mut out = Vec::new();
    header_out.write(&mut out);
    out.extend_from_slice(&buf[HEADER_LEN..body_end]);
    out.extend_from_slice(&ids);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::reader::decode;
    use tc_adm::datatype::{FieldDef, ObjectType};
    use tc_adm::{parse, TypeKind, Value};

    fn emp_type() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    #[test]
    fn fig14_compaction_shrinks_fieldnames() {
        // Paper Fig 13→14: uncompacted needs 19 bytes of field-name data;
        // compacted needs 2 bytes of 3-bit FieldNameIDs.
        let t = emp_type();
        let v =
            parse(r#"{"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26}"#).unwrap();
        let raw = encode(&v, Some(&t));
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        let hc = Header::read(&compacted).unwrap();
        assert!(hc.is_compacted());
        // 4 entries × 3 bits (1 flag + 2 id bits) = 12 bits → 2 bytes.
        assert_eq!(hc.fieldname_bits, 3);
        assert_eq!(hc.record_len as usize - hc.fieldname_lengths_off as usize, 2);
        // Paper Fig 13/14: 19 → 2 bytes of field-name data. Our lengths
        // vector bit-packs across bytes (4×5 bits = 3 bytes, not the paper's
        // byte-rounded 4), so the uncompacted side is 18 and the saving 16.
        assert_eq!(raw.len() - compacted.len(), 18 - 2);
        // Value survives the trip, resolved through the schema dictionary.
        let back = decode(&compacted, Some(&t), Some(schema.dict())).unwrap();
        assert_eq!(back, v);
        // Schema learned name/salaries/age but not the declared id.
        assert!(schema.lookup_field(schema.root(), "name").is_some());
        assert!(schema.lookup_field(schema.root(), "salaries").is_some());
        assert!(schema.lookup_field(schema.root(), "age").is_some());
        assert!(schema.lookup_field(schema.root(), "id").is_none());
    }

    #[test]
    fn nested_records_compact_and_roundtrip() {
        let v = parse(
            r#"{
            "id": 1, "name": "Ann",
            "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10},
                             "Not_Available" }},
            "employment_date": date("2018-09-20"),
            "branch_location": point(24.0, -56.12),
            "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"]
        }"#,
        )
        .unwrap();
        let t = emp_type();
        let raw = encode(&v, Some(&t));
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        assert!(compacted.len() < raw.len());
        let back = decode(&compacted, Some(&t), Some(schema.dict())).unwrap();
        assert_eq!(back, v);
        // "name" appears at two levels but once in the dictionary (Fig 10c).
        assert!(schema.dict().find("name").is_some());
        assert_eq!(schema.dict().len(), 6);
    }

    #[test]
    fn repeated_names_share_dictionary_ids_across_records() {
        let mut schema = Schema::new();
        let mut sizes = Vec::new();
        for i in 0..5 {
            let v = parse(&format!(r#"{{"name": "user{i}", "age": {i}}}"#)).unwrap();
            let raw = encode(&v, None);
            let compacted = infer_and_compact(&raw, &mut schema).unwrap();
            sizes.push(compacted.len());
        }
        assert_eq!(schema.dict().len(), 2, "only 'name' and 'age'");
        // All compacted records the same size (same shape, same id widths).
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
        let (_, age) = schema.lookup_field(schema.root(), "age").unwrap();
        assert_eq!(schema.node(age).counter(), 5);
    }

    #[test]
    fn type_change_promotes_union_during_flush_pass() {
        let mut schema = Schema::new();
        for (i, age) in [("0", "26"), ("1", "22"), ("3", "\"old\"")] {
            let v = parse(&format!(r#"{{"name": "u{i}", "age": {age}}}"#)).unwrap();
            let raw = encode(&v, None);
            infer_and_compact(&raw, &mut schema).unwrap();
        }
        let (_, age) = schema.lookup_field(schema.root(), "age").unwrap();
        assert!(schema.node(age).matches_tag(TypeTag::Int64));
        assert!(schema.node(age).matches_tag(TypeTag::String));
    }

    #[test]
    fn double_compaction_is_rejected() {
        let v = parse(r#"{"a": 1}"#).unwrap();
        let raw = encode(&v, None);
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        assert!(infer_and_compact(&compacted, &mut schema).is_err());
    }

    #[test]
    fn sections_before_fieldnames_are_verbatim() {
        let v = parse(r#"{"s": "hello", "n": [1.5, 2.5]}"#).unwrap();
        let raw = encode(&v, None);
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        let hr = Header::read(&raw).unwrap();
        let hc = Header::read(&compacted).unwrap();
        let body_r = &raw[HEADER_LEN..hr.fieldname_lengths_off as usize];
        let body_c = &compacted[HEADER_LEN..hc.fieldname_lengths_off as usize];
        assert_eq!(body_r, body_c);
    }

    #[test]
    fn wide_dictionaries_widen_id_entries() {
        let mut schema = Schema::new();
        // Fill the dictionary so ids need more bits.
        let fields: Vec<(String, Value)> =
            (0..40).map(|i| (format!("field_{i:02}"), Value::Int64(i))).collect();
        let v = Value::Object(fields);
        let raw = encode(&v, None);
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        let hc = Header::read(&compacted).unwrap();
        // Max id 39 → 6 bits + flag = 7.
        assert_eq!(hc.fieldname_bits, 7);
        let back = decode(&compacted, None, Some(schema.dict())).unwrap();
        assert_eq!(back, v);
    }

    /// Ids of 15 bits and more used to be written one bit wider than the
    /// header could say: a dictionary past 16 384 names compacted into
    /// records that decoded to the wrong (or no) name. The 32-bit escape
    /// now includes the flag bit.
    #[test]
    fn ids_past_the_nibble_escape_to_32_bits_and_decode() {
        let mut schema = Schema::new();
        for i in 0..33_000 {
            schema.intern_name(&format!("n{i}"));
        }
        let v = Value::object([
            ("n16383", Value::Int64(1)),
            ("n32999", Value::string("x")),
            ("fresh", Value::Boolean(true)),
        ]);
        let raw = encode(&v, None);
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        assert_eq!(Header::read(&compacted).unwrap().fieldname_bits, 32);
        assert_eq!(decode(&compacted, None, Some(schema.dict())).unwrap(), v);
        // Ids of exactly 14 bits still fit a nibble, byte for byte as before.
        let mut small = Schema::new();
        for i in 0..16_384 {
            small.intern_name(&format!("n{i}"));
        }
        let v = Value::object([("n16383", Value::Int64(1))]);
        let compacted = infer_and_compact(&encode(&v, None), &mut small).unwrap();
        assert_eq!(Header::read(&compacted).unwrap().fieldname_bits, 15);
        assert_eq!(decode(&compacted, None, Some(small.dict())).unwrap(), v);
    }

    /// A frozen record the walk cannot read is a typed error — never a
    /// panic — and appends nothing.
    #[test]
    fn malformed_records_are_typed_errors() {
        let raw = encode(&parse(r#"{"a": [1, "xy"], "b": {"c": 2}}"#).unwrap(), None);
        let mut bad_utf8 = raw.clone();
        let h = Header::read(&raw).unwrap();
        bad_utf8[h.varlen_values_off as usize] = 0xff;
        let mut bad_tag = raw.clone();
        bad_tag[HEADER_LEN + 1] = 200;
        let mut disordered = raw.clone();
        disordered[13..17].copy_from_slice(&(h.varlen_lengths_off - 1).to_le_bytes());
        for bad in [&raw[..raw.len() - 1], &bad_utf8, &bad_tag, &disordered, &raw[..30]] {
            let mut schema = Schema::new();
            let mut out = vec![7];
            assert!(infer_and_compact_into(bad, &mut schema, &mut out).is_err());
            assert_eq!(out, [7]);
        }
    }

    use proptest::prelude::*;

    /// `id` and `ts` are declared: `ts`'s subtree is untracked, its names
    /// interned only. Every name of the pool also appears nested, so one
    /// name lives at several depths.
    fn declared() -> ObjectType {
        ObjectType::open(vec![
            FieldDef { name: "id".into(), kind: TypeKind::Scalar(TypeTag::Int64), optional: false },
            FieldDef { name: "ts".into(), kind: TypeKind::Any, optional: true },
        ])
    }

    fn arb_name() -> impl Strategy<Value = String> {
        prop_oneof![Just("id"), Just("ts"), Just("a"), Just("b"), Just("näme"), Just("c")]
            .prop_map(String::from)
    }

    fn arb_leaf() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int64),
            "[a-zé€😀]{0,5}".prop_map(Value::String),
            any::<bool>().prop_map(Value::Boolean),
            any::<f64>().prop_map(Value::Double),
            Just(Value::Null),
        ]
    }

    fn arb_value() -> BoxedStrategy<Value> {
        arb_leaf().prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                // Arrays of anything, objects included; often empty.
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Multiset),
                proptest::collection::btree_map(arb_name(), inner, 0..5)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    fn arb_object() -> impl Strategy<Value = Value> {
        proptest::collection::btree_map(arb_name(), arb_value(), 0..6)
            .prop_map(|m| Value::Object(m.into_iter().collect()))
    }

    /// Reverse the field order of every object in `v`.
    fn reverse_objects(v: &mut Value) {
        match v {
            Value::Object(fields) => {
                fields.reverse();
                fields.iter_mut().for_each(|(_, v)| reverse_objects(v));
            }
            Value::Array(items) | Value::Multiset(items) => {
                items.iter_mut().for_each(reverse_objects)
            }
            _ => {}
        }
    }

    /// A feed: each record is its predecessor again (every slot hint hits),
    /// the predecessor with its fields rotated and nested objects reversed
    /// (hints miss), with one field's type changed (a union forms), or a
    /// fresh record.
    fn arb_feed() -> impl Strategy<Value = Vec<Value>> {
        let step = (0u8..4, any::<usize>(), arb_leaf(), arb_object());
        (arb_object(), proptest::collection::vec(step, 1..8)).prop_map(|(first, steps)| {
            let mut feed = vec![first];
            for (op, n, leaf, fresh) in steps {
                let mut next = feed.last().cloned().unwrap_or(Value::Null);
                let Value::Object(fields) = &mut next else { panic!("the feed holds objects") };
                match op {
                    0 => {}
                    1 if !fields.is_empty() => {
                        let len = fields.len();
                        fields.rotate_left((1 + n % len) % len);
                        fields.iter_mut().for_each(|(_, v)| reverse_objects(v));
                    }
                    2 if !fields.is_empty() => {
                        let k = n % fields.len();
                        fields[k].1 = leaf;
                    }
                    _ => next = fresh,
                }
                feed.push(next);
            }
            feed
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The raw walk with slot hints writes the bytes, and leaves the
        /// schema, of the `Value` walk with a lookup per field — after every
        /// record of a feed — and its records decode to what was encoded.
        #[test]
        fn raw_walk_with_slot_hints_equals_the_value_walk(feed in arb_feed()) {
            let declared = declared();
            let (mut fast, mut oracle) = (Schema::new(), Schema::new());
            let mut out = Vec::new();
            for v in &feed {
                let raw = encode(v, Some(&declared));
                let expected = oracle_infer_and_compact(&raw, &mut oracle).unwrap();
                let start = out.len();
                infer_and_compact_into(&raw, &mut fast, &mut out).unwrap();
                prop_assert_eq!(&out[start..], &expected[..]);
                prop_assert_eq!(fast.serialize(), oracle.serialize());
                let back = decode(&out[start..], Some(&declared), Some(fast.dict())).unwrap();
                prop_assert_eq!(&back, v);
            }
        }

        /// The raw anti-schema walk leaves, after every removal, the schema
        /// the `Value` walk leaves (`Schema::remove_record` over the decoded
        /// record), byte for byte: records observed by the flush walk, then
        /// retired in another order from their compacted or uncompacted
        /// bytes, with and without a declared type. Removing all of them
        /// leaves the empty schema.
        #[test]
        fn raw_anti_schema_walk_equals_the_value_walk(
            feed in arb_feed(),
            order in any::<u64>(),
            compacted_mask in any::<u64>(),
        ) {
            for declared in [Some(declared()), None] {
                let declared = declared.as_ref();
                let skip = |name: &str| declared.is_some_and(|t| t.field_index(name).is_some());
                let mut observed = Schema::new();
                let stored: Vec<(Vec<u8>, Vec<u8>)> = feed
                    .iter()
                    .map(|v| {
                        let raw = encode(v, declared);
                        let compacted = infer_and_compact(&raw, &mut observed).unwrap();
                        (raw, compacted)
                    })
                    .collect();
                let (mut fast, mut oracle) = (observed.clone(), observed);
                let mut retired: Vec<usize> = (0..stored.len()).collect();
                retired.rotate_left(order as usize % stored.len());
                for i in retired {
                    let (raw, compacted) = &stored[i];
                    let bytes = if compacted_mask >> (i % 64) & 1 == 1 { compacted } else { raw };
                    remove_anti_schema(bytes, &mut fast).unwrap();
                    let dict = oracle.dict().clone();
                    let Value::Object(fields) = decode(bytes, declared, Some(&dict)).unwrap() else {
                        panic!("records are objects")
                    };
                    oracle.remove_record(&fields, &skip);
                    prop_assert_eq!(fast.serialize(), oracle.serialize());
                }
                prop_assert_eq!(fast.record_count(), 0);
                prop_assert_eq!(fast.num_live_nodes(), 1);
            }
        }
    }

    /// The anti-schema walk decrements what the flush walk observed, so a
    /// `missing` value, which the record stores with its own tag, leaves
    /// the schema with its record (the `Value` walk skips it and would
    /// leave its node behind).
    #[test]
    fn anti_schema_removes_what_inference_observed() {
        let v =
            Value::object([("a", Value::Missing), ("b", Value::object([("c", Value::Int64(1))]))]);
        let raw = encode(&v, None);
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        assert!(schema.lookup_field(schema.root(), "a").is_some());
        for bytes in [&raw, &compacted] {
            let mut s = schema.clone();
            remove_anti_schema(bytes, &mut s).unwrap();
            assert_eq!((s.record_count(), s.num_live_nodes()), (0, 1));
        }
    }

    /// An attachment the walk cannot read is a typed error, never a panic:
    /// a truncated or malformed record, an already-flushed record whose
    /// field id the dictionary lacks, and one that fails only after a valid
    /// prefix, which leaves that prefix decremented.
    #[test]
    fn malformed_anti_schemas_are_typed_errors() {
        let v = parse(r#"{"a": 1, "b": {"c": "xy"}, "d": [1, 2]}"#).unwrap();
        let raw = encode(&v, None);
        let mut observed = Schema::new();
        let compacted = infer_and_compact(&raw, &mut observed).unwrap();
        let mut bad_tag = raw.clone();
        bad_tag[HEADER_LEN + 1] = 200;
        let mut late_bad_tag = raw.clone();
        let h = Header::read(&raw).unwrap();
        late_bad_tag[HEADER_LEN + h.tag_count as usize - 2] = 200; // the root's close
        for bad in [&raw[..raw.len() - 1], &raw[..30], &bad_tag, &compacted[..20]] {
            let mut schema = observed.clone();
            assert!(matches!(remove_anti_schema(bad, &mut schema), Err(AdmError::Corrupt(_))));
        }
        let mut unknown_id = Schema::new();
        let err = remove_anti_schema(&compacted, &mut unknown_id).unwrap_err();
        assert!(matches!(err, AdmError::Corrupt(_)), "{err}");

        let mut schema = observed.clone();
        assert!(matches!(
            remove_anti_schema(&late_bad_tag, &mut schema),
            Err(AdmError::Corrupt(_))
        ));
        assert_eq!(schema.record_count(), 0, "the valid prefix was decremented");
        assert!(schema.lookup_field(schema.root(), "d").is_some(), "and nothing was pruned");
    }
}
