//! Encode a [`Value`] into an *uncompacted* vector-based record.
//!
//! This is the format records take in the in-memory component (the paper
//! §3.1 deliberately leaves in-memory records uncompacted) and in the SL-VB
//! ablation of Fig 21. Declared root fields store a flagged catalog *index*
//! in the field-name lengths vector instead of a name (Fig 13's `id`).
//!
//! [`encode`] is on every write's path, so it allocates once per record:
//! the six sections are filled into per-thread buffers kept between
//! records, and assembly packs them straight into the exact-size output.

use std::cell::RefCell;

use tc_adm::{AdmError, ObjectType, TypeTag, Value, MAX_NESTING};
use tc_util::bits::BitWriter;
use tc_util::bytes_for_bits;

use crate::header::{entry_bits, Header, HEADER_LEN};
use crate::reader::FieldName;

/// One entry of the field-names lengths sub-vector before bit packing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldEntry {
    /// Set ⇒ `payload` is a declared-field catalog index; clear ⇒ `payload`
    /// is the byte length of a name stored in the values sub-vector (or a
    /// FieldNameID after compaction).
    pub declared: bool,
    pub payload: u64,
}

/// A record under construction: one accumulator per section of the format.
/// [`encode`] fills it from a `Value`; a caller that already has a record's
/// items ([`RawItem`](crate::reader::RawItem)s of another record, say) fills
/// it item by item — [`begin`](Self::begin), [`scalar`](Self::scalar),
/// [`close`](Self::close) in the tag stream's order, root container first —
/// and assembles with [`finish_into`](Self::finish_into).
#[derive(Debug, Default)]
pub struct Sections {
    pub(crate) tags: Vec<u8>,
    pub(crate) fixed: Vec<u8>,
    pub(crate) varlen_lengths: Vec<u64>,
    pub(crate) varlen_values: Vec<u8>,
    pub(crate) field_entries: Vec<FieldEntry>,
    pub(crate) fieldname_values: Vec<u8>,
}

impl Sections {
    /// A field's entry in the field-name vector: a declared index, a
    /// dictionary id (a compacted record) or an inline name (an uncompacted
    /// one — a record holds ids or names, never both).
    fn name(&mut self, name: FieldName<'_>) {
        let (declared, payload) = match name {
            FieldName::Declared(idx) => (true, idx as u64),
            FieldName::InferredId(id) => (false, id as u64),
            FieldName::Inferred(name) => {
                self.fieldname_values.extend_from_slice(name.as_bytes());
                (false, name.len() as u64)
            }
        };
        self.field_entries.push(FieldEntry { declared, payload });
    }

    /// Open a container; `name` iff its parent is an object.
    pub fn begin(&mut self, tag: TypeTag, name: Option<FieldName<'_>>) {
        debug_assert!(tag.is_nested());
        self.tags.push(tag as u8);
        if let Some(name) = name {
            self.name(name);
        }
    }

    /// Append a scalar given as the bytes a record stores for it.
    pub fn scalar(&mut self, tag: TypeTag, bytes: &[u8], name: Option<FieldName<'_>>) {
        self.tags.push(tag as u8);
        if let Some(name) = name {
            self.name(name);
        }
        if tag.is_variable_scalar() {
            self.varlen_lengths.push(bytes.len() as u64);
            self.varlen_values.extend_from_slice(bytes);
        } else {
            debug_assert_eq!(tag.fixed_len(), Some(bytes.len()));
            self.fixed.extend_from_slice(bytes);
        }
    }

    /// Close the innermost open container.
    pub fn close(&mut self) {
        self.tags.push(TypeTag::CloseNested as u8);
    }

    /// End the record, append it to `out`, and empty the accumulator for the
    /// next one. `compacted` ⇔ its inferred names were given as ids.
    pub fn finish_into(&mut self, compacted: bool, out: &mut Vec<u8>) {
        debug_assert!(!compacted || self.fieldname_values.is_empty());
        self.tags.push(TypeTag::Eov as u8);
        self.assemble_into(compacted, out);
        self.tags.clear();
        self.fixed.clear();
        self.varlen_lengths.clear();
        self.varlen_values.clear();
        self.field_entries.clear();
        self.fieldname_values.clear();
    }

    /// Append the final record to `out`, packing the two bit-packed
    /// sections straight into it. `compacted` controls the fourth header
    /// offset (zero ⇒ names live in the schema structure).
    fn assemble_into(&self, compacted: bool, out: &mut Vec<u8>) {
        let varlen_bits = entry_bits(self.varlen_lengths.iter().copied().max().unwrap_or(0), false);
        let fieldname_bits =
            entry_bits(self.field_entries.iter().map(|e| e.payload).max().unwrap_or(0), true);

        let tags_len = self.tags.len();
        let fixed_off = HEADER_LEN + tags_len;
        let varlen_lengths_off = fixed_off + self.fixed.len();
        let varlen_values_off =
            varlen_lengths_off + bytes_for_bits(self.varlen_lengths.len() * varlen_bits as usize);
        let fieldname_lengths_off = varlen_values_off + self.varlen_values.len();
        let fieldname_values_off = fieldname_lengths_off
            + bytes_for_bits(self.field_entries.len() * fieldname_bits as usize);
        let record_len =
            fieldname_values_off + if compacted { 0 } else { self.fieldname_values.len() };

        let header = Header {
            record_len: record_len as u32,
            tag_count: tags_len as u32,
            varlen_bits,
            fieldname_bits,
            varlen_lengths_off: varlen_lengths_off as u32,
            varlen_values_off: varlen_values_off as u32,
            fieldname_lengths_off: fieldname_lengths_off as u32,
            fieldname_values_off: if compacted { 0 } else { fieldname_values_off as u32 },
        };
        let start = out.len();
        out.reserve(record_len);
        header.write(out);
        out.extend_from_slice(&self.tags);
        out.extend_from_slice(&self.fixed);
        pack(out, self.varlen_lengths.iter().copied(), varlen_bits);
        out.extend_from_slice(&self.varlen_values);
        pack_field_entries(out, &self.field_entries, fieldname_bits);
        if !compacted {
            out.extend_from_slice(&self.fieldname_values);
        }
        debug_assert_eq!(out.len() - start, record_len);
    }

    /// Bytes of capacity held, across all sections.
    fn capacity_bytes(&self) -> usize {
        self.tags.capacity()
            + self.fixed.capacity()
            + self.varlen_lengths.capacity() * 8
            + self.varlen_values.capacity()
            + self.field_entries.capacity() * std::mem::size_of::<FieldEntry>()
            + self.fieldname_values.capacity()
    }
}

/// Append `values`, `bits` wide each, to `out` from its next byte boundary.
fn pack(out: &mut Vec<u8>, values: impl Iterator<Item = u64>, bits: u8) {
    let mut w = BitWriter::appending_to(std::mem::take(out));
    for v in values {
        w.write(v, bits);
    }
    *out = w.into_bytes();
}

/// Append a field-name section: each entry `bits` wide, the declared flag
/// in its top bit.
pub(crate) fn pack_field_entries(out: &mut Vec<u8>, entries: &[FieldEntry], bits: u8) {
    let flag = 1u64 << (bits - 1);
    pack(out, entries.iter().map(|e| if e.declared { flag | e.payload } else { e.payload }), bits);
}

/// Section capacity an encoding thread keeps between records; a larger
/// record's buffers are dropped after it.
const RETAINED_SECTION_BYTES: usize = 1 << 20;

thread_local! {
    /// The section buffers [`encode`] fills, reused record after record.
    static SECTIONS: RefCell<Sections> = RefCell::default();
}

/// Encode a record. `declared` is the dataset's declared type: declared
/// *root* fields are stored by index (their names/types live in the
/// catalog); everything else is self-described inline. Any depth is
/// written; [`try_encode`] is the walk that refuses one past the cap.
pub fn encode(value: &Value, declared: Option<&ObjectType>) -> Vec<u8> {
    // No `Value` nests `usize::MAX` containers deep: this cannot fail.
    encode_within(value, declared, usize::MAX).unwrap_or_default()
}

/// [`encode`] a record on its way into storage: one that nests more than
/// [`MAX_NESTING`] containers deep is a type-check error, found by the same
/// walk that encodes it, since every reader of a stored record recurses
/// per level.
pub fn try_encode(value: &Value, declared: Option<&ObjectType>) -> Result<Vec<u8>, AdmError> {
    encode_within(value, declared, MAX_NESTING)
}

/// [`encode`], with room for `room` container levels.
fn encode_within(
    value: &Value,
    declared: Option<&ObjectType>,
    room: usize,
) -> Result<Vec<u8>, AdmError> {
    SECTIONS.with_borrow_mut(|s| {
        let written = write_value(value, declared, true, room, s);
        let mut out = Vec::new();
        s.finish_into(false, &mut out);
        if s.capacity_bytes() > RETAINED_SECTION_BYTES {
            *s = Sections::default();
        }
        written.map(|()| out)
    })
}

/// Append `value` to `s`, inside `room` more container levels at most.
fn write_value(
    value: &Value,
    declared: Option<&ObjectType>,
    is_root: bool,
    room: usize,
    s: &mut Sections,
) -> Result<(), AdmError> {
    let inner = match value {
        Value::Array(_) | Value::Multiset(_) | Value::Object(_) => {
            room.checked_sub(1).ok_or_else(AdmError::nests_too_deep)?
        }
        _ => room,
    };
    s.tags.push(value.type_tag() as u8);
    match value {
        Value::Missing | Value::Null => {}
        Value::Boolean(b) => s.fixed.push(*b as u8),
        Value::Int8(v) => s.fixed.push(*v as u8),
        Value::Int16(v) => s.fixed.extend_from_slice(&v.to_le_bytes()),
        Value::Int32(v) | Value::Date(v) | Value::Time(v) => {
            s.fixed.extend_from_slice(&v.to_le_bytes())
        }
        Value::Int64(v) | Value::DateTime(v) | Value::Duration(v) => {
            s.fixed.extend_from_slice(&v.to_le_bytes())
        }
        Value::Float(v) => s.fixed.extend_from_slice(&v.to_le_bytes()),
        Value::Double(v) => s.fixed.extend_from_slice(&v.to_le_bytes()),
        Value::Uuid(b) => s.fixed.extend_from_slice(b),
        Value::Point(x, y) => {
            s.fixed.extend_from_slice(&x.to_le_bytes());
            s.fixed.extend_from_slice(&y.to_le_bytes());
        }
        Value::Line(a) | Value::Rectangle(a) => {
            for f in a.iter() {
                s.fixed.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::Circle(a) => {
            for f in a.iter() {
                s.fixed.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::String(v) => {
            s.varlen_lengths.push(v.len() as u64);
            s.varlen_values.extend_from_slice(v.as_bytes());
        }
        Value::Binary(v) => {
            s.varlen_lengths.push(v.len() as u64);
            s.varlen_values.extend_from_slice(v);
        }
        Value::Array(items) | Value::Multiset(items) => {
            for item in items {
                write_value(item, None, false, inner, s)?;
            }
            s.tags.push(TypeTag::CloseNested as u8);
        }
        Value::Object(fields) => {
            for (name, v) in fields {
                // Declared-index resolution applies to the root object only
                // (nested declared types are a closed-format concern; the
                // inferred path self-describes nested fields — §3.3.1).
                let decl_idx =
                    if is_root { declared.and_then(|t| t.field_index(name)) } else { None };
                s.name(decl_idx.map_or(FieldName::Inferred(name), FieldName::Declared));
                write_value(v, None, false, inner, s)?;
            }
            s.tags.push(TypeTag::CloseNested as u8);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use tc_adm::datatype::FieldDef;
    use tc_adm::parse;
    use tc_adm::TypeKind;

    #[test]
    fn fig13_shape() {
        // {"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26}
        // with `id` declared: 10 tags (paper counts 9 + EOV as one stream;
        // our dedicated close tag gives object,int,string,array,int,int,
        // close(array),int,close(root),EOV).
        let t = ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }]);
        let v =
            parse(r#"{"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26}"#).unwrap();
        let buf = encode(&v, Some(&t));
        let h = Header::read(&buf).unwrap();
        assert_eq!(h.tag_count, 10);
        assert_eq!(h.record_len as usize, buf.len());
        // Fixed values: id(8) + two salaries(8+8) + age(8) = 32 bytes.
        assert_eq!(h.varlen_lengths_off as usize - h.fixed_off(), 32);
        // One varlen value: "Ann" (3 bytes).
        assert_eq!(h.fieldname_lengths_off - h.varlen_values_off, 3);
        // Field name values: "name" + "salaries" + "age" = 15 bytes
        // ("id" is declared → index only).
        assert_eq!(h.record_len - h.fieldname_values_off, 15);
        assert!(!h.is_compacted());
        // Widths: max varlen 3 → 2 bits; max fieldname payload 8 → 4+1 bits.
        assert_eq!(h.varlen_bits, 2);
        assert_eq!(h.fieldname_bits, 5);
    }

    #[test]
    fn tag_stream_is_dfs_with_close_controls() {
        let v = parse(r#"{"a": [1, "x"], "b": {"c": true}}"#).unwrap();
        let buf = encode(&v, None);
        let h = Header::read(&buf).unwrap();
        let tags: Vec<TypeTag> = buf[h.tags_off()..h.fixed_off()]
            .iter()
            .map(|&b| TypeTag::from_u8(b).unwrap())
            .collect();
        use TypeTag::*;
        assert_eq!(
            tags,
            vec![
                Object,
                Array,
                Int64,
                String,
                CloseNested,
                Object,
                Boolean,
                CloseNested,
                CloseNested,
                Eov
            ]
        );
    }

    #[test]
    fn empty_object_is_three_tags() {
        let v = parse("{}").unwrap();
        let buf = encode(&v, None);
        let h = Header::read(&buf).unwrap();
        assert_eq!(h.tag_count, 3); // object, close, EOV
        assert_eq!(h.record_len as usize, buf.len());
    }

    /// A name of 16 KiB or more needs a 15+-bit length: its entry used to
    /// be written one bit wider than the header could say, so the record
    /// did not decode. The 32-bit escape now includes the flag bit.
    #[test]
    fn long_field_names_escape_to_32_bit_entries() {
        let t = ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }]);
        for len in [16_383, 16_384, 40_000] {
            let long = "n".repeat(len);
            let v = Value::object([("id", Value::Int64(1)), (long.as_str(), Value::Int64(2))]);
            let buf = encode(&v, Some(&t));
            let h = Header::read(&buf).unwrap();
            assert_eq!(h.fieldname_bits, if len < 16_384 { 15 } else { 32 }, "len {len}");
            assert_eq!(crate::reader::decode(&buf, Some(&t), None).unwrap(), v, "len {len}");
        }
    }

    /// `try_encode` writes exactly what `encode` does for a record at most
    /// `MAX_NESTING` containers deep, and refuses a deeper one — sunk under
    /// the root through arrays, multisets and objects — as a type-check
    /// error; what the refused walk left in the section buffers does not
    /// reach the next record. `TC_FAULT_SEED` reseeds the records so CI can
    /// loop it.
    #[test]
    fn try_encode_refuses_past_the_cap() {
        use proptest::strategy::Strategy;
        use rand::{Rng, SeedableRng};

        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x7E0);
        eprintln!("try_encode_refuses_past_the_cap: TC_FAULT_SEED={seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let records = crate::access::tests::arb_record();
        for _ in 0..64 {
            let depth = MAX_NESTING - 2 + rng.gen_range(0usize..4);
            let mut deep = records.new_value(&mut rng);
            while deep.max_depth() < depth {
                deep = match rng.gen_range(0..3) {
                    0 => Value::Array(vec![Value::Null, deep]),
                    1 => Value::Multiset(vec![deep]),
                    _ => Value::object([("a", deep), ("b", Value::Int64(1))]),
                };
            }
            let record = Value::object([("id", Value::Int64(1)), ("deep", deep)]);
            let got = try_encode(&record, None);
            if record.max_depth() <= MAX_NESTING {
                assert_eq!(got.unwrap(), encode(&record, None), "TC_FAULT_SEED={seed}");
            } else {
                let err = got.unwrap_err();
                assert!(matches!(err, AdmError::TypeCheck(_)), "{err:?} (TC_FAULT_SEED={seed})");
            }
            let next = records.new_value(&mut rng);
            assert_eq!(try_encode(&next, None).unwrap(), encode(&next, None));
        }
    }

    #[test]
    fn long_strings_use_wide_length_entries() {
        let long = "x".repeat(100_000); // needs >15 bits → escape to 32
        let v = Value::object([("s", Value::String(long))]);
        let buf = encode(&v, None);
        let h = Header::read(&buf).unwrap();
        assert_eq!(h.varlen_bits, 32);
    }
}
