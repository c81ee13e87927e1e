//! Encode a [`Value`] into an *uncompacted* vector-based record.
//!
//! This is the format records take in the in-memory component (the paper
//! §3.1 deliberately leaves in-memory records uncompacted) and in the SL-VB
//! ablation of Fig 21. Declared root fields store a flagged catalog *index*
//! in the field-name lengths vector instead of a name (Fig 13's `id`).

use tc_adm::{ObjectType, TypeTag, Value};
use tc_util::bits::BitWriter;
use tc_util::{bit_width, bytes_for_bits};

use crate::header::{Header, HEADER_LEN};
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

    /// Append the final record to `out`. `compacted` controls the fourth
    /// header offset (zero ⇒ names live in the schema structure).
    fn assemble_into(&self, compacted: bool, out: &mut Vec<u8>) {
        let varlen_bits = effective_width(self.varlen_lengths.iter().copied().max().unwrap_or(0));
        let fieldname_bits =
            1 + effective_width(self.field_entries.iter().map(|e| e.payload).max().unwrap_or(0));
        // Field entries pack flag in the top bit of each entry.
        let fieldname_bits = fieldname_bits.clamp(2, 33);

        let mut varlen_len_packed = BitWriter::new();
        for &len in &self.varlen_lengths {
            varlen_len_packed.write(len, varlen_bits);
        }
        let varlen_len_bytes = varlen_len_packed.into_bytes();
        debug_assert_eq!(
            varlen_len_bytes.len(),
            bytes_for_bits(self.varlen_lengths.len() * varlen_bits as usize)
        );

        let mut fn_packed = BitWriter::new();
        for e in &self.field_entries {
            let v = ((e.declared as u64) << (fieldname_bits - 1)) | e.payload;
            fn_packed.write(v, fieldname_bits);
        }
        let fn_len_bytes = fn_packed.into_bytes();

        let tags_len = self.tags.len();
        let fixed_off = HEADER_LEN + tags_len;
        let varlen_lengths_off = fixed_off + self.fixed.len();
        let varlen_values_off = varlen_lengths_off + varlen_len_bytes.len();
        let fieldname_lengths_off = varlen_values_off + self.varlen_values.len();
        let fieldname_values_off = fieldname_lengths_off + fn_len_bytes.len();
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
        out.extend_from_slice(&varlen_len_bytes);
        out.extend_from_slice(&self.varlen_values);
        out.extend_from_slice(&fn_len_bytes);
        if !compacted {
            out.extend_from_slice(&self.fieldname_values);
        }
        debug_assert_eq!(out.len() - start, record_len);
    }
}

/// Width, with the nibble escape: anything over 15 bits is stored as 32.
fn effective_width(max_value: u64) -> u8 {
    let w = bit_width(max_value);
    if w > 15 {
        32
    } else {
        w
    }
}

/// Encode a record. `declared` is the dataset's declared type: declared
/// *root* fields are stored by index (their names/types live in the
/// catalog); everything else is self-described inline.
pub fn encode(value: &Value, declared: Option<&ObjectType>) -> Vec<u8> {
    let mut s = Sections::default();
    write_value(value, declared, true, &mut s);
    s.tags.push(TypeTag::Eov as u8);
    let mut out = Vec::new();
    s.assemble_into(false, &mut out);
    out
}

fn write_value(value: &Value, declared: Option<&ObjectType>, is_root: bool, s: &mut Sections) {
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
            for f in a {
                s.fixed.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::Circle(a) => {
            for f in a {
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
                write_value(item, None, false, s);
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
                write_value(v, None, false, s);
            }
            s.tags.push(TypeTag::CloseNested as u8);
        }
    }
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

    #[test]
    fn long_strings_use_wide_length_entries() {
        let long = "x".repeat(100_000); // needs >15 bits → escape to 32
        let v = Value::object([("s", Value::String(long))]);
        let buf = encode(&v, None);
        let h = Header::read(&buf).unwrap();
        assert_eq!(h.varlen_bits, 32);
    }
}
