//! Pull parser over a vector-based record's tag stream.
//!
//! Everything that consumes vector records — materialization, schema
//! inference, compaction, and `getValues` — is built on this reader. It
//! walks the type-tag vector in DFS order, pulling fixed/varlen values and
//! field-name entries from their sections as tags demand them, which is the
//! linear-scan access model §3.3.1 describes.

use std::mem;

use tc_adm::{AdmError, ObjectType, TypeTag, Value};
use tc_schema::{FieldNameDictionary, FieldNameId};
use tc_util::bits::BitReader;

use crate::header::Header;

/// How a field is named in the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldName<'a> {
    /// Declared field: catalog index (the record stores no name).
    Declared(usize),
    /// Undeclared field in an uncompacted record: inline name bytes.
    Inferred(&'a str),
    /// Undeclared field in a compacted record: dictionary id.
    InferredId(FieldNameId),
}

impl<'a> FieldName<'a> {
    /// Resolve to a string using the declared type and/or dictionary.
    pub fn resolve<'b>(
        &self,
        declared: Option<&'b ObjectType>,
        dict: Option<&'b FieldNameDictionary>,
    ) -> Result<&'b str, AdmError>
    where
        'a: 'b,
    {
        match self {
            FieldName::Inferred(s) => Ok(s),
            FieldName::Declared(idx) => {
                declared.and_then(|t| t.field(*idx)).map(|f| f.name.as_str()).ok_or_else(|| {
                    AdmError::corrupt(format!("declared field index {idx} not in catalog type"))
                })
            }
            FieldName::InferredId(id) => dict.and_then(|d| d.name(*id)).ok_or_else(|| {
                AdmError::corrupt(format!("field name id {id} not in schema dictionary"))
            }),
        }
    }
}

/// One event from the tag stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Item<'a> {
    /// A container opens. `name` is present iff the parent is an object.
    Begin { tag: TypeTag, name: Option<FieldName<'a>> },
    /// A scalar value.
    Scalar { value: Value, name: Option<FieldName<'a>> },
    /// The current container closes.
    Close,
    /// End of the record.
    Eov,
}

/// [`Item`] with a scalar left as the bytes the record stores for it (its
/// fixed-length value, or the text of a string / the bytes of a binary):
/// what a consumer that moves values between records reads, so that no
/// `Value` — no `String` — is built per scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawItem<'a> {
    Begin { tag: TypeTag, name: Option<FieldName<'a>> },
    Scalar { tag: TypeTag, bytes: &'a [u8], name: Option<FieldName<'a>> },
    Close,
    Eov,
}

/// Streaming reader. Construct once per record; call [`VectorReader::next`]
/// until [`Item::Eov`]. A clone reads on from where the original stands.
#[derive(Clone)]
pub struct VectorReader<'a> {
    buf: &'a [u8],
    header: Header,
    tag_pos: usize,
    fixed_pos: usize,
    varlen_lens: BitReader<'a>,
    varlen_val_pos: usize,
    field_entries: BitReader<'a>,
    fieldname_val_pos: usize,
    /// Container nesting (object/array/multiset tags).
    stack: Vec<TypeTag>,
    finished: bool,
    /// Scratch stacks for [`VectorReader::materialize_container`], shared by
    /// every container the reader materializes.
    fields: Vec<(String, Value)>,
    items: Vec<Value>,
}

impl<'a> VectorReader<'a> {
    pub fn new(buf: &'a [u8]) -> Result<Self, AdmError> {
        let header = Header::read(buf)?;
        let rl = header.record_len as usize;
        let varlen_lens = BitReader::new(
            &buf[header.varlen_lengths_off as usize..header.varlen_values_off as usize],
        );
        let field_entries = BitReader::new(
            &buf[header.fieldname_lengths_off as usize..header.fieldname_lengths_end().min(rl)],
        );
        Ok(VectorReader {
            buf,
            fixed_pos: header.fixed_off(),
            varlen_val_pos: header.varlen_values_off as usize,
            fieldname_val_pos: header.fieldname_values_off as usize,
            tag_pos: header.tags_off(),
            varlen_lens,
            field_entries,
            header,
            stack: Vec::with_capacity(8),
            finished: false,
            fields: Vec::new(),
            items: Vec::new(),
        })
    }

    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Is the record compacted (names stripped into the schema structure)?
    pub fn is_compacted(&self) -> bool {
        self.header.is_compacted()
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    // `next` and `next_raw` each call this and `read_field_name` once. Forced:
    // with two callers LLVM stopped inlining them and `decode` slowed by 25 %.
    #[inline(always)]
    fn read_tag(&mut self) -> Result<TypeTag, AdmError> {
        let b = *self
            .buf
            .get(self.tag_pos)
            .ok_or_else(|| AdmError::corrupt("tag stream overran record"))?;
        self.tag_pos += 1;
        TypeTag::from_u8(b)
    }

    #[inline(always)]
    fn read_field_name(&mut self) -> Result<FieldName<'a>, AdmError> {
        let bits = self.header.fieldname_bits;
        let entry = self
            .field_entries
            .read(bits)
            .ok_or_else(|| AdmError::corrupt("field-name entries exhausted"))?;
        let declared = (entry >> (bits - 1)) & 1 == 1;
        let payload = entry & !(1u64 << (bits - 1));
        if declared {
            Ok(FieldName::Declared(payload as usize))
        } else if self.header.is_compacted() {
            Ok(FieldName::InferredId(payload as FieldNameId))
        } else {
            let len = payload as usize;
            let bytes = self
                .buf
                .get(self.fieldname_val_pos..self.fieldname_val_pos + len)
                .ok_or_else(|| AdmError::corrupt("field name bytes overran record"))?;
            self.fieldname_val_pos += len;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| AdmError::corrupt("invalid UTF-8 field name"))?;
            Ok(FieldName::Inferred(s))
        }
    }

    fn read_fixed(&mut self, n: usize) -> Result<&'a [u8], AdmError> {
        let bytes = self
            .buf
            .get(self.fixed_pos..self.fixed_pos + n)
            .ok_or_else(|| AdmError::corrupt("fixed values overran record"))?;
        self.fixed_pos += n;
        Ok(bytes)
    }

    fn read_scalar(&mut self, tag: TypeTag) -> Result<Value, AdmError> {
        scalar_value(tag, self.read_scalar_bytes(tag)?)
    }

    /// The bytes the record stores for the next scalar of type `tag`: its
    /// fixed-length value, or a string's text / a binary's bytes.
    fn read_scalar_bytes(&mut self, tag: TypeTag) -> Result<&'a [u8], AdmError> {
        if let Some(n) = tag.fixed_len() {
            return self.read_fixed(n);
        }
        let len =
            self.varlen_lens
                .read(self.header.varlen_bits)
                .ok_or_else(|| AdmError::corrupt("varlen lengths exhausted"))? as usize;
        let bytes = self
            .buf
            .get(self.varlen_val_pos..self.varlen_val_pos + len)
            .ok_or_else(|| AdmError::corrupt("varlen values overran record"))?;
        self.varlen_val_pos += len;
        Ok(bytes)
    }

    /// Pull the next event.
    #[allow(clippy::should_implement_trait)] // fallible pull-parser, not an Iterator
    pub fn next(&mut self) -> Result<Item<'a>, AdmError> {
        if self.finished {
            return Ok(Item::Eov);
        }
        let tag = self.read_tag()?;
        match tag {
            TypeTag::Eov => {
                if !self.stack.is_empty() {
                    return Err(AdmError::corrupt("EOV inside an open container"));
                }
                self.finished = true;
                Ok(Item::Eov)
            }
            TypeTag::CloseNested => {
                if self.stack.pop().is_none() {
                    return Err(AdmError::corrupt("close tag with no open container"));
                }
                Ok(Item::Close)
            }
            tag => {
                let name = if self.stack.last() == Some(&TypeTag::Object) {
                    Some(self.read_field_name()?)
                } else {
                    None
                };
                if tag.is_nested() {
                    self.stack.push(tag);
                    Ok(Item::Begin { tag, name })
                } else {
                    Ok(Item::Scalar { value: self.read_scalar(tag)?, name })
                }
            }
        }
    }

    /// Pull the next event, a scalar as its stored bytes. (A twin of `next`
    /// on purpose: routing both through one tag-stepping helper cost
    /// `decode` a fifth of its speed, `perfbench`'s `vector.decode_ns_per_rec`.)
    pub fn next_raw(&mut self) -> Result<RawItem<'a>, AdmError> {
        if self.finished {
            return Ok(RawItem::Eov);
        }
        let tag = self.read_tag()?;
        match tag {
            TypeTag::Eov => {
                if !self.stack.is_empty() {
                    return Err(AdmError::corrupt("EOV inside an open container"));
                }
                self.finished = true;
                Ok(RawItem::Eov)
            }
            TypeTag::CloseNested => {
                if self.stack.pop().is_none() {
                    return Err(AdmError::corrupt("close tag with no open container"));
                }
                Ok(RawItem::Close)
            }
            tag => {
                let name = if self.stack.last() == Some(&TypeTag::Object) {
                    Some(self.read_field_name()?)
                } else {
                    None
                };
                if tag.is_nested() {
                    self.stack.push(tag);
                    Ok(RawItem::Begin { tag, name })
                } else {
                    Ok(RawItem::Scalar { tag, bytes: self.read_scalar_bytes(tag)?, name })
                }
            }
        }
    }

    /// Consume events until the innermost open container closes. Scalars
    /// are read raw — no `Value` is built — but a string is still checked
    /// to be UTF-8.
    pub fn skip_container(&mut self) -> Result<(), AdmError> {
        let Some(target) = self.stack.len().checked_sub(1) else {
            return Err(AdmError::corrupt("no open container to skip"));
        };
        while self.stack.len() > target {
            match self.next_raw()? {
                RawItem::Eov => return Err(AdmError::corrupt("EOV while skipping container")),
                RawItem::Scalar { tag, bytes, .. } => check_scalar(tag, bytes)?,
                RawItem::Begin { .. } | RawItem::Close => {}
            }
        }
        Ok(())
    }

    /// Materialize the container just opened by a `Begin` event. Every
    /// container of the subtree is allocated once, at its exact size.
    pub fn materialize_container(
        &mut self,
        tag: TypeTag,
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
    ) -> Result<Value, AdmError> {
        let (mut fields, mut items) = (mem::take(&mut self.fields), mem::take(&mut self.items));
        let value = self.materialize_on(tag, declared, dict, &mut fields, &mut items);
        // An error leaves the children read so far behind.
        fields.clear();
        items.clear();
        (self.fields, self.items) = (fields, items);
        value
    }

    /// Collect one container's children on the shared scratch stacks, and
    /// at its close move them off the stacks into the container.
    fn materialize_on(
        &mut self,
        tag: TypeTag,
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
        fields: &mut Vec<(String, Value)>,
        items: &mut Vec<Value>,
    ) -> Result<Value, AdmError> {
        let (fields_start, items_start) = (fields.len(), items.len());
        loop {
            match self.next()? {
                Item::Close => break,
                Item::Eov => return Err(AdmError::corrupt("EOV inside container")),
                Item::Scalar { value, name } => match name {
                    Some(n) => fields.push((n.resolve(declared, dict)?.to_owned(), value)),
                    None => items.push(value),
                },
                Item::Begin { tag: child_tag, name } => {
                    // Nested objects resolve inferred names only (declared
                    // indexes are a root-object concept).
                    let v = self.materialize_on(child_tag, None, dict, fields, items)?;
                    match name {
                        Some(n) => fields.push((n.resolve(declared, dict)?.to_owned(), v)),
                        None => items.push(v),
                    }
                }
            }
        }
        // `collect` from a `Drain` allocates exactly its length.
        let value = match tag {
            TypeTag::Object => Value::Object(fields.drain(fields_start..).collect()),
            TypeTag::Array => Value::Array(items.drain(items_start..).collect()),
            TypeTag::Multiset => Value::Multiset(items.drain(items_start..).collect()),
            _ => return Err(AdmError::corrupt(format!("{} is not a container", tag.name()))),
        };
        // A child of the wrong kind (unnamed in an object, named in an
        // array) is dropped, not handed to the parent.
        fields.truncate(fields_start);
        items.truncate(items_start);
        Ok(value)
    }
}

/// The first `N` bytes of a fixed-width value, for `from_le_bytes`.
pub(crate) fn le<const N: usize>(bytes: &[u8]) -> Result<[u8; N], AdmError> {
    bytes
        .get(..N)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| AdmError::corrupt("fixed-width value cut short"))
}

/// `N` little-endian `f64`s (the spatial types).
fn f64s<const N: usize>(bytes: &[u8]) -> Result<[f64; N], AdmError> {
    let mut out = [0f64; N];
    for (i, x) in out.iter_mut().enumerate() {
        *x = f64::from_le_bytes(le(bytes.get(i * 8..).unwrap_or_default())?);
    }
    Ok(out)
}

/// The checks [`scalar_value`] makes of a scalar's stored bytes, without
/// building its value: a string must be UTF-8 (a fixed-width value's length
/// is checked as it is read).
#[inline]
pub(crate) fn check_scalar(tag: TypeTag, bytes: &[u8]) -> Result<(), AdmError> {
    if tag == TypeTag::String {
        std::str::from_utf8(bytes).map_err(|_| AdmError::corrupt("invalid UTF-8 string"))?;
    }
    Ok(())
}

/// The value of a scalar of type `tag` from the bytes the record stores for
/// it ([`RawItem::Scalar`]'s `bytes`). A container tag is a typed error.
#[inline]
pub fn scalar_value(tag: TypeTag, bytes: &[u8]) -> Result<Value, AdmError> {
    use TypeTag::*;
    Ok(match tag {
        Missing => Value::Missing,
        Null => Value::Null,
        Boolean => Value::Boolean(le::<1>(bytes)?[0] != 0),
        Int8 => Value::Int8(le::<1>(bytes)?[0] as i8),
        Int16 => Value::Int16(i16::from_le_bytes(le(bytes)?)),
        Int32 => Value::Int32(i32::from_le_bytes(le(bytes)?)),
        Date => Value::Date(i32::from_le_bytes(le(bytes)?)),
        Time => Value::Time(i32::from_le_bytes(le(bytes)?)),
        Int64 => Value::Int64(i64::from_le_bytes(le(bytes)?)),
        DateTime => Value::DateTime(i64::from_le_bytes(le(bytes)?)),
        Duration => Value::Duration(i64::from_le_bytes(le(bytes)?)),
        Float => Value::Float(f32::from_le_bytes(le(bytes)?)),
        Double => Value::Double(f64::from_le_bytes(le(bytes)?)),
        Uuid => Value::Uuid(le(bytes)?),
        Point => {
            let [x, y] = f64s(bytes)?;
            Value::Point(x, y)
        }
        Line => Value::Line(f64s(bytes)?),
        Rectangle => Value::Rectangle(f64s(bytes)?),
        Circle => Value::Circle(f64s(bytes)?),
        String => Value::String(
            std::str::from_utf8(bytes)
                .map_err(|_| AdmError::corrupt("invalid UTF-8 string"))?
                .to_owned(),
        ),
        Binary => Value::Binary(bytes.to_vec()),
        Object | Array | Multiset | CloseNested | Eov => {
            return Err(AdmError::corrupt(format!("{} is not a scalar", tag.name())))
        }
    })
}

/// Materialize a whole record (compacted or not). `declared` resolves
/// declared-index field names; `dict` resolves compacted FieldNameIDs.
pub fn decode(
    buf: &[u8],
    declared: Option<&ObjectType>,
    dict: Option<&FieldNameDictionary>,
) -> Result<Value, AdmError> {
    let mut r = VectorReader::new(buf)?;
    let value = match r.next()? {
        Item::Begin { tag, .. } => r.materialize_container(tag, declared, dict)?,
        Item::Scalar { value, .. } => value,
        Item::Close => return Err(AdmError::corrupt("record starts with close tag")),
        Item::Eov => return Err(AdmError::corrupt("empty record")),
    };
    match r.next()? {
        Item::Eov => Ok(value),
        _ => Err(AdmError::corrupt("trailing values after root")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use tc_adm::datatype::FieldDef;
    use tc_adm::{parse, TypeKind};

    fn emp_type() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    #[test]
    fn roundtrip_plain() {
        let v =
            parse(r#"{"id": 6, "name": "Ann", "salaries": [70000, 90000], "age": 26}"#).unwrap();
        let buf = encode(&v, None);
        assert_eq!(decode(&buf, None, None).unwrap(), v);
    }

    #[test]
    fn roundtrip_with_declared_root_field() {
        let t = emp_type();
        let v = parse(r#"{"id": 6, "name": "Ann", "age": 26}"#).unwrap();
        let buf = encode(&v, Some(&t));
        assert_eq!(decode(&buf, Some(&t), None).unwrap(), v);
        // Without the catalog type, declared indexes cannot resolve.
        assert!(decode(&buf, None, None).is_err());
    }

    #[test]
    fn roundtrip_paper_appendix_b() {
        let v = parse(
            r#"{
            "id": 1, "name": "Ann",
            "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10},
                             "Not_Available" }},
            "employment_date": date("2018-09-20"),
            "branch_location": point(24.0, -56.12)
        }"#,
        )
        .unwrap();
        let buf = encode(&v, None);
        assert_eq!(decode(&buf, None, None).unwrap(), v);
    }

    #[test]
    fn events_follow_dfs() {
        let v = parse(r#"{"a": 1, "b": [true, {"c": "x"}]}"#).unwrap();
        let buf = encode(&v, None);
        let mut r = VectorReader::new(&buf).unwrap();
        // root
        assert!(matches!(r.next().unwrap(), Item::Begin { tag: TypeTag::Object, name: None }));
        match r.next().unwrap() {
            Item::Scalar { value: Value::Int64(1), name: Some(FieldName::Inferred("a")) } => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            r.next().unwrap(),
            Item::Begin { tag: TypeTag::Array, name: Some(FieldName::Inferred("b")) }
        ));
        assert!(matches!(
            r.next().unwrap(),
            Item::Scalar { value: Value::Boolean(true), name: None }
        ));
        assert!(matches!(r.next().unwrap(), Item::Begin { tag: TypeTag::Object, name: None }));
        assert!(matches!(
            r.next().unwrap(),
            Item::Scalar { name: Some(FieldName::Inferred("c")), .. }
        ));
        assert!(matches!(r.next().unwrap(), Item::Close)); // inner object
        assert!(matches!(r.next().unwrap(), Item::Close)); // array
        assert!(matches!(r.next().unwrap(), Item::Close)); // root
        assert!(matches!(r.next().unwrap(), Item::Eov));
        // Reader stays at EOV.
        assert!(matches!(r.next().unwrap(), Item::Eov));
    }

    #[test]
    fn skip_container_consumes_subtree() {
        let v = parse(r#"{"big": {"x": [1, 2, 3], "y": "s"}, "after": 7}"#).unwrap();
        let buf = encode(&v, None);
        let mut r = VectorReader::new(&buf).unwrap();
        r.next().unwrap(); // root begin
        match r.next().unwrap() {
            Item::Begin { .. } => r.skip_container().unwrap(),
            other => panic!("{other:?}"),
        }
        match r.next().unwrap() {
            Item::Scalar { value: Value::Int64(7), name: Some(FieldName::Inferred("after")) } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_scalar_types_roundtrip() {
        let v = parse(
            r#"{"a": null, "b": true, "c": 5i8, "d": 300i16, "e": 70000i32, "f": 5000000000,
                "g": 1.5f, "h": 2.5, "i": "str", "j": binary("00ff"),
                "k": date("2020-01-01"), "l": time("12:00:00"),
                "m": datetime("2020-01-01T12:00:00"), "n": duration(99),
                "o": uuid("00112233-4455-6677-8899-aabbccddeeff"),
                "p": point(1.0, 2.0), "q": line(0.0, 0.0, 1.0, 1.0),
                "r": rectangle(0.0, 0.0, 2.0, 2.0), "s": circle(0.0, 0.0, 1.0)}"#,
        )
        .unwrap();
        let buf = encode(&v, None);
        assert_eq!(decode(&buf, None, None).unwrap(), v);
    }

    #[test]
    fn corrupt_records_error_not_panic() {
        let v = parse(r#"{"a": [1, "xy"], "b": 2}"#).unwrap();
        let buf = encode(&v, None);
        assert!(decode(&buf[..10], None, None).is_err());
        let mut bad = buf.clone();
        bad[crate::header::HEADER_LEN] = 99; // bogus root tag
        assert!(decode(&bad, None, None).is_err());
    }

    /// `decode` allocates every container it returns at its exact size, at
    /// every depth, for raw and compacted records alike.
    #[test]
    fn decoded_containers_have_exact_capacity() {
        fn check(v: &Value) {
            match v {
                Value::Object(fields) => {
                    assert_eq!(fields.capacity(), fields.len(), "{v:?}");
                    fields.iter().for_each(|(_, c)| check(c));
                }
                Value::Array(items) | Value::Multiset(items) => {
                    assert_eq!(items.capacity(), items.len(), "{v:?}");
                    items.iter().for_each(check);
                }
                _ => {}
            }
        }
        let long: Vec<String> =
            (0..37).map(|i| format!("{{\"t\": {i}.5, \"k\": [{i}]}}")).collect();
        let wide: Vec<String> = (0..21).map(|i| format!("\"f{i}\": {i}")).collect();
        let src = format!(
            r#"{{"id": 1, "readings": [{}], "w": {{{}}}, "e": [], "o": {{}},
                "m": {{{{ [1, [2, [3, 4, 5]]], {{"x": {{{{}}}}}} }}}}, "s": "x"}}"#,
            long.join(", "),
            wide.join(", ")
        );
        let v = parse(&src).unwrap();
        let raw = encode(&v, None);
        let mut schema = tc_schema::Schema::new();
        let compacted = crate::compact::infer_and_compact(&raw, &mut schema).unwrap();
        for (buf, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
            let decoded = decode(buf, None, dict).unwrap();
            assert_eq!(decoded, v);
            check(&decoded);
        }
    }

    #[test]
    fn empty_containers() {
        for src in ["{}", r#"{"a": []}"#, r#"{"a": {{}}}"#, r#"{"a": {}}"#] {
            let v = parse(src).unwrap();
            let buf = encode(&v, None);
            assert_eq!(decode(&buf, None, None).unwrap(), v, "src={src}");
        }
    }
}
