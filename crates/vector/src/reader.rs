//! The cursor over a vector-based record's tag stream.
//!
//! Everything that consumes vector records — materialization, schema
//! inference, compaction, `getValues`, zone extraction and the amax
//! shredder — steps this one cursor. It walks the type-tag vector in DFS
//! order, pulling fixed/varlen values and field-name entries from their
//! sections as tags demand them, which is the linear-scan access model
//! §3.3.1 describes.
//!
//! The cursor is table-driven: a `const` 256-entry table classifies each
//! tag byte once (fixed width *n*, varlen, nested, close, EOV or invalid),
//! so a step is one load and a branch on the class. Each section's position
//! is a plain field, and which open containers are objects (whose children
//! carry a field name) is a bit stack of [`MAX_NESTING`] bits: a tag stream
//! nested deeper is corrupt, so every recursion over a decoded value is
//! bounded too. [`VectorReader::next_raw`] is one step;
//! [`VectorReader::skip_container`] is its own loop over the same
//! primitives that builds no event but reads every field entry, checks
//! every bound and validates every skipped string; [`decode`] materializes
//! over the primitives as well.

use std::mem;

use tc_adm::{AdmError, ObjectType, TypeTag, Value, MAX_NESTING};
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

/// One event from the tag stream, a scalar left as the bytes the record
/// stores for it (its fixed-length value, or the text of a string / the
/// bytes of a binary): [`scalar_value`] builds its `Value` when one is
/// wanted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawItem<'a> {
    /// A container opens. `name` is present iff the parent is an object.
    Begin { tag: TypeTag, name: Option<FieldName<'a>> },
    /// A scalar value.
    Scalar { tag: TypeTag, bytes: &'a [u8], name: Option<FieldName<'a>> },
    /// The current container closes.
    Close,
    /// End of the record.
    Eov,
}

/// A tag byte, classified: what the cursor reads for it.
#[derive(Clone, Copy)]
pub(crate) struct Token {
    pub(crate) tag: TypeTag,
    pub(crate) class: Class,
}

/// How the cursor reads what a tag stands for.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// A scalar of this many bytes in the fixed-values section.
    Fixed(u8),
    /// A string or binary: a length entry and its bytes.
    Varlen,
    Nested,
    Close,
    Eov,
    Invalid,
}

/// Every tag byte's class, built at compile time from [`TypeTag`].
const TOKENS: [Token; 256] = {
    let mut table = [Token { tag: TypeTag::Eov, class: Class::Invalid }; 256];
    let mut b = 0;
    while b < 256 {
        if let Some(tag) = TypeTag::from_byte(b as u8) {
            let class = match tag {
                TypeTag::CloseNested => Class::Close,
                TypeTag::Eov => Class::Eov,
                _ if tag.is_nested() => Class::Nested,
                _ => match tag.fixed_len() {
                    Some(n) => Class::Fixed(n as u8),
                    None => Class::Varlen,
                },
            };
            table[b] = Token { tag, class };
        }
        b += 1;
    }
    table
};

/// One bit per nesting level: is the container open there an object?
type ObjectBits = [u64; MAX_NESTING.div_ceil(64)];

/// A typed corruption, kept out of line so the stepping code stays small.
#[cold]
#[inline(never)]
fn corrupt(msg: &'static str) -> AdmError {
    AdmError::corrupt(msg)
}

#[cold]
#[inline(never)]
fn unknown_tag(b: u8) -> AdmError {
    AdmError::corrupt(format!("unknown type tag byte {b}"))
}

/// The cursor. Construct once per record; call [`VectorReader::next_raw`]
/// until [`RawItem::Eov`]. A clone reads on from where the original stands.
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
    /// Open containers, and which of them are objects.
    depth: usize,
    objects: ObjectBits,
    /// Is the innermost open container an object?
    in_object: bool,
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
            depth: 0,
            objects: [0; MAX_NESTING.div_ceil(64)],
            in_object: false,
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
        self.depth
    }

    /// The next tag byte, classified.
    #[inline(always)]
    pub(crate) fn token(&mut self) -> Result<Token, AdmError> {
        let b = *self.buf.get(self.tag_pos).ok_or_else(|| corrupt("tag stream overran record"))?;
        self.tag_pos += 1;
        let token = TOKENS[b as usize];
        if token.class == Class::Invalid {
            return Err(unknown_tag(b));
        }
        Ok(token)
    }

    /// The field name of the child just tagged: `None` unless the innermost
    /// open container is an object.
    #[inline(always)]
    pub(crate) fn field_name(&mut self) -> Result<Option<FieldName<'a>>, AdmError> {
        if !self.in_object {
            return Ok(None);
        }
        let bits = self.header.fieldname_bits;
        let entry =
            self.field_entries.read(bits).ok_or_else(|| corrupt("field-name entries exhausted"))?;
        let flag = 1u64 << (bits - 1);
        Ok(Some(if entry & flag != 0 {
            FieldName::Declared((entry & !flag) as usize)
        } else if self.header.is_compacted() {
            FieldName::InferredId(entry as FieldNameId)
        } else {
            let len = entry as usize;
            let bytes = self
                .buf
                .get(self.fieldname_val_pos..self.fieldname_val_pos + len)
                .ok_or_else(|| corrupt("field name bytes overran record"))?;
            self.fieldname_val_pos += len;
            FieldName::Inferred(
                std::str::from_utf8(bytes).map_err(|_| corrupt("invalid UTF-8 field name"))?,
            )
        }))
    }

    /// The stored bytes of a scalar of class `class` (fixed or varlen).
    #[inline(always)]
    pub(crate) fn value(&mut self, class: Class) -> Result<&'a [u8], AdmError> {
        if let Class::Fixed(n) = class {
            let end = self.fixed_pos + n as usize;
            let bytes = self
                .buf
                .get(self.fixed_pos..end)
                .ok_or_else(|| corrupt("fixed values overran record"))?;
            self.fixed_pos = end;
            return Ok(bytes);
        }
        let len = self
            .varlen_lens
            .read(self.header.varlen_bits)
            .ok_or_else(|| corrupt("varlen lengths exhausted"))? as usize;
        let end = self.varlen_val_pos + len;
        let bytes = self
            .buf
            .get(self.varlen_val_pos..end)
            .ok_or_else(|| corrupt("varlen values overran record"))?;
        self.varlen_val_pos = end;
        Ok(bytes)
    }

    /// Enter a container of type `tag`.
    #[inline(always)]
    pub(crate) fn open(&mut self, tag: TypeTag) -> Result<(), AdmError> {
        let d = self.depth;
        if d == MAX_NESTING {
            return Err(corrupt("containers nested deeper than MAX_NESTING"));
        }
        let (word, bit) = (d / 64, 1u64 << (d % 64));
        self.in_object = tag == TypeTag::Object;
        if self.in_object {
            self.objects[word] |= bit;
        } else {
            self.objects[word] &= !bit;
        }
        self.depth = d + 1;
        Ok(())
    }

    /// Leave the innermost open container.
    #[inline(always)]
    pub(crate) fn close(&mut self) -> Result<(), AdmError> {
        let Some(d) = self.depth.checked_sub(1) else {
            return Err(corrupt("close tag with no open container"));
        };
        self.depth = d;
        self.in_object = d > 0 && self.objects[(d - 1) / 64] >> ((d - 1) % 64) & 1 == 1;
        Ok(())
    }

    /// Pull the next event: one step of the cursor.
    #[inline(always)]
    pub fn next_raw(&mut self) -> Result<RawItem<'a>, AdmError> {
        if self.finished {
            return Ok(RawItem::Eov);
        }
        let Token { tag, class } = self.token()?;
        match class {
            Class::Close => {
                self.close()?;
                Ok(RawItem::Close)
            }
            Class::Eov if self.depth == 0 => {
                self.finished = true;
                Ok(RawItem::Eov)
            }
            Class::Eov => Err(corrupt("EOV inside an open container")),
            Class::Nested => {
                let name = self.field_name()?;
                self.open(tag)?;
                Ok(RawItem::Begin { tag, name })
            }
            _ => {
                let name = self.field_name()?;
                Ok(RawItem::Scalar { tag, bytes: self.value(class)?, name })
            }
        }
    }

    /// Consume events until the innermost open container closes, building
    /// none: every field entry is still read, every bound checked and every
    /// string checked to be UTF-8, as stepping [`next_raw`](Self::next_raw)
    /// through the container would.
    pub fn skip_container(&mut self) -> Result<(), AdmError> {
        let Some(target) = self.depth.checked_sub(1) else {
            return Err(corrupt("no open container to skip"));
        };
        loop {
            let Token { tag, class } = self.token()?;
            match class {
                Class::Close => {
                    self.close()?;
                    if self.depth == target {
                        return Ok(());
                    }
                }
                Class::Eov => return Err(corrupt("EOV while skipping container")),
                Class::Nested => {
                    self.field_name()?;
                    self.open(tag)?;
                }
                _ => {
                    self.field_name()?;
                    check_scalar(tag, self.value(class)?)?;
                }
            }
        }
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
    /// at its close move them off the stacks into the container. Recursion
    /// is bounded: the cursor opens at most [`MAX_NESTING`] containers.
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
            let Token { tag: child_tag, class } = self.token()?;
            let value = match class {
                Class::Close => {
                    self.close()?;
                    break;
                }
                Class::Eov => return Err(corrupt("EOV inside container")),
                Class::Nested => {
                    let name = self.field_name()?;
                    self.open(child_tag)?;
                    // Nested objects resolve inferred names only (declared
                    // indexes are a root-object concept).
                    let v = self.materialize_on(child_tag, None, dict, fields, items)?;
                    (name, v)
                }
                _ => {
                    let name = self.field_name()?;
                    (name, scalar_value(child_tag, self.value(class)?)?)
                }
            };
            match value {
                (Some(n), v) => fields.push((n.resolve(declared, dict)?.to_owned(), v)),
                (None, v) => items.push(v),
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
#[inline(always)]
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
        Line => Value::Line(Box::new(f64s(bytes)?)),
        Rectangle => Value::Rectangle(Box::new(f64s(bytes)?)),
        Circle => Value::Circle(Box::new(f64s(bytes)?)),
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
/// declared-index field names; `dict` resolves compacted FieldNameIDs. A
/// record's root is an object: any other root is corruption, as it is to
/// every other reader of stored records.
pub fn decode(
    buf: &[u8],
    declared: Option<&ObjectType>,
    dict: Option<&FieldNameDictionary>,
) -> Result<Value, AdmError> {
    let mut r = VectorReader::new(buf)?;
    let value = match r.next_raw()? {
        RawItem::Begin { tag: TypeTag::Object, .. } => {
            r.materialize_container(TypeTag::Object, declared, dict)?
        }
        _ => return Err(corrupt("record root must be an object")),
    };
    match r.next_raw()? {
        RawItem::Eov => Ok(value),
        _ => Err(corrupt("trailing values after root")),
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
        assert!(matches!(
            r.next_raw().unwrap(),
            RawItem::Begin { tag: TypeTag::Object, name: None }
        ));
        match r.next_raw().unwrap() {
            RawItem::Scalar {
                tag: TypeTag::Int64,
                bytes,
                name: Some(FieldName::Inferred("a")),
            } => assert_eq!(scalar_value(TypeTag::Int64, bytes).unwrap(), Value::Int64(1)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            r.next_raw().unwrap(),
            RawItem::Begin { tag: TypeTag::Array, name: Some(FieldName::Inferred("b")) }
        ));
        assert!(matches!(
            r.next_raw().unwrap(),
            RawItem::Scalar { tag: TypeTag::Boolean, bytes: [1], name: None }
        ));
        assert_eq!(r.depth(), 2);
        assert!(matches!(
            r.next_raw().unwrap(),
            RawItem::Begin { tag: TypeTag::Object, name: None }
        ));
        assert!(matches!(
            r.next_raw().unwrap(),
            RawItem::Scalar { bytes: b"x", name: Some(FieldName::Inferred("c")), .. }
        ));
        assert!(matches!(r.next_raw().unwrap(), RawItem::Close)); // inner object
        assert!(matches!(r.next_raw().unwrap(), RawItem::Close)); // array
        assert!(matches!(r.next_raw().unwrap(), RawItem::Close)); // root
        assert!(matches!(r.next_raw().unwrap(), RawItem::Eov));
        // Reader stays at EOV.
        assert!(matches!(r.next_raw().unwrap(), RawItem::Eov));
    }

    #[test]
    fn skip_container_consumes_subtree() {
        let v = parse(r#"{"big": {"x": [1, 2, 3], "y": "s"}, "after": 7}"#).unwrap();
        let buf = encode(&v, None);
        let mut r = VectorReader::new(&buf).unwrap();
        r.next_raw().unwrap(); // root begin
        match r.next_raw().unwrap() {
            RawItem::Begin { .. } => r.skip_container().unwrap(),
            other => panic!("{other:?}"),
        }
        match r.next_raw().unwrap() {
            RawItem::Scalar { bytes, name: Some(FieldName::Inferred("after")), .. } => {
                assert_eq!(bytes, 7i64.to_le_bytes())
            }
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

    /// A record whose root is an array or a multiset is corruption to
    /// `decode`, as it is to every other reader of stored records.
    #[test]
    fn non_object_root_is_corrupt() {
        use crate::header::HEADER_LEN;
        let v = parse(r#"{"a": [1, 2], "b": {"c": "x"}}"#).unwrap();
        let raw = encode(&v, None);
        let mut schema = tc_schema::Schema::new();
        let compacted = crate::compact::infer_and_compact(&raw, &mut schema).unwrap();
        for (buf, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
            assert_eq!(decode(buf, None, dict).unwrap(), v);
            assert_eq!(buf[HEADER_LEN], TypeTag::Object as u8);
            for root in [TypeTag::Array, TypeTag::Multiset] {
                let mut flipped = buf.clone();
                flipped[HEADER_LEN] = root as u8;
                let err = decode(&flipped, None, dict).unwrap_err();
                assert!(matches!(err, AdmError::Corrupt(_)), "{err:?}");
                let path = [tc_adm::path::parse_path("a")];
                let err = crate::get_values(&flipped, &path, None, dict).unwrap_err();
                assert!(matches!(err, AdmError::Corrupt(_)), "{err:?}");
            }
        }
    }

    /// `{"a": [[…1…]]}`, `depth` containers deep.
    fn nested(depth: usize) -> Value {
        let mut v = Value::Int64(1);
        for _ in 1..depth {
            v = Value::Array(vec![v]);
        }
        Value::object([("a", v)])
    }

    /// A tag stream nested one level past `MAX_NESTING` is corruption to
    /// `decode`, to `getValues` (materializing, walking into or skipping
    /// the deep field), to a skip and to compaction; one at the cap reads
    /// back whole.
    #[test]
    fn nesting_past_the_cap_is_corrupt() {
        use tc_adm::path::parse_path;
        let paths = ["a", "a[0][0]", "zz"].map(parse_path);
        let v = nested(MAX_NESTING);
        let raw = encode(&v, None);
        let mut schema = tc_schema::Schema::new();
        let compacted = crate::compact::infer_and_compact(&raw, &mut schema).unwrap();
        for (buf, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
            assert_eq!(decode(buf, None, dict).unwrap(), v);
            let got = crate::get_values(buf, &paths, None, dict).unwrap();
            let want: Vec<Value> = paths.iter().map(|p| tc_adm::path::eval_path(&v, p)).collect();
            assert_eq!(got, want);
        }

        let deep = encode(&nested(MAX_NESTING + 1), None);
        let corrupt = |e: Option<AdmError>| matches!(e, Some(AdmError::Corrupt(_)));
        assert!(corrupt(decode(&deep, None, None).err()));
        for path in &paths {
            let got = crate::get_values(&deep, std::slice::from_ref(path), None, None);
            assert!(corrupt(got.err()), "{path:?}");
        }
        let mut r = VectorReader::new(&deep).unwrap();
        assert!(matches!(r.next_raw(), Ok(RawItem::Begin { tag: TypeTag::Object, .. })));
        assert!(corrupt(r.skip_container().err()));
        let mut schema = tc_schema::Schema::new();
        assert!(corrupt(crate::compact::infer_and_compact(&deep, &mut schema).err()));
    }

    /// Skipping a container and stepping through it with `next_raw` (each
    /// string checked, as a skip checks it) leave the cursor in the same
    /// place: for every container of random records, stored raw or
    /// compacted, clean, bit-flipped or cut short, the events after it are
    /// the same, EOV included, and an error is corruption from both.
    /// `TC_FAULT_SEED` reseeds the inputs so CI can loop it.
    #[test]
    fn skip_matches_stepping() {
        use proptest::strategy::Strategy;
        use rand::{Rng, SeedableRng};

        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5C1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let records = crate::access::tests::arb_record();
        let mut schema = tc_schema::Schema::new();
        for _ in 0..200 {
            let raw = encode(&records.new_value(&mut rng), None);
            let compacted = crate::compact::infer_and_compact(&raw, &mut schema).unwrap();
            for stored in [raw, compacted] {
                check_skip(&stored, seed);
                for _ in 0..3 {
                    let mut flipped = stored.clone();
                    let bit = rng.gen_range(crate::header::HEADER_LEN * 8..flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    check_skip(&flipped, seed);
                    // Cut short, the header's length cut to match.
                    let len = rng.gen_range(crate::header::HEADER_LEN..stored.len());
                    let mut cut = stored[..len].to_vec();
                    cut[..4].copy_from_slice(&(len as u32).to_le_bytes());
                    check_skip(&cut, seed);
                }
            }
        }
    }

    /// [`skip_matches_stepping`] on one record, at each container start.
    fn check_skip(buf: &[u8], seed: u64) {
        /// A reader positioned just inside the record's `k`-th container.
        fn at_start(buf: &[u8], k: usize) -> Option<VectorReader<'_>> {
            let mut r = VectorReader::new(buf).ok()?;
            let mut seen = 0;
            loop {
                match r.next_raw().ok()? {
                    RawItem::Begin { .. } if seen == k => return Some(r),
                    RawItem::Begin { .. } => seen += 1,
                    RawItem::Eov => return None,
                    _ => {}
                }
            }
        }
        /// The events up to EOV or the first error, an error by its class.
        fn rest<'a>(r: &mut VectorReader<'a>) -> Vec<Result<RawItem<'a>, &'static str>> {
            let mut out = Vec::new();
            loop {
                match r.next_raw() {
                    Ok(RawItem::Eov) => break,
                    Ok(item) => out.push(Ok(item)),
                    Err(e) => {
                        out.push(Err(class(&e)));
                        return out;
                    }
                }
            }
            out.push(Ok(RawItem::Eov));
            out
        }
        fn class(e: &AdmError) -> &'static str {
            match e {
                AdmError::Corrupt(_) => "corrupt",
                _ => "other",
            }
        }
        for k in 0.. {
            let (Some(mut skipper), Some(mut stepper)) = (at_start(buf, k), at_start(buf, k))
            else {
                break;
            };
            let target = skipper.depth() - 1;
            let skipped = skipper.skip_container();
            let mut stepped = Ok(());
            while stepped.is_ok() && stepper.depth() > target {
                stepped = match stepper.next_raw() {
                    Ok(RawItem::Scalar { tag, bytes, .. }) => check_scalar(tag, bytes),
                    Ok(_) => Ok(()),
                    Err(e) => Err(e),
                };
            }
            match (skipped, stepped) {
                (Ok(()), Ok(())) => {
                    assert_eq!(skipper.depth(), stepper.depth());
                    assert_eq!(rest(&mut skipper), rest(&mut stepper), "{buf:?} (seed {seed})");
                }
                (Err(a), Err(b)) => assert_eq!(class(&a), class(&b), "{a:?} vs {b:?}"),
                (a, b) => panic!("skip {a:?}, stepping {b:?} on {buf:?} (seed {seed})"),
            }
        }
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
