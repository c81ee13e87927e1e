//! The baseline recursive physical record format ("ADM physical format").
//!
//! This models the storage format AsterixDB uses for both open and closed
//! datasets (paper §2.2, \[3\]): every nested value carries a 4-byte offset
//! table so field/item access is constant-time per level, and *undeclared*
//! fields additionally store their names (and type tags) inline, making open
//! records self-describing. Declared fields store no names — their metadata
//! lives in the catalog ([`crate::datatype::ObjectType`]).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! value   := tag(1) payload
//! scalar  := raw fixed-width bytes           (int/double/date/point/…)
//! string  := len(4) bytes                    (also binary)
//! coll    := payload_len(4) count(4) item_offset(4)×count items…
//! object  := payload_len(4) declared_count(4) declared_offset(4)×n
//!            open_count(4) open_dir_len(4)
//!            [name_len(4) name value_offset(4)]×open_count
//!            values…
//! ```
//!
//! Offsets are relative to the start of the trailing `values…`/`items…`
//! region. Declared-field offsets use sentinels for absent/null optionals.
//! The per-value offsets and inline names are exactly the overheads the
//! paper's Figures 16 and 21 attribute to this format.

use crate::datatype::{ObjectType, TypeKind};
use crate::error::AdmError;
use crate::typetag::TypeTag;
use crate::value::Value;
use crate::MAX_NESTING;

/// Declared-field offset sentinel: the optional field is absent.
const OFFSET_MISSING: u32 = u32::MAX;
/// Declared-field offset sentinel: the optional field is null.
const OFFSET_NULL: u32 = u32::MAX - 1;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode a record. `dtype` is the dataset's declared object type; `None`
/// encodes fully self-describing (every field in the open section). A
/// record that nests more than [`MAX_NESTING`] containers deep is a
/// type-check error, found by the same walk.
pub fn encode_record(value: &Value, dtype: Option<&ObjectType>) -> Result<Vec<u8>, AdmError> {
    let mut out = Vec::with_capacity(256);
    let ctx = dtype.map(|t| TypeKind::Object(t.clone()));
    encode_value(value, ctx.as_ref(), MAX_NESTING, &mut out)?;
    Ok(out)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn patch_u32(out: &mut [u8], pos: usize, v: u32) {
    out[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
}

/// Encode one value with an optional declared-type context, inside `room`
/// more container levels at most.
fn encode_value(
    value: &Value,
    ctx: Option<&TypeKind>,
    room: usize,
    out: &mut Vec<u8>,
) -> Result<(), AdmError> {
    let inner = match value {
        Value::Array(_) | Value::Multiset(_) | Value::Object(_) => {
            room.checked_sub(1).ok_or_else(AdmError::nests_too_deep)?
        }
        _ => room,
    };
    out.push(value.type_tag() as u8);
    match value {
        Value::Missing | Value::Null => {}
        Value::Boolean(b) => out.push(*b as u8),
        Value::Int8(v) => out.push(*v as u8),
        Value::Int16(v) => out.extend_from_slice(&v.to_le_bytes()),
        Value::Int32(v) | Value::Date(v) | Value::Time(v) => {
            out.extend_from_slice(&v.to_le_bytes())
        }
        Value::Int64(v) | Value::DateTime(v) | Value::Duration(v) => {
            out.extend_from_slice(&v.to_le_bytes())
        }
        Value::Float(v) => out.extend_from_slice(&v.to_le_bytes()),
        Value::Double(v) => out.extend_from_slice(&v.to_le_bytes()),
        Value::Uuid(b) => out.extend_from_slice(b),
        Value::Point(x, y) => {
            out.extend_from_slice(&x.to_le_bytes());
            out.extend_from_slice(&y.to_le_bytes());
        }
        Value::Line(a) | Value::Rectangle(a) => {
            for f in a {
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::Circle(a) => {
            for f in a {
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::String(s) => {
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Binary(b) => {
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Value::Array(items) | Value::Multiset(items) => {
            let item_ctx = match ctx {
                Some(TypeKind::Array(item)) | Some(TypeKind::Multiset(item)) => Some(item.as_ref()),
                _ => None,
            };
            let len_pos = out.len();
            put_u32(out, 0); // payload_len placeholder
            put_u32(out, items.len() as u32);
            let offsets_pos = out.len();
            for _ in items {
                put_u32(out, 0);
            }
            let region_start = out.len();
            for (i, item) in items.iter().enumerate() {
                let off = (out.len() - region_start) as u32;
                patch_u32(out, offsets_pos + i * 4, off);
                encode_value(item, item_ctx, inner, out)?;
            }
            let payload = (out.len() - len_pos - 4) as u32;
            patch_u32(out, len_pos, payload);
        }
        Value::Object(fields) => {
            let otype = match ctx {
                Some(TypeKind::Object(ot)) => Some(ot),
                _ => None,
            };
            let empty = ObjectType::fully_open();
            let otype_ref = otype.unwrap_or(&empty);
            let (declared, open) = otype_ref.partition_fields(fields);

            let len_pos = out.len();
            put_u32(out, 0); // payload_len placeholder
            put_u32(out, declared.len() as u32);
            let declared_offsets_pos = out.len();
            for _ in &declared {
                put_u32(out, 0);
            }
            put_u32(out, open.len() as u32);
            let dir_len_pos = out.len();
            put_u32(out, 0); // open_dir_len placeholder
            let dir_start = out.len();
            let mut open_offset_slots = Vec::with_capacity(open.len());
            for (name, _) in &open {
                put_u32(out, name.len() as u32);
                out.extend_from_slice(name.as_bytes());
                open_offset_slots.push(out.len());
                put_u32(out, 0);
            }
            let dir_len = (out.len() - dir_start) as u32;
            patch_u32(out, dir_len_pos, dir_len);

            let region_start = out.len();
            for (i, dv) in declared.iter().enumerate() {
                let slot = declared_offsets_pos + i * 4;
                match dv {
                    None => patch_u32(out, slot, OFFSET_MISSING),
                    Some(Value::Null) => patch_u32(out, slot, OFFSET_NULL),
                    Some(v) => {
                        let off = (out.len() - region_start) as u32;
                        patch_u32(out, slot, off);
                        let field_ctx = &otype_ref.fields[i].kind;
                        encode_value(v, Some(field_ctx), inner, out)?;
                    }
                }
            }
            for (i, (_, v)) in open.iter().enumerate() {
                let off = (out.len() - region_start) as u32;
                patch_u32(out, open_offset_slots[i], off);
                encode_value(v, None, inner, out)?;
            }
            let payload = (out.len() - len_pos - 4) as u32;
            patch_u32(out, len_pos, payload);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode a record encoded with [`encode_record`] under the same `dtype`.
pub fn decode_record(buf: &[u8], dtype: Option<&ObjectType>) -> Result<Value, AdmError> {
    let ctx = dtype.map(|t| TypeKind::Object(t.clone()));
    let (v, n) = decode_value(buf, ctx.as_ref())?;
    if n != buf.len() {
        return Err(AdmError::corrupt(format!("trailing bytes: consumed {n} of {}", buf.len())));
    }
    Ok(v)
}

/// The `N` bytes at `pos`, for `from_le_bytes`.
fn le<const N: usize>(buf: &[u8], pos: usize) -> Result<[u8; N], AdmError> {
    buf.get(pos..pos + N)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| AdmError::corrupt("fixed-width value cut short"))
}

fn get_u32(buf: &[u8], pos: usize) -> Result<u32, AdmError> {
    le(buf, pos).map(u32::from_le_bytes)
}

fn take(buf: &[u8], pos: usize, n: usize) -> Result<&[u8], AdmError> {
    buf.get(pos..pos + n).ok_or_else(|| AdmError::corrupt("truncated payload"))
}

/// `N` little-endian `f64`s at `pos` (the spatial types).
fn f64s<const N: usize>(buf: &[u8], pos: usize) -> Result<[f64; N], AdmError> {
    let mut out = [0f64; N];
    for (i, x) in out.iter_mut().enumerate() {
        *x = f64::from_le_bytes(le(buf, pos + i * 8)?);
    }
    Ok(out)
}

/// The bytes from `pos` on: where a child value starts.
fn from(buf: &[u8], pos: usize) -> Result<&[u8], AdmError> {
    buf.get(pos..).ok_or_else(|| AdmError::corrupt("child offset past the end"))
}

/// Decode one value; returns (value, bytes consumed).
fn decode_value(buf: &[u8], ctx: Option<&TypeKind>) -> Result<(Value, usize), AdmError> {
    let tag = TypeTag::from_u8(*buf.first().ok_or_else(|| AdmError::corrupt("empty buffer"))?)?;
    let p = 1usize;
    Ok(match tag {
        TypeTag::Missing => (Value::Missing, 1),
        TypeTag::Null => (Value::Null, 1),
        TypeTag::Boolean => (Value::Boolean(le::<1>(buf, p)?[0] != 0), 2),
        TypeTag::Int8 => (Value::Int8(le::<1>(buf, p)?[0] as i8), 2),
        TypeTag::Int16 => (Value::Int16(i16::from_le_bytes(le(buf, p)?)), 3),
        TypeTag::Int32 => (Value::Int32(i32::from_le_bytes(le(buf, p)?)), 5),
        TypeTag::Date => (Value::Date(i32::from_le_bytes(le(buf, p)?)), 5),
        TypeTag::Time => (Value::Time(i32::from_le_bytes(le(buf, p)?)), 5),
        TypeTag::Int64 => (Value::Int64(i64::from_le_bytes(le(buf, p)?)), 9),
        TypeTag::DateTime => (Value::DateTime(i64::from_le_bytes(le(buf, p)?)), 9),
        TypeTag::Duration => (Value::Duration(i64::from_le_bytes(le(buf, p)?)), 9),
        TypeTag::Float => (Value::Float(f32::from_le_bytes(le(buf, p)?)), 5),
        TypeTag::Double => (Value::Double(f64::from_le_bytes(le(buf, p)?)), 9),
        TypeTag::Uuid => (Value::Uuid(le(buf, p)?), 17),
        TypeTag::Point => {
            let [x, y] = f64s(buf, p)?;
            (Value::Point(x, y), 17)
        }
        TypeTag::Line => (Value::Line(f64s(buf, p)?), 33),
        TypeTag::Rectangle => (Value::Rectangle(f64s(buf, p)?), 33),
        TypeTag::Circle => (Value::Circle(f64s(buf, p)?), 25),
        TypeTag::String | TypeTag::Binary => {
            let len = get_u32(buf, p)? as usize;
            let bytes = take(buf, p + 4, len)?;
            let v = if tag == TypeTag::String {
                Value::String(
                    std::str::from_utf8(bytes)
                        .map_err(|_| AdmError::corrupt("invalid UTF-8 string"))?
                        .to_owned(),
                )
            } else {
                Value::Binary(bytes.to_vec())
            };
            (v, p + 4 + len)
        }
        TypeTag::Array | TypeTag::Multiset => {
            let payload_len = get_u32(buf, p)? as usize;
            let count = get_u32(buf, p + 4)? as usize;
            let region = p + 8 + count * 4;
            let item_ctx = match ctx {
                Some(TypeKind::Array(item)) | Some(TypeKind::Multiset(item)) => Some(item.as_ref()),
                _ => None,
            };
            // Each item has a 4-byte offset: a count the buffer cannot
            // hold is corrupt, and is not allocated for.
            let mut items = Vec::with_capacity(count.min(buf.len() / 4));
            for i in 0..count {
                let off = get_u32(buf, p + 8 + i * 4)? as usize;
                let (v, _) = decode_value(from(buf, region + off)?, item_ctx)?;
                items.push(v);
            }
            let v =
                if tag == TypeTag::Array { Value::Array(items) } else { Value::Multiset(items) };
            (v, p + 4 + payload_len)
        }
        TypeTag::Object => {
            let payload_len = get_u32(buf, p)? as usize;
            let declared_count = get_u32(buf, p + 4)? as usize;
            let declared_offsets = p + 8;
            let open_count_pos = declared_offsets + declared_count * 4;
            let open_count = get_u32(buf, open_count_pos)? as usize;
            let dir_len = get_u32(buf, open_count_pos + 4)? as usize;
            let dir_start = open_count_pos + 8;
            let region = dir_start + dir_len;

            let otype = match ctx {
                Some(TypeKind::Object(ot)) => Some(ot),
                _ => None,
            };
            if let Some(ot) = otype {
                if ot.fields.len() != declared_count {
                    return Err(AdmError::corrupt(format!(
                        "declared count {declared_count} does not match type ({} fields)",
                        ot.fields.len()
                    )));
                }
            } else if declared_count != 0 {
                return Err(AdmError::corrupt(
                    "record has declared fields but no type context was supplied",
                ));
            }

            // An open field takes at least 8 directory bytes.
            let mut fields: Vec<(String, Value)> =
                Vec::with_capacity(declared_count + open_count.min(buf.len() / 8));
            // Without a type, `declared_count` is 0 (checked above).
            for (i, field) in otype.iter().flat_map(|ot| ot.fields.iter()).enumerate() {
                let off = get_u32(buf, declared_offsets + i * 4)?;
                match off {
                    OFFSET_MISSING => {}
                    OFFSET_NULL => fields.push((field.name.clone(), Value::Null)),
                    off => {
                        let (v, _) =
                            decode_value(from(buf, region + off as usize)?, Some(&field.kind))?;
                        fields.push((field.name.clone(), v));
                    }
                }
            }
            let mut dp = dir_start;
            for _ in 0..open_count {
                let name_len = get_u32(buf, dp)? as usize;
                let name = std::str::from_utf8(take(buf, dp + 4, name_len)?)
                    .map_err(|_| AdmError::corrupt("invalid UTF-8 field name"))?
                    .to_owned();
                let off = get_u32(buf, dp + 4 + name_len)? as usize;
                let (v, _) = decode_value(from(buf, region + off)?, None)?;
                fields.push((name, v));
                dp += 4 + name_len + 4;
            }
            (Value::Object(fields), p + 4 + payload_len)
        }
        TypeTag::CloseNested | TypeTag::Eov => {
            return Err(AdmError::corrupt("control tag in ADM format"))
        }
    })
}

// ---------------------------------------------------------------------------
// Navigation (offset-based field access without materialization)
// ---------------------------------------------------------------------------

/// A cursor over an encoded value, supporting offset-based navigation.
/// Field and index steps cost O(1) table lookups (plus an open-directory
/// scan for undeclared fields) — the access-time contrast to the
/// vector-based format's linear tag scan (paper §3.3.1, Fig 22).
#[derive(Debug, Clone, Copy)]
pub struct AdmCursor<'a, 'b> {
    buf: &'a [u8],
    ctx: Option<&'b TypeKind>,
}

impl<'a, 'b> AdmCursor<'a, 'b> {
    /// Cursor over a whole record. `object_ctx` is the dataset's declared
    /// type (kept alive by the caller; typically the catalog entry).
    pub fn new(buf: &'a [u8], object_ctx: Option<&'b TypeKind>) -> Self {
        AdmCursor { buf, ctx: object_ctx }
    }

    pub fn type_tag(&self) -> Result<TypeTag, AdmError> {
        TypeTag::from_u8(*self.buf.first().ok_or_else(|| AdmError::corrupt("empty"))?)
    }

    /// Navigate to a field. Declared fields resolve through the offset
    /// table; undeclared fields scan the open directory.
    pub fn field(&self, name: &str) -> Result<Option<AdmCursor<'a, 'b>>, AdmError> {
        if self.type_tag()? != TypeTag::Object {
            return Ok(None);
        }
        let buf = self.buf;
        let p = 1usize;
        let declared_count = get_u32(buf, p + 4)? as usize;
        let declared_offsets = p + 8;
        let open_count_pos = declared_offsets + declared_count * 4;
        let open_count = get_u32(buf, open_count_pos)? as usize;
        let dir_len = get_u32(buf, open_count_pos + 4)? as usize;
        let dir_start = open_count_pos + 8;
        let region = dir_start + dir_len;

        let otype = match self.ctx {
            Some(TypeKind::Object(ot)) => Some(ot),
            _ => None,
        };
        if let Some(ot) = otype {
            if let Some(idx) = ot.field_index(name) {
                let off = get_u32(buf, declared_offsets + idx * 4)?;
                return Ok(match off {
                    OFFSET_MISSING | OFFSET_NULL => None,
                    off => Some(AdmCursor {
                        buf: from(buf, region + off as usize)?,
                        ctx: Some(&ot.fields[idx].kind),
                    }),
                });
            }
        }
        let mut dp = dir_start;
        for _ in 0..open_count {
            let name_len = get_u32(buf, dp)? as usize;
            let fname = take(buf, dp + 4, name_len)?;
            let off = get_u32(buf, dp + 4 + name_len)? as usize;
            if fname == name.as_bytes() {
                return Ok(Some(AdmCursor { buf: from(buf, region + off)?, ctx: None }));
            }
            dp += 4 + name_len + 4;
        }
        Ok(None)
    }

    /// Navigate to a collection item by position (O(1)).
    pub fn index(&self, i: usize) -> Result<Option<AdmCursor<'a, 'b>>, AdmError> {
        if !self.type_tag()?.is_collection() {
            return Ok(None);
        }
        let buf = self.buf;
        let p = 1usize;
        let count = get_u32(buf, p + 4)? as usize;
        if i >= count {
            return Ok(None);
        }
        let region = p + 8 + count * 4;
        let off = get_u32(buf, p + 8 + i * 4)? as usize;
        let item_ctx = match self.ctx {
            Some(TypeKind::Array(item)) | Some(TypeKind::Multiset(item)) => Some(item.as_ref()),
            _ => None,
        };
        Ok(Some(AdmCursor { buf: from(buf, region + off)?, ctx: item_ctx }))
    }

    /// Number of items if this is a collection.
    pub fn len(&self) -> Result<Option<usize>, AdmError> {
        if !self.type_tag()?.is_collection() {
            return Ok(None);
        }
        Ok(Some(get_u32(self.buf, 5)? as usize))
    }

    pub fn is_empty(&self) -> Result<bool, AdmError> {
        Ok(self.len()?.map(|n| n == 0).unwrap_or(true))
    }

    /// Materialize the value under the cursor.
    pub fn materialize(&self) -> Result<Value, AdmError> {
        decode_value(self.buf, self.ctx).map(|(v, _)| v)
    }

    /// Evaluate a path against the encoded bytes using offset navigation;
    /// only the final target(s) are materialized.
    pub fn get_path(&self, path: &[crate::path::PathStep]) -> Result<Value, AdmError> {
        use crate::path::PathStep;
        let Some((step, rest)) = path.split_first() else {
            return self.materialize();
        };
        match step {
            PathStep::Field(name) => match self.field(name)? {
                Some(c) => c.get_path(rest),
                None => Ok(Value::Missing),
            },
            PathStep::Index(i) => match self.index(*i)? {
                Some(c) => c.get_path(rest),
                None => Ok(Value::Missing),
            },
            PathStep::Wildcard => {
                let Some(count) = self.len()? else {
                    return Ok(Value::Missing);
                };
                let mut out = Vec::with_capacity(count.min(self.buf.len() / 4));
                for i in 0..count {
                    let item = self
                        .index(i)?
                        .ok_or_else(|| AdmError::corrupt("collection item out of range"))?;
                    let v = item.get_path(rest)?;
                    if !v.is_missing() {
                        out.push(v);
                    }
                }
                Ok(Value::Array(out))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::FieldDef;
    use crate::parse;
    use crate::path::parse_path;

    fn employee_type() -> ObjectType {
        ObjectType::open(vec![
            FieldDef { name: "id".into(), kind: TypeKind::Scalar(TypeTag::Int64), optional: false },
            FieldDef {
                name: "name".into(),
                kind: TypeKind::Scalar(TypeTag::String),
                optional: false,
            },
            FieldDef { name: "age".into(), kind: TypeKind::Scalar(TypeTag::Int64), optional: true },
        ])
    }

    #[test]
    fn roundtrip_open_no_type() {
        let v = parse(
            r#"{"id": 1, "name": "Ann", "xs": [1, 2.5, null], "o": {"deep": {{true}}},
               "p": point(1.0, 2.0), "d": date("2018-09-20")}"#,
        )
        .unwrap();
        let buf = encode_record(&v, None).unwrap();
        assert_eq!(decode_record(&buf, None).unwrap(), v);
    }

    #[test]
    fn roundtrip_with_declared_type() {
        let t = employee_type();
        let v = parse(r#"{"id": 7, "name": "Kim", "age": 26, "extra": "open!"}"#).unwrap();
        let buf = encode_record(&v, Some(&t)).unwrap();
        assert_eq!(decode_record(&buf, Some(&t)).unwrap(), v);
    }

    #[test]
    fn optional_absent_and_null_roundtrip() {
        let t = employee_type();
        let absent = parse(r#"{"id": 7, "name": "Kim"}"#).unwrap();
        let buf = encode_record(&absent, Some(&t)).unwrap();
        assert_eq!(decode_record(&buf, Some(&t)).unwrap(), absent);

        let nulled = parse(r#"{"id": 7, "name": "Kim", "age": null}"#).unwrap();
        let buf = encode_record(&nulled, Some(&t)).unwrap();
        assert_eq!(decode_record(&buf, Some(&t)).unwrap(), nulled);
    }

    #[test]
    fn declared_fields_store_no_names() {
        // Same value, encoded closed vs fully open: the closed encoding must
        // be smaller by at least the field-name bytes.
        let t = ObjectType::closed(vec![
            FieldDef {
                name: "value".into(),
                kind: TypeKind::Scalar(TypeTag::Double),
                optional: false,
            },
            FieldDef {
                name: "timestamp".into(),
                kind: TypeKind::Scalar(TypeTag::Int64),
                optional: false,
            },
        ]);
        let v = parse(r#"{"value": 1.5, "timestamp": 99}"#).unwrap();
        let closed = encode_record(&v, Some(&t)).unwrap();
        let open = encode_record(&v, None).unwrap();
        assert!(
            closed.len() + "value".len() + "timestamp".len() <= open.len(),
            "closed={} open={}",
            closed.len(),
            open.len()
        );
    }

    #[test]
    fn nested_declared_types_apply_recursively() {
        let dependent = ObjectType::closed(vec![
            FieldDef {
                name: "name".into(),
                kind: TypeKind::Scalar(TypeTag::String),
                optional: false,
            },
            FieldDef {
                name: "age".into(),
                kind: TypeKind::Scalar(TypeTag::Int64),
                optional: false,
            },
        ]);
        let t = ObjectType::open(vec![
            FieldDef { name: "id".into(), kind: TypeKind::Scalar(TypeTag::Int64), optional: false },
            FieldDef {
                name: "dependents".into(),
                kind: TypeKind::Multiset(Box::new(TypeKind::Object(dependent))),
                optional: true,
            },
        ]);
        let v = parse(
            r#"{"id": 1, "dependents": {{ {"name": "Bob", "age": 6}, {"name": "Carol", "age": 10} }}}"#,
        )
        .unwrap();
        let buf = encode_record(&v, Some(&t)).unwrap();
        assert_eq!(decode_record(&buf, Some(&t)).unwrap(), v);
        // The names "name"/"age" must not appear in the encoding (declared
        // in the closed item type).
        let hay = buf.windows(4).any(|w| w == b"name");
        assert!(!hay, "declared nested field names leaked into the encoding");
    }

    #[test]
    fn cursor_navigates_declared_and_open_fields() {
        let t = employee_type();
        let kind = TypeKind::Object(t.clone());
        let v = parse(r#"{"id": 7, "name": "Kim", "age": 26, "extra": [10, 20]}"#).unwrap();
        let buf = encode_record(&v, Some(&t)).unwrap();
        let cur = AdmCursor::new(&buf, Some(&kind));
        assert_eq!(
            cur.field("name").unwrap().unwrap().materialize().unwrap(),
            Value::string("Kim")
        );
        assert_eq!(
            cur.field("extra").unwrap().unwrap().index(1).unwrap().unwrap().materialize().unwrap(),
            Value::Int64(20)
        );
        assert!(cur.field("nope").unwrap().is_none());
        assert_eq!(cur.field("extra").unwrap().unwrap().len().unwrap(), Some(2));
    }

    #[test]
    fn cursor_path_evaluation_matches_value_path() {
        let v =
            parse(r#"{"id": 1, "deps": [{"name": "Bob", "age": 6}, {"name": "Carol"}], "s": "x"}"#)
                .unwrap();
        let buf = encode_record(&v, None).unwrap();
        let cur = AdmCursor::new(&buf, None);
        for path in ["deps[0].name", "deps[*].name", "deps[*].age", "s", "missing.field"] {
            let p = parse_path(path);
            assert_eq!(cur.get_path(&p).unwrap(), crate::path::eval_path(&v, &p), "path {path}");
        }
    }

    #[test]
    fn corrupt_buffers_error_not_panic() {
        let v = parse(r#"{"a": [1, 2, 3], "b": "xyz"}"#).unwrap();
        let buf = encode_record(&v, None).unwrap();
        for cut in [0, 1, 3, buf.len() / 2, buf.len() - 1] {
            assert!(decode_record(&buf[..cut], None).is_err(), "cut={cut}");
        }
        let mut bad = buf.clone();
        bad[0] = 99; // unknown tag
        assert!(decode_record(&bad, None).is_err());
        // A corrupt count or offset in any byte: a value or an error from
        // decoding and from navigation, never a panic or a huge allocation.
        let t = employee_type();
        let kind = TypeKind::Object(t.clone());
        let v = parse(r#"{"id": 7, "name": "Kim", "deps": [{"n": [1, 2]}, "x"], "o": {"p": 1}}"#)
            .unwrap();
        let buf = encode_record(&v, Some(&t)).unwrap();
        let paths = ["name", "deps[*].n", "deps[1]", "o.p"].map(parse_path);
        for at in 0..buf.len() {
            for byte in [0x00, 0x7f, 0xff] {
                let mut bad = buf.clone();
                bad[at] = byte;
                let _ = decode_record(&bad, Some(&t));
                let cur = AdmCursor::new(&bad, Some(&kind));
                for p in &paths {
                    let _ = cur.get_path(p);
                }
            }
        }
    }

    #[test]
    fn all_scalar_types_roundtrip() {
        let scalars = vec![
            Value::Missing,
            Value::Null,
            Value::Boolean(true),
            Value::Int8(-5),
            Value::Int16(-300),
            Value::Int32(70_000),
            Value::Int64(-5_000_000_000),
            Value::Float(1.25),
            Value::Double(-2.5e10),
            Value::string("héllo 😀"),
            Value::Binary(vec![0, 1, 255]),
            Value::Date(17794),
            Value::Time(1234),
            Value::DateTime(1_556_496_000_000),
            Value::Duration(-42),
            Value::Uuid([7; 16]),
            Value::Point(1.0, -2.0),
            Value::Line([0.0, 0.0, 1.0, 1.0]),
            Value::Rectangle([0.0, 0.0, 2.0, 2.0]),
            Value::Circle([0.0, 0.0, 3.0]),
        ];
        let v = Value::Array(scalars);
        let buf = encode_record(&v, None).unwrap();
        assert_eq!(decode_record(&buf, None).unwrap(), v);
    }

    /// A record nested `MAX_NESTING` containers deep — through arrays,
    /// multisets or objects — encodes and reads back; one level more is a
    /// type-check error.
    #[test]
    fn encode_refuses_nesting_past_the_cap() {
        let t = employee_type();
        for kind in 0..3 {
            let nested = |depth: usize| {
                let mut v = Value::Int64(1);
                for _ in 1..depth {
                    v = match kind {
                        0 => Value::Array(vec![v]),
                        1 => Value::Multiset(vec![v]),
                        _ => Value::object([("a", v)]),
                    };
                }
                Value::object([("id", Value::Int64(1)), ("name", Value::string("n")), ("a", v)])
            };
            let at_cap = nested(MAX_NESTING);
            assert_eq!(at_cap.max_depth(), MAX_NESTING);
            for dtype in [None, Some(&t)] {
                let buf = encode_record(&at_cap, dtype).unwrap();
                assert_eq!(decode_record(&buf, dtype).unwrap(), at_cap, "kind {kind}");
                let err = encode_record(&nested(MAX_NESTING + 1), dtype).unwrap_err();
                assert!(matches!(err, AdmError::TypeCheck(_)), "kind {kind}: {err:?}");
            }
        }
    }
}
