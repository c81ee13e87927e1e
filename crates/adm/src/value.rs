//! The in-memory representation of an ADM instance.

use crate::typetag::TypeTag;

/// An ADM value: the JSON model extended with temporal/spatial scalars and
/// multisets. Objects preserve insertion order (field positions matter to the
/// vector-based format and to Fig 22's position-sensitive access experiment);
/// equality on objects is order-insensitive, matching JSON semantics.
#[derive(Debug, Clone)]
pub enum Value {
    /// A field that was absent. Distinct from `null` in ADM.
    Missing,
    Null,
    Boolean(bool),
    Int8(i8),
    Int16(i16),
    Int32(i32),
    Int64(i64),
    Float(f32),
    Double(f64),
    String(String),
    Binary(Vec<u8>),
    /// Days since the epoch.
    Date(i32),
    /// Milliseconds since midnight.
    Time(i32),
    /// Milliseconds since the epoch.
    DateTime(i64),
    /// Milliseconds.
    Duration(i64),
    Uuid([u8; 16]),
    Point(f64, f64),
    /// Two endpoints (x1, y1, x2, y2). The rare spatial shapes are boxed so
    /// that a `Value` stays 32 bytes.
    Line(Box<[f64; 4]>),
    /// Two corners (x1, y1, x2, y2).
    Rectangle(Box<[f64; 4]>),
    /// Center + radius (x, y, r).
    Circle(Box<[f64; 3]>),
    Array(Vec<Value>),
    Multiset(Vec<Value>),
    /// Field name → value, insertion-ordered. Names must be unique.
    Object(Vec<(String, Value)>),
}

// Every variant fits in 24 bytes beside its tag.
const _: () = assert!(std::mem::size_of::<Value>() == 32);

impl Value {
    /// The type tag of this value.
    pub fn type_tag(&self) -> TypeTag {
        use Value::*;
        match self {
            Missing => TypeTag::Missing,
            Null => TypeTag::Null,
            Boolean(_) => TypeTag::Boolean,
            Int8(_) => TypeTag::Int8,
            Int16(_) => TypeTag::Int16,
            Int32(_) => TypeTag::Int32,
            Int64(_) => TypeTag::Int64,
            Float(_) => TypeTag::Float,
            Double(_) => TypeTag::Double,
            String(_) => TypeTag::String,
            Binary(_) => TypeTag::Binary,
            Date(_) => TypeTag::Date,
            Time(_) => TypeTag::Time,
            DateTime(_) => TypeTag::DateTime,
            Duration(_) => TypeTag::Duration,
            Uuid(_) => TypeTag::Uuid,
            Point(_, _) => TypeTag::Point,
            Line(_) => TypeTag::Line,
            Rectangle(_) => TypeTag::Rectangle,
            Circle(_) => TypeTag::Circle,
            Array(_) => TypeTag::Array,
            Multiset(_) => TypeTag::Multiset,
            Object(_) => TypeTag::Object,
        }
    }

    /// Construct an object from `(name, value)` pairs.
    pub fn object<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Object(fields.into_iter().map(|(n, v)| (n.into(), v)).collect())
    }

    /// Construct a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// Look up a field by name (objects only).
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Index into an array or multiset.
    pub fn get_item(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Array(items) | Value::Multiset(items) => items.get(idx),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Collection items, if this is an array or multiset.
    pub fn as_items(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) | Value::Multiset(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value widened to i64, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int8(v) => Some(v as i64),
            Value::Int16(v) => Some(v as i64),
            Value::Int32(v) => Some(v as i64),
            Value::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value widened to f64 (integral or floating).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int8(v) => Some(v as f64),
            Value::Int16(v) => Some(v as f64),
            Value::Int32(v) => Some(v as f64),
            Value::Int64(v) => Some(v as f64),
            Value::Float(v) => Some(v as f64),
            Value::Double(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Boolean(b) => Some(b),
            _ => None,
        }
    }

    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }

    pub fn is_null_or_missing(&self) -> bool {
        matches!(self, Value::Null | Value::Missing)
    }

    /// Count of scalar (leaf) values in the tree — Table 1 reports this
    /// per-record statistic for each dataset.
    pub fn count_scalars(&self) -> usize {
        match self {
            Value::Object(fields) => fields.iter().map(|(_, v)| v.count_scalars()).sum(),
            Value::Array(items) | Value::Multiset(items) => {
                items.iter().map(Value::count_scalars).sum()
            }
            _ => 1,
        }
    }

    /// Maximum nesting depth, counting container levels only (Table 1's
    /// convention: a flat object has depth 1, `{"readings": [{…}]}` has
    /// depth 3; scalars add nothing; a bare scalar has depth 0).
    pub fn max_depth(&self) -> usize {
        match self {
            Value::Object(fields) => {
                1 + fields.iter().map(|(_, v)| v.max_depth()).max().unwrap_or(0)
            }
            Value::Array(items) | Value::Multiset(items) => {
                1 + items.iter().map(Value::max_depth).max().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// The most frequent scalar type tag in the tree — Table 1's "dominant
    /// type" statistic. Ties break toward the smaller tag code.
    #[expect(clippy::expect_used, reason = "every counted index is a scalar's type tag")]
    pub fn dominant_scalar_type(&self) -> Option<TypeTag> {
        let mut counts = [0usize; 32];
        fn walk(v: &Value, counts: &mut [usize; 32]) {
            match v {
                Value::Object(fields) => fields.iter().for_each(|(_, v)| walk(v, counts)),
                Value::Array(items) | Value::Multiset(items) => {
                    items.iter().for_each(|v| walk(v, counts))
                }
                other => counts[other.type_tag() as usize] += 1,
            }
        }
        walk(self, &mut counts);
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| TypeTag::from_u8(i as u8).expect("counted tag"))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Missing, Missing) | (Null, Null) => true,
            (Boolean(a), Boolean(b)) => a == b,
            (Int8(a), Int8(b)) => a == b,
            (Int16(a), Int16(b)) => a == b,
            (Int32(a), Int32(b)) => a == b,
            (Int64(a), Int64(b)) => a == b,
            // Bit equality so NaN == NaN and roundtrips are exact.
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (String(a), String(b)) => a == b,
            (Binary(a), Binary(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Time(a), Time(b)) => a == b,
            (DateTime(a), DateTime(b)) => a == b,
            (Duration(a), Duration(b)) => a == b,
            (Uuid(a), Uuid(b)) => a == b,
            (Point(ax, ay), Point(bx, by)) => {
                ax.to_bits() == bx.to_bits() && ay.to_bits() == by.to_bits()
            }
            (Line(a), Line(b)) | (Rectangle(a), Rectangle(b)) => {
                a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Circle(a), Circle(b)) => {
                a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Array(a), Array(b)) | (Multiset(a), Multiset(b)) => a == b,
            (Object(a), Object(b)) => {
                // Order-insensitive: JSON object semantics.
                a.len() == b.len()
                    && a.iter().all(|(name, v)| b.iter().any(|(bn, bv)| bn == name && bv == v))
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::printer::print(self))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("id", Value::Int64(1)),
            ("name", Value::string("Ann")),
            (
                "dependents",
                Value::Multiset(vec![
                    Value::object([("name", Value::string("Bob")), ("age", Value::Int64(6))]),
                    Value::object([("name", Value::string("Carol")), ("age", Value::Int64(10))]),
                ]),
            ),
            ("employment_date", Value::Date(17_794)),
            ("branch_location", Value::Point(24.0, -56.12)),
            (
                "working_shifts",
                Value::Array(vec![
                    Value::Array(vec![Value::Int64(8), Value::Int64(16)]),
                    Value::string("on_call"),
                ]),
            ),
        ])
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get_field("name").unwrap().as_str(), Some("Ann"));
        assert_eq!(v.get_field("id").unwrap().as_i64(), Some(1));
        assert!(v.get_field("nope").is_none());
        let deps = v.get_field("dependents").unwrap();
        assert_eq!(deps.get_item(1).unwrap().get_field("age").unwrap().as_i64(), Some(10));
        assert_eq!(v.type_tag(), TypeTag::Object);
    }

    #[test]
    fn statistics_match_paper_example() {
        let v = sample();
        // Scalars: id, name, 2×(name, age), employment_date, branch_location,
        // 8, 16, "on_call" = 1+1+4+1+1+3 = 11.
        assert_eq!(v.count_scalars(), 11);
        // Containers: object -> working_shifts array -> inner array = 3.
        assert_eq!(v.max_depth(), 3);
        assert_eq!(v.dominant_scalar_type(), Some(TypeTag::Int64));
    }

    #[test]
    fn object_equality_is_order_insensitive() {
        let a = Value::object([("x", Value::Int64(1)), ("y", Value::Int64(2))]);
        let b = Value::object([("y", Value::Int64(2)), ("x", Value::Int64(1))]);
        assert_eq!(a, b);
        let c = Value::object([("y", Value::Int64(3)), ("x", Value::Int64(1))]);
        assert_ne!(a, c);
    }

    #[test]
    fn array_equality_is_order_sensitive() {
        let a = Value::Array(vec![Value::Int64(1), Value::Int64(2)]);
        let b = Value::Array(vec![Value::Int64(2), Value::Int64(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn nan_equals_itself() {
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
    }

    #[test]
    fn missing_vs_null_distinct() {
        assert_ne!(Value::Missing, Value::Null);
        assert!(Value::Missing.is_null_or_missing());
        assert!(Value::Null.is_null_or_missing());
        assert!(Value::Missing.is_missing());
        assert!(!Value::Null.is_missing());
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(Value::Int8(5).as_i64(), Some(5));
        assert_eq!(Value::Int8(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Double(1.5).as_i64(), None);
        assert_eq!(Value::string("x").as_f64(), None);
    }
}
