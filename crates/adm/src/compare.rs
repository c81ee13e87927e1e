//! Total ordering and hashing over [`Value`]s.
//!
//! Primary keys, ORDER BY, GROUP BY and DISTINCT all need a deterministic
//! total order and a consistent hash. ADM compares numerics cross-type
//! (`2 == 2.0` for ordering purposes) and orders incomparable types by their
//! type-tag code, which matches how a permissive document store sorts
//! heterogeneous values.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::typetag::TypeTag;
use crate::value::Value;

/// Rank used to order values of different type families: values of a lower
/// rank sort below every value of a higher one, whatever they hold. All
/// numeric types share one rank.
pub fn type_rank(tag: TypeTag) -> u8 {
    use TypeTag::*;
    match tag {
        Missing => 0,
        Null => 1,
        Boolean => 2,
        // All numerics share a rank so they compare by value.
        Int8 | Int16 | Int32 | Int64 | Float | Double => 3,
        String => 4,
        Binary => 5,
        Date => 6,
        Time => 7,
        DateTime => 8,
        Duration => 9,
        Uuid => 10,
        Point => 11,
        Line => 12,
        Rectangle => 13,
        Circle => 14,
        Array => 15,
        Multiset => 16,
        Object => 17,
        CloseNested | Eov => 255,
    }
}

/// Compare two f64s totally (NaN sorts above +inf, -0 < +0 via bit tiebreak).
fn total_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Total order over ADM values.
pub fn compare(a: &Value, b: &Value) -> Ordering {
    let (ra, rb) = (type_rank(a.type_tag()), type_rank(b.type_tag()));
    if ra != rb {
        return ra.cmp(&rb);
    }
    use Value::*;
    match (a, b) {
        (Missing, Missing) | (Null, Null) => Ordering::Equal,
        (Boolean(x), Boolean(y)) => x.cmp(y),
        _ if a.type_tag().is_numeric() && b.type_tag().is_numeric() => {
            match (a.as_i64(), b.as_i64()) {
                // Both integral: exact comparison.
                (Some(x), Some(y)) => x.cmp(&y),
                // At least one float: compare as f64, tie-break on tag so the
                // order stays total and antisymmetric across types.
                _ => {
                    #[expect(clippy::expect_used, reason = "both values are numeric")]
                    let (x, y) = (a.as_f64().expect("numeric"), b.as_f64().expect("numeric"));
                    total_f64(x, y).then_with(|| (a.type_tag() as u8).cmp(&(b.type_tag() as u8)))
                }
            }
        }
        (String(x), String(y)) => x.cmp(y),
        (Binary(x), Binary(y)) => x.cmp(y),
        (Date(x), Date(y)) | (Time(x), Time(y)) => x.cmp(y),
        (DateTime(x), DateTime(y)) | (Duration(x), Duration(y)) => x.cmp(y),
        (Uuid(x), Uuid(y)) => x.cmp(y),
        (Point(x1, y1), Point(x2, y2)) => total_f64(*x1, *x2).then_with(|| total_f64(*y1, *y2)),
        (Line(x), Line(y)) | (Rectangle(x), Rectangle(y)) => cmp_f64_slice(&x[..], &y[..]),
        (Circle(x), Circle(y)) => cmp_f64_slice(&x[..], &y[..]),
        (Array(x), Array(y)) | (Multiset(x), Multiset(y)) => {
            for (xi, yi) in x.iter().zip(y.iter()) {
                let o = compare(xi, yi);
                if o != Ordering::Equal {
                    return o;
                }
            }
            x.len().cmp(&y.len())
        }
        (Object(x), Object(y)) => {
            // Compare by sorted field name then value — order-insensitive,
            // consistent with `Value`'s equality.
            let mut xs: Vec<_> = x.iter().collect();
            let mut ys: Vec<_> = y.iter().collect();
            xs.sort_by(|l, r| l.0.cmp(&r.0));
            ys.sort_by(|l, r| l.0.cmp(&r.0));
            for ((xn, xv), (yn, yv)) in xs.iter().zip(ys.iter()) {
                let o = xn.cmp(yn).then_with(|| compare(xv, yv));
                if o != Ordering::Equal {
                    return o;
                }
            }
            xs.len().cmp(&ys.len())
        }
        _ => Ordering::Equal,
    }
}

fn cmp_f64_slice(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = total_f64(*x, *y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Hash a value consistently with [`compare`]-equality: numerics that compare
/// equal hash equal (hashed via their f64 bits after exact-integer check),
/// and object field order does not affect the hash.
pub fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    use Value::*;
    match v {
        Missing => state.write_u8(0),
        Null => state.write_u8(1),
        Boolean(b) => {
            state.write_u8(2);
            state.write_u8(*b as u8);
        }
        Int8(_) | Int16(_) | Int32(_) | Int64(_) | Float(_) | Double(_) => {
            state.write_u8(3);
            if let Some(i) = v.as_i64() {
                state.write_u8(0);
                state.write_u64(i as u64);
            } else {
                #[expect(clippy::expect_used, reason = "the value is numeric")]
                let f = v.as_f64().expect("numeric");
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    // Integral float hashes like the equal integer.
                    state.write_u8(0);
                    state.write_u64(f as i64 as u64);
                } else {
                    state.write_u8(1);
                    state.write_u64(f.to_bits());
                }
            }
        }
        String(s) => {
            state.write_u8(4);
            state.write(s.as_bytes());
            state.write_u8(0xff);
        }
        Binary(b) => {
            state.write_u8(5);
            state.write(b);
            state.write_u8(0xff);
        }
        Date(x) | Time(x) => {
            state.write_u8(6);
            state.write_u32(*x as u32);
        }
        DateTime(x) | Duration(x) => {
            state.write_u8(8);
            state.write_u64(*x as u64);
        }
        Uuid(u) => {
            state.write_u8(10);
            state.write(u);
        }
        Point(x, y) => {
            state.write_u8(11);
            state.write_u64(x.to_bits());
            state.write_u64(y.to_bits());
        }
        Line(a) | Rectangle(a) => {
            state.write_u8(12);
            for f in a.iter() {
                state.write_u64(f.to_bits());
            }
        }
        Circle(a) => {
            state.write_u8(14);
            for f in a.iter() {
                state.write_u64(f.to_bits());
            }
        }
        Array(items) | Multiset(items) => {
            state.write_u8(15);
            state.write_usize(items.len());
            for item in items {
                hash_value(item, state);
            }
        }
        Object(fields) => {
            state.write_u8(17);
            state.write_usize(fields.len());
            // Order-insensitive: XOR-combine per-field hashes.
            let mut acc: u64 = 0;
            for (name, val) in fields {
                let mut h = tc_util::hash::FxHasher::default();
                h.write(name.as_bytes());
                hash_value(val, &mut h);
                acc ^= h.finish();
            }
            state.write_u64(acc);
        }
    }
}

/// Wrapper giving [`Value`] `Ord`/`Hash` so it can key `BTreeMap`s and
/// `HashMap`s (primary keys, group-by keys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrdValue(pub Value);

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        compare(&self.0, &other.0)
    }
}

impl Hash for OrdValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_value(&self.0, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: &Value) -> u64 {
        let mut hasher = tc_util::hash::FxHasher::default();
        hash_value(v, &mut hasher);
        hasher.finish()
    }

    #[test]
    fn cross_type_numeric_order() {
        assert_eq!(compare(&Value::Int32(2), &Value::Int64(2)), Ordering::Equal);
        assert_eq!(compare(&Value::Int64(2), &Value::Double(2.5)), Ordering::Less);
        assert_eq!(compare(&Value::Double(3.0), &Value::Int64(2)), Ordering::Greater);
    }

    #[test]
    fn type_families_are_ordered() {
        assert!(compare(&Value::Null, &Value::Boolean(false)) == Ordering::Less);
        assert!(compare(&Value::Boolean(true), &Value::Int64(0)) == Ordering::Less);
        assert!(compare(&Value::Int64(999), &Value::string("a")) == Ordering::Less);
        assert!(compare(&Value::string("z"), &Value::Array(vec![])) == Ordering::Less);
    }

    #[test]
    fn string_order_is_lexical() {
        assert_eq!(compare(&Value::string("abc"), &Value::string("abd")), Ordering::Less);
    }

    #[test]
    fn array_order_is_elementwise_then_length() {
        let a = Value::Array(vec![Value::Int64(1), Value::Int64(2)]);
        let b = Value::Array(vec![Value::Int64(1), Value::Int64(3)]);
        let c = Value::Array(vec![Value::Int64(1)]);
        assert_eq!(compare(&a, &b), Ordering::Less);
        assert_eq!(compare(&c, &a), Ordering::Less);
    }

    #[test]
    fn object_order_ignores_field_order() {
        let a = Value::object([("x", Value::Int64(1)), ("y", Value::Int64(2))]);
        let b = Value::object([("y", Value::Int64(2)), ("x", Value::Int64(1))]);
        assert_eq!(compare(&a, &b), Ordering::Equal);
    }

    #[test]
    fn hash_consistent_with_equality() {
        let a = Value::object([("x", Value::Int64(1)), ("y", Value::string("s"))]);
        let b = Value::object([("y", Value::string("s")), ("x", Value::Int64(1))]);
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&Value::Int32(7)), h(&Value::Int64(7)));
        assert_eq!(h(&Value::Int64(7)), h(&Value::Double(7.0)));
        assert_ne!(h(&Value::Int64(7)), h(&Value::Int64(8)));
    }

    #[test]
    fn ord_value_in_btreemap() {
        let mut m = std::collections::BTreeMap::new();
        m.insert(OrdValue(Value::Int64(5)), "five");
        m.insert(OrdValue(Value::Int64(1)), "one");
        m.insert(OrdValue(Value::Int64(3)), "three");
        let keys: Vec<i64> = m.keys().map(|k| k.0.as_i64().unwrap()).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn total_order_on_floats_handles_nan() {
        let nan = Value::Double(f64::NAN);
        let inf = Value::Double(f64::INFINITY);
        assert_eq!(compare(&nan, &nan), Ordering::Equal);
        assert_eq!(compare(&inf, &nan), Ordering::Less);
    }
}
