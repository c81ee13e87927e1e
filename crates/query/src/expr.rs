//! Row expressions.
//!
//! Rows are `Vec<Value>`; expressions reference columns by index. Field
//! accesses over already-materialized values use [`Expr::Path`]; accesses
//! against *stored record bytes* live in the scan (see
//! [`crate::plan::ScanSpec`]), which is where the consolidation /
//! linear-scan trade-off of §3.4.2 plays out.
//!
//! Null semantics are simplified two-valued logic: comparisons involving
//! `null`/`missing` are false, matching what the paper's queries need.

use std::borrow::Cow;

use tc_adm::compare::compare;
use tc_adm::path::{eval_path, Path};
use tc_adm::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Scalar and array functions used by the paper's queries.
#[derive(Debug, Clone, PartialEq)]
pub enum Func {
    /// `lowercase(s)`.
    Lower,
    /// `length(s)` — string length in bytes.
    StrLen,
    /// `array_count(a)`.
    ArrayLen,
    /// `is_array(v)`.
    IsArray,
    /// Distinct items, preserving first-seen order.
    ArrayDistinct,
    /// Items sorted ascending (WoS Q4 orders countries before pairing).
    ArraySort,
    /// All unordered pairs `[a[i], a[j]]`, `i < j` (WoS Q4).
    ArrayPairs,
    /// `array_contains(a, needle)` by value equality.
    ArrayContains,
    /// Case-insensitive string membership: `SOME x IN a SATISFIES
    /// lowercase(x) = needle` (Twitter Q3, pushed-down form).
    ArrayContainsLower,
    /// `SOME x IN a SATISFIES lowercase(x.field) = needle` — the
    /// un-pushed-down form over an array of objects.
    AnyFieldEqLower(String),
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column.
    Col(usize),
    /// Literal.
    Const(Value),
    /// Path access over the value in a column.
    Path {
        col: usize,
        path: Path,
    },
    Cmp {
        op: CmpOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Func {
        func: Func,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    pub fn path(col: usize, path_text: &str) -> Expr {
        Expr::Path { col, path: tc_adm::path::parse_path(path_text) }
    }

    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, lhs, rhs)
    }

    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::And(Box::new(lhs), Box::new(rhs))
    }

    pub fn func(func: Func, args: Vec<Expr>) -> Expr {
        Expr::Func { func, args }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Value {
        self.eval_ref(row).into_owned()
    }

    /// Evaluate against a row, borrowing the result where it already exists:
    /// a column or a constant.
    pub fn eval_ref<'a>(&'a self, row: &'a [Value]) -> Cow<'a, Value> {
        match self {
            Expr::Col(i) => row.get(*i).map_or(Cow::Owned(Value::Missing), Cow::Borrowed),
            Expr::Const(v) => Cow::Borrowed(v),
            Expr::Path { col, path } => Cow::Owned(match row.get(*col) {
                Some(v) => eval_path(v, path),
                None => Value::Missing,
            }),
            Expr::Cmp { op, lhs, rhs } => {
                Cow::Owned(Value::Boolean(cmp_holds(*op, &lhs.eval_ref(row), &rhs.eval_ref(row))))
            }
            Expr::And(a, b) => Cow::Owned(Value::Boolean(a.eval_bool(row) && b.eval_bool(row))),
            Expr::Or(a, b) => Cow::Owned(Value::Boolean(a.eval_bool(row) || b.eval_bool(row))),
            Expr::Not(e) => Cow::Owned(Value::Boolean(!e.eval_bool(row))),
            Expr::Func { func, args } => Cow::Owned(eval_func(func, args, row)),
        }
    }

    /// Truthiness for filters.
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        self.eval_ref(row).as_bool() == Some(true)
    }

    /// Column indices this expression reads, sorted and deduplicated. The
    /// batched scan uses this to decode only the columns a filter touches
    /// before the selection vector is known.
    pub fn referenced_cols(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) | Expr::Path { col: i, .. } => out.push(*i),
            Expr::Const(_) => {}
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.collect_cols(out);
                rhs.collect_cols(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Expr::Not(e) => e.collect_cols(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.collect_cols(out);
                }
            }
        }
    }
}

/// Does `l <op> r` hold? Comparisons involving `null`/`missing` are false.
pub(crate) fn cmp_holds(op: CmpOp, l: &Value, r: &Value) -> bool {
    if l.is_null_or_missing() || r.is_null_or_missing() {
        return false;
    }
    // SQL++ equality treats 2 and 2.0 as equal; the total order used for
    // sorting tie-breaks them by type, so equality is decided first.
    let eq = sql_equal(l, r);
    match op {
        CmpOp::Eq => eq,
        CmpOp::Ne => !eq,
        CmpOp::Lt => !eq && compare(l, r) == std::cmp::Ordering::Less,
        CmpOp::Le => eq || compare(l, r) == std::cmp::Ordering::Less,
        CmpOp::Gt => !eq && compare(l, r) == std::cmp::Ordering::Greater,
        CmpOp::Ge => eq || compare(l, r) == std::cmp::Ordering::Greater,
    }
}

/// Value equality with cross-type numeric promotion.
fn sql_equal(l: &Value, r: &Value) -> bool {
    if l.type_tag().is_numeric() && r.type_tag().is_numeric() {
        match (l.as_i64(), r.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => l.as_f64() == r.as_f64(),
        }
    } else {
        l == r
    }
}

/// `s.to_lowercase() == needle`, without building the lowercase string.
/// `str::to_lowercase` maps character by character except for a capital
/// sigma, which it lowers by its position in a word.
fn lowercase_eq(s: &str, needle: &str) -> bool {
    if s.contains('Σ') {
        return s.to_lowercase() == needle;
    }
    s.chars().flat_map(char::to_lowercase).eq(needle.chars())
}

fn eval_func(func: &Func, args: &[Expr], row: &[Value]) -> Value {
    let arg = |i: usize| args.get(i).map_or(Cow::Owned(Value::Missing), |e| e.eval_ref(row));
    match func {
        Func::Lower => match arg(0).as_str() {
            Some(s) => Value::String(s.to_lowercase()),
            None => Value::Missing,
        },
        Func::StrLen => match arg(0).as_str() {
            Some(s) => Value::Int64(s.len() as i64),
            None => Value::Missing,
        },
        Func::ArrayLen => match arg(0).as_items() {
            Some(items) => Value::Int64(items.len() as i64),
            None => Value::Missing,
        },
        Func::IsArray => Value::Boolean(matches!(*arg(0), Value::Array(_))),
        Func::ArrayDistinct => match arg(0).as_items() {
            Some(items) => {
                let mut out: Vec<Value> = Vec::with_capacity(items.len());
                for v in items {
                    if v.is_null_or_missing() {
                        continue;
                    }
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
                Value::Array(out)
            }
            None => Value::Missing,
        },
        Func::ArraySort => match arg(0).into_owned() {
            Value::Array(mut items) | Value::Multiset(mut items) => {
                items.sort_by(compare);
                Value::Array(items)
            }
            _ => Value::Missing,
        },
        Func::ArrayPairs => match arg(0).as_items() {
            Some(items) => {
                let mut pairs = Vec::new();
                for i in 0..items.len() {
                    for j in i + 1..items.len() {
                        pairs.push(Value::Array(vec![items[i].clone(), items[j].clone()]));
                    }
                }
                Value::Array(pairs)
            }
            None => Value::Missing,
        },
        Func::ArrayContains => {
            let needle = arg(1);
            match arg(0).as_items() {
                Some(items) => Value::Boolean(items.contains(&needle)),
                None => Value::Boolean(false),
            }
        }
        Func::ArrayContainsLower => {
            let needle = arg(1);
            let Some(needle) = needle.as_str() else {
                return Value::Boolean(false);
            };
            match arg(0).as_items() {
                Some(items) => Value::Boolean(
                    items.iter().any(|v| v.as_str().is_some_and(|s| lowercase_eq(s, needle))),
                ),
                None => Value::Boolean(false),
            }
        }
        Func::AnyFieldEqLower(field) => {
            let needle = arg(1);
            let Some(needle) = needle.as_str() else {
                return Value::Boolean(false);
            };
            match arg(0).as_items() {
                Some(items) => Value::Boolean(items.iter().any(|item| {
                    item.get_field(field)
                        .and_then(Value::as_str)
                        .is_some_and(|s| lowercase_eq(s, needle))
                })),
                None => Value::Boolean(false),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::parse;

    fn row() -> Vec<Value> {
        vec![
            parse(r#"{"name": "Ann", "tags": [{"text": "Jobs"}, {"text": "tech"}]}"#).unwrap(),
            Value::Int64(42),
            Value::Array(vec![Value::string("b"), Value::string("a"), Value::string("b")]),
        ]
    }

    #[test]
    fn columns_and_paths() {
        let r = row();
        assert_eq!(Expr::col(1).eval(&r), Value::Int64(42));
        assert_eq!(Expr::path(0, "name").eval(&r), Value::string("Ann"));
        assert_eq!(
            Expr::path(0, "tags[*].text").eval(&r),
            Value::Array(vec![Value::string("Jobs"), Value::string("tech")])
        );
        assert_eq!(Expr::col(9).eval(&r), Value::Missing);
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let r = row();
        assert!(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit(40i64)).eval_bool(&r));
        assert!(!Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(40i64)).eval_bool(&r));
        assert!(Expr::eq(Expr::path(0, "name"), Expr::lit("Ann")).eval_bool(&r));
        // Missing never compares true (also not Ne).
        assert!(!Expr::eq(Expr::path(0, "absent"), Expr::lit(1i64)).eval_bool(&r));
        assert!(!Expr::cmp(CmpOp::Ne, Expr::path(0, "absent"), Expr::lit(1i64)).eval_bool(&r));
        // Cross-type numeric equality.
        assert!(Expr::eq(Expr::lit(2i64), Expr::lit(2.0f64)).eval_bool(&[]));
    }

    #[test]
    fn boolean_connectives() {
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert!(Expr::and(t.clone(), t.clone()).eval_bool(&[]));
        assert!(!Expr::and(t.clone(), f.clone()).eval_bool(&[]));
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone())).eval_bool(&[]));
        assert!(Expr::Not(Box::new(f)).eval_bool(&[]));
    }

    #[test]
    fn string_and_array_functions() {
        let r = row();
        assert_eq!(Expr::func(Func::Lower, vec![Expr::lit("AbC")]).eval(&[]), Value::string("abc"));
        assert_eq!(Expr::func(Func::StrLen, vec![Expr::path(0, "name")]).eval(&r), Value::Int64(3));
        assert_eq!(Expr::func(Func::ArrayLen, vec![Expr::col(2)]).eval(&r), Value::Int64(3));
        assert_eq!(
            Expr::func(Func::ArrayDistinct, vec![Expr::col(2)]).eval(&r),
            Value::Array(vec![Value::string("b"), Value::string("a")])
        );
        assert_eq!(
            Expr::func(Func::ArraySort, vec![Expr::col(2)]).eval(&r),
            Value::Array(vec![Value::string("a"), Value::string("b"), Value::string("b")])
        );
        assert!(Expr::func(Func::ArrayContains, vec![Expr::col(2), Expr::lit("a")]).eval_bool(&r));
        assert!(!Expr::func(Func::ArrayContains, vec![Expr::col(2), Expr::lit("z")]).eval_bool(&r));
    }

    #[test]
    fn pairs_enumerate_unordered() {
        let arr = Expr::lit_array(vec!["x", "y", "z"]);
        let pairs = Expr::func(Func::ArrayPairs, vec![arr]).eval(&[]);
        let items = pairs.as_items().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], Value::Array(vec![Value::string("x"), Value::string("y")]));
    }

    #[test]
    fn exists_style_functions() {
        let r = row();
        // Pushed-down form over extracted texts.
        let texts = Expr::path(0, "tags[*].text");
        assert!(Expr::func(Func::ArrayContainsLower, vec![texts, Expr::lit("jobs")]).eval_bool(&r));
        // Un-pushed form over the objects.
        let tags = Expr::path(0, "tags");
        assert!(Expr::func(
            Func::AnyFieldEqLower("text".into()),
            vec![tags.clone(), Expr::lit("jobs")]
        )
        .eval_bool(&r));
        assert!(!Expr::func(Func::AnyFieldEqLower("text".into()), vec![tags, Expr::lit("nope")])
            .eval_bool(&r));
    }

    /// The allocation-free comparison agrees with `to_lowercase` on
    /// characters that lower to several, and on a capital sigma, which
    /// lowers by its position in a word.
    #[test]
    fn lowercase_eq_matches_to_lowercase() {
        let texts = ["jobs", "JoBs", "İ", "ΑΣ", "ΣΑ", "ΑΣ Β", "ΑΣΑ", "ß", "ẞ", "", "ǅ"];
        let needles = ["jobs", "i̇", "ας", "ασ", "σα", "ας β", "ασα", "ß", "", "ǆ"];
        for s in texts {
            for n in needles {
                assert_eq!(lowercase_eq(s, n), s.to_lowercase() == n, "{s:?} vs {n:?}");
            }
        }
    }

    impl Expr {
        fn lit_array(items: Vec<&str>) -> Expr {
            Expr::Const(Value::Array(items.into_iter().map(Value::from).collect()))
        }
    }
}
