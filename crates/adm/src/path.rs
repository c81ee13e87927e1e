//! Path expressions over nested values.
//!
//! Query field accesses compile to paths: `emp.dependents[0].name` becomes
//! `[Field("dependents"), Index(0), Field("name")]` (the leading variable is
//! the record itself). `Wildcard` implements the paper's `[*]` access that
//! projects a value out of *every* item of an array (§3.4.2).

use crate::value::Value;

/// One step of a path expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// Object field access by name.
    Field(String),
    /// Collection item access by position.
    Index(usize),
    /// All items of a collection; the result is an array of the sub-results.
    Wildcard,
}

impl PathStep {
    pub fn field(name: impl Into<String>) -> PathStep {
        PathStep::Field(name.into())
    }
}

/// A full path: a sequence of steps applied left to right.
pub type Path = Vec<PathStep>;

/// Parse a dotted path with optional `[i]` / `[*]` steps, e.g.
/// `"dependents[*].name"` or `"entities.hashtags[0].text"`. Paths are
/// written by programs (plan builders, tests), not read from clients.
///
/// # Panics
///
/// On an unclosed bracket or an index that is neither a number nor `*`.
#[expect(clippy::expect_used, reason = "a malformed path is a bug in the program that wrote it")]
pub fn parse_path(text: &str) -> Path {
    let mut steps = Vec::new();
    for part in text.split('.') {
        let mut rest = part;
        // Field name up to the first bracket.
        if let Some(idx) = rest.find('[') {
            let (name, brackets) = rest.split_at(idx);
            if !name.is_empty() {
                steps.push(PathStep::field(name));
            }
            rest = brackets;
            while let Some(stripped) = rest.strip_prefix('[') {
                let end = stripped.find(']').expect("unclosed bracket in path");
                let inner = &stripped[..end];
                if inner == "*" {
                    steps.push(PathStep::Wildcard);
                } else {
                    steps.push(PathStep::Index(inner.parse().expect("numeric index")));
                }
                rest = &stripped[end + 1..];
            }
        } else if !rest.is_empty() {
            steps.push(PathStep::field(rest));
        }
    }
    steps
}

/// Evaluate a path against an in-memory value. Absent fields and
/// out-of-bounds indexes yield `Missing` (ADM semantics). A wildcard step
/// over a non-collection yields `Missing`; over a collection it yields an
/// array of per-item results with `Missing` entries filtered out, which is
/// how the paper's `emp.dependents[*].name` behaves.
pub fn eval_path(value: &Value, path: &[PathStep]) -> Value {
    let Some((step, rest)) = path.split_first() else {
        return value.clone();
    };
    match step {
        PathStep::Field(name) => match value.get_field(name) {
            Some(v) => eval_path(v, rest),
            None => Value::Missing,
        },
        PathStep::Index(i) => match value.get_item(*i) {
            Some(v) => eval_path(v, rest),
            None => Value::Missing,
        },
        PathStep::Wildcard => match value.as_items() {
            Some(items) => Value::Array(
                items
                    .iter()
                    .map(|item| eval_path(item, rest))
                    .filter(|v| !v.is_missing())
                    .collect(),
            ),
            None => Value::Missing,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("id", Value::Int64(1)),
            (
                "dependents",
                Value::Array(vec![
                    Value::object([("name", Value::string("Bob")), ("age", Value::Int64(6))]),
                    Value::object([("name", Value::string("Carol"))]),
                    Value::string("Not_Available"),
                ]),
            ),
        ])
    }

    #[test]
    fn parse_simple_and_bracketed() {
        assert_eq!(parse_path("a.b"), vec![PathStep::field("a"), PathStep::field("b")]);
        assert_eq!(
            parse_path("dependents[0].name"),
            vec![PathStep::field("dependents"), PathStep::Index(0), PathStep::field("name")]
        );
        assert_eq!(
            parse_path("deps[*].age"),
            vec![PathStep::field("deps"), PathStep::Wildcard, PathStep::field("age")]
        );
    }

    #[test]
    fn eval_field_and_index() {
        let v = sample();
        assert_eq!(eval_path(&v, &parse_path("dependents[0].name")), Value::string("Bob"));
        assert_eq!(eval_path(&v, &parse_path("dependents[9].name")), Value::Missing);
        assert_eq!(eval_path(&v, &parse_path("nope")), Value::Missing);
    }

    #[test]
    fn eval_wildcard_filters_missing() {
        let v = sample();
        // Third dependent is a bare string: `.name` over it is missing and
        // gets filtered, matching the paper's dependents[*].name example.
        assert_eq!(
            eval_path(&v, &parse_path("dependents[*].name")),
            Value::Array(vec![Value::string("Bob"), Value::string("Carol")])
        );
        assert_eq!(
            eval_path(&v, &parse_path("dependents[*].age")),
            Value::Array(vec![Value::Int64(6)])
        );
        assert_eq!(eval_path(&v, &parse_path("id[*]")), Value::Missing);
    }

    #[test]
    fn empty_path_returns_value() {
        let v = sample();
        assert_eq!(eval_path(&v, &[]), v);
    }
}
