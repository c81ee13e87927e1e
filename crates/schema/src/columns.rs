//! Stable leaf-path enumeration for the columnar (AMAX) storage format.
//!
//! The columnar writer shreds records into one typed column per *leaf path*
//! of the inferred schema: a chain of object fields ending in a scalar of a
//! column-eligible type (or a `union(T, null)` of one). Collections and
//! heterogeneous unions stay row-encoded in the residual column — the AMAX
//! successor paper's repetition levels are out of scope here.
//!
//! Column identity must survive schema evolution and serialization:
//! [`Schema::serialize`] densely remaps `NodeId`s, so node ids are useless
//! as column ids. The enumeration therefore keys columns by their *path
//! strings* and returns them in lexicographic path order — two schemas that
//! describe the same leaf produce the same `(path, tag)` entry regardless
//! of insertion order or tombstone history.

use tc_adm::TypeTag;

use crate::node::SchemaNode;
use crate::schema::Schema;

/// One typed column: a root-to-leaf chain of object field names and the
/// scalar type stored at the leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafColumn {
    /// Object field names from the root, e.g. `["status", "battery_level"]`.
    pub path: Vec<String>,
    /// The leaf's scalar type (one of [`column_eligible`] tags).
    pub tag: TypeTag,
    /// True when the schema saw the leaf as `union(tag, null)` — readers
    /// must expect explicit nulls, not just absent values.
    pub nullable: bool,
}

impl LeafColumn {
    /// Render the path as a dotted string (diagnostics, column indexes).
    pub fn dotted(&self) -> String {
        self.path.join(".")
    }
}

/// Can a scalar of this tag back a typed column? Fixed-width numerics,
/// booleans, and strings; everything else (temporal, spatial, binary)
/// rides in the residual.
pub fn column_eligible(tag: TypeTag) -> bool {
    matches!(tag, TypeTag::Int64 | TypeTag::Double | TypeTag::Boolean | TypeTag::String)
}

/// Enumerate the schema's typed leaf columns in lexicographic path order.
///
/// Only object-field chains are walked: a path never crosses a collection
/// or a non-`(T, null)` union, so each record contributes at most one value
/// per column.
pub fn leaf_columns(schema: &Schema) -> Vec<LeafColumn> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    walk(schema, schema.root(), &mut path, &mut out);
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

fn walk(schema: &Schema, node: u32, path: &mut Vec<String>, out: &mut Vec<LeafColumn>) {
    let SchemaNode::Object { fields, .. } = schema.node(node) else {
        return;
    };
    for (fid, child) in fields {
        let Some(name) = schema.field_name(*fid) else {
            continue;
        };
        path.push(name.to_owned());
        match schema.node(*child) {
            SchemaNode::Scalar { tag, .. } if column_eligible(*tag) => {
                out.push(LeafColumn { path: path.clone(), tag: *tag, nullable: false });
            }
            SchemaNode::Object { .. } => walk(schema, *child, path, out),
            SchemaNode::Union { children, .. } => {
                // Exactly {T, null} with T eligible ⇒ a nullable column.
                // Any other union shape is heterogeneous → residual.
                if let Some(tag) = nullable_union_tag(children) {
                    out.push(LeafColumn { path: path.clone(), tag, nullable: true });
                }
            }
            _ => {}
        }
        path.pop();
    }
}

/// For a two-member union of `{T, null}` with `T` column-eligible, the `T`.
fn nullable_union_tag(children: &[(TypeTag, u32)]) -> Option<TypeTag> {
    if children.len() != 2 {
        return None;
    }
    let tags = [children[0].0, children[1].0];
    let other = match tags {
        [TypeTag::Null, t] | [t, TypeTag::Null] => t,
        _ => return None,
    };
    column_eligible(other).then_some(other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::{parse, Value};

    fn observed(records: &[&str]) -> Schema {
        let mut s = Schema::new();
        for r in records {
            let Value::Object(fields) = parse(r).unwrap() else { panic!("object") };
            s.observe_record(&fields, &|n| n == "id").unwrap();
        }
        s
    }

    #[test]
    fn flat_and_nested_leaves_enumerate_in_path_order() {
        let s = observed(&[
            r#"{"id": 0, "z": 1, "a": {"m": 2.5, "b": true}, "name": "x"}"#,
            r#"{"id": 1, "z": 2, "a": {"m": 3.5}}"#,
        ]);
        let cols = leaf_columns(&s);
        let got: Vec<(String, TypeTag)> = cols.iter().map(|c| (c.dotted(), c.tag)).collect();
        assert_eq!(
            got,
            vec![
                ("a.b".into(), TypeTag::Boolean),
                ("a.m".into(), TypeTag::Double),
                ("name".into(), TypeTag::String),
                ("z".into(), TypeTag::Int64),
            ]
        );
        assert!(cols.iter().all(|c| !c.nullable));
    }

    #[test]
    fn collections_and_heterogeneous_unions_are_skipped() {
        let s = observed(&[
            r#"{"id": 0, "tags": [1, 2], "age": 5}"#,
            r#"{"id": 1, "age": "five", "deep": {"arr": [{"x": 1}]}}"#,
        ]);
        let got: Vec<String> = leaf_columns(&s).iter().map(LeafColumn::dotted).collect();
        // `tags` is a collection, `age` is union(int, string), `deep.arr`
        // is a collection — none become columns.
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn union_with_null_is_a_nullable_column() {
        let s = observed(&[r#"{"id": 0, "score": 7}"#, r#"{"id": 1, "score": null}"#]);
        let cols = leaf_columns(&s);
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].dotted(), "score");
        assert_eq!(cols[0].tag, TypeTag::Int64);
        assert!(cols[0].nullable);
    }

    #[test]
    fn enumeration_is_stable_across_serialization_and_insertion_order() {
        let a = observed(&[r#"{"id": 0, "b": 1, "a": {"y": "s", "x": 2}}"#]);
        let b = observed(&[r#"{"id": 0, "a": {"x": 2, "y": "s"}, "b": 1}"#]);
        assert_eq!(leaf_columns(&a), leaf_columns(&b));
        let back = Schema::deserialize(&a.serialize()).unwrap();
        assert_eq!(leaf_columns(&a), leaf_columns(&back));
    }
}
