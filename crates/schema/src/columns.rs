//! Stable leaf-path enumeration for the columnar (AMAX) storage format.
//!
//! The columnar writer shreds records into one typed column per *leaf path*
//! of the inferred schema: a chain of object fields ending in a scalar of a
//! column-eligible type (or a `union(T, null)` of one). A path may cross one
//! collection — the AMAX successor paper's repeated columns, one level deep:
//! an array or multiset of eligible scalars (`tags[*]`), or of flat objects
//! whose every field is an eligible scalar (`readings[*].temp`,
//! `readings[*].timestamp`). Nested collections, items of mixed types and
//! heterogeneous unions stay row-encoded in the residual column.
//!
//! Column identity must survive schema evolution and serialization:
//! [`Schema::serialize`] densely remaps `NodeId`s, so node ids are useless
//! as column ids. The enumeration therefore keys columns by their *path
//! strings* and returns them in lexicographic path order — two schemas that
//! describe the same leaf produce the same `(path, tag)` entry regardless
//! of insertion order or tombstone history.

use tc_adm::path::{Path, PathStep};
use tc_adm::TypeTag;

use crate::node::SchemaNode;
use crate::schema::Schema;

/// Where a column's path crosses a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repetition {
    /// How many field names of the path lead to the collection; the rest
    /// (none, or one field) are read in each item.
    pub depth: usize,
    /// The collection's type: `Array` or `Multiset`.
    pub kind: TypeTag,
}

/// One typed column: a root-to-leaf chain of object field names and the
/// scalar type stored at the leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafColumn {
    /// Object field names from the root, e.g. `["status", "battery_level"]`,
    /// or `["readings", "temp"]` through a collection.
    pub path: Vec<String>,
    /// The leaf's scalar type (one of [`column_eligible`] tags).
    pub tag: TypeTag,
    /// True when the schema saw the leaf as `union(tag, null)` — readers
    /// must expect explicit nulls, not just absent values.
    pub nullable: bool,
    /// Where the path crosses a collection, if it does.
    pub repeated: Option<Repetition>,
}

impl LeafColumn {
    /// Render the path as a dotted string (diagnostics, column indexes).
    pub fn dotted(&self) -> String {
        let mut out = String::new();
        for (i, name) in self.path.iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(name);
            if self.repeated.is_some_and(|rep| rep.depth == i + 1) {
                out.push_str("[*]");
            }
        }
        out
    }
}

/// A column's path as query steps: its field names, with a wildcard where
/// it crosses a collection (`readings[*].temp`).
pub fn steps(path: &[String], repeated: Option<Repetition>) -> Path {
    let mut steps: Path = path.iter().map(PathStep::field).collect();
    if let Some(rep) = repeated {
        steps.insert(rep.depth, PathStep::Wildcard);
    }
    steps
}

/// Can a scalar of this tag back a typed column? Fixed-width numerics,
/// booleans, and strings; everything else (temporal, spatial, binary)
/// rides in the residual.
pub fn column_eligible(tag: TypeTag) -> bool {
    matches!(tag, TypeTag::Int64 | TypeTag::Double | TypeTag::Boolean | TypeTag::String)
}

/// Enumerate the schema's typed leaf columns in lexicographic path order.
///
/// Object-field chains are walked, and through at most one collection: its
/// item an eligible scalar (one column, the collection's path) or a flat
/// object (one column per field, all of them eligible scalars — else none).
/// A `union(T, null)` counts as its `T` for a leaf, an item and a
/// collection alike; any other union ends the path. A record may hold
/// several values of a repeated column, one per item, and at most one of
/// any other.
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
        match leaf(schema, *child) {
            Some((tag, nullable)) => {
                out.push(LeafColumn { path: path.clone(), tag, nullable, repeated: None });
            }
            None => {
                match non_null(schema, *child) {
                    Some((id, SchemaNode::Object { .. })) => walk(schema, id, path, out),
                    Some((_, SchemaNode::Collection { tag: kind, item: Some(item), .. })) => {
                        let repeated = Some(Repetition { depth: path.len(), kind: *kind });
                        out.extend(items(schema, *item, path).into_iter().flatten().map(
                            |(path, tag, nullable)| LeafColumn { path, tag, nullable, repeated },
                        ));
                    }
                    _ => {}
                }
            }
        }
        path.pop();
    }
}

/// The columns of a collection whose items `item` describes, under the
/// collection's `path`: `None` when its items are no eligible scalar and no
/// flat object of them.
fn items(schema: &Schema, item: u32, path: &[String]) -> Option<Vec<(Vec<String>, TypeTag, bool)>> {
    if let Some((tag, nullable)) = leaf(schema, item) {
        return Some(vec![(path.to_vec(), tag, nullable)]);
    }
    let Some((_, SchemaNode::Object { fields, .. })) = non_null(schema, item) else {
        return None;
    };
    fields
        .iter()
        .map(|(fid, child)| {
            let (tag, nullable) = leaf(schema, *child)?;
            let name = schema.field_name(*fid)?.to_owned();
            Some(([path, std::slice::from_ref(&name)].concat(), tag, nullable))
        })
        .collect()
}

/// The eligible scalar type `node` describes, and whether it is the `T` of
/// a `union(T, null)`.
fn leaf(schema: &Schema, node: u32) -> Option<(TypeTag, bool)> {
    match schema.node(node) {
        SchemaNode::Scalar { tag, .. } if column_eligible(*tag) => Some((*tag, false)),
        SchemaNode::Union { children, .. } => {
            let (tag, _) = nullable_union_member(children)?;
            column_eligible(tag).then_some((tag, true))
        }
        _ => None,
    }
}

/// `node`, or the non-null member of a `union(T, null)` it is, with its id.
fn non_null(schema: &Schema, node: u32) -> Option<(u32, &SchemaNode)> {
    match schema.node(node) {
        SchemaNode::Union { children, .. } => {
            let (_, id) = nullable_union_member(children)?;
            Some((id, schema.node(id)))
        }
        other => Some((node, other)),
    }
}

/// For a two-member union of `{T, null}`, `T` and its node.
fn nullable_union_member(children: &[(TypeTag, u32)]) -> Option<(TypeTag, u32)> {
    match children {
        [(TypeTag::Null, _), other] | [other, (TypeTag::Null, _)] => {
            (other.0 != TypeTag::Null).then_some(*other)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::path::parse_path;
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
            r#"{"id": 0, "tags": [1, "two"], "age": 5, "grid": [[1]]}"#,
            r#"{"id": 1, "age": "five", "deep": {"arr": [{"x": 1, "in": [2]}]}}"#,
            r#"{"id": 2, "odd": [{"x": 1}, 2], "when": [{"d": date("2020-01-01")}]}"#,
        ]);
        let got: Vec<String> = leaf_columns(&s).iter().map(LeafColumn::dotted).collect();
        // `tags` and `odd` mix item types, `age` is union(int, string),
        // `grid` nests a collection, an item of `deep.arr` holds one, and an
        // item of `when` a date — none become columns.
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn one_collection_level_is_repeated_columns() {
        let s = observed(&[
            r#"{"id": 0, "tags": ["a", null], "readings": [{"temp": 1.5, "timestamp": 7}]}"#,
            r#"{"id": 1, "bag": {{true}}, "o": {"xs": [1, 2]}, "readings": [null, {"temp": 2.5}]}"#,
            r#"{"id": 2, "readings": null}"#,
        ]);
        let cols = leaf_columns(&s);
        let got: Vec<(String, TypeTag, bool)> =
            cols.iter().map(|c| (c.dotted(), c.tag, c.nullable)).collect();
        assert_eq!(
            got,
            vec![
                ("bag[*]".into(), TypeTag::Boolean, false),
                ("o.xs[*]".into(), TypeTag::Int64, false),
                ("readings[*].temp".into(), TypeTag::Double, false),
                ("readings[*].timestamp".into(), TypeTag::Int64, false),
                ("tags[*]".into(), TypeTag::String, true),
            ]
        );
        let rep = |c: &LeafColumn| c.repeated.map(|r| (r.depth, r.kind));
        assert_eq!(rep(&cols[0]), Some((1, TypeTag::Multiset)));
        assert_eq!(rep(&cols[1]), Some((2, TypeTag::Array)));
        assert_eq!(cols[2].path, ["readings", "temp"]);
        assert_eq!(rep(&cols[2]), Some((1, TypeTag::Array)));
        assert_eq!(steps(&cols[2].path, cols[2].repeated), parse_path("readings[*].temp"));
        assert_eq!(steps(&cols[4].path, cols[4].repeated), parse_path("tags[*]"));
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
