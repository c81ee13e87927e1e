//! Declared datatypes: the `CREATE TYPE … AS OPEN|CLOSED` model (paper §2.1).
//!
//! A dataset is created from a datatype that declares at least its primary
//! key. *Open* types admit additional, undeclared fields (stored
//! self-describing); *closed* types admit only declared fields. Neither
//! admits a missing non-optional declared field.

use crate::error::AdmError;
use crate::typetag::TypeTag;
use crate::value::Value;

/// The type of a declared field or item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeKind {
    /// A scalar of the given tag.
    Scalar(TypeTag),
    /// A nested object type.
    Object(ObjectType),
    /// An array with a declared item type.
    Array(Box<TypeKind>),
    /// A multiset with a declared item type.
    Multiset(Box<TypeKind>),
    /// Any value — used where AsterixDB would leave a field undeclared.
    Any,
}

impl TypeKind {
    /// Does `value` conform to this kind?
    pub fn check(&self, value: &Value) -> Result<(), AdmError> {
        match (self, value) {
            (TypeKind::Any, _) => Ok(()),
            (TypeKind::Scalar(tag), v) => {
                if v.type_tag() == *tag {
                    Ok(())
                } else {
                    Err(AdmError::type_check(format!("expected {}, found {}", tag, v.type_tag())))
                }
            }
            (TypeKind::Object(ot), Value::Object(_)) => ot.check(value),
            (TypeKind::Array(item), Value::Array(items))
            | (TypeKind::Multiset(item), Value::Multiset(items)) => {
                for v in items {
                    item.check(v)?;
                }
                Ok(())
            }
            (kind, v) => {
                Err(AdmError::type_check(format!("expected {kind:?}, found {}", v.type_tag())))
            }
        }
    }
}

/// A declared field of an object type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    pub kind: TypeKind,
    /// Marked with `?` in ADM DDL: the field may be absent or null.
    pub optional: bool,
}

/// A declared object type: ordered field declarations plus openness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectType {
    pub is_open: bool,
    pub fields: Vec<FieldDef>,
}

impl ObjectType {
    /// An open type declaring nothing — what a pure schema-less dataset uses
    /// beyond its primary key.
    pub fn fully_open() -> Self {
        ObjectType { is_open: true, fields: Vec::new() }
    }

    /// Builder: declare a required field.
    pub fn with_field(mut self, name: impl Into<String>, kind: TypeKind) -> Self {
        self.fields.push(FieldDef { name: name.into(), kind, optional: false });
        self
    }

    pub fn open(fields: Vec<FieldDef>) -> Self {
        ObjectType { is_open: true, fields }
    }

    pub fn closed(fields: Vec<FieldDef>) -> Self {
        ObjectType { is_open: false, fields }
    }

    /// Index of a declared field, as the metadata node would resolve it for
    /// `getField(emp, 1)`-style rewrites (paper §2.3).
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn field(&self, idx: usize) -> Option<&FieldDef> {
        self.fields.get(idx)
    }

    /// Validate a value against this object type. Checks: declared types
    /// match, non-optional fields present and non-null, and (for closed
    /// types) no undeclared fields.
    pub fn check(&self, value: &Value) -> Result<(), AdmError> {
        let Value::Object(fields) = value else {
            return Err(AdmError::type_check(format!(
                "expected object, found {}",
                value.type_tag()
            )));
        };
        for decl in &self.fields {
            match fields.iter().find(|(n, _)| *n == decl.name) {
                Some((_, v)) => {
                    if v.is_null_or_missing() {
                        if !decl.optional {
                            return Err(AdmError::type_check(format!(
                                "non-optional field '{}' is {}",
                                decl.name,
                                v.type_tag()
                            )));
                        }
                    } else {
                        decl.kind.check(v).map_err(|e| {
                            AdmError::type_check(format!("field '{}': {e}", decl.name))
                        })?;
                    }
                }
                None if decl.optional => {}
                None => {
                    return Err(AdmError::type_check(format!(
                        "missing non-optional field '{}'",
                        decl.name
                    )))
                }
            }
        }
        if !self.is_open {
            for (name, _) in fields {
                if self.field_index(name).is_none() {
                    return Err(AdmError::type_check(format!(
                        "closed type does not admit field '{name}'"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Split an object's fields into (declared-in-order, open) parts; the
    /// physical formats store these sections differently. Declared entries
    /// are `None` when an optional field is absent.
    pub fn partition_fields<'v>(
        &self,
        fields: &'v [(String, Value)],
    ) -> (Vec<Option<&'v Value>>, Vec<(&'v str, &'v Value)>) {
        let declared: Vec<Option<&Value>> = self
            .fields
            .iter()
            .map(|decl| fields.iter().find(|(n, _)| *n == decl.name).map(|(_, v)| v))
            .collect();
        let open: Vec<(&str, &Value)> = fields
            .iter()
            .filter(|(n, _)| self.field_index(n).is_none())
            .map(|(n, v)| (n.as_str(), v))
            .collect();
        (declared, open)
    }
}

/// A named datatype in the metadata catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datatype {
    pub name: String,
    pub object: ObjectType,
}

impl Datatype {
    pub fn new(name: impl Into<String>, object: ObjectType) -> Self {
        Datatype { name: name.into(), object }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// The paper's Figure 1 types.
    fn employee_types() -> (ObjectType, ObjectType) {
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
        let employee = ObjectType::open(vec![
            FieldDef { name: "id".into(), kind: TypeKind::Scalar(TypeTag::Int64), optional: false },
            FieldDef {
                name: "name".into(),
                kind: TypeKind::Scalar(TypeTag::String),
                optional: false,
            },
            FieldDef {
                name: "dependents".into(),
                kind: TypeKind::Multiset(Box::new(TypeKind::Object(dependent.clone()))),
                optional: true,
            },
        ]);
        (dependent, employee)
    }

    #[test]
    fn open_type_admits_undeclared_fields() {
        let (_, employee) = employee_types();
        let v = parse(r#"{"id": 0, "name": "Kim", "age": 26}"#).unwrap();
        employee.check(&v).unwrap();
    }

    #[test]
    fn closed_type_rejects_undeclared_fields() {
        let (dependent, _) = employee_types();
        let ok = parse(r#"{"name": "Bob", "age": 6}"#).unwrap();
        dependent.check(&ok).unwrap();
        let bad = parse(r#"{"name": "Bob", "age": 6, "extra": 1}"#).unwrap();
        assert!(dependent.check(&bad).is_err());
    }

    #[test]
    fn non_optional_fields_are_required() {
        let (_, employee) = employee_types();
        let missing_name = parse(r#"{"id": 0}"#).unwrap();
        assert!(employee.check(&missing_name).is_err());
        let null_name = parse(r#"{"id": 0, "name": null}"#).unwrap();
        assert!(employee.check(&null_name).is_err());
    }

    #[test]
    fn optional_fields_may_be_absent_or_null() {
        let (_, employee) = employee_types();
        let v = parse(r#"{"id": 0, "name": "Kim"}"#).unwrap();
        employee.check(&v).unwrap();
        let v = parse(r#"{"id": 0, "name": "Kim", "dependents": null}"#).unwrap();
        employee.check(&v).unwrap();
    }

    #[test]
    fn nested_item_types_are_checked() {
        let (_, employee) = employee_types();
        let bad = parse(r#"{"id": 0, "name": "Kim", "dependents": {{ {"name": 5, "age": 6} }}}"#)
            .unwrap();
        assert!(employee.check(&bad).is_err());
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (_, employee) = employee_types();
        let bad = parse(r#"{"id": "zero", "name": "Kim"}"#).unwrap();
        assert!(employee.check(&bad).is_err());
    }

    #[test]
    fn field_index_matches_declaration_order() {
        let (_, employee) = employee_types();
        assert_eq!(employee.field_index("id"), Some(0));
        assert_eq!(employee.field_index("name"), Some(1));
        assert_eq!(employee.field_index("dependents"), Some(2));
        assert_eq!(employee.field_index("age"), None);
    }

    #[test]
    fn partition_fields_splits_declared_and_open() {
        let (_, employee) = employee_types();
        let v = parse(r#"{"id": 0, "name": "Kim", "age": 26}"#).unwrap();
        let Value::Object(fields) = &v else { panic!("parsed an object") };
        let (declared, open) = employee.partition_fields(fields);
        assert_eq!(declared.len(), 3);
        assert!(declared[0].is_some() && declared[1].is_some());
        assert!(declared[2].is_none()); // optional dependents absent
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].0, "age");
    }

    #[test]
    fn any_kind_accepts_everything() {
        TypeKind::Any.check(&Value::Int64(1)).unwrap();
        TypeKind::Any.check(&parse("[1, {\"x\": null}]").unwrap()).unwrap();
    }
}
