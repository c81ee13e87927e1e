//! Schema tree nodes (paper Fig 10b).

use tc_adm::TypeTag;

use crate::dictionary::FieldNameId;

/// Arena index of a schema node.
pub type NodeId = u32;

/// One node of the schema structure. Every variant carries the occurrence
/// `counter` §3.2.2 uses for delete maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaNode {
    /// A scalar leaf of a single type.
    Scalar { tag: TypeTag, counter: u64 },
    /// An object; children are keyed by field-name id. Field ids are unique
    /// within one object node (paper §3.2.1).
    Object { counter: u64, fields: Vec<(FieldNameId, NodeId)> },
    /// An array or multiset; `item` is the single child describing item
    /// types (possibly a union).
    Collection { tag: TypeTag, counter: u64, item: Option<NodeId> },
    /// A field/item seen with more than one type. Children are keyed by
    /// type tag; capacity is bounded by the number of value types in the
    /// system (27 in AsterixDB — §3.2.1).
    Union { counter: u64, children: Vec<(TypeTag, NodeId)> },
    /// Tombstone for a pruned node (arena slot reusable).
    Dead,
}

impl SchemaNode {
    pub fn counter(&self) -> u64 {
        match self {
            SchemaNode::Scalar { counter, .. }
            | SchemaNode::Object { counter, .. }
            | SchemaNode::Collection { counter, .. }
            | SchemaNode::Union { counter, .. } => *counter,
            SchemaNode::Dead => 0,
        }
    }

    #[expect(clippy::panic, reason = "callers reach nodes through live parents only")]
    pub fn counter_mut(&mut self) -> &mut u64 {
        match self {
            SchemaNode::Scalar { counter, .. }
            | SchemaNode::Object { counter, .. }
            | SchemaNode::Collection { counter, .. }
            | SchemaNode::Union { counter, .. } => counter,
            SchemaNode::Dead => panic!("counter_mut on dead node"),
        }
    }

    /// The value type this node describes (`None` for unions, which describe
    /// several).
    pub fn type_tag(&self) -> Option<TypeTag> {
        match self {
            SchemaNode::Scalar { tag, .. } => Some(*tag),
            SchemaNode::Object { .. } => Some(TypeTag::Object),
            SchemaNode::Collection { tag, .. } => Some(*tag),
            SchemaNode::Union { .. } | SchemaNode::Dead => None,
        }
    }

    pub fn is_dead(&self) -> bool {
        matches!(self, SchemaNode::Dead)
    }

    /// Does this node (directly or through a union) describe values of
    /// `tag`?
    pub fn matches_tag(&self, tag: TypeTag) -> bool {
        match self {
            SchemaNode::Union { children, .. } => children.iter().any(|(t, _)| *t == tag),
            other => other.type_tag() == Some(tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accessible_across_variants() {
        let mut nodes = [
            SchemaNode::Scalar { tag: TypeTag::Int64, counter: 5 },
            SchemaNode::Object { counter: 2, fields: vec![] },
            SchemaNode::Collection { tag: TypeTag::Array, counter: 3, item: None },
            SchemaNode::Union { counter: 7, children: vec![] },
        ];
        for n in &mut nodes {
            assert!(n.counter() > 0);
            *n.counter_mut() += 1;
        }
        assert_eq!(nodes[0].counter(), 6);
    }

    #[test]
    fn tags_and_matching() {
        let scalar = SchemaNode::Scalar { tag: TypeTag::String, counter: 1 };
        assert_eq!(scalar.type_tag(), Some(TypeTag::String));
        assert!(scalar.matches_tag(TypeTag::String));
        assert!(!scalar.matches_tag(TypeTag::Int64));

        let union = SchemaNode::Union {
            counter: 2,
            children: vec![(TypeTag::Int64, 1), (TypeTag::String, 2)],
        };
        assert_eq!(union.type_tag(), None);
        assert!(union.matches_tag(TypeTag::Int64));
        assert!(union.matches_tag(TypeTag::String));
        assert!(!union.matches_tag(TypeTag::Double));
    }
}
