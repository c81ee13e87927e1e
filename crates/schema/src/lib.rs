//! The inferred schema structure (paper §3.2).
//!
//! Semi-structured records are trees; the schema structure summarizes every
//! record a partition has ingested as a *counted* tree:
//!
//! * inner nodes for nested values (objects, arrays, multisets),
//! * leaf nodes for scalars,
//! * **union** nodes where a field/item has been seen with more than one
//!   type,
//! * a **counter** per node — the number of times the tuple compactor has
//!   seen a value at that node — which is what makes delete/upsert
//!   maintenance possible (§3.2.2),
//! * a dictionary canonicalizing repeated field names into `FieldNameID`s
//!   (Fig 10c).
//!
//! The structure supports streaming construction (`observe_*` as a record's
//! tag stream is scanned during flush), streaming removal (`unobserve_*`
//! while processing an anti-matter entry's anti-schema), zero-count pruning
//! with union collapse, persistence into a component's metadata page, and a
//! superset check used to validate the merge-recency invariant (§3.1).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod columns;
pub mod dictionary;
pub mod node;
pub mod schema;

pub use columns::{column_eligible, leaf_columns, LeafColumn, Repetition};
pub use dictionary::{FieldNameDictionary, FieldNameId};
pub use node::{NodeId, SchemaNode};
pub use schema::Schema;
