//! The ADM (AsterixDB Data Model) substrate.
//!
//! AsterixDB's data model extends JSON with temporal and spatial scalars and
//! a multiset (bag) constructor (paper §2.1). This crate provides:
//!
//! * [`typetag::TypeTag`] — the byte-coded type tags shared by both physical
//!   record formats and the schema structure;
//! * [`value::Value`] — the in-memory tree representation of an ADM instance;
//! * [`parser`] / [`printer`] — text syntax (JSON plus ADM extensions such as
//!   `date("2018-09-20")`, `point(24.0, -56.12)` and `{{ … }}` multisets);
//! * [`datatype`] — declared datatypes (`CREATE TYPE … AS OPEN|CLOSED`),
//!   validation, and declared-field index lookup;
//! * [`adm_format`] — the *baseline* recursive physical record format with
//!   per-nested-value 4-byte offset tables and inline names for undeclared
//!   fields. This is the format the paper's `open` and `closed` datasets use,
//!   and whose offset/name overhead the tuple compactor removes;
//! * [`path`] — path expressions (`a.b[0].c`, wildcard array steps) shared by
//!   the navigators and the query engine.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod adm_format;
pub mod compare;
pub mod datatype;
pub mod error;
pub mod parser;
pub mod path;
pub mod printer;
pub mod typetag;
pub mod value;

pub use datatype::{Datatype, FieldDef, ObjectType, TypeKind};
pub use error::AdmError;
pub use path::PathStep;
pub use typetag::TypeTag;
pub use value::Value;

/// The deepest a value may nest, counting each object, array and multiset
/// on the way down ([`Value::max_depth`]); `serde_json`'s default recursion
/// limit. The parser refuses a deeper text, a dataset a deeper record, and
/// a vector-record reader a deeper tag stream, so no recursion over a value
/// can run out of stack on any thread.
pub const MAX_NESTING: usize = 128;

/// Convenience: parse ADM text into a [`Value`].
pub fn parse(text: &str) -> Result<Value, AdmError> {
    parser::Parser::new(text).parse_single()
}

/// Convenience: render a [`Value`] as ADM text.
pub fn to_string(value: &Value) -> String {
    printer::print(value)
}
