//! The vector-based physical record format (paper §3.3).
//!
//! The format separates a record's *metadata* from its *values* so the tuple
//! compactor can infer schemas and strip field names in one linear pass:
//!
//! ```text
//! header (25 B) | values' type tags | fixed-length values
//!               | varlen lengths (bit-packed) | varlen values
//!               | field names: lengths/IDs (bit-packed) | name bytes
//! ```
//!
//! * [`header`] — the 25-byte header (Fig 12): record length, tag count, two
//!   packed length bit-widths, and four section offsets. Compaction zeroes
//!   the fourth offset (field-name values) to signal names now live in the
//!   schema structure.
//! * [`mod@encode`] — `Value` → uncompacted vector record (what the in-memory
//!   component stores; also the "SL-VB" configuration of Fig 21).
//! * [`reader`] — the table-driven cursor over the tag stream; [`reader::decode`]
//!   materializes a `Value` from either compacted or uncompacted records.
//! * [`compact`] — the flush-time pass: schema inference + field-name
//!   stripping in one scan (§3.3.2), plus the schema decrement for
//!   anti-matter, one scan over the retired version's stored bytes.
//! * [`access`] — `getValues()`: evaluate *many* path expressions in a
//!   single linear scan (§3.4.2), the optimizer's consolidation target.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod access;
pub mod compact;
pub mod encode;
pub mod header;
pub mod reader;

pub use access::{doubles, get_values, BatchPathEvaluator, Column};
pub use compact::{infer_and_compact, infer_and_compact_into, remove_anti_schema};
pub use encode::{encode, try_encode, Sections};
pub use header::Header;
pub use reader::{decode, scalar_value, FieldName, RawItem, VectorReader};
