//! AMAX-style columnar component layout.
//!
//! The successor paper to the tuple compactor ("Columnar Formats for
//! Schemaless LSM-based Document Stores") observes that once a schema has
//! been inferred, flushed LSM components can store *column pages* instead of
//! row vectors and analytics scans stop paying for fields they never touch.
//! This crate is that layout, driven by exactly the schema the tuple
//! compactor already persists in each component's metadata blob:
//!
//! ```text
//! component page store
//! ┌──────────────────────────────────────────────────────────────┐
//! │ row group 0:  [keys block][residual][col a.b][col a.m][…]    │
//! │ row group 1:  [keys block][residual][col a.b][col a.m][…]    │
//! │ …                                                            │
//! │ [column index blob]  [generic component tail (bloom, id, …)] │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! * Every eligible schema leaf path ([`tc_schema::leaf_columns`]) plus the
//!   declared scalar root fields become a **typed column**: a per-row
//!   definition byte (`0` absent, `1` null, `2` present) and a packed value
//!   array (i64/f64 little-endian, bools, or length-prefixed strings).
//! * Values that *leave* the schema — heterogeneous unions, collections,
//!   exotic scalars, or a type-mismatched row — stay in the row-encoded
//!   **residual column** (an uncompacted vector record of what remains),
//!   so shred → reconstruct is lossless for arbitrary documents.
//! * The **column index** maps each column to its page runs per row group,
//!   with min/max stats, null counts, and spill counts; scans fault in only
//!   the columns a query references and skip whole groups whose stats
//!   cannot satisfy a pushed-down conjunct.
//!
//! Every block starts on a fresh page. The three blocks whose rows vary in
//! width open with an **offset table** — one little-endian `u32` per row,
//! the offset at which that row *ends* in the area after the table (row 0
//! starts at 0) — so a point lookup ([`ChunkReader`]'s `get_row`) reads one
//! row and faults in only the pages holding it:
//!
//! ```text
//! keys block      [end × rows] [varint klen, key, kind byte]…
//! residual block  [end × rows] [varint len, vector record]…   (len 0 = anti-matter)
//! string column   [end × rows] [def × rows] [varint len, utf-8]…  (present rows only;
//!                                           offsets count from the end of the def bytes)
//! i64/f64/bool    [def × rows] [fixed-width value]…           (present rows only;
//!                                           row i's value is found by rank over def)
//! ```
//!
//! The offset tables are block format 2. The index blob says which format a
//! component has: `TCAX`, then `[0x80 | version, 0x00]`, then the columns
//! and groups. Format 1 components (no tables; the blob goes from `TCAX`
//! straight to the column count) still read, point lookups on them by
//! reconstructing the group.
//!
//! All pages go through the component's own [`PageStore`], so PR 8's CRC
//! footers, fault injection, and disk accounting apply to column pages
//! exactly as to row blocks.

pub mod chunk;
pub mod writer;

use std::sync::atomic::{AtomicU64, Ordering};

pub use chunk::{ChunkReader, ColumnValues, DecodedColumn};
pub use writer::AmaxCodec;

/// How many rows a row group holds (the last group of a component may be
/// shorter). Small enough that group min/max stats discriminate, large
/// enough that column blocks amortize their page overhead.
pub const DEFAULT_GROUP_ROWS: usize = 1024;

/// Definition levels stored per row per column.
pub const DEF_ABSENT: u8 = 0;
pub const DEF_NULL: u8 = 1;
pub const DEF_PRESENT: u8 = 2;

/// Shared counters for the columnar satellite stats: the codec counts pages
/// it writes; readers count column blocks faulted in, group pages skipped
/// via min/max stats, rows run through the typed filter loops, rows pivoted
/// back into records by group reconstruction, and single-row point lookups.
/// The dataset layer injects all six into [`tc_lsm::LsmStats`] snapshots.
#[derive(Debug, Default)]
pub struct ColumnarCounters {
    pub pages_written: AtomicU64,
    pub pages_skipped: AtomicU64,
    pub columns_faulted: AtomicU64,
    pub typed_filter_rows: AtomicU64,
    pub rows_reconstructed: AtomicU64,
    pub point_lookups: AtomicU64,
}

impl ColumnarCounters {
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    pub fn pages_skipped(&self) -> u64 {
        self.pages_skipped.load(Ordering::Relaxed)
    }

    pub fn columns_faulted(&self) -> u64 {
        self.columns_faulted.load(Ordering::Relaxed)
    }

    pub fn typed_filter_rows(&self) -> u64 {
        self.typed_filter_rows.load(Ordering::Relaxed)
    }

    /// Rows `read_group_rows` decoded, grafted and re-encoded: merges,
    /// migration, and scans that want whole records (the row engine,
    /// whole-record paths) — for the rows that won the reconciliation. A
    /// point lookup adds none, nor does a batched scan of typed or residual
    /// paths.
    pub fn rows_reconstructed(&self) -> u64 {
        self.rows_reconstructed.load(Ordering::Relaxed)
    }

    /// `get_row` calls: point lookups that reached a row group.
    pub fn point_lookups(&self) -> u64 {
        self.point_lookups.load(Ordering::Relaxed)
    }

    pub fn note_pages_skipped(&self, n: u64) {
        self.pages_skipped.fetch_add(n, Ordering::Relaxed);
    }

    pub fn note_typed_filter_rows(&self, n: u64) {
        self.typed_filter_rows.fetch_add(n, Ordering::Relaxed);
    }
}

/// Per-group, per-column min/max statistics over *present* (`DEF_PRESENT`)
/// values. `None` when the column holds no present value in the group, or
/// when its type has no ordered stats worth keeping (bool/string) — page
/// skipping needs numeric ranges, Fig 24-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnStats {
    None,
    Int { min: i64, max: i64 },
    Float { min: f64, max: f64 },
}
