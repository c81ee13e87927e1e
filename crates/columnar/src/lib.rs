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
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ body, one byte stream:                                           │
//! │   group 0: [keys][residual][col a.b][col a.m][…]                 │
//! │   group 1: [keys][residual][col a.b][col a.m][…]   back to back, │
//! │   …                                                no padding    │
//! │   [column index blob]                              ← pad to page │
//! │ [generic component tail (bloom, id, …)]                          │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * Every eligible schema leaf path ([`tc_schema::leaf_columns`]) plus the
//!   declared scalar root fields become a **typed column**: a per-row
//!   definition byte (`0` absent, `1` null, `2` present) and a packed value
//!   array (i64/f64 little-endian, bools, or length-prefixed strings).
//! * Values that *leave* the schema — heterogeneous unions, collections,
//!   exotic scalars, or a type-mismatched row — stay in the row-encoded
//!   **residual column**: a vector record of what remains, so shred →
//!   reconstruct is lossless for arbitrary documents. It is a *compacted*
//!   record (§3.3.2 of the source paper): its field names are ids of the
//!   dictionary in the component's own schema blob, its declared fields
//!   catalog indices — no name is spelled out in any row. The dictionary only
//!   ever grows and a merged component carries its newest input's blob, so a
//!   residual row copied from an older component reads the same under the
//!   merged one's dictionary. (A component built with no schema blob — only
//!   tests do that — has no dictionary, and its residual rows keep their
//!   names inline.)
//! * The **column index** maps each column to its block per row group, with
//!   min/max stats, null counts, and spill counts; scans fault in only the
//!   columns a query references and skip whole groups whose stats cannot
//!   satisfy a pushed-down conjunct.
//!
//! A block is a **byte range** of the body ([`chunk::PageRun`]: offset,
//! length): the writer appends each group's keys, residual and column
//! blocks one behind the other through a single page writer, the index blob
//! last, and only the body's last page is padded. A block starts and ends
//! anywhere in a page; reading it faults in the pages its range lies on, and
//! its neighbours share the first and last of them. The three blocks whose
//! rows vary in width open with an **offset table** — one little-endian
//! `u32` per row, the offset at which that row *ends* in the area after the
//! table (row 0 starts at 0) — so a point lookup ([`ChunkReader`]'s
//! `get_row`) reads one row and faults in only the pages holding it:
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
//! That is the one format, number 3. The index blob names it: `TCAX`, then
//! `[0x80 | version, 0x00]` ([`chunk::FORMAT_VERSION`]), then the columns and
//! groups. A reader must refuse a component whose blocks it would misread,
//! and [`chunk::deserialize_index`] returns `None` for any version but its
//! own — format 2 (every block on fresh pages, names inline in every
//! residual row) included: nothing on disk outlives a process here, so there
//! is one writer and one reader and no second path.
//!
//! All pages go through the component's own
//! [`PageStore`](tc_storage::page_store::PageStore), so PR 8's CRC footers,
//! fault injection, and disk accounting apply to column pages exactly as to
//! row blocks.
//!
//! # Reading
//!
//! Whole blocks have one reader: [`GroupView`], "row group `g` of this
//! chunk". It reads the residual block and each column block through the
//! buffer cache the first time a row of it is asked for, keeps it as stored,
//! and counts it once ([`ColumnarCounters::columns_faulted`], the view's
//! `bytes_read`). It answers by row: the value at a column's path (`value_at`,
//! which turns to the residual where the group recorded a spill), an `Int64`
//! or `Double` column's value for primitive loops, the row's residual record
//! as a slice of the block and paths evaluated over it, and the row's
//! definition byte and value bytes as stored. Three consumers read through it,
//! and so cannot disagree about the block format or fault a block the others
//! would not: `tc_query`'s scans (the at-rest scan's filter loops and the live
//! scan's batch fill), group reconstruction (`read_group_rows`) and the
//! merging writer's copy.
//!
//! The point read (`get_row`) does not read whole blocks — it faults in only
//! the pages its row lies on — but it finds the row with the same code: where
//! a row's bytes lie (offset table → span; definition bytes → rank → value) is
//! written once in [`chunk`], over "a block's bytes by range", which a view
//! answers from memory and a point read from pages. The keys block is read on
//! its own (`read_group_keys`, and `get_row`'s binary search): scans reconcile
//! components on keys before any row is wanted.
//!
//! # Writing, and how a merge copies a row
//!
//! One streaming writer ([`AmaxWriter`]) builds every component: rows go in
//! one at a time, a full row group is appended to the body at once, and
//! nothing but the open group stays in memory. It is opened from the
//! component's schema blob, which every build has before its first row. A
//! flush or bulk load hands it records, and it **shreds them as bytes**: one
//! walk over the vector record's items against a trie of the column paths
//! sends a scalar at a column's path (of the column's type, or a null)
//! straight into the column's buffers and copies every other item into the
//! residual record under construction — a compacted input's field ids as
//! they are, an inline name (a record pivoted out of another component)
//! looked up in the dictionary. No `Value` is built and no field name
//! allocated; a name or id the dictionary lacks is a typed corruption error,
//! never a dropped field. A merge hands the writer *row references* into its
//! columnar inputs, and the writer copies: it keeps what the view of one
//! source group per input has read, asks it for row `i`'s definition byte,
//! value bytes and residual record as stored (references arrive in key
//! order, so each source is read forward), and appends them to the open
//! group, recomputing that group's min/max, null counts and offset tables.
//! No record is assembled, and the bytes written are the ones re-shredding
//! the reconstructed record would write.
//!
//! The copy is refused, one source group at a time, whenever that last claim
//! cannot be proven: a source whose column specs differ from the output's
//! (the residuals would hold different fields) or whose dictionary is not a
//! prefix of the output's (it always is within one partition; the residuals'
//! ids would name other fields), a group with a spilled value
//! in any column (which rows spilled is recorded only inside their residual
//! records, and the output needs its own count), or a chunk that is not a
//! [`ChunkReader`] ([`ChunkReader::of`]). Those rows are pivoted — `get_row`,
//! then the flush path — and counted in
//! [`ColumnarCounters::rows_reconstructed`]; copied rows count in
//! [`ColumnarCounters::rows_column_merged`], so "did this merge pivot?" is a
//! before/after lookup of the pair.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod chunk;
mod shred;
pub mod writer;

use std::sync::atomic::{AtomicU64, Ordering};

pub use chunk::{ChunkReader, GroupView};
pub use writer::{AmaxCodec, AmaxWriter};

/// How many rows a row group holds (the last group of a component may be
/// shorter). Small enough that group min/max stats discriminate, large
/// enough that a column block is worth its index entry.
pub const DEFAULT_GROUP_ROWS: usize = 1024;

/// Definition levels stored per row per column.
pub const DEF_ABSENT: u8 = 0;
pub const DEF_NULL: u8 = 1;
pub const DEF_PRESENT: u8 = 2;

/// Shared counters for the columnar satellite stats: the codec counts pages
/// it writes; readers count column blocks faulted in, group pages skipped
/// via min/max stats, rows run through the typed filter loops, rows pivoted
/// back into records, single-row point lookups, and rows a merge copied
/// column to column. A dataset holds one handle for all its components
/// (`Dataset::columnar_counters`); `LsmStats` carries none of them.
#[derive(Debug, Default)]
pub struct ColumnarCounters {
    pub pages_written: AtomicU64,
    pub pages_skipped: AtomicU64,
    pub columns_faulted: AtomicU64,
    pub typed_filter_rows: AtomicU64,
    pub rows_reconstructed: AtomicU64,
    pub point_lookups: AtomicU64,
    pub rows_column_merged: AtomicU64,
}

impl ColumnarCounters {
    /// Column pages the codec wrote during flush/merge.
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Row groups' column pages a columnar scan proved irrelevant from
    /// min/max stats and never faulted in.
    pub fn pages_skipped(&self) -> u64 {
        self.pages_skipped.load(Ordering::Relaxed)
    }

    /// Column blocks a columnar scan actually read (the column-pruning
    /// numerator: referenced columns only, not the whole component).
    pub fn columns_faulted(&self) -> u64 {
        self.columns_faulted.load(Ordering::Relaxed)
    }

    /// Rows evaluated by the typed (no `Value` boxing) filter loops — proof
    /// the zero-pivot fast path fired.
    pub fn typed_filter_rows(&self) -> u64 {
        self.typed_filter_rows.load(Ordering::Relaxed)
    }

    /// Rows decoded, grafted and re-encoded into records. `read_group_rows`
    /// adds its group's rows: scans that want whole records (the row engine,
    /// whole-record paths) and merges into a row-format component
    /// (migration), for the groups that own a winner. A merge into a
    /// columnar component adds to it only through the writer's fallback —
    /// one per row it could not copy column-wise. A point lookup adds none,
    /// nor does a batched scan of typed or residual paths.
    pub fn rows_reconstructed(&self) -> u64 {
        self.rows_reconstructed.load(Ordering::Relaxed)
    }

    /// `get_row` calls: point lookups that reached a row group.
    pub fn point_lookups(&self) -> u64 {
        self.point_lookups.load(Ordering::Relaxed)
    }

    /// Rows a merge copied from a source group's column and residual blocks
    /// straight into its output group, never assembling the record. With
    /// `rows_reconstructed` unchanged across a merge, this advances by the
    /// merge's output rows that came from columnar inputs.
    pub fn rows_column_merged(&self) -> u64 {
        self.rows_column_merged.load(Ordering::Relaxed)
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
