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
//!   array (i64/f64 little-endian, bools, or strings).
//! * A leaf path through one collection — an array or multiset of eligible
//!   scalars (`tags[*]`), or of flat objects of them (`readings[*].temp`,
//!   `readings[*].timestamp`) — becomes a **repeated column**: per row, the
//!   collection's state (absent, null, or its item count) and one
//!   definition byte per item (`0` field missing, `1` null, `2` present, `3`
//!   the item itself null), then the present items' packed values. It is
//!   the AMAX paper's definition levels with a per-row item count for the
//!   array delimiters, and no repetition-level column: the columns of one
//!   collection carry one entry per item each, so a reader zips them back
//!   into items.
//! * Values that *leave* the schema — heterogeneous unions, nested
//!   collections, exotic scalars, a type-mismatched row, or a collection an
//!   item of which does not fit its columns (it stays whole) — stay in the
//!   row-encoded **residual column**: a vector record of what remains, so
//!   shred →
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
//!   satisfy a pushed-down conjunct. A repeated column's min/max is over its
//!   items; it is recorded, but no zone yet.
//!
//! A block is a **byte range** of the body ([`chunk::PageRun`]: offset,
//! length): the writer appends each group's keys, residual and column
//! blocks one behind the other through a single page writer, the index blob
//! last, and only the body's last page is padded. A block starts and ends
//! anywhere in a page; reading it faults in the pages its range lies on, and
//! its neighbours share the first and last of them. The four blocks whose
//! rows vary in width open with an **offset table** — one little-endian
//! `u32` per row, the offset at which that row *ends* in the area after the
//! table (row 0 starts at 0) — which bounds every row, so no row stores its
//! own length, and a point lookup ([`ChunkReader`]'s `record_at`,
//! `read_row`) reads one row and faults in only the pages holding it:
//!
//! ```text
//! keys block      [end × rows] [key, kind byte]…
//! residual block  [end × rows] [vector record]…        (an empty row = anti-matter)
//! string column   [end × rows] [def × rows] [utf-8]…   (present rows only; offsets
//!                                      count from the end of the def bytes)
//! i64/f64/bool    [def × rows] [fixed-width value]…    (present rows only;
//!                                      row i's value is found by rank over def)
//! repeated column [end × rows] [row span]…             (an empty span = no collection:
//!                                      absent, or spilled to the residual)
//! row span        [varint header] [def × items] [value]…  (header 0 = null, else
//!                                      items + 1; values of present items only,
//!                                      fixed-width or `varint len, utf-8`)
//! ```
//!
//! That is the one format, number 4. The index blob names it: `TCAX`, then
//! `[0x80 | version, 0x00]` ([`chunk::FORMAT_VERSION`]), then the columns
//! (path, type, repetition) and groups. A reader must refuse a component
//! whose blocks it would misread, and [`chunk::deserialize_index`] returns
//! `None` for any version but its own — format 3 (no repeated columns, every
//! key, residual and string row opened by its length) and format 2 (every
//! block on fresh pages, names inline in every residual row) included:
//! nothing on disk outlives a process here, so there is one writer and one
//! reader and no second path.
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
//! or `Double` column's value for primitive loops, a repeated `Int64` or
//! `Double` column's present items as packed bytes (`present_items`) or, for
//! a `Double` one, decoded into a reused `f64` buffer (`present_doubles`), a
//! collection zipped from its columns (`collection_at`), the row's residual record
//! as a slice of the block and paths evaluated over it, the row's definition
//! byte and value bytes as stored, and the row's whole record (`record`).
//! Three consumers read through it, and so cannot disagree about the block
//! format or fault a block the others would not: `tc_query`'s scans (the
//! at-rest scan's filter loops and the live scan's batch fill), group
//! reconstruction (`read_group_rows`) and the merging writer's copy.
//!
//! A whole record is **assembled into a `Value`** by one routine: decode the
//! row's residual record, then graft each typed column's value at its path
//! and each collection, zipped from its repeated columns, at its own.
//! A scan asks the view for it ([`GroupView::record`], whole blocks); a point
//! read asks the chunk ([`ChunkReader::record_at`]), which faults in only the
//! pages its row lies on. Vector bytes are made of that `Value` only for
//! callers that want bytes — `read_group_rows` and `read_row`, which serve
//! merges that cannot copy a row, the write path's old version and the row
//! engine — so the byte and `Value` forms of a row agree by construction.
//!
//! The point read does not read whole blocks, but it finds the row with the
//! same code: where a row's bytes lie (offset table → span; definition bytes
//! → rank → value) is written once in [`chunk`], over "a block's bytes by
//! range", which a view answers from memory and a point read from pages. The
//! keys block is read on its own (`read_group_keys`, and `find_row`'s binary
//! search): scans reconcile components on keys before any row is wanted, and
//! a point lookup finds its row id before it reads the row.
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
//! group, recomputing that group's min/max, null counts and offset tables — a
//! repeated column's row span is copied whole, checked, and its items
//! folded into the stats.
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
//! [`ChunkReader`] ([`ChunkReader::of`]). Those rows are pivoted — `read_row`,
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

/// Definition levels stored per row per column, and per item of a
/// repeated column: there `DEF_ABSENT` is an item object without the
/// column's field, and `DEF_ITEM_NULL` an item that is `null` itself.
pub const DEF_ABSENT: u8 = 0;
pub const DEF_NULL: u8 = 1;
pub const DEF_PRESENT: u8 = 2;
pub const DEF_ITEM_NULL: u8 = 3;

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

    /// Row groups' column pages the at-rest columnar scan proved irrelevant
    /// from min/max stats and never faulted in. A live merged scan's skipped
    /// groups are not counted here; `ExecStats::units_skipped` counts both.
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

    /// Rows assembled by a scan into whole records ([`GroupView::record`]):
    /// scans that want whole records (the row engine and `read_group_rows`,
    /// whole-record paths and paths crossing a typed column's prefix), one
    /// per row that won. A merge adds to it only through the writer's
    /// fallback — one per row it could not copy column-wise. A point lookup
    /// adds none (`record_at` and `read_row` count in no counter; the lookup
    /// is counted in `point_lookups`), nor does a batched scan of typed or
    /// residual paths.
    pub fn rows_reconstructed(&self) -> u64 {
        self.rows_reconstructed.load(Ordering::Relaxed)
    }

    /// `find_row` calls: point lookups that reached a row group.
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
