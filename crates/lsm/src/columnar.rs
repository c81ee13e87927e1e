//! Pluggable columnar component bodies.
//!
//! The LSM engine is format-agnostic: payloads are byte strings. The AMAX
//! columnar layout (successor paper, "Columnar Formats for Schemaless
//! LSM-based Document Stores") needs to *interpret* those payloads during
//! flush/merge — decode, shred into typed column pages, and reconstruct on
//! scan — which only the format layer knows how to do. These three traits
//! are the seam: `tc_columnar` implements them against the vector codec and
//! the inferred schema; `tc_lsm` stays payload-blind and merely routes a
//! component's entries through the codec when the tree is in columnar mode.
//!
//! The write side is a **streaming writer** ([`ColumnarWriter`]): entries go
//! in one at a time, a row group is written out as soon as it is full, and
//! the writer never holds more than one group. A component's column set *is*
//! its schema, so the codec opens the writer from the component's metadata
//! blob ([`ColumnarCodec::writer`]) — and every build has that blob before
//! its first entry:
//!
//! * a **flush** or **bulk load** runs the hook's flush pass over all its
//!   entries first (the frozen memtable is in hand whole), takes the pass's
//!   `metadata()`, and only then opens the builder and pushes the
//!   transformed entries;
//! * a **merge** keeps its newest input's blob, chosen before the scan
//!   starts. Winners that live in columnar inputs arrive as row
//!   *references* ([`ColumnarWriter::push_row`]); a codec that can prove it
//!   safe copies the row's column values from the source's pages into the
//!   output's, and the row is never assembled into a record.
//!
//! Contract mirroring the row layout:
//! * The writer puts every column page (and any index blob) through the
//!   component's own `PageStore`, so `disk_bytes` and write-amplification
//!   accounting stay honest and PR 8's per-page CRC footers apply unchanged.
//!   Pushed as bytes or as row references, the same entries produce the
//!   same pages.
//! * Entries arrive strictly ascending by key; groups preserve that order,
//!   so `group_first_key` supports the same binary-search positioning as row
//!   blocks.
//! * `read_group_keys` returns a group's `(key, kind)` pairs from its keys
//!   block alone. Scans reconcile components on these — a newer version or
//!   an anti-matter entry masks a row id, it never forces a record to be
//!   assembled — and address a surviving row as `(group, row)`.
//! * `read_group_rows` returns each row under the key and kind it was given
//!   with, and a payload that decodes to an *equal record* — reconstruction
//!   must be lossless, which the format-equivalence proptest enforces end to
//!   end. The payload's **bytes are the codec's choice**, not the ones pushed:
//!   `tc_columnar` hands back the uncompacted vector encoding (field names
//!   inline, fields in assembly order) of a record it was given compacted,
//!   and anything that reads a payload must decode it, never compare it.
//!   What is byte-stable is the written side: the same entries, pushed as
//!   bytes or as row references, produce the same pages. Bytes are made only
//!   for those who want bytes — a merge that cannot copy a row, the write
//!   path's old version, the row engine. A reader that knows the concrete
//!   chunk (`tc_columnar`'s) assembles a whole record straight into a value
//!   instead, for scans and point reads alike.
//! * A point lookup is two steps: `find_row` binary-searches the group's
//!   keys block for the key's row id and kind, and `read_row` reads that one
//!   row — byte for byte what `read_group_rows` returns for it — faulting in
//!   only the pages it lies on. The tree's probe stops after the first:
//!   its hit is a row reference, resolved by whoever wants it, as bytes or
//!   as a record.

use tc_storage::buffer_cache::BufferCache;
use tc_storage::error::StorageError;
use tc_storage::page_store::PageStore;

use crate::entry::{EntryKind, Key};
use crate::zone::{Zone, ZoneColumn};

/// Builds the columnar body of one disk component during flush/merge.
pub trait ColumnarCodec: Send + Sync + std::fmt::Debug {
    /// Open the streaming writer of one component. `schema_blob` is that
    /// component's metadata (the tuple compactor's serialized schema) — it
    /// decides which leaf paths get typed columns.
    fn writer(&self, schema_blob: Option<&[u8]>) -> Box<dyn ColumnarWriter>;

    /// Shred `entries` (strictly ascending by key) into column pages written
    /// through `store`, returning the in-memory chunk handle: a loop of
    /// `push` over [`ColumnarCodec::writer`], for callers that hold a whole
    /// batch (benchmarks, test oracles).
    fn build_chunk(
        &self,
        store: &PageStore,
        entries: &[(Key, EntryKind, Vec<u8>)],
        schema_blob: Option<&[u8]>,
    ) -> Result<Box<dyn ColumnarChunk>, StorageError> {
        let mut writer = self.writer(schema_blob);
        for (key, kind, payload) in entries {
            writer.push(store, key, *kind, payload)?;
        }
        writer.finish(store)
    }
}

/// One stored row of a columnar component, as a merged scan refers to it
/// (`Payload::Row`): the chunk and page store it lives in, the cache its
/// pages are read through, and its position.
pub struct RowSource<'a> {
    pub chunk: &'a dyn ColumnarChunk,
    pub store: &'a PageStore,
    pub cache: &'a BufferCache,
    pub group: u32,
    pub row: u32,
}

/// Writes one columnar component body a row at a time, holding at most one
/// row group. `store` is the page store of the component being built — the
/// same one on every call. Keys arrive strictly ascending (the component
/// builder checks). Any error abandons the build.
pub trait ColumnarWriter: Send + std::fmt::Debug {
    /// Append an entry given as payload bytes (anti-matter: empty payload).
    fn push(
        &mut self,
        store: &PageStore,
        key: &[u8],
        kind: EntryKind,
        payload: &[u8],
    ) -> Result<(), StorageError>;

    /// Append the record stored at `source` under `key`. The result must be
    /// what `push(key, Record, payload)` writes for the payload `read_row`
    /// returns — how the writer gets there (copying column values, or that
    /// very pivot) is its business. References into one source arrive in key
    /// order, so a writer reads each source forward only.
    fn push_row(
        &mut self,
        store: &PageStore,
        key: &[u8],
        source: RowSource<'_>,
    ) -> Result<(), StorageError>;

    /// Write the last (partial) group and the index blob; the readable chunk.
    fn finish(self: Box<Self>, store: &PageStore) -> Result<Box<dyn ColumnarChunk>, StorageError>;
}

/// The readable columnar body of one disk component: row groups of column
/// blocks plus a column index. Scans walk the key blocks
/// (`read_group_keys`) and hand out row references; point lookups find one
/// (`find_row`). A reference is turned into a payload by `read_group_rows`
/// or `read_row` — the format-agnostic path, for callers that want bytes —
/// or answered column by column, or assembled into a record, by a reader
/// (or a merging writer) that knows the concrete chunk: the trait is `Any`,
/// so the format layer that built a chunk can ask whether
/// `&dyn ColumnarChunk` is its own type (typed column access, min/max group
/// stats, record assembly) and fall back to these methods when it is not.
pub trait ColumnarChunk: std::any::Any + Send + Sync + std::fmt::Debug {
    /// Number of row groups; groups are ordered, keys ascending across and
    /// within groups.
    fn num_groups(&self) -> usize;

    /// Smallest key in group `g` (panics if out of range).
    fn group_first_key(&self, g: usize) -> &[u8];

    /// Group `g`'s `(key, kind)` pairs in key order, read from its keys
    /// block alone; row `i` of the group is entry `i`. Errors as
    /// `read_group_rows`.
    fn read_group_keys(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind)>, StorageError>;

    /// Reconstruct group `g`'s rows: the keys and kinds handed to the
    /// writer, each payload an encoding of a record equal to the one pushed
    /// (not necessarily its bytes — see the module docs). Corruption
    /// surfaces as the same typed `StorageError`s row blocks produce, so
    /// quarantine and fail/degrade policies apply unchanged.
    #[allow(clippy::type_complexity)]
    fn read_group_rows(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
    ) -> Result<Vec<(Key, EntryKind, Vec<u8>)>, StorageError>;

    /// Point lookup in group `g` (the group whose key range covers `key`):
    /// the key's row id in the group and its kind, or `None` if the group
    /// does not hold it. Reads the keys block only. Errors as
    /// `read_group_rows`.
    fn find_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        key: &[u8],
    ) -> Result<Option<(u32, EntryKind)>, StorageError>;

    /// Row `row` of group `g`, a record: the payload `read_group_rows` would
    /// return for it, reading only that row. Errors as `read_group_rows`.
    fn read_row(
        &self,
        store: &PageStore,
        cache: &BufferCache,
        g: usize,
        row: u32,
    ) -> Result<Vec<u8>, StorageError>;

    /// Group `g`'s zone and the columns it covers, as a filtered scan judges
    /// the group (see [`crate::zone`]); `None` (the default) if the chunk
    /// keeps no summaries, and then no scan skips its groups.
    fn group_zone(&self, _g: usize) -> Option<(&[ZoneColumn], Zone)> {
        None
    }
}
