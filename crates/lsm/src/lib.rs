//! LSM B+-tree storage engine (paper §2.2).
//!
//! A from-scratch reproduction of the AsterixDB storage engine's shape:
//! records accumulate in an in-memory component and are flushed in sorted
//! batches into immutable on-disk components; deletes insert *anti-matter*
//! entries; a merge policy periodically folds components together,
//! garbage-collecting annihilated records. Components carry monotonically
//! increasing ids (`C0`, `C1`, merged `[C0,C1]`), a validity bit set only
//! after a flush/merge completes, and an opaque metadata blob — which is
//! where the tuple compactor persists each component's inferred schema.
//!
//! The engine is format-agnostic: payloads are byte strings, and a
//! [`hook::ComponentHook`] runs a [`hook::FlushPass`] over every flush and
//! bulk load. The tuple compactor (in the `tuple-compactor` crate) is
//! exactly such a hook; the open/closed baselines use the no-op hook.
//!
//! Modules: [`memtable`], [`component`] (with bulk load), [`iter`] (k-way
//! merged scans), [`policy`] (the merge-policy design space), [`wal`] +
//! crash recovery in [`tree`], [`bloom`] filters, [`secondary`] indexes
//! (plus the keys-only primary-key index used for upsert existence checks,
//! §3.2.2), and [`zone`] maps that let a filtered scan leave units unread.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod bloom;
pub mod columnar;
pub mod component;
pub mod entry;
pub mod hook;
pub mod iter;
pub mod memtable;
pub mod policy;
pub mod secondary;
pub mod tree;
pub mod wal;
pub mod zone;

pub use columnar::{ColumnarChunk, ColumnarCodec, ColumnarWriter, RowSource};
pub use component::{ComponentId, DiskComponent, LookupHit};
pub use entry::{EntryKind, Key, Lent};
pub use hook::{ComponentHook, FlushPass, NoopHook};
pub use policy::{CompactionDecision, MergePick, MergePolicy, MergeTrigger, NUM_MERGE_TRIGGERS};
pub use tree::{LsmOptions, LsmStats, LsmTree};
pub use zone::{ColumnZone, Num, Zone, ZoneColumn, ZoneExtractor, ZoneFilter};
