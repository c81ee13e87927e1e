//! The tuple compactor — the paper's primary contribution (§3).
//!
//! A dataset configured with `{"tuple-compactor-enabled": true}` stores
//! records in the vector-based format; during every LSM flush the compactor
//! infers the records' schema into the partition's in-memory schema
//! structure, writes the records *compacted* (field names replaced by
//! dictionary ids), and persists the schema snapshot in the new component's
//! metadata page. Deletes and upserts carry *anti-schemas* that decrement
//! the schema's counters at flush. Merges keep the newest input schema —
//! a superset of the rest — with no synchronization against the in-memory
//! schema.
//!
//! * [`config`] — dataset configuration: the four storage formats the
//!   evaluation compares (`Open`, `Closed`, `Inferred`, and Fig 21's
//!   `VectorUncompacted`/SL-VB), compression, merge policy, index options.
//! * [`compactor`] — the [`lsm::ComponentHook`](tc_lsm::ComponentHook)
//!   implementation doing the work above.
//! * [`dataset`] — a single-partition dataset: ingestion (insert / upsert /
//!   delete with primary-key-index fast path), point lookups, scans, flush /
//!   merge / bulk-load, crash + recovery.
//! * [`decoder`] — format-aware record access for the query engine:
//!   offset-based navigation for ADM records, linear `getValues` for
//!   vector-based records.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod compactor;
pub mod config;
pub mod dataset;
pub mod decoder;

pub use compactor::{MaintenanceWorker, TupleCompactor};
pub use config::{DatasetConfig, StorageFormat};
pub use dataset::{Dataset, WriterToken};
pub use decoder::{PathBatch, RecordDecoder};
