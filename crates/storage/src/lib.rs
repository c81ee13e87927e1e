//! Page/file storage layer.
//!
//! * [`device`] — simulated storage devices. The paper's experiments run on
//!   SATA and NVMe SSDs; we reproduce the *bandwidth* distinction by
//!   charging every byte moved against a configurable sequential-IO budget
//!   and reporting the simulated stall time alongside measured CPU time.
//! * [`mod@file`] — an append-only byte store (LSM components are immutable, so
//!   appends + random reads are the only operations the engine needs).
//! * [`laf`] — Look-Aside Files: the 12-byte offset/length entry table that
//!   lets arbitrary-size compressed pages live under a fixed-size page API
//!   (paper §2.4, Fig 6).
//! * [`page_store`] — a fixed-size-page file with optional page-level
//!   compression through a LAF.
//! * [`buffer_cache`] — a clock-eviction page cache; reads served from the
//!   cache charge no device IO (paper §2.4: pages are decompressed into the
//!   cache and reused).
//! * [`error`] — typed [`StorageError`]s: every raw I/O operation is
//!   fallible, split into transient (retryable) and permanent failures plus
//!   detected corruption.
//! * [`fault`] — a seeded, deterministic [`FaultPlan`] installed on a
//!   device: Nth-op failures, random transient storms, silent bit flips,
//!   torn appends, and crash-at-Kth-I/O for the crash-point sweep harness.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod buffer_cache;
pub mod device;
pub mod error;
pub mod fault;
pub mod file;
pub mod laf;
pub mod page_store;

pub use buffer_cache::BufferCache;
pub use device::{Device, DeviceProfile};
pub use error::{IoOp, StorageError};
pub use fault::{FaultKind, FaultPlan};
pub use page_store::PageStore;
