//! Block compression codecs for page-level compression (paper §2.4).
//!
//! The paper evaluates Snappy; this crate implements the Snappy block format
//! from scratch (varint preamble + literal/copy elements with greedy
//! hash-table matching) so the workspace has no external codec dependency.
//! Its encoder's output is pinned byte for byte, so stored sizes never
//! drift. Its decoder takes the uncompressed length from the caller (a page
//! store knows its page size) and refuses a stream declaring any other
//! length before allocating, so a corrupt preamble is a typed error rather
//! than an arbitrary allocation.
//! The [`scheme::CompressionScheme`] enum is what the storage layer
//! configures per dataset.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod scheme;
pub mod snappy;

pub use scheme::CompressionScheme;
