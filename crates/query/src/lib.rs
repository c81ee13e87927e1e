//! Batch query engine over dataset partitions (paper §2.3, §3.4).
//!
//! The shape follows Hyracks' compiled jobs: per-partition pipelines of
//! operators over record batches, joined by exchanges. Everything the
//! paper's twelve evaluation queries need is here:
//!
//! * [`expr`] — expressions: column refs, constants, comparisons, path
//!   accesses, and the scalar/array functions the queries use;
//! * [`agg`] — aggregates with mergeable partial states (two-phase
//!   aggregation across partitions);
//! * [`plan`] — the query plan: a [`plan::ScanSpec`] (with the optimizer
//!   switches: access consolidation §3.4.2 and access pushdown/delay) and
//!   an operator pipeline;
//! * [`exec`] — the executor: per-partition pipelines (optionally on
//!   threads), a coordinator merging blocking operators, and the **schema
//!   broadcast** accounting for queries with non-local exchanges (§3.4.1);
//! * `pipeline` — the push pipeline both executor stages run: streaming
//!   filter / project / unnest stages in front of the local or global side
//!   of a blocking operator, moving values wherever nothing reads them
//!   again;
//! * [`batch`] — the batched scan: chunked scan → filter → project with
//!   column buffers, a selection vector, and lazy decode;
//! * [`columnar`] — the zero-pivot scan over AMAX columnar components:
//!   typed filter loops straight over column pages, residual decode for
//!   survivors only;
//! * [`zone`] — the scan filter as a test of zone maps, by which every
//!   filtered scan skips row blocks and amax row groups;
//! * [`sqlpp`] — the SQL++ front end, and the planner that owns the
//!   optimizer's rewrites (§3.4.2), switched by [`plan::QueryOptions`] alone;
//! * [`paper_queries`] — the paper's Appendix A queries, each its SQL++
//!   text compiled by [`sqlpp`] (WoS Q3 and Q4, which bind `LET` variables,
//!   are hand-built plans), and the Fig 22 field-position probes.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod agg;
pub mod batch;
pub mod columnar;
pub mod exec;
pub mod expr;
#[cfg(test)]
mod oracle;
pub mod paper_queries;
mod pipeline;
pub mod plan;
pub mod sqlpp;
pub mod zone;

pub use exec::{execute, Engine, ExecOptions, ExecStats, QueryResult};
pub use expr::{CmpOp, Expr, Func};
pub use plan::{AccessStrategy, Op, Query, QueryOptions, ScanSpec};
