//! Query plans and the optimizer switches the paper evaluates.

use tc_adm::path::Path;

use crate::agg::Agg;
use crate::expr::Expr;

/// How the scan evaluates its path accesses against record bytes (§3.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessStrategy {
    /// All paths in one `getValues` call — a single linear scan per record
    /// for vector-based records (the optimizer's consolidation rewrite).
    Consolidated,
    /// One access per path — k linear scans for vector-based records: the
    /// "Inferred (un-op)" configuration of Fig 23.
    PerPath,
}

/// The scan: which paths become columns, which filter runs inside the scan,
/// and which accesses are delayed until after it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    /// Paths extracted for every record → columns `0..paths.len()`.
    /// An empty path (`vec![]`) materializes the whole record.
    pub paths: Vec<Path>,
    /// Predicate over the early columns, applied inside the scan.
    pub filter: Option<Expr>,
    /// Paths extracted only for records surviving `filter` → columns
    /// `paths.len()..`. This is the "delay field access until after the
    /// filter" plan that wins for highly selective predicates (Fig 23 Q4).
    pub late_paths: Vec<Path>,
    pub access: AccessStrategy,
}

impl ScanSpec {
    pub fn all_early(paths: Vec<Path>, access: AccessStrategy) -> ScanSpec {
        ScanSpec { paths, filter: None, late_paths: Vec::new(), access }
    }

    /// Total output columns.
    pub fn width(&self) -> usize {
        self.paths.len() + self.late_paths.len()
    }
}

/// Pipeline operators applied after the scan.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Filter(Expr),
    /// Replace the row with the evaluated expressions.
    Project(Vec<Expr>),
    /// For each item of the (array-valued) expression, emit the input row
    /// with the item appended as a new column. Non-arrays/empty arrays emit
    /// nothing (SQL++ UNNEST). When the expression is a plain column, that
    /// column is *consumed* (nulled in the output) — do not reference it
    /// after the unnest; use the appended item column.
    Unnest(Expr),
    /// Group by key expressions; output rows are `[keys…, aggregates…]`.
    /// Executed two-phase across partitions.
    GroupBy {
        keys: Vec<Expr>,
        aggs: Vec<Agg>,
    },
    /// Sort (optionally top-k). `desc` per key.
    OrderBy {
        keys: Vec<(Expr, bool)>,
        limit: Option<usize>,
    },
    Limit(usize),
    /// Distinct over the evaluated expressions (row is replaced).
    Distinct(Vec<Expr>),
}

/// A complete single-dataset query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub scan: ScanSpec,
    pub ops: Vec<Op>,
}

/// The optimizer toggles the paper's ablations flip (§3.4.2, Fig 23).
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Consolidate field accesses into one `getValues` per record.
    pub consolidate: bool,
    /// Push consolidated accesses (and scan-level filters) down into the
    /// scan, ahead of any filter — the paper's default rewrite. Disabled,
    /// highly selective filters run first and remaining accesses are
    /// delayed.
    pub pushdown: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { consolidate: true, pushdown: true }
    }
}

impl QueryOptions {
    /// The Fig 23 "Inferred (un-op)" configuration.
    pub fn unoptimized() -> Self {
        QueryOptions { consolidate: false, pushdown: false }
    }

    pub fn access(&self) -> AccessStrategy {
        if self.consolidate {
            AccessStrategy::Consolidated
        } else {
            AccessStrategy::PerPath
        }
    }
}

impl Query {
    /// Does the plan repartition data (group-by / order-by / distinct)?
    /// Those are the queries that trigger a schema broadcast (§3.4.1).
    pub fn has_nonlocal_exchange(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::GroupBy { .. } | Op::OrderBy { .. } | Op::Distinct(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::path::parse_path;

    #[test]
    fn options_map_to_access_strategy() {
        assert_eq!(QueryOptions::default().access(), AccessStrategy::Consolidated);
        assert_eq!(QueryOptions::unoptimized().access(), AccessStrategy::PerPath);
    }

    #[test]
    fn exchange_detection() {
        let scan = ScanSpec::all_early(vec![parse_path("a")], AccessStrategy::Consolidated);
        let q = Query { scan: scan.clone(), ops: vec![Op::Filter(Expr::lit(true))] };
        assert!(!q.has_nonlocal_exchange());
        let q = Query {
            scan,
            ops: vec![Op::GroupBy { keys: vec![], aggs: vec![crate::agg::Agg::count_star()] }],
        };
        assert!(q.has_nonlocal_exchange());
    }

    #[test]
    fn scan_width_counts_both_path_sets() {
        let s = ScanSpec {
            paths: vec![parse_path("a"), parse_path("b")],
            filter: None,
            late_paths: vec![parse_path("c")],
            access: AccessStrategy::PerPath,
        };
        assert_eq!(s.width(), 3);
    }
}
