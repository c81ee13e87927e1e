//! Aggregates with mergeable partial states.
//!
//! Partitions compute partial states independently; the coordinator merges
//! them per group key — the standard two-phase plan AsterixDB compiles
//! GROUP BY into (paper Fig 5's local aggregate + hash exchange + global
//! aggregate).

use std::borrow::Cow;

use tc_adm::compare::compare;
use tc_adm::{AdmError, Value};

use crate::expr::Expr;

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFn {
    /// `COUNT(*)` (argument ignored) — counts rows.
    Count,
    Sum,
    Min,
    Max,
    Avg,
    /// `GROUP AS` / listify: collect argument values.
    Listify,
}

/// An aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    pub func: AggFn,
    /// `None` for `COUNT(*)`.
    pub arg: Option<Expr>,
}

impl Agg {
    pub fn count_star() -> Agg {
        Agg { func: AggFn::Count, arg: None }
    }

    pub fn of(func: AggFn, arg: Expr) -> Agg {
        Agg { func, arg: Some(arg) }
    }
}

/// Partial state. Null/missing arguments are skipped (SQL semantics).
#[derive(Debug, Clone)]
pub enum AggState {
    Count(u64),
    Sum { total: f64, seen: bool },
    MinMax { best: Option<Value>, want_max: bool },
    Avg { total: f64, count: u64 },
    List(Vec<Value>),
}

impl AggState {
    pub fn new(func: &AggFn) -> AggState {
        match func {
            AggFn::Count => AggState::Count(0),
            AggFn::Sum => AggState::Sum { total: 0.0, seen: false },
            AggFn::Min => AggState::MinMax { best: None, want_max: false },
            AggFn::Max => AggState::MinMax { best: None, want_max: true },
            AggFn::Avg => AggState::Avg { total: 0.0, count: 0 },
            AggFn::Listify => AggState::List(Vec::new()),
        }
    }

    /// Fold one row's argument value in. A borrowed value is copied only by
    /// the states that keep it.
    pub fn update(&mut self, arg: Option<Cow<'_, Value>>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum { total, seen } => {
                if let Some(x) = arg.as_deref().and_then(Value::as_f64) {
                    *total += x;
                    *seen = true;
                }
            }
            AggState::Avg { total, count } => {
                if let Some(x) = arg.as_deref().and_then(Value::as_f64) {
                    *total += x;
                    *count += 1;
                }
            }
            AggState::MinMax { best, want_max } => {
                let Some(v) = arg else { return };
                if v.is_null_or_missing() {
                    return;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let ord = compare(&v, b);
                        if *want_max {
                            ord == std::cmp::Ordering::Greater
                        } else {
                            ord == std::cmp::Ordering::Less
                        }
                    }
                };
                if better {
                    *best = Some(v.into_owned());
                }
            }
            AggState::List(items) => {
                if let Some(v) = arg {
                    if !v.is_missing() {
                        items.push(v.into_owned());
                    }
                }
            }
        }
    }

    /// Fold in each of `xs` in order, as [`update`](Self::update) would each
    /// one as a `double`, bit for bit: `COUNT`, `Sum` and `Avg` as primitive
    /// loops, `Min`/`Max` by `compare`'s order.
    pub fn update_doubles(&mut self, xs: &[f64]) {
        match self {
            AggState::Count(n) => *n += xs.len() as u64,
            AggState::Sum { total, seen } => {
                *seen |= !xs.is_empty();
                xs.iter().for_each(|x| *total += x);
            }
            AggState::Avg { total, count } => {
                *count += xs.len() as u64;
                xs.iter().for_each(|x| *total += x);
            }
            AggState::MinMax { .. } | AggState::List(_) => {
                for &x in xs {
                    self.update(Some(Cow::Owned(Value::Double(x))));
                }
            }
        }
    }

    /// Merge another partition's partial state. States of different
    /// aggregates do not merge: partitions that disagree on the plan are an
    /// execution error, not a panic.
    pub fn merge(&mut self, other: AggState) -> Result<(), AdmError> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { total, seen }, AggState::Sum { total: t2, seen: s2 }) => {
                *total += t2;
                *seen |= s2;
            }
            (AggState::Avg { total, count }, AggState::Avg { total: t2, count: c2 }) => {
                *total += t2;
                *count += c2;
            }
            // The other partition's best is one more candidate for ours.
            (state @ AggState::MinMax { .. }, AggState::MinMax { best, .. }) => {
                state.update(best.map(Cow::Owned));
            }
            (AggState::List(a), AggState::List(b)) => a.extend(b),
            (a, b) => {
                return Err(AdmError::execution(format!(
                    "mismatched aggregate states: {a:?} vs {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final value.
    pub fn finalize(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(n as i64),
            AggState::Sum { total, seen } => {
                if seen {
                    Value::Double(total)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(total / count as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::List(items) => Value::Array(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFn, values: Vec<Value>) -> Value {
        let mut s = AggState::new(&func);
        for v in values {
            s.update(Some(Cow::Owned(v)));
        }
        s.finalize()
    }

    #[test]
    fn count_counts_rows() {
        let mut s = AggState::new(&AggFn::Count);
        for _ in 0..5 {
            s.update(None);
        }
        assert_eq!(s.finalize(), Value::Int64(5));
    }

    #[test]
    fn sum_avg_skip_nulls() {
        assert_eq!(
            run(AggFn::Sum, vec![Value::Int64(1), Value::Null, Value::Int64(2)]),
            Value::Double(3.0)
        );
        assert_eq!(
            run(AggFn::Avg, vec![Value::Int64(2), Value::Missing, Value::Int64(4)]),
            Value::Double(3.0)
        );
        assert_eq!(run(AggFn::Avg, vec![Value::Null]), Value::Null);
        assert_eq!(run(AggFn::Sum, vec![]), Value::Null);
    }

    #[test]
    fn min_max_use_total_order() {
        assert_eq!(
            run(AggFn::Min, vec![Value::Double(2.5), Value::Int64(1), Value::Int64(9)]),
            Value::Int64(1)
        );
        assert_eq!(run(AggFn::Max, vec![Value::Double(2.5), Value::Int64(1)]), Value::Double(2.5));
    }

    #[test]
    fn listify_collects() {
        assert_eq!(
            run(AggFn::Listify, vec![Value::Int64(1), Value::Missing, Value::string("x")]),
            Value::Array(vec![Value::Int64(1), Value::string("x")])
        );
    }

    #[test]
    fn merge_matches_single_pass() {
        // Split the same input across two states; merging must equal the
        // single-state result.
        let values: Vec<Value> = (0..10).map(Value::Int64).collect();
        for func in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Avg] {
            let single = run(func.clone(), values.clone());
            let mut a = AggState::new(&func);
            let mut b = AggState::new(&func);
            for (i, v) in values.iter().enumerate() {
                let arg = if matches!(func, AggFn::Count) { None } else { Some(Cow::Borrowed(v)) };
                if i % 2 == 0 {
                    a.update(arg);
                } else {
                    b.update(arg);
                }
            }
            a.merge(b).unwrap();
            assert_eq!(a.finalize(), single, "{func:?}");
        }
    }

    /// A typed fold gives the state each item as a `Value` gives it, with
    /// `Sum` and `Avg` bit-identical.
    #[test]
    fn typed_fold_matches_value_fold() {
        let xs = [0.1, 0.7, -3.25, 1e-9, 2.5, -0.0];
        for func in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Avg, AggFn::Listify] {
            for items in [&xs[..], &[]] {
                let mut typed = AggState::new(&func);
                typed.update_doubles(items);
                let values: Vec<Value> = items.iter().map(|&x| Value::Double(x)).collect();
                let (a, b) = (typed.finalize(), run(func.clone(), values));
                assert!(a == b && format!("{a:?}") == format!("{b:?}"), "{func:?}: {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn merging_mismatched_states_is_a_typed_error() {
        let mut count = AggState::new(&AggFn::Count);
        count.update(None);
        let err = count.merge(AggState::new(&AggFn::Avg)).unwrap_err();
        assert!(matches!(err, AdmError::Execution(_)), "got {err:?}");
        assert!(err.to_string().contains("mismatched aggregate states"), "got {err}");
        assert_eq!(count.finalize(), Value::Int64(1), "the refused merge changed nothing");
    }
}
