//! The row-vector executor the push pipeline replaced, kept as the
//! reference the pipeline is tested against. `apply_op` applies one
//! operator to a whole `Vec<Row>`; [`execute_rows`] runs a plan's local
//! stage in each partition and then the coordinator with it, as
//! `exec::execute` did after the scan.

use std::borrow::Cow;
use std::collections::hash_map::Entry;

use tc_adm::compare::{compare, OrdValue};
use tc_adm::Value;
use tc_util::hash::FxHashMap;

use crate::agg::{Agg, AggState};
use crate::exec::Row;
use crate::expr::Expr;
use crate::plan::Op;

/// A plan's answer over partitions already scanned into rows.
pub(crate) fn execute_rows(partitions: &[Vec<Row>], ops: &[Op]) -> Vec<Row> {
    let split = ops
        .iter()
        .position(|op| {
            matches!(op, Op::GroupBy { .. } | Op::OrderBy { .. } | Op::Distinct(_) | Op::Limit(_))
        })
        .unwrap_or(ops.len());
    let local_ops = &ops[..split];
    let blocking = ops.get(split);
    let global_ops = if split < ops.len() { &ops[split + 1..] } else { &[][..] };

    let mut grouped: FxHashMap<Vec<OrdValue>, (Row, Vec<AggState>)> = FxHashMap::default();
    let mut rows: Vec<Row> = Vec::new();
    for part in partitions {
        match finish_partition(part.clone(), local_ops, blocking) {
            LocalOutput::Rows(mut r) => rows.append(&mut r),
            LocalOutput::Grouped(partials) => {
                for (key, states) in partials {
                    let hk: Vec<OrdValue> = key.iter().cloned().map(OrdValue).collect();
                    match grouped.entry(hk) {
                        Entry::Vacant(e) => {
                            e.insert((key, states));
                        }
                        Entry::Occupied(mut e) => {
                            let (_, existing) = e.get_mut();
                            for (a, b) in existing.iter_mut().zip(states) {
                                a.merge(b).unwrap();
                            }
                        }
                    }
                }
            }
        }
    }

    let mut rows = match blocking {
        Some(Op::GroupBy { keys, aggs }) => {
            if grouped.is_empty() && keys.is_empty() {
                // Global aggregate over zero rows still yields one row.
                let finals: Row = aggs.iter().map(|a| AggState::new(&a.func).finalize()).collect();
                vec![finals]
            } else {
                grouped
                    .into_values()
                    .map(|(mut key, states)| {
                        key.extend(states.into_iter().map(AggState::finalize));
                        key
                    })
                    .collect()
            }
        }
        Some(Op::Distinct(_)) => dedupe_rows(rows),
        Some(op) => apply_op(rows, op),
        None => rows,
    };
    for op in global_ops {
        rows = apply_op(rows, op);
    }
    rows
}

/// Dedupe already-projected rows by whole-row equality, keeping first-seen
/// order.
fn dedupe_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen: std::collections::HashSet<Vec<OrdValue>> = Default::default();
    rows.into_iter()
        .filter(|row| seen.insert(row.iter().cloned().map(OrdValue).collect()))
        .collect()
}
enum LocalOutput {
    Rows(Vec<Row>),
    Grouped(Vec<(Row, Vec<AggState>)>),
}

/// Local operator pipeline + the local side of the blocking operator.
fn finish_partition(mut rows: Vec<Row>, local_ops: &[Op], blocking: Option<&Op>) -> LocalOutput {
    for op in local_ops {
        rows = apply_op(rows, op);
    }
    // Local side of the blocking operator.
    match blocking {
        Some(Op::GroupBy { keys, aggs }) => LocalOutput::Grouped(partial_group(rows, keys, aggs)),
        Some(Op::OrderBy { keys, limit: Some(k) }) => {
            // Local top-k: the global top-k is a subset of the union of
            // local top-ks.
            LocalOutput::Rows(apply_op(rows, &Op::OrderBy { keys: keys.clone(), limit: Some(*k) }))
        }
        Some(Op::Distinct(exprs)) => {
            // Local dedupe shrinks the exchange; global dedupe finishes.
            LocalOutput::Rows(apply_op(rows, &Op::Distinct(exprs.clone())))
        }
        Some(Op::Limit(k)) => {
            // Local truncation shrinks the exchange; the coordinator
            // re-applies the limit over the union.
            let mut rows = rows;
            rows.truncate(*k);
            LocalOutput::Rows(rows)
        }
        _ => LocalOutput::Rows(rows),
    }
}

fn partial_group(rows: Vec<Row>, keys: &[Expr], aggs: &[Agg]) -> Vec<(Row, Vec<AggState>)> {
    let mut map: FxHashMap<Vec<OrdValue>, (Row, Vec<AggState>)> = FxHashMap::default();
    for row in rows {
        let key: Row = keys.iter().map(|k| k.eval(&row)).collect();
        let hk: Vec<OrdValue> = key.iter().cloned().map(OrdValue).collect();
        let entry = map
            .entry(hk)
            .or_insert_with(|| (key, aggs.iter().map(|a| AggState::new(&a.func)).collect()));
        for (agg, state) in aggs.iter().zip(entry.1.iter_mut()) {
            state.update(agg.arg.as_ref().map(|e| Cow::Owned(e.eval(&row))));
        }
    }
    map.into_values().collect()
}

/// Apply one operator to in-memory rows (used for local pipelines and the
/// coordinator's global stage).
fn apply_op(rows: Vec<Row>, op: &Op) -> Vec<Row> {
    match op {
        Op::Filter(pred) => rows.into_iter().filter(|r| pred.eval_bool(r)).collect(),
        Op::Project(exprs) => {
            rows.into_iter().map(|r| exprs.iter().map(|e| e.eval(&r)).collect()).collect()
        }
        Op::Unnest(expr) => {
            // A plain-column source is consumed by the unnest: emitted rows
            // carry `null` in its slot so the (possibly large) collection
            // isn't cloned once per item — Hyracks likewise projects the
            // unnested field out of the frame.
            let consumed = match expr {
                Expr::Col(i) => Some(*i),
                _ => None,
            };
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                match expr.eval(&row) {
                    Value::Array(items) | Value::Multiset(items) => {
                        let mut base = row;
                        if let Some(i) = consumed {
                            base[i] = Value::Null;
                        }
                        let last = items.len().saturating_sub(1);
                        for (idx, item) in items.into_iter().enumerate() {
                            // The final item reuses the base row.
                            let mut r =
                                if idx == last { std::mem::take(&mut base) } else { base.clone() };
                            r.push(item);
                            out.push(r);
                        }
                    }
                    _ => {} // UNNEST of non-collections emits nothing
                }
            }
            out
        }
        Op::GroupBy { keys, aggs } => partial_group(rows, keys, aggs)
            .into_iter()
            .map(|(mut key, states)| {
                key.extend(states.into_iter().map(AggState::finalize));
                key
            })
            .collect(),
        Op::OrderBy { keys, limit } => {
            let mut keyed: Vec<(Vec<Value>, Row)> = rows
                .into_iter()
                .map(|r| (keys.iter().map(|(e, _)| e.eval(&r)).collect(), r))
                .collect();
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = compare(&a[i], &b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut out: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
            if let Some(k) = limit {
                out.truncate(*k);
            }
            out
        }
        Op::Limit(k) => {
            let mut rows = rows;
            rows.truncate(*k);
            rows
        }
        Op::Distinct(exprs) => {
            let mut seen: std::collections::HashSet<Vec<OrdValue>> = Default::default();
            let mut out = Vec::new();
            for row in rows {
                let projected: Row = exprs.iter().map(|e| e.eval(&row)).collect();
                let key: Vec<OrdValue> = projected.iter().cloned().map(OrdValue).collect();
                if seen.insert(key) {
                    out.push(projected);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rand::Rng;
    use tc_adm::path::parse_path;

    use super::*;
    use crate::agg::AggFn;
    use crate::expr::{CmpOp, Func};

    fn pick<T: Clone>(rng: &mut TestRng, options: &[T]) -> T {
        options[rng.gen_range(0..options.len())].clone()
    }

    /// A random value: scalars that collide often (so groups and duplicates
    /// form), strings that lowercase unusually, and, above depth 0, arrays
    /// (empty ones too), multisets and objects with fields `a` and `b`.
    fn value(rng: &mut TestRng, depth: u32) -> Value {
        match rng.gen_range(0..if depth == 0 { 7 } else { 11 }) {
            0 => Value::Null,
            1 => Value::Missing,
            2 | 3 => Value::Int64(rng.gen_range(-2..3)),
            4 => Value::Double(rng.gen_range(-4i64..5) as f64 * 0.5),
            5 => Value::string(pick(rng, &["a", "A", "b", "Σ", "ΑΣ", "İ", "ab"])),
            6 => Value::Boolean(rng.gen()),
            7 | 8 => Value::Array(items(rng, depth - 1)),
            9 => Value::Multiset(items(rng, depth - 1)),
            _ => Value::object([("a", value(rng, depth - 1)), ("b", value(rng, depth - 1))]),
        }
    }

    fn items(rng: &mut TestRng, depth: u32) -> Vec<Value> {
        (0..rng.gen_range(0..4)).map(|_| value(rng, depth)).collect()
    }

    /// A column of a `width`-wide row; now and then one past the end, which
    /// reads `missing`.
    fn col(rng: &mut TestRng, width: usize) -> usize {
        let past_end = usize::from(rng.gen_range(0..8) == 0);
        rng.gen_range(0..width + past_end)
    }

    fn path(rng: &mut TestRng, width: usize) -> Expr {
        let text = pick(rng, &["a", "a.b", "[0]", "[1].a", "[*].a", "a[*]"]);
        Expr::Path { col: col(rng, width), path: parse_path(text) }
    }

    /// A value-producing expression, a bare column more often than not.
    fn expr(rng: &mut TestRng, width: usize) -> Expr {
        match rng.gen_range(0..10) {
            0..=4 => Expr::col(col(rng, width)),
            5 => Expr::lit(value(rng, 1)),
            6 | 7 => path(rng, width),
            8 => {
                let func = pick(
                    rng,
                    &[
                        Func::Lower,
                        Func::StrLen,
                        Func::ArrayLen,
                        Func::IsArray,
                        Func::ArrayDistinct,
                        Func::ArraySort,
                        Func::ArrayPairs,
                    ],
                );
                Expr::func(func, vec![Expr::col(col(rng, width))])
            }
            _ => predicate(rng, width, 1),
        }
    }

    fn predicate(rng: &mut TestRng, width: usize, depth: u32) -> Expr {
        let needle = |rng: &mut TestRng| Expr::lit(pick(rng, &["a", "b", "σ", "ας", "i̇"]));
        match rng.gen_range(0..if depth == 0 { 5 } else { 8 }) {
            0 | 1 => {
                let op = pick(rng, &[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt]);
                Expr::cmp(op, expr(rng, width), Expr::lit(value(rng, 0)))
            }
            2 => Expr::func(
                Func::ArrayContains,
                vec![Expr::col(col(rng, width)), Expr::lit(value(rng, 0))],
            ),
            3 => Expr::func(Func::ArrayContainsLower, vec![expr(rng, width), needle(rng)]),
            4 => Expr::func(Func::AnyFieldEqLower("a".into()), vec![expr(rng, width), needle(rng)]),
            5 => Expr::and(predicate(rng, width, depth - 1), predicate(rng, width, depth - 1)),
            6 => Expr::Or(
                Box::new(predicate(rng, width, depth - 1)),
                Box::new(predicate(rng, width, depth - 1)),
            ),
            _ => Expr::Not(Box::new(predicate(rng, width, depth - 1))),
        }
    }

    fn exprs(rng: &mut TestRng, width: usize) -> Vec<Expr> {
        (0..rng.gen_range(1..4)).map(|_| expr(rng, width)).collect()
    }

    fn agg(rng: &mut TestRng, width: usize) -> Agg {
        match rng.gen_range(0..6) {
            0 => Agg::count_star(),
            1 => Agg::of(AggFn::Sum, expr(rng, width)),
            2 => Agg::of(AggFn::Min, expr(rng, width)),
            3 => Agg::of(AggFn::Max, expr(rng, width)),
            4 => Agg::of(AggFn::Avg, expr(rng, width)),
            _ => Agg::of(AggFn::Listify, expr(rng, width)),
        }
    }

    /// A random operator over `width`-wide rows, and the width it emits.
    fn op(rng: &mut TestRng, width: usize) -> (Op, usize) {
        match rng.gen_range(0..10) {
            0 => (Op::Filter(predicate(rng, width, 1)), width),
            1 | 2 => {
                let mut exprs = exprs(rng, width);
                if rng.gen_bool(0.3) {
                    // A column projected twice is copied, never moved.
                    exprs.push(Expr::col(col(rng, width)));
                    exprs.push(exprs[exprs.len() - 1].clone());
                }
                let out = exprs.len();
                (Op::Project(exprs), out)
            }
            3 | 4 => {
                // The newest column is often an item of an earlier unnest,
                // so unnests nest.
                let source = match rng.gen_range(0..4) {
                    0 => path(rng, width),
                    1 => Expr::col(col(rng, width)),
                    _ => Expr::col(width - 1),
                };
                (Op::Unnest(source), width + 1)
            }
            5 => {
                let keys: Vec<Expr> = (0..rng.gen_range(0..3)).map(|_| expr(rng, width)).collect();
                let aggs: Vec<Agg> = (0..rng.gen_range(1..4)).map(|_| agg(rng, width)).collect();
                let out = keys.len() + aggs.len();
                (Op::GroupBy { keys, aggs }, out)
            }
            6 | 7 => {
                let keys =
                    (0..rng.gen_range(1..3)).map(|_| (expr(rng, width), rng.gen())).collect();
                let limit = rng.gen_bool(0.5).then(|| rng.gen_range(0..6));
                (Op::OrderBy { keys, limit }, width)
            }
            8 => {
                let exprs = exprs(rng, width);
                let out = exprs.len();
                (Op::Distinct(exprs), out)
            }
            _ => (Op::Limit(rng.gen_range(0..6)), width),
        }
    }

    /// One to three partitions of random rows, and a random operator chain.
    struct Case;

    impl Strategy for Case {
        type Value = (Vec<Vec<Row>>, Vec<Op>);

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let mut width = rng.gen_range(1..4);
            let partitions = (0..rng.gen_range(1..4))
                .map(|_| {
                    (0..rng.gen_range(0..8))
                        .map(|_| (0..width).map(|_| value(rng, 2)).collect())
                        .collect()
                })
                .collect();
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range(0..5) {
                let (op, out) = op(rng, width);
                ops.push(op);
                width = out;
            }
            (partitions, ops)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// The push pipeline answers every plan exactly as the row-vector
        /// operators did, rows and row order alike, serially and with a
        /// thread per partition.
        #[test]
        fn pipeline_matches_oracle(case in Case) {
            let (partitions, ops) = case;
            let expected = execute_rows(&partitions, &ops);
            for parallel in [false, true] {
                let got = crate::exec::execute_rows(&partitions, &ops, parallel).unwrap();
                prop_assert_eq!(&got, &expected, "{:?} over {:?}", ops, partitions);
            }
        }
    }
}
