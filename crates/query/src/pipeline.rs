//! The push pipeline both stages of [`crate::exec`] run.
//!
//! A pipeline is the streaming operators of a plan segment — `Filter`,
//! `Project` and `Unnest` — in front of a sink: the local or global side of
//! the blocking operator that ends the segment (`GroupBy`, `OrderBy`,
//! `Distinct`, `Limit`), or a plain row collector. A partition's scan pushes
//! its rows in one at a time and stops once a `Limit` sink has no room left
//! ([`Pipeline::room`]). Each row is pushed through the stages by reference,
//! with an `owned` flag:
//!
//! * **Owned** — nothing reads the row after the push returns, so a stage
//!   may move values out of it. `Project` moves a column its expressions
//!   read once, as a bare column, instead of copying it (so `SELECT *` does
//!   not copy the record); a sink keeps the row itself, or moves its group
//!   key out of it.
//! * **Unowned** — the pusher reads the row again, so a stage copies what it
//!   keeps and hands the row back as it came.
//!
//! `Unnest` takes the collection out of its slot (which reads `null` below
//! the unnest), pushes each item onto the same row buffer, hands it on and
//! pops it again: no row is built per item. Every item but the last goes on
//! unowned, since the buffer is reused; the last goes on owned if the row
//! came in owned.
//!
//! A group-by directly below an unnest whose keys read no item takes the
//! collection whole instead: it evaluates and looks up its key once per
//! row, and folds the items into that group's states in order — `COUNT(*)`
//! and the aggregates of the bare item over the collection itself, any
//! other aggregate over each item's row. An empty collection makes no group,
//! as no row would. The batched scan hands such a pipeline a typed slice
//! of `double`s ([`Pipeline::push_doubles`]) that `Sum`, `Avg` and
//! `COUNT(*)` fold as primitive loops, bit-identical to the `Value` fold.
//!
//! The group-by sink keys its map by the group key alone. The key is
//! evaluated into one reused scratch and looked up by slice: a hit allocates
//! nothing, a miss moves the scratch into the map, and the output key is
//! unwrapped from the map key when the group is finalized.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::mem;

use tc_adm::compare::{compare, OrdValue};
use tc_adm::{AdmError, Value};
use tc_util::hash::FxHashMap;

use crate::agg::{Agg, AggState};
use crate::exec::Row;
use crate::expr::Expr;
use crate::plan::Op;

/// A group's key and its partial aggregate states, as a partition hands
/// them to the coordinator.
pub(crate) type Partial = (Vec<OrdValue>, Vec<AggState>);

/// What one partition's local stage hands the coordinator.
pub(crate) enum LocalOutput {
    Rows(Vec<Row>),
    Grouped(Vec<Partial>),
}

/// The streaming operators of a plan segment in front of its sink.
pub(crate) struct Pipeline<'q> {
    stages: Vec<Stage<'q>>,
    sink: Sink<'q>,
}

impl<'q> Pipeline<'q> {
    /// A partition's local stage: `ops` up to the first blocking operator,
    /// into that operator's local side.
    pub(crate) fn local(ops: &'q [Op]) -> Pipeline<'q> {
        let (stages, blocking, _) = segment(ops);
        Pipeline { stages, sink: Sink::new(blocking, Side::Local) }
    }

    /// The coordinator's side of the first blocking operator of `ops`, and
    /// the operators after it.
    pub(crate) fn exchange(ops: &'q [Op]) -> (Pipeline<'q>, &'q [Op]) {
        let (_, blocking, rest) = segment(ops);
        (Pipeline { stages: Vec::new(), sink: Sink::new(blocking, Side::Exchange) }, rest)
    }

    /// One step of the coordinator's global stage: `ops` up to and
    /// including the first blocking operator, and the operators after it.
    pub(crate) fn global(ops: &'q [Op]) -> (Pipeline<'q>, &'q [Op]) {
        let (stages, blocking, rest) = segment(ops);
        (Pipeline { stages, sink: Sink::new(blocking, Side::Global) }, rest)
    }

    /// How many more rows the sink takes: what a `Limit` sink still has room
    /// for, `None` for every other sink (a top-k `OrderBy` sorts all it is
    /// given). Every producer stops pushing once this is `Some(0)`: the scans
    /// stop pulling records, and [`Pipeline::push_all`] drops the rest.
    pub(crate) fn room(&self) -> Option<usize> {
        match &self.sink {
            Sink::Rows { rows, limit: Some(k) } => Some(k.saturating_sub(rows.len())),
            _ => None,
        }
    }

    /// Push `row` through the stages into the sink, owned: the pipeline may
    /// move values out of it, and the caller reads nothing in it afterwards.
    /// The caller may clear the buffer and fill it with the next row.
    pub(crate) fn push(&mut self, row: &mut Row) {
        run(&mut self.stages, &mut self.sink, row, true);
    }

    /// The column of a `width`-wide row whose collection this pipeline
    /// folds straight from a scan's typed buffer: its one stage unnests the
    /// column into a group-by whose keys read no item.
    pub(crate) fn folds_typed(&self, width: usize) -> Option<usize> {
        match (self.stages.as_slice(), &self.sink) {
            ([Stage::Unnest(Expr::Col(i))], Sink::Group(g))
                if *i < width && g.folds_items(width) =>
            {
                Some(*i)
            }
            _ => None,
        }
    }

    /// [`Pipeline::push`] `row`, whose column [`Pipeline::folds_typed`]
    /// names holds the `double`s `xs` and reads null, as below the unnest:
    /// the group-by folds them with no row or `Value` per item.
    pub(crate) fn push_doubles(&mut self, row: &mut Row, xs: &[f64]) {
        debug_assert!(self.folds_typed(row.len()).is_some_and(|c| matches!(row[c], Value::Null)));
        if let Sink::Group(g) = &mut self.sink {
            g.push_items(row, Items::Doubles(xs), true);
        }
    }

    /// [`Pipeline::push`] each row of `rows` until the sink has no room left.
    pub(crate) fn push_all(&mut self, rows: Vec<Row>) {
        for mut row in rows {
            if self.room() == Some(0) {
                break;
            }
            self.push(&mut row);
        }
    }

    /// Fold partitions' partial groups into this group-by sink.
    pub(crate) fn merge(&mut self, partials: Vec<Partial>) -> Result<(), AdmError> {
        match &mut self.sink {
            Sink::Group(g) => g.merge(partials),
            _ => Err(AdmError::execution("partial groups sent to an exchange without a group-by")),
        }
    }

    /// The local stage's output.
    pub(crate) fn finish_local(self) -> LocalOutput {
        match self.sink {
            Sink::Group(g) => LocalOutput::Grouped(g.groups.into_iter().collect()),
            sink => LocalOutput::Rows(sink.finish()),
        }
    }

    /// The rows the sink emits.
    pub(crate) fn finish(self) -> Vec<Row> {
        self.sink.finish()
    }
}

/// Split `ops` at the first blocking operator: the stages before it, it,
/// and the operators after it.
fn segment(ops: &[Op]) -> (Vec<Stage<'_>>, Option<Blocking<'_>>, &[Op]) {
    let mut stages = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let blocking = match op {
            Op::Filter(pred) => {
                stages.push(Stage::Filter(pred));
                continue;
            }
            Op::Project(exprs) => {
                let moves = movable(exprs.iter().map(Some));
                stages.push(Stage::Project { exprs, moves, out: Vec::new() });
                continue;
            }
            Op::Unnest(expr) => {
                stages.push(Stage::Unnest(expr));
                continue;
            }
            Op::GroupBy { keys, aggs } => Blocking::GroupBy { keys, aggs },
            Op::OrderBy { keys, limit } => Blocking::OrderBy { keys, limit: *limit },
            Op::Distinct(exprs) => Blocking::Distinct(exprs),
            Op::Limit(k) => Blocking::Limit(*k),
        };
        return (stages, Some(blocking), &ops[i + 1..]);
    }
    (stages, None, &[])
}

/// An operator that needs every row before it emits.
#[derive(Clone, Copy)]
enum Blocking<'q> {
    GroupBy { keys: &'q [Expr], aggs: &'q [Agg] },
    OrderBy { keys: &'q [(Expr, bool)], limit: Option<usize> },
    Distinct(&'q [Expr]),
    Limit(usize),
}

/// Where a sink runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// In each partition, ahead of the exchange.
    Local,
    /// At the coordinator, over the partitions' outputs.
    Exchange,
    /// At the coordinator, after the exchange.
    Global,
}

enum Stage<'q> {
    Filter(&'q Expr),
    Project {
        exprs: &'q [Expr],
        /// Per expression: may its value be moved out of an owned row?
        moves: Vec<bool>,
        /// The output row, reused while the sink leaves it behind.
        out: Row,
    },
    Unnest(&'q Expr),
}

/// Push `row` through `stages` into `sink`.
fn run(stages: &mut [Stage<'_>], sink: &mut Sink<'_>, row: &mut Row, owned: bool) {
    let Some((stage, rest)) = stages.split_first_mut() else {
        sink.push(row, owned);
        return;
    };
    match stage {
        Stage::Filter(pred) => {
            if pred.eval_bool(row) {
                run(rest, sink, row, owned);
            }
        }
        Stage::Project { exprs, moves, out } => {
            let mut projected = mem::take(out);
            projected.clear();
            projected.reserve_exact(exprs.len());
            for (e, &mv) in exprs.iter().zip(moves.iter()) {
                projected.push(value_of(e, row, owned && mv));
            }
            run(rest, sink, &mut projected, true);
            *out = projected;
        }
        Stage::Unnest(expr) => {
            let base = row.len();
            if let (true, Sink::Group(g)) = (rest.is_empty(), &mut *sink) {
                if g.folds_items(base) {
                    unnest_into_group(expr, g, row, owned);
                    return;
                }
            }
            match *expr {
                Expr::Col(i) if *i < base => {
                    // The collection leaves its slot, which reads null below
                    // the unnest. An owned row gives its items away; an
                    // unowned one hands on copies and gets the collection
                    // back.
                    let collection = mem::replace(&mut row[*i], Value::Null);
                    if owned {
                        if let Value::Array(items) | Value::Multiset(items) = collection {
                            unnest_items(items, rest, sink, row, true);
                        }
                    } else {
                        for item in collection.as_items().unwrap_or_default() {
                            row.push(item.clone());
                            run(rest, sink, row, false);
                            row.truncate(base);
                        }
                        row[*i] = collection;
                    }
                }
                _ => {
                    if let Value::Array(items) | Value::Multiset(items) = expr.eval(row) {
                        unnest_items(items, rest, sink, row, owned);
                    }
                }
            }
        }
    }
}

/// An unnest right in front of a group-by that folds its items: the
/// collection goes to the sink whole, as [`run`] would leave it in its slot.
fn unnest_into_group(expr: &Expr, g: &mut GroupSink<'_>, row: &mut Row, owned: bool) {
    match *expr {
        Expr::Col(i) if i < row.len() => {
            let collection = mem::replace(&mut row[i], Value::Null);
            if owned {
                if let Value::Array(items) | Value::Multiset(items) = collection {
                    g.push_items(row, Items::Values(Cow::Owned(items)), true);
                }
            } else {
                if let Some(items) = collection.as_items() {
                    g.push_items(row, Items::Values(Cow::Borrowed(items)), false);
                }
                row[i] = collection;
            }
        }
        _ => {
            if let Value::Array(items) | Value::Multiset(items) = expr.eval(row) {
                g.push_items(row, Items::Values(Cow::Owned(items)), owned);
            }
        }
    }
}

/// The items of a collection a group-by folds at once.
enum Items<'a> {
    /// Owned if taken out of a row nothing reads again.
    Values(Cow<'a, [Value]>),
    /// Held in a scan column's typed buffer.
    Doubles(&'a [f64]),
}

impl Items<'_> {
    fn len(&self) -> usize {
        match self {
            Items::Values(items) => items.len(),
            Items::Doubles(xs) => xs.len(),
        }
    }
}

/// Push `row` with each of `items` appended, popping it again after each;
/// the last item goes on owned if the row came in owned.
fn unnest_items(
    items: Vec<Value>,
    rest: &mut [Stage<'_>],
    sink: &mut Sink<'_>,
    row: &mut Row,
    owned: bool,
) {
    let base = row.len();
    let last = items.len().saturating_sub(1);
    for (idx, item) in items.into_iter().enumerate() {
        row.push(item);
        run(rest, sink, row, owned && idx == last);
        row.truncate(base);
    }
}

/// For each expression (`None` reads nothing): is it a bare column that no
/// other expression of the set reads? Its value may then be moved out of a
/// row nothing reads again.
fn movable<'e>(exprs: impl Iterator<Item = Option<&'e Expr>>) -> Vec<bool> {
    let exprs: Vec<Option<&Expr>> = exprs.collect();
    let mut readers: Vec<usize> = Vec::new();
    for col in exprs.iter().flatten().flat_map(|e| e.referenced_cols()) {
        if readers.len() <= col {
            readers.resize(col + 1, 0);
        }
        readers[col] += 1;
    }
    exprs.iter().map(|e| matches!(e, Some(Expr::Col(i)) if readers[*i] == 1)).collect()
}

/// `e`'s value for `row`; with `take` (`e` is a bare column nothing else
/// reads, of a row nothing reads again) moved out of the row.
fn value_of(e: &Expr, row: &mut Row, take: bool) -> Value {
    match (e, take) {
        (Expr::Col(i), true) => {
            row.get_mut(*i).map_or(Value::Missing, |v| mem::replace(v, Value::Missing))
        }
        _ => e.eval(row),
    }
}

/// The row itself if owned, else a copy.
fn keep(row: &mut Row, owned: bool) -> Row {
    if owned {
        mem::take(row)
    } else {
        row.clone()
    }
}

enum Sink<'q> {
    /// Collects rows, the first `limit` if set.
    Rows {
        rows: Vec<Row>,
        limit: Option<usize>,
    },
    Sort(SortSink<'q>),
    Distinct(DistinctSink<'q>),
    Group(GroupSink<'q>),
}

impl<'q> Sink<'q> {
    fn new(op: Option<Blocking<'q>>, side: Side) -> Sink<'q> {
        let rows = |limit| Sink::Rows { rows: Vec::new(), limit };
        match op {
            None => rows(None),
            Some(Blocking::GroupBy { keys, aggs }) => Sink::Group(GroupSink::new(keys, aggs, side)),
            // Locally only a top-k sorts: the global top-k is a subset of
            // the union of the local ones. A full sort waits for the union.
            Some(Blocking::OrderBy { limit: None, .. }) if side == Side::Local => rows(None),
            Some(Blocking::OrderBy { keys, limit }) => {
                Sink::Sort(SortSink { keys, limit, rows: Vec::new(), arrived: 0 })
            }
            // The local side has already projected Distinct's expressions
            // (and deduped within its partition); re-evaluating them against
            // the projected rows would be wrong for anything but identity
            // columns, so the exchange dedupes whole rows.
            Some(Blocking::Distinct(_)) if side == Side::Exchange => {
                Sink::Distinct(DistinctSink::new(None))
            }
            Some(Blocking::Distinct(exprs)) => Sink::Distinct(DistinctSink::new(Some(exprs))),
            // Local truncation shrinks the exchange; the coordinator
            // truncates the union again.
            Some(Blocking::Limit(k)) => rows(Some(k)),
        }
    }

    fn push(&mut self, row: &mut Row, owned: bool) {
        match self {
            Sink::Rows { rows, limit } => {
                if limit.is_none_or(|k| rows.len() < k) {
                    rows.push(keep(row, owned));
                }
            }
            Sink::Sort(s) => s.push(row, owned),
            Sink::Distinct(d) => d.push(row, owned),
            Sink::Group(g) => g.push(row, owned),
        }
    }

    fn finish(self) -> Vec<Row> {
        match self {
            Sink::Rows { rows, .. } => rows,
            Sink::Sort(s) => s.finish(),
            Sink::Distinct(d) => d.finish(),
            Sink::Group(g) => g.finish(),
        }
    }
}

/// `OrderBy`, optionally top-k: a sort on the evaluated keys, ties broken
/// by arrival order, so the output is a stable sort's. A top-k keeps at
/// most `2k` rows: once the buffer holds that many, the `k` first in that
/// order are selected and the rest dropped, and only what remains is sorted
/// at the end.
struct SortSink<'q> {
    keys: &'q [(Expr, bool)],
    limit: Option<usize>,
    /// Each kept row with its keys and arrival index.
    rows: Vec<(Vec<Value>, usize, Row)>,
    arrived: usize,
}

impl SortSink<'_> {
    fn push(&mut self, row: &mut Row, owned: bool) {
        let key: Vec<Value> = self.keys.iter().map(|(e, _)| e.eval(row)).collect();
        self.rows.push((key, self.arrived, keep(row, owned)));
        self.arrived += 1;
        if let Some(k) = self.limit {
            if self.rows.len() >= k.saturating_mul(2) {
                let keys = self.keys;
                self.rows.select_nth_unstable_by(k, |a, b| sort_order(keys, a, b));
                self.rows.truncate(k);
            }
        }
    }

    fn finish(mut self) -> Vec<Row> {
        let keys = self.keys;
        self.rows.sort_unstable_by(|a, b| sort_order(keys, a, b));
        self.rows.truncate(self.limit.unwrap_or(usize::MAX));
        self.rows.into_iter().map(|(_, _, row)| row).collect()
    }
}

/// The order a [`SortSink`] emits: by each key, descending where asked,
/// then by arrival.
fn sort_order(
    keys: &[(Expr, bool)],
    (a, a_at, _): &(Vec<Value>, usize, Row),
    (b, b_at, _): &(Vec<Value>, usize, Row),
) -> std::cmp::Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = compare(&a[i], &b[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a_at.cmp(b_at)
}

/// `Distinct`: the first row of each distinct projection (of the whole row
/// when there are no expressions), in first-seen order.
struct DistinctSink<'q> {
    exprs: Option<&'q [Expr]>,
    moves: Vec<bool>,
    /// Each distinct projection, with the order it was first seen in.
    seen: FxHashMap<Vec<OrdValue>, usize>,
}

impl<'q> DistinctSink<'q> {
    fn new(exprs: Option<&'q [Expr]>) -> DistinctSink<'q> {
        let moves = exprs.map_or_else(Vec::new, |es| movable(es.iter().map(Some)));
        DistinctSink { exprs, moves, seen: FxHashMap::default() }
    }

    fn push(&mut self, row: &mut Row, owned: bool) {
        let key: Vec<OrdValue> = match self.exprs {
            Some(exprs) => exprs
                .iter()
                .zip(&self.moves)
                .map(|(e, &mv)| OrdValue(value_of(e, row, owned && mv)))
                .collect(),
            None => keep(row, owned).into_iter().map(OrdValue).collect(),
        };
        let next = self.seen.len();
        self.seen.entry(key).or_insert(next);
    }

    fn finish(self) -> Vec<Row> {
        let mut seen: Vec<(Vec<OrdValue>, usize)> = self.seen.into_iter().collect();
        seen.sort_unstable_by_key(|&(_, at)| at);
        seen.into_iter().map(|(key, _)| key.into_iter().map(|k| k.0).collect()).collect()
    }
}

/// `GroupBy`: partial aggregate states per group key.
struct GroupSink<'q> {
    keys: &'q [Expr],
    aggs: &'q [Agg],
    /// Per key, then per aggregate argument: may the value be moved out of
    /// an owned row?
    key_moves: Vec<bool>,
    arg_moves: Vec<bool>,
    /// The highest column a key reads.
    key_max: Option<usize>,
    /// The key of the row being folded, reused while its group exists.
    scratch: Vec<OrdValue>,
    groups: FxHashMap<Vec<OrdValue>, Vec<AggState>>,
    /// A keyless aggregate over no rows at all still yields one row. Only the
    /// exchange side knows it has seen every row.
    total: bool,
}

impl<'q> GroupSink<'q> {
    fn new(keys: &'q [Expr], aggs: &'q [Agg], side: Side) -> GroupSink<'q> {
        let mut key_moves =
            movable(keys.iter().map(Some).chain(aggs.iter().map(|a| a.arg.as_ref())));
        let arg_moves = key_moves.split_off(keys.len());
        GroupSink {
            keys,
            aggs,
            key_moves,
            arg_moves,
            key_max: keys.iter().flat_map(Expr::referenced_cols).max(),
            scratch: Vec::new(),
            groups: FxHashMap::default(),
            total: side == Side::Exchange && keys.is_empty(),
        }
    }

    fn push(&mut self, row: &mut Row, owned: bool) {
        let aggs = self.aggs;
        self.fold_into_group(row, owned, |states, moves, row| {
            fold(states, aggs, moves, row, owned)
        });
    }

    /// Evaluate `row`'s key and run `f` on its group's states (and the
    /// aggregate arguments' moves), starting the group if it is new.
    fn fold_into_group(
        &mut self,
        row: &mut Row,
        owned: bool,
        f: impl FnOnce(&mut [AggState], &[bool], &mut Row),
    ) {
        let mut key = mem::take(&mut self.scratch);
        key.clear();
        key.reserve_exact(self.keys.len());
        for (e, &mv) in self.keys.iter().zip(&self.key_moves) {
            key.push(OrdValue(value_of(e, row, owned && mv)));
        }
        match self.groups.get_mut(key.as_slice()) {
            Some(states) => {
                f(states, &self.arg_moves, row);
                self.scratch = key;
            }
            None => {
                let mut states: Vec<AggState> =
                    self.aggs.iter().map(|a| AggState::new(&a.func)).collect();
                f(&mut states, &self.arg_moves, row);
                self.groups.insert(key, states);
            }
        }
    }

    /// Does the sink fold a collection unnested onto a `base`-wide row at
    /// once? Only if no key reads the item, the row's column `base`.
    fn folds_items(&self, base: usize) -> bool {
        self.key_max.is_none_or(|c| c < base)
    }

    /// Fold every item of a collection unnested onto `row` as the rows the
    /// unnest would push, the row with each item appended in turn — but the
    /// key is evaluated and looked up once. An empty collection makes no
    /// group.
    fn push_items(&mut self, row: &mut Row, items: Items<'_>, owned: bool) {
        if items.len() == 0 {
            return;
        }
        let aggs = self.aggs;
        self.fold_into_group(row, owned, |states, _, row| fold_items(states, aggs, row, items));
    }

    fn merge(&mut self, partials: Vec<Partial>) -> Result<(), AdmError> {
        for (key, states) in partials {
            match self.groups.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(states);
                }
                Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(states) {
                        a.merge(b)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Vec<Row> {
        if self.total && self.groups.is_empty() {
            return vec![self.aggs.iter().map(|a| AggState::new(&a.func).finalize()).collect()];
        }
        let width = self.keys.len() + self.aggs.len();
        self.groups
            .into_iter()
            .map(|(key, states)| {
                let mut row = Vec::with_capacity(width);
                row.extend(key.into_iter().map(|k| k.0));
                row.extend(states.into_iter().map(AggState::finalize));
                row
            })
            .collect()
    }
}

/// Fold one row's aggregate arguments into a group's states.
fn fold(states: &mut [AggState], aggs: &[Agg], moves: &[bool], row: &mut Row, owned: bool) {
    for ((state, agg), &mv) in states.iter_mut().zip(aggs).zip(moves) {
        let arg = match &agg.arg {
            None => None,
            Some(e) if owned && mv => Some(Cow::Owned(value_of(e, row, true))),
            Some(e) => Some(e.eval_ref(row)),
        };
        state.update(arg);
    }
}

/// Fold `items` into a group's states as the rows `row` with each item
/// appended, in item order. `COUNT(*)` counts them and an aggregate of the
/// bare item folds the collection itself — a typed one by a primitive loop;
/// any other aggregate sees each item's row.
fn fold_items(states: &mut [AggState], aggs: &[Agg], row: &mut Row, items: Items<'_>) {
    let base = row.len();
    let per_row = |agg: &Agg| match &agg.arg {
        None => false,
        Some(Expr::Col(c)) => *c != base,
        Some(_) => true,
    };
    for (state, agg) in states.iter_mut().zip(aggs).filter(|(_, a)| !per_row(a)) {
        match (&agg.arg, &items) {
            (None, _) => (0..items.len()).for_each(|_| state.update(None)),
            (Some(_), Items::Values(vs)) => {
                vs.iter().for_each(|v| state.update(Some(Cow::Borrowed(v))))
            }
            (Some(_), Items::Doubles(xs)) => state.update_doubles(xs),
        }
    }
    if !aggs.iter().any(per_row) {
        return;
    }
    let mut fold_row = |row: &mut Row, item: Value| {
        row.push(item);
        for (state, agg) in states.iter_mut().zip(aggs).filter(|(_, a)| per_row(a)) {
            state.update(agg.arg.as_ref().map(|e| e.eval_ref(row)));
        }
        row.truncate(base);
    };
    match items {
        Items::Values(Cow::Owned(vs)) => vs.into_iter().for_each(|v| fold_row(row, v)),
        Items::Values(Cow::Borrowed(vs)) => vs.iter().for_each(|v| fold_row(row, v.clone())),
        Items::Doubles(xs) => xs.iter().for_each(|&x| fold_row(row, Value::Double(x))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ORDER BY` key `LIMIT k` on the local and on the global side equals a
    /// stable sort of every row, truncated: rows whose keys tie across the
    /// `2k` compactions keep their arrival order.
    #[test]
    fn top_k_keeps_ties_in_arrival_order() {
        // Row i: key i % 3 (ties everywhere), then its arrival index.
        let rows: Vec<Row> =
            (0..40i64).map(|i| vec![Value::Int64(i % 3), Value::Int64(i)]).collect();
        for desc in [false, true] {
            let mut expected = rows.clone();
            expected.sort_by(|a, b| {
                let ord = compare(&a[0], &b[0]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
            for k in [0, 1, 2, 3, 5, 13, 40, 100] {
                let ops = [Op::OrderBy { keys: vec![(Expr::col(0), desc)], limit: Some(k) }];
                let want: Vec<Row> = expected.iter().take(k).cloned().collect();
                let mut local = Pipeline::local(&ops);
                local.push_all(rows.clone());
                let LocalOutput::Rows(got) = local.finish_local() else {
                    panic!("a top-k's local side emits rows");
                };
                assert_eq!(got, want, "local, k={k}, desc={desc}");
                let (mut global, rest) = Pipeline::exchange(&ops);
                assert!(rest.is_empty());
                // Unowned pushes too: the pusher keeps its rows.
                for mut row in rows.clone() {
                    global.sink.push(&mut row, false);
                }
                assert_eq!(global.finish(), want, "global, k={k}, desc={desc}");
            }
        }
    }
}
