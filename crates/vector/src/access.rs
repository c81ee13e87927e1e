//! `getValues()` — evaluate many path expressions in one linear scan
//! (paper §3.4.2).
//!
//! Access into a vector-based record is linear in the number of tags, so
//! evaluating k field accesses naively costs k scans. The optimizer rewrites
//! them into a single `getValues(record, path…, path…)` call; this module is
//! that function, with [`eval_path`] semantics for every mix of field, index
//! and wildcard steps.
//!
//! The walk is iterative and runs on the reader's table-driven cursor: one
//! frame per open container it descends into, on stacks reused across
//! records. A frame holds the states (path, step) still live inside it,
//! each compiled for the record to what its children must match: a
//! field's dictionary id (or its name, in a record that is not
//! compacted), an index, or any item. A child's name is read and checked
//! once — a compacted id against the dictionary's length, a declared index
//! (root fields only) through the catalog type — and then compared with each
//! live state's want, so a child no state wants costs a compare and a
//! cursor advance or skip. Scalars are read as their stored bytes and a
//! `Value` is built only for a match; a container no state enters is
//! skipped raw, and one that ends a path is materialized. A field or index
//! step matches once (it leaves the frame's live states), so a frame whose
//! states have all matched is skipped, and the scan stops as soon as no
//! state is live anywhere — which is what makes access cost
//! *position*-sensitive (Fig 22). Each path name is resolved to its id
//! once per dictionary.
//!
//! A wildcard opens a scope that collects the matches of its items into an
//! array. Into a [`Column`] that takes them, a one-wildcard path whose
//! matches in a record are all `double`s goes as a range of a flat `f64`
//! buffer instead: no `Value` per item. Any other match demotes that
//! record's value to a `Value` array, item order kept.

use std::mem;

use tc_adm::path::{eval_path, Path, PathStep};
use tc_adm::{AdmError, ObjectType, TypeTag, Value};
use tc_schema::{FieldNameDictionary, FieldNameId};

use crate::reader::{
    check_scalar, le, scalar_value, Class, FieldName, RawItem, Token, VectorReader,
};

/// Evaluate `paths` against a vector-based record (compacted or not) in a
/// single scan. Returns one value per path, with [`eval_path`] semantics
/// (absent → `Missing`, wildcard → array of non-missing matches).
pub fn get_values(
    buf: &[u8],
    paths: &[Path],
    declared: Option<&ObjectType>,
    dict: Option<&FieldNameDictionary>,
) -> Result<Vec<Value>, AdmError> {
    BatchPathEvaluator::new(paths).values(buf, declared, dict)
}

/// A `getValues` evaluator for a *fixed* path set, reusable across many
/// records. The compiled paths, the per-path accumulators and the walk's
/// frame and state stacks survive between records, so evaluating a batch of
/// payloads allocates nothing per record beyond the matched values
/// themselves. This is the scan primitive of both query engines: one
/// evaluator per column set, driven once per payload, appending into
/// caller-owned column buffers.
pub struct BatchPathEvaluator {
    paths: Vec<Path>,
    /// Every step of every path, compiled into the state a frame holds for
    /// it; a path's steps lie in a run, so the state that follows
    /// `nodes[i]` into a matched container is `nodes[i + 1]`.
    nodes: Vec<State>,
    /// The first nodes of the paths whose first step is a field step: the
    /// root frame's states.
    roots: Vec<usize>,
    /// Indices of empty paths ("the whole record").
    whole: Vec<usize>,
    /// The distinct field names the paths step through, and each one's id
    /// in the dictionary last seen (`None`: not in it).
    names: Vec<String>,
    ids: Vec<Option<FieldNameId>>,
    accs: Vec<Acc>,
    frames: Vec<Frame>,
    states: Vec<State>,
    /// Paths ending at the container being opened.
    completing: Vec<usize>,
}

/// Path `path` is at step `step` (node `node`) inside a frame's container,
/// matching the children `want` names. A field or index step dies once it
/// has matched: `eval_path` takes the first match.
#[derive(Clone, Copy)]
struct State {
    path: u32,
    step: u32,
    node: u32,
    want: Want,
    /// Is `step` the path's last?
    last: bool,
}

/// The children a state matches.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    /// The field `names[k]`, whose id in the record's dictionary is `id`
    /// (`None`: the dictionary lacks it, or the record is not compacted).
    Field {
        k: u32,
        id: Option<FieldNameId>,
    },
    Index(usize),
    Any,
}

impl Want {
    /// Can it select anything out of a `tag` value?
    fn applies_to(self, tag: TypeTag) -> bool {
        match self {
            Want::Field { .. } => tag == TypeTag::Object,
            Want::Index(_) | Want::Any => tag.is_collection(),
        }
    }
}

/// A child of the innermost frame, as its states compare it: its field
/// name (one id check, or one resolve, per child) or its position.
#[derive(Clone, Copy)]
enum Key<'r> {
    Id(FieldNameId),
    Name(&'r str),
    Item(usize),
}

impl State {
    /// Does the state select the child `key`?
    #[inline(always)]
    fn wants(&self, key: Key<'_>, names: &[String]) -> bool {
        match (self.want, key) {
            (Want::Field { id, .. }, Key::Id(x)) => id == Some(x),
            (Want::Field { k, .. }, Key::Name(s)) => names[k as usize] == s,
            (Want::Index(i), Key::Item(j)) => i == j,
            (Want::Any, Key::Item(_)) => true,
            _ => false,
        }
    }
}

/// One container the walk is inside.
struct Frame {
    /// Its states are `states[start..]` while it is the innermost frame.
    start: usize,
    /// How many of them are live: `states[start..][..live]`.
    live: usize,
    /// Children read so far.
    index: usize,
}

impl BatchPathEvaluator {
    pub fn new(paths: &[Path]) -> Self {
        let mut names: Vec<String> = Vec::new();
        let (mut nodes, mut roots) = (Vec::new(), Vec::new());
        for (path, steps) in paths.iter().enumerate() {
            if matches!(steps.first(), Some(PathStep::Field(_))) {
                roots.push(nodes.len());
            }
            for (step, s) in steps.iter().enumerate() {
                let want = match s {
                    PathStep::Field(f) => {
                        let k = names.iter().position(|n| n == f).unwrap_or_else(|| {
                            names.push(f.clone());
                            names.len() - 1
                        });
                        Want::Field { k: k as u32, id: None }
                    }
                    PathStep::Index(i) => Want::Index(*i),
                    PathStep::Wildcard => Want::Any,
                };
                nodes.push(State {
                    path: path as u32,
                    step: step as u32,
                    node: nodes.len() as u32,
                    want,
                    last: step + 1 == steps.len(),
                });
            }
        }
        let accs = paths
            .iter()
            .map(|p| Acc {
                one_wildcard: p.iter().filter(|s| matches!(s, PathStep::Wildcard)).count() == 1,
                ..Acc::default()
            })
            .collect();
        BatchPathEvaluator {
            whole: paths.iter().enumerate().filter(|(_, p)| p.is_empty()).map(|(i, _)| i).collect(),
            ids: vec![None; names.len()],
            names,
            nodes,
            roots,
            paths: paths.to_vec(),
            accs,
            frames: Vec::new(),
            states: Vec::new(),
            completing: Vec::new(),
        }
    }

    /// Number of paths (= values produced per record).
    pub fn width(&self) -> usize {
        self.paths.len()
    }

    /// Evaluate every path against one record, appending one value per path
    /// to the corresponding column buffer. `columns.len()` must equal
    /// [`width`](Self::width).
    pub fn eval_into(
        &mut self,
        buf: &[u8],
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
        columns: &mut [Vec<Value>],
    ) -> Result<(), AdmError> {
        debug_assert_eq!(columns.len(), self.paths.len());
        self.accs.iter_mut().for_each(|a| a.reset(false));
        self.eval_record(buf, declared, dict)?;
        for (acc, col) in self.accs.iter_mut().zip(columns.iter_mut()) {
            col.push(acc.take_value());
        }
        Ok(())
    }

    /// [`eval_into`](Self::eval_into) into [`Column`]s: a column that takes
    /// typed buffers gets a one-wildcard path's all-`double` matches as a
    /// range of its `f64` buffer, with no `Value` built per item.
    pub fn eval_columns(
        &mut self,
        buf: &[u8],
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
        columns: &mut [Column],
    ) -> Result<(), AdmError> {
        debug_assert_eq!(columns.len(), self.paths.len());
        for (acc, col) in self.accs.iter_mut().zip(columns.iter()) {
            acc.reset(col.typed);
        }
        self.eval_record(buf, declared, dict)?;
        for (acc, col) in self.accs.iter_mut().zip(columns.iter_mut()) {
            match mem::replace(&mut acc.out, Out::Missing) {
                Out::F64 => col.push_f64s(&acc.f64s),
                out => {
                    acc.out = out;
                    col.push(acc.take_value());
                }
            }
        }
        Ok(())
    }

    /// One record's value for every path, in path order.
    pub fn values(
        &mut self,
        buf: &[u8],
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
    ) -> Result<Vec<Value>, AdmError> {
        self.accs.iter_mut().for_each(|a| a.reset(false));
        self.eval_record(buf, declared, dict)?;
        Ok(self.accs.iter_mut().map(Acc::take_value).collect())
    }

    /// One linear scan of `buf`, leaving the results in `self.accs`, which
    /// the caller has reset.
    fn eval_record(
        &mut self,
        buf: &[u8],
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
    ) -> Result<(), AdmError> {
        // Empty paths mean "the whole record": decoded once, moved into the
        // last such path and cloned only for the others.
        if let Some((&last, others)) = self.whole.split_last() {
            let v = crate::reader::decode(buf, declared, dict)?;
            for &i in others {
                self.accs[i].out = Out::Value(v.clone());
            }
            self.accs[last].out = Out::Value(v);
        }
        if self.whole.len() == self.paths.len() {
            return Ok(());
        }
        let mut reader = VectorReader::new(buf)?;
        match reader.next_raw()? {
            RawItem::Begin { tag: TypeTag::Object, .. } => {}
            _ => return Err(AdmError::corrupt("record root must be an object")),
        }
        if let (true, Some(dict)) = (reader.is_compacted(), dict) {
            self.resolve_ids(dict);
        }
        self.walk(&mut reader, declared, dict)
    }

    /// Each field name's id in `dict`, into every field step. A cached id
    /// is kept while `dict` still names it so; a name `dict` lacks is looked
    /// up again.
    fn resolve_ids(&mut self, dict: &FieldNameDictionary) {
        for (name, id) in self.names.iter().zip(&mut self.ids) {
            if id.is_none_or(|id| dict.name(id) != Some(name.as_str())) {
                *id = dict.find(name);
            }
        }
        for node in &mut self.nodes {
            if let Want::Field { k, id } = &mut node.want {
                *id = self.ids[*k as usize];
            }
        }
    }

    /// Stream the record below its root object, which `reader` has opened.
    fn walk(
        &mut self,
        reader: &mut VectorReader<'_>,
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
    ) -> Result<(), AdmError> {
        let BatchPathEvaluator {
            paths, nodes, roots, names, accs, frames, states, completing, ..
        } = self;
        let keys = Keys { dict_len: dict.map_or(0, FieldNameDictionary::len), declared, dict };
        frames.clear();
        states.clear();
        states.extend(roots.iter().map(|&n| nodes[n]));
        let mut live = states.len();
        // The innermost frame; `frames` holds the ones around it.
        let mut frame = Frame { start: 0, live, index: 0 };
        while live > 0 {
            if frame.live == 0 {
                // Every state here has matched: the rest of the container
                // holds nothing any path wants.
                reader.skip_container()?;
                close_frame(&mut frame, frames, states, accs, &mut live);
                continue;
            }
            let Token { tag: child, class } = reader.token()?;
            let key = match class {
                Class::Close => {
                    reader.close()?;
                    close_frame(&mut frame, frames, states, accs, &mut live);
                    continue;
                }
                Class::Eov => return Err(AdmError::corrupt("EOV inside container")),
                _ => keys.of(reader.field_name()?, frame.index, frames.is_empty())?,
            };
            frame.index += 1;
            let mut i = frame.start;
            if class != Class::Nested {
                let bytes = reader.value(class)?;
                let mut matched = false;
                while let Some(st) = next_match(states, &mut frame, &mut live, &mut i, key, names) {
                    // A scalar cannot satisfy deeper steps: missing.
                    if st.last {
                        accs[st.path as usize].deliver_scalar(child, bytes)?;
                        matched = true;
                    }
                }
                if !matched {
                    check_scalar(child, bytes)?;
                }
                continue;
            }
            reader.open(child)?;
            let first = states.len();
            completing.clear();
            while let Some(st) = next_match(states, &mut frame, &mut live, &mut i, key, names) {
                if st.last {
                    completing.push(st.path as usize);
                } else if nodes[st.node as usize + 1].want.applies_to(child) {
                    states.push(nodes[st.node as usize + 1]);
                }
            }
            if let Some((&last, others)) = completing.split_last() {
                // Some path ends here: the subtree is materialized, and the
                // paths that go on into it are evaluated on the value.
                let sub = reader.materialize_container(child, None, dict)?;
                for st in states.drain(first..) {
                    let (path, step) = (st.path as usize, st.step as usize);
                    accs[path].deliver(eval_path(&sub, &paths[path][step..]));
                }
                for &p in others {
                    accs[p].deliver(sub.clone());
                }
                accs[last].deliver(sub);
            } else if states.len() == first {
                reader.skip_container()?;
            } else {
                push_frame(&mut frame, frames, states, accs, first, &mut live);
            }
        }
        Ok(())
    }
}

/// Enter the container just opened for `states[first..]`: it becomes the
/// innermost frame, and each wildcard among them opens its scope.
fn push_frame(
    frame: &mut Frame,
    frames: &mut Vec<Frame>,
    states: &[State],
    accs: &mut [Acc],
    first: usize,
    live: &mut usize,
) {
    for st in &states[first..] {
        if st.want == Want::Any {
            accs[st.path as usize].open_scope();
        }
    }
    let opened = states.len() - first;
    frames.push(mem::replace(frame, Frame { start: first, live: opened, index: 0 }));
    *live += opened;
}

/// What a child is compared by. Every compacted name is checked against
/// the dictionary before it is compared (an id past its end is
/// corruption), and a declared one is resolved through the catalog type —
/// in the root object only, as `decode` resolves it.
struct Keys<'e> {
    dict_len: usize,
    declared: Option<&'e ObjectType>,
    dict: Option<&'e FieldNameDictionary>,
}

impl<'e> Keys<'e> {
    /// The key of the child named `name` (`None`: an item) at `index`, in
    /// the root object or below it.
    #[inline(always)]
    fn of<'r>(
        &self,
        name: Option<FieldName<'r>>,
        index: usize,
        root: bool,
    ) -> Result<Key<'r>, AdmError>
    where
        'e: 'r,
    {
        Ok(match name {
            None => Key::Item(index),
            Some(FieldName::InferredId(id)) if (id as usize) < self.dict_len => Key::Id(id),
            Some(FieldName::Inferred(s)) => Key::Name(s),
            Some(n) => Key::Name(n.resolve(self.declared.filter(|_| root), self.dict)?),
        })
    }
}

/// The next of the frame's live states from `states[*i]` on that selects
/// the child `key`. A field or index state dies as it matches: it is swapped
/// past the live ones, and `*i` then names the state swapped in.
#[inline(always)]
fn next_match(
    states: &mut [State],
    frame: &mut Frame,
    live: &mut usize,
    i: &mut usize,
    key: Key<'_>,
    names: &[String],
) -> Option<State> {
    while *i < frame.start + frame.live {
        let st = states[*i];
        if st.wants(key, names) {
            if st.want == Want::Any {
                *i += 1;
            } else {
                frame.live -= 1;
                *live -= 1;
                states.swap(*i, frame.start + frame.live);
            }
            return Some(st);
        }
        *i += 1;
    }
    None
}

/// Leave the innermost frame for its parent: close the wildcard scopes it
/// held (a wildcard state never dies, so they are all live).
fn close_frame(
    frame: &mut Frame,
    frames: &mut Vec<Frame>,
    states: &mut Vec<State>,
    accs: &mut [Acc],
    live: &mut usize,
) {
    for st in &states[frame.start..][..frame.live] {
        if st.want == Want::Any {
            accs[st.path as usize].close_scope();
        }
    }
    *live -= frame.live;
    states.truncate(frame.start);
    if let Some(parent) = frames.pop() {
        *frame = parent;
    }
}

/// One path's value for the record being walked.
#[derive(Default)]
struct Acc {
    /// May a match go into the typed buffers? Paths with one wildcard only,
    /// into a column that takes them.
    typed: bool,
    /// Does the path have exactly one wildcard step?
    one_wildcard: bool,
    /// The value, once delivered outside every wildcard scope.
    out: Out,
    /// The matches of the open wildcard scopes, innermost last, and where
    /// each scope starts in them.
    items: Vec<Value>,
    marks: Vec<usize>,
    /// What the open typed scope holds.
    kind: Kind,
    f64s: Vec<f64>,
}

#[derive(Default)]
enum Out {
    #[default]
    Missing,
    Value(Value),
    /// The matches are `f64s`.
    F64,
}

#[derive(Default, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `Value`s, in `items`.
    #[default]
    Values,
    /// A typed scope with no match yet.
    Empty,
    F64,
}

impl Acc {
    fn reset(&mut self, typed: bool) {
        self.typed = typed && self.one_wildcard;
        self.out = Out::Missing;
        self.items.clear();
        self.marks.clear();
        self.kind = Kind::Values;
        self.f64s.clear();
    }

    fn open_scope(&mut self) {
        self.marks.push(self.items.len());
        if self.typed {
            self.kind = Kind::Empty;
        }
    }

    /// The innermost scope's matches become one array value. A typed scope
    /// is a one-wildcard path's only one, so its matches are the value.
    fn close_scope(&mut self) {
        let Some(mark) = self.marks.pop() else { return };
        match mem::take(&mut self.kind) {
            Kind::F64 => self.out = Out::F64,
            Kind::Values | Kind::Empty => {
                let v = Value::Array(self.items.drain(mark..).collect());
                self.deliver(v);
            }
        }
    }

    /// A scalar match, as its stored bytes: a typed scope takes a `double`
    /// with no `Value` built for it.
    #[inline(always)]
    fn deliver_scalar(&mut self, tag: TypeTag, bytes: &[u8]) -> Result<(), AdmError> {
        if tag == TypeTag::Double && matches!(self.kind, Kind::Empty | Kind::F64) {
            self.f64s.push(f64::from_le_bytes(le(bytes)?));
            self.kind = Kind::F64;
            return Ok(());
        }
        self.deliver(scalar_value(tag, bytes)?);
        Ok(())
    }

    /// A match, or a sub-result of the innermost scope. `missing` is no
    /// match. A typed scope takes a `double` into its buffer, and given any
    /// other value turns into a scope of `Value`s.
    fn deliver(&mut self, v: Value) {
        match (&v, self.kind) {
            (Value::Missing, _) => return,
            (Value::Double(x), Kind::Empty | Kind::F64) => {
                self.f64s.push(*x);
                self.kind = Kind::F64;
                return;
            }
            _ => {}
        }
        if self.marks.is_empty() {
            self.out = Out::Value(v);
            return;
        }
        if self.kind == Kind::F64 {
            self.items.extend(self.f64s.drain(..).map(Value::Double));
        }
        self.kind = Kind::Values;
        self.items.push(v);
    }

    /// The record's value for this path.
    fn take_value(&mut self) -> Value {
        match mem::take(&mut self.out) {
            Out::Missing => Value::Missing,
            Out::Value(v) => v,
            Out::F64 => doubles(&self.f64s),
        }
    }
}

/// The array of `double`s `xs` is.
pub fn doubles(xs: &[f64]) -> Value {
    Value::Array(xs.iter().copied().map(Value::Double).collect())
}

/// Where a record's value sits in a [`Column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Span {
    /// In `values`.
    Value,
    /// `f64s[start..end]`.
    F64 { start: usize, end: usize },
}

/// One path's values for a run of records: a `Value` per record or, in a
/// column that takes typed buffers, a range of a flat `f64` buffer for a
/// record whose one-wildcard matches are all `double`s. Each record's values
/// choose; nothing else does. Two fillers make typed ranges, through
/// [`Column::push_f64s`]: [`BatchPathEvaluator::eval_columns`] for a stored
/// record's matches, and a columnar scan for a row of a repeated `double`
/// column (`tc_query`'s batch fill, from `tc_columnar`'s
/// `GroupView::present_doubles`).
#[derive(Debug, Clone, Default)]
pub struct Column {
    /// Does the column take typed buffers?
    typed: bool,
    /// One per record; a record held in the typed buffer reads `missing`.
    values: Vec<Value>,
    /// One per record, in a column that takes typed buffers.
    spans: Vec<Span>,
    f64s: Vec<f64>,
}

impl Column {
    /// An empty column; `typed`: does it take typed buffers?
    pub fn new(typed: bool) -> Column {
        Column { typed, ..Column::default() }
    }

    pub fn clear(&mut self) {
        self.values.clear();
        self.spans.clear();
        self.f64s.clear();
    }

    /// Append a record's value.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
        if self.typed {
            self.spans.push(Span::Value);
        }
    }

    /// Append a record's matches, every one a `double`: a range of the typed
    /// buffer or, in a column that takes none, their array.
    pub fn push_f64s(&mut self, xs: &[f64]) {
        if !self.typed {
            return self.push(doubles(xs));
        }
        let start = self.f64s.len();
        self.f64s.extend_from_slice(xs);
        self.values.push(Value::Missing);
        self.spans.push(Span::F64 { start, end: self.f64s.len() });
    }

    /// Every record's value; a record held in the typed buffer reads
    /// `missing` here.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Record `r`'s matches, if the typed buffer holds them.
    pub fn doubles(&self, r: usize) -> Option<&[f64]> {
        match self.spans.get(r)? {
            Span::Value => None,
            Span::F64 { start, end } => Some(&self.f64s[*start..*end]),
        }
    }

    /// Move record `r`'s value out (it reads `missing` after), building the
    /// array of a record held in the typed buffer.
    pub fn take(&mut self, r: usize) -> Value {
        match self.doubles(r) {
            Some(xs) => doubles(xs),
            None => mem::replace(&mut self.values[r], Value::Missing),
        }
    }

    /// Remove the last record's value.
    pub fn pop(&mut self) -> Option<Value> {
        let last = self.values.len().checked_sub(1)?;
        let v = self.take(last);
        self.values.pop();
        if let Some(Span::F64 { start, .. }) = self.spans.pop() {
            self.f64s.truncate(start);
        }
        Some(v)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compact::infer_and_compact;
    use crate::encode::encode;
    use tc_adm::parse;
    use tc_adm::path::parse_path;
    use tc_schema::Schema;

    fn check_paths(src: &str, path_texts: &[&str]) {
        let v = parse(src).unwrap();
        let paths: Vec<Path> = path_texts.iter().map(|t| parse_path(t)).collect();
        let expected: Vec<Value> = paths.iter().map(|p| eval_path(&v, p)).collect();

        // Uncompacted record.
        let raw = encode(&v, None);
        let got = get_values(&raw, &paths, None, None).unwrap();
        assert_eq!(got, expected, "uncompacted: {path_texts:?} on {src}");

        // Compacted record.
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        let got = get_values(&compacted, &paths, None, Some(schema.dict())).unwrap();
        assert_eq!(got, expected, "compacted: {path_texts:?} on {src}");
    }

    #[test]
    fn consolidated_accesses_match_eval_path() {
        // The paper's WHERE-clause example: age and name in one getValues.
        check_paths(r#"{"age": 26, "name": "Ann", "x": [1, 2]}"#, &["age", "name"]);
    }

    #[test]
    fn nested_and_indexed_paths() {
        let src = r#"{
            "id": 1,
            "dependents": [{"name": "Bob", "age": 6}, {"name": "Carol"}],
            "entities": {"hashtags": [{"text": "jobs", "pos": 1}, {"text": "ads", "pos": 2}]}
        }"#;
        check_paths(
            src,
            &[
                "dependents[0].name",
                "dependents[1].age",
                "dependents[*].name",
                "entities.hashtags[*].text",
                "entities.hashtags[1].pos",
                "missing.path",
                "dependents[9].name",
            ],
        );
    }

    #[test]
    fn wildcard_over_heterogeneous_items() {
        check_paths(
            r#"{"deps": {{ {"name": "Bob"}, "Not_Available", {"name": "Carol"} }}}"#,
            &["deps[*].name"],
        );
    }

    #[test]
    fn whole_record_path() {
        let src = r#"{"a": 1, "b": [true]}"#;
        let v = parse(src).unwrap();
        let raw = encode(&v, None);
        let got = get_values(&raw, &[vec![]], None, None).unwrap();
        assert_eq!(got, vec![v]);
    }

    #[test]
    fn whole_record_paths_equal_decode() {
        // Two whole-record paths in one set: the record is decoded once,
        // cloned into the first and moved into the second.
        let v =
            parse(r#"{"id": 3, "deps": [{"n": "Bob", "tags": [1, 2]}, {"n": "Cat"}]}"#).unwrap();
        let raw = encode(&v, None);
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        let paths = [vec![], parse_path("deps[*].n"), vec![]];
        for (buf, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
            let decoded = crate::reader::decode(buf, None, dict).unwrap();
            assert_eq!(decoded, v);
            let got = get_values(buf, &paths, None, dict).unwrap();
            assert_eq!(got[0], decoded);
            assert_eq!(got[2], decoded);
        }
    }

    #[test]
    fn container_valued_path() {
        check_paths(r#"{"a": {"b": [1, 2, 3]}, "c": 9}"#, &["a", "a.b", "c"]);
    }

    #[test]
    fn nested_wildcards_fall_back_to_eval_semantics() {
        check_paths(r#"{"a": [{"b": [1, 2]}, {"b": [3]}, {"c": 0}]}"#, &["a[*].b[*]", "a[*].b"]);
    }

    #[test]
    fn early_exit_is_safe_with_multiple_paths() {
        // First path resolves immediately; second is near the end.
        let fields: Vec<String> = (0..50).map(|i| format!(r#""f{i:02}": {i}"#)).collect();
        let src = format!("{{{}}}", fields.join(", "));
        check_paths(&src, &["f00", "f49", "f25"]);
    }

    #[test]
    fn batch_evaluator_matches_per_record_calls() {
        // Heterogeneous records through one reused evaluator: the scratch
        // state from one payload must never leak into the next.
        let srcs = [
            r#"{"id": 1, "a": 10, "deps": [{"n": "Bob"}, {"n": "Carol"}]}"#,
            r#"{"id": 2, "deps": []}"#,
            r#"{"id": 3, "a": "str", "deps": [{"m": 0}]}"#,
            r#"{"id": 4}"#,
        ];
        let mut paths: Vec<Path> =
            ["a", "deps[*].n", "deps[0].n"].iter().map(|t| parse_path(t)).collect();
        paths.insert(2, Vec::new()); // empty path = whole record
        let mut eval = BatchPathEvaluator::new(&paths);
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); eval.width()];
        let mut expected: Vec<Vec<Value>> = vec![Vec::new(); paths.len()];
        for src in srcs {
            let v = parse(src).unwrap();
            let raw = encode(&v, None);
            eval.eval_into(&raw, None, None, &mut cols).unwrap();
            for (v, col) in
                get_values(&raw, &paths, None, None).unwrap().into_iter().zip(&mut expected)
            {
                col.push(v);
            }
        }
        assert_eq!(cols, expected);
    }

    /// A wildcard over an absent field or a non-collection is `missing`,
    /// and nested wildcards nest their arrays, as `eval_path` has it.
    #[test]
    fn wildcards_follow_eval_path() {
        let paths =
            ["x[*].y", "x[*][*]", "x[*].y[*]", "x[*]", "x[1][0]", "x[*][1]", "x[0].y", "x[*].y.z"];
        for src in [
            r#"{"a": 1}"#,
            r#"{"x": 5}"#,
            r#"{"x": {"y": 1}}"#,
            r#"{"x": [[1, 2], [3]]}"#,
            r#"{"x": [{"y": [1, 2]}, {"y": 3}, {"y": []}, 4, [5], {"y": {"z": 6}}]}"#,
            r#"{"x": {{ [1], "s", [], {"y": null} }}}"#,
        ] {
            check_paths(src, &paths);
        }
        let first = |src: &str, path: &str| {
            let raw = encode(&parse(src).unwrap(), None);
            get_values(&raw, &[parse_path(path)], None, None).unwrap().remove(0)
        };
        assert_eq!(first(r#"{"x": 5}"#, "x[*].y"), Value::Missing);
        assert_eq!(first(r#"{"x": [[1, 2], [3]]}"#, "x[*][*]"), parse("[[1, 2], [3]]").unwrap());
        assert_eq!(first(r#"{"x": [{"y": [1]}, {"y": [2, 3]}]}"#, "x[*].y[*]"), {
            parse("[[1], [2, 3]]").unwrap()
        });
    }

    /// A field name the path set repeats, and one the dictionary lacks,
    /// match by id in a compacted record exactly as by name in a raw one.
    #[test]
    fn repeated_and_absent_names() {
        check_paths(
            r#"{"a": {"a": [{"a": 1}, {"b": 2}]}, "b": [{"a": 3}]}"#,
            &["a.a[*].a", "b[*].a", "a.a[1].b", "zz", "a.zz", "b[*].zz"],
        );
    }

    /// A name a record repeats (damage can make one; the parser refuses
    /// it) selects its first field, as in `eval_path`: at the root, inside
    /// an object, and inside each item under a wildcard or an index, raw
    /// and compacted, through typed columns too.
    #[test]
    fn repeated_record_names_take_the_first() {
        let twice = |first: Value, second: Value| {
            Value::Object(vec![("c".into(), first), ("c".into(), second)])
        };
        let v = Value::Object(vec![
            ("a".into(), twice(Value::Int64(1), Value::Int64(2))),
            ("a".into(), Value::Int64(3)),
            (
                "x".into(),
                Value::Array(vec![
                    twice(Value::Double(1.5), Value::Double(2.5)),
                    twice(parse("[1, 2]").unwrap(), Value::Null),
                ]),
            ),
        ]);
        let paths: Vec<Path> = ["a", "a.c", "x[*].c", "x[0].c", "x[1].c", "x[*].c[1]", "x[1].c[0]"]
            .iter()
            .map(|t| parse_path(t))
            .collect();
        let expected: Vec<Value> = paths.iter().map(|p| eval_path(&v, p)).collect();
        assert_eq!(expected[1], Value::Int64(1));
        let raw = encode(&v, None);
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        // Each path alone, too: a frame may then hold a single state.
        let sets = (0..paths.len()).map(|i| i..i + 1).chain(std::iter::once(0..paths.len()));
        for set in sets {
            let mut eval = BatchPathEvaluator::new(&paths[set.clone()]);
            for (buf, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
                let got = get_values(buf, &paths[set.clone()], None, dict).unwrap();
                assert_eq!(got, expected[set.clone()], "{set:?}");
                let mut cols = vec![Column::new(true); set.len()];
                eval.eval_columns(buf, None, dict, &mut cols).unwrap();
                let got: Vec<Value> = cols.iter_mut().map(|c| c.take(0)).collect();
                assert_eq!(got, expected[set.clone()], "{set:?}");
            }
        }
    }

    /// A one-wildcard path's matches go into a typed column's buffer when
    /// they are all doubles; any other match demotes the record to a
    /// `Value`, items in order. Every record's value is still `eval_path`'s,
    /// typed column or not, raw or compacted.
    #[test]
    fn typed_columns_take_homogeneous_matches() {
        let cases: [(&str, Option<&[f64]>); 9] = [
            (r#"{"r": [{"t": 1.5}, {"t": 2.5}, {"u": 0}]}"#, Some(&[1.5, 2.5])),
            (r#"{"r": [{"t": 7}, {"t": -1}]}"#, None),
            (r#"{"r": {{ {"t": 0.5} }}}"#, Some(&[0.5])),
            (r#"{"r": [{"t": 1.5}, {"t": 2}, {"t": null}]}"#, None),
            (r#"{"r": [{"t": 1.5}, {"t": "s"}, {"t": 2.5}]}"#, None),
            (r#"{"r": [{"t": [1.5]}]}"#, None),
            (r#"{"r": []}"#, None),
            (r#"{"r": 3}"#, None),
            (r#"{"q": 1}"#, None),
        ];
        let paths = [parse_path("r[*].t"), parse_path("q"), parse_path("r[*]")];
        let mut eval = BatchPathEvaluator::new(&paths);
        let mut schema = Schema::new();
        let mut typed = vec![Column::new(true); paths.len()];
        let mut plain = vec![Column::new(false); paths.len()];
        for (src, items) in cases {
            let v = parse(src).unwrap();
            let raw = encode(&v, None);
            let compacted = infer_and_compact(&raw, &mut schema).unwrap();
            for (buf, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
                eval.eval_columns(buf, None, dict, &mut typed).unwrap();
                eval.eval_columns(buf, None, dict, &mut plain).unwrap();
                let r = typed[0].values().len() - 1;
                assert_eq!(typed[0].doubles(r), items, "{src}");
                assert_eq!(typed[2].doubles(r), None, "objects are no typed matches");
                assert!(plain.iter().all(|c| c.doubles(r).is_none()));
                for cols in [&mut typed, &mut plain] {
                    for (col, p) in cols.iter_mut().zip(&paths) {
                        assert_eq!(col.take(r), eval_path(&v, p), "{src} {p:?}");
                    }
                }
            }
        }
        // A column gives its last record back, a typed one as its array.
        let v = parse(cases[0].0).unwrap();
        eval.eval_columns(&encode(&v, None), None, None, &mut typed).unwrap();
        assert_eq!(typed[0].pop(), Some(eval_path(&v, &paths[0])));
        // A filler's `double`s: a typed range, or an array in a plain column.
        for typed in [true, false] {
            let mut col = Column::new(typed);
            col.push(Value::Int64(1));
            col.push_f64s(&[1.5, 2.5]);
            col.push_f64s(&[]);
            assert_eq!(col.doubles(1), typed.then_some(&[1.5, 2.5][..]));
            assert_eq!(col.take(1), doubles(&[1.5, 2.5]));
            assert_eq!(col.pop(), Some(Value::Array(vec![])));
            assert_eq!(col.values().len(), 2);
        }
    }

    /// An out-of-range name id, and a string that is not UTF-8 inside a
    /// container the walk skips, are typed corruption.
    #[test]
    fn bad_names_and_skipped_strings_are_corrupt() {
        let v = parse(r#"{"skip": {"s": "xy"}, "k": 1}"#).unwrap();
        let raw = encode(&v, None);
        let mut schema = Schema::new();
        let compacted = infer_and_compact(&raw, &mut schema).unwrap();
        let k = [parse_path("k")];
        assert_eq!(get_values(&compacted, &k, None, Some(schema.dict())).unwrap(), [1i64.into()]);
        let empty = FieldNameDictionary::new();
        let err = get_values(&compacted, &k, None, Some(&empty)).unwrap_err();
        assert!(matches!(err, AdmError::Corrupt(_)), "{err:?}");

        let mut bad = raw.clone();
        let at = bad.windows(2).position(|w| w == b"xy").unwrap();
        bad[at..at + 2].copy_from_slice(&[0xff, 0xfe]);
        let err = get_values(&bad, &k, None, None).unwrap_err();
        assert!(matches!(err, AdmError::Corrupt(_)), "{err:?}");
    }

    /// A declared-field flag on a nested name (damage can set one) is
    /// corruption to `getValues` as it is to `decode`: declared indexes
    /// resolve in the root object only.
    #[test]
    fn declared_names_resolve_at_the_root_only() {
        use tc_adm::datatype::FieldDef;
        use tc_adm::TypeKind;
        let t = ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }]);
        let v = parse(r#"{"id": 1, "x": {"x": 5}}"#).unwrap();
        let mut schema = Schema::new();
        let mut buf = infer_and_compact(&encode(&v, Some(&t)), &mut schema).unwrap();
        let paths = [parse_path("id"), parse_path("x.id"), parse_path("x.x")];
        let dict = Some(schema.dict());
        let got = get_values(&buf, &paths, Some(&t), dict).unwrap();
        assert_eq!(got, [1i64.into(), Value::Missing, 5i64.into()]);
        // Entries: `id` (declared 0), `x` (id 0), nested `x` (id 0). Set the
        // third one's declared flag: it reads as declared index 0, `id`.
        let h = crate::header::Header::read(&buf).unwrap();
        let bits = h.fieldname_bits as usize;
        let flag = h.fieldname_lengths_off as usize * 8 + 2 * bits + bits - 1;
        buf[flag / 8] ^= 1 << (flag % 8);
        let err = crate::reader::decode(&buf, Some(&t), dict).unwrap_err();
        assert!(matches!(err, AdmError::Corrupt(_)), "{err:?}");
        for path in &paths[1..] {
            let err = get_values(&buf, std::slice::from_ref(path), Some(&t), dict).unwrap_err();
            assert!(matches!(err, AdmError::Corrupt(_)), "{path:?}: {err:?}");
        }
    }

    /// Small random records over the names `a`, `b` and `c`, nested up to
    /// four containers deep.
    pub(crate) fn arb_record() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        let name = || prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(String::from);
        let leaf = prop_oneof![
            any::<i64>().prop_map(Value::Int64),
            any::<f64>().prop_map(Value::Double),
            "[a-zé]{0,4}".prop_map(Value::String),
            Just(Value::Null),
        ];
        let value = leaf.prop_recursive(3, 24, 4, move |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Multiset),
                proptest::collection::btree_map(name(), inner, 0..4)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        });
        proptest::collection::btree_map(name(), value, 0..4)
            .prop_map(|m| Value::Object(m.into_iter().collect()))
    }

    /// Records that do not parse — truncated, bit-flipped, a random body
    /// behind a valid header, random bytes — give values or a typed
    /// corruption, never a panic, stored raw or compacted, through typed
    /// columns and `Value` ones. `TC_FAULT_SEED` reseeds the inputs so CI
    /// can loop it.
    #[test]
    fn get_values_never_panics() {
        use proptest::strategy::Strategy;
        use rand::{Rng, SeedableRng};

        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x6E7);
        eprintln!("get_values_never_panics: TC_FAULT_SEED={seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let records = arb_record();
        let paths: Vec<Path> =
            ["a", "b[*]", "b[*].c", "c[*][*]", "a[1].b", "a.b.c", "b[0]", "c[*].a[*]", ""]
                .iter()
                .map(|t| parse_path(t))
                .collect();
        let mut eval = BatchPathEvaluator::new(&paths);
        let mut check = |bytes: &[u8], dict: Option<&FieldNameDictionary>| {
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cols = vec![Column::new(true); paths.len()];
                eval.eval_columns(bytes, None, dict, &mut cols)?;
                get_values(bytes, &paths, None, dict)
            }));
            match got {
                Ok(Ok(_)) | Ok(Err(AdmError::Corrupt(_))) => {}
                Ok(Err(e)) => panic!("{e:?} is no typed corruption (TC_FAULT_SEED={seed})"),
                Err(_) => panic!("getValues panicked on {bytes:?} (TC_FAULT_SEED={seed})"),
            }
        };
        let mut schema = Schema::new();
        for _ in 0..300 {
            let raw = encode(&records.new_value(&mut rng), None);
            let compacted = infer_and_compact(&raw, &mut schema).unwrap();
            let dict = schema.dict();
            for (stored, dict) in [(&raw, None), (&compacted, Some(dict))] {
                for _ in 0..3 {
                    check(&stored[..rng.gen_range(0..stored.len())], dict);
                    let mut flipped = stored.clone();
                    let bit = rng.gen_range(0..flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    check(&flipped, dict);
                }
                let mut body = stored.clone();
                body[crate::header::HEADER_LEN..].iter_mut().for_each(|b| *b = rng.gen());
                check(&body, dict);
            }
            let noise: Vec<u8> = (0..rng.gen_range(0..64)).map(|_| rng.gen()).collect();
            check(&noise, None);
        }
    }

    /// Records damaged by a flipped bit that `decode` still reads: whatever
    /// value `decode` makes of one, `getValues` and `eval_columns` into
    /// typed columns give `eval_path`'s answer on that value, path by path,
    /// stored raw or compacted. Holds the walk to `eval_path` semantics on
    /// damaged streams, not only on encoder output. `TC_FAULT_SEED`
    /// reseeds the inputs so CI can loop it.
    #[test]
    fn damaged_but_decodable_records_agree() {
        use proptest::strategy::Strategy;
        use rand::{Rng, SeedableRng};

        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xDA3);
        eprintln!("damaged_but_decodable_records_agree: TC_FAULT_SEED={seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let records = arb_record();
        let paths: Vec<Path> = [
            "a",
            "b[*]",
            "b[*].c",
            "c[*][*]",
            "a[1].b",
            "a.b.c",
            "b[0]",
            "c[*].a[*]",
            "",
            "c",
            "a[*].b",
        ]
        .iter()
        .map(|t| parse_path(t))
        .collect();
        let mut eval = BatchPathEvaluator::new(&paths);
        let mut schema = Schema::new();
        let mut decodable = 0;
        for _ in 0..4000 {
            let raw = encode(&records.new_value(&mut rng), None);
            let compacted = infer_and_compact(&raw, &mut schema).unwrap();
            for (stored, dict) in [(&raw, None), (&compacted, Some(schema.dict()))] {
                for _ in 0..3 {
                    let mut flipped = stored.clone();
                    let bit = rng.gen_range(0..flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let Ok(v) = crate::reader::decode(&flipped, None, dict) else { continue };
                    decodable += 1;
                    let expected: Vec<Value> = paths.iter().map(|p| eval_path(&v, p)).collect();
                    let why = format!("{flipped:?} decodes to {v:?} (TC_FAULT_SEED={seed})");
                    let got = get_values(&flipped, &paths, None, dict);
                    assert_eq!(got.as_ref(), Ok(&expected), "{why}");
                    // One path alone: its containers hold a single state.
                    let one = rng.gen_range(0..paths.len());
                    let got = get_values(&flipped, &paths[one..=one], None, dict);
                    assert_eq!(got, Ok(vec![expected[one].clone()]), "{:?}: {why}", paths[one]);
                    let mut cols = vec![Column::new(true); paths.len()];
                    eval.eval_columns(&flipped, None, dict, &mut cols).unwrap();
                    let got: Vec<Value> = cols.iter_mut().map(|c| c.take(0)).collect();
                    assert_eq!(got, expected, "typed columns: {why}");
                }
            }
        }
        eprintln!("{decodable} of 24000 flipped records decode");
        assert!(decodable > 2000, "only {decodable} flips decoded");
    }

    #[test]
    fn declared_field_access() {
        use tc_adm::datatype::{FieldDef, ObjectType};
        use tc_adm::TypeKind;
        let t = ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }]);
        let v = parse(r#"{"id": 42, "name": "Ann"}"#).unwrap();
        let raw = encode(&v, Some(&t));
        let got =
            get_values(&raw, &[parse_path("id"), parse_path("name")], Some(&t), None).unwrap();
        assert_eq!(got, vec![Value::Int64(42), Value::string("Ann")]);
    }
}
