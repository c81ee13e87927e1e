//! The streaming shredder: one walk over a vector record's items sends each
//! scalar at a column's path to that column — each item of a collection
//! with repeated columns to them — and copies everything else into the
//! row's residual record: no `Value`, no `String` per field name.

use tc_adm::datatype::ObjectType;
use tc_adm::TypeTag;
use tc_schema::{FieldNameDictionary, FieldNameId};
use tc_storage::error::StorageError;
use tc_vector::{FieldName, RawItem, Sections, VectorReader};

use crate::chunk::ColumnSpec;
use crate::writer::ColBuild;
use crate::{DEF_ABSENT, DEF_ITEM_NULL, DEF_NULL, DEF_PRESENT};

/// One field name on the way to a column: a node of the trie of the
/// component's column paths, with the three ways a record may spell it.
#[derive(Debug)]
struct PathNode {
    name: String,
    /// Its id in the component's dictionary (a compacted record's spelling).
    id: Option<FieldNameId>,
    /// Root fields only: its index in the declared type.
    declared: Option<usize>,
    /// The typed column at exactly this path — or, below a collection's
    /// node, the repeated column of this field of its items.
    col: Option<usize>,
    /// The collection at this path, if repeated columns take its items.
    items: Option<Items>,
    children: Vec<usize>,
}

impl PathNode {
    fn is_named(&self, name: FieldName<'_>) -> bool {
        match name {
            FieldName::Declared(idx) => self.declared == Some(idx),
            FieldName::InferredId(id) => self.id == Some(id),
            FieldName::Inferred(name) => self.name == name,
        }
    }
}

/// The repeated columns of one collection.
#[derive(Debug)]
struct Items {
    /// `Array` or `Multiset`: a collection of the other kind does not fit.
    kind: TypeTag,
    /// All of them, in column order.
    cols: Vec<usize>,
    /// The one column of items that are scalars; `None` for items that are
    /// objects, whose fields' columns the node's children hold.
    scalar: Option<usize>,
}

const ROOT: usize = 0;

fn bad_record(what: impl ToString) -> StorageError {
    StorageError::corruption("columnar shred", what.to_string())
}

/// Shreds the records of one component, one at a time.
///
/// What a column takes is what a lookup by name would find: of the fields of
/// one name in an object, the first. Taken out of the record are a `null`
/// and a value of the column's type; a value of another type stays, counted
/// as a spill; `missing` stays too. Emptied objects stay in place, so
/// `{"a": {}}` and `{}` remain distinguishable after reconstruction.
///
/// A collection with repeated columns is taken whole — its items, each one
/// a scalar of the column's type or `null`, or an object of the columns'
/// fields (each at most once, of its column's type or `null`) or `null` —
/// or not at all: one item that does not fit sends the collection to the
/// residual as it is, counted as a spill of every column of it. A `null`
/// collection is taken too.
///
/// What stays is re-assembled in the order it is met. With a dictionary the
/// residual record is *compacted*: a field id is copied as it is, an inline
/// name looked up, and one the dictionary lacks is the caller's error — the
/// blob is newer than every record it is handed. Without one (a component
/// built with no schema blob) names stay inline. Declared fields stay
/// declared indices either way.
#[derive(Debug)]
pub(crate) struct Shredder {
    declared: ObjectType,
    /// The dictionary of the component's schema blob, if it has one.
    dict: Option<FieldNameDictionary>,
    nodes: Vec<PathNode>,
    /// The last record that had a field of each node's name: a later field
    /// of that name in the same object is no candidate.
    met: Vec<u64>,
    records: u64,
    /// The trie node of each open container; `None` below the last column.
    open: Vec<Option<usize>>,
    /// The open row's definition level in each column (a repeated column's:
    /// its collection's).
    defs: Vec<u8>,
    rest: Sections,
    residual: Vec<u8>,
}

impl Shredder {
    pub(crate) fn new(
        columns: &[ColumnSpec],
        declared: ObjectType,
        dict: Option<FieldNameDictionary>,
    ) -> Self {
        let node = |name: &str, of_root: bool| PathNode {
            name: name.to_owned(),
            id: dict.as_ref().and_then(|d| d.find(name)),
            declared: if of_root { declared.field_index(name) } else { None },
            col: None,
            items: None,
            children: Vec::new(),
        };
        let mut nodes = vec![node("", false)];
        let child = |nodes: &mut Vec<PathNode>, at: usize, name: &str| {
            let found = nodes[at].children.iter().copied().find(|&n| nodes[n].name == *name);
            found.unwrap_or_else(|| {
                nodes.push(node(name, at == ROOT));
                let new = nodes.len() - 1;
                nodes[at].children.push(new);
                new
            })
        };
        for (c, spec) in columns.iter().enumerate() {
            let fields = spec.repeated.map_or(spec.path.len(), |rep| rep.depth);
            let mut at = ROOT;
            for name in &spec.path[..fields.min(spec.path.len())] {
                at = child(&mut nodes, at, name);
            }
            let Some(rep) = spec.repeated else {
                nodes[at].col = Some(c);
                continue;
            };
            let field = spec.path.get(fields).map(|name| child(&mut nodes, at, name));
            let items = nodes[at].items.get_or_insert_with(|| Items {
                kind: rep.kind,
                cols: Vec::new(),
                scalar: None,
            });
            items.cols.push(c);
            match field {
                Some(field) => nodes[field].col = Some(c),
                None => items.scalar = Some(c),
            }
        }
        Shredder {
            declared,
            dict,
            met: vec![0; nodes.len()],
            nodes,
            records: 0,
            open: Vec::new(),
            defs: vec![DEF_ABSENT; columns.len()],
            rest: Sections::default(),
            residual: Vec::new(),
        }
    }

    pub(crate) fn dict(&self) -> Option<&FieldNameDictionary> {
        self.dict.as_ref()
    }

    /// The catalog type and the dictionary, for the reader of what was
    /// shredded.
    pub(crate) fn into_names(self) -> (ObjectType, Option<FieldNameDictionary>) {
        (self.declared, self.dict)
    }

    /// The trie node of a field of the innermost open container, if it is
    /// on the way to a column and the first of its name.
    fn meet(&mut self, name: Option<FieldName<'_>>) -> Option<usize> {
        let (parent, name) = ((*self.open.last()?)?, name?);
        let node =
            self.nodes[parent].children.iter().copied().find(|&n| self.nodes[n].is_named(name))?;
        (std::mem::replace(&mut self.met[node], self.records) != self.records).then_some(node)
    }

    /// `name`, the name of a field of the innermost open container, as the
    /// residual record spells it.
    fn spell<'n>(
        &self,
        name: Option<FieldName<'n>>,
    ) -> Result<Option<FieldName<'n>>, StorageError> {
        let lacks = |name: &dyn std::fmt::Debug| {
            bad_record(format!("field name {name:?} is not in the component's dictionary"))
        };
        Ok(Some(match name {
            None => return Ok(None),
            // Declared indices name fields of the root object only.
            Some(FieldName::Declared(idx)) => {
                if self.open.len() != 1 || self.declared.field(idx).is_none() {
                    return Err(bad_record(format!("declared field index {idx} out of place")));
                }
                FieldName::Declared(idx)
            }
            Some(FieldName::InferredId(id)) => match self.dict().and_then(|d| d.name(id)) {
                Some(_) => FieldName::InferredId(id),
                None => return Err(lacks(&id)),
            },
            Some(FieldName::Inferred(name)) => match self.dict() {
                Some(dict) => FieldName::InferredId(dict.find(name).ok_or_else(|| lacks(&name))?),
                None => FieldName::Inferred(name),
            },
        }))
    }

    /// Stage the items of the collection just opened at trie node `at` in
    /// its columns, reading them off `reader`; `false`, with nothing staged,
    /// when one of them does not fit.
    fn take_items(
        &self,
        reader: &mut VectorReader<'_>,
        at: usize,
        items: &Items,
        cols: &mut [ColBuild],
    ) -> Result<bool, StorageError> {
        let fits = self.stage_items(reader, at, items, cols);
        if !matches!(fits, Ok(true)) {
            items.cols.iter().for_each(|&c| cols[c].unstage());
        }
        fits
    }

    fn stage_items(
        &self,
        reader: &mut VectorReader<'_>,
        at: usize,
        items: &Items,
        cols: &mut [ColBuild],
    ) -> Result<bool, StorageError> {
        let ended = || bad_record("record ends inside a collection");
        loop {
            match reader.next_raw().map_err(bad_record)? {
                RawItem::Close => return Ok(true),
                RawItem::Eov => return Err(ended()),
                RawItem::Scalar { tag, bytes, .. } => match items.scalar {
                    Some(c) if tag == TypeTag::Null => cols[c].put_item(DEF_NULL, None)?,
                    Some(c) if tag == cols[c].tag => cols[c].put_item(DEF_PRESENT, Some(bytes))?,
                    None if tag == TypeTag::Null => {
                        for &c in &items.cols {
                            cols[c].put_item(DEF_ITEM_NULL, None)?;
                        }
                    }
                    _ => return Ok(false),
                },
                RawItem::Begin { tag: TypeTag::Object, .. } if items.scalar.is_none() => {
                    for &c in &items.cols {
                        cols[c].put_item(DEF_ABSENT, None)?;
                    }
                    loop {
                        let (tag, bytes, name) = match reader.next_raw().map_err(bad_record)? {
                            RawItem::Close => break,
                            RawItem::Scalar { tag, bytes, name } => (tag, bytes, name),
                            RawItem::Begin { .. } => return Ok(false),
                            RawItem::Eov => return Err(ended()),
                        };
                        let field = name.and_then(|name| {
                            let fields = self.nodes[at].children.iter().copied();
                            fields
                                .filter(|&f| self.nodes[f].is_named(name))
                                .find_map(|f| self.nodes[f].col)
                        });
                        let Some(c) = field else { return Ok(false) };
                        let value = match tag {
                            TypeTag::Null => (DEF_NULL, None),
                            tag if tag == cols[c].tag => (DEF_PRESENT, Some(bytes)),
                            _ => return Ok(false),
                        };
                        if !cols[c].set_item(value.0, value.1)? {
                            return Ok(false);
                        }
                    }
                }
                RawItem::Begin { .. } => return Ok(false),
            }
        }
    }

    /// Shred one record: its column values go to `cols` (one row each, by
    /// column index); what is left of it comes back as a vector record.
    pub(crate) fn shred(
        &mut self,
        record: &[u8],
        cols: &mut [ColBuild],
    ) -> Result<&[u8], StorageError> {
        let mut reader = VectorReader::new(record).map_err(bad_record)?;
        self.records += 1;
        self.open.clear();
        loop {
            match reader.next_raw().map_err(bad_record)? {
                RawItem::Eov => return Err(bad_record("record ends before its root does")),
                RawItem::Close => {
                    self.open.pop();
                    self.rest.close();
                }
                RawItem::Begin { tag, name } => {
                    let node = if self.open.is_empty() { Some(ROOT) } else { self.meet(name) };
                    if let Some(c) = node.and_then(|n| self.nodes[n].col) {
                        cols[c].spilled += 1;
                    }
                    let collection = node.and_then(|n| Some((n, self.nodes[n].items.as_ref()?)));
                    if let Some((at, items)) = collection {
                        // Read the items ahead; where one does not fit, the
                        // walk goes on from here, copying them.
                        if tag == items.kind {
                            let mut ahead = reader.clone();
                            if self.take_items(&mut ahead, at, items, cols)? {
                                reader = ahead;
                                items.cols.iter().for_each(|&c| self.defs[c] = DEF_PRESENT);
                                continue;
                            }
                        }
                        items.cols.iter().for_each(|&c| cols[c].spilled += 1);
                    }
                    let name = self.spell(name)?;
                    self.rest.begin(tag, name);
                    // Column paths run through objects only; a collection's
                    // items that did not fit are all the residual's.
                    let objects = node.filter(|&n| self.nodes[n].items.is_none());
                    self.open.push(objects.filter(|_| tag == TypeTag::Object));
                }
                RawItem::Scalar { tag, bytes, name } => {
                    let node = self.meet(name);
                    if let Some(c) = node.and_then(|n| self.nodes[n].col) {
                        let taken = match tag {
                            TypeTag::Null => Some(DEF_NULL),
                            tag if tag == cols[c].tag => {
                                cols[c].put(bytes)?;
                                Some(DEF_PRESENT)
                            }
                            TypeTag::Missing => None,
                            _ => {
                                cols[c].spilled += 1;
                                None
                            }
                        };
                        if let Some(def) = taken {
                            self.defs[c] = def;
                            continue;
                        }
                    }
                    if let Some(items) = node.and_then(|n| self.nodes[n].items.as_ref()) {
                        match tag {
                            TypeTag::Null => {
                                items.cols.iter().for_each(|&c| self.defs[c] = DEF_NULL);
                                continue;
                            }
                            TypeTag::Missing => {}
                            _ => items.cols.iter().for_each(|&c| cols[c].spilled += 1),
                        }
                    }
                    let name = self.spell(name)?;
                    self.rest.scalar(tag, bytes, name);
                }
            }
            if self.open.is_empty() {
                break;
            }
        }
        if reader.next_raw().map_err(bad_record)? != RawItem::Eov {
            return Err(bad_record("trailing values after the root"));
        }
        for (col, def) in cols.iter_mut().zip(&mut self.defs) {
            col.end_row(std::mem::replace(def, DEF_ABSENT));
        }
        self.residual.clear();
        self.rest.finish_into(self.dict.is_some(), &mut self.residual);
        Ok(&self.residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tc_adm::datatype::{FieldDef, TypeKind};
    use tc_adm::{parse, Value};
    use tc_schema::Schema;

    use crate::AmaxCodec;

    /// `id` is a column; `when` (a scalar no column holds) and `meta`
    /// (anything) are declared but stay in the residual.
    fn declared() -> ObjectType {
        let field = |name: &str, kind| FieldDef { name: name.into(), kind, optional: true };
        ObjectType::open(vec![
            field("id", TypeKind::Scalar(TypeTag::Int64)),
            field("when", TypeKind::Scalar(TypeTag::Date)),
            field("meta", TypeKind::Any),
        ])
    }

    // -----------------------------------------------------------------
    // The route this shredder replaced, kept as the oracle: decode the
    // record, detach each column's value from the `Value`, re-encode the rest.
    // -----------------------------------------------------------------

    enum Taken {
        Absent,
        Null,
        Present(Value),
        Spilled,
    }

    /// The first field of `name` in `v`, if `v` is an object that has one.
    fn field_of<'v>(v: &'v mut Value, name: &str) -> Option<(&'v mut Vec<(String, Value)>, usize)> {
        let Value::Object(fields) = v else { return None };
        let idx = fields.iter().position(|(n, _)| n == name)?;
        Some((fields, idx))
    }

    fn take_at_path(v: &mut Value, path: &[String], tag: TypeTag) -> Taken {
        let Some((fields, idx)) = field_of(v, &path[0]) else { return Taken::Absent };
        if path.len() > 1 {
            return take_at_path(&mut fields[idx].1, &path[1..], tag);
        }
        match &fields[idx].1 {
            Value::Null => {
                fields.remove(idx);
                Taken::Null
            }
            val if val.type_tag() == tag => Taken::Present(fields.remove(idx).1),
            Value::Missing => Taken::Absent,
            _ => Taken::Spilled,
        }
    }

    /// The bytes a column stores for `v`.
    fn bytes_of(v: &Value) -> Vec<u8> {
        match v {
            Value::Int64(i) => i.to_le_bytes().to_vec(),
            Value::Double(d) => d.to_le_bytes().to_vec(),
            Value::Boolean(b) => vec![*b as u8],
            Value::String(s) => s.clone().into_bytes(),
            other => panic!("no column holds {other:?}"),
        }
    }

    /// Detach the collection of the repeated columns `group` (indexes into
    /// `columns`, all of one collection) from `v`, and close their rows.
    fn take_collection(
        v: &mut Value,
        columns: &[ColumnSpec],
        group: &[usize],
        cols: &mut [ColBuild],
    ) {
        let spec = &columns[group[0]];
        let rep = spec.repeated.unwrap();
        let (mut at, path) = (v, &spec.path[..rep.depth]);
        for name in &path[..path.len() - 1] {
            match field_of(at, name) {
                Some((fields, idx)) => at = &mut fields[idx].1,
                None => return group.iter().for_each(|&c| cols[c].end_row(DEF_ABSENT)),
            }
        }
        let Some((fields, idx)) = field_of(at, path.last().unwrap()) else {
            return group.iter().for_each(|&c| cols[c].end_row(DEF_ABSENT));
        };
        // The item field of each column, and its column (`None`: scalar items).
        let item_field = |c: usize| columns[c].path.get(rep.depth);
        let fits = |item: &Value| match item {
            Value::Null => true,
            Value::Object(item_fields) if item_field(group[0]).is_some() => {
                item_fields.iter().enumerate().all(|(i, (name, x))| {
                    let col = group.iter().find(|&&c| item_field(c) == Some(name));
                    let first = item_fields.iter().position(|(n, _)| n == name) == Some(i);
                    col.is_some_and(|&c| {
                        first && (matches!(x, Value::Null) || x.type_tag() == columns[c].tag)
                    })
                })
            }
            x => item_field(group[0]).is_none() && x.type_tag() == columns[group[0]].tag,
        };
        let def = match &fields[idx].1 {
            Value::Missing => DEF_ABSENT,
            Value::Null => DEF_NULL,
            coll if coll.type_tag() == rep.kind && coll.as_items().unwrap().iter().all(fits) => {
                DEF_PRESENT
            }
            _ => {
                group.iter().for_each(|&c| cols[c].spilled += 1);
                DEF_ABSENT
            }
        };
        if def != DEF_ABSENT {
            let taken = fields.remove(idx).1;
            for item in taken.as_items().unwrap_or_default() {
                for &c in group {
                    let value = match (item, item_field(c)) {
                        (Value::Null, Some(_)) => (DEF_ITEM_NULL, None),
                        (Value::Object(item_fields), Some(name)) => {
                            match item_fields.iter().find(|(n, _)| n == name) {
                                None => (DEF_ABSENT, None),
                                Some((_, Value::Null)) => (DEF_NULL, None),
                                Some((_, x)) => (DEF_PRESENT, Some(bytes_of(x))),
                            }
                        }
                        (Value::Null, None) => (DEF_NULL, None),
                        (x, _) => (DEF_PRESENT, Some(bytes_of(x))),
                    };
                    cols[c].put_item(value.0, value.1.as_deref()).unwrap();
                }
            }
        }
        group.iter().for_each(|&c| cols[c].end_row(def));
    }

    /// The oracle's row: column values into `cols`, the rest self-describing.
    fn shred_by_value(
        record: &[u8],
        declared: &ObjectType,
        dict: Option<&FieldNameDictionary>,
        columns: &[ColumnSpec],
        cols: &mut [ColBuild],
    ) -> Vec<u8> {
        let mut value = tc_vector::decode(record, Some(declared), dict).unwrap();
        for (c, spec) in columns.iter().enumerate() {
            if let Some(rep) = spec.repeated {
                let same = |d: &ColumnSpec| {
                    d.repeated == spec.repeated && d.path[..rep.depth] == spec.path[..rep.depth]
                };
                let group: Vec<usize> = (0..columns.len()).filter(|&d| same(&columns[d])).collect();
                if group[0] == c {
                    take_collection(&mut value, columns, &group, cols);
                }
                continue;
            }
            let col = &mut cols[c];
            let def = match take_at_path(&mut value, &spec.path, spec.tag) {
                Taken::Absent => DEF_ABSENT,
                Taken::Null => DEF_NULL,
                Taken::Spilled => {
                    col.spilled += 1;
                    DEF_ABSENT
                }
                Taken::Present(v) => {
                    col.put(&bytes_of(&v)).unwrap();
                    DEF_PRESENT
                }
            };
            col.end_row(def);
        }
        tc_vector::encode(&value, None)
    }

    fn arb_leaf() -> impl Strategy<Value = Value> {
        prop_oneof![
            3 => Just(Value::Null),
            1 => Just(Value::Missing),
            12 => any::<i64>().prop_map(Value::Int64),
            1 => any::<f64>().prop_map(Value::Double),
            1 => Just(Value::Double(f64::NAN)),
            1 => any::<bool>().prop_map(Value::Boolean),
            2 => "[a-zé ]{0,12}".prop_map(Value::String),
            1 => (-9_000i32..9_000).prop_map(Value::Date),
            1 => proptest::collection::vec(any::<u8>(), 0..5).prop_map(Value::Binary),
        ]
    }

    /// Few names, so that one path is an int in one record, a string, an
    /// object or an array in the next, and missing in a third.
    fn arb_fields(
        inner: impl Strategy<Value = Value> + 'static,
    ) -> impl Strategy<Value = Vec<(String, Value)>> {
        proptest::collection::btree_map("[abop]{1}", inner, 0..5)
            .prop_map(|fields| fields.into_iter().collect())
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        arb_leaf().prop_recursive(3, 32, 4, |inner| {
            prop_oneof![
                3 => arb_fields(inner.clone()).prop_map(Value::Object),
                1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                1 => proptest::collection::vec(inner, 0..3).prop_map(Value::Multiset),
            ]
        })
    }

    /// Collections that repeated columns take, mostly: arrays (a multiset
    /// now and then) of ints and nulls, and arrays of flat objects of a
    /// double and a string — with the odd item that does not fit.
    fn arb_collections() -> impl Strategy<Value = (Option<Value>, Option<Value>)> {
        let scalar = || {
            prop_oneof![
                8 => any::<i64>().prop_map(Value::Int64),
                2 => Just(Value::Null),
                1 => Just(Value::String("odd".into())),
            ]
        };
        let scalars = prop_oneof![
            6 => proptest::collection::vec(scalar(), 0..5).prop_map(Value::Array),
            1 => proptest::collection::vec(scalar(), 0..3).prop_map(Value::Multiset),
            1 => Just(Value::Null),
        ];
        let field = prop_oneof![
            6 => any::<f64>().prop_map(Value::Double),
            1 => Just(Value::Null),
            3 => "[a-z]{0,4}".prop_map(Value::String),
        ];
        let flat = proptest::collection::btree_map("[tu]{1}", field, 0..3)
            .prop_map(|fields| Value::Object(fields.into_iter().collect()));
        let item = prop_oneof![10 => flat, 2 => Just(Value::Null), 1 => arb_leaf()];
        let objects = prop_oneof![
            6 => proptest::collection::vec(item, 0..5).prop_map(Value::Array),
            1 => Just(Value::Null),
        ];
        let maybe = |s: BoxedStrategy<Value>| prop_oneof![1 => Just(None), 4 => s.prop_map(Some)];
        (maybe(scalars.boxed()), maybe(objects.boxed()))
    }

    /// A row: anti-matter?, did the schema see its types?, is it handed over
    /// compacted?, and its fields — `id`, maybe the two declared fields that
    /// are no columns, the two collections, and the rest.
    type Row = (
        (bool, bool, bool),
        (Option<i32>, Option<Value>),
        (Option<Value>, Option<Value>),
        Vec<(String, Value)>,
    );

    fn arb_row() -> impl Strategy<Value = Row> {
        let maybe = |s: BoxedStrategy<Value>| prop_oneof![Just(None), s.prop_map(Some)];
        (
            (
                prop_oneof![1 => Just(true), 6 => Just(false)],
                prop_oneof![3 => Just(true), 1 => Just(false)],
                any::<bool>(),
            ),
            (prop_oneof![Just(None), (0i32..9).prop_map(Some)], maybe(arb_value().boxed())),
            arb_collections(),
            arb_fields(prop_oneof![arb_leaf(), arb_value()]),
        )
    }

    fn record_of(id: usize, row: &Row) -> Value {
        let (_, (when, meta), (xs, items), rest) = row.clone();
        let mut fields = vec![("id".to_owned(), Value::Int64(id as i64))];
        fields.extend(when.map(|d| ("when".to_owned(), Value::Date(d))));
        fields.extend(xs.map(|v| ("xs".to_owned(), v)));
        fields.extend(rest);
        fields.extend(items.map(|v| ("items".to_owned(), v)));
        fields.extend(meta.map(|v| ("meta".to_owned(), v)));
        Value::Object(fields)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Walking the record's bytes takes the same values into the same
        /// columns as detaching them from the decoded `Value` did — block
        /// for block, count for count, min for max — and leaves a residual
        /// that decodes to the same value, fields in the same order, with no
        /// field name in it. Rows come compacted (a flush) or not (a pivot),
        /// and the schema has seen the types of only some of them.
        #[test]
        fn streaming_shredder_equals_the_value_route(
            rows in proptest::collection::vec(arb_row(), 1..12),
        ) {
            let declared = declared();
            let is_declared = |n: &str| declared.field_index(n).is_some();
            // The partition's schema after the flush of every record, and the
            // component's: the same names under the same ids, fewer types.
            let mut full = Schema::new();
            let mut inputs = Vec::new();
            for (id, row) in rows.iter().enumerate() {
                let raw = tc_vector::encode(&record_of(id, row), Some(&declared));
                let compacted = tc_vector::infer_and_compact(&raw, &mut full).unwrap();
                inputs.push(if row.0.2 { compacted } else { raw });
            }
            let mut schema = Schema::new();
            for id in 0..full.dict().len() {
                schema.intern_name(full.dict().name(id as FieldNameId).unwrap());
            }
            for (id, row) in rows.iter().enumerate().filter(|(_, row)| row.0.1) {
                let Value::Object(fields) = record_of(id, row) else { panic!("not an object") };
                schema.observe_record(&fields, &is_declared).unwrap();
            }
            prop_assert!(schema.dict().is_prefix_of(full.dict()) && full.dict().is_prefix_of(schema.dict()));
            let dict = Some(schema.dict());
            let columns = AmaxCodec::new(declared.clone()).column_set(Some(&schema));
            let new_cols = || {
                columns.iter().map(|c| ColBuild::new(c.tag, c.repeated.is_some())).collect::<Vec<_>>()
            };

            let (mut streamed, mut by_value) = (new_cols(), new_cols());
            let mut shredder = Shredder::new(&columns, declared.clone(), dict.cloned());
            for (row, input) in rows.iter().zip(&inputs) {
                if row.0.0 {
                    // Anti-matter: a row of every column, nothing to shred.
                    streamed.iter_mut().chain(&mut by_value).for_each(|c| c.end_row(DEF_ABSENT));
                    continue;
                }
                let rest = shredder.shred(input, &mut streamed).unwrap();
                let expected = shred_by_value(input, &declared, dict, &columns, &mut by_value);
                prop_assert!(tc_vector::Header::read(rest).unwrap().is_compacted());
                let rest = tc_vector::decode(rest, Some(&declared), dict).unwrap();
                let expected = tc_vector::decode(&expected, None, None).unwrap();
                prop_assert_eq!(format!("{rest:?}"), format!("{expected:?}"));
            }
            prop_assert_eq!(streamed, by_value);
        }
    }

    /// A shredder for `columns` (path, tag) over the dictionary `names`.
    fn shredder(columns: &[(&str, TypeTag)], names: &[&str]) -> Shredder {
        let mut dict = FieldNameDictionary::new();
        names.iter().for_each(|name| {
            dict.get_or_insert(name);
        });
        let columns: Vec<ColumnSpec> = columns
            .iter()
            .map(|(path, tag)| ColumnSpec {
                path: vec![path.to_string()],
                tag: *tag,
                repeated: None,
            })
            .collect();
        Shredder::new(&columns, declared(), Some(dict))
    }

    fn encoded(text: &str) -> Vec<u8> {
        tc_vector::encode(&parse(text).unwrap(), Some(&declared()))
    }

    #[test]
    fn an_inline_name_the_dictionary_lacks_is_typed_corruption() {
        let mut shredder = shredder(&[("t", TypeTag::Int64)], &["t", "rest"]);
        let mut cols = [ColBuild::new(TypeTag::Int64, false)];
        let record = encoded(r#"{"id": 1, "t": 2, "rest": [3]}"#);
        shredder.shred(&record, &mut cols).unwrap();
        // A pivoted record with a field the output's blob never saw: not
        // dropped, not a panic.
        let record = encoded(r#"{"id": 1, "t": 2, "unseen": {"rest": 3}}"#);
        let err = shredder.shred(&record, &mut cols).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        assert!(err.to_string().contains(r#"field name "unseen" is not in"#), "got {err}");
    }

    #[test]
    fn a_field_id_the_dictionary_lacks_is_typed_corruption() {
        let mut schema = Schema::new();
        let raw = encoded(r#"{"id": 1, "t": 2, "rest": [3], "later": {"t": 1}}"#);
        let compacted = tc_vector::infer_and_compact(&raw, &mut schema).unwrap();
        // The component's dictionary is an older state of the record's.
        let mut shredder = shredder(&[("t", TypeTag::Int64)], &["t", "rest"]);
        assert!(shredder.dict().unwrap().is_prefix_of(schema.dict()));
        let mut cols = [ColBuild::new(TypeTag::Int64, false)];
        let err = shredder.shred(&compacted, &mut cols).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        assert!(err.to_string().contains("field name 2 is not in"), "got {err}");
        // And with no dictionary at all an id names nothing.
        let mut plain = Shredder::new(&[], declared(), None);
        assert!(plain.shred(&compacted, &mut []).unwrap_err().is_corruption());
    }

    #[test]
    fn without_a_dictionary_the_residual_keeps_its_names() {
        let mut plain = Shredder::new(&[], declared(), None);
        let record = encoded(r#"{"id": 7, "s": "x", "o": {"deep": [1]}}"#);
        let rest = plain.shred(&record, &mut []).unwrap();
        assert!(!tc_vector::Header::read(rest).unwrap().is_compacted());
        let back = tc_vector::decode(rest, Some(&declared()), None).unwrap();
        assert_eq!(back, parse(r#"{"id": 7, "s": "x", "o": {"deep": [1]}}"#).unwrap());
    }

    #[test]
    fn only_the_first_field_of_a_name_is_a_candidate() {
        // A lookup by name finds the first `t`; the second stays where it is,
        // and the column still gets one row per record.
        let mut shredder = shredder(&[("t", TypeTag::Int64)], &["t"]);
        let mut cols = [ColBuild::new(TypeTag::Int64, false)];
        let twice = Value::Object(vec![
            ("id".into(), Value::Int64(1)),
            ("t".into(), Value::Int64(5)),
            ("t".into(), Value::Int64(6)),
        ]);
        let record = tc_vector::encode(&twice, Some(&declared()));
        let rest = shredder.shred(&record, &mut cols).unwrap().to_vec();
        let rest = tc_vector::decode(&rest, Some(&declared()), shredder.dict()).unwrap();
        assert_eq!(format!("{rest:?}"), format!("{:?}", parse(r#"{"id": 1, "t": 6}"#).unwrap()));
        let mut expected = ColBuild::new(TypeTag::Int64, false);
        expected.put(&5i64.to_le_bytes()).unwrap();
        expected.end_row(DEF_PRESENT);
        assert_eq!(cols[0], expected);
    }
}
