//! Zone values of row blocks: the tuple compactor's [`ZoneExtractor`].
//!
//! A row-layout component's *zone columns* are the first [`ZONE_COLUMNS`]
//! top-level fields its schema lists whose node is numeric, or a union with a
//! numeric member (churn turns a number into `union(int64, string)`). Declared
//! fields — the primary key among them — are not in the inferred schema, so
//! never zone columns. Per block and column the zone keeps the smallest and
//! largest number present, under [`tc_adm::compare`]'s order, and the
//! [`type_rank`] of every other type present; null and missing satisfy no
//! comparison and are left out.
//!
//! The builder feeds the extractor every record it packs, so extraction runs
//! on every flushed and merged payload and must be cheap: it walks the
//! record's items as stored bytes ([`VectorReader::next_raw`]), matches a
//! top-level field by dictionary id (compacted records), by name (a row a
//! merge pivots out of a columnar input carries names inline) or not at all
//! (declared fields: catalog indexes), and stops once every zone field has
//! been seen. A record that lacks one is walked to its end, which is why the
//! zone columns are the schema's *earliest* numeric fields: later ones tend to
//! be rare.

use tc_adm::compare::{compare, type_rank};
use tc_adm::{AdmError, TypeTag, Value};
use tc_lsm::zone::{ColumnZone, Num, Zone, ZoneColumn, ZoneExtractor};
use tc_schema::{FieldNameId, Schema, SchemaNode};
use tc_vector::{scalar_value, FieldName, RawItem, VectorReader};

/// How many zone columns a component gets at most.
pub const ZONE_COLUMNS: usize = 2;

/// The extractor for a component whose schema blob is `blob`; `None` if the
/// schema has no numeric top-level field (or the blob does not parse).
pub(crate) fn extractor(blob: &[u8]) -> Option<Box<dyn ZoneExtractor>> {
    let schema = Schema::deserialize(blob)?;
    let SchemaNode::Object { fields, .. } = schema.node(schema.root()) else {
        return None;
    };
    let (mut columns, mut ids) = (Vec::new(), Vec::new());
    for (fid, node) in fields {
        let (true, Some(name)) = (is_numeric(schema.node(*node)), schema.field_name(*fid)) else {
            continue;
        };
        columns.push(vec![name.to_owned()]);
        ids.push(*fid);
        if ids.len() == ZONE_COLUMNS {
            break;
        }
    }
    if columns.is_empty() {
        return None;
    }
    let acc = vec![Acc::default(); columns.len()];
    Some(Box::new(RecordZones { columns, ids, acc, unreadable: false }))
}

fn is_numeric(node: &SchemaNode) -> bool {
    match node {
        SchemaNode::Union { children, .. } => children.iter().any(|(tag, _)| tag.is_numeric()),
        node => node.type_tag().is_some_and(TypeTag::is_numeric),
    }
}

/// One block's zone under construction.
struct RecordZones {
    /// Top-level fields: one name each.
    columns: Vec<ZoneColumn>,
    /// The zone columns' dictionary ids, parallel to `columns`.
    ids: Vec<FieldNameId>,
    acc: Vec<Acc>,
    /// Some record of the block could not be read: its zone is unknown.
    unreadable: bool,
}

/// What one column of one block has shown so far.
#[derive(Clone, Default)]
struct Acc {
    range: Option<(Value, Value)>,
    ranks: u32,
}

impl Acc {
    fn note(&mut self, tag: TypeTag, bytes: &[u8]) -> Result<(), AdmError> {
        match tag {
            TypeTag::Null | TypeTag::Missing => {}
            tag if tag.is_numeric() => {
                let v = scalar_value(tag, bytes)?;
                self.range = Some(match self.range.take() {
                    None => (v.clone(), v),
                    Some((lo, hi)) if compare(&v, &lo).is_lt() => (v, hi),
                    Some((lo, hi)) if compare(&v, &hi).is_gt() => (lo, v),
                    Some(range) => range,
                });
            }
            tag => self.ranks |= 1 << type_rank(tag),
        }
        Ok(())
    }

    fn zone(self) -> ColumnZone {
        let num = |v: Value| v.as_i64().map(Num::Int).or(v.as_f64().map(Num::Double));
        let range = self.range.and_then(|(lo, hi)| Some((num(lo)?, num(hi)?)));
        ColumnZone::Known { range, ranks: self.ranks }
    }
}

impl RecordZones {
    fn column_of(&self, name: FieldName<'_>) -> Option<usize> {
        match name {
            FieldName::InferredId(id) => self.ids.iter().position(|i| *i == id),
            FieldName::Inferred(name) => self.columns.iter().position(|c| c[..] == [name]),
            FieldName::Declared(_) => None,
        }
    }

    /// Fold one record's zone fields in, stopping once all have been seen.
    fn walk(&mut self, payload: &[u8]) -> Result<(), AdmError> {
        let mut r = VectorReader::new(payload)?;
        if !matches!(r.next_raw()?, RawItem::Begin { tag: TypeTag::Object, .. }) {
            return Ok(());
        }
        let all = (1u32 << self.columns.len()) - 1;
        let mut seen = 0u32;
        loop {
            // A top-level field is a scalar read at depth 1, or a container
            // whose `Begin` took the reader to depth 2.
            let (tag, bytes, name) = match r.next_raw()? {
                RawItem::Scalar { tag, bytes, name: Some(name) } if r.depth() == 1 => {
                    (tag, bytes, name)
                }
                RawItem::Begin { tag, name: Some(name) } if r.depth() == 2 => (tag, &[][..], name),
                RawItem::Eov => return Ok(()),
                RawItem::Close if r.depth() == 0 => return Ok(()),
                _ => continue,
            };
            if let Some(c) = self.column_of(name) {
                self.acc[c].note(tag, bytes)?;
                seen |= 1 << c;
                if seen == all {
                    return Ok(());
                }
            }
        }
    }
}

impl ZoneExtractor for RecordZones {
    fn columns(&self) -> &[ZoneColumn] {
        &self.columns
    }

    fn observe(&mut self, payload: &[u8]) {
        if self.walk(payload).is_err() {
            self.unreadable = true;
        }
    }

    fn take(&mut self) -> Zone {
        let unreadable = std::mem::take(&mut self.unreadable);
        let acc = self.acc.iter_mut().map(std::mem::take);
        acc.map(|a| if unreadable { ColumnZone::Unknown } else { a.zone() }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::datatype::FieldDef;
    use tc_adm::{parse, ObjectType, TypeKind};
    use tc_vector::{encode, infer_and_compact};

    fn declared() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    /// The records as a flush writes them, and the extractor their schema
    /// opens.
    fn flushed(records: &[&str]) -> (Vec<Vec<u8>>, Box<dyn ZoneExtractor>) {
        let mut schema = Schema::new();
        let compacted = records
            .iter()
            .map(|r| infer_and_compact(&encode(&parse(r).unwrap(), Some(&declared())), &mut schema))
            .collect::<Result<_, _>>()
            .unwrap();
        (compacted, extractor(&schema.serialize()).unwrap())
    }

    fn known(range: Option<(Num, Num)>, ranks: &[TypeTag]) -> ColumnZone {
        let ranks = ranks.iter().fold(0, |acc, t| acc | 1 << type_rank(*t));
        ColumnZone::Known { range, ranks }
    }

    #[test]
    fn zone_columns_are_the_first_two_numeric_top_level_fields() {
        let (_, x) = flushed(&[
            r#"{"id": 1, "name": "a", "deep": {"n": 1}, "t": 5, "u": [1], "s": 2.5, "w": 9}"#,
        ]);
        assert_eq!(x.columns(), [["t"], ["s"]], "not the declared key, nor nested or later fields");
        let (_, x) = flushed(&[r#"{"id": 1, "v": "a"}"#, r#"{"id": 2, "v": 3}"#]);
        assert_eq!(x.columns(), [["v"]], "a union with a numeric member counts");
        let mut schema = Schema::new();
        let record = encode(&parse(r#"{"id": 1, "s": "x"}"#).unwrap(), Some(&declared()));
        infer_and_compact(&record, &mut schema).unwrap();
        assert!(extractor(&schema.serialize()).is_none(), "no numeric field, no zones");
    }

    #[test]
    fn zones_cover_numbers_by_value_and_other_types_by_rank() {
        let (records, mut x) = flushed(&[
            r#"{"id": 1, "t": 5, "s": 1.5}"#,
            r#"{"id": 2, "t": -3, "s": null}"#,
            r#"{"id": 3, "t": "late", "s": [1]}"#,
            r#"{"id": 4, "t": 7.5}"#,
        ]);
        for r in &records {
            x.observe(r);
        }
        let zone = x.take();
        assert_eq!(
            zone[..],
            [
                known(Some((Num::Int(-3), Num::Double(7.5))), &[TypeTag::String]),
                known(Some((Num::Double(1.5), Num::Double(1.5))), &[TypeTag::Array]),
            ]
        );
        // The next block starts empty.
        assert_eq!(x.take()[..], [known(None, &[]), known(None, &[])]);
    }

    #[test]
    fn inline_names_match_and_unreadable_records_make_the_zone_unknown() {
        let (_, mut x) = flushed(&[r#"{"id": 1, "t": 5, "s": 2}"#]);
        // Uncompacted, names inline, fields in another order.
        x.observe(&encode(&parse(r#"{"s": 4, "id": 9, "t": 8}"#).unwrap(), Some(&declared())));
        let zone = x.take();
        assert_eq!(zone[0], known(Some((Num::Int(8), Num::Int(8))), &[]));
        assert_eq!(zone[1], known(Some((Num::Int(4), Num::Int(4))), &[]));
        x.observe(b"not a record");
        assert_eq!(x.take()[..], [ColumnZone::Unknown, ColumnZone::Unknown]);
    }
}
