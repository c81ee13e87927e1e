//! Format-aware record access for the query layer.
//!
//! A [`RecordDecoder`] captures everything needed to interpret a dataset's
//! stored record bytes: the declared type (catalog) and — for inferred
//! datasets — a snapshot of the schema dictionary. It is cheap to clone and
//! `Send`, which is exactly what the schema-broadcast mechanism ships to
//! remote executors at query start (§3.4.1).

use std::sync::Arc;

use tc_adm::adm_format::AdmCursor;
use tc_adm::path::Path;
use tc_adm::{AdmError, ObjectType, TypeKind, Value};
use tc_schema::FieldNameDictionary;
use tc_vector::Column;

use crate::config::StorageFormat;

/// Decodes and navigates stored records of one dataset partition.
#[derive(Clone)]
pub struct RecordDecoder {
    format: StorageFormat,
    /// The declared type, as both `ObjectType` and a `TypeKind` wrapper
    /// (the ADM cursor wants the latter).
    declared: Arc<ObjectType>,
    declared_kind: Arc<TypeKind>,
    /// Schema dictionary snapshot (inferred datasets only).
    dict: Option<Arc<FieldNameDictionary>>,
}

impl RecordDecoder {
    pub fn new(
        format: StorageFormat,
        declared: ObjectType,
        dict: Option<Arc<FieldNameDictionary>>,
    ) -> Self {
        let declared_kind = Arc::new(TypeKind::Object(declared.clone()));
        RecordDecoder { format, declared: Arc::new(declared), declared_kind, dict }
    }

    pub fn format(&self) -> StorageFormat {
        self.format
    }

    /// A copy of this decoder with a different dictionary snapshot — `Arc`
    /// clones only. Datasets keep one template decoder and stamp the
    /// current dictionary onto it per lookup, so the hot path never
    /// deep-clones the declared type.
    pub fn with_dict(&self, dict: Option<Arc<FieldNameDictionary>>) -> Self {
        RecordDecoder { dict, ..self.clone() }
    }

    pub fn declared(&self) -> &ObjectType {
        &self.declared
    }

    /// Materialize a stored record.
    pub fn materialize(&self, bytes: &[u8]) -> Result<Value, AdmError> {
        match self.format {
            StorageFormat::Open | StorageFormat::Closed => {
                tc_adm::adm_format::decode_record(bytes, Some(&self.declared))
            }
            StorageFormat::Inferred
            | StorageFormat::VectorUncompacted
            | StorageFormat::Columnar => {
                tc_vector::decode(bytes, Some(&self.declared), self.dict.as_deref())
            }
        }
    }

    /// A reusable evaluator for a *fixed* path set, the scan primitive of
    /// both query engines: [`PathBatch::append`] evaluates every path
    /// against one stored record and pushes one value per path into
    /// caller-owned column buffers.
    ///
    /// * ADM formats navigate per path through offset tables (constant-ish
    ///   per level — §3.3.1's "logarithmic time" contrast).
    /// * Vector formats answer all paths in **one linear scan**
    ///   (`getValues`, §3.4.2); the per-record scratch (compiled paths,
    ///   accumulators, the walk's frame and state stacks) is allocated once
    ///   here and reused across every record.
    pub fn batch(&self, paths: &[Path]) -> PathBatch {
        let backend = match self.format {
            StorageFormat::Open | StorageFormat::Closed => BatchBackend::Adm,
            StorageFormat::Inferred
            | StorageFormat::VectorUncompacted
            | StorageFormat::Columnar => {
                BatchBackend::Vector(Box::new(tc_vector::BatchPathEvaluator::new(paths)))
            }
        };
        PathBatch { decoder: self.clone(), paths: paths.to_vec(), backend }
    }
}

enum BatchBackend {
    /// ADM formats: a fresh cursor per record (offset-table navigation has
    /// no cross-record scratch worth keeping).
    Adm,
    /// Vector formats: one linear scan per record through a reusable
    /// `getValues` evaluator.
    Vector(Box<tc_vector::BatchPathEvaluator>),
}

/// Batch path evaluation over one dataset's stored records — see
/// [`RecordDecoder::batch`].
pub struct PathBatch {
    decoder: RecordDecoder,
    paths: Vec<Path>,
    backend: BatchBackend,
}

impl PathBatch {
    /// Number of values appended per record (= number of paths).
    pub fn width(&self) -> usize {
        self.paths.len()
    }

    /// Evaluate every path against `bytes`, appending one value per path to
    /// the corresponding column. `columns.len()` must equal
    /// [`width`](Self::width). A vector record's one-wildcard matches that
    /// are all doubles go into the typed buffer of a column that takes one;
    /// ADM records always append `Value`s.
    pub fn append(&mut self, bytes: &[u8], columns: &mut [Column]) -> Result<(), AdmError> {
        debug_assert_eq!(columns.len(), self.paths.len());
        match &mut self.backend {
            BatchBackend::Adm => {
                let cursor = AdmCursor::new(bytes, Some(&self.decoder.declared_kind));
                for (p, col) in self.paths.iter().zip(columns.iter_mut()) {
                    col.push(cursor.get_path(p)?);
                }
                Ok(())
            }
            BatchBackend::Vector(eval) => eval.eval_columns(
                bytes,
                Some(&self.decoder.declared),
                self.decoder.dict.as_deref(),
                columns,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_adm::datatype::FieldDef;
    use tc_adm::path::{eval_path, parse_path};
    use tc_adm::{parse, TypeTag};
    use tc_schema::Schema;

    fn pk_type() -> ObjectType {
        ObjectType::open(vec![FieldDef {
            name: "id".into(),
            kind: TypeKind::Scalar(TypeTag::Int64),
            optional: false,
        }])
    }

    fn sample() -> Value {
        parse(r#"{"id": 7, "name": "Ann", "deps": [{"n": "Bob", "a": 6}, {"n": "Cat"}]}"#).unwrap()
    }

    #[test]
    fn adm_and_vector_decoders_agree() {
        let v = sample();
        let t = pk_type();
        let adm_bytes = tc_adm::adm_format::encode_record(&v, Some(&t)).unwrap();
        let raw = tc_vector::encode(&v, Some(&t));
        let mut schema = Schema::new();
        let compacted = tc_vector::infer_and_compact(&raw, &mut schema).unwrap();

        let adm = RecordDecoder::new(StorageFormat::Open, t.clone(), None);
        let slvb = RecordDecoder::new(StorageFormat::VectorUncompacted, t.clone(), None);
        let inf =
            RecordDecoder::new(StorageFormat::Inferred, t, Some(Arc::new(schema.dict().clone())));

        let paths: Vec<Path> = ["id", "name", "deps[*].n", "deps[0].a", "nope"]
            .iter()
            .map(|s| parse_path(s))
            .collect();
        for (d, bytes) in [(adm, &adm_bytes), (slvb, &raw), (inf, &compacted)] {
            let record = d.materialize(bytes).unwrap();
            assert_eq!(record, v, "{:?}", d.format());
            let expected: Vec<Value> = paths.iter().map(|p| eval_path(&record, p)).collect();
            assert_eq!(batch_values(&d, bytes, &paths), expected, "{:?}", d.format());
        }
    }

    /// One record's values for `paths`, through a fresh [`RecordDecoder::batch`].
    fn batch_values(d: &RecordDecoder, bytes: &[u8], paths: &[Path]) -> Vec<Value> {
        let mut batch = d.batch(paths);
        let mut cols = vec![Column::new(true); batch.width()];
        batch.append(bytes, &mut cols).unwrap();
        cols.iter_mut().map(|c| c.take(0)).collect()
    }

    #[test]
    fn batch_append_matches_eval_path() {
        let v = sample();
        let t = pk_type();
        let adm_bytes = tc_adm::adm_format::encode_record(&v, Some(&t)).unwrap();
        let raw = tc_vector::encode(&v, Some(&t));
        let mut schema = Schema::new();
        let compacted = tc_vector::infer_and_compact(&raw, &mut schema).unwrap();

        let paths: Vec<Path> =
            ["name", "deps[*].n", "nope"].iter().map(|s| parse_path(s)).collect();
        let cases: [(RecordDecoder, &[u8]); 3] = [
            (RecordDecoder::new(StorageFormat::Open, t.clone(), None), &adm_bytes),
            (RecordDecoder::new(StorageFormat::VectorUncompacted, t.clone(), None), &raw),
            (
                RecordDecoder::new(
                    StorageFormat::Inferred,
                    t,
                    Some(Arc::new(schema.dict().clone())),
                ),
                &compacted,
            ),
        ];
        for (d, bytes) in cases {
            let mut batch = d.batch(&paths);
            let mut cols = vec![Column::new(true); batch.width()];
            batch.append(bytes, &mut cols).unwrap();
            batch.append(bytes, &mut cols).unwrap();
            let record = d.materialize(bytes).unwrap();
            for (col, path) in cols.iter_mut().zip(&paths) {
                let got = [col.take(0), col.take(1)];
                assert_eq!(
                    got,
                    [eval_path(&record, path), eval_path(&record, path)],
                    "{:?}",
                    d.format()
                );
            }
        }
    }

    #[test]
    fn single_path_access() {
        let v = sample();
        let t = pk_type();
        let raw = tc_vector::encode(&v, Some(&t));
        let d = RecordDecoder::new(StorageFormat::VectorUncompacted, t, None);
        assert_eq!(batch_values(&d, &raw, &[parse_path("name")]), [Value::string("Ann")]);
    }

    #[test]
    fn decoder_is_cheap_to_clone_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let d = RecordDecoder::new(StorageFormat::Open, pk_type(), None);
        let d2 = d.clone();
        assert_send(&d2);
    }
}
