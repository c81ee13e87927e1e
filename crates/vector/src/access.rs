//! `getValues()` — evaluate many path expressions in one linear scan
//! (paper §3.4.2).
//!
//! Access into a vector-based record is linear in the number of tags, so
//! evaluating k field accesses naively costs k scans. The optimizer rewrites
//! them into a single `getValues(record, path…, path…)` call; this module is
//! that function. It streams the tag vector once, materializing only matched
//! subtrees, and short-circuits as soon as every non-wildcard path is
//! resolved (which is what makes access cost *position*-sensitive — Fig 22).

use tc_adm::path::{eval_path, Path, PathStep};
use tc_adm::{AdmError, ObjectType, TypeTag, Value};
use tc_schema::FieldNameDictionary;

use crate::reader::{FieldName, Item, VectorReader};

/// Evaluate `paths` against a vector-based record (compacted or not) in a
/// single scan. Returns one value per path, with [`eval_path`] semantics
/// (absent → `Missing`, wildcard → array of non-missing matches).
pub fn get_values(
    buf: &[u8],
    paths: &[Path],
    declared: Option<&ObjectType>,
    dict: Option<&FieldNameDictionary>,
) -> Result<Vec<Value>, AdmError> {
    let mut eval = BatchPathEvaluator::new(paths);
    eval.eval_record(buf, declared, dict)?;
    Ok(eval.accs.iter_mut().map(Acc::take_value).collect())
}

/// A `getValues` evaluator for a *fixed* path set, reusable across many
/// records. The per-path accumulators, the wildcard flags, and the active-
/// path template survive between records, so evaluating a batch of payloads
/// allocates nothing per record beyond the matched values themselves. This
/// is the batched query engine's scan primitive: one evaluator per column
/// set, driven once per payload, appending into caller-owned column buffers.
pub struct BatchPathEvaluator {
    paths: Vec<Path>,
    /// Indices of empty paths ("the whole record").
    whole: Vec<usize>,
    /// `(path, next-step, wildcards-crossed)` seeds for the root walk.
    active: Vec<(usize, usize, u8)>,
    accs: Vec<Acc>,
}

impl BatchPathEvaluator {
    pub fn new(paths: &[Path]) -> Self {
        let accs = paths
            .iter()
            .map(|p| Acc {
                collected: Vec::new(),
                has_wildcard: p.iter().any(|s| matches!(s, PathStep::Wildcard)),
                resolved: false,
            })
            .collect();
        let whole: Vec<usize> =
            paths.iter().enumerate().filter(|(_, p)| p.is_empty()).map(|(i, _)| i).collect();
        let active: Vec<(usize, usize, u8)> = paths
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, _)| (i, 0usize, 0u8))
            .collect();
        BatchPathEvaluator { paths: paths.to_vec(), whole, active, accs }
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
        self.eval_record(buf, declared, dict)?;
        for (acc, col) in self.accs.iter_mut().zip(columns.iter_mut()) {
            col.push(acc.take_value());
        }
        Ok(())
    }

    /// One linear scan of `buf`, leaving the results in `self.accs`.
    fn eval_record(
        &mut self,
        buf: &[u8],
        declared: Option<&ObjectType>,
        dict: Option<&FieldNameDictionary>,
    ) -> Result<(), AdmError> {
        for acc in &mut self.accs {
            acc.collected.clear();
            acc.resolved = false;
        }

        // Empty paths mean "the whole record": decoded once, moved into the
        // last such path and cloned only for the others.
        if let Some((&last, others)) = self.whole.split_last() {
            let v = crate::reader::decode(buf, declared, dict)?;
            for &i in others {
                self.accs[i].collected.push(v.clone());
                self.accs[i].resolved = true;
            }
            self.accs[last].collected.push(v);
            self.accs[last].resolved = true;
        }

        let pending = self.accs.iter().filter(|a| !a.resolved && !a.has_wildcard).count();
        let any_wildcard = self.accs.iter().any(|a| a.has_wildcard && !a.resolved);

        if pending > 0 || any_wildcard {
            let mut reader = VectorReader::new(buf)?;
            match reader.next()? {
                Item::Begin { tag: TypeTag::Object, .. } => {}
                _ => return Err(AdmError::corrupt("record root must be an object")),
            }
            let BatchPathEvaluator { paths, active, accs, .. } = self;
            let mut ctx = Ctx { paths: paths.as_slice(), declared, dict, out: accs, pending };
            walk(&mut reader, TypeTag::Object, active.as_slice(), &mut ctx)?;
        }
        Ok(())
    }
}

struct Acc {
    collected: Vec<Value>,
    has_wildcard: bool,
    resolved: bool,
}

impl Acc {
    /// Drain the accumulator into the record's value for this path.
    fn take_value(&mut self) -> Value {
        if self.has_wildcard {
            Value::Array(self.collected.drain(..).filter(|v| !v.is_missing()).collect())
        } else {
            self.collected.drain(..).next().unwrap_or(Value::Missing)
        }
    }
}

struct Ctx<'p, 'o> {
    paths: &'p [Path],
    declared: Option<&'p ObjectType>,
    dict: Option<&'p FieldNameDictionary>,
    out: &'o mut Vec<Acc>,
    /// Unresolved non-wildcard paths; scanning stops when it reaches zero
    /// and no wildcard path is still active.
    pending: usize,
}

impl Ctx<'_, '_> {
    fn collect(&mut self, path: usize, v: Value) {
        let acc = &mut self.out[path];
        acc.collected.push(v);
        if !acc.has_wildcard && !acc.resolved {
            acc.resolved = true;
            self.pending -= 1;
        }
    }
}

/// Does `step` match this child of a `parent_tag` container?
fn step_matches(
    step: &PathStep,
    parent_tag: TypeTag,
    name: &Option<FieldName<'_>>,
    item_index: usize,
    ctx: &Ctx<'_, '_>,
) -> Result<bool, AdmError> {
    Ok(match (parent_tag, step) {
        (TypeTag::Object, PathStep::Field(f)) => match name {
            Some(n) => n.resolve(ctx.declared, ctx.dict)? == f.as_str(),
            None => false,
        },
        (TypeTag::Array | TypeTag::Multiset, PathStep::Index(i)) => *i == item_index,
        (TypeTag::Array | TypeTag::Multiset, PathStep::Wildcard) => true,
        _ => false,
    })
}

/// Stream one container's children. `active` holds (path, next-step,
/// wildcards-crossed) tuples that are alive inside this container.
fn walk(
    reader: &mut VectorReader<'_>,
    container_tag: TypeTag,
    active: &[(usize, usize, u8)],
    ctx: &mut Ctx<'_, '_>,
) -> Result<(), AdmError> {
    let mut item_index = 0usize;
    loop {
        // Early exit: nothing left to find anywhere in the record.
        if ctx.pending == 0 && !ctx.out.iter().any(|a| a.has_wildcard && !a.resolved) {
            return Ok(());
        }
        match reader.next()? {
            Item::Close => return Ok(()),
            Item::Eov => return Err(AdmError::corrupt("EOV inside container")),
            Item::Scalar { value, name } => {
                for &(p, s, _) in active {
                    if step_matches(&ctx.paths[p][s], container_tag, &name, item_index, ctx)?
                        && s + 1 == ctx.paths[p].len()
                    {
                        ctx.collect(p, value.clone());
                    }
                    // A scalar can't satisfy deeper steps: missing.
                }
                item_index += 1;
            }
            Item::Begin { tag, name } => {
                let mut completed: Vec<usize> = Vec::new();
                let mut continuing: Vec<(usize, usize, u8)> = Vec::new();
                let mut needs_materialize = false;
                for &(p, s, w) in active {
                    let step = &ctx.paths[p][s];
                    if step_matches(step, container_tag, &name, item_index, ctx)? {
                        let crossed = w + matches!(step, PathStep::Wildcard) as u8;
                        if s + 1 == ctx.paths[p].len() {
                            completed.push(p);
                            needs_materialize = true;
                        } else {
                            // A second wildcard needs eval_path's nested
                            // aggregation; resolve it from a materialized
                            // subtree.
                            if crossed > 1 {
                                needs_materialize = true;
                            }
                            continuing.push((p, s + 1, crossed));
                        }
                    }
                }
                if needs_materialize {
                    let sub = reader.materialize_container(tag, None, ctx.dict)?;
                    for (p, s, _) in continuing {
                        let v = eval_path(&sub, &ctx.paths[p][s..]);
                        if !v.is_missing() || !ctx.out[p].has_wildcard {
                            ctx.collect(p, v);
                        }
                    }
                    if let Some((&last, others)) = completed.split_last() {
                        for &p in others {
                            ctx.collect(p, sub.clone());
                        }
                        ctx.collect(last, sub);
                    }
                } else if !continuing.is_empty() {
                    walk(reader, tag, &continuing, ctx)?;
                } else {
                    reader.skip_container()?;
                }
                item_index += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
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
