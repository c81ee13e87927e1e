//! Property test: the batched scan engine and the row-at-a-time engine are
//! observationally identical — same rows, same order, same scan counters
//! (rows scanned, and units the zone maps let the scan skip) —
//! across random data, random plan shapes, random partitioning, and random
//! batch sizes (including sizes that split partitions mid-batch). Serial
//! and parallel execution are held to the same standard. Partitions are
//! flushed row-layout datasets, columnar ones at rest — one merged
//! component, where the batched engine takes the zero-pivot scan — or
//! columnar ones caught mid-ingest — unmerged components, stale versions,
//! anti-matter and a resident memtable — where the batched engine reads
//! column pages and the row engine assembled records. A group-by under an
//! unnest folds each collection at once, from a typed buffer or from
//! `Value`s; both folds are held to the plan that pushes a row per item.
//! The last property holds the planner's rewrites to the same standard: each
//! Twitter and Sensors Appendix A text, compiled with and without them.

use proptest::prelude::*;
use std::sync::Arc;

use asterix_tc::prelude::*;
use tc_query::agg::{Agg, AggFn};
use tc_query::exec::{execute, ExecOptions};
use tc_query::{AccessStrategy, CmpOp, Expr, Op, Query, QueryOptions, ScanSpec};

/// One generated record; `id` is assigned sequentially at insert time so
/// primary keys never collide.
#[derive(Debug, Clone)]
struct Rec {
    a: Option<Value>,
    b: Option<String>,
    c: Vec<i64>,
    e: Option<i64>,
    g: Vec<i64>,
    /// `h[*].t`: all doubles (a typed buffer), or all bigints or a mix with
    /// nulls, strings and items without `t` (`Value` arrays).
    h: Vec<Option<Value>>,
}

impl Rec {
    fn to_value(&self, id: i64) -> Value {
        let mut fields = vec![("id".to_string(), Value::Int64(id))];
        if let Some(a) = &self.a {
            fields.push(("a".to_string(), a.clone()));
        }
        if let Some(b) = &self.b {
            fields.push(("b".to_string(), Value::string(b.as_str())));
        }
        fields.push((
            "c".to_string(),
            Value::Array(self.c.iter().map(|&v| Value::Int64(v)).collect()),
        ));
        if let Some(e) = self.e {
            fields.push(("d".to_string(), Value::Object(vec![("e".to_string(), Value::Int64(e))])));
        }
        let item = |&v: &i64| Value::Object(vec![("b".to_string(), Value::Int64(v))]);
        fields.push(("g".to_string(), Value::Array(self.g.iter().map(item).collect())));
        let t = |t: &Option<Value>| {
            Value::Object(t.iter().map(|t| ("t".to_string(), t.clone())).collect())
        };
        fields.push(("h".to_string(), Value::Array(self.h.iter().map(t).collect())));
        Value::Object(fields)
    }
}

/// `proptest::option::of` replacement for the vendored shim.
fn opt<S>(s: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

fn arb_rec() -> impl Strategy<Value = Rec> {
    (
        opt(prop_oneof![
            (0i64..25).prop_map(Value::Int64),
            "[a-c]{1,3}".prop_map(Value::String),
            Just(Value::Null),
        ]),
        opt("[rgb]"),
        proptest::collection::vec(0i64..10, 0..4),
        opt(0i64..5),
        (proptest::collection::vec(0i64..10, 0..3), arb_h()),
    )
        .prop_map(|(a, b, c, e, (g, h))| Rec { a, b, c, e, g, h })
}

/// `h`'s items: in a third of the records every `t` is a double, in a third
/// a bigint, and the rest mix them with nulls, strings and absent `t`s.
fn arb_h() -> impl Strategy<Value = Vec<Option<Value>>> {
    let double = || (-1e3f64..1e3).prop_map(Value::Double);
    let bigint = || (-1000i64..1000).prop_map(Value::Int64);
    let mixed = prop_oneof![
        double().prop_map(Some),
        bigint().prop_map(Some),
        Just(Some(Value::Null)),
        "[a-c]{1,2}".prop_map(|s| Some(Value::String(s))),
        Just(None),
    ];
    prop_oneof![
        proptest::collection::vec(double().prop_map(Some), 0..6),
        proptest::collection::vec(bigint().prop_map(Some), 0..6),
        proptest::collection::vec(mixed, 0..6),
    ]
}

/// Parameterized plan templates covering the batched engine's code paths:
/// typed and generic scan-filter conjuncts, lazy early columns, late paths,
/// per-path access, projections with LIMIT, computed DISTINCT, order-by,
/// two-phase group-by, unnest, and a `LIMIT` behind a scan filter or an
/// unnest (each scan stops at the record that fills it) — plus the two
/// shapes that decide how a columnar component is read: a whole-record path
/// (rows are assembled) and a mix of typed columns (`id`, `d.e`), a residual
/// path (`g[*].b`) and a field whose type varies by record (`a`: a union in
/// the residual, a nullable column or a spilled one, as each component's
/// schema has it).
#[derive(Debug, Clone)]
enum Shape {
    FilterTyped { lt: i64, late: bool, per_path: bool },
    FilterGeneric { needle: String, typed_too: Option<i64> },
    ProjectLimit { k: usize },
    DistinctExpr,
    OrderBy { desc: bool, limit: Option<usize> },
    GroupBy,
    Unnest,
    WholeRecord { lt: Option<i64> },
    MixedPaths { ge: i64, late: bool },
    FilterLimit { ge: i64, k: usize },
    UnnestLimit { k: usize },
    UnnestAgg { keyless: bool },
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0i64..30, any::<bool>(), any::<bool>())
            .prop_map(|(lt, late, per_path)| Shape::FilterTyped { lt, late, per_path }),
        ("[rgb]", opt(0i64..25))
            .prop_map(|(needle, typed_too)| Shape::FilterGeneric { needle, typed_too }),
        (0usize..40).prop_map(|k| Shape::ProjectLimit { k }),
        Just(Shape::DistinctExpr),
        (any::<bool>(), opt(1usize..10)).prop_map(|(desc, limit)| Shape::OrderBy { desc, limit }),
        Just(Shape::GroupBy),
        Just(Shape::Unnest),
        opt(0i64..60).prop_map(|lt| Shape::WholeRecord { lt }),
        (0i64..5, any::<bool>()).prop_map(|(ge, late)| Shape::MixedPaths { ge, late }),
        (0i64..40, 0usize..20).prop_map(|(ge, k)| Shape::FilterLimit { ge, k }),
        (0usize..20).prop_map(|k| Shape::UnnestLimit { k }),
        any::<bool>().prop_map(|keyless| Shape::UnnestAgg { keyless }),
    ]
}

fn build_query(shape: &Shape) -> Query {
    let path = tc_adm::path::parse_path;
    match shape {
        Shape::FilterTyped { lt, late, per_path } => Query {
            scan: ScanSpec {
                paths: vec![path("id"), path("a")],
                filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(*lt))),
                late_paths: if *late { vec![path("b")] } else { vec![] },
                access: if *per_path {
                    AccessStrategy::PerPath
                } else {
                    AccessStrategy::Consolidated
                },
            },
            ops: vec![],
        },
        Shape::FilterGeneric { needle, typed_too } => {
            let eq_b = Expr::eq(Expr::col(0), Expr::lit(needle.as_str()));
            let filter = match typed_too {
                // Mixed conjuncts: one generic (string eq), one typed (i64),
                // exercising both refinement paths on the same batch.
                Some(lt) => Expr::and(eq_b, Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(*lt))),
                None => eq_b,
            };
            Query {
                scan: ScanSpec {
                    paths: vec![path("b"), path("a"), path("id")],
                    filter: Some(filter),
                    late_paths: vec![],
                    access: AccessStrategy::Consolidated,
                },
                ops: vec![],
            }
        }
        Shape::ProjectLimit { k } => Query {
            scan: ScanSpec::all_early(vec![path("id"), path("a")], AccessStrategy::Consolidated),
            ops: vec![Op::Project(vec![Expr::col(1), Expr::col(0)]), Op::Limit(*k)],
        },
        Shape::DistinctExpr => Query {
            scan: ScanSpec::all_early(vec![path("d")], AccessStrategy::Consolidated),
            ops: vec![
                Op::Distinct(vec![Expr::path(0, "e")]),
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        },
        Shape::OrderBy { desc, limit } => Query {
            scan: ScanSpec::all_early(vec![path("id"), path("b")], AccessStrategy::Consolidated),
            ops: vec![Op::OrderBy { keys: vec![(Expr::col(0), *desc)], limit: *limit }],
        },
        Shape::GroupBy => Query {
            scan: ScanSpec::all_early(vec![path("b"), path("a")], AccessStrategy::Consolidated),
            ops: vec![
                Op::GroupBy {
                    keys: vec![Expr::col(0)],
                    aggs: vec![Agg::count_star(), Agg::of(AggFn::Sum, Expr::col(1))],
                },
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        },
        Shape::Unnest => Query {
            scan: ScanSpec::all_early(vec![path("c")], AccessStrategy::Consolidated),
            ops: vec![
                Op::Unnest(Expr::col(0)),
                Op::GroupBy { keys: vec![Expr::col(1)], aggs: vec![Agg::count_star()] },
                Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
            ],
        },
        Shape::WholeRecord { lt } => Query {
            scan: ScanSpec {
                paths: vec![path("id"), vec![]],
                filter: lt.map(|lt| Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(lt))),
                late_paths: vec![],
                access: AccessStrategy::Consolidated,
            },
            ops: vec![],
        },
        Shape::MixedPaths { ge, late } => {
            let (early, late_paths) = if *late {
                (vec![path("d.e")], vec![path("id"), path("g[*].b"), path("a")])
            } else {
                (vec![path("d.e"), path("id"), path("g[*].b"), path("a")], vec![])
            };
            Query {
                scan: ScanSpec {
                    paths: early,
                    filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(*ge))),
                    late_paths,
                    access: AccessStrategy::Consolidated,
                },
                ops: vec![],
            }
        }
        Shape::FilterLimit { ge, k } => Query {
            scan: ScanSpec {
                paths: vec![path("id"), path("a")],
                filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(*ge))),
                late_paths: vec![],
                access: AccessStrategy::Consolidated,
            },
            ops: vec![Op::Limit(*k)],
        },
        Shape::UnnestLimit { k } => Query {
            scan: ScanSpec::all_early(vec![path("id"), path("c")], AccessStrategy::Consolidated),
            ops: vec![Op::Unnest(Expr::col(1)), Op::Limit(*k)],
        },
        // Sensors Q3's shape (Q1's and Q2's without a key): a group-by
        // right under an unnest of `h[*].t`.
        Shape::UnnestAgg { keyless } => {
            let item = || Expr::col(2);
            let aggs = vec![
                Agg::of(AggFn::Avg, item()),
                Agg::of(AggFn::Sum, item()),
                Agg::of(AggFn::Min, item()),
                Agg::of(AggFn::Max, item()),
                Agg::count_star(),
            ];
            let keys = if *keyless { vec![] } else { vec![Expr::col(0)] };
            Query {
                scan: ScanSpec::all_early(vec![path("b"), path("h[*].t")], {
                    AccessStrategy::Consolidated
                }),
                ops: vec![
                    Op::Unnest(Expr::col(1)),
                    Op::GroupBy { keys, aggs },
                    Op::OrderBy { keys: vec![(Expr::col(0), false)], limit: None },
                ],
            }
        }
    }
}

fn datasets(partitions: usize, format: StorageFormat, memtable_budget: usize) -> Vec<Dataset> {
    let cache = Arc::new(BufferCache::new(4096));
    (0..partitions)
        .map(|_| {
            Dataset::new(
                DatasetConfig::new("P", "id")
                    .with_format(format)
                    .with_memtable_budget(memtable_budget)
                    .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                Arc::new(Device::new(DeviceProfile::RAM)),
                Arc::clone(&cache),
            )
        })
        .collect()
}

fn load(recs: &[Rec], partitions: usize, format: StorageFormat) -> Vec<Dataset> {
    let out = datasets(partitions, format, 16 * 1024);
    for (i, rec) in recs.iter().enumerate() {
        out[i % partitions].writer().insert(&rec.to_value(i as i64)).unwrap();
    }
    for ds in &out {
        ds.flush().unwrap();
    }
    out
}

/// Columnar partitions as they are during ingest. Every partition ends with
/// at least three unmerged components (two flushes of inserts, one of
/// upserts and deletes), stale versions and deleted rows under newer
/// components' keys, and upserts plus anti-matter still in the memtable.
fn load_live(recs: &[Rec], partitions: usize) -> Vec<Dataset> {
    let out = datasets(partitions, StorageFormat::Columnar, 256 * 1024);
    let n = recs.len();
    let flush_all = || out.iter().for_each(|ds| ds.flush().unwrap());
    let insert = |ids: std::ops::Range<usize>| {
        for i in ids {
            out[i % partitions].writer().insert(&recs[i].to_value(i as i64)).unwrap();
        }
    };
    // Version `round` of record `i` is another record's content under id
    // `i`; ids the first round of deletes took stay deleted.
    let rewrite = |modulus: usize, round: usize| {
        for i in (0..n).filter(|i| i % modulus == 0 && i % 5 != 4) {
            let newer = recs[(i + round) % n].to_value(i as i64);
            out[i % partitions].writer().upsert(&newer).unwrap();
        }
    };
    let delete = |modulus: usize| {
        for i in (0..n).filter(|i| i % modulus == modulus - 1) {
            out[i % partitions].writer().delete(i as i64).unwrap();
        }
    };
    insert(0..n / 2);
    flush_all();
    insert(n / 2..n);
    flush_all();
    rewrite(3, 1);
    delete(5);
    flush_all();
    rewrite(4, 2);
    delete(7);
    for ds in &out {
        let components = ds.primary().components();
        assert!(components.len() >= 3, "unmerged components");
        assert!(ds.primary().memtable_len() > 0, "resident memtable");
        assert!(components.iter().any(|c| c.num_antimatter() > 0), "anti-matter on disk");
        assert!(components.iter().all(|c| c.is_columnar()));
    }
    out
}

/// Every engine × execution mode returns the reference rows and scan count.
fn assert_all_agree(ds: &[Dataset], shape: &Shape, batch_size: usize) {
    let refs: Vec<&Dataset> = ds.iter().collect();
    let q = build_query(shape);
    let reference = execute(
        &refs,
        &q,
        &ExecOptions { engine: Engine::Row, parallel: false, ..Default::default() },
    )
    .unwrap();
    for engine in [Engine::Batched, Engine::Row] {
        for parallel in [false, true] {
            let opts = ExecOptions { engine, parallel, batch_size, ..Default::default() };
            let got = execute(&refs, &q, &opts).unwrap();
            assert_eq!(
                reference.rows, got.rows,
                "{engine:?}/parallel={parallel} on {shape:?} (batch={batch_size})"
            );
            // Bit for bit: a double's sign of zero and its last bit too.
            assert_eq!(
                format!("{:?}", reference.rows),
                format!("{:?}", got.rows),
                "{engine:?}/parallel={parallel} on {shape:?} (batch={batch_size})"
            );
            assert_eq!(
                (reference.stats.rows_scanned, reference.stats.units_skipped),
                (got.stats.rows_scanned, got.stats.units_skipped),
                "scan counters: {engine:?}/parallel={parallel} on {shape:?}"
            );
        }
    }
}

/// Both unnest-aggregate shapes on `ds`: every engine agrees (see
/// [`assert_all_agree`]), and the fold — typed or of `Value`s — equals, bit
/// for bit, the plan that pushes a row per item to the group-by (a filter
/// that keeps every row sits between them).
fn assert_folds_agree(ds: &[Dataset], batch_size: usize) {
    let refs: Vec<&Dataset> = ds.iter().collect();
    for keyless in [false, true] {
        let shape = Shape::UnnestAgg { keyless };
        assert_all_agree(ds, &shape, batch_size);
        let q = build_query(&shape);
        let mut per_item = q.clone();
        per_item.ops.insert(1, Op::Filter(Expr::lit(true)));
        let serial =
            |engine| ExecOptions { engine, parallel: false, batch_size, ..Default::default() };
        let reference = execute(&refs, &per_item, &serial(Engine::Row)).unwrap();
        for engine in [Engine::Batched, Engine::Row] {
            let got = execute(&refs, &q, &serial(engine)).unwrap();
            assert_eq!(
                format!("{:?}", reference.rows),
                format!("{:?}", got.rows),
                "{engine:?} fold vs a row per item on {shape:?} (batch={batch_size})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_row_serial_parallel_all_agree(
        recs in proptest::collection::vec(arb_rec(), 0..80),
        partitions in 1usize..4,
        shape in arb_shape(),
        batch_size in 1usize..64,
        inferred in any::<bool>(),
    ) {
        let format = if inferred { StorageFormat::Inferred } else { StorageFormat::Open };
        assert_all_agree(&load(&recs, partitions, format), &shape, batch_size);
    }

    #[test]
    fn batched_row_serial_parallel_all_agree_at_rest_columnar(
        recs in proptest::collection::vec(arb_rec(), 0..80),
        partitions in 1usize..4,
        shape in arb_shape(),
        batch_size in 1usize..64,
    ) {
        let ds = load(&recs, partitions, StorageFormat::Columnar);
        for (p, ds) in ds.iter().enumerate() {
            ds.force_full_merge().unwrap();
            if p < recs.len() {
                prop_assert!(ds.snapshot_columnar().is_some(), "partition {} at rest", p);
            }
        }
        assert_all_agree(&ds, &shape, batch_size);
    }

    #[test]
    fn batched_row_serial_parallel_all_agree_on_live_columnar(
        recs in proptest::collection::vec(arb_rec(), 30..90),
        partitions in 1usize..3,
        shape in arb_shape(),
        batch_size in 1usize..64,
    ) {
        let ds = load_live(&recs, partitions);
        // The scans below see every live row exactly once.
        let n = recs.len();
        let live = (0..n).filter(|i| i % 5 != 4 && i % 7 != 6).count() as u64;
        let count = execute(
            &ds.iter().collect::<Vec<_>>(),
            &Query { scan: ScanSpec::all_early(vec![], AccessStrategy::Consolidated), ops: vec![] },
            &ExecOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(count.stats.rows_scanned, live);
        assert_all_agree(&ds, &shape, batch_size);
    }

    /// The group-by under an unnest folds typed buffers and `Value`s alike,
    /// on each of the four loaders: one batch holds records whose `h[*].t`
    /// fills a typed buffer and records that demote to `Value`s.
    #[test]
    fn typed_and_value_folds_agree(
        recs in proptest::collection::vec(arb_rec(), 30..90),
        partitions in 1usize..3,
        batch_size in 1usize..64,
    ) {
        for format in [StorageFormat::Open, StorageFormat::Inferred] {
            assert_folds_agree(&load(&recs, partitions, format), batch_size);
        }
        let at_rest = load(&recs, partitions, StorageFormat::Columnar);
        for ds in &at_rest {
            ds.force_full_merge().unwrap();
        }
        assert_folds_agree(&at_rest, batch_size);
        assert_folds_agree(&load_live(&recs, partitions), batch_size);
    }
}

/// A record for the Appendix A texts of Twitter and Sensors, without its
/// `id`. Its collections are heterogeneous: items lack the field a query
/// reads or are no objects at all, a collection is a multiset or no
/// collection, a `temp` is a string and a `text` a number.
fn arb_paper_rec() -> impl Strategy<Value = Vec<(String, Value)>> {
    let temp = prop_oneof![
        3 => (-50.0f64..50.0).prop_map(Value::Double),
        1 => "[a-c]".prop_map(Value::String),
    ];
    let tag = prop_oneof![
        Just(Value::string("JOBS")),
        Just(Value::string("jobs")),
        "[a-c]".prop_map(Value::String),
        (0i64..3).prop_map(Value::Int64),
    ];
    let text = prop_oneof!["[a-c]{0,6}".prop_map(Value::String), (0i64..9).prop_map(Value::Int64)];
    (
        (0i64..6, 0i64..40, arb_collection(arb_item("temp", temp.boxed()))),
        ("[uvw]", text, arb_collection(arb_item("text", tag.boxed())), 0i64..20),
    )
        .prop_map(|((sensor, time, readings), (user, text, hashtags, ts))| {
            let object = |f: &[(&str, Value)]| {
                Value::Object(f.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
            };
            vec![
                ("sensor_id".to_string(), Value::Int64(sensor)),
                ("report_time".to_string(), Value::Int64(time)),
                ("readings".to_string(), readings),
                ("user".to_string(), object(&[("name", Value::String(user))])),
                ("text".to_string(), text),
                ("entities".to_string(), object(&[("hashtags", hashtags)])),
                ("timestamp_ms".to_string(), Value::Int64(ts)),
            ]
        })
}

/// An object holding `field`, an object without it, or no object.
fn arb_item(field: &'static str, value: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    prop_oneof![
        3 => value.prop_map(move |v| Value::Object(vec![(field.to_string(), v)])),
        1 => Just(Value::Object(vec![("other".to_string(), Value::Int64(1))])),
        1 => (0i64..3).prop_map(Value::Int64),
    ]
    .boxed()
}

/// An array or a multiset of `item`s, or a value that is no collection.
fn arb_collection(item: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    prop_oneof![
        4 => proptest::collection::vec(item.clone(), 0..5).prop_map(Value::Array),
        1 => proptest::collection::vec(item, 0..5).prop_map(Value::Multiset),
        1 => Just(Value::Int64(5)),
        1 => Just(Value::Object(vec![("temp".to_string(), Value::Double(1.0))])),
    ]
    .boxed()
}

fn load_paper(
    recs: &[Vec<(String, Value)>],
    partitions: usize,
    format: StorageFormat,
) -> Vec<Dataset> {
    let out = datasets(partitions, format, 16 * 1024);
    for (i, fields) in recs.iter().enumerate() {
        let mut fields = fields.clone();
        fields.insert(0, ("id".to_string(), Value::Int64(i as i64)));
        out[i % partitions].writer().insert(&Value::Object(fields)).unwrap();
    }
    for ds in &out {
        ds.flush().unwrap();
        if format == StorageFormat::Columnar {
            ds.force_full_merge().unwrap();
        }
    }
    out
}

/// A paper query's builder.
type Build = Box<dyn Fn(QueryOptions) -> Query>;

/// Each Appendix A text of Twitter and Sensors, compiled with the planner's
/// rewrites (`QueryOptions::default()`) and without (`unoptimized()`),
/// answers alike on both engines; the reference is the row engine's
/// unrewritten plan.
///
/// Sensors Q3 and Q4 group by `sensor_id` over the unnest of `readings`,
/// and the rewrite unnests `readings[*].temp` instead. A sensor whose
/// readings all lack `temp` then makes no group, where the unrewritten plan
/// makes one with a null average: that is the one difference allowed, and
/// it is asserted as exactly that.
fn assert_rewrites_keep_answers(ds: &[Dataset], lo: i64, hi: i64) {
    use tc_query::paper_queries as pq;
    let refs: Vec<&Dataset> = ds.iter().collect();
    let exact: [(&str, Build); 6] = [
        ("twitter_q1", Box::new(pq::twitter_q1)),
        ("twitter_q2", Box::new(pq::twitter_q2)),
        ("twitter_q3", Box::new(pq::twitter_q3)),
        ("twitter_q4", Box::new(pq::twitter_q4)),
        ("sensors_q1", Box::new(pq::sensors_q1)),
        ("sensors_q2", Box::new(pq::sensors_q2)),
    ];
    let grouped: [(&str, Build); 2] = [
        ("sensors_q3", Box::new(pq::sensors_q3)),
        ("sensors_q4", Box::new(move |opts| pq::sensors_q4_scanfilter(opts, lo, hi))),
    ];
    let run = |q: &Query, engine| {
        let opts = ExecOptions { engine, parallel: false, ..Default::default() };
        execute(&refs, q, &opts).unwrap().rows
    };
    for (name, build) in exact {
        let reference = run(&build(QueryOptions::unoptimized()), Engine::Row);
        for engine in [Engine::Batched, Engine::Row] {
            for opts in [QueryOptions::default(), QueryOptions::unoptimized()] {
                let got = run(&build(opts), engine);
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{got:?}"),
                    "{name} {opts:?} on {engine:?}"
                );
            }
        }
    }
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    for (name, build) in grouped {
        let reference = sorted(run(&build(QueryOptions::unoptimized()), Engine::Row));
        for engine in [Engine::Batched, Engine::Row] {
            let unrewritten = sorted(run(&build(QueryOptions::unoptimized()), engine));
            assert_eq!(reference, unrewritten, "{name} unoptimized on {engine:?}");
            let rewritten = sorted(run(&build(QueryOptions::default()), engine));
            let (kept, dropped): (Vec<_>, Vec<_>) =
                reference.iter().cloned().partition(|r| rewritten.contains(r));
            assert_eq!(kept, rewritten, "{name} on {engine:?}");
            for row in dropped {
                let temp_less = row[1] == Value::Null && rewritten.iter().all(|r| r[0] != row[0]);
                assert!(temp_less, "{name} on {engine:?} drops {row:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn paper_query_rewrites_keep_answers(
        recs in proptest::collection::vec(arb_paper_rec(), 0..40),
        partitions in 1usize..3,
        lo in 0i64..40,
        len in 0i64..40,
    ) {
        for format in [StorageFormat::Open, StorageFormat::Inferred, StorageFormat::Columnar] {
            assert_rewrites_keep_answers(&load_paper(&recs, partitions, format), lo, lo + len);
        }
    }
}
