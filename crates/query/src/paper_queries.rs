//! The paper's evaluation queries (Appendix A), each written once as SQL++
//! text and compiled by [`sqlpp`](crate::sqlpp).
//!
//! [`QueryOptions`] picks the plan, through the planner's rules alone: by
//! default the accesses are consolidated and pushed into the scan, through
//! `SOME … SATISFIES` and through a correlated unnest read one field deep
//! under aggregates (Sensors Q2–Q4, not Q1's `count(*)`);
//! [`QueryOptions::unoptimized`] is Fig 23's "Inferred (un-op)"
//! configuration (per-path accesses, whole objects scanned, and the paths a
//! scan filter does not read delayed until after it). WoS Q3 and Q4 bind
//! `LET` variables, which the grammar lacks, and stay hand-built plans.

use tc_adm::path::parse_path;
use tc_adm::Value;

use crate::agg::Agg;
use crate::expr::{CmpOp, Expr, Func};
use crate::plan::{Op, Query, QueryOptions, ScanSpec};
use crate::sqlpp::compile_with;

/// Compile one of this module's texts.
#[expect(
    clippy::expect_used,
    reason = "the texts are fixed, but for the probe's field path, whose panic it documents; \
              `tests::every_text_compiles` compiles each under both options"
)]
fn compiled(text: &str, params: &[(&str, Value)], opts: QueryOptions) -> Query {
    compile_with(text, params, opts).expect("an Appendix A text compiles")
}

// ---------------------------------------------------------------------
// Twitter (Appendix A.1)
// ---------------------------------------------------------------------

const TWITTER_Q1: &str = "SELECT VALUE count(*) FROM Tweets t";

const TWITTER_Q2: &str = "
    SELECT uname, a
    FROM Tweets t
    GROUP BY t.user.name AS uname
    WITH a AS avg(length(t.text))
    ORDER BY a DESC
    LIMIT 10";

const TWITTER_Q3: &str = r#"
    SELECT uname, count(*) AS c
    FROM Tweets t
    WHERE (SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = "jobs")
    GROUP BY t.user.name AS uname
    ORDER BY c DESC
    LIMIT 10"#;

const TWITTER_Q4: &str = "SELECT VALUE t FROM Tweets t ORDER BY t.timestamp_ms";

/// Q1: the number of tweets.
pub fn twitter_q1(opts: QueryOptions) -> Query {
    compiled(TWITTER_Q1, &[], opts)
}

/// Q2: top ten users whose tweets' average length is largest.
pub fn twitter_q2(opts: QueryOptions) -> Query {
    compiled(TWITTER_Q2, &[], opts)
}

/// Q3: top ten users with the most tweets containing the hashtag "jobs".
/// Pushed down, the scan extracts only the hashtag texts, not the hashtag
/// objects (§4.4).
pub fn twitter_q3(opts: QueryOptions) -> Query {
    compiled(TWITTER_Q3, &[], opts)
}

/// Q4: every tweet, whole, ordered by `timestamp_ms`.
pub fn twitter_q4(opts: QueryOptions) -> Query {
    compiled(TWITTER_Q4, &[], opts)
}

// ---------------------------------------------------------------------
// Web of Science (Appendix A.2)
// ---------------------------------------------------------------------

const WOS_Q1: &str = "SELECT VALUE count(*) FROM Publications p";

const WOS_Q2: &str = r#"
    SELECT v, count(*) AS c
    FROM Publications p, p.static_data.fullrecord_metadata.category_info.subjects.subject s
    WHERE s.ascatype = "extended"
    GROUP BY s.value AS v
    ORDER BY c DESC
    LIMIT 10"#;

const WOS_COUNTRY: &str =
    "static_data.fullrecord_metadata.addresses.address_name[*].address_spec.country";

/// Q1: the number of publications.
pub fn wos_q1(opts: QueryOptions) -> Query {
    compiled(WOS_Q1, &[], opts)
}

/// Q2: publications per extended subject, descending.
pub fn wos_q2(opts: QueryOptions) -> Query {
    compiled(WOS_Q2, &[], opts)
}

/// Q3: top ten countries co-publishing with US institutions.
pub fn wos_q3(opts: QueryOptions) -> Query {
    Query {
        scan: ScanSpec::all_early(vec![parse_path(WOS_COUNTRY)], opts.access()),
        ops: vec![
            // countries := DISTINCT country per publication.
            Op::Project(vec![Expr::func(Func::ArrayDistinct, vec![Expr::col(0)])]),
            Op::Filter(Expr::and(
                Expr::cmp(
                    CmpOp::Gt,
                    Expr::func(Func::ArrayLen, vec![Expr::col(0)]),
                    Expr::lit(1i64),
                ),
                Expr::func(Func::ArrayContains, vec![Expr::col(0), Expr::lit("USA")]),
            )),
            Op::Unnest(Expr::col(0)),
            Op::Filter(Expr::cmp(CmpOp::Ne, Expr::col(1), Expr::lit("USA"))),
            Op::GroupBy { keys: vec![Expr::col(1)], aggs: vec![Agg::count_star()] },
            Op::OrderBy { keys: vec![(Expr::col(1), true)], limit: Some(10) },
        ],
    }
}

/// Q4: top ten country pairs by co-published articles.
pub fn wos_q4(opts: QueryOptions) -> Query {
    Query {
        scan: ScanSpec::all_early(vec![parse_path(WOS_COUNTRY)], opts.access()),
        ops: vec![
            Op::Project(vec![Expr::func(
                Func::ArraySort,
                vec![Expr::func(Func::ArrayDistinct, vec![Expr::col(0)])],
            )]),
            Op::Filter(Expr::cmp(
                CmpOp::Gt,
                Expr::func(Func::ArrayLen, vec![Expr::col(0)]),
                Expr::lit(1i64),
            )),
            Op::Project(vec![Expr::func(Func::ArrayPairs, vec![Expr::col(0)])]),
            Op::Unnest(Expr::col(0)),
            Op::GroupBy { keys: vec![Expr::col(1)], aggs: vec![Agg::count_star()] },
            Op::OrderBy { keys: vec![(Expr::col(1), true)], limit: Some(10) },
        ],
    }
}

// ---------------------------------------------------------------------
// Sensors (Appendix A.3)
// ---------------------------------------------------------------------

const SENSORS_Q1: &str = "SELECT VALUE count(*) FROM Sensors s, s.readings r";

const SENSORS_Q2: &str = "SELECT min(r.temp), max(r.temp) FROM Sensors s, s.readings r";

const SENSORS_Q3: &str = "
    SELECT sid, avg_temp
    FROM Sensors s, s.readings r
    GROUP BY s.sensor_id AS sid
    WITH avg_temp AS avg(r.temp)
    ORDER BY avg_temp DESC
    LIMIT 10";

const SENSORS_Q4: &str = "
    SELECT sid, avg_temp
    FROM Sensors s, s.readings r
    WHERE s.report_time >= $start AND s.report_time < $end
    GROUP BY s.sensor_id AS sid
    WITH avg_temp AS avg(r.temp)
    ORDER BY avg_temp DESC
    LIMIT 10";

/// Q1: the number of readings. It counts the unnest's rows, so no
/// pushdown reads `readings[*].temp` for it.
pub fn sensors_q1(opts: QueryOptions) -> Query {
    compiled(SENSORS_Q1, &[], opts)
}

/// Q2: min and max reading across all sensors.
pub fn sensors_q2(opts: QueryOptions) -> Query {
    compiled(SENSORS_Q2, &[], opts)
}

/// Q3: top ten sensors by average reading.
pub fn sensors_q3(opts: QueryOptions) -> Query {
    compiled(SENSORS_Q3, &[], opts)
}

/// Q4 over one literal day (the paper's phrasing). At bench scales prefer
/// [`sensors_q4_scanfilter`] with a window sized to the paper's selectivity.
pub fn sensors_q4(opts: QueryOptions, day_start: i64) -> Query {
    sensors_q4_scanfilter(opts, day_start, day_start + 24 * 60 * 60 * 1000)
}

/// Q4: Q3 restricted to the report-time window `[start, end)` — the paper's
/// highly selective predicate (0.001% of a 25M-record dataset; callers pick
/// the window to match that selectivity at their scale). The range runs in
/// the scan, so the batched engine decodes only `report_time` before the
/// selection vector is known. Unoptimized, `sensor_id` and the readings are
/// also extracted only after it, which is why un-op *wins* this query on
/// NVMe (§4.4.3).
pub fn sensors_q4_scanfilter(opts: QueryOptions, start: i64, end: i64) -> Query {
    compiled(SENSORS_Q4, &[("start", Value::Int64(start)), ("end", Value::Int64(end))], opts)
}

// ---------------------------------------------------------------------
// Fig 22: field-position probes
// ---------------------------------------------------------------------

/// Count records whose `position`-th field equals `needle` — the Fig 22
/// linear-access probe (positions 1/34/68/136).
///
/// # Panics
///
/// If `field_name` is not a SQL++ path (`a`, `a.b`, `a[0]`).
pub fn field_position_probe(field_name: &str, needle: &str, opts: QueryOptions) -> Query {
    let text = format!("SELECT VALUE count(*) FROM Wide w WHERE w.{field_name} = $needle");
    compiled(&text, &[("needle", Value::string(needle))], opts)
}

/// Convenience for result rows holding a single i64 (count queries).
pub fn single_i64(rows: &[Vec<Value>]) -> Option<i64> {
    rows.first().and_then(|r| r.first()).and_then(Value::as_i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use std::sync::Arc;
    use tc_datagen::{sensors::SensorsGen, twitter::TwitterGen, wos::WosGen, Generator};
    use tc_storage::device::{Device, DeviceProfile};
    use tc_storage::BufferCache;
    use tuple_compactor::{Dataset, DatasetConfig, StorageFormat};

    fn load<G: Generator>(gen: &mut G, n: usize, format: StorageFormat) -> Vec<Dataset> {
        load_with(gen, n, format, &[])
    }

    /// [`load`], and `extra` records after the generated ones.
    fn load_with<G: Generator>(
        gen: &mut G,
        n: usize,
        format: StorageFormat,
        extra: &[Value],
    ) -> Vec<Dataset> {
        let cache = Arc::new(BufferCache::new(8192));
        let mut parts: Vec<Dataset> = (0..2)
            .map(|_| {
                Dataset::new(
                    DatasetConfig::new(gen.name(), "id")
                        .with_format(format)
                        .with_memtable_budget(256 * 1024)
                        .with_merge_policy(tc_lsm::MergePolicy::NoMerge),
                    Arc::new(Device::new(DeviceProfile::RAM)),
                    Arc::clone(&cache),
                )
            })
            .collect();
        for i in 0..n {
            let r = gen.next_record();
            parts[i % 2].writer().insert(&r).unwrap();
        }
        for r in extra {
            parts[0].writer().insert(r).unwrap();
        }
        for p in &mut parts {
            p.flush().unwrap();
        }
        parts
    }

    /// Execute under every engine × parallelism combination, assert they
    /// all return identical rows, and hand back one copy. Every paper-query
    /// test therefore doubles as a batched-vs-row equivalence check.
    fn run(parts: &[Dataset], q: &Query) -> Vec<Vec<Value>> {
        use crate::exec::Engine;
        let refs: Vec<&Dataset> = parts.iter().collect();
        let reference = execute(&refs, q, &ExecOptions::default()).unwrap().rows;
        for engine in [Engine::Batched, Engine::Row] {
            for parallel in [false, true] {
                let opts = ExecOptions { engine, parallel, ..Default::default() };
                let rows = execute(&refs, q, &opts).unwrap().rows;
                assert_eq!(reference, rows, "{engine:?}/parallel={parallel}");
            }
        }
        reference
    }

    /// Every query must return identical results across storage formats and
    /// optimizer configurations — the formats change *where bytes live*,
    /// never answers.
    #[test]
    fn twitter_queries_agree_across_formats_and_opts() {
        let configs = [QueryOptions::default(), QueryOptions::unoptimized()];
        let mut reference: Option<Vec<Vec<Vec<Value>>>> = None;
        for format in
            [StorageFormat::Open, StorageFormat::Inferred, StorageFormat::VectorUncompacted]
        {
            let parts = load(&mut TwitterGen::new(77), 120, format);
            for opts in configs {
                let results = vec![
                    run(&parts, &twitter_q1(opts)),
                    run(&parts, &twitter_q2(opts)),
                    run(&parts, &twitter_q3(opts)),
                ];
                match &reference {
                    None => reference = Some(results),
                    Some(r) => assert_eq!(*r, results, "{format:?} {opts:?}"),
                }
            }
        }
        let r = reference.unwrap();
        assert_eq!(single_i64(&r[0]), Some(120));
        assert!(!r[2].is_empty(), "someone tweeted #jobs");
    }

    #[test]
    fn twitter_q4_orders_whole_records() {
        let parts = load(&mut TwitterGen::new(3), 60, StorageFormat::Inferred);
        let rows = run(&parts, &twitter_q4(QueryOptions::default()));
        assert_eq!(rows.len(), 60);
        let ts: Vec<i64> = rows
            .iter()
            .map(|r| r[0].get_field("timestamp_ms").unwrap().as_i64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted by timestamp");
        assert!(rows[0][0].get_field("user").is_some(), "full records");
    }

    #[test]
    fn wos_queries_run_and_agree() {
        let mut reference: Option<Vec<Vec<Vec<Value>>>> = None;
        for format in [StorageFormat::Open, StorageFormat::Inferred] {
            let parts = load(&mut WosGen::new(19), 150, format);
            for opts in [QueryOptions::default(), QueryOptions::unoptimized()] {
                let results = vec![
                    run(&parts, &wos_q1(opts)),
                    run(&parts, &wos_q2(opts)),
                    run(&parts, &wos_q3(opts)),
                    run(&parts, &wos_q4(opts)),
                ];
                match &reference {
                    None => reference = Some(results),
                    Some(r) => assert_eq!(*r, results, "{format:?} {opts:?}"),
                }
            }
        }
        let r = reference.unwrap();
        assert_eq!(single_i64(&r[0]), Some(150));
        assert!(!r[1].is_empty(), "extended subjects exist");
        assert!(!r[2].is_empty(), "US collaborations exist");
        assert!(!r[3].is_empty(), "country pairs exist");
        // Q4 pair keys are 2-element arrays.
        assert_eq!(r[3][0][0].as_items().unwrap().len(), 2);
    }

    #[test]
    fn sensors_queries_run_and_agree() {
        let mut reference: Option<Vec<Vec<Vec<Value>>>> = None;
        let day_start = 1_556_496_000_000i64;
        // Three readings: one without `temp`, one not an object at all.
        // `readings[*].temp` has one item for them; Q1 counts three.
        let odd = [Value::object([
            ("id", Value::Int64(1_000_000)),
            ("sensor_id", Value::Int64(999)),
            ("report_time", Value::Int64(day_start + 1_000)),
            (
                "readings",
                Value::Array(vec![
                    Value::object([("temp", Value::Double(21.5))]),
                    Value::object([("timestamp", Value::Int64(day_start))]),
                    Value::Int64(7),
                ]),
            ),
        ])];
        for format in [StorageFormat::Open, StorageFormat::Inferred, StorageFormat::Columnar] {
            let parts = load_with(&mut SensorsGen::new(5), 40, format, &odd);
            for opts in [QueryOptions::default(), QueryOptions::unoptimized()] {
                let day_end = day_start + 24 * 60 * 60 * 1000;
                let results = vec![
                    run(&parts, &sensors_q1(opts)),
                    run(&parts, &sensors_q2(opts)),
                    run(&parts, &sensors_q3(opts)),
                    run(&parts, &sensors_q4(opts, day_start)),
                    run(&parts, &sensors_q4_scanfilter(opts, day_start, day_end)),
                ];
                match &reference {
                    None => reference = Some(results),
                    Some(r) => assert_eq!(*r, results, "{format:?} {opts:?}"),
                }
            }
            if format == StorageFormat::Columnar {
                // One flush per partition: the suite ran the at-rest
                // column scan, typed filter loop included.
                let counters: Vec<_> =
                    parts.iter().map(|p| p.columnar_counters().unwrap()).collect();
                assert!(counters.iter().map(|c| c.pages_written()).sum::<u64>() > 0);
                assert!(counters.iter().map(|c| c.typed_filter_rows()).sum::<u64>() > 0);
            }
        }
        let r = reference.unwrap();
        // Q1: 40 records × 118 readings, and the odd record's three.
        assert_eq!(single_i64(&r[0]), Some(40 * 118 + 3));
        // Q2: one row, min < max.
        let min = r[1][0][0].as_f64().unwrap();
        let max = r[1][0][1].as_f64().unwrap();
        assert!(min < max);
        assert!(r[2].len() <= 10 && !r[2].is_empty());
        assert!(!r[3].is_empty(), "day filter keeps some reports");
        assert_eq!(r[3], r[4], "Q4 over one day is the scan-filter plan over that day");
    }

    /// Each text compiles under both options, so [`compiled`] never panics
    /// on one.
    #[test]
    fn every_text_compiles() {
        let window = [("start", Value::Int64(0)), ("end", Value::Int64(1))];
        let probe = "SELECT VALUE count(*) FROM Wide w WHERE w.f068 = $needle";
        let texts: [(&str, &[(&str, Value)]); 11] = [
            (TWITTER_Q1, &[]),
            (WOS_Q1, &[]),
            (TWITTER_Q2, &[]),
            (TWITTER_Q3, &[]),
            (TWITTER_Q4, &[]),
            (WOS_Q2, &[]),
            (SENSORS_Q1, &[]),
            (SENSORS_Q2, &[]),
            (SENSORS_Q3, &[]),
            (SENSORS_Q4, &window),
            (probe, &[("needle", Value::string("w3"))]),
        ];
        for (text, params) in texts {
            for opts in [QueryOptions::default(), QueryOptions::unoptimized()] {
                assert!(compile_with(text, params, opts).is_ok(), "{text} under {opts:?}");
            }
        }
    }

    /// The plans perfbench builds with the default options, as literal
    /// values: its cells measure exactly these plans, so a planner change
    /// that would move one of them fails here.
    #[test]
    fn perfbench_plans_are_pinned() {
        use crate::agg::AggFn;
        let opts = QueryOptions::default();
        let (access, path) = (opts.access(), parse_path);
        let top10 = || Op::OrderBy { keys: vec![(Expr::col(1), true)], limit: Some(10) };
        let by_sensor = |item| Op::GroupBy {
            keys: vec![Expr::col(0)],
            aggs: vec![Agg::of(AggFn::Avg, Expr::col(item))],
        };
        let window = Expr::and(
            Expr::cmp(CmpOp::Ge, Expr::col(2), Expr::lit(100i64)),
            Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit(140i64)),
        );
        let pinned = [
            (
                twitter_q1(opts),
                Query {
                    scan: ScanSpec::all_early(vec![], access),
                    ops: vec![Op::GroupBy { keys: vec![], aggs: vec![Agg::count_star()] }],
                },
            ),
            (
                twitter_q2(opts),
                Query {
                    scan: ScanSpec::all_early(vec![path("user.name"), path("text")], access),
                    ops: vec![
                        Op::Project(vec![
                            Expr::col(0),
                            Expr::func(Func::StrLen, vec![Expr::col(1)]),
                        ]),
                        Op::GroupBy {
                            keys: vec![Expr::col(0)],
                            aggs: vec![Agg::of(AggFn::Avg, Expr::col(1))],
                        },
                        top10(),
                    ],
                },
            ),
            (
                twitter_q3(opts),
                Query {
                    scan: ScanSpec::all_early(
                        vec![path("user.name"), path("entities.hashtags[*].text")],
                        access,
                    ),
                    ops: vec![
                        Op::Filter(Expr::func(
                            Func::ArrayContainsLower,
                            vec![Expr::col(1), Expr::lit("jobs")],
                        )),
                        Op::GroupBy { keys: vec![Expr::col(0)], aggs: vec![Agg::count_star()] },
                        top10(),
                    ],
                },
            ),
            (
                twitter_q4(opts),
                Query {
                    scan: ScanSpec::all_early(vec![vec![], path("timestamp_ms")], access),
                    ops: vec![
                        Op::OrderBy { keys: vec![(Expr::col(1), false)], limit: None },
                        Op::Project(vec![Expr::col(0)]),
                    ],
                },
            ),
            (
                sensors_q3(opts),
                Query {
                    scan: ScanSpec::all_early(
                        vec![path("sensor_id"), path("readings[*].temp")],
                        access,
                    ),
                    ops: vec![Op::Unnest(Expr::col(1)), by_sensor(2), top10()],
                },
            ),
            (
                sensors_q4_scanfilter(opts, 100, 140),
                Query {
                    scan: ScanSpec {
                        paths: vec![
                            path("sensor_id"),
                            path("readings[*].temp"),
                            path("report_time"),
                        ],
                        filter: Some(window),
                        late_paths: vec![],
                        access,
                    },
                    ops: vec![Op::Unnest(Expr::col(1)), by_sensor(3), top10()],
                },
            ),
        ];
        for (i, (compiled, hand_built)) in pinned.into_iter().enumerate() {
            assert_eq!(compiled, hand_built, "perfbench plan {i}");
        }
    }

    #[test]
    fn field_position_probe_counts() {
        use tc_datagen::wide::{field_at, WideGen};
        let parts = load(&mut WideGen::new(2), 100, StorageFormat::Inferred);
        let q = field_position_probe(&field_at(68), "w3", QueryOptions::default());
        let rows = run(&parts, &q);
        let count = single_i64(&rows).unwrap();
        assert!((1..100).contains(&count), "some but not all match: {count}");
    }
}
