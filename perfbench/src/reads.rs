//! The read phase: four queries and a stream of point lookups on the state a
//! timed pass left behind, each checked against the oracle, and the
//! crash/recover check that ends it.

use std::time::Instant;

use tc_adm::path::parse_path;
use tc_adm::Value;
use tc_cluster::Cluster;
use tc_query::exec::{Engine, ExecOptions};
use tc_query::expr::Expr;
use tc_query::paper_queries::{
    sensors_q3, sensors_q4_scanfilter, single_i64, twitter_q1, twitter_q2, twitter_q3, twitter_q4,
};
use tc_query::plan::{Op, Query, QueryOptions, ScanSpec};

use crate::stats::best;
use crate::trace::{spanned, SpanId, Tracer, NO_PARENT};
use crate::workload::{Data, Inputs};

/// Span names of the four queries, in reporting order (count, aggregate,
/// selective filter, full records).
const QUERY_SPANS: [&str; 4] = [
    "cluster.query.q_count",
    "cluster.query.q_agg",
    "cluster.query.q_filter",
    "cluster.query.q_full",
];

/// `SensorsGen` stamps `report_time = SENSORS_BASE_TIME + id * 60 s`.
const SENSORS_BASE_TIME: i64 = 1_556_496_000_000;
const SENSORS_STEP_MS: i64 = 60_000;

/// `SELECT * ORDER BY <timestamp>`: every record fully materialised.
fn full_ordered_by(field: &str) -> Query {
    let opts = QueryOptions::default();
    Query {
        scan: ScanSpec::all_early(vec![vec![], parse_path(field)], opts.access()),
        ops: vec![
            Op::OrderBy { keys: vec![(Expr::col(1), false)], limit: None },
            Op::Project(vec![Expr::col(0)]),
        ],
    }
}

/// The workload's count / aggregate / selective-filter / full-record plans.
pub fn queries(data: Data, inputs: &Inputs) -> [Query; 4] {
    let opts = QueryOptions::default();
    match data {
        Data::Twitter => [twitter_q1(opts), twitter_q2(opts), twitter_q3(opts), twitter_q4(opts)],
        Data::Sensors => {
            // A report_time window holding 1 % of the ids, two fifths in.
            let ids = inputs.oracle.keys().next_back().map_or(0, |max| max + 1);
            let lo = SENSORS_BASE_TIME + (ids * 2 / 5) * SENSORS_STEP_MS;
            let hi = lo + (ids / 100).max(1) * SENSORS_STEP_MS;
            [
                twitter_q1(opts),
                sensors_q3(opts),
                sensors_q4_scanfilter(opts, lo, hi),
                full_ordered_by("report_time"),
            ]
        }
    }
}

/// The parts of a query's measurements that repeat exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCounts {
    pub read_bytes: u64,
    pub rows_scanned: u64,
    pub rows_output: u64,
}

/// Columnar counters accrued by one cold run of `q_filter`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnarDelta {
    pub pages_skipped: u64,
    pub columns_faulted: u64,
    pub typed_filter_rows: u64,
}

/// What one round of reads does.
pub struct RoundPlan {
    /// Run each query once untimed first and check its answer.
    pub check: bool,
    /// Cold runs per query; `None` fits as many as `COLD_BUDGET_SECONDS`
    /// allows (two to thirty-four).
    pub reps: Option<usize>,
}

/// Sweeps over the get keys in one round: a second and third only while the
/// round has spent less than the budget on gets (never on amax, where one
/// get reconstructs a row group).
const GET_SWEEPS_MAX: usize = 3;
const GET_BUDGET_SECONDS: f64 = 0.6;

/// Query time spent on the cold runs of one query in one round when the
/// plan does not fix their number.
const COLD_BUDGET_SECONDS: f64 = 0.45;

/// Samples pooled over the rounds of a run. Timings are wall plus simulated
/// read time (`support::run_query_cold` convention); a query's time is its
/// fastest cold run, a get's its fastest across the rounds (every round
/// looks the same keys up in the same order from a cold cache).
#[derive(Debug, Default)]
pub struct Reads {
    pub query_seconds: [Vec<f64>; 4],
    pub query_wall_seconds: [Vec<f64>; 4],
    pub query_counts: [QueryCounts; 4],
    /// `q_agg` with the cache kept (traced rounds only).
    pub warm_agg_seconds: Vec<f64>,
    pub filter_columnar: ColumnarDelta,
    /// Fastest latency per get key, in `Inputs::get_keys` order.
    pub get_best_ns: Vec<u64>,
    pub get_cache_hits: u64,
    pub get_cache_misses: u64,
    pub components_at_read: u64,
    pub memtable_entries_at_read: u64,
    pub attempted: u64,
    pub failed: u64,
}

struct Spans<'a> {
    tracer: Option<&'a mut Tracer>,
    root: SpanId,
}

impl<'a> Spans<'a> {
    fn open(tracer: Option<&'a mut Tracer>, name: &'static str) -> Self {
        let mut spans = Spans { tracer, root: NO_PARENT };
        if let Some(t) = spans.tracer.as_deref_mut() {
            t.next_pass();
            spans.root = t.begin(name, NO_PARENT);
        }
        spans
    }

    fn around<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        spanned(self.tracer.as_deref_mut(), name, self.root, call).0
    }

    fn close(self) {
        if let Some(t) = self.tracer {
            t.end(self.root);
        }
    }
}

fn columnar_counters(cluster: &Cluster) -> ColumnarDelta {
    cluster.partition(0).columnar_counters().map_or(ColumnarDelta::default(), |c| ColumnarDelta {
        pages_skipped: c.pages_skipped(),
        columns_faulted: c.columns_faulted(),
        typed_filter_rows: c.typed_filter_rows(),
    })
}

/// Does `cluster.get(pk)` return the last value written (or nothing after a
/// delete)?
fn get_matches(inputs: &Inputs, pk: i64, got: &Result<Option<Value>, tc_adm::AdmError>) -> bool {
    let expected = inputs.expected_text(pk).map(|t| tc_adm::parse(t).expect("own JSON parses"));
    matches!(got, Ok(v) if *v == expected)
}

fn serial() -> ExecOptions {
    ExecOptions::with_parallel(false)
}

impl Reads {
    pub fn query_best_seconds(&self, i: usize) -> f64 {
        best(&self.query_seconds[i])
    }

    pub fn query_best_wall_seconds(&self, i: usize) -> f64 {
        best(&self.query_wall_seconds[i])
    }

    pub fn cache_hit_rate_get(&self) -> f64 {
        self.get_cache_hits as f64 / (self.get_cache_hits + self.get_cache_misses).max(1) as f64
    }

    /// One round on the state a timed pass left behind: every query cold,
    /// then the round's point lookups from a cold cache.
    pub fn round(
        &mut self,
        cluster: &Cluster,
        data: Data,
        inputs: &Inputs,
        plan: &RoundPlan,
        tracer: Option<&mut Tracer>,
    ) {
        let mut spans = Spans::open(tracer, "phase.reads");
        let ds = cluster.partition(0);
        let device = &cluster.nodes()[0].devices[0];
        let cache = &cluster.nodes()[0].cache;
        self.components_at_read = ds.primary().components().len() as u64;
        self.memtable_entries_at_read = ds.primary().memtable_len() as u64;
        let row_engine = ExecOptions { engine: Engine::Row, ..serial() };
        let live = inputs.live_keys() as i64;

        for (i, query) in queries(data, inputs).iter().enumerate() {
            if plan.check {
                // The batched answer must equal the row engine's, and
                // count(*) the oracle's live keys.
                self.attempted += 1;
                let agree =
                    match (cluster.query(query, &serial()), cluster.query(query, &row_engine)) {
                        (Ok(a), Ok(b)) => {
                            a.rows == b.rows && (i != 0 || single_i64(&a.rows) == Some(live))
                        }
                        _ => false,
                    };
                if !agree {
                    self.failed += 1;
                }
            }
            let mut runs = 1;
            let mut done = 0;
            while done < runs {
                spans.around("cluster.clear_caches", || cluster.clear_caches());
                let io0 = cluster.io_snapshots();
                let read0 = device.bytes_read();
                let col0 = columnar_counters(cluster);
                let started = Instant::now();
                let result = spans.around(QUERY_SPANS[i], || cluster.query(query, &serial()));
                let wall = started.elapsed();
                let total = (wall + cluster.max_io_time_since(&io0)).as_secs_f64();
                self.attempted += 1;
                match result {
                    Ok(r) => {
                        self.query_counts[i] = QueryCounts {
                            read_bytes: device.bytes_read() - read0,
                            rows_scanned: r.stats.rows_scanned,
                            rows_output: r.stats.rows_output,
                        };
                    }
                    Err(_) => self.failed += 1,
                }
                if i == 2 {
                    let col = columnar_counters(cluster);
                    self.filter_columnar = ColumnarDelta {
                        pages_skipped: col.pages_skipped - col0.pages_skipped,
                        columns_faulted: col.columns_faulted - col0.columns_faulted,
                        typed_filter_rows: col.typed_filter_rows - col0.typed_filter_rows,
                    };
                }
                if done == 0 {
                    // A 0.1 ms query gets dozens of runs per round, a
                    // 0.6 s one gets two.
                    let fit = (COLD_BUDGET_SECONDS / total).ceil() as usize;
                    runs = plan.reps.unwrap_or(fit.clamp(2, 34));
                }
                self.query_seconds[i].push(total);
                self.query_wall_seconds[i].push(wall.as_secs_f64());
                done += 1;
            }
            if i == 1 && spans.tracer.is_some() {
                // Cache kept from the last cold run: cold − warm is the
                // fault-in, CRC and decompression share.
                for _ in 0..runs {
                    let io0 = cluster.io_snapshots();
                    let started = Instant::now();
                    let _ = spans
                        .around("cluster.query.q_agg.warm", || cluster.query(query, &serial()));
                    let total = started.elapsed() + cluster.max_io_time_since(&io0);
                    self.warm_agg_seconds.push(total.as_secs_f64());
                }
            }
        }

        // The same keys in the same order from a cold cache, as many sweeps
        // as fit the budget; each get is timed on its own and checked
        // outside the timed region.
        self.get_best_ns.resize(inputs.get_keys.len(), u64::MAX);
        let sweeps_started = Instant::now();
        for sweep in 0..GET_SWEEPS_MAX {
            if sweep > 0 && sweeps_started.elapsed().as_secs_f64() > GET_BUDGET_SECONDS {
                break;
            }
            spans.around("cluster.clear_caches", || cluster.clear_caches());
            let (hits0, misses0) = (cache.hits(), cache.misses());
            for (&pk, best_ns) in inputs.get_keys.iter().zip(&mut self.get_best_ns) {
                let io0 = device.snapshot();
                let started = Instant::now();
                let got = spans.around("cluster.get", || cluster.get(pk));
                let total = started.elapsed() + device.io_time_since(&io0);
                *best_ns = (*best_ns).min(total.as_nanos() as u64);
                self.attempted += 1;
                if !get_matches(inputs, pk, &got) {
                    self.failed += 1;
                }
            }
            self.get_cache_hits += cache.hits() - hits0;
            self.get_cache_misses += cache.misses() - misses0;
        }
        spans.close();
    }

    /// Crash and recover: the same count and the same values must come back
    /// from the durable bytes alone.
    pub fn recovery_check(
        &mut self,
        cluster: &Cluster,
        inputs: &Inputs,
        gets: usize,
        tracer: Option<&mut Tracer>,
    ) {
        let mut spans = Spans::open(tracer, "phase.recovery");
        spans.around("cluster.simulate_crash_all", || cluster.simulate_crash_all());
        let recovered = spans.around("cluster.recover_all", || cluster.recover_all());
        let count = cluster.query(&twitter_q1(QueryOptions::default()), &serial());
        let live = inputs.live_keys() as i64;
        self.attempted += 1;
        if recovered.is_err() || !matches!(&count, Ok(r) if single_i64(&r.rows) == Some(live)) {
            self.failed += 1;
        }
        for &pk in inputs.get_keys.iter().take(gets) {
            self.attempted += 1;
            if !get_matches(inputs, pk, &cluster.get(pk)) {
                self.failed += 1;
            }
        }
        spans.close();
    }
}
