//! The repo benchmark: four single-threaded workloads, twelve end-to-end
//! metrics, a per-layer trace. `README.md` beside this crate has the load
//! model, the run protocol and every metric's definition.

pub mod compare;
pub mod layers;
pub mod metrics;
pub mod pass;
pub mod reads;
pub mod stats;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use pass::{run_pass, Exact, Pass};
use reads::{Reads, RoundPlan};
use stats::{best, median, median_u64, supported_quantile};
use trace::{Tracer, NO_PARENT};
use workload::{build_inputs, Inputs, Spec};

/// `--seconds` at which the workloads run at scale 1.0; `BENCHMARK.json`'s
/// `run_seconds`. The work of a run is fixed by the scale, not by a clock:
/// that is what lets the flush, merge and byte counters repeat exactly.
pub const RUN_SECONDS: f64 = 12.0;

/// Rounds of an end-to-end run: set-ups (the median is reported), timed
/// passes, and shares of the reads.
const ROUNDS: usize = 3;
const MB: f64 = 1_000_000.0;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Size multiplier; the CLI derives it from `--seconds`.
    pub scale: f64,
    /// Run traced and report the per-layer metrics instead.
    pub trace: bool,
    /// Where a traced run writes its span file.
    pub trace_out: Option<PathBuf>,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// No operation failed, the exact counters repeated, and the workload
    /// was in the state it is meant to measure.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The counters asserted identical across the timed passes.
    pub exact: Exact,
    pub calib_ms: f64,
    /// Violated invariants, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// The result object the driver reads from the last line of stdout.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The result object plus what identifies the run: one line of a set
    /// file that `--compare` reads.
    pub fn set_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"calib_ms\": {}, {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.calib_ms,
            &self.result_json()[1..]
        )
    }

    /// Every metric by name with its unit, then the exact counters.
    pub fn human(&self) -> String {
        let mut out =
            format!("workload {} seed {} trace {}\n", self.workload, self.seed, self.trace);
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "exact (identical in every timed pass): {:?}", self.exact);
        let _ = writeln!(out, "ops_attempted {} ops_failed {}", self.attempted, self.failed);
        for p in &self.problems {
            let _ = writeln!(out, "PROBLEM: {p}");
        }
        out
    }
}

/// A fixed spin of integer work, about 50 ms on the box the benchmark was
/// calibrated on: the machine-speed reference `--compare` checks two sets
/// against before it compares anything else.
pub fn calibrate_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..24_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / MB)
}

struct Setup {
    inputs: Inputs,
    calib_ms: f64,
    seconds: f64,
}

/// Step 1 of the protocol: the calibration spin, the inputs and the oracle,
/// and one complete untimed ingest pass on a cluster that is dropped (it
/// leaves the allocator holding every page the timed passes will touch).
fn set_up(spec: &Spec, opts: &Options) -> (Setup, Pass) {
    let started = Instant::now();
    let calib_ms = calibrate_ms();
    let inputs = build_inputs(spec, opts.seed, opts.scale);
    let mut warm_up = run_pass(spec, &inputs, None);
    warm_up.cluster = None;
    (Setup { inputs, calib_ms, seconds: started.elapsed().as_secs_f64() }, warm_up)
}

/// Ingest time of the stream: every op at its fastest across the passes,
/// plus the smallest remainder of a pass (final flush, simulated device time).
///
/// Ops do identical work in every pass, and interference on a shared box only
/// ever adds time, so an op's minimum across the passes is the best estimate
/// of what the op costs. Measured here on 30 back-to-back passes of
/// `twitter_feed`: the median pass ranged over 28 % and the sum of op-wise
/// medians of three passes over 28 %, the sum of op-wise minima over 15 %
/// (9 % with five passes).
struct Ingest {
    op_best_ns: Vec<u64>,
    seconds: f64,
}

fn ingest_of(passes: &[Pass]) -> Ingest {
    let ops = passes[0].latencies_ns.len();
    let op_best_ns: Vec<u64> = (0..ops)
        .map(|i| passes.iter().map(|p| p.latencies_ns[i]).min().expect("at least one pass"))
        .collect();
    let rest = passes
        .iter()
        .map(|p| p.seconds - p.latencies_ns.iter().sum::<u64>() as f64 / 1e9)
        .fold(f64::INFINITY, f64::min);
    let seconds = op_best_ns.iter().sum::<u64>() as f64 / 1e9 + rest;
    Ingest { op_best_ns, seconds }
}

/// The state each workload is meant to be read in; a run that is not in it
/// measures something else and is reported as incorrect.
fn state_problems(spec: &Spec, scale: f64, exact: &Exact, reads: &Reads) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    if scale >= 1.0 {
        require(
            exact.flushes >= 20 && exact.merges >= 3,
            format!("timed pass made {} flushes and {} merges", exact.flushes, exact.merges),
        );
        let (lo, hi) = spec.hit_rate_get;
        require(
            (lo..=hi).contains(&reads.cache_hit_rate_get()),
            format!("get cache hit rate {} outside {lo}..{hi}", reads.cache_hit_rate_get()),
        );
        let (lo, hi) = spec.components_at_read;
        require(
            (lo..=hi).contains(&reads.components_at_read),
            format!("{} components at read, expected {lo}..{hi}", reads.components_at_read),
        );
    }
    require(
        (reads.memtable_entries_at_read > 0) != spec.final_flush,
        format!("{} memtable entries at read", reads.memtable_entries_at_read),
    );
    let typed = reads.filter_columnar.typed_filter_rows > 0;
    require(
        typed == spec.merge_before_reads,
        format!("typed filter rows {}", reads.filter_columnar.typed_filter_rows),
    );
    problems
}

/// The metrics of one report, in the order pushed.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.push(metric(name, value));
    }
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value, unit: metrics::unit_of(name).expect("metric is in the lists") }
}

/// Run one workload once. `Err` only for arguments the harness cannot run.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = workload::find(&opts.workload)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    if !(opts.scale > 0.0 && opts.scale.is_finite()) {
        return Err(format!("scale {} is not a positive number", opts.scale));
    }
    let mut report = if opts.trace { run_traced(spec, opts)? } else { run_end_to_end(spec, opts) };
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is not a finite number", m.name));
            m.value = -1.0;
        }
    }
    report.correct = report.failed == 0 && report.problems.is_empty();
    Ok(report)
}

fn writes_per_pass(inputs: &Inputs) -> u64 {
    (inputs.preload.len() + inputs.ops.len() + 1) as u64
}

fn check_exact<'a>(passes: impl IntoIterator<Item = &'a Pass>, problems: &mut Vec<String>) {
    let mut exacts = passes.into_iter().map(|p| p.exact);
    let first = exacts.next().expect("at least one pass");
    if let Some(odd) = exacts.find(|e| *e != first) {
        problems.push(format!("exact counters differ: {first:?} vs {odd:?}"));
    }
}

/// The end-to-end run: `ROUNDS` rounds of the whole protocol — set-up, one
/// timed pass on a fresh cluster, the reads on the state it left. Every
/// round repeats the same operations in the same state, and an operation's
/// time is its fastest across the rounds; spreading the repeats over the run
/// is what lets a neighbour's slow second on the shared box be dropped
/// instead of landing on one metric.
fn run_end_to_end(spec: &'static Spec, opts: &Options) -> Report {
    let mut problems = Vec::new();
    let mut setup_seconds = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_touch = None;
    let mut reads = Reads::default();
    let mut setup = None;
    let mut disk_bytes_at_read = 0;
    for round in 0..ROUNDS {
        drop(setup.take()); // one set of inputs alive at a time
        let (s, warm_up) = set_up(spec, opts);
        let s = setup.insert(s);
        setup_seconds.push(s.seconds);
        let mut pass = run_pass(spec, &s.inputs, None);
        let cluster = pass.cluster.take().expect("a pass hands back its cluster");
        failed += pass.failed + warm_up.failed;
        attempted += 2 * writes_per_pass(&s.inputs);
        passes.push(pass);
        if round == 0 {
            // Only the process's first pass pays the first-touch faults. It
            // is kept for the counter check, never for a timing.
            first_touch = Some(warm_up);
        } else {
            // A later round's warm-up runs in a warm process and times the
            // same ops as well as a timed pass does.
            passes.push(warm_up);
        }
        if spec.merge_before_reads && cluster.merge_all().is_err() {
            failed += 1;
        }
        disk_bytes_at_read = cluster.total_disk_bytes();
        let plan = RoundPlan { check: round == 0, reps: None };
        reads.round(&cluster, spec.data, &s.inputs, &plan, None);
        if round + 1 == ROUNDS {
            reads.recovery_check(&cluster, &s.inputs, spec.recovery_gets, None);
        }
    }
    let Setup { inputs, calib_ms, .. } = setup.expect("ROUNDS is positive");
    let ingest = ingest_of(&passes);
    check_exact(passes.iter().chain(&first_touch), &mut problems);
    let exact = passes[0].exact;
    failed += reads.failed;
    attempted += reads.attempted;
    problems.extend(state_problems(spec, opts.scale, &exact, &reads));

    let mut sorted = ingest.op_best_ns;
    sorted.sort_unstable();
    let mut c = Metrics::default();
    c.push("setup_s", median(&mut setup_seconds));
    c.push("ingest_krec_s", inputs.ops.len() as f64 / ingest.seconds / 1e3);
    c.push("write_p50_us", median_u64(&sorted) / 1e3);
    c.push("write_p999_ms", supported_quantile(&sorted, 0.999) / 1e6);
    c.push("write_amp", exact.dev_write_bytes as f64 / inputs.fed_text_bytes as f64);
    c.push("storage_ratio", disk_bytes_at_read as f64 / inputs.live_text_bytes as f64);
    c.push("q_count_ms", reads.query_best_seconds(0) * 1e3);
    c.push("q_agg_ms", reads.query_best_seconds(1) * 1e3);
    c.push("q_filter_ms", reads.query_best_seconds(2) * 1e3);
    c.push("q_full_ms", reads.query_best_seconds(3) * 1e3);
    c.push("get_p50_us", median_u64(&reads.get_best_ns) / 1e3);
    c.push("rss_peak_mb", rss_peak_mb());
    Report {
        workload: spec.name,
        seed: opts.seed,
        trace: false,
        correct: false,
        attempted,
        failed,
        metrics: c.0,
        exact,
        calib_ms,
        problems,
    }
}

/// The traced run: two untraced passes and one traced pass (their ratio is
/// the tracing overhead), the reads with three reps per query under spans,
/// then the per-layer replay.
fn run_traced(spec: &'static Spec, opts: &Options) -> Result<Report, String> {
    let mut problems = Vec::new();
    let (Setup { inputs, calib_ms, .. }, warm_up) = set_up(spec, opts);
    let mut failed = warm_up.failed;
    let mut tracer = Tracer::new();
    let mut passes: Vec<Pass> = (0..2).map(|_| run_pass(spec, &inputs, None)).collect();
    for p in &mut passes {
        p.cluster = None;
    }
    let untraced_wall = passes.iter().map(|p| p.wall_seconds).sum::<f64>() / passes.len() as f64;
    passes.push(run_pass(spec, &inputs, Some(&mut tracer)));
    check_exact(passes.iter().chain([&warm_up]), &mut problems);
    failed += passes.iter().map(|p| p.failed).sum::<u64>();
    let traced = passes.pop().expect("three passes");
    let root = tracer.spans.iter().position(|s| s.name == "pass.ingest").expect("root") as u32;
    let root_nanos = tracer.spans[root as usize].nanos();
    let coverage = tracer.children_nanos(root) as f64 / root_nanos as f64;
    let exact = traced.exact;
    let cluster = traced.cluster.as_ref().expect("the last pass keeps its cluster");
    let ds = cluster.partition(0);

    let mut full_merge = |tracer: &mut Tracer| {
        tracer.next_pass();
        let span = tracer.begin("cluster.merge_all", NO_PARENT);
        let ok = cluster.merge_all().is_ok();
        tracer.end(span);
        if !ok {
            failed += 1;
        }
        tracer.spans[span as usize].nanos() as f64 / 1e9
    };
    let mut full_merge_s = None;
    if spec.merge_before_reads {
        full_merge_s = Some(full_merge(&mut tracer));
    }
    let mut reads = Reads::default();
    let plan = RoundPlan { check: true, reps: Some(3) };
    reads.round(cluster, spec.data, &inputs, &plan, Some(&mut tracer));
    reads.recovery_check(cluster, &inputs, spec.recovery_gets, Some(&mut tracer));
    problems.extend(state_problems(spec, opts.scale, &exact, &reads));
    let pages_written = ds.columnar_counters().map_or(0, |c| c.pages_written());
    let layers = layers::replay(spec, &inputs, cluster);
    let full_merge_s = full_merge_s.unwrap_or_else(|| full_merge(&mut tracer));
    failed += reads.failed;

    let ops = inputs.ops.len() as f64;
    let mut c = Metrics::default();
    c.push("bench.gen_s", inputs.gen_seconds);
    c.push("bench.calib_ms", calib_ms);
    c.push("bench.trace_overhead_pct", (traced.wall_seconds / untraced_wall - 1.0) * 100.0);
    c.push("bench.span_coverage_pct", coverage * 100.0);
    c.push("lsm.flushes", exact.flushes as f64);
    c.push("lsm.merges", exact.merges as f64);
    c.push("lsm.bytes_flushed_mb", exact.bytes_flushed as f64 / MB);
    c.push("lsm.bytes_merged_mb", exact.bytes_merged as f64 / MB);
    c.push("lsm.maint_busy_s", traced.maint_busy_ns as f64 / 1e9);
    // A pass too small to flush or merge (the smoke scale) stalls for zero.
    let stall_ms = |ops: &[u64]| if ops.is_empty() { 0.0 } else { median_u64(ops) / 1e6 };
    c.push("lsm.flush_ms_p50", stall_ms(&traced.flush_ops_ns));
    c.push("lsm.merge_ms_p50", stall_ms(&traced.merge_ops_ns));
    c.push(
        "lsm.foreground_us_per_rec",
        (traced.wall_seconds - traced.maint_busy_ns as f64 / 1e9) / ops * 1e6,
    );
    c.push("lsm.components_at_read", reads.components_at_read as f64);
    c.push("lsm.full_merge_s", full_merge_s);
    c.push("storage.dev_write_mb", exact.dev_write_bytes as f64 / MB);
    c.push("storage.dev_write_ops", exact.dev_write_ops as f64);
    const READ_MB: [&str; 4] = [
        "storage.read_mb_q_count",
        "storage.read_mb_q_agg",
        "storage.read_mb_q_filter",
        "storage.read_mb_q_full",
    ];
    const NS_PER_ROW: [&str; 4] = [
        "query.ns_per_row_q_count",
        "query.ns_per_row_q_agg",
        "query.ns_per_row_q_filter",
        "query.ns_per_row_q_full",
    ];
    for (i, q) in reads.query_counts.iter().enumerate() {
        c.push(READ_MB[i], q.read_bytes as f64 / MB);
        let wall = reads.query_best_wall_seconds(i);
        c.push(NS_PER_ROW[i], wall * 1e9 / q.rows_scanned.max(1) as f64);
    }
    c.push("storage.cache_hit_rate_get", reads.cache_hit_rate_get());
    c.push("columnar.pages_written", pages_written as f64);
    c.push("columnar.pages_skipped", reads.filter_columnar.pages_skipped as f64);
    c.push("columnar.columns_faulted", reads.filter_columnar.columns_faulted as f64);
    c.push("columnar.typed_filter_rows", reads.filter_columnar.typed_filter_rows as f64);
    c.push("query.rows_scanned_q_filter", reads.query_counts[2].rows_scanned as f64);
    c.push("query.rows_output_q_filter", reads.query_counts[2].rows_output as f64);
    c.push("query.warm_ms_q_agg", best(&reads.warm_agg_seconds) * 1e3);
    for (name, value) in layers {
        c.push(name, value);
    }
    // Report in the order of the list, whatever order the phases ran in.
    let order = |name: &str| metrics::PER_LAYER.iter().position(|m| m.name == name);
    c.0.sort_by_key(|m| order(m.name));

    if let Some(path) = &opts.trace_out {
        std::fs::write(path, tracer.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Report {
        workload: spec.name,
        seed: opts.seed,
        trace: true,
        correct: false,
        attempted: 4 * writes_per_pass(&inputs) + reads.attempted + 1,
        failed,
        metrics: c.0,
        exact,
        calib_ms,
        problems,
    })
}
