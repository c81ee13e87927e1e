//! Runs all four workloads at one hundredth of their size through the
//! harness's library entry point, end to end and traced, and holds the names
//! the harness prints in step with `BENCHMARK.json`.

use std::collections::BTreeSet;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::WORKLOADS;
use perfbench::{Options, Report};
use tc_adm::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    tc_adm::parse(&text).expect("BENCHMARK.json is JSON")
}

fn text<'a>(v: &'a Value, field: &str) -> &'a str {
    match v.get_field(field) {
        Some(Value::String(s)) => s,
        other => panic!("{field}: expected a string, found {other:?}"),
    }
}

fn entries<'a>(doc: &'a Value, list: &str) -> &'a [Value] {
    doc.get_field(list).and_then(Value::as_items).unwrap_or_else(|| panic!("{list} is a list"))
}

fn smoke(workload: &str, trace: bool) -> Report {
    let options =
        Options { workload: workload.to_string(), seed: 7, scale: 0.01, trace, trace_out: None };
    perfbench::run(&options).expect("the harness runs")
}

fn assert_reports_exactly(report: &Report, expected: &[(String, String)]) {
    let printed: Vec<(String, String)> =
        report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    let unique: BTreeSet<&(String, String)> = printed.iter().collect();
    assert_eq!(unique.len(), printed.len(), "{}: a metric is printed twice", report.workload);
    assert_eq!(
        unique,
        expected.iter().collect::<BTreeSet<_>>(),
        "{} (trace {}): printed names differ from BENCHMARK.json",
        report.workload,
        report.trace
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} {} = {}", report.workload, m.name, m.value);
    }
    assert_eq!(report.failed, 0, "{}: {:?}", report.workload, report.problems);
    assert!(report.correct, "{}: {:?}", report.workload, report.problems);
    assert!(report.attempted >= 1);
}

#[test]
fn benchmark_json_lists_what_the_harness_defines() {
    let doc = benchmark_json();
    let names = |list: &str| -> Vec<(String, String, String)> {
        entries(&doc, list)
            .iter()
            .map(|m| {
                (
                    text(m, "name").to_string(),
                    text(m, "unit").to_string(),
                    text(m, "better").to_string(),
                )
            })
            .collect()
    };
    let own = |list: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
        list.into_iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    };
    assert_eq!(
        names("end_to_end"),
        own(END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect())
    );
    assert_eq!(
        names("per_layer"),
        own(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect())
    );
    for (listed, m) in entries(&doc, "end_to_end").iter().zip(&END_TO_END) {
        let bound = listed.get_field("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(bound, m.bound, "{}", m.name);
        assert!(bound <= 0.25, "{}", m.name);
    }
    let workloads: Vec<&str> = entries(&doc, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    let run_seconds = doc.get_field("run_seconds").and_then(Value::as_i64).expect("run_seconds");
    assert_eq!(run_seconds as f64, perfbench::RUN_SECONDS);
}

#[test]
fn every_workload_prints_every_metric_once() {
    let doc = benchmark_json();
    let listed = |list: &str| -> Vec<(String, String)> {
        entries(&doc, list)
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
            .collect()
    };
    let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
    for spec in &WORKLOADS {
        let report = smoke(spec.name, false);
        assert_reports_exactly(&report, &end_to_end);
        // The result object is one line of JSON with exactly the four keys.
        let line = report.result_json();
        assert!(!line.contains('\n'));
        let parsed = tc_adm::parse(&line).expect("result object is JSON");
        let Value::Object(fields) = &parsed else { panic!("result is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

        let traced = smoke(spec.name, true);
        assert_reports_exactly(&traced, &per_layer);
    }
}

#[test]
fn a_second_seed_changes_the_inputs_and_nothing_else() {
    let a = perfbench::workload::build_inputs(&WORKLOADS[1], 1, 0.02);
    let b = perfbench::workload::build_inputs(&WORKLOADS[1], 1, 0.02);
    let c = perfbench::workload::build_inputs(&WORKLOADS[1], 2, 0.02);
    let lines = |i: &perfbench::workload::Inputs| -> Vec<String> {
        i.ops.iter().map(|o| format!("{:?} {} {}", o.kind, o.pk, o.text)).collect()
    };
    assert_eq!(lines(&a), lines(&b), "the same seed gives the same stream");
    assert_eq!(a.get_keys, b.get_keys);
    assert_ne!(lines(&a), lines(&c), "another seed gives another stream");
    assert_eq!(a.ops.len(), c.ops.len());
}
