//! `--compare <setA.jsonl> <setB.jsonl>`: per workload and metric, the
//! median and quartiles of each set, the relative difference, and a verdict
//! against the metric's bound. A set file holds the lines `--append` wrote.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tc_adm::Value;

use crate::metrics::{END_TO_END, PER_LAYER};

/// Values of one metric on one workload, and the runs' calibration spins.
#[derive(Debug, Default)]
pub struct Set {
    pub samples: BTreeMap<(String, String), Vec<f64>>,
    pub calib_ms: Vec<f64>,
}

fn number(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_i64().map(|i| i as f64))
}

/// Parse the lines of a set file.
pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let value = tc_adm::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = match value.get_field("workload") {
            Some(Value::String(w)) => w.to_string(),
            _ => return Err(bad("no workload")),
        };
        if let Some(c) = value.get_field("calib_ms").and_then(number) {
            set.calib_ms.push(c);
        }
        let Some(Value::Object(metrics)) = value.get_field("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, m) in metrics {
            let v =
                m.get_field("value").and_then(number).ok_or_else(|| bad("metric without value"))?;
            set.samples.entry((workload.clone(), name.clone())).or_default().push(v);
        }
    }
    Ok(set)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's estimator).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (len, m) = (data.len(), data.len() + 1);
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quartile distance as a share of the median.
fn spread(q: &[f64; 3]) -> f64 {
    ((q[2] - q[0]) / q[1]).abs()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// A set's own quartile distance exceeds the bound.
    Unresolved,
    /// Per-layer metrics carry no bound.
    Unbounded,
}

/// Compare set B against set A; returns the table and how many metrics were
/// out of bound or unresolved.
pub fn compare(a: &Set, b: &Set) -> (String, usize) {
    let mut out = String::new();
    let mut flagged = 0;
    if let (Some(qa), Some(qb)) = (quartiles(&a.calib_ms), quartiles(&b.calib_ms)) {
        let rel = (qb[1] - qa[1]) / qa[1];
        let _ = writeln!(
            out,
            "calib_ms median: A {:.3}  B {:.3}  ({:+.1} %)",
            qa[1],
            qb[1],
            rel * 100.0
        );
        if rel.abs() > 0.15 {
            let _ =
                writeln!(out, "WARNING: the sets ran on machines more than 15 % apart in speed");
            flagged += 1;
        }
    }
    let _ = writeln!(
        out,
        "{:<18} {:<30} {:>12} {:>8} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A %", "median B", "iqr B %", "B vs A %", "bound"
    );
    for ((workload, metric), va) in &a.samples {
        let Some(vb) = b.samples.get(&(workload.clone(), metric.clone())) else { continue };
        let (Some(qa), Some(qb)) = (quartiles(va), quartiles(vb)) else { continue };
        let e2e = END_TO_END.iter().find(|m| m.name == metric);
        let better = e2e
            .map(|m| m.better)
            .or_else(|| PER_LAYER.iter().find(|m| m.name == metric).map(|m| m.better))
            .unwrap_or("lower");
        let rel = if qa[1] == 0.0 { 0.0 } else { (qb[1] - qa[1]) / qa[1].abs() };
        let worse_by = if better == "lower" { rel } else { -rel };
        let verdict = match e2e {
            None => Verdict::Unbounded,
            Some(m) if spread(&qa) > m.bound || spread(&qb) > m.bound => Verdict::Unresolved,
            Some(m) if worse_by > m.bound => Verdict::Worse,
            Some(_) => Verdict::Ok,
        };
        if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
            flagged += 1;
        }
        let _ = writeln!(
            out,
            "{:<18} {:<30} {:>12.4} {:>8.2} {:>12.4} {:>8.2} {:>+9.2} {:>6}  {}",
            workload,
            metric,
            qa[1],
            spread(&qa) * 100.0,
            qb[1],
            spread(&qb) * 100.0,
            rel * 100.0,
            e2e.map_or("-".to_string(), |m| format!("{:.2}", m.bound)),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
                Verdict::Unbounded => "",
            }
        );
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let line = |w: &str, name: &str, v: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": 0, \"calib_ms\": 50.0, \
                 \"correct\": true, \"attempted\": 1, \"failed\": 0, \
                 \"metrics\": {{\"{name}\": {{\"value\": {v}, \"unit\": \"x\"}}}}}}\n"
            )
        };
        let set = |name: &str, values: &[f64]| {
            parse_set(&values.iter().map(|v| line("w", name, *v)).collect::<String>()).unwrap()
        };
        let bound = END_TO_END.iter().find(|m| m.name == "ingest_krec_s").expect("listed").bound;
        let around = |centre: f64| [centre, centre * 1.01, centre * 0.99];
        // Higher is better: a drop past the bound is worse, a rise is not.
        let base = set("ingest_krec_s", &around(10.0));
        assert_eq!(compare(&base, &set("ingest_krec_s", &around(10.0 * (1.0 - 1.5 * bound)))).1, 1);
        assert_eq!(compare(&base, &set("ingest_krec_s", &around(10.0 * (1.0 + 1.5 * bound)))).1, 0);
        // A set noisier than the bound resolves nothing.
        let noisy = [10.0, 10.0 * (1.0 + bound), 10.0 * (1.0 - bound)];
        let (table, flagged) = compare(&base, &set("ingest_krec_s", &noisy));
        assert_eq!(flagged, 1);
        assert!(table.contains("unresolved"), "{table}");
    }
}
