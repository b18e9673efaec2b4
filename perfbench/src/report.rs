//! Reporting: human-readable lines, the one-line JSON result that ends
//! every run, the `--json` record, and `--compare` between records.

use std::fmt::Write as _;

use serde::Value;

use crate::layers::TracedReport;
use crate::metrics::{unit_of, END_TO_END};
use crate::stats::{verdict, Summary, Verdict};
use crate::workload::E2eReport;

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Record {
    /// The `--seed` value.
    pub seed: u64,
    /// The `--seconds` value.
    pub seconds: f64,
    /// E2e passes, in run order.
    pub e2e: Vec<E2eReport>,
    /// Traced passes, in run order.
    pub traced: Vec<TracedReport>,
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { 0.0 })
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Human-readable lines for an e2e pass.
#[must_use]
pub fn e2e_text(r: &E2eReport) -> String {
    let mut out = format!(
        "[e2e] {}: {} jobs, {} failed, digest {}\n",
        r.workload.name(),
        r.attempted,
        r.failed,
        r.digest
            .map_or_else(|| "-".to_string(), |d| format!("{d:016x}"))
    );
    for (name, m) in r.metrics() {
        let s = m.samples;
        let _ = writeln!(
            out,
            "  {name:<12} {:>12.6} {:<3} ({} samples: median {:.6}, min {:.6}, max {:.6})",
            m.value,
            unit_of(name).unwrap_or(""),
            s.n,
            s.median,
            s.min,
            s.max
        );
    }
    out
}

/// Human-readable lines for a traced pass, ending with the ledger.
#[must_use]
pub fn traced_text(r: &TracedReport) -> String {
    let mut out = format!(
        "[traced] {}: {} jobs, {} failed\n",
        r.workload.name(),
        r.attempted,
        r.failed
    );
    for (name, v) in &r.metrics {
        let _ = writeln!(
            out,
            "  {name:<32} {v:>16.6} {}",
            unit_of(name).unwrap_or("")
        );
    }
    let _ = writeln!(
        out,
        "  ledger against {:.4} s of wall time:\n  {:<16} {:>14} {:>10} {:>10} {:>7}",
        r.wall_s, "layer", "ops", "ns/op", "busy_s", "share"
    );
    let mut attributed = 0.0;
    for row in &r.ledger {
        attributed += row.busy_s;
        let _ = writeln!(
            out,
            "  {:<16} {:>14.0} {:>10.2} {:>10.4} {:>6.1}%",
            row.layer,
            row.ops,
            row.ns_per_op,
            row.busy_s,
            share(row.busy_s, r.wall_s)
        );
    }
    let residual = r.wall_s - attributed;
    let _ = writeln!(
        out,
        "  {:<16} {:>14} {:>10} {:>10.4} {:>6.1}%",
        "core (residual)",
        "",
        "",
        residual,
        share(residual, r.wall_s)
    );
    out
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// The last line of every run: `{"correct", "attempted", "failed",
/// "metrics"}`. With one workload the metric names are bare; with more
/// they are prefixed `<workload>/`.
#[must_use]
pub fn final_line(rec: &Record) -> String {
    let mut names: Vec<&str> = rec
        .e2e
        .iter()
        .map(|r| r.workload.name())
        .chain(rec.traced.iter().map(|r| r.workload.name()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let prefixed = names.len() > 1;
    let mut metrics = Vec::new();
    let mut finite = true;
    let mut push = |workload: &str, name: &str, v: f64| {
        finite &= v.is_finite();
        let key = if prefixed {
            format!("{workload}/{name}")
        } else {
            name.to_string()
        };
        metrics.push((
            key,
            obj(vec![
                ("value", num(v)),
                ("unit", text(unit_of(name).unwrap_or(""))),
            ]),
        ));
    };
    for r in &rec.e2e {
        for (name, m) in r.metrics() {
            push(r.workload.name(), name, m.value);
        }
    }
    for r in &rec.traced {
        for &(name, v) in &r.metrics {
            push(r.workload.name(), name, v);
        }
    }
    let attempted = rec.e2e.iter().map(|r| r.attempted).sum::<u64>()
        + rec.traced.iter().map(|r| r.attempted).sum::<u64>();
    let failed = rec.e2e.iter().map(|r| r.failed).sum::<u64>()
        + rec.traced.iter().map(|r| r.failed).sum::<u64>();
    let correct = finite
        && rec.e2e.iter().all(E2eReport::correct)
        && rec.traced.iter().all(TracedReport::correct);
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}

/// One line of the `--json` record: both passes of every workload run,
/// with each e2e metric's value and in-run samples, and each traced
/// pass's metrics and ledger. Records are appended one per line, so a
/// file can gather many runs for `--compare`.
#[must_use]
pub fn record_line(rec: &Record, host: &str) -> String {
    let mut results = Vec::new();
    for r in &rec.e2e {
        let metrics = r
            .metrics()
            .into_iter()
            .map(|(name, m)| {
                let s = m.samples;
                (
                    name.to_string(),
                    obj(vec![
                        ("unit", text(unit_of(name).unwrap_or(""))),
                        ("value", num(m.value)),
                        ("median", num(s.median)),
                        ("min", num(s.min)),
                        ("max", num(s.max)),
                        ("n", Value::U64(s.n as u64)),
                    ]),
                )
            })
            .collect();
        results.push(obj(vec![
            ("workload", text(r.workload.name())),
            ("pass", text("e2e")),
            ("attempted", Value::U64(r.attempted)),
            ("failed", Value::U64(r.failed)),
            ("correct", Value::Bool(r.correct())),
            (
                "digest",
                r.digest
                    .map_or(Value::Null, |d| Value::Str(format!("{d:016x}"))),
            ),
            ("metrics", Value::Object(metrics)),
        ]));
    }
    for r in &rec.traced {
        let metrics = r
            .metrics
            .iter()
            .map(|&(name, v)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("unit", text(unit_of(name).unwrap_or(""))),
                        ("value", num(v)),
                    ]),
                )
            })
            .collect();
        let ledger = r
            .ledger
            .iter()
            .map(|row| {
                obj(vec![
                    ("layer", text(row.layer)),
                    ("ops", num(row.ops)),
                    ("ns_per_op", num(row.ns_per_op)),
                    ("busy_s", num(row.busy_s)),
                ])
            })
            .collect();
        results.push(obj(vec![
            ("workload", text(r.workload.name())),
            ("pass", text("traced")),
            ("attempted", Value::U64(r.attempted)),
            ("failed", Value::U64(r.failed)),
            ("correct", Value::Bool(r.correct())),
            ("wall_s", num(r.wall_s)),
            ("metrics", Value::Object(metrics)),
            ("ledger", Value::Array(ledger)),
        ]));
    }
    let doc = obj(vec![
        ("seed", Value::U64(rec.seed)),
        ("seconds", num(rec.seconds)),
        ("host", text(host)),
        ("results", Value::Array(results)),
    ]);
    serde_json::to_string(&doc).expect("values serialize")
}

/// Member `key` of object `v`.
pub(crate) fn member<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    Value::lookup(v.as_object()?, key)
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// Per workload and e2e metric, the values of every run in a file of
/// `--json` records, in file order.
type Values = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn e2e_values(records: &str) -> Result<Values, String> {
    let mut out: Values = Vec::new();
    for (i, line) in records
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let doc: Value = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
        let results = member(&doc, "results")
            .and_then(Value::as_array)
            .ok_or_else(|| at("not a benchmark record".into()))?;
        for r in results {
            if member(r, "pass").and_then(Value::as_str) != Some("e2e") {
                continue;
            }
            let workload = member(r, "workload")
                .and_then(Value::as_str)
                .ok_or_else(|| at("result without a workload".into()))?;
            let metrics = member(r, "metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| at(format!("{workload}: result without metrics")))?;
            let idx = match out.iter().position(|(w, _)| w == workload) {
                Some(idx) => idx,
                None => {
                    out.push((workload.to_string(), Vec::new()));
                    out.len() - 1
                }
            };
            for (name, m) in metrics {
                let v = member(m, "value")
                    .and_then(as_f64)
                    .ok_or_else(|| at(format!("{workload}/{name}: no value")))?;
                let list = &mut out[idx].1;
                match list.iter_mut().find(|(n, _)| n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => list.push((name.clone(), vec![v])),
                }
            }
        }
    }
    Ok(out)
}

/// Compares two files of `--json` records (one run or many per side):
/// per workload and end-to-end metric, each side's median over its runs
/// with the extremes, the change of the medians, the allowed share and a
/// verdict. Returns the table and whether any metric regressed.
///
/// # Errors
///
/// Returns a message when either text is not a file of benchmark records.
pub fn compare(before: &str, after: &str) -> Result<(String, bool), String> {
    let before = e2e_values(before).map_err(|e| format!("before: {e}"))?;
    let after = e2e_values(after).map_err(|e| format!("after: {e}"))?;
    let mut out = format!(
        "{:<14} {:<12} {:>34} {:>34} {:>8} {:>7}  verdict\n",
        "workload",
        "metric",
        "before median [min, max] (runs)",
        "after median [min, max] (runs)",
        "change",
        "bound"
    );
    let mut regressed = false;
    for (workload, metrics) in &after {
        let Some((_, base)) = before.iter().find(|(w, _)| w == workload) else {
            let _ = writeln!(out, "{workload:<14} (not in the before records)");
            continue;
        };
        for m in &END_TO_END {
            let find = |list: &[(String, Vec<f64>)]| {
                list.iter()
                    .find(|(n, _)| n == m.name)
                    .and_then(|(_, vs)| Summary::of(vs))
            };
            let (Some(b), Some(a)) = (find(base), find(metrics)) else {
                continue;
            };
            let (delta, allowed, v) = verdict(m, &b, &a);
            regressed |= v == Verdict::Regressed;
            let cell =
                |s: &Summary| format!("{:.6} [{:.6}, {:.6}] ({})", s.median, s.min, s.max, s.n);
            let _ = writeln!(
                out,
                "{workload:<14} {:<12} {:>34} {:>34} {:>+7.2}% {:>6.2}%  {}",
                m.name,
                cell(&b),
                cell(&a),
                delta * 100.0,
                allowed * 100.0,
                v.label()
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, job_s: f64) -> String {
        format!(
            r#"{{"seed":0,"seconds":1,"host":"h","results":[{{"workload":"{workload}","pass":"e2e","metrics":{{"job_s":{{"unit":"s","value":{job_s}}}}}}}]}}"#
        )
    }

    #[test]
    fn compare_summarises_runs_per_side() {
        let before = [1.00, 1.01, 0.99]
            .map(|v| record("l1-stream", v))
            .join("\n");
        let after = [1.50, 1.52, 1.49]
            .map(|v| record("l1-stream", v))
            .join("\n");
        let (table, regressed) = compare(&before, &after).unwrap();
        assert!(regressed, "{table}");
        assert!(
            table.contains("regressed") && table.contains("(3)"),
            "{table}"
        );
        let (table, regressed) = compare(&before, &before).unwrap();
        assert!(!regressed && table.contains("within bound"), "{table}");
    }

    #[test]
    fn compare_reports_workloads_missing_before() {
        let (table, regressed) =
            compare(&record("l1-stream", 1.0), &record("mesh16-spill", 1.0)).unwrap();
        assert!(!regressed);
        assert!(
            table.contains("mesh16-spill   (not in the before records)"),
            "{table}"
        );
    }

    #[test]
    fn compare_rejects_other_files() {
        assert!(compare("{}", &record("l1-stream", 1.0)).is_err());
        assert!(compare("not json", &record("l1-stream", 1.0)).is_err());
    }
}
