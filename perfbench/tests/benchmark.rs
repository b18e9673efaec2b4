//! `BENCHMARK.json` against the benchmark's own tables, and a smoke run
//! of every workload through the benchmark's code at a hundredth of its
//! instruction budgets.

use perfbench::layers::traced_pass;
use perfbench::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER, SETUP_S};
use perfbench::spans::Spans;
use perfbench::workload::{e2e_pass, Params, Workload};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn member<'a>(v: &'a Value, key: &str) -> &'a Value {
    Value::lookup(v.as_object().expect("an object"), key)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn string(v: &Value, key: &str) -> String {
    member(v, key).as_str().expect("a string").to_string()
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a Vec<Value> {
    member(doc, key).as_array().expect("an array")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_has_the_required_shape() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        *member(&doc, "paths"),
        Value::Array(vec![Value::Str("perfbench".into())])
    );
    let Value::U64(seconds) = *member(&doc, "run_seconds") else {
        panic!("run_seconds is a whole number");
    };
    assert!((1..=60).contains(&seconds));
    let command = entries(&doc, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command arguments are strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    for w in entries(&doc, "workloads") {
        assert_eq!(keys(w), ["name", "why"]);
    }
    for m in entries(&doc, "end_to_end") {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
    }
    for m in entries(&doc, "per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
}

#[test]
fn benchmark_json_names_exactly_what_the_benchmark_emits() {
    let doc = benchmark_json();
    let workloads = entries(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(string(entry, "name"), w.name());
        assert_eq!(string(entry, "why"), w.why());
    }

    let e2e = entries(&doc, "end_to_end");
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(string(entry, "name"), m.name);
        assert_eq!(string(entry, "unit"), m.unit);
        assert_eq!(string(entry, "better"), m.better.as_str());
        assert_eq!(*member(entry, "bound"), Value::F64(m.bound), "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == SETUP_S)
        .expect("setup_s is listed");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));

    let layers = entries(&doc, "per_layer");
    assert!(!layers.is_empty() && layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(string(entry, "name"), m.name);
        assert_eq!(string(entry, "unit"), m.unit);
        assert_eq!(string(entry, "better"), m.better.as_str());
    }

    let mut names: Vec<String> = workloads
        .iter()
        .chain(e2e)
        .chain(layers)
        .map(|v| string(v, "name"))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    for m in e2e.iter().chain(layers) {
        assert!(valid_unit(&string(m, "unit")));
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

/// Runs `w`'s e2e pass and two traced passes at a hundredth of its
/// budgets, checking what every full-size run must also satisfy.
fn smoke(w: Workload) {
    let p = Params {
        workload: w,
        seed: 3,
        shrink: 100,
    };
    let e2e = e2e_pass(p, 0.0);
    assert!(e2e.correct() && e2e.failed == 0, "{e2e:?}");
    let emitted: Vec<&str> = e2e.metrics().iter().map(|(n, _)| *n).collect();
    let named: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(emitted, named);
    for (name, m) in e2e.metrics() {
        assert!(m.value.is_finite() && m.value > 0.0, "{name} = {}", m.value);
    }

    let mut spans = Spans::new();
    let first = traced_pass(p, 0.0, &mut spans);
    let second = traced_pass(p, 0.0, &mut spans);
    for r in [&first, &second] {
        assert!(r.correct() && r.failed == 0, "{r:?}");
        let emitted: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
        let named: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(emitted, named);
        assert!(r.metrics.iter().all(|(_, v)| v.is_finite()), "{r:?}");
    }
    for ((name, a), (_, b)) in first.metrics.iter().zip(&second.metrics) {
        let exact = PER_LAYER.iter().any(|m| m.name == *name && m.exact);
        if exact {
            assert_eq!(a, b, "{} {name} differs between identical runs", w.name());
        }
    }

    let reseeded = e2e_pass(Params { seed: 4, ..p }, 0.0);
    assert!(reseeded.correct());
    assert_ne!(
        e2e.digest,
        reseeded.digest,
        "{}: the seed changes the inputs",
        w.name()
    );
}

#[test]
fn smoke_suite_quick() {
    smoke(Workload::SuiteQuick);
}

#[test]
fn smoke_l1_stream() {
    smoke(Workload::L1Stream);
}

#[test]
fn smoke_replay_spill() {
    smoke(Workload::ReplaySpill);
}

#[test]
fn smoke_mesh16_spill() {
    smoke(Workload::Mesh16Spill);
}
