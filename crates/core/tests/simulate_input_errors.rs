//! `simulate` rejects bad trace input and unsupported policy
//! combinations, and `simulate` and `figures` reject output paths they
//! cannot write, with exit code 2 and a message naming the file, flag or
//! combination and the cause, never with a panic. Output paths and the
//! policy are checked before the run, so these cases cost no simulation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs")
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Asserts a clean usage-style failure whose message contains `needle`.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(stderr.contains(needle), "no '{needle}' in: {stderr}");
}

#[test]
fn missing_replay_trace_exits_2() {
    let path = scratch("no-such-trace.jsonl");
    let path = path.to_str().expect("utf-8 path");
    let out = simulate(&["--quick", "--replay-trace", path]);
    assert_rejected(&out, path);
    assert_rejected(&out, "cannot open");
}

#[test]
fn garbled_trace_line_exits_2_naming_the_line() {
    let path = scratch("garbled-trace.jsonl");
    let p = path.to_str().expect("utf-8 path");
    let rec = simulate(&[
        "--quick",
        "--budget",
        "20000",
        "--workload",
        "ST",
        "--record-trace",
        p,
    ]);
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let mut text = std::fs::read_to_string(&path).expect("trace recorded");
    let lines = text.lines().count();
    text.push_str("{\"cycle\": 12, \"gpu\": oops}\n");
    std::fs::write(&path, text).expect("trace rewritten");
    let out = simulate(&["--quick", "--replay-trace", p]);
    assert_rejected(&out, p);
    assert_rejected(&out, &format!("line {}", lines + 1));
}

#[test]
fn uncreatable_record_trace_exits_2() {
    let path = scratch("no-such-dir/trace.jsonl");
    let path = path.to_str().expect("utf-8 path");
    let out = simulate(&["--quick", "--budget", "20000", "--record-trace", path]);
    assert_rejected(&out, path);
    assert_rejected(&out, "cannot create");
}

#[test]
fn out_of_range_trace_request_exits_2() {
    let path = scratch("out-of-range-trace.jsonl");
    let p = path.to_str().expect("utf-8 path");
    let header = r#"{"placements":[{"app":"St","gpus":[0,1,2,3]}],"name":"ST"}"#;
    let line = r#"{"cycle":27,"gpu":9,"asid":0,"vpn":0}"#;
    std::fs::write(&path, format!("{header}\n{line}\n")).expect("trace written");
    let out = simulate(&["--quick", "--replay-trace", p]);
    assert_rejected(&out, p);
    assert_rejected(&out, "GPU 9");
}

#[test]
fn simulate_output_in_missing_directory_exits_2() {
    for flag in [
        "--trace-out",
        "--metrics-json",
        "--timeline-json",
        "--profile-json",
    ] {
        let path = scratch(&format!("no-such-dir/{}.json", &flag[2..]));
        let path = path.to_str().expect("utf-8 path");
        let out = simulate(&[
            "--quick",
            "--budget",
            "20000",
            "--workload",
            "ST",
            flag,
            path,
        ]);
        assert_rejected(&out, &format!("{flag} {path}"));
        assert_rejected(&out, "cannot create");
    }
}

#[test]
fn figures_output_in_missing_directory_exits_2() {
    for (flag, cause) in [
        ("--metrics-json", "cannot create"),
        ("--timeline-json", "cannot create"),
        ("--profile-json", "cannot create"),
        ("--telemetry-json", "cannot create"),
        ("--trace-out", "cannot use directory"),
    ] {
        let path = scratch(&format!("no-such-dir/{}.json", &flag[2..]));
        let path = path.to_str().expect("utf-8 path");
        let out = figures(&["--quick", "--budget", "20000", flag, path, "fig2"]);
        assert_rejected(&out, &format!("{flag} {path}"));
        assert_rejected(&out, cause);
    }
}

#[test]
fn ring_probing_over_a_multi_hop_topology_exits_2() {
    for topology in ["ring", "mesh", "switch"] {
        let out = simulate(&[
            "--quick",
            "--workload",
            "ST",
            "--policy",
            "probing",
            "--topology",
            topology,
        ]);
        assert_rejected(&out, "unsupported policy combination");
        assert_rejected(&out, &format!("ring probing over the {topology} topology"));
    }
}

#[test]
fn replay_under_ring_probing_over_a_mesh_exits_2() {
    // The replay path builds its system through the same check.
    let path = scratch("probing-mesh-trace.jsonl");
    let p = path.to_str().expect("utf-8 path");
    let header = r#"{"placements":[{"app":"St","gpus":[0,1,2,3]}],"name":"ST"}"#;
    let line = r#"{"cycle":27,"gpu":1,"asid":0,"vpn":5}"#;
    std::fs::write(&path, format!("{header}\n{line}\n")).expect("trace written");
    let out = simulate(&[
        "--quick",
        "--policy",
        "probing",
        "--topology",
        "mesh",
        "--replay-trace",
        p,
    ]);
    assert_rejected(&out, p);
    assert_rejected(&out, "ring probing over the mesh topology");
}
