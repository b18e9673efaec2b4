//! Trace replay does not depend on the order of the trace file. A replay
//! schedules every request at its recorded cycle before the run starts,
//! so a trace whose time order is reversed, with the requests of each
//! cycle kept in their recorded order, must replay to the same result.
//! The recorded order parks its far-future requests in the event queue's
//! in-order run, and the reversed order sends them to its overflow heap,
//! so this pins both far-tier containers end to end.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::Command;

use least_tlb::trace::TranslationTrace;
use least_tlb::{Policy, RunResult, System, SystemConfig, WorkloadSpec};
use workloads::multi_app_workloads;

/// Cycles the event queue's calendar ring spans: requests at or beyond
/// this many cycles from the start are parked in the far tier.
const RING: u64 = 4096;

/// `simulate --quick --gpus 4 --budget 200000 --policy least-spill`.
fn w10_config() -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down(4);
    cfg.instructions_per_gpu = 200_000;
    cfg.policy = Policy::least_tlb_spilling();
    cfg
}

fn w10_spec() -> WorkloadSpec {
    let mixes = multi_app_workloads();
    let w10 = mixes.iter().find(|m| m.name == "W10").expect("W10 exists");
    WorkloadSpec::from_mix(w10)
}

/// The trace with its time order reversed: the latest cycle first, and
/// the requests of each cycle in their recorded order.
fn reversed(trace: &TranslationTrace) -> TranslationTrace {
    let mut entries = Vec::with_capacity(trace.len());
    for same_cycle in trace.entries.chunk_by(|a, b| a.cycle == b.cycle).rev() {
        entries.extend_from_slice(same_cycle);
    }
    TranslationTrace {
        spec: trace.spec.clone(),
        entries,
    }
}

/// Checks that `trace` is worth reversing: recorded in time order, with
/// enough requests in the far tier to exercise it.
fn assert_far_and_in_order(trace: &TranslationTrace) {
    assert!(
        trace.entries.is_sorted_by_key(|e| e.cycle),
        "recorded in time order"
    );
    let far = trace.entries.iter().filter(|e| e.cycle >= RING).count();
    assert!(far > 500, "only {far} requests beyond the ring");
}

fn without_wall_time(mut r: RunResult) -> String {
    r.telemetry.as_mut().expect("telemetry").wall_seconds = 0.0;
    serde_json::to_string(&r).expect("RunResult serializes")
}

#[test]
fn reversed_trace_replays_to_the_same_result() {
    let mut cfg = w10_config();
    cfg.record_trace = true;
    let trace = System::new(&cfg, &w10_spec())
        .expect("W10 builds")
        .run()
        .trace
        .expect("trace recorded");
    assert_far_and_in_order(&trace);
    cfg.record_trace = false;
    let back = reversed(&trace);
    assert_ne!(back.entries, trace.entries);
    let forward = trace.replay(&cfg).expect("replays");
    let backward = back.replay(&cfg).expect("replays");
    assert_eq!(without_wall_time(forward), without_wall_time(backward));
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn simulate(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `simulate --json` output without the host wall-time line.
fn replay_json(trace: &str) -> String {
    let json = simulate(&[
        "--quick",
        "--gpus",
        "4",
        "--policy",
        "least-spill",
        "--replay-trace",
        trace,
        "--json",
    ]);
    json.lines()
        .filter(|line| !line.trim_start().starts_with("\"wall_seconds\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn simulate_replays_a_reversed_trace_file_to_the_same_output() {
    let recorded = scratch("w10-recorded.jsonl");
    let reversed_path = scratch("w10-reversed.jsonl");
    let (rec, rev) = (
        recorded.to_str().expect("utf-8 path"),
        reversed_path.to_str().expect("utf-8 path"),
    );
    simulate(&[
        "--quick",
        "--gpus",
        "4",
        "--budget",
        "200000",
        "--policy",
        "least-spill",
        "--workload",
        "W10",
        "--record-trace",
        rec,
    ]);
    let trace = TranslationTrace::read_from(BufReader::new(
        File::open(&recorded).expect("trace recorded"),
    ))
    .expect("trace parses");
    assert_far_and_in_order(&trace);
    reversed(&trace)
        .write_to(BufWriter::new(
            File::create(&reversed_path).expect("reversed trace created"),
        ))
        .expect("reversed trace written");
    let forward = replay_json(rec);
    assert!(forward.contains("\"telemetry\""), "{forward}");
    assert_eq!(forward, replay_json(rev));
}
