//! General-purpose simulation driver.
//!
//! ```text
//! simulate [--workload ST|W4|...] [--policy baseline|least|least-spill|
//!           infinite|probing|exclusive] [--gpus N] [--budget N] [--seed N]
//!           [--quick] [--page-size 4k|2m] [--json]
//!           [--topology flat|ring|mesh|switch] [--link-cycles N]
//!           [--record-trace FILE] [--replay-trace FILE]
//!           [--breakdown] [--metrics-json FILE]
//!           [--trace-out FILE] [--trace-sample N]
//!           [--timeline-json FILE] [--timeline-window N]
//!           [--profile-json FILE]
//! ```
//!
//! Prints a human-readable summary, or the full [`RunResult`] as JSON with
//! `--json`. `--record-trace` dumps the L2-level request stream for later
//! `--replay-trace` runs (trace-driven policy comparison).
//!
//! `--topology` wires the GPUs with an explicit interconnect (per-link
//! telemetry appears in the `--json` output's `fabric` section);
//! `--link-cycles N` adds N cycles of per-message link serialization
//! (default 0 — infinite bandwidth, so `--topology flat` reproduces the
//! default model exactly).
//!
//! Observability: `--breakdown` adds the per-app translation-latency
//! breakdown to the summary, `--metrics-json FILE` writes the full metrics
//! snapshot (schema in `EXPERIMENTS.md`), and `--trace-out FILE` writes a
//! Chrome trace-event file loadable at <https://ui.perfetto.dev>
//! (`--trace-sample N` keeps every Nth span).
//!
//! Timeline & profiling: `--timeline-json FILE` writes the epoch-windowed
//! timeline series (deterministic — byte-identical across runs and
//! `--jobs`); `--timeline-window N` overrides the window length in cycles
//! (0 = auto, ~256 windows per run). When a timeline is collected and
//! `--trace-out` is given, the windows also appear as Perfetto counter
//! tracks in the trace file. `--profile-json FILE` enables the host-side
//! handler profiler and writes its wall-time report; the report is
//! non-deterministic by nature and is excluded from `--json` output.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use least_tlb::trace::TranslationTrace;
use least_tlb::{latency_breakdown, Policy, RunResult, System, SystemConfig, WorkloadSpec};
use mgpu_types::PageSize;
use workloads::{mix_workloads, multi_app_workloads, scaling_workloads, AppKind};

/// Reports a usage error without a panic backtrace and exits with the
/// conventional usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("simulate: {msg}");
    eprintln!(
        "usage: simulate [--workload NAME] [--policy NAME] [--gpus N] [--budget N] \
         [--seed N] [--quick] [--page-size 4k|2m] [--json] \
         [--topology flat|ring|mesh|switch] [--link-cycles N] \
         [--record-trace FILE] [--replay-trace FILE] [--breakdown] \
         [--metrics-json FILE] [--trace-out FILE] [--trace-sample N] \
         [--timeline-json FILE] [--timeline-window N] [--profile-json FILE]"
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    policy: String,
    gpus: usize,
    budget: u64,
    seed: u64,
    quick: bool,
    page_size: PageSize,
    json: bool,
    topology: Option<least_tlb::Topology>,
    link_cycles: u64,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    breakdown: bool,
    metrics_json: Option<String>,
    trace_out: Option<String>,
    trace_sample: u64,
    timeline_json: Option<String>,
    timeline_window: u64,
    profile_json: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: "ST".into(),
        policy: "least".into(),
        gpus: 4,
        budget: 4_000_000,
        seed: 0x1ea5_71b5,
        quick: false,
        page_size: PageSize::Size4K,
        json: false,
        topology: None,
        link_cycles: 0,
        record_trace: None,
        replay_trace: None,
        breakdown: false,
        metrics_json: None,
        trace_out: None,
        trace_sample: 1,
        timeline_json: None,
        timeline_window: 0,
        profile_json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} takes a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = val(),
            "--policy" => a.policy = val(),
            "--gpus" => {
                a.gpus = val()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--gpus takes a GPU count, e.g. --gpus 4"));
            }
            "--budget" => {
                a.budget = val().parse().unwrap_or_else(|_| {
                    usage_error("--budget takes an instruction count, e.g. --budget 4000000")
                });
            }
            "--seed" => {
                a.seed = val()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes a 64-bit seed, e.g. --seed 42"));
            }
            "--quick" => a.quick = true,
            "--page-size" => {
                a.page_size = match val().to_ascii_lowercase().as_str() {
                    "4k" => PageSize::Size4K,
                    "2m" => PageSize::Size2M,
                    other => usage_error(&format!("--page-size accepts 4k or 2m, got '{other}'")),
                }
            }
            "--json" => a.json = true,
            "--topology" => {
                a.topology = Some(val().parse().unwrap_or_else(|e: String| usage_error(&e)));
            }
            "--link-cycles" => {
                a.link_cycles = val().parse().unwrap_or_else(|_| {
                    usage_error("--link-cycles takes a cycle count, e.g. --link-cycles 4")
                });
            }
            "--record-trace" => a.record_trace = Some(val()),
            "--replay-trace" => a.replay_trace = Some(val()),
            "--breakdown" => a.breakdown = true,
            "--metrics-json" => a.metrics_json = Some(val()),
            "--trace-out" => a.trace_out = Some(val()),
            "--trace-sample" => {
                a.trace_sample = val().parse().unwrap_or_else(|_| {
                    usage_error("--trace-sample takes a span count, e.g. --trace-sample 16")
                });
            }
            "--timeline-json" => a.timeline_json = Some(val()),
            "--timeline-window" => {
                a.timeline_window = val().parse().unwrap_or_else(|_| {
                    usage_error(
                        "--timeline-window takes a cycle count (0 = auto), \
                         e.g. --timeline-window 4096",
                    )
                });
            }
            "--profile-json" => a.profile_json = Some(val()),
            other => usage_error(&format!(
                "unknown flag '{other}'; accepted flags are --workload, --policy, \
                 --gpus, --budget, --seed, --quick, --page-size, --json, \
                 --topology, --link-cycles, \
                 --record-trace, --replay-trace, --breakdown, --metrics-json, \
                 --trace-out, --trace-sample, --timeline-json, --timeline-window, \
                 --profile-json"
            )),
        }
    }
    if a.link_cycles > 0 && a.topology.is_none() {
        usage_error("--link-cycles only applies to an explicit --topology");
    }
    a
}

fn resolve_policy(name: &str) -> Policy {
    match name {
        "baseline" => Policy::baseline(),
        "least" => Policy::least_tlb(),
        "least-spill" => Policy::least_tlb_spilling(),
        "infinite" => Policy::infinite_iommu(),
        "probing" => Policy::probing_ring(),
        "exclusive" => Policy::exclusive(),
        other => usage_error(&format!(
            "--policy accepts baseline, least, least-spill, infinite, probing, \
             exclusive; got '{other}'"
        )),
    }
}

fn resolve_workload(name: &str, gpus: usize) -> WorkloadSpec {
    if let Some(kind) = AppKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
    {
        return WorkloadSpec::single_app(kind, gpus);
    }
    multi_app_workloads()
        .iter()
        .chain(scaling_workloads(8).iter())
        .chain(scaling_workloads(16).iter())
        .chain(scaling_workloads(32).iter())
        .chain(scaling_workloads(64).iter())
        .chain(mix_workloads().iter())
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .map_or_else(
            || {
                usage_error(&format!(
                    "--workload accepts an application name or a mix name \
                 W1..W19, S32, S64; got '{name}'"
                ))
            },
            WorkloadSpec::from_mix,
        )
}

fn summarize(r: &RunResult) {
    println!(
        "workload {:>6}: {} cycles, {} events",
        r.workload, r.end_cycle, r.events
    );
    println!(
        "  IOMMU: {} requests, hit {:.1}%, remote {:.1}%, {} walks ({} wasted, {} cancelled), {} spills",
        r.iommu.requests,
        r.iommu_hit_rate() * 100.0,
        r.remote_hit_rate() * 100.0,
        r.iommu.walks,
        r.iommu.wasted_walks,
        r.iommu.cancelled_walks,
        r.iommu.spills,
    );
    for a in &r.apps {
        let s = &a.stats;
        println!(
            "  {:>4} on {:?}: ipc={:.2} mpki={:.3} l1={:.1}% l2={:.1}% iommu={:.1}%",
            a.kind.name(),
            a.gpus.iter().map(|g| g.0).collect::<Vec<_>>(),
            s.ipc(),
            s.mpki(),
            s.l1_hit_rate() * 100.0,
            s.l2_hit_rate() * 100.0,
            s.iommu_hit_rate() * 100.0,
        );
    }
    if let Some(t) = &r.telemetry {
        println!(
            "  telemetry: {:.2}s wall, {} instr, {} events delivered \
             ({} scheduled, queue peak {}), {:.2} Minstr/s, {:.2} Mevents/s",
            t.wall_seconds,
            t.instructions,
            t.events_delivered,
            t.events_scheduled,
            t.queue_high_water,
            t.sim_rate() / 1e6,
            t.event_rate() / 1e6,
        );
    }
    if let Some(m) = &r.metrics {
        if !m.is_empty() {
            println!("  translation-latency breakdown (cycles):");
            println!("{}", latency_breakdown(m));
        }
    }
}

fn main() {
    let args = parse_args();
    let mut cfg = if args.quick {
        SystemConfig::scaled_down(args.gpus)
    } else {
        SystemConfig::paper(args.gpus)
    };
    cfg.policy = resolve_policy(&args.policy);
    cfg.instructions_per_gpu = args.budget;
    cfg.seed = args.seed;
    cfg.page_size = args.page_size;
    if let Some(topology) = args.topology {
        let mut fc = least_tlb::FabricConfig::new(topology);
        fc.message_cycles = args.link_cycles;
        cfg.fabric = Some(fc);
    }
    cfg.record_trace = args.record_trace.is_some();
    cfg.obs.metrics = args.breakdown || args.metrics_json.is_some();
    cfg.obs.trace = args.trace_out.is_some();
    cfg.obs.trace_sample = args.trace_sample;
    cfg.obs.timeline = args.timeline_json.is_some() || args.timeline_window > 0;
    cfg.obs.timeline_window = args.timeline_window;
    cfg.obs.profile = args.profile_json.is_some();

    // Created before the run so a bad path fails fast, not after it.
    let record_file = args.record_trace.as_ref().map(|path| {
        File::create(path)
            .unwrap_or_else(|e| usage_error(&format!("--record-trace {path}: cannot create: {e}")))
    });

    let mut result = if let Some(path) = &args.replay_trace {
        let file = File::open(path)
            .unwrap_or_else(|e| usage_error(&format!("--replay-trace {path}: cannot open: {e}")));
        let trace = TranslationTrace::read_from(BufReader::new(file))
            .unwrap_or_else(|e| usage_error(&format!("--replay-trace {path}: bad trace: {e}")));
        eprintln!(
            "replaying {} recorded requests from {path} under policy '{}'",
            trace.len(),
            args.policy
        );
        trace
            .replay(&cfg)
            .unwrap_or_else(|e| usage_error(&format!("--replay-trace {path}: {e}")))
    } else {
        let spec = resolve_workload(&args.workload, args.gpus);
        System::new(&cfg, &spec)
            .unwrap_or_else(|e| usage_error(&format!("--workload {}: {e}", args.workload)))
            .run()
    };

    if let (Some(path), Some(file)) = (&args.record_trace, record_file) {
        let trace = result.trace.take().expect("trace was recorded");
        trace
            .write_to(BufWriter::new(file))
            .unwrap_or_else(|e| usage_error(&format!("--record-trace {path}: cannot write: {e}")));
        eprintln!("recorded {} requests to {path}", trace.len());
    }

    if let Some(path) = &args.trace_out {
        let events = result
            .trace_events
            .take()
            .expect("trace events were collected");
        std::fs::write(path, events).expect("trace-event file writes");
        eprintln!("wrote Chrome trace events to {path} (load at https://ui.perfetto.dev)");
    }

    if let Some(path) = &args.metrics_json {
        let metrics = result.metrics.as_ref().expect("metrics were collected");
        let json = serde_json::to_string_pretty(metrics).expect("serializable");
        std::fs::write(path, json).expect("metrics file writes");
        eprintln!("wrote metrics snapshot to {path}");
    }

    if let Some(path) = &args.timeline_json {
        let timeline = result.timeline.as_ref().expect("timeline was collected");
        let json = serde_json::to_string_pretty(timeline).expect("serializable");
        std::fs::write(path, json).expect("timeline file writes");
        eprintln!(
            "wrote timeline ({} windows of {} cycles) to {path}",
            timeline.windows.len(),
            timeline.window
        );
    }

    if let Some(path) = &args.profile_json {
        // The profile is host wall-time: informative, but never part of a
        // deterministic artifact. Take it out of the result so --json
        // output stays byte-comparable across machines and runs.
        let profile = result.profile.take().expect("profiler was enabled");
        let json = serde_json::to_string_pretty(&profile).expect("serializable");
        std::fs::write(path, json).expect("profile file writes");
        for h in profile.handlers.iter().take(5) {
            eprintln!(
                "  profile: {:<14} {:>12} events  {:>8} ns/event",
                h.name, h.events, h.ns_per_event
            );
        }
        eprintln!("wrote handler profile to {path}");
    }

    if args.json {
        result.trace = None;
        result.profile = None;
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serializable")
        );
    } else {
        summarize(&result);
    }
}
