//! The least-TLB simulator's benchmark: how fast the simulator runs, end
//! to end and layer by layer.
//!
//! The paper's results come from simulation, so the simulator's speed
//! decides how many configurations anyone can explore. This package
//! measures that host speed. It does not measure simulated speed-ups:
//! the model is validated only against the paper's numbers in
//! `EXPERIMENTS.md`, and this benchmark gives no accuracy figure.
//!
//! # Running
//!
//! From the repository root (the package is a workspace of its own and
//! builds the simulator crates by path):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
//!     [--json RUNS.jsonl] [--trace-out SPANS.json]
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     --compare BEFORE.jsonl AFTER.jsonl
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Everything runs in one process on one thread. Without `--workload`
//! all four workloads run; without `--trace` both passes run; each pass
//! measures for about `S` seconds (6 by default, which keeps the whole
//! default run near two minutes on two CPUs; `BENCHMARK.json` asks for
//! 20, one workload and pass per process). Every metric is printed by
//! name with its unit, and the last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (bare names for one workload, `<workload>/<metric>` for
//! several). `--json` appends the run's full record, ledger included, as
//! one line; `--trace-out` writes the traced passes' spans as Chrome
//! trace-event JSON.
//!
//! # Workloads
//!
//! All four are closed batch jobs: a fixed amount of simulated work run to
//! completion, jobs back to back. Modelled TLBs start empty in every job,
//! as in the paper's first-full-execution method and as in a user's run.
//! `--seed N` derives every simulator seed (seed 0 is the simulator's own
//! default), so the same seed gives the same inputs.
//!
//! | workload       | job                                                          | why                                                                       |
//! |----------------|--------------------------------------------------------------|---------------------------------------------------------------------------|
//! | `suite-quick`  | `run_suite(ALL_EXPERIMENTS, ExpOptions::quick(), 1)`: 28 runners, 438 simulations, 688.0M instructions | what users run ("regenerate every figure"): every policy, topology, 2 MB pages, and 438 `System::new` calls |
//! | `l1-stream`    | AES on 4 scaled-down GPUs under least-TLB, 25M instructions per GPU | 98.6% L1 TLB hits and under two hundred ATS requests: the generator, CU/L1 and event queue do the work, the translation hierarchy idles |
//! | `replay-spill` | W10 (MT, MT, ST, ST) under spilling least-TLB at 20M/GPU is recorded (input generation, untimed); the job replays its 135,611 L2 requests through `System::new_scripted` + `inject_translation` + `drain` | no wavefront path at all: L2, tracker, IOMMU TLB, walkers, spill engine and fabric do the work, and the event queue is bulk-loaded to the whole stream instead of a few hundred events |
//! | `mesh16-spill` | W16 on 16 GPUs under spilling least-TLB, 2D mesh with `message_cycles = 4`, 1.25M instructions per GPU | the only workload with multi-hop `FabricHop` forwarding and link contention on the hot path |
//!
//! `l1-stream` and `replay-spill` are each other's control: a change to
//! the wavefront path should show on the first and not the second, a
//! change to the translation hierarchy the other way round.
//!
//! # End-to-end pass and metrics
//!
//! Every observer is off. After one untimed warm-up job (not for
//! `suite-quick`, whose job is 438 independent cold simulations), jobs
//! run until about `S` seconds are measured, at least three.
//!
//! | metric        | unit | bound | value                                                    |
//! |---------------|------|-------|----------------------------------------------------------|
//! | `job_s`       | s    | 25%   | host seconds of one job: the fastest timed job; for `suite-quick`, each runner's fastest, summed |
//! | `setup_s`     | s    | 25% (floor 2 ms) | median host seconds of set-up: `System::new`; for `replay-spill`, `new_scripted` plus the injections; for `suite-quick`, building one system of each of its nineteen 4-GPU workloads |
//! | `peak_rss_mb` | MB   | 25% (floor 2 MB) | peak resident memory (`VmHWM`, reset after input generation); isolated only when the workload runs alone in its process, since heap an earlier workload freed stays resident |
//!
//! Why the fastest job: on the shared 2-CPU host this was built on, the
//! noise only ever adds time, in stretches of seconds to minutes (a
//! process's median job was up to 50% slower than its fastest, while the
//! fastest of dozens of quarter-second jobs varied by 2–8% between
//! processes). That is also the repository's earlier best-of-N protocol.
//! Set-up samples are taken throughout the run and reported as their
//! median. A bound is the share of the parent's value by which a metric
//! may worsen before a change counts as a regression; `--compare` also
//! applies the absolute floors, which keep sub-millisecond set-ups and
//! megabyte-scale memory from tripping on noise. The bounds are wide
//! because the host is noisy and because `l1-stream`'s peak memory moves
//! by about 1 MB with the seed (the event queue's per-cycle buckets grow
//! to different capacities); `baseline.json` has the measured spreads. A
//! finer claim needs the paired protocol below. Per-event rate is
//! deliberately not an end-to-end metric, since fusing events would
//! "worsen" it.
//!
//! # Traced pass and per-layer metrics
//!
//! First, rounds of jobs with every observer off and with each observer
//! alone (metrics, timeline, profiler), interleaved, until about `S`
//! seconds have passed: they price the observers and give the wall time
//! of the ledger (the fastest observer-free job). Then one job with
//! `cfg.obs.metrics`, `cfg.obs.profile` and `cfg.record_trace` on (and an
//! explicit fabric section, flat where the workload is flat, so link
//! counters are exported). Its simulated output must equal the e2e job's.
//! It yields exact per-layer operation counts from the `RunResult`, the
//! metrics registry and the profiler's per-variant event counts.
//!
//! Each layer is then timed from outside ([`layers`]): microbenchmarks
//! call the layer's public functions on inputs from that run (the
//! generators as `System::new` builds them, the recorded L2 request
//! stream, the configuration's own fabric), three times, keeping the
//! cheapest. The
//! ledger is Σ(count × ns/op) per layer against the wall time, and
//! `core` is the residual: MSHRs, the pending table, dispatch glue and
//! everything the isolated microbenchmarks do not see.
//!
//! `suite-quick`'s counts are sums over its runs. `run_suite` exports no
//! tracker counters, no link counters of flat-fabric runs and no per-run
//! queue depth; those, and the microbenchmarks' inputs, come from a
//! representative run (W10 under spilling least-TLB at the suite's
//! scale), with tracker and fabric counts scaled by ATS requests.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | per-layer metrics | should move | on |
//! |-------------------|-------------|----|
//! | `sim-engine.{events, events_per_kinstr, queue_high_water, ns_per_event, busy_s}` | `job_s`; and `setup_s` | `l1-stream`; `replay-spill` (bulk-loaded queue) |
//! | `workloads.{next_op_calls, ns_per_op, busy_s}`, `gcn-model.l1.{lookups, hit_ratio, isolated_hit_ratio, ns_per_lookup, busy_s}` | `job_s` | `l1-stream`, `suite-quick`; zero work on `replay-spill` |
//! | `gcn-model.l2.*`, `filters.tracker.{queries, probe_precision, ns_per_op, busy_s}`, `iommu.{requests, tlb_hit_ratio, walks, useless_walk_ratio, spills, ns_per_request, busy_s}`, `pagetable.{ns_per_walk, busy_s}` | `job_s` | `replay-spill`, `mesh16-spill`; ~0 work on `l1-stream` |
//! | `fabric.{messages, forward_hops, max_link_utilization, ns_per_send, busy_s}` | `job_s` | `mesh16-spill`; no forwarding on `l1-stream` |
//! | `core.{wall_s, residual_s, residual_share, host_ns_per_event, wf_dispatch_share}` | `job_s` | `l1-stream` |
//! | `obs.{metrics,timeline,profile}_overhead_pct` | none: observers are off in the e2e pass | `l1-stream`, `mesh16-spill` (the observers' cost budgets) |
//!
//! `gcn-model.l1.isolated_hit_ratio` is the L1 microbenchmark's hit
//! ratio; it should stay within a couple of points of the run's, which
//! shows the microbenchmark replays a realistic stream. `drain` has no
//! profiler hook, so on `replay-spill` the profiler's overhead reads as
//! noise around zero and `fabric.forward_hops` is zero (its fabric is
//! flat: one hop per route).
//!
//! # Correctness
//!
//! A job fails if it panics, breaks a workload invariant (every
//! application completes; a replay performs one L2 lookup per request and
//! passes `System::check_invariants`), or produces another digest than
//! expected. The digest is FNV-1a over the `RunResult` JSON without what
//! observers add (for `suite-quick`, over the rendered tables). With the
//! default seed it must equal the pin in `baseline.json`; with any other
//! seed every job must match the first. `correct` is false if any job
//! failed.
//!
//! A change that intentionally alters simulated output re-pins in its own
//! benchmark change: run each workload with `--seed 0 --trace 0`, copy the
//! digests it prints (reported even when they differ from the pin) into
//! `pins.digests` of `baseline.json`, and record a new baseline. A change
//! that claims a speed-up leaves every digest as it is.
//!
//! # Comparing two commits
//!
//! Build each commit's benchmark once, then alternate the two binaries
//! for ten or more runs per workload, one workload per invocation, each
//! appending to its own file with `--json`, and run
//! `--compare BEFORE.jsonl AFTER.jsonl`. Per workload
//! and end-to-end metric it prints both sides' medians over their runs
//! with min and max, the change, the allowed share and a verdict:
//! improved (every after run beats every before run), within bound,
//! regressed (even the most favourable pairing exceeds the bound), or
//! unresolved (the spreads straddle the bound). It exits 1 if anything
//! regressed.
//!
//! # History
//!
//! `BENCH_engine.json`, `BENCH_obs.json` and `BENCH_timeline.json` at the
//! repository root are superseded historical records, each on its own
//! schema and protocol; new measurements are this benchmark's `--json`
//! records and `baseline.json`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
