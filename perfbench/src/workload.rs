//! The four workloads, the inputs each builds from its seed, the job each
//! times, and the end-to-end pass.
//!
//! Every workload is a closed batch job: a fixed amount of simulated work
//! run to completion, one job after the other on one thread. Modelled TLBs
//! start empty in every job, as in the paper's first-full-execution method
//! and as a user's run does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use least_tlb::experiments::{run_suite, ExpOptions, SuiteOutcome, ALL_EXPERIMENTS};
use least_tlb::trace::TranslationTrace;
use least_tlb::{FabricConfig, Policy, RunResult, System, SystemConfig, Topology, WorkloadSpec};
use mgpu_types::{Asid, Cycle, GpuId, VirtPage};
use serde::{Serialize, Value};
use workloads::{AppKind, MultiAppMix};

use crate::host;
use crate::metrics::{JOB_S, PEAK_RSS_MB, SETUP_S};
use crate::stats::Summary;

/// The seed whose result digests are pinned in `baseline.json`.
pub const DEFAULT_SEED: u64 = 0;

/// Fewest timed jobs per e2e run, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

/// Set-up samples `suite-quick` takes before each timed job. The other
/// workloads time the build every job performs anyway.
const SUITE_SETUP_SAMPLES: usize = 7;

/// Per-GPU instruction budget of `l1-stream`: about a quarter second of
/// host time, so a run times dozens of jobs.
const L1_STREAM_BUDGET: u64 = 25_000_000;
/// Per-GPU instruction budget of the run whose L2 stream `replay-spill`
/// records (135,611 requests at the default seed).
const REPLAY_RECORD_BUDGET: u64 = 20_000_000;
/// Per-GPU instruction budget of `mesh16-spill`.
const MESH16_BUDGET: u64 = 1_250_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every figure of the paper at quick scale.
    SuiteQuick,
    /// A wavefront-bound single application.
    L1Stream,
    /// Trace replay: the translation hierarchy alone.
    ReplaySpill,
    /// Multi-hop fabric forwarding and spilling on 16 GPUs.
    Mesh16Spill,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteQuick,
        Workload::L1Stream,
        Workload::ReplaySpill,
        Workload::Mesh16Spill,
    ];

    /// The name used on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteQuick => "suite-quick",
            Workload::L1Stream => "l1-stream",
            Workload::ReplaySpill => "replay-spill",
            Workload::Mesh16Spill => "mesh16-spill",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layers it exercises and the ones it
    /// keeps idle. `BENCHMARK.json` carries the same lines.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::SuiteQuick => {
                "every paper figure at quick scale (438 runs over all policies, topologies and 2 MB pages): the traffic users run"
            }
            Workload::L1Stream => {
                "AES on 4 GPUs, 98.6% L1 TLB hits: generator, CU/L1 and event queue do the work and the translation hierarchy idles"
            }
            Workload::ReplaySpill => {
                "W10's recorded L2 request stream replayed under spilling: L2, tracker, IOMMU, walkers, spills and fabric, no wavefronts"
            }
            Workload::Mesh16Spill => {
                "W16 on a 16-GPU 2D mesh with 4-cycle link serialisation and spilling: the one workload forwarding multi-hop messages"
            }
        }
    }
}

/// What one benchmark run builds: a workload, its seed, and a divisor on
/// every instruction budget (1 is the benchmark; tests shrink it).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// The `--seed` value.
    pub seed: u64,
    /// Divisor on the workload's instruction budgets.
    pub shrink: u64,
}

impl Params {
    /// The digest this run must reproduce: pinned only for the default
    /// seed at full size.
    fn pinned_digest(&self) -> Option<u64> {
        (self.seed == DEFAULT_SEED && self.shrink == 1)
            .then(|| crate::baseline::pinned_digest(self.workload.name()))
            .flatten()
    }
}

/// The simulator seed for benchmark seed `seed`. Seed 0 maps to the
/// simulator's own default seed, so the default `suite-quick` job is the
/// `figures --quick all` suite.
#[must_use]
pub fn sim_seed(seed: u64) -> u64 {
    0x1ea5_71b5 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The inputs a workload's jobs run on, generated from the seed before
/// anything is timed.
#[derive(Debug)]
pub enum Inputs {
    /// Options for `run_suite` over every experiment.
    Suite(ExpOptions),
    /// One simulation configuration.
    Sim {
        /// System configuration.
        cfg: SystemConfig,
        /// Applications and placements.
        spec: WorkloadSpec,
    },
    /// A recorded L2 request stream and the configuration it replays under.
    Replay {
        /// Replay configuration.
        cfg: SystemConfig,
        /// The recorded stream (recording is input generation, untimed).
        trace: TranslationTrace,
    },
}

/// A scaled-down system of `gpus` GPUs under `policy`.
fn scaled_config(
    gpus: usize,
    policy: Policy,
    instructions_per_gpu: u64,
    seed: u64,
) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down(gpus);
    cfg.policy = policy;
    cfg.instructions_per_gpu = instructions_per_gpu;
    cfg.seed = seed;
    cfg
}

/// The spec of the paper mix `name` from `mixes`.
pub(crate) fn mix(mixes: Vec<MultiAppMix>, name: &str) -> WorkloadSpec {
    let m = mixes
        .iter()
        .find(|m| m.name == name)
        .expect("the paper's mix tables define this mix");
    WorkloadSpec::from_mix(m)
}

impl Inputs {
    /// Builds the inputs of `p`'s workload from its seed.
    ///
    /// # Panics
    ///
    /// Panics if the trace recording of `replay-spill` fails, which would
    /// be a simulator bug.
    #[must_use]
    pub fn generate(p: Params) -> Inputs {
        let seed = sim_seed(p.seed);
        match p.workload {
            Workload::SuiteQuick => {
                let mut o = ExpOptions::quick();
                o.seed = seed;
                o.budget_single /= p.shrink;
                o.budget_multi /= p.shrink;
                Inputs::Suite(o)
            }
            Workload::L1Stream => Inputs::Sim {
                cfg: scaled_config(4, Policy::least_tlb(), L1_STREAM_BUDGET / p.shrink, seed),
                spec: WorkloadSpec::single_app(AppKind::Aes, 4),
            },
            Workload::ReplaySpill => {
                let budget = REPLAY_RECORD_BUDGET / p.shrink;
                let mut cfg = scaled_config(4, Policy::least_tlb_spilling(), budget, seed);
                let spec = mix(workloads::multi_app_workloads(), "W10");
                cfg.record_trace = true;
                let recorded = System::new(&cfg, &spec)
                    .expect("the W10 recording configuration builds")
                    .run();
                cfg.record_trace = false;
                Inputs::Replay {
                    cfg,
                    trace: recorded.trace.expect("record_trace was set"),
                }
            }
            Workload::Mesh16Spill => {
                let budget = MESH16_BUDGET / p.shrink;
                let mut cfg = scaled_config(16, Policy::least_tlb_spilling(), budget, seed);
                let mut fabric = FabricConfig::new(Topology::Mesh2d);
                fabric.message_cycles = 4;
                cfg.fabric = Some(fabric);
                Inputs::Sim {
                    cfg,
                    spec: mix(workloads::scaling_workloads(16), "W16"),
                }
            }
        }
    }

    /// Runs one job with `obs` observers and checks its output. The job
    /// times its set-up (`System::new`, or the scripted build and the
    /// injections of a replay) apart from the simulation (`System::run`,
    /// the replay's `drain`, or each suite runner).
    ///
    /// # Panics
    ///
    /// Panics when the output breaks an invariant of the workload; the
    /// caller counts that job as failed.
    #[must_use]
    pub fn job(&self, obs: Observers) -> Job {
        match self {
            Inputs::Suite(base) => {
                let names: Vec<String> = ALL_EXPERIMENTS.iter().map(ToString::to_string).collect();
                let outcomes = run_suite(&names, &obs.options(base), 1);
                Job {
                    setup_s: None,
                    parts: outcomes.iter().map(|o| o.telemetry.wall_seconds).collect(),
                    digest: suite_digest(&outcomes),
                    output: Output::Suite(outcomes),
                }
            }
            Inputs::Sim { cfg, spec } => {
                let start = Instant::now();
                let sys =
                    System::new(&obs.config(cfg), spec).expect("benchmark configurations build");
                let built = start.elapsed();
                let mut r = sys.run();
                let ran = start.elapsed() - built;
                assert!(
                    r.apps.iter().all(|a| a.stats.completion_cycle.is_some()),
                    "every application finishes its first execution"
                );
                Job {
                    setup_s: Some(built.as_secs_f64()),
                    parts: vec![ran.as_secs_f64()],
                    digest: run_digest(&mut r, cfg.fabric.is_some()),
                    output: Output::Run(Box::new(r)),
                }
            }
            Inputs::Replay { cfg, trace } => {
                let mut run_cfg = obs.config(cfg);
                run_cfg.record_trace = false;
                let start = Instant::now();
                let mut sys = System::new_scripted(&run_cfg, &trace.spec)
                    .expect("the replay configuration hosts its trace");
                for e in &trace.entries {
                    sys.inject_translation(
                        GpuId(e.gpu),
                        Asid(e.asid),
                        VirtPage(e.vpn),
                        Cycle(e.cycle),
                    );
                }
                let built = start.elapsed();
                sys.drain();
                let ran = start.elapsed() - built;
                sys.check_invariants();
                let mut r = sys.finish();
                let lookups: u64 = r.gpu_l2.iter().map(|s| s.lookups).sum();
                assert_eq!(
                    lookups,
                    trace.len() as u64,
                    "every replayed request performs one L2 lookup"
                );
                Job {
                    setup_s: Some(built.as_secs_f64()),
                    parts: vec![ran.as_secs_f64()],
                    digest: run_digest(&mut r, cfg.fabric.is_some()),
                    output: Output::Run(Box::new(r)),
                }
            }
        }
    }
}

/// One `suite-quick` set-up sample. Its runs build their systems inside
/// `run_suite`, so the sample is the time to build one system of each
/// 4-GPU configuration the suite runs most: the nine single-application
/// workloads and the ten multi-application mixes at quick scale.
fn suite_setup_sample(o: &ExpOptions) -> f64 {
    let cfg = scaled_config(4, Policy::baseline(), o.budget_single, o.seed);
    workloads::single_app_kinds()
        .into_iter()
        .map(|k| WorkloadSpec::single_app(k, 4))
        .chain(
            workloads::multi_app_workloads()
                .iter()
                .map(WorkloadSpec::from_mix),
        )
        .map(|spec| {
            let start = Instant::now();
            let sys = System::new(&cfg, &spec).expect("the suite's configurations build");
            let took = start.elapsed().as_secs_f64();
            drop(sys);
            took
        })
        .sum()
}

/// Which observers a job runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    /// Every observer off: the e2e configuration.
    Off,
    /// Metrics registry only.
    Metrics,
    /// Timeline only.
    Timeline,
    /// Host-side profiler only.
    Profile,
    /// Metrics, profiler and L2 trace recording, plus an explicit fabric
    /// section so link counters are exported (flat stays flat).
    Traced,
}

impl Observers {
    /// Short label for spans and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Observers::Off => "off",
            Observers::Metrics => "metrics",
            Observers::Timeline => "timeline",
            Observers::Profile => "profile",
            Observers::Traced => "traced",
        }
    }

    fn config(self, base: &SystemConfig) -> SystemConfig {
        let mut cfg = base.clone();
        match self {
            Observers::Off => {}
            Observers::Metrics => cfg.obs.metrics = true,
            Observers::Timeline => cfg.obs.timeline = true,
            Observers::Profile => cfg.obs.profile = true,
            Observers::Traced => {
                cfg.obs.metrics = true;
                cfg.obs.profile = true;
                cfg.record_trace = true;
                cfg.fabric
                    .get_or_insert_with(|| FabricConfig::new(Topology::Flat));
            }
        }
        cfg
    }

    fn options(self, base: &ExpOptions) -> ExpOptions {
        let mut o = *base;
        match self {
            Observers::Off => {}
            Observers::Metrics => o.metrics = true,
            Observers::Timeline => o.timeline = true,
            Observers::Profile => o.profile = true,
            Observers::Traced => {
                o.metrics = true;
                o.profile = true;
            }
        }
        o
    }
}

/// One finished job.
#[derive(Debug)]
pub struct Job {
    /// Host seconds of the job's own set-up (`None` for `suite-quick`).
    pub setup_s: Option<f64>,
    /// Host seconds of each timed part: one per suite runner, or the one
    /// run or drain.
    pub parts: Vec<f64>,
    /// Digest of the simulated output, observer outputs excluded.
    pub digest: u64,
    /// The output itself, for the traced pass.
    pub output: Output,
}

/// A job's simulated output.
#[derive(Debug)]
pub enum Output {
    /// One outcome per suite runner.
    Suite(Vec<SuiteOutcome>),
    /// One run's result.
    Run(Box<RunResult>),
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the suite's rendered tables, in runner order.
fn suite_digest(outcomes: &[SuiteOutcome]) -> u64 {
    let mut text = String::new();
    for o in outcomes {
        let table = o
            .result
            .as_ref()
            .expect("every name in ALL_EXPERIMENTS is a runner");
        text.push_str(&o.name);
        text.push('\n');
        text.push_str(&table.to_string());
    }
    fnv1a(text.as_bytes())
}

/// Digest of a run's result JSON without what observers add (telemetry,
/// profile, metrics, timeline, trace events, the recorded trace) and,
/// unless `keep_fabric`, without the fabric summary an explicit flat
/// fabric section adds.
fn run_digest(r: &mut RunResult, keep_fabric: bool) -> u64 {
    const OBSERVED: [&str; 6] = [
        "telemetry",
        "profile",
        "metrics",
        "timeline",
        "trace_events",
        "trace",
    ];
    // Serialize with the large observer payloads taken out, then drop the
    // remaining observer members from the tree.
    let trace = r.trace.take();
    let trace_events = r.trace_events.take();
    let timeline = r.timeline.take();
    let mut value = r.to_value();
    r.trace = trace;
    r.trace_events = trace_events;
    r.timeline = timeline;
    if let Value::Object(members) = &mut value {
        members.retain(|(k, _)| !OBSERVED.contains(&k.as_str()) && (keep_fabric || k != "fabric"));
    }
    fnv1a(
        serde_json::to_string(&value)
            .expect("result values serialize")
            .as_bytes(),
    )
}

/// Runs jobs, counting attempts and failures. A job fails when it panics
/// or its digest differs from the pinned one (default seed) or from the
/// first job's (any other seed).
#[derive(Debug)]
pub struct Tally {
    workload: Workload,
    expected: Option<u64>,
    seen: Option<u64>,
    /// Jobs run.
    pub attempted: u64,
    /// Jobs that panicked or produced another digest.
    pub failed: u64,
}

impl Tally {
    /// A tally for `p`, holding its pinned digest if it has one.
    #[must_use]
    pub fn new(p: Params) -> Tally {
        Tally {
            workload: p.workload,
            expected: p.pinned_digest(),
            seen: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// The digest of the last job that finished, matching or not (a
    /// change that alters simulated output re-pins with it).
    #[must_use]
    pub fn digest(&self) -> Option<u64> {
        self.seen
    }

    /// Runs one job; `None` when it failed.
    pub fn run(&mut self, inputs: &Inputs, obs: Observers) -> Option<Job> {
        self.attempted += 1;
        let job = catch_unwind(AssertUnwindSafe(|| inputs.job(obs)));
        if let Ok(job) = &job {
            self.seen = Some(job.digest);
        }
        match job {
            Ok(job) if *self.expected.get_or_insert(job.digest) == job.digest => Some(job),
            Ok(job) => {
                eprintln!(
                    "{} job with {} observers: digest {:016x} differs from the expected {:016x}",
                    self.workload.name(),
                    obs.label(),
                    job.digest,
                    self.expected.unwrap_or_default()
                );
                self.failed += 1;
                None
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    /// Runs one job of other inputs than the tallied workload's (whose
    /// digest it therefore does not check); `None` when it panicked.
    pub fn run_unpinned(&mut self, inputs: &Inputs, obs: Observers) -> Option<Job> {
        self.attempted += 1;
        let job = catch_unwind(AssertUnwindSafe(|| inputs.job(obs))).ok();
        self.failed += u64::from(job.is_none());
        job
    }
}

/// One end-to-end metric of one run: the reported value and the samples
/// it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// The run's samples.
    pub samples: Summary,
}

/// The end-to-end pass of one workload.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// The workload.
    pub workload: Workload,
    /// Jobs run (warm-up included).
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// The output digest every job reproduced.
    pub digest: Option<u64>,
    /// Host seconds per job: the fastest timed job (for `suite-quick`,
    /// each runner's fastest, summed). Samples are the per-job totals.
    pub job_s: Measured,
    /// Set-up seconds: the median of the set-up samples.
    pub setup_s: Measured,
    /// Peak resident memory after input generation, in MiB.
    pub peak_rss_mb: Measured,
}

impl E2eReport {
    /// Whether every job ran and reproduced the expected output.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The end-to-end metrics, in `END_TO_END` order.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, Measured); 3] {
        [
            (JOB_S, self.job_s),
            (SETUP_S, self.setup_s),
            (PEAK_RSS_MB, self.peak_rss_mb),
        ]
    }
}

/// Runs `p`'s e2e pass: one untimed warm-up job (except for
/// `suite-quick`, whose job is 438 independent cold simulations), then
/// jobs with every observer off until about `seconds` have been measured,
/// at least [`MIN_REPS`]. Set-up samples are spread over the whole run so
/// a slow stretch of the host spoils few of them.
#[must_use]
pub fn e2e_pass(p: Params, seconds: f64) -> E2eReport {
    let inputs = Inputs::generate(p);
    host::reset_peak_rss();
    let mut tally = Tally::new(p);
    let mut setup = Vec::new();
    let mut reps: Vec<Vec<f64>> = Vec::new();
    if !matches!(inputs, Inputs::Suite(_)) {
        if let Some(job) = tally.run(&inputs, Observers::Off) {
            setup.extend(job.setup_s);
        }
    }
    let start = Instant::now();
    let mut timed = 0;
    loop {
        let before = start.elapsed().as_secs_f64();
        if let Inputs::Suite(o) = &inputs {
            setup.extend((0..SUITE_SETUP_SAMPLES).map(|_| suite_setup_sample(o)));
        }
        if let Some(job) = tally.run(&inputs, Observers::Off) {
            setup.extend(job.setup_s);
            reps.push(job.parts);
        }
        timed += 1;
        let now = start.elapsed().as_secs_f64();
        if timed >= MIN_REPS && now + (now - before) > seconds {
            break;
        }
    }
    let setup = Summary::of(&setup).unwrap_or(Summary::single(0.0));
    let peak = host::peak_rss_mb().unwrap_or(0.0);
    E2eReport {
        workload: p.workload,
        attempted: tally.attempted,
        failed: tally.failed,
        digest: tally.digest(),
        job_s: fastest(&reps),
        setup_s: Measured {
            value: setup.median,
            samples: setup,
        },
        peak_rss_mb: Measured {
            value: peak,
            samples: Summary::single(peak),
        },
    }
}

/// The fastest job, part by part. The host's noise only ever adds time,
/// in stretches of seconds, so each part's fastest repetition is the
/// steadiest estimate of its cost; summing per part lets one quiet moment
/// count for each suite runner.
fn fastest(reps: &[Vec<f64>]) -> Measured {
    let totals: Vec<f64> = reps.iter().map(|parts| parts.iter().sum()).collect();
    let samples = Summary::of(&totals).unwrap_or(Summary::single(0.0));
    let parts = reps.iter().map(Vec::len).min().unwrap_or(0);
    let value = (0..parts)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum();
    Measured { value, samples }
}

/// The fastest of `walls` (0 for none).
#[must_use]
pub fn best(walls: &[f64]) -> f64 {
    Summary::of(walls).map_or(0.0, |s| s.min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn default_seed_is_the_simulator_default() {
        assert_eq!(sim_seed(DEFAULT_SEED), ExpOptions::quick().seed);
        assert_ne!(sim_seed(1), sim_seed(2));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fastest_takes_each_parts_best() {
        let reps = vec![vec![1.0, 10.0], vec![2.0, 30.0], vec![9.0, 20.0]];
        let m = fastest(&reps);
        assert_eq!(m.value, 1.0 + 10.0);
        assert_eq!(m.samples.median, 29.0);
        assert_eq!((m.samples.min, m.samples.max, m.samples.n), (11.0, 32.0, 3));
        assert_eq!(best(&[3.0, 2.0]), 2.0);
        assert_eq!(best(&[]), 0.0);
    }
}
