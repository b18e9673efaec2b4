//! The traced pass: exact per-layer operation counts from one run with
//! every observer on, host cost per operation measured from outside by
//! microbenchmarks that call each layer's public functions on inputs
//! taken from that run, and a ledger reconciling Σ(count × cost) with
//! wall time.
//!
//! The layers are the simulator's crates:
//!
//! | layer             | counted operation          | microbenchmark calls                       |
//! |-------------------|----------------------------|--------------------------------------------|
//! | `sim-engine`      | event delivered            | `EventQueue::pop_batch` + `schedule_after` |
//! | `workloads`       | `next_op` call (`wf_next`) | `AppWorkload::next_op`                     |
//! | `gcn-model.l1`    | L1 TLB lookup              | `Gpu::l1_lookup`, `Gpu::l1_fill` on miss   |
//! | `gcn-model.l2`    | L2 TLB lookup              | `Gpu::l2_lookup`, `Tlb::insert` on miss    |
//! | `filters.tracker` | query, insert or remove    | `LocalTlbTracker::{query,insert,remove}`   |
//! | `iommu`           | ATS request                | IOMMU `Tlb`, `WalkerScheduler`, counters   |
//! | `pagetable`       | page-table walk            | `PageTable::translate`                     |
//! | `fabric`          | link traversal             | `Fabric::send` (built by `build_fabric`)   |
//!
//! MSHRs, the pending table and the dispatch glue have no public entry
//! the benchmark can time alone; their cost, and every cache effect the
//! isolated microbenchmarks do not see, lands in `core`: the residual of
//! measured wall time minus the attributed busy time.

use std::hint::black_box;
use std::time::Instant;

use filters::LocalTlbTracker;
use gcn_model::Gpu;
use iommu::{Iommu, WalkRequest};
use least_tlb::experiments::{ExpOptions, SuiteOutcome};
use least_tlb::trace::TraceEntry;
use least_tlb::{Inclusion, Policy, RunResult, SystemConfig, WorkloadSpec};
use mgpu_types::{Asid, CuId, Cycle, GpuId, PageSize, PhysPage, TranslationKey, VirtPage};
use obs::{MetricsSnapshot, ProfileReport};
use pagetable::{FrameAllocator, PageTable};
use sim_engine::EventQueue;
use tlb::TlbEntry;
use workloads::AppWorkload;

use crate::spans::Spans;
use crate::workload::{best, mix, Inputs, Observers, Output, Params, Tally, Workload};

/// Operations per microbenchmark span.
const BATCH: usize = 1 << 16;
/// Repetitions of the whole microbenchmark set.
const MICROBENCH_REPS: usize = 3;
/// Fewest and most operations a generator or queue microbenchmark
/// performs.
const OPS_MIN: usize = 1 << 18;
const OPS_MAX: usize = 1 << 22;
/// Most recorded L2 requests the hierarchy microbenchmarks replay.
const STREAM_MAX: usize = 1 << 21;
/// Walk service time handed to the walker scheduler (the paper's flat
/// 500-cycle walk; only the scheduler's bookkeeping is timed).
const WALK_CYCLES: u64 = 500;
/// Cycles from an ATS request's arrival to its response leaving the
/// IOMMU in the fabric microbenchmark (TLB lookup plus one walk).
const IOMMU_TURNAROUND: u64 = 700;
/// Largest delay between a replayed request's follow-up events: the
/// hierarchy's hops (L2, links, IOMMU TLB, walks) take tens to hundreds
/// of cycles.
const HOP_CYCLES: u64 = 400;

/// Exact operation counts of one traced run (a suite's counts are sums
/// over its runs). Floats, because `suite-quick`'s tracker and fabric
/// counts are scaled estimates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Events delivered.
    pub events: f64,
    /// Instructions simulated.
    pub instructions: f64,
    /// Peak pending events.
    pub queue_high_water: f64,
    /// Simulated cycles.
    pub end_cycle: f64,
    /// `wf_next` events, each one `next_op` call.
    pub next_op_calls: f64,
    /// `wf_next` plus `wf_mem` events.
    pub wf_events: f64,
    /// `fabric_hop` events: messages forwarded at an intermediate node.
    pub forward_hops: f64,
    /// L1 TLB lookups, all GPUs.
    pub l1_lookups: f64,
    /// L1 TLB hits.
    pub l1_hits: f64,
    /// L2 TLB lookups, all GPUs.
    pub l2_lookups: f64,
    /// L2 TLB hits.
    pub l2_hits: f64,
    /// Tracker queries.
    pub tracker_queries: f64,
    /// Tracker queries, inserts and removes.
    pub tracker_ops: f64,
    /// Probes sent on tracker positives.
    pub probes: f64,
    /// Probes that hit.
    pub probe_hits: f64,
    /// ATS requests at the IOMMU.
    pub iommu_requests: f64,
    /// IOMMU TLB lookups.
    pub iommu_tlb_lookups: f64,
    /// IOMMU TLB hits.
    pub iommu_tlb_hits: f64,
    /// Page-table walks launched.
    pub walks: f64,
    /// Walks wasted or cancelled because a probe won the race.
    pub useless_walks: f64,
    /// IOMMU-to-L2 spills.
    pub spills: f64,
    /// Messages over all links (link traversals, counted pushes included).
    pub fabric_messages: f64,
    /// Busy cycles of the busiest link.
    pub max_link_busy: f64,
}

impl Counts {
    /// The counts the metrics registry and the profiler expose; the same
    /// names exist in a single run's snapshot and in a suite's merge.
    fn observed(m: &MetricsSnapshot, p: &ProfileReport) -> Counts {
        let gpu_sum = |suffix: &str| -> f64 {
            m.counters
                .iter()
                .filter(|c| c.name.starts_with("gpu") && c.name.ends_with(suffix))
                .map(|c| c.value as f64)
                .sum()
        };
        let get = |name: &str| m.counter(name).unwrap_or(0) as f64;
        let events_of = |handler: &str| {
            p.handlers
                .iter()
                .find(|h| h.name == handler)
                .map_or(0.0, |h| h.events as f64)
        };
        let links = |suffix: &str| -> Vec<f64> {
            m.counters
                .iter()
                .filter(|c| c.name.starts_with("fabric.link.") && c.name.ends_with(suffix))
                .map(|c| c.value as f64)
                .collect()
        };
        Counts {
            next_op_calls: events_of("wf_next"),
            wf_events: events_of("wf_next") + events_of("wf_mem"),
            forward_hops: events_of("fabric_hop"),
            l1_lookups: gpu_sum(".l1_tlb.lookups"),
            l1_hits: gpu_sum(".l1_tlb.hits"),
            l2_lookups: gpu_sum(".l2_tlb.lookups"),
            l2_hits: gpu_sum(".l2_tlb.hits"),
            probes: get("iommu.probes"),
            probe_hits: get("iommu.probe_hits"),
            iommu_requests: get("iommu.requests"),
            iommu_tlb_lookups: get("iommu.tlb.lookups"),
            iommu_tlb_hits: get("iommu.tlb.hits"),
            walks: get("iommu.walks"),
            useless_walks: get("iommu.wasted_walks") + get("iommu.cancelled_walks"),
            spills: get("iommu.spills"),
            fabric_messages: links(".messages").iter().sum(),
            max_link_busy: links(".busy_cycles").into_iter().fold(0.0, f64::max),
            ..Counts::default()
        }
    }

    /// Counts of one traced run.
    fn of_run(r: &RunResult) -> Counts {
        let metrics = r.metrics.clone().unwrap_or_default();
        let profile = r.profile.clone().unwrap_or_default();
        let telemetry = r.telemetry.unwrap_or_default();
        let tracker = r.tracker.unwrap_or_default();
        Counts {
            events: r.events as f64,
            instructions: telemetry.instructions as f64,
            queue_high_water: telemetry.queue_high_water as f64,
            end_cycle: r.end_cycle as f64,
            tracker_queries: tracker.queries as f64,
            tracker_ops: (tracker.queries + tracker.inserts + tracker.removes) as f64,
            ..Counts::observed(&metrics, &profile)
        }
    }
}

/// What the layer microbenchmarks replay: the configuration and workload
/// of one run, and the L2 request stream it recorded (or, with `bulk`,
/// replayed from a bulk-loaded queue).
struct BenchInputs<'a> {
    cfg: &'a SystemConfig,
    spec: &'a WorkloadSpec,
    stream: &'a [TraceEntry],
    bulk: bool,
    counts: &'a Counts,
}

/// Host nanoseconds per operation of each layer, as its microbenchmark
/// measured.
#[derive(Debug, Clone, Copy, Default)]
struct Costs {
    queue: f64,
    next_op: f64,
    l1: f64,
    l1_isolated_hit_ratio: f64,
    l2: f64,
    tracker: f64,
    iommu: f64,
    walk: f64,
    send: f64,
}

/// One line of the ledger.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Operations the traced run performed in this layer.
    pub ops: f64,
    /// Host nanoseconds per operation, as the layer's microbenchmark
    /// measured.
    pub ns_per_op: f64,
    /// `ops × ns_per_op`, in seconds.
    pub busy_s: f64,
}

/// The traced pass of one workload.
#[derive(Debug, Clone)]
pub struct TracedReport {
    /// The workload.
    pub workload: Workload,
    /// Jobs run.
    pub attempted: u64,
    /// Jobs that failed (panicked, or output differing from the e2e job's).
    pub failed: u64,
    /// Per-layer metrics in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The per-layer cost ledger.
    pub ledger: Vec<LedgerRow>,
    /// Host seconds of one job with every observer off (the ledger's wall).
    pub wall_s: f64,
}

impl TracedReport {
    /// Whether every job ran and reproduced the e2e output.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs `p`'s traced pass. First, rounds of jobs with every observer off
/// and with each observer alone, interleaved so host drift hits all alike,
/// until about `seconds` have passed; these price the observers and give
/// the ledger's wall time. Then one job with metrics, profiler and trace
/// recording on, whose simulated output must match the e2e job's, and the
/// layer microbenchmarks.
#[must_use]
pub fn traced_pass(p: Params, seconds: f64, spans: &mut Spans) -> TracedReport {
    let root = spans.open(&format!("traced {}", p.workload.name()), None);
    let inputs = Inputs::generate(p);
    let mut tally = Tally::new(p);
    if !matches!(inputs, Inputs::Suite(_)) {
        timed_job(&mut tally, &inputs, Observers::Off, spans, root);
    }
    let variants = [
        Observers::Off,
        Observers::Metrics,
        Observers::Timeline,
        Observers::Profile,
    ];
    let mut walls: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    loop {
        let before = start.elapsed().as_secs_f64();
        for (i, obs) in variants.into_iter().enumerate() {
            if let Some(wall) = timed_job(&mut tally, &inputs, obs, spans, root) {
                walls[i].push(wall);
            }
        }
        let now = start.elapsed().as_secs_f64();
        if now + (now - before) > seconds {
            break;
        }
    }
    let wall = best(&walls[0]);
    let overhead = |i: usize| {
        if wall > 0.0 {
            (best(&walls[i]) / wall - 1.0) * 100.0
        } else {
            0.0
        }
    };

    let id = spans.open("job traced", Some(root));
    let traced = tally.run(&inputs, Observers::Traced);
    spans.close(id, 1);
    let (counts, costs) = match (&inputs, traced.map(|j| j.output)) {
        (Inputs::Suite(o), Some(Output::Suite(outcomes))) => {
            measure_suite(o, &outcomes, &mut tally, spans, root)
        }
        (Inputs::Sim { cfg, spec }, Some(Output::Run(r))) => {
            measure(cfg, spec, &r, None, spans, root)
        }
        (Inputs::Replay { cfg, trace }, Some(Output::Run(r))) => {
            measure(cfg, &trace.spec, &r, Some(&trace.entries), spans, root)
        }
        _ => (Counts::default(), Costs::default()),
    };
    spans.close(root, tally.attempted);

    let ledger = ledger(&counts, &costs);
    let busy = |layer: &str| {
        ledger
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0.0, |r| r.busy_s)
    };
    let residual = wall - ledger.iter().map(|r| r.busy_s).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let c = &counts;
    let metrics = vec![
        ("sim-engine.events", c.events),
        (
            "sim-engine.events_per_kinstr",
            ratio(c.events * 1e3, c.instructions),
        ),
        ("sim-engine.queue_high_water", c.queue_high_water),
        ("sim-engine.ns_per_event", costs.queue),
        ("sim-engine.busy_s", busy("sim-engine")),
        ("workloads.next_op_calls", c.next_op_calls),
        ("workloads.ns_per_op", costs.next_op),
        ("workloads.busy_s", busy("workloads")),
        ("gcn-model.l1.lookups", c.l1_lookups),
        ("gcn-model.l1.hit_ratio", ratio(c.l1_hits, c.l1_lookups)),
        (
            "gcn-model.l1.isolated_hit_ratio",
            costs.l1_isolated_hit_ratio,
        ),
        ("gcn-model.l1.ns_per_lookup", costs.l1),
        ("gcn-model.l1.busy_s", busy("gcn-model.l1")),
        ("gcn-model.l2.lookups", c.l2_lookups),
        ("gcn-model.l2.hit_ratio", ratio(c.l2_hits, c.l2_lookups)),
        ("gcn-model.l2.ns_per_lookup", costs.l2),
        ("gcn-model.l2.busy_s", busy("gcn-model.l2")),
        ("filters.tracker.queries", c.tracker_queries),
        (
            "filters.tracker.probe_precision",
            ratio(c.probe_hits, c.probes),
        ),
        ("filters.tracker.ns_per_op", costs.tracker),
        ("filters.tracker.busy_s", busy("filters.tracker")),
        ("iommu.requests", c.iommu_requests),
        (
            "iommu.tlb_hit_ratio",
            ratio(c.iommu_tlb_hits, c.iommu_tlb_lookups),
        ),
        ("iommu.walks", c.walks),
        ("iommu.useless_walk_ratio", ratio(c.useless_walks, c.walks)),
        ("iommu.spills", c.spills),
        ("iommu.ns_per_request", costs.iommu),
        ("iommu.busy_s", busy("iommu")),
        ("pagetable.ns_per_walk", costs.walk),
        ("pagetable.busy_s", busy("pagetable")),
        ("fabric.messages", c.fabric_messages),
        ("fabric.forward_hops", c.forward_hops),
        (
            "fabric.max_link_utilization",
            ratio(c.max_link_busy, c.end_cycle),
        ),
        ("fabric.ns_per_send", costs.send),
        ("fabric.busy_s", busy("fabric")),
        ("core.wall_s", wall),
        ("core.residual_s", residual),
        ("core.residual_share", ratio(residual, wall)),
        ("core.host_ns_per_event", ratio(residual * 1e9, c.events)),
        ("core.wf_dispatch_share", ratio(c.wf_events, c.events)),
        ("obs.metrics_overhead_pct", overhead(1)),
        ("obs.timeline_overhead_pct", overhead(2)),
        ("obs.profile_overhead_pct", overhead(3)),
    ];
    TracedReport {
        workload: p.workload,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        ledger,
        wall_s: wall,
    }
}

/// Runs one job inside a span; returns its summed part times.
fn timed_job(
    tally: &mut Tally,
    inputs: &Inputs,
    obs: Observers,
    spans: &mut Spans,
    parent: usize,
) -> Option<f64> {
    let id = spans.open(&format!("job {}", obs.label()), Some(parent));
    let wall = tally.run(inputs, obs).map(|j| j.parts.iter().sum());
    spans.close(id, 1);
    wall
}

/// Counts of traced run `r` of `spec` under `cfg`, and the
/// microbenchmarks' costs on its inputs: the L2 stream it recorded, or
/// `replayed`, the stream a replay bulk-loaded.
fn measure(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    r: &RunResult,
    replayed: Option<&[TraceEntry]>,
    spans: &mut Spans,
    parent: usize,
) -> (Counts, Costs) {
    let counts = Counts::of_run(r);
    let recorded = r.trace.as_ref().map_or(&[][..], |t| &t.entries[..]);
    let d = BenchInputs {
        cfg,
        spec,
        stream: replayed.unwrap_or(recorded),
        bulk: replayed.is_some(),
        counts: &counts,
    };
    let costs = microbench(&d, spans, parent);
    (counts, costs)
}

/// `suite-quick`'s counts, summed over its runs, and the microbenchmarks'
/// costs. `run_suite` exports neither tracker counters nor the link
/// counters of flat-fabric runs, nor per-run queue depth or length:
/// those, and the microbenchmarks' inputs, come from a representative
/// run of the suite (W10 under spilling least-TLB at the suite's scale),
/// with tracker and fabric counts scaled by ATS requests.
fn measure_suite(
    o: &ExpOptions,
    outcomes: &[SuiteOutcome],
    tally: &mut Tally,
    spans: &mut Spans,
    parent: usize,
) -> (Counts, Costs) {
    let mut metrics = MetricsSnapshot::default();
    let mut profile = ProfileReport::default();
    for o in outcomes {
        metrics.absorb(&o.metrics);
        profile.absorb(&o.profile);
    }
    let mut counts = Counts {
        events: outcomes.iter().map(|o| o.telemetry.events as f64).sum(),
        instructions: outcomes
            .iter()
            .map(|o| o.telemetry.instructions as f64)
            .sum(),
        ..Counts::observed(&metrics, &profile)
    };
    let (cfg, spec) = representative(o);
    let rep = Inputs::Sim {
        cfg: cfg.clone(),
        spec: spec.clone(),
    };
    let Some(Output::Run(r)) = tally
        .run_unpinned(&rep, Observers::Traced)
        .map(|j| j.output)
    else {
        return (counts, Costs::default());
    };
    let (rc, costs) = measure(&cfg, &spec, &r, None, spans, parent);
    let scale = if rc.iommu_requests > 0.0 {
        counts.iommu_requests / rc.iommu_requests
    } else {
        0.0
    };
    counts.tracker_queries = rc.tracker_queries * scale;
    counts.tracker_ops = rc.tracker_ops * scale;
    counts.fabric_messages = rc.fabric_messages * scale;
    counts.queue_high_water = rc.queue_high_water;
    counts.end_cycle = rc.end_cycle;
    counts.max_link_busy = rc.max_link_busy;
    (counts, costs)
}

/// The run that stands for `suite-quick` in the microbenchmarks.
fn representative(o: &ExpOptions) -> (SystemConfig, WorkloadSpec) {
    let mut cfg = SystemConfig::scaled_down(4);
    cfg.policy = Policy::least_tlb_spilling();
    cfg.instructions_per_gpu = o.budget_multi;
    cfg.seed = o.seed;
    (cfg, mix(workloads::multi_app_workloads(), "W10"))
}

fn ledger(c: &Counts, costs: &Costs) -> Vec<LedgerRow> {
    [
        ("sim-engine", c.events, costs.queue),
        ("workloads", c.next_op_calls, costs.next_op),
        ("gcn-model.l1", c.l1_lookups, costs.l1),
        ("gcn-model.l2", c.l2_lookups, costs.l2),
        ("filters.tracker", c.tracker_ops, costs.tracker),
        ("iommu", c.iommu_requests, costs.iommu),
        ("pagetable", c.walks, costs.walk),
        ("fabric", c.fabric_messages, costs.send),
    ]
    .into_iter()
    .map(|(layer, ops, ns_per_op)| LedgerRow {
        layer,
        ops,
        ns_per_op,
        busy_s: ops * ns_per_op * 1e-9,
    })
    .collect()
}

/// One wavefront lane as `System::new` lays lanes out.
struct Lane {
    app: usize,
    app_gpu: usize,
    lane: usize,
    gpu: usize,
    cu: usize,
}

/// The generators and lanes `System::new` builds for `spec` under `cfg`:
/// each co-resident application gets an equal share of every CU's
/// wavefront slots, and generator `i` is seeded `cfg.seed ^ (i << 32)`.
fn generators(cfg: &SystemConfig, spec: &WorkloadSpec) -> (Vec<AppWorkload>, Vec<Lane>) {
    let wpc = cfg.gpu.wavefronts_per_cu;
    let mut tenants: Vec<usize> = vec![0; cfg.gpus];
    for p in &spec.placements {
        for &g in &p.gpus {
            tenants[usize::from(g)] += 1;
        }
    }
    let mut gens = Vec::new();
    let mut lanes = Vec::new();
    for (i, p) in spec.placements.iter().enumerate() {
        let most = p
            .gpus
            .iter()
            .map(|&g| tenants[usize::from(g)])
            .max()
            .unwrap_or(1);
        gens.push(AppWorkload::new(
            p.app,
            Asid(i as u16),
            p.gpus.len(),
            cfg.gpu.cus * (wpc / most).max(1),
            cfg.scale,
            cfg.seed ^ ((i as u64) << 32),
        ));
        for (app_gpu, &g) in p.gpus.iter().enumerate() {
            let share = wpc / tenants[usize::from(g)];
            for cu in 0..cfg.gpu.cus {
                for s in 0..share {
                    lanes.push(Lane {
                        app: i,
                        app_gpu,
                        lane: cu * share + s,
                        gpu: usize::from(g),
                        cu,
                    });
                }
            }
        }
    }
    (gens, lanes)
}

fn fresh_gpus(cfg: &SystemConfig) -> Vec<Gpu> {
    (0..cfg.gpus)
        .map(|g| Gpu::new(GpuId(g as u8), &cfg.gpu))
        .collect()
}

/// Work handed below the L2 TLB, in the order the L2 microbenchmark
/// produced it.
#[derive(Debug, Clone, Copy)]
enum Below {
    /// A primary L2 miss: an ATS request.
    Miss {
        cycle: u64,
        gpu: usize,
        key: TranslationKey,
    },
    /// An L2 victim with its remaining spill credits.
    Evict {
        gpu: usize,
        key: TranslationKey,
        credits: u8,
    },
}

/// A small deterministic generator for the queue microbenchmark's delays.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs every layer microbenchmark on `d` [`MICROBENCH_REPS`] times,
/// each repetition in spans under its own span below `parent`, and keeps
/// each layer's cheapest repetition: like the e2e jobs, a microbenchmark
/// is only ever slowed by the host.
fn microbench(d: &BenchInputs<'_>, spans: &mut Spans, parent: usize) -> Costs {
    let mut costs = Costs {
        queue: f64::INFINITY,
        next_op: f64::INFINITY,
        l1: f64::INFINITY,
        l1_isolated_hit_ratio: 0.0,
        l2: f64::INFINITY,
        tracker: f64::INFINITY,
        iommu: f64::INFINITY,
        walk: f64::INFINITY,
        send: f64::INFINITY,
    };
    let stream = &d.stream[..d.stream.len().min(STREAM_MAX)];
    for _ in 0..MICROBENCH_REPS {
        let rep = spans.open("microbenches", Some(parent));
        bench_queue(d, spans, rep);
        costs.l1_isolated_hit_ratio = bench_wavefronts(d, spans, rep);
        let below = bench_l2(d.cfg, stream, spans, rep);
        bench_tracker(d.cfg, &below, spans, rep);
        let walks = bench_iommu(d.cfg, &below, spans, rep);
        bench_pagetable(d.cfg, d.spec, &walks, spans, rep);
        bench_fabric(d.cfg, &below, spans, rep);
        spans.close(rep, 0);
        for (slot, name) in [
            (&mut costs.queue, "sim-engine"),
            (&mut costs.next_op, "workloads"),
            (&mut costs.l1, "gcn-model.l1"),
            (&mut costs.l2, "gcn-model.l2"),
            (&mut costs.tracker, "filters.tracker"),
            (&mut costs.iommu, "iommu"),
            (&mut costs.walk, "pagetable"),
            (&mut costs.send, "fabric"),
        ] {
            *slot = slot.min(spans.ns_per_op(name, rep));
        }
    }
    costs
}

/// Batch-pops and schedules as the run did. A replay bulk-loads its
/// requests at their recorded cycles (the load is set-up, untimed) and
/// each delivered request sets off a short chain of follow-up events, as
/// many as the run delivered per request, a hop latency apart. A
/// simulation keeps a closed population at the run's queue depth: by
/// Little's law the mean delay of a pending event is depth × cycles /
/// events, and delays are drawn uniformly up to twice that.
fn bench_queue(d: &BenchInputs<'_>, spans: &mut Spans, parent: usize) {
    let c = d.counts;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    // Each event carries the number of follow-ups it still sets off;
    // u64::MAX marks the endless events of a closed population.
    let (total, horizon) = if d.bulk {
        let requests = d.stream.len().max(1);
        let chain = (c.events / requests as f64 - 1.0).round().max(0.0) as u64;
        for e in d.stream {
            q.schedule(Cycle(e.cycle), chain);
        }
        (d.stream.len() * (chain as usize + 1), HOP_CYCLES)
    } else {
        let depth = (c.queue_high_water as usize).max(1);
        let mean = if c.events > 0.0 {
            depth as f64 * c.end_cycle / c.events
        } else {
            1.0
        };
        let horizon = ((2.0 * mean) as u64).max(2);
        for _ in 0..depth {
            q.schedule_after(1 + xorshift(&mut rng) % horizon, u64::MAX);
        }
        ((c.events as usize).clamp(OPS_MIN, OPS_MAX), horizon)
    };
    let mut batch = Vec::new();
    let mut delivered = 0;
    while delivered < total {
        let target = BATCH.min(total - delivered);
        let mut n = 0;
        spans.time("sim-engine", parent, || {
            while n < target {
                let Some(t) = q.pop_batch(&mut batch) else {
                    break;
                };
                black_box(t);
                for left in batch.drain(..) {
                    n += 1;
                    if left > 0 {
                        let next = if left == u64::MAX { left } else { left - 1 };
                        q.schedule_after(1 + xorshift(&mut rng) % horizon, next);
                    }
                }
            }
            n as u64
        });
        if n == 0 {
            break;
        }
        delivered += n;
    }
}

/// The generator and the L1 TLBs on the run's own op stream: generators
/// built as `System::new` builds them, lanes issuing round-robin, each op
/// looked up in its CU's L1 and filled on a miss. Returns the L1
/// hit ratio it saw.
fn bench_wavefronts(d: &BenchInputs<'_>, spans: &mut Spans, parent: usize) -> f64 {
    let (mut gens, lanes) = generators(d.cfg, d.spec);
    let mut gpus = fresh_gpus(d.cfg);
    let total = (d.counts.next_op_calls as usize).clamp(OPS_MIN, OPS_MAX);
    let mut ops: Vec<(usize, TranslationKey)> = Vec::with_capacity(BATCH);
    let (mut cursor, mut done, mut hits) = (0usize, 0usize, 0u64);
    while done < total {
        let n = BATCH.min(total - done);
        ops.clear();
        spans.time("workloads", parent, || {
            for _ in 0..n {
                let ln = &lanes[cursor];
                let g = &mut gens[ln.app];
                let op = g.next_op(ln.app_gpu, ln.lane);
                ops.push((cursor, TranslationKey::new(g.asid(), op.vpn)));
                cursor = (cursor + 1) % lanes.len();
            }
            n as u64
        });
        spans.time("gcn-model.l1", parent, || {
            for &(i, key) in &ops {
                let ln = &lanes[i];
                let gpu = &mut gpus[ln.gpu];
                if gpu.l1_lookup(CuId(ln.cu as u16), key).is_some() {
                    hits += 1;
                } else {
                    gpu.l1_fill(CuId(ln.cu as u16), key, PhysPage(key.vpn.0));
                }
            }
            n as u64
        });
        done += n;
    }
    hits as f64 / total as f64
}

/// The L2 TLBs on the recorded request stream: lookup, and install on a
/// miss as the fill would. Returns the misses and victims, in order, for
/// the layers below.
fn bench_l2(
    cfg: &SystemConfig,
    stream: &[TraceEntry],
    spans: &mut Spans,
    parent: usize,
) -> Vec<Below> {
    let mut gpus = fresh_gpus(cfg);
    let credits = cfg.policy.spill_credits;
    let mut below = Vec::new();
    for chunk in stream.chunks(BATCH) {
        spans.time("gcn-model.l2", parent, || {
            for e in chunk {
                let key = TranslationKey::new(Asid(e.asid), VirtPage(e.vpn));
                let g = usize::from(e.gpu);
                if gpus[g].l2_lookup(key).is_some() {
                    continue;
                }
                below.push(Below::Miss {
                    cycle: e.cycle,
                    gpu: g,
                    key,
                });
                let entry = TlbEntry::new(PhysPage(e.vpn))
                    .with_origin(GpuId(e.gpu))
                    .with_spill_credits(credits);
                if let Some((vk, ve)) = gpus[g].l2_tlb.insert(key, entry) {
                    below.push(Below::Evict {
                        gpu: g,
                        key: vk,
                        credits: ve.spill_credits,
                    });
                }
            }
            chunk.len() as u64
        });
    }
    below
}

/// The tracker as the IOMMU and the L2s use it: a query per ATS request,
/// an insert per fill, a remove per L2 victim. Policies without a tracker
/// are priced with least-TLB's.
fn bench_tracker(cfg: &SystemConfig, below: &[Below], spans: &mut Spans, parent: usize) {
    let backend = cfg
        .policy
        .tracker
        .or(Policy::least_tlb().tracker)
        .expect("least-TLB has a tracker");
    let mut tracker = LocalTlbTracker::new(cfg.gpus, backend);
    for chunk in below.chunks(BATCH) {
        spans.time("filters.tracker", parent, || {
            let mut ops = 0;
            for b in chunk {
                match *b {
                    Below::Miss { gpu, key, .. } => {
                        black_box(tracker.query(key, GpuId(gpu as u8)));
                        tracker.insert(GpuId(gpu as u8), key);
                        ops += 2;
                    }
                    Below::Evict { gpu, key, .. } => {
                        tracker.remove(GpuId(gpu as u8), key);
                        ops += 1;
                    }
                }
            }
            ops
        });
    }
}

/// The IOMMU on the L2 misses and victims, under the policy's inclusion
/// discipline: TLB lookup per request (a least-inclusive hit moves the
/// entry out), a walk through the walker scheduler per TLB miss, victim
/// or walk-fill insertion with the eviction counters and the spill-
/// receiver choice. Returns the keys that walked.
fn bench_iommu(
    cfg: &SystemConfig,
    below: &[Below],
    spans: &mut Spans,
    parent: usize,
) -> Vec<TranslationKey> {
    let mut io = Iommu::new(&cfg.iommu);
    let victim_tlb = cfg.policy.inclusion != Inclusion::MostlyInclusive;
    let spilling = cfg.policy.spilling;
    let credits = cfg.policy.spill_credits;
    let mut walks = Vec::new();
    for chunk in below.chunks(BATCH) {
        spans.time("iommu", parent, || {
            let mut requests = 0;
            for b in chunk {
                match *b {
                    Below::Miss { cycle, gpu, key } => {
                        requests += 1;
                        match io.tlb.lookup(key) {
                            Some(e) => {
                                if victim_tlb {
                                    io.tlb.remove(key);
                                    io.count_remove(e.origin);
                                }
                            }
                            None => {
                                let req = WalkRequest {
                                    key,
                                    requester: GpuId(gpu as u8),
                                };
                                black_box(io.walkers.submit(Cycle(cycle), req, WALK_CYCLES));
                                black_box(io.walkers.complete());
                                walks.push(key);
                                if !victim_tlb {
                                    iommu_insert(&mut io, key, GpuId(gpu as u8), credits, spilling);
                                }
                            }
                        }
                    }
                    Below::Evict { gpu, key, credits } => {
                        if victim_tlb && credits > 0 {
                            iommu_insert(&mut io, key, GpuId(gpu as u8), credits, spilling);
                        }
                    }
                }
            }
            requests
        });
    }
    walks
}

/// IOMMU TLB insertion with the eviction-counter bookkeeping and, under
/// spilling, the receiver choice for the displaced victim.
fn iommu_insert(io: &mut Iommu, key: TranslationKey, origin: GpuId, credits: u8, spilling: bool) {
    if let Some(old) = io.tlb.probe(key) {
        let old_origin = old.origin;
        io.count_remove(old_origin);
    }
    io.count_insert(origin);
    let entry = TlbEntry::new(PhysPage(key.vpn.0))
        .with_origin(origin)
        .with_spill_credits(credits);
    if let Some((_, ve)) = io.tlb.insert(key, entry) {
        io.count_remove(ve.origin);
        if spilling && ve.spill_credits > 0 {
            black_box(io.spill_receiver());
        }
    }
}

/// Page-table walks of the keys that walked, on page tables mapped as
/// `System::new` maps them (4 KB pages, footprint from page 0).
fn bench_pagetable(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    walks: &[TranslationKey],
    spans: &mut Spans,
    parent: usize,
) {
    let (gens, _) = generators(cfg, spec);
    let mut frames = FrameAllocator::new(cfg.phys_frames);
    let tables: Vec<PageTable> = gens
        .iter()
        .map(|g| {
            let mut t = PageTable::new();
            for vpn in 0..g.footprint_pages() {
                let frame = frames.allocate().expect("benchmark footprints fit memory");
                t.map(VirtPage(vpn), frame, PageSize::Size4K)
                    .expect("a fresh table has no conflicting mapping");
            }
            t
        })
        .collect();
    for chunk in walks.chunks(BATCH) {
        spans.time("pagetable", parent, || {
            for key in chunk {
                black_box(tables[usize::from(key.asid.0)].translate(key.vpn));
            }
            chunk.len() as u64
        });
    }
}

/// Each ATS request's round trip on the configured fabric: GPU to IOMMU,
/// then the response back, hop by hop along the route.
fn bench_fabric(cfg: &SystemConfig, below: &[Below], spans: &mut Spans, parent: usize) {
    let mut fabric = cfg.build_fabric();
    let iommu = fabric.iommu_node();
    for chunk in below.chunks(BATCH) {
        spans.time("fabric", parent, || {
            let mut sends = 0;
            for b in chunk {
                let Below::Miss { cycle, gpu, .. } = *b else {
                    continue;
                };
                let mut route = |from: usize, to: usize, at: Cycle| {
                    let (mut node, mut t) = (from, at);
                    while node != to {
                        let hop = fabric.send(t, node, to);
                        (node, t) = (hop.node, hop.arrive);
                        sends += 1;
                    }
                    t
                };
                let arrive = route(gpu, iommu, Cycle(cycle));
                black_box(route(iommu, gpu, arrive.after(IOMMU_TURNAROUND)));
            }
            sends
        });
    }
}
