//! Fabric equivalence and oracle coverage.
//!
//! Three guarantees, in increasing order of topology ambition:
//!
//! 1. An **explicit flat fabric with zero serialization** is byte-for-byte
//!    identical to running with no `fabric` section at all — the fabric
//!    layer is a pure refactor of the pre-fabric transport when asked to
//!    model the same thing.
//! 2. The deprecated **`link_message_cycles` shim** produces the same
//!    bytes as the explicit flat `FabricConfig` it maps to (under the
//!    baseline policy, whose traffic only uses the IOMMU attachment —
//!    the shim never serialized GPU-to-GPU links).
//! 3. The **serial differential oracle stays green** under ring, mesh
//!    and switch topologies at 8 and 16 GPUs with serialization
//!    (contention) on, across two latency regimes chosen so that both
//!    probe-wins and fill-before-probe races occur — and, per the
//!    Mirror's zero-load race model, chosen to avoid exact ties whose
//!    resolution depends on multi-hop event insertion order.
//!
//! Ring probing is the one policy the oracle checks over the flat
//! topology only, and the last test pins that `System::new` refuses it on
//! a multi-hop fabric, so no such configuration runs unverified.

use least_tlb::{
    BuildError, FabricConfig, Policy, RunResult, System, SystemConfig, Topology, WorkloadSpec,
};
use sim_check::fuzz::generate;
use sim_check::mirror::app_footprints;
use sim_check::{run_serial, Access, Gen};
use tlb::{ReplacementPolicy, TlbConfig};
use workloads::AppKind;

/// Runs a full timed simulation and strips the fields that legitimately
/// differ between equivalent runs: host wall-clock telemetry, and the
/// fabric summary (present exactly when the config carries an explicit
/// `fabric` section — its *content* is not part of the timing contract).
fn timed_run(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunResult {
    let mut r = System::new(cfg, spec).expect("config builds").run();
    r.telemetry = None;
    r.fabric = None;
    r
}

fn as_json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("RunResult serializes")
}

/// Guarantee 1: `topology = flat` + `message_cycles = 0` reproduces the
/// pre-fabric timing byte-identically, across the policies that exercise
/// every message kind (baseline: IOMMU round-trips; spilling least-TLB:
/// probes, remote fills, spill victims; probing ring: ring traversal).
#[test]
fn flat_zero_serialization_is_byte_identical_to_no_fabric() {
    let cases: [(Policy, AppKind); 3] = [
        (Policy::baseline(), AppKind::Km),
        (Policy::least_tlb_spilling(), AppKind::Pr),
        (Policy::probing_ring(), AppKind::Mt),
    ];
    for (policy, kind) in cases {
        let mut bare = SystemConfig::scaled_down(4);
        bare.instructions_per_gpu = 30_000;
        bare.policy = policy;
        let mut explicit = bare.clone();
        explicit.fabric = Some(FabricConfig::new(Topology::Flat));
        let spec = WorkloadSpec::single_app(kind, 4);
        assert_eq!(
            as_json(&timed_run(&bare, &spec)),
            as_json(&timed_run(&explicit, &spec)),
            "explicit flat fabric diverged from the pre-fabric model ({kind:?})"
        );
    }
}

/// Guarantee 2: the deprecated `link_message_cycles` knob equals the
/// explicit flat fabric it is documented to map to. Baseline policy:
/// its traffic uses only the IOMMU attachment, where both spellings put
/// the serialization; the shim never serialized GPU-to-GPU links.
#[test]
fn legacy_link_message_cycles_matches_explicit_flat_fabric() {
    let mut legacy = SystemConfig::scaled_down(4);
    legacy.instructions_per_gpu = 30_000;
    legacy.policy = Policy::baseline();
    let mut explicit = legacy.clone();
    #[allow(deprecated)]
    {
        legacy.link_message_cycles = Some(200);
    }
    let mut fc = FabricConfig::new(Topology::Flat);
    fc.message_cycles = 200;
    explicit.fabric = Some(fc);
    let spec = WorkloadSpec::single_app(AppKind::Km, 4);
    assert_eq!(
        as_json(&timed_run(&legacy, &spec)),
        as_json(&timed_run(&explicit, &spec)),
        "legacy link_message_cycles shim diverged from explicit flat fabric"
    );
}

/// Scripted accesses over the spec's placements (same recipe as the
/// oracle matrix): a hot ~64-page window mixed with cold sweeps.
fn accesses_for(cfg: &SystemConfig, spec: &WorkloadSpec, n: usize, seed: u64) -> Vec<Access> {
    let footprints = app_footprints(cfg, spec);
    let mut g = Gen::new(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let asid = g.below(spec.placements.len() as u64) as usize;
        let gpus = &spec.placements[asid].gpus;
        let gpu = gpus[g.below(gpus.len() as u64) as usize];
        let f = footprints[asid].max(1);
        let vpn = if g.below(3) != 0 {
            g.below(64.min(f))
        } else {
            g.below(f)
        };
        out.push(Access {
            gpu,
            asid: asid as u16,
            vpn,
        });
    }
    out
}

/// Guarantee 3: the serial oracle stays green on every multi-hop
/// topology with serialization on, in two latency regimes:
///
/// - **fast** (gpu 7, iommu 13, serialization 3): every zero-load probe
///   distance beats the 500-cycle walk, so probes always win the race;
/// - **slow** (gpu 300, iommu 450, serialization 3): one-hop probes win,
///   multi-hop probes lose, and on large rings the probe even arrives
///   after the walk's fill — covering all three Mirror race branches.
///
/// Both regimes avoid exact ties against the walk service (500, or 250
/// on a PWC hit — no PWC here): fast distances are multiples of 10 plus
/// a 16-cycle IOMMU leg, slow ones multiples of 303 plus 453, and
/// neither lattice contains 500 or 500 + fill-distance.
#[test]
fn oracle_green_on_multihop_topologies_with_contention() {
    let regimes: [(&str, u64, u64); 2] = [("fast", 7, 13), ("slow", 300, 450)];
    let topologies = [Topology::Ring, Topology::Mesh2d, Topology::Switch];
    let policies = [Policy::baseline(), Policy::least_tlb_spilling()];
    let mut totals = sim_check::OracleReport::default();
    let mut case = 0u64;
    for gpus in [8usize, 16] {
        for topology in topologies {
            for policy in policies {
                for (_, gpu_lat, iommu_lat) in regimes {
                    let mut cfg = SystemConfig::scaled_down(gpus);
                    cfg.policy = policy;
                    cfg.fabric = Some(FabricConfig {
                        topology,
                        gpu_link_latency: Some(gpu_lat),
                        iommu_link_latency: Some(iommu_lat),
                        message_cycles: 3,
                        queue_capacity: 16,
                    });
                    // Tighten the TLBs hard: 250 accesses split across up
                    // to 16 GPUs leave each L2 only ~16, so both levels
                    // must be tiny for the eviction → credited IOMMU
                    // entry → spill chain to fire at all.
                    cfg.gpu.l2_tlb = TlbConfig::new(4, 2, ReplacementPolicy::Lru);
                    cfg.iommu.tlb = TlbConfig::new(16, 4, ReplacementPolicy::Lru);
                    let spec = WorkloadSpec::single_app(AppKind::Pr, gpus);
                    let accesses = accesses_for(&cfg, &spec, 250, 0xfab0_0000 + case);
                    let r = run_serial(&cfg, &spec, &accesses)
                        .unwrap_or_else(|d| panic!("{d} ({topology:?}, {gpus} GPUs, case {case})"));
                    totals.walks += r.walks;
                    totals.remote_hits += r.remote_hits;
                    totals.spills += r.spills;
                    case += 1;
                }
            }
        }
    }
    // The sweep must actually exercise the raced paths, not degenerate
    // into pure cold misses.
    assert!(totals.walks > 0, "sweep never walked");
    assert!(totals.remote_hits > 0, "sweep never hit remotely");
    assert!(totals.spills > 0, "sweep never spilled");
}

/// The fuzzer's sanitizer drops ring probing on ring, mesh and switch
/// fabrics, because the oracle does not model it there. The case it
/// would otherwise run, ring probing over a 2-D mesh, must be one the
/// simulator itself refuses to build.
#[test]
fn unsanitized_ring_probing_over_a_mesh_is_rejected_at_build_time() {
    let mut case = generate(&mut Gen::new(0x7269_6e67));
    case.gpus = 4;
    case.ring = true;
    case.fabric_topology = 3;
    let (mut cfg, spec) = case.to_config();
    assert_eq!(cfg.topology(), Topology::Mesh2d);
    assert!(!cfg.policy.probing_ring, "the sanitizer drops the ring");
    cfg.policy.probing_ring = case.ring;
    for built in [System::new(&cfg, &spec), System::new_scripted(&cfg, &spec)] {
        match built.map(|_| ()) {
            Err(BuildError::UnsupportedPolicy { combination }) => {
                assert!(combination.contains("mesh"), "{combination}");
            }
            other => panic!("ring probing over a mesh was not rejected: {other:?}"),
        }
    }
}
