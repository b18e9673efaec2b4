//! End-to-end system tests spanning all crates: determinism, cross
//! structure invariants, policy semantics, and the auxiliary paths
//! (faulting, superpages, local page tables, probing, shootdowns).

use least_tlb::{Policy, System, SystemConfig, WorkloadSpec};
use mgpu_types::{GpuId, PageSize};
use workloads::{multi_app_workloads, AppKind};

fn quick_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled_down(4);
    cfg.instructions_per_gpu = 150_000;
    cfg
}

#[test]
fn same_seed_is_bit_identical() {
    let run = || {
        let mut cfg = quick_cfg();
        cfg.policy = Policy::least_tlb();
        System::new(&cfg, &WorkloadSpec::single_app(AppKind::Pr, 4))
            .unwrap()
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.end_cycle, b.end_cycle);
    assert_eq!(a.events, b.events);
    assert_eq!(a.iommu, b.iommu);
    assert_eq!(a.iommu_tlb, b.iommu_tlb);
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(x.stats, y.stats);
    }
}

#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let mut cfg = quick_cfg();
        cfg.seed = seed;
        System::new(&cfg, &WorkloadSpec::single_app(AppKind::Pr, 4))
            .unwrap()
            .run()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        (a.end_cycle, a.events),
        (b.end_cycle, b.events),
        "seeds must actually perturb the run"
    );
}

#[test]
fn every_app_completes_its_budget() {
    for mix in &multi_app_workloads()[..3] {
        let cfg = quick_cfg();
        let r = System::new(&cfg, &WorkloadSpec::from_mix(mix))
            .unwrap()
            .run();
        for a in &r.apps {
            assert!(
                a.stats.completion_cycle.is_some(),
                "{} never completed in {}",
                a.kind,
                mix.name
            );
            assert!(a.stats.instructions >= cfg.instructions_per_gpu);
            assert!(a.stats.instructions < cfg.instructions_per_gpu * 2);
        }
        assert!(r.end_cycle > 0);
    }
}

#[test]
fn eviction_counters_match_iommu_contents_under_spilling() {
    // Run the spilling policy and check the §4.2 counter invariant
    // mid-flight by re-running with invariant checks at the end.
    let mut cfg = quick_cfg();
    cfg.policy = Policy::least_tlb_spilling();
    let mixes = multi_app_workloads();
    let sys = System::new(&cfg, &WorkloadSpec::from_mix(&mixes[9])).unwrap();
    // Drive manually so we can check invariants mid-run: System::run
    // consumes self, so instead run to completion and rely on the fact
    // that check_invariants is also exercised below pre-run.
    sys.check_invariants();
    let r = sys.run();
    assert!(r.iommu.spills > 0, "HHHH workload must spill");
}

#[test]
fn exact_tracker_matches_l2_contents() {
    let mut cfg = quick_cfg();
    cfg.policy = Policy::least_tlb();
    cfg.policy.tracker = Some(filters::TrackerBackend::Exact);
    let sys = System::new(&cfg, &WorkloadSpec::single_app(AppKind::St, 4)).unwrap();
    sys.check_invariants();
    // A full run with the exact tracker must not panic on the invariant
    // used inside remote probing.
    let r = sys.run();
    assert!(r.tracker.unwrap().inserts > 0);
}

#[test]
fn least_tlb_produces_remote_hits_on_sharing_apps() {
    let mut cfg = quick_cfg();
    cfg.instructions_per_gpu = 400_000;
    cfg.policy = Policy::least_tlb();
    let r = System::new(&cfg, &WorkloadSpec::single_app(AppKind::St, 4))
        .unwrap()
        .run();
    assert!(r.iommu.probes > 0, "tracker must trigger probes");
    assert!(
        r.iommu.probe_hits > 0,
        "ST sharing must produce remote hits"
    );
}

#[test]
fn infinite_iommu_never_misses_twice() {
    let mut cfg = quick_cfg();
    cfg.policy = Policy::infinite_iommu();
    let r = System::new(&cfg, &WorkloadSpec::single_app(AppKind::Bs, 4))
        .unwrap()
        .run();
    let s = &r.apps[0].stats;
    // Misses are bounded by the number of distinct pages (cold misses).
    let footprint = workloads::AppWorkload::new(
        AppKind::Bs,
        mgpu_types::Asid(0),
        4,
        1,
        workloads::Scale::Small,
        0,
    )
    .footprint_pages();
    assert!(
        s.iommu_lookups - s.iommu_hits <= footprint,
        "infinite TLB misses ({}) exceed footprint ({footprint})",
        s.iommu_lookups - s.iommu_hits
    );
}

#[test]
fn demand_faulting_exercises_pri_batching() {
    let mut cfg = quick_cfg();
    cfg.premap = false;
    cfg.instructions_per_gpu = 60_000;
    let r = System::new(&cfg, &WorkloadSpec::single_app(AppKind::Aes, 4))
        .unwrap()
        .run();
    assert!(r.iommu.faults > 0, "unmapped pages must fault");
    assert!(r.end_cycle > 0);
    assert!(
        r.apps[0].stats.completion_cycle.is_some(),
        "faulting run still completes"
    );
}

#[test]
fn superpages_collapse_translation_traffic() {
    let mk = |size| {
        let mut cfg = quick_cfg();
        cfg.page_size = size;
        System::new(&cfg, &WorkloadSpec::single_app(AppKind::Mt, 4))
            .unwrap()
            .run()
    };
    let small = mk(PageSize::Size4K);
    let big = mk(PageSize::Size2M);
    assert!(
        big.iommu.requests * 4 < small.iommu.requests,
        "2MB pages must slash IOMMU traffic ({} vs {})",
        big.iommu.requests,
        small.iommu.requests
    );
    assert!(big.end_cycle <= small.end_cycle, "2MB must not be slower");
}

#[test]
fn local_page_tables_keep_misses_off_the_iommu() {
    let mk = |local| {
        let mut cfg = quick_cfg();
        // A tiny L2 forces repeat misses to the same pages; only the
        // first touch per GPU may reach the IOMMU in local-PT mode.
        cfg.gpu.l2_tlb = tlb::TlbConfig::new(16, 16, tlb::ReplacementPolicy::Lru);
        cfg.instructions_per_gpu = 900_000;
        cfg.policy.local_page_tables = local;
        System::new(&cfg, &WorkloadSpec::single_app(AppKind::St, 4))
            .unwrap()
            .run()
    };
    let shared = mk(false);
    let local = mk(true);
    assert!(
        (local.iommu.requests as f64) < shared.iommu.requests as f64 * 0.9,
        "local page tables must absorb a chunk of the repeat misses ({} vs {})",
        local.iommu.requests,
        shared.iommu.requests
    );
}

#[test]
fn probing_ring_serves_some_requests_remotely() {
    let mut cfg = quick_cfg();
    cfg.instructions_per_gpu = 400_000;
    cfg.policy = Policy::probing_ring();
    let r = System::new(&cfg, &WorkloadSpec::single_app(AppKind::St, 4))
        .unwrap()
        .run();
    let remote: u64 = r.apps.iter().map(|a| a.stats.remote_hits).sum();
    assert!(remote > 0, "ring probing must find neighbour hits on ST");
}

#[test]
fn exclusive_hierarchy_runs_clean() {
    let mut cfg = quick_cfg();
    cfg.policy = Policy::exclusive();
    let r = System::new(&cfg, &WorkloadSpec::single_app(AppKind::Pr, 4))
        .unwrap()
        .run();
    assert!(r.end_cycle > 0);
    assert!(
        r.iommu_tlb.insertions > 0,
        "victims must reach the IOMMU TLB"
    );
}

#[test]
fn shootdowns_invalidate_and_reset() {
    let mut cfg = quick_cfg();
    cfg.policy = Policy::least_tlb();
    let mut sys = System::new(&cfg, &WorkloadSpec::single_app(AppKind::Km, 4)).unwrap();
    sys.shootdown_gpu(GpuId(0));
    assert_eq!(sys.gpu(0).l2_tlb.len(), 0);
    sys.shootdown_iommu();
    assert_eq!(sys.iommu().tlb.len(), 0);
    assert!(sys.iommu().eviction_counters.iter().all(|&c| c == 0));
    // The system still runs to completion afterwards.
    let r = sys.run();
    assert!(r.end_cycle > 0);
    r.apps[0]
        .stats
        .completion_cycle
        .expect("post-shootdown run completes");
}

#[test]
fn eight_gpu_systems_run() {
    let mut cfg = SystemConfig::scaled_down(8);
    cfg.instructions_per_gpu = 80_000;
    cfg.policy = Policy::least_tlb();
    let r = System::new(&cfg, &WorkloadSpec::single_app(AppKind::Pr, 8))
        .unwrap()
        .run();
    assert_eq!(r.gpu_l2.len(), 8);
    assert!(r.end_cycle > 0);
}

#[test]
fn mix_workloads_share_gpus() {
    let mixes = workloads::mix_workloads();
    let mut cfg = quick_cfg();
    cfg.instructions_per_gpu = 100_000;
    cfg.policy = Policy::least_tlb_spilling();
    let r = System::new(&cfg, &WorkloadSpec::from_mix(&mixes[0]))
        .unwrap()
        .run();
    assert_eq!(r.apps.len(), 6, "W17 runs six apps on three GPUs");
    for a in &r.apps {
        assert!(a.stats.completion_cycle.is_some(), "{} completed", a.kind);
    }
}

#[test]
fn build_errors_are_reported() {
    use least_tlb::BuildError;
    let cfg = quick_cfg();
    // Too many GPUs requested.
    let err = System::new(&cfg, &WorkloadSpec::single_app(AppKind::Pr, 8)).unwrap_err();
    assert!(matches!(err, BuildError::GpuOutOfRange { .. }));
    // Empty workload.
    let empty = WorkloadSpec {
        placements: vec![],
        name: "empty".into(),
    };
    assert!(matches!(
        System::new(&cfg, &empty).unwrap_err(),
        BuildError::EmptyWorkload
    ));
    // Physical memory too small.
    let mut tiny = quick_cfg();
    tiny.phys_frames = 16;
    assert!(matches!(
        System::new(&tiny, &WorkloadSpec::single_app(AppKind::Pr, 4)).unwrap_err(),
        BuildError::OutOfPhysicalMemory
    ));
}

#[test]
fn unsupported_policy_combinations_are_rejected() {
    use least_tlb::BuildError;
    let spec = WorkloadSpec::single_app(AppKind::Pr, 4);
    let rejected = |policy: Policy, needle: &str| {
        let mut cfg = quick_cfg();
        cfg.policy = policy;
        let err = System::new(&cfg, &spec).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, BuildError::UnsupportedPolicy { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains(needle), "no '{needle}' in: {msg}");
        // Scripted systems (trace replay) go through the same check.
        assert!(System::new_scripted(&cfg, &spec).is_err());
    };
    let tracker = Policy::least_tlb().tracker;
    rejected(
        Policy {
            tracker,
            ..Policy::infinite_iommu()
        },
        "infinite IOMMU TLB with a tracker",
    );
    rejected(
        Policy {
            tracker,
            ..Policy::probing_ring()
        },
        "ring probing with a tracker",
    );
    // Each scheme alone still builds, and so does probing over an
    // explicit flat fabric.
    let mut cfg = quick_cfg();
    for policy in [Policy::infinite_iommu(), Policy::probing_ring()] {
        cfg.policy = policy;
        assert!(System::new(&cfg, &spec).is_ok());
    }
    cfg.fabric = Some(least_tlb::FabricConfig::new(least_tlb::Topology::Flat));
    assert!(System::new(&cfg, &spec).is_ok());
}

#[test]
fn spill_bit_limits_recirculation() {
    // With N=1, spilled entries must not bounce back: the chain counter
    // stays well below the spill count.
    let mixes = multi_app_workloads();
    let mut cfg = quick_cfg();
    cfg.policy = Policy::least_tlb_n(1);
    let r1 = System::new(&cfg, &WorkloadSpec::from_mix(&mixes[9]))
        .unwrap()
        .run();
    cfg.policy = Policy::least_tlb_n(2);
    let r2 = System::new(&cfg, &WorkloadSpec::from_mix(&mixes[9]))
        .unwrap()
        .run();
    assert!(
        r2.iommu.spill_chain >= r1.iommu.spill_chain,
        "N=2 must not reduce chain pressure (N=1: {}, N=2: {})",
        r1.iommu.spill_chain,
        r2.iommu.spill_chain
    );
}
