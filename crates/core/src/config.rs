//! System configuration and workload specification.

use std::error::Error;
use std::fmt;

use fabric::{Fabric, FabricConfig, FabricParams, Topology};
use gcn_model::GpuConfig;
use iommu::IommuConfig;
use mgpu_types::PageSize;
use serde::{Deserialize, Serialize};
use tlb::{ReplacementPolicy, TlbConfig};
use workloads::{AppKind, MultiAppMix, Placement, Scale};

use crate::system::Policy;

/// Full configuration of one simulated multi-GPU system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of GPUs (4 in the paper's baseline; 8/16 in §5.3).
    pub gpus: usize,
    /// Per-GPU geometry and latencies.
    pub gpu: GpuConfig,
    /// IOMMU geometry and latencies.
    pub iommu: IommuConfig,
    /// Translation-hierarchy policy (baseline, least-TLB, …).
    pub policy: Policy,
    /// Page size (4 KB default; 2 MB for §5.4).
    pub page_size: PageSize,
    /// Workload footprint scale.
    pub scale: Scale,
    /// One-way GPU ↔ IOMMU link latency in cycles (PCIe ≈ 300 ns round
    /// trip at 1 GHz → 150 each way).
    pub gpu_iommu_latency: u64,
    /// One-way GPU ↔ GPU link latency in cycles (high-bandwidth
    /// interconnect; swept in Fig. 20).
    pub inter_gpu_latency: u64,
    /// **Deprecated shim** — the pre-fabric GPU ↔ IOMMU bandwidth knob:
    /// cycles of link occupancy per ATS message in each direction
    /// (`None` = unbounded). Subsumed by [`SystemConfig::fabric`]; kept so
    /// old JSON configs still parse and behave identically. When set, it
    /// is folded into the IOMMU attachment links of whatever fabric
    /// [`SystemConfig::build_fabric`] resolves (see there for the exact
    /// rule).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub link_message_cycles: Option<u64>,
    /// Interconnect fabric section. `None` (the default, and what every
    /// pre-fabric JSON config deserializes to) builds the flat
    /// compatibility fabric: dedicated per-pair links carrying exactly
    /// `inter_gpu_latency` / `gpu_iommu_latency` with zero serialization,
    /// which reproduces the scalar-latency model bit-for-bit.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub fabric: Option<FabricConfig>,
    /// Per-app instruction budget for each GPU the app occupies; an app's
    /// first run completes when `budget × occupied GPUs` instructions have
    /// been issued.
    pub instructions_per_gpu: u64,
    /// Physical memory size in 4 KB frames.
    pub phys_frames: usize,
    /// Optional fragmentation injection `(pinned frames, stride)` before
    /// footprints are mapped (large-page study).
    pub fragmentation: Option<(usize, usize)>,
    /// Map application footprints into the page tables up front (the
    /// default). Disable to exercise demand faulting through the PRI
    /// batching path on every first touch.
    pub premap: bool,
    /// Record per-app reuse-distance histograms at the IOMMU.
    pub track_reuse: bool,
    /// Record per-app per-GPU touched-page sets (Fig. 4).
    pub track_sharing: bool,
    /// Record the L2-level translation-request trace (every L1 miss, with
    /// its cycle, GPU and key) for trace-driven replay.
    pub record_trace: bool,
    /// Take TLB-content snapshots every this many cycles (Figs. 6/11).
    pub snapshot_interval: Option<u64>,
    /// Hard event-count ceiling (guards against scheduling bugs).
    pub max_events: u64,
    /// Observability switches (metrics registry, lifecycle spans, trace
    /// export); all off by default, with a zero-cost disabled path.
    pub obs: obs::ObsConfig,
    /// Master seed; every run with the same seed and config is
    /// bit-identical.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's Table 2 system with `gpus` GPUs.
    #[must_use]
    pub fn paper(gpus: usize) -> Self {
        SystemConfig {
            gpus,
            gpu: GpuConfig::paper(),
            iommu: IommuConfig::paper(gpus),
            policy: Policy::baseline(),
            page_size: PageSize::Size4K,
            scale: Scale::Paper,
            gpu_iommu_latency: 150,
            inter_gpu_latency: 120,
            link_message_cycles: None,
            fabric: None,
            instructions_per_gpu: 3_000_000,
            phys_frames: 1 << 22, // 16 GB of 4 KB frames
            fragmentation: None,
            premap: true,
            track_reuse: false,
            track_sharing: false,
            record_trace: false,
            snapshot_interval: None,
            max_events: 3_000_000_000,
            obs: obs::ObsConfig::default(),
            seed: 0x1ea5_71b5,
        }
    }

    /// A proportionally scaled-down system (eighth-size TLBs and
    /// footprints, 8 CUs per GPU) for fast tests, CI and doctests. The
    /// ratios that drive the paper's effects — footprint ≫ IOMMU TLB ≫ L2
    /// TLB — are preserved.
    #[must_use]
    pub fn scaled_down(gpus: usize) -> Self {
        let mut cfg = Self::paper(gpus);
        cfg.gpu.cus = 8;
        cfg.gpu.wavefronts_per_cu = 4;
        cfg.gpu.l2_tlb = TlbConfig::new(64, 16, ReplacementPolicy::Lru);
        cfg.iommu.tlb = TlbConfig::new(512, 64, ReplacementPolicy::Lru);
        cfg.scale = Scale::Small;
        cfg.instructions_per_gpu = 400_000;
        cfg.phys_frames = 1 << 20;
        cfg
    }

    /// Builds the interconnect fabric this configuration describes.
    ///
    /// With no [`SystemConfig::fabric`] section this is the flat
    /// compatibility fabric: per-pair GPU links at `inter_gpu_latency`
    /// with zero serialization, and per-GPU IOMMU attachment links at
    /// `gpu_iommu_latency` whose serialization is the legacy
    /// `link_message_cycles` value (so old configs keep their exact
    /// pre-fabric timing, bandwidth cap included).
    ///
    /// With a fabric section, unset link latencies inherit the scalar
    /// latencies, every link serializes at `message_cycles`, and a legacy
    /// `link_message_cycles` larger than that still wins on the IOMMU
    /// attachment — a config that asked for a tight ATS bandwidth cap
    /// keeps it when a topology is merely added on top.
    #[must_use]
    pub fn build_fabric(&self) -> Fabric {
        let legacy = self.link_message_cycles.unwrap_or(0);
        let params = match &self.fabric {
            None => FabricParams {
                gpus: self.gpus,
                gpu_latency: self.inter_gpu_latency,
                iommu_latency: self.gpu_iommu_latency,
                gpu_message_cycles: 0,
                iommu_message_cycles: legacy,
                queue_capacity: 16,
            },
            Some(fc) => FabricParams {
                gpus: self.gpus,
                gpu_latency: fc.gpu_link_latency.unwrap_or(self.inter_gpu_latency),
                iommu_latency: fc.iommu_link_latency.unwrap_or(self.gpu_iommu_latency),
                gpu_message_cycles: fc.message_cycles,
                iommu_message_cycles: fc.message_cycles.max(legacy),
                queue_capacity: fc.queue_capacity,
            },
        };
        Fabric::of_topology(self.topology(), &params)
    }

    /// The resolved timeline window length in sim cycles. An explicit
    /// `obs.timeline_window` wins; `0` auto-derives a length targeting
    /// roughly 256 windows per run from the instruction budget (a
    /// deterministic config-only approximation of the run's cycle count;
    /// 64 cycles floor so tiny runs still window meaningfully).
    #[must_use]
    pub fn timeline_window(&self) -> u64 {
        if self.obs.timeline_window == 0 {
            (self.instructions_per_gpu / 256).max(64)
        } else {
            self.obs.timeline_window
        }
    }

    /// The interconnect topology in effect (flat when no fabric section
    /// is configured).
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.fabric
            .as_ref()
            .map_or(Topology::Flat, |fc| fc.topology)
    }

    /// The policy combination this configuration asks for that the
    /// simulator does not support, in words, if any. `System::new`
    /// rejects such a configuration with
    /// [`BuildError::UnsupportedPolicy`].
    #[must_use]
    pub(crate) fn unsupported_policy(&self) -> Option<String> {
        let p = &self.policy;
        if p.infinite_iommu && p.tracker.is_some() {
            Some("the infinite IOMMU TLB with a tracker (the limit study models the baseline hierarchy)".into())
        } else if p.probing_ring && p.tracker.is_some() {
            Some("ring probing with a tracker (two peer-sharing schemes at once)".into())
        } else if p.probing_ring && self.topology() != Topology::Flat {
            Some(format!(
                "ring probing over the {} topology (probing is modelled over the flat topology only)",
                self.topology()
            ))
        } else {
            None
        }
    }

    /// The IOMMU TLB capacity under the current policy (`usize::MAX` when
    /// the infinite-IOMMU study policy is active).
    #[must_use]
    pub fn iommu_capacity(&self) -> usize {
        if self.policy.infinite_iommu {
            usize::MAX
        } else {
            self.iommu.tlb.entries
        }
    }
}

/// Which applications run where.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Application placements (physical GPU indices).
    pub placements: Vec<Placement>,
    /// Human-readable name ("PR", "W4", …).
    pub name: String,
}

impl WorkloadSpec {
    /// Single-application mode: one app spanning GPUs `0..gpus`.
    #[must_use]
    pub fn single_app(kind: AppKind, gpus: usize) -> Self {
        WorkloadSpec {
            placements: vec![Placement {
                app: kind,
                gpus: (0..gpus as u8).collect(),
            }],
            name: kind.name().to_string(),
        }
    }

    /// An app running alone on one specific GPU of a `gpus`-GPU system
    /// (the "alone" configuration used for weighted-speedup baselines).
    #[must_use]
    pub fn alone_on(kind: AppKind, gpu: u8) -> Self {
        WorkloadSpec {
            placements: vec![Placement {
                app: kind,
                gpus: vec![gpu],
            }],
            name: format!("{}-alone", kind.name()),
        }
    }

    /// Multi-application mode from one of the paper's mixes.
    #[must_use]
    pub fn from_mix(mix: &MultiAppMix) -> Self {
        WorkloadSpec {
            placements: mix.placements.clone(),
            name: mix.name.to_string(),
        }
    }

    /// Number of GPUs the spec requires.
    #[must_use]
    pub fn gpus_required(&self) -> usize {
        self.placements
            .iter()
            .flat_map(|p| p.gpus.iter())
            .map(|&g| usize::from(g) + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Errors from [`System::new`](crate::System::new).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The spec names a GPU outside `0..config.gpus`.
    GpuOutOfRange {
        /// GPUs the spec needs.
        required: usize,
        /// GPUs the config provides.
        available: usize,
    },
    /// The spec has no applications.
    EmptyWorkload,
    /// More apps share one GPU than there are wavefront slots per CU.
    TooManyAppsPerGpu {
        /// Offending GPU.
        gpu: u8,
        /// Apps placed on it.
        apps: usize,
        /// Wavefront contexts per CU.
        slots: usize,
    },
    /// Physical memory cannot hold the combined footprints.
    OutOfPhysicalMemory,
    /// The policy combines features the simulator does not model
    /// together, and the sim-check oracle does not check: the infinite
    /// IOMMU TLB or ring probing with a tracker, or ring probing over a
    /// multi-hop topology.
    UnsupportedPolicy {
        /// The offending combination, in words.
        combination: String,
    },
    /// A replayed trace request names a GPU or ASID the system lacks.
    TraceRequestOutOfRange {
        /// 0-based index of the request in the trace.
        request: usize,
        /// The request's GPU.
        gpu: u8,
        /// The request's ASID.
        asid: u16,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::GpuOutOfRange {
                required,
                available,
            } => write!(
                f,
                "workload needs {required} GPUs but the system has {available}"
            ),
            BuildError::EmptyWorkload => write!(f, "workload spec has no applications"),
            BuildError::TooManyAppsPerGpu { gpu, apps, slots } => write!(
                f,
                "GPU {gpu} hosts {apps} apps but CUs have only {slots} wavefront slots"
            ),
            BuildError::OutOfPhysicalMemory => {
                write!(f, "physical memory too small for the combined footprints")
            }
            BuildError::UnsupportedPolicy { combination } => {
                write!(f, "unsupported policy combination: {combination}")
            }
            BuildError::TraceRequestOutOfRange { request, gpu, asid } => write!(
                f,
                "trace request {request} names GPU {gpu} / ASID {asid}, outside the replayed system"
            ),
        }
    }
}

impl Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        let c = SystemConfig::paper(4);
        assert_eq!(c.gpus, 4);
        assert_eq!(c.gpu.cus, 64);
        assert_eq!(c.iommu.tlb.entries, 4096);
        assert_eq!(c.page_size, PageSize::Size4K);
        assert_eq!(c.iommu_capacity(), 4096);
    }

    #[test]
    fn scaled_down_preserves_ratios() {
        let c = SystemConfig::scaled_down(4);
        // footprint ≫ IOMMU ≫ L2 still holds.
        assert!(c.iommu.tlb.entries > c.gpu.l2_tlb.entries * 4);
        assert!(c.gpu.l2_tlb.entries > c.gpu.l1_tlb.entries);
    }

    #[test]
    fn infinite_policy_reports_unbounded_capacity() {
        let mut c = SystemConfig::paper(4);
        c.policy = Policy::infinite_iommu();
        assert_eq!(c.iommu_capacity(), usize::MAX);
    }

    #[test]
    fn single_app_spec_spans_all_gpus() {
        let s = WorkloadSpec::single_app(AppKind::Mm, 4);
        assert_eq!(s.gpus_required(), 4);
        assert_eq!(s.placements.len(), 1);
        assert_eq!(s.name, "MM");
    }

    #[test]
    fn alone_spec_uses_one_gpu() {
        let s = WorkloadSpec::alone_on(AppKind::St, 2);
        assert_eq!(s.gpus_required(), 3, "GPU index 2 implies 3 GPUs");
        assert_eq!(s.placements[0].gpus, vec![2]);
    }

    #[test]
    fn from_mix_matches_table4() {
        let mixes = workloads::multi_app_workloads();
        let s = WorkloadSpec::from_mix(&mixes[3]);
        assert_eq!(s.name, "W4");
        assert_eq!(s.gpus_required(), 4);
        assert_eq!(s.placements.len(), 4);
    }

    #[test]
    fn pre_fabric_json_configs_still_parse() {
        // A config serialized before the fabric section existed: strip
        // both the new `fabric` key and the legacy shim from today's
        // output to reconstruct one.
        let mut cfg = SystemConfig::scaled_down(4);
        cfg.link_message_cycles = None;
        cfg.fabric = None;
        let json = serde_json::to_string(&cfg).expect("serializes");
        assert!(
            !json.contains("fabric") && !json.contains("link_message_cycles"),
            "absent optional sections must not be serialized: {json}"
        );
        let parsed: SystemConfig = serde_json::from_str(&json).expect("old-shape JSON parses");
        assert_eq!(parsed, cfg);
        assert_eq!(parsed.topology(), Topology::Flat);
    }

    #[test]
    fn fabric_section_round_trips_through_json() {
        let mut cfg = SystemConfig::scaled_down(8);
        let mut fc = FabricConfig::new(Topology::Mesh2d);
        fc.message_cycles = 4;
        fc.gpu_link_latency = Some(80);
        cfg.fabric = Some(fc);
        cfg.link_message_cycles = Some(200);
        let json = serde_json::to_string(&cfg).expect("serializes");
        let parsed: SystemConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn legacy_link_message_cycles_lands_on_the_iommu_attachment() {
        // Shim semantics: without a fabric section, the legacy bandwidth
        // cap serializes the IOMMU links exactly as the old per-GPU
        // ServerPool pair did, and GPU links stay uncontended.
        let mut cfg = SystemConfig::scaled_down(4);
        cfg.link_message_cycles = Some(200);
        let mut f = cfg.build_fabric();
        let iommu = f.iommu_node();
        let t = mgpu_types::Cycle(1000);
        let first = f.send(t, 0, iommu);
        let second = f.send(t, 0, iommu);
        assert_eq!(first.arrive.0, 1000 + 200 + cfg.gpu_iommu_latency);
        assert_eq!(second.arrive.0, first.arrive.0 + 200);
        assert_eq!(f.send(t, 0, 1).arrive.0, 1000 + cfg.inter_gpu_latency);

        // With a fabric section on top, the larger of the two bandwidth
        // knobs governs the IOMMU attachment.
        cfg.fabric = Some(FabricConfig::new(Topology::Flat));
        let mut f = cfg.build_fabric();
        assert_eq!(
            f.send(t, 0, iommu).arrive.0,
            1000 + 200 + cfg.gpu_iommu_latency
        );
    }

    #[test]
    fn build_error_displays() {
        let e = BuildError::GpuOutOfRange {
            required: 8,
            available: 4,
        };
        assert!(e.to_string().contains('8'));
        assert!(BuildError::EmptyWorkload
            .to_string()
            .contains("no applications"));
    }
}
