//! A time-free transcription of the simulator's policy layer.
//!
//! [`Mirror`] re-implements the translation-request flow of
//! `least_tlb::System` *without* an event queue: each request is processed
//! to completion before the next one starts. When requests are injected
//! one at a time and drained between injections ("serial replay", see
//! [`crate::oracle`]), the event-driven simulator performs exactly the
//! same structural operations in exactly the same order — so every TLB's
//! statistics, resident keys and recency state, the IOMMU eviction
//! counters, and the per-app counters must match bit-for-bit after every
//! request.
//!
//! The only timing the serial flow leaves observable is the *relative*
//! order of the three racing events of the least-TLB probe/walk race
//! (paper Algorithm 1 lines 12-20). The mirror re-derives those orders
//! from the interconnect's zero-load distances (`fabric::Fabric`,
//! constructed exactly as the simulator constructs it from the config):
//!
//! - the remote probe enters the fabric at the requester's node and
//!   arrives at the holder `d_probe = zero_load(requester, holder)`
//!   cycles later; the walk finishes `service` cycles after launch.
//!   The probe wins iff `d_probe < service`, or on a tie iff the route
//!   is direct: a single-hop probe's arrival event is enqueued before
//!   the walk-completion event (FIFO tie-break), while a multi-hop
//!   probe's final leg is enqueued later, from an intermediate
//!   `FabricHop` dispatch.
//! - when the walk wins, its fill lands `d_fill =
//!   zero_load(iommu, requester)` cycles after walk completion; the
//!   probe still arrives and touches the holder's L2. The probe is
//!   processed before the fill iff `d_probe < service + d_fill` (tie
//!   again to a direct probe).
//!
//! Zero-load distances are exact here: within one serially-replayed
//! access, the probe (requester→holder) and the fill (IOMMU→requester)
//! can never contend for the same directed link in a distance-symmetric
//! topology — a shared link `u -> v` would need `dist(req, u) <
//! dist(req, v)` on the probe's shortest path and `dist(u, req) >
//! dist(v, req)` on the fill's, which symmetry forbids — and all four
//! standard topologies are distance-symmetric. Earlier traffic of the
//! same access (the request's own uplink message) departs every shared
//! link strictly before the probe reaches it.
//!
//! Per-message serialization cycles shift probe and fill arrivals by the
//! per-hop `message_cycles` already folded into the zero-load distances;
//! the deprecated `link_message_cycles` shim lands on the IOMMU
//! attachment links and is picked up the same way.
//!
//! Under the flat topology with no fabric section (every pre-existing
//! config), every route is a single direct link, `d_probe` is
//! `inter_gpu_latency` and `d_fill` is `gpu_iommu_latency`, so the rules
//! reduce exactly to the pre-fabric `<=` comparisons.
//!
//! # Windowed serve-cycle re-derivation
//!
//! The same zero-load distances make every *serve cycle* computable in
//! closed form: the instrumentation increments a `hops.*` counter at the
//! dispatch cycle of the serving handler, so a request injected at the
//! L2 at cycle `t0` serves at
//!
//! - `t0` for an L2 hit (counted in `on_l2_access` itself);
//! - `t0 + walk_latency` for a local page-table walk (no PWC on the
//!   local path);
//! - `t0 + d_up` for an IOMMU TLB hit, where `d_up = zero_load(gpu,
//!   iommu)` (the hop is counted at arrival, before `tlb_latency` is
//!   charged to the fill);
//! - `t0 + d_up + tlb_latency + service` for a page-table walk
//!   (`service` includes the PWC halving);
//! - `t0 + d_up + tlb_latency + d_probe` for a winning remote probe;
//!   a serialized probe miss restarts the walk at the probe's arrival,
//!   landing at `t0 + d_up + tlb_latency + d_probe + service`;
//! - `t0 + 2·d(origin, neighbour) + l2_latency` for a ring serve
//!   (probe out, L2 lookup, result back); an all-miss ring falls back
//!   to the IOMMU at the *last* result's arrival.
//!
//! [`Mirror::process`] takes the injection cycle and buckets each serve
//! into `floor(serve / window)` — exactly where the simulator's epoch
//! timeline attributes the counter delta, because the dispatch loop
//! closes windows *before* dispatching the batch popped at the boundary.
//! The oracle diffs these buckets against every closed
//! `TimelineWindow`'s `hops` deltas after each request.

use filters::LocalTlbTracker;
use gcn_model::GpuStats;
use iommu::IommuStats;
use least_tlb::{Inclusion, ReceiverPolicy, SystemConfig, WorkloadSpec};
use mgpu_types::{Asid, DetSet, GpuId, PageSize, PhysPage, TranslationKey, VirtPage};
use tlb::{Tlb, TlbEntry};
use workloads::AppWorkload;

/// Spill chains longer than this are cut (mirrors the simulator's cap).
const MAX_SPILL_CHAIN: u32 = 64;

/// A deliberately seeded policy bug, used to prove the oracle catches
/// real divergences (and that the fuzzer's shrinker minimizes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MirrorBug {
    /// Faithful transcription (the oracle must pass).
    #[default]
    None,
    /// Build the mirror's L2 TLBs with FIFO replacement regardless of the
    /// configured policy — victim choices diverge once a set fills up.
    FifoL2,
    /// Skip the eviction-counter decrement when a victim-hierarchy IOMMU
    /// hit moves an entry out of the IOMMU TLB — the counters drift high.
    SkipVictimCountRemove,
    /// Swap the shared/spilled classification of remote-probe serves in
    /// the mirrored hop counters — the observability layer's
    /// `hops.remote_shared` / `hops.remote_spill` split drifts.
    MisclassifySpillHit,
    /// Shift every serve cycle forward by half a timeline window before
    /// bucketing — the cumulative hop counters stay exact while the
    /// per-window resolution deltas drift against the simulator's epoch
    /// timeline.
    ShiftWindowBoundary,
}

/// Independent re-derivation of the observability layer's `hops.*`
/// resolution counters (one increment per *serve event*, exactly as the
/// simulator's instrumentation counts them). `l1_hit` and `fault` stay
/// zero in scripted serial replay: injections enter at the L2 and the
/// oracle only replays pre-mapped footprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorHops {
    /// Requests served by the local L2 TLB (`hops.l2_hit`).
    pub l2_hit: u64,
    /// Requests served by the IOMMU TLB or the infinite model
    /// (`hops.iommu_hit`).
    pub iommu_hit: u64,
    /// Walk completions that served at least one waiter (`hops.walk`);
    /// wasted walks do not count.
    pub walk: u64,
    /// Remote-probe serves out of a peer running the same app
    /// (`hops.remote_shared`).
    pub remote_shared: u64,
    /// Remote-probe serves that moved a spilled entry home
    /// (`hops.remote_spill`).
    pub remote_spill: u64,
    /// Valkyrie-ring probe serves (`hops.ring_remote`).
    pub ring_remote: u64,
    /// Per-GPU local page-table serves (`hops.local_walk`).
    pub local_walk: u64,
}

/// Per-app counters the mirror maintains (the scripted-mode subset of
/// `AppRunStats`; instruction/L1 counters stay zero in scripted runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorAppStats {
    /// L2 TLB lookups.
    pub l2_lookups: u64,
    /// L2 TLB hits.
    pub l2_hits: u64,
    /// IOMMU TLB lookups.
    pub iommu_lookups: u64,
    /// IOMMU TLB hits.
    pub iommu_hits: u64,
    /// Page-table walks performed on the app's behalf.
    pub walks: u64,
    /// Page faults raised.
    pub faults: u64,
    /// Requests served out of a peer GPU's L2 TLB.
    pub remote_hits: u64,
}

/// Per-app lane/footprint parameters derived exactly as
/// `System::new` derives them: footprints in pages, indexed by ASID.
#[must_use]
pub fn app_footprints(cfg: &SystemConfig, spec: &WorkloadSpec) -> Vec<u64> {
    let mut per_gpu_apps = vec![0usize; cfg.gpus];
    for p in &spec.placements {
        for &g in &p.gpus {
            per_gpu_apps[usize::from(g)] += 1;
        }
    }
    spec.placements
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let tenants = p
                .gpus
                .iter()
                .map(|&g| per_gpu_apps[usize::from(g)])
                .max()
                .unwrap_or(1);
            let share = cfg.gpu.wavefronts_per_cu / tenants;
            let lanes_per_gpu = cfg.gpu.cus * share.max(1);
            AppWorkload::new(
                p.app,
                Asid(i as u16),
                p.gpus.len(),
                lanes_per_gpu,
                cfg.scale,
                cfg.seed ^ (i as u64) << 32,
            )
            .footprint_pages()
        })
        .collect()
}

/// The sequential policy-layer mirror. See the [module docs](self).
#[derive(Debug)]
pub struct Mirror {
    policy: least_tlb::Policy,
    gpus: usize,
    fabric: fabric::Fabric,
    walk_flat: u64,
    tlb_latency: u64,
    l2_latency: u64,
    /// Resolved timeline window length (`SystemConfig::timeline_window`).
    window: u64,
    /// Per-window serve counts, indexed by `floor(serve_cycle / window)`.
    window_hops: Vec<MirrorHops>,
    l2: Vec<Tlb>,
    iommu_tlb: Tlb,
    pwc: Option<Tlb>,
    tracker: Option<LocalTlbTracker>,
    eviction_counters: Vec<u64>,
    spill_rr: usize,
    infinite_seen: DetSet<TranslationKey>,
    local_pt: Vec<DetSet<TranslationKey>>,
    gpu_stats: Vec<GpuStats>,
    iommu_stats: IommuStats,
    apps: Vec<MirrorAppStats>,
    app_gpus: Vec<Vec<GpuId>>,
    hops: MirrorHops,
    bug: MirrorBug,
}

impl Mirror {
    /// Builds a mirror of a scripted system running `spec` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on configurations the serial oracle does not model:
    /// non-4 KB pages, demand faulting, or the combinations `System::new`
    /// itself rejects with `BuildError::UnsupportedPolicy`
    /// (`infinite_iommu` or `probing_ring` with a tracker, and
    /// `probing_ring` over a multi-hop topology).
    #[must_use]
    pub fn new(cfg: &SystemConfig, spec: &WorkloadSpec, bug: MirrorBug) -> Self {
        assert!(
            cfg.page_size == PageSize::Size4K,
            "mirror models 4 KB pages only"
        );
        assert!(cfg.premap, "mirror assumes pre-mapped footprints");
        assert!(
            !(cfg.policy.infinite_iommu && cfg.policy.tracker.is_some()),
            "infinite IOMMU excludes the tracker"
        );
        assert!(
            !(cfg.policy.probing_ring && cfg.policy.tracker.is_some()),
            "probing ring excludes the tracker"
        );
        assert!(
            !cfg.policy.probing_ring || cfg.topology() == least_tlb::Topology::Flat,
            "the serial oracle models ring probing over the flat topology only"
        );
        let mut l2cfg = cfg.gpu.l2_tlb;
        if bug == MirrorBug::FifoL2 {
            l2cfg.replacement = tlb::ReplacementPolicy::Fifo;
        }
        Mirror {
            policy: cfg.policy,
            gpus: cfg.gpus,
            fabric: cfg.build_fabric(),
            walk_flat: cfg.iommu.walk_latency.cycles(4),
            tlb_latency: cfg.iommu.tlb_latency,
            l2_latency: cfg.gpu.l2_latency,
            window: cfg.timeline_window(),
            window_hops: Vec::new(),
            l2: (0..cfg.gpus).map(|_| Tlb::new(l2cfg)).collect(),
            iommu_tlb: Tlb::new(cfg.iommu.tlb),
            pwc: cfg.iommu.pwc.map(Tlb::new),
            tracker: cfg
                .policy
                .tracker
                .map(|b| LocalTlbTracker::new(cfg.gpus, b)),
            eviction_counters: vec![0; cfg.gpus],
            spill_rr: 0,
            infinite_seen: DetSet::new(),
            local_pt: vec![DetSet::new(); cfg.gpus],
            gpu_stats: vec![GpuStats::default(); cfg.gpus],
            iommu_stats: IommuStats::default(),
            apps: vec![MirrorAppStats::default(); spec.placements.len()],
            app_gpus: spec
                .placements
                .iter()
                .map(|p| p.gpus.iter().map(|&g| GpuId(g)).collect())
                .collect(),
            hops: MirrorHops::default(),
            bug,
        }
    }

    /// Processes one translation request to completion. `at` is the
    /// injection cycle (the simulator's `L2Access` dispatch time); serve
    /// cycles for the windowed hop buckets are derived from it (see the
    /// [module docs](self)).
    pub fn process(&mut self, gpu: GpuId, asid: Asid, vpn: VirtPage, at: u64) {
        let key = TranslationKey::new(asid, vpn);
        let idx = usize::from(asid.0);
        self.apps[idx].l2_lookups += 1;
        self.gpu_stats[gpu.index()].l2_requests += 1;
        if self.l2[gpu.index()].lookup(key).is_some() {
            self.apps[idx].l2_hits += 1;
            self.serve(at, |h| &mut h.l2_hit);
            return;
        }
        // Primary miss (serial replay: the MSHRs are empty between
        // requests, so every miss is primary).
        self.gpu_stats[gpu.index()].ats_sent += 1;
        let g = gpu.index();
        if self.policy.local_page_tables && self.local_pt[g].contains(&key) {
            // Local walkers bypass the PWC: flat 4-level service.
            self.serve(at + self.walk_flat, |h| &mut h.local_walk);
            self.fill(gpu, key);
        } else if self.policy.probing_ring && self.gpus > 1 {
            self.ring(gpu, key, idx, at);
        } else {
            let arrive = at + self.d_up(gpu);
            self.iommu_arrive(gpu, key, idx, arrive);
        }
    }

    /// Counts one serve event at cycle `at`: the cumulative counter and
    /// the timeline bucket `floor(at / window)` — where the simulator's
    /// epoch timeline attributes the delta, since windows close before
    /// the boundary batch dispatches.
    fn serve(&mut self, at: u64, hop: impl Fn(&mut MirrorHops) -> &mut u64) {
        *hop(&mut self.hops) += 1;
        let at = if self.bug == MirrorBug::ShiftWindowBoundary {
            at + self.window / 2
        } else {
            at
        };
        let idx = (at / self.window) as usize;
        if self.window_hops.len() <= idx {
            self.window_hops.resize(idx + 1, MirrorHops::default());
        }
        *hop(&mut self.window_hops[idx]) += 1;
    }

    /// Zero-load requester→IOMMU distance.
    fn d_up(&self, gpu: GpuId) -> u64 {
        self.fabric
            .zero_load_latency(gpu.index(), self.fabric.iommu_node())
    }

    // ------------------------------------------------------------------
    // Ring probing
    // ------------------------------------------------------------------

    fn ring(&mut self, origin: GpuId, key: TranslationKey, idx: usize, at: u64) {
        let g = origin.index();
        let n = self.gpus;
        let left = GpuId(((g + n - 1) % n) as u8);
        let right = GpuId(((g + 1) % n) as u8);
        let targets = if left == right {
            vec![left]
        } else {
            vec![left, right]
        };
        // Both probes are processed before either result returns; the
        // first positive result serves, the second is dropped. A result
        // from `target` arrives back at the origin after the probe leg,
        // the holder's L2 lookup, and the return leg.
        let hits: Vec<bool> = targets
            .iter()
            .map(|&target| self.remote_probe(target, key))
            .collect();
        let arrivals: Vec<u64> = targets
            .iter()
            .map(|&target| {
                at + 2 * self.fabric.zero_load_latency(g, target.index()) + self.l2_latency
            })
            .collect();
        if hits.iter().any(|&h| h) {
            self.apps[idx].remote_hits += 1;
            // The first positive result counts the hop on arrival.
            let first_hit = arrivals
                .iter()
                .zip(&hits)
                .filter_map(|(&a, &h)| h.then_some(a))
                .min()
                .unwrap_or(at);
            self.serve(first_hit, |h| &mut h.ring_remote);
            self.fill(origin, key);
        } else {
            // Both neighbours missed: the IOMMU request leaves at the
            // *last* result's arrival (§5.5 serialization penalty).
            let last = arrivals.iter().copied().max().unwrap_or(at);
            let arrive = last + self.d_up(origin);
            self.iommu_arrive(origin, key, idx, arrive);
        }
    }

    // ------------------------------------------------------------------
    // IOMMU side
    // ------------------------------------------------------------------

    /// `at` is the request's arrival cycle at the IOMMU (injection plus
    /// the uplink distance, plus any ring detour).
    fn iommu_arrive(&mut self, gpu: GpuId, key: TranslationKey, idx: usize, at: u64) {
        self.iommu_stats.requests += 1;
        // Serial replay: the pending table never holds a live entry when a
        // request arrives, so nothing merges.
        self.apps[idx].iommu_lookups += 1;

        if self.policy.infinite_iommu {
            if self.infinite_seen.contains(&key) {
                self.apps[idx].iommu_hits += 1;
                // The hit is counted at arrival, before `tlb_latency`.
                self.serve(at, |h| &mut h.iommu_hit);
                self.fill(gpu, key);
            } else {
                let service = self.walk_effects(key, idx);
                self.deliver_effects(gpu, key, at + self.tlb_latency + service);
                self.fill(gpu, key);
            }
            return;
        }

        match self.iommu_tlb.lookup(key) {
            Some(entry) => {
                self.apps[idx].iommu_hits += 1;
                self.serve(at, |h| &mut h.iommu_hit);
                if self.is_victim() {
                    // least-inclusive: the hit moves the entry to the
                    // requester's L2.
                    self.iommu_tlb.remove(key);
                    if self.bug != MirrorBug::SkipVictimCountRemove {
                        self.count_remove(entry.origin);
                    }
                }
                self.fill(gpu, key);
            }
            None => {
                let mut target = None;
                if self.policy.tracker.is_some() {
                    if let Some(tr) = &mut self.tracker {
                        target = tr.query(key, gpu);
                    }
                }
                let Some(holder) = target else {
                    // No probe: walk, deliver, fill.
                    let service = self.walk_effects(key, idx);
                    self.deliver_effects(gpu, key, at + self.tlb_latency + service);
                    self.fill(gpu, key);
                    return;
                };
                self.iommu_stats.probes += 1;
                let d_probe = self.fabric.zero_load_latency(gpu.index(), holder.index());
                if self.policy.serialize_remote {
                    // Probe first; only a probe miss falls back to the
                    // walk, which launches at the probe's arrival.
                    if self.remote_probe(holder, key) {
                        self.probe_serve(gpu, holder, key, idx, at + self.tlb_latency + d_probe);
                    } else {
                        let service = self.walk_effects(key, idx);
                        self.deliver_effects(gpu, key, at + self.tlb_latency + d_probe + service);
                        self.fill(gpu, key);
                    }
                    return;
                }
                // Race mode: the walk launches at arrival either way (its
                // PWC side effects precede the probe outcome). The race
                // is arbitrated by the fabric's zero-load distances; a
                // tie goes to the probe only on a direct route (see the
                // module docs for the FIFO argument).
                let service = self.walk_effects(key, idx);
                let direct = self.fabric.is_direct(gpu.index(), holder.index());
                let probe_wins = d_probe < service || (d_probe == service && direct);
                if probe_wins {
                    // Probe wins the race.
                    if self.remote_probe(holder, key) {
                        self.probe_serve(gpu, holder, key, idx, at + self.tlb_latency + d_probe);
                        self.iommu_stats.wasted_walks += 1;
                    } else {
                        self.deliver_effects(gpu, key, at + self.tlb_latency + service);
                        self.fill(gpu, key);
                    }
                    return;
                }
                let d_fill = self
                    .fabric
                    .zero_load_latency(self.fabric.iommu_node(), gpu.index());
                let probe_first =
                    d_probe < service + d_fill || (d_probe == service + d_fill && direct);
                let walk_done = at + self.tlb_latency + service;
                if probe_first {
                    // Walk wins; the probe still lands before the fill.
                    self.deliver_effects(gpu, key, walk_done);
                    let _ = self.remote_probe(holder, key);
                    self.fill(gpu, key);
                } else {
                    // Walk wins and the fill installs before the probe
                    // arrives (fill-chain spills may mutate the holder's
                    // L2 first).
                    self.deliver_effects(gpu, key, walk_done);
                    self.fill(gpu, key);
                    let _ = self.remote_probe(holder, key);
                }
            }
        }
    }

    /// Walk-launch side effects (stats + page-walk cache); returns the
    /// walk's service time, which arbitrates the probe/walk race.
    fn walk_effects(&mut self, key: TranslationKey, idx: usize) -> u64 {
        self.iommu_stats.walks += 1;
        self.apps[idx].walks += 1;
        let full = self.walk_flat;
        let Some(pwc) = &mut self.pwc else {
            return full;
        };
        let region = TranslationKey::new(key.asid, VirtPage(key.vpn.0 >> 9));
        if pwc.lookup(region).is_some() {
            self.iommu_stats.pwc_hits += 1;
            full / 2
        } else {
            pwc.insert(region, TlbEntry::new(PhysPage(0)));
            full
        }
    }

    /// Walk-result delivery side effects (everything except the fill):
    /// the mostly-inclusive baseline populates the IOMMU TLB; the
    /// infinite model records membership; victim hierarchies do nothing.
    /// Every call is a walk completion that serves its waiter, so this is
    /// also where the mirrored `hops.walk` counter increments (wasted
    /// walks never reach here). `at` is the walk's completion cycle.
    fn deliver_effects(&mut self, gpu: GpuId, key: TranslationKey, at: u64) {
        self.serve(at, |h| &mut h.walk);
        if self.policy.infinite_iommu {
            self.infinite_seen.insert(key);
        } else if !self.is_victim() {
            self.insert_iommu(key, self.policy.spill_credits, gpu, 0);
        }
    }

    /// A remote probe served the request out of `holder`'s L2. `at` is
    /// the probe's arrival cycle at the holder (where the hop counts).
    fn probe_serve(
        &mut self,
        requester: GpuId,
        holder: GpuId,
        key: TranslationKey,
        idx: usize,
        at: u64,
    ) {
        self.iommu_stats.probe_hits += 1;
        // The racing walk is already in service, so it cannot be
        // cancelled; it completes as a wasted walk (counted by callers in
        // race mode).
        self.apps[idx].remote_hits += 1;
        let holder_runs_app = self.app_gpus[idx].contains(&holder);
        let counted_as_shared = if self.bug == MirrorBug::MisclassifySpillHit {
            !holder_runs_app
        } else {
            holder_runs_app
        };
        if counted_as_shared {
            self.serve(at, |h| &mut h.remote_shared);
        } else {
            self.serve(at, |h| &mut h.remote_spill);
        }
        if !holder_runs_app {
            // Spilled entry: moved back, not shared.
            self.l2[holder.index()].remove(key);
            if let Some(tr) = &mut self.tracker {
                tr.remove(holder, key);
            }
        }
        self.fill(requester, key);
    }

    /// Serves a remote probe against `target`'s L2 (stats + recency only,
    /// exactly as `Gpu::remote_probe`). Returns whether it hit.
    fn remote_probe(&mut self, target: GpuId, key: TranslationKey) -> bool {
        let t = target.index();
        self.gpu_stats[t].remote_probes_in += 1;
        let hit = self.l2[t].probe(key).is_some();
        if hit {
            self.gpu_stats[t].remote_hits_in += 1;
            self.l2[t].touch(key);
        }
        hit
    }

    // ------------------------------------------------------------------
    // Fills, evictions, spilling
    // ------------------------------------------------------------------

    fn fill(&mut self, gpu: GpuId, key: TranslationKey) {
        self.install_l2(gpu, key, self.policy.spill_credits, 0);
        if self.policy.local_page_tables {
            self.local_pt[gpu.index()].insert(key);
        }
    }

    fn install_l2(&mut self, gpu: GpuId, key: TranslationKey, credits: u8, depth: u32) {
        let g = gpu.index();
        if self.l2[g].probe(key).is_some() {
            // Racing duplicate: refresh in place.
            self.l2[g].touch(key);
            if let Some(e) = self.l2[g].probe_mut(key) {
                e.spill_credits = e.spill_credits.max(credits);
            }
            return;
        }
        if let Some(tr) = &mut self.tracker {
            tr.insert(gpu, key);
        }
        let entry = TlbEntry::new(PhysPage(0))
            .with_origin(gpu)
            .with_spill_credits(credits);
        if let Some((vk, ve)) = self.l2[g].insert(key, entry) {
            self.l2_eviction(gpu, vk, ve, depth);
        }
    }

    fn l2_eviction(&mut self, gpu: GpuId, vkey: TranslationKey, ventry: TlbEntry, depth: u32) {
        if let Some(tr) = &mut self.tracker {
            tr.remove(gpu, vkey);
        }
        match self.policy.inclusion {
            Inclusion::MostlyInclusive => {}
            Inclusion::LeastInclusive | Inclusion::Exclusive => {
                if ventry.spill_credits > 0 {
                    self.insert_iommu(vkey, ventry.spill_credits, gpu, depth);
                }
            }
        }
    }

    fn insert_iommu(&mut self, key: TranslationKey, credits: u8, origin: GpuId, depth: u32) {
        if self.policy.infinite_iommu {
            self.infinite_seen.insert(key);
            return;
        }
        if let Some(quota) = self.policy.iommu_quota {
            if self.eviction_counters[origin.index()] >= quota
                && self.iommu_tlb.probe(key).is_none()
            {
                return;
            }
        }
        if self.policy.inclusion == Inclusion::Exclusive {
            for g in 0..self.gpus {
                if g != origin.index() && self.l2[g].remove(key).is_some() {
                    if let Some(tr) = &mut self.tracker {
                        tr.remove(GpuId(g as u8), key);
                    }
                }
            }
        }
        if let Some(old) = self.iommu_tlb.probe(key) {
            let old_origin = old.origin;
            self.count_remove(old_origin);
        }
        self.count_insert(origin);
        let entry = TlbEntry::new(PhysPage(0))
            .with_origin(origin)
            .with_spill_credits(credits);
        let Some((vk, ve)) = self.iommu_tlb.insert(key, entry) else {
            return;
        };
        self.count_remove(ve.origin);
        if self.policy.spilling && ve.spill_credits > 0 && depth < MAX_SPILL_CHAIN {
            let receiver = match self.policy.spill_receiver {
                ReceiverPolicy::MinEvictionCounter => self.min_counter_gpu(),
                ReceiverPolicy::RoundRobin => {
                    self.spill_rr = (self.spill_rr + 1) % self.gpus;
                    GpuId(self.spill_rr as u8)
                }
                ReceiverPolicy::Fixed => GpuId(0),
            };
            self.iommu_stats.spills += 1;
            if depth > 0 {
                self.iommu_stats.spill_chain += 1;
            }
            self.gpu_stats[receiver.index()].spills_received += 1;
            self.install_l2(receiver, vk, ve.spill_credits - 1, depth + 1);
        }
    }

    fn count_insert(&mut self, origin: GpuId) {
        self.eviction_counters[origin.index()] += 1;
    }

    fn count_remove(&mut self, origin: GpuId) {
        let c = &mut self.eviction_counters[origin.index()];
        assert!(*c > 0, "mirror eviction counter underflow for {origin}");
        *c -= 1;
    }

    /// Lowest-id GPU among those with the minimum eviction counter
    /// (matches `Iommu::spill_receiver`).
    fn min_counter_gpu(&self) -> GpuId {
        let mut best = 0;
        for g in 1..self.gpus {
            if self.eviction_counters[g] < self.eviction_counters[best] {
                best = g;
            }
        }
        GpuId(best as u8)
    }

    fn is_victim(&self) -> bool {
        matches!(
            self.policy.inclusion,
            Inclusion::LeastInclusive | Inclusion::Exclusive
        )
    }

    // ------------------------------------------------------------------
    // Read access for the oracle
    // ------------------------------------------------------------------

    /// GPU `g`'s mirrored L2 TLB.
    #[must_use]
    pub fn l2(&self, g: usize) -> &Tlb {
        &self.l2[g]
    }

    /// The mirrored IOMMU TLB.
    #[must_use]
    pub fn iommu_tlb(&self) -> &Tlb {
        &self.iommu_tlb
    }

    /// The mirrored page-walk cache, if configured.
    #[must_use]
    pub fn pwc(&self) -> Option<&Tlb> {
        self.pwc.as_ref()
    }

    /// GPU `g`'s mirrored counters.
    #[must_use]
    pub fn gpu_stats(&self, g: usize) -> &GpuStats {
        &self.gpu_stats[g]
    }

    /// The mirrored IOMMU counters.
    #[must_use]
    pub fn iommu_stats(&self) -> &IommuStats {
        &self.iommu_stats
    }

    /// The mirrored per-GPU eviction counters.
    #[must_use]
    pub fn eviction_counters(&self) -> &[u64] {
        &self.eviction_counters
    }

    /// App `i`'s mirrored counters.
    #[must_use]
    pub fn app(&self, i: usize) -> &MirrorAppStats {
        &self.apps[i]
    }

    /// The mirrored resolution-hop counters.
    #[must_use]
    pub fn hops(&self) -> &MirrorHops {
        &self.hops
    }

    /// Per-window serve counts, indexed by timeline window (buckets the
    /// mirror never served stay absent — the oracle treats them as
    /// zeros). Trailing buckets may cover windows the simulator has not
    /// closed yet; those are compared once a later request closes them.
    #[must_use]
    pub fn window_hops(&self) -> &[MirrorHops] {
        &self.window_hops
    }

    /// The resolved timeline window length the buckets use.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The seeded bug, if any.
    #[must_use]
    pub fn bug(&self) -> MirrorBug {
        self.bug
    }
}
