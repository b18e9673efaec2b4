//! The benchmark's metric table: every metric it emits, with its unit and
//! which direction is better, plus the regression bound of each
//! end-to-end metric. `BENCHMARK.json` at the repository root lists the
//! same names; `tests/benchmark.rs` keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, counts of work, memory).
    Lower,
    /// Larger values are better (hit ratios, precision).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Absolute floor under the bound, in the metric's unit: a change is
    /// never a regression for moving less than this (sub-millisecond
    /// set-up times and megabyte-scale memory are too coarse for a pure
    /// share).
    pub floor: f64,
}

impl EndToEnd {
    /// The share this metric may worsen by, relative to `before` (its
    /// parent's median): the larger of the relative bound and the
    /// absolute floor expressed as a share.
    #[must_use]
    pub fn allowed_share(&self, before: f64) -> f64 {
        if before > 0.0 {
            self.bound.max(self.floor / before)
        } else {
            self.bound
        }
    }
}

/// Host seconds for one pass of the workload's fixed job.
pub const JOB_S: &str = "job_s";
/// Median set-up time.
pub const SETUP_S: &str = "setup_s";
/// Peak resident memory of the workload.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// End-to-end metrics, emitted by the e2e pass (`--trace 0`) of every
/// workload. Every bound is 25%, the most `BENCHMARK.json` allows: across
/// the baseline's runs (`baseline.json`) the widest spreads were 7%
/// (`job_s`), 14% (`setup_s`) and 16% (`peak_rss_mb`), and the shared
/// host's speed drifts by up to 10% over minutes.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: JOB_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.002,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 2.0,
    },
];

/// One per-layer metric: work, cost or efficiency of a single layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Whether the value is derived from simulated counts only, and so
    /// repeats exactly for a seed (host timings do not).
    pub exact: bool,
}

/// A metric derived from simulated counts.
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// A metric derived from host time.
const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, emitted by the traced pass (`--trace 1`) of every
/// workload. Layers a workload does not exercise report zero work.
pub const PER_LAYER: [PerLayer; 43] = [
    count("sim-engine.events", "count", Lower),
    count("sim-engine.events_per_kinstr", "events/kinstr", Lower),
    count("sim-engine.queue_high_water", "count", Lower),
    timing("sim-engine.ns_per_event", "ns"),
    timing("sim-engine.busy_s", "s"),
    count("workloads.next_op_calls", "count", Lower),
    timing("workloads.ns_per_op", "ns"),
    timing("workloads.busy_s", "s"),
    count("gcn-model.l1.lookups", "count", Lower),
    count("gcn-model.l1.hit_ratio", "ratio", Higher),
    count("gcn-model.l1.isolated_hit_ratio", "ratio", Higher),
    timing("gcn-model.l1.ns_per_lookup", "ns"),
    timing("gcn-model.l1.busy_s", "s"),
    count("gcn-model.l2.lookups", "count", Lower),
    count("gcn-model.l2.hit_ratio", "ratio", Higher),
    timing("gcn-model.l2.ns_per_lookup", "ns"),
    timing("gcn-model.l2.busy_s", "s"),
    count("filters.tracker.queries", "count", Lower),
    count("filters.tracker.probe_precision", "ratio", Higher),
    timing("filters.tracker.ns_per_op", "ns"),
    timing("filters.tracker.busy_s", "s"),
    count("iommu.requests", "count", Lower),
    count("iommu.tlb_hit_ratio", "ratio", Higher),
    count("iommu.walks", "count", Lower),
    count("iommu.useless_walk_ratio", "ratio", Lower),
    count("iommu.spills", "count", Lower),
    timing("iommu.ns_per_request", "ns"),
    timing("iommu.busy_s", "s"),
    timing("pagetable.ns_per_walk", "ns"),
    timing("pagetable.busy_s", "s"),
    count("fabric.messages", "count", Lower),
    count("fabric.forward_hops", "count", Lower),
    count("fabric.max_link_utilization", "ratio", Lower),
    timing("fabric.ns_per_send", "ns"),
    timing("fabric.busy_s", "s"),
    timing("core.wall_s", "s"),
    timing("core.residual_s", "s"),
    timing("core.residual_share", "ratio"),
    timing("core.host_ns_per_event", "ns"),
    count("core.wf_dispatch_share", "ratio", Lower),
    timing("obs.metrics_overhead_pct", "%"),
    timing("obs.timeline_overhead_pct", "%"),
    timing("obs.profile_overhead_pct", "%"),
];

/// The unit of an emitted metric, end-to-end or per-layer.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_valid() {
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn floors_widen_the_bound_for_small_values() {
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        // 2 ms floor on a 4 ms set-up: 50% may be lost before it counts.
        assert!((setup.allowed_share(0.004) - 0.5).abs() < 1e-12);
        // On a 1 s set-up the 25% share governs.
        assert!((setup.allowed_share(1.0) - 0.25).abs() < 1e-12);
        let rss = END_TO_END.iter().find(|m| m.name == PEAK_RSS_MB).unwrap();
        assert!((rss.allowed_share(4.0) - 0.5).abs() < 1e-12);
        assert!((rss.allowed_share(400.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("gcn-model.l1.hit_ratio"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("-lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
