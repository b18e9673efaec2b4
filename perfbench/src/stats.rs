//! Summaries of repeated measurements and the before/after verdict.

use crate::metrics::{Better, EndToEnd};

/// Median, extremes and sample count of one metric's samples in a run.
/// With few samples a tail percentile would be one sample, so the
/// extremes are reported instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none or any is not
    /// finite.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        Some(Summary {
            median,
            min: s[0],
            max: s[n - 1],
            n,
        })
    }

    /// A summary of one value.
    #[must_use]
    pub fn single(x: f64) -> Summary {
        Summary {
            median: x,
            min: x,
            max: x,
            n: 1,
        }
    }

    /// The sample least favourable under `better`.
    fn worst(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.max,
            Better::Higher => self.min,
        }
    }

    /// The sample most favourable under `better`.
    fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }
}

/// How much worse `after` is than `before`, as a share of `before`:
/// positive is worse, negative is better.
#[must_use]
pub fn worse_share(better: Better, before: f64, after: f64) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

/// The outcome of comparing one end-to-end metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every `after` sample beats every `before` sample.
    Improved,
    /// Even the least favourable pairing stays within the bound.
    WithinBound,
    /// Even the most favourable pairing is worse than the bound allows.
    Regressed,
    /// The spreads straddle the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label as printed.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares `after` against `before` for metric `m`. Returns the change of
/// the medians as a share of `before`'s (positive is worse), the allowed
/// share, and the verdict. The pessimistic pairing is `after`'s worst
/// sample against `before`'s best; the optimistic one the reverse.
#[must_use]
pub fn verdict(m: &EndToEnd, before: &Summary, after: &Summary) -> (f64, f64, Verdict) {
    let allowed = m.allowed_share(before.median);
    let delta = worse_share(m.better, before.median, after.median);
    let pessimistic = worse_share(m.better, before.best(m.better), after.worst(m.better));
    let optimistic = worse_share(m.better, before.worst(m.better), after.best(m.better));
    let v = if optimistic > allowed {
        Verdict::Regressed
    } else if pessimistic > allowed {
        Verdict::Unresolved
    } else if pessimistic < 0.0 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (delta, allowed, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, JOB_S, PEAK_RSS_MB, SETUP_S};

    fn metric(name: &str) -> EndToEnd {
        *END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn s(samples: &[f64]) -> Summary {
        Summary::of(samples).unwrap()
    }

    #[test]
    fn median_min_max() {
        let x = s(&[3.0, 1.0, 2.0]);
        assert_eq!((x.median, x.min, x.max, x.n), (2.0, 1.0, 3.0, 3));
        let even = s(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!(Summary::single(7.0), s(&[7.0]));
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn worse_share_follows_direction() {
        assert!((worse_share(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_share(Better::Higher, 2.0, 2.2) + 0.1).abs() < 1e-12);
        assert_eq!(worse_share(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts_for_a_relative_bound() {
        let job = metric(JOB_S);
        let before = s(&[1.00, 0.99, 1.01]);
        // Every rep faster: improved.
        let (d, _, v) = verdict(&job, &before, &s(&[0.90, 0.91, 0.92]));
        assert!(d < 0.0);
        assert_eq!(v, Verdict::Improved);
        // Slightly slower, all pairings within the bound.
        let (_, allowed, v) = verdict(&job, &before, &s(&[1.01, 1.02, 1.02]));
        assert_eq!(allowed, job.bound);
        assert_eq!(v, Verdict::WithinBound);
        // Far slower on every pairing: regressed.
        let far = 1.0 + 3.0 * job.bound;
        assert_eq!(
            verdict(&job, &before, &s(&[far, far, far])).2,
            Verdict::Regressed
        );
        // The after spread reaches past the bound but also below it.
        let wide = s(&[1.0, 1.0 + 3.0 * job.bound]);
        assert_eq!(verdict(&job, &before, &wide).2, Verdict::Unresolved);
    }

    #[test]
    fn setup_floor_absorbs_small_absolute_changes() {
        let setup = metric(SETUP_S);
        // 1 ms -> 2.5 ms is +150%, but only 1.5 ms: inside the 2 ms floor.
        let (d, allowed, v) = verdict(&setup, &s(&[0.001]), &s(&[0.0025]));
        assert!((d - 1.5).abs() < 1e-9);
        assert!((allowed - 2.0).abs() < 1e-9);
        assert_eq!(v, Verdict::WithinBound);
        // 1 ms -> 3.5 ms exceeds the floor on every pairing.
        assert_eq!(
            verdict(&setup, &s(&[0.001]), &s(&[0.0035])).2,
            Verdict::Regressed
        );
    }

    #[test]
    fn rss_floor_absorbs_small_absolute_changes() {
        let rss = metric(PEAK_RSS_MB);
        // +1.5 MB on 4 MB is 37.5%: over the share but under the 2 MB floor.
        assert_eq!(
            verdict(&rss, &s(&[4.0]), &s(&[5.5])).2,
            Verdict::WithinBound
        );
        // +2.5 MB on 4 MB is over both.
        assert_eq!(verdict(&rss, &s(&[4.0]), &s(&[6.5])).2, Verdict::Regressed);
        // On 400 MB the share (100 MB) governs, not the floor.
        assert_eq!(
            verdict(&rss, &s(&[400.0]), &s(&[490.0])).2,
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&rss, &s(&[400.0]), &s(&[510.0])).2,
            Verdict::Regressed
        );
    }
}
