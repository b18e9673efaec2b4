//! Translation-request traces: record the L2-level request stream of a
//! run (every L1 TLB miss, with its cycle, GPU and translation key) and
//! replay it through a scripted system under a different policy —
//! classic trace-driven TLB methodology.

use std::io::{self, BufRead, Write};

use mgpu_types::{Asid, Cycle, GpuId, VirtPage};
use serde::{Deserialize, Serialize};

use crate::{BuildError, RunResult, System, SystemConfig, WorkloadSpec};

/// One recorded translation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Cycle the request left the L1 TLB.
    pub cycle: u64,
    /// Requesting GPU.
    pub gpu: u8,
    /// Address space.
    pub asid: u16,
    /// 4 KB-granule virtual page (pre-folding; folding is re-applied at
    /// replay under the replay configuration's page size).
    pub vpn: u64,
}

/// A recorded translation-request trace plus the workload spec that
/// produced it (needed to rebuild address spaces at replay time).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TranslationTrace {
    /// The workload that generated the trace.
    pub spec: WorkloadSpec,
    /// Requests in issue order.
    pub entries: Vec<TraceEntry>,
}

impl TranslationTrace {
    /// Serializes as JSON lines: a header line with the spec, then one
    /// line per entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        serde_json::to_writer(&mut w, &self.spec)?;
        writeln!(w)?;
        for e in &self.entries {
            serde_json::to_writer(&mut w, e)?;
            writeln!(w)?;
        }
        Ok(())
    }

    /// Parses the JSON-lines format written by
    /// [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a malformed line becomes
    /// `io::ErrorKind::InvalidData` naming its 1-based line number.
    pub fn read_from(r: impl BufRead) -> io::Result<Self> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty trace"))??;
        let bad = |n: usize, e: serde_json::Error| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {n}: {e}"))
        };
        let spec: WorkloadSpec = serde_json::from_str(&header).map_err(|e| bad(1, e))?;
        let mut entries = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            entries.push(serde_json::from_str(&line).map_err(|e| bad(i + 2, e))?);
        }
        Ok(TranslationTrace { spec, entries })
    }

    /// Replays the trace through a scripted system built from `cfg`
    /// (typically with a different policy than the recording run),
    /// injecting each request at its recorded cycle, and returns the
    /// resulting statistics.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `cfg` cannot host the trace's workload
    /// spec, or a request names a GPU or ASID outside it.
    pub fn replay(&self, cfg: &SystemConfig) -> Result<RunResult, BuildError> {
        // sim-lint: allow(nondet, reason = "wall-clock telemetry only; never feeds simulation state or output ordering")
        let wall_start = std::time::Instant::now();
        let mut sys = System::new_scripted(cfg, &self.spec)?;
        let apps = self.spec.placements.len();
        for (request, e) in self.entries.iter().enumerate() {
            if usize::from(e.gpu) >= cfg.gpus || usize::from(e.asid) >= apps {
                return Err(BuildError::TraceRequestOutOfRange {
                    request,
                    gpu: e.gpu,
                    asid: e.asid,
                });
            }
            sys.inject_translation(GpuId(e.gpu), Asid(e.asid), VirtPage(e.vpn), Cycle(e.cycle));
        }
        sys.drain();
        Ok(sys.finish_with_wall_time(wall_start.elapsed().as_secs_f64()))
    }

    /// Number of recorded requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::AppKind;

    fn recorded_trace() -> TranslationTrace {
        let mut cfg = SystemConfig::scaled_down(4);
        cfg.instructions_per_gpu = 60_000;
        cfg.record_trace = true;
        let spec = WorkloadSpec::single_app(AppKind::St, 4);
        let r = System::new(&cfg, &spec).unwrap().run();
        r.trace.expect("trace recorded")
    }

    #[test]
    fn record_roundtrips_through_json_lines() {
        let trace = recorded_trace();
        assert!(!trace.is_empty());
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = TranslationTrace::read_from(buf.as_slice()).unwrap();
        assert_eq!(back.entries, trace.entries);
        assert_eq!(back.spec, trace.spec);
    }

    #[test]
    fn replay_reproduces_request_count() {
        let trace = recorded_trace();
        let mut cfg = SystemConfig::scaled_down(4);
        cfg.policy = crate::Policy::least_tlb();
        let result = trace.replay(&cfg).unwrap();
        // Every injected request performs exactly one L2 lookup.
        let lookups: u64 = result.gpu_l2.iter().map(|s| s.lookups).sum();
        assert_eq!(lookups, trace.len() as u64);
    }

    #[test]
    fn replay_policy_changes_observable_behaviour() {
        let trace = recorded_trace();
        let mut base_cfg = SystemConfig::scaled_down(4);
        base_cfg.policy = crate::Policy::baseline();
        let base = trace.replay(&base_cfg).unwrap();
        let mut least_cfg = SystemConfig::scaled_down(4);
        least_cfg.policy = crate::Policy::least_tlb();
        let least = trace.replay(&least_cfg).unwrap();
        assert!(base.iommu.probes == 0);
        assert!(least.iommu.probes > 0, "least-TLB probes under replay");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(TranslationTrace::read_from(&b""[..]).is_err());
    }
}
