//! What the benchmark reads about its own process and host (Linux
//! `/proc`): peak resident memory and a one-line host description.

use std::fs;

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident set, so the peak read afterwards belongs to the work done
/// since. Input generation runs before the reset. Where the kernel
/// refuses the reset, the later peak covers input generation too.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux >= 4.0).
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU model and available parallelism, e.g.
/// `"Intel(R) Xeon(R) Processor, 2 threads"`.
#[must_use]
pub fn describe() -> String {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{model}, {threads} threads")
}
