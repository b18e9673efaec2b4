//! The recorded baseline, `baseline.json`: pinned output digests for the
//! default seed, the host it was measured on, both baseline sets'
//! medians, the bounds derived from them, and the second set's per-layer
//! ledger.

use serde::Value;

use crate::report::member;

const BASELINE: &str = include_str!("../baseline.json");

/// The pinned digest of `workload`'s output at the default seed.
#[must_use]
pub fn pinned_digest(workload: &str) -> Option<u64> {
    let doc: Value = serde_json::from_str(BASELINE).ok()?;
    let hex = member(member(member(&doc, "pins")?, "digests")?, workload)?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, DEFAULT_SEED};

    #[test]
    fn every_workload_is_pinned_at_the_default_seed() {
        let doc: Value = serde_json::from_str(BASELINE).unwrap();
        let seed = member(member(&doc, "pins").unwrap(), "seed").unwrap();
        assert_eq!(*seed, Value::U64(DEFAULT_SEED));
        for w in Workload::ALL {
            assert!(
                pinned_digest(w.name()).is_some(),
                "{} is not pinned",
                w.name()
            );
        }
    }
}
