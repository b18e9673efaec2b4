//! Miss-status holding registers for the per-GPU L2 TLB.

use mgpu_types::{CuId, KeyTable, TranslationKey, WavefrontId};

/// A wavefront waiting on an outstanding translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Compute unit the wavefront belongs to.
    pub cu: CuId,
    /// Wavefront context within the CU.
    pub wf: WavefrontId,
}

/// Outcome of registering a miss in the MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss for this key — the caller must launch the fill (send the
    /// ATS request toward the IOMMU).
    Primary,
    /// A fill for this key is already outstanding — the waiter was merged.
    Secondary,
}

/// MSHR table: coalesces concurrent L2 TLB misses to the same translation.
///
/// Real GCN L2 TLBs have a bounded MSHR count; the table accepts a capacity
/// and reports [`MshrTable::is_full`] so the driver can stall primaries, but
/// the paper's configuration does not bound them, so the default capacity is
/// effectively unlimited.
///
/// # Examples
///
/// ```
/// use gcn_model::{MshrTable, MshrOutcome, Waiter};
/// use mgpu_types::{Asid, CuId, TranslationKey, VirtPage, WavefrontId};
///
/// let mut t = MshrTable::unbounded();
/// let key = TranslationKey::new(Asid(0), VirtPage(1));
/// let w = Waiter { cu: CuId(0), wf: WavefrontId(0) };
/// assert_eq!(t.register(key, w), MshrOutcome::Primary);
/// assert_eq!(t.register(key, w), MshrOutcome::Secondary);
/// assert_eq!(t.drain(key).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable {
    pending: KeyTable<Vec<Waiter>>,
    capacity: usize,
    peak: usize,
    merges: u64,
}

impl MshrTable {
    /// Table with effectively unlimited entries (the paper's model).
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// Table bounded to `capacity` distinct outstanding keys.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        MshrTable {
            pending: KeyTable::new(),
            capacity,
            peak: 0,
            merges: 0,
        }
    }

    /// Whether a new primary miss can currently be accepted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.pending.held() >= self.capacity
    }

    /// Whether a fill for `key` is outstanding.
    #[must_use]
    pub fn is_pending(&self, key: TranslationKey) -> bool {
        self.pending.holds(key)
    }

    /// Registers `waiter` as waiting on `key`.
    pub fn register(&mut self, key: TranslationKey, waiter: Waiter) -> MshrOutcome {
        let outcome = if let Some(waiters) = self.pending.value_for_mut(key) {
            waiters.push(waiter);
            self.merges += 1;
            MshrOutcome::Secondary
        } else {
            self.pending.bind(key, vec![waiter]);
            MshrOutcome::Primary
        };
        self.peak = self.peak.max(self.pending.held());
        outcome
    }

    /// Completes the fill for `key`, returning every merged waiter (empty if
    /// no miss was outstanding — e.g. a duplicate response discarded by the
    /// IOMMU's pending-request table).
    pub fn drain(&mut self, key: TranslationKey) -> Vec<Waiter> {
        self.pending.unbind(key).unwrap_or_default()
    }

    /// Number of distinct outstanding keys.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.held()
    }

    /// Highest number of simultaneously outstanding keys observed.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Secondary-miss merges performed.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Asid, VirtPage};

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    fn waiter(cu: u16, wf: u16) -> Waiter {
        Waiter {
            cu: CuId(cu),
            wf: WavefrontId(wf),
        }
    }

    #[test]
    fn primary_then_secondary() {
        let mut t = MshrTable::unbounded();
        assert_eq!(t.register(key(1), waiter(0, 0)), MshrOutcome::Primary);
        assert_eq!(t.register(key(1), waiter(1, 0)), MshrOutcome::Secondary);
        assert_eq!(t.register(key(2), waiter(2, 0)), MshrOutcome::Primary);
        assert_eq!(t.outstanding(), 2);
        assert_eq!(t.merges(), 1);
    }

    #[test]
    fn drain_returns_all_waiters_in_order() {
        let mut t = MshrTable::unbounded();
        t.register(key(1), waiter(0, 0));
        t.register(key(1), waiter(0, 1));
        t.register(key(1), waiter(3, 2));
        let drained = t.drain(key(1));
        assert_eq!(drained, vec![waiter(0, 0), waiter(0, 1), waiter(3, 2)]);
        assert!(!t.is_pending(key(1)));
        assert!(t.drain(key(1)).is_empty());
    }

    #[test]
    fn capacity_limits_primaries() {
        let mut t = MshrTable::with_capacity(1);
        t.register(key(1), waiter(0, 0));
        assert!(t.is_full());
        // Secondary merges are still fine while full.
        assert_eq!(t.register(key(1), waiter(0, 1)), MshrOutcome::Secondary);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut t = MshrTable::unbounded();
        t.register(key(1), waiter(0, 0));
        t.register(key(2), waiter(0, 1));
        t.drain(key(1));
        t.drain(key(2));
        assert_eq!(t.peak(), 2);
        assert_eq!(t.outstanding(), 0);
    }
}
