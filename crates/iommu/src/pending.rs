//! The ATS pending-request table (paper §4.1).
//!
//! least-TLB races a remote-GPU L2 probe against the page-table walk; the
//! IOMMU records in-flight requests so that (a) concurrent requests for the
//! same translation merge instead of launching duplicate walks, and (b) the
//! translation is served by "whichever comes first" while the loser's
//! response is discarded.
//!
//! An entry tracks how many responders (walks, probes) are still
//! outstanding. A *served* entry whose losing responder has not returned
//! yet is a **tombstone**: a new request for the same key must not merge
//! onto it (its waiters would never be served) — instead the entry is
//! re-armed for a fresh walk, and any straggler responder from the previous
//! generation is allowed to serve the new waiters early.

use mgpu_types::{GpuId, KeyTable, TranslationKey};

/// Result of registering a request in the pending table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOutcome {
    /// No live entry existed — the caller must launch a walk (and possibly
    /// a probe).
    Launched,
    /// A live entry existed — the requester was merged onto it.
    Merged,
}

#[derive(Debug, Clone)]
struct PendingEntry {
    waiters: Vec<GpuId>,
    served: bool,
    walks: u32,
    probes: u32,
}

impl PendingEntry {
    fn finished(&self) -> bool {
        self.served && self.walks == 0 && self.probes == 0
    }
}

/// Table of translations with an in-flight walk and/or remote probe.
///
/// # Examples
///
/// ```
/// use iommu::{PendingTable, PendingOutcome};
/// use mgpu_types::{Asid, GpuId, TranslationKey, VirtPage};
///
/// let mut t = PendingTable::new();
/// let key = TranslationKey::new(Asid(0), VirtPage(8));
/// assert_eq!(t.register(key, GpuId(0)), PendingOutcome::Launched);
/// t.mark_walk(key);
/// assert_eq!(t.register(key, GpuId(1)), PendingOutcome::Merged);
/// // The walk returns and serves GPUs 0 and 1:
/// assert_eq!(t.walk_result(key), Some(vec![GpuId(0), GpuId(1)]));
/// assert!(t.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PendingTable {
    entries: KeyTable<PendingEntry>,
}

impl PendingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        PendingTable::default()
    }

    /// Number of entries (live and tombstone).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.held()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.held() == 0
    }

    /// Whether `key` has a *live* (not yet served) entry that new
    /// requesters may merge onto.
    #[must_use]
    pub fn is_live(&self, key: TranslationKey) -> bool {
        self.entries.value_for(key).is_some_and(|e| !e.served)
    }

    /// Registers `requester` as waiting on `key`: merges onto a live
    /// entry, or creates/re-arms one (the caller must then launch a walk).
    pub fn register(&mut self, key: TranslationKey, requester: GpuId) -> PendingOutcome {
        match self.entries.value_for_mut(key) {
            Some(e) if !e.served => {
                if !e.waiters.contains(&requester) {
                    e.waiters.push(requester);
                }
                PendingOutcome::Merged
            }
            Some(e) => {
                // Tombstone: re-arm for a new generation. Straggler
                // responders from the old generation remain counted and
                // may serve the new waiters early.
                e.served = false;
                e.waiters.clear();
                e.waiters.push(requester);
                PendingOutcome::Launched
            }
            None => {
                self.entries.bind(
                    key,
                    PendingEntry {
                        waiters: vec![requester],
                        served: false,
                        walks: 0,
                        probes: 0,
                    },
                );
                PendingOutcome::Launched
            }
        }
    }

    /// Records that a walk (or an equivalent fault-handling response) was
    /// launched for `key`.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists — walks are only launched for registered
    /// requests.
    pub fn mark_walk(&mut self, key: TranslationKey) {
        self.entries
            .value_for_mut(key)
            // sim-lint: allow(panic-reach, reason = "documented API contract: walks are only launched for registered requests")
            .expect("walk launched without a pending entry")
            .walks += 1;
    }

    /// Records that a remote probe was launched for `key`.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists.
    pub fn mark_probe(&mut self, key: TranslationKey) {
        self.entries
            .value_for_mut(key)
            // sim-lint: allow(panic-reach, reason = "documented API contract: probes are only launched for registered requests")
            .expect("probe launched without a pending entry")
            .probes += 1;
    }

    /// A walk (or fault) completes. Returns the waiters to serve if this
    /// response wins the race, or `None` if the entry was already served
    /// (duplicate discarded, paper §4.1).
    pub fn walk_result(&mut self, key: TranslationKey) -> Option<Vec<GpuId>> {
        let e = self.entries.value_for_mut(key)?;
        if cfg!(any(debug_assertions, feature = "check")) {
            assert!(e.walks > 0, "walk completion without outstanding walk");
        }
        e.walks = e.walks.saturating_sub(1);
        let won = !e.served;
        let waiters = if won {
            e.served = true;
            Some(std::mem::take(&mut e.waiters))
        } else {
            None
        };
        if e.finished() {
            self.entries.unbind(key);
        }
        waiters
    }

    /// The queued (never-started) walk for `key` was cancelled because the
    /// probe won the race while the walk sat in the walker backlog.
    pub fn cancel_walk(&mut self, key: TranslationKey) {
        if let Some(e) = self.entries.value_for_mut(key) {
            e.walks = e.walks.saturating_sub(1);
            if e.finished() {
                self.entries.unbind(key);
            }
        }
    }

    /// A remote probe returns. Returns the waiters to serve if the probe
    /// hit and wins the race; `None` on a miss or a lost race.
    pub fn probe_result(&mut self, key: TranslationKey, hit: bool) -> Option<Vec<GpuId>> {
        let e = self.entries.value_for_mut(key)?;
        if cfg!(any(debug_assertions, feature = "check")) {
            assert!(e.probes > 0, "probe completion without outstanding probe");
        }
        e.probes = e.probes.saturating_sub(1);
        let won = hit && !e.served;
        let waiters = if won {
            e.served = true;
            Some(std::mem::take(&mut e.waiters))
        } else {
            None
        };
        if e.finished() {
            self.entries.unbind(key);
        }
        waiters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Asid, VirtPage};

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    #[test]
    fn walk_only_lifecycle() {
        let mut t = PendingTable::new();
        assert_eq!(t.register(key(1), GpuId(0)), PendingOutcome::Launched);
        t.mark_walk(key(1));
        assert!(t.is_live(key(1)));
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(0)]));
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_waiters_are_deduped() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(2));
        t.mark_walk(key(1));
        t.register(key(1), GpuId(2));
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(2)]));
    }

    #[test]
    fn probe_wins_then_walk_discarded() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        t.mark_probe(key(1));
        assert_eq!(t.probe_result(key(1), true), Some(vec![GpuId(0)]));
        assert!(!t.is_live(key(1)), "tombstone awaits the walk");
        assert!(!t.is_empty());
        assert!(t.walk_result(key(1)).is_none(), "duplicate discarded");
        assert!(t.is_empty());
    }

    #[test]
    fn walk_wins_then_probe_miss_cleans_up() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        t.mark_probe(key(1));
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(0)]));
        assert!(!t.is_empty());
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn probe_miss_before_walk_keeps_entry_live() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        t.mark_probe(key(1));
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.is_live(key(1)), "walk still owes a response");
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(0)]));
        assert!(t.is_empty());
    }

    #[test]
    fn tombstone_rearm_does_not_lose_new_waiters() {
        // The regression that starved wavefronts: walk serves while a probe
        // is still out; a NEW request arrives; it must not merge onto the
        // tombstone.
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        t.mark_probe(key(1));
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(0)]));
        // New request while the old probe is still in flight.
        assert!(!t.is_live(key(1)));
        assert_eq!(t.register(key(1), GpuId(2)), PendingOutcome::Launched);
        t.mark_walk(key(1));
        // The straggler probe returns with a hit: it may serve GPU2 early.
        assert_eq!(t.probe_result(key(1), true), Some(vec![GpuId(2)]));
        // The new walk's result is then discarded.
        assert!(t.walk_result(key(1)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn straggler_probe_miss_leaves_new_walk_live() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        t.mark_probe(key(1));
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(0)]));
        t.register(key(1), GpuId(3));
        t.mark_walk(key(1));
        assert!(t.probe_result(key(1), false).is_none());
        assert!(t.is_live(key(1)));
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(3)]));
        assert!(t.is_empty());
    }

    #[test]
    fn unknown_key_results_are_none() {
        let mut t = PendingTable::new();
        assert!(t.walk_result(key(9)).is_none());
        assert!(t.probe_result(key(9), true).is_none());
    }

    #[test]
    fn cancelled_walk_cleans_up_served_entries() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        t.mark_probe(key(1));
        // Probe wins; the queued walk is cancelled instead of completing.
        assert_eq!(t.probe_result(key(1), true), Some(vec![GpuId(0)]));
        t.cancel_walk(key(1));
        assert!(t.is_empty(), "cancel releases the tombstone");
        // Cancelling an unknown key is a no-op.
        t.cancel_walk(key(9));
    }

    #[test]
    fn merged_requesters_all_served() {
        let mut t = PendingTable::new();
        t.register(key(1), GpuId(0));
        t.mark_walk(key(1));
        assert_eq!(t.register(key(1), GpuId(3)), PendingOutcome::Merged);
        assert_eq!(t.len(), 1);
        assert_eq!(t.walk_result(key(1)), Some(vec![GpuId(0), GpuId(3)]));
    }
}
