//! Set-associative TLB model used for every level of the multi-GPU
//! translation hierarchy (per-CU L1, per-GPU L2, shared IOMMU TLB).
//!
//! The model is *functional + statistical*: it tracks exact contents,
//! replacement state and hit/miss statistics; lookup latency is modelled by
//! the simulator that owns the TLB, not here. Entries carry the metadata the
//! least-TLB design needs — per-entry spill credits (paper §4.2 "what to
//! spill") and the originating GPU (for the IOMMU's per-GPU eviction
//! counters).
//!
//! # Storage and set scans
//!
//! A [`Tlb`] keeps three flat, set-major arrays of `entries` slots, way `w`
//! of set `s` at slot `s * ways + w`: a 16-bit tag per way ([`key_tag`] of
//! the resident key, 0 for a free way), the keys, and the payloads with
//! their LRU/FIFO ticks. An operation scans only its set's tag slice, 16
//! lanes at a time into a bitmask (two vector compares and a movemask on
//! baseline x86-64), then confirms each candidate lane, lowest first,
//! against the full key: a tag collision costs one key compare, never a
//! wrong hit. Free ways are found the same way, with tag 0.
//!
//! The layout is exactly equivalent to a per-set list of optional slots
//! scanned way by way: same set index, same way positions (lowest free way
//! first; LRU/FIFO take the first oldest way; `Random` picks a way index),
//! same recency clock and statistics, and the same set-major [`Tlb::iter`]
//! order. `tests/reference.rs` checks this against that list model after
//! every operation.
//!
//! # Examples
//!
//! ```
//! use mgpu_types::{Asid, TranslationKey, PhysPage, VirtPage};
//! use tlb::{Tlb, TlbConfig, TlbEntry, ReplacementPolicy};
//!
//! // The paper's L2 TLB: 512 entries, 16-way, LRU (Table 2).
//! let mut l2 = Tlb::new(TlbConfig::new(512, 16, ReplacementPolicy::Lru));
//! let key = TranslationKey::new(Asid(0), VirtPage(42));
//! assert!(l2.lookup(key).is_none());
//! l2.insert(key, TlbEntry::new(PhysPage(7)));
//! assert_eq!(l2.lookup(key).unwrap().frame, PhysPage(7));
//! assert_eq!(l2.stats().hits, 1);
//! assert_eq!(l2.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stats;

pub use stats::TlbStats;

use mgpu_types::{Asid, GpuId, PhysPage, TranslationKey};
use serde::{Deserialize, Serialize};

/// Replacement policy applied within each set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's policy for all TLB levels).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Pseudo-random (xorshift, deterministic per seed).
    Random,
}

/// Static geometry and policy of one TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total entry count. Must be a non-zero multiple of `ways`.
    pub entries: usize,
    /// Associativity. `ways == entries` gives a fully-associative TLB.
    pub ways: usize,
    /// In-set victim selection policy.
    pub replacement: ReplacementPolicy,
    /// Seed for the `Random` policy (ignored otherwise).
    pub seed: u64,
}

impl TlbConfig {
    /// Creates a configuration; see [`Tlb::new`] for validity requirements.
    #[must_use]
    pub fn new(entries: usize, ways: usize, replacement: ReplacementPolicy) -> Self {
        TlbConfig {
            entries,
            ways,
            replacement,
            seed: 0x51ab_c0de,
        }
    }

    /// Fully-associative configuration with `entries` entries.
    #[must_use]
    pub fn fully_associative(entries: usize, replacement: ReplacementPolicy) -> Self {
        Self::new(entries, entries, replacement)
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.entries / self.ways.max(1)
    }
}

/// Payload stored per TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbEntry {
    /// Physical frame the virtual page maps to.
    pub frame: PhysPage,
    /// Remaining spill opportunities (paper §4.2, counter `N`). An entry
    /// arriving in an L2 TLB via IOMMU spilling has this decremented; at
    /// zero the entry is discarded on eviction instead of re-entering the
    /// IOMMU TLB.
    pub spill_credits: u8,
    /// GPU whose L2 TLB eviction produced this entry. Meaningful in the
    /// IOMMU TLB, where it backs the per-GPU eviction counters.
    pub origin: GpuId,
}

impl TlbEntry {
    /// Entry with default metadata (full spill credits are assigned by the
    /// policy layer on insertion into the L2 TLB).
    #[must_use]
    pub fn new(frame: PhysPage) -> Self {
        TlbEntry {
            frame,
            spill_credits: 0,
            origin: GpuId(0),
        }
    }

    /// Builder-style origin annotation.
    #[must_use]
    pub fn with_origin(mut self, origin: GpuId) -> Self {
        self.origin = origin;
        self
    }

    /// Builder-style spill-credit annotation.
    #[must_use]
    pub fn with_spill_credits(mut self, credits: u8) -> Self {
        self.spill_credits = credits;
        self
    }
}

/// Payload and replacement state of one way, parallel to the tag and key
/// arrays.
#[derive(Debug, Clone, Copy)]
struct Meta {
    entry: TlbEntry,
    last_used: u64,
    inserted: u64,
}

/// Tag of a free way. [`key_tag`] never produces it.
const FREE: u16 = 0;

/// Ways compared per step of a set scan: one 16-lane tag chunk is two
/// 128-bit vector compares on baseline x86-64.
const LANES: usize = 16;

/// The 16-bit tag a [`Tlb`] stores `key` under: the top bits of a
/// multiplicative hash, which depend on every VPN and ASID bit (the set
/// index uses only the low folded bits). Never 0, the free-way tag. Two
/// keys may share a tag; lookups confirm every tag match against the full
/// key.
#[must_use]
pub fn key_tag(key: TranslationKey) -> u16 {
    let h = (key.vpn.0 ^ (u64::from(key.asid.0) << 48)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let tag = (h >> 48) as u16;
    tag | u16::from(tag == FREE)
}

/// Bitmask of the lanes equal to `tag` (bit `i` for lane `i`). Written as
/// a reversed fold over a fixed-width chunk: the shape LLVM compiles to two
/// 8-lane vector compares, a pack and a movemask on baseline x86-64.
#[inline]
fn lane_mask(lanes: &[u16; LANES], tag: u16) -> u32 {
    lanes
        .iter()
        .rev()
        .fold(0, |m, &t| (m << 1) | u32::from(t == tag))
}

/// Where a key sits in its home set, or where an insertion would put it.
/// Every variant carries the slot index into the flat arrays.
enum Way {
    /// The key is resident here.
    Hit(usize),
    /// The key is absent; this is the set's lowest free way.
    Free(usize),
    /// The key is absent and every way is occupied; `usize` is the set's
    /// first slot.
    Full(usize),
}

/// What [`Tlb::upsert`] displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Displaced {
    /// The key was absent and took a free way.
    Nothing,
    /// The key was resident; this is the payload the update overwrote.
    Updated(TlbEntry),
    /// The key was absent and its set full; this victim was evicted.
    Evicted(TranslationKey, TlbEntry),
}

/// A set-associative TLB over flat tag, key and payload arrays.
///
/// See the crate-level docs for the layout, the scan and an example.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// log2 of the set count.
    set_bits: u32,
    /// Per-way [`key_tag`] of the resident key, [`FREE`] for a free way.
    tags: Vec<u16>,
    /// Resident keys; stale where the tag is [`FREE`].
    keys: Vec<TranslationKey>,
    /// Payloads and ticks; stale where the tag is [`FREE`].
    meta: Vec<Meta>,
    tick: u64,
    len: usize,
    stats: TlbStats,
    rng: u64,
}

impl Tlb {
    /// Builds a TLB from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `ways` is zero or exceeds `entries`,
    /// `entries` is not a multiple of `ways`, or the set count is not a
    /// power of two (sets are indexed by low VPN bits).
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB must have at least one entry");
        assert!(
            config.ways > 0 && config.ways <= config.entries,
            "ways must be in 1..=entries"
        );
        assert!(
            config.entries.is_multiple_of(config.ways),
            "entries must be a multiple of ways"
        );
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let stale = Meta {
            entry: TlbEntry::new(PhysPage(0)),
            last_used: 0,
            inserted: 0,
        };
        Tlb {
            config,
            set_bits: sets.trailing_zeros(),
            tags: vec![FREE; config.entries],
            keys: vec![TranslationKey::default(); config.entries],
            meta: vec![stale; config.entries],
            tick: 0,
            len: 0,
            stats: TlbStats::default(),
            rng: config.seed | 1,
        }
    }

    /// The configuration this TLB was built with.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.config.entries
    }

    /// Number of valid entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the TLB holds no valid entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hit/miss statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn set_index(&self, key: TranslationKey) -> usize {
        // XOR-folded VPN indexing (upper page-number bits folded onto the
        // index bits), as used by real TLBs to avoid pathological aliasing
        // of strided/partitioned data layouts; the ASID is folded in so
        // that co-running applications do not all collide on the same sets.
        let s = self.set_bits;
        let v = key.vpn.0;
        let folded = v ^ (v >> s) ^ (v >> (2 * s)) ^ u64::from(key.asid.0).wrapping_mul(0x9e37);
        (folded & ((1u64 << s) - 1)) as usize
    }

    /// Where `key` is, or where inserting it would put it: the slot holding
    /// `key`, else the lowest free way of its home set, else `Full`.
    fn locate(&self, key: TranslationKey) -> Way {
        let base = self.set_index(key) * self.config.ways;
        if let Some(slot) = self.find_in(base, key) {
            Way::Hit(slot)
        } else {
            self.first_free(base).map_or(Way::Full(base), Way::Free)
        }
    }

    fn find(&self, key: TranslationKey) -> Option<usize> {
        self.find_in(self.set_index(key) * self.config.ways, key)
    }

    /// The slot of `key` in the set starting at slot `base`. Tags are
    /// compared 16 lanes at a time; each candidate lane is confirmed
    /// against the full key, lowest lane first.
    fn find_in(&self, base: usize, key: TranslationKey) -> Option<usize> {
        let tag = key_tag(key);
        let set = &self.tags[base..base + self.config.ways];
        let (chunks, tail) = set.as_chunks::<LANES>();
        for (c, lanes) in chunks.iter().enumerate() {
            let mut hits = lane_mask(lanes, tag);
            while hits != 0 {
                let slot = base + c * LANES + hits.trailing_zeros() as usize;
                if self.keys[slot] == key {
                    return Some(slot);
                }
                hits &= hits - 1;
            }
        }
        let at = base + chunks.len() * LANES;
        let keys = &self.keys[at..at + tail.len()];
        let way = tail
            .iter()
            .zip(keys)
            .position(|(&t, &k)| t == tag && k == key)?;
        Some(at + way)
    }

    /// The lowest free slot of the set starting at slot `base`.
    fn first_free(&self, base: usize) -> Option<usize> {
        let set = &self.tags[base..base + self.config.ways];
        let (chunks, tail) = set.as_chunks::<LANES>();
        for (c, lanes) in chunks.iter().enumerate() {
            let free = lane_mask(lanes, FREE);
            if free != 0 {
                return Some(base + c * LANES + free.trailing_zeros() as usize);
            }
        }
        let way = tail.iter().position(|&t| t == FREE)?;
        Some(base + chunks.len() * LANES + way)
    }

    /// Looks up `key`, recording a hit or miss and refreshing recency on a
    /// hit. Returns the entry payload on a hit.
    pub fn lookup(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.tick += 1;
        self.stats.lookups += 1;
        if let Some(slot) = self.find(key) {
            self.stats.hits += 1;
            let m = &mut self.meta[slot];
            m.last_used = self.tick;
            Some(m.entry)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inspects `key` without touching statistics or recency.
    #[must_use]
    pub fn probe(&self, key: TranslationKey) -> Option<&TlbEntry> {
        self.find(key).map(|slot| &self.meta[slot].entry)
    }

    /// Mutable access to an entry's payload without touching statistics or
    /// recency (used to reset spill bits on remote reuse).
    pub fn probe_mut(&mut self, key: TranslationKey) -> Option<&mut TlbEntry> {
        self.find(key).map(|slot| &mut self.meta[slot].entry)
    }

    /// Inserts (or updates) `key → entry`, returning the victim evicted to
    /// make room, if the target set was full and `key` was absent.
    pub fn insert(
        &mut self,
        key: TranslationKey,
        entry: TlbEntry,
    ) -> Option<(TranslationKey, TlbEntry)> {
        match self.upsert(key, entry) {
            Displaced::Evicted(vk, ve) => Some((vk, ve)),
            Displaced::Nothing | Displaced::Updated(_) => None,
        }
    }

    /// [`Self::insert`] that also reports the payload an in-place update
    /// overwrote, so a caller need not probe first. Same statistics and
    /// recency effects as `insert`.
    pub fn upsert(&mut self, key: TranslationKey, entry: TlbEntry) -> Displaced {
        self.tick += 1;
        self.stats.insertions += 1;
        let displaced = match self.locate(key) {
            Way::Hit(slot) => {
                let m = &mut self.meta[slot];
                let old = m.entry;
                m.entry = entry;
                m.last_used = self.tick;
                Displaced::Updated(old)
            }
            Way::Free(slot) => {
                self.occupy(slot, key, entry);
                self.len += 1;
                Displaced::Nothing
            }
            Way::Full(base) => {
                let slot = base + self.victim_way(base);
                let (vk, ve) = (self.keys[slot], self.meta[slot].entry);
                self.occupy(slot, key, entry);
                self.stats.evictions += 1;
                Displaced::Evicted(vk, ve)
            }
        };
        self.check_home_set(key);
        displaced
    }

    fn occupy(&mut self, slot: usize, key: TranslationKey, entry: TlbEntry) {
        self.tags[slot] = key_tag(key);
        self.keys[slot] = key;
        self.meta[slot] = Meta {
            entry,
            last_used: self.tick,
            inserted: self.tick,
        };
    }

    /// The entry that would be evicted if `key` were inserted now, or `None`
    /// if insertion would not evict (set has room, or `key` is present).
    #[must_use]
    pub fn peek_victim(&self, key: TranslationKey) -> Option<(TranslationKey, TlbEntry)> {
        let Way::Full(base) = self.locate(key) else {
            return None;
        };
        let slot = base + self.victim_way_readonly(base);
        Some((self.keys[slot], self.meta[slot].entry))
    }

    fn victim_way_readonly(&self, base: usize) -> usize {
        match self.config.replacement {
            ReplacementPolicy::Lru => self.oldest_way(base, |m| m.last_used),
            ReplacementPolicy::Fifo => self.oldest_way(base, |m| m.inserted),
            // Read-only peek of Random uses the *next* RNG draw without
            // consuming it; insert() consumes it, so peek matches insert.
            ReplacementPolicy::Random => {
                (Self::xorshift_peek(self.rng) % self.config.ways as u64) as usize
            }
        }
    }

    fn victim_way(&mut self, base: usize) -> usize {
        let way = self.victim_way_readonly(base);
        if self.config.replacement == ReplacementPolicy::Random {
            self.rng = Self::xorshift_peek(self.rng);
        }
        way
    }

    fn xorshift_peek(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    /// The first way of the set starting at slot `base` with the smallest
    /// `age` (the LRU/FIFO victim).
    fn oldest_way(&self, base: usize, age: impl Fn(&Meta) -> u64) -> usize {
        let mut best = (0, u64::MAX);
        for (w, m) in self.meta[base..base + self.config.ways].iter().enumerate() {
            let a = age(m);
            if a < best.1 {
                best = (w, a);
            }
        }
        best.0
    }

    /// Refreshes `key`'s recency without recording a lookup (used when a
    /// remote GPU probe hits this TLB: the entry is hot, but the probe must
    /// not pollute the local application's hit-rate statistics). Returns
    /// whether the key was present.
    pub fn touch(&mut self, key: TranslationKey) -> bool {
        self.tick += 1;
        if let Some(slot) = self.find(key) {
            self.meta[slot].last_used = self.tick;
            true
        } else {
            false
        }
    }

    /// On a hit, refreshes `key`'s recency exactly as [`Self::touch`] does
    /// and returns its payload for editing; on a miss, changes nothing (not
    /// even the recency clock). One set scan for the `probe` → `touch` →
    /// `probe_mut` sequence, without recording a lookup.
    pub fn refresh(&mut self, key: TranslationKey) -> Option<&mut TlbEntry> {
        let slot = self.find(key)?;
        self.tick += 1;
        let m = &mut self.meta[slot];
        m.last_used = self.tick;
        Some(&mut m.entry)
    }

    /// Removes `key`, returning its payload if present.
    pub fn remove(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        let slot = self.find(key)?;
        self.tags[slot] = FREE;
        self.len -= 1;
        self.stats.removals += 1;
        self.check_home_set(key);
        Some(self.meta[slot].entry)
    }

    /// Invalidates every entry of `asid` (per-process TLB shootdown),
    /// returning how many entries were dropped.
    pub fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let mut dropped = 0;
        for (tag, key) in self.tags.iter_mut().zip(&self.keys) {
            if *tag != FREE && key.asid == asid {
                *tag = FREE;
                dropped += 1;
            }
        }
        self.len -= dropped;
        self.stats.removals += dropped as u64;
        dropped
    }

    /// Invalidates everything (full shootdown), returning the entry count
    /// dropped.
    pub fn flush(&mut self) -> usize {
        let dropped = self.len;
        for tag in &mut self.tags {
            *tag = FREE;
        }
        self.len = 0;
        self.stats.removals += dropped as u64;
        dropped
    }

    /// Iterates over all valid `(key, entry)` pairs (snapshot order is
    /// set-major and deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (TranslationKey, &TlbEntry)> + '_ {
        self.tags
            .iter()
            .zip(&self.keys)
            .zip(&self.meta)
            .filter(|((&tag, _), _)| tag != FREE)
            .map(|((_, &key), m)| (key, &m.entry))
    }

    /// Convenience: the set of keys currently resident.
    #[must_use]
    pub fn resident_keys(&self) -> Vec<TranslationKey> {
        self.iter().map(|(k, _)| k).collect()
    }

    /// Validates the structural invariants of one set: every resident key
    /// hashes to this set and carries its own fingerprint as tag, and no
    /// key appears in two ways.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_set(&self, si: usize) {
        let ways = self.config.ways;
        let base = si * ways;
        for w in 0..ways {
            let (tag, key) = (self.tags[base + w], self.keys[base + w]);
            if tag == FREE {
                continue;
            }
            // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
            assert!(
                self.set_index(key) == si,
                "set {si} way {w}: key {key:?} belongs to set {}",
                self.set_index(key)
            );
            // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
            assert!(
                tag == key_tag(key),
                "set {si} way {w}: tag {tag:#06x} is not key {key:?}'s fingerprint"
            );
            for other in base..base + w {
                // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
                assert!(
                    self.tags[other] == FREE || self.keys[other] != key,
                    "set {si}: duplicate key {key:?}"
                );
            }
        }
    }

    /// Validates the whole structure: per-set invariants ([`Self::check_set`])
    /// plus `len` matching the occupied-slot count. Cheap enough for tests
    /// and the `check`-feature harness, too slow for per-op release use.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_structure(&self) {
        for si in 0..self.config.sets() {
            self.check_set(si);
        }
        let occupied = self.tags.iter().filter(|&&t| t != FREE).count();
        // sim-lint: allow(hygiene, reason = "test-facing checker whose whole contract is to panic on violation")
        assert!(
            occupied == self.len,
            "len {} disagrees with occupied slots {occupied}",
            self.len
        );
    }

    /// Per-op invariant hook: validates only the set `key` maps to. Compiled
    /// to nothing unless the `check` feature is enabled.
    #[inline]
    fn check_home_set(&self, key: TranslationKey) {
        #[cfg(feature = "check")]
        self.check_set(self.set_index(key));
        #[cfg(not(feature = "check"))]
        let _ = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::VirtPage;

    fn key(v: u64) -> TranslationKey {
        TranslationKey::new(Asid(0), VirtPage(v))
    }

    fn tiny_fa(entries: usize) -> Tlb {
        Tlb::new(TlbConfig::fully_associative(
            entries,
            ReplacementPolicy::Lru,
        ))
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny_fa(4);
        assert!(t.lookup(key(1)).is_none());
        t.insert(key(1), TlbEntry::new(PhysPage(9)));
        assert_eq!(t.lookup(key(1)).unwrap().frame, PhysPage(9));
        assert_eq!(t.stats().lookups, 2);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert!((t.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        t.lookup(key(1)); // 2 is now LRU
        let victim = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(victim.0, key(2));
        assert!(t.probe(key(1)).is_some());
        assert!(t.probe(key(3)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut t = Tlb::new(TlbConfig::fully_associative(2, ReplacementPolicy::Fifo));
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        t.lookup(key(1)); // would save key 1 under LRU
        let victim = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(victim.0, key(1), "FIFO evicts the oldest insertion");
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let mk = || Tlb::new(TlbConfig::fully_associative(4, ReplacementPolicy::Random));
        let run = |mut t: Tlb| {
            for v in 0..32 {
                t.insert(key(v), TlbEntry::new(PhysPage(v)));
            }
            t.resident_keys()
        };
        assert_eq!(run(mk()), run(mk()));
    }

    #[test]
    fn insert_existing_updates_without_eviction() {
        let mut t = tiny_fa(1);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        let v = t.insert(key(1), TlbEntry::new(PhysPage(2)));
        assert!(v.is_none());
        assert_eq!(t.probe(key(1)).unwrap().frame, PhysPage(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn peek_victim_matches_insert_for_lru() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        assert!(t.peek_victim(key(9)).is_none(), "room left, no victim");
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        assert!(t.peek_victim(key(1)).is_none(), "present key evicts nobody");
        let peeked = t.peek_victim(key(3)).unwrap();
        let actual = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(peeked.0, actual.0);
    }

    #[test]
    fn set_conflicts_respect_geometry() {
        // 4 entries, 1-way => 4 direct-mapped sets with XOR-folded
        // indexing. Find two colliding keys and check the conflict evicts.
        let probe_set = |v: u64| {
            let mut t = Tlb::new(TlbConfig::new(4, 1, ReplacementPolicy::Lru));
            t.insert(key(v), TlbEntry::new(PhysPage(v)));
            t
        };
        let mut t = probe_set(0);
        let collider = (1..64)
            .find(|&v| {
                let mut t2 = probe_set(0);
                t2.insert(key(v), TlbEntry::new(PhysPage(v))).is_some()
            })
            .expect("some key collides with key 0 in 4 sets");
        let victim = t.insert(key(collider), TlbEntry::new(PhysPage(collider)));
        assert_eq!(victim.unwrap().0, key(0));
        assert!(t.probe(key(collider)).is_some());
        // Direct-mapped stride-4096 keys no longer all alias to one set.
        let mut t = Tlb::new(TlbConfig::new(4, 1, ReplacementPolicy::Lru));
        let mut evictions = 0;
        for i in 0..4u64 {
            if t.insert(key(i * 4), TlbEntry::new(PhysPage(i))).is_some() {
                evictions += 1;
            }
        }
        assert!(evictions < 3, "folding must spread strided keys");
    }

    #[test]
    fn remove_and_flush() {
        let mut t = tiny_fa(4);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        assert_eq!(t.remove(key(1)).unwrap().frame, PhysPage(1));
        assert!(t.remove(key(1)).is_none());
        assert_eq!(t.len(), 1);
        assert_eq!(t.flush(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn invalidate_asid_is_selective() {
        let mut t = tiny_fa(4);
        t.insert(
            TranslationKey::new(Asid(1), VirtPage(1)),
            TlbEntry::new(PhysPage(1)),
        );
        t.insert(
            TranslationKey::new(Asid(2), VirtPage(1)),
            TlbEntry::new(PhysPage(2)),
        );
        assert_eq!(t.invalidate_asid(Asid(1)), 1);
        assert_eq!(t.len(), 1);
        assert!(t.probe(TranslationKey::new(Asid(2), VirtPage(1))).is_some());
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut t = tiny_fa(8);
        for v in 0..5 {
            t.insert(key(v), TlbEntry::new(PhysPage(v)));
        }
        let mut keys = t.resident_keys();
        keys.sort();
        assert_eq!(keys, (0..5).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn probe_mut_edits_in_place() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)).with_spill_credits(1));
        t.probe_mut(key(1)).unwrap().spill_credits = 0;
        assert_eq!(t.probe(key(1)).unwrap().spill_credits, 0);
    }

    #[test]
    fn touch_refreshes_recency_without_stats() {
        let mut t = tiny_fa(2);
        t.insert(key(1), TlbEntry::new(PhysPage(1)));
        t.insert(key(2), TlbEntry::new(PhysPage(2)));
        let lookups_before = t.stats().lookups;
        assert!(t.touch(key(1)));
        assert!(!t.touch(key(99)));
        assert_eq!(
            t.stats().lookups,
            lookups_before,
            "touch records no lookups"
        );
        // key 2 is now LRU thanks to the touch.
        let victim = t.insert(key(3), TlbEntry::new(PhysPage(3))).unwrap();
        assert_eq!(victim.0, key(2));
    }

    #[test]
    fn entry_builders() {
        let e = TlbEntry::new(PhysPage(3))
            .with_origin(GpuId(2))
            .with_spill_credits(1);
        assert_eq!(e.origin, GpuId(2));
        assert_eq!(e.spill_credits, 1);
    }

    #[test]
    fn structure_checks_pass_under_churn() {
        let mut t = Tlb::new(TlbConfig::new(16, 4, ReplacementPolicy::Lru));
        for v in 0..200u64 {
            t.insert(key(v % 37), TlbEntry::new(PhysPage(v)));
            if v % 3 == 0 {
                t.remove(key((v * 7) % 37));
            }
            t.check_structure();
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = Tlb::new(TlbConfig::new(12, 2, ReplacementPolicy::Lru));
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn ragged_geometry_rejected() {
        let _ = Tlb::new(TlbConfig::new(10, 4, ReplacementPolicy::Lru));
    }
}
