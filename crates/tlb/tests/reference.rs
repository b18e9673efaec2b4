//! Differential test of the flat, tag-scanned [`Tlb`] against a reference
//! model: the straightforward `Vec<Vec<Option<Slot>>>` TLB with linear way
//! scans that the flat layout replaced. Both are driven with the same
//! splitmix64 operation sequences over every public operation; after each
//! op the return values, statistics, length and set-major iteration order
//! must agree. Key pools include keys that share both a set and a 16-bit
//! fingerprint, so the full-key confirm path is exercised.

use mgpu_types::{Asid, GpuId, PhysPage, TranslationKey, VirtPage};
use tlb::{key_tag, Displaced, ReplacementPolicy, Tlb, TlbConfig, TlbEntry, TlbStats};

#[derive(Clone, Copy)]
struct Slot {
    key: TranslationKey,
    entry: TlbEntry,
    last_used: u64,
    inserted: u64,
}

/// The reference TLB: one `Vec` of optional slots per set, every
/// operation a linear scan of its set.
struct RefTlb {
    config: TlbConfig,
    sets: Vec<Vec<Option<Slot>>>,
    tick: u64,
    len: usize,
    stats: TlbStats,
    rng: u64,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl RefTlb {
    fn new(config: TlbConfig) -> Self {
        RefTlb {
            config,
            sets: vec![vec![None; config.ways]; config.sets()],
            tick: 0,
            len: 0,
            stats: TlbStats::default(),
            rng: config.seed | 1,
        }
    }

    fn set_index(&self, key: TranslationKey) -> usize {
        let sets = self.sets.len() as u64;
        let s = sets.trailing_zeros();
        let v = key.vpn.0;
        let folded = v ^ (v >> s) ^ (v >> (2 * s)) ^ u64::from(key.asid.0).wrapping_mul(0x9e37);
        (folded & (sets - 1)) as usize
    }

    fn find(&self, key: TranslationKey) -> Option<(usize, usize)> {
        let si = self.set_index(key);
        let wi = self.sets[si]
            .iter()
            .position(|s| s.is_some_and(|s| s.key == key))?;
        Some((si, wi))
    }

    fn slot(&mut self, (si, wi): (usize, usize)) -> &mut Slot {
        self.sets[si][wi]
            .as_mut()
            .expect("find returns occupied ways")
    }

    fn lookup(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        self.tick += 1;
        self.stats.lookups += 1;
        let Some(at) = self.find(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let tick = self.tick;
        let slot = self.slot(at);
        slot.last_used = tick;
        Some(slot.entry)
    }

    fn probe(&self, key: TranslationKey) -> Option<TlbEntry> {
        self.find(key)
            .and_then(|(si, wi)| self.sets[si][wi].map(|s| s.entry))
    }

    fn probe_mut(&mut self, key: TranslationKey) -> Option<&mut TlbEntry> {
        let at = self.find(key)?;
        Some(&mut self.slot(at).entry)
    }

    fn victim_way(&self, si: usize) -> usize {
        let age = |s: &Slot| match self.config.replacement {
            ReplacementPolicy::Lru => s.last_used,
            _ => s.inserted,
        };
        match self.config.replacement {
            ReplacementPolicy::Random => (xorshift(self.rng) % self.config.ways as u64) as usize,
            _ => {
                let ages = self.sets[si].iter().map(|s| s.map(|s| age(&s)));
                ages.enumerate().min_by_key(|(_, a)| *a).expect("ways").0
            }
        }
    }

    fn insert(
        &mut self,
        key: TranslationKey,
        entry: TlbEntry,
    ) -> Option<(TranslationKey, TlbEntry)> {
        self.tick += 1;
        self.stats.insertions += 1;
        let tick = self.tick;
        if let Some(at) = self.find(key) {
            let slot = self.slot(at);
            slot.entry = entry;
            slot.last_used = tick;
            return None;
        }
        let si = self.set_index(key);
        let fresh = Slot {
            key,
            entry,
            last_used: tick,
            inserted: tick,
        };
        if let Some(wi) = self.sets[si].iter().position(Option::is_none) {
            self.sets[si][wi] = Some(fresh);
            self.len += 1;
            return None;
        }
        let wi = self.victim_way(si);
        if self.config.replacement == ReplacementPolicy::Random {
            self.rng = xorshift(self.rng);
        }
        let victim = self.sets[si][wi].replace(fresh).expect("full set");
        self.stats.evictions += 1;
        Some((victim.key, victim.entry))
    }

    fn peek_victim(&self, key: TranslationKey) -> Option<(TranslationKey, TlbEntry)> {
        let si = self.set_index(key);
        if self.find(key).is_some() || self.sets[si].iter().any(Option::is_none) {
            return None;
        }
        self.sets[si][self.victim_way(si)].map(|s| (s.key, s.entry))
    }

    fn touch(&mut self, key: TranslationKey) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let Some(at) = self.find(key) else {
            return false;
        };
        self.slot(at).last_used = tick;
        true
    }

    fn remove(&mut self, key: TranslationKey) -> Option<TlbEntry> {
        let (si, wi) = self.find(key)?;
        self.len -= 1;
        self.stats.removals += 1;
        self.sets[si][wi].take().map(|s| s.entry)
    }

    fn invalidate_asid(&mut self, asid: Asid) -> usize {
        let before = self.len;
        for way in self.sets.iter_mut().flatten() {
            if way.is_some_and(|s| s.key.asid == asid) {
                *way = None;
                self.len -= 1;
            }
        }
        self.stats.removals += (before - self.len) as u64;
        before - self.len
    }

    fn flush(&mut self) -> usize {
        let dropped = self.len;
        self.sets.iter_mut().flatten().for_each(|w| *w = None);
        self.len = 0;
        self.stats.removals += dropped as u64;
        dropped
    }

    fn iter(&self) -> impl Iterator<Item = (TranslationKey, TlbEntry)> + '_ {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .map(|s| (s.key, s.entry))
    }
}

/// splitmix64, the workspace's test-case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn key(asid: u16, vpn: u64) -> TranslationKey {
    TranslationKey::new(Asid(asid), VirtPage(vpn))
}

/// `n` keys after `seed` that share `seed`'s set and fingerprint.
fn colliders(r: &RefTlb, seed: TranslationKey, n: usize) -> Vec<TranslationKey> {
    let (set, tag) = (r.set_index(seed), key_tag(seed));
    (seed.vpn.0 + 1..)
        .map(|v| key(seed.asid.0, v))
        .filter(|&k| r.set_index(k) == set && key_tag(k) == tag)
        .take(n)
        .collect()
}

/// Key pool: ASIDs 0 and 1 over a VPN range 1.5× the capacity, plus a
/// group of set-and-fingerprint colliders per ASID.
fn key_pool(r: &RefTlb, rng: &mut Rng) -> Vec<TranslationKey> {
    let span = (r.config.entries as u64 * 3 / 2).max(4);
    let mut pool: Vec<_> = (0..2)
        .flat_map(|a| (0..span).map(move |v| key(a, v)))
        .collect();
    for a in 0..2 {
        let seed = key(a, rng.below(span));
        pool.push(seed);
        pool.extend(colliders(r, seed, 4));
    }
    pool
}

fn entry(rng: &mut Rng) -> TlbEntry {
    TlbEntry::new(PhysPage(rng.below(1 << 20)))
        .with_origin(GpuId(rng.below(4) as u8))
        .with_spill_credits(rng.below(3) as u8)
}

fn assert_same(t: &Tlb, r: &RefTlb, step: usize, op: &str) {
    assert_eq!(*t.stats(), r.stats, "step {step} ({op}): stats");
    assert_eq!(t.len(), r.len, "step {step} ({op}): len");
    assert!(
        t.iter().map(|(k, e)| (k, *e)).eq(r.iter()),
        "step {step} ({op}): iteration order or contents"
    );
}

fn differential(entries: usize, ways: usize, policy: ReplacementPolicy, steps: usize) {
    let config = TlbConfig::new(entries, ways, policy);
    let (mut t, mut r) = (Tlb::new(config), RefTlb::new(config));
    let mut rng = Rng(entries as u64 * 131 + ways as u64 * 7 + policy as u64);
    let pool = key_pool(&r, &mut rng);
    let collide_from = pool.len() - 10;
    for step in 0..steps {
        // One pick in eight comes from the collider groups.
        let k = if rng.below(8) == 0 {
            pool[collide_from + rng.below(10) as usize]
        } else {
            pool[rng.below(collide_from as u64) as usize]
        };
        let op = match rng.below(1000) {
            0..=269 => {
                assert_eq!(t.lookup(k), r.lookup(k), "step {step}: lookup {k}");
                "lookup"
            }
            270..=549 => {
                let e = entry(&mut rng);
                assert_eq!(t.insert(k, e), r.insert(k, e), "step {step}: insert {k}");
                "insert"
            }
            550..=629 => {
                assert_eq!(t.probe(k).copied(), r.probe(k), "step {step}: probe {k}");
                "probe"
            }
            630..=679 => {
                let c = rng.below(3) as u8;
                let (a, b) = (t.probe_mut(k), r.probe_mut(k));
                assert_eq!(a.is_some(), b.is_some(), "step {step}: probe_mut {k}");
                if let (Some(a), Some(b)) = (a, b) {
                    a.spill_credits = c;
                    b.spill_credits = c;
                }
                "probe_mut"
            }
            680..=749 => {
                assert_eq!(t.touch(k), r.touch(k), "step {step}: touch {k}");
                "touch"
            }
            750..=819 => {
                assert_eq!(t.remove(k), r.remove(k), "step {step}: remove {k}");
                "remove"
            }
            820..=879 => {
                assert_eq!(t.peek_victim(k), r.peek_victim(k), "step {step}: peek {k}");
                "peek_victim"
            }
            // `refresh` must equal the probe → touch → probe_mut sequence
            // it replaces, including no clock tick on a miss.
            880..=939 => {
                let c = rng.below(3) as u8;
                let got = t.refresh(k).map(|e| {
                    e.spill_credits = e.spill_credits.max(c);
                    *e
                });
                let want = r.probe(k).is_some().then(|| {
                    r.touch(k);
                    let e = r.probe_mut(k).expect("present");
                    e.spill_credits = e.spill_credits.max(c);
                    *e
                });
                assert_eq!(got, want, "step {step}: refresh {k}");
                "refresh"
            }
            // `upsert` must equal probe-then-insert.
            940..=994 => {
                let e = entry(&mut rng);
                let old = r.probe(k);
                let want = match (old, r.insert(k, e)) {
                    (Some(o), _) => Displaced::Updated(o),
                    (None, Some((vk, ve))) => Displaced::Evicted(vk, ve),
                    (None, None) => Displaced::Nothing,
                };
                assert_eq!(t.upsert(k, e), want, "step {step}: upsert {k}");
                "upsert"
            }
            995..=997 => {
                let a = Asid(rng.below(2) as u16);
                assert_eq!(t.invalidate_asid(a), r.invalidate_asid(a), "step {step}");
                "invalidate_asid"
            }
            _ => {
                assert_eq!(t.flush(), r.flush(), "step {step}: flush");
                "flush"
            }
        };
        assert_same(&t, &r, step, op);
    }
    t.check_structure();
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

#[test]
fn direct_mapped_geometries_match_reference() {
    for p in POLICIES {
        differential(1, 1, p, 4_000);
        differential(4, 1, p, 4_000);
    }
}

#[test]
fn l1_fully_associative_16_matches_reference() {
    for p in POLICIES {
        differential(16, 16, p, 20_000);
    }
}

#[test]
fn small_set_associative_16x4_matches_reference() {
    for p in POLICIES {
        differential(16, 4, p, 20_000);
    }
}

#[test]
fn l2_512x16_matches_reference() {
    for p in POLICIES {
        differential(512, 16, p, 30_000);
    }
}

#[test]
fn iommu_4096x64_matches_reference() {
    for p in POLICIES {
        differential(4096, 64, p, 30_000);
    }
}

#[test]
fn collider_groups_share_set_and_fingerprint() {
    let r = RefTlb::new(TlbConfig::new(4096, 64, ReplacementPolicy::Lru));
    let seed = key(1, 77);
    let group = colliders(&r, seed, 4);
    assert_eq!(group.len(), 4);
    for k in group {
        assert_ne!(k, seed);
        assert_eq!(r.set_index(k), r.set_index(seed));
        assert_eq!(key_tag(k), key_tag(seed));
    }
}

#[test]
fn colliding_keys_never_alias() {
    // Fill one set of the IOMMU geometry with keys sharing a fingerprint:
    // every lookup must return its own frame, never a collider's.
    let config = TlbConfig::new(4096, 64, ReplacementPolicy::Lru);
    let r = RefTlb::new(config);
    let seed = key(0, 5);
    let mut group = vec![seed];
    group.extend(colliders(&r, seed, 7));
    let mut t = Tlb::new(config);
    for (i, &k) in group.iter().enumerate().skip(1) {
        t.insert(k, TlbEntry::new(PhysPage(i as u64)));
    }
    assert!(
        t.lookup(seed).is_none(),
        "absent key with a shared tag misses"
    );
    for (i, &k) in group.iter().enumerate().skip(1) {
        assert_eq!(t.lookup(k).map(|e| e.frame), Some(PhysPage(i as u64)));
    }
    assert_eq!(t.remove(group[3]).map(|e| e.frame), Some(PhysPage(3)));
    assert!(t.probe(group[3]).is_none());
    assert!(t.probe(group[4]).is_some());
}
