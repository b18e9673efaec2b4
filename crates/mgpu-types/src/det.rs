//! Deterministic replacements for the std hash containers.
//!
//! Simulation state must never live in `HashMap`/`HashSet`: their iteration
//! order depends on `RandomState`'s per-process seed, so any code path that
//! walks such a container — directly, via `Debug`, or through
//! serialization — silently breaks the bit-reproducibility guarantee the
//! experiment harness is built on (identical output across `--jobs` values
//! and across processes). The `sim-lint` tool enforces the replacements
//! below across every simulation-state crate.
//!
//! Two replacements, with two determinism arguments:
//!
//! - [`DetMap`] and [`DetSet`] wrap the B-tree containers: key-ordered
//!   iteration, no hasher, no seed. Use them for every map or set that is
//!   iterated, serialized or printed.
//! - [`KeyTable`] maps a [`TranslationKey`] to a value through a flat,
//!   open-addressed slot array under a fixed multiplicative hash. Its slot
//!   order depends on the insertion and removal history, so it offers no
//!   way to observe it: no `iter`, `keys` or `values`, and its `Debug`
//!   prints only the entry count. Slot order therefore can never reach an
//!   output. Use it for keyed lookup tables that are only ever probed by
//!   key, such as the in-flight request tables on the translation path,
//!   where a B-tree's node walks and allocations cost more than the
//!   lookup itself.
//!
//! The wrappers expose only the API surface the simulator uses; extend
//! them here rather than falling back to the std hash types.
//!
//! # Examples
//!
//! ```
//! use mgpu_types::DetMap;
//!
//! let mut m: DetMap<u64, &str> = DetMap::new();
//! m.insert(3, "c");
//! m.insert(1, "a");
//! // Iteration order is the key order, independent of insertion order.
//! let keys: Vec<u64> = m.keys().copied().collect();
//! assert_eq!(keys, vec![1, 3]);
//! ```

use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};
use std::{fmt, mem};

use serde::{Deserialize, Error, Serialize, Value};

use crate::TranslationKey;

/// A deterministic map: [`BTreeMap`] with the std-map API subset the
/// simulator uses. Iteration order is the key order, which makes every
/// traversal reproducible across runs, processes and `--jobs` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetMap<K, V> {
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> DetMap<K, V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        DetMap {
            inner: BTreeMap::new(),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts `value` under `key`, returning the displaced value if the
    /// key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.get_mut(key)
    }

    /// Removes and returns the value stored under `key`, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    /// In-place entry API (delegates to [`BTreeMap::entry`]).
    pub fn entry(&mut self, key: K) -> btree_map::Entry<'_, K, V> {
        self.inner.entry(key)
    }

    /// Key-ordered iterator over `(key, value)` pairs.
    pub fn iter(&self) -> btree_map::Iter<'_, K, V> {
        self.inner.iter()
    }

    /// Key-ordered iterator over the keys.
    pub fn keys(&self) -> btree_map::Keys<'_, K, V> {
        self.inner.keys()
    }

    /// Key-ordered iterator over the values.
    pub fn values(&self) -> btree_map::Values<'_, K, V> {
        self.inner.values()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<K: Ord, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetMap {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<K: Ord, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = btree_map::Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<K: Ord, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = btree_map::IntoIter<K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

/// Maps serialize as key-ordered arrays of `[key, value]` pairs — already
/// sorted, so the output is deterministic without a post-sort.
impl<K: Serialize, V: Serialize> Serialize for DetMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.inner
                .iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for DetMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::msg("expected an array of pairs"))?
            .iter()
            .map(<(K, V)>::from_value)
            .collect()
    }
}

/// A deterministic set: [`BTreeSet`] with the std-set API subset the
/// simulator uses. Iteration order is the element order.
///
/// # Examples
///
/// ```
/// use mgpu_types::DetSet;
///
/// let mut s: DetSet<u64> = DetSet::new();
/// assert!(s.insert(2));
/// assert!(!s.insert(2), "duplicate insert reports false");
/// assert!(s.contains(&2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetSet<T> {
    inner: BTreeSet<T>,
}

impl<T: Ord> DetSet<T> {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        DetSet {
            inner: BTreeSet::new(),
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts `value`; returns `false` if it was already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.inner.insert(value)
    }

    /// Whether `value` is present.
    pub fn contains(&self, value: &T) -> bool {
        self.inner.contains(value)
    }

    /// Removes `value`; returns whether it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.inner.remove(value)
    }

    /// Element-ordered iterator.
    pub fn iter(&self) -> btree_set::Iter<'_, T> {
        self.inner.iter()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<T: Ord> Default for DetSet<T> {
    fn default() -> Self {
        DetSet::new()
    }
}

impl<T: Ord> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        DetSet {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<T: Ord> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.inner.extend(iter);
    }
}

impl<'a, T: Ord> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = btree_set::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<T: Ord> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = btree_set::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<T: Serialize> Serialize for DetSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.inner.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for DetSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::msg("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// Multiplier of [`KeyTable`]'s hash: 2^64 divided by the golden ratio,
/// made odd (Fibonacci hashing).
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots a [`KeyTable`] allocates on its first insert.
const MIN_SLOTS: usize = 8;

/// A flat, open-addressed map from [`TranslationKey`] to `V` for lookup
/// tables that are only ever probed by key.
///
/// All entries live inline in one slot array whose length is a power of
/// two. A key's home slot is the top bits of a fixed multiplicative hash
/// of its ASID and VPN, and collisions probe linearly to the next slot.
/// The array doubles before an insert would fill more than half of it, so
/// every probe chain ends at an empty slot. Removal shifts later entries
/// of the chain back into the hole instead of leaving a tombstone, so
/// chains stay as short as the live entries make them. An empty table
/// owns no memory.
///
/// There is deliberately no way to iterate the table, and its `Debug`
/// prints only the entry count: slot order depends on the insertion and
/// removal history, so it must never reach an output. The method names
/// are not the std map names either, so the linter's name-based call
/// graph cannot confuse them with the many `get`/`insert`/`len` call
/// sites elsewhere.
///
/// # Examples
///
/// ```
/// use mgpu_types::{Asid, KeyTable, TranslationKey, VirtPage};
///
/// let key = TranslationKey::new(Asid(1), VirtPage(42));
/// let mut t: KeyTable<u32> = KeyTable::new();
/// assert_eq!(t.bind(key, 7), None);
/// assert_eq!(t.bind(key, 8), Some(7), "a rebind returns the old value");
/// assert_eq!(t.value_for(key), Some(&8));
/// assert_eq!(t.held(), 1);
/// assert_eq!(t.unbind(key), Some(8));
/// assert!(!t.holds(key));
/// ```
#[derive(Clone)]
pub struct KeyTable<V> {
    /// The slot array: empty (no allocation) or a power of two long.
    slots: Vec<Option<(TranslationKey, V)>>,
    /// Occupied slots.
    held: usize,
}

impl<V> KeyTable<V> {
    /// Creates an empty table. It allocates on the first insert.
    #[must_use]
    pub fn new() -> Self {
        KeyTable {
            slots: Vec::new(),
            held: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn held(&self) -> usize {
        self.held
    }

    /// Whether `key` has an entry.
    #[must_use]
    pub fn holds(&self, key: TranslationKey) -> bool {
        self.slot_of(key).is_some()
    }

    /// The value stored under `key`, if any.
    #[must_use]
    pub fn value_for(&self, key: TranslationKey) -> Option<&V> {
        let i = self.slot_of(key)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn value_for_mut(&mut self, key: TranslationKey) -> Option<&mut V> {
        let i = self.slot_of(key)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Stores `value` under `key`, returning the value it displaces if the
    /// key already had one.
    pub fn bind(&mut self, key: TranslationKey, value: V) -> Option<V> {
        if let Some(i) = self.slot_of(key) {
            return self.slots[i].as_mut().map(|(_, v)| mem::replace(v, value));
        }
        if (self.held + 1) * 2 > self.slots.len() {
            self.widen();
        }
        let i = self.vacant_slot(key);
        self.slots[i] = Some((key, value));
        self.held += 1;
        None
    }

    /// Removes and returns the value stored under `key`, if any. Later
    /// entries of the key's probe chain shift back over the freed slot.
    pub fn unbind(&mut self, key: TranslationKey) -> Option<V> {
        let mut hole = self.slot_of(key)?;
        let (_, value) = self.slots[hole].take()?;
        self.held -= 1;
        let mask = self.slots.len() - 1;
        let mut j = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            // The entry at `j` may fill the hole only if the hole lies on
            // its probe path, between its home slot and `j`; moving it
            // there keeps it reachable and closes the gap for the rest.
            let home = self.home_slot(*k);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }

    /// The home slot of `key`: the top `log2(slots)` bits of the product
    /// of its ASID and VPN with [`FIB`]. Needs a non-empty slot array.
    fn home_slot(&self, key: TranslationKey) -> usize {
        let x = key.vpn.0 ^ (u64::from(key.asid.0) << 48);
        (x.wrapping_mul(FIB) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `key`, if any.
    fn slot_of(&self, key: TranslationKey) -> Option<usize> {
        if self.held == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home_slot(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// The first empty slot of `key`'s probe chain. The caller has made
    /// sure the key is absent and a slot is free.
    fn vacant_slot(&self, key: TranslationKey) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home_slot(key);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the slot array (or allocates the first one) and re-homes
    /// every entry.
    fn widen(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        let mut grown = Vec::with_capacity(len);
        grown.resize_with(len, || None);
        let old = mem::replace(&mut self.slots, grown);
        for (key, value) in old.into_iter().flatten() {
            let i = self.vacant_slot(key);
            self.slots[i] = Some((key, value));
        }
    }
}

impl<V> Default for KeyTable<V> {
    fn default() -> Self {
        KeyTable::new()
    }
}

/// Prints the entry count only: slot order must not reach any output.
impl<V> fmt::Debug for KeyTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyTable")
            .field("held", &self.held)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_iteration_is_key_ordered_regardless_of_insertion() {
        let mut a: DetMap<u64, u64> = DetMap::new();
        for k in [5, 1, 9, 3] {
            a.insert(k, k * 10);
        }
        let mut b: DetMap<u64, u64> = DetMap::new();
        for k in [9, 3, 5, 1] {
            b.insert(k, k * 10);
        }
        let ka: Vec<_> = a.iter().collect();
        let kb: Vec<_> = b.iter().collect();
        assert_eq!(ka, kb, "iteration order is insertion-independent");
        assert_eq!(a.keys().copied().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
    }

    #[test]
    fn map_basic_operations() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(1, "b"), Some("a"));
        assert_eq!(m.get(&1), Some(&"b"));
        *m.entry(2).or_insert("z") = "c";
        m.entry(2).or_insert("y");
        assert_eq!(m.get(&2), Some(&"c"));
        assert_eq!(m.get_mut(&2).map(|v| std::mem::replace(v, "d")), Some("c"));
        assert_eq!(m.remove(&2), Some("d"));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn map_collects_and_extends() {
        let mut m: DetMap<u32, u32> = [(2, 20), (1, 10)].into_iter().collect();
        m.extend([(3, 30)]);
        let pairs: Vec<(u32, u32)> = (&m).into_iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (3, 30)]);
        let owned: Vec<(u32, u32)> = m.into_iter().collect();
        assert_eq!(owned, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn set_basic_operations() {
        let mut s = DetSet::new();
        assert!(s.is_empty());
        assert!(s.insert(4));
        assert!(!s.insert(4));
        assert!(s.contains(&4));
        s.extend([2, 6]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![2, 4, 6]);
        assert!(s.remove(&4));
        assert!(!s.remove(&4));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn set_collects_in_order() {
        let s: DetSet<u8> = [3, 1, 2, 1].into_iter().collect();
        assert_eq!((&s).into_iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn serde_roundtrip_is_sorted() {
        let m: DetMap<u64, u64> = [(9, 90), (1, 10)].into_iter().collect();
        let v = m.to_value();
        let back = DetMap::<u64, u64>::from_value(&v).unwrap();
        assert_eq!(back, m);
        let s: DetSet<u64> = [7, 2].into_iter().collect();
        let back = DetSet::<u64>::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
    }

    /// splitmix64, the recurrence the repo's other property suites use.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn tkey(asid: u16, vpn: u64) -> TranslationKey {
        TranslationKey::new(crate::Asid(asid), crate::VirtPage(vpn))
    }

    /// A table with its first slot array allocated and no entries.
    fn allocated() -> KeyTable<u32> {
        let mut t = KeyTable::new();
        t.widen();
        t
    }

    /// The first `n` ASID-0 keys whose home slot in `t` is `slot`.
    fn homed_at(t: &KeyTable<u32>, slot: usize, n: usize) -> Vec<TranslationKey> {
        (0..)
            .map(|v| tkey(0, v))
            .filter(|&k| t.home_slot(k) == slot)
            .take(n)
            .collect()
    }

    /// The slot each key sits in, `None` for an absent key.
    fn layout(t: &KeyTable<u32>, keys: &[TranslationKey]) -> Vec<Option<usize>> {
        keys.iter().map(|&k| t.slot_of(k)).collect()
    }

    #[test]
    fn key_table_matches_det_map_over_random_operations() {
        // 3 ASIDs x 97 VPNs: at most 291 live keys, so the table stays
        // small and collides often, and every operation hits a key that
        // was recently bound, rebound or unbound.
        let mut state = 0x6b65_7974_6162_6c65;
        let mut t: KeyTable<u64> = KeyTable::new();
        let mut m: DetMap<TranslationKey, u64> = DetMap::new();
        let mut peak = 0;
        for op in 0..120_000u64 {
            let r = splitmix(&mut state);
            let key = tkey((r % 3) as u16, (r >> 8) % 97);
            // Phases of mostly-bind and mostly-unbind sweep the load
            // from empty to full and back, through every growth step.
            let bind_bias = if (op / 5_000) % 2 == 0 { 6 } else { 3 };
            match (r >> 32) % 10 {
                x if x < bind_bias => assert_eq!(t.bind(key, op), m.insert(key, op), "bind {key}"),
                6..=7 => assert_eq!(t.unbind(key), m.remove(&key), "unbind {key}"),
                8 => {
                    let got = t.value_for_mut(key).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = m.get_mut(&key).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, want, "value_for_mut {key}");
                }
                _ => {
                    assert_eq!(t.value_for(key), m.get(&key), "value_for {key}");
                    assert_eq!(t.holds(key), m.get(&key).is_some(), "holds {key}");
                }
            }
            assert_eq!(t.held(), m.len(), "held after op {op}");
            peak = peak.max(m.len());
        }
        assert!(peak > 200, "the key space was never nearly full: {peak}");
        for (&k, v) in &m {
            assert_eq!(t.value_for(k), Some(v), "{k} lost at the end");
        }
    }

    #[test]
    fn removal_inside_a_chain_that_wraps_past_the_last_slot() {
        // Three keys homed at the last slot fill slots 7, 0 and 1; a key
        // homed at slot 0 lands in 2, and one homed at 3 sits in its
        // own home past the chain.
        let mut t = allocated();
        let last = t.slots.len() - 1;
        let mut keys = homed_at(&t, last, 3);
        keys.extend(homed_at(&t, 0, 1));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.bind(k, i as u32), None);
        }
        assert_eq!(t.slots.len(), 8, "four entries fit the first array");
        assert_eq!(layout(&t, &keys), [Some(7), Some(0), Some(1), Some(2)]);

        // Unbinding the chain's second key (slot 0) shifts the third key
        // back across the wrap-around seam's far side and the slot-0 key
        // back into slot 1.
        assert_eq!(t.unbind(keys[1]), Some(1));
        assert_eq!(layout(&t, &keys), [Some(7), None, Some(0), Some(1)]);
        // Unbinding the head (slot 7) pulls the rest back over the seam.
        assert_eq!(t.unbind(keys[0]), Some(0));
        assert_eq!(layout(&t, &keys), [None, None, Some(7), Some(0)]);
        assert_eq!(t.value_for(keys[2]), Some(&2));
        assert_eq!(t.value_for(keys[3]), Some(&3));
        assert_eq!(t.held(), 2);
    }

    #[test]
    fn removal_leaves_entries_already_at_home_in_place() {
        // Slot 1's key is homed at 1: freeing slot 0 must not pull it
        // back before its home, or a lookup from slot 1 would miss it.
        let mut t = allocated();
        let at_0 = homed_at(&t, 0, 2);
        let keys = [at_0[0], homed_at(&t, 1, 1)[0], at_0[1]];
        for (i, &k) in keys.iter().enumerate() {
            t.bind(k, i as u32);
        }
        assert_eq!(layout(&t, &keys), [Some(0), Some(1), Some(2)]);
        assert_eq!(t.unbind(keys[0]), Some(0));
        assert_eq!(layout(&t, &keys), [None, Some(1), Some(0)]);
        assert!(t.holds(keys[1]) && t.holds(keys[2]));
    }

    #[test]
    fn growth_rehomes_every_entry_of_existing_chains() {
        let mut t = allocated();
        let mut keys = homed_at(&t, 5, 3);
        keys.extend(homed_at(&t, 6, 1));
        for (i, &k) in keys.iter().enumerate() {
            t.bind(k, i as u32);
        }
        assert_eq!(t.slots.len(), 8);
        // The fifth entry would fill more than half the array: it doubles
        // first, and every chained entry must be found from its new home.
        let extra: Vec<TranslationKey> = (1..=40).map(|v| tkey(2, v)).collect();
        for (i, &k) in extra.iter().enumerate() {
            t.bind(k, 100 + i as u32);
        }
        assert_eq!(t.slots.len(), 128, "44 entries need 128 slots at half load");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.value_for(k), Some(&(i as u32)), "{k} lost in growth");
        }
        for (i, &k) in extra.iter().enumerate() {
            assert_eq!(t.value_for(k), Some(&(100 + i as u32)));
        }
        assert_eq!(t.held(), 44);
    }

    #[test]
    fn rebinding_after_unbind_starts_a_fresh_entry() {
        let mut t: KeyTable<Vec<u8>> = KeyTable::new();
        assert!(!t.holds(tkey(0, 1)), "an empty table holds nothing");
        assert_eq!(t.unbind(tkey(0, 1)), None);
        assert_eq!(t.slots.capacity(), 0, "an empty table owns no memory");
        t.bind(tkey(0, 1), vec![1, 2]);
        assert_eq!(t.unbind(tkey(0, 1)), Some(vec![1, 2]));
        assert_eq!(t.unbind(tkey(0, 1)), None, "unbind is not idempotent");
        assert_eq!(t.bind(tkey(0, 1), vec![3]), None, "no stale value survives");
        assert_eq!(t.value_for(tkey(0, 1)), Some(&vec![3]));
        assert_eq!(t.held(), 1);
        assert_eq!(format!("{t:?}"), "KeyTable { held: 1, .. }");
    }
}
