//! Fast, deterministic hash containers for the simulator's hot paths.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, a keyed
//! cryptographic hash that costs tens of cycles per lookup and whose
//! per-process random key makes iteration order vary run to run. The
//! engine's inner loop does map operations per simulated event (MSHR
//! lookups on every L1/L2 miss), so both costs matter here:
//!
//! - [`fx_hash64`] — an FxHash-style multiplicative hash over one `u64`
//!   (one multiply plus a fold), the same family rustc uses internally.
//! - [`AddrMap`] — a deterministic open-addressing map keyed by `u64`
//!   block addresses: linear probing, tombstone deletion with slot
//!   reuse, power-of-two capacity. No per-process randomness; the same
//!   operation sequence always produces the same internal state, which
//!   is what the grid determinism suite (`tests/determinism.rs`)
//!   requires of everything the engine touches.
//!
//! Determinism contract: neither ever consults ambient state (no
//! `RandomState`, no addresses-as-hashes). Behavior is a pure function of
//! the operation sequence, so swapping them in for `HashMap` cannot
//! change simulation results — only iteration order, which callers must
//! not rely on (sort before presenting, as the engine's diagnostics do).

/// Multiplicative 64-bit hash (FxHash family): one odd-constant multiply
/// to spread entropy up, one fold to bring the well-mixed high bits down
/// into the low bits used for table indexing.
#[inline]
pub fn fx_hash64(key: u64) -> u64 {
    // Knuth's 2^64 / phi constant; odd, so multiplication is a bijection.
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// One slot of an [`AddrMap`] probe sequence.
#[derive(Debug, Clone)]
enum Slot<V> {
    /// Never occupied: terminates probe chains.
    Empty,
    /// Previously occupied: probe chains continue through it, and inserts
    /// may reclaim it.
    Tombstone,
    /// A live `(key, value)` entry.
    Full(u64, V),
}

/// A deterministic open-addressing hash map keyed by `u64` (block
/// addresses on the engine's hot path).
///
/// Linear probing with tombstone deletion. When live entries plus
/// tombstones exceed 3/4 of capacity the table is re-seated, shedding
/// its tombstones: at the same capacity while the live entries fill at
/// most half of it, doubled otherwise. So the table grows with the live
/// count, never with the number of inserts a long run has made. All
/// operations are pure functions of the operation sequence — there is
/// no per-instance or per-process randomness.
///
/// # Examples
///
/// ```
/// use cmpsim_harness::fastmap::AddrMap;
/// let mut m: AddrMap<&str> = AddrMap::new();
/// m.insert(0x1000, "a");
/// assert_eq!(m.get(0x1000), Some(&"a"));
/// assert_eq!(m.remove(0x1000), Some("a"));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct AddrMap<V> {
    slots: Vec<Slot<V>>,
    /// `slots.len() - 1`; the capacity is always a power of two.
    mask: usize,
    /// Live entries.
    len: usize,
    /// Live entries plus tombstones (drives rehashing).
    used: usize,
    /// The table the last rehash moved out of, kept so a same-capacity
    /// rehash reuses its allocation instead of making a new one.
    spare: Vec<Slot<V>>,
}

impl<V> Default for AddrMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> AddrMap<V> {
    /// An empty map with a small initial table.
    pub fn new() -> Self {
        Self::with_capacity(8)
    }

    /// An empty map sized for at least `cap` entries before the first
    /// rehash.
    pub fn with_capacity(cap: usize) -> Self {
        let table = (cap.max(4) * 4 / 3 + 1).next_power_of_two();
        AddrMap {
            slots: (0..table).map(|_| Slot::Empty).collect(),
            mask: table - 1,
            len: 0,
            used: 0,
            spare: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn probe_start(&self, key: u64) -> usize {
        fx_hash64(key) as usize & self.mask
    }

    /// Index of the live slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.probe_start(key);
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Full(k, _) if *k == key => return Some(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// A reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| match &self.slots[i] {
            Slot::Full(_, v) => v,
            _ => unreachable!("find returns Full slots"),
        })
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.find(key) {
            Some(i) => match &mut self.slots[i] {
                Slot::Full(_, v) => Some(v),
                _ => unreachable!("find returns Full slots"),
            },
            None => None,
        }
    }

    /// Whether `key` has a live entry.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key -> value`, returning the previous value if the key
    /// was already present. Reclaims the first tombstone on the probe
    /// path when the key is new.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if (self.used + 1) * 4 > self.slots.len() * 3 {
            self.rehash();
        }
        let mut i = self.probe_start(key);
        let mut first_tombstone: Option<usize> = None;
        loop {
            match &mut self.slots[i] {
                Slot::Full(k, v) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(i);
                    }
                    i = (i + 1) & self.mask;
                }
                Slot::Empty => {
                    let target = match first_tombstone {
                        Some(t) => t, // tombstone reuse: `used` is unchanged
                        None => {
                            self.used += 1;
                            i
                        }
                    };
                    self.slots[target] = Slot::Full(key, value);
                    self.len += 1;
                    return None;
                }
                Slot::Full(..) => i = (i + 1) & self.mask,
            }
        }
    }

    /// Removes `key`, returning its value. The slot becomes a tombstone
    /// so longer probe chains through it stay reachable.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        match std::mem::replace(&mut self.slots[i], Slot::Tombstone) {
            Slot::Full(_, v) => {
                self.len -= 1;
                Some(v)
            }
            _ => unreachable!("find returns Full slots"),
        }
    }

    /// Iterates over live keys in (deterministic) table order. The order
    /// depends on insertion history; callers wanting a stable
    /// presentation order must sort.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Slot::Full(k, _) => Some(*k),
            _ => None,
        })
    }

    /// Iterates over live `(key, &value)` pairs in table order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Full(k, v) => Some((*k, v)),
            _ => None,
        })
    }

    /// Re-seats every live entry, discarding tombstones: at the same
    /// capacity when the live entries (plus the one being inserted) fill
    /// at most half of it, at double the capacity otherwise.
    fn rehash(&mut self) {
        let cap = self.slots.len();
        let new_cap = if (self.len + 1) * 2 <= cap { cap } else { (cap * 2).max(8) };
        let mut old = std::mem::replace(&mut self.slots, std::mem::take(&mut self.spare));
        self.slots.clear();
        self.slots.resize_with(new_cap, || Slot::Empty);
        self.mask = new_cap - 1;
        self.len = 0;
        self.used = 0;
        for slot in old.drain(..) {
            if let Slot::Full(k, v) = slot {
                self.insert(k, v);
            }
        }
        self.spare = old;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addrmap_insert_get_remove() {
        let mut m = AddrMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&11));
        assert_eq!(m.get_mut(2).map(|v| std::mem::replace(v, 21)), Some(20));
        assert_eq!(m.get(2), Some(&21));
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert!(!m.contains_key(1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn addrmap_survives_growth() {
        let mut m = AddrMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 64, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 64), Some(&k), "key {k} lost in growth");
        }
    }

    #[test]
    fn addrmap_stays_bounded_under_churn() {
        // A sliding window of 16 live keys over 200,000 insert/remove
        // pairs: the table must size to the live count, not to the
        // number of inserts.
        let mut m = AddrMap::new();
        for k in 0..200_016u64 {
            assert_eq!(m.insert(k, k), None);
            if k >= 16 {
                assert_eq!(m.remove(k - 16), Some(k - 16));
            }
            assert!(m.slots.len() <= 64, "{} slots for {} live keys", m.slots.len(), m.len());
        }
        assert_eq!(m.len(), 16);
        for k in 200_000..200_016u64 {
            assert_eq!(m.get(k), Some(&k));
        }
    }

    #[test]
    fn addrmap_tombstones_keep_chains_reachable() {
        // Force a probe chain through colliding keys, then delete the
        // head: the tail must stay reachable, and a fresh insert must
        // reclaim the tombstone.
        let mut m: AddrMap<u32> = AddrMap::with_capacity(8);
        let mask = m.mask as u64;
        // Find three distinct keys that hash to the same slot.
        let mut same: Vec<u64> = Vec::new();
        let target = fx_hash64(0) & mask;
        for k in 0..1_000_000u64 {
            if fx_hash64(k) & mask == target {
                same.push(k);
                if same.len() == 3 {
                    break;
                }
            }
        }
        assert_eq!(same.len(), 3, "collision search failed");
        for (i, &k) in same.iter().enumerate() {
            m.insert(k, i as u32);
        }
        assert_eq!(m.remove(same[0]), Some(0));
        assert_eq!(m.get(same[1]), Some(&1), "chain broken by deletion");
        assert_eq!(m.get(same[2]), Some(&2), "chain broken by deletion");
        let used_before = m.used;
        m.insert(same[0], 9); // must reclaim the tombstone
        assert_eq!(m.used, used_before, "tombstone was not reused");
        assert_eq!(m.get(same[0]), Some(&9));
    }

    #[test]
    fn addrmap_keys_cover_live_entries() {
        let mut m = AddrMap::new();
        for k in [5u64, 3, 9] {
            m.insert(k, ());
        }
        m.remove(3);
        let mut keys: Vec<u64> = m.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![5, 9]);
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn fx_hash_spreads_low_bits() {
        // Block addresses are sequential; the hash must not map runs of
        // consecutive keys onto runs of consecutive slots only (that
        // would be fine) or onto a few slots (that would be a bug).
        let mask = 1023u64;
        let mut hit = vec![false; 1024];
        for k in 0..1024u64 {
            hit[(fx_hash64(k) & mask) as usize] = true;
        }
        let covered = hit.iter().filter(|h| **h).count();
        assert!(covered > 600, "only {covered}/1024 slots covered");
    }
}
