//! Classic set-associative cache with true-LRU replacement.
//!
//! Used for the private L1 caches (64 KB, 4-way) and the uncompressed
//! baseline L2 (4 MB, 8-way). Lines carry caller-supplied metadata `M`
//! (MSI state for L1s, a directory entry for the L2) plus the per-tag
//! *prefetch bit* the adaptive prefetcher reads (§3). Like the VSC, the
//! tag store is columnar and starts as zeroed memory, so a cache's size
//! follows its geometry and `new` writes none of it.

use crate::block::BlockAddr;
use crate::meta::MetaColumn;
use crate::rank;
use crate::stats::CacheStats;
use std::ops::Range;

/// Static geometry of a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetAssocConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl SetAssocConfig {
    /// Geometry for a cache of `bytes` capacity with 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly into power-of-two
    /// sets.
    pub fn with_capacity(bytes: usize, ways: usize) -> Self {
        let lines = bytes / cmpsim_fpc::LINE_BYTES;
        assert!(ways > 0 && lines.is_multiple_of(ways), "capacity/ways mismatch");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        SetAssocConfig { sets, ways }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * cmpsim_fpc::LINE_BYTES
    }
}

/// A line evicted by [`SetAssocCache::fill`], handed back to the
/// controller for writebacks / coherence recalls / adaptive-prefetch
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine<M> {
    /// Address of the evicted line.
    pub addr: BlockAddr,
    /// Whether the line was brought in by a prefetch and never referenced.
    pub was_unused_prefetch: bool,
    /// Caller metadata (coherence state etc.).
    pub meta: M,
}

/// Classic LRU set-associative cache.
///
/// # Examples
///
/// ```
/// use cmpsim_cache::{SetAssocCache, SetAssocConfig, BlockAddr};
///
/// let mut c: SetAssocCache<()> = SetAssocCache::new(SetAssocConfig { sets: 2, ways: 2 });
/// let a = BlockAddr(0);
/// assert!(c.lookup(a).is_none());
/// c.fill(a, false, ());
/// assert!(c.lookup(a).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    cfg: SetAssocConfig,
    /// The lines, one column per field, indexed by `set * ways + way`.
    /// The scalar columns start as `vec![0; n]`: the allocator hands
    /// those out as untouched zero pages, so sets a run never reaches
    /// cost no resident memory.
    addr: Vec<u64>,
    /// LRU ranks within each set ([`rank`]). 0 marks an invalid way;
    /// real ranks start at 1, so the first way with the lowest rank in a
    /// set is its first invalid way, or its LRU line when every way is
    /// valid.
    rank: Vec<u8>,
    /// The per-tag prefetch bit (§3).
    prefetch: Vec<bool>,
    meta: MetaColumn<M>,
    /// The highest rank each set has handed out.
    top: Vec<u8>,
    stats: CacheStats,
}

impl<M: Clone + Default> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if a set has more ways than a byte can rank (254).
    pub fn new(cfg: SetAssocConfig) -> Self {
        assert!(cfg.ways <= rank::MAX_WAYS, "{} ways exceed {}", cfg.ways, rank::MAX_WAYS);
        let n = cfg.sets * cfg.ways;
        SetAssocCache {
            cfg,
            addr: vec![0; n],
            rank: vec![0; n],
            prefetch: vec![false; n],
            meta: MetaColumn::new(n),
            top: vec![0; cfg.sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> SetAssocConfig {
        self.cfg
    }

    /// Structural statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. at the end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `addr`'s set and the column indices of its ways.
    #[inline]
    fn set_of(&self, addr: BlockAddr) -> (usize, Range<usize>) {
        let set = addr.set_index(self.cfg.sets);
        let first = set * self.cfg.ways;
        (set, first..first + self.cfg.ways)
    }

    /// The valid way among `ways` holding `addr`.
    #[inline]
    fn find_in(&self, ways: Range<usize>, addr: BlockAddr) -> Option<usize> {
        let first = ways.start;
        self.addr[ways.clone()]
            .iter()
            .zip(&self.rank[ways])
            .position(|(&a, &rank)| a == addr.0 && rank != 0)
            .map(|i| first + i)
    }

    /// The valid way holding `addr`.
    #[inline]
    fn find(&self, addr: BlockAddr) -> Option<usize> {
        self.find_in(self.set_of(addr).1, addr)
    }

    /// Makes way `i`, in `set`, its set's MRU line.
    #[inline]
    fn touch(&mut self, set: usize, i: usize) {
        let first = set * self.cfg.ways;
        rank::touch(&mut self.rank, first..first + self.cfg.ways, &mut self.top[set], i);
    }

    /// Looks up `addr`, updating LRU on hit. Returns the line's metadata.
    ///
    /// The returned tuple is `(meta, was_prefetched_first_touch)`: the
    /// second element is true exactly when this access is the *first*
    /// demand reference to a prefetched line (the prefetch bit is cleared
    /// as a side effect, per §3).
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<(&mut M, bool)> {
        let (set, ways) = self.set_of(addr);
        let i = self.find_in(ways, addr)?;
        self.touch(set, i);
        let first_touch = std::mem::take(&mut self.prefetch[i]);
        self.stats.hits += 1;
        if first_touch {
            self.stats.prefetch_first_touches += 1;
        }
        Some((self.meta.get_mut(i), first_touch))
    }

    /// Peeks at `addr` without updating LRU or the prefetch bit.
    pub fn peek(&self, addr: BlockAddr) -> Option<&M> {
        self.find(addr).map(|i| self.meta.get(i))
    }

    /// Mutable peek without LRU/prefetch-bit side effects.
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut M> {
        self.find(addr).map(|i| self.meta.get_mut(i))
    }

    /// Whether `addr` is present (valid) without any side effects.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Whether the line at `addr` still has its prefetch bit set.
    pub fn prefetch_bit(&self, addr: BlockAddr) -> Option<bool> {
        self.find(addr).map(|i| self.prefetch[i])
    }

    /// Inserts `addr`, evicting the LRU line if the set is full.
    ///
    /// `prefetched` sets the line's prefetch bit (a demand fill clears it).
    /// Filling an already-present line refreshes LRU and metadata instead
    /// of duplicating the tag.
    pub fn fill(&mut self, addr: BlockAddr, prefetched: bool, meta: M) -> Option<EvictedLine<M>> {
        let (set, ways) = self.set_of(addr);
        if let Some(i) = self.find_in(ways.clone(), addr) {
            self.touch(set, i);
            *self.meta.get_mut(i) = meta;
            // A demand fill of a prefetched-but-in-flight line keeps the
            // stronger (demand) classification.
            self.prefetch[i] &= prefetched;
            return None;
        }

        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }

        let mut slot = ways.start;
        for i in ways {
            if self.rank[i] < self.rank[slot] {
                slot = i;
            }
        }
        let victim = if self.rank[slot] == 0 {
            self.meta.set(slot, meta);
            None
        } else {
            let was_unused_prefetch = self.prefetch[slot];
            self.stats.evictions += 1;
            if was_unused_prefetch {
                self.stats.unused_prefetch_evictions += 1;
            }
            Some(EvictedLine {
                addr: BlockAddr(self.addr[slot]),
                was_unused_prefetch,
                meta: std::mem::replace(self.meta.get_mut(slot), meta),
            })
        };
        self.addr[slot] = addr.0;
        self.touch(set, slot);
        self.prefetch[slot] = prefetched;
        victim
    }

    /// Removes `addr` (coherence invalidation / inclusion recall),
    /// returning its metadata.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<M> {
        let i = self.find(addr)?;
        self.rank[i] = 0;
        self.stats.invalidations += 1;
        Some(std::mem::take(self.meta.get_mut(i)))
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> usize {
        self.rank.iter().filter(|&&rank| rank != 0).count()
    }

    /// Calls `f` for every valid line, set by set (for assertions and
    /// debugging).
    pub fn for_each_valid(&self, mut f: impl FnMut(BlockAddr, &M)) {
        for (i, &rank) in self.rank.iter().enumerate() {
            if rank != 0 {
                f(BlockAddr(self.addr[i]), self.meta.get(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        SetAssocCache::new(SetAssocConfig { sets: 2, ways: 2 })
    }

    // Addresses mapping to set 0 of a 2-set cache: even line numbers.
    const A: BlockAddr = BlockAddr(0);
    const B: BlockAddr = BlockAddr(2);
    const C: BlockAddr = BlockAddr(4);

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(A).is_none());
        assert!(c.fill(A, false, 7).is_none());
        let (meta, first) = c.lookup(A).expect("hit");
        assert_eq!(*meta, 7);
        assert!(!first);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        c.fill(A, false, 0);
        c.fill(B, false, 1);
        c.lookup(A); // A is now MRU
        let victim = c.fill(C, false, 2).expect("set overflows");
        assert_eq!(victim.addr, B);
        assert!(c.contains(A) && c.contains(C) && !c.contains(B));
    }

    #[test]
    fn prefetch_bit_lifecycle() {
        let mut c = tiny();
        c.fill(A, true, 0);
        assert_eq!(c.prefetch_bit(A), Some(true));
        let (_, first) = c.lookup(A).unwrap();
        assert!(first, "first touch of prefetched line");
        assert_eq!(c.prefetch_bit(A), Some(false));
        let (_, again) = c.lookup(A).unwrap();
        assert!(!again);
    }

    #[test]
    fn unused_prefetch_detected_at_eviction() {
        let mut c = tiny();
        c.fill(A, true, 0);
        c.fill(B, false, 1);
        c.lookup(B);
        let victim = c.fill(C, false, 2).unwrap();
        assert_eq!(victim.addr, A);
        assert!(victim.was_unused_prefetch);
        assert_eq!(c.stats().unused_prefetch_evictions, 1);
    }

    #[test]
    fn refill_updates_in_place() {
        let mut c = tiny();
        c.fill(A, false, 1);
        assert!(c.fill(A, false, 9).is_none());
        assert_eq!(*c.peek(A).unwrap(), 9);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_frees_slot() {
        let mut c = tiny();
        c.fill(A, false, 1);
        c.fill(B, false, 2);
        assert_eq!(c.invalidate(A), Some(1));
        assert!(!c.contains(A));
        // Refill should reuse the invalid slot without evicting B.
        assert!(c.fill(C, false, 3).is_none());
        assert!(c.contains(B));
    }

    #[test]
    fn capacity_constructor() {
        let cfg = SetAssocConfig::with_capacity(64 * 1024, 4);
        assert_eq!(cfg.sets, 256);
        assert_eq!(cfg.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c = tiny();
        c.fill(A, true, 0);
        assert!(c.peek(A).is_some());
        assert_eq!(c.prefetch_bit(A), Some(true), "peek must not clear the bit");
    }
}
