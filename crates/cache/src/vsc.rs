//! The decoupled variable-segment cache (VSC).
//!
//! This is the compressed L2 organization of the paper (§2), taken from
//! Alameldeen & Wood's ISCA 2004 design: each set has **8 address tags**
//! but data space for only **4 uncompressed lines**, divided into 8-byte
//! segments (32 per set — the paper's "64" is inconsistent with "data
//! space for 4 uncompressed lines"; see DESIGN.md). A compressed line
//! occupies 1–7 segments, an uncompressed one 8, so a set holds between 4
//! and 8 lines.
//!
//! Tags whose data has been evicted remain allocated as **dataless victim
//! tags** holding the replaced block's address. These extra tags are what
//! the paper's adaptive prefetcher uses to detect harmful prefetches (§3)
//! and what the adaptive compression policy uses to detect avoidable
//! misses.

use crate::block::BlockAddr;
use crate::meta::MetaColumn;
use crate::rank;
use crate::stats::CacheStats;
use cmpsim_fpc::{LINE_BYTES, MAX_SEGMENTS};
use std::ops::Range;

/// Static geometry of a [`VscCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VscConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Address tags per set (8 in the paper).
    pub tags_per_set: usize,
    /// Data segments per set (32 in the paper: 4 lines × 8 segments).
    pub segments_per_set: u32,
    /// Segments an *uncompressed* line occupies (8 in the shared
    /// 64-byte/8-byte-segment frame). Fill sizes and the invariant
    /// checker validate against this.
    pub line_segments: u8,
}

impl VscConfig {
    /// The paper's compressed-L2 geometry for a given data capacity:
    /// 8 tags per set, data space for 4 uncompressed lines per set, the
    /// shared 8-segment line frame.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` does not yield a power-of-two set count.
    pub fn compressed_l2(capacity_bytes: usize) -> Self {
        let lines = capacity_bytes / LINE_BYTES;
        let data_lines_per_set = 4;
        let sets = lines / data_lines_per_set;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two");
        VscConfig {
            sets,
            tags_per_set: 8,
            segments_per_set: (data_lines_per_set * usize::from(MAX_SEGMENTS)) as u32,
            line_segments: MAX_SEGMENTS,
        }
    }

    /// How many uncompressed lines fit in one set's data space.
    pub fn data_lines_per_set(&self) -> usize {
        (self.segments_per_set / u32::from(self.line_segments)) as usize
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.segments_per_set as usize * cmpsim_fpc::SEGMENT_BYTES
    }
}

/// Tag flag: the address is meaningful (line present *or* victim tag).
const ALLOCATED: u8 = 1;
/// Tag flag: line data resident (segments valid, metadata live).
const HAS_DATA: u8 = 2;
/// Tag flag: prefetched and not yet touched by a demand access.
const PREFETCH: u8 = 4;

/// Outcome of [`VscCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VscLookup {
    /// Line present with data.
    Hit {
        /// Stored compressed (fewer than 8 segments)?
        compressed: bool,
        /// 0-based LRU-stack depth among the set's *data-holding* lines;
        /// depths ≥ `data_lines_per_set` are hits that exist only because
        /// compression packed extra lines in.
        lru_depth: usize,
        /// First demand touch of a prefetched line (prefetch bit was set
        /// and has now been cleared).
        prefetch_first_touch: bool,
    },
    /// A dataless victim tag matched: the line was here until recently.
    /// Structurally a miss, but a strong signal for the adaptive policies.
    VictimTagHit,
    /// No tag matched.
    Miss,
}

impl VscLookup {
    /// Whether data was found.
    pub fn is_hit(&self) -> bool {
        matches!(self, VscLookup::Hit { .. })
    }
}

/// A line evicted from the data area by [`VscCache::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VscEvicted<M> {
    /// Address of the evicted line.
    pub addr: BlockAddr,
    /// Segments the line occupied.
    pub segments: u8,
    /// Prefetch bit still set at eviction (useless prefetch, §3).
    pub was_unused_prefetch: bool,
    /// Caller metadata (directory entry for the L2).
    pub meta: M,
}

/// The decoupled variable-segment cache structure.
///
/// # Examples
///
/// ```
/// use cmpsim_cache::{VscCache, VscConfig, BlockAddr, VscLookup};
///
/// let mut c: VscCache<()> = VscCache::new(VscConfig {
///     sets: 2, tags_per_set: 8, segments_per_set: 32, line_segments: 8,
/// });
/// let a = BlockAddr(0);
/// assert_eq!(c.lookup(a), VscLookup::Miss);
/// assert_eq!(c.fill(a, 2, false, ()).len(), 0, "nothing evicted");
/// assert!(c.lookup(a).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct VscCache<M> {
    cfg: VscConfig,
    /// The tag store, one column per field, indexed by
    /// `set * tags_per_set + tag`. The scalar columns start as
    /// `vec![0; n]`: the allocator hands those out as untouched zero
    /// pages, so sets a run never reaches cost no resident memory.
    addr: Vec<u64>,
    /// LRU ranks within each set ([`rank`]); 0 marks a tag never
    /// allocated. Victim tags keep the rank of their last touch.
    rank: Vec<u8>,
    segments: Vec<u8>,
    /// [`ALLOCATED`], [`HAS_DATA`] and [`PREFETCH`] bits.
    flags: Vec<u8>,
    /// The metadata column, whose pages the first fill into each
    /// allocates.
    meta: MetaColumn<M>,
    /// Lines resident with data, kept up to date by every fill,
    /// eviction and invalidation so occupancy queries are O(1).
    resident: u64,
    /// Data segments those lines occupy.
    used_total: u64,
    /// The evictions of the latest [`fill`](Self::fill), drained by its
    /// caller; reused so a fill allocates nothing.
    evicted: Vec<VscEvicted<M>>,
    /// The highest rank each set has handed out.
    top: Vec<u8>,
    stats: CacheStats,
}

impl<M: Clone + Default> VscCache<M> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the data space cannot hold even one uncompressed line,
    /// or if a set has more tags than a byte can rank (254).
    pub fn new(cfg: VscConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.tags_per_set <= rank::MAX_WAYS,
            "{} tags per set exceed {}",
            cfg.tags_per_set,
            rank::MAX_WAYS
        );
        assert!(cfg.line_segments > 0, "a line needs at least one segment");
        assert!(
            cfg.segments_per_set >= u32::from(cfg.line_segments),
            "a set must hold at least one uncompressed line"
        );
        let n = cfg.sets * cfg.tags_per_set;
        VscCache {
            cfg,
            addr: vec![0; n],
            rank: vec![0; n],
            segments: vec![0; n],
            flags: vec![0; n],
            meta: MetaColumn::new(n),
            resident: 0,
            used_total: 0,
            evicted: Vec::new(),
            top: vec![0; cfg.sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> VscConfig {
        self.cfg
    }

    /// Structural statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `addr`'s set and the column indices of its tags.
    #[inline]
    fn set_of(&self, addr: BlockAddr) -> (usize, Range<usize>) {
        let set = addr.set_index(self.cfg.sets);
        let first = set * self.cfg.tags_per_set;
        (set, first..first + self.cfg.tags_per_set)
    }

    /// Column indices of `addr`'s set.
    #[inline]
    fn tags_of(&self, addr: BlockAddr) -> Range<usize> {
        self.set_of(addr).1
    }

    /// Makes tag `i`, in `set`, its set's MRU tag.
    #[inline]
    fn touch(&mut self, set: usize, i: usize) {
        let first = set * self.cfg.tags_per_set;
        let tags = first..first + self.cfg.tags_per_set;
        rank::touch(&mut self.rank, tags, &mut self.top[set], i);
    }

    /// The first tag in `tags` holding `addr` with every bit of `flag` set.
    #[inline]
    fn find(&self, tags: Range<usize>, addr: BlockAddr, flag: u8) -> Option<usize> {
        let first = tags.start;
        self.addr[tags.clone()]
            .iter()
            .zip(&self.flags[tags])
            .position(|(&a, &f)| f & flag == flag && a == addr.0)
            .map(|i| first + i)
    }

    /// The first tag in `tags` with the lowest LRU rank among those
    /// whose flags satisfy `eligible`.
    fn lru_tag(&self, tags: Range<usize>, eligible: impl Fn(usize, u8) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for i in tags {
            if eligible(i, self.flags[i]) && best.is_none_or(|b| self.rank[i] < self.rank[b]) {
                best = Some(i);
            }
        }
        best
    }

    /// Segments the data-holding tags in `tags` occupy.
    fn used_segments(&self, tags: Range<usize>) -> u32 {
        self.flags[tags.clone()]
            .iter()
            .zip(&self.segments[tags])
            .filter(|(&f, _)| f & HAS_DATA != 0)
            .map(|(_, &s)| u32::from(s))
            .sum()
    }

    /// Drops tag `i`'s data, leaving a victim tag, and queues the
    /// eviction for the caller.
    fn evict(&mut self, i: usize) {
        let segments = self.segments[i];
        let was_unused_prefetch = self.flags[i] & PREFETCH != 0;
        let meta = std::mem::take(self.meta.get_mut(i));
        self.evicted.push(VscEvicted {
            addr: BlockAddr(self.addr[i]),
            segments,
            was_unused_prefetch,
            meta,
        });
        self.flags[i] = ALLOCATED;
        self.segments[i] = 0;
        self.resident -= 1;
        self.used_total -= u64::from(segments);
        self.stats.evictions += 1;
        if was_unused_prefetch {
            self.stats.unused_prefetch_evictions += 1;
        }
    }

    /// Looks up `addr`, updating LRU and clearing the prefetch bit on a
    /// data hit.
    pub fn lookup(&mut self, addr: BlockAddr) -> VscLookup {
        let (set, tags) = self.set_of(addr);
        let Some(i) = self.find(tags.clone(), addr, ALLOCATED) else {
            return VscLookup::Miss;
        };
        if self.flags[i] & HAS_DATA == 0 {
            self.stats.victim_tag_hits += 1;
            return VscLookup::VictimTagHit;
        }
        let my_rank = self.rank[i];
        let lru_depth = self.flags[tags.clone()]
            .iter()
            .zip(&self.rank[tags])
            .filter(|(&f, &rank)| f & HAS_DATA != 0 && rank > my_rank)
            .count();
        self.touch(set, i);
        let prefetch_first_touch = self.flags[i] & PREFETCH != 0;
        self.flags[i] &= !PREFETCH;
        let compressed = self.segments[i] < self.cfg.line_segments;
        self.stats.hits += 1;
        if prefetch_first_touch {
            self.stats.prefetch_first_touches += 1;
        }
        VscLookup::Hit { compressed, lru_depth, prefetch_first_touch }
    }

    /// Read-only probe without LRU/prefetch side effects.
    pub fn peek(&self, addr: BlockAddr) -> Option<&M> {
        self.find(self.tags_of(addr), addr, HAS_DATA).map(|i| self.meta.get(i))
    }

    /// Mutable access to a resident line's metadata (no side effects).
    pub fn meta_mut(&mut self, addr: BlockAddr) -> Option<&mut M> {
        self.find(self.tags_of(addr), addr, HAS_DATA).map(|i| self.meta.get_mut(i))
    }

    /// Whether the line is resident with data.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// Stored size in segments of a resident line.
    pub fn segments_of(&self, addr: BlockAddr) -> Option<u8> {
        self.find(self.tags_of(addr), addr, HAS_DATA).map(|i| self.segments[i])
    }

    /// Whether any *data-holding* line in `addr`'s set has its prefetch
    /// bit set (input to the harmful-prefetch rule, §3).
    pub fn any_prefetched_lines_in_set(&self, addr: BlockAddr) -> bool {
        self.flags[self.tags_of(addr)]
            .iter()
            .any(|&f| f & (HAS_DATA | PREFETCH) == HAS_DATA | PREFETCH)
    }

    /// Whether a dataless victim tag matches `addr` (the other half of the
    /// harmful-prefetch rule).
    pub fn victim_tag_matches(&self, addr: BlockAddr) -> bool {
        self.tags_of(addr)
            .any(|i| self.flags[i] & (ALLOCATED | HAS_DATA) == ALLOCATED && self.addr[i] == addr.0)
    }

    /// Inserts (or resizes) `addr` with `segments` of data, evicting LRU
    /// data lines as needed. Evicted lines' tags stay allocated as victim
    /// tags; the evictions are drained from the returned iterator (for
    /// writebacks/recalls), in the order they happened.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is 0 or exceeds the configured line size.
    pub fn fill(
        &mut self,
        addr: BlockAddr,
        segments: u8,
        prefetched: bool,
        meta: M,
    ) -> std::vec::Drain<'_, VscEvicted<M>> {
        assert!(
            (1..=self.cfg.line_segments).contains(&segments),
            "fill size {segments} out of range 1..={}",
            self.cfg.line_segments
        );
        let (set, tags) = self.set_of(addr);
        self.evicted.clear();

        // Locate the tag for `addr`, and the segments already charged to
        // it (resize case).
        let existing = self.find(tags.clone(), addr, ALLOCATED);
        let had_data = existing.is_some_and(|i| self.flags[i] & HAS_DATA != 0);
        let my_current = match existing {
            Some(i) if had_data => u32::from(self.segments[i]),
            _ => 0,
        };

        // Evict LRU data lines until the new size fits.
        let mut used = self.used_segments(tags.clone());
        while used - my_current + u32::from(segments) > self.cfg.segments_per_set {
            let victim = self
                .lru_tag(tags.clone(), |i, f| f & HAS_DATA != 0 && Some(i) != existing)
                .expect("over-full set must contain an evictable line");
            used -= u32::from(self.segments[victim]);
            self.evict(victim);
        }

        // Choose the tag slot: an unallocated tag, then the LRU dataless
        // tag, then (all tags holding data) the LRU data line, evicted.
        let slot = match existing {
            Some(i) => i,
            None => {
                let unallocated = tags.clone().find(|&i| self.flags[i] & ALLOCATED == 0);
                match unallocated.or_else(|| self.lru_tag(tags.clone(), |_, f| f & HAS_DATA == 0)) {
                    Some(i) => i,
                    None => {
                        let i = self.lru_tag(tags.clone(), |_, _| true).expect("set has tags");
                        self.evict(i);
                        i
                    }
                }
            }
        };

        let prefetch = if had_data {
            // Resize/update keeps the stronger (demand) classification.
            self.used_total -= u64::from(my_current);
            prefetched && self.flags[slot] & PREFETCH != 0
        } else {
            self.resident += 1;
            self.stats.fills += 1;
            if prefetched {
                self.stats.prefetch_fills += 1;
            }
            prefetched
        };
        self.used_total += u64::from(segments);
        self.addr[slot] = addr.0;
        self.flags[slot] = ALLOCATED | HAS_DATA | if prefetch { PREFETCH } else { 0 };
        self.segments[slot] = segments;
        self.touch(set, slot);
        self.meta.set(slot, meta);

        debug_assert!(self.used_segments(tags) <= self.cfg.segments_per_set);
        self.evicted.drain(..)
    }

    /// Removes a resident line (inclusion recall / invalidation), keeping
    /// its address as a victim tag. Returns `(meta, segments)`.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<(M, u8)> {
        let i = self.find(self.tags_of(addr), addr, HAS_DATA)?;
        let segs = self.segments[i];
        self.flags[i] = ALLOCATED;
        self.segments[i] = 0;
        self.resident -= 1;
        self.used_total -= u64::from(segs);
        self.stats.invalidations += 1;
        Some((std::mem::take(self.meta.get_mut(i)), segs))
    }

    /// Number of lines resident with data.
    pub fn valid_lines(&self) -> usize {
        self.resident as usize
    }

    /// Total data segments in use.
    pub fn used_segments_total(&self) -> u64 {
        self.used_total
    }

    /// Effective-capacity ratio: how much line data is resident per byte
    /// of data storage actually used, capped at the 2× the tag array
    /// allows. On a warm, full cache this equals the paper's Table 3
    /// "compression ratio" (average effective cache size over 4 MB); on a
    /// partially-filled cache it still reports the achieved packing
    /// density rather than an artifact of emptiness. O(1): both integers
    /// are running counters.
    pub fn effective_capacity_ratio(&self) -> f64 {
        let used = self.used_total;
        if used == 0 {
            return 1.0;
        }
        let resident_segments = self.resident * u64::from(self.cfg.line_segments);
        let tag_cap = self.cfg.tags_per_set as f64 / self.cfg.data_lines_per_set() as f64;
        (resident_segments as f64 / used as f64).min(tag_cap)
    }

    /// Checks the structural invariants of the segment accounting, for
    /// the simulator's opt-in invariant checker (`CMPSIM_CHECK=1`):
    ///
    /// - each set's resident lines occupy at most `segments_per_set`
    ///   segments,
    /// - every data-holding tag is allocated and sized within the
    ///   configured codec geometry (`1..=line_segments` segments),
    /// - every dataless tag (victim tag or free) charges 0 segments and
    ///   carries no prefetch bit,
    /// - the running occupancy counters equal a full recount of the tags.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first offending set, or the
    /// counters that disagree with the tags.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut resident, mut used_total) = (0u64, 0u64);
        for si in 0..self.cfg.sets {
            let tags = si * self.cfg.tags_per_set..(si + 1) * self.cfg.tags_per_set;
            let used = self.used_segments(tags.clone());
            if used > self.cfg.segments_per_set {
                return Err(format!(
                    "set {si}: {used} segments in use exceed capacity {}",
                    self.cfg.segments_per_set
                ));
            }
            used_total += u64::from(used);
            for (ti, i) in tags.enumerate() {
                let (f, segments) = (self.flags[i], self.segments[i]);
                if f & HAS_DATA != 0 {
                    resident += 1;
                    if f & ALLOCATED == 0 {
                        return Err(format!(
                            "set {si} tag {ti}: data resident on an unallocated tag"
                        ));
                    }
                    if !(1..=self.cfg.line_segments).contains(&segments) {
                        return Err(format!(
                            "set {si} tag {ti} (addr {:#x}): stored size {segments} segments \
                             out of the configured codec geometry 1..={}",
                            self.addr[i], self.cfg.line_segments
                        ));
                    }
                } else {
                    if segments != 0 {
                        return Err(format!(
                            "set {si} tag {ti}: dataless tag charges {segments} segments"
                        ));
                    }
                    if f & PREFETCH != 0 {
                        return Err(format!(
                            "set {si} tag {ti}: dataless tag carries a prefetch bit"
                        ));
                    }
                }
            }
        }
        if (resident, used_total) != (self.resident, self.used_total) {
            return Err(format!(
                "occupancy counters say {} resident lines in {} segments, \
                 but the tags hold {resident} lines in {used_total} segments",
                self.resident, self.used_total
            ));
        }
        Ok(())
    }

    /// Calls `f` for every data-resident line, set by set.
    pub fn for_each_valid(&self, mut f: impl FnMut(BlockAddr, &M, u8)) {
        for i in 0..self.flags.len() {
            if self.flags[i] & HAS_DATA != 0 {
                f(BlockAddr(self.addr[i]), self.meta.get(i), self.segments[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VscCache<u32> {
        // 1 set, 8 tags, 32 segments (4 uncompressed lines).
        VscCache::new(VscConfig {
            sets: 1,
            tags_per_set: 8,
            segments_per_set: 32,
            line_segments: 8,
        })
    }

    #[test]
    fn eight_compressed_lines_fit() {
        let mut c = tiny();
        for i in 0..8 {
            let ev: Vec<_> = c.fill(BlockAddr(i), 4, false, i as u32).collect();
            assert!(ev.is_empty(), "8 half-size lines fit without eviction");
        }
        assert_eq!(c.valid_lines(), 8);
        assert_eq!(c.used_segments_total(), 32);
    }

    #[test]
    fn only_four_uncompressed_lines_fit() {
        let mut c = tiny();
        for i in 0..4 {
            assert!(c.fill(BlockAddr(i), 8, false, 0).collect::<Vec<_>>().is_empty());
        }
        let ev: Vec<_> = c.fill(BlockAddr(4), 8, false, 0).collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, BlockAddr(0), "LRU line evicted");
        assert_eq!(c.valid_lines(), 4);
    }

    #[test]
    fn victim_tags_survive_eviction() {
        let mut c = tiny();
        for i in 0..5 {
            c.fill(BlockAddr(i), 8, false, 0);
        }
        // Block 0 was evicted; its tag should match as a victim tag.
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.victim_tag_matches(BlockAddr(0)));
        assert_eq!(c.lookup(BlockAddr(0)), VscLookup::VictimTagHit);
        assert_eq!(c.stats().victim_tag_hits, 1);
    }

    #[test]
    fn lru_depth_reports_compression_benefit() {
        let mut c = tiny();
        for i in 0..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        // Touch lines 1..8, leaving 0 deepest.
        for i in 1..8 {
            assert!(c.lookup(BlockAddr(i)).is_hit());
        }
        match c.lookup(BlockAddr(0)) {
            VscLookup::Hit { lru_depth, compressed, .. } => {
                assert_eq!(lru_depth, 7, "line 0 is at the bottom of the stack");
                assert!(compressed);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn resize_grow_evicts_as_needed() {
        let mut c = tiny();
        for i in 0..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        // Grow line 7 from 4 to 8 segments: 32 - 4 + 8 = 36 > 32 → evict.
        let ev: Vec<_> = c.fill(BlockAddr(7), 8, false, 0).collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].addr, BlockAddr(0));
        assert_eq!(c.segments_of(BlockAddr(7)), Some(8));
        assert!(c.used_segments_total() <= 32);
    }

    #[test]
    fn resize_shrink_frees_segments() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 8, false, 0);
        c.fill(BlockAddr(0), 2, false, 0);
        assert_eq!(c.segments_of(BlockAddr(0)), Some(2));
        assert_eq!(c.used_segments_total(), 2);
        assert_eq!(c.valid_lines(), 1, "resize must not duplicate the tag");
    }

    #[test]
    fn tag_pressure_evicts_even_with_free_segments() {
        let mut c = tiny();
        // 8 tiny lines occupy all 8 tags but only 8 of 32 segments.
        for i in 0..8 {
            c.fill(BlockAddr(i), 1, false, 0);
        }
        let ev: Vec<_> = c.fill(BlockAddr(8), 1, false, 0).collect();
        assert_eq!(ev.len(), 1, "9th line needs a tag: LRU data line evicted");
        assert_eq!(ev[0].addr, BlockAddr(0));
        assert_eq!(c.valid_lines(), 8);
    }

    #[test]
    fn prefetch_bit_and_useless_detection() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 8, true, 0);
        for i in 1..4 {
            c.fill(BlockAddr(i), 8, false, 0);
        }
        let ev: Vec<_> = c.fill(BlockAddr(4), 8, false, 0).collect();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].was_unused_prefetch, "untouched prefetched line evicted");
    }

    #[test]
    fn harmful_prefetch_inputs() {
        let mut c = tiny();
        for i in 0..4 {
            c.fill(BlockAddr(i), 8, false, 0);
        }
        // A prefetch displaces line 0.
        c.fill(BlockAddr(9), 8, true, 0);
        assert!(c.victim_tag_matches(BlockAddr(0)));
        assert!(c.any_prefetched_lines_in_set(BlockAddr(0)));
    }

    #[test]
    fn invalidate_keeps_victim_tag() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 4, false, 42);
        let (meta, segs) = c.invalidate(BlockAddr(0)).unwrap();
        assert_eq!((meta, segs), (42, 4));
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.victim_tag_matches(BlockAddr(0)));
        assert_eq!(c.used_segments_total(), 0);
    }

    #[test]
    fn effective_capacity_ratio() {
        let mut c = tiny();
        for i in 0..8 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        // 8 lines × 64 B resident in 32 segments × 8 B = 256 B physical.
        assert!((c.effective_capacity_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn invariants_hold_under_stress() {
        // Adversarial mix of fills, resizes and invalidations; the
        // accounting invariants must hold after every operation.
        let mut c = tiny();
        assert_eq!(c.check_invariants(), Ok(()));
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..2000u64 {
            // xorshift64* — deterministic operation mix.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let addr = BlockAddr(x % 24);
            match x % 5 {
                0..=2 => {
                    let segs = (x / 7 % 8 + 1) as u8;
                    c.fill(addr, segs, x.is_multiple_of(2), step as u32);
                }
                3 => {
                    c.invalidate(addr);
                }
                _ => {
                    c.lookup(addr);
                }
            }
            assert_eq!(c.check_invariants(), Ok(()), "violated at step {step}");
        }
    }

    #[test]
    fn drifted_counters_are_an_invariant_violation() {
        let mut c = tiny();
        c.fill(BlockAddr(0), 4, false, 0);
        c.fill(BlockAddr(1), 6, false, 0);
        assert_eq!(c.check_invariants(), Ok(()));
        c.used_total += 1;
        let err = c.check_invariants().expect_err("segment counter drift");
        assert!(err.contains("occupancy counters say 2 resident lines in 11 segments"), "{err}");
        c.used_total -= 1;
        c.resident -= 1;
        assert!(c.check_invariants().is_err(), "line counter drift");
    }

    #[test]
    fn paper_geometry() {
        let cfg = VscConfig::compressed_l2(4 * 1024 * 1024);
        assert_eq!(cfg.sets, 16384);
        assert_eq!(cfg.tags_per_set, 8);
        assert_eq!(cfg.segments_per_set, 32);
        assert_eq!(cfg.line_segments, 8);
        assert_eq!(cfg.data_lines_per_set(), 4);
        assert_eq!(cfg.capacity_bytes(), 4 * 1024 * 1024);
    }

    #[test]
    fn codec_geometry_bounds_fills_and_invariants() {
        // A narrower codec frame (hypothetical 4-segment lines): the fill
        // assert and the invariant checker both track the configured
        // geometry, not FPC's constant.
        let mut c: VscCache<u32> = VscCache::new(VscConfig {
            sets: 1,
            tags_per_set: 8,
            segments_per_set: 16,
            line_segments: 4,
        });
        assert_eq!(c.config().data_lines_per_set(), 4);
        for i in 0..4 {
            c.fill(BlockAddr(i), 4, false, 0);
        }
        assert_eq!(c.check_invariants(), Ok(()));
        match c.lookup(BlockAddr(0)) {
            VscLookup::Hit { compressed, .. } => {
                assert!(!compressed, "4 segments is uncompressed in this frame");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.fill(BlockAddr(9), 5, false, 0);
        }));
        assert!(r.is_err(), "fill beyond the codec frame must panic");
    }
}
