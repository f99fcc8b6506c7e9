//! The shared L2, abstracting over the two organizations the paper
//! evaluates: the classic 8-way uncompressed cache and the decoupled
//! variable-segment cache (used for compression and/or the adaptive
//! prefetcher's extra tags).

use cmpsim_cache::{BlockAddr, SetAssocCache, SetAssocConfig, VscCache, VscConfig, VscLookup};
use cmpsim_coherence::DirEntry;
use cmpsim_fpc::MAX_SEGMENTS;

/// Outcome of an L2 lookup, unified across organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2LookupInfo {
    /// Line resident with data.
    pub hit: bool,
    /// Hit was to a compressed line (decompression penalty applies).
    pub compressed: bool,
    /// First demand touch of a prefetched line.
    pub prefetch_first_touch: bool,
    /// 0-based LRU depth among data lines (VSC only; 0 otherwise).
    pub lru_depth: usize,
    /// Miss matched a dataless victim tag (VSC only).
    pub victim_tag: bool,
}

/// A line evicted from the L2 (for writebacks and inclusion recalls).
#[derive(Debug, Clone)]
pub struct EvictedL2 {
    /// Evicted line address.
    pub addr: BlockAddr,
    /// Its directory state at eviction.
    pub dir: DirEntry,
    /// Prefetch bit still set (useless prefetch).
    pub was_unused_prefetch: bool,
    /// Segments the line was stored in ([`MAX_SEGMENTS`] in the classic
    /// cache).
    pub segments: u8,
}

/// The shared L2 in either organization.
#[derive(Debug)]
pub enum L2Cache {
    /// 8-way uncompressed baseline (8192 sets × 8 ways for 4 MB).
    Classic(SetAssocCache<DirEntry>),
    /// Decoupled variable-segment cache (16384 sets × 8 tags × 32
    /// segments for 4 MB).
    Vsc(VscCache<DirEntry>),
}

impl L2Cache {
    /// Builds the right organization for `capacity` bytes.
    pub fn new(capacity: usize, use_vsc: bool) -> Self {
        if use_vsc {
            L2Cache::Vsc(VscCache::new(VscConfig::compressed_l2(capacity)))
        } else {
            L2Cache::Classic(SetAssocCache::new(SetAssocConfig::with_capacity(capacity, 8)))
        }
    }

    /// Whether this is the VSC organization (extra tags available).
    pub fn is_vsc(&self) -> bool {
        matches!(self, L2Cache::Vsc(_))
    }

    /// Looks up `addr` with LRU/prefetch-bit side effects on a hit.
    pub fn lookup(&mut self, addr: BlockAddr) -> L2LookupInfo {
        match self {
            L2Cache::Classic(c) => {
                let hit = c.lookup(addr);
                match hit {
                    Some((_, first)) => L2LookupInfo {
                        hit: true,
                        compressed: false,
                        prefetch_first_touch: first,
                        lru_depth: 0,
                        victim_tag: false,
                    },
                    None => L2LookupInfo {
                        hit: false,
                        compressed: false,
                        prefetch_first_touch: false,
                        lru_depth: 0,
                        victim_tag: false,
                    },
                }
            }
            L2Cache::Vsc(c) => match c.lookup(addr) {
                VscLookup::Hit { compressed, lru_depth, prefetch_first_touch } => L2LookupInfo {
                    hit: true,
                    compressed,
                    prefetch_first_touch,
                    lru_depth,
                    victim_tag: false,
                },
                VscLookup::VictimTagHit => L2LookupInfo {
                    hit: false,
                    compressed: false,
                    prefetch_first_touch: false,
                    lru_depth: 0,
                    victim_tag: true,
                },
                VscLookup::Miss => L2LookupInfo {
                    hit: false,
                    compressed: false,
                    prefetch_first_touch: false,
                    lru_depth: 0,
                    victim_tag: false,
                },
            },
        }
    }

    /// Whether `addr` is resident with data (no side effects).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        match self {
            L2Cache::Classic(c) => c.contains(addr),
            L2Cache::Vsc(c) => c.contains(addr),
        }
    }

    /// Mutable directory entry of a resident line.
    pub fn meta_mut(&mut self, addr: BlockAddr) -> Option<&mut DirEntry> {
        match self {
            L2Cache::Classic(c) => c.peek_mut(addr),
            L2Cache::Vsc(c) => c.meta_mut(addr),
        }
    }

    /// Stored segment count of a resident line (8 in the classic cache).
    pub fn segments_of(&self, addr: BlockAddr) -> Option<u8> {
        match self {
            L2Cache::Classic(c) => c.peek(addr).map(|_| MAX_SEGMENTS),
            L2Cache::Vsc(c) => c.segments_of(addr),
        }
    }

    /// Drops a resident line outright, returning its directory entry so
    /// the caller can recall the L1 copies. The fault-recovery path uses
    /// this for detected-corrupt lines: the data is untrustworthy, so it
    /// is discarded (never written back) and refetched from memory.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<DirEntry> {
        match self {
            L2Cache::Classic(c) => c.invalidate(addr),
            L2Cache::Vsc(c) => c.invalidate(addr).map(|(dir, _)| dir),
        }
    }

    /// Inserts `addr` stored in `segments` segments (ignored by the
    /// classic organization), appending the lines it evicts to `evicted`.
    pub fn fill(
        &mut self,
        addr: BlockAddr,
        segments: u8,
        prefetched: bool,
        dir: DirEntry,
        evicted: &mut Vec<EvictedL2>,
    ) {
        match self {
            L2Cache::Classic(c) => evicted.extend(c.fill(addr, prefetched, dir).map(|v| EvictedL2 {
                addr: v.addr,
                dir: v.meta,
                was_unused_prefetch: v.was_unused_prefetch,
                segments: MAX_SEGMENTS,
            })),
            L2Cache::Vsc(c) => {
                evicted.extend(c.fill(addr, segments, prefetched, dir).map(|v| EvictedL2 {
                    addr: v.addr,
                    dir: v.meta,
                    was_unused_prefetch: v.was_unused_prefetch,
                    segments: v.segments,
                }))
            }
        }
    }

    /// Harmful-prefetch rule inputs (§3): a dataless victim tag matches
    /// and some resident line in the set is an untouched prefetch.
    pub fn harmful_prefetch_signal(&self, addr: BlockAddr) -> bool {
        match self {
            L2Cache::Classic(_) => false,
            L2Cache::Vsc(c) => {
                c.victim_tag_matches(addr) && c.any_prefetched_lines_in_set(addr)
            }
        }
    }

    /// Lines currently resident with data, in either organization: a
    /// counter read for the VSC, a scan of the classic cache (used only
    /// by the livelock diagnostic).
    pub fn valid_lines(&self) -> usize {
        match self {
            L2Cache::Classic(c) => c.valid_lines(),
            L2Cache::Vsc(c) => c.valid_lines(),
        }
    }

    /// Effective-capacity ratio sample (1.0 for the classic cache), O(1).
    pub fn capacity_ratio(&self) -> f64 {
        match self {
            L2Cache::Classic(_) => 1.0,
            L2Cache::Vsc(c) => c.effective_capacity_ratio(),
        }
    }

    /// Checks the structural invariants of the whole L2: VSC segment
    /// accounting (when applicable) plus MSI directory consistency of
    /// every resident line. Linear in the cache; the engine samples it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut err = None;
        let mut check_dir = |addr: BlockAddr, dir: &DirEntry| {
            if err.is_none() {
                if let Err(e) = dir.check() {
                    err = Some(format!("directory entry for block 0x{:x}: {e}", addr.0));
                }
            }
        };
        match self {
            L2Cache::Classic(c) => c.for_each_valid(|addr, dir| check_dir(addr, dir)),
            L2Cache::Vsc(c) => {
                c.check_invariants()?;
                c.for_each_valid(|addr, dir, _| check_dir(addr, dir));
            }
        }
        err.map_or(Ok(()), Err)
    }

    /// Resets structural statistics.
    pub fn reset_stats(&mut self) {
        match self {
            L2Cache::Classic(c) => c.reset_stats(),
            L2Cache::Vsc(c) => c.reset_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_is_eight_way_four_mb() {
        let l2 = L2Cache::new(4 * 1024 * 1024, false);
        assert!(!l2.is_vsc());
        match l2 {
            L2Cache::Classic(c) => {
                assert_eq!(c.config().sets, 8192);
                assert_eq!(c.config().ways, 8);
            }
            L2Cache::Vsc(_) => panic!("expected classic"),
        }
    }

    #[test]
    fn vsc_geometry() {
        let l2 = L2Cache::new(4 * 1024 * 1024, true);
        assert!(l2.is_vsc());
        match l2 {
            L2Cache::Vsc(c) => {
                assert_eq!(c.config().sets, 16384);
                assert_eq!(c.config().tags_per_set, 8);
            }
            L2Cache::Classic(_) => panic!("expected vsc"),
        }
    }

    #[test]
    fn unified_fill_and_lookup() {
        for use_vsc in [false, true] {
            let mut l2 = L2Cache::new(64 * 1024, use_vsc);
            let a = BlockAddr(42);
            assert!(!l2.lookup(a).hit);
            l2.fill(a, 3, true, DirEntry::new(), &mut Vec::new());
            let info = l2.lookup(a);
            assert!(info.hit);
            assert!(info.prefetch_first_touch);
            assert_eq!(info.compressed, use_vsc, "classic never reports compressed");
            assert_eq!(l2.segments_of(a), Some(if use_vsc { 3 } else { 8 }));
        }
    }

    #[test]
    fn invalidate_drops_line_and_returns_directory() {
        for use_vsc in [false, true] {
            let mut l2 = L2Cache::new(64 * 1024, use_vsc);
            let a = BlockAddr(7);
            assert!(l2.invalidate(a).is_none(), "nothing resident yet");
            l2.fill(a, 2, false, DirEntry::new(), &mut Vec::new());
            assert!(l2.contains(a));
            let dir = l2.invalidate(a);
            assert!(dir.is_some(), "vsc={use_vsc}");
            assert!(!l2.contains(a), "line gone after invalidate (vsc={use_vsc})");
            assert!(l2.invalidate(a).is_none(), "second invalidate is a no-op");
        }
    }

    #[test]
    fn valid_lines_counts_both_organizations() {
        for use_vsc in [false, true] {
            let mut l2 = L2Cache::new(64 * 1024, use_vsc);
            assert_eq!(l2.valid_lines(), 0);
            for i in 0..5u64 {
                l2.fill(BlockAddr(i), 4, false, DirEntry::new(), &mut Vec::new());
            }
            assert_eq!(l2.valid_lines(), 5, "vsc={use_vsc}");
        }
    }

    #[test]
    fn victim_tags_only_on_vsc() {
        let mut l2 = L2Cache::new(64 * 1024, true);
        // Fill one set beyond capacity to create a victim tag. With 64 KB
        // VSC: 256 sets; same-set lines are 256 apart.
        for i in 0..5u64 {
            l2.fill(BlockAddr(i * 256), 8, false, DirEntry::new(), &mut Vec::new());
        }
        assert!(l2.lookup(BlockAddr(0)).victim_tag);
    }
}
