//! The 8-entry stream table that issues prefetches for confirmed streams.

use cmpsim_cache::BlockAddr;

/// Stream table geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTableConfig {
    /// Number of concurrently tracked streams (8 in Table 1).
    pub entries: usize,
}

/// The prefetch addresses of one burst: `len` lines from `first`, each
/// `stride` lines past the last. A burst is an arithmetic progression,
/// so it travels by value instead of being collected into a `Vec`.
///
/// # Examples
///
/// ```
/// use cmpsim_cache::BlockAddr;
/// use cmpsim_prefetch::{Burst, StreamTable, StreamTableConfig};
///
/// let mut streams = StreamTable::new(StreamTableConfig { entries: 8 });
/// let burst = streams.allocate(BlockAddr(10), -2, 3);
/// assert_eq!(burst.len(), 3);
/// assert_eq!(burst.collect::<Vec<_>>(), [8, 6, 4].map(BlockAddr));
/// assert!(Burst::default().is_empty());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Burst {
    next: BlockAddr,
    stride: i64,
    left: u8,
}

impl Burst {
    /// `len` addresses: `first`, `first + stride`, … (wrapping).
    pub(crate) fn new(first: BlockAddr, stride: i64, len: u8) -> Self {
        Burst { next: first, stride, left: len }
    }

    /// Whether no addresses remain.
    pub fn is_empty(&self) -> bool {
        self.left == 0
    }
}

impl Iterator for Burst {
    type Item = BlockAddr;

    #[inline]
    fn next(&mut self) -> Option<BlockAddr> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let addr = self.next;
        self.next = addr.offset(self.stride);
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::from(self.left), Some(usize::from(self.left)))
    }
}

impl ExactSizeIterator for Burst {}

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Next line the demand stream is expected to reference.
    expected: BlockAddr,
    /// Stride in lines.
    stride: i64,
    /// Next line to prefetch when the stream advances.
    next_prefetch: BlockAddr,
    lru: u64,
}

/// Active prefetch streams with LRU replacement.
///
/// On allocation a stream launches its startup burst; afterwards each
/// demand access that matches the stream's expected next address issues
/// one more prefetch, keeping the prefetch front a constant distance
/// ahead (the Power4 "ramp" behaviour).
#[derive(Debug, Clone)]
pub struct StreamTable {
    cfg: StreamTableConfig,
    entries: Vec<StreamEntry>,
    clock: u64,
}

impl StreamTable {
    /// An empty stream table.
    pub fn new(cfg: StreamTableConfig) -> Self {
        StreamTable { cfg, entries: Vec::with_capacity(cfg.entries), clock: 0 }
    }

    /// Number of active streams.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no streams are active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates a stream confirmed at `addr` with `stride`, returning the
    /// startup burst of `degree` prefetch addresses
    /// (`addr+stride ..= addr+degree*stride`).
    pub fn allocate(&mut self, addr: BlockAddr, stride: i64, degree: u8) -> Burst {
        debug_assert!(stride != 0, "zero-stride streams are filtered earlier");
        self.clock += 1;
        let burst = Burst::new(addr.offset(stride), stride, degree);
        let entry = StreamEntry {
            expected: addr.offset(stride),
            stride,
            next_prefetch: addr.offset((i64::from(degree) + 1) * stride),
            lru: self.clock,
        };
        if self.entries.len() < self.cfg.entries {
            self.entries.push(entry);
        } else if let Some(victim) = self.entries.iter_mut().min_by_key(|e| e.lru) {
            *victim = entry;
        }
        burst
    }

    /// Checks whether `addr` is the next expected reference of any stream;
    /// if so the stream advances and returns the next line to prefetch.
    pub fn advance(&mut self, addr: BlockAddr) -> Option<BlockAddr> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.entries.iter_mut().find(|e| e.expected == addr)?;
        e.expected = addr.offset(e.stride);
        e.lru = clock;
        let pf = e.next_prefetch;
        e.next_prefetch = pf.offset(e.stride);
        Some(pf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: usize) -> StreamTable {
        StreamTable::new(StreamTableConfig { entries })
    }

    #[test]
    fn startup_burst_contents() {
        let mut t = table(8);
        let burst = t.allocate(BlockAddr(100), 2, 3);
        assert_eq!(burst.collect::<Vec<_>>(), [102, 104, 106].map(BlockAddr).to_vec());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn zero_degree_allocates_without_prefetching() {
        let mut t = table(8);
        let burst = t.allocate(BlockAddr(100), 1, 0);
        assert!(burst.is_empty());
        // Stream still tracks; next_prefetch starts right after the
        // (empty) burst, i.e. at line 101 itself.
        assert_eq!(t.advance(BlockAddr(101)), Some(BlockAddr(101)));
    }

    #[test]
    fn advance_keeps_constant_distance() {
        let mut t = table(8);
        t.allocate(BlockAddr(0), 1, 6); // prefetched 1..=6, next_prefetch=7
        assert_eq!(t.advance(BlockAddr(1)), Some(BlockAddr(7)));
        assert_eq!(t.advance(BlockAddr(2)), Some(BlockAddr(8)));
        assert_eq!(t.advance(BlockAddr(3)), Some(BlockAddr(9)));
        // Skipping breaks the chain: line 5 is not expected (4 is).
        assert_eq!(t.advance(BlockAddr(5)), None);
    }

    #[test]
    fn negative_stride_streams() {
        let mut t = table(8);
        let burst = t.allocate(BlockAddr(100), -1, 2);
        assert_eq!(burst.collect::<Vec<_>>(), [99, 98].map(BlockAddr).to_vec());
        assert_eq!(t.advance(BlockAddr(99)), Some(BlockAddr(97)));
    }

    #[test]
    fn lru_eviction_of_streams() {
        let mut t = table(2);
        t.allocate(BlockAddr(0), 1, 1);
        t.allocate(BlockAddr(1000), 1, 1);
        t.advance(BlockAddr(1)); // stream 0 is now MRU
        t.allocate(BlockAddr(2000), 1, 1); // evicts stream 1000
        assert_eq!(t.advance(BlockAddr(1001)), None, "evicted stream dead");
        assert!(t.advance(BlockAddr(2)).is_some(), "stream 0 alive");
        assert!(t.advance(BlockAddr(2001)).is_some(), "new stream alive");
    }

    #[test]
    fn independent_streams_advance_independently() {
        let mut t = table(8);
        t.allocate(BlockAddr(0), 1, 2);
        t.allocate(BlockAddr(1000), 4, 2);
        assert_eq!(t.advance(BlockAddr(1)), Some(BlockAddr(3)));
        assert_eq!(t.advance(BlockAddr(1004)), Some(BlockAddr(1012)));
    }
}
