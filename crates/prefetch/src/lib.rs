//! Hardware stride-based prefetching, modeled on the IBM Power4
//! implementation the paper uses (§2, Table 1), plus the paper's own
//! contribution: the **adaptive prefetching throttle** (§3).
//!
//! Each cache (L1I, L1D, L2 — per core) gets a [`StridePrefetcher`] with
//! three 32-entry *filter tables* (positive unit stride, negative unit
//! stride, non-unit stride) feeding an 8-entry *stream table*. A filter
//! entry that observes 4 fixed-stride misses allocates a stream, which
//! launches a burst of *startup prefetches* (up to 6 ahead for L1
//! prefetchers, 25 for the L2 prefetcher) and then advances one line per
//! confirming demand access.
//!
//! The [`PrefetchThrottle`] is the adaptive mechanism: a saturating
//! counter per cache that scales the startup degree and, at zero, disables
//! prefetching entirely. It is driven by three events the cache structures
//! detect with their prefetch bits and (compression-provided) victim tags:
//! useful prefetch (+1), useless prefetch evicted untouched (−1), and
//! harmful prefetch that displaced a still-needed line (−1).

mod filter;
mod stream;
mod throttle;

pub use filter::{FilterTables, StrideClass};
pub use stream::{Burst, StreamTable, StreamTableConfig};
pub use throttle::PrefetchThrottle;

use cmpsim_cache::BlockAddr;

/// Configuration of one cache's prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Entries per filter table (32 in Table 1).
    pub filter_entries: usize,
    /// Stream table entries (8 in Table 1).
    pub stream_entries: usize,
    /// Fixed-stride misses required to allocate a stream (4 in Table 1).
    pub confirm_threshold: u8,
    /// Startup prefetches launched on stream allocation (6 for L1, 25 for
    /// L2; "at most" this many under the adaptive scheme).
    pub startup_prefetches: u8,
    /// Largest non-unit stride (in lines) the filter will learn.
    pub max_stride: i64,
}

impl PrefetcherConfig {
    /// Table 1 configuration for an L1 (I or D) prefetcher.
    pub fn l1() -> Self {
        PrefetcherConfig {
            filter_entries: 32,
            stream_entries: 8,
            confirm_threshold: 4,
            startup_prefetches: 6,
            max_stride: 64,
        }
    }

    /// Table 1 configuration for a per-core L2 prefetcher.
    pub fn l2() -> Self {
        PrefetcherConfig { startup_prefetches: 25, ..Self::l1() }
    }
}

/// Counters for one prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch addresses emitted (before MSHR/duplicate filtering).
    pub issued: u64,
    /// Streams allocated from confirmed filter entries.
    pub streams_allocated: u64,
    /// Stream advances triggered by confirming demand accesses.
    pub stream_advances: u64,
}

/// A complete per-cache stride prefetcher: filter tables + stream table.
///
/// The owning cache controller calls [`StridePrefetcher::on_miss`] for
/// demand misses and [`StridePrefetcher::on_access`] for demand accesses
/// (to advance streams), and forwards the returned prefetch addresses into
/// the memory hierarchy.
///
/// The startup `degree` is passed in on every call because the paper's
/// adaptive throttle (§3) is a *per-cache* counter: the eight per-core L2
/// prefetchers share one [`PrefetchThrottle`], while each L1 prefetcher
/// has its own. Non-adaptive configurations simply pass the fixed ceiling
/// ([`PrefetcherConfig::startup_prefetches`]).
///
/// # Examples
///
/// ```
/// use cmpsim_prefetch::{PrefetcherConfig, StridePrefetcher};
/// use cmpsim_cache::BlockAddr;
///
/// let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
/// // Four consecutive misses confirm a +1 stream…
/// assert!(pf.on_miss(BlockAddr(10), 6).is_empty());
/// assert!(pf.on_miss(BlockAddr(11), 6).is_empty());
/// assert!(pf.on_miss(BlockAddr(12), 6).is_empty());
/// let burst = pf.on_miss(BlockAddr(13), 6);
/// // …which launches the 6 startup prefetches for lines 14..=19.
/// assert_eq!(burst.collect::<Vec<_>>(), (14..20).map(BlockAddr).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: PrefetcherConfig,
    filters: FilterTables,
    streams: StreamTable,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Creates a prefetcher with the given geometry.
    pub fn new(cfg: PrefetcherConfig) -> Self {
        StridePrefetcher {
            cfg,
            filters: FilterTables::new(cfg.filter_entries, cfg.max_stride),
            streams: StreamTable::new(StreamTableConfig {
                entries: cfg.stream_entries,
            }),
            stats: PrefetchStats::default(),
        }
    }

    /// The configured startup degree ceiling.
    pub fn config(&self) -> PrefetcherConfig {
        self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Resets counters (end of warmup) without forgetting learned streams.
    pub fn reset_stats(&mut self) {
        self.stats = PrefetchStats::default();
    }

    /// Observes a demand miss at `addr`; returns prefetches to launch,
    /// capped by the current startup `degree` (0 disables prefetching).
    pub fn on_miss(&mut self, addr: BlockAddr, degree: u8) -> Burst {
        // A miss *within* a tracked stream advances it (the prefetches
        // lagged the demand stream), rather than re-training the filters.
        if let Some(next) = self.streams.advance(addr) {
            if degree == 0 {
                return Burst::default();
            }
            self.stats.stream_advances += 1;
            self.stats.issued += 1;
            return Burst::new(next, 0, 1);
        }
        let Some(stride) = self.filters.train(addr, self.cfg.confirm_threshold) else {
            return Burst::default();
        };
        if degree == 0 {
            return Burst::default();
        }
        self.stats.streams_allocated += 1;
        let burst = self.streams.allocate(addr, stride, degree.min(self.cfg.startup_prefetches));
        self.stats.issued += burst.len() as u64;
        burst
    }

    /// Observes a demand access (hit) at `addr`; a confirming access on a
    /// tracked stream issues the stream's next prefetch. Gated by the same
    /// `degree` (0 disables).
    pub fn on_access(&mut self, addr: BlockAddr, degree: u8) -> Option<BlockAddr> {
        if degree == 0 {
            return None;
        }
        let next = self.streams.advance(addr)?;
        self.stats.stream_advances += 1;
        self.stats.issued += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: u8 = 6;

    fn miss_seq(
        pf: &mut StridePrefetcher,
        degree: u8,
        lines: impl IntoIterator<Item = u64>,
    ) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        for l in lines {
            out.extend(pf.on_miss(BlockAddr(l), degree));
        }
        out
    }

    #[test]
    fn negative_unit_stream() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        let burst = miss_seq(&mut pf, FULL, [100, 99, 98, 97]);
        assert_eq!(burst, (91..=96).rev().map(BlockAddr).collect::<Vec<_>>());
    }

    #[test]
    fn non_unit_stream() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        // Stride +3: 10, 13, 16, 19 → prefetch 22,25,28,31,34,37.
        let burst = miss_seq(&mut pf, FULL, [10, 13, 16, 19]);
        assert_eq!(burst, [22, 25, 28, 31, 34, 37].map(BlockAddr).to_vec());
    }

    #[test]
    fn l2_startup_degree_is_25() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l2());
        let burst = miss_seq(&mut pf, 25, [0, 1, 2, 3]);
        assert_eq!(burst.len(), 25);
        assert_eq!(burst[0], BlockAddr(4));
        assert_eq!(burst[24], BlockAddr(28));
    }

    #[test]
    fn stream_advances_on_access() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        miss_seq(&mut pf, FULL, [0, 1, 2, 3]); // prefetched 4..=9
        // Demand touches line 4 → stream issues line 10.
        assert_eq!(pf.on_access(BlockAddr(4), FULL), Some(BlockAddr(10)));
        assert_eq!(pf.on_access(BlockAddr(5), FULL), Some(BlockAddr(11)));
        // Unrelated access does not advance anything.
        assert_eq!(pf.on_access(BlockAddr(500), FULL), None);
    }

    #[test]
    fn random_misses_never_confirm() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        let burst = miss_seq(&mut pf, FULL, [7, 300, 22, 9000, 41, 1234567]);
        assert!(burst.is_empty());
        assert_eq!(pf.stats().streams_allocated, 0);
    }

    #[test]
    fn throttled_degree_shrinks_bursts_and_zero_disables() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        // Degree 0: a confirmed stream launches nothing.
        let burst = miss_seq(&mut pf, 0, [0, 1, 2, 3]);
        assert!(burst.is_empty());
        // Degree 1 on a fresh region: a single startup prefetch. Use a
        // region far away so stale non-unit candidates cannot alias.
        let burst = miss_seq(&mut pf, 1, [500, 501, 502, 503]);
        assert_eq!(burst.len(), 1, "degree 1 → single startup prefetch");
    }

    #[test]
    fn degree_is_capped_by_configured_ceiling() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        let burst = miss_seq(&mut pf, 200, [0, 1, 2, 3]);
        assert_eq!(burst.len(), 6, "burst never exceeds the config ceiling");
    }

    #[test]
    fn zero_degree_access_does_not_advance() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        miss_seq(&mut pf, FULL, [0, 1, 2, 3]);
        assert_eq!(pf.on_access(BlockAddr(4), 0), None);
    }

    #[test]
    fn miss_within_stream_advances_instead_of_retraining() {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        miss_seq(&mut pf, FULL, [0, 1, 2, 3]); // stream expects 4 next
        // Line 4 missed (prefetch was too late): stream still advances.
        let more = pf.on_miss(BlockAddr(4), FULL);
        assert_eq!(more.collect::<Vec<_>>(), vec![BlockAddr(10)]);
        assert_eq!(pf.stats().stream_advances, 1);
    }
}
