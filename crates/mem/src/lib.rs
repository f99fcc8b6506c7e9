//! Off-chip memory controller and DRAM model.
//!
//! The paper's memory interface (§2) is deliberately simple: 4 GB of DRAM
//! with a 400-cycle access time (Table 1), and a *form-preserving* storage
//! scheme for link compression — "each 64-byte cache line is stored in
//! memory using the form — uncompressed or compressed — that the processor
//! sends across the memory interface, with a bit encoded in the ECC to
//! indicate this meta information". Memory capacity is *not* increased by
//! compression (that would be memory compression à la MXT, which the paper
//! explicitly does not model).
//!
//! In this model the form a line is sent in depends only on the line: its
//! address (through the workload's value profile), the codec and whether
//! link compression is on. A writeback therefore stores exactly the form
//! a later read of the same line would compute, so [`MemoryController`]
//! keeps no per-line state: a read returns the form its caller computes,
//! and a write checks the form and counts it. Its footprint is a few
//! counters however many lines a run touches. It charges the fixed DRAM
//! latency; queueing happens upstream on the [`cmpsim_link::Channel`],
//! and the per-processor limit of 16 outstanding requests is enforced by
//! the core model's MSHRs.

use cmpsim_cache::BlockAddr;
use cmpsim_fpc::MAX_SEGMENTS;

/// How a line is stored in DRAM (the ECC-encoded meta bit plus the
/// segment count implied by its header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredForm {
    /// Segments the stored image occupies on the link (8 = uncompressed).
    pub segments: u8,
}

impl StoredForm {
    /// Whether the ECC bit marks the line compressed (fewer segments than
    /// the shared 8-segment frame).
    pub fn is_compressed(&self) -> bool {
        self.segments < MAX_SEGMENTS
    }
}

/// Access counters for the memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Read accesses served.
    pub reads: u64,
    /// Writeback accesses absorbed.
    pub writes: u64,
    /// Fault-injected stall bursts (refresh storms, ECC scrubs) applied
    /// to responses.
    pub stall_bursts: u64,
    /// Total extra cycles those bursts added.
    pub stall_cycles: u64,
}

/// The off-chip memory controller + DRAM array.
///
/// # Examples
///
/// ```
/// use cmpsim_mem::MemoryController;
/// use cmpsim_cache::BlockAddr;
///
/// let mut mem = MemoryController::new(400);
/// let (done, form) = mem.read(BlockAddr(7), 1_000, || 3);
/// assert_eq!(done, 1_400);
/// assert_eq!(form.segments, 3);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    latency: u64,
    stats: MemoryStats,
}

impl MemoryController {
    /// A controller with the given fixed access latency in cycles, using
    /// the shared 8-segment line frame.
    pub fn new(latency: u64) -> Self {
        MemoryController { latency, stats: MemoryStats::default() }
    }

    /// Reads `addr` at time `now`. Returns `(completion_cycle, form)`.
    ///
    /// The line is stored in the form it was sent in, which depends only
    /// on the line, so `segments` — computed by the caller from the
    /// workload's value model, 8 when link compression is off — is that
    /// form (clamped to `1..=MAX_SEGMENTS`); the ECC bit says whether it
    /// is compressed.
    pub fn read(
        &mut self,
        _addr: BlockAddr,
        now: u64,
        segments: impl FnOnce() -> u8,
    ) -> (u64, StoredForm) {
        let form = StoredForm { segments: segments().clamp(1, MAX_SEGMENTS) };
        self.stats.reads += 1;
        (now + self.latency, form)
    }

    /// Absorbs a writeback of `addr` stored in the sent form.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is 0 or exceeds [`MAX_SEGMENTS`].
    pub fn write(&mut self, _addr: BlockAddr, segments: u8) {
        assert!((1..=MAX_SEGMENTS).contains(&segments), "bad segment count");
        self.stats.writes += 1;
    }

    /// Applies a fault-injected stall burst to one response: a refresh
    /// storm or ECC scrub delaying the controller. `entropy` (from the
    /// fault plan) picks the burst length deterministically, between a
    /// quarter and one-and-a-quarter DRAM latencies; the caller adds the
    /// returned extra cycles to the response's completion time.
    pub fn stall_burst(&mut self, entropy: u64) -> u64 {
        let extra = self.latency / 4 + 1 + entropy % self.latency.max(1);
        self.stats.stall_bursts += 1;
        self.stats.stall_cycles += extra;
        extra
    }

    /// Access counters.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Clears counters (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency() {
        let mut mem = MemoryController::new(400);
        let (done, _) = mem.read(BlockAddr(0), 123, || 8);
        assert_eq!(done, 523);
    }

    #[test]
    fn reads_use_provided_form() {
        let mut mem = MemoryController::new(400);
        let (_, form) = mem.read(BlockAddr(1), 0, || 2);
        assert_eq!(form.segments, 2);
        assert!(form.is_compressed());
        let (_, form) = mem.read(BlockAddr(1), 0, || 8);
        assert!(!form.is_compressed());
    }

    #[test]
    fn writes_check_the_segment_range() {
        let mut mem = MemoryController::new(400);
        mem.write(BlockAddr(2), 1);
        mem.write(BlockAddr(2), MAX_SEGMENTS);
        assert_eq!(mem.stats().writes, 2);
        for bad in [0, MAX_SEGMENTS + 1] {
            let r = std::panic::catch_unwind(move || MemoryController::new(1).write(BlockAddr(2), bad));
            assert!(r.is_err(), "{bad} segments must be rejected");
        }
    }

    #[test]
    fn stats_count() {
        let mut mem = MemoryController::new(400);
        mem.read(BlockAddr(0), 0, || 3);
        mem.read(BlockAddr(1), 0, || 8);
        mem.write(BlockAddr(0), 3);
        assert_eq!(mem.stats().reads, 2);
        assert_eq!(mem.stats().writes, 1);
        mem.reset_stats();
        assert_eq!(*mem.stats(), MemoryStats::default());
    }

    #[test]
    fn stall_bursts_are_bounded_and_counted() {
        let mut mem = MemoryController::new(400);
        let mut total = 0;
        for entropy in [0u64, 17, 399, 400, u64::MAX] {
            let extra = mem.stall_burst(entropy);
            assert!(extra > 400 / 4, "burst longer than a quarter latency: {extra}");
            assert!(extra <= 400 / 4 + 400, "burst bounded: {extra}");
            assert_eq!(extra, mem.stall_burst(entropy) , "same entropy, same burst");
            total += extra * 2;
        }
        assert_eq!(mem.stats().stall_bursts, 10);
        assert_eq!(mem.stats().stall_cycles, total);
        mem.reset_stats();
        assert_eq!(mem.stats().stall_bursts, 0);
        assert_eq!(mem.stats().stall_cycles, 0);
        // A zero-latency controller must still make a positive burst.
        let mut fast = MemoryController::new(0);
        assert!(fast.stall_burst(5) > 0);
    }

    #[test]
    fn fresh_segments_clamped() {
        let mut mem = MemoryController::new(1);
        let (_, form) = mem.read(BlockAddr(9), 0, || 0);
        assert_eq!(form.segments, 1);
    }
}
