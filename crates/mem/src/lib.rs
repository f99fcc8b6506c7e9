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
//! [`MemoryController`] tracks the stored form of every line that has been
//! written back, charges the fixed DRAM latency, and counts accesses.
//! Queueing happens upstream on the [`cmpsim_link::Channel`]; the
//! per-processor limit of 16 outstanding requests is enforced by the core
//! model's MSHRs.

use cmpsim_cache::BlockAddr;
use cmpsim_fpc::MAX_SEGMENTS;
use std::collections::HashMap;

/// How a line is stored in DRAM (the ECC-encoded meta bit plus the
/// segment count implied by its header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredForm {
    /// Segments the stored image occupies on the link (8 = uncompressed).
    pub segments: u8,
}

impl StoredForm {
    /// Uncompressed storage in the shared segment frame.
    pub fn uncompressed() -> Self {
        StoredForm { segments: MAX_SEGMENTS }
    }

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
    /// Reads that returned a compressed-form line.
    pub compressed_reads: u64,
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
    stored: HashMap<BlockAddr, StoredForm>,
    stats: MemoryStats,
}

impl MemoryController {
    /// A controller with the given fixed access latency in cycles, using
    /// the shared 8-segment line frame.
    pub fn new(latency: u64) -> Self {
        MemoryController { latency, stored: HashMap::new(), stats: MemoryStats::default() }
    }

    /// The fixed DRAM access latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Reads `addr` at time `now`. Returns `(completion_cycle, form)`.
    ///
    /// If the line was previously written back, its stored form is
    /// returned verbatim (the ECC bit says whether it is compressed). A
    /// line never seen before is materialized using `fresh_segments`,
    /// which the caller computes from the workload's value model (8 when
    /// link compression is off).
    pub fn read(
        &mut self,
        addr: BlockAddr,
        now: u64,
        fresh_segments: impl FnOnce() -> u8,
    ) -> (u64, StoredForm) {
        let form = *self
            .stored
            .entry(addr)
            .or_insert_with(|| StoredForm { segments: fresh_segments().clamp(1, MAX_SEGMENTS) });
        self.stats.reads += 1;
        if form.is_compressed() {
            self.stats.compressed_reads += 1;
        }
        (now + self.latency, form)
    }

    /// Absorbs a writeback of `addr` stored in the sent form.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is 0 or exceeds [`MAX_SEGMENTS`].
    pub fn write(&mut self, addr: BlockAddr, segments: u8) {
        assert!((1..=MAX_SEGMENTS).contains(&segments), "bad segment count");
        self.stored.insert(addr, StoredForm { segments });
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

    /// The stored form of `addr`, if it has ever been touched.
    pub fn stored_form(&self, addr: BlockAddr) -> Option<StoredForm> {
        self.stored.get(&addr).copied()
    }

    /// Access counters.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Clears counters (end of warmup), keeping the stored contents.
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
    fn fresh_lines_use_provided_form() {
        let mut mem = MemoryController::new(400);
        let (_, form) = mem.read(BlockAddr(1), 0, || 2);
        assert_eq!(form.segments, 2);
        assert!(form.is_compressed());
        // Second read must reuse the materialized form, not re-ask.
        let (_, form2) = mem.read(BlockAddr(1), 0, || 7);
        assert_eq!(form2.segments, 2);
    }

    #[test]
    fn writeback_form_is_preserved() {
        let mut mem = MemoryController::new(400);
        mem.write(BlockAddr(2), 5);
        let (_, form) = mem.read(BlockAddr(2), 0, || 8);
        assert_eq!(form.segments, 5);
        assert!(form.is_compressed());
        mem.write(BlockAddr(2), 8);
        let (_, form) = mem.read(BlockAddr(2), 0, || 1);
        assert!(!form.is_compressed());
    }

    #[test]
    fn stats_count() {
        let mut mem = MemoryController::new(400);
        mem.read(BlockAddr(0), 0, || 3);
        mem.read(BlockAddr(1), 0, || 8);
        mem.write(BlockAddr(0), 3);
        assert_eq!(mem.stats().reads, 2);
        assert_eq!(mem.stats().writes, 1);
        assert_eq!(mem.stats().compressed_reads, 1);
        mem.reset_stats();
        assert_eq!(mem.stats().reads, 0);
        assert!(mem.stored_form(BlockAddr(0)).is_some(), "contents survive reset");
    }

    #[test]
    fn stall_bursts_are_bounded_and_counted() {
        let mut mem = MemoryController::new(400);
        let mut total = 0;
        for entropy in [0u64, 17, 399, 400, u64::MAX] {
            let extra = mem.stall_burst(entropy);
            assert!(extra >= 400 / 4 + 1, "burst at least a quarter latency: {extra}");
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
