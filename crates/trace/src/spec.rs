//! Workload specifications: every knob a synthetic benchmark exposes.

use crate::values::{LineClass, ValueProfile};

/// The paper's two benchmark families (they behave very differently under
/// both compression and prefetching — see §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Wisconsin commercial workload suite (oltp, jbb, apache, zeus).
    Commercial,
    /// SPEComp2001 (art, apsi, fma3d, mgrid).
    Scientific,
}

/// A contiguous region of the line-number address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First line number of the region.
    pub base: u64,
    /// Region length in lines.
    pub lines: u64,
}

impl Region {
    /// The line at `offset` within the region (wraps around).
    #[inline]
    pub fn line(&self, offset: u64) -> u64 {
        self.base + wrap(offset, self.lines)
    }

    /// Whether `line` falls inside the region.
    pub fn contains(&self, line: u64) -> bool {
        (self.base..self.base + self.lines).contains(&line)
    }
}

/// `x % m`, skipping the division when `x` is already below `m` — the
/// case on nearly every generator step, since offsets are kept in range.
///
/// # Panics
///
/// Panics if `m` is zero, as `%` does.
#[inline]
pub(crate) fn wrap(x: u64, m: u64) -> u64 {
    if x < m {
        x
    } else {
        x % m
    }
}

/// Base line number of the (shared, read-only) instruction region.
pub const INST_BASE: u64 = 0x1_0000_0000;
/// Base line number of the shared data region.
pub const SHARED_BASE: u64 = 0x2_0000_0000;

/// Base line number of core `c`'s private data pool.
///
/// The per-core stagger is deliberately *not* a multiple of any plausible
/// L2 set count: power-of-two-aligned bases would map every core's pool
/// onto the same cache sets and manufacture conflict misses that real
/// heaps (allocated at effectively random offsets) do not have.
pub fn private_base(core: u8) -> u64 {
    0x4_0000_0000 + u64::from(core) * 0x0433_1337
}

/// Base line number of core `c`'s strided-stream region (staggered for
/// the same reason as [`private_base`]).
pub fn stream_base(core: u8) -> u64 {
    0x100_0000_0000 + u64::from(core) * 0x1_0234_5677
}

/// Full parameter set of one synthetic benchmark.
///
/// The per-field comments say which published characteristic each knob is
/// calibrated against; the concrete values live in
/// [`crate::workloads`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as the paper prints it (e.g. `"zeus"`).
    pub name: &'static str,
    /// Commercial or scientific family.
    pub class: WorkloadClass,

    // ---- instruction stream (drives the L1I prefetcher, Table 4 left) ----
    /// Total instruction footprint in lines (commercial: large; SPEComp:
    /// tiny loop kernels).
    pub inst_footprint_lines: u64,
    /// Hot-code subset receiving `inst_hot_fraction` of jumps.
    pub inst_hot_lines: u64,
    /// Fraction of jump targets landing in the hot subset.
    pub inst_hot_fraction: f64,
    /// Mean sequential run length (lines) between jumps: sets L1I stream
    /// length and thus L1I prefetch coverage/accuracy.
    pub inst_run_mean_lines: f64,

    // ---- data access mixture ----
    /// Fraction of instructions that reference data (loads + stores).
    pub mem_ratio: f64,
    /// Fraction of data references that are stores.
    pub store_fraction: f64,
    /// Fraction of loads whose address depends on the previous load
    /// (pointer chasing): the core cannot run ahead past them, so their
    /// misses serialize. Commercial workloads are dependence-bound
    /// (B-trees, object graphs); scientific sweeps are not.
    pub dependent_fraction: f64,
    /// Fraction of data references served by strided streams (sets
    /// prefetch coverage, Table 4).
    pub stride_fraction: f64,
    /// Fraction of data references to the shared pool (coherence traffic;
    /// commercial only in practice).
    pub shared_fraction: f64,
    /// Mean sequential run length (in lines) of pool accesses. Real
    /// commercial accesses walk buffers, rows and objects spanning a few
    /// lines; these short runs are what the Power4-style prefetchers pick
    /// up (and overshoot) on commercial workloads — Table 4's moderate
    /// coverage at ~50 % accuracy. 1.0 means purely random lines.
    pub pool_run_mean: f64,

    // ---- strided streams (drive the L1D/L2 prefetchers) ----
    /// Concurrent streams per core.
    pub streams_per_core: usize,
    /// Lines a stream sweeps before re-seeding: long streams → high
    /// prefetch accuracy (SPEComp), short ones → overshoot waste (jbb).
    pub stream_len_lines: u64,
    /// Consecutive accesses to each line before advancing (spatial
    /// locality within the stream).
    pub accesses_per_line: u32,
    /// Stride choices in lines (mostly ±1; art/apsi add non-unit).
    pub stride_choices: &'static [i64],
    /// Per-core stream region size (≫ cache → streaming; ≈ cache →
    /// re-swept working set that compression can capture, like art).
    pub stream_region_lines: u64,

    // ---- pooled (non-strided) data ----
    //
    // Each pool has three locality tiers, mirroring the reuse structure
    // of real applications: a *tier-1* subset small enough to live in an
    // L1, a *hot* subset sized near the L2 boundary (the compression
    // lever: it fits at ratio > 1 but thrashes uncompressed), and the
    // full pool as the cold tail.
    /// Shared pool size in lines.
    pub shared_pool_lines: u64,
    /// Tier-1 (L1-resident) subset of the shared pool.
    pub shared_tier1_lines: u64,
    /// Fraction of shared references to the tier-1 subset.
    pub shared_tier1_fraction: f64,
    /// Hot (L2-edge) subset of the shared pool.
    pub shared_hot_lines: u64,
    /// Fraction of shared references to the hot subset.
    pub shared_hot_fraction: f64,
    /// Store fraction *within* shared references (read-write sharing
    /// intensity → invalidations and recalls).
    pub shared_store_fraction: f64,
    /// Private pool size in lines (per core).
    pub private_pool_lines: u64,
    /// Tier-1 (L1-resident) subset of the private pool.
    pub private_tier1_lines: u64,
    /// Fraction of private references to the tier-1 subset.
    pub private_tier1_fraction: f64,
    /// Hot (L2-edge) subset of the private pool.
    pub private_hot_lines: u64,
    /// Fraction of private references to the hot subset.
    pub private_hot_fraction: f64,

    // ---- values (drive FPC, Table 3) ----
    /// Weighted mixture of line classes for data regions.
    pub value_classes: &'static [(LineClass, f64)],
}

impl WorkloadSpec {
    /// Builds the value model for a run seeded with `seed`.
    ///
    /// Instruction lines are modeled as [`LineClass::Random`]-like content
    /// by the profile too; code compresses poorly under FPC, which matches
    /// the paper's data-centric compression discussion.
    pub fn value_profile(&self, seed: u64) -> ValueProfile {
        ValueProfile::new(self.value_classes, seed)
    }

    /// The instruction region (shared by all cores).
    pub fn inst_region(&self) -> Region {
        Region { base: INST_BASE, lines: self.inst_footprint_lines }
    }

    /// The shared data region.
    pub fn shared_region(&self) -> Region {
        Region { base: SHARED_BASE, lines: self.shared_pool_lines }
    }

    /// Core `c`'s private pool region.
    pub fn private_region(&self, core: u8) -> Region {
        Region { base: private_base(core), lines: self.private_pool_lines }
    }

    /// Core `c`'s stream region.
    pub fn stream_region(&self, core: u8) -> Region {
        Region { base: stream_base(core), lines: self.stream_region_lines }
    }

    /// Sanity-checks parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics (with the offending field) if a fraction is outside `[0,1]`,
    /// a hot subset exceeds its pool, or a required size is zero.
    pub fn validate(&self) {
        for (v, name) in [
            (self.inst_hot_fraction, "inst_hot_fraction"),
            (self.mem_ratio, "mem_ratio"),
            (self.store_fraction, "store_fraction"),
            (self.dependent_fraction, "dependent_fraction"),
            (self.stride_fraction, "stride_fraction"),
            (self.shared_fraction, "shared_fraction"),
            (self.shared_tier1_fraction, "shared_tier1_fraction"),
            (self.shared_hot_fraction, "shared_hot_fraction"),
            (self.shared_store_fraction, "shared_store_fraction"),
            (self.private_tier1_fraction, "private_tier1_fraction"),
            (self.private_hot_fraction, "private_hot_fraction"),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} out of [0,1]");
        }
        assert!(
            self.stride_fraction + self.shared_fraction <= 1.0,
            "stride + shared fractions exceed 1"
        );
        assert!(self.inst_footprint_lines > 0, "empty instruction footprint");
        assert!(self.inst_hot_lines <= self.inst_footprint_lines, "inst hot > footprint");
        assert!(self.shared_hot_lines <= self.shared_pool_lines, "shared hot > pool");
        assert!(self.shared_tier1_lines <= self.shared_hot_lines.max(1), "shared tier1 > hot");
        assert!(
            self.shared_tier1_fraction + self.shared_hot_fraction <= 1.0,
            "shared tier fractions exceed 1"
        );
        assert!(self.private_hot_lines <= self.private_pool_lines, "private hot > pool");
        assert!(self.private_tier1_lines <= self.private_hot_lines.max(1), "private tier1 > hot");
        assert!(
            self.private_tier1_fraction + self.private_hot_fraction <= 1.0,
            "private tier fractions exceed 1"
        );
        assert!(self.pool_run_mean >= 1.0, "pool_run_mean below 1");
        assert!(self.streams_per_core > 0, "need at least one stream");
        assert!(self.stream_len_lines > 0, "zero stream length");
        assert!(self.accesses_per_line > 0, "zero accesses per line");
        assert!(!self.stride_choices.is_empty(), "no stride choices");
        assert!(self.stream_region_lines > 0, "empty stream region");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        // Largest plausible sizes: 16 cores, 16M-line pools.
        let pools: Vec<(u64, u64)> = std::iter::once((INST_BASE, 1 << 24))
            .chain(std::iter::once((SHARED_BASE, 1 << 24)))
            .chain((0..16).map(|c| (private_base(c), 1 << 24)))
            .chain((0..16).map(|c| (stream_base(c), 1 << 24)))
            .collect();
        for (i, a) in pools.iter().enumerate() {
            for b in pools.iter().skip(i + 1) {
                let (a0, a1) = (a.0, a.0 + a.1);
                let (b0, b1) = (b.0, b.0 + b.1);
                assert!(a1 <= b0 || b1 <= a0, "regions overlap: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn region_wraps() {
        let r = Region { base: 100, lines: 10 };
        assert_eq!(r.line(0), 100);
        assert_eq!(r.line(9), 109);
        assert_eq!(r.line(10), 100);
        assert!(r.contains(105));
        assert!(!r.contains(110));
    }
}
