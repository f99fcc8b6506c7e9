//! System configuration: Table 1 defaults plus the paper's experiment
//! grid.

use cmpsim_coherence::CoreId;
use cmpsim_fpc::CodecKind;
use cmpsim_harness::knobs;
use cmpsim_link::LinkBandwidth;

/// Which prefetching scheme is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchMode {
    /// No hardware prefetching.
    Off,
    /// The Power4-style stride prefetchers at full fixed degree.
    Stride,
    /// Stride prefetchers governed by the §3 adaptive throttles.
    Adaptive,
}

impl PrefetchMode {
    /// Whether any prefetcher is active.
    pub fn enabled(self) -> bool {
        !matches!(self, PrefetchMode::Off)
    }
}

/// Full static configuration of a simulated system.
///
/// [`SystemConfig::paper_default`] reproduces Table 1; the builder-style
/// `with_*` methods express every variant the evaluation sweeps (link
/// bandwidth, core counts, compression/prefetching combinations).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (the paper studies 1–16, default 8).
    pub cores: u8,
    /// Core clock in GHz (5 in Table 1).
    pub clock_ghz: u32,
    /// *Effective* issue width in instructions/cycle. Table 1 specifies
    /// 4-wide cores, but this simulator does not model branch
    /// mispredictions, dependence chains or the 11-stage pipeline, so a
    /// literal 4 would overstate compute throughput several-fold. The
    /// default of 1 calibrates the base system's aggregate IPC and pin
    /// bandwidth demand into the paper's regime relative to the 20 GB/s
    /// link — base commercial demand well below capacity, fma3d above it
    /// (see DESIGN.md, substitution 1).
    pub issue_width: u64,
    /// Reorder-buffer run-ahead limit in instructions (128).
    pub rob_size: u64,
    /// Outstanding memory requests per core (16).
    pub mshrs_per_core: usize,
    /// Private L1 (I and D each) capacity in bytes (64 KB).
    pub l1_bytes: usize,
    /// L1 associativity (4).
    pub l1_ways: usize,
    /// L1 access latency in cycles (3).
    pub l1_latency: u64,
    /// Shared L2 capacity in bytes (4 MB).
    pub l2_bytes: usize,
    /// L2 banks (8).
    pub l2_banks: usize,
    /// Uncompressed L2 hit latency, including bank access (15).
    pub l2_latency: u64,
    /// Decompression pipeline penalty (5) for the paper's FPC pipeline.
    /// The effective penalty is the configured [`codec`](Self::codec)'s
    /// latency model applied to this base (identity for FPC).
    pub decompression_latency: u64,
    /// Cache-line codec used for both cache and link compression. The
    /// engine resolves it once at construction (monomorphized sizing
    /// function, geometry, latency), so the per-access hot path carries
    /// no codec dispatch. Defaults to [`CodecKind::Fpc`], the paper's
    /// codec.
    pub codec: CodecKind,
    /// One-way on-chip hop between L1s and L2 banks (cycles).
    pub l1_to_l2_latency: u64,
    /// Extra round-trip for a coherence probe of a remote L1.
    pub probe_latency: u64,
    /// DRAM access latency (400).
    pub mem_latency: u64,
    /// Off-chip link bandwidth (20 GB/s; `Infinite` for EQ 1 demand runs).
    pub link: LinkBandwidth,
    /// Store compressed lines in the L2 (the VSC structure).
    pub cache_compression: bool,
    /// Use the ISCA'04 cost/benefit counter to gate compression of newly
    /// written lines (the paper keeps it on; it always chose to compress).
    pub adaptive_compression: bool,
    /// Compress data messages on the off-chip link.
    pub link_compression: bool,
    /// Prefetching scheme.
    pub prefetch: PrefetchMode,
    /// L2 startup-prefetch degree ceiling (25 in Table 1; exposed for
    /// the ablation benches).
    pub l2_prefetch_degree: u8,
    /// RNG seed for the workload generators (vary for confidence
    /// intervals, per the paper's space-variability methodology).
    pub seed: u64,
    /// Forward-progress watchdog: if no core retires an instruction for
    /// this many consecutive cycles, `System::run` aborts with
    /// [`SimError::Livelock`](crate::error::SimError::Livelock) instead
    /// of spinning forever. `0` disables the watchdog. The default
    /// (2 M cycles = 400 µs of simulated time at 5 GHz) is orders of
    /// magnitude beyond any legitimate quiet window (a fully backlogged
    /// link plus a DRAM access is thousands of cycles).
    pub livelock_cycle_budget: u64,
    /// Run sampled structural invariant checks (VSC segment accounting,
    /// directory owner/sharer consistency, link flit conservation) during
    /// simulation, turning corruption into
    /// [`SimError::InvariantViolation`](crate::error::SimError::InvariantViolation)
    /// even in release builds. Defaults from the `CMPSIM_CHECK` knob;
    /// costs a few percent of runtime when on.
    pub check_invariants: bool,
}

impl SystemConfig {
    /// Most cores a system may have: the width of the directory's sharer
    /// set.
    pub const MAX_CORES: u8 = CoreId::MAX_CORES as u8;

    /// The Table 1 base system with `cores` processors: no compression,
    /// no prefetching, 20 GB/s pins.
    pub fn paper_default(cores: u8) -> Self {
        SystemConfig {
            cores,
            clock_ghz: 5,
            issue_width: 1,
            rob_size: 128,
            mshrs_per_core: 16,
            l1_bytes: 64 * 1024,
            l1_ways: 4,
            l1_latency: 3,
            l2_bytes: 4 * 1024 * 1024,
            l2_banks: 8,
            l2_latency: 15,
            decompression_latency: 5,
            codec: CodecKind::Fpc,
            l1_to_l2_latency: 2,
            probe_latency: 15,
            mem_latency: 400,
            link: LinkBandwidth::GBps(20),
            cache_compression: false,
            adaptive_compression: true,
            link_compression: false,
            prefetch: PrefetchMode::Off,
            l2_prefetch_degree: 25,
            seed: 1,
            livelock_cycle_budget: 2_000_000,
            check_invariants: knobs().check,
        }
    }

    /// Returns a copy with cache and link compression set.
    pub fn with_compression(mut self, cache: bool, link: bool) -> Self {
        self.cache_compression = cache;
        self.link_compression = link;
        self
    }

    /// Returns a copy with the given prefetch mode.
    pub fn with_prefetch(mut self, mode: PrefetchMode) -> Self {
        self.prefetch = mode;
        self
    }

    /// Returns a copy with the given cache-line codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Returns a copy with the given link bandwidth.
    pub fn with_link(mut self, link: LinkBandwidth) -> Self {
        self.link = link;
        self
    }

    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given forward-progress watchdog budget in
    /// cycles (`0` disables the watchdog).
    pub fn with_livelock_budget(mut self, cycles: u64) -> Self {
        self.livelock_cycle_budget = cycles;
        self
    }

    /// Returns a copy with sampled invariant checking forced on or off,
    /// overriding the `CMPSIM_CHECK` knob.
    pub fn with_invariant_checks(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Whether the L2 must use the decoupled variable-segment structure:
    /// needed for compression *and* for the adaptive prefetcher's extra
    /// victim tags (§5.4: with compression off it still has 4 extra tags
    /// per set).
    pub fn uses_vsc(&self) -> bool {
        self.cache_compression || self.prefetch == PrefetchMode::Adaptive
    }

    /// Sanity-checks the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a structural parameter is zero or inconsistent, or if
    /// there are more than [`SystemConfig::MAX_CORES`] cores.
    pub fn validate(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(
            self.cores <= Self::MAX_CORES,
            "{} cores: the directory tracks at most {}",
            self.cores,
            Self::MAX_CORES
        );
        assert!(self.issue_width > 0, "zero issue width");
        assert!(self.rob_size > 0, "zero ROB");
        assert!(self.mshrs_per_core > 0, "zero MSHRs");
        assert!(self.l2_banks.is_power_of_two(), "banks must be a power of two");
        assert!(self.clock_ghz > 0, "zero clock");
    }
}

/// The named configuration grid of the paper's evaluation (Figures 5–12,
/// Tables 3–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No compression, no prefetching.
    Base,
    /// Cache compression only (Fig 3/4/5).
    CacheCompression,
    /// Link compression only (Fig 4/5).
    LinkCompression,
    /// Cache + link compression ("Compression" in Figs 7/9/10, Table 5).
    BothCompression,
    /// Stride prefetching only.
    Prefetch,
    /// Adaptive prefetching only.
    AdaptivePrefetch,
    /// Stride prefetching + both compressions.
    PrefetchCompression,
    /// Adaptive prefetching + both compressions.
    AdaptivePrefetchCompression,
}

impl Variant {
    /// All variants in presentation order.
    pub fn all() -> [Variant; 8] {
        [
            Variant::Base,
            Variant::CacheCompression,
            Variant::LinkCompression,
            Variant::BothCompression,
            Variant::Prefetch,
            Variant::AdaptivePrefetch,
            Variant::PrefetchCompression,
            Variant::AdaptivePrefetchCompression,
        ]
    }

    /// Applies the variant to a base configuration.
    pub fn apply(self, cfg: SystemConfig) -> SystemConfig {
        match self {
            Variant::Base => cfg.with_compression(false, false).with_prefetch(PrefetchMode::Off),
            Variant::CacheCompression => {
                cfg.with_compression(true, false).with_prefetch(PrefetchMode::Off)
            }
            Variant::LinkCompression => {
                cfg.with_compression(false, true).with_prefetch(PrefetchMode::Off)
            }
            Variant::BothCompression => {
                cfg.with_compression(true, true).with_prefetch(PrefetchMode::Off)
            }
            Variant::Prefetch => {
                cfg.with_compression(false, false).with_prefetch(PrefetchMode::Stride)
            }
            Variant::AdaptivePrefetch => {
                cfg.with_compression(false, false).with_prefetch(PrefetchMode::Adaptive)
            }
            Variant::PrefetchCompression => {
                cfg.with_compression(true, true).with_prefetch(PrefetchMode::Stride)
            }
            Variant::AdaptivePrefetchCompression => {
                cfg.with_compression(true, true).with_prefetch(PrefetchMode::Adaptive)
            }
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "base",
            Variant::CacheCompression => "cache-compr",
            Variant::LinkCompression => "link-compr",
            Variant::BothCompression => "compr",
            Variant::Prefetch => "pf",
            Variant::AdaptivePrefetch => "adaptive-pf",
            Variant::PrefetchCompression => "pf+compr",
            Variant::AdaptivePrefetchCompression => "adaptive-pf+compr",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SystemConfig::paper_default(8);
        c.validate();
        assert_eq!(c.cores, 8);
        assert_eq!(c.l1_bytes, 64 * 1024);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(c.mem_latency, 400);
        assert_eq!(c.link, LinkBandwidth::GBps(20));
        assert!(!c.uses_vsc());
    }

    #[test]
    fn validate_accepts_up_to_max_cores() {
        SystemConfig::paper_default(SystemConfig::MAX_CORES).validate();
    }

    #[test]
    #[should_panic(expected = "33 cores: the directory tracks at most 32")]
    fn validate_rejects_more_cores_than_the_directory_tracks() {
        SystemConfig::paper_default(SystemConfig::MAX_CORES + 1).validate();
    }

    #[test]
    fn codec_defaults_to_fpc_and_is_selectable() {
        let c = SystemConfig::paper_default(8);
        assert_eq!(c.codec, CodecKind::Fpc);
        assert_eq!(c.with_codec(CodecKind::Bdi).codec, CodecKind::Bdi);
    }

    #[test]
    fn vsc_selection() {
        let c = SystemConfig::paper_default(8);
        assert!(c.clone().with_compression(true, false).uses_vsc());
        assert!(c.clone().with_prefetch(PrefetchMode::Adaptive).uses_vsc());
        assert!(!c.clone().with_prefetch(PrefetchMode::Stride).uses_vsc());
        assert!(!c.with_compression(false, true).uses_vsc());
    }

    #[test]
    fn variants_apply() {
        let base = SystemConfig::paper_default(8);
        let v = Variant::PrefetchCompression.apply(base.clone());
        assert!(v.cache_compression && v.link_compression);
        assert_eq!(v.prefetch, PrefetchMode::Stride);
        let v = Variant::AdaptivePrefetch.apply(base);
        assert!(!v.cache_compression);
        assert_eq!(v.prefetch, PrefetchMode::Adaptive);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Variant::all().iter().map(|v| v.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }
}
