//! Simulation counters and derived metrics.

use cmpsim_link::ChannelStats;

/// Demand/prefetch counters for one cache level (aggregated over cores
/// for the L1s; the L2 is already shared).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Demand accesses (loads, stores or fetches reaching this level).
    pub accesses: u64,
    /// Demand accesses that hit resident data.
    pub hits: u64,
    /// Demand accesses that missed (including partial hits on in-flight
    /// prefetches, per the paper's EQ 3 definition).
    pub demand_misses: u64,
    /// First demand touches of prefetched lines — the paper's
    /// *prefetch hits* (EQ 3/4 numerator).
    pub prefetch_hits: u64,
    /// Prefetches injected into the hierarchy at this level (after MSHR /
    /// duplicate filtering) — EQ 2/4 denominator.
    pub prefetches_issued: u64,
    /// Prefetch fills that landed in the cache.
    pub prefetch_fills: u64,
    /// Prefetched lines evicted before any demand touch (useless).
    pub useless_prefetch_evictions: u64,
}

impl LevelStats {
    /// EQ 2: prefetches per 1000 instructions.
    pub fn prefetch_rate(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.prefetches_issued as f64 * 1000.0 / instructions as f64
        }
    }

    /// EQ 3: `PrefetchHits / (PrefetchHits + DemandMisses)`, in percent.
    pub fn coverage_pct(&self) -> f64 {
        let denom = self.prefetch_hits + self.demand_misses;
        if denom == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / denom as f64 * 100.0
        }
    }

    /// EQ 4: `PrefetchHits / TotalPrefetches`, in percent.
    pub fn accuracy_pct(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetches_issued as f64 * 100.0
        }
    }

    /// Demand miss ratio (misses / accesses), in percent.
    pub fn miss_ratio_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.accesses as f64 * 100.0
        }
    }

    /// Misses per 1000 instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.demand_misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Coherence activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// S-copies invalidated by exclusivity requests.
    pub invalidations: u64,
    /// Dirty M-copies recalled from L1s.
    pub recalls: u64,
    /// Store hits on Shared lines that required an upgrade round trip.
    pub upgrades: u64,
    /// L1 copies invalidated to maintain inclusion on L2 evictions.
    pub inclusion_recalls: u64,
}

/// Every counter one simulation accumulates during measurement.
///
/// `PartialEq` compares every counter exactly (the two `f64` fields are
/// sums of exact per-sample values, so equal runs produce equal bits);
/// the determinism tests rely on this to assert that the grid driver
/// produces identical results at every thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Instructions retired across all cores during measurement.
    pub instructions: u64,
    /// L1 instruction caches (all cores).
    pub l1i: LevelStats,
    /// L1 data caches (all cores).
    pub l1d: LevelStats,
    /// Shared L2.
    pub l2: LevelStats,
    /// L2 demand hits served from compressed lines (paid decompression).
    pub l2_compressed_hits: u64,
    /// Sum of L2 hit latencies (for the §5.3 average-hit-latency result).
    pub l2_hit_latency_sum: u64,
    /// L2 hits behind `l2_hit_latency_sum`.
    pub l2_hit_latency_count: u64,
    /// L2 misses that matched a dataless victim tag.
    pub l2_victim_tag_hits: u64,
    /// Harmful-prefetch detections (§3 cache-miss rule firings).
    pub harmful_prefetch_detections: u64,
    /// Sum and count of periodic effective-capacity-ratio samples
    /// (Table 3's compression ratio).
    pub capacity_ratio_sum: f64,
    /// Number of capacity samples.
    pub capacity_ratio_samples: u64,
    /// Off-chip link counters.
    pub link: ChannelStats,
    /// Memory reads served.
    pub mem_reads: u64,
    /// Dirty L2 lines written back to memory.
    pub mem_writes: u64,
    /// Coherence activity.
    pub coherence: CoherenceStats,
    /// Prefetches dropped for MSHR pressure or duplication.
    pub dropped_prefetches: u64,
    /// Fault-injection and recovery activity (all zero unless a
    /// `CMPSIM_CHAOS` plan is armed).
    pub faults: FaultStats,
}

/// Counters for the deterministic chaos engine: injections per site and
/// the graceful-degradation machinery they exercised. Deterministic for
/// a given `CMPSIM_CHAOS` seed — these participate in `RunResult`
/// equality, so the determinism suites cover fault schedules too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Codec bit-flips injected into resident compressed L2 lines.
    pub codec_faults_injected: u64,
    /// Injections caught by the per-line checksum (provably all of them;
    /// counted from the actual comparison, not assumed).
    pub codec_faults_detected: u64,
    /// Corrupt-line recoveries: invalidate + refetch round trips.
    pub fault_recoveries: u64,
    /// Lines pinned to uncompressed storage after repeated faults.
    pub lines_quarantined: u64,
    /// Link messages lost or corrupted in transit.
    pub link_faults_injected: u64,
    /// NACK-triggered retransmits the link faults forced.
    pub link_retransmits: u64,
    /// Memory-controller stall bursts applied to responses.
    pub mem_stall_bursts: u64,
    /// Total extra cycles those stall bursts added.
    pub mem_stall_cycles: u64,
    /// Directory probe messages lost on-chip.
    pub dir_messages_lost: u64,
    /// Probe deliveries that needed at least one retry.
    pub dir_retries: u64,
}

impl SimStats {
    /// Mean sampled compression ratio (1.0 when never sampled, i.e. the
    /// uncompressed L2).
    pub fn compression_ratio(&self) -> f64 {
        if self.capacity_ratio_samples == 0 {
            1.0
        } else {
            self.capacity_ratio_sum / self.capacity_ratio_samples as f64
        }
    }

    /// Mean L2 hit latency in cycles (§5.3).
    pub fn avg_l2_hit_latency(&self) -> f64 {
        if self.l2_hit_latency_count == 0 {
            0.0
        } else {
            self.l2_hit_latency_sum as f64 / self.l2_hit_latency_count as f64
        }
    }
}

/// One cycle-sampled telemetry row: an instantaneous snapshot of the
/// counters the paper's time-resolved analyses need (effective L2
/// capacity, compression ratio, link utilization, MSHR pressure,
/// per-core IPC).
///
/// Samples live *outside* [`SimStats`] / [`RunResult`] on purpose: they
/// are measurement artifacts, not model outputs, so they participate in
/// neither result equality nor the grid digest. The engine buffers them
/// in memory and writes them as one JSONL artifact per run (see
/// DESIGN.md §10).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Simulated cycle the sample was taken at.
    pub t: u64,
    /// Instantaneous L2 effective-capacity ratio (1.0 when uncompressed).
    pub l2_capacity_ratio: f64,
    /// Running mean compression ratio over the measured samples so far.
    pub compression_ratio: f64,
    /// Link busy cycles as a percentage of lane-cycles elapsed since the
    /// last stats reset (two lanes).
    pub link_utilization_pct: f64,
    /// Cumulative link bytes since the last stats reset.
    pub link_total_bytes: u64,
    /// Core-side MSHR entries currently allocated (all cores).
    pub core_mshr_entries: u64,
    /// L2 fetches currently in flight to memory.
    pub l2_fetches_in_flight: u64,
    /// Engine events dispatched so far (whole run).
    pub events: u64,
    /// Instructions retired so far (whole run, all cores).
    pub retired: u64,
    /// Per-core cumulative IPC (instructions / local cycles).
    pub core_ipc: Vec<f64>,
}

impl TelemetrySample {
    /// Renders the sample as one flat JSON object (no trailing newline),
    /// the row format of `target/telemetry/*.jsonl` artifacts.
    pub fn to_json_line(&self) -> String {
        let f = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let ipcs: Vec<String> = self.core_ipc.iter().map(|&v| f(v)).collect();
        format!(
            "{{\"t\":{},\"l2_capacity_ratio\":{},\"compression_ratio\":{},\
             \"link_utilization_pct\":{},\"link_total_bytes\":{},\
             \"core_mshr_entries\":{},\"l2_fetches_in_flight\":{},\
             \"events\":{},\"retired\":{},\"core_ipc\":[{}]}}",
            self.t,
            f(self.l2_capacity_ratio),
            f(self.compression_ratio),
            f(self.link_utilization_pct),
            self.link_total_bytes,
            self.core_mshr_entries,
            self.l2_fetches_in_flight,
            self.events,
            self.retired,
            ipcs.join(",")
        )
    }
}

/// The outcome of one measured simulation.
///
/// Alongside the model outputs (counters, cycles), a result carries the
/// *simulator's own* throughput figures: how many discrete events the
/// engine dispatched and how long the run took on the host. `events` is
/// a deterministic model-side count (two runs with the same seed
/// dispatch identical event sequences); `host_nanos` is wall-clock and
/// therefore varies run to run, so [`PartialEq`] deliberately ignores
/// it — the grid determinism and kill/resume suites compare results
/// with `==` and must not be perturbed by timing noise.
///
/// `record_fields` lists every field once, for the journal and store
/// records and for `grid_digest`.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Counters accumulated during the measurement phase.
    pub stats: SimStats,
    /// Cycles from measurement start to the last core finishing its
    /// instruction quota — the paper's runtime metric.
    pub cycles: u64,
    /// Core clock in GHz (to convert traffic to GB/s).
    pub clock_ghz: u32,
    /// Events the engine dispatched over the whole run (warmup +
    /// measurement). Deterministic for a fixed seed.
    pub events: u64,
    /// Instructions retired over the whole run (warmup + measurement).
    /// Deterministic for a fixed seed.
    pub retired: u64,
    /// Host wall-clock nanoseconds the run took. **Not** part of
    /// equality; see the type docs.
    pub host_nanos: u64,
}

impl PartialEq for RunResult {
    /// Compares every deterministic field and ignores `host_nanos`
    /// (wall-clock), keeping serial/parallel and fresh/resumed grids
    /// bit-comparable.
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats
            && self.cycles == other.cycles
            && self.clock_ghz == other.clock_ghz
            && self.events == other.events
            && self.retired == other.retired
    }
}

impl RunResult {
    /// Aggregate instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.instructions as f64 / self.cycles as f64
        }
    }

    /// Off-chip traffic in GB/s over the measured window (EQ 1's demand
    /// when run with an infinite link).
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.link.total_bytes as f64 / self.cycles as f64
                * f64::from(self.clock_ghz)
        }
    }

    /// Runtime in cycles (lower is better; speedups divide these).
    pub fn runtime(&self) -> u64 {
        self.cycles
    }

    /// Simulator throughput: engine events dispatched per host second
    /// (0.0 when the run recorded no wall-clock).
    pub fn events_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.host_nanos as f64
        }
    }

    /// Simulator throughput: committed (retired) instructions per host
    /// microsecond — "committed MIPS" (0.0 when the run recorded no
    /// wall-clock).
    pub fn committed_mips(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.retired as f64 * 1e3 / self.host_nanos as f64
        }
    }
}

/// Where one [`RunResult`] field lives, and how it travels as the `u64`
/// that records and the digest carry.
pub(crate) enum Slot<'a> {
    U64(&'a mut u64),
    U32(&'a mut u32),
    /// Carried as its IEEE-754 bit pattern, so it round-trips exactly.
    F64Bits(&'a mut f64),
}

impl Slot<'_> {
    pub(crate) fn get(&self) -> u64 {
        match self {
            Slot::U64(v) => **v,
            Slot::U32(v) => u64::from(**v),
            Slot::F64Bits(v) => v.to_bits(),
        }
    }

    /// Stores `v`; `None` when it does not fit the field.
    pub(crate) fn set(self, v: u64) -> Option<()> {
        match self {
            Slot::U64(f) => *f = v,
            Slot::U32(f) => *f = u32::try_from(v).ok()?,
            Slot::F64Bits(f) => *f = f64::from_bits(v),
        }
        Some(())
    }
}

/// Every field of a [`RunResult`] as `(record key, digested, slot)`, in
/// the order journal and store records list them. The keys and their
/// order are an on-disk format (`seallog::tests::on_disk_formats_are_pinned`).
///
/// `digested` marks the fields `report::grid_digest` folds, in this
/// order: the model outputs the seed-era `RunResult` had. Fields added
/// since (the host-side `events`, `retired` and `host_nanos`, and the
/// chaos engine's link and fault counters, all zero in a clean run) are
/// left out, so the digest goldens recorded before them stay valid.
#[rustfmt::skip]
pub(crate) fn record_fields(r: &mut RunResult) -> [(&'static str, bool, Slot<'_>); 59] {
    use Slot::{F64Bits, U32, U64};
    let s = &mut r.stats;
    [
        ("cycles", true, U64(&mut r.cycles)),
        ("clock_ghz", true, U32(&mut r.clock_ghz)),
        ("events", false, U64(&mut r.events)),
        ("retired", false, U64(&mut r.retired)),
        // Outside `PartialEq`, but kept so resumed sweeps still report
        // throughput.
        ("host_nanos", false, U64(&mut r.host_nanos)),
        ("stats.instructions", true, U64(&mut s.instructions)),
        ("stats.l1i.accesses", true, U64(&mut s.l1i.accesses)),
        ("stats.l1i.hits", true, U64(&mut s.l1i.hits)),
        ("stats.l1i.demand_misses", true, U64(&mut s.l1i.demand_misses)),
        ("stats.l1i.prefetch_hits", true, U64(&mut s.l1i.prefetch_hits)),
        ("stats.l1i.prefetches_issued", true, U64(&mut s.l1i.prefetches_issued)),
        ("stats.l1i.prefetch_fills", true, U64(&mut s.l1i.prefetch_fills)),
        ("stats.l1i.useless_prefetch_evictions", true, U64(&mut s.l1i.useless_prefetch_evictions)),
        ("stats.l1d.accesses", true, U64(&mut s.l1d.accesses)),
        ("stats.l1d.hits", true, U64(&mut s.l1d.hits)),
        ("stats.l1d.demand_misses", true, U64(&mut s.l1d.demand_misses)),
        ("stats.l1d.prefetch_hits", true, U64(&mut s.l1d.prefetch_hits)),
        ("stats.l1d.prefetches_issued", true, U64(&mut s.l1d.prefetches_issued)),
        ("stats.l1d.prefetch_fills", true, U64(&mut s.l1d.prefetch_fills)),
        ("stats.l1d.useless_prefetch_evictions", true, U64(&mut s.l1d.useless_prefetch_evictions)),
        ("stats.l2.accesses", true, U64(&mut s.l2.accesses)),
        ("stats.l2.hits", true, U64(&mut s.l2.hits)),
        ("stats.l2.demand_misses", true, U64(&mut s.l2.demand_misses)),
        ("stats.l2.prefetch_hits", true, U64(&mut s.l2.prefetch_hits)),
        ("stats.l2.prefetches_issued", true, U64(&mut s.l2.prefetches_issued)),
        ("stats.l2.prefetch_fills", true, U64(&mut s.l2.prefetch_fills)),
        ("stats.l2.useless_prefetch_evictions", true, U64(&mut s.l2.useless_prefetch_evictions)),
        ("stats.l2_compressed_hits", true, U64(&mut s.l2_compressed_hits)),
        ("stats.l2_hit_latency_sum", true, U64(&mut s.l2_hit_latency_sum)),
        ("stats.l2_hit_latency_count", true, U64(&mut s.l2_hit_latency_count)),
        ("stats.l2_victim_tag_hits", true, U64(&mut s.l2_victim_tag_hits)),
        ("stats.harmful_prefetch_detections", true, U64(&mut s.harmful_prefetch_detections)),
        ("stats.capacity_ratio_sum.bits", true, F64Bits(&mut s.capacity_ratio_sum)),
        ("stats.capacity_ratio_samples", true, U64(&mut s.capacity_ratio_samples)),
        ("stats.link.total_bytes", true, U64(&mut s.link.total_bytes)),
        ("stats.link.data_bytes", true, U64(&mut s.link.data_bytes)),
        ("stats.link.prefetch_bytes", true, U64(&mut s.link.prefetch_bytes)),
        ("stats.link.messages", true, U64(&mut s.link.messages)),
        ("stats.link.queue_delay_cycles", true, U64(&mut s.link.queue_delay_cycles)),
        ("stats.link.busy_cycles", true, U64(&mut s.link.busy_cycles)),
        ("stats.link.dropped_messages", false, U64(&mut s.link.dropped_messages)),
        ("stats.link.corrupted_messages", false, U64(&mut s.link.corrupted_messages)),
        ("stats.mem_reads", true, U64(&mut s.mem_reads)),
        ("stats.mem_writes", true, U64(&mut s.mem_writes)),
        ("stats.coherence.invalidations", true, U64(&mut s.coherence.invalidations)),
        ("stats.coherence.recalls", true, U64(&mut s.coherence.recalls)),
        ("stats.coherence.upgrades", true, U64(&mut s.coherence.upgrades)),
        ("stats.coherence.inclusion_recalls", true, U64(&mut s.coherence.inclusion_recalls)),
        ("stats.dropped_prefetches", true, U64(&mut s.dropped_prefetches)),
        ("stats.faults.codec_faults_injected", false, U64(&mut s.faults.codec_faults_injected)),
        ("stats.faults.codec_faults_detected", false, U64(&mut s.faults.codec_faults_detected)),
        ("stats.faults.fault_recoveries", false, U64(&mut s.faults.fault_recoveries)),
        ("stats.faults.lines_quarantined", false, U64(&mut s.faults.lines_quarantined)),
        ("stats.faults.link_faults_injected", false, U64(&mut s.faults.link_faults_injected)),
        ("stats.faults.link_retransmits", false, U64(&mut s.faults.link_retransmits)),
        ("stats.faults.mem_stall_bursts", false, U64(&mut s.faults.mem_stall_bursts)),
        ("stats.faults.mem_stall_cycles", false, U64(&mut s.faults.mem_stall_cycles)),
        ("stats.faults.dir_messages_lost", false, U64(&mut s.faults.dir_messages_lost)),
        ("stats.faults.dir_retries", false, U64(&mut s.faults.dir_retries)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_metrics() {
        let l = LevelStats {
            accesses: 1000,
            hits: 900,
            demand_misses: 100,
            prefetch_hits: 100,
            prefetches_issued: 200,
            ..Default::default()
        };
        assert!((l.coverage_pct() - 50.0).abs() < 1e-9);
        assert!((l.accuracy_pct() - 50.0).abs() < 1e-9);
        assert!((l.miss_ratio_pct() - 10.0).abs() < 1e-9);
        assert!((l.prefetch_rate(100_000) - 2.0).abs() < 1e-9);
        assert!((l.mpki(100_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let l = LevelStats::default();
        assert_eq!(l.coverage_pct(), 0.0);
        assert_eq!(l.accuracy_pct(), 0.0);
        assert_eq!(l.miss_ratio_pct(), 0.0);
        assert_eq!(l.prefetch_rate(0), 0.0);
    }

    #[test]
    fn run_result_metrics() {
        let mut stats = SimStats { instructions: 5_000_000, ..Default::default() };
        stats.link.total_bytes = 4_000_000;
        let r = RunResult {
            stats,
            cycles: 1_000_000,
            clock_ghz: 5,
            events: 3_000_000,
            retired: 6_000_000,
            host_nanos: 2_000_000_000,
        };
        assert!((r.ipc() - 5.0).abs() < 1e-9);
        assert!((r.bandwidth_gbps() - 20.0).abs() < 1e-9);
        assert!((r.events_per_sec() - 1_500_000.0).abs() < 1e-6);
        assert!((r.committed_mips() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn equality_ignores_host_wall_clock() {
        let a = RunResult {
            stats: SimStats::default(),
            cycles: 10,
            clock_ghz: 5,
            events: 7,
            retired: 9,
            host_nanos: 111,
        };
        let mut b = a.clone();
        b.host_nanos = 999_999;
        assert_eq!(a, b, "wall-clock must not break bit-comparability");
        b.events = 8;
        assert_ne!(a, b, "deterministic fields must still compare");
    }

    #[test]
    fn zero_wall_clock_throughput_is_safe() {
        let r = RunResult {
            stats: SimStats::default(),
            cycles: 0,
            clock_ghz: 5,
            events: 0,
            retired: 0,
            host_nanos: 0,
        };
        assert_eq!(r.events_per_sec(), 0.0);
        assert_eq!(r.committed_mips(), 0.0);
    }

    #[test]
    fn compression_ratio_defaults_to_one() {
        let s = SimStats::default();
        assert_eq!(s.compression_ratio(), 1.0);
    }

    #[test]
    fn telemetry_sample_renders_flat_json() {
        let s = TelemetrySample {
            t: 50_000,
            l2_capacity_ratio: 1.5,
            compression_ratio: 1.25,
            link_utilization_pct: 12.5,
            link_total_bytes: 4096,
            core_mshr_entries: 7,
            l2_fetches_in_flight: 3,
            events: 123,
            retired: 456,
            core_ipc: vec![0.5, 2.0],
        };
        let line = s.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"t\":50000"), "{line}");
        assert!(line.contains("\"l2_capacity_ratio\":1.5"), "{line}");
        assert!(line.contains("\"core_ipc\":[0.5,2]"), "{line}");
        assert!(!line.contains('\n'));
        // Non-finite values degrade to null instead of invalid JSON.
        let nan = TelemetrySample { link_utilization_pct: f64::NAN, ..s };
        assert!(nan.to_json_line().contains("\"link_utilization_pct\":null"));
    }
}
