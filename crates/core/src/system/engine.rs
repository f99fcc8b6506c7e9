//! The event-driven simulation engine.
//!
//! A single event queue (a timing wheel, see `queue.rs`) drives six
//! event kinds: core execution steps, L2 accesses, off-chip request
//! launches, memory responses, L2 fills and L1 fills. Cores batch
//! privately between L1 misses (all L1-hit work is core-local), so events
//! exist only where components interact — L2 banks, the link, memory,
//! and coherence.
//!
//! Timing approximation: a core may run a few tens of cycles ahead of
//! global event time (bounded by its 128-instruction ROB run-ahead), so
//! link-ordering skew is bounded by the same window; see DESIGN.md.

use crate::config::{PrefetchMode, SystemConfig};
use crate::core_model::{Core, Wait};
use crate::error::SimError;
use crate::stats::{LevelStats, RunResult, SimStats, TelemetrySample};
use crate::system::l2::{EvictedL2, L2Cache};
use crate::system::queue::EventQueue;
use crate::telemetry::{render_record, EngineTrace, TraceKind, TraceOptions, LIVELOCK_EVENT_WINDOW};
use cmpsim_cache::{BlockAddr, CompressionDecision, CompressionPolicy, SetAssocCache, SetAssocConfig};
use cmpsim_coherence::{
    deliver_with_retries, CoreId, DirAction, DirActions, DirEntry, L1Request, MsiState,
};
use cmpsim_fpc::MAX_SEGMENTS;
use cmpsim_harness::chaos::{FaultPlan, FaultSite};
use cmpsim_harness::fastmap::AddrMap;
use cmpsim_harness::knobs;
use cmpsim_harness::telemetry::{self as harness_telemetry, FlightRecorder, Record};
use cmpsim_link::{Channel, Message};
use cmpsim_mem::MemoryController;
use cmpsim_prefetch::{Burst, PrefetchThrottle, PrefetcherConfig, StridePrefetcher};
use cmpsim_trace::{CoreGenerator, TraceEvent, WorkloadSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// Sample the effective capacity ratio every this many demand L2 accesses.
const CAPACITY_SAMPLE_PERIOD: u64 = 4096;
/// Bound on the per-core queue of L2 prefetches awaiting MSHR slots.
const PF_QUEUE_LIMIT: usize = 64;
/// L2 bank busy time per access (pipelined banks).
const BANK_OCCUPANCY: u64 = 2;
/// With invariant checking on, run the full structural sweep every this
/// many dispatched events (checks are linear in the L2, so sampling keeps
/// the overhead to a few percent).
const INVARIANT_SAMPLE_PERIOD: u64 = 2048;
/// Detected-corruption strikes before a line is quarantined to
/// uncompressed storage (chaos runs only).
const QUARANTINE_STRIKES: u8 = 3;
/// Delivery attempts (1 original + retransmits) before a faulted link
/// transfer aborts the run with [`SimError::FaultBudgetExhausted`].
const MAX_LINK_ATTEMPTS: u8 = 4;
/// Delivery attempts per directory probe before the same abort.
const MAX_DIR_ATTEMPTS: u32 = 4;
/// Spare waiter lists kept for reuse by new L2 fetches. In-flight
/// fetches are bounded by the cores' MSHRs, so a few dozen cover the
/// steady state; the cap keeps a burst from pinning its peak.
const WAITER_POOL_CAP: usize = 64;

/// Which private L1 a request belongs to. The discriminant indexes a
/// core's `[L1; 2]` and is the side bit of every L1 trace record
/// (DESIGN §10: 0 l1i, 1 l1d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1Kind {
    I = 0,
    D = 1,
}

/// One private L1 with the stride prefetcher and adaptive throttle
/// that the paper gives the instruction and data sides alike.
#[derive(Debug)]
struct L1 {
    cache: SetAssocCache<MsiState>,
    pf: StridePrefetcher,
    th: PrefetchThrottle,
}

impl L1 {
    fn new(cfg: SetAssocConfig) -> Self {
        let pf = PrefetcherConfig::l1();
        L1 {
            cache: SetAssocCache::new(cfg),
            pf: StridePrefetcher::new(pf),
            th: PrefetchThrottle::new(pf.startup_prefetches),
        }
    }
}

/// Who initiated an L2 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A demand miss from an L1.
    Demand,
    /// An L1 prefetcher's request.
    L1Prefetch,
    /// An L2 prefetcher's request (fills L2 only).
    L2Prefetch,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    CoreStep { core: u8 },
    L2Access { core: u8, addr: BlockAddr, store: bool, upgrade: bool, origin: Origin, l1: L1Kind },
    LinkRequest { addr: BlockAddr, attempt: u8 },
    MemResponse { addr: BlockAddr, attempt: u8 },
    /// `sized` is the segment count the memory response computed for the
    /// link, or 0 when link compression is off and nothing sized the line.
    L2Fill { addr: BlockAddr, sized: u8 },
    L1Fill { core: u8, l1: L1Kind, addr: BlockAddr, prefetched: bool, store: bool },
}

/// A consumer of an in-flight L2 memory fetch.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    core: u8,
    l1: L1Kind,
    store: bool,
    prefetched: bool,
}

/// An in-flight L2 miss being fetched from memory.
#[derive(Debug)]
struct L2Mshr {
    /// Consumers in arrival order; the list comes from, and returns to,
    /// `System::waiter_pool`.
    waiters: Vec<Waiter>,
    /// Core whose MSHR budget a prefetch-only fetch occupies.
    prefetch_core: Option<u8>,
}

impl L2Mshr {
    /// Whether every waiter of this fetch is a prefetch (true for none).
    fn for_prefetch(&self) -> bool {
        self.waiters.iter().all(|w| w.prefetched)
    }
}

/// The assembled CMP system.
///
/// Construct with [`System::new`] and execute with [`System::run`].
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    values: cmpsim_trace::ValueProfile,
    /// The configured codec's sizing function, resolved once from
    /// [`CodecKind::segments_fn`] at construction so the hot path is a
    /// direct indirect call with no per-line enum dispatch.
    codec_segments: fn(&[u8; cmpsim_fpc::LINE_BYTES]) -> u8,
    /// The configured codec's compress → fast-decode round trip, resolved
    /// once from [`CodecKind::image_fn`]: every site that must
    /// *materialize* the bytes a compressed line stores or delivers
    /// (chaos integrity checks, corrupted-delivery verification, the
    /// sampled round-trip invariant) goes through this pointer, so line
    /// reconstruction always rides the dispatch-table/SWAR decoders.
    codec_image: fn(&[u8; cmpsim_fpc::LINE_BYTES]) -> [u8; cmpsim_fpc::LINE_BYTES],
    /// Decompression penalty (cycles) under the configured codec's
    /// latency model, applied to compressed L2 hits and fills.
    codec_decomp: u64,

    now: u64,
    /// Pending events, popped in `(time, seq)` order with `seq` assigned
    /// in `schedule` call order.
    events: EventQueue<Event>,

    /// Boxed so `step_core`'s take/put-back (a borrow-splitting dance)
    /// moves one pointer, not the core's whole embedded trace generator.
    cores: Vec<Option<Box<Core>>>,
    /// Each core's L1s, indexed by [`L1Kind`].
    l1s: Vec<[L1; 2]>,
    /// Lines each core's L1s have in flight (demand or L1 prefetch).
    /// The loads a fill satisfies are tracked by the core, keyed by line.
    core_mshrs: Vec<AddrMap<()>>,

    l2: L2Cache,
    /// Evictions of the latest L2 fill, reused across fills.
    l2_evicted: Vec<EvictedL2>,
    bank_free: Vec<u64>,
    l2_mshrs: AddrMap<L2Mshr>,
    /// Emptied waiter lists of completed fetches, at most
    /// [`WAITER_POOL_CAP`] of them.
    waiter_pool: Vec<Vec<Waiter>>,
    link: Channel,
    mem: MemoryController,

    pf_l2: Vec<StridePrefetcher>,
    th_l2: PrefetchThrottle,
    pf_queue: Vec<VecDeque<BlockAddr>>,

    policy: CompressionPolicy,

    stats: SimStats,
    l2_demand_accesses: u64,

    dispatched: u64,
    last_progress_now: u64,
    last_progress_insts: u64,

    warmup_per_core: u64,
    measure_per_core: u64,
    warm_flags: Vec<bool>,
    warmed: usize,
    measure_started: bool,
    measure_start: u64,
    finished: usize,

    /// Workload name, kept for telemetry artifact naming.
    workload: &'static str,
    /// Flight recorder + series sampler; `None` when tracing is off, so
    /// every instrumentation site is one branch on this option. Trace
    /// state is written from simulation state and never read back —
    /// results are bit-identical with tracing on or off.
    trace: Option<Box<EngineTrace>>,
    /// Mirror of `trace.next_sample` (`u64::MAX` when tracing is off or
    /// recorder-only), so the event loop's sample check is one compare
    /// against a hot field instead of a pointer chase per event.
    next_sample: u64,
    /// Whether the watchdog already armed its emergency recorder.
    emergency_armed: bool,
    /// Whether this run's series artifact has been written.
    telemetry_flushed: bool,

    /// Armed fault-injection plan (the `CMPSIM_CHAOS` knob), or `None`
    /// (the default). Every injection site is one branch on this option, and
    /// every decision is a pure function of `(seed, site, cycle, addr)`,
    /// so disarmed runs are bit-identical to builds without chaos and
    /// armed runs replay bit-identically from the seed.
    chaos: Option<FaultPlan>,
    /// Detected-corruption strikes per block address; at
    /// [`QUARANTINE_STRIKES`] the line is quarantined to uncompressed
    /// storage.
    fault_strikes: HashMap<u64, u8>,
    /// Lines pinned to uncompressed storage after repeated corruption.
    quarantined_lines: HashSet<u64>,
    /// Fault-budget exhaustion raised inside an event handler; the run
    /// loop surfaces it as the run's error after the handler returns.
    pending_fault_error: Option<SimError>,
}

impl System {
    /// Assembles a system for `cfg` running `spec` on every core.
    pub fn new(cfg: SystemConfig, spec: &WorkloadSpec) -> Self {
        cfg.validate();
        spec.validate();
        let n = usize::from(cfg.cores);
        let trace = knobs().trace.then(|| Box::new(EngineTrace::new(&TraceOptions::default())));
        let next_sample = trace.as_ref().map_or(u64::MAX, |t| t.next_sample);
        let l1_cfg = SetAssocConfig::with_capacity(cfg.l1_bytes, cfg.l1_ways);
        let values = spec.value_profile(cfg.seed);
        let cores = (0..cfg.cores)
            .map(|c| Some(Box::new(Core::new(c, CoreGenerator::new(spec, c, cfg.seed)))))
            .collect();
        // Resolve the codec once: the sizing fn and latency model become
        // plain fields so the event loop never matches on the kind.
        let codec_segments = cfg.codec.segments_fn();
        let codec_image = cfg.codec.image_fn();
        let codec_decomp = cfg.codec.decompression_latency(cfg.decompression_latency);
        let mut sys = System {
            values,
            codec_segments,
            codec_image,
            codec_decomp,
            now: 0,
            events: EventQueue::new(),
            cores,
            l1s: (0..n).map(|_| [L1::new(l1_cfg), L1::new(l1_cfg)]).collect(),
            core_mshrs: (0..n).map(|_| AddrMap::with_capacity(cfg.mshrs_per_core * 2)).collect(),
            l2: L2Cache::new(cfg.l2_bytes, cfg.uses_vsc()),
            l2_evicted: Vec::new(),
            bank_free: vec![0; cfg.l2_banks],
            l2_mshrs: AddrMap::with_capacity(64),
            waiter_pool: Vec::new(),
            link: Channel::new(cfg.link, cfg.clock_ghz),
            mem: MemoryController::new(cfg.mem_latency),
            pf_l2: (0..n)
                .map(|_| {
                    StridePrefetcher::new(PrefetcherConfig {
                        startup_prefetches: cfg.l2_prefetch_degree,
                        ..PrefetcherConfig::l2()
                    })
                })
                .collect(),
            th_l2: PrefetchThrottle::new(cfg.l2_prefetch_degree),
            pf_queue: (0..n).map(|_| VecDeque::new()).collect(),
            policy: CompressionPolicy::new(cfg.mem_latency as u32, codec_decomp as u32),
            stats: SimStats::default(),
            l2_demand_accesses: 0,
            dispatched: 0,
            last_progress_now: 0,
            last_progress_insts: 0,
            warmup_per_core: 0,
            measure_per_core: 0,
            warm_flags: vec![false; n],
            warmed: 0,
            measure_started: false,
            measure_start: 0,
            finished: 0,
            workload: spec.name,
            trace,
            next_sample,
            emergency_armed: false,
            telemetry_flushed: false,
            chaos: None,
            fault_strikes: HashMap::new(),
            quarantined_lines: HashSet::new(),
            pending_fault_error: None,
            cfg,
        };
        sys.set_chaos(knobs().chaos);
        sys
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    // ------------------------------------------------------------ tracing

    /// Overrides the `CMPSIM_TRACE` knob for this system:
    /// `Some(opts)` arms the flight recorder and sampler, `None` disarms
    /// them. Tests use this instead of mutating the (process-global,
    /// cached) environment, which would race with parallel tests.
    pub fn set_tracing(&mut self, opts: Option<TraceOptions>) {
        self.trace = opts.map(|o| Box::new(EngineTrace::new(&o)));
        self.next_sample = self.trace.as_ref().map_or(u64::MAX, |t| t.next_sample);
        self.emergency_armed = false;
    }

    /// Overrides the `CMPSIM_CHAOS` knob for this system:
    /// `Some(plan)` arms seeded fault injection, `None` disarms it. Tests
    /// use this instead of mutating the process-global environment. Arming
    /// chaos with no trace configured also arms a recorder-only emergency
    /// trace, so a [`SimError::FaultBudgetExhausted`] abort always carries
    /// a flight-recorder tail.
    pub fn set_chaos(&mut self, plan: Option<FaultPlan>) {
        self.chaos = plan;
        if self.chaos.is_some() && self.trace.is_none() {
            self.trace = Some(Box::new(EngineTrace::emergency()));
            self.next_sample = u64::MAX;
        }
    }

    /// Whether a trace (configured or emergency) is currently armed.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The flight recorder, when tracing is armed.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.trace.as_ref().map(|t| &t.recorder)
    }

    /// Series rows sampled so far (for tests and in-memory consumers).
    pub fn telemetry_rows(&self) -> usize {
        self.trace.as_ref().map(|t| t.series.len()).unwrap_or(0)
    }

    /// Records one flight-recorder event at simulated time `time`.
    /// With tracing off this is a single branch on a cached option; the
    /// recording path is outlined as cold so the ~20 instrumentation
    /// sites cost the hot handlers a predictable not-taken branch, not
    /// inlined ring-buffer code.
    #[inline(always)]
    fn trace_at(&mut self, time: u64, kind: TraceKind, unit: u8, flags: u16, arg: u32, addr: u64) {
        if self.trace.is_some() {
            self.trace_at_cold(time, kind, unit, flags, arg, addr);
        }
    }

    #[cold]
    #[inline(never)]
    fn trace_at_cold(
        &mut self,
        time: u64,
        kind: TraceKind,
        unit: u8,
        flags: u16,
        arg: u32,
        addr: u64,
    ) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.recorder.push(Record { time, addr, kind: kind as u8, unit, flags, arg });
        }
    }

    /// Records one flight-recorder event at the current event time.
    #[inline]
    fn trace_event(&mut self, kind: TraceKind, unit: u8, flags: u16, arg: u32, addr: u64) {
        self.trace_at(self.now, kind, unit, flags, arg, addr);
    }

    /// Takes one cycle-sampled telemetry row. Only called when tracing
    /// is armed and the sample is due; reads engine state, never mutates
    /// anything the simulation consults.
    #[cold]
    #[inline(never)]
    fn take_sample(&mut self) {
        let elapsed = self
            .now
            .saturating_sub(if self.measure_started { self.measure_start } else { 0 });
        let sample = TelemetrySample {
            t: self.now,
            l2_capacity_ratio: self.l2.capacity_ratio(),
            compression_ratio: self.stats.compression_ratio(),
            link_utilization_pct: self.link.utilization_pct(elapsed),
            link_total_bytes: self.link.stats().total_bytes,
            core_mshr_entries: self.core_mshrs.iter().map(|m| m.len() as u64).sum(),
            l2_fetches_in_flight: self.l2_mshrs.len() as u64,
            events: self.dispatched,
            retired: self.total_retired(),
            core_ipc: self
                .cores
                .iter()
                .map(|slot| {
                    slot.as_ref()
                        .map(|c| {
                            if c.cycle == 0 {
                                0.0
                            } else {
                                c.insts as f64 / c.cycle as f64
                            }
                        })
                        .unwrap_or(0.0)
                })
                .collect(),
        };
        if let Some(t) = self.trace.as_deref_mut() {
            t.series.push(sample.to_json_line());
            t.next_sample = self.now.saturating_add(t.sample_period);
            self.next_sample = t.next_sample;
        }
    }

    /// Writes the buffered series artifact (header + samples) to the
    /// trace's output directory, once per run, through a tempfile and
    /// rename so `timeline --check` never reads a torn file. Failures are
    /// reported to stderr and never affect the simulation result.
    fn flush_telemetry(&mut self) {
        if self.telemetry_flushed {
            return;
        }
        let Some(t) = self.trace.as_deref() else { return };
        let Some(dir) = t.out_dir.clone() else { return };
        if t.series.is_empty() {
            return;
        }
        self.telemetry_flushed = true;
        let seq = harness_telemetry::next_artifact_seq();
        let path = dir.join(format!("{}-{seq}.jsonl", self.workload));
        let header = format!(
            "{{\"schema\":\"cmpsim-telemetry-v1\",\"workload\":{},\"cores\":{},\
             \"seed\":{},\"cache_compression\":{},\"link_compression\":{},\
             \"prefetch\":{},\"sample_period\":{},\"clock_ghz\":{},\
             \"ring_dropped\":{}}}",
            harness_telemetry::json_escape(self.workload),
            self.cfg.cores,
            self.cfg.seed,
            self.cfg.cache_compression,
            self.cfg.link_compression,
            harness_telemetry::json_escape(&format!("{:?}", self.cfg.prefetch)),
            t.sample_period,
            self.cfg.clock_ghz,
            t.recorder.dropped(),
        );
        let body = format!("{header}\n{}", t.series.to_jsonl());
        if let Err(e) = cmpsim_harness::metrics::write_atomic(&path, &body) {
            eprintln!("cmpsim: telemetry write to {} failed: {e}", path.display());
        }
    }

    // ---------------------------------------------------------------- run

    /// Warms up for `warmup_per_core` instructions per core (stats
    /// frozen), then measures a fixed quota of `measure_per_core`
    /// instructions per core. Returns the measured counters and runtime.
    ///
    /// # Errors
    ///
    /// - [`SimError::Livelock`] if the forward-progress watchdog sees no
    ///   instruction retire for `cfg.livelock_cycle_budget` cycles, or if
    ///   the event queue drains with unfinished cores (a lost wakeup).
    ///   The error carries a diagnostic dump of per-core stall states,
    ///   in-flight fetches and link backlogs.
    /// - [`SimError::InvariantViolation`] if sampled structural checks
    ///   are enabled (`cfg.check_invariants` / `CMPSIM_CHECK=1`) and one
    ///   fails.
    ///
    /// # Panics
    ///
    /// Panics if `measure_per_core` is 0, or if either length exceeds
    /// [`knobs::MAX_INSTRUCTIONS`], past which the per-core quotas could
    /// wrap.
    pub fn run(
        &mut self,
        warmup_per_core: u64,
        measure_per_core: u64,
    ) -> Result<RunResult, SimError> {
        let result = self.run_inner(warmup_per_core, measure_per_core);
        // Series artifacts are flushed on success *and* failure: a
        // partial timeline of a livelocked run is exactly the forensic
        // record the trace exists for.
        self.flush_telemetry();
        result
    }

    fn run_inner(
        &mut self,
        warmup_per_core: u64,
        measure_per_core: u64,
    ) -> Result<RunResult, SimError> {
        assert!(measure_per_core > 0, "nothing to measure");
        let max = knobs::MAX_INSTRUCTIONS;
        assert!(
            warmup_per_core <= max && measure_per_core <= max,
            "a run of {warmup_per_core} + {measure_per_core} instructions per core exceeds the bound of {max}"
        );
        let host_start = Instant::now();
        self.warmup_per_core = warmup_per_core;
        self.measure_per_core = measure_per_core;
        if warmup_per_core == 0 {
            self.measure_started = true;
            self.measure_start = 0;
            for c in self.cores.iter_mut().flatten() {
                c.quota = measure_per_core;
            }
        }
        for c in 0..self.cfg.cores {
            self.schedule(0, Event::CoreStep { core: c });
        }
        self.last_progress_now = self.now;
        self.last_progress_insts = self.total_retired();
        while let Some((time, ev)) = self.events.pop() {
            if self.finished == usize::from(self.cfg.cores) {
                break;
            }
            self.now = time;
            self.watchdog_tick()?;
            if self.now >= self.next_sample {
                self.take_sample();
            }
            self.dispatch(ev);
            self.dispatched += 1;
            if let Some(err) = self.pending_fault_error.take() {
                return Err(err);
            }
            if self.cfg.check_invariants && self.dispatched.is_multiple_of(INVARIANT_SAMPLE_PERIOD) {
                self.check_invariants_now()?;
            }
        }
        if self.finished < usize::from(self.cfg.cores) {
            return Err(self.livelock_error(0));
        }
        if self.cfg.check_invariants {
            self.check_invariants_now()?;
        }
        let host_nanos = host_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        Ok(self.collect(host_nanos))
    }

    /// Total instructions retired across all cores (warmup + measure).
    fn total_retired(&self) -> u64 {
        self.cores.iter().flatten().map(|c| c.insts).sum()
    }

    /// Forward-progress watchdog: every `livelock_cycle_budget` cycles of
    /// event time, at least one instruction must have retired somewhere.
    fn watchdog_tick(&mut self) -> Result<(), SimError> {
        let budget = self.cfg.livelock_cycle_budget;
        if budget == 0 || self.now.saturating_sub(self.last_progress_now) < budget {
            return Ok(());
        }
        let retired = self.total_retired();
        if retired == self.last_progress_insts {
            if self.trace.is_none() && !self.emergency_armed {
                // Tracing is off, so no events of the stalled window were
                // captured. Arm a recorder-only emergency trace and give
                // the watchdog one more quiet window: the run still fails
                // (nothing here feeds the simulation), but the eventual
                // error carries the final window of events.
                self.emergency_armed = true;
                self.trace = Some(Box::new(EngineTrace::emergency()));
                self.next_sample = u64::MAX; // recorder-only: never sample
                self.last_progress_now = self.now;
                return Ok(());
            }
            return Err(self.livelock_error(self.now - self.last_progress_now));
        }
        self.last_progress_insts = retired;
        self.last_progress_now = self.now;
        Ok(())
    }

    /// Builds the livelock diagnostic dump. `window == 0` means the event
    /// queue drained with unfinished cores rather than a quiet-window
    /// timeout.
    fn livelock_error(&self, window: u64) -> SimError {
        use std::fmt::Write as _;
        let mut d = String::new();
        if window == 0 {
            let _ = writeln!(
                d,
                "  event queue drained with {} of {} cores unfinished (lost wakeup)",
                usize::from(self.cfg.cores) - self.finished,
                self.cfg.cores
            );
        }
        for (i, slot) in self.cores.iter().enumerate() {
            if let Some(core) = slot {
                let _ = writeln!(
                    d,
                    "  core {i}: waiting={:?} retired={} outstanding={} mshr_entries={} pf_queue={}",
                    core.waiting,
                    core.insts,
                    core.outstanding,
                    self.core_mshrs[i].len(),
                    self.pf_queue[i].len()
                );
            }
        }
        let _ = writeln!(
            d,
            "  l2 fetches in flight: {} (resident lines: {})",
            self.l2_mshrs.len(),
            self.l2.valid_lines()
        );
        let _ = writeln!(
            d,
            "  link backlog [request, data] = {:?} cycles",
            self.link.lane_backlog(self.now)
        );
        let _ = write!(
            d,
            "  l2 bank busy (cycles past now): {:?}",
            self.bank_free.iter().map(|b| b.saturating_sub(self.now)).collect::<Vec<_>>()
        );
        // The flight recorder replaces the old bespoke in-flight walk:
        // the last events *are* the stalled window's history (who missed,
        // what the link carried, which throttles moved).
        let recent_events = match &self.trace {
            Some(t) => {
                if t.emergency {
                    let _ = write!(
                        d,
                        "\n  flight recorder: armed on demand after the first quiet window"
                    );
                }
                if t.recorder.dropped() > 0 {
                    let _ = write!(
                        d,
                        "\n  flight recorder: {} older events dropped (ring capacity {})",
                        t.recorder.dropped(),
                        t.recorder.capacity()
                    );
                }
                t.recorder
                    .last(LIVELOCK_EVENT_WINDOW)
                    .iter()
                    .map(render_record)
                    .collect()
            }
            None => Vec::new(),
        };
        SimError::Livelock { cycle: self.now, window, diagnostic: d, recent_events }
    }

    /// Raises a [`SimError::FaultBudgetExhausted`] with the recorder tail
    /// (chaos arming guarantees a recorder exists) for the run loop to
    /// surface after the current handler returns.
    fn raise_fault_budget(&mut self, site: &'static str, addr: u64, attempts: u32) {
        let recent_events = self
            .trace
            .as_ref()
            .map(|t| t.recorder.last(LIVELOCK_EVENT_WINDOW).iter().map(render_record).collect())
            .unwrap_or_default();
        self.pending_fault_error = Some(SimError::FaultBudgetExhausted {
            cycle: self.now,
            site,
            addr,
            attempts,
            recent_events,
        });
    }

    /// Recovers a link transfer faulted at chaos site `site` (a dropped
    /// request or a corrupted data response): the receiver NACKs it, and
    /// `resend(next_attempt)` is scheduled `probe_latency << next_attempt`
    /// cycles after the faulted transfer finished at `done`, until
    /// [`MAX_LINK_ATTEMPTS`] deliveries have failed and the run aborts.
    fn retransmit(
        &mut self,
        site: FaultSite,
        addr: BlockAddr,
        attempt: u8,
        done: u64,
        resend: impl FnOnce(u8) -> Event,
    ) {
        self.trace_event(TraceKind::Fault, 0, site as u16, u32::from(attempt) + 1, addr.0);
        let next = attempt + 1;
        if next >= MAX_LINK_ATTEMPTS {
            self.raise_fault_budget(site.label(), addr.0, u32::from(next));
            return;
        }
        self.stats.faults.link_retransmits += 1;
        let backoff = self.cfg.probe_latency << next;
        self.schedule(done + backoff, resend(next));
        self.trace_event(TraceKind::Fault, 0, site as u16 | 8, u32::from(next), addr.0);
    }

    /// Full structural invariant sweep (sampled from `run`): VSC segment
    /// accounting, directory owner/sharer consistency, link flit
    /// conservation, and per-core MSHR budget accounting.
    fn check_invariants_now(&self) -> Result<(), SimError> {
        let at = |subsystem, detail| SimError::InvariantViolation {
            cycle: self.now,
            subsystem,
            detail,
        };
        self.l2.check_invariants().map_err(|e| at("l2", e))?;
        self.link.stats().check().map_err(|e| at("link", e))?;
        // Codec round-trip law, probed on a cycle-derived address: the
        // configured codec's fast decoder must reproduce the line the
        // sizing path charged for, and the size must stay in the segment
        // frame. Check-only — the probe reads the pure value model and
        // touches no simulation state.
        let probe = self.values.line_bytes(self.now ^ 0x9E37_79B9_7F4A_7C15);
        if (self.codec_image)(&probe) != probe {
            return Err(at(
                "codec",
                "compress → decompress round trip is not the identity".to_string(),
            ));
        }
        let seg = (self.codec_segments)(&probe);
        if seg == 0 || seg > MAX_SEGMENTS {
            return Err(at(
                "codec",
                format!("sized probe line at {seg} segments, outside 1..={MAX_SEGMENTS}"),
            ));
        }
        for (i, slot) in self.cores.iter().enumerate() {
            if let Some(core) = slot {
                if core.outstanding > self.cfg.mshrs_per_core {
                    return Err(at(
                        "core",
                        format!(
                            "core {i}: {} outstanding requests exceed {} MSHRs",
                            core.outstanding, self.cfg.mshrs_per_core
                        ),
                    ));
                }
                if self.core_mshrs[i].len() > core.outstanding {
                    return Err(at(
                        "core",
                        format!(
                            "core {i}: {} MSHR entries but only {} outstanding charges",
                            self.core_mshrs[i].len(),
                            core.outstanding
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn collect(&mut self, host_nanos: u64) -> RunResult {
        self.stats.link = *self.link.stats();
        self.stats.mem_reads = self.mem.stats().reads;
        self.stats.mem_writes = self.mem.stats().writes;
        self.stats.faults.mem_stall_bursts = self.mem.stats().stall_bursts;
        self.stats.faults.mem_stall_cycles = self.mem.stats().stall_cycles;
        let finish = self
            .cores
            .iter()
            .flatten()
            .map(|c| c.finished_at.unwrap_or(c.cycle))
            .max()
            .unwrap_or(self.now);
        RunResult {
            stats: self.stats.clone(),
            cycles: finish.saturating_sub(self.measure_start),
            clock_ghz: self.cfg.clock_ghz,
            events: self.dispatched,
            retired: self.total_retired(),
            host_nanos,
        }
    }

    fn schedule(&mut self, time: u64, ev: Event) {
        self.events.schedule(time, ev);
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::CoreStep { core } => self.step_core(usize::from(core)),
            Event::L2Access { core, addr, store, upgrade, origin, l1 } => {
                self.handle_l2_access(usize::from(core), addr, store, upgrade, origin, l1)
            }
            Event::LinkRequest { addr, attempt } => self.handle_link_request(addr, attempt),
            Event::MemResponse { addr, attempt } => self.handle_mem_response(addr, attempt),
            Event::L2Fill { addr, sized } => self.handle_l2_fill(addr, sized),
            Event::L1Fill { core, l1, addr, prefetched, store } => {
                self.handle_l1_fill(usize::from(core), l1, addr, prefetched, store)
            }
        }
    }

    // ------------------------------------------------------------ helpers

    /// Configured codec's segment count of a line's (deterministic)
    /// contents.
    fn segments_of(&self, addr: BlockAddr) -> u8 {
        (self.codec_segments)(&self.values.line_bytes(addr.0))
    }

    /// Segments a data message for `addr` occupies on the link.
    fn link_segments(&self, addr: BlockAddr) -> u8 {
        if self.cfg.link_compression {
            self.segments_of(addr)
        } else {
            MAX_SEGMENTS
        }
    }

    /// Segments `addr` occupies when stored in the L2, reusing `sized`
    /// (the fill's carried size, 0 if none) so a fetched line is sized
    /// once. A line quarantined by the fault-recovery path (chaos runs
    /// only) is pinned to uncompressed storage regardless of policy.
    fn store_segments(&self, addr: BlockAddr, sized: u8) -> u8 {
        if self.chaos.is_some() && self.quarantined_lines.contains(&addr.0) {
            return MAX_SEGMENTS;
        }
        if self.cfg.cache_compression {
            let compress = !self.cfg.adaptive_compression
                || self.policy.decision() == CompressionDecision::Compress;
            if compress {
                return if sized == 0 { self.segments_of(addr) } else { sized };
            }
        }
        MAX_SEGMENTS
    }

    fn adaptive_pf(&self) -> bool {
        self.cfg.prefetch == PrefetchMode::Adaptive
    }

    /// Core `c`'s L1 on side `kind`.
    fn l1(&mut self, c: usize, kind: L1Kind) -> &mut L1 {
        &mut self.l1s[c][kind as usize]
    }

    /// The counters of side `kind`, summed over all cores.
    fn l1_stats(&mut self, kind: L1Kind) -> &mut LevelStats {
        match kind {
            L1Kind::I => &mut self.stats.l1i,
            L1Kind::D => &mut self.stats.l1d,
        }
    }

    fn l1_degree(&self, c: usize, kind: L1Kind) -> u8 {
        match self.cfg.prefetch {
            PrefetchMode::Off => 0,
            PrefetchMode::Stride => PrefetcherConfig::l1().startup_prefetches,
            PrefetchMode::Adaptive => self.l1s[c][kind as usize].th.degree(),
        }
    }

    fn l2_degree(&self) -> u8 {
        match self.cfg.prefetch {
            PrefetchMode::Off => 0,
            PrefetchMode::Stride => self.cfg.l2_prefetch_degree,
            PrefetchMode::Adaptive => self.th_l2.degree(),
        }
    }

    fn div_ceil_width(&self, insts: u64) -> u64 {
        insts.div_ceil(self.cfg.issue_width)
    }

    // --------------------------------------------------------- core steps

    fn step_core(&mut self, c: usize) {
        let Some(mut core) = self.cores[c].take() else { return };
        if matches!(core.waiting, Wait::Done) {
            self.cores[c] = Some(core);
            return;
        }
        core.cycle = core.cycle.max(self.now);
        core.waiting = Wait::Ready;
        let insts_before = core.insts;

        loop {
            if core.insts >= core.quota {
                self.finish_core(&mut core);
                break;
            }
            let issuable = core.issuable(self.cfg.rob_size);
            if issuable == 0 {
                core.waiting = Wait::Rob;
                break;
            }
            let mut ev = core.next_event();
            if ev.gap > issuable {
                core.insts += issuable;
                core.cycle += self.div_ceil_width(issuable);
                if self.measure_started {
                    self.stats.instructions += issuable;
                }
                ev.gap -= issuable;
                core.pending = Some(ev);
                core.waiting = Wait::Rob;
                self.check_warmup(c, &mut core);
                break;
            }
            let remaining = core.quota - core.insts;
            if ev.gap > remaining {
                core.insts += remaining;
                core.cycle += self.div_ceil_width(remaining);
                if self.measure_started {
                    self.stats.instructions += remaining;
                }
                self.finish_core(&mut core);
                break;
            }
            core.insts += ev.gap;
            core.cycle += self.div_ceil_width(ev.gap);
            if self.measure_started {
                self.stats.instructions += ev.gap;
            }
            self.check_warmup(c, &mut core);

            if !self.access_l1(c, &mut core, ev.event) {
                break;
            }
        }
        if self.trace.is_some() {
            let retired = core.insts - insts_before;
            if retired > 0 {
                self.trace_at(
                    core.cycle,
                    TraceKind::Retire,
                    c as u8,
                    0,
                    retired.min(u64::from(u32::MAX)) as u32,
                    0,
                );
            }
            let (code, addr) = match core.waiting {
                Wait::Ready => (0u16, 0u64),
                Wait::IFetch(a) => (1, a.0),
                Wait::Load(a) => (2, a.0),
                Wait::Rob => (3, 0),
                Wait::Mshr => (4, 0),
                Wait::Done => (5, 0),
            };
            if code != 0 {
                self.trace_at(core.cycle, TraceKind::Stall, c as u8, code, 0, addr);
            }
        }
        self.cores[c] = Some(core);
    }

    fn finish_core(&mut self, core: &mut Core) {
        if core.finished_at.is_none() {
            core.finished_at = Some(core.cycle);
            core.waiting = Wait::Done;
            self.finished += 1;
        }
    }

    fn check_warmup(&mut self, c: usize, core: &mut Core) {
        if self.measure_started || self.warm_flags[c] || core.insts < self.warmup_per_core {
            return;
        }
        self.warm_flags[c] = true;
        self.warmed += 1;
        if self.warmed == usize::from(self.cfg.cores) {
            self.begin_measure(c, core);
        }
    }

    fn begin_measure(&mut self, current: usize, core: &mut Core) {
        self.measure_started = true;
        self.measure_start = self.now.max(core.cycle);
        self.stats = SimStats::default();
        self.link.reset_stats();
        self.mem.reset_stats();
        self.l2.reset_stats();
        for l1 in self.l1s.iter_mut().flatten() {
            l1.cache.reset_stats();
            l1.pf.reset_stats();
        }
        for pf in &mut self.pf_l2 {
            pf.reset_stats();
        }
        self.l2_demand_accesses = 0;
        core.quota = core.insts + self.measure_per_core;
        for (i, slot) in self.cores.iter_mut().enumerate() {
            if i == current {
                continue;
            }
            if let Some(c) = slot.as_mut() {
                c.quota = c.insts + self.measure_per_core;
            }
        }
    }

    /// Handles one L1 access. An instruction fetch is a load that the
    /// in-order frontend always stalls on; a data access stalls the core
    /// only when it is a dependent load. Returns false when the core
    /// stalls.
    fn access_l1(&mut self, c: usize, core: &mut Core, event: TraceEvent) -> bool {
        // `tracked`: the access holds a ROB slot until its fill.
        let (kind, line, store, wait, tracked, stalls) = match event {
            TraceEvent::IFetch(line) => (L1Kind::I, line, false, Wait::IFetch(line), false, true),
            TraceEvent::Data { kind, line, dependent } => {
                let load = !kind.is_write();
                (L1Kind::D, line, !load, Wait::Load(line), load, load && dependent)
            }
        };
        // L1Miss flags (DESIGN §10); a merge adds bit 2.
        let flags = kind as u16 | (u16::from(store) << 1);
        if let Some((state, first)) = self.l1(c, kind).cache.lookup(line) {
            let needs_upgrade = store && *state == MsiState::Shared;
            let s = self.l1_stats(kind);
            s.accesses += 1;
            s.hits += 1;
            s.prefetch_hits += u64::from(first);
            if first && self.adaptive_pf() && self.l1(c, kind).th.record_useful() {
                let deg = u32::from(self.l1(c, kind).th.degree());
                let up = 0b100 | kind as u16;
                self.trace_at(core.cycle, TraceKind::AdaptiveMove, c as u8, up, deg, line.0);
            }
            if needs_upgrade
                && !self.core_mshrs[c].contains_key(line.0)
                && core.outstanding < self.cfg.mshrs_per_core
            {
                self.stats.coherence.upgrades += 1;
                self.trace_at(core.cycle, TraceKind::Coherence, c as u8, 3, 0, line.0);
                self.core_mshrs[c].insert(line.0, ());
                core.outstanding += 1;
                let at = core.cycle + self.cfg.l1_latency + self.cfg.l1_to_l2_latency;
                self.schedule(
                    at,
                    Event::L2Access {
                        core: c as u8,
                        addr: line,
                        store: true,
                        upgrade: true,
                        origin: Origin::Demand,
                        l1: kind,
                    },
                );
            }
            let deg = self.l1_degree(c, kind);
            if deg > 0 {
                if let Some(next) = self.l1(c, kind).pf.on_access(line, deg) {
                    self.issue_l1_prefetch(c, core, kind, next, core.cycle);
                }
            }
            return true;
        }

        // Miss. Merge into an in-flight request when possible.
        let seq = core.insts;
        if self.core_mshrs[c].contains_key(line.0) {
            let s = self.l1_stats(kind);
            s.accesses += 1;
            s.demand_misses += 1;
            if tracked {
                core.track_load(seq, line);
            }
            self.trace_at(core.cycle, TraceKind::L1Miss, c as u8, 0b100 | flags, 0, line.0);
        } else {
            if core.outstanding >= self.cfg.mshrs_per_core {
                core.pending = Some(cmpsim_trace::TimedEvent { gap: 0, event });
                core.waiting = Wait::Mshr;
                return false;
            }
            let s = self.l1_stats(kind);
            s.accesses += 1;
            s.demand_misses += 1;
            self.trace_at(core.cycle, TraceKind::L1Miss, c as u8, flags, 0, line.0);
            let deg = self.l1_degree(c, kind);
            let burst =
                if deg > 0 { self.l1(c, kind).pf.on_miss(line, deg) } else { Burst::default() };
            if tracked {
                core.track_load(seq, line);
            }
            self.core_mshrs[c].insert(line.0, ());
            core.outstanding += 1;
            let at = core.cycle + self.cfg.l1_latency + self.cfg.l1_to_l2_latency;
            self.schedule(
                at,
                Event::L2Access {
                    core: c as u8,
                    addr: line,
                    store,
                    upgrade: false,
                    origin: Origin::Demand,
                    l1: kind,
                },
            );
            for p in burst {
                self.issue_l1_prefetch(c, core, kind, p, core.cycle);
            }
        }
        if stalls {
            core.waiting = wait;
        }
        !stalls
    }

    fn issue_l1_prefetch(&mut self, c: usize, core: &mut Core, kind: L1Kind, addr: BlockAddr, at: u64) {
        if self.l1(c, kind).cache.contains(addr) || self.core_mshrs[c].contains_key(addr.0) {
            return;
        }
        if core.outstanding >= self.cfg.mshrs_per_core {
            self.stats.dropped_prefetches += 1;
            return;
        }
        self.l1_stats(kind).prefetches_issued += 1;
        self.trace_at(at, TraceKind::PrefetchIssue, c as u8, kind as u16, 0, addr.0);
        self.core_mshrs[c].insert(addr.0, ());
        core.outstanding += 1;
        self.schedule(
            at + self.cfg.l1_to_l2_latency,
            Event::L2Access {
                core: c as u8,
                addr,
                store: false,
                upgrade: false,
                origin: Origin::L1Prefetch,
                l1: kind,
            },
        );
    }

    // ------------------------------------------------------------ the L2

    #[allow(clippy::too_many_arguments)]
    fn handle_l2_access(
        &mut self,
        c: usize,
        addr: BlockAddr,
        store: bool,
        upgrade: bool,
        origin: Origin,
        l1: L1Kind,
    ) {
        let bank = addr.bank_index(self.cfg.l2_banks);
        let start = self.now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + BANK_OCCUPANCY;
        let tag_done = start + self.cfg.l2_latency;
        let demandish = origin != Origin::L2Prefetch;

        if self.chaos.is_some() {
            self.chaos_codec_site(addr);
        }
        let info = self.l2.lookup(addr);

        if origin == Origin::Demand {
            self.l2_demand_accesses += 1;
            if self.l2.is_vsc() && self.l2_demand_accesses.is_multiple_of(CAPACITY_SAMPLE_PERIOD) {
                self.stats.capacity_ratio_sum += self.l2.capacity_ratio();
                self.stats.capacity_ratio_samples += 1;
            }
        }

        if info.hit {
            let decomp = if info.compressed && !upgrade {
                self.codec_decomp
            } else {
                0
            };
            // A first touch by an L1 prefetch still means the L2 prefetch
            // was useful (the line is on its way to the core), so credit
            // it for any demand-side origin.
            if demandish && info.prefetch_first_touch {
                self.stats.l2.prefetch_hits += 1;
                if self.adaptive_pf() && self.th_l2.record_useful() {
                    let deg = u32::from(self.th_l2.degree());
                    self.trace_event(TraceKind::AdaptiveMove, c as u8, 0b110, deg, addr.0);
                }
            }
            if origin == Origin::Demand {
                self.stats.l2.accesses += 1;
                self.stats.l2.hits += 1;
                self.trace_event(
                    TraceKind::L2Hit,
                    c as u8,
                    u16::from(info.compressed) | (u16::from(info.prefetch_first_touch) << 1),
                    0,
                    addr.0,
                );
                if info.compressed {
                    self.stats.l2_compressed_hits += 1;
                }
                self.stats.l2_hit_latency_sum += self.cfg.l2_latency + decomp;
                self.stats.l2_hit_latency_count += 1;
                if self.cfg.cache_compression && self.cfg.adaptive_compression {
                    self.policy.on_hit(info.lru_depth, info.compressed, 4);
                }
            }
            if demandish {
                let deg = self.l2_degree();
                if deg > 0 {
                    if let Some(next) = self.pf_l2[c].on_access(addr, deg) {
                        self.issue_l2_prefetch(c, next, tag_done);
                    }
                }
            }
            if origin == Origin::L2Prefetch {
                return; // already resident: redundant prefetch
            }
            // Coherence + response.
            let req = if upgrade {
                L1Request::Upgrade
            } else if store {
                L1Request::GetX
            } else {
                L1Request::GetS
            };
            let (probed, lost) = self.dir_request(c as u8, addr, req);
            let resp = tag_done
                + decomp
                + if probed { self.cfg.probe_latency } else { 0 }
                + lost * self.cfg.probe_latency;
            self.schedule(
                resp + self.cfg.l1_to_l2_latency,
                Event::L1Fill {
                    core: c as u8,
                    l1,
                    addr,
                    prefetched: origin == Origin::L1Prefetch,
                    store,
                },
            );
            return;
        }

        // ------------------------------------------------------- L2 miss
        if origin == Origin::Demand {
            self.stats.l2.accesses += 1;
            self.stats.l2.demand_misses += 1;
            self.trace_event(TraceKind::L2Miss, c as u8, u16::from(info.victim_tag), 0, addr.0);
            if info.victim_tag {
                self.stats.l2_victim_tag_hits += 1;
                if self.cfg.cache_compression && self.cfg.adaptive_compression {
                    self.policy.on_victim_tag_miss();
                }
            }
            if self.adaptive_pf() && self.l2.harmful_prefetch_signal(addr) {
                self.stats.harmful_prefetch_detections += 1;
                if self.th_l2.record_bad() {
                    let deg = u32::from(self.th_l2.degree());
                    self.trace_event(TraceKind::AdaptiveMove, c as u8, 0b010, deg, addr.0);
                }
            }
        }
        if demandish {
            let deg = self.l2_degree();
            if deg > 0 {
                let burst = self.pf_l2[c].on_miss(addr, deg);
                for p in burst {
                    self.issue_l2_prefetch(c, p, tag_done);
                }
            }
        }

        if let Some(m) = self.l2_mshrs.get_mut(addr.0) {
            if origin != Origin::L2Prefetch {
                if m.waiters.capacity() == 0 {
                    m.waiters = self.waiter_pool.pop().unwrap_or_default();
                }
                m.waiters.push(Waiter {
                    core: c as u8,
                    l1,
                    store,
                    prefetched: origin == Origin::L1Prefetch,
                });
            }
            return;
        }
        let mut mshr = L2Mshr { waiters: Vec::new(), prefetch_core: None };
        if origin == Origin::L2Prefetch {
            mshr.prefetch_core = Some(c as u8);
        } else {
            mshr.waiters = self.waiter_pool.pop().unwrap_or_default();
            mshr.waiters.push(Waiter {
                core: c as u8,
                l1,
                store,
                prefetched: origin == Origin::L1Prefetch,
            });
        }
        self.l2_mshrs.insert(addr.0, mshr);
        self.schedule(tag_done, Event::LinkRequest { addr, attempt: 0 });
    }

    fn handle_link_request(&mut self, addr: BlockAddr, attempt: u8) {
        let for_prefetch = self.l2_mshrs.get(addr.0).is_none_or(L2Mshr::for_prefetch);
        let msg = Message::read_request(addr, for_prefetch);
        if let Some(plan) = self.chaos {
            // Link-drop site: the request's flits burn bandwidth but the
            // message never arrives. Recovery is a NACK-style retransmit
            // with exponential backoff, bounded by MAX_LINK_ATTEMPTS.
            let key = addr.0 ^ (u64::from(attempt) << 56);
            if plan.should_inject(FaultSite::LinkRequest, self.now, key) {
                let tr = self.link.send_dropped(self.now, &msg);
                self.stats.faults.link_faults_injected += 1;
                self.retransmit(FaultSite::LinkRequest, addr, attempt, tr.done, |attempt| {
                    Event::LinkRequest { addr, attempt }
                });
                return;
            }
        }
        let tr = self.link.send(self.now, &msg);
        self.trace_event(TraceKind::LinkFlit, 0, 0, msg.size_bytes() as u32, addr.0);
        // Memory-stall site: the controller degrades gracefully by
        // absorbing a bounded stall burst before responding.
        let mut stall = 0;
        if let Some(plan) = self.chaos {
            if plan.should_inject(FaultSite::MemStall, self.now, addr.0) {
                let entropy = plan.roll(FaultSite::MemStall, self.now, addr.0);
                stall = self.mem.stall_burst(entropy);
                self.trace_event(TraceKind::Fault, 0, FaultSite::MemStall as u16, stall as u32, addr.0);
            }
        }
        self.schedule(
            tr.done + self.cfg.mem_latency + stall,
            Event::MemResponse { addr, attempt: 0 },
        );
    }

    fn handle_mem_response(&mut self, addr: BlockAddr, attempt: u8) {
        let sent = self.link_segments(addr);
        // The link's size rides on to the L2 fill (0: not sized).
        let sized = if self.cfg.link_compression { sent } else { 0 };
        let (_, form) = self.mem.read(addr, self.now, || sent);
        let for_prefetch = self.l2_mshrs.get(addr.0).is_none_or(L2Mshr::for_prefetch);
        let msg = Message::data_response(addr, form.segments, for_prefetch);
        if let Some(plan) = self.chaos {
            // Data-corruption site: the response crosses the link (flits
            // burned) but arrives corrupt; the L2 NACKs it and memory
            // re-sends, with the same bounded backoff as request drops.
            let key = addr.0 ^ (u64::from(attempt) << 56);
            if plan.should_inject(FaultSite::LinkData, self.now, key) {
                let tr = self.link.send_corrupted(self.now, &msg);
                self.stats.faults.link_faults_injected += 1;
                // Receiver-side integrity gate: materialize the delivered
                // image through the codec's fast decoder, apply the seeded
                // in-transit flip, and verify against the pre-send
                // checksum. A single-bit flip always fails the FNV check,
                // so every corrupted delivery takes the NACK path below.
                let line = self.values.line_bytes(addr.0);
                let mut delivered = (self.codec_image)(&line);
                let bit = (plan.roll(FaultSite::LinkData, self.now, key) % 512) as u16;
                cmpsim_fpc::integrity::flip_bit(&mut delivered, bit);
                let intact = Channel::payload_intact(
                    &delivered,
                    cmpsim_fpc::integrity::line_checksum(&line),
                );
                debug_assert!(!intact, "single-bit corruption must never verify");
                if intact {
                    // Unreachable for single-bit faults; accept the fill.
                    self.trace_event(TraceKind::LinkFlit, 0, 1, msg.size_bytes() as u32, addr.0);
                    self.schedule(tr.done, Event::L2Fill { addr, sized });
                    return;
                }
                self.retransmit(FaultSite::LinkData, addr, attempt, tr.done, |attempt| {
                    Event::MemResponse { addr, attempt }
                });
                return;
            }
        }
        let tr = self.link.send(self.now, &msg);
        self.trace_event(TraceKind::LinkFlit, 0, 1, msg.size_bytes() as u32, addr.0);
        self.schedule(tr.done, Event::L2Fill { addr, sized });
    }

    /// Codec-corruption injection site (chaos runs only): a resident
    /// *compressed* line is hit by a seeded single-bit flip on its
    /// decompression path. The FNV line checksum detects it (single-bit
    /// flips are provably caught), recovery invalidates the line —
    /// recalling L1 copies, writing nothing back — so the access refetches
    /// clean data from memory, and [`QUARANTINE_STRIKES`] strikes pin the
    /// address to uncompressed storage.
    fn chaos_codec_site(&mut self, addr: BlockAddr) {
        let Some(plan) = self.chaos else { return };
        if !plan.should_inject(FaultSite::CodecLine, self.now, addr.0) {
            return;
        }
        let compressed = self.l2.segments_of(addr).is_some_and(|s| s < MAX_SEGMENTS);
        if !compressed {
            return;
        }
        self.stats.faults.codec_faults_injected += 1;
        let bit = (plan.roll(FaultSite::CodecLine, self.now, addr.0) % 512) as u16;
        // Materialize what the L2 actually stores by round-tripping the
        // line through the configured codec's fast decoder; the codec is
        // lossless, so the image equals the source line and detection is
        // unchanged — but the corruption check now exercises the real
        // dispatch-table/SWAR decode path instead of assuming it.
        let line = self.values.line_bytes(addr.0);
        let image = (self.codec_image)(&line);
        debug_assert_eq!(image, line, "codec round trip must be lossless");
        let detected = cmpsim_fpc::integrity::detects_corruption(&image, bit);
        self.trace_event(TraceKind::Fault, 0, FaultSite::CodecLine as u16, u32::from(bit), addr.0);
        if !detected {
            return;
        }
        self.stats.faults.codec_faults_detected += 1;
        if let Some(mut dir) = self.l2.invalidate(addr) {
            let actions = dir.recall_all();
            if !actions.is_empty() {
                self.apply_probes(addr, actions, true);
            }
        }
        self.stats.faults.fault_recoveries += 1;
        let strikes = {
            let s = self.fault_strikes.entry(addr.0).or_insert(0);
            *s = s.saturating_add(1);
            *s
        };
        if strikes >= QUARANTINE_STRIKES && self.quarantined_lines.insert(addr.0) {
            self.stats.faults.lines_quarantined += 1;
        }
        self.trace_event(
            TraceKind::Fault,
            0,
            FaultSite::CodecLine as u16 | 8,
            u32::from(strikes),
            addr.0,
        );
    }

    fn handle_l2_fill(&mut self, addr: BlockAddr, sized: u8) {
        let Some(mshr) = self.l2_mshrs.remove(addr.0) else { return };
        let prefetched_fill = mshr.for_prefetch();
        let seg_store = self.store_segments(addr, sized);
        let mut evicted = std::mem::take(&mut self.l2_evicted);
        self.l2.fill(addr, seg_store, prefetched_fill, DirEntry::new(), &mut evicted);
        if prefetched_fill {
            self.stats.l2.prefetch_fills += 1;
            self.trace_event(TraceKind::PrefetchFill, 0, 2, u32::from(seg_store), addr.0);
        }
        for e in evicted.drain(..) {
            self.handle_l2_eviction(e);
        }
        self.l2_evicted = evicted;

        // Service the waiters in arrival order.
        let stored_compressed = seg_store < MAX_SEGMENTS;
        let decomp = if stored_compressed { self.codec_decomp } else { 0 };
        for w in &mshr.waiters {
            let req = if w.store { L1Request::GetX } else { L1Request::GetS };
            let (_, lost) = self.dir_request(w.core, addr, req);
            self.schedule(
                self.now + self.cfg.l1_to_l2_latency + decomp + lost * self.cfg.probe_latency,
                Event::L1Fill {
                    core: w.core,
                    l1: w.l1,
                    addr,
                    prefetched: w.prefetched,
                    store: w.store,
                },
            );
        }

        let mut waiters = mshr.waiters;
        if waiters.capacity() > 0 && self.waiter_pool.len() < WAITER_POOL_CAP {
            waiters.clear();
            self.waiter_pool.push(waiters);
        }

        // A prefetch-only fetch frees its issuer's MSHR budget here.
        if let Some(pc) = mshr.prefetch_core {
            let pc = usize::from(pc);
            if let Some(core) = self.cores[pc].as_mut() {
                core.outstanding = core.outstanding.saturating_sub(1);
                if core.waiting == Wait::Mshr {
                    self.schedule(self.now, Event::CoreStep { core: pc as u8 });
                }
            }
            self.drain_pf_queue(pc);
        }
    }

    fn handle_l2_eviction(&mut self, mut e: EvictedL2) {
        let actions = e.dir.recall_all();
        if !actions.is_empty() {
            self.stats.coherence.inclusion_recalls += actions.len() as u64;
            self.apply_probes(e.addr, actions, true);
        }
        if e.was_unused_prefetch {
            self.stats.l2.useless_prefetch_evictions += 1;
            if self.adaptive_pf() && self.th_l2.record_bad() {
                let deg = u32::from(self.th_l2.degree());
                self.trace_event(TraceKind::AdaptiveMove, 0, 0b010, deg, e.addr.0);
            }
        }
        if e.dir.is_dirty() {
            self.write_back(e.addr, e.segments);
        }
    }

    /// Writes a dirty line back to memory over the link. `stored` is the
    /// line's stored size in segments, [`MAX_SEGMENTS`] if it was stored
    /// uncompressed or is unknown. A smaller count is the codec's size
    /// of the line (`store_segments` stores nothing else), so the link
    /// reuses it and the codec runs only for a line stored whole.
    fn write_back(&mut self, addr: BlockAddr, stored: u8) {
        let seg = if self.cfg.link_compression && stored < MAX_SEGMENTS {
            debug_assert_eq!(stored, self.segments_of(addr), "stored size of {addr}");
            stored
        } else {
            self.link_segments(addr)
        };
        let msg = Message::writeback(addr, seg);
        self.link.send(self.now, &msg);
        self.trace_event(TraceKind::LinkFlit, 0, 2, msg.size_bytes() as u32, addr.0);
        self.mem.write(addr, seg);
        self.trace_event(TraceKind::MemWrite, 0, 0, u32::from(seg), addr.0);
    }

    /// Sends core `core`'s request for `addr` to the line's directory
    /// entry and applies the probes it answers with. Returns whether any
    /// probe went out and how many were lost (see [`Self::apply_probes`]).
    fn dir_request(&mut self, core: u8, addr: BlockAddr, req: L1Request) -> (bool, u64) {
        let actions = match self.l2.meta_mut(addr) {
            Some(dir) => dir.handle(CoreId(core), req),
            None => DirActions::default(),
        };
        (!actions.is_empty(), self.apply_probes(addr, actions, false))
    }

    /// Applies coherence probes to the target L1s structurally. Probe
    /// latency is charged by the caller on the response path. Returns the
    /// number of probe messages lost to an armed chaos plan (each one
    /// costs the caller an extra `probe_latency` of retransmission);
    /// always 0 when chaos is disarmed. The MSI transition is applied
    /// structurally even when the delivery budget is exhausted — the
    /// protocol must not wedge — but the run then aborts with
    /// [`SimError::FaultBudgetExhausted`].
    fn apply_probes(&mut self, addr: BlockAddr, actions: DirActions, inclusion: bool) -> u64 {
        let mut lost_total = 0u64;
        for (i, a) in actions.into_iter().enumerate() {
            let t = a.target().index();
            if let Some(plan) = self.chaos {
                // Directory-message-loss site: each probe is delivered
                // with a bounded retry budget.
                let now = self.now;
                let key = addr.0 ^ ((t as u64) << 40) ^ ((i as u64) << 48);
                match deliver_with_retries(
                    |k| {
                        plan.should_inject(
                            FaultSite::DirMessage,
                            now,
                            key.wrapping_add(u64::from(k) << 56),
                        )
                    },
                    MAX_DIR_ATTEMPTS,
                ) {
                    Some(attempts) => {
                        let lost = u64::from(attempts - 1);
                        if lost > 0 {
                            self.stats.faults.dir_messages_lost += lost;
                            self.stats.faults.dir_retries += lost;
                            lost_total += lost;
                            self.trace_event(
                                TraceKind::Fault,
                                t as u8,
                                FaultSite::DirMessage as u16 | 8,
                                attempts,
                                addr.0,
                            );
                        }
                    }
                    None => {
                        self.stats.faults.dir_messages_lost += u64::from(MAX_DIR_ATTEMPTS);
                        self.trace_event(
                            TraceKind::Fault,
                            t as u8,
                            FaultSite::DirMessage as u16,
                            MAX_DIR_ATTEMPTS,
                            addr.0,
                        );
                        self.raise_fault_budget("dir-message", addr.0, MAX_DIR_ATTEMPTS);
                    }
                }
            }
            if self.trace.is_some() {
                let flags = match a {
                    DirAction::Invalidate(_) => 0,
                    DirAction::RecallDowngrade(_) => 1,
                    DirAction::RecallInvalidate(_) => 2,
                };
                self.trace_event(TraceKind::Coherence, t as u8, flags, u32::from(inclusion), addr.0);
            }
            match a {
                DirAction::Invalidate(_) | DirAction::RecallInvalidate(_) => {
                    let hit = self.l1(t, L1Kind::D).cache.invalidate(addr).is_some()
                        || self.l1(t, L1Kind::I).cache.invalidate(addr).is_some();
                    if hit && !inclusion {
                        match a {
                            DirAction::Invalidate(_) => self.stats.coherence.invalidations += 1,
                            _ => self.stats.coherence.recalls += 1,
                        }
                    }
                }
                DirAction::RecallDowngrade(_) => {
                    if let Some(state) = self.l1(t, L1Kind::D).cache.peek_mut(addr) {
                        *state = MsiState::Shared;
                    }
                    if !inclusion {
                        self.stats.coherence.recalls += 1;
                    }
                }
            }
        }
        lost_total
    }

    // ------------------------------------------------------ L2 prefetches

    fn issue_l2_prefetch(&mut self, c: usize, addr: BlockAddr, at: u64) {
        if self.l2.contains(addr) || self.l2_mshrs.contains_key(addr.0) {
            return;
        }
        let outstanding = self.cores[c].as_ref().map(|k| k.outstanding).unwrap_or(0);
        if outstanding >= self.cfg.mshrs_per_core {
            if self.pf_queue[c].len() < PF_QUEUE_LIMIT {
                if !self.pf_queue[c].contains(&addr) {
                    self.pf_queue[c].push_back(addr);
                }
            } else {
                self.stats.dropped_prefetches += 1;
            }
            return;
        }
        self.do_issue_l2_prefetch(c, addr, at);
    }

    fn do_issue_l2_prefetch(&mut self, c: usize, addr: BlockAddr, at: u64) {
        self.stats.l2.prefetches_issued += 1;
        self.trace_at(at.max(self.now), TraceKind::PrefetchIssue, c as u8, 2, 0, addr.0);
        if let Some(core) = self.cores[c].as_mut() {
            core.outstanding += 1;
        }
        self.l2_mshrs.insert(addr.0, L2Mshr { waiters: Vec::new(), prefetch_core: Some(c as u8) });
        self.schedule(at.max(self.now), Event::LinkRequest { addr, attempt: 0 });
    }

    fn drain_pf_queue(&mut self, c: usize) {
        loop {
            let outstanding = self.cores[c].as_ref().map(|k| k.outstanding).unwrap_or(usize::MAX);
            if outstanding >= self.cfg.mshrs_per_core {
                return;
            }
            let Some(addr) = self.pf_queue[c].pop_front() else { return };
            if self.l2.contains(addr) || self.l2_mshrs.contains_key(addr.0) {
                continue; // became stale while queued
            }
            if self.l2_degree() == 0 {
                continue; // throttle went to zero meanwhile
            }
            self.do_issue_l2_prefetch(c, addr, self.now);
        }
    }

    // ---------------------------------------------------------- L1 fills

    fn handle_l1_fill(&mut self, c: usize, kind: L1Kind, addr: BlockAddr, prefetched: bool, store: bool) {
        // Re-validate against the directory: a probe or inclusion recall
        // may have retargeted this line while the fill was in flight (a
        // real protocol would NACK/replay; we resolve it at fill time).
        let me = CoreId(c as u8);
        let fill_state = match self.l2.meta_mut(addr) {
            Some(dir) => {
                if store && dir.owner() != Some(me) {
                    if dir.sharers().contains(me) {
                        Some(MsiState::Shared)
                    } else {
                        None
                    }
                } else if !store && !dir.sharers().contains(me) {
                    None
                } else if store {
                    Some(MsiState::Modified)
                } else {
                    Some(MsiState::Shared)
                }
            }
            // The L2 dropped the line while the fill was in flight; the
            // inclusion recall could not reach an in-flight copy, so the
            // fill is abandoned (the access will re-miss).
            None => None,
        };
        let Some(state) = fill_state else {
            self.complete_core_mshr(c, addr);
            return;
        };
        if prefetched {
            self.trace_event(TraceKind::PrefetchFill, c as u8, kind as u16, 0, addr.0);
        }
        self.l1_stats(kind).prefetch_fills += u64::from(prefetched);
        if let Some(v) = self.l1(c, kind).cache.fill(addr, prefetched, state) {
            if v.was_unused_prefetch {
                self.l1_stats(kind).useless_prefetch_evictions += 1;
                if self.adaptive_pf() && self.l1(c, kind).th.record_bad() {
                    let deg = u32::from(self.l1(c, kind).th.degree());
                    self.trace_event(TraceKind::AdaptiveMove, c as u8, kind as u16, deg, v.addr.0);
                }
            }
            let req = if v.meta == MsiState::Modified { L1Request::PutM } else { L1Request::PutS };
            match self.l2.meta_mut(v.addr) {
                Some(dir) => {
                    let _ = dir.handle(CoreId(c as u8), req);
                }
                // Inclusion race: the L2 already dropped the line. A dirty
                // victim goes straight to memory.
                None => {
                    if v.meta == MsiState::Modified {
                        self.write_back(v.addr, MAX_SEGMENTS);
                    }
                }
            }
        }

        self.complete_core_mshr(c, addr);
    }

    /// Completes the core-side MSHR for `addr` and wakes the core when
    /// its stall condition is satisfied.
    fn complete_core_mshr(&mut self, c: usize, addr: BlockAddr) {
        let mut wake = false;
        if self.core_mshrs[c].remove(addr.0).is_some() {
            if let Some(core) = self.cores[c].as_mut() {
                debug_assert_eq!(usize::from(core.id()), c, "MSHR/core mismatch");
                core.outstanding = core.outstanding.saturating_sub(1);
                let completed = core.complete_loads(addr);
                wake = match core.waiting {
                    Wait::IFetch(a) | Wait::Load(a) => a == addr,
                    Wait::Rob => completed > 0,
                    Wait::Mshr => true,
                    Wait::Ready | Wait::Done => false,
                };
            }
        }
        if wake {
            self.schedule(self.now, Event::CoreStep { core: c as u8 });
        }
        self.drain_pf_queue(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measure quota near `u64::MAX` used to wrap in `begin_measure`:
    /// release builds measured 0 instructions and returned `Ok`.
    #[test]
    #[should_panic(expected = "exceeds the bound of 4611686018427387904")]
    fn run_lengths_past_the_instruction_bound_are_refused() {
        let spec = cmpsim_trace::workload("apsi").expect("paper workload");
        let mut sys = System::new(SystemConfig::paper_default(1), &spec);
        let _ = sys.run(1_000, u64::MAX - 5);
    }
}
