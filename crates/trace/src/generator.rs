//! The per-core event generator the simulator consumes.

use crate::data::DataStream;
use crate::inst::InstStream;
use crate::rng::{Geometric, Rng};
use crate::spec::{wrap, WorkloadSpec};
use cmpsim_cache::{AccessKind, BlockAddr};

/// Instructions per 64-byte line (4-byte fixed-width instructions).
const INSTS_PER_LINE: u64 = 16;

/// A memory-relevant event in a core's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The fetch stream crossed into a new instruction line.
    IFetch(BlockAddr),
    /// A load or store to a data line.
    Data {
        /// Load or store.
        kind: AccessKind,
        /// Target line.
        line: BlockAddr,
        /// Dependent load (address chained on the previous load): the
        /// core stalls on its completion instead of running ahead.
        dependent: bool,
    },
}

impl TraceEvent {
    /// The line this event touches.
    pub fn line(&self) -> BlockAddr {
        match *self {
            TraceEvent::IFetch(l) => l,
            TraceEvent::Data { line, .. } => line,
        }
    }
}

/// An event plus the number of instructions since the previous event.
///
/// The instruction identified by the event is *included* in the gap, so
/// summing `gap` over events reconstructs the instruction count exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Instructions retired by this event (≥ 0; an `IFetch` coinciding
    /// with a data access has gap 0 on the second event).
    pub gap: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Infinite, deterministic event stream for one core of a workload.
///
/// # Examples
///
/// ```
/// use cmpsim_trace::{workload, CoreGenerator};
///
/// let spec = workload("zeus").expect("known benchmark");
/// let mut g = CoreGenerator::new(&spec, 0, 42);
/// let ev = g.next_event();
/// assert!(ev.gap <= 16, "first events come quickly");
/// ```
/// Sequential walk state within one pool tier.
#[derive(Debug, Clone, Copy, Default)]
struct PoolWalk {
    /// Offset of the next line within the tier.
    offset: u64,
    /// Tier size in lines the walk wraps within.
    tier: u64,
    /// Base line number of the tier.
    base: u64,
    /// Remaining lines in the current run (0 = start a new one).
    left: u64,
}

#[derive(Debug, Clone)]
pub struct CoreGenerator {
    spec: WorkloadSpec,
    rng: Rng,
    inst: InstStream,
    streams: Vec<DataStream>,
    next_stream: usize,
    /// One walk per (pool, tier): [tier1, hot, cold] for shared/private.
    shared_walks: [PoolWalk; 3],
    private_walks: [PoolWalk; 3],
    /// Instructions between data accesses (`spec.mem_ratio`).
    data_gap: Geometric,
    /// Pool run length beyond the first line (`spec.pool_run_mean`).
    pool_run: Geometric,
    core: u8,
    /// Absolute index of the last emitted event's instruction.
    last_at: u64,
    /// Absolute instruction index of the next data access.
    next_data_at: u64,
    /// Absolute instruction index of the next I-line crossing.
    next_icross_at: u64,
}

impl CoreGenerator {
    /// Builds the generator for `core` of the given workload, seeded so
    /// that every `(spec, core, seed)` triple reproduces exactly.
    pub fn new(spec: &WorkloadSpec, core: u8, seed: u64) -> Self {
        spec.validate();
        let mut rng = Rng::new(seed ^ (u64::from(core) << 32) ^ 0xC0DE);
        let inst = InstStream::new(
            spec.inst_region(),
            spec.inst_hot_lines,
            spec.inst_hot_fraction,
            spec.inst_run_mean_lines,
            rng.fork(1),
        );
        let streams = (0..spec.streams_per_core)
            .map(|i| {
                DataStream::new(
                    spec.stream_region(core),
                    spec.stream_len_lines,
                    spec.accesses_per_line,
                    spec.stride_choices,
                    rng.fork(100 + i as u64),
                )
            })
            .collect();
        let mut g = CoreGenerator {
            spec: spec.clone(),
            rng,
            inst,
            streams,
            next_stream: 0,
            shared_walks: [PoolWalk::default(); 3],
            private_walks: [PoolWalk::default(); 3],
            data_gap: Geometric::new(spec.mem_ratio),
            pool_run: Geometric::new(1.0 / spec.pool_run_mean.max(1.0)),
            core,
            last_at: 0,
            next_data_at: 0,
            next_icross_at: 0,
        };
        g.next_data_at = 1 + g.sample_data_gap();
        g
    }

    fn sample_data_gap(&mut self) -> u64 {
        self.data_gap.sample(&mut self.rng)
    }

    /// Next line of a pool walk: continues the current sequential run or
    /// re-seeds one in the tier selected by the caller.
    fn walk(walk: &mut PoolWalk, rng: &mut Rng, base: u64, tier: u64, run: &Geometric) -> u64 {
        if walk.left == 0 || walk.tier != tier || walk.base != base {
            *walk = PoolWalk {
                offset: rng.below(tier.max(1)),
                tier: tier.max(1),
                base,
                left: 1 + run.sample(rng),
            };
        }
        let line = base + walk.offset;
        walk.offset = wrap(walk.offset + 1, walk.tier);
        walk.left -= 1;
        line
    }

    fn pick_data(&mut self) -> TraceEvent {
        let u = self.rng.f64();
        let spec = &self.spec;
        let (line, store_p) = if u < spec.stride_fraction {
            let idx = self.next_stream;
            self.next_stream = if idx + 1 < self.streams.len() { idx + 1 } else { 0 };
            (self.streams[idx].next_line(), spec.store_fraction)
        } else if u < spec.stride_fraction + spec.shared_fraction {
            let r = spec.shared_region();
            let t = self.rng.f64();
            let (tier, pool) = if t < spec.shared_tier1_fraction {
                (0, spec.shared_tier1_lines.max(1))
            } else if t < spec.shared_tier1_fraction + spec.shared_hot_fraction {
                (1, spec.shared_hot_lines.max(1))
            } else {
                (2, r.lines)
            };
            let line = Self::walk(
                &mut self.shared_walks[tier],
                &mut self.rng,
                r.base,
                pool,
                &self.pool_run,
            );
            (line, spec.shared_store_fraction)
        } else {
            let r = spec.private_region(self.core);
            let t = self.rng.f64();
            let (tier, pool) = if t < spec.private_tier1_fraction {
                (0, spec.private_tier1_lines.max(1))
            } else if t < spec.private_tier1_fraction + spec.private_hot_fraction {
                (1, spec.private_hot_lines.max(1))
            } else {
                (2, r.lines)
            };
            let line = Self::walk(
                &mut self.private_walks[tier],
                &mut self.rng,
                r.base,
                pool,
                &self.pool_run,
            );
            (line, spec.store_fraction)
        };
        let kind = if self.rng.chance(store_p) { AccessKind::Store } else { AccessKind::Load };
        let dependent =
            kind == AccessKind::Load && self.rng.chance(self.spec.dependent_fraction);
        TraceEvent::Data { kind, line: BlockAddr(line), dependent }
    }

    /// Produces the next event in instruction order.
    pub fn next_event(&mut self) -> TimedEvent {
        if self.next_icross_at <= self.next_data_at {
            // Fetch precedes execution at the same index.
            let at = self.next_icross_at;
            let gap = at - self.last_at;
            self.last_at = at;
            self.next_icross_at = at + INSTS_PER_LINE;
            let line = BlockAddr(self.inst.next_line());
            TimedEvent { gap, event: TraceEvent::IFetch(line) }
        } else {
            let at = self.next_data_at;
            let gap = at - self.last_at;
            self.last_at = at;
            self.next_data_at = at + 1 + self.sample_data_gap();
            let event = self.pick_data();
            TimedEvent { gap, event }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload;

    fn gen(name: &str) -> CoreGenerator {
        CoreGenerator::new(&workload(name).unwrap(), 0, 7)
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = gen("apache");
        let mut b = gen("apache");
        for _ in 0..5_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn pool_walk_step_matches_the_modulo_formula() {
        use cmpsim_harness::{gen, prop::check, prop_assert_eq};
        let cases = gen::triple(gen::u64s(1..=5000), gen::u64s(..), gen::u64s(0..1 << 40));
        check("pool_walk_step_matches_the_modulo_formula", &cases, |&(tier, raw, base)| {
            let offset = raw % (3 * tier);
            let mut walk = PoolWalk { offset, tier, base, left: 2 };
            let line =
                CoreGenerator::walk(&mut walk, &mut Rng::new(1), base, tier, &Geometric::new(0.5));
            prop_assert_eq!(line, base + offset);
            prop_assert_eq!(walk.offset, (offset + 1) % tier);
            prop_assert_eq!(walk.left, 1);
            Ok(())
        });
    }

    #[test]
    fn cores_and_seeds_differ() {
        let spec = workload("apache").unwrap();
        let mut a = CoreGenerator::new(&spec, 0, 7);
        let mut b = CoreGenerator::new(&spec, 1, 7);
        let mut c = CoreGenerator::new(&spec, 0, 8);
        let ea: Vec<_> = (0..100).map(|_| a.next_event()).collect();
        let eb: Vec<_> = (0..100).map(|_| b.next_event()).collect();
        let ec: Vec<_> = (0..100).map(|_| c.next_event()).collect();
        assert_ne!(ea, eb);
        assert_ne!(ea, ec);
    }

    #[test]
    fn ifetch_cadence_is_sixteen_instructions() {
        let mut g = gen("mgrid");
        let mut insts = 0u64;
        let mut ifetches = 0u64;
        for _ in 0..20_000 {
            let ev = g.next_event();
            insts += ev.gap;
            if matches!(ev.event, TraceEvent::IFetch(_)) {
                ifetches += 1;
            }
        }
        let per = insts as f64 / ifetches as f64;
        assert!((15.0..17.0).contains(&per), "instructions per I-line: {per}");
    }

    #[test]
    fn data_rate_matches_mem_ratio() {
        let spec = workload("oltp").unwrap();
        let mut g = CoreGenerator::new(&spec, 0, 3);
        let mut insts = 0u64;
        let mut datas = 0u64;
        for _ in 0..40_000 {
            let ev = g.next_event();
            insts += ev.gap;
            if matches!(ev.event, TraceEvent::Data { .. }) {
                datas += 1;
            }
        }
        let rate = datas as f64 / insts as f64;
        assert!(
            (rate - spec.mem_ratio).abs() < 0.03,
            "data rate {rate} vs mem_ratio {}",
            spec.mem_ratio
        );
    }

    #[test]
    fn store_fraction_approximates_spec() {
        let spec = workload("fma3d").unwrap();
        let mut g = CoreGenerator::new(&spec, 0, 3);
        let (mut loads, mut stores) = (0u64, 0u64);
        for _ in 0..40_000 {
            if let TraceEvent::Data { kind, .. } = g.next_event().event {
                match kind {
                    AccessKind::Store => stores += 1,
                    _ => loads += 1,
                }
            }
        }
        let frac = stores as f64 / (loads + stores) as f64;
        assert!((frac - spec.store_fraction).abs() < 0.05, "store fraction {frac}");
    }

    #[test]
    fn addresses_stay_in_declared_regions() {
        let spec = workload("jbb").unwrap();
        let mut g = CoreGenerator::new(&spec, 2, 5);
        for _ in 0..20_000 {
            let ev = g.next_event();
            let line = ev.event.line().0;
            let ok = spec.inst_region().contains(line)
                || spec.shared_region().contains(line)
                || spec.private_region(2).contains(line)
                || spec.stream_region(2).contains(line);
            assert!(ok, "line {line:#x} outside all regions");
        }
    }
}
