//! Per-core execution state: the window-based timing model that stands in
//! for the paper's Simics/GEMS out-of-order cores (see DESIGN.md,
//! substitution 1).
//!
//! A core issues instructions at `issue_width` per cycle between the
//! memory events its trace generator produces. Loads that miss allocate
//! window slots; the core keeps issuing (memory-level parallelism) until
//! it hits one of the Table 1 limits — 128 instructions of ROB run-ahead
//! past the oldest incomplete load, 16 outstanding requests, or an
//! instruction-fetch miss (the in-order frontend stalls immediately).

use cmpsim_cache::BlockAddr;
use cmpsim_trace::{CoreGenerator, TimedEvent};
use std::collections::VecDeque;

/// Why a core is not currently issuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Runnable (or currently running).
    Ready,
    /// Frontend stalled on an instruction-line fill.
    IFetch(BlockAddr),
    /// Stalled on a dependent load's fill (pointer chasing).
    Load(BlockAddr),
    /// ROB run-ahead limit reached; waiting for the oldest load.
    Rob,
    /// All MSHRs in use; waiting for any completion.
    Mshr,
    /// Instruction quota reached.
    Done,
}

/// One processor core's execution state.
#[derive(Debug)]
pub struct Core {
    /// Core id.
    id: u8,
    /// Trace generator for this core.
    pub gen: CoreGenerator,
    /// Local cycle time (≥ the global event time that last ran it).
    pub cycle: u64,
    /// Instructions issued so far.
    pub insts: u64,
    /// Next trace event, if it was produced but could not issue yet.
    pub pending: Option<TimedEvent>,
    /// Outstanding memory requests charged to this core (MSHR budget).
    pub outstanding: usize,
    /// Incomplete loads as `(sequence number, line)`, sorted by sequence
    /// number and unique in it (for the ROB limit). Loads are issued in
    /// program order, so tracking one is a push at the back.
    loads: VecDeque<(u64, BlockAddr)>,
    /// Current stall reason.
    pub waiting: Wait,
    /// Instruction count at which this core stops.
    pub quota: u64,
    /// Cycle at which the quota was reached.
    pub finished_at: Option<u64>,
}

impl Core {
    /// A fresh core wrapping `gen`.
    pub fn new(id: u8, gen: CoreGenerator) -> Self {
        Core {
            id,
            gen,
            cycle: 0,
            insts: 0,
            pending: None,
            outstanding: 0,
            loads: VecDeque::new(),
            waiting: Wait::Ready,
            quota: u64::MAX,
            finished_at: None,
        }
    }

    /// The next trace event, consuming the pending one first.
    pub fn next_event(&mut self) -> TimedEvent {
        self.pending.take().unwrap_or_else(|| self.gen.next_event())
    }

    /// Registers an incomplete load of `line` issued at instruction
    /// `seq`. A sequence number already tracked is left as it is.
    pub fn track_load(&mut self, seq: u64, line: BlockAddr) {
        match self.loads.back() {
            Some(&(last, _)) if last >= seq => {
                let at = self.loads.partition_point(|&(s, _)| s < seq);
                if self.loads.get(at).is_none_or(|&(s, _)| s != seq) {
                    self.loads.insert(at, (seq, line));
                }
            }
            _ => self.loads.push_back((seq, line)),
        }
    }

    /// Completes every incomplete load of `line` (the fill that
    /// satisfies them all); returns how many there were.
    pub fn complete_loads(&mut self, line: BlockAddr) -> usize {
        let before = self.loads.len();
        self.loads.retain(|&(_, l)| l != line);
        before - self.loads.len()
    }

    /// Oldest incomplete load's sequence number.
    pub fn oldest_load(&self) -> Option<u64> {
        self.loads.front().map(|&(seq, _)| seq)
    }

    /// How many more instructions may issue before the ROB limit blocks,
    /// given run-ahead limit `rob`.
    pub fn issuable(&self, rob: u64) -> u64 {
        match self.oldest_load() {
            None => u64::MAX,
            Some(oldest) => (oldest + rob).saturating_sub(self.insts),
        }
    }

    /// This core's id.
    pub fn id(&self) -> u8 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::workload;

    fn core() -> Core {
        Core::new(0, CoreGenerator::new(&workload("zeus").unwrap(), 0, 1))
    }

    #[test]
    fn rob_math() {
        let mut c = core();
        assert_eq!(c.issuable(128), u64::MAX, "no outstanding loads");
        c.insts = 100;
        c.track_load(100, BlockAddr(1));
        assert_eq!(c.issuable(128), 128, "can run to seq 228");
        c.insts = 200;
        assert_eq!(c.issuable(128), 28);
        c.insts = 250;
        assert_eq!(c.issuable(128), 0, "blocked");
        c.complete_loads(BlockAddr(1));
        assert_eq!(c.issuable(128), u64::MAX);
    }

    #[test]
    fn oldest_load_orders() {
        let mut c = core();
        c.track_load(50, BlockAddr(5));
        c.track_load(10, BlockAddr(1));
        c.track_load(30, BlockAddr(1));
        assert_eq!(c.oldest_load(), Some(10));
        c.complete_loads(BlockAddr(1));
        assert_eq!(c.oldest_load(), Some(50));
    }

    #[test]
    fn tracked_loads_keep_set_semantics() {
        // Against an ordered map as the reference: the same oldest load
        // after any interleaving of (re-)tracking and completion,
        // out-of-order and duplicate sequence numbers included.
        use cmpsim_harness::{gen, prop::check, prop_assert_eq};
        use std::collections::BTreeMap;
        let op = gen::triple(gen::bools(), gen::u64s(0..64), gen::u64s(0..6));
        check("tracked_loads_keep_set_semantics", &gen::vec_of(op, 0..200), |ops| {
            let mut c = core();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for &(track, seq, line) in ops {
                if track {
                    c.track_load(seq, BlockAddr(line));
                    model.entry(seq).or_insert(line);
                } else {
                    let before = model.len();
                    model.retain(|_, l| *l != line);
                    prop_assert_eq!(c.complete_loads(BlockAddr(line)), before - model.len());
                }
                prop_assert_eq!(c.oldest_load(), model.keys().next().copied());
                prop_assert_eq!(c.loads.len(), model.len());
            }
            Ok(())
        });
    }

    #[test]
    fn pending_event_round_trip() {
        let mut c = core();
        let e = c.next_event();
        c.pending = Some(e);
        assert_eq!(c.next_event(), e);
    }
}
