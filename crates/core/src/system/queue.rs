//! The engine's event queue: a timing wheel that pops events in exact
//! `(time, seq)` order, where `seq` numbers schedules in call order.
//!
//! Nearly every event is scheduled less than [`WHEEL`] cycles ahead (the
//! memory latency plus link queueing is the longest common horizon), so
//! such events go into the bucket of their cycle: a FIFO list, which is
//! `seq` order because `seq` only grows. Scheduling is an append, and
//! popping finds the first occupied bucket through a bitmap. The rare
//! event scheduled further ahead waits in a binary heap, and each pop
//! takes whichever of the two fronts comes first in `(time, seq)`, so the
//! order is the one a single heap over every event would give.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the wheel spans; a power of two.
const WHEEL: usize = 1 << 12;
/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// Pending events of type `E`, popped in `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    /// Event payloads by slot. A slot is freed as its event pops and
    /// reused by the next schedule, so the slab's size tracks the
    /// *outstanding* events, not every event ever scheduled.
    events: Vec<E>,
    /// Each slot's schedule number.
    seqs: Vec<u64>,
    /// Each wheel slot's successor in its bucket.
    next: Vec<u32>,
    free: Vec<u32>,
    /// First and last slot of each bucket (`time % WHEEL`).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// One bit per non-empty bucket.
    occupied: Vec<u64>,
    /// Time of the last popped event. Every wheel event's time lies in
    /// `now..now + WHEEL`, so its bucket names it unambiguously.
    now: u64,
    /// Events scheduled [`WHEEL`] or more cycles ahead, as
    /// `(time, seq, slot)`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue at time 0.
    pub(crate) fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            seqs: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
            head: vec![NIL; WHEEL],
            tail: vec![NIL; WHEEL],
            occupied: vec![0; WHEEL / 64],
            now: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `ev` at `time`, after every event already scheduled for
    /// the same time.
    #[inline]
    pub(crate) fn schedule(&mut self, time: u64, ev: E) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.events[i] = ev;
                self.seqs[i] = self.seq;
                self.next[i] = NIL;
                slot
            }
            None => {
                let slot = u32::try_from(self.events.len())
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("fewer than 2^32 - 1 outstanding events");
                self.events.push(ev);
                self.seqs.push(self.seq);
                self.next.push(NIL);
                slot
            }
        };
        if time >= self.now && time - self.now < WHEEL as u64 {
            let b = time as usize & (WHEEL - 1);
            match self.tail[b] {
                NIL => {
                    self.head[b] = slot;
                    self.occupied[b / 64] |= 1 << (b % 64);
                }
                last => self.next[last as usize] = slot,
            }
            self.tail[b] = slot;
        } else {
            self.far.push(Reverse((time, self.seq, slot)));
        }
    }

    /// The first occupied bucket at or after `now`'s, wrapping around.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        let start = self.now as usize & (WHEEL - 1);
        let words = self.occupied.len();
        let (w0, bit0) = (start / 64, start % 64);
        let here = self.occupied[w0] & (u64::MAX << bit0);
        if here != 0 {
            return Some(w0 * 64 + here.trailing_zeros() as usize);
        }
        for k in 1..=words {
            let w = (w0 + k) % words;
            let bits = self.occupied[w];
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Removes and returns the earliest event with its time.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let wheel = self.first_bucket().map(|b| {
            let time = self.now + ((b as u64).wrapping_sub(self.now) & (WHEEL as u64 - 1));
            (time, b)
        });
        let far = self.far.peek().map(|&Reverse(key)| key);
        let from_wheel = match (wheel, far) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((time, b)), Some((far_time, far_seq, _))) => {
                (time, self.seqs[self.head[b] as usize]) < (far_time, far_seq)
            }
        };
        let (time, slot) = match wheel {
            Some((time, b)) if from_wheel => {
                let slot = self.head[b];
                let next = self.next[slot as usize];
                self.head[b] = next;
                if next == NIL {
                    self.tail[b] = NIL;
                    self.occupied[b / 64] &= !(1 << (b % 64));
                }
                (time, slot)
            }
            _ => {
                let Reverse((time, _, slot)) = self.far.pop().expect("peeked above");
                (time, slot)
            }
        };
        self.now = time;
        self.free.push(slot);
        Some((time, self.events[slot as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_harness::{gen, prop::check, prop_assert_eq};

    type Oracle = BinaryHeap<Reverse<(u64, u64)>>;

    /// Pops one event from both, which must agree; returns its time.
    fn pop_both(q: &mut EventQueue<u64>, oracle: &mut Oracle) -> Result<Option<u64>, String> {
        let want = oracle.pop().map(|Reverse(key)| key);
        prop_assert_eq!(q.pop(), want);
        Ok(want.map(|(time, _)| time))
    }

    /// The wheel pops in the order of a plain binary heap over
    /// `(time, seq)`, the order it replaced.
    #[test]
    fn pops_in_the_order_of_one_heap() {
        // Each step schedules a batch at offsets from the current time
        // (near, far and beyond the wheel, ties included), then pops some.
        let offsets = gen::vec_of(gen::u64s(0..3 * WHEEL as u64), 0..6);
        let steps = gen::vec_of(gen::pair(offsets, gen::usizes(0..5)), 1..120);
        check("wheel_pops_in_heap_order", &steps, |steps| {
            let (mut q, mut oracle) = (EventQueue::new(), Oracle::new());
            let (mut now, mut seq) = (0u64, 0u64);
            for (batch, pops) in steps {
                for &offset in batch {
                    // Mostly near offsets, so buckets collect ties.
                    let time = now + if offset % 3 == 0 { offset } else { offset % 7 };
                    seq += 1;
                    q.schedule(time, seq);
                    oracle.push(Reverse((time, seq)));
                }
                for _ in 0..*pops {
                    now = pop_both(&mut q, &mut oracle)?.unwrap_or(now);
                }
            }
            while pop_both(&mut q, &mut oracle)?.is_some() {}
            Ok(())
        });
    }

    #[test]
    fn slots_are_reused() {
        let mut q = EventQueue::new();
        for t in 0..10_000u64 {
            q.schedule(t + 1, t);
            assert_eq!(q.pop(), Some((t + 1, t)));
        }
        assert_eq!(q.events.len(), 1, "one outstanding event needs one slot");
    }
}
