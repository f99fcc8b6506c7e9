//! Property tests: classic set-associative cache vs. a naive LRU model
//! (cmpsim-harness port — same reference-model invariant).

use cmpsim_cache::{BlockAddr, SetAssocCache, SetAssocConfig};
use cmpsim_harness::{gen, prop::check, prop_assert_eq};
use std::collections::VecDeque;

/// Naive per-set LRU model: each line with its prefetch bit.
#[derive(Default)]
struct ModelSet {
    order: VecDeque<(BlockAddr, bool)>, // front = LRU, back = MRU
}

impl ModelSet {
    /// Moves `a` to MRU; returns its prefetch bit if present.
    fn touch(&mut self, a: BlockAddr) -> Option<bool> {
        let pos = self.order.iter().position(|&(x, _)| x == a)?;
        let line = self.order.remove(pos).expect("position is in range");
        self.order.push_back(line);
        Some(line.1)
    }
    /// A demand access: hit or miss, and whether it was the first touch
    /// of a prefetched line (which clears the bit).
    fn lookup(&mut self, a: BlockAddr) -> Option<bool> {
        let first_touch = self.touch(a)?;
        self.order.back_mut().expect("just touched").1 = false;
        Some(first_touch)
    }
    /// A fill; returns the victim and whether it was an unused prefetch.
    fn fill(&mut self, a: BlockAddr, prefetched: bool, ways: usize) -> Option<(BlockAddr, bool)> {
        if self.touch(a).is_some() {
            self.order.back_mut().expect("just touched").1 &= prefetched;
            return None;
        }
        let victim = if self.order.len() == ways { self.order.pop_front() } else { None };
        self.order.push_back((a, prefetched));
        victim
    }
    fn invalidate(&mut self, a: BlockAddr) -> bool {
        let pos = self.order.iter().position(|&(x, _)| x == a);
        pos.map(|p| self.order.remove(p)).is_some()
    }
}

/// Replays `ops` on a cache of `sets` sets of four ways and on one
/// model per set. Operation kinds: 0 lookup, 1 demand fill, 2 prefetch
/// fill, 3 invalidate.
fn matches_model(sets: usize, ops: &[(u64, u32)]) -> Result<(), String> {
    const WAYS: usize = 4;
    let mut c: SetAssocCache<()> = SetAssocCache::new(SetAssocConfig { sets, ways: WAYS });
    let mut model: Vec<ModelSet> = (0..sets).map(|_| ModelSet::default()).collect();

    for &(line, kind) in ops {
        let addr = BlockAddr(line);
        let set = addr.set_index(sets);
        match kind {
            0 => {
                let hit = c.lookup(addr).map(|(_, first_touch)| first_touch);
                prop_assert_eq!(hit, model[set].lookup(addr));
            }
            1 | 2 => {
                let prefetched = kind == 2;
                let victim = c.fill(addr, prefetched, ());
                let model_victim = model[set].fill(addr, prefetched, WAYS);
                prop_assert_eq!(victim.map(|v| (v.addr, v.was_unused_prefetch)), model_victim);
            }
            _ => {
                let gone = c.invalidate(addr).is_some();
                prop_assert_eq!(gone, model[set].invalidate(addr));
            }
        }
        let resident: usize = model.iter().map(|m| m.order.len()).sum();
        prop_assert_eq!(c.valid_lines(), resident);
    }
    Ok(())
}

/// Hits, first touches, victims and their prefetch bits, and the valid
/// line count follow the model: on four sets under short streams, and
/// on one set under streams long enough that its LRU ranks renumber
/// several times.
#[test]
fn matches_reference_lru() {
    let ops = gen::vec_of(gen::pair(gen::u64s(0..48), gen::u32s(0..=3)), 1..400);
    check("matches_reference_lru", &ops, |ops| matches_model(4, ops));
    let ops = gen::vec_of(gen::pair(gen::u64s(0..12), gen::u32s(0..=3)), 300..1_500);
    check("matches_reference_lru_one_set", &ops, |ops| matches_model(1, ops));
}
