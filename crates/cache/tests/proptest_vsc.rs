//! Property tests: VSC structural invariants under random operation
//! streams (cmpsim-harness port — same invariants as the proptest suite:
//! segment accounting never exceeds capacity, no duplicate residents,
//! model agreement, clean invalidation).

use cmpsim_cache::{BlockAddr, VscCache, VscConfig, VscEvicted, VscLookup};
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq};
use std::collections::HashMap;

const SETS: usize = 4;
const SEGMENTS: u32 = 32;
const TAGS: usize = 8;

fn new_cache() -> VscCache<u64> {
    VscCache::new(VscConfig {
        sets: SETS,
        tags_per_set: TAGS,
        segments_per_set: SEGMENTS,
        line_segments: 8,
    })
}

fn check_invariants(c: &VscCache<u64>, model: &HashMap<BlockAddr, u8>) -> Result<(), String> {
    // 1. Segment accounting: total used == sum of per-line sizes.
    let mut total = 0u64;
    let mut seen = Vec::new();
    c.for_each_valid(|addr, _, segs| {
        total += u64::from(segs);
        seen.push((addr, segs));
        assert!((1..=8).contains(&segs));
    });
    prop_assert_eq!(total, c.used_segments_total());

    // 2. No duplicate resident addresses.
    let mut addrs: Vec<_> = seen.iter().map(|(a, _)| *a).collect();
    addrs.sort();
    addrs.dedup();
    prop_assert_eq!(addrs.len(), seen.len(), "duplicate resident address");

    // 3. Every resident line matches what the model last wrote.
    for (addr, segs) in &seen {
        prop_assert_eq!(model.get(addr), Some(segs), "stale size for {addr}");
    }

    // 4. Per-set capacity bounds (valid_lines <= tags, segments <= cap)
    //    hold globally.
    prop_assert!(c.valid_lines() <= SETS * TAGS);
    prop_assert!(c.used_segments_total() <= (SETS as u64) * u64::from(SEGMENTS));
    Ok(())
}

#[test]
fn random_fills_preserve_invariants() {
    let ops = gen::vec_of(
        gen::triple(gen::u64s(0..64), gen::u8s(1..=8), gen::bools()),
        1..300,
    );
    check("random_fills_preserve_invariants", &ops, |ops| {
        let mut c = new_cache();
        let mut model: HashMap<BlockAddr, u8> = HashMap::new();
        for &(line, segs, prefetched) in ops {
            let addr = BlockAddr(line);
            let evicted: Vec<_> = c.fill(addr, segs, prefetched, line).collect();
            for e in &evicted {
                prop_assert!(e.addr != addr, "fill must never evict itself");
                model.remove(&e.addr);
            }
            model.insert(addr, segs);
            check_invariants(&c, &model)?;
        }
        Ok(())
    });
}

#[test]
fn lookup_agrees_with_model() {
    let cases = gen::pair(
        gen::vec_of(gen::pair(gen::u64s(0..32), gen::u8s(1..=8)), 1..200),
        gen::vec_of(gen::u64s(0..32), 1..50),
    );
    check("lookup_agrees_with_model", &cases, |(ops, probes)| {
        let mut c = new_cache();
        let mut model: HashMap<BlockAddr, u8> = HashMap::new();
        for &(line, segs) in ops {
            let addr = BlockAddr(line);
            for e in c.fill(addr, segs, false, line) {
                model.remove(&e.addr);
            }
            model.insert(addr, segs);
        }
        for &line in probes {
            let addr = BlockAddr(line);
            let hit = c.lookup(addr).is_hit();
            prop_assert_eq!(hit, model.contains_key(&addr),
                "lookup/model disagree at {}", addr);
        }
        Ok(())
    });
}

#[test]
fn invalidate_then_miss() {
    let lines = gen::vec_of(gen::u64s(0..32), 1..50);
    check("invalidate_then_miss", &lines, |lines| {
        let mut c = new_cache();
        for &line in lines {
            c.fill(BlockAddr(line), 4, false, line);
        }
        for &line in lines {
            c.invalidate(BlockAddr(line));
            prop_assert!(!c.lookup(BlockAddr(line)).is_hit());
        }
        prop_assert_eq!(c.used_segments_total(), 0);
        prop_assert_eq!(c.valid_lines(), 0);
        Ok(())
    });
}

#[test]
fn victim_tag_then_refill_promotes() {
    let mut c: VscCache<u64> = VscCache::new(VscConfig {
        sets: 1, tags_per_set: 8, segments_per_set: 32, line_segments: 8,
    });
    for i in 0..5 {
        c.fill(BlockAddr(i), 8, false, i);
    }
    assert_eq!(c.lookup(BlockAddr(0)), VscLookup::VictimTagHit);
    c.fill(BlockAddr(0), 8, false, 0);
    assert!(c.lookup(BlockAddr(0)).is_hit());
    assert_eq!(c.valid_lines(), 4);
}

/// Recounts occupancy from the tags and recomputes the effective
/// capacity ratio from that recount, the way the scans once did.
fn scanned_occupancy(c: &VscCache<u64>) -> (usize, u64, f64) {
    let (mut lines, mut used) = (0usize, 0u64);
    c.for_each_valid(|_, _, segs| {
        lines += 1;
        used += u64::from(segs);
    });
    let cfg = c.config();
    let ratio = if used == 0 {
        1.0
    } else {
        let tag_cap = cfg.tags_per_set as f64 / cfg.data_lines_per_set() as f64;
        ((lines as u64 * u64::from(cfg.line_segments)) as f64 / used as f64).min(tag_cap)
    };
    (lines, used, ratio)
}

/// The running occupancy counters equal a full scan after every fill,
/// resize, invalidation and lookup, and so does the capacity ratio
/// computed from them, bit for bit.
#[test]
fn occupancy_counters_match_a_full_scan() {
    // 0 = fill (a resize when resident), 1 = invalidate, 2 = lookup.
    let op = gen::quad(gen::u32s(0..=2), gen::u64s(0..48), gen::u8s(1..=8), gen::bools());
    check("occupancy_counters_match_a_full_scan", &gen::vec_of(op, 1..300), |ops| {
        let mut c = new_cache();
        for &(kind, line, segs, prefetched) in ops {
            let addr = BlockAddr(line);
            match kind {
                0 => {
                    c.fill(addr, segs, prefetched, line);
                }
                1 => {
                    c.invalidate(addr);
                }
                _ => {
                    c.lookup(addr);
                }
            }
            let (lines, used, ratio) = scanned_occupancy(&c);
            prop_assert_eq!(c.valid_lines(), lines);
            prop_assert_eq!(c.used_segments_total(), used);
            prop_assert_eq!(c.effective_capacity_ratio().to_bits(), ratio.to_bits());
            prop_assert_eq!(c.check_invariants(), Ok(()));
        }
        Ok(())
    });
}

/// One VSC tag in the model: the fields of the tag store, with a u64
/// clock stamp for the LRU order (0: never allocated).
#[derive(Clone, Copy, Default)]
struct ModelTag {
    addr: u64,
    stamp: u64,
    allocated: bool,
    has_data: bool,
    prefetch: bool,
    segments: u8,
    meta: u64,
}

/// One VSC set, written from the replacement rules with clock stamps:
/// a fill evicts the least recently used data lines (other than its own)
/// until its size fits, then takes the first unallocated tag, else the
/// LRU dataless tag, else the LRU tag, whose line it evicts. Ties on a
/// stamp go to the lower tag.
struct ModelVscSet {
    tags: Vec<ModelTag>,
    segments: u32,
    clock: u64,
}

impl ModelVscSet {
    fn new(tags: usize, segments: u32) -> Self {
        ModelVscSet { tags: vec![ModelTag::default(); tags], segments, clock: 0 }
    }

    fn find(&self, addr: BlockAddr) -> Option<usize> {
        self.tags.iter().position(|t| t.allocated && t.addr == addr.0)
    }

    /// The LRU tag among those `eligible` accepts.
    fn lru(&self, eligible: impl Fn(usize, &ModelTag) -> bool) -> Option<usize> {
        (0..self.tags.len())
            .filter(|&i| eligible(i, &self.tags[i]))
            .min_by_key(|&i| (self.tags[i].stamp, i))
    }

    fn drop_data(&mut self, i: usize) -> VscEvicted<u64> {
        let t = &mut self.tags[i];
        let evicted = VscEvicted {
            addr: BlockAddr(t.addr),
            segments: t.segments,
            was_unused_prefetch: t.prefetch,
            meta: t.meta,
        };
        (t.has_data, t.prefetch, t.segments, t.meta) = (false, false, 0, 0);
        evicted
    }

    fn lookup(&mut self, addr: BlockAddr) -> VscLookup {
        let Some(i) = self.find(addr) else { return VscLookup::Miss };
        if !self.tags[i].has_data {
            return VscLookup::VictimTagHit;
        }
        let mine = self.tags[i].stamp;
        let lru_depth = self.tags.iter().filter(|t| t.has_data && t.stamp > mine).count();
        self.clock += 1;
        let t = &mut self.tags[i];
        t.stamp = self.clock;
        let prefetch_first_touch = std::mem::take(&mut t.prefetch);
        VscLookup::Hit { compressed: t.segments < 8, lru_depth, prefetch_first_touch }
    }

    fn fill(&mut self, addr: BlockAddr, segments: u8, prefetched: bool, meta: u64) -> Vec<VscEvicted<u64>> {
        let mut evicted = Vec::new();
        let existing = self.find(addr);
        let had_data = existing.is_some_and(|i| self.tags[i].has_data);
        let mine = existing.map_or(0, |i| u32::from(self.tags[i].segments));
        let used = |m: &Self| m.tags.iter().map(|t| u32::from(t.segments)).sum::<u32>();
        while used(self) - mine + u32::from(segments) > self.segments {
            let victim = self.lru(|i, t| t.has_data && Some(i) != existing).unwrap();
            evicted.push(self.drop_data(victim));
        }
        let slot = existing
            .or_else(|| self.tags.iter().position(|t| !t.allocated))
            .or_else(|| self.lru(|_, t| !t.has_data))
            .unwrap_or_else(|| {
                let i = self.lru(|_, _| true).unwrap();
                evicted.push(self.drop_data(i));
                i
            });
        self.clock += 1;
        let t = &mut self.tags[slot];
        let prefetch = if had_data { prefetched && t.prefetch } else { prefetched };
        *t = ModelTag {
            addr: addr.0,
            stamp: self.clock,
            allocated: true,
            has_data: true,
            prefetch,
            segments,
            meta,
        };
        evicted
    }

    fn invalidate(&mut self, addr: BlockAddr) -> Option<(u64, u8)> {
        let i = self.find(addr).filter(|&i| self.tags[i].has_data)?;
        let e = self.drop_data(i);
        Some((e.meta, e.segments))
    }
}

/// Every lookup outcome (hit, compressed, LRU depth, first touch, victim
/// tag), every fill's evictions and every invalidation of one 8-tag,
/// 32-segment set follow the stamp model, over streams long enough that
/// the set's LRU ranks renumber. Kinds: 0 lookup, 1 demand fill,
/// 2 prefetch fill, 3 invalidate.
#[test]
fn one_set_follows_the_stamp_model() {
    let op = gen::triple(gen::u32s(0..=3), gen::u64s(0..24), gen::u8s(1..=8));
    check("one_set_follows_the_stamp_model", &gen::vec_of(op, 600..3_000), |ops| {
        let mut c: VscCache<u64> = VscCache::new(VscConfig {
            sets: 1, tags_per_set: TAGS, segments_per_set: SEGMENTS, line_segments: 8,
        });
        let mut model = ModelVscSet::new(TAGS, SEGMENTS);
        for (step, &(kind, line, segs)) in ops.iter().enumerate() {
            let addr = BlockAddr(line);
            match kind {
                0 => prop_assert_eq!(c.lookup(addr), model.lookup(addr), "lookup at step {step}"),
                1 | 2 => {
                    let got: Vec<_> = c.fill(addr, segs, kind == 2, step as u64).collect();
                    let want = model.fill(addr, segs, kind == 2, step as u64);
                    prop_assert_eq!(got, want, "fill at step {step}");
                }
                _ => prop_assert_eq!(c.invalidate(addr), model.invalidate(addr), "step {step}"),
            }
        }
        Ok(())
    });
}
