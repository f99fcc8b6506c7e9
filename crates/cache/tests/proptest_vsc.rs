//! Property tests: VSC structural invariants under random operation
//! streams (cmpsim-harness port — same invariants as the proptest suite:
//! segment accounting never exceeds capacity, no duplicate residents,
//! model agreement, clean invalidation).

use cmpsim_cache::{BlockAddr, VscCache, VscConfig, VscLookup};
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
