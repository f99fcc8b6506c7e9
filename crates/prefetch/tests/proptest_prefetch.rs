//! Property tests for the stride prefetcher (cmpsim-harness port —
//! same invariants as the proptest suite).

use cmpsim_cache::BlockAddr;
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq};
use cmpsim_prefetch::{
    PrefetchThrottle, PrefetcherConfig, StreamTable, StreamTableConfig, StridePrefetcher,
};

/// Bursts never exceed the requested degree or the configured
/// ceiling, and all burst addresses lie on the detected stride.
#[test]
fn bursts_respect_degree_and_stride() {
    let cases = gen::triple(
        gen::u64s(0..1_000_000),
        gen::select(vec![1i64, -1, 2, 3, -7, 12]),
        gen::u8s(0..40),
    );
    check("bursts_respect_degree_and_stride", &cases, |&(start, stride, degree)| {
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l1());
        let mut burst = Vec::new();
        for k in 0..4 {
            burst = pf
                .on_miss(BlockAddr(start.wrapping_add((k * stride) as u64)), degree)
                .collect::<Vec<_>>();
        }
        let cap = degree.min(PrefetcherConfig::l1().startup_prefetches);
        prop_assert!(burst.len() <= usize::from(cap));
        let last_miss = start.wrapping_add((3 * stride) as u64);
        for (i, addr) in burst.iter().enumerate() {
            let expect = last_miss.wrapping_add(((i as i64 + 1) * stride) as u64);
            prop_assert_eq!(addr.0, expect, "burst address off the stride");
        }
        Ok(())
    });
}

/// The throttle counter stays within [0, max] under any feedback
/// sequence.
#[test]
fn throttle_stays_in_range() {
    let cases = gen::pair(gen::u8s(1..30), gen::vec_of(gen::bools(), 0..500));
    check("throttle_stays_in_range", &cases, |(max, events)| {
        let mut t = PrefetchThrottle::new(*max);
        for &good in events {
            let _ = if good { t.record_useful() } else { t.record_bad() };
            prop_assert!(t.degree() <= *max);
        }
        Ok(())
    });
}

/// Random (non-strided) miss sequences never allocate streams, no
/// matter how long they run.
#[test]
fn noise_never_confirms() {
    let seeds = gen::vec_of(gen::u64s(0..1_000_000_000), 20..150);
    check("noise_never_confirms", &seeds, |seeds| {
        // Force distinct, far-apart addresses (beyond max_stride).
        let mut pf = StridePrefetcher::new(PrefetcherConfig::l2());
        let mut prev = 0u64;
        for (i, s) in seeds.iter().enumerate() {
            let addr = prev + 100 + (s % 1_000_000) + i as u64;
            prev = addr;
            let burst = pf.on_miss(BlockAddr(addr), 25);
            prop_assert!(burst.is_empty(), "noise at {addr} produced prefetches");
        }
        prop_assert_eq!(pf.stats().streams_allocated, 0);
        Ok(())
    });
}

/// A startup burst yields exactly the addresses the stream table once
/// collected into a `Vec`: `addr + k * stride` for `k` in `1..=degree`,
/// wrapping at both ends of the address space.
#[test]
fn burst_matches_the_collected_progression() {
    const EDGES: [u64; 4] = [0, 63, u64::MAX - 30, u64::MAX];
    let addr = gen::pair(gen::usizes(0..8), gen::u64s(..))
        .map(|(i, raw)| EDGES.get(i).copied().unwrap_or(raw));
    let cases = gen::triple(addr, gen::i64s(-64..=64), gen::u8s(..));
    check("burst_matches_the_collected_progression", &cases, |&(addr, stride, degree)| {
        if stride == 0 {
            return Ok(());
        }
        let mut table = StreamTable::new(StreamTableConfig { entries: 8 });
        let burst = table.allocate(BlockAddr(addr), stride, degree);
        prop_assert_eq!(burst.len(), usize::from(degree));
        let expect: Vec<BlockAddr> =
            (1..=i64::from(degree)).map(|k| BlockAddr(addr).offset(k * stride)).collect();
        prop_assert_eq!(burst.collect::<Vec<_>>(), expect);
        Ok(())
    });
}
