//! Property tests for the off-chip link: byte conservation, lane
//! monotonicity, and queueing consistency under arbitrary traffic
//! (cmpsim-harness port — same invariants as the proptest suite).

use cmpsim_cache::BlockAddr;
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq};
use cmpsim_link::{Channel, LinkBandwidth, Message};

fn arbitrary_message(kind: u8, addr: u64, segs: u8) -> Message {
    let a = BlockAddr(addr);
    let s = segs % 8 + 1;
    match kind % 3 {
        0 => Message::read_request(a, kind.is_multiple_of(2)),
        1 => Message::data_response(a, s, kind % 2 == 1),
        _ => Message::writeback(a, s),
    }
}

/// total_bytes equals the sum of message sizes; busy time equals the
/// sum of serialization durations.
#[test]
fn byte_and_time_conservation() {
    let msgs = gen::vec_of(
        gen::quad(gen::u8s(..), gen::u64s(0..1000), gen::u8s(..), gen::u64s(0..10_000)),
        1..200,
    );
    check("byte_and_time_conservation", &msgs, |msgs| {
        let mut link = Channel::new(LinkBandwidth::GBps(20), 5);
        let mut bytes = 0u64;
        let mut busy = 0u64;
        let mut now = 0u64;
        for &(kind, addr, segs, dt) in msgs {
            now += dt;
            let m = arbitrary_message(kind, addr, segs);
            bytes += m.size_bytes() as u64;
            busy += link.duration_cycles(m.size_bytes());
            let t = link.send(now, &m);
            prop_assert!(t.start >= now, "transfer cannot start in the past");
            prop_assert!(t.done >= t.start);
        }
        prop_assert_eq!(link.stats().total_bytes, bytes);
        prop_assert_eq!(link.stats().busy_cycles, busy);
        Ok(())
    });
}

/// Within a lane, transfers never overlap: each message's start is at
/// or after the previous same-lane message's completion.
#[test]
fn same_lane_transfers_serialize() {
    let sends = gen::vec_of(gen::pair(gen::u64s(0..500), gen::u8s(1..=8)), 1..100);
    check("same_lane_transfers_serialize", &sends, |sends| {
        let mut link = Channel::new(LinkBandwidth::GBps(10), 5);
        let mut now = 0u64;
        let mut prev_done = 0u64;
        for &(dt, segs) in sends {
            now += dt;
            let t = link.send(now, &Message::data_response(BlockAddr(0), segs, false));
            prop_assert!(t.start >= prev_done, "overlapping transfers on one lane");
            prev_done = t.done;
        }
        Ok(())
    });
}

/// Infinite bandwidth: zero queueing, zero busy time, exact byte
/// accounting.
#[test]
fn infinite_link_properties() {
    let msgs = gen::vec_of(
        gen::triple(gen::u8s(..), gen::u64s(0..100), gen::u8s(..)),
        1..100,
    );
    check("infinite_link_properties", &msgs, |msgs| {
        let mut link = Channel::new(LinkBandwidth::Infinite, 5);
        for &(kind, addr, segs) in msgs {
            let m = arbitrary_message(kind, addr, segs);
            let t = link.send(7, &m);
            prop_assert_eq!(t.start, 7);
            prop_assert_eq!(t.done, 7);
        }
        prop_assert_eq!(link.stats().queue_delay_cycles, 0);
        prop_assert_eq!(link.stats().busy_cycles, 0);
        Ok(())
    });
}
