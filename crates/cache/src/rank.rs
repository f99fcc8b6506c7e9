//! LRU order within a set, in one byte per tag.
//!
//! A tag store keeps a `u8` rank per tag and a `u8` per set, `top`: the
//! highest rank that set has handed out. A touch gives its tag
//! `top + 1`, so within a set a higher rank means a more recent touch,
//! and rank 0 means the tag was never filled (or, in the set-associative
//! cache, was invalidated). When `top` reaches `u8::MAX` the set's
//! nonzero ranks are renumbered `1..=k` in the same order first. Two
//! tags of one set therefore compare by rank exactly as they would by a
//! global clock stamp, in a byte instead of eight.

use std::ops::Range;

/// Most tags a set may have: a full set renumbers to `1..=ways`, and the
/// touch that follows still needs a rank above that.
pub(crate) const MAX_WAYS: usize = u8::MAX as usize - 1;

/// Makes tag `i` of a rank column the most recently used of its set,
/// the tags `set` of that column, whose highest handed-out rank is
/// `top`. Only the cold renumber step takes the set's slice.
#[inline]
pub(crate) fn touch(column: &mut [u8], set: Range<usize>, top: &mut u8, i: usize) {
    if *top == u8::MAX {
        *top = renumber(&mut column[set]);
    }
    *top += 1;
    column[i] = *top;
}

/// Renumbers the nonzero `ranks` to `1..=k` in the same order, leaving
/// rank 0 alone, and returns `k`.
#[cold]
fn renumber(ranks: &mut [u8]) -> u8 {
    let mut renamed = [0u8; 256];
    for &r in ranks.iter() {
        renamed[usize::from(r)] = 1;
    }
    renamed[0] = 0;
    let mut k = 0;
    for slot in &mut renamed {
        if *slot != 0 {
            k += 1;
            *slot = k;
        }
    }
    for r in ranks.iter_mut() {
        *r = renamed[usize::from(*r)];
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_harness::{gen, prop::check, prop_assert_eq};

    /// Ranks against the u64 clock stamps they replace: one set of 1–16
    /// ways under up to 3,000 touches (op 0–2) and invalidations (op 3),
    /// most of them renumbering the set several times. After every step,
    /// each pair of ways compares by rank as it does by stamp, and rank 0
    /// is stamp 0.
    #[test]
    fn ranks_order_a_set_as_clock_stamps_do() {
        let ops = gen::pair(
            gen::usizes(1..=16),
            gen::vec_of(gen::pair(gen::usizes(0..16), gen::u32s(0..=3)), 1..3_000),
        );
        check("ranks_order_a_set_as_clock_stamps_do", &ops, |(ways, ops)| {
            let ways = *ways;
            let (mut ranks, mut top) = (vec![0u8; ways], 0u8);
            let (mut stamps, mut clock) = (vec![0u64; ways], 0u64);
            for (step, &(way, op)) in ops.iter().enumerate() {
                let way = way % ways;
                if op == 3 {
                    ranks[way] = 0;
                    stamps[way] = 0;
                } else {
                    touch(&mut ranks, 0..ways, &mut top, way);
                    clock += 1;
                    stamps[way] = clock;
                }
                for a in 0..ways {
                    prop_assert_eq!(ranks[a] == 0, stamps[a] == 0, "way {a} at step {step}");
                    for b in 0..ways {
                        prop_assert_eq!(
                            ranks[a].cmp(&ranks[b]),
                            stamps[a].cmp(&stamps[b]),
                            "ways {a} and {b} at step {step}"
                        );
                    }
                }
            }
            Ok(())
        });
    }

    #[test]
    fn a_full_set_renumbers_in_order_and_keeps_rank_zero() {
        let mut ranks = [0, 200, 255, 7];
        let mut top = u8::MAX;
        touch(&mut ranks, 0..4, &mut top, 3);
        assert_eq!(ranks, [0, 2, 3, 4]);
        assert_eq!(top, 4);
    }
}
